#!/usr/bin/env python3
"""Regenerate expected.json: the expected answer of every default-seed instance.

    python3 perfbench/freeze.py

Each value comes from every source that applies, and the sources must agree:
the brute-force oracles where the instance is in their range; closed forms
(a path bisects with cut 1 and separates with one vertex, and a bin-packing
gadget built from an exact packing partitions with cut 0); and the current
program, whose answer pins the value where nothing else reaches.  Trimmer
instances store the (n, m) of the trimmed graph.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import corpus
import run


def program_value(job):
    """(True, value) from the CLI, or (False, None) if it does not answer."""
    _, rc, out = run.solve(run.cli_module().main, job)
    if rc == 1 and job.command == "vbisect":
        return True, None
    if rc != 0:
        return False, None
    if job.command == "trim":
        n_star, edges, _ = checks.parse_trim(out)
        return True, [n_star, len(edges)]
    return True, int(out.split()[1])


def freeze_workload(workload: str):
    _, jobs, workdir = run.setup(workload, corpus.DEFAULT_SEED)
    balcut = sys.modules["balcut"]
    table = {}
    try:
        for job in jobs:
            found = {}
            known, value = checks.oracle_value(balcut, job)
            if known:
                found["oracle"] = value
            if checks.closed_form(job) is not None:
                found["closed-form"] = checks.closed_form(job)
            known, value = program_value(job)
            if known:
                found["program"] = value
            if not found:
                raise SystemExit(f"{workload}/{job.name}: no source gives an expected value")
            values = {json.dumps(v) for v in found.values()}
            if len(values) != 1:
                raise SystemExit(f"{workload}/{job.name}: sources disagree: {found}")
            table[job.name] = {"value": next(iter(found.values())), "source": "+".join(found)}
            print(f"{workload:15s} {job.name:28s} {table[job.name]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return table


def main() -> int:
    out = {w: freeze_workload(w) for w in corpus.WORKLOADS}
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
