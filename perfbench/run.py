#!/usr/bin/env python3
"""balcut benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

One caller runs `balcut.cli.main([...])` in-process as a closed loop (one
instance at a time, single thread), with stdout captured, over the seeded
corpus of one workload.  The timed corpus is solved in whole passes until
`--seconds` is used up (at least two passes).  Frontier rows -- instances
the solver is known to fail on -- run once, outside the timed passes.

    python3 perfbench/run.py --workload vbisect-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics.  Every output is
checked after timing; a wrong answer makes the run exit 1.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in both modes, each in its own process,
and prints their tables.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 2


@dataclass(frozen=True)
class Job:
    """One instance as the CLI sees it: a graph file and an argument list."""

    name: str
    command: str
    n: int
    edges: corpus.Edges
    argv: List[str]
    path: str
    frontier: bool
    invariant: bool


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def load_balcut():
    """Import balcut afresh from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "balcut" or m.startswith("balcut.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("balcut")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"balcut was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("balcut.cli")
    return pkg


def cli_module():
    return importlib.import_module("balcut.cli")


def write_jobs(instances, workdir: str) -> List[Job]:
    """Write every instance's graph file, running `balcut gen` where asked."""
    main = cli_module().main
    jobs = []
    for inst in instances:
        path = os.path.join(workdir, f"{inst.name}.gr")
        n, edges, flags = inst.n, inst.edges, list(inst.flags)
        if inst.gen:
            argv = list(inst.gen) + ["--output", path]
            if inst.edges:
                source = path + ".in"
                with open(source, "w", encoding="utf-8") as fh:
                    fh.write(corpus.gr_text(inst.n, inst.edges))
                argv += ["--graph", source]
            _, rc, _, err = checks.call_cli(main, argv)
            if rc != 0:
                raise RuntimeError(f"{inst.name}: `balcut {' '.join(inst.gen)}` failed: {err.strip()}")
            with open(path, encoding="utf-8") as fh:
                n, edges, params = corpus.parse_gr(fh.read())
            flags = [f.format(**params) for f in flags]
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corpus.gr_text(n, edges))
        argv = [inst.command, "--graph", path] + flags
        jobs.append(Job(inst.name, inst.command, n, edges, argv, path, inst.frontier, inst.invariant))
    return jobs


def setup(workload: str, seed: int):
    """Import, corpus generation and input files, timed as one set-up.

    Repeated SETUP_REPEATS times; returns the median time and the jobs of the
    last repetition.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    times, workdir, jobs = [], None, None
    for _ in range(SETUP_REPEATS):
        if workdir:
            shutil.rmtree(workdir)
        t0 = perf_counter()
        load_balcut()
        instances = corpus.build(workload, seed)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
        jobs = write_jobs(instances, workdir)
        times.append(perf_counter() - t0)
    return statistics.median(times), jobs, workdir


# --------------------------------------------------------------------------
# solving
# --------------------------------------------------------------------------


def solve(main, job: Job):
    """(seconds, exit code or exception text, stdout) of one CLI call."""
    return checks.call_cli(main, job.argv)[:3]


def solve_pass(main, jobs: List[Job]):
    gc.collect()
    return [solve(main, job) for job in jobs]


def corpus_seconds(passes) -> float:
    """Time to solve the corpus once: each instance's median over passes,
    summed.  A median, unlike the fastest pass, does not drift with the
    number of passes that fit in the run."""
    return sum(statistics.median(p[i][0] for p in passes) for i in range(len(passes[0])))


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------


def check_passes(checker: checks.Checker, jobs, passes) -> Dict[str, str]:
    """Instance name -> reason, for every timed instance that failed."""
    bad = {}
    for i, job in enumerate(jobs):
        _, rc, out = passes[0][i]
        if any((p[i][1], p[i][2]) != (rc, out) for p in passes[1:]):
            bad[job.name] = "output differs between passes"
            continue
        reason = checker.check(job, rc, out)
        if reason:
            bad[job.name] = reason
    return bad


def run_frontier(checker: checks.Checker, jobs):
    """(walls, wrong): frontier rows that did not solve, and those that
    solved with a wrong answer."""
    main = cli_module().main
    walls, wrong = {}, {}
    for job in jobs:
        _, rc, out = solve(main, job)
        if rc != 0:
            walls[job.name] = f"exit {rc!r}"
            continue
        reason = checker.check(job, rc, out)
        if reason:
            wrong[job.name] = reason
    return walls, wrong


def answers_sha256(jobs, outputs) -> str:
    digest = hashlib.sha256()
    for job, (_, rc, out) in zip(jobs, outputs):
        digest.update(f"{job.name}\0{rc}\0".encode())
        digest.update(out.encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool):
    setup_s, jobs, workdir = setup(workload, seed)
    try:
        checker = checks.Checker(sys.modules["balcut"], workload, seed, workdir)
        timed = [j for j in jobs if not j.frontier]
        frontier = [j for j in jobs if j.frontier]
        main = cli_module().main
        tracer = tracing.Tracer()

        def traced_main(argv):
            return tracer.call(tracing.ROOT, main, argv)

        plain, traced = [], []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            plain.append(solve_pass(main, timed))
            if trace:
                with tracer.installed():
                    traced.append(solve_pass(traced_main, timed))
            done = perf_counter() - start
            if len(plain) >= (1 if trace else MIN_PASSES) and done + (perf_counter() - t0) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        walls, wrong = run_frontier(checker, frontier)
        bad = check_passes(checker, timed, plain + traced)
        bad.update(wrong)
        result = {
            "workload": workload,
            "seed": seed,
            "instances": len(timed),
            "passes": len(plain),
            "frontier": len(frontier),
            "walls": walls,
            "bad": bad,
            "answers_sha256": answers_sha256(timed, plain[0]),
            "pass_s": [sum(t for t, _, _ in p) for p in plain],
        }
        attempted = len(timed) * len(plain + traced) + len(frontier)
        failed = sum(len(plain + traced) for j in timed if j.name in bad) + len(wrong)
        if trace:
            result["metrics"] = layer_metrics(tracer, plain, traced)
        else:
            times = []
            for i, job in enumerate(timed):  # a failed instance ranks above every success
                times += [math.inf if job.name in bad else p[i][0] for p in plain]
            solved = len(timed) + len(frontier) - len(bad) - len(walls)
            result["samples"] = len(times)
            result["metrics"] = {
                "setup_s": (setup_s, "s"),
                "solve_s.p50": (nearest_rank(times, 0.5), "s"),
                "solve_s.p90": (nearest_rank(times, 0.9), "s"),
                "corpus_s": (corpus_seconds(plain), "s"),
                "solved_frac": (solved / (len(timed) + len(frontier)), "frac"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        return result, attempted, failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def layer_metrics(tracer: tracing.Tracer, plain, traced):
    """Per-pass layer totals from the traced passes."""
    k = len(traced)
    totals = tracer.totals()
    out = {}
    for name in tracing.SPAN_NAMES:
        row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / k, "count")
        out[f"{name}.s"] = (row["s"] / k, "s")
        out[f"{name}.self_s"] = (row["self_s"] / k, "s")
    for name in tracing.COUNT_NAMES:
        value = tracer.counts.get(name, 0)
        source = tracing.MEAN_COUNTS.get(name)
        if source:
            calls = totals.get(source, {}).get("calls", 0)
            out[name] = (value / calls if calls else 0.0, "count")
        else:
            out[name] = (value / k, "count")
    traced_s, plain_s = corpus_seconds(traced), corpus_seconds(plain)
    out["trace.corpus_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def print_table(result, trace: bool) -> None:
    head = (
        f"# {result['workload']} seed={result['seed']}: {result['instances']} timed instances"
        f" x {result['passes']} passes"
    )
    if not trace:
        head += f" = {result['samples']} timed solves"
    print(head + f"; {result['frontier']} frontier rows, {len(result['walls'])} failed")
    for name, reason in sorted(result["walls"].items()):
        print(f"#   frontier {name}: {reason}")
    for name, reason in sorted(result["bad"].items()):
        print(f"#   WRONG {name}: {reason}")
    print(f"# answers_sha256 {result['answers_sha256']}")
    print("# untraced pass times " + " ".join(f"{t:.3f}" for t in result["pass_s"]) + " s")
    metrics = result["metrics"]
    if trace:
        total = metrics[f"{tracing.ROOT}.s"][0]
        self_sum = sum(metrics[f"{name}.self_s"][0] for name in tracing.SPAN_NAMES)
        print(f"# traced solve time {total:.4f} s per pass; sum of self times {self_sum:.4f} s")
    for name, (value, unit) in metrics.items():
        share = ""
        if trace and name.endswith(".self_s") and total > 0:
            share = f"  {100 * value / total:5.1f}%"
        print(f"{name:48s} {value:14.6f} {unit}{share}")


def run_all(args) -> int:
    status = 0
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(corpus.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_balcut()
    except ImportError as exc:
        print(f"error: cannot import balcut from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, attempted, failed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result, bool(args.trace))
    correct = not result["bad"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
