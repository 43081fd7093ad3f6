"""Tests of the benchmark itself (not of balcut).

    python3 -m pytest perfbench -q
"""

import importlib
import os
import shutil
import tempfile
from pathlib import Path

import pytest

import checks
import corpus
import run
import tracing


@pytest.fixture(scope="module", autouse=True)
def balcut():
    return run.load_balcut()


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, like the benchmark's own."""
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT)
    yield Path(path)
    shutil.rmtree(path)


def small_jobs(workload, tmp_path, count=3):
    os.makedirs(tmp_path, exist_ok=True)
    jobs = run.write_jobs(corpus.build(workload, corpus.DEFAULT_SEED), str(tmp_path))
    timed = [j for j in jobs if not j.frontier]
    return sorted(timed, key=lambda j: j.n)[:count], [j for j in jobs if j.frontier]


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_corpus_files_are_byte_identical_for_a_seed(workload, tmp_path):
    def files(seed, sub):
        os.makedirs(tmp_path / sub)
        jobs = run.write_jobs(corpus.build(workload, seed), str(tmp_path / sub))
        return [(job.argv[3:], (tmp_path / sub / os.path.basename(job.path)).read_bytes()) for job in jobs]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def test_structured_instances_keep_their_shape_across_seeds():
    for a, b in zip(corpus.build("trim-grids", 3), corpus.build("trim-grids", 4)):
        if a.invariant:
            assert a.name == b.name and len(a.edges) == len(b.edges)


def test_traced_run_restores_every_patched_name(tmp_path):
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a in tracing.patched_names()
    }
    tracer = tracing.Tracer()
    main = run.cli_module().main
    for workload in corpus.WORKLOADS:
        jobs, _ = small_jobs(workload, tmp_path / workload)
        with tracer.installed():
            for job in jobs:
                seconds, rc, _ = run.solve(lambda argv: tracer.call(tracing.ROOT, main, argv), job)
                assert rc in (0, 1)
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} was not restored"
    totals = tracer.totals()
    root = totals[tracing.ROOT]["s"]
    assert abs(sum(row["self_s"] for row in totals.values()) - root) < 1e-6 * max(1.0, root)
    for name in ("vbp.sep_dp", "cwcut.cut_dp", "vcpart.min_cost_assignment",
                 "torso.minimal_st_separators", "formats.parse_graph"):
        assert totals[name]["calls"] > 0, name
    assert tracer.counts["vcpart.enumerate_cover_partitions.items"] > 0


def test_names_are_restored_when_a_traced_call_raises():
    original = importlib.import_module("balcut.vbp").sep_dp
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert importlib.import_module("balcut.vbp").sep_dp is original


@pytest.mark.parametrize("workload", ["vbisect-ladder", "bisect-forests"])
def test_frontier_rows_are_recorded_as_failed_not_raised(workload, tmp_path):
    _, frontier = small_jobs(workload, tmp_path)
    frontier = [j for j in frontier if j.name != "path40-k1"]  # keep the test quick
    checker = checks.Checker(run.sys.modules["balcut"], workload, 1, str(tmp_path))
    walls, wrong = run.run_frontier(checker, frontier)
    assert sorted(walls) == sorted(j.name for j in frontier)
    assert not wrong


def test_a_wrong_value_is_reported(tmp_path):
    jobs, _ = small_jobs("vbisect-ladder", tmp_path, count=50)
    job = next(j for j in jobs if j.name.startswith("cycle6-k2"))
    main = run.cli_module().main
    _, rc, out = run.solve(main, job)
    value = int(out.split()[1])
    assert checks.check_solution(main, job, rc, out, (True, value), str(tmp_path)) is None
    assert "expected" in checks.check_solution(main, job, rc, out, (True, value + 1), str(tmp_path))
    lines = out.splitlines()
    broken = "\n".join([lines[0]] + [f"{line.split()[0]} 0" for line in lines[1:]]) + "\n"
    assert checks.check_solution(main, job, rc, broken, (False, None), str(tmp_path))


def test_a_broken_trim_is_reported(tmp_path):
    jobs, _ = small_jobs("trim-grids", tmp_path, count=40)
    job = next(j for j in jobs if j.name.startswith("showcase-k3"))
    _, rc, out = run.solve(run.cli_module().main, job)
    assert checks.check_trim(job, rc, out, (False, None)) is None
    n_star, edges, _ = checks.parse_trim(out)
    assert n_star == 14  # the showcase hull has 8 vertices, plus 2 terminals and 4 components
    assert checks.check_trim(job, rc, out, (True, [n_star, len(edges) + 1]))
    lines = out.splitlines()
    edge = next(i for i, line in enumerate(lines) if line[0].isdigit())
    dropped = "\n".join(lines[:edge] + lines[edge + 1:]) + "\n"
    assert checks.check_trim(job, rc, dropped, (False, None))
