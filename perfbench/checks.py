"""Answer checks, run after timing and outside every span.

Solver outputs are re-verified with the CLI's own `verify` subcommand and
their value compared with the expected one: the stored value for the default
seed (or for any seed, when the instance is a relabeled fixed graph), else
the brute-force oracle when the instance is in its range.  Trimmer outputs
are checked structurally: the mapping is a quotient of the input graph by
connected fibers, and every terminal pair keeps its vertex connectivity up
to k + 1, counted over separators made of single input vertices.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import deque
from itertools import combinations
from time import perf_counter
from typing import Dict, Optional, Tuple

from corpus import DEFAULT_SEED, components, parse_gr

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
ORACLE_LIMITS = {"vbisect": 18, "bisect": 16, "bpart": 12}


def call_cli(main, argv):
    """(seconds, exit code or exception text, stdout, stderr) of one
    in-process CLI call; only the `main` call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an outcome to record, not to raise
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def load_expected(workload: str) -> Dict[str, object]:
    """Stored answers of the default-seed instances of one workload."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        table = json.load(fh).get(workload, {})
    return {name: row["value"] for name, row in table.items()}


def flag(argv, name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


def oracle_value(balcut, job):
    """(True, optimum) from the brute-force oracle in range, else (False, None).

    For `vbisect` an infeasible instance has optimum None.
    """
    limit = ORACLE_LIMITS.get(job.command)
    if limit is None or job.n > limit:
        return False, None
    g = balcut.Graph(job.n, job.edges)
    if job.command == "vbisect":
        k = int(flag(job.argv, "--k"))
        if k > 4:
            return False, None
        return True, balcut.brute_vertex_bisection(g, k, int(flag(job.argv, "--c"))).optimum
    if job.command == "bisect":
        return True, balcut.brute_bisection(g).optimum
    return True, balcut.brute_balanced_partition(g, int(flag(job.argv, "--d"))).optimum


def closed_form(job):
    """The answer where it is known in closed form, else None: a path
    bisects with cut 1 and splits into two components with one vertex, and a
    bin-packing gadget built from an exact packing partitions with cut 0."""
    if job.name.startswith("path") and (
        job.command == "bisect" or flag(job.argv, "--c") == "2"
    ):
        return 1
    if job.name.startswith("binpack"):
        return 0
    return None


def _check_parts(job, parts: Dict[int, int]) -> Optional[str]:
    """Checks `verify` leaves out: component count and part ids within d."""
    if job.command == "vbisect":
        sep = frozenset(v for v, p in parts.items() if p == 2)
        if len(sep) > int(flag(job.argv, "--k")):
            return f"separator of {len(sep)} exceeds --k"
        comps = len(components(job.n, job.edges, sep))
        if comps != int(flag(job.argv, "--c")):
            return f"separator leaves {comps} components, not --c"
    elif job.command == "bpart":
        d = int(flag(job.argv, "--d"))
        if any(not 0 <= p < d for p in parts.values()):
            return "part id outside 0..d-1"
        cap = -(-job.n // d)
        for p in range(d):
            if sum(1 for q in parts.values() if q == p) > cap:
                return f"part {p} exceeds the cap {cap}"
    return None


def check_solution(main, job, rc, stdout: str, expected, workdir: str) -> Optional[str]:
    """None if the solver output is right, else the reason it is not.

    `expected` is (known, value); value None means the instance is
    infeasible and the CLI must exit 1 without printing a solution.
    """
    known, value = expected
    if known and value is None:
        return None if rc == 1 and not stdout else f"expected infeasible, got exit {rc!r}"
    if rc != 0:
        return f"exit {rc!r}"
    sol_path = os.path.join(workdir, "solution.txt")
    with open(sol_path, "w", encoding="utf-8") as fh:
        fh.write(stdout)
    _, vrc, vout, verr = call_cli(main, ["verify", "--graph", job.path, "--solution", sol_path])
    if vrc != 0 or not vout.startswith("valid: "):
        return f"verify rejected the output: {vout.strip() or verr.strip()}"
    got = int(vout.split()[2])
    if known and got != value:
        return f"value {got}, expected {value}"
    parts = {}
    for line in stdout.splitlines()[1:]:
        v, p = line.split()
        parts[int(v)] = int(p)
    return _check_parts(job, parts)


def _connectivity(n: int, edges, s: int, t: int, cuttable, bound: int) -> int:
    """Vertex-disjoint s-t paths, up to `bound`; only `cuttable` vertices
    other than s and t have capacity one (the rest are unbounded)."""
    big = bound + 1
    cap: Dict[Tuple[int, int], int] = {}
    adj: Dict[int, set] = {x: set() for x in range(2, 2 * n + 2)}

    def arc(a, b, c):
        cap[a, b] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)
        adj[a].add(b)
        adj[b].add(a)

    for v in range(1, n + 1):  # 2v is v's in-copy, 2v+1 its out-copy
        arc(2 * v, 2 * v + 1, 1 if v in cuttable and v not in (s, t) else big)
    for u, v in edges:
        arc(2 * u + 1, 2 * v, big)
        arc(2 * v + 1, 2 * u, big)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < bound:
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            a = queue.popleft()
            for b in adj[a]:
                if b not in prev and cap[a, b] > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            break
        b = sink
        while prev[b] is not None:
            a = prev[b]
            cap[a, b] -= 1
            cap[b, a] += 1
            b = a
        flow += 1
    return flow


def parse_trim(stdout: str):
    """(n*, edges of the trimmed graph, phi) from `trim` output."""
    phi: Dict[int, int] = {}
    graph_lines = []
    for line in stdout.splitlines():
        if line.startswith("phi "):
            _, v, x = line.split()
            phi[int(v)] = int(x)
        else:
            graph_lines.append(line)
    n_star, edges, _ = parse_gr("\n".join(graph_lines))
    return n_star, edges, phi


def check_trim(job, rc, stdout: str, expected) -> Optional[str]:
    """None if the trimmer output is a faithful trim, else the reason."""
    if rc != 0:
        return f"exit {rc!r}"
    n_star, star_edges, phi = parse_trim(stdout)
    known, value = expected
    if known and [n_star, len(star_edges)] != list(value):
        return f"trimmed graph n={n_star} m={len(star_edges)}, expected {value}"
    if sorted(phi) != list(range(1, job.n + 1)) or set(phi.values()) != set(range(1, n_star + 1)):
        return "phi is not a map of every vertex onto the trimmed graph"
    quotient = {(min(phi[u], phi[v]), max(phi[u], phi[v])) for u, v in job.edges if phi[u] != phi[v]}
    if quotient != set(star_edges):
        return "trimmed edges are not the quotient of the input edges"
    fibers: Dict[int, set] = {}
    for v, x in phi.items():
        fibers.setdefault(x, set()).add(v)
    all_vertices = frozenset(range(1, job.n + 1))
    for members in fibers.values():
        if len(components(job.n, job.edges, all_vertices - members)) != 1:
            return "a contracted vertex stands for a disconnected vertex set"
    terminals = [int(x) for x in flag(job.argv, "--terminals").split(",")]
    if any(len(fibers[phi[t]]) != 1 for t in terminals):
        return "a terminal was contracted"
    k = int(flag(job.argv, "--k"))
    singles = {x for x, members in fibers.items() if len(members) == 1}
    edge_set = set(job.edges)
    for s, t in combinations(sorted(set(terminals)), 2):
        if (s, t) in edge_set:
            continue
        in_g = _connectivity(job.n, job.edges, s, t, all_vertices, k + 1)
        in_star = _connectivity(n_star, star_edges, phi[s], phi[t], singles, k + 1)
        if in_g != in_star:
            return f"terminals {s},{t}: connectivity {in_g} became {in_star} (capped at {k + 1})"
    return None


class Checker:
    """Checks outputs of one workload and seed against their expected answers."""

    def __init__(self, balcut, workload: str, seed: int, workdir: str) -> None:
        self.balcut = balcut
        self.seed = seed
        self.stored = load_expected(workload)
        self.workdir = workdir

    def expected(self, job):
        """(known, value): stored for the default seed or a relabeled fixed
        graph, else a closed form, else the brute-force oracle where the
        instance is in its range."""
        if (self.seed == DEFAULT_SEED or job.invariant) and job.name in self.stored:
            return True, self.stored[job.name]
        if closed_form(job) is not None:
            return True, closed_form(job)
        if job.command == "trim":
            return False, None
        return oracle_value(self.balcut, job)

    def check(self, job, rc, stdout: str) -> Optional[str]:
        """None if the output is right, else the reason it is not."""
        if job.command == "trim":
            return check_trim(job, rc, stdout, self.expected(job))
        main = self.balcut.cli.main
        return check_solution(main, job, rc, stdout, self.expected(job), self.workdir)
