"""Command-line surface: solve, trim, generate, and verify instances.

Exit codes: 0 a solution was found (or the action succeeded), 1 the
instance is infeasible, 2 bad input (malformed file, out-of-range flag).
Solver subcommands re-verify their own answer against the graph-core
validators before printing anything.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from itertools import combinations
from typing import Dict, List, Optional

from . import formats
from .cwcut import solve_bisection_cwd
from .graph import (
    DPartition,
    Graph,
    Separation,
    connected_components,
    cut_size,
    is_balanced_separator,
    validate_bisection,
)
from .oracle import (
    OracleSizeError,
    brute_balanced_partition,
    brute_bisection,
    brute_maxcut,
    brute_vertex_bisection,
)
from .qexpr import forest_qexpr, greedy_deletion_set
from .reductions import (
    binpacking_to_forest,
    bisect_to_vbisect,
    clique_to_vbisect,
    maxcut_cross_compose,
    mcclique_to_bpart,
    weighted_to_unweighted,
)
from .torso import atorso, build_trimmer
from .vbp import solve_vertex_bisection
from .vcpart import solve_balanced_partition_vc

EXIT_FOUND = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2

DOT_LIMIT = 64

class InputError(Exception):
    """Anything that should terminate with exit code 2."""


class Infeasible(Exception):
    """The instance has no solution within the given budgets."""


# --------------------------------------------------------------------------
# file plumbing
# --------------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _load_graph(path: str) -> Graph:
    return formats.parse_graph(_read_text(path))


def _vertex_list(spec: str, g: Graph, flag: str) -> List[int]:
    out = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            v = int(piece)
        except ValueError:
            raise InputError(f"{flag} expects comma-separated vertices, got {piece!r}") from None
        if not 1 <= v <= g.n:
            raise InputError(f"{flag}: vertex {v} out of range 1..{g.n}")
        out.append(v)
    return out


def _solution_text(kind: str, value: int, witness) -> str:
    """A solution file for a Bipartition (A 0, B 1), a Separation (A 0, B 1,
    S 2) or a DPartition (parts in order)."""
    if isinstance(witness, DPartition):
        sides = witness.parts
    elif isinstance(witness, Separation):
        sides = (witness.a, witness.b, witness.s)
    else:
        sides = (witness.a, witness.b)
    parts = {v: i for i, side in enumerate(sides) for v in side}
    return formats.emit_solution(formats.Solution(kind, value, parts))


def _check_dot(g: Graph, path: Optional[str]) -> None:
    """Refuse --dot for a graph too large to draw; solvers call this before
    they solve, so no answer is lost to it."""
    if path and g.n > DOT_LIMIT:
        raise InputError(
            f"dot export is limited to graphs with at most {DOT_LIMIT} vertices"
            f" (this one has {g.n}); run without --dot"
        )


def _emit_dot(g: Graph, path: str) -> None:
    _check_dot(g, path)
    lines = ["graph G {"]
    isolated = set(g.vertices)
    for u, v in g.edges():
        isolated.discard(u)
        isolated.discard(v)
        wt = g.edge_weight(u, v)
        label = f' [label="{wt}"]' if wt != 1 else ""
        lines.append(f"  {u} -- {v}{label};")
    for v in sorted(isolated):
        lines.append(f"  {v};")
    lines.append("}")
    _write_text(path, "\n".join(lines) + "\n")


def _useful_parts(g: Graph, d: int) -> int:
    """Past n parts every extra part is empty and the size cap stays 1, so
    solving for min(d, n) parts prints the same solution file as for d."""
    return min(d, max(g.n, 1))


# --------------------------------------------------------------------------
# solver subcommands
# --------------------------------------------------------------------------


def _cmd_bisect(args) -> int:
    g = _load_graph(args.graph)
    _check_dot(g, args.dot)
    if not g.is_unit_vertex_weighted():
        raise InputError("bisect balances vertex counts; the graph must not carry vertex weights")
    if g.n == 0:
        raise InputError("the empty graph has no bisection")
    if args.deletion is not None:
        d_set = frozenset(_vertex_list(args.deletion, g, "--deletion"))
    elif args.expr is not None:
        d_set = frozenset()
    else:
        d_set = frozenset(greedy_deletion_set(g))
    if args.expr is not None:
        phi = formats.parse_qexpr(_read_text(args.expr))
    else:
        phi = forest_qexpr(g, d_set)
    bp, cut = solve_bisection_cwd(g, d_set, phi)
    if not (validate_bisection(g, bp, cut) and cut_size(g, bp) == cut):
        raise AssertionError("solver produced an answer that fails self-checks")
    if args.dot:
        _emit_dot(g, args.dot)
    _write_text(args.output, _solution_text("cut", cut, bp))
    return EXIT_FOUND


def _cmd_vbisect(args) -> int:
    g = _load_graph(args.graph)
    _check_dot(g, args.dot)
    if args.k < 0:
        raise InputError("--k must be non-negative")
    if args.c < 2:
        raise InputError("--c must be at least 2")
    sep = solve_vertex_bisection(g, args.k, args.c)
    if sep is None:
        raise Infeasible(f"no balanced separator of size <= {args.k} with {args.c} components")
    comps = connected_components(g, within=sep.a | sep.b)
    if not (
        sep.is_valid(g)
        and is_balanced_separator(g, sep)
        and len(sep.s) <= args.k
        and len(comps) == args.c
    ):
        raise AssertionError("solver produced an answer that fails self-checks")
    if args.dot:
        _emit_dot(g, args.dot)
    _write_text(args.output, _solution_text("sep", len(sep.s), sep))
    return EXIT_FOUND


def _cmd_bpart(args) -> int:
    g = _load_graph(args.graph)
    _check_dot(g, args.dot)
    if not g.is_unit_vertex_weighted():
        raise InputError("bpart balances vertex counts; the graph must not carry vertex weights")
    if args.d < 1:
        raise InputError("--d must be at least 1")
    dp, cut = solve_balanced_partition_vc(g, _useful_parts(g, args.d))
    if not (dp.is_valid(g) and cut_size(g, dp) == cut):
        raise AssertionError("solver produced an answer that fails self-checks")
    if args.dot:
        _emit_dot(g, args.dot)
    _write_text(args.output, _solution_text("cut", cut, dp))
    return EXIT_FOUND


# --------------------------------------------------------------------------
# torso subcommands
# --------------------------------------------------------------------------


def _mapping_text(phi: Dict[int, int]) -> str:
    return "".join(f"phi {v} {phi[v]}\n" for v in sorted(phi))


def _contraction_text(g: Graph, contracted: Graph, header: str) -> str:
    """The contracted graph under its header; contractions act on adjacency
    alone, so a weighted input gets one more comment saying so."""
    comments = [header]
    if not (g.is_unit_vertex_weighted() and g.is_unit_edge_weighted()):
        comments.append("weights ignored: the contraction keeps only the adjacency")
    return formats.emit_graph(contracted, comments=comments)


def _cmd_trim(args) -> int:
    g = _load_graph(args.graph)
    terminals = _vertex_list(args.terminals, g, "--terminals")
    if args.k < 0:
        raise InputError("--k must be non-negative")
    trimmer = build_trimmer(g, args.k, terminals)
    header = (
        f"trimmer: n={g.n} m={g.m} k={args.k} "
        f"terminals={','.join(str(t) for t in sorted(trimmer.terminals))}"
    )
    _write_text(args.out, _contraction_text(g, trimmer.g_star, header))
    _write_text(args.map, _mapping_text(trimmer.phi))
    return EXIT_FOUND


def _cmd_atorso(args) -> int:
    g = _load_graph(args.graph)
    w = _vertex_list(args.w, g, "--w")
    if not w:
        raise InputError("--w needs at least one vertex")
    at = atorso(g, w)
    header = f"augmented torso: n={g.n} m={g.m} w={','.join(str(v) for v in sorted(set(w)))}"
    _write_text(args.out, _contraction_text(g, at.g_prime, header))
    _write_text(args.map, _mapping_text(at.phi))
    return EXIT_FOUND


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def _emit_reduction(out, args) -> int:
    comments = [f"provenance: {out.provenance}"]
    for key in sorted(out.params):
        comments.append(f"param {key}={out.params[key]}")
    if args.dot:
        _emit_dot(out.graph, args.dot)
    _write_text(args.output, formats.emit_graph(out.graph, comments=comments))
    return EXIT_FOUND


def _cmd_gen_clique(args) -> int:
    g = _load_graph(args.graph)
    return _emit_reduction(clique_to_vbisect(g, args.k), args)


def _cmd_gen_bisect(args) -> int:
    g = _load_graph(args.graph)
    return _emit_reduction(bisect_to_vbisect(g, args.k), args)


def _cmd_gen_maxcut(args) -> int:
    gs = [_load_graph(p) for p in args.graphs]
    return _emit_reduction(maxcut_cross_compose([(g, args.k) for g in gs]), args)


def _cmd_gen_unweight(args) -> int:
    g = _load_graph(args.graph)
    return _emit_reduction(weighted_to_unweighted(g, args.k, w=args.w), args)


def _cmd_gen_binpack(args) -> int:
    try:
        weights = [int(x) for x in args.weights.split(",") if x.strip()]
    except ValueError:
        raise InputError("--weights expects comma-separated integers") from None
    return _emit_reduction(binpacking_to_forest(weights, args.bins, args.cap), args)


def _cmd_gen_mcclique(args) -> int:
    g = _load_graph(args.graph)
    try:
        colors = [int(x) for x in args.colors.split(",") if x.strip()]
    except ValueError:
        raise InputError("--colors expects comma-separated integers") from None
    if len(colors) != g.n:
        raise InputError(f"--colors lists {len(colors)} values for {g.n} vertices")
    coloring = {v: c for v, c in zip(g.vertices, colors)}
    s = args.s if args.s is not None else max(colors, default=0)
    return _emit_reduction(mcclique_to_bpart(g, coloring, s), args)


def _cmd_gen_random(args) -> int:
    if args.n < 0 or not 0.0 <= args.p <= 1.0:
        raise InputError("need --n >= 0 and 0 <= --p <= 1")
    rng = random.Random(args.seed)
    edges = [e for e in combinations(range(1, args.n + 1), 2) if rng.random() < args.p]
    g = Graph(args.n, edges)
    comments = [f"provenance: random-gnp: n={args.n} p={args.p} seed={args.seed}"]
    if args.dot:
        _emit_dot(g, args.dot)
    _write_text(args.output, formats.emit_graph(g, comments=comments))
    return EXIT_FOUND


# --------------------------------------------------------------------------
# oracles and verification
# --------------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.problem == "bisect":
            res = brute_bisection(g, edge_weighted=args.weighted)
        elif args.problem == "vbisect":
            if args.k is None:
                raise InputError("oracle vbisect needs --k")
            if args.c is not None and args.c < 2:
                raise InputError("--c must be at least 2")
            res = brute_vertex_bisection(g, args.k, args.c)
        elif args.problem == "bpart":
            if args.d is None:
                raise InputError("oracle bpart needs --d")
            res = brute_balanced_partition(g, _useful_parts(g, args.d))
        else:
            res = brute_maxcut(g)
    except OracleSizeError as exc:
        raise InputError(str(exc)) from None
    if not res.feasible:
        raise Infeasible("the oracle found no solution within the budgets")
    kind = "sep" if isinstance(res.witness, Separation) else "cut"
    _write_text(args.output, _solution_text(kind, res.optimum, res.witness))
    return EXIT_FOUND


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    sol = formats.parse_solution(_read_text(args.solution))
    if args.c is not None and sol.kind != "sep":
        raise InputError("--c checks separator solutions only")
    if set(sol.parts) != set(g.vertices):
        print("invalid: the solution does not assign every vertex exactly once")
        return EXIT_INFEASIBLE
    if sol.kind == "sep":
        if not set(sol.parts.values()) <= {0, 1, 2}:
            print("invalid: separator solutions use parts 0, 1 and 2 only")
            return EXIT_INFEASIBLE
        sep = Separation(
            (v for v, p in sol.parts.items() if p == 2),
            (v for v, p in sol.parts.items() if p == 0),
            (v for v, p in sol.parts.items() if p == 1),
        )
        if not sep.is_valid(g):
            print("invalid: edges run between the two sides")
            return EXIT_INFEASIBLE
        if not is_balanced_separator(g, sep):
            print("invalid: the sides are not balanced")
            return EXIT_INFEASIBLE
        if len(sep.s) != sol.value:
            print(f"invalid: header says sep {sol.value} but the separator has {len(sep.s)} vertices")
            return EXIT_INFEASIBLE
        if args.c is not None:
            comps = len(connected_components(g, within=sep.a | sep.b))
            if comps != args.c:
                print(f"invalid: G - S has {comps} components but --c asks for {args.c}")
                return EXIT_INFEASIBLE
        print(f"valid: sep {sol.value}")
        return EXIT_FOUND
    used = set(sol.parts.values())
    if used != set(range(len(used))):
        print("invalid: part numbers must be contiguous from 0")
        return EXIT_INFEASIBLE
    d = max(len(used), 1)  # the empty graph has one empty part
    groups: List[List[int]] = [[] for _ in range(d)]
    for v, p in sol.parts.items():
        groups[p].append(v)
    dp = DPartition(groups)
    if not dp.is_valid(g):
        cap = -(-g.n // d)
        print(f"invalid: some part exceeds the size cap {cap}")
        return EXIT_INFEASIBLE
    actual = cut_size(g, dp)
    if actual != sol.value:
        print(f"invalid: header says cut {sol.value} but the partition cuts {actual}")
        return EXIT_INFEASIBLE
    print(f"valid: cut {sol.value} across {d} parts")
    return EXIT_FOUND


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_common_output(sp, dot_help="write the input graph as DOT to this file"):
    sp.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
    sp.add_argument("--dot", default=None, metavar="FILE", help=dot_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="balcut",
        description="Exact solvers and instance generators for balanced graph partitioning.",
        epilog="Graphs are read in PACE-style .gr format; pass `-` to read stdin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bisect", help="minimum bisection via a deletion set and a q-expression")
    sp.add_argument("--graph", default="-", help="graph file (default: stdin)")
    sp.add_argument("--deletion", default=None, metavar="V1,V2,..",
                    help="deletion set; default: a greedy set whose removal leaves a forest")
    sp.add_argument("--expr", default=None, metavar="FILE",
                    help="q-expression file for the graph minus the deletion set")
    _add_common_output(sp)
    sp.set_defaults(func=_cmd_bisect)

    sp = sub.add_parser("vbisect", help="balanced separator with a component budget")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, required=True, help="separator size budget")
    sp.add_argument("--c", type=int, default=2, help="number of components (default 2)")
    _add_common_output(sp)
    sp.set_defaults(func=_cmd_vbisect)

    sp = sub.add_parser("bpart", help="minimum-cut partition into d size-capped parts")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--d", type=int, required=True, help="number of parts")
    _add_common_output(sp)
    sp.set_defaults(func=_cmd_bpart)

    sp = sub.add_parser("trim", help="contract small separators between terminals")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--terminals", required=True, metavar="V1,V2,..")
    sp.add_argument("--out", default=None, help="trimmed graph file (default: stdout)")
    sp.add_argument("--map", default=None, help="phi mapping file (default: stdout)")
    sp.set_defaults(func=_cmd_trim)

    sp = sub.add_parser("atorso", help="augmented torso of a vertex set")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--w", required=True, metavar="V1,V2,..", help="torso vertex set")
    sp.add_argument("--out", default=None, help="torso graph file (default: stdout)")
    sp.add_argument("--map", default=None, help="phi mapping file (default: stdout)")
    sp.set_defaults(func=_cmd_atorso)

    gen = sub.add_parser("gen", help="generate instances from hardness gadgets")
    gsub = gen.add_subparsers(dest="construction", required=True)

    sp = gsub.add_parser("clique", help="clique instance -> vertex-bisection instance")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, required=True, help="clique size sought")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_clique)

    sp = gsub.add_parser("bisect", help="bisection instance -> vertex-bisection instance")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, required=True, help="cut budget")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_bisect)

    sp = gsub.add_parser("maxcut", help="compose max-cut instances into one weighted bisection")
    sp.add_argument("--graphs", nargs="+", required=True, metavar="FILE")
    sp.add_argument("--k", type=int, required=True, help="shared cut target")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_maxcut)

    sp = gsub.add_parser("unweight", help="weighted bisection -> unweighted bisection")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, required=True, help="cut budget")
    sp.add_argument("--w", type=int, default=None, help="weight bound (default: max edge weight)")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_unweight)

    sp = gsub.add_parser("binpack", help="bin packing -> balanced partitioning on paths")
    sp.add_argument("--weights", required=True, metavar="W1,W2,..")
    sp.add_argument("--bins", type=int, required=True)
    sp.add_argument("--cap", type=int, required=True)
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_binpack)

    sp = gsub.add_parser("mcclique", help="multicolored clique -> balanced partitioning")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--colors", required=True, metavar="C1,C2,..",
                    help="one color per vertex, in vertex order")
    sp.add_argument("--s", type=int, default=None, help="color count (default: max color)")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_mcclique)

    sp = gsub.add_parser("random", help="Erdos-Renyi test instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_common_output(sp, "write the generated graph as DOT to this file")
    sp.set_defaults(func=_cmd_gen_random)

    sp = sub.add_parser("oracle", help="brute-force reference solvers (small graphs)")
    sp.add_argument("problem", choices=["bisect", "vbisect", "bpart", "maxcut"])
    sp.add_argument("--graph", default="-")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--weighted", action="store_true", help="use edge weights (bisect)")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("verify", help="check a solution file against its graph")
    sp.add_argument("--graph", default="-")
    sp.add_argument("--solution", required=True)
    sp.add_argument("--c", type=int, default=None,
                    help="also require a separator solution to leave exactly this many components")
    sp.set_defaults(func=_cmd_verify)

    return ap


# parse_args returns a fresh namespace on every call, so one parser serves
# every main() call in a process.
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputError, formats.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
