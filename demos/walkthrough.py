#!/usr/bin/env python3
"""Tour of the library on small instances, printing everything it does.

Walks one graph through each solver and one source problem through each
instance generator, cross-checking against the brute-force oracles along
the way.  Run from the repo root:

    python3 demos/walkthrough.py [--seed N]
"""

from __future__ import annotations

import argparse
import random

from balcut.cwcut import solve_bisection_cwd
from balcut.graph import Graph, cut_size
from balcut.oracle import brute_bisection, brute_vertex_bisection
from balcut.qexpr import eval_qexpr, forest_qexpr, greedy_deletion_set
from balcut.reductions import clique_to_vbisect
from balcut.torso import build_trimmer, minimal_st_separators
from balcut.vbp import solve_vertex_bisection
from balcut.vcpart import solve_balanced_partition_vc


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(10, outer + spokes + inner)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print("== balanced separators on the Petersen graph ==")
    pet = petersen()
    for k in (3, 4):
        sep = solve_vertex_bisection(pet, k, 2)
        oracle = brute_vertex_bisection(pet, k, c=2)
        if sep is None:
            print(f"  k={k}: no balanced 2-component separator (oracle agrees: "
                  f"{not oracle.feasible})")
        else:
            print(f"  k={k}: S={sorted(sep.s)} splits it into {len(sep.a)}+{len(sep.b)} "
                  f"vertices (oracle agrees: {oracle.feasible})")
    sep = solve_vertex_bisection(pet, 6, 2)
    print(f"  k=6 finally works: S={sorted(sep.s)} leaves "
          f"{sorted(sep.a)} | {sorted(sep.b)}")

    print("\n== bisection through a deletion set and an expression ==")
    g = random_graph(9, 0.35, rng)
    d = greedy_deletion_set(g)
    phi = forest_qexpr(g, d)
    print(f"  G(9, 0.35) with {g.m} edges; deleting D={sorted(d)} leaves a forest")
    print(f"  expression evaluates to {eval_qexpr(phi).graph.n} vertices, "
          f"{eval_qexpr(phi).graph.m} edges")
    bip, cut = solve_bisection_cwd(g, d, phi)
    print(f"  optimal bisection cuts {cut} edges, side A = {sorted(bip.a)}")
    print(f"  brute force says {brute_bisection(g).optimum}")

    print("\n== trimming a 21-vertex graph between two terminals ==")
    s, t = 20, 21
    show = Graph(21, [
        (20, 1), (20, 2),
        (1, 3), (1, 4), (3, 4), (1, 5), (2, 5), (2, 6), (5, 6),
        (3, 7), (4, 7), (2, 8), (3, 8), (4, 8), (7, 8),
        (5, 9), (6, 9), (8, 9), (5, 10), (6, 10), (9, 10),
        (4, 11), (7, 11), (8, 11), (7, 12), (9, 12), (10, 12),
        (11, 13), (11, 14), (12, 14), (12, 15),
        (13, 16), (13, 17), (14, 16), (14, 18), (15, 17), (15, 18), (15, 19),
        (16, 17), (18, 19),
        (16, 21), (17, 21), (18, 21), (19, 21),
    ])
    tr = build_trimmer(show, 3, [s, t])
    before = minimal_st_separators(show, s, t, 3)
    after = minimal_st_separators(tr.g_star, tr.phi[s], tr.phi[t], 3)
    print(f"  {show.n} vertices shrink to {tr.g_star.n}; "
          f"{len(tr.component_vertices)} blobs stand in for "
          f"{sum(len(tr.phi_inv[c]) for c in tr.component_vertices)} contracted vertices")
    print(f"  inclusion-minimal terminal separators of size <= 3: "
          f"{len(before)} before, {len(after)} after; all {len(before)} preserved "
          f"pointwise: {all(frozenset(tr.phi[v] for v in s) in after for s in before)}")

    print("\n== a clique question disguised as a separator question ==")
    src = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    out = clique_to_vbisect(src, 2)
    res = brute_vertex_bisection(out.graph, out.params["k"], c=out.params["c"])
    print(f"  source: 4 vertices, {src.m} edges; wants a 2-clique (an edge): "
          f"{src.m >= 1}")
    print(f"  image: {out.graph.n} vertices ({out.provenance})")
    print(f"  image solvable with k={out.params['k']}, c={out.params['c']}: "
          f"{res.feasible}")

    print("\n== partitioning around a small vertex cover ==")
    star_ish = Graph(8, [(1, v) for v in range(2, 8)] + [(2, 3), (7, 8)])
    dp, cut = solve_balanced_partition_vc(star_ish, 3)
    sizes = "+".join(str(len(p)) for p in dp.parts)
    print(f"  8 vertices into 3 parts of sizes {sizes}, cutting {cut} edges")
    print(f"  parts re-check: valid={dp.is_valid(star_ish)}, "
          f"recount={cut_size(star_ish, dp)}")


if __name__ == "__main__":
    main()
