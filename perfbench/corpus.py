"""Seeded instance corpora for the four benchmark workloads.

A workload is a list of `Instance`s: a graph (or a `balcut gen ...` call
that produces one at set-up), the CLI subcommand and flags that solve it,
and whether it is a frontier row -- an instance the solver is known to fail
on, kept so that the defect stays visible.

Structured families (cycles, paths, grids, the 21-vertex showcase graph) get
a seeded random vertex relabeling, so their optimum is the same for every
seed (`invariant=True`).  Random families are drawn from the seed itself.
Everything here is plain Python: the program under test only ever sees the
`.gr` files written from these instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_SEED = 1

Edges = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Instance:
    name: str
    command: str  # vbisect | bisect | bpart | trim
    n: int
    edges: Edges
    flags: Tuple[str, ...]  # may hold `{param}` slots filled from `gen` output
    invariant: bool  # the expected value does not depend on the seed
    frontier: bool = False
    gen: Tuple[str, ...] = ()  # `balcut gen ...` producing the graph at set-up


# --------------------------------------------------------------------------
# graph text
# --------------------------------------------------------------------------


def gr_text(n: int, edges: Edges) -> str:
    """PACE-style `p tw` text of an unweighted graph."""
    return f"p tw {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def parse_gr(text: str) -> Tuple[int, Edges, Dict[str, str]]:
    """(n, edges, params) of an unweighted `p tw` file.

    `params` collects `c param key=value` comments, which is how the CLI's
    generators report the budgets of the instance they built.
    """
    n = None
    edges = []
    params: Dict[str, str] = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "c":
            if len(toks) >= 3 and toks[1] == "param" and "=" in toks[2]:
                key, value = toks[2].split("=", 1)
                params[key] = value
            continue
        if toks[0] == "p":
            n = int(toks[2])
            continue
        u, v = int(toks[0]), int(toks[1])
        edges.append((min(u, v), max(u, v)))
    if n is None:
        raise ValueError("graph text has no `p tw` header")
    return n, tuple(sorted(edges)), params


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------


def _norm(edges) -> Edges:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def _relabel(rng: random.Random, n: int, edges) -> Tuple[Edges, List[int]]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return _norm((perm[u - 1], perm[v - 1]) for u, v in edges), perm


def cycle(n: int) -> Edges:
    return _norm([(i, i % n + 1) for i in range(1, n + 1)])


def path(n: int) -> Edges:
    return _norm([(i, i + 1) for i in range(1, n)])


def grid(rows: int, cols: int) -> Edges:
    def vid(r, c):
        return r * cols + c + 1

    out = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                out.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                out.append((vid(r, c), vid(r + 1, c)))
    return _norm(out)


def grid_corners(rows: int, cols: int) -> List[int]:
    """Top-left, bottom-right, top-right, bottom-left (row-major ids)."""
    return [1, rows * cols, cols, (rows - 1) * cols + 1]


# A 21-vertex two-terminal graph (terminals 20 and 21) with a rich set of
# small minimal separators: for k = 3 its separator hull is
# {1, 2, 8, 11, 12, 13, 14, 15}.
SHOWCASE_N = 21
SHOWCASE_TERMINALS = (20, 21)
SHOWCASE_EDGES: Edges = _norm([
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


def gnp(rng: random.Random, n: int, p: float) -> Edges:
    return tuple((u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p)


def components(n: int, edges: Edges, removed=frozenset()) -> List[List[int]]:
    adj: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set(removed)
    comps = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def min_balanced_separator(n: int, edges: Edges, c: int, k_max: int) -> Optional[int]:
    """Smallest |S| <= k_max leaving exactly c components that split into
    two unions differing in size by at most one; None if there is none."""
    for size in range(k_max + 1):
        for s in combinations(range(1, n + 1), size):
            sizes = [len(comp) for comp in components(n, edges, frozenset(s))]
            if len(sizes) != c:
                continue
            rest = n - size
            for mask in range(1 << c):
                a = sum(sizes[i] for i in range(c) if mask >> i & 1)
                if abs(rest - 2 * a) <= 1:
                    return size
    return None


def _tree_parents(rng: random.Random, n: int) -> List[int]:
    """Random recursive tree: parent[v] < v for v >= 2 (parent[1] = 0)."""
    return [0, 0] + [rng.randrange(1, v) for v in range(2, n + 1)]


def tree_with_cycles(rng: random.Random, n: int, extra: int) -> Edges:
    """A random tree plus `extra` edges closing vertex-disjoint cycles, so a
    minimum feedback vertex set has exactly `extra` vertices."""
    while True:
        parent = _tree_parents(rng, n)
        depth = [0] * (n + 1)
        for v in range(2, n + 1):
            depth[v] = depth[parent[v]] + 1
        edges = {(parent[v], v) for v in range(2, n + 1)}
        used: set = set()
        for _ in range(20 * extra):
            u, v = rng.sample(range(1, n + 1), 2)
            trail = set()
            a, b = u, v
            while a != b:  # climb to the lowest common ancestor
                if depth[a] < depth[b]:
                    a, b = b, a
                trail.add(a)
                a = parent[a]
            trail.add(a)
            if len(trail) >= 3 and not trail & used:
                used |= trail
                edges.add((min(u, v), max(u, v)))
                if len(edges) == n - 1 + extra:
                    return _norm(edges)


def cover_graph(rng: random.Random, tau: int, independent: int) -> Edges:
    """Cover vertices 1..tau (edges among them with probability 0.3) and
    `independent` further vertices.  Each cover vertex gets two pendant
    neighbours, so the cover is the unique minimum one; the other vertices
    are adjacent to one to three cover vertices."""
    edges = [(u, v) for u, v in combinations(range(1, tau + 1), 2) if rng.random() < 0.3]
    for j, w in enumerate(range(tau + 1, tau + independent + 1)):
        if j < 2 * tau:
            edges.append((1 + j % tau, w))
        else:
            edges.extend((u, w) for u in rng.sample(range(1, tau + 1), rng.randint(1, 3)))
    return _norm(edges)


def bin_items(rng: random.Random, bins: int, cap: int, max_cover: int) -> List[int]:
    """Item sizes (1..3) that fill `bins` bins of size `cap` exactly, so a
    zero-cut packing exists; at most `max_cover` items are longer than 1."""
    while True:
        items = []
        for _ in range(bins):
            room = cap
            while room:
                size = rng.randint(1, min(3, room))
                items.append(size)
                room -= size
        if sum(1 for x in items if x > 1) <= max_cover:
            rng.shuffle(items)
            return items


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _structured(rng, name, command, n, edges, flags, terminals: Sequence[int] = ()):
    """A relabeled copy of a fixed graph; terminal flags follow the relabeling."""
    relabeled, perm = _relabel(rng, n, edges)
    if terminals:
        flags = tuple(flags) + ("--terminals", ",".join(str(perm[t - 1]) for t in terminals))
    return Instance(name, command, n, relabeled, tuple(flags), invariant=True)


def _frontier(name, command, n, edges, flags):
    """A wall of the current solvers, kept with its natural vertex order."""
    return Instance(name, command, n, edges, tuple(flags), invariant=True, frontier=True)


def _vbisect_ladder(rng: random.Random) -> List[Instance]:
    out = []

    def add(name, n, edges, k, c=2, times=1):
        for j in range(times):
            flags = ("--k", str(k), "--c", str(c))
            out.append(_structured(rng, f"{name}-{j}", "vbisect", n, edges, flags))

    add("cycle6-k2", 6, cycle(6), 2, times=5)
    add("cycle7-k2", 7, cycle(7), 2, times=3)
    add("cycle8-k2", 8, cycle(8), 2)
    add("path7-k1", 7, path(7), 1, times=5)
    add("path8-k1", 8, path(8), 1, times=5)
    add("path9-k1", 9, path(9), 1, times=2)
    add("path10-k1", 10, path(10), 1)
    add("path11-k1", 11, path(11), 1)
    add("grid2x3-k2", 6, grid(2, 3), 2, times=4)
    add("grid2x4-k2", 8, grid(2, 4), 2, times=2)
    add("grid2x5-k2", 10, grid(2, 5), 2)
    add("grid3x3-k3", 9, grid(3, 3), 3)
    add("cycle6-k3-c3", 6, cycle(6), 3, c=3, times=6)
    add("cycle7-k3-c3", 7, cycle(7), 3, c=3)
    add("path7-k2-c3", 7, path(7), 2, c=3)
    add("path8-k2-c3", 8, path(8), 2, c=3, times=3)
    add("cycle8-k1", 8, cycle(8), 1)  # infeasible: a cycle needs two cuts
    add("grid3x3-k2", 9, grid(3, 3), 2)  # infeasible
    for i in range(12):
        n = 7 + i % 2
        while True:
            edges = gnp(rng, n, 0.35)
            k = min_balanced_separator(n, edges, 2, 3)
            if k:
                break
        out.append(Instance(f"gnp{n}-k{k}-{i}", "vbisect", n, edges, ("--k", str(k), "--c", "2"), False))
    # clique gadgets: `gen clique` asks for a 2-clique (an edge) in a small
    # random graph and reports the separator budget and component count
    for i in range(6):
        edges = ()
        while not edges:
            edges = gnp(rng, 3, 0.5)
        out.append(Instance(
            f"clique-gadget3-{i}", "vbisect", 3, edges, ("--k", "{k}", "--c", "{c}"),
            False, gen=("gen", "clique", "--k", "2"),
        ))
    # frontier rows: n > 15 trips the exact-treewidth guard
    out.append(_frontier("grid4x4-k4", "vbisect", 16, grid(4, 4), ("--k", "4", "--c", "2")))
    out.append(_frontier("path16-k1", "vbisect", 16, path(16), ("--k", "1", "--c", "2")))
    out.append(_frontier("path40-k1", "vbisect", 40, path(40), ("--k", "1", "--c", "2")))
    return out


def _bisect_forests(rng: random.Random) -> List[Instance]:
    out = []
    for n in (40, 40, 50, 60, 60, 70, 80, 80, 90, 100, 110):
        out.append(_structured(rng, f"path{n}-{len(out)}", "bisect", n, path(n), ()))
    # rooted at an end, the path's expression is as deep as it gets below the
    # frontier rows; its tables set the workload's peak memory for every seed
    out.append(Instance("path110-end", "bisect", 110, path(110), (), True))
    shapes = [(12, 1), (14, 2), (16, 1), (14, 1), (16, 2)] * 2  # small: in the oracle's range
    shapes += [(30, 2), (40, 2), (30, 3), (40, 3)] * 6 + [(50, 2), (30, 4)] * 2 + [(50, 3)]
    for i, (n, extra) in enumerate(shapes):
        edges, _ = _relabel(rng, n, tree_with_cycles(rng, n, extra))
        out.append(Instance(f"tree{n}-d{extra}-{i}", "bisect", n, edges, (), False))
    # frontier rows: the recursive expression walkers overflow the stack
    # (a path rooted at its end nests one expression level per vertex)
    out.append(_frontier("path300", "bisect", 300, path(300), ()))
    out.append(_frontier("path2000", "bisect", 2000, path(2000), ()))
    return out


def _bpart_cover(rng: random.Random) -> List[Instance]:
    out = []
    shapes = []
    for i in range(28):  # cover sizes 5-8, 28-36 further vertices
        tau = 5 + i % 4
        shapes.append((tau, 28 + 7 * i % 9, 3 if i % 8 in (0, 5) else 2))
    shapes += [(3, 8, 2), (4, 8, 3)] * 4  # small: in the oracle's range
    for i, (tau, ind, d) in enumerate(shapes):
        edges, _ = _relabel(rng, tau + ind, cover_graph(rng, tau, ind))
        out.append(Instance(f"cover{tau}-{ind}-d{d}-{i}", "bpart", tau + ind, edges, ("--d", str(d)), False))
    for i in range(14):
        bins, cap = (2, 8) if i % 2 else (3, 6)
        items = bin_items(rng, bins, cap, 5)
        gen = ("gen", "binpack", "--weights", ",".join(map(str, items)),
               "--bins", str(bins), "--cap", str(cap))
        out.append(Instance(f"binpack{bins}x{cap}-{i}", "bpart", 0, (), ("--d", "{d}"), False, gen=gen))
    return out


def _trim_grids(rng: random.Random) -> List[Instance]:
    out = []

    def add(name, n, edges, k, terminals, times=1):
        for j in range(times):
            out.append(_structured(rng, f"{name}-{j}", "trim", n, edges, ("--k", str(k)), terminals))

    for r in (5, 6, 7):
        corners = grid_corners(r, r)
        add(f"grid{r}x{r}-k3-t2", r * r, grid(r, r), 3, corners[:2], times=4 if r == 6 else 2)
        add(f"grid{r}x{r}-k2-t4", r * r, grid(r, r), 2, corners, times=3 if r == 5 else 2)
        add(f"grid{r}x{r}-k3-t3", r * r, grid(r, r), 3, corners[:3], times=1 if r == 7 else 2)
        # interior terminals of degree 4 > k: the max-flow test answers at once
        add(f"grid{r}x{r}-k3-inner", r * r, grid(r, r), 3, [r + 2, r * r - r - 1])
    add("grid5x5-k3-t4", 25, grid(5, 5), 3, grid_corners(5, 5), times=2)
    add("grid6x6-k3-t4", 36, grid(6, 6), 3, grid_corners(6, 6), times=3)
    add("grid7x7-k3-t4", 49, grid(7, 7), 3, grid_corners(7, 7))
    add("grid6x6-k4-t2", 36, grid(6, 6), 4, grid_corners(6, 6)[:2], times=3)
    add("showcase-k3", SHOWCASE_N, SHOWCASE_EDGES, 3, SHOWCASE_TERMINALS, times=3)
    add("showcase-k4", SHOWCASE_N, SHOWCASE_EDGES, 4, SHOWCASE_TERMINALS, times=2)
    add("showcase-k4-t3", SHOWCASE_N, SHOWCASE_EDGES, 4, SHOWCASE_TERMINALS + (8,), times=2)
    for i in range(11):
        n = 40
        while True:
            edges = gnp(rng, n, 0.1)
            comp = max(components(n, edges), key=len)
            degree = {v: 0 for v in comp}
            for u, v in edges:
                if u in degree:
                    degree[u] += 1
                    degree[v] += 1
            low = sorted(v for v in comp if 2 <= degree[v] <= 3)
            if len(low) >= 2:
                s, t = rng.sample(low, 2)
                if (min(s, t), max(s, t)) not in edges:
                    break
        out.append(Instance(f"gnp40-k3-{i}", "trim", n, edges, ("--k", "3", "--terminals", f"{s},{t}"), False))
    return out


WORKLOADS = {
    "vbisect-ladder": _vbisect_ladder,
    "bisect-forests": _bisect_forests,
    "bpart-cover": _bpart_cover,
    "trim-grids": _trim_grids,
}


def build(workload: str, seed: int) -> List[Instance]:
    """The instances of one workload for one seed (same seed, same list)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
