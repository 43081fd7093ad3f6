"""Brute-force reference solvers.

These are the ground truth the real solvers are tested against.  They favour
obviousness over speed: plain subset enumeration with bitmask vertex sets,
hard size guards that raise instead of running forever, and fixed
lexicographic tie-breaks so results are reproducible bit for bit.  Bit v of
a vertex mask stands for vertex v, as in ``graph.adjacency_masks``.  The
one enumerator of splits into capped groups, ``restricted_growth_strings``,
serves both this module and ``vcpart.enumerate_cover_partitions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .graph import (
    Bipartition,
    DPartition,
    Graph,
    Separation,
    adjacency_masks,
    connected_components,
)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force run.

    optimum is None when no candidate satisfies the constraints (infeasible).
    """

    optimum: Optional[int]
    witness: Optional[Union[Bipartition, Separation, DPartition]]

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


class OracleSizeError(ValueError):
    """Instance exceeds the enumeration guard of a brute-force solver."""


def brute_bisection(g: Graph, edge_weighted: bool = False) -> OracleResult:
    """Minimum cut over all bipartitions with both sides of size <= ceil(n/2).

    Enumerates every A of size floor(n/2); for even n only sets containing
    vertex 1 are tried, which picks a canonical representative of each
    unordered bipartition.  Ties go to the first A in lexicographic order.
    """
    n = g.n
    if n > 24:
        raise OracleSizeError(f"brute_bisection handles n <= 24, got {n}")
    if n == 0:
        return OracleResult(0, Bipartition((), ()))

    half = n // 2
    verts = list(g.vertices)
    adj = adjacency_masks(g)
    unit = g.is_unit_edge_weighted() or not edge_weighted
    edges = g.edges()

    best = None
    best_a = None
    for combo in combinations(verts, half):
        if n % 2 == 0 and half > 0 and combo[0] != 1:
            continue
        if unit:
            amask = sum(1 << v for v in combo)
            cut = sum((adj[v] & ~amask).bit_count() for v in combo)
        else:
            aset = set(combo)
            cut = sum(g.edge_weight(u, v) for u, v in edges if (u in aset) != (v in aset))
        if best is None or cut < best:
            best = cut
            best_a = combo
    a = set(best_a)
    return OracleResult(best, Bipartition(a, set(verts) - a))


def brute_vertex_bisection(g: Graph, k: int, c: Optional[int] = None) -> OracleResult:
    """Smallest balanced separator of size <= k, or infeasible.

    A candidate is a separation (S, A, B) with ||A| - |B|| <= 1 where A and B
    are unions of connected components of G - S.  With c given, G - S must
    have exactly c components.  S candidates are tried by increasing size,
    lexicographically within a size, so the witness S is the lexicographically
    least among the smallest; the component-to-side assignment is the first
    feasible one in increasing bitmask order over components.
    """
    if g.n > 18:
        raise OracleSizeError(f"brute_vertex_bisection handles n <= 18, got {g.n}")
    if k > 4:
        raise OracleSizeError(f"brute_vertex_bisection handles k <= 4, got {k}")
    if k < 0:
        raise ValueError("k must be non-negative")

    verts = list(g.vertices)
    for size in range(0, min(k, g.n) + 1):
        for s_combo in combinations(verts, size):
            s = frozenset(s_combo)
            comps = connected_components(g, within=(v for v in verts if v not in s))
            if c is not None and len(comps) != c:
                continue
            rest = g.n - size
            sizes = [len(comp) for comp in comps]
            # first component subset (by bitmask value) whose total lands a
            # balanced split of the remaining vertices
            for mask in range(1 << len(comps)):
                total = sum(sizes[i] for i in range(len(comps)) if mask >> i & 1)
                if abs(total - (rest - total)) <= 1:
                    a: set = set()
                    for i in range(len(comps)):
                        if mask >> i & 1:
                            a |= comps[i]
                    b = set(verts) - s - a
                    return OracleResult(size, Separation(s, a, b))
    return OracleResult(None, None)


def restricted_growth_strings(n: int, max_groups: int, cap: int):
    """Yield, in lexicographic order, each restricted-growth string of n
    items (item i joins one of the groups items 0..i-1 use, or the next)
    with at most max_groups groups of at most cap items.  An explicit cursor
    moves item i to its next group with room, or back to item i - 1 when
    none is left; used[i] counts the groups of items 0..i-1."""
    assign = [-1] * n
    counts = [0] * min(max_groups, n)
    used = [0] * (n + 1)
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(assign)
            i -= 1
            continue
        grp = assign[i]
        if grp >= 0:
            counts[grp] -= 1
        top = min(used[i] + 1, max_groups)
        grp += 1
        while grp < top and counts[grp] == cap:
            grp += 1
        if grp < top:
            assign[i] = grp
            counts[grp] += 1
            used[i + 1] = max(used[i], grp + 1)
            i += 1
        else:
            assign[i] = -1
            i -= 1


def brute_balanced_partition(g: Graph, d: int) -> OracleResult:
    """Minimum cut over all partitions into d parts of size <= ceil(n/d)."""
    if g.n > 12:
        raise OracleSizeError(f"brute_balanced_partition handles n <= 12, got {g.n}")
    if d < 1:
        raise ValueError("d must be at least 1")
    n = g.n
    cap = -(-n // d)
    verts = list(g.vertices)

    best = None
    best_assign = None
    for assign in restricted_growth_strings(n, d, cap):
        cut = 0
        for u, v in g.edges():
            if assign[u - 1] != assign[v - 1]:
                cut += g.edge_weight(u, v)
        if best is None or cut < best:
            best = cut
            best_assign = assign
    parts = [set() for _ in range(d)]
    for v, grp in zip(verts, best_assign):
        parts[grp].add(v)
    return OracleResult(best, DPartition(parts))


def brute_maxcut(g: Graph) -> OracleResult:
    """Maximum cut value over all bipartitions (vertex 1 pinned to side A).

    Cut values are filled in over subsets of {2..n} by a one-bit-at-a-time
    recurrence, so each of the 2^(n-1) candidates costs O(1) bit operations
    on unit-weight graphs.
    """
    n = g.n
    if n > 20:
        raise OracleSizeError(f"brute_maxcut handles n <= 20, got {n}")
    if n == 0:
        return OracleResult(0, Bipartition((), ()))

    adj = adjacency_masks(g)
    unit = g.is_unit_edge_weighted()
    wadj = None
    if not unit:
        wadj = [[] for _ in range(n + 1)]
        for u, v in g.edges():
            w = g.edge_weight(u, v)
            wadj[u].append((v, w))
            wadj[v].append((u, w))

    # mask over vertices 2..n (bit i <=> vertex i+2 joins side A with vertex 1)
    total = 1 << (n - 1)
    cut = [0] * total
    deg_w = [0] + [
        sum(w for _, w in wadj[v]) if not unit else adj[v].bit_count()
        for v in range(1, n + 1)
    ]
    cut[0] = deg_w[1]  # A = {1}
    for mask in range(1, total):
        low = mask & -mask
        prev = mask ^ low
        v = low.bit_length() + 1  # vertex index of the newly-added bit
        amask_prev = 2 | prev << 2  # side A in adjacency-mask bits (bit v <=> v)
        if unit:
            to_a = (adj[v] & amask_prev).bit_count()
        else:
            to_a = sum(w for u, w in wadj[v] if amask_prev >> u & 1)
        cut[mask] = cut[prev] + deg_w[v] - 2 * to_a

    best_mask = max(range(total), key=lambda mk: (cut[mk], -mk))
    a = {1} | {i + 2 for i in range(n - 1) if best_mask >> i & 1}
    b = set(g.vertices) - a
    return OracleResult(cut[best_mask], Bipartition(a, b))
