"""Balanced partitioning driven by a small vertex cover.

Every edge touches the cover, so fixing how the cover is split across the d
parts decides almost everything: the leftover vertices form an independent
set whose members can be placed one by one, each caring only about the
weight of its edges to neighbours outside its part.  The solver enumerates
the set partitions of the cover into at most d groups (dropping any that
overfill a part), assigns the independent vertices with a minimum-cost
matching under the remaining capacities, and keeps the cheapest
combination, first enumerated winning ties.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .graph import DPartition, Graph, cut_size


def min_vertex_cover(g: Graph, tau_max: int) -> Optional[FrozenSet[int]]:
    """Minimum vertex cover if one of size at most tau_max exists, else None.

    Bounded-depth branching on the first uncovered edge; among all minimum
    covers the lexicographically smallest is returned, so results are
    reproducible.
    """
    if tau_max < 0:
        return None
    edges = sorted(g.edges())
    best: Optional[Tuple[tuple, FrozenSet[int]]] = None

    def branch(cover: set):
        nonlocal best
        limit = tau_max if best is None else min(tau_max, len(best[1]))
        uncovered = next(
            ((u, v) for u, v in edges if u not in cover and v not in cover), None
        )
        if uncovered is None:
            rank = (len(cover), tuple(sorted(cover)))
            if best is None or rank < best[0]:
                best = (rank, frozenset(cover))
            return
        if len(cover) >= limit:
            return
        u, v = uncovered
        for w in (u, v):
            cover.add(w)
            branch(cover)
            cover.discard(w)

    branch(set())
    return best[1] if best else None


@dataclass(frozen=True)
class CoverPartition:
    """A split of the cover into groups, with room left in each of d parts.

    Only nonempty groups are stored, canonically ordered by smallest member;
    parts beyond them are implicitly empty with full capacity.
    """

    groups: Tuple[FrozenSet[int], ...]
    d: int
    cap: int  # ceil(n/d), the per-part size limit

    def __post_init__(self):
        if self.d < 1 or self.cap < 0:
            raise ValueError("need d >= 1 and a non-negative part capacity")
        if len(self.groups) > self.d:
            raise ValueError("more groups than parts")
        seen: set = set()
        for grp in self.groups:
            if not grp or len(grp) > self.cap or (grp & seen):
                raise ValueError("groups must be nonempty, disjoint and fit the cap")
            seen |= grp
        mins = [min(grp) for grp in self.groups]
        if mins != sorted(mins):
            raise ValueError("groups must be ordered by smallest member")

    @property
    def capacities(self) -> Tuple[int, ...]:
        """Room left for independent vertices, one entry per part (length d)."""
        used = tuple(self.cap - len(grp) for grp in self.groups)
        return used + (self.cap,) * (self.d - len(self.groups))

    @property
    def all_groups(self) -> Tuple[FrozenSet[int], ...]:
        return self.groups + (frozenset(),) * (self.d - len(self.groups))


def enumerate_cover_partitions(
    c_set: Iterable[int], d: int, n: int
) -> Iterator[CoverPartition]:
    """Set partitions of the cover into at most min(d, |C|) groups of size
    at most ceil(n/d), one per relabeling class, in restricted-growth order."""
    if d < 1:
        raise ValueError("need at least one part")
    items = sorted(set(c_set))
    if len(items) > n:
        raise ValueError("cover is larger than the graph")
    cap = -(-n // d) if n else 0
    max_groups = min(d, len(items))
    if not items:
        yield CoverPartition((), d, cap)
        return
    assign = [0] * len(items)
    counts = [0] * max_groups

    def rec(i: int, used: int) -> Iterator[CoverPartition]:
        if i == len(items):
            groups = tuple(
                frozenset(items[t] for t in range(len(items)) if assign[t] == j)
                for j in range(used)
            )
            yield CoverPartition(groups, d, cap)
            return
        for grp in range(min(used + 1, max_groups)):
            if counts[grp] == cap:
                continue
            assign[i] = grp
            counts[grp] += 1
            yield from rec(i + 1, max(used, grp + 1))
            counts[grp] -= 1

    yield from rec(0, 0)


@dataclass(frozen=True)
class AssignmentProblem:
    """Items to distribute over capacitated groups at per-pair costs.

    costs[i][j] is the price of putting items[i] into group j; rows align
    with items and columns with capacities.
    """

    items: Tuple[int, ...]
    costs: Tuple[Tuple[int, ...], ...]
    capacities: Tuple[int, ...]

    def __post_init__(self):
        if len(self.costs) != len(self.items):
            raise ValueError("one cost row per item required")
        if any(len(row) != len(self.capacities) for row in self.costs):
            raise ValueError("cost rows must match the number of groups")
        if any(c < 0 for row in self.costs for c in row):
            raise ValueError("costs must be non-negative")
        if any(s < 0 for s in self.capacities):
            raise ValueError("capacities must be non-negative")


def min_cost_assignment(p: AssignmentProblem) -> Tuple[Dict[int, int], int]:
    """Cheapest way to place every item, respecting group capacities.

    Successive shortest augmenting paths on the flow network
    source -> items -> groups -> sink; group capacities sit on the
    group-to-sink arcs, so capacity slots are never materialized.
    Returns (item -> group index, total cost); raises when the capacities
    cannot hold all items.
    """
    m, k = len(p.items), len(p.capacities)
    if sum(p.capacities) < m:
        raise ValueError("capacities cannot hold every item")
    size = m + k + 2
    sink = size - 1
    out_edges: List[List[int]] = [[] for _ in range(size)]
    edges: List[list] = []  # [to, residual capacity, cost]; id^1 is the reverse

    def add(u: int, v: int, cap: int, cost: int):
        out_edges[u].append(len(edges))
        edges.append([v, cap, cost])
        out_edges[v].append(len(edges))
        edges.append([u, 0, -cost])

    for i in range(m):
        add(0, 1 + i, 1, 0)
    for i, row in enumerate(p.costs):
        for j, c in enumerate(row):
            add(1 + i, m + 1 + j, 1, c)
    for j, cap in enumerate(p.capacities):
        add(m + 1 + j, sink, cap, 0)

    total = 0
    for _ in range(m):
        dist: List[Optional[int]] = [None] * size
        dist[0] = 0
        prev = [-1] * size
        changed = True
        while changed:  # Bellman-Ford; residual costs can be negative
            changed = False
            for eid, (to, cap, cost) in enumerate(edges):
                if cap <= 0:
                    continue
                frm = edges[eid ^ 1][0]
                if dist[frm] is None:
                    continue
                cand = dist[frm] + cost
                if dist[to] is None or cand < dist[to]:
                    dist[to] = cand
                    prev[to] = eid
                    changed = True
        total += dist[sink]
        v = sink
        while v != 0:
            eid = prev[v]
            edges[eid][1] -= 1
            edges[eid ^ 1][1] += 1
            v = edges[eid ^ 1][0]

    assignment: Dict[int, int] = {}
    for i in range(m):
        for eid in out_edges[1 + i]:
            if eid % 2 == 0 and edges[eid][1] == 0:  # forward arc, fully used
                assignment[p.items[i]] = edges[eid][0] - (m + 1)
    return assignment, total


def solve_balanced_partition_vc(g: Graph, d: int) -> Tuple[DPartition, int]:
    """Minimum-cut partition of G into d parts of size at most ceil(n/d).

    Enumerates cover splits and matches the independent vertices under
    the leftover capacities; the reported cut is the matching cost plus
    the weight of the edges running between different cover groups.
    """
    if d < 1:
        raise ValueError("need at least one part")
    cover = min_vertex_cover(g, g.n)
    items = tuple(sorted(frozenset(g.vertices) - cover))
    best: Optional[Tuple[int, DPartition]] = None
    for cp in enumerate_cover_partitions(cover, d, g.n):
        group_of = {v: j for j, grp in enumerate(cp.groups) for v in grp}
        cover_cut = sum(
            g.edge_weight(u, v)
            for u, v in g.edges()
            if u in group_of and v in group_of and group_of[u] != group_of[v]
        )
        groups = cp.all_groups
        rows = tuple(
            tuple(sum(g.edge_weight(v, u) for u in g.neighbors(v) - grp) for grp in groups)
            for v in items
        )
        assignment, cost = min_cost_assignment(
            AssignmentProblem(items, rows, cp.capacities)
        )
        total = cover_cut + cost
        if best is None or total < best[0]:  # first enumerated wins ties
            parts = [set(grp) for grp in groups]
            for v, j in assignment.items():
                parts[j].add(v)
            best = (total, DPartition(parts))
    total, dp = best[0], best[1]
    if not dp.is_valid(g) or cut_size(g, dp) != total:
        raise RuntimeError("internal error: partition failed validation")
    return dp, total
