"""Balanced partitioning driven by a small vertex cover.

Every edge touches the cover, so fixing how the cover is split across the d
parts decides almost everything: the leftover vertices form an independent
set whose members can be placed one by one, each caring only about the
weight of its edges to neighbours outside its part.  The solver walks the
set partitions of the cover into at most d groups (none overfilling a
part) in one depth-first pass over the cover vertices, keeping every
independent vertex's cost row, the sum of the row minima and the cover cut
up to date as each cover vertex is placed and undoing them on backtrack.
At each complete split it skips the split when the cover cut, or cover cut
plus a placement floor, already reaches the best total: first the sum of
row minima, then a floor that respects each part's room.  The rest get
their independent vertices assigned at minimum cost under the remaining
capacities, greedily while that provably matches shortest paths over the
d parts alone and by those shortest paths after; the cheapest combination
is kept, first enumerated winning ties.  With at most two groups the
room-respecting floor is that minimum cost, so splits are priced by it and
only the winner is assigned.  The cover itself comes from a branching
search pruned by a greedy-matching lower bound, with its budget starting
at the size of a greedy cover.

``enumerate_cover_partitions`` lists the same splits in the same order from
the oracle's restricted-growth strings; it is the reference the solver's
walk is tested against.
"""

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import DPartition, Graph, cut_size
from .oracle import restricted_growth_strings


def _greedy_cover_size(g: Graph) -> int:
    """Size of the cover built by repeatedly taking a vertex of highest
    remaining degree, lowest id on ties."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices if g.degree(v)}
    size = 0
    while adj:
        v = max(adj, key=lambda u: (len(adj[u]), -u))
        for u in adj.pop(v):
            adj[u].discard(v)
            if not adj[u]:
                del adj[u]
        size += 1
    return size


def min_vertex_cover(g: Graph, tau_max: int) -> Optional[FrozenSet[int]]:
    """Minimum vertex cover if one of size at most tau_max exists, else None.

    Depth-first branching on the first uncovered edge (u, v), u before v,
    over an explicit stack of partial covers.  The scan for that edge also
    builds a greedy matching of the uncovered edges; a partial cover is
    dropped when its size plus the matching exceeds the budget.  The budget
    starts at tau_max or the size of a greedy highest-degree cover, if
    smaller, and becomes the best size found.  It never falls below the
    minimum and the prune is strict, so every minimum cover is reached and
    the lexicographically smallest one is returned, which keeps results
    reproducible.
    """
    if tau_max < 0:
        return None
    edges = sorted(g.edges())
    best: Optional[Tuple[tuple, FrozenSet[int]]] = None
    limit = min(tau_max, _greedy_cover_size(g))
    stack: List[FrozenSet[int]] = [frozenset()]
    while stack:
        cover = stack.pop()
        first = None
        matched = set()
        bound = len(cover)
        for u, v in edges:
            if u in cover or v in cover:
                continue
            if first is None:
                first = (u, v)
            if u not in matched and v not in matched:
                matched.add(u)
                matched.add(v)
                bound += 1
                if bound > limit:
                    break
        if first is None:
            rank = (len(cover), tuple(sorted(cover)))
            if best is None or rank < best[0]:
                best = (rank, cover)
                limit = len(cover)
        elif bound <= limit:
            u, v = first
            stack.append(cover | {v})
            stack.append(cover | {u})
    return best[1] if best else None


def enumerate_cover_partitions(
    c_set: Iterable[int], d: int, n: int
) -> Iterator[Tuple[FrozenSet[int], ...]]:
    """Set partitions of the cover into at most min(d, |C|) groups of size
    at most ceil(n/d), one per relabeling class, in restricted-growth order.

    Each is the tuple of its nonempty groups ordered by smallest member; the
    parts beyond them are empty.  solve_balanced_partition_vc walks the same
    splits in the same order without building them.
    """
    if d < 1:
        raise ValueError("need at least one part")
    items = sorted(set(c_set))
    if len(items) > n:
        raise ValueError("cover is larger than the graph")
    for assign in restricted_growth_strings(len(items), d, -(-n // d)):
        groups: List[List[int]] = [[] for _ in range(max(assign, default=-1) + 1)]
        for v, grp in zip(items, assign):
            groups[grp].append(v)
        yield tuple(map(frozenset, groups))


def min_cost_assignment(
    costs: Sequence[Sequence[int]], capacities: Sequence[int]
) -> Tuple[List[int], int]:
    """Cheapest way to put each cost row into a group with room left.

    costs[t][j] is the price of putting item t into group j.  Successive
    shortest paths whose only nodes are the groups: a placed item t in
    group a is an arc a -> b of cost costs[t][b] - costs[t][a].  Each new
    row starts its distances at the row itself; k - 1 Bellman-Ford rounds
    over the placed items settle them (arcs can be negative, cycles
    cannot), the item ends in the cheapest group with room (lowest index on
    ties), and every item on the path shifts one group along it.  Returns
    (group per row, total cost); raises when the capacities cannot hold
    every row.

    A round skips an item's arc back to its own group (it costs 0, never a
    strict improvement), and the rounds stop after one that updates
    nothing, since the next would repeat it; so the distances, paths and
    placements are those of the plain k - 1 rounds.

    Leading rows whose lowest-index minimum has room go straight there:
    while every placed item sits in its own lowest-index minimum, no arc is
    negative and a zero-cost arc only leads to a higher index, so the
    shortest paths would pick the same group and move nothing.
    """
    k = len(capacities)
    if sum(capacities) < len(costs):
        raise ValueError("capacities cannot hold every item")
    room = list(capacities)
    group: List[int] = []
    total = 0
    for row in costs:
        b = row.index(min(row))
        if not room[b]:
            break
        total += row[b]
        room[b] -= 1
        group.append(b)
    others = [[b for b in range(k) if b != a] for a in range(k)]
    for row in costs[len(group):]:
        dist = list(row)
        via = [-1] * k  # the placed item whose move reached each group
        for _ in range(k - 1):
            moved = False
            for t, a in enumerate(group):
                item = costs[t]
                base = dist[a] - item[a]
                for b in others[a]:
                    if base + item[b] < dist[b]:
                        dist[b] = base + item[b]
                        via[b] = t
                        moved = True
            if not moved:
                break
        b = min((j for j in range(k) if room[j]), key=lambda j: (dist[j], j))
        total += dist[b]
        room[b] -= 1
        while via[b] >= 0:
            t = via[b]
            group[t], b = b, group[t]
        group.append(b)
    return group, total


def capacity_floor(costs: Sequence[Sequence[int]], capacities: Sequence[int]) -> int:
    """Lower bound on the cost of min_cost_assignment(costs, capacities),
    exact for at most two groups.

    For each group j the other groups are merged into one with their
    combined room, and every row pays its cheapest entry in j or its
    cheapest entry elsewhere.  That split starts from the sum of row minima:
    if more rows are cheapest only in j than j has room, the excess moves
    out at the smallest second-minus-first gaps; if the others cannot hold
    every row j does not want, j takes the rows cheapest to move in.  Every
    real assignment is such a split, so each is a bound and the largest is
    returned.
    """
    k = len(capacities)
    if k == 1:
        return sum(row[0] for row in costs)
    spare = sum(capacities) - len(costs)
    mins = []
    gaps: List[List[int]] = [[] for _ in range(k)]  # per group, for rows cheapest only there
    if k == 2:  # most calls: read the pair, which takes half the time of sorting it
        for c0, c1 in costs:
            if c0 < c1:
                mins.append(c0)
                gaps[0].append(c1 - c0)
            else:
                mins.append(c1)
                if c1 < c0:
                    gaps[1].append(c0 - c1)
    else:
        for row in costs:
            m1, m2 = sorted(row)[:2]
            mins.append(m1)
            if m1 < m2:
                gaps[row.index(m1)].append(m2 - m1)
    extra = 0
    for j, room in enumerate(capacities):
        out = len(gaps[j]) - room  # rows cheapest only in j that j cannot hold
        least = room - spare  # rows j must take: the others cannot hold them
        if out > 0:
            extra = max(extra, sum(sorted(gaps[j])[:out]))
        elif least > len(gaps[j]):
            # its own rows cost 0 to take in, so they come first
            extra = max(extra, sum(sorted(row[j] - m for row, m in zip(costs, mins))[:least]))
    return sum(mins) + extra


def solve_balanced_partition_vc(g: Graph, d: int) -> Tuple[DPartition, int]:
    """Minimum-cut partition of G into d parts of size at most ceil(n/d).

    One depth-first pass over the sorted cover vertices puts each into a
    group in restricted-growth order (groups 0 .. min(used + 1, k) - 1,
    skipping a group already holding ceil(n/d)), so its leaves are the
    splits of enumerate_cover_partitions, in its order.  Along the path it
    keeps each independent vertex's cost row (weighted degree minus its
    weight into each group), the row minima and their sum, the cover cut
    (edges to earlier cover vertices in other groups) and the room left in
    each group: assigning a cover vertex touches only the rows of its
    independent neighbours, and backtracking undoes exactly that.

    At a leaf the split is skipped when its cover cut, or its cover cut
    plus the sum of row minima, already reaches the best total: each is at
    most the split's total and only a strictly cheaper split replaces the
    best, so the winner stays the first cheapest one enumerated.  With at
    most two groups capacity_floor is the exact placement cost, so the
    split's total is priced as cover cut plus floor, a strictly cheaper
    price copies the split's rows and room, and min_cost_assignment runs
    once, on the winner's.  With more groups the split is also skipped when
    cover cut plus capacity_floor reaches the best total, and otherwise
    min_cost_assignment places the independent vertices under the leftover
    capacities at that leaf.  The reported cut is the cover cut plus the
    placement cost.

    Past d = n every part holds at most one vertex, so at most n are used:
    the search runs with max(1, min(d, n)) groups, padded to d empty parts.
    """
    if d < 1:
        raise ValueError("need at least one part")
    k = max(1, min(d, g.n))  # ceil(n/k) == ceil(n/d) in every case
    cap = -(-g.n // d)
    cover = sorted(min_vertex_cover(g, g.n))
    at = {u: i for i, u in enumerate(cover)}
    items = tuple(sorted(frozenset(g.vertices) - frozenset(cover)))
    rows = []  # rows[t][j]: weight of item t's edges leaving group j
    touches: List[List[Tuple[int, int]]] = [[] for _ in cover]  # (item, weight) per cover vertex
    for t, v in enumerate(items):
        deg = 0
        for u in g.neighbors(v):
            w = g.edge_weight(v, u)
            touches[at[u]].append((t, w))
            deg += w
        rows.append([deg] * k)
    back: List[List[Tuple[int, int]]] = [[] for _ in cover]  # (earlier cover index, weight)
    for u, v in g.edges():
        if u in at and v in at:
            i, h = max(at[u], at[v]), min(at[u], at[v])
            back[i].append((h, g.edge_weight(u, v)))
    mins = [row[0] for row in rows]
    c = len(cover)
    group = [-1] * c  # group of each cover vertex on the current path, -1 while untried
    counts = [0] * k
    used = [0] * (c + 1)  # groups opened before cover vertex i
    cut = [0] * (c + 1)  # cover cut among cover vertices before i
    minsum = [0] * (c + 1)  # sum of row minima before cover vertex i
    minsum[0] = sum(mins)
    saved: List[List[Tuple[int, int]]] = [[] for _ in cover]  # (item, its minimum) lowered by i
    # (total, cover groups, placement), the placement None for k <= 2 until
    # the search ends, and the rows and room it is made from
    best: Optional[tuple] = None
    i = 0  # the cover vertex to place next; i == c is a complete split
    while i >= 0:
        if i == c:
            total = cut[c]
            if best is None or (total < best[0] and total + minsum[c] < best[0]):
                room = [cap - m for m in counts]
                if k <= 2:  # the floor is the placement cost; first enumerated wins ties
                    price = total + capacity_floor(rows, room)
                    if best is None or price < best[0]:
                        best = (price, list(group), None, ([list(row) for row in rows], room))
                elif best is None or total + capacity_floor(rows, room) < best[0]:
                    placed, cost = min_cost_assignment(rows, room)
                    if best is None or total + cost < best[0]:
                        best = (total + cost, list(group), placed, None)
            i -= 1
            continue
        j = group[i]
        if j >= 0:  # undo the last choice for cover vertex i
            counts[j] -= 1
            for t, w in touches[i]:
                rows[t][j] += w
            for t, m in saved[i]:
                mins[t] = m
            saved[i].clear()
        top = min(used[i] + 1, k)
        j += 1
        while j < top and counts[j] == cap:
            j += 1
        if j == top:
            group[i] = -1
            i -= 1
            continue
        group[i] = j
        counts[j] += 1
        cut[i + 1] = cut[i] + sum(w for h, w in back[i] if group[h] != j)
        low = minsum[i]
        lowered = saved[i]
        for t, w in touches[i]:
            row = rows[t]
            row[j] -= w
            if row[j] < mins[t]:
                lowered.append((t, mins[t]))
                low -= mins[t] - row[j]
                mins[t] = row[j]
        minsum[i + 1] = low
        used[i + 1] = max(used[i], j + 1)
        i += 1
    total, cover_group, placed, winner = best
    if placed is None:
        placed = min_cost_assignment(*winner)[0]
    parts = [set() for _ in range(d)]
    for u, j in zip(cover, cover_group):
        parts[j].add(u)
    for v, j in zip(items, placed):
        parts[j].add(v)
    dp = DPartition(parts)
    if not dp.is_valid(g) or cut_size(g, dp) != total:
        raise RuntimeError("internal error: partition failed validation")
    return dp, total
