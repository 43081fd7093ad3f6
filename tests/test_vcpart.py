"""Vertex-cover driven balanced partitioning: covers, matchings, solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut import vcpart
from balcut.cwcut import solve_bisection_cwd
from balcut.graph import (
    Graph,
    complete_graph,
    cut_size,
    cycle_graph,
    path_graph,
    star_graph,
)
from balcut.oracle import brute_balanced_partition
from balcut.qexpr import forest_qexpr, greedy_deletion_set
from balcut.vcpart import (
    capacity_floor,
    enumerate_cover_partitions,
    min_cost_assignment,
    min_vertex_cover,
    solve_balanced_partition_vc,
)

from .conftest import all_graphs_up_to_iso, random_connected_graph, random_graph


# ------------------------------------------------------ min_vertex_cover


def test_min_vertex_cover_examples():
    assert min_vertex_cover(path_graph(3), 3) == frozenset({2})
    assert min_vertex_cover(cycle_graph(4), 4) == frozenset({1, 3})
    assert min_vertex_cover(complete_graph(4), 4) == frozenset({1, 2, 3})
    assert min_vertex_cover(Graph(3), 0) == frozenset()


def test_min_vertex_cover_budget():
    assert min_vertex_cover(complete_graph(4), 2) is None
    assert min_vertex_cover(path_graph(2), 0) is None
    assert min_vertex_cover(path_graph(2), -1) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_min_vertex_cover_is_minimum(n, seed):
    g = random_graph(n, 0.4, seed=seed)
    got = min_vertex_cover(g, g.n)
    # brute force the true minimum size
    verts = list(g.vertices)
    want = next(
        r
        for r in range(g.n + 1)
        for c in itertools.combinations(verts, r)
        if all(u in c or v in c for u, v in g.edges())
    )
    assert len(got) == want
    assert all(u in got or v in got for u, v in g.edges())
    # the lexicographically smallest minimum cover: the first one that
    # combinations() yields at the minimum size
    first = next(
        c
        for c in itertools.combinations(verts, want)
        if all(u in c or v in c for u, v in g.edges())
    )
    assert got == frozenset(first)
    # a budget of exactly the minimum size finds the same cover; one less finds none
    assert min_vertex_cover(g, want) == got
    assert want == 0 or min_vertex_cover(g, want - 1) is None


def test_min_vertex_cover_of_a_long_path_is_the_odd_vertices():
    # the greedy-matching bound keeps this search small (it is 2^21 leaves
    # without a lower bound)
    assert min_vertex_cover(path_graph(42), 42) == frozenset(range(1, 42, 2))
    # the greedy cover (the even vertices and 99) starts the budget at the
    # minimum; from a budget of 100 this search took seconds
    assert min_vertex_cover(path_graph(100), 100) == frozenset(range(1, 100, 2))


def _reference_cover(g, tau_max):
    """min_vertex_cover with its budget starting at tau_max itself."""
    if tau_max < 0:
        return None
    edges = sorted(g.edges())
    best = None
    limit = tau_max
    stack = [frozenset()]
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


def _cover_cases():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(0, 16)
        yield random_graph(n, rng.choice((0.15, 0.3, 0.5, 0.8)), seed=rng.randrange(10**6))
    for n in (1, 2, 5, 9):
        yield star_graph(n)
    for n in (1, 2, 7, 12, 16):
        yield path_graph(n)
    for n in (1, 2, 5, 8):
        yield complete_graph(n)


def test_min_vertex_cover_matches_the_budget_from_tau_max():
    for g in _cover_cases():
        for tau_max in range(-1, g.n + 2):
            assert min_vertex_cover(g, tau_max) == _reference_cover(g, tau_max), (
                sorted(g.edges()),
                tau_max,
            )


# ---------------------------------------------- enumerate_cover_partitions


def test_partition_counts_follow_bell_numbers():
    assert len(list(enumerate_cover_partitions({1, 2}, 3, 9))) == 2
    assert len(list(enumerate_cover_partitions({1, 2, 3}, 3, 9))) == 5
    assert len(list(enumerate_cover_partitions({1, 2, 3, 4}, 4, 16))) == 15


def test_partition_single_group_when_d_is_one():
    ps = list(enumerate_cover_partitions({1, 2}, 1, 6))
    assert ps == [(frozenset({1, 2}),)]


def test_oversized_groups_are_discarded():
    # cap is ceil(2/2) = 1, so the two cover vertices cannot share a group
    ps = list(enumerate_cover_partitions({1, 2}, 2, 2))
    assert ps == [(frozenset({1}), frozenset({2}))]
    dp, cut = solve_balanced_partition_vc(path_graph(2), 2)
    assert cut == 1 and dp.parts == (frozenset({1}), frozenset({2}))


def test_partitions_are_ordered_disjoint_and_fit_the_cap():
    cover = {1, 2, 4, 5}
    for d, n in ((2, 6), (3, 7), (4, 9)):
        cap = -(-n // d)
        for groups in enumerate_cover_partitions(cover, d, n):
            assert len(groups) <= d
            assert all(grp and len(grp) <= cap for grp in groups)
            assert frozenset().union(*groups) == cover
            assert sum(len(grp) for grp in groups) == len(cover)
            mins = [min(grp) for grp in groups]
            assert mins == sorted(mins)


def test_empty_cover_yields_the_empty_partition():
    ps = list(enumerate_cover_partitions((), 3, 5))
    assert ps == [()]
    # the solver pads it to three empty parts with room ceil(5/3) = 2 each
    dp, cut = solve_balanced_partition_vc(Graph(5), 3)
    assert cut == 0 and sorted(len(p) for p in dp.parts) == [1, 2, 2]


def test_group_count_capped_by_d_and_cover_size():
    ps = list(enumerate_cover_partitions({1, 2, 3}, 2, 9))
    assert all(len(groups) <= 2 for groups in ps)
    assert len(ps) == 4  # B3 minus the all-singletons partition


def test_enumeration_argument_checks():
    with pytest.raises(ValueError, match="at least one part"):
        list(enumerate_cover_partitions({1}, 0, 3))
    with pytest.raises(ValueError, match="larger than the graph"):
        list(enumerate_cover_partitions({1, 2, 3}, 2, 2))


# ------------------------------------------------------ min_cost_assignment


def test_assignment_examples():
    assert min_cost_assignment([[0, 5]], [1, 1]) == ([0], 0)
    placed, total = min_cost_assignment([[1, 2], [1, 2]], [1, 1])
    assert total == 3 and sorted(placed) == [0, 1]
    assert min_cost_assignment([[0, 9], [0, 1]], [1, 1]) == ([0, 1], 1)
    # the second row takes group 0 and pushes the first one along to group 1
    assert min_cost_assignment([[0, 1], [0, 9]], [1, 1]) == ([1, 0], 1)
    assert min_cost_assignment([], [0, 0]) == ([], 0)


def test_assignment_infeasible_capacities():
    with pytest.raises(ValueError, match="hold every item"):
        min_cost_assignment([[0], [0], [0]], [2])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 10**6))
def test_assignment_matches_exhaustive_minimum(m, k, seed):
    rng = random.Random(seed)
    costs = [[rng.randint(0, 6) for _ in range(k)] for _ in range(m)]
    caps = [rng.randint(0, m) for _ in range(k)]
    if sum(caps) < m:
        with pytest.raises(ValueError):
            min_cost_assignment(costs, caps)
        return
    placed, total = min_cost_assignment(costs, caps)
    # respects capacities and assigns everything
    assert len(placed) == m
    for j in range(k):
        assert placed.count(j) <= caps[j]
    assert total == sum(costs[i][placed[i]] for i in range(m))
    best = min(
        sum(costs[i][choice[i]] for i in range(m))
        for choice in itertools.product(range(k), repeat=m)
        if all(choice.count(j) <= caps[j] for j in range(k))
    )
    assert total == best


def _reference_ssp(costs, capacities):
    """Successive shortest paths over the groups with full Bellman-Ford
    rounds for every row: min_cost_assignment without its greedy prefix."""
    k = len(capacities)
    if sum(capacities) < len(costs):
        raise ValueError("capacities cannot hold every item")
    room = list(capacities)
    group = []
    total = 0
    for row in costs:
        dist = list(row)
        via = [-1] * k
        for _ in range(k - 1):
            for t, a in enumerate(group):
                base = dist[a] - costs[t][a]
                for b, c in enumerate(costs[t]):
                    if base + c < dist[b]:
                        dist[b] = base + c
                        via[b] = t
        b = min((j for j in range(k) if room[j]), key=lambda j: (dist[j], j))
        total += dist[b]
        room[b] -= 1
        while via[b] >= 0:
            t = via[b]
            group[t], b = b, group[t]
        group.append(b)
    return group, total


# k = 3-5 rows on which a second Bellman-Ford round moves an item, so
# stopping after the first round places them wrongly
LATE_ROUND_CASES = [
    ([[2, 3, 2], [2, 2, 6], [1, 3, 0], [1, 2, 3], [5, 2, 0], [4, 4, 0], [3, 2, 5]], [2, 1, 5]),
    ([[3, 2, 4], [1, 6, 0], [6, 5, 3], [4, 2, 2], [4, 2, 5]], [2, 1, 2]),
    ([[6, 0, 0, 6], [3, 0, 3, 5], [3, 0, 4, 4], [1, 0, 5, 4], [2, 2, 4, 0]], [2, 1, 5, 0]),
    (
        [[1, 1, 3, 1], [5, 3, 2, 1], [2, 2, 2, 3], [2, 5, 0, 1], [3, 5, 1, 4], [2, 3, 5, 5],
         [4, 4, 5, 2], [1, 3, 2, 2]],
        [4, 4, 0, 2],
    ),
    (
        [[4, 5, 6, 5, 4], [3, 1, 6, 3, 5], [2, 5, 2, 0, 4], [1, 4, 3, 6, 4], [5, 0, 5, 5, 5],
         [2, 4, 3, 4, 6]],
        [0, 2, 0, 4, 1],
    ),
    (
        [[1, 5, 0, 2, 4], [3, 3, 1, 6, 0], [5, 3, 2, 5, 0], [5, 6, 6, 2, 5], [5, 1, 1, 0, 6],
         [4, 5, 6, 0, 2], [0, 0, 4, 1, 6], [6, 4, 0, 3, 3]],
        [8, 1, 1, 1, 1],
    ),
]


def test_assignment_matches_reference_ssp_exactly():
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        k = rng.randint(1, 5)
        m = rng.randint(0, 10)
        costs = [[rng.randint(0, 6) for _ in range(k)] for _ in range(m)]
        caps = [rng.randint(0, m) for _ in range(k)]
        if sum(caps) < m:
            continue
        # the full (group list, total) pair, so tie-broken placements agree too
        assert min_cost_assignment(costs, caps) == _reference_ssp(costs, caps), (costs, caps)
        checked += 1
    for costs, caps in LATE_ROUND_CASES:
        assert min_cost_assignment(costs, caps) == _reference_ssp(costs, caps), (costs, caps)


def test_capacity_floor_bounds_the_assignment():
    rng = random.Random(21)
    checked = 0
    while checked < 1500:
        k = rng.randint(1, 4)
        m = rng.randint(0, 10)
        costs = [[rng.randint(0, 6) for _ in range(k)] for _ in range(m)]
        caps = [rng.randint(0, m) for _ in range(k)]
        if sum(caps) < m:
            continue
        _, cost = min_cost_assignment(costs, caps)
        floor = capacity_floor(costs, caps)
        assert floor <= cost, (costs, caps)
        if k <= 2:
            assert floor == cost, (costs, caps)
        checked += 1


def test_capacity_floor_examples():
    # both rows want group 0, which has room for one: the cheaper move pays
    assert capacity_floor([[0, 3], [0, 5]], [1, 1]) == 3
    # group 1 must take two rows; row minima alone would say 0
    assert capacity_floor([[0, 4], [0, 2], [0, 1]], [1, 2]) == 3
    # three groups: the floor sees that group 0 overflows, not where rows go
    assert capacity_floor([[0, 2, 2], [0, 2, 2]], [1, 1, 1]) == 2
    # tied rows are cheapest in no single group, yet group 2 must take one
    assert capacity_floor([[0, 0, 3], [0, 0, 2]], [0, 1, 1]) == 2
    assert capacity_floor([], [0, 0]) == 0
    assert capacity_floor([[4], [1]], [2]) == 5


def test_assignment_cost_invariant_under_group_relabeling():
    rng = random.Random(3)
    costs = [[rng.randint(0, 5) for _ in range(3)] for _ in range(5)]
    caps = [2, 2, 2]
    _, base = min_cost_assignment(costs, caps)
    for perm in itertools.permutations(range(3)):
        shuffled = [[row[j] for j in perm] for row in costs]
        _, total = min_cost_assignment(shuffled, caps)
        assert total == base


# ------------------------------------------- solve_balanced_partition_vc


def test_star_split_costs_two():
    dp, cut = solve_balanced_partition_vc(star_graph(3), 2)
    assert cut == 2
    center_part = next(p for p in dp.parts if 1 in p)
    assert len(center_part) == 2


def test_cycle_antipodal_pairs():
    dp, cut = solve_balanced_partition_vc(cycle_graph(4), 2)
    assert cut == 2
    assert dp.is_valid(cycle_graph(4))


def test_path_into_singletons():
    dp, cut = solve_balanced_partition_vc(path_graph(3), 3)
    assert cut == 2
    assert sorted(len(p) for p in dp.parts) == [1, 1, 1]


def test_more_parts_than_vertices():
    dp, cut = solve_balanced_partition_vc(path_graph(3), 5)
    assert cut == 2
    assert dp.d == 5
    assert dp.is_valid(path_graph(3))


@pytest.mark.parametrize("seed", range(6))
def test_parts_past_n_stay_empty(seed):
    # d = 10n solves as d = n and pads with empty parts
    g = random_graph(8 + seed, 0.3, seed=600 + seed)
    small, cut = solve_balanced_partition_vc(g, g.n)
    big, big_cut = solve_balanced_partition_vc(g, 10 * g.n)
    assert big.d == 10 * g.n and big_cut == cut
    assert big.parts == small.parts + (frozenset(),) * (9 * g.n)
    assert big.is_valid(g) and cut_size(g, big) == cut


def test_edgeless_graph_costs_nothing():
    dp, cut = solve_balanced_partition_vc(Graph(4), 2)
    assert cut == 0
    assert sorted(len(p) for p in dp.parts) == [2, 2]


def test_single_part():
    dp, cut = solve_balanced_partition_vc(cycle_graph(4), 1)
    assert cut == 0
    assert dp.parts == (frozenset({1, 2, 3, 4}),)


def test_solver_rejects_bad_d():
    with pytest.raises(ValueError):
        solve_balanced_partition_vc(path_graph(3), 0)


def test_solver_deterministic():
    g = random_connected_graph(8, 0.4, seed=17)
    assert solve_balanced_partition_vc(g, 3) == solve_balanced_partition_vc(g, 3)


def test_solver_matches_oracle_exhaustive_small():
    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            for d in (2, 3, 4):
                dp, cut = solve_balanced_partition_vc(g, d)
                assert dp.is_valid(g)
                assert cut_size(g, dp) == cut
                assert cut == brute_balanced_partition(g, d).optimum, (
                    sorted(g.edges()),
                    d,
                )


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 9), st.integers(0, 10**6), st.sampled_from((2, 3, 4)))
def test_solver_matches_oracle_random(n, seed, d):
    g = random_connected_graph(n, 0.35, seed=seed)
    dp, cut = solve_balanced_partition_vc(g, d)
    assert dp.is_valid(g)
    assert cut_size(g, dp) == cut
    assert cut == brute_balanced_partition(g, d).optimum


def test_edge_weights_are_charged():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)], edge_weights={(2, 3): 5})
    dp, cut = solve_balanced_partition_vc(g, 2)
    assert cut == brute_balanced_partition(g, 2).optimum == 2
    assert cut_size(g, dp) == cut


@pytest.mark.parametrize("seed", range(8))
def test_solver_matches_weighted_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    base = random_connected_graph(n, 0.35, seed=seed)
    g = Graph(n, base.edges(), edge_weights={e: rng.randint(1, 6) for e in base.edges()})
    for d in (2, 3):
        dp, cut = solve_balanced_partition_vc(g, d)
        assert dp.is_valid(g)
        assert cut_size(g, dp) == cut
        assert cut == brute_balanced_partition(g, d).optimum, (sorted(g.edges()), d)


def _reference_solve(g, d):
    """The solver without skips: every cover split is assigned, with cost
    rows built from neighbour sets and the reference shortest paths."""
    cover = min_vertex_cover(g, g.n)
    items = sorted(frozenset(g.vertices) - cover)
    cap = -(-g.n // d)
    best = None
    for groups in enumerate_cover_partitions(cover, d, g.n):
        group_of = {v: j for j, grp in enumerate(groups) for v in grp}
        cover_cut = sum(
            g.edge_weight(u, v)
            for u, v in g.edges()
            if u in group_of and v in group_of and group_of[u] != group_of[v]
        )
        groups += (frozenset(),) * (d - len(groups))
        rows = [
            [sum(g.edge_weight(v, u) for u in g.neighbors(v) - grp) for grp in groups]
            for v in items
        ]
        placed, cost = _reference_ssp(rows, [cap - len(grp) for grp in groups])
        if best is None or cover_cut + cost < best[0]:
            parts = [set(grp) for grp in groups]
            for v, j in zip(items, placed):
                parts[j].add(v)
            best = (cover_cut + cost, tuple(frozenset(p) for p in parts))
    return best


def _graph_with_small_cover(rng):
    """A random graph whose edges all touch a random set of at most 6
    vertices; a third of them carry edge weights."""
    n = rng.randint(1, 14)
    hub = set(rng.sample(range(1, n + 1), rng.randint(0, min(6, n))))
    p = rng.choice((0.2, 0.35, 0.5))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u in hub or v in hub) and rng.random() < p
    ]
    weights = {e: rng.randint(1, 6) for e in edges} if rng.random() < 1 / 3 else None
    return Graph(n, edges, edge_weights=weights)


def test_solver_witnesses_match_the_unpruned_reference():
    rng = random.Random(2024)
    for _ in range(220):
        g = _graph_with_small_cover(rng)
        for d in (1, 2, 3, 4):
            dp, cut = solve_balanced_partition_vc(g, d)
            want_cut, want_parts = _reference_solve(g, d)
            assert (dp.parts, cut) == (want_parts, want_cut), (sorted(g.edges()), d)


def _parent_split_loop(g, d):
    """The solver's split loop before the capacity-aware bound: skips on the
    cover cut and on the sum of row minima only, over an unbounded
    enumeration and the reference cover."""
    k = max(1, min(d, g.n))
    cover = _reference_cover(g, g.n)
    items = tuple(sorted(frozenset(g.vertices) - cover))
    links = [[(u, g.edge_weight(v, u)) for u in g.neighbors(v)] for v in items]
    degrees = [sum(w for _, w in nbrs) for nbrs in links]
    cover_edges = [(u, v, g.edge_weight(u, v)) for u, v in g.edges() if u in cover and v in cover]
    cap = -(-g.n // d)
    group_of = [0] * (g.n + 1)
    best = None
    for groups in enumerate_cover_partitions(cover, k, g.n):
        for j, grp in enumerate(groups):
            for v in grp:
                group_of[v] = j
        cover_cut = sum(w for u, v, w in cover_edges if group_of[u] != group_of[v])
        if best is not None and cover_cut >= best[0]:
            continue
        rows = []
        floor = cover_cut
        for nbrs, deg in zip(links, degrees):
            row = [deg] * k
            for u, w in nbrs:
                row[group_of[u]] -= w
            rows.append(row)
            floor += min(row)
        if best is not None and floor >= best[0]:
            continue
        groups += (frozenset(),) * (k - len(groups))
        placed, cost = min_cost_assignment(rows, [cap - len(grp) for grp in groups])
        total = cover_cut + cost
        if best is None or total < best[0]:
            parts = [set(grp) for grp in groups] + [set() for _ in range(d - k)]
            for v, j in zip(items, placed):
                parts[j].add(v)
            best = (total, tuple(frozenset(p) for p in parts))
    return best


def test_solver_matches_the_parent_split_loop():
    rng = random.Random(1515)
    for _ in range(120):
        g = _graph_with_small_cover(rng)
        for d in (1, 2, 3, 4, 5):
            dp, cut = solve_balanced_partition_vc(g, d)
            want_cut, want_parts = _parent_split_loop(g, d)
            assert (dp.parts, cut) == (want_parts, want_cut), (sorted(g.edges()), d)



def _graph_with_full_groups(rng, d):
    """A random graph whose edges all touch a hub larger than ceil(n/d), so
    the cover usually outgrows a part and groups fill up mid-split; half of
    them carry edge weights."""
    n = rng.randint(d + 2, 12)
    cap = -(-n // d)
    hub = set(rng.sample(range(1, n + 1), rng.randint(cap + 1, min(n - 1, 8))))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u in hub or v in hub) and rng.random() < 0.6
    ]
    weights = {e: rng.randint(1, 5) for e in edges} if rng.random() < 0.5 else None
    return Graph(n, edges, edge_weights=weights)


def test_solver_matches_the_parent_split_loop_when_groups_fill_up():
    rng = random.Random(1818)
    full = 0
    for _ in range(150):
        d = rng.randint(3, 5)
        g = _graph_with_full_groups(rng, d)
        full += len(min_vertex_cover(g, g.n)) > -(-g.n // d)
        dp, cut = solve_balanced_partition_vc(g, d)
        want_cut, want_parts = _parent_split_loop(g, d)
        assert (dp.parts, cut) == (want_parts, want_cut), (sorted(g.edges()), d)
    assert full >= 75  # most cases really fill a group before the cover is split


def test_solver_matches_the_parent_split_loop_on_weighted_graphs():
    rng = random.Random(1819)
    for _ in range(100):
        base = _graph_with_small_cover(rng)
        g = Graph(base.n, base.edges(), edge_weights={e: rng.randint(1, 20) for e in base.edges()})
        for d in (2, 3, 4):
            dp, cut = solve_balanced_partition_vc(g, d)
            want_cut, want_parts = _parent_split_loop(g, d)
            assert (dp.parts, cut) == (want_parts, want_cut), (sorted(g.edges()), d)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_solver_matches_the_parent_split_loop_without_edges(n):
    for d in range(1, n + 3):
        dp, cut = solve_balanced_partition_vc(Graph(n), d)
        want_cut, want_parts = _parent_split_loop(Graph(n), d)
        assert (dp.parts, cut) == (want_parts, want_cut) == (want_parts, 0), d


def _split_loop_calls(g, d):
    """Every capacity_floor and min_cost_assignment call of the split loop
    that rebuilds its rows per split, in order.  With at most two groups
    the floor prices every split that passes the two cheap skips, and one
    assignment places the first cheapest; with more, a split passing all
    three skips is assigned at once."""
    k = max(1, min(d, g.n))
    cover = min_vertex_cover(g, g.n)
    items = sorted(frozenset(g.vertices) - cover)
    cap = -(-g.n // d)
    calls = []
    best = winner = None
    for groups in enumerate_cover_partitions(cover, k, g.n):
        group_of = {v: j for j, grp in enumerate(groups) for v in grp}
        cover_cut = sum(
            g.edge_weight(u, v)
            for u, v in g.edges()
            if u in group_of and v in group_of and group_of[u] != group_of[v]
        )
        if best is not None and cover_cut >= best:
            continue
        rows = [[sum(g.edge_weight(v, u) for u in g.neighbors(v))] * k for v in items]
        for row, v in zip(rows, items):
            for u in g.neighbors(v):
                row[group_of[u]] -= g.edge_weight(v, u)
        if best is not None and cover_cut + sum(map(min, rows)) >= best:
            continue
        room = [cap - len(grp) for grp in groups] + [cap] * (k - len(groups))
        if k <= 2:
            calls.append(("floor", rows, room))
            price = cover_cut + capacity_floor(rows, room)
            if best is None or price < best:
                best, winner = price, ("assign", rows, room)
            continue
        if best is not None:
            calls.append(("floor", rows, room))
            if cover_cut + capacity_floor(rows, room) >= best:
                continue
        calls.append(("assign", rows, room))
        total = cover_cut + min_cost_assignment(rows, room)[1]
        if best is None or total < best:
            best = total
    return calls + ([winner] if winner else [])


def test_solver_bounds_see_the_rows_of_a_rebuild(monkeypatch):
    """The incrementally kept rows, minima sums and cover cuts reach the
    floor and the assignment exactly as a per-split rebuild would: the same
    splits, rows and rooms in the same order, so no skip is lost or added."""
    seen = []

    def recording(kind, fn):
        def wrapper(rows, room):
            seen.append((kind, [list(row) for row in rows], list(room)))
            return fn(rows, room)

        return wrapper

    monkeypatch.setattr(vcpart, "capacity_floor", recording("floor", capacity_floor))
    monkeypatch.setattr(vcpart, "min_cost_assignment", recording("assign", min_cost_assignment))
    rng = random.Random(1820)
    for _ in range(80):
        d = rng.randint(2, 5)
        g = _graph_with_full_groups(rng, d) if rng.random() < 0.5 else _graph_with_small_cover(rng)
        seen.clear()
        solve_balanced_partition_vc(g, d)
        assert seen == _split_loop_calls(g, d), (sorted(g.edges()), d)


def _cover_graph(rng):
    """An unweighted graph on 11 to 40 vertices whose edges all touch a
    random set of 2 to 6 vertices."""
    n = rng.randint(11, 40)
    hub = set(rng.sample(range(1, n + 1), rng.randint(2, 6)))
    p = rng.choice((0.1, 0.2, 0.35))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u in hub or v in hub) and rng.random() < p
    ]
    return Graph(n, edges)


def test_two_parts_cut_as_bisection_past_the_oracles():
    """bpart with d = 2 and bisect answer the same question on unweighted
    graphs (both sides at most ceil(n/2)), by different exact solvers."""
    rng = random.Random(6)
    for _ in range(200):
        g = _cover_graph(rng)
        d_set = greedy_deletion_set(g)
        _, bisect_cut = solve_bisection_cwd(g, d_set, forest_qexpr(g, d_set))
        dp, cut = solve_balanced_partition_vc(g, 2)
        assert cut == bisect_cut, sorted(g.edges())
        assert dp.is_valid(g) and cut_size(g, dp) == cut
