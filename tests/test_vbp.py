"""Separator DP over nice decompositions, rebalancing, and the k/c driver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut import vbp
from balcut.graph import (
    Graph,
    Separation,
    complete_graph,
    connected_components,
    count_components_after_removal,
    cycle_graph,
    path_graph,
    star_graph,
)
from balcut.oracle import brute_vertex_bisection
from balcut.td import LEAF, exact_treewidth_small, make_nice, min_fill_decomposition
from balcut.vbp import (
    SepEntry,
    _drive_balance,
    _step,
    _steps,
    min_weight_separator,
    sep_dp,
    solve_vertex_bisection,
)

from .conftest import (
    all_graphs_up_to_iso,
    grid_graph,
    random_connected_graph,
    random_graph,
)


def build_table(g, c_max):
    _, td = exact_treewidth_small(g)
    return sep_dp(g, make_nice(td), c_max)


def decode(order, code):
    """(separator slice, A-parts, B-parts) of a code over the sorted bag
    ``order``; parts are frozensets ordered by their smallest vertex."""
    parts = {}
    for v, x in zip(order, code):
        parts.setdefault(x, set()).add(v)

    def side(sign):
        return tuple(sorted((frozenset(p) for x, p in parts.items() if x * sign > 0), key=min))

    return frozenset(parts.get(0, ())), side(1), side(-1)


def replay(g, c_max):
    """Every table ``sep_dp`` builds, in its order: (kind, bag, vertices
    below, table) per decomposition node, then per synthesized forget that
    empties the root bag.  Tables are decoded to (separator slice, A-parts,
    B-parts, c, ell) -> SepEntry with vertex sets.  Checks that the last
    one is the root map that ``sep_dp`` returns."""
    _, td = exact_treewidth_small(g)
    ntd = make_nice(td)

    def vertex_set(mask):
        return frozenset(v for v in g.vertices if mask >> v & 1)

    live, steps = [], []
    for kind, bag, arity in _steps(ntd):
        k = len(live) - arity
        kids = live[k:]
        del live[k:]
        coded = _step(g, kind, bag, [t for _, t, _ in kids], c_max)
        order = sorted(bag)
        table = {
            (*decode(order, code), c, ell): SepEntry(value, vertex_set(s), vertex_set(a))
            for (code, c, ell), (value, s, a) in coded.items()
        }
        below = set(bag).union(*(vs for vs, _, _ in kids))
        live.append((below, coded, table))
        steps.append((kind, bag, below, table))
    # above the root, its bag is shed one vertex at a time in vertex order
    root_bag = sorted(ntd.bags[ntd.root])
    assert [(kind, bag) for kind, bag, _, _ in steps[len(ntd.bags) :]] == [
        (("forget", v), frozenset(root_bag[i + 1 :])) for i, v in enumerate(root_bag)
    ]
    last = steps[-1][3]
    assert sep_dp(g, ntd, c_max).entries == {
        (c, ell): e for (_, _, _, c, ell), e in last.items()
    }
    return steps


def brute_final_values(g, c_max):
    """(components, lambda(A)) -> min lambda(S), enumerating every subset S
    and every union-of-components choice for A."""
    best = {}
    verts = list(g.vertices)
    for r in range(g.n + 1):
        for s_combo in itertools.combinations(verts, r):
            s = frozenset(s_combo)
            comps = connected_components(g, within=(v for v in verts if v not in s))
            if len(comps) > c_max:
                continue
            lam_s = g.weight_of(s)
            for mask in range(1 << len(comps)):
                ell = sum(
                    g.weight_of(comps[i]) for i in range(len(comps)) if mask >> i & 1
                )
                key = (len(comps), ell)
                if key not in best or lam_s < best[key]:
                    best[key] = lam_s
    return best


# ---------------------------------------------------------------- sep_dp


def test_p3_final_query():
    table = build_table(path_graph(3), 2)
    e = table.query(2, 1)
    assert e.value == 1
    # lexicographic tie-break between the two wings picks A={1}
    assert e.s_set == frozenset({2})
    assert e.a_set == frozenset({1})


def test_single_vertex_leaf_table():
    g = Graph(1)
    leaves = [
        table
        for kind, bag, _, table in replay(g, 1)
        if kind == LEAF and bag == frozenset({1})
    ]
    assert leaves
    one = frozenset({1})
    assert leaves[0] == {
        (frozenset(), (one,), (), 0, 1): SepEntry(0, frozenset(), one),
        (frozenset(), (), (one,), 0, 0): SepEntry(0, frozenset(), frozenset()),
        (one, (), (), 0, 0): SepEntry(1, one, frozenset()),
    }


def test_k3_never_splits():
    table = build_table(complete_graph(3), 2)
    for ell in range(0, 4):
        assert table.query(2, ell) is None
    # stronger: no key anywhere sees both sides, every vertex pair is adjacent
    steps = replay(complete_graph(3), 2)
    assert all(not (p_a and p_b) for *_, t in steps for _, p_a, p_b, _, _ in t)


def test_sep_dp_input_checks():
    g = path_graph(3)
    _, td = exact_treewidth_small(g)
    ntd = make_nice(td)
    with pytest.raises(ValueError):
        sep_dp(g, ntd, -1)
    with pytest.raises(ValueError):
        sep_dp(cycle_graph(4), ntd, 2)  # decomposition of a different graph


def test_sep_dp_accepts_decompositions_over_4n_nodes():
    # the nice form of a valid min-fill decomposition can exceed 4n nodes;
    # it must give the same table as the exact decomposition's
    g = random_graph(14, 0.35, seed=157)
    nice = make_nice(min_fill_decomposition(g))
    assert len(nice.bags) > 4 * g.n
    assert sep_dp(g, nice, 3).entries == build_table(g, 3).entries


@pytest.mark.parametrize(
    "g",
    [
        path_graph(5),
        cycle_graph(6),
        star_graph(5),
        Graph(3, [(1, 2), (2, 3)], vertex_weights={1: 3, 2: 1, 3: 3}),
        random_connected_graph(7, 0.35, seed=5),
    ],
    ids=["p5", "c6", "star5", "weighted-p3", "random7"],
)
def test_entries_satisfy_their_keys(g):
    """Every stored witness realizes every field of its own key, at every
    decomposition node and every synthesized forget above the root."""
    steps = replay(g, 3)
    assert steps[-1][1] == frozenset() and steps[-1][2] == set(g.vertices)
    for _, bag, verts, table in steps:
        for (s_t, p_a, p_b, c, ell), e in table.items():
            assert e.s_set <= verts and e.a_set <= verts - e.s_set
            assert e.s_set & bag == s_t
            assert g.weight_of(e.s_set) == e.value
            assert g.weight_of(e.a_set) == ell
            comps = connected_components(g, within=verts - e.s_set)
            assert len(comps) == len(p_a) + len(p_b) + c
            a_parts = {comp & bag for comp in comps if comp <= e.a_set} - {frozenset()}
            b_side = verts - e.s_set - e.a_set
            b_parts = {comp & bag for comp in comps if comp <= b_side} - {frozenset()}
            assert a_parts == set(p_a)
            assert b_parts == set(p_b)
            # A and B are unions of components with no edges between them
            for comp in comps:
                assert comp <= e.a_set or not (comp & e.a_set)


def test_final_values_match_brute_force_exhaustive():
    for n in range(1, 5):
        for g in all_graphs_up_to_iso(n):
            table = build_table(g, 3)
            got = {key: e.value for key, e in table.entries.items()}
            assert got == brute_final_values(g, 3), sorted(g.edges())


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 9), st.integers(0, 10**6), st.booleans())
def test_final_values_match_brute_force_random(n, seed, weighted):
    base = random_connected_graph(n, 0.4, seed=seed)
    if weighted:
        rng = random.Random(seed + 1)
        weights = {v: rng.randint(1, 3) for v in base.vertices}
        g = Graph(n, base.edges(), vertex_weights=weights)
    else:
        g = base
    table = build_table(g, 3)
    got = {key: e.value for key, e in table.entries.items()}
    assert got == brute_final_values(g, 3)


def test_bounded_table_is_the_unbounded_one_restricted():
    """value_max / ell_max drop entries while the table is filled, yet the
    root map equals the unbounded one filtered to the bounds, witnesses
    included (both weights only grow towards the root)."""
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 9)
        base = random_graph(n, rng.uniform(0.15, 0.6), seed=rng.randrange(10**6))
        weights = {v: rng.randint(1, 3) for v in base.vertices}
        g = Graph(n, base.edges(), vertex_weights=weights)
        ntd = make_nice(exact_treewidth_small(g)[1])
        total = g.total_vertex_weight
        for c in (1, 2, 3):
            full = sep_dp(g, ntd, c).entries
            value_max = rng.randint(0, total)
            ell_max = rng.randint(0, total)
            got = sep_dp(g, ntd, c, value_max=value_max, ell_max=ell_max).entries
            assert got == {
                (cc, ell): e
                for (cc, ell), e in full.items()
                if e.value <= value_max and ell <= ell_max
            }, (sorted(g.edges()), weights, c, value_max, ell_max)
    with pytest.raises(ValueError):
        sep_dp(g, ntd, 2, value_max=-1)


# ------------------------------------------------- min_weight_separator


def test_min_weight_separator_path():
    sep = min_weight_separator(path_graph(5), 2, 2)
    assert sep == Separation(frozenset({3}), frozenset({1, 2}), frozenset({4, 5}))


def test_min_weight_separator_weighted_path():
    g = Graph(3, [(1, 2), (2, 3)], vertex_weights={1: 3, 2: 1, 3: 3})
    sep = min_weight_separator(g, 2, 3)
    assert sep.s == frozenset({2})
    assert g.weight_of(sep.s) == 1
    assert g.weight_of(sep.a) == 3


def test_min_weight_separator_cycle():
    sep = min_weight_separator(cycle_graph(6), 2, 2)
    assert len(sep.s) == 2
    u, v = sorted(sep.s)
    assert v - u == 3  # antipodal
    assert sep.s == frozenset({1, 4})  # deterministic tie-break


def test_min_weight_separator_infeasible():
    # c=2 forces S={2}, leaving two single-vertex components: lambda(A)=3
    # is out of reach
    assert min_weight_separator(path_graph(3), 2, 3) is None


def test_min_weight_separator_past_the_exact_treewidth_limit():
    sep = min_weight_separator(path_graph(40), 2, 20)
    assert sep.s == frozenset({20}) and len(sep.a) == 20
    assert sep.is_valid(path_graph(40))


def test_min_weight_separator_argument_checks():
    g = path_graph(3)
    with pytest.raises(ValueError):
        min_weight_separator(g, 0, 1)
    with pytest.raises(ValueError):
        min_weight_separator(g, 2, 0)
    with pytest.raises(ValueError):
        min_weight_separator(g, 2, 4)


def test_min_weight_separator_single_component():
    # documented extension below the usual c >= 2: one component, A all of it
    sep = min_weight_separator(path_graph(3), 1, 2)
    assert sep is not None
    assert count_components_after_removal(path_graph(3), sep.s) == 1
    assert len(sep.a) == 2


# ------------------------------------------------------- _drive_balance


def test_rebalance_already_balanced_path5():
    g = path_graph(5)
    sep = Separation(frozenset({3}), frozenset({1, 2}), frozenset({4, 5}))
    assert _drive_balance(g, sep) == sep


def test_rebalance_already_balanced_path7():
    g = path_graph(7)
    sep = Separation(frozenset({4}), frozenset({1, 2, 3}), frozenset({5, 6, 7}))
    assert _drive_balance(g, sep) == sep


def test_rebalance_moves_bfs_leaf_into_s():
    g = path_graph(7)
    sep = Separation(frozenset({3}), frozenset({1, 2}), frozenset({4, 5, 6, 7}))
    out = _drive_balance(g, sep)
    assert out == Separation(frozenset({3, 7}), frozenset({1, 2}), frozenset({4, 5, 6}))
    assert count_components_after_removal(g, out.s) == count_components_after_removal(
        g, sep.s
    )


def test_rebalance_singleton_hops_across():
    g = star_graph(3)  # center 1, leaves 2..4
    sep = Separation(frozenset({1}), frozenset({2, 3, 4}), frozenset())
    out = _drive_balance(g, sep)
    assert out == Separation(frozenset({1}), frozenset({3, 4}), frozenset({2}))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 10**6))
def test_rebalance_keeps_component_count(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, 0.35, seed=seed)
    s = frozenset(rng.sample(range(1, n + 1), rng.randint(0, 2)))
    comps = connected_components(g, within=(v for v in g.vertices if v not in s))
    a, b = set(), set()
    for comp in comps:  # random sides, often far from balanced
        (a if rng.random() < 0.7 else b).update(comp)
    sep = Separation(s, a, b)
    out = _drive_balance(g, sep)
    assert out.is_valid(g)
    assert out.s >= sep.s
    assert abs(len(out.a) - len(out.b)) <= 1
    assert count_components_after_removal(g, out.s) == len(comps)


# ----------------------------------------------- solve_vertex_bisection


def test_bisection_cycle_antipodal():
    sol = solve_vertex_bisection(cycle_graph(6), 2, 2)
    assert sol.s == frozenset({1, 4})
    assert abs(len(sol.a) - len(sol.b)) <= 1


def test_bisection_path_middle():
    sol = solve_vertex_bisection(path_graph(5), 1, 2)
    assert sol == Separation(frozenset({3}), frozenset({1, 2}), frozenset({4, 5}))


def test_bisection_cycle_needs_two():
    assert solve_vertex_bisection(cycle_graph(6), 1, 2) is None


def test_bisection_argument_checks():
    g = path_graph(4)
    with pytest.raises(ValueError):
        solve_vertex_bisection(g, -1, 2)
    with pytest.raises(ValueError):
        solve_vertex_bisection(g, 2, 1)
    weighted = Graph(3, [(1, 2)], vertex_weights={1: 2, 2: 1, 3: 1})
    with pytest.raises(ValueError):
        solve_vertex_bisection(weighted, 1, 2)


def test_bisection_beyond_the_exact_treewidth_limit():
    """Past n = 15 the driver still answers exactly: a path splits at one
    middle vertex, and the 4x4 grid needs a diagonal of 4."""
    for g, value in [(path_graph(16), 1), (path_graph(40), 1), (grid_graph(4, 4), 4)]:
        sol = solve_vertex_bisection(g, value, 2)
        assert len(sol.s) == value
        assert sol.is_valid(g) and abs(len(sol.a) - len(sol.b)) <= 1
        assert count_components_after_removal(g, sol.s) == 2
        assert solve_vertex_bisection(g, value - 1, 2) is None


def test_bisection_on_the_5x5_grid():
    # about 1 s on a 2-core x86 sandbox (Python 3.11), one table on the grid
    g = grid_graph(5, 5)
    sol = solve_vertex_bisection(g, 5, 2)
    assert sol is not None and len(sol.s) <= 5
    assert sol.is_valid(g) and abs(len(sol.a) - len(sol.b)) <= 1
    assert count_components_after_removal(g, sol.s) == 2


def test_bisection_deterministic():
    g = random_connected_graph(7, 0.3, seed=42)
    first = solve_vertex_bisection(g, 3, 2)
    assert first == solve_vertex_bisection(g, 3, 2)


@pytest.mark.parametrize(
    "g, k, c",
    [
        (cycle_graph(12), 2, 2),
        (cycle_graph(9), 3, 3),
        (cycle_graph(8), 1, 2),
        (random_connected_graph(9, 0.35, seed=18732), 1, 2),
    ],
    ids=["cycle12-2-2", "cycle9-3-3", "cycle8-1-2", "gnp9-1-2"],
)
def test_one_table_on_the_graph_itself(monkeypatch, g, k, c):
    """The driver fills a single separator table, on G itself, and its
    witness is the oracle's.  The seeded graph is wider than each of its
    36 trimmed graphs; one table on it is still exact."""
    calls = []
    real = vbp.sep_dp

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(vbp, "sep_dp", counting)
    got = solve_vertex_bisection(g, k, c)
    assert calls == [g]
    assert got == brute_vertex_bisection(g, k, c=c).witness


def _assert_agrees_with_oracle(g, k, c):
    got = solve_vertex_bisection(g, k, c)
    want = brute_vertex_bisection(g, k, c=c)
    assert (got is None) == (want.optimum is None), (sorted(g.edges()), k, c)
    if got is not None:
        assert got.is_valid(g)
        assert len(got.s) <= k
        assert abs(len(got.a) - len(got.b)) <= 1
        assert count_components_after_removal(g, got.s) == c


def test_oracle_agreement_exhaustive_small():
    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            for k in range(0, 4):
                for c in (2, 3):
                    _assert_agrees_with_oracle(g, k, c)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(6, 8),
    st.integers(0, 10**6),
    st.integers(0, 3),
    st.sampled_from((2, 3)),
)
def test_oracle_agreement_random(n, seed, k, c):
    _assert_agrees_with_oracle(random_connected_graph(n, 0.35, seed=seed), k, c)


def test_budget_monotonicity():
    cases = [g for g in all_graphs_up_to_iso(4)] + [
        cycle_graph(6),
        path_graph(6),
        star_graph(6),
    ]
    for g in cases:
        for c in (2, 3):
            feasible_at = [
                k for k in range(0, 4) if solve_vertex_bisection(g, k, c) is not None
            ]
            if feasible_at:
                assert feasible_at == list(range(feasible_at[0], 4))


def test_budget_monotonicity_past_the_oracle():
    """On seeded sparse G(n, p) with n = 12..30: once some k is feasible
    every larger k is, and the separator found never grows with k; as each
    k is answered exactly, it is the smallest feasible k every time."""
    rng = random.Random(20261019)
    feasible_graphs = 0
    for _ in range(24):
        n = rng.randint(12, 30)
        g = random_connected_graph(n, rng.uniform(0.0, 1.0 / n), seed=rng.randrange(10**6))
        c = rng.choice((2, 2, 3))
        sizes = []
        for k in range(8):
            sol = solve_vertex_bisection(g, k, c)
            sizes.append(None if sol is None else len(sol.s))
        feasible = [k for k, size in enumerate(sizes) if size is not None]
        if feasible:
            feasible_graphs += 1
            first = feasible[0]
            assert feasible == list(range(first, 8)), (sorted(g.edges()), c, sizes)
            assert sizes[first:] == [first] * len(feasible), (sorted(g.edges()), c, sizes)
    assert feasible_graphs >= 18
