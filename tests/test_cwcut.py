"""Expression-DP bisection: tables, deletion splits, driver vs oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.cwcut import CutTable, DeletionSplit, _fill, cut_dp, solve_bisection_cwd
from balcut.graph import Bipartition, Graph, complete_graph, cut_size, cycle_graph, path_graph
from balcut.oracle import brute_bisection
from balcut.qexpr import (
    Create,
    Join,
    Rename,
    Union,
    eval_qexpr,
    family_qexpr,
    forest_qexpr,
    greedy_deletion_set,
    normalize_qexpr,
    postorder,
)

from .conftest import (
    minimum_feedback_vertex_set,
    random_connected_graph,
    random_graph,
    random_tree,
)


def no_deletions(g):
    return DeletionSplit.from_sides(g, (), ())


def forest_plus_edges(rng, n, extra):
    """A random forest on n vertices (a tree with some edges dropped) plus
    up to ``extra`` further random edges."""
    edges = {e for e in random_tree(n, rng.randrange(10**6)).edges() if rng.random() > 0.15}
    for _ in range(extra if n > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return Graph(n, sorted(edges))


def forest_deletion_set(rng, g, explicit):
    """The greedy deletion set, or (explicit) that set plus random further
    vertices, keeping at least one vertex outside."""
    d = set(greedy_deletion_set(g))
    if explicit:
        rest = [v for v in g.vertices if v not in d]
        d |= set(rng.sample(rest, rng.randint(0, min(4, len(rest) - 1))))
    return frozenset(d)


# --------------------------------------------------------- DeletionSplit


def test_deletion_split_validation():
    with pytest.raises(ValueError):
        DeletionSplit(frozenset({1, 2}), frozenset({1}), frozenset({1, 2}), 0)
    with pytest.raises(ValueError):
        DeletionSplit(frozenset({1, 2}), frozenset({1}), frozenset(), 0)
    with pytest.raises(ValueError):
        DeletionSplit(frozenset({1}), frozenset({1}), frozenset(), -1)


def test_deletion_split_counts_internal_edges():
    k4 = complete_graph(4)
    split = DeletionSplit.from_sides(k4, {1, 2}, {3, 4})
    assert split.internal_cut == 4
    assert DeletionSplit.from_sides(k4, {1, 2, 3, 4}, ()).internal_cut == 0


# --------------------------------------------------------------- cut_dp


def test_k3_root_values():
    k3 = complete_graph(3)
    phi = family_qexpr("clique", 3)
    table = cut_dp(k3, frozenset(), no_deletions(k3), phi)
    assert table.label_counts == (2, 1)
    assert table.value((2, 1), (0, 0)) == 0
    assert table.value((1, 0), (1, 1)) == 2
    assert table.value((2, 0), (0, 1)) == 2
    assert table.value((0, 0), (2, 1)) == 0
    assert table.a_vertices((2, 1), (0, 0)) == frozenset({1, 2, 3})


def test_root_vector_validation():
    k3 = complete_graph(3)
    table = cut_dp(k3, frozenset(), no_deletions(k3), family_qexpr("clique", 3))
    with pytest.raises(ValueError):
        table.value((2, 1, 0), (0, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        table.value((3, 1), (0, 0))  # does not sum to the label counts
    with pytest.raises(ValueError):
        table.value((2, -1), (0, 2))


def test_cut_dp_rejects_non_full_join():
    g = Graph(2, [(1, 2)])
    doubled = Join(1, 2, Join(1, 2, Union(Create(1), Create(2))))
    with pytest.raises(ValueError, match="normalize"):
        cut_dp(g, frozenset(), no_deletions(g), doubled)
    fixed = normalize_qexpr(doubled)
    table = cut_dp(g, frozenset(), no_deletions(g), fixed)
    assert table.value((1, 0), (0, 1)) == 1


def test_cut_dp_rejects_wrong_graph():
    phi = family_qexpr("path", 3)
    with pytest.raises(ValueError):
        cut_dp(path_graph(4), frozenset(), no_deletions(path_graph(4)), phi)
    # names hit the right vertices but the edges disagree
    bent = Graph(3, [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="edges"):
        cut_dp(bent, frozenset(), no_deletions(bent), phi)


def test_cut_dp_split_must_match_deletion_set():
    g = path_graph(3)
    split = DeletionSplit.from_sides(g, {1}, ())
    with pytest.raises(ValueError):
        cut_dp(g, frozenset(), split, family_qexpr("path", 3))


def test_unnamed_leaves_use_isomorphism_search():
    # a nameless path expression against a differently-numbered path
    phi = Join(2, 3, Union(Join(1, 2, Union(Create(1), Create(2))), Create(3)))
    g = Graph(3, [(1, 3), (3, 2)])  # path 1-3-2
    table = cut_dp(g, frozenset(), no_deletions(g), phi)
    counts = table.label_counts
    zero = tuple(0 for _ in counts)
    assert sum(counts) == 3
    assert table.value(counts, zero) == 0
    assert table.value((1, 0, 0), (0, 1, 1)) == 1  # an end vertex alone
    # and an impossible target graph is rejected
    with pytest.raises(ValueError, match="does not evaluate"):
        cut_dp(complete_graph(3), frozenset(), no_deletions(complete_graph(3)), phi)


def test_explicit_correspondence_checked():
    phi = family_qexpr("path", 3)
    g = path_graph(3)
    ok = cut_dp(g, frozenset(), no_deletions(g), phi, correspondence={1: 3, 2: 2, 3: 1})
    assert ok.value((2, 1, 0), (0, 0, 0)) == 0
    with pytest.raises(ValueError):
        cut_dp(g, frozenset(), no_deletions(g), phi, correspondence={1: 1, 2: 3, 3: 2})
    with pytest.raises(ValueError):
        cut_dp(g, frozenset(), no_deletions(g), phi, correspondence={1: 1, 2: 1, 3: 3})


def test_deleted_edges_charged_at_leaves():
    # star center deleted: every leaf pays for its center edge when placed
    # opposite the center
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    phi = Union(Union(Create(1, name=2), Create(1, name=3)), Create(1, name=4))
    split = DeletionSplit.from_sides(g, {1}, ())  # center on side A
    table = cut_dp(g, frozenset({1}), split, phi)
    assert table.value((3,), (0,)) == 0  # all leaves join the center
    assert table.value((0,), (3,)) == 3  # all leaves across: three cut edges
    assert table.value((1,), (2,)) == 2


def test_table_symmetry_under_side_swap():
    g = random_connected_graph(7, 0.4, seed=13)
    fvs = minimum_feedback_vertex_set(g)
    pad = [v for v in g.vertices if v not in fvs]
    d = frozenset(fvs | set(pad[: max(0, 2 - len(fvs))]))  # at least two deletions
    phi = forest_qexpr(g, d)
    ds = sorted(d)
    s1, s2 = {ds[0]}, set(ds[1:])
    fwd = cut_dp(g, d, DeletionSplit.from_sides(g, s1, s2), phi)
    rev = cut_dp(g, d, DeletionSplit.from_sides(g, s2, s1), phi)
    counts, entries = fwd.tables[()]
    for a_vec, entry in entries.items():
        b_vec = tuple(n - x for n, x in zip(counts, a_vec))
        assert entry.value == rev.value(b_vec, a_vec)


def test_root_marginal_and_join_monotonicity():
    g = random_connected_graph(8, 0.35, seed=3)
    d = minimum_feedback_vertex_set(g)
    phi = forest_qexpr(g, d)
    split = DeletionSplit.from_sides(g, sorted(d)[: len(d) // 2], sorted(d)[len(d) // 2 :])
    table = cut_dp(g, d, split, phi)
    counts, entries = table.tables[()]
    assert sum(counts) == g.n - len(d)
    # the table is complete: one entry per admissible vector
    expected = 1
    for c in counts:
        expected *= c + 1
    assert len(entries) == expected
    assert all(0 <= x <= c for a in entries for x, c in zip(a, counts))

    # a join only adds crossing edges: against the graph each side evaluates
    # to, the table of a Join is pointwise at least its child's
    joins = [node for node in postorder(phi) if isinstance(node, Join)]
    assert joins
    for node in joins:
        tables = []
        for sub in (node, node.child):
            h = eval_qexpr(sub).graph
            identity = {v: v for v in h.vertices}
            tables.append(cut_dp(h, (), no_deletions(h), sub, identity).tables[()])
        (counts, parent), (child_counts, child) = tables
        assert counts == child_counts and parent.keys() == child.keys()
        for a_vec, entry in parent.items():
            assert entry.value >= child[a_vec].value


def test_bounded_table_is_the_unbounded_one_restricted():
    """lo / hi / value_max drop entries while the table is filled, yet the
    root map equals the unbounded one filtered to the A-side window and the
    value bound, witnesses included (A counts and values only grow towards
    the root)."""
    rng = random.Random(20261018)
    for _ in range(300):
        g = forest_plus_edges(rng, rng.randint(1, 14), rng.randint(0, 4))
        d = forest_deletion_set(rng, g, rng.random() < 0.5)
        a0 = {v for v in d if rng.random() < 0.5}
        split = DeletionSplit.from_sides(g, a0, d - a0)
        full = cut_dp(g, d, split, forest_qexpr(g, d))
        counts, entries = full.tables[()]
        total = sum(counts)
        lo = rng.randint(-1, total + 1)
        hi = lo + rng.choice([0, 0, 1, rng.randint(0, total)])
        value_max = rng.choice([None, rng.randint(0, g.m)])
        bound = g.m if value_max is None else value_max
        got = _fill(g, split, full.phi, full.q, full.correspondence, lo, hi, value_max)
        assert got == (
            counts,
            {a: e for a, e in entries.items() if lo <= sum(a) <= hi and e.value <= bound},
        ), (sorted(g.edges()), sorted(a0), sorted(d - a0), lo, hi, value_max)


# --------------------------------------------------- solve_bisection_cwd


def test_edge_weights_rejected_at_entry():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)], edge_weights={(2, 3): 5})
    with pytest.raises(ValueError, match="edge weight"):
        solve_bisection_cwd(g, set(), family_qexpr("path", 4))
    with pytest.raises(ValueError, match="edge weight"):
        cut_dp(g, frozenset(), no_deletions(g), family_qexpr("path", 4))


def test_cycle_with_deleted_vertex():
    bip, cut = solve_bisection_cwd(cycle_graph(5), {5}, family_qexpr("path", 4))
    assert cut == 2
    assert cut_size(cycle_graph(5), bip) == 2


def test_k4_almost_all_deleted():
    bip, cut = solve_bisection_cwd(complete_graph(4), {2, 3, 4}, Create(1))
    assert cut == 4
    assert {len(bip.a), len(bip.b)} == {2}


def test_two_triangles_split_cleanly():
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    phi = Union(family_qexpr("clique", 3), family_qexpr("clique", 3))
    bip, cut = solve_bisection_cwd(g, set(), phi)
    assert cut == 0
    assert bip.a in (frozenset({1, 2, 3}), frozenset({4, 5, 6}))


def test_path_tie_breaks_to_lexicographic_a():
    bip, cut = solve_bisection_cwd(path_graph(4), set(), family_qexpr("path", 4))
    assert cut == 1
    assert bip.a == frozenset({1, 2})


def test_single_vertex_graph():
    bip, cut = solve_bisection_cwd(Graph(1), set(), Create(1))
    assert cut == 0
    assert bip.is_valid(Graph(1))


def test_driver_normalizes_internally():
    g = Graph(2, [(1, 2)])
    doubled = Join(1, 2, Join(1, 2, Union(Create(1, name=1), Create(2, name=2))))
    bip, cut = solve_bisection_cwd(g, set(), doubled)
    assert cut == 1


def test_driver_deterministic():
    g = random_connected_graph(7, 0.45, seed=99)
    d = minimum_feedback_vertex_set(g)
    phi = forest_qexpr(g, d)
    assert solve_bisection_cwd(g, d, phi) == solve_bisection_cwd(g, d, phi)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_trees_match_oracle(n, seed):
    t = random_tree(n, seed)
    bip, cut = solve_bisection_cwd(t, set(), family_qexpr("tree", t))
    assert cut == brute_bisection(t).optimum
    assert cut_size(t, bip) == cut


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.booleans())
def test_random_graphs_with_deletions_match_oracle(n, seed, connected):
    g = (random_connected_graph if connected else random_graph)(n, 0.45, seed=seed)
    d = minimum_feedback_vertex_set(g)
    phi = forest_qexpr(g, d)
    bip, cut = solve_bisection_cwd(g, d, phi)
    assert cut == brute_bisection(g).optimum
    assert cut_size(g, bip) == cut
    cap = -(-g.n // 2)
    assert len(bip.a) <= cap and len(bip.b) <= cap


def reference_bisection(g, d_set, phi):
    """Every split of the deletion set, the unbounded table, and the
    admissible entry of least (cut, sorted A)."""
    n = g.n
    totals = {n // 2, (n + 1) // 2}
    ds = sorted(d_set)
    best = None
    for bits in range(1 << len(ds)):
        a0 = frozenset(v for i, v in enumerate(ds) if bits >> i & 1)
        split = DeletionSplit.from_sides(g, a0, d_set - a0)
        table = cut_dp(g, d_set, split, normalize_qexpr(phi))
        counts, entries = table.tables[()]
        for a_vec, entry in entries.items():
            if len(a0) + sum(a_vec) in totals:
                b_vec = tuple(c - x for c, x in zip(counts, a_vec))
                a = a0 | table.a_vertices(a_vec, b_vec)
                rank = (split.internal_cut + entry.value, tuple(sorted(a)))
                best = rank if best is None else min(best, rank)
    cut, a = best
    return Bipartition(a, frozenset(g.vertices) - frozenset(a)), cut


def family_plus_deletions(rng, kind, m, extra):
    """A clique or path on 1..m, its named expression, and ``extra`` further
    vertices, each joined to random earlier ones, as the deletion set."""
    base = complete_graph(m) if kind == "clique" else path_graph(m)
    n = m + extra
    edges = set(base.edges())
    for v in range(m + 1, n + 1):
        edges |= {(u, v) for u in range(1, v) if rng.random() < 0.4}
    return Graph(n, sorted(edges)), frozenset(range(m + 1, n + 1)), family_qexpr(kind, m)


def test_driver_matches_every_split_reference():
    """The window, the cross-split bound and the skipped splits leave every
    witness as the exhaustive search over unbounded tables finds it: n = 1,
    odd n, deletion sets larger than n/2, clique and path expressions,
    greedy and explicit deletion sets."""
    rng = random.Random(7)
    seen_big_d = seen_odd = 0
    for i in range(300):
        kind = i % 4
        if kind < 2:
            g = forest_plus_edges(rng, rng.randint(1, 12), rng.randint(0, 4))
            d = forest_deletion_set(rng, g, explicit=kind == 1)
            phi = forest_qexpr(g, d)
        else:
            family = "clique" if kind == 2 else "path"
            g, d, phi = family_plus_deletions(rng, family, rng.randint(1, 6), rng.randint(0, 6))
        seen_big_d += 2 * len(d) > g.n
        seen_odd += g.n % 2
        assert solve_bisection_cwd(g, d, phi) == reference_bisection(g, d, phi), (
            sorted(g.edges()), g.n, sorted(d),
        )
    assert seen_big_d >= 20 and seen_odd >= 50
    single = Graph(1)
    assert solve_bisection_cwd(single, set(), Create(1, name=1)) == reference_bisection(
        single, frozenset(), Create(1, name=1)
    )
