"""Expression-DP bisection: root tables, deletion splits, driver vs oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut import cli, qexpr
from balcut.cwcut import _fill, _match_expression, cut_dp, solve_bisection_cwd
from balcut.graph import (
    Bipartition,
    Graph,
    complete_graph,
    connected_components,
    cut_size,
    cycle_graph,
    mask_members,
    path_graph,
)
from balcut.formats import emit_graph
from balcut.oracle import brute_bisection
from balcut.qexpr import (
    Create,
    Join,
    Rename,
    Union,
    clique_qexpr,
    eval_qexpr,
    forest_qexpr,
    greedy_deletion_set,
    joins_are_full,
    normalize_qexpr,
    postorder,
)

from .conftest import (
    minimum_feedback_vertex_set,
    random_connected_graph,
    random_graph,
    random_tree,
)


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


# --------------------------------------------------------------- cut_dp


def test_deletion_split_validation():
    g = path_graph(3)
    phi = Create(1, name=3)
    with pytest.raises(ValueError, match="overlap"):
        cut_dp(g, {1, 2}, {2}, phi)
    with pytest.raises(ValueError, match="unknown"):
        cut_dp(g, {1, 2}, {4}, phi)


def test_cut_dp_leaves_edges_inside_deletion_set_uncharged():
    # the four crossing K4 edges between {1, 2} and {3, 4} are the driver's
    # to add; vertex 5 only pays for its two edges into the opposite side
    k5 = complete_graph(5)
    counts, table = cut_dp(k5, {1, 2}, {3, 4}, Create(1, name=5))
    assert counts == (1,)
    assert table == {(1,): (2, frozenset({5})), (0,): (2, frozenset())}


def test_k3_root_values():
    k3 = complete_graph(3)
    counts, table = cut_dp(k3, (), (), clique_qexpr(3))
    assert counts == (2, 1)
    assert table[(2, 1)] == (0, frozenset({1, 2, 3}))
    assert table[(1, 0)][0] == 2
    assert table[(2, 0)][0] == 2
    assert table[(0, 0)] == (0, frozenset())


def test_cut_dp_rejects_non_full_join():
    g = Graph(2, [(1, 2)])
    doubled = Join(1, 2, Join(1, 2, Union(Create(1), Create(2))))
    with pytest.raises(ValueError, match="normalize"):
        cut_dp(g, (), (), doubled)
    _, table = cut_dp(g, (), (), normalize_qexpr(doubled))
    assert table[(1, 0)][0] == 1


def test_cut_dp_rejects_wrong_graph():
    phi = forest_qexpr(path_graph(3))
    with pytest.raises(ValueError):
        cut_dp(path_graph(4), (), (), phi)
    # names hit the right vertices but the edges disagree
    bent = Graph(3, [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="edges"):
        cut_dp(bent, (), (), phi)


def test_cut_dp_split_must_match_deletion_set():
    # the expression covers all of the path, so no vertex may be deleted
    with pytest.raises(ValueError, match="minus the deletion set"):
        cut_dp(path_graph(3), {1}, (), forest_qexpr(path_graph(3)))


def test_unnamed_leaves_use_isomorphism_search():
    # a nameless path expression against a differently-numbered path
    phi = Join(2, 3, Union(Join(1, 2, Union(Create(1), Create(2))), Create(3)))
    g = Graph(3, [(1, 3), (3, 2)])  # path 1-3-2
    counts, table = cut_dp(g, (), (), phi)
    assert sum(counts) == 3
    assert table[counts] == (0, frozenset({1, 2, 3}))
    assert table[(1, 0, 0)][0] == 1  # an end vertex alone
    # and an impossible target graph is rejected
    with pytest.raises(ValueError, match="does not evaluate"):
        cut_dp(complete_graph(3), (), (), phi)


def test_deleted_edges_charged_at_leaves():
    # star center deleted: every leaf pays for its center edge when placed
    # opposite the center
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    phi = Union(Union(Create(1, name=2), Create(1, name=3)), Create(1, name=4))
    _, table = cut_dp(g, {1}, (), phi)  # center on side A
    assert table[(3,)] == (0, frozenset({2, 3, 4}))  # all leaves join the center
    assert table[(0,)] == (3, frozenset())  # all leaves across: three cut edges
    assert table[(1,)] == (2, frozenset({2}))


def test_table_symmetry_under_side_swap():
    g = random_connected_graph(7, 0.4, seed=13)
    fvs = minimum_feedback_vertex_set(g)
    pad = [v for v in g.vertices if v not in fvs]
    d = frozenset(fvs | set(pad[: max(0, 2 - len(fvs))]))  # at least two deletions
    phi = forest_qexpr(g, d)
    ds = sorted(d)
    s1, s2 = {ds[0]}, set(ds[1:])
    counts, fwd = cut_dp(g, s1, s2, phi)
    _, rev = cut_dp(g, s2, s1, phi)
    for a_vec, (value, _) in fwd.items():
        b_vec = tuple(n - x for n, x in zip(counts, a_vec))
        assert value == rev[b_vec][0]


def test_root_marginal_and_join_monotonicity():
    g = random_connected_graph(8, 0.35, seed=3)
    d = minimum_feedback_vertex_set(g)
    phi = forest_qexpr(g, d)
    ds = sorted(d)
    counts, entries = cut_dp(g, ds[: len(d) // 2], ds[len(d) // 2 :], phi)
    assert sum(counts) == g.n - len(d)
    # the table is complete: one entry per admissible vector
    expected = 1
    for c in counts:
        expected *= c + 1
    assert len(entries) == expected
    assert all(0 <= x <= c for a in entries for x, c in zip(a, counts))

    # a join only adds crossing edges: against the graph each side evaluates
    # to (on g's vertex ids, with the isolated rest deleted), the table of a
    # Join is pointwise at least its child's
    def own_table(sub):
        lg = eval_qexpr(sub)
        h = Graph(g.n, [(lg.names[u], lg.names[v]) for u, v in lg.graph.edges()])
        return cut_dp(h, (), frozenset(h.vertices) - set(lg.names.values()), sub)

    joins = [node for node in postorder(phi) if isinstance(node, Join)]
    assert joins
    for node in joins:
        (counts, parent), (child_counts, child) = own_table(node), own_table(node.child)
        assert counts == child_counts and parent.keys() == child.keys()
        for a_vec, (value, _) in parent.items():
            assert value >= child[a_vec][0]


def test_bounded_table_is_the_unbounded_one_restricted():
    """lo / hi / value_max drop entries while the table is filled, yet the
    root map equals the unbounded one filtered to the A-side window and the
    value bound, witnesses included (A counts and values only grow towards
    the root)."""
    rng = random.Random(20261018)
    for _ in range(300):
        g = forest_plus_edges(rng, rng.randint(1, 14), rng.randint(0, 4))
        d = forest_deletion_set(rng, g, rng.random() < 0.5)
        a0 = frozenset(v for v in d if rng.random() < 0.5)
        phi = forest_qexpr(g, d)
        counts, entries = cut_dp(g, a0, d - a0, phi)
        total = sum(counts)
        lo = rng.randint(-1, total + 1)
        hi = lo + rng.choice([0, 0, 1, rng.randint(0, total)])
        value_max = rng.choice([None, rng.randint(0, g.m)])
        bound = g.m if value_max is None else value_max
        corr = _match_expression(g, d, eval_qexpr(phi))
        labels = range(1, phi.q + 1)
        got_counts, got = _fill(g, a0, d - a0, postorder(phi), labels, corr, lo, hi, value_max)
        assert (got_counts, {
            a: (value, frozenset(mask_members(mask))) for a, (value, mask) in got.items()
        }) == (
            counts,
            {a: e for a, e in entries.items() if lo <= sum(a) <= hi and e[0] <= bound},
        ), (sorted(g.edges()), sorted(a0), sorted(d - a0), lo, hi, value_max)


# --------------------------------------------------- solve_bisection_cwd


def test_edge_weights_rejected_at_entry():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)], edge_weights={(2, 3): 5})
    with pytest.raises(ValueError, match="edge weight"):
        solve_bisection_cwd(g, set(), forest_qexpr(path_graph(4)))
    with pytest.raises(ValueError, match="edge weight"):
        cut_dp(g, (), (), forest_qexpr(path_graph(4)))


def test_cycle_with_deleted_vertex():
    bip, cut = solve_bisection_cwd(cycle_graph(5), {5}, forest_qexpr(path_graph(4)))
    assert cut == 2
    assert cut_size(cycle_graph(5), bip) == 2


def test_k4_almost_all_deleted():
    bip, cut = solve_bisection_cwd(complete_graph(4), {2, 3, 4}, Create(1))
    assert cut == 4
    assert {len(bip.a), len(bip.b)} == {2}


def test_two_triangles_split_cleanly():
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    phi = Union(clique_qexpr(3), clique_qexpr(3))
    bip, cut = solve_bisection_cwd(g, set(), phi)
    assert cut == 0
    assert bip.a in (frozenset({1, 2, 3}), frozenset({4, 5, 6}))


def test_path_tie_breaks_to_lexicographic_a():
    bip, cut = solve_bisection_cwd(path_graph(4), set(), forest_qexpr(path_graph(4)))
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
    bip, cut = solve_bisection_cwd(t, set(), forest_qexpr(t))
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
        internal = sum(1 for u, v in g.edges() if {u, v} <= d_set and (u in a0) != (v in a0))
        _, entries = cut_dp(g, a0, d_set - a0, normalize_qexpr(phi))
        for a_vec, (value, a_rest) in entries.items():
            if len(a0) + sum(a_vec) in totals:
                rank = (internal + value, tuple(sorted(a0 | a_rest)))
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
    phi = clique_qexpr(m) if kind == "clique" else forest_qexpr(base)
    return Graph(n, sorted(edges)), frozenset(range(m + 1, n + 1)), phi


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


def brute_least_bisection(g):
    """The least (cut, sorted A) over every A of n // 2 or (n + 1) // 2
    vertices, by exhaustive search over adjacency bitmasks."""
    adj = {v: sum(1 << u for u in g.neighbors(v)) for v in g.vertices}
    best = None
    for size in {g.n // 2, (g.n + 1) // 2}:
        for a in itertools.combinations(sorted(g.vertices), size):
            mask = sum(1 << v for v in a)
            rank = (sum((adj[v] & ~mask).bit_count() for v in a), a)
            best = rank if best is None else min(best, rank)
    return best


def test_star_ties_break_to_the_least_a():
    # the leaves 1, 2 on side A cut two edges, like the side {1, 3}
    g = Graph(4, [(1, 3), (2, 3), (3, 4)])
    d = greedy_deletion_set(g)
    bip, cut = solve_bisection_cwd(g, d, forest_qexpr(g, d))
    assert (cut, bip.a) == (2, frozenset({1, 2}))


def test_driver_answers_the_least_cut_and_sorted_a():
    """Ties between witnesses of one table key break by G's vertex ids, so
    the answer is the least (cut, sorted A) over every bisection, whatever
    the expression's leaf order; greedy and explicit deletion sets."""
    rng = random.Random(20)
    for i in range(300):
        n = rng.randint(1, 13)
        if i % 3:
            g = forest_plus_edges(rng, n, rng.randint(0, 4))
        else:
            g = random_graph(n, rng.choice((0.2, 0.35)), seed=rng.randrange(10**6))
        d = forest_deletion_set(rng, g, explicit=i % 2 == 1)
        bip, cut = solve_bisection_cwd(g, d, forest_qexpr(g, d))
        assert (cut, tuple(sorted(bip.a))) == brute_least_bisection(g), (
            sorted(g.edges()), g.n, sorted(d),
        )


def test_bisect_bytes_do_not_depend_on_the_deletion_set(tmp_path, capsys):
    """`balcut bisect` prints the same file for the greedy deletion set and
    for that set plus further vertices."""
    rng = random.Random(21)
    path = tmp_path / "g.gr"
    for _ in range(60):
        g = forest_plus_edges(rng, rng.randint(2, 13), rng.randint(0, 4))
        path.write_text(emit_graph(g))
        assert cli.main(["bisect", "--graph", str(path)]) == 0
        want = capsys.readouterr().out
        d = forest_deletion_set(rng, g, explicit=True)
        argv = ["bisect", "--graph", str(path), "--deletion", ",".join(map(str, sorted(d)))]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want, (sorted(g.edges()), sorted(d))


def four_operator_forest_qexpr(g, d_set):
    """The forest expression as it was built before root labels alternated
    by depth: every subtree root on label 2, moved to label 3 by a Rename of
    its own before each join, four operators per tree edge."""
    keep = frozenset(g.vertices) - frozenset(d_set)
    expr = None
    for comp in connected_components(g, within=keep):
        root = min(comp)
        kids, order, seen = {}, [root], {root}
        for v in order:
            kids[v] = [c for c in sorted(g.neighbors(v) & comp) if c not in seen]
            seen.update(kids[v])
            order.extend(kids[v])
        built = {}
        for v in reversed(order):
            e = Create(2, name=v)
            for c in kids[v]:
                e = Rename(3, 1, Join(2, 3, Union(e, Rename(2, 3, built.pop(c)))))
            built[v] = e
        expr = built[root] if expr is None else Union(expr, built[root])
    return expr


def tree_with_disjoint_cycles(rng, n, cycles):
    """A random tree on n vertices plus ``cycles`` edges, each closing a
    cycle of at least three vertices that shares none with the others; a
    tree with no room for them is drawn again."""
    while True:
        tree = random_tree(n, rng.randrange(10**6))
        parent, depth, order = {1: None}, {1: 0}, [1]
        for v in order:
            for w in sorted(tree.neighbors(v) - parent.keys()):
                parent[w], depth[w] = v, depth[v] + 1
                order.append(w)
        edges, used = set(tree.edges()), set()
        for _ in range(20 * cycles):
            u, v = rng.sample(range(1, n + 1), 2)
            trail, a, b = set(), u, v
            while a != b:  # climb to the lowest common ancestor
                if depth[a] < depth[b]:
                    a, b = b, a
                trail.add(a)
                a = parent[a]
            trail.add(a)
            if len(trail) >= 3 and not trail & used:
                used |= trail
                edges.add((min(u, v), max(u, v)))
                if len(edges) == n - 1 + cycles:
                    return Graph(n, sorted(edges))


def test_bisect_answer_does_not_depend_on_the_label_pattern():
    """The three-operator forest expression and the four-operator one it
    replaced give the same (cut, A) on trees with 1-4 disjoint cycles, with
    n past the oracle's range; small n also against the oracles."""
    rng = random.Random(23)
    for i in range(60):
        n = rng.randint(6, 14) if i % 4 == 0 else rng.randint(20, 80)
        g = tree_with_disjoint_cycles(rng, n, rng.randint(1, min(4, n // 5)))
        d = greedy_deletion_set(g)
        phi, old = forest_qexpr(g, d), four_operator_forest_qexpr(g, d)
        assert phi.size() < old.size()
        bip, cut = solve_bisection_cwd(g, d, phi)
        assert solve_bisection_cwd(g, d, old) == (bip, cut), (sorted(g.edges()), sorted(d))
        if n <= 14:
            assert cut == brute_bisection(g).optimum
            assert (cut, tuple(sorted(bip.a))) == brute_least_bisection(g)


def test_a_full_expression_is_replayed_once_per_solve(monkeypatch):
    """Preparing a full expression takes one replay and no rebuild; one with
    a doubled Join is rebuilt by normalization and answers as the
    normalized expression does."""
    replays, rebuilds = [], []
    replay, normalize = qexpr._replay, qexpr.normalize_qexpr
    monkeypatch.setattr(qexpr, "_replay", lambda nodes: replays.append(1) or replay(nodes))
    monkeypatch.setattr(
        "balcut.cwcut.normalize_qexpr", lambda e: rebuilds.append(1) or normalize(e)
    )
    g = cycle_graph(31)
    d = greedy_deletion_set(g)
    phi = forest_qexpr(g, d)  # one path: Rename(Join(Union(...)))
    want = solve_bisection_cwd(g, d, phi)
    assert (len(replays), len(rebuilds)) == (1, 0)

    # join the pair of the path's first edge a second time
    doubled = Rename(phi.i, phi.j, Join(phi.child.i, phi.child.j, phi.child))
    assert not joins_are_full(doubled)
    replays.clear()
    assert solve_bisection_cwd(g, d, doubled) == want
    assert (len(replays), len(rebuilds)) == (2, 1)  # the rebuild replays again
    assert solve_bisection_cwd(g, d, normalize(doubled)) == want
