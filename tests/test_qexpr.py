"""Labeled-graph expressions: evaluation, normalization, equality, builders."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.formats import emit_qexpr, parse_qexpr
from balcut.graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    path_graph,
    star_graph,
)
from balcut.qexpr import (
    Create,
    Join,
    Rename,
    Union,
    clique_qexpr,
    eval_qexpr,
    eval_walk,
    forest_qexpr,
    greedy_deletion_set,
    joins_are_full,
    normalize_qexpr,
    postorder,
)

from .conftest import random_graph, random_tree


def k3_expr():
    inner = Join(1, 2, Union(Create(1), Create(2)))
    return Join(1, 2, Union(Rename(2, 1, inner), Create(2)))


# -- construction and evaluation ----------------------------------------------


def test_node_validation():
    with pytest.raises(ValueError):
        Create(0)
    with pytest.raises(ValueError):
        Join(2, 2, Create(1))
    with pytest.raises(ValueError):
        Rename(1, 1, Create(1))
    with pytest.raises(ValueError):
        Join(0, 1, Create(1))


def test_eval_single_edge():
    lg = eval_qexpr(Join(1, 2, Union(Create(1), Create(2))))
    assert lg.graph.edges() == [(1, 2)]
    assert lg.labels == {1: 1, 2: 2}


def test_eval_k3():
    lg = eval_qexpr(k3_expr())
    assert lg.graph == complete_graph(3)
    assert lg.labels == {1: 1, 2: 1, 3: 2}


def test_eval_isolated_union():
    lg = eval_qexpr(Union(Create(1), Create(1)))
    assert lg.graph.n == 2 and lg.graph.m == 0
    assert set(lg.labels.values()) == {1}


def test_eval_union_is_disjoint_even_for_shared_subtrees():
    x = Join(1, 2, Union(Create(1), Create(2)))
    lg = eval_qexpr(Union(x, x))  # same object twice = two copies
    assert lg.graph.n == 4 and lg.graph.m == 2


def test_eval_names_follow_leaf_order():
    e = Union(Create(1, name="x"), Create(2, name="y"))
    lg = eval_qexpr(e)
    assert lg.names == {1: "x", 2: "y"}


def test_q_is_max_label():
    assert Create(4).q == 4
    assert k3_expr().q == 2
    assert Rename(5, 1, Create(1)).q == 5


def test_size_counts_nodes():
    assert Create(1).size() == 1
    assert k3_expr().size() == 8


# -- normalization -------------------------------------------------------------


def test_normalize_drops_duplicate_join():
    dup = Join(1, 2, Join(1, 2, Union(Create(1), Create(2))))
    assert normalize_qexpr(dup) == Join(1, 2, Union(Create(1), Create(2)))


def test_normalize_idempotent_and_stable():
    e = k3_expr()
    assert normalize_qexpr(e) == e  # already normal -> unchanged
    dup = Join(1, 2, Join(1, 2, Union(Create(1), Create(2))))
    once = normalize_qexpr(dup)
    assert normalize_qexpr(once) == once


def test_normalize_returns_a_full_expression_itself():
    e = k3_expr()
    assert normalize_qexpr(e) is e
    g = path_graph(7)
    phi = forest_qexpr(g)
    assert joins_are_full(phi) and normalize_qexpr(phi) is phi


def test_normalize_partial_join_becomes_full():
    # join twice with a third vertex added in between: the inner join's pair
    # is covered by the outer one, so only the outer (now full) join remains
    inner = Join(1, 2, Union(Create(1), Create(2)))
    expr = Join(1, 2, Union(inner, Create(1)))
    assert not joins_are_full(expr)
    norm = normalize_qexpr(expr)
    assert joins_are_full(norm)
    assert norm.size() < expr.size()
    before, after = eval_qexpr(expr), eval_qexpr(norm)
    assert before.graph == after.graph and before.labels == after.labels


def test_normalize_drops_empty_rename():
    e = Rename(3, 1, Join(1, 2, Union(Create(1), Create(2))))
    norm = normalize_qexpr(e)
    assert norm == Join(1, 2, Union(Create(1), Create(2)))


def test_normalize_keeps_meaningful_rename():
    e = Rename(2, 1, Join(1, 2, Union(Create(1), Create(2))))
    assert normalize_qexpr(e) == e


def _random_expr(rng: random.Random, q: int, leaves: int):
    nodes = [Create(rng.randint(1, q)) for _ in range(leaves)]
    while len(nodes) > 1 or rng.random() < 0.4:
        if len(nodes) > 1 and rng.random() < 0.45:
            i = rng.randrange(len(nodes) - 1)
            nodes[i] = Union(nodes[i], nodes.pop(i + 1))
        else:
            i = rng.randrange(len(nodes))
            a = rng.randint(1, q)
            b = rng.choice([x for x in range(1, q + 1) if x != a])
            if rng.random() < 0.55:
                nodes[i] = Join(a, b, nodes[i])
            else:
                nodes[i] = Rename(a, b, nodes[i])
        if len(nodes) == 1 and rng.random() < 0.75:
            break
    return nodes[0]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.integers(1, 8))
def test_normalize_properties_random(seed, q, leaves):
    rng = random.Random(seed)
    expr = _random_expr(rng, q, leaves)
    norm = normalize_qexpr(expr)
    assert norm.size() <= expr.size()
    assert joins_are_full(norm)
    before, after = eval_qexpr(expr), eval_qexpr(norm)
    # vertex numbering comes from Create leaves, which normalization keeps,
    # so the value must match exactly, not just up to isomorphism
    assert before.graph == after.graph
    assert before.labels == after.labels
    assert normalize_qexpr(norm) == norm
    # the one-replay evaluation solve_bisection_cwd prepares with
    assert eval_walk(postorder(expr)) == (before, norm is expr)


# -- families -------------------------------------------------------------------


def test_family_clique_matches_spec_expression():
    assert clique_qexpr(3) == k3_expr()


@pytest.mark.parametrize("n", range(1, 11))
def test_family_clique(n):
    e = clique_qexpr(n)
    assert e.q <= 2
    assert eval_qexpr(e).graph == complete_graph(n)
    assert joins_are_full(e)


@pytest.mark.parametrize("n", range(1, 11))
def test_family_path(n):
    e = forest_qexpr(path_graph(n))
    assert e.q <= 3
    assert eval_qexpr(e).graph == path_graph(n)
    assert joins_are_full(e)


def test_family_star():
    e = forest_qexpr(star_graph(3))
    assert e.q <= 3
    lg = eval_qexpr(e)
    remap = {v: lg.names[v] for v in lg.graph.vertices}
    got = sorted(tuple(sorted((remap[u], remap[v]))) for u, v in lg.graph.edges())
    assert got == star_graph(3).edges()


@pytest.mark.parametrize("seed", range(12))
def test_family_random_trees(seed):
    t = random_tree(seed % 9 + 2, seed)
    e = forest_qexpr(t)
    assert e.q <= 3
    lg = eval_qexpr(e)
    remap = {v: lg.names[v] for v in lg.graph.vertices}
    got = sorted(tuple(sorted((remap[u], remap[v]))) for u, v in lg.graph.edges())
    assert got == t.edges()
    assert joins_are_full(e)


def test_family_tree_rejects_non_tree():
    with pytest.raises(ValueError, match="not a forest"):
        forest_qexpr(Graph(3, [(1, 2), (2, 3), (1, 3)]))


# -- forests and deletion sets ----------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_greedy_deletion_set_leaves_the_forest_expression(seed):
    g = random_graph(9, 0.35, seed)
    d = greedy_deletion_set(g)
    lg = eval_qexpr(forest_qexpr(g, d))
    keep = [v for v in g.vertices if v not in d]
    assert sorted(lg.names.values()) == keep
    got = sorted(tuple(sorted((lg.names[u], lg.names[w]))) for u, w in lg.graph.edges())
    assert got == [(u, w) for u, w in g.edges() if u not in d and w not in d]


def test_forest_qexpr_rejects_cycles_and_empty_remainders():
    with pytest.raises(ValueError, match="not a forest"):
        forest_qexpr(cycle_graph(4))
    with pytest.raises(ValueError, match="leaves no vertices"):
        forest_qexpr(path_graph(2), {1, 2})
    assert forest_qexpr(cycle_graph(4), {4}) == forest_qexpr(path_graph(3))


def test_forest_expression_has_three_operators_per_edge():
    """A forest with N vertices in c trees gets N Creates, three operators
    per tree edge and c - 1 Unions between trees: 4N - 2c - 1 nodes, leaves
    labeled 2 or 3 by depth, q = 3 and every Join full, so normalization
    returns the expression itself."""
    rng = random.Random(23)
    seen_isolated = seen_many_trees = 0
    for _ in range(60):
        n = rng.randint(2, 40)
        # a random tree with some edges dropped, plus up to 3 isolated vertices
        edges = [e for e in random_tree(n, rng.randrange(10**6)).edges() if rng.random() > 0.3]
        edges = edges or [(1, 2)]
        g = Graph(n + rng.randint(0, 3), edges)
        c = len(connected_components(g))
        phi = forest_qexpr(g)
        nodes = postorder(phi)
        assert len(nodes) == 4 * g.n - 2 * c - 1
        assert {node.label for node in nodes if isinstance(node, Create)} <= {2, 3}
        assert phi.q == 3
        assert joins_are_full(phi)
        assert normalize_qexpr(phi) is phi
        lg = eval_qexpr(phi)
        named = sorted(tuple(sorted((lg.names[u], lg.names[w]))) for u, w in lg.graph.edges())
        assert named == g.edges()
        seen_isolated += any(not g.neighbors(v) for v in g.vertices)
        seen_many_trees += c > 1
    assert seen_isolated >= 20 and seen_many_trees >= 40


def test_deep_expression_passes_need_no_recursion():
    # the path rooted at an end nests 3 operators per vertex, far beyond the
    # interpreter's recursion limit
    g = path_graph(2000)
    e = forest_qexpr(g)
    assert e.q == 3
    assert e.size() == 1 + 4 * 1999
    lg = eval_qexpr(e)
    assert lg.graph == g
    assert lg.names == {v: v for v in g.vertices}
    assert joins_are_full(e)
    assert normalize_qexpr(e) == e
    assert parse_qexpr(emit_qexpr(e)) == e


def test_equality_and_hashing_walk_deep_expressions():
    """Equality and hashing go through the walker, as every other pass
    does: structure and labels count, Create names do not."""
    e, again = forest_qexpr(path_graph(5000)), forest_qexpr(path_graph(5000))
    assert e is not again
    assert e == again and not e != again
    assert hash(e) == hash(again)
    assert repr(e) == emit_qexpr(again)
    assert e.size() == 1 + 4 * 4999 and e.q == 3
    assert normalize_qexpr(e) is e
    assert eval_qexpr(e).graph == path_graph(5000)
    text = repr(e)
    unnamed = parse_qexpr(text)
    assert unnamed == e and hash(unnamed) == hash(e)
    # the deepest leaf (vertex 5000, label 3) relabeled
    head, _, tail = text.rpartition("v(3)")
    relabeled = parse_qexpr(head + "v(2)" + tail)
    assert relabeled != e and not relabeled == e
    assert Create(1, name=3) == Create(1) and hash(Create(1, name=3)) == hash(Create(1))
    assert Create(1) != Create(2)
    assert Join(1, 2, Create(1)) != Rename(1, 2, Create(1))
    assert Union(Create(1), Create(2)) != Union(Create(2), Create(1))
    assert Create(1) != "v(1)"
    assert len({e, again, unnamed, relabeled}) == 2
