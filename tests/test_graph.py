"""Core graph type and the partition/separator predicates."""

import pytest

from balcut.graph import (
    Bipartition,
    DPartition,
    Graph,
    Separation,
    adjacency_masks,
    complete_graph,
    connected_components,
    count_components_after_removal,
    cut_size,
    cycle_graph,
    is_balanced_separator,
    mask_members,
    path_graph,
    star_graph,
    validate_bisection,
)

from .conftest import random_graph


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])  # parallel edge in the other orientation
    with pytest.raises(ValueError):
        Graph(-1)


def test_construction_rejects_bad_weights():
    with pytest.raises(ValueError):
        Graph(2, [(1, 2)], vertex_weights={3: 1})
    with pytest.raises(ValueError):
        Graph(2, [(1, 2)], vertex_weights={1: 0})
    with pytest.raises(ValueError):
        Graph(2, [(1, 2)], edge_weights={(1, 3): 2})
    with pytest.raises(ValueError):
        Graph(2, [(1, 2)], edge_weights={(1, 2): 0})


def test_default_weights_are_unit():
    g = Graph(3, [(1, 2), (2, 3)])
    assert g.is_unit_vertex_weighted() and g.is_unit_edge_weighted()
    assert g.total_vertex_weight == 3
    assert g.edge_weight(2, 1) == 1  # orientation-insensitive lookup


def test_adjacency():
    g = cycle_graph(5)
    assert g.neighbors(1) == frozenset({2, 5})
    assert g.degree(3) == 2
    assert g.has_edge(5, 1) and not g.has_edge(1, 3)
    assert g.m == 5


def test_empty_graph():
    g = Graph(0)
    assert g.n == 0 and g.m == 0
    assert connected_components(g) == []


def test_connected_components_order():
    # two components; output sorted by smallest member
    g = Graph(6, [(2, 4), (4, 6), (1, 5)])
    comps = connected_components(g)
    assert comps == [frozenset({1, 5}), frozenset({2, 4, 6}), frozenset({3})]


def test_connected_components_within():
    g = cycle_graph(6)
    comps = connected_components(g, within=[1, 2, 4, 5])
    assert comps == [frozenset({1, 2}), frozenset({4, 5})]
    # restriction to the empty set
    assert connected_components(g, within=[]) == []


def test_count_components_after_removal():
    g = cycle_graph(6)
    assert count_components_after_removal(g, []) == 1
    assert count_components_after_removal(g, [1]) == 1
    assert count_components_after_removal(g, [1, 4]) == 2
    assert count_components_after_removal(g, list(g.vertices)) == 0


def test_cut_size_bipartition():
    g = cycle_graph(6)
    assert cut_size(g, Bipartition({1, 2, 3}, {4, 5, 6})) == 2
    assert cut_size(g, Bipartition({1, 3, 5}, {2, 4, 6})) == 6


def test_cut_size_weighted():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)], edge_weights={(1, 2): 5})
    assert cut_size(g, Bipartition({1}, {2, 3})) == 6
    assert cut_size(g, Bipartition({2}, {1, 3})) == 6
    assert cut_size(g, Bipartition({3}, {1, 2})) == 2


def test_cut_size_dpartition():
    g = path_graph(4)
    assert cut_size(g, DPartition([{1, 2}, {3, 4}])) == 1
    assert cut_size(g, DPartition([{1}, {2}, {3, 4}])) == 2


def test_cut_size_rejects_non_partition():
    g = path_graph(3)
    with pytest.raises(ValueError):
        cut_size(g, Bipartition({1, 2}, {2, 3}))
    with pytest.raises(ValueError):
        cut_size(g, Bipartition({1}, {2}))
    with pytest.raises(TypeError):
        cut_size(g, {1, 2, 3})


def test_separation_validity():
    g = cycle_graph(6)
    good = Separation({1, 4}, {2, 3}, {5, 6})
    assert good.is_valid(g)
    # 3-4 edge crosses A-B
    bad = Separation({1}, {2, 3}, {4, 5, 6})
    assert not bad.is_valid(g)
    # not a partition of V
    assert not Separation({1}, {2, 3}, {5, 6}).is_valid(g)
    assert not Separation({1, 2}, {2, 3}, {4, 5, 6}).is_valid(g)


def test_separation_allows_empty_side():
    g = path_graph(2)
    s = Separation({1}, {2}, set())
    assert s.is_valid(g)
    assert is_balanced_separator(g, s)  # |A| - |B| = 1


def test_is_balanced_separator():
    g = cycle_graph(6)
    assert is_balanced_separator(g, Separation({1, 4}, {2, 3}, {5, 6}))
    assert not is_balanced_separator(g, Separation({2, 6}, {1}, {3, 4, 5}))


def test_dpartition_validity():
    g = path_graph(5)
    assert DPartition([{1, 2}, {3, 4}, {5}]).is_valid(g)  # cap = 2
    assert not DPartition([{1, 2, 3}, {4}, {5}]).is_valid(g)  # part too big
    assert not DPartition([{1, 2}, {3, 4}]).is_valid(g)  # misses 5
    assert not DPartition([{1, 2}, {2, 3}, {4, 5}]).is_valid(g)  # overlap
    assert DPartition([{1, 2}, {3, 4}, {5}]).d == 3


def test_dpartition_needs_a_part():
    with pytest.raises(ValueError, match="at least one part"):
        DPartition([])


def test_mask_members_lists_set_bits_in_order():
    assert mask_members(0) == []
    assert mask_members(0b101101) == [0, 2, 3, 5]
    assert mask_members(1 << 70) == [70]


@pytest.mark.parametrize(
    "n,p,seed", [(0, 0.5, 0), (1, 0.5, 0), (6, 0.5, 1), (12, 0.3, 2), (20, 0.2, 3)]
)
def test_adjacency_masks_list_each_neighbourhood(n, p, seed):
    g = random_graph(n, p, seed)
    masks = adjacency_masks(g)
    assert len(masks) == n + 1 and masks[0] == 0
    for v in g.vertices:
        assert mask_members(masks[v]) == sorted(g.neighbors(v))


def test_validate_bisection():
    g = cycle_graph(6)
    assert validate_bisection(g, Bipartition({1, 2, 3}, {4, 5, 6}), 2)
    assert not validate_bisection(g, Bipartition({1, 2, 3}, {4, 5, 6}), 1)
    assert not validate_bisection(g, Bipartition({1, 2, 3, 4}, {5, 6}), 4)
    # odd n: sides floor/ceil
    h = path_graph(5)
    assert validate_bisection(h, Bipartition({1, 2, 3}, {4, 5}), 1)
    assert validate_bisection(h, Bipartition({1, 2}, {3, 4, 5}), 1)


def test_graph_equality_and_key():
    a = Graph(3, [(1, 2), (2, 3)])
    b = Graph(3, [(2, 3), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(1, 2)])
    assert a != Graph(3, [(1, 2), (2, 3)], vertex_weights={2: 4})


def test_builders():
    assert complete_graph(4).m == 6
    assert star_graph(5).n == 6 and star_graph(5).degree(1) == 5
    assert path_graph(1).m == 0
    with pytest.raises(ValueError):
        cycle_graph(2)
