"""Brute-force oracle behaviour: spec'd values, guards, determinism."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.graph import (
    Bipartition,
    Graph,
    complete_graph,
    cut_size,
    cycle_graph,
    is_balanced_separator,
    path_graph,
    star_graph,
)
from balcut.oracle import (
    OracleSizeError,
    brute_balanced_partition,
    brute_bisection,
    brute_maxcut,
    brute_vertex_bisection,
    restricted_growth_strings,
)

from .conftest import petersen, random_graph
from .frozen_fixtures import PETERSEN_BISECTION, PETERSEN_MAXCUT


# -- bisection --------------------------------------------------------------


def test_bisection_c6():
    assert brute_bisection(cycle_graph(6)).optimum == 2


def test_bisection_k5():
    r = brute_bisection(complete_graph(5))
    assert r.optimum == 6  # sides 2/3 -> 2*3 crossing edges
    assert {len(r.witness.a), len(r.witness.b)} == {2, 3}


def test_bisection_petersen_frozen():
    assert brute_bisection(petersen()).optimum == PETERSEN_BISECTION


def test_bisection_witness_is_valid():
    g = random_graph(9, 0.4, seed=3)
    r = brute_bisection(g)
    assert r.witness.is_valid(g)
    assert cut_size(g, r.witness) == r.optimum
    assert abs(len(r.witness.a) - len(r.witness.b)) <= 1


def test_bisection_edge_weighted():
    # heavy edge forces the light split even though it is not the sparsest
    g = Graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)], edge_weights={(1, 2): 10, (3, 4): 10})
    r = brute_bisection(g, edge_weighted=True)
    assert r.optimum == 2
    assert r.witness.a in (frozenset({1, 2}), frozenset({3, 4}))
    # without the flag every edge counts once
    assert brute_bisection(g, edge_weighted=False).optimum == 2


def test_bisection_guard():
    with pytest.raises(OracleSizeError):
        brute_bisection(Graph(25))


def test_bisection_deterministic():
    g = random_graph(8, 0.5, seed=11)
    assert brute_bisection(g).witness == brute_bisection(g).witness


# -- vertex bisection --------------------------------------------------------


def test_vertex_bisection_p5():
    r = brute_vertex_bisection(path_graph(5), k=1)
    assert r.optimum == 1
    assert r.witness.s == frozenset({3})


def test_vertex_bisection_c6():
    r = brute_vertex_bisection(cycle_graph(6), k=2, c=2)
    assert r.optimum == 2
    assert len(r.witness.a) == 2 and len(r.witness.b) == 2


def test_vertex_bisection_k4_infeasible():
    r = brute_vertex_bisection(complete_graph(4), k=1)
    assert not r.feasible
    assert r.witness is None


def test_vertex_bisection_witness_valid():
    g = random_graph(10, 0.25, seed=5)
    r = brute_vertex_bisection(g, k=3)
    if r.feasible:
        assert r.witness.is_valid(g)
        assert is_balanced_separator(g, r.witness)
        assert len(r.witness.s) == r.optimum


def test_vertex_bisection_component_count_restriction():
    # removing the two middle vertices of C6 leaves exactly 2 components;
    # no single vertex does, so c=2 forces size 2 even though k allows less
    g = cycle_graph(6)
    assert brute_vertex_bisection(g, k=2, c=2).optimum == 2
    assert brute_vertex_bisection(g, k=2, c=3).feasible is False


def test_vertex_bisection_zero_k():
    # disconnected graph splits without removing anything
    g = Graph(4, [(1, 2), (3, 4)])
    r = brute_vertex_bisection(g, k=0)
    assert r.optimum == 0 and r.witness.s == frozenset()


def test_vertex_bisection_guards():
    with pytest.raises(OracleSizeError):
        brute_vertex_bisection(Graph(19), k=1)
    with pytest.raises(OracleSizeError):
        brute_vertex_bisection(path_graph(4), k=5)
    with pytest.raises(ValueError):
        brute_vertex_bisection(path_graph(4), k=-1)


# -- balanced partition -------------------------------------------------------


@pytest.mark.parametrize(
    "g,d,expect",
    [
        (path_graph(3), 3, 2),
        (cycle_graph(4), 2, 2),
        (star_graph(3), 2, 2),
        (path_graph(6), 3, 2),
        (complete_graph(4), 4, 6),
    ],
)
def test_balanced_partition_values(g, d, expect):
    assert brute_balanced_partition(g, d).optimum == expect


def test_balanced_partition_witness():
    g = random_graph(8, 0.5, seed=2)
    r = brute_balanced_partition(g, 3)
    assert r.witness.is_valid(g)
    assert r.witness.d == 3
    assert cut_size(g, r.witness) == r.optimum


def test_balanced_partition_d1():
    g = cycle_graph(5)
    r = brute_balanced_partition(g, 1)
    assert r.optimum == 0 and r.witness.parts[0] == frozenset(g.vertices)


def _is_capped_rgs(s, cap):
    opened = 0
    for grp in s:
        if grp > opened:
            return False
        opened = max(opened, grp + 1)
    return all(s.count(grp) <= cap for grp in set(s))


@pytest.mark.parametrize("n", range(7))
def test_restricted_growth_strings_match_filtered_product(n):
    for max_groups in range(4):
        for cap in range(4):
            want = [
                s for s in sorted(product(range(max_groups), repeat=n)) if _is_capped_rgs(s, cap)
            ]
            assert list(restricted_growth_strings(n, max_groups, cap)) == want


def test_restricted_growth_strings_walk_long_strings_without_recursion():
    assert list(restricted_growth_strings(3000, 1, 3000)) == [(0,) * 3000]
    assert list(restricted_growth_strings(3000, 1, 2999)) == []


def test_balanced_partition_guard():
    with pytest.raises(OracleSizeError):
        brute_balanced_partition(Graph(13), 2)
    with pytest.raises(ValueError):
        brute_balanced_partition(path_graph(3), 0)


# -- max cut -----------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expect",
    [
        (complete_graph(3), 2),
        (cycle_graph(4), 4),
        (complete_graph(4), 4),
        (cycle_graph(5), 4),
        (path_graph(6), 5),
    ],
)
def test_maxcut_values(g, expect):
    assert brute_maxcut(g).optimum == expect


def test_maxcut_petersen_frozen():
    assert brute_maxcut(petersen()).optimum == PETERSEN_MAXCUT


def test_maxcut_weighted():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)], edge_weights={(1, 2): 7})
    r = brute_maxcut(g)
    # isolating either endpoint of the heavy edge cuts 7 + 1
    assert r.optimum == 8
    assert cut_size(g, r.witness) == r.optimum


def test_maxcut_guard():
    with pytest.raises(OracleSizeError):
        brute_maxcut(Graph(21))


def test_maxcut_witness_valid():
    g = random_graph(9, 0.4, seed=13)
    r = brute_maxcut(g)
    assert r.witness.is_valid(g)
    assert cut_size(g, r.witness) == r.optimum


# -- cross-oracle invariants ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_bisection_agrees_with_d2_partition(n, seed):
    g = random_graph(n, 0.5, seed=seed)
    b = brute_bisection(g).optimum
    p2 = brute_balanced_partition(g, 2).optimum
    if n % 2 == 0:
        assert b == p2
    else:
        assert b <= p2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_maxcut_at_least_half_edges(n, seed):
    # classic greedy bound: some side assignment cuts >= m/2
    g = random_graph(n, 0.6, seed=seed)
    assert 2 * brute_maxcut(g).optimum >= g.m
