"""Round-trip and diagnostics tests for the text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.formats import (
    ParseError,
    Solution,
    emit_graph,
    emit_qexpr,
    emit_solution,
    parse_graph,
    parse_qexpr,
    parse_solution,
)
from balcut.graph import Graph
from balcut.qexpr import Create, Join, Rename, Union, eval_qexpr

from .conftest import random_graph


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------


def test_graph_parse_basic():
    g = parse_graph("c a comment\np tw 3 2\n1 2\n\n2 3\n")
    assert g.n == 3 and sorted(g.edges()) == [(1, 2), (2, 3)]
    assert g.is_unit_edge_weighted() and g.is_unit_vertex_weighted()


def test_graph_parse_weight_lines():
    g = parse_graph("p tw 3 2\nw 2 5\n1 2\ne 2 3 7\n")
    assert g.vertex_weight(2) == 5
    assert g.edge_weight(1, 2) == 1
    assert g.edge_weight(2, 3) == 7


def test_graph_emit_keeps_unit_lines_plain():
    g = Graph(3, [(1, 2), (2, 3)], edge_weights={(2, 3): 7})
    text = emit_graph(g, comments=["hello"])
    assert text.splitlines() == ["c hello", "p tw 3 2", "1 2", "e 2 3 7"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_graph_round_trip(n, seed):
    import random as _random

    rng = _random.Random(seed)
    g = random_graph(n, rng.random(), seed)
    if g.m and rng.random() < 0.5:
        ew = {e: rng.randint(1, 9) for e in g.edges() if rng.random() < 0.7}
        vw = {v: rng.randint(1, 9) for v in g.vertices if rng.random() < 0.3}
        g = Graph(n, g.edges(), vertex_weights=vw or None, edge_weights=ew or None)
    assert parse_graph(emit_graph(g)).key() == g.key()


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("1 2\n", "before the p-line"),
        ("p tw 2 1\np tw 2 1\n1 2\n", "second p-line"),
        ("p tw two 1\n", "expected a vertex count"),
        ("p tw 2 1\n1 1\n", "self-loop"),
        ("p tw 2 2\n1 2\n2 1\n", "repeats line 2"),
        ("p tw 2 1\n1 3\n", "out of range"),
        ("p tw 2 0\n1 2\n", "declares 0 edges"),
        ("p tw 2 3\n1 2\n", "declares 3 edges"),
        ("p tw 2 1\nw 1 0\n1 2\n", "at least 1"),
        ("p tw 2 1\nw 1 2\nw 1 3\n1 2\n", "second weight"),
        ("p tw 2 1\ne 1 2 2\ne 1 2 3\n", "repeats"),
        ("p tw 2 1\n1 2 3 4\n", "unrecognized line kind"),
        ("", "missing"),
    ],
)
def test_graph_parse_errors(text, complaint):
    with pytest.raises(ParseError, match=complaint):
        parse_graph(text)


def test_graph_parse_padded_and_oversized_ids():
    # ids longer than the vertex count's digits take the tokenizer's path
    g = parse_graph("p tw 12 3\n 012\t3\n1 12\n0005 11\n")
    assert sorted(g.edges()) == [(1, 12), (3, 12), (5, 11)]
    with pytest.raises(ParseError, match="line 2, column 3"):
        parse_graph("p tw 3 1\n1 " + "0" * 5000 + "2\n")


def test_graph_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_graph("p tw 2 1\n1 3\n")
    assert info.value.line == 2
    assert info.value.col == 3


# --------------------------------------------------------------------------
# q-expressions
# --------------------------------------------------------------------------


def test_qexpr_single_edge():
    e = parse_qexpr("join(1,2,union(v(1),v(2)))")
    lg = eval_qexpr(e)
    assert lg.graph.key() == Graph(2, [(1, 2)]).key()


def test_qexpr_triangle_example():
    e = parse_qexpr("join(1,2,union(ren(2->1,join(1,2,union(v(1),v(2)))),v(2)))")
    lg = eval_qexpr(e)
    assert lg.graph.key() == Graph(3, [(1, 2), (1, 3), (2, 3)]).key()


def test_qexpr_is_whitespace_insensitive():
    a = parse_qexpr("join(1,2,union(v(1),v(2)))")
    b = parse_qexpr("  join ( 1 ,\n 2 , union(\tv( 1 ) , v(2) ) )\n")
    assert a == b


def _random_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Create(rng.randint(1, 4))
    if roll < 0.55:
        i = rng.randint(1, 4)
        j = rng.choice([x for x in range(1, 5) if x != i])
        return Join(i, j, _random_expr(rng, depth - 1))
    if roll < 0.8:
        i = rng.randint(1, 4)
        j = rng.choice([x for x in range(1, 5) if x != i])
        return Rename(i, j, _random_expr(rng, depth - 1))
    return Union(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_qexpr_round_trip(seed):
    import random as _random

    rng = _random.Random(seed)
    expr = _random_expr(rng, 5)
    assert parse_qexpr(emit_qexpr(expr)) == expr


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("join(1,1,v(1))", "labels must differ"),
        ("ren(2->2,v(2))", "labels must differ"),
        ("v(0)", "labels must be positive"),
        ("join(1,2,union(v(1),v(2))", "unbalanced parentheses"),
        ("v(1))", "trailing input"),
        ("v(1) v(2)", "trailing input"),
        ("frob(1)", "expected an expression"),
        ("union(v(1) v(2))", "expected ','"),
        ("ren(1,2,v(1))", "expected '->'"),
        ("v(x)", "expected a label"),
        ("", "empty expression"),
    ],
)
def test_qexpr_parse_errors(text, complaint):
    with pytest.raises(ParseError, match=complaint):
        parse_qexpr(text)


def test_qexpr_error_positions_are_line_aware():
    with pytest.raises(ParseError) as info:
        parse_qexpr("union(v(1),\njoin(2,2,v(2)))")
    assert info.value.line == 2


# --------------------------------------------------------------------------
# solutions
# --------------------------------------------------------------------------


def test_solution_round_trip():
    sol = Solution("sep", 2, {3: 1, 1: 0, 2: 2})
    text = emit_solution(sol)
    assert text == "sep 2\n1 0\n2 2\n3 1\n"
    assert parse_solution(text) == sol


def test_solution_accepts_comments():
    sol = parse_solution("c solved by hand\ncut 1\n1 0\n2 1\n")
    assert sol.kind == "cut" and sol.value == 1


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("1 0\n", "expected `cut <k>` or `sep <k>`"),
        ("cut\n", "expected `cut <k>`"),
        ("cut 1\n1 0\n1 1\n", "assigned twice"),
        ("cut 1\n1 -1\n", "numbered from 0"),
        ("cut 1\n1 0 2\n", "expected `<vertex> <part>`"),
        ("", "missing"),
    ],
)
def test_solution_parse_errors(text, complaint):
    with pytest.raises(ParseError, match=complaint):
        parse_solution(text)
