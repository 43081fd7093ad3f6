"""Tests for the gadget-based instance generators.

Most outputs are too large for the brute-force oracles, but they are built
from interchangeable vertex blocks (cliques attached uniformly), so the
block-quotient search in conftest gives an exhaustive separator check that
scales to a few hundred vertices.  Wherever an output *does* fit the plain
oracle, both checkers run and must agree, which validates the quotient
helper in passing.
"""

import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.formats import emit_graph
from balcut.graph import Graph, Separation, connected_components, complete_graph
from balcut.oracle import (
    brute_balanced_partition,
    brute_bisection,
    brute_maxcut,
    brute_vertex_bisection,
)
from balcut.reductions import (
    ChoiceGadget,
    _Builder,
    binpacking_to_forest,
    bisect_to_vbisect,
    clique_to_vbisect,
    make_choice_gadget,
    maxcut_cross_compose,
    mcclique_to_bpart,
    weighted_to_unweighted,
)

from .conftest import (
    all_graphs_up_to_iso,
    balanced_separator_exists_blocks,
    quotient_blocks,
)


def role_groups(out):
    """Vertices grouped by role tag (same tag = interchangeable block)."""
    by = {}
    for v, role in out.vertex_roles.items():
        by.setdefault(role, []).append(v)
    return [sorted(vs) for _, vs in sorted(by.items())]


def quotient_feasible(out, k):
    sizes, block_edges = quotient_blocks(out.graph, role_groups(out))
    return balanced_separator_exists_blocks(sizes, block_edges, k)


# --------------------------------------------------------------------------
# clique -> vertex bisection
# --------------------------------------------------------------------------


def test_clique_reduction_small_examples():
    out = clique_to_vbisect(complete_graph(3), 2)
    assert out.graph.n == 8
    assert len(out.roles("filler")) == 2
    assert out.params == {"k": 2, "c": 3}
    assert brute_vertex_bisection(out.graph, 2).feasible

    out4 = clique_to_vbisect(complete_graph(4), 2)
    assert out4.graph.n == 16


def test_clique_reduction_roles_partition_the_graph():
    out = clique_to_vbisect(complete_graph(3), 2)
    assert sorted(out.vertex_roles) == list(out.graph.vertices)
    assert out.roles("original:1") == [1]
    assert out.roles("edge:1,2") == [4]  # edge vertices follow the originals
    # every original pair is joined, every edge vertex sees its two ends
    for u, w in combinations(range(1, 4), 2):
        assert out.graph.has_edge(u, w)
        (ev,) = out.roles(f"edge:{u},{w}")
        assert out.graph.neighbors(ev) == frozenset((u, w))


def test_clique_reduction_odd_size_is_normalized():
    g = complete_graph(3)
    out = clique_to_vbisect(g, 1)
    assert "universal vertex" in out.provenance
    assert out.params["k"] == 2
    # identical to padding by hand: a universal vertex, then budget k + 1
    padded = Graph(4, sorted(g.edges()) + [(1, 4), (2, 4), (3, 4)])
    assert out.graph.key() == clique_to_vbisect(padded, 2).graph.key()
    assert out.graph.n == 2 * 4 + 2 * 6 - 2 - 2


def test_clique_reduction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        clique_to_vbisect(complete_graph(3), -1)
    with pytest.raises(ValueError):
        clique_to_vbisect(complete_graph(3), 4)
    with pytest.raises(ValueError, match="too small"):
        clique_to_vbisect(Graph(2), 2)


def test_clique_reduction_preserves_answers_up_to_n5():
    """Wanting a 2-clique means wanting an edge; check every graph n <= 5.

    Outputs with at most 18 vertices additionally go through the plain
    brute-force oracle, which must agree with the block-quotient search.
    """
    checked_both = 0
    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            if n + g.m < 4:
                with pytest.raises(ValueError, match="too small"):
                    clique_to_vbisect(g, 2)
                continue
            out = clique_to_vbisect(g, 2)
            got = quotient_feasible(out, 2)
            assert got == (g.m >= 1), (n, sorted(g.edges()))
            if out.graph.n <= 18:
                assert brute_vertex_bisection(out.graph, 2).feasible == got
                checked_both += 1
    assert checked_both >= 30  # the cross-validation actually ran


def test_clique_reduction_deeper_clique_size():
    # K6 with k=4: a yes instance whose output needs the quotient search
    out = clique_to_vbisect(complete_graph(6), 4)
    assert out.graph.n == 2 * 6 + 2 * 15 - 4 - 2 * 6
    assert quotient_feasible(out, 4)


# --------------------------------------------------------------------------
# bisection -> vertex bisection
# --------------------------------------------------------------------------


def test_bisect_reduction_sizes():
    assert bisect_to_vbisect(Graph(2, [(1, 2)]), 1).graph.n == 31
    assert bisect_to_vbisect(Graph(3, [(1, 2), (2, 3)]), 1).graph.n == 87
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = bisect_to_vbisect(c4, 2)
    assert out.graph.n == 223
    assert out.params == {"k": 3}
    assert len(out.roles("vertex-clique:1")) == 3 * 4 + 2
    assert len(out.roles("balance-clique:1")) == 5 * 4 * 4 - 1
    assert len(out.roles("balance-anchor:1")) == 1
    assert len(out.roles("balance-path:1")) == 1


def test_bisect_reduction_rejects_out_of_range_budget():
    g = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="1 <= k <= m"):
        bisect_to_vbisect(g, 0)
    with pytest.raises(ValueError, match="1 <= k <= m"):
        bisect_to_vbisect(g, 3)


def test_bisect_reduction_explicit_witness_on_the_cycle():
    """Transfer a 2-component bisection of C4 by hand and check the image."""
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = bisect_to_vbisect(c4, 2)
    gp = out.graph
    # cut edges of the bisection {1,2} | {3,4} are (1,4) and (2,3)
    (v14,) = out.roles("edge:1,4")
    (v23,) = out.roles("edge:2,3")
    (mid,) = out.roles("balance-path:2")  # middle of the 3-vertex path
    s = {v14, v23, mid}
    a = set(
        out.roles("vertex-clique:1")
        + out.roles("vertex-clique:2")
        + out.roles("edge:1,2")
        + out.roles("balance-anchor:1")
        + out.roles("balance-clique:1")
        + out.roles("balance-path:1")
    )
    b = set(gp.vertices) - s - a
    sep = Separation(s, a, b)
    assert sep.is_valid(gp)
    assert len(a) == len(b)
    # 2-component bisection becomes a (2+2)-component separator
    assert len(connected_components(gp, within=a | b)) == 4


def test_bisect_reduction_preserves_answers_even_inputs():
    for n in (2, 4):
        for g in all_graphs_up_to_iso(n):
            if g.m == 0:
                continue
            for k in (1, 2):
                if k > g.m:
                    continue
                want = brute_bisection(g).optimum <= k
                out = bisect_to_vbisect(g, k)
                assert quotient_feasible(out, out.params["k"]) == want, (
                    n,
                    sorted(g.edges()),
                    k,
                )


def test_bisect_reduction_is_not_answer_preserving_on_odd_inputs():
    """The rebalancing argument needs equal-size sides, so on an odd number
    of vertices the generated instance can be infeasible although the source
    has a small cut.  Freeze one such case so the boundary stays visible."""
    p3 = Graph(3, [(1, 2), (2, 3)])
    assert brute_bisection(p3).optimum == 1
    out = bisect_to_vbisect(p3, 1)
    assert not quotient_feasible(out, out.params["k"])


# --------------------------------------------------------------------------
# max cut cross-composition
# --------------------------------------------------------------------------


def test_crosscompose_three_copies_of_an_edge():
    out = maxcut_cross_compose([(Graph(2, [(1, 2)]), 1)] * 3)
    assert out.graph.n == 12
    assert out.params["k"] == 4 * 4 - 1 == 15
    assert len(out.roles("instance:2:mirror")) == 2
    assert brute_bisection(out.graph, edge_weighted=True).optimum == 15


def test_crosscompose_all_no_instances_stay_above_budget():
    out = maxcut_cross_compose([(Graph(2), 1)] * 3)
    assert brute_bisection(out.graph, edge_weighted=True).optimum == 16 > 15


def test_crosscompose_pads_even_counts():
    out = maxcut_cross_compose([(Graph(2, [(1, 2)]), 1)] * 2)
    assert "edgeless instance" in out.provenance
    assert out.graph.n == 3 * 4


def test_crosscompose_trivial_instances():
    yes = maxcut_cross_compose([(Graph(2, [(1, 2)]), 0)])
    assert yes.params["trivial"] == "yes"
    assert brute_bisection(yes.graph, edge_weighted=True).optimum <= yes.params["k"]
    no = maxcut_cross_compose([(Graph(2, [(1, 2)]), 5)])
    assert no.params["trivial"] == "no"
    assert brute_bisection(no.graph, edge_weighted=True).optimum > no.params["k"]


def test_crosscompose_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="same n and k"):
        maxcut_cross_compose([(Graph(2), 1), (Graph(3), 1)])
    with pytest.raises(ValueError, match="same n and k"):
        maxcut_cross_compose([(Graph(2), 1), (Graph(2), 2)])
    with pytest.raises(ValueError, match="at least one"):
        maxcut_cross_compose([])


def test_crosscompose_preserves_answers_small():
    for seed in range(25):
        r = random.Random(seed)
        n = r.choice([2, 2, 3])
        t = r.choice([1, 2, 3]) if n == 2 else 1
        gs = [
            Graph(n, [e for e in combinations(range(1, n + 1), 2) if r.random() < 0.6])
            for _ in range(t)
        ]
        k = r.randint(1, n * n)
        want = any(brute_maxcut(g).optimum >= k for g in gs)
        out = maxcut_cross_compose([(g, k) for g in gs])
        if "trivial" in out.params:
            got = out.params["trivial"] == "yes"
        else:
            got = brute_bisection(out.graph, edge_weighted=True).optimum <= out.params["k"]
        assert got == want, (seed, n, t, k)


def test_crosscompose_preserves_answers_three_triangles():
    tri = Graph(3, [(1, 2), (1, 3), (2, 3)])
    p3 = Graph(3, [(1, 2), (2, 3)])
    e3 = Graph(3)
    for gs, k, want in [
        ([tri, p3, e3], 2, True),
        ([e3, e3, e3], 2, False),
        ([tri, tri, tri], 3, False),
    ]:
        out = maxcut_cross_compose([(g, k) for g in gs])
        got = brute_bisection(out.graph, edge_weighted=True).optimum <= out.params["k"]
        assert got == want, k


# --------------------------------------------------------------------------
# weight removal
# --------------------------------------------------------------------------


def test_weight_removal_single_heavy_edge():
    gw = Graph(2, [(1, 2)], edge_weights={(1, 2): 2})
    out = weighted_to_unweighted(gw, 1, w=4)
    assert out.graph.n == 14
    c1 = out.roles("vertex-clique:1")
    c2 = out.roles("vertex-clique:2")
    assert len(c1) == len(c2) == 7
    cross = [
        (u, v) for u, v in out.graph.edges() if (u in c1) != (v in c1)
    ]
    assert len(cross) == 2
    # the replacement edges are pairwise vertex-disjoint
    ends = [x for e in cross for x in e]
    assert len(set(ends)) == len(ends)


def test_weight_removal_edgeless_pair():
    gw = Graph(2)
    out = weighted_to_unweighted(gw, 0, w=1)
    assert out.graph.n == 6
    assert brute_bisection(out.graph).optimum == 0


def test_weight_removal_needs_even_vertex_count():
    """With an odd number of vertices the cliques cannot split evenly, so
    the construction stops being an equivalence.  The triangle with unit
    weights and budget 2 is a weighted yes whose image is far from it."""
    tri = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert brute_bisection(tri, edge_weighted=True).optimum == 2
    out = weighted_to_unweighted(tri, 2, w=1)
    assert out.graph.n == 15  # three 5-cliques
    assert brute_bisection(out.graph).optimum == 8


def test_weight_removal_rejects_overweight_edges():
    gw = Graph(2, [(1, 2)], edge_weights={(1, 2): 5})
    with pytest.raises(ValueError, match="disjoint edges"):
        weighted_to_unweighted(gw, 0, w=1)
    with pytest.raises(ValueError):
        weighted_to_unweighted(Graph(2, [(1, 2)]), -1)


def test_weight_removal_preserves_answers_even_inputs():
    cases = 0
    for seed in range(80):
        r = random.Random(seed)
        n = r.choice([2, 4])
        pool = list(combinations(range(1, n + 1), 2))
        r.shuffle(pool)
        edges = sorted(pool[: r.randint(0, min(3, len(pool)))])
        ew = {e: r.randint(1, 3) for e in edges}
        gw = Graph(n, edges, edge_weights=ew)
        k_star = r.randint(0, 3)
        w = max(ew.values(), default=1)
        if n * (w + k_star + 2) > 20:
            continue
        want = brute_bisection(gw, edge_weighted=True).optimum <= k_star
        out = weighted_to_unweighted(gw, k_star)
        assert (brute_bisection(out.graph).optimum <= k_star) == want, (seed, edges)
        cases += 1
    assert cases >= 40


# --------------------------------------------------------------------------
# bin packing -> forest
# --------------------------------------------------------------------------


def test_binpacking_exact_fit():
    out = binpacking_to_forest([2, 2, 2], 3, 2)
    assert out.graph.n == 6
    assert out.params == {"k": 0, "d": 3}
    assert brute_balanced_partition(out.graph, 3).optimum == 0


def test_binpacking_pads_with_unit_items():
    out = binpacking_to_forest([1, 1], 2, 2)
    assert out.graph.n == 4
    assert out.roles("item:1") + out.roles("item:2") == [1, 2]
    assert len(out.roles("filler-item:3")) == 1
    assert len(out.roles("filler-item:4")) == 1
    assert "padded with 2 unit items" in out.provenance


def test_binpacking_trivial_no():
    out = binpacking_to_forest([3, 3], 2, 2)
    assert out.params["trivial"] == "no"
    assert out.graph.n == 2 and out.graph.m == 1


def test_binpacking_output_is_a_forest_of_paths():
    out = binpacking_to_forest([3, 1, 4], 3, 4)
    g = out.graph
    assert all(g.degree(v) <= 2 for v in g.vertices)
    assert len(connected_components(g)) == g.n - g.m  # acyclic


def test_binpacking_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        binpacking_to_forest([0, 1], 2, 2)
    with pytest.raises(ValueError, match="positive"):
        binpacking_to_forest([1], 0, 2)


def brute_force_packable(weights, b, cap):
    for assign in product(range(b), repeat=len(weights)):
        loads = [0] * b
        for wt, a in zip(weights, assign):
            loads[a] += wt
        if all(l <= cap for l in loads):
            return True
    return False


def test_binpacking_preserves_answers_small():
    for seed in range(60):
        r = random.Random(seed)
        b = r.randint(1, 3)
        cap = r.randint(1, 12 // b)
        weights = [r.randint(1, 4) for _ in range(r.randint(1, 4))]
        want = sum(weights) <= b * cap and brute_force_packable(weights, b, cap)
        out = binpacking_to_forest(weights, b, cap)
        if out.params.get("trivial") == "no":
            got = False
        else:
            got = brute_balanced_partition(out.graph, b).optimum == 0
        assert got == want, (seed, weights, b, cap)


# --------------------------------------------------------------------------
# choice gadgets
# --------------------------------------------------------------------------


def test_choice_gadget_examples():
    cg = make_choice_gadget([1, 3], 4)
    assert cg.spine == (1, 2, 3)
    assert cg.pendants == (1, 1, 1)
    assert cg.total_vertices == 6
    assert cg.side_sizes(2) == (3, 1)

    cg2 = make_choice_gadget([2], 2)
    assert cg2.spine == (1, 2)
    assert cg2.pendants == (2, 0)
    assert cg2.total_vertices == 4


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_choice_gadget_cut_positions_select_admissible_values(b, seed):
    rng = random.Random(seed)
    vals = sorted(rng.sample(range(0, b + 1), rng.randint(1, min(6, b + 1))))
    cg = make_choice_gadget(vals, b)
    assert cg.total_vertices == b + 2
    assert sum(cg.pendants) + len(cg.spine) == b + 2
    for p in range(1, len(vals) + 1):
        left, right = cg.side_sizes(p)
        assert (left, right) == (vals[p - 1], b - vals[p - 1])


def test_choice_gadget_rejects_bad_inputs():
    with pytest.raises(ValueError, match="strictly increasing"):
        make_choice_gadget([3, 1], 5)
    with pytest.raises(ValueError, match="lie in"):
        make_choice_gadget([6], 5)
    with pytest.raises(ValueError, match="budget"):
        make_choice_gadget([1], 0)
    with pytest.raises(ValueError, match="at least one"):
        make_choice_gadget([], 5)
    with pytest.raises(ValueError, match="lie in"):
        ChoiceGadget(a_set=(1, 5), b=4)
    with pytest.raises(ValueError, match="cut position"):
        make_choice_gadget([1, 3], 4).side_sizes(3)


# --------------------------------------------------------------------------
# multicolored clique -> balanced partitioning
# --------------------------------------------------------------------------


def test_mcclique_on_a_single_edge():
    out = mcclique_to_bpart(Graph(2, [(1, 2)]), {1: 1, 2: 2}, 2)
    # one edge gets padded to two, so z0 = 2*2 + 10
    assert "z0=14" in out.provenance
    assert "padded with one isolated edge" in out.provenance
    assert out.params["k"] == 6 and out.params["d"] == 4
    assert out.params["part_size"] == 10 * 14 * (4 + 2) + 2 // 2 + 1 == 842
    assert out.graph.n == 4 * 842
    assert out.params["small_input"] is True
    assert "below the documented size threshold" in out.provenance
    assert len(connected_components(out.graph)) == 1


def test_mcclique_anchor_pendant_counts():
    out = mcclique_to_bpart(Graph(2, [(1, 2)]), {1: 1, 2: 2}, 2)
    # color 1 owns three of the four padded vertices, color 2 one
    assert len(out.roles("anchor-pendant:1.2.head")) == 840 - 14 * 3 - 1
    assert len(out.roles("anchor-pendant:2.1.head")) == 840 - 14 * 1 - 1
    anchors = [t for t in out.vertex_roles.values() if t.startswith("anchor:")]
    assert len(anchors) == out.params["d"]


def test_mcclique_triangle_three_colors():
    out = mcclique_to_bpart(
        Graph(3, [(1, 2), (1, 3), (2, 3)]), {1: 1, 2: 2, 3: 3}, 3
    )
    part = 10 * 18 * (5 + 4) + 4 // 2 + 1
    assert out.params["part_size"] == part == 1623
    assert out.graph.n == 12 * part == 19476
    assert out.params["k"] == 18 and out.params["d"] == 12
    assert out.graph.n % out.params["d"] == 0
    assert len(connected_components(out.graph)) == 1


def test_mcclique_flag_clears_at_the_size_threshold():
    g = Graph(4, [(1, 3), (2, 4)])
    out = mcclique_to_bpart(g, {1: 1, 2: 1, 3: 2, 4: 2}, 2)
    assert out.params["small_input"] is False
    assert "padded" not in out.provenance
    assert out.graph.n == 4 * 842


def test_mcclique_rejects_bad_colorings():
    e = Graph(2, [(1, 2)])
    with pytest.raises(ValueError, match="at least two colors"):
        mcclique_to_bpart(e, {1: 1, 2: 1}, 1)
    with pytest.raises(ValueError, match="proper"):
        mcclique_to_bpart(e, {1: 1, 2: 1}, 2)
    with pytest.raises(ValueError, match="every vertex"):
        mcclique_to_bpart(e, {1: 1}, 2)
    with pytest.raises(ValueError, match="lie in"):
        mcclique_to_bpart(e, {1: 1, 2: 5}, 2)
    with pytest.raises(ValueError, match="color class 3 is empty"):
        mcclique_to_bpart(e, {1: 1, 2: 2}, 3)
    with pytest.raises(ValueError, match="no edge joins"):
        mcclique_to_bpart(Graph(2), {1: 1, 2: 2}, 2)


def test_mcclique_is_deterministic():
    g = Graph(4, [(1, 3), (2, 4), (1, 4)])
    col = {1: 1, 2: 1, 3: 2, 4: 2}
    a = mcclique_to_bpart(g, col, 2)
    b = mcclique_to_bpart(g, col, 2)
    assert a.graph.key() == b.graph.key()
    assert a.provenance == b.provenance
    assert a.vertex_roles == b.vertex_roles


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------


def test_reductions_reject_weighted_inputs():
    vw = Graph(2, [(1, 2)], vertex_weights={1: 2, 2: 1})
    ew = Graph(2, [(1, 2)], edge_weights={(1, 2): 2})
    for g in (vw, ew):
        with pytest.raises(ValueError, match="unweighted"):
            clique_to_vbisect(g, 2)
        with pytest.raises(ValueError, match="unweighted"):
            bisect_to_vbisect(g, 1)
    with pytest.raises(ValueError, match="unit vertex weights"):
        weighted_to_unweighted(vw, 1)


def test_provenance_mentions_generator_and_input_shape():
    out = clique_to_vbisect(complete_graph(3), 2)
    assert out.provenance.startswith("clique-to-vertex-bisection: n=3 m=3 k=2")
    out2 = bisect_to_vbisect(Graph(2, [(1, 2)]), 1)
    assert "n=2 m=1 k=1" in out2.provenance


def test_builder_refuses_a_repeated_pair_and_a_wrong_count():
    gb = _Builder()
    u, v = gb.block(2, "end")
    gb.edge(u, v)
    with pytest.raises(ValueError, match="parallel edge"):
        gb.edge(v, u, weight=3)
    with pytest.raises(ValueError, match="parallel edge"):
        gb.clique([u, v])
    with pytest.raises(RuntimeError, match="formula value 3"):
        gb.output({}, "", 3)
    assert gb.output({}, "", 2).graph.edges() == [(1, 2)]


def test_every_generator_checks_its_closed_form_count(monkeypatch):
    expects = []
    output = _Builder.output

    def spy(self, params, provenance, expect):
        expects.append(expect)
        return output(self, params, provenance, expect)

    monkeypatch.setattr(_Builder, "output", spy)
    edge = Graph(2, [(1, 2)])
    outs = [
        clique_to_vbisect(complete_graph(3), 2),  # 2n + 2m - k - 2 C(k, 2)
        bisect_to_vbisect(edge, 1),  # n (3m + 2) + m + 2 (5nm) + m - 1
        maxcut_cross_compose([(edge, 1)] * 2),  # 2n t, t padded to odd
        weighted_to_unweighted(Graph(2, [(1, 2)], edge_weights={(1, 2): 2}), 1),
        binpacking_to_forest([2, 1], 2, 2),  # b cap
        mcclique_to_bpart(edge, {1: 1, 2: 2}, 2),  # d n0
    ]
    assert expects == [
        2 * 3 + 2 * 3 - 2 - 2 * 1,
        2 * 5 + 1 + 2 * 10 + 0,
        2 * 2 * 3,
        2 * (2 + 1 + 2),  # n (W + k + 2)
        2 * 2,
        4 * 842,
    ]
    assert [out.graph.n for out in outs] == expects


def _pinned_calls():
    """A fixed, seeded set of small calls reaching every generator branch."""
    rng = random.Random(21)

    def some_graph(n, p):
        return Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])

    calls = []
    for n in range(2, 7):
        g = some_graph(n, 0.6)
        # odd k goes through the universal vertex; small n + m hits "too small"
        calls += [(clique_to_vbisect, g, k) for k in range(n + 1)]
    for n in (2, 3):
        g = some_graph(n, 0.8)
        calls += [(bisect_to_vbisect, g, k) for k in range(1, g.m + 1)]
    for n in (1, 2, 3):
        for t in (1, 2, 3):
            insts = [some_graph(n, 0.5) for _ in range(t)]
            # k = 0 is a trivial yes, k = n^2 + 1 a trivial no
            calls += [(maxcut_cross_compose, [(h, k) for h in insts])
                      for k in (0, 1, 2, n * n + 1)]
    for n in (2, 3, 4):
        g = some_graph(n, 0.7)
        gw = Graph(n, g.edges(), edge_weights={e: rng.randint(1, 3) for e in g.edges()})
        calls += [(weighted_to_unweighted, gw, ks, w) for ks in (0, 2) for w in (None, 1, 4)]
    for b in (1, 2, 3):
        for cap in (2, 5):
            items = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            calls.append((binpacking_to_forest, items, b, cap))
    two = {1: 1, 2: 1, 3: 2, 4: 2}
    calls += [
        (mcclique_to_bpart, Graph(2, [(1, 2)]), {1: 1, 2: 2}, 2),
        (mcclique_to_bpart, Graph(4, [(1, 3), (2, 4), (1, 4)]), two, 2),
        (mcclique_to_bpart, Graph(4, [(1, 3), (2, 4)]), two, 2),
        (mcclique_to_bpart, complete_graph(3), {1: 1, 2: 2, 3: 3}, 3),
    ]
    return calls


def test_generator_bytes_are_pinned():
    """Graph text, params, provenance and roles of every pinned call hash to
    the digest taken at commit ab78772; any change to a generator's output
    moves it."""
    digest = hashlib.sha256()
    for fn, *args in _pinned_calls():
        try:
            out = fn(*args)
        except ValueError as exc:
            digest.update(f"{fn.__name__} refused: {exc}\n".encode())
            continue
        digest.update(emit_graph(out.graph).encode())
        digest.update(repr(sorted(out.params.items())).encode())
        digest.update(out.provenance.encode())
        digest.update(repr(sorted(out.vertex_roles.items())).encode())
    assert digest.hexdigest() == (
        "9334e405a3d818fb82479d31f9bfa89b33780c6f40d8edb44cd746c11f78d31e"
    )
