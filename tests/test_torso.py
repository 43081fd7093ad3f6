"""Contractions, small-separator enumeration, and trimmers."""

import random
from itertools import combinations

import pytest

from balcut.graph import (
    Graph,
    adjacency_masks,
    connected_components,
    cycle_graph,
    path_graph,
    star_graph,
)
from balcut.torso import (
    AnnotatedTorso,
    _unavoidable,
    _vertex_connectivity_at_least,
    atorso,
    build_trimmer,
    minimal_st_separators,
    separator_hull,
    torso,
)
from balcut.td import exact_treewidth_small

from .conftest import (
    all_graphs_up_to_iso,
    connected_graphs_up_to_iso,
    grid_graph,
    random_connected_graph,
    random_graph,
    random_tree,
)
from .showcase import (
    SHOWCASE_HULL,
    SHOWCASE_MINIMAL_SEPARATORS,
    SHOWCASE_S,
    SHOWCASE_T,
    SHOWCASE_TRIMMED_COMPONENTS,
    SHOWCASE_TRIMMED_KEPT,
    c6_contraction,
    star_contraction,
    tangled_contraction,
    two_terminal_showcase,
    two_terminal_showcase_trimmed,
)


# ---------------------------------------------------------------- atorso --


@pytest.mark.parametrize(
    "case", [c6_contraction, star_contraction, tangled_contraction]
)
def test_contraction_cases(case):
    g, w, expected_atorso, expected_torso = case()
    at = atorso(g, w)
    assert at.g_prime == expected_atorso
    assert torso(g, w) == expected_torso


def test_atorso_full_w_is_identity():
    g = random_graph(9, 0.4, seed=5)
    at = atorso(g, g.vertices)
    assert at.g_prime == g
    assert at.component_vertices == frozenset()
    assert all(at.phi[v] == v for v in g.vertices)
    assert torso(g, g.vertices) == g


def test_atorso_rejects_unknown_vertex():
    with pytest.raises(ValueError, match="unknown"):
        atorso(path_graph(3), {1, 4})


def test_atorso_mapping_shape():
    for seed in range(12):
        g = random_graph(10, 0.3, seed=seed)
        rng = random.Random(seed)
        w = frozenset(v for v in g.vertices if rng.random() < 0.5)
        at = atorso(g, w)
        n_comps = len(connected_components(g, within=set(g.vertices) - w))
        # size formula and W-identity (after relabelling W into 1..|W|)
        assert len(at.g_prime.vertices) == len(w) + n_comps
        ws = sorted(w)
        assert all(at.phi[v] == ws.index(v) + 1 for v in ws)
        # phi total and surjective
        assert set(at.phi) == set(g.vertices)
        assert set(at.phi.values()) == set(at.g_prime.vertices)
        # component vertices form an independent set: two distinct
        # components are never adjacent, else they were one component
        for a, b in combinations(sorted(at.component_vertices), 2):
            assert not at.g_prime.has_edge(a, b)
        # phi_inv really inverts phi
        for v in g.vertices:
            assert v in at.phi_inv[at.phi[v]]
        assert at.pull_back(at.g_prime.vertices) == frozenset(g.vertices)


def test_atorso_component_correspondence():
    # Removing S from the contracted graph tears G along phi^{-1}(S) with
    # component structure preserved one-to-one.  Exhaustive over tiny
    # graphs and all W, sampled for larger ones.
    def check(g, w, at, s_prime):
        g_comps = connected_components(g, within=set(g.vertices) - at.pull_back(s_prime))
        gp_comps = connected_components(
            at.g_prime, within=set(at.g_prime.vertices) - s_prime
        )
        assert len(g_comps) == len(gp_comps)
        matched = set()
        for comp in g_comps:
            image = frozenset(at.phi[v] for v in comp)
            homes = [i for i, d in enumerate(gp_comps) if image <= d]
            assert len(homes) == 1
            matched.add(homes[0])
        assert len(matched) == len(gp_comps)

    for g in all_graphs_up_to_iso(4):
        verts = sorted(g.vertices)
        for bits in range(1 << g.n):
            w = frozenset(v for i, v in enumerate(verts) if bits >> i & 1)
            at = atorso(g, w)
            for sbits in range(1 << len(at.g_prime.vertices)):
                s_prime = frozenset(
                    v for i, v in enumerate(sorted(at.g_prime.vertices)) if sbits >> i & 1
                )
                check(g, w, at, s_prime)

    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng.randint(5, 10), rng.uniform(0.2, 0.6), seed=rng.randrange(10**6))
        w = frozenset(v for v in g.vertices if rng.random() < 0.5)
        at = atorso(g, w)
        s_prime = frozenset(v for v in at.g_prime.vertices if rng.random() < 0.4)
        check(g, w, at, s_prime)


def test_atorso_treewidth_close_to_torso():
    # Keeping the component blobs around costs at most one extra unit of
    # treewidth over the torso.
    rng = random.Random(3)
    cases = []
    for g in connected_graphs_up_to_iso(5):
        verts = sorted(g.vertices)
        cases.append((g, frozenset(verts[::2])))
        cases.append((g, frozenset(verts[:3])))
    for _ in range(25):
        g = random_connected_graph(rng.randint(6, 8), 0.4, seed=rng.randrange(10**6))
        w = frozenset(v for v in g.vertices if rng.random() < 0.5) or frozenset({1})
        cases.append((g, w))
    for g, w in cases:
        tw_at, _ = exact_treewidth_small(atorso(g, w).g_prime)
        tw_t, _ = exact_treewidth_small(torso(g, w))
        assert tw_at <= tw_t + 1


# ---------------------------------------------- minimal_st_separators ----


def test_separators_path():
    assert minimal_st_separators(path_graph(3), 1, 3, 1) == {frozenset({2})}


def test_separators_c4():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert minimal_st_separators(g, 1, 3, 2) == {frozenset({2, 4})}


def test_separators_terminal_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        minimal_st_separators(g, 2, 2, 1)
    with pytest.raises(ValueError):
        minimal_st_separators(g, 1, 9, 1)


def test_separators_adjacent_is_none():
    assert minimal_st_separators(path_graph(2), 1, 2, 3) is None


def test_separators_disconnected_is_empty_separator():
    g = Graph(4, [(1, 2), (3, 4)])
    assert minimal_st_separators(g, 1, 3, 2) == {frozenset()}


def test_separators_cut_above_budget():
    # K4 minus the (1,3) edge: the only separator is {2,4}, so k=1 is empty
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
    assert minimal_st_separators(g, 1, 3, 1) == set()


def test_separators_showcase():
    g = two_terminal_showcase()
    got = minimal_st_separators(g, SHOWCASE_S, SHOWCASE_T, 3)
    assert got == set(SHOWCASE_MINIMAL_SEPARATORS)


def _brute_minimal_separators(g, s, t, k):
    def separates(blocked):
        seen = {s} | set(blocked)
        stack = [s]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return t not in seen

    if g.has_edge(s, t):
        return None
    pool = [v for v in g.vertices if v not in (s, t)]
    seps = set()
    for size in range(0, k + 1):
        for combo in combinations(pool, size):
            if separates(combo):
                seps.add(frozenset(combo))
    return {a for a in seps if not any(b < a for b in seps)}


def test_separators_match_brute_force():
    rng = random.Random(41)
    for _ in range(80):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.2, 0.7), seed=rng.randrange(10**6))
        s, t = rng.sample(sorted(g.vertices), 2)
        k = rng.randint(0, 3)
        assert minimal_st_separators(g, s, t, k) == _brute_minimal_separators(g, s, t, k)


def test_separators_match_brute_force_on_long_paths():
    # Cycles, ladders and grids have long shortest s-t paths, so the search
    # takes many branches per state and leans on the rule that excludes the
    # path vertices before the chosen one.  k runs from below the s-t
    # connectivity (no separator fits) to above it.
    rng = random.Random(61)
    graphs = [cycle_graph(9), cycle_graph(12), grid_graph(2, 5), grid_graph(2, 6), grid_graph(3, 4)]
    graphs += [
        random_graph(rng.randint(10, 12), rng.uniform(0.2, 0.5), seed=rng.randrange(10**6))
        for _ in range(6)
    ]
    below = within = 0
    for g in graphs:
        pairs = [(1, g.n)] + [tuple(rng.sample(sorted(g.vertices), 2)) for _ in range(2)]
        for s, t in pairs:
            for k in range(6):
                want = _brute_minimal_separators(g, s, t, k)
                assert minimal_st_separators(g, s, t, k) == want, (g.edges(), s, t, k)
                below += want == set()
                within += bool(want) and want != {frozenset()}
    assert below >= 20 and within >= 50


def test_vertex_connectivity_matches_smallest_brute_separator():
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.2, 0.7), seed=rng.randrange(10**6))
        s, t = rng.sample(sorted(g.vertices), 2)
        seps = _brute_minimal_separators(g, s, t, g.n)
        if seps is None:
            continue
        connectivity = min(len(sep) for sep in seps)
        for bound in range(5):
            assert _vertex_connectivity_at_least(g, s, t, bound) == (connectivity >= bound)
        checked += 1
    assert checked > 30


def _reference_minimal_separators(g, s, t, k):
    # The same branching search on vertex sets, without the last-level
    # filter: every child is pushed, and a child with |X| = k that still has
    # an s-t path is dropped when it is popped.
    def st_path(src, dst, blocked):
        prev = {src: src}
        queue = [src]
        for v in queue:
            for u in g.neighbors(v):
                if u in prev or u in blocked:
                    continue
                if u == dst:
                    inner = []
                    while v != src:
                        inner.append(v)
                        v = prev[v]
                    return inner[::-1], None
                prev[u] = v
                queue.append(u)
        return None, prev.keys()

    if g.has_edge(s, t):
        return None
    if st_path(s, t, frozenset())[0] is None:
        return {frozenset()}
    found = set()
    stack = [(frozenset(), frozenset())]
    while stack:
        x, f = stack.pop()
        path, s_side = st_path(s, t, x)
        if path is None:
            _, t_side = st_path(t, s, x)
            if all(
                any(u in s_side for u in g.neighbors(v)) and any(u in t_side for u in g.neighbors(v))
                for v in x
            ):
                found.add(x)
        elif len(x) < k:
            free = [v for v in path if v not in f]
            for i, v in enumerate(free):
                stack.append((x | {v}, f.union(free[:i])))
    return found


def _check_against_reference(g, s, t, k):
    want = _reference_minimal_separators(g, s, t, k)
    assert minimal_st_separators(g, s, t, k) == want, (g.edges(), s, t, k)
    return want


@pytest.mark.parametrize("r", [5, 6, 7])
def test_separators_match_reference_on_grids(r):
    # corners (two at once at k = 2, 3), interior vertices of degree 4, and
    # an interior vertex against a corner; brute force cannot reach these
    g = grid_graph(r, r)
    corner, far, side = 1, r * r, r
    inner, inner_far = r + 2, r * r - r - 1
    found = 0
    for s, t in [(corner, far), (corner, side), (inner, inner_far), (inner, far)]:
        for k in range(1, 6):
            found += len(_check_against_reference(g, s, t, k))
    assert found > 300


def test_separators_match_reference_on_showcase_and_sparse_random():
    g = two_terminal_showcase()
    for k in range(6):
        _check_against_reference(g, SHOWCASE_S, SHOWCASE_T, k)
    rng = random.Random(43)
    found = 0
    for _ in range(12):
        g = random_graph(40, 0.1, seed=rng.randrange(10**6))
        s, t = rng.sample(sorted(g.vertices), 2)
        for k in range(6):
            found += len(_check_against_reference(g, s, t, k) or ())
    assert found > 100


def _unavoidable_on(g, path, blocked=()):
    return _unavoidable(adjacency_masks(g), path, sum(1 << v for v in blocked))


def test_unavoidable_component_touching_one_vertex():
    # 6 hangs off 3 only, so it bypasses nothing
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    assert _unavoidable_on(g, [1, 2, 3, 4, 5]) == [True] * 5


def test_unavoidable_component_touching_both_terminals():
    # the other half of a 6-cycle joins s to t, so no inner vertex is a cut
    g = cycle_graph(6)
    assert _unavoidable_on(g, [1, 2, 3, 4]) == [True, False, False, True]


def test_unavoidable_partial_bypass():
    # 6 joins positions 1 and 3 of the path 1-2-3-4-5: only 3 is skipped
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 4)])
    assert _unavoidable_on(g, [1, 2, 3, 4, 5]) == [True, True, False, True, True]


def test_unavoidable_one_inner_vertex():
    assert _unavoidable_on(path_graph(3), [1, 2, 3]) == [True, True, True]
    assert _unavoidable_on(cycle_graph(4), [1, 2, 3]) == [True, False, True]


def test_unavoidable_ignores_blocked_vertices():
    # the bypass of the 6-cycle runs through 5; blocking 5 cuts it
    g = cycle_graph(6)
    assert _unavoidable_on(g, [1, 2, 3, 4], blocked=[5]) == [True] * 4
    assert _unavoidable_on(g, [1, 2, 3, 4], blocked=[6]) == [True] * 4


def test_separators_are_separators_and_minimal():
    g = random_connected_graph(10, 0.35, seed=1)
    seps = minimal_st_separators(g, 1, 10, 3)
    assert seps, "sample graph should have small separators"
    for sep in seps:
        assert len(sep) <= 3
        rest = set(g.vertices) - sep
        comps = connected_components(g, within=rest)
        side = {v: i for i, c in enumerate(comps) for v in c}
        assert side[1] != side[10]


# ------------------------------------------------------ separator_hull ---


def test_hull_path_interior():
    assert separator_hull(path_graph(5), [1, 5], 1) == frozenset({2, 3, 4})


def test_hull_disconnected_terminals():
    g = Graph(4, [(1, 2), (3, 4)])
    assert separator_hull(g, [1, 3], 2) == frozenset()


def test_hull_adjacent_pair_contributes_nothing():
    # 1-2 adjacent: only the (1,3) and (2,3) pairs contribute
    g = Graph(5, [(1, 2), (1, 4), (4, 3), (2, 5), (5, 3)])
    assert separator_hull(g, [1, 2, 3], 2) == frozenset({4, 5})


def test_hull_fewer_than_two_terminals():
    g = path_graph(4)
    assert separator_hull(g, [2], 3) == frozenset()
    assert separator_hull(g, [], 3) == frozenset()


def test_hull_showcase():
    g = two_terminal_showcase()
    assert separator_hull(g, [SHOWCASE_S, SHOWCASE_T], 3) == SHOWCASE_HULL


def test_hull_never_contains_terminals():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng.randint(4, 9), 0.4, seed=rng.randrange(10**6))
        terms = rng.sample(sorted(g.vertices), rng.randint(2, 3))
        hull = separator_hull(g, terms, rng.randint(0, 3))
        assert hull.isdisjoint(terms)


# ------------------------------------------------------- build_trimmer ---


def test_trimmer_showcase_exact():
    tr = build_trimmer(two_terminal_showcase(), 3, [SHOWCASE_S, SHOWCASE_T])
    assert tr.g_star == two_terminal_showcase_trimmed()
    for orig, new in SHOWCASE_TRIMMED_KEPT.items():
        assert tr.phi[orig] == new
    assert tr.component_vertices == frozenset(SHOWCASE_TRIMMED_COMPONENTS)
    for cid, pre in SHOWCASE_TRIMMED_COMPONENTS.items():
        assert tr.phi_inv[cid] == pre


def test_trimmer_showcase_preserves_separators():
    # every small minimal separator survives the contraction pointwise and
    # stays minimal on the other side
    g = two_terminal_showcase()
    tr = build_trimmer(g, 3, [SHOWCASE_S, SHOWCASE_T])
    star_seps = minimal_st_separators(
        tr.g_star, tr.phi[SHOWCASE_S], tr.phi[SHOWCASE_T], 3
    )
    for sep in SHOWCASE_MINIMAL_SEPARATORS:
        image = frozenset(tr.phi[v] for v in sep)
        assert image == frozenset(SHOWCASE_TRIMMED_KEPT[v] for v in sep)
        assert all(tr.phi_inv[tr.phi[v]] == frozenset({v}) for v in sep)
        assert image in star_seps


def test_trimmer_tree_is_path_contraction():
    # on a tree the hull of two leaves is the interior of the unique path,
    # so trimming equals contracting everything hanging off that path
    rng = random.Random(23)
    for _ in range(15):
        g = random_tree(rng.randint(4, 12), seed=rng.randrange(10**6))
        leaves = [v for v in g.vertices if g.degree(v) == 1]
        s, t = rng.sample(leaves, 2)
        parent = {s: None}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        path = []
        v = t
        while v is not None:
            path.append(v)
            v = parent[v]
        k = rng.randint(1, 3)
        tr = build_trimmer(g, k, [s, t])
        assert separator_hull(g, [s, t], k) == frozenset(path) - {s, t}
        assert tr.g_star == atorso(g, set(path)).g_prime


def test_trimmer_k0_is_terminal_atorso():
    g = random_connected_graph(8, 0.4, seed=2)
    tr = build_trimmer(g, 0, [1, 8])
    assert isinstance(tr, AnnotatedTorso)
    assert tr.g_star == atorso(g, {1, 8}).g_prime
    assert tr.k == 0
    assert tr.terminals == frozenset({1, 8})


def _check_trimmer_properties(g, k, s, t):
    tr = build_trimmer(g, k, [s, t])
    seps = minimal_st_separators(g, s, t, k)
    if seps in (None, set()):
        return
    star_seps = minimal_st_separators(tr.g_star, tr.phi[s], tr.phi[t], k)
    for sep in seps:
        image = frozenset(tr.phi[v] for v in sep)
        # pointwise fixed: every separator vertex is its own image
        assert all(tr.phi_inv[tr.phi[v]] == frozenset({v}) for v in sep)
        assert image in star_seps
        assert tr.pull_back(image) == sep
    # component structure: removing a preserved separator tears both
    # graphs into corresponding pieces
    for sep in seps:
        image = frozenset(tr.phi[v] for v in sep)
        g_comps = connected_components(g, within=set(g.vertices) - sep)
        star_comps = connected_components(
            tr.g_star, within=set(tr.g_star.vertices) - image
        )
        assert len(g_comps) == len(star_comps)


def test_trimmer_properties_small_graphs():
    for g in connected_graphs_up_to_iso(5):
        verts = sorted(g.vertices)
        for s, t in combinations(verts, 2):
            for k in range(0, 4):
                _check_trimmer_properties(g, k, s, t)


def test_trimmer_properties_sampled():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected_graph(
            rng.randint(6, 10), rng.uniform(0.25, 0.5), seed=rng.randrange(10**6)
        )
        s, t = rng.sample(sorted(g.vertices), 2)
        _check_trimmer_properties(g, rng.randint(0, 3), s, t)
