"""Whole-contract acceptance checks: one test per library guarantee.

Each test exercises one end-to-end promise on a sized corpus, so reading
the nine pass/fail lines of

    pytest tests/test_acceptance.py -v

gives the state of the contract at a glance.  Fine-grained coverage lives
in the per-module test files.

The showcase trim is held against its hand-worked 14-vertex graph.  The
12-vertex drawing the showcase was first sketched with is kept as a checked
counter-example: it contracts vertex 8 of the minimal separator {1, 8, 12},
and the fixture test asserts why that makes it an invalid trim.
"""

import random
from itertools import combinations, product

from balcut.cli import main as cli_main
from balcut.cwcut import solve_bisection_cwd
from balcut.formats import emit_graph, emit_solution, parse_graph, parse_solution
from balcut.graph import (
    Graph,
    connected_components,
    cut_size,
    is_balanced_separator,
    validate_bisection,
)
from balcut.oracle import (
    brute_balanced_partition,
    brute_bisection,
    brute_maxcut,
    brute_vertex_bisection,
)
from balcut.qexpr import forest_qexpr
from balcut.reductions import (
    binpacking_to_forest,
    bisect_to_vbisect,
    clique_to_vbisect,
    make_choice_gadget,
    maxcut_cross_compose,
    mcclique_to_bpart,
    weighted_to_unweighted,
)
from balcut.td import exact_treewidth_small, make_nice
from balcut.torso import atorso, build_trimmer, minimal_st_separators, torso
from balcut.vbp import sep_dp, solve_vertex_bisection
from balcut.vcpart import min_vertex_cover, solve_balanced_partition_vc

from .conftest import (
    all_graphs_up_to_iso,
    balanced_separator_exists_blocks,
    connected_graphs_up_to_iso,
    free_trees,
    minimum_feedback_vertex_set,
    quotient_blocks,
    random_connected_graph,
    random_graph,
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
    two_terminal_showcase_reduction_target,
    two_terminal_showcase_trimmed,
)


# --------------------------------------------------------------------------
# 1. expression-driven bisection vs brute force
# --------------------------------------------------------------------------


def test_cw_expression_dp_matches_bisection_oracle():
    """Expression-driven bisection equals brute force on every tree shape
    with up to ten vertices, and on 200 seeded graphs solved through a
    smallest cycle-breaking deletion set."""
    shapes = 0
    for n in range(2, 11):
        for t in free_trees(n):
            bip, cut = solve_bisection_cwd(t, frozenset(), forest_qexpr(t))
            assert validate_bisection(t, bip, cut)
            assert cut == brute_bisection(t).optimum, sorted(t.edges())
            shapes += 1
    assert shapes == 200  # the census of tree shapes on 2..10 vertices

    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.2, 0.7), seed=rng.randrange(10**6))
        d = minimum_feedback_vertex_set(g)
        bip, cut = solve_bisection_cwd(g, d, forest_qexpr(g, d))
        assert validate_bisection(g, bip, cut)
        assert cut == brute_bisection(g).optimum, (sorted(g.edges()), sorted(d))


# --------------------------------------------------------------------------
# 2. balanced-separator driver vs brute force
# --------------------------------------------------------------------------


def test_vertex_bisection_driver_agrees_with_oracle():
    """solve_vertex_bisection finds a c-component balanced separator within
    budget exactly when brute force does, every returned witness
    revalidates, and its size is the brute-force optimum.  Corpus: all connected graphs up to isomorphism on <= 5
    vertices plus 500 seeded connected graphs on 6..8 vertices, each
    crossed with k <= 3 and c in {2, 3}."""

    def check(g):
        for k in range(4):
            for c in (2, 3):
                got = solve_vertex_bisection(g, k, c)
                want = brute_vertex_bisection(g, k, c=c)
                assert (got is not None) == want.feasible, (sorted(g.edges()), k, c)
                if got is not None:
                    assert got.is_valid(g)
                    assert is_balanced_separator(g, got)
                    assert len(got.s) <= k
                    assert len(got.s) == want.optimum, (sorted(g.edges()), k, c)
                    assert len(connected_components(g, within=got.a | got.b)) == c

    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            check(g)
    rng = random.Random(977)
    for _ in range(500):
        n = rng.randint(6, 8)
        check(random_connected_graph(n, rng.uniform(0.25, 0.6), seed=rng.randrange(10**6)))


# --------------------------------------------------------------------------
# 3. separator DP root values vs brute force
# --------------------------------------------------------------------------


def test_separator_dp_root_values_match_brute_force():
    """Every (component count, side weight) value above the root of the
    separator DP equals the brute-force minimum separator weight, for
    component counts up to 3, on 200 seeded graphs of treewidth <= 4 with
    alternating unit and random vertex weights."""

    def brute_values(g, c_max):
        best = {}
        verts = list(g.vertices)
        for r in range(g.n + 1):
            for s_combo in combinations(verts, r):
                s = frozenset(s_combo)
                comps = connected_components(g, within=(v for v in verts if v not in s))
                if len(comps) > c_max:
                    continue
                lam = g.weight_of(s)
                for mask in range(1 << len(comps)):
                    ell = sum(
                        g.weight_of(comps[i]) for i in range(len(comps)) if mask >> i & 1
                    )
                    key = (len(comps), ell)
                    if key not in best or lam < best[key]:
                        best[key] = lam
        return best

    rng = random.Random(31337)
    accepted = 0
    while accepted < 200:
        n = rng.randint(4, 10)
        base = random_graph(n, rng.uniform(0.2, 0.45), seed=rng.randrange(10**6))
        width, td = exact_treewidth_small(base)
        if width > 4:
            continue
        if accepted % 2:
            g = Graph(
                n,
                base.edges(),
                vertex_weights={v: rng.randint(1, 3) for v in base.vertices},
            )
        else:
            g = base
        table = sep_dp(g, make_nice(td), 3)
        got = {key: e.value for key, e in table.entries.items()}
        assert got == brute_values(g, 3), sorted(g.edges())
        accepted += 1


# --------------------------------------------------------------------------
# 4. trimmer separator and component properties
# --------------------------------------------------------------------------


def test_trimmer_preserves_separators_and_components():
    """Trimming keeps every inclusion-minimal two-terminal separator within
    budget pointwise intact, and deleting any vertex set of the trimmed
    graph tears it and the original into corresponding components.
    Exhaustive over connected graphs up to isomorphism on <= 5 vertices
    (every terminal pair, every k <= 3, a handful of sampled deletions
    each), then 60 seeded graphs on 6..10 vertices with 100 sampled
    deletions per graph."""
    rng = random.Random(4242)

    def check(g, k, s, t, samples):
        tr = build_trimmer(g, k, [s, t])
        seps = minimal_st_separators(g, s, t, k)
        if seps:
            star = minimal_st_separators(tr.g_star, tr.phi[s], tr.phi[t], k)
            for sep in seps:
                image = frozenset(tr.phi[v] for v in sep)
                # pointwise fixed, preserved, and pulled back exactly
                assert all(tr.phi_inv[tr.phi[v]] == frozenset({v}) for v in sep)
                assert image in star, (sorted(g.edges()), k, s, t, sorted(sep))
                assert tr.pull_back(image) == sep
        star_verts = sorted(tr.g_star.vertices)
        for _ in range(samples):
            s_star = frozenset(v for v in star_verts if rng.random() < 0.35)
            g_comps = connected_components(
                g, within=set(g.vertices) - tr.pull_back(s_star)
            )
            star_comps = connected_components(
                tr.g_star, within=set(star_verts) - s_star
            )
            assert len(g_comps) == len(star_comps)
            matched = set()
            for comp in g_comps:
                image = frozenset(tr.phi[v] for v in comp)
                homes = [i for i, d in enumerate(star_comps) if image <= d]
                assert len(homes) == 1
                matched.add(homes[0])
            assert len(matched) == len(star_comps)

    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            for s, t in combinations(sorted(g.vertices), 2):
                for k in range(4):
                    check(g, k, s, t, samples=8)
    for _ in range(60):
        g = random_connected_graph(
            rng.randint(6, 10), rng.uniform(0.25, 0.5), seed=rng.randrange(10**6)
        )
        s, t = rng.sample(sorted(g.vertices), 2)
        check(g, rng.randint(0, 3), s, t, samples=100)


# --------------------------------------------------------------------------
# 5. contraction fixtures vs their drawn targets
# --------------------------------------------------------------------------


def test_contraction_fixtures_match_their_drawn_targets():
    """The three worked contraction cases reproduce exactly, the trimmed
    showcase graph equals its hand-worked 14-vertex target, and the
    original 12-vertex drawing is pinned as an invalid trim.

    The drawing is the contraction of the separator hull without vertex 8.
    But {1, 8, 12} is an inclusion-minimal terminal separator of size 3
    (removing 8 leaves {1, 12} as a fresh 2-cut), so every faithful k = 3
    trim keeps vertex 8 as its own vertex.  Without it the drawing does not
    preserve separators: a single blob vertex separates its terminals,
    while no separator of the showcase graph has fewer than two vertices."""
    for case in (c6_contraction, star_contraction, tangled_contraction):
        g, w, expected_atorso, expected_torso = case()
        assert atorso(g, w).g_prime == expected_atorso
        assert torso(g, w) == expected_torso

    g = two_terminal_showcase()
    tr = build_trimmer(g, 3, [SHOWCASE_S, SHOWCASE_T])
    assert tr.g_star == two_terminal_showcase_trimmed()
    for orig, new in SHOWCASE_TRIMMED_KEPT.items():
        assert tr.phi[orig] == new
        assert tr.phi_inv[new] == frozenset({orig})
    for cid, pre in SHOWCASE_TRIMMED_COMPONENTS.items():
        assert tr.phi_inv[cid] == pre
        assert all(tr.phi[v] == cid for v in pre)

    drawing = two_terminal_showcase_reduction_target()
    drawn_kept = (SHOWCASE_HULL - {8}) | {SHOWCASE_S, SHOWCASE_T}
    assert atorso(g, drawn_kept).g_prime == drawing
    assert drawing != tr.g_star
    assert tr.phi_inv[tr.phi[8]] == frozenset({8})
    # drawn terminals: s = 20 -> 8, t = 21 -> 9; the blob {3..10} -> 10
    assert frozenset({10}) in minimal_st_separators(drawing, 8, 9, 3)
    assert all(len(sep) >= 2 for sep in SHOWCASE_MINIMAL_SEPARATORS)


# --------------------------------------------------------------------------
# 6. cover-parameterized partitioner vs brute force
# --------------------------------------------------------------------------


def test_cover_parameterized_partitioner_matches_oracle():
    """solve_balanced_partition_vc equals brute force for d in {2, 3, 4} on
    every graph up to isomorphism with <= 5 vertices and on 120 seeded
    graphs with 6..9 vertices and vertex cover number <= 4."""

    def check(g, d):
        dp, cut = solve_balanced_partition_vc(g, d)
        assert dp.is_valid(g)
        assert cut_size(g, dp) == cut
        assert cut == brute_balanced_partition(g, d).optimum, (sorted(g.edges()), d)

    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            for d in (2, 3, 4):
                check(g, d)
    rng = random.Random(606)
    done = 0
    while done < 120:
        g = random_graph(rng.randint(6, 9), rng.uniform(0.15, 0.5), seed=rng.randrange(10**6))
        if min_vertex_cover(g, 4) is None:
            continue
        check(g, rng.choice((2, 3, 4)))
        done += 1


# --------------------------------------------------------------------------
# 7. instance generators: size identities and answer preservation
# --------------------------------------------------------------------------


def _role_blocks(out):
    by = {}
    for v, role in out.vertex_roles.items():
        by.setdefault(role, []).append(v)
    return [sorted(vs) for _, vs in sorted(by.items())]


def _quotient_feasible(out, k):
    # exhaustive balanced-separator search over interchangeable-vertex blocks
    sizes, block_edges = quotient_blocks(out.graph, _role_blocks(out))
    return balanced_separator_exists_blocks(sizes, block_edges, k)


def test_generators_match_size_formulas_and_preserve_answers():
    """Every generator is checked twice over: the closed-form vertex counts
    hold on each generated instance, and the instance is solvable exactly
    when its source is (brute force on the small side, exhaustive search
    over interchangeable-vertex blocks on the large side)."""
    # clique search -> balanced separator: every graph on <= 5 vertices, k=2
    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            if n + g.m < 4:
                continue  # too small to build; rejection is unit-tested
            out = clique_to_vbisect(g, 2)
            assert out.graph.n == 2 * n + 2 * g.m - 2 - 2  # 2n+2m-k-2*C(k,2)
            want = g.m >= 1  # a 2-clique is just an edge
            assert _quotient_feasible(out, out.params["k"]) == want, sorted(g.edges())

    # edge-cut bisection -> balanced separator: even-order inputs, <= 4 vertices
    for n in (2, 4):
        for g in all_graphs_up_to_iso(n):
            for k in (1, 2):
                if not 1 <= k <= g.m:
                    continue
                out = bisect_to_vbisect(g, k)
                expect = n * (3 * g.m + 2) + g.m + 10 * n * g.m + (g.m - 1)
                assert out.graph.n == expect
                want = brute_bisection(g).optimum <= k
                assert _quotient_feasible(out, out.params["k"]) == want, (
                    sorted(g.edges()),
                    k,
                )

    # max-cut cross-composition: up to three instances on up to three vertices
    rng = random.Random(9090)
    pool = {2: list(all_graphs_up_to_iso(2)), 3: list(all_graphs_up_to_iso(3))}
    cases = [[rng.choice(pool[2]) for _ in range(t)] for t in (1, 2, 3) for _ in range(6)]
    cases += [[rng.choice(pool[3]) for _ in range(t)] for t in (1, 2, 3) for _ in range(4)]
    for gs in cases:
        n = gs[0].n
        k = rng.randint(1, n * n)
        out = maxcut_cross_compose([(g, k) for g in gs])
        t_eff = len(gs) + 1 - len(gs) % 2  # composition pads to an odd count
        assert out.graph.n == 2 * n * t_eff
        want = any(brute_maxcut(g).optimum >= k for g in gs)
        got = brute_bisection(out.graph, edge_weighted=True).optimum <= out.params["k"]
        assert got == want, (k, [sorted(g.edges()) for g in gs])
    for k, expect in ((0, "yes"), (10, "no")):  # out-of-range targets short-circuit
        out = maxcut_cross_compose([(pool[3][0], k)])
        assert out.params["trivial"] == expect
        assert out.graph.n == 2

    # weight removal: even-order weighted inputs with <= 3 edges
    checked = 0
    for seed in range(80):
        r = random.Random(seed)
        n = r.choice([2, 4])
        slots = list(combinations(range(1, n + 1), 2))
        r.shuffle(slots)
        edges = sorted(slots[: r.randint(0, min(3, len(slots)))])
        gw = Graph(n, edges, edge_weights={e: r.randint(1, 3) for e in edges})
        k_star = r.randint(0, 3)
        bound = max((gw.edge_weight(u, v) for u, v in edges), default=1)
        if n * (bound + k_star + 2) > 20:
            continue  # keep the unweighted image inside oracle range
        out = weighted_to_unweighted(gw, k_star)
        assert out.graph.n == n * (bound + k_star + 2)
        want = brute_bisection(gw, edge_weighted=True).optimum <= k_star
        assert (brute_bisection(out.graph).optimum <= k_star) == want, (seed, edges)
        checked += 1
    assert checked >= 40

    # unary bin packing -> path forest: up to four items
    def packable(ws, b, cap):
        for assign in product(range(b), repeat=len(ws)):
            loads = [0] * b
            for wt, slot in zip(ws, assign):
                loads[slot] += wt
            if all(load <= cap for load in loads):
                return True
        return False

    for seed in range(60):
        r = random.Random(seed)
        bins = r.randint(1, 3)
        cap = r.randint(1, 12 // bins)
        ws = [r.randint(1, 4) for _ in range(r.randint(1, 4))]
        out = binpacking_to_forest(ws, bins, cap)
        want = sum(ws) <= bins * cap and packable(ws, bins, cap)
        if out.params.get("trivial") == "no":
            assert sum(ws) > bins * cap
            got = False
        else:
            assert out.graph.n == bins * cap  # items plus unit padding
            got = brute_balanced_partition(out.graph, bins).optimum == 0
        assert got == want, (seed, ws, bins, cap)

    # choice gadgets: every admissible value set for budgets up to 6
    for b in range(1, 7):
        for r in range(1, b + 2):
            for vals in combinations(range(b + 1), r):
                cg = make_choice_gadget(list(vals), b)
                assert cg.total_vertices == b + 2
                for p in range(1, len(vals) + 1):
                    assert cg.side_sizes(p) == (vals[p - 1], b - vals[p - 1])

    # multicolored clique -> balanced partitioning: part-size identity,
    # divisibility, and connectivity on a two-color and a three-color input
    for g, colors, s in (
        (Graph(2, [(1, 2)]), {1: 1, 2: 2}, 2),
        (Graph(3, [(1, 2), (1, 3), (2, 3)]), {1: 1, 2: 2, 3: 3}, 3),
    ):
        out = mcclique_to_bpart(g, colors, s)
        assert out.params["d"] == 2 * s * (s - 1)
        assert out.graph.n == out.params["d"] * out.params["part_size"]
        assert out.graph.n % out.params["d"] == 0
        assert len(connected_components(out.graph)) == 1


# --------------------------------------------------------------------------
# 8. contracted-graph treewidth bound
# --------------------------------------------------------------------------


def test_contracted_graph_treewidth_exceeds_torso_by_at_most_one():
    """Keeping the contracted component blobs costs at most one unit of
    treewidth over the clique-shortcut torso: exhaustive on <= 5 vertices
    with three kept-set choices each, then 100 seeded graphs on 6..8
    vertices with random kept sets, exact treewidth on both sides."""
    rng = random.Random(808)

    def check(g, w):
        tw_blob, _ = exact_treewidth_small(atorso(g, w).g_prime)
        tw_torso, _ = exact_treewidth_small(torso(g, w))
        assert tw_blob <= tw_torso + 1, (sorted(g.edges()), sorted(w))

    for n in range(2, 6):
        for g in all_graphs_up_to_iso(n):
            verts = sorted(g.vertices)
            random_w = frozenset(v for v in verts if rng.random() < 0.5)
            for w in (frozenset(verts[::2]), frozenset(verts[:2]), random_w or frozenset({1})):
                check(g, w)
    for _ in range(100):
        g = random_graph(rng.randint(6, 8), rng.uniform(0.2, 0.6), seed=rng.randrange(10**6))
        w = frozenset(v for v in g.vertices if rng.random() < 0.5) or frozenset({1})
        check(g, w)


# --------------------------------------------------------------------------
# 9. CLI determinism and round-trips
# --------------------------------------------------------------------------


def test_cli_emits_deterministic_bytes_and_round_trips(tmp_path):
    """Fifty generated instances: the same command writes byte-identical
    files on a second run, parse/emit is the identity on the emitted text,
    and oracle solution files survive their own round trip and re-verify."""
    gr = {
        "c4": Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        "p4": Graph(4, [(1, 2), (2, 3), (3, 4)]),
        "k5": Graph(5, [e for e in combinations(range(1, 6), 2)]),
        "tri": Graph(3, [(1, 2), (1, 3), (2, 3)]),
        "pair": Graph(2, [(1, 2)]),
        "wc4": Graph(
            4,
            [(1, 2), (2, 3), (3, 4), (4, 1)],
            edge_weights={(1, 2): 3, (2, 3): 1, (3, 4): 2, (4, 1): 1},
        ),
    }
    paths = {}
    for name, g in gr.items():
        paths[name] = tmp_path / f"{name}.gr"
        paths[name].write_text(emit_graph(g))

    commands = []
    rng = random.Random(5150)
    for i in range(20):
        commands.append(
            ["gen", "random", "--n", str(rng.randint(5, 30)),
             "--p", str(round(rng.uniform(0.1, 0.7), 2)), "--seed", str(i)]
        )
    for n, p, s in ((40, "0.15", 7), (50, "0.3", 8), (64, "0.5", 9)):
        commands.append(["gen", "random", "--n", str(n), "--p", p, "--seed", str(s)])
    for name, k in (("c4", 2), ("p4", 2), ("k5", 2), ("tri", 2), ("k5", 3)):
        commands.append(["gen", "clique", "--graph", str(paths[name]), "--k", str(k)])
    for k in range(1, 6):
        commands.append(
            ["gen", "maxcut", "--graphs", str(paths["tri"]), str(paths["tri"]),
             str(paths["tri"]), "--k", str(k)]
        )
    commands.append(["gen", "maxcut", "--graphs", str(paths["tri"]), str(paths["tri"]),
                     "--k", "2"])
    for ws, b, cap in (("1,2,3", 2, 3), ("4,4", 2, 4), ("1,1,1,1", 1, 4),
                       ("2,2,2", 3, 2), ("5", 1, 5), ("3,3,3", 3, 3)):
        commands.append(["gen", "binpack", "--weights", ws, "--bins", str(b), "--cap", str(cap)])
    for k in range(4):
        commands.append(["gen", "unweight", "--graph", str(paths["wc4"]), "--k", str(k)])
    commands.append(["gen", "unweight", "--graph", str(paths["wc4"]), "--k", "2", "--w", "5"])
    for name, k in (("c4", 1), ("c4", 2), ("k5", 2), ("p4", 1)):
        commands.append(["gen", "bisect", "--graph", str(paths[name]), "--k", str(k)])
    commands.append(["gen", "mcclique", "--graph", str(paths["pair"]), "--colors", "1,2"])
    assert len(commands) == 50

    small = []
    for i, cmd in enumerate(commands):
        out1 = tmp_path / f"i{i}a.gr"
        out2 = tmp_path / f"i{i}b.gr"
        assert cli_main(cmd + ["--output", str(out1)]) == 0
        assert cli_main(cmd + ["--output", str(out2)]) == 0
        text = out1.read_text()
        assert text == out2.read_text(), cmd  # byte-for-byte determinism
        g = parse_graph(text)
        emitted = emit_graph(g)
        assert parse_graph(emitted).key() == g.key(), cmd
        assert emit_graph(parse_graph(emitted)) == emitted, cmd
        if g.n <= 12 and g.is_unit_edge_weighted():
            small.append(out1)

    # solution files from a handful of small instances round-trip and verify
    assert len(small) >= 5
    for i, inst in enumerate(small[:6]):
        sol1 = tmp_path / f"s{i}a.sol"
        sol2 = tmp_path / f"s{i}b.sol"
        assert cli_main(["oracle", "bisect", "--graph", str(inst), "-o", str(sol1)]) == 0
        assert cli_main(["oracle", "bisect", "--graph", str(inst), "-o", str(sol2)]) == 0
        text = sol1.read_text()
        assert text == sol2.read_text()
        sol = parse_solution(text)
        assert parse_solution(emit_solution(sol)) == sol
        assert cli_main(["verify", "--graph", str(inst), "--solution", str(sol1)]) == 0
