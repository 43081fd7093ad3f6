"""Tree decompositions: axioms, nice form, exact width search."""

import random

import pytest

from balcut.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from balcut.td import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _elimination_decomposition,
    _min_fill_order,
    exact_treewidth_small,
    make_nice,
    min_fill_decomposition,
    validate_td,
)

from .conftest import connected_graphs_up_to_iso, grid_graph, random_graph


def test_td_structural_checks():
    with pytest.raises(ValueError):
        TreeDecomposition({}, [])
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1], 2: [1]}, [])  # disconnected nodes
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1], 2: [1], 3: [1]}, [(1, 2), (2, 3), (3, 1)])  # cycle
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1]}, [(1, 7)])  # unknown node
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1], 2: [1]}, [(1, 2)], root=5)


def test_validate_td_examples():
    p3 = path_graph(3)
    good = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
    assert validate_td(p3, good) and good.width == 1

    k3 = complete_graph(3)
    single = TreeDecomposition({1: [1, 2, 3]}, [])
    assert validate_td(k3, single) and single.width == 2

    uncovered = TreeDecomposition({1: [1, 2], 2: [3]}, [(1, 2)])
    assert not validate_td(p3, uncovered)


def test_validate_td_disconnected_subtree():
    # vertex 1 appears in two bags not adjacent in the tree
    td = TreeDecomposition({1: [1, 2], 2: [2, 3], 3: [1, 3]}, [(1, 2), (2, 3)])
    assert not validate_td(path_graph(3), td)


def test_validate_td_unknown_vertex():
    with pytest.raises(ValueError):
        validate_td(path_graph(2), TreeDecomposition({1: [1, 2, 9]}, []))


def _scanning_validate_td(g, td):
    # the axioms checked directly: every bag scanned for every vertex and
    # for every edge, and each vertex's nodes walked in the tree
    covered = frozenset().union(*td.bags.values())
    for v in covered:
        if not 1 <= v <= g.n:
            raise ValueError(f"bag references unknown vertex {v}")
    if covered != frozenset(g.vertices):
        return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags.values()):
            return False
    for v in covered:
        holding = {x for x, b in td.bags.items() if v in b}
        start = next(iter(holding))
        seen, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in td.tree[x]:
                if y in holding and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != holding:
            return False
    return True


def _outcome(check, g, td):
    try:
        return check(g, td)
    except ValueError as err:
        return str(err)


def test_validate_td_matches_the_scanning_check():
    """Valid decompositions (min-fill, random elimination orders, nice
    forms) and corrupted ones: a vertex dropped from a bag, added to a
    bag, or a vertex outside the graph added.  Both checks give the same
    answer or the same error."""
    rng = random.Random(20261019)
    answers = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.uniform(0.05, 0.5), seed=rng.randrange(10**6))
        order = list(g.vertices)
        rng.shuffle(order)
        for td in (min_fill_decomposition(g), _elimination_decomposition(g, order)):
            if rng.random() < 0.3:
                td = make_nice(td)
            bags = {x: set(b) for x, b in td.bags.items()}
            x = rng.choice(sorted(bags))
            change = rng.randrange(4)
            if change == 1 and bags[x]:
                bags[x].discard(rng.choice(sorted(bags[x])))
            elif change == 2:
                bags[x].add(rng.randint(1, n))
            elif change == 3:
                bags[x].add(rng.choice([0, n + 1]))
            edges = [(y, z) for y in td.tree for z in td.tree[y] if y < z]
            candidate = TreeDecomposition(bags, edges, td.root)
            want = _outcome(_scanning_validate_td, g, candidate)
            assert _outcome(validate_td, g, candidate) == want, (sorted(g.edges()), bags, edges)
            if isinstance(want, bool):
                answers[want] += 1
    assert min(answers.values()) > 30, answers


def test_validate_td_missing_vertex():
    # vertex 3 in no bag
    td = TreeDecomposition({1: [1, 2]}, [])
    assert not validate_td(Graph(3, [(1, 2)]), td)


def test_make_nice_single_bag():
    td = TreeDecomposition({1: [1, 2, 3]}, [])
    nice = make_nice(td)
    kinds = [nice.kind[x][0] for x in nice.postorder()]
    assert kinds == ["leaf", "introduce", "introduce"]
    assert nice.width == 2
    assert nice.validate(complete_graph(3))


def test_make_nice_bag_path():
    td = TreeDecomposition({1: [1, 2], 2: [2, 3], 3: [3, 4]}, [(1, 2), (2, 3)])
    nice = make_nice(td)
    kinds = [nice.kind[x][0] for x in nice.postorder()]
    assert kinds == ["leaf", "introduce", "forget", "introduce", "forget", "introduce"]
    assert nice.width == 1 and nice.validate(path_graph(4))


def test_make_nice_c6_node_budget():
    g = cycle_graph(6)
    _, td = exact_treewidth_small(g)
    nice = make_nice(td)
    assert nice.validate(g)
    assert nice.width == 2
    assert len(nice.bags) <= 24


def test_make_nice_rejects_invalid():
    bad = TreeDecomposition({1: [1, 2], 2: [3], 3: [1, 3]}, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        make_nice(bad)


def test_make_nice_join_shape():
    # a genuinely branching decomposition: K1,3 subdivided has a bag tree
    # that cannot always be linearised; whatever comes out must satisfy the
    # join-bag rule, which the NiceTreeDecomposition constructor enforces.
    g = Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
    _, td = exact_treewidth_small(g)
    nice = make_nice(td)
    assert nice.validate(g) and nice.width == 1


@pytest.mark.parametrize("m", [3, 8, 11, 14])
def test_make_nice_star_stays_in_budget(m):
    g = star_graph(m)
    _, td = exact_treewidth_small(g)
    nice = make_nice(td)
    assert nice.validate(g)
    assert len(nice.bags) <= 4 * g.n
    assert nice.width == td.width == 1


def test_nice_constructor_rejects_bad_kinds():
    # join with differing child bags
    with pytest.raises(ValueError):
        NiceTreeDecomposition(
            {1: [1], 2: [2], 3: [1]},
            {1: 3, 2: 3, 3: None},
            {1: ("leaf",), 2: ("leaf",), 3: ("join",)},
            root=3,
        )
    # introduce that does not add its vertex
    with pytest.raises(ValueError):
        NiceTreeDecomposition(
            {1: [1], 2: [1]},
            {1: 2, 2: None},
            {1: ("leaf",), 2: ("introduce", 2)},
            root=2,
        )


@pytest.mark.parametrize(
    "g,expect",
    [
        (Graph(5, [(1, 2), (1, 3), (2, 4), (2, 5)]), 1),
        (cycle_graph(6), 2),
        (complete_graph(4), 3),
        (Graph(1), 0),
        (Graph(3), 0),
        (grid_graph(3, 3), 3),
        (path_graph(8), 1),
    ],
)
def test_exact_treewidth_values(g, expect):
    w, td = exact_treewidth_small(g)
    assert w == expect
    assert validate_td(g, td)
    assert td.width == w


def test_exact_treewidth_guard_message():
    # names the limit, and no way around it that no code path accepts
    with pytest.raises(ValueError, match=r"n <= 15 \(got 16\)") as info:
        exact_treewidth_small(Graph(16))
    assert ".td" not in str(info.value)


def test_exact_treewidth_guard_names_the_way_around():
    with pytest.raises(ValueError, match="min_fill_decomposition"):
        exact_treewidth_small(path_graph(16))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 20, 40])
def test_min_fill_decomposition_is_valid(n):
    # sparse p leaves most graphs disconnected, dense p makes wide ones
    for seed, p in enumerate((0.05, 0.15, 0.3, 0.6)):
        g = random_graph(n, p, seed=100 * n + seed)
        td = min_fill_decomposition(g)
        assert validate_td(g, td), (n, p)
        assert make_nice(td).validate(g)


def test_min_fill_decomposition_of_the_empty_graph():
    td = min_fill_decomposition(Graph(0))
    assert td.width == -1 and td.bags == exact_treewidth_small(Graph(0))[1].bags


def test_min_fill_width_bounds_the_treewidth():
    for n in range(1, 13):
        for seed in range(6):
            g = random_graph(n, 0.1 + 0.1 * seed, seed=31 * n + seed)
            assert min_fill_decomposition(g).width >= exact_treewidth_small(g)[0]


@pytest.mark.parametrize(
    "g,expect",
    [(path_graph(40), 1), (cycle_graph(30), 2), (grid_graph(5, 5), 5), (star_graph(20), 1)],
)
def test_min_fill_widths_and_determinism(g, expect):
    td = min_fill_decomposition(g)
    assert td.width == expect
    again = min_fill_decomposition(g)
    assert (again.bags, again.tree, again.root) == (td.bags, td.tree, td.root)


def _full_rescan_min_fill_order(g):
    # the rule itself: every step rescans every vertex's fill
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def fill(v):
        nb = sorted(adj[v])
        return sum(1 for i, u in enumerate(nb) for w in nb[i + 1 :] if w not in adj[u])

    order = []
    while adj:
        v = min(adj, key=lambda v: (fill(v), len(adj[v]), v))
        nb = adj.pop(v)
        for u in nb:
            adj[u] |= nb - {u}
            adj[u].discard(v)
        order.append(v)
    return order


def test_min_fill_order_matches_a_full_rescan():
    # the heap only recomputes keys near the eliminated vertex; the order
    # must be the one a rescan of every vertex at every step gives
    graphs = [path_graph(120), cycle_graph(40), star_graph(15), grid_graph(6, 6)]
    graphs += [random_graph(n, 0.03 + 0.06 * (n % 7), seed=900 + n) for n in range(1, 41)]
    for g in graphs:
        assert _min_fill_order(g) == _full_rescan_min_fill_order(g), g.edges()


def test_exact_treewidth_isolated_vertex_invariant():
    for seed in range(8):
        g = random_graph(7, 0.45, seed=seed)
        w, _ = exact_treewidth_small(g)
        g2 = Graph(8, g.edges())
        assert exact_treewidth_small(g2)[0] == w


def test_pipeline_exhaustive_small():
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            w, td = exact_treewidth_small(g)
            assert validate_td(g, td)
            nice = make_nice(td)
            assert nice.validate(g)
            assert nice.width == w
            checked += 1
    assert checked > 30


def test_postorder_children_first():
    g = cycle_graph(5)
    _, td = exact_treewidth_small(g)
    nice = make_nice(td)
    seen = set()
    for x in nice.postorder():
        for c in nice.children[x]:
            assert c in seen
        seen.add(x)
    assert len(seen) == len(nice.bags)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_built_decompositions_are_reduced(n):
    # sparse p leaves most graphs disconnected
    for seed, p in enumerate((0.05, 0.15, 0.3, 0.6)):
        g = random_graph(n, p, seed=700 + 10 * n + seed)
        for td in (min_fill_decomposition(g), exact_treewidth_small(g)[1]):
            assert validate_td(g, td), (n, p)
            # td.tree is symmetric, so this checks both ends of every edge
            assert all(not td.bags[x] <= td.bags[y] for x in td.bags for y in td.tree[x]), (n, p)


@pytest.mark.parametrize("m", [3, 8, 14])
def test_star_nice_form_has_no_join(m):
    g = star_graph(m)
    for td in (min_fill_decomposition(g), exact_treewidth_small(g)[1]):
        nice = make_nice(td)
        assert nice.validate(g)
        assert all(kind != ("join",) for kind in nice.kind.values())


def test_make_nice_of_a_long_path():
    g = path_graph(800)
    nice = make_nice(min_fill_decomposition(g))
    assert nice.width == 1 and nice.validate(g)
