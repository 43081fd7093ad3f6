"""Shared graph builders for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from balcut.graph import Graph


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p) with a fixed seed."""
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """G(n,p) plus a random spanning tree so the result is connected."""
    rng = random.Random(seed)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((verts[i], verts[rng.randrange(i)]))))
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < p:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree (random Prufer sequence)."""
    rng = random.Random(seed)
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(1, 2)])
    prufer = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in prufer:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(10, outer + spokes + inner)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid, vertices numbered row-major starting at 1."""
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def all_graphs_up_to_iso(n: int):
    """Every graph on n labelled vertices, one representative per isomorphism
    class.  Fine for n <= 6; canonical form is min adjacency bitstring over
    all vertex permutations."""
    from itertools import permutations

    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        canon = None
        for perm in permutations(range(n)):
            code = 0
            for i, (u, v) in enumerate(pairs):
                a, b = perm[u], perm[v]
                if (min(a, b), max(a, b)) in edges:
                    code |= 1 << i
            if canon is None or code < canon:
                canon = code
        if canon in seen:
            continue
        seen.add(canon)
        yield Graph(n, [(u + 1, v + 1) for u, v in edges])


def connected_graphs_up_to_iso(n: int):
    from balcut.graph import connected_components

    for g in all_graphs_up_to_iso(n):
        if len(connected_components(g)) == 1:
            yield g


def minimum_feedback_vertex_set(g: Graph) -> frozenset:
    """Smallest D (lexicographically first among smallest) with G-D a forest."""
    from balcut.graph import connected_components

    verts = list(g.vertices)
    for r in range(g.n + 1):
        for d in combinations(verts, r):
            d = frozenset(d)
            keep = [v for v in verts if v not in d]
            m = sum(1 for u, v in g.edges() if u not in d and v not in d)
            comps = connected_components(g, within=keep)
            if m == len(keep) - len(comps):  # acyclic
                return d
    raise AssertionError("unreachable")


def free_trees(n: int):
    """Every tree on n vertices, one labelled representative per isomorphism
    class (1, 1, 1, 2, 3, 6, 11, 23, 47, 106 classes for n = 1..10).

    Grown level by level: each (n+1)-vertex tree arises from an n-vertex one
    by attaching a leaf, so attaching everywhere and de-duplicating by a
    centroid-rooted canonical form is exhaustive."""

    def canon(t: Graph):
        adj = {v: set(t.neighbors(v)) for v in t.vertices}

        def max_piece(gone: int) -> int:
            best, seen = 0, {gone}
            for start in adj:
                if start in seen:
                    continue
                stack, count = [start], 0
                seen.add(start)
                while stack:
                    v = stack.pop()
                    count += 1
                    for c in adj[v]:
                        if c not in seen:
                            seen.add(c)
                            stack.append(c)
                best = max(best, count)
            return best

        def encode(v, parent):
            return tuple(sorted(encode(c, v) for c in adj[v] if c != parent))

        weight = {v: max_piece(v) for v in adj}
        low = min(weight.values())
        return min(encode(v, None) for v in adj if weight[v] == low)

    level = [Graph(1)]
    for size in range(2, n + 1):
        grown = {}
        for t in level:
            for attach in t.vertices:
                bigger = Graph(size, list(t.edges()) + [(attach, size)])
                grown.setdefault(canon(bigger), bigger)
        level = list(grown.values())
    return level


@pytest.fixture
def rng():
    return random.Random(20260819)


# --- block-quotient helpers -------------------------------------------------
#
# The reduction outputs contain large cliques of mutually interchangeable
# vertices (every vertex in a block has the same closed neighbourhood
# pattern towards every other block).  Exhaustive separator search over such
# a graph only needs to decide HOW MANY vertices to delete from each block,
# which keeps graphs with hundreds of vertices tractable.


def quotient_blocks(g: Graph, groups):
    """Collapse interchangeable vertex groups; verify they really are blocks.

    Each group must induce a clique, and every pair of groups must be either
    fully joined or fully non-adjacent.  Returns (sizes, block_edges) where
    block_edges uses group indices.
    """
    seen = set()
    for grp in groups:
        for v in grp:
            if v in seen:
                raise AssertionError(f"vertex {v} in two groups")
            seen.add(v)
    if seen != set(g.vertices):
        raise AssertionError("groups do not cover the vertex set")
    for grp in groups:
        for u, v in combinations(grp, 2):
            if not g.has_edge(u, v):
                raise AssertionError(f"group containing {u},{v} is not a clique")
    sizes = [len(grp) for grp in groups]
    block_edges = set()
    for i, gi in enumerate(groups):
        for j in range(i + 1, len(groups)):
            gj = groups[j]
            cross = sum(1 for u in gi for v in gj if g.has_edge(u, v))
            if cross == len(gi) * len(gj):
                block_edges.add((i, j))
            elif cross != 0:
                raise AssertionError(f"groups {i} and {j} are partially joined")
    return sizes, sorted(block_edges)


def balanced_separator_exists_blocks(sizes, block_edges, k: int) -> bool:
    """Exhaustive balanced-separator check on a block quotient.

    Deleting r vertices from a block of size s leaves s - r interchangeable
    survivors, so it suffices to scan deletion vectors with sum <= k.  A
    surviving block keeps its internal clique edges, hence stays one unit;
    joined surviving blocks merge.  The two sides must then be unions of
    components with max(|A|,|B|) <= ceil((n - |S|) / 2), which is a
    subset-sum question over the component sizes.
    """
    n = sum(sizes)
    nb = len(sizes)
    adj = [set() for _ in range(nb)]
    for i, j in block_edges:
        adj[i].add(j)
        adj[j].add(i)

    def feasible(vector):
        survivors = [i for i in range(nb) if sizes[i] - vector[i] > 0]
        if not survivors:
            return False  # separators must leave both sides nonempty
        rest = n - sum(vector)
        high = -(-rest // 2)  # ceil
        low = rest - high
        # components among surviving blocks
        comp_of = {}
        comp_sizes = []
        for s0 in survivors:
            if s0 in comp_of:
                continue
            stack = [s0]
            comp_of[s0] = len(comp_sizes)
            total = 0
            while stack:
                b = stack.pop()
                total += sizes[b] - vector[b]
                for c in adj[b]:
                    if sizes[c] - vector[c] > 0 and c not in comp_of:
                        comp_of[c] = len(comp_sizes)
                        stack.append(c)
            comp_sizes.append(total)
        # bitset subset-sum: can some union of components weigh in [low, high]?
        reach = 1
        for c in comp_sizes:
            reach |= reach << c
        mask = ((1 << (high + 1)) - 1) >> low << low
        return bool(reach & mask)

    def scan(idx, left, vector):
        if idx == len(sizes):
            return feasible(vector)
        for r in range(0, min(left, sizes[idx]) + 1):
            vector.append(r)
            if scan(idx + 1, left - r, vector):
                vector.pop()
                return True
            vector.pop()
        return False

    return scan(0, k, [])
