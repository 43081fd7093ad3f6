"""Tree decompositions: validation, nice form, a min-fill heuristic of any
size, and an exact-width search for small graphs.

The nice form follows the usual leaf / introduce / forget / join vocabulary:
leaves carry one-vertex bags, join children carry identical bags, and
introduce/forget steps change the bag by exactly one vertex.  Conversion
keeps the width and gives O(width) nodes per input bag, so O(width * n) on
the decompositions built here, which have at most n bags.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .graph import Graph, adjacency_masks


class TreeDecomposition:
    """Bags on an undirected tree of nodes, with a designated root.

    Node ids are arbitrary integers.  Structural tree-ness is enforced here;
    the graph-dependent axioms live in validate_td.
    """

    def __init__(
        self,
        bags: Dict[int, Iterable[int]],
        tree_edges: Iterable[Tuple[int, int]],
        root: Optional[int] = None,
    ):
        if not bags:
            raise ValueError("a tree decomposition needs at least one node")
        self.bags: Dict[int, FrozenSet[int]] = {x: frozenset(b) for x, b in bags.items()}
        nodes = set(self.bags)
        adj: Dict[int, set] = {x: set() for x in nodes}
        edge_count = 0
        for x, y in tree_edges:
            if x not in nodes or y not in nodes:
                raise ValueError(f"tree edge ({x},{y}) references an unknown node")
            if x == y or y in adj[x]:
                raise ValueError(f"bad tree edge ({x},{y})")
            adj[x].add(y)
            adj[y].add(x)
            edge_count += 1
        if edge_count != len(nodes) - 1 or not self._connected(adj):
            raise ValueError("decomposition nodes do not form a tree")
        self.tree: Dict[int, FrozenSet[int]] = {x: frozenset(s) for x, s in adj.items()}
        self.root = min(nodes) if root is None else root
        if self.root not in nodes:
            raise ValueError(f"root {self.root} is not a node")

    @staticmethod
    def _connected(adj: Dict[int, set]) -> bool:
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(adj)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def vertex_nodes_connected(self) -> bool:
        """Do the nodes holding each vertex induce a connected subtree?

        They do when they span one tree edge fewer than their number, as a
        forest on h nodes with h - 1 edges is a tree.  Linear in the total
        bag size: each vertex's node count minus its spanned edges is 1.
        """
        spare: Dict[int, int] = {}
        for bag in self.bags.values():
            for v in bag:
                spare[v] = spare.get(v, 0) + 1
        for x, ys in self.tree.items():
            for y in ys:
                if x < y:
                    for v in self.bags[x] & self.bags[y]:
                        spare[v] -= 1
        return all(k == 1 for k in spare.values())


def validate_td(g: Graph, td: TreeDecomposition) -> bool:
    """Both decomposition axioms: edges covered, vertex subtrees connected
    and non-empty.  Raises if a bag mentions a vertex outside the graph.
    Each edge is looked up in its ends' node sets."""
    holding: Dict[int, set] = {}
    for x, bag in td.bags.items():
        for v in bag:
            holding.setdefault(v, set()).add(x)
    for v in holding:
        if not 1 <= v <= g.n:
            raise ValueError(f"bag references unknown vertex {v}")
    if len(holding) != g.n or any(holding[u].isdisjoint(holding[v]) for u, v in g.edges()):
        return False
    return td.vertex_nodes_connected()


LEAF = ("leaf",)
JOIN = ("join",)


class NiceTreeDecomposition(TreeDecomposition):
    """Rooted, binary, with a kind per node.

    kind[x] is ("leaf",), ("introduce", v), ("forget", v) or ("join",).
    Built via make_nice; the constructor checks the kind-local invariants.
    """

    def __init__(self, bags, parent: Dict[int, Optional[int]], kind: Dict[int, tuple], root: int):
        edges = [(x, p) for x, p in parent.items() if p is not None]
        super().__init__(bags, edges, root)
        self.kind = dict(kind)
        kids: Dict[int, List[int]] = {x: [] for x in self.bags}
        for x, p in parent.items():
            if p is not None:
                kids[p].append(x)
        self.children: Dict[int, Tuple[int, ...]] = {x: tuple(sorted(c)) for x, c in kids.items()}
        self._check_kinds()

    def _check_kinds(self) -> None:
        for x in self.bags:
            k = self.kind[x]
            kids = self.children[x]
            bag = self.bags[x]
            if k == LEAF:
                if kids or len(bag) > 1:
                    raise ValueError(f"leaf node {x} must be childless with at most one vertex")
            elif k == JOIN:
                if len(kids) != 2:
                    raise ValueError(f"join node {x} needs exactly two children")
                if any(self.bags[c] != bag for c in kids):
                    raise ValueError(f"join node {x} has children with differing bags")
            elif k[0] == "introduce":
                if len(kids) != 1 or self.bags[kids[0]] | {k[1]} != bag or k[1] in self.bags[kids[0]]:
                    raise ValueError(f"introduce node {x} does not add exactly {k[1]}")
            elif k[0] == "forget":
                if len(kids) != 1 or bag | {k[1]} != self.bags[kids[0]] or k[1] in bag:
                    raise ValueError(f"forget node {x} does not drop exactly {k[1]}")
            else:
                raise ValueError(f"unknown node kind {k!r}")

    def postorder(self) -> List[int]:
        """Children before parents; deterministic."""
        out: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.root, False)]
        while stack:
            x, done = stack.pop()
            if done:
                out.append(x)
                continue
            stack.append((x, True))
            for c in reversed(self.children[x]):
                stack.append((c, False))
        return out

    def validate(self, g: Graph) -> bool:
        return validate_td(g, self)


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form of the same width.

    The bag tree is rooted at its smallest node and rebuilt bottom-up in
    one post-order: one-vertex leaves grown by introduce chains,
    forget-then-introduce ladders along tree edges, and binary join combs
    where a node has several children.  All orders are deterministic.

    The tree is not compacted first.  Decompositions built here
    (``min_fill_decomposition``, ``exact_treewidth_small``) come out with no
    tree edge whose one bag contains the other, and as chains wherever a
    chain will do; any other valid input still gets a valid nice form of
    the same width, with O(width) nodes per input bag.
    """
    if not td.vertex_nodes_connected():
        raise ValueError("input decomposition is invalid (vertex subtrees disconnected)")
    bags = td.bags
    root_choice = min(bags)
    out_bags: Dict[int, FrozenSet[int]] = {}
    out_parent: Dict[int, Optional[int]] = {}
    out_kind: Dict[int, tuple] = {}

    def fresh(bag: Iterable[int], kind: tuple, kids: List[int]) -> int:
        x = len(out_bags) + 1
        out_bags[x] = frozenset(bag)
        out_kind[x] = kind
        out_parent[x] = None
        for c in kids:
            out_parent[c] = x
        return x

    # orient on the way down; top[x] is the nice node that stands for x's
    # subtree, with x's parent's bag; children are built in sorted order
    parent: Dict[int, Optional[int]] = {root_choice: None}
    children: Dict[int, List[int]] = {}
    top: Dict[int, int] = {}
    stack: List[Tuple[int, bool]] = [(root_choice, False)]
    while stack:
        x, done = stack.pop()
        if not done:
            children[x] = sorted(td.tree[x] - {parent[x]})
            for y in children[x]:
                parent[y] = x
            stack.append((x, True))
            stack.extend((y, False) for y in reversed(children[x]))
            continue
        bag = bags[x]
        if children[x]:
            node = top[children[x][0]]
            for y in children[x][1:]:
                node = fresh(bag, JOIN, [node, top[y]])
        else:  # a leaf plus introduces building the bag
            chain = sorted(bag)
            node = fresh(chain[:1], LEAF, [])
            for i in range(1, len(chain)):
                node = fresh(chain[: i + 1], ("introduce", chain[i]), [node])
        if parent[x] is not None:  # forget-then-introduce up to the parent's bag
            want = bags[parent[x]]
            cur = set(bag)
            for v in sorted(bag - want):
                cur.discard(v)
                node = fresh(cur, ("forget", v), [node])
            for v in sorted(want - bag):
                cur.add(v)
                node = fresh(cur, ("introduce", v), [node])
        top[x] = node
    return NiceTreeDecomposition(out_bags, out_parent, out_kind, top[root_choice])


def exact_treewidth_small(g: Graph) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth by dynamic programming over elimination-order prefixes.

    A test-scale oracle: subsets of vertices are bitmasks, and the table
    entry for S is the best possible largest elimination degree over all
    orderings that eliminate exactly S first.  Guarded at n <= 15; larger
    graphs take ``min_fill_decomposition``, an upper bound of any size.
    """
    n = g.n
    if n > 15:
        raise ValueError(
            f"exact treewidth search handles n <= 15 (got {n}); "
            "td.min_fill_decomposition(g) decomposes graphs of any size"
        )
    if n == 0:
        return -1, TreeDecomposition({1: ()}, [])

    # bit v - 1 stands for vertex v, so the subsets of V index a 2^n table
    adj = [mask >> 1 for mask in adjacency_masks(g)]

    def reach_outside(sp: int, v: int) -> int:
        """Vertices outside sp reachable from v via paths inside sp."""
        vbit = 1 << (v - 1)
        seen = vbit
        frontier = adj[v]
        out = 0
        while True:
            new = frontier & ~seen
            if not new:
                break
            seen |= new
            out |= new & ~sp
            walk = new & sp
            frontier = 0
            while walk:
                low = walk & -walk
                walk ^= low
                frontier |= adj[low.bit_length()]
        return out & ~vbit

    full = (1 << n) - 1
    best = [0] * (full + 1)
    best[0] = -1
    # the smallest vertex attaining best[s] as the last one of s eliminated:
    # the scan goes low bit first and keeps only a strictly better choice
    last = [0] * (full + 1)
    for s in range(1, full + 1):
        val = n  # upper bound; any real choice is <= n-1
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            prev = s ^ low
            deg = reach_outside(prev, v).bit_count()
            cand = best[prev] if best[prev] > deg else deg
            if cand < val:
                val = cand
                last[s] = v
        best[s] = val

    # walk the table back to a concrete elimination order
    rev: List[int] = []
    s = full
    while s:
        rev.append(last[s])
        s ^= 1 << (last[s] - 1)
    return best[full], _elimination_decomposition(g, rev[::-1])


def min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """The decomposition of a deterministic min-fill elimination order.

    Each step eliminates the vertex whose neighbourhood lacks the fewest
    edges (fill edges), ties broken by lowest degree, then lowest vertex
    (Bodlaender & Koster, "Treewidth computations I. Upper bounds", 2010).
    The width is an upper bound on the treewidth, often tight on sparse
    graphs, and there is no size limit.  The decomposition is built as
    ``exact_treewidth_small`` builds its own.
    """
    if g.n == 0:
        return TreeDecomposition({1: ()}, [])
    return _elimination_decomposition(g, _min_fill_order(g))


def _min_fill_order(g: Graph) -> List[int]:
    """The min-fill order, from a heap of (fill, degree, vertex) keys.

    Eliminating v cliques N(v), which changes the degree of N(v) and can
    lower the fill only of vertices with a neighbour in N(v), so only N(v)
    and its neighbours get new keys; a popped key that is no longer its
    vertex's current key is stale and skipped.  A step costs O(degree^2)
    per vertex within distance two of v, so sparse graphs such as long
    paths take near-linear time.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v: int) -> Tuple[int, int, int]:
        nb = sorted(adj[v])
        fill = sum(1 for i, u in enumerate(nb) for w in nb[i + 1 :] if w not in adj[u])
        return fill, len(nb), v

    current = {v: key(v) for v in g.vertices}
    heap = list(current.values())
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if current.get(v) != entry:
            continue
        del current[v]
        nb = adj.pop(v)
        for u in nb:
            adj[u] |= nb - {u}
            adj[u].discard(v)
        touched = set(nb)
        for u in nb:
            touched |= adj[u]
        for u in touched:
            current[u] = key(u)
            heapq.heappush(heap, current[u])
        order.append(v)
    return order


def _elimination_decomposition(g: Graph, order: List[int]) -> TreeDecomposition:
    """Simulate eliminating ``order`` (every vertex of g, n >= 1): vertex v
    gets the bag of v and its neighbours at that point, and its separator
    (that bag minus v) hangs off the first later bag that contains it.  The
    first-eliminated separator vertex's bag always does, and an empty
    separator takes the next bag, so stars and paths come out as chains.
    When that bag equals the separator, the two vertices share one node
    (the larger bag), so no tree edge joins a bag to a subset of itself.
    Nodes are numbered by their first vertex's position; the root is the
    node of the last vertex."""
    cur = {v: set(g.neighbors(v)) for v in g.vertices}
    bag_of: Dict[int, FrozenSet[int]] = {}
    for v in order:
        nb = cur.pop(v)
        bag_of[v] = frozenset(nb | {v})
        for a in nb:
            cur[a].discard(v)
            cur[a] |= nb - {a}
    n = len(order)
    node_of: Dict[int, int] = {}
    bags: Dict[int, FrozenSet[int]] = {}
    hangs: List[Tuple[int, int]] = []
    for i, v in enumerate(order):
        if v not in node_of:
            node_of[v] = i + 1
            bags[i + 1] = bag_of[v]
        if i + 1 == n:
            break
        sep = bag_of[v] - {v}
        up = next(order[j] for j in range(i + 1, n) if sep <= bag_of[order[j]])
        if bag_of[up] == sep and up not in node_of:
            node_of[up] = node_of[v]
        else:
            hangs.append((v, up))
    edges = [(node_of[v], node_of[u]) for v, u in hangs]
    return TreeDecomposition(bags, edges, root=node_of[order[-1]])
