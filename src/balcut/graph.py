"""Undirected graphs with optional integer weights, plus partition/separator checks.

Everything downstream (solvers, oracles, generators) works on these types.
In a vertex mask bit v stands for vertex v: ``adjacency_masks`` builds each
neighbourhood as one and ``mask_members`` reads one back.  Graphs are
immutable and all operations here are pure, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


Edge = Tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 1..n.

    Vertex and edge weights are positive integers and default to 1, so the
    unweighted and weighted code paths share one type.  No self-loops, no
    parallel edges.  Construction validates all invariants; afterwards the
    object is treated as immutable.
    """

    __slots__ = ("n", "_edges", "_adj", "_vertex_weight", "_edge_weight", "_key")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        vertex_weights: Optional[Dict[int, int]] = None,
        edge_weights: Optional[Dict[Tuple[int, int], int]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        adj: List[set] = [set() for _ in range(n + 1)]
        edge_set = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) references a vertex outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = _norm_edge(u, v)
            if e in edge_set:
                raise ValueError(f"parallel edge {e}")
            edge_set.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self._edges = frozenset(edge_set)
        self._adj = tuple(frozenset(s) for s in adj)

        vw = {v: 1 for v in range(1, n + 1)}
        for v, w in (vertex_weights or {}).items():
            if not 1 <= v <= n:
                raise ValueError(f"weight for unknown vertex {v}")
            if w < 1:
                raise ValueError(f"vertex weight must be >= 1, got {w} at {v}")
            vw[v] = int(w)
        self._vertex_weight = vw

        ew = {e: 1 for e in edge_set}
        for (u, v), w in (edge_weights or {}).items():
            e = _norm_edge(u, v)
            if e not in edge_set:
                raise ValueError(f"weight for unknown edge {e}")
            if w < 1:
                raise ValueError(f"edge weight must be >= 1, got {w} at {e}")
            ew[e] = int(w)
        self._edge_weight = ew
        self._key: Optional[tuple] = None

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> List[Edge]:
        """All edges as (u,v) with u < v, sorted."""
        return sorted(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edges

    def neighbors(self, v: int) -> FrozenSet[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def vertex_weight(self, v: int) -> int:
        return self._vertex_weight[v]

    def edge_weight(self, u: int, v: int) -> int:
        return self._edge_weight[_norm_edge(u, v)]

    @property
    def total_vertex_weight(self) -> int:
        """Lambda = sum of all vertex weights."""
        return sum(self._vertex_weight.values())

    def weight_of(self, vs: Iterable[int]) -> int:
        return sum(self._vertex_weight[v] for v in vs)

    def is_unit_vertex_weighted(self) -> bool:
        return all(w == 1 for w in self._vertex_weight.values())

    def is_unit_edge_weighted(self) -> bool:
        return all(w == 1 for w in self._edge_weight.values())

    def key(self) -> tuple:
        """Canonical hashable fingerprint (for caches and determinism checks)."""
        if self._key is None:
            self._key = (
                self.n,
                tuple(sorted(self._edges)),
                tuple(sorted(self._vertex_weight.items())),
                tuple(sorted(self._edge_weight.items())),
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- partition / separator types ------------------------------------------


@dataclass(frozen=True)
class Bipartition:
    """A two-sided partition {A, B} of the vertex set."""

    a: FrozenSet[int]
    b: FrozenSet[int]

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        object.__setattr__(self, "a", frozenset(a))
        object.__setattr__(self, "b", frozenset(b))

    def is_valid(self, g: Graph) -> bool:
        return not (self.a & self.b) and self.a | self.b == frozenset(g.vertices)


@dataclass(frozen=True)
class Separation:
    """A partition {S, A, B} of V with no edge joining A and B.

    Empty A or B is permitted at the type level; solvers that need both
    sides populated check and report that themselves.
    """

    s: FrozenSet[int]
    a: FrozenSet[int]
    b: FrozenSet[int]

    def __init__(self, s: Iterable[int], a: Iterable[int], b: Iterable[int]):
        object.__setattr__(self, "s", frozenset(s))
        object.__setattr__(self, "a", frozenset(a))
        object.__setattr__(self, "b", frozenset(b))

    def is_valid(self, g: Graph) -> bool:
        """Check the separator axioms: {S,A,B} partitions V, no A-B edge."""
        parts = (self.s, self.a, self.b)
        if self.s | self.a | self.b != frozenset(g.vertices):
            return False
        if sum(len(p) for p in parts) != g.n:
            return False
        return all(not (g.neighbors(v) & self.b) for v in self.a)


@dataclass(frozen=True)
class DPartition:
    """A partition of V into d parts of size at most ceil(n/d) each."""

    parts: Tuple[FrozenSet[int], ...]

    def __init__(self, parts: Sequence[Iterable[int]]):
        parts = tuple(frozenset(p) for p in parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        object.__setattr__(self, "parts", parts)

    @property
    def d(self) -> int:
        return len(self.parts)

    def is_valid(self, g: Graph) -> bool:
        cap = -(-g.n // self.d)  # ceil(n/d)
        seen: set = set()
        for p in self.parts:
            if len(p) > cap or (p & seen):
                return False
            seen |= p
        return seen == set(g.vertices)


# -- operations ------------------------------------------------------------


def mask_members(mask: int) -> List[int]:
    """The set bits of ``mask`` in increasing order (bit v stands for v)."""
    return [v for v, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def adjacency_masks(g: Graph) -> List[int]:
    """masks[v] is the vertex mask of N(v); masks[0] is 0."""
    masks = [0] * (g.n + 1)
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def connected_components(g: Graph, within: Optional[Iterable[int]] = None) -> List[FrozenSet[int]]:
    """Connected components, sorted by their smallest vertex.

    With `within` given, components of the induced subgraph G[within] are
    returned instead (vertices keep their original names); this avoids ever
    materialising relabelled subgraphs.
    """
    allowed = set(g.vertices) if within is None else set(within)
    comps: List[FrozenSet[int]] = []
    remaining = set(allowed)
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in allowed and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(frozenset(seen))
        remaining -= seen
    comps.sort(key=min)
    return comps


def count_components_after_removal(g: Graph, s: Iterable[int]) -> int:
    """Number of connected components of G - S (0 if S = V)."""
    s = set(s)
    return len(connected_components(g, within=(v for v in g.vertices if v not in s)))


def cut_size(g: Graph, partition) -> int:
    """Total edge weight across parts of a Bipartition or DPartition."""
    if isinstance(partition, Bipartition):
        parts = (partition.a, partition.b)
    elif isinstance(partition, DPartition):
        parts = partition.parts
    else:
        raise TypeError(f"cannot compute a cut of {type(partition).__name__}")
    side = {}
    for i, p in enumerate(parts):
        for v in p:
            if v in side:
                raise ValueError(f"vertex {v} appears in two parts")
            side[v] = i
    if len(side) != g.n:
        raise ValueError("partition does not cover the vertex set")
    total = 0
    for u, v in g.edges():
        if side[u] != side[v]:
            total += g.edge_weight(u, v)
    return total


def is_balanced_separator(g: Graph, sep: Separation) -> bool:
    """True iff the separation's sides differ in size by at most one."""
    return abs(len(sep.a) - len(sep.b)) <= 1


def validate_bisection(g: Graph, p: Bipartition, k: int) -> bool:
    """True iff both sides have size <= ceil(n/2) and the cut is <= k."""
    cap = -(-g.n // 2)
    if not p.is_valid(g):
        return False
    if len(p.a) > cap or len(p.b) > cap:
        return False
    return cut_size(g, p) <= k


# -- small constructors shared by tests, demos and generators -------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    """Star with center 1 and the given number of leaves."""
    return Graph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])
