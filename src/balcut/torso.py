"""Contracting everything outside a vertex set: annotated torso, torso,
small minimal separators, and the trimmer built from them.

The annotated torso of (G, W) keeps W and replaces every connected component
of G - W by a single *component vertex* adjacent to the component's
neighbourhood in W.  The torso drops the component vertices and cliques
their neighbourhoods instead.  A (k, T)-trimmer is the annotated torso over
W = hull(T, k) ∪ T, where the hull collects every vertex of every
inclusion-minimal separator of size at most k between two terminals.

Those separators are enumerated by a bounded search tree (in the style of
Marx, "Parameterized graph separation problems", 2006): each step finds a
shortest path between the terminals in G minus the chosen set and branches
on its inner vertices, so the tree is at most k deep.  A chosen set that
separates is kept iff every vertex of it has a neighbour in both terminal
components (the full-component test for minimality).

Vertex ids in contracted graphs are reassigned order-preservingly: sorted W
becomes 1..|W| and component vertices follow in order of component
discovery.  phi/phi_inv carry the correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Optional, Set

from .graph import Graph, connected_components


@dataclass(frozen=True)
class AnnotatedTorso:
    g_prime: Graph
    phi: Dict[int, int]              # vertex of G -> vertex of G'
    phi_inv: Dict[int, FrozenSet[int]]  # vertex of G' -> vertex set of G
    component_vertices: FrozenSet[int]

    def pull_back(self, s: Iterable[int]) -> FrozenSet[int]:
        """phi^{-1} of a set of G' vertices."""
        out: set = set()
        for v in s:
            out |= self.phi_inv[v]
        return frozenset(out)


def atorso(g: Graph, w: Iterable[int]) -> AnnotatedTorso:
    """Contract each component of G - W to a single vertex.

    One sweep over the edge list suffices: an edge inside W survives, an edge
    from W into a component attaches the component vertex, and an edge inside
    a component disappears (two distinct components are never adjacent).
    """
    wset = frozenset(w)
    for v in wset:
        if not 1 <= v <= g.n:
            raise ValueError(f"W contains unknown vertex {v}")
    ws = sorted(wset)
    phi: Dict[int, int] = {v: i + 1 for i, v in enumerate(ws)}
    phi_inv: Dict[int, FrozenSet[int]] = {i + 1: frozenset({v}) for i, v in enumerate(ws)}
    comps = connected_components(g, within=(v for v in g.vertices if v not in wset))
    base = len(ws)
    for i, comp in enumerate(comps):
        cid = base + 1 + i
        phi_inv[cid] = comp
        for v in comp:
            phi[v] = cid
    edges = set()
    for u, v in g.edges():
        pu, pv = phi[u], phi[v]
        if pu != pv:
            edges.add((pu, pv) if pu < pv else (pv, pu))
    gp = Graph(base + len(comps), sorted(edges))
    return AnnotatedTorso(gp, phi, phi_inv, frozenset(range(base + 1, base + len(comps) + 1)))


def torso(g: Graph, w: Iterable[int]) -> Graph:
    """The graph on W with each component neighbourhood turned into a clique."""
    at = atorso(g, w)
    n_w = len(at.g_prime.vertices) - len(at.component_vertices)
    edges = {e for e in at.g_prime.edges() if e[1] <= n_w}
    for c in at.component_vertices:
        nb = sorted(at.g_prime.neighbors(c))
        for a, b in combinations(nb, 2):
            edges.add((a, b))
    return Graph(n_w, sorted(edges))


def _st_path(g: Graph, s: int, t: int, blocked: FrozenSet[int]):
    """Breadth-first search from s in G - blocked.

    Returns (the inner vertices of a shortest s-t path in order from s, None)
    if t is reachable, else (None, the vertex set of the component of s).
    """
    prev = {s: s}
    queue = [s]
    for v in queue:  # the queue grows while it is read
        for u in g.neighbors(v):
            if u in prev or u in blocked:
                continue
            if u == t:
                inner = []
                while v != s:
                    inner.append(v)
                    v = prev[v]
                return inner[::-1], None
            prev[u] = v
            queue.append(u)
    return None, prev.keys()


def _vertex_connectivity_at_least(g: Graph, s: int, t: int, bound: int) -> bool:
    """True iff there are at least `bound` internally vertex-disjoint s-t
    paths (unit-capacity flow with split vertices, early exit)."""
    if bound <= 0:
        return True
    # node encoding: (v, 0) = in-copy, (v, 1) = out-copy
    flow_edges: Dict[tuple, Set[tuple]] = {}

    def add(a, b):
        flow_edges.setdefault(a, set()).add(b)

    for v in g.vertices:
        add((v, 0), (v, 1))
    for u, v in g.edges():
        add((u, 1), (v, 0))
        add((v, 1), (u, 0))
    source, sink = (s, 1), (t, 0)
    add((s, 0), (s, 1))
    flow = 0
    while flow < bound:
        # BFS for an augmenting path in the residual digraph
        prev = {source: None}
        queue = [source]
        qi = 0
        while qi < len(queue) and sink not in prev:
            a = queue[qi]
            qi += 1
            for b in flow_edges.get(a, ()):
                if b not in prev:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return False
        node = sink
        while node != source:
            p = prev[node]
            flow_edges[p].discard(node)
            add(node, p)
            node = p
        flow += 1
    return True


def minimal_st_separators(
    g: Graph, s: int, t: int, k: int
) -> Optional[Set[FrozenSet[int]]]:
    """All inclusion-minimal (s,t)-separators of size at most k.

    Returns None when s and t are adjacent (no separator can exist at all --
    distinct from the empty *set of separators* when all separators are
    larger than k, and from {frozenset()} when s and t are already
    disconnected).

    The search branches on s-t paths.  A state (X, F) holds the chosen set X
    and the set F of vertices that may no longer be chosen.  While G - X has
    an s-t path, every separator containing X has a vertex on it; the search
    takes a shortest path P and, for each inner vertex v_i of P outside F
    (in order from s), pushes the child (X + v_i, F + {v_1..v_{i-1}}).
    Every minimal separator S with |S| <= k is reached: the first vertex of
    P in S yields a child with X still inside S and F still disjoint from
    it.  Sibling subtrees differ on whether v_i is chosen, so no set is
    visited twice, and the search is at most k deep.  A state whose X
    separates s from t is a leaf; X is kept iff it is minimal, that is iff
    every vertex of X has a neighbour both in the component of s and in the
    component of t of G - X (both components are then full).
    """
    if s == t:
        raise ValueError("terminals must differ")
    if not (1 <= s <= g.n and 1 <= t <= g.n):
        raise ValueError("terminal outside the graph")
    if g.has_edge(s, t):
        return None
    if _st_path(g, s, t, frozenset())[0] is None:
        return {frozenset()}
    if _vertex_connectivity_at_least(g, s, t, k + 1):
        return set()  # min cut exceeds k; nothing to report

    found: Set[FrozenSet[int]] = set()
    stack = [(frozenset(), frozenset())]
    while stack:
        x, f = stack.pop()
        path, s_side = _st_path(g, s, t, x)
        if path is None:
            _, t_side = _st_path(g, t, s, x)
            if all(
                any(u in s_side for u in g.neighbors(v))
                and any(u in t_side for u in g.neighbors(v))
                for v in x
            ):
                found.add(x)
        elif len(x) < k:
            free = [v for v in path if v not in f]
            for i, v in enumerate(free):
                stack.append((x | {v}, f.union(free[:i])))
    return found


def separator_hull(g: Graph, terminals: Iterable[int], k: int) -> FrozenSet[int]:
    """Union over terminal pairs of all vertices in inclusion-minimal
    separators of size <= k, minus the terminals themselves.  Adjacent pairs
    contribute nothing (they admit no separator)."""
    tset = sorted(set(terminals))
    hull: set = set()
    for s, t in combinations(tset, 2):
        seps = minimal_st_separators(g, s, t, k)
        if seps is None:
            continue
        for sep in seps:
            hull |= sep
    return frozenset(hull - set(tset))


@dataclass(frozen=True)
class Trimmer:
    g_star: Graph
    phi: Dict[int, int]
    phi_inv: Dict[int, FrozenSet[int]]
    component_vertices: FrozenSet[int]
    k: int
    terminals: FrozenSet[int]

    def pull_back(self, s: Iterable[int]) -> FrozenSet[int]:
        out: set = set()
        for v in s:
            out |= self.phi_inv[v]
        return frozenset(out)


def build_trimmer(g: Graph, k: int, terminals: Iterable[int]) -> Trimmer:
    """atorso over (separator hull ∪ terminals).

    The result preserves component structure under phi and keeps every
    inclusion-minimal small separator between terminals intact.
    """
    tset = frozenset(terminals)
    hull = separator_hull(g, tset, k) if len(tset) >= 2 else frozenset()
    at = atorso(g, hull | tset)
    return Trimmer(at.g_prime, at.phi, at.phi_inv, at.component_vertices, k, tset)
