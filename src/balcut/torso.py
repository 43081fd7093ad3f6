"""Contracting everything outside a vertex set: annotated torso, torso,
small minimal separators, and the trimmer built from them.

The annotated torso of (G, W) keeps W and replaces every connected component
of G - W by a single *component vertex* adjacent to the component's
neighbourhood in W.  The torso drops the component vertices and cliques
their neighbourhoods instead.  A (k, T)-trimmer is the annotated torso over
W = hull(T, k) ∪ T, where the hull collects every vertex of every
inclusion-minimal separator of size at most k between two terminals; the
``Trimmer`` type is an ``AnnotatedTorso`` that also records k and T.

Those separators are enumerated by a bounded search tree (in the style of
Marx, "Parameterized graph separation problems", 2006): each step finds a
shortest path between the terminals in G minus the chosen set and branches
on its inner vertices, so the tree is at most k deep.  A chosen set that
separates is kept iff every vertex of it has a neighbour in both terminal
components (the full-component test for minimality).  At the last level
only the path vertices that lie on every remaining terminal path are
branched on: any other child would hold k vertices and still not separate.
A shortest path has no chords, so one pass over the components hanging off
it finds those vertices.  The search runs on vertex bitmasks.

Vertex ids in contracted graphs are reassigned order-preservingly: sorted W
becomes 1..|W| and component vertices follow in order of component
discovery.  phi/phi_inv carry the correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .graph import Graph, adjacency_masks, connected_components


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


def _bits(mask: int):
    """The vertices of a vertex mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _st_path(adj: List[int], s: int, t: int, blocked: int):
    """Level-by-level breadth-first search from s in G - blocked, over
    vertex masks (see ``graph.adjacency_masks``).

    Returns (the inner vertices of a shortest s-t path in order from s, None)
    if t is reachable, else (None, the mask of the component of s).  The path
    is walked back from t taking the lowest neighbour on each earlier level.
    """
    seen = blocked | 1 << s
    levels = [1 << s]
    while levels[-1]:
        reach = 0
        rest = levels[-1]
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        if reach >> t & 1:
            inner = []
            v = t
            for level in reversed(levels[1:]):
                nb = adj[v] & level
                v = (nb & -nb).bit_length() - 1
                inner.append(v)
            return inner[::-1], None
        reach &= ~seen
        seen |= reach
        levels.append(reach)
    return None, seen & ~blocked


def _unavoidable(adj: List[int], path: List[int], blocked: int) -> List[bool]:
    """For each vertex of `path` (s, the inner vertices of a shortest s-t
    path of G - blocked, then t), whether it lies on every s-t path of
    G - blocked.

    A shortest path has no chords, so a walk that skips position i must
    cross it through a component of G - blocked - V(path) that touches the
    path at some a < i and some b > i.  One pass over those components marks
    the open interval (lo, hi) of each one's touched positions in a
    difference array; the positions no interval covers are unavoidable.
    """
    pos = {}
    on_path = near = 0
    for i, v in enumerate(path):
        pos[v] = i
        on_path |= 1 << v
        near |= adj[v]
    rest = ~(blocked | on_path)
    seeds = near & rest  # a component that touches the path meets N(path)
    cover = [0] * (len(path) + 1)
    while seeds:
        comp = frontier = seeds & -seeds
        touch = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            touch |= reach
            frontier = reach & rest & ~comp
            comp |= frontier
        seeds &= ~comp
        hit = [pos[v] for v in _bits(touch & on_path)]
        lo, hi = min(hit), max(hit)
        if hi - lo >= 2:
            cover[lo + 1] += 1
            cover[hi] -= 1
    out = []
    depth = 0
    for c in cover[:-1]:
        depth += c
        out.append(depth == 0)
    return out


def _vertex_connectivity_at_least(g: Graph, s: int, t: int, bound: int) -> bool:
    """True iff there are at least `bound` internally vertex-disjoint s-t
    paths (unit-capacity flow with split vertices, early exit)."""
    if bound <= 0:
        return True
    # node 2v is the in-copy of v, node 2v + 1 its out-copy
    flow_edges: List[Set[int]] = [set() for _ in range(2 * g.n + 2)]
    for v in g.vertices:
        flow_edges[2 * v].add(2 * v + 1)
    for u, v in g.edges():
        flow_edges[2 * u + 1].add(2 * v)
        flow_edges[2 * v + 1].add(2 * u)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < bound:
        # BFS for an augmenting path in the residual digraph
        prev = [-1] * len(flow_edges)
        prev[source] = source
        queue = [source]
        for a in queue:  # the queue grows while it is read
            if prev[sink] >= 0:
                break
            for b in flow_edges[a]:
                if prev[b] < 0:
                    prev[b] = a
                    queue.append(b)
        if prev[sink] < 0:
            return False
        node = sink
        while node != source:
            p = prev[node]
            flow_edges[p].discard(node)
            flow_edges[node].add(p)
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
    (in order from s), makes the child (X + v_i, F + {v_1..v_{i-1}}).
    Every minimal separator S with |S| <= k is reached: the first vertex of
    P in S yields a child with X still inside S and F still disjoint from
    it.  Sibling subtrees differ on whether v_i is chosen, so no set is
    visited twice, and the search is at most k deep.  A state whose X
    separates s from t is a leaf; X is kept iff it is minimal, that is iff
    every vertex of X has a neighbour both in the component of s and in the
    component of t of G - X (both components are then full).

    At the last level (|X| = k - 1) a child can only matter if X + v_i
    separates, that is if v_i lies on every s-t path of G - X; a child with
    |X| = k that still has an s-t path is dropped without recording
    anything.  So only the children on such cut vertices are pushed, found
    by one pass over the components of G - X - V(P) (``_unavoidable``); F
    still grows over every free vertex of P, so the pushed children are
    exactly those of the full search.  X and F are vertex masks, and the
    adjacency masks are built once per call.
    """
    if s == t:
        raise ValueError("terminals must differ")
    if not (1 <= s <= g.n and 1 <= t <= g.n):
        raise ValueError("terminal outside the graph")
    if g.has_edge(s, t):
        return None
    adj = adjacency_masks(g)
    if _st_path(adj, s, t, 0)[0] is None:
        return {frozenset()}
    if _vertex_connectivity_at_least(g, s, t, k + 1):
        return set()  # min cut exceeds k; nothing to report

    found: Set[int] = set()
    stack = [(0, 0, 0)]  # (X, F, |X|)
    while stack:
        x, f, size = stack.pop()
        path, s_side = _st_path(adj, s, t, x)
        if path is None:
            _, t_side = _st_path(adj, t, s, x)
            if all(adj[v] & s_side and adj[v] & t_side for v in _bits(x)):
                found.add(x)
        elif size < k:
            keep = _unavoidable(adj, [s] + path + [t], x)[1:] if size == k - 1 else None
            for i, v in enumerate(path):
                if f >> v & 1:
                    continue
                if keep is None or keep[i]:
                    stack.append((x | 1 << v, f, size + 1))
                f |= 1 << v
    return {frozenset(_bits(x)) for x in found}


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
class Trimmer(AnnotatedTorso):
    """The annotated torso over hull(T, k) ∪ T, with its k and T."""

    k: int
    terminals: FrozenSet[int]

    @property
    def g_star(self) -> Graph:
        return self.g_prime


def build_trimmer(g: Graph, k: int, terminals: Iterable[int]) -> Trimmer:
    """atorso over (separator hull ∪ terminals).

    The result preserves component structure under phi and keeps every
    inclusion-minimal small separator between terminals intact.
    """
    tset = frozenset(terminals)
    hull = separator_hull(g, tset, k) if len(tset) >= 2 else frozenset()
    at = atorso(g, hull | tset)
    return Trimmer(at.g_prime, at.phi, at.phi_inv, at.component_vertices, k, tset)
