"""Gadget-based instance generators.

Each generator turns an instance of a source problem into an instance of a
target partitioning problem, together with the derived parameters, a
provenance string, and a role tag for every vertex of the output graph.  The
vertex counts of all outputs obey closed-form formulas.  Every generator lays
its output through one builder (`_Builder`), which numbers vertices in
allocation order and re-checks the count against that formula before it
returns the instance.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Graph


@dataclass(frozen=True)
class ReductionOutput:
    """A generated instance: graph, derived parameters, and bookkeeping.

    ``params`` holds the derived numbers of the target instance (cut or
    separator budget ``k``, part count ``d`` where applicable, ...).
    ``vertex_roles`` maps every vertex of ``graph`` to a short tag describing
    which gadget part it belongs to, so that consumers can locate gadget
    pieces without re-deriving vertex ids.
    """

    graph: Graph
    params: Dict[str, object]
    provenance: str
    vertex_roles: Dict[int, str] = field(repr=False)

    def roles(self, tag: str) -> List[int]:
        """All vertices carrying exactly the given role tag, sorted."""
        return sorted(v for v, t in self.vertex_roles.items() if t == tag)


def _require_unweighted(g: Graph, who: str) -> None:
    if not (g.is_unit_vertex_weighted() and g.is_unit_edge_weighted()):
        raise ValueError(f"{who} expects an unweighted graph")


# --------------------------------------------------------------------------
# Choice gadgets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoiceGadget:
    """A path with pendant vertices that forces a one-position cut.

    The spine is a path of ``t + 1`` vertices for ``t`` admissible values
    ``0 <= a_1 < ... < a_t <= b``; pendant counts are arranged so that
    cutting the spine between positions ``p`` and ``p + 1`` puts exactly
    ``a_p`` non-endpoint vertices on the first side and ``b - a_p`` on the
    other.  The whole gadget always has ``b + 2`` vertices.
    """

    a_set: Tuple[int, ...]
    b: int
    spine: Tuple[int, ...] = field(init=False)
    pendants: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        a = self.a_set
        if self.b < 1:
            raise ValueError("budget must be positive")
        if not a:
            raise ValueError("need at least one admissible value")
        if a[0] < 0 or a[-1] > self.b:
            raise ValueError("admissible values must lie in [0, b]")
        if any(x >= y for x, y in zip(a, a[1:])):
            raise ValueError("admissible values must be strictly increasing")
        gaps = (y - x - 1 for x, y in zip(a, a[1:]))
        object.__setattr__(self, "spine", tuple(range(1, len(a) + 2)))
        object.__setattr__(self, "pendants", (a[0], *gaps, self.b - a[-1]))

    @property
    def total_vertices(self) -> int:
        return len(self.spine) + sum(self.pendants)

    def side_sizes(self, p: int) -> Tuple[int, int]:
        """Vertex counts on the two sides when cutting between spine
        positions ``p`` and ``p + 1``, excluding the two spine endpoints."""
        if not 1 <= p <= len(self.a_set):
            raise ValueError(f"cut position must be in 1..{len(self.a_set)}")
        left = (p - 1) + sum(self.pendants[:p])
        right = (len(self.spine) - p - 1) + sum(self.pendants[p:])
        return left, right


def make_choice_gadget(a_set: Iterable[int], b: int) -> ChoiceGadget:
    """Build the gadget for admissible values ``a_set`` and budget ``b``.

    Requires ``0 <= a_1 < a_2 < ... < a_t <= b``; a set is sorted first, any
    other sequence that is not strictly increasing is rejected.
    """
    if isinstance(a_set, (set, frozenset)):
        return ChoiceGadget(tuple(sorted(a_set)), b)
    return ChoiceGadget(tuple(a_set), b)


# --------------------------------------------------------------------------
# The one instance builder
# --------------------------------------------------------------------------


class _Builder:
    """Vertex, edge and role accumulator behind every generator.

    Vertices are numbered 1, 2, ... in allocation order.  ``edge`` refuses a
    repeated pair, as `Graph` does; only ``chain`` merges one, counted in
    ``merged``.  Weights of 1 are not stored.
    """

    def __init__(self):
        self.n = 0
        self.edges: Set[Tuple[int, int]] = set()
        self.weights: Dict[Tuple[int, int], int] = {}
        self.roles: Dict[int, str] = {}
        self.merged = 0

    def vertex(self, role: str) -> int:
        self.n += 1
        self.roles[self.n] = role
        return self.n

    def block(self, size: int, role: str) -> range:
        """``size`` fresh vertices sharing one role."""
        ids = range(self.n + 1, self.n + size + 1)
        self.roles.update(dict.fromkeys(ids, role))
        self.n += size
        return ids

    def edge(self, u: int, v: int, weight: int = 1) -> None:
        e = (u, v) if u < v else (v, u)
        if e in self.edges:
            raise ValueError(f"parallel edge {e}")
        self.edges.add(e)
        if weight != 1:
            self.weights[e] = weight

    def clique(self, ids: Iterable[int]) -> None:
        pairs = set(combinations(sorted(ids), 2))
        if not pairs.isdisjoint(self.edges):
            raise ValueError(f"parallel edge {min(pairs & self.edges)}")
        self.edges |= pairs

    def chain(self, first: int, last: int, gadget: ChoiceGadget, tag: str) -> None:
        """Lay a choice gadget between two existing vertices.

        ``first`` and ``last`` take the place of the spine endpoints; the
        inner spine and all pendant vertices are freshly allocated.  A
        gadget with a single admissible value and no inner spine vertex
        degenerates to a direct edge between its endpoints; when two such
        gadgets sit between the same pair of anchors (possible only on
        degenerate inputs far below the size threshold) they share that
        edge, which is counted in ``merged``.
        """
        spine = [first]
        for pos in range(2, len(gadget.spine)):
            spine.append(self.vertex(f"{tag}:spine{pos}"))
        spine.append(last)
        for x, y in zip(spine, spine[1:]):
            e = (x, y) if x < y else (y, x)
            if e in self.edges:
                self.merged += 1
            else:
                self.edges.add(e)
        for pos, count in enumerate(gadget.pendants, start=1):
            for _ in range(count):
                self.edge(spine[pos - 1], self.vertex(f"{tag}:pendant{pos}"))

    def output(
        self, params: Dict[str, object], provenance: str, expect: int
    ) -> ReductionOutput:
        """The built instance, once its vertex count matches ``expect``."""
        if self.n != expect:
            raise RuntimeError(f"vertex count {self.n} != formula value {expect}")
        graph = Graph(self.n, sorted(self.edges), edge_weights=self.weights or None)
        return ReductionOutput(graph, params, provenance, self.roles)


def _trivial(params: Dict[str, object], provenance: str) -> ReductionOutput:
    """A fixed two-vertex instance with budget 0, joined when
    ``params["trivial"]`` is "no"."""
    gb = _Builder()
    gb.block(2, "trivial")
    if params["trivial"] == "no":
        gb.edge(1, 2)
    return gb.output(params, provenance, 2)


# --------------------------------------------------------------------------
# Clique -> Vertex Bisection
# --------------------------------------------------------------------------


def clique_to_vbisect(g: Graph, k: int) -> ReductionOutput:
    """Build a balanced-separator instance that is solvable iff ``g`` has a
    clique of ``k`` vertices.

    Every edge of ``g`` is subdivided, the original vertices are completed
    into a clique, and a second disjoint clique is added whose size makes the
    two sides of the intended separator equally large.  An odd ``k`` is
    normalized first by attaching a universal vertex and asking for a clique
    one larger, which preserves the answer.

    The output graph has exactly ``2n + 2m - k - 2*C(k,2)`` vertices (with
    ``n``, ``m``, ``k`` the values after normalization) and the separator
    budget of the output instance is ``k`` itself.  Removing any ``k``
    vertices leaves at most ``C(k,2) + 2`` components, which is reported as
    ``params["c"]``.
    """
    _require_unweighted(g, "clique_to_vbisect")
    if k < 0:
        raise ValueError("clique size must be non-negative")
    if k > g.n:
        raise ValueError(f"clique size {k} exceeds the vertex count {g.n}")

    notes = []
    if k % 2 == 1:
        # a clique of k vertices exists iff adding a universal vertex yields
        # a clique of k + 1 vertices
        extra = g.n + 1
        g = Graph(
            extra, list(g.edges()) + [(v, extra) for v in range(1, g.n + 1)]
        )
        k += 1
        notes.append("normalized odd clique size via a universal vertex")

    n, m = g.n, g.m
    pairs = k * (k - 1) // 2
    filler = n + m - k - 2 * pairs
    if filler < 0:
        raise ValueError(
            "graph too small: the balancing clique would need "
            f"{filler} vertices"
        )

    gb = _Builder()
    # the original vertex set becomes a clique
    gb.clique([gb.vertex(f"original:{v}") for v in g.vertices])
    # one subdivision vertex per original edge
    for u, w in g.edges():
        ev = gb.vertex(f"edge:{u},{w}")
        gb.edge(u, ev)
        gb.edge(ev, w)
    # disjoint balancing clique
    gb.clique(gb.block(filler, "filler"))

    prov = f"clique-to-vertex-bisection: n={n} m={m} k={k}"
    if notes:
        prov += "; " + "; ".join(notes)
    return gb.output({"k": k, "c": pairs + 2}, prov, 2 * n + 2 * m - k - 2 * pairs)


# --------------------------------------------------------------------------
# Bisection -> Vertex Bisection
# --------------------------------------------------------------------------


def bisect_to_vbisect(g: Graph, k: int) -> ReductionOutput:
    """Turn an edge-cut bisection instance into a balanced-separator one.

    Each vertex is blown up into a clique of ``3m + 2`` vertices, each edge
    becomes a vertex joined to both endpoint cliques, and a rebalancing
    gadget (two cliques of ``5nm`` vertices tied together by a path with
    ``m - 1`` inner vertices) absorbs the size imbalance caused by deleted
    edge vertices.  The separator budget of the output is ``k + 1``.
    """
    _require_unweighted(g, "bisect_to_vbisect")
    n, m = g.n, g.m
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m={m}, got k={k}")

    cv = 3 * m + 2  # size of each per-vertex clique
    big = 5 * n * m  # size of each rebalancing clique
    gb = _Builder()
    block = {v: gb.block(cv, f"vertex-clique:{v}") for v in g.vertices}
    for ids in block.values():
        gb.clique(ids)
    for u, w in g.edges():
        ev = gb.vertex(f"edge:{u},{w}")
        for x in (*block[u], *block[w]):
            gb.edge(x, ev)

    anchors = []
    for side in (1, 2):
        anchor = gb.vertex(f"balance-anchor:{side}")
        gb.clique([anchor, *gb.block(big - 1, f"balance-clique:{side}")])
        anchors.append(anchor)
    inner = [gb.vertex(f"balance-path:{i}") for i in range(1, m)]  # possibly none
    path = [anchors[0], *inner, anchors[1]]
    for x, y in zip(path, path[1:]):
        gb.edge(x, y)

    return gb.output(
        {"k": k + 1},
        f"bisection-to-vertex-bisection: n={n} m={m} k={k}",
        n * cv + m + 2 * big + (m - 1),
    )


# --------------------------------------------------------------------------
# Max Cut -> Edge-Weighted Bisection (many instances into one)
# --------------------------------------------------------------------------


def maxcut_cross_compose(instances: Sequence[Tuple[Graph, int]]) -> ReductionOutput:
    """Combine many max-cut instances into one edge-weighted bisection.

    All inputs must ask for the same cut size ``k`` on the same number of
    vertices ``n``.  Each input graph is paired with a mirror clique of
    ``n`` fresh vertices; inside such a block every vertex pair is joined
    with weight ``W = n**2``, except that pairs forming an edge of the input
    get the cheaper weight ``W - 1``.  The combined instance asks for a
    bisection of weight at most ``W * n**2 - k`` and is solvable iff at
    least one input cut of size ``k`` exists.

    Out-of-range ``k`` makes every input trivially solvable or trivially
    unsolvable, so a fixed two-vertex instance with the matching answer is
    returned instead.  An even number of inputs is padded with one edgeless
    graph, which is always a "no" since ``k >= 1`` holds at that point.
    """
    if not instances:
        raise ValueError("need at least one instance")
    for g, _ in instances:
        _require_unweighted(g, "maxcut_cross_compose")
    n = instances[0][0].n
    k = instances[0][1]
    if any(g.n != n or ki != k for g, ki in instances):
        raise ValueError("all instances must share the same n and k")

    if k < 1:
        # every graph has a cut with zero edges
        return _trivial(
            {"k": 0, "trivial": "yes"},
            f"maxcut-cross-composition: trivial yes (k={k} < 1)",
        )
    if k > n * n:
        # no n-vertex graph has n^2 cut edges
        return _trivial(
            {"k": 0, "trivial": "no"},
            f"maxcut-cross-composition: trivial no (k={k} > n^2)",
        )

    graphs = [g for g, _ in instances]
    padded = False
    if len(graphs) % 2 == 0:
        graphs.append(Graph(n))  # a "no" for k >= 1
        padded = True

    w = n * n
    gb = _Builder()
    for i, gi in enumerate(graphs, start=1):
        ids = [gb.vertex(f"instance:{i}:vertex:{v}") for v in gi.vertices]
        ids += gb.block(n, f"instance:{i}:mirror")
        # positions past n are mirrors, never an edge of gi
        for (a, x), (b, y) in combinations(enumerate(ids, start=1), 2):
            gb.edge(x, y, w - 1 if gi.has_edge(a, b) else w)

    prov = f"maxcut-cross-composition: t={len(instances)} n={n} k={k}"
    if padded:
        prov += "; appended one edgeless instance to make the count odd"
    return gb.output({"k": w * n * n - k}, prov, 2 * n * len(graphs))


# --------------------------------------------------------------------------
# Edge-Weighted Bisection -> Bisection
# --------------------------------------------------------------------------


def weighted_to_unweighted(
    gw: Graph, k_star: int, w: Optional[int] = None
) -> ReductionOutput:
    """Strip edge weights by blowing vertices up into cliques.

    Every vertex becomes a clique with ``W + k_star + 2`` vertices where
    ``W`` bounds the edge weights (computed as the maximum weight when not
    given).  An edge of weight ``omega`` is replaced by ``omega`` pairwise
    disjoint unweighted edges between the two cliques, so a bisection of
    weight ``k_star`` exists in the input iff an ordinary bisection with
    ``k_star`` cut edges exists in the output: the cliques are too expensive
    to cut, hence whole cliques travel together and crossing edges are paid
    one by one.
    """
    if not gw.is_unit_vertex_weighted():
        raise ValueError("weighted_to_unweighted expects unit vertex weights")
    if k_star < 0:
        raise ValueError("cut budget must be non-negative")
    if w is None:
        w = max((gw.edge_weight(u, v) for u, v in gw.edges()), default=1)
    if w < 1:
        raise ValueError("weight bound must be positive")

    size = w + k_star + 2
    for u, v in gw.edges():
        omega = gw.edge_weight(u, v)
        if omega > size:
            raise ValueError(
                f"edge ({u},{v}) weight {omega} exceeds the clique size "
                f"{size}; cannot place that many disjoint edges"
            )

    gb = _Builder()
    block = {v: gb.block(size, f"vertex-clique:{v}") for v in gw.vertices}
    for ids in block.values():
        gb.clique(ids)
    for u, v in gw.edges():
        for i in range(gw.edge_weight(u, v)):
            gb.edge(block[u][i], block[v][i])

    return gb.output(
        {"k": k_star},
        f"weight-removal: n={gw.n} m={gw.m} k={k_star} weight-bound={w}",
        gw.n * size,
    )


# --------------------------------------------------------------------------
# Unary Bin Packing -> Balanced Partitioning on a forest
# --------------------------------------------------------------------------


def binpacking_to_forest(
    weights: Sequence[int], b: int, cap: int
) -> ReductionOutput:
    """Encode bin packing as zero-cut balanced partitioning of paths.

    Item ``i`` becomes a path with ``weights[i]`` vertices; the instance asks
    for ``b`` parts and cut size zero, so parts must be unions of whole
    paths.  Unit items are appended until the total weight reaches ``b *
    cap`` exactly, making the part-size ceiling equal to ``cap``.  If the
    items already weigh more than ``b * cap`` no packing can exist and a
    fixed two-vertex "no" instance is returned, flagged in ``params``.
    """
    if any(x < 1 for x in weights):
        raise ValueError("item weights must be positive")
    if b < 1 or cap < 1:
        raise ValueError("bin count and capacity must be positive")

    total = sum(weights)
    if total > b * cap:
        return _trivial(
            {"k": 0, "d": 2, "trivial": "no"},
            f"binpacking-to-forest: trivial no (total weight {total} > {b}*{cap})",
        )

    pad = b * cap - total
    gb = _Builder()
    for i, width in enumerate(list(weights) + [1] * pad, start=1):
        path = gb.block(width, f"item:{i}" if i <= len(weights) else f"filler-item:{i}")
        for x, y in zip(path, path[1:]):
            gb.edge(x, y)

    prov = f"binpacking-to-forest: items={len(weights)} b={b} C={cap}"
    if pad:
        prov += f"; padded with {pad} unit items"
    return gb.output({"k": 0, "d": b}, prov, b * cap)


# --------------------------------------------------------------------------
# Multicolored Clique -> Balanced Partitioning
# --------------------------------------------------------------------------


def _next_slot(i: int, j: int, s: int) -> int:
    """Successor of j in the cyclic order 1..s with i skipped."""
    nxt = j % s + 1
    if nxt == i:
        nxt = nxt % s + 1
    return nxt


def mcclique_to_bpart(
    g: Graph, coloring: Dict[int, int], s: int
) -> ReductionOutput:
    """Encode multicolored clique search as balanced partitioning.

    Each color gets a cycle of anchor vertices ("head"/"tail" per other
    color); the cycle edges are replaced by choice gadgets whose admissible
    cut positions encode which vertex of that color joins the clique, and
    which incident edge connects it to each other color.  Gadgets between
    cycles force different colors to agree on the connecting edges.  Pendant
    stars on the anchors dominate the part sizes so that a partition into
    ``d = 2s(s-1)`` parts with at most ``k = 3s(s-1)`` cut edges must follow
    the intended shape.

    The edge count is padded to an even number with one isolated
    same-colored edge *before* any derived quantity is computed.  The unit
    step of the encoding is ``z0 = 2|E| + 10`` and every part of a feasible
    partition has size exactly ``n0 = 10*z0*(|V| + |E|) + |E|/2 + 1``; the
    output graph has ``d * n0`` vertices altogether.

    ``params["small_input"]`` flags instances with fewer than ``s**2``
    vertices: the intended-shape argument assumes large enough inputs, so
    generated instances below that documented threshold should be treated
    with care.
    """
    _require_unweighted(g, "mcclique_to_bpart")
    if s < 2:
        raise ValueError("need at least two colors")
    if sorted(coloring) != list(g.vertices):
        raise ValueError("coloring must assign a color to every vertex")
    if any(not 1 <= c <= s for c in coloring.values()):
        raise ValueError(f"colors must lie in 1..{s}")
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            raise ValueError(f"edge ({u},{v}) joins two vertices of color "
                             f"{coloring[u]}; coloring must be proper")

    classes: Dict[int, List[int]] = {i: [] for i in range(1, s + 1)}
    for v in sorted(coloring):
        classes[coloring[v]].append(v)
    for i in range(1, s + 1):
        if not classes[i]:
            raise ValueError(f"color class {i} is empty")

    small = g.n < s * s
    edge_list = g.edges()
    notes = []
    nv = g.n
    if len(edge_list) % 2 == 1:
        # isolated same-colored edge: cannot take part in any multicolored
        # clique, only evens out the edge count
        edge_list = edge_list + [(nv + 1, nv + 2)]
        classes[1].extend([nv + 1, nv + 2])
        nv += 2
        notes.append("padded with one isolated edge (both endpoints color 1)")

    ne = len(edge_list)
    z0 = 2 * ne + 10
    phi = {i: {v: p for p, v in enumerate(classes[i], start=1)}
           for i in range(1, s + 1)}
    psi = {e: p for p, e in enumerate(sorted(edge_list), start=1)}
    color_of = dict(coloring)
    color_of.update({v: 1 for v in range(g.n + 1, nv + 1)})

    vertex_values = {i: [p * z0 for p in range(1, len(classes[i]) + 1)]
                     for i in range(1, s + 1)}
    edge_values: Dict[Tuple[int, int], List[int]] = {}
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if i == j:
                continue
            vals = sorted(
                phi[i][v] * z0 + psi[e]
                for e in edge_list
                for v in e
                if color_of[v] == i and color_of[e[0] if v == e[1] else e[1]] == j
            )
            if not vals:
                raise ValueError(
                    f"no edge joins color classes {i} and {j}; "
                    "the instance is a trivial no"
                )
            edge_values[(i, j)] = vals

    gb = _Builder()
    head: Dict[Tuple[int, int], int] = {}
    tail: Dict[Tuple[int, int], int] = {}
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if j != i:
                head[(i, j)] = gb.vertex(f"anchor:{i}.{j}.head")
                tail[(i, j)] = gb.vertex(f"anchor:{i}.{j}.tail")

    for i in range(1, s + 1):
        ci = len(classes[i])
        vertex_gadget = make_choice_gadget(vertex_values[i], ci * z0)
        for j in range(1, s + 1):
            if j == i:
                continue
            # within the cycle: tail of slot j runs to the head of the next
            # slot, choosing this color's clique vertex ...
            gb.chain(
                head[(i, _next_slot(i, j, s))],
                tail[(i, j)],
                vertex_gadget,
                f"vertex-choice:{i}.{j}",
            )
            # ... while the slot itself chooses vertex plus connecting edge
            gb.chain(
                head[(i, j)],
                tail[(i, j)],
                make_choice_gadget(edge_values[(i, j)], ci * z0 + ne),
                f"edge-choice:{i}.{j}",
            )

    transmitter = make_choice_gadget(list(range(1, ne + 1)), ne)
    for i in range(1, s + 1):
        for j in range(i + 1, s + 1):
            gb.chain(tail[(j, i)], head[(i, j)], transmitter,
                     f"transmitter:{i}.{j}")
            gb.chain(tail[(i, j)], head[(j, i)], transmitter,
                     f"transmitter:{j}.{i}")

    for i in range(1, s + 1):
        extra = 10 * z0 * (nv + ne) - z0 * len(classes[i]) - ne // 2
        for j in range(1, s + 1):
            if j == i:
                continue
            for kind, anchor in (("head", head[(i, j)]), ("tail", tail[(i, j)])):
                for _ in range(extra):
                    gb.edge(anchor, gb.vertex(f"anchor-pendant:{i}.{j}.{kind}"))

    d = 2 * s * (s - 1)
    n0 = 10 * z0 * (nv + ne) + ne // 2 + 1
    prov = (f"multicolored-clique-to-balanced-partition: n={g.n} m={g.m} "
            f"s={s} z0={z0}")
    if gb.merged:
        notes.append(
            f"{gb.merged} degenerate gadget pair(s) share an anchor edge"
        )
    if notes:
        prov += "; " + "; ".join(notes)
    if small:
        prov += "; warning: input below the documented size threshold"
    params = {"k": 3 * s * (s - 1), "d": d, "part_size": n0, "small_input": small}
    return gb.output(params, prov, d * n0)
