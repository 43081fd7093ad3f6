"""Minimum bisection by dynamic programming over labeled-graph expressions.

The table for a subexpression maps per-label vertex counts on side A (side B
is implied, since the counts must add up to the label class sizes) to the
cheapest cut achieving them.  Full joins add their crossing pairs
arithmetically, renames fold label counts together, unions combine the two
child tables.  Deleted vertices are handled outside the expression: the
driver fixes a split (A0, B0) of the deletion set, charges edges inside the
deletion set once up front, and the leaf case charges each expression vertex
for its edges into the opposite deleted side.  Every entry carries the
realized A side as a bitmask over the vertex ids of G, so retracing a
witness is a lookup and ties break to the lexicographically smallest side.
Tables are filled in one post-order walk that holds only the tables of
subexpressions whose parent is still to come, and only the root's is kept.
Edge weights are not supported: the join step counts crossing pairs.

The bisection driver keeps only entries some admissible root entry can use.
A size window drops an entry whose A side is already too large, or can no
longer grow large enough with the vertices still to come; a value bound,
once some split has given a candidate, drops an entry whose cut already
exceeds the best one.  Both are exact: A counts and cut values only grow
towards the root, every entry competing for one key has the same A count,
and ties are broken per key, so each kept entry holds the witness the full
table would.  ``cut_dp`` is the checked reference: the full root table of
one split, with its witnesses as vertex sets of G.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .graph import Bipartition, Graph, mask_members, validate_bisection
from .qexpr import (
    Create,
    Join,
    QExpression,
    Union,
    eval_qexpr,
    eval_walk,
    fold_qexpr,
    joins_are_full,
    node_labels,
    normalize_qexpr,
    postorder,
)

Vector = Tuple[int, ...]


def _put(table: dict, key: int, value: int, mask: int) -> None:
    """Keep the cheaper entry; on equal cost the lexicographically smaller
    A side.  Entries competing for one key have equally large A sides, so
    that is the side holding the lowest vertex where the two differ."""
    old = table.get(key)
    if old is None or value < old[0]:
        table[key] = (value, mask)
    elif value == old[0]:
        diff = mask ^ old[1]
        if diff & -diff & mask:
            table[key] = (value, mask)


def _require_unit_edges(g: Graph) -> None:
    if not g.is_unit_edge_weighted():
        raise ValueError(
            "the expression DP counts cut edges, so every edge weight must be 1;"
            " weighted_to_unweighted (`balcut gen unweight`) reduces weighted"
            " bisection to this case"
        )


def _correspondence_by_names(g: Graph, lg, rest: FrozenSet[int]) -> Optional[Dict[int, int]]:
    names = lg.names
    values = [names[v] for v in lg.graph.vertices]
    if set(values) != rest:  # as many leaves as vertices, so a bijection
        return None
    named = {tuple(sorted((names[u], names[v]))) for u, v in lg.graph.edges()}
    if named != {e for e in g.edges() if e[0] in rest and e[1] in rest}:
        raise ValueError("expression names the right vertices but produces different edges")
    return dict(zip(lg.graph.vertices, values))


def _correspondence_by_search(g: Graph, lg, rest: FrozenSet[int]) -> Dict[int, int]:
    h = lg.graph
    adj = {v: g.neighbors(v) & rest for v in rest}  # G - D
    if h.n > 10:
        raise ValueError(
            "expression leaves are unnamed and the isomorphism search that"
            " matches them to the graph handles at most 10 vertices; name the"
            " Create leaves, or run `balcut bisect` without --expr so that it"
            " builds its own expression from a greedy deletion set"
        )
    order = sorted(h.vertices, key=lambda v: (-len(h.neighbors(v)), v))
    assigned: Dict[int, int] = {}

    def fits(u: int) -> List[int]:
        # adjacency to every already-placed vertex must match exactly
        used = set(assigned.values())
        return [
            t
            for t in sorted(rest - used)
            if len(adj[t]) == len(h.neighbors(u))
            and all((tw in adj[t]) == (w in h.neighbors(u)) for w, tw in assigned.items())
        ]

    # depth-first over placements of order[0], order[1], ...; one candidate
    # iterator per placed depth
    tries = [iter(fits(order[0]))]
    while tries:
        u = order[len(tries) - 1]
        assigned.pop(u, None)
        t = next(tries[-1], None)
        if t is None:
            tries.pop()
            continue
        assigned[u] = t
        if len(tries) == len(order):
            return dict(assigned)
        tries.append(iter(fits(order[len(tries)])))
    raise ValueError("expression does not evaluate to the graph minus the deletion set")


def _match_expression(g: Graph, d_set: FrozenSet[int], lg) -> Dict[int, int]:
    """Map expression vertices onto G - D, erroring on any mismatch."""
    rest = frozenset(g.vertices) - d_set
    if lg.graph.n != len(rest):
        raise ValueError(
            f"expression has {lg.graph.n} vertices but the graph minus the"
            f" deletion set has {len(rest)}"
        )
    by_name = _correspondence_by_names(g, lg, rest)
    if by_name is not None:
        return by_name
    return _correspondence_by_search(g, lg, rest)


def cut_dp(
    g: Graph, a0: Iterable[int], b0: Iterable[int], phi: QExpression
) -> Tuple[Vector, Dict[Vector, Tuple[int, FrozenSet[int]]]]:
    """The full root table for one split (a0, b0) of the deletion set
    D = a0 | b0: the label counts of ``phi``, and a map from each A-side
    count vector to its minimum cut and the vertices of G - D on side A.

    A checked reference for the driver's bounded tables.  Requires unit
    edge weights, every join of ``phi`` to be full (run ``normalize_qexpr``
    otherwise) and ``phi`` to evaluate to G - D, matched by Create names or
    isomorphism search.  Edges inside D are NOT counted here; edges leaving
    D are charged at the leaves.
    """
    _require_unit_edges(g)
    a0, b0 = frozenset(a0), frozenset(b0)
    if a0 & b0:
        raise ValueError("the two sides of the split overlap")
    d_set = a0 | b0
    if not d_set <= frozenset(g.vertices):
        raise ValueError("deletion set contains unknown vertices")
    if not joins_are_full(phi):
        raise ValueError(
            "expression has a non-full join; run normalize_qexpr on it first"
        )
    corr = _match_expression(g, d_set, eval_qexpr(phi))
    counts, root = _fill(g, a0, b0, postorder(phi), range(1, phi.q + 1), corr)
    return counts, {
        a: (value, frozenset(mask_members(mask))) for a, (value, mask) in root.items()
    }


def _fill(
    g: Graph,
    a0: FrozenSet[int],
    b0: FrozenSet[int],
    nodes: List[QExpression],
    labels: Iterable[int],
    corr: Dict[int, int],
    lo: int = 0,
    hi: Optional[int] = None,
    value_max: Optional[int] = None,
) -> Tuple[Vector, Dict[Vector, Tuple[int, int]]]:
    """The root's label counts and its map from A-side count vectors to
    (cut, A-side bitmask over G's vertex ids), for the split (a0, b0) of
    the deletion set and an expression, given as its ``postorder`` list,
    whose joins are all full and whose vertices ``corr`` maps onto G minus
    the deletion set; the callers check both.  A count vector holds one
    count per entry of ``labels``, which must list every label a node
    names: a label no node names gets no field, however large it is.

    Only root entries with between ``lo`` and ``hi`` A-side vertices and a
    value of at most ``value_max`` are kept, and no entry that cannot lead
    to one is built.  With N expression vertices, an entry of an m-vertex
    subexpression with a vertices on side A survives iff a <= hi and
    a + (N - m) >= lo, as its A count can only grow, by at most N - m,
    towards the root; it also needs value <= value_max, as leaf costs and
    join increments are non-negative.  Every entry competing for one key
    has the same A count and ``_put`` breaks ties per key, so each kept key
    holds the same witness as in the unbounded table.
    """
    # A count vector packs into one int, label l's count in bits
    # [shift[l], shift[l] + width); no count exceeds the vertex total, so
    # adding vectors never carries between fields.
    total = len(corr)
    hi = total if hi is None else hi
    value_max = g.m if value_max is None else value_max  # no cut exceeds |E|
    width = total.bit_length()
    ones = (1 << width) - 1
    shift = {label: width * k for k, label in enumerate(labels)}
    vid = 0

    def visit(pos, node, kids):
        # value: (packed label counts, vertex count m, table)
        nonlocal vid
        if isinstance(node, Create):
            vid += 1
            gv = corr[vid]
            one = 1 << shift[node.label]
            table: dict = {}
            into_a = len(g.neighbors(gv) & b0)
            into_b = len(g.neighbors(gv) & a0)
            if lo <= total and hi >= 1 and into_a <= value_max:
                table[one] = (into_a, 1 << gv)
            if lo <= total - 1 and hi >= 0 and into_b <= value_max:
                table[0] = (into_b, 0)
            return one, 1, table
        if isinstance(node, Union):
            (c1, m1, t1), (c2, m2, t2) = kids
            if len(t1) > len(t2):
                m1, t1, m2, t2 = m2, t2, m1, t1
            # the larger table grouped by A count, each group by value
            groups: Dict[int, list] = {}
            for a2, (v2, s2) in t2.items():
                groups.setdefault(s2.bit_count(), []).append((v2, a2, s2))
            for group in groups.values():
                group.sort()
            floor = lo - (total - m1 - m2)
            table = {}
            for a1, (v1, s1) in t1.items():
                k1 = s1.bit_count()
                room = value_max - v1
                for k2 in range(max(0, floor - k1), min(m2, hi - k1) + 1):
                    for v2, a2, s2 in groups.get(k2, ()):
                        if v2 > room:
                            break
                        _put(table, a1 + a2, v1 + v2, s1 | s2)
            return c1 + c2, m1 + m2, table
        ((counts, m, child),) = kids
        si, sj = shift[node.i], shift[node.j]
        table = {}
        if isinstance(node, Join):
            ci, cj = (counts >> si) & ones, (counts >> sj) & ones
            for a, (value, mask) in child.items():
                ai, aj = (a >> si) & ones, (a >> sj) & ones
                value += ai * (cj - aj) + aj * (ci - ai)
                if value <= value_max:
                    table[a] = (value, mask)
            return counts, m, table
        step = (1 << sj) - (1 << si)  # Rename: label i's count moves to j
        for a, (value, mask) in child.items():
            _put(table, a + ((a >> si) & ones) * step, value, mask)
        return counts + ((counts >> si) & ones) * step, m, table

    counts, _, root = fold_qexpr(nodes, visit)

    def unpack(packed: int) -> Vector:
        return tuple((packed >> s) & ones for s in shift.values())

    return unpack(counts), {unpack(a): entry for a, entry in root.items()}


def solve_bisection_cwd(
    g: Graph, d_set: Iterable[int], phi: QExpression
) -> Tuple[Bipartition, int]:
    """Optimal bisection of G using an expression for G minus the deletion set.

    Prepares the expression once, then tries every split of the deletion
    set, fills the root table only at the two admissible A-side totals
    (they coincide for even n), and keeps the minimum cut, breaking ties
    toward the lexicographically smallest A.  Edge weights must all be 1.

    Preparing takes one walk, whose list gives the labels in use, and one
    replay, which gives the labeled graph matched to G - D.  Only an
    expression that normalization would change (never one from
    ``forest_qexpr``) is rebuilt and walked again; its value and leaves are
    unchanged, so the match stands.

    Once a candidate exists, a later split is filled only up to the best
    cut minus its internal cut, and skipped when its internal cut alone
    exceeds the best.  Values only grow towards the root, pruning is on a
    strict excess so ties still reach the ranking, and the ranking by
    (cut, sorted A) is a total order, so the winner does not depend on the
    order the splits are tried in.
    """
    _require_unit_edges(g)
    d_set = frozenset(d_set)
    if not d_set <= frozenset(g.vertices):
        raise ValueError("deletion set contains unknown vertices")
    nodes = postorder(phi)  # one walk serves the replay and every split
    lg, normal = eval_walk(nodes)
    if not normal:
        nodes = postorder(normalize_qexpr(phi))
    corr = _match_expression(g, d_set, lg)

    n = g.n
    labels = node_labels(nodes)
    d_sorted = sorted(d_set)
    d_edges = [(u, v) for u, v in g.edges() if u in d_set and v in d_set]
    best: Optional[Tuple[tuple, Bipartition, int]] = None
    for bits in range(1 << len(d_sorted)):
        a0 = frozenset(v for i, v in enumerate(d_sorted) if bits >> i & 1)
        internal = sum(1 for u, v in d_edges if (u in a0) != (v in a0))
        lo, hi = n // 2 - len(a0), (n + 1) // 2 - len(a0)
        if hi < 0 or lo > len(corr) or (best is not None and internal > best[2]):
            continue
        value_max = None if best is None else best[2] - internal
        _, root = _fill(g, a0, d_set - a0, nodes, labels, corr, lo, hi, value_max)
        for value, mask in root.values():
            cut = internal + value
            a = a0 | frozenset(mask_members(mask))
            rank = (cut, tuple(sorted(a)))
            if best is None or rank < best[0]:
                best = (rank, Bipartition(a, frozenset(g.vertices) - a), cut)
    assert best is not None  # some split always exists, even the empty one
    _, bip, cut = best
    if not validate_bisection(g, bip, cut):
        raise RuntimeError("internal error: bisection failed validation")
    return bip, cut
