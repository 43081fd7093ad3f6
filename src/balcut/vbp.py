"""Minimum-weight c-component separators over nice tree decompositions.

Each decomposition node has a table keyed by a code of how the separator
and the A- and B-sides meet the bag, a counter of finished components, and
the A-weight.  A code is a tuple of small ints aligned with the sorted bag:
0 for a separator vertex, +j / -j for a vertex in A-part / B-part j, parts
numbered 1, 2, ... by first appearance, so each state has exactly one code.
Introduce, forget and join compute each code's successor once per step.
Tables are filled in one bottom-up fold that holds only the tables of nodes
whose parent is still to come; synthesized forget steps then empty the root
bag, and only that last table, keyed by (components, A-weight), is kept.
Each entry carries a concrete witness, the separator and the A-side as
vertex bitmasks, which makes retracing a lookup and tie-breaking
reproducible: minimum weight first, then the separator, then the A-side,
each set compared as its sorted tuple of vertices.  A caller that will only
query small separators or light A-sides passes ``value_max`` /
``ell_max``, and entries beyond them are never made.

On top of the table sit the two solvers, both over one min-fill
decomposition of the whole graph (``td.min_fill_decomposition``):
``min_weight_separator`` answers a single (c, s) query, and
``solve_vertex_bisection`` scans a window of A-weights around half the
graph and rebalances each accepted entry by moving BFS leaves of the
heavier side into the separator (``_drive_balance``).
"""

from collections import defaultdict, deque
from dataclasses import dataclass
from math import inf
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .graph import (
    Graph,
    Separation,
    connected_components,
    count_components_after_removal,
    mask_members,
)
from .td import (
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    exact_treewidth_small,  # unused here; perfbench/tracing.py patches this name
    make_nice,
    min_fill_decomposition,
)
from .torso import build_trimmer  # unused here; perfbench/tracing.py patches this name


class SepEntry(NamedTuple):
    value: int
    s_set: FrozenSet[int]
    a_set: FrozenSet[int]


@dataclass
class SepTable:
    """The separator table above the root: ``entries`` maps (components,
    A-weight) to the minimum-weight entry; infeasible pairs are absent."""

    entries: Dict[Tuple[int, int], SepEntry]

    def query(self, c: int, ell: int) -> Optional[SepEntry]:
        return self.entries.get((c, ell))


def _before(e: tuple, old: tuple) -> bool:
    """Does witness (S, A) of entry e come before that of ``old``, each set
    compared as its sorted tuple of vertices?  Entries competing for a key
    have equal weights, so neither set is a proper subset of the other and
    the one holding the lowest differing vertex comes first."""
    x, y = (e[1], old[1]) if e[1] != old[1] else (e[2], old[2])
    return x & (x ^ y) & -(x ^ y) != 0


def _put(table: dict, key: tuple, e: tuple) -> None:
    old = table.get(key)
    if old is None or e[0] < old[0] or e[0] == old[0] and _before(e, old):
        table[key] = e


def _relabel(code) -> tuple:
    """Parts renumbered 1, 2, ... by first appearance, signs kept."""
    names: Dict[int, int] = {}
    out = []
    for x in code:
        if x:
            y = names.get(x)
            if y is None:
                y = names[x] = len(names) + 1 if x > 0 else -len(names) - 1
            x = y
        out.append(x)
    return tuple(out)


def _joined(code: tuple, p: int, nb: List[int], sign: int) -> Optional[tuple]:
    """The code after a vertex inserted at position p joins side ``sign``
    (+1 A, -1 B) together with every part it touches at positions ``nb``;
    None if it touches the other side."""
    touched = {code[i] for i in nb if code[i]}
    if any(x * sign < 0 for x in touched):
        return None
    fresh = sign * (len(code) + 1)
    out = [fresh if x in touched else x for x in code]
    out.insert(p, fresh)
    return _relabel(out)


def _introduce(g: Graph, child: dict, order: tuple, v: int, value_max, ell_max) -> dict:
    table: dict = {}
    moves: dict = {}
    p = order.index(v)
    nv = g.neighbors(v)
    nb = [i for i, u in enumerate(order[:p] + order[p + 1 :]) if u in nv]
    lam, bit = g.vertex_weight(v), 1 << v
    for (code, c, ell), e in child.items():
        value, s, a = e
        move = moves.get(code)
        if move is None:
            to_a, to_b = _joined(code, p, nb, 1), _joined(code, p, nb, -1)
            move = moves[code] = (code[:p] + (0,) + code[p:], to_a, to_b)
        to_s, to_a, to_b = move
        if value + lam <= value_max:
            _put(table, (to_s, c, ell), (value + lam, s | bit, a))
        if to_a is not None and ell + lam <= ell_max:
            _put(table, (to_a, c, ell + lam), (value, s, a | bit))
        if to_b is not None:
            _put(table, (to_b, c, ell), e)
    return table


def _forget(child: dict, p: int, c_max: int) -> dict:
    """Drop position p; a part whose label no longer appears is finished
    and counted, unless the counter would pass ``c_max``."""
    table: dict = {}
    moves: dict = {}
    for (code, c, ell), entry in child.items():
        move = moves.get(code)
        if move is None:
            rest = code[:p] + code[p + 1 :]
            move = moves[code] = (_relabel(rest), code[p] != 0 and code[p] not in rest)
        rest, done = move
        if done and c >= c_max:
            continue
        _put(table, (rest, c + done, ell), entry)
    return table


def _merge(c1: tuple, c2: tuple) -> tuple:
    """The finest common coarsening of two codes with the same signs."""
    out = list(c1)
    for y in set(c2) - {0}:
        group = {out[i] for i, x in enumerate(c2) if x == y}
        keep = group.pop()
        out = [keep if x in group else x for x in out]
    return _relabel(out)


def _join(g: Graph, order: tuple, t1: dict, t2: dict, c_max: int, value_max, ell_max) -> dict:
    """Every pair of entries whose codes have the same signs (the same
    separator and A-side in the bag), with the bag's share of both weights,
    which each child counts, subtracted once."""
    by_code: Tuple[dict, dict] = ({}, {})
    for table, codes in zip((t1, t2), by_code):
        for (code, c, ell), entry in table.items():
            codes.setdefault(code, []).append((c, ell) + entry)
    mates = defaultdict(list)
    for code, items in by_code[1].items():
        mates[tuple((x > 0) - (x < 0) for x in code)].append((code, items))
    w = [g.vertex_weight(v) for v in order]
    table: dict = {}
    for code1, items1 in by_code[0].items():
        sg = tuple((x > 0) - (x < 0) for x in code1)
        lam_s = sum(wi for wi, x in zip(w, sg) if x == 0)
        lam_a = sum(wi for wi, x in zip(w, sg) if x > 0)
        for code2, items2 in mates[sg]:
            code = _merge(code1, code2)
            for c1, ell1, v1, s1, a1 in items1:
                for c2, ell2, v2, s2, a2 in items2:
                    c, value, ell = c1 + c2, v1 + v2 - lam_s, ell1 + ell2 - lam_a
                    if c <= c_max and value <= value_max and ell <= ell_max:
                        _put(table, (code, c, ell), (value, s1 | s2, a1 | a2))
    return table


def _steps(ntd: NiceTreeDecomposition):
    """(kind, bag, child count) of every node in post-order, then one forget
    step per root bag vertex, in vertex order, to empty the root bag."""
    for x in ntd.postorder():
        yield ntd.kind[x], ntd.bags[x], len(ntd.children[x])
    bag = ntd.bags[ntd.root]
    for v in sorted(bag):
        bag = bag - {v}
        yield ("forget", v), bag, 1


def _step(
    g: Graph,
    kind: tuple,
    bag: FrozenSet[int],
    kids: List[dict],
    c_max: int,
    value_max: float = inf,
    ell_max: float = inf,
) -> dict:
    """The table of one step from its children's tables: (code, c, ell) ->
    (separator weight, separator mask, A mask), codes aligned with the
    sorted bag.  Entries with separator weight above ``value_max`` or
    A-weight above ``ell_max`` are never made."""
    order = tuple(sorted(bag))
    if kind == LEAF:  # the empty-state table, then the bag vertex (if any) introduced
        table = {((), 0, 0): (0, 0, 0)}
        for v in order:
            table = _introduce(g, table, order, v, value_max, ell_max)
        return table
    if kind == JOIN:
        return _join(g, order, kids[0], kids[1], c_max, value_max, ell_max)
    if kind[0] == "introduce":
        return _introduce(g, kids[0], order, kind[1], value_max, ell_max)
    return _forget(kids[0], sorted(bag | {kind[1]}).index(kind[1]), c_max)


def sep_dp(
    g: Graph,
    ntd: NiceTreeDecomposition,
    c_max: int,
    value_max: float = inf,
    ell_max: float = inf,
) -> SepTable:
    """Fill the separator table bottom-up and return the one above the root.

    Entries exist for every reachable (c, ell) with component counter c at
    most ``c_max``; an absent pair means no separator realizes it.  Only
    the tables of nodes whose parent is still to come are held.

    ``value_max`` and ``ell_max`` (unbounded by default) drop every entry
    whose separator weight or A-weight exceeds them as soon as it would be
    made.  This is exact: vertex weights are positive, so both only grow
    towards the root, and ``ell`` is part of the key, so an entry over
    ``value_max`` only wins a key where every entry is over it.  The result
    is the unbounded root map restricted to the bounds, witnesses included.
    """
    if c_max < 0:
        raise ValueError("component counter bound must be non-negative")
    if value_max < 0 or ell_max < 0:
        raise ValueError("weight bounds must be non-negative")
    if not ntd.validate(g):
        raise ValueError("decomposition does not fit the graph")
    live: List[dict] = []
    for kind, bag, arity in _steps(ntd):
        k = len(live) - arity
        kids = live[k:]
        del live[k:]
        live.append(_step(g, kind, bag, kids, c_max, value_max, ell_max))
    (root,) = live
    return SepTable(
        {
            (c, ell): SepEntry(v, frozenset(mask_members(s)), frozenset(mask_members(a)))
            for (_, c, ell), (v, s, a) in root.items()
        }
    )


def min_weight_separator(g: Graph, c: int, s: int) -> Optional[Separation]:
    """Minimum-weight separator leaving exactly c components, A-weight s.

    ``c`` may be 1 (a separator whose removal leaves a single component,
    with A one union of components); the balanced-separator driver only
    ever asks for c >= 2.  The decomposition is the min-fill one, so any
    size is accepted; the time grows with its width.  The table is filled
    with ``ell_max=s``.
    """
    if c < 1:
        raise ValueError("component count must be at least 1")
    if not 1 <= s <= g.total_vertex_weight:
        raise ValueError("target weight outside 1..total weight")
    table = sep_dp(g, make_nice(min_fill_decomposition(g)), c, ell_max=s)
    entry = table.query(c, s)
    if entry is None:
        return None
    b = frozenset(g.vertices) - entry.s_set - entry.a_set
    return Separation(entry.s_set, entry.a_set, b)


def _bfs_last(g: Graph, comp: FrozenSet[int]) -> int:
    """Last vertex discovered by BFS from the smallest vertex of comp.

    Removing it keeps the component connected (it is a leaf of the BFS
    tree), which is what the rebalancing move relies on.
    """
    root = min(comp)
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(g.neighbors(u) & comp):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order[-1]


def _drive_balance(g: Graph, sep: Separation) -> Separation:
    """Shrink the heavier side until the sides differ by at most one.

    Prefers the budgeted move into S (a BFS leaf of a component with at
    least two vertices); when the heavier side consists of singleton
    components only, a whole singleton hops across instead, which keeps S
    and the component count unchanged and still shrinks the imbalance.
    """
    s, a, b = set(sep.s), set(sep.a), set(sep.b)
    while abs(len(a) - len(b)) > 1:
        big, small = (a, b) if len(a) > len(b) else (b, a)
        comps = connected_components(g, within=big)
        movable = [comp for comp in comps if len(comp) >= 2]
        if movable:
            leaf = _bfs_last(g, min(movable, key=min))
            big.discard(leaf)
            s.add(leaf)
        else:
            v = min(big)
            big.discard(v)
            small.add(v)
    return Separation(s, a, b)


def solve_vertex_bisection(g: Graph, k: int, c: int) -> Optional[Separation]:
    """A c-component balanced separator of size at most k, or None.

    Fills one separator table on G, scans the window of A-weights around
    half the graph, and rebalances every accepted entry.  Among all
    candidates the smallest separator wins (ties by vertex order, then by
    A-side).  The table is filled with ``value_max=k`` and ``ell_max`` the
    top of the A-weight window; entries beyond either could never be
    accepted.

    The paper guesses every terminal set T of size c and contracts G
    around the small separators between its terminals (``build_trimmer``),
    which only serves to bound the treewidth of the graph the table is
    filled on.  The table is exact on any tree decomposition, and the
    identity map is a valid contraction for every T, so the table on G
    itself holds, for every A-weight, a separator no heavier than any the
    contracted graphs' tables could pull back.
    """
    if k < 0:
        raise ValueError("separator budget must be non-negative")
    if c < 2:
        raise ValueError("need at least two components")
    if not g.is_unit_vertex_weighted():
        raise ValueError("vertex bisection is defined on unit-weight graphs")
    n = g.n
    s_lo = max(0, (n - 1 - 2 * k) // 2)  # integer ceil of n/2 - 1 - k
    s_hi = min(n, (n + 2 * k) // 2)
    table = sep_dp(g, make_nice(min_fill_decomposition(g)), c, value_max=k, ell_max=s_hi)
    best: Optional[Tuple[tuple, Separation]] = None
    for s in range(s_lo, s_hi + 1):
        entry = table.query(c, s)
        if entry is None:
            continue
        lam_b = n - s - entry.value
        if abs(s - lam_b) > k - entry.value + 1:
            continue
        b_set = frozenset(g.vertices) - entry.s_set - entry.a_set
        cand = _drive_balance(g, Separation(entry.s_set, entry.a_set, b_set))
        if (
            not cand.is_valid(g)
            or len(cand.s) > k
            or abs(len(cand.a) - len(cand.b)) > 1
            or count_components_after_removal(g, cand.s) != c
        ):
            raise RuntimeError("internal error: candidate failed validation")
        rank = (len(cand.s), tuple(sorted(cand.s)), tuple(sorted(cand.a)))
        if best is None or rank < best[0]:
            best = (rank, cand)
    return best[1] if best else None
