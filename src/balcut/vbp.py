"""Minimum-weight c-component separators over nice tree decompositions.

Each decomposition node has a table keyed by the separator slice inside the
bag, partitions recording how the A- and B-sides meet the bag, a counter of
finished components, and the target weight of side A.  Tables are filled in
one bottom-up fold that holds only the tables of nodes whose parent is still
to come; synthesized forget steps then empty the root bag, and only that
last table, keyed by (components, A-weight), is kept.  Each entry carries a
concrete witness (the separator and the A-side realizing the minimum), which
makes retracing a lookup and tie-breaking reproducible: minimum weight
first, then the lexicographically smallest separator, then the smallest
A-side.  A caller that will only query small separators or light A-sides
passes ``value_max`` / ``ell_max``, and entries beyond them are never made.

On top of the table sit the two solvers, both over one min-fill
decomposition of the whole graph (``td.min_fill_decomposition``):
``min_weight_separator`` answers a single (c, s) query, and
``solve_vertex_bisection`` scans a window of A-weights around half the
graph and rebalances each accepted entry by moving BFS leaves of the
heavier side into the separator (``_drive_balance``).
"""

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from math import inf
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .graph import (
    Graph,
    Separation,
    connected_components,
    count_components_after_removal,
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

Partition = Tuple[FrozenSet[int], ...]


def _canon(parts) -> Partition:
    """Canonical form of a partition: parts ordered by smallest element."""
    return tuple(sorted((frozenset(p) for p in parts), key=min))


class SepEntry(NamedTuple):
    value: int
    s_set: FrozenSet[int]
    a_set: FrozenSet[int]


def _rank(entry: SepEntry):
    return entry.value, tuple(sorted(entry.s_set)), tuple(sorted(entry.a_set))


def _put(table, key, entry) -> None:
    old = table.get(key)
    if old is None or _rank(entry) < _rank(old):
        table[key] = entry


def _fcc(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening of two partitions of the same ground set."""
    parent: Dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in chain(p1, p2):
        it = iter(sorted(part))
        first = next(it)
        parent.setdefault(first, first)
        for v in it:
            parent.setdefault(v, v)
            ra, rb = find(first), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: Dict[int, set] = defaultdict(set)
    for v in parent:
        groups[find(v)].add(v)
    return _canon(groups.values())


@dataclass
class SepTable:
    """The separator table above the root: ``entries`` maps (components,
    A-weight) to the minimum-weight entry; infeasible pairs are absent."""

    entries: Dict[Tuple[int, int], SepEntry]

    def query(self, c: int, ell: int) -> Optional[SepEntry]:
        return self.entries.get((c, ell))


def _glue(parts: Partition, v: int, nv: FrozenSet[int]) -> Partition:
    """One side's partition after v joins it: v and every part it touches
    become one part."""
    touched = [part for part in parts if part & nv]
    rest = [part for part in parts if not part & nv]
    return _canon(rest + [frozenset({v}).union(*touched)])


def _introduce_table(g: Graph, child, v: int, value_max, ell_max):
    table = {}
    nv = g.neighbors(v)
    lam_v = g.vertex_weight(v)
    for (s_t, p_a, p_b, c, ell), e in child.items():
        # v joins the separator
        if e.value + lam_v <= value_max:
            entry = SepEntry(e.value + lam_v, e.s_set | {v}, e.a_set)
            _put(table, (s_t | {v}, p_a, p_b, c, ell), entry)
        # v joins one side, gluing the parts it touches; forbidden if it sees
        # the other side (ell tracks A only)
        if ell + lam_v <= ell_max and not any(part & nv for part in p_b):
            entry = SepEntry(e.value, e.s_set, e.a_set | {v})
            _put(table, (s_t, _glue(p_a, v, nv), p_b, c, ell + lam_v), entry)
        if not any(part & nv for part in p_a):
            _put(table, (s_t, p_a, _glue(p_b, v, nv), c, ell), e)
    return table


def _forget_table(child, v: int, c_max: int):
    table = {}
    for (s_t, p_a, p_b, c, ell), e in child.items():
        if v in s_t:
            key = (s_t - {v}, p_a, p_b, c, ell)
        elif any(v in part for part in p_a):
            kept = [part for part in p_a if v not in part]
            shrunk = next(part for part in p_a if v in part) - {v}
            if shrunk:
                key = (s_t, _canon(kept + [shrunk]), p_b, c, ell)
            else:
                if c + 1 > c_max:
                    continue  # the counter only ever grows upwards
                key = (s_t, _canon(kept), p_b, c + 1, ell)
        else:
            kept = [part for part in p_b if v not in part]
            shrunk = next(part for part in p_b if v in part) - {v}
            if shrunk:
                key = (s_t, p_a, _canon(kept + [shrunk]), c, ell)
            else:
                if c + 1 > c_max:
                    continue
                key = (s_t, p_a, _canon(kept), c + 1, ell)
        _put(table, key, e)
    return table


def _join_tables(g: Graph, t1, t2, c_max: int, value_max, ell_max):
    def grouped(table):
        groups = defaultdict(list)
        for key, e in table.items():
            s_t, p_a, p_b, c, ell = key
            wa = frozenset().union(*p_a) if p_a else frozenset()
            groups[(s_t, wa)].append((key, e))
        return groups

    g1, g2 = grouped(t1), grouped(t2)
    table = {}
    for sig, items1 in g1.items():
        items2 = g2.get(sig)
        if not items2:
            continue
        s_t, wa = sig
        lam_wa = g.weight_of(wa)
        lam_st = g.weight_of(s_t)
        for (k1, e1) in items1:
            for (k2, e2) in items2:
                c = k1[3] + k2[3]
                value = e1.value + e2.value - lam_st
                ell = k1[4] + k2[4] - lam_wa
                if c > c_max or value > value_max or ell > ell_max:
                    continue
                key = (s_t, _fcc(k1[1], k2[1]), _fcc(k1[2], k2[2]), c, ell)
                entry = SepEntry(value, e1.s_set | e2.s_set, e1.a_set | e2.a_set)
                _put(table, key, entry)
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
):
    """The table of one step from its children's tables; entries with
    separator weight above ``value_max`` or A-weight above ``ell_max`` are
    never made."""
    if kind == LEAF:  # the empty-state table, then the bag vertex (if any) introduced
        table = {(frozenset(), (), (), 0, 0): SepEntry(0, frozenset(), frozenset())}
        for v in bag:
            table = _introduce_table(g, table, v, value_max, ell_max)
        return table
    if kind == JOIN:
        return _join_tables(g, kids[0], kids[1], c_max, value_max, ell_max)
    if kind[0] == "introduce":
        return _introduce_table(g, kids[0], kind[1], value_max, ell_max)
    return _forget_table(kids[0], kind[1], c_max)


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
    return SepTable({(c, ell): e for (_, _, _, c, ell), e in root.items()})


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
