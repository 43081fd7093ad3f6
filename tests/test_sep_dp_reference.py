"""The separator DP against a frozenset reference, past the oracles' sizes.

``reference_root`` is the separator table as it was filled before codes
and bitmasks: states are the separator slice and one partition per side,
each part a frozenset, re-sorted after every step, and every witness is
ranked by its sorted vertex tuples.  The root table is the same on any
decomposition of the graph, so the reference also runs on decompositions
of random elimination orders.  ``sep_dp`` must return the same root map,
witnesses included.
"""

import random
from collections import defaultdict
from itertools import chain
from math import inf

from balcut.graph import Graph
from balcut.td import JOIN, LEAF, _elimination_decomposition, make_nice, min_fill_decomposition
from balcut.vbp import SepEntry, _steps, sep_dp

from .conftest import random_graph


def _canon(parts):
    return tuple(sorted((frozenset(p) for p in parts), key=min))


def _rank(entry):
    return entry.value, tuple(sorted(entry.s_set)), tuple(sorted(entry.a_set))


def _put(table, key, entry):
    old = table.get(key)
    if old is None or _rank(entry) < _rank(old):
        table[key] = entry


def _fcc(p1, p2):
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in chain(p1, p2):
        first, *rest = sorted(part)
        parent.setdefault(first, first)
        for v in rest:
            parent.setdefault(v, v)
            ra, rb = find(first), find(v)
            if ra != rb:
                parent[rb] = ra
    groups = defaultdict(set)
    for v in parent:
        groups[find(v)].add(v)
    return _canon(groups.values())


def _glue(parts, v, nv):
    touched = [part for part in parts if part & nv]
    rest = [part for part in parts if not part & nv]
    return _canon(rest + [frozenset({v}).union(*touched)])


def _introduce(g, child, v, value_max, ell_max):
    table = {}
    nv = g.neighbors(v)
    lam_v = g.vertex_weight(v)
    for (s_t, p_a, p_b, c, ell), e in child.items():
        if e.value + lam_v <= value_max:
            entry = SepEntry(e.value + lam_v, e.s_set | {v}, e.a_set)
            _put(table, (s_t | {v}, p_a, p_b, c, ell), entry)
        if ell + lam_v <= ell_max and not any(part & nv for part in p_b):
            entry = SepEntry(e.value, e.s_set, e.a_set | {v})
            _put(table, (s_t, _glue(p_a, v, nv), p_b, c, ell + lam_v), entry)
        if not any(part & nv for part in p_a):
            _put(table, (s_t, p_a, _glue(p_b, v, nv), c, ell), e)
    return table


def _forget(child, v, c_max):
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
                    continue
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


def _join(g, t1, t2, c_max, value_max, ell_max):
    def grouped(table):
        groups = defaultdict(list)
        for key, e in table.items():
            s_t, p_a = key[0], key[1]
            groups[(s_t, frozenset().union(*p_a))].append((key, e))
        return groups

    g2 = grouped(t2)
    table = {}
    for (s_t, wa), items1 in grouped(t1).items():
        lam_wa, lam_st = g.weight_of(wa), g.weight_of(s_t)
        for k1, e1 in items1:
            for k2, e2 in g2.get((s_t, wa), ()):
                c = k1[3] + k2[3]
                value = e1.value + e2.value - lam_st
                ell = k1[4] + k2[4] - lam_wa
                if c > c_max or value > value_max or ell > ell_max:
                    continue
                key = (s_t, _fcc(k1[1], k2[1]), _fcc(k1[2], k2[2]), c, ell)
                _put(table, key, SepEntry(value, e1.s_set | e2.s_set, e1.a_set | e2.a_set))
    return table


def reference_root(g, ntd, c_max, value_max=inf, ell_max=inf):
    live = []
    for kind, bag, arity in _steps(ntd):
        k = len(live) - arity
        kids = live[k:]
        del live[k:]
        if kind == LEAF:
            table = {(frozenset(), (), (), 0, 0): SepEntry(0, frozenset(), frozenset())}
            for v in bag:
                table = _introduce(g, table, v, value_max, ell_max)
        elif kind == JOIN:
            table = _join(g, kids[0], kids[1], c_max, value_max, ell_max)
        elif kind[0] == "introduce":
            table = _introduce(g, kids[0], kind[1], value_max, ell_max)
        else:
            table = _forget(kids[0], kind[1], c_max)
        live.append(table)
    (root,) = live
    return {(c, ell): e for (_, _, _, c, ell), e in root.items()}


def test_root_tables_match_the_frozenset_reference():
    """Seeded G(n, p) up to n = 24, half of them vertex-weighted, with
    random bounds, on the min-fill decomposition and on the decomposition
    of a random elimination order."""
    rng = random.Random(20261019)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 24)
        base = random_graph(n, rng.uniform(0.05, 3.0 / max(n, 1)), seed=rng.randrange(10**6))
        weights = (
            {v: rng.randint(1, 3) for v in base.vertices} if rng.random() < 0.5 else None
        )
        g = Graph(n, base.edges(), vertex_weights=weights)
        order = list(g.vertices)
        rng.shuffle(order)
        decompositions = [min_fill_decomposition(g), _elimination_decomposition(g, order)]
        if max(td.width for td in decompositions) > 4:
            continue
        c_max = rng.randint(1, 3)
        total = g.total_vertex_weight
        bounds = (
            {"value_max": rng.randint(0, total), "ell_max": rng.randint(0, total)}
            if rng.random() < 0.5
            else {}
        )
        for td in decompositions:
            ntd = make_nice(td)
            want = reference_root(g, ntd, c_max, **bounds)
            assert sep_dp(g, ntd, c_max, **bounds).entries == want, (
                n,
                sorted(g.edges()),
                weights,
                c_max,
                bounds,
            )
        checked += 1
