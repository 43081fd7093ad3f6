"""Labeled-graph expressions over the four cliquewidth operators.

An expression is an AST built from Create (a single labeled vertex), Union
(disjoint union), Rename (merge one label into another) and Join (add all
edges between two label classes).  Evaluation numbers vertices 1..n in
left-to-right order of the Create leaves, so a given expression always
produces the same labeled graph.

Normalization keeps the value while making every surviving Join *full*: at
the moment it is applied, no edge between its two label classes exists yet.
The rewrite only ever drops operators, never adds them.

Every pass over an expression, equality and hashing included, goes
through one explicit-stack post-order walk (`postorder` / `fold_qexpr`), so
nesting depth is bounded by memory, not by the interpreter's recursion
limit; `eval_walk` (value and normal-form check, one replay) and
`node_labels` (the labels in use, hence ``q``) read one such list.  Two
expressions are equal when their concrete syntax is: structure and labels
count, Create names do not.

Two builders give expressions of known cliquewidth: `forest_qexpr`, the
3-expression of any forest (of a graph minus a deletion set, which
`greedy_deletion_set` picks), and `clique_qexpr`, the 2-expression of a
clique.  Tree roots alternate between labels 2 and 3 by depth, so each tree
edge costs three operators (Union, Join, Rename): a forest with N vertices
in c trees gets 4N - 2c - 1 nodes, and every Join is full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .graph import Graph, connected_components


class QExpression:
    """Base class; concrete nodes below."""

    def children(self) -> Tuple["QExpression", ...]:
        raise NotImplementedError

    @property
    def q(self) -> int:
        """Number of labels in scope: the largest label any node uses."""
        return node_labels(postorder(self))[-1]

    def size(self) -> int:
        return len(postorder(self))

    def __repr__(self) -> str:
        return _text(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpression):
            return NotImplemented
        return self is other or _text(self) == _text(other)

    def __hash__(self) -> int:
        return hash(_text(self))


@dataclass(frozen=True, eq=False, repr=False)
class Create(QExpression):
    """A single fresh vertex with the given label (the •_i operator)."""

    label: int
    name: object = None

    def __post_init__(self):
        if self.label < 1:
            raise ValueError(f"label must be positive, got {self.label}")

    def children(self):
        return ()


@dataclass(frozen=True, eq=False, repr=False)
class Union(QExpression):
    """Disjoint union of two expressions."""

    left: QExpression
    right: QExpression

    def children(self):
        return (self.left, self.right)


def _check_label_pair(i: int, j: int):
    if i < 1 or j < 1:
        raise ValueError(f"labels must be positive, got ({i},{j})")
    if i == j:
        raise ValueError(f"the two labels must differ, got ({i},{j})")


@dataclass(frozen=True, eq=False, repr=False)
class Join(QExpression):
    """Add every edge between label-i and label-j vertices."""

    i: int
    j: int
    child: QExpression

    def __post_init__(self):
        _check_label_pair(self.i, self.j)

    def children(self):
        return (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class Rename(QExpression):
    """Give every label-i vertex label j instead."""

    i: int
    j: int
    child: QExpression

    def __post_init__(self):
        _check_label_pair(self.i, self.j)

    def children(self):
        return (self.child,)


# -- the walker ----------------------------------------------------------------


def postorder(expr: QExpression) -> List[QExpression]:
    """Every node of ``expr``, each after its children, children left to
    right.  A subexpression used twice is listed twice, just as evaluation
    copies it twice.  A node's index in this list is its walk position."""
    out: List[QExpression] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, QExpression):
            raise TypeError(f"not an expression node: {node!r}")
        out.append(node)
        stack.extend(node.children())
    out.reverse()
    return out


def fold_qexpr(
    nodes: List[QExpression], visit: Callable[[int, QExpression, list], object]
):
    """Bottom-up fold over ``nodes``, an expression's ``postorder`` list:
    ``visit(position, node, child_values)`` runs for each node in turn and
    its return value is the node's value; returns the root's.  Only values
    whose parent has not been visited yet are held.  A caller that folds
    one expression many times computes the list once."""
    values: list = []
    for pos, node in enumerate(nodes):
        k = len(values) - len(node.children())
        kids = values[k:]
        del values[k:]
        values.append(visit(pos, node, kids))
    return values[0]


def node_labels(nodes: List[QExpression]) -> List[int]:
    """The labels any of ``nodes`` names, in increasing order, read off an
    expression's ``postorder`` list; the last is its ``q``."""
    used = set()
    for node in nodes:
        if isinstance(node, Create):
            used.add(node.label)
        elif not isinstance(node, Union):
            used.update((node.i, node.j))
    return sorted(used)


def _text(expr: QExpression) -> str:
    """The concrete syntax ``v(i) | join(i,j,e) | ren(i->j,e) | union(e,e)``."""

    def visit(pos, node, kids):
        # nested tuples of pieces, flattened once at the end, so no text is
        # copied per level
        if isinstance(node, Create):
            return f"v({node.label})"
        if isinstance(node, Union):
            return ("union(", kids[0], ",", kids[1], ")")
        op = "join({},{}," if isinstance(node, Join) else "ren({}->{},"
        return (op.format(node.i, node.j), kids[0], ")")

    out: List[str] = []
    stack = [fold_qexpr(postorder(expr), visit)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


# -- replay: evaluation, full-join check and normalization ---------------------


@dataclass(frozen=True)
class LabeledGraph:
    """Evaluation result: a graph, a label per vertex, and the optional
    Create-leaf names of the vertices (None where the leaf had none)."""

    graph: Graph
    labels: Dict[int, int]
    names: Dict[int, object]


class _Replay(NamedTuple):
    classes: Dict[int, List[int]]  # final label -> its vertices
    names: List[object]  # Create names in vertex order
    edges: Dict[Tuple[int, int], int]  # vertex pair -> position of its last Join
    dropped: set  # positions of the Joins and Renames normalization drops
    full: bool  # no Join adds a pair that an earlier Join added


def _merge(classes: Dict[int, List[int]], label: int, verts: List[int]) -> None:
    """Add ``verts`` to class ``label``, moving the shorter list."""
    cur = classes.get(label)
    if cur is None:
        classes[label] = verts
    elif len(cur) >= len(verts):
        cur.extend(verts)
    else:
        verts.extend(cur)
        classes[label] = verts


def _replay(nodes: List[QExpression]) -> _Replay:
    """Evaluate an expression, given as its post-order list, bottom-up,
    holding each live subexpression's label classes.

    Label classes only coarsen, so two Join pair sets that meet are nested,
    the later one containing the earlier.  A Join is therefore redundant
    exactly when its pair set is empty or a later Join adds one of its pairs
    again, and a Rename exactly when its source class is empty.
    """
    names: List[object] = []
    edges: Dict[Tuple[int, int], int] = {}
    dropped: set = set()
    full = True

    def visit(pos, node, kids):
        nonlocal full
        if isinstance(node, Create):
            names.append(node.name)
            return {node.label: [len(names)]}
        if isinstance(node, Union):
            left, right = kids
            for label, verts in right.items():
                _merge(left, label, verts)
            return left
        (classes,) = kids
        if isinstance(node, Join):
            xs, ys = classes.get(node.i, ()), classes.get(node.j, ())
            if not xs or not ys:
                dropped.add(pos)
            for u in xs:
                for w in ys:
                    e = (u, w) if u < w else (w, u)
                    earlier = edges.get(e)
                    if earlier is not None:
                        dropped.add(earlier)
                        full = False
                    edges[e] = pos
        else:
            src = classes.pop(node.i, None)
            if src is None:
                dropped.add(pos)
            else:
                _merge(classes, node.j, src)
        return classes

    classes = fold_qexpr(nodes, visit)
    return _Replay(classes, names, edges, dropped, full)


def eval_walk(nodes: List[QExpression]) -> Tuple[LabeledGraph, bool]:
    """Evaluate an expression given as its ``postorder`` list, and say
    whether it is already normal (``normalize_qexpr`` would return it
    unchanged), from one replay.  Normalization keeps the Create leaves and
    the value, so the labeled graph is also that of the normalized form."""
    r = _replay(nodes)
    label_of = {v: label for label, verts in r.classes.items() for v in verts}
    n = len(r.names)
    g = Graph(n, sorted(r.edges))
    lg = LabeledGraph(
        g,
        {v: label_of[v] for v in range(1, n + 1)},
        {v: name for v, name in enumerate(r.names, start=1)},
    )
    return lg, not r.dropped


def eval_qexpr(expr: QExpression) -> LabeledGraph:
    """Evaluate to the labeled graph."""
    return eval_walk(postorder(expr))[0]


def normalize_qexpr(expr: QExpression) -> QExpression:
    """Equivalent expression, never longer, in which every Join is full.

    One replay marks the redundant Joins and the empty-source Renames; the
    rebuild drops exactly those.  Any two surviving Joins then have disjoint
    pair sets, so each is full when applied.  When nothing is marked, the
    input itself is returned.
    """
    nodes = postorder(expr)
    dropped = _replay(nodes).dropped
    if not dropped:
        return expr

    def rebuild(pos, node, kids):
        if pos in dropped:
            return kids[0]
        if isinstance(node, Create):
            return node
        if isinstance(node, Union):
            return Union(kids[0], kids[1])
        return type(node)(node.i, node.j, kids[0])

    return fold_qexpr(nodes, rebuild)


def joins_are_full(expr: QExpression) -> bool:
    """Replay check: does every Join apply to classes with no edge between
    them yet?  Used by tests and the bisection DP precondition."""
    return _replay(postorder(expr)).full


# -- builders: forests, deletion sets, cliques ---------------------------------


def _tree_qexpr(g: Graph, root: int, keep: frozenset) -> QExpression:
    """3-expression of the tree of g[keep] that contains ``root``."""
    # breadth-first, so every vertex comes after its parent.  Invariant: a
    # subtree root carries label 2 at even depth and 3 at odd depth, every
    # other vertex label 1, so a child subtree is built with its root on the
    # label its parent joins, and three operators per edge join and retire it
    kids: Dict[int, List[int]] = {}
    order = [root]
    label = {root: 2}
    for v in order:
        kids[v] = [c for c in sorted(g.neighbors(v) & keep) if c not in label]
        for c in kids[v]:
            label[c] = 5 - label[v]
        order.extend(kids[v])
    built: Dict[int, QExpression] = {}
    for v in reversed(order):
        r = label[v]
        e: QExpression = Create(r, name=v)
        for c in kids[v]:
            e = Rename(5 - r, 1, Join(r, 5 - r, Union(e, built.pop(c))))
        built[v] = e
    return built[root]


def forest_qexpr(g: Graph, skip: Iterable[int] = ()) -> QExpression:
    """A 3-expression for g minus ``skip``, which must induce a forest.

    Each tree is rooted at its smallest vertex, children are added in
    increasing order, and the trees are joined by Union in order of their
    smallest vertex.  Create leaves are named with g's vertex ids.
    """
    skip = frozenset(skip)
    keep = frozenset(v for v in g.vertices if v not in skip)
    if not keep:
        raise ValueError("the deletion set leaves no vertices")
    comps = connected_components(g, within=keep)
    inside = sum(1 for u, v in g.edges() if u in keep and v in keep)
    if inside != len(keep) - len(comps):
        raise ValueError(
            "the graph minus the deletion set is not a forest; "
            "pass an expression for it (--expr on the command line)"
        )
    expr: Optional[QExpression] = None
    for comp in comps:
        tree = _tree_qexpr(g, min(comp), comp)
        expr = tree if expr is None else Union(expr, tree)
    return expr


def _find_cycle(g: Graph, banned: set) -> Optional[List[int]]:
    """Vertices of some cycle in g - banned, or None if it is a forest."""
    color: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    for start in g.vertices:
        if start in banned or start in color:
            continue
        stack = [(start, None)]
        parent[start] = None
        while stack:
            v, par = stack.pop()
            if v in color:
                continue
            color[v] = 1
            parent[v] = par
            for w in sorted(g.neighbors(v)):
                if w in banned or w == par:
                    continue
                if w in color:
                    # back edge: walk both endpoints up to their meeting point
                    path_v = []
                    x: Optional[int] = v
                    while x is not None:
                        path_v.append(x)
                        x = parent[x]
                    on_v = set(path_v)
                    cyc = []
                    y: Optional[int] = w
                    while y not in on_v:
                        cyc.append(y)
                        y = parent[y]
                    cyc.extend(path_v[: path_v.index(y) + 1])
                    return cyc
                stack.append((w, v))
    return None


def greedy_deletion_set(g: Graph) -> List[int]:
    """A vertex set whose removal leaves a forest (greedy, not minimum)."""
    removed: set = set()
    while True:
        cyc = _find_cycle(g, removed)
        if cyc is None:
            return sorted(removed)
        # drop the cycle vertex with the most remaining neighbours
        best = max(cyc, key=lambda v: (len(g.neighbors(v) - removed), -v))
        removed.add(best)


def clique_qexpr(n: int) -> QExpression:
    """A 2-expression for the clique on 1..n, its Create leaves named with
    the vertex ids."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    e: QExpression = Create(1, name=1)
    for k in range(2, n + 1):
        if k > 2:
            e = Rename(2, 1, e)
        e = Join(1, 2, Union(e, Create(2, name=k)))
    return e
