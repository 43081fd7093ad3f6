"""Text formats: .gr graphs, q-expressions, solutions.

The graph format follows the PACE conventions (`p tw` header, one edge
per line).  Weighted graphs use the reserved prefixes `w` (vertex weight)
and `e` (weighted edge), which strict PACE readers that skip unknown line
types will simply ignore.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import Graph
from .qexpr import Create, Join, QExpression, Rename, Union


class ParseError(ValueError):
    """A syntax or consistency error, annotated with where it happened."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None and col is not None:
            where = f"line {line}, column {col}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


def _tokens(raw: str):
    """(token, 1-based column) pairs for one line."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]


def _int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got {tok!r}", lineno, col) from None


# --------------------------------------------------------------------------
# graphs (.gr)
# --------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Read a `p tw` graph file, with optional `w`/`e` weight lines."""
    header: Optional[Tuple[int, int]] = None
    edges: List[Tuple[int, int]] = []
    edge_line: Dict[Tuple[int, int], int] = {}
    vweights: Dict[int, int] = {}
    eweights: Dict[Tuple[int, int], int] = {}

    def check_vertex(v: int, lineno: int, col: int) -> int:
        n = header[0]
        if not 1 <= v <= n:
            raise ParseError(f"vertex {v} out of range 1..{n}", lineno, col)
        return v

    def add_edge(u: int, v: int, lineno: int, col: int) -> Tuple[int, int]:
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno, col)
        key = (min(u, v), max(u, v))
        if key in edge_line:
            raise ParseError(
                f"edge ({key[0]},{key[1]}) repeats line {edge_line[key]}", lineno, col
            )
        edge_line[key] = lineno
        edges.append(key)
        return key

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split()
        if header is not None and len(words) == 2 and words[0].isdecimal() and words[1].isdecimal():
            # a plain edge line needs no columns unless it is at fault; the
            # checks raise before changing anything, so a faulty line is read
            # again by the tokenizer below and raises there with its column
            try:
                u = check_vertex(int(words[0]), lineno, 0)
                add_edge(u, check_vertex(int(words[1]), lineno, 0), lineno, 0)
                continue
            except ValueError:
                pass
        toks = _tokens(raw)
        if not toks or toks[0][0] == "c":
            continue
        kind, col0 = toks[0]
        if kind == "p":
            if header is not None:
                raise ParseError("second p-line", lineno, col0)
            if len(toks) != 4 or toks[1][0] != "tw":
                raise ParseError("expected `p tw <n> <m>`", lineno, col0)
            n = _int(toks[2][0], lineno, toks[2][1], "a vertex count")
            m = _int(toks[3][0], lineno, toks[3][1], "an edge count")
            if n < 0 or m < 0:
                raise ParseError("counts must be non-negative", lineno, col0)
            header = (n, m)
            continue
        if header is None:
            raise ParseError("body line before the p-line", lineno, col0)
        if kind == "w":
            if len(toks) != 3:
                raise ParseError("expected `w <v> <weight>`", lineno, col0)
            v = check_vertex(_int(toks[1][0], lineno, toks[1][1], "a vertex"), lineno, toks[1][1])
            wt = _int(toks[2][0], lineno, toks[2][1], "a weight")
            if wt < 1:
                raise ParseError("weights must be at least 1", lineno, toks[2][1])
            if v in vweights:
                raise ParseError(f"second weight for vertex {v}", lineno, toks[1][1])
            vweights[v] = wt
        elif kind == "e":
            if len(toks) != 4:
                raise ParseError("expected `e <u> <v> <weight>`", lineno, col0)
            u = check_vertex(_int(toks[1][0], lineno, toks[1][1], "a vertex"), lineno, toks[1][1])
            v = check_vertex(_int(toks[2][0], lineno, toks[2][1], "a vertex"), lineno, toks[2][1])
            wt = _int(toks[3][0], lineno, toks[3][1], "a weight")
            if wt < 1:
                raise ParseError("weights must be at least 1", lineno, toks[3][1])
            eweights[add_edge(u, v, lineno, col0)] = wt
        else:
            if len(toks) != 2:
                raise ParseError(f"unrecognized line kind {kind!r}", lineno, col0)
            u = check_vertex(_int(toks[0][0], lineno, toks[0][1], "a vertex"), lineno, toks[0][1])
            v = check_vertex(_int(toks[1][0], lineno, toks[1][1], "a vertex"), lineno, toks[1][1])
            add_edge(u, v, lineno, col0)

    if header is None:
        raise ParseError("missing `p tw <n> <m>` header")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but the body has {len(edges)}")
    return Graph(
        n,
        edges,
        vertex_weights=vweights or None,
        edge_weights=eweights or None,
    )


def emit_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph; `parse_graph` inverts this exactly."""
    out = [f"c {c}" if c else "c" for c in comments]
    out.append(f"p tw {g.n} {g.m}")
    for v in g.vertices:
        if g.vertex_weight(v) != 1:
            out.append(f"w {v} {g.vertex_weight(v)}")
    for u, v in g.edges():
        wt = g.edge_weight(u, v)
        out.append(f"e {u} {v} {wt}" if wt != 1 else f"{u} {v}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# q-expressions
# --------------------------------------------------------------------------

_QTOKEN = re.compile(r"\s*(->|[(),]|[A-Za-z_]+|\d+|\S)")


def _qlex(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _QTOKEN.match(text, pos)
        if not m:  # only trailing whitespace left
            break
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


def _line_col(text: str, offset: int) -> Tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


class _QParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _qlex(text)
        self.pos = 0

    def error(self, message: str, offset: Optional[int] = None):
        if offset is None:
            offset = self.toks[self.pos][1] if self.pos < len(self.toks) else len(self.text)
        line, col = _line_col(self.text, offset)
        raise ParseError(message, line, col)

    def take(self, want: Optional[str] = None) -> Tuple[str, int]:
        if self.pos >= len(self.toks):
            if want == ")":
                self.error("unbalanced parentheses: expected ')'", len(self.text))
            self.error("unexpected end of input" + (f", expected {want!r}" if want else ""))
        tok, off = self.toks[self.pos]
        if want is not None and tok != want:
            if want == ")":
                self.error(f"unbalanced parentheses: expected ')' before {tok!r}", off)
            self.error(f"expected {want!r}, got {tok!r}", off)
        self.pos += 1
        return tok, off

    def label(self) -> Tuple[int, int]:
        tok, off = self.take()
        if not tok.isdigit():
            self.error(f"expected a label, got {tok!r}", off)
        value = int(tok)
        if value < 1:
            self.error(f"labels must be positive, got {value}", off)
        return value, off

    def expr(self) -> QExpression:
        """Parse one expression.  An operator whose subexpressions are still
        being read waits on `pending`, so nesting depth is bounded by memory,
        not by the recursion limit."""
        pending: List[list] = []  # [keyword, i, j, offset of i, parsed children]
        while True:
            tok, off = self.take()
            if tok == "join" or tok == "ren":
                self.take("(")
                i, ioff = self.label()
                self.take("," if tok == "join" else "->")
                j, _ = self.label()
                self.take(",")
                pending.append([tok, i, j, ioff, []])
                continue
            if tok == "union":
                self.take("(")
                pending.append([tok, 0, 0, off, []])
                continue
            if tok != "v":
                self.error(f"expected an expression, got {tok!r}", off)
            self.take("(")
            i, _ = self.label()
            self.take(")")
            node: QExpression = Create(i)
            # hand the finished subexpression up, closing every operator it
            # completes; a union still missing its right side reads on
            while pending:
                tok, i, j, ioff, kids = pending[-1]
                kids.append(node)
                if tok == "union" and len(kids) == 1:
                    self.take(",")
                    break
                self.take(")")
                pending.pop()
                if tok == "union":
                    node = Union(kids[0], kids[1])
                    continue
                try:
                    node = Join(i, j, node) if tok == "join" else Rename(i, j, node)
                except ValueError as exc:
                    self.error(str(exc), ioff)
            else:
                return node


def parse_qexpr(text: str) -> QExpression:
    """Parse `v(i) | join(i,j,e) | ren(i->j,e) | union(e,e)` syntax."""
    p = _QParser(text)
    if not p.toks:
        raise ParseError("empty expression")
    e = p.expr()
    if p.pos < len(p.toks):
        p.error("trailing input after the expression")
    return e


def emit_qexpr(expr: QExpression) -> str:
    """The concrete syntax of an expression (repr already is the grammar,
    written by an iterative walk, so any depth works)."""
    return repr(expr)


# --------------------------------------------------------------------------
# solution files
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """A `cut <k>` or `sep <k>` header plus one `<vertex> <part>` per line."""

    kind: str  # "cut" or "sep"
    value: int
    parts: Dict[int, int]


def parse_solution(text: str) -> Solution:
    kind: Optional[str] = None
    value = 0
    parts: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks or toks[0][0] == "c":
            continue
        first, col0 = toks[0]
        if kind is None:
            if first not in ("cut", "sep") or len(toks) != 2:
                raise ParseError("expected `cut <k>` or `sep <k>`", lineno, col0)
            kind = first
            value = _int(toks[1][0], lineno, toks[1][1], "a value")
            continue
        if len(toks) != 2:
            raise ParseError("expected `<vertex> <part>`", lineno, col0)
        v = _int(first, lineno, col0, "a vertex")
        part = _int(toks[1][0], lineno, toks[1][1], "a part")
        if part < 0:
            raise ParseError("parts are numbered from 0", lineno, toks[1][1])
        if v in parts:
            raise ParseError(f"vertex {v} assigned twice", lineno, col0)
        parts[v] = part
    if kind is None:
        raise ParseError("missing `cut <k>` or `sep <k>` header")
    return Solution(kind, value, parts)


def emit_solution(sol: Solution) -> str:
    out = [f"{sol.kind} {sol.value}"]
    out.extend(f"{v} {sol.parts[v]}" for v in sorted(sol.parts))
    return "\n".join(out) + "\n"
