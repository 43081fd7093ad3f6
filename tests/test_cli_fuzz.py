"""Seeded fuzz of the command-line interface.

A few hundred in-process ``cli.main`` calls across every subcommand, on
random graphs with at most 9 vertices, some weighted and some garbled, and
on random or garbled solution and expression files.  Flag values stay
within 10^3, and within single digits where a generator's output grows
with them.  Each call must end in exit code 0, 1 or 2; any other code
or an escaping exception fails the test.
"""

import random

from balcut import cli, formats
from balcut.graph import Graph

SEED = 2026
CALLS = 300

JUNK = ["x", "-1", "0", "99", "1.5", ",", "e", "w", "p", "tw", "b"]


def _graph(rng: random.Random) -> Graph:
    n = rng.randint(0, 9)
    p = rng.random()
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    vw = ew = None
    if rng.random() < 0.2:
        vw = {v: rng.randint(1, 4) for v in range(1, n + 1) if rng.random() < 0.5}
    if rng.random() < 0.2:
        ew = {e: rng.randint(1, 4) for e in edges if rng.random() < 0.5}
    return Graph(n, edges, vertex_weights=vw, edge_weights=ew)


def _garble(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    how = rng.randrange(6)
    if how == 0 and lines:
        del lines[rng.randrange(len(lines))]
    elif how == 1 and lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif how == 2 and lines:
        i = rng.randrange(len(lines))
        toks = lines[i].split() or [""]
        toks[rng.randrange(len(toks))] = rng.choice(JUNK)
        lines[i] = " ".join(toks)
    elif how == 3:
        return text[: rng.randrange(len(text) + 1)]
    elif how == 4:
        junk = " ".join(rng.choices(JUNK, k=rng.randint(1, 4)))
        lines.insert(rng.randrange(len(lines) + 1), junk)
    else:
        lines.reverse()
    return "\n".join(lines) + "\n"


def _int(rng: random.Random, lo: int, hi: int, big: int = 1000) -> str:
    """Mostly a value in lo..hi, sometimes an edge value up to ``big`` or not
    an integer."""
    r = rng.random()
    if r < 0.7:
        return str(rng.randint(lo, hi))
    if r < 0.95:
        return str(rng.choice([-1, 0, 1, 2, big]))
    return rng.choice(["one", "1.5", ""])


def _vertices(rng: random.Random, n: int) -> str:
    if rng.random() < 0.15:
        return rng.choice(["", ",", "a", "0", "1,,2", str(n + 1), "-3"])
    return ",".join(str(rng.randint(1, max(n, 1))) for _ in range(rng.randint(1, 4)))


def _solution(rng: random.Random, n: int) -> str:
    kind = rng.choice(["cut", "sep", "cut", "sep", "bogus"])
    top = rng.choice([0, 1, 2, 3])  # one part only: "cut 0" verifies
    lines = [f"{kind} {rng.randint(0, 6) if top else 0}"]
    lines += [f"{v} {rng.randint(0, top)}" for v in range(1, n + 1) if rng.random() < 0.95]
    text = "\n".join(lines) + "\n"
    return _garble(rng, text) if rng.random() < 0.3 else text


def _expression(rng: random.Random, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.3:
        return f"v({rng.randint(0, 3)})"
    i, j = rng.randint(1, 3), rng.randint(1, 3)
    op = rng.randrange(3)
    sub = _expression(rng, depth - 1)
    if op == 0:
        return f"join({i},{j},{sub})"
    if op == 1:
        return f"ren({i}->{j},{sub})"
    return f"union({sub},{_expression(rng, depth - 1)})"


def _argv(rng: random.Random, tmp_path) -> list:
    g = _graph(rng)
    text = formats.emit_graph(g)
    if rng.random() < 0.25:
        text = _garble(rng, text)
    gpath = tmp_path / "g.gr"
    gpath.write_text(text)
    graph = str(gpath) if rng.random() < 0.97 else str(tmp_path / "missing.gr")
    n = g.n
    cmd = rng.choice(
        ["bisect", "vbisect", "bpart", "trim", "atorso", "oracle", "verify", "gen"]
    )
    if cmd == "bisect":
        argv = ["bisect", "--graph", graph]
        if rng.random() < 0.3:
            argv += ["--deletion", _vertices(rng, n)]
        if rng.random() < 0.3:
            epath = tmp_path / "e.q"
            epath.write_text(_expression(rng) if rng.random() < 0.8 else rng.choice(JUNK))
            argv += ["--expr", str(epath)]
    elif cmd == "vbisect":
        argv = ["vbisect", "--graph", graph, "--k", _int(rng, 0, 4)]
        if rng.random() < 0.5:
            argv += ["--c", _int(rng, 1, 4)]
    elif cmd == "bpart":
        argv = ["bpart", "--graph", graph, "--d", _int(rng, 1, 10)]
    elif cmd == "trim":
        argv = ["trim", "--graph", graph, "--k", _int(rng, 0, 4), "--terminals", _vertices(rng, n)]
    elif cmd == "atorso":
        argv = ["atorso", "--graph", graph, "--w", _vertices(rng, n)]
    elif cmd == "oracle":
        problem = rng.choice(["bisect", "vbisect", "bpart", "maxcut"])
        argv = ["oracle", problem, "--graph", graph]
        if rng.random() < 0.8:
            argv += ["--k", _int(rng, 0, 5)]
        if rng.random() < 0.4:
            argv += ["--c", _int(rng, 1, 4)]
        if rng.random() < 0.8:
            argv += ["--d", _int(rng, 1, 10)]
        if rng.random() < 0.3:
            argv.append("--weighted")
    elif cmd == "verify":
        spath = tmp_path / "s.sol"
        spath.write_text(_solution(rng, n))
        argv = ["verify", "--graph", graph, "--solution", str(spath)]
        if rng.random() < 0.3:
            argv += ["--c", _int(rng, 1, 4)]
    else:
        argv = ["gen"] + _gen_argv(rng, graph, g, tmp_path)
    if cmd in ("bisect", "vbisect", "bpart") and rng.random() < 0.2:
        argv += ["--dot", str(tmp_path / "g.dot")]
    return argv


def _gen_argv(rng: random.Random, graph: str, g: Graph, tmp_path) -> list:
    construction = rng.choice(
        ["clique", "bisect", "maxcut", "unweight", "binpack", "mcclique", "random"]
    )
    if construction == "clique":
        return ["clique", "--graph", graph, "--k", _int(rng, 0, g.n)]
    if construction == "bisect":
        # the rebalancing cliques have 5nm vertices, so keep m small
        small = tmp_path / "small.gr"
        small.write_text(f"p tw {min(g.n, 4)} 0\n" if g.m > 3 or g.n > 4 else formats.emit_graph(g))
        return ["bisect", "--graph", str(small), "--k", _int(rng, 0, 3)]
    if construction == "maxcut":
        return ["maxcut", "--graphs"] + [graph] * rng.randint(1, 3) + ["--k", _int(rng, 0, 6)]
    if construction == "unweight":
        argv = ["unweight", "--graph", graph, "--k", _int(rng, 0, 3, big=5)]
        return argv + (["--w", _int(rng, 1, 4, big=5)] if rng.random() < 0.5 else [])
    if construction == "binpack":
        weights = ",".join(str(rng.randint(-1, 4)) for _ in range(rng.randint(0, 4)))
        bins, cap = _int(rng, 1, 4, big=9), _int(rng, 1, 6, big=9)
        return ["binpack", "--weights", weights, "--bins", bins, "--cap", cap]
    if construction == "mcclique":
        colors = ",".join(str(rng.randint(1, 3)) for _ in range(g.n + rng.choice([0, 0, 0, 1, -1])))
        argv = ["mcclique", "--graph", graph, "--colors", colors]
        return argv + (["--s", _int(rng, 2, 3)] if rng.random() < 0.5 else [])
    p = rng.choice(["0.3", "1.5", "-0.1", "x"])
    return ["random", "--n", _int(rng, 0, 12, big=20), "--p", p]


def test_cli_calls_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for _ in range(CALLS):
        argv = _argv(rng, tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        except Exception as exc:  # an escaping exception is what this test hunts
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 1, 2):
            failures.append((argv, code))
    assert not failures, failures[:5]
