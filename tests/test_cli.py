"""End-to-end tests for the command-line interface.

These drive balcut.cli.main with argv lists and captured output, plus one
real pipe through subprocesses for the stdin path.
"""

import random
import subprocess
import sys

import pytest

from balcut import cli, formats
from balcut.graph import Graph, path_graph
from balcut.qexpr import forest_qexpr

from .conftest import grid_graph

C6 = "p tw 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"
K3 = "p tw 3 3\n1 2\n1 3\n2 3\n"
K4 = "p tw 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
P3 = "p tw 3 2\n1 2\n2 3\n"


@pytest.fixture
def c6(tmp_path):
    p = tmp_path / "c6.gr"
    p.write_text(C6)
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------


def test_vbisect_finds_the_cycle_separator(c6, capsys):
    code, out, _ = run_cli(capsys, "vbisect", "--graph", c6, "--k", "2", "--c", "2")
    assert code == 0
    assert out.splitlines()[0] == "sep 2"
    sol = formats.parse_solution(out)
    assert sorted(sol.parts.values()).count(2) == 2


def test_vbisect_reports_infeasible(c6, capsys):
    code, out, err = run_cli(capsys, "vbisect", "--graph", c6, "--k", "1", "--c", "2")
    assert code == 1
    assert out == ""
    assert "infeasible" in err


def test_vbisect_ignores_edge_weights(tmp_path, capsys):
    weighted = tmp_path / "w.gr"
    weighted.write_text("p tw 4 3\n1 2\ne 2 3 5\n3 4\n")
    plain = tmp_path / "p.gr"
    plain.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "vbisect", "--graph", str(weighted), "--k", "1")
    assert code == 0
    assert (code, out) == run_cli(capsys, "vbisect", "--graph", str(plain), "--k", "1")[:2]


def test_vbisect_rejects_vertex_weights(tmp_path, capsys):
    p = tmp_path / "w.gr"
    p.write_text("p tw 3 2\nw 2 3\n1 2\n2 3\n")
    code, out, err = run_cli(capsys, "vbisect", "--graph", str(p), "--k", "1")
    assert code == 2 and out == ""
    assert "unit-weight" in err


def test_vbisect_past_the_exact_treewidth_limit(tmp_path, capsys):
    n = 16
    gf = tmp_path / "path.gr"
    gf.write_text(f"p tw {n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    code, out, _ = run_cli(capsys, "vbisect", "--graph", str(gf), "--k", "1")
    assert code == 0
    assert out.splitlines()[:1] == ["sep 1"]


def test_vbisect_long_path(tmp_path, capsys):
    n = 500
    gf = tmp_path / "path.gr"
    gf.write_text(f"p tw {n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    code, out, _ = run_cli(capsys, "vbisect", "--graph", str(gf), "--k", "1")
    assert code == 0
    assert out.splitlines()[:1] == ["sep 1"]


# (graph, k, part of each vertex in order): the witnesses printed before
# the separator table had integer codes; 0 is A, 1 is B, 2 the separator
VBISECT_FROZEN = [
    (grid_graph(6, 6), 6, "200000120000112000111200111120111112"),
    (path_graph(1000), 1, "0" * 499 + "2" + "1" * 500),
]


@pytest.mark.parametrize("g,k,parts", VBISECT_FROZEN, ids=["grid6x6-k6", "path1000-k1"])
def test_vbisect_bytes_are_frozen_on_large_inputs(tmp_path, capsys, g, k, parts):
    gf = tmp_path / "g.gr"
    gf.write_text(formats.emit_graph(g))
    code, out, _ = run_cli(capsys, "vbisect", "--graph", str(gf), "--k", str(k))
    assert code == 0
    assert out == f"sep {k}\n" + "".join(f"{v} {j}\n" for v, j in enumerate(parts, 1))


def test_bisect_with_automatic_deletion_set(c6, capsys):
    code, out, _ = run_cli(capsys, "bisect", "--graph", c6)
    assert code == 0
    assert out.splitlines()[0] == "cut 2"


def test_bisect_with_explicit_deletion_and_expression(c6, tmp_path, capsys):
    g = formats.parse_graph(C6)
    expr = forest_qexpr(g, {1})
    ef = tmp_path / "c6.qe"
    ef.write_text(formats.emit_qexpr(expr) + "\n")
    code, out, _ = run_cli(
        capsys, "bisect", "--graph", c6, "--deletion", "1", "--expr", str(ef)
    )
    assert code == 0
    assert out.splitlines()[0] == "cut 2"


def test_bisect_long_path(tmp_path, capsys):
    n = 300
    gf = tmp_path / "path.gr"
    gf.write_text(f"p tw {n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    sf = tmp_path / "path.sol"
    code, _, _ = run_cli(capsys, "bisect", "--graph", str(gf), "--output", str(sf))
    assert code == 0
    assert sf.read_text().splitlines()[0] == "cut 1"
    code, out, _ = run_cli(capsys, "verify", "--graph", str(gf), "--solution", str(sf))
    assert code == 0
    assert out == "valid: cut 1 across 2 parts\n"


def test_bisect_deeply_nested_expression_file(tmp_path, capsys):
    # 3000 no-op renames around a 10-vertex path expression
    depth = 3000
    gf = tmp_path / "p10.gr"
    gf.write_text("p tw 10 9\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 10)))
    inner = formats.emit_qexpr(forest_qexpr(formats.parse_graph(gf.read_text())))
    ef = tmp_path / "deep.qe"
    ef.write_text("ren(5->6," * depth + inner + ")" * depth + "\n")
    code, out, _ = run_cli(capsys, "bisect", "--graph", str(gf), "--expr", str(ef))
    assert code == 0
    assert out.splitlines()[0] == "cut 1"


def test_bisect_rejects_mismatched_expression(c6, tmp_path, capsys):
    ef = tmp_path / "bad.qe"
    ef.write_text("join(1,2,union(v(1),v(2)))\n")
    code, _, err = run_cli(capsys, "bisect", "--graph", c6, "--expr", str(ef))
    assert code == 2
    assert err.startswith("error:")


def test_bisect_expression_file_beyond_the_search_limit(tmp_path, capsys):
    # leaves read from a file are unnamed; matching 12 of them is out of reach
    gf = tmp_path / "p12.gr"
    gf.write_text("p tw 12 11\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 12)))
    ef = tmp_path / "p12.qe"
    ef.write_text(formats.emit_qexpr(forest_qexpr(path_graph(12))) + "\n")
    code, out, err = run_cli(capsys, "bisect", "--graph", str(gf), "--expr", str(ef))
    assert code == 2
    assert out == ""
    assert "at most 10 vertices" in err
    assert "without --expr" in err
    code, out, _ = run_cli(capsys, "bisect", "--graph", str(gf))
    assert code == 0
    assert out.splitlines()[0] == "cut 1"


def test_bisect_expression_with_sparse_labels(tmp_path):
    # the DP packs a field per label in use, not per label up to the largest;
    # run under a 1 GB address-space limit so a dense packing fails cleanly
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
    cases = [
        ("p tw 1 0\n", "v(100000000)\n", "cut 0"),
        ("p tw 2 1\n1 2\n", "join(1,1000000,union(v(1),v(1000000)))\n", "cut 1"),
    ]
    for graph, expr, want in cases:
        gf, ef = tmp_path / "g.gr", tmp_path / "e.qe"
        gf.write_text(graph)
        ef.write_text(expr)
        got = subprocess.run(
            [sys.executable, "-c", f"{limit}; from balcut.cli import main; raise SystemExit(main())",
             "bisect", "--graph", str(gf), "--expr", str(ef)],
            capture_output=True, text=True,
        )
        assert (got.returncode, got.stdout.splitlines()[:1]) == (0, [want]), got.stderr


def test_bisect_rejects_weighted_graphs(tmp_path, capsys):
    p = tmp_path / "w.gr"
    p.write_text("p tw 2 1\ne 1 2 2\n")
    code, _, err = run_cli(capsys, "bisect", "--graph", str(p))
    assert code == 2
    assert "unweighted" in err
    assert "gen unweight" in err


def test_bpart_solution_verifies(tmp_path, capsys):
    p = tmp_path / "p3.gr"
    p.write_text(P3)
    code, out, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", "3")
    assert code == 0
    assert out.splitlines()[0] == "cut 2"
    sol = tmp_path / "p3.sol"
    sol.write_text(out)
    code, out2, _ = run_cli(capsys, "verify", "--graph", str(p), "--solution", str(sol))
    assert code == 0
    assert out2.startswith("valid: cut 2")


def test_bpart_on_the_empty_graph_round_trips(tmp_path, capsys):
    p = tmp_path / "empty.gr"
    p.write_text("p tw 0 0\n")
    code, out, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", "2")
    assert code == 0 and out == "cut 0\n"
    sol = tmp_path / "empty.sol"
    sol.write_text(out)
    code, out2, _ = run_cli(capsys, "verify", "--graph", str(p), "--solution", str(sol))
    assert code == 0 and out2.startswith("valid: cut 0")
    sol.write_text("cut 1\n")
    code, out3, _ = run_cli(capsys, "verify", "--graph", str(p), "--solution", str(sol))
    assert code == 1 and out3.startswith("invalid")


def test_bpart_past_n_parts_prints_the_n_part_answer(tmp_path, capsys):
    p = tmp_path / "t.gr"
    p.write_text("p tw 12 11\n" + "".join(f"{(i + 1) // 2} {i + 1}\n" for i in range(1, 12)))
    code, want, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", "12")
    assert code == 0
    code, out, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", "120")
    assert code == 0 and out == want


@pytest.mark.parametrize("text", [P3, "p tw 0 0\n"], ids=["path3", "empty"])
def test_huge_d_solves_for_at_most_n_parts(tmp_path, capsys, monkeypatch, text):
    g = formats.parse_graph(text)
    for name in ("solve_balanced_partition_vc", "brute_balanced_partition"):
        solver = getattr(cli, name)

        def capped(h, d, solver=solver):
            if d > max(h.n, 1):
                raise AssertionError(f"asked for {d} parts on {h.n} vertices")
            return solver(h, d)

        monkeypatch.setattr(cli, name, capped)
    p = tmp_path / "g.gr"
    p.write_text(text)
    n = str(max(g.n, 1))
    for cmd in (["bpart"], ["oracle", "bpart"]):
        code, want, _ = run_cli(capsys, *cmd, "--graph", str(p), "--d", n)
        assert code == 0
        code, out, _ = run_cli(capsys, *cmd, "--graph", str(p), "--d", "1000000000")
        assert code == 0 and out == want


def test_bpart_takes_edge_weights(tmp_path, capsys):
    p = tmp_path / "w.gr"
    p.write_text("p tw 4 3\n1 2\ne 2 3 5\n3 4\n")
    code, out, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", "2")
    assert code == 0
    assert out.splitlines()[0] == "cut 2"
    code, want, _ = run_cli(capsys, "oracle", "bpart", "--graph", str(p), "--d", "2")
    assert code == 0 and want.splitlines()[0] == "cut 2"
    sol = tmp_path / "w.sol"
    sol.write_text(out)
    code, out2, _ = run_cli(capsys, "verify", "--graph", str(p), "--solution", str(sol))
    assert code == 0
    assert out2.startswith("valid: cut 2")


def _cover_gr(seed):
    """A seeded graph whose edges all touch 3-6 shuffled hub vertices;
    odd seeds carry edge weights 1-5."""
    rng = random.Random(seed)
    tau, ind = rng.randint(3, 6), rng.randint(8, 14)
    n = tau + ind
    order = list(range(1, n + 1))
    rng.shuffle(order)
    hub = set(order[:tau])
    lines = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u in hub or v in hub) and rng.random() < 0.4:
                w = rng.randint(1, 5) if seed % 2 else 1
                lines.append(f"e {u} {v} {w}" if w > 1 else f"{u} {v}")
    return f"p tw {n} {len(lines)}\n" + "".join(line + "\n" for line in lines)


# (seed, d, cut, part of each vertex in order): the witnesses printed
# before the capacity-aware split bound and the greedy-seeded cover search
BPART_FROZEN = [
    (1, 2, 8, "0111101001000110"),
    (1, 3, 10, "0121202001101210"),
    (2, 2, 1, "01001110110"),
    (2, 3, 3, "11201002012"),
    (3, 2, 8, "1100111100000101"),
    (3, 3, 16, "0200221111010102"),
    (4, 2, 6, "10011001010110"),
    (4, 3, 10, "20021001210112"),
    (5, 2, 31, "101001011001101001"),
    (5, 3, 43, "001201211002201221"),
    (6, 2, 1, "10110000010111"),
    (6, 3, 2, "10210220010121"),
]


@pytest.mark.parametrize("seed,d,cut,parts", BPART_FROZEN)
def test_bpart_bytes_are_frozen_on_cover_graphs(tmp_path, capsys, seed, d, cut, parts):
    p = tmp_path / "cover.gr"
    p.write_text(_cover_gr(seed))
    code, out, _ = run_cli(capsys, "bpart", "--graph", str(p), "--d", str(d))
    assert code == 0
    assert out == f"cut {cut}\n" + "".join(f"{v} {j}\n" for v, j in enumerate(parts, 1))


def test_bpart_rejects_vertex_weights(tmp_path, capsys):
    p = tmp_path / "vw.gr"
    p.write_text("p tw 2 1\nw 1 3\n1 2\n")
    code, out, err = run_cli(capsys, "bpart", "--graph", str(p), "--d", "2")
    assert code == 2 and out == ""
    assert "balances vertex counts" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_rejects_wrong_cut_value(tmp_path, capsys):
    g = tmp_path / "p3.gr"
    g.write_text(P3)
    sol = tmp_path / "bad.sol"
    sol.write_text("cut 0\n1 0\n2 0\n3 1\n")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g), "--solution", str(sol))
    assert code == 1
    assert "partition cuts 1" in out


def test_verify_rejects_oversized_parts(tmp_path, capsys):
    g4 = tmp_path / "p4.gr"
    g4.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    sol = tmp_path / "bad.sol"
    sol.write_text("cut 1\n1 0\n2 0\n3 0\n4 1\n")  # part 0 holds 3 > ceil(4/2)
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g4), "--solution", str(sol))
    assert code == 1
    assert "size cap" in out


def test_verify_rejects_incomplete_assignments(tmp_path, capsys):
    g = tmp_path / "p3.gr"
    g.write_text(P3)
    sol = tmp_path / "bad.sol"
    sol.write_text("cut 2\n1 0\n2 1\n")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g), "--solution", str(sol))
    assert code == 1
    assert "every vertex" in out


def test_verify_accepts_separator_solutions(c6, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "vbisect", "--graph", c6, "--k", "2", "--c", "2")
    sol = tmp_path / "c6.sol"
    sol.write_text(out)
    code, out2, _ = run_cli(capsys, "verify", "--graph", c6, "--solution", str(sol))
    assert code == 0
    assert out2.startswith("valid: sep 2")


def test_verify_checks_the_component_count_on_request(c6, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "vbisect", "--graph", c6, "--k", "2", "--c", "2")
    sol = tmp_path / "c6.sol"
    sol.write_text(out)
    argv = ("verify", "--graph", c6, "--solution", str(sol))
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv, "--c", "2")
    assert code == 0 and out2 == plain == "valid: sep 2\n"
    code, out3, _ = run_cli(capsys, *argv, "--c", "3")
    assert code == 1
    assert out3 == "invalid: G - S has 2 components but --c asks for 3\n"


def test_verify_rejects_c_for_cut_solutions(tmp_path, capsys):
    g = tmp_path / "p3.gr"
    g.write_text(P3)
    sol = tmp_path / "p3.sol"
    sol.write_text("cut 1\n1 0\n2 0\n3 1\n")
    code, out, err = run_cli(capsys, "verify", "--graph", str(g), "--solution", str(sol), "--c", "2")
    assert code == 2 and out == ""
    assert "separator solutions only" in err


def test_verify_catches_crossing_edges_in_separator_files(c6, tmp_path, capsys):
    sol = tmp_path / "c6.sol"
    sol.write_text("sep 2\n1 0\n2 1\n3 0\n4 2\n5 1\n6 2\n")
    code, out, _ = run_cli(capsys, "verify", "--graph", c6, "--solution", str(sol))
    assert code == 1
    assert "between the two sides" in out


# --------------------------------------------------------------------------
# torso tools
# --------------------------------------------------------------------------


def test_trim_writes_graph_and_mapping(c6, tmp_path, capsys):
    out_gr = tmp_path / "trimmed.gr"
    out_map = tmp_path / "trimmed.map"
    code, _, _ = run_cli(
        capsys,
        "trim", "--graph", c6, "--k", "1", "--terminals", "1,4",
        "--out", str(out_gr), "--map", str(out_map),
    )
    assert code == 0
    trimmed = formats.parse_graph(out_gr.read_text())
    assert trimmed.n == 4
    phi_lines = out_map.read_text().splitlines()
    assert len(phi_lines) == 6  # one per original vertex
    assert all(line.startswith("phi ") for line in phi_lines)


def test_atorso_writes_graph_and_mapping(c6, capsys):
    code, out, _ = run_cli(capsys, "atorso", "--graph", c6, "--w", "1,2,3")
    assert code == 0
    assert "c augmented torso: n=6 m=6 w=1,2,3" in out
    assert out.count("phi ") == 6


@pytest.mark.parametrize("command, flags", [
    ("trim", ("--k", "1", "--terminals", "1,4")),
    ("atorso", ("--w", "1,4")),
])
def test_contractions_take_weighted_graphs(tmp_path, capsys, command, flags):
    plain = tmp_path / "p4.gr"
    plain.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    weighted = tmp_path / "w4.gr"
    weighted.write_text("p tw 4 3\n1 2\ne 2 3 5\n3 4\n")
    code, want, _ = run_cli(capsys, command, "--graph", str(plain), *flags)
    assert code == 0
    assert "weights ignored" not in want
    code, got, err = run_cli(capsys, command, "--graph", str(weighted), *flags)
    assert code == 0 and err == ""
    note = "c weights ignored: the contraction keeps only the adjacency\n"
    assert got.count(note) == 1
    assert got.replace(note, "") == want


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def test_gen_clique_emits_provenance_and_params(tmp_path, capsys):
    g = tmp_path / "k3.gr"
    g.write_text(K3)
    code, out, _ = run_cli(capsys, "gen", "clique", "--graph", str(g), "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("c provenance: clique-to-vertex-bisection")
    assert "c param c=3" in lines and "c param k=2" in lines
    produced = formats.parse_graph(out)
    assert produced.n == 8


def test_gen_output_parses_back(tmp_path, capsys):
    g = tmp_path / "k2.gr"
    g.write_text("p tw 2 1\n1 2\n")
    code, out, _ = run_cli(
        capsys, "gen", "maxcut", "--graphs", str(g), str(g), str(g), "--k", "1"
    )
    assert code == 0
    produced = formats.parse_graph(out)
    assert produced.n == 12 and produced.m == 18
    assert not produced.is_unit_edge_weighted()
    assert "c param k=15" in out


def test_gen_unweight_reads_weighted_input(tmp_path, capsys):
    g = tmp_path / "w.gr"
    g.write_text("p tw 2 1\ne 1 2 2\n")
    code, out, _ = run_cli(capsys, "gen", "unweight", "--graph", str(g), "--k", "1", "--w", "4")
    assert code == 0
    assert formats.parse_graph(out).n == 14


def test_gen_binpack_trivial_no(capsys):
    code, out, _ = run_cli(capsys, "gen", "binpack", "--weights", "3,3", "--bins", "2", "--cap", "2")
    assert code == 0
    assert "c param trivial=no" in out
    assert formats.parse_graph(out).n == 2


def test_gen_mcclique_checks_color_count(tmp_path, capsys):
    g = tmp_path / "k2.gr"
    g.write_text("p tw 2 1\n1 2\n")
    code, _, err = run_cli(capsys, "gen", "mcclique", "--graph", str(g), "--colors", "1")
    assert code == 2
    assert "lists 1 values for 2 vertices" in err
    code, out, _ = run_cli(capsys, "gen", "mcclique", "--graph", str(g), "--colors", "1,2")
    assert code == 0
    assert "p tw 3368 " in out


def test_gen_random_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "9")
    assert code == code2 == 0
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "10")
    assert out3 != out1


def test_dot_export(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(
        capsys, "gen", "random", "--n", "3", "--p", "1", "--seed", "0", "--dot", str(dot)
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph G {")
    assert "1 -- 2;" in text


def test_dot_export_refuses_large_graphs(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, err = run_cli(
        capsys, "gen", "random", "--n", "65", "--p", "0", "--seed", "0", "--dot", str(dot)
    )
    assert code == 2
    assert "at most 64" in err


@pytest.mark.parametrize("argv", [["bisect"], ["vbisect", "--k", "1"], ["bpart", "--d", "2"]])
def test_dot_limit_is_checked_before_solving(tmp_path, capsys, monkeypatch, argv):
    gf = tmp_path / "p65.gr"
    gf.write_text(formats.emit_graph(path_graph(65)))
    dot = tmp_path / "g.dot"

    def no_solve(*args):
        raise AssertionError("solver ran before the --dot check")

    for name in ("solve_bisection_cwd", "solve_vertex_bisection", "solve_balanced_partition_vc"):
        monkeypatch.setattr(cli, name, no_solve)
    code, out, err = run_cli(capsys, argv[0], "--graph", str(gf), *argv[1:], "--dot", str(dot))
    assert (code, out) == (2, "")
    assert "at most 64" in err and "(this one has 65)" in err and "without --dot" in err
    assert not dot.exists()


# --------------------------------------------------------------------------
# oracle subcommand
# --------------------------------------------------------------------------


def test_oracle_maxcut(tmp_path, capsys):
    g = tmp_path / "k3.gr"
    g.write_text(K3)
    code, out, _ = run_cli(capsys, "oracle", "maxcut", "--graph", str(g))
    assert code == 0
    assert out.splitlines()[0] == "cut 2"


def test_oracle_vbisect_infeasible_on_k4(tmp_path, capsys):
    g = tmp_path / "k4.gr"
    g.write_text(K4)
    code, _, err = run_cli(capsys, "oracle", "vbisect", "--graph", str(g), "--k", "1")
    assert code == 1
    assert "infeasible" in err


@pytest.mark.parametrize("c", ["-3", "0", "1"])
def test_oracle_vbisect_rejects_c_below_two_like_vbisect(tmp_path, capsys, c):
    g = tmp_path / "c6.gr"
    g.write_text(C6)
    for cmd in (["vbisect"], ["oracle", "vbisect"]):
        code, out, err = run_cli(capsys, *cmd, "--graph", str(g), "--k", "2", "--c", c)
        assert (code, out) == (2, ""), cmd
        assert "--c must be at least 2" in err, cmd


def test_oracle_size_guard_maps_to_input_error(capsys, tmp_path):
    g = tmp_path / "big.gr"
    g.write_text("p tw 30 0\n")
    code, _, err = run_cli(capsys, "oracle", "bisect", "--graph", str(g))
    assert code == 2
    assert "n <= 24" in err


def test_oracle_missing_flag(tmp_path, capsys):
    g = tmp_path / "k3.gr"
    g.write_text(K3)
    code, _, err = run_cli(capsys, "oracle", "bpart", "--graph", str(g))
    assert code == 2
    assert "--d" in err


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "vbisect", "--graph", "/nonexistent.gr", "--k", "1")
    assert code == 2
    assert "cannot read" in err


def test_malformed_graph_reports_position(tmp_path, capsys):
    g = tmp_path / "bad.gr"
    g.write_text("p tw 2 1\n1 9\n")
    code, _, err = run_cli(capsys, "bisect", "--graph", str(g))
    assert code == 2
    assert "line 2" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_calls_after_a_parse_error_match_a_fresh_parser(c6, capsys):
    calls = [
        ("trim", "--graph", c6, "--k", "1", "--terminals", "1,4"),
        ("vbisect", "--graph", c6, "--k", "2"),
    ]
    want = []
    for argv in calls:
        args = cli.build_parser().parse_args(list(argv))
        want.append((args.func(args), capsys.readouterr().out))
    with pytest.raises(SystemExit) as info:
        cli.main(["trim", "--graph", c6, "--k", "one", "--terminals", "1,4"])
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert [run_cli(capsys, *argv)[:2] for argv in calls] == want


def test_stdin_pipe_between_subcommands():
    gen = subprocess.run(
        [sys.executable, "-m", "balcut.cli", "gen", "binpack",
         "--weights", "2,2,2", "--bins", "3", "--cap", "2"],
        capture_output=True, text=True, check=True,
    )
    solve = subprocess.run(
        [sys.executable, "-m", "balcut.cli", "bpart", "--d", "3"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert solve.returncode == 0
    assert solve.stdout.splitlines()[0] == "cut 0"


def test_python_dash_m_balcut_runs_the_cli(c6, capsys):
    want = run_cli(capsys, "bisect", "--graph", c6)
    got = subprocess.run(
        [sys.executable, "-m", "balcut", "bisect", "--graph", c6],
        capture_output=True, text=True,
    )
    assert (got.returncode, got.stdout) == want[:2]
    # the exit code is passed on: 1 for an infeasible instance
    infeasible = subprocess.run(
        [sys.executable, "-m", "balcut", "vbisect", "--graph", c6, "--k", "1"],
        capture_output=True, text=True,
    )
    assert infeasible.returncode == 1
    assert "infeasible" in infeasible.stderr
