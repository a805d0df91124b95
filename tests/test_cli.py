import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverslide
from coverslide import CertificateCheck, builtin_group, cli, mover
from coverslide.cli import main
from coverslide.homology import chain_add


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build -----------------------------------------------------------------


def test_build_mod2(capsys):
    code, out, _ = run(capsys, "build", "--group", "elementary_abelian:2,2", "--n", "2", "--images", "1,2")
    assert code == 0
    assert out.strip() == "V=4 E=8 rank=5"


def test_build_trivial(capsys):
    code, out, _ = run(capsys, "build", "--group", "cyclic:1", "--n", "3", "--images", "0,0,0")
    assert code == 0
    assert out.strip() == "V=1 E=3 rank=3"


def test_build_disconnected_exit_3(capsys):
    code, _, err = run(capsys, "build", "--group", "cyclic:3", "--n", "2", "--images", "0,0")
    assert code == 3
    assert "error" in err


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "--group", "cyclic:2", "--images", "1,1", "--json")
    assert code == 0
    assert json.loads(out) == {"vertices": 2, "edges": 4, "rank": 3}


def test_build_dot_file(tmp_path, capsys):
    dot = tmp_path / "cover.dot"
    code, _, _ = run(
        capsys, "build", "--group", "elementary_abelian:2,2", "--images", "1,2", "--dot", str(dot)
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 8


@pytest.mark.parametrize(
    "argv, option",
    [
        (["build", "--group", "cyclic:3", "--n", "3"], "--dot"),
        (["move", "--group", "cyclic:3", "--n", "3", "--vector-word", "a3"], "--out"),
        (["move", "--group", "cyclic:3", "--n", "3", "--vector-word", "a3", "--json"], "--out"),
    ],
    ids=["build --dot", "move --out", "move --json --out"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv, option):
    """An output file that cannot be written is a configuration error, with
    one error line and nothing on stdout, not an OSError traceback."""
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, option, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write") and err.count("\n") == 1, err
    assert str(path) in err
    assert not path.parent.exists()


def test_memory_error_exit_7(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_move", out_of_memory)
    code, out, err = run(capsys, "move", "--group", "cyclic:3", "--n", "3", "--vector-word", "a3")
    assert (code, out, err) == (7, "", "error: out of memory\n")


def test_build_defaults_to_standard_images(capsys):
    code, out, _ = run(capsys, "build", "--group", "symmetric:3", "--n", "3")
    assert code == 0
    assert out.strip() == "V=6 E=18 rank=13"


def test_build_images_by_label(capsys):
    # dihedral labels include r and s
    code, out, _ = run(capsys, "build", "--group", "dihedral:4", "--images", "r,s")
    assert code == 0
    assert out.strip() == "V=8 E=16 rank=9"


def test_build_group_from_json_file(tmp_path, capsys):
    path = tmp_path / "klein.json"
    G = builtin_group("elementary_abelian", 2, 2)
    path.write_text(json.dumps({"order": G.order, "mul": G.mul, "labels": G.labels}))
    code, out, _ = run(capsys, "build", "--group", str(path), "--images", "1,2")
    assert code == 0
    assert out.strip() == "V=4 E=8 rank=5"


def test_bad_config_exit_2(capsys):
    assert run(capsys, "build", "--group", "nosuch:4", "--n", "2")[0] == 2
    assert run(capsys, "build", "--group", "cyclic:4", "--images", "9,1")[0] == 2
    assert run(capsys, "build", "--group", "cyclic:4", "--images", "1")[0] == 2
    move = ("move", "--group", "cyclic:3", "--images", "1,1,0")
    code, out, err = run(capsys, *move, "--vector", "1/0,0,0,0,0,0,0")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    for depth in ("-3", "0"):
        code, out, err = run(capsys, *move, "--vector-word", "a3", "--depth", depth)
        assert (code, out) == (2, "")
        assert "--depth" in err


@pytest.mark.parametrize(
    "doc",
    [{"mul": [1, 2]}, {"mul": 5}, {"mul": [[0]], "labels": 3}, 5],
    ids=["rows not lists", "mul not a list", "labels not a list", "not an object"],
)
def test_bad_group_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "build", "--group", str(path), "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: group file") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_move_depth_over_bound_exit_2():
    # run in a subprocess so that a missing bound shows as a timeout, not a hang;
    # the depth is refused before the cover is built
    src = str(Path(coverslide.__file__).resolve().parent.parent)
    argv = ["move", "--group", "cyclic:3", "--images", "1,1,0", "--vector-word", "a3"]
    proc = subprocess.run(
        [sys.executable, "-m", "coverslide.cli", *argv, "--depth", "100000000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:")
    assert f"1..{mover.MAX_ITERATE_DEPTH}" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["build", "--group", "cyclic:2", "--n", "100000000"],
    ["move", "--group", "elementary_abelian:2,10", "--n", "17", "--vector-word", "a3"],
    ["verify-cw", "--group", "cyclic:2", "--images", ",".join(["1"] * 8193)],
    ["slide", "--group", "dihedral:512", "--images", ",".join(["r"] * 17), "--petal", "1"],
], ids=["--n", "move --n", "--images", "--images by label"])
def test_edge_count_over_the_cap_exits_2_before_any_build(argv, capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("a cover over the edge cap was built")

    for name in ("standard_images", "build_cover"):
        monkeypatch.setattr(cli, name, refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"more than {cli.MAX_COVER_EDGES}" in err


def test_edge_cap_admits_a_cover_of_exactly_the_cap(capsys, monkeypatch):
    assert cli.MAX_COVER_EDGES >= 1024 * 10  # every ladder cover, up to (Z/2)^10 with n = 10
    monkeypatch.setattr(cli, "MAX_COVER_EDGES", 12)
    assert run(capsys, "build", "--group", "cyclic:3", "--n", "4") == (0, "V=3 E=12 rank=10\n", "")
    assert run(capsys, "build", "--group", "cyclic:3", "--images", "1,1,1,1")[0] == 0
    assert run(capsys, "build", "--group", "cyclic:3", "--n", "5")[0] == 2
    assert run(capsys, "build", "--group", "cyclic:3", "--images", "1,1,1,1,1")[0] == 2


def test_closed_stdout_exit_8():
    # the reader takes one byte of a large JSON document and closes the pipe
    src = str(Path(coverslide.__file__).resolve().parent.parent)
    argv = ["move", "--group", "cyclic:128", "--n", "3", "--vector-word", "a3", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "coverslide.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_STDOUT_CLOSED == 8
    assert "Traceback" not in err, err


# --- verify-cw ----------------------------------------------------------------


def test_verify_cw_mod2(capsys):
    code, out, _ = run(capsys, "verify-cw", "--group", "elementary_abelian:2,2", "--images", "1,2")
    assert code == 0
    assert "isotypic dims: 2,1,1,1" in out
    assert "verdict: ok" in out


def test_verify_cw_symmetric3_json(capsys):
    code, out, _ = run(
        capsys, "verify-cw", "--group", "symmetric:3", "--n", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["traces"]["0"] == "13"
    assert all(v == "1" for k, v in data["traces"].items() if k != "0")


def test_verify_cw_trivial(capsys):
    code, _, _ = run(capsys, "verify-cw", "--group", "cyclic:1", "--n", "2")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["move", "--group", "elementary_abelian:2,3", "--n", "3", "--vector-word", "a3.a3"],
    ["verify-cw", "--group", "elementary_abelian:2,3", "--n", "3"],
    ["verify-cw", "--group", "symmetric:3", "--n", "3"],
], ids=["move", "verify-cw", "verify-cw symmetric"])
def test_human_output_builds_no_json(argv, capsys, monkeypatch):
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def no_json(*args):
        raise RuntimeError("JSON built for human output")

    for name in ("certificate_to_json", "character_report_to_json", "isotypic_report_to_json"):
        monkeypatch.setattr(cli, name, no_json)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [
    ["verify-cw", "--group", "elementary_abelian:2,3", "--n", "3"],
    ["verify-cw", "--group", "elementary_abelian:2,3", "--n", "3", "--json"],
    ["verify-cw", "--group", "elementary_abelian:2,4", "--n", "5"],
    ["verify-cw", "--group", "elementary_abelian:2,4", "--n", "5", "--json"],
], ids=["(Z/2)^3", "(Z/2)^3 --json", "(Z/2)^4", "(Z/2)^4 --json"])
def test_verify_cw_builds_no_dense_projectors(argv, capsys, monkeypatch):
    """verify-cw prints the same text with the dense projectors and
    matrix_to_json made to raise: the JSON is rendered from the shared rows."""
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def dense(*args):
        raise RuntimeError("dense projector built")

    monkeypatch.setattr(coverslide.cwcheck.IsotypicReport, "projectors", property(dense))
    monkeypatch.setattr(coverslide.linalg, "matrix_to_json", dense)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [
    ["move", "--group", "elementary_abelian:2,3", "--n", "4", "--vector-word", "a3.a3"],
    ["move", "--group", "symmetric:3", "--n", "3", "--vector-word", "a3", "--json"],
    ["slide", "--group", "symmetric:3", "--n", "3", "--petal", "1", "--ell", "a2.a2"],
    ["slide", "--group", "symmetric:3", "--n", "3", "--petal", "1", "--ell", "a2.a2", "--json"],
], ids=["move", "move --json", "slide", "slide --json"])
def test_output_builds_no_dense_rows(argv, capsys, monkeypatch):
    """move and slide print the same text with LiftedSlide.matrix made to
    raise: the certificate and the matrix key are read from the columns."""
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def dense(self):
        raise RuntimeError("dense rows built")

    monkeypatch.setattr(coverslide.LiftedSlide, "matrix", property(dense))
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [
    ["move", "--group", "symmetric:3", "--n", "3", "--vector-word", "a3", "--json"],
    ["move", "--group", "dihedral:8", "--n", "3", "--vector=1/2,0,-3/4" + ",0" * 29 + ",-7", "--json"],
    ["slide", "--group", "symmetric:3", "--n", "3", "--petal", "1", "--ell", "a2.a3.a2^-1", "--json"],
], ids=["move symmetric", "move dihedral", "slide"])
def test_json_builds_no_str_rows(argv, tmp_path, capsys, monkeypatch):
    """move --json, with and without --out, and slide --json print the same
    bytes with linalg.columns_to_json made to raise: the writer renders the
    matrix key from the columns."""
    out_path = tmp_path / "cert.json"
    argv_out = [*argv, "--out", str(out_path)] if argv[0] == "move" else argv
    expected = run(capsys, *argv), run(capsys, *argv_out)
    assert expected[0][0] == 0

    def rows(*args):
        raise RuntimeError("str rows built")

    monkeypatch.setattr(coverslide.linalg, "columns_to_json", rows)
    if argv[0] == "move":
        out_path.unlink()
    assert (run(capsys, *argv), run(capsys, *argv_out)) == expected
    if argv[0] == "move":
        assert out_path.read_text() + "\n" == expected[0][1]


class RecordingStdout:
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_json_is_written_as_it_is_rendered(monkeypatch):
    """move --json on cyclic:128 reaches stdout as many writes of at most
    64 KiB each, which make up the whole document."""
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["move", "--group", "cyclic:128", "--n", "3", "--vector-word", "a3", "--json"]) == 0
    text = "".join(stdout.writes)
    assert len(text) == 734_547 + 1 and text.endswith("}\n")  # the document, then a newline
    assert max(map(len, stdout.writes)) <= 64 * 1024
    assert len(stdout.writes) > 257  # at least one per matrix row
    assert json.loads(text)["verified"] is True


def test_memory_error_mid_document_exit_7(capsys, monkeypatch):
    """Out of memory while the matrix rows are being written: exit 7 and one
    error line after the part of the document already written."""
    column_rows = coverslide.linalg.column_rows

    def rows_then_out_of_memory(columns):
        yield from column_rows(columns)[:5]
        raise MemoryError

    monkeypatch.setattr(coverslide.linalg, "column_rows", rows_then_out_of_memory)
    code, out, err = run(capsys, "move", "--group", "cyclic:5", "--n", "3", "--vector-word", "a3", "--json")
    assert (code, err) == (7, "error: out of memory\n")
    assert out.startswith("{\n") and '"matrix": [' in out and '"verified"' not in out


# --- move ----------------------------------------------------------------------


def test_move_klein_basis_vector(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "move",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2,0",
        "--vector",
        "1,0,0,0,0,0,0,0,0",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "verified: True" in out
    cert = json.loads(out_path.read_text())
    assert cert["orbit_rank"] == 4
    assert cert["verified"] is True


def test_certificate_rebuilt_from_json_verifies(capsys):
    """A certificate read back from move --json, with dense rows for its
    matrix, verifies on a cover and basis rebuilt from the same arguments."""
    G = builtin_group("symmetric", 3)
    Y = coverslide.make_cover(G, coverslide.standard_images(G, 3))
    B = coverslide.cycle_basis(Y)
    v = ["1/2"] + ["0"] * (B.rank - 2) + ["-3"]
    code, out, _ = run(capsys, "move", "--group", "symmetric:3", "--n", "3",
                       "--vector", ",".join(v), "--json")
    assert code == 0
    data = json.loads(out)
    parse = coverslide.linalg.parse_rational
    cert = coverslide.MoveCertificate(
        petal=data["petal"],
        pairing_edge=tuple(data["pairing_edge"]),
        ell=coverslide.Word.from_string(data["ell"]),
        ell_class=[parse(x) for x in data["ell_class"]],
        orbit_rank_value=data["orbit_rank"],
        increment=[parse(x) for x in data["increment"]],
        matrix=[[parse(x) for x in row] for row in data["matrix"]],
        iterates_checked=data["iterates_checked"],
    )
    assert coverslide.verify_certificate(Y, B, [parse(x) for x in v], cert).ok


def test_move_negative_vector_both_forms(capsys):
    move = ["move", "--group", "elementary_abelian:2,2", "--images", "1,2,0", "--json"]
    for vector in ("-1,0,0,0,0,0,0,0,0", "-1/2,0,0,0,0,0,0,0,1"):
        attached = run(capsys, *move, f"--vector={vector}")
        separate = run(capsys, *move, "--vector", vector)
        assert attached[0] == 0
        assert separate == attached
    # an option after --vector is still an option, not a value
    with pytest.raises(SystemExit) as exc:
        main([*move, "--vector", "--depth", "3"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_move_vector_word(capsys):
    code, out, _ = run(
        capsys,
        "move",
        "--group",
        "cyclic:3",
        "--images",
        "1,1,0",
        "--vector-word",
        "a3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["orbit_rank"] == 3
    assert data["verified"] is True


def test_move_zero_vector_exit_4(capsys):
    code, _, _ = run(
        capsys,
        "move",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2,0",
        "--vector",
        ",".join(["0"] * 9),
    )
    assert code == 4


def test_move_rank2_exit_5(capsys):
    code, _, _ = run(
        capsys,
        "move",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2",
        "--vector",
        "1,0,0,0,0",
    )
    assert code == 5


def test_move_search_exhausted_exit_6(capsys):
    code, _, _ = run(
        capsys,
        "move",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2,0",
        "--vector",
        "1,0,0,0,0,0,0,0,0",
        "--max-candidates",
        "0",
    )
    assert code == 6


def test_move_open_word_rejected(capsys):
    code, _, err = run(
        capsys,
        "move",
        "--group",
        "cyclic:3",
        "--images",
        "1,1,0",
        "--vector-word",
        "a1",
    )
    assert code == 2
    assert "closed" in err


def test_move_certificate_failed_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        mover, "verify_certificate", lambda *a, **k: CertificateCheck(False, ("property 3", "pairing edge"))
    )
    code, out, err = run(
        capsys, "move", "--group", "cyclic:3", "--images", "1,1,0", "--vector-word", "a3"
    )
    assert (code, out) == (1, "")
    assert "property 3" in err and "pairing edge" in err


def test_move_wrong_vector_length_exit_2(capsys):
    code, _, _ = run(
        capsys,
        "move",
        "--group",
        "cyclic:3",
        "--images",
        "1,1,0",
        "--vector",
        "1,0",
    )
    assert code == 2


# --- slide ------------------------------------------------------------------------


def test_slide_matrix(capsys):
    code, out, _ = run(
        capsys,
        "slide",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2",
        "--petal",
        "1",
        "--ell",
        "a2.a2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["petal"] == 1
    assert data["ell"] == "a2.a2"
    assert len(data["matrix"]) == 5


def test_human_slide_prints_one_joined_row_at_a_time(capsys, monkeypatch):
    """Human slide prints the --json matrix rows, in order, each joined by
    spaces, one write per row and with linalg.columns_to_json made to raise:
    no list of every row's texts is built."""
    argv = ["slide", "--group", "symmetric:3", "--n", "3", "--petal", "1", "--ell", "a2.a3.a2^-1"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    rows = [" ".join(row) for row in json.loads(out)["matrix"]]
    assert len(set(rows)) == len(rows) > 1

    def whole(*args):
        raise RuntimeError("every row's texts built")

    monkeypatch.setattr(coverslide.linalg, "columns_to_json", whole)
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    lines = [w for w in stdout.writes if w != "\n"]
    assert lines == [f"petal=1 ell='a2.a3.a2^-1' rank={len(rows)}", *rows]


def test_slide_does_not_lift_exit_2(capsys):
    code, _, _ = run(
        capsys,
        "slide",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2",
        "--petal",
        "1",
        "--ell",
        "a2",
    )
    assert code == 2


def test_slide_petal_in_loop_exit_2(capsys):
    code, _, _ = run(
        capsys,
        "slide",
        "--group",
        "elementary_abelian:2,2",
        "--images",
        "1,2",
        "--petal",
        "1",
        "--ell",
        "a1",
    )
    assert code == 2


# --- selftest ------------------------------------------------------------------------


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "selftest passed" in out
    for suite in ("groups", "covers", "homology", "slides", "klein-example", "mover"):
        assert f"ok    {suite}" in out
    # the full battery (symmetric:4, cyclic:6 n=4); stdout sha256 recorded
    # before the lifted slide stopped holding its basis
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "449e02379f302d397993a5bf51f4d9e10e745816974f95bd2aeb707174a00c75"
    )


def _with_columns_0_and_1_crossed(columns):
    """The columns with column 0 picking up e_1 and column 1 picking up e_0:
    (F - I)^2 is then nonzero."""
    columns = [dict(col) for col in columns]
    chain_add(columns[0], 1, 1)
    chain_add(columns[1], 0, 1)
    return columns


def test_selftest_catches_a_square_that_is_not_zero(capsys, monkeypatch):
    formula, oracle = cli.lifted_action_formula, cli.lifted_action_oracle

    def crossed_formula(s, Y, B):
        L = formula(s, Y, B)
        return dataclasses.replace(L, columns=_with_columns_0_and_1_crossed(L.columns))

    monkeypatch.setattr(cli, "lifted_action_formula", crossed_formula)
    monkeypatch.setattr(
        cli, "lifted_action_oracle", lambda s, Y, B: _with_columns_0_and_1_crossed(oracle(s, Y, B))
    )
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert "FAIL  slides: slide action not unipotent" in out.splitlines()
    assert "selftest failed: slides" in out


def test_selftest_injected_fault(capsys):
    code, out, _ = run(capsys, "selftest", "--quick", "--inject-fault", "slides")
    assert code == 1
    assert "FAIL  slides" in out
    assert "selftest failed: slides" in out


_WRONG_ORACLE_SELFTEST = """
import sys
from coverslide import cli

oracle = cli.lifted_action_oracle

def wrong_oracle(s, Y, B):
    columns = oracle(s, Y, B)
    columns[0][0] = columns[0].get(0, 0) + 1
    return columns

cli.lifted_action_oracle = wrong_oracle
sys.exit(cli.main(["selftest", "--quick"]))
"""


def test_selftest_checks_survive_optimize():
    # under -O an ``assert`` vanishes; the suites must still catch a wrong oracle
    src = str(Path(coverslide.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_ORACLE_SELFTEST],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  slides" in proc.stdout


# --- one table per builtin spec -----------------------------------------------------


def test_groups_kept_across_commands_match_fresh_tables(capsys):
    """After move and verify-cw read them (involution_cosets included), the
    kept groups equal fresh from_mul_table builds of the same tables."""
    assert run(capsys, "move", "--group", "cyclic:8", "--n", "3", "--vector-word", "a3", "--json")[0] == 0
    assert run(capsys, "verify-cw", "--group", "elementary_abelian:2,3", "--n", "3", "--json")[0] == 0
    assert run(capsys, "move", "--group", "elementary_abelian:2,3", "--n", "3", "--vector-word", "a3.a3")[0] == 0
    for spec, mul in (("cyclic:8", lambda x, y: (x + y) % 8), ("elementary_abelian:2,3", int.__xor__)):
        G = cli._load_group(spec)
        assert G is coverslide.builtin_group_from_string(spec)
        fresh = coverslide.from_mul_table([[mul(x, y) for y in range(G.order)] for x in range(G.order)], G.labels)
        assert G.mul == fresh.mul and G.inv == fresh.inv
        assert G.involution_cosets == fresh.involution_cosets


# --- one parser per process -------------------------------------------------------


def _calls_in_a_row(out_path):
    move = ["move", "--group", "symmetric:3", "--n", "3", "--vector-word", "a3"]
    return [
        [*move, "--json"],
        move,
        ["move", "--group", "dihedral:4", "--n", "3", "--vector-word", "a3.a3",
         "--depth", "3", "--seed", "5", "--out", str(out_path)],
        ["verify-cw", "--group", "elementary_abelian:2,2", "--n", "3", "--json"],
        ["verify-cw", "--group", "symmetric:3", "--n", "3"],
        ["slide", "--group", "elementary_abelian:2,2", "--images", "1,2,0", "--petal", "1", "--ell", "a2.a2"],
        ["move", "--group", "cyclic:3", "--n", "3", "--vector-word", "a3", "--bogus"],
        ["build", "--group", "cyclic:3", "--n", "2", "--images", "0,0"],
        ["move", "--group", "cyclic:3", "--images", "1,1,0", "--vector=-1,0,0,0,0,0,1", "--json"],
        ["move", "--group", "cyclic:3", "--images", "1,1,0", "--vector", "0,0,0,0,0,0,0"],
        [*move, "--json", "--depth", "1"],
    ]


def test_calls_in_a_row_match_first_calls(tmp_path, capsys):
    """Each of several cli.main calls in one process, with different commands
    and flags and a refused argv among them, gives the stdout, stderr, exit
    code and --out file that the same argv gives as the first call of a
    fresh process."""
    src = str(Path(coverslide.__file__).resolve().parent.parent)
    first = []
    for argv in _calls_in_a_row(tmp_path / "first.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "coverslide.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        first.append((proc.returncode, proc.stdout, proc.stderr))
    in_a_row = []
    for argv in _calls_in_a_row(tmp_path / "in_a_row.json"):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
        captured = capsys.readouterr()
        in_a_row.append((code, captured.out, captured.err))
    assert in_a_row == first
    assert {code for code, _, _ in first} == {0, 2, 3, 4}
    assert (tmp_path / "in_a_row.json").read_bytes() == (tmp_path / "first.json").read_bytes()
