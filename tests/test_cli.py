import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverslide
from coverslide import CertificateCheck, builtin_group, cli, group_to_json, mover
from coverslide.cli import main


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
    path.write_text(json.dumps(group_to_json(builtin_group("elementary_abelian", 2, 2))))
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
        mover, "verify_certificate", lambda *a: CertificateCheck(False, ("property 3", "pairing edge"))
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
