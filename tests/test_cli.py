import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from waring.cli import main, parse_input
from waring.core import poly_to_json

from conftest import FIXTURES, planted_poly

QUINTIC = str(FIXTURES / "ternary_quintic_rank4.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", QUINTIC)
    assert code == 0
    assert out.startswith("rank 4")
    assert out.count("^5") == 4


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", QUINTIC, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 4
    assert rep["residual"] < 1e-7
    assert rep["degree"] == 5
    assert rep["nvars"] == 3
    assert len(rep["terms"]) == 4
    got = {
        (round(t["form"][1][0]), round(t["form"][2][0])): t["weight"][0]
        for t in rep["terms"]
    }
    assert got[(2, 3)] == pytest.approx(15.0, rel=1e-6)
    assert got[(12, -13)] == pytest.approx(3.0, rel=1e-6)


def test_json_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "decompose", QUINTIC, "--format", "json", "--seed", "3")
    _, second, _ = run(capsys, "decompose", QUINTIC, "--format", "json", "--seed", "3")
    assert first == second


def test_rank_subcommand(capsys):
    code, out, _ = run(capsys, "rank", "x0^3 + x1^3 + x2^3")
    assert code == 0
    assert out.strip() == "3"


def test_classify_subcommand(capsys):
    code, out, _ = run(
        capsys, "classify", "x0^3 + x1^3 + x2^3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"class": "Fermat", "rank": 3}


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "x0^2*x1 + x0*x2^2")
    assert code == 0
    assert out.strip() == "Maximal (rank 5)"


def test_sylvester_subcommand(capsys):
    code, out, _ = run(capsys, "sylvester", "x0^3 + x1^3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2
    assert rep["degree"] == 3


def test_sylvester_rejects_ternary(capsys):
    code, _, err = run(capsys, "sylvester", "x0^3 + x1^3 + x2^3")
    assert code == 1
    assert "binary" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        str(FIXTURES / "ternary_quartic_rank6.txt"),
        "--decomposition",
        str(FIXTURES / "quartic_rank6_decomposition.json"),
        "--format",
        "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["residual"] <= 5e-3
    assert rep["collisions"] == 0


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x0^2 + x1^2"))
    code, out, _ = run(capsys, "rank", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_tensor_json_input(capsys):
    blob = json.dumps({"nvars": 2, "degree": 2, "tensor": [1, 0, 1]})
    code, out, _ = run(capsys, "rank", blob, "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_tensor_json_complex_entries():
    blob = json.dumps(
        {"nvars": 2, "degree": 2, "tensor": [[0, 1], [2, 0], [0, -1]]}
    )
    f = parse_input(blob)
    assert f.coeff((2, 0)) == 1j
    assert f.coeff((1, 1)) == 2
    assert f.coeff((0, 2)) == -1j


def test_tensor_json_length_mismatch(capsys):
    blob = json.dumps({"nvars": 2, "degree": 2, "tensor": [1, 0]})
    code, _, err = run(capsys, "rank", blob)
    assert code == 1
    assert "expected" in err


def test_polynomial_json_input(capsys):
    blob = (FIXTURES / "cubic_fermat.json").read_text()
    code, out, _ = run(capsys, "classify", blob, "--format", "json")
    assert code == 0
    assert json.loads(out)["class"] == "Fermat"


def test_invalid_input_exit_code(capsys):
    code, out, err = run(capsys, "rank", "x0^2 + x1", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert err.startswith("error:")


def test_decomposition_failure_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        str(FIXTURES / "cubic_maximal.txt"),
        "--max-rank",
        "4",
        "--format",
        "json",
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "decomposition-failed"


def test_bad_tol_rejected(capsys):
    code, _, err = run(capsys, "rank", "x0^2 + x1^2", "--tol", "-1")
    assert code == 1
    assert "tol" in err


@pytest.mark.parametrize("flag", [["--bogus"], ["--tol", "abc"], ["--max-rank", "x"]])
def test_usage_errors_exit_1(capsys, flag):
    code, _, err = run(capsys, "rank", "x0^2 + x1^2", *flag)
    assert code == 1
    assert "usage:" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage:")


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
     ("--max-rank", "-3"), ("--max-rank", "0")],
)
def test_bad_flag_values_are_invalid_input(capsys, flag, value):
    code, out, err = run(capsys, "rank", "x0^3 + x1^3", flag, value, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert flag in err


@pytest.mark.parametrize("command", ["rank", "decompose", "sylvester"])
def test_max_rank_caps_the_binary_path(capsys, command):
    code, out, _ = run(capsys, command, "x0^3 + x1^3", "--max-rank", "1",
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "decomposition-failed"
    code, out, _ = run(capsys, command, "x0^3 + x1^3", "--max-rank", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_missing_file_is_treated_as_inline_and_fails(capsys):
    code, _, _ = run(capsys, "rank", "/no/such/file.txt")
    assert code == 1


@pytest.mark.parametrize(
    "source",
    [
        "x0^3 + x1^3 + 1e999*x2^3",
        '{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "c": [NaN, 0]}]}',
        '{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "c": [1, Infinity]}]}',
        '{"nvars": 2, "degree": 1, "tensor": [1, -Infinity]}',
    ],
)
def test_non_finite_coefficients_fail_fast(capsys, source):
    code, out, err = run(capsys, "decompose", source, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert "coefficients must be finite" in err


BIG = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "source",
    [
        f'{{"nvars": 2, "degree": 2, "tensor": [1, 0, {BIG}]}}',
        f'{{"nvars": 2, "degree": 2, "terms": [{{"exp": [2, 0], "c": [{BIG}, 0]}}]}}',
    ],
    ids=["tensor", "terms"],
)
def test_oversized_json_integers_are_invalid_input(capsys, source):
    code, out, err = run(capsys, "decompose", source, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"


def test_verify_rejects_non_finite_decomposition(capsys, tmp_path):
    dec = json.loads((FIXTURES / "quartic_rank6_decomposition.json").read_text())
    dec["terms"][0]["weight"] = [float("nan"), 0.0]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(dec))
    code, _, err = run(
        capsys, "verify", str(FIXTURES / "ternary_quartic_rank6.txt"),
        "--decomposition", str(path),
    )
    assert code == 1
    assert "coefficients must be finite" in err


def test_sylvester_honours_tol(capsys):
    # affine degree-20 binary form of rank 10 where a rank-7 candidate fits
    # the moments but misses the coefficients by 1e-6
    f, _ = planted_poly(2, 20, 10, np.random.default_rng(1420))
    code, out, _ = run(capsys, "sylvester", json.dumps(poly_to_json(f)),
                       "--format", "json", "--tol", "1e-7")
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out)["residual"] <= 1e-7


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, as in `waring ... | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_is_not_an_input_error(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["decompose", QUINTIC, "--format", fmt])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_quietly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "waring.cli", "decompose", QUINTIC, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the interpreter has even imported numpy
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "entry", [[1], None, {}, [1, 2, 3]], ids=["short_pair", "null", "object", "triple"]
)
def test_malformed_tensor_entries_are_invalid_input(capsys, entry):
    blob = json.dumps({"nvars": 2, "degree": 2, "tensor": [1, entry, 1]})
    code, out, err = run(capsys, "rank", blob, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert f"tensor entry 1 is {json.dumps(entry)}" in err


def _short_form(dec):
    dec["terms"][1]["form"] = dec["terms"][1]["form"][:2]


def _zero_form(dec):
    dec["terms"][0]["form"] = [[0.0, 0.0]] * 3


def _huge_weight(dec):
    dec["terms"][0]["weight"] = [10**400, 0]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda dec: dec.update(residual=None), "bad decomposition JSON"),
        (_short_form, "form of term 2 has 2 entries, expected 3"),
        (_zero_form, "form of term 1 is zero"),
        (_huge_weight, "int too large to convert to float"),
    ],
    ids=["null_residual", "short_form", "zero_form", "huge_weight"],
)
def test_verify_rejects_malformed_decompositions(capsys, tmp_path, damage, message):
    dec = json.loads((FIXTURES / "quartic_rank6_decomposition.json").read_text())
    damage(dec)
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(dec))
    code, out, err = run(
        capsys, "verify", str(FIXTURES / "ternary_quartic_rank6.txt"),
        "--decomposition", str(path), "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert message in err
