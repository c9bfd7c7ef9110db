import argparse
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from waring import cli
from waring.cli import main, parse_input
from waring.core import expand_power_sum, poly_from_json

from conftest import FIXTURES, planted_poly, poly_to_json, relative_error

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


def test_quinary_quartic_fixture_decomposes_at_rank_10(capsys):
    # a planted quartic in five variables: the known normal forms of its
    # principal minor fix 28 of the 29 unknown moments before Gauss-Newton
    path = FIXTURES / "quinary_quartic_rank10.json"
    code, out, _ = run(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["rank"], rep["retries"], rep["free_count"]) == (10, 0, 0)
    f = poly_from_json(json.loads(path.read_text()))
    terms = [(complex(*t["weight"]), np.array([complex(*v) for v in t["form"]]))
             for t in rep["terms"]]
    assert relative_error(expand_power_sum(terms, 5, 4), f) < 1e-10


def test_binary_fixture_decomposes_at_rank_10(capsys):
    # a planted binary form of degree 20, through the Sylvester path from its
    # catalecticant bound, by decompose and by sylvester
    path = FIXTURES / "binary_deg20_rank10.json"
    f = poly_from_json(json.loads(path.read_text()))
    for command in ("decompose", "sylvester"):
        code, out, _ = run(capsys, command, str(path), "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["rank"] == 10
        assert rep.get("retries", 0) == 0
        terms = [(complex(*t["weight"]), np.array([complex(*v) for v in t["form"]]))
                 for t in rep["terms"]]
        assert relative_error(expand_power_sum(terms, 2, 20), f) < 1e-10


@pytest.mark.parametrize("command", ["decompose", "sylvester"])
def test_json_output_formats_no_text_lines(capsys, monkeypatch, command):
    def refuse(dec):
        raise AssertionError("text lines formatted for a JSON report")

    monkeypatch.setattr(cli, "_term_lines", refuse)
    code, out, _ = run(capsys, command, "x0^3 + x1^3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 2
    with pytest.raises(AssertionError, match="text lines"):
        run(capsys, command, "x0^3 + x1^3")


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


@pytest.mark.parametrize(
    "nvars, degree, message",
    [(40, 9, "expected 1677106640"), (2000000, 1000000, "expected more than 2^64")],
    ids=["count_1.7e9", "count_past_2_64"],
)
def test_huge_tensor_shape_is_rejected_before_listing(nvars, degree, message):
    # a one-entry tensor naming C(nvars + degree - 1, degree) exponents: the
    # entry count is checked before any exponent is listed, so the run fits
    # in a 2 GB address space
    blob = json.dumps({"nvars": nvars, "degree": degree, "tensor": [1]})
    proc = _run_in_2gb("decompose", blob, "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["code"] == "invalid-input"
    assert f"tensor array has 1 entries, {message}" in proc.stderr


def test_variable_reduction_fits_in_2gb(tmp_path):
    # rank-1 forms in 21 and 31 variables: the reduction to one variable reads
    # only the partials' left singular vectors, never a 10626 x 10626 V, and
    # the partials and the fit come from the form's one term, never from the
    # 1.9 million monomials of degree 6 in 31 variables
    for source in ("x20^5", "x30^6"):
        proc = _run_in_2gb("rank", source)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"
    proc = _run_in_2gb("decompose", "x30^6", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "dec.json"
    path.write_text(proc.stdout)
    proc = _run_in_2gb("verify", "x30^6", "--decomposition", str(path), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["residual"] == 0.0 and rep["collisions"] == 0


def _run_in_2gb(*argv):
    """`waring *argv` in a subprocess whose address space is capped at 2 GB."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "waring.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )


# runs `waring.cli.main` on each argv of the JSON list in argv[1], with every
# scipy import failing when argv[2] is "blocked", and prints the exit codes and
# the scipy modules loaded as the last line
WITHOUT_SCIPY = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
from waring.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(k for k, m in sys.modules.items() if k.startswith("scipy") and m is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def _without_scipy(runs, mode):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, json.dumps(runs), mode],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_command_runs_without_scipy():
    # the Cholesky step and its lstsq fallback (the maximal cubic), free
    # moments, the normal-form start (the quinary quartic), the binary path,
    # classify and verify, each with scipy blocked
    runs = [
        ["decompose", str(FIXTURES / "cubic_fermat.json")],
        ["decompose", str(FIXTURES / "quinary_quartic_rank10.json")],
        ["decompose", str(FIXTURES / "cubic_maximal.txt")],
        ["decompose", "(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2"],
        ["decompose", "x0^12 - 3*x0^7*x1^5 + 2*x0^3*x1^9 + x1^12"],
        ["sylvester", str(FIXTURES / "binary_deg20_rank10.json")],
        ["classify", str(FIXTURES / "cubic_generic_rank4.json")],
        ["verify", str(FIXTURES / "cubic_maximal.txt"),
         "--decomposition", str(FIXTURES / "cubic_maximal_decomposition.json")],
    ]
    assert _without_scipy(runs, "blocked") == {"codes": [0] * len(runs), "scipy": []}


def test_a_rank_loop_decomposition_loads_no_scipy():
    # scipy importable, yet neither the import nor a decomposition loads it
    runs = [["decompose", str(FIXTURES / "cubic_maximal.txt")]]
    assert _without_scipy(runs, "importable") == {"codes": [0], "scipy": []}


@pytest.mark.parametrize(
    "blob, message",
    [
        ('{"nvars": 0, "degree": 2, "tensor": []}', "no form has 0 variables"),
        ('{"nvars": -1, "degree": 2, "tensor": [1]}', "no form has -1 variables"),
        ('{"nvars": 2, "degree": -1, "tensor": []}', "and degree -1"),
    ],
    ids=["no_variables", "negative_nvars", "negative_degree"],
)
def test_tensor_shape_errors(capsys, blob, message):
    code, _, err = run(capsys, "rank", blob)
    assert code == 1
    assert message in err


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


@pytest.mark.parametrize("command, flag", [
    ("verify", "--tol"), ("verify", "--max-rank"), ("verify", "--seed"),
    ("classify", "--max-rank"),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, command, flag):
    # verify reads no tolerance, rank cap or seed, and classify no rank cap:
    # argparse refuses each as it does an unknown flag.  The three commands
    # that search for a rank keep all three flags
    maximal = str(FIXTURES / "cubic_maximal.txt")
    extra = ["--decomposition", str(FIXTURES / "cubic_maximal_decomposition.json")]
    argv = [command, maximal, *(extra if command == "verify" else []), flag, "3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag} 3" in err
    for command, source in (("decompose", maximal), ("rank", maximal),
                            ("sylvester", "x0^3 + x1^3")):
        code, out, _ = run(capsys, command, source, "--tol", "1e-7", "--max-rank", "5",
                           "--seed", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 1


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage:")


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        code, out, _ = run(capsys, "rank", "x0^3 + x1^3")
        assert (code, out) == (0, "2\n")
    assert built == []


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
     ("--max-rank", "-3"), ("--max-rank", "0"), ("--seed", "-1")],
)
def test_bad_flag_values_are_invalid_input(capsys, flag, value):
    code, out, err = run(capsys, "rank", "x0^3 + x1^3", flag, value, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert flag in err


def test_negative_seed_is_named_in_text(capsys):
    # numpy's own message ("expected non-negative integer") names no flag
    code, out, err = run(capsys, "decompose", "x0^3 + x1^3 + x2^3", "--seed", "-5")
    assert (code, out) == (1, "")
    assert err == "error: seed (--seed) must be an integer of at least 0\n"
    code, out, _ = run(capsys, "rank", "x0^3 + x1^3 + x2^3", "--seed", "0")
    assert (code, out) == (0, "3\n")


@pytest.mark.parametrize(
    "source",
    ['{"nvars": 2, "degree": 3, "terms": []}',
     '{"nvars": 2, "degree": 0, "terms": [{"exp": [0, 0], "c": [1, 0]}]}'],
    ids=["zero", "degree 0"],
)
def test_decompose_and_sylvester_refuse_a_malformed_binary_form_alike(capsys, source):
    # one entrance: the same exit code, error code and message from both
    got = [run(capsys, command, source, "--format", "json")
           for command in ("decompose", "sylvester")]
    assert got[0] == got[1]
    code, out, err = got[0]
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unreadable_input_path_is_invalid_input(capsys, tmp_path, fmt):
    # the path exists, so it is read as a file, and reading a directory fails
    code, out, err = run(capsys, "decompose", str(tmp_path), "--format", fmt)
    assert code == 1
    assert err.startswith("error: ")
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "invalid-input"
    else:
        assert out == ""


@pytest.mark.parametrize(
    "source",
    [
        "x0^3 + x1^3 + 1e999*x2^3",
        '{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "c": [NaN, 0]}]}',
        '{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "c": [1, Infinity]}]}',
        '{"nvars": 2, "degree": 1, "tensor": [1, -Infinity]}',
        "nan*x0^3 + x1^3",
        "inf*x0^3 + x1^3",
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


@pytest.mark.parametrize("command, source", [
    ("decompose", "1e308*x0^2 + 1e308*x1^2"),
    ("decompose", "1e308*x0^3 + 1e308*x1^3 + x2^3"),
    ("decompose", "1e160*x0^3 + x1^3 + x2^3"),
    ("classify", "1e160*x0^3 + x1^3 + x2^3"),
    ("verify", "1e160*x0^3 + x1^3 + x2^3"),
    ("rank", "1e-170*x0^2 + 1e-170*x1^2"),
    ("sylvester", "1e-170*x0^2 + 1e-170*x1^2"),
])
def test_coefficients_outside_double_range_are_invalid_input(capsys, command, source):
    # a coefficient norm that overflows a double or underflows to 0 fails
    # with one message naming the limit: no overflow warning (an error under
    # the test settings), no traceback, no message from deep in the search
    extra = ["--decomposition", str(FIXTURES / "cubic_maximal_decomposition.json")]
    argv = [command, source, "--format", "json"] + (extra if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert "coefficients out of double range" in err and "1.3e154" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_rejects_the_zero_polynomial(capsys, tmp_path, fmt):
    # the residual is relative to f's coefficient norm, which is 0 here
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({
        "degree": 3, "nvars": 2, "rank": 1, "residual": 0.0,
        "terms": [{"form": [[1.0, 0.0], [0.0, 0.0]], "weight": [1.0, 0.0]}],
    }))
    code, out, err = run(
        capsys, "verify", "0*x0^3 + 0*x1^3", "--decomposition", str(path),
        "--format", fmt,
    )
    assert code == 1
    assert "cannot verify against the zero polynomial" in err
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "invalid-input"


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


# JSON values that used to be truncated or coerced: a float exponent or nvars
# was cut to an integer, a string exponent read digit by digit, booleans read
# as numbers, a one-element weight as a real one
@pytest.mark.parametrize(
    "source, message",
    [
        ('{"nvars": 3, "degree": 3, "terms": [{"exp": [1.7, 1, 1], "c": [1, 0]}]}',
         "exponent entry of term 1 is 1.7, not an integer"),
        ('{"nvars": 3, "degree": 3, "terms": [{"exp": "111", "c": [1, 0]}]}',
         'exponent of term 1 is "111", not a list'),
        ('{"nvars": 3, "degree": 3, "terms": [{"exp": [1, 1, true], "c": [1, 0]}]}',
         "exponent entry of term 1 is true, not an integer"),
        ('{"nvars": 3.9, "degree": 3, "terms": [{"exp": [1, 1, 1], "c": [1, 0]}]}',
         "nvars is 3.9, not an integer"),
        ('{"nvars": 3, "degree": 3, "terms": [{"exp": [1, 1, 1], "c": [true, false]}]}',
         "coefficient of term 1 is [true, false], not an [re, im] pair"),
        ('{"nvars": 3, "degree": 3, "terms": [{"exp": [4, -1, 0], "c": [1, 0]}]}',
         "negative exponent in (4, -1, 0)"),
        ('{"nvars": 2.9, "degree": 2, "tensor": [1, 0, 1]}', "nvars is 2.9, not an integer"),
        ('{"nvars": 2, "degree": 2.5, "tensor": [1, 0, 1]}', "degree is 2.5, not an integer"),
    ],
    ids=["exp_float", "exp_string", "exp_bool", "nvars_float", "c_bool", "exp_negative",
         "tensor_nvars_float", "tensor_degree_float"],
)
def test_json_polynomials_are_read_exactly(capsys, source, message):
    code, out, err = run(capsys, "decompose", source, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid-input"
    assert message in err


def _set(path, value):
    """Damage that sets dec[path[0]][path[1]]... to `value`."""
    def damage(dec):
        target = dec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (_set(["terms", 0, "weight"], [0.517]), "weight of term 1 is [0.517]"),
        (_set(["terms", 0, "weight"], [True, False]), "weight of term 1 is [true, false]"),
        (_set(["terms", 1, "form", 0], [True, False]), "form entry of term 2 is [true, false]"),
        (_set(["degree"], 4.7), "degree is 4.7, not an integer"),
        (_set(["residual"], "0.1"), 'residual is "0.1", not a number'),
        (_set(["residual"], True), "residual is true, not a number"),
    ],
    ids=["short_weight", "bool_weight", "bool_form_entry", "float_degree", "string_residual",
         "bool_residual"],
)
def test_json_decompositions_are_read_exactly(capsys, tmp_path, damage, message):
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
