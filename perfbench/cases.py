"""Workload definitions: seeded inputs, the timed call, and the result oracle.

Each workload is a fixed list of polynomial shapes.  Every pass draws fresh
points and weights for its planted shapes from (seed, pass, shape), so one
seed always gives the same inputs.  A case times the call into the package
alone; its oracle runs afterwards, outside the timing.

Planted terms are unit-norm linear forms with unit-modulus weights, pairwise
well separated.  No term is then numerically invisible, so the planted rank
is also the numerical rank: shapes stay below the generic rank and binary
forms keep r <= d/2, so it is the true rank as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

import waring.cli  # noqa: F401  (loads every submodule into sys.modules)

# `import waring.decompose` yields the function the package re-exports under
# the module's name, so the modules are looked up here instead.
CLI = sys.modules["waring.cli"]
CORE = sys.modules["waring.core"]
DECOMPOSE = sys.modules["waring.decompose"]

DATA = pathlib.Path(__file__).resolve().parent / "data"
TOL = 1e-7  # the package's default relative residual target

Check = Callable[[object], "tuple[dict, str | None]"]


@dataclass
class Case:
    """One closed-loop request: `call` is timed, `check` is the oracle."""

    id: str
    call: Callable[[], object]
    check: Check


# ---------------------------------------------------------------------------
# inputs, computed here so that neither the inputs nor the oracle rest on the
# package's own expansion code


def _exponents(nvars: int, degree: int) -> np.ndarray:
    rows = [
        [combo.count(i) for i in range(nvars)]
        for combo in combinations_with_replacement(range(nvars), degree)
    ]
    return np.array(rows, dtype=int)


def power_sum(terms, nvars: int, degree: int) -> dict[tuple, complex]:
    """Coefficients of sum_j w_j (k_j . x)^d, keyed by exponent tuple."""
    exps = _exponents(nvars, degree)
    weights = np.array([complex(w) for w, _ in terms])
    forms = np.array([np.asarray(k, dtype=complex) for _, k in terms])
    mono = np.prod(forms[None, :, :] ** exps[:, None, :], axis=2)
    mult = np.array(
        [math.factorial(degree) / math.prod(math.factorial(e) for e in a) for a in exps]
    )
    values = mult * (mono @ weights)
    return {tuple(int(e) for e in a): complex(v) for a, v in zip(exps, values)}


def coeff_residual(coeffs: dict, terms, nvars: int, degree: int) -> float:
    """Relative coefficient-space residual of a decomposition."""
    rebuilt = power_sum(terms, nvars, degree)
    keys = set(rebuilt) | set(coeffs)
    num = math.sqrt(sum(abs(rebuilt.get(a, 0) - coeffs.get(a, 0)) ** 2 for a in keys))
    den = math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
    return num / den


def planted_terms(nvars: int, rank: int, rng: np.random.Generator, sep: float = 0.3):
    """`rank` unit-norm forms at pairwise chordal distance > sep, unit weights."""
    forms: list[np.ndarray] = []
    while len(forms) < rank:
        k = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        k /= np.linalg.norm(k)
        if all(math.sqrt(max(0.0, 1 - abs(np.vdot(k, q)) ** 2)) > sep for q in forms):
            forms.append(k)
    weights = np.exp(2j * np.pi * rng.uniform(size=rank))
    return list(zip(weights, forms))


def _poly_json(coeffs: dict, nvars: int, degree: int) -> str:
    terms = [{"exp": list(a), "c": [c.real, c.imag]} for a, c in coeffs.items()]
    return json.dumps({"nvars": nvars, "degree": degree, "terms": terms})


def _load(name: str):
    text = (DATA / name).read_text()
    if name.endswith(".json"):
        return CORE.poly_from_json(json.loads(text))
    return CORE.parse_poly(text)


def _shape_rng(seed: int, pas: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pas, index])


# ---------------------------------------------------------------------------
# oracle


def _check_decomposition(f, dec, expected_rank: int) -> str | None:
    if dec.rank != expected_rank:
        return f"rank {dec.rank}, expected {expected_rank}"
    vr = DECOMPOSE.verify(f, dec)
    if not vr.residual <= TOL:
        return f"verify residual {vr.residual:.3g}"
    if vr.collisions:
        return f"{vr.collisions} colliding forms"
    own = coeff_residual(f.coeffs, dec.terms, f.nvars, f.degree)
    if not own <= TOL:
        return f"independent residual {own:.3g}"
    return None


def _cli_report(out) -> tuple[dict | None, str | None]:
    code, text, err = out
    if code != 0:
        return None, f"exit code {code}: {err.strip()[:200]}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, f"unparseable report: {text[:200]!r}"


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def cli_decompose_case(cid: str, command: str, source: str, f, expected_rank: int) -> Case:
    """`waring decompose|sylvester <source> --format json`, checked against f."""

    def check(out):
        rep, why = _cli_report(out)
        if rep is None:
            return {}, why
        fp = {k: rep.get(k) for k in ("rank", "retries", "free_count")}
        if rep.get("rank") != expected_rank:
            return fp, f"reported rank {rep.get('rank')}, expected {expected_rank}"
        return fp, _check_decomposition(f, CORE.decomposition_from_json(rep), expected_rank)

    return Case(cid, _cli_call([command, source, "--format", "json"]), check)


def cli_classify_case(cid: str, name: str, label: str, rank: int) -> Case:
    def check(out):
        rep, why = _cli_report(out)
        if rep is None:
            return {}, why
        fp = {"class": rep.get("class"), "rank": rep.get("rank")}
        if fp != {"class": label, "rank": rank}:
            return fp, f"classified {fp}, expected {label} of rank {rank}"
        return fp, None

    return Case(cid, _cli_call(["classify", str(DATA / name), "--format", "json"]), check)


def cli_verify_case(cid: str, poly_name: str, dec_name: str) -> Case:
    """`waring verify` of a committed decomposition, rechecked independently."""
    f = _load(poly_name)
    obj = json.loads((DATA / dec_name).read_text())
    terms = [
        (complex(*t["weight"]), np.array([complex(*v) for v in t["form"]]))
        for t in obj["terms"]
    ]
    own = coeff_residual(f.coeffs, terms, f.nvars, f.degree)
    argv = ["verify", str(DATA / poly_name), "--decomposition", str(DATA / dec_name),
            "--format", "json"]

    def check(out):
        rep, why = _cli_report(out)
        if rep is None:
            return {}, why
        fp = {"residual": rep.get("residual"), "collisions": rep.get("collisions")}
        got = rep.get("residual")
        if not isinstance(got, float) or abs(got - own) > 1e-6 * own:
            return fp, f"residual {got}, independently {own:.6g}"
        if rep.get("collisions") != 0:
            return fp, f"{rep.get('collisions')} colliding forms"
        return fp, None

    return Case(cid, _cli_call(argv), check)


def api_case(cid: str, f, expected_rank: int) -> Case:
    """`waring.decompose` with default options (jobs=1), checked against f."""

    def check(rep):
        fp = {"rank": rep.rank, "retries": rep.retries, "free_count": rep.free_count}
        return fp, _check_decomposition(f, rep.decomposition, expected_rank)

    return Case(cid, lambda: DECOMPOSE.decompose(f), check)


def _planted_poly(nvars: int, degree: int, rank: int, rng):
    coeffs = power_sum(planted_terms(nvars, rank, rng), nvars, degree)
    return coeffs, CORE.HomogeneousPoly(nvars, degree, coeffs)


# ---------------------------------------------------------------------------
# workloads

FIXED_SEED = 1  # seed of the fixed planted instances, the same in every run
CUBIC_ORBITS = (
    ("cubic_cube.json", "Cube", 1),
    ("cubic_two_cubes.json", "SumTwoCubes", 2),
    ("cubic_square_line.json", "SquareTimesLine", 3),
    ("cubic_fermat.json", "Fermat", 3),
    ("cubic_generic_rank4.json", "Generic", 4),
)
# (nvars, degree, rank) with catalecticant bound equal to the rank
# (3, 4, 6) is left out: about one case in 300 comes back at rank 7 (see
# known_defects), and the workloads must not fail.  (3, 6, 9), the slowest
# shape, is one fixed instance: drawn afresh, one case in fifteen takes 3-15x
# its median and those cases alone would set the tail.
SMALL_PLANTED = ((3, 4, 5), (3, 5, 4), (3, 5, 6), (4, 3, 3), (4, 3, 4), (5, 3, 5))
SMALL_FIXED = (3, 6, 9)
BINARY_DEGREES = range(3, 21)
# Left out of both lists below: depending on the drawn points one case of
# (5, 4, 12) takes 1-24 s, (4, 4, 9) 0.1-2.5 s, (3, 8, 14) 0.1-2.5 s (at times
# with retries), (5, 3, 7) 3-7 s and (4, 5, 12) 7-20 s, so a run cannot
# average enough of them to keep its figures steady.  In their place each
# workload has a fixed input as its slowest case, which keeps the tail steady:
# one drawn (5, 4, 12) instance in flat_solve, and the maximal cubic in
# rank_search, which runs the failed-attempt path of (5, 3, 7) and (4, 5, 12).
FLAT_PLANTED = ((3, 6, 10), (4, 4, 10), (5, 4, 10))
FLAT_FIXED = (5, 4, 12)  # drawn once from FIXED_SEED: 0 retries, about 0.9 s
# true rank above the catalecticant bound; these fail at the 8-start probe.
# The middle case by time is a fixed instance, which keeps the median steady.
SEARCH_PLANTED = ((3, 5, 7), (4, 3, 5), (3, 7, 11), (4, 5, 11))
SEARCH_FIXED = (5, 3, 6)  # drawn once from FIXED_SEED: 3 retries, about 0.05 s


def small_forms(seed: int, pas: int) -> list[Case]:
    """Everyday CLI use: many small inputs through `waring.cli.main`."""
    p = f"p{pas}:"
    cases = [
        cli_decompose_case(p + "quintic", "decompose", str(DATA / "ternary_quintic_rank4.txt"),
                           _load("ternary_quintic_rank4.txt"), 4),
        cli_decompose_case(p + "quartic", "decompose", str(DATA / "ternary_quartic_rank6.txt"),
                           _load("ternary_quartic_rank6.txt"), 6),
    ]
    for name, label, rank in CUBIC_ORBITS:
        cases.append(cli_classify_case(p + "classify_" + name.split(".")[0], name, label, rank))
    cases.append(cli_verify_case(p + "verify_cubic_maximal", "cubic_maximal.txt",
                                 "cubic_maximal_decomposition.json"))
    cases.append(cli_verify_case(p + "verify_quartic", "ternary_quartic_rank6.txt",
                                 "quartic_rank6_decomposition.json"))
    for i, (n, d, r) in enumerate(SMALL_PLANTED):
        coeffs, f = _planted_poly(n, d, r, _shape_rng(seed, pas, i))
        cases.append(cli_decompose_case(f"{p}planted_{n}_{d}_{r}", "decompose",
                                        _poly_json(coeffs, n, d), f, r))
    n, d, r = SMALL_FIXED
    coeffs, f = _planted_poly(n, d, r, np.random.default_rng([FIXED_SEED]))
    cases.append(cli_decompose_case(f"{p}fixed_{n}_{d}_{r}", "decompose",
                                    _poly_json(coeffs, n, d), f, r))
    for d in BINARY_DEGREES:
        r = d // 2
        coeffs, f = _planted_poly(2, d, r, _shape_rng(seed, pas, 100 + d))
        # odd degrees go through the Sylvester subcommand, even through decompose
        command = "sylvester" if d % 2 else "decompose"
        cases.append(cli_decompose_case(f"{p}binary_{d}_{r}", command,
                                        _poly_json(coeffs, 2, d), f, r))
    return cases


def _api_planted(seed: int, pas: int, shapes) -> list[Case]:
    cases = []
    for i, (n, d, r) in enumerate(shapes):
        _, f = _planted_poly(n, d, r, _shape_rng(seed, pas, i))
        cases.append(api_case(f"p{pas}:planted_{n}_{d}_{r}", f, r))
    return cases


def _fixed_case(pas: int, shape) -> Case:
    n, d, r = shape
    _, f = _planted_poly(n, d, r, np.random.default_rng([FIXED_SEED]))
    return api_case(f"p{pas}:fixed_{n}_{d}_{r}", f, r)


def flat_solve(seed: int, pas: int) -> list[Case]:
    """One rank, one extension solve: the commutator Jacobian dominates."""
    return [*_api_planted(seed, pas, FLAT_PLANTED), _fixed_case(pas, FLAT_FIXED)]


def rank_search(seed: int, pas: int) -> list[Case]:
    """Failed attempts below the true rank dominate."""
    p = f"p{pas}:"
    return [
        api_case(p + "cubic_maximal", _load("cubic_maximal.txt"), 5),
        api_case(p + "cubic_generic_rank4", _load("cubic_generic_rank4.json"), 4),
        *_api_planted(seed, pas, SEARCH_PLANTED),
        _fixed_case(pas, SEARCH_FIXED),
    ]


WORKLOADS = {"small_forms": small_forms, "flat_solve": flat_solve, "rank_search": rank_search}


# ---------------------------------------------------------------------------
# known defects: inputs the package gets wrong at the time of writing.  They
# run once per run, untimed and outside the workload's counts, so that every
# run shows whether each defect is still there.


def _affine_terms(nvars: int, rank: int, rng, sep: float = 0.3):
    """Planted terms in affine position (first coordinate 1, Gaussian rest)."""
    pts: list[np.ndarray] = []
    while len(pts) < rank:
        z = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        z[0] = 1.0
        if all(np.linalg.norm(z - q) > sep for q in pts):
            pts.append(z)
    wts = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    return list(zip(wts, pts))


def known_defects(workload: str) -> list[Case]:
    if workload == "rank_search":
        # ternary quartic of rank 6 that comes back as rank 7 (bad conditioning)
        f = CORE.parse_poly("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2")
        return [api_case("defect:quartic_c1e6", f, 6)]
    if workload == "small_forms":
        # degree-20 binary form of rank 10 with a wide spread of term sizes:
        # the binary path returns a lower rank above the residual target
        coeffs = power_sum(_affine_terms(2, 10, np.random.default_rng(1420)), 2, 20)
        binary = CORE.HomogeneousPoly(2, 20, coeffs)
        # a planted ternary quartic of rank 6 that comes back as rank 7
        quartic_coeffs, quartic = _planted_poly(3, 4, 6, np.random.default_rng([2, 33, 1]))
        return [cli_decompose_case("defect:binary_20_10_affine", "decompose",
                                   _poly_json(coeffs, 2, 20), binary, 10),
                cli_decompose_case("defect:planted_3_4_6", "decompose",
                                   _poly_json(quartic_coeffs, 3, 4), quartic, 6)]
    return []
