import contextlib
import json
import math
import os
import re
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from waring.core import (
    MASS_RATIO_CAP,
    MIN_SEPARATION,
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    accept,
    change_coordinates,
    decomposition_from_json,
    essential_vars,
    expand_power_sum,
    monomials_upto,
    numerical_rank,
    ordered_norm,
    pairwise_sines,
    parse_poly,
    random_unitary,
    to_dual,
)
from waring.binary import binary_decompose
from waring.decompose import (
    OrbitClass,
    _Frame,
    classify_ternary_cubic,
    decompose,
    rank,
    verify,
)
from waring.hankel import (
    IDEALS_PER_RANK, MonomialBasis, build_hankel, full_rank_principal_minor, known_columns_test,
    known_rank_bound, koszul_rank_bound, order_ideals,
)

from conftest import (
    FIXTURES, QUINTIC_SUPPORT, WALK_SHAPES, coeff_difference, identity_frame_of, load_json_poly,
    load_text_poly, planted_poly, poly_sub, principal_minor, rank_walk, relative_error,
)


def test_quintic_report(quintic):
    rep = decompose(quintic)
    assert rep.rank == 4
    assert rep.residual < 1e-7
    assert rep.free_count == 0
    assert rep.basis == [(0, 0), (1, 0), (0, 1), (2, 0)]
    got = {}
    for w, k in rep.decomposition.terms:
        assert abs(k[0] - 1) < 1e-9
        got[(round(k[1].real), round(k[2].real))] = w
    for w_true, p_true in QUINTIC_SUPPORT:
        key = tuple(int(x) for x in p_true)
        assert key in got
        assert got[key] == pytest.approx(w_true, rel=1e-6)


def test_quartic_rank_six(quartic):
    rep = decompose(quartic)
    assert rep.rank == 6
    assert rep.residual < 1e-6
    # six missing quintic moments, three left free by the equations
    assert rep.free_count == 3


def test_maximal_cubic_rank_five(maximal_cubic):
    rep = decompose(maximal_cubic)
    assert rep.rank == 5
    assert rep.residual < 1e-6
    # sizes 3 and 4 must be rejected on the way up: 12 failed attempts, which
    # the Gauss-Newton plateau exit shortens without changing their outcome
    assert rep.retries == 12
    assert rep.free_count == 5
    assert rep.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


def test_rank_examples():
    assert rank(parse_poly("x0^4 + 4x0^3*x1 + 6x0^2*x1^2 + 4x0*x1^3 + x1^4")) == 1
    assert rank(parse_poly("x0^3 + x1^3 + x2^3")) == 3
    assert rank(parse_poly("150x0^2*x2 + x1^2*x2 + x2^3 - 12x0^3")) == 4


def test_decompose_rejects_zero():
    with pytest.raises(ValueError):
        decompose(HomogeneousPoly(2, 3, {}))


# every option value `core.check_request` refuses, one keyword at a time
BAD_OPTIONS = ([("tol", t) for t in (math.nan, math.inf, 0.0, -1e-7)]
               + [("max_rank", m) for m in (0, -3, 2.5)]
               + [("seed", s) for s in (-1, 1.5)])


@pytest.mark.parametrize("name, value", BAD_OPTIONS)
def test_every_entry_point_refuses_bad_options_before_any_search(name, value, monkeypatch):
    # the request is checked at the entrance: no search starts, and the
    # message names the keyword and its flag.  Unchecked, the Fermat cubic
    # at tol = inf is classified a Cube
    def searched(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(sys.modules["waring.decompose"], "essential_vars", searched)
    monkeypatch.setattr(sys.modules["waring.decompose"], "_route", searched)
    monkeypatch.setattr(sys.modules["waring.binary"], "_moments", searched)
    binary, cubic = parse_poly("x0^3 + x1^3"), parse_poly("x0^3 + x1^3 + x2^3")
    calls = [lambda: decompose(cubic, **{name: value}),
             lambda: decompose(binary, **{name: value}),
             lambda: binary_decompose(binary, **{name: value})]
    if name != "max_rank":  # classify takes no rank cap
        calls.append(lambda: classify_ternary_cubic(cubic, **{name: value}))
    flag = "--" + name.replace("_", "-")
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{name} \\({flag}\\) must be "):
            call()
        assert time.perf_counter() - start < 1


# decompose the Fermat quartic in four variables at tol = nan and print the
# error; unchecked, that search runs for minutes
NAN_TOL_QUARTIC = """
from waring.core import parse_poly
from waring.decompose import decompose
try:
    decompose(parse_poly("x0^4 + x1^4 + x2^4 + x3^4"), tol=float("nan"))
except ValueError as exc:
    print(exc)
"""


def test_a_nan_tol_fails_fast_in_a_subprocess():
    # in a subprocess with a timeout, so that a search that hangs cannot
    # hang the suite
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", NAN_TOL_QUARTIC],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "tol (--tol) must be a finite real above 0\n"


def test_single_variable():
    rep = decompose(parse_poly("7*x0^3", nvars=1))
    assert rep.rank == 1
    w, k = rep.decomposition.terms[0]
    assert w * k[0] ** 3 == pytest.approx(7.0)


def test_max_rank_cap(maximal_cubic):
    with pytest.raises(DecompositionError):
        decompose(maximal_cubic, max_rank=4)


@pytest.mark.parametrize(
    "text, nvars, rank_found",
    [("x0^3 + x1^3", None, 2),            # binary path
     ("x0^3 + x1^3 + 0*x2^3", 3, 2),      # variable reduction to binary
     ("7*x0^3", 1, 1)],                   # one variable
)
def test_max_rank_cap_on_every_path(text, nvars, rank_found):
    f = parse_poly(text, nvars=nvars) if nvars else parse_poly(text)
    # below rank 1 the cap is 0, which no search gets: the request is refused
    with pytest.raises(DecompositionError if rank_found > 1 else ValueError):
        decompose(f, max_rank=rank_found - 1)
    assert decompose(f, max_rank=rank_found).rank == rank_found


@pytest.mark.parametrize(
    "text, nvars",
    [("x0^3 + x1^3 + x2^3", None),  # the rank loop
     ("x0^3 + x1^3 + x2^3 + 0*x3^3", 4),  # reduced to 3 variables
     ("x0^12 - 3*x0^7*x1^5 + 2*x0^3*x1^9 + x1^12", None),  # binary path
     ("7*x0^3", 1)],  # one variable
)
def test_report_reads_rank_and_residual_off_its_decomposition(text, nvars):
    f = parse_poly(text, nvars=nvars)
    rep = decompose(f)
    dec = rep.decomposition
    assert (rep.rank, rep.residual) == (dec.rank, dec.residual)
    # the terms and their residual are the input's, also after a reduction
    assert dec.nvars == f.nvars
    assert rep.residual == pytest.approx(verify(f, dec).residual, abs=1e-15)


# |c|^2 overflows a double for |c| above about 1.3e154, and underflows to 0
# for |c| below about 2e-162
OUT_OF_RANGE = [
    "1e308*x0^2 + 1e308*x1^2", "1e308*x0^3 + 1e308*x1^3 + x2^3",
    "1e160*x0^3 + x1^3 + x2^3", "1e-170*x0^2 + 1e-170*x1^2",
    "1e-170*x0^3 + 1e-170*x1^3 + 1e-170*x2^3",
]


@pytest.mark.parametrize("text", OUT_OF_RANGE)
def test_coefficients_outside_double_range_are_refused(text):
    # the coefficient norm, which every residual divides by, must be a
    # nonzero double; each entry point says so before any numerics run
    f = parse_poly(text)
    dec = Decomposition(f.degree, [(1.0, np.ones(f.nvars, dtype=complex))])
    calls = [lambda: decompose(f), lambda: verify(f, dec)]
    if f.nvars == 2:
        calls.append(lambda: binary_decompose(f))
    for call in calls:
        with pytest.raises(ValueError, match="out of double range: every .c. must be below about 1.3e154"):
            call()


@pytest.mark.parametrize("c", ["1e150", "1e-150"])
def test_coefficients_inside_double_range_still_decompose(c):
    rep = decompose(parse_poly(f"{c}*x0^3 + {c}*x1^3 + {c}*x2^3"))
    assert rep.rank == 3
    assert rep.residual <= 1e-7


def test_binary_delegation():
    f = parse_poly("x0^4 + x1^4")
    rep = decompose(f)
    assert rep.rank == 2
    assert rep.basis == []
    assert rep.residual < 1e-10


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_binary_path_honours_tol(tol):
    # affine degree-20 binary form of rank 10 with a wide spread of term
    # sizes: a rank-7 candidate fits the moments to 1e-8 but misses the
    # coefficients by 1e-6.  Every slice reads as rank 7 under the 1e-8
    # singular-value cut; random kernel combinations fit within tol only from
    # rank 13 on, each slice's smallest right singular vector at rank 9 or 10
    f, _ = planted_poly(2, 20, 10, np.random.default_rng(1420))
    rep = decompose(f, tol=tol)
    assert rep.rank <= 10
    assert rep.residual <= tol
    assert verify(f, rep.decomposition).residual <= 1.01 * tol


@pytest.mark.parametrize(
    "fixture, rank_, retries, free_count, basis",
    [
        ("ternary_quintic_rank4.txt", 4, 0, 0, [[0, 0], [1, 0], [0, 1], [2, 0]]),
        # catalecticant bound 6 at its ceiling C(4, 2), Koszul bound 7: the
        # search starts at rank 7
        ("ternary_quintic_rank7.json", 7, 0, 0,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0]]),
        ("ternary_quartic_rank6.txt", 6, 0, 3,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]),
        ("cubic_maximal.txt", 5, 12, 5, [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1]]),
        # the catalecticant bound 3 sits at its ceiling, so the Koszul bound
        # is read first and the search starts at rank 4, where one basis fails
        ("cubic_generic_rank4.json", 4, 1, 2, [[0, 0], [1, 0], [0, 1], [1, 1]]),
        # in the identity frame {1, x1, x2} is pruned (two of the three points
        # lie at x0 = 0) and two ideals of degree 2 fail; pruned ideals count
        # as retries
        ("cubic_fermat.json", 3, 3, 0, [[0, 0], [1, 0], [0, 1]]),
        ("cubic_two_cubes.json", 2, 0, 0, []),
        ("cubic_square_line.json", 3, 0, 0, []),
        ("cubic_cube.json", 1, 0, 0, []),
        # two inline monomials whose searches walk many ranks in both frames
        ("x0^2*x1^2*x2^2", 9, 63, 2,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [4, 0]]),
        ("x0*x1*x2*x3", 8, 204, 3,
         [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [1, 1, 0], [1, 0, 1],
          [3, 0, 0]]),
        # rank 9 by Carlini-Catalisano-Geramita, border rank at most 6: the
        # rank-7 basis's zero start makes D_0 singular, and a start on the
        # moment variety reaches terms that fit within tol
        ("x0^2*x1^2*x2", 7, 23, 3,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [3, 0], [2, 1]]),
        # two quartics with terms spread over 1e6 and 1e8, whose extensions
        # have free moments and come from starts on the moment variety
        ("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2", 6, 0, 3,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]),
        ("(0,1)*x0^4 + x1^4 + x2^4 - 100000000*x0*x1*x2^2", 6, 20, 3,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]),
    ],
    ids=["quintic", "quintic_rank7", "quartic", "maximal_cubic", "generic_cubic", "fermat",
         "two_cubes", "square_line", "cube", "monomial_222", "monomial_1111",
         "monomial_221", "quartic_c1e6", "quartic_c1e8"],
)
def test_fixture_search_path_is_pinned(fixture, rank_, retries, free_count, basis):
    # the rank, the failed attempts on the way up, the free moments and the
    # basis (as `--format json` prints it) at seed 0; a change to the solver
    # that moves any of them changes the search, not only its speed
    if fixture.endswith(".json"):
        f = load_json_poly(fixture)
    else:
        f = load_text_poly(fixture) if fixture.endswith(".txt") else parse_poly(fixture)
    rep = decompose(f, seed=0)
    assert (rep.rank, rep.retries, rep.free_count) == (rank_, retries, free_count)
    assert [list(e) for e in rep.basis] == basis
    assert rep.residual <= 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_maximal_cubic_search_holds_at_every_seed(seed):
    # its rank-4 extensions converge to commuting operators with a repeated
    # eigenvalue; a start that reached the rank-4 border approximation would
    # show as a lower rank or fewer retries
    rep = decompose(load_text_poly("cubic_maximal.txt"), seed=seed)
    assert (rep.rank, rep.retries, rep.free_count) == (5, 12, 5)


def test_maximal_cubic_rank4_attempt_ends_at_the_pencil(monkeypatch):
    # the identity frame's attempt on {1, x1, x2, x1^2}: the zero start makes
    # D_0 singular, a start on the moment variety reaches a commuting
    # extension, and its pencil is not simple.  The box starts took 413
    # residual calls to get there
    decompose_module = sys.modules["waring.decompose"]
    residual_class = sys.modules["waring.extension"].CommutatorResidual
    calls, attempts = [0], []

    def residual(self, x):
        calls[0] += 1
        return residual_(self, x)

    def pencil(*args):
        attempts[-1]["points"] = pencil_(*args)
        return attempts[-1]["points"]

    def attempt(f, frame, basis, *args):
        attempts.append({"identity": np.array_equal(frame.a, np.eye(3)),
                         "basis": basis.exponents, "calls": -calls[0]})
        out = attempt_(f, frame, basis, *args)
        attempts[-1]["calls"] += calls[0]
        return out

    residual_, pencil_, attempt_ = (residual_class.residual, decompose_module.pencil_support,
                                    decompose_module._attempt)
    monkeypatch.setattr(residual_class, "residual", residual)
    monkeypatch.setattr(decompose_module, "pencil_support", pencil)
    monkeypatch.setattr(decompose_module, "_attempt", attempt)
    decompose(load_text_poly("cubic_maximal.txt"), seed=0)
    [got] = [a for a in attempts
             if a["identity"] and a["basis"] == [(0, 0), (1, 0), (0, 1), (2, 0)]]
    assert "points" in got and got["points"] is None
    assert got["calls"] <= 150


def test_each_rank_is_walked_once_per_frame(monkeypatch):
    # x0^2*x1^2*x2^2 tries ranks 7 (the catalecticant bound, left after one
    # retry for the Koszul bound 8) to 9, 8 and 9 in both frames: each frame
    # builds its known-columns matrix once, each rank's order ideals are
    # generated once, within the walk's budget, and no frame tests an ideal
    # twice
    module = sys.modules["waring.decompose"]
    built, walks, tested = [], [], []

    def columns(L):
        test = known_columns_test(L)
        built.append(L)
        frame = len(built)

        def counted(ideal):
            tested.append((frame, tuple(ideal)))
            return test(ideal)

        return counted

    def ideals(nvars, size, top):
        walks.append([size, 0])
        for ideal in order_ideals(nvars, size, top):
            walks[-1][1] += 1
            yield ideal

    monkeypatch.setattr(module, "known_columns_test", columns)
    monkeypatch.setattr(module, "order_ideals", ideals)
    rep = decompose(parse_poly("x0^2*x1^2*x2^2"), seed=0)
    assert (rep.rank, rep.retries) == (9, 63)
    assert len(built) == 2
    assert [size for size, _ in walks] == [7, 8, 9]
    assert all(0 < drawn <= IDEALS_PER_RANK for _, drawn in walks)
    assert len(tested) == len(set(tested))


def _gated_candidates(frame, walk, r):
    """`_basis_candidates` as it was with its minor-rank gate: the
    principal-minor search ran only when r was at most the numerical rank of
    H over every monomial of degree <= d/2, one more SVD per frame; past
    it, every ideal was tested in walk order."""
    n, half = frame.L.nvars, frame.L.degree // 2
    full = monomials_upto(n, half)
    h = build_hankel(frame.L, full, full).value_matrix()
    minor_rank = numerical_rank(np.linalg.svd(h, compute_uv=False))
    walk, read = iter(walk), []
    if r <= minor_rank:
        taken = (read.append(ideal) or ideal for ideal in walk)
        pm = full_rank_principal_minor(taken, frame.test, half)
        if pm is not None:
            yield pm, True
            read.pop()
    for ideal in read:
        yield MonomialBasis(n, ideal), sum(ideal[-1]) > half and frame.test(ideal)
    for ideal in walk:
        yield MonomialBasis(n, ideal), frame.test(ideal)


def _gate_inputs(group):
    if group == "fixtures":
        yield from (load_text_poly(p.name) for p in sorted(FIXTURES.glob("*.txt")))
        yield from (load_json_poly(p.name) for p in sorted(FIXTURES.glob("*.json"))
                    if not p.name.endswith("_decomposition.json"))
    elif group == "monomials":
        for text in ["x0*x1*x2*x3", "x0^2*x1^2*x2^2", "x0^2*x1*x2", "x0*x1*x2", "x0^2*x1^2*x2"]:
            yield parse_poly(text)
    else:
        for shape in WALK_SHAPES:
            yield planted_poly(*shape, np.random.default_rng(shape[2]))[0]


@pytest.mark.parametrize("group", ["fixtures", "monomials", "bench_shapes"])
def test_the_principal_minor_search_needs_no_gate(group, monkeypatch):
    # at every rank the search visits, in both frames, the candidates come
    # out as the gated generator gave them, bases and verdicts alike, with
    # no more known-columns tests: where r is past the minor rank no ideal
    # of degree <= d/2 passes, and the search stops at the first past it.
    # A search that never draws its second frame is checked in one random
    # unitary change
    module = sys.modules["waring.decompose"]
    loops = []  # per rank loop: its form, the ranks and the frames it visits

    def rank_loop(f, *args):
        loops.append((f, set(), []))
        return run_loop(f, *args)

    def recording(frame, walk, r):
        loops[-1][1].add(r)
        if not any(frame is seen for seen in loops[-1][2]):
            loops[-1][2].append(frame)
        return candidates(frame, walk, r)

    run_loop, candidates = module._rank_loop, module._basis_candidates
    monkeypatch.setattr(module, "_rank_loop", rank_loop)
    monkeypatch.setattr(module, "_basis_candidates", recording)
    for f in _gate_inputs(group):
        decompose(f, seed=0)
    monkeypatch.undo()
    assert loops
    for f, ranks, frames in loops:
        if len(frames) == 1:
            a = random_unitary(f.nvars, np.random.default_rng(0))
            L = to_dual(change_coordinates(f, a))
            frames.append(_Frame(a, L, known_columns_test(L)))
        for frame, r in product(frames, sorted(ranks)):
            runs = []
            for generator in (candidates, _gated_candidates):
                tested = []

                def counted(ideal):
                    tested.append(ideal)
                    return frame.test(ideal)

                got = [(b.exponents, full) for b, full in
                       generator(frame._replace(test=counted), rank_walk(frame.L, r), r)]
                runs.append((got, len(tested)))
            (got, calls), (want, want_calls) = runs
            assert got == want, (f.coeffs, r)
            assert calls <= want_calls, (f.coeffs, r)


def _support_ok(f, terms) -> bool:
    """The support gate as the rank search applied it before `accept`."""
    cap = MASS_RATIO_CAP * f.coeff_norm()
    if any(abs(w) * np.linalg.norm(k) ** f.degree > cap for w, k in terms):
        return False
    return not np.any(pairwise_sines([k for _, k in terms]) < MIN_SEPARATION)


def _relative_err(f, terms) -> float:
    """The fit test's residual as the rank search computed it before `accept`."""
    return relative_error(expand_power_sum(terms, f.nvars, f.degree), f)


def _reference_verdict(f, terms, tol):
    """Why the parent rule turned the terms down ("gate" or "fit"), or the
    residual's hex when it took them."""
    if not _support_ok(f, terms):
        return "gate"
    res = _relative_err(f, terms)
    return res.hex() if res <= tol else "fit"


@pytest.mark.parametrize("group", ["fixtures", "monomials", "bench_shapes", "binary_shapes"])
def test_accept_is_the_gate_and_the_fit_test_bit_for_bit(group, monkeypatch):
    # every term list the searches hand `accept` on these inputs, rank loop,
    # Sylvester and variable reduction alike, gets the reference's verdict
    # and, when taken, its residual to the last bit
    seen = []

    def recording(f, terms, tol):
        seen.append((f, terms, tol, accept(f, terms, tol)))
        return seen[-1][-1]

    for name in ("waring.decompose", "waring.binary"):
        monkeypatch.setattr(sys.modules[name], "accept", recording)
    if group == "binary_shapes":
        forms = (planted_poly(2, d, d // 2, np.random.default_rng(d))[0] for d in range(3, 21))
    else:
        forms = _gate_inputs(group)
    for f in forms:
        decompose(f, seed=0)
    verdicts = []
    for f, terms, tol, got in seen:
        want = _reference_verdict(f, terms, tol)
        assert (got is None and want in ("gate", "fit")) or got.residual.hex() == want, f.coeffs
        verdicts.append(want if got is None else "taken")
    assert "taken" in verdicts
    if group in ("fixtures", "monomials"):
        assert {"gate", "fit"} <= set(verdicts)


def test_accept_refuses_nan_and_heavy_terms_and_takes_an_exact_term():
    f = parse_poly("x0^3 + 2*x0*x1^2")
    k = np.array([1.0, 2.0 - 1j])
    g = expand_power_sum([(1.5, k)], 2, 3)
    # a NaN weight or form fails the mass test, before any pairwise sine
    assert accept(f, [(np.nan, k)], math.inf) is None
    assert accept(f, [(1.5, np.array([1.0, np.nan]))], math.inf) is None
    # forms far apart, one of mass |w| ||k||^3 at the cap, then just above it
    cap = MASS_RATIO_CAP * f.coeff_norm()
    for w, taken in ((cap, True), (cap * (1 + 1e-12), False)):
        terms = [(1.0, np.array([1.0, 0.0])), (w, np.array([0.0, 1.0]))]
        assert (accept(f, terms, math.inf) is not None) == taken
    assert accept(g, [(1.5, k)], 0.0).residual == 0.0


@pytest.mark.parametrize("text, seed", [("x0^2*x1*x2", 4), ("x0^2*x1*x2", 5), ("x0*x1*x2^2", 4)])
def test_the_mass_cap_keeps_heavy_terms_out_of_a_rank_six_quartic(text, seed):
    # the mass half of the gate decides these searches: with no cap the rank
    # is still 6, but through terms of mass 1e6 ||f|| and more that cancel
    # to a residual of 1.6e-9 to 1.7e-8
    f = parse_poly(text)
    rep = decompose(f, seed=seed)
    assert rep.rank == 6
    assert rep.residual <= 1e-9
    for w, k in rep.decomposition.terms:
        assert abs(w) * np.linalg.norm(k) ** f.degree <= f.coeff_norm()


def test_koszul_bound_skips_the_ranks_it_rules_out(monkeypatch):
    # a planted (4, 5, 11): catalecticant bound 10, at its ceiling C(5, 2),
    # and Koszul bound 11, so the flattenings are read before any attempt and
    # the search starts at rank 11 with no rank-10 attempt
    module = sys.modules["waring.decompose"]
    events = []

    def counted(f, frame, basis, tol, seed, rng):
        events.append(len(basis))
        return attempt(f, frame, basis, tol, seed, rng)

    def bound(L, tol, floor):
        events.append("koszul")
        return koszul(L, tol, floor)

    attempt, koszul = module._attempt, module.koszul_rank_bound
    monkeypatch.setattr(module, "_attempt", counted)
    monkeypatch.setattr(module, "koszul_rank_bound", bound)
    f, _ = planted_poly(4, 5, 11, np.random.default_rng(3))
    rep = decompose(f)
    assert (rep.rank, rep.retries) == (11, 0)
    assert events == ["koszul", 11]
    assert (rep.lower_bound, rep.lower_bound_source) == (11, "koszul(2,1)")


def test_koszul_bound_is_read_first_only_at_the_catalecticant_ceiling(monkeypatch, quintic):
    module, hankel = sys.modules["waring.decompose"], sys.modules["waring.hankel"]
    events = []

    def attempt(*args):
        events.append("attempt")
        return real_attempt(*args)

    def bound(L, tol, floor):
        events.append("koszul")
        return real_bound(L, tol, floor)

    def flattening(L, delta, p):
        events.append("flattening")
        return real_flattening(L, delta, p)

    real_attempt, real_bound = module._attempt, module.koszul_rank_bound
    real_flattening = hankel.koszul_flattening
    monkeypatch.setattr(module, "_attempt", attempt)
    monkeypatch.setattr(module, "koszul_rank_bound", bound)
    monkeypatch.setattr(hankel, "koszul_flattening", flattening)
    # the quintic fixture: bound 4 below its ceiling 6, and its first
    # attempt succeeds, so the flattenings are never read
    rep = decompose(quintic)
    assert events == ["attempt"] and (rep.rank, rep.retries) == (4, 0)
    # a planted (3, 6, 10) sits at its ceiling C(5, 3) = 10, but no
    # flattening's ceiling passes 10, so none is built
    events.clear()
    f, _ = planted_poly(3, 6, 10, np.random.default_rng(10))
    rep = decompose(f)
    assert events == ["koszul", "attempt"]
    assert (rep.rank, rep.retries, rep.lower_bound_source) == (10, 0, "catalecticant")


def test_a_cap_between_the_two_bounds_fails_before_any_attempt(monkeypatch):
    # a planted (4, 5, 11) at max_rank 10: the catalecticant bound allows
    # rank 10, the Koszul bound, read first at the ceiling, does not
    module = sys.modules["waring.decompose"]
    sizes = []

    def counted(f, frame, basis, tol, seed, rng):
        sizes.append(len(basis))
        return attempt(f, frame, basis, tol, seed, rng)

    attempt = module._attempt
    monkeypatch.setattr(module, "_attempt", counted)
    f, _ = planted_poly(4, 5, 11, np.random.default_rng(3))
    with pytest.raises(DecompositionError,
                       match=r"at least 11 by the koszul\(2,1\) bound, above the cap 10"):
        decompose(f, max_rank=10)
    assert sizes == []


def test_attempt_rejects_nan_weights(monkeypatch, quintic):
    # the coefficient residual is the one fit test, and NaN fails it
    module = sys.modules["waring.decompose"]
    L = to_dual(quintic)
    frame = identity_frame_of(L)
    basis = principal_minor(L, 4)
    args = (quintic, frame, basis, 1e-7, 0)
    assert module._attempt(*args, np.random.default_rng(0)) is not None

    def nan_weights(points, L):
        return np.full(len(points), np.nan + 0j)

    monkeypatch.setattr(module, "solve_weights", nan_weights)
    assert module._attempt(*args, np.random.default_rng(0)) is None


def _with_noise(f, size, rng):
    """f plus complex Gaussian noise of `size` times its coefficient norm."""
    noise = rng.standard_normal(len(f.coeffs)) + 1j * rng.standard_normal(len(f.coeffs))
    noise *= size * f.coeff_norm() / np.linalg.norm(noise)
    return HomogeneousPoly(
        f.nvars, f.degree, {e: v + z for (e, v), z in zip(f.coeffs.items(), noise)})


def test_koszul_bound_leaves_room_for_the_noise_tol_allows(monkeypatch):
    # a planted (4, 5, 11) plus noise of 3e-8 of its norm: the planted terms
    # fit within tol 1e-7, so the search must try rank 11, and the Koszul
    # bound, read before the first attempt, rules out only rank 10.  Counted
    # at a fixed cut, without the noise that tol allows, the noise reads as
    # rank 12
    rng = np.random.default_rng([0, 4, 5, 11])
    f, _ = planted_poly(4, 5, 11, rng)
    g = _with_noise(f, 3e-8, rng)
    assert koszul_rank_bound(to_dual(g), 1e-12)[0] == 12
    assert koszul_rank_bound(to_dual(g), 1e-7)[0] == 11

    module = sys.modules["waring.decompose"]
    sizes = []

    def failed(f, frame, basis, tol, seed, rng):
        sizes.append(len(basis))

    monkeypatch.setattr(module, "_attempt", failed)
    with pytest.raises(DecompositionError, match="no decomposition of rank <= 11"):
        decompose(g, max_rank=11)
    assert 10 not in sizes and 11 in sizes


@pytest.mark.parametrize("draw", [0, 1, 5])
def test_catalecticant_bound_leaves_room_for_the_noise_tol_allows(monkeypatch, draw):
    # a planted (4, 4, 8) plus noise of 3e-8 of its norm: the planted terms
    # fit within tol 1e-7, so the search must try rank 8.  Counted at a fixed
    # cut, without the noise that tol allows, these draws read 9
    rng = np.random.default_rng([draw, 4, 4, 8])
    f, _ = planted_poly(4, 4, 8, rng)
    g = _with_noise(f, 3e-8, rng)
    assert known_rank_bound(to_dual(g), 1e-12) == 9
    assert known_rank_bound(to_dual(g), 1e-7) == 8

    module = sys.modules["waring.decompose"]
    sizes = []

    def failed(f, frame, basis, tol, seed, rng):
        sizes.append(len(basis))

    monkeypatch.setattr(module, "_attempt", failed)
    with pytest.raises(DecompositionError, match="no decomposition of rank <= 8"):
        decompose(g, max_rank=8)
    assert 8 in sizes


def test_ill_conditioned_quartic_reaches_rank_six():
    # rank <= 6, with terms spread over 1e6: the first basis's extension has
    # 3 free moments, and the point the solver reaches there is an answer.
    # Spread over 1e8 the search needs more attempts but gets there too
    for c in ("1000000", "100000000"):
        f = parse_poly(f"(0,1)*x0^4 + x1^4 + x2^4 - {c}*x0*x1*x2^2")
        rep = decompose(f)
        assert rep.rank == 6
        assert rep.residual <= 1e-7
        assert verify(f, rep.decomposition).residual <= 1.01e-7


# the proven maximum rank of each form's shape: 7 for ternary quartics,
# otherwise twice the generic rank, 14 for ternary quintics and 20 for
# quaternary quartics
PROVEN_MAXIMUM = {
    "x0^2*x1*x2": (7, "the maximum for ternary quartics"),
    "x0*x1*x2^2": (7, "the maximum for ternary quartics"),
    "x0^2*x1^2*x2": (14, "twice the generic rank, by Blekherman-Teitler"),
    "x0*x1*x2*x3": (20, "twice the generic rank, by Blekherman-Teitler"),
}


@pytest.mark.parametrize("text", PROVEN_MAXIMUM)
def test_search_stops_at_the_proven_maximum(monkeypatch, text):
    # past its proven maximum any rank found would be wrong, so a search
    # whose every attempt fails ends there
    top, named = PROVEN_MAXIMUM[text]
    monkeypatch.setattr(sys.modules["waring.decompose"], "_attempt", lambda *args: None)
    f = parse_poly(text)
    with pytest.raises(DecompositionError, match=re.escape(
            f"no decomposition of rank <= {top} ({named}) found at tolerance 1e-07")):
        decompose(f)
    # a lower max_rank still wins, and names no maximum
    with pytest.raises(DecompositionError, match=re.escape(
            f"no decomposition of rank <= {top - 1} found at tolerance 1e-07")):
        decompose(f, max_rank=top - 1)


# x^a with a_0 = min a_i has rank prod_{i >= 1} (a_i + 1)
# (Carlini-Catalisano-Geramita 2012); a binary one, its largest exponent + 1.
# The binary kernel's random combination decides the binary ones
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("text, proven", [
    ("x0*x1*x2", 4), ("x0^2*x1*x2", 6), ("x0*x1*x2^2", 6), ("x0^2*x1^2*x2^2", 9),
    ("x0*x1*x2*x3", 8), ("x0^3*x1^2", 4), ("x0^7*x1", 8), ("x0^5*x1^5", 6),
])
def test_monomials_reach_their_proven_rank(text, proven, seed):
    f = parse_poly(text)
    rep = decompose(f, seed=seed)
    assert rep.rank == proven
    assert verify(f, rep.decomposition).residual <= 1.01e-7


@pytest.mark.parametrize("seed", [0, 1])
def test_monomial_never_exceeds_its_proven_rank(seed):
    # rank 9 by the same theorem; the search returns rank 7 instead at
    # seeds 0-3: close points with large cancelling weights that fit within
    # tol, an approximation from the border that the support gate lets through
    f = parse_poly("x0^2*x1^2*x2")
    rep = decompose(f, seed=seed)
    assert rep.rank <= 9
    assert verify(f, rep.decomposition).residual <= 1.01e-7


def test_planted_quartic_of_rank_six():
    # six unit-norm forms at pairwise chordal distance > 0.3 with unit-modulus
    # weights, drawn as perfbench/cases.py draws its (3, 4, 6) probe.  The
    # first bases tried fail, and the grlex-prefix bases alone went on to
    # rank 7
    rng = np.random.default_rng([2, 33, 1])
    forms = []
    while len(forms) < 6:
        k = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        k /= np.linalg.norm(k)
        if all(1 - abs(np.vdot(k, q)) ** 2 > 0.09 for q in forms):
            forms.append(k)
    weights = np.exp(2j * np.pi * rng.uniform(size=6))
    f = expand_power_sum(list(zip(weights, forms)), 3, 4)
    rep = decompose(f)
    assert rep.rank == 6
    assert verify(f, rep.decomposition).residual <= 1.01e-7


def test_a_bound_above_max_rank_fails_at_once(quintic):
    cubic = load_json_poly("cubic_generic_rank4.json")
    with pytest.raises(DecompositionError, match=r"at least 4 by the koszul\(1,1\) bound"):
        decompose(cubic, max_rank=3)
    with pytest.raises(DecompositionError, match="at least 4 by the catalecticant bound"):
        decompose(quintic, max_rank=3)


@pytest.mark.parametrize(
    "text, nvars, bound, source",
    [
        ("x0^3 + x1^3 + x2^3", None, 3, "catalecticant"),  # first attempt succeeds
        ("150*x0^2*x2 + x1^2*x2 + x2^3 - 12*x0^3", None, 4, "koszul(1,1)"),
        ("x0^3 + x1^3 + x2^3 + 0*x3^3", 4, 3, "catalecticant"),  # reduced to 3 variables
        ("x0^4 + x1^4", None, None, None),  # binary path
        ("x0^3 + x1^3 + 0*x2^3", 3, None, None),  # reduced to a binary form
        ("7*x0^3", 1, None, None),  # one variable
    ],
)
def test_report_carries_the_lower_bound(text, nvars, bound, source):
    rep = decompose(parse_poly(text, nvars=nvars))
    assert (rep.lower_bound, rep.lower_bound_source) == (bound, source)
    if bound is not None:
        assert rep.rank >= bound


def test_degenerate_input_uses_fewer_variables():
    # a ternary form with only two essential variables
    rng = np.random.default_rng(29)
    g, _ = planted_poly(2, 4, 2, rng)
    lifted = HomogeneousPoly(
        3, 4, {e + (0,): c for e, c in g.coeffs.items()}
    )
    f = change_coordinates(lifted, random_unitary(3, rng))
    rep = decompose(f)
    assert rep.rank == 2
    assert rep.residual < 1e-8
    for _, k in rep.decomposition.terms:
        assert len(k) == 3
    vr = verify(f, rep.decomposition)
    assert vr.residual < 1e-8


def test_reduction_maps_back_through_the_conjugate():
    # a binary form hidden in n variables by a unitary: the reduced form g in
    # two variables gives f back as g(q^H x), and its terms map back to f's
    rng = np.random.default_rng(31)
    for n, d, r in [(3, 4, 2), (4, 5, 2), (5, 6, 3)]:
        g2, _ = planted_poly(2, d, r, rng)
        lifted = HomogeneousPoly(n, d, {e + (0,) * (n - 2): c for e, c in g2.coeffs.items()})
        f = change_coordinates(lifted, random_unitary(n, rng))
        count, q = essential_vars(f)
        assert (count, q.shape) == (2, (n, 2))
        g = change_coordinates(f, q)
        assert g.nvars == 2
        assert relative_error(change_coordinates(g, q.conj().T), f) <= 1e-12
        rep = decompose(f)
        assert rep.rank == r
        assert rep.residual <= 1e-7
        # the binary path's terms stood: the rank loop would report a bound
        assert rep.lower_bound is None
        assert all(len(k) == n for _, k in rep.decomposition.terms)


def test_reduced_form_is_held_to_tol():
    # x1's 1e-9 coefficient is below the essential-variable cut, so the form
    # reads as one in x0 alone; that is only within tol from 1e-9 on
    f = parse_poly("x0^3 + 1e-9*x1^3")
    assert decompose(f, tol=1e-12).rank == 2
    assert decompose(f, tol=1e-7).rank == 1
    # in three variables the search in all of them may fail, but it never
    # returns the reduced form's rank 2 at residual 7e-10
    g = parse_poly("x0^3 + x1^3 + 1e-9*x2^3")
    with contextlib.suppress(DecompositionError):
        assert decompose(g, tol=1e-12).residual <= 1e-12


# (x0 + (0.6+0.8i)*x1)^4 with noise of about 1e-8 on its coefficients' real
# parts: rank 1 within tol, where `waring sylvester` says rank 2
NEAR_POWER = (
    "1.000000050576*x0^4 + (2.399999936668,3.2)*x0^3*x1"
    " + (-1.6799999896390008,5.76)*x0^2*x1^2 + (-3.74400001407,1.4079999999999995)*x0*x1^3"
    " + (-0.843200011217,-0.5376000000000003)*x1^4"
)


def _near_power(d: int, noise: float, rng) -> HomogeneousPoly:
    """A random linear form's d-th power plus a random complex perturbation
    of `noise` times its coefficient norm."""
    k = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = np.array([math.comb(d, i) * k[0] ** (d - i) * k[1] ** i for i in range(d + 1)])
    z = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    c += noise * np.linalg.norm(c) * z / np.linalg.norm(z)
    return HomogeneousPoly(2, d, {(d - i, i): ci for i, ci in enumerate(c)})


def test_a_binary_near_power_reduces_to_rank_one_within_tol():
    # the essential-variable read is what finds rank 1 here: Sylvester's
    # kernel is counted with a fixed cut, not with tol, and says rank 2 or
    # more on these forms, so binary forms are read like any other
    f = parse_poly(NEAR_POWER)
    assert binary_decompose(f).rank == 2
    rep = decompose(f)
    assert (rep.rank, rep.essential) == (1, 1)
    assert rep.residual <= 1e-7
    rng = np.random.default_rng(44)
    for d in (4, 8, 12):
        for _ in range(8):
            rep = decompose(_near_power(d, 1e-8, rng), tol=1e-7)
            assert rep.rank == 1 and rep.residual <= 1e-7, d


def test_round_trip_spot_checks():
    rng = np.random.default_rng(11)
    for nv, d, r in [(3, 4, 5), (3, 5, 6), (4, 3, 4), (3, 3, 3)]:
        f, _ = planted_poly(nv, d, r, rng)
        rep = decompose(f)
        assert rep.rank == r, (nv, d, r, rep.rank)
        assert rep.residual < 1e-7


def test_rank_invariant_under_coordinate_changes(quintic):
    rng = np.random.default_rng(41)
    for _ in range(5):
        a = random_unitary(3, rng)
        assert rank(change_coordinates(quintic, a)) == 4


def test_verify_exact_and_perturbed():
    pts = [np.array([1, 2, 3]), np.array([1, -1, 0.5]), np.array([1, 0, -2])]
    wts = [2.0, -1.0, 0.5 + 0.25j]
    f = expand_power_sum(list(zip(wts, pts)), 3, 4)
    vr = verify(f, Decomposition(4, list(zip(wts, pts))))
    assert vr.residual < 1e-12
    assert vr.max_coeff_err < 1e-12
    assert vr.collisions == 0
    # second support point replaced by a scalar multiple of the first:
    # proportional forms collide and the rebuilt polynomial drifts
    vr2 = verify(f, Decomposition(4, list(zip(wts, [pts[0], pts[0] * 2.0, pts[2]]))))
    assert vr2.residual > 1e-3
    assert vr2.collisions == 1


def _subtraction_verify(f, dec):
    """verify's residual and largest coefficient error through g - f, the
    form it subtracted before the one residual helper."""
    diff = poly_sub(expand_power_sum(dec.terms, f.nvars, f.degree), f)
    biggest = max(abs(c) for c in f.coeffs.values())
    worst = max((abs(c) for c in diff.coeffs.values()), default=0.0)
    return diff.coeff_norm() / f.coeff_norm(), worst / biggest


def _coeff_difference_verify(f, dec):
    """verify's residual and largest coefficient error through
    `coeff_difference`, as it read them before it shared `accept`'s
    difference."""
    diff = coeff_difference(expand_power_sum(dec.terms, f.nvars, f.degree), f)
    biggest = max(abs(c) for c in f.coeffs.values())
    worst = max((abs(c) for c in diff), default=0.0)
    return ordered_norm(diff) / f.coeff_norm(), worst / biggest


def test_verify_and_the_fit_test_are_the_subtraction_bit_for_bit():
    cases = []
    for poly, name in (("cubic_maximal.txt", "cubic_maximal_decomposition.json"),
                       ("ternary_quartic_rank6.txt", "quartic_rank6_decomposition.json")):
        dec = decomposition_from_json(json.loads((FIXTURES / name).read_text()))
        cases.append((load_text_poly(poly), dec))
    for name in ("ternary_quintic_rank4.txt", "cubic_generic_rank4.json", "cubic_fermat.json"):
        f = (load_json_poly if name.endswith(".json") else load_text_poly)(name)
        cases.append((f, decompose(f).decomposition))
    f, terms = planted_poly(4, 3, 4, np.random.default_rng(43))
    cases.append((f, Decomposition(3, terms)))
    # planted term lists, exact and moved by noise
    rng = np.random.default_rng(44)
    for n, d, r in [(2, 7, 3), (3, 4, 5), (5, 3, 6), (2, 20, 10)]:
        f, terms = planted_poly(n, d, r, rng)
        noisy = [(w * (1 + 1e-6 * rng.standard_normal()), k) for w, k in terms]
        cases += [(f, Decomposition(d, terms)), (f, Decomposition(d, noisy))]
        # forms that leave the last variable unused, against an f near their
        # power sum elsewhere: f's small terms in that variable lie outside
        # the power sum's monomials, and the order of the sum shows
        flat = [(w, np.concatenate([k[:-1], [0]])) for w, k in terms]
        near = {e: c * (1 + 1e-6 * rng.standard_normal())
                for e, c in expand_power_sum(flat, n, d).coeffs.items()}
        near.update({e: 1e-6 * c for e, c in f.coeffs.items() if e[-1]})
        cases.append((HomogeneousPoly(n, d, near), Decomposition(d, flat)))
    # the x0*x1 term of (x0 + x1)^2 + (x0 - x1)^2 cancels exactly
    cases.append((parse_poly("x0^2 + 3*x0*x1 + x1^2"),
                  Decomposition(2, [(0.5, np.array([1.0, 1.0])), (0.5, np.array([1.0, -1.0]))])))
    cases.append((parse_poly("x0^3", nvars=1), Decomposition(3, [(1.0, np.array([1.0]))])))
    for f, dec in cases:
        residual, worst = _subtraction_verify(f, dec)
        vr = verify(f, dec)
        assert (vr.residual.hex(), vr.max_coeff_err.hex()) == (residual.hex(), worst.hex())
        residual, worst = _coeff_difference_verify(f, dec)
        assert (vr.residual.hex(), vr.max_coeff_err.hex()) == (residual.hex(), worst.hex())
        g = expand_power_sum(dec.terms, f.nvars, f.degree)
        assert relative_error(g, f).hex() == residual.hex()


@pytest.mark.parametrize("sine, want", [(3e-9, 1), (2e-8, 0)])
def test_verify_resolves_its_collision_threshold(sine, want):
    # two forms at a known projective angle on either side of verify's 1e-8
    # threshold, in random complex directions and at unequal scale and phase:
    # sqrt(1 - |<u,v>|^2) is only good to ~1e-8 here and misjudges some pairs
    rng = np.random.default_rng(11)
    f = parse_poly("x0^3 + x1^3 + x2^3")
    for _ in range(50):
        u, v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        u /= np.linalg.norm(u)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        k = (np.sqrt(1 - sine**2) * u + sine * v) * 2 * np.exp(1j * rng.uniform(0, 6))
        dec = Decomposition(3, [(1.0, u), (1.0, k)])
        assert verify(f, dec).collisions == want


def test_verify_rejects_shape_mismatch():
    f = parse_poly("x0^3 + x1^3")
    dec = Decomposition(2, [(1.0, np.array([1.0, 0.0]))])
    with pytest.raises(ValueError):
        verify(f, dec)


CLASSIFY_CASES = [
    ("x0^3", OrbitClass.CUBE),
    ("x0^2*x1 + x0*x1^2", OrbitClass.SUM_TWO_CUBES),
    ("x0^2*x1", OrbitClass.SQUARE_TIMES_LINE),
    ("x0^3 + x1^3 + x2^3", OrbitClass.FERMAT),
    ("150x0^2*x2 + x1^2*x2 + x2^3 - 12x0^3", OrbitClass.GENERIC),
    ("x0^2*x1 + x0*x2^2", OrbitClass.MAXIMAL),
    # Fermat cubics with terms of very different sizes
    ("10000x0^3 + x1^3 + x2^3", OrbitClass.FERMAT),
    ("100000x0^3 + x1^3 + x2^3", OrbitClass.FERMAT),
]
CLASSIFY_IDS = [w.label for _, w in CLASSIFY_CASES[:-2]] + ["Fermat_1e4", "Fermat_1e5"]


@pytest.mark.parametrize("text,want", CLASSIFY_CASES, ids=CLASSIFY_IDS)
def test_classify_canonical_cubics(text, want):
    src = parse_poly(text)
    f = HomogeneousPoly(
        3, src.degree, {e + (0,) * (3 - src.nvars): c for e, c in src.coeffs.items()}
    )
    for seed in range(4):
        got = classify_ternary_cubic(f, seed=seed)
        assert got is want, seed
        assert got.rank == want.rank


def test_each_form_reads_its_essential_variables_once(monkeypatch):
    # the square-times-line cubic uses two variables: `decompose` reads that
    # once and routes the reduced form without reading it again, and
    # `classify` takes the count `decompose` read to tell it from Fermat's
    module = sys.modules["waring.decompose"]
    calls = []

    def counted(f):
        calls.append(f.nvars)
        return read(f)

    read = module.essential_vars
    monkeypatch.setattr(module, "essential_vars", counted)
    f = load_json_poly("cubic_square_line.json")
    rep = decompose(f)
    assert calls == [3]
    assert (rep.rank, rep.essential) == (3, 2)
    calls.clear()
    assert classify_ternary_cubic(f) is OrbitClass.SQUARE_TIMES_LINE
    assert calls == [3]
    calls.clear()
    assert classify_ternary_cubic(parse_poly("x0^3 + x1^3 + x2^3")) is OrbitClass.FERMAT
    assert calls == [3]


def test_classify_rejects_wrong_shape():
    with pytest.raises(ValueError):
        classify_ternary_cubic(parse_poly("x0^3 + x1^3"))
    with pytest.raises(ValueError):
        classify_ternary_cubic(parse_poly("x0^4 + x1^4 + x2^4"))


def test_classify_stable_under_coordinate_changes():
    rng = np.random.default_rng(53)
    src = parse_poly("x0^3 + x1^3 + x2^3")
    for _ in range(3):
        g = change_coordinates(src, random_unitary(3, rng))
        assert classify_ternary_cubic(g) is OrbitClass.FERMAT


def test_seed_changes_are_reported(quintic):
    rep = decompose(quintic, seed=5)
    assert rep.seed == 5
    assert rep.rank == 4
