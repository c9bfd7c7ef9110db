"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with -s to see one PASS line per criterion.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import least_squares

from waring.binary import _projective_roots, binary_decompose, hankel_slice
from waring.core import (
    DualForm,
    HomogeneousPoly,
    LinearChange,
    apolar,
    change_coordinates,
    decomposition_from_json,
    expand_power_sum,
    monomials,
    monomials_upto,
    multinomial,
    parse_poly,
    power_of_linear_form,
    to_dual,
)
from waring.decompose import OrbitClass, classify_ternary_cubic, decompose, rank, verify
from waring.extension import extend_dual
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    kernel_generators,
    known_rank_bound,
    shifted_matrix,
)

from conftest import FIXTURES, QUINTIC_SUPPORT, load_json_poly, planted_poly


def _ok(msg):
    print(f"PASS {msg}")


def test_criterion_1_quintic_reproduction(quintic):
    t0 = time.perf_counter()
    rep = decompose(quintic)
    dt = time.perf_counter() - t0
    assert rep.rank == 4
    assert rep.residual < 1e-7
    got = []
    for _, k in rep.decomposition.terms:
        assert abs(k[0] - 1) < 1e-9
        got.append((k[1], k[2]))
    for _, want in QUINTIC_SUPPORT:
        assert any(
            abs(g[0] - want[0]) <= 1e-6 * max(1, abs(want[0]))
            and abs(g[1] - want[1]) <= 1e-6 * max(1, abs(want[1]))
            for g in got
        ), (want, got)
    assert dt < 1.0, dt
    _ok(
        "criterion 1: quintic rank 4, points {(2,3),(-2,3),(-12,-3),(12,-13)}, "
        f"residual {rep.residual:.2e}, {dt:.2f}s"
    )


def test_criterion_2_quartic_reproduction(quartic):
    t0 = time.perf_counter()
    rep = decompose(quartic)
    dt = time.perf_counter() - t0
    assert rep.rank == 6
    assert rep.residual < 1e-6
    assert dt < 10.0, dt
    printed = decomposition_from_json(
        json.loads((FIXTURES / "quartic_rank6_decomposition.json").read_text())
    )
    vr = verify(quartic, printed)
    assert vr.residual <= 5e-3, vr.residual
    _ok(
        f"criterion 2: quartic rank 6 residual {rep.residual:.2e} in {dt:.2f}s; "
        f"published 6-term decomposition verifies at {vr.residual:.2e}"
    )


def test_criterion_3_cubic_classification():
    cases = [
        ("cubic_cube.json", OrbitClass.CUBE, 1),
        ("cubic_two_cubes.json", OrbitClass.SUM_TWO_CUBES, 2),
        ("cubic_square_line.json", OrbitClass.SQUARE_TIMES_LINE, 3),
        ("cubic_fermat.json", OrbitClass.FERMAT, 3),
        ("cubic_generic_rank4.json", OrbitClass.GENERIC, 4),
        ("cubic_maximal.txt", OrbitClass.MAXIMAL, 5),
    ]
    for name, want, want_rank in cases:
        if name.endswith(".txt"):
            f = parse_poly((FIXTURES / name).read_text())
        else:
            f = load_json_poly(name)
        got = classify_ternary_cubic(f)
        assert got is want, (name, got)
        assert got.rank == want_rank
    _ok("criterion 3: six canonical cubics classified with the right (rank, class)")


def test_criterion_4_maximal_cubic_reproduction(maximal_cubic):
    rep = decompose(maximal_cubic)
    assert rep.rank == 5
    assert rep.residual < 1e-6
    printed = decomposition_from_json(
        json.loads((FIXTURES / "cubic_maximal_decomposition.json").read_text())
    )
    vr = verify(maximal_cubic, printed)
    assert vr.residual <= 5e-3, vr.residual
    _ok(
        f"criterion 4: maximal cubic rank 5 residual {rep.residual:.2e}; "
        f"published 5-term decomposition verifies at {vr.residual:.2e}"
    )


def test_criterion_5_binary_path():
    trials = 100
    decompose_ok = 0
    kernel_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(4, 11))
        r = int(rng.integers(1, d // 2 + 1))
        dirs = []
        while len(dirs) < r:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            if all(abs(v[0] * q[1] - v[1] * q[0]) > 0.05 for q in dirs):
                dirs.append(v)
        wts = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        f = expand_power_sum(list(zip(wts, dirs)), 2, d)

        dec = binary_decompose(f, rng_seed=trial)
        rebuilt = expand_power_sum(dec, 2, d)
        if dec.rank == r and (rebuilt - f).coeff_norm() < 1e-8 * f.coeff_norm():
            decompose_ok += 1

        h = hankel_slice(f, r)
        _, sv, vh = np.linalg.svd(h)
        nullity_one = sv[-1] < 1e-8 * sv[0] and (
            len(sv) < 2 or sv[-2] >= 1e-8 * sv[0]
        )
        roots = _projective_roots(np.conj(vh[-1]))
        matched = roots is not None and all(
            any(
                abs(p[0] * q[1] - p[1] * q[0])
                / (np.linalg.norm(p) * np.linalg.norm(q))
                <= 1e-6
                for p in roots
            )
            for q in dirs
        )
        if nullity_one and matched and len(roots) == r:
            kernel_ok += 1
    assert decompose_ok >= 98, decompose_ok
    assert kernel_ok >= 98, kernel_ok
    _ok(
        f"criterion 5: binary recovery {decompose_ok}/100, "
        f"kernel root match {kernel_ok}/100"
    )


def test_criterion_6a_apolar_identity():
    rng = np.random.default_rng(61)
    for _ in range(200):
        nv = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        coeffs = {
            e: complex(rng.standard_normal(), rng.standard_normal())
            for e in monomials(nv, d)
        }
        f = HomogeneousPoly(nv, d, coeffs)
        f = f.scale(1.0 / f.coeff_norm())
        k = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        k /= np.linalg.norm(k)
        g = power_of_linear_form(k, d)
        assert abs(apolar(f, g) - f.evaluate(k)) <= 1e-10
    _ok("criterion 6a: apolar pairing equals evaluation on 200 random (f, k)")


def test_criterion_6b_hankel_rank_of_point_moments():
    rng = np.random.default_rng(62)
    for _ in range(20):
        nv = int(rng.integers(2, 4))
        d = int(rng.integers(4, 7))
        cap = len(monomials_upto(nv, d // 2))
        r = int(rng.integers(1, min(6, cap) + 1))
        pts = []
        while len(pts) < r:
            z = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
            if all(np.linalg.norm(z - q) > 0.3 for q in pts):
                pts.append(z)
        wts = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        L = DualForm.from_support(wts, pts, nv, d)
        assert known_rank_bound(L, 1e-7) == r
    _ok("criterion 6b: moment sequences of r random points have Hankel rank r")


def test_criterion_6c_extended_operators_commute(quartic, maximal_cubic):
    def commutator_ratio(L, basis):
        sol = extend_dual(L, basis, seed=0)
        assert sol is not None
        assign = sol.assignment
        d0 = build_hankel(L, basis.exponents, basis.exponents).value_matrix(assign)
        ms = [
            shifted_matrix(L, basis, v).value_matrix(assign) @ np.linalg.inv(d0)
            for v in range(L.nvars)
        ]
        worst = 0.0
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                num = np.linalg.norm(ms[i] @ ms[j] - ms[j] @ ms[i])
                den = max(np.linalg.norm(ms[i]) * np.linalg.norm(ms[j]), 1e-300)
                worst = max(worst, num / den)
        return worst

    worst = commutator_ratio(
        to_dual(quartic), MonomialBasis(2, monomials_upto(2, 2))
    )
    worst = max(
        worst,
        commutator_ratio(
            to_dual(maximal_cubic),
            MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]),
        ),
    )
    rng = np.random.default_rng(63)
    for _ in range(3):
        f, _ = planted_poly(3, 4, 5, rng)
        L = to_dual(f)
        b = full_rank_principal_minor(L, size=5)
        assert b is not None
        worst = max(worst, commutator_ratio(L, b))
    assert worst < 1e-6, worst
    _ok(f"criterion 6c: extended multiplication operators commute ({worst:.2e})")


def test_criterion_6d_kernel_generators_annihilate():
    rng = np.random.default_rng(64)
    checked = 0
    for _ in range(10):
        nv = int(rng.integers(3, 5))
        d = int(rng.integers(4, 6))
        r = int(rng.integers(2, 5))
        f, _ = planted_poly(nv, d, r, rng)
        L = to_dual(f)
        b = full_rank_principal_minor(L, size=r)
        assert b is not None
        for g in kernel_generators(L, b):
            gdeg = max(sum(e) for e in g)
            for m in monomials_upto(L.nvars, L.degree - gdeg):
                val, scale = 0.0, 0.0
                for e, c in g.items():
                    me = L.moment(tuple(a + x for a, x in zip(e, m)))
                    val += c * me
                    scale = max(scale, abs(c * me))
                if scale > 0:
                    assert abs(val) < 1e-8 * scale
                    checked += 1
    assert checked > 100
    _ok(f"criterion 6d: kernel generators annihilate all {checked} in-degree products")


def test_criterion_6e_rank_invariance(quintic, quartic, maximal_cubic):
    rng = np.random.default_rng(65)
    for f, want in [(quintic, 4), (quartic, 6), (maximal_cubic, 5)]:
        for _ in range(20):
            g = change_coordinates(f, LinearChange.random_unitary(3, rng))
            assert rank(g) == want
    _ok("criterion 6e: rank invariant under 20 random coordinate changes per fixture")


def test_criterion_6f_round_trip():
    rng = np.random.default_rng(66)
    trials, hits = 50, 0
    for _ in range(trials):
        nv = int(rng.integers(3, 5))
        d = int(rng.integers(3, 6))
        r_gen = math.ceil(math.comb(nv - 1 + d, d) / nv)
        r = int(rng.integers(1, r_gen))
        f, _ = planted_poly(nv, d, r, rng)
        try:
            rep = decompose(f)
        except Exception:
            continue
        if rep.rank == r and rep.residual < 1e-7:
            hits += 1
    assert hits >= 0.95 * trials, hits
    _ok(f"criterion 6f: round-trip recovery {hits}/{trials}")


def _oracle_rank(f, seed, rmax=3, restarts=25):
    """Tiny brute-force fit: minimize over r directions with weights folded in."""
    exps = monomials(f.nvars, f.degree)
    mults = np.array([float(multinomial(f.degree, e)) for e in exps])
    target = np.array([f.coeff(e) for e in exps])
    scale = np.linalg.norm(target)
    rng = np.random.default_rng(seed)
    nv = f.nvars
    earr = [np.array(e) for e in exps]

    for r in range(1, rmax + 1):
        def resid(x):
            k = (x[: r * nv] + 1j * x[r * nv :]).reshape(r, nv)
            pred = np.zeros(len(exps), dtype=complex)
            for row in k:
                pred += np.array([np.prod(row**e) for e in earr])
            d = (pred * mults - target) / scale
            return np.concatenate([d.real, d.imag])

        for _ in range(restarts):
            x0 = rng.standard_normal(2 * r * nv)
            sol = least_squares(resid, x0, method="lm", xtol=1e-15, ftol=1e-15)
            if np.linalg.norm(sol.fun) < 1e-6:
                return r
    return rmax + 1


def test_criterion_7_oracle_cross_check():
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        r = int(rng.integers(1, 4))
        f, _ = planted_poly(3, 3, r, rng)
        got = rank(f)
        want = _oracle_rank(f, seed=trial)
        assert got == want == r, (trial, r, got, want)
    _ok("criterion 7: brute-force oracle agrees with the pipeline on 20 cubics")
