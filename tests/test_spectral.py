import numpy as np
import pytest

from waring.core import Decomposition, DualForm, expand_power_sum, to_dual
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    shifted_matrix,
)
from waring.spectral import (
    ExtractionError,
    eigenvalues_simple,
    extract_points,
    generalized_eigen,
    pencil_support,
    solve_weights,
)

from conftest import QUINTIC_SUPPORT


def _quintic_setup(quintic):
    L = to_dual(quintic)
    b = full_rank_principal_minor(L)
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    d2 = shifted_matrix(L, b, 1).value_matrix()
    return L, b, d0, d1, d2


def test_pencil_eigenvalues_are_coordinates(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    w, _ = generalized_eigen(d1, d0)
    assert eigenvalues_simple(w)
    assert sorted(np.round(w.real).astype(int)) == [-12, -2, 2, 12]
    assert np.max(np.abs(w.imag)) < 1e-8


def test_eigenvectors_are_evaluation_vectors(quintic):
    # columns normalized at the constant slot read off (1, z1, z2, z1^2)
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    _, u = generalized_eigen(d1, d0)
    want = {(-12, -3, 144), (12, -13, 144), (-2, 3, 4), (2, 3, 4)}
    got = set()
    for k in range(4):
        col = u[:, k]
        assert abs(col[0] - 1) < 1e-8
        got.add(tuple(int(round(c.real)) for c in col[1:]))
    assert got == want


def test_extract_points_and_weights(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    _, u = generalized_eigen(d1, d0)
    mult = [d1 @ np.linalg.inv(d0), d2 @ np.linalg.inv(d0)]
    ps = extract_points(u, b, mult)
    assert ps.simple
    assert len(ps) == 4
    pts = sorted(tuple(np.round(p.real).astype(int)) for p in ps.points)
    assert pts == [(-12, -3), (-2, 3), (2, 3), (12, -13)]
    wts, res = solve_weights(ps, L)
    assert res < 1e-10
    pairing = {tuple(np.round(p.real).astype(int)): w for p, w in zip(ps.points, wts)}
    for w_true, p_true in QUINTIC_SUPPORT:
        assert pairing[tuple(int(x) for x in p_true)] == pytest.approx(w_true, abs=1e-6)


def test_full_reconstruction(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    rng = np.random.default_rng(0)
    ps = pencil_support(d0, [d1, d2], b, rng)
    assert ps is not None and len(ps) == 4
    wts, _ = solve_weights(ps, L)
    dec = Decomposition(
        5, [(w, np.concatenate([[1.0], p])) for w, p in zip(wts, ps.points)]
    )
    g = expand_power_sum(dec, 3, 5)
    assert (quintic - g).coeff_norm() < 1e-10 * quintic.coeff_norm()


def test_rayleigh_fallback_recovers_missing_coordinate():
    # basis carries only powers of the first variable; the second coordinate
    # must come out of the Rayleigh quotient with M_2
    pts = [(2.0, 5.0), (-1.0, 0.5), (0.3, -2.0)]
    wts = [1.0, 2.0, -0.5]
    L = DualForm.from_support(wts, pts, 2, 6)
    b = MonomialBasis(2, [(0, 0), (1, 0), (2, 0)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    d2 = shifted_matrix(L, b, 1).value_matrix()
    ps = pencil_support(d0, [d1, d2], b, np.random.default_rng(1))
    assert ps is not None
    rec = sorted((round(p[0].real, 6), round(p[1].real, 6)) for p in ps.points)
    assert rec == sorted(pts)
    _, res = solve_weights(ps, L)
    assert res < 1e-8


def test_extract_points_rejects_junk():
    bad = np.array(
        [[1.0, 1.0], [2.0, 2.0], [3.0, 9.0], [5.0, 7.0]], dtype=complex
    )
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
    with pytest.raises(ExtractionError):
        extract_points(bad, b, None)


def test_eigenvalues_simple_flags_collision():
    assert eigenvalues_simple(np.array([1.0, 2.0, 3.0]))
    assert not eigenvalues_simple(np.array([1.0, 1.0 + 1e-12, 3.0]))


def test_single_point_support():
    L = DualForm.from_support([1.0], [(5.0,)], 1, 3)
    b = MonomialBasis(1, [(0,)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    _, u = generalized_eigen(d1, d0)
    ps = extract_points(u, b, [d1 @ np.linalg.inv(d0)])
    assert ps.points[0][0] == pytest.approx(5.0, abs=1e-10)
    wt, res = solve_weights(ps, L)
    assert wt[0] == pytest.approx(1.0, abs=1e-10)
    assert res < 1e-12


def test_pencil_support_rejects_nilpotent_operators(maximal_cubic):
    # the size-3 basis yields commuting but nilpotent operators: every pencil
    # combination has eigenvalue 0 three times, so no attempt can succeed
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    d2 = shifted_matrix(L, b, 1).value_matrix()
    m1 = d1 @ np.linalg.inv(d0)
    m2 = d2 @ np.linalg.inv(d0)
    assert np.linalg.norm(m1 @ m2 - m2 @ m1) < 1e-12
    ps = pencil_support(d0, [d1, d2], b, np.random.default_rng(3))
    assert ps is None


def test_extract_points_reports_the_first_failing_coordinate():
    # column 0 is the evaluation vector (1, a, b, a^2, ab) at (a, b) = (2, 3);
    # column 1 fails at ab, column 2 at a^2, column 3 has no usable constant
    # coordinate: the first failure in column order is the one reported
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    u = np.array(
        [[1, 1, 1, 0.5], [2, 1, 1, 1], [3, 1, 2, 1], [4, 1, 9, 1], [6, 7, 2, 1]],
        dtype=complex,
    )
    want = r"^coordinate of \(1, 1\) is 7\+0j, expected 1\+0j$"
    with pytest.raises(ExtractionError, match=want):
        extract_points(u, b)
    with pytest.raises(ExtractionError, match="no usable constant coordinate"):
        extract_points(u[:, [0, 3, 1, 2]], b)
