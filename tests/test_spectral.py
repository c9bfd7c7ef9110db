import copy
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from waring.cli import parse_input
from waring.core import (
    Decomposition, accept, expand_power_sum, identity_frame, monomial_values, to_dual,
)
from waring.decompose import decompose
from waring.extension import extend_dual
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    shifted_matrix,
)
from waring.spectral import (
    eigenvalues_simple,
    extract_points,
    generalized_eigen,
    pencil_support,
    solve_weights,
)

from conftest import (
    FIXTURES, QUINTIC_SUPPORT, dual_from_support, moment_residual, poly_sub,
    principal_minor,
)


def _quintic_setup(quintic):
    L = to_dual(quintic)
    b = principal_minor(L, 4)
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    d2 = shifted_matrix(L, b, 1).value_matrix()
    return L, b, d0, d1, d2


def _columns(v, d0, shifts):
    """D_0 v above the first row of each D_i v: what `pencil_support` hands
    to `extract_points`."""
    return np.vstack([d0, *(s[:1] for s in shifts)]) @ v


def _scaled_columns(v, d0, shifts):
    """`_columns`, each column scaled by its constant entry."""
    u = _columns(v, d0, shifts)
    return u / u[0]


def test_pencil_eigenvalues_are_coordinates(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    w, _ = generalized_eigen(d1, np.linalg.svd(d0))
    assert eigenvalues_simple(w)
    assert sorted(np.round(w.real).astype(int)) == [-12, -2, 2, 12]
    assert np.max(np.abs(w.imag)) < 1e-8


def test_eigenvectors_are_evaluation_vectors(quintic):
    # columns normalized at the constant slot read off (1, z1, z2, z1^2)
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    _, v = generalized_eigen(d1, np.linalg.svd(d0))
    u = _scaled_columns(v, d0, [])
    want = {(-12, -3, 144), (12, -13, 144), (-2, 3, 4), (2, 3, 4)}
    got = set()
    for k in range(4):
        col = u[:, k]
        assert abs(col[0] - 1) < 1e-8
        got.add(tuple(int(round(c.real)) for c in col[1:]))
    assert got == want


def test_extract_points_and_weights(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    _, v = generalized_eigen(d1, np.linalg.svd(d0))
    ps = extract_points(_columns(v, d0, [d1, d2]), b)
    assert ps.shape == (4, 2)
    pts = sorted(tuple(np.round(p.real).astype(int)) for p in ps)
    assert pts == [(-12, -3), (-2, 3), (2, 3), (12, -13)]
    wts = solve_weights(ps, L)
    assert moment_residual(wts, ps, L) < 1e-10
    pairing = {tuple(np.round(p.real).astype(int)): w for p, w in zip(ps, wts)}
    for w_true, p_true in QUINTIC_SUPPORT:
        assert pairing[tuple(int(x) for x in p_true)] == pytest.approx(w_true, abs=1e-6)


def test_row_rule_equals_the_basis_entry(quintic):
    # x_1 and x_2 are in the quintic's basis, so each coordinate can also be
    # read off the evaluation vector D_0 v; the first rows of D_1 and D_2 give
    # the same numbers
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    ps = pencil_support(d0, [d1, d2], b, np.random.default_rng(0))
    _, v = generalized_eigen(d1, np.linalg.svd(d0))
    u = _scaled_columns(v, d0, [])
    entries = u[[b.index[(1, 0)], b.index[(0, 1)]]].T
    np.testing.assert_allclose(ps, entries, rtol=1e-14, atol=0)


def test_full_reconstruction(quintic):
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    rng = np.random.default_rng(0)
    ps = pencil_support(d0, [d1, d2], b, rng)
    assert ps is not None and len(ps) == 4
    wts = solve_weights(ps, L)
    dec = Decomposition(
        5, [(w, np.concatenate([[1.0], p])) for w, p in zip(wts, ps)]
    )
    g = expand_power_sum(dec, 3, 5)
    assert poly_sub(quintic, g).coeff_norm() < 1e-10 * quintic.coeff_norm()


def test_rayleigh_fallback_recovers_missing_coordinate():
    # basis carries only powers of the first variable; the second coordinate
    # must come out of the first row of D_2, like every other coordinate
    pts = [(2.0, 5.0), (-1.0, 0.5), (0.3, -2.0)]
    wts = [1.0, 2.0, -0.5]
    L = dual_from_support(wts, pts, 2, 6)
    b = MonomialBasis(2, [(0, 0), (1, 0), (2, 0)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    d2 = shifted_matrix(L, b, 1).value_matrix()
    ps = pencil_support(d0, [d1, d2], b, np.random.default_rng(1))
    assert ps is not None
    rec = sorted((round(p[0].real, 6), round(p[1].real, 6)) for p in ps)
    assert rec == sorted(pts)
    assert moment_residual(solve_weights(ps, L), ps, L) < 1e-8


# the columns of (1, a, b, a^2, ab) over (a, b) for a basis in two variables:
# column 0 is the evaluation vector at (2, 3), column 1 fails at ab, column 2
# at a^2, and column 3 is the vector at (2, 2) with its constant entry halved
JUNK_BASIS = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
JUNK = np.array(
    [[1, 1, 1, 0.5], [2, 1, 1, 1], [3, 1, 2, 1], [4, 1, 9, 1], [6, 7, 2, 1]],
    dtype=complex,
)
JUNK = np.vstack([JUNK, JUNK[1:3]])


def test_extract_points_rejects_junk():
    bad = np.array(
        [[1.0, 1.0], [2.0, 2.0], [3.0, 9.0], [5.0, 7.0]], dtype=complex
    )
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
    assert extract_points(np.vstack([bad, bad[1:3]]), b) is None


def test_extract_points_refuses_a_column_failing_any_coordinate():
    # one column that is not an evaluation vector refuses them all, wherever
    # it stands
    np.testing.assert_array_equal(extract_points(JUNK[:, :1], JUNK_BASIS), [[2, 3]])
    for cols in ([0, 1], [0, 2], [0, 3], [3, 0], [0, 1, 2, 3], [0, 3, 1, 2]):
        assert extract_points(JUNK[:, cols], JUNK_BASIS) is None


def test_extract_points_reads_a_column_at_any_scale():
    # the evaluation vectors at (2, 3) and (-0.5, 0.25), exact in binary: one
    # column times 3 - 2i gives the same points, bit for bit
    want = np.array([[2, 3], [-0.5, 0.25]], dtype=complex)
    u = np.vstack([monomial_values(want, JUNK_BASIS.exponents).T, want.T])
    assert extract_points(u, JUNK_BASIS).tobytes() == want.tobytes()
    u[:, 1] *= 3 - 2j
    assert extract_points(u, JUNK_BASIS).tobytes() == want.tobytes()


def test_a_zero_constant_entry_is_refused_without_a_warning():
    u = np.vstack([monomial_values([[2, 3], [1, 1]], JUNK_BASIS.exponents).T,
                   [[2, 1], [3, 1]]]).astype(complex)
    u[0, 1] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extract_points(u, JUNK_BASIS) is None


def test_eigenvalues_simple_flags_collision():
    assert eigenvalues_simple(np.array([1.0, 2.0, 3.0]))
    assert not eigenvalues_simple(np.array([1.0, 1.0 + 1e-12, 3.0]))


def _pairwise_loop_simple(w) -> bool:
    """The pair loop `eigenvalues_simple` replaced, kept as its reference."""
    scale = max(1.0, float(np.max(np.abs(w))))
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if abs(w[i] - w[j]) <= 1e-8 * scale:
                return False
    return True


def test_eigenvalues_simple_at_the_threshold():
    # a gap of exactly 1e-8 * max(1, max |w|) is a collision, one ulp more is not
    at = np.array([0.0, 1e-8, 0.5])
    above = np.array([0.0, np.nextafter(1e-8, 1.0), 0.5])
    scaled = np.array([0.0, 4e-8, 4.0])  # the scale is the largest modulus, 4
    complex_pair = np.array([0.5, 0.5 + 1e-8j, -0.25])
    for w, simple in ((at, False), (above, True), (scaled, False),
                      (np.array([0.0, np.nextafter(4e-8, 1.0), 4.0]), True),
                      (complex_pair, False), (np.array([7.0]), True)):
        assert eigenvalues_simple(w) is simple
        assert _pairwise_loop_simple(w) is simple
    rng = np.random.default_rng(8)
    for _ in range(300):
        r = int(rng.integers(1, 9))
        w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        if r > 1:  # one pair within a few ulps of the threshold
            w[1] = w[0] + 1e-8 * max(1.0, np.max(np.abs(w))) * rng.uniform(0.999, 1.001)
        assert eigenvalues_simple(w) is _pairwise_loop_simple(w)


def test_single_point_support():
    L = dual_from_support([1.0], [(5.0,)], 1, 3)
    b = MonomialBasis(1, [(0,)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    d1 = shifted_matrix(L, b, 0).value_matrix()
    _, v = generalized_eigen(d1, np.linalg.svd(d0))
    ps = extract_points(_columns(v, d0, [d1]), b)
    assert ps[0][0] == pytest.approx(5.0, abs=1e-10)
    wt = solve_weights(ps, L)
    assert wt[0] == pytest.approx(1.0, abs=1e-10)
    assert moment_residual(wt, ps, L) < 1e-12


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


COLLIDING_POINTS = [(2.0, 5.0), (2.0003, 5.0), (-1.0, 1e4)]
COLLIDING_WEIGHTS = [1.0, 2.0, 1e-8]


def _colliding_setup():
    """Two points 3e-4 apart next to one at 1e4, on the basis {1, x1, x2}:
    L, the basis, D_0 (cond about 7.6e9) and D_1, D_2."""
    L = dual_from_support(COLLIDING_WEIGHTS, COLLIDING_POINTS, 2, 4)
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    shifts = [shifted_matrix(L, b, v).value_matrix() for v in range(2)]
    return L, b, d0, shifts


def test_colliding_points_cost_one_pencil(monkeypatch, maximal_cubic):
    # two points 3e-4 apart, next to one at 1e4, are a simple x_1 pencil.
    # Once a pencil is simple its points are those of every other pencil, so
    # no second pencil is drawn; the support gate turns the near pair down.
    # When the x_1 pencil fails, one random pencil is drawn, and no more
    pts, wts = COLLIDING_POINTS, COLLIDING_WEIGHTS
    L, b, d0, shifts = _colliding_setup()
    module = sys.modules["waring.spectral"]
    calls = []

    def counted(d1, svd):
        calls.append(d1)
        return eigen(d1, svd)

    eigen = module.generalized_eigen
    monkeypatch.setattr(module, "generalized_eigen", counted)
    got = pencil_support(d0, shifts, b, np.random.default_rng(0))
    assert len(calls) == 1
    assert got.shape == (3, 2)
    np.testing.assert_allclose(sorted(map(tuple, got.real)), sorted(pts), atol=1e-5)
    assert np.abs(got.imag).max() < 1e-5

    weights = solve_weights(got, L)
    assert moment_residual(weights, got, L) < 1e-8
    g = expand_power_sum([(w, np.array([1.0, *p])) for w, p in zip(wts, pts)], 3, 4)
    terms = [(w, np.concatenate([[1.0], p])) for w, p in zip(weights, got)]
    assert accept(g, terms, math.inf) is None

    # the maximal cubic's size-3 basis: nilpotent operators, so every pencil
    # has eigenvalue 0 three times and fails
    calls.clear()
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1)])
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix()
    shifts = [shifted_matrix(L, b, v).value_matrix() for v in range(2)]
    assert pencil_support(d0, shifts, b, np.random.default_rng(0)) is None
    assert len(calls) == 2


def test_both_pencils_read_one_svd(monkeypatch, maximal_cubic):
    # the maximal cubic's rank-4 extension on {1, x1, x2, x1^2} in the
    # identity frame: both pencils fail, and D_0 is factored once for both
    L = to_dual(identity_frame(maximal_cubic))
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
    ext = extend_dual(L, b, seed=1)
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix(ext.moments)
    shifts = [shifted_matrix(L, b, v).value_matrix(ext.moments) for v in range(2)]
    module = sys.modules["waring.spectral"]
    pencils, svds = [], []

    def counted(d1, svd):
        pencils.append(d1)
        return eigen(d1, svd)

    def counted_svd(a, *args, **kwargs):
        svds.append(a)
        return svd(a, *args, **kwargs)

    eigen, svd = module.generalized_eigen, np.linalg.svd
    monkeypatch.setattr(module, "generalized_eigen", counted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert pencil_support(d0, shifts, b, np.random.default_rng(0)) is None
    assert len(pencils) == 2
    assert len(svds) == 1 and svds[0] is d0


def _matched(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """w reordered so that entry k is the one nearest ref[k], one to one."""
    nearest = np.abs(w[:, None] - ref).argmin(axis=0)
    assert len(set(nearest)) == len(ref)
    return w[nearest]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 6, 8, 12])
def test_svd_pencil_matches_qz(s):
    # pencils (D_0 M, D_0) with M = X diag(lam) X^{-1}, the shape of (D_t, D_0)
    # with simple eigenvalues; Gaussian D_0 and X keep every condition number
    # moderate, so the SVD route and scipy's QZ agree to rounding
    rng = np.random.default_rng(s)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(10):
        d0, x, lam = gaussian(s, s), gaussian(s, s), gaussian(s)
        d1 = d0 @ x @ np.diag(lam) @ np.linalg.inv(x)
        w, v = generalized_eigen(d1, np.linalg.svd(d0))
        ref = scipy.linalg.eig(d1, d0, right=False)
        assert np.all(np.abs(_matched(w, ref) - ref) <= 1e-10 * np.abs(ref))
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0)
        scale = np.abs(d1).max() + np.abs(w).max() * np.abs(d0).max()
        assert np.abs(d1 @ v - (d0 @ v) * w).max() < 1e-12 * scale


def test_svd_pencil_is_as_accurate_as_qz_on_an_ill_conditioned_d0():
    # cond(D_0) = 7.6e9 moves every route's eigenvalues by about
    # cond(D_0) eps: QZ reads the planted x_1 = 2 as 1.9999987, so no two
    # routes can agree to 1e-10 here.  The SVD route stays that close to QZ
    # and no farther than QZ from the planted coordinates
    _, _, d0, shifts = _colliding_setup()
    cond = np.linalg.cond(d0)
    assert 7e9 < cond < 8e9
    truth = np.array([p[0] for p in COLLIDING_POINTS], dtype=complex)
    w = _matched(generalized_eigen(shifts[0], np.linalg.svd(d0))[0], truth)
    ref = _matched(scipy.linalg.eig(shifts[0], d0, right=False), truth)
    assert np.abs(w - ref).max() < cond * 1e-15
    assert np.abs(w - truth).max() <= np.abs(ref - truth).max()


def test_singular_d0_has_no_support_and_raises_no_warning(quintic):
    # D_0 with its last row and column zeroed, as when a basis monomial's
    # moments all vanish, has an exact zero singular value: the SVD route
    # refuses it without a warning, and so both pencils are refused
    L, b, d0, d1, d2 = _quintic_setup(quintic)
    d0 = d0.copy()
    d0[-1], d0[:, -1] = 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generalized_eigen(d1, np.linalg.svd(d0)) is None
        assert pencil_support(d0, [d1, d2], b, np.random.default_rng(0)) is None


class _ReferenceRefusal(RuntimeError):
    """A column that is not an evaluation vector, in `_reference_points`."""


def _reference_eigen(d1, svd):
    """`generalized_eigen` as it was written with sentinel arrays: infinite
    eigenvalues and NaN eigenvectors where D_0 is too near singular."""
    u, sigma, vh = svd
    v = vh.conj().T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        op = (u.conj().T @ d1 @ v) / sigma[:, None]
    if not np.isfinite(op).all():
        return np.full(len(sigma), np.inf + 0j), np.full_like(v, np.nan)
    w, y = np.linalg.eig(op)
    return w, v @ y


def _reference_points(u, basis):
    """`extract_points` as it was written with an exception: the columns come
    scaled by their constant entry, which must be 1 to 1e-6 apart from the
    monomial test; the first failing column raises."""
    s = len(basis)
    pinned = np.abs(u[0] - 1) <= 1e-6
    k = u.shape[1] if pinned.all() else int(np.argmin(pinned))
    points = np.ascontiguousarray(u[s:, :k].T)
    pred = monomial_values(points, basis.exponents)
    got = u[:s, :k].T
    bad = np.argwhere(np.abs(got - pred) > 1e-6 * np.maximum(1.0, np.abs(pred)))
    if len(bad):
        j, p = bad[0]
        raise _ReferenceRefusal(f"coordinate of {basis.exponents[p]} is {got[j, p]:.6g}")
    if k < u.shape[1]:
        raise _ReferenceRefusal("eigenvector has no usable constant coordinate")
    return points


def _reference_pencil_support(d0, shifts, basis, rng):
    """(points or None, number of refusals): `pencil_support`'s two pencils
    read through the sentinel arrays, the caller's own scaling and a caught
    exception."""
    n = len(shifts)
    rows = np.vstack([d0, *(s[:1] for s in shifts)])
    svd = np.linalg.svd(d0)
    refused = 0
    for k in range(2):
        if k == 0:
            dt = shifts[0]
        else:
            t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t /= np.linalg.norm(t)
            dt = sum(ti * s for ti, s in zip(t, shifts))
        w, v = _reference_eigen(dt, svd)
        if not np.all(np.isfinite(w)) or not eigenvalues_simple(w):
            continue
        u = rows @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            u = u / u[0]
        try:
            return _reference_points(u, basis), refused
        except _ReferenceRefusal:
            refused += 1
    return None, refused


# every fixture polynomial of three or more variables, at seed 0, then five
# searches in which some eigenvector is not an evaluation vector, and the
# quartic with terms spread over 1e6, whose search meets none
PENCIL_SEARCHES = [
    *((p.name, 0, False) for p in sorted(FIXTURES.iterdir())
      if not p.name.startswith("binary_") and not p.name.endswith("_decomposition.json")),
    ("x0^2*x1^2*x2^2", 0, True),
    ("x0^2*x1*x2", 0, True),
    ("x0*x1*x2^2", 0, True),
    ("cubic_maximal.txt", 1, True),
    ("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2", 0, False),
    ("(0,1)*x0^4 + x1^4 + x2^4 - 100000000*x0*x1*x2^2", 0, True),
]


@pytest.mark.parametrize("source, seed, refuses", PENCIL_SEARCHES)
def test_pencil_support_matches_the_raising_reference(monkeypatch, source, seed, refuses):
    # on every (D_0, shifts, basis) a search reaches, the points, or None,
    # are the reference's bit for bit, and both draw the same random pencil
    module = sys.modules["waring.decompose"]
    real, calls, refusals = module.pencil_support, [], []

    def compared(d0, shifts, basis, rng):
        ref_rng = copy.deepcopy(rng)
        want, refused = _reference_pencil_support(d0, shifts, basis, ref_rng)
        got = real(d0, shifts, basis, rng)
        calls.append(got is None)
        refusals.append(refused)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return got

    monkeypatch.setattr(module, "pencil_support", compared)
    path = FIXTURES / source
    decompose(parse_input(path.read_text() if path.exists() else source), seed=seed)
    assert not calls or not calls[-1]  # a search that reads a pencil ends on points
    assert (sum(refusals) > 0) is refuses
