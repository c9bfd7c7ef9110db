import functools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from waring.core import (
    grlex_key,
    identity_frame,
    lstsq,
    matrix_rank,
    monomial_values,
    monomials_upto,
    parse_poly,
    to_dual,
)
from waring.decompose import decompose
from waring.extension import CommutatorResidual, ExtensionSolution, extend_dual
from waring.extension import (
    CHOLESKY_FLOOR,
    MAX_ITER,
    RESTARTS,
    TERMS_CACHE,
    TOL,
    _gauss_newton,
    _jacobian_terms,
    _moment_starts,
    _normal_form_relations,
    _normal_step,
    _relation_split,
    _solution,
)
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    shifted_matrix,
)

from conftest import (
    EXACTNESS_CASES,
    ObjectUnknown,
    exactness_case,
    object_hankel,
    planted_4_4_10,
    planted_poly,
    positions,
    principal_minor,
)

QUARTIC_BASIS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
CUBIC_BASIS5 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]

# a consistent filling of the quartic fixture's six missing quintic moments,
# frozen from one solved instance (graded-lex: y1^5, y1^4 y2, ..., y2^5)
QUARTIC_FILL = [1.0, 2.0, 3.0, 1.5060, 4.960, 0.056]


def _quartic_residual(quartic):
    return CommutatorResidual(to_dual(quartic), MonomialBasis(2, QUARTIC_BASIS))


def test_quartic_system_counts(quartic):
    res = _quartic_residual(quartic)
    # one pair of operators, the strict upper triangle of a 6x6 commutator
    assert res.nequations() == 15
    assert res.unknowns.tolist() == positions(2, [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)])


def test_quartic_known_filling_is_a_solution(quartic):
    res = _quartic_residual(quartic)
    x = np.array(QUARTIC_FILL, dtype=complex)
    # the frozen values carry four digits, so the scaled residual is ~1e-6
    assert np.max(np.abs(res.residual(x))) < 1e-5


def _pinned_solve(res, pins, tol=1e-12, max_iter=300):
    """Gauss-Newton on the commutator residual with some unknowns held fixed:
    `pins` maps exponents in two variables to values; the solution maps
    positions."""
    idx = {p: i for i, p in enumerate(res.unknowns.tolist())}
    pi = [idx[p] for p in positions(2, list(pins))]
    others = [i for i in range(len(res.unknowns)) if i not in pi]
    base = np.zeros(len(res.unknowns), dtype=complex)
    base[pi] = list(pins.values())

    def fun(y):
        z = base.copy()
        z[others] = y
        return res.residual(z)

    def jac(y):
        z = base.copy()
        z[others] = y
        return res.jacobian(z)[:, others]

    y, r = _gauss_newton(fun, jac, np.zeros(len(others), dtype=complex), tol, max_iter)
    z = base.copy()
    z[others] = y
    return dict(zip(res.unknowns.tolist(), z)), r


def test_quartic_pinned_solve_recovers_filling(quartic):
    # pin the first three moments at the frozen values; the solver must land
    # on the remaining three
    res = _quartic_residual(quartic)
    got, r = _pinned_solve(res, {(5, 0): 1.0, (4, 1): 2.0, (3, 2): 3.0})
    assert r < 1e-9
    at = dict(zip([(2, 3), (1, 4), (0, 5)], positions(2, [(2, 3), (1, 4), (0, 5)])))
    assert got[at[(2, 3)]] == pytest.approx(1.5060, abs=2e-3)
    assert got[at[(1, 4)]] == pytest.approx(4.960, abs=2e-3)
    assert got[at[(0, 5)]] == pytest.approx(0.056, abs=2e-3)


def test_quartic_extend_dual(quartic):
    L = to_dual(quartic)
    sol = extend_dual(L, MonomialBasis(2, QUARTIC_BASIS), seed=0)
    assert sol is not None
    assert sol.residual < 1e-10
    # filled moments really make the operators commute
    b = MonomialBasis(2, QUARTIC_BASIS)
    d0 = build_hankel(L, b.exponents, b.exponents).value_matrix(sol.moments)
    m = []
    for v in range(2):
        dv = shifted_matrix(L, b, v).value_matrix(sol.moments)
        m.append(dv @ np.linalg.inv(d0))
    comm = m[0] @ m[1] - m[1] @ m[0]
    scale = max(np.linalg.norm(m[0]), np.linalg.norm(m[1]))
    assert np.linalg.norm(comm) < 1e-8 * scale**2


def test_quartic_extension_free_count(quartic):
    # six unknowns, three of them free on the solution set
    L = to_dual(quartic)
    sol = extend_dual(L, MonomialBasis(2, QUARTIC_BASIS), seed=0)
    assert sol.residual < 1e-9
    assert sol.free_count == 3
    solved = np.flatnonzero(~np.isnan(sol.moments[len(L.moments):])) + len(L.moments)
    quintics = [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
    assert set(solved.tolist()) == set(positions(2, quintics))


def test_quartic_extension_keeps_the_first_solution(quartic, monkeypatch):
    # the zero start reaches tol on a solution set of dimension 3, and that
    # point is the answer: one Gauss-Newton run in all
    module = sys.modules["waring.extension"]
    runs = []

    def counted(*args):
        runs.append(args)
        return gauss_newton(*args)

    gauss_newton = module._gauss_newton
    monkeypatch.setattr(module, "_gauss_newton", counted)
    sol = extend_dual(to_dual(quartic), MonomialBasis(2, QUARTIC_BASIS), seed=0)
    assert sol.free_count == 3
    assert len(runs) == 1


def test_extension_gives_up_after_the_probe_starts(monkeypatch):
    # the moments of x0^3 + x1^3 + x2^3 fill D_0's column of y with known
    # zeros, so D_0 is singular at every start and none gets near a root: the
    # solve gives up after its RESTARTS starts
    module = sys.modules["waring.extension"]
    runs = []

    def counted(*args):
        out = gauss_newton(*args)
        runs.append(out[1])
        return out

    gauss_newton = module._gauss_newton
    monkeypatch.setattr(module, "_gauss_newton", counted)
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
    assert extend_dual(to_dual(parse_poly("x0^3 + x1^3 + x2^3")), b, seed=0) is None
    assert len(runs) == 8
    assert min(runs) > 1e-4


def test_free_columns_is_the_nullity(quartic):
    # J = A B with A 30x4 and B 4x9 has rank 4, so 5 of its 9 columns are free
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    b = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    L = to_dual(quartic)
    res = SimpleNamespace(unknowns=len(L.moments) + np.arange(9), jacobian=lambda x: a @ b)
    assert _solution(L, res, np.zeros(9, dtype=complex), 0.0).free_count == 5


def test_cubic_system_counts(maximal_cubic):
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, CUBIC_BASIS5)
    res = CommutatorResidual(L, b)
    assert res.nequations() == 10
    assert set(res.unknowns.tolist()) == set(positions(2, [
        (4, 0), (3, 1), (2, 2), (1, 3), (5, 0), (4, 1), (3, 2), (2, 3)
    ]))
    # some unknowns sit inside D_0, so the equations are rational in them
    assert build_hankel(L, b.exponents, b.exponents).unknowns.size


def test_cubic_pinned_solve_frozen_values(maximal_cubic):
    # pin five moments; the equations force the remaining three to one point,
    # frozen here from a solved instance
    res = CommutatorResidual(to_dual(maximal_cubic), MonomialBasis(2, CUBIC_BASIS5))
    pins = {(1, 3): 3.0, (3, 1): 1.0, (2, 2): 2.0, (4, 1): 4.0, (4, 0): 5.0}
    got, r = _pinned_solve(res, pins)
    assert r < 1e-10
    at = dict(zip([(5, 0), (3, 2), (2, 3)], positions(2, [(5, 0), (3, 2), (2, 3)])))
    assert got[at[(5, 0)]] == pytest.approx(-67.88235, abs=1e-4)
    assert got[at[(3, 2)]] == pytest.approx(3.23529, abs=1e-4)
    assert got[at[(2, 3)]] == pytest.approx(6.11765, abs=1e-4)


def test_cubic_extend_dual(maximal_cubic):
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, CUBIC_BASIS5)
    sol = extend_dual(L, b, seed=0)
    assert sol is not None
    assert sol.residual < 1e-9
    assert sol.free_count == 5


def test_cubic_extension_free_count(maximal_cubic):
    # D_0 holds unknowns; the solution must be no det(D_0) = 0 artifact
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, CUBIC_BASIS5)
    sol = extend_dual(L, b, seed=0)
    assert sol.residual < 1e-8
    s = np.linalg.svd(
        build_hankel(L, b.exponents, b.exponents).value_matrix(sol.moments),
        compute_uv=False,
    )
    assert s[-1] > 1e-10 * s[0]
    assert sol.free_count == 5


def test_quintic_system_is_empty(quintic):
    # rank-4 basis of a quintic: every needed moment is already known
    L = to_dual(quintic)
    b = principal_minor(L, 4)
    res = CommutatorResidual(L, b)
    assert res.unknowns.size == 0
    assert np.max(np.abs(res.residual(np.zeros(0, dtype=complex)))) < 1e-10
    sol = extend_dual(L, b)
    assert sol is not None
    assert len(sol.moments) == len(L.moments)
    assert sol.residual < 1e-10


@pytest.mark.parametrize(
    "form, basis, unread",
    [("quartic", QUARTIC_BASIS, []), ("maximal_cubic", CUBIC_BASIS5, [(0, 4)])],
    ids=["quartic", "maximal_cubic"],
)
def test_extension_table_carries_the_known_moments(request, form, basis, unread):
    # the table is L.moments bit for bit, then one entry per position up to
    # the last unknown: the solved moments, and NaN where no cell reads one
    # (the maximal cubic's bases never reach y2^4)
    L = to_dual(request.getfixturevalue(form))
    b = MonomialBasis(2, basis)
    sol = extend_dual(L, b, seed=0)
    unknowns = CommutatorResidual(L, b).unknowns
    known = len(L.moments)
    assert sol.moments[:known].tobytes() == L.moments.tobytes()
    assert len(sol.moments) == unknowns[-1] + 1
    assert np.flatnonzero(np.isnan(sol.moments)).tolist() == positions(2, unread)
    assert sorted(unknowns.tolist() + positions(2, unread)) == list(range(known, len(sol.moments)))


def test_a_basis_with_no_unknowns_gets_the_known_moments(quintic):
    # the quintic's basis of degree <= 2 and a planted sextic's of degree 2
    # read no moment past the truncation: the table is L.moments itself
    sextic, _ = planted_poly(3, 6, 5, np.random.default_rng(3))
    for f, size in ((quintic, 4), (sextic, 5)):
        L = to_dual(f)
        b = principal_minor(L, size)
        assert CommutatorResidual(L, b).unknowns.size == 0
        assert extend_dual(L, b).moments is L.moments


def test_no_unknowns_path_rejects_a_singular_d0(maximal_cubic):
    # the form has no x0^3 term, so L(1) = 0 and the 1x1 D_0 of the basis {1}
    # is singular; there are no unknowns and no equations to catch it
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, [(0, 0)])
    res = CommutatorResidual(L, b)
    assert res.unknowns.size == 0 and res.nequations() == 0
    with np.errstate(all="ignore"):  # as extend_dual holds it
        assert res._inverse(res.matrices(np.zeros(0, dtype=complex))[0]) is None
    assert extend_dual(L, b) is None


def test_commutator_jacobian_matches_finite_differences(quartic):
    L = to_dual(quartic)
    res = CommutatorResidual(L, MonomialBasis(2, QUARTIC_BASIS))
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    j = res.jacobian(x)
    h = 1e-7
    for k in range(6):
        e = np.zeros(6, dtype=complex)
        e[k] = h
        fd = (res.residual(x + e) - res.residual(x - e)) / (2 * h)
        assert np.allclose(j[:, k], fd, rtol=1e-4, atol=1e-4 * np.abs(fd).max())


def _dense_jacobian(L, basis, unknowns, x):
    """The commutator Jacobian through dense 0/1 occurrence tensors and
    einsums, kept as an independent reference for the rank-1 kernel;
    `unknowns` are the positions x gives values for."""
    index = {p: i for i, p in enumerate(unknowns)}
    s, nu = len(basis), len(unknowns)
    mats, d_mats, known = [], [], 0.0
    quasi = [build_hankel(L, basis.exponents, basis.exponents)]
    quasi += [shifted_matrix(L, basis, v) for v in range(L.nvars)]
    for q in quasi:
        m = np.zeros((s, s), dtype=complex)
        d = np.zeros((s, s, nu))
        for (a, b), p in np.ndenumerate(q.at):
            if p >= q.known:
                m[a, b] = x[index[p]]
                d[a, b, index[p]] = 1.0
            else:
                m[a, b] = q.values[a, b]
                known = max(known, abs(q.values[a, b]))
        mats.append(m)
        d_mats.append(d)
    n_mat = np.linalg.inv(mats[0])
    nd0 = np.einsum("ab,bck,cd->adk", n_mat, d_mats[0], n_mat)
    upper = np.triu_indices(s, k=1)
    blocks = []
    for i in range(1, L.nvars + 1):
        for j in range(i + 1, L.nvars + 1):
            a, b = mats[i], mats[j]
            term = (
                np.einsum("abk,bc->ack", d_mats[i], n_mat @ b)
                + np.einsum("ab,bck->ack", a @ n_mat, d_mats[j])
                - np.einsum("ab,bck,cd->adk", a, nd0, b)
                - np.einsum("abk,bc->ack", d_mats[j], n_mat @ a)
                - np.einsum("ab,bck->ack", b @ n_mat, d_mats[i])
                + np.einsum("ab,bck,cd->adk", b, nd0, a)
            )
            blocks.append(term[upper])
    return np.concatenate(blocks) / (1.0 + known) ** 2


def _planted_4_4_10(degree3: bool):
    """`planted_4_4_10` with its residual and a point near the true moments."""
    L, basis, terms = planted_4_4_10(degree3)
    res = CommutatorResidual(L, basis)
    rng = np.random.default_rng(6)
    exps = monomials_upto(L.nvars, 2 * max(map(sum, basis)) + 1)
    true = np.array([
        sum(w * np.prod(z[1:] ** np.array(exps[p])) for w, z in terms)
        for p in res.unknowns
    ])
    x = true * (1 + 0.1 * rng.standard_normal(len(true)))
    return L, basis, res, x


@pytest.mark.parametrize("degree3", [False, True])
def test_commutator_jacobian_larger_shape_finite_differences(degree3):
    L, basis, res, x = _planted_4_4_10(degree3)
    assert len(res.pairs) == 3
    assert bool(build_hankel(L, basis.exponents, basis.exponents).unknowns.size) == degree3
    j = res.jacobian(x)
    for k in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[k]))
        e = np.zeros(len(x), dtype=complex)
        e[k] = h
        fd = (res.residual(x + e) - res.residual(x - e)) / (2 * h)
        assert np.allclose(j[:, k], fd, rtol=1e-5, atol=1e-6 * np.abs(j).max())


@pytest.mark.parametrize("degree3", [False, True])
def test_commutator_jacobian_matches_dense_reference(degree3):
    L, basis, res, x = _planted_4_4_10(degree3)
    ref = _dense_jacobian(L, basis, res.unknowns, x)
    np.testing.assert_allclose(res.jacobian(x), ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


def _border_spread(L, basis, moments):
    """Largest disagreement among the entries of W^T D_0 W that share an
    exponent, relative to its largest entry, where W = D_0^{-1} H^{B,dB}."""
    rows, border = basis.exponents, basis.border()
    d0 = build_hankel(L, rows, rows).value_matrix(moments)
    w = np.linalg.solve(d0, build_hankel(L, rows, border).value_matrix(moments))
    h = w.T @ d0 @ w
    first, spread = {}, 0.0
    for i, a in enumerate(border):
        for j, c in enumerate(border):
            e = tuple(p + q for p, q in zip(a, c))
            spread = max(spread, abs(h[i, j] - first.setdefault(e, h[i, j])))
    return spread / np.max(np.abs(h))


@pytest.mark.parametrize(
    "form, basis",
    [("quartic", QUARTIC_BASIS), ("maximal_cubic", CUBIC_BASIS5)],
    ids=["quartic", "maximal_cubic"],
)
def test_flat_extension_factors_through_the_basis(request, form, basis):
    # flatness: H^{B,dB} = D_0 W for W = D_0^{-1} H^{B,dB}, and the border block
    # W^T D_0 W it implies is a Hankel matrix again, one value per exponent
    L = to_dual(request.getfixturevalue(form))
    b = MonomialBasis(2, basis)
    sol = extend_dual(L, b, seed=0)
    assert sol is not None
    assert _border_spread(L, b, sol.moments) < 1e-9


def _counted_gauss_newton(fun, jac, x0):
    calls = []

    def counted(x):
        calls.append(1)
        return jac(x)

    x, r = _gauss_newton(fun, counted, np.array(x0, dtype=complex), 1e-10, 200)
    return x, r, len(calls)


def test_gauss_newton_stops_on_a_plateau_without_a_root():
    # x + 1 = 0 forces x = -1, where x^2 + x - 1 = -1: no root, and the
    # max-abs residual creeps down towards 1 while x shrinks towards 0; the
    # other exits let this run take 83 iterations
    _, r, calls = _counted_gauss_newton(
        lambda v: np.array([v[0] + 1, v[0] ** 2 + v[0] - 1]),
        lambda v: np.array([[1], [2 * v[0] + 1]]),
        [1.0],
    )
    assert r > 1
    assert 30 <= calls <= 32


def test_gauss_newton_ends_at_the_first_failed_line_search():
    # a Jacobian of the wrong sign makes every step point uphill: |(1+t) x|
    # never falls below |x|, so the first search fails after 25 halvings.  x
    # and the residual are then unchanged, and a second iteration would
    # repeat the same search (it used to, before a second failure ended it)
    fun_calls = []

    def fun(v):
        fun_calls.append(1)
        return v.copy()

    x, r, calls = _counted_gauss_newton(fun, lambda v: -np.eye(1), [0.5])
    assert (x[0], r) == (0.5, 0.5)
    assert calls == 1
    assert len(fun_calls) == 1 + 25


@pytest.mark.parametrize(
    "fun, jac, x0, want, want_calls",
    [
        # halving from 1e12 for ~40 steps, then quadratic: 44 iterations,
        # each cutting the residual at least fourfold
        (lambda v: np.array([v[0] ** 2 - 2]), lambda v: np.array([[2 * v[0]]]),
         [1e12], [np.sqrt(2)], 44),
        (lambda v: np.array([v[0] ** 2 + v[1] ** 2 - 2, v[0] * v[1] - 1, v[0] - v[1]]),
         lambda v: np.array([[2 * v[0], 2 * v[1]], [v[1], v[0]], [1, -1]]),
         [1e9, 3e9], [1.0, 1.0], 35),
    ],
)
def test_gauss_newton_regular_root_is_not_cut_short(fun, jac, x0, want, want_calls):
    # a run longer than the plateau window still ends at the root, after the
    # same number of Jacobian calls as without the plateau exit
    x, r, calls = _counted_gauss_newton(fun, jac, x0)
    assert r <= 1e-10
    assert calls == want_calls
    np.testing.assert_allclose(x, want, rtol=1e-12)


def test_gauss_newton_ends_on_a_non_finite_jacobian(capfd):
    # a NaN Jacobian gives no step: the run ends where it started, with no
    # LinAlgError from lstsq and no LAPACK message on stderr
    calls = []

    def jac(v):
        calls.append(1)
        return np.full((2, 1), np.nan + 0j)

    x, r = _gauss_newton(lambda v: np.array([v[0], v[0] + 1]), jac,
                         np.array([0.5], dtype=complex), 1e-10, 200)
    assert (x[0], r) == (0.5, 1.5)
    assert len(calls) == 1
    assert capfd.readouterr().err == ""


def test_cholesky_step_matches_lstsq_on_full_column_rank():
    rng = np.random.default_rng(11)
    j = rng.standard_normal((60, 8)) + 1j * rng.standard_normal((60, 8))
    f = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    want, *_ = np.linalg.lstsq(j, -f, rcond=None)
    got = _normal_step(j, f)
    assert got is not None
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _cubic_rank4_start(maximal_cubic):
    # below the maximal cubic's rank 5 its Jacobians have rank 3 of 5 at every
    # point; D_0 is singular at the zero start (the residual is NaN there and
    # no Jacobian is taken), so the runs here start at a random point
    res = CommutatorResidual(to_dual(maximal_cubic), MonomialBasis(2, CUBIC_BASIS5[:4]))
    u = np.random.default_rng(0).uniform(-1, 1, (2, len(res.unknowns)))
    return res, u[0] + 1j * u[1]


def test_rank_deficient_jacobian_takes_the_fallback(maximal_cubic):
    res, x = _cubic_rank4_start(maximal_cubic)
    j = res.jacobian(x)
    assert j.shape[1] - matrix_rank(j) == 2
    with np.errstate(all="ignore"):  # as _gauss_newton holds it
        assert _normal_step(j, res.residual(x)) is None


def test_no_cholesky_after_the_fallback(maximal_cubic, monkeypatch):
    # the first Jacobian refuses the factorization, and the run then keeps to
    # lstsq: one Cholesky step attempted over all its iterations
    module = sys.modules["waring.extension"]
    factorizations = []

    def counted(*args):
        factorizations.append(1)
        return normal_step(*args)

    normal_step = module._normal_step
    monkeypatch.setattr(module, "_normal_step", counted)
    res, x0 = _cubic_rank4_start(maximal_cubic)
    _, _, calls = _counted_gauss_newton(res.residual, res.jacobian, x0)
    assert calls > 10
    assert len(factorizations) == 1


def test_cholesky_floor_is_checked_on_the_condition_estimate():
    # J = diag(1, g) has full column rank and cond(J^H J) = 1/g^2, so the
    # step is refused just below the floor and taken just above it
    f = np.ones(2, dtype=complex)
    g = math.sqrt(CHOLESKY_FLOOR)
    assert _normal_step(np.diag([1, g / 2]).astype(complex), f) is None
    assert _normal_step(np.diag([1, g * 2]).astype(complex), f) is not None


def test_cholesky_refuses_a_singular_jacobian_with_a_unit_diagonal():
    # J upper triangular with 1 on the diagonal and -1 above it is its own
    # Cholesky factor of J^H J: the factor's diagonal has no spread, yet at
    # s = 30 cond(J) is about 6.5e9, beyond the floor's 1e7
    j = (np.eye(30) - np.triu(np.ones((30, 30)), 1)).astype(complex)
    assert np.linalg.cond(j) > 1e9
    assert _normal_step(j, np.ones(30, dtype=complex)) is None


# ---------------------------------------------------------------------------
# exactness of the kernel against the per-call formulation: one SVD and one
# inverse per evaluation, a loop over the pairs of products


def _reference_inverse(d0):
    try:
        n_mat = np.linalg.inv(d0)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(d0) * np.linalg.norm(n_mat) < 1e10:
        return None
    return n_mat


def _reference_residual(res, x):
    mats = res.matrices(x)
    n_mat = _reference_inverse(mats[0])
    if n_mat is None:
        return np.full(res.nequations(), np.nan + 0j)
    out = []
    for i, j in res.pairs:
        c = mats[i] @ n_mat @ mats[j] - mats[j] @ n_mat @ mats[i]
        out.append(c[res.upper])
    return np.concatenate(out) / res.scale


def _reference_jacobian(res, x):
    mats = res.matrices(x)
    n_mat = _reference_inverse(mats[0])
    if n_mat is None:
        return np.full((res.nequations(), len(res.unknowns)), np.nan + 0j)
    shifts = mats[1:]
    an = (shifts @ n_mat).ravel()
    factor = np.concatenate([(n_mat @ shifts).ravel(), an, -an, [0.0, 1.0, -1.0]])
    target, left, right = res._terms
    out = np.zeros(res.nequations() * len(res.unknowns), dtype=complex)
    np.add.at(out, target, factor[left] * factor[right])
    return out.reshape(res.nequations(), -1) / res.scale


def _kernel_case(name, request):
    """A CommutatorResidual and the typical magnitude of its moments."""
    if name == "maximal_cubic_s4":
        L = to_dual(request.getfixturevalue("maximal_cubic"))
        res = CommutatorResidual(L, MonomialBasis(2, CUBIC_BASIS5[:4]))
    elif name == "quartic":
        res = _quartic_residual(request.getfixturevalue("quartic"))
    elif name.startswith("planted_4_4_10"):
        _, _, res, _ = _planted_4_4_10(name.endswith("degree3"))
    else:
        L, (basis,) = exactness_case("planted_5_4_12")
        res = CommutatorResidual(L, basis)
        assert len(res.pairs) == 6
    return res, np.abs(res.const).max()


@pytest.mark.parametrize("name", ["maximal_cubic_s4", "quartic", "planted_4_4_10",
                                  "planted_4_4_10_degree3", "planted_5_4_12"])
def test_kernel_is_bit_identical_to_the_per_call_formulation(name, request):
    res, scale = _kernel_case(name, request)
    rng = np.random.default_rng(20)
    nu = len(res.unknowns)
    for _ in range(20):
        x = scale * (rng.standard_normal(nu) + 1j * rng.standard_normal(nu))
        assert np.array_equal(res.residual(x), _reference_residual(res, x))
        # the Jacobian at the point whose residual was just taken reuses its
        # inverse and products
        assert np.array_equal(res.jacobian(x), _reference_jacobian(res, x))


def test_zero_start_with_singular_d0_gives_nan(maximal_cubic):
    res = CommutatorResidual(to_dual(maximal_cubic), MonomialBasis(2, CUBIC_BASIS5[:4]))
    x = np.zeros(len(res.unknowns), dtype=complex)
    with np.errstate(all="ignore"):  # as _gauss_newton holds it
        assert res._inverse(res.matrices(x)[0]) is None
        assert np.isnan(res.residual(x)).all()
        assert np.isnan(res.jacobian(x)).all()
        assert res.jacobian(x).shape == (res.nequations(), len(res.unknowns))


def _spread_matrix(rng, sv):
    """A random complex matrix with the singular values `sv`."""
    k = len(sv)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return (u * sv) @ v.conj().T


@pytest.mark.parametrize("s_max", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [1e-13, 0.999e-12, 1.001e-12, 1e-11, 1e-9])
def test_inverse_matches_the_svd_rule_near_the_floor(quartic, ratio, s_max):
    # on these spectra |D_0|_F |N|_F is within 0.1% of s_max / s_min, so the
    # Frobenius test agrees with the SVD's relative rule s_min > 1e-10 s_max,
    # whatever the scale: the ratios 1e-11 and below fail, 1e-9 passes
    res = _quartic_residual(quartic)
    rng = np.random.default_rng(7)
    for _ in range(5):
        d0 = _spread_matrix(rng, s_max * np.geomspace(1.0, ratio, 6))
        got = res._inverse(d0)
        assert (got is None) == (ratio <= 1e-10)
        if got is not None:
            assert got.tobytes() == np.linalg.inv(d0).tobytes()


@pytest.mark.parametrize("name", ["cubic_maximal.txt", "walk_4_4_10", "walk_5_4_12", "walk_9_3_9"])
def test_inverse_is_numpys_bit_for_bit(name):
    # numpy's inverse kernel called without its wrapper gives np.linalg.inv's
    # bits, at the zero start and at random points of each basis the rank
    # loop walks
    L, bases = exactness_case(name)
    rng = np.random.default_rng(13)
    for basis in bases[:16]:
        res = CommutatorResidual(L, basis)
        m = len(res.unknowns)
        for x in (np.zeros(m, dtype=complex), rng.standard_normal(m) + 1j * rng.standard_normal(m)):
            d0 = res.matrices(x)[0]
            with np.errstate(all="ignore"):  # as _gauss_newton holds it
                got = res._inverse(d0)
            if got is not None:
                assert got.tobytes() == np.linalg.inv(d0).tobytes()


def test_inverse_is_none_exactly_when_the_condition_product_reaches_1e10(quartic):
    res = _quartic_residual(quartic)
    rng = np.random.default_rng(9)
    verdicts = set()
    for ratio in np.geomspace(1e-9, 1e-11, 41):
        d0 = _spread_matrix(rng, np.geomspace(1.0, ratio, 6))
        # the verdict at scale 1 holds at every scale
        want = _reference_inverse(d0) is None
        verdicts.add(want)
        for c in (1e-6, 1.0, 1e6):
            got = res._inverse(c * d0)
            assert (got is None) == want, (ratio, c)
            if got is not None:
                assert got.tobytes() == np.linalg.inv(c * d0).tobytes()
    assert verdicts == {False, True}
    with np.errstate(all="ignore"):  # as _gauss_newton holds it
        assert res._inverse(np.zeros((6, 6), dtype=complex)) is None
        assert res._inverse(np.full((6, 6), np.nan + 0j)) is None


def test_kernel_reuses_no_stale_point(quartic):
    res = _quartic_residual(quartic)
    rng = np.random.default_rng(8)
    x1, x2 = (rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2))
    res.residual(x1)
    assert np.array_equal(res.jacobian(x2), _reference_jacobian(res, x2))
    x = x1.copy()
    res.residual(x)
    x[2] += 0.5
    assert np.array_equal(res.jacobian(x), _reference_jacobian(res, x))
    assert np.array_equal(res.residual(x), _reference_residual(res, x))


# ---------------------------------------------------------------------------
# the Gauss-Newton iterates against the per-call formulation: an errstate on
# every kernel call, np.linalg.lstsq for the fallback step, the residual's
# tuple scatter and out-of-place arithmetic


@np.errstate(all="ignore")
def _reference_normal_step(j, f):
    return _normal_step(j, f)


class _ReferenceResidual(CommutatorResidual):
    """The residual and the Jacobian as computed per call: `np.asarray` on
    every point, the unknowns scattered by a tuple of index arrays, an
    errstate around every inverse and new arrays for every difference,
    quotient and constant."""

    def matrices(self, x):
        out = self.const.copy()
        out[tuple(self.cells[:3])] = x[self.cells[3]]
        return out

    @staticmethod
    @np.errstate(all="ignore")
    def _inverse(d0):
        return CommutatorResidual._inverse(d0)

    def _point(self, x):
        return super()._point(np.asarray(x, dtype=complex))

    def residual(self, x):
        mats, n_mat, shifts_n = self._point(x)
        if n_mat is None:
            return np.full(self.nequations(), np.nan + 0j)
        products = (shifts_n[:, None] @ mats[None, 1:]).ravel()
        return (products[self._anb] - products[self._bna]) / self.scale

    def jacobian(self, x):
        mats, n_mat, shifts_n = self._point(x)
        if n_mat is None:
            return np.full((self.nequations(), len(self.unknowns)), np.nan + 0j)
        an = shifts_n.ravel()
        factor = np.concatenate([(n_mat @ mats[1:]).ravel(), an, -an, [0.0, 1.0, -1.0]])
        target, left, right = self._terms
        out = np.zeros(self.nequations() * len(self.unknowns), dtype=complex)
        np.add.at(out, target, factor[left] * factor[right])
        return out.reshape(self.nequations(), -1) / self.scale


def _reference_gauss_newton(fun, jac, x0, tol, max_iter):
    """`_gauss_newton` with no errstate of its own and `np.linalg.lstsq`."""
    x = np.asarray(x0, dtype=complex)
    f = fun(x)
    fn = float(abs(f).max()) if f.size else 0.0
    if not math.isfinite(fn):
        return x, np.inf
    history = [fn]
    cholesky = True
    for _ in range(max_iter):
        if fn <= tol:
            break
        j = jac(x)
        step = _reference_normal_step(j, f) if cholesky else None
        if step is None:
            cholesky = False
            if not np.isfinite(j).all():
                break
            step, *_ = np.linalg.lstsq(j, -f, rcond=None)
        if not np.isfinite(step).all():
            break
        t = 1.0
        for _ in range(25):
            xn = x + t * step
            f2 = fun(xn)
            f2n = float(abs(f2).max()) if f2.size else 0.0
            if math.isfinite(f2n) and (f2n < fn * (1 - 1e-4 * t) or f2n <= tol):
                x, f, fn = xn, f2, f2n
                break
            t /= 2
        else:
            break
        if abs(step).max() * t <= 1e-14 * (1 + abs(x).max()):
            break
        history.append(fn)
        if len(history) > 30 and fn > 0.1 * history[-31]:
            break
    return x, fn


def _counted_run(solve, res, x0):
    """(x, residual, residual calls, Jacobian calls) of one run from x0."""
    calls = {"residual": 0, "jacobian": 0}

    def counted(name):
        def evaluate(x):
            calls[name] += 1
            return getattr(res, name)(x)
        return evaluate

    x, r = solve(counted("residual"), counted("jacobian"), x0, TOL, MAX_ITER)
    return x, r, calls["residual"], calls["jacobian"]


def _gauss_newton_case(name, request):
    if name.startswith("maximal_cubic"):
        basis = CUBIC_BASIS5[:3] + [(2, 0) if name.endswith("x1^2") else (1, 1)]
        return to_dual(request.getfixturevalue("maximal_cubic")), MonomialBasis(2, basis)
    if name == "quartic":
        return to_dual(request.getfixturevalue("quartic")), MonomialBasis(2, QUARTIC_BASIS)
    L, (basis,) = exactness_case("planted_5_4_12")
    return L, basis


@pytest.mark.parametrize("name, fallback", [
    ("maximal_cubic_x1^2", True), ("maximal_cubic_x1*x2", True),
    ("quartic", True), ("planted_5_4_12", False)])
def test_gauss_newton_iterates_are_bit_identical_to_the_per_call_formulation(
        name, fallback, request, monkeypatch):
    # every start of extend_dual's loop, zero and on the moment variety: the
    # same end point, residual and number of evaluations.  The maximal
    # cubic's rank-4 bases below its rank 5 reach the least-squares fallback
    # on rank-deficient Jacobians, as does the quartic's basis, whose
    # solution set has three free unknowns; the planted basis keeps to the
    # Cholesky step
    module = sys.modules["waring.extension"]
    lstsq_steps = []

    def counted(j, b):
        lstsq_steps.append(1)
        return least_squares(j, b)

    least_squares = module.lstsq
    monkeypatch.setattr(module, "lstsq", counted)
    L, basis = _gauss_newton_case(name, request)
    unknowns = CommutatorResidual(L, basis).unknowns
    for x0 in [np.zeros(len(unknowns), dtype=complex), *_moment_starts(L, basis, unknowns, 0)]:
        x, r, *counts = _counted_run(_gauss_newton, CommutatorResidual(L, basis), x0)
        want_x, want_r, *want_counts = _counted_run(
            _reference_gauss_newton, _ReferenceResidual(L, basis), x0)
        assert x.tobytes() == want_x.tobytes()
        assert r == want_r
        assert counts == want_counts
    assert bool(lstsq_steps) == fallback


def test_lstsq_step_is_numpys_bit_for_bit(maximal_cubic):
    # (6, 5) Jacobians of rank 3 at random points of the maximal cubic's basis
    # {1, x1, x2, x1^2}, as the fallback meets them, and a tall one of full
    # column rank
    res, _ = _cubic_rank4_start(maximal_cubic)
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(10):
        x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        cases.append((res.jacobian(x), res.residual(x)))
    assert {j.shape for j, _ in cases} == {(6, 5)}
    assert {j.shape[1] - matrix_rank(j) for j, _ in cases} == {2}
    tall = rng.standard_normal((60, 8)) + 1j * rng.standard_normal((60, 8))
    cases.append((tall, rng.standard_normal(60) + 1j * rng.standard_normal(60)))
    for j, f in cases:
        want, *_ = np.linalg.lstsq(j, -f, rcond=None)
        with np.errstate(all="ignore"):  # as _gauss_newton holds it
            got = lstsq(j, -f)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ["inv", "cholesky_lo", "lstsq"])
def test_the_numpy_kernels_the_package_calls_exist(kernel):
    # the package calls these private gufuncs of numpy.linalg directly: a numpy
    # that renames or drops one must fail here, not deep inside a search
    assert isinstance(getattr(_umath_linalg, kernel, None), np.ufunc)


# ---------------------------------------------------------------------------
# exactness of the position-map set-up against the object-dtype cell walk


class _ObjectCellResidual(CommutatorResidual):
    """The set-up as it was over object cells: an isinstance walk gathers the
    unknown cells in (matrix, row, col) order, then the same rank-1 terms."""

    def __init__(self, L, basis):
        mats = [object_hankel(L, basis.exponents, basis.exponents)]
        mats += [
            object_hankel(L, basis.exponents, basis.exponents,
                          tuple(int(i == v) for i in range(L.nvars)))
            for v in range(L.nvars)
        ]
        self.unknowns = sorted(
            {c.exp for m in mats for c in m.flat if isinstance(c, ObjectUnknown)},
            key=grlex_key,
        )
        index = {e: i for i, e in enumerate(self.unknowns)}
        s = len(basis)
        self.const = np.zeros((len(mats), s, s), dtype=complex)
        cells = []
        for m, mat in enumerate(mats):
            for a in range(s):
                for b in range(s):
                    v = mat[a, b]
                    if isinstance(v, ObjectUnknown):
                        cells.append((m, a, b, index[v.exp]))
                    else:
                        self.const[m, a, b] = v
        self.cells = np.array(cells, dtype=np.intp).reshape(-1, 4).T
        self.pairs = [
            (i, j) for i in range(1, L.nvars + 1) for j in range(i + 1, L.nvars + 1)
        ]
        self.upper = np.triu_indices(s, k=1)
        self.scale = (1.0 + np.max(np.abs(self.const))) ** 2
        n, p, q = L.nvars, *self.upper
        idx = np.arange(3 * n * s * s).reshape(3, n, s, s)
        zero, one, minus = idx.size + np.arange(3)
        eye = np.where(np.eye(s, dtype=bool), one, zero)
        neg_eye = np.where(eye == one, minus, zero)
        mat, r, c, k = self.cells
        parts = [np.zeros((3, 0), dtype=np.intp)]
        for t, (i, j) in enumerate(self.pairs):
            (na, an, neg_an), (nb, bn, neg_bn) = idx[:, i - 1], idx[:, j - 1]
            target = (t * len(p) + np.arange(len(p))) * len(self.unknowns)
            for m, u, v in ((i, eye, nb), (j, an, eye), (0, neg_an, nb),
                            (j, neg_eye, na), (i, neg_bn, eye), (0, bn, na)):
                on = mat == m
                part = np.reshape(np.broadcast_arrays(
                    target + k[on, None], u[p, r[on, None]], v[c[on, None], q]),
                    (3, -1))
                parts.append(part[:, (part[1] != zero) & (part[2] != zero)])
        self._terms = np.concatenate(parts, axis=1)


@pytest.mark.parametrize("name", EXACTNESS_CASES)
def test_setup_is_bit_identical_to_the_object_cell_walk(name):
    L, bases = exactness_case(name)
    for basis in bases:
        res, ref = CommutatorResidual(L, basis), _ObjectCellResidual(L, basis)
        assert res.unknowns.tolist() == positions(L.nvars, ref.unknowns)
        assert np.array_equal(res.const, ref.const)
        assert res.cells.dtype == ref.cells.dtype
        assert np.array_equal(res.cells, ref.cells)
        assert res.scale == ref.scale
        # the Jacobian index is built on first use, not by the set-up
        assert "_terms" not in vars(res)
        assert np.array_equal(res._terms, ref._terms)


def test_jacobian_index_is_shared_across_forms(quartic):
    # the index depends on the pattern of unknown cells only: two forms over
    # the same basis share one read-only array, equal to a fresh build
    b = MonomialBasis(2, QUARTIC_BASIS)
    res = CommutatorResidual(to_dual(quartic), b)
    other = CommutatorResidual(to_dual(parse_poly("x0^4 + 2*x1^4 - x2^4 + x0*x1*x2^2")), b)
    assert np.array_equal(res.cells, other.cells)
    assert not np.array_equal(res.const, other.const)
    assert res._terms is other._terms
    assert not res._terms.flags.writeable
    n, s = len(res.const) - 1, res.const.shape[1]
    fresh = _jacobian_terms.__wrapped__(n, s, len(res.unknowns), res.cells.tobytes())
    assert np.array_equal(res._terms, fresh)
    assert _jacobian_terms.cache_info().maxsize == TERMS_CACHE


# ---------------------------------------------------------------------------
# the normal-form start: the relations the known normal forms of the border
# put on the unknowns, solved before Gauss-Newton runs over what they leave


def _reference_start_loop(L, basis, seed=0):
    """`extend_dual`'s starts after the normal-form start, as full-space
    Gauss-Newton runs up to the first that reaches TOL: zero, then
    RESTARTS - 1 weighted sums of evaluations at |B| standard complex
    Gaussian points of the affine chart, each weighted by numpy's
    least-squares fit to L's known moments and read at the unknown
    positions."""
    res = CommutatorResidual(L, basis)
    exps = monomials_upto(L.nvars, 2 * L.degree + 2)  # past every unknown's degree
    at_unknowns = np.array([exps[k] for k in res.unknowns])
    z = np.random.default_rng(seed).standard_normal((RESTARTS - 1, 2, len(basis), L.nvars))
    starts = [np.zeros(len(res.unknowns), dtype=complex)]
    for re_, im in z / math.sqrt(2):
        points = re_ + 1j * im
        a = monomial_values(points, monomials_upto(L.nvars, L.degree)).T
        w = np.linalg.lstsq(a, L.moments, rcond=None)[0]
        starts.append(w @ monomial_values(points, at_unknowns))
    for x0 in starts:
        x, r = _gauss_newton(res.residual, res.jacobian, x0, TOL, MAX_ITER)
        if r <= TOL:
            moments = np.append(L.moments, np.full(res.unknowns[-1] + 1 - len(L.moments), np.nan))
            moments[res.unknowns] = x
            j = res.jacobian(x)
            return ExtensionSolution(moments, float(r), j.shape[1] - matrix_rank(j))
    return None


@functools.cache
def _planted_minor(nvars, degree, rank, seed=None):
    """The dual form of `planted_poly(nvars, degree, rank, rng(seed))`, seed
    the rank unless given, and its principal minor of size `rank`."""
    f, _ = planted_poly(nvars, degree, rank, np.random.default_rng(rank if seed is None else seed))
    L = to_dual(f)
    return L, principal_minor(L, rank)


def _zero_inverse(res):
    """D_0^{-1} at x = 0, or None, as `extend_dual` takes it."""
    with np.errstate(all="ignore"):
        return res._inverse(res.matrices(np.zeros(len(res.unknowns), dtype=complex))[0])


def _solution_bytes(sol):
    return sol.moments.tobytes(), sol.residual, sol.free_count


# (nvars, degree, rank): unknown moments, and how many the relations leave free
RELATION_SHAPES = {(5, 4, 10): (29, 1), (5, 4, 12): (40, 10), (6, 4, 12): (49, 1)}


@pytest.mark.parametrize("shape", RELATION_SHAPES, ids=lambda s: "planted_{}_{}_{}".format(*s))
def test_relations_hold_at_the_full_space_solution(shape):
    # every commuting extension satisfies them, so the point the zero and
    # random starts reach does
    L, basis = _planted_minor(*shape)
    res = CommutatorResidual(L, basis)
    a, b = _normal_form_relations(res, L, basis, _zero_inverse(res))
    x_p, z = _relation_split(a, b)
    assert (len(res.unknowns), z.shape[1]) == RELATION_SHAPES[shape]
    x = _reference_start_loop(L, basis).moments[res.unknowns]
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("shape", RELATION_SHAPES, ids=lambda s: "planted_{}_{}_{}".format(*s))
def test_normal_form_start_finds_the_full_space_solution(shape, monkeypatch):
    # free_count 0: the solution is isolated, so one Gauss-Newton run over
    # the free directions reaches the moments the full-space starts reach
    module = sys.modules["waring.extension"]
    sizes = []

    def counted(fun, jac, x0, tol, max_iter):
        sizes.append(len(x0))
        return gauss_newton(fun, jac, x0, tol, max_iter)

    gauss_newton = module._gauss_newton
    L, basis = _planted_minor(*shape)
    want = _reference_start_loop(L, basis)
    monkeypatch.setattr(module, "_gauss_newton", counted)
    got = extend_dual(L, basis)
    assert sizes == [RELATION_SHAPES[shape][1]]
    assert got.free_count == want.free_count == 0
    unknowns = CommutatorResidual(L, basis).unknowns
    diff = got.moments[unknowns] - want.moments[unknowns]
    assert np.linalg.norm(diff) <= 1e-8 * np.linalg.norm(want.moments[unknowns])
    assert got.moments[:len(L.moments)].tobytes() == L.moments.tobytes()


def test_relations_that_fix_every_unknown_need_no_gauss_newton(monkeypatch):
    # planted (5, 4, 9): the relations have full column rank, so x_p is
    # tested once and is the extension
    module = sys.modules["waring.extension"]
    runs = []
    monkeypatch.setattr(module, "_gauss_newton", lambda *args: runs.append(args))
    L, basis = _planted_minor(5, 4, 9)
    res = CommutatorResidual(L, basis)
    relations = _normal_form_relations(res, L, basis, _zero_inverse(res))
    assert _relation_split(*relations)[1].shape == (20, 0)
    sol = extend_dual(L, basis)
    assert runs == []
    assert sol.residual <= TOL and sol.free_count == 0


def test_relations_take_d0_inverse_from_the_caller(monkeypatch):
    # planted (5, 4, 9): D_0 is fully known and has relations, which read
    # the inverse they are handed; handed None, there are none
    L, basis = _planted_minor(5, 4, 9)
    res = CommutatorResidual(L, basis)
    assert res.at[0].max() < len(L.moments)
    n_mat = _zero_inverse(res)
    inverses = []
    monkeypatch.setattr(CommutatorResidual, "_inverse",
                        staticmethod(lambda d0: inverses.append(d0)))
    assert _normal_form_relations(res, L, basis, None) is None
    a, b = _normal_form_relations(res, L, basis, n_mat)
    assert inverses == []
    monkeypatch.undo()
    x_p, z = _relation_split(a, b)
    assert z.shape == (20, 0)
    assert np.max(np.abs(res.residual(x_p))) <= TOL


@pytest.mark.parametrize("name, planted", [
    ("quartic", None), ("planted_4_4_10", (4, 4, 10)),
    # the minor of the draw at seed 10 does not extend
    ("planted_3_6_10", (3, 6, 10, 11))])
def test_a_basis_without_relations_runs_the_start_loop_bit_for_bit(name, planted, quartic):
    # the quartic's basis and both planted minors have no border monomial of
    # fully known column whose products land on cells, so the normal-form
    # start adds nothing
    if planted is None:
        L, basis = to_dual(quartic), MonomialBasis(2, QUARTIC_BASIS)
    else:
        L, basis = _planted_minor(*planted)
    res = CommutatorResidual(L, basis)
    assert res.unknowns.size
    assert _normal_form_relations(res, L, basis, _zero_inverse(res)) is None
    got = extend_dual(L, basis)
    assert _solution_bytes(got) == _solution_bytes(_reference_start_loop(L, basis))


def test_a_missed_normal_form_start_and_the_zero_start_share_one_d0_test(monkeypatch):
    # planted (5, 4, 13) at rng [3, 13]: on the basis decompose extends, the
    # relations leave 21 of 48 unknowns free, their run misses TOL and the
    # zero start then reaches it.  One test of D_0, at x = 0, comes before
    # the first run: the relations take no inverse of their own
    walked = []

    def recorded(L, basis, seed):
        walked.append((L, basis, seed))
        return extend_dual(L, basis, seed)

    monkeypatch.setattr(sys.modules["waring.decompose"], "extend_dual", recorded)
    f, _ = planted_poly(5, 4, 13, np.random.default_rng([3, 13]))
    rep = decompose(f)
    assert (rep.rank, rep.retries, rep.free_count) == (13, 0, 0)
    assert rep.residual < 1e-8
    monkeypatch.undo()
    (L, basis, seed), = walked
    module = sys.modules["waring.extension"]
    events = []

    def inverse(d0):
        events.append("inverse")
        return invert(d0)

    def counted(fun, jac, x0, tol, max_iter):
        events.append(len(x0))
        x, r = gauss_newton(fun, jac, x0, tol, max_iter)
        runs.append((len(x0), r <= tol))
        return x, r

    invert, gauss_newton = CommutatorResidual._inverse, module._gauss_newton
    runs = []
    monkeypatch.setattr(CommutatorResidual, "_inverse", staticmethod(inverse))
    monkeypatch.setattr(module, "_gauss_newton", counted)
    assert extend_dual(L, basis, seed).residual <= TOL
    assert runs == [(21, False), (48, True)]
    assert events[:2] == ["inverse", 21]


def test_a_failed_normal_form_start_falls_through_to_the_start_loop(monkeypatch):
    # a particular solution moved off the solution set, with nothing left to
    # vary, misses TOL; the zero and random starts then run as without it
    module = sys.modules["waring.extension"]

    def moved(a, b):
        x_p, z = split(a, b)
        return x_p + 1, z

    split = module._relation_split
    monkeypatch.setattr(module, "_relation_split", moved)
    L, basis = _planted_minor(5, 4, 9)
    got = extend_dual(L, basis)
    assert _solution_bytes(got) == _solution_bytes(_reference_start_loop(L, basis))


def test_relation_split_is_the_least_squares_solution_and_null_space():
    rng = np.random.default_rng(12)
    a = (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))) @ (
        rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    b = a @ (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    x_p, z = _relation_split(a, b)
    assert z.shape == (8, 5)
    assert np.allclose(x_p, np.linalg.lstsq(a, b, rcond=None)[0])
    assert np.allclose(a @ z, 0, atol=1e-12 * np.abs(a).max())
    assert np.allclose(z.conj().T @ z, np.eye(5))


# ---------------------------------------------------------------------------
# starts on the moment variety: every random start is the moments of |B|
# weighted points, and on bases whose zero start makes D_0 singular only
# these starts can reach an extension


def _identity_dual(text):
    return to_dual(identity_frame(parse_poly(text)))


# bases whose zero start makes D_0 singular: the maximal cubic's rank-4 bases
# {1, x1, x2, x1^2} and {1, x1, x2, x1 x2}, whose extensions have no simple
# pencil, and its rank-5 basis, which extends; the rank-7 basis of
# x0^2*x1^2*x2; and the sum of cubes, whose D_0 has a known zero column
SINGULAR_ZERO = {
    "cubic_x1sq": ("x0^2*x1 + x0*x2^2", CUBIC_BASIS5[:4]),
    "cubic_x1x2": ("x0^2*x1 + x0*x2^2", CUBIC_BASIS5[:3] + CUBIC_BASIS5[4:]),
    "cubic_rank5": ("x0^2*x1 + x0*x2^2", CUBIC_BASIS5),
    "monomial_221": ("x0^2*x1^2*x2", CUBIC_BASIS5 + [(3, 0), (2, 1)]),
    "sum_of_cubes": ("x0^3 + x1^3 + x2^3", CUBIC_BASIS5[:4]),
}


@pytest.mark.parametrize("name", SINGULAR_ZERO)
@pytest.mark.parametrize("seed", [0, 3])
def test_a_singular_zero_start_runs_the_moment_starts_bit_for_bit(name, seed):
    text, exps = SINGULAR_ZERO[name]
    L, basis = _identity_dual(text), MonomialBasis(2, exps)
    res = CommutatorResidual(L, basis)
    with np.errstate(all="ignore"):
        assert res._inverse(res.matrices(np.zeros(len(res.unknowns)))[0]) is None
    assert _normal_form_relations(res, L, basis, _zero_inverse(res)) is None
    got, want = extend_dual(L, basis, seed=seed), _reference_start_loop(L, basis, seed)
    if name == "sum_of_cubes":
        assert got is want is None
    else:
        assert _solution_bytes(got) == _solution_bytes(want)


@pytest.mark.parametrize("text, bases", [("x0^2*x1 + x0*x2^2", 44), ("x0^2*x1^2*x2", 40)])
def test_every_moment_start_passes_the_d0_test(text, bases, monkeypatch):
    # each basis the search walks at seeds 0-3 past the normal-form start,
    # whether or not its zero start makes D_0 singular: all RESTARTS - 1
    # starts give a D_0 that passes `_inverse`, not only those the search got to
    module = sys.modules["waring.extension"]
    walked = []

    def recorded(L, basis, unknowns, seed):
        walked.append((L, basis, unknowns, seed))
        return moment_starts(L, basis, unknowns, seed)

    moment_starts = module._moment_starts
    monkeypatch.setattr(module, "_moment_starts", recorded)
    for seed in range(4):
        decompose(parse_poly(text), seed=seed)
    assert len(walked) == bases
    for L, basis, unknowns, seed in walked:
        res = CommutatorResidual(L, basis)
        starts = list(moment_starts(L, basis, unknowns, seed))
        assert len(starts) == RESTARTS - 1
        with np.errstate(all="ignore"):
            assert all(res._inverse(res.matrices(x0)[0]) is not None for x0 in starts)



def test_a_passing_zero_start_draws_its_random_starts_on_the_moment_variety(monkeypatch):
    # the quartic with terms spread over 1e6, at seed 0: D_0 passes its test
    # at x = 0 on the basis behind the report, and the extension there comes
    # from a start drawn on the moment variety, not from the zero start
    ext_module, dec_module = sys.modules["waring.extension"], sys.modules["waring.decompose"]
    attempts = []

    def counted(*args):
        for x0 in moment_starts(*args):
            attempts[-1][1] += 1
            yield x0

    def recorded(L, basis, seed):
        attempts.append([(L, basis), 0])
        return extend(L, basis, seed)

    moment_starts, extend = ext_module._moment_starts, dec_module.extend_dual
    monkeypatch.setattr(ext_module, "_moment_starts", counted)
    monkeypatch.setattr(dec_module, "extend_dual", recorded)
    rep = decompose(parse_poly("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2"), seed=0)
    (L, basis), draws = attempts[-1]
    assert basis.exponents == [tuple(e) for e in rep.basis]
    assert _zero_inverse(CommutatorResidual(L, basis)) is not None
    assert draws > 0
