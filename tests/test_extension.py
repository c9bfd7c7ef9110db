import math
import sys

import numpy as np
import pytest

from waring.core import grlex_key, parse_poly, to_dual
from waring.extension import CommutatorResidual, extend_dual
from waring.extension import (
    CHOLESKY_FLOOR,
    TERMS_CACHE,
    _free_columns,
    _gauss_newton,
    _jacobian_terms,
    _normal_step,
)
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    shifted_matrix,
)

from conftest import (
    EXACTNESS_CASES,
    ObjectUnknown,
    exactness_case,
    object_hankel,
    planted_4_4_10,
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
    assert res.unknowns == [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]


def test_quartic_known_filling_is_a_solution(quartic):
    res = _quartic_residual(quartic)
    x = np.array(QUARTIC_FILL, dtype=complex)
    # the frozen values carry four digits, so the scaled residual is ~1e-6
    assert np.max(np.abs(res.residual(x))) < 1e-5


def _pinned_solve(res, pins, tol=1e-12, max_iter=300):
    """Gauss-Newton on the commutator residual with some unknowns held fixed."""
    idx = {e: i for i, e in enumerate(res.unknowns)}
    pi = [idx[e] for e in pins]
    others = [i for i in range(len(res.unknowns)) if i not in pi]
    base = np.zeros(len(res.unknowns), dtype=complex)
    for e, v in pins.items():
        base[idx[e]] = v

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
    return dict(zip(res.unknowns, z)), r


def test_quartic_pinned_solve_recovers_filling(quartic):
    # pin the first three moments at the frozen values; the solver must land
    # on the remaining three
    res = _quartic_residual(quartic)
    got, r = _pinned_solve(res, {(5, 0): 1.0, (4, 1): 2.0, (3, 2): 3.0})
    assert r < 1e-9
    assert got[(2, 3)] == pytest.approx(1.5060, abs=2e-3)
    assert got[(1, 4)] == pytest.approx(4.960, abs=2e-3)
    assert got[(0, 5)] == pytest.approx(0.056, abs=2e-3)


def test_quartic_extend_dual(quartic):
    L = to_dual(quartic)
    sol = extend_dual(L, MonomialBasis(2, QUARTIC_BASIS), seed=0)
    assert sol is not None
    assert sol.residual < 1e-10
    # filled moments really make the operators commute
    ext = L.with_extension(sol.assignment)
    b = MonomialBasis(2, QUARTIC_BASIS)
    d0 = np.asarray(
        [[complex(ext.entry(tuple(a + c for a, c in zip(p, q))))
          for q in b.exponents] for p in b.exponents]
    )
    m = []
    for v in range(2):
        dv = shifted_matrix(ext, b, v).value_matrix({})
        m.append(dv @ np.linalg.inv(d0))
    comm = m[0] @ m[1] - m[1] @ m[0]
    scale = max(np.linalg.norm(m[0]), np.linalg.norm(m[1]))
    assert np.linalg.norm(comm) < 1e-8 * scale**2


def test_quartic_extension_free_count(quartic):
    # six unknowns, three of them free on the solution set
    sol = extend_dual(to_dual(quartic), MonomialBasis(2, QUARTIC_BASIS), seed=0)
    assert sol.residual < 1e-9
    assert sol.free_count == 3
    assert set(sol.assignment) == {(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)}


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
    # solve stops after the PROBES starts instead of trying all RESTARTS
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


def test_free_columns_is_the_nullity():
    # J = A B with A 30x4 and B 4x9 has rank 4, so 5 of its 9 columns are free
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    b = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    assert _free_columns(a @ b) == 5


def test_cubic_system_counts(maximal_cubic):
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, CUBIC_BASIS5)
    res = CommutatorResidual(L, b)
    assert res.nequations() == 10
    assert set(res.unknowns) == {
        (4, 0), (3, 1), (2, 2), (1, 3), (5, 0), (4, 1), (3, 2), (2, 3)
    }
    # some unknowns sit inside D_0, so the equations are rational in them
    assert build_hankel(L, b.exponents, b.exponents).unknowns


def test_cubic_pinned_solve_frozen_values(maximal_cubic):
    # pin five moments; the equations force the remaining three to one point,
    # frozen here from a solved instance
    res = CommutatorResidual(to_dual(maximal_cubic), MonomialBasis(2, CUBIC_BASIS5))
    pins = {(1, 3): 3.0, (3, 1): 1.0, (2, 2): 2.0, (4, 1): 4.0, (4, 0): 5.0}
    got, r = _pinned_solve(res, pins)
    assert r < 1e-10
    assert got[(5, 0)] == pytest.approx(-67.88235, abs=1e-4)
    assert got[(3, 2)] == pytest.approx(3.23529, abs=1e-4)
    assert got[(2, 3)] == pytest.approx(6.11765, abs=1e-4)


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
        build_hankel(L, b.exponents, b.exponents).value_matrix(sol.assignment),
        compute_uv=False,
    )
    assert s[-1] > 1e-10 * s[0]
    assert sol.free_count == 5


def test_quintic_system_is_empty(quintic):
    # rank-4 basis of a quintic: every needed moment is already known
    L = to_dual(quintic)
    b = full_rank_principal_minor(L, size=4)
    res = CommutatorResidual(L, b)
    assert res.unknowns == []
    assert np.max(np.abs(res.residual(np.zeros(0, dtype=complex)))) < 1e-10
    sol = extend_dual(L, b)
    assert sol is not None
    assert sol.assignment == {}
    assert sol.residual < 1e-10


def test_no_unknowns_path_rejects_a_singular_d0(maximal_cubic):
    # the form has no x0^3 term, so L(1) = 0 and the 1x1 D_0 of the basis {1}
    # is singular; there are no unknowns and no equations to catch it
    L = to_dual(maximal_cubic)
    b = MonomialBasis(2, [(0, 0)])
    res = CommutatorResidual(L, b)
    assert res.unknowns == [] and res.nequations() == 0
    assert not res.d0_healthy(np.zeros(0, dtype=complex))
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
    einsums, kept as an independent reference for the rank-1 kernel."""
    index = {e: i for i, e in enumerate(unknowns)}
    s, nu = len(basis), len(unknowns)
    mats, d_mats, known = [], [], 0.0
    quasi = [build_hankel(L, basis.exponents, basis.exponents)]
    quasi += [shifted_matrix(L, basis, v) for v in range(L.nvars)]
    for q in quasi:
        m = np.zeros((s, s), dtype=complex)
        d = np.zeros((s, s, nu))
        for (a, b), k in np.ndenumerate(q.slot):
            if k >= 0:
                m[a, b] = x[index[q.unknowns[k]]]
                d[a, b, index[q.unknowns[k]]] = 1.0
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
    true = np.array([
        sum(w * np.prod(z[1:] ** np.array(e)) for w, z in terms)
        for e in res.unknowns
    ])
    x = true * (1 + 0.1 * rng.standard_normal(len(true)))
    return L, basis, res, x


@pytest.mark.parametrize("degree3", [False, True])
def test_commutator_jacobian_larger_shape_finite_differences(degree3):
    L, basis, res, x = _planted_4_4_10(degree3)
    assert len(res.pairs) == 3
    assert bool(build_hankel(L, basis.exponents, basis.exponents).unknowns) == degree3
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


def _border_spread(L, basis, assignment):
    """Largest disagreement among the entries of W^T D_0 W that share an
    exponent, relative to its largest entry, where W = D_0^{-1} H^{B,dB}."""
    ext = L.with_extension(assignment)
    rows, border = basis.exponents, basis.border()
    d0 = build_hankel(ext, rows, rows).value_matrix({})
    w = np.linalg.solve(d0, build_hankel(ext, rows, border).value_matrix({}))
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
    assert _border_spread(L, b, sol.assignment) < 1e-9


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
    assert _free_columns(j) == 2
    assert _normal_step(j, res.residual(x)) is None


def test_no_cholesky_after_the_fallback(maximal_cubic, monkeypatch):
    # the first Jacobian refuses the factorization, and the run then keeps to
    # lstsq: one zposv call over all its iterations
    module = sys.modules["waring.extension"]
    factorizations = []

    def counted(*args):
        factorizations.append(1)
        return zposv(*args)

    zposv = module.zposv
    monkeypatch.setattr(module, "zposv", counted)
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
    s = np.linalg.svd(d0, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        return None
    return np.linalg.inv(d0)


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
    assert res._inverse(res.matrices(x)[0]) is None
    assert np.isnan(res.residual(x)).all()
    assert np.isnan(res.jacobian(x)).all()
    assert res.jacobian(x).shape == (res.nequations(), len(res.unknowns))


@pytest.mark.parametrize("s_max", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [1e-13, 0.999e-12, 1.001e-12, 1e-11, 1e-9])
def test_inverse_matches_the_svd_rule_near_the_floor(quartic, ratio, s_max):
    res = _quartic_residual(quartic)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        sv = s_max * np.geomspace(1.0, ratio, 6)
        d0 = (u * sv) @ v.conj().T
        got, want = res._inverse(d0), _reference_inverse(d0)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


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
# exactness of the slot-map set-up against the object-dtype cell walk


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
        assert res.unknowns == ref.unknowns
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
