import math

import numpy as np
import pytest

from waring.core import (
    DualForm,
    HomogeneousPoly,
    LinearChange,
    change_coordinates,
    monomials_upto,
    parse_poly,
    power_of_linear_form,
    to_dual,
)
from waring.hankel import (
    KOSZUL_MAX_ENTRIES,
    MonomialBasis,
    build_hankel,
    _koszul_layout,
    _moment_vector,
    full_rank_principal_minor,
    kernel_generators,
    known_rank_bound,
    koszul_flattening,
    koszul_rank_bound,
    koszul_shapes,
    shifted_matrix,
)

from conftest import (
    EXACTNESS_CASES,
    exactness_case,
    object_hankel,
    object_unknowns,
    object_value_matrix,
    planted_poly,
)

# H^{B,B} and its y1-shift for the quintic fixture on B = {1, y1, y2, y1^2}
D0 = np.array(
    [
        [38, -24, 36, 1272],
        [-24, 1272, -288, -3456],
        [36, -288, 822, -7416],
        [1272, -3456, -7416, 166368],
    ],
    dtype=float,
)
D1 = np.array(
    [
        [-24, 1272, -288, -3456],
        [1272, -3456, -7416, 166368],
        [-288, -7416, 5544, -41472],
        [-3456, 166368, -41472, -497664],
    ],
    dtype=float,
)

BASIS4 = [(0, 0), (1, 0), (0, 1), (2, 0)]


def test_basis_requires_constant():
    with pytest.raises(ValueError):
        MonomialBasis(2, [(1, 0), (0, 1)])


def test_basis_requires_connected():
    # y1^2 without y1 is not closed under division
    with pytest.raises(ValueError):
        MonomialBasis(2, [(0, 0), (2, 0)])


def test_basis_orders_graded_lex():
    b = MonomialBasis(2, [(0, 1), (0, 0), (1, 0)])
    assert b.exponents == [(0, 0), (1, 0), (0, 1)]
    assert b.index[(0, 1)] == 2


def test_basis_shift_and_border():
    b = MonomialBasis(2, BASIS4)
    assert b.shifted(0) == [(1, 0), (2, 0), (1, 1), (3, 0)]
    assert set(b.border()) == {(1, 1), (0, 2), (2, 1), (3, 0)}


def test_quintic_hankel_blocks(quintic):
    L = to_dual(quintic)
    b = MonomialBasis(2, BASIS4)
    h0 = build_hankel(L, b.exponents, b.exponents)
    assert h0.unknowns == []
    assert np.allclose(h0.value_matrix(), D0)
    h1 = shifted_matrix(L, b, 0)
    assert np.allclose(h1.value_matrix(), D1)


def test_unknowns_past_truncation(quintic):
    L = to_dual(quintic)
    pool = monomials_upto(2, 3)
    h = build_hankel(L, pool, pool)
    missing = set(h.unknowns)
    assert missing == {(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)}
    filled = h.value_matrix({e: 0.0 for e in missing})
    assert filled.shape == (10, 10)


def test_known_rank_bound_quintic(quintic):
    assert known_rank_bound(to_dual(quintic), TOL) == 4


def test_known_rank_bound_quartic(quartic):
    assert known_rank_bound(to_dual(quartic), TOL) == 6


def test_known_rank_bound_detects_planted_rank():
    rng = np.random.default_rng(23)
    for _ in range(10):
        nv = int(rng.integers(3, 5))
        d = int(rng.integers(3, 6))
        r = int(rng.integers(1, min(4, d) + 1))
        f, _ = planted_poly(nv, d, r, rng)
        assert known_rank_bound(to_dual(f), TOL) == r


def test_principal_minor_quintic(quintic):
    L = to_dual(quintic)
    b = full_rank_principal_minor(L, size=4)
    assert b is not None
    assert b.exponents == BASIS4


def test_principal_minor_quartic(quartic):
    L = to_dual(quartic)
    b = full_rank_principal_minor(L)
    assert b is not None
    assert len(b) == 6
    assert set(b.exponents) == set(monomials_upto(2, 2))


def test_principal_minor_size_too_large(quintic):
    L = to_dual(quintic)
    assert full_rank_principal_minor(L, size=9) is None


def test_kernel_generators_annihilate():
    # planted support; every returned border relation must kill the moments
    rng = np.random.default_rng(31)
    for trial in range(8):
        nv, d, r = 3, 5, int(rng.integers(2, 5))
        f, terms = planted_poly(nv, d, r, rng)
        L = to_dual(f)
        b = full_rank_principal_minor(L, size=r)
        assert b is not None
        gens = kernel_generators(L, b)
        assert gens
        for g in gens:
            # check against shifted moments: L(m * g) = 0 for basis shifts m
            for m in b.exponents:
                val = 0.0
                scale = 0.0
                ok = True
                for e, c in g.items():
                    s = tuple(a + x for a, x in zip(e, m))
                    me = L.entry(s)
                    if me is None:
                        ok = False
                        break
                    val += c * me
                    scale = max(scale, abs(c * me))
                if ok and scale > 0:
                    assert abs(val) < 1e-8 * scale
            # and directly on the planted support: g(zeta_j) = 0
            for _, k in terms:
                z = np.asarray(k)[1:] / k[0]
                gv = sum(
                    c * np.prod(z ** np.array(e)) for e, c in g.items()
                )
                gs = max(abs(c) for c in g.values())
                assert abs(gv) < 1e-6 * gs * max(1.0, np.max(np.abs(z)) ** d)


# ---------------------------------------------------------------------------
# exactness of the numeric slot map against the object-dtype cells


def _matrix_pairs(L, basis):
    """(numeric, object reference) for every matrix shape the package builds."""
    rows = basis.exponents
    yield build_hankel(L, rows, rows), object_hankel(L, rows, rows)
    for v in range(L.nvars):
        shift = tuple(int(i == v) for i in range(L.nvars))
        yield shifted_matrix(L, basis, v), object_hankel(L, rows, rows, shift)
    border = basis.border()
    yield build_hankel(L, rows, border), object_hankel(L, rows, border)
    yield build_hankel(L, rows, []), object_hankel(L, rows, [])


@pytest.mark.parametrize("name", EXACTNESS_CASES)
def test_slot_map_is_exact_against_object_cells(name):
    L, bases = exactness_case(name)
    rng = np.random.default_rng(11)
    for basis in bases:
        for h, ref in _matrix_pairs(L, basis):
            assert h.shape == ref.shape
            assert h.unknowns == object_unknowns(ref)
            assert h.slot.dtype == np.intp
            assert np.all(h.values[h.slot >= 0] == 0)
            for _ in range(3):
                z = rng.standard_normal(len(h.unknowns)) + 1j * rng.standard_normal(
                    len(h.unknowns)
                )
                assignment = dict(zip(h.unknowns, z.tolist()))
                assert np.array_equal(
                    h.value_matrix(assignment), object_value_matrix(ref, assignment)
                )
            if not h.unknowns:
                assert np.array_equal(h.value_matrix(), object_value_matrix(ref, {}))


def test_value_matrix_needs_every_unknown(quintic):
    L = to_dual(quintic)
    pool = monomials_upto(2, 3)
    h = build_hankel(L, pool, pool)
    partial = {e: 1.0 for e in h.unknowns[1:]}
    with pytest.raises(KeyError):
        h.value_matrix(partial)
    with pytest.raises(KeyError):
        object_value_matrix(object_hankel(L, pool, pool), partial)
    with pytest.raises(KeyError):
        h.value_matrix()


# ---------------------------------------------------------------------------
# Koszul flattening bound


TOL = 1e-7  # the rank loop's default relative residual target


def _numerical_rank(m, tol=1e-8):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_koszul_flattening_of_a_power_has_rank_binom(nvars):
    # l^d gives K_{delta,p} = (l^beta) (x) (l^alpha) (x) (l ^ .), of rank
    # C(N-1, p); a wrong sign or index in the layout raises the rank
    rng = np.random.default_rng(nvars)
    tried = 0
    for d in range(2, 7):
        k = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        L = to_dual(power_of_linear_form(k, d))
        m = _moment_vector(L)
        for delta, p in koszul_shapes(L.nvars, d):
            assert _numerical_rank(koszul_flattening(L, delta, p, m)) == math.comb(nvars - 1, p)
            tried += 1
    assert tried >= 8


def _form_of_moments(nvars, degree, moments):
    """The form in nvars + 1 variables whose `to_dual` moments are `moments`."""
    coeffs = {}
    for e, v in zip(monomials_upto(nvars, degree), moments):
        full = (degree - sum(e), *e)
        coeffs[full] = v * math.factorial(degree) / math.prod(math.factorial(a) for a in full)
    return HomogeneousPoly(nvars + 1, degree, coeffs)


def test_koszul_gain_bounds_the_flattening_of_any_form():
    # ||K(e)||_2 <= gain * ||e|| for every form e, with equality in the
    # Frobenius norm for the monomial that sets the gain
    rng = np.random.default_rng(5)
    for nv, d in [(2, 3), (2, 6), (3, 4), (4, 3)]:
        exps = monomials_upto(nv, d)
        for delta, p in koszul_shapes(nv, d):
            gain = _koszul_layout(nv, d, delta, p)[-1]
            for _ in range(5):
                m = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
                e = _form_of_moments(nv, d, m)
                k = koszul_flattening(DualForm(nv, d, {}), delta, p, m)
                assert np.linalg.norm(k, 2) <= gain * e.coeff_norm() * (1 + 1e-12)
            peaks = []
            for i in range(len(exps)):
                m = np.zeros(len(exps), dtype=complex)
                m[i] = 1.0
                k = koszul_flattening(DualForm(nv, d, {}), delta, p, m)
                peaks.append(np.linalg.norm(k) / _form_of_moments(nv, d, m).coeff_norm())
            assert max(peaks) == pytest.approx(gain, rel=1e-12)


def test_koszul_shapes_respect_the_cap():
    for nv, d in [(2, 5), (3, 3), (3, 5), (4, 3), (4, 4), (5, 6)]:
        shapes = koszul_shapes(nv, d)
        assert all(1 <= p <= max(1, nv - 1) for _, p in shapes)
        zero = np.zeros(len(monomials_upto(nv, d)), dtype=complex)
        for delta, p in shapes:
            k = koszul_flattening(DualForm(nv, d, {}), delta, p, zero)
            assert k.size <= KOSZUL_MAX_ENTRIES
            # one shape of each transposed pair
            partner = (d - 1 - delta, nv - p)
            assert partner == (delta, p) or partner not in shapes
    assert koszul_shapes(5, 6) == []  # N = 6, d = 6: every flattening is too big


def test_a_dropped_koszul_shape_has_the_singular_values_of_its_partner():
    # K_{d-1-delta, N-1-p} is K_{delta,p} transposed up to signs
    rng = np.random.default_rng(6)
    for nv, d in [(2, 4), (2, 5), (3, 3), (3, 4)]:
        m = rng.standard_normal(len(monomials_upto(nv, d))) + 0j
        L = DualForm(nv, d, {})
        for delta, p in koszul_shapes(nv, d):
            partner = (d - 1 - delta, nv - p)
            s = np.linalg.svd(koszul_flattening(L, delta, p, m), compute_uv=False)
            t = np.linalg.svd(koszul_flattening(L, *partner, m), compute_uv=False)
            assert np.allclose(s, t, rtol=1e-12, atol=1e-12 * s[0])


# (nvars, degree, rank) -> (catalecticant bound, Koszul bound, p); the true
# rank is one above the catalecticant bound on each
KOSZUL_TABLE = [
    ((3, 3, 4), 3, 4, 1),
    ((3, 5, 7), 6, 7, 1),
    ((4, 3, 5), 4, 5, 1),
    ((3, 7, 11), 10, 11, 1),
    ((4, 5, 11), 10, 11, 1),
    ((5, 3, 6), 5, 6, 1),
    ((5, 3, 7), 5, 7, 2),
]


@pytest.mark.parametrize("shape, cat, bound, p", KOSZUL_TABLE, ids=str)
def test_koszul_bound_reaches_the_planted_rank(shape, cat, bound, p):
    n, d, r = shape
    for seed in range(3):
        f, _ = planted_poly(n, d, r, np.random.default_rng([seed, *shape]))
        L = to_dual(f)
        got, where = koszul_rank_bound(L, TOL)
        assert (known_rank_bound(L, TOL), got, where[1]) == (cat, bound, p)


@pytest.mark.parametrize(
    "text, bound",
    [
        ("x0*x1*x2", 4),
        ("x0*x1*x2*x3", 7),
        ("150*x0^2*x2 + x1^2*x2 + x2^3 - 12*x0^3", 4),  # generic cubic, rank 4
        (None, 3),  # the maximal cubic, rank 5: flattenings see border rank 3
        ("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2", 4),
        ("(0,1)*x0^4 + x1^4 + x2^4 - 100000000*x0*x1*x2^2", 4),
    ],
)
def test_koszul_bound_on_structured_forms(text, bound, maximal_cubic):
    f = maximal_cubic if text is None else parse_poly(text)
    assert koszul_rank_bound(to_dual(f), TOL)[0] == bound


# monomials x^a with a_0 = min a_i have rank prod_{i>=1}(a_i + 1)
# (Carlini-Catalisano-Geramita 2012); the two quartics have rank <= 6
KNOWN_RANKS = [
    ("x0*x1*x2", 4),
    ("x0^2*x1*x2", 6),
    ("x0*x1*x2^2", 6),
    ("x0^2*x1^2*x2", 9),
    ("x0^2*x1^2*x2^2", 9),
    ("x0*x1*x2*x3", 8),
    ("x0^3*x1^3*x2^3", 16),
    ("x0^2*x1^2*x2^2*x3^2", 27),
    ("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2", 6),
    ("(0,1)*x0^4 + x1^4 + x2^4 - 100000000*x0*x1*x2^2", 6),
]
# shapes of the planted sweep: (nvars, degree, rank), 15 forms each
SWEEP_SHAPES = [
    (3, 3, 2), (3, 3, 4), (3, 4, 3), (3, 4, 5), (3, 4, 6), (3, 5, 5), (3, 5, 7),
    (3, 6, 9), (3, 7, 11), (3, 8, 14), (4, 3, 3), (4, 3, 5), (4, 4, 7), (4, 4, 9),
    (4, 5, 11), (4, 5, 12), (5, 3, 5), (5, 3, 7), (5, 4, 10), (5, 4, 12),
]


def test_koszul_bound_never_exceeds_a_known_rank():
    for text, r in KNOWN_RANKS:
        assert koszul_rank_bound(to_dual(parse_poly(text)), TOL)[0] <= r, text
    count = 0
    for i, (n, d, r) in enumerate(SWEEP_SHAPES):
        for seed in range(15):
            f, _ = planted_poly(n, d, r, np.random.default_rng([77, i, seed]))
            assert koszul_rank_bound(to_dual(f), TOL)[0] <= r, (n, d, r, seed)
            count += 1
    assert count >= 300


def _random_change(n, rng, max_cond=1e3):
    """A random complex Gaussian change of coordinates, condition number <= max_cond."""
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(a) <= max_cond:
            return LinearChange(a)


def _forms_with_known_bounds(rng, maximal_cubic):
    forms = [maximal_cubic, parse_poly("x0*x1*x2"), parse_poly("x0*x1*x2*x3")]
    return forms + [planted_poly(*shape, rng)[0] for shape, *_ in KOSZUL_TABLE]


def test_koszul_bound_is_invariant_under_changes_of_coordinates(maximal_cubic):
    # the flattening ranks are; the noise a tol allows is measured in the
    # coefficient norm, which is not, so the exact count (a negligible tol,
    # the RANK_CUT alone) is compared here, and at tol 1e-7 the bound may
    # only fall, as in ill-conditioned coordinates below
    rng = np.random.default_rng(31)
    for f in _forms_with_known_bounds(rng, maximal_cubic):
        want = koszul_rank_bound(to_dual(f), 1e-15)[0]
        assert koszul_rank_bound(to_dual(f), TOL)[0] == want
        for _ in range(4):
            g = change_coordinates(f, _random_change(f.nvars, rng))
            assert koszul_rank_bound(to_dual(g), 1e-15)[0] == want
            assert koszul_rank_bound(to_dual(g), TOL)[0] <= want


def test_koszul_bound_never_rises_in_ill_conditioned_coordinates(maximal_cubic):
    # singular values 1 ... 1e3 spread the terms' sizes by up to 1e3^d, which
    # pushes genuine singular values under the cut: the bound may fall (the
    # start rank is lower, the search longer), never rise
    rng = np.random.default_rng(32)

    def unitary(n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(g)[0]

    for f in _forms_with_known_bounds(rng, maximal_cubic):
        n, want = f.nvars, koszul_rank_bound(to_dual(f), TOL)[0]
        for _ in range(3):
            a = unitary(n) @ np.diag(np.geomspace(1.0, 1e3, n)) @ unitary(n)
            g = change_coordinates(f, LinearChange(a))
            assert koszul_rank_bound(to_dual(g), TOL)[0] <= want
