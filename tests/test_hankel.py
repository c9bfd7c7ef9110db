import math
import sys
from itertools import combinations

import numpy as np
import pytest

from waring.core import (
    DualForm,
    HomogeneousPoly,
    _binomials,
    _monomials_upto,
    change_coordinates,
    monomial_index,
    monomials_upto,
    multinomials,
    numerical_rank,
    parse_poly,
    to_dual,
)
from waring.decompose import _basis_candidates
from waring.hankel import (
    IDEALS_PER_RANK,
    KOSZUL_MAX_ENTRIES,
    MonomialBasis,
    build_hankel,
    _catalecticant_layout,
    _koszul_layout,
    full_rank_principal_minor,
    known_columns_test,
    known_rank_bound,
    koszul_flattening,
    koszul_rank_bound,
    koszul_shapes,
    order_ideals,
    shifted_matrix,
)

from conftest import (
    EXACTNESS_CASES,
    FIXTURES,
    WALK_SHAPES,
    dict_hankel,
    exactness_case,
    identity_frame_of,
    kernel_generators,
    load_json_poly,
    load_text_poly,
    object_hankel,
    object_unknowns,
    object_value_matrix,
    moment,
    positions,
    planted_poly,
    power_of_linear_form,
    principal_minor,
    rank_walk,
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
    assert h0.unknowns.size == 0
    assert np.allclose(h0.value_matrix(), D0)
    h1 = shifted_matrix(L, b, 0)
    assert np.allclose(h1.value_matrix(), D1)


def test_unknowns_past_truncation(quintic):
    L = to_dual(quintic)
    pool = monomials_upto(2, 3)
    h = build_hankel(L, pool, pool)
    missing = set(h.unknowns.tolist())
    assert missing == set(positions(2, [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)]))
    filled = h.value_matrix(np.append(L.moments, np.zeros(len(missing))))
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


def _bound_with_block_zero(L, tol):
    """`known_rank_bound` as it was when it also read the one-row block
    k = 0, every block's singular values against the same noise floor."""
    noise = tol * np.linalg.norm(L.moments * multinomials(L.nvars, L.degree))
    best = 0
    for k in range(L.degree // 2 + 1):
        index, gain = _catalecticant_layout(L.nvars, L.degree, k)
        s = np.linalg.svd(L.moments[index], compute_uv=False)
        best = max(best, numerical_rank(s, gain * noise))
    return best


def test_block_zero_adds_nothing_to_the_rank_bound():
    # block 0 has rank at most 1, which the rank loop's max(1, bound)
    # already gives: on the fixtures, the CI loop's monomials, pure powers
    # of degree 1-6 and planted forms under noise, at tolerances up to 1e-1
    forms = [load_text_poly(p.name) for p in sorted(FIXTURES.glob("*.txt"))]
    forms += [load_json_poly(p.name) for p in sorted(FIXTURES.glob("*.json"))
              if not p.name.endswith("_decomposition.json")]
    forms += [parse_poly(t) for t in
              ["x0*x1*x2*x3", "x0^2*x1^2*x2^2", "x0^2*x1*x2", "x0*x1*x2", "x0^2*x1^2*x2"]]
    forms += [power_of_linear_form(np.arange(1.0, n + 1) * 1j ** np.arange(n), d)
              for n in (2, 3, 4) for d in range(1, 7)]
    rng = np.random.default_rng(5)
    for n, d, r in [(2, 6, 1), (2, 7, 3), (3, 2, 2), (3, 4, 1), (3, 5, 4), (4, 3, 3)]:
        f, _ = planted_poly(n, d, r, rng)
        e = rng.standard_normal(len(f.coeffs)) * 1e-9 * f.coeff_norm()
        forms.append(HomogeneousPoly(n, d, {m: c + x for (m, c), x in zip(f.coeffs.items(), e)}))
    for f in forms:
        L = to_dual(f)
        for tol in (1e-12, 1e-7, 1e-4, 1e-1):
            got, want = known_rank_bound(L, tol), _bound_with_block_zero(L, tol)
            assert max(1, got) == max(1, want), (f.coeffs, tol)


@pytest.mark.parametrize("nvars, size, top", [
    (2, 4, 3), (2, 6, 5), (3, 5, 3), (3, 8, 3), (3, 10, 3), (4, 6, 2),
])
def test_order_ideals_are_every_divisor_closed_set(nvars, size, top):
    # every subset of the candidate monomials that holds 1 and each divisor
    # of its members, listed once, lowest top degree and then most
    # low-degree monomials first
    pool = monomials_upto(nvars, top)
    want = set()
    for rest in combinations(pool[1:], size - 1):
        s = {pool[0], *rest}
        if all(m[:i] + (m[i] - 1,) + m[i + 1:] in s
               for m in s for i in range(nvars) if m[i]):
            want.add(frozenset(s))
    got = list(order_ideals(nvars, size, top))
    assert len(got) == len(want) and {frozenset(b) for b in got} == want
    assert got[0] == pool[:size]
    keys = [(max(map(sum, b)), [-sum(sum(m) == k for m in b) for k in range(top + 1)])
            for b in got]
    assert keys == sorted(keys)


def test_order_ideals_are_lazy():
    # (4, 27, 8) has far more ideals than anyone can list; the first few
    # come at once, the graded-lex prefix first
    walk = order_ideals(4, 27, 8)
    assert next(walk) == monomials_upto(4, 3)[:27]
    assert len([next(walk) for _ in range(63)]) == 63


def test_known_columns_prune_a_singular_basis():
    # the Fermat cubic puts one point at x0 != 0: H^{B,B} on {1, x1, x2} is
    # diag(1, 0, 0) for every extension; {1, x1, x1^2} has the known columns
    # 1 and x1 of full rank
    L = to_dual(parse_poly("x0^3 + x1^3 + x2^3"))
    test = known_columns_test(L)
    assert not test([(0, 0), (1, 0), (0, 1)])
    assert test([(0, 0), (1, 0), (2, 0)])
    assert principal_minor(L, 3) is None


def test_principal_minor_quintic(quintic):
    L = to_dual(quintic)
    b = principal_minor(L, 4)
    assert b is not None
    assert b.exponents == BASIS4


def test_principal_minor_quartic(quartic):
    L = to_dual(quartic)
    b = principal_minor(L, 6)
    assert b is not None
    assert len(b) == 6
    assert set(b.exponents) == set(monomials_upto(2, 2))


def test_principal_minor_size_too_large(quintic):
    L = to_dual(quintic)
    assert principal_minor(L, 9) is None


@pytest.mark.parametrize("text", ["x0*x1*x2", "x0^2*x1*x2", "x0*x1^2 + x1*x2^2"])
def test_principal_minor_is_never_singular(text):
    # L(1) = 0, so the only basis of size 1 has H^{B,B} = [[0]]
    assert principal_minor(to_dual(parse_poly(text)), 1) is None


def test_principal_minor_walk_is_bounded():
    # L(1) = 0, so no ideal passes; the rank loop's walk holds
    # IDEALS_PER_RANK ideals of size 14, not all 17526, and the identity
    # frame tests each of them once, its principal-minor search included
    L = to_dual(parse_poly("x0^2*x1*x2*x3*x4"))
    frame = identity_frame_of(L)
    tested = []

    def counted(ideal):
        tested.append(ideal)
        return frame.test(ideal)

    got = list(_basis_candidates(frame._replace(test=counted), rank_walk(L, 14), 14))
    assert len(got) == len(tested) == IDEALS_PER_RANK
    assert not any(full for _, full in got)
    assert principal_minor(L, 14) is None


def test_principal_minor_search_stops_past_its_degree():
    # the search reads the walk it is given only while the degree is <= top
    read = []

    def walk():
        for ideal in order_ideals(2, 3, 2):
            read.append(ideal)
            yield ideal

    assert full_rank_principal_minor(walk(), lambda ideal: False, 1) is None
    assert [max(map(sum, b)) for b in read] == [1, 2]
    got = full_rank_principal_minor(order_ideals(2, 3, 2), lambda ideal: len(ideal) == 3, 2)
    assert got.exponents == [(0, 0), (1, 0), (0, 1)]


PLANTED_MINOR_SHAPES = [
    (3, 4, 3), (3, 4, 5), (3, 5, 4), (3, 5, 6), (3, 6, 8), (4, 3, 3), (4, 4, 6), (5, 4, 8),
]


def test_principal_minors_have_full_numerical_rank(quintic, quartic):
    rng = np.random.default_rng(43)
    forms = [quintic, quartic]
    forms += [planted_poly(n, d, r, rng)[0] for n, d, r in PLANTED_MINOR_SHAPES]
    found = 0
    for f in forms:
        L = to_dual(f)
        for size in range(1, 16):
            b = principal_minor(L, size)
            if b is None:
                continue
            h = build_hankel(L, b.exponents, b.exponents)
            assert h.unknowns.size == 0
            s = np.linalg.svd(h.value_matrix(), compute_uv=False)
            assert numerical_rank(s) == len(b)
            found += 1
    assert found >= 50


def test_kernel_generators_annihilate():
    # planted support; every returned border relation must kill the moments
    rng = np.random.default_rng(31)
    for trial in range(8):
        nv, d, r = 3, 5, int(rng.integers(2, 5))
        f, terms = planted_poly(nv, d, r, rng)
        L = to_dual(f)
        b = principal_minor(L, r)
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
                    if sum(s) > L.degree:
                        ok = False
                        break
                    me = moment(L, s)
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
# exactness of the numeric position map against the object-dtype cells


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
        rows = basis.exponents
        for v in [None, *range(L.nvars)]:
            # the position rule against the per-cell dict walk, bit for bit
            shift = None if v is None else tuple(int(i == v) for i in range(L.nvars))
            h = build_hankel(L, rows, rows) if v is None else shifted_matrix(L, basis, v)
            values, unknowns, at = dict_hankel(L, rows, rows, shift)
            assert h.values.tobytes() == values.tobytes()
            assert h.unknowns.tolist() == positions(L.nvars, unknowns)
            assert h.at.tobytes() == at.tobytes()
            assert h.known == len(L.moments)
        for h, ref in _matrix_pairs(L, basis):
            assert h.shape == ref.shape
            exps = object_unknowns(ref)
            assert h.unknowns.tolist() == positions(L.nvars, exps)
            assert h.at.dtype == np.intp
            assert np.all(h.values[h.at >= h.known] == 0)
            for _ in range(3):
                z = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
                assignment = dict(zip(exps, z.tolist()))
                table = np.append(L.moments, np.full(h.at.max(initial=0) + 1, np.nan))
                table[h.unknowns] = z
                assert np.array_equal(
                    h.value_matrix(table), object_value_matrix(ref, assignment)
                )
            if not exps:
                assert np.array_equal(h.value_matrix(), object_value_matrix(ref, {}))


@pytest.mark.parametrize("nvars, top", [(1, 9), (2, 6), (3, 7), (5, 5), (8, 5)])
def test_position_rule_is_the_graded_lex_index(nvars, top):
    # the rule numbers every monomial of degree <= top by its place in
    # graded-lex order, so its data holds one entry per monomial: a binomial
    # table of (nvars + top) (nvars + 1) entries and the cached exponent
    # table, nothing of size (top + 1)^nvars
    exps = monomials_upto(nvars, top)
    assert len(exps) == math.comb(nvars + top, nvars)
    assert monomial_index(exps).tolist() == list(range(len(exps)))
    assert _binomials(nvars, top)[0].shape == ((nvars + top) * (nvars + 1),)
    assert len(_monomials_upto(nvars, top)) == len(exps)
    # a block of any shape: the index of each exponent along the last axis,
    # past `top` too (8 variables at top 5 is the wide shape's range)
    block = np.array(exps[-6:])[:, None, :] + np.array(exps[:4])[None, :, :]
    wider = {e: i for i, e in enumerate(monomials_upto(nvars, 2 * top))}
    assert monomial_index(block).tolist() == [
        [wider[tuple(c)] for c in row] for row in block.tolist()]


def test_value_matrix_needs_every_unknown(quintic):
    L = to_dual(quintic)
    pool = monomials_upto(2, 3)
    h = build_hankel(L, pool, pool)
    ref = object_hankel(L, pool, pool)
    partial = {e: 1.0 for e in object_unknowns(ref)[1:]}
    table = np.append(L.moments, np.ones(len(h.unknowns)))
    table[h.unknowns[0]] = np.nan
    with pytest.raises(ValueError):
        h.value_matrix(table)
    with pytest.raises(KeyError):
        object_value_matrix(ref, partial)
    with pytest.raises(ValueError):
        h.value_matrix()


def test_value_matrix_reads_the_table_by_position(quintic):
    # the 10x10 matrix over the monomials of degree <= 3 reads positions
    # 0 .. 27: the known moments 0 .. 20 and the sextics 21 .. 27.  A table
    # that stops short of 27, or has a NaN at a position a cell reads, is
    # refused; a NaN that no cell reads is not looked at
    L = to_dual(quintic)
    pool = monomials_upto(2, 3)
    h = build_hankel(L, pool, pool)
    assert h.unknowns.tolist() == list(range(21, 28))
    table = np.append(L.moments, np.arange(7.0) + 1j)
    want = table[monomial_index(np.array(pool)[:, None] + np.array(pool)[None, :])]
    assert np.array_equal(h.value_matrix(table), want)
    assert np.array_equal(h.value_matrix(np.append(table, np.nan)), want)
    with pytest.raises(ValueError):
        h.value_matrix(table[:-1])
    for p in (21, 24, 27):
        holed = table.copy()
        holed[p] = np.nan
        with pytest.raises(ValueError):
            h.value_matrix(holed)


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
        for delta, p in koszul_shapes(L.nvars, d):
            assert _numerical_rank(koszul_flattening(L, delta, p)) == math.comb(nvars - 1, p)
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
                k = koszul_flattening(DualForm(nv, d, m), delta, p)
                assert np.linalg.norm(k, 2) <= gain * e.coeff_norm() * (1 + 1e-12)
            peaks = []
            for i in range(len(exps)):
                m = np.zeros(len(exps), dtype=complex)
                m[i] = 1.0
                k = koszul_flattening(DualForm(nv, d, m), delta, p)
                peaks.append(np.linalg.norm(k) / _form_of_moments(nv, d, m).coeff_norm())
            assert max(peaks) == pytest.approx(gain, rel=1e-12)


def test_koszul_shapes_respect_the_cap():
    for nv, d in [(2, 5), (3, 3), (3, 5), (4, 3), (4, 4), (5, 6)]:
        shapes = koszul_shapes(nv, d)
        assert all(1 <= p <= max(1, nv - 1) for _, p in shapes)
        zero = np.zeros(len(monomials_upto(nv, d)), dtype=complex)
        for delta, p in shapes:
            k = koszul_flattening(DualForm(nv, d, zero), delta, p)
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
        L = DualForm(nv, d, m)
        for delta, p in koszul_shapes(nv, d):
            partner = (d - 1 - delta, nv - p)
            s = np.linalg.svd(koszul_flattening(L, delta, p), compute_uv=False)
            t = np.linalg.svd(koszul_flattening(L, *partner), compute_uv=False)
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


def _forms_for_the_bound_readings():
    """The fixtures, the monomials of known rank and the planted shapes of
    the benchmark's workloads."""
    forms = [load_text_poly(p.name) for p in sorted(FIXTURES.glob("*.txt"))]
    forms += [load_json_poly(p.name) for p in sorted(FIXTURES.glob("*.json"))
              if not p.name.endswith("_decomposition.json")]
    forms += [parse_poly(text) for text, _ in KNOWN_RANKS]
    return forms + [planted_poly(n, d, r, np.random.default_rng(r))[0]
                    for n, d, r in WALK_SHAPES]


def test_koszul_bound_builds_only_the_flattenings_that_can_raise_it(monkeypatch):
    # every flattening read by hand: one is built only when its ceiling,
    # ceil(min(rows, cols) / C(n, p)), is above the floor and the best bound
    # before it, and above the floor the bound and its shape are those of
    # reading every flattening
    module = sys.modules["waring.hankel"]
    built = []

    def counted(L, delta, p):
        built.append((delta, p))
        return flattening(L, delta, p)

    flattening = module.koszul_flattening
    monkeypatch.setattr(module, "koszul_flattening", counted)
    reads = 0
    for f in _forms_for_the_bound_readings():
        L = to_dual(f)
        noise = TOL * np.linalg.norm(L.moments * multinomials(L.nvars, L.degree))
        shapes = koszul_shapes(L.nvars, L.degree)
        bounds, ceilings = [], []
        for delta, p in shapes:
            k = flattening(L, delta, p)
            gain = _koszul_layout(L.nvars, L.degree, delta, p)[-1]
            count = numerical_rank(np.linalg.svd(k, compute_uv=False), gain * noise)
            bounds.append(-(-count // math.comb(L.nvars, p)))
            ceilings.append(-(-min(k.shape) // math.comb(L.nvars, p)))
        top = max(bounds, default=0)
        for floor in range(top + 2):
            built.clear()
            got = koszul_rank_bound(L, TOL, floor)
            best, want = 0, []
            for shape, bound, ceiling in zip(shapes, bounds, ceilings):
                if ceiling > max(floor, best):
                    want.append(shape)
                    best = max(best, bound)
            assert built == want, (f.coeffs, floor)
            if top > floor:
                assert got == (top, shapes[bounds.index(top)]), (f.coeffs, floor)
            else:
                assert got[0] <= floor
            reads += 1
    assert reads >= 150


def test_known_rank_bound_is_the_largest_block_rank():
    # read from k = d/2 down and stopped where a block's rows cannot beat
    # the bound in hand, it still finds the rank of every block k = 1 .. d/2
    for f in _forms_for_the_bound_readings():
        L = to_dual(f)
        noise = TOL * np.linalg.norm(L.moments * multinomials(L.nvars, L.degree))
        want = 0
        for k in range(1, L.degree // 2 + 1):
            index, gain = _catalecticant_layout(L.nvars, L.degree, k)
            s = np.linalg.svd(L.moments[index], compute_uv=False)
            want = max(want, numerical_rank(s, gain * noise))
        assert known_rank_bound(L, TOL) == want, f.coeffs


def _random_change(n, rng, max_cond=1e3):
    """A random complex Gaussian change of coordinates, condition number <= max_cond."""
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(a) <= max_cond:
            return a


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
            g = change_coordinates(f, a)
            assert koszul_rank_bound(to_dual(g), TOL)[0] <= want
