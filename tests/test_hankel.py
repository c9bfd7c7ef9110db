import numpy as np
import pytest

from waring.core import monomials_upto, to_dual
from waring.hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    kernel_generators,
    known_rank_bound,
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
    assert known_rank_bound(to_dual(quintic)) == 4


def test_known_rank_bound_quartic(quartic):
    assert known_rank_bound(to_dual(quartic)) == 6


def test_known_rank_bound_detects_planted_rank():
    rng = np.random.default_rng(23)
    for _ in range(10):
        nv = int(rng.integers(3, 5))
        d = int(rng.integers(3, 6))
        r = int(rng.integers(1, min(4, d) + 1))
        f, _ = planted_poly(nv, d, r, rng)
        assert known_rank_bound(to_dual(f)) == r


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
