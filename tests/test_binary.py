import numpy as np
import pytest

from waring.binary import binary_decompose
from waring.core import HomogeneousPoly, expand_power_sum, parse_poly, to_dual

from conftest import hankel_slice, poly_sub


def _reexpand_err(dec, f):
    g = expand_power_sum(dec, 2, dec.degree)
    return poly_sub(g, f).coeff_norm() / f.coeff_norm()


def _binary(coeffs) -> HomogeneousPoly:
    """The binary form with coefficient coeffs[i] at x0^i x1^(d-i)."""
    d = len(coeffs) - 1
    return HomogeneousPoly(2, d, {(i, d - i): c for i, c in enumerate(coeffs)})


def test_moments_divide_by_binomials():
    # c_i, the moment of x1^(d-i), is the coefficient of x0^i x1^(d-i) over binom(d, i)
    f = _binary([1, 8, 12, 8, 1j])
    assert np.allclose(to_dual(f).moments[::-1], [1, 2, 2, 2, 1j])


def test_hankel_slice_example():
    f = _binary([1, 0, 0, 1])
    h = hankel_slice(f, 2)
    assert h.shape == (2, 3)
    assert np.allclose(h, [[1, 0, 0], [0, 0, 1]])
    assert hankel_slice(f, 3).shape == (1, 4)


def test_hankel_slice_bounds():
    f = _binary([1, 1, 1, 1])
    with pytest.raises(ValueError):
        hankel_slice(f, 0)
    with pytest.raises(ValueError):
        hankel_slice(f, 4)


def test_hankel_slice_reads_the_dual_moments():
    f, _ = _planted(np.random.default_rng(2), 9, 4)
    c = to_dual(f).moments[::-1]
    for r in range(1, 10):
        h = hankel_slice(f, r)
        assert h.shape == (10 - r, r + 1)
        for i in range(10 - r):
            assert np.array_equal(h[i], c[i : i + r + 1])


def test_ternary_forms_are_rejected():
    f = parse_poly("x0^3 + x1^3 + x2^3")
    with pytest.raises(ValueError, match="two variables"):
        hankel_slice(f, 1)
    with pytest.raises(ValueError, match="two variables"):
        binary_decompose(f)


def _planted(rng, d, r):
    """A binary form of degree d and rank r with unit, well-separated directions."""
    pts = []
    while len(pts) < r:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        if all(abs(v[0] * q[1] - v[1] * q[0]) > 0.05 for q in pts):
            pts.append(v)
    wts = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return expand_power_sum(list(zip(wts, pts)), 2, d), pts


def test_fermat_cubic():
    dec = binary_decompose(parse_poly("x0^3 + x1^3"))
    assert dec.rank == 2
    assert dec.residual < 1e-12
    got = sorted(
        (np.argmax(np.abs(m)), w * m[np.argmax(np.abs(m))] ** 3)
        for w, m in dec.terms
    )
    for axis, (pos, val) in zip([0, 1], got):
        assert pos == axis
        assert abs(val - 1) < 1e-10


def test_product_of_lines():
    dec = binary_decompose(parse_poly("x0^2 x1 + x0 x1^2"))
    assert dec.rank == 2
    assert dec.residual < 1e-10


def test_degenerate_cubic_needs_three():
    f = parse_poly("x0^2 x1")
    dec = binary_decompose(f)
    assert dec.rank == 3
    assert _reexpand_err(dec, f) < 1e-10


def test_planted_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(60):
        d = int(rng.integers(4, 11))
        rmax = (d + 2) // 2 - 1
        r = int(rng.integers(1, rmax + 1))
        f, _ = _planted(rng, d, r)
        dec = binary_decompose(f, rng_seed=trial)
        assert dec.rank == r, (trial, d, r, dec.rank)
        err = _reexpand_err(dec, f)
        worst = max(worst, err)
        assert err < 1e-8, (trial, d, r, err)
    assert worst < 1e-8


def test_direction_at_infinity():
    pts = [
        np.array([1.0, 0.0]),
        np.array([0.3 + 0.4j, 1.0]) / np.linalg.norm([0.5, 1.0]),
    ]
    f = expand_power_sum([(2.0, pts[0]), (1.5 - 1j, pts[1])], 2, 5)
    dec = binary_decompose(f)
    assert dec.rank == 2
    assert any(abs(m[1]) < 1e-10 for _, m in dec.terms)

