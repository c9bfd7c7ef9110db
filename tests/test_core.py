import json

import numpy as np
import pytest

from waring.core import (
    Decomposition,
    HomogeneousPoly,
    LinearChange,
    PolyParseError,
    apolar,
    change_coordinates,
    decomposition_from_json,
    decomposition_to_json,
    essential_vars,
    expand_power_sum,
    format_poly,
    monomial_values,
    monomials,
    monomials_upto,
    multinomial,
    parse_poly,
    poly_from_json,
    poly_to_json,
    power_of_linear_form,
    pullback_points,
    to_dual,
)

from conftest import (
    QUINTIC_SUPPORT,
    loop_expand_power_sum,
    loop_monomial_values,
    planted_poly,
)


def test_multinomial_values():
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(4, (1, 3)) == 4
    assert multinomial(3, (1, 1, 1)) == 6


def test_monomials_graded_lex():
    ms = monomials(2, 3)
    assert ms == [(3, 0), (2, 1), (1, 2), (0, 3)]
    ms = monomials(3, 2)
    assert ms[0] == (2, 0, 0)
    assert len(ms) == 6
    up = monomials_upto(2, 2)
    assert up == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_parse_simple():
    f = parse_poly("x0^2 + 2*x1^2 - x0*x1")
    assert f.nvars == 2
    assert f.degree == 2
    assert f.coeff((2, 0)) == 1
    assert f.coeff((0, 2)) == 2
    assert f.coeff((1, 1)) == -1


def test_parse_leading_sign_and_implicit_mul():
    f = parse_poly("-3x0^3 + x1^3")
    assert f.coeff((3, 0)) == -3
    g = parse_poly("- x0^2*x1 + 2 x1^3")
    assert g.coeff((2, 1)) == -1
    assert g.coeff((0, 3)) == 2


def test_parse_complex_coefficients():
    f = parse_poly("(1,2)*x0^2 - (0,1)*x0*x1")
    assert f.coeff((2, 0)) == 1 + 2j
    assert f.coeff((1, 1)) == -1j


def test_parse_rejects_inhomogeneous():
    with pytest.raises(PolyParseError) as ei:
        parse_poly("x0^2 + x1")
    assert ei.value.position is not None


def test_parse_rejects_garbage():
    for bad in ["", "x0 +", "3 ** x1", "x0^2 + y^2"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_format_parse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nv = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        coeffs = {}
        for e in monomials(nv, d):
            if rng.random() < 0.6:
                coeffs[e] = complex(rng.standard_normal(), rng.standard_normal())
        if not coeffs:
            continue
        f = parse_poly(format_poly(HomogeneousPoly(nv, d, coeffs)), nvars=nv)
        for e, c in coeffs.items():
            assert f.coeff(e) == pytest.approx(c, abs=1e-12)


def test_poly_json_round_trip(quintic):
    blob = json.dumps(poly_to_json(quintic), sort_keys=True)
    back = poly_from_json(json.loads(blob))
    assert (back - quintic).coeff_norm() == 0.0


def test_quintic_fixture_shape(quintic):
    assert quintic.nvars == 3
    assert quintic.degree == 5
    assert len(quintic.coeffs) == 21
    assert quintic.coeff((5, 0, 0)) == 38


def test_quintic_matches_known_support(quintic):
    terms = [(w, np.array([1.0, *p])) for w, p in QUINTIC_SUPPORT]
    rebuilt = expand_power_sum(terms, 3, 5)
    assert (rebuilt - quintic).coeff_norm() < 1e-9 * quintic.coeff_norm()


def test_dual_moments_are_support_moments(quintic):
    # moments of the dual form must equal sum_j w_j zeta_j^beta
    L = to_dual(quintic)
    assert L.nvars == 2
    assert L.degree == 5
    for beta in monomials_upto(2, 5):
        want = sum(
            w * (p[0] ** beta[0]) * (p[1] ** beta[1]) for w, p in QUINTIC_SUPPORT
        )
        assert L.moment(beta) == pytest.approx(want, rel=1e-12)


def test_dual_frozen_values(quintic):
    L = to_dual(quintic)
    assert L.moment((0, 0)) == pytest.approx(38)
    assert L.moment((1, 0)) == pytest.approx(-24)
    assert L.moment((0, 1)) == pytest.approx(36)
    assert L.moment((2, 0)) == pytest.approx(1272)
    assert L.moment((1, 1)) == pytest.approx(-288)
    assert L.moment((0, 2)) == pytest.approx(822)
    assert L.moment((5, 0)) == pytest.approx(-497664)


def test_dual_truncation(quintic):
    L = to_dual(quintic)
    assert L.entry((6, 0)) is None
    ext = L.with_extension({(6, 0): 2.5})
    assert ext.entry((6, 0)) == 2.5
    assert ext.moment((0, 0)) == L.moment((0, 0))


def test_apolar_power_pairing():
    # pairing a form against (k.x)^d evaluates the form at k
    rng = np.random.default_rng(3)
    for _ in range(50):
        nv = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        f, _ = planted_poly(nv, d, min(3, d), rng)
        k = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        g = power_of_linear_form(k, d)
        assert apolar(f, g) == pytest.approx(f.evaluate(k), rel=1e-9)


def test_expand_power_sum_examples():
    f = expand_power_sum([(1.0, (1.0, 1.0)), (1.0, (1.0, -1.0))], 2, 2)
    assert f.coeff((2, 0)) == pytest.approx(2)
    assert f.coeff((0, 2)) == pytest.approx(2)
    assert f.coeff((1, 1)) == pytest.approx(0, abs=1e-15)
    g = expand_power_sum([(2.0, (1.0, 3.0))], 2, 3)
    assert g.coeff((1, 2)) == pytest.approx(2 * 3 * 9)


def test_change_coordinates_consistency():
    rng = np.random.default_rng(11)
    f, _ = planted_poly(3, 4, 3, rng)
    a = LinearChange(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = change_coordinates(f, a)
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert g.evaluate(x) == pytest.approx(f.evaluate(a.matrix @ x), rel=1e-9)


def test_change_coordinates_pullback_points():
    # f(x) = g(A^-1 x): a decomposition found for g pulls back to one for f
    rng = np.random.default_rng(13)
    f, terms = planted_poly(3, 3, 2, rng)
    a = LinearChange.random_unitary(3, rng)
    g = change_coordinates(f, a)
    wts = [w for w, _ in terms]
    g_points = [a.matrix.T @ k for _, k in terms]
    rebuilt_g = expand_power_sum(list(zip(wts, g_points)), 3, 3)
    assert (rebuilt_g - g).coeff_norm() < 1e-9 * g.coeff_norm()
    back = pullback_points(g_points, a)
    rebuilt_f = expand_power_sum(list(zip(wts, back)), 3, 3)
    assert (rebuilt_f - f).coeff_norm() < 1e-9 * f.coeff_norm()
    for k_orig, k_back in zip((k for _, k in terms), back):
        assert np.allclose(k_orig, k_back)


def _tuple_key_change_coordinates(f, change):
    """`change_coordinates` expanding over exponent tuples, kept as the
    reference for the integer-keyed expansion."""

    def mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    a, n = change.matrix, f.nvars
    one = (0,) * n
    lin = []
    for i in range(n):
        row = {}
        for j in range(n):
            if a[i, j] != 0:
                e = [0] * n
                e[j] = 1
                row[tuple(e)] = complex(a[i, j])
        lin.append(row)
    powers = [[{one: 1.0}] for _ in range(n)]
    out = {}
    for exp, c in f.coeffs.items():
        term = {one: complex(c)}
        for i, e in enumerate(exp):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], lin[i]))
            if e:
                term = mul(term, powers[i][e])
        for mono, v in term.items():
            out[mono] = out.get(mono, 0) + v
    cutoff = 1e-14 * max((abs(v) for v in out.values()), default=0.0)
    return HomogeneousPoly(n, f.degree, {e: v for e, v in out.items() if abs(v) > cutoff})


def test_change_coordinates_matches_tuple_keys_bit_for_bit():
    rng = np.random.default_rng(19)
    for case in range(200):
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        monos = monomials(n, d)
        # dense coefficients where the expansion stays small, sparse otherwise
        if case % 2 == 0 and len(monos) <= 40:
            picked = monos
        else:
            picked = [monos[i] for i in rng.choice(len(monos), min(len(monos), 6),
                                                    replace=False)]
        f = HomogeneousPoly(n, d, {
            e: complex(rng.standard_normal(), rng.standard_normal()) for e in picked
        })
        kind = case % 3
        if kind == 0:
            a = LinearChange.identity(n)
        elif kind == 1:
            a = LinearChange.random_unitary(n, rng)
        else:
            m = np.eye(n) + rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            a = LinearChange(m)
        got = change_coordinates(f, a)
        want = _tuple_key_change_coordinates(f, a)
        assert list(got.coeffs.items()) == list(want.coeffs.items())


def test_linear_change_rejects_singular():
    with pytest.raises(ValueError):
        LinearChange(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_essential_vars_full(quintic):
    count, _ = essential_vars(quintic)
    assert count == 3


def test_essential_vars_degenerate():
    # a binary form hidden in three variables
    rng = np.random.default_rng(5)
    f, _ = planted_poly(2, 4, 2, rng)
    lifted = {}
    for (e0, e1), c in f.coeffs.items():
        lifted[(e0, e1, 0)] = c
    g = change_coordinates(
        HomogeneousPoly(3, 4, lifted), LinearChange.random_unitary(3, rng)
    )
    count, reducer = essential_vars(g)
    assert count == 2
    h = change_coordinates(g, reducer)
    mass = sum(abs(c) ** 2 for e, c in h.coeffs.items() if e[2] != 0)
    assert mass < 1e-16 * h.coeff_norm() ** 2


def test_essential_vars_invariant_under_unitaries():
    rng = np.random.default_rng(17)
    f, _ = planted_poly(3, 3, 2, rng)
    for _ in range(20):
        g = change_coordinates(f, LinearChange.random_unitary(3, rng))
        count, _ = essential_vars(g)
        assert count == essential_vars(f)[0]


def test_decomposition_json_round_trip():
    dec = Decomposition(
        3,
        [(1.5 + 0.5j, np.array([1.0, 2.0 - 1j])), (2.0, np.array([1.0, 0.5]))],
        1e-12,
    )
    back = decomposition_from_json(decomposition_to_json(dec))
    assert back.degree == 3
    assert back.rank == 2
    for (w1, k1), (w2, k2) in zip(dec.terms, back.terms):
        assert w2 == pytest.approx(w1)
        assert np.allclose(k1, k2)


def test_decomposition_normalized():
    dec = Decomposition(2, [(4.0, np.array([2.0, 1.0]))], 0.0)
    norm = dec.normalized()
    w, k = norm.terms[0]
    assert k[0] == pytest.approx(1.0)
    assert w == pytest.approx(16.0)
    f = expand_power_sum(dec.terms, 2, 2)
    g = expand_power_sum(norm.terms, 2, 2)
    assert (f - g).coeff_norm() < 1e-12 * f.coeff_norm()


@pytest.mark.parametrize(
    "text", ["x0^3 + x1^3 + 1e999*x2^3", "(1,1e999)*x0^2 + x1^2",
             "1e308*x0^2 + 1e308*x0^2 + x1^2"]
)
def test_parse_rejects_non_finite_coefficients(text):
    with pytest.raises(PolyParseError, match="coefficients must be finite"):
        parse_poly(text)


@pytest.mark.parametrize("bad", [[float("nan"), 0.0], [1.0, float("inf")]])
def test_poly_json_rejects_non_finite_coefficients(bad):
    obj = {"nvars": 2, "degree": 2,
           "terms": [{"exp": [2, 0], "c": [1.0, 0.0]}, {"exp": [0, 2], "c": bad}]}
    with pytest.raises(ValueError, match="coefficients must be finite"):
        poly_from_json(obj)


def test_decomposition_json_rejects_non_finite_entries():
    good = {"weight": [1.0, 0.0], "form": [[1.0, 0.0], [2.0, 0.0]]}
    for bad in ({**good, "weight": [float("inf"), 0.0]},
                {**good, "form": [[1.0, 0.0], [0.0, float("nan")]]}):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            decomposition_from_json({"degree": 3, "terms": [good, bad]})


def _random_exponents(rng, nvars: int, count: int) -> np.ndarray:
    """`count` exponents in `nvars` variables, each of degree <= 20."""
    degree = rng.integers(0, 21, size=count)
    return np.array([rng.multinomial(d, [1 / (nvars + 1)] * (nvars + 1))[:nvars] for d in degree])


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_monomial_values_match_the_per_entry_loop(nvars):
    rng = np.random.default_rng(nvars)
    pts = rng.standard_normal((7, nvars)) + 1j * rng.standard_normal((7, nvars))
    pts[0] = 0  # 0^0 = 1, 0^e = 0
    pts[1, 0] = 0
    exps = _random_exponents(rng, nvars, 40)
    exps[0] = 0
    exps[1, 0] = 0
    got = monomial_values(pts, exps)
    assert got.shape == (7, 40)
    assert np.array_equal(got, loop_monomial_values(pts, exps))
    assert np.all(got[:, 0] == 1)
    assert np.all(got[0, np.any(exps, axis=1)] == 0)


def test_monomial_values_binary_layout():
    # the binary weight solve: c_i = sum_j w_j alpha_j^i beta_j^(d-i)
    rng = np.random.default_rng(0)
    for d in range(1, 21):
        pts = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[0] = (1, 0)  # the root at infinity
        got = monomial_values(pts, [(i, d - i) for i in range(d + 1)])
        ref = np.array([[al**i * be ** (d - i) for i in range(d + 1)] for al, be in pts])
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "points, exps",
    [
        (np.ones((2, 3)), np.ones((4, 2), dtype=int)),
        (np.ones(3), np.ones((4, 3), dtype=int)),
        (np.ones((2, 3)), np.ones(3, dtype=int)),
    ],
)
def test_monomial_values_rejects_mismatched_shapes(points, exps):
    with pytest.raises(ValueError, match="exponents"):
        monomial_values(points, exps)


@pytest.mark.parametrize("nvars, degree, rank", [(2, 7, 3), (3, 4, 5), (4, 3, 4), (5, 4, 6)])
def test_expand_power_sum_matches_the_term_loop(nvars, degree, rank):
    _, terms = planted_poly(nvars, degree, rank, np.random.default_rng(degree))
    got = expand_power_sum(terms, nvars, degree)
    ref = loop_expand_power_sum(terms, nvars, degree)
    exps = monomials(nvars, degree)
    a = np.array([got.coeff(e) for e in exps])
    b = np.array([ref.coeff(e) for e in exps])
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_evaluate_at_many_points():
    f, _ = planted_poly(3, 4, 3, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    many = f.evaluate(x)
    assert many.shape == (5,)
    for xi, v in zip(x, many):
        assert isinstance(f.evaluate(xi), complex)
        assert v == pytest.approx(f.evaluate(xi), rel=1e-14)
    with pytest.raises(ValueError):
        f.evaluate(x[0, :2])
