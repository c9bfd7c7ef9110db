import json
import math
import sys

import numpy as np
import pytest

from waring.binary import binary_decompose
from waring.core import (
    Decomposition,
    HomogeneousPoly,
    PolyParseError,
    accept,
    apolar,
    change_coordinates,
    coeff_difference,
    decomposition_from_json,
    decomposition_to_json,
    essential_vars,
    expand_power_sum,
    format_poly,
    grlex_key,
    identity_frame,
    json_value,
    lstsq,
    monomial_values,
    monomials,
    monomials_upto,
    multinomials,
    numerical_rank,
    parse_poly,
    poly_from_json,
    random_unitary,
    to_dual,
    upper_triangle,
)

from conftest import (
    EXACTNESS_FIXTURES,
    FIXTURES,
    QUINTIC_SUPPORT,
    coeff_bits,
    evaluate,
    load_json_poly,
    load_text_poly,
    loop_expand_power_sum,
    loop_monomial_values,
    moment,
    multinomial,
    planted_poly,
    poly_add,
    poly_sub,
    poly_to_json,
    power_of_linear_form,
    relative_error,
)


def test_multinomial_values():
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(4, (1, 3)) == 4
    assert multinomial(3, (1, 1, 1)) == 6


@pytest.mark.parametrize("nvars, degree", [(20, 5), (2, 60), (3, 30), (0, 3), (1, 4), (4, 3)])
def test_multinomials_are_the_scalar_values_bit_for_bit(nvars, degree):
    # (2, 60) has entries above 2**53: each is an exact integer rounded once
    want = [
        float(multinomial(degree, (degree - sum(e), *e))) for e in monomials_upto(nvars, degree)
    ]
    got = multinomials(nvars, degree)
    assert got.tobytes() == np.array(want).tobytes()
    assert (nvars, degree) != (2, 60) or got.max() > 2**53


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
    assert poly_sub(back, quintic).coeff_norm() == 0.0


def test_quintic_fixture_shape(quintic):
    assert quintic.nvars == 3
    assert quintic.degree == 5
    assert len(quintic.coeffs) == 21
    assert quintic.coeff((5, 0, 0)) == 38


def test_quintic_matches_known_support(quintic):
    terms = [(w, np.array([1.0, *p])) for w, p in QUINTIC_SUPPORT]
    rebuilt = expand_power_sum(terms, 3, 5)
    assert poly_sub(rebuilt, quintic).coeff_norm() < 1e-9 * quintic.coeff_norm()


def test_dual_moments_are_support_moments(quintic):
    # moments of the dual form must equal sum_j w_j zeta_j^beta
    L = to_dual(quintic)
    assert L.nvars == 2
    assert L.degree == 5
    for beta in monomials_upto(2, 5):
        want = sum(
            w * (p[0] ** beta[0]) * (p[1] ** beta[1]) for w, p in QUINTIC_SUPPORT
        )
        assert moment(L, beta) == pytest.approx(want, rel=1e-12)


def test_dual_frozen_values(quintic):
    L = to_dual(quintic)
    assert moment(L, (0, 0)) == pytest.approx(38)
    assert moment(L, (1, 0)) == pytest.approx(-24)
    assert moment(L, (0, 1)) == pytest.approx(36)
    assert moment(L, (2, 0)) == pytest.approx(1272)
    assert moment(L, (1, 1)) == pytest.approx(-288)
    assert moment(L, (0, 2)) == pytest.approx(822)
    assert moment(L, (5, 0)) == pytest.approx(-497664)


def test_dual_truncation(quintic):
    L = to_dual(quintic)
    assert L.moments.shape == (21,)  # the monomials of degree <= 5 in 2 variables
    assert moment(L, (0, 5)) == L.moments[-1]
    with pytest.raises(KeyError):
        moment(L, (6, 0))
    with pytest.raises(KeyError):
        moment(L, (3, 3))


@pytest.mark.parametrize("name", EXACTNESS_FIXTURES + ["planted_5_4_12"])
def test_dual_moments_are_the_exact_quotients(name):
    # moment k is Python's complex quotient of the coefficient by its
    # multinomial, to the last bit (a complex-by-real numpy division, which
    # multiplies by a reciprocal, would not be)
    if name == "planted_5_4_12":
        f, _ = planted_poly(5, 4, 12, np.random.default_rng(0))
    else:
        f = (load_json_poly if name.endswith(".json") else load_text_poly)(name)
    d = f.degree
    want = []
    for beta in monomials_upto(f.nvars - 1, d):
        full = (d - sum(beta),) + beta
        want.append(f.coeff(full) / multinomial(d, full))
    got = to_dual(f).moments
    assert got.tolist() == want
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(np.array(want).view(float)))


def test_apolar_power_pairing():
    # pairing a form against (k.x)^d evaluates the form at k
    rng = np.random.default_rng(3)
    for _ in range(50):
        nv = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        f, _ = planted_poly(nv, d, min(3, d), rng)
        k = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        g = power_of_linear_form(k, d)
        assert apolar(f, g) == pytest.approx(evaluate(f, k), rel=1e-9)


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
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = change_coordinates(f, a)
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert evaluate(g, x) == pytest.approx(evaluate(f, a @ x), rel=1e-9)


def test_change_coordinates_pullback_points():
    # f(x) = g(A^H x) for unitary A: a decomposition found for g pulls back
    # to one for f through conj(A)
    rng = np.random.default_rng(13)
    f, terms = planted_poly(3, 3, 2, rng)
    a = random_unitary(3, rng)
    g = change_coordinates(f, a)
    wts = [w for w, _ in terms]
    g_points = [a.T @ k for _, k in terms]
    rebuilt_g = expand_power_sum(list(zip(wts, g_points)), 3, 3)
    assert poly_sub(rebuilt_g, g).coeff_norm() < 1e-9 * g.coeff_norm()
    back = [np.conj(a) @ m for m in g_points]
    rebuilt_f = expand_power_sum(list(zip(wts, back)), 3, 3)
    assert poly_sub(rebuilt_f, f).coeff_norm() < 1e-9 * f.coeff_norm()
    for k_orig, k_back in zip((k for _, k in terms), back):
        assert np.allclose(k_orig, k_back)


def _tuple_key_change_coordinates(f, a):
    """`change_coordinates` expanding over exponent tuples, kept as the
    reference for the integer-keyed expansion; `a` is (n, k)."""

    def mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    n, k = a.shape
    one = (0,) * k
    lin = []
    for i in range(n):
        row = {}
        for j in range(k):
            if a[i, j] != 0:
                e = [0] * k
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
    return HomogeneousPoly(k, f.degree, {e: v for e, v in out.items() if abs(v) > cutoff})


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
        kind = case % 4
        if kind == 0:
            a = np.eye(n)
        elif kind == 1:
            a = random_unitary(n, rng)
        elif kind == 2:
            a = np.eye(n) + rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        else:
            # orthonormal columns onto fewer variables, as `essential_vars` makes
            a = random_unitary(n, rng)[:, : int(rng.integers(1, n))]
        got = change_coordinates(f, a)
        want = _tuple_key_change_coordinates(f, a)
        assert got.nvars == want.nvars == a.shape[1]
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert coeff_bits(got) == coeff_bits(want)


def test_numerical_rank_rule():
    assert numerical_rank(np.array([])) == 0
    assert numerical_rank(np.zeros(3)) == 0
    # the cut is relative: 1e-8 of the largest singular value
    assert numerical_rank(np.array([2.0, 1.99e-8])) == 1
    assert numerical_rank(np.array([2.0, 2.01e-8])) == 2
    # a floor above the relative cut wins
    assert numerical_rank(np.array([1.0, 1e-3, 1e-6])) == 3
    assert numerical_rank(np.array([1.0, 1e-3, 1e-6]), floor=1e-4) == 2


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
    g = change_coordinates(HomogeneousPoly(3, 4, lifted), random_unitary(3, rng))
    count, q = essential_vars(g)
    assert count == 2
    assert q.shape == (3, 2)
    h = change_coordinates(g, q)
    assert h.nvars == 2
    # g depends on x only through q^H x: no mass of g is lost in h
    assert relative_error(change_coordinates(h, q.conj().T), g) < 1e-8


def test_essential_vars_invariant_under_unitaries():
    rng = np.random.default_rng(17)
    f, _ = planted_poly(3, 3, 2, rng)
    for _ in range(20):
        g = change_coordinates(f, random_unitary(3, rng))
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
    assert poly_sub(f, g).coeff_norm() < 1e-12 * f.coeff_norm()


def _reference_normalized(dec):
    """`Decomposition.normalized` as it was: one form at a time, the pivot
    found by a scalar scan."""
    out = []
    for i, (w, k) in enumerate(dec.terms, start=1):
        k = np.asarray(k, dtype=complex)
        big = np.max(np.abs(k))
        pivot = next((v for v in k if abs(v) > 1e-8 * big), None)
        if pivot is None:
            raise ValueError(f"form of term {i} is zero or not finite")
        out.append((complex(w) * pivot**dec.degree, k / pivot))
    return Decomposition(dec.degree, out, dec.residual)


def _outcome(fn, *args):
    """What `fn(*args)` gives, to the last bit, or the error it raises."""
    try:
        got = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, Decomposition):
        forms = np.array([[w, *k] for w, k in got.terms], dtype=complex)
        return got.degree, got.residual, forms.shape, forms.tobytes()
    return got.nvars, got.degree, coeff_bits(got)


def _cut_forms(rng, count):
    """Forms (a, b), b real, where 1e-8 b rounds to one ulp under |a|, to
    |a| or to one ulp over it, whichever a b reaches: a is the pivot only in
    the first case.  The modulus `abs` gives a complex scalar decides, which
    the vectorized `np.abs` misses by an ulp now and then."""
    out = []
    for _ in range(count):
        a = complex(*rng.standard_normal(2))
        for cut in (np.nextafter(abs(a), 0), abs(a), np.nextafter(abs(a), 1)):
            near = cut / 1e-8
            for b in (np.nextafter(near, 0), near, np.nextafter(near, np.inf)):
                if 1e-8 * b == cut:
                    out.append(np.array([a, b]))
                    break
    return out


def test_normalized_is_the_per_term_formulation_bit_for_bit():
    # planted terms in 2-5 variables, Sylvester's forms with roots at
    # infinity, forms led by zeros or by coordinates under the cut, first
    # coordinates one ulp either side of the cut, no terms at all, and forms
    # with no pivot: the same weights and forms to the last bit, or the same
    # error
    rng = np.random.default_rng(17)
    cases = [planted_poly(n, d, r, rng)[1] for n, d, r in
             [(2, 7, 3), (2, 20, 10), (3, 4, 5), (4, 3, 4), (5, 3, 5)]]
    cases.append(binary_decompose(parse_poly("x0^5*x1")).terms)
    cases.append([(2.0 - 1j, np.array(k, dtype=complex)) for k in
                  ([0, 0, 1 + 1j], [1e-9, 1, 0], [0, 1e-9j, -3], [1, 1e-7, 0])])
    cut = _cut_forms(rng, 40)
    assert len(cut) > 40
    cases.append([(complex(*rng.standard_normal(2)), k) for k in cut])
    cases.append([])
    cases += [[(1.0, np.array([1.0, 2.0])), (1.0, np.array(k))]
              for k in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0])]
    for terms in cases:
        for degree in (3, 8):
            dec = Decomposition(degree, terms, 0.25)
            assert _outcome(Decomposition.normalized, dec) == _outcome(_reference_normalized, dec)


@pytest.mark.parametrize("form", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
def test_normalizing_a_zero_or_non_finite_form_names_the_term(form):
    # no coordinate of such a form can be the pivot; the error says which term
    dec = Decomposition(2, [(1.0, np.array([1.0, 2.0])), (1.0, np.array(form))])
    with pytest.raises(ValueError, match="^form of term 2 is zero or not finite$"):
        dec.normalized()


@pytest.mark.parametrize(
    "text", ["x0^3 + x1^3 + 1e999*x2^3", "(1,1e999)*x0^2 + x1^2",
             "1e308*x0^2 + 1e308*x0^2 + x1^2",
             # the literals float() reads as non-finite are numbers, not
             # empty terms
             "nan*x0^3 + x1^3", "inf*x0^3 + x1^3", "x0^3 - Infinity*x1^3",
             "(1,NaN)*x0^2 + x1^2"]
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


def _reference_poly_from_json(obj):
    """`poly_from_json` as it was: every exponent entry read by `json_value`."""
    try:
        n = json_value(obj["nvars"], int, "nvars")
        d = json_value(obj["degree"], int, "degree")
        coeffs = {}
        for i, t in enumerate(json_value(obj["terms"], list, "terms"), start=1):
            exp = tuple(
                json_value(e, int, "exponent entry of term {}", i)
                for e in json_value(t["exp"], list, "exponent of term {}", i)
            )
            c = json_value(t["c"], complex, "coefficient of term {}", i)
            coeffs[exp] = coeffs.get(exp, 0) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad polynomial JSON: {exc}")
    return HomogeneousPoly(n, d, coeffs)


def _malformed_polys():
    """A valid binary cubic, then that object with each field in turn made
    wrong: missing, of another JSON type, or out of range; the term at fault
    is the second."""
    good = {"nvars": 2, "degree": 3,
            "terms": [{"exp": [3, 0], "c": [1.0, 0.0]}, {"exp": [1, 2], "c": [0.5, -2]}]}
    yield good
    wrong = [2.0, True, "2", None, [2], {"n": 2}]
    for key in ("nvars", "degree", "terms"):
        yield {k: v for k, v in good.items() if k != key}
        for v in wrong + [0, -1, []]:
            yield {**good, key: v}

    def with_second(term):
        return {**good, "terms": [good["terms"][0], term]}

    second = good["terms"][1]
    for term in ([1, 2], "t", 5, None, {}, {"exp": [1, 2]}, {"c": [0.5, -2]}):
        yield with_second(term)
    for exp in wrong + [3, [], [3], [1, 1, 1], [4, -1], [2, 0], [1.0, 2], [1, 2.0],
                        [True, 2], [1, "2"], [None, 2], [[1], 2], [1, {"e": 2}]]:
        yield with_second({**second, "exp": exp})
        yield with_second({"exp": exp})  # the exponent is read before "c"
    for c in wrong + [1, [1.0], [1.0, 2.0, 3.0], [True, 0], ["1", 0], [None, 0], [0, [1]],
                      [float("nan"), 0], [1, float("inf")], [0, 0], [-0.5, 2]]:
        yield with_second({**second, "c": c})
    # the same exponent twice: the coefficients add, to zero in the second
    yield {**good, "terms": [*good["terms"], {"exp": [1, 2], "c": [1, 0]}]}
    yield {**good, "terms": [*good["terms"], {"exp": [1, 2], "c": [-0.5, 2]}]}
    yield []


def test_poly_from_json_checks_and_words_every_field_as_before():
    # each malformed field gives the same error text; each valid object the
    # same form to the last bit, the fixtures too
    objs = list(_malformed_polys())
    objs += [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))
             if not p.name.endswith("_decomposition.json")]
    seen = set()
    for obj in objs:
        got = _outcome(poly_from_json, obj)
        assert got == _outcome(_reference_poly_from_json, obj), obj
        seen.add(got[0])
    assert {"ValueError", 2, 3, 5} <= seen


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


def test_expand_power_sum_skips_the_variables_no_form_uses(monkeypatch):
    rng = np.random.default_rng(41)
    for nvars, degree, unused in [(3, 4, [1]), (5, 3, [0, 3]), (4, 5, [0, 1, 2]), (6, 2, [5])]:
        _, terms = planted_poly(nvars, degree, 3, rng)
        terms = [(w, np.where(np.isin(np.arange(nvars), unused), 0, k)) for w, k in terms]
        got = expand_power_sum(terms, nvars, degree)
        ref = loop_expand_power_sum(terms, nvars, degree)
        exps = monomials(nvars, degree)
        a = np.array([got.coeff(e) for e in exps])
        b = np.array([ref.coeff(e) for e in exps])
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
        assert not any(e[i] for e in got.coeffs for i in unused)
    zero = [(1.5, np.zeros(3)), (2j, np.zeros(3))]
    assert expand_power_sum(zero, 3, 4).is_zero

    asked = []

    def recorded(nvars, degree):
        asked.append(nvars)
        return monomials(nvars, degree)

    monkeypatch.setattr(sys.modules["waring.core"], "monomials", recorded)
    k = np.zeros(31)
    k[30] = 2.0
    g = expand_power_sum([(3.0, k)], 31, 6)
    assert g.coeffs == {(0,) * 30 + (6,): 3.0 * 2.0**6}
    assert 31 not in asked


def test_evaluate_at_many_points():
    f, _ = planted_poly(3, 4, 3, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    many = evaluate(f, x)
    assert many.shape == (5,)
    for xi, v in zip(x, many):
        assert isinstance(evaluate(f, xi), complex)
        assert v == pytest.approx(evaluate(f, xi), rel=1e-14)
    with pytest.raises(ValueError):
        evaluate(f, x[0, :2])


# ---------------------------------------------------------------------------
# forms the package builds itself skip the constructor's checks, and the
# frame, residual and partials shortcuts skip whole forms: each against the
# path it replaced, bit for bit


def _fixture_forms():
    return [
        (load_json_poly if name.endswith(".json") else load_text_poly)(name)
        for name in EXACTNESS_FIXTURES
    ]


def _planted_forms():
    rng = np.random.default_rng(23)
    return [planted_poly(n, d, r, rng)[0]
            for n, d, r in ((2, 5, 2), (3, 3, 3), (3, 4, 5), (4, 3, 4), (5, 4, 7))]


def _validated_expand(terms, nvars, degree):
    """`expand_power_sum` as it was: the same sums, then the checking constructor."""
    exps = monomials(nvars, degree)
    weights = np.array([w for w, _ in terms], dtype=complex)
    values = weights @ monomial_values([k for _, k in terms], exps)
    values *= multinomials(nvars - 1, degree)
    return HomogeneousPoly(nvars, degree, dict(zip(exps, values.tolist())))


def _validated_sub(g, f):
    """g - f as it was: the checking constructor at every step."""
    neg = HomogeneousPoly(f.nvars, f.degree, {e: -1 * c for e, c in f.coeffs.items()})
    out = dict(g.coeffs)
    for e, c in neg.coeffs.items():
        out[e] = out.get(e, 0) + c
    return HomogeneousPoly(g.nvars, g.degree, out)


def _cancelling_cases():
    """(f, terms) whose power sum cancels coefficients exactly: x0*x1 of
    (x0 + x1)^2 + (x0 - x1)^2, and so every coefficient of x0^2 + x1^2 but
    f's own x0*x1; then a ternary cubic whose x1^3 cancels; then x0^2 + x1^2
    in three variables against a form with an x2^2, outside the power sum's
    monomials, whose coefficients make the order of the squares show in the
    residual's last bit."""
    one = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    cubic = [(1.0, np.array([1.0, 1.0, 0.5])), (-1.0, np.array([2.0, 1.0, 0.5])),
             (2.0 + 1j, np.array([1.0, 0.0, 1.0]))]
    return [
        (parse_poly("x0^2 + 3*x0*x1 + x1^2"), [(0.5, one[0]), (0.5, one[1])]),
        (parse_poly("x0^2 + x1^2"), [(0.5, one[0]), (0.5, one[1])]),
        (parse_poly("2*x0^3 - x0*x1^2 + (0,1)*x2^3"), cubic),
        (parse_poly("1.1*x0^2 + 0.1*x0*x1 + 0.9*x1^2 + 5*x2^2"),
         [(0.5, np.append(one[0], 0.0)), (0.5, np.append(one[1], 0.0))]),
    ]


def _residual_cases():
    rng = np.random.default_rng(29)
    cases = []
    for f in _fixture_forms() + _planted_forms():
        # terms near f (a fit) and far from it (the failing attempts)
        for scale in (1e-9, 0.3):
            terms = [(complex(rng.standard_normal(), rng.standard_normal()) * scale,
                      rng.standard_normal(f.nvars) + 1j * rng.standard_normal(f.nvars))
                     for _ in range(3)]
            cases.append((f, terms))
    for n, d, r in ((3, 4, 5), (4, 3, 4), (2, 6, 3)):
        f, terms = planted_poly(n, d, r, rng)
        cases.append((f, terms))  # the exact planted terms
    return cases + _cancelling_cases()


def test_package_built_forms_equal_the_checking_constructor():
    rng = np.random.default_rng(31)
    for f in _fixture_forms() + _planted_forms():
        g = HomogeneousPoly(f.nvars, f.degree, f.coeffs)
        for s in (-1, 0.5 - 2j, 3):
            want = HomogeneousPoly(f.nvars, f.degree, {e: s * c for e, c in f.coeffs.items()})
            assert coeff_bits(f.scale(s)) == coeff_bits(want)
        h = f.scale(-1)
        out = dict(f.coeffs)
        for e, c in h.coeffs.items():
            out[e] = out.get(e, 0) + c
        assert coeff_bits(poly_add(f, h)) == coeff_bits(HomogeneousPoly(f.nvars, f.degree, out)) == []
        assert coeff_bits(poly_sub(f, g)) == coeff_bits(_validated_sub(f, g))
        terms = [(complex(*rng.standard_normal(2)), rng.standard_normal(f.nvars) + 0j)
                 for _ in range(4)]
        assert coeff_bits(expand_power_sum(terms, f.nvars, f.degree)) == coeff_bits(
            _validated_expand(terms, f.nvars, f.degree))


def test_relative_error_is_the_subtraction_bit_for_bit():
    for f, terms in _residual_cases():
        g = expand_power_sum(terms, f.nvars, f.degree)
        old = _validated_sub(_validated_expand(terms, f.nvars, f.degree), f)
        assert [c.hex() for c in map(abs, coeff_difference(g, f))] == [
            c.hex() for c in map(abs, old.coeffs.values())]
        want = poly_sub(g, f).coeff_norm() / f.coeff_norm()
        assert relative_error(g, f).hex() == want.hex()
        assert want.hex() == (old.coeff_norm() / f.coeff_norm()).hex()
        # `accept` sums the same squares in the same order, with no g built
        assert accept(f, terms, math.inf).hex() == want.hex()


def test_exact_cancellation_keeps_the_subtraction_order():
    # x0^2 and x1^2 cancel to 0 and drop out; only f's own x0*x1 is left
    f, terms = _cancelling_cases()[0]
    g = expand_power_sum(terms, 2, 2)
    assert list(g.coeffs) == [(2, 0), (0, 2)]
    assert coeff_difference(g, f) == [-3]
    assert relative_error(g, f) == 3 / f.coeff_norm()
    f, terms = _cancelling_cases()[1]
    assert relative_error(expand_power_sum(terms, 2, 2), f) == 0.0


def _signed_zero_form():
    """A form holding -0.0 parts and coefficients at 1e-15 and 2e-14 of
    the largest: the first is dropped, the second kept."""
    f = parse_poly("4*x0^3 + (1,2)*x0*x1*x2 - 3*x1^2*x2 + x2^3 + x0^2*x1")
    f.coeffs[(3, 0, 0)] = complex(4.0, -0.0)
    f.coeffs[(1, 1, 1)] = complex(-0.0, 2.0)
    f.coeffs[(0, 2, 1)] = complex(-3.0, -0.0)
    f.coeffs[(0, 0, 3)] = complex(4e-15, 0.0)  # 1e-15 of |4 + 0i|
    f.coeffs[(2, 1, 0)] = complex(0.0, -8e-14)  # 2e-14 of it
    return f


def test_identity_frame_is_the_identity_change_bit_for_bit():
    forms = _fixture_forms() + _planted_forms() + [_signed_zero_form()]
    for f in forms:
        want = change_coordinates(f, np.eye(f.nvars))
        assert coeff_bits(identity_frame(f)) == coeff_bits(want)
    g = identity_frame(_signed_zero_form())
    assert (0, 0, 3) not in g.coeffs and (2, 1, 0) in g.coeffs
    assert g.coeffs[(3, 0, 0)].imag.hex() == g.coeffs[(0, 2, 1)].imag.hex() == "0x0.0p+0"
    assert g.coeffs[(1, 1, 1)].real.hex() == "0x0.0p+0"


def _quotient(exp, i):
    return exp[:i] + (exp[i] - 1,) + exp[i + 1:]


def _loop_essential_vars(f):
    """The partials matrix filled term by term, one column per quotient
    x^e / x_i of a term of f, in graded-lex order."""
    n = f.nvars
    quotients = {_quotient(exp, i) for exp in f.coeffs for i in range(n) if exp[i]}
    at = {e: j for j, e in enumerate(sorted(quotients, key=grlex_key))}
    p = np.zeros((n, len(at)), dtype=complex)
    for exp, c in f.coeffs.items():
        for i in range(n):
            if exp[i]:
                p[i, at[_quotient(exp, i)]] += exp[i] * c
    u, s, _ = np.linalg.svd(p, full_matrices=False)
    count = numerical_rank(s)
    return count, np.conj(u[:, :count])


def test_essential_vars_layout_matches_the_term_loop_bit_for_bit():
    rng = np.random.default_rng(37)
    hidden, _ = planted_poly(2, 4, 2, rng)
    lifted = HomogeneousPoly(3, 4, {(a, b, 0): c for (a, b), c in hidden.coeffs.items()})
    forms = _fixture_forms() + _planted_forms() + [
        _signed_zero_form(), parse_poly("x0 + (2,1)*x1 - x2"), parse_poly("7*x0^3", nvars=1),
        lifted, change_coordinates(lifted, random_unitary(3, rng)),
    ]
    for f in forms:
        count, q = essential_vars(f)
        want_count, want = _loop_essential_vars(f)
        assert count == want_count
        assert q.tobytes() == want.tobytes()


def test_upper_triangle_is_numpys_index_built_once_per_size():
    # the commutator equations, the eigenvalue gaps and the pairwise sines
    # share one read-only index per size
    for size in range(13):
        i, j = upper_triangle(size)
        want_i, want_j = np.triu_indices(size, k=1)
        assert i.tobytes() == want_i.tobytes() and j.tobytes() == want_j.tobytes()
        assert i.dtype == want_i.dtype and not i.flags.writeable and not j.flags.writeable
        assert upper_triangle(size) is upper_triangle(size)


def test_lstsq_is_numpys_bit_for_bit_on_the_weight_fits(monkeypatch, quintic, quartic):
    # the systems the two weight fits pass it: the binary path's (d+1, r)
    # points against the moments read backwards (a strided view), and the
    # spectral path's (known moments, r) evaluations, gathered from real
    # decompositions; the Gauss-Newton step's are in test_extension
    from waring.binary import binary_decompose
    from waring.decompose import decompose

    systems = []

    def recorded(a, b):
        systems.append((a, b))
        return lstsq(a, b)

    for name in ("waring.binary", "waring.spectral"):
        monkeypatch.setattr(sys.modules[name], "lstsq", recorded)
    for d, r in [(3, 1), (3, 2), (8, 4), (13, 6), (20, 10)]:
        f, _ = planted_poly(2, d, r, np.random.default_rng([d, r]))
        binary_decompose(f)
    binary_decompose(parse_poly("x0^2*x1"))  # rank 3 of degree 3
    decompose(quintic)
    decompose(quartic)
    shapes = {a.shape for a, _ in systems}
    assert {(4, 1), (4, 2), (4, 3), (21, 10), (21, 4), (15, 6)} <= shapes
    assert any(not b.flags.c_contiguous for _, b in systems)
    for a, b in systems:
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        with np.errstate(all="ignore"):
            got = lstsq(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
