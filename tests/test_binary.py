import json
import sys

import numpy as np
import pytest

from waring.binary import (
    _moments,
    _projective_roots,
    _slice,
    _start,
    binary_decompose,
)
from waring.cli import main
from waring.core import (
    DEFAULT_TOL,
    MIN_SEPARATION,
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    accept,
    check_coeff_range,
    decomposition_from_json,
    decomposition_to_json,
    expand_power_sum,
    lstsq,
    monomial_values,
    numerical_rank,
    pairwise_sines,
    parse_poly,
    to_dual,
)
from waring.decompose import decompose

from conftest import hankel_slice, planted_poly, poly_add, poly_sub


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
        dec = binary_decompose(f, seed=trial, tol=1e-8)
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


def test_a_repeated_root_at_infinity_is_returned_and_refused(monkeypatch):
    # two vanishing leading coefficients: all r = 4 roots come back, (1, 0)
    # twice, and their pairwise sine is exactly 0
    pts = _projective_roots(np.array([1.0, -3.0, 2.0, 0.0, 0.0]))
    assert len(pts) == 4
    assert sum(np.array_equal(p, [1, 0]) for p in pts) == 2
    assert np.min(pairwise_sines(pts)) == 0
    # x0^5*x1 has rank 6: every candidate below it holds (1, 0) at least
    # twice, and the loop passes over each
    module = sys.modules["waring.binary"]
    seen = []

    def recorded(b):
        seen.append(roots(b))
        return seen[-1]

    roots = module._projective_roots
    monkeypatch.setattr(module, "_projective_roots", recorded)
    dec = binary_decompose(parse_poly("x0^5*x1"))
    assert dec.rank == 6
    below = [p for p in seen if len(p) < 6]
    assert below and all(sum(q[1] == 0 for q in p) >= 2 for p in below)
    assert np.min(pairwise_sines([m for _, m in dec.terms])) > 1e-8


# a sparse degree-14 form whose first rank-8 kernel candidate has distinct
# roots, two of them at pairwise sine 3.75e-5 with weights near +-3190, and
# fits to 2.4e-10: the support gate refuses it, as the rank search would
SPARSE_14 = (
    "(1.0396783363797986,-0.16837381365592605)*x0^14"
    " + (1.0457653397686908,-0.4033181157583828)*x0^11*x1^3"
    " + (0.29608848970633106,-0.9599856992825272)*x0^9*x1^5"
    " + (-0.0923057128105607,-1.674066531870293)*x0*x1^13"
    " + (1.5378444110734248,-0.018340150271273437)*x1^14"
)


def test_every_binary_route_returns_only_gated_terms(capsys):
    f = parse_poly(SPARSE_14)
    assert main(["sylvester", SPARSE_14, "--format", "json"]) == 0
    cli = decomposition_from_json(json.loads(capsys.readouterr().out))
    for dec in (decompose(f).decomposition, binary_decompose(f), cli):
        assert dec.rank == 8
        assert dec.residual <= 1e-7
        assert np.min(pairwise_sines([m for _, m in dec.terms])) >= MIN_SEPARATION



# ---------------------------------------------------------------------------
# the start at the catalecticant bound, against the loop from r = 1


def _reference_loop(p, seed=0, tol=DEFAULT_TOL, max_rank=None):
    """`binary_decompose` as it was before the catalecticant start: every
    size from r = 1, one SVD each, and numpy's lstsq wrapper for the weights."""
    c = to_dual(p).moments[::-1]
    d = p.degree
    scale = np.max(np.abs(c))
    rng = np.random.default_rng(seed)
    cap = d if max_rank is None else min(d, max_rank)
    for r in range(1, cap + 1):
        h = c[np.add.outer(np.arange(d + 1 - r), np.arange(r + 1))]  # c_{i+j}
        _, s, vh = np.linalg.svd(h / scale)
        null = vh[numerical_rank(s):].conj().T
        if null.shape[1] == 0:
            continue
        kernel = [null[:, -1]]
        if null.shape[1] > 1:
            mu = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            kernel.append(null @ (mu / np.linalg.norm(mu)))
        for b in kernel:
            pts = _projective_roots(b)
            a = monomial_values(pts, [(i, d - i) for i in range(d + 1)]).T
            w, *_ = np.linalg.lstsq(a, c, rcond=None)
            terms = list(zip(w, pts))
            res = accept(p, terms, tol)
            if res is not None:
                return Decomposition(d, terms, res)
    raise DecompositionError(f"no distinct-root kernel combination found up to r = {cap}")


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that gets one entry per `np.linalg.svd` call."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _report(decompose, f, kwargs, svd_calls):
    """(the JSON of the decomposition or the error message, SVDs taken), at
    tol 1e-8 unless `kwargs` names one: the tolerance these reports were
    first compared at."""
    svd_calls.clear()
    try:
        dec = decompose(f, **{"tol": 1e-8, **kwargs})
        out = json.dumps(decomposition_to_json(dec), sort_keys=True)
    except DecompositionError as exc:
        out = f"DecompositionError: {exc}"
    return out, len(svd_calls)


def _unit_planted(rng, d, r):
    """A binary form of degree d and rank r as the benchmark plants them:
    unit directions at pairwise chordal distance above 0.3 and unit weights,
    so the catalecticant is well conditioned and its numerical rank is r."""
    pts = []
    while len(pts) < r:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        if all(np.sqrt(max(0.0, 1 - abs(np.vdot(v, q)) ** 2)) > 0.3 for q in pts):
            pts.append(v)
    wts = np.exp(2j * np.pi * rng.uniform(size=r))
    return expand_power_sum(list(zip(wts, pts)), 2, d)


def _start_cases(group):
    if group == "planted":
        for d in range(3, 21):
            for r in range(1, d // 2 + 1):
                f, _ = planted_poly(2, d, r, np.random.default_rng([d, r]))
                yield f, {}
    elif group == "monomials":
        for a in range(21):
            for b in range(max(0, 2 - a), 21 - a):
                yield HomogeneousPoly(2, a + b, {(a, b): 1.0}), {}
    elif group == "affine_probe":
        # the known-defect probe: rank 9 at tol 1e-7, rank 10 at 1e-9
        f, _ = planted_poly(2, 20, 10, np.random.default_rng(1420))
        yield f, {"tol": 1e-7}
        yield f, {"tol": 1e-9}
    elif group == "scaled":
        # rank 1 and 2 far from 1 in scale: the start reads the moments over
        # their largest, so its noise floor and the probe's singular values
        # neither overflow nor underflow into a verdict
        shapes = [
            (6, [(1.0, [1, 3])]),  # (x0 + 3 x1)^6
            (5, [(1.0, [1, 0]), (-2.0, [0, 1])]),  # x0^5 - 2 x1^5
            (7, [(1.0, [1, 1j]), (1.0, [2, -1])]),  # (x0 + i x1)^7 + (2 x0 - x1)^7
        ]
        for k in (-150, -100, 100, 120, 150):
            for d, terms in shapes:
                scaled = [(w * 10.0**k, np.array(v, dtype=complex)) for w, v in terms]
                yield expand_power_sum(scaled, 2, d), {}
    elif group == "max_rank":
        for d in (4, 9, 14, 20):
            f = _unit_planted(np.random.default_rng(d), d, d // 2)
            for k in range(1, d // 2 + 1):
                yield f, {"max_rank": k}


def _probe_reads_one(f, kwargs) -> bool:
    """Whether the start reads the middle slice (or the one at max_rank) and
    its bound there is 1, so that the loop starts at r = 1 with an SVD of
    its own."""
    c = to_dual(f).moments[::-1]
    scale = np.max(np.abs(c))
    cap = min(f.degree, kwargs.get("max_rank", f.degree))
    floor = kwargs.get("tol", 1e-8) * f.coeff_norm() / scale
    start, r0, _ = _start(c / scale, cap, floor)
    return r0 is not None and start == 1


@pytest.mark.parametrize("group", ["planted", "monomials", "affine_probe", "scaled", "max_rank"])
def test_the_start_changes_no_report_and_adds_no_svd(group, svd_calls):
    # conftest-planted forms of degree 3-20 at every rank up to d // 2, every
    # x0^a x1^b of degree 2-20, the affine degree-20 probe at two tolerances
    # and max_rank at and below the bound: the same decomposition or the
    # same error as the loop from r = 1, and no more SVDs, but for the one
    # probe taken where its bound is 1
    cases = list(_start_cases(group))
    for f, kwargs in cases:
        want, want_svds = _report(_reference_loop, f, kwargs, svd_calls)
        got, got_svds = _report(binary_decompose, f, kwargs, svd_calls)
        assert got == want, (f.coeffs, kwargs)
        assert got_svds <= want_svds + _probe_reads_one(f, kwargs), (f.coeffs, kwargs)


@pytest.mark.parametrize("d", range(4, 21))
def test_a_pure_power_takes_two_svds(d, svd_calls):
    # the middle slice of l^d has rank 1, so the loop starts at r = 1 and
    # takes that slice's SVD too: one more than the loop from r = 1
    f = expand_power_sum([(1.0, np.array([1.0, 2.0 - 1j]))], 2, d)
    assert _probe_reads_one(f, {})
    want, want_svds = _report(_reference_loop, f, {}, svd_calls)
    got, got_svds = _report(binary_decompose, f, {}, svd_calls)
    assert json.loads(got)["rank"] == 1
    assert (got, got_svds, want_svds) == (want, 2, 1)


@pytest.mark.parametrize("d", range(3, 21))
def test_a_form_of_rank_half_the_degree_takes_one_svd(d, svd_calls):
    for seed in range(3):
        f = _unit_planted(np.random.default_rng([seed, d]), d, d // 2)
        assert _report(binary_decompose, f, {}, svd_calls)[1] == 1
        assert _report(_reference_loop, f, {}, svd_calls)[1] == d // 2


def test_max_rank_below_the_middle_costs_one_svd(svd_calls):
    # the bound is read off the slice at max_rank: past it the search fails
    # at once, and at it the loop reuses that slice
    f = _unit_planted(np.random.default_rng(20), 20, 10)
    for k in range(2, 10):
        got, svds = _report(binary_decompose, f, {"max_rank": k}, svd_calls)
        assert (got, svds) == (
            f"DecompositionError: no distinct-root kernel combination found up to r = {k}", 1)
        g = _unit_planted(np.random.default_rng(k), 20, k)
        got, svds = _report(binary_decompose, g, {"max_rank": k}, svd_calls)
        assert (json.loads(got)["rank"], svds) == (k, 1)


@pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6, 1e-4])
def test_the_start_is_sound_under_noise_up_to_tol(tol):
    # a planted form of rank r moved by coefficient noise of relative size
    # just under tol: no form within tol of the result has rank below the
    # start, so the start is at most r
    rng = np.random.default_rng(int(-np.log10(tol)))
    for d in range(4, 21):
        for r in range(1, d // 2 + 1):
            f, _ = planted_poly(2, d, r, rng)
            spread = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            for noise in (spread, np.eye(d + 1)[0], np.eye(d + 1)[d // 2]):
                e = 0.99 * tol * f.coeff_norm() * noise / np.linalg.norm(noise)
                g = poly_add(f, HomogeneousPoly(2, d, {(i, d - i): e[i] for i in range(d + 1)}))
                assert poly_sub(g, f).coeff_norm() <= tol * g.coeff_norm()
                c = to_dual(g).moments[::-1]
                scale = np.max(np.abs(c))
                start, _, _ = _start(c / scale, d, tol * g.coeff_norm() / scale)
                assert start <= r, (d, r, start)


# ---------------------------------------------------------------------------
# the roots in one array and the rng drawn only when a kernel needs it,
# against the per-root formulation


def _reference_projective_roots(b):
    """`_projective_roots` as it was: `np.roots`, then one array and one
    `np.linalg.norm` per root."""
    r = len(b) - 1
    top = np.max(np.abs(b))
    k = r
    while k >= 0 and abs(b[k]) <= 1e-10 * top:
        k -= 1
    at_infinity = r - k
    finite = np.roots(b[k::-1])  # exactly k roots, none for k = 0
    pts = [np.array([z, 1.0 + 0j]) for z in finite]
    pts += [np.array([1.0 + 0j, 0j])] * at_infinity
    return [p / np.linalg.norm(p) for p in pts]


def _reference_binary_decompose(p, seed=0, tol=DEFAULT_TOL, max_rank=None):
    """`binary_decompose` as it was: its rng made up front, the exponents
    listed per candidate and the roots from `_reference_projective_roots`."""
    check_coeff_range(p)
    c = _moments(p)
    d = p.degree
    scale = np.max(np.abs(c))
    rng = np.random.default_rng(seed)
    cap = d if max_rank is None else min(d, max_rank)
    u = c / scale
    start, r0, probe = _start(u, cap, tol * p.coeff_norm() / scale)
    for r in range(start, cap + 1):
        _, s, vh = probe if r == r0 else np.linalg.svd(_slice(u, r))
        null = vh[numerical_rank(s):].conj().T
        if null.shape[1] == 0:
            continue
        kernel = [null[:, -1]]
        if null.shape[1] > 1:
            mu = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            kernel.append(null @ (mu / np.linalg.norm(mu)))
        for b in kernel:
            pts = _reference_projective_roots(b)
            a = monomial_values(pts, [(i, d - i) for i in range(d + 1)]).T
            with np.errstate(all="ignore"):
                w = lstsq(a, c)
            terms = list(zip(w, pts))
            res = accept(p, terms, tol)
            if res is not None:
                return Decomposition(d, terms, res)
    raise DecompositionError(f"no distinct-root kernel combination found up to r = {cap}")


def _bits(dec):
    return dec.rank, dec.residual.hex(), np.array([[w, *k] for w, k in dec.terms]).tobytes()


# kernels with roots the loop meets less often: a repeated root at infinity,
# a vanishing trailing coefficient (a root 0), only roots 0, a root 0 beside
# two at infinity, and a leading coefficient either side of the 1e-10 cut
HAND_KERNELS = [
    [1.0, -3.0, 2.0, 0.0, 0.0],
    [0.0, 1.0, -2 + 1j, 3.0],
    [0.0, 0.0, 1.0],
    [0.0, 2.0, 0.0, 0.0],
    [1.0, 1j, 0.99e-10],
    [1.0, 1j, 1.01e-10],
]


def test_roots_are_the_per_root_formulation_bit_for_bit(monkeypatch):
    # every kernel candidate the loop hands `_projective_roots` on planted
    # forms of degree 2-20 at each rank up to d // 2 and on x0^a x1^b of
    # degree 2-12, the kernels above and random ones: the same roots, in
    # the same order, to the last bit
    module = sys.modules["waring.binary"]
    kernels = []

    def recorded(b):
        kernels.append(b.copy())
        return roots(b)

    roots = module._projective_roots
    monkeypatch.setattr(module, "_projective_roots", recorded)
    for d in range(2, 21):
        for r in range(1, d // 2 + 1):
            binary_decompose(planted_poly(2, d, r, np.random.default_rng([d, r]))[0])
    for a in range(13):
        for b in range(max(0, 2 - a), 13 - a):
            binary_decompose(HomogeneousPoly(2, a + b, {(a, b): 1.0}))
    assert any(k[-1] == 0 for k in kernels) and any(k[0] == 0 for k in kernels)
    rng = np.random.default_rng(5)
    kernels += [np.array(k, dtype=complex) for k in HAND_KERNELS]
    kernels += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in range(2, 22)]
    for b in kernels:
        got = _projective_roots(b)
        want = np.array(_reference_projective_roots(b), dtype=complex).reshape(-1, 2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), b


@pytest.fixture
def rng_calls(monkeypatch):
    """A list that gets one entry per `np.random.default_rng` call."""
    calls = []
    make = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


@pytest.mark.parametrize("text,rank", [("x0^3*x1^2", 4), ("x0^7*x1", 8)])
def test_a_kernel_combination_draws_as_before(text, rank, rng_calls):
    # the two binary reports CI's byte-identity loop takes from the random
    # kernel combination: the rng is made where it is first drawn from, and
    # its draws, so the terms, are the same to the last bit
    f = parse_poly(text)
    got = binary_decompose(f)
    assert rng_calls == [(0,)]
    assert got.rank == rank
    assert _bits(got) == _bits(_reference_binary_decompose(f))


def test_one_dimensional_kernels_make_no_rng(rng_calls):
    # planted forms of rank d // 2, the benchmark's: one kernel vector each
    for d in range(3, 21):
        f = _unit_planted(np.random.default_rng([7, d]), d, d // 2)
        rng_calls.clear()
        got = binary_decompose(f)
        assert got.rank == d // 2
        assert rng_calls == []
        assert _bits(got) == _bits(_reference_binary_decompose(f))
