import sys

import numpy as np
import pytest

from waring.core import (
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    LinearChange,
    change_coordinates,
    expand_power_sum,
    parse_poly,
    to_dual,
)
from waring.decompose import (
    OrbitClass,
    classify_ternary_cubic,
    decompose,
    rank,
    verify,
)
from waring.hankel import known_rank_bound, koszul_rank_bound

from conftest import QUINTIC_SUPPORT, load_json_poly, load_text_poly, planted_poly


def test_quintic_report(quintic):
    rep = decompose(quintic)
    assert rep.rank == 4
    assert rep.residual < 1e-7
    assert rep.free_count == 0
    assert rep.basis == [(0, 0), (1, 0), (0, 1), (2, 0)]
    got = {}
    for w, k in rep.decomposition.terms:
        assert abs(k[0] - 1) < 1e-9
        got[(round(k[1].real), round(k[2].real))] = w
    for w_true, p_true in QUINTIC_SUPPORT:
        key = tuple(int(x) for x in p_true)
        assert key in got
        assert got[key] == pytest.approx(w_true, rel=1e-6)


def test_quartic_rank_six(quartic):
    rep = decompose(quartic)
    assert rep.rank == 6
    assert rep.residual < 1e-6
    # six missing quintic moments, three left free by the equations
    assert rep.free_count == 3


def test_maximal_cubic_rank_five(maximal_cubic):
    rep = decompose(maximal_cubic)
    assert rep.rank == 5
    assert rep.residual < 1e-6
    # sizes 3 and 4 must be rejected on the way up: 12 failed attempts, which
    # the Gauss-Newton plateau exit shortens without changing their outcome
    assert rep.retries == 12
    assert rep.free_count == 5
    assert rep.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


def test_rank_examples():
    assert rank(parse_poly("x0^4 + 4x0^3*x1 + 6x0^2*x1^2 + 4x0*x1^3 + x1^4")) == 1
    assert rank(parse_poly("x0^3 + x1^3 + x2^3")) == 3
    assert rank(parse_poly("150x0^2*x2 + x1^2*x2 + x2^3 - 12x0^3")) == 4


def test_decompose_rejects_zero():
    with pytest.raises(ValueError):
        decompose(HomogeneousPoly(2, 3, {}))


def test_single_variable():
    rep = decompose(parse_poly("7*x0^3", nvars=1))
    assert rep.rank == 1
    w, k = rep.decomposition.terms[0]
    assert w * k[0] ** 3 == pytest.approx(7.0)


def test_max_rank_cap(maximal_cubic):
    with pytest.raises(DecompositionError):
        decompose(maximal_cubic, max_rank=4)


@pytest.mark.parametrize(
    "text, nvars, rank_found",
    [("x0^3 + x1^3", None, 2),            # binary path
     ("x0^3 + x1^3 + 0*x2^3", 3, 2),      # variable reduction to binary
     ("7*x0^3", 1, 1)],                   # one variable
)
def test_max_rank_cap_on_every_path(text, nvars, rank_found):
    f = parse_poly(text, nvars=nvars) if nvars else parse_poly(text)
    with pytest.raises(DecompositionError):
        decompose(f, max_rank=rank_found - 1)
    assert decompose(f, max_rank=rank_found).rank == rank_found


def test_binary_delegation():
    f = parse_poly("x0^4 + x1^4")
    rep = decompose(f)
    assert rep.rank == 2
    assert rep.basis == []
    assert rep.residual < 1e-10


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_binary_path_honours_tol(tol):
    # affine degree-20 binary form of rank 10 with a wide spread of term
    # sizes: a rank-7 candidate fits the moments to 1e-8 but misses the
    # coefficients by 1e-6.  Every slice reads as rank 7 under the 1e-8
    # singular-value cut; random kernel combinations fit within tol only from
    # rank 13 on, each slice's smallest right singular vector at rank 9 or 10
    f, _ = planted_poly(2, 20, 10, np.random.default_rng(1420))
    rep = decompose(f, tol=tol)
    assert rep.rank <= 10
    assert rep.residual <= tol
    assert verify(f, rep.decomposition).residual <= 1.01 * tol


@pytest.mark.parametrize(
    "fixture, rank_, retries, free_count, basis",
    [
        ("ternary_quintic_rank4.txt", 4, 0, 0, [[0, 0], [1, 0], [0, 1], [2, 0]]),
        ("ternary_quartic_rank6.txt", 6, 0, 3,
         [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]),
        ("cubic_maximal.txt", 5, 12, 5, [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1]]),
        # one failed rank-3 attempt, then the Koszul bound skips to rank 4
        ("cubic_generic_rank4.json", 4, 2, 2, [[0, 0], [1, 0], [0, 1], [1, 1]]),
        ("cubic_fermat.json", 3, 1, 0, [[0, 0], [1, 0], [0, 1]]),
        ("cubic_two_cubes.json", 2, 0, 0, []),
        ("cubic_square_line.json", 3, 0, 0, []),
        ("cubic_cube.json", 1, 0, 0, []),
    ],
    ids=["quintic", "quartic", "maximal_cubic", "generic_cubic", "fermat", "two_cubes",
         "square_line", "cube"],
)
def test_fixture_search_path_is_pinned(fixture, rank_, retries, free_count, basis):
    # the rank, the failed attempts on the way up, the free moments and the
    # basis (as `--format json` prints it) at seed 0; a change to the solver
    # that moves any of them changes the search, not only its speed
    load = load_json_poly if fixture.endswith(".json") else load_text_poly
    rep = decompose(load(fixture), seed=0)
    assert (rep.rank, rep.retries, rep.free_count) == (rank_, retries, free_count)
    assert [list(e) for e in rep.basis] == basis


def test_koszul_bound_skips_the_ranks_it_rules_out(monkeypatch):
    # a planted (4, 5, 11): catalecticant bound 10, Koszul bound 11, so one
    # rank-10 attempt fails and the search moves straight to rank 11
    module = sys.modules["waring.decompose"]
    sizes = []

    def counted(g, L, basis, opts, rng):
        sizes.append(len(basis))
        return attempt(g, L, basis, opts, rng)

    attempt = module._attempt
    monkeypatch.setattr(module, "_attempt", counted)
    f, _ = planted_poly(4, 5, 11, np.random.default_rng(3))
    rep = decompose(f)
    assert rep.rank == 11
    assert sizes.count(10) == 1
    assert (rep.lower_bound, rep.lower_bound_source) == (11, "koszul(2,1)")


def _with_noise(f, size, rng):
    """f plus complex Gaussian noise of `size` times its coefficient norm."""
    noise = rng.standard_normal(len(f.coeffs)) + 1j * rng.standard_normal(len(f.coeffs))
    noise *= size * f.coeff_norm() / np.linalg.norm(noise)
    return HomogeneousPoly(
        f.nvars, f.degree, {e: v + z for (e, v), z in zip(f.coeffs.items(), noise)})


def test_koszul_bound_leaves_room_for_the_noise_tol_allows(monkeypatch):
    # a planted (4, 5, 11) plus noise of 3e-8 of its norm: the planted terms
    # fit within tol 1e-7, so the search must try rank 11.  Counted at a
    # fixed cut, without the noise that tol allows, the noise reads as rank 12
    rng = np.random.default_rng([0, 4, 5, 11])
    f, _ = planted_poly(4, 5, 11, rng)
    g = _with_noise(f, 3e-8, rng)
    assert koszul_rank_bound(to_dual(g), 1e-12)[0] == 12
    assert koszul_rank_bound(to_dual(g), 1e-7)[0] == 11

    module = sys.modules["waring.decompose"]
    sizes = []

    def failed(g, L, basis, opts, rng):
        sizes.append(len(basis))

    monkeypatch.setattr(module, "_attempt", failed)
    with pytest.raises(DecompositionError, match="no decomposition of rank <= 11"):
        decompose(g, max_rank=11)
    assert sizes.count(10) == 1 and 11 in sizes


@pytest.mark.parametrize("draw", [0, 1, 5])
def test_catalecticant_bound_leaves_room_for_the_noise_tol_allows(monkeypatch, draw):
    # a planted (4, 4, 8) plus noise of 3e-8 of its norm: the planted terms
    # fit within tol 1e-7, so the search must try rank 8.  Counted at a fixed
    # cut, without the noise that tol allows, these draws read 9
    rng = np.random.default_rng([draw, 4, 4, 8])
    f, _ = planted_poly(4, 4, 8, rng)
    g = _with_noise(f, 3e-8, rng)
    assert known_rank_bound(to_dual(g), 1e-12) == 9
    assert known_rank_bound(to_dual(g), 1e-7) == 8

    module = sys.modules["waring.decompose"]
    sizes = []

    def failed(g, L, basis, opts, rng):
        sizes.append(len(basis))

    monkeypatch.setattr(module, "_attempt", failed)
    with pytest.raises(DecompositionError, match="no decomposition of rank <= 8"):
        decompose(g, max_rank=8)
    assert 8 in sizes


def test_ill_conditioned_quartic_reaches_rank_six():
    # rank <= 6, with terms spread over 1e6: the first basis's extension has
    # 3 free moments, and the point the solver reaches there is an answer
    f = parse_poly("(0,1)*x0^4 + x1^4 + x2^4 - 1000000*x0*x1*x2^2")
    rep = decompose(f)
    assert rep.rank == 6
    assert rep.residual <= 1e-7
    assert verify(f, rep.decomposition).residual <= 1.01e-7


def test_a_bound_above_max_rank_fails_at_once(quintic):
    cubic = load_json_poly("cubic_generic_rank4.json")
    with pytest.raises(DecompositionError, match=r"at least 4 by the koszul\(1,1\) bound"):
        decompose(cubic, max_rank=3)
    with pytest.raises(DecompositionError, match="at least 4 by the catalecticant bound"):
        decompose(quintic, max_rank=3)


@pytest.mark.parametrize(
    "text, nvars, bound, source",
    [
        ("x0^3 + x1^3 + x2^3", None, 3, "catalecticant"),  # first attempt succeeds
        ("150*x0^2*x2 + x1^2*x2 + x2^3 - 12*x0^3", None, 4, "koszul(1,1)"),
        ("x0^3 + x1^3 + x2^3 + 0*x3^3", 4, 3, "catalecticant"),  # reduced to 3 variables
        ("x0^4 + x1^4", None, None, None),  # binary path
        ("x0^3 + x1^3 + 0*x2^3", 3, None, None),  # reduced to a binary form
        ("7*x0^3", 1, None, None),  # one variable
    ],
)
def test_report_carries_the_lower_bound(text, nvars, bound, source):
    rep = decompose(parse_poly(text, nvars=nvars))
    assert (rep.lower_bound, rep.lower_bound_source) == (bound, source)
    if bound is not None:
        assert rep.rank >= bound


def test_degenerate_input_uses_fewer_variables():
    # a ternary form with only two essential variables
    rng = np.random.default_rng(29)
    g, _ = planted_poly(2, 4, 2, rng)
    lifted = HomogeneousPoly(
        3, 4, {e + (0,): c for e, c in g.coeffs.items()}
    )
    f = change_coordinates(lifted, LinearChange.random_unitary(3, rng))
    rep = decompose(f)
    assert rep.rank == 2
    assert rep.residual < 1e-8
    for _, k in rep.decomposition.terms:
        assert len(k) == 3
    vr = verify(f, rep.decomposition)
    assert vr.residual < 1e-8


def test_round_trip_spot_checks():
    rng = np.random.default_rng(11)
    for nv, d, r in [(3, 4, 5), (3, 5, 6), (4, 3, 4), (3, 3, 3)]:
        f, _ = planted_poly(nv, d, r, rng)
        rep = decompose(f)
        assert rep.rank == r, (nv, d, r, rep.rank)
        assert rep.residual < 1e-7


def test_rank_invariant_under_coordinate_changes(quintic):
    rng = np.random.default_rng(41)
    for _ in range(5):
        a = LinearChange.random_unitary(3, rng)
        assert rank(change_coordinates(quintic, a)) == 4


def test_verify_exact_and_perturbed():
    pts = [np.array([1, 2, 3]), np.array([1, -1, 0.5]), np.array([1, 0, -2])]
    wts = [2.0, -1.0, 0.5 + 0.25j]
    f = expand_power_sum(list(zip(wts, pts)), 3, 4)
    vr = verify(f, Decomposition(4, list(zip(wts, pts))))
    assert vr.residual < 1e-12
    assert vr.max_coeff_err < 1e-12
    assert vr.collisions == 0
    # second support point replaced by a scalar multiple of the first:
    # proportional forms collide and the rebuilt polynomial drifts
    vr2 = verify(f, Decomposition(4, list(zip(wts, [pts[0], pts[0] * 2.0, pts[2]]))))
    assert vr2.residual > 1e-3
    assert vr2.collisions == 1


@pytest.mark.parametrize("sine, want", [(3e-9, 1), (2e-8, 0)])
def test_verify_resolves_its_collision_threshold(sine, want):
    # two forms at a known projective angle on either side of verify's 1e-8
    # threshold, in random complex directions and at unequal scale and phase:
    # sqrt(1 - |<u,v>|^2) is only good to ~1e-8 here and misjudges some pairs
    rng = np.random.default_rng(11)
    f = parse_poly("x0^3 + x1^3 + x2^3")
    for _ in range(50):
        u, v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        u /= np.linalg.norm(u)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        k = (np.sqrt(1 - sine**2) * u + sine * v) * 2 * np.exp(1j * rng.uniform(0, 6))
        dec = Decomposition(3, [(1.0, u), (1.0, k)])
        assert verify(f, dec).collisions == want


def test_verify_rejects_shape_mismatch():
    f = parse_poly("x0^3 + x1^3")
    dec = Decomposition(2, [(1.0, np.array([1.0, 0.0]))])
    with pytest.raises(ValueError):
        verify(f, dec)


CLASSIFY_CASES = [
    ("x0^3", OrbitClass.CUBE),
    ("x0^2*x1 + x0*x1^2", OrbitClass.SUM_TWO_CUBES),
    ("x0^2*x1", OrbitClass.SQUARE_TIMES_LINE),
    ("x0^3 + x1^3 + x2^3", OrbitClass.FERMAT),
    ("150x0^2*x2 + x1^2*x2 + x2^3 - 12x0^3", OrbitClass.GENERIC),
    ("x0^2*x1 + x0*x2^2", OrbitClass.MAXIMAL),
]


@pytest.mark.parametrize("text,want", CLASSIFY_CASES, ids=[w.label for _, w in CLASSIFY_CASES])
def test_classify_canonical_cubics(text, want):
    src = parse_poly(text)
    f = HomogeneousPoly(
        3, src.degree, {e + (0,) * (3 - src.nvars): c for e, c in src.coeffs.items()}
    )
    got = classify_ternary_cubic(f)
    assert got is want
    assert got.rank == want.rank


def test_classify_rejects_wrong_shape():
    with pytest.raises(ValueError):
        classify_ternary_cubic(parse_poly("x0^3 + x1^3"))
    with pytest.raises(ValueError):
        classify_ternary_cubic(parse_poly("x0^4 + x1^4 + x2^4"))


def test_classify_stable_under_coordinate_changes():
    rng = np.random.default_rng(53)
    src = parse_poly("x0^3 + x1^3 + x2^3")
    for _ in range(3):
        g = change_coordinates(src, LinearChange.random_unitary(3, rng))
        assert classify_ternary_cubic(g) is OrbitClass.FERMAT


def test_seed_changes_are_reported(quintic):
    rep = decompose(quintic, seed=5)
    assert rep.seed == 5
    assert rep.rank == 4
