"""Rank-loop driver: reduce variables, extend the dual, solve, verify.

The search tries ranks from a lower bound upward: the catalecticant bound,
raised after the first failed attempt to the Koszul flattening bound when that
is higher.  At each rank it works through a few coordinate frames (identity
first, then random unitary changes) and a few connected monomial bases per
frame; a candidate is accepted only when the re-expanded power sum matches
the input coefficients to the requested tolerance, in the original
coordinates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import combinations, islice

import numpy as np

from .binary import binary_decompose
from .core import (
    Decomposition,
    DecompositionError,
    DualForm,
    Exponent,
    HomogeneousPoly,
    LinearChange,
    change_coordinates,
    essential_vars,
    expand_power_sum,
    monomials_upto,
    pairwise_sines,
    pullback_points,
    to_dual,
)
from .extension import extend_dual
from .hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    known_rank_bound,
    koszul_rank_bound,
    shifted_matrix,
)
from .spectral import pencil_support, solve_weights


COORD_CHANGES = 3  # coordinate frames tried per rank: identity, then random unitary
BASES_PER_RANK = 3  # bases tried per frame and rank
# support-quality gate: genuine simple-point decompositions keep their
# forms apart and their term masses comparable to the polynomial itself;
# a borderline form approximated from below shows near-coincident points
# with huge cancelling weights instead
MIN_SEPARATION = 1e-4
MASS_RATIO_CAP = 1e4


@dataclass
class DecomposeOptions:
    tol: float = 1e-7
    max_rank: int | None = None
    seed: int = 0


@dataclass
class DecomposeReport:
    """What the search did, alongside the decomposition itself."""

    rank: int
    decomposition: Decomposition
    basis: list[Exponent]
    free_count: int
    retries: int
    residual: float
    seed: int
    # the rank is at least `lower_bound`, shown by `lower_bound_source`:
    # "catalecticant" or "koszul(delta,p)"; None off the rank loop (binary
    # forms, one variable)
    lower_bound: int | None = None
    lower_bound_source: str | None = None


class OrbitClass(enum.Enum):
    """Projective equivalence classes of nonzero ternary cubics."""

    CUBE = ("Cube", 1)
    SUM_TWO_CUBES = ("SumTwoCubes", 2)
    SQUARE_TIMES_LINE = ("SquareTimesLine", 3)
    FERMAT = ("Fermat", 3)
    GENERIC = ("Generic", 4)
    MAXIMAL = ("Maximal", 5)

    def __init__(self, label: str, rank: int):
        self.label = label
        self.rank = rank


@dataclass
class VerifyReport:
    residual: float
    max_coeff_err: float
    collisions: int


def _options(opts, overrides) -> DecomposeOptions:
    if opts is None:
        opts = DecomposeOptions()
    if overrides:
        opts = replace(opts, **overrides)
    return opts


def _relative_err(f: HomogeneousPoly, terms) -> float:
    rebuilt = expand_power_sum(terms, f.nvars, f.degree)
    return (rebuilt - f).coeff_norm() / f.coeff_norm()


def _support_ok(g: HomogeneousPoly, terms) -> bool:
    """Reject numerically degenerate supports (both tests are unitary
    invariants, so checking in the working frame is enough)."""
    cap = MASS_RATIO_CAP * g.coeff_norm()
    if any(abs(w) * np.linalg.norm(k) ** g.degree > cap for w, k in terms):
        return False
    return not np.any(pairwise_sines([k for _, k in terms]) < MIN_SEPARATION)


def _restrict(g: HomogeneousPoly, count: int) -> HomogeneousPoly:
    """Drop the trailing variables of a form that only uses the first few."""
    kept: dict[Exponent, complex] = {}
    dropped = 0.0
    biggest = max(abs(c) for c in g.coeffs.values())
    for exp, c in g.coeffs.items():
        if any(exp[count:]):
            dropped = max(dropped, abs(c))
        else:
            kept[exp[:count]] = c
    if dropped > 1e-6 * biggest:
        raise DecompositionError(
            f"variable reduction left a coefficient of size {dropped:.3g}"
        )
    return HomogeneousPoly(count, g.degree, kept)


def _basis_candidates(L: DualForm, r: int, limit: int) -> list[MonomialBasis]:
    """Connected bases of size r, most promising first.

    A fully known nonsingular principal minor is the best start when one
    exists at this size; after that come the graded-lex prefix and a few
    other choices of top-degree monomials.
    """
    out: list[MonomialBasis] = []
    seen = set()

    def push(exps):
        if len(out) >= limit:
            return
        key = tuple(sorted(exps))
        if key in seen:
            return
        seen.add(key)
        try:
            out.append(MonomialBasis(L.nvars, exps))
        except ValueError:
            pass

    pm = full_rank_principal_minor(L, size=r)
    if pm is not None:
        push(pm.exponents)
    pool = monomials_upto(L.nvars, max(1, L.degree - 1))
    if len(pool) >= r:
        lower = pool[:r]
        top = sum(lower[-1])
        head = [m for m in lower if sum(m) < top]
        block = [m for m in pool if sum(m) == top]
        for combo in islice(combinations(block, r - len(head)), 60):
            if len(out) >= limit:
                break
            push(head + list(combo))
    return out


def _attempt(g: HomogeneousPoly, L: DualForm, basis: MonomialBasis, opts, rng):
    """One basis: extension, eigenstructure, weights, in-frame verification."""
    ext = extend_dual(L, basis, seed=opts.seed)
    if ext is None:
        return None
    assign = ext.assignment
    d0 = build_hankel(L, basis.exponents, basis.exponents).value_matrix(assign)
    shifts = [
        shifted_matrix(L, basis, i).value_matrix(assign) for i in range(L.nvars)
    ]
    ps = pencil_support(d0, shifts, basis, rng)
    if ps is None:
        return None
    w, moment_res = solve_weights(ps, L)
    if not np.isfinite(moment_res) or moment_res > 1e-2:
        return None
    terms = [
        (w[j], np.concatenate([[1.0 + 0j], z])) for j, z in enumerate(ps.points)
    ]
    if not _support_ok(g, terms):
        return None
    if _relative_err(g, terms) > opts.tol:
        return None
    return terms, ext.free_count


def _rank_loop(f: HomogeneousPoly, opts: DecomposeOptions) -> DecomposeReport:
    n, d = f.nvars, f.degree
    rng = np.random.default_rng(opts.seed)
    cap = opts.max_rank if opts.max_rank is not None else math.comb(n + d - 1, d)
    frames: list[tuple[LinearChange, HomogeneousPoly, DualForm]] = []

    def frame(i: int):
        while len(frames) <= i:
            a = (
                LinearChange.identity(n)
                if not frames
                else LinearChange.random_unitary(n, rng)
            )
            g = change_coordinates(f, a)
            frames.append((a, g, to_dual(g)))
        return frames[i]

    def candidates(r: int):
        for ci in range(COORD_CHANGES):
            a, g, L = frame(ci)
            for basis in _basis_candidates(L, r, BASES_PER_RANK):
                yield a, g, L, basis

    lower = max(1, known_rank_bound(frame(0)[2], opts.tol))
    source = "catalecticant"
    retries = 0
    r = lower
    while r <= cap:
        after = r + 1
        for a, g, L, basis in candidates(r):
            got = _attempt(g, L, basis, opts, rng)
            if got is not None:
                terms, free = got
                pulled = pullback_points([k for _, k in terms], a)
                final = list(zip([w for w, _ in terms], pulled))
                res = _relative_err(f, final)
                if res <= opts.tol:
                    dec = Decomposition(d, final, res).normalized()
                    return DecomposeReport(
                        r, dec, list(basis.exponents), free, retries, res, opts.seed,
                        lower, source,
                    )
            retries += 1
            if retries == 1:
                # the flattenings may rule out more ranks; only inputs that
                # need a second attempt pay for them
                bound, shape = koszul_rank_bound(frame(0)[2], opts.tol)
                if bound > lower:
                    lower, source = bound, "koszul({},{})".format(*shape)
                if lower > r:
                    after = lower
                    break
        r = after
    if lower > cap:
        raise DecompositionError(
            f"the rank is at least {lower} by the {source} bound, above the cap {cap}"
        )
    raise DecompositionError(
        f"no decomposition of rank <= {cap} found at tolerance {opts.tol}"
    )


def decompose(
    f: HomogeneousPoly, opts: DecomposeOptions | None = None, **overrides
) -> DecomposeReport:
    """Minimal power-sum decomposition of a nonzero homogeneous polynomial."""
    opts = _options(opts, overrides)
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    if f.nvars == 1:
        if opts.max_rank is not None and opts.max_rank < 1:
            raise DecompositionError(f"rank 1 exceeds max_rank {opts.max_rank}")
        c = f.coeff((f.degree,))
        dec = Decomposition(f.degree, [(c, np.ones(1, dtype=complex))], 0.0)
        return DecomposeReport(1, dec, [], 0, 0, 0.0, opts.seed)

    count, reducer = essential_vars(f)
    if count < f.nvars:
        g = _restrict(change_coordinates(f, reducer), count)
        rep = decompose(g, opts)
        pad = np.zeros(f.nvars - count, dtype=complex)
        small = rep.decomposition
        lifted = [np.concatenate([k, pad]) for _, k in small.terms]
        final = list(zip([w for w, _ in small.terms], pullback_points(lifted, reducer)))
        res = _relative_err(f, final)
        dec = Decomposition(f.degree, final, res).normalized()
        return replace(rep, decomposition=dec, residual=res)

    if f.nvars == 2:
        dec = binary_decompose(
            f, rng_seed=opts.seed, tol=opts.tol, max_rank=opts.max_rank
        ).normalized()
        return DecomposeReport(dec.rank, dec, [], 0, 0, dec.residual, opts.seed)
    return _rank_loop(f, opts)


def rank(f: HomogeneousPoly, opts: DecomposeOptions | None = None, **overrides) -> int:
    return decompose(f, opts, **overrides).rank


def verify(f: HomogeneousPoly, dec: Decomposition) -> VerifyReport:
    """Residuals of a claimed decomposition, plus proportional-form collisions."""
    if not dec.terms:
        raise ValueError("empty decomposition")
    if dec.degree != f.degree:
        raise ValueError("decomposition does not match the polynomial's shape")
    for i, (_, k) in enumerate(dec.terms, start=1):
        if len(k) != f.nvars:
            raise ValueError(f"form of term {i} has {len(k)} entries, expected {f.nvars}")
        if not np.any(k):
            raise ValueError(f"form of term {i} is zero")
    rebuilt = expand_power_sum(dec.terms, f.nvars, f.degree)
    diff = rebuilt - f
    residual = diff.coeff_norm() / f.coeff_norm()
    biggest = max(abs(c) for c in f.coeffs.values())
    max_err = max(
        (abs(c) for c in diff.coeffs.values()), default=0.0
    ) / biggest
    collisions = int(np.sum(pairwise_sines([k for _, k in dec.terms]) <= 1e-8))
    return VerifyReport(float(residual), float(max_err), collisions)


def _restriction_has_double_root(f: HomogeneousPoly, p, q) -> bool:
    # fit the cubic t -> f(p + t q) through four nodes, then test its
    # discriminant on max-normalized coefficients
    nodes = np.array([0.0, 1.0, -1.0, 2.0])
    vals = f.evaluate(p + nodes[:, None] * q)
    b = np.linalg.solve(np.vander(nodes, 4, increasing=True), vals)
    b = b / np.max(np.abs(b))
    b0, b1, b2, b3 = b
    disc = (
        18 * b3 * b2 * b1 * b0
        - 4 * b2**3 * b0
        + b2**2 * b1**2
        - 4 * b3 * b1**3
        - 27 * b3**2 * b0**2
    )
    return abs(disc) <= 1e-8


def _square_free(f: HomogeneousPoly, seed: int) -> bool:
    """Restrict to random lines; a repeated factor forces double roots on all."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if _restriction_has_double_root(f, p / np.linalg.norm(p), q / np.linalg.norm(q)):
            return False
    return True


def classify_ternary_cubic(
    f: HomogeneousPoly, seed: int = 0, tol: float = 1e-7
) -> OrbitClass:
    """Projective class of a nonzero cubic in three variables."""
    if f.nvars != 3 or f.degree != 3:
        raise ValueError("classification needs a ternary cubic")
    r = decompose(f, seed=seed, tol=tol).rank
    if r == 1:
        return OrbitClass.CUBE
    if r == 2:
        return OrbitClass.SUM_TWO_CUBES
    if r == 3:
        return OrbitClass.FERMAT if _square_free(f, seed) else OrbitClass.SQUARE_TIMES_LINE
    if r == 4:
        return OrbitClass.GENERIC
    if r == 5:
        return OrbitClass.MAXIMAL
    raise DecompositionError(f"ternary cubic classified with impossible rank {r}")
