"""Rank-loop driver: reduce variables, extend the dual, solve, verify.

The search tries ranks from a lower bound upward: the catalecticant bound,
raised to the Koszul flattening bound when that is higher.  The flattenings
are read once: before the first attempt when the catalecticant bound sits at
its ceiling, the size of the middle block, and otherwise after the first
failed attempt.  At each rank it works through two coordinate frames (the
identity, then one random unitary change), both reading one walk of the
monomial bases that are order ideals (sets holding every divisor of each
member), the fully known principal minor first.  A basis whose fully known
Hankel columns are rank-deficient is pruned without an extension; it counts
as a retry, like a failed attempt, and a rank that a bound rules out counts
as none.  An attempt is one pass: each basis is extended, its pencil read and
its weights fitted once; the terms, pulled back to the input's coordinates,
are judged there by `core.accept`, the support gate and fit test that
Sylvester's route and the variable reduction apply too.  The search never
goes above a proven maximum rank: MAX_RANK for the shapes it lists, twice the
generic rank otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import islice, tee
from typing import Callable, NamedTuple

import numpy as np

from .binary import binary_decompose
from .core import (
    DEFAULT_TOL,
    Decomposition,
    DecompositionError,
    DualForm,
    Exponent,
    HomogeneousPoly,
    accept,
    change_coordinates,
    check_request,
    essential_vars,
    expand_power_sum,
    fit_difference,
    identity_frame,
    ordered_norm,
    pairwise_sines,
    random_unitary,
    to_dual,
)
from .extension import extend_dual
from .hankel import (
    IDEALS_PER_RANK,
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    known_columns_test,
    known_rank_bound,
    koszul_rank_bound,
    order_ideals,
    shifted_matrix,
)
from .spectral import pencil_support, solve_weights


# (nvars, degree): (the failure message's name for it, proven maximum rank);
# ternary cubics by their orbit classification, ternary quartics by Kleppe
# (1999)
MAX_RANK = {(3, 3): ("the maximum for ternary cubics", 5),
            (3, 4): ("the maximum for ternary quartics", 7)}
# (nvars, degree), degree >= 3, whose generic rank is one above
# ceil(C(n+d-1, d) / n) (Alexander-Hirschowitz 1995)
DEFECTIVE = {(3, 4), (4, 4), (5, 4), (5, 3)}


@dataclass
class DecomposeReport:
    """What the search did, alongside the decomposition itself."""

    decomposition: Decomposition
    basis: list[Exponent]
    free_count: int
    retries: int
    seed: int
    # the rank is at least `lower_bound`, shown by `lower_bound_source`:
    # "catalecticant" or "koszul(delta,p)"; None off the rank loop (binary
    # forms, one variable)
    lower_bound: int | None = None
    lower_bound_source: str | None = None
    # the number of variables the input really uses, read once by
    # `essential_vars` (1 for a form in one variable)
    essential: int | None = None

    @property
    def rank(self) -> int:
        return self.decomposition.rank

    @property
    def residual(self) -> float:
        return self.decomposition.residual


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


class _Frame(NamedTuple):
    """A coordinate frame x = A y and what its walks read, each built once:
    f's dual form L in the frame, and L's `known_columns_test`."""

    a: np.ndarray
    L: DualForm
    test: Callable[[list], bool]


def _basis_candidates(frame: _Frame, walk, r: int):
    """The bases of size r the rank loop tries in one frame, in order, each
    with whether it passes the frame's known-columns test; one that does not
    is pruned, never extended.

    `walk` yields the order ideals of size r in `order_ideals` order.  The
    fully known nonsingular principal minor comes first; then the others in
    walk order, each tested once: the search failed every ideal of degree
    <= d/2 it read, and it stops at the first ideal past that degree.
    """
    n, half = frame.L.nvars, frame.L.degree // 2
    walk, read = iter(walk), []  # read: the ideals the search takes from walk
    taken = (read.append(ideal) or ideal for ideal in walk)
    pm = full_rank_principal_minor(taken, frame.test, half)
    if pm is not None:
        yield pm, True
        read.pop()
    for ideal in read:
        yield MonomialBasis(n, ideal), sum(ideal[-1]) > half and frame.test(ideal)
    for ideal in walk:
        yield MonomialBasis(n, ideal), frame.test(ideal)


def _attempt(f: HomogeneousPoly, frame, basis: MonomialBasis, tol: float, seed: int, rng):
    """One basis in the frame (A, L): extension, eigenstructure and weights;
    then the terms are pulled back to the input's coordinates and judged
    there by `accept`.  Returns (the accepted decomposition, free_count), or
    None."""
    a, L = frame.a, frame.L
    ext = extend_dual(L, basis, seed=seed)
    if ext is None:
        return None
    d0 = build_hankel(L, basis.exponents, basis.exponents).value_matrix(ext.moments)
    shifts = [
        shifted_matrix(L, basis, i).value_matrix(ext.moments) for i in range(L.nvars)
    ]
    points = pencil_support(d0, shifts, basis, rng)
    if points is None:
        return None
    w = solve_weights(points, L)
    forms = np.hstack([np.ones((len(points), 1), dtype=complex), points])
    dec = accept(f, [(wi, np.conj(a) @ m) for wi, m in zip(w, forms)], tol)
    return None if dec is None else (dec, ext.free_count)


def _raise_to_koszul(L0: DualForm, tol: float, lower: int, source: str) -> tuple[int, str]:
    """(lower, source) raised to the Koszul flattening bound when that is
    higher; only the flattenings that can raise it past `lower` are read."""
    bound, shape = koszul_rank_bound(L0, tol, lower)
    return (bound, "koszul({},{})".format(*shape)) if bound > lower else (lower, source)


def _rank_loop(f: HomogeneousPoly, tol: float, max_rank: int | None, seed: int) -> DecomposeReport:
    n, d = f.nvars, f.degree
    rng = np.random.default_rng(seed)
    # every rank is at most twice the generic rank g (Blekherman-Teitler,
    # Math. Ann. 2015); at n >= 3, 2g is at most C(n+d-1, d)
    g = n if d == 2 else -(-math.comb(n + d - 1, d) // n) + ((n, d) in DEFECTIVE)
    named, top = MAX_RANK.get((n, d), ("twice the generic rank, by Blekherman-Teitler", 2 * g))
    cap = top if max_rank is None else min(max_rank, top)
    L0 = to_dual(identity_frame(f))
    frames = [_Frame(np.eye(n), L0, known_columns_test(L0))]

    def candidates(r: int):
        # one walk per rank: the first frame draws it, the second re-reads it
        walks = tee(islice(order_ideals(n - 1, r, max(1, d - 1)), IDEALS_PER_RANK))
        for i, walk in enumerate(walks):
            if i == len(frames):
                # one random unitary change, drawn at the first rank that gets
                # here: it moves support points off the hyperplane x0 = 0 (two
                # of the Fermat cubic's three points lie on it)
                a = random_unitary(n, rng)
                L1 = to_dual(change_coordinates(f, a))
                frames.append(_Frame(a, L1, known_columns_test(L1)))
            for basis, full in _basis_candidates(frames[i], walk, r):
                yield frames[i], basis, full

    lower = max(1, known_rank_bound(L0, tol))
    source = "catalecticant"
    # at its ceiling, the size of the middle block, the catalecticant can say
    # no more, so the flattenings are read before the first attempt; below it
    # only inputs that need a second attempt pay for them
    koszul_first = lower == math.comb(n - 1 + d // 2, d // 2)
    if koszul_first:
        lower, source = _raise_to_koszul(L0, tol, lower, source)
    retries = 0
    r = lower
    while r <= cap:
        for fr, basis, full in candidates(r):
            got = _attempt(f, fr, basis, tol, seed, rng) if full else None
            if got is not None:
                dec, free = got
                return DecomposeReport(
                    dec, list(basis.exponents), free, retries, seed, lower, source
                )
            retries += 1
            if retries == 1 and not koszul_first:
                lower, source = _raise_to_koszul(L0, tol, lower, source)
                if lower > r:
                    break
        r = max(r + 1, lower)
    if lower > cap:
        raise DecompositionError(
            f"the rank is at least {lower} by the {source} bound, above the cap {cap}"
        )
    why = f" ({named})" if cap == top else ""
    raise DecompositionError(
        f"no decomposition of rank <= {cap}{why} found at tolerance {tol}"
    )


def decompose(
    f: HomogeneousPoly, *, tol: float = DEFAULT_TOL, max_rank: int | None = None, seed: int = 0
) -> DecomposeReport:
    """Minimal power-sum decomposition of a nonzero homogeneous polynomial.

    One pass: the request is checked, raising ValueError before any search
    on one `core.check_request` refuses; f's essential variables are read
    once, unless f is in one variable; a form that uses fewer variables than
    it is written in is decomposed in those by `_route`, and its terms,
    mapped back, are judged against f by `accept`.  When they fail, the
    variables dropped were not noise, and f itself goes to `_route`.
    """
    check_request(f, tol, max_rank, seed)
    # binary forms are read too: a near-power reduces to one variable and
    # rank 1 within tol, where Sylvester's kernel, counted with a fixed cut
    # and not with tol, can say rank 2 or more
    count, q = essential_vars(f) if f.nvars > 1 else (1, None)
    dec = None
    if count < f.nvars:
        rep = _route(change_coordinates(f, q), tol, max_rank, seed)
        dec = accept(f, [(w, np.conj(q) @ k) for w, k in rep.decomposition.terms], tol)
    if dec is None:
        rep = _route(f, tol, max_rank, seed)
        dec = rep.decomposition
    return replace(rep, decomposition=dec, essential=count)


def _route(g: HomogeneousPoly, tol: float, max_rank: int | None, seed: int) -> DecomposeReport:
    """The search for g by its variable count: one term, Sylvester's
    algorithm for binary forms, or the rank loop."""
    if g.nvars > 2:
        return _rank_loop(g, tol, max_rank, seed)
    if g.nvars == 2:
        dec = binary_decompose(g, seed=seed, tol=tol, max_rank=max_rank)
    else:
        dec = accept(g, [(g.coeff((g.degree,)), np.ones(1, dtype=complex))], tol)
    return DecomposeReport(dec, [], 0, 0, seed)


def rank(
    f: HomogeneousPoly, *, tol: float = DEFAULT_TOL, max_rank: int | None = None, seed: int = 0
) -> int:
    return decompose(f, tol=tol, max_rank=max_rank, seed=seed).rank


def verify(f: HomogeneousPoly, dec: Decomposition) -> VerifyReport:
    """Residuals of a claimed decomposition, plus proportional-form collisions."""
    if f.is_zero:
        raise ValueError("cannot verify against the zero polynomial")
    f_norm = check_request(f)
    if not dec.terms:
        raise ValueError("empty decomposition")
    if dec.degree != f.degree:
        raise ValueError("decomposition does not match the polynomial's shape")
    for i, (_, k) in enumerate(dec.terms, start=1):
        if len(k) != f.nvars:
            raise ValueError(f"form of term {i} has {len(k)} entries, expected {f.nvars}")
        if not np.any(k):
            raise ValueError(f"form of term {i} is zero")
    diff = fit_difference(expand_power_sum(dec.terms, f.nvars, f.degree).coeffs, f)
    residual = ordered_norm(diff) / f_norm
    biggest = max(abs(c) for c in f.coeffs.values())
    max_err = max((abs(c) for c in diff), default=0.0) / biggest
    collisions = int(np.sum(pairwise_sines([k for _, k in dec.terms]) <= 1e-8))
    return VerifyReport(float(residual), float(max_err), collisions)


def classify_ternary_cubic(
    f: HomogeneousPoly, seed: int = 0, tol: float = DEFAULT_TOL
) -> OrbitClass:
    """Projective class of a nonzero cubic in three variables.

    The rank decides the class, except at rank 3, where the `essential_vars`
    count that `decompose` read does: a cubic with a repeated linear factor
    is l^2 m or l^3 in suitable coordinates, so it uses at most two variables.
    """
    if f.nvars != 3 or f.degree != 3:
        raise ValueError("classification needs a ternary cubic")
    rep = decompose(f, seed=seed, tol=tol)
    if rep.rank == 3:
        return OrbitClass.FERMAT if rep.essential == 3 else OrbitClass.SQUARE_TIMES_LINE
    # the search never goes above 5, the maximum for ternary cubics
    return next(c for c in OrbitClass if c.rank == rep.rank)
