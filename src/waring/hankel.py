"""Quasi-Hankel matrices of a truncated dual form.

For a moment table L and monomial sets B, B' the matrix H^{B,B'} has entry
(alpha, beta) = L(x^(alpha+beta)).  Every cell is named by one number, the
graded-lex position of alpha + beta (`monomial_index`): below len(L.moments)
it indexes a known moment, and at or past it an unknown one, of degree above
the truncation.  An extension step solves the unknowns into a moment table
that carries L.moments past the truncation, and a matrix is that table read
at its cells' positions.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .core import (
    DualForm, Exponent, grlex_key, matrix_rank, monomial_index, monomials,
    monomials_upto, multinomials,
)

KOSZUL_MAX_ENTRIES = 4000  # largest Koszul flattening `koszul_rank_bound` tries


class MonomialBasis:
    """A finite set of monomials containing 1 and closed under division.

    Connectedness to 1 is what lets a shifted matrix H^{B, x_i*B} act like a
    multiplication operator, so it is enforced here.
    """

    __slots__ = ("nvars", "exponents", "index")

    def __init__(self, nvars: int, exponents):
        exps = sorted({tuple(e) for e in exponents}, key=grlex_key)
        if not exps or exps[0] != (0,) * nvars:
            raise ValueError("basis must contain the monomial 1")
        have = set(exps)
        for e in exps:
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong length")
            if any(a < 0 for a in e):
                raise ValueError(f"negative exponent {e}")
            if sum(e) == 0:
                continue
            # at least one parent (divide by some variable) must be present
            parents = [
                e[:i] + (e[i] - 1,) + e[i + 1 :] for i in range(nvars) if e[i] > 0
            ]
            if not any(p in have for p in parents):
                raise ValueError(f"basis is not connected to 1: {e} has no parent")
        self.nvars = nvars
        self.exponents = exps
        self.index = {e: i for i, e in enumerate(exps)}

    def __len__(self):
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def shifted(self, var: int) -> list[Exponent]:
        """Exponents of x_var * B, in the order of B."""
        return [
            e[:var] + (e[var] + 1,) + e[var + 1 :] for e in self.exponents
        ]

    def plus(self) -> list[Exponent]:
        """B+ = B united with all one-variable shifts, graded-lex sorted."""
        out = set(self.exponents)
        for v in range(self.nvars):
            out.update(self.shifted(v))
        return sorted(out, key=grlex_key)

    def border(self) -> list[Exponent]:
        """Monomials in B+ but not in B."""
        return [e for e in self.plus() if e not in self.index]

    def __repr__(self):
        return f"MonomialBasis({self.exponents})"


class QuasiHankelMatrix:
    """H^{rows,cols} of a dual form, as the graded-lex position of each cell.

    `at` holds every cell's position (`monomial_index`); `known` is the
    number of known moments, so a cell is unknown where its position is
    `known` or more.  `values` holds the known moments and 0 at every
    unknown cell.
    """

    __slots__ = ("at", "values", "known")

    def __init__(self, at, values, known):
        self.at = at
        self.values = values
        self.known = known

    @property
    def shape(self):
        return self.values.shape

    @property
    def unknowns(self) -> np.ndarray:
        """The distinct positions of the unknown cells, ascending."""
        return np.unique(self.at[self.at >= self.known])

    def value_matrix(self, moments: np.ndarray | None = None) -> np.ndarray:
        """The matrix read from the moment table `moments` at `at`, such as
        `ExtensionSolution.moments`; without a table only a matrix with no
        unknown cell can be read.  Raises ValueError when a cell it reads is
        past the table or NaN in it."""
        unknown = self.at[self.at >= self.known]
        if not unknown.size:
            return self.values.copy()
        if moments is None or unknown.max() >= len(moments) or np.isnan(moments[unknown]).any():
            raise ValueError("a moment the matrix reads is missing from the table")
        return moments[self.at]

    def __repr__(self):
        r, c = self.shape
        return f"QuasiHankelMatrix({r}x{c}, unknowns={len(self.unknowns)})"


def build_hankel(L: DualForm, rows, cols, shift: Exponent | None = None) -> QuasiHankelMatrix:
    """H with entry (a, b) = L(x^(a+b+shift)), unknown past the truncation."""
    n = L.nvars
    r = np.array(rows, dtype=np.intp).reshape(-1, 1, n)
    c = r.reshape(1, -1, n) if cols is rows else np.array(cols, dtype=np.intp).reshape(1, -1, n)
    at = monomial_index(r + c if shift is None else r + np.array(shift, dtype=np.intp) + c)
    values = L.moments.take(at, mode="clip")
    values[at >= len(L.moments)] = 0  # graded: exactly the cells of degree > d
    return QuasiHankelMatrix(at, values, len(L.moments))


def shifted_matrix(L: DualForm, basis: MonomialBasis, var: int) -> QuasiHankelMatrix:
    """H^{B, x_var * B}: the raw material of the multiplication operator."""
    if not (0 <= var < L.nvars):
        raise ValueError("bad variable index")
    e = tuple(1 if i == var else 0 for i in range(L.nvars))
    return build_hankel(L, basis.exponents, basis.exponents, shift=e)


def _noise(L: DualForm, tol: float) -> float:
    """tol times the coefficient norm of L's form (each moment times its
    multinomial): how far a form within relative distance tol may lie."""
    return tol * float(np.linalg.norm(L.moments * multinomials(L.nvars, L.degree)))


def known_rank_bound(L: DualForm, tol: float) -> int:
    """Largest numerical rank among the fully known catalecticant blocks
    k = 1 .. d/2, 0 when there are none.

    For every split k + (d-k) = d, the matrix H^{B_k, B_(d-k)} over complete
    monomial bases is fully known; its rank is a lower bound on the support
    size of any extension of L, and it is invariant under changes of
    coordinates.  Singular values count as in `koszul_rank_bound`, so the bound
    holds for every form within relative coefficient distance `tol` of L's.
    Blocks are read from k = d/2 down, and the reading stops at the first
    whose C(n+k, k) rows (n = L.nvars) cannot beat the bound in hand: no
    block below it can either.  Block 0, one row, adds nothing to the
    caller's max(1, bound).
    """
    noise = _noise(L, tol)
    best = 0
    for k in range(L.degree // 2, 0, -1):  # block d-k is block k transposed
        if math.comb(L.nvars + k, k) <= best:
            break
        index, gain = _catalecticant_layout(L.nvars, L.degree, k)
        best = max(best, matrix_rank(L.moments[index], gain * noise))
    return best


@functools.cache
def _catalecticant_layout(nvars: int, degree: int, k: int):
    """(index, gain) of H^{B_k, B_(degree-k)}: entry (a, b) is moment index[a, b]
    of `monomials_upto(nvars, degree)`; gain is as in `_koszul_layout`."""
    rows = np.array(monomials_upto(nvars, k), dtype=np.intp)
    cols = np.array(monomials_upto(nvars, degree - k), dtype=np.intp)
    index = monomial_index(rows[:, None] + cols[None, :])
    index.flags.writeable = False  # cached: every caller shares it
    counts = np.bincount(index.ravel(), minlength=len(multinomials(nvars, degree)))
    return index, _gain(counts, nvars, degree)


def _gain(counts: np.ndarray, nvars: int, degree: int) -> float:
    """Moment k of a form is its coefficient over mults[k]; filling counts[k]
    entries of a matrix M, it gives ||M(e)||_2 <= ||M(e)||_F <= gain * ||e||."""
    return float(np.sqrt(np.max(counts / multinomials(nvars, degree) ** 2)))


@functools.cache
def _koszul_layout(nvars: int, degree: int, delta: int, p: int):
    """Shape and nonzero entries of the Koszul flattening K_{delta,p}.

    With V of dimension N = nvars + 1 (the homogeneous variables of an affine
    dual form in `nvars` variables), K_{delta,p}: S^delta V* (x) Lambda^p V ->
    S^(d-delta-1) V (x) Lambda^(p+1) V.  Column (alpha, I) meets row
    (beta, I u {j}) in sign * L(x^(alpha+beta+e_j)), the sign that of moving
    e_j into place in e_j ^ e_I.  Returns (shape, rows, cols, moments, signs,
    gain), where moment k is the k-th exponent of `monomials_upto(nvars,
    degree)`, a homogeneous exponent maps to its affine part (variable 0
    dropped), and gain bounds ||K(e)||_2 / ||e|| over forms e, ||e|| the
    coefficient norm.
    """
    big = nvars + 1
    alphas = monomials(big, delta)
    betas = monomials(big, degree - delta - 1)
    subsets = list(combinations(range(big), p))
    supersets = {J: k for k, J in enumerate(combinations(range(big), p + 1))}
    entries, exps = [], []
    for col, (a, I) in enumerate((a, I) for a in alphas for I in subsets):
        for j in range(big):
            if j in I:
                continue
            J = supersets[tuple(sorted(I + (j,)))]
            sign = -1.0 if sum(i < j for i in I) % 2 else 1.0
            for bi, b in enumerate(betas):
                entries.append((bi * len(supersets) + J, col, sign))
                exps.append([x + y + (k == j) for k, (x, y) in enumerate(zip(a, b))][1:])
    table = np.array(entries)
    rows, cols = table[:, :2].T.astype(np.intp)
    moms = monomial_index(np.array(exps, dtype=np.intp))
    signs = table[:, 2]
    for a in (rows, cols, moms, signs):
        a.flags.writeable = False  # cached: every caller shares these arrays
    shape = (len(betas) * len(supersets), len(alphas) * len(subsets))
    gain = _gain(np.bincount(moms, minlength=len(multinomials(nvars, degree))), nvars, degree)
    return shape, rows, cols, moms, signs, gain


def koszul_flattening(L: DualForm, delta: int, p: int) -> np.ndarray:
    """The matrix of K_{delta,p} (see `_koszul_layout`) filled from L's moments."""
    shape, rows, cols, moms, signs, _ = _koszul_layout(L.nvars, L.degree, delta, p)
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = signs * L.moments[moms]
    return out


def _koszul_size(nvars: int, degree: int, delta: int, p: int) -> tuple[int, int]:
    """(rows, cols) of K_{delta,p} (see `_koszul_layout`)."""
    big = nvars + 1
    rows = math.comb(big + degree - delta - 2, big - 1) * math.comb(big, p + 1)
    cols = math.comb(big + delta - 1, big - 1) * math.comb(big, p)
    return rows, cols


def koszul_shapes(nvars: int, degree: int) -> list[tuple[int, int]]:
    """Every (delta, p), 1 <= p <= max(1, N-2), whose K_{delta,p} has at most
    KOSZUL_MAX_ENTRIES entries (N = nvars + 1), one of each transposed pair.

    K_{d-1-delta, N-1-p} is K_{delta,p} transposed up to signs, so of the same
    rank; only the pair's first shape in (delta, p) order is kept.
    """
    big = nvars + 1
    out = []
    for delta in range(degree):
        for p in range(1, max(1, big - 2) + 1):
            if (degree - 1 - delta, big - 1 - p) < (delta, p):
                continue
            if math.prod(_koszul_size(nvars, degree, delta, p)) <= KOSZUL_MAX_ENTRIES:
                out.append((delta, p))
    return out


def koszul_rank_bound(
    L: DualForm, tol: float, floor: int = 0
) -> tuple[int, tuple[int, int] | None]:
    """Largest rank lower bound from the Koszul flattenings of L, and its (delta, p).

    A power l^d gives K_{delta,p} of rank C(N-1, p) (N = L.nvars + 1), and
    K is linear in the form, so a form of rank r has rank K <= r C(N-1, p):
    ceil(rank K / C(N-1, p)) bounds the rank from below, like the
    catalecticant, but often past it (Landsberg-Ottaviani 2013;
    Oeding-Ottaviani 2013).  The shapes of `koszul_shapes` are read in order,
    and one is built and decomposed only when its ceiling, ceil(min(rows,
    cols) / C(N-1, p)), is above both `floor` and the best bound so far; any
    other could not raise the bound past either.  Whenever the bound is above
    `floor`, it and its shape are those that reading every shape gives.

    Singular values count by `numerical_rank`, above the noise that `tol`
    allows, so the bound holds for every form g within relative coefficient
    distance `tol` of L's form f: K(f - g) has spectral norm at most
    gain * tol * ||f|| (see `_koszul_layout`), and by Weyl's
    inequality K(g) has at least as many singular values as K(f) has above
    that.  Returns (0, None) when no flattening built is nonzero.
    """
    noise = _noise(L, tol)
    best, where = 0, None
    for delta, p in koszul_shapes(L.nvars, L.degree):
        per_power = math.comb(L.nvars, p)
        if -(-min(_koszul_size(L.nvars, L.degree, delta, p)) // per_power) <= max(floor, best):
            continue
        gain = _koszul_layout(L.nvars, L.degree, delta, p)[-1]
        count = matrix_rank(koszul_flattening(L, delta, p), gain * noise)
        bound = -(-count // per_power)
        if bound > best:
            best, where = bound, (delta, p)
    return best, where


def _macaulay(c: int, k: int) -> int:
    """c^<k>, the most monomials of degree k + 1 over c of degree k >= 1 in an
    order ideal (Macaulay): C(a_k+1, k+1) + C(a_(k-1)+1, k) + ... for
    c = C(a_k, k) + C(a_(k-1), k-1) + ..., a_k > a_(k-1) > ..."""
    out = 0
    while c > 0 and k > 0:
        a = k
        while math.comb(a + 1, k) <= c:
            a += 1
        c -= math.comb(a, k)
        out += math.comb(a + 1, k + 1)
        k -= 1
    return out


# order ideals the rank loop walks per rank, pruned ones included: one walk,
# generated once and read by both frames, its principal minor taken from it.
# The bench workloads walk at most 3, and the monomials of proven rank in the
# tests succeed by the 16th; x0^3*x1^3*x2^3 (rank 16) succeeds at the 49th,
# and at a budget of 32 it returns rank 23
IDEALS_PER_RANK = 64


def order_ideals(nvars: int, size: int, top: int):
    """Order ideals of `size` monomials in `nvars` variables with degree <= top,
    each a graded-lex sorted list.

    An order ideal holds every divisor of each member, so it holds 1 and is
    connected to it.  Ideals come out lowest top degree first, then by degree
    profile (monomials per degree) with the most low-degree monomials first,
    then in graded-lex combination order within each degree, so the
    graded-lex prefix comes first.  The walk is lazy: there can be thousands
    ((5,4,10) has 1920 of size 10 and degree <= 3).  Only profiles within
    Macaulay's bound are filled, and every such profile has an ideal.
    """
    zero = (0,) * nvars

    def profiles(profile, left, t):
        k = len(profile)
        if k > t:
            if left == 0:
                yield from fill(profile, [zero], {zero}, 1)
            return
        most = nvars if k == 1 else _macaulay(profile[-1], k - 1)
        for c in range(min(most, left - (t - k)), 0, -1):
            yield from profiles(profile + (c,), left - c, t)

    def fill(profile, ideal, below, k):
        # `below`: the ideal's monomials of degree k - 1
        if k == len(profile):
            yield ideal
            return
        cands = [
            m for m in monomials(nvars, k)
            if all(m[:i] + (m[i] - 1,) + m[i + 1 :] in below for i in range(nvars) if m[i])
        ]
        for chosen in combinations(cands, profile[k]):
            yield from fill(profile, ideal + list(chosen), set(chosen), k + 1)

    for t in range(min(top, size - 1) + 1):
        yield from profiles((1,), size - 1, t)


def known_columns_test(L: DualForm):
    """The test, for order ideals B of degree <= max(1, d - 1), d = L.degree,
    of whether the fully known columns of H^{B,B} have full numerical rank.

    Column b is fully known when deg b + deg B <= d; up to degree d/2 all
    are.  No extension changes those columns, so when they are rank-deficient
    D_0 = H^{B,B} is singular for every extension and B holds no flat one.
    The test slices H, the Hankel matrix of the monomials of degree <=
    max(1, d - 1) against those of degree <= d/2 (0 at unknown cells), built
    once; rows and columns are graded-lex positions.
    """
    n, d = L.nvars, L.degree
    rows = monomials_upto(n, max(1, d - 1))
    h = build_hankel(L, rows, rows[: math.comb(n + d // 2, n)]).values

    def test(ideal) -> bool:
        # a member's row, and its column if it has one, is its position; the
        # columns of degree <= d less the ideal's top degree come first
        at = monomial_index(ideal)
        known = at[at < math.comb(n + d - sum(ideal[-1]), n)]
        return matrix_rank(h[np.ix_(at, known)]) == len(known)

    return test


def full_rank_principal_minor(ideals, test, top: int) -> MonomialBasis | None:
    """The first of `ideals` (in `order_ideals` order) that passes `test`
    while their degree is <= top, as a basis; None when none does.  It
    reads `ideals` only up to the first of degree > top.

    With L's `known_columns_test` and top = L.degree // 2, the basis B has
    H^{B,B} fully known (all pairwise sums stay within the truncation) and of
    full numerical rank: the principal minor the rank loop tries first.
    """
    for ideal in ideals:
        if sum(ideal[-1]) > top:
            return None
        if test(ideal):
            return MonomialBasis(len(ideal[0]), ideal)
    return None
