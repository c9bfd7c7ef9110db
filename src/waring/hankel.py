"""Quasi-Hankel matrices of a truncated dual form.

For a moment table L and monomial sets B, B' the matrix H^{B,B'} has entry
(alpha, beta) = L(x^(alpha+beta)).  Entries whose total degree exceeds the
truncation are unknown moments; a matrix keeps them as an integer slot map
into its list of unknown exponents, and an extension step assigns them
values later.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from operator import add

import numpy as np

from .core import DualForm, Exponent, grlex_key, monomials, monomials_upto, multinomial

KOSZUL_MAX_ENTRIES = 4000  # largest Koszul flattening `koszul_rank_bound` tries
# a rank bound counts the singular values of a catalecticant or Koszul
# flattening above this fraction of the largest and above the noise `tol` allows
RANK_CUT = 1e-8


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

    def __contains__(self, exp):
        return tuple(exp) in self.index

    def __eq__(self, other):
        return isinstance(other, MonomialBasis) and self.exponents == other.exponents

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
    """H^{rows,cols} as numbers plus an integer map of its unknown cells.

    `values` holds the known moments and 0 at every unknown cell; `unknowns`
    lists the distinct unknown exponents in graded-lex order; `slot` is -1 at
    a known cell and otherwise the cell's index into `unknowns`.
    """

    __slots__ = ("rows", "cols", "values", "unknowns", "slot")

    def __init__(self, rows, cols, values, unknowns, slot):
        self.rows = list(rows)
        self.cols = list(cols)
        self.values = values
        self.unknowns = unknowns
        self.slot = slot

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def value_matrix(
        self, assignment: dict[Exponent, complex] | None = None
    ) -> np.ndarray:
        """Numeric matrix with the unknowns filled from `assignment`."""
        out = self.values.copy()
        if self.unknowns:
            given = assignment or {}
            # a moment missing from the assignment raises KeyError here
            fill = np.array([given[e] for e in self.unknowns], dtype=complex)
            cells = self.slot >= 0
            out[cells] = fill[self.slot[cells]]
        return out

    def __repr__(self):
        r, c = self.shape
        return f"QuasiHankelMatrix({r}x{c}, unknowns={len(self.unknowns)})"


def build_hankel(L: DualForm, rows, cols, shift: Exponent | None = None) -> QuasiHankelMatrix:
    """H with entry (a, b) = L(x^(a+b+shift)); a slot past the truncation."""
    rows = [tuple(r) for r in rows]
    cols = [tuple(c) for c in cols]
    n = L.nvars
    s = np.zeros(n, dtype=np.intp) if shift is None else np.array(shift, dtype=np.intp)
    exps = (
        np.array(rows, dtype=np.intp).reshape(-1, 1, n)
        + np.array(cols, dtype=np.intp).reshape(1, -1, n)
        + s
    )
    cells = [tuple(e) for e in exps.reshape(-1, n).tolist()]
    moments = {e: L.entry(e) for e in dict.fromkeys(cells)}
    unknowns = sorted((e for e, v in moments.items() if v is None), key=grlex_key)
    index = {e: k for k, e in enumerate(unknowns)}
    shape = (len(rows), len(cols))
    values = np.array(
        [0j if moments[e] is None else moments[e] for e in cells], dtype=complex
    ).reshape(shape)
    slot = np.array([index.get(e, -1) for e in cells], dtype=np.intp).reshape(shape)
    return QuasiHankelMatrix(rows, cols, values, unknowns, slot)


def shifted_matrix(L: DualForm, basis: MonomialBasis, var: int) -> QuasiHankelMatrix:
    """H^{B, x_var * B}: the raw material of the multiplication operator."""
    if not (0 <= var < L.nvars):
        raise ValueError("bad variable index")
    e = tuple(1 if i == var else 0 for i in range(L.nvars))
    return build_hankel(L, basis.exponents, basis.exponents, shift=e)


def known_rank_bound(L: DualForm, tol: float) -> int:
    """Largest numerical rank among the fully known catalecticant blocks.

    For every split k + (d-k) = d, the matrix H^{B_k, B_(d-k)} over complete
    monomial bases is fully known; its rank is a lower bound on the support
    size of any extension of L, and it is invariant under changes of
    coordinates.  Singular values count as in `koszul_rank_bound`, so the bound
    holds for every form within relative coefficient distance `tol` of L's.
    """
    moments = _moment_vector(L)
    noise = tol * float(np.linalg.norm(moments * _multinomials(L.nvars, L.degree)))
    best = 0
    for k in range(L.degree // 2 + 1):  # block d-k is block k transposed
        index, gain = _catalecticant_layout(L.nvars, L.degree, k)
        best = max(best, _numerical_rank(moments[index], gain * noise))
    return best


@functools.cache
def _catalecticant_layout(nvars: int, degree: int, k: int):
    """(index, gain) of H^{B_k, B_(degree-k)}: entry (a, b) is moment index[a, b]
    of `monomials_upto(nvars, degree)`; gain is as in `_koszul_layout`."""
    moment = {e: i for i, e in enumerate(monomials_upto(nvars, degree))}
    cols = monomials_upto(nvars, degree - k)
    index = np.array([[moment[tuple(map(add, a, b))] for b in cols]
                      for a in monomials_upto(nvars, k)], dtype=np.intp)
    index.flags.writeable = False  # cached: every caller shares it
    return index, _gain(np.bincount(index.ravel(), minlength=len(moment)), nvars, degree)


def _gain(counts: np.ndarray, nvars: int, degree: int) -> float:
    """Moment k of a form is its coefficient over mults[k]; filling counts[k]
    entries of a matrix M, it gives ||M(e)||_2 <= ||M(e)||_F <= gain * ||e||."""
    return float(np.sqrt(np.max(counts / _multinomials(nvars, degree) ** 2)))


def _numerical_rank(m: np.ndarray, floor: float) -> int:
    """Singular values of m above RANK_CUT of the largest and above `floor`."""
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > max(RANK_CUT * s[0], floor)))


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
    moment = {e: k for k, e in enumerate(monomials_upto(nvars, degree))}
    alphas = monomials(big, delta)
    betas = monomials(big, degree - delta - 1)
    subsets = list(combinations(range(big), p))
    supersets = {J: k for k, J in enumerate(combinations(range(big), p + 1))}
    entries = []
    for col, (a, I) in enumerate((a, I) for a in alphas for I in subsets):
        for j in range(big):
            if j in I:
                continue
            J = supersets[tuple(sorted(I + (j,)))]
            sign = -1.0 if sum(i < j for i in I) % 2 else 1.0
            for bi, b in enumerate(betas):
                e = tuple(x + y + (k == j) for k, (x, y) in enumerate(zip(a, b)))
                entries.append((bi * len(supersets) + J, col, moment[e[1:]], sign))
    table = np.array(entries)
    rows, cols, moms = table[:, :3].T.astype(np.intp)
    signs = table[:, 3]
    for a in (rows, cols, moms, signs):
        a.flags.writeable = False  # cached: every caller shares these arrays
    shape = (len(betas) * len(supersets), len(alphas) * len(subsets))
    gain = _gain(np.bincount(moms, minlength=len(moment)), nvars, degree)
    return shape, rows, cols, moms, signs, gain


@functools.cache
def _multinomials(nvars: int, degree: int) -> np.ndarray:
    """multinomial(degree, (degree - |e|, *e)) for e in `monomials_upto(nvars,
    degree)`: a form's coefficient over its moment (see `core.to_dual`)."""
    exps = monomials_upto(nvars, degree)
    out = np.array([multinomial(degree, (degree - sum(e), *e)) for e in exps], dtype=float)
    out.flags.writeable = False
    return out


def _moment_vector(L: DualForm) -> np.ndarray:
    """The known moments of L in the order of `monomials_upto`."""
    exps = monomials_upto(L.nvars, L.degree)
    return np.array([L.moments.get(e, 0j) for e in exps], dtype=complex)


def koszul_flattening(
    L: DualForm, delta: int, p: int, moments: np.ndarray
) -> np.ndarray:
    """The matrix of K_{delta,p} (see `_koszul_layout`) filled from `moments`,
    L's `_moment_vector`, which a caller trying many shapes builds once."""
    shape, rows, cols, moms, signs, _ = _koszul_layout(L.nvars, L.degree, delta, p)
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = signs * moments[moms]
    return out


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
            rows = math.comb(big + degree - delta - 2, big - 1) * math.comb(big, p + 1)
            cols = math.comb(big + delta - 1, big - 1) * math.comb(big, p)
            if rows * cols <= KOSZUL_MAX_ENTRIES:
                out.append((delta, p))
    return out


def koszul_rank_bound(L: DualForm, tol: float) -> tuple[int, tuple[int, int] | None]:
    """Largest rank lower bound from the Koszul flattenings of L, and its (delta, p).

    A power l^d gives K_{delta,p} of rank C(N-1, p) (N = L.nvars + 1), and
    K is linear in the form, so a form of rank r has rank K <= r C(N-1, p):
    ceil(rank K / C(N-1, p)) bounds the rank from below, like the
    catalecticant, but often past it (Landsberg-Ottaviani 2013;
    Oeding-Ottaviani 2013).  Every shape of `koszul_shapes` is tried.

    Singular values count above RANK_CUT of the largest and above the
    noise that `tol` allows, so the bound holds for every form g within
    relative coefficient distance `tol` of L's form f: K(f - g) has spectral
    norm at most gain * tol * ||f|| (see `_koszul_layout`), and by Weyl's
    inequality K(g) has at least as many singular values as K(f) has above
    that.  Returns (0, None) when every flattening is zero.
    """
    moments = _moment_vector(L)
    noise = tol * float(np.linalg.norm(moments * _multinomials(L.nvars, L.degree)))
    best, where = 0, None
    for delta, p in koszul_shapes(L.nvars, L.degree):
        gain = _koszul_layout(L.nvars, L.degree, delta, p)[-1]
        count = _numerical_rank(koszul_flattening(L, delta, p, moments), gain * noise)
        bound = -(-count // math.comb(L.nvars, p))
        if bound > best:
            best, where = bound, (delta, p)
    return best, where


def _nonsingular(m: np.ndarray, tol: float) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] > tol * s[0])


def full_rank_principal_minor(
    L: DualForm, size: int | None = None, tol: float = 1e-8
) -> MonomialBasis | None:
    """A connected basis B with H^{B,B} fully known and nonsingular.

    The candidate monomials are those of degree <= d/2 (so all pairwise sums
    stay within the truncation).  The target size is the numerical rank of
    the full candidate matrix, which no principal minor can exceed; a greedy
    graded-lex scan almost always reaches it, with an exhaustive fallback for
    the structured cases where it does not.  Returns None when nothing
    nonsingular of the requested size contains the constant monomial.
    """
    pool = [m for m in monomials_upto(L.nvars, L.degree) if 2 * sum(m) <= L.degree]
    full = build_hankel(L, pool, pool).value_matrix()
    s = np.linalg.svd(full, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    if rank == 0:
        return None
    target = rank if size is None else size
    if size is not None and size > rank:
        return None

    # greedy: extend by the first monomial (divisor-closed) keeping the
    # principal minor nonsingular
    chosen = [0]
    have = {pool[0]}
    for j in range(1, len(pool)):
        if len(chosen) == target:
            break
        e = pool[j]
        parents = [
            e[:i] + (e[i] - 1,) + e[i + 1 :] for i in range(L.nvars) if e[i] > 0
        ]
        if not any(p in have for p in parents):
            continue
        trial = chosen + [j]
        if _nonsingular(full[np.ix_(trial, trial)], tol):
            chosen = trial
            have.add(e)
    if len(chosen) == target:
        return MonomialBasis(L.nvars, [pool[i] for i in chosen])

    # fallback: lex-ordered subsets, largest size first, constant forced in
    budget = 20000
    for k in range(target, 0, -1):
        for idx in combinations(range(len(pool)), k):
            if idx[0] != 0:
                break
            budget -= 1
            if budget < 0:
                return None
            try:
                basis = MonomialBasis(L.nvars, [pool[i] for i in idx])
            except ValueError:
                continue
            if _nonsingular(full[np.ix_(idx, idx)], tol):
                return basis
        if size is not None:
            return None
    return None


def kernel_generators(L: DualForm, basis: MonomialBasis) -> list[dict[Exponent, complex]]:
    """For each border monomial m, the relation m - sum_i mu_i b_i.

    The coefficients mu solve H^{B,B} mu = column H^{B,{m}}, so each returned
    polynomial is annihilated by L up to the truncation.  Results are maps
    exponent -> coefficient including the monomial m itself with coefficient 1.
    """
    h = build_hankel(L, basis.exponents, basis.exponents).value_matrix()
    out = []
    for m in basis.border():
        col = build_hankel(L, basis.exponents, [m])
        if col.unknowns:
            continue  # relation involves unextended moments; caller handles
        mu = np.linalg.solve(h, col.value_matrix()[:, 0])
        g: dict[Exponent, complex] = {m: 1.0 + 0j}
        for b, c in zip(basis.exponents, mu):
            if c != 0:
                g[b] = g.get(b, 0) - c
        out.append(g)
    return out
