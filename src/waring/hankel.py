"""Quasi-Hankel matrices of a truncated dual form.

For a moment table L and monomial sets B, B' the matrix H^{B,B'} has entry
(alpha, beta) = L(x^(alpha+beta)).  Entries whose total degree exceeds the
truncation are unknown moments; a matrix keeps them as an integer slot map
into its list of unknown exponents, and an extension step assigns them
values later.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import DualForm, Exponent, grlex_key, monomials_upto


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


def known_rank_bound(L: DualForm, tol: float = 1e-8) -> int:
    """Largest numerical rank among the fully known catalecticant blocks.

    For every split k + (d-k) = d, the matrix H^{B_k, B_(d-k)} over complete
    monomial bases is fully known; its rank is a lower bound on the support
    size of any extension of L, and it is invariant under changes of
    coordinates.
    """
    best = 0
    for k in range(L.degree + 1):
        rows = monomials_upto(L.nvars, k)
        cols = monomials_upto(L.nvars, L.degree - k)
        h = build_hankel(L, rows, cols).value_matrix()
        s = np.linalg.svd(h, compute_uv=False)
        if s.size and s[0] > 0:
            best = max(best, int(np.sum(s > tol * s[0])))
    return best


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
