"""Flat extension of a truncated dual form.

Moments beyond the truncation degree are pinned down by forcing the candidate
multiplication operators M_i = D_i D_0^{-1} to commute, where D_0 = H^{B,B}
and D_i is its x_i-shifted matrix on the basis B.  `CommutatorResidual`
evaluates those equations numerically with one inverse of D_0 per point,
which the residual and the Jacobian at that point share.  That inverse is
also the one test of D_0: it passes when |D_0|_F |D_0^{-1}|_F < 1e10, a bound
on its condition number that no rescaling of the moments moves, and a point
where it fails has a NaN residual.  `extend_dual` takes it once per basis,
at x = 0, before any start; every choice below reads that one verdict.  The
Jacobian is built from one rank-1 term per cell an unknown occupies; the
index of those terms depends only on the pattern of unknown cells, so it is
built once per pattern (`_jacobian_terms`).  `extend_dual` solves the
equations with a damped Gauss-Newton iteration, one start after the other,
and keeps the first point that reaches TOL, also on a positive-dimensional
solution set.

The first start, when D_0 holds no unknown cell and passes its test, is the
normal-form start.  A border monomial u = x_k b' whose column H^{B,u} is
fully known then has a known normal form lam_u = D_0^{-1} H^{B,u}, and by
the flat extension theorem (Laurent-Mourrain 2009) every commuting extension
has L(u v) = sum_b lam_ub L(b v).  `_normal_form_relations` keeps the instances
of that identity whose positions are all cells of D_0..D_n: each then
follows from the commutator equations, whose solutions define such an
extension.  They are linear in the unknowns, and one SVD splits their
least-squares solution as x = x_p + Z y (`_relation_split`); Gauss-Newton
then runs over y from 0, through the same residual and Jacobian (times Z).
On the planted quartics in five variables they fix most unknowns (28 of 29
at rank 10, 30 of 40 at rank 12); where they fix all, x_p alone is tested.
When this start misses TOL, or there is no relation, the zero start and
then RESTARTS - 1 random ones follow, exactly as without it.

The RESTARTS - 1 random starts are drawn on the moment variety.  Each is
the moments, at the unknown positions, of |B| standard complex Gaussian
points of the affine chart, weighted by `spectral.solve_weights`' fit to L's
known moments (`_moment_starts`).  Were that fit exact, D_0 would be
V^T diag(w) V, V the basis monomials at the points: invertible for distinct
points and nonzero weights, also where the zero start makes D_0 singular, as
it does for sparse forms whose moments put zeros on D_0's known cells.

Each step solves the normal equations J^H J d = -J^H f through the Cholesky
factor L of J^H J and its inverse, several times cheaper than a least-squares
solve.  When the factorization fails, or |L|_F^2 |L^{-1}|_F^2, a bound on
cond(J^H J), is not below 1/CHOLESKY_FLOOR, the run takes the minimum-norm
least-squares step instead, and keeps to it until the run ends.

Every factorization is one of numpy's linalg kernels, called directly:
`numpy.linalg._umath_linalg.inv` for D_0 and for L, `cholesky_lo` and
`lstsq` (through `core.lstsq`), the gufuncs behind `np.linalg.inv`,
`cholesky` and `lstsq`.  The numbers are theirs bit for bit, without the
wrappers' checks, copies and
per-call `np.errstate`, which at the sizes the rank loop meets cost as much as
the kernels.  Those kernels flag a singular or indefinite matrix as an invalid
value and return NaN, which the tests on each result (D_0's condition product,
the Cholesky bound, a finite step) turn into a verdict.  So a Gauss-Newton run
holds one `np.errstate(all="ignore")` from start to end, not one per kernel
call, and any other caller of `_inverse`, `_normal_step` or `lstsq` holds
the same.

A run ends at the first of these exits:

* the max-abs residual is at most TOL (success);
* the step is not finite (also when the Jacobian is not);
* a line search finds no sufficient decrease in 25 halvings (x and the
  residual are then unchanged, so every later iteration would repeat it);
* the accepted step is below 1e-14 relative to the iterate;
* a plateau: the residual has not fallen tenfold over the last 30 iterations;
* MAX_ITER iterations.

The plateau exit is what ends failed attempts early.  Near a regular root
Gauss-Newton converges quadratically, so a run that gets there gains far more
than tenfold within 30 iterations and is never cut short.  Runs that creep,
towards a singular root (the degenerate commuting extensions found below the
true rank) or far from any root, are stopped after 30 iterations instead of
running to MAX_ITER.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    DualForm,
    lstsq,
    matrix_rank,
    monomial_index,
    monomial_values,
    monomials_upto,
    numerical_rank,
    upper_triangle,
)
from .hankel import MonomialBasis, build_hankel, shifted_matrix
from .spectral import solve_weights

RESTARTS = 8  # Gauss-Newton starts per extension solve: zero, then random
TOL = 1e-10  # max-abs (scaled) commutator residual a solution must reach
MAX_ITER = 200  # Gauss-Newton iterations per start
# least reciprocal of the bound |L|_F^2 |L^{-1}|_F^2 on cond(J^H J), L its
# Cholesky factor, for a normal-equations step: cond(J) then stays below 1e7,
# so squaring it costs the step at most about 1e14 units of rounding
CHOLESKY_FLOOR = 1e-14
# Jacobian index layouts kept, one per pattern of unknown cells: a perfbench
# run at seeds 1-4 meets at most 12 (rank_search), and 8 would halve its hits
TERMS_CACHE = 16
# the 0, 1 and -1 that `_jacobian_terms` indexes after the three products
_CONSTANTS = np.array([0.0, 1.0, -1.0])


@dataclass
class ExtensionSolution:
    """L.moments followed by the solved unknowns at their graded-lex positions,
    NaN where no cell reads one, plus how constrained the unknowns were."""

    moments: np.ndarray
    residual: float
    free_count: int = 0


# ---------------------------------------------------------------------------
# Gauss-Newton


def _normal_step(j: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """The step -L^{-H} L^{-1} J^H f solving J^H J d = -J^H f, L the Cholesky
    factor of J^H J, or None when J^H J is not positive definite or
    |L|_F^2 |L^{-1}|_F^2 CHOLESKY_FLOOR is not below 1.

    That product bounds cond(J^H J) from above, as the same test bounds
    cond(D_0) in `CommutatorResidual`.  The factor's diagonal alone would not
    do: its spread is only a lower bound on cond(L), and a J with unit
    diagonal can be numerically singular.  The kernels flag a failed
    factorization as an invalid value, so call this under
    `np.errstate(all="ignore")`, as `_gauss_newton` does."""
    jh = j.conj().T
    low = _umath_linalg.cholesky_lo(jh @ j)  # NaN where not positive definite
    inv = _umath_linalg.inv(low)
    if np.vdot(low, low).real * np.vdot(inv, inv).real * CHOLESKY_FLOOR < 1:
        return -(inv.conj().T @ (inv @ (jh @ f)))
    return None


@np.errstate(all="ignore")
def _gauss_newton(fun, jac, x0, tol, max_iter):
    """Damped Gauss-Newton iteration; returns (x, max-abs residual).

    Each iteration takes a Gauss-Newton step and backtracks (up to 25
    halvings) until the max-abs residual decreases sufficiently.  The step
    comes from the normal equations by Cholesky (`_normal_step`); the first
    time that is refused, the run falls back to the minimum-norm least-squares
    step (`lstsq(j, -f)`) and stays on it, so that a run over rank-deficient
    Jacobians (most runs below the true rank) does not pay for a failed
    factorization every step.  The run ends at the first of: residual <= tol;
    a non-finite step, which a non-finite Jacobian also counts as; a failed
    line search (the next iteration would take the same step from the same
    point and fail alike); a step below 1e-14 of the iterate; no tenfold
    residual decrease over the last 30 iterations (a plateau); max_iter
    iterations.  The plateau exit is safe for regular roots, which are
    reached with quadratic convergence, and stops the linear or slower creep
    towards singular roots and the drift where no root exists.

    The whole run, `fun` and `jac` included, holds one
    `np.errstate(all="ignore")`, not one per kernel call: numpy's kernels
    (`_umath_linalg.inv` for D_0 and the Cholesky factor, `cholesky_lo`,
    `lstsq`) flag a singular or indefinite matrix as an invalid value and
    return NaN, which the tests on each result turn into an exit.
    """
    x = np.asarray(x0, dtype=complex)
    f = fun(x)
    fn = float(abs(f).max())
    if not math.isfinite(fn):
        return x, np.inf
    history = [fn]
    cholesky = True
    for _ in range(max_iter):
        if fn <= tol:
            break
        j = jac(x)
        step = _normal_step(j, f) if cholesky else None
        if step is None:
            cholesky = False
            if not np.isfinite(j).all():
                break  # LAPACK prints an error on stderr for it
            step = lstsq(j, -f)
        if not np.isfinite(step).all():
            break
        t = 1.0
        for _ in range(25):
            xn = x + t * step
            f2 = fun(xn)
            f2n = float(abs(f2).max())
            if math.isfinite(f2n) and (f2n < fn * (1 - 1e-4 * t) or f2n <= tol):
                x, f, fn = xn, f2, f2n
                break
            t /= 2
        else:
            break
        if abs(step).max() * t <= 1e-14 * (1 + abs(x).max()):
            break
        history.append(fn)
        if len(history) > 30 and fn > 0.1 * history[-31]:
            break
    return x, fn


# ---------------------------------------------------------------------------
# commutation equations


def _equations(n: int, s: int):
    """The order of the commutator equations: the pairs (i, j), 1 <= i < j <= n,
    of shifted matrices, and the strict upper triangle (p, q) of an s x s
    matrix.  Equation t * len(p) + e is cell (p[e], q[e]) of pair t's
    commutator; the residual and the Jacobian index both number rows so."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return pairs, upper_triangle(s)


class CommutatorResidual:
    """Commutator equations evaluated numerically, inverting D_0 once per point.

    With A = D_i, B = D_j (i < j) and N = D_0^{-1}, the equations are the
    strict upper triangle of the antisymmetric C = A N B - B N A.  Inverting
    D_0 numerically keeps the equation count at s(s-1)/2 per pair however
    many unknowns sit inside D_0, and no run can converge to a point with
    det(D_0) = 0, because the residual blows up there.

    The matrices, N and the products D_v N at the last point evaluated are
    kept, so the Jacobian that Gauss-Newton asks for at the point whose
    residual it has just accepted costs no second inverse.  N comes straight
    from numpy's inverse kernel and is kept only when |D_0|_F |N|_F < 1e10
    (`_inverse`); elsewhere the residual and the Jacobian are NaN.  The
    residual forms every product D_i N D_j in one stacked matmul and gathers
    A N B and B N A from it.

    A column of the Jacobian is a sum of rank-1 terms, one per cell (r, c)
    its unknown occupies; a unit there changes C by
        of A:    e_r (x) NB[c,:] - BN[:,r] (x) e_c
        of B:    AN[:,r] (x) e_c - e_r (x) NA[c,:]
        of D_0:  BN[:,r] (x) NA[c,:] - AN[:,r] (x) NB[c,:]   (dN = -N dD_0 N)
    """

    def __init__(self, L: DualForm, basis: MonomialBasis):
        mats = [build_hankel(L, basis.exponents, basis.exponents)]
        mats += [shifted_matrix(L, basis, v) for v in range(L.nvars)]
        s = len(basis)
        self.const = np.array([m.values for m in mats])
        # every cell's graded-lex position; (matrix, row, col, unknown index)
        # of every unknown cell, in C order; the unknowns are the distinct
        # positions of those cells, ascending
        self.at = at = np.array([m.at for m in mats])
        cells = np.nonzero(at >= len(L.moments))
        self.unknowns, index = np.unique(at[cells], return_inverse=True)
        self.cells = np.array([*cells, index], dtype=np.intp)
        # the same cells as flat positions in the stack, for one scatter
        self._flat = np.ravel_multi_index(cells, at.shape)
        self.pairs, self.upper = _equations(L.nvars, s)
        # one reference magnitude so residuals read as relative numbers
        self.scale = (1.0 + np.max(np.abs(self.const))) ** 2
        # positions of (A N B)[p, q] and (B N A)[p, q] in the flattened stack of
        # products D_i N D_j, i, j = 1..n
        n, p, q = L.nvars, *self.upper
        i, j = np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T - 1
        self._anb = ((i * n + j)[:, None] * s * s + p * s + q).ravel()
        self._bna = ((j * n + i)[:, None] * s * s + p * s + q).ravel()
        self._key = None  # bytes of the last point, and its (D, N, D_v N)
        self._factors = None

    @functools.cached_property
    def _terms(self) -> np.ndarray:
        """The Jacobian's index (see `_jacobian_terms`), built on the first
        `jacobian` call: a basis whose moments are all known never needs it."""
        n, s = len(self.const) - 1, self.const.shape[1]
        return _jacobian_terms(n, s, len(self.unknowns), self.cells.tobytes())

    def nequations(self) -> int:
        return len(self.pairs) * len(self.upper[0])

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """D_0, D_1, ..., D_n stacked, with the unknowns set to x."""
        out = self.const.copy()
        out.ravel()[self._flat] = x[self.cells[3]]
        return out

    @staticmethod
    def _inverse(d0: np.ndarray):
        """D_0^{-1}, or None unless |D_0|_F |D_0^{-1}|_F < 1e10: a bound on
        cond(D_0) that holds at any scale, and that a non-finite inverse fails.

        The inverse is numpy's kernel behind `np.linalg.inv`, so the bits are
        the same, without the wrapper's checks: a singular D_0 gives NaN where
        `np.linalg.inv` would raise.  Call it under `np.errstate(all="ignore")`,
        as `_gauss_newton` does, or that NaN comes with a RuntimeWarning."""
        n_mat = _umath_linalg.inv(d0)
        if np.vdot(n_mat, n_mat).real * np.vdot(d0, d0).real < 1e20:
            return n_mat
        return None

    def _point(self, x: np.ndarray):
        """(D_0..D_n, N, D_v N for v = 1..n) at the complex array x; N is None
        where `_inverse` is."""
        key = x.tobytes()
        if key != self._key:
            mats = self.matrices(x)
            n_mat = self._inverse(mats[0])
            shifts_n = None if n_mat is None else mats[1:] @ n_mat
            self._key, self._factors = key, (mats, n_mat, shifts_n)
        return self._factors

    def residual(self, x: np.ndarray) -> np.ndarray:
        mats, n_mat, shifts_n = self._point(x)
        if n_mat is None:
            return np.full(self.nequations(), np.nan + 0j)
        products = (shifts_n[:, None] @ mats[None, 1:]).ravel()
        out = products[self._anb]
        out -= products[self._bna]
        out /= self.scale
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        mats, n_mat, shifts_n = self._point(x)
        if n_mat is None:
            return np.full((self.nequations(), len(self.unknowns)), np.nan + 0j)
        an = shifts_n.ravel()
        factor = np.concatenate([(n_mat @ mats[1:]).ravel(), an, -an, _CONSTANTS])
        target, left, right = self._terms
        out = np.zeros((self.nequations(), len(self.unknowns)), dtype=complex)
        np.add.at(out.ravel(), target, factor[left] * factor[right])
        out /= self.scale
        return out


@functools.lru_cache(maxsize=TERMS_CACHE)
def _jacobian_terms(n: int, s: int, m: int, cells: bytes) -> np.ndarray:
    """The Jacobian's rank-1 terms u[:,r] (x) v[c,:] on the upper triangle, as
    (target, left, right) indices into N D_v, D_v N, -D_v N, 0, 1, -1.

    n is the number of affine variables, s the basis size, m the number of
    unknowns and `cells` the bytes of `CommutatorResidual.cells`.  The index
    depends on nothing else, so one pattern of unknown cells is indexed once
    for every form, frame and retry that meets it; the array is read-only,
    since every caller shares it."""
    mat, r, c, k = np.frombuffer(cells, dtype=np.intp).reshape(4, -1)
    pairs, (p, q) = _equations(n, s)
    idx = np.arange(3 * n * s * s).reshape(3, n, s, s)
    zero, one, minus = idx.size + np.arange(3)
    eye = np.where(np.eye(s, dtype=bool), one, zero)
    neg_eye = np.where(eye == one, minus, zero)
    parts = [np.zeros((3, 0), dtype=np.intp)]
    for t, (i, j) in enumerate(pairs):
        (na, an, neg_an), (nb, bn, neg_bn) = idx[:, i - 1], idx[:, j - 1]
        target = (t * len(p) + np.arange(len(p))) * m
        # dA N B + A N dB + A dN B - dB N A - B N dA - B dN A
        for d, u, v in ((i, eye, nb), (j, an, eye), (0, neg_an, nb),
                        (j, neg_eye, na), (i, neg_bn, eye), (0, bn, na)):
            on = mat == d
            part = np.reshape(np.broadcast_arrays(
                target + k[on, None], u[p, r[on, None]], v[c[on, None], q]),
                (3, -1))
            parts.append(part[:, (part[1] != zero) & (part[2] != zero)])
    terms = np.concatenate(parts, axis=1)
    terms.flags.writeable = False
    return terms


def _normal_form_relations(res: CommutatorResidual, L: DualForm, basis: MonomialBasis,
                           n_mat: np.ndarray | None):
    """(A, b): the relations A x = b that the known normal forms put on the
    unknowns x of `res`, or None when there is none.

    There is one only when D_0 holds no unknown cell and `n_mat`, its inverse
    as `extend_dual` took it at x = 0, is not None.  Column b' of D_k is
    H^{B,u} for the monomial u = x_k b'.  When u is a border monomial (not in
    B) and its column is fully known, its normal form is lam_u = D_0^{-1}
    H^{B,u}, and every commuting extension has L(u v) = sum_b lam_ub L(b v).
    Each row is that identity for one such u and one border monomial
    v = x_j b'' of degree d + 1 - deg u whose product u v is an unknown of
    `res`: L(b v) is then column b'' of D_j, so every position in the row is
    a cell of D_0..D_n and the row follows from the commutator equations.  A
    row's positions are distinct, since u is not in B.  Border monomials v
    lose nothing here: on 5964 bases with a relation, walked by the rank loop
    for planted forms, v over every cell of D_0..D_n gave the same null
    space."""
    at, known = res.at, len(L.moments)
    if n_mat is None or not res.unknowns.size or at[0].max() >= known:
        return None
    # the border columns x_k b' of D_1..D_n, one per monomial (row 0 of a
    # column holds the position of its monomial), and the fully known ones
    inside = np.zeros(at.max() + 1, dtype=bool)
    inside[at[0, 0]] = True
    heads, first = np.unique(at[1:, 0], return_index=True)
    k, c = np.divmod(first[~inside[heads]], at.shape[2])
    full = at[1 + k, :, c].max(axis=1) < known
    if not full.any():
        return None
    border = np.array(basis.exponents, dtype=np.intp)[c] + np.eye(L.nvars, dtype=np.intp)[k]
    u = border[full]
    i, j = np.nonzero(u.sum(axis=1)[:, None] + border.sum(axis=1) == L.degree + 1)
    index = np.full(res.unknowns[-1] + 2, -1)  # the last slot: past every unknown
    index[res.unknowns] = np.arange(len(res.unknowns))
    uv = index[np.minimum(monomial_index(u[i] + border[j]), len(index) - 1)]
    keep = uv >= 0
    i, j, uv = i[keep], j[keep], uv[keep]
    if not i.size:
        return None
    bv = at[1 + k[j], :, c[j]]
    coef = -(n_mat @ res.const[1 + k[full], :, c[full]].T)[:, i].T
    unknown = bv >= known
    a = np.zeros((i.size, len(res.unknowns)), dtype=complex)
    a[np.arange(i.size), uv] = 1
    a[np.nonzero(unknown)[0], index[bv[unknown]]] = coef[unknown]
    b = -np.where(unknown, 0, coef * L.moments.take(bv, mode="clip")).sum(axis=1)
    return a, b


def _relation_split(a: np.ndarray, b: np.ndarray):
    """(x_p, Z): the minimum-norm least-squares solution of a x = b and a
    basis of the null space of a, from one SVD and the `numerical_rank` cut;
    every solution is x_p + Z y."""
    left, sv, vh = np.linalg.svd(a)
    k = numerical_rank(sv)
    x_p = vh[:k].conj().T @ ((left[:, :k].conj().T @ b) / sv[:k])
    return x_p, vh[k:].conj().T


def _solution(L: DualForm, res: CommutatorResidual, x: np.ndarray, r: float):
    """The extension at the unknowns x, of max-abs residual r, or None unless
    r <= TOL: the one test that accepts a point.  Its free_count is the
    nullity of the Jacobian at x; with no unknowns its moments are L.moments."""
    if not r <= TOL:
        return None
    if not res.unknowns.size:
        return ExtensionSolution(L.moments, float(r), 0)
    moments = np.append(L.moments, np.full(res.unknowns[-1] + 1 - len(L.moments), np.nan))
    moments[res.unknowns] = x
    j = res.jacobian(x)
    return ExtensionSolution(moments, float(r), j.shape[1] - matrix_rank(j))


def _normal_form_start(res: CommutatorResidual, L: DualForm, basis: MonomialBasis,
                       n_mat: np.ndarray | None):
    """The solution reached from the relations' particular solution x_p by
    Gauss-Newton over y in x = x_p + Z y, or None: there is no relation, or
    the run misses TOL.  With Z empty, x_p alone is tested."""
    relations = _normal_form_relations(res, L, basis, n_mat)
    if relations is None:
        return None
    x_p, z = _relation_split(*relations)
    if not z.shape[1]:
        return _solution(L, res, x_p, float(np.max(np.abs(res.residual(x_p)))))
    y, r = _gauss_newton(lambda y: res.residual(x_p + z @ y),
                         lambda y: res.jacobian(x_p + z @ y) @ z,
                         np.zeros(z.shape[1], dtype=complex), TOL, MAX_ITER)
    return _solution(L, res, x_p + z @ y, r)


def _moment_starts(L: DualForm, basis: MonomialBasis, unknowns: np.ndarray, seed: int):
    """RESTARTS - 1 starts on the moment variety, one at a time: for each,
    |B| standard complex Gaussian points of the affine chart, drawn from
    default_rng(seed), and the weights `solve_weights` fits to L's known
    moments; the start is the moments of that weighted sum of evaluations at
    the graded-lex positions `unknowns`, all of degree at most 2 deg B + 1."""
    top = 2 * max(map(sum, basis.exponents)) + 1
    exps = np.array(monomials_upto(L.nvars, top))[unknowns]
    shape = (RESTARTS - 1, 2, len(basis), L.nvars)
    z = np.random.default_rng(seed).standard_normal(shape) / math.sqrt(2)
    for points in z[:, 0] + 1j * z[:, 1]:
        yield solve_weights(points, L) @ monomial_values(points, exps)


def extend_dual(L: DualForm, basis: MonomialBasis, seed: int = 0) -> ExtensionSolution | None:
    """Find unknown moments making the operators on `basis` commute.

    Returns None when no acceptable solution is found (usually meaning the
    basis size is below the true support size, or above it with the unknowns
    overdetermined into inconsistency).  D_0 is tested once, by `_inverse`
    at x = 0.  The starts, in order, up to the first that reaches TOL: the
    normal-form start (`_normal_form_start`), when D_0 holds no unknown and
    passes; then x = 0; then RESTARTS - 1 random starts on the moment variety
    (`_moment_starts`), drawn from default_rng(seed).  `_solution` accepts a
    point, also one with no unknowns, when r <= TOL, which a D_0 that fails
    `_inverse` never reaches.  Its free_count is the number of unknowns the
    Jacobian leaves free there: the dimension of the solution set.  Any point
    of a positive-dimensional set whose pencil is simple gives a
    decomposition, so no second, more generic point is sought.
    """
    res = CommutatorResidual(L, basis)
    zero = np.zeros(len(res.unknowns), dtype=complex)
    with np.errstate(all="ignore"):  # a singular D_0 is a verdict here
        n_mat = res._point(zero)[1]
    if not res.unknowns.size:
        if n_mat is None:  # s = 1 has no equation to carry the NaN
            return None
        return _solution(L, res, zero, float(np.max(np.abs(res.residual(zero)), initial=0.0)))
    if res.nequations() == 0:
        # a single affine variable never constrains anything here; the caller
        # should have taken the binary route instead
        return None

    found = _normal_form_start(res, L, basis, n_mat)
    if found is not None:
        return found
    for x0 in itertools.chain([zero], _moment_starts(L, basis, res.unknowns, seed)):
        found = _solution(L, res, *_gauss_newton(res.residual, res.jacobian, x0, TOL, MAX_ITER))
        if found is not None:
            return found
    return None
