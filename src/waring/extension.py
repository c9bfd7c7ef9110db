"""Flat extension of a truncated dual form.

Moments beyond the truncation degree are pinned down by forcing the candidate
multiplication operators M_i = D_i D_0^{-1} to commute, where D_0 = H^{B,B}
and D_i is its x_i-shifted matrix on the basis B.  `CommutatorResidual`
evaluates those equations numerically with one inverse of D_0 per point,
which the residual and the Jacobian at that point share; an SVD is taken
only when D_0 may lie near the singularity floor.  The Jacobian is built from
one rank-1 term per cell an unknown occupies; the index of those terms
depends only on the pattern of unknown cells, so it is built once per
pattern (`_jacobian_terms`).  `extend_dual` solves the equations with a
damped Gauss-Newton iteration, one start after the other: the zero start,
then random ones, up to RESTARTS in all.  It gives up after the first PROBES
starts when none of them came within 1e-4: the system is then almost
certainly infeasible (a basis below the true rank).  It keeps the first
point that reaches TOL with a healthy D_0, also on a positive-dimensional
solution set.

Each step solves the normal equations J^H J d = -J^H f by one Cholesky
factorization (LAPACK zposv), several times cheaper than a least-squares
solve.  When the factorization fails, or LAPACK's condition estimate from
the factor (zpocon) puts 1/cond(J^H J) at or below CHOLESKY_FLOOR, the run
takes the minimum-norm `lstsq` step instead, and keeps to it until the run
ends.  A run ends at the first of these exits:

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
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zpocon, zposv

from .core import DualForm, Exponent, grlex_key, numerical_rank
from .hankel import MonomialBasis, build_hankel, shifted_matrix

RESTARTS = 32  # Gauss-Newton starts per extension solve: zero, then random
PROBES = 8  # starts tried before a solve whose best residual is above 1e-4 stops
TOL = 1e-10  # max-abs (scaled) commutator residual a solution must reach
MAX_ITER = 200  # Gauss-Newton iterations per start
# least reciprocal condition number of J^H J (LAPACK's 1-norm estimate from the
# Cholesky factor) for a normal-equations step: cond(J) then stays below about
# 1e7, so squaring it costs the step at most about 1e14 units of rounding
CHOLESKY_FLOOR = 1e-14
# Jacobian index layouts kept, one per pattern of unknown cells: a perfbench
# run at seeds 1-4 meets at most 12 (rank_search), and 8 would halve its hits
TERMS_CACHE = 16


@dataclass
class ExtensionSolution:
    """Values for the unknown moments plus how constrained they were."""

    assignment: dict[Exponent, complex]
    residual: float
    free_count: int = 0


# ---------------------------------------------------------------------------
# Gauss-Newton


def _normal_step(j: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """The step solving J^H J d = -J^H f by Cholesky, or None when J^H J is not
    positive definite or the condition estimate that LAPACK's zpocon takes from
    the factor puts its reciprocal condition number at or below CHOLESKY_FLOOR.

    The factor's diagonal alone would not do: its spread is only a lower bound
    on cond(R), and a J with unit diagonal can be numerically singular."""
    jh = j.conj().T
    a = jh @ j
    c, step, info = zposv(a, -(jh @ f))
    if info != 0:
        return None
    rcond, info = zpocon(c, np.abs(a).sum(axis=0).max())
    if info == 0 and rcond > CHOLESKY_FLOOR:
        return step
    return None


def _gauss_newton(fun, jac, x0, tol, max_iter):
    """Damped Gauss-Newton iteration; returns (x, max-abs residual).

    Each iteration takes a Gauss-Newton step and backtracks (up to 25
    halvings) until the max-abs residual decreases sufficiently.  The step
    comes from the normal equations by Cholesky (`_normal_step`); the first
    time that is refused, the run falls back to the minimum-norm `lstsq` step
    and stays on it, so that a run over rank-deficient Jacobians (most runs
    below the true rank) does not pay for a failed factorization every step.
    The run ends at the first of: residual <= tol; a non-finite step, which
    a non-finite Jacobian also counts as; a failed line search (the next
    iteration would take the same step from the same point and fail alike);
    a step below 1e-14 of the iterate; no tenfold residual decrease over the
    last 30 iterations (a plateau); max_iter iterations.  The plateau exit is
    safe for regular roots, which are reached with quadratic convergence, and
    stops the linear or slower creep towards singular roots and the drift
    where no root exists.
    """
    x = np.asarray(x0, dtype=complex)
    f = fun(x)
    fn = float(abs(f).max()) if f.size else 0.0
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
                break  # lstsq would raise on it
            step, *_ = np.linalg.lstsq(j, -f, rcond=None)
        if not np.isfinite(step).all():
            break
        t = 1.0
        for _ in range(25):
            xn = x + t * step
            f2 = fun(xn)
            f2n = float(abs(f2).max()) if f2.size else 0.0
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


def _free_columns(j: np.ndarray) -> int:
    """The nullity of J: its column count less its `numerical_rank`."""
    return j.shape[1] - numerical_rank(np.linalg.svd(j, compute_uv=False))


# ---------------------------------------------------------------------------
# commutation equations


def _equations(n: int, s: int):
    """The order of the commutator equations: the pairs (i, j), 1 <= i < j <= n,
    of shifted matrices, and the strict upper triangle (p, q) of an s x s
    matrix.  Equation t * len(p) + e is cell (p[e], q[e]) of pair t's
    commutator; the residual and the Jacobian index both number rows so."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return pairs, np.triu_indices(s, k=1)


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
    from `np.linalg.inv`; an SVD is taken only when the Frobenius norms of D_0
    and N cannot rule out the singularity floor.  The residual forms every
    product D_i N D_j in one stacked matmul and gathers A N B and B N A from it.

    A column of the Jacobian is a sum of rank-1 terms, one per cell (r, c)
    its unknown occupies; a unit there changes C by
        of A:    e_r (x) NB[c,:] - BN[:,r] (x) e_c
        of B:    AN[:,r] (x) e_c - e_r (x) NA[c,:]
        of D_0:  BN[:,r] (x) NA[c,:] - AN[:,r] (x) NB[c,:]   (dN = -N dD_0 N)
    """

    def __init__(self, L: DualForm, basis: MonomialBasis):
        mats = [build_hankel(L, basis.exponents, basis.exponents)]
        mats += [shifted_matrix(L, basis, v) for v in range(L.nvars)]
        self.unknowns = sorted({e for m in mats for e in m.unknowns}, key=grlex_key)
        index = {e: i for i, e in enumerate(self.unknowns)}
        s = len(basis)
        self.const = np.stack([m.values for m in mats])
        # each matrix's slots renumbered into self.unknowns; -1 stays -1
        slot = np.stack([
            np.array([index[e] for e in m.unknowns] + [-1], dtype=np.intp)[m.slot]
            for m in mats
        ])
        # (matrix, row, col, unknown index) of every unknown cell, in C order
        cells = np.nonzero(slot >= 0)
        self.cells = np.array([*cells, slot[cells]], dtype=np.intp)
        self.pairs, self.upper = _equations(L.nvars, s)
        # one reference magnitude so residuals read as relative numbers
        self.scale = (1.0 + np.max(np.abs(self.const))) ** 2
        self._sing_floor = 1e-12
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
        out[tuple(self.cells[:3])] = x[self.cells[3]]
        return out

    def _inverse(self, d0: np.ndarray):
        """D_0^{-1}, or None when s_min <= 1e-12 max(s_max, 1)."""
        try:
            n_mat = np.linalg.inv(d0)
            # s_max <= |D_0|_F and s_min >= 1/|N|_F, so a product of the norms
            # below 1e10 keeps s_min a hundredfold above the floor even after
            # the inverse's rounding
            if np.vdot(n_mat, n_mat).real * max(np.vdot(d0, d0).real, 1.0) < 1e20:
                return n_mat
        except np.linalg.LinAlgError:
            pass
        s = np.linalg.svd(d0, compute_uv=False)
        if s[-1] <= self._sing_floor * max(s[0], 1.0):
            return None
        return np.linalg.inv(d0)

    def _point(self, x: np.ndarray):
        """(D_0..D_n, N, D_v N for v = 1..n) at x; N is None if D_0 is singular."""
        x = np.asarray(x, dtype=complex)
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
        return (products[self._anb] - products[self._bna]) / self.scale

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        mats, n_mat, shifts_n = self._point(x)
        if n_mat is None:
            return np.full((self.nequations(), len(self.unknowns)), np.nan + 0j)
        an = shifts_n.ravel()
        factor = np.concatenate([(n_mat @ mats[1:]).ravel(), an, -an, [0.0, 1.0, -1.0]])
        target, left, right = self._terms
        out = np.zeros(self.nequations() * len(self.unknowns), dtype=complex)
        np.add.at(out, target, factor[left] * factor[right])
        return out.reshape(self.nequations(), -1) / self.scale

    def d0_healthy(self, x: np.ndarray) -> bool:
        """s_min(D_0) > 1e-10 s_max(D_0): the pencil step can invert D_0."""
        s = np.linalg.svd(self.matrices(x)[0], compute_uv=False)
        return bool(s[-1] > 1e-10 * s[0])


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


def extend_dual(L: DualForm, basis: MonomialBasis, seed: int = 0) -> ExtensionSolution | None:
    """Find unknown moments making the operators on `basis` commute.

    Returns None when no acceptable solution is found (usually meaning the
    basis size is below the true support size, or above it with the unknowns
    overdetermined into inconsistency).  Every solution returned, also one
    with no unknowns, has a D_0 that passes `d0_healthy`.  Its free_count is
    the number of unknowns the Jacobian leaves free there: the dimension of
    the solution set.  Any point of a positive-dimensional set whose pencil
    is simple gives a decomposition, so no second, more generic point is
    sought.
    """
    res = CommutatorResidual(L, basis)
    if not res.unknowns:
        x, rmax = np.zeros(0, dtype=complex), 0.0
        if res.nequations():
            rmax = float(np.max(np.abs(res.residual(x))))
            if not np.isfinite(rmax) or rmax > TOL:
                return None
        if not res.d0_healthy(x):
            return None
        return ExtensionSolution({}, rmax, 0)
    if res.nequations() == 0:
        # a single affine variable never constrains anything here; the caller
        # should have taken the binary route instead
        return None

    m = len(res.unknowns)
    u = np.random.default_rng(seed).uniform(-1, 1, (RESTARTS - 1, 2, m))
    starts = [np.zeros(m, dtype=complex), *(u[:, 0] + 1j * u[:, 1])]
    best = np.inf
    for k, x0 in enumerate(starts):
        if k == PROBES and best > 1e-4:
            return None
        x, r = _gauss_newton(res.residual, res.jacobian, x0, TOL, MAX_ITER)
        if r <= TOL and res.d0_healthy(x):
            assignment = {e: complex(v) for e, v in zip(res.unknowns, x)}
            return ExtensionSolution(assignment, float(r), _free_columns(res.jacobian(x)))
        best = min(best, r)
    return None
