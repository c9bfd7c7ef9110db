"""Flat extension of a truncated dual form.

Moments beyond the truncation degree are pinned down by forcing the candidate
multiplication operators M_i = D_i D_0^{-1} to commute, where D_0 = H^{B,B}
and D_i is its x_i-shifted matrix on the basis B.  `CommutatorResidual`
evaluates those equations numerically with one inverse of D_0 per point,
which the residual and the Jacobian at that point share; an SVD is taken
only when D_0 may lie near the singularity floor.  The Jacobian is built from
one rank-1 term per cell an unknown occupies.  `extend_dual` solves the
equations with a damped Gauss-Newton iteration from several starts, one
after the other, and keeps the first point that reaches `tol` with a healthy
D_0, also on a positive-dimensional solution set.  A run ends at the first
of these exits:

* the max-abs residual is at most `tol` (success);
* the least-squares step is not finite;
* a line search finds no sufficient decrease in 25 halvings (x and the
  residual are then unchanged, so every later iteration would repeat it);
* the accepted step is below 1e-14 relative to the iterate;
* a plateau: the residual has not fallen tenfold over the last 30 iterations;
* `max_iter` iterations.

The plateau exit is what ends failed attempts early.  Near a regular root
Gauss-Newton converges quadratically, so a run that gets there gains far more
than tenfold within 30 iterations and is never cut short.  Runs that creep,
towards a singular root (the degenerate commuting extensions found below the
true rank) or far from any root, are stopped after 30 iterations instead of
running to `max_iter`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DualForm, Exponent, grlex_key
from .hankel import MonomialBasis, build_hankel, shifted_matrix

RESTARTS = 32  # Gauss-Newton starts per extension solve: zero, then random


@dataclass
class ExtensionSolution:
    """Values for the unknown moments plus how constrained they were."""

    assignment: dict[Exponent, complex]
    residual: float
    free_count: int = 0


# ---------------------------------------------------------------------------
# Gauss-Newton


def _gauss_newton(fun, jac, x0, tol, max_iter):
    """Damped least-squares iteration; returns (x, max-abs residual).

    Each iteration takes the least-squares step and backtracks (up to 25
    halvings) until the max-abs residual decreases sufficiently.  The run ends
    at the first of: residual <= tol; a non-finite step; a failed line search
    (the next iteration would take the same step from the same point and fail
    alike); a step below 1e-14 of the iterate; no tenfold residual decrease
    over the last 30 iterations (a plateau); max_iter iterations.
    The plateau exit is safe for regular roots, which are reached with
    quadratic convergence, and stops the linear or slower creep towards
    singular roots and the drift where no root exists.
    """
    x = np.asarray(x0, dtype=complex)
    f = fun(x)
    fn = float(abs(f).max()) if f.size else 0.0
    if not math.isfinite(fn):
        return x, np.inf
    history = [fn]
    for _ in range(max_iter):
        if fn <= tol:
            break
        j = jac(x)
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


def _run_starts(starts, solve_one):
    """Evaluate starts in order; the first success wins.

    Returns the (x, residual, ok) of the winning start, or the best failure.
    """
    best = None
    for s in starts:
        res = solve_one(s)
        if res[2]:
            return res
        if best is None or res[1] < best[1]:
            best = res
    return best


def _free_columns(j: np.ndarray, tol: float = 1e-8) -> int:
    """The number of columns of a nonempty J that QR with column pivoting
    leaves free."""
    diag = np.abs(np.diagonal(scipy.linalg.qr(j, pivoting=True, mode="r")[0]))
    return j.shape[1] - int(np.sum(diag > tol * diag[0]))


def _solve_core(fun, jac, nunknowns, seed, restarts, tol, max_iter, accept):
    """Gauss-Newton from the zero start, then random ones, until a run reaches
    `tol` at a point `accept` allows; that point is returned as it is.

    Returns (x, residual, free_count, converged).  free_count is the number of
    unknowns the Jacobian leaves free at x: the dimension of the solution set
    there.  Any point of a positive-dimensional set whose pencil is simple
    gives a decomposition, so no second, more generic point is sought.
    """
    u = np.random.default_rng(seed).uniform(-1, 1, (max(0, restarts - 1), 2, nunknowns))
    starts = [np.zeros(nunknowns, dtype=complex), *(u[:, 0] + 1j * u[:, 1])]

    def solve_one(x0):
        x, r = _gauss_newton(fun, jac, x0, tol, max_iter)
        if not np.isfinite(r):
            r = np.inf
        ok = r <= tol and accept(x)
        return x, r, ok

    # probe a few starts first: if nothing comes close the system is almost
    # certainly infeasible (wrong size guess) and the remaining starts are a
    # waste of time
    probe = min(8, len(starts))
    x, r, ok = _run_starts(starts[:probe], solve_one)
    if not ok and probe < len(starts) and r <= max(1e-4, 100 * tol):
        x2, r2, ok2 = _run_starts(starts[probe:], solve_one)
        if ok2 or r2 < r:
            x, r, ok = x2, r2, ok2
    if not ok:
        return x, r, 0, False
    return x, r, _free_columns(jac(x)), True


# ---------------------------------------------------------------------------
# commutation equations


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
        self.pairs = [
            (i, j) for i in range(1, L.nvars + 1) for j in range(i + 1, L.nvars + 1)
        ]
        self.upper = np.triu_indices(s, k=1)
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
        """The Jacobian's rank-1 terms u[:,r] (x) v[c,:] on the upper triangle, as
        (target, left, right) indices into N D_v, D_v N, -D_v N, 0, 1, -1.

        Built on the first `jacobian` call: a basis whose moments are all known
        never needs it."""
        n, s = len(self.const) - 1, self.const.shape[1]
        p, q = self.upper
        idx = np.arange(3 * n * s * s).reshape(3, n, s, s)
        zero, one, minus = idx.size + np.arange(3)
        eye = np.where(np.eye(s, dtype=bool), one, zero)
        neg_eye = np.where(eye == one, minus, zero)
        mat, r, c, k = self.cells
        parts = [np.zeros((3, 0), dtype=np.intp)]
        for t, (i, j) in enumerate(self.pairs):
            (na, an, neg_an), (nb, bn, neg_bn) = idx[:, i - 1], idx[:, j - 1]
            target = (t * len(p) + np.arange(len(p))) * len(self.unknowns)
            # dA N B + A N dB + A dN B - dB N A - B N dA - B dN A
            for m, u, v in ((i, eye, nb), (j, an, eye), (0, neg_an, nb),
                            (j, neg_eye, na), (i, neg_bn, eye), (0, bn, na)):
                on = mat == m
                part = np.reshape(np.broadcast_arrays(
                    target + k[on, None], u[p, r[on, None]], v[c[on, None], q]),
                    (3, -1))
                parts.append(part[:, (part[1] != zero) & (part[2] != zero)])
        return np.concatenate(parts, axis=1)

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

    def d0_healthy(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        """s_min(D_0) > tol * s_max(D_0): the pencil step can invert D_0."""
        s = np.linalg.svd(self.matrices(x)[0], compute_uv=False)
        return bool(s[-1] > tol * s[0])


def extend_dual(
    L: DualForm,
    basis: MonomialBasis,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> ExtensionSolution | None:
    """Find unknown moments making the operators on `basis` commute.

    Returns None when no acceptable solution is found (usually meaning the
    basis size is below the true support size, or above it with the unknowns
    overdetermined into inconsistency).  Every solution returned, also one
    with no unknowns, has a D_0 that passes `d0_healthy`.
    """
    res = CommutatorResidual(L, basis)
    if not res.unknowns:
        x, rmax = np.zeros(0, dtype=complex), 0.0
        if res.nequations():
            rmax = float(np.max(np.abs(res.residual(x))))
            if not np.isfinite(rmax) or rmax > tol:
                return None
        if not res.d0_healthy(x):
            return None
        return ExtensionSolution({}, rmax, 0)
    if res.nequations() == 0:
        # a single affine variable never constrains anything here; the caller
        # should have taken the binary route instead
        return None

    x, r, free, ok = _solve_core(
        res.residual,
        res.jacobian,
        len(res.unknowns),
        seed,
        RESTARTS,
        tol,
        max_iter,
        accept=res.d0_healthy,
    )
    if not ok:
        return None
    assignment = {e: complex(v) for e, v in zip(res.unknowns, x)}
    return ExtensionSolution(assignment, float(r), free)
