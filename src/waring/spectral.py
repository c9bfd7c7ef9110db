"""Support points and weights from the Hankel pencil eigenproblem.

Once the extension step has produced numeric matrices D_0 (nonsingular) and
D_i for each variable, the evaluation points of the underlying functional are
read off generalized eigenvectors v of a pencil (D_t, D_0), and the weights
come from one over-determined linear solve against the known moments.  The
pencil is read through one singular value decomposition D_0 = U S V^H for
every t: its eigenvectors are V times those of the standard eigenproblem
S^{-1} U^H D_t V, the multiplication operator D_0^{-1} D_t in the basis V.

Every coordinate is read by one rule.  For an evaluation functional at zeta,
Lambda(x_i b) = zeta_i Lambda(b), so the first row of D_i = H^{B, x_i B} times
v over the first row of D_0 times v is zeta_i, whether or not x_i is in B;
D_0 v at that scale is the basis monomials at zeta, which checks the point.

Each stage refuses by returning None.  `pencil_support` tries a second
pencil only for what a new pencil can change: a refusal, or eigenvalues that
are not simple.  Once a pencil is simple its eigenvectors are those of every
multiplication operator, so the points do not depend on which pencil gave
them; whether they are far enough apart is decided once, by the caller.
"""

from __future__ import annotations

import numpy as np

from .core import DualForm, lstsq, monomial_values, monomials_upto, upper_triangle
from .hankel import MonomialBasis


def generalized_eigen(d1: np.ndarray, svd):
    """Eigenvalues w and eigenvectors v, of unit norm, of the pencil (d1, d0),
    d1 v = w d0 v, from d0's `svd` = `np.linalg.svd(d0)` = (U, S, V^H), or
    None where d0 is too near singular for the division below to stay finite.

    v = V y for each eigenpair (w, y) of S^{-1} U^H d1 V.  Dividing by the
    singular values rather than solving with d0 keeps the accuracy of the QZ
    algorithm on an ill-conditioned d0."""
    u, sigma, vh = svd
    v = vh.conj().T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        op = (u.conj().T @ d1 @ v) / sigma[:, None]
    if not np.isfinite(op).all():
        return None
    w, y = np.linalg.eig(op)
    return w, v @ y


def eigenvalues_simple(w: np.ndarray) -> bool:
    """No two eigenvalues closer than 1e-8 max(1, largest modulus)."""
    scale = max(1.0, float(np.max(np.abs(w))))
    i, j = upper_triangle(len(w))
    return not np.any(np.abs(w[i] - w[j]) <= 1e-8 * scale)


@np.errstate(all="ignore")
def extract_points(u: np.ndarray, basis: MonomialBasis) -> np.ndarray | None:
    """One point per column of `u`, an (r, n) array with row j from column j,
    or None when a column is not an evaluation vector.

    A column, at any scale, is the s = len(basis) basis monomials at its
    point, then the point's n coordinates.  Divided by its entry 0, the
    monomial 1, its first s entries must be the monomials at its point to
    1e-6 relative: entry 0 must be 1, which a zero entry 0 fails.
    """
    s = len(basis)
    u = u / u[0]
    points = np.ascontiguousarray(u[s:].T)
    pred = monomial_values(points, basis.exponents)
    ok = np.abs(u[:s].T - pred) <= 1e-6 * np.maximum(1.0, np.abs(pred))
    return points if ok.all() else None


def solve_weights(points: np.ndarray, L: DualForm) -> np.ndarray:
    """Least-squares weights making sum_j w_j eval_{zeta_j} match the moments
    of L, one per row of the (r, n) array `points`.

    The system runs over every known moment (all degrees up to the
    truncation); the caller's coefficient residual judges the fit, and
    fails the NaN weights of a least-squares kernel that did not converge.
    """
    a = monomial_values(points, monomials_upto(L.nvars, L.degree)).T
    with np.errstate(all="ignore"):
        return lstsq(a, L.moments)


def pencil_support(
    d0: np.ndarray,
    shifts: list[np.ndarray],
    basis: MonomialBasis,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Support points, (r, n), from the first of two pencils with simple
    eigenvalues and evaluation-vector eigenvectors: the plain x_1 pencil
    (D_1, D_0), then (sum_i t_i D_i, D_0) for t drawn on the complex unit
    sphere, only when the first fails; both read one SVD of D_0.  Returns
    None when both fail.
    """
    def pencils():
        yield shifts[0]
        n = len(shifts)
        t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t /= np.linalg.norm(t)
        yield sum(ti * s for ti, s in zip(t, shifts))

    # D_0, then the first row of each D_i: times an eigenvector, the basis
    # monomials and the coordinates of its point, all at one scale
    rows = np.vstack([d0, *(s[:1] for s in shifts)])
    svd = np.linalg.svd(d0)
    for dt in pencils():
        eig = generalized_eigen(dt, svd)
        if eig is None or not eigenvalues_simple(eig[0]):
            continue
        points = extract_points(rows @ eig[1], basis)
        if points is not None:
            return points
    return None
