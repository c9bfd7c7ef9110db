"""Support points and weights from the Hankel pencil eigenproblem.

Once the extension step has produced numeric matrices D_0 (nonsingular) and
D_i for each variable, the evaluation points of the underlying functional are
read off generalized eigenvectors of a pencil (D_t, D_0), and the weights
come from one over-determined linear solve against the known moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DualForm, HomogeneousPoly, monomial_values, monomials_upto, to_dual
from .hankel import MonomialBasis

PENCIL_RETRIES = 8  # pencils per support extraction: x_1, then random combinations


class ExtractionError(RuntimeError):
    """Eigenvector coordinates do not behave like monomial evaluations.

    This is the degenerate-case signal (multiple points collapsing, or a
    functional that is not a plain combination of evaluations); callers
    usually retry with a different pencil, basis or size.
    """


@dataclass
class PointSet:
    points: list[np.ndarray]
    simple: bool

    def __len__(self):
        return len(self.points)


def generalized_eigen(d1: np.ndarray, d0: np.ndarray):
    """Eigenvalues and evaluation-style eigenvectors of the pencil (d1, d0).

    Solving (d1 - lambda d0) v = 0 and setting u = d0 v makes u an
    eigenvector of d1 d0^{-1}; for moment matrices u is the vector of basis
    monomials evaluated at a support point.  Each u is normalized so the
    coordinate of the monomial 1 (position 0) equals 1 whenever that entry is
    not negligible.
    """
    w, v = scipy.linalg.eig(d1, d0)
    u = d0 @ v
    for k in range(u.shape[1]):
        col = u[:, k]
        top = np.max(np.abs(col))
        if top == 0:
            continue
        if abs(col[0]) > 1e-12 * top:
            u[:, k] = col / col[0]
        else:
            u[:, k] = col / top  # cannot pin the constant; leave recognizable
    return w, u


def eigenvalues_simple(w: np.ndarray, tol: float = 1e-8) -> bool:
    scale = max(1.0, float(np.max(np.abs(w))))
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if abs(w[i] - w[j]) <= tol * scale:
                return False
    return True


def _distinct(points, tol: float = 1e-6) -> bool:
    scale = max(1.0, max((float(np.max(np.abs(p))) for p in points), default=0.0))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.max(np.abs(points[i] - points[j])) <= tol * scale:
                return False
    return True


def extract_points(
    eigenvectors: np.ndarray,
    basis: MonomialBasis,
    mult: list[np.ndarray] | None = None,
    tol: float = 1e-6,
) -> PointSet:
    """Recover one point per eigenvector from its monomial coordinates.

    When every variable appears in the basis the coordinates are read
    directly; otherwise the missing ones come from Rayleigh quotients of the
    multiplication matrices `mult[i]` = D_i D_0^{-1}, one per variable.
    Every basis coordinate is then checked against the monomial evaluated at
    the recovered point; a mismatch means the eigenvectors are not evaluation
    vectors at all and raises ExtractionError.
    Point collisions only clear the `simple` flag.
    """
    n = basis.nvars
    var_pos = [basis.index.get(tuple(int(k == i) for k in range(n))) for i in range(n)]
    if any(p is None for p in var_pos) and mult is None:
        raise ValueError("basis misses a variable and no multiplication matrices given")

    points = []
    for u in eigenvectors.T:
        if abs(u[0] - 1) > tol:
            break  # raised below, after the coordinates of the points before it
        zeta = np.empty(n, dtype=complex)
        for i, pos in enumerate(var_pos):
            if pos is not None:
                zeta[i] = u[pos]
            else:
                zeta[i] = (np.conj(u) @ (mult[i] @ u)) / (np.conj(u) @ u)
        points.append(zeta)
    # row j of `got` and `pred` is eigenvector j, column p basis monomial p
    pred = monomial_values(np.reshape(points, (-1, n)), basis.exponents)
    got = eigenvectors[:, : len(points)].T
    bad = np.argwhere(np.abs(got - pred) > tol * np.maximum(1.0, np.abs(pred)))
    if len(bad):
        j, p = bad[0]
        exp, seen, want = basis.exponents[p], got[j, p], pred[j, p]
        raise ExtractionError(f"coordinate of {exp} is {seen:.6g}, expected {want:.6g}")
    if len(points) < eigenvectors.shape[1]:
        raise ExtractionError("eigenvector has no usable constant coordinate")
    return PointSet(points, _distinct(points))


def solve_weights(points: PointSet, target: DualForm | HomogeneousPoly):
    """Least-squares weights making sum_j w_j eval_{zeta_j} match the moments.

    The system runs over every known moment (all degrees up to the
    truncation), so a wrong support shows up as a large residual rather than
    a silent bad fit.  Returns (weights, relative residual).
    """
    L = target if isinstance(target, DualForm) else to_dual(target)
    rows = monomials_upto(L.nvars, L.degree)
    a = monomial_values(points.points, rows).T
    rhs = np.array([L.moment(alpha) for alpha in rows], dtype=complex)
    w, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    denom = max(float(np.linalg.norm(rhs)), 1e-300)
    residual = float(np.linalg.norm(a @ w - rhs)) / denom
    return w, residual


def pencil_support(
    d0: np.ndarray,
    shifts: list[np.ndarray],
    basis: MonomialBasis,
    rng: np.random.Generator,
) -> PointSet | None:
    """Support extraction with random pencil combinations until simple.

    The first attempt uses the plain x_1 pencil (D_1, D_0); subsequent ones
    draw t on the complex unit sphere and use (sum_i t_i D_i, D_0).  Returns
    None when no attempt yields simple eigenvalues, distinct points and
    consistent eigenvectors.
    """
    n = len(shifts)
    inv0 = np.linalg.inv(d0)
    mult = [s @ inv0 for s in shifts]
    for attempt in range(PENCIL_RETRIES):
        if attempt == 0:
            dt = shifts[0]
        else:
            t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t /= np.linalg.norm(t)
            dt = sum(ti * s for ti, s in zip(t, shifts))
        w, u = generalized_eigen(dt, d0)
        if not np.all(np.isfinite(w)) or not eigenvalues_simple(w):
            continue
        try:
            ps = extract_points(u, basis, mult)
        except ExtractionError:
            continue
        if ps.simple:
            return ps
    return None
