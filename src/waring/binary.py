"""Power-sum decomposition of binary forms via Hankel kernels.

For two variables the whole machinery collapses to one classical step: slice
the coefficient sequence into a Hankel matrix, pick a square-free polynomial
in its kernel, and read the decomposition directions off its projective
roots.  This is both the fast path of the general driver and an independent
check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    monomial_values,
    pairwise_sines,
)

KERNEL_RETRIES = 16  # kernel combinations tried per size


@dataclass
class BinaryForm:
    """Degree-d form in x0, x1 stored densely: a[i] = coeff of x0^i x1^(d-i)."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need exactly degree+1 coefficients")

    @classmethod
    def from_poly(cls, p: HomogeneousPoly) -> "BinaryForm":
        if p.nvars != 2:
            raise ValueError("binary form needs exactly two variables")
        a = np.zeros(p.degree + 1, dtype=complex)
        for (e0, _), c in p.coeffs.items():
            a[e0] = c
        return cls(p.degree, a)

    def to_poly(self) -> HomogeneousPoly:
        d = self.degree
        return HomogeneousPoly(
            2, d, {(i, d - i): c for i, c in enumerate(self.coeffs) if c != 0}
        )

    def moments(self) -> np.ndarray:
        """c_i = a_i / binom(d, i); the Hankel data of the form."""
        d = self.degree
        return np.array(
            [self.coeffs[i] / math.comb(d, i) for i in range(d + 1)], dtype=complex
        )


def hankel_slice(p: BinaryForm | HomogeneousPoly, r: int) -> np.ndarray:
    """The (d-r+1) x (r+1) matrix with entries c_{i+j}."""
    bf = BinaryForm.from_poly(p) if isinstance(p, HomogeneousPoly) else p
    d = bf.degree
    if not 1 <= r <= d:
        raise ValueError(f"slice index {r} outside 1..{d}")
    c = bf.moments()
    return np.array([[c[i + j] for j in range(r + 1)] for i in range(d - r + 1)])


def _projective_roots(b: np.ndarray, zero_tol: float = 1e-10):
    """Roots of sum_k b_k alpha^k beta^(r-k) as points (alpha, beta).

    Vanishing leading coefficients are roots at infinity, direction (1, 0);
    more than one of those means a repeated root and the caller must retry.
    Returns None in that case.
    """
    r = len(b) - 1
    top = np.max(np.abs(b))
    k = r
    while k >= 0 and abs(b[k]) <= zero_tol * top:
        k -= 1
    at_infinity = r - k
    if at_infinity > 1:
        return None
    finite = np.roots(b[k::-1]) if k >= 1 else np.array([])
    pts = [np.array([z, 1.0 + 0j]) for z in finite]
    pts += [np.array([1.0 + 0j, 0j])] * at_infinity
    return [p / np.linalg.norm(p) for p in pts]


def binary_decompose(
    p: BinaryForm | HomogeneousPoly,
    rng_seed: int = 0,
    tol: float = 1e-8,
    max_rank: int | None = None,
) -> Decomposition:
    """Minimal power-sum decomposition of a nonzero binary form.

    Tries sizes r = 1, 2, ...; at each size draws kernel combinations until
    one has r distinct projective roots, then accepts if the weight solve
    reproduces both the moments and the coefficients to relative residual
    `tol`.  Raises DecompositionError when no size up to d, or up to
    `max_rank` when that is smaller, does.
    """
    bf = BinaryForm.from_poly(p) if isinstance(p, HomogeneousPoly) else p
    d = bf.degree
    c = bf.moments()
    scale = np.max(np.abs(c))
    if scale == 0:
        raise ValueError("zero form has no decomposition")
    rng = np.random.default_rng(rng_seed)
    cap = d if max_rank is None else min(d, max_rank)

    for r in range(1, cap + 1):
        h = hankel_slice(bf, r) / scale
        _, s, vh = np.linalg.svd(h)
        rank = int(np.sum(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
        null = vh[rank:].conj().T
        if null.shape[1] == 0:
            continue
        for attempt in range(KERNEL_RETRIES):
            if attempt == 0:
                # the smallest right singular vector: the cut above can read a
                # slice of an ill-conditioned form as rank-deficient too early,
                # and then it is the best single kernel candidate
                b = null[:, -1]
            elif null.shape[1] == 1:
                break  # one-dimensional kernel cannot produce new candidates
            else:
                mu = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(
                    null.shape[1]
                )
                b = null @ (mu / np.linalg.norm(mu))
            pts = _projective_roots(b)
            if pts is None or len(pts) != r or np.any(pairwise_sines(pts) <= 1e-8):
                continue
            # c_i = sum_j w_j alpha_j^i beta_j^(d-i)
            a = monomial_values(pts, [(i, d - i) for i in range(d + 1)]).T
            w, *_ = np.linalg.lstsq(a, c, rcond=None)
            res = np.linalg.norm(a @ w - c) / np.linalg.norm(c)
            if res < tol:
                rebuilt = np.array([math.comb(d, i) * (a[i] @ w) for i in range(d + 1)])
                coeff_err = float(
                    np.linalg.norm(rebuilt - bf.coeffs) / np.linalg.norm(bf.coeffs)
                )
                if coeff_err <= tol:
                    return Decomposition(d, list(zip(w, pts)), coeff_err)
    raise DecompositionError(f"no distinct-root kernel combination found up to r = {cap}")
