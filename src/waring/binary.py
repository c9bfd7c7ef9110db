"""Power-sum decomposition of binary forms via Hankel kernels.

For two variables the whole machinery collapses to one classical step
(Sylvester): slice the moment sequence into a Hankel matrix, pick a
square-free polynomial in its kernel, and read the decomposition directions
off its projective roots.  The terms are kept only through `core.accept`, the
support gate and fit test of the rank search: distinct roots alone are not
enough, their pairwise sines must reach MIN_SEPARATION.  The Hankel data are
the dual form's moments read from x1's end: c_i, the moment of x1^(d-i), is
the coefficient of x0^i x1^(d-i) over binom(d, i).  This is both the fast
path of the general driver and an independent check on it.

The sizes start at Sylvester's bound: the numerical rank of the middle
slice r = d // 2, the catalecticant (or of the slice at `max_rank` when that
is smaller), counted as `hankel.known_rank_bound` counts it.  A singular
value counts when it is above the most that noise of relative size tol in
the coefficients can add to it, so by Weyl's inequality every form within
relative distance tol of the input has at least that rank.  No smaller size
can then pass the residual test, and skipping those sizes changes no report:
neither the decomposition nor the error when `max_rank` is below the bound.
The loop reuses that slice's SVD at its size, so a form of rank d // 2 whose
catalecticant shows that rank costs one SVD.  A bound of 1 starts the loop at
r = 1, which takes an SVD of its own: a single power of degree 4 or more
costs two.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    accept,
    check_request,
    exponent_array,
    lstsq,
    monomial_values,
    numerical_rank,
    to_dual,
)
from .hankel import _catalecticant_layout


def _moments(p: HomogeneousPoly) -> np.ndarray:
    """c_0 .. c_d, c_i the moment of x1^(d-i) in `to_dual(p)`."""
    if p.nvars != 2:
        raise ValueError("binary form needs exactly two variables")
    return to_dual(p).moments[::-1]


def _slice(c: np.ndarray, r: int) -> np.ndarray:
    """The (d - r + 1) x (r + 1) Hankel matrix c_{i+j}: the catalecticant
    block r of `hankel._catalecticant_layout`, transposed."""
    return c[_catalecticant_layout(1, len(c) - 1, r)[0].T]


def _start(u: np.ndarray, cap: int, floor: float):
    """(start, r0, probe): the first size the loop needs to try, no more
    than `cap` + 1, and the size and SVD of the slice read to know it; or
    (1, None, None) when no slice was read.  `u` holds the moments over the
    largest and `floor` the coefficient noise of the module docstring in
    that scale.

    Sizes start at the catalecticant bound of the module docstring, at
    least 1, read off the slice at r0, the middle one or the last size
    allowed, when r0 >= 2."""
    d = len(u) - 1
    r0 = min(d // 2, cap)
    if r0 < 2:
        return 1, None, None
    probe = np.linalg.svd(_slice(u, r0))
    gain = _catalecticant_layout(1, d, r0)[1]
    return max(1, numerical_rank(probe.S, gain * floor)), r0, probe


def _projective_roots(b: np.ndarray) -> np.ndarray:
    """The r roots of sum_k b_k alpha^k beta^(r-k) as the unit rows
    (alpha, beta) of an (r, 2) array.

    Leading coefficients at most 1e-10 of the largest vanish; each is a root
    at infinity, direction (1, 0).  Two of those are a repeated root, which
    `accept`'s support gate refuses: their pairwise sine is exactly 0, below
    MIN_SEPARATION.  The finite roots are `np.roots` of what is left, bit for
    bit: the eigenvalues of its companion matrix, then a root 0 for each
    vanishing trailing coefficient.  Each row is divided by the norm
    `np.linalg.norm` gives it, whose squares sum in the same order.
    """
    r = len(b) - 1
    top = np.max(np.abs(b))
    k = r
    while k >= 0 and abs(b[k]) <= 1e-10 * top:
        k -= 1
    zeros = 0  # b_0 .. b_(zeros-1) are exactly 0: alpha^zeros divides, roots alpha = 0
    while zeros < k and b[zeros] == 0:
        zeros += 1
    pts = np.zeros((r, 2), dtype=complex)
    pts[:k, 1] = 1.0
    pts[k:, 0] = 1.0  # at infinity
    if k - zeros:
        p = b[zeros : k + 1][::-1]
        companion = np.eye(k - zeros, k=-1, dtype=complex)
        companion[0, :] = -p[1:] / p[0]
        pts[: k - zeros, 0] = np.linalg.eigvals(companion)
    norms = np.sqrt((pts.real[:, 0] ** 2 + pts.real[:, 1] ** 2)
                    + (pts.imag[:, 0] ** 2 + pts.imag[:, 1] ** 2))
    return pts / norms[:, None]


def binary_decompose(
    p: HomogeneousPoly,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_rank: int | None = None,
) -> Decomposition:
    """Minimal power-sum decomposition of a nonzero binary form.

    Tries sizes r upward from the catalecticant bound (see the module
    docstring); at each size takes at most two kernel candidates, fits
    weights on each one's r projective roots to the moments, and returns the
    decomposition of the first whose terms pass `accept`, the support gate
    and fit test of every route.  Raises ValueError on a request
    `core.check_request` refuses and DecompositionError when no size up to
    d, or up to `max_rank` when that is smaller, passes.
    """
    norm = check_request(p, tol, max_rank, seed)
    c = _moments(p)
    d = p.degree
    scale = np.max(np.abs(c))
    rng = None  # drawn from only for a kernel of more than one dimension
    cap = d if max_rank is None else min(d, max_rank)
    # c_i = sum_j w_j alpha_j^i beta_j^(d-i): exponents (i, d - i), i = 0..d
    exps = exponent_array(2, d)[::-1]

    u = c / scale
    start, r0, probe = _start(u, cap, tol * norm / scale)
    for r in range(start, cap + 1):
        _, s, vh = probe if r == r0 else np.linalg.svd(_slice(u, r))
        null = vh[numerical_rank(s):].conj().T
        if null.shape[1] == 0:
            continue
        # the smallest right singular vector first: the cut above can read a
        # slice of an ill-conditioned form as rank-deficient too early, and
        # then it is the best single kernel candidate.  A kernel of more than
        # one dimension adds one random combination
        kernel = [null[:, -1]]
        if null.shape[1] > 1:
            rng = np.random.default_rng(seed) if rng is None else rng
            mu = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            kernel.append(null @ (mu / np.linalg.norm(mu)))
        for b in kernel:
            pts = _projective_roots(b)
            a = monomial_values(pts, exps).T
            with np.errstate(all="ignore"):
                w = lstsq(a, c)
            dec = accept(p, list(zip(w, pts)), tol)
            if dec is not None:
                return dec
    raise DecompositionError(f"no distinct-root kernel combination found up to r = {cap}")
