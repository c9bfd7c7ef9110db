"""Sparse arithmetic for homogeneous polynomials over C and their dual forms.

A polynomial is a dictionary mapping exponent tuples to complex coefficients:

  Exponent = tuple[int, ...]     (one entry per variable)
  x0^2 * x1  in 3 variables  ->  {(2, 1, 0): 1.0}

Everything downstream (Hankel matrices, extension, eigen extraction) consumes
the dual form of the input: the truncated moment table c_alpha obtained by
dividing each coefficient by its multinomial weight.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

Exponent = tuple[int, ...]

RANK_CUT = 1e-8  # `numerical_rank` counts singular values above this fraction of the largest
DEFAULT_TOL = 1e-7  # the relative residual every entry point and `--tol` default to
EPS = np.finfo(float).eps  # the unit of `lstsq`'s rank cutoff
# the support gate of `accept`: genuine simple-point decompositions keep their
# forms apart and their term masses comparable to the polynomial itself; a
# borderline form approximated from below shows near-coincident points with
# huge cancelling weights instead
MIN_SEPARATION = 1e-4
MASS_RATIO_CAP = 1e4


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DecompositionError(RuntimeError):
    """No acceptable decomposition was found within the configured budget."""


def finite_coeff(c) -> complex:
    """`c` as a complex number; ValueError unless both parts are finite."""
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError("coefficients must be finite")
    return c


def grlex_key(alpha: Exponent):
    # Graded order, and inside one degree the variable with the lowest index
    # dominates: (2,0) before (1,1) before (0,2).
    return (sum(alpha), tuple(-a for a in alpha))


def monomials(nvars: int, degree: int) -> list[Exponent]:
    """All exponents of total degree `degree`, in graded-lex order."""
    return list(_monomials(nvars, degree))


def monomials_upto(nvars: int, degree: int) -> list[Exponent]:
    return list(_monomials_upto(nvars, degree))


# cached as tuples, which no caller can change; the functions above hand out
# fresh lists
@functools.cache
def _monomials(nvars: int, degree: int) -> tuple[Exponent, ...]:
    if nvars == 0:
        return ((),) if degree == 0 else ()
    return tuple(
        (a,) + t for a in range(degree, -1, -1) for t in _monomials(nvars - 1, degree - a)
    )


@functools.cache
def _monomials_upto(nvars: int, degree: int) -> tuple[Exponent, ...]:
    return tuple(e for k in range(degree + 1) for e in _monomials(nvars, k))


@functools.cache
def _binomials(nvars: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, offsets): C(a, b) at a * (nvars + 1) + b, for a < nvars + top
    and b <= nvars, and the offsets that put C(nvars - 1 - j + t, nvars - j)
    at t * (nvars + 1) + offsets[j]; read only, since every caller shares them."""
    table = np.array(
        [math.comb(a, b) for a in range(nvars + top) for b in range(nvars + 1)],
        dtype=np.intp,
    )
    j = np.arange(nvars)
    offsets = (nvars - 1 - j) * (nvars + 1) + nvars - j
    table.flags.writeable = offsets.flags.writeable = False
    return table, offsets


def monomial_index(exps) -> np.ndarray:
    """The graded-lex position of each exponent (along the last axis) among
    all monomials in that many variables: its index in `monomials_upto(n, D)`
    for every D at or above its degree.

    With t_j = e_j + ... + e_(n-1), the position is the sum over j of
    C(n - 1 - j + t_j, n - j): the j = 0 term counts the monomials of lower
    degree, and term j >= 1 those of the same degree that agree with e
    before x_(j-1) and are larger in it.  Integer arithmetic over the whole
    block; the only table is one of binomials."""
    e = np.asarray(exps, dtype=np.intp)
    n = e.shape[-1]
    if n == 0 or e.size == 0:
        return np.zeros(e.shape[:-1], dtype=np.intp)
    t = np.cumsum(e[..., ::-1], axis=-1)[..., ::-1]
    table, offsets = _binomials(n, int(t[..., 0].max()))
    return table.take(t * (n + 1) + offsets).sum(axis=-1)


@functools.cache
def _multinomials(nvars: int, degree: int) -> tuple[int, ...]:
    """degree! / (e_0! * ... * e_(nvars-1)!) for e in `_monomials(nvars,
    degree)`, exact: C(degree, e_0) times the multinomial of the rest."""
    if nvars < 2:
        return (1,) if nvars or not degree else ()
    return tuple(
        math.comb(degree, a) * m
        for a in range(degree, -1, -1)
        for m in _multinomials(nvars - 1, degree - a)
    )


@functools.cache
def multinomials(nvars: int, degree: int) -> np.ndarray:
    """The multinomial coefficient of (degree - |e|, *e) for e in
    `monomials_upto(nvars, degree)`: a form's coefficient over its moment
    (see `to_dual`).  Those are the exponents of `monomials(nvars + 1,
    degree)` in that order, so each is an exact `_multinomials` integer
    rounded once to a float."""
    out = np.array(_multinomials(nvars + 1, degree), dtype=float)
    out.flags.writeable = False
    return out


@functools.cache
def exponent_array(nvars: int, degree: int) -> np.ndarray:
    """`monomials(nvars, degree)` as an (m, nvars) integer array, built once
    per shape; read only, since every caller shares it."""
    out = np.array(_monomials(nvars, degree), dtype=int).reshape(-1, nvars)
    out.flags.writeable = False
    return out


def monomial_values(points, exps) -> np.ndarray:
    """The (m, k) array of z^alpha for the m rows z of `points` and the k rows
    alpha of `exps` (0^0 = 1): one broadcast power, then a product along the
    variable axis."""
    z = np.asarray(points, dtype=complex)
    e = np.asarray(exps, dtype=int)
    if z.ndim != 2 or e.ndim != 2 or z.shape[1] != e.shape[1]:
        raise ValueError(
            f"need (m, n) points and (k, n) exponents, got shapes {z.shape} and {e.shape}"
        )
    return np.prod(z[:, None, :] ** e[None, :, :], axis=2)


class HomogeneousPoly:
    """Degree-d form in `nvars` variables, stored as exponent -> coefficient."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: dict[Exponent, complex]):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        for exp, c in coeffs.items():
            exp = tuple(map(int, exp))
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for nvars={nvars}")
            if min(exp) < 0:
                raise ValueError(f"negative exponent in {exp}")
            if sum(exp) != degree:
                raise ValueError(f"exponent {exp} does not have total degree {degree}")
            c = complex(c)
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c
        self.nvars = nvars
        self.degree = degree
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _trusted(cls, nvars: int, degree: int, coeffs: dict) -> "HomogeneousPoly":
        """The form of coefficients the package computed itself, one per
        exponent tuple of the right shape: none is checked, and the result is
        the constructor's (exact zeros dropped, each value 0 + c)."""
        out = object.__new__(cls)
        out.nvars, out.degree = nvars, degree
        out.coeffs = {e: 0 + complex(c) for e, c in coeffs.items() if c != 0}
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, alpha: Exponent) -> complex:
        return self.coeffs.get(tuple(alpha), 0j)

    def terms(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        for exp in sorted(self.coeffs, key=grlex_key):
            yield exp, self.coeffs[exp]

    def scale(self, s: complex) -> "HomogeneousPoly":
        return HomogeneousPoly._trusted(
            self.nvars, self.degree, {e: s * c for e, c in self.coeffs.items()}
        )

    def coeff_norm(self) -> float:
        return ordered_norm(self.coeffs.values())

    def __repr__(self):
        return f"HomogeneousPoly(nvars={self.nvars}, degree={self.degree}, terms={len(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


def ordered_norm(values) -> float:
    """The 2-norm of complex `values`, summed in their order."""
    return math.sqrt(sum(abs(c) ** 2 for c in values))


def check_request(f: HomogeneousPoly, tol: float = DEFAULT_TOL,
                  max_rank: int | None = None, seed: int = 0) -> float:
    """f's coefficient norm once the request passes the checks every entry
    point makes before any search, ValueError otherwise: f nonzero, of degree
    at least 1, its norm a nonzero double (|c|^2 passes the largest double
    for |c| above about 1.3e154, and rounds to 0 for every |c| below about
    2e-162); tol a finite real above 0; max_rank None or an integer of at
    least 1; seed an integer of at least 0."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    try:
        norm = f.coeff_norm()
    except OverflowError:  # raised by float ** 2 past the largest double
        norm = math.inf
    if not 0 < norm < math.inf:
        raise ValueError(
            "coefficients out of double range: every |c| must be below about "
            "1.3e154 and some above about 2e-162, so that their norm is a nonzero double"
        )
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError("tol (--tol) must be a finite real above 0")
    if max_rank is not None and not (isinstance(max_rank, numbers.Integral) and max_rank >= 1):
        raise ValueError("max_rank (--max-rank) must be an integer of at least 1")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError("seed (--seed) must be an integer of at least 0")
    return norm


def fit_difference(g: dict, f: HomogeneousPoly) -> list[complex]:
    """The coefficients of g - f, g given by its coefficient dictionary, up to
    their signs and a zero for each monomial where the two agree: g's nonzero
    coefficients less f's, then f's where g has none.  `accept` and `verify`
    read their residuals off this list, summed in this order."""
    fc = f.coeffs
    diff = [c - fc.get(e, 0) for e, c in g.items() if c != 0]
    diff += [c for e, c in fc.items() if not g.get(e)]
    return diff


def random_unitary(nvars: int, rng: np.random.Generator) -> np.ndarray:
    """A random unitary matrix: the Q of a complex Gaussian matrix's QR
    factorization, each column's phase fixed by R's diagonal."""
    g = rng.standard_normal((nvars, nvars)) + 1j * rng.standard_normal((nvars, nvars))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass
class Decomposition:
    """Sum-of-powers representation: sum_i weight_i * (form_i . x)^degree."""

    degree: int
    terms: list[tuple[complex, np.ndarray]]
    residual: float = 0.0

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def nvars(self) -> int:
        return len(self.terms[0][1]) if self.terms else 0

    def normalized(self) -> "Decomposition":
        """Scale each form so its first non-negligible coordinate is 1: the
        first whose modulus is above 1e-8 of the form's largest."""
        if not self.terms:
            return Decomposition(self.degree, [], self.residual)
        k = np.array([k for _, k in self.terms], dtype=complex)
        big = np.abs(k).max(axis=1)  # NaN or inf leaves no coordinate above it
        # `hypot` is the modulus a complex scalar's `abs` takes, which the
        # vectorized `np.abs` above can miss by an ulp
        above = np.hypot(k.real, k.imag) > 1e-8 * big[:, None]
        found = above.any(axis=1)
        if not found.all():
            raise ValueError(f"form of term {np.argmin(found) + 1} is zero or not finite")
        pivots = k[np.arange(len(k)), above.argmax(axis=1)]
        forms = k / pivots[:, None]
        out = [
            (complex(w) * pivot**self.degree, form)
            for (w, _), pivot, form in zip(self.terms, pivots, forms)
        ]
        return Decomposition(self.degree, out, self.residual)


class DualForm:
    """Truncated moment table of a form: Lambda(x^alpha) = c_alpha for |alpha| <= d.

    `moments` is one complex vector in `monomials_upto(nvars, degree)` order.
    Moments beyond degree d are unknown; an extension carries the vector past
    them, in the same order, as its `ExtensionSolution.moments`.
    """

    __slots__ = ("nvars", "degree", "moments")

    def __init__(self, nvars, degree, moments):
        self.nvars = nvars
        self.degree = degree
        self.moments = np.asarray(moments, dtype=complex)
        if self.moments.shape != (len(_monomials_upto(nvars, degree)),):
            raise ValueError(f"need one moment per monomial of degree <= {degree}")

    def __repr__(self):
        return f"DualForm(nvars={self.nvars}, degree={self.degree})"


@functools.cache
def _form_positions(nvars: int, degree: int) -> dict[Exponent, int]:
    """Exponent -> its index in `monomials(nvars, degree)`, which is the
    `monomial_index` of its part past x0; callers only read it."""
    return {e: i for i, e in enumerate(_monomials(nvars, degree))}


def _coeff_vector(f: HomogeneousPoly) -> np.ndarray:
    """f's coefficients in `monomials(f.nvars, f.degree)` order, 0 where f has none."""
    at = _form_positions(f.nvars, f.degree)
    c = np.zeros(len(at), dtype=complex)
    c[list(map(at.__getitem__, f.coeffs))] = list(f.coeffs.values())
    return c


def to_dual(f: HomogeneousPoly) -> DualForm:
    """Dual form of f in the affine chart x_0 = 1.

    The moment of x^beta, beta over x_1..x_{n-1}, is the coefficient of
    x_0^(d-|beta|) * x^beta in f over its multinomial.  A term whose form has
    x_0 coefficient 0 lies outside the chart; the rank loop's random frames
    move it in.
    """
    n, d = f.nvars - 1, f.degree
    mults = multinomials(n, d)
    c = _coeff_vector(f)
    # each part on its own: complex-by-real division would multiply by a
    # reciprocal and round differently from the exact quotient
    return DualForm(n, d, c.real / mults + 1j * (c.imag / mults))


def apolar(f: HomogeneousPoly, g: HomogeneousPoly) -> complex:
    """Apolar pairing <f, g> = sum_alpha f_alpha g_alpha / multinomial(d, alpha)."""
    if (f.nvars, f.degree) != (g.nvars, g.degree):
        raise ValueError("apolar pairing needs equal nvars and degree")
    # alpha's multinomial, at alpha's index in `monomials(f.nvars, f.degree)`
    mults = multinomials(f.nvars - 1, f.degree)
    at = _form_positions(f.nvars, f.degree)
    total = 0j
    small, other = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    for exp, c in small.coeffs.items():
        oc = other.coeffs.get(exp)
        if oc is not None:
            total += c * oc / mults[at[exp]]
    return total


def _poly_mul(p: dict, q: dict) -> dict:
    """Product of two polynomials keyed by exponent codes (`change_coordinates`)."""
    out: dict[int, complex] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def change_coordinates(f: HomogeneousPoly, a) -> HomogeneousPoly:
    """g(y) = f(A y) for an (n, k) matrix A: substitute x_i <- sum_j A[i,j] y_j
    and expand, a form in k variables.

    Every change the package makes has orthonormal columns, A^H A = I, and
    when k < n f depends on x only through A^H x.  Then f(x) = g(A^H x), so
    a term w (m . y)^d of g is the term w ((conj(A) m) . x)^d of f.

    The expansion keys each exponent e by the integer code sum_i e_i (d+1)^i,
    so multiplying monomials adds their codes: at total degree <= d no digit
    carries.  Codes become exponent tuples only for the result.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != f.nvars:
        raise ValueError(f"change of coordinates needs {f.nvars} rows, got shape {a.shape}")
    n, k = a.shape
    base = f.degree + 1
    # linear forms for each original variable, then powers on demand
    lin = [
        {base**j: complex(a[i, j]) for j in range(k) if a[i, j] != 0}
        for i in range(n)
    ]
    powers: list[list[dict]] = [[{0: 1.0}] for _ in range(n)]
    out: dict[int, complex] = {}
    for exp, c in f.coeffs.items():
        term = {0: complex(c)}
        for i, e in enumerate(exp):
            while len(powers[i]) <= e:
                powers[i].append(_poly_mul(powers[i][-1], lin[i]))
            if e:
                term = _poly_mul(term, powers[i][e])
        for mono, v in term.items():
            out[mono] = out.get(mono, 0) + v

    def exponent(code: int) -> Exponent:
        digits = []
        for _ in range(k):
            code, e = divmod(code, base)
            digits.append(e)
        return tuple(digits)

    return _trimmed(k, f.degree, {exponent(e): v for e, v in out.items()})


def _trimmed(nvars: int, degree: int, coeffs: dict) -> HomogeneousPoly:
    """The form of `coeffs` without those of modulus at most 1e-14 of the largest."""
    cutoff = 1e-14 * max((abs(v) for v in coeffs.values()), default=0.0)
    return HomogeneousPoly._trusted(
        nvars, degree, {e: v for e, v in coeffs.items() if abs(v) > cutoff}
    )


def identity_frame(f: HomogeneousPoly) -> HomogeneousPoly:
    """`change_coordinates(f, np.eye(f.nvars))` without the expansion: f's
    coefficients above 1e-14 of the largest, signed zeros made +0 as the
    expansion's sums make them."""
    return _trimmed(f.nvars, f.degree, f.coeffs)


@functools.cache
def upper_triangle(size: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(size, k=1)`, the pairs i < j, built once per size;
    read-only, since every caller shares them."""
    i, j = np.triu_indices(size, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def row_norms(u: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of the complex (m, n) array u:
    `np.linalg.norm(u, axis=1)` bit for bit, by its own formula, without the
    wrapper."""
    return np.sqrt(np.add.reduce((u.conj() * u).real, axis=1))


def pairwise_sines(forms, norms=None) -> np.ndarray:
    """Sine of the angle between the lines of each pair of forms, i < j;
    `norms`, when given, are the forms' `row_norms`.

    For unit forms u, v it is ||v - <u,v> u||.  Unlike sqrt(1 - |<u,v>|^2),
    which loses everything below sqrt(machine epsilon) ~ 1e-8, this stays
    accurate down to about machine epsilon.
    """
    u = np.array(forms, dtype=complex)
    u /= (row_norms(u) if norms is None else norms)[:, None]
    i, j = upper_triangle(len(u))
    ui, uj = u[i], u[j]
    inner = np.add.reduce(ui.conj() * uj, axis=1)
    return row_norms(uj - inner[:, None] * ui)


def numerical_rank(s: np.ndarray, floor: float = 0.0) -> int:
    """The number of singular values `s` (largest first) above RANK_CUT times
    the largest and above `floor`; 0 when there are none.

    Every rank and nullity in the package is counted by this one rule."""
    return int(np.sum(s > max(RANK_CUT * s[0], floor))) if len(s) else 0


def matrix_rank(m: np.ndarray, floor: float = 0.0) -> int:
    """The `numerical_rank` of the matrix m, from its singular values alone."""
    return numerical_rank(np.linalg.svd(m, compute_uv=False), floor)


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of a x = b, a complex (m, n)
    and b complex (m,): `np.linalg.lstsq(a, b, rcond=None)[0]` bit for bit,
    through the same kernel and cutoff eps * max(m, n) without the wrapper's
    checks, copies and `np.errstate`.  Call it under
    `np.errstate(all="ignore")`: a kernel that fails then returns NaN where
    the wrapper would raise."""
    cut = EPS * max(a.shape)
    return _umath_linalg.lstsq(a, b[:, None], cut, signature="DDd->Ddid")[0][:, 0]


def essential_vars(f: HomogeneousPoly):
    """Number of variables really present in f, and a change realizing it.

    The count is the `numerical_rank` of the matrix of first partial
    derivatives: one row per variable, one column per quotient x^e / x_i
    with c x^e a term of f and e_i > 0, in graded-lex order.  The other
    degree d-1 monomials would only add zero columns.  The change is the
    (n, count) matrix q = conj(U)[:, :count] of that matrix's thin SVD, whose
    columns are orthonormal: `change_coordinates(f, q)` is f in `count`
    variables.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no essential variables")
    exps = np.array(list(f.coeffs), dtype=np.intp)
    monos, rows = np.nonzero(exps)
    quotients = exps[monos]
    quotients[np.arange(len(monos)), rows] -= 1
    keys, cols = np.unique(monomial_index(quotients[:, 1:]), return_inverse=True)
    p = np.zeros((f.nvars, len(keys)), dtype=complex)
    coeffs = np.array(list(f.coeffs.values()), dtype=complex)
    p[rows, cols] += exps[monos, rows] * coeffs[monos]  # no cell is hit twice
    u, s, _ = np.linalg.svd(p, full_matrices=False)
    count = numerical_rank(s)
    # the directions conj(U[:, j]), j >= count, are in the left null space
    # of p: f is constant along them and depends on x only through q^H x
    return count, np.conj(u[:, :count])


def _power_sum(weights: np.ndarray, forms: np.ndarray, degree: int):
    """(exps, values): the coefficients of sum_i w_i (k_i . x)^d, the k_i the
    rows of `forms`, by the multinomial theorem over the monomials of the
    variables some k_i uses, and their exponents in all the variables.  A
    monomial in any other variable has coefficient 0 and is not listed."""
    used = np.flatnonzero(forms.any(axis=0))
    if not used.size:
        return [], []
    # `take` returns C order where forms[:, used] would not: with every
    # variable used, the product below sums exactly as over the forms themselves
    values = weights @ monomial_values(
        forms.take(used, axis=1), exponent_array(len(used), degree)
    )
    values *= multinomials(len(used) - 1, degree)
    exps = monomials(len(used), degree)
    if len(used) < forms.shape[1]:
        lifted = np.zeros((len(exps), forms.shape[1]), dtype=int)
        lifted[:, used] = exps
        exps = list(map(tuple, lifted.tolist()))
    return exps, values.tolist()


def expand_power_sum(terms, nvars: int, degree: int) -> HomogeneousPoly:
    """Expand sum_i w_i (k_i . x)^d by the multinomial theorem (`_power_sum`)."""
    if isinstance(terms, Decomposition):
        terms = terms.terms
    forms = np.array([k for _, k in terms], dtype=complex).reshape(len(terms), nvars)
    weights = np.array([w for w, _ in terms], dtype=complex)
    return HomogeneousPoly._trusted(nvars, degree, dict(zip(*_power_sum(weights, forms, degree))))


def accept(f: HomogeneousPoly, terms, tol: float) -> Decomposition | None:
    """The decomposition of f by `terms`, normalized, with its relative
    coefficient residual; or None unless the terms pass the support gate and
    the residual is at most tol: the one test every route applies to the
    terms it returns, and the one place they become its result.  The
    residual is the coefficient norm of g - f over f's, g the power sum,
    summed in `fit_difference` order with no form built for g.

    The gate refuses numerically degenerate supports: two forms whose
    pairwise sine is below MIN_SEPARATION, or a term whose mass |w| ||k||^d
    is above MASS_RATIO_CAP times f's coefficient norm.  Both are unitary
    invariants, so the verdict does not depend on the frame that found the
    terms.  A NaN fails every test."""
    weights = [w for w, _ in terms]
    forms = np.array([k for _, k in terms], dtype=complex)
    norms = row_norms(forms)
    f_norm = f.coeff_norm()
    if not (
        np.all(np.abs(weights) * norms**f.degree <= MASS_RATIO_CAP * f_norm)
        and np.all(pairwise_sines(forms, norms) >= MIN_SEPARATION)
    ):
        return None
    g = dict(zip(*_power_sum(np.array(weights, dtype=complex), forms, f.degree)))
    res = ordered_norm(fit_difference(g, f)) / f_norm
    return Decomposition(f.degree, terms, res).normalized() if res <= tol else None


# ---------------------------------------------------------------------------
# text and JSON formats (shared with the CLI)

def _format_number(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    return f"({c.real!r},{c.imag!r})"


def format_poly(f: HomogeneousPoly) -> str:
    """Canonical text form, e.g. '38*x0^5 - 120*x0^4*x1'."""
    if f.is_zero:
        return "0"
    parts = []
    for exp, c in f.terms():
        mono = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
        )
        if c.imag == 0 and not parts:
            lead = _format_number(c)
        elif c.imag == 0:
            lead = ("+ " if c.real >= 0 else "- ") + _format_number(abs(c.real))
        else:
            lead = ("+ " if parts else "") + _format_number(c)
        parts.append(lead + ("*" + mono if mono else ""))
    return " ".join(parts)


_NUMBER_CHARS = set("0123456789.eE")
# the literals `float` reads as NaN or an infinity; parsed as numbers, so that
# the coefficient they give fails the finite test, not the term syntax
_NON_FINITE = re.compile(r"nan|inf(inity)?", re.IGNORECASE)


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_number(self) -> float:
        self.skip_ws()
        start = self.pos
        t = self.text
        if self.pos < len(t) and t[self.pos] in "+-":
            self.pos += 1
        if literal := _NON_FINITE.match(t, self.pos):
            self.pos = literal.end()
        while self.pos < len(t) and (
            t[self.pos] in _NUMBER_CHARS
            or (t[self.pos] in "+-" and t[self.pos - 1] in "eE")
        ):
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start)
        try:
            return float(t[start : self.pos])
        except ValueError:
            raise PolyParseError(f"bad number {t[start:self.pos]!r}", start)

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected an integer", start)
        return int(t[start : self.pos])


def parse_poly(text: str, nvars: int | None = None) -> HomogeneousPoly:
    """Parse 'coeff*x0^a0*x1^a1 + ...'; complex coefficients written (re,im).

    The '*' between factors may be omitted.  The number of variables is the
    highest index seen plus one unless `nvars` forces it.
    """
    lx = _Lexer(text)
    raw_terms: list[tuple[int, complex, dict[int, int]]] = []
    first = True
    while True:
        lx.skip_ws()
        if lx.pos >= len(lx.text):
            break
        term_start = lx.pos
        sign = 1.0
        ch = lx.peek()
        if ch in "+-":
            sign = -1.0 if ch == "-" else 1.0
            lx.pos += 1
            lx.skip_ws()
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", lx.pos)
        first = False
        coeff = complex(sign)
        saw_factor = False
        ch = lx.peek()
        if ch == "(":
            lx.pos += 1
            re = lx.take_number()
            if lx.peek() != ",":
                raise PolyParseError("expected ',' in complex coefficient", lx.pos)
            lx.pos += 1
            im = lx.take_number()
            if lx.peek() != ")":
                raise PolyParseError("expected ')' in complex coefficient", lx.pos)
            lx.pos += 1
            coeff *= complex(re, im)
            saw_factor = True
        elif ch and (ch.isdigit() or ch == "." or _NON_FINITE.match(lx.text, lx.pos)):
            coeff *= lx.take_number()
            saw_factor = True
        exps: dict[int, int] = {}
        while True:
            ch = lx.peek()
            if ch == "*":
                lx.pos += 1
                ch = lx.peek()
            if ch != "x":
                break
            lx.pos += 1
            idx = lx.take_int()
            e = 1
            if lx.peek() == "^":
                lx.pos += 1
                e = lx.take_int()
            exps[idx] = exps.get(idx, 0) + e
            saw_factor = True
        if not saw_factor:
            raise PolyParseError("empty term", term_start)
        raw_terms.append((term_start, coeff, exps))
    if not raw_terms:
        raise PolyParseError("empty polynomial", 0)

    max_var = max((max(e) for _, _, e in raw_terms if e), default=-1)
    n = nvars if nvars is not None else max_var + 1
    if n < 1:
        raise PolyParseError("no variables found; pass nvars explicitly", 0)
    if max_var >= n:
        raise PolyParseError(f"variable x{max_var} exceeds nvars={n}", 0)
    degree = sum(raw_terms[0][2].values())
    coeffs: dict[Exponent, complex] = {}
    for pos, c, e in raw_terms:
        if sum(e.values()) != degree:
            raise PolyParseError(
                f"term of degree {sum(e.values())} in a degree-{degree} polynomial", pos
            )
        exp = tuple(e.get(i, 0) for i in range(n))
        coeffs[exp] = coeffs.get(exp, 0) + c
        if not cmath.isfinite(coeffs[exp]):
            raise PolyParseError("coefficients must be finite", pos)
    if degree == 0:
        raise PolyParseError("constant polynomial", 0)
    return HomogeneousPoly(n, degree, coeffs)


_JSON_KINDS = {
    int: "an integer", float: "a number", list: "a list",
    complex: "an [re, im] pair of numbers",
}
_JSON_NUMBERS = (int, float)  # exact types: a JSON true or false is a bool


def json_value(value, kind: type, what: str, *args):
    """`value`, read from JSON as a field of type `kind`.

    `int` takes a JSON integer, `float` a JSON number, `complex` an [re, im]
    pair of JSON numbers, both parts finite, and `list` a JSON array.  A
    boolean, a string, a float where an integer belongs or anything else
    raises ValueError naming the field, `what.format(*args)` (formatted only
    then); nothing is truncated or coerced.
    """
    if kind is complex:
        if (type(value) is list and len(value) == 2
                and type(value[0]) in _JSON_NUMBERS and type(value[1]) in _JSON_NUMBERS):
            return finite_coeff(complex(*value))
    elif type(value) is kind:
        return value
    elif kind is float and type(value) is int:
        return float(value)
    raise ValueError(f"{what.format(*args)} is {json.dumps(value)}, not {_JSON_KINDS[kind]}")


def poly_from_json(obj: dict) -> HomogeneousPoly:
    try:
        n = json_value(obj["nvars"], int, "nvars")
        d = json_value(obj["degree"], int, "degree")
        coeffs: dict[Exponent, complex] = {}
        for i, t in enumerate(json_value(obj["terms"], list, "terms"), start=1):
            exp = t["exp"]
            if type(exp) is not list or not all(type(e) is int for e in exp):
                # `json_value` words the error for the first field at fault
                for e in json_value(exp, list, "exponent of term {}", i):
                    json_value(e, int, "exponent entry of term {}", i)
            exp = tuple(exp)
            c = json_value(t["c"], complex, "coefficient of term {}", i)
            coeffs[exp] = coeffs.get(exp, 0) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad polynomial JSON: {exc}")
    return HomogeneousPoly(n, d, coeffs)


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "degree": dec.degree,
        "nvars": dec.nvars,
        "rank": dec.rank,
        "residual": dec.residual,
        "terms": [
            {
                "weight": [complex(w).real, complex(w).imag],
                "form": [[complex(v).real, complex(v).imag] for v in k],
            }
            for w, k in dec.terms
        ],
    }


def decomposition_from_json(obj: dict) -> Decomposition:
    try:
        degree = json_value(obj["degree"], int, "degree")
        terms = []
        for i, t in enumerate(json_value(obj["terms"], list, "terms"), start=1):
            w = json_value(t["weight"], complex, "weight of term {}", i)
            k = np.array([
                json_value(v, complex, "form entry of term {}", i)
                for v in json_value(t["form"], list, "form of term {}", i)
            ])
            terms.append((w, k))
        residual = json_value(obj.get("residual", 0.0), float, "residual")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad decomposition JSON: {exc}")
    return Decomposition(degree, terms, residual)
