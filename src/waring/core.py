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
from dataclasses import dataclass, field

import numpy as np

Exponent = tuple[int, ...]


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


def multinomial(d: int, alpha: Exponent) -> int:
    """Exact multinomial coefficient d! / (alpha_0! * ... * alpha_n!)."""
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    if sum(alpha) != d:
        raise ValueError(f"exponent {alpha} does not sum to degree {d}")
    out = 1
    rest = d
    for a in alpha:
        out *= math.comb(rest, a)
        rest -= a
    return out


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
            exp = tuple(int(e) for e in exp)
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

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, alpha: Exponent) -> complex:
        return self.coeffs.get(tuple(alpha), 0j)

    def terms(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        for exp in sorted(self.coeffs, key=grlex_key):
            yield exp, self.coeffs[exp]

    def evaluate(self, points):
        """f at one point, or an array of f at each row of a 2-D array."""
        pts = np.asarray(points, dtype=complex)
        exps = np.array(list(self.coeffs), dtype=int).reshape(-1, self.nvars)  # f may be 0
        coeffs = np.array(list(self.coeffs.values()), dtype=complex)
        vals = monomial_values(np.atleast_2d(pts), exps) @ coeffs
        return complex(vals[0]) if pts.ndim == 1 else vals

    def scale(self, s: complex) -> "HomogeneousPoly":
        return HomogeneousPoly(
            self.nvars, self.degree, {e: s * c for e, c in self.coeffs.items()}
        )

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if (other.nvars, other.degree) != (self.nvars, self.degree):
            raise ValueError("mismatched polynomials")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return HomogeneousPoly(self.nvars, self.degree, out)

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + other.scale(-1)

    def coeff_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def __repr__(self):
        return f"HomogeneousPoly(nvars={self.nvars}, degree={self.degree}, terms={len(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


@dataclass(frozen=True)
class LinearChange:
    """Invertible change of variables x -> A x on coefficient vectors."""

    matrix: np.ndarray
    inverse_transpose: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("change of coordinates must be a square matrix")
        if self.inverse_transpose is None:
            try:
                inv_t = np.linalg.inv(a).T
            except np.linalg.LinAlgError:
                raise ValueError("singular change of coordinates")
            object.__setattr__(self, "inverse_transpose", inv_t)
        # cheap sanity check on the cached inverse
        n = a.shape[0]
        if not np.allclose(a @ self.inverse_transpose.T, np.eye(n), atol=1e-8):
            raise ValueError("inverse_transpose inconsistent with matrix")
        object.__setattr__(self, "matrix", a)

    @property
    def nvars(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, nvars: int) -> "LinearChange":
        return cls(np.eye(nvars, dtype=complex))

    @classmethod
    def random_unitary(cls, nvars: int, rng: np.random.Generator) -> "LinearChange":
        g = rng.standard_normal((nvars, nvars)) + 1j * rng.standard_normal((nvars, nvars))
        q, r = np.linalg.qr(g)
        # fix the phase so the factorization is unique-ish
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return cls(q)


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
        """Scale each form so its first non-negligible coordinate is 1."""
        out = []
        for w, k in self.terms:
            k = np.asarray(k, dtype=complex)
            big = np.max(np.abs(k))
            pivot = next(v for v in k if abs(v) > 1e-8 * big)
            out.append((complex(w) * pivot**self.degree, k / pivot))
        return Decomposition(self.degree, out, self.residual)


class DualForm:
    """Truncated moment table of a form: Lambda(x^alpha) = c_alpha for |alpha| <= d.

    Moments beyond degree d are unknown until an extension assigns them; those
    live in `extended`.
    """

    __slots__ = ("nvars", "degree", "moments", "extended")

    def __init__(self, nvars, degree, moments, extended=None):
        self.nvars = nvars
        self.degree = degree
        self.moments = dict(moments)
        self.extended = dict(extended) if extended else {}

    def moment(self, alpha: Exponent) -> complex:
        alpha = tuple(alpha)
        if sum(alpha) <= self.degree:
            return self.moments.get(alpha, 0j)
        if alpha in self.extended:
            return self.extended[alpha]
        raise KeyError(f"moment {alpha} not determined")

    def entry(self, alpha: Exponent):
        """Moment value, or None when the entry is an unknown."""
        alpha = tuple(alpha)
        if sum(alpha) <= self.degree:
            return self.moments.get(alpha, 0j)
        return self.extended.get(alpha)

    def with_extension(self, assignment: dict[Exponent, complex]) -> "DualForm":
        ext = dict(self.extended)
        for alpha, v in assignment.items():
            alpha = tuple(alpha)
            if sum(alpha) <= self.degree:
                raise ValueError(f"{alpha} is a known moment, not an unknown")
            ext[alpha] = complex(v)
        return DualForm(self.nvars, self.degree, self.moments, ext)

    @classmethod
    def from_support(cls, weights, points, nvars, degree, upto=None) -> "DualForm":
        """Moment table of the functional sum_j w_j * eval_{zeta_j}.

        Used heavily by tests: the moments of a planted decomposition are
        c_alpha = sum_j w_j * zeta_j^alpha.
        """
        upto = degree if upto is None else upto
        exps = monomials_upto(nvars, upto)
        values = np.asarray(weights) @ monomial_values(points, exps)
        return cls(nvars, degree, dict(zip(exps, values.tolist())))

    def __repr__(self):
        return f"DualForm(nvars={self.nvars}, degree={self.degree}, extended={len(self.extended)})"


def to_dual(f: HomogeneousPoly, distinguished_var: int = 0) -> DualForm:
    """Dual form of f: divide coefficients by multinomials, drop x_var.

    The moment of the affine monomial x^beta is the coefficient of
    x_var^(d-|beta|) * x^beta in f divided by multinomial(d, full exponent).
    """
    d = f.degree
    n = f.nvars - 1
    if not (0 <= distinguished_var < f.nvars):
        raise ValueError("bad distinguished variable")
    moments = {}
    for beta in monomials_upto(n, d):
        full = list(beta)
        full.insert(distinguished_var, d - sum(beta))
        full = tuple(full)
        moments[beta] = f.coeff(full) / multinomial(d, full)
    return DualForm(n, d, moments)


def apolar(f: HomogeneousPoly, g: HomogeneousPoly) -> complex:
    """Apolar pairing <f, g> = sum_alpha f_alpha g_alpha / multinomial(d, alpha)."""
    if (f.nvars, f.degree) != (g.nvars, g.degree):
        raise ValueError("apolar pairing needs equal nvars and degree")
    total = 0j
    small, other = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    for exp, c in small.coeffs.items():
        oc = other.coeffs.get(exp)
        if oc is not None:
            total += c * oc / multinomial(f.degree, exp)
    return total


def _poly_mul(p: dict, q: dict) -> dict:
    """Product of two polynomials keyed by exponent codes (`change_coordinates`)."""
    out: dict[int, complex] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def change_coordinates(f: HomogeneousPoly, change: LinearChange) -> HomogeneousPoly:
    """Substitute x_i <- sum_j A[i,j] x_j and expand.

    The expansion keys each exponent e by the integer code sum_i e_i (d+1)^i,
    so multiplying monomials adds their codes: at total degree <= d no digit
    carries.  Codes become exponent tuples only for the result.
    """
    a = change.matrix
    if a.shape[0] != f.nvars:
        raise ValueError("change of coordinates has wrong size")
    n, base = f.nvars, f.degree + 1
    # linear forms for each original variable, then powers on demand
    lin = [
        {base**j: complex(a[i, j]) for j in range(n) if a[i, j] != 0}
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
    biggest = max((abs(v) for v in out.values()), default=0.0)
    cutoff = 1e-14 * biggest

    def exponent(code: int) -> Exponent:
        digits = []
        for _ in range(n):
            code, e = divmod(code, base)
            digits.append(e)
        return tuple(digits)

    return HomogeneousPoly(
        n, f.degree, {exponent(e): v for e, v in out.items() if abs(v) > cutoff}
    )


def pullback_points(points, change: LinearChange):
    """Map recovered vectors m to k = A^(-T) m, undoing change_coordinates."""
    return [change.inverse_transpose @ np.asarray(m, dtype=complex) for m in points]


def pairwise_sines(forms) -> np.ndarray:
    """Sine of the angle between the lines of each pair of forms, i < j.

    For unit forms u, v it is ||v - <u,v> u||.  Unlike sqrt(1 - |<u,v>|^2),
    which loses everything below sqrt(machine epsilon) ~ 1e-8, this stays
    accurate down to about machine epsilon.
    """
    u = np.array(forms, dtype=complex)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    i, j = np.triu_indices(len(u), k=1)
    inner = np.sum(u[i].conj() * u[j], axis=1)
    return np.linalg.norm(u[j] - inner[:, None] * u[i], axis=1)


def essential_vars(f: HomogeneousPoly, tol: float = 1e-8):
    """Number of variables really present in f, plus a change realizing it.

    Builds the matrix of first partial derivatives (one row per variable,
    columns indexed by degree d-1 monomials) and takes its numerical rank.
    The returned change maps f to a form using only the first `count`
    variables.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no essential variables")
    n = f.nvars
    cols = monomials(n, f.degree - 1)
    col_index = {m: j for j, m in enumerate(cols)}
    p = np.zeros((n, len(cols)), dtype=complex)
    for exp, c in f.coeffs.items():
        for i in range(n):
            if exp[i]:
                de = list(exp)
                de[i] -= 1
                p[i, col_index[tuple(de)]] += exp[i] * c
    u, s, _ = np.linalg.svd(p, full_matrices=True)
    count = int(np.sum(s > tol * s[0]))
    # columns j >= count of conj(U) span the left null space of p, so the
    # substituted form has vanishing partials in those directions
    reducer = LinearChange(np.conj(u))
    return count, reducer


def power_of_linear_form(k, degree: int) -> HomogeneousPoly:
    k = np.asarray(k, dtype=complex)
    return expand_power_sum([(1.0, k)], len(k), degree)


def expand_power_sum(terms, nvars: int, degree: int) -> HomogeneousPoly:
    """Expand sum_i w_i (k_i . x)^d by the multinomial theorem."""
    if isinstance(terms, Decomposition):
        terms = terms.terms
    exps = monomials(nvars, degree)
    weights = np.array([w for w, _ in terms], dtype=complex)
    mult = np.array([multinomial(degree, alpha) for alpha in exps], dtype=float)
    values = mult * (weights @ monomial_values([k for _, k in terms], exps))
    return HomogeneousPoly(nvars, degree, dict(zip(exps, values.tolist())))


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
        elif ch and (ch.isdigit() or ch == "."):
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


def poly_to_json(f: HomogeneousPoly) -> dict:
    return {
        "nvars": f.nvars,
        "degree": f.degree,
        "terms": [
            {"exp": list(exp), "c": [c.real, c.imag]} for exp, c in f.terms()
        ],
    }


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
            exp = tuple(
                json_value(e, int, "exponent entry of term {}", i)
                for e in json_value(t["exp"], list, "exponent of term {}", i)
            )
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
