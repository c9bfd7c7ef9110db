import functools
import json
import math
import pathlib
from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest

from waring.binary import _moments, _slice
from waring.core import (
    DualForm,
    Exponent,
    HomogeneousPoly,
    coeff_difference,
    expand_power_sum,
    grlex_key,
    monomial_index,
    monomial_values,
    monomials,
    monomials_upto,
    ordered_norm,
    parse_poly,
    poly_from_json,
    to_dual,
)
from waring.decompose import _Frame, _basis_candidates
from waring.hankel import (
    IDEALS_PER_RANK,
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    known_columns_test,
    known_rank_bound,
    order_ideals,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the known support of the quintic fixture: weight -> affine point
QUINTIC_SUPPORT = [
    (15.0, (2.0, 3.0)),
    (15.0, (-2.0, 3.0)),
    (5.0, (-12.0, -3.0)),
    (3.0, (12.0, -13.0)),
]


# ---------------------------------------------------------------------------
# reference helpers: scalar and per-form forms of what the package computes
# in bulk, which the search itself never needs


def multinomial(d: int, alpha) -> int:
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


def evaluate(f: HomogeneousPoly, points):
    """f at one point, or an array of f at each row of a 2-D array."""
    pts = np.asarray(points, dtype=complex)
    exps = np.array(list(f.coeffs), dtype=int).reshape(-1, f.nvars)  # f may be 0
    coeffs = np.array(list(f.coeffs.values()), dtype=complex)
    vals = monomial_values(np.atleast_2d(pts), exps) @ coeffs
    return complex(vals[0]) if pts.ndim == 1 else vals


def moment(L: DualForm, alpha) -> complex:
    """Lambda(x^alpha); KeyError past the truncation."""
    alpha = tuple(alpha)
    if len(alpha) != L.nvars or min(alpha, default=0) < 0 or sum(alpha) > L.degree:
        raise KeyError(alpha)
    return complex(L.moments[monomial_index(alpha)])


def dual_from_support(weights, points, nvars: int, degree: int) -> DualForm:
    """Moment table of the functional sum_j w_j * eval_{zeta_j}: the moments
    of a planted decomposition, c_alpha = sum_j w_j * zeta_j^alpha."""
    values = np.asarray(weights) @ monomial_values(points, monomials_upto(nvars, degree))
    return DualForm(nvars, degree, values)


def moment_residual(weights, points, L: DualForm) -> float:
    """||moments of sum_j w_j eval_{zeta_j} - moments of L|| / ||moments of L||."""
    fit = dual_from_support(weights, points, L.nvars, L.degree).moments
    return float(np.linalg.norm(fit - L.moments)) / max(float(np.linalg.norm(L.moments)), 1e-300)


def poly_add(f: HomogeneousPoly, g: HomogeneousPoly) -> HomogeneousPoly:
    """f + g, coefficient by coefficient in f's order, then g's new ones."""
    if (g.nvars, g.degree) != (f.nvars, f.degree):
        raise ValueError("mismatched polynomials")
    out = dict(f.coeffs)
    for e, c in g.coeffs.items():
        out[e] = out.get(e, 0) + c
    return HomogeneousPoly._trusted(f.nvars, f.degree, out)


def poly_sub(f: HomogeneousPoly, g: HomogeneousPoly) -> HomogeneousPoly:
    """f - g, as f + (-1) g."""
    return poly_add(f, g.scale(-1))


def relative_error(g: HomogeneousPoly, f: HomogeneousPoly) -> float:
    """The coefficient norm of g - f over f's, summed in `coeff_difference`
    order: the residual `accept` returns for a power sum g."""
    return ordered_norm(coeff_difference(g, f)) / f.coeff_norm()


def hankel_slice(p: HomogeneousPoly, r: int) -> np.ndarray:
    """The (d-r+1) x (r+1) Hankel matrix of a binary form's moments c_{i+j},
    c_i the moment of x1^(d-i), which `binary_decompose` slices."""
    c = _moments(p)
    if not 1 <= r <= p.degree:
        raise ValueError(f"slice index {r} outside 1..{p.degree}")
    return _slice(c, r)


def power_of_linear_form(k, degree: int) -> HomogeneousPoly:
    k = np.asarray(k, dtype=complex)
    return expand_power_sum([(1.0, k)], len(k), degree)


def poly_to_json(f: HomogeneousPoly) -> dict:
    return {
        "nvars": f.nvars,
        "degree": f.degree,
        "terms": [
            {"exp": list(exp), "c": [c.real, c.imag]} for exp, c in f.terms()
        ],
    }


def coeff_bits(f: HomogeneousPoly) -> list:
    """f's coefficients in its own order, each part as `float.hex`."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in f.coeffs.items()]


def load_text_poly(name: str) -> HomogeneousPoly:
    return parse_poly((FIXTURES / name).read_text())


def load_json_poly(name: str) -> HomogeneousPoly:
    return poly_from_json(json.loads((FIXTURES / name).read_text()))


def planted_poly(nvars: int, degree: int, r: int, rng, sep: float = 0.3):
    """A rank-r power sum in affine position, general enough to recover."""
    pts = []
    while len(pts) < r:
        z = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        z[0] = 1.0
        if all(np.linalg.norm(z - q) > sep for q in pts):
            pts.append(z)
    wts = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    terms = list(zip(wts, pts))
    return expand_power_sum(terms, nvars, degree), terms


# ---------------------------------------------------------------------------
# the rank loop's walk in the identity frame, and what the search itself
# never needs from it


def identity_frame_of(L: DualForm) -> _Frame:
    """The rank loop's state for the identity frame of the dual form L."""
    return _Frame(np.eye(L.nvars + 1), L, known_columns_test(L))


def rank_walk(L: DualForm, size: int):
    """The order ideals of `size` the rank loop walks for L."""
    return islice(order_ideals(L.nvars, size, max(1, L.degree - 1)), IDEALS_PER_RANK)


def walked_bases(L: DualForm, size: int) -> list[MonomialBasis]:
    """The bases of `size` the rank loop walks in L's frame, pruned ones
    included, in its order."""
    return [b for b, _ in _basis_candidates(identity_frame_of(L), rank_walk(L, size), size)]


def principal_minor(L: DualForm, size: int) -> MonomialBasis | None:
    """The fully known nonsingular principal minor of `size` the rank loop
    tries first in L's frame, or None."""
    return full_rank_principal_minor(rank_walk(L, size), known_columns_test(L), L.degree // 2)


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
        if col.unknowns.size:
            continue  # relation involves unextended moments; caller handles
        mu = np.linalg.solve(h, col.value_matrix()[:, 0])
        g: dict[Exponent, complex] = {m: 1.0 + 0j}
        for b, c in zip(basis.exponents, mu):
            if c != 0:
                g[b] = g.get(b, 0) - c
        out.append(g)
    return out


@pytest.fixture(scope="session")
def quintic():
    return load_text_poly("ternary_quintic_rank4.txt")


@pytest.fixture(scope="session")
def quartic():
    return load_text_poly("ternary_quartic_rank6.txt")


@pytest.fixture(scope="session")
def maximal_cubic():
    return load_text_poly("cubic_maximal.txt")


def planted_4_4_10(degree3: bool):
    """A planted (4, 4, 10) form's dual, a basis and the planted terms.

    The flat basis (all monomials of degree <= 2) puts the unknowns in the
    shifted matrices only; swapping its last monomial for a cubic one puts
    unknowns inside D_0 as well."""
    f, terms = planted_poly(4, 4, 10, np.random.default_rng(5))
    L = to_dual(f)
    basis = principal_minor(L, 10)
    if degree3:
        basis = MonomialBasis(3, basis.exponents[:-1] + [(3, 0, 0)])
    return L, basis, terms


# ---------------------------------------------------------------------------
# the object-dtype Hankel layer that the numeric position map replaced, kept
# as an independent reference: one Python object per cell, unknowns as placeholders


@dataclass(frozen=True)
class ObjectUnknown:
    exp: tuple


def object_hankel(L, rows, cols, shift=None) -> np.ndarray:
    """Object array of H^{rows,cols}: complex, or ObjectUnknown past the truncation."""
    s = tuple(shift) if shift is not None else (0,) * L.nvars
    ent = np.empty((len(rows), len(cols)), dtype=object)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            e = tuple(x + y + z for x, y, z in zip(a, b, s))
            ent[i, j] = ObjectUnknown(e) if sum(e) > L.degree else moment(L, e)
    return ent


def object_unknowns(ent) -> list[tuple]:
    return sorted({v.exp for v in ent.flat if isinstance(v, ObjectUnknown)}, key=grlex_key)


def object_value_matrix(ent, assignment) -> np.ndarray:
    out = np.empty(ent.shape, dtype=complex)
    for (i, j), v in np.ndenumerate(ent):
        if isinstance(v, ObjectUnknown):
            if v.exp not in assignment:
                raise KeyError(v.exp)
            out[i, j] = assignment[v.exp]
        else:
            out[i, j] = v
    return out


def positions(nvars, exps) -> list[int]:
    """The `monomial_index` of each exponent in the list `exps`, which may be empty."""
    return monomial_index(np.array(exps, dtype=np.intp).reshape(-1, nvars)).tolist()


# ---------------------------------------------------------------------------
# the per-cell dict walk that the graded-lex position rule replaced, kept as
# an independent reference: a tuple and two dict lookups per cell


def dict_hankel(L, rows, cols, shift=None):
    """(values, unknowns, at) of H^{rows,cols} with every cell looked up by
    its exponent tuple in a dict of the moments' positions: the unknown
    exponents in graded-lex order, and each cell's place in the graded-lex
    list of all monomials up to the largest cell degree."""
    n = L.nvars
    s = (0,) * n if shift is None else tuple(shift)
    known = {e: i for i, e in enumerate(monomials_upto(n, L.degree))}
    cells = [tuple(x + y + z for x, y, z in zip(a, b, s)) for a in rows for b in cols]
    unknowns = sorted({e for e in cells if e not in known}, key=grlex_key)
    place = {e: i for i, e in enumerate(monomials_upto(n, max(map(sum, cells), default=0)))}
    shape = (len(rows), len(cols))
    index = np.array([known.get(e, -1) for e in cells], dtype=np.intp).reshape(shape)
    values = np.where(index >= 0, L.moments[index], 0j)
    at = np.array([place[e] for e in cells], dtype=np.intp).reshape(shape)
    return values, unknowns, at


EXACTNESS_FIXTURES = [
    "ternary_quintic_rank4.txt",
    "ternary_quartic_rank6.txt",
    "cubic_maximal.txt",
    "cubic_cube.json",
    "cubic_two_cubes.json",
    "cubic_square_line.json",
    "cubic_fermat.json",
    "cubic_generic_rank4.json",
]
# the planted (nvars, degree, rank) shapes of the benchmark's workloads, and
# a wide one: 8 affine variables
WALK_SHAPES = [
    (3, 4, 5), (3, 5, 4), (3, 5, 6), (4, 3, 3), (4, 3, 4), (5, 3, 5), (3, 6, 9),
    (3, 6, 10), (4, 4, 10), (5, 4, 10), (5, 4, 12),
    (3, 5, 7), (4, 3, 5), (3, 7, 11), (4, 5, 11), (5, 3, 6),
    (9, 3, 9),
]
EXACTNESS_CASES = EXACTNESS_FIXTURES + [
    "planted_4_4_10", "planted_4_4_10_degree3", "planted_5_4_12"
] + ["walk_{}_{}_{}".format(*shape) for shape in WALK_SHAPES]


@functools.cache
def exactness_case(name: str):
    """A dual form and the bases to compare the two Hankel layers on.

    For a fixture these are the bases the rank loop walks at every size up
    to 7 in the identity frame, the pruned ones included.  For a walk shape
    they are the bases it walks in the identity frame at every size from the
    catalecticant bound to the planted rank, pruned ones included; the other
    planted forms use their principal-minor basis."""
    if name in EXACTNESS_FIXTURES:
        load = load_json_poly if name.endswith(".json") else load_text_poly
        L = to_dual(load(name))
        return L, [b for r in range(1, 8) for b in walked_bases(L, r)]
    if name.startswith("walk_"):
        nvars, degree, rank = map(int, name.split("_")[1:])
        f, _ = planted_poly(nvars, degree, rank, np.random.default_rng(rank))
        L = to_dual(f)
        sizes = range(max(1, known_rank_bound(L, 1e-7)), rank + 1)
        return L, [b for r in sizes for b in walked_bases(L, r)]
    if name.startswith("planted_4_4_10"):
        L, basis, _ = planted_4_4_10(name.endswith("degree3"))
        return L, [basis]
    f, _ = planted_poly(5, 4, 12, np.random.default_rng(0))
    L = to_dual(f)
    return L, [principal_minor(L, 12)]


# ---------------------------------------------------------------------------
# the per-entry z^alpha loops that `monomial_values` replaced, kept as an
# independent reference


def loop_monomial_values(points, exps) -> np.ndarray:
    """z^alpha one entry at a time: 1, times zi**e for every nonzero e."""
    out = np.empty((len(points), len(exps)), dtype=complex)
    for j, z in enumerate(points):
        for i, alpha in enumerate(exps):
            v = 1.0 + 0j
            for zi, e in zip(z, alpha):
                if e:
                    v *= zi**e
            out[j, i] = v
    return out


def loop_expand_power_sum(terms, nvars: int, degree: int) -> HomogeneousPoly:
    """sum_i w_i (k_i . x)^d term by term, monomial by monomial."""
    coeffs = {}
    for alpha in monomials(nvars, degree):
        m = multinomial(degree, alpha)
        total = 0j
        for w, k in terms:
            v = complex(w) * m
            for ki, e in zip(k, alpha):
                if e:
                    v *= complex(ki) ** e
            total += v
        if total != 0:
            coeffs[alpha] = total
    return HomogeneousPoly(nvars, degree, coeffs)
