import functools
import json
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from waring.core import (
    HomogeneousPoly,
    expand_power_sum,
    grlex_key,
    monomials,
    multinomial,
    parse_poly,
    poly_from_json,
    to_dual,
)
from waring.decompose import _basis_candidates
from waring.hankel import MonomialBasis, full_rank_principal_minor

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the known support of the quintic fixture: weight -> affine point
QUINTIC_SUPPORT = [
    (15.0, (2.0, 3.0)),
    (15.0, (-2.0, 3.0)),
    (5.0, (-12.0, -3.0)),
    (3.0, (12.0, -13.0)),
]


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
    basis = full_rank_principal_minor(L, size=10)
    if degree3:
        basis = MonomialBasis(3, basis.exponents[:-1] + [(3, 0, 0)])
    return L, basis, terms


# ---------------------------------------------------------------------------
# the object-dtype Hankel layer that the numeric slot map replaced, kept as an
# independent reference: one Python object per cell, unknowns as placeholders


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
            v = L.entry(e)
            ent[i, j] = ObjectUnknown(e) if v is None else complex(v)
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
EXACTNESS_CASES = EXACTNESS_FIXTURES + [
    "planted_4_4_10", "planted_4_4_10_degree3", "planted_5_4_12", "quartic_with_extension"
]


@functools.cache
def exactness_case(name: str):
    """A dual form and the bases to compare the two Hankel layers on.

    For a fixture these are the bases the rank loop tries at every size in
    the identity frame; the planted forms use their principal-minor basis;
    the extended quartic fills its quintic moments, so its bases meet known,
    extended and unknown moments at once."""
    if name in EXACTNESS_FIXTURES:
        load = load_json_poly if name.endswith(".json") else load_text_poly
        L = to_dual(load(name))
        return L, [b for r in range(1, 8) for b in _basis_candidates(L, r, 3)]
    if name.startswith("planted_4_4_10"):
        L, basis, _ = planted_4_4_10(name.endswith("degree3"))
        return L, [basis]
    if name == "planted_5_4_12":
        f, _ = planted_poly(5, 4, 12, np.random.default_rng(0))
        L = to_dual(f)
        return L, [full_rank_principal_minor(L, size=12)]
    quintics = [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
    fill = [1.0, 2.0, 3.0, 1.5060, 4.960, 0.056]
    L = to_dual(load_text_poly("ternary_quartic_rank6.txt"))
    L = L.with_extension(dict(zip(quintics, fill)))
    flat = MonomialBasis(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    return L, [flat, MonomialBasis(2, flat.exponents + [(3, 0), (2, 1)])]


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
