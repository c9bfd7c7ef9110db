"""Flat extension of a truncated dual form.

Moments beyond the truncation degree are pinned down by forcing the candidate
multiplication operators to commute.  Two formulations coexist on purpose:

* explicit polynomial systems in the unknowns (`commutation_system`,
  `wfactor_system`), exact and inspectable, solved by `solve_extension`;
* a numeric residual (`CommutatorResidual` / `extend_dual`) that inverts the
  principal block on the fly and builds its Jacobian from one rank-1 term per
  cell an unknown occupies, used by the decomposition driver where the
  symbolic route would be too large.

Both reduce to the same damped Gauss-Newton iteration from several starts.
A run ends at the first of these exits:

* the max-abs residual is at most `tol` (success);
* the least-squares step is not finite;
* two line searches in a row find no sufficient decrease in 25 halvings;
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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import DualForm, Exponent, grlex_key
from .hankel import (
    MonomialBasis,
    QuasiHankelMatrix,
    Unknown,
    build_hankel,
    shifted_matrix,
)


@dataclass(frozen=True)
class WVar:
    """Entry (row, col) of the factor W in H^{B,border} = H^{B,B} W."""

    row: int
    col: int

    def __repr__(self):
        return f"w[{self.row},{self.col}]"


class UPoly:
    """Polynomial in indexed unknowns; monomials are sorted index tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, c) -> "UPoly":
        c = complex(c)
        return cls({(): c}) if c != 0 else cls()

    @classmethod
    def var(cls, idx: int) -> "UPoly":
        return cls({(idx,): 1.0 + 0j})

    def __add__(self, other: "UPoly") -> "UPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
        return UPoly(out)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + other.scale(-1)

    def scale(self, s: complex) -> "UPoly":
        if s == 0:
            return UPoly()
        return UPoly({k: s * c for k, c in self.terms.items()})

    def __mul__(self, other: "UPoly") -> "UPoly":
        out: dict[tuple, complex] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(sorted(k1 + k2))
                v = out.get(k, 0) + c1 * c2
                if v == 0:
                    out.pop(k, None)
                else:
                    out[k] = v
        return UPoly(out)

    def eval(self, x: np.ndarray) -> complex:
        total = 0j
        for k, c in self.terms.items():
            v = c
            for idx in k:
                v *= x[idx]
            total += v
        return total

    def diff(self, idx: int) -> "UPoly":
        out: dict[tuple, complex] = {}
        for k, c in self.terms.items():
            m = k.count(idx)
            if not m:
                continue
            pos = k.index(idx)
            dk = k[:pos] + k[pos + 1 :]
            out[dk] = out.get(dk, 0) + m * c
        return UPoly(out)

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[k]
            mono = "*".join(f"u{i}" for i in k)
            bits.append(f"({c:.4g})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class PolySystem:
    """Square-free polynomial equations over an ordered tuple of unknowns."""

    def __init__(self, unknowns, equations):
        self.unknowns = tuple(unknowns)
        self.equations = list(equations)
        self._diffs = None

    @property
    def nunknowns(self) -> int:
        return len(self.unknowns)

    @property
    def nequations(self) -> int:
        return len(self.equations)

    def max_degree(self) -> int:
        return max((e.degree for e in self.equations), default=0)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return np.array([e.eval(x) for e in self.equations], dtype=complex)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self._diffs is None:
            self._diffs = [
                [e.diff(j) for j in range(self.nunknowns)] for e in self.equations
            ]
        out = np.empty((self.nequations, self.nunknowns), dtype=complex)
        for i, row in enumerate(self._diffs):
            for j, d in enumerate(row):
                out[i, j] = d.eval(x)
        return out

    def __repr__(self):
        return f"PolySystem({self.nequations} equations, {self.nunknowns} unknowns)"


@dataclass
class ExtensionSolution:
    """Values for the unknown moments plus how constrained they were."""

    assignment: dict[Exponent, complex]
    residual: float
    free_count: int = 0
    auxiliary: dict = field(default_factory=dict)  # e.g. W entries


# ---------------------------------------------------------------------------
# symbolic systems


def _lift(mat: QuasiHankelMatrix, index: dict) -> list[list[UPoly]]:
    out = []
    for row in mat.entries:
        out.append(
            [
                UPoly.var(index[v]) if isinstance(v, Unknown) else UPoly.const(v)
                for v in row
            ]
        )
    return out


def _sym_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[UPoly() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for l in range(k):
            e = a[i][l]
            if e.is_zero:
                continue
            for j in range(m):
                if not b[l][j].is_zero:
                    out[i][j] = out[i][j] + e * b[l][j]
    return out


def _num_sandwich(a, n_mat, b):
    """a @ n_mat (@ b) where n_mat is numeric and a, b are symbolic."""
    s = len(n_mat)
    mid = [[UPoly.const(n_mat[i, j]) for j in range(s)] for i in range(s)]
    out = _sym_matmul(a, mid)
    return _sym_matmul(out, b) if b is not None else out


def _sym_det(entry, rows: tuple, cols: tuple, memo: dict) -> UPoly:
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        out = entry[rows[0]][cols[0]]
    else:
        out = UPoly()
        sub_rows = rows[1:]
        for t, j in enumerate(cols):
            e = entry[rows[0]][j]
            if e.is_zero:
                continue
            sub_cols = cols[:t] + cols[t + 1 :]
            minor = _sym_det(entry, sub_rows, sub_cols, memo)
            term = e * minor
            out = out + (term if t % 2 == 0 else term.scale(-1))
    memo[key] = out
    return out


def _sym_adjugate(entry):
    s = len(entry)
    memo: dict = {}
    all_idx = tuple(range(s))
    adj = [[UPoly() for _ in range(s)] for _ in range(s)]
    for i in range(s):
        rows = all_idx[:i] + all_idx[i + 1 :]
        for j in range(s):
            cols = all_idx[:j] + all_idx[j + 1 :]
            minor = _sym_det(entry, rows, cols, memo)
            adj[j][i] = minor if (i + j) % 2 == 0 else minor.scale(-1)
    return adj


def _collect_unknowns(mats) -> list[Unknown]:
    seen = {}
    for m in mats:
        for u in m.unknowns():
            seen[u.exp] = u
    return [seen[e] for e in sorted(seen, key=grlex_key)]


def _nontrivial_differences(pairs_pq) -> list[UPoly]:
    """Entrywise p - q, dropping entries that cancel to numerical zero.

    The triviality test is relative to the magnitudes of p and q themselves,
    so structural identities detected through floating-point arithmetic (the
    common case: a numeric inverse in the middle) are recognized.  Exact
    duplicates of earlier equations are dropped as well.
    """
    staged = []
    for p, q in pairs_pq:
        staged.append((max(p.max_coeff(), q.max_coeff()), p - q))
    global_witness = max((w for w, _ in staged), default=0.0)
    out = []
    seen = set()
    for witness, e in staged:
        floor = max(1e-8 * witness, 1e-12 * global_witness)
        if e.max_coeff() <= floor:
            continue
        cutoff = 1e-10 * e.max_coeff()
        e = UPoly({k: c for k, c in e.terms.items() if abs(c) > cutoff})
        sig = frozenset(
            (k, round(c.real, 9), round(c.imag, 9)) for k, c in e.terms.items()
        )
        if sig in seen:
            continue
        seen.add(sig)
        out.append(e)
    return out


def commutation_system(L: DualForm, basis: MonomialBasis) -> PolySystem:
    """Equations making all pairs of candidate multiplication operators commute.

    With D_0 = H^{B,B} and D_i the x_i-shifted matrices, the transposed
    operator for x_i is M_i = D_i D_0^{-1}, and each pair must satisfy
    M_i M_j - M_j M_i = 0.  All r^2 entries per pair are formed; the many
    that cancel identically are dropped.

    When D_0 is fully known its inverse is numeric and the equations are
    quadratic in the unknown moments.  Otherwise both inverses are replaced
    by the adjugate (multiplying the system by det(D_0)^2, which raises the
    degree); solutions with det(D_0) = 0 become spurious and must be
    filtered by the caller.
    """
    n = L.nvars
    if n < 2:
        raise ValueError("need at least two variables to express commutation")
    d0 = build_hankel(L, basis.exponents, basis.exponents)
    shifts = [shifted_matrix(L, basis, v) for v in range(n)]
    unknowns = _collect_unknowns([d0] + shifts)
    index = {u: i for i, u in enumerate(unknowns)}

    lifted = [_lift(m, index) for m in shifts]
    if d0.fully_known:
        n_mat = np.linalg.inv(d0.known_matrix())
        ops = [_num_sandwich(m, n_mat, None) for m in lifted]
    else:
        adj = _sym_adjugate(_lift(d0, index))
        ops = [_sym_matmul(m, adj) for m in lifted]

    s = len(basis)
    diffs = []
    for i in range(n):
        for j in range(i + 1, n):
            c = _sym_matmul(ops[i], ops[j])
            c2 = _sym_matmul(ops[j], ops[i])
            for k in range(s):
                for l in range(s):
                    diffs.append((c[k][l], c2[k][l]))
    return PolySystem(unknowns, _nontrivial_differences(diffs))


def wfactor_system(L: DualForm, basis: MonomialBasis) -> PolySystem:
    """Flatness written as a factorization through the border.

    Requires H^{B,bd} = H^{B,B} W and H^{bd,bd} = W^T H^{B,B} W for some W,
    which says the extended matrix on B+ has the same rank as H^{B,B}.  The
    unknowns are the missing moments together with the entries of W.
    """
    border = basis.border()
    h_bb = build_hankel(L, basis.exponents, basis.exponents)
    h_bd = build_hankel(L, basis.exponents, border)
    h_dd = build_hankel(L, border, border)
    moment_unknowns = _collect_unknowns([h_bb, h_bd, h_dd])
    wvars = [WVar(i, j) for i in range(len(basis)) for j in range(len(border))]
    unknowns = list(moment_unknowns) + wvars
    index = {u: i for i, u in enumerate(unknowns)}

    bb = _lift(h_bb, index)
    bd = _lift(h_bd, index)
    dd = _lift(h_dd, index)
    w = [
        [UPoly.var(index[WVar(i, j)]) for j in range(len(border))]
        for i in range(len(basis))
    ]
    bbw = _sym_matmul(bb, w)
    wt = [list(col) for col in zip(*w)]
    wbbw = _sym_matmul(wt, bbw)

    diffs = []
    for i in range(len(basis)):
        for j in range(len(border)):
            diffs.append((bd[i][j], bbw[i][j]))
    for i in range(len(border)):
        for j in range(i, len(border)):
            diffs.append((dd[i][j], wbbw[i][j]))
    return PolySystem(unknowns, _nontrivial_differences(diffs))


# ---------------------------------------------------------------------------
# Gauss-Newton


def _gauss_newton(fun, jac, x0, tol, max_iter):
    """Damped least-squares iteration; returns (x, max-abs residual).

    Each iteration takes the least-squares step and backtracks (up to 25
    halvings) until the max-abs residual decreases sufficiently.  The run ends
    at the first of: residual <= tol; a non-finite step; two failed line
    searches in a row; a step below 1e-14 of the iterate; no tenfold residual
    decrease over the last 30 iterations (a plateau); max_iter iterations.
    The plateau exit is safe for regular roots, which are reached with
    quadratic convergence, and stops the linear or slower creep towards
    singular roots and the drift where no root exists.
    """
    x = np.asarray(x0, dtype=complex)
    f = fun(x)
    fn = np.max(np.abs(f)) if f.size else 0.0
    if not np.isfinite(fn):
        return x, np.inf
    stalls = 0
    history = [fn]
    for _ in range(max_iter):
        if fn <= tol:
            break
        j = jac(x)
        step, *_ = np.linalg.lstsq(j, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        improved = False
        for _ in range(25):
            xn = x + t * step
            f2 = fun(xn)
            f2n = np.max(np.abs(f2)) if f2.size else 0.0
            if np.isfinite(f2n) and (f2n < fn * (1 - 1e-4 * t) or f2n <= tol):
                x, f, fn = xn, f2, f2n
                improved = True
                break
            t /= 2
        if not improved:
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls = 0
        if np.max(np.abs(step)) * t <= 1e-14 * (1 + np.max(np.abs(x))):
            break
        history.append(fn)
        if len(history) > 30 and fn > 0.1 * history[-31]:
            break
    return x, fn


def _run_starts(starts, solve_one, jobs):
    """Evaluate starts in order, possibly in parallel waves; first success wins.

    Returns (index, result) of the winning start, or the best failure.  The
    outcome does not depend on `jobs`: a wave is only consulted after every
    earlier start has failed.
    """
    best = None
    if jobs <= 1:
        for i, s in enumerate(starts):
            res = solve_one(s)
            if res[2]:
                return i, res
            if best is None or res[1] < best[1][1]:
                best = (i, res)
        return best[0], best[1]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for base in range(0, len(starts), jobs):
            wave = starts[base : base + jobs]
            results = list(pool.map(solve_one, wave))
            for off, res in enumerate(results):
                if res[2]:
                    return base + off, res
                if best is None or res[1] < best[1][1]:
                    best = (base + off, res)
    return best[0], best[1]


def _free_columns(j: np.ndarray, tol: float = 1e-8):
    """Split columns of J into (pivot, free) using QR with column pivoting."""
    if j.size == 0:
        return [], list(range(j.shape[1]))
    _, r, piv = scipy.linalg.qr(j, pivoting=True, mode="economic")
    diag = np.abs(np.diagonal(r))
    if diag.size == 0 or diag[0] == 0:
        return [], list(piv)
    rank = int(np.sum(diag > tol * diag[0]))
    return sorted(piv[:rank]), sorted(piv[rank:])


def _solve_core(fun, jac, nunknowns, seed, restarts, tol, max_iter, jobs, accept):
    """Shared restart/specialization driver for both solver entry points.

    Returns (x, residual, free_count, converged).
    """
    rng = np.random.default_rng(seed)
    starts = [np.zeros(nunknowns, dtype=complex)]
    for _ in range(max(0, restarts - 1)):
        starts.append(
            rng.uniform(-1, 1, nunknowns) + 1j * rng.uniform(-1, 1, nunknowns)
        )

    def solve_one(x0):
        x, r = _gauss_newton(fun, jac, x0, tol, max_iter)
        if not np.isfinite(r):
            r = np.inf
        ok = r <= tol and (accept is None or accept(x))
        return x, r, ok

    # probe a few starts first: if nothing comes close the system is almost
    # certainly infeasible (wrong size guess) and the remaining starts are a
    # waste of time
    probe = min(8, len(starts))
    _, (x, r, ok) = _run_starts(starts[:probe], solve_one, jobs)
    if not ok and probe < len(starts) and r <= max(1e-4, 100 * tol):
        _, (x2, r2, ok2) = _run_starts(starts[probe:], solve_one, jobs)
        if ok2 or r2 < r:
            x, r, ok = x2, r2, ok2
    if not ok:
        return x, r, 0, False

    _, free = _free_columns(jac(x))
    if not free:
        return x, r, 0, True

    # the solution set has positive dimension: pin the free coordinates at
    # random values and re-polish, keeping the solution generic
    pinned = [c for c in range(nunknowns) if c not in free]
    for _ in range(4):
        xf = x.copy()
        xf[free] = rng.uniform(-1, 1, len(free)) + 1j * rng.uniform(-1, 1, len(free))

        def fun_fixed(y):
            z = xf.copy()
            z[pinned] = y
            return fun(z)

        def jac_fixed(y):
            z = xf.copy()
            z[pinned] = y
            return jac(z)[:, pinned]

        y, ry = _gauss_newton(fun_fixed, jac_fixed, x[pinned], tol, max_iter)
        if ry <= tol:
            xs = xf.copy()
            xs[pinned] = y
            if accept is None or accept(xs):
                return xs, ry, len(free), True
    return x, r, len(free), True


def solve_extension(
    system: PolySystem,
    seed: int = 0,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iter: int = 200,
    jobs: int = 1,
    accept=None,
) -> ExtensionSolution:
    """Solve a symbolic extension system numerically.

    Equations are normalized by their largest coefficient so `tol` is
    effectively relative.  `accept`, when given, sees the candidate assignment
    and can veto it (used to reject det = 0 artifacts of the adjugate form).
    The returned solution is best-effort: check `residual` before trusting it.
    """
    if system.nunknowns == 0:
        r = 0.0
        if system.nequations:
            r = float(np.max(np.abs(system.residual(np.zeros(0, dtype=complex)))))
        return ExtensionSolution({}, r, 0)
    scales = np.array([max(e.max_coeff(), 1e-300) for e in system.equations])

    def fun(x):
        return system.residual(x) / scales

    def jac(x):
        return system.jacobian(x) / scales[:, None]

    def accept_x(x):
        return accept(_assignment(system.unknowns, x)) if accept else True

    x, r, free, _ = _solve_core(
        fun, jac, system.nunknowns, seed, restarts, tol, max_iter, jobs,
        accept_x if accept else None,
    )
    assignment = _assignment(system.unknowns, x)
    aux = {
        (u.row, u.col): complex(v)
        for u, v in zip(system.unknowns, x)
        if isinstance(u, WVar)
    }
    return ExtensionSolution(assignment, float(r), free, aux)


def _assignment(unknowns, x) -> dict[Exponent, complex]:
    return {
        u.exp: complex(v) for u, v in zip(unknowns, x) if isinstance(u, Unknown)
    }


# ---------------------------------------------------------------------------
# numeric route used by the decomposition driver


class CommutatorResidual:
    """Commutator equations evaluated numerically, inverting D_0 on the fly.

    With A = D_i, B = D_j (i < j) and N = D_0^{-1}, the equations are the
    strict upper triangle of the antisymmetric C = A N B - B N A.  Compared
    to the adjugate form this keeps the equation count at s(s-1)/2 per pair
    regardless of how many unknowns sit inside D_0, and it cannot converge to
    a det(D_0) = 0 artifact because the residual blows up there.

    A column of the Jacobian is a sum of rank-1 terms, one per cell (r, c)
    its unknown occupies; a unit there changes C by
        of A:    e_r (x) NB[c,:] - BN[:,r] (x) e_c
        of B:    AN[:,r] (x) e_c - e_r (x) NA[c,:]
        of D_0:  BN[:,r] (x) NA[c,:] - AN[:,r] (x) NB[c,:]   (dN = -N dD_0 N)
    """

    def __init__(self, L: DualForm, basis: MonomialBasis):
        mats = [build_hankel(L, basis.exponents, basis.exponents)]
        mats += [shifted_matrix(L, basis, v) for v in range(L.nvars)]
        self.unknowns = _collect_unknowns(mats)
        index = {u.exp: i for i, u in enumerate(self.unknowns)}
        s = len(basis)
        self.const = np.zeros((len(mats), s, s), dtype=complex)
        cells = []  # (matrix, row, col, unknown index) of every unknown cell
        for m, mat in enumerate(mats):
            for a in range(s):
                for b in range(s):
                    v = mat.entries[a, b]
                    if isinstance(v, Unknown):
                        cells.append((m, a, b, index[v.exp]))
                    else:
                        self.const[m, a, b] = v
        self.cells = np.array(cells, dtype=np.intp).reshape(-1, 4).T
        self.pairs = [
            (i, j) for i in range(1, L.nvars + 1) for j in range(i + 1, L.nvars + 1)
        ]
        self.upper = np.triu_indices(s, k=1)
        # one reference magnitude so residuals read as relative numbers
        self.scale = (1.0 + np.max(np.abs(self.const))) ** 2
        self._sing_floor = 1e-12
        # the Jacobian's rank-1 terms u[:,r] (x) v[c,:] on the upper triangle, as
        # (target, left, right) indices into N D_v, D_v N, -D_v N, 0, 1, -1
        n, p, q = L.nvars, *self.upper
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
        self._terms = np.concatenate(parts, axis=1)

    def nequations(self) -> int:
        return len(self.pairs) * len(self.upper[0])

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """D_0, D_1, ..., D_n stacked, with the unknowns set to x."""
        out = self.const.copy()
        out[tuple(self.cells[:3])] = x[self.cells[3]]
        return out

    def _inverse(self, d0: np.ndarray):
        s = np.linalg.svd(d0, compute_uv=False)
        if s[-1] <= self._sing_floor * max(s[0], 1.0):
            return None
        return np.linalg.inv(d0)

    def residual(self, x: np.ndarray) -> np.ndarray:
        mats = self.matrices(x)
        n_mat = self._inverse(mats[0])
        if n_mat is None:
            return np.full(self.nequations(), np.nan + 0j)
        out = []
        for i, j in self.pairs:
            c = mats[i] @ n_mat @ mats[j] - mats[j] @ n_mat @ mats[i]
            out.append(c[self.upper])
        return np.concatenate(out) / self.scale

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        mats = self.matrices(x)
        n_mat = self._inverse(mats[0])
        if n_mat is None:
            return np.full((self.nequations(), len(self.unknowns)), np.nan + 0j)
        shifts = mats[1:]
        an = (shifts @ n_mat).ravel()
        factor = np.concatenate([(n_mat @ shifts).ravel(), an, -an, [0.0, 1.0, -1.0]])
        target, left, right = self._terms
        out = np.zeros(self.nequations() * len(self.unknowns), dtype=complex)
        np.add.at(out, target, factor[left] * factor[right])
        return out.reshape(self.nequations(), -1) / self.scale

    def d0_healthy(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        s = np.linalg.svd(self.matrices(x)[0], compute_uv=False)
        return bool(s[-1] > tol * s[0])


def extend_dual(
    L: DualForm,
    basis: MonomialBasis,
    seed: int = 0,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iter: int = 200,
    jobs: int = 1,
) -> ExtensionSolution | None:
    """Find unknown moments making the operators on `basis` commute.

    Returns None when no acceptable solution is found (usually meaning the
    basis size is below the true support size, or above it with the unknowns
    overdetermined into inconsistency).
    """
    res = CommutatorResidual(L, basis)
    if not res.unknowns:
        if res.nequations() == 0:
            return ExtensionSolution({}, 0.0, 0)
        r = res.residual(np.zeros(0, dtype=complex))
        rmax = float(np.max(np.abs(r))) if r.size else 0.0
        if not np.isfinite(rmax) or rmax > tol:
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
        restarts,
        tol,
        max_iter,
        jobs,
        accept=res.d0_healthy,
    )
    if not ok:
        return None
    return ExtensionSolution(_assignment(res.unknowns, x), float(r), free)
