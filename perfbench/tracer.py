"""Spans around the package's entry points, recorded from the benchmark side.

Every entry point is wrapped under the name its caller looks it up by:
`waring.cli.decompose` and `waring.decompose.decompose` are two wrappers of
one function, and each counts its own calls so that a renamed or re-imported
function shows up as a wrapper that never fires.  Modules come from
`sys.modules`, because `import waring.decompose` yields the function the
package re-exports under the module's name.

Spans are kept in memory as [name, start, end, parent, case, info, ok] and
only recorded inside a case, so oracle calls between cases stay untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the span name's prefix is the layer
ENTRY_POINTS = (
    ("waring.cli", "main", "cli.main"),
    ("waring.cli", "parse_input", "cli.parse_input"),
    ("waring.cli", "decompose", "decompose.decompose"),
    ("waring.cli", "classify_ternary_cubic", "decompose.classify"),
    ("waring.cli", "verify", "decompose.verify"),
    ("waring.cli", "binary_decompose", "binary.binary_decompose"),
    ("waring.decompose", "decompose", "decompose.decompose"),
    ("waring.decompose", "change_coordinates", "core.change_coordinates"),
    ("waring.decompose", "essential_vars", "core.essential_vars"),
    ("waring.decompose", "expand_power_sum", "core.expand_power_sum"),
    ("waring.decompose", "to_dual", "core.to_dual"),
    ("waring.decompose", "known_rank_bound", "hankel.known_rank_bound"),
    ("waring.decompose", "full_rank_principal_minor", "hankel.basis_choice"),
    ("waring.decompose", "build_hankel", "hankel.matrix"),
    ("waring.decompose", "shifted_matrix", "hankel.matrix"),
    ("waring.extension", "build_hankel", "hankel.matrix"),
    ("waring.extension", "shifted_matrix", "hankel.matrix"),
    ("waring.hankel", "QuasiHankelMatrix.value_matrix", "hankel.matrix"),
    ("waring.decompose", "extend_dual", "extension.extend_dual"),
    ("waring.extension", "CommutatorResidual.residual", "extension.residual"),
    ("waring.extension", "CommutatorResidual.jacobian", "extension.jacobian"),
    ("waring.decompose", "pencil_support", "spectral.pencil_support"),
    ("waring.decompose", "solve_weights", "spectral.solve_weights"),
    ("waring.decompose", "binary_decompose", "binary.binary_decompose"),
)

NAME, START, END, PARENT, CASE, INFO, OK = range(7)


def _info(name: str, args, kwargs, out):
    """What a span needs beyond its timing: (info, ok)."""
    if name == "extension.extend_dual":
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        return len(basis), out is not None
    if name == "spectral.pencil_support":
        return None, out is not None
    if name == "decompose.decompose":
        return [out.rank, len(out.basis)], True
    return None, True


def _owner(module: str, attr: str):
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.fired: Counter = Counter()  # calls per (module, attribute)
        self._stack: list[int] = []
        self._case: str | None = None
        self._saved: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in ENTRY_POINTS:
            owner, leaf = _owner(module, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap((module, attr), name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, key, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._case is None:
                return fn(*args, **kwargs)
            tracer.fired[key] += 1
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, None, False)
                raise
            tracer._close(idx, *_info(name, args, kwargs, out))
            return out

        return traced

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._case, None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int, info, ok) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[INFO], span[OK] = info, ok
        self._stack.pop()

    def begin_case(self, cid: str) -> None:
        self._case = cid
        self._open("case")

    def end_case(self, ok: bool) -> None:
        self._close(self._stack[-1], None, ok)
        self._case = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# derived numbers


def self_times(spans) -> list[float]:
    """Duration minus the time covered by direct child spans."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def case_counts(spans) -> dict[str, dict]:
    """Per case: extension attempts and residual and Jacobian evaluations."""
    names = {"extension.extend_dual": "attempts", "extension.residual": "residual_calls",
             "extension.jacobian": "jacobian_calls"}
    out: dict[str, dict] = defaultdict(lambda: dict.fromkeys(names.values(), 0))
    for s in spans:
        if s[NAME] == "case":
            out[s[CASE]]  # every case gets a row, also one without attempts
        elif s[NAME] in names:
            out[s[CASE]][names[s[NAME]]] += 1
    return dict(out)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer numbers per pass of the workload; ratios over all passes."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    ok: Counter = Counter()
    for s, t in zip(spans, own):
        total[s[NAME]] += s[END] - s[START]
        self_s[s[NAME]] += t
        calls[s[NAME]] += 1
        ok[s[NAME]] += bool(s[OK])

    # attempts: one extend_dual call each; the attempt that succeeds is the
    # one behind a rank-loop report (a decompose span with a basis and no
    # decompose span below it)
    has_decompose_child = {s[PARENT] for s in spans if s[NAME] == "decompose.decompose"}
    returned_rank: dict[str, int] = {}
    successes = 0
    for i, s in enumerate(spans):
        if s[NAME] == "decompose.decompose" and s[OK]:
            rank, basis_len = s[INFO]
            returned_rank[s[CASE]] = max(rank, returned_rank.get(s[CASE], 0))
            successes += basis_len > 0 and i not in has_decompose_child
    below = sum(
        s[END] - s[START]
        for s in spans
        if s[NAME] == "extension.extend_dual"
        and s[CASE] in returned_rank
        and s[INFO] < returned_rank[s[CASE]]
    )
    attempts = calls["extension.extend_dual"]
    wall = total["case"]

    def per_pass(x: float) -> float:
        return x / passes

    return {
        "cli.parse_s": per_pass(total["cli.parse_input"]),
        "cli.self_s": per_pass(self_s["cli.main"]),
        "core.change_coordinates_s": per_pass(total["core.change_coordinates"]),
        "core.change_coordinates_calls": per_pass(calls["core.change_coordinates"]),
        "core.essential_vars_s": per_pass(total["core.essential_vars"]),
        "core.expand_power_sum_s": per_pass(total["core.expand_power_sum"]),
        "core.to_dual_s": per_pass(total["core.to_dual"]),
        "hankel.known_rank_bound_s": per_pass(total["hankel.known_rank_bound"]),
        "hankel.basis_choice_s": per_pass(total["hankel.basis_choice"]),
        "hankel.matrix_s": per_pass(total["hankel.matrix"]),
        "extension.extend_dual_s": per_pass(total["extension.extend_dual"]),
        "extension.extend_dual_calls": per_pass(attempts),
        "extension.success_ratio": _ratio(ok["extension.extend_dual"], attempts),
        "extension.self_s": per_pass(self_s["extension.extend_dual"]),
        "extension.jacobian_s": per_pass(total["extension.jacobian"]),
        "extension.jacobian_calls": per_pass(calls["extension.jacobian"]),
        "extension.residual_s": per_pass(total["extension.residual"]),
        "extension.residual_calls": per_pass(calls["extension.residual"]),
        "spectral.pencil_support_s": per_pass(total["spectral.pencil_support"]),
        "spectral.pencil_support_calls": per_pass(calls["spectral.pencil_support"]),
        "spectral.success_ratio": _ratio(ok["spectral.pencil_support"],
                                         calls["spectral.pencil_support"]),
        "spectral.solve_weights_s": per_pass(total["spectral.solve_weights"]),
        "binary.binary_decompose_s": per_pass(total["binary.binary_decompose"]),
        "binary.calls": per_pass(calls["binary.binary_decompose"]),
        "decompose.attempts": per_pass(attempts),
        "decompose.attempts_failed": per_pass(attempts - successes),
        "decompose.useful_ratio": _ratio(successes, attempts),
        "decompose.below_rank_s": per_pass(below),
        "decompose.below_rank_share": _ratio(below, wall),
        "decompose.self_s": per_pass(sum(t for n, t in self_s.items()
                                         if n.startswith("decompose."))),
        "trace.unattributed_frac": _ratio(self_s["case"], wall),
    }
