"""Self-checks of the benchmark: one seed gives identical per-case fingerprints
(the determinism invariant), every wrapped entry point fires on a workload
that reaches it, and self times are computed as documented.

    python3 -m pytest perfbench/check_trace.py -q
"""

import functools
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402

run._import_package()

import cases  # noqa: E402

SEED = 7


def _traced_pass(workload: str):
    tracer = tr.Tracer()
    tracer.install()
    try:
        records = run.run_pass(cases.WORKLOADS[workload](SEED, 0), tracer)
    finally:
        tracer.uninstall()
    counts = tr.case_counts(tracer.spans)
    prints = [(r["id"], r["failure"], {**r["fingerprint"], **counts[r["id"]]})
              for r in records]
    return prints, tracer


@functools.cache
def _first_passes():
    return {w: _traced_pass(w) for w in cases.WORKLOADS}


def test_fingerprints_repeat_for_one_seed():
    for workload, (prints, _) in _first_passes().items():
        assert [failure for _, failure, _ in prints] == [None] * len(prints), workload
        again, _ = _traced_pass(workload)
        assert again == prints, workload


def test_every_wrapped_entry_point_fires():
    fired = Counter()
    for _, tracer in _first_passes().values():
        fired.update(tracer.fired)
    missing = [(m, a) for m, a, _ in tr.ENTRY_POINTS if not fired[(m, a)]]
    assert not missing


def _bound_objects():
    return [
        owner.__dict__[leaf]
        for owner, leaf in (tr._owner(m, a) for m, a, _ in tr.ENTRY_POINTS)
    ]


def test_uninstall_restores_the_package():
    before = _bound_objects()
    tracer = tr.Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, _bound_objects()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, _bound_objects()))


def test_self_time_and_attempt_accounting():
    spans = [
        ["case", 0.0, 10.0, None, "c", None, True],
        ["decompose.decompose", 1.0, 9.0, 0, "c", [3, 3], True],
        ["extension.extend_dual", 2.0, 5.0, 1, "c", 2, False],
        ["extension.extend_dual", 5.0, 8.0, 1, "c", 3, True],
    ]
    assert tr.self_times(spans) == [2.0, 2.0, 3.0, 3.0]
    m = tr.layer_metrics(spans, passes=1)
    assert m["decompose.attempts"] == 2
    assert m["decompose.attempts_failed"] == 1
    assert m["decompose.below_rank_s"] == 3.0
    assert m["decompose.below_rank_share"] == 0.3
    assert m["extension.success_ratio"] == 0.5
    assert m["trace.unattributed_frac"] == 0.2
