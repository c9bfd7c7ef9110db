"""Benchmark of the waring package.

Runs one workload as a closed loop from a single client (the next polynomial
starts when the previous one has returned), checks every result, and prints
one JSON line last:

    python3 perfbench/run.py --workload small_forms --seed 1 --seconds 25 --trace 0

With --trace 0 the metrics are the end-to-end ones, measured with no
instrumentation.  The speed of a shared machine swings by up to 2x within
seconds, alike for the package and for any other CPU-bound code, so a fixed
reference kernel is timed between cases (at most every REFERENCE_EVERY_S) and
each case's wall time, and the set-up time, is scaled to the speed at which
that kernel takes REFERENCE_S, using the two timings that bracket it; the
unscaled figures are printed on the summary line.  With --trace 1 the run
alternates untraced and traced passes over the same inputs and reports
per-layer metrics from spans taken around the package's entry points (see
tracer.py); spans are written to perfbench/results/.  Workloads are defined
in cases.py; the self-checks are in check_trace.py.

Hard inputs that are not workloads yet: x0^3*x1^3*x2^3, x0^2*x1^2*x2^2*x3^2
and the quartic (0,1)*x0^4 + x1^4 + x2^4 - 1e8*x0*x1*x2^2 each run past 60 s
and wait for a deadline option in the package.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; recorded in every result
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, case_counts, layer_metrics, unit_of  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# mean seconds per pass when written (2-vCPU x86 virtual machine, python 3.11,
# numpy 2.4, BLAS on one thread); a run makes the number of passes that fills
# --seconds at this rate, so the work per run is fixed
NOMINAL_PASS_S = {"small_forms": 0.2, "flat_solve": 1.6, "rank_search": 2.0}
REFERENCE_S = 4e-3  # reference kernel time that scaled figures assume
REFERENCE_EVERY_S = 0.25  # least time between two reference timings
# at least this many passes, so that the tail (ten samples beyond it) falls
# among the samples of each workload's fixed slowest case
MIN_PASSES = 15
SETUP_RUNS = 7
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import waring
from waring.core import parse_poly
sys.modules["waring.decompose"].decompose(parse_poly("x0^3 + x1^3 + x2^3"))
print("ready", flush=True)
"""


def _import_package():
    if not (SRC / "waring" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import waring

    if pathlib.Path(waring.__file__).resolve().parent != SRC / "waring":
        sys.exit(f"error: imported waring from {waring.__file__}, not from {SRC}")


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing waring and returning a
    first tiny decomposition: scaled like the case times by the reference
    timings before and after each interpreter, and unscaled."""
    scaled, raw = [], []
    before = reference_seconds()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            sys.exit("error: set-up child failed")
        after = reference_seconds()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _reference_kernel(mats, tensor) -> complex:
    """The kind of work the package does: small complex linear algebra, a
    three-operand einsum shaped like the commutator Jacobian's, and Python
    loops over dicts of complex numbers."""
    acc = np.einsum("ab,bck,cd->adk", mats[0], tensor, mats[1])[0, 0, 0]
    for m in mats:
        acc += np.linalg.svd(m, compute_uv=False)[0]
        acc += np.linalg.inv(m)[0, 0]
        acc += np.einsum("ab,bc,cd->ad", m, m, m)[0, 0]
    table: dict = {}
    for i in range(600):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + complex(i) ** 2
    return acc + table[(0, 0)]


def reference_seconds(reps: int = 5) -> float:
    """Median time of the reference kernel right now."""
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            for _ in range(8)]
    tensor = rng.standard_normal((12, 12, 30)) + 1j * rng.standard_normal((12, 12, 30))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_kernel(mats, tensor)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(cases, tracer=None, between=None) -> list[dict]:
    """Each case in turn; the oracle runs after the clock stops, then
    `between(record)` if given."""
    records = []
    for case in cases:
        if tracer is not None:
            tracer.begin_case(case.id)
        t0 = time.perf_counter()
        try:
            out, why = case.call(), None
        except Exception as exc:  # counted as a failed case, not a crash
            out, why = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_case(why is None)
        fingerprint = {}
        if why is None:
            try:
                fingerprint, why = case.check(out)
            except Exception as exc:
                why = f"oracle raised {type(exc).__name__}: {exc}"
        records.append({"id": case.id, "seconds": seconds, "fingerprint": fingerprint,
                        "failure": why})
        if between is not None:
            between(records[-1])
    return records


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(build, seed: int, count: int, seconds: float, one_pass) -> int:
    """`count` passes, cut short (but never below MIN_PASSES) past 4x the
    intended time so that a much slower program still ends in time."""
    give_up = time.perf_counter() + 4 * seconds
    k = 0
    while k < count and (k < MIN_PASSES or time.perf_counter() < give_up):
        one_pass(build(seed, k), k)
        k += 1
    return k


def _timing_metrics(records_by_pass, key: str):
    times = sorted(r[key] for recs in records_by_pass for r in recs)
    by_case = defaultdict(list)
    for recs in records_by_pass:
        for r in recs:
            by_case[r["id"].split(":", 1)[1]].append(r[key])
    # a typical pass: each case at its median over the passes
    typical_pass = sum(statistics.median(v) for v in by_case.values())
    beyond = min(10, len(times) - 1)  # the tail has ten samples beyond it
    return {
        "polys_per_s": len(by_case) / typical_pass,
        "poly_s_p50": statistics.median(times),
        "poly_s_tail": times[-1 - beyond],
    }, beyond


def end_to_end(workload: str, build, seed: int, seconds: float):
    records_by_pass = []
    refs = [reference_seconds()]
    last_ref = [time.perf_counter()]

    def between(record):
        # each case is scaled by the reference timings that bracket it
        record["ref"] = len(refs) - 1
        if time.perf_counter() - last_ref[0] >= REFERENCE_EVERY_S:
            refs.append(reference_seconds())
            last_ref[0] = time.perf_counter()

    run_passes(build, seed, passes_for(workload, seconds), seconds,
               lambda cases, _: records_by_pass.append(run_pass(cases, between=between)))
    refs.append(reference_seconds())
    for recs in records_by_pass:
        for r in recs:
            r["scaled_s"] = r["seconds"] * REFERENCE_S * 2 / (refs[r["ref"]] + refs[r["ref"] + 1])
    scaled, beyond = _timing_metrics(records_by_pass, "scaled_s")
    raw, _ = _timing_metrics(records_by_pass, "seconds")
    samples = sum(len(recs) for recs in records_by_pass)
    summary = {"passes": len(records_by_pass), "samples": samples,
               "tail_percentile": 100 * (samples - beyond) / samples,
               "samples_beyond_tail": beyond, "unscaled": raw,
               "reference_s_median": statistics.median(refs)}
    units = {"polys_per_s": "1/s", "poly_s_p50": "s", "poly_s_tail": "s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    return records_by_pass, metrics, summary


def traced(workload: str, build, seed: int, seconds: float, tracer, results: pathlib.Path):
    """Untraced and traced passes over the same inputs, alternating which runs
    first; per-layer metrics come from the traced ones."""
    records_by_pass = []
    wall = {False: 0.0, True: 0.0}

    def pair(cases, k):
        recs = {}
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                try:
                    recs[True] = run_pass(cases, tracer)
                finally:
                    tracer.uninstall()
            else:
                recs[False] = run_pass(cases)
            wall[traced_now] += sum(r["seconds"] for r in recs[traced_now])
        # the same inputs must give the same results with and without tracing
        for p, t in zip(recs[False], recs[True]):
            if p["fingerprint"] != t["fingerprint"] and t["failure"] is None:
                t["failure"] = f"untraced run gave {p['fingerprint']}"
        records_by_pass.append(recs[True])

    k = run_passes(build, seed, passes_for(workload, seconds / 2), seconds, pair)
    counts = case_counts(tracer.spans)
    for recs in records_by_pass:
        for r in recs:
            r["fingerprint"].update(counts.get(r["id"], {}))
    layers = layer_metrics(tracer.spans, k)
    layers["trace.overhead_frac"] = wall[True] / wall[False] - 1
    tracer.write(results)
    summary = {"passes": k, "samples": sum(len(r) for r in records_by_pass),
               "traced_wall_s": wall[True], "untraced_wall_s": wall[False],
               "spans": len(tracer.spans),
               "spans_file": str(results.relative_to(HERE.parent))}
    return records_by_pass, layers, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must not be negative")

    _import_package()
    import scipy

    import cases

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
    }
    print("env " + json.dumps(env), flush=True)

    build = cases.WORKLOADS[args.workload]
    # warm-up outside the clock: lazy imports and first-call costs
    run_pass(cases.small_forms(args.seed, 0)[:2])

    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        spans_file = results / f"spans_{args.workload}_seed{args.seed}.jsonl"
        records_by_pass, layers, summary = traced(
            args.workload, build, args.seed, args.seconds, Tracer(), spans_file)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        setup_s, raw_setup_s = measure_setup()
        records_by_pass, metrics, summary = end_to_end(
            args.workload, build, args.seed, args.seconds)
        summary["unscaled"]["setup_s"] = raw_setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (setup_s, "s")

    records = [r for recs in records_by_pass for r in recs]
    for r in records_by_pass[0]:
        print("case " + json.dumps({"id": r["id"], "seconds": r["seconds"],
                                    **r["fingerprint"]}))
    failures = [r for r in records if r["failure"] is not None]
    for r in failures:
        print(f"fail {r['id']}: {r['failure']}")
    for r in run_pass(cases.known_defects(args.workload)):
        state = "still present: " + r["failure"] if r["failure"] else "no longer shows"
        print(f"known_defect {r['id']}: {state}")
    summary["fail_frac"] = len(failures) / len(records)
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
