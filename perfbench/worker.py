"""One benchmark process: import affinv, set a workload up, and (unless
--setup-only) run it in a closed loop with one client and print the result.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  Protocol on stdout, one JSON object per line:
  {"ready": <CLOCK_MONOTONIC seconds when set-up finished>}
  {"result": {...}}                      (not with --setup-only)
"""

from __future__ import annotations

import time

# Timed first, so that import_s includes numpy, scipy and mpmath.
T_IMPORT = time.perf_counter()
import affinv  # noqa: E402
IMPORT_S = time.perf_counter() - T_IMPORT

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Outcomes:
    """Per-operation ledger: program time, outcome class and reason."""

    def __init__(self, ops_per_pass: int):
        self.seconds: list[float] = []
        self.ok_seconds: list[float] = []
        # Every time of each operation of the pass, and whether it passed.
        self.op_seconds: list[list[float]] = [[] for _ in range(ops_per_pass)]
        self.op_ok = [False] * ops_per_pass
        self.passes = 0
        self.by_reason: Counter = Counter()
        self.unexpected: list[str] = []
        self._reported: set[str] = set()

    def add(self, index: int, key, seconds: float, outcome: str, known_failures) -> None:
        self.seconds.append(seconds)
        self.op_seconds[index].append(seconds)
        self.op_ok[index] = outcome == "ok"
        if outcome == "ok":
            self.ok_seconds.append(seconds)
        self.by_reason[outcome] += 1
        if outcome != "ok" and key not in known_failures:
            self.unexpected.append(f"{key}: {outcome}")

    def report_raise(self, exc: BaseException) -> None:
        name = type(exc).__name__
        if name not in self._reported:
            self._reported.add(name)
            sys.stderr.write(f"first {name} in this run:\n")
            traceback.print_exception(exc, file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok_seconds)


def measure(wl, seconds: float, tracer: tracing.Tracer | None = None) -> Outcomes:
    """Whole passes over wl.ops until `seconds` have gone by (at least one).
    Only the program calls are timed; checks run between operations."""
    out = Outcomes(len(wl.ops))
    start = time.perf_counter()
    while out.passes == 0 or time.perf_counter() - start < seconds:
        for index, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.run(op)
                else:
                    result = tracer.call(tracing.ROOT, wl.run, op)
            except Exception as exc:  # any raise is a counted failure, not a crash
                elapsed = time.perf_counter() - t0
                out.report_raise(exc)
                out.add(index, wl.key(op), elapsed, f"failed-raised:{type(exc).__name__}",
                        wl.known_failures)
                continue
            elapsed = time.perf_counter() - t0
            reason = wl.check(op, result)
            outcome = "ok" if reason is None else f"failed-wrong:{reason}"
            out.add(index, wl.key(op), elapsed, outcome, wl.known_failures)
        out.passes += 1
    return out


def end_to_end(out: Outcomes) -> dict:
    """Medians, so that a stretch of a run slowed by other tenants of a shared
    machine moves the figures as little as possible: latency percentiles over
    every operation that passed; throughput from the median time of each
    operation of the pass."""
    ok = out.ok_seconds
    pass_s = sum(statistics.median(times) for times in out.op_seconds)
    return {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": (len(ok) / out.attempted, "frac"),
        "ok_per_s": (sum(out.op_ok) / pass_s, "1/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3 if ok else float("nan"), "ms"),
        "op_p75_ms": (float(np.percentile(ok, 75)) * 1e3 if ok else float("nan"), "ms"),
    }


# Functions whose call count and self time are reported (see README.md for
# the end-to-end metric each should move).
COUNTED = ("freegroup.eval_affine", "freegroup.affine_mul", "numkernel.solve",
           "numkernel.eigen_loxodromic", "cartan.transverse_frame", "cartan.co_neutral",
           "cartan.is_transverse", "invariants.cross_ratio", "invariants.triple_ratio",
           "invariants.margulis_invariant")
TIMED = ("freegroup.enumerate_conjugacy_reps", "invariants.affine_fixed_parabolics",
         "spectra.sample_spectrum", "spectra.write_spectrum_csv",
         "spectra.properness_diagnostic", "spectra.limit_formula_experiment",
         "fuchsian.lift_representation", "cli.load_rep")
EIGEN_ERRORS = ("Singular", "ComplexSpectrum", "ModulusCollision")


def per_layer(setup: dict, traced: dict, passes: int, setup_dps: int,
              tracer: tracing.Tracer, traced_out: Outcomes, untraced_out: Outcomes) -> dict:
    """Per-layer metrics for one set-up plus one pass of the traced phase."""

    def value(name, field):
        return setup.get(name, {}).get(field, 0) + traced.get(name, {}).get(field, 0) / passes

    def raised(name, exc=None):
        counts = [setup.get(name, {}).get("raised", {}), traced.get(name, {}).get("raised", {})]
        pick = (lambda c: c.get(exc, 0)) if exc else (lambda c: sum(c.values()))
        return pick(counts[0]) + pick(counts[1]) / passes

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (value(name, "calls"), "count")
    for name in COUNTED + TIMED:
        metrics[f"{name}.self_s"] = (value(name, "self_s"), "s")
    names = set(setup) | set(traced)
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = (sum(value(name, "self_s") for name in names
                                           if name.startswith(module + ".")), "s")
    enum = "freegroup.enumerate_conjugacy_reps"
    metrics[f"{enum}.words"] = (value(enum, "calls") - raised(enum, "StopIteration"), "count")
    metrics["freegroup.eval_affine.failed"] = (raised("freegroup.eval_affine"), "count")
    metrics["numkernel.adjoint.calls"] = (value("numkernel.adjoint", "calls"), "count")
    evaluated = metrics["freegroup.eval_affine.calls"][0]
    metrics["numkernel.solve.per_word"] = (
        metrics["numkernel.solve.calls"][0] / evaluated if evaluated else 0.0, "ratio")
    metrics["numkernel.eigen_loxodromic.raised"] = (raised("numkernel.eigen_loxodromic"), "count")
    for exc in EIGEN_ERRORS:
        metrics[f"numkernel.eigen_loxodromic.raised.{exc}"] = (
            raised("numkernel.eigen_loxodromic", exc), "count")
    metrics["mpmath.workdps.calls"] = (
        setup_dps + (tracer.workdps_calls - setup_dps) / passes, "count")
    metrics["mpmath.workdps.dps_max"] = (tracer.workdps_max, "digits")
    metrics["import_s"] = (IMPORT_S, "s")

    op_s = sum(traced_out.seconds) / passes
    self_total = sum(entry["self_s"] for entry in traced.values()) / passes
    metrics["numkernel.solve.share"] = (traced.get("numkernel.solve", {}).get("self_s", 0)
                                        / passes / op_s, "frac")
    metrics[f"{enum}.share"] = (traced.get(enum, {}).get("self_s", 0) / passes / op_s, "frac")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.untraced_op_s"] = (sum(untraced_out.seconds) / untraced_out.passes, "s")
    metrics["trace.overhead_frac"] = (op_s / metrics["trace.untraced_op_s"][0] - 1.0, "frac")
    metrics["trace.self_sum_frac"] = (self_total / op_s, "frac")
    metrics["trace.spans"] = (sum(entry["calls"] for entry in traced.values()) / passes, "count")
    return metrics


def environment() -> dict:
    """Core count, library versions and the BLAS build and thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "load_generator": "one process, one client, closed loop",
    }


# The traced run's self times must add up to the harness's own timing of the
# same operations within this share.
SELF_SUM_TOLERANCE = 0.02


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package_dir = os.path.join(os.path.abspath(args.root), "src", "affinv")
    if os.path.dirname(os.path.abspath(affinv.__file__)) != package_dir:
        sys.stderr.write(f"imported {affinv.__file__}, expected the package in {package_dir}\n")
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.root)
    _emit({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)})
    if args.setup_only:
        return 0
    wl.load_checks()

    if tracer is None:
        out = measure(wl, args.seconds)
        metrics = end_to_end(out)
        correct = not out.unexpected
        detail = {}
    else:
        tracer.uninstall()
        setup_end = len(tracer.spans)
        setup_dps = tracer.workdps_calls
        untraced = measure(wl, args.seconds / 2)
        tracer.install()
        out = measure(wl, args.seconds / 2, tracer)
        tracer.uninstall()
        metrics = per_layer(tracer.layer_totals(0, setup_end), tracer.layer_totals(setup_end),
                            out.passes, setup_dps, tracer, out, untraced)
        self_ok = abs(metrics["trace.self_sum_frac"][0] - 1.0) <= SELF_SUM_TOLERANCE
        correct = not out.unexpected and not untraced.unexpected and self_ok
        os.makedirs(os.path.join(os.path.dirname(__file__), "out"), exist_ok=True)
        spans_path = os.path.join(os.path.dirname(__file__), "out",
                                  f"spans-{args.workload}-{args.seed}.csv.gz")
        tracer.write(spans_path)
        detail = {"self_check": "ok" if self_ok else "failed", "spans_file": spans_path,
                  "untraced_outcomes": dict(untraced.by_reason)}

    _emit({"result": {
        "environment": environment(),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "passes": out.passes,
        "ops_per_pass": len(wl.ops),
        "outcomes": dict(out.by_reason),
        "unexpected_failures": out.unexpected[:20],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        **detail,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
