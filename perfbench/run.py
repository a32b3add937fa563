#!/usr/bin/env python3
"""slacksvm benchmark: one workload, one closed-loop caller, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sbp_large --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from --seed, sets up several times
(median reported as setup_s), then solves again and again for --seconds,
checking every output. Times are reference seconds (see speed.py). With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones. The last line of standard output is the result object; the
line before it records the environment and raw wall times.

BLAS and OpenMP pools are pinned to one thread before numpy loads. The
program is imported from src/ of the same checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SOLVES = 3
# Set-up repeats until it has run MIN_SETUPS times and SETUP_SECONDS have
# passed, or MAX_SETUPS times.
MIN_SETUPS = 5
MAX_SETUPS = 50
SETUP_SECONDS = 2.0

END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "kevals_per_s": "1/s",
                    "train_kernel_evals": "count", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        libs = sorted(p for p in paths if ".so" in os.path.basename(p))
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = _blas_threads()
    pinned = (all(os.environ.get(v) == "1" for v in PIN_VARS)
              and all(n == 1 for n in blas.values()))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "blas_threads": blas, "threads_pinned": pinned,
    }


def _timed(clock, fn, *args):
    """(result, wall s, reference s); result is None when fn raised."""
    try:
        return clock.call(fn, *args)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        return None, 0.0, 0.0


def _checked(wl, prep, raw):
    """The workload's Outcome, or None when the check itself raised."""
    if raw is None:
        return None
    try:
        return wl.check(prep, raw)
    except Exception:
        traceback.print_exc()
        return None


def measure_setup(wl, inputs, clock):
    """Median reference and wall seconds of repeated set-ups, and the last
    set-up's result."""
    ref, wall = [], []
    start = time.perf_counter()
    while len(ref) < MAX_SETUPS and (
            len(ref) < MIN_SETUPS or time.perf_counter() - start < SETUP_SECONDS):
        prep = None  # drop the previous copy before timing the next
        prep, w, r = _timed(clock, wl.setup, inputs)
        if prep is None:
            raise RuntimeError("set-up failed")
        ref.append(r)
        wall.append(w)
    return statistics.median(ref), statistics.median(wall), prep


class Tally:
    """Operations attempted and failed; times and counts of the good ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ref = []
        self.wall = []
        self.evals = []
        self.errors = []

    def add(self, outcome, wall, ref):
        self.attempted += 1
        if outcome is None or outcome.problems:
            self.failed += 1
            for p in outcome.problems if outcome is not None else ():
                print(f"check failed: {p}", file=sys.stderr)
            return False
        self.wall.append(wall)
        self.ref.append(ref)
        self.evals.append(outcome.evals)
        self.errors.append(outcome.error)
        return True


def run_untraced(wl, inputs, seconds, clock, summary):
    setup_ref, setup_wall, prep = measure_setup(wl, inputs, clock)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.attempted < MIN_SOLVES or time.perf_counter() < deadline:
        raw, wall, ref = _timed(clock, wl.solve, prep)
        tally.add(_checked(wl, prep, raw), wall, ref)
    metrics = {"setup_s": setup_ref, "train_s": 0.0, "kevals_per_s": 0.0,
               "train_kernel_evals": 0}
    if tally.ref:
        metrics["train_s"] = statistics.median(tally.ref)
        metrics["kevals_per_s"] = statistics.median(
            e / t for e, t in zip(tally.evals, tally.ref))
        metrics["train_kernel_evals"] = statistics.median(tally.evals)
        summary["train_wall_s"] = statistics.median(tally.wall)
        if len(tally.ref) > 1:
            summary["train_s_quartiles"] = statistics.quantiles(tally.ref, n=4)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["setup_wall_s"] = setup_wall
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(wl, inputs, seconds, clock, summary):
    """Alternate an untraced and a traced repetition (set-up plus solve)
    until --seconds pass; traced outputs must equal untraced ones."""
    import tracing

    tracer = tracing.Tracer()
    tally = Tally()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while tracer.repetitions < MIN_SOLVES or time.perf_counter() < deadline:
        prep = wl.setup(inputs)
        raw, wall, ref = _timed(clock, wl.solve, prep)
        plain = _checked(wl, prep, raw)
        if tally.add(plain, wall, ref):
            untraced.append(ref)

        gc.collect()
        with tracer.installed():
            prep = wl.setup(inputs)
            raw, wall, ref = _timed(clock, wl.solve, prep)
        tracer.flush()
        outcome = _checked(wl, prep, raw)
        if outcome is not None and plain is not None and outcome.fingerprint != plain.fingerprint:
            outcome.problems.append("traced outputs differ from untraced outputs")
        if tally.add(outcome, wall, ref):
            traced.append(ref)

    metrics = tracing.layer_metrics(tracer)
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                if traced and untraced else 0.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    summary["top_self"] = tracing.top_self(tracer)
    return tally, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in PIN_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    if not (SRC / "slacksvm" / "__init__.py").is_file():
        print(f"perfbench: no slacksvm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args)
    if not env["threads_pinned"]:
        print("perfbench: warning: BLAS threads are not pinned to 1", file=sys.stderr)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    summary = {}
    try:
        inputs = wl.make_inputs(args.seed, str(workdir))
        clock = speed.SampledClock(wl.probe)
        run_mode = run_traced if args.trace else run_untraced
        tally, metrics = run_mode(wl, inputs, args.seconds, clock, summary)
        summary["speed_factor"] = statistics.median(clock.factors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    summary["solves"] = len(tally.ref)
    errors = [e for e in tally.errors if e == e]  # calibrate has no model: nan
    summary["test_error"] = statistics.median(errors) if errors else None

    print(json.dumps({"env": env, "summary": summary}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
