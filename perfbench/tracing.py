"""Spans around the public functions of each slacksvm module.

The tracer replaces a function by a wrapper that records one span per call:
name, start, end, parent span, and a work count (kernel evaluations, bytes
written, iterations). Spans stay in memory in flat arrays until the caller
folds them into per-name statistics with ``Tracer.flush``. Wrappers are
installed only inside ``Tracer.installed()``, so untraced runs execute the
library exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

from slacksvm import baselines, bench, data, kernels, model, sbp, waterfill


def _evals_of(position):
    """Work counter: the eval_count of the kernel oracle at args[position]."""
    return lambda args: args[position].eval_count


def _iterations(args):
    return args[2].iterations


def _file_size(args):
    return os.path.getsize(args[1])


# (span name, owner, attribute, counter read before and after the call,
#  counter read after the call only). The span name is module.function; the
# module part names the layer.
TARGETS = (
    ("data.parse_libsvm", data, "parse_libsvm", None, None),
    ("data.matrix", data.Dataset, "matrix", None, None),
    ("kernels.kernel_from_spec", kernels, "kernel_from_spec", None, None),
    ("kernels.row", kernels.KernelOracle, "row", _evals_of(0), None),
    ("kernels.pair", kernels.KernelOracle, "pair", _evals_of(0), None),
    ("kernels.cross", kernels.KernelOracle, "cross", _evals_of(0), None),
    ("kernels.diag", kernels.KernelOracle, "diag", _evals_of(0), None),
    ("waterfill.find_gamma", waterfill, "find_gamma", None, None),
    ("waterfill.find_gamma_and_bias", waterfill, "find_gamma_and_bias", None, None),
    ("waterfill.support_set", waterfill, "support_set", None, None),
    ("sbp.sbp_init", sbp, "sbp_init", None, None),
    ("sbp.sbp_step", sbp, "sbp_step", None, None),
    ("sbp.sbp_train", sbp, "sbp_train", None, None),
    ("model.score_batch", model, "score_batch", _evals_of(2), None),
    ("model.score", model, "score", None, None),
    ("baselines.pegasos_train", baselines, "pegasos_train", None, _iterations),
    ("baselines.sdca_train", baselines, "sdca_train", None, _iterations),
    ("baselines.perceptron_train", baselines, "perceptron_train", None, None),
    ("bench.load_dataset", bench, "load_dataset", None, None),
    ("bench.parse_plan", bench, "parse_plan", None, None),
    ("bench.run_plan", bench, "run_plan", None, None),
    ("bench.write_run_csv", bench, "write_run_csv", None, _file_size),
    ("bench.calibrate_nu", bench, "calibrate_nu", None, None),
)

LAYERS = ("data", "kernels", "waterfill", "sbp", "model", "baselines", "bench")


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    n = len(starts)
    children: dict = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = np.array([ends[i] - starts[i] for i in range(n)], dtype=np.int64)
    for p, intervals in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(intervals):
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class SpanStats:
    """Totals for one span name over every flushed repetition."""

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0
        self.durations = array("q")


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets]
        # Span arrays are cleared in place, never replaced: the wrappers hold
        # references to them.
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_work = array("q")
        self._stack = []
        self.stats = {name: SpanStats() for name in self.names}
        # Cross-span tallies, keyed by (span name, ancestor span name).
        self.nested_calls: dict = {}
        self.nested_ns: dict = {}
        self.repetitions = 0

    def _reset_spans(self):
        for arr in (self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_work):
            del arr[:]
        self._stack.clear()

    def wrap(self, name_id, fn, before=None, after=None):
        """Wrapper recording one span per call of fn."""
        spans = (self.span_name, self.span_start, self.span_end,
                 self.span_parent, self.span_work)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, start, end, parent, work = spans
            idx = len(names)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            work.append(0)
            stack.append(idx)
            w0 = before(args) if before is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if before is not None:
                    work[idx] = before(args) - w0
                elif after is not None:
                    work[idx] = after(args)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target, and every module-level alias of it in the
        loaded slacksvm modules, by its wrapper; restore all on exit."""
        self._reset_spans()
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "slacksvm" or name.startswith("slacksvm."))]
        try:
            for name_id, (_, owner, attr, before, after) in enumerate(self.targets):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap_matrix_build(name_id, original.fget))
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self.wrap(name_id, original, before, after)
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                for m in modules:
                    if m is owner:
                        continue
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap_matrix_build(self, name_id, fget):
        """Span only the read of Dataset.matrix that builds the cached CSR
        matrix; later reads return the cache and are not traced."""
        traced = self.wrap(name_id, fget)

        @functools.wraps(fget)
        def getter(obj):
            if getattr(obj, "_matrix", None) is None:
                return traced(obj)
            return fget(obj)

        return getter

    def flush(self):
        """Fold the spans of one traced repetition into the totals."""
        names = list(self.span_name)
        starts = list(self.span_start)
        ends = list(self.span_end)
        parents = list(self.span_parent)
        works = list(self.span_work)
        selfs = self_times(starts, ends, parents)
        for i, name_id in enumerate(names):
            st = self.stats[self.names[name_id]]
            dur = ends[i] - starts[i]
            st.calls += 1
            st.total_ns += dur
            st.self_ns += int(selfs[i])
            st.work += works[i]
            st.durations.append(dur)
            seen = set()
            p = parents[i]
            while p >= 0:
                anc = names[p]
                if anc not in seen:
                    seen.add(anc)
                    key = (self.names[name_id], self.names[anc])
                    self.nested_calls[key] = self.nested_calls.get(key, 0) + 1
                    self.nested_ns[key] = self.nested_ns.get(key, 0) + dur
                p = parents[p]
        self.repetitions += 1
        self._reset_spans()


TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(samples: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it;
    0 when there are too few samples for any."""
    for pct in TAIL_CANDIDATES:
        beyond_per_mille = round((100.0 - pct) * 10)
        if samples * beyond_per_mille >= 10 * 1000:
            return pct
    return 0.0


def _latency(st: SpanStats):
    n = len(st.durations)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    us = np.frombuffer(st.durations, dtype=np.int64) / 1000.0
    pct = tail_percentile(n)
    tail = float(np.percentile(us, pct)) if pct else 0.0
    return float(np.median(us)), tail, pct, n


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}. Counts and times are per
    repetition; latencies pool every call of every repetition."""
    reps = max(tracer.repetitions, 1)
    stats = tracer.stats
    out: dict = {}

    def span(metric, name, *fields):
        st = stats[name]
        values = {
            "calls": (st.calls / reps, "count"),
            "s": (st.total_ns / reps / 1e9, "s"),
            "self_s": (st.self_ns / reps / 1e9, "s"),
            "evals": (st.work / reps, "count"),
            "bytes": (st.work / reps, "bytes"),
            "ns_per_eval": (st.total_ns / st.work if st.work else 0.0, "ns"),
        }
        for field in fields:
            if field == "latency":
                p50, tail, pct, n = _latency(st)
                out[f"{metric}.p50_us"] = (p50, "us")
                out[f"{metric}.tail_us"] = (tail, "us")
                out[f"{metric}.tail_pct"] = (pct, "%")
                out[f"{metric}.samples"] = (n, "count")
            else:
                out[f"{metric}.{field}"] = values[field]

    def nested(name, ancestor):
        """(calls, ns) of name-spans with an ancestor span named ancestor."""
        key = (name, ancestor)
        return tracer.nested_calls.get(key, 0), tracer.nested_ns.get(key, 0)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    span("data.load", "data.parse_libsvm", "calls", "s")
    span("data.matrix", "data.matrix", "s")

    span("kernels.row", "kernels.row", "calls", "evals", "s", "ns_per_eval", "latency")
    span("kernels.pair", "kernels.pair", "calls", "evals", "s", "ns_per_eval")
    span("kernels.cross", "kernels.cross", "calls", "evals", "s", "ns_per_eval")
    span("kernels.diag", "kernels.diag", "calls", "evals", "s")

    span("waterfill.find_gamma", "waterfill.find_gamma", "calls", "s", "self_s", "latency")
    span("waterfill.find_gamma_and_bias", "waterfill.find_gamma_and_bias",
         "calls", "s", "self_s")
    span("waterfill.support_set", "waterfill.support_set", "calls", "s")
    out["waterfill.gamma_calls_per_bias_call"] = ratio(
        nested("waterfill.find_gamma", "waterfill.find_gamma_and_bias")[0],
        stats["waterfill.find_gamma_and_bias"].calls)

    span("sbp.sbp_step", "sbp.sbp_step", "calls", "s", "self_s", "latency")
    span("sbp.sbp_train", "sbp.sbp_train", "calls", "s", "self_s")
    out["sbp.kernel_share"] = ratio(nested("kernels.row", "sbp.sbp_step")[1],
                                    stats["sbp.sbp_step"].total_ns)

    span("model.score_batch", "model.score_batch", "calls", "s", "evals")

    for solver in ("pegasos_train", "sdca_train", "perceptron_train"):
        span(f"baselines.{solver}", f"baselines.{solver}", "calls", "self_s")
    out["baselines.row_fraction"] = ratio(
        nested("kernels.row", "baselines.pegasos_train")[0]
        + nested("kernels.row", "baselines.sdca_train")[0],
        stats["baselines.pegasos_train"].work + stats["baselines.sdca_train"].work)

    span("bench.run_plan", "bench.run_plan", "calls", "self_s")
    span("bench.write_run_csv", "bench.write_run_csv", "calls", "s", "bytes")
    span("bench.calibrate_nu", "bench.calibrate_nu", "calls", "self_s")

    for layer in LAYERS:
        ns = sum(st.self_ns for name, st in stats.items()
                 if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (ns / reps / 1e9, "s")
    out["trace.spans"] = (sum(st.calls for st in stats.values()) / reps, "count")
    return out


def top_self(tracer: Tracer, k: int = 5):
    """The k span names with the largest self time, as (name, seconds per
    repetition, share of all traced self time)."""
    reps = max(tracer.repetitions, 1)
    total = sum(st.self_ns for st in tracer.stats.values()) or 1
    ranked = sorted(tracer.stats.items(), key=lambda kv: kv[1].self_ns, reverse=True)
    return [(name, st.self_ns / reps / 1e9, st.self_ns / total)
            for name, st in ranked[:k] if st.calls]
