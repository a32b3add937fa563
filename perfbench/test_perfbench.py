"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_nested_spans():
    # a [0, 100] has children b [10, 40] and d [50, 70]; b has child c [20, 30].
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    parents = [-1, 0, 1, 0]
    assert list(tracing.self_times(starts, ends, parents)) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    starts = [0, 10, 30, 90]
    ends = [100, 40, 60, 120]  # the last child runs past its parent's end
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 100 - 50 - 10


def _toy_module():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_records_nesting_and_restores():
    mod = _toy_module()
    original = mod.outer
    tracer = tracing.Tracer(targets=(("toy.outer", mod, "outer", None, None),
                                     ("toy.inner", mod, "inner", None, None)))
    with tracer.installed():
        assert mod.outer(1) == 4
    tracer.flush()
    assert mod.outer is original
    outer, inner = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert tracer.nested_calls[("toy.inner", "toy.outer")] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(10_000) == 99.9
    assert tracing.tail_percentile(9_999) == 99.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(19) == 0.0


def test_sbp_eval_count_check():
    assert workloads.sbp_eval_problem(50 * 11, n=50, iterations=10) is None
    assert workloads.sbp_eval_problem(50 * 11 - 1, n=50, iterations=10)
    assert workloads.sbp_eval_problem(50 * 10, n=50, iterations=10)


def test_sbp_run_meets_eval_count_and_traced_bytes_match(tmp_path):
    wl = workloads.SbpWorkload("tiny", n=60, n_test=30, iterations=20, use_bias=True)
    prep = wl.setup(wl.make_inputs(7, str(tmp_path)))
    plain = wl.check(prep, wl.solve(prep))
    assert plain.problems == []
    assert plain.evals == 60 * 21
    tracer = tracing.Tracer()
    with tracer.installed():
        raw = wl.solve(prep)
    tracer.flush()
    assert wl.check(prep, raw).fingerprint == plain.fingerprint
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sbp.sbp_step.calls"][0] == 20
    assert metrics["kernels.row.evals"][0] == 60 * 20
    assert metrics["waterfill.gamma_calls_per_bias_call"][0] > 1


def test_inputs_follow_the_seed(tmp_path):
    wl = workloads.WORKLOADS["calibrate"]
    texts = []
    for i, seed in enumerate((3, 3, 4)):
        d = tmp_path / str(i)
        d.mkdir()
        inputs = wl.make_inputs(seed, str(d))
        texts.append(Path(inputs["train"]).read_text())
    assert texts[0] == texts[1] != texts[2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    tracer = tracing.Tracer()
    layer = tracing.layer_metrics(tracer)
    layer["trace.overhead_frac"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "calibrate", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error, ok", [(0.2, True), (np.nan, False), (0.9, False)])
def test_error_check(error, ok):
    assert (workloads.error_problem(error) is None) == ok
