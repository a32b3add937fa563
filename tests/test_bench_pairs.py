"""scripts/bench_pairs.py's verdicts on fixed numbers; no benchmark runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Parent values 1.0, 1.1, ..., 1.9: median 1.45, inclusive quartiles 1.225
# and 1.675, so an IQR of 0.45.
PARENTS = [1.0 + k / 10 for k in range(10)]


def test_metrics_come_from_the_benchmark_file(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    assert bench_pairs.end_to_end(ROOT) == [(m["name"], m["better"], m["bound"])
                                            for m in declared]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "x_s", "unit": "s", "better": "lower", "bound": 0.5}]}))
    assert bench_pairs.end_to_end(str(tmp_path)) == [("x_s", "lower", 0.5)]


def test_a_clear_gain_is_a_claim():
    v = bench_pairs.verdict([(p, p - 0.5) for p in PARENTS], "lower", 0.25)
    assert v["parent"] == pytest.approx(1.45) and v["iqr"] == pytest.approx(0.45)
    assert v["change"] == pytest.approx(0.95)
    assert (v["wins"], v["worse"], v["claim"]) == (10, False, True)


def test_a_gain_inside_the_parents_iqr_is_no_claim():
    v = bench_pairs.verdict([(p, p - 0.4) for p in PARENTS], "lower", 0.25)
    assert (v["wins"], v["worse"], v["claim"]) == (10, False, False)


@pytest.mark.parametrize("losses, claim", [(1, True), (2, False)])
def test_a_claim_needs_nine_wins_in_ten(losses, claim):
    pairs = [(p, p + 0.01 if k < losses else p - 1.0) for k, p in enumerate(PARENTS)]
    v = bench_pairs.verdict(pairs, "lower", 0.25)
    assert v["wins"] == 10 - losses
    assert v["claim"] is claim


@pytest.mark.parametrize("factor, worse", [(1.2, False), (1.3, True)])
def test_worse_is_the_median_past_the_bound(factor, worse):
    # Parent median 1.45; the bound is 25% of it.
    v = bench_pairs.verdict([(p, p * factor) for p in PARENTS], "lower", 0.25)
    assert (v["wins"], v["worse"], v["claim"]) == (0, worse, False)


@pytest.mark.parametrize("change, wins, worse, claim", [
    (lambda p: p + 0.5, 10, False, True),
    (lambda p: p * 0.8, 0, False, False),
    (lambda p: p * 0.7, 0, True, False),
])
def test_higher_is_better_turns_each_rule(change, wins, worse, claim):
    v = bench_pairs.verdict([(p, change(p)) for p in PARENTS], "higher", 0.25)
    assert (v["wins"], v["worse"], v["claim"]) == (wins, worse, claim)


def test_equal_runs_neither_win_nor_lose():
    # An evaluation count that the change keeps, and a single pair.
    v = bench_pairs.verdict([(20_020_000, 20_020_000)] * 10, "lower", 0.15)
    assert (v["wins"], v["iqr"], v["worse"], v["claim"]) == (0, 0, False, False)
    v = bench_pairs.verdict([(1.0, 0.5)], "lower", 0.25)
    assert (v["wins"], v["iqr"], v["worse"], v["claim"]) == (1, 0, False, True)


def test_a_spread_wider_than_the_bound_is_unresolved():
    # The parent's IQR, 0.45, exceeds 0.25 times its median, 0.3625.
    v = bench_pairs.verdict([(p, p) for p in PARENTS], "lower", 0.25)
    assert (v["wins"], v["worse"], v["unresolved"], v["claim"]) == (0, False, True, False)


def test_every_change_run_past_every_parent_run_resolves_a_wide_spread():
    v = bench_pairs.verdict([(p, p - 1.0) for p in PARENTS], "lower", 0.25)
    assert (v["wins"], v["worse"], v["unresolved"], v["claim"]) == (10, False, False, True)


def test_runs_default_to_the_benchmarks_length_and_ten_pairs(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    args = bench_pairs.parse_args(["parent", ROOT, "--workload", "sbp_bias, plan"])
    assert (args.seconds, args.pairs, args.workloads) == (run_seconds, 10, ["sbp_bias", "plan"])
    # The change tree's file decides, and explicit values win.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
    args = bench_pairs.parse_args([ROOT, str(tmp_path), "--workload", "plan"])
    assert (args.seconds, args.pairs) == (7.0, 10)
    args = bench_pairs.parse_args([ROOT, str(tmp_path), "--workload", "plan",
                                   "--seconds", "2.5", "--pairs", "3"])
    assert (args.seconds, args.pairs) == (2.5, 3)


def test_all_runs_every_workload_of_the_change_in_its_order(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    assert bench_pairs.parse_args(["parent", ROOT, "--workload", "all"]).workloads == listed
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 5, "workloads": [{"name": "b"}, {"name": "a"}]}))
    assert bench_pairs.parse_args([ROOT, str(tmp_path), "--workload", "all"]).workloads == [
        "b", "a"]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args([ROOT, str(tmp_path), "--workload", "all,plan"])


def _fake_tree(tmp_path, workloads):
    """A tree whose BENCHMARK.json declares workloads and two metrics."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "train_s", "better": "lower", "bound": 0.25},
                       {"name": "rate", "better": "higher", "bound": 0.25}]}))
    return str(tmp_path)


@pytest.mark.parametrize("values, summary, code", [
    # Equal runs: nothing is worse.
    ({}, "worse or unresolved: none", 0),
    # b's train_s is 50% slower in every pair, and a's rate spreads wider
    # than its bound with the change inside the parent's range.
    ({("change", "b", "train_s"): lambda k: 1.5,
      ("parent", "a", "rate"): lambda k: 1.0 + k / 2,
      ("change", "a", "rate"): lambda k: 1.0 + k / 2},
     "worse or unresolved: a rate (unresolved), b train_s (yes)", 0),
    # A failed run changes the exit code, and a workload left without a
    # pair is named.
    ({("change", "b", "train_s"): lambda k: None if k == 2 else 1.0},
     "worse or unresolved: none", 1),
    ({("change", "a", "train_s"): lambda k: None},
     "worse or unresolved: a (no pairs)", 1),
])
def test_the_last_line_names_every_worse_or_unresolved_metric(
        tmp_path, monkeypatch, capsys, values, summary, code):
    tree = _fake_tree(tmp_path, ["a", "b"])
    sides = {"PARENT": "parent", tree: "change"}
    calls = {}

    def run(side_tree, workload, seed, seconds, names):
        side = sides[side_tree]
        k = calls[side, workload] = calls.get((side, workload), 0) + 1
        got = {m: values.get((side, workload, m), lambda k: 1.0)(k) for m in names}
        return None if None in got.values() else got

    monkeypatch.setattr(bench_pairs, "_run", run)
    assert bench_pairs.main(["PARENT", tree, "--workload", "all", "--pairs", "4"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == summary
