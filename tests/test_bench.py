import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm import bench, cli, data
from slacksvm.baselines import PegasosConfig, pegasos_train
from slacksvm.bench import (SOLVER_KINDS, _fmt, calibrate_nu, fourier_plan, is_flag,
                            load_dataset, parse_plan, run_plan, solver_config,
                            train_solver, write_run_csv)
from slacksvm.data import DataError, SyntheticSpec, generate
from slacksvm.kernels import LinearKernel, kernel_from_spec
from slacksvm.model import SolverError, evaluate, save_model, serialize_model
from slacksvm.recording import RunRecord, Sample

from oracles import serialize_libsvm

PLAN = """
# comparison on a small synthetic instance
dataset = synthetic:two_gaussians:n=80,dimension=2,seed=5,separation=3.0
test = synthetic:two_gaussians:n=80,dimension=2,seed=6,separation=3.0
kernel = linear
repeat = 3
seed = 10
out = unused

solver.sbp.kind = sbp
solver.sbp.nu = 0.1
solver.sbp.iters = 60
solver.peg.kind = pegasos
solver.peg.lambda = 0.0125
solver.peg.iters = 60
"""

# Training rows with no stored feature: every K(x, x) is 0 under the linear
# kernel.
LABEL_ONLY = "+1\n-1\n+1\n"

ZERO_DIAGONAL_PLAN = """
dataset = file:{path}
kernel = linear
solver.peg.kind = pegasos
solver.peg.iters = 5
solver.sbp.kind = sbp
solver.sbp.iters = 5
solver.sbpb.kind = sbp
solver.sbpb.bias = 1
solver.sbpb.iters = 5
"""


class TestPlanParsing:
    def test_full_plan(self):
        plan = parse_plan(PLAN)
        assert plan.repeat == 3
        assert plan.seed == 10
        assert plan.kernel == "linear"
        assert [s.name for s in plan.solvers] == ["peg", "sbp"]
        assert plan.solvers[1].params["nu"] == "0.1"

    def test_synthetic_bench_plan(self):
        # The ready-made comparison: four solvers, ten seeds each.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                            "synthetic_bench.plan")
        with open(path) as fh:
            plan = parse_plan(fh.read())
        assert sorted((s.name, s.kind) for s in plan.solvers) == [
            (kind, kind) for kind in ("pegasos", "perceptron", "sbp", "sdca")]
        assert (plan.repeat, plan.seed, plan.kernel) == (10, 0, "gaussian:1.0")

    @pytest.mark.parametrize("text, message", [
        ("dataset synthetic\n", "line 1: expected key = value"),
        ("kernel = linear\nsolver.a.kind = sbp\n", "must set dataset"),
        ("dataset = x\nkernel = linear\nsolver.a.kind = magic\n",
         "line 3: .*unknown solver kind 'magic'"),
        ("dataset = x\nkernel = linear\n", "at least one solver"),
        (PLAN + "solver.bad.extra.deep = 1\n", "line 16: use solver.NAME.KEY"),
        (PLAN + "reapet = 5\n", "line 16: unknown key 'reapet'"),
        (PLAN + "solver.sbp.itres = 7\n", "line 16: .*no parameter 'itres'"),
        (PLAN + "solver.peg.bias = 1\n", "line 16: .*pegasos takes no parameter 'bias'"),
        (PLAN + "solver.peg.nu = abc\n", "line 16: .*no parameter 'nu'"),
        (PLAN + "solver.sbp.nu = abc\n", "line 16: .*unreadable value 'abc'"),
        (PLAN + "solver.sbp.bias = maybe\n", "line 16: .*unreadable value 'maybe'"),
        (PLAN + "solver.p.kind = perceptron\nsolver.p.iters = 5\n",
         "line 17: .*perceptron takes no parameter 'iters'"),
        (PLAN.replace("repeat = 3", "repeat = three"), "line 6: unreadable value 'three'"),
        (PLAN + "timing = sometimes\n", "line 16: unreadable value 'sometimes'"),
        (PLAN.replace("kernel = linear", "kernel = rbf"),
         "line 5: unreadable value 'rbf' for kernel"),
        (PLAN.replace("kernel = linear", "kernel = gaussian:-1"),
         "line 5: unreadable value 'gaussian:-1' for kernel"),
        (PLAN + "kernel = gaussian:1\n", "line 16: kernel is already set on line 5"),
        (PLAN + "solver.sbp.iters = 7\n",
         "line 16: solver.sbp.iters is already set on line 12"),
        (PLAN + "positive_class = abc\n", "line 16: unreadable value 'abc'"),
        (PLAN.replace("repeat = 3", "repeat = 0"), "repeat must be at least 1"),
        (PLAN.replace("solver.sbp.iters = 60", "solver.sbp.iters = 0"),
         "line 12: solver sbp: iterations must be at least 1 and an integer, got 0"),
        (PLAN.replace("solver.sbp.nu = 0.1", "solver.sbp.nu = -1"),
         "line 11: solver sbp: nu must be non-negative and finite, got -1.0"),
        (PLAN.replace("solver.peg.lambda = 0.0125", "solver.peg.lambda = inf"),
         "line 14: solver peg: lambda must be positive and finite, got inf"),
        (PLAN + "solver.p.kind = perceptron\nsolver.p.passes = 0\n",
         "line 17: solver p: passes must be at least 1 and an integer, got 0"),
        (PLAN.replace("seed = 10", "seed = -1"),
         "seed must be a non-negative integer, got -1"),
        (PLAN + "solver.a/b.kind = sbp\n",
         "line 16: solver name 'a/b' holds a path separator"),
        (PLAN.replace("solver.sbp.", "solver./."), "line 10: solver name '/' holds"),
    ], ids=["no-equals", "no-dataset", "unknown-kind", "no-solvers",
            "deep-solver-key", "top-level-typo", "solver-key-typo",
            "key-of-other-kind", "other-kind-key-unreadable", "unreadable-value",
            "unreadable-flag", "perceptron-iters", "unreadable-repeat",
            "unreadable-timing", "unknown-kernel", "kernel-out-of-range",
            "kernel-twice", "solver-key-twice", "unreadable-positive-class",
            "zero-repeat", "zero-iters", "negative-nu", "infinite-lambda",
            "zero-passes", "negative-seed", "name-with-slash", "name-is-slash"])
    def test_rejects_garbage(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_plan(text)

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("YES", True),
        ("0", False), ("false", False), ("no", False),
    ])
    def test_flag_spellings(self, text, value):
        plan = parse_plan(PLAN + f"solver.sbp.bias = {text}\n")
        sbp = plan.solvers[1]
        assert solver_config(sbp.kind, sbp.params, plan.seed, 80).use_bias is value


# Plan values, good and bad, for every top-level number and solver key.
_PLAN_VALUES = ("-1", "0", "1", "3", "0.1", "1e-320", "1e308", "inf", "-inf",
                "nan", "abc", "yes", "no")


@st.composite
def plan_texts(draw):
    """Plan texts of one to three solvers over the keys of their kinds, each
    value drawn from _PLAN_VALUES, the lines in any order."""
    value = st.sampled_from(_PLAN_VALUES)
    lines = ["dataset = synthetic:two_gaussians:n=20", "kernel = linear"]
    lines += [f"{key} = {draw(value)}" for key in ("repeat", "seed")
              if draw(st.booleans())]
    for name in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                              unique=True)):
        kind = draw(st.sampled_from(sorted(SOLVER_KINDS)))
        lines.append(f"solver.{name}.kind = {kind}")
        for key in draw(st.lists(st.sampled_from(sorted(SOLVER_KINDS[kind][2])),
                                 unique=True)):
            lines.append(f"solver.{name}.{key} = {draw(value)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@given(plan_texts())
@settings(max_examples=300, deadline=None)
def test_a_parsed_plan_builds_every_run(text):
    # parse_plan refuses a plan, or every run of it gets a config for any
    # data: a value out of range is a usage error, never a failed run.
    try:
        plan = parse_plan(text)
    except ValueError:
        return
    for solver in plan.solvers:
        for r in range(plan.repeat):
            for n in (1, 2, 1000):
                solver_config(solver.kind, solver.params, plan.seed + r, n)


class TestDatasetSpecs:
    def test_synthetic(self):
        ds = load_dataset("synthetic:two_gaussians:n=12,seed=3")
        assert ds.n == 12

    def test_file(self, tmp_path):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=5, seed=0))
        p = tmp_path / "d.txt"
        p.write_text(serialize_libsvm(ds))
        again = load_dataset(f"file:{p}")
        assert again.n == 5

    def test_unknown(self):
        # Any spec but synthetic: is a path, file: optional.
        with pytest.raises(FileNotFoundError, match="http:nope"):
            load_dataset("http:nope")

    @pytest.mark.parametrize("spec, message", [
        ("synthetic:two_gaussians:n=10,foo=1", "unknown synthetic parameter 'foo'"),
        ("synthetic:nope", "needs n"),
        ("synthetic:two_gaussians:seed=3", "needs n"),
        ("synthetic:two_gaussians:n=ten", "unreadable value 'ten' for n"),
        ("synthetic:two_gaussians:n=10,separation=x", "unreadable value 'x'"),
        ("synthetic:two_gaussians:n=10,separation=nan", "non-finite value 'nan'"),
        ("synthetic:two_gaussians:n=10,seed=-1",
         "seed must be a non-negative integer, got -1"),
        ("synthetic:two_gaussians:n=10,n=20", "parameter n given twice"),
        ("synthetic:two_gaussians:n=10,separation=0", "two_gaussians needs separation > 0"),
        ("synthetic:two_gaussians:n=10,noise_rate=1", r"noise_rate in \[0, 1\)"),
        ("synthetic:xor_ring:n=10,dimension=1", "xor_ring needs dimension >= 2"),
    ])
    def test_bad_synthetic_spec(self, spec, message):
        with pytest.raises(DataError, match=message):
            load_dataset(spec)

    @pytest.mark.parametrize("value", [1.0, -1.0, 5.0, float("nan")])
    def test_positive_class_with_a_synthetic_spec_is_refused_before_generating(
            self, monkeypatch, value):
        # A synthetic dataset's labels are already +-1: a positive_class would
        # be silently ignored. A usage error, not a DataError.
        def generating(spec):
            raise AssertionError("generated the data")

        monkeypatch.setattr(bench, "generate", generating)
        spec = "synthetic:two_gaussians:n=5,seed=1"
        with pytest.raises(ValueError, match="positive_class applies to LIBSVM files") as info:
            load_dataset(spec, positive_class=value)
        assert not isinstance(info.value, DataError)


class TestRunPlan:
    def test_file_contract(self, tmp_path):
        plan = parse_plan(PLAN)
        result = run_plan(plan, out_dir=str(tmp_path))
        files = sorted(os.listdir(tmp_path))
        # 2 solvers x 3 repeats + aggregate
        assert len([f for f in files if f.endswith(".csv")]) == 7
        assert "aggregate.csv" in files
        assert ("sbp_seed10.csv" in files and "peg_seed12.csv" in files)
        assert not result["failures"]

    def test_aggregate_contains_both_solvers(self, tmp_path):
        run_plan(parse_plan(PLAN), out_dir=str(tmp_path))
        text = (tmp_path / "aggregate.csv").read_text()
        assert "sbp," in text and "peg," in text

    def test_bare_paths_read_as_file_specs(self, tmp_path):
        # A plan reads a bare path as the command line does: the same bytes
        # as the same plan with file:.
        plan = parse_plan(PLAN)
        paths = {}
        for spec, name in ((plan.dataset, "train"), (plan.test, "test")):
            paths[spec] = tmp_path / f"{name}.svm"
            paths[spec].write_text(serialize_libsvm(load_dataset(spec)))
        for prefix, out in (("file:", "file"), ("", "bare")):
            text = PLAN
            for spec, path in paths.items():
                text = text.replace(spec, f"{prefix}{path}")
            assert not run_plan(parse_plan(text), out_dir=str(tmp_path / out))["failures"]
        a, b = tmp_path / "file", tmp_path / "bare"
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        assert len(os.listdir(a)) == 7
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_plan(parse_plan(PLAN), out_dir=str(a))
        run_plan(parse_plan(PLAN), out_dir=str(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_bytes_do_not_depend_on_the_dense_copy_where_sums_are_exact(self, tmp_path,
                                                                        monkeypatch):
        # Dense data takes its products from BLAS through its dense copy,
        # sparse data from scipy's CSR products; they sum in other orders.
        # On data of small integers every sum is exact in any order, so the
        # run CSVs and the saved models of a four-solver plan with a
        # held-out set are the same bytes with the copy and without: the
        # dense path multiplies the same entries.
        rng = np.random.default_rng(7)
        for name, n in (("train", 60), ("test", 50)):
            x = rng.integers(-3, 4, size=(n, 3)).astype(float)
            x[:, 0] += np.where(np.arange(n) % 2, 2.0, -2.0)
            (tmp_path / f"{name}.svm").write_text(serialize_libsvm(
                data.Dataset.from_dense(x, np.where(np.arange(n) % 2, 1, -1))))
        plan = parse_plan(f"""
dataset = file:{tmp_path / "train.svm"}
test = file:{tmp_path / "test.svm"}
kernel = gaussian:1.0
seed = 3
solver.sbp.kind = sbp
solver.sbp.nu = 0.1
solver.sbp.iters = 40
solver.peg.kind = pegasos
solver.peg.lambda = 0.01
solver.peg.iters = 40
solver.sdca.kind = sdca
solver.sdca.lambda = 0.01
solver.sdca.iters = 40
solver.perc.kind = perceptron
""")

        def outputs(out):
            result = run_plan(plan, out_dir=str(out))
            assert not result["failures"]
            files = {name: (out / name).read_bytes() for name in os.listdir(out)}
            dataset = load_dataset(plan.dataset)
            for s in plan.solvers:
                model, _ = train_solver(s.kind, s.params, dataset,
                                        kernel_from_spec(plan.kernel), plan.seed)
                files[s.name + ".model"] = serialize_model(model).encode()
            return dataset._dense is not None, files

        dense, with_copy = outputs(tmp_path / "dense")
        init = data.Dataset.__init__

        def without_copy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._dense = None

        monkeypatch.setattr(data.Dataset, "__init__", without_copy)
        patched, without = outputs(tmp_path / "csr")
        assert dense and not patched
        assert len(with_copy) == 4 + 1 + 4
        assert with_copy == without

    def test_solver_failure_recorded_not_fatal(self, tmp_path):
        # A contradictory point set makes the margin solver fail while the
        # regularized one still runs.
        plan_text = """
dataset = synthetic:two_gaussians:n=40,seed=0,separation=0.1,noise_rate=0.45
kernel = linear
repeat = 1
solver.sbp.kind = sbp
solver.sbp.nu = 0.0
solver.sbp.iters = 30
solver.sdca.kind = sdca
solver.sdca.lambda = 0.1
solver.sdca.iters = 30
"""
        result = run_plan(parse_plan(plan_text), out_dir=str(tmp_path))
        assert ("sdca", 0) in result["runs"]
        if result["failures"]:
            assert (tmp_path / "failures.txt").exists()


    def test_all_zero_diagonal_is_a_recorded_failure(self, tmp_path):
        # Label-only rows under the linear kernel leave SBP no step size, with
        # or without bias: each SBP run fails alone and the plan goes on.
        labels = tmp_path / "labels.txt"
        labels.write_text(LABEL_ONLY)
        plan = parse_plan(ZERO_DIAGONAL_PLAN.format(path=labels))
        out = tmp_path / "out"
        result = run_plan(plan, out_dir=str(out))
        assert sorted(result["runs"]) == [("peg", 0)]
        assert sorted(result["failures"]) == [("sbp", 0), ("sbpb", 0)]
        assert (out / "failures.txt").read_text().count("SolverError") == 2


@pytest.mark.parametrize("kind", sorted(SOLVER_KINDS))
def test_negative_seed_is_named_before_training(kind):
    kernel = LinearKernel()
    ds = generate(SyntheticSpec(kind="two_gaussians", n=20, seed=1))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        train_solver(kind, {}, ds, kernel, -1)
    assert kernel.eval_count == 0


@pytest.mark.parametrize("kind", sorted(SOLVER_KINDS))
def test_last_sample_counts_every_held_out_eval(kind):
    # eval_kernel_evals counts from the start of the run and is read after
    # the checkpoint is scored: the last sample of a run covers every
    # held-out evaluation the run made, and a second run that shares the
    # eval oracle records the same counts.
    train = generate(SyntheticSpec(kind="two_gaussians", n=60, seed=1))
    test = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=2))
    params = {} if kind == "perceptron" else {"iters": "40"}
    eval_kernel = LinearKernel()
    records = []
    for _ in range(2):
        before = eval_kernel.eval_count
        _, record = train_solver(kind, params, train, LinearKernel(), 0,
                                 test, eval_kernel)
        assert eval_kernel.eval_count > before
        assert record.samples[-1].eval_kernel_evals == eval_kernel.eval_count - before
        records.append(record)
    assert records[0].samples == records[1].samples


@pytest.mark.parametrize("kind", sorted(SOLVER_KINDS))
def test_held_out_scoring_builds_its_own_oracle(kind):
    # Given a held-out set and no eval_kernel, a run scores on a fresh oracle
    # of its kernel's spec: the same samples, held-out counts included, as
    # with one passed in. A spec that cannot be rebuilt fails before training.
    train = generate(SyntheticSpec(kind="two_gaussians", n=60, seed=1, noise_rate=0.1))
    test = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=2))
    params = {} if kind == "perceptron" else {"iters": "40"}
    spec = "gaussian:1.0"
    _, given = train_solver(kind, params, train, kernel_from_spec(spec), 0,
                            test, kernel_from_spec(spec))
    _, built = train_solver(kind, params, train, kernel_from_spec(spec), 0, test)
    assert built.samples == given.samples
    assert all(0.0 <= s.test_zero_one <= 1.0 for s in built.samples)

    class Unnamed(LinearKernel):
        spec_string = "unnamed"

    kernel = Unnamed()
    with pytest.raises(ValueError, match="unknown kernel spec 'unnamed'"):
        train_solver(kind, params, train, kernel, 0, test)
    assert kernel.eval_count == 0


# Every solver kind at its defaults, and once more with each flag it takes.
SETTINGS = [(kind, {}) for kind in SOLVER_KINDS] + [
    (kind, {key: "1"}) for kind, (_, _, table) in SOLVER_KINDS.items()
    for key in table if is_flag(kind, key)]


@pytest.mark.parametrize("kind, params", SETTINGS,
                         ids=["-".join((kind, *params)) for kind, params in SETTINGS])
def test_last_checkpoint_is_the_returned_model(kind, params):
    # The run CSV's last row describes the model the solver returns: its
    # held-out error and training cost exactly, its training hinge to
    # rounding (the solver's cached responses against a fresh product;
    # the Perceptron records none). train_solver runs the kind's train
    # function on the kind's config.
    def two_gaussians(n, seed):
        return generate(SyntheticSpec(kind="two_gaussians", n=n, seed=seed,
                                      noise_rate=0.1))

    train, test = two_gaussians(400, 1), two_gaussians(300, 2)
    steps = train.n if kind == "perceptron" else 300
    if kind != "perceptron":
        params = {**params, "iters": str(steps)}
    model, record = train_solver(kind, params, train, kernel_from_spec("gaussian:1.0"),
                                 0, test, kernel_from_spec("gaussian:1.0"))
    last = record.samples[-1]
    assert last.iteration == steps
    _, direct = getattr(bench, SOLVER_KINDS[kind][1])(
        train, kernel_from_spec("gaussian:1.0"), solver_config(kind, params, 0, train.n),
        test, kernel_from_spec("gaussian:1.0"))
    np.testing.assert_equal(direct.samples, record.samples)
    assert last.train_kernel_evals == model.kernel_evals
    k = kernel_from_spec("gaussian:1.0")
    assert last.test_zero_one == evaluate(model, test, k)[1]
    if kind == "perceptron":
        assert np.isnan(last.empirical_hinge)
    else:
        assert last.empirical_hinge == pytest.approx(evaluate(model, train, k)[0],
                                                     rel=1e-12)


def test_run_csv_schema(tmp_path):
    record = RunRecord(samples=[Sample(1, 100, 0, 0.5, 0.25, 0),
                                Sample(2, 200, 0, float("nan"), 0.125, 0)])
    path = tmp_path / "r.csv"
    write_run_csv(record, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,train_kernel_evals,eval_kernel_evals,"
                        "empirical_hinge,test_zero_one,wall_clock_ns")
    assert lines[1] == "1,100,0,0.5,0.25,0"
    assert lines[2].startswith("2,200,0,nan,0.125")


def _timed_column(path):
    """(every line of a run CSV without its last field, that field's values)."""
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",wall_clock_ns")
    return ([line.rsplit(",", 1)[0] for line in lines],
            [int(line.rsplit(",", 1)[1]) for line in lines[1:]])


def _assert_timing_adds_only_wall_clock(plain_csv, timed_csv):
    plain, zeros = _timed_column(plain_csv)
    timed, ns = _timed_column(timed_csv)
    assert timed == plain
    assert set(zeros) == {0}
    assert ns[0] > 0 and ns == sorted(ns)


def test_timing_adds_only_wall_clock(tmp_path):
    # Timing is opt-in: with it, wall_clock_ns is positive and non-decreasing
    # down the CSV and every other byte is the untimed run's.
    train = "synthetic:two_gaussians:n=60,seed=1,noise_rate=0.1"
    test = "synthetic:two_gaussians:n=40,seed=2"
    for out, flags in (("plain", ()), ("timed", ("--timing",))):
        assert cli.main(["train", train, "--test", test, "--iters", "100",
                         "--out", str(tmp_path / out), *flags]) == 0
    _assert_timing_adds_only_wall_clock(tmp_path / "plain" / "sbp_seed0.csv",
                                        tmp_path / "timed" / "sbp_seed0.csv")

    run_plan(parse_plan(PLAN), out_dir=str(tmp_path / "plan_plain"))
    run_plan(parse_plan(PLAN + "timing = 1\n"), out_dir=str(tmp_path / "plan_timed"))
    names = sorted(os.listdir(tmp_path / "plan_plain"))
    assert names == sorted(os.listdir(tmp_path / "plan_timed"))
    for name in names:
        plain, timed = tmp_path / "plan_plain" / name, tmp_path / "plan_timed" / name
        if name == "aggregate.csv":
            assert timed.read_bytes() == plain.read_bytes()
        else:
            _assert_timing_adds_only_wall_clock(plain, timed)


@pytest.mark.parametrize("value, text", [
    (np.float64(0.1), "0.1"), (float("nan"), "nan"), (-0.0, "-0.0"),
    (np.int64(3), "3")])
def test_fmt_writes_numbers_not_their_type(value, text):
    assert _fmt(value) == text


class TestCalibrateNu:
    def test_zero_loss_gives_zero_nu(self):
        ds = generate(SyntheticSpec(kind="margin_separable", n=60, dimension=2,
                                    seed=2, margin=0.5, radius=1.0))
        # Tiny lambda drives the regularized optimum to zero hinge loss.
        result = calibrate_nu(ds, LinearKernel(), lam=1e-4, budget=3 * 10**6)
        assert result.nu == pytest.approx(0.0, abs=1e-6)
        assert result.dual_gap < 1e-3

    def test_deterministic(self):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=50, seed=7,
                                    separation=2.0, noise_rate=0.05))
        a = calibrate_nu(ds, LinearKernel(), lam=0.02, budget=10**5, seed=1)
        b = calibrate_nu(ds, LinearKernel(), lam=0.02, budget=10**5, seed=1)
        assert a == b

    def test_budget_below_one_step_rejected(self):
        # One SDCA step costs a pair and a row, n + 1 evaluations.
        ds = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=0))
        for budget in (1, ds.n):
            with pytest.raises(ValueError, match="budget too small"):
                calibrate_nu(ds, LinearKernel(), lam=0.1, budget=budget)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lam": 0.0}, "lambda must be positive and finite, got 0.0"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"budget": 1000.5}, "must be at least 1 and an integer, got 1000.5"),
    ])
    def test_bad_argument_rejected_before_any_step(self, kwargs, message):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=0))
        kernel = LinearKernel()
        with pytest.raises(ValueError, match=message):
            calibrate_nu(ds, kernel, **{"lam": 0.1, "budget": 1000, **kwargs})
        assert kernel.eval_count == 0

    def test_huge_lambda_rejected(self):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=0))
        with pytest.raises(SolverError, match="lambda too large"):
            calibrate_nu(ds, LinearKernel(), lam=1e12, budget=10**5)

    def test_matches_grid_oracle(self):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=100, seed=3,
                                    separation=2.0, noise_rate=0.05))
        lam = 1.0 / ds.n
        result = calibrate_nu(ds, LinearKernel(), lam=lam, budget=2 * 10**6)
        from oracles import best_regularized_on_grid
        x = ds.matrix.toarray()
        w, _ = best_regularized_on_grid(x, ds.labels, lam, radius=8.0, steps=200)
        margins = ds.labels * (x @ w)
        hinge = float(np.maximum(0.0, 1.0 - margins).mean())
        norm = float(np.linalg.norm(w))
        assert result.nu == pytest.approx(hinge / norm, rel=0.1)


class TestFourierPlan:
    def make_sets(self):
        train = generate(SyntheticSpec(kind="xor_ring", n=120, seed=0))
        test = generate(SyntheticSpec(kind="xor_ring", n=120, seed=1))
        return train, test

    def test_cost_doubles_with_k(self):
        train, test = self.make_sets()
        csv_text = fourier_plan(train, 0.5, [4, 8], lam=0.01, iterations=100,
                                test_data=test, seed=0)
        rows = [ln.split(",") for ln in csv_text.splitlines()[1:]
                if ln.startswith("fourier")]
        costs = {int(r[1]): int(r[2]) for r in rows}
        assert costs[8] == 2 * costs[4]

    def test_empty_k_list_rejected(self):
        train, test = self.make_sets()
        with pytest.raises(ValueError):
            fourier_plan(train, 0.5, [], lam=0.01, iterations=10, test_data=test)

    @pytest.mark.parametrize("k_list,sigma_sq", [([4, 0], 0.5), ([4], 0.0)])
    def test_bad_k_or_width_fails_before_training(self, monkeypatch, k_list, sigma_sq):
        def reached(*args, **kwargs):
            raise AssertionError("trained past a bad k or width")

        monkeypatch.setattr(bench, "linearize", reached)
        train, test = self.make_sets()
        with pytest.raises(ValueError):
            fourier_plan(train, sigma_sq, k_list, lam=0.01, iterations=10, test_data=test)

    def test_large_k_approaches_kernel_solution(self):
        train, test = self.make_sets()
        # Exact-kernel reference: a long dual-coordinate run.
        from slacksvm.baselines import SdcaConfig, sdca_train
        from slacksvm.model import score_batch
        kernel = kernel_from_spec("gaussian:0.5")
        model, _ = sdca_train(train, kernel, SdcaConfig(lam=1.0 / train.n,
                                                        iterations=4000, seed=0))
        scores = score_batch(model, test, kernel_from_spec("gaussian:0.5"))
        ref_err = float(np.mean(test.labels * scores <= 0))

        csv_text = fourier_plan(train, 0.5, [256], lam=1.0 / train.n,
                                iterations=4000, test_data=test, seed=0)
        row = [ln for ln in csv_text.splitlines() if ln.startswith("fourier,256")][0]
        err = float(row.split(",")[3])
        assert err <= ref_err + 0.02


class TestCli:
    def run_cli(self, *args):
        # Under the RuntimeWarning filter pytest applies in-process, so that a
        # numpy warning on the way to a clean exit ends in a traceback here.
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "slacksvm.cli", *args],
                              capture_output=True, text=True)

    def test_usage_error_is_2(self):
        assert self.run_cli("train").returncode == 2
        assert self.run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize("args", [
        (),
        ("bench",),
        ("train", "x", "--solver", "nope"),
        ("train", "x", "--seed", "z"),
        ("calibrate-nu", "x", "--lambda", "abc"),
        ("fourier", "x"),
        ("train", "x", "--positive-class", "abc"),
        ("calibrate-nu", "x", "--lambda", "1", "--positive-class", "abc"),
    ])
    def test_usage_error_is_the_commands_usage_then_its_error(self, capsys, args):
        # argparse's own format: the usage block of the command that failed,
        # then one line "PROG: error: MESSAGE", on stderr alone.
        prog = " ".join(("slacksvm", *args[:1]))
        assert cli.main(list(args)) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == ""
        assert lines[0].startswith(f"usage: {prog} [-h]")
        assert all(line.startswith(" ") for line in lines[1:-1])
        assert lines[-1].startswith(f"{prog}: error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ("train", "/no/such/file"),
        ("calibrate-nu", "/no/such/file", "--lambda", "1"),
        ("fourier", "/no/such/file", "--test", "/no/such/file"),
    ])
    def test_bad_positive_class_is_2_before_the_data_is_read(self, capsys, args):
        assert cli.main([*args, "--positive-class", "abc"]) == 2
        err = capsys.readouterr().err
        assert "argument --positive-class: invalid float value: 'abc'" in err
        assert "No such file" not in err

    def test_data_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("+1 0:1\n")
        r = self.run_cli("train", str(bad))
        assert r.returncode == 3

    def test_missing_file_is_3(self):
        assert self.run_cli("train", "/no/such/file").returncode == 3

    def test_non_finite_feature_is_3(self, tmp_path):
        bad = tmp_path / "nan.txt"
        bad.write_text("+1 1:nan\n-1 1:1\n")
        r = self.run_cli("train", str(bad), "--out", str(tmp_path))
        assert r.returncode == 3
        assert "line 1" in r.stderr and "Traceback" not in r.stderr

    def test_non_finite_label_under_positive_class_is_3(self, tmp_path):
        bad = tmp_path / "nan_label.txt"
        bad.write_text("1 1:1\nnan 1:2\n")
        r = self.run_cli("train", str(bad), "--positive-class", "1",
                         "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "line 2: non-finite label 'nan'" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    def test_python_only_numeral_is_3(self, tmp_path):
        bad = tmp_path / "underscore.txt"
        bad.write_text("-1 1:1\n+1 1_0:2_5\n")
        r = self.run_cli("train", str(bad), "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "line 2: '_'" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    def test_overflowing_square_is_3(self, tmp_path):
        bad = tmp_path / "big.txt"
        bad.write_text("-1 1:1\n+1 1:1e200\n")
        r = self.run_cli("train", str(bad), "--out", str(tmp_path))
        assert r.returncode == 3
        assert "line 2" in r.stderr and "Traceback" not in r.stderr
        # The squared norm's overflow is the DataError alone, with no numpy
        # warning block above it.
        assert "RuntimeWarning" not in r.stderr

    @pytest.mark.parametrize("kernel", ["linear", "gaussian:1.0"])
    def test_norm_above_the_bound_is_3(self, tmp_path, kernel):
        # Each squared norm, 1e308, is finite, but the Gaussian's squared
        # distance between the rows would be inf - inf = nan.
        bad = tmp_path / "huge.txt"
        bad.write_text("+1 1:1e154\n-1 1:1e154\n")
        for solver in SOLVER_KINDS:
            r = self.run_cli("train", str(bad), "--solver", solver,
                             "--kernel", kernel, "--out", str(tmp_path / "out"))
            assert r.returncode == 3
            assert "line 1" in r.stderr and "Traceback" not in r.stderr
            assert "RuntimeWarning" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("index", ["1000000000000000", "99999999999999999999999",
                                       str(2**62), str(2**63 - 1)])
    def test_feature_index_above_the_format_is_3(self, tmp_path, index):
        # Before the bound these ended in a dense row of petabytes, an int64
        # overflow, or numpy's "array is too big" as a usage error.
        wide, fine = tmp_path / "wide.txt", tmp_path / "fine.txt"
        wide.write_text(f"+1 {index}:1\n-1 1:1\n")
        fine.write_text("+1 1:1\n-1 1:2\n")
        out = str(tmp_path / "out")
        runs = [("train", str(wide), "--out", out)]
        if index == "1000000000000000":
            runs += [("calibrate-nu", str(wide), "--lambda", "1"),
                     ("fourier", str(wide), "--test", str(fine), "--out", out),
                     ("fourier", str(fine), "--test", str(wide), "--out", out)]
        for args in runs:
            r = self.run_cli(*args)
            assert r.returncode == 3, args
            assert r.stderr.count("\n") == 1 and "line 1" in r.stderr, args

    # The last spec needs petabytes, more than any 64-bit address space
    # maps, so its allocation fails at once with a MemoryError.
    @pytest.mark.parametrize("spec", ["synthetic:two_gaussians:n=10,foo=1",
                                      "synthetic:nope",
                                      "synthetic:two_gaussians:n=ten",
                                      "synthetic:two_gaussians:n=10,seed=-1",
                                      "synthetic:two_gaussians:n=10,n=20",
                                      "synthetic:two_gaussians:n=1000000000000000"])
    def test_bad_synthetic_spec_is_3(self, tmp_path, spec):
        r = self.run_cli("train", spec, "--out", str(tmp_path))
        assert r.returncode == 3
        assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr

    def test_solver_error_is_4(self, tmp_path):
        contradiction = tmp_path / "c.txt"
        contradiction.write_text("+1 1:1\n-1 1:1\n")
        r = self.run_cli("train", str(contradiction), "--solver", "sbp",
                         "--nu", "0", "--iters", "20",
                         "--out", str(tmp_path))
        assert r.returncode == 4

    @pytest.mark.parametrize("flags", [(), ("--bias",)], ids=["no-bias", "bias"])
    def test_all_zero_diagonal_is_4(self, tmp_path, flags):
        labels = tmp_path / "labels.txt"
        labels.write_text(LABEL_ONLY)
        r = self.run_cli("train", str(labels), "--solver", "sbp", "--kernel", "linear",
                         *flags, "--out", str(tmp_path / "out"))
        assert r.returncode == 4
        assert r.stderr.startswith("slacksvm: solver error: ")
        assert r.stderr.count("\n") == 1

    def test_all_zero_diagonal_in_a_plan_is_4(self, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text(LABEL_ONLY)
        plan = tmp_path / "plan.txt"
        plan.write_text(ZERO_DIAGONAL_PLAN.format(path=labels))
        out = tmp_path / "bench"
        r = self.run_cli("bench", str(plan), "--out", str(out))
        assert r.returncode == 4
        assert "Traceback" not in r.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "failures.txt", "peg_seed0.csv"]

    def test_train_and_bench_end_to_end(self, tmp_path):
        r = self.run_cli("train", "synthetic:two_gaussians:n=40,seed=1,separation=3.0",
                         "--solver", "sbp", "--nu", "0.1", "--iters", "50",
                         "--out", str(tmp_path / "run"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "run" / "sbp_seed0.model").exists()
        assert (tmp_path / "run" / "sbp_seed0.csv").exists()

        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN)
        r = self.run_cli("bench", str(plan), "--out", str(tmp_path / "bench"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "bench" / "aggregate.csv").exists()

    def test_calibrate_and_fourier(self, tmp_path):
        ds = generate(SyntheticSpec(kind="two_gaussians", n=40, seed=2,
                                    separation=2.5))
        train_file = tmp_path / "train.txt"
        train_file.write_text(serialize_libsvm(ds))
        r = self.run_cli("calibrate-nu", str(train_file), "--lambda", "0.025",
                         "--budget", "100000")
        assert r.returncode == 0, r.stderr
        assert "nu:" in r.stdout

        test_file = tmp_path / "test.txt"
        test_file.write_text(serialize_libsvm(
            generate(SyntheticSpec(kind="two_gaussians", n=40, seed=3,
                                   separation=2.5))))
        r = self.run_cli("fourier", str(train_file), "--test", str(test_file),
                         "--kernel", "gaussian:1.0", "--k-list", "2,4",
                         "--iters", "50", "--out", str(tmp_path / "f"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "f" / "fourier.csv").exists()

    @pytest.mark.parametrize("flags", [("--solver", "pegasos", "--bias"),
                                       ("--solver", "perceptron", "--iters", "5"),
                                       ("--solver", "sbp", "--lambda", "0.1"),
                                       ("--solver", "sbp", "--nu", "abc")])
    def test_flag_the_solver_does_not_take_is_2(self, tmp_path, flags):
        out = tmp_path / "out"
        r = self.run_cli("train", "synthetic:two_gaussians:n=20,seed=1",
                         *flags, "--out", str(out))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and "error" in r.stderr
        assert not out.exists()

    def test_flag_of_every_solver_parameter(self, tmp_path):
        # The flags come from SOLVER_KINDS: --passes reaches the Perceptron
        # and writes what train_solver does with the same plan key.
        out = tmp_path / "out"
        r = self.run_cli("train", "synthetic:two_gaussians:n=30,seed=1",
                         "--solver", "perceptron", "--kernel", "gaussian:1.0",
                         "--passes", "2", "--out", str(out))
        assert r.returncode == 0, r.stderr
        dataset = load_dataset("synthetic:two_gaussians:n=30,seed=1")
        model, _ = train_solver("perceptron", {"passes": "2"}, dataset,
                                kernel_from_spec("gaussian:1.0"), 0)
        save_model(model, tmp_path / "want.model")
        assert ((out / "perceptron_seed0.model").read_bytes()
                == (tmp_path / "want.model").read_bytes())
        r = self.run_cli("train", "synthetic:two_gaussians:n=30,seed=1",
                         "--solver", "sbp", "--passes", "2", "--out", str(out))
        assert r.returncode == 2 and "passes" in r.stderr

    def test_plan_typo_is_2(self, tmp_path):
        # The plan is read whole before any data or output: a bad kernel spec
        # or a key set twice stops it like a typo, naming its line.
        plan = tmp_path / "plan.txt"
        for text, line in ((PLAN + "solver.sbp.itres = 7\n", 16),
                           (PLAN.replace("kernel = linear", "kernel = rbf"), 5),
                           (PLAN.replace("kernel = linear", "kernel = gaussian:-1"), 5),
                           (PLAN + "kernel = gaussian:1\n", 16)):
            plan.write_text(text)
            r = self.run_cli("bench", str(plan), "--out", str(tmp_path / "bench"))
            assert r.returncode == 2
            assert f"line {line}" in r.stderr and "Traceback" not in r.stderr
            assert not (tmp_path / "bench").exists()

    def test_failed_run_is_4_after_the_other_runs(self, tmp_path):
        # A run whose solver fails fails alone: the other runs, the aggregate
        # and failures.txt are written, and then bench exits with the solver
        # code. Pegasos's step 1/lambda overflows at lambda = 1e-320.
        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN.replace("solver.peg.lambda = 0.0125",
                                     "solver.peg.lambda = 1e-320"))
        out = tmp_path / "bench"
        r = self.run_cli("bench", str(plan), "--out", str(out))
        assert r.returncode == 4
        assert "failed: peg seed=10" in r.stderr and "Traceback" not in r.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "failures.txt",
            "sbp_seed10.csv", "sbp_seed11.csv", "sbp_seed12.csv"]
        assert (out / "failures.txt").read_text() == "".join(
            f"peg seed={seed} SolverError: non-finite step inf\n"
            for seed in (10, 11, 12))

    def test_non_finite_model_is_4(self, tmp_path):
        # Pegasos's step 1/lambda overflows: the model would hold inf, so the
        # response update refuses the step before it takes a row. train
        # writes nothing; bench lists the run as failed.
        spec = "synthetic:two_gaussians:n=20,seed=1"
        r = self.run_cli("train", spec, "--solver", "pegasos", "--lambda", "1e-320",
                         "--iters", "3", "--out", str(tmp_path / "out"))
        assert r.returncode == 4
        assert r.stderr == "slacksvm: solver error: non-finite step inf\n"
        assert not (tmp_path / "out").exists()
        plan = tmp_path / "plan.txt"
        plan.write_text(f"dataset = {spec}\nkernel = linear\n"
                        "solver.peg.kind = pegasos\nsolver.peg.lambda = 1e-320\n"
                        "solver.peg.iters = 3\n")
        r = self.run_cli("bench", str(plan), "--out", str(tmp_path / "bench"))
        assert r.returncode == 4
        assert (tmp_path / "bench" / "failures.txt").read_text() == (
            "peg seed=0 SolverError: non-finite step inf\n")

    def test_non_finite_step_on_a_zero_kernel_value_is_4(self, tmp_path):
        # Rows 0 and 1 share no feature: their linear kernel value is 0, and
        # 0 times the infinite step 1/lambda would be nan, which numpy warns
        # of. The step is refused before the row is taken: one line, exit 4.
        f = tmp_path / "d.txt"
        f.write_text("+1 1:1\n-1 2:1\n+1 1:2\n")
        r = self.run_cli("train", str(f), "--solver", "pegasos", "--lambda", "1e-320",
                         "--out", str(tmp_path / "out"))
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "slacksvm: solver error: non-finite step inf\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_responses_are_4(self, tmp_path, capsys):
        # A finite but huge step, 1/lambda = 1e308, overflows the responses
        # to inf, which numpy warns of: the checkpoint's training margins are
        # then not finite, so the run fails and writes no model.
        text = "+1 1:1\n-1 1:3\n+1 1:2\n"
        with pytest.warns(RuntimeWarning), pytest.raises(
                SolverError, match="^non-finite model at iteration 1$"):
            pegasos_train(data.parse_libsvm(text), LinearKernel(),
                          PegasosConfig(lam=1e-308, iterations=20))
        f = tmp_path / "d.txt"
        f.write_text(text)
        with pytest.warns(RuntimeWarning):
            code = cli.main(["train", str(f), "--solver", "pegasos", "--lambda", "1e-308",
                             "--kernel", "linear", "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == (
            "slacksvm: solver error: non-finite model at iteration 1\n")
        assert not (tmp_path / "out").exists()

    def test_fourier_rejects_linear_kernel(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("+1 1:1\n-1 1:-1\n")
        r = self.run_cli("fourier", str(f), "--test", str(f),
                         "--kernel", "linear")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["train", "calibrate-nu", "fourier"])
    def test_negative_seed_is_2_naming_it(self, tmp_path, command):
        spec = "synthetic:two_gaussians:n=20,seed=1"
        extra = {"train": ("--out", str(tmp_path / "out")),
                 "calibrate-nu": ("--lambda", "0.1"),
                 "fourier": ("--test", spec, "--out", str(tmp_path / "out"))}[command]
        r = self.run_cli(command, spec, "--seed", "-1", *extra)
        assert r.returncode == 2
        assert r.stderr == "slacksvm: error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_negative_plan_seed_is_2_naming_it(self, tmp_path):
        # Refused with the plan, before its (missing) data is read.
        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN.replace("seed = 10", "seed = -1").replace(
            "synthetic:two_gaussians:n=80,dimension=2,seed=5,separation=3.0",
            str(tmp_path / "missing.svm")))
        out = tmp_path / "bench"
        r = self.run_cli("bench", str(plan), "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == "slacksvm: error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("solver.sbp.nu = 0.1", "solver.sbp.nu = -1",
         "plan line 11: solver sbp: nu must be non-negative and finite, got -1.0"),
        ("solver.sbp.iters = 60", "solver.sbp.iters = 0",
         "plan line 12: solver sbp: iterations must be at least 1 and an integer, got 0"),
        ("solver.peg.lambda = 0.0125", "solver.peg.lambda = inf",
         "plan line 14: solver peg: lambda must be positive and finite, got inf"),
    ])
    def test_plan_value_out_of_range_is_2_before_the_data_is_read(
            self, tmp_path, capsys, old, new, message):
        # A missing data file would exit 3; train checks the same value as
        # a usage error before its data too.
        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN.replace(old, new).replace(
            "synthetic:two_gaussians:n=80,dimension=2,seed=5,separation=3.0",
            str(tmp_path / "missing.svm")))
        out = tmp_path / "bench"
        assert cli.main(["bench", str(plan), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"slacksvm: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "calibrate-nu", "fourier", "bench"])
    def test_non_finite_positive_class_is_2(self, tmp_path, capsys, command, value):
        # It would map every label to -1; refused before the first line is read.
        data_file = tmp_path / "m.svm"
        data_file.write_text("1 1:1\n3 1:2\n7 1:3\n")
        out = tmp_path / "out"
        if command == "bench":
            plan = tmp_path / "plan.txt"
            plan.write_text(f"dataset = {data_file}\nkernel = linear\nout = {out}\n"
                            f"positive_class = {value}\nsolver.sbp.iters = 5\n")
            args = ["bench", str(plan)]
        else:
            extra = {"train": ("--out", str(out)), "calibrate-nu": ("--lambda", "0.1"),
                     "fourier": ("--test", str(data_file), "--out", str(out))}[command]
            args = [command, str(data_file), "--positive-class", value, *extra]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            f"slacksvm: error: positive_class must be finite, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "calibrate-nu", "fourier", "bench"])
    def test_positive_class_matching_no_label_is_3(self, tmp_path, capsys, command):
        # It would map every label to -1: a one-class dataset.
        data_file = tmp_path / "m.svm"
        data_file.write_text("1 1:1\n3 1:2\n7 1:3\n")
        out = tmp_path / "out"
        if command == "bench":
            plan = tmp_path / "plan.txt"
            plan.write_text(f"dataset = {data_file}\nkernel = linear\nout = {out}\n"
                            "positive_class = 5\nsolver.sbp.iters = 5\n")
            args = ["bench", str(plan)]
        else:
            extra = {"train": ("--out", str(out)), "calibrate-nu": ("--lambda", "0.1"),
                     "fourier": ("--test", str(data_file), "--out", str(out))}[command]
            args = [command, str(data_file), "--positive-class", "5", *extra]
        assert cli.main(args) == 3
        assert capsys.readouterr().err == (
            "slacksvm: data error: positive_class 5.0 matches no label\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_positive_class_with_a_synthetic_spec_is_2(self, tmp_path, capsys, command):
        spec = "synthetic:two_gaussians:n=20,seed=1"
        out = tmp_path / "out"
        if command == "bench":
            plan = tmp_path / "plan.txt"
            plan.write_text(f"dataset = {spec}\nkernel = linear\nout = {out}\n"
                            "positive_class = 1\nsolver.sbp.iters = 5\n")
            args = ["bench", str(plan)]
        else:
            args = ["train", spec, "--positive-class", "1", "--out", str(out)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            f"slacksvm: error: positive_class applies to LIBSVM files, not to {spec!r}\n")
        assert not out.exists()

    def test_slack_budget_overflow(self, tmp_path, capsys):
        # n * nu needs the data: train stops with a usage error; bench lists
        # the run as failed and writes the other runs.
        spec = "synthetic:two_gaussians:n=20,seed=1"
        message = "nu = 1e+308 times n = 20 overflows the slack budget"
        assert cli.main(["train", spec, "--nu", "1e308", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"slacksvm: error: {message}\n"
        assert not (tmp_path / "out").exists()
        plan = tmp_path / "plan.txt"
        plan.write_text(f"dataset = {spec}\nkernel = linear\nsolver.sbp.nu = 1e308\n"
                        "solver.sdca.iters = 5\n")
        out = tmp_path / "bench"
        assert cli.main(["bench", str(plan), "--out", str(out)]) == 4
        assert (out / "failures.txt").read_text() == f"sbp seed=0 ValueError: {message}\n"
        assert (out / "sdca_seed0.csv").exists()

    @pytest.mark.parametrize("args", [
        ("train", "--kernel", "gaussian:inf"),
        ("train", "--kernel", "gaussian:1e999"),
        ("train", "--kernel", "gaussian:nan"),
        ("train", "--kernel", "gaussian:1e-320"),
        ("train", "--solver", "pegasos", "--lambda", "inf"),
        ("train", "--solver", "sdca", "--lambda", "nan"),
        ("train", "--solver", "sbp", "--nu", "inf"),
        ("calibrate-nu", "--lambda", "inf"),
        ("fourier", "--kernel", "gaussian:0"),
        ("fourier", "--kernel", "gaussian:inf"),
        ("fourier", "--kernel", "gaussian:1e-320"),
    ])
    def test_parameter_out_of_range_is_2(self, tmp_path, args):
        # Rejected where it is read, before any training or output: a
        # Gaussian of infinite width would be a constant kernel, one whose
        # factor -0.5 / sigma^2 overflows would make K(x, x) nan, nu = inf
        # would fail only inside the water level, and fourier reads the
        # width as train does.
        f = tmp_path / "d.txt"
        f.write_text("+1 1:1\n-1 1:-1\n")
        command, *flags = args
        extra = ("--test", str(f)) if command == "fourier" else ()
        out = ("--out", str(tmp_path / "out")) if command != "calibrate-nu" else ()
        r = self.run_cli(command, str(f), *flags, *extra, *out)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and "error" in r.stderr
        assert "requires a Gaussian kernel" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_directory_for_a_file_is_3(self, tmp_path, command):
        r = self.run_cli(command, str(tmp_path), "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr and "data error" in r.stderr

    def test_out_naming_a_file_is_3(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        r = self.run_cli("train", "synthetic:two_gaussians:n=20,seed=1",
                         "--iters", "5", "--out", str(taken))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr and "data error" in r.stderr

    @pytest.mark.parametrize("command", ["train", "fourier"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub", ""])
    def test_out_naming_a_file_stops_before_any_work(self, tmp_path, monkeypatch,
                                                     capsys, command, out):
        # Refused before the data is read, so before any solver runs; the
        # file is left as it was. An empty path names no directory at all.
        taken = tmp_path / "taken"
        taken.write_text("kept")

        def reached(*args, **kwargs):
            raise AssertionError("ran past a bad --out")

        for name in ("load_dataset", "train_solver", "fourier_plan"):
            monkeypatch.setattr(cli, name, reached)
        spec = "synthetic:two_gaussians:n=20,seed=1"
        extra = ("--test", spec) if command == "fourier" else ()
        out_arg = str(tmp_path / out) if out else ""
        assert cli.main([command, spec, *extra, "--out", out_arg]) == 3
        assert "data error" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("args", [
        ("calibrate-nu", "--kernel", "rbf", "--lambda", "1"),
        ("calibrate-nu", "--lambda", "-1"),
        ("calibrate-nu", "--lambda", "1", "--seed", "-1"),
        ("calibrate-nu", "--lambda", "1", "--budget", "0"),
        ("fourier", "--k-list", "a,b"),
        ("fourier", "--k-list", ","),
        ("fourier", "--k-list", "4,0"),
        ("fourier", "--iters", "0"),
        ("fourier", "--lambda", "-1"),
        ("fourier", "--seed", "-1"),
        ("train", "--seed", "-1"),
        ("train", "--iters", "0"),
        ("train", "--solver", "pegasos", "--lambda", "-1"),
    ])
    def test_usage_error_stops_before_the_data_is_read(self, tmp_path, monkeypatch,
                                                        capsys, args):
        # A missing data file would exit 3; the usage error is found first.
        def reached(*_args, **_kwargs):
            raise AssertionError("read the data past a usage error")

        monkeypatch.setattr(cli, "load_dataset", reached)
        command, *flags = args
        missing = str(tmp_path / "missing.svm")
        extra = (("--test", missing, "--out", str(tmp_path / "out"))
                 if command == "fourier" else ())
        assert cli.main([command, missing, *flags, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("slacksvm: error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub", ""])
    def test_bench_out_under_a_file_is_3_before_the_data_is_read(self, tmp_path, out):
        # The plan's data file is missing too; the output path is named.
        taken = tmp_path / "taken"
        taken.write_text("kept")
        plan = tmp_path / "plan.txt"
        plan.write_text(f"dataset = file:{tmp_path / 'missing.svm'}\nkernel = linear\n"
                        "solver.sdca.kind = sdca\n")
        r = self.run_cli("bench", str(plan), "--out", str(tmp_path / out) if out else "")
        assert r.returncode == 3
        named = str(taken) if out else "No such file or directory: ''"
        assert named in r.stderr and "missing.svm" not in r.stderr
        assert "Traceback" not in r.stderr and taken.read_text() == "kept"

    def test_bench_plan_out_empty_is_3_before_the_data_is_read(self, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text(f"dataset = file:{tmp_path / 'missing.svm'}\nkernel = linear\n"
                        "out =\nsolver.sdca.kind = sdca\n")
        r = self.run_cli("bench", str(plan))
        assert r.returncode == 3
        assert "No such file or directory: ''" in r.stderr
        assert "missing.svm" not in r.stderr and "Traceback" not in r.stderr

    def test_bench_makes_no_directory_when_its_data_fails(self, tmp_path):
        plan = tmp_path / "plan.txt"
        out = tmp_path / "made_anyway"
        plan.write_text(f"dataset = file:{tmp_path / 'missing.svm'}\nkernel = linear\n"
                        f"out = {out}\n"
                        "solver.sdca.kind = sdca\nsolver.sdca.iters = 5\n")
        r = self.run_cli("bench", str(plan))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr and "data error" in r.stderr
        assert not out.exists()

    def test_data_file_not_utf8_is_3(self, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"+1 1:1 # caf\xe9\n-1 1:-1\n")
        r = self.run_cli("train", str(bad), "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr and "data error" in r.stderr
