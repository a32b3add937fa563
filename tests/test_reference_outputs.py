"""The byte contract: scripts/reference_outputs.py writes the bytes whose
SHA-256 hashes tests/reference_manifest.json records. A change that moves
any output byte on purpose commits the new manifest and says why; run
`python scripts/reference_outputs.py OUT_DIR` and copy OUT_DIR/manifest.json
over it. The part that does not depend on the host, every run CSV's
checkpoints and SBP's training counts, is checked on any host."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from slacksvm import bench
from slacksvm.recording import geometric_schedule

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, os.pardir, "scripts", "reference_outputs.py")
SRC = os.path.join(HERE, os.pardir, "src")


def _script():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def written(tmp_path_factory):
    """The directory scripts/reference_outputs.py wrote, once a session."""
    out = tmp_path_factory.mktemp("reference")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.abspath(SRC),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, SCRIPT, str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return out


def test_reference_outputs_keep_their_bytes(written):
    # Hashes hold only in the environment they were taken in: elsewhere the
    # test skips and names what differs, rather than pass or fail on bytes
    # that numpy's CPU dispatch may have moved.
    with open(os.path.join(HERE, "reference_manifest.json")) as fh:
        want = json.load(fh)
    here = _script().environment()
    moved = {key: (value, here.get(key)) for key, value in want["environment"].items()
             if here.get(key) != value}
    if moved:
        pytest.skip(f"manifest taken under another environment (recorded, here): {moved}")
    with open(written / "manifest.json") as fh:
        got = json.load(fh)["sha256"]
    differ = sorted(path for path in want["sha256"].keys() | got.keys()
                    if want["sha256"].get(path) != got.get(path))
    assert not differ, f"{len(differ)} reference files differ: {differ}"


def _steps_and_kinds(script, written):
    """{run CSV path: (its run's step count T, its training-set size n, its
    solver kind)} for every run CSV the script writes: the plan's runs under
    bench/, and the `train` runs of script.RUNS, whose directory's model
    header names n."""
    runs = {}
    with open(script.PLAN) as fh:
        plan = bench.parse_plan(fh.read())
    n = bench.load_dataset(plan.dataset).n
    for spec in plan.solvers:
        config = bench.solver_config(spec.kind, spec.params, plan.seed, n)
        steps = getattr(config, "iterations", None) or config.passes * n
        for r in range(plan.repeat):
            runs[written / "bench" / f"{spec.name}_seed{plan.seed + r}.csv"] = (steps, n, spec.kind)
    for model in written.glob("*/*/*/*.model"):
        with open(model) as fh:
            n = int(fh.readline().split()[0].removeprefix("n="))
        args = script.RUNS[model.parent.name]
        kind = args[args.index("--solver") + 1]
        steps = (int(args[args.index("--iters") + 1]) if "--iters" in args
                 else int(args[args.index("--passes") + 1]) * n)
        runs[model.with_suffix(".csv")] = (steps, n, kind)
    return runs


def test_run_csvs_keep_their_schedule_and_sbp_counts(written):
    # What does not depend on the host, checked wherever the hashes skip:
    # each run CSV samples the checkpoints of geometric_schedule(T), and
    # SBP spends n training evaluations before its first step and n a step.
    runs = _steps_and_kinds(_script(), written)
    # 40 plan runs and 12 + 8 + 12 `train` runs, as the script's docstring lists.
    assert len(runs) == 72
    for path, (steps, n, kind) in runs.items():
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        iterations = [int(row["iteration"]) for row in rows]
        assert iterations == sorted(geometric_schedule(steps)), path
        if kind == "sbp":
            assert [int(row["train_kernel_evals"]) for row in rows] == [
                (t + 1) * n for t in iterations], path


@pytest.mark.parametrize("run", ["sbp", "perceptron_passes2"])
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, run):
    # Dense rows and held-out blocks are BLAS calls, which OpenBLAS may split
    # over threads. 1000 training rows of dimension 10 make each row a gemv
    # of 10,000 entries, and 200 held-out rows make each block of 163 rows a
    # gemm of 326,000 multiply-adds, above OpenBLAS's thresholds for taking
    # more than one thread. `train --test` under gaussian:0.3 writes the same
    # model, run CSV and stdout with one thread and with two.
    script = _script()
    train = script.DENSE10_TRAIN.replace("n=300", "n=1000")
    written = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.abspath(SRC),
                                                          env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from slacksvm import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "train", train, "--kernel", "gaussian:0.3",
             "--test", script.DENSE10_TEST, *script.RUNS[run], "--out", "run"],
            cwd=cwd, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        files = {path.name: path.read_bytes() for path in (cwd / "run").iterdir()}
        written.append((files, done.stdout))
    assert len(written[0][0]) == 2
    assert written[0] == written[1]
