"""The benchmark's tracer wraps library functions by name; keep them there.

perfbench/tracing.py looks up each target as an attribute of its module or
class and patches the module-level aliases of it. Entering
``Tracer.installed()`` fails with a KeyError if a target is gone, and a
train function the plan dispatch reaches around the patched name records no
span.
"""

import os

import pytest

from slacksvm import bench
from slacksvm.data import Dataset, SyntheticSpec, generate
from slacksvm.kernels import kernel_from_spec

from oracles import serialize_libsvm

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

PLAN = """
dataset = synthetic:two_gaussians:n=40,seed=3,separation=2.0
test = file:{test}
kernel = gaussian:1.0

solver.sbp.kind = sbp
solver.sbp.iters = 20
solver.peg.kind = pegasos
solver.peg.iters = 20
solver.perc.kind = perceptron
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import tracing
    return tracing


def test_plan_run_records_one_span_per_train_function(tracing, tmp_path):
    test = tmp_path / "test.svm"
    test.write_text(serialize_libsvm(generate(
        SyntheticSpec(kind="two_gaussians", n=40, seed=4, separation=2.0))))
    plan = bench.parse_plan(PLAN.format(test=test))
    sparse = Dataset([0, 1, 2], [5, 900], [1.0, -2.0], [1, -1], dimension=1000)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = bench.run_plan(plan, out_dir=str(tmp_path / "out"))
        kernel_from_spec("linear").row(sparse, 0)
    # kernels.row.* of a traced plan count the Perceptron's scoring: the
    # kernels.row spans under it, one blocked product a block of examples
    # and one row a new mistake, spend exactly its training evaluations.
    row, perceptron = (tracer.names.index(name)
                       for name in ("kernels.row", "baselines.perceptron_train"))
    names, parents = list(tracer.span_name), list(tracer.span_parent)

    def under(span, ancestor):
        while span >= 0 and names[span] != ancestor:
            span = parents[span]
        return span >= 0

    spent = sum(work for span, work in enumerate(tracer.span_work)
                if names[span] == row and under(span, perceptron))
    (record,) = [r for (name, _), r in result["runs"].items() if name == "perc"]
    assert spent == record.samples[-1].train_kernel_evals > 0
    tracer.flush()
    assert not result["failures"]
    for name in ("sbp.sbp_train", "baselines.pegasos_train",
                 "baselines.perceptron_train"):
        assert tracer.stats[name].calls == 1, name
    assert tracer.stats["baselines.sdca_train"].calls == 0
    # Pegasos's span work is read from args[2].iterations: the config stays
    # the third positional argument.
    assert tracer.stats["baselines.pegasos_train"].work == 20
    # The water-level metrics read these spans: every SBP step takes its
    # level from find_gamma (the checkpoints add more find_gamma calls) and
    # draws its index by rejection. waterfill.support_set runs only when a
    # step's draws miss _MAX_REJECTIONS times; with this plan's seed and
    # slack volume (n * nu = 4) none does.
    assert tracer.stats["waterfill.support_set"].calls == 0
    assert tracer.stats["waterfill.find_gamma"].calls >= 20
    # The set-up metrics read these: the file is parsed once. No library
    # path reads Dataset.matrix: the plan's two dense datasets take their
    # products from their dense row-major copies through matmul, and the
    # sparse one's row reads its compact layout.
    assert tracer.stats["data.parse_libsvm"].calls == 1
    assert ("data.matrix", "bench.run_plan") not in tracer.nested_calls
    assert tracer.stats["data.matrix"].calls == 0
    # Nor does any path call KernelOracle.cross or model.score: held-out
    # scoring goes through model.score_batch. The library keeps these three
    # names only as tracer targets, and ROADMAP item 1 deletes them.
    assert tracer.stats["model.score_batch"].calls > 0
    assert tracer.stats["kernels.cross"].calls == 0
    assert tracer.stats["model.score"].calls == 0


def test_calibration_records_one_pair_span_per_sdca_step(tracing):
    # The calibrate workload's kernels.pair metrics read these spans: every
    # SDCA step takes its self-pair through kernels.pair, whose work is read
    # from args[0].eval_count, so the oracle stays the first argument.
    train = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=5, separation=2.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        cal = bench.calibrate_nu(train, kernel_from_spec("linear"), lam=3.0,
                                 budget=2000, seed=1)
    pair = tracer.names.index("kernels.pair")
    works = [w for name, w in zip(tracer.span_name, tracer.span_work) if name == pair]
    assert cal.steps > 1 and len(works) == cal.steps
    assert set(works) == {1}
    tracer.flush()
    assert tracer.stats["kernels.pair"].calls == cal.steps
    assert tracer.stats["bench.calibrate_nu"].calls == 1
