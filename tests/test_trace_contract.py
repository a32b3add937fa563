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

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

PLAN = """
dataset = synthetic:two_gaussians:n=40,seed=3,separation=2.0
test = synthetic:two_gaussians:n=40,seed=4,separation=2.0
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
    tracer = tracing.Tracer()
    with tracer.installed():
        result = bench.run_plan(bench.parse_plan(PLAN), out_dir=str(tmp_path))
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
    # covered set from waterfill.support_set and its level from find_gamma
    # (the checkpoints add more find_gamma calls).
    assert tracer.stats["waterfill.support_set"].calls == 20
    assert tracer.stats["waterfill.find_gamma"].calls >= 20
