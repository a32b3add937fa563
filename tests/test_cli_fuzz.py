"""Fuzzing of the command line: any LIBSVM text, train arguments and plan
file end in a documented exit code (0 ok, 2 usage, 3 data, 4 solver),
never in a traceback or a numpy warning; a plan refused with 2 or 3 leaves
no output directory."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm import cli

EXIT_CODES = {0, 2, 3, 4}


def mostly(good, bad):
    """good nine times in ten, and otherwise bad: most inputs then reach
    the solver, and each hostile value is tried among good ones."""
    return st.sampled_from([good] * 9 + [bad]).flatmap(lambda strategy: strategy)


_hostile_features = st.sampled_from(["1:", ":1", "1:x", "2:1e400", "x", "1:1:1", "0:1",
                                     "2147483648:1", "3:nan", "1:1e200", "1:1e-320"])
_features = st.lists(st.tuples(st.integers(1, 5), st.floats(-10, 10)),
                     unique_by=lambda f: f[0], max_size=3).map(
    lambda fs: [f"{i}:{v!r}" for i, v in sorted(fs)])
_labels = mostly(st.sampled_from(["+1", "-1", "1", "0"]),
                 st.sampled_from(["-1.0", "2", "3", "nan", "inf", "-1e999", "x", "+",
                                  "1_0", "#"]))
_lines = st.builds(lambda label, feats, bad, tail: " ".join([label, *feats, *bad]) + tail,
                   _labels, _features,
                   mostly(st.just([]), _hostile_features.map(lambda tok: [tok])),
                   st.sampled_from(["", "", "\r", " # note"]))
libsvm_text = st.lists(_lines, max_size=8).map(lambda ls: "\n".join(ls) + "\n")

_kernels = mostly(st.sampled_from(["linear", "gaussian:1.0"]),
                  st.sampled_from(["gaussian:0", "gaussian:x", "bogus"]))
_counts = mostly(st.sampled_from(["1", "3", "20"]), st.sampled_from(["0", "-1", "x", "2.5"]))
_solver_values = {
    "nu": mostly(st.sampled_from(["0", "0.1", "0.5"]), st.sampled_from(["-1", "nan", "1e308"])),
    "iters": _counts,
    "passes": _counts,
    "lambda": mostly(st.sampled_from(["0.1", "1"]), st.sampled_from(["0", "nan", "inf", "x"])),
    "bias": mostly(st.just("1"), st.sampled_from(["0", "yes", "x"])),
    "average": mostly(st.just("1"), st.sampled_from(["0", "x"])),
}
_solver_keys = {"sbp": ("nu", "iters", "bias"), "pegasos": ("lambda", "iters", "average"),
                "sdca": ("lambda", "iters"), "perceptron": ("passes",)}
_positive_class = st.sampled_from(["1", "3", "-1", "nan", "x"])


def run_main(args):
    """(exit code, stderr) of cli.main(args), stdout and stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def solver_params(draw, kind):
    """{key: value} for kind: mostly its own keys, once in a while another's."""
    keys = [key for key in _solver_keys[kind] if draw(st.booleans())]
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(list(_solver_values))))
    params = {key: draw(_solver_values[key]) for key in keys}
    params.setdefault("passes" if kind == "perceptron" else "iters", draw(_counts))
    return params


@st.composite
def train_args(draw):
    kind = draw(st.sampled_from(list(_solver_keys)))
    args = ["--solver", kind, "--kernel", draw(_kernels)]
    for key, value in solver_params(draw, kind).items():
        # A flag takes no value: given, it reads as "1".
        args += [f"--{key}"] if key in ("bias", "average") else [f"--{key}", value]
    if draw(st.booleans()):
        args += ["--positive-class", draw(_positive_class)]
    if draw(st.integers(0, 4)) == 0:
        args += ["--seed", draw(st.sampled_from(["3", "-1", "x"]))]
    return args


@given(libsvm_text, train_args(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_train_ends_in_an_exit_code(text, args, with_test):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.svm")
        with open(data, "w", newline="") as fh:
            fh.write(text)
        extra = ["--test", data] if with_test else []
        code, err = run_main(["train", data, *args, *extra,
                              "--out", os.path.join(tmp, "out")])
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err


@st.composite
def plan_text(draw):
    """A plan that names its data file {data}: mostly well-formed, with a
    few lines of any kind."""
    lines = [draw(mostly(st.sampled_from(["dataset = {data}",
                                          "dataset = synthetic:two_gaussians:n=8,seed=1"]),
                         st.sampled_from(["", "dataset = synthetic:bogus"]))),
             "kernel = " + draw(_kernels)]
    for kind in draw(st.lists(st.sampled_from(list(_solver_keys)), unique=True,
                              min_size=draw(mostly(st.just(1), st.just(0))), max_size=4)):
        # A NAME is a file name in the output directory; a/b is not one.
        name = draw(mostly(st.just(kind), st.just("a/b")))
        params = solver_params(draw, kind)
        if name != kind:
            params = {"kind": kind, **params}
        lines += [f"solver.{name}.{key} = {value}" for key, value in params.items()]
    lines += draw(mostly(st.just([]), st.lists(st.one_of(
        st.builds("repeat = {}".format, st.sampled_from(["2", "0", "x"])),
        st.builds("seed = {}".format, st.sampled_from(["7", "-1", "x"])),
        st.builds("positive_class = {}".format, _positive_class),
        st.builds("solver.{}.kind = {}".format, st.sampled_from(["s", "sbp", "a/b"]),
                  st.sampled_from(["sbp", "pegasos", "nope"])),
        st.sampled_from(["timing = 1", "test = {data}", "kernel = linear", "x", "= 1",
                         "solver.a = 1", "bogus = 1", "# comment", ""])),
        min_size=1, max_size=3)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@given(libsvm_text, plan_text())
@settings(max_examples=100, deadline=None)
def test_bench_ends_in_an_exit_code(text, plan):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.svm")
        with open(data, "w", newline="") as fh:
            fh.write(text)
        plan_path = os.path.join(tmp, "run.plan")
        with open(plan_path, "w") as fh:
            fh.write(plan.replace("{data}", data))
        out = os.path.join(tmp, "out")
        code, err = run_main(["bench", plan_path, "--out", out])
        # A usage or data error stops the plan before any run, so it writes
        # nothing: a run's own failure exits 4 and the others still run.
        made_out = os.path.exists(out)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    assert not (code in (2, 3) and made_out), (code, err)
