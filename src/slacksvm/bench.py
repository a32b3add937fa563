"""Benchmark harness: plan files, per-run/aggregate CSVs, nu calibration,
and the linearized-features cost comparison.

CSV bytes are deterministic: fixed column order, shortest round-trip float
formatting, LF line endings, runs keyed and sorted by (solver, seed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import (PegasosConfig, PerceptronConfig, SdcaConfig, _sdca_steps,
                        pegasos_train, perceptron_train, sdca_dual_value,
                        sdca_train)
from .data import (DataError, Dataset, SyntheticSpec, generate, hinge_loss,
                   parse_libsvm)
from .fourier import linearize, make_fourier_map
from .kernels import kernel_from_spec
from .model import SolverError, evaluate
from .recording import RunRecord, Sample, check_lam, check_seed
from .sbp import SbpConfig, sbp_train

RUN_CSV_COLUMNS = Sample._fields


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, numpy's included (their own
    repr names the type), and plain decimal otherwise."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_run_csv(record: RunRecord, path) -> None:
    lines = [",".join(RUN_CSV_COLUMNS)]
    lines.extend(",".join(map(_fmt, sample)) for sample in record.samples)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _flag(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


# Every solver kind: its config class, the name of its train function, and
# its parameters as plan key -> (config field, reader, default). The train
# function is looked up in this module's globals at call time, so a tracer
# that patches the module attribute sees every run. A default of None
# stands for 1/n.
SOLVER_KINDS = {
    "sbp": (SbpConfig, "sbp_train", {
        "nu": ("nu", float, 0.1),
        "iters": ("iterations", int, 1000),
        "bias": ("use_bias", _flag, False),
    }),
    "pegasos": (PegasosConfig, "pegasos_train", {
        "lambda": ("lam", float, None),
        "iters": ("iterations", int, 1000),
        "average": ("average", _flag, False),
    }),
    "sdca": (SdcaConfig, "sdca_train", {
        "lambda": ("lam", float, None),
        "iters": ("iterations", int, 1000),
    }),
    "perceptron": (PerceptronConfig, "perceptron_train", {
        "passes": ("passes", int, 1),
    }),
}


def _solver_kind(kind: str):
    try:
        return SOLVER_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown solver kind {kind!r}") from None


def is_flag(kind: str, key: str) -> bool:
    """Whether parameter key of solver kind is a yes/no flag."""
    return _solver_kind(kind)[2][key][1] is _flag


def solver_config(kind: str, params: dict, seed: int, n: int):
    """The config of one solver of the given kind for a dataset of n rows:
    its params (plan key -> text) over the kind's defaults, 1/n where the
    default is None. An unknown kind or key, an unreadable value or a value
    out of range raises ValueError. Only the 1/n defaults depend on n, and
    they are valid for every n, so any n checks the seed and every given
    value."""
    config_cls, _, table = _solver_kind(kind)
    kwargs = {field_name: 1.0 / n if default is None else default
              for field_name, _, default in table.values()}
    for key, text in params.items():
        if key not in table:
            raise ValueError(f"solver kind {kind} takes no parameter {key!r} "
                             f"(it takes {', '.join(table)})")
        field_name, reader, _ = table[key]
        try:
            kwargs[field_name] = reader(text)
        except ValueError:
            raise ValueError(f"unreadable value {text!r} for {kind} "
                             f"parameter {key}") from None
    return config_cls(seed=seed, **kwargs)


def train_solver(kind: str, params: dict, dataset: Dataset, kernel, seed: int,
                 test_data: Dataset | None = None, eval_kernel=None,
                 timing: bool = False):
    """Train one solver of the given kind, its params (plan key -> text)
    over the kind's defaults; returns (TrainedModel, RunRecord). A bad
    config raises ValueError before any training (see solver_config).
    """
    config = solver_config(kind, params, seed, dataset.n)
    return globals()[SOLVER_KINDS[kind][1]](dataset, kernel, config, test_data,
                                            eval_kernel, timing)


@dataclass
class SolverSpec:
    name: str       # unique id within the plan, e.g. "sbp" or "sbp_small_nu"
    kind: str       # a key of SOLVER_KINDS
    params: dict = field(default_factory=dict)  # plan key -> value text


@dataclass
class BenchPlan:
    dataset: str                 # "[file:]PATH" or "synthetic:kind:k=v,..."
    kernel: str                  # kernel spec string
    solvers: list
    repeat: int = 1
    seed: int = 0
    test: str | None = None
    timing: bool = False
    out: str = "bench_out"
    positive_class: float | None = None

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be at least 1")
        check_seed(self.seed)
        if not self.solvers:
            raise ValueError("plan needs at least one solver")


# Top-level plan keys and their readers; the defaults are BenchPlan's. The
# kernel is read here, at parse time, so a bad spec stops the whole plan.
_PLAN_KEYS = {"dataset": str, "test": str, "repeat": int, "seed": int,
              "timing": _flag, "out": str, "positive_class": float,
              "kernel": lambda text: kernel_from_spec(text).spec_string}


def parse_plan(text: str) -> BenchPlan:
    """Parse the flat ``key = value`` plan format.

    Top-level keys are those of _PLAN_KEYS; ``solver.NAME.KEY = VALUE``
    entries set ``kind`` (default NAME) or a parameter of that kind (see
    SOLVER_KINDS) for a per-plan solver id NAME. An unknown key, a key set
    twice, an unreadable value or a solver value out of range raises
    ValueError naming its line; a bad seed or repeat raises it too.
    """
    top: dict = {}
    solver_params: dict = {}   # name -> {key: (value, lineno)}
    key_lines: dict = {}       # key -> the line that first set it
    # The first key set again, raised once every value has been read, so an
    # unreadable value is named before the repeat.
    twice = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"plan line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        first = key_lines.setdefault(key, lineno)
        if first != lineno and twice is None:
            twice = f"plan line {lineno}: {key} is already set on line {first}"
        if key.startswith("solver."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ValueError(f"plan line {lineno}: use solver.NAME.KEY")
            solver_params.setdefault(parts[1], {})[parts[2]] = (value, lineno)
        elif key in _PLAN_KEYS:
            try:
                top[key] = _PLAN_KEYS[key](value)
            except ValueError:
                raise ValueError(f"plan line {lineno}: unreadable value "
                                 f"{value!r} for {key}") from None
        else:
            raise ValueError(f"plan line {lineno}: unknown key {key!r}")

    solvers = []
    for name in sorted(solver_params):
        entries = solver_params[name]
        first_line = min(ln for _, ln in entries.values())
        kind, lineno = entries.pop("kind", (name, first_line))
        try:
            solver_config(kind, {}, 0, 1)
            for key, (value, lineno) in entries.items():
                solver_config(kind, {key: value}, 0, 1)
        except ValueError as exc:
            raise ValueError(f"plan line {lineno}: solver {name}: {exc}") from None
        params = {key: value for key, (value, _) in entries.items()}
        solvers.append(SolverSpec(name=name, kind=kind, params=params))
    if twice is not None:
        raise ValueError(twice)

    if "dataset" not in top or "kernel" not in top:
        raise ValueError("plan must set dataset and kernel")
    return BenchPlan(solvers=solvers, **top)


_SYNTHETIC_KEYS = frozenset(f.name for f in fields(SyntheticSpec)) - {"kind"}


def load_dataset(spec: str, positive_class=None) -> Dataset:
    """Resolve a ``synthetic:kind:k=v,...`` dataset spec, or read any other
    spec as the path of a LIBSVM file, ``file:`` optional. ``positive_class``
    maps a file's labels; with a synthetic spec it raises ValueError."""
    if spec.startswith("synthetic:"):
        if positive_class is not None:
            raise ValueError(f"positive_class applies to LIBSVM files, not to {spec!r}")
        rest = spec.split(":", 1)[1]
        kind, _, kvs = rest.partition(":")
        kwargs = {}
        if kvs:
            for item in kvs.split(","):
                k, _, v = item.partition("=")
                k = k.strip()
                if k not in _SYNTHETIC_KEYS:
                    raise DataError(f"unknown synthetic parameter {k!r} in {spec!r}")
                if k in kwargs:
                    raise DataError(f"synthetic parameter {k} given twice in {spec!r}")
                cast = int if k in ("n", "dimension", "seed") else float
                try:
                    value = cast(v)
                except ValueError:
                    raise DataError(f"unreadable value {v!r} for {k} in {spec!r}") from None
                if cast is float and not math.isfinite(value):
                    raise DataError(f"non-finite value {v!r} for {k} in {spec!r}")
                kwargs[k] = value
        if "n" not in kwargs:
            raise DataError(f"synthetic spec {spec!r} needs n")
        return generate(SyntheticSpec(kind=kind, **kwargs))
    with open(spec.removeprefix("file:")) as fh:
        return parse_libsvm(fh, positive_class=positive_class)


def run_plan(plan: BenchPlan, out_dir=None) -> dict:
    """Execute every (solver, seed) pair; write one CSV per run plus
    aggregate.csv with per-sample-index median/IQR of test error.

    Solver failures are recorded in failures.txt and do not abort the plan.
    Returns {"runs": {...}, "failures": {...}, "out_dir": path}.
    """
    dataset = load_dataset(plan.dataset, positive_class=plan.positive_class)
    test_data = (load_dataset(plan.test, positive_class=plan.positive_class)
                 if plan.test else None)
    out = out_dir if out_dir is not None else plan.out
    os.makedirs(out, exist_ok=True)  # after the data: a failed load leaves none

    runs: dict = {}
    failures: dict = {}
    for solver in plan.solvers:
        for r in range(plan.repeat):
            seed = plan.seed + r
            key = (solver.name, seed)
            try:
                _, record = train_solver(solver.kind, solver.params, dataset,
                                         kernel_from_spec(plan.kernel), seed,
                                         test_data, timing=plan.timing)
            except (SolverError, ValueError) as exc:
                failures[key] = f"{type(exc).__name__}: {exc}"
                continue
            runs[key] = record
            write_run_csv(record, os.path.join(out, f"{solver.name}_seed{seed}.csv"))

    _write_aggregate(runs, os.path.join(out, "aggregate.csv"))
    if failures:
        with open(os.path.join(out, "failures.txt"), "w", newline="\n") as fh:
            for key in sorted(failures):
                fh.write(f"{key[0]} seed={key[1]} {failures[key]}\n")
    return {"runs": runs, "failures": failures, "out_dir": out}


def _write_aggregate(runs: dict, path) -> None:
    """Per (solver, sample_index): median train cost, median and quartiles of
    test error across repeats. Sorted output keeps the bytes independent of
    run execution order."""
    by_solver: dict = {}
    for (name, _seed), record in runs.items():
        by_solver.setdefault(name, []).append(record)
    lines = ["solver,sample_index,median_train_kernel_evals,"
             "median_test_zero_one,q25_test_zero_one,q75_test_zero_one"]
    for name in sorted(by_solver):
        records = by_solver[name]
        depth = min(len(r.samples) for r in records)
        # (repeats, depth) arrays reduced along the repeats: each value is
        # the one a reduction of its column alone gives.
        evals = np.array([[s.train_kernel_evals for s in r.samples[:depth]]
                          for r in records], dtype=np.float64)
        errs = np.array([[s.test_zero_one for s in r.samples[:depth]]
                         for r in records], dtype=np.float64)
        columns = (np.median(evals, axis=0), np.median(errs, axis=0),
                   *np.quantile(errs, [0.25, 0.75], axis=0))
        for j, values in enumerate(zip(*columns)):
            lines.append(",".join((name, str(j), *map(_fmt, values))))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class NuCalibration:
    nu: float
    norm: float
    hinge: float
    dual_gap: float
    steps: int
    kernel_evals: int


def calibrate_nu(dataset: Dataset, kernel, lam: float, budget: int,
                 seed: int = 0) -> NuCalibration:
    """Derive the slack budget from a regularization weight.

    Runs the dual coordinate solver on the lambda-regularized objective
    until the next step would exceed the kernel-evaluation budget, then
    returns nu = L(w*) / ||w*|| for the approximate optimum, along with the
    primal-dual residual of the inner solve so calibration quality is
    visible.
    """
    check_lam(lam)
    check_seed(seed)
    if budget < dataset.n + 1:
        raise ValueError("budget too small for even one solver step")
    rng = np.random.default_rng(seed)
    n = dataset.n
    start = kernel.eval_count
    solver = _sdca_steps(dataset, kernel, lam, rng)
    for steps, (_, _, alpha, responses) in enumerate(solver, 1):
        if kernel.eval_count - start + n + 1 > budget:  # a pair and a row more
            break
    norm_sq = float(alpha @ responses)
    norm = math.sqrt(max(0.0, norm_sq))
    hinge = hinge_loss(responses)
    if norm <= 1e-8:
        # All-slack optimum: the box [0, 1/(lambda n)] pins w at ~0.
        raise SolverError("lambda too large for calibration")
    primal = lam * norm_sq / 2.0 + hinge
    dual = sdca_dual_value(alpha, responses, lam)
    gap = primal - dual
    return NuCalibration(nu=hinge / norm, norm=norm, hinge=hinge,
                         dual_gap=float(gap), steps=steps,
                         kernel_evals=kernel.eval_count - start)


def fourier_plan(dataset: Dataset, sigma_sq: float, k_list, lam: float,
                 iterations: int, test_data: Dataset, seed: int = 0) -> str:
    """CSV of linearized-feature training on a cost axis of d-dimensional
    inner products, the unit of one Gaussian kernel evaluation (thanks to
    cached self-norms).

    Every map and the solver's config are built first, so a bad k, width,
    lambda or iteration count fails before any training. Then for each k:
    linearize train and test sets (k inner products per example), train
    linear Pegasos on the features, report held-out error.
    """
    fmaps = [make_fourier_map(int(k), dataset.dimension, sigma_sq, seed) for k in k_list]
    if not fmaps:
        raise ValueError("k_list must be nonempty")
    config = PegasosConfig(lam=lam, iterations=iterations, seed=seed)

    lines = ["method,k,cost_inner_products,test_zero_one"]
    for fmap in fmaps:
        lin_train = linearize(fmap, dataset)
        lin_test = linearize(fmap, test_data)
        model, _ = pegasos_train(lin_train, kernel_from_spec("linear"), config)
        err = evaluate(model, lin_test, kernel_from_spec("linear"))[1]
        lines.append(",".join((
            "fourier", str(fmap.k),
            str(fmap.inner_product_count),
            _fmt(err),
        )))
    return "\n".join(lines) + "\n"
