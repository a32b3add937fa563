"""Command-line entry point.

Subcommands: train, bench, calibrate-nu, fourier. Exit codes: 0 success,
2 usage error, 3 data or file error, 4 solver error (for bench: a run's
solver failed, after every other run and failures.txt are written).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .bench import (SOLVER_KINDS, calibrate_nu, fourier_plan, is_flag, load_dataset,
                    parse_plan, run_plan, solver_config, train_solver, write_run_csv)
from .data import DataError
from .kernels import GaussianKernel, kernel_from_spec
from .model import SolverError, save_model
from .recording import check_count, check_lam, check_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _solver_keys() -> dict:
    """Each plan key of SOLVER_KINDS -> the kinds that take it, in table order."""
    keys: dict = {}
    for kind, (_, _, table) in SOLVER_KINDS.items():
        for key in table:
            keys.setdefault(key, []).append(kind)
    return keys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slacksvm", description="Kernel SVM solvers under kernel-evaluation budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one solver on one dataset")
    train.add_argument("data", help="training set (LIBSVM text) or dataset spec")
    train.add_argument("--solver", choices=tuple(SOLVER_KINDS), default="sbp")
    train.add_argument("--kernel", default="linear",
                       help="'linear' or 'gaussian:SIGMA2'")
    # One flag per solver parameter: read like the plan key of the same name,
    # with the same default; one the chosen solver does not take is a usage
    # error.
    for key, kinds in _solver_keys().items():
        field_name, _, default = SOLVER_KINDS[kinds[0]][2][key]
        help_text = f"{field_name} ({'/'.join(kinds)})"
        if is_flag(kinds[0], key):
            train.add_argument(f"--{key}", action="store_const", const="1",
                               help=help_text)
        else:
            shown = "1/n" if default is None else default
            train.add_argument(f"--{key}", help=f"{help_text}; default {shown}")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--test", metavar="FILE", default=None,
                       help="held-out set for test-error curves")
    train.add_argument("--positive-class", type=float, default=None, metavar="LABEL",
                       help="one-vs-rest mapping for non-binary labels")
    train.add_argument("--out", default=".", metavar="DIR")
    train.add_argument("--timing", action="store_true",
                       help="record wall-clock times (breaks byte-level determinism)")
    train.set_defaults(run=_cmd_train)

    bench = sub.add_parser("bench", help="run a benchmark plan file")
    bench.add_argument("plan", help="flat key-value plan file")
    bench.add_argument("--out", default=None, metavar="DIR",
                       help="override the plan's output directory")
    bench.set_defaults(run=_cmd_bench)

    cal = sub.add_parser("calibrate-nu",
                         help="derive a slack budget nu from a lambda")
    cal.add_argument("data")
    cal.add_argument("--kernel", default="linear")
    cal.add_argument("--lambda", dest="lam", type=float, required=True)
    cal.add_argument("--budget", type=int, default=10**6,
                     help="kernel-evaluation cap for the inner solve")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--positive-class", type=float, default=None, metavar="LABEL")
    cal.set_defaults(run=_cmd_calibrate)

    four = sub.add_parser("fourier",
                          help="feature-vs-kernel cost comparison CSV")
    four.add_argument("data")
    four.add_argument("--test", metavar="FILE", required=True)
    four.add_argument("--kernel", default="gaussian:1.0",
                      help="must be gaussian:SIGMA2")
    four.add_argument("--k-list", default="1,2,4,8,16,32,64,128",
                      help="comma-separated direction counts")
    four.add_argument("--lambda", dest="lam", type=float, default=None)
    four.add_argument("--iters", type=int, default=1000)
    four.add_argument("--seed", type=int, default=0)
    four.add_argument("--positive-class", type=float, default=None, metavar="LABEL")
    four.add_argument("--out", default=".", metavar="DIR")
    four.set_defaults(run=_cmd_fourier)
    return parser


def _check_out(path) -> None:
    """Raise FileNotFoundError if path is empty, or NotADirectoryError if
    path, or the nearest of its ancestors that exists, is not a directory:
    os.makedirs would fail there only after the whole run. Creates nothing."""
    if not path:  # its absolute path would be the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), head)


def _cmd_train(args) -> int:
    _check_out(args.out)
    kernel = kernel_from_spec(args.kernel)
    params = {key: getattr(args, key) for key in _solver_keys()
              if getattr(args, key) is not None}
    # Usage first: a config for any n checks the seed and every given flag;
    # only lambda's 1/n default needs the data.
    solver_config(args.solver, params, args.seed, 1)
    dataset = load_dataset(args.data, args.positive_class)
    test_data = load_dataset(args.test, args.positive_class) if args.test else None
    model, record = train_solver(args.solver, params, dataset, kernel, args.seed,
                                 test_data, timing=args.timing)

    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, f"{args.solver}_seed{args.seed}.model")
    csv_path = os.path.join(args.out, f"{args.solver}_seed{args.seed}.csv")
    save_model(model, model_path)
    write_run_csv(record, csv_path)
    print(f"model: {model_path}")
    print(f"run:   {csv_path}")
    print(f"kernel_evals: {kernel.eval_count}  support_size: {model.support_size}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.plan) as fh:
        plan = parse_plan(fh.read())
    _check_out(args.out if args.out is not None else plan.out)
    result = run_plan(plan, out_dir=args.out)
    print(f"wrote {len(result['runs'])} run CSVs to {result['out_dir']}")
    for (name, seed), msg in sorted(result["failures"].items()):
        print(f"failed: {name} seed={seed}: {msg}", file=sys.stderr)
    return EXIT_SOLVER if result["failures"] else EXIT_OK


def _cmd_calibrate(args) -> int:
    # Usage first: the data is read only for arguments that could run. The
    # budget's bound n + 1 needs the data, so calibrate_nu checks it.
    kernel = kernel_from_spec(args.kernel)
    check_lam(args.lam)
    check_seed(args.seed)
    check_count("--budget", args.budget)
    dataset = load_dataset(args.data, args.positive_class)
    result = calibrate_nu(dataset, kernel, args.lam, args.budget, seed=args.seed)
    print(f"nu: {result.nu!r}")
    print(f"norm: {result.norm!r}  hinge: {result.hinge!r}")
    print(f"dual_gap: {result.dual_gap!r}  steps: {result.steps}  "
          f"kernel_evals: {result.kernel_evals}")
    return EXIT_OK


def _cmd_fourier(args) -> int:
    _check_out(args.out)
    kernel = kernel_from_spec(args.kernel)
    if not isinstance(kernel, GaussianKernel):
        raise ValueError("fourier comparison requires a Gaussian kernel")
    try:
        k_list = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError("--k-list must be comma-separated integers") from None
    if not k_list or min(k_list) < 1:
        raise ValueError("--k-list must name at least one k, each at least 1")
    check_count("--iters", args.iters)
    if args.lam is not None:
        check_lam(args.lam)
    check_seed(args.seed)
    dataset = load_dataset(args.data, args.positive_class)
    test_data = load_dataset(args.test, args.positive_class)
    lam = args.lam if args.lam is not None else 1.0 / dataset.n
    csv_text = fourier_plan(dataset, kernel.sigma_sq, k_list, lam, args.iters,
                            test_data, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fourier.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.run(args)
    except (OSError, UnicodeDecodeError, DataError, MemoryError) as exc:
        # UnicodeDecodeError and DataError are ValueErrors: caught first.
        print(f"slacksvm: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"slacksvm: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"slacksvm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
