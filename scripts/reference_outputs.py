#!/usr/bin/env python3
"""Write a fixed set of output files, to compare two source trees byte for byte.

Usage: python scripts/reference_outputs.py OUT_DIR

OUT_DIR receives 142 files and their manifest:
- bench/: the 41 files of `slacksvm bench scripts/synthetic_bench.plan`;
- train/KERNEL/RUN/: the model, run CSV and stdout of `slacksvm train` with a
  held-out set, for six solver settings under the linear and the Gaussian
  kernel (12 runs, 36 files);
- calibrate/KERNEL.txt: the stdout of `slacksvm calibrate-nu` (2 files);
- fourier/fourier.csv: `slacksvm fourier` (1 file);
- sparse/train.txt and sparse/test.txt: a sparse LIBSVM pair drawn with numpy
  alone from a fixed seed (2 files);
- sparse/KERNEL/RUN/: as train/, on the sparse pair, for four solver settings
  under both kernels (8 runs, 24 files);
- dense10/KERNEL/RUN/: as train/, on dense data of dimension 10 under the
  linear kernel and gaussian:0.7, a width whose 2 sigma^2 is not a power of
  two (12 runs, 36 files);
- manifest.json: the SHA-256 of each file above, with environment(), the
  versions, BLAS and CPU features the bytes depend on.

The other dense files come from 2-D data. The sparse runs take their rows
through scipy's mat-vec and held-out scores through the sparse product;
dense rows and held-out blocks are numpy matmuls, which BLAS sums.

Paths printed by train are relative to OUT_DIR. The slacksvm package is the
one on PYTHONPATH, so running this with each tree's src directory and then
`diff -r` on the two directories checks that a change keeps every byte;
tests/test_reference_outputs.py checks a fresh set against the committed
tests/reference_manifest.json. Exits 1 if any command fails.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

import numpy as np
import scipy

from slacksvm import cli

TRAIN = "synthetic:two_gaussians:n=300,dimension=2,seed=1,separation=2.0,noise_rate=0.05"
TEST = "synthetic:two_gaussians:n=200,dimension=2,seed=2,separation=2.0,noise_rate=0.05"
KERNELS = {"linear": "linear", "gaussian": "gaussian:1.0"}
RUNS = {
    "sbp": ("--solver", "sbp", "--iters", "300"),
    "sbp_bias": ("--solver", "sbp", "--iters", "300", "--bias"),
    "pegasos": ("--solver", "pegasos", "--iters", "300"),
    "pegasos_average": ("--solver", "pegasos", "--iters", "300", "--average"),
    "sdca": ("--solver", "sdca", "--iters", "300"),
    "perceptron_passes2": ("--solver", "perceptron", "--passes", "2"),
}
SPARSE_RUNS = ("sbp", "sbp_bias", "pegasos", "perceptron_passes2")
DENSE10_TRAIN = "synthetic:two_gaussians:n=300,dimension=10,seed=3,separation=2.0,noise_rate=0.05"
DENSE10_TEST = "synthetic:two_gaussians:n=200,dimension=10,seed=4,separation=2.0,noise_rate=0.05"
DENSE10_KERNELS = {"linear": "linear", "gaussian0.7": "gaussian:0.7"}
PLAN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "synthetic_bench.plan")


def environment() -> dict:
    """The numpy and scipy versions, numpy's BLAS (name, version and
    configuration string), the machine and numpy's CPU features: numpy's
    exp, BLAS's kernels and scipy's compiled loops choose their code by
    them, so a manifest holds only where they match. A DYNAMIC_ARCH BLAS
    picks its kernels by CPU at run time, which the CPU features pin."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": [blas.get(key) for key in ("name", "version", "openblas configuration")],
            "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def write_manifest(directory) -> None:
    """Write directory/manifest.json: environment() and the SHA-256 of every
    other file under directory, by its '/'-separated relative path."""
    hashes = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            key = os.path.relpath(path, directory).replace(os.sep, "/")
            if key != "manifest.json":
                with open(path, "rb") as fh:
                    hashes[key] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {"environment": environment(), "sha256": dict(sorted(hashes.items()))}
    with open(os.path.join(directory, "manifest.json"), "w", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=1) + "\n")


def _write_sparse_pair(directory) -> tuple:
    """Write 300 training and 200 held-out LIBSVM rows of dimension 2000:
    the distinct features of 20 draws with Zipf frequencies a row (17 on
    average), unit-norm values, and labels from a sparse linear teacher with
    5% flipped. Returns the two paths."""
    rng = np.random.default_rng(20121)
    dimension = 2000
    frequency = 1.0 / np.arange(1, dimension + 1)
    frequency /= frequency.sum()
    teacher = np.zeros(dimension)
    teacher[:100] = rng.standard_normal(100)
    paths = []
    for name, n in (("train", 300), ("test", 200)):
        lines = []
        for _ in range(n):
            features = np.unique(rng.choice(dimension, size=20, p=frequency))
            values = rng.standard_normal(features.size)
            values /= np.linalg.norm(values)
            positive = (values @ teacher[features] >= 0.0) != (rng.random() < 0.05)
            # float(v)!r: the repr of a numpy float is not a LIBSVM number.
            lines.append(" ".join(["+1" if positive else "-1"] + [
                f"{f + 1}:{float(v)!r}" for f, v in zip(features, values)]))
        paths.append(os.path.join(directory, f"{name}.txt"))
        with open(paths[-1], "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return tuple(paths)


def _cli(stdout_path, *argv) -> None:
    """Run one slacksvm command in the current directory; its stdout goes to
    stdout_path. Raises RuntimeError on a nonzero exit."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"slacksvm {' '.join(argv)} exited {code}")
    if stdout_path is not None:
        with open(stdout_path, "w", newline="\n") as fh:
            fh.write(buffer.getvalue())


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = os.path.abspath(sys.argv[1])
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    os.makedirs("sparse", exist_ok=True)
    sparse_train, sparse_test = _write_sparse_pair("sparse")
    sets = (("train", KERNELS, TRAIN, TEST, RUNS),
            ("sparse", KERNELS, sparse_train, sparse_test, SPARSE_RUNS),
            ("dense10", DENSE10_KERNELS, DENSE10_TRAIN, DENSE10_TEST, RUNS))
    try:
        _cli(None, "bench", PLAN, "--out", "bench")
        for root, kernels, train, test, runs in sets:
            for name, spec in kernels.items():
                for run in runs:
                    run_dir = os.path.join(root, name, run)
                    os.makedirs(run_dir, exist_ok=True)
                    _cli(os.path.join(run_dir, "stdout.txt"), "train", train,
                         "--kernel", spec, "--test", test, *RUNS[run], "--out", run_dir)
        os.makedirs("calibrate", exist_ok=True)
        for name, spec in KERNELS.items():
            _cli(os.path.join("calibrate", f"{name}.txt"), "calibrate-nu", TRAIN,
                 "--kernel", spec, "--lambda", "0.01")
        _cli(None, "fourier", TRAIN, "--test", TEST, "--kernel", KERNELS["gaussian"],
             "--out", "fourier")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    write_manifest(out)
    print(f"wrote reference outputs to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
