#!/usr/bin/env python3
"""Write a fixed set of output files, to compare two source trees byte for byte.

Usage: python scripts/reference_outputs.py OUT_DIR

OUT_DIR receives 80 files:
- bench/: the 41 files of scripts/run_synthetic_bench.py;
- train/KERNEL/RUN/: the model, run CSV and stdout of `slacksvm train` with a
  held-out set, for six solver settings under the linear and the Gaussian
  kernel (12 runs, 36 files);
- calibrate/KERNEL.txt: the stdout of `slacksvm calibrate-nu` (2 files);
- fourier/fourier.csv: `slacksvm fourier` (1 file).

Paths printed by train are relative to OUT_DIR. The slacksvm package is the
one on PYTHONPATH, so running this with each tree's src directory and then
`diff -r` on the two directories checks that a change keeps every byte.
Exits 1 if any command fails.
"""

import contextlib
import io
import os
import subprocess
import sys

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
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run_synthetic_bench.py")
    if subprocess.run([sys.executable, script, os.path.join(out, "bench")],
                      stdout=subprocess.DEVNULL).returncode != 0:
        print("run_synthetic_bench.py failed", file=sys.stderr)
        return 1
    os.chdir(out)
    try:
        for name, spec in KERNELS.items():
            for run, flags in RUNS.items():
                run_dir = os.path.join("train", name, run)
                os.makedirs(run_dir, exist_ok=True)
                _cli(os.path.join(run_dir, "stdout.txt"), "train", TRAIN,
                     "--kernel", spec, "--test", TEST, *flags, "--out", run_dir)
            os.makedirs("calibrate", exist_ok=True)
            _cli(os.path.join("calibrate", f"{name}.txt"), "calibrate-nu", TRAIN,
                 "--kernel", spec, "--lambda", "0.01")
        _cli(None, "fourier", TRAIN, "--test", TEST, "--kernel", KERNELS["gaussian"],
             "--out", "fourier")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"wrote reference outputs to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
