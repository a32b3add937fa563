"""The byte contract: scripts/reference_outputs.py writes the bytes whose
SHA-256 hashes tests/reference_manifest.json records. A change that moves
any output byte on purpose commits the new manifest and says why; run
`python scripts/reference_outputs.py OUT_DIR` and copy OUT_DIR/manifest.json
over it."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, os.pardir, "scripts", "reference_outputs.py")
SRC = os.path.join(HERE, os.pardir, "src")


def _script():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_outputs_keep_their_bytes(tmp_path):
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.abspath(SRC),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "manifest.json") as fh:
        got = json.load(fh)["sha256"]
    differ = sorted(path for path in want["sha256"].keys() | got.keys()
                    if want["sha256"].get(path) != got.get(path))
    assert not differ, f"{len(differ)} reference files differ: {differ}"


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
