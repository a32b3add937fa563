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
