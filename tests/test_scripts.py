"""Smoke tests of the example scripts: each runs in a fresh interpreter on a
small input and must exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("dk_degree_survey.py", ["--trials", "2"]),
    ("trace_reference_designs.py", ["--samples", "16", "--outdir", None]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = [str(tmp_path) if a is None else a for a in args]
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
