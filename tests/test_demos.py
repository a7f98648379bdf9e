"""Every script under demos/ runs to completion in a fresh interpreter.

The demos walk through the public API the way a reader would use it, so
each one must exit 0, print no traceback and finish within SECONDS.
"""
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SECONDS = 30.0


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = os.environ.copy()
    env.pop("QHEIS_TOL", None)
    path = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    start = time.monotonic()
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=env, cwd=tmp_path,
                            timeout=2 * SECONDS)
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert "Traceback" not in result.stdout
    assert elapsed < SECONDS
