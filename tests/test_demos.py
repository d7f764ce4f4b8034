"""Each demo under ``demos/`` runs as a script, exits 0 and prints the same
bytes on a second run: they walk through the public API end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_and_repeats(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                           cwd=str(ROOT), timeout=120) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout
    assert runs[0].stdout == runs[1].stdout
