"""Smoke tests for the command-line scripts under scripts/.

Each script runs in a subprocess against this checkout's sources, with
arguments small enough for the normal test run, so that an API change the
scripts depend on fails here instead of silently.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=300,
    )


def test_run_corpus_matches_expectations():
    proc = run_script("run_corpus.py")
    assert proc.returncode == 0, proc.stderr
    assert "all corpus verdicts match expectations" in proc.stdout.splitlines()


def test_estimate_drift_prints_sampled_depths():
    proc = run_script("estimate_drift.py", "--depth", "40", "--step", "10")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["10", "20", "30", "40"]
