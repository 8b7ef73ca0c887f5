"""Tests for the command-line scripts under scripts/.

Each script runs in a subprocess against this checkout's sources, with
arguments small enough for the normal test run, so that an API change the
scripts depend on fails here instead of silently.  The rows of
`estimate_drift.py`, which reads every depth off one walk, are checked
against a separate `intrinsic_radius` run at each sampled depth, and its
bad arguments must be refused before any row is printed.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nabla_radius.corpus import falling_factorial_valuation, power_module
from nabla_radius.padic import LogRadius
from nabla_radius.radius import intrinsic_radius, spectral_base_exponent

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


@pytest.mark.parametrize(
    "prime, a, depth, step",
    [
        (3, "1/2", "60", "6"),  # non-integer a; a step below 8 reads depth 8 first
        (5, "2/3", "40", "10"),
        (3, "12", "40", "3"),  # integer a: rows up to 12, then the vanishing row
        (3, "5", "20", "2"),  # integer a below 8: each row's depth-8 walk vanishes
    ],
)
def test_estimate_drift_rows_match_per_depth_walks(prime, a, depth, step):
    proc = run_script(
        "estimate_drift.py", "--prime", str(prime), "--a", a, "--depth", depth, "--step", step
    )
    assert proc.returncode == 0, proc.stderr
    module = power_module(prime, Fraction(a))
    expected = []
    for s in range(int(step), int(depth) + 1, int(step)):
        w = falling_factorial_valuation(Fraction(a), s, prime)
        if w is None:
            expected.append([str(s), "inf", "derivative", "vanished;", "radius", "exactly", "1"])
            break
        report = intrinsic_radius(module, (LogRadius.one(),), depth=max(s, 8))
        estimate = max(Fraction(0), spectral_base_exponent(prime) - Fraction(w, s))
        expected.append([str(s), str(w), str(Fraction(w, s)), str(estimate),
                         str(report.directions[0].point_estimate)])
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert rows == expected


@pytest.mark.parametrize(
    "args, message",
    [
        (["--depth", "700", "--step", "100"], "--depth 700 reads depth 600, past the cap 512"),
        (["--depth", "9" * 4000],
         "--depth 999999999999999999999999... (4000 characters) reads depth 525,"
         " past the cap 512"),
        (["--step", "0"], "--step must not be 0"),
        (["--step", "-5"], "--step must be positive and at most --depth"),
        (["--depth", "0"], "--step must be positive and at most --depth"),
        (["--depth", "10", "--step", "25"], "--step must be positive and at most --depth"),
        (["--prime", "4"], "--prime: not a prime: 4"),
        (["--a", "1/0"], "argument --a: malformed rational '1/0'"),
        (["--a", "1" * 100001],
         "argument --a: malformed rational '11111111111111111111111... (100003 characters)"),
    ],
    ids=["depth-past-cap", "depth-too-long", "step-zero", "step-negative", "depth-zero", "depth-below-step",
         "prime-4", "a-zero-denominator", "a-too-long"],
)
def test_estimate_drift_refuses_bad_arguments_before_printing(args, message):
    proc = run_script("estimate_drift.py", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"estimate_drift.py: error: {message}"
