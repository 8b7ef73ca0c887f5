"""Tests of the benchmark itself: generator, tracer, checks and contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

IMPORT_S = run.import_library()

from nabla_radius import connection, integrability_check, parse_module_descriptor  # noqa: E402
from nabla_radius.connection import PolyMatrix  # noqa: E402
from nabla_radius.laurent import LaurentPoly  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

# Small enough that every workload finishes in a few seconds, deep enough
# that each still drives the counters it is chosen for.
SMOKE_DEPTH = {"oc-deep": 24, "cutcheck-dense": 16, "taylor-wide": 8}


def _library_bindings() -> dict:
    """Every attribute of every nabla_radius module and traced class."""
    bindings = {}
    for name, module in sys.modules.items():
        if name == "nabla_radius" or name.startswith("nabla_radius."):
            bindings.update({(name, k): v for k, v in vars(module).items()})
    for cls in (LaurentPoly, PolyMatrix):
        bindings.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return bindings


def _shape(case: Case) -> list:
    """Sorted term counts and coefficient sizes of every matrix entry."""
    module = parse_module_descriptor(case.document).module
    return sorted(
        (len(entry.terms), sorted(abs(c) for c in entry.terms.values()))
        for N in module.matrices for row in N.rows for entry in row
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first, again, other = workload.cases(5), workload.cases(5), workload.cases(6)
    assert [c.document for c in first] == [c.document for c in again]
    assert first[0].document == other[0].document  # the anchor is seed-free
    assert [c.document for c in first[1:]] != [c.document for c in other[1:]]
    assert len({c.label for c in first + other}) == len(first) + len(other) - 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_variants_are_integrable_with_the_anchor_shape(name):
    cases = WORKLOADS[name].cases(3)
    for case in cases:
        module = parse_module_descriptor(case.document).module
        assert integrability_check(module) is None
        assert _shape(case) == _shape(cases[0])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in WORKLOADS.values():
        assert set(workload.drives + workload.idle) <= set(run.PER_LAYER)


def test_tracer_patches_every_by_name_copy_and_restores_them():
    originals = _library_bindings()
    traced = {connection.iter_deriv_matrices, connection.integrability_check}
    tracer = Tracer()
    tracer.install()
    try:
        during = _library_bindings()
        assert not [key for key, value in during.items() if any(value is f for f in traced)]
        assert during[("nabla_radius.radius", "iter_deriv_matrices")] is not \
            originals[("nabla_radius.radius", "iter_deriv_matrices")]
        assert during[("nabla_radius.laurent", "fraction_valuation")] is not \
            originals[("nabla_radius.laurent", "fraction_valuation")]
    finally:
        tracer.uninstall()
    after = _library_bindings()
    assert after.keys() == originals.keys()
    assert all(after[key] is originals[key] for key in originals)


def test_report_checks_reject_a_wrong_exit_code_and_digest():
    case = WORKLOADS["taylor-wide"].cases(0, depth=8)[0]
    with run.scratch_dir("test-") as directory:
        (path,), (digest,) = run.write_cases([case], directory)
        outcome = run.run_cli([*case.argv, path])
    assert run.report_error(case, digest, outcome, "taylor") is None
    wrong_exit = dataclasses.replace(outcome, code=outcome.code ^ 1)
    assert "does not match verdict" in run.report_error(case, digest, wrong_exit, "taylor")
    assert "descriptor_sha256" in run.report_error(case, "0" * 64, outcome, "taylor")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct_and_leaves_the_library_unpatched(name, trace):
    before = _library_bindings()
    result = run.run_workload(WORKLOADS[name], seed=1, seconds=0, trace=trace,
                              import_s=IMPORT_S, depth=SMOKE_DEPTH[name])
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    after = _library_bindings()
    assert all(after[key] is before[key] for key in before)


def test_reference_load_runs_units_and_stops():
    with run.scratch_dir("test-") as directory:
        with run.reference_load(directory) as ticks_path:
            time.sleep(0.5)
        time.sleep(0.2)
        ticks = run.read_ticks(ticks_path)
        time.sleep(0.2)
        assert run.read_ticks(ticks_path) == ticks  # stopped: no unit ends any more
    assert len(ticks) >= run.MIN_UNITS
    assert all(cpu > 0 for _, cpu in ticks)


def test_speed_scale_uses_the_units_that_end_during_a_command():
    ticks = [(float(t), 0.01 if 10 <= t <= 20 else 0.04) for t in range(31)]
    during = run.Outcome(0, b"", cpu_s=1.0, start=10.0, end=20.0)
    assert run.speed_scale(ticks, during) == pytest.approx(run.REFERENCE_UNIT_S / 0.01)
    # a command shorter than MIN_UNITS units takes the units nearest to it
    short = run.Outcome(0, b"", cpu_s=0.1, start=25.2, end=25.4)
    assert run.speed_scale(ticks, short) == pytest.approx(run.REFERENCE_UNIT_S / 0.04)
    with pytest.raises(RuntimeError):
        run.speed_scale(ticks[:2], during)


def test_scratch_dir_is_removed_even_on_error():
    with pytest.raises(RuntimeError):
        with run.scratch_dir("test-") as directory:
            (directory / "x.json").write_text("{}")
            raise RuntimeError
    assert not directory.exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oc-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
