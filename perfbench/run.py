#!/usr/bin/env python3
"""Benchmark of the nabla-radius command line on seeded workloads.

    python3 perfbench/run.py --workload oc-deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, never from an installed copy.  The
benchmark writes one descriptor per case (see ``workloads.py``), checks
that ``nabla-radius validate`` accepts each, and then runs the workload's
analysis command on the cases one subprocess at a time (a closed loop with
one client) for about ``--seconds``.  Every report is checked: exit code
against the verdict it prints, schema, command, label, descriptor digest,
byte-identical repeats, and, for each workload's fixed anchor case, the
exit code and stdout digest recorded in ``expected.json``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``cpu_s``: median CPU time (user+sys) of one analysis command;
* ``setup_s``: median CPU time of ``validate``, which precedes every
  analysis command: interpreter start, import, parse, digest and the
  integrability check;
* ``peak_rss_mb``: largest resident set of any command.

Other tenants of a shared machine slow it down, and not evenly: on a
2-vCPU Xeon VM the same fixed work ran at two speeds about 1.4 times apart,
switching every few seconds, so one command's time moved by 15% from run
to run, and a reference load run between commands did not follow it.  So
while it measures, the benchmark runs ``refload.py`` on the same CPU as the
commands (it pins itself and its children to one).  The scheduler
interleaves the two every few milliseconds, so the CPU time of the
reference units that end during a command measures how fast the machine
was for that very command, and both times above are scaled by
``REFERENCE_UNIT_S`` over it: they read as CPU seconds at the speed at
which one reference unit, run beside a command, takes ``REFERENCE_UNIT_S``
(about its time on the VM above when fast).  No change to the program
moves the reference load, so the scaled times move with the program
alone.  The commands are single-threaded and compute-bound, so CPU time is
the time a user waits for one on an idle machine; their wall time, which
the reference load doubles, is not reported.  Each sample is printed to
stderr.

``--trace 1`` runs every case once as a subprocess and once in-process
through ``nabla_radius.cli.main`` under ``tracer.Tracer``, requires
identical bytes and exit codes from both, and reports the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench-work"

COMMAND_TIMEOUT_S = 150
REFERENCE_UNIT_S = 0.019  # CPU s of one refload.py unit, about its time on a fast 2-vCPU Xeon VM
MIN_UNITS = 3  # reference units that scale one command's time
VALIDATE_REPEATS = 3  # validate runs before each analysis command
EXIT_BY_VERDICT = {
    "OVERCONVERGENT_EVIDENCE": 0,
    "NOT_OVERCONVERGENT_EVIDENCE": 3,
    "INCONCLUSIVE": 4,
    "pass": 0,
    "fail": 3,
    "inconclusive": 4,
}

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPANS = (
    "padic.valuation",
    "laurent.mul",
    "laurent.add",
    "laurent.partial",
    "laurent.gauss_lognorm",
    "laurent.sup_vertex_lognorm",
    "laurent.specialize",
    "connection.matmul",
    "connection.integrability",
    "connection.ladder",
    "radius.intrinsic_radius",
    "radius.taylor_probe",
    "curves.generic_equality_check",
    "curves.curve_witness_search",
    "descriptor.load",
    "descriptor.sha256",
    "cli.main",
)
PER_LAYER = {
    **{f"{span}.calls": "count" for span in SPANS if span not in ("connection.ladder", "cli.main")},
    **{f"{span}.self_s": "s" for span in SPANS},
    "padic.valuation.bits_max": "bits",
    "laurent.mul.term_pairs": "count",
    "laurent.gauss_lognorm.terms": "count",
    "connection.ladder.steps": "count",
    "connection.ladder.step_s": "s",
    "connection.ladder.useful_ratio": "ratio",
    "connection.ladder.last_terms": "count",
    "connection.ladder.last_bits": "bits",
    "radius.taylor_probe.multi_indices_computed": "count",
    "curves.trials_tried": "count",
    "descriptor.bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    code: int
    stdout: bytes
    cpu_s: float = 0.0
    start: float = 0.0  # time.monotonic() at start and end
    end: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin_to_one_cpu() -> None:
    """Keep this process and every child on the lowest CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_library() -> float:
    """Import nabla_radius from this checkout's src/; return the import time."""
    if not (SRC / "nabla_radius" / "cli.py").is_file():
        fail_setup(f"no nabla_radius sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nabla_radius.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["nabla_radius"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail_setup(f"imported nabla_radius from {origin}, not from {SRC}")
    return elapsed


def canonical_sha256(document: dict) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> Outcome:
    """One closed-loop request: run the CLI and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "nabla_radius", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S,
    )
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.stderr:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return Outcome(proc.returncode, proc.stdout, cpu, start, end)


def report_error(case, digest: str, outcome: Outcome, command: str) -> str | None:
    """Why this report is wrong for this case, or None."""
    try:
        doc = json.loads(outcome.stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        return f"exit {outcome.code} without a JSON report"
    if doc.get("schema") != "nabla-radius/1" or doc.get("command") != command:
        return "wrong schema or command"
    if doc.get("descriptor_sha256") != digest:
        return "descriptor_sha256 differs from the digest of the descriptor written"
    if doc.get("label") != case.label:
        return "wrong label"
    if command == "validate":
        verdict = "pass" if doc.get("status") == "ok" else doc.get("status")
    elif command == "oc":
        verdict = doc.get("verdict")
    elif command == "cutcheck":
        verdict = doc.get("verdict", {}).get("verdict")
    else:
        verdict = doc.get("outcome")
    if EXIT_BY_VERDICT.get(verdict) != outcome.code:
        return f"exit {outcome.code} does not match verdict {verdict!r}"
    return None


class Checker:
    """Counts attempted and failed commands; pins each case's first bytes."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first: dict[tuple[str, str], tuple[int, str]] = {}

    def check(self, case, digest: str, outcome: Outcome, command: str) -> None:
        self.attempted += 1
        error = report_error(case, digest, outcome, command)
        seen = (outcome.code, hashlib.sha256(outcome.stdout).hexdigest())
        key = (case.label, command)
        if error is None and self.first.setdefault(key, seen) != seen:
            error = "report differs from the first run of the same case"
        pinned = self.expected.get(case.label)
        if error is None and command != "validate" and pinned and pinned["argv"] == list(case.argv):
            if (pinned["exit"], pinned["stdout_sha256"]) != seen:
                error = "report differs from the one recorded in expected.json"
        if error is not None:
            self.failed += 1
            print(f"perfbench: {case.label} {command}: {error}", file=sys.stderr)


def validate(case, path: str, digest: str, checker: Checker) -> Outcome:
    outcome = run_cli(["validate", path])
    checker.check(case, digest, outcome, "validate")
    return outcome


def setup(cases, paths, digests, checker: Checker) -> None:
    """Validate every case once after one untimed warm-up (it fills the
    bytecode cache)."""
    run_cli(["validate", paths[0]])
    for case, path, digest in zip(cases, paths, digests):
        validate(case, path, digest, checker)


@contextlib.contextmanager
def reference_load(directory: Path):
    """Run refload.py beside the body; yield the file it writes its ticks to.

    The reference process is a child that is reaped only on the way out, so
    the resource usage of children read inside the body is the commands'."""
    ticks = directory / "reference-ticks.txt"
    proc = subprocess.Popen([sys.executable, str(HERE / "refload.py"), str(ticks)], cwd=ROOT)
    try:
        yield ticks
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def read_ticks(path: Path) -> list[tuple[float, float]]:
    """(end time, CPU seconds) of every reference unit, in time order."""
    ticks = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 2:  # the last line may be cut off by terminate()
            ticks.append((float(fields[0]), float(fields[1])))
    return ticks


def speed_scale(ticks: list[tuple[float, float]], outcome: Outcome) -> float:
    """``REFERENCE_UNIT_S`` over the mean CPU time of the reference units
    that ended while ``outcome``'s command ran (at least the ``MIN_UNITS``
    nearest to its middle)."""
    inside = [cpu for end, cpu in ticks if outcome.start <= end <= outcome.end]
    if len(inside) < MIN_UNITS:
        middle = (outcome.start + outcome.end) / 2
        inside = [cpu for end, cpu in sorted(ticks, key=lambda t: abs(t[0] - middle))[:MIN_UNITS]]
    if len(inside) < MIN_UNITS:
        raise RuntimeError("the reference load ran too few units")
    return REFERENCE_UNIT_S / statistics.mean(inside)


@dataclass
class Sample:
    """The validate commands and the analysis command run on a case."""

    validates: list[Outcome]
    outcome: Outcome


def measure(cases, paths, digests, checker: Checker, seconds: float,
            directory: Path) -> tuple[dict[str, list[Sample]], list[tuple[float, float]], float]:
    """Run every case once, then keep cycling through the cases while at
    least half of the next one is expected to fit in ``seconds``, all beside
    the reference load.  Returns the samples, the reference ticks and the peak
    resident set of the commands in MB."""
    samples: dict[str, list[Sample]] = {case.label: [] for case in cases}
    with reference_load(directory) as ticks_path:
        deadline = time.monotonic() + seconds
        n = 0
        while True:
            i = n % len(cases)
            case = cases[i]
            if n >= len(cases):
                expected = statistics.median(
                    s.outcome.end - s.validates[0].start for s in samples[case.label]
                )
                if time.monotonic() + expected / 2 > deadline:
                    break
            validates = [validate(case, paths[i], digests[i], checker)
                         for _ in range(VALIDATE_REPEATS)]
            outcome = run_cli([*case.argv, paths[i]])
            checker.check(case, digests[i], outcome, case.argv[0])
            samples[case.label].append(Sample(validates, outcome))
            n += 1
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        time.sleep(0.1)  # let the units under way when the last command ended finish
        ticks = read_ticks(ticks_path)
    return samples, ticks, rss_mb


def end_to_end(samples: dict[str, list[Sample]], ticks: list[tuple[float, float]],
               rss_mb: float) -> dict[str, float]:
    """Median scaled CPU times over all the workload's cases, which do the
    same work (see ``workloads.py``)."""
    cpu, setup = [], []
    for label, case_samples in samples.items():
        for s in case_samples:
            scale = speed_scale(ticks, s.outcome)
            cpu.append(s.outcome.cpu_s * scale)
            setup.extend(v.cpu_s * speed_scale(ticks, v) for v in s.validates)
            print(f"perfbench: {label} cpu {s.outcome.cpu_s:.4f} wall {s.outcome.wall_s:.4f} "
                  f"scale {scale:.4f} validate cpu "
                  f"{' '.join(f'{v.cpu_s:.4f}' for v in s.validates)}", file=sys.stderr)
    return {
        "cpu_s": statistics.median(cpu),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def traced(workload, cases, paths, digests, checker: Checker, import_s: float) -> tuple[dict, bool]:
    """Per-layer metrics from one in-process pass under the tracer, after
    one untraced subprocess pass that gives the reference bytes."""
    from nabla_radius import cli
    from tracer import Tracer

    untraced = []
    for case, path, digest in zip(cases, paths, digests):
        outcome = run_cli([*case.argv, path])
        checker.check(case, digest, outcome, case.argv[0])
        untraced.append(outcome)

    tracer = Tracer()
    traced_wall = 0.0
    tracer.install()
    try:
        for case, path, digest in zip(cases, paths, digests):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.span("cli.main", cli.main, [*case.argv, path])
            traced_wall += time.perf_counter() - start
            sys.stderr.write(err.getvalue())
            # the untraced pass pinned this case's bytes, so a traced
            # report that differs counts as failed
            checker.check(case, digest, Outcome(code, out.getvalue().encode("utf-8")),
                          case.argv[0])
    finally:
        tracer.uninstall()

    metrics: dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = tracer.calls[span]
        metrics[f"{span}.self_s"] = tracer.self_s[span]
    for name in ("laurent.mul.term_pairs", "laurent.gauss_lognorm.terms",
                 "connection.ladder.steps", "curves.trials_tried"):
        metrics[name] = tracer.counts[name]
    metrics["padic.valuation.bits_max"] = tracer.valuation_bits_max
    metrics["connection.ladder.step_s"] = tracer.total_s["connection.ladder"]
    metrics["connection.ladder.useful_ratio"] = tracer.ladder_useful_ratio()
    terms, bits = tracer.ladder_last_sizes()
    metrics["connection.ladder.last_terms"] = terms
    metrics["connection.ladder.last_bits"] = bits
    metrics["radius.taylor_probe.multi_indices_computed"] = sum(
        math.comb(case.shape["depth"] + case.shape["d"], case.shape["d"])
        for case in cases if case.argv[0] == "taylor"
    )
    metrics["descriptor.bytes"] = sum(os.path.getsize(path) for path in paths)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = traced_wall / sum(o.wall_s for o in untraced)
    metrics = {name: metrics[name] for name in PER_LAYER}

    ok = True
    for name in workload.drives:
        if not metrics[name]:
            print(f"perfbench: {workload.name} should drive {name}, but it is 0", file=sys.stderr)
            ok = False
    for name in workload.idle:
        if metrics[name]:
            print(f"perfbench: {workload.name} should not drive {name}, but it is "
                  f"{metrics[name]}", file=sys.stderr)
            ok = False
    return metrics, ok


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK; removed afterwards, WORK too when empty."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def write_cases(cases, directory: Path) -> tuple[list[str], list[str]]:
    """Write each case's descriptor; return the paths and canonical digests."""
    paths, digests = [], []
    for case in cases:
        path = directory / f"{case.label}.json"
        path.write_text(case.descriptor_text(), encoding="utf-8")
        paths.append(str(path))
        digests.append(canonical_sha256(case.document))
    return paths, digests


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 import_s: float, depth: int | None = None) -> dict:
    """Generate, validate, measure and check one workload; the result line."""
    cases = workload.cases(seed, depth)
    checker = Checker(json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {})
    with scratch_dir(f"{workload.name}-") as directory:
        paths, digests = write_cases(cases, directory)
        setup(cases, paths, digests, checker)
        if checker.failed:
            raise RuntimeError("a generated descriptor failed validation")
        if trace:
            values, ok = traced(workload, cases, paths, digests, checker, import_s)
            units = PER_LAYER
        else:
            values, ok = end_to_end(*measure(cases, paths, digests, checker, seconds, directory)), True
            units = END_TO_END
    return {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let a SIGTERM unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    import_s = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
