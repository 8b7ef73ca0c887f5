#!/usr/bin/env python3
"""Run the overconvergence test and the Taylor probe across the bundled corpus.

Prints one row per corpus module with the computed verdict, the witness
direction (if any), the point estimate of the intrinsic radius, and the
probe outcome at the entry's recorded probe parameters.  Exits nonzero
when a computed verdict disagrees with the entry's recorded expectation.
"""

import argparse
import sys
import time

from nabla_radius.corpus import build_corpus
from nabla_radius.radius import oc_ir_test, taylor_probe


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    header = f"{'label':<18} {'p':>2} {'dims':>4} {'rank':>4} {'verdict':<28} {'wit':>3} {'ir_exp':>7} {'probe':<13} {'ok':<3}"
    print(header)
    print("-" * len(header))
    failures = 0
    for entry in build_corpus():
        module = entry.descriptor.module
        expected = entry.descriptor.expected or {}
        started = time.monotonic()
        verdict = oc_ir_test(module, depth=entry.taylor_bound)
        probe = taylor_probe(module, entry.taylor_eta, entry.taylor_lambda, entry.taylor_bound)
        elapsed = time.monotonic() - started

        ok = True
        if expected.get("oc") == "positive":
            ok &= verdict.verdict.value == "OVERCONVERGENT_EVIDENCE"
        elif expected.get("oc") == "negative":
            ok &= verdict.verdict.value == "NOT_OVERCONVERGENT_EVIDENCE"
            ok &= verdict.witness_direction == expected.get("witness_direction")
            ok &= str(verdict.report.ir_estimate) == expected.get("ir_exponent")
        failures += not ok

        wit = "-" if verdict.witness_direction is None else str(verdict.witness_direction)
        print(
            f"{entry.label:<18} {module.prime:>2} {module.dims:>4} {module.rank:>4} "
            f"{verdict.verdict.value:<28} {wit:>3} "
            f"{str(verdict.report.ir_estimate):>7} "
            f"{probe.outcome.value:<13} {'yes' if ok else 'NO':<3} ({elapsed:.2f}s)"
        )
    if failures:
        print(f"\n{failures} corpus entr{'y' if failures == 1 else 'ies'} disagreed with expectations", file=sys.stderr)
        return 1
    print("\nall corpus verdicts match expectations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
