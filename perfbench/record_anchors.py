#!/usr/bin/env python3
"""Record the exit code and stdout digest of each workload's anchor case.

    python3 perfbench/record_anchors.py

``run.py`` fails every anchor run whose report differs from the one in
``expected.json``.  Re-record only for a change that alters report bytes on
purpose, and say in its notes why the bytes changed.
"""

from __future__ import annotations

import hashlib
import json

import run


def main() -> int:
    run.import_library()
    from workloads import WORKLOADS

    expected = {}
    with run.scratch_dir("anchors-") as directory:
        for workload in WORKLOADS.values():
            anchor = workload.cases(seed=0)[0]
            (path,), (digest,) = run.write_cases([anchor], directory)
            outcome = run.run_cli([*anchor.argv, path])
            error = run.report_error(anchor, digest, outcome, anchor.argv[0])
            if error is not None:
                raise SystemExit(f"{anchor.label}: {error}")
            expected[anchor.label] = {
                "argv": list(anchor.argv),
                "exit": outcome.code,
                "stdout_sha256": hashlib.sha256(outcome.stdout).hexdigest(),
            }
    run.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
