"""Record the expected CLI output of the verify and family/check workloads.

    python3 perfbench/make_expected.py

Writes ``perfbench/expected.json``: for every CLI call, the exit code
and stdout the current ``src/`` produces.  Run it only on a commit whose
output is trusted; the benchmark counts any byte of difference from
this file as a failed operation.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    run.import_package()
    expected: dict[str, str] = {}
    for name in ("verify-sparse", "verify-dense", "family-check"):
        # check calls read the family output, so record family first
        for label, argv, stdin in workloads.cli_calls(name, expected):
            expected[label] = workloads.run_cli(argv, stdin)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
