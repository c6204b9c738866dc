"""Write perfbench/expected.json: the output digests the benchmark checks.

    python3 perfbench/pin.py

Runs every item of every workload once, untimed, and records its digest
(see workloads.Item).  The ledger's digests cover only the part of each
report that no seed changes; the rest is checked against the generated
inputs.  Pin only from a commit whose outputs are known to be right:
the benchmark then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    os.environ.pop(run.FIELD_PRIME_ENV, None)
    pkg = run.import_package()
    oracles = run.load_oracles()
    expected = {
        "dim_S3": {str(n): pkg.paramodular.dim_S3(n) for n in workloads.LEDGER_LEVELS},
        "digests": {},
    }
    scratch = run.HERE / "out" / f"pin-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for item in workloads.make_items(name, 0, pkg, scratch, oracles, expected):
                out = item.run()
                problems = item.check(out)
                if problems:
                    print(f"{item.id}: {problems}", file=sys.stderr)
                    return 1
                expected["digests"][item.id] = item.digest(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected["digests"] = dict(sorted(expected["digests"].items()))
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(expected['digests'])} digests to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
