"""Regenerate ``reference.json``: the output summaries the benchmark checks.

Usage, from the repository root: ``python3 perfbench/make_reference.py``.
Runs each workload once at seed 0 and stores the summary of every
invocation.  The summaries do not depend on the seed.  The stored file was
generated once from the commit that introduced the benchmark; regenerate it
only when a change to the datasets is intended and stated.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, run_child
from workloads import WORKLOADS


def main() -> int:
    reference: dict[str, dict] = {}
    for name, build in WORKLOADS.items():
        workload = build(0)
        run_dir = OUT / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        report = run_child(workload, run_dir, trace=False)
        if "crashed" in report:
            print(f"{name}: {report['crashed']}", file=sys.stderr)
            return 1
        reference[name] = {}
        for inv, call in zip(workload.invocations, report["calls"]):
            if call["error"] is not None or call["rc"] != 0:
                print(f"{name} {inv.name}: rc {call['rc']} {call['error']}", file=sys.stderr)
                return 1
            reference[name][inv.name] = inv.summarize(call["stdout"], run_dir)
        shutil.rmtree(run_dir)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
