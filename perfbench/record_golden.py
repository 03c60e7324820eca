"""Record golden.json: exit code and stdout digest of every benchmark case.

    python3 perfbench/record_golden.py

Run from the root of a pwcheck checkout. It covers every argv any seed
can produce (all cases of all workloads, every d = 1 + n*s with
s < D_STEPS). Re-record only when a change is meant to alter CLI output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from run import (CASE_TIMEOUT_S, GOLDEN_PATH, WORKLOADS, Runner, all_argvs,
                 check_checkout, golden_key)


def main() -> int:
    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    runner = Runner(root, {}, time.perf_counter() + 3600)
    golden = {}
    for workload in WORKLOADS.values():
        for argv in all_argvs(workload):
            result = runner.spawn([sys.executable, "-m", "pwcheck.cli", *argv],
                                  CASE_TIMEOUT_S)
            if result.timed_out:
                print(f"error: {golden_key(argv)} timed out", file=sys.stderr)
                return 1
            golden[golden_key(argv)] = {
                "exit": result.exit_code,
                "sha256": hashlib.sha256(result.stdout).hexdigest(),
                "bytes": len(result.stdout),
            }
            print(f"{result.wall_s:7.3f} s exit {result.exit_code} {golden_key(argv)}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} goldens to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
