#!/usr/bin/env python3
"""Show that the benchmark's correctness gate catches a wrong result.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

It sets up the verify-exhaustive workload, then runs two ops on the
one-fault q4 netlist: the real fault op, which must pass because it reports
exactly the pinned mismatch count, and the same command given to an op that
expects a clean pass, which the gate must count as failed.  Exits 0 when the
gate passes the first, fails the second and so reports fail_ratio > 0.
About 15 s.
"""

from __future__ import annotations

import shutil
import sys
import time

from run import (FAULT_MISMATCHES, RUN_DEADLINE_S, WORK, Runner, exhaustive,
                 workloads)


def main() -> int:
    wl = workloads(seed=1)["verify-exhaustive"]
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.perf_counter() + RUN_DEADLINE_S)
        runner.setup(wl, "setup")
        if runner.failed:
            print(f"self-test broken: set-up failed: {runner.errors}")
            return 1
        real = runner.run(exhaustive("q4_fault.json", (4, 4),
                                     FAULT_MISMATCHES), "real-fault")
        wrong = runner.run(exhaustive("q4_fault.json", (4, 4)),
                           "fault-as-good")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    fail_ratio = runner.failed / runner.attempted
    print(f"fault op with its pinned count: "
          f"{'passed' if real.error is None else 'FAILED: ' + real.error}")
    print(f"fault netlist where a pass is expected: "
          f"{'passed' if wrong.error is None else 'failed: ' + wrong.error}")
    print(f"fail_ratio = {runner.failed}/{runner.attempted} = "
          f"{fail_ratio:.3f}")
    ok = real.error is None and wrong.error is not None and fail_ratio > 0
    print("self-test OK: the gate caught the wrong result" if ok else
          "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
