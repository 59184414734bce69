#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

1. A second pinned seed passes every correctness check on every workload.
2. A deliberately wrong pinned digest is reported as failed ops, not a pass.
3. The traced run reproduces the untraced digests, and the layers' self
   times sum to the traced op time.
4. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Each run here uses ``seconds=0``: exactly one pass over the input pool.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run

SEED = 7


def check(ok: bool, what: str, failures: list):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    failures = []
    golden = run.load_golden()
    for name in ("leave_small", "leave_large", "brb_large", "checkers"):
        pinned = str(SEED) in golden.get(name, {})
        result = run.run(name, SEED, 0, trace=False)
        check(pinned and result["correct"] and result["failed"] == 0
              and result["attempted"] > 0,
              f"{name} seed {SEED} is pinned and passes every check", failures)

    wrong = {"checkers": {str(SEED): "0" * 64}}
    result = run.run("checkers", SEED, 0, trace=False, golden=wrong)
    check(not result["correct"] and result["failed"] == result["attempted"] > 0,
          "a wrong pinned digest fails every op", failures)

    result = run.run("leave_small", SEED, 0, trace=True)
    ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
    check(result["correct"] and abs(ratio - 1) < 0.01,
          f"traced digests equal untraced ones; self times sum to op time ({ratio:.4f})",
          failures)

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.*"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "checkers",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources it exits non-zero and prints no result", failures)

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
