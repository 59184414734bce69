#!/usr/bin/env python3
"""Pin each workload's output digest for a range of seeds in golden.json.

    python3 perfbench/pin.py --seeds 0-19 [--workload leave_small ...]

For every seed it generates the input pool, runs each op once, applies every
check the benchmark applies, and stores the sha256 over the ops' output
digests (trace bytes for the simulator workloads, verdicts and outlived sets
for ``checkers``).  A seed whose ops fail a check is not pinned.  Re-pinning
changes the benchmark: a change that claims to keep every trace byte must
leave golden.json as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="a seed or an inclusive range, e.g. 0-19")
    ap.add_argument("--workload", action="append",
                    choices=("leave_small", "leave_large", "brb_large", "checkers"))
    args = ap.parse_args(argv)
    run.load_program()
    from workloads import WORKLOADS

    golden = run.load_golden()
    status = 0
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            pool = wl.generate(seed)
            phase = run.measure(wl, pool, 0)
            for k, problem in wl.post_check(pool).items():
                phase.problems.setdefault(k, []).append(problem)
            if phase.problems:
                print(f"{name} seed {seed}: not pinned, {len(phase.problems)} ops fail: "
                      f"{next(iter(phase.problems.values()))}", file=sys.stderr)
                status = 1
                continue
            golden.setdefault(name, {})[str(seed)] = phase.pool_digest()
            print(f"{name} seed {seed}: {phase.pool_digest()}", flush=True)
    golden = {w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
              for w, d in sorted(golden.items())}
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
