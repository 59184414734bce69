#!/usr/bin/env python3
"""hqs benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload leave_small --seed 0 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` (the timed set-up; it is
also timed for ``SETUP_REPS - 1`` seeds derived from it, and the median is
reported).  Then one caller runs ops back
to back, cycling over the input pool, until ``--seconds`` have passed and
every op has run at least once; each input weighs the same in the metrics.  Every op's output is checked (see ``workloads.py``) and
the pool's output digest is compared with ``golden.json`` when the seed is
pinned there.  The last line on stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the pool
untraced for half the time, then again with spans around the public callables
of every layer (``tracing.py``) for the other half, checks that both passes
produce identical outputs, and reports the per-layer metrics; the spans and
a counter summary are written under ``perfbench/out/``.

Exit codes: 0 the run finished (``correct`` says whether outputs checked
out), 1 the program under test could not be loaded, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REF_S, Calibrator, steady_ref
from tracing import ROOT_OP, ROOT_SETUP, Tracer, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 5
clock = time.perf_counter


def load_program():
    """Import hqs from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hqs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hqs sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
        sys.path.append(str(ROOT / "tests"))  # tests/oracles.py, for the checkers workload
    import hqs
    import hqs.broadcast
    import hqs.gen
    import hqs.reconfig
    import hqs.scenarios
    import hqs.sim
    if Path(hqs.__file__).resolve().parent != (src / "hqs").resolve():
        raise SystemExit(f"perfbench: hqs was imported from {hqs.__file__}, not {src}")
    return hqs


@dataclass
class Phase:
    """The outcome of one timed closed-loop window over the input pool."""

    latencies: list = field(default_factory=list)   # seconds per executed op
    digests: list = field(default_factory=list)     # output digest per pool index
    problems: dict = field(default_factory=dict)    # pool index -> [problem]
    counts: dict = field(default_factory=dict)      # pool index -> counters
    cal: Calibrator = field(default_factory=Calibrator)

    def executions(self, k: int) -> int:
        n, size = len(self.latencies), len(self.digests)
        return n // size + (1 if k < n % size else 0)

    def weights(self) -> list:
        """1 / executions of the op, per executed op: every input weighs the
        same whether the run ended mid-pass or not."""
        size = len(self.digests)
        return [1 / self.executions(i % size) for i in range(len(self.latencies))]

    def pool_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()

    def scaled(self) -> list:
        return self.cal.scale(self.latencies)

    def ops_per_s(self) -> float:
        """Ops per second of op time at reference speed, inputs weighed equally."""
        w = self.weights()
        return sum(w) / sum(t * x for t, x in zip(self.scaled(), w))


def measure(wl, pool, seconds, tracer=None, counting=False) -> Phase:
    """Run ops back to back, cycling over the pool, for ``seconds`` and at
    least one whole pass."""
    phase = Phase(digests=[None] * len(pool))
    phase.cal.take(0)
    deadline = clock() + seconds
    i = 0
    while i < len(pool) or clock() < deadline:
        k = i % len(pool)
        spec = pool[k]
        frame = tracer.open_root(ROOT_OP, i) if tracer else None
        t0 = clock()
        out = wl.run_op(spec)
        latency = clock() - t0
        phase.latencies.append(latency)
        if frame:
            tracer.close_root(frame)
        digest = wl.digest(out)
        if phase.digests[k] is None:
            phase.digests[k] = digest
            problems = wl.check(spec, out)
            if problems:
                phase.problems[k] = problems
            if counting:
                phase.counts[k] = wl.counts(out)
        elif phase.digests[k] != digest:
            phase.problems.setdefault(k, []).append("output differs between repetitions")
        phase.cal.after_op(i, latency)
        i += 1
    phase.cal.take(i)
    return phase


def weighted_percentile(values, weights, pct) -> float:
    """Smallest value whose cumulative weight reaches ``pct`` % of the total."""
    pairs = sorted(zip(values, weights))
    target = sum(weights) * pct / 100
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target:
            return value
    return pairs[-1][0]


def load_golden() -> dict:
    path = BENCH / "golden.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def failed_ops(phase: Phase, digest_ok: bool) -> int:
    if not digest_ok:
        return len(phase.latencies)
    return sum(phase.executions(k) for k in phase.problems)


def timed_setup(wl, seed):
    """Generate an input pool; returns it with its set-up time at reference
    speed, by the reference loop sampled just before and just after."""
    before = steady_ref()
    t0 = clock()
    pool = wl.generate(seed)
    elapsed = clock() - t0
    return pool, elapsed * REF_S / ((before + steady_ref()) / 2)


def end_to_end(wl, setup, phase: Phase) -> dict:
    lat, w = phase.scaled(), phase.weights()
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms_p50": (weighted_percentile(lat, w, 50) * 1e3, "ms"),
        "op_ms_tail": (weighted_percentile(lat, w, wl.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYERS = ("bench", "sim", "reconfig", "broadcast", "scenarios", "props", "graph", "core")
PROBES = ("intersection", "active_inclusion", "active_availability", "brb_consistency")
CHECKERS = ("consistency", "inclusion", "sharing", "available_inside", "outlived", "maxout")


def per_layer(wl, tracer, base: Phase, traced: Phase, setup_factor: float) -> dict:
    """Per-op self times, shares of op time and counters of the traced pass."""
    def by_name(table):
        return Counter({tracer.names[nid]: v for nid, v in table.items()})

    self_s, calls, total_s = map(by_name, tracer.phases["op"])
    setup_self, setup_calls, _ = map(by_name, tracer.phases["setup"])
    ops = len(traced.latencies)
    op_time = sum(traced.latencies)
    per_op = traced.cal.factor() / ops   # raw seconds -> seconds per op at reference speed

    def prefixed(table, prefix):
        return sum(v for name, v in table.items() if name.startswith(prefix))

    m = {}
    layer_self = {layer: prefixed(self_s, layer + ".") for layer in LAYERS}
    for layer in ("bench", "sim", "scenarios", "props", "graph", "core"):
        m[f"{layer}.self_s"] = (layer_self[layer] * per_op, "s/op")
        m[f"{layer}.share"] = (layer_self[layer] / op_time, "ratio")
    m["sim.run_s"] = (total_s["sim.kernel"] * per_op, "s/op")
    m["sim.kernel_self_s"] = (self_s["sim.kernel"] * per_op, "s/op")
    m["sim.kernel_share"] = (self_s["sim.kernel"] / op_time, "ratio")
    snapshot = self_s["sim.snapshot"] + self_s["sim.fingerprint"]
    m["sim.snapshot_s"] = (snapshot * per_op, "s/op")
    m["sim.snapshot_share"] = (snapshot / op_time, "ratio")
    m["sim.snapshot_calls"] = (calls["sim.snapshot"] / ops, "count/op")
    m["sim.to_jsonl_s"] = (self_s["sim.to_jsonl"] * per_op, "s/op")
    m["sim.to_jsonl_share"] = (self_s["sim.to_jsonl"] / op_time, "ratio")

    # counters come from each op's public trace, weighted by its executions
    sim_counts = {k: c for k, c in traced.counts.items() if c}
    totals = Counter()
    steps = []
    for k, c in sim_counts.items():
        reps = traced.executions(k)
        totals["events"] += c["events"] * reps
        for kind in ("state", "apl", "tob_order", "drop"):
            totals[kind] += c["kinds"][kind] * reps
        steps += c["response_steps"] * reps
    base_events = sum(c["events"] * base.executions(k) for k, c in sim_counts.items())
    m["sim.events_per_op"] = (totals["events"] / ops, "count/op")
    m["sim.events_per_s"] = (base_events / sum(base.scaled()), "1/s")
    m["sim.dirty_flushes_per_op"] = (totals["state"] / ops, "count/op")
    m["sim.msgs_per_op"] = (totals["apl"] / ops, "count/op")
    m["sim.tob_per_op"] = (totals["tob_order"] / ops, "count/op")
    m["sim.drops_per_op"] = (totals["drop"] / ops, "count/op")

    probe_s = prefixed(self_s, "scenarios.probe.")
    m["scenarios.probe_s"] = (probe_s * per_op, "s/op")
    m["scenarios.probe_share"] = (probe_s / op_time, "ratio")
    m["scenarios.probe_calls"] = (prefixed(calls, "scenarios.probe.") / ops, "count/op")
    for probe in PROBES:
        m[f"scenarios.probe.{probe}_s"] = (self_s[f"scenarios.probe.{probe}"] * per_op, "s/op")
    m["scenarios.build_s"] = (self_s["scenarios.build"] * per_op, "s/op")
    m["scenarios.adversary_s"] = (prefixed(self_s, "scenarios.adversary.") * per_op, "s/op")

    for layer in ("reconfig", "broadcast"):
        m[f"{layer}.handler_s"] = (layer_self[layer] * per_op, "s/op")
        m[f"{layer}.share"] = (layer_self[layer] / op_time, "ratio")
        m[f"{layer}.handler_calls"] = (prefixed(calls, layer + ".") / ops, "count/op")
    m["reconfig.response_steps_p50"] = (statistics.median(steps) if steps else 0, "steps")

    for checker in CHECKERS:
        m[f"props.{checker}_s"] = (self_s[f"props.{checker}"] * per_op, "s/op")
    maxout = tracer.name_id("props.maxout")
    maxout_calls = sum(c[maxout] for _, c, _ in tracer.phases.values())
    candidates = tracer.pairs[maxout, tracer.name_id("props.available_inside")]
    outlived_checks = tracer.pairs[maxout, tracer.name_id("props.outlived")]
    m["props.maxout_candidates"] = (candidates / maxout_calls if maxout_calls else 0,
                                    "count/call")
    m["props.maxout_yield"] = (tracer.maxout_found / outlived_checks if outlived_checks
                               else 0, "ratio")

    attempts = setup_calls["gen.sharing_system"] + setup_calls["gen.arbitrary_system"]
    for layer in ("gen", "props", "core", "bench"):
        m["gen.s" if layer == "gen" else f"gen.{layer}_s"] = (
            prefixed(setup_self, layer + ".") * setup_factor, "s")
    m["gen.attempts"] = (attempts, "count")
    m["gen.yield"] = (wl.systems / attempts if attempts else 0, "ratio")

    m["trace.op_s"] = (op_time * per_op, "s/op")
    m["trace.self_sum_ratio"] = (sum(layer_self.values()) / op_time, "ratio")
    m["trace.spans_per_op"] = (sum(calls.values()) / ops, "count/op")
    m["trace.overhead_ratio"] = (traced.ops_per_s() / base.ops_per_s(), "ratio")
    return m


def write_trace_summary(wl, seed, tracer, traced: Phase):
    """Spans plus the deterministic counters that are not metrics."""
    kinds, tags = Counter(), Counter()
    for k, c in traced.counts.items():
        if not c:
            continue
        for key, n in c["kinds"].items():
            kinds[key] += n * traced.executions(k)
        for key, n in c["tags"].items():
            tags[key] += n * traced.executions(k)
    self_s, calls, total_s = tracer.phases["op"]
    summary = {
        "workload": wl.name, "seed": seed, "ops": len(traced.latencies),
        "events_by_kind": dict(sorted(kinds.items())),
        "messages_by_tag": dict(sorted(tags.items())),
        "self_s_by_span": {tracer.names[n]: s for n, s in sorted(self_s.items())},
        "calls_by_span": {tracer.names[n]: c for n, c in sorted(calls.items())},
        "inclusive_s_by_span": {tracer.names[n]: s for n, s in sorted(total_s.items())},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    tracer.write_spans(OUT / f"spans-{wl.name}-{seed}.csv.gz")


def run(workload: str, seed: int, seconds: float, trace: bool, golden=None) -> dict:
    hqs = load_program()
    from workloads import WORKLOADS  # imports hqs, so only after load_program

    wl = WORKLOADS[workload]
    golden = load_golden() if golden is None else golden
    pinned = golden.get(workload, {}).get(str(seed))

    # The pool the run uses comes from the seed itself; the other set-ups use
    # seeds derived from it, because how many draws the generators reject
    # varies from seed to seed and would otherwise dominate setup_s.
    pool, seconds_at_ref = timed_setup(wl, seed)
    setup = [seconds_at_ref]
    for rep in range(1, 1 if trace else SETUP_REPS):
        setup.append(timed_setup(wl, f"{seed}.{rep}")[1])

    phases = [measure(wl, pool, seconds / 2 if trace else seconds)]
    if trace:
        tracer = Tracer()
        instrument(tracer, hqs)
        try:
            tracer.begin_phase("setup")
            setup_factor = REF_S / steady_ref()
            frame = tracer.open_root(ROOT_SETUP)
            traced_pool = wl.generate(seed)
            tracer.close_root(frame)
            tracer.begin_phase("op")
            phases.append(measure(wl, traced_pool, seconds / 2, tracer, counting=True))
        finally:
            tracer.restore()
    for k, problem in wl.post_check(pool).items():
        for phase in phases:
            phase.problems.setdefault(k, []).append(problem)

    digests = {p.pool_digest() for p in phases}
    digest_ok = len(digests) == 1 and (pinned is None or pinned in digests)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(failed_ops(p, digest_ok) for p in phases)

    for k, problems in sorted(phases[0].problems.items())[:5]:
        print(f"perfbench: {workload} op {k}: {'; '.join(problems)}", file=sys.stderr)
    print(f"perfbench: {workload} seed {seed}: pool {len(pool)} ops, digest "
          f"{sorted(digests)[0][:16]} "
          f"({'unpinned' if pinned is None else 'pinned, ' + ('ok' if digest_ok else 'MISMATCH')})"
          f", tail = p{wl.tail_pct} of {len(phases[-1].latencies)} ops", file=sys.stderr)
    raw = phases[0].latencies
    print(f"perfbench: raw {len(raw) / sum(raw):.6g} ops/s, p50 {statistics.median(raw) * 1e3:.6g} ms;"
          f" reference loop median {REF_S / phases[0].cal.factor() * 1e3:.4g} ms"
          f" (scaled to {REF_S * 1e3:g} ms)", file=sys.stderr)

    if trace:
        metrics = per_layer(wl, tracer, phases[0], phases[1], setup_factor)
        write_trace_summary(wl, seed, tracer, phases[1])
    else:
        metrics = end_to_end(wl, setup, phases[0])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("leave_small", "leave_large", "brb_large", "checkers"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
