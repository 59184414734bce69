"""Operator CLI: load systems, run checkers, analyze graphs, run scenarios.

Exit codes: 0 all requested properties hold / run passed, 1 a property or
probe failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .core import (Attack, dump_system, is_blocking, minimal_quorums, parse_id, sorted_ids,
                   sorted_quorums)
from .errors import HqsError, MalformedInput
from .fixtures import resolve_system
from .graph import build_graph, condense, sink_components, to_dot
from .props import (
    check_available_inside,
    check_consistency,
    check_outlived,
    check_quorum_inclusion,
    check_quorum_sharing,
    maximal_outlived_sets,
    report_to_json,
)
from .scenarios import run_scenario
from .sim import canon


def _ids(raw: str):
    tokens = (tok.strip() for tok in raw.split(","))
    return frozenset(parse_id(tok) for tok in tokens if tok)


def cmd_check(args) -> int:
    qs, attack = resolve_system(args.system)
    if args.attack is not None:
        attack = Attack.of(qs.universe, _ids(args.attack))
    for note in qs.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    reports = []
    if args.consistency or args.all:
        at = _ids(args.at) if args.at is not None else attack.well_behaved
        reports.append(check_consistency(qs, attack, at))
    if args.inside is not None:
        reports.append(check_available_inside(qs, _ids(args.inside)))
    if args.inclusion is not None or args.all:
        p_set = (attack.well_behaved if args.inclusion in (None, True)
                 else _ids(args.inclusion))
        reports.append(check_quorum_inclusion(qs, attack, p_set))
    if args.sharing or args.all:
        reports.append(check_quorum_sharing(qs))
    if args.outlived is not None:
        reports.append(check_outlived(qs, attack, _ids(args.outlived)))
    if not reports:
        print("nothing to check; pass --all or a property flag", file=sys.stderr)
        return 2
    for rep in reports:
        print(report_to_json(rep))
    return 0 if all(r.holds for r in reports) else 1


def cmd_graph(args) -> int:
    qs, attack = resolve_system(args.system)
    if args.format == "dot":
        print(to_dot(qs, attack), end="")
        return 0
    cond = condense(build_graph(qs))
    sinks = sink_components(cond)
    preconditions = (check_consistency(qs, attack, attack.well_behaved).holds
                     and check_quorum_sharing(qs).holds)
    summary = {
        "components": [sorted_ids(c) for c in cond.components],
        "sinks": [sorted_ids(c) for c in sinks],
        "well_behaved_sink": sorted_ids(frozenset().union(*sinks) & attack.well_behaved),
        "multiple_sinks": len(sinks) > 1,
        "preconditions_hold": preconditions,
    }
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"sink components: {summary['sinks']}")
        print(f"well-behaved sink members: {summary['well_behaved_sink']}")
        if summary["multiple_sinks"]:
            print("warning: multiple sinks (consistency or sharing precondition fails)")
        elif not preconditions:
            print("warning: consistency or sharing does not hold; the sink "
                  "characterization theorems do not apply to this system")
    return 0


def _blocking_sets(qs, p, up_to: int):
    """Minimal blocking sets for p up to the given size, by enumeration."""
    found = []
    pool = sorted_ids(set().union(*qs.quorums_of(p)))
    for size in range(1, up_to + 1):
        for combo in combinations(pool, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if is_blocking(qs, p, cand):
                found.append(cand)
    return found


def cmd_enumerate(args) -> int:
    if args.blocking_k < 0:
        raise MalformedInput(f"--blocking-k: expected an integer >= 0, got {args.blocking_k}")
    qs, attack = resolve_system(args.system)
    out = {
        "minimal_quorums": [sorted_ids(q) for q in
                            sorted_quorums(minimal_quorums(qs, attack))],
        "maximal_outlived_sets": [sorted_ids(o) for o in
                                  maximal_outlived_sets(qs, attack)],
    }
    if args.blocking_k > 0:
        out["blocking_sets"] = {
            str(p): [sorted_ids(b) for b in _blocking_sets(qs, p, args.blocking_k)]
            for p in sorted_ids(qs.active) if qs.declares(p)}
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    world, trace, verdict = run_scenario(args.scenario, seed_override=args.seed)
    if args.format == "trace":
        sys.stdout.write(trace.to_jsonl())
    elif args.format == "json":
        print(json.dumps(canon(verdict), sort_keys=True))
    else:
        print(f"outcome: {verdict['outcome']}")
        for step, pid, resp in trace.responses:
            print(f"  step {step}: {pid} -> {resp}")
        if verdict["violations"]:
            for v in verdict["violations"]:
                print(f"  VIOLATION step {v['step']}: {v['probe']}: {v['witness']}")
        else:
            print("  probes: PASS")
    return 0 if verdict["pass"] and verdict["outcome"] == "quiescent" else 1


def cmd_canonicalize(args) -> int:
    qs, attack = resolve_system(args.system)
    sys.stdout.write(dump_system(qs, attack))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hqs",
                                     description="heterogeneous quorum system toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run property checkers on a system")
    p_check.add_argument("--system", required=True, help="fixture name or JSON path")
    p_check.add_argument("--attack", help="override the Byzantine set, e.g. 4 or 4,5")
    p_check.add_argument("--consistency", action="store_true")
    p_check.add_argument("--at", help="set for the consistency check")
    p_check.add_argument("--inside", help="availability-inside set")
    p_check.add_argument("--inclusion", nargs="?", const=True, default=None,
                         help="quorum-inclusion set (default: well-behaved)")
    p_check.add_argument("--sharing", action="store_true")
    p_check.add_argument("--outlived", help="candidate outlived set")
    p_check.add_argument("--all", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_graph = sub.add_parser("graph", help="quorum graph condensation and sinks")
    p_graph.add_argument("--system", required=True)
    p_graph.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p_graph.set_defaults(fn=cmd_graph)

    p_enum = sub.add_parser("enumerate",
                            help="minimal quorums, blocking sets, outlived sets")
    p_enum.add_argument("--system", required=True)
    p_enum.add_argument("--blocking-k", type=int, default=0)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True, help="scenario name or JSON path")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--format", choices=("text", "json", "trace"), default="text")
    p_sim.set_defaults(fn=cmd_simulate)

    p_canon = sub.add_parser("canonicalize", help="print a system in canonical form")
    p_canon.add_argument("--system", required=True)
    p_canon.set_defaults(fn=cmd_canonicalize)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HqsError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
