"""The four benchmark workloads: input generation, one op, and its checks.

Every workload is a closed loop with one caller: ``run.py`` runs ops back to
back in one process.  ``generate(seed)`` makes the whole input pool from the
workload seed (this is the timed set-up); ``run_op`` is one timed op;
``digest`` and ``check`` verify its output.  Op code reaches the package only
through module attributes (``scenarios.make_reconfig_world`` and so on), so
the traced run can wrap those attributes from outside.

Why each workload exists:

* ``leave_small`` -- the criterion-05 sweep that users run most: generated
  outlived systems (n <= 6), the CheckSpammer adversary, up to 3 Leave/Remove
  requests and the three outlived probes per world.  Worlds are small, so
  per-world fixed costs and the per-step probe and fingerprint costs
  dominate; an optimisation that adds per-world set-up shows up as a loss.
* ``leave_large`` -- the same protocol and probes on sharing systems of fixed
  n = 40.  The O(D^2) consistency probe and the O(n) state fingerprint
  dominate every dirty step: this is where per-step cost tracking what
  changed, rather than n, shows or does not.
* ``brb_large`` -- reliable broadcast at the same n, one equivocating
  Byzantine sender plus one honest broadcast.  Heavy message fan-out, a
  nearly free probe: the kernel loop and the broadcast handlers carry the
  load.  It bypasses any probe optimisation.
* ``checkers`` -- no simulator.  One op fully checks one generated system:
  arbitrary systems at n <= 12 (the exhaustive outlived search descends
  deep), sharing systems at n <= 12 (the search hits early) and sharing
  systems with more than 12 well-behaved processes (every check but the
  capped search).  It bypasses every simulator change.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

from hqs import gen, graph, props, scenarios, sim
from hqs.core import minimal_quorums, sorted_ids

LARGE_N = 40


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sets(sets) -> list:
    return sorted(sorted_ids(s) for s in sets)


# --- input generation ----------------------------------------------------------


def pick_requests(rng: random.Random, qs, wb_active: list) -> tuple:
    """Criterion-05 requests: up to 3 distinct processes, each Leave or Remove."""
    out = []
    for j, pid in enumerate(rng.sample(wb_active, min(3, len(wb_active)))):
        if rng.random() < 0.5:
            out.append((1 + 2 * j, pid, ("Leave",)))
        else:
            q = rng.choice(sorted(qs.quorums_of(pid), key=sorted_ids))
            out.append((1 + 2 * j, pid, ("Remove", q)))
    return tuple(out)


def greatest_available_inside(qs, wb) -> frozenset:
    """The unique greatest subset of ``wb`` that is available inside itself.

    Available-inside sets are closed under union, so repeatedly deleting the
    processes that have no quorum inside the current set reaches it.
    """
    current = set(wb)
    while True:
        starved = {p for p in current
                   if not any(q <= current for q in qs.quorums_of(p))}
        if not starved:
            return frozenset(current)
        current -= starved


def stratified(strata: list, draw) -> list:
    """One drawn item per entry of ``strata``, in that order.

    ``draw()`` returns (item, stratum), stratum None to reject the item.
    Items are kept until every stratum has its share, so each seed's pool
    has the same mix; drawn freely, the mix (and with it the pool's cost)
    varied by up to 10 % between seeds.
    """
    want = Counter(strata)
    drawn = defaultdict(list)
    while any(len(drawn[key]) < k for key, k in want.items()):
        item, key = draw()
        if key in want and len(drawn[key]) < want[key]:
            drawn[key].append(item)
    taken = Counter()
    out = []
    for key in strata:
        out.append(drawn[key][taken[key]])
        taken[key] += 1
    return out


def large_pool(rng: random.Random, size: int, strata: tuple) -> list:
    """``size`` sharing systems of exactly ``LARGE_N`` processes, each with an
    outlived set checked by ``check_outlived``.

    A world's cost grows with the square of the declared quorums (set by the
    number of minimal quorums), with the Byzantine count and, for broadcast,
    with the Byzantine members of the minimal quorums, whom every process
    follows.  So the slots cycle through ``strata``: (minimal quorums,
    Byzantine members of them, Byzantine processes).

    ``gen.sharing_system`` first draws n uniformly from 3..n_max; a random
    stream whose first draw is not ``LARGE_N`` is skipped after that one draw
    instead of generating a system of the wrong size (38 times cheaper).
    The size is still checked on the system itself.
    """
    def draw():
        state = rng.getstate()
        if rng.randint(3, LARGE_N) != LARGE_N:
            return None, None
        rng.setstate(state)
        qs, attack = gen.sharing_system(rng, LARGE_N)
        if len(qs.universe) != LARGE_N:
            return None, None
        cores = minimal_quorums(qs, attack)
        key = (len(cores), len(frozenset().union(*cores) & attack.byzantine),
               len(attack.byzantine))
        if key not in strata:
            return None, None
        outlived = greatest_available_inside(qs, qs.active & attack.well_behaved)
        if not outlived or not props.check_outlived(qs, attack, outlived).holds:
            return None, None
        return (qs, attack, outlived), key

    return stratified([strata[i % len(strata)] for i in range(size)], draw)


# --- simulator workloads ---------------------------------------------------------


@dataclass(frozen=True)
class LeaveSpec:
    qs: object
    attack: object
    outlived: frozenset
    seed: int
    requests: tuple


@dataclass(frozen=True)
class BrbSpec:
    qs: object
    attack: object
    outlived: frozenset
    seed: int
    byz_sender: object
    sender: object


def trace_counts(trace) -> dict:
    """Deterministic per-op counters, read from the public trace."""
    kinds = Counter(e["kind"] for e in trace.events)
    tags = Counter(e["msg"][0] for e in trace.events if e["kind"] == "apl")
    asked = {e["node"]: e["step"] for e in trace.events if e["kind"] == "request"}
    steps = [step - asked.pop(pid) for step, pid, _ in trace.responses if pid in asked]
    return {"events": len(trace.events), "kinds": kinds, "tags": tags,
            "response_steps": steps}


class SimWorkload:
    """Shared op shape of the simulator workloads: build, run, serialise."""

    tail_pct = 99

    def digest(self, out) -> str:
        return _sha(out[2].encode())

    def counts(self, out) -> dict:
        return trace_counts(out[1])

    def post_check(self, pool) -> dict:
        return {}

    @staticmethod
    def _base_problems(trace) -> list:
        problems = []
        if trace.outcome != sim.QUIESCENT:
            problems.append(f"outcome {trace.outcome}")
        if trace.violations:
            problems.append(f"probe violation {trace.violations[0]}")
        return problems


class LeaveWorkload(SimWorkload):
    def run_op(self, spec: LeaveSpec):
        world = scenarios.make_reconfig_world(
            spec.qs, spec.attack, sim.SchedulePolicy(seed=spec.seed, fairness_bound=4),
            adversary=scenarios.CheckSpammer(), combined_checks=True)
        world.add_probe("intersection", scenarios.probe_intersection(spec.outlived))
        world.add_probe("active_inclusion", scenarios.probe_active_inclusion(spec.outlived))
        world.add_probe("active_availability",
                        scenarios.probe_active_availability(spec.outlived))
        for at, pid, request in spec.requests:
            world.request(at, pid, request)
        trace = world.run()
        return world, trace, trace.to_jsonl()

    def check(self, spec: LeaveSpec, out) -> list:
        """Criterion-05 post-run checks, plus: every request is answered."""
        world, trace, _ = out
        problems = self._base_problems(trace)
        remaining = spec.outlived - world.l_set
        quorums = {p: n.quorums for p, n in world.nodes.items()}
        if props.inclusion_witness(quorums, remaining, spec.attack.well_behaved) is not None:
            problems.append("inclusion fails for the remaining outlived set")
        if props.availability_witness({p: q for p, q in quorums.items() if p in remaining},
                                      remaining, remaining) is not None:
            problems.append("availability fails for the remaining outlived set")
        answered = Counter(pid for _, pid, _ in trace.responses)
        if answered != Counter(pid for _, pid, _ in spec.requests):
            problems.append(f"requests not answered once each: {dict(answered)}")
        return problems


class LeaveSmall(LeaveWorkload):
    name = "leave_small"
    systems = 500
    seeds_per_system = 4

    def generate(self, seed) -> list:
        """Systems cycle through n = 3..6; each gets ``seeds_per_system``
        schedules and request sets."""
        rng = random.Random(f"{self.name}/{seed}")

        def draw():
            system = gen.outlived_system(rng, n_max=6)
            return system, len(system[0].universe)

        pool = []
        for qs, attack, outlived in stratified([3 + i % 4 for i in range(self.systems)], draw):
            wb_active = sorted_ids(qs.active & attack.well_behaved)
            for _ in range(self.seeds_per_system):
                pool.append(LeaveSpec(qs, attack, frozenset(outlived),
                                      rng.randrange(2**31),
                                      pick_requests(rng, qs, wb_active)))
        return pool


class LeaveLarge(LeaveWorkload):
    name = "leave_large"
    systems = 48
    # thirds by minimal-quorum count, so the median op is mid-cluster; each
    # Byzantine process spams two Check broadcasts, so their count is fixed
    strata = tuple((cores, 0, byz) for byz in (9, 10) for cores in (1, 2, 3))
    tail_pct = 75

    def generate(self, seed) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for qs, attack, outlived in large_pool(rng, self.systems, self.strata):
            wb_active = sorted_ids(qs.active & attack.well_behaved)
            pool.append(LeaveSpec(qs, attack, outlived, rng.randrange(2**31),
                                  pick_requests(rng, qs, wb_active)))
        return pool


class BrbLarge(SimWorkload):
    name = "brb_large"
    systems = 80
    # one Byzantine process in the minimal quorums: every process follows it,
    # so the equivocation and the fake votes fan out to everyone
    strata = tuple((cores, 1, byz) for byz in (9, 10) for cores in (2, 3))
    tail_pct = 90

    def generate(self, seed) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for qs, attack, outlived in large_pool(rng, self.systems, self.strata):
            pool.append(BrbSpec(qs, attack, outlived, rng.randrange(2**31),
                                rng.choice(sorted_ids(attack.byzantine)),
                                rng.choice(sorted_ids(outlived))))
        return pool

    def run_op(self, spec: BrbSpec):
        world = scenarios.make_brb_world(
            spec.qs, spec.attack, sim.SchedulePolicy(seed=spec.seed),
            adversary=scenarios.BrbByzantine(sender=spec.byz_sender, values=("a", "b")))
        world.add_probe("brb_consistency", scenarios.probe_brb_consistency)
        world.request(1, spec.sender, ("Broadcast", "v"))
        trace = world.run()
        return world, trace, trace.to_jsonl()

    def check(self, spec: BrbSpec, out) -> list:
        """Criterion-11 checks: no duplication, validity, totality, integrity."""
        world, trace, _ = out
        problems = self._base_problems(trace)
        instances = {spec.byz_sender, spec.sender}
        for pid, node in world.nodes.items():
            if not set(node.delivered) <= instances:
                problems.append(f"{pid} delivered an unknown instance")
            if node.delivered.get(spec.sender, "v") != "v":
                problems.append(f"{pid} delivered a forged value for the honest sender")
        for pid in spec.outlived:
            if world.nodes[pid].delivered.get(spec.sender) != "v":
                problems.append(f"outlived {pid} did not deliver the honest value")
        byz_values = {n.delivered[spec.byz_sender] for n in world.nodes.values()
                      if spec.byz_sender in n.delivered}
        if len(byz_values) > 1:
            problems.append("the equivocating instance delivered two values")
        return problems


# --- checker workload --------------------------------------------------------------


def _quorums(qs, p) -> tuple:
    return qs.quorums_of(p) if qs.declares(p) else ()


def _definition_problem(qs, attack, at, report) -> str | None:
    """Re-check a failing report's witness directly against the definition."""
    wb = attack.well_behaved
    declared = [(p, q) for p in qs.active & wb if qs.declares(p)
                for q in qs.quorums_of(p)]
    kind, w = report.property, report.witness
    if kind == props.OUTLIVED:
        kind, w = w[0], w[1:]
    if kind == props.CONSISTENCY:
        q1, q2 = w
        ok = (any(q == q1 for _, q in declared) and any(q == q2 for _, q in declared)
              and not (q1 & q2 & at))
    elif kind in (props.AVAILABILITY, props.AVAILABLE_INSIDE):
        (p,) = w
        ok = p in at and not any(q <= at for q in _quorums(qs, p))
    elif kind == props.INCLUSION:
        q, p2 = w
        ok = (any(d == q for _, d in declared) and p2 in q & at
              and not any((q2 & wb) <= q for q2 in _quorums(qs, p2)))
    elif kind == props.SHARING:
        q, p2 = w
        ok = (any(d == q for _, d in qs.declared()) and p2 in q
              and not any(q2 <= q for q2 in _quorums(qs, p2)))
    else:
        ok = False
    return None if ok else f"{report.property} witness {report.witness} does not refute"


class Checkers:
    name = "checkers"
    systems = 3000
    tail_pct = 99.5
    search_cap = 12
    oracle_n = 8

    def generate(self, seed) -> list:
        """Cycle arbitrary n <= 12, sharing n <= 12 and sharing with wb > 12.

        Arbitrary systems cycle through n = 2..12: the few at n = 11, 12 set
        the tail.  Those with no well-behaved process are redrawn: every check
        is vacuous there, and maximal_outlived_sets answers [] where the
        definition (and tests/oracles.py) gives [frozenset()].
        """
        rng = random.Random(f"{self.name}/{seed}")

        def draw_arbitrary():
            qs, attack = gen.arbitrary_system(rng, n_max=12)
            keep = bool(qs.active & attack.well_behaved)
            return (qs, attack), len(qs.universe) if keep else None

        arbitrary = iter(stratified([2 + j % 11 for j in range(self.systems // 3)],
                                    draw_arbitrary))
        pool = []
        for i in range(self.systems):
            if i % 3 == 0:
                pool.append(next(arbitrary))
            elif i % 3 == 1:
                pool.append(gen.sharing_system(rng, n_max=12))
            else:
                while True:
                    qs, attack = gen.sharing_system(rng, n_max=2 * LARGE_N)
                    if len(qs.active & attack.well_behaved) > self.search_cap:
                        break
                pool.append((qs, attack))
        return pool

    def run_op(self, spec):
        qs, attack = spec
        wb = qs.active & attack.well_behaved
        reports = (props.check_consistency(qs, attack, wb),
                   props.check_quorum_inclusion(qs, attack, wb),
                   props.check_quorum_sharing(qs),
                   props.check_available_inside(qs, wb),
                   props.check_outlived(qs, attack, wb))
        maxout = (props.maximal_outlived_sets(qs, attack)
                  if len(wb) <= self.search_cap else None)
        sinks = graph.sink_components(graph.condense(graph.build_graph(qs)))
        return reports, maxout, sinks

    def digest(self, out) -> str:
        reports, maxout, sinks = out
        verdict = {"holds": [r.holds for r in reports],
                   "maxout": None if maxout is None else _sets(maxout),
                   "sinks": _sets(sinks)}
        return _sha(json.dumps(verdict, sort_keys=True).encode())

    def check(self, spec, out) -> list:
        qs, attack = spec
        reports, _, _ = out
        wb = qs.active & attack.well_behaved
        problems = []
        for r in reports:
            if not r.holds:
                problem = _definition_problem(qs, attack, wb, r)
                if problem:
                    problems.append(problem)
        return problems

    def counts(self, out) -> dict:
        return {}

    def post_check(self, pool) -> dict:
        """Compare every system with n <= 8 against tests/oracles.py."""
        import oracles
        bad = {}
        for k, (qs, attack) in enumerate(pool):
            if len(qs.universe) > self.oracle_n:
                continue
            (c, i, s, a, o), maxout, sinks = self.run_op((qs, attack))
            wb = qs.active & attack.well_behaved
            g = graph.build_graph(qs)
            want = (oracles.oracle_consistency(qs, attack, wb),
                    oracles.oracle_inclusion(qs, attack, wb),
                    oracles.oracle_sharing(qs),
                    oracles.oracle_availability(qs, wb, wb))
            want_o = want[0] and want[1] and want[3]
            got = (c.holds, i.holds, s.holds, a.holds)
            if (got != want or o.holds != want_o
                    or _sets(maxout) != _sets(oracles.oracle_maximal_outlived_sets(qs, attack))
                    or _sets(sinks) != _sets(oracles.oracle_sinks(g.vertices, g.edges))):
                bad[k] = "disagrees with tests/oracles.py"
        return bad


WORKLOADS = {w.name: w for w in (LeaveSmall(), LeaveLarge(), BrbLarge(), Checkers())}
