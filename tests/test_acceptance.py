"""Acceptance suite: one test per criterion, each printing a verdict line.

Sizes and tolerances are pinned here, not configurable: paper-example values
are exact set equalities, generated-population counts are the stated ones.
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` for the lines).
"""

import random

from hqs.core import (Attack, add, minimal_quorums, new_quorum_system, sorted_ids,
                      system_from_json)
from hqs.fixtures import load_fixture
from hqs.gen import checked_sharing_system, outlived_system
from hqs.graph import condense, build_graph, sink_components, well_behaved_sink
from hqs.props import (
    availability_witness,
    check_available_inside,
    check_availability,
    check_consistency,
    check_outlived,
    check_quorum_inclusion,
    inclusion_witness,
    maximal_outlived_sets,
)
from hqs.scenarios import (
    AddAccomplice,
    AddEquivocator,
    BrbByzantine,
    CheckSpammer,
    JoinResponder,
    SinkDeceiver,
    current_system,
    make_brb_world,
    make_discovery_world,
    make_reconfig_world,
    probe_add_no_split,
    probe_brb_consistency,
    probe_active_availability,
    probe_active_inclusion,
    probe_intersection,
    probe_tentative_inclusion,
    run_scenario,
)
from hqs.sim import SchedulePolicy

from test_graph import graph_lemma_violations

import oracles


def fs(*xs):
    return frozenset(xs)


def verdict(n, text):
    print(f"criterion {n:2d} PASS  {text}")


def test_criterion_01_fig1_paper_values():
    qs, attack = load_fixture("fig1")
    assert minimal_quorums(qs, attack) == {fs(1, 2), fs(2, 3), fs(2, 5)}
    assert check_consistency(qs, attack, attack.well_behaved).holds
    assert not check_availability(qs, {1}, attack.well_behaved).holds
    assert check_available_inside(qs, {2, 3, 5}).holds
    assert check_quorum_inclusion(qs, attack, attack.well_behaved).holds
    assert maximal_outlived_sets(qs, attack) == [fs(2, 3, 5)]
    verdict(1, "fig1: MQ, consistency, availability, inclusion, outlived exact")


def test_criterion_02_fig2_paper_values():
    qs, attack = load_fixture("fig2")
    sinks = sink_components(condense(build_graph(qs)))
    assert len(sinks) == 1 and sinks[0] == fs(1, 2, 3, 5)
    assert well_behaved_sink(qs, attack) == fs(1, 2, 3)
    assert minimal_quorums(qs, attack) == {fs(1, 2), fs(1, 3, 5)}
    verdict(2, "fig2: unique sink {1,2,3,5}, wb sink {1,2,3}, MQ exact")


def test_criterion_03_sink_discovery_under_deceit():
    qs, attack = load_fixture("fig2")
    sink = fs(1, 2, 3, 5)
    for seed in range(100):
        world = make_discovery_world(qs, attack, SchedulePolicy(seed=seed),
                                     adversary=SinkDeceiver())
        trace = world.run()
        assert trace.outcome == "quiescent"
        proto = {p for p, n in world.nodes.items() if n.in_sink}
        assert fs(1, 2, 3) <= proto          # completeness
        assert proto <= sink                  # accuracy
        assert not world.nodes[4].in_sink     # the deceit never lands
    verdict(3, "sink discovery: complete and accurate on 100 seeds, 4 never fooled")


def test_criterion_04_graph_lemma_suite_500_systems():
    rng = random.Random(2024)
    violations = 0
    for _ in range(500):
        qs, attack = checked_sharing_system(rng, n_max=7)
        violations += len(graph_lemma_violations(qs, attack))
    assert violations == 0
    verdict(4, "graph lemmas 1/2/3/6 + containment: 0 violations on 500 systems")


def test_criterion_05_leave_remove_preservation():
    rng = random.Random(515151)
    systems = [outlived_system(rng, n_max=6) for _ in range(200)]
    total = 0
    for i, (qs, attack, outlived) in enumerate(systems):
        wb_active = sorted_ids(qs.active & attack.well_behaved)
        for seed in range(100):
            picker = random.Random(i * 1009 + seed)
            world = make_reconfig_world(
                qs, attack, SchedulePolicy(seed=seed, fairness_bound=4),
                adversary=CheckSpammer(), combined_checks=True)
            world.add_probe("intersection", probe_intersection(outlived))
            world.add_probe("active_inclusion", probe_active_inclusion(outlived))
            world.add_probe("active_availability",
                            probe_active_availability(outlived))
            for j, pid in enumerate(picker.sample(wb_active,
                                                  min(3, len(wb_active)))):
                if picker.random() < 0.5:
                    world.request(1 + 2 * j, pid, ("Leave",))
                else:
                    q = picker.choice(sorted(qs.quorums_of(pid), key=sorted_ids))
                    world.request(1 + 2 * j, pid, ("Remove", q))
            trace = world.run()
            total += 1
            assert trace.outcome == "quiescent"
            assert not trace.violations, (i, seed, trace.violations[:1])
            remaining = frozenset(outlived) - world.l_set
            quorums = {p: n.quorums for p, n in world.nodes.items()}
            assert inclusion_witness(quorums, remaining,
                                     attack.well_behaved) is None, (i, seed)
            assert availability_witness(
                {p: q for p, q in quorums.items() if p in remaining},
                remaining, remaining) is None, (i, seed)
    assert total == 20_000
    verdict(5, "AC leave/remove: 0 probe violations over 200 systems x 100 seeds")


def test_criterion_06_leave_serialization_both_orders():
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"a", "b"}], "c": [{"a", "b", "c"}]})
    attack = Attack.of(["a", "b", "c"])
    for order in (("a", "b"), ("b", "a")):
        world = make_reconfig_world(
            qs, attack,
            SchedulePolicy(seed=0, tob_order=order))
        world.add_probe("intersection", probe_intersection(fs("a", "b", "c")))
        world.request(1, "a", ("Leave",))
        world.request(1, "b", ("Leave",))
        trace = world.run()
        got = {p: r for (_, p, r) in trace.responses}
        winner, loser = order
        assert got == {winner: "LeaveComplete", loser: "LeaveFail"}
        assert not trace.violations
    verdict(6, "concurrent leaves at the last intersection: one Complete, one Fail "
               "in both tob orders")


def _double_spend_run(seed, first, second, gap):
    qs, attack = load_fixture("s5_base")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=seed),
                                adversary=AddAccomplice())
    world.add_probe("intersection", probe_intersection(fs(2, 3)))
    world.add_probe("tentative_inclusion", probe_tentative_inclusion(fs(2, 3)))
    world.request(1, first[0], ("Add", frozenset(first[1])))
    world.request(1 + gap, second[0], ("Add", frozenset(second[1])))
    trace = world.run()
    assert trace.outcome == "quiescent"
    assert not trace.violations, trace.violations[:1]
    got = {p: r for (_, p, r) in trace.responses}
    assert [got.get(2), got.get(3)].count("AddComplete") <= 1
    assert got.get(3) != "AddComplete"


def test_criterion_07_double_spend_adds_prevented():
    add_a, add_b = (2, (2, 4)), (3, (1, 3))
    for first, second in ((add_a, add_b), (add_b, add_a)):
        for gap in (0, 1, 3, 8, 50):
            _double_spend_run(0, first, second, gap)
    for seed in range(100):
        _double_spend_run(seed, add_a, add_b, 0)
    verdict(7, "concurrent double-spend adds: never both complete, consistency "
               "at O intact on every step (10 interleavings + 100 seeds)")


def test_criterion_08_byzantine_requester_equivocation():
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2, 3}], 2: [{1, 2, 3}], 3: [{1, 2, 3}]},
        byzantine={4})
    attack = Attack.of([1, 2, 3, 4], {4})
    q_c = fs(2, 3)
    for seed in range(100):
        world = make_reconfig_world(
            qs, attack, SchedulePolicy(seed=seed),
            adversary=AddEquivocator(4, q_c, success_first=(2,)))
        world.add_probe("tentative_inclusion", probe_tentative_inclusion(fs(1, 2, 3)))
        world.add_probe("add_no_split", probe_add_no_split)
        trace = world.run()
        assert trace.outcome == "quiescent"
        assert not trace.violations, (seed, trace.violations[:1])
        succeeded = {p for p, n in world.nodes.items() if n.succeeded.get((4, q_c))}
        failed = {p for p, n in world.nodes.items() if (4, q_c) in n.fail_completed}
        assert not (succeeded and failed)
    verdict(8, "Success/Fail equivocation: tentative inclusion held each step, "
               "no split outcome over 100 seeds")


def undeclared_quorums(initial, final, granted=None) -> dict:
    """{p: the quorums p holds in ``final`` that it neither declared in
    ``initial`` nor gained by a completed Add in ``granted``}, for each p that
    holds one: reconfiguration must not fabricate or shrink policies."""
    granted = granted or {}
    out = {}
    for p, quorums in final.quorum_map().items():
        allowed = set(initial.quorums_of(p) if initial.declares(p) else ()) | granted.get(p, set())
        extra = {q for q in quorums if q not in allowed}
        if extra:
            out[p] = extra
    return out


def test_criterion_09_trade_off_dilemmas():
    # fig. 4's first system: process 2's Leave forces 3's availability against
    # its policy; the shipped AC and PC scenarios take the two sides
    declared, _ = load_fixture("fig4_q1_leave")
    for name, available, changed in (("ac_leave_fig4_q1", True, {3}),
                                     ("pc_leave_fig4_q1", False, set())):
        _, _, v = run_scenario(name)
        assert [r for _, p, r in v["responses"] if p == "2"] == ["LeaveComplete"]
        final, attack = system_from_json(v["final_system"])
        assert check_availability(final, {3}, attack.well_behaved - {2}).holds is available
        assert set(undeclared_quorums(declared, final)) == changed, name
    # fig. 4's second system, in the pure state: a faithful protocol run refuses
    # 2's Add, so the terminating branch is applied with the oracle and then
    # repaired the only way consistency allows, by adding 2 to each well-behaved
    # quorum that misses the added quorum's well-behaved part
    qs, attack = load_fixture("fig4_q2")
    wb, added = attack.well_behaved, fs(1, 2)
    after_add = add(qs, 2, added)
    assert not check_consistency(after_add, attack, wb).holds
    repaired = new_quorum_system(
        after_add.active,
        {p: [q | {2} if p in wb and not q & added & wb else q for q in quorums]
         for p, quorums in after_add.quorum_map().items()},
        universe=after_add.universe, byzantine=attack.byzantine)
    assert added in repaired.quorums_of(2)
    assert check_consistency(repaired, attack, wb).holds
    assert 4 in undeclared_quorums(qs, repaired, {2: {added}})
    verdict(9, "fig4 dilemmas: AC trades policy for availability, PC the reverse, "
               "the terminating add costs process 4 its policy")


def test_criterion_10_join_fixpoint_and_timeout():
    qs, attack = load_fixture("fig1")
    decls = {p: [set(q) for q in qs.quorums_of(p)] for p in (1, 2, 3, 5)}
    decls[4] = [{1, 2, 4}]
    expected = oracles.oracle_join_fixpoint({2}, decls)
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=1),
                                adversary=JoinResponder({4: [fs(1, 2, 4)]}),
                                joiners=[9])
    world.request(1, 9, ("Join", fs(2), 400))
    trace = world.run()
    got = {p: r for (_, p, r) in trace.responses}
    assert got == {9: "JoinComplete"}
    assert world.nodes[9].quorums == expected
    # pre-existing property reports unchanged
    for p in (1, 2, 3, 5):
        assert world.nodes[p].quorums == set(qs.quorums_of(p))
    cur = current_system(world, qs)
    attack2 = Attack.of(cur.universe, attack.byzantine)
    assert minimal_quorums(cur, attack2) == minimal_quorums(qs, attack)
    assert check_outlived(cur, attack2, fs(2, 3, 5)).holds
    # a silent Byzantine probe target stalls the fixpoint: timeout
    world2 = make_reconfig_world(qs, attack, SchedulePolicy(seed=1), joiners=[9])
    world2.request(1, 9, ("Join", fs(2), 150))
    trace2 = world2.run()
    assert {r for (_, p, r) in trace2.responses if p == 9} == {"JoinTimeout"}
    verdict(10, "join reaches the derived fixpoint, leaves reports unchanged, "
                "and times out on a silent probe target")


def test_criterion_11_brb_suite_on_generated_fixtures():
    rng = random.Random(1111)
    fixtures = []
    while len(fixtures) < 100:
        qs, attack, outlived = outlived_system(rng, n_max=6)
        if attack.byzantine:
            fixtures.append((qs, attack, outlived))
    for i, (qs, attack, outlived) in enumerate(fixtures):
        seed = rng.randrange(10_000)
        byz_sender = sorted_ids(attack.byzantine)[0]
        world = make_brb_world(qs, attack, SchedulePolicy(seed=seed),
                               adversary=BrbByzantine(sender=byz_sender,
                                                      values=("a", "b")))
        world.add_probe("brb_consistency", probe_brb_consistency)
        trace = world.run()
        assert trace.outcome == "quiescent" and not trace.violations, i
        for node in world.nodes.values():
            assert len(node.delivered) <= 1  # no duplication
        # honest run: validity and totality for the outlived set
        sender = sorted_ids(outlived)[0]
        world2 = make_brb_world(qs, attack, SchedulePolicy(seed=seed + 1),
                                adversary=BrbByzantine(sender=None,
                                                       values=("x", "v")))
        world2.add_probe("brb_consistency", probe_brb_consistency)
        world2.request(1, sender, ("Broadcast", "v"))
        trace2 = world2.run()
        assert trace2.outcome == "quiescent" and not trace2.violations, i
        got = {p: n.delivered.get(sender) for p, n in world2.nodes.items()
               if sender in n.delivered}
        for p in outlived:
            assert got.get(p) == "v", (i, p)
        assert all(v == "v" for v in got.values()), i  # integrity
    verdict(11, "BRB: consistency/no-duplication/integrity, validity and "
                "totality on 100 generated outlived fixtures")


def test_criterion_12_deterministic_traces():
    for name in ("ac_leave_fig1", "add_attack_concurrent",
                 "discovery_fig2_deceive", "brb_honest_fig1"):
        _, t1, _ = run_scenario(name)
        _, t2, _ = run_scenario(name)
        assert t1.to_jsonl() == t2.to_jsonl(), name
    verdict(12, "byte-identical traces on re-run for all named scenarios")
