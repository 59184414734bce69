from hqs.core import Attack, new_quorum_system
from hqs.fixtures import load_fixture
from hqs.scenarios import (
    AddAccomplice,
    AddEquivocator,
    current_system,
    make_reconfig_world,
    probe_add_no_split,
    probe_intersection,
    probe_tentative_inclusion,
)
from hqs.props import check_consistency, check_quorum_inclusion
from hqs.sim import SchedulePolicy


def fs(*xs):
    return frozenset(xs)


def run_adds(qs, attack, requests, *, seed=0, adversary=None, outlived=(),
             step_cap=10_000):
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=seed),
                                adversary=adversary, step_cap=step_cap)
    if outlived:
        world.add_probe("intersection", probe_intersection(outlived))
        world.add_probe("tentative_inclusion", probe_tentative_inclusion(outlived))
    world.add_probe("add_no_split", probe_add_no_split)
    for at, pid, quorum in requests:
        world.request(at, pid, ("Add", frozenset(quorum)))
    trace = world.run()
    return world, trace


def outcomes(trace):
    return [(p, r) for (_, p, r) in trace.responses]


def test_phase1_all_acks_completes_without_phase2():
    qs, attack = load_fixture("fig1")
    world, trace = run_adds(qs, attack, [(1, 3, (2, 3, 5))],
                            outlived=fs(2, 3, 5))
    assert outcomes(trace) == [(3, "AddComplete")]
    assert not trace.violations
    # the superset collapses under minimality, mirroring the pure oracle
    assert world.nodes[3].quorums == {fs(2, 3)}
    assert not any(e["kind"] == "apl" and e["msg"][0] == "CheckAdd"
                   for e in trace.events)


def test_phase1_partition_fig1_add_123():
    # 1 lacks any quorum inside {1,2,3} and must nack; 2 and 3 ack
    qs, attack = load_fixture("fig1")
    world, trace = run_adds(qs, attack, [(1, 2, (1, 2, 3))])
    acks = {e["src"] for e in trace.events
            if e["kind"] == "apl" and e["msg"][0] == "AckInclusion"}
    nacks = {e["src"] for e in trace.events
             if e["kind"] == "apl" and e["msg"][0] == "NackInclusion"}
    assert acks == {2, 3} and nacks == {1}
    checkadds = {e["dst"] for e in trace.events
                 if e["kind"] == "apl" and e["msg"][0] == "CheckAdd"}
    assert checkadds == {1}
    # {1} blocks nobody but 1 itself, so the intersection check aborts the add
    assert outcomes(trace) == [(2, "AddFail")]
    assert world.nodes[2].quorums == set(qs.quorums_of(2))


def test_running_example_add_35_nacked_by_5_and_aborted():
    qs, attack = load_fixture("fig1")
    world, trace = run_adds(qs, attack, [(1, 3, (3, 5))],
                            outlived=fs(2, 3, 5))
    # 5's only quorum {2,5} is no subset of {3,5}: 5 joins the nack set,
    # then 2 rejects the intersection check and the add aborts
    assert outcomes(trace) == [(3, "AddFail")]
    assert not trace.violations
    assert world.nodes[3].quorums == set(qs.quorums_of(3))
    # the tentative entry is garbage-collected on the fail path
    assert world.nodes[5].tentative == set()
    assert world.nodes[5].fail_completed == {(3, fs(3, 5))}


def test_double_spend_adds_never_both_complete():
    qs, attack = load_fixture("s5_base")
    outl = fs(2, 3)
    completed = set()
    for seed in range(40):
        world, trace = run_adds(
            qs, attack,
            [(1, 2, (2, 4)), (1, 3, (1, 3))],
            seed=seed, adversary=AddAccomplice(), outlived=outl)
        got = dict(outcomes(trace))
        assert not trace.violations
        assert got.get(3) != "AddComplete"  # {1,3} misses the outlived set
        if got.get(2) == "AddComplete":
            completed.add(seed)
            assert fs(2, 4) in world.nodes[2].quorums or fs(2) in world.nodes[2].quorums
    assert completed  # the benign add does complete on some schedules


def test_double_spend_issue_orders_exhaustive():
    qs, attack = load_fixture("s5_base")
    outl = fs(2, 3)
    for first, second in (((2, (2, 4)), (3, (1, 3))), ((3, (1, 3)), (2, (2, 4)))):
        for gap in (1, 5, 40):
            world, trace = run_adds(
                qs, attack,
                [(1, first[0], first[1]), (1 + gap, second[0], second[1])],
                seed=0, adversary=AddAccomplice(), outlived=outl)
            got = dict(outcomes(trace))
            assert not trace.violations
            assert [got.get(2), got.get(3)].count("AddComplete") <= 1
            assert got.get(3) != "AddComplete"


def test_byzantine_requester_equivocation_success_wins():
    # base system where everyone trusts the triple {1,2,3}; 4 is Byzantine
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2, 3}], 2: [{1, 2, 3}], 3: [{1, 2, 3}]},
        byzantine={4})
    attack = Attack.of([1, 2, 3, 4], {4})
    q_c = fs(2, 3)
    for seed in range(30):
        world, trace = run_adds(
            qs, attack, [], seed=seed,
            adversary=AddEquivocator(4, q_c, success_first=(2,)),
            outlived=fs(1, 2, 3))
        assert not trace.violations, trace.violations
        succeeded = {p for p, n in world.nodes.items()
                     if n.succeeded.get((4, q_c))}
        failed = {p for p, n in world.nodes.items()
                  if (4, q_c) in n.fail_completed}
        # the split never takes both branches
        assert not (succeeded and failed)
        assert succeeded <= {2, 3} and failed <= {2, 3}
        for p in succeeded:
            assert q_c in world.nodes[p].quorums
        # a member that rejected the Success because a Fail arrived first
        # must still hold its tentative entry, keeping inclusion intact
        for p in {2, 3} - succeeded - failed:
            assert (4, q_c) in world.nodes[p].tentative


def test_success_message_requires_all_signatures():
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2, 3}], 2: [{1, 2, 3}], 3: [{1, 2, 3}]},
        byzantine={4})
    attack = Attack.of([1, 2, 3, 4], {4})

    class ForgeSuccess(AddEquivocator):
        def on_init(self, world):
            # skip the protocol: send Success with no signatures at all
            for p in (2, 3):
                world.adversary_send(4, p, ("Success", 4, self.q_c, ()))

    world, trace = run_adds(qs, attack, [], adversary=ForgeSuccess(4, fs(2, 3)))
    assert all(not n.succeeded for n in world.nodes.values())


def test_fail_message_requires_requester_signature():
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2, 3}], 2: [{1, 2, 3}], 3: [{1, 2, 3}]},
        byzantine={4})
    attack = Attack.of([1, 2, 3, 4], {4})

    class ForgeFail(AddEquivocator):
        def on_init(self, world):
            sig = world.sign(4, ("Fail", 4, fs(9)), by_adversary=True)
            for p in (2, 3):
                world.adversary_send(4, p, ("Fail", 4, self.q_c, sig))

    world, trace = run_adds(qs, attack, [], adversary=ForgeFail(4, fs(2, 3)))
    assert all(not n.failed for n in world.nodes.values())


def test_completed_add_restores_full_inclusion():
    qs, attack = load_fixture("s5_base")
    world, trace = run_adds(qs, attack, [(1, 2, (2, 4))],
                            adversary=AddAccomplice(), outlived=fs(2, 3))
    got = dict(outcomes(trace))
    assert got.get(2) == "AddComplete"
    cur = current_system(world, qs)
    assert check_quorum_inclusion(cur, attack, fs(2, 3)).holds
    assert check_consistency(cur, attack, fs(2, 3)).holds


def split_world(ids, splits):
    """A world of ``ids`` in which each (requester, q_c) of ``splits``
    succeeded at the first id and fail-completed at the second."""
    qs = new_quorum_system(ids, {p: [ids] for p in ids})
    world = make_reconfig_world(qs, Attack.of(ids), SchedulePolicy(seed=0))
    first, second = (world.nodes[p] for p in ids[:2])
    for key in splits:
        first.succeeded[key] = True
        second.fail_completed.add(key)
    return world


def test_add_no_split_witness_spells_str_ids_in_sorted_order():
    # the members of a str frozenset iterate in an order the hash seed picks;
    # the witness lists them sorted, as a node's tentative summary does
    world = split_world(["a", "b", "c", "d"],
                        [("a", fs("c", "d")), ("a", fs("b", "c", "d")), ("b", fs("a"))])
    assert probe_add_no_split(world) == [["a", ["b", "c", "d"]], ["a", ["c", "d"]],
                                         ["b", ["a"]]]


def test_add_no_split_witness_orders_mixed_ids():
    # requester 1's two q_c lists put an int beside a str: ints sort before
    # strs, within a quorum and across quorums
    world = split_world([1, 2, "a", "b"],
                        [(1, fs("b", 2)), ("a", fs(1, 2)), (1, fs("a", "b")), (2, fs("b"))])
    assert probe_add_no_split(world) == [["1", [2, "b"]], ["1", ["a", "b"]],
                                         ["2", ["b"]], ["a", [1, 2]]]
