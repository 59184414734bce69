import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from hqs.core import Attack, new_quorum_system, quorum_key, sorted_ids
from hqs.fixtures import load_fixture
from hqs.gen import outlived_system
from hqs.props import availability_witness, inclusion_witness
from hqs.reconfig import ReconfigNode, _check_passes
from hqs.scenarios import (
    CheckSpammer,
    JoinResponder,
    current_system,
    make_reconfig_world,
    probe_active_availability,
    probe_active_inclusion,
    probe_intersection,
    probe_intersection_full,
)
from hqs.sim import Adversary, SchedulePolicy, Signature

import oracles


def fs(*xs):
    return frozenset(xs)


def run_requests(qs, attack, requests, *, seed=0, mode="ac", sink_info=None,
                 adversary=None, probes=(), outlived=(), tob_order=(),
                 combined=True):
    policy = SchedulePolicy(seed=seed, tob_order=tuple(tob_order))
    world = make_reconfig_world(qs, attack, policy, mode=mode,
                                combined_checks=combined, sink_info=sink_info,
                                adversary=adversary,
                                joiners=[r[1] for r in requests if r[2][0] == "Join"])
    for name in probes:
        factory = {"intersection": probe_intersection,
                   "intersection_full": probe_intersection_full,
                   "active_inclusion": probe_active_inclusion,
                   "active_availability": probe_active_availability}[name]
        world.add_probe(name, factory(outlived))
    for (at, pid, req) in requests:
        world.request(at, pid, req)
    trace = world.run()
    return world, trace


def responses(trace):
    return [(p, r) for (_, p, r) in trace.responses]


# --- AC leave -----------------------------------------------------------------


def test_ac_leave_fig1_node5_and_follower_shrink():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 5, ("Leave",))],
        probes=("intersection", "active_inclusion", "active_availability"),
        outlived=fs(2, 3, 5))
    assert responses(trace) == [(5, "LeaveComplete")]
    assert not trace.violations
    # oracle for the shrink rule: {2,5}\{5}={2} subsumes {1,2} and {2,3}
    assert world.nodes[2].quorums == {fs(2)}
    assert world.nodes[5].frozen
    assert 5 in world.l_set


def test_ac_leave_outside_sink_skips_coordination():
    qs, attack = load_fixture("fig2")
    world, trace = run_requests(qs, attack, [(1, 6, ("Leave",))],
                                sink_info="oracle")
    assert responses(trace) == [(6, "LeaveComplete")]
    assert not any(e["kind"] == "tob_order" for e in trace.events)
    # follower set of 6 is just itself, so no other quorums change
    assert world.nodes[1].quorums == {fs(1, 2), fs(1, 3, 5)}


def test_ac_leave_inside_sink_coordinates():
    qs, attack = load_fixture("fig2")
    world, trace = run_requests(qs, attack, [(1, 2, ("Leave",))],
                                sink_info="oracle")
    assert any(e["kind"] == "tob_order" for e in trace.events)


def test_ac_leave_local_check_failure():
    # every quorum-pair intersection is just the process itself
    qs = new_quorum_system([1, 2, 3], {1: [{1, 2}, {1, 3}], 2: [{1, 2}], 3: [{1, 3}]})
    attack = Attack.of([1, 2, 3])
    world, trace = run_requests(qs, attack, [(1, 1, ("Leave",))])
    assert responses(trace) == [(1, "LeaveFail")]
    assert not any(e["kind"] == "tob_order" for e in trace.events)


def test_ac_leave_conservative_mode_broadcasts_check():
    qs, attack = load_fixture("fig4_q1_leave")
    world, trace = run_requests(qs, attack, [(1, 2, ("Leave",))])
    assert any(e["kind"] == "tob_order" for e in trace.events)
    assert responses(trace) == [(2, "LeaveComplete")]


def test_concurrent_leaves_serialize_one_completes():
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"a", "b"}], "c": [{"a", "b", "c"}]})
    attack = Attack.of(["a", "b", "c"])
    for order in (("a", "b"), ("b", "a")):
        world, trace = run_requests(
            qs, attack, [(1, "a", ("Leave",)), (1, "b", ("Leave",))],
            tob_order=order,
            probes=("intersection",), outlived=fs("a", "b", "c"))
        got = dict(responses(trace))
        winner, loser = order
        assert got[winner] == "LeaveComplete"
        assert got[loser] == "LeaveFail"
        assert not trace.violations


def test_a_hint_for_an_idle_process_does_not_stall_the_later_hints():
    # c never broadcasts: b, the earliest-hinted pending src, goes first
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"a", "b"}], "c": [{"a", "b", "c"}]})
    attack = Attack.of(["a", "b", "c"])
    world, trace = run_requests(
        qs, attack, [(1, "a", ("Leave",)), (1, "b", ("Leave",))],
        tob_order=("c", "b", "a"), probes=("intersection",), outlived=fs("a", "b", "c"))
    got = dict(responses(trace))
    assert got["b"] == "LeaveComplete" and got["a"] == "LeaveFail"
    assert world._tob_hints == ["c"]
    assert not trace.violations


def test_busy_response_for_overlapping_requests():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 2, ("Add", fs(2, 3, 5))), (1, 2, ("Leave",))])
    assert (2, "Busy") in responses(trace)


def test_an_unknown_request_and_an_empty_add_are_answered():
    qs, attack = load_fixture("fig1")
    _, trace = run_requests(qs, attack, [(1, 2, ("Frobnicate",)), (1, 3, ("Add", fs()))])
    assert sorted(responses(trace)) == [(2, "UnknownRequest"), (3, "AddFail")]


def test_left_is_idempotent_and_ignores_strangers():
    qs, attack = load_fixture("fig1")
    world, _ = run_requests(qs, attack, [])
    node = world.nodes[2]

    class Api:
        me = 2

        def send(self, dst, payload):
            pass

    node._on_left(Api(), 5)
    once = set(node.quorums)
    node._on_left(Api(), 5)
    assert node.quorums == once
    node._on_left(Api(), 99)
    assert node.quorums == once


# --- AC remove -----------------------------------------------------------------


def test_ac_remove_updates_requester_and_followers():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 1, ("Remove", fs(1, 2, 4)))],
        probes=("intersection", "active_inclusion", "active_availability"),
        outlived=fs(2, 3, 5))
    assert responses(trace) == [(1, "RemoveComplete")]
    assert not trace.violations
    assert world.nodes[1].quorums == set()
    # the remover may have fallen out of the outlived set: followers purge it
    assert world.nodes[2].quorums == {fs(2)}
    assert 1 in world.l_set and not world.nodes[1].frozen


def test_ac_remove_keeps_other_quorums_of_requester():
    qs = new_quorum_system(
        ["a", "b", "c", "d"],
        {"a": [{"a", "b", "c"}, {"a", "b", "d"}],
         "b": [{"a", "b", "c"}, {"a", "b", "d"}],
         "c": [{"a", "b", "c"}], "d": [{"a", "b", "d"}]})
    attack = Attack.of(["a", "b", "c", "d"])
    world, trace = run_requests(
        qs, attack, [(1, "a", ("Remove", fs("a", "b", "c")))],
        probes=("intersection", "active_inclusion", "active_availability"),
        outlived=fs("a", "b", "c", "d"))
    assert responses(trace) == [("a", "RemoveComplete")]
    assert not trace.violations
    assert world.nodes["a"].quorums == {fs("b", "d")}  # followers purged "a" too


def test_ac_remove_linchpin_denied_locally():
    # every pair of 2's quorums meets only at 2, so 2 may neither
    # leave nor remove under the conservative reading
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(qs, attack, [(1, 2, ("Remove", fs(2, 5)))])
    assert responses(trace) == [(2, "RemoveFail")]
    assert not any(e["kind"] == "tob_order" for e in trace.events)
    assert world.nodes[2].quorums == set(qs.quorums_of(2))


def test_ac_remove_of_unknown_quorum_fails():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(qs, attack, [(1, 2, ("Remove", fs(1, 3)))])
    assert responses(trace) == [(2, "RemoveFail")]


def test_ac_remove_denied_when_intersection_would_empty():
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"a", "b"}], "c": [{"a", "b", "c"}]})
    attack = Attack.of(["a", "b", "c"])
    world, trace = run_requests(
        qs, attack,
        [(1, "a", ("Leave",)), (8, "b", ("Remove", fs("a", "b")))],
        probes=("intersection",), outlived=fs("a", "b", "c"))
    got = dict(responses(trace))
    assert got["a"] == "LeaveComplete"
    assert got["b"] == "RemoveFail"
    assert not trace.violations


# --- PC protocols ----------------------------------------------------------------


def test_pc_leave_drops_whole_quorums():
    qs, attack = load_fixture("fig4_q1_leave")
    world, trace = run_requests(
        qs, attack, [(1, 2, ("Leave",))], mode="pc",
        probes=("intersection_full",), outlived=fs(2, 3, 4))
    assert responses(trace) == [(2, "LeaveComplete")]
    assert not trace.violations
    # 3 dropped {2,3} outright instead of shrinking it
    assert world.nodes[3].quorums == {fs(1, 3, 4)}
    # policy preserved: every surviving quorum was declared initially
    for p, node in world.nodes.items():
        if node.frozen:
            continue
        declared = set(qs.quorums_of(p))
        assert node.quorums <= declared


def test_pc_remove_is_local():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 2, ("Remove", fs(2, 5)))], mode="pc")
    assert responses(trace) == [(2, "RemoveComplete")]
    assert world.nodes[2].quorums == {fs(1, 2), fs(2, 3)}
    # nobody else changed
    assert world.nodes[3].quorums == {fs(2, 3)}
    assert world.nodes[5].quorums == {fs(2, 5)}


def test_pc_remove_of_last_quorum_leaves_empty_set():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 3, ("Remove", fs(2, 3)))], mode="pc")
    assert responses(trace) == [(3, "RemoveComplete")]
    assert world.nodes[3].quorums == set()
    cur = current_system(world, qs)
    assert any("no quorums left" in d for d in cur.diagnostics)


# --- Byzantine interference -------------------------------------------------------


def test_fake_checks_cannot_break_safety_probes():
    qs, attack = load_fixture("fig1")
    for seed in range(10):
        world, trace = run_requests(
            qs, attack, [(1, 5, ("Leave",)), (3, 2, ("Remove", fs(2, 5)))],
            seed=seed, adversary=CheckSpammer(),
            probes=("intersection", "active_inclusion", "active_availability"),
            outlived=fs(2, 3, 5))
        assert not trace.violations
        assert trace.outcome == "quiescent"
        # Byzantine ids may enter tombs; well-behaved ones only via approval
        for node in world.nodes.values():
            assert node.tomb <= attack.byzantine | world.l_set


class ByzantineTob(Adversary):
    """On init, Byzantine 4 broadcasts ``payload`` through the total order."""

    def __init__(self, payload):
        self.payload = payload

    def on_init(self, world):
        world.adversary_tob(4, self.payload)


def tombs(world):
    return {p: set(node.tomb) for p, node in world.nodes.items()}


def test_a_broadcast_that_is_not_a_check_is_ignored():
    qs, attack = load_fixture("fig1")
    quorums = (fs(2, 4),)
    world, _ = run_requests(qs, attack, [], adversary=ByzantineTob(("LeaveCheck", quorums)))
    assert set(map(frozenset, tombs(world).values())) == {fs(4)}   # the Check passes
    world, _ = run_requests(qs, attack, [], adversary=ByzantineTob(("Noise", quorums)))
    assert set(map(frozenset, tombs(world).values())) == {fs()}


@pytest.mark.parametrize("declared", [[[2, 4]], ([2, 4],), [[2, 5], [2, 3]]])
def test_a_byzantine_check_with_list_quorums_acts_as_its_frozenset_form(declared):
    qs, attack = load_fixture("fig1")
    requests = [(1, 5, ("Leave",)), (2, 2, ("Remove", fs(2, 3)))]
    runs = []
    for quorums in (declared, tuple(map(frozenset, declared))):
        world, trace = run_requests(qs, attack, requests,
                                    adversary=ByzantineTob(("LeaveCheck", quorums)))
        runs.append((tombs(world), responses(trace)))
    assert runs[0] == runs[1]


class RecordingApi:
    """A node's api that records every call and changes nothing, except
    ``verify``, which asks the world."""

    def __init__(self, world, me):
        self.world, self.me, self.calls = world, me, []

    def verify(self, sig, signer, payload):
        return self.world.verify(sig, signer, payload)

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def state(node) -> dict:
    return copy.deepcopy(vars(node))


def assert_rejected(node, api, messages):
    """Each message, delivered alone, changes no state and sends or answers nothing."""
    for src, payload in messages:
        before = state(node)
        node.on_message(api, src, payload)
        assert (state(node), api.calls) == (before, []), (src, payload)


def adding(world, pid, qn, nacks=()):
    """``world.nodes[pid]`` with an Add of ``qn`` pending and every member of
    ``nacks`` heard as nacking it: all of ``qn`` moves the Add to its check
    phase, with q_c = ``qn``."""
    node, api = world.nodes[pid], RecordingApi(world, pid)
    node.on_request(api, ("Add", qn))
    for src in nacks:
        node.on_message(api, src, ("NackInclusion", qn))
    api.calls.clear()
    return node, api


def test_a_stray_inclusion_reply_is_ignored():
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    idle = world.nodes[5]
    assert_rejected(idle, RecordingApi(world, 5), [(2, ("AckInclusion", fs(2, 5)))])
    node, api = adding(world, 3, fs(2, 3, 5))
    assert_rejected(node, api, [(2, ("AckInclusion", fs(2, 3))),      # another quorum
                                (1, ("NackInclusion", fs(2, 3, 5))),  # not a member
                                (4, ("AckInclusion", fs(2, 3, 5)))])
    node, api = adding(world, 2, fs(2, 3, 5), nacks=(2, 3, 5))
    assert node.add_req["q_c"] == fs(2, 3, 5)                         # past phase one
    assert_rejected(node, api, [(3, ("AckInclusion", fs(2, 3, 5)))])


def test_a_stray_or_forged_commit_is_ignored():
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    q_c = fs(2, 3)
    good = world.sign(3, ("Commit", q_c))
    byzantine = world.sign(4, ("Commit", q_c), by_adversary=True)
    idle = world.nodes[5]
    assert_rejected(idle, RecordingApi(world, 5), [(3, ("Commit", q_c, good))])
    node, api = adding(world, 2, q_c, nacks=(2, 3))
    assert node.add_req["q_c"] == q_c
    assert_rejected(node, api, [
        (3, ("Commit", fs(2, 5), good)),                     # another q_c
        (4, ("Commit", q_c, byzantine)),                     # not in q_c
        (3, ("Commit", q_c, Signature(3, good.digest[::-1]))),   # a forged signature
        (3, ("Commit", q_c, world.sign(3, ("Commit", fs(2, 5))))),   # signed for another q_c
        (2, ("Commit", q_c, good)),                          # signed by someone else
    ])
    node.on_message(api, 3, ("Commit", q_c, good))           # the real one counts
    assert node.add_req["commits"] == {3: good}


def test_a_quorums_reply_to_a_node_that_is_not_joining_is_ignored():
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    node = world.nodes[3]
    assert node._join is None
    assert_rejected(node, RecordingApi(world, 3), [(2, ("Quorums", (fs(1, 2), fs(2, 3)))),
                                                   (4, ("Quorums", ()))])


def test_preservation_on_generated_systems_small():
    rng = random.Random(4242)
    for i in range(10):
        qs, attack, outlived = outlived_system(rng, n_max=6)
        wb_active = sorted_ids(qs.active & attack.well_behaved)
        for seed in range(6):
            picker = random.Random(1000 * i + seed)
            requests = []
            for j, pid in enumerate(picker.sample(wb_active, min(2, len(wb_active)))):
                if picker.random() < 0.5:
                    requests.append((1 + 2 * j, pid, ("Leave",)))
                else:
                    q = picker.choice(sorted(qs.quorums_of(pid), key=sorted_ids))
                    requests.append((1 + 2 * j, pid, ("Remove", q)))
            world, trace = run_requests(
                qs, attack, requests, seed=seed, adversary=CheckSpammer(),
                probes=("intersection", "active_inclusion", "active_availability"),
                outlived=outlived)
            assert not trace.violations and trace.outcome == "quiescent"
            rem = frozenset(outlived) - world.l_set
            quorums = {p: n.quorums for p, n in world.nodes.items()}
            assert inclusion_witness(quorums, rem, attack.well_behaved) is None
            assert availability_witness(
                {p: q for p, q in quorums.items() if p in rem}, rem, rem) is None


# --- join ---------------------------------------------------------------------------


def test_join_via_single_trusted_process():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 9, ("Join", fs(3), 300))])
    assert responses(trace) == [(9, "JoinComplete")]
    assert world.nodes[9].quorums == {fs(2, 3)}
    # probed processes adopted the joiner as a follower
    assert 9 in world.nodes[3].followers
    # pre-existing declarations are untouched
    for p in (1, 2, 3, 5):
        assert world.nodes[p].quorums == set(qs.quorums_of(p))


def test_join_growth_matches_fixpoint_oracle():
    qs, attack = load_fixture("fig1")
    decls = {p: [set(q) for q in qs.quorums_of(p)] for p in (1, 2, 3, 5)}
    decls[4] = [{1, 2, 4}]
    expected = oracles.oracle_join_fixpoint({2}, decls)
    world, trace = run_requests(
        qs, attack, [(1, 9, ("Join", fs(2), 300))],
        adversary=JoinResponder({4: [fs(1, 2, 4)]}))
    assert responses(trace) == [(9, "JoinComplete")]
    assert world.nodes[9].quorums == expected
    assert expected == {fs(1, 2, 4), fs(2, 3), fs(2, 5)}


def test_join_times_out_when_probe_target_is_silent():
    qs, attack = load_fixture("fig1")
    world, trace = run_requests(
        qs, attack, [(1, 9, ("Join", fs(2), 120))])
    assert responses(trace) == [(9, "JoinTimeout")]


def test_join_lonely_node_with_self_quorum():
    qs = new_quorum_system([1], {1: [{1}]})
    attack = Attack.of([1, 9])
    policy = SchedulePolicy(seed=0)
    world = make_reconfig_world(qs, attack, policy)
    world.add_node(ReconfigNode(9, [fs(9)]))
    world.request(1, 9, ("Join", fs(9), 100))
    trace = world.run()
    assert (9, "JoinComplete") in responses(trace)
    assert world.nodes[9].quorums == {fs(9)}


# --- int and str ids in one world ---------------------------------------------------


def test_quorum_lists_that_meet_an_int_and_a_str_are_ordered_not_a_type_error():
    # 7's quorums {7, "a", "b"} and {"a", "b", "c"}, like "a"'s {"a", 7} and
    # {"a", "b", "c"}, differ first in an int against a str.  The Check
    # payloads, the Join's probe order, the Quorums reply and every state
    # snapshot sort such quorums.
    ids = ["a", "b", "c", 7]
    qs = new_quorum_system(ids, {"a": [{"a", "b", "c"}, {"a", 7}], "b": [{"a", "b", "c"}],
                                 "c": [{"a", "b", "c"}], 7: [{7, "a", "b"}, {"a", "b", "c"}]})
    mine = (fs(7, "a", "b"), fs("a", "b", "c"))   # ints sort first
    for op, check in ((("Leave",), ("LeaveCheck", mine)),
                      (("Remove", fs("a", "b", "c")), ("RemoveCheck", fs("a", "b", "c"), mine))):
        world, trace = run_requests(qs, Attack.of(ids),
                                    [(1, "d", ("Join", fs("a"), 300)), (40, 7, op)])
        assert responses(trace) == [("d", "JoinComplete"), (7, op[0] + "Complete")]
        assert [e["msg"] for e in trace.events if e["kind"] == "tob_order"] == [check]
        assert [e["msg"] for e in trace.events
                if e["kind"] == "apl" and e["src"] == "a" and e["dst"] == "d"] == [
            ("Quorums", (fs("a", 7), fs("a", "b", "c")))]


def test_state_summary_orders_quorums_that_meet_an_int_and_a_str():
    node = ReconfigNode(7, [fs("a", "b"), fs(7, "a")])
    node.tentative = {("r", fs("a", "b")), ("r", fs(7, "a")), (1, fs("c"))}
    summary = node.state_summary()
    assert summary["Q"] == [[7, "a"], ["a", "b"]]
    assert summary["tentative"] == [["1", ["c"]], ["r", [7, "a"]], ["r", ["a", "b"]]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(-2, 3) | st.text("ab", max_size=2),
                              min_size=1, max_size=4)))
def test_state_summary_lists_quorums_in_the_quorum_key_order(quorums):
    node = ReconfigNode(0, quorums)
    assert node.state_summary()["Q"] == [sorted_ids(q)
                                         for q in sorted(node.quorums, key=quorum_key)]


# --- the memoized Check ------------------------------------------------------------


_check_ids = st.integers(1, 4) | st.sampled_from(["a", "b", "1"])
_check_quorums = st.frozensets(_check_ids, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_check_quorums, min_size=1, max_size=4),
       st.lists(st.tuples(st.frozensets(_check_quorums, max_size=2),
                          st.frozensets(_check_ids, max_size=3)), min_size=1, max_size=6))
def test_memoized_check_agrees_with_the_direct_check_and_the_oracle(declared, variants):
    # one payload meets many tombs and tentative sets, as in one world, and
    # the cache lives across examples: a hit on a stale key would disagree
    declared = tuple(declared)
    for extra, drop in variants + variants:
        want = _check_passes.__wrapped__(declared, extra, drop)
        assert _check_passes(declared, extra, drop) == want
        assert oracles.oracle_check_passes(declared, extra, drop) == want


def test_a_repeated_check_is_a_cache_hit():
    declared, drop = (fs(1, 2), fs(2, "a")), fs(2)
    _check_passes(declared, frozenset(), drop)
    hits = _check_passes.cache_info().hits
    assert _check_passes(declared, frozenset(), frozenset({2})) is False
    assert _check_passes.cache_info().hits == hits + 1
    assert _check_passes(declared, frozenset(), frozenset()) is True
