import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hqs import gen
from hqs.broadcast import BrbNode
from hqs.core import (Attack, add, antichain, join, leave, new_quorum_system, remove, sorted_ids,
                      system_from_json)
from hqs.errors import DuplicateInstance, ScenarioError
from hqs.fixtures import load_fixture
from hqs.gen import checked_sharing_system, outlived_system
from hqs import scenarios
from hqs.scenarios import (BrbByzantine, current_system, make_brb_world, make_reconfig_world,
                           probe_brb_consistency)
from hqs.sim import Adversary, SchedulePolicy
from test_golden import GENERATED, NoEmptyDraws


def run_brb(qs, attack, requests, *, seed=0, adversary=None):
    world = make_brb_world(qs, attack, SchedulePolicy(seed=seed), adversary=adversary)
    world.add_probe("brb_consistency", probe_brb_consistency)
    for at, pid, value in requests:
        world.request(at, pid, ("Broadcast", value))
    trace = world.run()
    assert trace.outcome == "quiescent"
    return world, trace


def delivered(world, instance):
    return {p: n.delivered[instance] for p, n in world.nodes.items()
            if instance in n.delivered}


def test_honest_sender_fig1_outlived_set_delivers():
    qs, attack = load_fixture("fig1")
    world, trace = run_brb(qs, attack, [(1, 2, "m")])
    got = delivered(world, 2)
    for p in (2, 3, 5):
        assert got[p] == "m"
    assert not trace.violations


def test_send_fanout_reaches_every_active_process():
    qs, attack = load_fixture("fig1")
    world, trace = run_brb(qs, attack, [(1, 2, "m")])
    dsts = {e["dst"] for e in trace.events
            if e["kind"] == "apl" and e["msg"][0] == "Send"}
    assert dsts == set(qs.active)


def test_duplicate_instance_rejected():
    node = BrbNode(1, [frozenset({1})], followers={1}, active={1})

    class Api:
        me = 1

        def send(self, dst, payload):
            pass

        def send_all(self, dsts, payload):
            pass

    node.on_request(Api(), ("Broadcast", "x"))
    with pytest.raises(DuplicateInstance):
        node.on_request(Api(), ("Broadcast", "y"))


def test_byzantine_sender_equivocation_stays_consistent():
    qs, attack = load_fixture("fig1")  # 4 is Byzantine
    for seed in range(25):
        world, trace = run_brb(
            qs, attack, [], seed=seed,
            adversary=BrbByzantine(sender=4, values=("a", "b"), fake_votes=True))
        assert not trace.violations
        got = delivered(world, 4)
        assert len(set(got.values())) <= 1


@pytest.mark.parametrize("values", [(), []])
def test_an_equivocator_with_no_values_is_an_input_error(values):
    # a fake vote picks one of the values; with none that draw never returned
    with pytest.raises(ScenarioError, match="at least one value"):
        BrbByzantine(sender=4, values=values)


def test_byzantine_member_equivocating_ready_votes():
    qs, attack = load_fixture("fig1")
    for seed in range(25):
        world, trace = run_brb(
            qs, attack, [(1, 2, "m")], seed=seed,
            adversary=BrbByzantine(sender=None, values=("x", "m"), fake_votes=True))
        assert not trace.violations
        got = delivered(world, 2)
        assert set(got.values()) <= {"m"}
        for p in (2, 3, 5):
            assert got.get(p) == "m"


def test_blocking_set_amplification():
    # d holds c in its only quorum but is outside the deciding quorum {a,b,c};
    # a blocking set of readies pulls it in
    qs = new_quorum_system(
        ["a", "b", "c", "d"],
        {"a": [{"a", "b", "c"}], "b": [{"a", "b", "c"}], "c": [{"a", "b", "c"}],
         "d": [{"c", "d"}]})
    attack = Attack.of(["a", "b", "c", "d"])
    world, trace = run_brb(qs, attack, [(1, "a", "v")])
    got = delivered(world, "a")
    assert got["d"] == "v"
    # d could only ready after seeing a blocking set, i.e. c's ready
    assert world.nodes["d"].readied["a"] == "v"


def test_integrity_no_delivery_without_honest_send():
    qs, attack = load_fixture("fig1")

    class FakeVotes(Adversary):
        def on_init(self, world):
            # 4 pushes echoes and readies for a message 2 never sent
            for p in sorted_ids(world.nodes):
                world.adversary_send(4, p, ("Echo", 2, "forged"))
                world.adversary_send(4, p, ("Ready", 2, "forged"))

    world, trace = run_brb(qs, attack, [], adversary=FakeVotes())
    assert delivered(world, 2) == {}


def test_generated_outlived_fixtures_validity_and_totality():
    rng = random.Random(99)
    for _ in range(12):
        qs, attack, outlived = outlived_system(rng, n_max=6)
        sender = sorted_ids(outlived)[0]
        world, trace = run_brb(qs, attack, [(1, sender, "v")],
                               seed=rng.randrange(1000))
        assert not trace.violations
        got = delivered(world, sender)
        # validity: the whole outlived set delivers the honest value
        for p in outlived:
            assert got.get(p) == "v"
        # totality: if anyone well-behaved delivered, the outlived set did
        if got:
            assert outlived <= set(got)
        # no duplication and integrity by construction of the state
        for p, n in world.nodes.items():
            assert list(n.delivered) in ([], [sender])
            if sender in n.delivered:
                assert n.delivered[sender] == "v"


# --- the incremental agreement probe against a full scan --------------------------


def hasty_deliver(self, api, src, payload, on_message=BrbNode.on_message):
    """A broken ``BrbNode.on_message``: the real handler, then a delivery on
    one ready vote, not a quorum of them."""
    on_message(self, api, src, payload)
    tag, instance, value = payload[0], payload[1], payload[2]
    if tag == "Ready" and instance not in self.delivered:
        self.delivered[instance] = value
        self.touch()


def run_probe_against_oracle(qs, attack, requests, *, seed, adversary):
    """Run with ``probe_brb_consistency`` checked against the full-scan
    oracle at every flush; returns the trace and the number of flushes."""
    calls = []

    def checked(world):
        got = probe_brb_consistency(world)
        assert json.dumps(got) == json.dumps(oracles.oracle_brb_consistency(world))
        calls.append(got)
        return got

    world = make_brb_world(qs, attack, SchedulePolicy(seed=seed), adversary=adversary)
    world.add_probe("brb_consistency", checked)
    for at, pid, value in requests:
        world.request(at, pid, ("Broadcast", value))
    return world.run(), len(calls)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.booleans())
def test_brb_probe_matches_the_full_scan_at_every_flush(system_seed, seed, hasty):
    rng = random.Random(system_seed)
    qs, attack = checked_sharing_system(rng, n_max=7)
    byz = sorted_ids(attack.byzantine)
    wb = sorted_ids(qs.active & attack.well_behaved)
    with mock.patch.object(BrbNode, "on_message",
                           hasty_deliver if hasty else BrbNode.on_message):
        _, flushes = run_probe_against_oracle(
            qs, attack, [(1, rng.choice(wb), "v")], seed=seed,
            adversary=BrbByzantine(sender=byz[0] if byz else None))
    assert flushes > 0


class SplitReadies(Adversary):
    """Byzantine 4 sends one Ready for its own instance to every node, with
    the values "a" and "b" in turn."""

    def on_init(self, world):
        for i, p in enumerate(sorted_ids(world.nodes)):
            world.adversary_send(4, p, ("Ready", 4, "ab"[i % 2]))


def test_brb_probe_fires_on_a_node_that_delivers_on_too_few_readies():
    qs, attack = load_fixture("fig1")  # 4 is Byzantine
    trace, _ = run_probe_against_oracle(qs, attack, [], seed=0, adversary=SplitReadies())
    assert not trace.violations   # one Byzantine ready is not a quorum of them
    with mock.patch.object(BrbNode, "on_message", hasty_deliver):
        trace, _ = run_probe_against_oracle(qs, attack, [], seed=0,
                                            adversary=SplitReadies())
    assert trace.violations
    assert trace.violations[0]["witness"] == [4, [3, 5]]   # the first pair to split


# --- Byzantine Sends: str ids, so the guards meet no int shortcut ----------------


def str_id_system():
    """a, b and c share the quorum {a, b, c}; d is Byzantine and declares nothing."""
    qs = new_quorum_system(["a", "b", "c", "d"],
                           {p: [{"a", "b", "c"}] for p in "abc"}, byzantine={"d"})
    return qs, Attack.of(qs.universe, {"d"})


class ByzantineSends(Adversary):
    """On init, d sends each ``(dst, payload)`` of ``sends``."""

    def __init__(self, sends):
        self.sends = sends

    def on_init(self, world):
        world.adversary_send_all("d", self.sends)


def apl(trace, tag):
    return [e for e in trace.events if e["kind"] == "apl" and e["msg"][0] == tag]


def test_a_send_for_another_instance_is_never_echoed():
    qs, attack = str_id_system()
    sends = [(p, ("Send", "a", "v")) for p in "abc"]
    for seed in range(5):
        world, trace = run_brb(qs, attack, [], seed=seed, adversary=ByzantineSends(sends))
        assert sorted(e["dst"] for e in apl(trace, "Send")) == ["a", "b", "c"]
        assert not apl(trace, "Echo")
        assert all(not n.echoed for n in world.nodes.values())


def test_a_node_echoes_only_the_first_value_of_an_instance():
    qs, attack = str_id_system()
    sends = [("a", ("Send", "d", "x")), ("a", ("Send", "d", "y"))]
    firsts = set()
    for seed in range(10):
        world, trace = run_brb(qs, attack, [], seed=seed, adversary=ByzantineSends(sends))
        received = [e["msg"][2] for e in apl(trace, "Send")]
        assert sorted(received) == ["x", "y"]
        firsts.add(received[0])
        assert world.nodes["a"].echoed == {"d": received[0]}
        echoes = [e for e in apl(trace, "Echo") if e["src"] == "a"]
        assert echoes and {e["msg"][2] for e in echoes} == {received[0]}
    assert firsts == {"x", "y"}   # both delivery orders were met


# --- each vote checks only what it can move: the re-check-everything oracle --------


def test_each_vote_checking_only_its_own_set_runs_as_rechecking_all_three():
    rng = random.Random(25)
    readied = delivered_any = 0
    for _ in range(30):
        qs, attack = checked_sharing_system(rng, n_max=12)
        byz = sorted_ids(attack.byzantine)
        sender = rng.choice(sorted_ids(qs.active & attack.well_behaved))
        for seed in range(5):
            runs = []
            for node_class in (BrbNode, oracles.OracleBrbNode):
                with mock.patch.object(scenarios, "BrbNode", node_class):
                    world, trace = run_brb(qs, attack, [(1, sender, "v")], seed=seed,
                                           adversary=BrbByzantine(
                                               sender=byz[0] if byz else None))
                assert {type(n) for n in world.nodes.values()} == {node_class}
                runs.append(trace.to_jsonl())
            assert runs[0] == runs[1], (qs, seed)
            readied += sum(bool(n.readied) for n in world.nodes.values())
            delivered_any += bool(delivered(world, sender))
    assert readied and delivered_any   # the votes moved something


# --- BRB nodes adopt the system's declarations as they are ---------------------------


def assert_canonical(qs):
    """Every declaration is a tuple of frozensets equal to its own antichain."""
    for p, decl in qs.quorum_map().items():
        assert type(decl) is tuple and {type(q) for q in decl} == {frozenset}, p
        assert decl == antichain(decl), (p, decl)


def generated_systems():
    """(qs, attack) of the generator golden's seeds 0-49, for each generator it pins."""
    for name, n_max in GENERATED:
        for seed in range(50):
            yield getattr(gen, name)(NoEmptyDraws(seed), n_max=n_max)[:2]


def test_every_in_tree_constructor_keeps_each_declaration_its_own_antichain():
    for qs, attack in generated_systems():
        assert_canonical(qs)
        assert_canonical(system_from_json(qs.to_json(attack))[0])
        p = sorted_ids(qs.quorum_map())[0]
        first = qs.quorums_of(p)[0]
        newcomer = max(qs.universe) + 1
        assert_canonical(join(qs, newcomer, [first | {newcomer}, qs.universe | {newcomer}]))
        assert_canonical(leave(qs, p))
        assert_canonical(add(qs, p, {p}))             # inside every quorum of p: they go
        assert_canonical(add(qs, p, qs.universe))     # a superset: reduced away
        assert_canonical(remove(qs, p, first))
        wb = sorted_ids(qs.active & attack.well_behaved)
        world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0), step_cap=2_000)
        world.request(1, wb[0], ("Leave",))
        world.run()
        assert_canonical(current_system(world, qs))
