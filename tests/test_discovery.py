import pytest

from hqs.core import Attack, followers, minimal_quorums, new_quorum_system
from hqs.discovery import DiscoveryNode, discovery_results, oracle_validq, threshold_validq
from hqs.errors import ScenarioError
from hqs.fixtures import load_fixture
from hqs.graph import sink_members
from hqs.scenarios import SinkDeceiver, make_discovery_world
from hqs.sim import SchedulePolicy


def run_discovery(qs, attack, seed=0, adversary=None, validq="oracle"):
    world = make_discovery_world(qs, attack, SchedulePolicy(seed=seed),
                                 adversary=adversary, validq=validq)
    trace = world.run()
    assert trace.outcome == "quiescent"
    return world


def test_fig2_honest_run_discovers_sink_members():
    qs, attack = load_fixture("fig2")
    world = run_discovery(qs, attack)
    flags = {p: n.in_sink for p, n in world.nodes.items()}
    # well-behaved minimal-quorum members discover themselves
    assert flags[1] and flags[2] and flags[3]
    # outsiders never do
    assert not flags[4] and not flags[6]


def test_fig2_exchange_fanout():
    qs, attack = load_fixture("fig2")
    world = make_discovery_world(qs, attack, SchedulePolicy(seed=1))
    trace = world.run()
    sends = {(e["src"], e["dst"]) for e in trace.events
             if e["kind"] == "apl" and e["msg"][0] == "Exchange"}
    assert {(1, p) for p in (1, 2, 3, 5)} <= sends


def test_phase1_condition_needs_every_member():
    qs, attack = load_fixture("fig2")
    node = DiscoveryNode(2, qs.quorums_of(2))

    class Probe:
        me = 2
        sent = []

        def send(self, dst, payload):
            self.sent.append((dst, payload))

        def send_all(self, dsts, payload):
            for dst in dsts:
                self.send(dst, payload)

    api = Probe()
    node.on_message(api, 2, ("Exchange", (frozenset({1, 2}),)))
    assert not node.in_sink  # still missing 1's declaration
    node.on_message(api, 1, ("Exchange", (frozenset({1, 2}), frozenset({1, 3, 5}))))
    assert node.in_sink and node.sent_extend
    # duplicates are idempotent
    node.on_message(api, 1, ("Exchange", (frozenset({1, 2}),)))
    assert node.in_sink


def test_extend_requires_full_intersection_and_validq():
    qs, attack = load_fixture("fig2")
    valid = oracle_validq(minimal_quorums(qs, attack))
    node4 = DiscoveryNode(4, qs.quorums_of(4), validq=valid)

    class Probe:
        me = 4

        def send(self, dst, payload):
            pass

    api = Probe()
    # stolen quorum from the Byzantine sender alone: {1,3,5} & {1,2,4} = {1},
    # and 5 is not 1, so the message stays pending forever
    node4.on_message(api, 5, ("Extend", frozenset({1, 3, 5})))
    assert not node4.in_sink
    # an invalid quorum is rejected even from the right senders
    node4.on_message(api, 1, ("Extend", frozenset({1, 2, 4})))
    assert not node4.in_sink
    # the empty quorum is never valid
    node4.on_message(api, 1, ("Extend", frozenset()))
    assert not node4.in_sink
    # node 3 accepts the genuine quorum from the intersection member:
    # {1,2} & {1,3,5} = {1}, and 1 sent it
    node3 = DiscoveryNode(3, qs.quorums_of(3), validq=valid)
    node3.on_message(api, 5, ("Extend", frozenset({1, 2})))
    assert not node3.in_sink  # 5 is outside the needed intersection
    node3.on_message(api, 1, ("Extend", frozenset({1, 2})))
    assert node3.in_sink


def test_deceiver_cannot_fool_outsider_and_completeness_holds():
    qs, attack = load_fixture("fig2")
    sink = sink_members(qs)
    mq = minimal_quorums(qs, attack)
    for seed in range(30):
        world = run_discovery(qs, attack, seed=seed, adversary=SinkDeceiver())
        proto = {p for p, n in world.nodes.items() if n.in_sink}
        assert proto <= sink
        for q in mq:
            assert q & attack.well_behaved <= proto
        assert not world.nodes[4].in_sink


def test_phase1_completeness_for_all_well_behaved_minimal_quorums():
    # every minimal quorum made only of well-behaved processes lands fully
    # in the sink during phase 1, even under the deceiver
    qs, attack = load_fixture("fig2")
    mq = minimal_quorums(qs, attack)
    wb_quorums = [q for q in mq if q <= attack.well_behaved]
    assert wb_quorums == [frozenset({1, 2})]
    for seed in range(10):
        world = run_discovery(qs, attack, seed=seed, adversary=SinkDeceiver())
        phase1 = {p for p, n in world.nodes.items() if n.in_sink_phase == 1}
        for q in wb_quorums:
            assert q <= phase1
        # 3 only learns its membership through the second phase here
        assert world.nodes[3].in_sink_phase == 2


def test_threshold_validq_mode():
    qs, attack = load_fixture("fig2")
    world = run_discovery(qs, attack, validq="threshold")
    assert world.nodes[3].in_sink
    assert threshold_validq(2)(frozenset({1, 2}))
    assert not threshold_validq(3)(frozenset({1, 2}))


@pytest.mark.parametrize("validq", ("orcale", "Oracle", 2, ""))
def test_an_unknown_validq_is_refused_not_read_as_accept_any(validq):
    qs, attack = load_fixture("fig2")
    with pytest.raises(ScenarioError, match="oracle, threshold, None"):
        make_discovery_world(qs, attack, SchedulePolicy(seed=0), validq=validq)


def test_followers_collected_from_exchanges():
    qs, attack = load_fixture("fig2")
    world = run_discovery(qs, attack)
    for p, node in world.nodes.items():
        true_followers = followers(qs, p) & attack.well_behaved
        assert node.followers >= true_followers - {p}


def test_results_export_shape():
    qs, attack = load_fixture("fig2")
    world = run_discovery(qs, attack)
    res = discovery_results(world)
    assert set(res) == {"in_sink", "followers"}
    assert res["in_sink"]["1"] is True
    assert res["followers"]["1"]


def test_single_node_discovers_itself():
    qs = new_quorum_system([1], {1: [{1}]})
    attack = Attack.of([1])
    world = run_discovery(qs, attack)
    assert world.nodes[1].in_sink
