import random
from collections import Counter, namedtuple
from itertools import repeat
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hqs import sim
from hqs.core import Attack, id_key, sorted_ids
from hqs.errors import ForgedSender, ForgedSigner, ScenarioError
from hqs.fixtures import load_fixture
from hqs.scenarios import SCENARIO_NAMES, BrbByzantine, make_brb_world, run_scenario
from hqs.sim import (
    Adversary,
    Envelope,
    Node,
    NodeApi,
    SchedulePolicy,
    Signature,
    Trace,
    World,
    canon,
    canon_json,
    draws,
    fingerprint,
)


class EchoNode(Node):
    """Records every delivery; replies once to 'ping'."""

    def __init__(self, pid):
        super().__init__(pid)
        self.inbox = []
        self.tob_inbox = []

    def on_request(self, api, request):
        _, dst, payload = request
        api.send(dst, payload)

    def on_message(self, api, src, payload):
        self.inbox.append((src, payload))
        self.touch()
        if payload == ("ping",):
            api.send(src, ("pong",))

    def on_tob(self, api, src, payload):
        self.tob_inbox.append((src, payload))
        self.touch()

    def state_summary(self):
        return {"inbox": [list(map(str, e)) for e in self.inbox]}


def small_world(seed=0, adversary=None, byz=(4,), step_cap=10_000, node=EchoNode):
    qs, _ = load_fixture("fig1")
    attack = Attack.of(qs.universe, byz)
    world = World(attack, SchedulePolicy(seed=seed),
                  adversary=adversary, step_cap=step_cap)
    for pid in sorted(qs.active & attack.well_behaved):
        world.add_node(node(pid))
    return world


def test_empty_world_quiesces_immediately():
    qs, attack = load_fixture("fig1")
    world = World(attack, SchedulePolicy(seed=1))
    trace = world.run()
    assert trace.outcome == "quiescent"
    assert [e["kind"] for e in trace.events] == ["end"]


def test_request_and_reply_round_trip():
    world = small_world()
    world.request(1, 2, ("send", 3, ("ping",)))
    trace = world.run()
    assert trace.outcome == "quiescent"
    assert (2, ("ping",)) in world.nodes[3].inbox
    assert (3, ("pong",)) in world.nodes[2].inbox


def test_determinism_same_seed_same_trace():
    t1 = None
    for _ in range(2):
        world = small_world(seed=7)
        world.request(1, 2, ("send", 3, ("ping",)))
        world.tob_broadcast(2, ("hello",))
        trace = world.run()
        blob = trace.to_jsonl()
        if t1 is None:
            t1 = blob
        else:
            assert blob == t1
    other = small_world(seed=8)
    other.request(1, 2, ("send", 3, ("ping",)))
    other.tob_broadcast(2, ("hello",))
    assert other.run().to_jsonl() != t1


def test_tob_same_order_everywhere():
    world = small_world(seed=3)
    for i in range(5):
        world.tob_broadcast(2, ("m", i))
        world.tob_broadcast(3, ("n", i))
    world.run()
    orders = [node.tob_inbox for node in world.nodes.values()]
    assert all(o == orders[0] for o in orders)
    assert len(orders[0]) == 10


def test_tob_delivery_follows_the_global_order():
    # per-node delivery events arrive at scattered times, but each node must
    # consume the sequence exactly in the order the oracle fixed
    world = small_world(seed=11)
    for i in range(8):
        world.tob_broadcast(2, ("m", i))
    trace = world.run()
    global_order = [e["msg"] for e in trace.events if e["kind"] == "tob_order"]
    assert sorted(global_order) == sorted([("m", i) for i in range(8)])
    for node in world.nodes.values():
        assert [list(p) for (_, p) in node.tob_inbox] == [list(m) for m in global_order]


def test_apl_integrity_every_delivery_has_a_send():
    world = small_world(seed=5)
    for i in range(6):
        world.request(1 + i, 2, ("send", 3, ("ping",)))
    trace = world.run()
    delivered = [e for e in trace.events
                 if e["kind"] == "apl" and not e.get("byz") and not e.get("frozen")]
    assert all(e["src"] in (2, 3) for e in delivered)
    # exactly one delivery per send: 6 pings and 6 pongs
    assert len(delivered) == 12


def test_adversary_can_send_as_byzantine_only():
    world = small_world()

    class Impersonator(Adversary):
        def on_init(self, w):
            w.adversary_send(2, 3, ("fake",))

    world2 = small_world(adversary=Impersonator())
    with pytest.raises(ForgedSender):
        world2.run()
    world.adversary_send(4, 3, ("from-byz",))
    world.run()
    assert (4, ("from-byz",)) in world.nodes[3].inbox


def test_adversary_cannot_forge_well_behaved_node():
    world = small_world()
    with pytest.raises(ForgedSender):
        World.add_node(world, EchoNode(4))


def one_node_world():
    """Node 1; 2 is well-behaved and has no node; the adversary owns 3."""
    world = World(Attack.of([1, 2, 3], [3]), SchedulePolicy(seed=0))
    world.add_node(EchoNode(1))
    return world


# outside the universe, well-behaved with no node, a look-alike of node 1
FORGED = [99, 2, "1"]


@pytest.mark.parametrize("src", FORGED)
def test_a_send_from_an_id_no_node_or_adversary_owns_is_forged(src):
    world = one_node_world()
    with pytest.raises(ForgedSender):
        world.send(src, 1, ("forged",))
    world.send(3, 1, ("from-byz",))
    world.run()
    assert world.nodes[1].inbox == [(3, ("from-byz",))]


@pytest.mark.parametrize("src", FORGED)
def test_a_tob_broadcast_from_an_id_no_node_or_adversary_owns_is_forged(src):
    world = one_node_world()
    with pytest.raises(ForgedSender):
        world.tob_broadcast(src, ("forged-tob",))
    world.tob_broadcast(1, ("m",))
    world.tob_broadcast(3, ("b",))
    world.run()
    assert sorted(world.nodes[1].tob_inbox) == [(1, ("m",)), (3, ("b",))]


def test_a_world_runs_once():
    world = small_world(seed=3)
    world.request(1, 2, ("send", 3, ("ping",)))
    world.tob_broadcast(2, ("hello",))
    trace = world.run()
    blob, starts = trace.to_jsonl(), [node.inbox[:] for node in world.nodes.values()]
    with pytest.raises(ScenarioError):
        world.run()
    assert trace.to_jsonl() == blob and blob.count('"kind":"end"') == 1
    assert [node.inbox for node in world.nodes.values()] == starts


def test_a_node_added_after_the_world_started_is_refused():
    world = one_node_world()
    world.run()
    with pytest.raises(ScenarioError, match="added after the world started"):
        world.add_node(EchoNode(2))
    assert list(world.nodes) == [1]


def test_the_adversary_cannot_broadcast_as_a_well_behaved_id():
    world = one_node_world()
    for src in (1, 2):   # a node's id, and a well-behaved id with no node
        with pytest.raises(ForgedSender, match="well-behaved"):
            world.adversary_tob(src, ("forged-tob",))
    world.adversary_tob(3, ("b",))
    world.run()
    assert world.nodes[1].tob_inbox == [(3, ("b",))]


def test_signatures_verify_and_reject():
    world = small_world()
    sig = world.sign(2, ("msg",))
    assert world.verify(sig, 2, ("msg",))
    assert not world.verify(sig, 2, ("other",))
    assert not world.verify(sig, 3, ("msg",))
    with pytest.raises(ForgedSigner):
        world.sign(3, ("msg",), by_adversary=True)
    with pytest.raises(ForgedSigner):
        world.sign(4, ("msg",))
    adv_sig = world.sign(4, ("msg",), by_adversary=True)
    assert world.verify(adv_sig, 4, ("msg",))


def test_forged_signature_object_fails_verification():
    from hqs.sim import Signature
    world = small_world()
    fake = Signature(2, fingerprint(("msg",)))
    assert not world.verify(fake, 2, ("msg",))


def test_step_cap_on_adversary_flood():
    class Flooder(Adversary):
        def on_init(self, w):
            w.adversary_send(4, 4, ("loop",))

        def on_deliver(self, w, env):
            w.adversary_send(4, 4, ("loop",))

    world = small_world(adversary=Flooder(), step_cap=100)
    trace = world.run()
    assert trace.outcome == "step_cap"
    assert trace.events[-1]["outcome"] == "step_cap"


def test_adversary_may_drop_byzantine_traffic_only():
    class Blackhole(Adversary):
        def delay(self, w, env):
            return None

    world = small_world(adversary=Blackhole())
    world.request(1, 2, ("send", 3, ("ping",)))   # wb-to-wb: must deliver
    world.send(2, 4, ("to-byz",))                  # may vanish
    trace = world.run()
    assert (2, ("ping",)) in world.nodes[3].inbox
    assert any(e["kind"] == "drop" for e in trace.events)


def test_wb_messages_deliver_within_fairness_bound():
    world = small_world(seed=13)
    bound = world.policy.fairness_bound
    world.request(5, 2, ("send", 3, ("ping",)))
    trace = world.run()
    sends = [e for e in trace.events if e["kind"] == "request"]
    arrival = [e for e in trace.events
               if e["kind"] == "apl" and e["msg"] == ("ping",)]
    assert arrival[0]["step"] - sends[0]["step"] <= bound


def test_adversarial_reorder_stays_within_bound():
    class Reorderer(Adversary):
        def reorder(self, w, env):
            return 99  # clamped to the fairness bound

    world = small_world(seed=1, adversary=Reorderer())
    world.request(1, 2, ("send", 3, ("ping",)))
    trace = world.run()
    arrival = [e for e in trace.events
               if e["kind"] == "apl" and e["msg"] == ("ping",)]
    assert arrival and arrival[0]["step"] <= 1 + world.policy.fairness_bound


@pytest.mark.parametrize("delay, waited", [(3, 3), (0, 1), (99, 6)])
def test_reorder_sets_each_well_behaved_delay_within_the_bound(delay, waited):
    class Fixed(Adversary):
        def reorder(self, w, env):
            return delay

    world = small_world(adversary=Fixed())
    world.request(1, 2, ("send", 3, ("ping",)))
    trace = world.run()
    steps = [e["step"] for e in trace.events if e["kind"] == "apl"]
    assert steps == [1 + waited, 1 + 2 * waited]   # the ping, then the pong


class Picker(Adversary):
    """Sequences the pending broadcast at a fixed index."""

    def __init__(self, index):
        self.index = index
        self.asked = []

    def pick_tob(self, w, pending):
        self.asked.append([env.src for env in pending])
        return self.index


@pytest.mark.parametrize("index, order", [(1, [3, 2]), (0, [2, 3]), (2, [2, 3]),
                                          (-1, [2, 3])])
def test_pick_tob_is_honoured_and_an_index_out_of_range_means_the_oldest(index, order):
    picker = Picker(index)
    world = small_world(adversary=picker)
    world.tob_broadcast(2, ("a",))
    world.tob_broadcast(3, ("b",))
    trace = world.run()
    assert [e["src"] for e in trace.events if e["kind"] == "tob_order"] == order
    assert picker.asked == [[2, 3], [order[1]]]


def test_tob_order_hints_come_before_pick_tob():
    picker = Picker(0)
    qs, _ = load_fixture("fig1")
    world = World(Attack.of(qs.universe, (4,)), SchedulePolicy(seed=0, tob_order=(5,)),
                  adversary=picker)
    for pid in (2, 3, 5):
        world.add_node(EchoNode(pid))
    for pid in (2, 3, 5):
        world.tob_broadcast(pid, ("m", pid))
    trace = world.run()
    assert [e["src"] for e in trace.events if e["kind"] == "tob_order"] == [5, 2, 3]
    assert picker.asked == [[2, 3], [3]]


# Every bounded schedule draw comes from ``sim.draws``, which copies the stdlib's
# rejection loop.  Each must make the draws of ``randint(1, b)`` or ``randrange(n)``,
# so that a change in ``random`` fails here by name rather than in every golden
# digest at once.
DRAW_SEEDS = (0, 1, 7)
BOUNDS = range(1, 65)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draws_makes_what_randrange_makes_and_draws_nothing_ahead(seed):
    for n in BOUNDS:
        rng, ref = random.Random(seed), random.Random(seed)
        below = draws(rng, n).__next__
        # a random() between two draws reads what it reads between two randrange calls
        got = [(below(), rng.random()) for _ in range(20)]
        assert got == [(ref.randrange(n), ref.random()) for _ in range(20)], n


@pytest.mark.parametrize("n", [0, -1, -64])
def test_draws_from_an_empty_range_raises_as_randrange_does(n):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random.Random(0).randrange(n)
    with pytest.raises(ValueError):   # at the call, before any draw
        draws(rng, n)
    assert rng.random() == random.Random(0).random()   # nothing was drawn


def bounded_world(seed, bound, adversary=None, pids=()):
    world = World(Attack.of([0, *pids], [0]), SchedulePolicy(seed=seed, fairness_bound=bound),
                  adversary=adversary)
    for pid in pids:
        world.add_node(Node(pid))
    return world


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("hook", ["delay", "reorder"])
def test_the_default_delays_draw_what_randint_draws(seed, hook):
    for bound in BOUNDS:
        world = bounded_world(seed, bound)
        got = [getattr(world.adversary, hook)(world, None) for _ in range(20)]
        ref = random.Random(seed)
        assert got == [ref.randint(1, bound) for _ in range(20)], bound


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_the_default_pick_tob_draws_what_randrange_draws(seed):
    for n in BOUNDS:
        world = bounded_world(seed, 6)
        got = [world.adversary.pick_tob(world, (None,) * n) for _ in range(20)]
        ref = random.Random(seed)
        assert got == [ref.randrange(n) for _ in range(20)], n


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_the_tob_delivery_delays_draw_what_randint_draws(seed):
    pids = list(range(1, 21))
    for bound in BOUNDS:
        world = bounded_world(seed, bound, adversary=Picker(0))   # pick_tob draws nothing
        world.adversary_tob(0, ("m",))
        world._sequence_tob(pids)
        due = {data[0]: step for step, kind, data in oracles.queued(world)
               if kind == "tob_dlv"}
        got = [due[pid] for pid in pids]   # in push order
        ref = random.Random(seed)
        assert got == [ref.randint(1, bound) for _ in pids], bound


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_the_kernel_draws_the_default_delays_randint_draws(seed):
    # the router makes the base hooks' draw itself: every way in, to a
    # Byzantine destination (0) and to well-behaved ones, draws randint(1, b)
    pids = list(range(1, 6))
    dsts = [0, *pids]
    for bound in BOUNDS:
        world = bounded_world(seed, bound, pids=pids)
        world.step = 3
        NodeApi(world, world.nodes[1]).send_all(dsts, ("m",))
        for dst in dsts:
            world.send(2, dst, ("m",))
        world.adversary_send_all(0, zip(dsts, repeat(("m",))))
        due = {(env.src, env.dst): step for step, kind, env in oracles.queued(world)
               if kind == "apl"}
        got = [due[src, dst] - world.step for src in (1, 2, 0) for dst in dsts]   # push order
        ref = random.Random(seed)
        assert got == [ref.randint(1, bound) for _ in range(3 * len(dsts))], bound


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_brb_byzantine_picks_the_value_randrange_picks(seed):
    pids = list(range(1, 41))
    for n in BOUNDS:
        values = tuple(f"v{i}" for i in range(n))
        adversary = BrbByzantine(values=values)
        world = bounded_world(seed, 6, adversary=adversary, pids=pids)
        adversary.on_init(world)
        adversary.on_deliver(world, Envelope(1, 0, ("Echo", 1, "m")))
        value = {env.dst: env.payload[2] for _, kind, env in oracles.queued(world)
                 if kind == "apl"}
        got = [value[pid] for pid in pids if pid in value]   # in push order
        ref, want = random.Random(seed), []
        for _ in pids:
            if ref.random() < 0.3:
                want.append(values[ref.randrange(n)])
                ref.randint(1, 6)   # the fake vote's delay
        assert got == want, n


class StrictRandom(random.Random):
    """A ``random.Random`` whose bounded draws raise: only ``random()`` and
    ``getrandbits``, which ``sim.draws`` calls, are left."""

    def _refused(self, *args, **kwargs):
        raise AssertionError("a bounded draw made outside sim.draws")

    _randbelow = randrange = randint = choice = sample = shuffle = _refused


# the shipped scenarios, a CheckSpammer Leave world (it draws a target and its
# broadcasts reach pick_tob) and a BrbByzantine world whose fake votes draw values
ONE_CHOICE_POINT = [*SCENARIO_NAMES, {
    "system": "fig1", "policy": {"seed": 3}, "adversary": "check_spammer",
    "requests": [{"at": 1, "node": 5, "op": "Leave"}], "probes": ["intersection"]}, {
    "system": "fig1", "protocol": "brb", "policy": {"seed": 1, "fairness_bound": 3},
    "adversary": {"name": "brb_byzantine", "args": {"sender": 4, "values": ["u", "v", "w"]}},
    "requests": [{"at": 1, "node": 2, "op": "Broadcast", "value": "m"}],
    "probes": ["brb_consistency"]}]


@pytest.mark.parametrize("spec", ONE_CHOICE_POINT,
                         ids=[*SCENARIO_NAMES, "check_spammer", "brb_byzantine"])
def test_every_schedule_draw_goes_through_draws(spec):
    _, trace, _ = run_scenario(spec)
    # the systems are fixtures, so only the worlds' rngs are swapped
    with mock.patch.object(sim, "random", SimpleNamespace(Random=StrictRandom)):
        world, strict, _ = run_scenario(spec)
    assert type(world.rng) is StrictRandom
    assert strict.to_jsonl() == trace.to_jsonl()
    events = trace.events
    if spec == ONE_CHOICE_POINT[-2]:   # the spammer's broadcasts reach pick_tob
        assert any(e["kind"] == "tob_order" for e in events)
    if spec == ONE_CHOICE_POINT[-1]:   # fake votes draw their values
        assert sum(e["kind"] == "apl" and e["src"] == 4 and e["msg"][0] == "Ready"
                   for e in events) > 1


class HookRecorder(Adversary):
    """Byzantine 4 sends a Send for its own instance to every node.  Each
    hook records what it is given; ``delay`` drops the messages of process
    3's instance and delays the rest by 1, as ``reorder`` does, so messages
    arrive in the order they were routed."""

    def __init__(self):
        self.seen = {"delay": [], "reorder": [], "on_deliver": []}

    def on_init(self, world):
        world.adversary_send_all(4, [(p, ("Send", 4, "x")) for p in sorted_ids(world.nodes)])

    def on_deliver(self, world, env):
        self.seen["on_deliver"].append(env)

    def delay(self, world, env):
        self.seen["delay"].append(env)
        return None if env.payload[1] == 3 else 1

    def reorder(self, world, env):
        self.seen["reorder"].append(env)
        return 1


def test_each_hook_is_given_an_envelope_of_the_message_it_covers():
    qs, attack = load_fixture("fig1")   # 4 is Byzantine
    adversary = HookRecorder()
    world = make_brb_world(qs, attack, SchedulePolicy(seed=0), adversary=adversary)
    world.request(1, 2, ("Broadcast", "m"))
    world.request(1, 3, ("Broadcast", "n"))
    trace = world.run()
    seen = {hook: [(env.src, env.dst, env.payload) for env in envs]
            for hook, envs in adversary.seen.items()}
    assert all(isinstance(env, Envelope) for envs in adversary.seen.values() for env in envs)
    byz = attack.byzantine
    apl = [(e["src"], e["dst"], e["msg"]) for e in trace.events if e["kind"] == "apl"]
    drops = [(e["src"], e["dst"], e["msg"]) for e in trace.events if e["kind"] == "drop"]
    touching = [m for m in apl if m[0] in byz or m[1] in byz]
    # a Byzantine sender, a Byzantine destination and well-behaved traffic
    assert [m for m in touching if m[0] in byz] and [m for m in touching if m[1] in byz]
    assert [m for m in seen["delay"] if m[2][1] != 3] == touching
    assert [m for m in seen["delay"] if m[2][1] == 3] == drops and drops
    assert seen["reorder"] == [m for m in apl if byz.isdisjoint(m[:2])] and seen["reorder"]
    assert seen["on_deliver"] == [m for m in apl if m[1] in byz]


def test_canon_sorts_sets_deterministically():
    assert canon(frozenset({3, 1, 2})) == [1, 2, 3]
    assert canon(("x", frozenset({"b", "a"}))) == ["x", ["a", "b"]]
    assert fingerprint({"k": frozenset({2, 1})}) == fingerprint({"k": frozenset({1, 2})})


def test_depart_enters_l_and_the_node_keeps_receiving():
    world = small_world()
    NodeApi(world, world.nodes[3]).depart()
    world.request(1, 2, ("send", 3, ("ping",)))
    world.run()
    assert world.l_set == {3}
    assert (2, ("ping",)) in world.nodes[3].inbox
    assert (3, ("pong",)) in world.nodes[2].inbox


def test_frozen_node_gets_no_delivery_timer_request_or_tob():
    world = small_world(seed=2)
    world.nodes[3].frozen = True
    world.request(1, 2, ("send", 3, ("ping",)))
    world.request(1, 3, ("send", 2, ("ping",)))
    world.set_timer(3, "tick", 2)
    world.tob_broadcast(2, ("hello",))
    trace = world.run()
    to_3 = [e for e in trace.events if e.get("dst") == 3 or e.get("node") == 3]
    assert [e["kind"] for e in to_3] == ["apl"]
    assert to_3[0]["frozen"] is True
    assert world.nodes[3].inbox == [] and world.nodes[3].tob_inbox == []
    assert world.nodes[2].tob_inbox == [(2, ("hello",))]
    assert world.l_set == set()


@pytest.mark.parametrize("field", [{"fairness_bound": 0},
                                   {"fairness_bound": True}, {"fairness_bound": 2.0}])
def test_schedule_policy_rejects_unknown_mode_and_bad_bound(field):
    with pytest.raises(ScenarioError):
        SchedulePolicy(seed=0, **field)


def test_adding_a_second_node_with_the_same_pid_is_an_error():
    world = small_world()
    with pytest.raises(ScenarioError, match="added twice"):
        world.add_node(EchoNode(2))


class LateRequester(Adversary):
    """On its first delivery, asks node 1 for a send ``offset`` steps from now."""

    def __init__(self, offset):
        self.offset, self.at = offset, None

    def on_deliver(self, w, env):
        if self.at is None:
            self.at = w.step
            w.request(w.step + self.offset, 1, ("send", 3, ("late",)))


def test_a_request_for_a_step_before_the_current_one_is_an_error():
    adversary = LateRequester(-1)
    world = small_world(adversary=adversary)
    world.request(2, 1, ("send", 4, ("to-byz",)))
    with pytest.raises(ScenarioError) as raised:
        world.run()
    assert adversary.at > 2
    assert str(raised.value) == (f"request for step {adversary.at - 1} "
                                 f"made at step {adversary.at}")


def test_a_request_for_the_current_step_is_run_in_that_step():
    adversary = LateRequester(0)
    world = small_world(adversary=adversary)
    world.request(2, 1, ("send", 4, ("to-byz",)))
    trace = world.run()
    [late] = [e for e in trace.events if e["kind"] == "request" and e["request"][2] == ("late",)]
    assert late["step"] == adversary.at
    steps = [e["step"] for e in trace.events]
    assert steps == sorted(steps)


@pytest.mark.parametrize("at", [-1, 1.0, True, "1"])
def test_a_request_needs_an_int_step_from_the_current_one(at):
    world = small_world()
    with pytest.raises(ScenarioError, match="request for step"):
        world.request(at, 1, ("send", 3, ("ping",)))


@pytest.mark.parametrize("delay", [2.0, True, None])
def test_a_timer_needs_an_int_delay(delay):
    with pytest.raises(ScenarioError, match="timer delay"):
        small_world().set_timer(1, "t", delay)


# --- the touch() contract: one state event per flush that follows a touch ------


class DoubleToucher(EchoNode):
    """Touches itself twice on a 'touch' request."""

    def on_request(self, api, request):
        if request == ("touch",):
            self.touch()
            self.touch()
        else:
            super().on_request(api, request)


def state_steps(trace):
    return [e["step"] for e in trace.events if e["kind"] == "state"]


def test_node_touched_before_run_yields_one_state_event_at_the_first_flush():
    world = small_world()
    world.nodes[3].touch()
    trace = world.run()
    assert [e["kind"] for e in trace.events] == ["state", "end"]
    assert state_steps(trace) == [0]


def test_node_touched_before_it_is_added_yields_one_state_event_at_the_first_flush():
    qs, _ = load_fixture("fig1")
    world = World(Attack.of(qs.universe, (4,)), SchedulePolicy(seed=0))
    node = EchoNode(2)
    node.touch()
    world.add_node(node)
    assert state_steps(world.run()) == [0]


def test_node_touched_twice_in_one_step_yields_one_state_event():
    world = small_world(node=DoubleToucher)
    world.request(3, 2, ("touch",))
    world.request(5, 1, ("send", 4, ("quiet",)))    # a step that touches nothing
    trace = world.run()
    assert {"step": 5, "kind": "request", "node": 1,
            "request": ("send", 4, ("quiet",))} in trace.events
    assert state_steps(trace) == [3]


def test_node_touched_from_an_adversary_hook_yields_one_state_event():
    class Toucher(Adversary):
        def on_deliver(self, w, env):
            w.nodes[3].touch()

    world = small_world(adversary=Toucher())
    world.request(2, 1, ("send", 4, ("to-byz",)))   # a step that touches nothing
    trace = world.run()
    [byz] = [e for e in trace.events if e["kind"] == "apl" and e.get("byz")]
    assert state_steps(trace) == [byz["step"]]
    assert byz["step"] > 2


# --- canonical JSON -------------------------------------------------------------------


Pair = namedtuple("Pair", "left right")

scalars = st.one_of(st.integers(-30, 30), st.integers(), st.text("ab-1", max_size=3),
                    st.booleans(), st.none(), st.floats())
signatures = st.builds(Signature, st.integers(0, 12) | st.text("ab", max_size=2),
                       st.text("0123456789abcdef", max_size=4))
hashables = st.recursive(
    scalars | signatures,
    lambda inner: (st.tuples(inner, inner) | st.frozensets(inner, max_size=3)
                   | st.builds(Pair, inner, inner)),
    max_leaves=6)
dict_keys = st.one_of(st.text("ab1-", max_size=3), st.integers(-30, 30), st.integers(),
                      st.booleans(), st.none(), st.floats())


def nested(max_leaves, keys=None):
    """Nested values whose dicts have str keys, or also ``keys`` if given."""
    def dicts(inner):
        out = st.dictionaries(st.text("ab1-", max_size=3), inner, max_size=4)
        return out if keys is None else out | st.dictionaries(keys, inner, max_size=4)

    return st.recursive(
        scalars | signatures,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.sets(hashables, max_size=4) | st.frozensets(hashables, max_size=4)
                       | st.builds(Pair, inner, inner) | dicts(inner)),
        max_leaves=max_leaves)


values = nested(20, dict_keys)
str_keyed = nested(20)


@settings(max_examples=400, deadline=None)
@given(str_keyed)
def test_canon_json_matches_the_pre_pass_oracle(obj):
    assert canon_json(obj) == oracles.oracle_canon_json(obj)


@settings(max_examples=300, deadline=None)
@given(values)
def test_the_prebuilt_encoder_writes_what_the_stdlib_encoder_writes(obj):
    # canon_json is the prebuilt encoder, for keys of any type
    try:
        blob = sim._ENCODER.encode(obj)
    except TypeError:   # a dict whose keys cannot be sorted or spelled
        with pytest.raises(TypeError):
            canon_json(obj)
    else:
        assert canon_json(obj) == blob
    pre_passed = canon(obj)
    assert (sim._encode(pre_passed) == sim._ENCODER.encode(pre_passed)
            == oracles.oracle_canon_json(obj))


@pytest.mark.parametrize("obj, blob", [
    ({10: 1, 9: 2}, '{"10":1,"9":2}'),
    ({True: 1}, '{"True":1}'),
    ({None: 1, 2: 3}, '{"2":3,"None":1}'),
    ({-1: 0, -2: 0}, '{"-1":0,"-2":0}'),
    ({1: "a", "1": "b"}, '{"1":"b"}'),
    ({"k": [{10: 1, 9: 2}]}, '{"k":[{"10":1,"9":2}]}'),
    (("x", {"a": {9.5: 0, 10: 1}}), '["x",{"a":{"10":1,"9.5":0}}]'),
    ([frozenset({3, 1}), {"s": {2, 1}}], '[[1,3],{"s":[1,2]}]'),
    ({"a": 1, "b": [{}]}, '{"a":1,"b":[{}]}'),
    (Signature(2, "ab"), '{"digest":"ab","signer":2}'),
])
def test_canon_json_spells_every_key_as_canon_does(obj, blob):
    # canon's spelling of a key is str(key), reached by canon's pre-pass
    assert canon_json(canon(obj)) == blob == oracles.oracle_canon_json(obj)


@pytest.mark.parametrize("obj, blob", [
    ({10: 1, 9: 2}, '{"9":2,"10":1}'),
    ({True: 1}, '{"true":1}'),
    ({-1: 0, -2: 0}, '{"-2":0,"-1":0}'),
    ({"k": [{10: 1, 9: 2}]}, '{"k":[{"9":2,"10":1}]}'),
    (("x", {"a": {9.5: 0, 10: 1}}), '["x",{"a":{"9.5":0,"10":1}}]'),
    ({1: "a", "1": "b"}, None),
    ({None: 1, 2: 3}, None),
    ({"k": [{1: "a", "1": "b"}]}, None),
])
def test_canon_json_spells_a_key_that_is_not_a_str_as_json_does(obj, blob):
    # int keys go by value, True is "true"; keys that do not compare raise,
    # so 1 and "1" cannot collapse into one key
    if blob is None:
        with pytest.raises(TypeError):
            canon_json(obj)
    else:
        assert canon_json(obj) == blob


# --- id order and trace lines ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers()), st.lists(st.text("ab-", max_size=3)),
                 st.lists(st.integers(-5, 5) | st.text("ab", max_size=2)),
                 st.lists(st.integers(-2, 2) | st.booleans())))
def test_sorted_ids_matches_the_id_key_order(ps):
    # repr tells True from 1, which compare equal
    for given_ids in (ps, set(ps)):
        assert (list(map(repr, sorted_ids(given_ids)))
                == list(map(repr, sorted(given_ids, key=id_key))))


ids = st.integers(-3, 60) | st.text("ab7-", max_size=3) | st.text(max_size=3)
steps = st.integers(0, 10**6)
snaps = st.text("0123456789abcdef", min_size=12, max_size=12)
payloads = nested(6)   # str keys, as the node contract asks
PAYLOAD = st.none()   # a payload slot, filled by trace_events


def event(kind, **fields):
    return st.fixed_dictionaries({"step": steps, "kind": st.just(kind), **fields})


event_kinds = st.one_of(
    event("state", snap=snaps),
    event("tob", dst=ids, index=steps, src=ids, msg=PAYLOAD),
    event("tob_order", index=steps, src=ids, msg=PAYLOAD),
    event("apl", src=ids, dst=ids, msg=PAYLOAD),
    event("apl", src=ids, dst=ids, msg=PAYLOAD, byz=st.just(True)),
    event("request", node=ids, request=PAYLOAD),
    event("response", node=ids, response=st.sampled_from(["LeaveComplete", "Busy"])),
    event("end", outcome=st.sampled_from(["quiescent", "step_cap"]), snap=snaps),
    event("timer", node=ids, tag=st.just("join_timeout")),
    event("probe_violation", probe=st.just("intersection"), witness=PAYLOAD))


@st.composite
def trace_events(draw):
    """Events of every kind the kernel writes, in its key order, with
    payloads that recur as one object; some are mutated off their kind's
    key set or field types."""
    shared = draw(st.lists(payloads, min_size=1, max_size=3))
    out = []
    for e in draw(st.lists(event_kinds, max_size=10)):
        for key in {"msg", "request", "witness"} & set(e):
            i = draw(st.integers(0, len(shared)))
            e[key] = shared[i] if i < len(shared) else draw(payloads)
        how = draw(st.sampled_from(["as is"] * 4 + ["bool step", "extra key",
                                                     "missing key", "odd id"]))
        if how == "bool step":
            e["step"] = draw(st.booleans())
        elif how == "extra key":
            e["zz"] = draw(payloads)
        elif how == "missing key" and len(e) > 2:
            del e[draw(st.sampled_from(sorted(set(e) - {"kind"})))]
        elif how == "odd id":
            for key in {"src", "dst", "node"} & set(e):
                e[key] = draw(st.booleans() | st.floats() | st.tuples(ids))
        out.append(e)
    return out


@settings(max_examples=150, deadline=None)
@given(trace_events())
def test_to_jsonl_matches_the_whole_event_oracle(events):
    trace = Trace()
    trace.events = events
    assert trace.to_jsonl() == oracles.oracle_to_jsonl(events)


def test_to_jsonl_encodes_a_payload_once_and_an_off_template_event_whole():
    payload = ("LeaveCheck", (frozenset({"b", 7}), Signature(7, "ab")))
    plain = [{"step": i, "kind": "tob", "dst": i, "index": 0, "src": "e", "msg": payload}
             for i in range(30)]
    whole = [{"step": True, "kind": "state", "snap": "00ff"},            # a bool step
             {"step": 1, "kind": "state", "snap": "00ff", "extra": 1},   # an extra key
             {"step": 1, "kind": "apl", "src": 1, "msg": payload},       # no dst
             {"step": 1, "kind": "apl", "src": (1,), "dst": 2, "msg": payload}]
    int_keyed = {"step": 2, "kind": "apl", "src": 1, "dst": 2, "msg": {"k": {10: 1, 9: 2}}}
    trace = Trace()
    trace.events = plain + whole + [int_keyed]
    with mock.patch("hqs.sim.canon_json", wraps=canon_json) as spy:
        blob = trace.to_jsonl()
    *lines, last = blob.splitlines()
    assert lines == oracles.oracle_to_jsonl(trace.events[:-1]).splitlines()
    # the int keys of a payload are ordered and spelled as json does
    assert last == '{"dst":2,"kind":"apl","msg":{"k":{"9":2,"10":1}},"src":1,"step":2}'
    encoded = [c.args[0] for c in spy.call_args_list]
    assert sum(obj is payload for obj in encoded) == 1
    assert all(any(obj is e for obj in encoded) for e in whole)
    assert not any(obj is e for obj in encoded for e in plain + [int_keyed])


def test_to_jsonl_shares_a_blob_only_between_equal_tuples_of_exact_strs_and_ints():
    # ("Echo", 1, "a") equals ("Echo", True, "a") and ("Echo", 1.0, "a"), but
    # each spells its own line; two separate objects of each kind
    payloads = [tuple(fields) for fields in [["Echo", 1, "a"], ["Echo", True, "a"],
                                             ["Echo", 1.0, "a"], ["Echo", "1", "a"]] * 2]
    trace = Trace()
    trace.events = [{"step": 0, "kind": "apl", "src": 1, "dst": 2, "msg": msg}
                    for msg in payloads + payloads[::-1]]
    with mock.patch("hqs.sim.canon_json", wraps=canon_json) as spy:
        lines = trace.to_jsonl().splitlines()
    assert lines == oracles.oracle_to_jsonl(trace.events).splitlines()
    assert len(set(lines)) == 4
    encoded = Counter(repr(c.args[0]) for c in spy.call_args_list)
    assert encoded == {"('Echo', 1, 'a')": 1, "('Echo', '1', 'a')": 1,
                       "('Echo', True, 'a')": 2, "('Echo', 1.0, 'a')": 2}


# --- lines written as events are recorded ---------------------------------------


def kernel_trace():
    world = small_world(seed=3)
    world.request(1, 2, ("send", 3, ("ping",)))
    world.request(2, 1, ("send", 4, ("to-byz",)))
    world.tob_broadcast(2, ("hello",))
    return world.run()


@pytest.mark.parametrize("edit", ["append", "replace", "replace with an equal", "reassign"])
def test_a_trace_changed_after_its_run_serialises_its_events(edit):
    trace = kernel_trace()
    assert trace.to_jsonl() == oracles.oracle_to_jsonl(trace.events)
    if edit == "append":
        trace.events.append({"step": 99, "kind": "timer", "node": 2, "tag": "t"})
    elif edit == "replace":
        trace.events[1] = {"step": 1, "kind": "response", "node": 2, "response": "Done"}
    elif edit == "replace with an equal":   # 1.0 == 1, spelled 1.0
        trace.events[1] = {**trace.events[1], "step": float(trace.events[1]["step"])}
    else:
        trace.events = trace.events[::-1]
    want = oracles.oracle_to_jsonl(trace.events)
    assert trace.to_jsonl() == want
    assert trace.to_jsonl() != oracles.oracle_to_jsonl(kernel_trace().events)


class Chatter(EchoNode):
    def on_start(self, api):
        api.send(0, ("m",))
        api.send_all(sorted_ids(api.world.nodes), ("n",))
        api.tob(("t",))


@pytest.mark.parametrize("odd", [1.5, True])
def test_an_event_with_an_id_other_than_an_int_or_str_is_written_whole(odd):
    world = World(Attack.of([0, 2, odd], [0]), SchedulePolicy(seed=1))
    for pid in (2, odd):
        world.add_node(Chatter(pid))
    trace = world.run()
    kinds = Counter(e["kind"] for e in trace.events if odd in (e.get("src"), e.get("dst")))
    assert kinds["apl"] == 4 and kinds["tob"] == 3
    assert trace.to_jsonl() == oracles.oracle_to_jsonl(trace.events)


def test_a_kernel_run_encodes_each_payload_object_at_most_once():
    qs, attack = load_fixture("fig1")
    world = make_brb_world(qs, attack, SchedulePolicy(seed=2),
                           adversary=BrbByzantine(sender=4, values=("u", "v")))
    world.request(1, 2, ("Broadcast", "m"))
    with mock.patch("hqs.sim.canon_json", wraps=canon_json) as spy:
        trace = world.run()
        blob = trace.to_jsonl()
    assert blob == oracles.oracle_to_jsonl(trace.events)
    payloads = {id(e[k]): e[k] for e in trace.events for k in ("msg", "request") if k in e}
    encoded = Counter(id(c.args[0]) for c in spy.call_args_list)
    assert len(payloads) > 20 and 0 < sum(encoded[p] for p in payloads)
    assert max(encoded[p] for p in payloads) == 1
