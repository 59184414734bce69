from collections import Counter, namedtuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hqs import sim
from hqs.core import Attack, id_key, sorted_ids
from hqs.errors import ForgedSender, ForgedSigner, ScenarioError
from hqs.fixtures import load_fixture
from hqs.sim import (
    ADVERSARIAL,
    Adversary,
    Node,
    NodeApi,
    SchedulePolicy,
    Signature,
    Trace,
    World,
    canon,
    canon_json,
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


def small_world(seed=0, mode="RandomFair", adversary=None, byz=(4,), step_cap=10_000,
                node=EchoNode):
    qs, _ = load_fixture("fig1")
    attack = Attack.of(qs.universe, byz)
    world = World(attack, SchedulePolicy(seed=seed, mode=mode),
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

    world = small_world(seed=1, mode=ADVERSARIAL, adversary=Reorderer())
    world.request(1, 2, ("send", 3, ("ping",)))
    trace = world.run()
    arrival = [e for e in trace.events
               if e["kind"] == "apl" and e["msg"] == ("ping",)]
    assert arrival and arrival[0]["step"] <= 1 + world.policy.fairness_bound


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


@pytest.mark.parametrize("field", [{"mode": "Typo"}, {"fairness_bound": 0},
                                   {"fairness_bound": True}, {"fairness_bound": 2.0}])
def test_schedule_policy_rejects_unknown_mode_and_bad_bound(field):
    with pytest.raises(ScenarioError):
        SchedulePolicy(seed=0, **field)


def test_adding_a_second_node_with_the_same_pid_is_an_error():
    world = small_world()
    with pytest.raises(ScenarioError, match="added twice"):
        world.add_node(EchoNode(2))


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
