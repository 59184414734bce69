"""The cached per-step paths agree with a recomputation from scratch.

The kernel digests every ``state`` and ``end`` event from per-node JSON
fragments cached by touch version; each ``PROBES`` probe re-runs only when
its inputs (well-behaved quorums, ``l_set``, tentative sets) change.  A node
that changes its ``state_summary`` without ``touch()`` breaks the first
test, a probe keyed on too little breaks the probe group.  A ``ReconfigNode``
fragment spelt from a stale part, a stale ``sorted_q`` or a probe view that
misses a moved node breaks the fragment fence, and a run that mutates what
the worlds of one system share breaks the reuse fence.  A delta re-check
that skips a pair a change can break, or that is taken when ``l_set`` grew
under a check it strengthens, breaks the delta fence.  A node-shared frozen
tomb that misses a write from outside a Check, or that hands a tomb of 4.0
the spelling of a tomb of 4, breaks the tomb tests.  A flush count that
misses a ``state`` event, a probe view refreshed more than once per flush,
or one that misses a move made outside a flush breaks the flush tests.
"""

import gc
import random
import weakref
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hqs import props, scenarios
from hqs.broadcast import Adopted, BrbNode
from hqs.core import Attack, followers, new_quorum_system, sorted_ids, sorted_quorums
from hqs.fixtures import load_fixture
from hqs.gen import checked_sharing_system, outlived_system
from hqs.reconfig import _EMPTY, AC, PC, ReconfigNode, _check_passes
from hqs.scenarios import (
    PROBES,
    SCENARIO_NAMES,
    AddAccomplice,
    BrbByzantine,
    CheckSpammer,
    _QuorumView,
    make_brb_world,
    make_discovery_world,
    make_reconfig_world,
    probe_brb_consistency,
    probe_intersection,
    run_scenario,
)
from hqs.sim import Adversary, NodeApi, SchedulePolicy, World, canon_json, fingerprint
from test_brb import generated_systems
from test_controls import criterion_05_worlds, probes_tripped, tomb_blind


def fs(*xs):
    return frozenset(xs)


@contextmanager
def snapshots_checked():
    """Assert at every state and end event that the recorded digest is the
    full fingerprint of the world's snapshot; yields counts per kind."""
    seen = Counter()
    record = World._record

    def checked(self, event):
        if event["kind"] in ("state", "end"):
            assert event["snap"] == fingerprint(self.state_snapshot()), event
            seen[event["kind"]] += 1
        record(self, event)

    with mock.patch.object(World, "_record", checked):
        yield seen


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_snapshot_digest_matches_fingerprint_on_named_scenarios(name):
    with snapshots_checked() as seen:
        run_scenario(name)
    assert seen["end"] == 1 and seen["state"] > 0


def leave_world(system_seed, seed, mode=AC, spammer=CheckSpammer):
    """A criterion-05 world: a generated outlived system, CheckSpammer, up
    to three Leave or Remove requests and the three outlived probes."""
    rng = random.Random(system_seed)
    qs, attack, outlived = outlived_system(rng, n_max=6)
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=seed, fairness_bound=4),
                                mode=mode, adversary=spammer())
    for name in ("intersection", "active_inclusion", "active_availability"):
        world.add_probe(name, PROBES[name](outlived))
    wb_active = sorted_ids(qs.active & attack.well_behaved)
    for j, pid in enumerate(rng.sample(wb_active, min(3, len(wb_active)))):
        if rng.random() < 0.5:
            world.request(1 + 2 * j, pid, ("Leave",))
        else:
            q = rng.choice(sorted(qs.quorums_of(pid), key=sorted_ids))
            world.request(1 + 2 * j, pid, ("Remove", q))
    return world


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.sampled_from((AC, PC)))
def test_snapshot_digest_matches_fingerprint_on_leave_worlds(system_seed, seed, mode):
    world = leave_world(system_seed, seed, mode)
    with snapshots_checked() as seen:
        world.run()
    assert seen["end"] == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.sampled_from((AC, PC)))
def test_kept_q_list_matches_a_fresh_sort_after_every_handler(system_seed, seed, mode):
    # Q is sorted when the quorums change, not when a summary is asked for
    handled = Counter()

    def checked(name):
        handler = getattr(ReconfigNode, name)

        def run_then_check(self, *args):
            handler(self, *args)
            assert isinstance(self.quorums, frozenset)
            assert self.state_summary()["Q"] == [sorted_ids(q) for q in
                                                 sorted_quorums(self.quorums)]
            handled[name] += 1

        return run_then_check

    names = ("on_request", "on_message", "on_tob", "on_timer")
    with mock.patch.multiple(ReconfigNode, **{name: checked(name) for name in names}):
        leave_world(system_seed, seed, mode).run()
    assert handled["on_request"] > 0


# --- ReconfigNode fragments from kept parts ----------------------------------------


# how a generated system's int ids are spelt: as they are, as strs, or mixed
SPELLINGS = {"int": lambda p: p, "str": lambda p: f"p{p}",
             "mixed": lambda p: p if p % 2 else f"p{p}"}


def respelt(qs, attack, outlived, spell):
    """The system, attack and outlived set with every id ``p`` renamed ``spell(p)``."""
    decls = {spell(p): [[spell(x) for x in q] for q in quorums]
             for p, quorums in qs.quorum_map().items()}
    universe, byzantine = [spell(p) for p in qs.universe], [spell(p) for p in attack.byzantine]
    return (new_quorum_system([spell(p) for p in qs.active], decls, universe=universe,
                              byzantine=byzantine),
            Attack.of(universe, byzantine), frozenset(map(spell, outlived)))


class TombWriter(CheckSpammer):
    """Puts each sequenced broadcaster into one node's tomb from an
    adversary hook, outside every handler, and touches that node."""

    def on_tob(self, world, index, env):
        node = world.nodes[sorted_ids(world.nodes)[index % len(world.nodes)]]
        node.tomb.add(env.src)
        node.touch()


@contextmanager
def fragments_checked():
    """Assert after every ReconfigNode handler that every node's
    ``state_json()`` is ``canon_json(state_summary())`` and its
    ``sorted_q`` is its quorums freshly sorted, and after every flush of a
    world with probes that the probes' shared view reads what a view built
    afresh reads; yields how many checked nodes had a tomb, a tentative set
    or were frozen."""
    seen = Counter()

    def checked(name):
        handler = getattr(ReconfigNode, name)

        def run_then_check(self, api, *args):
            handler(self, api, *args)
            for node in api.world.nodes.values():
                assert node.state_json() == canon_json(node.state_summary()), node.pid
                assert node.sorted_q == tuple(sorted_quorums(node.quorums)), node.pid
                seen.update(tomb=bool(node.tomb), tentative=bool(node.tentative),
                            frozen=node.frozen)

        return run_then_check

    run_probes = World._run_probes

    def probes_then_check(world):
        run_probes(world)
        if world.probes:
            view, fresh = world.probe_state[_QuorumView], _QuorumView(world)
            assert (view.quorums, view.left) == (fresh.quorums, fresh.left), world.step

    names = ("on_start", "on_request", "on_message", "on_tob", "on_timer")
    with mock.patch.multiple(ReconfigNode, **{name: checked(name) for name in names}), \
            mock.patch.object(World, "_run_probes", probes_then_check):
        yield seen


def fenced_world(system_seed, seed, mode, spell, ops, adversary):
    """A generated outlived system with its ids respelt, and up to three
    requests drawn from ``ops``: Leave, Remove, or Add of a random quorum."""
    rng = random.Random(system_seed)
    qs, attack, outlived = respelt(*outlived_system(rng, n_max=6), SPELLINGS[spell])
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=seed, fairness_bound=4),
                                mode=mode, adversary=adversary())
    for name in ("intersection", "active_inclusion", "active_availability"):
        world.add_probe(name, PROBES[name](outlived))
    wb_active = sorted_ids(qs.active & attack.well_behaved)
    for j, (pid, op) in enumerate(zip(rng.sample(wb_active, min(3, len(wb_active))), ops)):
        if op == "Remove":
            request = ("Remove", rng.choice(sorted_quorums(qs.quorums_of(pid))))
        elif op == "Add":
            members = rng.sample(wb_active, rng.randint(1, len(wb_active)))
            request = ("Add", frozenset(members) | {pid})
        else:
            request = (op,)
        world.request(1 + 2 * j, pid, request)
    return world


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.sampled_from((AC, PC)),
       st.sampled_from(tuple(SPELLINGS)),
       st.lists(st.sampled_from(("Leave", "Remove", "Add")), min_size=3, max_size=3),
       st.sampled_from((CheckSpammer, AddAccomplice, TombWriter)))
def test_state_json_is_the_canonical_summary_after_every_handler(
        system_seed, seed, mode, spell, ops, adversary):
    world = fenced_world(system_seed, seed, mode, spell, ops, adversary)
    with fragments_checked(), snapshots_checked() as seen:
        world.run()
    assert seen["end"] == 1


@pytest.mark.parametrize("spell", SPELLINGS)
def test_state_json_fence_sees_tentative_tombs_and_frozen_nodes(spell):
    # fig. 1's add of {3, 5} puts a tentative entry at 5; a Leave freezes
    # its node and fills tombs
    seen, s = Counter(), SPELLINGS[spell]
    qs, attack, _ = respelt(*load_fixture("fig1"), (), s)
    for requests in ([(1, s(3), ("Add", fs(s(3), s(5))))], [(1, s(5), ("Leave",))]):
        world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
        for at, pid, request in requests:
            world.request(at, pid, request)
        with fragments_checked() as got, snapshots_checked():
            world.run()
        seen.update(got)
    assert seen["tentative"] > 0 and seen["tomb"] > 0 and seen["frozen"] > 0


@pytest.mark.parametrize("spell", SPELLINGS)
def test_a_tomb_changed_outside_a_check_is_spelt_again(spell):
    s = SPELLINGS[spell]
    qs, attack, _ = respelt(*load_fixture("fig1"), (), s)
    node = make_reconfig_world(qs, attack, SchedulePolicy(seed=0)).nodes[s(2)]
    for change in (lambda: node.tomb.add(s(1)), lambda: node.tomb.add(s(5)),
                   lambda: node.tomb.discard(s(1)),
                   lambda: (node.tomb.discard(s(5)), node.tomb.add(s(3)))):   # same size
        assert node.state_json() == canon_json(node.state_summary())
        change()
        node.touch()
        assert node.state_json() == canon_json(node.state_summary())


# a tomb written outside a Check, then a Check from 5 of node 2's quorums that
# only the written tomb decides: a node still reading the tomb frozen at its
# last passing Check would pass the first and fail the second
OUTSIDE_WRITES = {"add": ((1,), lambda tomb, s: tomb.add(s(2)), False),
                  "discard": ((1, 2), lambda tomb, s: tomb.discard(s(2)), True)}


@pytest.mark.parametrize("spell", SPELLINGS)
@pytest.mark.parametrize("write", OUTSIDE_WRITES)
def test_a_check_after_a_tomb_write_outside_a_check_reads_the_written_tomb(spell, write):
    s, (passed, change, verdict) = SPELLINGS[spell], OUTSIDE_WRITES[write]
    qs, attack, _ = respelt(*load_fixture("fig1"), (), s)
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    node = world.nodes[s(3)]
    api = NodeApi(world, node)
    for src in passed:   # each passes at the tomb before it
        node.on_tob(api, s(src), ("LeaveCheck", (fs(s(1), s(2), s(4)),)))
    assert node.tomb == {s(src) for src in passed}
    change(node.tomb, s)
    declared, tomb = world.nodes[s(2)].sorted_q, set(node.tomb)
    assert _check_passes(declared, _EMPTY, frozenset((s(5), *tomb))) is verdict
    node.on_tob(api, s(5), ("LeaveCheck", declared))
    assert node.tomb == (tomb | {s(5)} if verdict else tomb)
    assert node.state_json() == canon_json(node.state_summary())


class ByzantineCheck(Adversary):
    """Broadcasts one Check from Byzantine ``sender`` that every fig. 1 node passes."""

    def __init__(self, sender):
        self.sender = sender

    def on_init(self, world):
        world.adversary_tob(self.sender, ("LeaveCheck", (fs(1, 2, 4),)))


def test_equal_ids_of_two_types_share_no_tomb_spelling():
    # 4 and 4.0 are equal keys to the process-wide tomb caches, so a tomb
    # shared across these two worlds would spell 4.0 as the first world's 4;
    # the well-behaved Leave at 5 then grows {4.0}, which a cache keyed on
    # the tomb's set alone would answer with the first world's {4, 5}
    qs, attack = load_fixture("fig1")
    for sender, spelt in ((4, '"tomb":[4,5]}'), (4.0, '"tomb":[4.0,5]}')):
        world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0),
                                    adversary=ByzantineCheck(sender))
        world.request(3, 5, ("Leave",))
        with fragments_checked() as tombs, snapshots_checked() as seen:
            world.run()
        assert seen["end"] == 1 and tombs["tomb"] > 0
        assert [node.state_json().endswith(spelt) for node in world.nodes.values()] == [True] * 4


def test_the_tomb_blind_control_still_first_kills_at_world_80():
    # it swaps in an empty tomb around every Check: a write outside a Check
    with mock.patch.object(ReconfigNode, "on_tob", tomb_blind(ReconfigNode.on_tob)):
        first = next(index for index, world in enumerate(criterion_05_worlds())
                     if "intersection" in probes_tripped(world))
    assert first == 80


def test_a_brb_map_changed_outside_a_handler_is_spelt_again():
    qs, attack = load_fixture("fig1")
    node = make_brb_world(qs, attack, SchedulePolicy(seed=0)).nodes[2]
    for change in (lambda: node.echoed.update({1: "v"}),
                   lambda: node.readied.update({"a": ["v", 1], 3: "w"}),
                   lambda: node.delivered.update({1: "v"}),
                   lambda: node.echoed.update({1: "w"}),   # a value replaced
                   lambda: node.readied.pop("a")):
        assert node.state_json() == canon_json(node.state_summary())
        change()
        node.touch()
        assert node.state_json() == canon_json(node.state_summary())


# --- world building once per system -------------------------------------------------


def node_state(world) -> dict:
    return {pid: (node.quorums, node.followers, node.state_summary(), node.state_json())
            for pid, node in world.nodes.items()}


@pytest.mark.parametrize("system_seed", range(6))
def test_a_world_built_after_a_run_starts_from_the_system_not_the_run(system_seed):
    # the first world's Leaves shrink quorums and its joiner's Probs grow
    # followers; the system's shared parts must come out of it unchanged
    qs, attack, outlived = outlived_system(random.Random(system_seed), n_max=6)
    wb = sorted_ids(qs.active & attack.well_behaved)
    policy = SchedulePolicy(seed=system_seed)
    for leaver in wb:   # until a Leave completes and shrinks some quorum
        first = make_reconfig_world(qs, attack, policy, joiners=("j",))
        first.request(1, leaver, ("Leave",))
        first.request(1, "j", ("Join", frozenset(wb), 200))
        first.run()
        grown = {pid for pid in wb if "j" in first.nodes[pid].followers}
        shrunk = {pid for pid in wb
                  if first.nodes[pid].quorums != frozenset(qs.quorums_of(pid))}
        if grown and shrunk:
            break
    assert grown and shrunk
    reused = make_reconfig_world(qs, attack, policy)
    again = make_reconfig_world(qs, attack, policy)
    assert all(reused.nodes[pid].quorums is again.nodes[pid].quorums for pid in reused.nodes)
    with mock.patch.object(props, "_memo", (None, {})):
        fresh = make_reconfig_world(qs, attack, policy)
    assert node_state(reused) == node_state(fresh)
    assert all(reused.nodes[pid].followers is not again.nodes[pid].followers
               for pid in reused.nodes)


def raw_brb_world(qs, attack, policy, adversary):
    """A world of BrbNodes built from unsorted iterables of sets and ids."""
    world = World(attack, policy, adversary=adversary)
    for pid in sorted_ids(qs.active & attack.well_behaved):
        world.add_node(BrbNode(pid, [set(q) for q in reversed(qs.quorums_of(pid))],
                               followers=list(reversed(sorted_ids(followers(qs, pid)))),
                               active=set(qs.active)))
    return world


def test_a_node_of_make_brb_world_is_the_node_built_from_raw_iterables():
    # ids spelt as strs order neither numerically nor, under a random hash
    # seed, as a set iterates; the adopted tuples must be sorted as the raw ones
    for i, (qs, attack) in enumerate(generated_systems()):
        qs, attack, _ = respelt(qs, attack, (), SPELLINGS[("int", "str", "mixed")[i % 3]])
        byz = sorted_ids(attack.byzantine)
        worlds = [build(qs, attack, SchedulePolicy(seed=i),
                        adversary=BrbByzantine(sender=byz[0] if byz else None))
                  for build in (make_brb_world, raw_brb_world)]
        assert isinstance(worlds[0].nodes[sorted_ids(worlds[0].nodes)[0]].active, Adopted)
        for world in worlds:
            world.request(1, sorted_ids(world.nodes)[0], ("Broadcast", "v"))
        traces = [world.run().to_jsonl() for world in worlds]
        assert traces[0] == traces[1]
        adopted, raw = ({pid: (node.quorums, node.followers, node.active, node.state_json())
                         for pid, node in world.nodes.items()} for world in worlds)
        assert adopted == raw


def test_a_finished_world_is_freed_without_the_cycle_collector():
    # the kernel's per-node api handles point at the world: kept on the
    # world they would form a cycle that only the collector frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        world = leave_world(7, 3)
        trace = world.run()
        assert trace.events
        ref = weakref.ref(world)
        del world, trace
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def brb_world(system_seed, seed, byzantine=BrbByzantine):
    """A broadcast from a well-behaved process, with the first Byzantine id
    equivocating and every Byzantine member voting at random."""
    rng = random.Random(system_seed)
    qs, attack = checked_sharing_system(rng, n_max=7)
    byz = sorted_ids(attack.byzantine)
    world = make_brb_world(qs, attack, SchedulePolicy(seed=seed),
                           adversary=byzantine(sender=byz[0] if byz else None))
    world.add_probe("brb_consistency", probe_brb_consistency)
    world.request(1, sorted_ids(qs.active & attack.well_behaved)[0], ("Broadcast", "v"))
    return world


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999))
def test_snapshot_digest_matches_fingerprint_on_brb_worlds(system_seed, seed):
    world = brb_world(system_seed, seed)
    with snapshots_checked() as seen:
        world.run()
    assert seen["end"] == 1 and seen["state"] > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999),
       st.sampled_from(("oracle", "threshold", None)))
def test_snapshot_digest_matches_fingerprint_on_discovery_worlds(system_seed, seed, validq):
    qs, attack = checked_sharing_system(random.Random(system_seed), n_max=7)
    world = make_discovery_world(qs, attack, SchedulePolicy(seed=seed), validq=validq)
    with snapshots_checked() as seen:
        world.run()
    assert seen["end"] == 1 and seen["state"] > 0


# --- the router's inline draw ----------------------------------------------------


class Hooked:
    """Schedule hooks that return the base draw; overridden, the router calls
    them for every message instead of making the draw itself."""

    calls = 0

    def delay(self, world, env):
        self.calls += 1
        return super().delay(world, env)

    def reorder(self, world, env):
        self.calls += 1
        return super().reorder(world, env)


class HookedCheckSpammer(Hooked, CheckSpammer):
    pass


class HookedBrbByzantine(Hooked, BrbByzantine):
    pass


def routed(world, trace) -> list:
    """(src, dst) of every message the world routed: delivered, then queued."""
    return ([(e["src"], e["dst"]) for e in trace.events if e["kind"] == "apl"]
            + [(env.src, env.dst) for _, kind, env in oracles.queued(world) if kind == "apl"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.sampled_from((AC, PC)),
       st.booleans())
def test_the_inline_draw_and_an_overriding_hook_write_one_trace(system_seed, seed, mode, brb):
    if brb:
        inline, hooked = (brb_world(system_seed, seed, byzantine=cls)
                          for cls in (BrbByzantine, HookedBrbByzantine))
    else:
        inline, hooked = (leave_world(system_seed, seed, mode, spammer=cls)
                          for cls in (CheckSpammer, HookedCheckSpammer))
    want, got = inline.run(), hooked.run()
    assert got.to_jsonl() == want.to_jsonl()
    assert hooked.adversary.calls == len(routed(hooked, got))


@pytest.mark.parametrize("system_seed", range(5))
def test_a_patched_base_reorder_is_asked_once_per_well_behaved_message(system_seed):
    want = brb_world(system_seed, 1).run()
    world = brb_world(system_seed, 1)
    with mock.patch.object(Adversary, "reorder", autospec=True,
                           side_effect=Adversary.reorder) as reorder:
        trace = world.run()
    assert trace.to_jsonl() == want.to_jsonl()
    byz = world.attack.byzantine
    well_behaved = [m for m in routed(world, trace) if byz.isdisjoint(m)]
    assert reorder.call_count == len(well_behaved) > 0


@pytest.mark.parametrize("system_seed", (4, 5, 6, 7, 9))   # systems with a Byzantine id
def test_a_delay_set_on_the_adversary_before_run_is_asked_for_every_byzantine_message(
        system_seed):
    # the router reads its hooks at the world's first routed message, in run()
    want = brb_world(system_seed, 1, byzantine=HookedBrbByzantine).run()
    world = brb_world(system_seed, 1)
    asked = []
    base = world.adversary.delay

    def delay(world, env):
        asked.append((env.src, env.dst))
        return base(world, env)

    world.adversary.delay = delay
    trace = world.run()
    assert trace.to_jsonl() == want.to_jsonl()
    byz = world.attack.byzantine
    touching = Counter(m for m in routed(world, trace) if not byz.isdisjoint(m))
    assert Counter(asked) == touching and touching   # routed and delivered in other orders


# --- probes -------------------------------------------------------------------


def test_persisting_violation_is_recorded_at_every_flush():
    qs, attack = load_fixture("attack_s5")   # inconsistent from the start
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=3),
                                adversary=CheckSpammer())
    world.add_probe("intersection", probe_intersection(attack.well_behaved))
    with mock.patch.object(scenarios, "consistency_witness",
                           wraps=scenarios.consistency_witness) as check:
        trace = world.run()
    kinds = [e["kind"] for e in trace.events]
    flushes = kinds.count("state")
    assert flushes > 1
    assert len(trace.violations) == flushes
    assert all(v["witness"] == trace.violations[0]["witness"] for v in trace.violations)
    # the spammer's Checks touch nodes without changing any quorum
    assert check.call_count < flushes
    for i, kind in enumerate(kinds):
        if kind == "state":
            assert kinds[i - 1] == "probe_violation"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_flushes_count_the_state_events_of_each_named_scenario(name):
    world, trace, _ = run_scenario(name)
    assert world.flushes == [e["kind"] for e in trace.events].count("state") > 0


def sampled_criterion_05_worlds():
    """Every 40th of criterion 05's first 2,000 worlds, in AC and in PC."""
    for mode in (AC, PC):
        yield from islice(criterion_05_worlds(mode), 0, 2000, 40)


def test_flushes_count_the_state_events_of_criterion_05_worlds():
    counts = [([e["kind"] for e in world.run().events].count("state"), world.flushes)
              for world in sampled_criterion_05_worlds()]
    assert all(states == flushes for states, flushes in counts)
    assert len(counts) == 100 and sum(states for states, _ in counts) == 970


def test_the_probe_view_is_refreshed_once_per_flush():
    # the first flush builds the view; each later one refreshes it once,
    # whichever of the three outlived probes reads it first
    with mock.patch.object(_QuorumView, "refresh", autospec=True,
                           side_effect=_QuorumView.refresh) as refresh:
        for world in sampled_criterion_05_worlds():
            world.probes[:] = [(name, mock.Mock(wraps=fn)) for name, fn in world.probes]
            refreshes = refresh.call_count
            world.run()
            assert [fn.call_count for _, fn in world.probes] == [world.flushes] * 3
            assert refresh.call_count - refreshes == world.flushes - 1 > 0


# (probe, the props function it runs, whether it reads l_set, whether it
# reads tentative sets)
PROBE_INPUTS = [
    ("intersection", "consistency_witness", True, False),
    ("intersection_full", "consistency_witness", False, False),
    ("active_inclusion", "inclusion_witness", True, False),
    ("active_availability", "active_availability_witness", True, False),
    ("tentative_inclusion", "inclusion_witness", False, True),
]


def chain_world():
    """1 and 3 meet only at 2: dropping 2 from the set breaks intersection."""
    qs = new_quorum_system([1, 2, 3], {1: [{1, 2}], 2: [{1, 2}, {2, 3}], 3: [{2, 3}]})
    world = make_reconfig_world(qs, Attack.of([1, 2, 3]), SchedulePolicy(seed=0))
    return world, fs(1, 2, 3)


@pytest.mark.parametrize("name,check,reads_left,reads_tentative", PROBE_INPUTS)
def test_probe_reruns_exactly_when_an_input_changes(name, check, reads_left,
                                                    reads_tentative):
    world, outlived = chain_world()
    probe = PROBES[name](outlived)
    with mock.patch.object(scenarios, check, wraps=getattr(scenarios, check)) as spy:
        def step(reruns):
            before = spy.call_count
            got = probe(world)
            assert spy.call_count - before == reruns
            assert got == PROBES[name](outlived)(world)   # a fresh probe agrees

        step(1)
        step(0)                                           # nothing changed
        world.nodes[3].tomb.add(1)
        world.nodes[3].touch()                            # touched, inputs equal
        step(0)
        world.nodes[3]._set_quorums([fs(3)])              # a quorum change alone
        step(1)
        world.l_set.add(2)                                # an l_set change alone
        step(int(reads_left))
        world.nodes[1].tentative.add((3, fs(1, 3)))       # a tentative change alone
        step(int(reads_tentative))


# --- the delta re-check against a fresh probe ---------------------------------------


def fence_world(system_seed, seed, mode, whole):
    """``leave_world``'s world, with its probes at the system's outlived set,
    or at every active well-behaved process if ``whole`` (then a Leave or
    Remove can break them)."""
    world = leave_world(system_seed, seed, mode)
    at = (frozenset(world.nodes) & world.well_behaved if whole
          else outlived_system(random.Random(system_seed), n_max=6)[2])
    world.probes[:] = [(name, PROBES[name](at)) for name, _ in world.probes]
    return world, at


def fence_probes(world, at, seen):
    """Assert at every flush that each probe of ``world`` answers what a
    fresh probe (a full check) answers; count calls and violations."""
    def fenced(name, probe):
        def check(w):
            got = probe(w)
            assert got == PROBES[name](at)(w), (name, w.step)
            seen["calls"] += 1
            seen["violations"] += got is not None
            return got
        return check

    world.probes[:] = [(name, fenced(name, probe)) for name, probe in world.probes]


# (mode, probes at every active well-behaved process, calls compared, violations
# seen) over 300 worlds, three per system.  In scratch copies, an inclusion delta
# that skips a changed node as p2 inside an unchanged quorum fails 144 and 146
# of the PC rows' worlds (the first at world 0); it fails no AC world.  One that
# skips the changed nodes' own quorums fails none of these worlds, only the
# top_world case below.  Consistency takes no delta, so no consistency mutant
# of that kind is left to catch.
DELTA_FENCE = [
    (AC, False, 11_877, 0),
    (PC, False, 5_652, 1_829),
    (AC, True, 11_877, 259),
    (PC, True, 5_652, 1_891),
]


@pytest.mark.parametrize("mode,whole,calls,violations", DELTA_FENCE)
def test_each_memoized_probe_answers_as_a_fresh_probe_at_every_flush(
        mode, whole, calls, violations):
    seen = Counter()
    for i in range(300):
        world, at = fence_world(i // 3, i, mode, whole)
        fence_probes(world, at, seen)
        world.run()
    assert (seen["calls"], seen["violations"]) == (calls, violations)


def top_world():
    """1's one quorum holds 2's and 3's, and nobody else's holds 1."""
    qs = new_quorum_system([1, 2, 3], {1: [{1, 2, 3}], 2: [{2, 3}], 3: [{2, 3}]})
    world = make_reconfig_world(qs, Attack.of([1, 2, 3]), SchedulePolicy(seed=0))
    return world, fs(1, 2, 3)


# (probe, the props function it runs, world, probe set, changed node, its new
# quorums, the witness, the ``changed`` the function is given): each failure
# lies in a pair that a changed quorum or a changed node is in.  Consistency
# has no delta: it runs its full walk whenever its pivot test fails
NEW_FAILURES = [
    # a changed node as p2 inside an unchanged quorum: 2 drops {1, 2}, and 1's
    # {1, 2} holds 2 with no quorum of 2's inside it
    ("active_inclusion", "inclusion_witness", chain_world, None, 2, [fs(2, 3)],
     [[1, 2], 2], fs(2)),
    # a new quorum as q: 1's {1, 3} holds 3 with no quorum of 3's inside it
    ("active_inclusion", "inclusion_witness", top_world, None, 1, [fs(1, 3)],
     [[1, 3], 3], fs(1)),
    ("tentative_inclusion", "inclusion_witness", chain_world, None, 2, [fs(2, 3)],
     [[1, 2], 2], fs(2)),
    # a new quorum that misses another one
    ("intersection", "consistency_witness", chain_world, None, 3, [fs(3)],
     [[1, 2], [3]], None),
    ("intersection_full", "consistency_witness", chain_world, None, 3, [fs(3)],
     [[1, 2], [3]], None),
    # a changed node with no quorum left inside the set
    ("active_availability", "active_availability_witness", chain_world, fs(1, 2), 2,
     [fs(2, 3)], [2], fs(2)),
]


@pytest.mark.parametrize("name,check,make,at,pid,quorums,witness,changed", NEW_FAILURES)
def test_a_delta_check_finds_each_kind_of_new_failure(name, check, make, at, pid,
                                                     quorums, witness, changed):
    world, outlived = make()
    probe = PROBES[name](at or outlived)
    with mock.patch.object(scenarios, check, wraps=getattr(scenarios, check)) as spy:
        assert probe(world) is None
        world.nodes[pid]._set_quorums(quorums)
        got = probe(world)
    assert spy.call_args.kwargs.get("changed") == changed
    assert got == witness == PROBES[name](at or outlived)(world)


@pytest.mark.parametrize("name,check,make,at,pid,quorums,witness,changed", NEW_FAILURES)
def test_a_probe_called_after_run_sees_each_later_move(name, check, make, at, pid,
                                                      quorums, witness, changed):
    # the probe last ran inside the run's one flush; called after the run,
    # outside any flush, it must see a move, and a second move of that node
    world, outlived = make()
    probe = PROBES[name](at or outlived)
    world.add_probe(name, probe)
    node = world.nodes[pid]
    node.touch()   # a node touched before run() yields one flush
    assert world.run().violations == [] and world.flushes == 1
    before = node.quorums
    node._set_quorums(quorums)
    assert probe(world) == witness == PROBES[name](at or outlived)(world)
    node._set_quorums(before)
    assert probe(world) is None
