"""The cached per-step paths agree with a recomputation from scratch.

The kernel digests every ``state`` and ``end`` event from per-node JSON
fragments cached by touch version; each ``PROBES`` probe re-runs only when
its inputs (well-behaved quorums, ``l_set``, tentative sets) change.  A node
that changes its ``state_summary`` without ``touch()`` breaks the first
test, a probe keyed on too little breaks the second group.
"""

import gc
import random
import weakref
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hqs import scenarios
from hqs.core import Attack, new_quorum_system, sorted_ids, sorted_quorums
from hqs.fixtures import load_fixture
from hqs.gen import checked_sharing_system, outlived_system
from hqs.reconfig import AC, PC, ReconfigNode
from hqs.scenarios import (
    PROBES,
    SCENARIO_NAMES,
    BrbByzantine,
    CheckSpammer,
    make_brb_world,
    make_discovery_world,
    make_reconfig_world,
    probe_brb_consistency,
    probe_intersection,
    run_scenario,
)
from hqs.sim import SchedulePolicy, World, fingerprint


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


def leave_world(system_seed, seed, mode=AC):
    """A criterion-05 world: a generated outlived system, CheckSpammer, up
    to three Leave or Remove requests and the three outlived probes."""
    rng = random.Random(system_seed)
    qs, attack, outlived = outlived_system(rng, n_max=6)
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=seed, fairness_bound=4),
                                mode=mode, adversary=CheckSpammer())
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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999))
def test_snapshot_digest_matches_fingerprint_on_brb_worlds(system_seed, seed):
    rng = random.Random(system_seed)
    qs, attack = checked_sharing_system(rng, n_max=7)
    byz = sorted_ids(attack.byzantine)
    world = make_brb_world(qs, attack, SchedulePolicy(seed=seed),
                           adversary=BrbByzantine(sender=byz[0] if byz else None))
    world.add_probe("brb_consistency", probe_brb_consistency)
    world.request(1, sorted_ids(qs.active & attack.well_behaved)[0], ("Broadcast", "v"))
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
