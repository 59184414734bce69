"""Every delivered Check gets the verdict an unshared Check gives.

The nodes of a world share one (grown tomb, verdict) per delivered payload
and requester, tentative quorums and tomb.  The fence below runs each
``on_tob`` after computing its Check from scratch, as each node once did,
and asserts that the node passed it exactly when that Check passes and came
out holding that tomb, spelt as ``canon_json`` spells it.  A shared verdict
keyed on too little (no tomb, no tentative quorums, a requester by value
rather than by type) breaks it, as does one computed more than once per key.
"""

from collections import Counter
from contextlib import contextmanager
from itertools import islice
from unittest import mock

import pytest

from hqs import reconfig
from hqs.core import sorted_ids
from hqs.fixtures import load_fixture
from hqs.reconfig import AC, PC, ReconfigNode, _check_passes
from hqs.scenarios import CheckSpammer, make_reconfig_world
from hqs.sim import Adversary, Node, NodeApi, SchedulePolicy, canon_json
from test_controls import criterion_05_worlds
from test_incremental import SPELLINGS, TombWriter, fenced_world


def fs(*xs):
    return frozenset(xs)


def spelt(tomb) -> str:
    return canon_json(sorted_ids(tomb))


@contextmanager
def verdicts_fenced():
    """Assert at every Check delivery that the node passes it exactly when
    the unshared Check does and then holds that tomb, spelt alike by its
    summary and its fragment; and that each world computes one verdict (one
    ``_grown`` call) per distinct key.  Yields counts of what was met."""
    seen, keys, added = Counter(), {}, {}   # added: what passing Checks put in each tomb
    on_tob = ReconfigNode.on_tob

    def fenced(self, api, src, payload):
        if payload[0] not in ("LeaveCheck", "RemoveCheck"):
            return on_tob(self, api, src, payload)
        extra = (frozenset(q for _, q in self.tentative)
                 if self.combined_checks and self.tentative else frozenset())
        declared = payload[-1]
        tomb = set(self.tomb)
        keys.setdefault(api.world, set()).add((id(payload), id(src), extra, (
            spelt(tomb), frozenset(tomb)) if tomb != self._tomb[1] else self._tomb))
        passes = _check_passes.__wrapped__(tuple(map(frozenset, declared)), extra,
                                           frozenset(tomb) | {src})
        touches = []   # a node touches itself in on_tob exactly when the Check passes
        self.touch = lambda: (touches.append(1), Node.touch(self))
        try:
            on_tob(self, api, src, payload)
        finally:
            del self.touch
        want = tomb | {src} if passes else tomb
        assert (bool(touches), self.tomb) == (passes, want), (self.pid, src, payload)
        assert self._frozen_tomb()[0] == spelt(want)
        assert self.state_json() == canon_json(self.state_summary())
        outside = bool(tomb - added.setdefault(self, set()))   # ids written outside a Check
        added[self] |= {src} if passes else set()
        seen.update(deliveries=1, passes=passes, extra=bool(extra), outside=outside,
                    lists=not isinstance(declared, tuple)
                    or not all(type(q) is frozenset for q in declared))

    with mock.patch.object(ReconfigNode, "on_tob", fenced), \
            mock.patch.object(reconfig, "_grown", wraps=reconfig._grown) as grown:
        yield seen
        assert grown.call_count == sum(map(len, keys.values()))
        seen["verdicts"] = grown.call_count


@pytest.mark.parametrize("mode", (AC, PC))
def test_every_check_of_criterion_05_worlds_gets_the_unshared_verdict(mode):
    with verdicts_fenced() as seen:
        for world in islice(criterion_05_worlds(mode), 1000):
            world.run()
    assert seen["passes"] > 0 and seen["deliveries"] > seen["passes"]
    # each world's nodes share its verdicts
    assert 0 < seen["verdicts"] * 2 < seen["deliveries"]


@pytest.mark.parametrize("mode", (AC, PC))
@pytest.mark.parametrize("adversary", (CheckSpammer, TombWriter))
def test_every_check_gets_the_unshared_verdict_with_adds_and_outside_writes(mode, adversary):
    # Adds fill tentative sets that the Checks met meanwhile read; TombWriter
    # writes tombs outside every Check; the ids are ints, strs or both
    with verdicts_fenced() as seen:
        for i in range(60):
            spell = tuple(SPELLINGS)[i % 3]
            fenced_world(i, i, mode, spell, ("Add", "Leave", "Remove"), adversary).run()
    assert seen["passes"] > 0 and seen["extra"] > 0
    assert (seen["outside"] > 0) is (adversary is TombWriter)


class ListCheck(Adversary):
    """Broadcasts Checks from 4 whose quorums are lists, as JSON would give them."""

    def on_init(self, world):
        world.adversary_tob(4, ("LeaveCheck", [[1, 2, 4]]))
        world.adversary_tob(4, ("RemoveCheck", [2, 4], ([2, 4], fs(2, 3, 4))))


def test_a_check_of_list_quorums_gets_its_frozenset_forms_verdict():
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0), adversary=ListCheck())
    world.request(3, 5, ("Leave",))
    with verdicts_fenced() as seen:
        trace = world.run()
    # both list Checks reach all four nodes before 5's own Check
    assert (seen["lists"], seen["deliveries"], seen["passes"]) == (8, 12, 12)
    assert [r for _, p, r in trace.responses if p == 5] == ["LeaveComplete"]


def test_a_fault_inside_a_check_is_not_swallowed():
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    node = world.nodes[2]
    with pytest.raises(TypeError):   # 5 is no quorum: frozenset(5) raises
        node.on_tob(NodeApi(world, node), 4, ("LeaveCheck", (5,)))


@pytest.mark.parametrize("first, second", [(4, 4.0), (4.0, 4), (1, True), (True, 1)])
def test_equal_requesters_of_two_types_each_get_their_own_tomb(first, second):
    # two nodes of one world at one tomb meet one payload, once from each
    # requester: a verdict shared by equal requesters would spell one tomb as the other's
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    payload = ("LeaveCheck", (fs(1, 2, 4),))
    with verdicts_fenced() as seen:
        for pid, src in ((2, first), (3, second)):
            world.nodes[pid].on_tob(NodeApi(world, world.nodes[pid]), src, payload)
    assert seen["passes"] == seen["verdicts"] == 2
    assert [world.nodes[pid]._frozen_tomb()[0] for pid in (2, 3)] == [
        spelt({first}), spelt({second})]


def test_equal_tombs_of_two_types_each_grow_their_own_spelling():
    # tombs {4} and {4.0}, written outside a Check, meet one Check from 3
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=0))
    payload = ("LeaveCheck", (fs(1, 2, 4),))
    with verdicts_fenced() as seen:
        for pid, held in ((2, 4), (5, 4.0)):
            node = world.nodes[pid]
            node.tomb.add(held)
            node.on_tob(NodeApi(world, node), 3, payload)
    assert seen["passes"] == seen["verdicts"] == seen["outside"] == 2
    assert [world.nodes[pid]._frozen_tomb()[0] for pid in (2, 5)] == ["[3,4]", "[3,4.0]"]

