"""Negative controls: a deliberately broken protocol must trip the probes.

A probe suite that stays silent on every world shows nothing unless it is
seen to fire on a protocol known to be wrong.  Each control here patches
one handler of the otherwise unchanged protocol (nothing in ``src/``
knows about it) and runs the population an acceptance criterion sweeps.
"""

import json
import random
from itertools import islice
from unittest import mock

import oracles
from hqs.broadcast import BrbNode
from hqs.core import sorted_ids
from hqs.gen import outlived_system
from hqs.reconfig import ReconfigNode
from hqs.scenarios import (
    BrbByzantine,
    CheckSpammer,
    make_brb_world,
    make_reconfig_world,
    probe_active_availability,
    probe_active_inclusion,
    probe_brb_consistency,
    probe_intersection,
)
from hqs.sim import SchedulePolicy
from test_brb import hasty_deliver

# criterion 05's population: its systems, each run with these seeds
SYSTEMS, SEEDS = 200, 20
# the mutant must trip a probe within the first BUDGET worlds of that
# population, taken in order; the tomb-blind Check first does at world 80
BUDGET = 400
# criterion 11's worlds with a Byzantine sender; the hasty BRB delivery
# first trips brb_consistency at world 1, and in 48 of the 100
BRB_BUDGET = 10
# the flushes after each world's first brb_consistency violation, summed
# over those BRB_BUDGET worlds under the hasty delivery (1 in world 1, 2 in world 2)
BRB_FLUSHES_PAST_A_CLASH = 3


def criterion_05_worlds(mode="ac"):
    """Criterion 05's worlds, in the order ``tests/test_acceptance.py``
    runs them: a generated outlived system, CheckSpammer, up to three Leave
    or Remove requests and the three outlived probes; ``mode`` "pc" runs the
    same worlds under the policy-preserving protocol."""
    rng = random.Random(515151)
    for i in range(SYSTEMS):
        qs, attack, outlived = outlived_system(rng, n_max=6)
        wb_active = sorted_ids(qs.active & attack.well_behaved)
        for seed in range(SEEDS):
            picker = random.Random(i * 1009 + seed)
            world = make_reconfig_world(
                qs, attack, SchedulePolicy(seed=seed, fairness_bound=4), mode=mode,
                adversary=CheckSpammer(), combined_checks=True)
            world.add_probe("intersection", probe_intersection(outlived))
            world.add_probe("active_inclusion", probe_active_inclusion(outlived))
            world.add_probe("active_availability", probe_active_availability(outlived))
            for j, pid in enumerate(picker.sample(wb_active, min(3, len(wb_active)))):
                if picker.random() < 0.5:
                    world.request(1 + 2 * j, pid, ("Leave",))
                else:
                    q = picker.choice(sorted(qs.quorums_of(pid), key=sorted_ids))
                    world.request(1 + 2 * j, pid, ("Remove", q))
            yield world


def criterion_11_byzantine_worlds():
    """Criterion 11's worlds whose sender is Byzantine and equivocates, in
    the order ``tests/test_acceptance.py`` runs them, with its BRB probe."""
    rng = random.Random(1111)
    fixtures = []
    while len(fixtures) < 100:
        qs, attack, _ = outlived_system(rng, n_max=6)
        if attack.byzantine:
            fixtures.append((qs, attack))
    for qs, attack in fixtures:
        seed = rng.randrange(10_000)
        world = make_brb_world(qs, attack, SchedulePolicy(seed=seed),
                               adversary=BrbByzantine(sender=sorted_ids(attack.byzantine)[0],
                                                      values=("a", "b")))
        world.add_probe("brb_consistency", probe_brb_consistency)
        yield world


def tomb_blind(on_tob):
    """``on_tob`` run against an empty tomb: every Check passes as if no
    process had departed before, while each passing Check's requester is
    still recorded in the real tomb."""
    def blind(self, api, src, payload):
        tomb, self.tomb = self.tomb, set()
        try:
            on_tob(self, api, src, payload)
        finally:
            tomb |= self.tomb
            self.tomb = tomb

    return blind


def probes_tripped(world) -> set:
    return {v["probe"] for v in world.run().violations}


def test_a_check_blind_to_the_tomb_breaks_intersection_within_the_budget():
    # the blind Check lets two departures pass that only together cut a
    # quorum intersection out of the outlived set.  active_inclusion and
    # active_availability trip on none of the population's 4,000 worlds:
    # they need another mutant
    with mock.patch.object(ReconfigNode, "on_tob", tomb_blind(ReconfigNode.on_tob)):
        first = next((index for index, world in
                      enumerate(islice(criterion_05_worlds(), BUDGET))
                      if "intersection" in probes_tripped(world)), None)
    assert first is not None, f"the tomb-blind Check broke no intersection in {BUDGET} worlds"
    # the same world run by the unchanged protocol trips nothing
    assert probes_tripped(next(islice(criterion_05_worlds(), first, None))) == set()


def test_a_brb_delivery_on_one_ready_breaks_consistency_within_the_budget():
    # one Ready vote for each of the equivocated values lets two
    # well-behaved nodes deliver different values
    with mock.patch.object(BrbNode, "on_message", hasty_deliver):
        first = next((index for index, world in
                      enumerate(islice(criterion_11_byzantine_worlds(), BRB_BUDGET))
                      if "brb_consistency" in probes_tripped(world)), None)
    assert first is not None, f"the hasty delivery broke no consistency in {BRB_BUDGET} worlds"
    # the same world run by the unchanged protocol trips nothing
    assert probes_tripped(next(islice(criterion_11_byzantine_worlds(), first, None))) == set()


def test_the_brb_probe_reports_the_full_scan_witness_past_the_first_clash():
    # a clash persists (a delivery is never taken back), so each flush after
    # the first violation must report it again, as a scan of every node does
    past = 0
    with mock.patch.object(BrbNode, "on_message", hasty_deliver):
        for world in islice(criterion_11_byzantine_worlds(), BRB_BUDGET):
            got = []

            def checked(world):
                witness = probe_brb_consistency(world)
                assert json.dumps(witness) == json.dumps(oracles.oracle_brb_consistency(world))
                got.append(witness)
                return witness

            world.probes[:] = [("brb_consistency", checked)]
            world.run()
            first = next((i for i, witness in enumerate(got) if witness is not None), len(got))
            assert None not in got[first:]
            past += len(got[first + 1:])
    assert past == BRB_FLUSHES_PAST_A_CLASH > 0
