"""Golden trace digests: sha256 of ``trace.to_jsonl()`` for fixed runs.

Criterion 12 only compares a run with its rerun, so a change that alters
every trace in the same way would pass it.  These digests pin the bytes
themselves: the six named scenarios, plus one small hand-built world for
each protocol path that neither those scenarios nor the benchmark pools
reach.  A change that is meant to keep behaviour keeps every digest.  The
generated-system digests pin the generators' output the same way.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from hqs import gen
from hqs.core import Attack, new_quorum_system, sorted_ids
from hqs.fixtures import load_fixture
from hqs.scenarios import (
    AddEquivocator,
    BrbByzantine,
    CheckSpammer,
    make_brb_world,
    make_reconfig_world,
    probe_active_availability,
    probe_active_inclusion,
    probe_add_no_split,
    probe_brb_consistency,
    probe_intersection,
    probe_tentative_inclusion,
    run_scenario,
)
from hqs.sim import Node, SchedulePolicy, World


def digest(trace) -> str:
    return hashlib.sha256(trace.to_jsonl().encode()).hexdigest()


def fs(*xs):
    return frozenset(xs)


NAMED = {
    "ac_leave_fig1": "674a1aa0f29a730657826141dd87df20df5ab096e61831397c8bd380cf7bcd65",
    "ac_leave_fig4_q1": "eb243057aaa69fa231f4e31b9195d6b88ca59415c0f3686c5b7f62231fd06152",
    "pc_leave_fig4_q1": "b64d2adcbe91dd38a91195fb5747a0f4d9d8319cc229f33a10342d354d4d87d4",
    "add_attack_concurrent": "81fcf5bae938021b2664b659f0e93464af91a52e28be8ddfbfa22d7952f280b8",
    "brb_honest_fig1": "bb1e1936ff1817cf5f496f939994e16767af6715df1db4ffc53c4e394af75535",
    "discovery_fig2_deceive": "65748c0e173f64dec170e143aa4ef08603dc6f0a9b75b8675908d22230f29afb",
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_scenario_digest(name):
    _, trace, _ = run_scenario(name)
    assert digest(trace) == NAMED[name]


def reconfig_trace(qs, attack, requests, *, mode="ac", sink_info=None,
                   tob_order=(), outlived=None):
    policy = SchedulePolicy(seed=0, tob_order=tuple(tob_order))
    world = make_reconfig_world(
        qs, attack, policy, mode=mode, sink_info=sink_info,
        joiners=[pid for _, pid, req in requests if req[0] == "Join"])
    if outlived is not None:
        world.add_probe("intersection", probe_intersection(outlived))
        world.add_probe("active_inclusion", probe_active_inclusion(outlived))
        world.add_probe("active_availability", probe_active_availability(outlived))
    for at, pid, req in requests:
        world.request(at, pid, req)
    return world.run()


def leave_race_system():
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"a", "b"}], "c": [{"a", "b", "c"}]})
    return qs, Attack.of(["a", "b", "c"])


def ac_remove():
    qs, attack = load_fixture("fig1")
    return reconfig_trace(qs, attack, [(1, 1, ("Remove", fs(1, 2, 4)))],
                          outlived=fs(2, 3, 5))


def pc_remove():
    qs, attack = load_fixture("fig1")
    return reconfig_trace(qs, attack, [(1, 2, ("Remove", fs(2, 5))),
                                       (9, 5, ("Leave",))], mode="pc")


def out_of_sink_leave():
    # 6 and 4 sit outside fig2's sink: neither coordinates through the tob
    qs, attack = load_fixture("fig2")
    return reconfig_trace(qs, attack, [(1, 6, ("Leave",)),
                                       (1, 4, ("Remove", fs(1, 2, 4)))],
                          sink_info="oracle")


def join_timeout():
    qs, attack = load_fixture("fig1")
    return reconfig_trace(qs, attack, [(1, 9, ("Join", fs(2), 120))])


def scripted_tob_order(order):
    # the tob-ordered Check fails for whichever request is sequenced second
    qs, attack = leave_race_system()
    return reconfig_trace(qs, attack, [(1, "a", ("Leave",)),
                                       (1, "b", ("Remove", fs("a", "b")))],
                          tob_order=order, outlived=fs("a", "b", "c"))


def leave_before_remove():
    return scripted_tob_order(("a", "b"))


def remove_before_leave():
    return scripted_tob_order(("b", "a"))


def add_equivocator_split():
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2, 3}], 2: [{1, 2, 3}], 3: [{1, 2, 3}]},
        byzantine={4})
    attack = Attack.of([1, 2, 3, 4], {4})
    world = make_reconfig_world(
        qs, attack, SchedulePolicy(seed=3),
        adversary=AddEquivocator(4, fs(2, 3), success_first=(2,)))
    world.add_probe("intersection", probe_intersection(fs(1, 2, 3)))
    world.add_probe("tentative_inclusion", probe_tentative_inclusion(fs(1, 2, 3)))
    world.add_probe("add_no_split", probe_add_no_split)
    return world.run()


def str_and_mixed_ids():
    # str ids plus one int id: the id sorts and the trace's id encoding see
    # both types; every node has one quorum, so no witness depends on the
    # iteration order of a set of quorums over str ids (str hashes vary by run)
    ids = ["a", "b", "c", "d", "e", 7]
    qs = new_quorum_system(
        ids, {"a": [{"a", "b", "c"}], "b": [{"a", "b", "c"}], "c": [{"a", "b", "c"}],
              "d": [{"a", "b", "d"}], "e": [{"e", "a"}], 7: [{7, "a", "b"}]},
        byzantine={"e"})
    world = make_reconfig_world(qs, Attack.of(ids, {"e"}), SchedulePolicy(seed=0),
                                adversary=CheckSpammer())
    outlived = fs("a", "b", "c", 7)
    world.add_probe("intersection", probe_intersection(outlived))
    world.add_probe("active_inclusion", probe_active_inclusion(outlived))
    world.add_probe("active_availability", probe_active_availability(outlived))
    world.request(1, "a", ("Leave",))
    world.request(2, "d", ("Remove", fs("a", "b", "d")))
    trace = world.run()
    assert trace.violations and sorted(map(tuple, trace.responses)) == [
        (4, "a", "LeaveComplete"), (8, "d", "RemoveComplete")]
    return trace


def str_ids_two_quorums():
    # every node holds two quorums over str ids, whose set iteration order
    # follows the hash seed; the intersection witness picks one pair of them
    ids = ["a", "b", "c", "d", "e", "f"]
    qs = new_quorum_system(
        ids, {"a": [{"a", "b", "c"}, {"a", "d", "e"}], "b": [{"a", "b", "c"}, {"b", "d", "e"}],
              "c": [{"a", "b", "c"}, {"c", "d", "e"}], "d": [{"a", "d", "e"}, {"b", "d", "e"}],
              "e": [{"c", "d", "e"}, {"a", "d", "e"}], "f": [{"f", "a"}, {"f", "b"}]},
        byzantine={"f"})
    world = make_reconfig_world(qs, Attack.of(ids, {"f"}), SchedulePolicy(seed=0),
                                adversary=CheckSpammer())
    outlived = fs("b", "c", "d", "e")
    world.add_probe("intersection", probe_intersection(outlived))
    world.add_probe("active_inclusion", probe_active_inclusion(outlived))
    world.add_probe("active_availability", probe_active_availability(outlived))
    world.request(1, "a", ("Leave",))
    trace = world.run()
    assert trace.violations and trace.responses == [(1, "a", "LeaveFail")]
    return trace


def brb_equivocation_mixed_ids():
    # reliable broadcast under an equivocating Byzantine sender "z" whose
    # fake Ready votes reach every node, over str ids plus one int id: the
    # handlers' fan-out, the adversary's value picks and both id sorts
    ids = ["a", "b", "c", "d", 5, "z"]
    qs = new_quorum_system(
        ids, {"a": [{"a", "b", "c"}], "b": [{"a", "b", "c"}], "c": [{"b", "c", 5}],
              "d": [{"a", "d", "z"}], 5: [{"c", 5, "z"}], "z": [{"z", "a"}]},
        byzantine={"z"})
    world = make_brb_world(qs, Attack.of(ids, {"z"}), SchedulePolicy(seed=2),
                           adversary=BrbByzantine(sender="z", values=("u", "v")))
    world.add_probe("brb_consistency", probe_brb_consistency)
    world.request(2, "a", ("Broadcast", "m"))
    trace = world.run()
    assert not trace.violations and {
        pid: node.delivered for pid, node in world.nodes.items()} == {
        "a": {"z": "u", "a": "m"}, "b": {"z": "u", "a": "m"}, "c": {"z": "u"},
        "d": {}, 5: {"z": "u"}}
    return trace


BUILT = {
    ac_remove:
        "344482c270e6ebfdc8a2ff6de2b142c98a87c02bfa14405e94dd8ded0b89576c",
    pc_remove:
        "285b7e2f1522705f9e0652618b97bb4b8a5c23fffb092e089da84d772f30f025",
    out_of_sink_leave:
        "bf5cbc1567c4f34570ef47c0467f510cc13c31074bff65189e973f621d7a7134",
    join_timeout:
        "90236b8b46aa6d98041f37a470908faedcf50399e3d1a17db794a4a6bc960a8b",
    leave_before_remove:
        "bcc5b8f86d86b5c023cb7b46a5fb01929c8d4d47d80ea43c71b31f690bf7cb9e",
    remove_before_leave:
        "e0c14d4579d927790adbd04f66267d94c12886591380430087b3c213971bcdba",
    add_equivocator_split:
        "29fd6e1e84a38d02ade360ee10046a9efad1e8153d8757c800cea270107f27c4",
    str_and_mixed_ids:
        "293b3a23ca44c02b8537a5603319fa0a273804558b87d4afd06c7bd9106f00e5",
    str_ids_two_quorums:
        "bfb9161ed15ed8c1b4a070a97128d984941066df8b354fa060c4d11499d9312e",
    brb_equivocation_mixed_ids:
        "2a5dc21f177de3b24d861652aa11a72294f00183e90d17570a5d05c26f7e131b",
}


@pytest.mark.parametrize("build", list(BUILT), ids=lambda f: f.__name__)
def test_hand_built_world_digest(build):
    trace = build()
    assert trace.outcome == "quiescent"
    assert digest(trace) == BUILT[build]


def test_str_id_witnesses_do_not_depend_on_the_hash_seed():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(tests, os.pardir, "src"), tests])
    run = "import test_golden as g; print(g.digest(g.str_ids_two_quorums()))"
    digests = {subprocess.run([sys.executable, "-c", run], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                               "PYTHONPATH": path}).stdout.strip()
               for seed in ("0", "3", "6")}
    assert digests == {BUILT[str_ids_two_quorums]}


# --- the queue fence ---------------------------------------------------------------
# A capped run stops between two queue entries, so the traces of one world at
# every step cap from 1 up to its uncapped length pin the order in which the
# kernel pops its queue, down to ties at one step, and where a cap leaves it.


def capped_brb_world(step_cap):
    qs, attack = load_fixture("fig1")
    world = make_brb_world(qs, attack, SchedulePolicy(seed=7, fairness_bound=2),
                           step_cap=step_cap,
                           adversary=BrbByzantine(sender=4, values=("u", "v")))
    world.add_probe("brb_consistency", probe_brb_consistency)
    world.request(1, 2, ("Broadcast", "m"))
    world.request(1, 3, ("Broadcast", "n"))
    return world


def capped_leave_world(step_cap):
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=5, fairness_bound=3),
                                adversary=CheckSpammer(), step_cap=step_cap, joiners=[9])
    outlived = fs(2, 3, 5)
    world.add_probe("intersection", probe_intersection(outlived))
    world.add_probe("active_inclusion", probe_active_inclusion(outlived))
    world.request(1, 1, ("Leave",))
    world.request(2, 2, ("Remove", fs(1, 2, 4)))
    world.request(2, 9, ("Join", fs(2), 9))
    return world


class RequestsMidRun(CheckSpammer):
    """Asks for a Leave at the step being run, from the first tob sequenced."""

    def on_tob(self, world, index, env):
        if index == 0:
            world.request(world.step, 3, ("Leave",))


def request_mid_run_world(step_cap):
    qs, attack = load_fixture("fig1")
    world = make_reconfig_world(qs, attack, SchedulePolicy(seed=1), step_cap=step_cap,
                                adversary=RequestsMidRun())
    world.add_probe("intersection", probe_intersection(fs(2, 3, 5)))
    world.request(1, 1, ("Leave",))
    return world


def capped_digest(build) -> tuple:
    """(uncapped length, sha256 over the traces at step caps 1 through it)."""
    h = hashlib.sha256()
    cap = 0
    while True:
        cap += 1
        trace = build(cap).run()
        h.update(trace.to_jsonl().encode())
        if trace.outcome == "quiescent":
            return cap, h.hexdigest()


CAPPED = {
    capped_brb_world:
        (79, "c3fba505d59080d00a4a4ae00dcc59d140986a66bae58fbfbe79819db188dd3c"),
    capped_leave_world:
        (33, "b391146f2e422a46dccc1592e19f925dd43d40f42f21c8b05f941cfda7cb7b24"),
    request_mid_run_world:
        (29, "632e6e7a191f5325472516d1d57cd04aa9f5976db8e7b621c4459c9cee01ab0f"),
}


@pytest.mark.parametrize("build", list(CAPPED), ids=lambda f: f.__name__)
def test_every_step_cap_of_a_world_keeps_its_digest(build):
    assert capped_digest(build) == CAPPED[build]


# --- the tob reorder fence ---------------------------------------------------------
# Each process takes each sequenced broadcast after its own delay, so a later
# index can reach it first and waits for the gap to close.  Traces over every
# fairness bound and many seeds pin when each delivery is recorded, and which
# ones a process that freezes part-way never records.


class TobChatter(Node):
    """Broadcasts three payloads at its request; freezes after ``freeze_after`` deliveries."""

    def __init__(self, pid, freeze_after=None):
        super().__init__(pid)
        self.got = []
        self.freeze_after = freeze_after

    def on_request(self, api, request):
        for i in range(3):
            api.tob((request[0], self.pid, i))

    def on_tob(self, api, src, payload):
        self.got.append(payload)
        self.touch()
        if len(self.got) == self.freeze_after:
            self.frozen = True

    def state_summary(self):
        return {"got": self.got}


def tob_reorder_trace(bound, seed):
    pids = ("a", "b", "c")
    world = World(Attack.of(pids), SchedulePolicy(seed=seed, fairness_bound=bound))
    for pid in pids:
        world.add_node(TobChatter(pid, freeze_after=2 if pid == "b" else None))
        world.request(1, pid, ("m",))
    return world.run()


TOB_REORDER = "8d1d992e980e3f15ee1538ff4177513cca242e91a29db56cb8aa154f8d270c54"


def test_tob_deliveries_follow_the_order_past_every_reorder():
    h = hashlib.sha256()
    for bound in range(1, 7):
        for seed in range(20):
            trace = tob_reorder_trace(bound, seed)
            h.update(trace.to_jsonl().encode())
            taken = {pid: [e["index"] for e in trace.events
                           if e["kind"] == "tob" and e["dst"] == pid] for pid in "abc"}
            # no gap in any process's indices; "b" records none once frozen
            assert taken == {"a": list(range(9)), "b": [0, 1], "c": list(range(9))}
    assert h.hexdigest() == TOB_REORDER


GOLDEN = {**{name: lambda name=name: run_scenario(name)[1] for name in NAMED},
          **{build.__name__: build for build in BUILT}}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_to_jsonl_matches_the_whole_event_oracle_on_every_golden_trace(name):
    trace = GOLDEN[name]()
    assert trace.to_jsonl() == oracles.oracle_to_jsonl(trace.events)


class NoEmptyDraws(random.Random):
    """``random.Random`` with the same stream, except that a bounded draw
    with a bound below 1 fails at once: ``Random._randbelow`` would loop
    forever on it."""

    def _randbelow(self, n):
        assert n >= 1, f"a draw below {n}"
        return super()._randbelow(n)


def generated_digest(name, n_max) -> str:
    """sha256 over seeds 0-49 of each system's JSON form, Byzantine set
    included, its diagnostics and, for ``outlived_system``, the outlived set."""
    h = hashlib.sha256()
    for seed in range(50):
        qs, attack, *outlived = getattr(gen, name)(NoEmptyDraws(seed), n_max=n_max)
        h.update(json.dumps([qs.to_json(attack), qs.diagnostics,
                             [sorted_ids(s) for s in outlived]], sort_keys=True).encode())
    return h.hexdigest()


GENERATED = {
    ("sharing_system", 7):
        "f9aaa74c739b2c8a9af49555fe8e72180725b3fcf390fa93e48fb4f2c500258b",
    ("sharing_system", 12):
        "c627e123d56a78773e818de1b4a8f3e18db978655d855686affadea47c2b2c32",
    ("sharing_system", 80):
        "a0b430631e022f31c44b557e28ddd4948787d4aed7d3186d9001878ee9e2fe99",
    ("arbitrary_system", 7):
        "986b28ad1538269ef852a1e1ac1c8d4f699c15973c21de35f25a293c7aa11a02",
    ("arbitrary_system", 12):
        "319745d9edbec9c619d0258e2768d1a0bb94e541a1baa574d05a5655f1f60808",
    ("outlived_system", 6):
        "b1b9a67d313bf2b25bc065846059c6f3d70ac33699fd2d6693c8d5415e5ab4be",
}


@pytest.mark.parametrize("name,n_max", list(GENERATED),
                         ids=[f"{name}-{n_max}" for name, n_max in GENERATED])
def test_generated_system_digest(name, n_max):
    # the generators' draws, their order and the constructor's normal form
    assert generated_digest(name, n_max) == GENERATED[name, n_max]


@pytest.mark.parametrize("name,n_max", [("sharing_system", 2), ("sharing_system", 0),
                                        ("arbitrary_system", 1), ("arbitrary_system", -3)])
def test_a_generator_bound_below_its_least_size_is_a_value_error(name, n_max):
    with pytest.raises(ValueError):
        getattr(gen, name)(NoEmptyDraws(0), n_max=n_max)


def inline_picks(rng, pool, k, pick):
    """k cores picked as gen.sharing_system picks a non-core process's:
    ``pick(pool, m, j)`` is the core taken at the j-th draw's turn, then
    the last unpicked core moves into the gap."""
    m, pool, picks = len(pool), list(pool), []
    for i in range(k):
        j = rng._randbelow(m - i)
        picks.append(pick(pool, m, j))
        pool[j] = pool[m - i - 1]
    return picks


@pytest.mark.parametrize("rng_type", [random.Random, NoEmptyDraws])
def test_the_inline_core_picks_are_the_draws_of_sample(rng_type):
    def agrees(pick):
        for seed in range(1000):
            for m in (1, 2, 3):
                pop = [frozenset({0, c}) for c in range(1, m + 1)]
                for k in range(1, m + 1):
                    ours, theirs = rng_type(seed), rng_type(seed)
                    if (inline_picks(ours, pop, k, pick) != theirs.sample(pop, k)
                            or ours.getstate() != theirs.getstate()):
                        return False
        return True

    assert agrees(lambda pool, m, j: pool[j])
    # negative control: the same draws taken from the pool's other end
    assert not agrees(lambda pool, m, j: pool[m - 1 - j])


@pytest.mark.parametrize("n_max", [7, 80])
def test_sharing_system_draws_as_it_did_with_sample(n_max):
    for seed in range(1000):
        ours, theirs = NoEmptyDraws(seed), NoEmptyDraws(seed)
        qs, attack = gen.sharing_system(ours, n_max=n_max)
        decls, byz = oracles.oracle_sharing_system(theirs, n_max)
        assert qs.quorum_map() == {p: oracles.oracle_antichain(d) for p, d in decls.items()}
        assert attack.byzantine == byz and ours.getstate() == theirs.getstate(), seed
