"""Scenario assembly: worlds, probes, adversary scripts and verdicts.

A scenario pins a system fixture, an attack, the outlived set, client
requests, an adversary script and a seeded schedule policy; running it
yields a trace plus a verdict listing every probe violation.  The
trade-off demonstrations (which no protocol run can realize, per the
impossibility arguments) are pure-state scenarios at the bottom.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import cycle, repeat

from .broadcast import BrbNode
from .core import (
    QuorumSystem,
    add,
    choice,
    distinct_spellings,
    expect,
    followers,   # the benchmark's tracer wraps this name here
    followers_map,
    id_list,
    known_keys,
    minimal_quorums,
    new_quorum_system,
    quorum_decls,
    sorted_ids,
)
from .discovery import DiscoveryNode, oracle_validq, threshold_validq
from .errors import ScenarioError
from .graph import sink_members
from .props import (
    _per_system,
    active_availability_witness,
    availability_witness,
    check_consistency,
    consistency_witness,
    inclusion_witness,
)
from .reconfig import AC, PC, ReconfigNode, kept_quorums, spell_pairs
from .sim import Adversary, SchedulePolicy, World, canon
from .fixtures import resolve_system

SCENARIO_NAMES = (
    "ac_leave_fig1",
    "ac_leave_fig4_q1",
    "pc_leave_fig4_q1",
    "add_attack_concurrent",
    "brb_honest_fig1",
    "discovery_fig2_deceive",
)


# --- probes -----------------------------------------------------------------


class _QuorumView:
    """What the probes of one world read, as values they share by identity:
    ``quorums``, {pid: quorums} of every well-behaved protocol node, and
    ``left``, a frozen copy of ``world.l_set``.

    Each node's quorums are its ``sorted_q`` tuple, in ``sorted_quorums``
    order, so a probe's witness does not depend on the iteration order of a
    set (for str ids that order changes with the hash seed).  A node
    replaces that tuple only with a ``touch()``, so only the touched nodes
    are compared again, by identity.  Nothing is changed in place: a move
    replaces the dict (copy on write), bumps ``version`` and keeps the
    moved pids in ``moved``; ``left`` too is replaced only when it changes.
    """

    def __init__(self, world):
        wb = world.well_behaved
        self.quorums = {pid: node.sorted_q for pid, node in world.nodes.items()
                        if pid in wb and isinstance(node, ReconfigNode)}
        self.left = frozenset(world.l_set)
        self.version, self.moved = 0, frozenset()


def _view(world) -> _QuorumView:
    """The world's probe view, brought up to date: only the touched nodes
    are compared again, so the later probes of a flush find nothing moved."""
    view = world.probe_state.get(_QuorumView)
    if view is None:   # a probe reads first once the world runs, so its nodes are fixed
        view = world.probe_state[_QuorumView] = _QuorumView(world)
        return view
    moved, quorums, nodes = {}, view.quorums, world.nodes
    for pid in world.touched:   # a loop, not a comprehension: no frame per call
        if pid in quorums and nodes[pid].sorted_q is not quorums[pid]:
            moved[pid] = nodes[pid].sorted_q
    if moved:
        view.quorums, view.moved = {**quorums, **moved}, frozenset(moved)
        view.version += 1
    if world.l_set != view.left:
        view.left = frozenset(world.l_set)
    return view


def _tentative(world) -> tuple:
    """(pid, tentative set) of every protocol node, frozen."""
    return tuple((pid, frozenset(node.tentative)) for pid, node in world.nodes.items()
                 if isinstance(node, ReconfigNode))


def _memoized(check, reads_left=True, reads_tentative=False, left_weakens=True):
    """A probe that re-runs ``check(quorums, left, well_behaved, tentative,
    changed)`` only when those inputs differ from the ones its last result
    was computed from; an unchanged violation is returned (and so recorded)
    again.  ``left`` is None unless ``reads_left``, ``tentative`` None unless
    ``reads_tentative``.  A view is one world's, so a hit compares the view,
    its version and ``left``.  After a clean result, ``changed`` names whose
    quorums moved (at most one version ago) if nothing else did but, where
    ``left_weakens``, a growing ``left``; else it is None.  ``check`` looks
    its checker up when it runs."""
    last_view = last_version = last_left = last_tentative = last_result = None

    def fn(world):
        nonlocal last_view, last_version, last_left, last_tentative, last_result
        view = _view(world)
        left = view.left if reads_left else None
        tentative = _tentative(world) if reads_tentative else None
        same = view is last_view and tentative == last_tentative
        if same and view.version == last_version and left is last_left:
            return last_result
        delta = same and last_result is None and view.version - last_version < 2 and (
            left is last_left or left_weakens and last_left <= left)
        w = check(view.quorums, left, world.well_behaved, tentative, (
            view.moved if view.version > last_version else frozenset()) if delta else None)
        last_view, last_version, last_left, last_tentative = view, view.version, left, tentative
        last_result = None if w is None else canon(w)
        return last_result

    return fn


def probe_intersection(outlived):
    outlived = frozenset(outlived)
    return _memoized(lambda quorums, left, wb, tentative, changed: consistency_witness(
        quorums, outlived - left, changed=changed), left_weakens=False)


def probe_active_inclusion(outlived):
    outlived = frozenset(outlived)
    return _memoized(lambda quorums, left, wb, tentative, changed: inclusion_witness(
        quorums, outlived, wb, left=left, changed=changed))


def probe_active_availability(outlived):
    outlived = frozenset(outlived)
    return _memoized(lambda quorums, left, wb, tentative, changed: active_availability_witness(
        quorums, outlived, left, changed=changed))


def probe_tentative_inclusion(outlived):
    outlived = frozenset(outlived)
    return _memoized(lambda quorums, left, wb, tentative, changed: inclusion_witness(
        quorums, outlived, wb, tentative=dict(tentative), changed=changed),
        reads_left=False, reads_tentative=True)


def probe_add_no_split(world):
    """No (requester, q_c) may both succeed somewhere and fail-complete elsewhere."""
    succeeded = set()
    fail_done = set()
    for node in world.nodes.values():
        if isinstance(node, ReconfigNode):
            succeeded |= {k for k, v in node.succeeded.items() if v}
            fail_done |= node.fail_completed
    both = succeeded & fail_done
    return None if not both else spell_pairs(both)


def probe_brb_consistency(world):
    """An instance delivered with two values, as (instance, deliverers).
    The values delivered per instance grow in ``world.probe_state`` by the
    nodes touched since the last flush (a delivery comes with a ``touch()``;
    the first call reads every node), so only a conflict pays for the full
    scan that picks the witness."""
    first = "brb_values" not in world.probe_state
    seen = world.probe_state.setdefault("brb_values", {})
    for node in map(world.nodes.__getitem__, world.nodes if first else world.touched):
        if isinstance(node, BrbNode):
            for instance, value in node.delivered.items():
                seen.setdefault(instance, set()).add(value)
    if all(len(values) < 2 for values in seen.values()):
        return None
    per_instance = {}
    for pid, node in world.nodes.items():
        if not isinstance(node, BrbNode):
            continue
        for instance, value in node.delivered.items():
            per_instance.setdefault(instance, {})[pid] = value
    for instance, votes in per_instance.items():
        if len(set(votes.values())) > 1:
            return canon((instance, sorted_ids(votes)))
    return None


def probe_intersection_full(at_set):
    """Consistency at a fixed set, irrespective of who has departed; the
    policy-preserving protocols promise this at the full well-behaved set."""
    at_set = frozenset(at_set)
    return _memoized(lambda quorums, left, wb, tentative, changed: consistency_witness(
        quorums, at_set, changed=changed), reads_left=False)


PROBES = {
    "intersection": probe_intersection,
    "intersection_full": probe_intersection_full,
    "active_inclusion": probe_active_inclusion,
    "active_availability": probe_active_availability,
    "tentative_inclusion": probe_tentative_inclusion,
}

GLOBAL_PROBES = {
    "add_no_split": probe_add_no_split,
    "brb_consistency": probe_brb_consistency,
}


# --- adversary scripts --------------------------------------------------------


class SinkDeceiver(Adversary):
    """The quorum-graph-example attack: the Byzantine insider feeds process 3
    misleading quorums and tries to convince outsider 4 it is in the sink."""

    def __init__(self, byz_id=5, fake_target=3, dupe_target=4, stolen=frozenset({1, 3, 5})):
        self.byz_id = byz_id
        self.fake_target = fake_target
        self.dupe_target = dupe_target
        self.stolen = frozenset(stolen)
        self._extended = False

    def on_init(self, world):
        world.adversary_send_all(self.byz_id, (
            (self.fake_target, ("Exchange", (frozenset({self.byz_id}),))),
            (self.dupe_target, ("Extend", self.stolen))))

    def on_deliver(self, world, env):
        if env.payload[0] == "Exchange" and not self._extended:
            # replay the stolen quorum at the outsider once quorums are seen
            self._extended = True
            world.adversary_send_all(self.byz_id, (
                (self.dupe_target, ("Extend", self.stolen)),
                (self.dupe_target, ("Exchange", (self.stolen,)))))


class AddEquivocator(Adversary):
    """Byzantine requester splits Success and Fail across the q_c members."""

    def __init__(self, byz_id, q_c, success_first=()):
        self.byz_id = byz_id
        self.q_c = frozenset(q_c)
        self.success_first = tuple(success_first)
        self._sigs = {}
        self._split_done = False

    def on_init(self, world):
        world.adversary_send_all(self.byz_id,
                                 zip(sorted_ids(self.q_c), repeat(("CheckAdd", self.q_c))))

    def on_deliver(self, world, env):
        if env.payload[0] != "Commit" or self._split_done:
            return
        q_c, sig = frozenset(env.payload[1]), env.payload[2]
        if q_c != self.q_c or not world.verify(sig, env.src, ("Commit", q_c)):
            return
        self._sigs[env.src] = sig
        if set(self._sigs) == self.q_c:
            self._split_done = True
            sigs = tuple(self._sigs[p] for p in sorted_ids(self.q_c))
            fail_sig = world.sign(self.byz_id, ("Fail", self.byz_id, self.q_c),
                                  by_adversary=True)
            members = sorted_ids(self.q_c)
            success_to = set(self.success_first) or {members[0]}
            success = ("Success", self.byz_id, self.q_c, sigs)
            fail = ("Fail", self.byz_id, self.q_c, fail_sig)
            world.adversary_send_all(self.byz_id, (
                (p, success if p in success_to else fail) for p in members))


class AddAccomplice(Adversary):
    """Byzantine processes cooperate with whatever add reaches them: they
    acknowledge inclusion and ack every intersection check, which maximizes
    the chance a conflicting add slips through.  A requester sends CheckAdd
    only to the processes that refused its inclusion check, and an
    accomplice refuses none, so it never receives one to commit on."""

    def on_deliver(self, world, env):
        tag = env.payload[0]
        me = env.dst
        if tag == "Inclusion":
            world.adversary_send(me, env.src, ("AckInclusion", env.payload[1]))
        elif tag == "AddCheck":
            world.adversary_send(me, env.src,
                                 ("CheckAck", env.payload[1], env.payload[2]))


class CheckSpammer(Adversary):
    """Broadcasts junk Check requests from every Byzantine id."""

    def on_init(self, world):
        wb = sorted_ids(world.well_behaved)
        for b in sorted_ids(world.attack.byzantine):
            if wb:
                x = wb[world.rng.randrange(len(wb))]
                world.adversary_tob(b, ("LeaveCheck", (frozenset({b, x}),)))
                world.adversary_tob(b, ("LeaveCheck", (frozenset({b}),)))


class JoinResponder(Adversary):
    """Answers probes on behalf of Byzantine targets with fixed declarations."""

    def __init__(self, declarations):
        self.declarations = {p: tuple(frozenset(q) for q in qs)
                             for p, qs in declarations.items()}

    def on_deliver(self, world, env):
        if env.payload[0] == "Prob" and env.dst in self.declarations:
            world.adversary_send(env.dst, env.src,
                                 ("Quorums", self.declarations[env.dst]))


class BrbByzantine(Adversary):
    """Equivocating sender and fake votes from Byzantine members."""

    def __init__(self, sender=None, values=("a", "b"), fake_votes=True):
        if not values:   # a fake vote draws one of them
            raise ScenarioError("brb_byzantine needs at least one value")
        self.sender = sender
        self.values = values
        self.fake_votes = fake_votes

    def on_init(self, world):
        self.pids = sorted_ids(world.nodes)   # fixed once the world runs
        if self.sender is None or self.sender not in world.attack.byzantine:
            return
        sends = [("Send", self.sender, value) for value in self.values]
        world.adversary_send_all(self.sender, zip(self.pids, cycle(sends)))

    def on_deliver(self, world, env):
        if not self.fake_votes or env.payload[0] not in ("Echo", "Ready", "Send"):
            return
        # a generator: each vote's draws come right before its delay draw
        world.adversary_send_all(env.dst, self._votes(world.rng, env.payload[1]))

    def _votes(self, rng, instance):
        """(pid, fake Ready) of each pid drawing ``random() < 0.3``; its value is drawn as
        ``randrange(len(values))``, through ``_randbelow``'s rejection loop over getrandbits."""
        readies = [("Ready", instance, value) for value in self.values]
        random, getrandbits, n = rng.random, rng.getrandbits, len(readies)
        bits = n.bit_length()
        for p in self.pids:
            if random() < 0.3:
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                yield p, readies[r]


ADVERSARIES = {
    "none": Adversary,
    "sink_deceiver": SinkDeceiver,
    "add_accomplice": AddAccomplice,
    "check_spammer": CheckSpammer,
    "add_equivocator": AddEquivocator,
    "join_responder": JoinResponder,
    "brb_byzantine": BrbByzantine,
}


# --- world builders ------------------------------------------------------------


def _world(qs, attack, policy, adversary, step_cap, make_node) -> World:
    """A world holding ``make_node(pid)`` for each active well-behaved process."""
    world = World(attack, policy, adversary=adversary, step_cap=step_cap)
    for pid in sorted_ids(qs.active & attack.well_behaved):
        world.add_node(make_node(pid))
    return world


@_per_system
def _reconfig_parts(qs) -> tuple:
    """What every reconfiguration world of ``qs`` starts from, derived once
    per system: ``followers_map(qs)`` and each declarer's ``kept_quorums``.
    The worlds share them, so they are never mutated: a node copies its
    followers and replaces its kept quorums whole."""
    return followers_map(qs), {pid: kept_quorums(decl)
                               for pid, decl in qs.quorum_map().items()}


def make_reconfig_world(qs, attack, policy, *, mode=AC, combined_checks=True,
                        sink_info=None, adversary=None, step_cap=10_000,
                        joiners=()):
    sink = sink_members(qs) if sink_info == "oracle" else None
    fmap, kept = _reconfig_parts(qs)
    # quorums_of raises for an active process that declares nothing
    world = _world(qs, attack, policy, adversary, step_cap, lambda pid: ReconfigNode(
        pid, kept.get(pid) or qs.quorums_of(pid), followers=fmap.get(pid, ()),
        in_sink=(pid in sink) if sink is not None else None,
        mode=mode, combined_checks=combined_checks))
    for pid in sorted_ids(joiners):
        world.add_node(ReconfigNode(pid, (), mode=mode,
                                    combined_checks=combined_checks))
    return world


def make_discovery_world(qs, attack, policy, *, adversary=None, validq="oracle",
                         step_cap=10_000):
    predicate = None
    if validq == "oracle":
        predicate = oracle_validq(minimal_quorums(qs, attack))
    elif validq == "threshold":
        predicate = threshold_validq(2)
    elif validq is not None:   # a misspelt name must not accept any non-empty set
        raise ScenarioError(f"validq: unknown predicate {validq!r}; "
                            "known: oracle, threshold, None")
    world = _world(qs, attack, policy, adversary, step_cap,
                   lambda pid: DiscoveryNode(pid, qs.quorums_of(pid), validq=predicate))
    for pid in sorted_ids(world.nodes):
        world.request(0, pid, ("Discover",))
    return world


def make_brb_world(qs, attack, policy, *, adversary=None, step_cap=10_000):
    fmap = followers_map(qs)
    return _world(qs, attack, policy, adversary, step_cap, lambda pid: BrbNode(
        pid, qs.quorums_of(pid), followers=fmap.get(pid, ()), active=qs.active))


def current_system(world, base: QuorumSystem) -> QuorumSystem:
    """Assemble the live quorum system from node states.

    Byzantine declarations keep their initial value, departed nodes drop out
    of the active set, and a well-behaved node left with no quorums at all is
    excluded and reported through the system diagnostics.
    """
    decls = {}
    active = set()
    starved = []
    for pid in sorted_ids(base.active):
        node = world.nodes.get(pid)
        if node is None:
            if base.declares(pid):
                decls[pid] = base.quorums_of(pid)
            active.add(pid)
        elif node.frozen:
            continue
        elif node.quorums:
            decls[pid] = tuple(node.quorums)
            active.add(pid)
        else:
            starved.append(pid)
    for pid, node in world.nodes.items():
        if pid not in base.active and isinstance(node, ReconfigNode):
            if not node.frozen and node.quorums:
                decls[pid] = tuple(node.quorums)
                active.add(pid)
    qs = new_quorum_system(active, decls, universe=base.universe | set(active),
                           byzantine=world.attack.byzantine)
    if starved:
        notes = qs.diagnostics + tuple(
            f"process {p!r} has no quorums left" for p in starved)
        qs = QuorumSystem(qs.universe, qs.active, qs.quorum_map(), notes)
    return qs


# --- scenario files --------------------------------------------------------------


def load_scenario(ref):
    if isinstance(ref, dict):
        return ref
    if ref in SCENARIO_NAMES:
        path = resources.files("hqs").joinpath("scenarios", f"{ref}.json")
        return json.loads(path.read_text(encoding="utf-8"))
    with open(ref, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pid(value, path: str):
    return expect(value, path, "a process id", int, str)


def _ids(value, path: str) -> frozenset:
    return frozenset(id_list(value, path))


def _value(value, path: str):
    return expect(value, path, "a string or a number", str, int, float)


def _values(value, path: str) -> list:
    if not expect(value, path, "a list of values", list):
        raise ScenarioError(f"{path}: expected at least one value")
    return [_value(x, f"{path}[{i}]") for i, x in enumerate(value)]


# how each adversary argument is checked and converted, by argument name
_ADVERSARY_ARGS = {
    "byz_id": _pid, "fake_target": _pid, "dupe_target": _pid,
    "sender": lambda v, path: None if v is None else _pid(v, path),
    "stolen": _ids, "q_c": _ids, "success_first": _ids,
    "values": _values,
    "fake_votes": lambda v, path: expect(v, path, "a boolean", bool),
    "declarations": quorum_decls,
}


def _adversary(adv_spec) -> Adversary:
    if isinstance(adv_spec, str):
        adv_spec = {"name": adv_spec}
    adv_spec = {"name": "none", **known_keys(
        expect(adv_spec, "adversary", "a name or an object", dict),
        "adversary.", "unknown adversary key", ("name", "args"))}
    name = choice(adv_spec["name"], "adversary.name", "unknown adversary", tuple(ADVERSARIES))
    args = expect(adv_spec.get("args", {}), "adversary.args", "an object", dict)
    args = {k: _ADVERSARY_ARGS[k](v, f"adversary.args.{k}") if k in _ADVERSARY_ARGS else v
            for k, v in args.items()}
    try:
        return ADVERSARIES[name](**args)
    except TypeError as exc:   # args that do not fit the constructor
        raise ScenarioError(f"adversary {name!r}: bad 'args': {exc}") from None


# the keys each request op reads
_REQUEST_KEYS = {"Leave": ("at", "node", "op"),
                 "Remove": ("at", "node", "op", "quorum"),
                 "Add": ("at", "node", "op", "quorum"),
                 "Join": ("at", "node", "op", "seed_set", "timeout"),
                 "Broadcast": ("at", "node", "op", "value")}


def _request(req, path: str) -> tuple:
    """(at, node, request) for one entry of a scenario's ``requests``."""
    op = choice(expect(req, path, "an object", dict).get("op"), f"{path}.op",
                "unknown request op", tuple(_REQUEST_KEYS))
    known_keys(req, f"{path}.", f"a {op} request takes no key", _REQUEST_KEYS[op])
    at = expect(req.get("at", 1), f"{path}.at", "an integer", int)
    if at < 0:
        raise ScenarioError(f"{path}.at: a request cannot come before step 0, got {at}")
    node = _pid(req.get("node"), f"{path}.node")
    if op == "Leave":
        return at, node, ("Leave",)
    if op in ("Remove", "Add"):
        return at, node, (op, _ids(req.get("quorum"), f"{path}.quorum"))
    if op == "Join":
        seed_set = _ids(req.get("seed_set"), f"{path}.seed_set")
        timeout = expect(req.get("timeout", 200), f"{path}.timeout", "an integer", int)
        if timeout < 1:   # the kernel would clamp the timer to one step
            raise ScenarioError(f"{path}.timeout: expected an integer >= 1, got {timeout}")
        return at, node, ("Join", seed_set, timeout)
    return at, node, ("Broadcast", _value(req.get("value"), f"{path}.value"))


# protocol -> (the scenario keys only it reads, the request ops its nodes
# serve, the probes its nodes can trip)
_RECONFIG = (("outlived", "sink_info", "combined_checks"),
             ("Leave", "Remove", "Add", "Join"), (*PROBES, "add_no_split"))
_PROTOCOLS = {"ac": _RECONFIG, "pc": _RECONFIG, "discovery": (("validq",), (), ()),
              "brb": ((), ("Broadcast",), ("brb_consistency",))}
PROTOCOLS = tuple(_PROTOCOLS)
_PROTOCOL_KEYS = tuple(dict.fromkeys(key for keys, _, _ in _PROTOCOLS.values()
                                     for key in keys))
SCENARIO_KEYS = ("system", "protocol", "policy", "adversary", "probes", "requests",
                 "step_cap", *_PROTOCOL_KEYS)
POLICY_KEYS = ("seed", "fairness_bound", "tob_order")


def run_scenario(spec, seed_override=None):
    """Execute one scenario file; returns (world, trace, verdict).

    A field of the wrong shape or an unknown key or name raises :class:`MalformedInput`
    naming its path, e.g. ``requests[0].quorum``; other input errors raise :class:`ScenarioError`.
    """
    spec = expect(load_scenario(spec), "scenario", "an object", dict)
    known_keys(spec, "", "unknown scenario key", SCENARIO_KEYS)
    pol = known_keys(expect(spec.get("policy", {}), "policy", "an object", dict),
                     "policy.", "unknown policy key", POLICY_KEYS)
    if "seed" not in pol and seed_override is None:
        raise ScenarioError("scenario must pin a seed for reproducibility")
    system = expect(spec.get("system"), "system", "a fixture name or a file path", str)
    if "\0" in system:
        raise ScenarioError("system: a file path cannot contain a NUL byte")
    qs, attack = resolve_system(system)
    bound = expect(pol.get("fairness_bound", 6), "policy.fairness_bound", "an integer", int)
    if bound < 1:   # SchedulePolicy would reject it without the path
        raise ScenarioError(f"policy.fairness_bound: expected an integer >= 1, got {bound}")
    policy = SchedulePolicy(
        seed=(seed_override if seed_override is not None
              else expect(pol["seed"], "policy.seed", "an integer", int)),
        fairness_bound=bound,
        tob_order=tuple(id_list(pol.get("tob_order", []), "policy.tob_order")),
    )
    adversary = _adversary(spec.get("adversary", "none"))
    protocol = choice(spec.get("protocol", "ac"), "protocol", "unknown protocol", PROTOCOLS)
    keys, ops, protocol_probes = _PROTOCOLS[protocol]
    for key in spec:   # another protocol's key would be ignored here
        if key in _PROTOCOL_KEYS and key not in keys:
            raise ScenarioError(f"{key}: the {protocol} protocol does not read this key")
    validq = choice(spec.get("validq", "oracle"), "validq", "unknown predicate",
                    ("oracle", "threshold"))
    sink_info = spec.get("sink_info")   # absent: no sink oracle
    if "sink_info" in spec:
        choice(sink_info, "sink_info", "unknown sink source", ("oracle",))
    combined_checks = expect(spec.get("combined_checks", True), "combined_checks",
                             "a boolean", bool)
    step_cap = expect(spec.get("step_cap", 10_000), "step_cap", "an integer", int)
    if step_cap < 1:   # a run of no steps would read as a failed property
        raise ScenarioError(f"step_cap: expected an integer >= 1, got {step_cap}")
    live = qs.active & attack.well_behaved   # the probes check outlived ids as live
    outlived = _ids(spec.get("outlived", sorted_ids(live)), "outlived")
    if not live.issuperset(outlived):
        raise ScenarioError(f"outlived: {sorted_ids(set(outlived) - live)} are not "
                            f"active well-behaved processes")
    probes = expect(spec.get("probes", []), "probes", "a list of probe names", list)
    requests = [_request(req, f"requests[{i}]") for i, req in enumerate(
        expect(spec.get("requests", []), "requests", "a list of requests", list))]
    joiners = set()
    for i, (_, node, request) in enumerate(requests):
        choice(request[0], f"requests[{i}].op", f"the {protocol} protocol serves no op", ops)
        if request[0] == "Join":
            if node in live:
                raise ScenarioError(f"requests[{i}].node: {node!r} is already an active "
                                    f"well-behaved process; only a new one can Join")
            joiners.add(node)   # a twin spelling would share the node's snapshot key
            distinct_spellings(qs.universe | joiners, f"requests[{i}].node")
    # an Add waits on a reply from every member of its quorum: each must be
    # an active process, one the adversary owns or one a request joins
    members = qs.active | attack.byzantine | joiners
    for i, (_, _, request) in enumerate(requests):
        if request[0] == "Add" and not request[1] <= members:
            raise ScenarioError(f"requests[{i}].quorum: {sorted_ids(request[1] - members)} "
                                f"are not active, Byzantine or joining processes")
    for i, pid in enumerate(policy.tob_order):   # a hint no process can meet is a typo
        if pid not in qs.universe and pid not in joiners:
            raise ScenarioError(f"policy.tob_order[{i}]: {pid!r} is not a process "
                                f"of this system")

    if protocol == "discovery":
        world = make_discovery_world(qs, attack, policy, adversary=adversary,
                                     validq=validq, step_cap=step_cap)
    elif protocol == "brb":
        world = make_brb_world(qs, attack, policy, adversary=adversary,
                               step_cap=step_cap)
    else:
        world = make_reconfig_world(
            qs, attack, policy,
            mode=PC if protocol == "pc" else AC,
            combined_checks=combined_checks, sink_info=sink_info,
            adversary=adversary, step_cap=step_cap,
            joiners=joiners)

    for i, name in enumerate(probes):
        choice(name, f"probes[{i}]", "unknown probe", (*PROBES, *GLOBAL_PROBES))
        choice(name, f"probes[{i}]", f"the {protocol} protocol can trip no probe",
               protocol_probes)
        world.add_probe(name, PROBES[name](outlived) if name in PROBES
                        else GLOBAL_PROBES[name])

    for at, node, request in requests:
        if node not in world.nodes:
            raise ScenarioError(f"request for {node!r}, which is not a "
                                f"well-behaved node of this world")
        world.request(at, node, request)

    trace = world.run()
    verdict = {
        "outcome": trace.outcome,
        "responses": [[s, str(p), r] for (s, p, r) in trace.responses],
        "violations": canon(trace.violations),
        "pass": not trace.violations,
    }
    if protocol not in ("discovery", "brb"):
        final = current_system(world, qs)
        verdict["final_system"] = final.to_json(attack)
        verdict["notes"] = list(final.diagnostics)
    return world, trace, verdict


# --- trade-off demonstrations -----------------------------------------------------


def declared_quorums_by_process(qs: QuorumSystem) -> dict:
    return {p: set(qs.quorums_of(p)) for p in sorted_ids(qs.active) if qs.declares(p)}


def policy_violations(initial: QuorumSystem, completed_grants: dict, final_quorums: dict) -> dict:
    """Processes holding a quorum they never declared nor gained via a
    completed Add/Join; reconfiguration must not fabricate or shrink policies."""
    declared = declared_quorums_by_process(initial)
    out = {}
    for p, quorums in final_quorums.items():
        allowed = declared.get(p, set()) | completed_grants.get(p, set())
        extra = {q for q in quorums if q not in allowed}
        if extra:
            out[p] = extra
    return out


def dilemma_leave_q1(mode: str, seed: int = 0):
    """Fig. 4 first system: leaving process 2 forces availability against policy."""
    qs, attack = resolve_system("fig4_q1_leave")
    policy = SchedulePolicy(seed=seed)
    world = make_reconfig_world(qs, attack, policy, mode=mode)
    world.request(1, 2, ("Leave",))
    trace = world.run()
    final = {pid: set(node.quorums) for pid, node in world.nodes.items()}
    avail = availability_witness({3: tuple(final[3])}, frozenset({3}),
                                 attack.well_behaved - world.l_set) is None
    violations = policy_violations(qs, {}, final)
    return {
        "responses": [r for (_, p, r) in trace.responses if p == 2],
        "availability_for_3": avail,
        "policy_violations": violations,
    }


def dilemma_add_q2():
    """Fig. 4 second system: a terminating add forces either inconsistency or a
    policy change at process 4.  This is a pure-state demonstration: a faithful
    protocol run refuses the add, so the terminating branch is applied with the
    reconfiguration oracle and then repaired the only way consistency allows."""
    qs, attack = resolve_system("fig4_q2")
    wb = attack.well_behaved
    added = frozenset({1, 2})
    after_add = add(qs, 2, added)
    broken = check_consistency(after_add, attack, wb)
    repaired_decls = {}
    for p in sorted_ids(after_add.active):
        if not after_add.declares(p):
            continue
        quorums = []
        for q in after_add.quorums_of(p):
            if p in wb and not (q & added & wb):
                q = q | {2}  # the requester joins the conflicting quorum
            quorums.append(q)
        repaired_decls[p] = quorums
    repaired = new_quorum_system(after_add.active, repaired_decls,
                                 universe=after_add.universe,
                                 byzantine=attack.byzantine)
    violations = policy_violations(qs, {2: {added}},
                                   declared_quorums_by_process(repaired))
    return {
        "completed": added in repaired.quorums_of(2),
        "consistency_before_repair": broken.holds,
        "consistency_after_repair": check_consistency(repaired, attack, wb).holds,
        "policy_violations": violations,
    }
