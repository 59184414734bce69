"""Deterministic discrete-event world for Byzantine message-passing protocols.

One world hosts a set of protocol nodes (well-behaved processes), an
adversary that owns every Byzantine id, authenticated point-to-point links,
a total-order-broadcast oracle and an unforgeable-signature registry.
Runs are reproducible: the same seed and scenario yield a byte-identical
trace.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Optional

from .core import Attack, sorted_ids
from .errors import ForgedSender, ForgedSigner, ScenarioError

RANDOM_FAIR = "RandomFair"
ADVERSARIAL = "AdversarialReorder"
SCRIPTED = "ScriptedInterleaving"

QUIESCENT = "quiescent"
STEP_CAP = "step_cap"


@dataclass(frozen=True)
class SchedulePolicy:
    seed: int
    mode: str = RANDOM_FAIR
    fairness_bound: int = 6
    tob_order: tuple = ()  # scripted mode: preferred src order for sequencing

    def __post_init__(self):
        if self.mode not in (RANDOM_FAIR, ADVERSARIAL, SCRIPTED):
            raise ScenarioError(f"unknown schedule mode {self.mode!r}; known: "
                                f"{RANDOM_FAIR}, {ADVERSARIAL}, {SCRIPTED}")
        bound = self.fairness_bound   # a boolean is not a number
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
            raise ScenarioError(f"fairness_bound must be an integer >= 1, got {bound!r}")
        if self.tob_order and self.mode != SCRIPTED:   # no other mode reads it
            raise ScenarioError(f"policy.tob_order: read only in {SCRIPTED} mode, "
                                f"not in {self.mode}")


@dataclass(frozen=True)
class Signature:
    signer: object
    digest: str


@dataclass
class Envelope:
    src: object
    dst: object  # None for a total-order broadcast
    payload: tuple


_SCALARS = frozenset({str, int, bool, float, type(None)})
_PLAIN = frozenset({str, int})


def _member_order(value):
    return (str(type(value)), str(value))


def canon(obj):
    """Canonical JSON-compatible form; sets come out sorted."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, (frozenset, set)):
        return sorted(map(canon, obj), key=_member_order)
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    if isinstance(obj, Signature):
        return {"signer": obj.signer, "digest": obj.digest}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return obj


def _jsonable(obj):
    """The encoder's hook for what JSON has no form for: canon's form."""
    if isinstance(obj, (frozenset, set, Signature)):
        return canon(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_jsonable,
                            check_circular=False)
# ``_ENCODER.encode`` builds a C encoder at every call: build one from its
# settings once (it keeps no circular-reference markers), if json has one
_C_ENCODER = c_make_encoder and c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)
_encode = _ENCODER.encode if _C_ENCODER is None else (
    lambda obj, _join="".join: _join(_C_ENCODER(obj, 0)))


def canon_json(obj) -> str:
    """``canon(obj)`` as compact JSON with sorted keys, in one encoder pass,
    for an ``obj`` whose dicts have str keys only (every node summary,
    event, payload and signed value does).  A key of another type is
    spelled as ``json`` spells it: int keys by value, True as "true"; keys
    that do not compare (1 and "1", None and 2) raise ``TypeError``."""
    return _encode(obj)


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def fingerprint(obj) -> str:
    return _digest(canon_json(obj))


class Node:
    """Base class for protocol state machines driven by the kernel.

    A node calls ``touch()`` in the same handler as any change to its
    ``state_summary()``; ``touch()`` records the pid in the world's
    ``touched`` set, and the kernel re-serialises only those nodes.  A
    node enters the departed set L by calling ``api.depart()``.  A node
    that sets ``frozen`` receives nothing more: its messages are recorded
    as frozen deliveries, and its timers, requests and tob deliveries are
    skipped.  Every dict in a node's ``state_summary()`` and in what it
    sends, broadcasts or signs has str keys only, as ``canon_json`` needs.
    """

    frozen = False

    def __init__(self, pid):
        self.pid = pid
        self._touched = set()   # the world's touched set, once added to one

    def touch(self):
        self._touched.add(self.pid)

    def on_start(self, api):
        pass

    def on_request(self, api, request):
        pass

    def on_message(self, api, src, payload):
        pass

    def on_tob(self, api, src, payload):
        pass

    def on_timer(self, api, tag):
        pass

    def state_summary(self) -> dict:
        return {}


class Adversary:
    """Hooks through which scripted Byzantine behavior drives the run.

    The adversary owns exactly the Byzantine ids: it can send and sign on
    their behalf, sees every message addressed to them, and (depending on
    the schedule mode) can bias delivery timing within the fairness bound.
    """

    def on_init(self, world):
        pass

    def on_deliver(self, world, env):
        pass

    def on_tob(self, world, index, env):
        pass

    def delay(self, world, env) -> Optional[int]:
        """Delay for a message touching a Byzantine endpoint; None drops it."""
        return world.rng.randint(1, world.policy.fairness_bound)

    def reorder(self, world, env) -> int:
        """Delay for well-behaved traffic in AdversarialReorder mode (clamped)."""
        return world.rng.randint(1, world.policy.fairness_bound)

    def pick_tob(self, world, pending) -> int:
        return 0


def _line(kind, *fields):
    """(template, keys, fields) of one event kind: a %s slot for each field
    in sorted key order, the kind spelled out; msg and request are payloads."""
    slots = {**dict.fromkeys(fields, "%s"), "kind": f'"{kind}"'}
    return ("{" + ",".join(f'"{k}":{slots[k]}' for k in sorted(slots)) + "}",
            slots.keys(), tuple((k, k in ("msg", "request")) for k in sorted(fields)))


# the kinds the kernel writes most, with the keys it writes for them
_LINES = {kind: _line(kind, *fields) for kind, *fields in (
    ("state", "step", "snap"), ("end", "step", "outcome", "snap"),
    ("apl", "step", "src", "dst", "msg"), ("tob_order", "step", "index", "src", "msg"),
    ("tob", "step", "dst", "index", "src", "msg"),
    ("request", "step", "node", "request"), ("response", "step", "node", "response"))}


class Trace:
    def __init__(self):
        self.events = []
        self.outcome = QUIESCENT

    @property
    def responses(self) -> list:
        """(step, node, response) of every ``response`` event, in order."""
        return [(e["step"], e["node"], e["response"])
                for e in self.events if e["kind"] == "response"]

    @property
    def violations(self) -> list:
        """{step, probe, witness} of every ``probe_violation`` event, in order."""
        return [{"step": e["step"], "probe": e["probe"], "witness": e["witness"]}
                for e in self.events if e["kind"] == "probe_violation"]

    def to_jsonl(self) -> str:
        """One ``canon_json(event)`` line per event.  An event with exactly
        its kind's keys in ``_LINES`` fills the kind's template: a payload
        goes through ``canon_json`` once per object (the events keep every
        payload alive, so in one call an id names one object) and once per
        value if it is a tuple of exact strs and ints (equal ones spell alike,
        unlike 1, True and 1.0); an int that is not a bool or a str is spelled
        directly; any other event or value is encoded whole."""
        blobs = {}   # id(payload) or a plain tuple payload -> its blob
        lines = []
        for event in self.events:
            template, keys, fields = _LINES.get(event.get("kind"), (None, None, ()))
            if event.keys() == keys:
                values = []
                for key, payload in fields:
                    value = event[key]
                    if payload:
                        blob = blobs.get(id(value))
                        if blob is None:
                            plain = type(value) is tuple and _PLAIN.issuperset(map(type, value))
                            key = value if plain else id(value)
                            blob = blobs[key] = blobs.get(key) or canon_json(value)
                            blobs[id(value)] = blob
                        values.append(blob)
                    elif type(value) is int:
                        values.append(repr(value))
                    elif type(value) is str:
                        values.append(encode_basestring_ascii(value))
                    else:
                        break
                else:
                    lines.append(template % tuple(values))
                    continue
            lines.append(canon_json(event))
        lines.append("")   # the last line ends in a newline too, with no copy
        return "\n".join(lines) if self.events else "\n"


class World:
    def __init__(self, attack: Attack, policy: SchedulePolicy,
                 adversary: Optional[Adversary] = None, step_cap: int = 10_000):
        self.attack = attack
        self.well_behaved = attack.well_behaved   # one copy, read per message
        self.policy = policy
        self.adversary = adversary or Adversary()
        self.step_cap = step_cap
        self.rng = random.Random(policy.seed)
        self.step = 0
        self.nodes = {}
        self.trace = Trace()
        self.probes = []
        self.probe_state = {}       # what this world's probes share, keyed by owner
        self.l_set = set()          # ids that called api.depart()
        self._queue = []
        self._seq = 0
        self._signed = set()
        self._pending_tob = []
        self._tob_order = []
        self._tob_next = {}         # pid -> next global index expected
        self._tob_buffer = {}       # pid -> {index: env}
        self._tob_hints = list(policy.tob_order)
        self._events_processed = 0
        self.touched = set()        # ids of nodes touched since the last flush
        # snapshot cache: each node's serialised entry, in str(pid) order
        self._slot = None           # pid -> (index into _fragments, '"pid":'), once started
        self._fragments = []

    # -- wiring ------------------------------------------------------------

    def add_node(self, node: Node):
        if node.pid in self.attack.byzantine:
            raise ForgedSender(f"{node.pid!r} is Byzantine; the adversary owns it")
        if self._slot is not None:
            raise ScenarioError(f"node {node.pid!r} added after the world started")
        if node.pid in self.nodes:
            raise ScenarioError(f"node {node.pid!r} added twice")
        self.touched |= node._touched   # touched before it was added
        node._touched = self.touched
        self.nodes[node.pid] = node
        self._tob_next[node.pid] = 0
        self._tob_buffer[node.pid] = {}

    def add_probe(self, name: str, fn: Callable):
        self.probes.append((name, fn))

    def request(self, at_step: int, pid, request):
        self._push(at_step, "request", (pid, request))

    # -- node/adversary facing API ------------------------------------------

    def send(self, src, dst, payload):
        if src in self.well_behaved and src not in self.nodes:
            raise ForgedSender(f"no node owns well-behaved id {src!r}")
        self._route(Envelope(src, dst, payload))

    def adversary_send(self, src, dst, payload):
        if src not in self.attack.byzantine:
            raise ForgedSender(f"adversary cannot send as well-behaved {src!r}")
        self._route(Envelope(src, dst, payload))

    def tob_broadcast(self, src, payload):
        self._pending_tob.append(Envelope(src, None, payload))
        self._push(self.step + 1, "tob_seq", None)

    def adversary_tob(self, src, payload):
        if src not in self.attack.byzantine:
            raise ForgedSender(f"adversary cannot broadcast as well-behaved {src!r}")
        self.tob_broadcast(src, payload)

    def sign(self, signer, payload, *, by_adversary=False) -> Signature:
        if by_adversary:
            if signer not in self.attack.byzantine:
                raise ForgedSigner(f"adversary cannot sign as well-behaved {signer!r}")
        elif signer in self.attack.byzantine:
            raise ForgedSigner(f"node cannot sign as Byzantine {signer!r}")
        digest = fingerprint(payload)
        self._signed.add((signer, digest))
        return Signature(signer, digest)

    def verify(self, sig: Signature, signer, payload) -> bool:
        return (isinstance(sig, Signature)
                and sig.signer == signer
                and sig.digest == fingerprint(payload)
                and (signer, sig.digest) in self._signed)

    def set_timer(self, pid, tag, delay):
        self._push(self.step + max(1, delay), "timer", (pid, tag))

    def respond(self, pid, response):
        self._record({"step": self.step, "kind": "response", "node": pid,
                      "response": response})

    # -- internals -----------------------------------------------------------

    def _live(self, pid) -> Optional[Node]:
        """The node that handles deliveries for ``pid``; None if absent or frozen."""
        node = self.nodes.get(pid)
        return None if node is None or node.frozen else node

    def _route(self, env: Envelope):
        byz = self.attack.byzantine
        if env.src in byz or env.dst in byz:
            delay = self.adversary.delay(self, env)
            if delay is None:
                self._record({"step": self.step, "kind": "drop", "src": env.src,
                              "dst": env.dst, "msg": env.payload})
                return
            delay = max(1, int(delay))
        elif self.policy.mode == ADVERSARIAL:
            delay = min(max(1, int(self.adversary.reorder(self, env))),
                        self.policy.fairness_bound)
        else:
            delay = self.rng.randint(1, self.policy.fairness_bound)
        self._push(self.step + delay, "apl", env)

    def _push(self, due, kind, data):
        self._seq += 1
        heapq.heappush(self._queue, (due, self._seq, kind, data))

    def _record(self, event):
        self.trace.events.append(event)

    def _sequence_tob(self, pids):
        if not self._pending_tob:
            return
        if self.policy.mode == SCRIPTED and self._tob_hints:
            want = self._tob_hints[0]
            idx = next((i for i, e in enumerate(self._pending_tob) if e.src == want), 0)
            if self._pending_tob[idx].src == want:
                self._tob_hints.pop(0)
        elif self.policy.mode == ADVERSARIAL:
            idx = self.adversary.pick_tob(self, tuple(self._pending_tob))
            idx = idx if 0 <= idx < len(self._pending_tob) else 0
        else:
            idx = self.rng.randrange(len(self._pending_tob))
        env = self._pending_tob.pop(idx)
        index = len(self._tob_order)
        self._tob_order.append(env)
        self._record({"step": self.step, "kind": "tob_order", "index": index,
                      "src": env.src, "msg": env.payload})
        self.adversary.on_tob(self, index, env)
        for pid in pids:
            self._push(self.step + self.rng.randint(1, self.policy.fairness_bound),
                       "tob_dlv", (pid, index))
        if self._pending_tob:
            self._push(self.step + 1, "tob_seq", None)

    def _deliver_tob(self, apis, pid, index):
        buf = self._tob_buffer[pid]
        buf[index] = self._tob_order[index]
        while self._tob_next[pid] in buf:
            i = self._tob_next[pid]
            env = buf.pop(i)
            self._tob_next[pid] = i + 1
            node = self._live(pid)
            if node is None:
                continue
            self._record({"step": self.step, "kind": "tob", "dst": pid,
                          "index": i, "src": env.src, "msg": env.payload})
            node.on_tob(apis[pid], env.src, env.payload)

    def _run_probes(self):
        for name, fn in self.probes:
            witness = fn(self)
            if witness is not None:
                self._record({"step": self.step, "kind": "probe_violation",
                              "probe": name, "witness": witness})

    def state_snapshot(self) -> dict:
        return {str(pid): self.nodes[pid].state_summary()
                for pid in sorted_ids(self.nodes)}

    def _snapshot_digest(self) -> str:
        """``fingerprint(self.state_snapshot())``, joined from cached
        fragments; re-serialises the touched nodes and clears ``touched``."""
        for pid in self.touched:
            i, key = self._slot[pid]
            self._fragments[i] = key + canon_json(self.nodes[pid].state_summary())
        self.touched.clear()
        return _digest("{" + ",".join(self._fragments) + "}")

    def run(self) -> Trace:
        by_key = sorted(self.nodes.values(), key=lambda node: str(node.pid))
        self._slot = {node.pid: (i, encode_basestring_ascii(str(node.pid)) + ":")
                      for i, node in enumerate(by_key)}
        # touched stays as it is: a node touched before run() still yields a
        # state event (and a probe run) at the first flush
        self._fragments = [key + canon_json(node.state_summary())
                           for node, (_, key) in zip(by_key, self._slot.values())]
        self.adversary.on_init(self)
        pids = sorted_ids(self.nodes)   # fixed from here on, as is each node's api
        apis = {pid: NodeApi(self, self.nodes[pid]) for pid in pids}   # local: no cycle
        for pid in pids:
            self.nodes[pid].on_start(apis[pid])
        touched = self.touched
        if touched:
            self._flush_dirty()
        while self._queue:
            if self._events_processed >= self.step_cap:
                self.trace.outcome = STEP_CAP
                break
            due, _, kind, data = heapq.heappop(self._queue)
            self.step = due
            self._events_processed += 1
            if kind == "apl":
                env = data
                if env.dst in self.attack.byzantine:
                    self._record({"step": self.step, "kind": "apl", "src": env.src,
                                  "dst": env.dst, "msg": env.payload, "byz": True})
                    self.adversary.on_deliver(self, env)
                else:
                    node = self._live(env.dst)
                    if node is None:
                        self._record({"step": self.step, "kind": "apl", "src": env.src,
                                      "dst": env.dst, "msg": env.payload, "frozen": True})
                    else:
                        self._record({"step": self.step, "kind": "apl", "src": env.src,
                                      "dst": env.dst, "msg": env.payload})
                        node.on_message(apis[env.dst], env.src, env.payload)
            elif kind == "tob_seq":
                self._sequence_tob(pids)
            elif kind == "tob_dlv":
                self._deliver_tob(apis, *data)
            elif kind == "timer":
                pid, tag = data
                node = self._live(pid)
                if node is not None:
                    self._record({"step": self.step, "kind": "timer", "node": pid,
                                  "tag": tag})
                    node.on_timer(apis[pid], tag)
            elif kind == "request":
                pid, request = data
                node = self._live(pid)
                if node is not None:
                    self._record({"step": self.step, "kind": "request", "node": pid,
                                  "request": request})
                    node.on_request(apis[pid], request)
            if touched:
                self._flush_dirty()
        else:
            self.trace.outcome = QUIESCENT
        self._record({"step": self.step, "kind": "end", "outcome": self.trace.outcome,
                      "snap": self._snapshot_digest()})
        return self.trace

    def _flush_dirty(self):
        """Probes, then a ``state`` event; called only when a node was touched."""
        self._run_probes()      # probes may read touched before it is cleared
        self._record({"step": self.step, "kind": "state",
                      "snap": self._snapshot_digest()})


class NodeApi:
    """Per-node capability handle: authenticated sends, tob, signing, timers."""

    __slots__ = ("world", "node")

    def __init__(self, world: World, node: Node):
        self.world = world
        self.node = node

    @property
    def me(self):
        return self.node.pid

    def send(self, dst, payload):
        self.world.send(self.node.pid, dst, payload)

    def tob(self, payload):
        self.world.tob_broadcast(self.node.pid, payload)

    def sign(self, payload) -> Signature:
        return self.world.sign(self.node.pid, payload)

    def verify(self, sig, signer, payload) -> bool:
        return self.world.verify(sig, signer, payload)

    def respond(self, response):
        self.world.respond(self.node.pid, response)

    def depart(self):
        """Enter the departed set L; the node keeps receiving unless frozen."""
        self.world.l_set.add(self.node.pid)

    def timer(self, tag, delay):
        self.world.set_timer(self.node.pid, tag, delay)
