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
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import is_
from typing import Callable, Optional

from .core import Attack, sorted_ids
from .errors import ForgedSender, ForgedSigner, ScenarioError

QUIESCENT = "quiescent"
STEP_CAP = "step_cap"


@dataclass(frozen=True)
class SchedulePolicy:
    seed: int
    fairness_bound: int = 6
    tob_order: tuple = ()  # hints: the src order in which to sequence broadcasts

    def __post_init__(self):
        bound = self.fairness_bound   # a boolean is not a number
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
            raise ScenarioError(f"fairness_bound must be an integer >= 1, got {bound!r}")


def draws(rng, n):
    """Endless uniform draws from ``range(n)``, each made when asked for, by the
    stdlib's rejection loop over ``rng.getrandbits``: every bounded schedule draw."""
    if n < 1:   # getrandbits(0) is 0, never below 0: the loop would never end
        raise ValueError(f"draws: empty range below {n!r}")
    return _draws(rng.getrandbits, n, n.bit_length())


def _draws(getrandbits, n, bits):
    while True:
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        yield r


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
    ``touched`` set, and the kernel re-serialises only those nodes, each
    through ``state_json()``.  That must equal
    ``canon_json(state_summary())`` whenever the kernel calls it; an
    override may spell it from parts the node keeps current, but ``touch()``
    still decides when it is called.  A node enters the departed set L by
    calling ``api.depart()``.  A node that sets ``frozen`` receives nothing
    more: its messages are recorded as frozen deliveries, and its timers,
    requests and tob deliveries are skipped.  Every dict in a node's
    ``state_summary()`` and in what it sends, broadcasts or signs has str
    keys only, as ``canon_json`` needs.  A payload or response is not
    changed once sent: the kernel writes its line when it records the event."""

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

    def state_json(self) -> str:
        """This node's snapshot fragment: ``canon_json(state_summary())``."""
        return canon_json(self.state_summary())


class Adversary:
    """Hooks through which the Byzantine adversary drives the run.

    The adversary owns exactly the Byzantine ids: it can send and sign on
    their behalf and sees every message addressed to them.  It also makes
    every schedule choice: ``delay``, ``reorder`` and, once the policy's
    ``tob_order`` hints run out, ``pick_tob``.  Their defaults draw from
    ``world.rng`` through ``draws``: the random-fair schedule.  A delay is ``1 +``
    the world's next draw below the bound; while ``delay`` or ``reorder`` is this
    class's own, the kernel takes that delay itself;
    an overriding hook (a subclass's, an instance attribute, a patch) that the
    world's first routed message finds is called for every message it covers.
    The kernel queues a message as a plain tuple, so each call of ``delay``,
    ``reorder`` or ``on_deliver`` gets an ``Envelope`` built for that call.
    """

    def on_init(self, world):
        pass

    def on_deliver(self, world, env):
        pass

    def on_tob(self, world, index, env):
        pass

    def delay(self, world, env) -> Optional[int]:
        """Delay for a message touching a Byzantine endpoint; None drops it."""
        return 1 + world._below_bound()

    def reorder(self, world, env) -> int:
        """Delay for well-behaved traffic, clamped to [1, fairness_bound]."""
        return 1 + world._below_bound()

    def pick_tob(self, world, pending) -> int:
        """Index into ``pending`` of the broadcast to sequence; out of range is 0."""
        return next(draws(world.rng, len(pending)))


# the base hooks, whose delay ``World._route`` takes itself
_BASE_DELAY, _BASE_REORDER = Adversary.delay, Adversary.reorder


def _line(kind, *fields):
    """(template, keys, fields) of one event kind: a %s slot for each field in sorted
    key order, the kind and each flag after a "/" spelled out; msg and request are payloads."""
    kind, *flags = kind.split("/")
    slots = {**dict.fromkeys(fields, "%s"), "kind": f'"{kind}"', **dict.fromkeys(flags, "true")}
    return ("{" + ",".join(f'"{k}":{slots[k]}' for k in sorted(slots)) + "}",
            slots.keys(), tuple((k, k in ("msg", "request")) for k in sorted(fields)))


# the kinds the kernel writes most, with their keys; a flag after "/" is written true
_LINES = {kind: _line(kind, *fields) for kind, *fields in (
    ("state", "step", "snap"), ("end", "step", "outcome", "snap"),
    ("apl", "step", "src", "dst", "msg"), ("apl/byz", "step", "src", "dst", "msg"),
    ("apl/frozen", "step", "src", "dst", "msg"),
    ("tob_order", "step", "index", "src", "msg"), ("tob", "step", "dst", "index", "src", "msg"),
    ("request", "step", "node", "request"), ("response", "step", "node", "response"))}
_ODD = (object(), None)   # an id that is not in a world's id map
_NOWHERE = (None, None, _ODD, "frozen")   # a destination that no node or adversary owns
_APL = {f: _LINES[f"apl/{f}" if f else "apl"][0] for f in (None, "byz", "frozen")}
_TOB = _LINES["tob"][0]


def _plain_json(value):
    """``value`` as JSON if it is an exact int or str, else None."""
    return repr(value) if type(value) is int else (
        encode_basestring_ascii(value) if type(value) is str else None)


def _blob(payload, blobs) -> str:
    """``canon_json(payload)``, kept in ``blobs`` by id while the payload lives, and by value
    if it is a tuple of exact strs and ints (equal ones spell alike, unlike 1 and True)."""
    blob = blobs.get(id(payload))
    if blob is None:
        plain = type(payload) is tuple and _PLAIN.issuperset(map(type, payload))
        key = payload if plain else id(payload)
        blob = blobs[key] = blobs.get(key) or canon_json(payload)
        blobs[id(payload)] = blob
    return blob


def _spell(event, blobs) -> str:
    """``canon_json(event)``: its kind's template filled through ``_blob`` and ``_plain_json``
    if it has just that kind's keys in ``_LINES`` and they spell, else encoded whole."""
    template, keys, fields = _LINES.get(event.get("kind"), (None, None, ()))
    if event.keys() == keys:
        values = [_blob(event[key], blobs) if payload else _plain_json(event[key])
                  for key, payload in fields]
        if None not in values:
            return template % tuple(values)
    return canon_json(event)


class Trace:
    """A run's events, each given its line as the kernel records it, and outcome.
    While a run lasts, only the kernel changes ``events``, and only by appending."""

    def __init__(self):
        self.events = []
        self.outcome = QUIESCENT
        self._lines = []    # the line of each event the kernel recorded
        self._spelt = ()    # the events as the run left them
        self._blobs = {}    # their payloads' JSON, as _blob keeps it

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
        """One ``canon_json(event)`` line per event: the kernel's lines while ``events``
        holds just the events the run left there, else ``_spell``'s for each event."""
        lines, events, spelt = self._lines, self.events, self._spelt
        if not (len(lines) == len(events) == len(spelt) and all(map(is_, spelt, events))):
            blobs = {}
            lines = [_spell(event, blobs) for event in events]
        return "\n".join(lines) + "\n"


class World:
    def __init__(self, attack: Attack, policy: SchedulePolicy,
                 adversary: Optional[Adversary] = None, step_cap: int = 10_000):
        self.attack = attack
        # Attack.well_behaved builds a new set per read; probe memos compare this one by identity
        self.well_behaved = attack.well_behaved
        self.policy = policy
        self.adversary = adversary or Adversary()
        self.step_cap = step_cap
        self.rng = random.Random(policy.seed)
        self._below_bound = draws(self.rng, policy.fairness_bound).__next__   # a delay is 1 + it
        self.step = 0
        self.nodes = {}
        self.trace = Trace()
        self.probes = []
        self.probe_state = {}       # what this world's probes share, keyed by owner
        self.l_set = set()          # ids that called api.depart()
        self._queue = defaultdict(list)   # step -> [(kind, data)] in push order
        self._steps = []            # heap of the steps in _queue
        self._signed = set()
        self._pending_tob = []
        self._tob_order = []        # (env, its index, payload and src as JSON or None)
        self._tob_hints = list(policy.tob_order)
        self._router = None         # what _route reads, from its first message on
        self.touched = set()        # ids of nodes touched since the last flush
        self.flushes = self.probing = 0   # state events so far; the flush whose probes run
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

    def add_probe(self, name: str, fn: Callable):
        self.probes.append((name, fn))

    def request(self, at_step: int, pid, request):
        if type(at_step) is not int or at_step < self.step:   # no int step, or a past one
            raise ScenarioError(f"request for step {at_step!r} made at step {self.step}")
        self._push(at_step, "request", (pid, request))

    # -- node/adversary facing API ------------------------------------------

    def _owned(self, src):
        """``src``, if a node of this world or the adversary owns it."""
        if src not in self.nodes and src not in self.attack.byzantine:
            raise ForgedSender(f"no node and no Byzantine process owns {src!r}")
        return src

    def send(self, src, dst, payload):
        self._route(self._owned(src), ((dst, payload),))

    def adversary_send(self, src, dst, payload):
        self.adversary_send_all(src, ((dst, payload),))

    def adversary_send_all(self, src, pairs):
        """``adversary_send`` of each ``(dst, payload)`` in ``pairs``, in
        order; ``pairs`` may be a generator, read as ``_route`` reads it."""
        if src not in self.attack.byzantine:
            raise ForgedSender(f"adversary cannot send as well-behaved {src!r}")
        self._route(src, pairs)

    def tob_broadcast(self, src, payload):
        self._pending_tob.append(Envelope(self._owned(src), None, payload))
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
        if type(delay) is not int:
            raise ScenarioError(f"timer delay must be an int, got {delay!r}")
        self._push(self.step + max(1, delay), "timer", (pid, tag))

    def respond(self, pid, response):
        self._write({"step": self.step, "kind": "response", "node": pid, "response": response},
                    "response", _plain_json(pid), _plain_json(response), repr(self.step))

    # -- internals -----------------------------------------------------------

    def _route(self, src, pairs):
        """Route each ``(dst, payload)`` of ``pairs`` from ``src``, in order.

        A message with a Byzantine endpoint is delayed by ``adversary.delay``
        (None drops it), any other by ``adversary.reorder``, clamped to
        [1, fairness_bound]; each is queued as ``("apl", (src, dst, payload))``
        at its step.  A hook that is ``Adversary``'s own is not called: the
        loop takes its delay, ``1 + _below_bound()``, itself.  Any other hook
        is called with an Envelope built for that call, not the queued tuple.
        ``pairs`` is read one pair at a time, and each
        pair is routed before the next is read, so draws that a generator
        makes for a pair come right before that pair's delay draw.  The hooks
        and the bound are read once per world, at its first routed
        message: a hook replaced after that is not seen.
        """
        if self._router is None:   # None below for a hook whose draw the loop makes itself
            delay, reorder = self.adversary.delay, self.adversary.reorder
            self._router = (
                self.attack.byzantine,
                None if getattr(delay, "__func__", None) is _BASE_DELAY else delay,
                None if getattr(reorder, "__func__", None) is _BASE_REORDER else reorder,
                self.policy.fairness_bound, self._below_bound, self._queue, self._steps)
        byz, delay, reorder, bound, below, queue, steps = self._router
        step, from_byz = self.step, src in byz
        for dst, payload in pairs:
            byzantine = from_byz or dst in byz
            hook = delay if byzantine else reorder
            if hook is None:
                due = step + 1 + below()
            else:
                due = hook(self, Envelope(src, dst, payload))
                if due is None and byzantine:
                    self._write({"step": step, "kind": "drop", "src": src,
                                 "dst": dst, "msg": payload})
                    continue
                due = step + (max(1, int(due)) if byzantine else min(max(1, int(due)), bound))
            if due not in queue:   # as _push does
                heapq.heappush(steps, due)
            queue[due].append(("apl", (src, dst, payload)))

    def _push(self, due, kind, data):
        """Queue ``(kind, data)`` at step ``due``, after what is there."""
        if due not in self._queue:
            heapq.heappush(self._steps, due)
        self._queue[due].append((kind, data))

    def _record(self, event):
        """Append ``event`` to the trace; the caller appends its line next."""
        self.trace.events.append(event)

    def _write(self, event, kind=None, *values):
        """Record ``event`` and its line: ``kind``'s template filled with ``values``
        if each is spelt (not None), else ``_spell(event)``."""
        self._record(event)
        self.trace._lines.append(_LINES[kind][0] % values if kind and None not in values
                                 else _spell(event, self.trace._blobs))

    def _sequence_tob(self, pids):
        pending, hints = self._pending_tob, self._tob_hints
        if not pending:
            return
        if hints:   # the earliest-hinted pending src goes first, else the oldest
            srcs = [env.src for env in pending]
            hint = next((h for h, src in enumerate(hints) if src in srcs), None)
            idx = 0 if hint is None else srcs.index(hints.pop(hint))
        else:
            idx = self.adversary.pick_tob(self, tuple(pending))
            idx = idx if 0 <= idx < len(pending) else 0
        env = pending.pop(idx)
        index = len(self._tob_order)
        spelt = (repr(index), _blob(env.payload, self.trace._blobs), _plain_json(env.src))
        self._tob_order.append((env, *spelt))
        self._write({"step": self.step, "kind": "tob_order", "index": index, "src": env.src,
                     "msg": env.payload}, "tob_order", *spelt, repr(self.step))
        self.adversary.on_tob(self, index, env)
        step, below, queue, steps = self.step + 1, self._below_bound, self._queue, self._steps
        for pid in pids:   # a delay of 1 + a draw below the bound, queued as _route queues
            due = step + below()
            if due not in queue:
                heapq.heappush(steps, due)
            queue[due].append(("tob_dlv", (pid, index)))
        if self._pending_tob:
            self._push(self.step + 1, "tob_seq", None)

    def _run_probes(self):
        for name, fn in self.probes:
            witness = fn(self)
            if witness is not None:
                self._write({"step": self.step, "kind": "probe_violation",
                             "probe": name, "witness": witness})

    def state_snapshot(self) -> dict:
        return {str(pid): self.nodes[pid].state_summary()
                for pid in sorted_ids(self.nodes)}

    def _snapshot_digest(self) -> str:
        """``fingerprint(self.state_snapshot())``, joined from cached
        fragments; re-serialises the touched nodes and clears ``touched``."""
        for pid in self.touched:
            i, key = self._slot[pid]
            self._fragments[i] = key + self.nodes[pid].state_json()
        self.touched.clear()
        return _digest("{" + ",".join(self._fragments) + "}")

    def run(self) -> Trace:
        if self._slot is not None:
            raise ScenarioError("a world runs once")
        by_key = sorted(self.nodes.values(), key=lambda node: str(node.pid))
        self._slot = {node.pid: (i, encode_basestring_ascii(str(node.pid)) + ":")
                      for i, node in enumerate(by_key)}
        # touched stays as it is: a node touched before run() still yields a
        # state event (and a probe run) at the first flush
        self._fragments = [key + node.state_json()
                           for node, (_, key) in zip(by_key, self._slot.values())]
        self.adversary.on_init(self)
        pids = sorted_ids(self.nodes)   # fixed from here on, as is each node's api
        apis = {pid: NodeApi(self, self.nodes[pid]) for pid in pids}   # local: no cycle
        # each node's and Byzantine id that spells as JSON, spelt once: (id, its JSON)
        ids = {pid: (pid, spelt) for pid in chain(self.attack.byzantine, pids)
               if (spelt := _plain_json(pid)) is not None}
        # per destination: its node, api, entry in ids and flag (None at a node: it may freeze)
        targets = {b: (None, None, ids.get(b, _ODD), "byz") for b in self.attack.byzantine}
        targets.update((pid, (self.nodes[pid], apis[pid], ids.get(pid, _ODD), None))
                       for pid in pids)
        for pid in pids:
            self.nodes[pid].on_start(apis[pid])
        touched = self.touched
        if touched:
            self._flush_dirty()
        queue, steps, trace, tob_order = self._queue, self._steps, self.trace, self._tob_order
        record, write, blobs = trace.events.append, trace._lines.append, trace._blobs
        nodes, cap, processed = self.nodes, self.step_cap, 0
        # per node: the next tob index it takes, and the later ones that came first
        tob_next, tob_early = defaultdict(int), defaultdict(set)
        while steps and processed < cap:
            due = self.step = steps[0]
            bucket, start, at = queue[due], processed, repr(due)
            for kind, data in bucket:   # a push for this step while it runs joins it
                if processed >= cap:    # stop short of the entry past the cap
                    del bucket[:processed - start]
                    break
                processed += 1
                if kind == "apl":
                    src, dst, msg = data
                    node, api, (b, d), flag = targets.get(dst, _NOWHERE)
                    if flag is None and node.frozen:
                        flag = "frozen"
                    event = {"step": due, "kind": "apl", "src": src, "dst": dst, "msg": msg}
                    if flag:
                        event[flag] = True
                    record(event)
                    a, s = ids.get(src, _ODD)
                    write(_APL[flag] % (d, blobs.get(id(msg)) or _blob(msg, blobs), s, at)
                          if a is src and b is dst else _spell(event, blobs))
                    if flag is None:
                        node.on_message(api, src, msg)
                    elif flag == "byz":
                        self.adversary.on_deliver(self, Envelope(src, dst, msg))
                elif kind == "tob_seq":
                    self._sequence_tob(pids)
                elif kind == "tob_dlv":
                    dst, arrived = data
                    early, node, (b, d) = tob_early[dst], nodes[dst], ids.get(dst, _ODD)
                    early.add(arrived)
                    i = tob_next[dst]
                    while i in early:   # take each index in order, once all before it came
                        early.remove(i)
                        env, index, msg, s = tob_order[i]   # index, msg and s spelt as JSON
                        if not node.frozen:
                            event = {"step": due, "kind": "tob", "dst": dst, "index": i,
                                     "src": env.src, "msg": env.payload}
                            record(event)
                            write(_TOB % (d, index, msg, s, at) if b is dst and s is not None
                                  else _spell(event, blobs))
                            node.on_tob(apis[dst], env.src, env.payload)
                        i += 1
                    tob_next[dst] = i
                elif kind == "timer":
                    pid, tag = data
                    node = nodes.get(pid)
                    if node is not None and not node.frozen:
                        self._write({"step": due, "kind": "timer", "node": pid, "tag": tag})
                        node.on_timer(apis[pid], tag)
                elif kind == "request":
                    pid, request = data
                    node = nodes.get(pid)
                    if node is not None and not node.frozen:
                        self._write({"step": due, "kind": "request", "node": pid,
                                     "request": request}, "request", _plain_json(pid),
                                    _blob(request, blobs), at)
                        node.on_request(apis[pid], request)
                if touched:
                    self._flush_dirty()
            else:
                heapq.heappop(steps)
                del queue[due]
        self.trace.outcome = STEP_CAP if steps else QUIESCENT
        self._write({"step": self.step, "kind": "end", "outcome": self.trace.outcome,
                     "snap": self._snapshot_digest()})
        self.trace._spelt = tuple(self.trace.events)
        return self.trace

    def _flush_dirty(self):
        """Probes, then a ``state`` event (its digest is hex); only when a node was touched."""
        self.probing = self.flushes = self.flushes + 1   # the probes of a flush may share work
        self._run_probes()      # probes may read touched before it is cleared
        self.probing = 0
        snap = self._snapshot_digest()
        self._write({"step": self.step, "kind": "state", "snap": snap},
                    "state", f'"{snap}"', repr(self.step))


class NodeApi:
    """Per-node capability handle: authenticated sends, tob, signing, timers.

    A handle is built only for a node of its world, so its sends are
    authenticated by construction and go straight to the router;
    ``World.send`` keeps the forged-sender check for direct callers.
    ``send_all`` routes a fan-out of one payload in one router call."""

    __slots__ = ("world", "node")

    def __init__(self, world: World, node: Node):
        self.world = world
        self.node = node

    @property
    def me(self):
        return self.node.pid

    def send(self, dst, payload):
        self.world._route(self.node.pid, ((dst, payload),))

    def send_all(self, dsts, payload):
        """``send(dst, payload)`` for each of ``dsts``, in order."""
        self.world._route(self.node.pid, zip(dsts, repeat(payload)))

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
