"""Reconfiguration protocols as message-handler state machines.

One node class hosts the four client operations:

* Join: probe the trusted seed set, grow tentative quorums until they are
  quorum including, then adopt them.
* Leave / Remove, availability-and-consistency preserving ("ac" mode):
  requests inside the sink coordinate through a total-order broadcast whose
  Check handler serializes departures via the tomb set; followers shrink
  their quorums on Left.
* Leave / Remove, policy-and-consistency preserving ("pc" mode): followers
  drop every quorum containing the leaver instead of shrinking it.
* Add, in three phases: inclusion check, intersection check through the
  tentative sets, and a signed commit/success/fail update.

Handlers are pure state transitions driven by the kernel.  A node that
completes Leave or Remove enters the departed set through ``api.depart()``;
a leaver also freezes (stops handling anything).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .core import antichain, blocks, ordered, quorum_key, sorted_ids, sorted_quorums
from .sim import Node, canon_json

AC = "ac"
PC = "pc"

_EMPTY = frozenset()
_FROZENSET = frozenset({frozenset})
# a ReconfigNode's snapshot fragment: its summary's keys in sorted order
_FRAGMENT = '{"Q":%s,"frozen":%s,"tentative":%s,"tomb":%s}'


# A world meets few distinct Checks (at most 23 in a 40-process benchmark
# world: a payload per requester, times the tombs it meets).  256 entries
# hold ten such worlds, bounded however long a sweep runs.  A delivery's
# ``drop`` is a ``_grown`` tomb, one object for all nodes, so its hash is kept.
@lru_cache(maxsize=256)
def _check_passes(declared: tuple, extra: frozenset, drop: frozenset) -> bool:
    """The tob-ordered Check of ``declared`` quorums: every pairwise
    intersection of the domain (``declared`` and the ``extra`` tentative
    quorums, a quorum paired with itself included), minus ``drop``, must
    intersect every ``declared`` quorum.  Pure, so every node and world of
    the process may share its cache: each node delivers the same Check with
    the same tomb and gets the same answer, and a requester's pre-check is
    the Check at an empty tomb."""
    return all(blocks(declared, (q1 & q2) - drop) for q1, q2 in
               combinations_with_replacement(extra.union(declared), 2))


# Every node delivers one TOB sequence, so all hold the one (JSON, frozen
# tomb) pair ``_grown`` returns for a prefix: hashed once, spelt once.  The
# key is that pair, JSON included, since ``{4}`` equals ``{4.0}`` but is spelt
# differently; ``typed`` keeps a ``src`` of 4 apart from 4.0 and True from 1.
@lru_cache(maxsize=256, typed=True)
def _grown(tomb: tuple, src) -> tuple:
    grown = tomb[1] | {src}
    return canon_json(sorted_ids(grown)), grown


def spell_pairs(pairs) -> list:
    """(requester, q_c) pairs as sorted ``[str(requester), sorted ids]``
    lists, in an order no hash seed moves, for any mix of id types."""
    return ordered([[str(r), sorted_ids(q)] for (r, q) in pairs],
                   mixed=lambda t: (t[0], quorum_key(t[1])))


class Kept(NamedTuple):
    """A node's quorums as a frozenset antichain, as a tuple in
    ``sorted_quorums`` order, and Q's JSON.  The nodes built from one system
    share these, so nothing here is ever mutated."""

    quorums: frozenset
    sorted_q: tuple
    q_json: str


def kept_quorums(quorums) -> Kept:
    """``quorums`` as a ``Kept``: sorted and spelt once."""
    kept = frozenset(antichain(quorums))
    sorted_q = tuple(sorted_quorums(kept))
    return Kept(kept, sorted_q, canon_json([sorted_ids(q) for q in sorted_q]))


class ReconfigNode(Node):
    """``quorums`` is an iterable of quorums, or a ``Kept`` to adopt as it is."""

    def __init__(self, pid, quorums, followers=(), in_sink=None, mode=AC,
                 combined_checks=True):
        super().__init__(pid)
        # no touch(): run()'s first snapshot serialises a new node anyway
        self.quorums, self.sorted_q, self._q_json = (
            quorums if type(quorums) is Kept else kept_quorums(quorums))
        self.followers = set(followers)
        self.in_sink = in_sink            # None means unknown: always coordinate
        self.mode = mode
        self.combined_checks = combined_checks
        self.tomb = set()
        self._tomb = ("[]", _EMPTY)       # the tomb's JSON and the tomb frozen
        self.tentative = set()            # (requester, q_c) pairs
        self.failed = {}                  # (requester, q_c) -> set of Fail senders
        self.succeeded = {}               # (requester, q_c) -> bool
        self.fail_completed = set()
        self._echoed_fail = set()
        self.pending = None
        self.add_req = None
        self._votes = {}                  # (requester, q_c, ack) -> CheckAck/Nack senders
        self._answered = set()            # the (requester, q_c, ack) keys replied to
        # join state
        self._join = None

    # -- helpers -------------------------------------------------------------

    def _set_quorums(self, quorums):
        """The only writer of ``quorums`` after construction; sorts and
        spells them once, into ``sorted_q`` and Q's JSON."""
        self.quorums, self.sorted_q, self._q_json = kept_quorums(quorums)
        self.touch()

    def _frozen_tomb(self) -> tuple:
        """The tomb's JSON and the tomb as a frozenset; frozen and spelt anew
        only after a write outside a Check."""
        if self.tomb != self._tomb[1]:
            tomb = frozenset(self.tomb)
            self._tomb = canon_json(sorted_ids(tomb)), tomb
        return self._tomb

    def _finish(self, api, response):
        self.pending = None
        self.add_req = None
        api.respond(response)

    def _depart(self, api):
        """Complete the pending Leave or Remove: a remover drops its quorum
        before it responds; a leaver freezes once it has told its followers."""
        kind = self.pending[0]
        if kind == "Remove":
            self._set_quorums(self.quorums - {self.pending[1]})
        self._finish(api, kind + "Complete")
        if kind == "Leave" or self.mode != PC:
            # followers purge a remover just like a leaver: it may have
            # lost its own availability and must not be counted on
            api.send_all(sorted_ids(self.followers), ("Left",))
        api.depart()
        if kind == "Leave":
            self.frozen = True
            self.touch()

    def state_summary(self) -> dict:
        return {
            "Q": [sorted_ids(q) for q in self.sorted_q],
            "tomb": sorted_ids(self.tomb),
            "tentative": spell_pairs(self.tentative),
            "frozen": self.frozen,
        }

    def state_json(self) -> str:
        """``canon_json(self.state_summary())``, filled in from Q's JSON
        (spelt when Q is replaced) and the tomb's (spelt once for all nodes
        when a passing Check grows it, by this node after an outside write)."""
        return _FRAGMENT % (self._q_json, "true" if self.frozen else "false",
                            canon_json(spell_pairs(self.tentative)) if self.tentative else "[]",
                            self._frozen_tomb()[0])

    # -- client requests -------------------------------------------------------

    def on_request(self, api, request):
        if self.pending is not None:
            api.respond("Busy")
            return
        kind = request[0]
        if kind in ("Leave", "Remove"):
            self._request_departure(api, request)
        elif kind == "Add":
            self._request_add(api, frozenset(request[1]))
        elif kind == "Join":
            self._request_join(api, request[1], request[2])
        else:
            api.respond("UnknownRequest")

    # -- leave / remove --------------------------------------------------------

    def _request_departure(self, api, request):
        """Leave, or Remove of the quorum ``request[1]``.  The remover may
        drop out of the outlived set, so its Check covers its full current
        quorum set, exactly as a leaver's does."""
        if request[0] == "Leave":
            self.pending, check = ("Leave",), ("LeaveCheck", self.sorted_q)
        else:
            quorum = frozenset(request[1])
            if quorum not in self.quorums:
                api.respond("RemoveFail")
                return
            self.pending, check = ("Remove", quorum), ("RemoveCheck", quorum, self.sorted_q)
        if self.mode == PC or self.in_sink is False:
            # followers drop whole quorums (pc), or the requester sits outside
            # the sink, where departing cannot endanger quorum intersection
            self._depart(api)
        elif _check_passes(self.sorted_q, _EMPTY, frozenset((self.pid,))):
            api.tob(check)
        else:
            self._finish(api, request[0] + "Fail")

    def on_tob(self, api, src, payload):
        """The tob-ordered Check: every pair's intersection, minus the
        requester and the tomb, must still block the requester."""
        tag = payload[0]
        if tag not in ("LeaveCheck", "RemoveCheck"):
            return
        declared = payload[-1]   # a well-behaved requester's is a tuple of frozensets
        if type(declared) is not tuple or not _FROZENSET.issuperset(map(type, declared)):
            declared = tuple(map(frozenset, declared))
        extra = (frozenset(q for _, q in self.tentative)
                 if self.combined_checks and self.tentative else _EMPTY)
        grown = _grown(self._frozen_tomb(), src)   # shared by every node
        if not _check_passes(declared, extra, grown[1]):
            if src == self.pid:   # its own Check: its request is still pending
                self._finish(api, self.pending[0] + "Fail")
            return
        self.tomb.add(src)
        self._tomb = grown
        self.touch()
        if src == self.pid:
            self._depart(api)

    def _on_left(self, api, src):
        if not any(src in q for q in self.quorums):
            self.touch()   # Q stays as it is; the touch keeps the Left's state event
        elif self.mode == PC:
            self._set_quorums({q for q in self.quorums if src not in q})
        else:
            shrunk = {q - {src} for q in self.quorums}
            self._set_quorums(q for q in shrunk if q)

    # -- add ---------------------------------------------------------------------

    def _request_add(self, api, qn):
        if not qn:
            api.respond("AddFail")
            return
        self.pending = ("Add", qn)
        self.add_req = {"qn": qn, "ack": set(), "nack": set(), "q_c": None,
                        "commits": {}}
        api.send_all(sorted_ids(qn), ("Inclusion", qn))

    def _on_inclusion(self, api, src, qn):
        if any(q <= qn for q in self.quorums):
            api.send(src, ("AckInclusion", qn))
        else:
            api.send(src, ("NackInclusion", qn))

    def _on_inclusion_reply(self, api, src, qn, ack):
        req = self.add_req
        if req is None or req["qn"] != qn or req["q_c"] is not None or src not in qn:
            return
        (req["ack"] if ack else req["nack"]).add(src)
        if req["ack"] | req["nack"] == qn:
            if not req["nack"]:
                self._set_quorums(self.quorums | {qn})
                self._finish(api, "AddComplete")
            else:
                q_c = frozenset(req["nack"])
                req["q_c"] = q_c
                api.send_all(sorted_ids(q_c), ("CheckAdd", q_c))

    def _on_check_add(self, api, src, q_c):
        self.tentative.add((src, q_c))
        self.touch()
        api.send_all(sorted_ids(set().union(*self.quorums)), ("AddCheck", src, q_c))

    def _on_add_check(self, api, src, requester, q_c):
        domain = {q for _, q in self.tentative} | self.quorums
        drop = self.tomb if self.combined_checks else set()
        ok = all(blocks(self.quorums, (q_c & q) - drop) for q in domain)
        api.send(src, (("CheckAck" if ok else "CheckNack"), requester, q_c))

    def _on_check_reply(self, api, src, requester, q_c, ack):
        key = (requester, q_c, ack)
        senders = self._votes.setdefault(key, set())
        senders.add(src)
        if key in self._answered:
            return
        if ack and any(q <= senders for q in self.quorums):
            reply = ("Commit", q_c, api.sign(("Commit", q_c)))
        elif not ack and blocks(self.quorums, senders) and self.quorums:
            reply = ("Abort", q_c)
        else:
            return
        self._answered.add(key)
        api.send(requester, reply)

    def _on_commit(self, api, src, q_c, sig):
        req = self.add_req
        if (req is None or req["q_c"] != q_c or src not in q_c
                or not api.verify(sig, src, ("Commit", q_c))):
            return
        req["commits"][src] = sig
        if set(req["commits"]) == q_c:
            self._set_quorums(self.quorums | {req["qn"]})
            sigs = tuple(req["commits"][p] for p in sorted_ids(q_c))
            api.send_all(sorted_ids(q_c), ("Success", api.me, q_c, sigs))
            self._finish(api, "AddComplete")

    def _on_abort(self, api, src, q_c):
        req = self.add_req
        if req is None or req["q_c"] != q_c or src not in q_c:
            return
        sig = api.sign(("Fail", api.me, q_c))
        api.send_all(sorted_ids(q_c), ("Fail", api.me, q_c, sig))
        self._finish(api, "AddFail")

    def _on_success(self, api, src, requester, q_c, sigs):
        key = (requester, q_c)
        if self.succeeded.get(key):
            return
        if self.failed.get(key):
            return  # a Fail for this request was already processed here
        by_signer = {sig.signer: sig for sig in sigs}
        if not all(p in by_signer and api.verify(by_signer[p], p, ("Commit", q_c))
                   for p in q_c):
            return
        self.succeeded[key] = True
        api.send_all(sorted_ids(q_c), ("Success", requester, q_c, sigs))
        self._set_quorums(self.quorums | {q_c})
        self.tentative.discard(key)

    def _on_fail(self, api, src, requester, q_c, sig):
        key = (requester, q_c)
        if self.succeeded.get(key):
            return
        if not api.verify(sig, requester, ("Fail", requester, q_c)):
            return
        if src == requester and key not in self._echoed_fail:
            self._echoed_fail.add(key)
            api.send_all(sorted_ids(q_c), ("Fail", requester, q_c, sig))
        self.failed.setdefault(key, set()).add(src)
        if q_c <= self.failed[key] and key not in self.fail_completed:
            self.fail_completed.add(key)
            self.tentative.discard(key)
            self.touch()

    # -- join -----------------------------------------------------------------

    def _request_join(self, api, seed, timeout):
        self.pending = ("Join",)
        self._join = {"S": {frozenset(seed)}, "qmap": {}, "probed": set()}
        self._join_probe(api)
        api.timer("join_timeout", timeout)

    def _join_probe(self, api):
        probed = self._join["probed"]
        fresh = dict.fromkeys(p for q in sorted_quorums(self._join["S"]) for p in sorted_ids(q)
                              if p not in probed)
        probed.update(fresh)
        api.send_all(fresh, ("Prob",))

    def _on_quorums(self, api, src, declared):
        join = self._join
        if join is None:
            return
        declared = [frozenset(q) for q in declared]
        join["qmap"][src] = declared
        grown = set()
        for q in join["S"]:
            if src in q and declared and not any(q2 <= q for q2 in declared):
                # grow the tentative quorum until it covers one of src's
                grown.update(q | q2 for q2 in declared)
            else:
                grown.add(q)
        join["S"] = grown
        self._join_probe(api)
        if all(p in join["qmap"] and any(q2 <= q for q2 in join["qmap"][p])
               for q in join["S"] for p in q):
            self._set_quorums(join["S"])
            self._join = None
            self._finish(api, "JoinComplete")

    def on_timer(self, api, tag):
        if tag == "join_timeout" and self._join is not None:
            self._join = None
            self._finish(api, "JoinTimeout")

    # -- dispatch ---------------------------------------------------------------

    def on_message(self, api, src, payload):
        tag = payload[0]
        if tag == "Left":
            self._on_left(api, src)
        elif tag == "Inclusion":
            self._on_inclusion(api, src, frozenset(payload[1]))
        elif tag == "AckInclusion":
            self._on_inclusion_reply(api, src, frozenset(payload[1]), True)
        elif tag == "NackInclusion":
            self._on_inclusion_reply(api, src, frozenset(payload[1]), False)
        elif tag == "CheckAdd":
            self._on_check_add(api, src, frozenset(payload[1]))
        elif tag == "AddCheck":
            self._on_add_check(api, src, payload[1], frozenset(payload[2]))
        elif tag == "CheckAck":
            self._on_check_reply(api, src, payload[1], frozenset(payload[2]), True)
        elif tag == "CheckNack":
            self._on_check_reply(api, src, payload[1], frozenset(payload[2]), False)
        elif tag == "Commit":
            self._on_commit(api, src, frozenset(payload[1]), payload[2])
        elif tag == "Abort":
            self._on_abort(api, src, frozenset(payload[1]))
        elif tag == "Success":
            self._on_success(api, src, payload[1], frozenset(payload[2]), payload[3])
        elif tag == "Fail":
            self._on_fail(api, src, payload[1], frozenset(payload[2]), payload[3])
        elif tag == "Prob":
            self.followers.add(src)
            self.touch()
            api.send(src, ("Quorums", self.sorted_q))
        elif tag == "Quorums":
            self._on_quorums(api, src, payload[1])
