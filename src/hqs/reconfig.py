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

from .core import antichain, blocks, ordered, quorum_key, sorted_ids, sorted_quorums
from .sim import Node

AC = "ac"
PC = "pc"


def _pairs_block(domain, basis, drop) -> bool:
    """Every pairwise intersection of ``domain`` quorums (a quorum paired with
    itself included), minus ``drop``, intersects every quorum in ``basis``."""
    return all(blocks(basis, (q1 & q2) - drop) for q1, q2 in
               combinations_with_replacement(domain, 2))


# A world meets few distinct Checks (at most 23 in a 40-process benchmark
# world: a payload per requester, times the tombs it meets).  256 entries
# hold ten such worlds, so the worlds of a sweep over one system share hits,
# while the cache stays bounded however long the sweep runs.
@lru_cache(maxsize=256)
def _check_passes(declared: tuple, extra: frozenset, drop: frozenset) -> bool:
    """The tob-ordered Check of ``declared`` quorums, with ``extra``
    (tentative) quorums in the domain, minus ``drop``.  Pure, so every node
    and world of the process may share its cache: each node delivers the
    same Check with the same tomb and gets the same answer."""
    return _pairs_block(set(declared) | extra, declared, drop)


def _with_summary(quorums) -> tuple:
    """``quorums`` as a frozenset antichain, with ``state_summary``'s Q for
    it: sorted_quorums order, from one sort per quorum."""
    kept = frozenset(antichain(quorums))
    return kept, ordered([sorted_ids(q) for q in kept], mixed=quorum_key)


class ReconfigNode(Node):
    def __init__(self, pid, quorums, followers=(), in_sink=None, mode=AC,
                 combined_checks=True):
        super().__init__(pid)
        # no touch(): run()'s first snapshot serialises a new node anyway
        self.quorums, self._summary_q = _with_summary(quorums)
        self.followers = set(followers)
        self.in_sink = in_sink            # None means unknown: always coordinate
        self.mode = mode
        self.combined_checks = combined_checks
        self.tomb = set()
        self.tentative = set()            # (requester, q_c) pairs
        self.failed = {}                  # (requester, q_c) -> set of Fail senders
        self.succeeded = {}               # (requester, q_c) -> bool
        self.fail_completed = set()
        self._echoed_fail = set()
        self.pending = None
        self.add_req = None
        self._acks = {}                   # (requester, q_c) -> CheckAck senders
        self._nacks = {}                  # (requester, q_c) -> CheckNack senders
        self._committed = set()
        self._aborted = set()
        # join state
        self._join = None

    # -- helpers -------------------------------------------------------------

    def _tentative_quorums(self):
        return [q for (_, q) in self.tentative]

    def _set_quorums(self, quorums):
        """The only writer of ``quorums`` after construction; sorts Q once."""
        self.quorums, self._summary_q = _with_summary(quorums)
        self.touch()

    def _finish(self, api, response):
        self.pending = None
        self.add_req = None
        api.respond(response)

    def _notify_left(self, api):
        for p in sorted_ids(self.followers):
            api.send(p, ("Left",))

    def _leave_done(self, api):
        self._finish(api, "LeaveComplete")
        self._notify_left(api)
        api.depart()
        self.frozen = True
        self.touch()

    def _remove_done(self, api, quorum):
        self._set_quorums(self.quorums - {quorum})
        self._finish(api, "RemoveComplete")
        api.depart()
        if self.mode != PC:
            # followers purge the remover just like a leaver: it may have
            # lost its own availability and must not be counted on
            self._notify_left(api)

    def state_summary(self) -> dict:
        return {
            "Q": self._summary_q,
            "tomb": sorted_ids(self.tomb),
            "tentative": ordered([[str(r), sorted_ids(q)] for (r, q) in self.tentative],
                                 mixed=lambda t: (t[0], quorum_key(t[1]))),
            "frozen": self.frozen,
        }

    # -- client requests -------------------------------------------------------

    def on_request(self, api, request):
        if self.pending is not None:
            api.respond("Busy")
            return
        kind = request[0]
        if kind == "Leave":
            self._request_leave(api)
        elif kind == "Remove":
            self._request_remove(api, frozenset(request[1]))
        elif kind == "Add":
            self._request_add(api, frozenset(request[1]))
        elif kind == "Join":
            timeout = request[2] if len(request) > 2 else 200
            self._request_join(api, request[1], timeout)
        else:
            api.respond("UnknownRequest")

    # -- leave / remove --------------------------------------------------------

    def _request_leave(self, api):
        self.pending = ("Leave",)
        if self.mode == PC or self.in_sink is False:
            # followers drop whole quorums (pc), or the leaver sits outside
            # the sink, where departing cannot endanger quorum intersection
            self._leave_done(api)
        elif _pairs_block(self.quorums, self.quorums, {api.me}):
            api.tob(("LeaveCheck", tuple(sorted_quorums(self.quorums))))
        else:
            self._finish(api, "LeaveFail")

    def _request_remove(self, api, quorum):
        if quorum not in self.quorums:
            api.respond("RemoveFail")
            return
        self.pending = ("Remove", quorum)
        if self.mode == PC or self.in_sink is False:
            self._remove_done(api, quorum)
        elif _pairs_block(self.quorums, self.quorums, {api.me}):
            # the remover may drop out of the outlived set, so the check covers
            # its full current quorum set, exactly as for a departure
            api.tob(("RemoveCheck", quorum,
                     tuple(sorted_quorums(self.quorums))))
        else:
            self._finish(api, "RemoveFail")

    def on_tob(self, api, src, payload):
        """The tob-ordered Check: every pair's intersection, minus the
        requester and the tomb, must still block the requester."""
        tag = payload[0]
        if tag not in ("LeaveCheck", "RemoveCheck"):
            return
        extra = frozenset(self._tentative_quorums()) if self.combined_checks else frozenset()
        if not _check_passes(tuple(map(frozenset, payload[-1])), extra,
                             frozenset(self.tomb | {src})):
            if src == api.me:
                self._finish(api, "LeaveFail" if tag == "LeaveCheck" else "RemoveFail")
            return
        self.tomb.add(src)
        self.touch()
        if src == api.me:
            if tag == "LeaveCheck":
                self._leave_done(api)
            else:
                self._remove_done(api, frozenset(payload[1]))

    def _on_left(self, api, src):
        if self.mode == PC:
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
        for p in sorted_ids(qn):
            api.send(p, ("Inclusion", qn))

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
                for p in sorted_ids(q_c):
                    api.send(p, ("CheckAdd", q_c))

    def _on_check_add(self, api, src, q_c):
        self.tentative.add((src, q_c))
        self.touch()
        for po in sorted_ids(set().union(*self.quorums) if self.quorums else set()):
            api.send(po, ("AddCheck", src, q_c))

    def _on_add_check(self, api, src, requester, q_c):
        domain = set(self._tentative_quorums()) | self.quorums
        drop = self.tomb if self.combined_checks else set()
        ok = all(blocks(self.quorums, (q_c & q) - drop) for q in domain)
        api.send(src, (("CheckAck" if ok else "CheckNack"), requester, q_c))

    def _on_check_reply(self, api, src, requester, q_c, ack):
        key = (requester, q_c)
        if ack:
            senders = self._acks.setdefault(key, set())
            senders.add(src)
            if key not in self._committed and any(q <= senders for q in self.quorums):
                self._committed.add(key)
                sig = api.sign(("Commit", q_c))
                api.send(requester, ("Commit", q_c, sig))
        else:
            senders = self._nacks.setdefault(key, set())
            senders.add(src)
            if (key not in self._aborted and senders
                    and blocks(self.quorums, senders) and self.quorums):
                self._aborted.add(key)
                api.send(requester, ("Abort", q_c))

    def _on_commit(self, api, src, q_c, sig):
        req = self.add_req
        if (req is None or req["q_c"] != q_c or src not in q_c
                or not api.verify(sig, src, ("Commit", q_c))):
            return
        req["commits"][src] = sig
        if set(req["commits"]) == q_c:
            self._set_quorums(self.quorums | {req["qn"]})
            sigs = tuple(req["commits"][p] for p in sorted_ids(q_c))
            for p in sorted_ids(q_c):
                api.send(p, ("Success", api.me, q_c, sigs))
            self._finish(api, "AddComplete")

    def _on_abort(self, api, src, q_c):
        req = self.add_req
        if req is None or req["q_c"] != q_c or src not in q_c:
            return
        sig = api.sign(("Fail", api.me, q_c))
        for p in sorted_ids(q_c):
            api.send(p, ("Fail", api.me, q_c, sig))
        self._finish(api, "AddFail")

    def _on_success(self, api, src, requester, q_c, sigs):
        key = (requester, q_c)
        if self.succeeded.get(key):
            return
        if self.failed.get(key) or key in self.fail_completed:
            return  # a Fail for this request was already processed here
        by_signer = {sig.signer: sig for sig in sigs}
        if not all(p in by_signer and api.verify(by_signer[p], p, ("Commit", q_c))
                   for p in q_c):
            return
        self.succeeded[key] = True
        for p in sorted_ids(q_c):
            api.send(p, ("Success", requester, q_c, sigs))
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
            for p in sorted_ids(q_c):
                api.send(p, ("Fail", requester, q_c, sig))
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
        join = self._join
        for q in sorted_quorums(join["S"]):
            for p in sorted_ids(q):
                if p not in join["probed"]:
                    join["probed"].add(p)
                    api.send(p, ("Prob",))

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
            api.send(src, ("Quorums", tuple(sorted_quorums(self.quorums))))
        elif tag == "Quorums":
            self._on_quorums(api, src, payload[1])
