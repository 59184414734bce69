"""Two-phase sink discovery.

Phase 1 exchanges quorum declarations: a node that sees one of its quorums
declared verbatim by every member knows that quorum is minimal and that it
sits in the sink component.  Phase 2 extends the discovery: an Extend(q)
message is accepted only when every process in the intersection of q with
one of the receiver's own quorums has sent it, and q passes the pluggable
validq predicate.
"""

from __future__ import annotations

from .core import antichain, sorted_ids
from .sim import Node


def oracle_validq(minimal):
    """Accept exactly the true minimal quorums; used for accuracy testing."""
    minimal = frozenset(frozenset(q) for q in minimal)

    def check(q):
        return q in minimal

    return check


def threshold_validq(k):
    """Deployment-style size threshold; no oracle knowledge."""

    def check(q):
        return len(q) >= k

    return check


class DiscoveryNode(Node):
    def __init__(self, pid, quorums, validq=None):
        super().__init__(pid)
        self.quorums = tuple(antichain(quorums))
        self.neighbors = sorted_ids(frozenset().union(*self.quorums))
        self.validq = validq if validq is not None else (lambda q: bool(q))
        self.qmap = {}
        self.in_sink = False
        self.in_sink_phase = None  # 1 or 2 once set
        self.followers = set()
        self.sent_extend = False
        self._extend_senders = {}

    def on_request(self, api, request):
        if request[0] == "Discover":
            api.send_all(self.neighbors, ("Exchange", self.quorums))

    def on_message(self, api, src, payload):
        tag = payload[0]
        if tag == "Exchange":
            self.followers.add(src)
            self.qmap[src] = [frozenset(q) for q in payload[1]]
            self.touch()
            self._check_phase1(api)
        elif tag == "Extend":
            q = frozenset(payload[1])
            self._extend_senders.setdefault(q, set()).add(src)
            self._check_phase2(q)

    def _check_phase1(self, api):
        for q in self.quorums:  # canonical order fixes which quorum extends
            if all(p in self.qmap and q in self.qmap[p] for p in q):
                if not self.in_sink:
                    self.in_sink = True
                    self.in_sink_phase = 1
                    self.touch()
                if not self.sent_extend:
                    self.sent_extend = True
                    api.send_all(self.neighbors, ("Extend", q))
                return

    def _check_phase2(self, q):
        if self.in_sink or not self.validq(q):
            return
        senders = self._extend_senders[q]
        for own in self.quorums:
            needed = q & own
            if needed and needed <= senders:
                self.in_sink = True
                self.in_sink_phase = 2
                self.touch()
                return

    def state_summary(self) -> dict:
        return {
            "in_sink": self.in_sink,
            "F": sorted_ids(self.followers),
        }

