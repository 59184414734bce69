"""Quorum-based reliable broadcast (modified Bracha) over an HQS.

The sender fans the value out to every active process.  Nodes echo the
first value they see to their followers, turn a fully-echoed own quorum
into a Ready, amplify Ready on a blocking set, and deliver once one of
their quorums is fully Ready.  Per instance (keyed by the sender id) a
node echoes, readies and delivers at most one value.
"""

from __future__ import annotations

from .core import antichain, sorted_ids
from .errors import DuplicateInstance
from .sim import Node


class BrbNode(Node):
    def __init__(self, pid, quorums, followers=(), active=()):
        super().__init__(pid)
        self.quorums = tuple(antichain(quorums))
        self.followers = set(followers)
        self.active = set(active)
        self.sent_instances = set()
        self.echoed = {}     # instance -> value
        self.readied = {}    # instance -> value
        self.delivered = {}  # instance -> value
        self.echo_votes = {}   # (instance, value) -> set of voters
        self.ready_votes = {}  # (instance, value) -> set of voters

    def on_request(self, api, request):
        if request[0] == "Broadcast":
            value = request[1]
            if api.me in self.sent_instances:
                raise DuplicateInstance(f"{api.me!r} already broadcast")
            self.sent_instances.add(api.me)
            send = ("Send", api.me, value)   # one payload object for every copy
            for p in sorted_ids(self.active):
                api.send(p, send)

    def on_message(self, api, src, payload):
        tag, instance, value = payload[0], payload[1], payload[2]
        if tag == "Send":
            if src != instance:
                return  # only the instance owner may originate it
            self._echo(api, instance, value)
        elif tag == "Echo":
            self.echo_votes.setdefault((instance, value), set()).add(src)
            self._maybe_ready(api, instance, value)
        elif tag == "Ready":
            self.ready_votes.setdefault((instance, value), set()).add(src)
            self._maybe_ready(api, instance, value)
            self._maybe_deliver(api, instance, value)

    def _echo(self, api, instance, value):
        if instance in self.echoed:
            return
        self.echoed[instance] = value
        self.touch()
        echo = ("Echo", instance, value)
        for p in sorted_ids(self.followers):
            api.send(p, echo)

    def _maybe_ready(self, api, instance, value):
        if instance in self.readied:
            return
        echoes = self.echo_votes.get((instance, value), set())
        readies = self.ready_votes.get((instance, value), set())
        full_quorum = any(q <= echoes for q in self.quorums)
        blocking = self.quorums and all(q & readies for q in self.quorums)
        if full_quorum or blocking:
            self.readied[instance] = value
            self.touch()
            ready = ("Ready", instance, value)
            for p in sorted_ids(self.followers):
                api.send(p, ready)
            self._maybe_deliver(api, instance, value)

    def _maybe_deliver(self, api, instance, value):
        if instance in self.delivered:
            return
        readies = self.ready_votes.get((instance, value), set())
        if any(q <= readies for q in self.quorums):
            self.delivered[instance] = value
            self.touch()

    def state_summary(self) -> dict:
        return {
            "echoed": {str(k): v for k, v in sorted(self.echoed.items(), key=lambda kv: str(kv[0]))},
            "readied": {str(k): v for k, v in sorted(self.readied.items(), key=lambda kv: str(kv[0]))},
            "delivered": {str(k): v for k, v in sorted(self.delivered.items(), key=lambda kv: str(kv[0]))},
        }
