"""Quorum-based reliable broadcast (modified Bracha) over an HQS.

The sender fans the value out to every active process.  Nodes echo the
first value they see to their followers, turn a fully-echoed own quorum
into a Ready, amplify Ready on a blocking set, and deliver once one of
their quorums is fully Ready.  Per instance (keyed by the sender id) a
node echoes, readies and delivers at most one value.
"""

from __future__ import annotations

from collections import defaultdict

from .core import antichain, sorted_ids
from .errors import DuplicateInstance
from .sim import Node, canon_json

class Adopted(tuple):
    """Quorums, followers or active ids that a ``BrbNode`` keeps as it is: an
    antichain in ``antichain`` order, or ids in ``sorted_ids`` order, in which
    the node sends.  A node given any other iterable sorts it into that form."""


class BrbNode(Node):
    def __init__(self, pid, quorums, followers=(), active=()):
        super().__init__(pid)
        self.quorums = quorums if type(quorums) is Adopted else tuple(antichain(quorums))
        self.followers = followers if type(followers) is Adopted else tuple(sorted_ids(followers))
        self.active = active if type(active) is Adopted else tuple(sorted_ids(active))
        self.sent_instances = set()
        self.echoed = {}     # instance -> value
        self.readied = {}    # instance -> value
        self.delivered = {}  # instance -> value
        # (instance, value) -> set of voters; a vote makes its set only on a miss
        self.echo_votes, self.ready_votes = defaultdict(set), defaultdict(set)
        self._spelt = [{}, {}, {}], ["{}"] * 3   # copies of delivered, echoed, readied; JSON

    def on_request(self, api, request):
        if request[0] == "Broadcast":
            value = request[1]
            if api.me in self.sent_instances:
                raise DuplicateInstance(f"{api.me!r} already broadcast")
            self.sent_instances.add(api.me)
            api.send_all(self.active, ("Send", api.me, value))

    def on_message(self, api, src, payload):
        tag, instance, value = payload[0], payload[1], payload[2]
        if tag == "Send":
            if src != instance:
                return  # only the instance owner may originate it
            self._echo(api, instance, value)
        elif tag == "Echo":   # a vote checks only its own set, checked as it grows
            echoes = self.echo_votes[instance, value]
            echoes.add(src)
            if instance not in self.readied and any(map(echoes.issuperset, self.quorums)):
                self._ready(api, instance, value)
        elif tag == "Ready":
            readies = self.ready_votes[instance, value]
            readies.add(src)
            if (instance not in self.readied and self.quorums
                    and not any(map(readies.isdisjoint, self.quorums))):
                self._ready(api, instance, value)
            if instance not in self.delivered and any(map(readies.issuperset, self.quorums)):
                self.delivered[instance] = value
                self.touch()

    def _echo(self, api, instance, value):
        if instance in self.echoed:
            return
        self.echoed[instance] = value
        self.touch()
        api.send_all(self.followers, ("Echo", instance, value))

    def _ready(self, api, instance, value):
        """Ready on a quorum of echoes or a blocking set of readies.  Neither
        condition needs the other kind of vote, and this node's readies were
        checked for delivery as they arrived, so nothing more is checked."""
        self.readied[instance] = value
        self.touch()
        api.send_all(self.followers, ("Ready", instance, value))

    def state_summary(self) -> dict:
        return {
            "echoed": {str(k): v for k, v in self.echoed.items()},
            "readied": {str(k): v for k, v in self.readied.items()},
            "delivered": {str(k): v for k, v in self.delivered.items()},
        }

    def state_json(self) -> str:
        """``canon_json(self.state_summary())``, a map spelt when it leaves its copy."""
        copies, spelt = self._spelt
        if self.delivered != copies[0]:
            self._spell_map(0, self.delivered)
        if self.echoed != copies[1]:
            self._spell_map(1, self.echoed)
        if self.readied != copies[2]:
            self._spell_map(2, self.readied)
        return '{"delivered":%s,"echoed":%s,"readied":%s}' % tuple(spelt)

    def _spell_map(self, i, now):
        copies, spelt = self._spelt
        copies[i], spelt[i] = dict(now), canon_json({str(k): v for k, v in now.items()})
