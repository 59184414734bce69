"""Quorum graph: edges p -> p' when p' sits in one of p's quorums.

Supports strongly-connected-component condensation, sink extraction and the
minimal-quorum-by-agreement oracle used by the discovery protocol.
"""

from __future__ import annotations

from functools import cached_property
from itertools import starmap

from .core import Attack, ProcessId, QuorumSystem, id_key, ordered, sorted_ids
from .errors import PreconditionNotVerified, UnknownProcess
from .props import check_consistency, check_quorum_sharing


class QuorumGraph:
    """The quorum graph as each vertex's successor set: ``succ[p]`` holds
    every p' with an edge p -> p', and every vertex has an entry.
    ``vertices`` are ``succ``'s keys; ``edges``, the (p, p') pairs, are
    derived from the sets when first read."""

    def __init__(self, succ: dict):
        self.succ, self.vertices = succ, frozenset(succ)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset((a, b) for a, bs in self.succ.items() for b in bs)


class Condensation:
    """A quorum graph's components, in a deterministic order, with its
    ``succ``; ``dag_edges`` (component index pairs) is derived when first read."""

    def __init__(self, components: tuple, succ: dict):
        self.components, self.succ = components, succ

    @cached_property
    def dag_edges(self) -> frozenset:
        comp_of = {p: i for i, comp in enumerate(self.components) for p in comp}
        return frozenset((comp_of[a], comp_of[b]) for a, bs in self.succ.items()
                         for b in bs if comp_of[a] != comp_of[b])


def build_graph(qs: QuorumSystem) -> QuorumGraph:
    succ = dict.fromkeys(qs.universe, frozenset())
    succ.update(zip(qs._quorums, starmap(frozenset().union, qs._quorums.values())))
    return QuorumGraph(succ)


def condense(g: QuorumGraph) -> Condensation:
    """Tarjan SCC (iterative), components in a stable order.

    A vertex no other vertex points to is a component on its own, and no
    edge leads from any other vertex into it; those are set apart first (the
    trim step), and Tarjan walks only the rest, which no edge leaves.  The
    search walks the vertex and successor sets in their own iteration order,
    which changes the order components are found in but not the components.
    They are then ordered by least member under ``id_key``; components are
    disjoint, so that is the order of their sorted member lists.
    """
    succ = g.succ
    pointed = set().union(*[bs - {a} for a, bs in succ.items()])
    sccs = [frozenset((v,)) for v in g.vertices - pointed]

    index = {}
    low = {}
    on_stack = set()
    stack = []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(succ[v]), len(stack) - 1

    for root in pointed:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            v, todo, at = work[-1]
            for w in todo:
                if w not in index:
                    work.append(visit(w))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = frozenset(stack[at:])
                    del stack[at:]
                    on_stack -= comp
                    sccs.append(comp)

    return Condensation(tuple(ordered(sccs, min, lambda c: min(map(id_key, c)))), succ)


def sink_components(c: Condensation) -> list:
    """Components no edge leaves: every member's successors lie inside."""
    succ = c.succ
    sinks = []
    for comp in c.components:
        for v in comp:
            if not succ[v] <= comp:
                break
        else:
            sinks.append(comp)
    return sinks


def sink_members(qs: QuorumSystem) -> frozenset:
    return frozenset().union(*sink_components(condense(build_graph(qs))))


def in_sink(qs: QuorumSystem, attack: Attack, p: ProcessId) -> bool:
    if p not in qs.universe:
        raise UnknownProcess(f"{p!r} is not in the universe")
    return p in sink_members(qs)


def well_behaved_sink(qs: QuorumSystem, attack: Attack) -> frozenset:
    """Sink membership restricted to well-behaved processes.

    The sink component itself may contain Byzantine vertices; both views are
    exposed so callers can pick the one their optimization needs.
    """
    return sink_members(qs) & attack.well_behaved


def is_min_quorum_by_agreement(qs: QuorumSystem, attack: Attack, q) -> bool:
    """True iff every well-behaved member of ``q`` declares ``q`` verbatim.

    Only meaningful under consistency + quorum sharing, so those are checked
    first; a quorum with no well-behaved member is vacuously accepted and the
    caller must guard against that.
    """
    q = frozenset(q)
    if not check_consistency(qs, attack, attack.well_behaved).holds:
        raise PreconditionNotVerified("consistency does not hold at the well-behaved set")
    if not check_quorum_sharing(qs).holds:
        raise PreconditionNotVerified("quorum sharing does not hold")
    for p in q & attack.well_behaved:
        if not qs.declares(p) or q not in qs.quorums_of(p):
            return False
    return True


def to_dot(qs: QuorumSystem, attack: Attack) -> str:
    """Graphviz rendering: Byzantine vertices dashed, sink members filled."""
    g = build_graph(qs)
    sink = frozenset().union(*sink_components(condense(g)))
    lines = ["digraph quorums {"]
    for v in sorted_ids(g.vertices):
        attrs = []
        if v in attack.byzantine:
            attrs.append("style=dashed")
        if v in sink:
            attrs.append('style=filled fillcolor="palegreen"')
        if v in attack.byzantine and v in sink:
            attrs = ['style="filled,dashed" fillcolor="palegreen"']
        attr = " [" + ", ".join(attrs) + "]" if attrs else ""
        lines.append(f'  "{v}"{attr};')
    for (a, b) in sorted(g.edges, key=lambda e: (id_key(e[0]), id_key(e[1]))):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
