"""Quorum graph: edges p -> p' when p' sits in one of p's quorums.

Supports strongly-connected-component condensation, sink extraction and the
minimal-quorum-by-agreement oracle used by the discovery protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Attack, ProcessId, QuorumSystem, id_key, sorted_ids
from .errors import PreconditionNotVerified, UnknownProcess
from .props import check_consistency, check_quorum_sharing


@dataclass(frozen=True)
class QuorumGraph:
    vertices: frozenset
    edges: frozenset  # of (p, p') pairs


@dataclass(frozen=True)
class Condensation:
    components: tuple        # of frozensets, deterministic order
    dag_edges: frozenset     # of (component index, component index)


def build_graph(qs: QuorumSystem) -> QuorumGraph:
    edges = set()
    for p, q in qs.declared():
        for p2 in q:
            edges.add((p, p2))
    return QuorumGraph(frozenset(qs.universe), frozenset(edges))


def condense(g: QuorumGraph) -> Condensation:
    """Tarjan SCC (iterative), components emitted in a stable order."""
    succ = {v: [] for v in sorted(g.vertices, key=id_key)}
    for (a, b) in sorted(g.edges, key=lambda e: (id_key(e[0]), id_key(e[1]))):
        succ[a].append(b)

    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(root):
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    for v in sorted(g.vertices, key=id_key):
        if v not in index:
            strongconnect(v)

    components = tuple(sorted(sccs, key=lambda c: [id_key(p) for p in sorted_ids(c)]))
    comp_of = {}
    for i, comp in enumerate(components):
        for p in comp:
            comp_of[p] = i
    dag_edges = set()
    for (a, b) in g.edges:
        ia, ib = comp_of[a], comp_of[b]
        if ia != ib:
            dag_edges.add((ia, ib))
    return Condensation(components, frozenset(dag_edges))


def sink_components(c: Condensation) -> list:
    """Components with no outgoing condensation edge."""
    out = {i for (i, _) in c.dag_edges}
    return [comp for i, comp in enumerate(c.components) if i not in out]


def sink_members(qs: QuorumSystem) -> frozenset:
    sinks = sink_components(condense(build_graph(qs)))
    members = set()
    for comp in sinks:
        members |= comp
    return frozenset(members)


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
    sink = sink_members(qs)
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
