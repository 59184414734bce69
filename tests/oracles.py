"""Independent brute-force oracles used to freeze expected values.

Everything here is written against the definitions directly, by exhaustive
enumeration, and deliberately shares no code with the package: minimality is
a pairwise subset scan, strong connectivity is mutual reachability, and the
checkers are literal quantifier loops.  ``OracleBrbNode`` is the one
exception: it is a BrbNode whose vote handling is spelt out here.
"""

import json
from itertools import chain, combinations

from hqs.broadcast import BrbNode   # the node the vote-check oracle re-checks
from hqs.sim import Envelope, Signature   # a queued message's view; the canonical form's type


def powerset(items):
    items = sorted(items, key=lambda x: (isinstance(x, str), x))
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def declared_pairs(qs, only=None):
    out = []
    for p in qs.active:
        if only is not None and p not in only:
            continue
        if qs.declares(p):
            for q in qs.quorums_of(p):
                out.append((p, q))
    return out


def oracle_minimal_quorums(qs, attack):
    declared = [q for (_, q) in declared_pairs(qs, only=attack.well_behaved)]
    result = set()
    for q in declared:
        if not any(other != q and other < q for other in declared):
            result.add(q)
    return result


def oracle_antichain(quorums):
    """The distinct quorums with no strict subset among them, by size, then
    by member list in id order (ints before strs)."""
    uniq = {frozenset(q) for q in quorums}
    kept = [q for q in uniq if not any(other < q for other in uniq)]
    return tuple(sorted(kept, key=lambda q: (len(q), [(isinstance(p, str), p)
                                                      for p in _id_order(q)])))


def oracle_is_blocking(quorums, candidate):
    for q in quorums:
        if not set(q) & set(candidate):
            return False
    return True


def oracle_check_passes(declared, extra, drop):
    """The tob-ordered Check, literally: for every two quorums of the domain
    (declared and extra, a quorum with itself too), their intersection minus
    ``drop`` meets every declared quorum."""
    domain = list(declared) + list(extra)
    for q1 in domain:
        for q2 in domain:
            rest = {p for p in q1 if p in q2 and p not in drop}
            for b in declared:
                if not any(p in rest for p in b):
                    return False
    return True


def oracle_consistency(qs, attack, at_set):
    pairs = declared_pairs(qs, only=attack.well_behaved)
    for (_, q1) in pairs:
        for (_, q2) in pairs:
            if not (set(q1) & set(q2) & set(at_set)):
                return False
    return True


def oracle_consistency_witness(wb_quorums, at_set):
    """The first failing pair of the all-pairs loop over declarations in
    process order (a lone declaration pairs with itself), else None."""
    order = sorted(wb_quorums, key=lambda p: (isinstance(p, str), p))
    decls = [q for p in order for q in wb_quorums[p]]
    for q1, q2 in combinations(decls, 2):
        if not (q1 & q2 & at_set):
            return q1, q2
    for q in decls:
        if not (q & at_set):
            return q, q
    return None


def oracle_availability(qs, for_set, at_set):
    for p in for_set:
        if not qs.declares(p):
            return False
        if not any(set(q) <= set(at_set) for q in qs.quorums_of(p)):
            return False
    return True


def oracle_inclusion(qs, attack, p_set):
    wb = attack.well_behaved
    for (_, q) in declared_pairs(qs, only=wb):
        for member in set(q) & set(p_set):
            if not qs.declares(member):
                return False
            if not any(set(q2) & wb <= set(q) for q2 in qs.quorums_of(member)):
                return False
    return True


def oracle_sharing(qs):
    for (_, q) in declared_pairs(qs):
        for member in q:
            if not qs.declares(member):
                return False
            if not any(set(q2) <= set(q) for q2 in qs.quorums_of(member)):
                return False
    return True


def oracle_outlived_sets(qs, attack):
    """All outlived subsets of the active well-behaved processes."""
    wb_active = qs.active & attack.well_behaved
    out = []
    for combo in powerset(wb_active):
        o = frozenset(combo)
        if (oracle_consistency(qs, attack, o)
                and oracle_availability(qs, o, o)
                and oracle_inclusion(qs, attack, o)):
            out.append(o)
    return out


def oracle_maximal_outlived_sets(qs, attack):
    sets = oracle_outlived_sets(qs, attack)
    return [o for o in sets if not any(o < other for other in sets)]


def reachable(succ, start):
    """Every vertex reachable from ``start`` over ``succ`` (vertex -> list)."""
    seen = {start}
    frontier = [start]
    while frontier:
        for b in succ.get(frontier.pop(), ()):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def oracle_components(vertices, edges):
    """SCCs by mutual reachability; independent of any stack-based algorithm."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    reach = {v: reachable(succ, v) for v in vertices}
    comps = []
    assigned = set()
    for v in sorted(vertices, key=lambda x: (isinstance(x, str), x)):
        if v in assigned:
            continue
        comp = {w for w in vertices if v in reach[w] and w in reach[v]}
        comps.append(frozenset(comp))
        assigned |= comp
    return comps


def oracle_sinks(vertices, edges):
    comps = oracle_components(vertices, edges)
    sinks = []
    for comp in comps:
        outgoing = any(a in comp and b not in comp for (a, b) in edges)
        if not outgoing:
            sinks.append(comp)
    return sinks


def oracle_join_fixpoint(seed_set, declarations, max_rounds=50):
    """Replay the join growth rule as a plain fixpoint iteration."""
    s = {frozenset(seed_set)}
    for _ in range(max_rounds):
        changed = False
        for q in sorted(s, key=sorted):
            for p in sorted(q):
                declared = declarations.get(p)
                if declared is None:
                    return None  # would probe a silent process forever
                if any(frozenset(d) <= q for d in declared):
                    continue
                s.discard(q)
                s |= {q | frozenset(d) for d in declared}
                changed = True
                break
            if changed:
                break
        if not changed:
            return s
    raise AssertionError("join fixpoint did not converge")


def _oracle_canon(obj):
    """The canonical form as a recursive pre-pass: sets sorted by
    (type name, str), every dict key turned into str and sorted by it."""
    if type(obj) in (str, int, bool, float, type(None)):
        return obj
    if isinstance(obj, (frozenset, set)):
        return sorted((_oracle_canon(x) for x in obj), key=lambda v: (str(type(v)), str(v)))
    if isinstance(obj, (tuple, list)):
        return [_oracle_canon(x) for x in obj]
    if isinstance(obj, Signature):
        return {"signer": obj.signer, "digest": obj.digest}
    if isinstance(obj, dict):
        return {str(k): _oracle_canon(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return obj


def oracle_canon_json(obj) -> str:
    """Canonical JSON the way it was first written: the pre-pass above, then
    the stdlib encoder with sorted keys and no spaces."""
    return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode(_oracle_canon(obj))


def oracle_to_jsonl(events) -> str:
    """A trace's JSON lines the way they were first written: each whole
    event through the canonical form on its own."""
    return "\n".join(map(oracle_canon_json, events)) + "\n"


def queued(world) -> list:
    """(step, kind, data) of each entry a world has queued, in the order the
    kernel pops them: by step, and at one step in push order.  A queued
    message, a ``(src, dst, payload)`` tuple, is shown as its Envelope."""
    return [(step, kind, Envelope(*data) if kind == "apl" else data)
            for step in sorted(world._queue) for kind, data in world._queue[step]]


class OracleBrbNode(BrbNode):
    """A BrbNode that, after every Echo or Ready vote, re-checks all three
    vote conditions on the vote's (instance, value): a full quorum of echoes
    or a blocking set of readies readies the node, and a full quorum of
    readies delivers it.  Sends, echoes and the state summary are BrbNode's."""

    def on_message(self, api, src, payload):
        tag, instance, value = payload[0], payload[1], payload[2]
        if tag not in ("Echo", "Ready"):
            return super().on_message(api, src, payload)
        votes = self.echo_votes if tag == "Echo" else self.ready_votes
        votes.setdefault((instance, value), set()).add(src)
        echoes = self.echo_votes.get((instance, value), set())
        readies = self.ready_votes.get((instance, value), set())
        quorums = self.quorums
        if instance not in self.readied and (
                any(q <= echoes for q in quorums)
                or (quorums and all(q & readies for q in quorums))):
            self.readied[instance] = value
            self.touch()
            api.send_all(self.followers, ("Ready", instance, value))
        if instance not in self.delivered and any(q <= readies for q in quorums):
            self.delivered[instance] = value
            self.touch()


def oracle_brb_consistency(world):
    """The reliable-broadcast agreement probe as a scan of every node at
    every call: the first instance, in node order, delivered with two
    values, with every node that delivered it."""
    per_instance = {}
    for pid, node in world.nodes.items():
        for instance, value in getattr(node, "delivered", {}).items():
            per_instance.setdefault(instance, {})[pid] = value
    for instance, votes in per_instance.items():
        if len(set(votes.values())) > 1:
            order = sorted(votes, key=lambda p: (isinstance(p, str), p))
            return _oracle_canon((instance, order))
    return None


def _id_order(ids):
    return sorted(ids, key=lambda p: (isinstance(p, str), p))


def oracle_inclusion_witness(wb_quorums, p_set, wb, left=frozenset(), tentative=None):
    """Inclusion as the plain ordered loop: processes in id order, each one's
    quorums in their own order, members in id order; the first member none
    of whose candidates (its quorums plus its tentative ones) has its
    well-behaved active part inside the quorum."""
    for p in _id_order(wb_quorums):
        for q in wb_quorums[p]:
            for p2 in _id_order((q & p_set) - left):
                candidates = list(wb_quorums.get(p2, ()))
                if tentative:
                    candidates.extend(tq for _, tq in tentative.get(p2, ()))
                if not any((q2 & wb) - left <= q for q2 in candidates):
                    return q, p2
    return None


def oracle_availability_witness(quorums, for_set, at_set):
    """Availability as the plain loop: the first process of ``for_set`` in id
    order with no quorum inside ``at_set``, as a 1-tuple."""
    for p in _id_order(for_set):
        if not any(q <= at_set for q in quorums.get(p, ())):
            return (p,)
    return None


def oracle_sharing_witness(quorums):
    """Sharing as the plain ordered loop, in the order of the one above."""
    for p in _id_order(quorums):
        for q in quorums[p]:
            for p2 in _id_order(q):
                if not any(q2 <= q for q2 in quorums.get(p2, ())):
                    return q, p2
    return None


def oracle_condense(vertices, edges):
    """(components, dag_edges) the way SCC condensation was first written:
    recursive-style Tarjan driven by an explicit work list over vertices
    and edges sorted by id, components ordered by their sorted member
    lists."""
    def key(p):
        return (isinstance(p, str), p)

    succ = {v: [] for v in sorted(vertices, key=key)}
    for (a, b) in sorted(edges, key=lambda e: (key(e[0]), key(e[1]))):
        succ[a].append(b)
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []

    def strongconnect(root):
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = len(index)
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

    for v in sorted(vertices, key=key):
        if v not in index:
            strongconnect(v)
    components = tuple(sorted(sccs, key=lambda c: [key(p) for p in _id_order(c)]))
    comp_of = {p: i for i, comp in enumerate(components) for p in comp}
    dag_edges = frozenset((comp_of[a], comp_of[b]) for (a, b) in edges
                          if comp_of[a] != comp_of[b])
    return components, dag_edges
