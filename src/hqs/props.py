"""Decidable checkers for quorum-system properties.

Each checker returns a :class:`PropertyReport`; a failing report always
carries a witness that violates the definition when re-checked directly.
The ``*_witness`` functions take plain quorum maps (process -> quorums)
and return the first violation or None, so the simulator's probes test the
same predicates on every step without building full system objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import Attack, QuorumSystem, sorted_ids
from .errors import BadSubset

CONSISTENCY = "Consistency"
AVAILABILITY = "Availability"
AVAILABLE_INSIDE = "AvailableInside"
INCLUSION = "Inclusion"
SHARING = "Sharing"
OUTLIVED = "Outlived"
ACTIVE_INCLUSION = "ActiveInclusion"
ACTIVE_AVAILABILITY = "ActiveAvailability"
TENTATIVE_INCLUSION = "TentativeInclusion"


@dataclass(frozen=True)
class PropertyReport:
    property: str
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witness": _jsonify(self.witness),
        }


def _jsonify(obj):
    if obj is None or isinstance(obj, (int, str, bool)):
        return obj
    if isinstance(obj, frozenset):
        return sorted_ids(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonify(x) for x in obj]
    return str(obj)


def report_to_json(report: PropertyReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


_memo = (None, {})   # (the last system checked, its answers keyed by (fn, args))
_UNSEEN = object()   # a witness of None means the property holds


def _per_system(fn):
    """``fn(qs, *args)``, answered from ``_memo`` while ``qs`` is the held
    system.  A QuorumSystem is immutable and held there, so its id cannot be
    reused and ``is`` is a sound key.  One system is kept: a caller that
    checks many systems holds one system's answers.  The pair is replaced
    whole, so a thread never files an answer under another thread's system;
    a call that raises stores nothing."""
    def per_system(qs, *args):
        global _memo
        held, memo = _memo
        if held is not qs:
            memo = {}
            _memo = (qs, memo)
        key = fn, args
        w = memo.get(key, _UNSEEN)
        if w is _UNSEEN:
            w = memo[key] = fn(qs, *args)
        return w
    return per_system


# The memoized helpers below take an attack as its universe and Byzantine
# set: CPython caches a frozenset's hash, while a frozen dataclass hashes
# its fields anew in a Python frame on every lookup.

@_per_system
def _wb_quorums(qs: QuorumSystem, universe: frozenset, byzantine: frozenset) -> tuple:
    """(wb, W, W's quorum map): the well-behaved set, read once, its active
    part and an unordered map: every witness walks ids in order itself."""
    w_set = qs.active & (wb := universe - byzantine)
    return wb, w_set, {p: decl for p, decl in qs._quorums.items() if p in w_set}


# --- raw predicates over plain maps (process -> iterable of frozensets) ---

def consistency_witness(wb_quorums: Mapping, at_p: frozenset):
    """First pair of declarations, in declaration order, whose quorums'
    intersection misses ``at_p`` (a lone declaration pairs with itself);
    else None.

    A member of ``at_p`` that sits in every quorum makes every pair meet
    inside ``at_p``, so one pass over the quorums answers None without the
    pair loop.  Generated sharing systems always take that path: every
    quorum there holds the pivot.  Otherwise only distinct quorums are
    compared.  A quorum that misses ``at_p`` on its own fails with every
    partner, so it can only be reached as the first distinct quorum; its
    witness partner is then the second declaration.
    """
    if at_p.intersection(*[q for quorums in wb_quorums.values() for q in quorums]):
        return None
    decls = [q for p in sorted_ids(wb_quorums) for q in wb_quorums[p]]
    distinct = list(dict.fromkeys(decls))
    for i, q1 in enumerate(distinct):
        inside = q1 & at_p
        if not inside:
            return q1, decls[1] if len(decls) > 1 else q1
        for q2 in distinct[i + 1:]:
            if not (inside & q2):
                return q1, q2
    return None


def availability_witness(quorums: Mapping, for_p, at_p: frozenset, changed=None):
    # given changed (see inclusion_witness), every new failure is among them
    inside = at_p.__ge__
    for p in sorted_ids(for_p if changed is None else for_p & changed):
        if not any(map(inside, quorums.get(p, ()))):
            return (p,)
    return None


def active_availability_witness(quorums: Mapping, inside_p: frozenset, left: frozenset,
                                changed=None):
    # q - left lies inside inside_p exactly when q lies inside inside_p | left
    return availability_witness(quorums, inside_p - left, inside_p | left, changed)


def _first_failure(quorums: Mapping, candidates: Mapping, within=None, keep=None):
    """First (q, p2) such that no set c in ``candidates[p2]`` fits q, walking
    processes in id order, each one's quorums in their own order and the
    members of q in id order; else None.  c fits q when c <= q.  Given
    ``within`` and ``keep`` (inclusion), only the members of ``q & within``
    are walked, and c fits q when its part in ``keep`` lies inside q, tested
    as ``keep.isdisjoint(c - q)``: one set difference, and no cut copy of c.

    Almost every check holds, so each distinct quorum is first walked once,
    in any order and without a sort or a call per member.  Only a failure
    pays for the ordered walk, which then names the witness the ordered walk
    alone would.
    """
    get = candidates.get
    distinct = {q for qs in quorums.values() for q in qs}
    if within is None:
        for q in distinct:
            for p2 in q:
                for c in get(p2, ()):
                    if c <= q:
                        break
                else:
                    break   # p2 has no candidate inside q
            else:
                continue
            break           # a failure: the ordered walk below names the first one
        else:
            return None
    else:
        disjoint = keep.isdisjoint
        for q in distinct:
            for p2 in q & within:
                for c in get(p2, ()):
                    if disjoint(c - q):
                        break
                else:
                    break
            else:
                continue
            break
        else:
            return None
    for p in sorted_ids(quorums):
        for q in quorums[p]:
            fits = q.__ge__ if within is None else (lambda c: keep.isdisjoint(c - q))
            for p2 in sorted_ids(q if within is None else q & within):
                if not any(map(fits, get(p2, ()))):
                    return q, p2


def inclusion_witness(wb_quorums: Mapping, p_set: frozenset, wb: frozenset,
                      left: frozenset = frozenset(), tentative: Mapping = None,
                      changed=None):
    """Witness (q, p2) for a quorum inclusion failure, else None.

    ``left`` weakens the check to the active variant: departed members owe
    no witness, and a witness quorum only needs its well-behaved active part
    inside the enclosing quorum.  ``tentative`` extends the witness
    candidates per process.  :func:`_first_failure` tests each candidate
    against q with ``keep = wb - left``, cutting none, and looks for a
    failure before it orders anything, so the witness is the one the ordered
    loop alone names.  ``changed``: whose quorums alone moved since a check
    held (``left`` may have grown, which only lifts obligations); only pairs
    with their quorums, or with them as p2, are tried first.
    """
    within, keep = p_set - left, wb - left
    candidates = dict(wb_quorums) if tentative else wb_quorums
    for p2, pairs in (tentative or {}).items():
        candidates[p2] = (*candidates.get(p2, ()), *[tq for _, tq in pairs])
    if changed is not None:
        fresh, mine = {p: wb_quorums[p] for p in changed}, within & changed
        if not (_first_failure(fresh, candidates, within, keep)
                or mine and _first_failure(wb_quorums, candidates, mine, keep)):
            return None
    return _first_failure(wb_quorums, candidates, within, keep)


def sharing_witness(quorums: Mapping):
    """Witness (q, p2): a member p2 of q none of whose quorums lies inside
    q, else None; found as in :func:`_first_failure`."""
    return _first_failure(quorums, quorums)


# --- PropertyReport front ends -------------------------------------------

_HOLDS = {name: PropertyReport(name, True) for name in (   # one frozen report per property
    CONSISTENCY, AVAILABILITY, AVAILABLE_INSIDE, INCLUSION, SHARING, OUTLIVED,
    ACTIVE_INCLUSION, ACTIVE_AVAILABILITY, TENTATIVE_INCLUSION)}


def _report(name: str, witness) -> PropertyReport:
    return _HOLDS[name] if witness is None else PropertyReport(name, False, witness)


def _well_behaved(p_set, attack: Attack, what: str) -> frozenset:
    p_set = frozenset(p_set)
    if not (p_set <= attack.universe and p_set.isdisjoint(attack.byzantine)):
        raise BadSubset(f"{what} must be well-behaved; offending ids: "
                        f"{sorted_ids(p_set - attack.well_behaved)}")
    return p_set


@_per_system
def _consistency(qs: QuorumSystem, universe: frozenset, byzantine: frozenset,
                 at_p: frozenset):
    return consistency_witness(_wb_quorums(qs, universe, byzantine)[2], at_p)


@_per_system
def _availability(qs: QuorumSystem, for_p: frozenset, at_p: frozenset):
    if not for_p <= qs._quorums.keys():
        for p in for_p:
            qs.quorums_of(p)   # raises UnknownProcess at the first undeclared p
    return availability_witness(qs._quorums, for_p, at_p)


@_per_system
def _quorum_inclusion(qs: QuorumSystem, universe: frozenset, byzantine: frozenset,
                      p_set: frozenset):
    """Inclusion for ``p_set`` (a subset of wb); sharing implies it.  Under
    sharing every member of an active quorum declares, so it is active; a
    member p2 of ``p_set`` is then in W, its W-map candidates are its
    declarations, and one lies inside q, so ``keep.isdisjoint(c - q)`` holds
    for every ``keep``.  Otherwise the walk names the witness it always did."""
    if _sharing(qs) is None:
        return None
    wb, _, wb_quorums = _wb_quorums(qs, universe, byzantine)
    return inclusion_witness(wb_quorums, p_set, wb)


@_per_system
def _sharing(qs: QuorumSystem):
    active = qs.active
    return sharing_witness({p: quorums for p, quorums in qs._quorums.items() if p in active})


def check_consistency(qs: QuorumSystem, attack: Attack, at_p) -> PropertyReport:
    at_p = _well_behaved(at_p, attack, "consistency set")
    return _report(CONSISTENCY, _consistency(qs, attack.universe, attack.byzantine, at_p))


def check_availability(qs: QuorumSystem, for_p, at_p) -> PropertyReport:
    return _report(AVAILABILITY, _availability(qs, frozenset(for_p), frozenset(at_p)))


def check_available_inside(qs: QuorumSystem, p_set) -> PropertyReport:
    p_set = frozenset(p_set)
    return _report(AVAILABLE_INSIDE, _availability(qs, p_set, p_set))


def check_active_availability(qs: QuorumSystem, p_set, left) -> PropertyReport:
    p_set, left = frozenset(p_set), frozenset(left)
    quorums = {p: qs.quorums_of(p) for p in p_set - left if qs.declares(p)}
    return _report(ACTIVE_AVAILABILITY, active_availability_witness(quorums, p_set, left))


def check_quorum_inclusion(qs: QuorumSystem, attack: Attack, p_set) -> PropertyReport:
    p_set = _well_behaved(p_set, attack, "inclusion set")
    return _report(INCLUSION,
                   _quorum_inclusion(qs, attack.universe, attack.byzantine, p_set))


def _weak_inclusion(name: str, qs: QuorumSystem, attack: Attack, p_set, left=(),
                    tentative: Mapping = None) -> PropertyReport:
    # inclusion_witness weakened by left or tentative; only W's map is memoized
    p_set = _well_behaved(p_set, attack, "inclusion set")
    wb, _, wb_quorums = _wb_quorums(qs, attack.universe, attack.byzantine)
    return _report(name, inclusion_witness(wb_quorums, p_set, wb, frozenset(left), tentative))


def check_active_inclusion(qs: QuorumSystem, attack: Attack, p_set, left) -> PropertyReport:
    return _weak_inclusion(ACTIVE_INCLUSION, qs, attack, p_set, left=left)


def check_tentative_inclusion(qs: QuorumSystem, attack: Attack, p_set,
                              tentative: Mapping) -> PropertyReport:
    """Inclusion where the witness may come from a process's tentative set.

    ``tentative`` maps a process to a set of (requester, quorum) pairs.
    """
    return _weak_inclusion(TENTATIVE_INCLUSION, qs, attack, p_set, tentative=tentative)


def check_quorum_sharing(qs: QuorumSystem) -> PropertyReport:
    return _report(SHARING, _sharing(qs))


def check_outlived(qs: QuorumSystem, attack: Attack, outlived_set) -> PropertyReport:
    """Conjunction of consistency at O, availability inside O and inclusion
    for O.  All three parts are evaluated, in this order, before the first
    failure is named, so an inactive member of O always raises."""
    o = _well_behaved(outlived_set, attack, "outlived set")
    uni, byz = attack.universe, attack.byzantine
    parts = ((CONSISTENCY, _consistency(qs, uni, byz, o)),
             (AVAILABLE_INSIDE, _availability(qs, o, o)),
             (INCLUSION, _quorum_inclusion(qs, uni, byz, o)))
    return _report(OUTLIVED, next(((name, *w) for name, w in parts if w is not None), None))


def maximal_outlived_sets(qs: QuorumSystem, attack: Attack) -> list:
    """``[O]`` for the maximal outlived subset O of the active well-behaved
    set, or ``[]`` if there is none.

    Outlived sets are closed under union: consistency at O is monotone in O,
    sets available inside themselves are closed under union, and inclusion
    for O holds member by member.  So O is a greatest fixpoint: drop the
    members that fail inclusion alone, then those with no quorum inside the
    rest until none is left to drop, and keep O iff consistency holds there.
    The empty set is outlived only when no active well-behaved process
    declares a quorum.  The first drop asks inclusion at W, the active
    well-behaved set (a lookup right after :func:`check_quorum_inclusion`
    at W, or after :func:`check_quorum_sharing` where sharing holds, as on
    every generated sharing system); when it holds, no member of W fails it
    and the scan is skipped.
    The scan tests each candidate c as ``wb.isdisjoint(c - q)``, cutting none.
    """
    uni, byz = attack.universe, attack.byzantine
    wb, w_set, wb_quorums = _wb_quorums(qs, uni, byz)
    o = set(wb_quorums)
    if _quorum_inclusion(qs, uni, byz, w_set) is not None:
        disjoint = wb.isdisjoint   # applied to q.__rsub__(c), that is c - q
        o -= {p2 for q in {q for quorums in wb_quorums.values() for q in quorums}
              for p2 in q if not any(map(disjoint, map(q.__rsub__, wb_quorums.get(p2, ()))))}
    while (inside := {p for p in o if any(map(o.__ge__, wb_quorums[p]))}) != o:
        o = inside
    o = frozenset(o)
    return [o] if _consistency(qs, uni, byz, o) is None else []
