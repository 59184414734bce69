"""Static data model for heterogeneous quorum systems.

A quorum system maps each active process to its antichain of individual
minimal quorums.  Everything here is immutable: constructors normalize and
validate; ``join``, ``leave``, ``add`` and ``remove`` return a new system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    EmptyDeclaration,
    EmptyQuorum,
    MalformedInput,
    PreconditionViolated,
    UnknownMember,
    UnknownProcess,
)

ProcessId = Union[int, str]
Quorum = frozenset


def id_key(p: ProcessId):
    """Total order over process ids; ints sort before strings."""
    return (isinstance(p, str), p)


def ordered(items: Iterable, plain=None, mixed=id_key) -> list:
    """``items`` in ``mixed`` order.  ``plain`` gives that order too, unless
    its comparison meets an int and a str, which it cannot compare: a sort
    that meets one always raises, and only those pay for ``mixed`` (which
    puts each id's type first, as ``id_key`` does)."""
    items = list(items)
    if len(items) < 2:
        return items
    try:
        return sorted(items, key=plain)
    except TypeError:
        return sorted(items, key=mixed)


def sorted_ids(ps: Iterable[ProcessId]) -> list:
    """``ps`` in ``id_key`` order."""
    return ordered(ps)


def quorum_key(q: Quorum):
    return [id_key(p) for p in sorted_ids(q)]


def sorted_quorums(qs: Iterable[Quorum]) -> list:
    """``qs`` in ``quorum_key`` order: by sorted member lists."""
    return ordered(qs, sorted_ids, quorum_key)


def canon_quorums(qs: Iterable[Quorum]) -> tuple:
    """Deduplicated quorums in a stable order (by size, then members)."""
    return tuple(ordered(set(map(frozenset, qs)), lambda q: (len(q), sorted(q)),
                         lambda q: (len(q), quorum_key(q))))


def antichain(qs: Iterable[Quorum]) -> tuple:
    """Drop every quorum that is a strict superset of a kept one (it sorts later)."""
    kept = []
    for q in canon_quorums(qs):
        if not any(map(q.__gt__, kept)):
            kept.append(q)
    return tuple(kept)


@dataclass(frozen=True)
class Attack:
    """One execution's partition of the universe into Byzantine and well-behaved."""

    universe: frozenset
    byzantine: frozenset

    def __post_init__(self):
        if not self.byzantine <= self.universe:
            raise UnknownMember(f"byzantine ids outside universe: "
                                f"{sorted_ids(self.byzantine - self.universe)}")

    @property
    def well_behaved(self) -> frozenset:
        return self.universe - self.byzantine

    @staticmethod
    def of(universe: Iterable[ProcessId], byzantine: Iterable[ProcessId] = ()) -> "Attack":
        return Attack(frozenset(universe), frozenset(byzantine))


class QuorumSystem:
    """Map from active processes to their individual minimal quorums.

    Instances are immutable after construction; the per-process quorum sets
    are normalized to antichains and stored in canonical order so that any
    serialization is byte-stable.
    """

    __slots__ = ("universe", "active", "_quorums", "diagnostics")

    def __init__(self, universe, active, quorums, diagnostics=()):
        object.__setattr__(self, "universe", frozenset(universe))
        object.__setattr__(self, "active", frozenset(active))
        object.__setattr__(self, "_quorums", dict(quorums))
        object.__setattr__(self, "diagnostics", tuple(diagnostics))

    def __setattr__(self, name, value):
        raise AttributeError("QuorumSystem is immutable")

    def quorums_of(self, p: ProcessId) -> tuple:
        try:
            return self._quorums[p]
        except KeyError:
            raise UnknownProcess(f"process {p!r} has no quorum declaration") from None

    def declares(self, p: ProcessId) -> bool:
        return p in self._quorums

    def declared(self) -> Iterator[tuple]:
        """All (process, quorum) declarations in canonical order."""
        for p in sorted_ids(self._quorums):
            for q in self._quorums[p]:
                yield p, q

    def quorum_map(self) -> dict:
        return dict(self._quorums)

    def __eq__(self, other):
        return (isinstance(other, QuorumSystem)
                and self.universe == other.universe
                and self.active == other.active
                and self._quorums == other._quorums)

    def __repr__(self):
        decls = {p: [sorted_ids(q) for q in self._quorums[p]]
                 for p in sorted_ids(self._quorums)}
        return f"QuorumSystem(active={sorted_ids(self.active)}, quorums={decls})"

    def to_json(self, attack: Optional[Attack] = None) -> dict:
        data = {
            "universe": sorted_ids(self.universe),
            "byzantine": sorted_ids(attack.byzantine) if attack else [],
            "active": sorted_ids(self.active),
            "quorums": {str(p): [sorted_ids(q) for q in self._quorums[p]]
                        for p in sorted_ids(self._quorums)},
        }
        return data


def distinct_spellings(ids: frozenset, path: str) -> frozenset:
    """``ids`` if ``str`` spells no two alike; else ``MalformedInput`` at ``path``."""
    # only a str id can spell an int id, so int-only sets make no str() calls
    if str in set(map(type, ids)) and len(set(map(str, ids))) < len(ids):
        twins = sorted_ids(p for p in ids if sum(str(q) == str(p) for q in ids) > 1)
        raise MalformedInput(f"{path}: ids {twins} share one spelling, which would "
                             f"merge them in every state snapshot")
    return ids


def new_quorum_system(
    active: Iterable[ProcessId],
    decls: Mapping[ProcessId, Iterable[Iterable[ProcessId]]],
    *,
    universe: Optional[Iterable[ProcessId]] = None,
    byzantine: Iterable[ProcessId] = (),
) -> QuorumSystem:
    """Validate and normalize declarations into a quorum system.

    Well-behaved active processes must declare at least one quorum; Byzantine
    processes may declare anything or be absent.  Per-process quorum sets are
    reduced to antichains.
    """
    active = frozenset(active)
    byz = frozenset(byzantine)
    members = set()
    quorums = {}
    diagnostics = []
    for p in sorted_ids(decls):
        if p not in active:
            raise UnknownProcess(f"declaration for inactive process {p!r}")
        per = []
        for raw in decls[p]:
            q = frozenset(raw)
            if not q:
                raise EmptyQuorum(f"process {p!r} declared an empty quorum")
            per.append(q)
        members.update(*per)
        normalized = antichain(per)
        if normalized:
            if not any(p in q for q in normalized):
                diagnostics.append(f"process {p!r} is not a member of any of its own quorums")
            quorums[p] = normalized
    if missing := active - byz - quorums.keys():
        raise EmptyDeclaration(f"well-behaved active process {min(missing, key=id_key)!r} "
                               f"declared no quorums")
    uni = distinct_spellings(
        frozenset(universe) if universe is not None else active | members | byz, "universe")
    outside = members - uni
    if outside:
        raise UnknownMember(f"quorum members outside universe: {sorted_ids(outside)}")
    if not active <= uni:
        raise UnknownMember(f"active processes outside universe: {sorted_ids(active - uni)}")
    return QuorumSystem(uni, active, quorums, diagnostics)


def minimal_quorums(qs: QuorumSystem, attack: Attack) -> frozenset:
    """System-wide minimal quorums: well-behaved declarations with no
    declared strict subset at any well-behaved process."""
    declared = set()
    for p in qs.active & attack.well_behaved:
        if qs.declares(p):
            declared.update(qs.quorums_of(p))
    kept = []
    for q in sorted(declared, key=len):   # a strict subset is shorter: it comes first
        if not any(map(q.__gt__, kept)):
            kept.append(q)
    return frozenset(kept)


def is_system_quorum(qs: QuorumSystem, attack: Attack, s: Iterable[ProcessId]) -> bool:
    """True iff ``s`` is a superset of some minimal quorum."""
    s = frozenset(s)
    return any(m <= s for m in minimal_quorums(qs, attack))


def blocks(quorums: Iterable[Quorum], s: frozenset) -> bool:
    """True iff ``s`` intersects every quorum in ``quorums`` (vacuously if none)."""
    return all(q & s for q in quorums)


def is_blocking(qs: QuorumSystem, p: ProcessId, set_p: Iterable[ProcessId]) -> bool:
    """True iff ``set_p`` intersects every quorum of ``p``."""
    return blocks(qs.quorums_of(p), frozenset(set_p))


def is_active_blocking(qs, p, set_p, left) -> bool:
    """Blocking check that discounts the departed set first: for every quorum
    q of p, (q minus left) must intersect set_p."""
    set_p = frozenset(set_p)
    left = frozenset(left)
    return all((q - left) & set_p for q in qs.quorums_of(p))


def followers_map(qs: QuorumSystem) -> dict:
    """Each process held in some quorum -> the active processes that hold
    it in at least one of their quorums; one pass over the declarations."""
    out = {}
    for p2 in qs.active & qs._quorums.keys():
        for p in set().union(*qs._quorums[p2]):
            out.setdefault(p, set()).add(p2)
    return out


def followers(qs: QuorumSystem, p: ProcessId) -> frozenset:
    """Processes that hold ``p`` in at least one of their quorums."""
    return frozenset(followers_map(qs).get(p, ()))


def join(qs: QuorumSystem, p: ProcessId, quorums) -> QuorumSystem:
    """Post-state of ``p`` joining with ``quorums``; ``qs`` is unchanged."""
    quorums = canon_quorums(quorums)
    if p in qs.active:
        raise PreconditionViolated(f"join: {p!r} is already active")
    if not quorums:
        raise PreconditionViolated("join: no quorums supplied")
    if not all(quorums):
        raise EmptyQuorum("join: empty quorum supplied")
    return QuorumSystem(qs.universe.union({p}, *quorums), qs.active | {p},
                        {**qs._quorums, p: antichain(quorums)}, qs.diagnostics)


def leave(qs: QuorumSystem, p: ProcessId) -> QuorumSystem:
    """Post-state of ``p`` leaving: inactive, its quorums dropped."""
    if p not in qs.active:
        raise PreconditionViolated(f"leave: {p!r} is not active")
    quorums = {k: v for k, v in qs._quorums.items() if k != p}
    return QuorumSystem(qs.universe, qs.active - {p}, quorums, qs.diagnostics)


def add(qs: QuorumSystem, p: ProcessId, q) -> QuorumSystem:
    """Post-state of ``p`` adding the quorum ``q``, reduced to an antichain."""
    q = frozenset(q)
    if p not in qs.active:
        raise PreconditionViolated(f"add: {p!r} is not active")
    if not q:
        raise EmptyQuorum("add: empty quorum")
    return QuorumSystem(qs.universe | q, qs.active,
                        {**qs._quorums, p: antichain(qs._quorums.get(p, ()) + (q,))},
                        qs.diagnostics)


def remove(qs: QuorumSystem, p: ProcessId, q) -> QuorumSystem:
    """Post-state of ``p`` removing its quorum ``q``.  With none left, ``p``
    leaves the active set and the diagnostics say so, as the simulator's
    ``scenarios.current_system`` treats a node left with no quorums."""
    q = frozenset(q)
    if p not in qs.active or q not in qs._quorums.get(p, ()):
        raise PreconditionViolated(f"remove: {q!r} is not a quorum of {p!r}")
    quorums = {**qs._quorums, p: tuple(x for x in qs._quorums[p] if x != q)}
    if quorums[p]:
        return QuorumSystem(qs.universe, qs.active, quorums, qs.diagnostics)
    del quorums[p]
    return QuorumSystem(qs.universe, qs.active - {p}, quorums,
                        qs.diagnostics + (f"process {p!r} has no quorums left",))


def parse_id(raw: str) -> ProcessId:
    """A process id from its text form: an integer if it parses as one."""
    try:
        return int(raw)
    except ValueError:
        return raw


def _type_name(value) -> str:
    return {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
            type(None): "null"}.get(type(value), "a number")


def expect(value, path: str, what: str, *types):
    """``value`` if it is one of ``types`` (a boolean is not a number); else
    ``MalformedInput`` naming the field path."""
    if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
        return value
    raise MalformedInput(f"{path}: expected {what}, got {_type_name(value)}")


def choice(value, path: str, what: str, known):
    """``value`` if it is one of ``known``; else ``MalformedInput`` naming its path."""
    if value not in known:
        raise MalformedInput(f"{path}: {what} {value!r}; known: "
                             f"{', '.join(map(str, known)) or 'none'}")
    return value


def known_keys(obj: dict, prefix: str, what: str, known) -> dict:
    """``obj`` if every key is one of ``known``; else ``MalformedInput`` at ``prefix + key``."""
    for key in obj:   # a misspelt key would otherwise be ignored
        choice(key, prefix + key, what, known)
    return obj


def id_list(value, path: str) -> list:
    """``value`` as a list of process ids (integers or strings)."""
    for i, p in enumerate(expect(value, path, "a list of process ids", list)):
        expect(p, f"{path}[{i}]", "a process id", int, str)
    return value


def quorum_decls(raw, path: str) -> dict:
    """``raw`` as {process id: [quorum, ...]}; keys parse as process ids."""
    decls = {}
    for k, v in expect(raw, path, "an object", dict).items():
        quorums = expect(v, f"{path}.{k}", "a list of quorums", list)
        p = parse_id(k)   # "1", "01" and " 1" all parse to 1
        if p in decls:
            raise MalformedInput(f"{path}.{k}: process {p!r} is declared twice")
        decls[p] = [frozenset(id_list(q, f"{path}.{k}[{i}]")) for i, q in enumerate(quorums)]
    return decls


def system_from_json(data) -> tuple:
    """Decode the on-disk schema into a (QuorumSystem, Attack) pair.

    A value of the wrong shape raises :class:`MalformedInput` naming its
    field path, e.g. ``quorums.1[0][2]``.
    """
    known_keys(expect(data, "system", "an object", dict), "", "unknown system key",
               ("universe", "byzantine", "active", "quorums"))
    if "active" not in data:
        raise MalformedInput("active: required field is missing")
    active = id_list(data["active"], "active")
    universe = data.get("universe")
    if universe is not None:
        universe = id_list(universe, "universe")
    byz = id_list(data.get("byzantine", []), "byzantine")
    decls = quorum_decls(data.get("quorums", {}), "quorums")
    qs = new_quorum_system(active, decls, universe=universe, byzantine=byz)
    attack = Attack.of(qs.universe, byz)
    return qs, attack


def load_system(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))


def dump_system(qs: QuorumSystem, attack: Optional[Attack] = None) -> str:
    return json.dumps(qs.to_json(attack), indent=2, sort_keys=True) + "\n"
