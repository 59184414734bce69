"""Random quorum-system generators for property suites.

Two families: unconstrained systems (for the basic minimality lemmas) and
pivot-core systems built to satisfy consistency plus quorum sharing by
construction, which the graph lemmas and the reconfiguration preservation
suites then re-verify through the checkers before relying on them.
"""

from __future__ import annotations

import random

from .core import Attack, new_quorum_system
from .props import check_consistency, check_quorum_sharing, maximal_outlived_sets


def arbitrary_system(rng: random.Random, n_max: int = 7):
    """Unconstrained random declarations; only the constructor invariants hold."""
    if n_max < 2:   # _randbelow(0) would never return
        raise ValueError(f"arbitrary_system needs n_max >= 2, got {n_max}")
    n = 2 + rng._randbelow(n_max - 1)
    universe = list(range(1, n + 1))
    byz = frozenset(p for p in universe if rng.random() < 0.2)
    decls = {}
    for p in universe:
        if p in byz and rng.random() < 0.5:
            continue
        count = 1 + rng._randbelow(3)
        quorums = []
        for _ in range(count):
            size = 1 + rng._randbelow(n)
            # from a set, not a list: a frozenset copied from a set gets a table
            # sized to fit, where one grown by adding keeps 5-7 ids in 32 slots
            quorums.append(frozenset({p, *rng.sample(universe, size)}))
        decls[p] = quorums
    ids = frozenset(universe)   # one object: the universe, the active set, the attack's
    return new_quorum_system(ids, decls, universe=ids, byzantine=byz), Attack(ids, byz)


def sharing_system(rng: random.Random, n_max: int = 7):
    """Random system satisfying consistency at W and quorum sharing.

    A pivot process sits in every core minimal quorum, so all quorum pairs
    intersect at it; processes outside the core declare supersets of core
    quorums, which preserves sharing.  The Byzantine set avoids the pivot.
    """
    if n_max < 3:
        raise ValueError(f"sharing_system needs n_max >= 3, got {n_max}")
    n = 3 + rng._randbelow(n_max - 2)
    universe = list(range(1, n + 1))
    pivot = universe[rng._randbelow(n)]
    core_pool = [p for p in universe if p != pivot]
    rng.shuffle(core_pool)
    mq_count = 1 + rng._randbelow(min(3, n - 1))
    minimal = []
    for _ in range(mq_count):
        extra = 1 + rng._randbelow(min(2, len(core_pool)))
        members = {pivot} | set(rng.sample(core_pool, extra))
        minimal.append(frozenset(members))
    # drop nested cores so they really are minimal
    minimal = [q for q in minimal if not any(o < q for o in minimal)]
    core = set().union(*minimal)
    m = len(minimal)
    randbelow = rng._randbelow
    decls = {}
    for p in universe:
        if p in core:
            decls[p] = [q for q in minimal if p in q]
        else:
            # rng.sample(minimal, k), drawn as its pool branch draws it (m <= 3):
            # pick the j-th unpicked core, then move the last unpicked into the gap
            pool = minimal[:]
            decl = decls[p] = []
            for i in range(1 + randbelow(m)):
                j = randbelow(m - i)
                decl.append(pool[j] | {p})
                pool[j] = pool[m - i - 1]
    byz = frozenset(p for p in universe
                    if p != pivot and rng.random() < 0.25)
    ids = frozenset(universe)   # one object: the universe, the active set, the attack's
    return new_quorum_system(ids, decls, universe=ids, byzantine=byz), Attack(ids, byz)


def checked_sharing_system(rng: random.Random, n_max: int = 7):
    """sharing_system plus checker verification; retries until both hold."""
    while True:
        qs, attack = sharing_system(rng, n_max)
        if (check_consistency(qs, attack, attack.well_behaved).holds
                and check_quorum_sharing(qs).holds):
            return qs, attack


def outlived_system(rng: random.Random, n_max: int = 6):
    """A generated system with its maximal outlived set, of two or more members."""
    while True:
        qs, attack = checked_sharing_system(rng, n_max)
        sets = maximal_outlived_sets(qs, attack)
        if sets and len(sets[0]) >= 2:
            return qs, attack, sets[0]
