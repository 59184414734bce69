import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hqs.core import (
    Attack,
    add,
    antichain,
    canon_quorums,
    followers,
    is_active_blocking,
    is_blocking,
    is_system_quorum,
    join,
    leave,
    minimal_quorums,
    new_quorum_system,
    quorum_key,
    remove,
    sorted_ids,
    sorted_quorums,
    system_from_json,
)
from hqs.errors import (
    EmptyDeclaration,
    EmptyQuorum,
    HqsError,
    MalformedInput,
    PreconditionViolated,
    UnknownMember,
    UnknownProcess,
)
from hqs import gen
from hqs.fixtures import load_fixture
from hqs.gen import arbitrary_system

import oracles
from test_golden import GENERATED, NoEmptyDraws


def quorum_set(qs, p):
    return {frozenset(q) for q in qs.quorums_of(p)}


def test_fig1_constructor_keeps_declarations():
    qs, _ = load_fixture("fig1")
    assert quorum_set(qs, 1) == {frozenset({1, 2, 4})}
    assert quorum_set(qs, 2) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 5})}
    assert quorum_set(qs, 3) == {frozenset({2, 3})}
    assert quorum_set(qs, 5) == {frozenset({2, 5})}


def test_constructor_drops_superset_quorums():
    qs = new_quorum_system([1], {1: [{1}, {1, 2}]})
    assert quorum_set(qs, 1) == {frozenset({1})}


def test_constructor_rejects_empty_quorum():
    with pytest.raises(EmptyQuorum):
        new_quorum_system([2], {2: [set()]})


def test_constructor_rejects_quorumless_well_behaved():
    with pytest.raises(EmptyDeclaration):
        new_quorum_system([1, 2], {1: [{1}]})
    # a Byzantine process may be absent from the domain entirely
    qs = new_quorum_system([1, 2], {1: [{1}]}, byzantine={2})
    assert not qs.declares(2)


def test_constructor_rejects_member_outside_universe():
    with pytest.raises(UnknownMember):
        new_quorum_system([1], {1: [{1, 9}]}, universe=[1])


@pytest.mark.parametrize("active,decls,kwargs,error,message", [
    ([1, 2], {1: [{1}], 2: [{2}, set()]}, {}, EmptyQuorum,
     "process 2 declared an empty quorum"),
    ([1], {1: [{1}], 2: [{2}]}, {}, UnknownProcess, "declaration for inactive process 2"),
    ([1, 3, 2], {3: [{3}]}, {}, EmptyDeclaration,
     "well-behaved active process 1 declared no quorums"),
    (["c", "b", "a"], {"c": [{"c"}]}, {}, EmptyDeclaration,
     "well-behaved active process 'a' declared no quorums"),
    (["b", 10, "a", 2], {"b": [{"b"}]}, {"byzantine": [2]}, EmptyDeclaration,
     "well-behaved active process 10 declared no quorums"),
    ([1], {1: [{1, 9}]}, {"universe": [1]}, UnknownMember,
     "quorum members outside universe: [9]"),
    ([1, 5], {1: [{1}]}, {"universe": [1], "byzantine": [5]}, UnknownMember,
     "active processes outside universe: [5]"),
    (["1", 1], {"1": [{"1"}], 1: [{1}]}, {}, MalformedInput,
     "universe: ids [1, '1'] share one spelling, which would merge them in every "
     "state snapshot"),
    # the first failing check wins: the declarations in id order, then the
    # missing ones, then the universe
    ([1, 2, 3], {3: [set()], 4: [{4}]}, {}, EmptyQuorum,
     "process 3 declared an empty quorum"),
    ([2, 3], {1: [{1}], 3: [set()]}, {}, UnknownProcess,
     "declaration for inactive process 1"),
    ([1, 2], {1: [{1, 9}]}, {"universe": [1, 2]}, EmptyDeclaration,
     "well-behaved active process 2 declared no quorums"),
])
def test_constructor_raises_one_error_per_malformed_declaration(active, decls, kwargs,
                                                                error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        new_quorum_system(active, decls, **kwargs)


def test_self_membership_warning_diagnostic():
    qs = new_quorum_system([1, 2], {1: [{2}], 2: [{2}]})
    assert qs.diagnostics == ("process 1 is not a member of any of its own quorums",)


def test_fig1_minimal_quorums_match_paper():
    qs, attack = load_fixture("fig1")
    assert minimal_quorums(qs, attack) == {
        frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 5})}


def test_fig2_minimal_quorums_match_paper():
    qs, attack = load_fixture("fig2")
    assert minimal_quorums(qs, attack) == {frozenset({1, 2}), frozenset({1, 3, 5})}


def test_singleton_minimal_quorum():
    qs = new_quorum_system([1], {1: [{1}]})
    assert minimal_quorums(qs, Attack.of([1])) == {frozenset({1})}


def test_is_system_quorum():
    qs, attack = load_fixture("fig1")
    assert is_system_quorum(qs, attack, {1, 2, 4})
    assert not is_system_quorum(qs, attack, {4, 5})
    assert not is_system_quorum(qs, attack, set())


def test_blocking_examples():
    qs, _ = load_fixture("fig1")
    assert is_blocking(qs, 2, {1, 3, 5})
    assert is_blocking(qs, 3, {2})
    assert not is_blocking(qs, 2, set())
    with pytest.raises(UnknownProcess):
        is_blocking(qs, 9, {1})


def test_active_blocking_examples():
    qs, _ = load_fixture("fig1")
    # computed with the brute-force oracle: ({1,2} minus {1}) misses {3,5}
    assert not is_active_blocking(qs, 2, {3, 5}, {1})
    solo = new_quorum_system([7], {7: [{7}]})
    assert not is_active_blocking(solo, 7, {7}, {7})


def test_followers_fig1():
    qs, _ = load_fixture("fig1")
    assert followers(qs, 2) == frozenset({1, 2, 3, 5})
    assert followers(qs, 4) == frozenset({1})
    assert followers(qs, 9) == frozenset()


def test_apply_reconfig_remove_and_leave():
    qs, _ = load_fixture("fig1")
    removed = remove(qs, 2, {2, 5})
    assert quorum_set(removed, 2) == {frozenset({1, 2}), frozenset({2, 3})}
    left = leave(qs, 5)
    assert 5 not in left.active and not left.declares(5)
    assert quorum_set(qs, 2) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 5})}


def test_removing_a_last_quorum_drops_the_process_and_round_trips():
    # as the simulator's current_system treats a node left with no quorums
    qs, attack = load_fixture("fig1")
    removed = remove(qs, 1, qs.quorums_of(1)[0])
    assert 1 not in removed.active and not removed.declares(1)
    assert removed.diagnostics == qs.diagnostics + ("process 1 has no quorums left",)
    loaded, _ = system_from_json(removed.to_json(attack))
    assert loaded == removed


def test_apply_reconfig_add_renormalizes():
    qs, _ = load_fixture("fig1")
    added = add(qs, 3, {2, 3, 5})
    assert quorum_set(added, 3) == {frozenset({2, 3})}


def test_apply_reconfig_preconditions():
    qs, _ = load_fixture("fig1")
    with pytest.raises(PreconditionViolated):
        remove(qs, 2, {1, 3})
    with pytest.raises(PreconditionViolated):
        leave(qs, 9)
    with pytest.raises(PreconditionViolated):
        join(qs, 2, [{2}])


def test_join_op_adds_member():
    qs, _ = load_fixture("fig1")
    joined = join(qs, 9, [{2, 9}])
    assert quorum_set(joined, 9) == {frozenset({2, 9})}
    assert 9 in joined.active


@pytest.mark.parametrize("name", sorted({name for name, _ in GENERATED}))
def test_a_generated_system_and_its_attack_hold_one_universe_object(name):
    for n_max in sorted(n for g, n in GENERATED if g == name):
        for seed in range(50):
            qs, attack, *_ = getattr(gen, name)(NoEmptyDraws(seed), n_max=n_max)
            assert qs.universe is qs.active is attack.universe, (n_max, seed)


@pytest.mark.parametrize("call, error, message", [
    (lambda qs: join(qs, 9, []),
     PreconditionViolated, "join: no quorums supplied"),
    (lambda qs: join(qs, 9, [{2, 9}, set()]),
     EmptyQuorum, "join: empty quorum supplied"),
    (lambda qs: add(qs, 9, {2, 9}),
     PreconditionViolated, "add: 9 is not active"),
    (lambda qs: add(qs, 2, set()),
     EmptyQuorum, "add: empty quorum"),
])
def test_reconfig_oracle_error_branches(call, error, message):
    qs, _ = load_fixture("fig1")
    with pytest.raises(error) as raised:
        call(qs)
    assert type(raised.value) is error and str(raised.value) == message


def oracle_steps(rng, qs):
    """One call of each operation on ``qs``, with arguments drawn so that
    each precondition sometimes fails: a process of the universe or a fresh
    one, a quorum of the process or a random subset of the universe."""
    uni = sorted_ids(qs.universe)
    fresh = max(uni) + 1

    def process():
        return rng.choice(uni + [fresh])

    def subset():
        return frozenset(rng.sample(uni, rng.randint(1, len(uni))))

    p = process()
    quorums = [subset() | {p} for _ in range(rng.randint(1, 3))]
    yield lambda: join(qs, p, quorums)
    p = process()
    yield lambda: leave(qs, p)
    p, q = process(), subset()
    yield lambda: add(qs, p, q)
    p = process()
    q = rng.choice(qs.quorums_of(p)) if qs.declares(p) and rng.random() < 0.7 else subset()
    yield lambda: remove(qs, p, q)


def test_reconfig_oracle_digest_over_arbitrary_systems():
    """sha256 over seeds 0-49: each operation on the generated system and on
    the system after one process left (so some universe members are
    inactive), hashing each result's JSON form and diagnostics, or the type
    of the error raised where a precondition fails."""
    h = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        qs, attack = arbitrary_system(rng)
        systems = [qs, leave(qs, rng.choice(sorted_ids(qs.active)))]
        for system in systems:
            for step in oracle_steps(rng, system):
                try:
                    out = step()
                except HqsError as e:   # the type is what the digest pins
                    h.update(type(e).__name__.encode())
                else:
                    h.update(json.dumps([out.to_json(attack), out.diagnostics],
                                        sort_keys=True).encode())
    assert h.hexdigest() == \
        "acf7d26dec8d6786ebd791267bcbcb297ac0631335423a737dc7ed5d97eeb966"


small_ids = st.integers(min_value=1, max_value=5)
quorums_strategy = st.lists(
    st.frozensets(small_ids, min_size=1, max_size=5), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(quorums_strategy)
def test_antichain_no_strict_containment(quorums):
    result = antichain(quorums)
    assert not any(a < b for a in result for b in result)
    # every dropped quorum is a superset of a survivor
    for q in quorums:
        assert any(kept <= q for kept in result)


@st.composite
def nested_mixed_quorums(draw):
    """Quorums over int and str ids, with repeats and strict supersets."""
    ids = st.integers(-1, 4) | st.sampled_from("abc")
    base = draw(st.lists(st.frozensets(ids, min_size=1, max_size=4), max_size=6))
    grown = [q | draw(st.frozensets(ids, max_size=2)) for q in base]
    return draw(st.permutations(base + grown + base[:2]))


@settings(max_examples=300, deadline=None)
@given(nested_mixed_quorums())
def test_antichain_matches_the_oracle_in_order(quorums):
    assert antichain(quorums) == oracles.oracle_antichain(quorums)


@st.composite
def mixed_id_systems(draw):
    """A system over int and str ids with a drawn Byzantine set; quorums come
    from a small pool, so they repeat and nest across processes."""
    ids = draw(st.lists(st.integers(1, 5) | st.sampled_from("abcd"), unique=True,
                        min_size=1, max_size=8))
    pool = draw(st.lists(st.frozensets(st.sampled_from(ids), min_size=1), min_size=1,
                         max_size=6))
    byz = draw(st.frozensets(st.sampled_from(ids)))
    decls = {p: draw(st.lists(st.sampled_from(pool), min_size=p not in byz, max_size=3))
             for p in ids}
    decls = {p: qs for p, qs in decls.items() if qs}
    return new_quorum_system(ids, decls, byzantine=byz), Attack.of(ids, byz)


@settings(max_examples=300, deadline=None)
@given(mixed_id_systems())
def test_minimal_quorums_matches_the_oracle_on_mixed_ids(system):
    qs, attack = system
    assert minimal_quorums(qs, attack) == oracles.oracle_minimal_quorums(qs, attack)


@settings(max_examples=60, deadline=None)
@given(quorums_strategy, st.frozensets(small_ids, max_size=5))
def test_blocking_matches_bruteforce(quorums, candidate):
    members = frozenset().union(*quorums) | {9}
    qs = new_quorum_system([9], {9: [q for q in quorums]}, universe=members)
    assert is_blocking(qs, 9, candidate) == oracles.oracle_is_blocking(
        qs.quorums_of(9), candidate)


@settings(max_examples=60, deadline=None)
@given(quorums_strategy, st.frozensets(small_ids, max_size=5))
def test_active_blocking_with_empty_left_is_blocking(quorums, candidate):
    members = frozenset().union(*quorums) | {9}
    qs = new_quorum_system([9], {9: [q for q in quorums]}, universe=members)
    assert is_active_blocking(qs, 9, candidate, set()) == is_blocking(qs, 9, candidate)


def test_q_basic_lemmas_on_random_systems():
    rng = random.Random(7)
    for _ in range(60):
        qs, attack = arbitrary_system(rng, n_max=7)
        mq = minimal_quorums(qs, attack)
        assert mq == oracles.oracle_minimal_quorums(qs, attack)
        declared = {q for p in qs.active & attack.well_behaved if qs.declares(p)
                    for q in qs.quorums_of(p)}
        # q-basic1: every minimal quorum is somebody's declared quorum
        assert mq <= declared
        # q-basic2: every declared quorum of a well-behaved process
        # is a superset of a minimal quorum
        for q in declared:
            assert any(m <= q for m in mq)


def test_apply_reconfig_keeps_antichain():
    rng = random.Random(11)
    for _ in range(40):
        qs, attack = arbitrary_system(rng, n_max=6)
        pool = sorted_ids(qs.active & attack.well_behaved)
        p = rng.choice(pool)
        uni = sorted_ids(qs.universe)
        q = frozenset(rng.sample(uni, rng.randint(1, min(3, len(uni)))))
        out = add(qs, p, q)
        per = out.quorums_of(p)
        assert not any(a < b for a in per for b in per)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(-2, 3) | st.text("ab", max_size=2), max_size=4))
       | st.lists(st.frozensets(st.integers(-2, 3), max_size=4))
       | st.lists(st.frozensets(st.integers(-1, 1) | st.booleans(), max_size=2)))
def test_sorted_quorums_matches_the_quorum_key_order(quorums):
    # repr tells True from 1, which compare equal
    for given_quorums in (quorums, set(quorums)):
        assert (list(map(repr, map(sorted_ids, sorted_quorums(given_quorums))))
                == list(map(repr, map(sorted_ids, sorted(given_quorums, key=quorum_key)))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(-2, 3) | st.text("ab", max_size=2), max_size=4))
       | st.lists(st.frozensets(st.integers(-2, 3), max_size=4)))
def test_canon_quorums_matches_the_size_then_quorum_key_order(quorums):
    uniq = set(map(frozenset, quorums))
    assert canon_quorums(quorums) == tuple(sorted(uniq, key=lambda q: (len(q), quorum_key(q))))
