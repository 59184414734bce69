import random
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from hqs.core import Attack, add, new_quorum_system, sorted_ids
from hqs.errors import BadSubset, HqsError, UnknownProcess
from hqs.fixtures import load_fixture
from hqs.gen import arbitrary_system, sharing_system
from hqs.props import (
    ACTIVE_AVAILABILITY,
    ACTIVE_INCLUSION,
    AVAILABILITY,
    AVAILABLE_INSIDE,
    CONSISTENCY,
    INCLUSION,
    OUTLIVED,
    SHARING,
    TENTATIVE_INCLUSION,
    PropertyReport,
    check_active_availability,
    check_active_inclusion,
    check_availability,
    check_available_inside,
    check_consistency,
    check_outlived,
    check_quorum_inclusion,
    check_quorum_sharing,
    check_tentative_inclusion,
    consistency_witness,
    inclusion_witness,
    maximal_outlived_sets,
    report_to_json,
    sharing_witness,
)
from hqs.core import is_blocking, minimal_quorums

import oracles


def test_consistency_fig1_holds_at_wb():
    qs, attack = load_fixture("fig1")
    assert check_consistency(qs, attack, attack.well_behaved).holds


def test_consistency_s5_post_state_fails_with_witness():
    qs, attack = load_fixture("attack_s5")
    rep = check_consistency(qs, attack, attack.well_behaved)
    assert not rep.holds
    q1, q2 = rep.witness
    # the witness must violate the definition when re-checked directly
    assert not (q1 & q2 & attack.well_behaved)
    assert {q1, q2} == {frozenset({2, 4}), frozenset({1, 3})}


def test_consistency_singleton_and_bad_subset():
    qs = new_quorum_system([1], {1: [{1}]})
    attack = Attack.of([1])
    assert check_consistency(qs, attack, {1}).holds
    with pytest.raises(BadSubset):
        check_consistency(qs, attack, {2})


def test_a_bad_subset_names_the_offending_ids():
    qs, attack = load_fixture("fig1")   # 4 is Byzantine
    for at_p, offending in (({1, 4}, [4]), ({1, 99}, [99])):   # 99 is outside the universe
        with pytest.raises(BadSubset) as raised:
            check_consistency(qs, attack, at_p)
        assert f"offending ids: {offending}" in str(raised.value)


def test_availability_examples():
    qs, attack = load_fixture("fig1")
    assert check_availability(qs, {2, 3, 5}, {2, 3, 5}).holds
    assert not check_availability(qs, {1}, attack.well_behaved).holds
    assert check_availability(qs, set(), set()).holds


def test_available_inside_examples():
    qs, _ = load_fixture("fig1")
    assert check_available_inside(qs, {2, 3, 5}).holds
    rep = check_available_inside(qs, {1, 2})
    assert not rep.holds and rep.witness == (1,)
    assert check_available_inside(qs, set()).holds


def test_active_availability_examples():
    qs, _ = load_fixture("fig1")
    # left empty reduces to available-inside
    assert check_active_availability(qs, {2, 3, 5}, set()).holds
    assert check_active_availability(qs, {2, 3, 5}, {5}).holds
    assert check_active_availability(qs, {2, 5}, {3}).holds


def test_quorum_inclusion_fig1():
    qs, attack = load_fixture("fig1")
    assert check_quorum_inclusion(qs, attack, attack.well_behaved).holds
    assert check_quorum_inclusion(qs, attack, set()).holds


def test_quorum_inclusion_fails_after_bad_add():
    qs, attack = load_fixture("fig1")
    bad = add(qs, 3, {3, 5})
    rep = check_quorum_inclusion(bad, attack, {2, 3, 5})
    assert not rep.holds
    assert rep.witness == (frozenset({3, 5}), 5)


def test_tentative_inclusion_covers_mid_add_window():
    qs, attack = load_fixture("fig1")
    bad = add(qs, 3, {3, 5})
    tentative = {5: {(3, frozenset({3, 5}))}}
    assert check_tentative_inclusion(bad, attack, {2, 3, 5}, tentative).holds
    # a tentative quorum whose well-behaved part escapes q does not help
    useless = {5: {(3, frozenset({2, 4, 5}))}}
    assert not check_tentative_inclusion(bad, attack, {2, 3, 5}, useless).holds
    # empty tentative map reduces to plain inclusion
    assert not check_tentative_inclusion(bad, attack, {2, 3, 5}, {}).holds


def test_active_inclusion_mid_leave_window():
    # c is leaving: a already shrank its quorum, b's witness still holds c
    qs = new_quorum_system(
        ["a", "b", "c"],
        {"a": [{"a", "b"}], "b": [{"b", "c"}], "c": [{"b", "c"}]})
    attack = Attack.of(["a", "b", "c"])
    assert not check_quorum_inclusion(qs, attack, {"a", "b"}).holds
    assert check_active_inclusion(qs, attack, {"a", "b"}, {"c"}).holds
    # left empty reduces to plain inclusion
    full, fattack = load_fixture("fig1")
    assert (check_active_inclusion(full, fattack, {2, 3, 5}, set()).holds
            == check_quorum_inclusion(full, fattack, {2, 3, 5}).holds)
    # the vacuous extreme: everyone already left
    assert check_active_inclusion(qs, attack, {"a", "b"}, {"a", "b", "c"}).holds


def test_quorum_sharing_examples():
    dqs, _ = load_fixture("dqs")
    assert check_quorum_sharing(dqs).holds
    fig1, _ = load_fixture("fig1")
    rep = check_quorum_sharing(fig1)
    assert not rep.holds and rep.witness == (frozenset({1, 2, 4}), 4)
    singleton = new_quorum_system([1], {1: [{1}]})
    assert check_quorum_sharing(singleton).holds


def test_outlived_fig1():
    qs, attack = load_fixture("fig1")
    assert check_outlived(qs, attack, {2, 3, 5}).holds
    rep = check_outlived(qs, attack, {1, 2, 3, 5})
    assert not rep.holds and rep.witness[0] == "AvailableInside"
    # consistency at the empty set is unsatisfiable once any quorum exists,
    # so the empty set is never outlived for a populated system
    empty = check_outlived(qs, attack, set())
    assert not empty.holds and empty.witness[0] == "Consistency"


def test_maximal_outlived_sets_fig1_and_dqs():
    qs, attack = load_fixture("fig1")
    assert maximal_outlived_sets(qs, attack) == [frozenset({2, 3, 5})]
    dqs, dattack = load_fixture("dqs")
    assert maximal_outlived_sets(dqs, dattack) == [dattack.well_behaved]
    # no consistent pair at all: no nonempty outlived set
    split = new_quorum_system([1, 2], {1: [{1}], 2: [{2}]})
    assert maximal_outlived_sets(split, Attack.of([1, 2])) == []
    # dropping 3 (its only quorum needs Byzantine 4) leaves 1 and 2 with no
    # quorum inside {1, 2}; a single pass would stop at the consistent {1, 2}
    cascade = new_quorum_system(range(1, 5), {1: [{1, 2, 3}], 2: [{1, 2, 3}],
                                              3: [{1, 2, 3, 4}]}, byzantine=[4])
    assert maximal_outlived_sets(cascade, Attack.of(range(1, 5), [4])) == []
    # 4 passes inclusion for {2, 4} through {3, 4}: Byzantine 3 is not counted
    byz_member = new_quorum_system(range(1, 5), {1: [{1, 4}], 2: [{2, 4}],
                                                 4: [{1, 4}, {3, 4}]}, byzantine=[3])
    assert maximal_outlived_sets(byz_member, Attack.of(range(1, 5), [3])) == \
        [frozenset({1, 2, 4})]
    # 4 fails inclusion at W inside 1's {1, 2, 4}, so the first drop runs;
    # 2 survives it only through {2, 3}, cut to {2} without Byzantine 3
    cut_drop = new_quorum_system(range(1, 6), {1: [{1, 2, 4}], 2: [{2, 3}, {2, 5}],
                                               3: [{3, 4}], 4: [{1, 2, 4, 5}], 5: [{2, 5}]},
                                 byzantine=[3])
    attack = Attack.of(range(1, 6), [3])
    assert maximal_outlived_sets(cut_drop, attack) == [frozenset({2, 5})] == \
        oracles.oracle_maximal_outlived_sets(cut_drop, attack)


def _generated(make, rng, n):
    """A draw of ``make(rng, n_max=n)`` with exactly n processes."""
    while True:
        qs, attack = make(rng, n_max=n)
        if len(qs.universe) == n:
            return qs, attack


@pytest.mark.parametrize("n", [13, 30])
def test_maximal_outlived_set_is_outlived_and_maximal_past_12_processes(n):
    rng = random.Random(n)
    nonempty = 0
    for make in (arbitrary_system, sharing_system) * 10:
        qs, attack = _generated(make, rng, n)
        found = maximal_outlived_sets(qs, attack)
        assert len(found) <= 1
        if not found:
            continue
        o = found[0]
        nonempty += bool(o)
        assert check_outlived(qs, attack, o).holds
        for p in (qs.active & attack.well_behaved) - o:
            assert not check_outlived(qs, attack, o | {p}).holds, (o, p)
    assert nonempty >= 5


@st.composite
def small_systems(draw, n_max):
    """Unconstrained systems on 1..n with a few Byzantine and inactive
    processes; a Byzantine active process may declare nothing.  Quorums
    come mostly from a small shared pool, so quorums often intersect."""
    n = draw(st.integers(1, n_max))
    universe = range(1, n + 1)
    some = st.frozensets(st.sampled_from(universe), max_size=2)
    byz, active = draw(some), frozenset(universe) - draw(some)
    fresh = st.frozensets(st.sampled_from(universe), min_size=1, max_size=4)
    pool = draw(st.lists(fresh, min_size=1, max_size=3))
    quorum = st.one_of(st.sampled_from(pool), st.sampled_from(pool), fresh)
    decls = {p: draw(st.lists(quorum, min_size=1, max_size=3))
             for p in sorted(active) if p not in byz or draw(st.booleans())}
    qs = new_quorum_system(active, decls, universe=universe, byzantine=byz)
    return qs, Attack.of(universe, byz)


@settings(max_examples=150, deadline=None)
@given(small_systems(n_max=8))
def test_maximal_outlived_sets_match_exhaustive_oracle_hypothesis(system):
    qs, attack = system
    assert sorted(maximal_outlived_sets(qs, attack), key=sorted) == \
        sorted(oracles.oracle_maximal_outlived_sets(qs, attack), key=sorted)


@settings(max_examples=300, deadline=None)
@given(small_systems(n_max=6))
def test_outlived_sets_are_closed_under_union(system):
    qs, attack = system
    outlived = oracles.oracle_outlived_sets(qs, attack)
    for a in outlived:
        assert check_outlived(qs, attack, a).holds
        for b in outlived:
            assert check_outlived(qs, attack, a | b).holds, (a, b)


def test_maximal_outlived_matches_exhaustive_oracle():
    rng = random.Random(3)
    cases = [arbitrary_system(rng, n_max=5) for _ in range(25)]
    # no active well-behaved process: the empty set is the only outlived set
    everyone_byzantine = new_quorum_system([1, 2], {1: [[1, 2]]}, byzantine=[1, 2])
    cases.append((everyone_byzantine, Attack.of([1, 2], [1, 2])))
    for qs, attack in cases:
        got = sorted(maximal_outlived_sets(qs, attack), key=sorted)
        want = sorted(oracles.oracle_maximal_outlived_sets(qs, attack), key=sorted)
        assert got == want
    assert got == [frozenset()]


def test_checkers_match_oracles_on_random_systems():
    rng = random.Random(5)
    for _ in range(30):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = attack.well_behaved
        subsets = [frozenset(c) for c in oracles.powerset(wb)]
        sample = subsets if len(subsets) <= 16 else rng.sample(subsets, 16)
        for p_set in sample:
            assert (check_consistency(qs, attack, p_set).holds
                    == oracles.oracle_consistency(qs, attack, p_set))
            assert (check_available_inside(qs, p_set).holds
                    == oracles.oracle_availability(qs, p_set, p_set))
            assert (check_quorum_inclusion(qs, attack, p_set).holds
                    == oracles.oracle_inclusion(qs, attack, p_set))
        assert check_quorum_sharing(qs).holds == oracles.oracle_sharing(qs)


def test_lemma_minimal_quorum_intersection_iff_individual():
    rng = random.Random(9)
    for _ in range(40):
        qs, attack = arbitrary_system(rng, n_max=7)
        wb = attack.well_behaved
        mq = sorted(minimal_quorums(qs, attack), key=sorted)
        mq_inter = all(q1 & q2 & wb for q1 in mq for q2 in mq)
        all_inter = oracles.oracle_consistency(qs, attack, wb)
        assert mq_inter == all_inter
        # pres-inter-min-q: minimal-quorum intersection implies consistency
        if mq_inter:
            assert check_consistency(qs, attack, wb).holds


def test_lemma_blocking_sets_intersect_availability_set():
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = sorted(attack.well_behaved)
        for p_set in (frozenset(c) for c in oracles.powerset(wb)):
            if not p_set or not check_available_inside(qs, p_set).holds:
                continue
            universe = qs.universe
            for p in p_set:
                for cand in oracles.powerset(universe):
                    cand = frozenset(cand)
                    if is_blocking(qs, p, cand):
                        checked += 1
                        assert cand & p_set
            break
    assert checked > 0


def test_active_blocking_lemma_variant():
    qs, _ = load_fixture("fig1")
    # active availability inside O={2,3,5} minus left={5}: every active
    # blocking set of a member intersects O minus left
    left = frozenset({5})
    o = frozenset({2, 3, 5})
    for p in o - left:
        for cand in oracles.powerset(qs.universe):
            cand = frozenset(cand)
            if all((q - left) & cand for q in qs.quorums_of(p)):
                assert cand & (o - left)


def test_active_blocking_lemma_on_random_systems():
    rng = random.Random(29)
    checked = 0
    for _ in range(25):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = sorted(attack.well_behaved)
        if not wb:
            continue
        left = frozenset(rng.sample(wb, rng.randint(0, len(wb) - 1)))
        p_set = frozenset(wb)
        if not check_active_availability(qs, p_set, left).holds:
            continue
        for p in sorted(p_set - left):
            for cand in oracles.powerset(qs.universe):
                cand = frozenset(cand)
                if cand and all((q - left) & cand for q in qs.quorums_of(p)):
                    checked += 1
                    assert cand & (p_set - left)
    assert checked > 20


def test_consistency_monotone_in_at_set():
    rng = random.Random(17)
    for _ in range(30):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = sorted(attack.well_behaved)
        small = frozenset(rng.sample(wb, rng.randint(0, len(wb))))
        large = small | frozenset(rng.sample(wb, rng.randint(0, len(wb))))
        if check_consistency(qs, attack, small).holds:
            assert check_consistency(qs, attack, large).holds


def test_active_checks_monotone_in_left():
    rng = random.Random(19)
    for _ in range(30):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = sorted(attack.well_behaved)
        if not wb:
            continue
        p_set = frozenset(rng.sample(wb, rng.randint(1, len(wb))))
        left_small = frozenset(rng.sample(wb, rng.randint(0, len(wb))))
        left_large = left_small | frozenset(rng.sample(wb, rng.randint(0, len(wb))))
        if check_active_inclusion(qs, attack, p_set, left_small).holds:
            assert check_active_inclusion(qs, attack, p_set, left_large).holds
        if check_active_availability(qs, p_set, left_small).holds:
            assert check_active_availability(qs, p_set, left_large).holds


def test_failing_witnesses_violate_definitions():
    rng = random.Random(23)
    seen = 0
    for _ in range(60):
        qs, attack = arbitrary_system(rng, n_max=5)
        wb = attack.well_behaved
        rep = check_consistency(qs, attack, wb)
        if not rep.holds:
            q1, q2 = rep.witness
            assert not (q1 & q2 & wb)
            seen += 1
        rep = check_quorum_inclusion(qs, attack, wb)
        if not rep.holds:
            q, p2 = rep.witness
            assert not any((q2 & wb) <= q for q2 in qs.quorums_of(p2)) \
                if qs.declares(p2) else True
            seen += 1
    assert seen > 5


def test_report_serialization_round_trip():
    qs, attack = load_fixture("attack_s5")
    rep = check_consistency(qs, attack, attack.well_behaved)
    blob = report_to_json(rep)
    assert '"holds": false' in blob and '"property": "Consistency"' in blob


def test_holding_reports_are_frozen_and_equal_fresh_ones():
    qs, attack = load_fixture("fig1")
    o = frozenset({2, 3, 5})
    held = [check_consistency(qs, attack, o), check_availability(qs, o, o),
            check_available_inside(qs, o), check_quorum_inclusion(qs, attack, o),
            check_outlived(qs, attack, o), check_active_inclusion(qs, attack, o, {5}),
            check_active_availability(qs, o, {5}),
            check_tentative_inclusion(qs, attack, o, {2: {(4, frozenset({2, 3}))}})]
    assert [r.property for r in held] == [CONSISTENCY, AVAILABILITY, AVAILABLE_INSIDE,
                                          INCLUSION, OUTLIVED, ACTIVE_INCLUSION,
                                          ACTIVE_AVAILABILITY, TENTATIVE_INCLUSION]
    for rep in held:
        fresh = PropertyReport(rep.property, True, None)
        assert rep == fresh and report_to_json(rep) == report_to_json(fresh)
        with pytest.raises(FrozenInstanceError):
            rep.holds = False
        with pytest.raises(FrozenInstanceError):
            rep.witness = (o,)
    assert check_consistency(qs, attack, o) == PropertyReport(CONSISTENCY, True, None)


def test_failing_reports_each_keep_their_own_witness():
    reports = []
    for name in ("attack_s5", "draft_cycle"):
        qs, attack = load_fixture(name)
        reports.append(check_quorum_inclusion(qs, attack, attack.well_behaved))
    assert [(r.holds, r.witness) for r in reports] == [
        (False, (frozenset({1, 3}), 1)), (False, (frozenset({1, 3}), 3))]


def test_consistency_witness_covers_single_quorum_case():
    # a lone quorum missing the at-set is itself a violation (q paired with q)
    w = consistency_witness({1: (frozenset({1, 2}),)}, frozenset({3}))
    assert w == (frozenset({1, 2}), frozenset({1, 2}))


def test_consistency_witness_repeated_quorum_pairs_with_itself():
    a, b = frozenset({1, 2}), frozenset({2, 3})
    # a misses the at-set; the pair loop meets (a, a) before (a, b)
    assert consistency_witness({1: (a,), 2: (a,), 3: (b,)}, frozenset({3})) == (a, a)
    assert consistency_witness({1: (a,), 2: (b,), 3: (a,)}, frozenset({3})) == (a, b)


_pool_quorums = st.lists(st.frozensets(st.integers(1, 6), min_size=1, max_size=4),
                         min_size=1, max_size=5)


@st.composite
def repeated_declarations(draw):
    """Process -> quorums drawn from a small pool, so quorums repeat within
    and across processes."""
    pool = draw(_pool_quorums)
    pids = draw(st.lists(st.one_of(st.integers(1, 8), st.sampled_from("abc")),
                         unique=True, max_size=8))
    return {p: tuple(draw(st.lists(st.sampled_from(pool), max_size=4))) for p in pids}


@settings(max_examples=400, deadline=None)
@given(repeated_declarations(), st.frozensets(st.integers(1, 6), max_size=6))
def test_consistency_witness_matches_pair_loop_oracle(wb_quorums, at_p):
    assert consistency_witness(wb_quorums, at_p) == \
        oracles.oracle_consistency_witness(wb_quorums, at_p)


def test_consistency_fast_path_needs_the_common_member_inside_the_at_set():
    a, b, c = frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})
    # every quorum holds 1, which is not in the at-set: a and b still miss it
    assert consistency_witness({1: (a,), 2: (b,)}, frozenset({2, 3})) == (a, b)
    # no member is common to all three, yet every pair meets inside {1, 2, 3}
    assert consistency_witness({1: (a, b), 2: (c,)}, frozenset({1, 2, 3})) is None


_mixed_ids = st.integers(1, 4) | st.sampled_from("abc")
_mixed_sets = st.frozensets(_mixed_ids, max_size=7)


@st.composite
def mixed_declarations(draw):
    """Process -> quorums over int and str ids, drawn from a small pool so
    quorums repeat within and across processes; plus the pool itself."""
    pool = draw(st.lists(st.frozensets(_mixed_ids, min_size=1, max_size=4),
                         min_size=1, max_size=5))
    pids = draw(st.lists(_mixed_ids, unique=True, max_size=7))
    return {p: tuple(draw(st.lists(st.sampled_from(pool), max_size=3))) for p in pids}, pool


@settings(max_examples=150, deadline=None)
@given(mixed_declarations(), _mixed_sets, _mixed_sets, _mixed_sets, st.data())
def test_inclusion_witness_matches_the_ordered_loop_oracle(decls, p_set, wb, left, data):
    wb_quorums, pool = decls
    tentative = data.draw(st.dictionaries(_mixed_ids, st.frozensets(
        st.tuples(_mixed_ids, st.sampled_from(pool)), max_size=2), max_size=3))
    for args in ((), (left,), (left, tentative), (frozenset(), tentative)):
        assert inclusion_witness(wb_quorums, p_set, wb, *args) == \
            oracles.oracle_inclusion_witness(wb_quorums, p_set, wb, *args)


@settings(max_examples=200, deadline=None)
@given(mixed_declarations(), _mixed_sets)
def test_sharing_and_consistency_witnesses_match_their_oracles_on_mixed_ids(decls, at_p):
    quorums, _ = decls
    assert sharing_witness(quorums) == oracles.oracle_sharing_witness(quorums)
    assert consistency_witness(quorums, at_p) == \
        oracles.oracle_consistency_witness(quorums, at_p)


def test_inclusion_and_sharing_witnesses_match_their_oracles_on_generated_systems():
    rng = random.Random(41)
    failed = 0
    for i in range(300):
        qs, attack = (arbitrary_system if i % 2 else sharing_system)(rng, n_max=9)
        quorums = {p: qs.quorums_of(p) for p in qs.active if qs.declares(p)}
        wb = attack.well_behaved
        wb_quorums = {p: q for p, q in quorums.items() if p in wb}
        w = sharing_witness(quorums)
        assert w == oracles.oracle_sharing_witness(quorums)
        assert inclusion_witness(wb_quorums, wb, wb) == \
            oracles.oracle_inclusion_witness(wb_quorums, wb, wb)
        failed += w is not None
    assert 0 < failed < 300   # both paths ran


def _inclusion_mistake(cut):
    """oracles.oracle_inclusion_witness with each candidate c cut to
    ``cut(c, wb)`` instead of its well-behaved active part: a negative
    control for inclusion_witness's candidate test."""
    def witness(wb_quorums, p_set, wb, left=frozenset()):
        for p in sorted_ids(wb_quorums):
            for q in wb_quorums[p]:
                for p2 in sorted_ids((q & p_set) - left):
                    if not any(cut(c, wb) <= q for c in wb_quorums.get(p2, ())):
                        return q, p2
        return None
    return witness


INCLUSION_MISTAKES = {"cut by wb only, left ignored": _inclusion_mistake(frozenset.__and__),
                      "not cut at all": _inclusion_mistake(lambda c, wb: c)}


def test_inclusion_and_sharing_witnesses_match_their_oracles_past_12_processes():
    rng = random.Random(53)
    failed = 0
    checked = 0
    told_apart = dict.fromkeys(INCLUSION_MISTAKES, 0)
    while checked < 60:
        qs, attack = sharing_system(rng, n_max=40)
        wb = attack.well_behaved
        if len(qs.active & wb) <= 12:
            continue
        checked += 1
        quorums = {p: qs.quorums_of(p) for p in qs.active if qs.declares(p)}
        if checked % 2:   # a pivot, in every quorum, grows its own, so checks can fail
            pivots = frozenset.intersection(*(q for qq in quorums.values() for q in qq))
            p = rng.choice(sorted(pivots))
            quorums[p] = tuple(q | {rng.choice(sorted(qs.universe))} for q in quorums[p])
        wb_quorums = {p: q for p, q in quorums.items() if p in wb}
        assert sharing_witness(quorums) == oracles.oracle_sharing_witness(quorums)
        left = frozenset(rng.sample(sorted(wb), 1 + rng._randbelow(3)))
        for args in ((), (left,)):
            w = inclusion_witness(wb_quorums, wb, wb, *args)
            assert w == oracles.oracle_inclusion_witness(wb_quorums, wb, wb, *args)
            failed += w is not None
            for name, mistake in INCLUSION_MISTAKES.items():
                told_apart[name] += mistake(wb_quorums, wb, wb, *args) != w
    assert 0 < failed < 120   # both paths ran
    # the population catches either mistake, on these many of its 120 calls
    assert told_apart == {"cut by wb only, left ignored": 3, "not cut at all": 27}


# --- every front end answers as a fresh call would --------------------------

_UNRELATED = new_quorum_system([1], {1: [{1}]})


def _tentative(s, t):
    """A tentative map from two drawn sets: each member of s holds t."""
    return {p: {(p, t)} for p in s}


FRONT_ENDS = {
    "consistency": lambda qs, attack, s, t: check_consistency(qs, attack, s),
    "inclusion": lambda qs, attack, s, t: check_quorum_inclusion(qs, attack, s),
    "availability": lambda qs, attack, s, t: check_availability(qs, s, t),
    "available_inside": lambda qs, attack, s, t: check_available_inside(qs, s),
    "sharing": lambda qs, attack, s, t: check_quorum_sharing(qs),
    "outlived": lambda qs, attack, s, t: check_outlived(qs, attack, s),
    "maxout": lambda qs, attack, s, t: maximal_outlived_sets(qs, attack),
    "active_inclusion": lambda qs, attack, s, t: check_active_inclusion(qs, attack, s, t),
    "tentative_inclusion": lambda qs, attack, s, t: check_tentative_inclusion(
        qs, attack, s, _tentative(s, t)),
}


def _outcome(call):
    """(property, holds, witness) of a report, the sorted sets of a
    maximal_outlived_sets answer, or the type of the error raised."""
    try:
        result = call()
    except HqsError as e:
        return type(e)
    if isinstance(result, list):
        return sorted(result, key=sorted)
    return result.property, result.holds, result.witness


def _fresh(call):
    """``call``'s outcome right after checking an unrelated system."""
    check_quorum_sharing(_UNRELATED)
    return _outcome(call)


def _oracle_outcome(name, qs, attack, s, t):
    """What tests/oracles.py answers for a front-end call that raised nothing."""
    if name == "maxout":
        return sorted(oracles.oracle_maximal_outlived_sets(qs, attack), key=sorted)
    wb = attack.well_behaved
    declared = {p: qs.quorums_of(p) for p in qs.active if qs.declares(p)}
    wb_quorums = {p: q for p, q in declared.items() if p in wb}
    parts = {CONSISTENCY: oracles.oracle_consistency_witness(wb_quorums, s),
             AVAILABLE_INSIDE: oracles.oracle_availability_witness(declared, s, s),
             INCLUSION: oracles.oracle_inclusion_witness(wb_quorums, s, wb)}
    prop, w = {
        "consistency": (CONSISTENCY, parts[CONSISTENCY]),
        "inclusion": (INCLUSION, parts[INCLUSION]),
        "availability": (AVAILABILITY, oracles.oracle_availability_witness(declared, s, t)),
        "available_inside": (AVAILABLE_INSIDE, parts[AVAILABLE_INSIDE]),
        "sharing": (SHARING, oracles.oracle_sharing_witness(declared)),
        "outlived": (OUTLIVED, next(((part, *pw) for part, pw in parts.items()
                                     if pw is not None), None)),
        "active_inclusion": (ACTIVE_INCLUSION,
                             oracles.oracle_inclusion_witness(wb_quorums, s, wb, left=t)),
        "tentative_inclusion": (TENTATIVE_INCLUSION, oracles.oracle_inclusion_witness(
            wb_quorums, s, wb, tentative=_tentative(s, t))),
    }[name]
    return prop, w is None, w


@st.composite
def generated_systems(draw):
    """A system from gen.arbitrary_system or gen.sharing_system with n <= 8,
    or a sharing system with more than 12 active well-behaved processes."""
    kind = draw(st.sampled_from(("arbitrary", "sharing", "past_12")))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "arbitrary":
        return arbitrary_system(rng, n_max=8)
    if kind == "sharing":
        return sharing_system(rng, n_max=8)
    while True:
        qs, attack = sharing_system(rng, n_max=30)
        if len(qs.active & attack.well_behaved) > 12:
            return qs, attack


def _subsets(ids):
    return st.frozensets(st.sampled_from(sorted(ids))) if ids else st.just(frozenset())


@settings(max_examples=150, deadline=None)
@given(generated_systems(), generated_systems(), st.data())
def test_front_ends_answer_as_fresh_calls_in_any_order(first, second, data):
    """Every front end on one system, in a drawn order with repeats,
    interleaved with a second Attack on that system and with a second
    system: each outcome equals the same call made on its own, and for
    n <= 8 the oracles' answer."""
    qs, attack = first
    other = Attack.of(qs.universe, data.draw(st.frozensets(st.sampled_from(sorted(qs.universe)),
                                                           max_size=3)))
    targets = (first, (qs, other), second)
    # the two attacks on the first system are asked the same calls, and
    # most of its sets are well-behaved under both
    shared = qs.active & attack.well_behaved & other.well_behaved
    menus = [(shared, shared, qs.active & attack.well_behaved, attack.well_behaved,
              data.draw(_subsets(shared)), data.draw(_subsets(qs.universe)))]
    wb = second[1].well_behaved
    menus.append((second[0].active & wb, second[0].active & wb, wb,
                  data.draw(_subsets(wb)), data.draw(_subsets(second[0].universe))))

    def drawn_sets(menu):
        return data.draw(st.sampled_from(menu)), data.draw(st.sampled_from(menu))

    pool = []
    for name in FRONT_ENDS:
        s, t = drawn_sets(menus[0])
        pool += [(0, name, s, t), (1, name, s, t), (2, name, *drawn_sets(menus[1]))]
    order = data.draw(st.permutations(pool)) + data.draw(st.lists(st.sampled_from(pool),
                                                                 max_size=10))

    def run(call):
        i, name, s, t = call
        return lambda: FRONT_ENDS[name](*targets[i], s, t)

    want = {call: _fresh(run(call)) for call in pool}
    for call in order:
        assert _outcome(run(call)) == want[call], call
    for (i, name, s, t), outcome in want.items():
        tqs, tattack = targets[i]
        if len(tqs.universe) <= 8 and not isinstance(outcome, type):
            assert outcome == _oracle_outcome(name, tqs, tattack, s, t), (name, s, t)


def test_a_rejected_call_leaves_the_next_report_intact():
    qs, attack = load_fixture("fig1")
    wb = qs.active & attack.well_behaved
    with_byzantine = wb | attack.byzantine
    trusting = Attack.of(qs.universe)   # the same ids, none of them Byzantine
    for check in (check_consistency, check_quorum_inclusion, check_outlived):
        for valid_attack, valid_set in ((attack, wb), (trusting, with_byzantine)):
            want = _fresh(lambda: check(qs, valid_attack, valid_set))
            with pytest.raises(BadSubset):
                check(qs, attack, with_byzantine)
            assert _outcome(lambda: check(qs, valid_attack, valid_set)) == want


def test_outlived_with_an_inactive_member_raises_whether_or_not_its_parts_hold():
    # 4 is well-behaved but inactive; every quorum holds 1 and 2
    qs = new_quorum_system([1, 2, 3], {1: [{1, 2}], 2: [{1, 2}], 3: [{1, 2, 3}]},
                           universe=[1, 2, 3, 4])
    attack = Attack.of(qs.universe)
    for o, consistent in ((frozenset({1, 2, 4}), True), (frozenset({3, 4}), False)):
        for parts_first in (False, True):
            check_quorum_sharing(_UNRELATED)
            if parts_first:
                assert check_consistency(qs, attack, o).holds is consistent
                check_quorum_inclusion(qs, attack, o)
                with pytest.raises(UnknownProcess):
                    check_available_inside(qs, o)
            with pytest.raises(UnknownProcess):
                check_outlived(qs, attack, o)
            with pytest.raises(UnknownProcess):
                check_outlived(qs, attack, o)
        assert _fresh(lambda: check_consistency(qs, attack, o))[1] is consistent


def test_threads_sharing_the_memo_get_each_system_its_own_answers():
    # one universe and one attack, so every system's memo keys are the same
    rng = random.Random(61)
    attack = Attack.of(range(1, 7))
    systems = []
    for make in (arbitrary_system, sharing_system) * 4:
        qs = _generated(make, rng, 6)[0]
        wb = sorted_ids(qs.active & attack.well_behaved)
        # t strictly inside W, so that active inclusion (left = t) can fail
        systems.append((qs, attack, frozenset(rng.sample(wb, rng.randrange(len(wb))))))

    def calls(qs, attack, t):
        wb = qs.active & attack.well_behaved
        return [lambda f=f: f(qs, attack, wb, t) for f in FRONT_ENDS.values()]

    want = [list(map(_fresh, calls(*system))) for system in systems]
    active_inclusion = list(FRONT_ENDS).index("active_inclusion")
    assert any(not w[active_inclusion][1] for w in want)   # some witness is owed
    wrong = []

    def worker(k):
        for i in range(40):
            j = (i * (k + 1)) % len(systems)
            if list(map(_outcome, calls(*systems[j]))) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# --- maximal_outlived_sets after inclusion at W -----------------------------

def _maxout_alone_and_after_inclusion(qs, attack):
    """maximal_outlived_sets on a fresh memo, then again right after
    check_quorum_inclusion at W (the active well-behaved set); and whether
    inclusion at W holds."""
    alone = _fresh(lambda: maximal_outlived_sets(qs, attack))
    check_quorum_sharing(_UNRELATED)
    holds = check_quorum_inclusion(qs, attack, qs.active & attack.well_behaved).holds
    return alone, _outcome(lambda: maximal_outlived_sets(qs, attack)), holds


def test_maximal_outlived_sets_answer_alike_after_inclusion_at_w():
    rng = random.Random(67)
    seen = {True: 0, False: 0}
    for i in range(300):
        qs, attack = (arbitrary_system, sharing_system)[i % 2](rng, n_max=8)
        if i % 3 == 0:   # another attack: W may hold Byzantine declarers
            attack = Attack.of(qs.universe, rng.sample(sorted(qs.universe), i % 4))
        alone, after, holds = _maxout_alone_and_after_inclusion(qs, attack)
        seen[holds] += 1
        assert after == alone == sorted(oracles.oracle_maximal_outlived_sets(qs, attack),
                                        key=sorted), (qs, attack)
    assert min(seen.values()) >= 50, seen


@settings(max_examples=150, deadline=None)
@given(small_systems(n_max=8) | generated_systems())
def test_maximal_outlived_sets_answer_alike_after_inclusion_at_w_hypothesis(system):
    qs, attack = system
    alone, after, _ = _maxout_alone_and_after_inclusion(qs, attack)
    assert after == alone
    if len(qs.universe) <= 8:
        assert alone == sorted(oracles.oracle_maximal_outlived_sets(qs, attack), key=sorted)


# --- sharing implies inclusion ----------------------------------------------

def _with_str_ids(qs, attack, rng):
    """qs and attack with about half of their ids renamed to strings."""
    name = {p: f"p{p}" if rng.random() < 0.5 else p for p in qs.universe}
    decls = {name[p]: [frozenset(map(name.get, q)) for q in qs.quorums_of(p)]
             for p in qs.active if qs.declares(p)}
    byz = frozenset(map(name.get, attack.byzantine))
    universe = frozenset(name.values())
    return (new_quorum_system(map(name.get, qs.active), decls, universe=universe,
                              byzantine=byz), Attack(universe, byz))


def _p_sets(wb, rng, samples=16):
    """Every subset of wb when it has at most 8 members, else wb, the empty
    set and ``samples`` drawn subsets."""
    ids = sorted_ids(wb)
    if len(ids) <= 8:
        return [frozenset(c) for c in oracles.powerset(ids)]
    return [wb, frozenset()] + [frozenset(rng.sample(ids, rng.randrange(len(ids) + 1)))
                                for _ in range(samples)]


def _sharing_implies_inclusion(qs, attack, rng):
    """Whether the active map shares; if it does, the raw inclusion_witness
    is None at every P inside wb that _p_sets offers."""
    quorums = {p: qs.quorums_of(p) for p in qs.active if qs.declares(p)}
    if sharing_witness(quorums) is not None:
        return False
    wb = attack.well_behaved
    wb_quorums = {p: q for p, q in quorums.items() if p in wb}
    for p_set in _p_sets(wb, rng):
        assert inclusion_witness(wb_quorums, p_set, wb) is None, (qs, attack, p_set)
    return True


@pytest.mark.parametrize("make,n_max,count,at_least", [
    (arbitrary_system, 6, 400, 60),   # the arbitrary systems that happen to share
    (sharing_system, 12, 150, 150),
    (sharing_system, 80, 20, 20),
])
def test_sharing_implies_inclusion_at_every_well_behaved_set(make, n_max, count, at_least):
    rng = random.Random(71 + n_max)
    shared = mixed = 0
    for i in range(count):
        qs, attack = make(rng, n_max=n_max)
        if i % 2:
            qs, attack = _with_str_ids(qs, attack, rng)
            mixed += any(isinstance(p, str) for p in qs.universe)
        shared += _sharing_implies_inclusion(qs, attack, rng)
    assert shared >= at_least and mixed >= count // 4, (shared, mixed)


def _with_an_idle_id(qs, attack):
    """qs and attack with one more id: well-behaved, inactive, in no quorum."""
    idle = max(qs.universe) + 1
    universe = qs.universe | {idle}
    decls = {p: qs.quorums_of(p) for p in qs.active if qs.declares(p)}
    return (new_quorum_system(qs.active, decls, universe=universe,
                              byzantine=attack.byzantine), Attack(universe, attack.byzantine))


def test_inclusion_front_end_matches_the_oracles_in_every_memo_state():
    """check_quorum_inclusion on a cold memo, after check_quorum_sharing and
    after check_consistency, at sets that hold inactive well-behaved ids:
    the answer is the oracles' whether sharing holds or not."""
    rng = random.Random(73)
    seen = {True: 0, False: 0}
    for i in range(120):
        qs, attack = (arbitrary_system, sharing_system)[i % 2](rng, n_max=7)
        qs, attack = _with_an_idle_id(qs, attack)
        if i % 3 == 0:
            qs, attack = _with_str_ids(qs, attack, rng)
        wb = attack.well_behaved
        seen[check_quorum_sharing(qs).holds] += 1
        subsets = _p_sets(wb, rng)
        for p_set in [wb, *rng.sample(subsets, min(len(subsets), 12))]:
            p_set |= wb - qs.active
            want = _oracle_outcome("inclusion", qs, attack, p_set, frozenset())
            assert want[1] is oracles.oracle_inclusion(qs, attack, p_set)

            def call():
                return check_quorum_inclusion(qs, attack, p_set)
            assert _fresh(call) == want, (qs, attack, p_set)
            for first in (lambda: check_quorum_sharing(qs),
                          lambda: check_consistency(qs, attack, wb)):
                check_quorum_sharing(_UNRELATED)
                first()
                assert _outcome(call) == want, (qs, attack, p_set)
    assert min(seen.values()) >= 30, seen

