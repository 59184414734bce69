import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hqs.core import leave, new_quorum_system, remove, sorted_ids
from hqs.errors import PreconditionNotVerified, UnknownProcess
from hqs.fixtures import FIXTURE_NAMES, load_fixture
from hqs.gen import arbitrary_system, checked_sharing_system, sharing_system
from hqs.graph import (
    QuorumGraph,
    build_graph,
    condense,
    in_sink,
    is_min_quorum_by_agreement,
    sink_components,
    sink_members,
    to_dot,
    well_behaved_sink,
)
from hqs.props import check_consistency
from hqs.core import minimal_quorums

import oracles


def test_fig2_edges():
    qs, _ = load_fixture("fig2")
    g = build_graph(qs)
    assert {(4, 1), (4, 2), (6, 1), (6, 2)} <= g.edges
    for a, b in combinations([1, 2], 2):
        assert (a, b) in g.edges and (b, a) in g.edges
    for a, b in combinations([1, 3, 5], 2):
        assert (a, b) in g.edges and (b, a) in g.edges


def test_fig1_edges_and_undeclared_vertex():
    qs, _ = load_fixture("fig1")
    g = build_graph(qs)
    assert (1, 4) in g.edges
    assert not any(src == 4 for (src, _) in g.edges)
    assert 4 in g.vertices


def test_self_loop_singleton():
    qs = new_quorum_system([1], {1: [{1}]})
    g = build_graph(qs)
    assert g.edges == {(1, 1)}
    cond = condense(g)
    assert sink_components(cond) == [frozenset({1})]


def test_fig2_condensation_and_sink():
    qs, attack = load_fixture("fig2")
    cond = condense(build_graph(qs))
    comps = {frozenset(c) for c in cond.components}
    assert comps == {frozenset({1, 2, 3, 5}), frozenset({4}), frozenset({6})}
    sinks = sink_components(cond)
    assert sinks == [frozenset({1, 2, 3, 5})]
    assert well_behaved_sink(qs, attack) == frozenset({1, 2, 3})
    assert in_sink(qs, attack, 3)
    assert not in_sink(qs, attack, 4)
    with pytest.raises(UnknownProcess):
        in_sink(qs, attack, 9)


def test_condensation_matches_reachability_oracle():
    rng = random.Random(31)
    for _ in range(40):
        qs, _ = checked_sharing_system(rng, n_max=7)
        g = build_graph(qs)
        cond = condense(g)
        assert sorted(map(sorted_ids, cond.components)) == sorted(
            map(sorted_ids, oracles.oracle_components(g.vertices, g.edges)))
        assert sorted(map(sorted_ids, sink_components(cond))) == sorted(
            map(sorted_ids, oracles.oracle_sinks(g.vertices, g.edges)))


def test_dag_and_complete_graph_edges():
    chain = new_quorum_system([1, 2, 3], {1: [{2}], 2: [{3}], 3: [{3}]})
    cond = condense(build_graph(chain))
    assert all(len(c) == 1 for c in cond.components)
    clique = new_quorum_system([1, 2, 3], {p: [{1, 2, 3}] for p in (1, 2, 3)})
    assert len(condense(build_graph(clique)).components) == 1


def test_two_disconnected_cliques_give_two_sinks():
    qs = new_quorum_system(
        [1, 2, 3, 4],
        {1: [{1, 2}], 2: [{1, 2}], 3: [{3, 4}], 4: [{3, 4}]})
    sinks = sink_components(condense(build_graph(qs)))
    assert len(sinks) == 2


def test_min_quorum_by_agreement():
    qs, attack = load_fixture("fig2")
    assert is_min_quorum_by_agreement(qs, attack, {1, 2})
    assert not is_min_quorum_by_agreement(qs, attack, {1, 2, 4})
    # no well-behaved members: vacuously true, caller must guard
    assert is_min_quorum_by_agreement(qs, attack, {5})


def test_min_quorum_by_agreement_requires_preconditions():
    qs, attack = load_fixture("draft_cycle")  # no sharing
    with pytest.raises(PreconditionNotVerified):
        is_min_quorum_by_agreement(qs, attack, {1, 3})


def test_dot_export_stable_and_annotated():
    qs, attack = load_fixture("fig2")
    dot = to_dot(qs, attack)
    assert dot == to_dot(qs, attack)
    assert dot.startswith("digraph")
    assert '"5" [style="filled,dashed"' in dot  # Byzantine member of the sink
    assert '"4" -> "1";' in dot


def test_dot_export_of_every_fixture_is_pinned():
    dots = "".join(to_dot(*load_fixture(name)) for name in FIXTURE_NAMES)
    assert hashlib.sha256(dots.encode()).hexdigest() == \
        "e797491cea4139c6a2ebfb221834977fe5a16233c6e0f76f9940de628550d933"


def graph_of(vertices, edges):
    """The QuorumGraph on ``vertices`` whose (p, p') pairs are ``edges``."""
    return QuorumGraph({v: frozenset(b for a, b in edges if a == v) for v in vertices})


def assert_condense_matches_oracle(g):
    cond = condense(g)
    assert (cond.components, cond.dag_edges) == oracles.oracle_condense(g.vertices, g.edges)


def test_condense_matches_the_sorted_tarjan_oracle_on_generated_systems():
    rng = random.Random(43)
    for i in range(150):
        qs, _ = (arbitrary_system, sharing_system, checked_sharing_system)[i % 3](rng, n_max=12)
        assert_condense_matches_oracle(build_graph(qs))


_graph_ids = st.integers(-2, 6) | st.text("ab", min_size=1, max_size=2)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(_graph_ids, max_size=9).flatmap(lambda vs: st.tuples(
    st.just(vs), st.frozensets(st.tuples(st.sampled_from(sorted(vs, key=str)),
                                         st.sampled_from(sorted(vs, key=str))), max_size=20)
    if vs else st.just(frozenset()))))
def test_condense_matches_the_sorted_tarjan_oracle_on_mixed_id_graphs(graph):
    assert_condense_matches_oracle(graph_of(*graph))


def graph_lemma_violations(qs, attack):
    """Check lemmas 1-3, 6 and the containment theorem on one system."""
    wb = attack.well_behaved
    g = build_graph(qs)
    mq = minimal_quorums(qs, attack)
    sinks = sink_components(condense(g))
    bad = []
    if len(sinks) != 1:
        bad.append("unique-sink")
        return bad
    sink = sinks[0]
    members = set()
    for q in mq:
        wb_members = q & wb
        members |= wb_members
        for a in wb_members:
            for b in wb_members:
                if a != b and (a, b) not in g.edges:
                    bad.append("clique")
    for p in qs.active & wb:
        if not any(all((p, m) in g.edges for m in q) for q in mq):
            bad.append("adjacency")
    if not members <= sink:
        bad.append("containment")
    if members:
        comp = {frozenset(c) for c in oracles.oracle_components(members, {
            (a, b) for (a, b) in g.edges if a in members and b in members})}
        if len(comp) != 1:
            bad.append("strong-connectivity")
    return bad


def test_graph_lemmas_on_generated_systems():
    rng = random.Random(37)
    for _ in range(60):
        qs, attack = checked_sharing_system(rng, n_max=7)
        assert graph_lemma_violations(qs, attack) == []


def test_out_sink_leave_preserves_consistency():
    rng = random.Random(41)
    tried = 0
    for _ in range(80):
        qs, attack = checked_sharing_system(rng, n_max=7)
        wb = attack.well_behaved
        sink = sink_members(qs)
        outsiders = sorted_ids((qs.active & wb) - sink)
        for p in outsiders:
            tried += 1
            after = leave(qs, p)
            assert check_consistency(after, attack, wb - {p}).holds
            for q in qs.quorums_of(p):
                removed = remove(qs, p, q)
                assert check_consistency(removed, attack, wb).holds
    assert tried > 10


def test_condense_matches_the_sorted_tarjan_oracle_on_large_sharing_systems():
    # past 12 processes nearly every component is a lone vertex no other
    # vertex points to, which condense emits before it runs Tarjan
    rng = random.Random(47)
    for _ in range(60):
        qs, _ = sharing_system(rng, n_max=80)
        assert_condense_matches_oracle(build_graph(qs))


@pytest.mark.parametrize("vertices,edges,components,dag_edges", [
    # a source that points into a cycle
    ({1, 2, 3}, {(1, 2), (2, 3), (3, 2)}, ({1}, {2, 3}), {(0, 1)}),
    # a vertex whose only in-edge is its own self-loop, pointing into a cycle
    ({1, 2, 3}, {(1, 1), (1, 2), (2, 3), (3, 2)}, ({1}, {2, 3}), {(0, 1)}),
    # an edge into a vertex with no out-edges
    ({1, 2, 3}, {(1, 2), (2, 1), (2, 3)}, ({1, 2}, {3}), {(0, 1)}),
    # mixed int and str ids: ints first, a str source into an int cycle
    ({"a", "b", 2, 10}, {("b", 10), (10, 2), (2, 10), ("a", "a")},
     ({2, 10}, {"a"}, {"b"}), {(2, 0)}),
])
def test_condense_on_hand_built_graphs(vertices, edges, components, dag_edges):
    g = graph_of(vertices, edges)
    cond = condense(g)
    assert cond.components == tuple(map(frozenset, components))
    assert cond.dag_edges == frozenset(dag_edges)
    assert_condense_matches_oracle(g)


# --- sinks, edges and dag_edges against the oracles -------------------------

def declared_edges(qs):
    return {(p, p2) for p, q in qs.declared() for p2 in q}


def assert_sinks_match_oracle(g):
    cond = condense(g)
    assert sink_components(cond) == oracles.oracle_sinks(g.vertices, g.edges)
    # dag_edges read after the sinks still equals the oracle's
    assert (cond.components, cond.dag_edges) == oracles.oracle_condense(g.vertices, g.edges)


def test_sinks_match_the_oracle_on_generated_systems_up_to_80_processes():
    rng = random.Random(53)
    for i in range(60):
        make = (arbitrary_system, sharing_system)[i % 2]
        qs, _ = make(rng, n_max=(8, 80)[i % 4 // 2])
        assert_sinks_match_oracle(build_graph(qs))


@settings(max_examples=200, deadline=None)
@given(st.frozensets(_graph_ids, max_size=9).flatmap(lambda vs: st.tuples(
    st.just(vs), st.frozensets(st.tuples(st.sampled_from(sorted(vs, key=str)),
                                         st.sampled_from(sorted(vs, key=str))), max_size=20)
    if vs else st.just(frozenset()))))
def test_sinks_match_the_oracle_on_mixed_id_graphs(graph):
    assert_sinks_match_oracle(graph_of(*graph))


@pytest.mark.parametrize("vertices,edges,sinks", [
    # a vertex whose only edge is its own self-loop
    ({1, 2}, {(1, 1), (2, 1)}, [{1}]),
    ({1, 2, 3}, {(3, 3)}, [{1}, {2}, {3}]),
    # a vertex that declares nothing
    ({1, 2, 3}, {(1, 2), (2, 1), (1, 3)}, [{3}]),
    ({"a", 1, 2}, {(1, 1), (2, 1), (2, 2)}, [{1}, {"a"}]),
    # no edges
    ({1, "b", 3}, set(), [{1}, {3}, {"b"}]),
    # the empty graph
    (set(), set(), []),
])
def test_sinks_on_hand_built_graphs(vertices, edges, sinks):
    g = graph_of(vertices, edges)
    assert g.vertices == frozenset(vertices) and g.edges == frozenset(edges)
    assert sink_components(condense(g)) == list(map(frozenset, sinks))
    assert_sinks_match_oracle(g)


def test_build_graph_edges_are_the_declared_pairs():
    # fixtures hold Byzantine declarers and vertices that declare nothing
    systems = [load_fixture(name)[0] for name in FIXTURE_NAMES]
    assert any(not qs.declares(p) for qs in systems for p in qs.universe)
    rng = random.Random(59)
    systems += [make(rng, n_max=n)[0] for make in (arbitrary_system, sharing_system)
                for n in (3, 8, 30, 80) for _ in range(5)]
    for qs in systems:
        g = build_graph(qs)
        assert g.vertices == qs.universe
        assert g.edges == declared_edges(qs)
        assert_sinks_match_oracle(g)
