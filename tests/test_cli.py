import json
import os
import random
import tempfile
from functools import reduce
from importlib import resources
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hqs.cli import main
from hqs.core import dump_system, load_system, sorted_ids, system_from_json
from hqs.fixtures import FIXTURE_NAMES, fixture_json, load_fixture
from hqs.gen import sharing_system
from hqs.props import maximal_outlived_sets
from hqs.scenarios import SCENARIO_KEYS, SCENARIO_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fig1_outlived_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--system", "fig1",
                           "--outlived", "2,3,5")
    assert code == 0
    rep = json.loads(out.strip().splitlines()[-1])
    assert rep["property"] == "Outlived" and rep["holds"]


@pytest.mark.parametrize("inside,code,witness", [("2,3,5", 0, None), ("1,2", 1, [1])])
def test_check_inside_names_a_member_with_no_quorum_inside(capsys, inside, code, witness):
    got, out, _ = run_cli(capsys, "check", "--system", "fig1", "--inside", inside)
    assert got == code
    assert json.loads(out) == {"holds": witness is None, "property": "AvailableInside",
                               "witness": witness}


@pytest.mark.parametrize("inside", ["2,99", "x"])
def test_check_inside_an_undeclared_process_is_an_input_error(capsys, inside):
    code, out, err = run_cli(capsys, "check", "--system", "fig1", "--inside", inside)
    assert (code, out) == (2, "") and "has no quorum declaration" in err


def test_check_attack_s5_consistency_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "--system", "attack_s5",
                           "--consistency")
    assert code == 1
    rep = json.loads(out.strip())
    assert rep["holds"] is False
    assert sorted(map(sorted, rep["witness"])) == [[1, 3], [2, 4]]


def test_check_empty_request_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--system", "fig1")
    assert code == 2 and "nothing to check" in err


def test_check_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "check", "--system", "/nonexistent.json",
                           "--all")
    assert code == 2 and "error" in err


def test_graph_text_and_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--system", "fig2")
    assert code == 0
    assert "well-behaved sink members: [1, 2, 3]" in out
    assert "warning" not in out
    code, out, _ = run_cli(capsys, "graph", "--system", "fig2", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_graph_json_names_components_sinks_and_preconditions(capsys):
    code, out, _ = run_cli(capsys, "graph", "--system", "fig2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"components": [[1, 2, 3, 5], [4], [6]],
                               "sinks": [[1, 2, 3, 5]], "well_behaved_sink": [1, 2, 3],
                               "multiple_sinks": False, "preconditions_hold": True}


def test_check_all_holds_on_fig2_and_fails_on_attack_s5(capsys):
    code, out, _ = run_cli(capsys, "check", "--system", "fig2", "--all")
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(reports) == 3 and all(r["holds"] for r in reports)
    code, out, _ = run_cli(capsys, "check", "--system", "attack_s5", "--all")
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and not all(r["holds"] for r in reports)


def test_graph_flags_multiple_sinks(capsys, tmp_path):
    twin = {"universe": [1, 2, 3, 4], "byzantine": [], "active": [1, 2, 3, 4],
            "quorums": {"1": [[1, 2]], "2": [[1, 2]], "3": [[3, 4]], "4": [[3, 4]]}}
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(twin))
    code, out, _ = run_cli(capsys, "graph", "--system", str(path))
    assert "multiple sinks" in out


def test_graph_warns_when_characterization_inapplicable(capsys):
    # an undeclared Byzantine vertex with in-edges but no out-edges is
    # formally a sink, but sharing fails so the theorems say nothing
    code, out, _ = run_cli(capsys, "graph", "--system", "s5_base")
    assert code == 0
    assert "do not apply" in out


def test_enumerate_fig1_and_fig2(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--system", "fig1",
                           "--blocking-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["minimal_quorums"] == [[1, 2], [2, 3], [2, 5]]
    assert data["maximal_outlived_sets"] == [[2, 3, 5]]
    assert [2] in data["blocking_sets"]["3"]
    code, out, _ = run_cli(capsys, "enumerate", "--system", "fig2")
    assert json.loads(out)["minimal_quorums"] == [[1, 2], [1, 3, 5]]


MAXIMAL_OUTLIVED = {
    "attack_s5": [], "dqs": [[1, 2, 3]], "draft_cycle": [], "draft_impl2": [[1, 2, 3]],
    "fig1": [[2, 3, 5]], "fig2": [[1, 2, 4, 6]], "fig4_q1_leave": [[2, 3]],
    "fig4_q1_remove": [], "fig4_q2": [[2, 3]], "pbqs_sample": [[1, 2, 3, 4]],
    "s5_base": [[2, 3]],
}


@pytest.mark.parametrize("system", FIXTURE_NAMES)
def test_enumerate_prints_the_maximal_outlived_set_of_every_fixture(capsys, system):
    code, out, _ = run_cli(capsys, "enumerate", "--system", system)
    assert (code, json.loads(out)["maximal_outlived_sets"]) == (0, MAXIMAL_OUTLIVED[system])


@pytest.mark.parametrize("system, witness", [
    ("attack_s5", [[1, 3], 1]), ("draft_cycle", [[1, 3], 3]),
    ("fig4_q1_remove", [[1, 2, 4], 4])])
def test_check_inclusion_names_the_first_failing_quorum_and_member(capsys, system, witness):
    _, attack = load_fixture(system)
    wb = ",".join(map(str, sorted_ids(attack.well_behaved)))
    code, out, _ = run_cli(capsys, "check", "--system", system, "--inclusion", wb)
    assert (code, json.loads(out)) == (
        1, {"holds": False, "property": "Inclusion", "witness": witness})


def test_a_bare_inclusion_flag_checks_the_well_behaved_set(capsys):
    failing = {"holds": False, "property": "Inclusion", "witness": [[1, 2, 4], 4]}
    code, out, _ = run_cli(capsys, "check", "--system", "fig4_q1_remove",
                           "--consistency", "--inclusion")
    assert (code, [json.loads(line) for line in out.splitlines()]) == (1, [
        {"holds": True, "property": "Consistency", "witness": None}, failing])
    code, out, err = run_cli(capsys, "check", "--system", "fig4_q1_remove", "--inclusion")
    assert (code, json.loads(out), err) == (1, failing, "")


@pytest.mark.parametrize("system, flags, code, report", [
    # an explicit empty value is the empty set, not a missing flag: no two
    # quorums meet inside it, and nothing inside it owes a quorum
    ("fig1", ["--consistency", "--outlived", ""], 1,
     {"holds": False, "property": "Outlived", "witness": ["Consistency", [1, 2, 4], [1, 2]]}),
    ("fig1", ["--inside", ""], 0,
     {"holds": True, "property": "AvailableInside", "witness": None}),
    ("fig1", ["--consistency", "--at", ""], 1,
     {"holds": False, "property": "Consistency", "witness": [[1, 2, 4], [1, 2]]}),
    # a bare --inclusion fails here (see above); the empty set has no member to fail
    ("fig4_q1_remove", ["--inclusion", ""], 0,
     {"holds": True, "property": "Inclusion", "witness": None}),
])
def test_an_empty_set_value_checks_the_empty_set(capsys, system, flags, code, report):
    got, out, err = run_cli(capsys, "check", "--system", system, *flags)
    assert (got, json.loads(out.splitlines()[-1]), err) == (code, report, "")


def test_enumerate_blocking_k_zero_omits_blocking(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--system", "fig1")
    assert "blocking_sets" not in json.loads(out)


def test_enumerate_negative_blocking_k_is_input_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--system", "fig1", "--blocking-k", "-3")
    assert code == 2 and not out
    assert err.startswith("error: --blocking-k: ") and len(err.splitlines()) == 1


def test_simulate_named_scenario(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "ac_leave_fig1")
    assert code == 0
    assert "LeaveComplete" in out and "PASS" in out


def test_simulate_json_and_trace_formats(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "brb_honest_fig1",
                           "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"] is True
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "brb_honest_fig1",
                           "--format", "trace")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["kind"] == "end"


# what `simulate --format json` prints of a reconfiguration run's end state:
# once 2 leaves fig4_q1_leave, AC shrinks 3's policy to keep it available and
# PC keeps it; a Remove of 2's only quorum leaves 2 none, and the notes say so
REMOVE_2S_ONLY_QUORUM = {"system": "fig4_q1_leave", "protocol": "pc", "policy": {"seed": 0},
                         "requests": [{"at": 1, "node": 2, "op": "Remove", "quorum": [2, 3]}]}
FINAL_SYSTEMS = [
    ("ac_leave_fig1",
     {"active": [1, 2, 3, 4], "byzantine": [4], "universe": [1, 2, 3, 4, 5],
      "quorums": {"1": [[1, 2, 4]], "2": [[2]], "3": [[2, 3]]}},
     [], [[7, "5", "LeaveComplete"]]),
    ("ac_leave_fig4_q1",
     {"active": [1, 3, 4], "byzantine": [1], "universe": [1, 2, 3, 4],
      "quorums": {"3": [[3]], "4": [[1, 3, 4]]}},
     [], [[6, "2", "LeaveComplete"]]),
    ("pc_leave_fig4_q1",
     {"active": [1, 3, 4], "byzantine": [1], "universe": [1, 2, 3, 4],
      "quorums": {"3": [[1, 3, 4]], "4": [[1, 3, 4]]}},
     [], [[1, "2", "LeaveComplete"]]),
    ("add_attack_concurrent",
     {"active": [1, 2, 3, 4], "byzantine": [4], "universe": [1, 2, 3, 4],
      "quorums": {"1": [[1, 2, 4]], "2": [[1, 2], [2, 3]], "3": [[2, 3]]}},
     [], [[16, "3", "AddFail"], [27, "2", "AddFail"]]),
    (REMOVE_2S_ONLY_QUORUM,
     {"active": [1, 3, 4], "byzantine": [1], "universe": [1, 2, 3, 4],
      "quorums": {"3": [[2, 3], [1, 3, 4]], "4": [[1, 3, 4]]}},
     ["process 2 has no quorums left"], [[1, "2", "RemoveComplete"]]),
]


@pytest.mark.parametrize("scenario,final_system,notes,responses", FINAL_SYSTEMS)
def test_simulate_json_prints_the_final_system_notes_and_responses(
        capsys, tmp_path, scenario, final_system, notes, responses):
    if isinstance(scenario, dict):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        scenario = str(path)
    code, out, _ = run_cli(capsys, "simulate", "--scenario", scenario, "--format", "json")
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    assert verdict["final_system"] == final_system
    assert verdict["notes"] == notes
    assert verdict["responses"] == responses


def test_simulate_text_prints_each_violation_and_exits_1(capsys, tmp_path):
    # attack_s5 is inconsistent from the start: the first flush trips the probe
    spec = {"system": "attack_s5", "policy": {"seed": 0}, "probes": ["intersection"],
            "requests": [{"at": 1, "node": 1, "op": "Leave"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1 and not err
    assert "  VIOLATION step 3: intersection: [[2, 4], [1, 3]]" in out.splitlines()
    assert "PASS" not in out


def test_simulate_scenario_without_seed_rejected(capsys, tmp_path):
    spec = {"system": "fig1", "protocol": "ac", "requests": [], "policy": {}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2 and "seed" in err


def test_canonical_round_trip(tmp_path):
    qs, attack = load_fixture("fig1")
    blob = dump_system(qs, attack)
    path = tmp_path / "sys.json"
    path.write_text(blob)
    qs2, attack2 = load_system(path)
    assert qs2 == qs and attack2 == attack
    assert dump_system(qs2, attack2) == blob


def test_canonicalize_output_loads_back_into_an_equal_system(capsys, tmp_path):
    for name in ("fig1", "attack_s5", "pbqs_sample"):
        code, out, _ = run_cli(capsys, "canonicalize", "--system", name)
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        assert load_system(path) == load_fixture(name)


def test_fixture_files_are_canonical():
    for name in ("fig1", "fig2", "s5_base", "attack_s5", "dqs"):
        raw = fixture_json(name)
        qs, attack = system_from_json(raw)
        assert json.loads(dump_system(qs, attack)) == raw


def test_attack_override(capsys):
    # with no Byzantine processes, fig1 is consistent at the full universe
    code, out, _ = run_cli(capsys, "check", "--system", "fig1",
                           "--attack", "", "--consistency")
    assert code == 0


@pytest.mark.parametrize("policy, node", [
    ({"seed": 0, "mode": "Typo"}, 99),
    ({"seed": 0, "mode": "Typo"}, 5),
    ({"seed": 0, "fairness_bound": 0}, 5),
    ({"seed": 0}, 99),
    ({"seed": 0}, 4),  # Byzantine in fig1: the adversary owns it
    ({"seed": 0, "fairness_bound": True}, 5),   # a boolean is not a number
])
def test_simulate_rejects_scenarios_that_would_pass_vacuously(capsys, tmp_path,
                                                              policy, node):
    spec = {"system": "fig1", "protocol": "ac", "policy": policy,
            "requests": [{"at": 1, "node": node, "op": "Leave"}],
            "probes": ["intersection"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_simulate_join_of_a_new_process_still_runs(capsys, tmp_path):
    join = {"node": 9, "op": "Join", "seed_set": [1, 2]}
    spec = {"system": "fig1", "policy": {"seed": 0}, "probes": ["intersection"],
            "requests": [join, {**join, "at": 3}]}   # two Joins share one node
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 0 and "9 -> JoinTimeout" in out


@pytest.mark.parametrize("adversary", [
    {"name": "add_equivocator"},
    {"name": "join_responder"},
    {"name": "add_equivocator", "args": {"byz_id": 4}},
])
def test_simulate_adversary_without_args_names_them(capsys, tmp_path, adversary):
    spec = {"system": "fig1", "policy": {"seed": 0}, "adversary": adversary}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "'args'" in err and "unknown adversary" not in err


@pytest.mark.parametrize("system, path", [
    ({"active": 5, "quorums": {"1": [[1]]}}, "active"),
    ([1, 2], "system"),
    ({"active": [1, 2], "quorums": {"1": [[1, [2]]], "2": [[2]]}}, "quorums.1[0][1]"),
    ({"active": [1], "quorums": {"1": [1]}}, "quorums.1[0]"),
    ({"active": [1], "quorums": [[1]]}, "quorums"),
    ({"active": [1], "byzantine": "1", "quorums": {"1": [[1]]}}, "byzantine"),
    ({"quorums": {"1": [[1]]}}, "active"),
    ({"universe": [1, 2, 4], "byzantin": [4], "active": [1, 2, 4],
      "quorums": {"1": [[1, 4]], "2": [[2, 4]], "4": [[4]]}}, "byzantin"),
    # keys that parse to one process id would silently replace each other
    ({"active": [1, 2], "quorums": {"1": [[1, 2]], "1 ": [[1]], "2": [[2]]}}, "quorums.1 "),
    ({"active": [1, 2], "quorums": {"01": [[1, 2]], "2": [[2]], "1": [[1]]}}, "quorums.1"),
    # 1 and "1" would share one entry of every state snapshot
    ({"active": [1, 2], "quorums": {"1": [[1, 2, "1"]], "2": [[1, 2]]}}, "universe"),
])
def test_malformed_system_file_is_input_error_naming_the_field(capsys, tmp_path,
                                                               system, path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    code, _, err = run_cli(capsys, "check", "--system", str(sys_path), "--all")
    assert code == 2
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("spec, path", [
    ({"outlived": 5}, "outlived"),
    ({"outlived": [2, [3]]}, "outlived[1]"),
    ({"requests": [{"node": 5, "op": "Remove", "quorum": 3}]}, "requests[0].quorum"),
    ({"requests": [{"node": 5, "op": "Add"}]}, "requests[0].quorum"),
    ({"requests": [{"node": [5], "op": "Leave"}]}, "requests[0].node"),
    ({"requests": [{"node": 5, "op": "Leave", "at": "1"}]}, "requests[0].at"),
    ({"requests": [{"node": 5, "op": "Hop"}]}, "requests[0].op"),
    ({"requests": {"node": 5}}, "requests"),
    ({"adversary": {"name": "join_responder", "args": {"declarations": [1]}}},
     "adversary.args.declarations"),
    ({"adversary": {"name": "join_responder", "args": {"declarations": {"4": [5]}}}},
     "adversary.args.declarations.4[0]"),
    ({"adversary": {"name": "add_equivocator", "args": {"byz_id": [4], "q_c": [2]}}},
     "adversary.args.byz_id"),
    ({"adversary": {"name": "brb_byzantine", "args": {"values": []}}},
     "adversary.args.values"),
    ({"adversary": {"name": ["none"]}}, "adversary.name"),
    ({"probes": "intersection"}, "probes"),
    ({"probes": ["intersection", "i"]}, "probes[1]"),
    ({"protocol": "acc"}, "protocol"),
    ({"step_cap": "5000"}, "step_cap"),
    ({"policy": {"seed": [0]}}, "policy.seed"),
    ({"policy": {"seed": 0, "tob_order": 3}}, "policy.tob_order"),
    ({"policy": 0}, "policy"),
    ({"system": {"active": [1]}}, "system"),
    ({"requests": [{"node": 5, "op": "Leave", "at": -5}]}, "requests[0].at"),
    ({"requests": [{"node": 9, "op": "Join", "seed_set": [1, 2]},
                   {"node": 2, "op": "Join", "seed_set": [1, 2]}]}, "requests[1].node"),
    ({"step_cap": -1}, "step_cap"),     # a run of no steps once exited 1
    ({"step_cap": 0}, "step_cap"),
    # 1 and "1" would share one entry of every state snapshot
    ({"requests": [{"node": "1", "op": "Join", "seed_set": [2]}]}, "requests[0].node"),
    ({"policy": {"seed": 0, "mode": "AdversarialReorder", "tob_order": [2]}},
     "policy.mode"),
    ({"adversary": {"name": "join_responder",
                    "args": {"declarations": {"4": [[4]], "04": [[4, 5]]}}}},
     "adversary.args.declarations.04"),
    # a hint must name a process of the system
    ({"policy": {"seed": 0, "tob_order": [99]}}, "policy.tob_order[0]"),
    ({"policy": {"seed": 0, "tob_order": [5, "5"]}}, "policy.tob_order[1]"),
    # the bound is checked here, where its path is known, not by SchedulePolicy
    ({"policy": {"seed": 0, "fairness_bound": "6"}}, "policy.fairness_bound"),
    ({"policy": {"seed": 0, "fairness_bound": 0}}, "policy.fairness_bound"),
    # a Join timer below one step once ran and passed
    ({"requests": [{"node": 9, "op": "Join", "seed_set": [1, 2], "timeout": -5}]},
     "requests[0].timeout"),
    ({"requests": [{"node": 9, "op": "Join", "seed_set": [1, 2], "timeout": 0}]},
     "requests[0].timeout"),
    # an Add asks every member of its quorum, so one outside the system left
    # the request unanswered and the run passed
    ({"requests": [{"at": 1, "node": 2, "op": "Add", "quorum": [2, 99]}]},
     "requests[0].quorum"),
    # a script that acts as, or sends to, a process outside the system ran idle and passed
    ({"protocol": "brb", "adversary": {"name": "brb_byzantine", "args": {"sender": 99}}},
     "adversary.args.sender"),
    ({"system": "fig2", "protocol": "discovery", "adversary": {
        "name": "sink_deceiver", "args": {"fake_target": 99, "dupe_target": 98}}},
     "adversary.args.fake_target"),
    ({"system": "fig2", "protocol": "discovery", "adversary": {
        "name": "sink_deceiver", "args": {"dupe_target": 98}}}, "adversary.args.dupe_target"),
    ({"adversary": {"name": "sink_deceiver", "args": {"byz_id": 99}}}, "adversary.args.byz_id"),
    ({"adversary": {"name": "add_equivocator", "args": {"byz_id": 4, "q_c": [2, 99]}}},
     "adversary.args.q_c"),
    ({"adversary": {"name": "add_equivocator",
                    "args": {"byz_id": 4, "q_c": [2, 3], "success_first": [99]}}},
     "adversary.args.success_first"),
    ({"adversary": {"name": "join_responder", "args": {"declarations": {"99": [[99]]}}}},
     "adversary.args.declarations"),
    # a script answers only the probes sent to a Byzantine id: one declaring for
    # a well-behaved or a joining process idled and the run passed
    ({"adversary": {"name": "join_responder",
                    "args": {"declarations": {"4": [[4]], "3": [[2, 3]]}}}},
     "adversary.args.declarations.3"),
    ({"adversary": {"name": "join_responder", "args": {"declarations": {"9": [[1, 9]]}}},
      "requests": [{"node": 9, "op": "Join", "seed_set": [4]}]},
     "adversary.args.declarations.9"),
])
def test_malformed_scenario_file_is_input_error_naming_the_field(capsys, tmp_path,
                                                                 spec, path):
    spec = {"system": "fig1", "policy": {"seed": 0}, **spec}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and "PASS" not in out
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("spec", [
    {"system": "fig2", "protocol": "discovery",
     "adversary": {"name": "sink_deceiver", "args": {"byz_id": 2}}},
    # the sender's Sends are routed whether or not a Broadcast request runs
    {"protocol": "brb", "adversary": {"name": "brb_byzantine", "args": {"sender": 2}}},
    {"protocol": "brb", "adversary": {"name": "brb_byzantine", "args": {"sender": 2}},
     "requests": [{"at": 1, "node": 3, "op": "Broadcast", "value": "m"}]},
], ids=["sink_deceiver", "brb_byzantine", "brb_byzantine-broadcast"])
def test_a_script_acting_as_a_well_behaved_process_is_refused(capsys, tmp_path, spec):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"system": "fig1", "policy": {"seed": 0}, **spec}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and "PASS" not in out
    assert err == "error: adversary cannot send as well-behaved 2\n"


def test_a_join_responder_declaring_for_a_well_behaved_process_is_refused(capsys, tmp_path):
    # 2 is well-behaved, so no probe to it reaches the script: the Join timed
    # out, the probes passed and the run exited 0
    scenario = tmp_path / "s.json"
    spec = {"system": "fig1", "policy": {"seed": 0},
            "adversary": {"name": "join_responder", "args": {"declarations": {"2": [[1, 2]]}}},
            "requests": [{"at": 1, "node": 9, "op": "Join", "seed_set": [2]}]}
    scenario.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert (code, out) == (2, "")
    assert err == ("error: adversary.args.declarations.2: 2 is well-behaved; "
                   "the script answers only for Byzantine processes\n")
    spec["adversary"]["args"]["declarations"] = {"4": [[1, 2, 4]]}   # 4 is Byzantine
    scenario.write_text(json.dumps(spec))
    assert run_cli(capsys, "simulate", "--scenario", str(scenario))[0] == 0


def test_an_add_naming_an_inactive_process_is_an_input_error(capsys, tmp_path):
    # 7 is in the universe but runs no node, so nothing would answer the Add
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"universe": [1, 2, 3, 4, 7], "active": [1, 2, 3, 4],
                                  "byzantine": [4], "quorums": {
                                      "1": [[1, 2]], "2": [[1, 2], [2, 3]], "3": [[2, 3]]}}))
    scenario = tmp_path / "s.json"
    errors = []
    for quorum in ([2, 7], [2, 4]):   # the adversary owns 4, and may answer for it
        scenario.write_text(json.dumps({"system": str(system), "policy": {"seed": 0},
                                        "requests": [{"at": 1, "node": 2, "op": "Add",
                                                      "quorum": quorum}]}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
        errors.append((code == 2, err.split(": ")[:2]))
    assert errors == [(True, ["error", "requests[0].quorum"]), (False, [""])]


def _renamed(spec, old, new):
    return {(new if k == old else k): v for k, v in spec.items()}


@pytest.mark.parametrize("name, edit, path", [
    ("ac_leave_fig1", lambda s: {**s, "sink_info": 5}, "sink_info"),
    ("ac_leave_fig1", lambda s: {**s, "sink_info": None}, "sink_info"),
    ("ac_leave_fig1", lambda s: {**s, "combined_checks": "no"}, "combined_checks"),
    ("discovery_fig2_deceive", lambda s: {**s, "validq": 5}, "validq"),
    ("ac_leave_fig1", lambda s: _renamed(s, "probes", "probe"), "probe"),
    ("brb_honest_fig1", lambda s: {**s, "requests": [{"at": 1, "node": 3, "op": "Leave"}]},
     "requests[0].op"),
    ("discovery_fig2_deceive",
     lambda s: {**s, "requests": [{"at": 1, "node": 1, "op": "Add", "quorum": [1, 2]}]},
     "requests[0].op"),
    ("ac_leave_fig1",
     lambda s: {**s, "requests": [*s["requests"],
                                  {"at": 1, "node": 2, "op": "Broadcast", "value": "m"}]},
     "requests[1].op"),
    ("brb_honest_fig1", lambda s: {**s, "probes": ["intersection", "add_no_split"]},
     "probes[0]"),
    ("ac_leave_fig1", lambda s: {**s, "probes": ["brb_consistency"]}, "probes[0]"),
    ("ac_leave_fig1", lambda s: {**s, "validq": "threshold"}, "validq"),
    ("ac_leave_fig1", lambda s: {**s, "outlived": [2, 3, 5, 99]}, "outlived"),
    ("ac_leave_fig1", lambda s: {**s, "outlived": [2, 4]}, "outlived"),
    ("brb_honest_fig1", lambda s: {**s, "outlived": [2, 3, 5]}, "outlived"),
    ("discovery_fig2_deceive", lambda s: {**s, "outlived": [1, 2]}, "outlived"),
], ids=["sink_info-5", "sink_info-null", "combined_checks-no", "validq-5", "probe-typo",
        "brb-Leave", "discovery-Add", "ac-Broadcast", "brb-reconfig-probes",
        "ac-brb-probe", "ac-validq", "outlived-unknown-id", "outlived-byzantine-id",
        "brb-outlived", "discovery-outlived"])
def test_scenario_keys_that_passed_vacuously_are_input_errors(capsys, tmp_path,
                                                              name, edit, path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_shipped_scenario(name)))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 0 and "PASS" in out     # the shipped file itself passes
    scenario.write_text(json.dumps(edit(_shipped_scenario(name))))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and "PASS" not in out
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name, change", [
    ("ac_leave_fig1", {"sink_info": "oracle"}),
    ("ac_leave_fig1", {"combined_checks": False}),
    ("discovery_fig2_deceive", {"validq": "threshold"}),
    # a Byzantine id is a process of the system too
    ("ac_leave_fig1", {"policy": {"seed": 0, "tob_order": [4, 5]}}),
    ("brb_honest_fig1", {"adversary": {"name": "brb_byzantine", "args": {"sender": 4}}}),
])
def test_scenario_keys_with_a_valid_value_still_run(capsys, tmp_path, name, change):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({**_shipped_scenario(name), **change}))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code in (0, 1) and not err


@pytest.mark.parametrize("system", [
    {"active": [1, 2], "quorums": {"1": [[1, 2, "1"]], "2": [[1, 2]]}},
    {"universe": ["1", 1, 2], "active": [1, 2], "quorums": {"1": [[1, 2]], "2": [[1, 2]]}},
])
def test_ids_spelt_alike_are_an_input_error_naming_both(capsys, tmp_path, system):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    code, out, err = run_cli(capsys, "check", "--system", str(sys_path), "--all")
    assert code == 2 and not out
    assert err.startswith("error: universe: ids [1, '1'] ") and len(err.splitlines()) == 1


def test_a_scripted_tob_order_may_name_a_process_that_joins(capsys, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "system": "fig1", "policy": {"seed": 0, "tob_order": [9, 5]},
        "requests": [{"at": 1, "node": 9, "op": "Join", "seed_set": [2]},
                     {"at": 1, "node": 5, "op": "Leave"}]}))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code in (0, 1) and not err


def test_an_adversary_may_send_to_a_process_that_joins(capsys, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "system": "fig1", "policy": {"seed": 0},
        "adversary": {"name": "sink_deceiver",
                      "args": {"byz_id": 4, "fake_target": 9, "dupe_target": 2}},
        "requests": [{"at": 1, "node": 9, "op": "Join", "seed_set": [2]}]}))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code in (0, 1) and not err


def test_the_default_outlived_set_is_the_active_well_behaved_processes(capsys, tmp_path):
    # 9 is in the universe but not active: no probe may ask it to stay live
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"universe": [1, 2, 3, 4, 9], "active": [1, 2, 3, 4],
                                  "quorums": {"1": [[1, 2, 3]], "2": [[1, 2, 3]],
                                              "3": [[1, 2, 3]], "4": [[1, 2, 3, 4]]}}))
    spec = {"system": str(system), "protocol": "ac", "policy": {"seed": 0},
            "requests": [{"at": 1, "node": 4, "op": "Leave"}],
            "probes": ["intersection", "active_inclusion", "active_availability"]}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 0 and "probes: PASS" in out
    scenario.write_text(json.dumps({**spec, "outlived": [1, 2, 3, 9]}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and "PASS" not in out
    assert err == "error: outlived: [9] are not active well-behaved processes\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SCENARIO_NAMES), st.data())
def test_a_misspelt_scenario_key_is_an_input_error_naming_it(capsys, name, data):
    spec = _shipped_scenario(name)
    key = data.draw(st.sampled_from(sorted(spec)))
    typo = data.draw(st.sampled_from([key[:-1], key + "s", key.title(), f" {key}"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_renamed(spec, key, typo), fh)
        code, out, err = run_cli(capsys, "simulate", "--scenario", path)
    assert typo not in SCENARIO_KEYS
    assert code == 2 and "PASS" not in out
    assert err.startswith(f"error: {typo}: unknown scenario key")


@pytest.mark.parametrize("edit, path", [
    ({"policy": {"seed": 0, "fairnes_bound": 2},
      "requests": [{"at": 1, "node": 5, "op": "Leave", "quorom": [1]}]}, "policy.fairnes_bound"),
    ({"requests": [{"at": 1, "node": 5, "op": "Leave", "quorom": [1]}]}, "requests[0].quorom"),
    ({"requests": [{"at": 1, "node": 5, "op": "Leave", "quorum": [2, 5]}]},
     "requests[0].quorum"),
    ({"requests": [{"at": 1, "node": 5, "Op": "Leave"}]}, "requests[0].op"),
    ({"adversary": {"name": "none", "arg": {}}}, "adversary.arg"),
], ids=["policy-and-request", "request-typo", "request-field-of-another-op",
        "request-op-typo", "adversary-typo"])
def test_unknown_keys_below_the_top_level_are_input_errors(capsys, tmp_path, edit, path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({**_shipped_scenario("ac_leave_fig1"), **edit}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and "PASS" not in out
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SCENARIO_NAMES), st.data())
def test_a_misspelt_nested_key_is_an_input_error_naming_its_path(capsys, name, data):
    spec = _shipped_scenario(name)
    if isinstance(spec.get("adversary"), str):
        spec["adversary"] = {"name": spec["adversary"]}
    nested = {"policy": spec["policy"], "adversary": spec.get("adversary", {"name": "none"}),
              **{f"requests[{i}]": req for i, req in enumerate(spec.get("requests", []))}}
    spec["adversary"] = nested["adversary"]
    where = data.draw(st.sampled_from(sorted(nested)))
    key = data.draw(st.sampled_from(sorted(nested[where])))
    typo = data.draw(st.sampled_from([key[:-1], key + "s", key.title(), f" {key}"]))
    nested[where][typo] = nested[where].pop(key)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        code, out, err = run_cli(capsys, "simulate", "--scenario", path)
    assert code == 2 and "PASS" not in out
    # a request without its op is named by the missing op, not by the typo
    named = "op" if key == "op" and where.startswith("requests") else typo
    assert err.startswith(f"error: {where}.{named}: ") and len(err.splitlines()) == 1


def test_mixed_int_and_str_ids_simulate_and_enumerate(capsys, tmp_path):
    # "a" and 7 each hold two quorums whose sorted member lists differ first
    # in an int against a str
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "universe": ["a", "b", "c", 7], "active": ["a", "b", "c", 7],
        "quorums": {"a": [["a", "b", "c"], ["a", 7]], "b": [["a", "b", "c"]],
                    "c": [["a", "b", "c"]], "7": [[7, "a", "b"], ["a", "b", "c"]]}}))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "system": str(system), "policy": {"seed": 0},
        "requests": [{"at": 1, "node": "d", "op": "Join", "seed_set": ["a"]},
                     {"at": 40, "node": 7, "op": "Leave"}]}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 0 and not err
    assert "d -> JoinComplete" in out and "7 -> LeaveComplete" in out
    code, out, err = run_cli(capsys, "enumerate", "--system", str(system))
    assert code == 0 and not err
    assert json.loads(out)["minimal_quorums"] == [[7, "a"], ["a", "b", "c"]]


@pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe")])
def test_unreadable_system_file_is_input_error(capsys, tmp_path, make):
    path = tmp_path / "sys.json"
    make(path)
    code, _, err = run_cli(capsys, "check", "--system", str(path), "--all")
    assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1


def test_scenario_that_is_not_an_object_is_input_error(capsys, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert code == 2 and err.startswith("error: scenario: ")


def test_enumerate_30_process_system(capsys, tmp_path):
    rng = random.Random(30)
    while True:
        qs, attack = sharing_system(rng, n_max=30)
        found = maximal_outlived_sets(qs, attack)
        if len(qs.universe) == 30 and found and found[0]:
            break
    path = tmp_path / "sys30.json"
    path.write_text(dump_system(qs, attack))
    code, out, _ = run_cli(capsys, "enumerate", "--system", str(path))
    assert code == 0
    assert json.loads(out)["maximal_outlived_sets"] == [sorted_ids(found[0])]


# --- fuzz: mutated shipped inputs never end in a traceback ---------------------

_words = st.sampled_from(["fig1", "s5_base", "ac", "pc", "brb", "discovery",
                          "Leave", "Remove", "Add", "Join", "Broadcast",
                          "intersection", "tentative_inclusion", "add_no_split",
                          "join_responder", "add_equivocator", "brb_byzantine",
                          "sink_deceiver", "oracle", "args", "1", "x", ".", "\0",
                          "sink_info", "combined_checks", "validq", "threshold",
                          "probe", "no", "seed", "mode", "fairness_bound", "tob_order",
                          "quorum", "seed_set", "timeout", "value", "name"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | _words,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4) | _words, inner, max_size=3)),
    max_leaves=6)


def _paths(value, prefix=()):
    """Every path into a JSON value, the root's included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two values replaced by arbitrary JSON, deleted,
    or moved to another key."""
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_json_values)
            continue
        parent = reduce(getitem, path[:-1], doc)
        how = draw(st.sampled_from(["replace", "delete", "rename"])
                   if isinstance(parent, dict) else st.just("replace"))
        if how == "delete":
            del parent[path[-1]]
        elif how == "rename":   # a misspelt key, or a key moved where it means nothing
            parent[draw(_words)] = parent.pop(path[-1])
        else:
            parent[path[-1]] = draw(_json_values)
    return doc


def _shipped_scenario(name):
    return json.loads(resources.files("hqs").joinpath("scenarios", f"{name}.json")
                      .read_text(encoding="utf-8"))


_fuzz_inputs = st.one_of(
    st.tuples(st.just("simulate --scenario"), st.sampled_from(SCENARIO_NAMES)
              .map(_shipped_scenario).flatmap(_mutated)),
    st.tuples(st.sampled_from(["check --all --system", "enumerate --system"]),
              st.sampled_from(FIXTURE_NAMES).map(fixture_json).flatmap(_mutated)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_inputs)
def test_mutated_scenarios_and_systems_exit_cleanly(capsys, fuzz_input):
    command, doc = fuzz_input
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = run_cli(capsys, *command.split(), path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
