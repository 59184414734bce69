import json

import pytest

from hqs.cli import main
from hqs.core import dump_system, load_system, system_from_json
from hqs.fixtures import fixture_json, load_fixture


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


def test_enumerate_blocking_k_zero_omits_blocking(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--system", "fig1")
    assert "blocking_sets" not in json.loads(out)


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
])
def test_malformed_system_file_is_input_error_naming_the_field(capsys, tmp_path,
                                                               system, path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    code, _, err = run_cli(capsys, "check", "--system", str(sys_path), "--all")
    assert code == 2
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
