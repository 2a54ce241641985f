"""Tests for the scenario registry and the command line interface."""

import json
import os

import pytest

from actsim.cli import main
from actsim.harness import (SCENARIOS, history_of, inject_probes,
                            run_scenario)
from actsim.model import History, OperationLabel, WEAK
from actsim.protocols import NncReplica
from actsim.simnet import Invoke, Schedule, SimWorld


def test_every_scenario_runs_and_validates_its_history():
    for name in SCENARIOS:
        art = run_scenario(name)
        assert art.name == name
        art.history.validate()
        assert art.horizon is not None


def test_history_of_marks_unanswered_events_pending():
    art = run_scenario("annc-async")
    pending = art.extras["pending"][0]
    assert art.history.event(pending).rval.is_pending()
    assert art.history.event(pending).return_ts is None


def test_inject_probes_returns_the_stabilization_index():
    world = SimWorld([NncReplica(0), NncReplica(1)],
                     Schedule(rb_delay=2, tob_delay=3),
                     [Invoke(1, "c0", 0, OperationLabel("add", (1,)), WEAK)],
                     protocol="nnc")
    world.run_to_quiescence()
    first = inject_probes(world, OperationLabel("get"), WEAK, count=2)
    assert first == 1
    h = history_of(world.trace)
    assert len(h) == 5  # one add, two probes per replica
    assert all(e.op.name == "get" for e in h if e.id >= first)


def test_run_scenario_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_scenario("nope")


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_run_writes_artifacts_and_reports(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", "annc-stable", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "BEC(weak): holds" in printed
    history = History.from_jsonl((out / "history.jsonl").read_text())
    history.validate()
    assert (out / "trace.json").exists()
    assert (out / "witness-counter.json").exists()
    reports = json.loads((out / "reports.json").read_text())
    assert reports[0]["verdict"] == "holds"


def test_cli_run_exit_codes(capsys):
    assert main(["run", "annc-async"]) == 1      # Lin(strong) is violated
    assert main(["run", "no-such-scenario"]) == 2
    capsys.readouterr()


def test_cli_check_round_trips_a_saved_run(tmp_path, capsys):
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    art = run_scenario("annc-stable")
    idx = str(art.horizon.stabilization_index)
    code = main(["check", str(out / "history.jsonl"),
                 str(out / "witness-counter.json"),
                 "--predicate", "BEC", "--level", "weak", "--rdt", "f_nnc",
                 "--stabilization-index", idx])
    assert code == 0
    assert "BEC(weak): holds" in capsys.readouterr().out
    code = main(["check", str(out / "history.jsonl"),
                 str(out / "witness-counter.json"),
                 "--predicate", "EV", "--level", "weak", "--rdt", "f_nnc",
                 "--stabilization-index", idx])
    assert code == 0
    capsys.readouterr()


def test_cli_check_rejects_unknown_predicates(tmp_path, capsys):
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    code = main(["check", str(out / "history.jsonl"),
                 str(out / "witness-counter.json"),
                 "--predicate", "Nope", "--level", "weak", "--rdt", "f_nnc"])
    assert code == 2
    capsys.readouterr()


def test_cli_brute_finds_and_refutes(tmp_path, capsys):
    out = tmp_path / "art"
    main(["run", "impossibility", "--out", str(out)])
    code = main(["brute", str(out / "history.jsonl"),
                 "--target", "Lin", "--level", "strong", "--rdt", "f_seq"])
    assert code == 1
    assert "satisfiable: False" in capsys.readouterr().out
    # repair the disagreeing read and the search succeeds
    lines = (out / "history.jsonl").read_text().splitlines()
    fixed = [line.replace('"ba"', '"ab"') for line in lines]
    (out / "fixed.jsonl").write_text("\n".join(fixed) + "\n")
    code = main(["brute", str(out / "fixed.jsonl"),
                 "--target", "Lin", "--level", "strong", "--rdt", "f_seq"])
    assert code == 0
    capsys.readouterr()


def test_cli_lint_passes_stock_and_flags_mutants(tmp_path, capsys):
    out = tmp_path / "art"
    main(["run", "acutebayou-stable", "--out", str(out)])
    assert main(["lint", str(out / "trace.json")]) == 0
    from mutants import mutant_runs
    rule, world = next(mutant_runs())
    path = tmp_path / "mutant-trace.json"
    path.write_text(json.dumps(world.trace.to_json()))
    assert main(["lint", str(path)]) == 1
    assert rule in capsys.readouterr().out


def test_cli_reports_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert main(["brute", missing, "--target", "BEC"]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["brute", str(bad), "--target", "BEC"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("vis_edge, par_key", [
    ([0, 99], None),    # endpoint past the last event
    ([-1, 0], None),    # negative id
    ([3, 3], None),     # self-loop
    (None, "77"),       # perceived order of an event that does not exist
], ids=["vis-unknown-event", "vis-negative-id", "vis-self-loop",
        "par-unknown-event"])
def test_cli_check_rejects_malformed_witnesses(tmp_path, capsys, vis_edge,
                                               par_key):
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    witness = json.loads((out / "witness-counter.json").read_text())
    if vis_edge is not None:
        witness["vis"].append(vis_edge)
    if par_key is not None:
        witness["par"][par_key] = "ar"
    bad = tmp_path / "bad-witness.json"
    bad.write_text(json.dumps(witness))
    code = main(["check", str(out / "history.jsonl"), str(bad),
                 "--predicate", "BEC", "--level", "weak", "--rdt", "f_nnc"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
