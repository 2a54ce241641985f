"""Tests for the scenario registry and the command line interface.

`PYTHONPATH=src python tests/test_harness.py` re-records
`tests/data/scenarios.json`, the pinned output of every `actsim run`; do
that only when a change to a scenario's output is intended.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from actsim import harness
from actsim.cli import main
from actsim.harness import (SCENARIOS, history_of, inject_probes,
                            run_scenario)
from actsim.model import History, OperationLabel, WEAK
from actsim.protocols import NncReplica
from actsim.rdt import BadOperation
from actsim.simnet import Invoke, ProtocolTrace, Schedule, SimWorld

PINNED = os.path.join(os.path.dirname(__file__), "data", "scenarios.json")
PINNED_MODES = (None, "stable", "async")   # None: the scenario's own mode
PINNED_SEEDS = (0, 1)


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


def test_readme_scenario_table_follows_the_registry():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        section = f.read().split("## Scenarios\n", 1)[1]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in section.splitlines() if line.startswith("|")]
    assert rows[:2] == [("name", "what it shows"), ("---", "---")]
    assert rows[2:] == [(s.name, s.note) for s in SCENARIOS.values()]


def test_runs_obey_the_scenario_act_spec(monkeypatch, capsys):
    stock = SCENARIOS["annc-stable"]
    weak_subtract = tuple(
        dataclasses.replace(inv, level=WEAK)
        if inv.op.name == "subtract" else inv for inv in stock.invokes)
    bad = dataclasses.replace(stock, invokes=weak_subtract)
    with pytest.raises(BadOperation):
        run_scenario(bad)
    monkeypatch.setitem(harness.SCENARIOS, "annc-stable", bad)
    assert main(["run", "annc-stable"]) == 2
    assert "error: event 3 runs subtract at level weak" in (
        capsys.readouterr().err)


def test_cli_brute_refuses_fec(tmp_path, capsys):
    # the four-event excerpt of test 03: the builder's witness satisfies
    # FEC on it, but the search would answer for BEC and say unsatisfiable
    art = run_scenario("acutebayou-stable")
    sub, mapping = art.history.subhistory(art.extras["excerpt"])
    path = tmp_path / "excerpt.jsonl"
    path.write_text(sub.to_jsonl())
    code = main(["brute", str(path), "--target", "FEC", "--level", "weak",
                 "--rdt", "f_seq", "--stabilization-index",
                 str(max(mapping.values()))])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


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


def test_cli_check_prints_the_parts_a_composite_violates(tmp_path, capsys):
    """annc-async withholds a subtract's total-order message, so Lin(strong)
    is violated, and check names the parts that fail."""
    out = tmp_path / "art"
    main(["run", "annc-async", "--out", str(out)])
    idx = str(run_scenario("annc-async").horizon.stabilization_index)
    capsys.readouterr()
    code = main(["check", str(out / "history.jsonl"),
                 str(out / "witness-counter.json"),
                 "--predicate", "Lin", "--level", "strong", "--rdt", "f_nnc",
                 "--stabilization-index", idx])
    assert code == 1
    assert "counterexample: ('SinOrd', 'BEC')" in (
        capsys.readouterr().out.splitlines())


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


MVR_HISTORY = """\
{"client": "c1", "id": 0, "invoke_ts": 0, "lvl": "weak", "op": {"args": [1], "name": "write"}, "return_ts": 1, "rval": {"tag": "ok", "value": null}}
{"client": "c1", "id": 1, "invoke_ts": 2, "lvl": "weak", "op": {"args": [2], "name": "write"}, "return_ts": 3, "rval": {"tag": "ok", "value": null}}
{"client": "c2", "id": 2, "invoke_ts": 4, "lvl": "weak", "op": {"args": [], "name": "read"}, "return_ts": 5, "rval": {"tag": "set", "value": [2]}}
"""
MVR_WITNESS = {"ar": [0, 1, 2], "vis": [[0, 1], [0, 2], [1, 2]],
               "par": {"0": "ar", "1": "ar", "2": "ar"}}


@pytest.mark.parametrize("index", ["0", "2"])
def test_cli_brute_finds_the_register_witness_check_accepts(tmp_path, capsys,
                                                            index):
    """The read returns only the second write, so a witness needs vis from
    the first write to the second: brute finds one, and check accepts both
    it and the hand-written one."""
    history = tmp_path / "h.jsonl"
    history.write_text(MVR_HISTORY)
    hand = tmp_path / "hand.json"
    hand.write_text(json.dumps(MVR_WITNESS))
    args = ["--rdt", "f_mvr", "--stabilization-index", index]
    assert main(["brute", str(history), "--target", "BEC"] + args) == 0
    out = capsys.readouterr().out
    assert "satisfiable: True" in out
    found = tmp_path / "found.json"
    found.write_text(out[out.index("{"):])
    for witness in (found, hand):
        assert main(["check", str(history), str(witness), "--predicate",
                     "BEC", "--level", "weak"] + args) == 0
        assert "BEC(weak): holds" in capsys.readouterr().out


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


MALFORMED_WITNESSES = {
    # endpoint past the last event
    "vis-unknown-event": lambda w: w["vis"].append([0, 99]),
    "vis-negative-id": lambda w: w["vis"].append([-1, 0]),
    "vis-self-loop": lambda w: w["vis"].append([3, 3]),
    # perceived order of an event that does not exist
    "par-unknown-event": lambda w: w["par"].update({"77": "ar"}),
    "ar-string-id": lambda w: w["ar"].__setitem__(1, "x"),
    "ar-null": lambda w: w.update(ar=None),
    "par-not-an-order": lambda w: w.update(par={"0": 5}),
    # a key that names an event but is not its id as str writes it: "01"
    # and "1_5" would read as events 1 and 15, the later key silently winning
    "par-key-not-canonical": lambda w: w["par"].update({"01": w["ar"][::-1]}),
    "par-key-with-an-underscore": lambda w: w["par"].update({"1_5": "ar"}),
    "root-a-list": lambda w: [w],
}


@pytest.mark.parametrize("case", MALFORMED_WITNESSES)
def test_cli_check_rejects_malformed_witnesses(tmp_path, capsys, case):
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    witness = json.loads((out / "witness-counter.json").read_text())
    witness = MALFORMED_WITNESSES[case](witness) or witness
    bad = tmp_path / "bad-witness.json"
    bad.write_text(json.dumps(witness))
    code = main(["check", str(out / "history.jsonl"), str(bad),
                 "--predicate", "BEC", "--level", "weak", "--rdt", "f_nnc"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


MISTYPED_HISTORY_LINES = {
    "invoke-ts-string": lambda rec: rec.update(invoke_ts="0"),
    "id-string": lambda rec: rec.update(id="0"),
    "args-not-a-list": lambda rec: rec.update(op={"name": "add", "args": 5}),
    "line-a-list": lambda rec: [1, 2],
    "lvl-neither-weak-nor-strong": lambda rec: rec.update(lvl="medium"),
    "rval-without-value": lambda rec: rec.update(
        rval={"tag": rec["rval"]["tag"]}),
}


@pytest.mark.parametrize("case", MISTYPED_HISTORY_LINES)
def test_cli_check_and_brute_reject_mistyped_history_lines(tmp_path, capsys,
                                                          case):
    for scenario, argv in (
            ("annc-stable", ["check", "witness-counter.json", "--predicate",
                             "BEC", "--level", "weak", "--rdt", "f_nnc"]),
            ("impossibility", ["brute", "--target", "Lin", "--level",
                               "strong", "--rdt", "f_seq"])):
        out = tmp_path / scenario
        main(["run", scenario, "--out", str(out)])
        lines = (out / "history.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        lines[0] = json.dumps(MISTYPED_HISTORY_LINES[case](rec) or rec)
        bad = out / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        args = [argv[0], str(bad)] + [str(out / a) if a.endswith(".json")
                                      else a for a in argv[1:]]
        assert main(args) == 2, argv[0]
        assert "malformed history line 1" in capsys.readouterr().err


# the annc-stable history and witness with one return value retyped, one
# vis pair naming an event by a bool, two events sharing an id, an event
# returning before its invoke or an operation the counter lacks: malformed
# input, so neither "holds" nor "violated"; each case with the error it
# prints
MISTYPED_VALUES = {
    "int-rval-a-float": ("history", lambda recs: recs[6]["rval"].update(
        value=4.0), "malformed int return value"),
    "bool-rval-an-int": ("history", lambda recs: next(
        r for r in recs if r["op"]["name"] == "subtract")["rval"].update(
            value=1), "malformed bool return value"),
    "rval-unknown-tag": ("history", lambda recs: recs[6]["rval"].update(
        tag="foo"), "unknown return value tag"),
    "vis-bool-id": ("witness", lambda w: w["vis"].append([True, 2]),
                    "malformed witness"),
    "duplicate-id": ("history", lambda recs: recs[1].update(id=0),
                     "duplicate event ids"),
    "returns-before-invoke": ("history", lambda recs: recs[6].update(
        return_ts=recs[6]["invoke_ts"] - 1), "event 6 returns before invoke"),
    "operation-the-type-lacks": ("history", lambda recs: recs[0]["op"].update(
        name="mul"), "event 0 runs mul, which is not an operation of f_nnc"),
}


@pytest.mark.parametrize("case", MISTYPED_VALUES)
def test_cli_check_rejects_mistyped_values_and_vis_ids(tmp_path, capsys,
                                                       case):
    out = tmp_path / "annc"
    main(["run", "annc-stable", "--out", str(out)])
    history, witness = out / "history.jsonl", out / "witness-counter.json"
    which, retype, error = MISTYPED_VALUES[case]
    if which == "history":
        recs = [json.loads(line) for line in history.read_text().splitlines()]
        retype(recs)
        history = tmp_path / "bad.jsonl"
        history.write_text("".join(json.dumps(r) + "\n" for r in recs))
    else:
        w = json.loads(witness.read_text())
        retype(w)
        witness = tmp_path / "bad-witness.json"
        witness.write_text(json.dumps(w))
    capsys.readouterr()
    code = main(["check", str(history), str(witness), "--predicate", "BEC",
                 "--level", "weak", "--rdt", "f_nnc",
                 "--stabilization-index", "7"])
    assert code == 2
    assert "error: " + error in capsys.readouterr().err


# command -> (scenario, its arguments after the history): brute takes a
# history of at most 6 events
HORIZON_RUNS = {
    "check": ("annc-stable", ["witness-counter.json", "--predicate", "BEC",
                              "--level", "weak", "--rdt", "f_nnc"]),
    "brute": ("impossibility", ["--target", "Lin", "--level", "strong",
                                "--rdt", "f_seq"]),
}


@pytest.mark.parametrize("command", HORIZON_RUNS)
def test_cli_rejects_a_stabilization_index_outside_the_history(
        tmp_path, capsys, command):
    """A stabilization index is an ordinal of the history or its length
    (no tail); -1 and one past the length exit 2."""
    scenario, rest = HORIZON_RUNS[command]
    main(["run", scenario, "--out", str(tmp_path)])
    history = tmp_path / "history.jsonl"
    n = len(history.read_text().splitlines())
    args = [command, str(history)] + [
        str(tmp_path / a) if a.endswith(".json") else a for a in rest]
    for index, want in ((-1, {2}), (n + 1, {2}), (0, {0, 1}), (n, {0, 1})):
        capsys.readouterr()
        code = main(args + ["--stabilization-index", str(index)])
        assert code in want, (index, code)
        assert ("stabilization index" in capsys.readouterr().err) == (
            want == {2})


# (command, operation, its new arguments): the first event running the
# operation in the scenario's history gets those arguments
MISTYPED_OPERATIONS = [
    ("check", "add", ["x"]),
    ("check", "add", []),
    ("check", "add", [1, 2]),
    ("check", "add", [True]),
    ("check", "get", [1]),
    ("brute", "append", [5]),
    ("brute", "append", []),
    ("brute", "read", ["x"]),
]


@pytest.mark.parametrize("command, name, args", MISTYPED_OPERATIONS,
                         ids=["%s-%s%s" % (c, n, json.dumps(a))
                              for c, n, a in MISTYPED_OPERATIONS])
def test_cli_check_and_brute_reject_mistyped_operations(tmp_path, capsys,
                                                        command, name, args):
    scenario, argv = {
        "check": ("annc-stable", ["witness-counter.json", "--predicate",
                                  "BEC", "--level", "weak", "--rdt",
                                  "f_nnc"]),
        "brute": ("impossibility", ["--target", "Lin", "--level", "strong",
                                    "--rdt", "f_seq"]),
    }[command]
    out = tmp_path / scenario
    main(["run", scenario, "--out", str(out)])
    lines = (out / "history.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    rec = next(r for r in recs if r["op"]["name"] == name)
    rec["op"]["args"] = args
    bad = out / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in recs))
    capsys.readouterr()
    args = [command, str(bad)] + [str(out / a) if a.endswith(".json")
                                  else a for a in argv]
    assert main(args) == 2
    assert "error: event %d runs %s" % (rec["id"], name) in (
        capsys.readouterr().err)


@pytest.mark.parametrize("where, field, value", [
    ("steps", "casts", 5),
    ("events", "rbdel", None),
    ("events", "level", "medium"),
    ("steps", "kind", "invoke!"),
    pytest.param("events", "rval", {"tag": "ok"},
                 id="events-rval-without-value"),
])
def test_cli_lint_rejects_mistyped_traces(tmp_path, capsys, where, field,
                                          value):
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    trace = json.loads((out / "trace.json").read_text())
    entry = trace["steps"][0] if where == "steps" else trace["events"]["0"]
    entry[field] = value
    bad = tmp_path / "bad-trace.json"
    bad.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["lint", str(bad)]) == 2
    assert "malformed trace %s 0" % where[:-1] in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01", "1_5", " 3"])
def test_cli_lint_rejects_event_keys_that_are_not_canonical(tmp_path, capsys,
                                                           key):
    """A key that reads as an event id but is not that id as str writes it
    names a second copy of the event; whichever comes later would win."""
    out = tmp_path / "art"
    main(["run", "annc-stable", "--out", str(out)])
    trace = json.loads((out / "trace.json").read_text())
    trace["events"][key] = trace["events"][str(int(key))]
    bad = tmp_path / "bad-trace.json"
    bad.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["lint", str(bad)]) == 2
    assert "malformed trace event key" in capsys.readouterr().err


# -- pinned scenario outputs -------------------------------------------------

def run_output(name, mode, seed, out_dir):
    """What `actsim run` prints, returns and writes for one scenario run:
    exit status, stdout and stderr lines, the trace digest and the sha256 of
    every artifact file."""
    argv = ["run", name, "--seed", str(seed), "--out", out_dir]
    if mode is not None:
        argv += ["--mode", mode]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as f:
            files[fname] = hashlib.sha256(f.read()).hexdigest()
    digest = None
    if "trace.json" in files:
        with open(os.path.join(out_dir, "trace.json")) as f:
            digest = ProtocolTrace.from_json(json.load(f)).digest()
    return {"exit": code, "stdout": out.getvalue().splitlines(),
            "stderr": err.getvalue().splitlines(), "trace_digest": digest,
            "files": files}


def scenario_outputs(name, root):
    """Every pinned run of one scenario, keyed "name/mode/seed"."""
    got = {}
    for mode in PINNED_MODES:
        for seed in PINNED_SEEDS:
            key = "%s/%s/%d" % (name, mode or "default", seed)
            out_dir = os.path.join(root, key.replace("/", "-"))
            got[key] = run_output(name, mode, seed, out_dir)
    return got


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_run_output_matches_the_pinned_record(tmp_path, name):
    with open(PINNED) as f:
        pinned = json.load(f)
    got = scenario_outputs(name, str(tmp_path))
    for key, value in got.items():
        assert value == pinned[key], key


if __name__ == "__main__":
    record = {}
    with tempfile.TemporaryDirectory() as root:
        for scenario in SCENARIOS:
            record.update(scenario_outputs(scenario, root))
    os.makedirs(os.path.dirname(PINNED), exist_ok=True)
    with open(PINNED, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %d runs in %s" % (len(record), PINNED), file=sys.stderr)
