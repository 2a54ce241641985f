"""Command line interface.

Subcommands:
  run <scenario>       simulate a named scenario, print predicate verdicts
  check <history> <witness>   check one predicate on a saved execution
  brute <history>      exhaustively search for a witness of a composite
  lint <trace>         check the replica-implementation rules on a trace
  list-scenarios       print the scenario names

Exit status: 0 when everything checked holds, 1 when something is violated
or unsatisfiable, 2 on malformed input (including, for check and brute, an
operation the data type does not define or an argument of the wrong type).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import SCENARIOS, run_scenario
from .model import AbstractExecution, History, MalformedHistory
from .predicates import COMPOSITES, PREDICATES, HorizonConfig, VIOLATED, check
from .rdt import RDTS
from .simnet import ProtocolTrace, check_act_restrictions
from .witness import brute_force_witness


def _load_history(path):
    with open(path) as f:
        h = History.from_jsonl(f.read())
    h.validate()
    return h


def _horizon(args, history):
    idx = args.stabilization_index
    if idx is None:
        idx = len(history)
    elif not 0 <= idx <= len(history):
        raise MalformedHistory("stabilization index %d is outside 0..%d"
                               % (idx, len(history)))
    return HorizonConfig(idx)


def cmd_run(args):
    if args.scenario not in SCENARIOS:
        print("unknown scenario: %s" % args.scenario, file=sys.stderr)
        return 2
    art = run_scenario(args.scenario, seed=args.seed, mode=args.mode)
    for r in art.reports:
        print(r.line())
    for key, value in sorted(art.extras.items()):
        print("%s: %s" % (key, value))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "history.jsonl"), "w") as f:
            f.write(art.history.to_jsonl())
        if art.trace is not None:
            with open(os.path.join(args.out, "trace.json"), "w") as f:
                json.dump(art.trace.to_json(), f, indent=2)
        for name, witness in art.witnesses.items():
            with open(os.path.join(args.out, "witness-%s.json" % name),
                      "w") as f:
                json.dump(witness.to_json(), f, indent=2)
        with open(os.path.join(args.out, "reports.json"), "w") as f:
            json.dump([r.to_json() for r in art.reports], f, indent=2)
    return 0 if art.ok else 1


def cmd_check(args):
    history = _load_history(args.history)
    spec = RDTS[args.rdt]
    spec.check_history(history)
    with open(args.witness) as f:
        a = AbstractExecution.from_json(history, json.load(f))
    hz = _horizon(args, history)
    if args.predicate not in PREDICATES and args.predicate not in COMPOSITES:
        print("unknown predicate: %s" % args.predicate, file=sys.stderr)
        return 2
    report = check(a, args.predicate, args.level, spec, hz)
    print(report.line())
    if report.verdict == VIOLATED and report.counterexample:
        print("counterexample: %s" % (report.counterexample,))
    for sub in report.sub_reports:
        print("  " + sub.line())
    return 0 if report.ok else 1


def cmd_brute(args):
    history = _load_history(args.history)
    spec = RDTS[args.rdt]
    spec.check_history(history)
    hz = _horizon(args, history)
    result = brute_force_witness(history, args.target, args.level, spec, hz)
    print("satisfiable: %s" % result.satisfiable)
    print("arbitrations tried: %d" % result.ars_tried)
    print("candidates tried: %d" % result.candidates_tried)
    if result.witness is not None:
        print(json.dumps(result.witness.to_json(), indent=2))
    return 0 if result.satisfiable else 1


def cmd_lint(args):
    with open(args.trace) as f:
        trace = ProtocolTrace.from_json(json.load(f))
    report = check_act_restrictions(trace)
    for sub in report.sub_reports:
        print(sub.line())
        if not sub.ok:
            for item in sub.counterexample:
                print("  %s" % (item,))
    return 0 if report.ok else 1


def cmd_list(args):
    for name, sc in SCENARIOS.items():
        print("%-28s %s" % (name, sc.note))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="actsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a named scenario")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--mode", choices=["stable", "async"], default=None)
    run_p.add_argument("--out", default=None,
                       help="directory for history/trace/witness artifacts")
    run_p.set_defaults(fn=cmd_run)

    check_p = sub.add_parser("check", help="check a predicate on a witness")
    check_p.add_argument("history")
    check_p.add_argument("witness")
    check_p.add_argument("--predicate", required=True)
    check_p.add_argument("--level", required=True,
                         choices=["weak", "strong"])
    check_p.add_argument("--rdt", required=True, choices=sorted(RDTS))
    check_p.add_argument("--stabilization-index", type=int, default=None)
    check_p.set_defaults(fn=cmd_check)

    brute_p = sub.add_parser("brute", help="search all witnesses")
    brute_p.add_argument("history")
    brute_p.add_argument("--target", required=True, choices=COMPOSITES)
    brute_p.add_argument("--level", default="weak",
                         choices=["weak", "strong"])
    brute_p.add_argument("--rdt", default="f_seq", choices=sorted(RDTS))
    brute_p.add_argument("--stabilization-index", type=int, default=None)
    brute_p.set_defaults(fn=cmd_brute)

    lint_p = sub.add_parser("lint", help="check replica implementation rules")
    lint_p.add_argument("trace")
    lint_p.set_defaults(fn=cmd_lint)

    list_p = sub.add_parser("list-scenarios", help="print scenario names")
    list_p.set_defaults(fn=cmd_list)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError,
            MalformedHistory, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
