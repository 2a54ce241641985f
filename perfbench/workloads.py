"""The benchmark's seeded workloads and the actsim pipeline each one drives.

Every workload is a pool of histories.  Pool entry `i` is generated from the
string seed "<workload>/<size>/<i>" alone, so `reference.json` can record the
output of every entry once.  A run's `--seed` picks the order in which the
pool is visited; a run visits the pool in that order, wrapping round, until
its time is up.  Histories run one after another in one thread: the next
history starts only after the previous verdict is in (a closed loop with one
caller), which is how the checker is used as a batch tool.

The pipeline calls actsim's public functions directly:
simnet -> harness.history_of -> witness -> predicates/rdt/model ->
simnet.check_act_restrictions.  With an enabled `Tracer` each call sits in a
span named after the module it enters, and the composite predicates are
replaced by the same `check_*` calls the composite makes, one span each.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass

from actsim import cli, harness, model, predicates, rdt, simnet, witness
from actsim.model import STRONG, WEAK, OperationLabel
from actsim.predicates import HOLDS, VIOLATED, HorizonConfig
from actsim.protocols import MixedLogReplica, NncReplica
from actsim.simnet import Invoke, Schedule, SimWorld

# the predicates each composite conjoins, in the order check_composite runs
# them (Lin and Seq include BEC)
PARTS = {
    "BEC": ("EV", "NCC", "RVal"),
    "FEC": ("EV", "NCC", "FRVal", "CPar"),
    "Lin": ("SinOrd", "RT", "EV", "NCC", "RVal"),
}

CHECKS = {
    "EV": lambda a, l, spec, hz: predicates.check_EV(a, l, hz),
    "NCC": lambda a, l, spec, hz: predicates.check_NCC(a, l),
    "RVal": lambda a, l, spec, hz: predicates.check_RVal(a, l, spec),
    "FRVal": lambda a, l, spec, hz: predicates.check_FRVal(a, l, spec),
    "CPar": lambda a, l, spec, hz: predicates.check_CPar(a, l, hz),
    "SinOrd": lambda a, l, spec, hz: predicates.check_SinOrd(a, l),
    "RT": lambda a, l, spec, hz: predicates.check_RT(a, l),
}


@dataclass(frozen=True)
class Spec:
    """The inputs of one history, as the program receives them."""

    index: int
    protocol: str               # "nnc" (counter) or "log"
    n_replicas: int
    schedule: Schedule
    invokes: tuple
    mode: str
    probe_count: int
    probe_replicas: tuple | None


@dataclass
class Result:
    """One history carried through the pipeline."""

    seconds: float
    events: int
    outcome: dict               # compared field by field with the reference
    artifact: tuple = None      # (history, witness, horizon) when one exists


# -- input generation -----------------------------------------------------

COUNTER_MIX = ("add", "add", "get", "get", "subtract")


def _counter_invokes(rng, n, n_replicas, max_gap, clients=None, kinds=None):
    out, step = [], 0
    for i in range(n):
        step += rng.randint(1, max_gap)
        client = "c%d" % (i % clients if clients else i)
        rid = rng.randrange(n_replicas)
        kind = kinds[i] if kinds else rng.choice(COUNTER_MIX)
        if kind == "add":
            out.append(Invoke(step, client, rid,
                              OperationLabel("add", (rng.randint(1, 5),)), WEAK))
        elif kind == "get":
            out.append(Invoke(step, client, rid, OperationLabel("get"), WEAK))
        else:
            out.append(Invoke(step, client, rid,
                              OperationLabel("subtract", (rng.randint(1, 4),)),
                              STRONG))
    return tuple(out)


def counter_spec(index, rng, n):
    """The ROADMAP Baseline counter run: 3 replicas, invokes 1-3 steps apart,
    8 clients round-robin, 3 get probes per replica."""
    schedule = Schedule(seed=rng.getrandbits(32), rb_delay=2, tob_delay=4,
                        jitter=1)
    return Spec(index, "nnc", 3, schedule,
                _counter_invokes(rng, n, 3, 3, clients=8), "stable", 3, None)


def partition_spec(index, rng, n):
    """A counter run with jitter 3 in which replica 2 is cut off for the
    middle third of the invoke span, then rejoins."""
    seed = rng.getrandbits(32)
    invokes = _counter_invokes(rng, n, 3, 3, clients=8)
    last = invokes[-1].at_step
    schedule = Schedule(seed=seed, rb_delay=2, tob_delay=4, jitter=3,
                        partitions=((last // 3, ((0, 1), (2,))),
                                    (2 * last // 3, ((0, 1, 2),))))
    return Spec(index, "nnc", 3, schedule, invokes, "stable", 3, None)


def log_spec(index, rng, n):
    """Two tentative-log replicas, replica 0's clock skewed by 5; appends are
    strong one time in three, reads are weak or strong."""
    schedule = Schedule(seed=rng.getrandbits(32), rb_delay=2, tob_delay=4,
                        jitter=1, clock_skew=((0, 5),))
    out, step = [], 0
    for i in range(n):
        step += rng.randint(1, 3)
        client = "c%d" % (i % 8)
        rid = rng.randrange(2)
        kind = rng.choice(["append", "append", "read", "sread"])
        if kind == "append":
            out.append(Invoke(step, client, rid,
                              OperationLabel("append", (chr(97 + i % 26),)),
                              rng.choice([WEAK, WEAK, STRONG])))
        else:
            out.append(Invoke(step, client, rid, OperationLabel("read"),
                              STRONG if kind == "sread" else WEAK))
    return Spec(index, "log", 2, schedule, tuple(out), "stable", 3, None)


def tiny_spec(index, rng, max_events):
    """A tiny counter run drawn like harness.random_counter_run with two
    replicas and one get probe on replica 0; about 30% are asynchronous.
    Two draws are balanced rather than random, so that every stretch of a
    run does the same amount of search: the invoke count is
    1 + index % max_events (`specs` visits one entry of each count per
    round; search cost grows as n!), and the operations are drawn from the
    add/add/get/get/subtract mix without replacement (each weak get
    multiplies the contexts the search screens)."""
    mode = "async" if rng.random() < 0.3 else "stable"
    cutoff = rng.randint(10, 40) if mode == "async" else None
    schedule = Schedule(seed=rng.getrandbits(32), rb_delay=rng.randint(1, 4),
                        tob_delay=rng.randint(2, 6), jitter=rng.randint(0, 2),
                        tob_cutoff=cutoff)
    n = 1 + index % max_events
    kinds = rng.sample(COUNTER_MIX * (1 + n // len(COUNTER_MIX)), n)
    return Spec(index, "nnc", 2, schedule,
                _counter_invokes(rng, n, 2, 8, kinds=kinds), mode, 1, (0,))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object                # (index, rng, size) -> Spec
    sizes: dict                 # "full"/"half" -> size parameter
    pool: dict                  # "full"/"half" -> number of pool entries
    run: object                 # (workload, spec, tracer) -> [Result]
    checks: tuple = ()          # ((composite, level), ...)
    rdt: object = None
    build_witness: object = None
    strata: bool = False        # pool index % size parameter is a stratum


def specs(w, size, seed):
    """The pool of `w` at `size`, in the order run `seed` visits it.  With
    strata, the order is a sequence of rounds holding one entry of each
    stratum, so any stretch of the run has the same mix."""
    n = w.pool[size]
    k = w.sizes[size] if w.strata else 1
    rng = random.Random(seed)
    classes = [rng.sample(range(c, n, k), len(range(c, n, k)))
               for c in range(k)]
    order = [i for rnd in zip(*classes) for i in rng.sample(rnd, k)]
    return [pool_entry(w, size, i) for i in order]


def pool_entry(w, size, i):
    return w.make(i, random.Random("%s/%s/%d" % (w.name, size, i)),
                  w.sizes[size])


# -- the pipeline ----------------------------------------------------------

def _simulate(spec, tr):
    with tr.span("simnet.run"):
        replica = NncReplica if spec.protocol == "nnc" else MixedLogReplica
        world = SimWorld([replica(i) for i in range(spec.n_replicas)],
                         spec.schedule, spec.invokes, mode=spec.mode,
                         protocol=spec.protocol)
        world.run_to_quiescence()
        probe = OperationLabel("get" if spec.protocol == "nnc" else "read")
        stab = harness.inject_probes(world, probe, WEAK,
                                     count=spec.probe_count,
                                     replicas=spec.probe_replicas)
    tr.count("simnet.steps", len(world.trace.steps))
    tr.count("simnet.final_now", world.now)
    tr.count("simnet.messages", len(world.messages))
    tr.count("simnet.withheld", len(world.withheld))
    with tr.span("harness.history_of"):
        history = harness.history_of(world.trace)
    return world, history, HorizonConfig(stab, spec.probe_count)


def _check(tr, a, composite, level, spec, hz):
    """A composite verdict: one check_composite call untraced, or the same
    check_* calls one span each when traced."""
    if not tr.enabled:
        return predicates.check_composite(a, composite, level, spec, hz).verdict
    ok = True
    for part in PARTS[composite]:
        with tr.span("predicates." + part):
            ok = CHECKS[part](a, level, spec, hz).ok and ok
    return HOLDS if ok else VIOLATED


def _lint_and_converge(world, tr):
    with tr.span("simnet.lint"):
        lint = simnet.check_act_restrictions(world.trace)
    with tr.span("protocols.converge"):
        converged = len({r.convergence_digest() for r in world.replicas}) == 1
    return {"lint": [s.predicate for s in lint.sub_reports if not s.ok],
            "converged": converged}


def _probe(tr, a, checks, spec):
    """Attribution probes: rdt contexts and evaluations as the return-value
    predicates form them, the relations model derives, and counts."""
    if not tr.enabled:
        return
    for composite, level in checks:
        context = rdt.fcontext_of if composite == "FEC" else rdt.context_of
        for e in a.history:
            if e.lvl != level or e.rval.is_pending():
                continue
            with tr.span("rdt.context", probe=True):
                c = context(a, e.id)
            with tr.span("rdt.evaluate", probe=True):
                spec.evaluate(e.op, c)
    with tr.span("model.rb", probe=True):
        a.history.rb
    with tr.span("model.hb", probe=True):
        model.happens_before(a)
    tr.count("model.vis_edges", len(a.vis))
    tr.count("predicates.par_differs",
             sum(1 for e in a.history.ids() if a.par[e] != a.ar))


def _start(tr):
    tr.history = 0 if tr.history is None else tr.history + 1
    return time.perf_counter()


def run_checked(w, spec, tr):
    """Simulate, extract, build the witness, check, lint, converge."""
    t0 = _start(tr)
    with tr.span("history"):
        world, history, hz = _simulate(spec, tr)
        with tr.span("witness.build"):
            a = w.build_witness(history, world.trace, spec.mode)
        verdicts = {"%s(%s)" % (c, l): _check(tr, a, c, l, w.rdt, hz)
                    for c, l in w.checks}
        outcome = _lint_and_converge(world, tr)
    seconds = time.perf_counter() - t0
    outcome.update(verdicts=verdicts, events=len(history),
                   digest=world.trace.digest()[:16])
    _probe(tr, a, w.checks, w.rdt)
    return [Result(seconds, len(history), outcome, (history, a, hz))]


def run_simulation(w, spec, tr):
    """Simulate, extract, lint and converge; no predicate checks."""
    t0 = _start(tr)
    with tr.span("history"):
        world, history, hz = _simulate(spec, tr)
        outcome = _lint_and_converge(world, tr)
    seconds = time.perf_counter() - t0
    outcome.update(events=len(history), digest=world.trace.digest()[:16])
    return [Result(seconds, len(history), outcome)]


def perturbed(history):
    """The history with its last get's return value raised past the sum of
    every add, a value no arbitration can produce: exhaustive search has to
    enumerate everything to prove it unsatisfiable."""
    last = max(e.id for e in history if e.op.name == "get")
    value = 1 + sum(e.op.args[0] for e in history if e.op.name == "add")
    events = [model.Event(e.id, e.op, model.rv_int(value), e.lvl,
                          e.client, e.invoke_ts, e.return_ts)
              if e.id == last else e for e in history]
    h = model.History(events)
    h.validate()
    return h


def _oracle(w, history, trace, spec, hz, tr):
    with tr.span("witness.build"):
        a = w.build_witness(history, trace, spec.mode)
    built = _check(tr, a, "BEC", WEAK, w.rdt, hz)
    with tr.span("witness.brute"):
        res = witness.brute_force_witness(history, "BEC", WEAK, w.rdt, hz)
    tr.count("witness.brute_ars_tried", res.ars_tried)
    tr.count("witness.brute_candidates_tried", res.candidates_tried)
    tr.count("witness.brute_sat", int(res.satisfiable))
    return a, {"verdicts": {"BEC(weak)": built},
               "satisfiable": res.satisfiable,
               "ars_tried": res.ars_tried,
               "candidates_tried": res.candidates_tried}


def run_oracle(w, spec, tr):
    """Two histories per run: the simulated one, then the same history with
    its last get perturbed.  Each is checked for BEC(weak) twice: on the
    witness `build_nnc_witness` constructs, and by exhaustive search."""
    t0 = _start(tr)
    with tr.span("history"):
        world, history, hz = _simulate(spec, tr)
        a, first = _oracle(w, history, world.trace, spec, hz, tr)
    t1 = time.perf_counter()
    first.update(events=len(history), digest=world.trace.digest()[:16])
    _probe(tr, a, w.checks, w.rdt)

    t2 = _start(tr)
    with tr.span("history"):
        bad = perturbed(history)
        b, second = _oracle(w, bad, world.trace, spec, hz, tr)
    t3 = time.perf_counter()
    _probe(tr, b, w.checks, w.rdt)
    return [Result(t1 - t0, len(history), first, (history, a, hz)),
            Result(t3 - t2, len(bad), second)]


WORKLOADS = {w.name: w for w in (
    Workload("counter-bec-lin",
             "checker-bound: BEC(weak) + Lin(strong) on 209-event counter "
             "runs; relation and context costs show here",
             counter_spec, {"full": 200, "half": 100}, {"full": 40, "half": 8},
             run_checked, (("BEC", WEAK), ("Lin", STRONG)), rdt.F_NNC,
             witness.build_nnc_witness),
    Workload("log-fec-lin",
             "FEC(weak) + Lin(strong) on 206-event tentative logs; contexts "
             "follow each event's perceived arbitration",
             log_spec, {"full": 200, "half": 100}, {"full": 40, "half": 8},
             run_checked, (("FEC", WEAK), ("Lin", STRONG)), rdt.F_SEQ,
             witness.build_log_witness),
    Workload("sim-partition",
             "simulator-bound: 800-event partitioned counter runs, linted "
             "and checked for convergence, no predicates",
             partition_spec, {"full": 791, "half": 395},
             {"full": 40, "half": 8}, run_simulation),
    Workload("oracle-sweep",
             "exhaustive search on 2-5 event counter histories, as simulated "
             "and with the last get perturbed; per-call constants show here",
             tiny_spec, {"full": 4, "half": 2}, {"full": 2000, "half": 200},
             run_oracle, (("BEC", WEAK),), rdt.F_NNC,
             witness.build_nnc_witness, strata=True),
)}


def cli_check(w, artifact, directory):
    """Write a history and its witness to `directory`, then re-check the
    first composite through `actsim check`; returns the exit status."""
    history, a, hz = artifact
    composite, level = w.checks[0]
    hpath = os.path.join(directory, "history.jsonl")
    wpath = os.path.join(directory, "witness.json")
    with open(hpath, "w") as f:
        f.write(history.to_jsonl())
    with open(wpath, "w") as f:
        json.dump(a.to_json(), f)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", hpath, wpath, "--predicate", composite,
                         "--level", level, "--rdt", w.rdt.name,
                         "--stabilization-index",
                         str(hz.stabilization_index)])
