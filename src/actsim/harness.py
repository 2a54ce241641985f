"""Scenario registry and run orchestration.

Each scenario wires replicas, a schedule, and a scripted workload into the
simulator, injects tail probes once the run quiesces, builds the protocol's
witness, and checks the relevant predicates.  Scenarios are deterministic
for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import (Event, History, OperationLabel, PENDING, STRONG, WEAK)
from .predicates import (HOLDS, HorizonConfig, PredicateReport, VIOLATED,
                         check_NCC, check_composite)
from .protocols import (ClassicLogReplica, MixedLogReplica, NncReplica,
                        RedBlueReplica)
from .rdt import F_NNC, F_SEQ
from .simnet import Invoke, Schedule, SimWorld
from .witness import (BruteResult, brute_force_witness, build_causal_witness,
                      build_log_witness, build_nnc_witness)


@dataclass
class RunArtifact:
    name: str
    mode: str
    history: History
    trace: object
    witnesses: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    world: object = None
    horizon: HorizonConfig = None

    @property
    def ok(self):
        return all(r.ok for r in self.reports)

    def report_lines(self):
        return [r.line() for r in self.reports]


def history_of(trace) -> History:
    events = []
    for eid in sorted(trace.events):
        r = trace.events[eid]
        rv = r.rval if r.rval is not None else PENDING
        events.append(Event(eid, r.op, rv, r.level, r.client,
                            r.invoke_step, r.return_step))
    h = History(events)
    h.validate()
    return h


def inject_probes(world, op, level, count=3, replicas=None):
    """Issue `count` sequential probes per replica after quiescence; returns
    the id of the first probe event (the stabilization index)."""
    first = world._next_event_id
    for rid in replicas if replicas is not None else range(len(world.replicas)):
        client = "probe-%d" % rid
        for _ in range(count):
            world.inject(client, rid, op, level)
    world.run_to_quiescence()
    return first


def converged(world):
    return len({r.convergence_digest() for r in world.replicas}) == 1


op = OperationLabel


# -- counter scenarios ----------------------------------------------------

def _counter_world(schedule, workload, mode):
    replicas = [NncReplica(i) for i in range(3)]
    return SimWorld(replicas, schedule, workload, mode=mode, protocol="nnc")


def scenario_annc_stable(seed=0, mode="stable"):
    schedule = Schedule(seed=seed, rb_delay=2, tob_delay=4)
    workload = [
        Invoke(1, "c0", 0, op("add", (5,)), WEAK),
        Invoke(2, "c1", 1, op("add", (3,)), WEAK),
        Invoke(4, "c2", 2, op("get"), WEAK),
        Invoke(6, "c3", 0, op("subtract", (4,)), STRONG),
        Invoke(8, "c4", 1, op("get"), WEAK),
        Invoke(20, "c5", 2, op("subtract", (10,)), STRONG),
        Invoke(40, "c6", 0, op("get"), WEAK),
    ]
    world = _counter_world(schedule, workload, mode)
    world.run_to_quiescence()
    stab = inject_probes(world, op("get"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_nnc_witness(history, world.trace, mode)
    reports = [check_composite(a, "BEC", WEAK, F_NNC, hz),
               check_composite(a, "Lin", STRONG, F_NNC, hz)]
    return RunArtifact("annc-stable", mode, history, world.trace,
                       {"counter": a}, reports,
                       {"converged": converged(world)}, world, hz)


def scenario_annc_async(seed=0, mode="async"):
    schedule = Schedule(seed=seed, rb_delay=2, tob_delay=4, tob_cutoff=15)
    workload = [
        Invoke(1, "c0", 0, op("add", (5,)), WEAK),
        Invoke(2, "c1", 1, op("add", (3,)), WEAK),
        Invoke(6, "c2", 0, op("subtract", (4,)), STRONG),
        Invoke(8, "c3", 1, op("get"), WEAK),
        Invoke(20, "c4", 2, op("subtract", (2,)), STRONG),
        Invoke(40, "c5", 0, op("get"), WEAK),
    ]
    world = _counter_world(schedule, workload, mode)
    world.run_to_quiescence()
    stab = inject_probes(world, op("get"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_nnc_witness(history, world.trace, mode)
    reports = [check_composite(a, "BEC", WEAK, F_NNC, hz),
               check_composite(a, "Lin", STRONG, F_NNC, hz)]
    pending = [e.id for e in history if e.rval.is_pending()]
    return RunArtifact("annc-async", mode, history, world.trace,
                       {"counter": a}, reports,
                       {"pending": pending}, world, hz)


def scenario_annc_partition(seed=0, mode="stable"):
    schedule = Schedule(seed=seed, rb_delay=2, tob_delay=4,
                        partitions=((10, ((0, 1), (2,))),
                                    (60, ((0, 1, 2),))))
    workload = [
        Invoke(1, "c0", 0, op("add", (5,)), WEAK),
        Invoke(12, "c1", 0, op("add", (2,)), WEAK),
        Invoke(14, "c2", 2, op("add", (7,)), WEAK),
        Invoke(16, "c3", 2, op("get"), WEAK),
        Invoke(20, "c4", 1, op("subtract", (3,)), STRONG),
        Invoke(70, "c5", 2, op("get"), WEAK),
    ]
    world = _counter_world(schedule, workload, mode)
    world.run_until(55)
    split_digests = [r.convergence_digest() for r in world.replicas]
    world.run_to_quiescence()
    stab = inject_probes(world, op("get"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_nnc_witness(history, world.trace, mode)
    reports = [check_composite(a, "BEC", WEAK, F_NNC, hz)]
    return RunArtifact("annc-partition-convergence", mode, history,
                       world.trace, {"counter": a}, reports,
                       {"diverged_during_partition":
                        len(set(split_digests)) > 1,
                        "converged": converged(world)}, world, hz)


# -- primary-commit log scenarios -----------------------------------------

def _classic_world(schedule, workload, mode):
    replicas = [ClassicLogReplica(0), ClassicLogReplica(1),
                ClassicLogReplica(2, is_primary=True)]
    return SimWorld(replicas, schedule, workload, mode=mode,
                    protocol="classic-log")


def _classic_run(seed, mode):
    schedule = Schedule(seed=seed, rb_delay=20,
                        rb_delays=((0, 2, 3), (1, 2, 40), (1, 0, 10)))
    workload = [
        Invoke(1, "cu2", 1, op("upd_y"), WEAK),
        Invoke(5, "cu1", 0, op("upd_x"), WEAK),
        Invoke(14, "cq1", 0, op("read_z"), WEAK),
        Invoke(33, "cq2", 1, op("read_z"), WEAK),
    ]
    world = _classic_world(schedule, workload, mode)
    world.run_to_quiescence()
    stab = inject_probes(world, op("read_z"), WEAK)
    history = history_of(world.trace)
    dot_to_event = {r.req_dot: e for e, r in world.trace.events.items()}
    commit = [dot_to_event[d] for d in world.replicas[2].committed_dots()
              if d in dot_to_event]
    a = build_causal_witness(history, world.trace, commit)
    return world, history, HorizonConfig(stab), a


def scenario_classic_tor(seed=0, mode="stable"):
    world, history, hz, a = _classic_run(seed, mode)
    q1 = rvals_named(history, "cq1")
    q2 = rvals_named(history, "cq2")
    reports = []
    return RunArtifact("bayou-classic-tor", mode, history, world.trace,
                       {"causal": a}, reports,
                       {"q1": q1, "q2": q2, "converged": converged(world)},
                       world, hz)


def scenario_classic_circular(seed=0, mode="stable"):
    world, history, hz, a = _classic_run(seed, mode)
    ncc = check_NCC(a, WEAK)
    return RunArtifact("bayou-classic-circular", mode, history, world.trace,
                       {"causal": a}, [ncc],
                       {"cycle": ncc.counterexample[0] if ncc.counterexample
                        else ()}, world, hz)


def rvals_named(history, client):
    vals = [e.rval.value for e in history if e.client == client]
    return vals[0] if len(vals) == 1 else vals


# -- tentative-log scenarios -----------------------------------------------

def _log_world(schedule, workload, mode):
    replicas = [MixedLogReplica(0), MixedLogReplica(1)]
    return SimWorld(replicas, schedule, workload, mode=mode, protocol="log")


def scenario_log_stable(seed=0, mode="stable"):
    schedule = Schedule(seed=seed, rb_delay=3, tob_delay=15,
                        clock_skew=((0, 10),))
    workload = [
        Invoke(2, "cA", 0, op("append", ("a",)), WEAK),
        Invoke(4, "cB", 1, op("append", ("b",)), WEAK),
        Invoke(9, "cR", 0, op("read"), WEAK),
        Invoke(20, "cS", 1, op("read"), STRONG),
        Invoke(60, "cR2", 0, op("read"), WEAK),
    ]
    world = _log_world(schedule, workload, mode)
    world.run_to_quiescence()
    stab = inject_probes(world, op("read"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_log_witness(history, world.trace, mode)
    reports = [check_composite(a, "FEC", WEAK, F_SEQ, hz),
               check_composite(a, "Lin", STRONG, F_SEQ, hz)]
    tentative_read = next(e.id for e in history if e.client == "cR")
    return RunArtifact("acutebayou-stable", mode, history, world.trace,
                       {"log": a}, reports,
                       {"tentative_read": tentative_read,
                        "tentative_value": rvals_named(history, "cR"),
                        "final_value": rvals_named(history, "cR2"),
                        "strong_value": rvals_named(history, "cS"),
                        "par_differs": a.par[tentative_read] != a.ar,
                        "excerpt": tuple(
                            e.id for e in history
                            if e.client in ("cA", "cB", "cR", "cR2")),
                        "converged": converged(world)}, world, hz)


def scenario_log_async(seed=0, mode="async"):
    schedule = Schedule(seed=seed, rb_delay=3, tob_delay=15,
                        clock_skew=((0, 10),), tob_cutoff=30)
    workload = [
        Invoke(2, "cA", 0, op("append", ("a",)), WEAK),
        Invoke(4, "cB", 1, op("append", ("b",)), WEAK),
        Invoke(9, "cR", 0, op("read"), WEAK),
        Invoke(35, "cS", 0, op("append", ("c",)), STRONG),
        Invoke(60, "cR2", 1, op("read"), WEAK),
    ]
    world = _log_world(schedule, workload, mode)
    world.run_to_quiescence()
    stab = inject_probes(world, op("read"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_log_witness(history, world.trace, mode)
    reports = [check_composite(a, "FEC", WEAK, F_SEQ, hz),
               check_composite(a, "Lin", STRONG, F_SEQ, hz)]
    pending = [e.id for e in history if e.rval.is_pending()]
    return RunArtifact("acutebayou-async", mode, history, world.trace,
                       {"log": a}, reports, {"pending": pending}, world, hz)


# -- shadow-operation scenario ---------------------------------------------

def scenario_redblue(seed=0, mode="stable"):
    schedule = Schedule(seed=seed, rb_delay=5,
                        rb_delays=((0, 1, 30),))
    replicas = [RedBlueReplica(0), RedBlueReplica(1)]
    workload = [
        Invoke(1, "c1", 0, op("append", ("a",)), WEAK),
        Invoke(5, "c2", 1, op("append", ("b",)), WEAK),
        Invoke(8, "c3", 1, op("read"), WEAK),
    ]
    world = SimWorld(replicas, schedule, workload, mode=mode,
                     protocol="redblue")
    world.run_to_quiescence()
    inject_probes(world, op("read"), WEAK, count=1)
    history = history_of(world.trace)
    finals = [e.rval.value for e in history if e.client.startswith("probe")]
    return RunArtifact("redblue-anomaly", mode, history, world.trace, {}, [],
                       {"anomaly_read": rvals_named(history, "c3"),
                        "final_reads": finals,
                        "converged": converged(world)}, world,
                       HorizonConfig(len(history)))


# -- impossibility fixture ---------------------------------------------------

def impossibility_history(flip=False):
    """Two concurrent appends followed by two concurrent reads that disagree
    on the order.  With flip=True the disagreement is repaired."""
    first_read = "ab" if flip else "ba"
    from .model import rv_str, OK as ok_rv
    events = [
        Event(0, op("append", ("a",)), ok_rv, STRONG, "ca", 0, 1),
        Event(1, op("append", ("b",)), ok_rv, STRONG, "cb", 0, 1),
        Event(2, op("read"), rv_str(first_read), STRONG, "cr", 2, 3),
        Event(3, op("read"), rv_str("ab"), STRONG, "cx", 2, 3),
    ]
    h = History(events)
    h.validate()
    return h


def scenario_impossibility(seed=0, mode="stable"):
    h = impossibility_history()
    hz = HorizonConfig(len(h))
    result = brute_force_witness(h, "Lin", STRONG, F_SEQ, hz)
    flipped = brute_force_witness(impossibility_history(flip=True),
                                  "Lin", STRONG, F_SEQ, hz)
    verdict = VIOLATED if not result.satisfiable else HOLDS
    report = PredicateReport(
        "Lin", STRONG, verdict,
        (("unsatisfiable", result.ars_tried, result.candidates_tried),)
        if not result.satisfiable else ())
    return RunArtifact("impossibility", mode, h, None, {},
                       [report],
                       {"flipped_ar": flipped.witness.ar
                        if flipped.witness is not None else None,
                        "satisfiable": result.satisfiable,
                        "flipped_satisfiable": flipped.satisfiable,
                        "ars_tried": result.ars_tried,
                        "candidates_tried": result.candidates_tried}, None, hz)


SCENARIOS = {
    "annc-stable": scenario_annc_stable,
    "annc-async": scenario_annc_async,
    "annc-partition-convergence": scenario_annc_partition,
    "bayou-classic-tor": scenario_classic_tor,
    "bayou-classic-circular": scenario_classic_circular,
    "acutebayou-stable": scenario_log_stable,
    "acutebayou-async": scenario_log_async,
    "redblue-anomaly": scenario_redblue,
    "impossibility": scenario_impossibility,
}


def run_scenario(name, seed=0, mode=None):
    if name not in SCENARIOS:
        raise KeyError(name)
    fn = SCENARIOS[name]
    if mode is None:
        return fn(seed=seed)
    return fn(seed=seed, mode=mode)


# -- randomized workloads -----------------------------------------------------

def random_counter_run(seed, max_events=8, n_replicas=3, probe_count=3,
                       probe_replicas=None, allow_async=True):
    """A seeded random counter workload; returns (artifact extras dict)."""
    rng = random.Random(seed)
    mode = "async" if allow_async and rng.random() < 0.3 else "stable"
    cutoff = rng.randint(10, 40) if mode == "async" else None
    schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 4),
                        tob_delay=rng.randint(2, 6),
                        jitter=rng.randint(0, 2), tob_cutoff=cutoff)
    n = rng.randint(1, max_events)
    workload = []
    step = 0
    for i in range(n):
        step += rng.randint(1, 8)
        kind = rng.choice(["add", "add", "get", "get", "subtract"])
        if kind == "add":
            workload.append(Invoke(step, "c%d" % i,
                                   rng.randrange(n_replicas),
                                   op("add", (rng.randint(1, 5),)), WEAK))
        elif kind == "get":
            workload.append(Invoke(step, "c%d" % i,
                                   rng.randrange(n_replicas),
                                   op("get"), WEAK))
        else:
            workload.append(Invoke(step, "c%d" % i,
                                   rng.randrange(n_replicas),
                                   op("subtract", (rng.randint(1, 4),)),
                                   STRONG))
    replicas = [NncReplica(i) for i in range(n_replicas)]
    world = SimWorld(replicas, schedule, workload, mode=mode, protocol="nnc")
    world.run_to_quiescence()
    stab = inject_probes(world, op("get"), WEAK, count=probe_count,
                         replicas=probe_replicas)
    history = history_of(world.trace)
    hz = HorizonConfig(stab, probe_count)
    a = build_nnc_witness(history, world.trace, mode)
    return history, world.trace, a, hz, mode


def random_log_run(seed, max_events=8):
    rng = random.Random(seed)
    schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 5),
                        tob_delay=rng.randint(3, 8),
                        jitter=rng.randint(0, 2),
                        clock_skew=((0, rng.randint(0, 12)),))
    n = rng.randint(1, max_events)
    workload = []
    step = 0
    letters = "abcdefgh"
    for i in range(n):
        step += rng.randint(1, 8)
        kind = rng.choice(["append", "append", "read", "sread"])
        rid = rng.randrange(2)
        if kind == "append":
            lvl = rng.choice([WEAK, WEAK, STRONG])
            workload.append(Invoke(step, "c%d" % i, rid,
                                   op("append", (letters[i],)), lvl))
        elif kind == "read":
            workload.append(Invoke(step, "c%d" % i, rid, op("read"), WEAK))
        else:
            workload.append(Invoke(step, "c%d" % i, rid, op("read"), STRONG))
    world = _log_world(schedule, workload, "stable")
    world.run_to_quiescence()
    stab = inject_probes(world, op("read"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_log_witness(history, world.trace, "stable")
    return history, world.trace, a, hz


def agreement_case(seed):
    """Tiny counter run (at most 4 events including the probe) for comparing
    the witness builder's verdict against exhaustive search."""
    history, trace, a, hz, mode = random_counter_run(
        seed, max_events=3, n_replicas=2, probe_count=1,
        probe_replicas=(0,), allow_async=True)
    built = check_composite(a, "BEC", WEAK, F_NNC, hz)
    brute = brute_force_witness(history, "BEC", WEAK, F_NNC, hz)
    return built.ok, brute.satisfiable, history, a
