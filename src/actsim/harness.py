"""Scenario registry and the one runner that executes it.

A scenario is a frozen `Scenario` record.  A simulated one names its
replicas, schedule and scripted workload, and the probe each replica answers
once the run quiesces; the fixture scenario names a history instead, and
its operation levels (`ActSpec`; a simulated run takes its replicas').
Both name a witness builder, the predicates to check and the facts to report.
`run_scenario` runs any record the same way: simulate (through an optional
split step) to quiescence, inject the tail probes, extract the history,
enforce the `ActSpec`, build the witness, check, and collect the extras.  A
scenario without a witness builder is checked by exhaustive search.
Scenarios are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .model import (Event, History, OK, OperationLabel, PENDING, STRONG, WEAK,
                    rv_str)
from .predicates import HOLDS, HorizonConfig, PredicateReport, VIOLATED, check
from .protocols import (ClassicLogReplica, MixedLogReplica, NncReplica,
                        RedBlueReplica)
from .rdt import ACT_SEQ_MIXED, ActSpec, F_SEQ
from .simnet import Invoke, Schedule, SimWorld
from .witness import (brute_force_witness, build_causal_witness,
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
    # (predicate, level) -> BruteResult, for checks made by exhaustive search
    searches: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(r.ok for r in self.reports)


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
    first = len(world.trace.events)
    for rid in replicas if replicas is not None else range(len(world.replicas)):
        client = "probe-%d" % rid
        for _ in range(count):
            world.inject(client, rid, op, level)
    world.run_to_quiescence()
    return first


def converged(world):
    return len({r.convergence_digest() for r in world.replicas}) == 1


op = OperationLabel


@dataclass(frozen=True)
class Scenario:
    name: str
    note: str                                # `actsim list-scenarios` line
    mode: str = "stable"                     # when a run names no mode
    replicas: Optional[Callable] = None      # () -> replicas; None: fixture
    protocol: str = "unknown"
    schedule: Optional[Schedule] = None      # its seed is set per run
    invokes: tuple = ()
    probe: Optional[OperationLabel] = None   # a weak probe per replica ...
    probe_count: int = 3                     # ... this many times each
    fixture: Optional[Callable] = None       # () -> History, with no replicas
    act: Optional[ActSpec] = None            # the fixture's operation levels
    witness: Optional[Callable] = None       # (history, world) -> (label, A)
    checks: tuple = ()                       # (predicate, level) pairs
    split_step: Optional[int] = None         # run to here, note divergence
    extras: Optional[Callable] = None        # RunArtifact -> dict of facts


def run_scenario(scenario, seed=0, mode=None):
    """Run a `Scenario`, or the registered one of that name."""
    sc = SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    mode = mode or sc.mode
    world = trace = None
    extras = {}
    if sc.replicas is None:
        history = sc.fixture()
        hz = HorizonConfig(len(history))
    else:
        world = SimWorld(sc.replicas(), replace(sc.schedule, seed=seed),
                         sc.invokes, mode=mode, protocol=sc.protocol)
        if sc.split_step is not None:
            world.run_until(sc.split_step)
            extras["diverged_during_partition"] = not converged(world)
        world.run_to_quiescence()
        hz = HorizonConfig(inject_probes(world, sc.probe, WEAK,
                                         sc.probe_count))
        trace = world.trace
        history = history_of(trace)
    act = sc.act if world is None else world.replicas[0].act
    if act is not None:
        act.check_history(history)
    rdt = act.rdt if act is not None else None
    art = RunArtifact(sc.name, mode, history, trace, extras=extras,
                      world=world, horizon=hz)
    if sc.witness is not None:
        label, a = sc.witness(history, world)
        art.witnesses[label] = a
        art.reports = [check(a, p, lvl, rdt, hz) for p, lvl in sc.checks]
    else:
        art.reports = [_search(art, p, lvl, rdt) for p, lvl in sc.checks]
    if sc.extras is not None:
        extras.update(sc.extras(art))
    return art


def _search(art, predicate, level, rdt):
    """A verdict by exhaustive search: it holds iff some witness exists."""
    result = art.searches[predicate, level] = brute_force_witness(
        art.history, predicate, level, rdt, art.horizon)
    if result.satisfiable:
        return PredicateReport(predicate, level, HOLDS)
    return PredicateReport(predicate, level, VIOLATED, (
        ("unsatisfiable", result.ars_tried, result.candidates_tried),))


# -- witness builders and extras ---------------------------------------------

def _primary_commit_witness(history, world):
    """The causal witness, arbitrated in the primary's commit order."""
    primary, = (r for r in world.replicas if r.is_primary)
    commit = [r.event for r in primary.committed]
    return "causal", build_causal_witness(history, world.trace, commit)


def rvals_named(history, client):
    vals = [e.rval.value for e in history if e.client == client]
    return vals[0] if len(vals) == 1 else vals


def _converged(art):
    return {"converged": converged(art.world)}


def _pending(art):
    return {"pending": [e.id for e in art.history if e.rval.is_pending()]}


def _tentative_log_extras(art):
    h, a = art.history, art.witnesses["log"]
    tentative_read = next(e.id for e in h if e.client == "cR")
    return {"tentative_read": tentative_read,
            "tentative_value": rvals_named(h, "cR"),
            "final_value": rvals_named(h, "cR2"),
            "strong_value": rvals_named(h, "cS"),
            "par_differs": a.par[tentative_read] != a.ar,
            "excerpt": tuple(e.id for e in h
                             if e.client in ("cA", "cB", "cR", "cR2")),
            **_converged(art)}


def impossibility_history(flip=False):
    """Two concurrent appends followed by two concurrent reads that disagree
    on the order.  With flip=True the disagreement is repaired."""
    first_read = "ab" if flip else "ba"
    events = [
        Event(0, op("append", ("a",)), OK, STRONG, "ca", 0, 1),
        Event(1, op("append", ("b",)), OK, STRONG, "cb", 0, 1),
        Event(2, op("read"), rv_str(first_read), STRONG, "cr", 2, 3),
        Event(3, op("read"), rv_str("ab"), STRONG, "cx", 2, 3),
    ]
    h = History(events)
    h.validate()
    return h


def _impossibility_extras(art):
    result = art.searches["Lin", STRONG]
    flipped = brute_force_witness(impossibility_history(flip=True),
                                  "Lin", STRONG, F_SEQ, art.horizon)
    return {"flipped_ar": flipped.witness.ar
            if flipped.witness is not None else None,
            "satisfiable": result.satisfiable,
            "flipped_satisfiable": flipped.satisfiable,
            "ars_tried": result.ars_tried,
            "candidates_tried": result.candidates_tried}


# -- the registry ------------------------------------------------------------

# fields that records share; the replica factories look their classes up
# when a run starts
_COUNTER = dict(
    replicas=lambda: [NncReplica(i) for i in range(3)],
    protocol="nnc", probe=op("get"),
    witness=lambda h, world: (
        "counter", build_nnc_witness(h, world.trace, world.mode)))

_PRIMARY_COMMIT = dict(
    replicas=lambda: [ClassicLogReplica(0), ClassicLogReplica(1),
                      ClassicLogReplica(2, is_primary=True)],
    protocol="classic-log",
    schedule=Schedule(rb_delay=20,
                      rb_delays=((0, 2, 3), (1, 2, 40), (1, 0, 10))),
    invokes=(
        Invoke(1, "cu2", 1, op("upd_y"), WEAK),
        Invoke(5, "cu1", 0, op("upd_x"), WEAK),
        Invoke(14, "cq1", 0, op("read_z"), WEAK),
        Invoke(33, "cq2", 1, op("read_z"), WEAK),
    ),
    probe=op("read_z"), witness=_primary_commit_witness)

_TENTATIVE_LOG = dict(
    replicas=lambda: [MixedLogReplica(0), MixedLogReplica(1)],
    protocol="log", probe=op("read"),
    witness=lambda h, world: (
        "log", build_log_witness(h, world.trace, world.mode)),
    checks=(("FEC", WEAK), ("Lin", STRONG)))

SCENARIOS = {sc.name: sc for sc in (
    Scenario(
        "annc-stable", "counter, every broadcast delivered", **_COUNTER,
        schedule=Schedule(rb_delay=2, tob_delay=4),
        invokes=(
            Invoke(1, "c0", 0, op("add", (5,)), WEAK),
            Invoke(2, "c1", 1, op("add", (3,)), WEAK),
            Invoke(4, "c2", 2, op("get"), WEAK),
            Invoke(6, "c3", 0, op("subtract", (4,)), STRONG),
            Invoke(8, "c4", 1, op("get"), WEAK),
            Invoke(20, "c5", 2, op("subtract", (10,)), STRONG),
            Invoke(40, "c6", 0, op("get"), WEAK),
        ),
        checks=(("BEC", WEAK), ("Lin", STRONG)), extras=_converged),
    Scenario(
        "annc-async", "counter, a subtract's total-order message is withheld",
        mode="async", **_COUNTER,
        schedule=Schedule(rb_delay=2, tob_delay=4, tob_cutoff=15),
        invokes=(
            Invoke(1, "c0", 0, op("add", (5,)), WEAK),
            Invoke(2, "c1", 1, op("add", (3,)), WEAK),
            Invoke(6, "c2", 0, op("subtract", (4,)), STRONG),
            Invoke(8, "c3", 1, op("get"), WEAK),
            Invoke(20, "c4", 2, op("subtract", (2,)), STRONG),
            Invoke(40, "c5", 0, op("get"), WEAK),
        ),
        checks=(("BEC", WEAK), ("Lin", STRONG)), extras=_pending),
    Scenario(
        "annc-partition-convergence", "counter, network splits then heals",
        **_COUNTER,
        schedule=Schedule(rb_delay=2, tob_delay=4,
                          partitions=((10, ((0, 1), (2,))),
                                      (60, ((0, 1, 2),)))),
        invokes=(
            Invoke(1, "c0", 0, op("add", (5,)), WEAK),
            Invoke(12, "c1", 0, op("add", (2,)), WEAK),
            Invoke(14, "c2", 2, op("add", (7,)), WEAK),
            Invoke(16, "c3", 2, op("get"), WEAK),
            Invoke(20, "c4", 1, op("subtract", (3,)), STRONG),
            Invoke(70, "c5", 2, op("get"), WEAK),
        ),
        checks=(("BEC", WEAK),), split_step=55, extras=_converged),
    Scenario(
        "bayou-classic-tor", "primary-commit log, tentative reads disagree",
        **_PRIMARY_COMMIT,
        extras=lambda art: {"q1": rvals_named(art.history, "cq1"),
                            "q2": rvals_named(art.history, "cq2"),
                            **_converged(art)}),
    Scenario(
        "bayou-classic-circular", "primary-commit log, causality cycle check",
        **_PRIMARY_COMMIT, checks=(("NCC", WEAK),),
        extras=lambda art: {"cycle": art.reports[0].counterexample[0]
                            if art.reports[0].counterexample else ()}),
    Scenario(
        "acutebayou-stable", "tentative log, every broadcast delivered",
        **_TENTATIVE_LOG,
        schedule=Schedule(rb_delay=3, tob_delay=15, clock_skew=((0, 10),)),
        invokes=(
            Invoke(2, "cA", 0, op("append", ("a",)), WEAK),
            Invoke(4, "cB", 1, op("append", ("b",)), WEAK),
            Invoke(9, "cR", 0, op("read"), WEAK),
            Invoke(20, "cS", 1, op("read"), STRONG),
            Invoke(60, "cR2", 0, op("read"), WEAK),
        ),
        extras=_tentative_log_extras),
    Scenario(
        "acutebayou-async", "tentative log, a strong commit is withheld",
        mode="async", **_TENTATIVE_LOG,
        schedule=Schedule(rb_delay=3, tob_delay=15, clock_skew=((0, 10),),
                          tob_cutoff=30),
        invokes=(
            Invoke(2, "cA", 0, op("append", ("a",)), WEAK),
            Invoke(4, "cB", 1, op("append", ("b",)), WEAK),
            Invoke(9, "cR", 0, op("read"), WEAK),
            Invoke(35, "cS", 0, op("append", ("c",)), STRONG),
            Invoke(60, "cR2", 1, op("read"), WEAK),
        ),
        extras=_pending),
    Scenario(
        "redblue-anomaly", "shadow operations, stale read then convergence",
        replicas=lambda: [RedBlueReplica(0), RedBlueReplica(1)],
        protocol="redblue",
        schedule=Schedule(rb_delay=5, rb_delays=((0, 1, 30),)),
        invokes=(
            Invoke(1, "c1", 0, op("append", ("a",)), WEAK),
            Invoke(5, "c2", 1, op("append", ("b",)), WEAK),
            Invoke(8, "c3", 1, op("read"), WEAK),
        ),
        probe=op("read"), probe_count=1,
        extras=lambda art: {
            "anomaly_read": rvals_named(art.history, "c3"),
            "final_reads": [e.rval.value for e in art.history
                            if e.client.startswith("probe")],
            **_converged(art)}),
    Scenario(
        "impossibility", "fixture history with no valid witness",
        fixture=impossibility_history, act=ACT_SEQ_MIXED,
        checks=(("Lin", STRONG),), extras=_impossibility_extras),
)}
