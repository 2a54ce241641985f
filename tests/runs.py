"""Seeded random counter and log runs for the property and acceptance
tests, and the tiny counter runs on which the witness builder is compared
with exhaustive search."""

import random
from dataclasses import replace

from actsim.harness import history_of, inject_probes
from actsim.model import OperationLabel as op, STRONG, WEAK
from actsim.predicates import HorizonConfig, check_composite
from actsim.protocols import MixedLogReplica, NncReplica
from actsim.rdt import F_NNC
from actsim.simnet import Invoke, Schedule, SimWorld
from actsim.witness import (brute_force_witness, build_log_witness,
                            build_nnc_witness)


def random_counter_run(seed, max_events=8, n_replicas=3, probe_count=3,
                       probe_replicas=None, allow_async=True, events=None):
    """A seeded random counter workload of `events` invokes (drawn up to
    max_events when None); returns (history, trace, witness, horizon,
    mode)."""
    rng = random.Random(seed)
    mode = "async" if allow_async and rng.random() < 0.3 else "stable"
    cutoff = rng.randint(10, 40) if mode == "async" else None
    schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 4),
                        tob_delay=rng.randint(2, 6),
                        jitter=rng.randint(0, 2), tob_cutoff=cutoff)
    n = events or rng.randint(1, max_events)
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


def random_log_run(seed, max_events=8, mode="stable", events=None,
                   max_gap=8):
    """A seeded random tentative-log workload of `events` invokes (drawn up
    to max_events when None), each 1 to max_gap steps after the last; in
    async mode total-order delivery stops at a random step, so some strong
    events stay pending.  Returns (history, trace, witness, horizon)."""
    rng = random.Random(seed)
    schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 5),
                        tob_delay=rng.randint(3, 8),
                        jitter=rng.randint(0, 2),
                        clock_skew=((0, rng.randint(0, 12)),))
    n = events or rng.randint(1, max_events)
    workload = []
    step = 0
    for i in range(n):
        step += rng.randint(1, max_gap)
        kind = rng.choice(["append", "append", "read", "sread"])
        rid = rng.randrange(2)
        if kind == "append":
            lvl = rng.choice([WEAK, WEAK, STRONG])
            workload.append(Invoke(step, "c%d" % i, rid,
                                   op("append", (chr(97 + i % 26),)), lvl))
        elif kind == "read":
            workload.append(Invoke(step, "c%d" % i, rid, op("read"), WEAK))
        else:
            workload.append(Invoke(step, "c%d" % i, rid, op("read"), STRONG))
    if mode == "async":
        schedule = replace(schedule, tob_cutoff=rng.randint(10, step + 10))
    world = SimWorld([MixedLogReplica(0), MixedLogReplica(1)], schedule,
                     workload, mode=mode, protocol="log")
    world.run_to_quiescence()
    stab = inject_probes(world, op("read"), WEAK)
    history = history_of(world.trace)
    hz = HorizonConfig(stab)
    a = build_log_witness(history, world.trace, mode)
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
