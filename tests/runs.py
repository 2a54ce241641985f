"""Seeded random counter and log runs for the property and acceptance
tests, the tiny counter runs on which the witness builder is compared
with exhaustive search, seeded random worlds of every replica class, and
random abstract executions of each data type drawn without a simulator."""

import random
from dataclasses import replace

from actsim.harness import history_of, inject_probes
from actsim.model import (PENDING, AbstractExecution, Event, History,
                          OperationLabel as op, Relation, STRONG, WEAK)
from actsim.predicates import HorizonConfig, check_composite
from actsim.protocols import (ClassicLogReplica, MixedLogReplica,
                              NncReplica, RedBlueReplica)
from actsim.rdt import F_MVR, F_NNC, F_SEQ, context_of
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


# protocol -> (the operations a random world draws, each with the levels
# it may run at, and the probe)
WORLD_OPS = {
    "nnc": ((op("add", (1,)), (WEAK,)), (op("add", (3,)), (WEAK,)),
            (op("get"), (WEAK,)), (op("subtract", (2,)), (STRONG,))),
    "log": ((op("append", ("a",)), (WEAK, WEAK, STRONG)),
            (op("append", ("b",)), (WEAK, STRONG)),
            (op("read"), (WEAK, STRONG))),
    "classic-log": ((op("upd_x"), (WEAK,)), (op("upd_y"), (WEAK,)),
                    (op("read_z"), (WEAK,))),
    "redblue": ((op("append", ("a",)), (WEAK, STRONG)),
                (op("append", ("b",)), (WEAK,)), (op("read"), (WEAK,))),
}
WORLD_PROBES = {"nnc": op("get"), "log": op("read"),
                "classic-log": op("read_z"), "redblue": op("read")}


def _world_replicas(protocol, n, rng):
    if protocol == "nnc":
        return [NncReplica(i) for i in range(n)]
    if protocol == "log":
        return [MixedLogReplica(i) for i in range(n)]
    if protocol == "redblue":
        return [RedBlueReplica(i) for i in range(n)]
    primary = rng.randrange(n)
    return [ClassicLogReplica(i, is_primary=i == primary) for i in range(n)]


def _random_partitions(rng, n, span, heal):
    """One to three splits of the n replicas into two blocks, at increasing
    steps inside the invoke span, followed by a heal when heal is set."""
    out, step = [], 0
    for _ in range(rng.randint(1, 3)):
        step += rng.randint(1, max(1, span // 2))
        ids = rng.sample(range(n), n)
        cut = rng.randint(1, n - 1)
        blocks = (tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:])))
        out.append((step, tuple(sorted(blocks))))
    if heal:
        out.append((step + rng.randint(1, 30), (tuple(range(n)),)))
    return tuple(out)


def random_world(seed, max_events=16):
    """A seeded random world of one of the four replica classes (seed % 4
    picks it), built but not yet run: 2 or 3 replicas, stable or async with
    a TOB cutoff, jitter 0 to 3, per-link delays, clock skew, and, in three
    runs of five, partitions, which heal in two of those three.  Returns
    (world, probe)."""
    rng = random.Random(seed)
    protocol = sorted(WORLD_OPS)[seed % 4]
    n = rng.randint(2, 3)
    mode = rng.choice(("stable", "async"))
    workload, step = [], 0
    for i in range(rng.randint(1, max_events)):
        step += rng.randint(1, 6)
        label, levels = rng.choice(WORLD_OPS[protocol])
        workload.append(Invoke(step, "c%d" % rng.randrange(5),
                               rng.randrange(n), label, rng.choice(levels)))
    links = tuple((o, d, rng.randint(1, 9)) for o in range(n)
                  for d in range(n) if o != d and rng.random() < 0.3)
    skew = tuple((r, rng.randint(0, 12)) for r in range(n)
                 if rng.random() < 0.4)
    partitions = ()
    draw = rng.random()
    if draw < 0.6:
        partitions = _random_partitions(rng, n, step, heal=draw < 0.4)
    schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 5),
                        rb_delays=links, tob_delay=rng.randint(2, 8),
                        jitter=rng.randint(0, 3), clock_skew=skew,
                        tob_cutoff=(rng.randint(5, step + 10)
                                    if mode == "async" else None),
                        partitions=partitions)
    world = SimWorld(_world_replicas(protocol, n, rng), schedule, workload,
                     mode=mode, protocol=protocol)
    return world, WORLD_PROBES[protocol]


def agreement_case(seed):
    """Tiny counter run (at most 4 events including the probe) for comparing
    the witness builder's verdict against exhaustive search."""
    history, trace, a, hz, mode = random_counter_run(
        seed, max_events=3, n_replicas=2, probe_count=1,
        probe_replicas=(0,), allow_async=True)
    built = check_composite(a, "BEC", WEAK, F_NNC, hz)
    brute = brute_force_witness(history, "BEC", WEAK, F_NNC, hz)
    return built.ok, brute.satisfiable, history, a


# the operations random_execution draws from, per data type
OPS = {
    F_NNC: (op("add", (1,)), op("add", (2,)), op("subtract", (1,)),
            op("subtract", (2,)), op("get"), op("get")),
    F_SEQ: (op("append", ("a",)), op("append", ("b",)), op("read"),
            op("read")),
    F_MVR: (op("write", (1,)), op("write", (2,)), op("write", (3,)),
            op("read"), op("read")),
}


def random_execution(rng, spec, n):
    """A random abstract execution of n events of spec, drawn from rng.

    Events get random operations, levels and clients (two or three), and
    intervals that overlap at random but never within a client; the last
    event of one client may stay pending.  vis is acyclic: its edges go
    forward along a random order, or along invoke order with rb added.  ar
    is that order or a random permutation, and in one execution of four
    vis into each event is exactly what ar puts before it.  Each complete
    event returns what F gives on its context, so RVal holds at both
    levels.
    """
    clients = "abc"[:rng.randint(2, 3)]
    free, events, t = {}, [], 0
    for i in range(n):
        client = rng.choice(clients)
        t += rng.randint(0, 2)
        start = max(t, free.get(client, -1) + 1)
        free[client] = end = start + rng.randint(0, 3)
        events.append([i, rng.choice(OPS[spec]), rng.choice((WEAK, STRONG)),
                       client, start, end])
    if rng.random() < 0.25:
        last = {ev[3]: ev for ev in events}
        last[rng.choice(sorted(last))][5] = None
    history = History(Event(i, lab, PENDING, lvl, client, start, end)
                      for i, lab, lvl, client, start, end in events)
    ids = history.ids()
    by_invoke = rng.random() < 0.5
    order = (sorted(ids, key=lambda e: (events[e][4], e)) if by_invoke
             else rng.sample(ids, n))
    ar = order if rng.random() < 0.5 else rng.sample(ids, n)
    preds, before = {}, 0
    for e in order:
        preds[e] = before & rng.getrandbits(n)
        if by_invoke and rng.random() < 0.5:
            preds[e] |= history.rb.pred_mask(e)
        before |= 1 << e
    if rng.random() < 0.25:
        before = 0
        for e in ar:
            preds[e], before = before, before | 1 << e
    vis = Relation.from_pred_masks(preds)
    a = AbstractExecution(history, vis, ar)
    history = History(
        e if e.return_ts is None else Event(
            e.id, e.op, spec.evaluate(e.op, context_of(a, e.id)), e.lvl,
            e.client, e.invoke_ts, e.return_ts)
        for e in history)
    return AbstractExecution(history, vis, ar)
