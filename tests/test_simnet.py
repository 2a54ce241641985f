"""Tests for the deterministic scheduler and the implementation-rule lints.

`PYTHONPATH=src python tests/test_simnet.py` re-records
`tests/data/random_runs.json`, the pinned outputs of seeded random worlds of
every replica class; do that only when a change to a run's output is
intended.
"""

import hashlib
import json
import os
import random
import sys

import pytest

from actsim import harness, protocols
from actsim.harness import run_scenario
from actsim.model import OperationLabel, STRONG, WEAK, rv_int
from actsim.protocols import NncReplica, Replica
from actsim.simnet import (Invoke, ProtocolTrace, Schedule, SimWorld,
                           StepBudgetExceeded, TOB, UnknownReplica,
                           check_act_restrictions)
import reference
import runs
from runs import random_counter_run


def lab(name, *args):
    return OperationLabel(name, args)


def run_world(replicas, workload, **schedkw):
    world = SimWorld(replicas, Schedule(**schedkw), workload, protocol="nnc")
    world.run_to_quiescence()
    return world


def test_same_seed_gives_identical_traces():
    a = run_scenario("annc-stable", seed=3)
    b = run_scenario("annc-stable", seed=3)
    assert a.trace.digest() == b.trace.digest()
    assert a.history.to_jsonl() == b.history.to_jsonl()
    h1, t1, *_ = random_counter_run(11)
    h2, t2, *_ = random_counter_run(11)
    assert t1.digest() == t2.digest()


def test_total_order_deliveries_are_a_dense_ascending_prefix():
    """Each replica's TOB deliveries carry 1, 2, 3, ..., and each event's
    tobno is the rank of its message's first TOB delivery anywhere, on
    stable, partitioned and asynchronous runs and on random counter runs
    (with jitter, some asynchronous)."""
    traces = [run_scenario(name).trace for name in (
        "annc-stable", "annc-partition-convergence", "annc-async",
        "acutebayou-async")]
    modes = set()
    for seed in range(50):
        _, trace, _, _, mode = random_counter_run(seed, max_events=10)
        traces.append(trace)
        modes.add(mode)
    assert modes == {"stable", "async"}
    ranked = 0
    for trace in traces:
        per_replica, first = {}, {}
        for rec in trace.steps:
            if rec.kind == "deliver" and rec.detail.get("kind") == TOB:
                per_replica.setdefault(rec.replica, []).append(
                    rec.detail["tobno"])
                first.setdefault(rec.detail["msg"], len(first) + 1)
        for seq in per_replica.values():
            assert seq == list(range(1, len(seq) + 1))
        sent = {mid: rec.detail["event"] for rec in trace.steps
                if rec.kind == "invoke" for mid, kind in rec.casts
                if kind == TOB}
        rank = {sent[mid]: r for mid, r in first.items() if mid in sent}
        for eid, ev in trace.events.items():
            assert ev.tobno == rank.get(eid), eid
        ranked += len(rank)
    assert ranked > 0


def test_fifo_broadcast_preserves_per_link_order():
    art = run_scenario("bayou-classic-tor")
    per_dest = {}
    for rec in art.trace.steps:
        if rec.kind == "deliver" and rec.detail.get("kind") == "FIFO_RB":
            per_dest.setdefault(rec.replica, []).append(rec.detail["msg"])
    assert per_dest
    for msgs in per_dest.values():
        assert msgs == sorted(msgs)


def test_partition_blocks_cross_partition_deliveries():
    art = run_scenario("annc-partition-convergence")
    world = art.world
    blocks = {frozenset(b) for b in ((0, 1), (2,))}
    for rec in art.trace.steps:
        if rec.kind != "deliver" or not 10 <= rec.step < 60:
            continue
        origin = world.messages[rec.detail["msg"]].origin
        if origin == rec.replica:
            continue
        same = any(origin in b and rec.replica in b for b in blocks)
        assert same, "cross-block delivery at step %d" % rec.step


def test_cutoff_withholds_the_late_total_order_message():
    art = run_scenario("annc-async")
    world = art.world
    pending = art.extras["pending"][0]
    withheld_msgs = {m for m, dest in world.withheld if dest is None}
    assert any(world.messages[m].cast_event == pending for m in withheld_msgs)
    for rec in art.trace.steps:
        if rec.kind == "deliver":
            assert rec.detail["msg"] not in withheld_msgs


def test_inject_never_fires_for_a_client_awaiting_a_withheld_answer():
    art = run_scenario("annc-async")
    world = art.world
    rec = world.trace.events[art.extras["pending"][0]]
    assert rec.pending
    n = len(world.trace.events)
    world.inject(rec.client, rec.replica, lab("get"), WEAK)
    world.run_to_quiescence()
    assert len(world.trace.events) == n


def test_inject_fires_for_a_new_client_at_the_next_step():
    world = run_scenario("annc-stable").world
    now = world.now
    world.inject("fresh", 1, lab("get"), WEAK)
    world.run_to_quiescence()
    rec = world.trace.events[max(world.trace.events)]
    assert (rec.client, rec.replica, rec.invoke_step) == ("fresh", 1, now + 1)


def test_inject_runs_after_the_clients_queued_invokes():
    replicas = [NncReplica(0), NncReplica(1)]
    workload = [Invoke(5, "c0", 0, lab("add", 1), WEAK),
                Invoke(10, "c0", 1, lab("add", 2), WEAK),
                Invoke(15, "c0", 0, lab("get"), WEAK)]
    world = SimWorld(replicas, Schedule(rb_delay=2, tob_delay=3), workload)
    world.run_until(2)
    world.inject("c0", 1, lab("add", 3), WEAK)
    world.run_to_quiescence()
    evs = [world.trace.events[e] for e in sorted(world.trace.events)]
    assert [(e.client, e.replica, e.op) for e in evs] == [
        ("c0", 0, lab("add", 1)), ("c0", 1, lab("add", 2)),
        ("c0", 0, lab("get")), ("c0", 1, lab("add", 3))]
    assert [e.invoke_step for e in evs[:3]] == [5, 10, 15]
    assert evs[3].invoke_step > evs[2].return_step


def test_step_budget_is_enforced():
    replicas = [NncReplica(0), NncReplica(1)]
    workload = [Invoke(1, "c0", 0, lab("add", 1), WEAK),
                Invoke(2, "c1", 1, lab("add", 2), WEAK)]
    world = SimWorld(replicas, Schedule(rb_delay=2, tob_delay=3), workload)
    with pytest.raises(StepBudgetExceeded):
        world.run_to_quiescence(max_steps=1)


def test_unknown_replica_is_rejected():
    world = SimWorld([NncReplica(0)], Schedule(),
                     [Invoke(1, "c0", 5, lab("get"), WEAK)])
    with pytest.raises(UnknownReplica):
        world.run_to_quiescence()


def test_run_until_stops_at_the_step_limit():
    replicas = [NncReplica(0), NncReplica(1)]
    workload = [Invoke(1, "c0", 0, lab("add", 1), WEAK),
                Invoke(30, "c1", 1, lab("get"), WEAK)]
    world = SimWorld(replicas, Schedule(rb_delay=2, tob_delay=3), workload)
    world.run_until(20)
    assert world.now <= 20
    assert world._heap and all(r > 20 for r, *_ in world._heap)
    invoked = [r.detail.get("event") for r in world.trace.steps
               if r.kind == "invoke"]
    assert invoked == [0]
    world.run_to_quiescence()
    assert len(world.trace.events) == 2


RANDOM_RUNS = os.path.join(os.path.dirname(__file__), "data",
                           "random_runs.json")
RANDOM_SEEDS = range(300)


def random_run_outputs(seed):
    """The outputs of `runs.random_world(seed)` run to quiescence and then
    probed: the trace digest, a hash of the whole trace JSON, the final
    clock and the number of withheld deliveries."""
    world, probe = runs.random_world(seed)
    world.run_to_quiescence()
    harness.inject_probes(world, probe, WEAK)
    text = json.dumps(world.trace.to_json(), sort_keys=True)
    return {"trace": world.trace.digest(),
            "json": hashlib.sha256(text.encode()).hexdigest()[:16],
            "now": world.now, "withheld": len(world.withheld)}


def test_random_runs_keep_their_pinned_outputs():
    """Every pinned run keeps its outputs.  A null entry is a run that,
    when it was recorded, retried a TOB delivery behind a withheld one
    forever; it now returns, with that delivery withheld."""
    with open(RANDOM_RUNS) as f:
        pinned = json.load(f)
    assert sorted(map(int, pinned)) == list(RANDOM_SEEDS)
    kept = stranded = 0
    for seed, want in pinned.items():
        got = random_run_outputs(int(seed))
        if want is None:
            assert got["withheld"] > 0, seed
            stranded += 1
        else:
            assert got == want, seed
            kept += 1
    assert kept > 250 and stranded > 10


def test_a_delivery_behind_a_withheld_one_is_withheld_too():
    # replica 2 is cut off from step 2 on, so neither TOB message reaches
    # it; the second one used to retry behind the first forever
    world = run_world([NncReplica(i) for i in range(3)],
                      [Invoke(3, "c0", 0, lab("add", 1), WEAK),
                       Invoke(4, "c1", 1, lab("add", 2), WEAK)],
                      rb_delay=2, tob_delay=4,
                      partitions=((2, ((0, 1), (2,))),))
    tob = [m.id for m in world.messages.values() if m.kind == TOB]
    rb = [m.id for m in world.messages.values() if m.kind != TOB]
    assert world.now == 14
    assert world.withheld == {(mid, 2) for mid in tob + rb}
    assert world.tob_pointer == [2, 2, 0]
    assert check_act_restrictions(world.trace).ok


def test_trace_json_round_trip():
    from actsim.simnet import ProtocolTrace
    art = run_scenario("annc-stable")
    t2 = ProtocolTrace.from_json(art.trace.to_json())
    assert t2.digest() == art.trace.digest()
    assert t2.events.keys() == art.trace.events.keys()
    some = min(t2.events)
    assert t2.events[some] == art.trace.events[some]



# -- the implementation-rule lints -----------------------------------------

import mutants
from mutants import RULES, mutant_runs, verdicts


def test_stock_protocols_pass_every_rule():
    for name in ("annc-stable", "annc-async", "bayou-classic-tor",
                 "acutebayou-stable", "acutebayou-async", "redblue-anomaly"):
        art = run_scenario(name)
        assert all(v == "holds" for v in verdicts(art.trace).values()), name


def test_each_mutant_breaks_exactly_its_rule():
    seen = []
    for rule, world in mutant_runs():
        got = verdicts(world.trace)
        assert got[rule] == "violated", rule
        for other in RULES:
            if other != rule:
                assert got[other] == "holds", (rule, other, got)
        seen.append(rule)
    assert seen == list(RULES)


def test_a_replica_cannot_claim_its_reads_away():
    """Whether an invoke is local read-only comes from the data type, so a
    replica whose get marks its state, and which says that its get is no
    read, is still held to rule 1."""

    class DisclaimingReplica(mutants.VisibleGetReplica):
        def is_local_ro(self, op, level):
            return False

    world = mutants.run_world(
        [DisclaimingReplica(0), NncReplica(1)],
        [Invoke(1, "c0", 0, lab("add", 2), WEAK),
         Invoke(6, "c1", 0, lab("get"), WEAK)],
        rb_delay=2, tob_delay=3)
    assert world.trace.events[1].local_ro
    assert verdicts(world.trace)["invisible_reads"] == "violated"


# -- the per-step state digest ---------------------------------------------

def recording(cls):
    """A subclass of `cls` that hashes its state afresh on entering each
    handler, so the digests can be compared with the trace's hash_before."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.entry_digests = []

        def on_invoke(self, *args):
            self.entry_digests.append(self.state_digest())
            return super().on_invoke(*args)

        def on_deliver(self, msg):
            self.entry_digests.append(self.state_digest())
            return super().on_deliver(msg)

        def on_internal(self):
            self.entry_digests.append(self.state_digest())
            return super().on_internal()

    Recording.__name__ = cls.__name__
    return Recording


def checking(cls, check):
    """A subclass of `cls` that calls check(self) on entering and on
    leaving each handler."""

    class Checking(cls):
        def on_invoke(self, *args):
            check(self)
            eff = super().on_invoke(*args)
            check(self)
            return eff

        def on_deliver(self, msg):
            check(self)
            eff = super().on_deliver(msg)
            check(self)
            return eff

        def on_internal(self):
            check(self)
            eff = super().on_internal()
            check(self)
            return eff

    Checking.__name__ = cls.__name__
    return Checking


def _wrap_replicas(monkeypatch, module, wrap):
    for name, obj in list(vars(module).items()):
        if isinstance(obj, type) and issubclass(obj, Replica):
            monkeypatch.setattr(module, name, wrap(obj))


def _assert_hash_before_is_fresh(world, label):
    for rid, rep in enumerate(world.replicas):
        recorded = [s.hash_before for s in world.trace.steps
                    if s.replica == rid]
        assert rep.entry_digests == recorded, (label, rid)
        assert recorded, (label, rid)


def test_hash_before_equals_a_fresh_digest_at_handler_entry(monkeypatch):
    _wrap_replicas(monkeypatch, harness, recording)
    _wrap_replicas(monkeypatch, mutants, recording)
    checked = 0
    for name in harness.SCENARIOS:
        for mode in ("stable", "async"):
            art = harness.run_scenario(name, mode=mode)
            if art.world is None:
                continue
            _assert_hash_before_is_fresh(art.world, (name, mode))
            checked += 1
    for rule, world in mutants.mutant_runs():
        _assert_hash_before_is_fresh(world, rule)
        checked += 1
    assert checked == 2 * (len(harness.SCENARIOS) - 1) + len(RULES)


def test_digests_equal_those_of_a_from_scratch_render(monkeypatch):
    checked = {}
    # each class's state rendered from scratch; the visible-get mutant adds
    # its read count to the counter's
    scratch = dict(reference.STATE_REPRS)
    scratch[mutants.VisibleGetReplica] = (
        lambda r: (*reference.nnc_state(r), r.read_count),
        reference.nnc_converged)

    def check(rep):
        got = rep.state_digest(), rep.convergence_digest()
        with pytest.MonkeyPatch.context() as m:
            for cls, (state, converged) in scratch.items():
                m.setattr(cls, "_state_repr", state)
                m.setattr(cls, "_converged_repr", converged)
            want = reference.state_digest(rep), rep.convergence_digest()
        name = type(rep).__name__
        assert got == want, name
        checked[name] = checked.get(name, 0) + 1

    for module in (harness, mutants, runs):
        _wrap_replicas(monkeypatch, module, lambda cls: checking(cls, check))
    for name in harness.SCENARIOS:
        for mode in ("stable", "async"):
            for seed in (0, 1):
                harness.run_scenario(name, seed=seed, mode=mode)
    assert len(list(mutants.mutant_runs())) == len(RULES)
    for seed in range(30):
        runs.random_counter_run(seed, max_events=30)
        runs.random_log_run(seed, mode=("stable", "async")[seed % 2],
                            events=30)
    assert set(checked) == {
        "NncReplica", "MixedLogReplica", "ClassicLogReplica",
        "RedBlueReplica", "VisibleGetReplica", "RestlessReplica",
        "ChattyGetReplica", "SlowAddReplica", "MuteSubtractReplica"}


def rehashing(cls):
    """A subclass of `cls` that hashes its whole state afresh, as the
    reference does, on entering and on leaving each handler."""

    class Rehashing(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.entry_digests, self.exit_digests = [], []

        def _handle(self, handler, *args):
            self.entry_digests.append(reference.state_digest(self))
            eff = handler(*args)
            self.exit_digests.append(reference.state_digest(self))
            return eff

        def on_invoke(self, *args):
            return self._handle(super().on_invoke, *args)

        def on_deliver(self, msg):
            return self._handle(super().on_deliver, msg)

        def on_internal(self):
            return self._handle(super().on_internal)

    Rehashing.__name__ = cls.__name__
    return Rehashing


def test_state_digests_equal_a_full_rehash_at_every_step(monkeypatch):
    """The recorded digests, which hash the leading text once per change
    and then only the rest of the state, equal sha256 over the whole
    state's text before and after every step, on random worlds of every
    replica class and on the five mutants."""
    checked = {}

    def check(world, label):
        for rid, rep in enumerate(world.replicas):
            steps = [s for s in world.trace.steps if s.replica == rid]
            assert [s.hash_before for s in steps] == rep.entry_digests, label
            assert [s.hash_after for s in steps] == rep.exit_digests, label
            name = type(rep).__name__
            checked[name] = checked.get(name, 0) + len(steps)

    for module in (runs, mutants):
        _wrap_replicas(monkeypatch, module, rehashing)
    for seed in range(80):
        world, probe = runs.random_world(seed, max_events=30)
        world.run_to_quiescence()
        harness.inject_probes(world, probe, WEAK)
        check(world, seed)
    for rule, world in mutants.mutant_runs():
        check(world, rule)
    assert set(checked) == {
        "NncReplica", "MixedLogReplica", "ClassicLogReplica",
        "RedBlueReplica", "VisibleGetReplica", "RestlessReplica",
        "ChattyGetReplica", "SlowAddReplica", "MuteSubtractReplica"}
    assert min(checked.values()) > 0


def answer_checking(cls, checked):
    """A subclass of the tentative-log replica `cls` that compares each
    response with the answer read off its whole log from scratch."""

    class AnswerChecking(cls):
        def on_invoke(self, event_id, op, level, now_clock):
            reqs = list(self.committed) + self.tentative
            eff = super().on_invoke(event_id, op, level, now_clock)
            for resp in eff.responses:
                want = reference.mixed_log_answer(op, reqs)
                assert (resp.trace_snapshot, resp.value) == want
                checked.append(level)
            return eff

        def on_deliver(self, msg):
            eff = super().on_deliver(msg)
            for resp in eff.responses:
                # a strong op answers from the committed prefix before it
                req = msg.payload[1]
                assert self.committed[-1] is req
                want = reference.mixed_log_answer(req.op, self.committed[:-1])
                assert (resp.trace_snapshot, resp.value) == want
                checked.append(req.level)
            return eff

    AnswerChecking.__name__ = cls.__name__
    return AnswerChecking


def test_log_answers_equal_those_read_off_the_whole_log(monkeypatch):
    checked = []
    for module in (harness, runs):
        monkeypatch.setattr(module, "MixedLogReplica", answer_checking(
            protocols.MixedLogReplica, checked))
    for name in harness.SCENARIOS:
        for mode in ("stable", "async"):
            harness.run_scenario(name, mode=mode)
    scenarios = len(checked)
    for seed in range(30):
        runs.random_log_run(seed, mode=("stable", "async")[seed % 2],
                            events=40, max_gap=1 + seed % 8)
    assert 0 < scenarios < len(checked)
    assert checked.count(WEAK) > 500 and checked.count(STRONG) > 100


def held_requests(world):
    """Every request a replica of world holds in its logs or a message of
    world carries."""
    for rep in world.replicas:
        if isinstance(rep, protocols.LogReplica):
            yield from rep.committed
            yield from rep.tentative
    for msg in world.messages.values():
        yield from (x for x in msg.payload if isinstance(x, protocols.Req))


def test_every_request_names_the_event_that_minted_its_dot():
    """The world records a replica's snapshot and edges as it gives them,
    so each request must name the event whose invoke minted its dot, and no
    snapshot may repeat an event, as the log witness relies on: over every
    scenario in both modes and over random worlds of all four replica
    classes."""
    worlds = [harness.run_scenario(name, mode=mode).world
              for name in harness.SCENARIOS for mode in ("stable", "async")]
    for seed in range(120):
        world, probe = runs.random_world(seed)
        world.run_to_quiescence()
        harness.inject_probes(world, probe, WEAK)
        worlds.append(world)
    classes, checked = set(), {}
    for world in filter(None, worlds):     # the fixture scenario runs none
        minted = {rec.req_dot: eid for eid, rec in world.trace.events.items()
                  if rec.req_dot is not None}
        name = type(world.replicas[0]).__name__
        classes.add(name)
        for req in held_requests(world):
            assert req.event == minted[req.dot], (name, req)
            checked[name] = checked.get(name, 0) + 1
        for rec in world.trace.events.values():
            snapshot = rec.trace_snapshot or ()
            assert len(set(snapshot)) == len(snapshot), (name, rec)
    assert classes == {"NncReplica", "MixedLogReplica", "ClassicLogReplica",
                       "RedBlueReplica"}
    assert set(checked) == {"MixedLogReplica", "ClassicLogReplica"}
    assert min(checked.values()) > 100


class CountingHashlib:
    """Stands in for `hashlib` in `protocols`: counts the bytes fed to the
    sha256 states it begins and to their copies."""

    def __init__(self):
        self.fed = 0

    def sha256(self, data=b""):
        counted = CountedSha256(self, hashlib.sha256())
        counted.update(data)
        return counted


class CountedSha256:
    def __init__(self, counting, state):
        self.counting, self.state = counting, state

    def update(self, data):
        self.counting.fed += len(data)
        self.state.update(data)

    def copy(self):
        return CountedSha256(self.counting, self.state.copy())

    def hexdigest(self):
        return self.state.hexdigest()


def measuring(cls):
    """cls, noting per state_digest call the length of the state's leading
    text, the length of the rest of its repr, and whether the leading text
    changed since the last call."""

    class Measuring(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls, self._lead = [], None

        def state_digest(self):
            state = self._state_repr()
            lead = state[0]
            self.calls.append((len(lead), len(repr(state)) - len(lead) - 1,
                               lead != self._lead))
            self._lead = lead
            return super().state_digest()

    return Measuring


def digests_fed_within(world, counting, share):
    """Whether the bytes counting saw fed to sha256 over world's run stay
    within the rest of the state's repr per digest, plus, per change of a
    leading text, 32 bytes and share of that text."""
    calls = [c for rep in world.replicas for c in rep.calls]
    rests = sum(rest for _, rest, _ in calls)
    changes = [lead for lead, _, changed in calls if changed]
    return counting.fed <= rests + sum(32 + share * lead for lead in changes)


def test_state_digests_grow_linearly_with_the_steps(monkeypatch):
    renders = []
    monkeypatch.setattr(protocols, "_render",
                        lambda obj: renders.append(obj) or repr(obj))
    counting = CountingHashlib()
    monkeypatch.setattr(protocols, "hashlib", counting)
    workload = []
    for i in range(150):
        kind = ("add", "get", "add", "get", "subtract")[i % 5]
        op = lab(kind) if kind == "get" else lab(kind, 1 + i % 4)
        level = STRONG if kind == "subtract" else WEAK
        workload.append(Invoke(1 + 2 * i, "c%d" % (i % 8), i % 3, op, level))
    schedule = Schedule(seed=7, rb_delay=2, tob_delay=4, jitter=3,
                        partitions=((100, ((0, 1), (2,))),
                                    (200, ((0, 1, 2),))))
    cls = measuring(NncReplica)
    world = SimWorld([cls(i) for i in range(3)], schedule, workload,
                     protocol="nnc")
    world.run_to_quiescence()
    harness.inject_probes(world, lab("get"), WEAK)
    assert len(world.trace.steps) > 500
    calls = sum(len(r.calls) for r in world.replicas)
    assert calls <= len(world.trace.steps) + 3
    # a known add's (dot, amount) pair is rendered once, when first set,
    # however many steps hash the state afterwards
    assert len(renders) == sum(len(r.known_adds) for r in world.replicas)
    assert len(renders) < len(world.trace.steps)
    # a step hashes the rest of the state; a new known add feeds its pair
    # and the origin runs after its own, about a third of the known adds'
    # text here, where hashing the text afresh feeds all of it
    assert digests_fed_within(world, counting, share=0.5)


def test_committed_log_digests_feed_only_what_is_appended(monkeypatch):
    counting = CountingHashlib()
    monkeypatch.setattr(protocols, "hashlib", counting)
    cls = measuring(protocols.MixedLogReplica)
    world = SimWorld(
        [cls(0), cls(1), cls(2)],
        Schedule(rb_delay=3, tob_delay=5, jitter=2,
                 clock_skew=((0, 11), (2, -6))),
        [Invoke(i + 1, "c%d" % (i % 12), i % 3,
                lab("read") if i % 4 == 1 else lab("append", "abcde"[i % 5]),
                STRONG if i % 7 == 3 else WEAK)
         for i in range(150)], protocol="log")
    world.run_to_quiescence()
    harness.inject_probes(world, lab("read"), WEAK)
    assert len(world.trace.steps) > 500
    assert sum(len(r.committed) for r in world.replicas) > 300
    # a step hashes the rest of the state, and a commit feeds one dot
    assert digests_fed_within(world, counting, share=0)


def test_delivered_sets_are_masks_of_the_delivered_events():
    # replica 1 adds at step 1; replica 0 answers two gets before that add
    # reaches it and two after
    workload = [Invoke(1, "w", 1, lab("add", 2), WEAK)]
    workload += [Invoke(step, "g%d" % step, 0, lab("get"), WEAK)
                 for step in (2, 3, 20, 21)]
    world = run_world([NncReplica(i) for i in range(3)], workload,
                      rb_delay=5, tob_delay=8)
    early, late = ([world.trace.events[e] for e in pair]
                   for pair in ((1, 2), (3, 4)))
    assert early[0].rbdel == early[1].rbdel == 0
    assert early[0].tobdel == early[1].tobdel == 0
    assert late[0].rbdel == late[1].rbdel == 1 << 0
    assert late[0].tobdel == late[1].tobdel == 1 << 0
    assert [r.rval for r in late] == [rv_int(2)] * 2
    # the trace lists each mask's events, ascending, and reads them back
    events = world.trace.to_json()["events"]
    assert events["3"]["rbdel"] == events["3"]["tobdel"] == [0]
    assert events["1"]["rbdel"] == []
    back = ProtocolTrace.from_json(json.loads(json.dumps(
        world.trace.to_json())))
    assert back.events[3].rbdel == 1 and back.events[1].tobdel == 0


def test_the_seed_changes_a_run_only_through_jitter():
    workload = [Invoke(1 + i, "c%d" % (i % 4), i % 3,
                       lab("add", 1) if i % 2 else lab("get"), WEAK)
                for i in range(12)]

    def digest(seed, jitter):
        schedule = Schedule(seed=seed, rb_delay=2, tob_delay=3, jitter=jitter)
        world = SimWorld([NncReplica(i) for i in range(3)], schedule,
                         workload, protocol="nnc")
        world.run_to_quiescence()
        return world.trace.digest()

    assert digest(1, 2) == digest(1, 2)
    assert digest(1, 2) != digest(2, 2)
    assert digest(1, 0) == digest(2, 0)


def test_slow_add_reports_the_first_delivery_it_awaited():
    rule, world = next((r, w) for r, w in mutant_runs()
                       if r == "highly_available_weak")
    report = check_act_restrictions(world.trace)
    sub = next(s for s in report.sub_reports if s.predicate == rule)
    # the add's own RB message, delivered locally in the invoke step
    # itself, does not count; its TOB delivery at step 4 does
    assert sub.counterexample == ((0, "awaited a delivery at step 4"),)


def _random_timeline(rng, n):
    """Up to four partition entries at random steps, in any order and with
    repeated steps, each splitting the n replicas into blocks that may
    leave a replica out."""
    timeline = []
    for _ in range(rng.randint(0, 4)):
        ids = rng.sample(range(n), rng.randint(1, n))
        cut = rng.randint(0, len(ids))
        blocks = tuple(b for b in (tuple(ids[:cut]), tuple(ids[cut:])) if b)
        timeline.append((rng.randint(0, 40), blocks))
    return tuple(timeline)


def test_partition_reads_follow_the_timeline_at_every_step():
    """The partition epoch the world caches answers as scanning the
    timeline in step order would, at every step, however the timeline is
    ordered."""
    rng = random.Random(3)
    checked = 0
    for seed in range(150):
        n = rng.randint(2, 4)
        timeline = _random_timeline(rng, n)
        schedule = Schedule(seed=seed, rb_delay=rng.randint(1, 4),
                            tob_delay=rng.randint(2, 6), jitter=2,
                            partitions=timeline)
        workload = [Invoke(1 + 3 * i, "c%d" % i, rng.randrange(n),
                           lab("add", 1) if i % 3 else lab("get"), WEAK)
                    for i in range(8)]
        world = SimWorld([NncReplica(i) for i in range(n)], schedule,
                         workload, protocol="nnc")
        while world.step():
            now = world.now
            assert schedule.blocks_at(now) == \
                reference.blocks_at(timeline, now)
            assert world._majority == reference.majority_block(timeline, now)
            assert world._epoch_end == \
                reference.next_partition_change(timeline, now)
            for a in range(n):
                block = world._block_of[a]
                for b in range(n):
                    assert (block is None or b in block) == \
                        reference.same_block(timeline, now, a, b)
            checked += 1
    assert checked > 1000


def test_schedule_reads_its_timeline_in_step_order():
    """A timeline given out of step order is read in step order; entries
    at one step keep their order, so the last of them is in force."""
    split, heal = ((0,), (1, 2)), ((0, 1, 2),)
    schedule = Schedule(partitions=((30, split), (10, heal)))
    assert schedule.partitions == ((10, heal), (30, split))
    assert schedule.blocks_at(40) == split
    assert schedule.blocks_at(20) == heal
    assert schedule.blocks_at(5) is None
    assert Schedule(partitions=((5, split), (5, heal))).blocks_at(5) == heal


def test_value_records_keep_no_instance_dict():
    """The records made per invoke, event, request, message and step are
    slotted: none carries a __dict__."""
    workload = [Invoke(1, "c0", 0, lab("add", 2), WEAK),
                Invoke(2, "c1", 1, lab("get"), STRONG)]
    world = run_world([NncReplica(0), NncReplica(1)], workload)
    history = harness.history_of(world.trace)
    records = [lab("add", 2), workload[0], history.event(0),
               history.event(1).rval, protocols.Req(0, (0, 1), lab("get")),
               next(iter(world.messages.values())), world.trace.steps[0],
               world.trace.events[0]]
    kinds = {type(r).__name__ for r in records}
    assert kinds == {"OperationLabel", "Invoke", "Event", "ReturnValue",
                     "Req", "Message", "StepRecord", "EventRecord"}
    for r in records:
        assert not hasattr(r, "__dict__"), type(r).__name__


def _perturbed(trace, rng):
    """A copy of trace with some steps' kinds, passivity, hashes, casts
    and responses changed at random, and some events' levels."""
    out = ProtocolTrace.from_json(trace.to_json())
    for rec in out.steps:
        if rng.random() < 0.2:
            rec.kind = rng.choice(("invoke", "deliver", "internal"))
        if rng.random() < 0.2:
            rec.passive_after = not rec.passive_after
        if rng.random() < 0.1:
            rec.hash_after = "x"
        if rng.random() < 0.1:
            rec.responses = ()
        if rng.random() < 0.1:
            rec.casts = rec.casts + ((len(trace.steps), TOB),)
    for ev in out.events.values():
        if rng.random() < 0.1:
            ev.level = rng.choice((WEAK, STRONG))
    return out


def test_lints_equal_the_five_walk_reference():
    """One walk along the trace reports exactly what one walk per rule
    did, on the mutants, on random worlds, and on their traces perturbed
    so that every rule fails somewhere."""
    rng = random.Random(11)
    traces = [world.trace for _, world in mutant_runs()]
    for seed in range(60):
        world, probe = runs.random_world(seed)
        world.run_to_quiescence()
        traces.append(world.trace)
    traces += [_perturbed(t, rng) for t in traces for _ in range(3)]
    failed = set()
    for trace in traces:
        got = check_act_restrictions(trace)
        assert got == reference.check_act_restrictions(trace)
        failed.update(s.predicate for s in got.sub_reports if not s.ok)
    assert failed == set(RULES)


if __name__ == "__main__":
    record = {str(seed): random_run_outputs(seed) for seed in RANDOM_SEEDS}
    with open(RANDOM_RUNS, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %d runs in %s" % (len(record), RANDOM_RUNS),
          file=sys.stderr)
