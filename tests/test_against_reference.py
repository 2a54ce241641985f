"""The witness builders and the checker against their reference versions
(tests/reference.py), and counts showing the closure and the anchor scan
are gone from the passing path and that a perceived order re-places only
the locals of the window in which it differs from ar."""

import random
from collections import Counter

import pytest

import reference
from actsim import model, witness
from actsim.harness import SCENARIOS, history_of, run_scenario
from actsim.model import (AbstractExecution, Event, History, OK,
                          OperationLabel, Relation, STRONG, WEAK)
from actsim.predicates import (PREDICATES, VIOLATED, HorizonConfig,
                               check_CPar, check_FRVal, check_NCC, check_RT,
                               check_RVal, check_SessArb, check_SinOrd,
                               check_composite)
from actsim.rdt import F_MVR, F_NNC, F_SEQ
from runs import (random_counter_run, random_execution, random_log_run,
                  random_log_world)

SEEDS = range(30)


# the modes the witness builders once took; each run is listed once per
# mode, so that the seeded perturbations below keep their draws
MODES = ("stable", "async")


def runs_with_witnesses():
    """(label, history, trace, builder, reference builder, rdt, hz): random
    counter runs (a third of them asynchronous, with pending subtracts) and
    random log runs simulated stable and async, each listed once per mode
    in MODES."""
    for seed in SEEDS:
        h, trace, _, hz, _ = random_counter_run(seed, max_events=16)
        for mode in MODES:
            yield (("counter", seed, mode), h, trace, witness.build_nnc_witness,
                   reference.build_nnc_witness, F_NNC, hz)
        for sim_mode in ("stable", "async"):
            h, trace, _, hz = random_log_run(seed, max_events=16,
                                             mode=sim_mode)
            for mode in MODES:
                yield (("log", seed, sim_mode, mode), h, trace,
                       witness.build_log_witness, reference.build_log_witness,
                       F_SEQ, hz)


def with_extra_edges(a, rng, k=3):
    """a with k distinct random edges added to vis, or with every edge
    between distinct events when there are fewer."""
    ids = a.history.ids()
    extra = set()
    while len(extra) < min(k, len(ids) * (len(ids) - 1)):
        extra.add(tuple(rng.sample(ids, 2)))
    return AbstractExecution(a.history, Relation(a.vis.edges | extra), a.ar,
                             a.par)


def test_with_extra_edges_ends_on_small_histories():
    """A 2-event history has only 2 edges to add, a 1-event one none."""
    for n, want in ((1, set()), (2, {(0, 1), (1, 0)})):
        h = History([Event(i, OperationLabel("get"), OK, WEAK, "c%d" % i,
                           2 * i, 2 * i + 1) for i in range(n)])
        a = AbstractExecution(h, Relation(), range(n))
        assert with_extra_edges(a, random.Random(0)).vis.edges == want


def with_swapped_ar(a, rng, k=3):
    """a with k random adjacent pairs of ar swapped in turn."""
    ar = list(a.ar)
    for _ in range(k if len(ar) > 1 else 0):
        i = rng.randrange(len(ar) - 1)
        ar[i], ar[i + 1] = ar[i + 1], ar[i]
    return AbstractExecution(a.history, a.vis, ar, a.par)


def reference_reports(a, spec, hz, monkeypatch):
    """Every level's NCC and BEC/FEC/Lin/Seq report, with NCC, SinOrd, RT
    and SessArb taken from the references."""
    with monkeypatch.context() as m:
        for name in ("NCC", "SinOrd", "RT", "SessArb"):
            m.setitem(PREDICATES, name,
                      lambda a, l, spec, hz, check=getattr(
                          reference, "check_" + name): check(a, l))
        return reports(a, spec, hz)


def reports(a, spec, hz):
    out = []
    for l in (WEAK, STRONG):
        out.append(PREDICATES["NCC"](a, l, spec, hz).to_json())
        out += [check_composite(a, c, l, spec, hz).to_json()
                for c in ("BEC", "FEC", "Lin", "Seq")]
    return out


def test_witnesses_match_the_pair_set_builders():
    pending = 0
    for label, h, trace, build, ref, _, _ in runs_with_witnesses():
        a, b = build(h, trace), ref(h, trace)
        assert a.ar == b.ar, label
        assert a.par == b.par, label
        assert a.vis == b.vis, label
        pending += sum(1 for e in h if e.rval.is_pending())
    assert pending > 0


def test_reports_match_the_closure_based_checks(monkeypatch):
    rng = random.Random(0)
    violated = 0
    for label, h, trace, build, _, spec, hz in runs_with_witnesses():
        a = build(h, trace)
        for x in (a, with_extra_edges(a, rng), with_swapped_ar(a, rng)):
            got = reports(x, spec, hz)
            fresh = AbstractExecution(x.history, x.vis, x.ar, x.par)
            assert got == reference_reports(fresh, spec, hz, monkeypatch), \
                label
            violated += sum(r["verdict"] == "violated" for r in got[::5])
    assert violated > 0     # some extra edges close a causal cycle


def test_arbitration_checks_match_the_pair_loops():
    """SinOrd, RT and SessArb against the references on the random runs, as
    built, with a few adjacent ar pairs swapped and with ar shuffled by as
    many swaps as it has events, so that every check is violated often."""
    rng = random.Random(1)
    checks = ((check_SinOrd, reference.check_SinOrd),
              (check_RT, reference.check_RT),
              (check_SessArb, reference.check_SessArb))
    violated = Counter()
    for label, h, trace, build, _, _, _ in runs_with_witnesses():
        a = build(h, trace)
        for x in (a, with_swapped_ar(a, rng),
                  with_swapped_ar(a, rng, len(a.ar))):
            for l in (WEAK, STRONG):
                for check, ref in checks:
                    got = check(x, l)
                    assert got == ref(x, l), (label, check.__name__, l)
                    violated[check.__name__] += got.verdict == VIOLATED
    assert len(violated) == 3 and min(violated.values()) > 20, violated


def two_level_history():
    """Events 0, 1 weak, 2, 3 strong, one client each."""
    return History([
        Event(0, OperationLabel("add", (1,)), OK, WEAK, "a", 0, 1),
        Event(1, OperationLabel("add", (1,)), OK, WEAK, "b", 0, 1),
        Event(2, OperationLabel("subtract", (1,)), OK, STRONG, "c", 0, 1),
        Event(3, OperationLabel("subtract", (1,)), OK, STRONG, "d", 0, 1),
    ])


def test_NCC_holds_when_the_only_cycle_avoids_the_level():
    h = two_level_history()
    # 0 <-> 1 is a cycle of weak events; the strong events only see it
    a = AbstractExecution(h, Relation([(0, 1), (1, 0), (1, 2), (2, 3)]),
                          [0, 1, 2, 3])
    assert check_NCC(a, STRONG).verdict == "holds"
    assert check_NCC(a, STRONG) == reference.check_NCC(a, STRONG)
    assert check_NCC(a, WEAK).verdict == "violated"


def test_NCC_cycle_through_the_level_matches_the_reference():
    h = two_level_history()
    # 3 -> 0 -> 1 -> 2 -> 3 passes through the weak events 0 and 1
    vis = Relation([(3, 0), (0, 1), (1, 2), (2, 3)])
    a = AbstractExecution(h, vis, [0, 1, 2, 3])
    for level in (WEAK, STRONG):
        got = check_NCC(a, level)
        assert got.verdict == "violated"
        assert got.to_json() == reference.check_NCC(a, level).to_json()
    assert check_NCC(a, WEAK).counterexample == ((0,), (0, 1, 2, 3))


@pytest.fixture
def closures(monkeypatch):
    """Counts the transitive closures taken."""
    calls = []
    warshall = model._warshall
    monkeypatch.setattr(model, "_warshall",
                        lambda rows: calls.append(1) or warshall(rows))
    return calls


def fresh_executions():
    for sc in SCENARIOS.values():
        for mode in (None, "stable", "async"):
            art = run_scenario(sc, 0, mode)
            for a in art.witnesses.values():
                yield AbstractExecution(a.history, a.vis, a.ar, a.par)
    h, trace, _, _ = random_log_run(3, events=400)
    yield witness.build_log_witness(h, trace)


def test_passing_NCC_takes_no_closure(closures):
    passed = 0
    for a in fresh_executions():
        for level in (WEAK, STRONG):
            before = len(closures)
            if check_NCC(a, level).ok:
                assert len(closures) == before
                passed += 1
    assert passed > 0


def test_failing_NCC_takes_one_successor_closure(closures):
    a = run_scenario("bayou-classic-circular").witnesses["causal"]
    a = AbstractExecution(a.history, a.vis, a.ar, a.par)
    closures.clear()
    rep = check_NCC(a, WEAK)
    assert rep.verdict == "violated"
    assert rep.counterexample[0] == (0,)
    assert len(closures) == 1


def large_log_runs():
    """(label, history, trace, horizon, clock skew): 150-400-event log runs,
    dense enough that many perceived orders differ from ar.  Each is
    simulated stable, listed once, and async (with pending strong events),
    listed once per mode in MODES."""
    for seed, events, max_gap in ((0, 150, 2), (1, 250, 3), (2, 400, 2)):
        for sim_mode, modes in (("stable", ("stable",)), ("async", MODES)):
            world, stab = random_log_world(seed, mode=sim_mode, events=events,
                                           max_gap=max_gap)
            h = history_of(world.trace)
            for mode in modes:
                yield ((seed, sim_mode, mode), h, world.trace,
                       HorizonConfig(stab), world.schedule.clock_skew)


def test_windowed_orders_and_prefix_masks_match_the_reference_at_scale():
    """Without the clock skew, and with it."""
    differ, pending = Counter(), 0
    for label, h, trace, _, skew in large_log_runs():
        for clock_skew in ((), skew):
            a = witness.build_log_witness(h, trace, clock_skew=clock_skew)
            b = reference.build_log_witness(h, trace, clock_skew=clock_skew)
            assert a.ar == b.ar, label
            assert a.par == b.par, label
            assert a.vis == b.vis, label
            # an order that equals ar is the ar tuple itself
            assert all(p is a.ar for p in a.par.values() if p == a.ar), label
            differ[clock_skew] += sum(p is not a.ar for p in a.par.values())
        pending += sum(e.rval.is_pending() for e in h)
    assert differ[()] > 1000 and sum(differ.values()) - differ[()] > 500
    assert pending > 100


def test_witnesses_read_the_trace_alone():
    """The mode a builder is passed changes nothing: on every run above, the
    witness built with "stable" equals the one built with "async".  Whether
    a pending event leaves vis is read off the trace: it does iff it was
    never sequenced (it has no tobno)."""
    cases = [(label, h, trace, build, {})
             for label, h, trace, build, *_ in runs_with_witnesses()]
    cases += [(label, h, trace, witness.build_log_witness,
               {"clock_skew": skew})
              for label, h, trace, _, skew in large_log_runs()]
    unsequenced = 0
    for label, h, trace, build, kw in cases:
        a, b = (build(h, trace, mode, **kw) for mode in MODES)
        assert (a.vis, a.ar, a.par) == (b.vis, b.ar, b.par), label
        unsequenced += sum(trace.events[e.id].tobno is None
                           for e in h if e.rval.is_pending())
    assert unsequenced > 100


def test_log_witness_with_the_clock_skew_satisfies_fec_on_async_runs():
    """Uncommitted weak requests are arbitrated as the replicas sort their
    tentative logs, by their replica's clock at invoke: FEC(weak) holds on
    every large async run."""
    checked = 0
    for label, h, trace, hz, skew in large_log_runs():
        if label[1] == "async":
            a = witness.build_log_witness(h, trace, clock_skew=skew)
            assert check_composite(a, "FEC", WEAK, F_SEQ, hz).ok, label
            checked += 1
    assert checked == 6


def window_locals(a, h, trace, e):
    """The locals ar places in e's window: from the first shared event e's
    snapshot (without repeats) departs from ar at, up to the shared event
    after the last one its tail pulls forward."""
    recs = trace.events
    shared = [x for x in a.ar if recs[x].req_dot is not None]
    seen = list(dict.fromkeys(recs[e].trace_snapshot or ()))
    c = 0
    while c < len(seen) and seen[c] == shared[c]:
        c += 1
    h_ = 1 + max(shared.index(x) for x in seen[c:])
    lo = a.ar.index(shared[c])
    hi = a.ar.index(shared[h_]) if h_ < len(shared) else len(a.ar)
    return sum(recs[x].req_dot is None for x in a.ar[lo:hi])


def test_log_witness_looks_up_each_local_once_plus_once_per_window(
        monkeypatch):
    h, trace, _, _ = random_log_run(3, events=400, max_gap=2)
    lookups, rb_reads = [], []
    bisect_right, has = witness.bisect_right, Relation.has
    monkeypatch.setattr(witness, "bisect_right",
                        lambda *args: lookups.append(1) or bisect_right(*args))
    monkeypatch.setattr(Relation, "has", lambda self, a, b: (
        self is h.rb and rb_reads.append(1)) or has(self, a, b))
    a = witness.build_log_witness(h, trace)
    local = [e for e in h if trace.events[e.id].req_dot is None]
    returned = sum(1 for e in local if e.return_ts is not None)
    moved = sum(window_locals(a, h, trace, e) for e in a.par
                if a.par[e] is not a.ar)
    # ar's locals, then only the locals inside each differing window; the
    # old count placed every local again for every weak event's par(e)
    orders = 1 + sum(1 for e in h if e in local or e.lvl != STRONG)
    assert returned > 50 and moved > 0
    assert len(lookups) == returned + moved < orders * returned / 3
    assert not rb_reads
    assert len(a.history) > 400


def with_dropped_edges(a, rng, k=3):
    edges = sorted(a.vis.edges)
    drop = set(rng.sample(edges, min(k, len(edges))))
    return AbstractExecution(a.history, Relation(set(edges) - drop), a.ar,
                             a.par)


def with_swapped_par(a, rng):
    """a with one adjacent pair swapped inside one par(e) that differs from
    ar, past their common prefix; None when every par(e) is ar."""
    differ = [e for e in sorted(a.par) if a.par[e] != a.ar]
    if not differ:
        return None
    e = rng.choice(differ)
    order = list(a.par[e])
    c = next(i for i, (x, y) in enumerate(zip(a.ar, order)) if x != y)
    i = rng.randrange(c, len(order) - 1)
    order[i], order[i + 1] = order[i + 1], order[i]
    return AbstractExecution(a.history, a.vis, a.ar, {**a.par, e: order})


def large_value_runs():
    """(label, witness, rdt, horizon): 150-400-event counter runs (seeds 1
    and 3 simulate async, with pending subtracts) and the large log runs."""
    for seed, events in ((0, 150), (1, 250), (2, 400), (3, 300)):
        _, _, a, hz, mode = random_counter_run(seed, events=events)
        yield ("counter", seed, mode), a, F_NNC, hz
    for label, h, trace, hz, _ in large_log_runs():
        yield ("log",) + label, witness.build_log_witness(h, trace), F_SEQ, hz


def test_value_checks_match_the_materialised_contexts():
    """RVal, FRVal and CPar against the references, which build and fold
    every context from scratch, on large runs as built and perturbed: 3
    adjacent ar pairs swapped, one pair swapped inside a differing par(e),
    3 vis edges dropped and 3 added."""
    rng = random.Random(2)
    violated = Counter()
    for label, a, spec, hz in large_value_runs():
        cases = (a, with_swapped_ar(a, rng), with_swapped_par(a, rng),
                 with_dropped_edges(a, rng), with_extra_edges(a, rng))
        for x in filter(None, cases):
            for l in (WEAK, STRONG):
                got = [check_RVal(x, l, spec), check_FRVal(x, l, spec),
                       check_CPar(x, l, hz)]
                assert got == [reference.check_RVal(x, l, spec),
                               reference.check_FRVal(x, l, spec),
                               reference.check_CPar(x, l, hz)], (label, l)
                violated.update(r.predicate for r in got
                                if r.verdict == VIOLATED)
    assert min(violated[p] for p in ("RVal", "FRVal", "CPar")) > 20, violated


def test_restrict_matches_the_pair_restriction():
    """restrict (masks renumbered run by run) against the pair-based
    reference, on random executions of every data type restricted to
    random subsets, and on large counter runs restricted to a window and
    to a scattered half."""
    rng = random.Random(3)
    for _ in range(200):
        for spec in (F_NNC, F_SEQ, F_MVR):
            a = random_execution(rng, spec, rng.randint(1, 8))
            ids = [e for e in a.ar if rng.random() < 0.6]
            got, want = a.restrict(ids), reference.restrict(a, ids)
            assert (got.vis, got.ar, got.par) == (want.vis, want.ar,
                                                  want.par)
    for seed, events in ((0, 150), (1, 250)):
        _, _, a, _, _ = random_counter_run(seed, events=events)
        n = len(a.ar)
        for ids in (range(n // 4, 3 * n // 4), rng.sample(range(n), n // 2)):
            got, want = a.restrict(ids), reference.restrict(a, ids)
            assert got.vis == want.vis and len(got.vis) > 0
