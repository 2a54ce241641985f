"""Tests for witness construction and the exhaustive searcher."""

import random

import pytest

from actsim.harness import run_scenario
from actsim.model import (Event, History, OK, OperationLabel, PENDING, STRONG,
                          WEAK, rv_int, rv_set, rv_str)
from actsim.predicates import HorizonConfig, check_composite
from actsim.rdt import F_MVR, F_NNC, F_SEQ
from actsim.witness import brute_force_witness
from runs import random_execution


def lab(name, *args):
    return OperationLabel(name, args)


def test_counter_witness_orders_updaters_by_commit_number():
    art = run_scenario("annc-stable")
    a = art.witnesses["counter"]
    trace = art.trace
    updaters = [e for e in art.history.ids()
                if art.history.event(e).op.name in ("add", "subtract")]
    by_tobno = sorted(updaters, key=lambda e: trace.events[e].tobno)
    assert [e for e in a.ar if e in set(updaters)] == by_tobno


def test_counter_witness_excludes_the_pending_subtract():
    art = run_scenario("annc-async")
    a = art.witnesses["counter"]
    pending = art.extras["pending"][0]
    assert not a.vis.inverse().pred_mask(pending)
    assert not a.vis.pred_mask(pending)


def test_log_witness_perceived_order_starts_with_the_snapshot():
    art = run_scenario("acutebayou-stable")
    a = art.witnesses["log"]
    read = art.extras["tentative_read"]
    snapshot = art.trace.events[read].trace_snapshot
    assert a.par[read][:len(snapshot)] == snapshot
    assert a.par[read] != a.ar


def test_causal_witness_contains_the_provenance_edges():
    art = run_scenario("bayou-classic-circular")
    a = art.witnesses["causal"]
    edges = set()
    for rec in art.trace.events.values():
        edges |= set(rec.essential_edges)
    assert edges and edges <= a.vis.edges


def two_event_history():
    return History([
        Event(0, lab("add", 2), OK, "weak", "a", 0, 1),
        Event(1, lab("get"), rv_int(2), "weak", "b", 2, 3),
    ])


def test_brute_force_finds_the_obvious_witness():
    h = two_event_history()
    hz = HorizonConfig(1)
    res = brute_force_witness(h, "BEC", "weak", F_NNC, hz)
    assert res.satisfiable
    assert res.ars_tried >= 1 and res.candidates_tried >= 1
    # the witness it returns really does pass the checker
    assert check_composite(res.witness, "BEC", "weak", F_NNC, hz).ok


def test_brute_force_rejects_an_unexplainable_value():
    h = History([
        Event(0, lab("add", 2), OK, "weak", "a", 0, 1),
        Event(1, lab("get"), rv_int(7), "weak", "b", 2, 3),
    ])
    res = brute_force_witness(h, "BEC", "weak", F_NNC, HorizonConfig(1))
    assert not res.satisfiable
    assert res.ars_tried == 2  # the certificate covers the whole space


def test_brute_force_handles_pending_events_outside_the_level():
    h = History([
        Event(0, lab("add", 2), OK, "weak", "a", 0, 1),
        Event(1, lab("subtract", 1), PENDING, "strong", "b", 2, None),
        Event(2, lab("get"), rv_int(2), "weak", "c", 3, 4),
    ])
    res = brute_force_witness(h, "BEC", "weak", F_NNC, HorizonConfig(2))
    assert res.satisfiable


def test_brute_force_seq_target_uses_session_and_single_order():
    h = History([
        Event(0, lab("append", "a"), OK, "strong", "c", 0, 1),
        Event(1, lab("read"), rv_str("a"), "strong", "c", 2, 3),
    ])
    res = brute_force_witness(h, "Seq", "strong", F_SEQ, HorizonConfig(2))
    assert res.satisfiable
    assert res.witness.ar == (0, 1)


def test_brute_force_refuses_large_histories():
    events = [Event(i, lab("add", 1), OK, "weak", "c%d" % i, 2 * i, 2 * i + 1)
              for i in range(7)]
    with pytest.raises(ValueError):
        brute_force_witness(History(events), "BEC", "weak", F_NNC,
                            HorizonConfig(7))


def test_brute_force_finds_a_witness_wherever_the_checker_holds():
    """Soundness of "unsatisfiable": on random executions of at most 4
    events of each data type (random acyclic vis, random ar, return values
    computed from them), wherever BEC, Seq or Lin holds at a level and a
    stabilization index, the search finds a witness too."""
    rng = random.Random(11)
    held = {F_NNC: 0, F_SEQ: 0, F_MVR: 0}
    for _ in range(150):
        for spec in held:
            a = random_execution(rng, spec, rng.randint(1, 4))
            for target in ("BEC", "Seq", "Lin"):
                for l in (WEAK, STRONG):
                    for index in range(len(a.ar) + 1):
                        hz = HorizonConfig(index)
                        if not check_composite(a, target, l, spec, hz).ok:
                            continue
                        held[spec] += 1
                        res = brute_force_witness(a.history, target, l, spec,
                                                  hz)
                        assert res.satisfiable, (a.history.to_jsonl(),
                                                 a.to_json(), target, l,
                                                 index)
    assert min(held.values()) > 500, held


def test_brute_force_keeps_vis_cycles_outside_the_level():
    """Two strong writes that see each other cover each other, so a weak
    read that must see both (EV) returns no value.  The checker accepts
    that cycle, which involves no weak event, and so does the search."""
    h = History([
        Event(0, lab("write", 1), OK, STRONG, "c1", 0, 1),
        Event(1, lab("write", 2), OK, STRONG, "c2", 0, 1),
        Event(2, lab("read"), rv_set(()), WEAK, "c3", 2, 3),
    ])
    hz = HorizonConfig(0)
    res = brute_force_witness(h, "BEC", WEAK, F_MVR, hz)
    assert res.satisfiable
    assert res.witness.vis.has(0, 1) and res.witness.vis.has(1, 0)
    assert check_composite(res.witness, "BEC", WEAK, F_MVR, hz).ok
