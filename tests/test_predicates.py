"""Tests for the level-parametrized predicates."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

import reference

from actsim.model import (AbstractExecution, Event, History, OK,
                          OperationLabel, PENDING, Relation, rv_int,
                          rv_str)
from actsim.predicates import (HOLDS, HorizonConfig, VACUOUS, VIOLATED,
                               _prefix_fold, check_CPar, check_EV,
                               check_FRVal, check_NCC, check_RT, check_RVal,
                               check_SessArb, check_SinOrd, check_composite)
from actsim.rdt import F_NNC, F_SEQ


def lab(name, *args):
    return OperationLabel(name, args)


def counter_history():
    return History([
        Event(0, lab("add", 2), OK, "weak", "a", 0, 1),
        Event(1, lab("add", 3), OK, "weak", "b", 2, 3),
        Event(2, lab("get"), rv_int(5), "weak", "c", 4, 5),
        Event(3, lab("get"), rv_int(5), "weak", "d", 6, 7),
    ])


def full_vis(h):
    ids = h.ids()
    rb = h.rb
    return Relation((a, b) for a in ids for b in ids if rb.has(a, b))


def test_EV_holds_when_everything_reaches_the_tail():
    h = counter_history()
    a = AbstractExecution(h, full_vis(h), [0, 1, 2, 3])
    assert check_EV(a, "weak", HorizonConfig(3)).verdict == HOLDS


def test_EV_flags_a_tail_event_missing_a_predecessor():
    h = counter_history()
    vis = Relation([(0, 2), (1, 2), (0, 3), (1, 3)])  # 2 -> 3 missing
    a = AbstractExecution(h, vis, [0, 1, 2, 3])
    rep = check_EV(a, "weak", HorizonConfig(3))
    assert rep.verdict == VIOLATED
    assert (2, 3) in rep.counterexample


def test_EV_is_vacuous_without_level_events():
    h = counter_history()
    a = AbstractExecution(h, full_vis(h), [0, 1, 2, 3])
    assert check_EV(a, "strong", HorizonConfig(0)).verdict == VACUOUS


def test_EV_ignores_events_before_the_stabilization_index():
    h = counter_history()
    vis = Relation([(0, 3), (1, 3), (2, 3)])  # nothing reaches event 2
    a = AbstractExecution(h, vis, [0, 1, 2, 3])
    assert check_EV(a, "weak", HorizonConfig(3)).verdict == HOLDS
    assert check_EV(a, "weak", HorizonConfig(2)).verdict == VIOLATED


def test_NCC_detects_causal_cycles_and_the_support_replays():
    h = History([
        Event(0, lab("get"), rv_int(0), "weak", "a", 0, 5),
        Event(1, lab("get"), rv_int(0), "weak", "b", 0, 5),
    ])
    a = AbstractExecution(h, Relation([(0, 1), (1, 0)]), [0, 1])
    rep = check_NCC(a, "weak")
    assert rep.verdict == VIOLATED
    cycle, support = rep.counterexample
    sub = a.restrict(support)
    assert check_NCC(sub, "weak").verdict == VIOLATED


def test_NCC_holds_on_forward_visibility():
    h = counter_history()
    a = AbstractExecution(h, full_vis(h), [0, 1, 2, 3])
    assert check_NCC(a, "weak").verdict == HOLDS


def test_RVal_checks_the_recorded_values():
    h = counter_history()
    a = AbstractExecution(h, full_vis(h), [0, 1, 2, 3])
    assert check_RVal(a, "weak", F_NNC).verdict == HOLDS
    # drop one add from the second get's context: 5 is no longer explainable
    vis = Relation(e for e in full_vis(h).edges if e != (1, 3))
    b = AbstractExecution(h, vis, [0, 1, 2, 3])
    rep = check_RVal(b, "weak", F_NNC)
    assert rep.verdict == VIOLATED
    assert rep.counterexample[0][0] == 3


def test_RVal_counts_pending_events_as_violations():
    h = History([
        Event(0, lab("subtract", 1), PENDING, "strong", "a", 0, None),
    ])
    a = AbstractExecution(h, Relation(), [0])
    rep = check_RVal(a, "strong", F_NNC)
    assert rep.verdict == VIOLATED
    assert rep.counterexample == ((0, "pending"),)


def seq_history(first="ba"):
    return History([
        Event(0, lab("append", "a"), OK, "weak", "a", 0, 1),
        Event(1, lab("append", "b"), OK, "weak", "b", 0, 1),
        Event(2, lab("read"), rv_str(first), "weak", "c", 2, 3),
    ])


def test_FRVal_uses_the_perceived_order():
    h = seq_history("ba")
    vis = Relation([(0, 2), (1, 2)])
    ar = [0, 1, 2]
    a = AbstractExecution(h, vis, ar, {0: ar, 1: ar, 2: [1, 0, 2]})
    assert check_RVal(a, "weak", F_SEQ).verdict == VIOLATED
    assert check_FRVal(a, "weak", F_SEQ).verdict == HOLDS


def test_CPar_flags_tail_events_that_rank_differently():
    h = seq_history("ba")
    vis = Relation([(0, 2), (1, 2)])
    ar = [0, 1, 2]
    a = AbstractExecution(h, vis, ar, {0: ar, 1: ar, 2: [1, 0, 2]})
    rep = check_CPar(a, "weak", HorizonConfig(2))
    assert rep.verdict == VIOLATED
    assert (0, 2) in rep.counterexample
    # before the horizon the perceived order may still disagree
    assert check_CPar(a, "weak", HorizonConfig(3)).verdict == HOLDS


def test_SinOrd_requires_visibility_to_match_arbitration():
    h = seq_history("ab")
    a = AbstractExecution(h, Relation([(0, 2), (1, 2), (0, 1)]), [0, 1, 2])
    assert check_SinOrd(a, "weak").verdict == HOLDS
    b = AbstractExecution(h, Relation([(0, 2), (0, 1)]), [0, 1, 2])
    rep = check_SinOrd(b, "weak")
    assert rep.verdict == VIOLATED  # completed event 1 invisible to 2


def test_SinOrd_excludes_only_pending_events():
    h = History([
        Event(0, lab("append", "a"), OK, "strong", "a", 0, 1),
        Event(1, lab("append", "b"), PENDING, "strong", "b", 2, None),
        Event(2, lab("read"), rv_str("a"), "strong", "c", 3, 4),
    ])
    a = AbstractExecution(h, Relation([(0, 1), (0, 2)]), [0, 1, 2])
    rep = check_SinOrd(a, "strong")
    assert rep.verdict == HOLDS
    assert rep.counterexample == ((1,),)  # the excluded pending event
    # an excluded event must not be selectively visible
    b = AbstractExecution(h, Relation([(0, 1), (0, 2), (1, 2)]), [0, 2, 1])
    assert check_SinOrd(b, "strong").verdict == VIOLATED
    # a pending event that every later event sees is not excluded
    c = AbstractExecution(h, Relation([(0, 1), (0, 2), (1, 2)]), [0, 1, 2])
    rep = check_SinOrd(c, "strong")
    assert rep.verdict == HOLDS and rep.counterexample == ()


def test_SessArb_and_RT_respect_orderings():
    h = History([
        Event(0, lab("append", "a"), OK, "strong", "a", 0, 1),
        Event(1, lab("append", "b"), OK, "strong", "a", 2, 3),
    ])
    ok = AbstractExecution(h, Relation(), [0, 1])
    bad = AbstractExecution(h, Relation(), [1, 0])
    assert check_SessArb(ok, "strong").verdict == HOLDS
    assert check_SessArb(bad, "strong").verdict == VIOLATED
    assert check_RT(ok, "strong").verdict == HOLDS
    assert check_RT(bad, "strong").verdict == VIOLATED
    assert check_RT(ok, "weak").verdict == VACUOUS


def test_composites_combine_their_parts():
    h = counter_history()
    a = AbstractExecution(h, full_vis(h), [0, 1, 2, 3])
    hz = HorizonConfig(3)
    bec = check_composite(a, "BEC", "weak", F_NNC, hz)
    assert bec.verdict == HOLDS
    assert [s.predicate for s in bec.sub_reports] == ["EV", "NCC", "RVal"]
    fec = check_composite(a, "FEC", "weak", F_NNC, hz)
    assert fec.verdict == HOLDS
    lin = check_composite(a, "Lin", "weak", F_NNC, hz)
    seq = check_composite(a, "Seq", "weak", F_NNC, hz)
    assert lin.verdict == HOLDS and seq.verdict == HOLDS
    with pytest.raises(ValueError):
        check_composite(a, "XYZ", "weak", F_NNC, hz)


def test_reports_are_deterministic():
    h = counter_history()
    vis = Relation([(0, 2), (1, 2), (0, 3), (1, 3)])
    a = AbstractExecution(h, vis, [0, 1, 2, 3])
    hz = HorizonConfig(2)
    r1 = check_composite(a, "BEC", "weak", F_NNC, hz)
    r2 = check_composite(a, "BEC", "weak", F_NNC, hz)
    assert r1 == r2
    assert r1.to_json() == r2.to_json()


def test_horizon_rejects_nonpositive_probe_count():
    with pytest.raises(ValueError):
        HorizonConfig(0, tail_probe_count=0)


LABELS = {
    F_NNC: st.one_of(st.integers(1, 5).map(lambda v: lab("add", v)),
                     st.integers(1, 5).map(lambda v: lab("subtract", v)),
                     st.just(lab("get"))),
    F_SEQ: st.one_of(st.sampled_from("abc").map(lambda s: lab("append", s)),
                     st.just(lab("read"))),
}


@given(st.data())
def test_prefix_fold_equals_foldr_over_the_materialised_context(data):
    """For a random ar, random labels and a few (order, mask) queries on one
    fold, each order sharing a random prefix with ar (or being ar itself),
    the prefix fold's state is the paper's foldr, a left fold, over the
    mask's events in the order tests/reference.py's preds_in lists them."""
    spec = data.draw(st.sampled_from([F_NNC, F_SEQ]))
    n = data.draw(st.integers(1, 16))
    ar = tuple(data.draw(st.permutations(range(n))))
    op = dict(enumerate(data.draw(st.lists(LABELS[spec], min_size=n,
                                           max_size=n))))
    fold = _prefix_fold(ar, op, spec)
    for _ in range(data.draw(st.integers(1, 4))):
        c = data.draw(st.integers(0, n))
        order = data.draw(st.one_of(
            st.just(ar),
            st.permutations(ar[c:]).map(lambda rest: ar[:c] + tuple(rest))))
        mask = data.draw(st.integers(0, (1 << n) - 1))
        carrier = reference.preds_in(Relation.from_pred_masks({n: mask}), n,
                                     order)
        assert fold(order, mask) == reduce(spec.step,
                                           [op[x] for x in carrier], spec.init)
