"""Tests for the data type specification functions."""

import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

import reference
from actsim.model import (AbstractExecution, Event, OK, OperationLabel,
                          Relation, STRONG, WEAK, id_mask, in_order,
                          rv_bool, rv_int, rv_set, rv_str)
from actsim.predicates import check_FRVal, check_RVal
from actsim.rdt import (ACT_NNC, ACT_SEQ_MIXED, ACT_SEQ_REDBLUE, RDTS, READS,
                        WRITES, ActSpec, BadOperation, F_MVR, F_NNC, F_SEQ,
                        MissingPar, OperationContext, context_of, f_nnc,
                        fcontext_of)
from actsim.model import History
from runs import random_execution


def ctx(labels, vis_edges=(), order=None):
    """The context whose carrier is every event of labels (event i runs
    labels[i]), listed by order."""
    order = tuple(order if order is not None else range(len(labels)))
    return OperationContext(order, id_mask(order), Relation(vis_edges),
                            dict(enumerate(labels)))


def lab(name, *args):
    return OperationLabel(name, args)


def test_sequence_read_concatenates_in_context_order():
    c = ctx([lab("append", "a"), lab("append", "b"), lab("read")],
            order=[1, 0, 2])
    assert F_SEQ.evaluate(lab("read"), c) == rv_str("ba")
    assert F_SEQ.evaluate(lab("append", "z"), c) == OK


def test_sequence_rejects_unknown_operations():
    with pytest.raises(BadOperation):
        F_SEQ.evaluate(lab("pop"), ctx([]))


def test_register_read_returns_vis_maximal_writes():
    c = ctx([lab("write", "x"), lab("write", "y"), lab("write", "z")],
            vis_edges=[(0, 1)])
    assert F_MVR.evaluate(lab("read"), c) == rv_set({"y", "z"})


def test_register_concurrent_writes_all_survive():
    c = ctx([lab("write", "x"), lab("write", "y")])
    assert F_MVR.evaluate(lab("read"), c) == rv_set({"x", "y"})


def test_counter_fold_skips_unfunded_subtracts():
    seq = [lab("add", 3), lab("subtract", 5), lab("subtract", 2)]
    assert reduce(f_nnc, seq, 0) == 1
    c = ctx(seq)
    assert F_NNC.evaluate(lab("get"), c) == rv_int(1)
    assert F_NNC.evaluate(lab("subtract", 2), c) == rv_bool(False)
    assert F_NNC.evaluate(lab("subtract", 1), c) == rv_bool(True)


counter_ops = st.lists(
    st.one_of(st.integers(1, 5).map(lambda v: lab("add", v)),
              st.integers(1, 5).map(lambda v: lab("subtract", v)),
              st.just(lab("get"))), max_size=12)


@given(counter_ops)
def test_counter_value_never_goes_negative(ops):
    assert reduce(f_nnc, ops, 0) >= 0


@given(counter_ops)
def test_counter_gets_are_removable(ops):
    without = [l for l in ops if l.name != "get"]
    assert reduce(f_nnc, ops, 0) == reduce(f_nnc, without, 0)


@given(counter_ops, st.integers(1, 100))
def test_counter_eval_is_isomorphism_invariant(ops, shift):
    c1 = ctx(ops)
    ids = [i + shift for i in range(len(ops))]
    c2 = OperationContext(tuple(ids), id_mask(ids), Relation(),
                          dict(zip(ids, ops)))
    assert F_NNC.evaluate(lab("get"), c1) == F_NNC.evaluate(lab("get"), c2)


def _two_event_execution():
    h = History([
        Event(0, lab("add", 2), OK, "weak", "a", 0, 1),
        Event(1, lab("get"), rv_int(2), "weak", "b", 2, 3),
    ])
    return AbstractExecution(h, Relation([(0, 1)]), [0, 1],
                             {0: [0, 1], 1: [1, 0]})


def test_context_carrier_is_the_visibility_preimage():
    a = _two_event_execution()
    c = context_of(a, 1)
    assert c.mask == 0b1 and c.order == a.ar
    assert [c.op[x] for x in in_order(c.order, c.mask)] == [lab("add", 2)]
    assert context_of(a, 0).mask == 0


def test_fcontext_orders_by_perceived_arbitration():
    a = _two_event_execution()
    # par(1) reverses ar, but the carrier only holds event 0 either way
    c = fcontext_of(a, 1)
    assert c.order == (1, 0) and in_order(c.order, c.mask) == [0]
    h = a.history
    b = AbstractExecution(h, Relation([(0, 1)]), [0, 1], {1: [1, 0]})
    with pytest.raises(MissingPar):
        fcontext_of(b, 0)


def test_ops_lists_each_types_operations():
    assert F_NNC.ops == {"add", "subtract", "get"}
    assert F_SEQ.ops == {"append", "read"}
    assert F_MVR.ops == {"write", "read"}
    assert "get" not in F_SEQ.ops


def test_every_operation_declares_whether_it_reads_or_writes():
    for spec in RDTS.values():
        for name, _, does in spec.signature:
            assert does in (READS, WRITES, READS | WRITES), (spec.name, name)
        assert spec.reads | spec.writes == spec.ops
    specs = RDTS.values()
    assert set().union(*(s.reads - s.writes for s in specs)) == {"get", "read"}
    assert set().union(*(s.writes - s.reads for s in specs)) == {
        "add", "append", "write"}
    assert set().union(*(s.reads & s.writes for s in specs)) == {"subtract"}


def test_local_ro_is_weak_and_writes_nothing():
    for act in (ACT_NNC, ACT_SEQ_MIXED, ACT_SEQ_REDBLUE):
        for name, levels in act.lvlmap:
            for level in levels:
                assert act.local_ro(lab(name), level) == (
                    level == WEAK and name in ("get", "read")), (name, level)
    # only the data type's declaration counts, not the levels allowed
    assert ACT_NNC.local_ro(lab("get"), STRONG) is False
    assert ACT_NNC.local_ro(lab("add", 1), WEAK) is False


def test_register_answers_match_the_materialised_contexts():
    """F_MVR from masks against the materialised eval_fmvr of
    tests/reference.py, on random register executions (vis random and
    acyclic, ar and par(e) random), event by event and as RVal and FRVal
    reports, as drawn and with each vis edge dropped at random (which
    makes some reads wrong)."""
    rng = random.Random(4)
    reads = violated = 0
    for _ in range(300):
        a = random_execution(rng, F_MVR, rng.randint(1, 7))
        par = {e: rng.sample(a.ar, len(a.ar)) for e in a.ar}
        kept = Relation(x for x in sorted(a.vis.edges) if rng.random() < 0.7)
        for x in (AbstractExecution(a.history, a.vis, a.ar, par),
                  AbstractExecution(a.history, kept, a.ar, par)):
            for e in x.history:
                for c in (context_of(x, e.id), fcontext_of(x, e.id)):
                    order = in_order(c.order, c.mask)
                    want = reference.eval_fmvr(
                        e.op, order, [c.op[y] for y in order], x.vis)
                    assert F_MVR.evaluate(e.op, c) == want
                reads += e.op.name == "read"
            for l in (WEAK, STRONG):
                got = check_RVal(x, l, F_MVR)
                assert got == reference.check_RVal(x, l, F_MVR)
                assert (check_FRVal(x, l, F_MVR)
                        == reference.check_FRVal(x, l, F_MVR))
                violated += not got.ok
    assert reads > 600 and violated > 50, (reads, violated)


def test_act_spec_enforces_operation_levels():
    good = History([Event(0, lab("get"), rv_int(0), "weak", "a", 0, 1)])
    assert ACT_NNC.check_history(good)
    bad = History([Event(0, lab("get"), rv_int(0), "strong", "a", 0, 1)])
    with pytest.raises(BadOperation):
        ACT_NNC.check_history(bad)
    # an operation the spec gives no level runs at none
    no_gets = ActSpec(F_NNC, (("add", frozenset({WEAK})),))
    with pytest.raises(BadOperation, match="event 0 runs get at level weak"):
        no_gets.check_history(good)
    # the data type's argument shapes are enforced too
    for args in (("x",), (), (1, 2), (True,)):
        mistyped = History([Event(0, lab("add", *args), OK, "weak", "a", 0,
                                  1)])
        with pytest.raises(BadOperation, match="event 0 runs add"):
            ACT_NNC.check_history(mistyped)
