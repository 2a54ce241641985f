"""Tests for the data type specification functions."""

import pytest
from hypothesis import given, strategies as st

from actsim.model import (AbstractExecution, Event, OK, OperationLabel,
                          PENDING, Relation, foldr, rv_bool, rv_int, rv_set,
                          rv_str)
from actsim.rdt import (ACT_NNC, BadOperation, F_MVR, F_NNC, F_SEQ,
                        MissingPar, OperationContext, context_of, eval_fmvr,
                        f_nnc, fcontext_of)
from actsim.model import History


def ctx(labels, vis_edges=(), order=None):
    order = tuple(order if order is not None else range(len(labels)))
    return OperationContext(order, tuple(labels[i] for i in order),
                            Relation(vis_edges))


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
    assert eval_fmvr(lab("read"), c) == rv_set({"y", "z"})


def test_register_concurrent_writes_all_survive():
    c = ctx([lab("write", "x"), lab("write", "y")])
    assert eval_fmvr(lab("read"), c) == rv_set({"x", "y"})


def test_counter_fold_skips_unfunded_subtracts():
    seq = [lab("add", 3), lab("subtract", 5), lab("subtract", 2)]
    assert foldr(0, f_nnc, seq) == 1
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
    assert foldr(0, f_nnc, ops) >= 0


@given(counter_ops)
def test_counter_gets_are_removable(ops):
    without = [l for l in ops if l.name != "get"]
    assert foldr(0, f_nnc, ops) == foldr(0, f_nnc, without)


@given(counter_ops, st.integers(1, 100))
def test_counter_eval_is_isomorphism_invariant(ops, shift):
    c1 = ctx(ops)
    ids = [i + shift for i in range(len(ops))]
    c2 = OperationContext(tuple(ids), tuple(ops), Relation())
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
    assert c.order == (0,)
    assert c.labels == (lab("add", 2),)
    assert context_of(a, 0).order == ()


def test_fcontext_orders_by_perceived_arbitration():
    a = _two_event_execution()
    # par(1) reverses ar, but the carrier only holds event 0 either way
    assert fcontext_of(a, 1).order == (0,)
    h = a.history
    b = AbstractExecution(h, Relation([(0, 1)]), [0, 1], {1: [1, 0]})
    with pytest.raises(MissingPar):
        fcontext_of(b, 0)


def test_readonly_classification():
    assert F_NNC.ops == {"add", "subtract", "get"}
    assert F_SEQ.ops == {"append", "read"}
    assert F_MVR.ops == {"write", "read"}
    assert "get" not in F_SEQ.ops


def test_act_spec_enforces_operation_levels():
    good = History([Event(0, lab("get"), rv_int(0), "weak", "a", 0, 1)])
    assert ACT_NNC.check_history(good)
    bad = History([Event(0, lab("get"), rv_int(0), "strong", "a", 0, 1)])
    with pytest.raises(BadOperation):
        ACT_NNC.check_history(bad)
    # the data type's argument shapes are enforced too
    for args in (("x",), (), (1, 2), (True,)):
        mistyped = History([Event(0, lab("add", *args), OK, "weak", "a", 0,
                                  1)])
        with pytest.raises(BadOperation, match="event 0 runs add"):
            ACT_NNC.check_history(mistyped)
