"""Tests for the event-graph primitives."""

import builtins
import copy
import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from actsim import model
from actsim.model import (AbstractExecution, Event, History, MalformedHistory,
                          OK, OperationLabel, PENDING, Relation, ReturnValue,
                          bits, find_cycle, foldr, happens_before,
                          on_cycle, rv_int, rv_set, rv_str,
                          session_order)

edges_st = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=25).map(Relation)


def naive_closure(rel, n=8):
    reach = [[rel.has(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return Relation((i, j) for i in range(n) for j in range(n) if reach[i][j])


@given(edges_st)
def test_transitive_closure_matches_matrix_oracle(rel):
    assert rel.transitive_closure() == naive_closure(rel)


@given(edges_st)
def test_closure_is_idempotent(rel):
    once = rel.transitive_closure()
    assert once.transitive_closure() == once


@given(edges_st)
def test_find_cycle_returns_a_real_cycle(rel):
    cycle = find_cycle(rel)
    if cycle is None:
        closure = rel.transitive_closure()
        assert not any(closure.has(n, n) for n in rel.nodes())
    else:
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert rel.has(a, b)


@given(edges_st, st.sets(st.integers(0, 7)))
def test_on_cycle_matches_the_closure(rel, ids):
    closure = rel.transitive_closure()
    assert on_cycle(rel, ids) == any(closure.has(i, i) for i in ids)


@given(edges_st)
def test_relation_from_pred_masks_matches_its_edges(rel):
    r = Relation.from_pred_masks({b: rel.pred_mask(b) for b in range(8)})
    assert len(r) == len(rel) and r.nodes() == rel.nodes()
    assert all(r.has(a, b) == rel.has(a, b)
               for a in range(8) for b in range(8))
    assert r == rel and r.edges == rel.edges
    assert r.union(rel) == rel and r.induced([1, 2, 3]) == rel.induced([1, 2, 3])


@given(edges_st)
def test_inverse_is_an_involution_that_swaps_edges(rel):
    inv = rel.inverse()
    assert inv.edges == {(b, a) for a, b in rel.edges}
    assert inv.inverse() == rel and len(inv) == len(rel)


def test_relation_union_restrict():
    r = Relation([(0, 1), (1, 2)])
    s = Relation([(2, 3)])
    assert r.union(s).edges == {(0, 1), (1, 2), (2, 3)}
    assert bits(r.inverse().pred_mask(0)) == [1]    # the successors of 0
    assert bits(r.pred_mask(2)) == [1]


def test_find_cycle_survives_long_chains():
    n = 3000
    chain = [(i, i + 1) for i in range(n)]
    assert find_cycle(Relation(chain)) is None
    assert find_cycle(Relation(chain + [(n, 0)])) == list(range(n + 1)) + [0]
    assert not on_cycle(Relation(chain), range(n + 1))
    assert on_cycle(Relation(chain + [(n, 0)]), [n // 2])


def test_foldr_accumulates_left_to_right():
    assert foldr(0, lambda a, x: a * 2 + x, [1, 0, 1]) == 5
    assert foldr("z", lambda a, x: a + x, []) == "z"


def _event(i, client, inv, ret, op="get", lvl="weak", rval=None):
    if rval is None:
        rval = rv_int(0) if ret is not None else PENDING
    return Event(i, OperationLabel(op), rval, lvl, client, inv, ret)


def make_history(spans):
    """spans: list of (client, invoke, return or None)."""
    return History([_event(i, c, inv, ret)
                    for i, (c, inv, ret) in enumerate(spans)])


def test_rb_is_derived_from_real_time():
    h = make_history([("a", 0, 1), ("b", 2, 3), ("c", 1, 4)])
    assert h.rb.has(0, 1)
    assert h.rb.has(0, 2) is False  # overlapping intervals are unordered
    assert h.rb.has(1, 0) is False


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 10)),
                min_size=1, max_size=8))
def test_rb_is_transitive_and_irreflexive(raw):
    spans = [("c%d" % i, inv, inv + d) for i, (inv, d) in enumerate(raw)]
    h = make_history(spans)
    rb = h.rb
    for a, b in rb.edges:
        assert a != b
        for b2, c in rb.edges:
            if b2 == b:
                assert rb.has(a, c)


def test_session_order_is_rb_within_a_client():
    h = make_history([("a", 0, 1), ("a", 2, 3), ("b", 2, 3)])
    so = session_order(h)
    assert so.edges == {(0, 1)}


def test_validate_rejects_overlapping_client_operations():
    h = make_history([("a", 0, 5), ("a", 3, 8)])
    with pytest.raises(MalformedHistory):
        h.validate()


def test_validate_rejects_issuing_after_pending():
    h = History([_event(0, "a", 0, None), _event(1, "a", 2, 3)])
    with pytest.raises(MalformedHistory):
        h.validate()


def test_validate_rejects_sparse_ids():
    h = History([_event(0, "a", 0, 1), _event(2, "b", 2, 3)])
    with pytest.raises(MalformedHistory):
        h.validate()


def test_validate_requires_pending_rval_iff_no_return():
    bad = History([Event(0, OperationLabel("get"), PENDING, "weak", "a", 0, 1)])
    with pytest.raises(MalformedHistory):
        bad.validate()


def test_jsonl_round_trip():
    """Byte for byte, and onto the same shared labels, also where equal
    arguments print apart."""
    h = History([
        Event(0, OperationLabel("add", (5,)), OK, "weak", "a", 0, 1),
        Event(1, OperationLabel("get"), rv_int(5), "weak", "b", 2, 3),
        Event(2, OperationLabel("read"), rv_str("xy"), "weak", "c", 4, 5),
        Event(3, OperationLabel("read"), rv_set({"x", "y"}), "weak", "d", 6, 7),
        Event(4, OperationLabel("subtract", (2,)), PENDING, "strong", "e",
              8, None),
        Event(5, OperationLabel("add", (True,)), OK, "weak", "a", 2, 3),
        Event(6, OperationLabel("add", (1,)), OK, "weak", "b", 4, 5),
        Event(7, OperationLabel("write", (0.0,)), OK, "weak", "c", 6, 7),
        Event(8, OperationLabel("write", (-0.0,)), OK, "weak", "d", 8, 9),
    ])
    text = h.to_jsonl()
    h2 = History.from_jsonl(text)
    assert [e for e in h2] == [e for e in h]
    assert h2.to_jsonl() == text
    assert all(x.op is y.op for x, y in zip(h2, h))


def test_equal_labels_are_one_object():
    assert OperationLabel("add", (5,)) is OperationLabel("add", (5,))
    assert OperationLabel("get") is OperationLabel("get", ())
    assert OperationLabel("add", (5,)) is not OperationLabel("add", (6,))


def test_equal_labels_that_print_apart_stay_apart():
    """add(True) == add(1) == add(1.0) and add(0.0) == add(-0.0), as the
    tuples of their arguments are equal, but each is its own object and
    prints and serialises as its argument does."""
    args = (True, 1, 1.0, 0.0, -0.0)
    labels = [OperationLabel("add", (a,)) for a in args]
    assert len({id(x) for x in labels}) == len(args)
    assert labels[0] == labels[1] == labels[2] and labels[3] == labels[4]
    assert [str(x) for x in labels] == ["add(True)", "add(1)", "add(1.0)",
                                        "add(0.0)", "add(-0.0)"]
    text = History([Event(i, x, OK, "weak", "c%d" % i, 2 * i, 2 * i + 1)
                    for i, x in enumerate(labels)]).to_jsonl()
    assert [line[line.index('"args"'):line.index("]") + 1]
            for line in text.splitlines()] == [
        '"args": [true]', '"args": [1]', '"args": [1.0]', '"args": [0.0]',
        '"args": [-0.0]']


def test_label_keeps_the_record_semantics():
    label = OperationLabel("add", (5,))
    assert repr(label) == "OperationLabel(name='add', args=(5,))"
    assert hash(label) == hash(("add", (5,)))
    assert label != ("add", (5,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        label.name = "get"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del label.args


def test_an_unreferenced_label_is_released():
    label = OperationLabel("unreferenced", (1,))
    ref = weakref.ref(label)
    del label
    gc.collect()
    assert ref() is None
    assert OperationLabel("unreferenced", (1,)).args == (1,)


def test_pickle_and_deepcopy_return_the_shared_label():
    label = OperationLabel("append", ("x",))
    assert pickle.loads(pickle.dumps(label)) is label
    assert copy.deepcopy(label) is label
    assert copy.copy(label) is label
    flag = OperationLabel("add", (True,))
    assert pickle.loads(pickle.dumps(flag)) is flag


def test_validate_sorts_a_session_listed_out_of_invoke_order():
    """A session whose ids do not follow invoke order is checked in invoke
    order: well-formed, it passes; overlapping, it fails as before."""
    assert make_history([("a", 4, 5), ("a", 0, 1), ("a", 2, 3)]).validate()
    h = make_history([("b", 0, 1), ("a", 4, 6), ("a", 0, 5)])
    with pytest.raises(MalformedHistory, match="client a has overlapping"):
        h.validate()
    h = History([_event(0, "a", 4, 5), _event(1, "a", 0, None)])
    with pytest.raises(MalformedHistory, match="after a pending"):
        h.validate()


def test_subhistory_preserves_rb_under_the_mapping():
    h = make_history([("a", 0, 1), ("b", 2, 3), ("c", 5, 6), ("d", 8, 9)])
    sub, mapping = h.subhistory([1, 3])
    assert sub.ids() == [0, 1]
    assert sub.rb.has(mapping[1], mapping[3])


def test_execution_requires_a_permutation():
    h = make_history([("a", 0, 1), ("b", 2, 3)])
    with pytest.raises(MalformedHistory):
        AbstractExecution(h, Relation(), [0, 0])


def test_execution_validates_every_order_but_the_ar_tuple(monkeypatch):
    h = make_history([("a", 0, 1), ("b", 2, 3)])
    with pytest.raises(MalformedHistory):
        AbstractExecution(h, Relation(), [0, 1], {0: [0, 1], 1: [1, 1]})
    with pytest.raises(MalformedHistory):
        AbstractExecution(h, Relation(), (0, 1), {0: (0, 1), 1: (0, 0, 1)})
    sorts = []
    monkeypatch.setattr(model, "sorted", lambda seq, **kw: sorts.append(seq)
                        or builtins.sorted(seq, **kw), raising=False)
    ar, same = (1, 0), tuple([1, 0])    # equal, but separate objects
    a = AbstractExecution(h, Relation(), ar, {0: ar, 1: same})
    # ar itself is sorted once; the equal but separate order is checked too
    assert a.par[0] is a.ar and a.par[1] is not a.ar
    assert sorts == [ar, same] and sorts[1] is same


def test_execution_par_defaults_to_ar():
    h = make_history([("a", 0, 1), ("b", 2, 3)])
    a = AbstractExecution(h, Relation([(0, 1)]), [1, 0])
    assert a.par[0] == a.ar == (1, 0) and a.par[1] == a.ar


def test_execution_json_round_trip():
    h = make_history([("a", 0, 1), ("b", 2, 3), ("c", 5, 6)])
    a = AbstractExecution(h, Relation([(0, 1), (0, 2)]), [2, 0, 1],
                          {0: [2, 0, 1], 1: [0, 2, 1], 2: [2, 0, 1]})
    a2 = AbstractExecution.from_json(h, a.to_json())
    assert a2.vis == a.vis and a2.ar == a.ar and a2.par == a.par


def test_restrict_induces_the_sub_execution():
    h = make_history([("a", 0, 1), ("b", 2, 3), ("c", 5, 6)])
    a = AbstractExecution(h, Relation([(0, 1), (1, 2)]), [0, 1, 2])
    sub = a.restrict([0, 2])
    assert sub.ar == (0, 1)
    assert sub.vis.edges == set()  # the bridging event is gone


def test_happens_before_is_transitive():
    h = make_history([("a", 0, 1), ("a", 2, 3), ("b", 5, 6)])
    a = AbstractExecution(h, Relation([(1, 2)]), [0, 1, 2])
    hb = happens_before(a)
    assert hb.has(0, 2)  # session order then visibility
    assert find_cycle(hb) is None
