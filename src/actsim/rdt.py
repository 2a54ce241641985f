"""Replicated data type specification functions F(op, context).

Implements the sequence, multi-value register, and non-negative counter
types plus context extraction from abstract executions.  Evaluation is pure
and isomorphism-invariant: a context carries only the carrier's event ids in
a total order, their labels, and the visibility relation (read only between
carrier events).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (OK, AbstractExecution, EventId, OperationLabel, Relation,
                    ReturnValue, UnknownEvent, WEAK, STRONG, foldr, rv_bool,
                    rv_int, rv_set, rv_str)


class BadOperation(ValueError):
    pass


class MissingPar(KeyError):
    pass


@dataclass(frozen=True)
class OperationContext:
    """(carrier, op labels, vis, total order over the carrier), held as the
    carrier in that order, its labels and vis."""

    order: tuple  # the carrier, ascending by ar or par(e)
    labels: tuple  # labels[i] is the label of order[i]
    vis: Relation  # read only on pairs of carrier events


def _make_context(a: AbstractExecution, e: EventId, order_seq) -> OperationContext:
    if e not in a.history._by_id:
        raise UnknownEvent(e)
    order = a.vis.preds_in(e, order_seq)
    return OperationContext(order, tuple(map(a.history.op.__getitem__, order)),
                            a.vis)


def context_of(a: AbstractExecution, e: EventId) -> OperationContext:
    """context(A,e) = (vis^-1(e), op, vis, ar)."""
    return _make_context(a, e, a.ar)


def fcontext_of(a: AbstractExecution, e: EventId) -> OperationContext:
    """fcontext(A,e) = (vis^-1(e), op, vis, par(e))."""
    if e not in a.par:
        raise MissingPar(e)
    return _make_context(a, e, a.par[e])


def eval_fseq(op: OperationLabel, c: OperationContext) -> ReturnValue:
    if op.name == "append":
        return OK
    if op.name == "read":
        parts = [lab.args[0] for lab in c.labels if lab.name == "append"]
        return rv_str("".join(parts))
    raise BadOperation(op.name)


def eval_fmvr(op: OperationLabel, c: OperationContext) -> ReturnValue:
    if op.name == "write":
        return OK
    if op.name == "read":
        writes = [(i, lab) for i, lab in zip(c.order, c.labels)
                  if lab.name == "write"]
        return rv_set(lab.args[0] for w, lab in writes
                      if not any(c.vis.has(w, w2) for w2, _ in writes
                                 if w2 != w))
    raise BadOperation(op.name)


def f_nnc(acc, lab: OperationLabel):
    if lab.name == "add":
        return acc + lab.args[0]
    if lab.name == "subtract":
        v = lab.args[0]
        return acc - v if acc >= v else acc
    if lab.name == "get":
        return acc
    raise BadOperation(lab.name)


def eval_fnnc(op: OperationLabel, c: OperationContext) -> ReturnValue:
    if op.name == "add":
        return OK
    total = foldr(0, f_nnc, c.labels)
    if op.name == "get":
        return rv_int(total)
    if op.name == "subtract":
        return rv_bool(total >= op.args[0])
    raise BadOperation(op.name)


@dataclass(frozen=True)
class RdtSpec:
    name: str
    ops: frozenset
    _eval: object = field(repr=False, default=None)

    def evaluate(self, op: OperationLabel, c: OperationContext) -> ReturnValue:
        if op.name not in self.ops:
            raise BadOperation("%s is not an operation of %s" % (op.name, self.name))
        return self._eval(op, c)


F_SEQ = RdtSpec("f_seq", frozenset({"append", "read"}), eval_fseq)
F_MVR = RdtSpec("f_mvr", frozenset({"write", "read"}), eval_fmvr)
F_NNC = RdtSpec("f_nnc", frozenset({"add", "subtract", "get"}), eval_fnnc)

RDTS = {s.name: s for s in (F_SEQ, F_MVR, F_NNC)}


@dataclass(frozen=True)
class ActSpec:
    """An RDT paired with the consistency levels each operation may run at."""

    rdt: RdtSpec
    lvlmap: tuple  # tuple of (op name, frozenset of levels)

    def levels(self, op_name):
        for name, lv in self.lvlmap:
            if name == op_name:
                return lv
        raise BadOperation(op_name)

    def check_history(self, h):
        for e in h:
            if e.lvl not in self.levels(e.op.name):
                raise BadOperation(
                    "event %d runs %s at level %s" % (e.id, e.op.name, e.lvl))
        return True


ACT_NNC = ActSpec(F_NNC, (
    ("add", frozenset({WEAK})),
    ("get", frozenset({WEAK})),
    ("subtract", frozenset({STRONG})),
))

# the sequence type of the impossibility construction: both operations may
# run at either level
ACT_SEQ_MIXED = ActSpec(F_SEQ, (
    ("append", frozenset({WEAK, STRONG})),
    ("read", frozenset({WEAK, STRONG})),
))

# the RedBlue-style split: appends may be weak (blue) or strong (red),
# reads only weak (blue)
ACT_SEQ_REDBLUE = ActSpec(F_SEQ, (
    ("append", frozenset({WEAK, STRONG})),
    ("read", frozenset({WEAK})),
))
