"""Replicated data type specification functions F(op, context).

Implements the sequence, multi-value register, and non-negative counter
types plus context extraction from abstract executions.  A context is held
as masks, built in O(1): the carrier vis^-1(e) as a bitmask, an order that
lists it (ar or par(e)), vis, and the labels by event id.  Evaluation is
pure and isomorphism-invariant: it reads the carrier's labels in that
order and vis between carrier events, never the ids themselves.

`RdtSpec.evaluate` is the one entry point, which the return-value checks
(predicates.py) and the exhaustive search (witness.py) both call.  The
counter and the sequence are defined once each, as a left fold over the
carrier's labels in its order: an initial state, a step over one label,
and an answer from (op, state); the return-value checks fold the same steps
along ar and resume from ar's fold states.  The multi-value register is no
fold over an order, since its answer reads vis between writes; it answers
from the carrier's masks.  Each type also declares the shapes of its
operations' arguments, which `RdtSpec.check_history` enforces before
anything is evaluated, and whether each operation reads the state, writes
it, or both.  Nothing else says so: the simulator's local read-only rule
(`ActSpec.local_ro`) and the exhaustive search's screen derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable, NamedTuple, Optional

from .model import (OK, SCALAR, AbstractExecution, EventId, OperationLabel,
                    Relation, ReturnValue, UnknownEvent, WEAK, STRONG, bits,
                    fits, in_order, rv_bool, rv_int, rv_set, rv_str)


READS, WRITES = 1, 2    # its answer depends on the state; it changes the state


class BadOperation(ValueError):
    pass


class MissingPar(KeyError):
    pass


class OperationContext(NamedTuple):
    """(vis^-1(e), op, vis, order) as masks: the carrier, an order that lists
    it, vis and the labels by event id."""

    order: tuple        # lists every event of mask: ar or par(e)
    mask: int           # the carrier vis^-1(e)
    vis: Relation       # read only on pairs of carrier events
    op: dict            # event id -> operation label


def _context(a: AbstractExecution, e: EventId, order) -> OperationContext:
    if e not in a.history._by_id:
        raise UnknownEvent(e)
    return OperationContext(order, a.vis.pred_mask(e), a.vis, a.history.op)


def context_of(a: AbstractExecution, e: EventId) -> OperationContext:
    """context(A,e) = (vis^-1(e), op, vis, ar)."""
    return _context(a, e, a.ar)


def fcontext_of(a: AbstractExecution, e: EventId) -> OperationContext:
    """fcontext(A,e) = (vis^-1(e), op, vis, par(e)); raises MissingPar when
    the execution gives e no par(e)."""
    if e not in a.par:
        raise MissingPar(e)
    return _context(a, e, a.par[e])


def f_seq(acc, lab: OperationLabel):
    if lab.name == "append":
        return acc + lab.args[0]
    if lab.name == "read":
        return acc
    raise BadOperation(lab.name)


def seq_answer(op: OperationLabel, text) -> ReturnValue:
    return rv_str(text) if op.name == "read" else OK


def f_mvr(op: OperationLabel, c: OperationContext) -> ReturnValue:
    """A read returns the values of the carrier's writes that no other
    carrier write sees: with W the carrier's writes, those of
    W & ~OR(vis^-1(w) & W for w in W)."""
    if op.name == "write":
        return OK
    writes = [x for x in bits(c.mask) if c.op[x].name == "write"]
    seen = reduce(or_, map(c.vis.pred_mask, writes), 0)
    return rv_set(c.op[w].args[0] for w in writes if not seen >> w & 1)


def f_nnc(acc, lab: OperationLabel):
    if lab.name == "add":
        return acc + lab.args[0]
    if lab.name == "subtract":
        v = lab.args[0]
        return acc - v if acc >= v else acc
    if lab.name == "get":
        return acc
    raise BadOperation(lab.name)


def nnc_answer(op: OperationLabel, total) -> ReturnValue:
    if op.name == "get":
        return rv_int(total)
    if op.name == "subtract":
        return rv_bool(total >= op.args[0])
    return OK


@dataclass(frozen=True)
class RdtSpec:
    """A data type: its operations with the shapes of their arguments and
    whether each READS or WRITES the state or both, and F, either as a left
    fold (init, step, answer) over the context's labels in its order (the
    paper's foldr, here `functools.reduce`) or, for a type that is no such
    fold, as a function of the whole context."""

    name: str
    signature: tuple  # (op name, (a `model.fits` shape per arg), READS|WRITES)
    init: object = None
    step: Optional[Callable] = None     # (state, label) -> state
    answer: Optional[Callable] = None   # (op, state) -> return value
    _eval: Optional[Callable] = None    # (op, context) -> return value

    @cached_property
    def ops(self) -> frozenset:
        return frozenset(name for name, _, _ in self.signature)

    @cached_property
    def reads(self) -> frozenset:
        return frozenset(n for n, _, does in self.signature if does & READS)

    @cached_property
    def writes(self) -> frozenset:
        return frozenset(n for n, _, does in self.signature if does & WRITES)

    def known(self, op: OperationLabel) -> OperationLabel:
        """op, if it is an operation of this type; raises BadOperation
        otherwise."""
        if op.name not in self.ops:
            raise BadOperation("%s is not an operation of %s"
                               % (op.name, self.name))
        return op

    def evaluate(self, op: OperationLabel, c: OperationContext) -> ReturnValue:
        """F(op, c): a fold type folds the carrier's labels in c's order."""
        if self.step is None:
            return self._eval(self.known(op), c)
        labels = map(c.op.__getitem__, in_order(c.order, c.mask))
        return self.answer(self.known(op), reduce(self.step, labels, self.init))

    def check_history(self, h):
        """True if every event runs an operation of this type with arguments
        of its shapes; raises BadOperation naming the first event that does
        not."""
        shapes = {name: want for name, want, _ in self.signature}
        for e in h:
            want = shapes.get(e.op.name)
            if want is None:
                raise BadOperation("event %d runs %s, which is not an "
                                   "operation of %s"
                                   % (e.id, e.op.name, self.name))
            if (len(e.op.args) != len(want)
                    or not all(map(fits, e.op.args, want))):
                raise BadOperation(
                    "event %d runs %s, but %s takes %s(%s)"
                    % (e.id, e.op, self.name, e.op.name, ", ".join(
                        getattr(s, "__name__", "scalar") for s in want)))
        return True


F_SEQ = RdtSpec("f_seq", (("append", (str,), WRITES), ("read", (), READS)),
                init="", step=f_seq, answer=seq_answer)
F_MVR = RdtSpec("f_mvr", (("write", (SCALAR,), WRITES), ("read", (), READS)),
                _eval=f_mvr)
F_NNC = RdtSpec("f_nnc", (("add", (int,), WRITES),
                          ("subtract", (int,), READS | WRITES),
                          ("get", (), READS)),
                init=0, step=f_nnc, answer=nnc_answer)

RDTS = {s.name: s for s in (F_SEQ, F_MVR, F_NNC)}


@dataclass(frozen=True)
class ActSpec:
    """An RDT paired with the consistency levels each operation may run at."""

    rdt: RdtSpec
    lvlmap: tuple  # tuple of (op name, frozenset of levels)

    def local_ro(self, op: OperationLabel, level: str) -> bool:
        """True iff op at level is local read-only: weak, and not a write."""
        return level == WEAK and op.name not in self.rdt.writes

    def check_history(self, h):
        """True if h runs only operations of the data type, with arguments
        of their shapes, each at a level it may run at; raises BadOperation
        naming an event otherwise."""
        self.rdt.check_history(h)
        levels = dict(self.lvlmap)
        for e in h:
            if e.lvl not in levels.get(e.op.name, ()):
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
