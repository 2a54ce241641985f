"""Replica protocol implementations.

Four protocols run over the simulated network:

  * NncReplica: a non-negative counter with RB-propagated adds and
    TOB-ordered subtracts.
  * MixedLogReplica: an append/read sequence where weak operations execute
    against a tentative log and strong operations wait for commit.
  * ClassicLogReplica: the primary-commit tentative/committed log over
    generic register programs, re-executing on every reordering.
  * RedBlueReplica: Lamport-clocked shadow operations, blue via RB and red
    via TOB.

Replicas expose on_invoke / on_deliver / on_internal / has_internal plus a
state digest, and answer through Effects records.  Each class names the
`ActSpec` it implements as `act` (the primary-commit log names none), whose
data type alone declares which operations read or write the state.

The world hashes a replica's state after every step, so the state's text is
kept current as the state changes instead of being rendered afresh each
step.  The parts of a state that grow with the run live in two containers.
A `RenderedDict` renders each `(key, value)` pair when the key is set and
keeps the pairs in key order; a `RenderedLog` renders each request's dot
when the request is appended.  Their `text()` joins those fragments into
exactly what `repr` gives for the sorted items or the list of dots, and
returns the same `StateText` object until the next change.

A state is a tuple, and the counter's and the logs' states lead with such a
text.  `state_digest` keeps a sha256 state fed with the tuple's text up to
the end of that leading text, and feeds it again only when the text object
changes; each step copies it and hashes only the rest of the tuple, a few
numbers and short lists, formatted in one step.  A state that does not lead
with its text is hashed whole.  Either way the digest hashes exactly the
bytes of `repr(state)`, as rendering and hashing the whole state would.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache

from .model import OK, OperationLabel, STRONG, WEAK, rv_int, rv_bool, rv_str
from .rdt import ACT_NNC, ACT_SEQ_MIXED, ACT_SEQ_REDBLUE
from .simnet import Effects, FIFO_RB, RB, Response, TOB


@dataclass(frozen=True, order=True, slots=True)
class Req:
    """A named request record, totally ordered by (timestamp, dot)."""

    timestamp: int
    dot: tuple                              # (replica id, per-replica seqno)
    op: OperationLabel = field(compare=False)
    level: str = field(compare=False, default=WEAK)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@cache
def _rest_format(arity):
    """The %-format of a tuple's repr after its first item, for a tuple of
    arity items."""
    return ",)" if arity == 1 else ", %r" * (arity - 1) + ")"


_render = repr    # every fragment of a state's text is rendered through here


class StateText(str):
    """A rendered state component that `repr` writes out unchanged, so a
    tuple holding it renders exactly like a tuple holding the list it was
    rendered from."""

    __slots__ = ()
    __repr__ = str.__str__


def _list_text(fragments):
    return StateText("[" + ", ".join(fragments) + "]")


def _refuse(self, *args, **kwargs):
    raise TypeError("%s changes only in ways that keep its text current"
                    % type(self).__name__)


class RenderedDict(dict):
    """A dict whose `text()` is `repr(sorted(self.items()))`.

    Keys are kept sorted beside the dict, each with its rendered
    `(key, value)` pair, so setting a key renders that pair alone.  The dict
    changes only by item assignment and `setdefault`; every other mutator
    raises, so the text cannot fall behind the contents.
    """

    __slots__ = ("_keys", "_fragments", "_text")

    def __init__(self):
        super().__init__()
        self._keys = []
        self._fragments = []
        self._text = None         # the joined text, until the next change

    def __setitem__(self, key, value):
        fragment = _render((key, value))
        i = bisect_left(self._keys, key)
        if key in self:
            self._fragments[i] = fragment
        else:
            self._keys.insert(i, key)
            self._fragments.insert(i, fragment)
        super().__setitem__(key, value)
        self._text = None

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def text(self):
        if self._text is None:
            self._text = _list_text(self._fragments)
        return self._text

    update = pop = popitem = clear = __delitem__ = __ior__ = _refuse


class RenderedLog(list):
    """An append-only list of requests whose `text()` is
    `repr([r.dot for r in self])`: each dot is rendered once, on append.
    Every other mutator raises."""

    __slots__ = ("_fragments", "_text")

    def __init__(self):
        super().__init__()
        self._fragments = []
        self._text = None         # the joined text, until the next append

    def append(self, req):
        self._fragments.append(_render(req.dot))
        super().append(req)
        self._text = None

    def text(self):
        if self._text is None:
            self._text = _list_text(self._fragments)
        return self._text

    extend = insert = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


class Replica:
    act = None      # the ActSpec the replica implements, if any

    def __init__(self, rid):
        self.rid = rid
        self._seq = 0
        # the StateText leading the state, the sha256 state fed with "("
        # and that text, and the last rest hashed after it, with the digest
        self._head = self._head_hash = None
        self._rest = self._rest_digest = None

    def mint_dot(self):
        self._seq += 1
        return (self.rid, self._seq)

    def has_internal(self):
        return False

    def on_internal(self):
        return Effects()

    def on_deliver(self, msg):
        return Effects()

    def state_digest(self):
        state = self._state_repr()
        if type(state) is not tuple or not state \
                or type(state[0]) is not StateText:
            return _digest(state)
        text = state[0]
        rest = (_rest_format(len(state)) % state[1:]).encode()
        if text is not self._head:
            self._head = text
            self._head_hash = hashlib.sha256(("(" + text).encode())
        elif rest == self._rest:
            return self._rest_digest
        hashed = self._head_hash.copy()
        hashed.update(rest)
        self._rest = rest
        self._rest_digest = digest = hashed.hexdigest()[:16]
        return digest

    def convergence_digest(self):
        return _digest(self._converged_repr())

    def _state_repr(self):
        raise NotImplementedError

    def _converged_repr(self):
        return self._state_repr()


class NncReplica(Replica):
    """Non-negative counter: weak add/get, strong subtract.

    Adds spread over RB for availability and also go through TOB so the
    total order can rule on subtracts deterministically.  A subtract
    succeeds iff the committed additions cover the committed subtractions
    plus its own amount.
    """

    act = ACT_NNC

    def __init__(self, rid):
        super().__init__(rid)
        self.known_adds = RenderedDict()  # dot -> amount, seen via RB or TOB
        self.committed_add = 0
        self.committed_sub = 0
        self.awaiting = {}       # dot -> event id of my undecided subtract

    def _state_repr(self):
        return (self.known_adds.text(), self.committed_add,
                self.committed_sub, sorted(self.awaiting))

    def _converged_repr(self):
        return (self.known_adds.text(), self.committed_add,
                self.committed_sub)

    def value(self):
        return sum(self.known_adds.values()) - self.committed_sub

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "get":
            return Effects(responses=[Response(event_id, rv_int(self.value()))])
        dot = self.mint_dot()
        if op.name == "add":
            amount = op.args[0]
            self.known_adds[dot] = amount
            return Effects(
                casts=[(RB, ("ADD", dot, amount)),
                       (TOB, ("ADD", dot, amount))],
                responses=[Response(event_id, OK)],
                req_dot=dot)
        if op.name == "subtract":
            self.awaiting[dot] = event_id
            return Effects(casts=[(TOB, ("SUB", dot, op.args[0]))],
                           req_dot=dot)
        raise ValueError(op.name)

    def on_deliver(self, msg):
        tag, dot, amount = msg.payload
        if tag == "ADD":
            self.known_adds.setdefault(dot, amount)
            if msg.kind == TOB:
                self.committed_add += amount
            return Effects()
        # committed subtract: decided identically at every replica
        ok = self.committed_add >= self.committed_sub + amount
        if ok:
            self.committed_sub += amount
        eff = Effects()
        if dot in self.awaiting:
            eff.responses.append(Response(self.awaiting.pop(dot), rv_bool(ok)))
        return eff


class LogReplica(Replica):
    """A tentative log, kept sorted, and a committed log in commit order.

    A request enters each log at most once, and leaves the tentative log
    only when it is committed, so the two logs never share a dot and
    `known` holds the dots of both.
    """

    def __init__(self, rid):
        super().__init__(rid)
        self.committed = RenderedLog()   # Req, in commit order
        self.tentative = []              # Req, kept sorted
        self.known = set()               # dots in either log

    def _converged_repr(self):
        return (self.committed.text(), [r.dot for r in self.tentative])

    def _insert_tentative(self, req):
        self.tentative.append(req)
        self.tentative.sort()
        self.known.add(req.dot)

    def _commit(self, req):
        """Move req from the tentative log to the end of the committed log;
        a known dot that is not tentative is committed already."""
        tentative = [r for r in self.tentative if r.dot != req.dot]
        if req.dot not in self.known or len(tentative) < len(self.tentative):
            self.committed.append(req)
            self.known.add(req.dot)
        self.tentative = tentative

    def on_deliver(self, msg):
        tag, req = msg.payload
        if tag == "ISSUE":
            if req.dot not in self.known:
                self._insert_tentative(req)
        else:
            self._commit(req)
        return Effects()


def _appended(req):
    """The text req appends to the sequence."""
    return req.op.args[0] if req.op.name == "append" else ""


class MixedLogReplica(LogReplica):
    """Append/read sequence with a tentative log and a committed prefix.

    Weak updates answer from the tentative state at invoke time and are both
    RB-issued and TOB-committed; weak reads are purely local; strong
    operations answer only once their own commit is delivered.

    An answer carries the dots of the state it was computed from as its
    snapshot.  The committed log only grows, so its dots and the text its
    appends spell are kept as `_commit` grows them; an answer joins those
    to the few tentative requests instead of walking the whole log.
    """

    act = ACT_SEQ_MIXED

    def __init__(self, rid):
        super().__init__(rid)
        self.awaiting = {}             # dot -> event id of my strong op
        self._committed_dots = ()      # the dots of self.committed
        self._committed_text = ""      # what the committed appends spell

    def _state_repr(self):
        return (self.committed.text(), [r.dot for r in self.tentative],
                sorted(self.awaiting))

    def _commit(self, req):
        n = len(self.committed)
        super()._commit(req)
        if len(self.committed) > n:
            self._committed_dots += (req.dot,)
            self._committed_text += _appended(req)

    def _answer(self, op):
        """(snapshot, value) of op over the committed and tentative logs."""
        snapshot = self._committed_dots + tuple(r.dot for r in self.tentative)
        if op.name == "append":
            return snapshot, OK
        return snapshot, rv_str(self._committed_text
                                + "".join(map(_appended, self.tentative)))

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "read" and level == WEAK:
            snapshot, value = self._answer(op)
            return Effects(responses=[
                Response(event_id, value, trace_snapshot=snapshot)])
        req = Req(now_clock, self.mint_dot(), op, level)
        if level == WEAK:
            snapshot, value = self._answer(op)
            self._insert_tentative(req)
            return Effects(
                casts=[(RB, ("ISSUE", req)), (TOB, ("COMMIT", req))],
                responses=[Response(event_id, value,
                                    trace_snapshot=snapshot)],
                req_dot=req.dot)
        self.awaiting[req.dot] = event_id
        return Effects(casts=[(TOB, ("COMMIT", req))], req_dot=req.dot)

    def on_deliver(self, msg):
        eff = super().on_deliver(msg)
        tag, req = msg.payload
        if tag == "COMMIT" and req.dot in self.awaiting:
            # the committed prefix before req; req itself appends nothing
            # to a read's value, and an append answers OK
            value = (OK if req.op.name == "append"
                     else rv_str(self._committed_text))
            eff.responses.append(Response(
                self.awaiting.pop(req.dot), value,
                trace_snapshot=self._committed_dots[:-1]))
        return eff


class RegView:
    """Register file view that tracks read-from provenance while a program runs."""

    def __init__(self, env, dot):
        self.env = env
        self.dot = dot
        self.edges = set()

    def read(self, reg):
        if reg in self.env:
            value, writer, support = self.env[reg]
            if writer != self.dot:
                self.edges.add((writer, self.dot))
                self.edges |= support
            return value
        return 0

    def write(self, reg, value):
        self.env[reg] = (value, self.dot, frozenset(self.edges))


def prog_upd_x(view):
    view.write("x", 1)
    if view.read("y") == 1:
        view.write("z", 1)


def prog_upd_y(view):
    view.write("y", 1)
    if view.read("x") == 1:
        view.write("z", 2)


def prog_read_z(view):
    return view.read("z")


PROGRAMS = {
    "upd_x": prog_upd_x,
    "upd_y": prog_upd_y,
    "read_z": prog_read_z,
}


def replay(reqs):
    """Re-execute a request sequence from the initial register file.

    Returns {dot: (value, provenance edges)} for every request.
    """
    env = {}
    results = {}
    for r in reqs:
        view = RegView(env, r.dot)
        value = PROGRAMS[r.op.name](view)
        results[r.dot] = (value, frozenset(view.edges))
    return results


class ClassicLogReplica(LogReplica):
    """Primary-commit tentative/committed log over register programs.

    Every operation, including queries, becomes a request: it is inserted
    into the timestamp-sorted tentative log, answered from the re-executed
    state right away, and issued over RB.  The primary commits requests in
    the order it learns of them and announces commits over FIFO RB.
    """

    def __init__(self, rid, is_primary=False):
        super().__init__(rid)
        self.is_primary = is_primary
        self.commit_queue = []    # dots in learn order, primary only

    def _state_repr(self):
        return (self.committed.text(), [r.dot for r in self.tentative],
                list(self.commit_queue))

    def committed_dots(self):
        return [r.dot for r in self.committed]

    def _insert_tentative(self, req):
        super()._insert_tentative(req)
        if self.is_primary:
            self.commit_queue.append(req.dot)

    def has_internal(self):
        return self.is_primary and bool(self.commit_queue)

    def on_internal(self):
        dot = self.commit_queue.pop(0)
        req = next(r for r in self.tentative if r.dot == dot)
        self._commit(req)
        return Effects(casts=[(FIFO_RB, ("COMMIT", req))])

    def on_invoke(self, event_id, op, level, now_clock):
        req = Req(now_clock, self.mint_dot(), op, level)
        self._insert_tentative(req)
        results = replay(self.committed + self.tentative)
        value, edges = results[req.dot]
        rv = OK if value is None else rv_int(value)
        return Effects(
            casts=[(RB, ("ISSUE", req))],
            responses=[Response(event_id, rv,
                                trace_snapshot=tuple(
                                    r.dot for r in self.committed + self.tentative
                                    if r.dot != req.dot),
                                essential_edges=tuple(sorted(edges)))],
            req_dot=req.dot)


class RedBlueReplica(Replica):
    """Shadow-operation log: blue appends over RB, red appends over TOB,
    reads sort the delivered shadows by (Lamport clock, payload)."""

    act = ACT_SEQ_REDBLUE

    def __init__(self, rid):
        super().__init__(rid)
        self.lc = 0
        self.shadows = RenderedDict()  # dot -> (payload, lc at generation)
        self.awaiting = {}       # dot -> event id of my red op

    def _state_repr(self):
        return (self.lc, self.shadows.text(), sorted(self.awaiting))

    def _converged_repr(self):
        return self.shadows.text()

    def _apply(self, dot, payload, lc):
        if dot in self.shadows:
            return
        self.shadows[dot] = (payload, lc)
        self.lc = max(self.lc, lc) + 1

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "read":
            ordered = sorted(self.shadows.values(), key=lambda s: (s[1], s[0]))
            return Effects(responses=[
                Response(event_id, rv_str("".join(p for p, _ in ordered)))])
        dot = self.mint_dot()
        rec = (dot, op.args[0], self.lc)
        if level == WEAK:
            self._apply(*rec)
            return Effects(casts=[(RB, ("SHADOW",) + rec)],
                           responses=[Response(event_id, OK)], req_dot=dot)
        self.awaiting[dot] = event_id
        return Effects(casts=[(TOB, ("SHADOW",) + rec)], req_dot=dot)

    def on_deliver(self, msg):
        _, dot, payload, lc = msg.payload
        self._apply(dot, payload, lc)
        eff = Effects()
        if dot in self.awaiting:
            eff.responses.append(Response(self.awaiting.pop(dot), OK))
        return eff
