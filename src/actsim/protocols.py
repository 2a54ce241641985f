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

The world hashes a replica's state, a tuple, after every step.  The parts
of a state that grow with the run are containers whose repr is their text,
kept current as they change, so a tuple holding one renders as it would
holding the plain list it stands for.  A `RenderedDict` (the counter's
known adds, red-blue's shadows) renders each `(key, value)` pair when the
key is set; a log replica's `CommittedLog` only grows, and renders its
dots on demand; its `TentativeLog` renders each dot on insert and joins
them once per change.

The counter's and the logs' states lead with the dict or the committed
log, which `_state_parts` names apart from the rest of the tuple.  That
container keeps the sha256 state of "(" and its text as the text changes:
the committed log extends a running hash by each dot it appends, and the
known adds extend the checkpoint of a dot's origin run and feed the later
runs again.  Each step copies that state and hashes only the rest of the
tuple, a few numbers and short lists formatted in one step.  A state led
by no container is hashed whole.  Either way the digest hashes exactly the
bytes of `repr(state)`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .model import OK, OperationLabel, STRONG, WEAK, rv_int, rv_bool, rv_str
from .rdt import ACT_NNC, ACT_SEQ_MIXED, ACT_SEQ_REDBLUE, BadOperation
from .simnet import Effects, FIFO_RB, RB, Response, TOB


@dataclass(frozen=True, order=True, slots=True)
class Req:
    """A named request record, totally ordered by (timestamp, dot).  It
    names the event that issued it, so a replica answers in event ids."""

    timestamp: int
    dot: tuple                              # (replica id, per-replica seqno)
    op: OperationLabel = field(compare=False)
    level: str = field(compare=False, default=WEAK)
    event: Optional[int] = field(compare=False, default=None)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@cache
def _tail_format(n):
    """The %-format of what follows the first item in the repr of a tuple
    of n more items."""
    return ", %r" * n + ")" if n else ",)"


_render = repr    # every fragment a container keeps or hashes renders here


def _refuse(self, *args, **kwargs):
    raise TypeError("%s changes only in ways that keep its text current"
                    % type(self).__name__)


class RenderedDict(dict):
    """A dict of dots whose repr is `repr(sorted(self.items()))`.

    A key is a dot, and its first item, the replica that minted it, names
    its run: the keys of one origin, which sort together.  Each run keeps
    its keys in order, each with its rendered `(key, value)` pair, and
    those pairs joined, so setting a key renders that pair alone.  The dict
    changes only by item assignment; every other mutator raises, so the
    text cannot fall behind the contents.

    `head_hash()` is the sha256 state of `"(" + repr(self)`, as a state
    tuple led by the dict begins.  It keeps a checkpoint per run: the
    sha256 state of `"(["` and the text up to that run's end.  A key set
    past the end of its run extends that run's checkpoint by its pair, and
    any set drops the checkpoints of the later runs (and of its own run,
    unless extended); the next call feeds those again from the checkpoint
    before and the runs' joined texts.
    """

    __slots__ = ("_origins", "_keys", "_fragments", "_texts", "_marks",
                 "_repr", "_head")

    def __init__(self):
        super().__init__()
        self._origins = []        # the origin of each run, ascending
        self._keys = []           # per run, its keys in order
        self._fragments = []      # per run, its rendered pairs in key order
        self._texts = []          # per run, its pairs joined by ", "
        self._marks = []          # per run, its checkpoint, until dropped
        self._repr = self._head = None    # until the next change

    def __setitem__(self, key, value):
        fragment = _render((key, value)).encode()
        origins, marks = self._origins, self._marks
        j = bisect_left(origins, key[0])
        if j == len(origins) or origins[j] != key[0]:
            origins.insert(j, key[0])
            self._keys.insert(j, [key])
            self._fragments.insert(j, [fragment])
            self._texts.insert(j, fragment)
        elif key > self._keys[j][-1]:
            self._keys[j].append(key)
            self._fragments[j].append(fragment)
            fragment = b", " + fragment
            self._texts[j] += fragment
            if j < len(marks):
                marks[j].update(fragment)
                j += 1
        else:
            keys, fragments = self._keys[j], self._fragments[j]
            i = bisect_left(keys, key)
            if key in self:
                fragments[i] = fragment
            else:
                keys.insert(i, key)
                fragments.insert(i, fragment)
            self._texts[j] = b", ".join(fragments)
        del marks[j:]
        dict.__setitem__(self, key, value)
        self._repr = self._head = None

    def __repr__(self):
        if self._repr is None:
            self._repr = "[" + b", ".join(self._texts).decode() + "]"
        return self._repr

    def head_hash(self):
        if self._head is None:
            marks = self._marks
            for text in self._texts[len(marks):]:
                if marks:
                    mark = marks[-1].copy()
                    mark.update(b", ")
                else:
                    mark = hashlib.sha256(b"([")
                mark.update(text)
                marks.append(mark)
            head = marks[-1].copy() if marks else hashlib.sha256(b"([")
            head.update(b"]")
            self._head = head
        return self._head

    update = setdefault = pop = popitem = clear = _refuse
    __delitem__ = __ior__ = _refuse


class CommittedLog(list):
    """An append-only list of requests whose repr is `repr([r.dot for r in
    self])`, rendered on demand.

    It keeps a running sha256 of `"(["` and its dots joined by `", "`, which
    an append extends by its dot, so `head_hash()`, the sha256 state of
    `"(" + repr(self)`, costs one copy.  It changes only by `append`; every
    other mutator raises.
    """

    __slots__ = ("_run", "_head")

    def __init__(self):
        super().__init__()
        self._run = hashlib.sha256(b"([")
        self._head = None             # until the next append

    def append(self, req):
        fragment = _render(req.dot).encode()
        self._run.update(b", " + fragment if self else fragment)
        super().append(req)
        self._head = None

    def __repr__(self):
        return repr([r.dot for r in self])

    def head_hash(self):
        if self._head is None:
            self._head = self._run.copy()
            self._head.update(b"]")
        return self._head

    insert = extend = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


class TentativeLog(list):
    """A list of requests whose repr is `repr([r.dot for r in self])`: each
    dot is rendered once, on insert, and dropped with its request, and the
    repr is joined once per change.  It changes only by `insert` (which
    `bisect.insort` calls) and `del`; every other mutator raises.
    """

    __slots__ = ("_fragments", "_repr")

    def __init__(self):
        super().__init__()
        self._fragments = []
        self._repr = None             # until the next change

    def insert(self, i, req):
        self._fragments.insert(i, _render(req.dot))
        super().insert(i, req)
        self._repr = None

    def __delitem__(self, i):
        del self._fragments[i]
        super().__delitem__(i)
        self._repr = None

    def __repr__(self):
        if self._repr is None:
            self._repr = "[" + ", ".join(self._fragments) + "]"
        return self._repr

    append = extend = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __iadd__ = __imul__ = _refuse


class Replica:
    act = None      # the ActSpec the replica implements, if any

    def __init__(self, rid):
        self.rid = rid
        self._seq = 0
        # the head hash and the text of the rest last hashed, and the digest
        self._head = self._tail = self._tail_digest = None

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
        lead, rest = self._state_parts()
        if lead is None:
            return _digest(rest)
        head = lead.head_hash()
        tail = (_tail_format(len(rest)) % rest).encode()
        if head is self._head and tail == self._tail:
            return self._tail_digest
        hashed = head.copy()
        hashed.update(tail)
        self._head, self._tail = head, tail
        self._tail_digest = digest = hashed.hexdigest()[:16]
        return digest

    def convergence_digest(self):
        return _digest(self._converged_repr())

    def _state_parts(self):
        """(lead, rest): the container leading the state, or None, and the
        tuple of the state's other items."""
        raise NotImplementedError

    def _state_repr(self):
        lead, rest = self._state_parts()
        return rest if lead is None else (lead, *rest)


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
        self._total = 0          # the known adds' sum

    def _state_parts(self):
        return self.known_adds, (self.committed_add, self.committed_sub,
                                 sorted(self.awaiting))

    def _converged_repr(self):
        return self.known_adds, self.committed_add, self.committed_sub

    def _learn(self, dot, amount):
        """Know the add dot of amount, unless it is known already."""
        if dot not in self.known_adds:
            self.known_adds[dot] = amount
            self._total += amount

    def value(self):
        return self._total - self.committed_sub

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "get":
            return Effects(responses=[Response(event_id, rv_int(self.value()))])
        if op.name in ("add", "subtract") and type(op.args[0]) is not int:
            # as f_nnc's signature has it, a bool is no int
            raise BadOperation("%s takes an int, not %r"
                               % (op.name, op.args[0]))
        dot = self.mint_dot()
        if op.name == "add":
            amount = op.args[0]
            self._learn(dot, amount)
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
            self._learn(dot, amount)
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
    """A sorted tentative log and a committed log, both changed in place.

    A request enters each log at most once, and leaves the tentative log
    only when it is committed, so the two logs never share a dot and
    `known` holds the dots of both.  Each request names one event, so no
    answer built from the two logs repeats an event.
    """

    def __init__(self, rid):
        super().__init__(rid)
        self.committed = CommittedLog()   # Req, in commit order
        self.tentative = TentativeLog()   # Req, kept sorted
        self.known = set()               # dots in either log

    def _converged_repr(self):
        return self.committed, self.tentative

    def _insert_tentative(self, req):
        insort(self.tentative, req)
        self.known.add(req.dot)

    def _commit(self, req):
        """Move req from the tentative log to the end of the committed log
        and say whether it moved; a known dot not tentative is committed."""
        i = bisect_left(self.tentative, req)
        if i < len(self.tentative) and self.tentative[i].dot == req.dot:
            del self.tentative[i]
        elif req.dot in self.known:
            return False
        self.committed.append(req)
        self.known.add(req.dot)
        return True

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

    An answer carries the events of the requests it was computed from as
    its snapshot.  The committed log only grows, so its events and the text
    its appends spell are kept as `_commit` grows them; an answer joins
    those to the few tentative requests instead of walking the whole log.
    """

    act = ACT_SEQ_MIXED

    def __init__(self, rid):
        super().__init__(rid)
        self.awaiting = {}             # dot -> event id of my strong op
        self._committed_events = []    # the events of self.committed
        self._committed_text = ""      # what the committed appends spell

    def _state_parts(self):
        return self.committed, (self.tentative, sorted(self.awaiting))

    def _commit(self, req):
        if moved := super()._commit(req):
            self._committed_events.append(req.event)
            self._committed_text += _appended(req)
        return moved

    def _answer(self, op):
        """(snapshot, value) of op over the committed and tentative logs."""
        snapshot = (*self._committed_events,
                    *(r.event for r in self.tentative))
        if op.name == "append":
            return snapshot, OK
        return snapshot, rv_str(self._committed_text
                                + "".join(map(_appended, self.tentative)))

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "read" and level == WEAK:
            snapshot, value = self._answer(op)
            return Effects(responses=[
                Response(event_id, value, trace_snapshot=snapshot)])
        req = Req(now_clock, self.mint_dot(), op, level, event_id)
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
                trace_snapshot=tuple(self._committed_events[:-1])))
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
        self.commit_queue = deque()   # Req, in learn order, primary only

    def _state_parts(self):
        return self.committed, (self.tentative,
                                [r.dot for r in self.commit_queue])

    def _insert_tentative(self, req):
        super()._insert_tentative(req)
        if self.is_primary:
            self.commit_queue.append(req)

    def has_internal(self):
        return self.is_primary and bool(self.commit_queue)

    def on_internal(self):
        req = self.commit_queue.popleft()
        self._commit(req)
        return Effects(casts=[(FIFO_RB, ("COMMIT", req))])

    def on_invoke(self, event_id, op, level, now_clock):
        req = Req(now_clock, self.mint_dot(), op, level, event_id)
        self._insert_tentative(req)
        log = self.committed + self.tentative
        value, edges = replay(log)[req.dot]
        event_of = {r.dot: r.event for r in log}
        rv = OK if value is None else rv_int(value)
        return Effects(
            casts=[(RB, ("ISSUE", req))],
            responses=[Response(event_id, rv,
                                trace_snapshot=tuple(
                                    r.event for r in log if r is not req),
                                # sorted by dot, as the trace lists them
                                essential_edges=tuple(
                                    (event_of[a], event_of[b])
                                    for a, b in sorted(edges)))],
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

    def _state_parts(self):
        # led by the clock, so hashed whole
        return None, (self.lc, self.shadows, sorted(self.awaiting))

    def _converged_repr(self):
        return self.shadows

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
