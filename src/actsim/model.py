"""Event-graph primitives: events, relations, histories, abstract executions.

Everything downstream (RDT evaluation, predicates, witness construction)
consumes the types defined here.  Relations over event ids are stored as
per-id predecessor bitmasks (Python ints); total orders are id sequences.

Each JSON record's writer, reader and malformed-input check derive from its
one `JsonRecord`, such as `HISTORY_LINE` (a trace's are in `simnet`).
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from itertools import accumulate, compress, count
from operator import attrgetter, ne, or_
from typing import Iterable, Optional

WEAK = "weak"
STRONG = "strong"
LEVELS = frozenset((WEAK, STRONG))

EventId = int


class MalformedHistory(ValueError):
    pass


class UnknownEvent(KeyError):
    pass


SCALAR = (str, int, float, bool, None)      # neither a list nor an object


def fits(value, shape):
    """True iff value has the JSON shape (see `conform`)."""
    if isinstance(shape, list):
        item, = shape
        if type(value) is not list:
            return False
        if isinstance(item, type):
            return {*map(type, value)} <= {item}
        return all(fits(v, item) for v in value)
    if isinstance(shape, dict):
        return type(value) is dict and all(
            k in value and fits(value[k], s) for k, s in shape.items())
    if isinstance(shape, tuple):
        return any(fits(value, s) for s in shape)
    if isinstance(shape, frozenset):
        return type(value) is str and value in shape
    return value is None if shape is None else type(value) is shape


def conform(value, shape, what):
    """value, if it has the JSON shape; raises MalformedHistory naming what
    otherwise.  A shape is a type (matched exactly, so a bool is no int),
    None (null), a tuple of alternative shapes, a frozenset of strings (one
    of them), [shape] (a list of such values) or {key: shape} (an object
    with at least those keys)."""
    if not fits(value, shape):
        raise MalformedHistory("malformed %s" % what)
    return value


class OperationLabel:
    """An operation's name and arguments, e.g. add(5).

    A data type's alphabet is small and its labels repeat, so each distinct
    label is one live object: `__new__` hands back the live label with the
    same name, arguments and repr of the arguments, and a label no one
    refers to is released.  The repr is part of the key because equality
    is not enough: add(True) == add(1) == add(1.0) and write(0.0) ==
    write(-0.0), yet each prints and serialises as its own arguments do.
    Labels compare and hash on (name, args) and cannot be changed.
    """

    __slots__ = ("name", "args", "__weakref__")
    _live = weakref.WeakValueDictionary()   # key -> the live label
    _refs = _live.data      # its weak references: a hit reads them directly

    def __new__(cls, name, args=()):
        key = (name, args, repr(args))
        ref = cls._refs.get(key)
        label = ref and ref()
        if label is None:
            label = object.__new__(cls)
            object.__setattr__(label, "name", name)
            object.__setattr__(label, "args", args)
            cls._live[key] = label
        return label

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), (self.name, self.args)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.name, self.args) == (other.name,
                                                           other.args)

    def __hash__(self):
        return hash((self.name, self.args))

    def __repr__(self):
        return "%s(name=%r, args=%r)" % (type(self).__qualname__, self.name,
                                         self.args)

    def __str__(self):
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ",".join(str(a) for a in self.args))


@dataclass(frozen=True, slots=True)
class ReturnValue:
    """Tagged return value: Ok | Int | Bool | Str | Set | Pending.

    Pending encodes the undefined return of an operation that never completed.
    """

    tag: str
    value: object = None

    def is_pending(self):
        return self.tag == "pending"

    def to_json(self):
        if self.tag == "set":
            return {"tag": "set", "value": sorted(self.value, key=str)}
        return {"tag": self.tag, "value": self.value}

    @staticmethod
    def from_json(d):
        tag = d["tag"]
        if tag not in RVAL_SHAPES:
            raise MalformedHistory("unknown return value tag %r" % (tag,))
        value = conform(d["value"], RVAL_SHAPES[tag], "%s return value" % tag)
        return rv_set(value) if tag == "set" else ReturnValue(tag, value)


# the JSON shape of a return value's value, by its tag
RVAL_SHAPES = {"ok": None, "pending": None, "int": int, "bool": bool,
               "str": str, "set": [SCALAR]}


OK = ReturnValue("ok")
PENDING = ReturnValue("pending")


def rv_int(n):
    return ReturnValue("int", int(n))


def rv_bool(b):
    return ReturnValue("bool", bool(b))


def rv_str(s):
    return ReturnValue("str", str(s))


def rv_set(values):
    return ReturnValue("set", frozenset(values))


def bits(mask):
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def id_mask(ids) -> int:
    """The bitmask with bit i set for each i in ids."""
    return reduce(or_, map((1).__lshift__, ids), 0)


def event_key(k, what):
    """The event id that k, a key of a JSON object of what, spells; raises
    MalformedHistory unless k is a non-negative id as `str` writes it."""
    if not (k.isdecimal() and k == str(int(k))):
        raise MalformedHistory("malformed %s key %r" % (what, k))
    return int(k)


class JsonRecord:
    """A record's JSON format: shape is the {key: shape} `conform` takes,
    one key per attribute of the record, in the order the writer emits them,
    and convert a (write, read) pair per key not stored as it is written (a
    None, written null, is not converted).  read raises MalformedHistory
    naming what unless d has the shape."""

    def __init__(self, shape, **convert):
        self.shape, self.convert = shape, convert
        self._get = attrgetter(*shape)

    def write(self, record):
        d = dict(zip(self.shape, self._get(record)))
        for k, (write, _) in self.convert.items():
            d[k] = None if d[k] is None else write(d[k])
        return d

    def read(self, d, what):
        conform(d, self.shape, what)
        out = {k: d[k] for k in self.shape}
        for k, (_, read) in self.convert.items():
            out[k] = None if out[k] is None else read(out[k])
        return out


# the conversions of the values records do not store as they are written
LABEL = (lambda op: {"name": op.name, "args": list(op.args)},
         lambda d: OperationLabel(d["name"], tuple(d["args"])))
OP = {"name": str, "args": [SCALAR]}        # the shape LABEL writes
RVAL = (ReturnValue.to_json, ReturnValue.from_json)
RV = {"tag": str, "value": (SCALAR, [SCALAR])}   # the shape RVAL writes
SEQUENCE = (list, tuple)
MASK = (bits, id_mask)                      # an event mask, as its ids
PAIRS = (lambda ps: [list(p) for p in ps], lambda ps: tuple(map(tuple, ps)))


def in_order(order, mask, start=0):
    """The events of mask in the order `order` lists them from position
    start on, where it lists them all: a walk that stops once mask is
    empty."""
    out = []
    i = start
    while mask:
        x = order[i]
        if mask >> x & 1:
            out.append(x)
            mask ^= 1 << x
        i += 1
    return out


def common_prefix(xs, ys) -> int:
    """The length of the longest common prefix of xs and ys, found at C
    speed (at once when they are one object)."""
    if xs is ys:
        return len(xs)
    return next(compress(count(), map(ne, xs, ys)), min(len(xs), len(ys)))


def _or(x, y):
    out = dict(x)
    for k, m in y.items():
        out[k] = out.get(k, 0) | m
    return out


def _and(x, y):
    return {k: m & y[k] for k, m in x.items() if k in y}


def _transpose(rows):
    """The masks of the inverse relation."""
    out = {}
    for a, m in rows.items():
        bit = 1 << a
        for b in bits(m):
            out[b] = out.get(b, 0) | bit
    return out


def _warshall(rows):
    """Transitive closure of adjacency bitmasks (Warshall's algorithm)."""
    rows = dict(rows)
    for k in list(rows):
        through, bit = rows[k], 1 << k
        for i, m in rows.items():
            if m & bit:
                rows[i] = m | through
    return rows


class Relation:
    """A binary relation over event ids (non-negative ints), held as one map:
    each id -> the bitmask of its predecessors (bit a of the mask of b is set
    iff a -> b).  Empty masks are not stored, so equal relations have equal
    maps.  Masks enter through `from_pred_masks` and leave through
    `pred_mask`; only this module reads the map.  The few readers that walk
    successors (`find_cycle`, a violated NCC's support paths) take the
    `inverse`.
    """

    __slots__ = ("_p",)

    def __init__(self, edges: Iterable[tuple] = ()):
        pred = {}
        for a, b in edges:
            pred[b] = pred.get(b, 0) | 1 << a
        self._p = pred

    @classmethod
    def from_pred_masks(cls, preds) -> "Relation":
        """The relation with a -> b iff bit a of preds[b] is set."""
        rel = cls.__new__(cls)
        rel._p = {b: m for b, m in preds.items() if m}
        return rel

    @property
    def edges(self):
        return frozenset((a, b) for b, m in self._p.items() for a in bits(m))

    def has(self, a, b):
        return bool(self._p.get(b, 0) >> a & 1)

    def pred_mask(self, b) -> int:
        """The predecessors of b as a bitmask."""
        return self._p.get(b, 0)

    def inverse(self) -> "Relation":
        """The relation with b -> a iff a -> b."""
        return Relation.from_pred_masks(_transpose(self._p))

    def union(self, other: "Relation") -> "Relation":
        return Relation.from_pred_masks(_or(self._p, other._p))

    def nodes(self):
        return set(self._p) | set(bits(reduce(or_, self._p.values(), 0)))

    def induced(self, ids) -> "Relation":
        """The edges with both ends in ids: one mask AND per node."""
        keep = id_mask(ids)
        return Relation.from_pred_masks(
            {b: m & keep for b, m in self._p.items() if keep >> b & 1})

    def transitive_closure(self) -> "Relation":
        """The closure, by Warshall's algorithm on the predecessor masks
        (the closure of the inverse is the inverse of the closure)."""
        return Relation.from_pred_masks(_warshall(self._p))

    def __len__(self):
        return sum(m.bit_count() for m in self._p.values())

    def __eq__(self, other):
        return isinstance(other, Relation) and self._p == other._p

    def __repr__(self):
        return "Relation(%r)" % sorted(self.edges)


def find_cycle(rel: Relation):
    """Return one cycle as a list of event ids, or None if the relation is
    acyclic.  Depth-first search from each unvisited id in ascending order,
    trying successors in ascending order, so the cycle found is fixed."""
    return _first_cycle(_transpose(rel._p))


def _first_cycle(adj):
    """The first cycle a depth-first search over the adjacency masks adj
    meets, from each unvisited id in ascending order and trying neighbours
    in ascending order; None if there is none.  An id with no neighbours
    lies on no cycle, so only the ids adj names are roots."""
    done = 0  # ids whose search has finished
    for root in sorted(adj):
        if done >> root & 1:
            continue
        path, on_path = [root], 1 << root
        untried = [adj[root]]  # per path entry
        while path:
            rest = untried[-1] & ~done
            if not rest:
                bit = 1 << path.pop()
                on_path ^= bit
                done |= bit
                untried.pop()
                continue
            low = rest & -rest
            untried[-1] = rest ^ low
            m = low.bit_length() - 1
            if on_path & low:
                return path[path.index(m):] + [m]
            path.append(m)
            on_path |= low
            untried.append(adj.get(m, 0))
    return None


def on_cycle(rel: Relation, ids) -> bool:
    """True iff some id of ids lies on a cycle of rel (reaches itself through
    rel+).

    One iterative pass of Tarjan's strongly connected components algorithm
    from the ids, over predecessor masks (a graph and its inverse have the
    same components).  Each id is entered once.  Its lowlink is a position
    on Tarjan's stack; the lowest position among the ids a mask names is
    found by bisecting the stack's prefix masks.  Edges to ids still on the
    stack are read when an id finishes, which yields the same roots as
    reading them one at a time.
    """
    adj = rel._p
    targets = id_mask(ids)
    visited = 0
    stack = []      # Tarjan's stack
    prefix = [0]    # prefix[i]: the mask of stack[:i]
    for root in bits(targets):
        if visited >> root & 1:
            continue
        visited |= 1 << root
        work = [[root, adj.get(root, 0), len(stack), len(stack)]]
        stack.append(root)      # a frame: id, untried, low, position
        prefix.append(prefix[-1] | 1 << root)
        while work:
            frame = work[-1]
            v, untried, low, pos = frame
            rest = untried & ~visited
            if rest:
                bit = rest & -rest
                frame[1] = rest ^ bit
                visited |= bit
                w = bit.bit_length() - 1
                work.append([w, adj.get(w, 0), len(stack), len(stack)])
                stack.append(w)
                prefix.append(prefix[-1] | bit)
                continue
            work.pop()
            back = adj.get(v, 0) & prefix[-1]
            if back:
                lo, hi = 0, len(stack) - 1
                while lo < hi:          # first i with stack[i] in back
                    mid = (lo + hi) // 2
                    if prefix[mid + 1] & back:
                        hi = mid
                    else:
                        lo = mid + 1
                low = min(low, lo)
            if low < pos:
                work[-1][2] = min(work[-1][2], low)
                continue
            component = prefix[-1] ^ prefix[pos]
            if component & targets and (component & component - 1
                                        or back >> v & 1):
                return True
            del stack[pos:], prefix[pos + 1:]
    return False


@dataclass(frozen=True, slots=True)
class Event:
    id: EventId
    op: OperationLabel
    rval: ReturnValue
    lvl: str
    client: str
    invoke_ts: int
    return_ts: Optional[int]


HISTORY_LINE = JsonRecord(
    {"id": int, "op": OP, "rval": RV, "lvl": LEVELS, "client": str,
     "invoke_ts": int, "return_ts": (int, None)}, op=LABEL, rval=RVAL)


class History:
    """Client-observable history H = (E, op, rval, rb, ss, lvl).

    rb is derived from invoke/return timestamps (a ->rb b iff a returned
    before b was invoked) and ss from client ids (a ->ss b iff a != b share a
    client); each is computed on first use and kept.
    """

    def __init__(self, events):
        self.events = sorted(events, key=lambda e: e.id)
        self._by_id = {e.id: e for e in self.events}
        if len(self._by_id) != len(self.events):
            raise MalformedHistory("duplicate event ids")

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def event(self, eid) -> Event:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownEvent(eid)

    def ids(self):
        return [e.id for e in self.events]

    @cached_property
    def rb(self) -> Relation:
        by_return = sorted((e for e in self.events if e.return_ts is not None),
                           key=lambda e: e.return_ts)
        ends = [e.return_ts for e in by_return]
        # returned[i]: the ids of by_return[:i]
        returned = list(accumulate((1 << e.id for e in by_return), or_,
                                   initial=0))
        return Relation.from_pred_masks(
            {b.id: returned[bisect_left(ends, b.invoke_ts)] & ~(1 << b.id)
             for b in self.events})

    @cached_property
    def ss(self) -> Relation:
        sessions = {}
        for e in self.events:
            sessions[e.client] = sessions.get(e.client, 0) | 1 << e.id
        return Relation.from_pred_masks(
            {e.id: sessions[e.client] & ~(1 << e.id) for e in self.events})

    @cached_property
    def op(self):
        """Event id -> operation label."""
        return {e.id: e.op for e in self.events}

    def level_events(self, lvl):
        return [e.id for e in self.events if e.lvl == lvl]

    def validate(self):
        """Check well-formedness; raises MalformedHistory."""
        ids = self.ids()
        if ids != list(range(len(ids))):
            raise MalformedHistory("event ids must be dense 0..N-1")
        for e in self.events:
            if (e.return_ts is None) != e.rval.is_pending():
                raise MalformedHistory(
                    "event %d: pending iff return_ts is missing" % e.id)
            if e.return_ts is not None and e.return_ts < e.invoke_ts:
                raise MalformedHistory("event %d returns before invoke" % e.id)
        # clients issue operations sequentially: intervals of one session
        # must not overlap, and a pending op must be the session's last.  A
        # session that passes in id order is in invoke order (each op is
        # invoked after the one before returns), as a simulated trace lists
        # it; only a session that fails is sorted and checked again.
        by_client = {}
        for e in self.events:
            by_client.setdefault(e.client, []).append(e)
        for client, evs in by_client.items():
            if _session_fault(evs):
                evs.sort(key=lambda e: e.invoke_ts)
                fault = _session_fault(evs)
                if fault:
                    raise MalformedHistory(fault % client)
        return True

    def subhistory(self, ids):
        """Induced sub-history over the given event ids, re-identified densely.

        Timestamps are preserved, so rb/ss restrict naturally.  Returns the
        new history and the old->new id mapping.
        """
        keep = sorted(set(ids))
        mapping = {old: new for new, old in enumerate(keep)}
        events = []
        for old in keep:
            e = self.event(old)
            events.append(Event(mapping[old], e.op, e.rval, e.lvl, e.client,
                                e.invoke_ts, e.return_ts))
        return History(events), mapping

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(HISTORY_LINE.write(e), sort_keys=True)
                         for e in self.events) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "History":
        return History([
            Event(**HISTORY_LINE.read(json.loads(line), "history line %d" % n))
            for n, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line])


def _session_fault(evs):
    """The first fault of one client's events taken in list order, as a
    message with a %s for the client, or None."""
    for x, y in zip(evs, evs[1:]):
        if x.return_ts is None:
            return "client %s issues after a pending operation"
        if x.return_ts >= y.invoke_ts:
            return "client %s has overlapping operations"
    return None


def session_order(h: History) -> Relation:
    """so = rb n ss."""
    return Relation.from_pred_masks(_and(h.rb._p, h.ss._p))


class AbstractExecution:
    """A = (H, vis, ar, par).

    ar is kept as a sequence (the total order read off left to right); par
    maps each event to its own total order sequence.  An order that is the
    ar tuple itself is not validated again, so a builder whose par(e) is
    mostly ar passes that one tuple (`tuple` of a tuple returns it).  vis
    must relate events of the history, none to itself; it is not reassigned
    after construction, because happens_before keeps the closure it derives
    from it.  That closure is computed only when asked for or when NCC
    fails: a passing NCC check decides acyclicity without it.
    """

    def __init__(self, history: History, vis: Relation, ar, par=None):
        self.history = history
        for x in vis.nodes():
            if x not in history._by_id:
                raise MalformedHistory("vis names %r, which is not an event"
                                       % (x,))
            if vis.has(x, x):
                raise MalformedHistory("vis relates event %d to itself" % x)
        self.vis = vis
        self._hb = None                # happens_before(self), once computed
        self.ar = tuple(ar)
        if sorted(self.ar) != history.ids():
            raise MalformedHistory("ar must be a permutation of the event ids")
        if par is None:
            par = {e.id: self.ar for e in history}
        self.par = {eid: tuple(seq) for eid, seq in par.items()}
        ids = history.ids()
        for eid, seq in self.par.items():
            if eid not in history._by_id:
                raise MalformedHistory("par key %r is not an event" % (eid,))
            if seq is not self.ar and sorted(seq) != ids:
                raise MalformedHistory("par(%d) must be a permutation" % eid)

    def ar_against(self, rel: Relation, ids):
        """For each event y of ids, in ar order: (y, the mask of the events
        arbitrated before y, the mask of y's predecessors in rel).  One
        running prefix mask of ar serves every event, so a check compares
        masks and decodes only the bits it reports."""
        want = set(ids)
        out = []
        before = 0
        for y in self.ar:
            if y in want:
                out.append((y, before, rel.pred_mask(y)))
            before |= 1 << y
        return out

    def restrict(self, ids):
        """Induced sub-execution over the given ids (re-identified densely).
        Each kept predecessor mask is renumbered one run of consecutive ids
        at a time (`_runs`), which drops the bits of the other ids: vis
        induced on ids."""
        sub, mapping = self.history.subhistory(ids)
        runs = _runs(mapping)
        vis = Relation.from_pred_masks(
            {new: sum((self.vis.pred_mask(old) >> lo & width) << to
                      for lo, width, to in runs)
             for old, new in mapping.items()})
        ar = [mapping[e] for e in self.ar if e in mapping]
        par = {mapping[e]: [mapping[x] for x in self.par[e] if x in mapping]
               for e in mapping}
        return AbstractExecution(sub, vis, ar, par)

    def to_json(self):
        par = {}
        for eid in sorted(self.par):
            par[str(eid)] = "ar" if self.par[eid] == self.ar else list(self.par[eid])
        return {
            "ar": list(self.ar),
            "vis": [list(e) for e in sorted(self.vis.edges)],
            "par": par,
        }

    @staticmethod
    def from_json(history: History, d) -> "AbstractExecution":
        conform(d, {"ar": [int], "vis": [[int]], "par": dict}, "witness")
        ar = tuple(d["ar"])
        par = {}
        for k, v in d["par"].items():
            par[event_key(k, "witness par")] = (
                ar if v == "ar" else conform(v, [int], "par(%s)" % k))
        try:
            vis = Relation(tuple(e) for e in d["vis"])
        except ValueError:
            raise MalformedHistory(
                "vis must be a list of [event id, event id] pairs") from None
        return AbstractExecution(history, vis, ar, par)


def _runs(ids):
    """(first id, the mask of the run's width, its new first id) for each
    run of consecutive ids in the ascending ids, which are renumbered
    0, 1, ... in turn."""
    runs = []
    for new, old in enumerate(ids):
        if runs and old == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([old, 1, new])
    return [(lo, (1 << n) - 1, to) for lo, n, to in runs]


def happens_before(a: AbstractExecution) -> Relation:
    """hb = (so u vis)+, computed on first use and kept on the execution."""
    if a._hb is None:
        a._hb = session_order(a.history).union(a.vis).transitive_closure()
    return a._hb
