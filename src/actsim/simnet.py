"""Deterministic discrete-event scheduler with reliable broadcast (RB),
FIFO reliable broadcast, and total-order broadcast (TOB).

Runs are reproducible: the same Schedule yields byte-identical event logs.
Stable runs deliver every TOB message; asynchronous runs withhold the suffix
of TOB messages cast after a cutoff step.  Partitions defer RB deliveries
across blocks and stall TOB outside the majority block.

A TOB message's number is its position in the total order plus one: each
replica delivers in position order, so position k is first delivered
anywhere after every earlier position, and numbering first deliveries
densely gives position + 1.

Every step records the acting replica's state digest before and after it,
and `check_act_restrictions` lints the recorded trace in one pass; an invoke
is local read-only by its replica's `act` (`ActSpec.local_ro`).  The world
hashes a replica's state once per step: the digest before a step is the one
recorded after that replica's previous step.  Nor is the state rendered or
hashed afresh: each replica keeps its state's text current as the state
changes, and the container that leads the state keeps the sha256 state of
its text, fed with what a change adds rather than with the whole text (see
`protocols`).  So a step hashes only the short rest of the state, the part
of the text that changes often.  Delivered sets (one event mask per replica
for RB and one for TOB) and the total order are kept as the run goes, and
the partition timeline is read once per partition epoch, so no step rescans
the run or the schedule.  Replicas answer in event ids, so a response is
recorded as given.

A trace's JSON holds its protocol, its events keyed by id and its steps, in
the formats `TRACE_EVENT` and `TRACE_STEP` declare (see `model.JsonRecord`).
"""

from __future__ import annotations

import hashlib
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from operator import itemgetter
from typing import Optional

from .model import (LABEL, LEVELS, MASK, OP, PAIRS, RV, RVAL, SCALAR,
                    SEQUENCE, JsonRecord, OperationLabel, ReturnValue, conform,
                    event_key)
from .predicates import PredicateReport, report

RB = "RB"
TOB = "TOB"
FIFO_RB = "FIFO_RB"


class StepBudgetExceeded(RuntimeError):
    pass


class UnknownReplica(KeyError):
    pass


@dataclass(frozen=True, slots=True)
class Message:
    id: int
    kind: str
    payload: tuple
    origin: int
    cast_event: Optional[int]


@dataclass(slots=True)
class Response:
    event_id: int
    value: ReturnValue
    trace_snapshot: Optional[tuple] = None  # event ids, in trace order
    essential_edges: tuple = ()             # provenance (dep, this) event pairs


@dataclass(slots=True)
class Effects:
    casts: list = field(default_factory=list)      # (kind, payload)
    responses: list = field(default_factory=list)  # Response
    req_dot: Optional[tuple] = None                # dot minted for this invoke


@dataclass(frozen=True, slots=True)
class Invoke:
    at_step: int
    client: str
    replica: int
    op: OperationLabel
    level: str

    def __post_init__(self):
        # one string per client name, however many invokes spell it afresh
        object.__setattr__(self, "client", sys.intern(self.client))


@dataclass(frozen=True, slots=True)
class Schedule:
    seed: int = 0
    rb_delay: int = 2
    rb_delays: tuple = ()          # ((origin, dest, delay), ...) overrides
    tob_delay: int = 3
    jitter: int = 0                # extra random delay in [0, jitter]
    clock_skew: tuple = ()         # ((replica, offset), ...)
    tob_cutoff: Optional[int] = None
    partitions: tuple = ()         # ((from_step, (block, block, ...)), ...)

    def __post_init__(self):
        # the readers take the timeline in step order; entries at one step
        # keep their order, so the last of them is in force
        if self.partitions:
            object.__setattr__(self, "partitions", tuple(
                sorted(self.partitions, key=itemgetter(0))))

    def link_delay(self, origin, dest):
        for o, d, delay in self.rb_delays:
            if o == origin and d == dest:
                return delay
        return self.rb_delay

    def skew(self, replica):
        for r, off in self.clock_skew:
            if r == replica:
                return off
        return 0

    def blocks_at(self, step):
        current = None
        for from_step, blocks in self.partitions:
            if step >= from_step:
                current = blocks
        return current


@dataclass(slots=True)
class StepRecord:
    step: int
    replica: Optional[int]
    kind: str                 # invoke | deliver | internal
    detail: dict
    hash_before: str
    hash_after: str
    casts: tuple = ()         # (msg_id, kind)
    responses: tuple = ()     # event ids
    passive_after: bool = True


TRACE_STEP = JsonRecord({
    "step": int, "replica": (int, None),
    "kind": frozenset(("invoke", "deliver", "internal")), "detail": dict,
    "hash_before": str, "hash_after": str, "casts": [[SCALAR]],
    "responses": [int], "passive_after": bool},
    casts=PAIRS, responses=SEQUENCE)


@dataclass(slots=True)
class EventRecord:
    event_id: int
    replica: int
    op: OperationLabel
    level: str
    local_ro: bool
    client: str
    invoke_step: int
    req_dot: Optional[tuple] = None
    return_step: Optional[int] = None
    rval: Optional[ReturnValue] = None
    tobno: Optional[int] = None
    rbdel: int = 0      # mask of the events whose RB message was delivered
    tobdel: int = 0     # mask of the events whose TOB message was delivered
    trace_snapshot: Optional[tuple] = None   # event ids, in state-object trace order
    essential_edges: tuple = ()

    @property
    def pending(self):
        return self.return_step is None


TRACE_EVENT = JsonRecord({
    "replica": int, "op": OP, "level": LEVELS, "local_ro": bool,
    "client": str, "invoke_step": int, "req_dot": ([int], None),
    "return_step": (int, None), "rval": (RV, None),
    "tobno": (int, None), "rbdel": [int], "tobdel": [int],
    "trace_snapshot": ([int], None), "essential_edges": [[int]]},
    op=LABEL, req_dot=SEQUENCE, rval=RVAL, rbdel=MASK,
    tobdel=MASK, trace_snapshot=SEQUENCE, essential_edges=PAIRS)


@dataclass
class ProtocolTrace:
    """Per-event and per-step metadata captured during a simulation."""

    protocol: str
    events: dict = field(default_factory=dict)   # event id -> EventRecord
    steps: list = field(default_factory=list)    # StepRecord

    def to_json(self):
        return {"protocol": self.protocol,
                "events": {str(eid): TRACE_EVENT.write(r)
                           for eid, r in sorted(self.events.items())},
                "steps": list(map(TRACE_STEP.write, self.steps))}

    @staticmethod
    def from_json(d):
        conform(d, {"protocol": str, "events": dict, "steps": list}, "trace")
        trace = ProtocolTrace(protocol=d["protocol"])
        for k, r in d["events"].items():
            eid = event_key(k, "trace event")
            trace.events[eid] = EventRecord(
                eid, **TRACE_EVENT.read(r, "trace event %s" % k))
        for i, s in enumerate(d["steps"]):
            step = StepRecord(**TRACE_STEP.read(s, "trace step %d" % i))
            conform(list(step.detail.values()), [SCALAR],
                    "detail of trace step %d" % i)
            trace.steps.append(step)
        return trace

    def digest(self):
        h = hashlib.sha256()
        for rec in self.steps:
            h.update(repr((rec.step, rec.replica, rec.kind, sorted(rec.detail.items()),
                           rec.hash_before, rec.hash_after, rec.casts,
                           rec.responses)).encode())
        return h.hexdigest()


# scheduler priority classes: a replica drains internal work before new
# deliveries reach it, and scripted invokes fire only into passive worlds
CLASS_INTERNAL = 0
CLASS_DELIVER = 1
CLASS_INVOKE = 2


class SimWorld:
    """Runs replicas against a schedule and a scripted workload, recording
    a ProtocolTrace.

    Its heap holds callable actions, each a bound method and its arguments
    under the key (ready, class, replica, push sequence); `step` pops and
    calls them until one records a step.

    A replica's state changes only inside its on_invoke, on_deliver and
    on_internal handlers, and only the world calls them.  So the digest
    recorded after a replica's step is still its digest when its next step
    begins, and the world reuses it as that step's hash_before; it hashes
    the state afresh only before a replica's first step.  For the same
    reason a replica becomes busy with internal work only in a step, and
    its pending internal work ends only in its own on_internal: the world
    schedules that work when it records a step that leaves the replica
    busy, and once at construction for a replica busy from the start.
    Code that changes a replica's state outside those handlers breaks the
    recorded hashes and the scheduling.

    Per world, link delays and clock skews are resolved once; per partition
    epoch (the steps between two changes of the partition timeline), the
    blocks, the majority block and the epoch's end are.
    """

    def __init__(self, replicas, schedule: Schedule, workload,
                 mode="stable", protocol="unknown"):
        self.replicas = list(replicas)
        self.schedule = schedule
        self.mode = mode
        self.now = 0
        self.rng = random.Random(schedule.seed)
        self.trace = ProtocolTrace(protocol=protocol)
        self._heap = []
        self._seq = 0
        self.messages = {}
        self._tob_order = []           # position -> TOB msg id
        n = len(self.replicas)
        self.tob_pointer = [0] * n
        # per replica: the mask of events whose RB / TOB message it delivered
        self._rbdel = [0] * n
        self._tobdel = [0] * n
        self._digest = [None] * n      # last hash_after
        # (msg id, dest) for a message never delivered at dest, and
        # (msg id, None) for a TOB message never sequenced
        self.withheld = set()
        self._delay = [[schedule.link_delay(o, d) for d in range(n)]
                       for o in range(n)]
        self._skew = [schedule.skew(r) for r in range(n)]
        # jitter is drawn as randrange(jitter + 1), which is the draw
        # randint(0, jitter) makes; 0 means no jitter
        self._jitter_bound = schedule.jitter + 1 if schedule.jitter > 0 else 0
        self._randrange = self.rng.randrange
        self._enter_epoch()
        self._fifo_last_ready = {}
        self._pending_local = []
        self._internal_scheduled = [False] * n
        self._client_queue = {}
        self._waiting = set()          # clients awaiting a response
        for inv in workload:
            self._client_queue.setdefault(inv.client, []).append(inv)
        for q in self._client_queue.values():
            q.sort(key=lambda i: i.at_step)
        for client, q in sorted(self._client_queue.items()):
            self._push(q[0].at_step, CLASS_INVOKE, q[0].replica,
                       self._do_invoke, client)
        for rid, rep in enumerate(self.replicas):
            if rep.has_internal():
                self._schedule_internal(rid)

    # -- scheduling ----------------------------------------------------

    def _push(self, ready, klass, replica, act, *args):
        heappush(self._heap, (ready, klass, replica, self._seq, act, args))
        self._seq += 1

    def clock(self, rid):
        return self.now + self._skew[rid]

    def _enter_epoch(self):
        """Read the partition timeline at now: the block each replica is in
        (None when no block holds it or no partition is in force), the
        majority block, and the step at which any of these may change next
        (inf when none will)."""
        schedule, now = self.schedule, self.now
        blocks = schedule.blocks_at(now)
        self._epoch_end = min((f for f, _ in schedule.partitions if f > now),
                              default=inf)
        n = len(self.replicas)
        if blocks is None:
            self._block_of, self._majority = [None] * n, None
            return
        self._block_of = [next((b for b in blocks if r in b), None)
                          for r in range(n)]
        self._majority = set(max(blocks, key=lambda b: (len(b), -min(b))))

    def _schedule_internal(self, rid):
        self._internal_scheduled[rid] = True
        self._push(self.now, CLASS_INTERNAL, rid, self._do_internal, rid)

    # -- casting -------------------------------------------------------

    def _cast(self, kind, payload, origin, event):
        mid = len(self.messages)
        msg = Message(mid, kind, tuple(payload), origin, event)
        self.messages[mid] = msg
        if kind == TOB:
            cutoff = self.schedule.tob_cutoff
            if self.mode == "async" and cutoff is not None and self.now > cutoff:
                self.withheld.add((mid, None))
                return msg
            self._sequence_tob(mid)
        else:
            delays, jitter = self._delay[origin], self._jitter_bound
            for dest in range(len(self.replicas)):
                if dest == origin:
                    continue  # delivered to the caster synchronously below
                ready = self.now + delays[dest]
                if jitter:
                    ready += self._randrange(jitter)
                if kind == FIFO_RB:
                    key = (origin, dest)
                    ready = max(ready, self._fifo_last_ready.get(key, -1) + 1)
                    self._fifo_last_ready[key] = ready
                self._push(ready, CLASS_DELIVER, dest, self._do_deliver, mid, dest)
            self._pending_local.append((msg, origin))
        return msg

    def _sequence_tob(self, mid):
        """Hand a message to the ordering service.  A replica cut off from
        the majority cannot get its message sequenced until the partition
        timeline changes.  No replica acts, so this returns False."""
        origin = self.messages[mid].origin
        majority = self._majority
        if majority is not None and origin not in majority:
            return self._after_partition((mid, None), origin,
                                         self._sequence_tob, mid)
        idx = len(self._tob_order)
        self._tob_order.append(mid)
        ready, jitter = self.now + self.schedule.tob_delay, self._jitter_bound
        for dest in range(len(self.replicas)):
            self._push(ready + self._randrange(jitter) if jitter else ready,
                       CLASS_DELIVER, dest, self._do_tob, idx, dest)
        return False

    def _flush_local(self):
        """Apply queued same-step local deliveries, after the causing record:
        a replica's own RB message reaches it in the step it casts."""
        while self._pending_local:
            msg, dest = self._pending_local.pop(0)
            self._deliver(dest, msg,
                          {"msg": msg.id, "kind": msg.kind, "local": True})

    def _deliver(self, dest, msg, detail):
        """Deliver msg at dest and record the step with detail."""
        before = self._digest[dest] or self.replicas[dest].state_digest()
        effects = self.replicas[dest].on_deliver(msg)
        if msg.cast_event is not None:
            if msg.kind == RB:
                self._rbdel[dest] |= 1 << msg.cast_event
            elif msg.kind == TOB:
                self._tobdel[dest] |= 1 << msg.cast_event
        if effects.casts or effects.responses:
            casts, resps = self._apply_effects(dest, effects)
        else:
            casts = resps = ()
        self._record(dest, "deliver", detail, before, casts, resps)
        return True

    # -- effects and trace ---------------------------------------------

    def _apply_effects(self, rid, effects: Effects, event=None):
        """Cast effects' messages, sent by event if any; record responses."""
        cast_ids = []
        for kind, payload in effects.casts:
            msg = self._cast(kind, payload, rid, event)
            cast_ids.append((msg.id, kind))
        resp_ids = []
        for resp in effects.responses:
            rec = self.trace.events[resp.event_id]
            if rec.return_step is not None:
                # a re-execution produced a duplicate client response; the
                # client only sees the first one
                continue
            rec.return_step = self.now
            rec.rval = resp.value
            rec.rbdel, rec.tobdel = self._rbdel[rid], self._tobdel[rid]
            rec.trace_snapshot = resp.trace_snapshot
            rec.essential_edges = resp.essential_edges
            resp_ids.append(resp.event_id)
            if rec.client in self._waiting:
                self._waiting.discard(rec.client)
                self._schedule_next_invoke(rec.client)
        return tuple(cast_ids), tuple(resp_ids)

    def _schedule_next_invoke(self, client):
        q = self._client_queue.get(client)
        if q:
            nxt = q[0]
            self._push(max(nxt.at_step, self.now + 1), CLASS_INVOKE,
                       nxt.replica, self._do_invoke, client)

    def _record(self, rid, kind, detail, before, casts, responses):
        """Record rid's step, and schedule its internal work if the step
        left it busy."""
        rep = self.replicas[rid]
        after = self._digest[rid] = rep.state_digest()
        busy = rep.has_internal()
        self.trace.steps.append(StepRecord(
            self.now, rid, kind, detail, before, after, casts, responses,
            not busy))
        if busy and not self._internal_scheduled[rid]:
            self._schedule_internal(rid)

    # -- the step loop -------------------------------------------------

    def step(self, step_limit=None):
        """Record one step, and the local deliveries it queued, and return
        True, popping deferred and dropped actions on the way; return False,
        recording nothing, when no action is left or, with a step_limit, the
        next is ready only after it."""
        heap = self._heap
        if step_limit is not None and heap and heap[0][0] > step_limit:
            return False
        while heap:
            ready, _, _, _, act, args = heappop(heap)
            now = self.now + 1
            if ready > now:
                now = ready
            self.now = now
            if now >= self._epoch_end:
                self._enter_epoch()
            if act(*args):
                if self._pending_local:
                    self._flush_local()
                return True
        return False

    def _do_invoke(self, client):
        inv = self._client_queue[client].pop(0)
        rid = inv.replica
        if rid >= len(self.replicas):
            raise UnknownReplica(rid)
        rep = self.replicas[rid]
        eid = len(self.trace.events)
        act = rep.act       # None for a replica that names no ActSpec
        rec = EventRecord(eid, rid, inv.op, inv.level,
                          act is not None and act.local_ro(inv.op, inv.level),
                          client, self.now)
        self.trace.events[eid] = rec
        before = self._digest[rid] or rep.state_digest()
        effects = rep.on_invoke(eid, inv.op, inv.level, self.clock(rid))
        rec.req_dot = effects.req_dot
        casts, resps = self._apply_effects(rid, effects, eid)
        self._record(rid, "invoke", {"event": eid, "op": str(inv.op),
                                     "level": inv.level, "ro": rec.local_ro},
                     before, casts, resps)
        if rec.pending:
            self._waiting.add(client)
        else:
            self._schedule_next_invoke(client)
        return True

    def _do_deliver(self, mid, dest):
        msg = self.messages[mid]
        block = self._block_of[msg.origin]
        if block is not None and dest not in block:
            return self._after_partition((mid, dest), dest,
                                         self._do_deliver, mid, dest)
        return self._deliver(dest, msg, {"msg": mid, "kind": msg.kind})

    def _do_tob(self, idx, dest):
        mid = self._tob_order[idx]
        pointer = self.tob_pointer[dest]
        if idx != pointer:
            withheld = self.withheld
            if withheld and (self._tob_order[pointer], dest) in withheld:
                # the delivery dest waits for is withheld, so this one is
                withheld.add((mid, dest))
            else:
                # out of order: retry after the earlier deliveries land
                heappush(self._heap, (self.now + 1, CLASS_DELIVER, dest,
                                      self._seq, self._do_tob, (idx, dest)))
                self._seq += 1
            return False
        majority = self._majority
        if majority is not None and dest not in majority:
            return self._after_partition((mid, dest), dest,
                                         self._do_tob, idx, dest)
        msg = self.messages[mid]
        if msg.cast_event is not None:
            # an event's number is that of its highest delivered position
            rec = self.trace.events[msg.cast_event]
            rec.tobno = max(rec.tobno or 0, idx + 1)
        self.tob_pointer[dest] = idx + 1
        return self._deliver(dest, msg, {"msg": mid, "kind": TOB,
                                         "tobno": idx + 1})

    def _after_partition(self, key, dest, *action):
        """Push action at the next partition change, or else add key to
        withheld; no replica acts, so this returns False."""
        if self._epoch_end == inf:
            self.withheld.add(key)
        else:
            self._push(self._epoch_end, CLASS_DELIVER, dest, *action)
        return False

    def _do_internal(self, rid):
        self._internal_scheduled[rid] = False
        rep = self.replicas[rid]
        if not rep.has_internal():
            return False
        before = self._digest[rid] or rep.state_digest()
        effects = rep.on_internal()
        casts, resps = self._apply_effects(rid, effects)
        self._record(rid, "internal", {}, before, casts, resps)
        return True

    def run_to_quiescence(self, max_steps=100000):
        return self.run_until(None, max_steps)

    def run_until(self, step_limit, max_steps=100000):
        """Record steps until no action is left or, with a step_limit, the
        next action is ready only after step_limit."""
        steps = 0
        while self.step(step_limit):
            steps += 1
            if steps > max_steps:
                raise StepBudgetExceeded(steps)
        return self

    def inject(self, client, replica, op, level):
        """Add a workload item after construction (e.g. tail probes), ready
        at the next step.  It runs after the client's queued invokes and
        once the client's pending invoke, if any, has answered."""
        q = self._client_queue.setdefault(client, [])
        if not q and client not in self._waiting:
            self._push(self.now + 1, CLASS_INVOKE, replica,
                       self._do_invoke, client)
        q.append(Invoke(self.now + 1, client, replica, op, level))


# -- the five implementation-restriction lints --------------------------

STRONG_BUDGET = 200  # rule 5: steps from the last TOB delivery to the answer


def check_act_restrictions(trace: ProtocolTrace) -> PredicateReport:
    """Check the five replica-implementation rules on a recorded trace, in
    one walk along its steps and one along its events.

      1. invisible_reads: a weak read-only invoke leaves the state
         untouched and answers in the invoke step itself.
      2. input_driven_processing: internal steps happen only between an
         external stimulus (an invoke or a delivery) and the next passive
         state.
      3. op_driven_messages: a step casts only after some invoke of an
         operation that is not read-only.
      4. highly_available_weak: a weak operation answers with no delivery
         at its replica after its invoke step.
      5. non_blocking_strong: a strong operation answers within
         STRONG_BUDGET steps of the last TOB delivery, at its own replica,
         of the messages its invoke cast.
    """
    bad1, bad2, bad3 = [], [], []
    active = {}             # replica -> between a stimulus and passivity
    saw_update_invoke = False
    deliver_steps = {}      # replica -> steps of its deliveries
    tob_casts = {}          # event id -> TOB msg ids its invoke cast
    tob_delivered = {}      # (msg, replica) -> step
    for rec in trace.steps:
        kind, rid, detail = rec.kind, rec.replica, rec.detail
        if kind == "invoke":
            active[rid] = True
            if not detail.get("ro"):
                saw_update_invoke = True
            elif detail.get("level") == "weak":
                eid = detail["event"]
                if rec.hash_before != rec.hash_after:
                    bad1.append((eid, "state changed"))
                if eid not in rec.responses:
                    bad1.append((eid, "no response in the invoke step"))
            eid = detail.get("event")
            if eid is not None:
                for mid, cast_kind in rec.casts:
                    if cast_kind == TOB:
                        tob_casts.setdefault(eid, []).append(mid)
        elif kind == "deliver":
            active[rid] = True
            deliver_steps.setdefault(rid, []).append(rec.step)
            if detail.get("kind") == TOB:
                tob_delivered[detail["msg"], rid] = rec.step
        elif kind == "internal" and not active.get(rid, False):
            bad2.append((rec.step, rid))
        if rec.casts and not saw_update_invoke:
            bad3.append((rec.step, rid))
        if rec.passive_after:
            active[rid] = False
    for steps in deliver_steps.values():
        steps.sort()

    bad4, bad5 = [], []
    for eid, ev in sorted(trace.events.items()):
        if ev.level == "weak":
            if ev.return_step is None:
                bad4.append((eid, "weak operation never returned"))
                continue
            steps = deliver_steps.get(ev.replica, ())
            i = bisect_right(steps, ev.invoke_step)
            if i < len(steps) and steps[i] <= ev.return_step:
                bad4.append((eid, "awaited a delivery at step %d" % steps[i]))
        elif ev.level == "strong" and eid in tob_casts:
            steps = [tob_delivered.get((m, ev.replica))
                     for m in tob_casts[eid]]
            if any(s is None for s in steps):
                continue  # undelivered: the operation may legitimately pend
            deadline = max(steps) + STRONG_BUDGET
            if ev.return_step is None or ev.return_step > deadline:
                bad5.append((eid, "no response by step %d" % deadline))

    subs = [report(name, None, bad) for name, bad in (
        ("invisible_reads", bad1), ("input_driven_processing", bad2),
        ("op_driven_messages", bad3), ("highly_available_weak", bad4),
        ("non_blocking_strong", bad5))]
    return report("act_restrictions", None,
                  [s.predicate for s in subs if not s.ok], subs)
