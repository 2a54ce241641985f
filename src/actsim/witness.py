"""Witness construction: visibility / arbitration / perceived arbitration.

Each protocol comes with a recipe that reads the recorded trace metadata
(delivery snapshots, total-order numbers, tentative-state snapshots) and
produces an abstract execution that the predicate checkers can then judge.
A small brute-force searcher doubles as an oracle on tiny histories and as
the unsatisfiability prover for mixed-level excerpts.

The builders slot local events (reads) into the shared order after the last
anchor they do not return before.  That search bisects instead of scanning:
rb is an interval order (Fishburn, "Intransitive indifference with unequal
indifference intervals", J. Math. Psych. 1970), g ->rb b iff g returned
before b was invoked, so the anchors g does not return before are exactly
those invoked at or before g's return.  Visibility is built as one
predecessor mask per event, from snapshot bits, rb predecessor masks and
running prefix masks along an order, never as a set of pairs.

Both builders read the trace alone, whatever mode the run was simulated
in.  An event has a total-order number (`tobno`) iff some replica delivered
its total-order message.  A strong event without one was never sequenced,
so no replica saw it: it stays in ar, after every sequenced event, but out
of vis, and no local is anchored on it.  Every other event keeps the place
its commit position, snapshots and delivered masks give it, pending or
not: a pending strong event that the replicas of a majority delivered is
visible to the reads that saw it.

In the tentative log a weak event's perceived order par(e) is the snapshot
its replica answered from (the committed prefix of ar, then a few tentative
requests), then the other shared events in ar's order, with the locals
slotted in again.  A log replica holds each request once, in one of its
two logs, and each request names one event, so a snapshot never repeats an
event.  So each snapshot is split once, into its longest common prefix
with ar's shared events (c events long, found at C speed) and the rest, its
tail.  Its vis bits are the prefix mask of those c events ORed with the
tail's bits, and par(e) is the ar tuple itself when the tail is empty.
Otherwise only a window of ar moves: from the shared event at index c up
to the last one the tail pulls forward, with the locals ar places inside
it.  Outside the window the shared order is ar's, so a local whose anchor
lies outside keeps it; one whose anchor lies inside finds its new anchor
inside, since the window only permutes its shared events.  That window
alone is laid out again.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from math import inf
from operator import or_
from typing import Optional

from .model import (AbstractExecution, History, Relation, STRONG, bits,
                    common_prefix, id_mask, on_cycle)
from .predicates import HorizonConfig, check_composite
from .rdt import OperationContext, RdtSpec
from .simnet import ProtocolTrace


def _insert_after_anchor(base, invoked, locals_):
    """Interleave locals into base: each local goes after the last anchor
    invoked at or before the local returned (after the last anchor when the
    local is pending), or first when there is none.

    invoked maps each anchor of base to its invoke time; locals_ is a list
    of (id, return time), ascending by id, as `_returns` gives it.  The last
    anchor invoked by time t is found by bisecting the suffix minima of the
    anchors' invoke times, which never decrease along base.
    """
    at = list(compress(range(len(base)), map(invoked.__contains__, base)))
    lowest, m = [], inf     # lowest[k]: the earliest invoke among at[k:]
    for i in reversed(at):
        t = invoked[base[i]]
        if t < m:
            m = t
        lowest.append(m)
    lowest.reverse()
    after = {}      # base position -> the locals placed right after it
    for g, ret in locals_:
        j = bisect_right(lowest, ret)
        after.setdefault(at[j - 1] if j else -1, []).append(g)
    out, start = [], 0
    for pos in sorted(after):
        out += base[start:pos + 1]
        out += after[pos]
        start = pos + 1
    out += base[start:]
    return out


def _returns(history, ids):
    """(id, return time) for each of ids, ascending by id; a pending event
    returns at inf, after every invoke."""
    ends = ((e, history.event(e).return_ts) for e in sorted(ids))
    return [(e, inf if ret is None else ret) for e, ret in ends]


def _without(preds, drop):
    """preds with the events of drop removed from both ends."""
    keep = ~id_mask(drop)
    return {e: 0 if e in drop else m & keep for e, m in preds.items()}


def build_nnc_witness(history: History, trace: ProtocolTrace,
                      mode=None) -> AbstractExecution:
    """Counter witness: arbitration follows the total-order delivery numbers,
    reads slot in after the last delivered subtraction that overlapped or
    preceded them.  An undelivered subtract, which no replica saw, stays
    out of vis.  mode is ignored."""
    rb = history.rb
    recs = trace.events
    names = {e.id: e.op.name for e in history}
    updaters = [e for e, name in names.items() if name in ("add", "subtract")]
    gets = [e for e, name in names.items() if name == "get"]
    delivered = sorted((recs[e].tobno, e) for e in updaters
                       if recs[e].tobno is not None)
    undelivered = sorted((recs[e].req_dot, e) for e in updaters
                         if recs[e].tobno is None)
    base = [e for _, e in delivered] + [e for _, e in undelivered]
    invoked = {e: history.event(e).invoke_ts for _, e in delivered
               if names[e] == "subtract"}
    ar = _insert_after_anchor(base, invoked, _returns(history, gets))

    updater_mask = id_mask(updaters)
    add_mask = id_mask(e for e in updaters if names[e] == "add")
    get_mask = id_mask(gets)
    preds = dict.fromkeys(names, 0)     # vis as predecessor masks
    # a subtract sees every update delivered before it in the total order,
    # and every get arbitrated before it
    earlier = 0
    for _, e2 in delivered:
        if names[e2] == "subtract":
            preds[e2] |= earlier
        earlier |= 1 << e2
    earlier = 0
    for e2 in ar:
        if names[e2] == "get":
            earlier |= 1 << e2
        elif names[e2] == "subtract":
            preds[e2] |= earlier
    # a get sees the updates its replica delivered and the gets that
    # returned before it; an add sees everything that returned before it
    for e2, name in names.items():
        if name == "get":
            rec = recs[e2]
            preds[e2] |= (rec.tobdel & updater_mask | rec.rbdel & add_mask
                          | rb.pred_mask(e2) & get_mask)
        elif name == "add":
            preds[e2] |= rb.pred_mask(e2)
    unseen = {e for _, e in undelivered if names[e] == "subtract"}
    if unseen:
        preds = _without(preds, unseen)
    return AbstractExecution(history, Relation.from_pred_masks(preds), ar)


def build_log_witness(history: History, trace: ProtocolTrace,
                      mode=None, *, clock_skew=()) -> AbstractExecution:
    """Tentative-log witness: arbitration is the commit order; weak events
    perceive their own tentative snapshot first.  Uncommitted weak requests
    follow in the order the replicas sort them, by (invoke step plus the
    clock skew of the request's replica, dot); clock_skew is the world's
    `Schedule.clock_skew`.  Uncommitted strong requests, which no replica
    saw, come last, in id order, and stay out of vis.  mode is ignored."""
    rb = history.rb
    recs = trace.events
    ids = history.ids()
    shared = [e for e in ids if recs[e].req_dot is not None]
    locals_ = [e for e in ids if recs[e].req_dot is None]
    strong = {e for e in shared if history.event(e).lvl == STRONG}
    unseen = {e for e in strong if recs[e].tobno is None}

    committed = sorted((recs[e].tobno, e) for e in shared
                       if recs[e].tobno is not None)
    skew = dict(reversed(clock_skew))   # the first offset per replica wins
    uncommitted_weak = sorted(
        ((history.event(e).invoke_ts + skew.get(recs[e].req_dot[0], 0),
          recs[e].req_dot), e)
        for e in shared if recs[e].tobno is None and e not in strong)
    base = ([e for _, e in committed] + [e for _, e in uncommitted_weak]
            + sorted(unseen))
    invoked = {e: history.event(e).invoke_ts for e in shared
               if e not in unseen}
    returns = _returns(history, locals_)
    ar = tuple(_insert_after_anchor(base, invoked, returns))

    # base lists ar's shared events in ar's order: position[x] is x's index
    # in base, prefix[k] the mask of base[:k], and at[k] the index of base[k]
    # in ar (len(ar) for k == len(base))
    local_mask = id_mask(locals_)
    position = {e: k for k, e in enumerate(base)}
    prefix = list(accumulate(map((1).__lshift__, base), or_, initial=0))
    at = [i for i, e in enumerate(ar) if e in position] + [len(ar)]
    return_of = dict(returns)

    # vis as predecessor masks: e's request was in e2's state; locals see
    # the locals that returned before them; shared events see the locals
    # arbitrated before them.  Weak events perceive their snapshot in
    # tentative order, then the rest of the shared events in final order,
    # with locals slotted in by the same overlap rule: only the window of ar
    # from base[c] up to the last event the tail pulls forward differs.
    preds, par = {}, {}
    for e2 in ids:
        snapshot = recs[e2].trace_snapshot or ()
        c = common_prefix(snapshot, base)
        tail = list(snapshot[c:])
        preds[e2] = (prefix[c] | id_mask(tail)) & ~(1 << e2)
        if not tail or e2 in strong:
            par[e2] = ar
            continue
        end = 1 + max(map(position.__getitem__, tail))
        lo, hi = at[c], at[end]
        pulled = set(tail)
        window = tail + [x for x in base[c:end] if x not in pulled]
        inside = sorted(g for g in ar[lo:hi] if g not in position)
        relaid = _insert_after_anchor(window, invoked,
                                      [(g, return_of[g]) for g in inside])
        par[e2] = ar[:lo] + tuple(relaid) + ar[hi:]
    for g in locals_:
        preds[g] |= rb.pred_mask(g) & local_mask
    earlier = 0
    for e in ar:
        if local_mask >> e & 1:
            earlier |= 1 << e
        else:
            preds[e] |= earlier
    if unseen:
        preds = _without(preds, unseen)
    return AbstractExecution(history, Relation.from_pred_masks(preds), ar,
                             par)


def build_causal_witness(history: History, trace: ProtocolTrace,
                         commit_order=None) -> AbstractExecution:
    """Information-flow witness for the primary-commit log: visibility is the
    union of the recorded read-from provenance edges, arbitration follows the
    primary's commit order with unreached events appended by return time."""
    edges = set()
    for rec in trace.events.values():
        edges |= set(rec.essential_edges)
    order = list(commit_order or ())
    rest = sorted(set(history.ids()) - set(order),
                  key=lambda e: (history.event(e).return_ts or 0, e))
    ar = order + rest
    return AbstractExecution(history, Relation(edges), ar)


@dataclass(frozen=True)
class BruteResult:
    witness: Optional[AbstractExecution]
    ars_tried: int
    candidates_tried: int

    @property
    def satisfiable(self):
        return self.witness is not None


def _widen(base, pool):
    """base with each subset of pool's events outside it added, by size
    and then in itertools.combinations order over ascending ids."""
    extra = [1 << x for x in bits(pool & ~base)]
    return [base | sum(s) for n in range(len(extra) + 1)
            for s in itertools.combinations(extra, n)]


def brute_force_witness(history: History, target: str, level: str,
                        spec: RdtSpec, hz: HorizonConfig) -> BruteResult:
    """Search every arbitration / visibility combination for a witness of the
    target predicate at the given level.

    Carriers are predecessor masks.  Each event's carrier starts from the
    edges EV (and, for Seq and Lin, SinOrd) forces.  Only the return values
    of level-l events are checked, so the search screens the carriers of
    those whose operation reads the state (`RdtSpec.reads`, `screened`): a
    carrier is kept iff F gives the event's return value on it.  The counter
    and the sequence read only the context's order, so every other carrier
    can stay at its forced edges: more edges would only add constraints.
    F_MVR also reads vis between writes, so each write's carrier ranges over
    its forced edges plus every subset of the other writes, and the screen
    reads the vis those write carriers give; for a fold type that outer
    range has one element.  A candidate is dropped when a level-l event lies
    on a cycle of vis, which NCC forbids; cycles among other events are
    kept, as the checker allows them.  Intended for histories of at most six
    events.  FEC is refused: perceived arbitration is not enumerated (every
    par(e) is ar), so an FEC answer would be BEC's.
    """
    if target == "FEC":
        raise ValueError("brute force search does not enumerate perceived "
                         "arbitration, so it cannot decide FEC")
    ids = history.ids()
    if len(ids) > 6:
        raise ValueError("brute force search is limited to 6 events")
    op = history.op
    level_ids = set(history.level_events(level))
    pending = [e.id for e in history if e.rval.is_pending()]
    needs_sinord = target in ("Seq", "Lin")
    fixed = level_ids if needs_sinord else ()   # SinOrd fixes their carriers
    # EV: a level-l tail event sees every event that returned before it
    ev = {e: history.rb.pred_mask(e)
          if e in level_ids and e >= hz.stabilization_index else 0
          for e in ids}
    screened = [e for e in sorted(level_ids) if e not in pending
                and op[e].name in spec.reads]
    # the writes whose carriers range (F_MVR reads vis between them), when
    # some value is screened; a fold type has none
    writes = ([e for e in ids if op[e].name in spec.writes]
              if spec.step is None and screened else [])
    write_mask, everyone = id_mask(writes), id_mask(ids)
    excl_choices = ([id_mask(s) for n in range(len(pending) + 1)
                     for s in itertools.combinations(pending, n)]
                    if needs_sinord else [0])

    ars_tried = candidates = 0
    for ar in itertools.permutations(ids):
        ars_tried += 1
        before = dict(zip(ar, accumulate(map((1).__lshift__, ar), or_,
                                         initial=0)))
        for excluded in excl_choices:
            forced = dict(ev)
            if needs_sinord:
                # SinOrd: a level-l event sees exactly the events arbitrated
                # before it, but for the excluded pending ones
                want = {e: before[e] & ~excluded for e in level_ids}
                if any(ev[e] & ~want[e] for e in level_ids):
                    continue
                forced.update(want)
            outer = [[forced[e]] if e in fixed
                     else _widen(forced[e], write_mask ^ 1 << e)
                     for e in writes]
            for carriers in itertools.product(*outer):
                vis_w = Relation.from_pred_masks(dict(zip(writes, carriers)))
                if on_cycle(vis_w, level_ids):
                    continue
                choices = {e: [m] for e, m in forced.items()}
                choices.update((e, [m]) for e, m in zip(writes, carriers))
                for e in screened:
                    options = ([forced[e]] if e in fixed
                               else _widen(forced[e], everyone ^ 1 << e))
                    want_rval = history.event(e).rval
                    choices[e] = [m for m in options if spec.evaluate(
                        op[e], OperationContext(ar, m, vis_w, op))
                        == want_rval]
                    if not choices[e]:
                        break
                else:
                    for combo in itertools.product(*map(choices.get, ids)):
                        candidates += 1
                        vis = Relation.from_pred_masks(dict(zip(ids, combo)))
                        if on_cycle(vis, level_ids):
                            continue
                        a = AbstractExecution(history, vis, ar)
                        if check_composite(a, target, level, spec, hz).ok:
                            return BruteResult(a, ars_tried, candidates)
    return BruteResult(None, ars_tried, candidates)
