"""Witness construction: visibility / arbitration / perceived arbitration.

Each protocol comes with a recipe that reads the recorded trace metadata
(delivery snapshots, total-order numbers, tentative-state snapshots) and
produces an abstract execution that the predicate checkers can then judge.
A small brute-force searcher doubles as an oracle on tiny histories and as
the unsatisfiability prover for mixed-level excerpts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .model import (AbstractExecution, History, Relation, STRONG, WEAK,
                    is_acyclic)
from .predicates import HorizonConfig, check_composite
from .rdt import RdtSpec
from .simnet import ProtocolTrace


def _insert_after_anchor(base, rb, locals_, is_anchor):
    """Interleave locals into base: each local goes after the last base
    element satisfying is_anchor that it does not return-before."""
    anchored = {None: []}
    for b in base:
        anchored[b] = []
    anchors = [b for b in base if is_anchor(b)]
    for g in sorted(locals_):
        anchor = next((b for b in reversed(anchors) if not rb.has(g, b)), None)
        anchored[anchor].append(g)
    out = list(anchored[None])
    for b in base:
        out.append(b)
        out.extend(anchored[b])
    return out


def build_nnc_witness(history: History, trace: ProtocolTrace,
                      mode="stable") -> AbstractExecution:
    """Counter witness: arbitration follows the total-order delivery numbers,
    reads slot in after the last subtraction that overlapped or preceded them."""
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

    def is_anchor(e):
        rec = recs[e]
        return (names[e] == "subtract"
                and (mode != "async" or not rec.pending))

    ar = _insert_after_anchor(base, rb, gets, is_anchor)

    pending_subs = {e for e in updaters
                    if names[e] == "subtract" and recs[e].pending}
    edges = set()
    # a subtract sees every update delivered before it in the total order,
    # and every get arbitrated before it
    earlier = []
    for _, e2 in delivered:
        if names[e2] == "subtract":
            edges.update((e, e2) for e in earlier)
        earlier.append(e2)
    earlier = []
    for e2 in ar:
        if names[e2] == "get":
            earlier.append(e2)
        elif names[e2] == "subtract":
            edges.update((e, e2) for e in earlier)
    # a get sees the updates its replica delivered and the gets that
    # returned before it; an add sees everything that returned before it
    for e2, name in names.items():
        if name == "get":
            rec = recs[e2]
            edges.update((e, e2) for e in rec.tobdel
                         if names[e] in ("add", "subtract"))
            edges.update((e, e2) for e in rec.rbdel if names[e] == "add")
            edges.update((e, e2) for e in rb.pred(e2) if names[e] == "get")
        elif name == "add":
            edges.update((e, e2) for e in rb.pred(e2))
    if mode == "async":
        edges = {(x, y) for x, y in edges
                 if x not in pending_subs and y not in pending_subs}
    return AbstractExecution(history, Relation(edges), ar)


def build_log_witness(history: History, trace: ProtocolTrace,
                      mode="stable") -> AbstractExecution:
    """Tentative-log witness: arbitration is the commit order; weak events
    perceive their own tentative snapshot first."""
    rb = history.rb
    recs = trace.events
    shared = [e for e in history.ids() if recs[e].req_dot is not None]
    locals_ = [e for e in history.ids() if recs[e].req_dot is None]
    strong = {e for e in shared if history.event(e).lvl == STRONG}
    pending_strong = {e for e in strong if recs[e].pending}

    committed = sorted((recs[e].tobno, e) for e in shared
                       if recs[e].tobno is not None)
    uncommitted_weak = sorted(
        ((history.event(e).invoke_ts, recs[e].req_dot), e)
        for e in shared if recs[e].tobno is None and e not in strong)
    base = ([e for _, e in committed] + [e for _, e in uncommitted_weak]
            + sorted(pending_strong - {e for _, e in committed}))

    def is_anchor(e):
        return not recs[e].pending

    ar = _insert_after_anchor(base, rb, locals_, is_anchor)

    snapshot = {e: set(recs[e].trace_snapshot or ()) for e in history.ids()}
    edges = set()
    for e2 in history.ids():
        for e in snapshot[e2]:
            if e != e2:
                edges.add((e, e2))          # e's request was in e2's state
    ar_pos = {e: i for i, e in enumerate(ar)}
    for g in locals_:
        for g2 in locals_:
            if g != g2 and rb.has(g, g2):
                edges.add((g, g2))
        for s in shared:
            if ar_pos[g] < ar_pos[s]:
                edges.add((g, s))
    if mode == "async":
        edges = {(x, y) for x, y in edges
                 if x not in pending_strong and y not in pending_strong}

    # weak events perceive: their snapshot in tentative order, then the rest
    # of the shared events in final order, with locals slotted in by the
    # same overlap rule
    par = {}
    shared_set = set(shared)
    shared_in_ar = [e for e in ar if e in shared_set]
    for e in history.ids():
        if e in strong:
            par[e] = tuple(ar)
            continue
        seen = dict.fromkeys(recs[e].trace_snapshot or ())
        rest = [x for x in shared_in_ar if x not in seen]
        par[e] = tuple(_insert_after_anchor(list(seen) + rest, rb, locals_,
                                            is_anchor))
    return AbstractExecution(history, Relation(edges), ar, par)


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


ORDER_INSENSITIVE_OPS = {"append", "write", "add"}


def brute_force_witness(history: History, target: str, level: str,
                        spec: RdtSpec, hz: HorizonConfig) -> BruteResult:
    """Search every arbitration / visibility combination for a witness of the
    target predicate at the given level.

    Contexts of order-insensitive updates are shrunk to the forced edges
    only, which cannot lose witnesses; return-value checks here rely only on
    the context order, so carriers of value-constrained events are screened
    independently before composition.  Intended for histories of at most six
    events.  FEC is refused: perceived arbitration is not enumerated (every
    par(e) is ar), so an FEC answer would be BEC's.
    """
    if target == "FEC":
        raise ValueError("brute force search does not enumerate perceived "
                         "arbitration, so it cannot decide FEC")
    ids = history.ids()
    if len(ids) > 6:
        raise ValueError("brute force search is limited to 6 events")
    rb = history.rb
    level_ids = set(history.level_events(level))
    tail = [e for e in level_ids if e >= hz.stabilization_index]
    pending = {e.id for e in history if e.rval.is_pending()}
    needs_sinord = target in ("Seq", "Lin")

    ars_tried = 0
    candidates = 0
    for ar in itertools.permutations(ids):
        ars_tried += 1
        ar_pos = {e: i for i, e in enumerate(ar)}
        excl_choices = ([frozenset(s) for n in range(len(pending) + 1)
                         for s in itertools.combinations(sorted(pending), n)]
                        if needs_sinord else [frozenset()])
        for excluded in excl_choices:
            forced = {e: set() for e in ids}
            for e2 in tail:
                for e in ids:
                    if e != e2 and rb.has(e, e2):
                        forced[e2].add(e)
            fixed_L = True
            if needs_sinord:
                for e2 in level_ids:
                    want = {e for e in ids
                            if ar_pos[e] < ar_pos[e2] and e not in excluded}
                    if not forced[e2] <= want:
                        fixed_L = False
                        break
                    forced[e2] = want
            if not fixed_L:
                continue
            choices = []
            ok_prefilter = True
            for e in ids:
                ev = history.event(e)
                base = frozenset(forced[e])
                constrained = (e in level_ids and e not in pending
                               and ev.op.name not in ORDER_INSENSITIVE_OPS)
                if (needs_sinord and e in level_ids) or not constrained:
                    # only level-l return values are checked, so everything
                    # else keeps the minimal forced carrier
                    options = [base]
                else:
                    others = [x for x in ids if x != e and x not in base]
                    options = []
                    for n in range(len(others) + 1):
                        for extra in itertools.combinations(others, n):
                            options.append(base | set(extra))
                # screen value-constrained events by their context order
                if constrained:
                    kept = []
                    for carrier in options:
                        labels = [history.event(x).op
                                  for x in ar if x in carrier]
                        got = _eval_ordered(spec, ev.op, carrier, labels, ar)
                        if got == ev.rval:
                            kept.append(carrier)
                    options = kept
                if not options:
                    ok_prefilter = False
                    break
                choices.append((e, options))
            if not ok_prefilter:
                continue
            for combo in itertools.product(*(opts for _, opts in choices)):
                candidates += 1
                edges = set()
                for (e, _), carrier in zip(choices, combo):
                    edges |= {(x, e) for x in carrier}
                vis = Relation(edges)
                if not is_acyclic(vis):
                    continue
                a = AbstractExecution(history, vis, ar)
                report = check_composite(a, target, level, spec, hz)
                if report.ok:
                    return BruteResult(a, ars_tried, candidates)
    return BruteResult(None, ars_tried, candidates)


def _eval_ordered(spec, op, carrier, labels, ar):
    from .rdt import OperationContext
    ops = tuple(sorted((x, lab) for x, lab in
                       zip([x for x in ar if x in carrier], labels)))
    ctx = OperationContext(frozenset(carrier), ops, Relation(),
                           tuple(x for x in ar if x in carrier))
    return spec.evaluate(op, ctx)
