"""Reference implementations the checker, the witness builders and the
replicas are compared with: the pair-set witness builders with their linear
anchor scan, the closure-based NCC check, the set-based SinOrd check and the
pair-loop RT and SessArb checks, as they were before the builders moved to
bisection and masks, NCC to one strongly connected components pass and the
arbitration checks to one walk along ar; the return-value and CPar checks on
materialised contexts, as they were before they read each context as an ar
prefix fold plus a short tail, and the multi-value register's F on a
materialised context, as it was before it answered from masks; an
execution's restriction with vis decoded into pairs, as it was before it
renumbered masks; each replica's state rendered from scratch, as it was
before replicas kept their state text current, and its digest hashed from
the whole state's text, as it was before replicas kept the hash of their
leading text; a tentative-log replica's answer read off its whole log, as it
was before the replica kept its committed dots and text; the simulator's
partition reads scanning the timeline, as they were before the world cached
them per partition epoch; and the implementation-rule lints in five walks
along the trace, as they were before they took one."""

import hashlib
from bisect import bisect_right
from functools import reduce
from math import inf

from actsim.model import (OK, STRONG, AbstractExecution, Relation, bits,
                          find_cycle, rv_set, rv_str, session_order)
from actsim.predicates import (HOLDS, VACUOUS, VIOLATED, PredicateReport,
                               _path_nodes, _tail_events, report)
from actsim.protocols import (ClassicLogReplica, MixedLogReplica, NncReplica,
                              RedBlueReplica)
from actsim.rdt import BadOperation
from actsim.simnet import STRONG_BUDGET, TOB


def insert_after_anchor(base, rb, locals_, is_anchor):
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


def build_nnc_witness(history, trace):
    """An undelivered subtract, which no replica saw, is neither an anchor
    nor in vis."""
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

    unseen = {e for e in updaters
              if names[e] == "subtract" and recs[e].tobno is None}

    def is_anchor(e):
        return names[e] == "subtract" and e not in unseen

    ar = insert_after_anchor(base, rb, gets, is_anchor)
    edges = set()
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
    for e2, name in names.items():
        if name == "get":
            rec = recs[e2]
            edges.update((e, e2) for e in bits(rec.tobdel)
                         if names[e] in ("add", "subtract"))
            edges.update((e, e2) for e in bits(rec.rbdel)
                         if names[e] == "add")
            edges.update((e, e2) for e in bits(rb.pred_mask(e2))
                         if names[e] == "get")
        elif name == "add":
            edges.update((e, e2) for e in bits(rb.pred_mask(e2)))
    edges = {(x, y) for x, y in edges if x not in unseen and y not in unseen}
    return AbstractExecution(history, Relation(edges), ar)


def build_log_witness(history, trace, *, clock_skew=()):
    """An unsequenced strong event, which no replica saw, is neither an
    anchor nor in vis."""
    rb = history.rb
    recs = trace.events
    shared = [e for e in history.ids() if recs[e].req_dot is not None]
    locals_ = [e for e in history.ids() if recs[e].req_dot is None]
    strong = {e for e in shared if history.event(e).lvl == STRONG}
    unseen = {e for e in strong if recs[e].tobno is None}
    committed = sorted((recs[e].tobno, e) for e in shared
                       if recs[e].tobno is not None)

    def timestamp(e):
        """The clock of the replica that issued e, at e's invoke."""
        origin = recs[e].req_dot[0]
        offsets = [off for r, off in clock_skew if r == origin]
        return history.event(e).invoke_ts + (offsets[0] if offsets else 0)

    uncommitted_weak = sorted(
        ((timestamp(e), recs[e].req_dot), e)
        for e in shared if recs[e].tobno is None and e not in strong)
    base = ([e for _, e in committed] + [e for _, e in uncommitted_weak]
            + sorted(unseen))

    def is_anchor(e):
        return e not in unseen

    ar = insert_after_anchor(base, rb, locals_, is_anchor)
    snapshot = {e: set(recs[e].trace_snapshot or ()) for e in history.ids()}
    edges = set()
    for e2 in history.ids():
        for e in snapshot[e2]:
            if e != e2:
                edges.add((e, e2))
    ar_pos = {e: i for i, e in enumerate(ar)}
    for g in locals_:
        for g2 in locals_:
            if g != g2 and rb.has(g, g2):
                edges.add((g, g2))
        for s in shared:
            if ar_pos[g] < ar_pos[s]:
                edges.add((g, s))
    edges = {(x, y) for x, y in edges if x not in unseen and y not in unseen}
    par = {}
    shared_set = set(shared)
    shared_in_ar = [e for e in ar if e in shared_set]
    for e in history.ids():
        if e in strong:
            par[e] = tuple(ar)
            continue
        seen = dict.fromkeys(recs[e].trace_snapshot or ())
        rest = [x for x in shared_in_ar if x not in seen]
        par[e] = tuple(insert_after_anchor(list(seen) + rest, rb, locals_,
                                           is_anchor))
    return AbstractExecution(history, Relation(edges), ar, par)


def restrict(a, ids):
    """The induced sub-execution, its vis decoded into renumbered pairs."""
    sub, mapping = a.history.subhistory(ids)
    vis = Relation((mapping[x], mapping[y]) for x, y in a.vis.edges
                   if x in mapping and y in mapping)
    ar = [mapping[e] for e in a.ar if e in mapping]
    par = {mapping[e]: [mapping[x] for x in a.par[e] if x in mapping]
           for e in mapping}
    return AbstractExecution(sub, vis, ar, par)


def check_NCC(a, l):
    """acyclic(hb n (L x L)), deciding by the closure hb itself."""
    base = session_order(a.history).union(a.vis)
    hb = base.transitive_closure()
    cycle = find_cycle(hb.induced(a.history.level_events(l)))
    if cycle is None:
        return PredicateReport("NCC", l, HOLDS)
    support = set(cycle)
    for x, y in zip(cycle, cycle[1:]):
        support |= _path_nodes(base.inverse(), x, y)
    return PredicateReport("NCC", l, VIOLATED,
                           (tuple(cycle[:-1]), tuple(sorted(support))))


def check_SinOrd(a, l):
    """SinOrd with one set of ar predecessors per level-l event."""
    L = set(a.history.level_events(l))
    pending = {e.id for e in a.history if e.rval.is_pending()}
    invisible, unordered, overlap = [], [], []
    for i, y in enumerate(a.ar):
        if y in L:
            ar_y, vis_y = set(a.ar[:i]), set(bits(a.vis.pred_mask(y)))
            invisible += [(x, y) for x in ar_y - vis_y]
            unordered += [(x, y) for x in vis_y - ar_y]
            overlap += [(x, y) for x in vis_y & ar_y & pending]
    excluded = {x for x, _ in invisible if x in pending}
    bad = [(x, y, "completed event arbitrated before but invisible")
           for x, y in sorted(invisible) if x not in pending]
    bad += [(x, y, "visible but arbitrated after")
            for x, y in sorted(unordered)]
    bad += [(x, y, "pending event both excluded and visible")
            for x, y in sorted(overlap) if x in excluded]
    if bad:
        return PredicateReport("SinOrd", l, VIOLATED, tuple(bad))
    return PredicateReport("SinOrd", l, HOLDS,
                           (tuple(sorted(excluded)),) if excluded else ())


def ar_before(a, x, y):
    return a.ar.index(x) < a.ar.index(y)


def check_SessArb(a, l):
    """SessArb testing every so edge into a level-l event on its own."""
    L = set(a.history.level_events(l))
    if not L:
        return PredicateReport("SessArb", l, VACUOUS)
    succ = session_order(a.history).inverse()   # x's successors: succ's preds
    bad = [(x, y) for x in a.history.ids()
           for y in sorted(set(bits(succ.pred_mask(x))) & L)
           if not ar_before(a, x, y)]
    if bad:
        return PredicateReport("SessArb", l, VIOLATED, tuple(bad))
    return PredicateReport("SessArb", l, HOLDS)


def check_RT(a, l):
    """RT testing every rb edge between level-l events on its own."""
    L = set(a.history.level_events(l))
    if not L:
        return PredicateReport("RT", l, VACUOUS)
    succ = a.history.rb.induced(L).inverse()
    bad = [(x, y) for x in sorted(L) for y in bits(succ.pred_mask(x))
           if not ar_before(a, x, y)]
    if bad:
        return PredicateReport("RT", l, VIOLATED, tuple(bad))
    return PredicateReport("RT", l, HOLDS)


def preds_in(rel, b, seq):
    """The predecessors of b in the order seq lists them."""
    flags = bin(rel.pred_mask(b))[:1:-1]   # flags[a] == "1" iff a -> b
    n = len(flags)
    return tuple(x for x in seq if x < n and flags[x] == "1")


def eval_fmvr(op, order, labels, vis):
    """F_MVR on the context whose carrier is order, with labels[i] the label
    of order[i]: a read returns the writes no other carrier write sees."""
    if op.name == "write":
        return OK
    if op.name == "read":
        writes = [(i, lab) for i, lab in zip(order, labels)
                  if lab.name == "write"]
        return rv_set(lab.args[0] for w, lab in writes
                      if not any(vis.has(w, w2) for w2, _ in writes
                                 if w2 != w))
    raise BadOperation(op.name)


def evaluate(spec, op, order, labels, vis):
    """F(op) on a materialised context: a fold type folds labels."""
    if spec.step is None:
        return eval_fmvr(spec.known(op), order, labels, vis)
    return spec.answer(spec.known(op), reduce(spec.step, labels, spec.init))


def _check_values(name, a, l, spec, order_of):
    """rval(e) = F(op(e), context(A,e)), each context materialised from
    vis^-1(e) in the order order_of(a, e) and folded from scratch."""
    bad = []
    for e in a.history:
        if e.lvl != l:
            continue
        if e.rval.is_pending():
            bad.append((e.id, "pending"))
            continue
        order = preds_in(a.vis, e.id, order_of(a, e.id))
        got = evaluate(spec, e.op, order,
                       tuple(map(a.history.op.__getitem__, order)), a.vis)
        if got != e.rval:
            bad.append((e.id, "expected %r got %r" % (e.rval, got)))
    if bad:
        return PredicateReport(name, l, VIOLATED, tuple(bad))
    return PredicateReport(name, l, HOLDS)


def check_RVal(a, l, spec):
    return _check_values("RVal", a, l, spec, lambda a, e: a.ar)


def check_FRVal(a, l, spec):
    return _check_values("FRVal", a, l, spec, lambda a, e: a.par[e])


def check_CPar(a, l, hz):
    """CPar comparing each tail event's whole context along ar and par(e2)."""
    bad = []
    for e2 in _tail_events(a, l, hz):
        by_ar = preds_in(a.vis, e2, a.ar)
        by_par = preds_in(a.vis, e2, a.par[e2])
        bad.extend((x, e2) for x, y in zip(by_ar, by_par) if x != y)
    if bad:
        return PredicateReport("CPar", l, VIOLATED, tuple(sorted(bad)))
    return PredicateReport("CPar", l, HOLDS)


# -- replica states, rendered from scratch -------------------------------

def nnc_state(r):
    return (sorted(r.known_adds.items()), r.committed_add, r.committed_sub,
            sorted(r.awaiting))


def nnc_converged(r):
    return (sorted(r.known_adds.items()), r.committed_add, r.committed_sub)


def mixed_log_state(r):
    return ([x.dot for x in r.committed], [x.dot for x in r.tentative],
            sorted(r.awaiting))


def classic_log_state(r):
    return ([x.dot for x in r.committed], [x.dot for x in r.tentative],
            [x.dot for x in r.commit_queue])


def log_converged(r):
    return ([x.dot for x in r.committed], [x.dot for x in r.tentative])


def redblue_state(r):
    return (r.lc, sorted(r.shadows.items()), sorted(r.awaiting))


def redblue_converged(r):
    return sorted(r.shadows.items())


# replica class -> its (_state_repr, _converged_repr)
STATE_REPRS = {
    NncReplica: (nnc_state, nnc_converged),
    MixedLogReplica: (mixed_log_state, log_converged),
    ClassicLogReplica: (classic_log_state, log_converged),
    RedBlueReplica: (redblue_state, redblue_converged),
}


def mixed_log_answer(op, reqs):
    """(snapshot, value) a MixedLogReplica answers op with from the requests
    reqs, committed then tentative: the events that issued reqs, and OK for
    an append or the concatenated appends of reqs for a read."""
    snapshot = tuple(r.event for r in reqs)
    if op.name == "append":
        return snapshot, OK
    return snapshot, rv_str("".join(r.op.args[0] for r in reqs
                                    if r.op.name == "append"))


def state_digest(replica):
    """sha256 over the repr of the replica's whole state."""
    return hashlib.sha256(
        repr(replica._state_repr()).encode()).hexdigest()[:16]


# -- the simulator's partition reads, scanning the timeline --------------

def blocks_at(timeline, now):
    """The blocks of the last entry of the timeline, taken in step order
    (entries at one step in list order), whose step has come by now; None
    before the first."""
    current = None
    for from_step, blocks in sorted(timeline, key=lambda entry: entry[0]):
        if now >= from_step:
            current = blocks
    return current


def same_block(timeline, now, a, b):
    blocks = blocks_at(timeline, now)
    if blocks is None:
        return True
    for block in blocks:
        if a in block:
            return b in block
    return True


def next_partition_change(timeline, now):
    """The earliest step after now that the timeline names, or inf."""
    later = sorted(from_step for from_step, _ in timeline if from_step > now)
    return later[0] if later else inf


def majority_block(timeline, now):
    blocks = blocks_at(timeline, now)
    if blocks is None:
        return None
    return set(max(blocks, key=lambda b: (len(b), -min(b))))


# -- the implementation-rule lints, one walk per rule --------------------

def check_act_restrictions(trace):
    subs = []

    bad = []
    for rec in trace.steps:
        if rec.kind != "invoke" or not rec.detail.get("ro"):
            continue
        if rec.detail.get("level") != "weak":
            continue
        eid = rec.detail["event"]
        if rec.hash_before != rec.hash_after:
            bad.append((eid, "state changed"))
        if eid not in rec.responses:
            bad.append((eid, "no response in the invoke step"))
    subs.append(report("invisible_reads", None, bad))

    bad = []
    active = {}
    for rec in trace.steps:
        rid = rec.replica
        if rec.kind in ("invoke", "deliver"):
            active[rid] = True
        elif rec.kind == "internal" and not active.get(rid, False):
            bad.append((rec.step, rid))
        if rec.passive_after:
            active[rid] = False
    subs.append(report("input_driven_processing", None, bad))

    bad = []
    saw_update_invoke = False
    for rec in trace.steps:
        if rec.kind == "invoke" and not rec.detail.get("ro"):
            saw_update_invoke = True
        if rec.casts and not saw_update_invoke:
            bad.append((rec.step, rec.replica))
    subs.append(report("op_driven_messages", None, bad))

    bad = []
    deliver_steps = {}
    for rec in trace.steps:
        if rec.kind == "deliver":
            deliver_steps.setdefault(rec.replica, []).append(rec.step)
    for steps in deliver_steps.values():
        steps.sort()
    for eid, ev in sorted(trace.events.items()):
        if ev.level != "weak":
            continue
        if ev.return_step is None:
            bad.append((eid, "weak operation never returned"))
            continue
        steps = deliver_steps.get(ev.replica, ())
        i = bisect_right(steps, ev.invoke_step)
        if i < len(steps) and steps[i] <= ev.return_step:
            bad.append((eid, "awaited a delivery at step %d" % steps[i]))
    subs.append(report("highly_available_weak", None, bad))

    bad = []
    tob_casts = {}
    for rec in trace.steps:
        for mid, kind in rec.casts:
            if kind != TOB:
                continue
            eid = rec.detail.get("event")
            if rec.kind == "invoke" and eid is not None:
                tob_casts.setdefault(eid, []).append(mid)
    deliveries = {}
    for rec in trace.steps:
        if rec.kind == "deliver" and rec.detail.get("kind") == TOB:
            deliveries[(rec.detail["msg"], rec.replica)] = rec.step
    for eid, ev in sorted(trace.events.items()):
        if ev.level != "strong" or eid not in tob_casts:
            continue
        steps = [deliveries.get((m, ev.replica)) for m in tob_casts[eid]]
        if any(s is None for s in steps):
            continue
        deadline = max(steps) + STRONG_BUDGET
        if ev.return_step is None or ev.return_step > deadline:
            bad.append((eid, "no response by step %d" % deadline))
    subs.append(report("non_blocking_strong", None, bad))

    return report("act_restrictions", None,
                  [s.predicate for s in subs if not s.ok], subs)
