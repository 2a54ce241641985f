"""Level-parametrized correctness predicates over finite abstract executions.

"Eventually" clauses are given a finite-horizon interpretation: they must
hold exactly for all level-l events at or beyond a configured stabilization
index (in practice, the first tail-probe event injected after the run
quiesces).

RVal and FRVal take each event's context as masks (rdt.py): vis^-1(e) in
an order, ar or par(e).  For a data type whose F is a left fold (rdt.py
defines each such type's init, step and answer once) they do not fold the
context from scratch.  It is split at K, the length of the longest prefix
of that order which lies within vis^-1(e) and which the order shares with
ar.  The fold over those K events is ar's fold state at K, kept once per
check.  Only the events of vis^-1(e) past K are folded afresh, walking the
order from K until none is left.  CPar likewise compares ar and par(e)
only past their common prefix.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Optional

from .model import (AbstractExecution, Relation, bits, common_prefix,
                    find_cycle, happens_before, id_mask, in_order,
                    on_cycle, session_order)
from .rdt import RdtSpec, context_of, fcontext_of

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class HorizonConfig:
    """Finite stand-in for the "eventually / cofinitely" quantifiers.

    Level-l events whose ordinal is >= stabilization_index are the tail
    probes against which EV and CPar are checked exactly.
    """

    stabilization_index: int
    tail_probe_count: int = 3

    def __post_init__(self):
        if self.tail_probe_count < 1:
            raise ValueError("tail_probe_count must be >= 1")


@dataclass(frozen=True)
class PredicateReport:
    predicate: str
    level: Optional[str]
    verdict: str
    counterexample: tuple = ()
    sub_reports: tuple = ()

    @property
    def ok(self):
        return self.verdict != VIOLATED

    def to_json(self):
        return {
            "predicate": self.predicate,
            "level": self.level,
            "verdict": self.verdict,
            "counterexample": [list(c) if isinstance(c, (tuple, list)) else c
                               for c in self.counterexample],
            "sub_reports": [s.to_json() for s in self.sub_reports],
        }

    def line(self):
        lvl = "(%s)" % self.level if self.level else ""
        return "%s%s: %s" % (self.predicate, lvl, self.verdict)


def report(name, level, bad, subs=()):
    """VIOLATED with counterexample bad, or HOLDS when bad is empty; subs
    are the sub-reports of a conjunction."""
    return PredicateReport(name, level, VIOLATED if bad else HOLDS, tuple(bad),
                           tuple(subs))


def _tail_events(a, l, hz):
    return [e.id for e in a.history
            if e.lvl == l and e.id >= hz.stabilization_index]


def check_EV(a: AbstractExecution, l: str, hz: HorizonConfig) -> PredicateReport:
    """Every event must be visible to every level-l tail event that rb-follows it."""
    L = a.history.level_events(l)
    if not L:
        return PredicateReport("EV", l, VACUOUS)
    rb = a.history.rb
    bad = [(e, e2) for e2 in _tail_events(a, l, hz)
           for e in bits(rb.pred_mask(e2) & ~a.vis.pred_mask(e2))]
    return report("EV", l, sorted(bad))


def check_NCC(a: AbstractExecution, l: str) -> PredicateReport:
    """acyclic(hb n (L x L)): no causal cycle among level-l events.

    hb n (L x L) is cyclic iff some level-l event lies on a cycle of
    so u vis, which one strongly-connected-components pass decides; the
    closure hb is computed only to report a violation."""
    L = a.history.level_events(l)
    base = session_order(a.history).union(a.vis)
    if not on_cycle(base, L):
        return PredicateReport("NCC", l, HOLDS)
    cycle = find_cycle(happens_before(a).induced(L))
    # expand to a path through the underlying so u vis edges so the
    # counterexample can be replayed on the induced sub-execution
    succ = base.inverse()
    support = set(cycle)
    for x, y in zip(cycle, cycle[1:]):
        support |= _path_nodes(succ, x, y)
    return PredicateReport("NCC", l, VIOLATED,
                           (tuple(cycle[:-1]), tuple(sorted(support))))


def _path_nodes(succ: Relation, src, dst):
    """Nodes on one shortest path from src to dst (BFS), where succ is the
    inverse of the relation the path follows."""
    frontier = [[src]]
    seen = {src}
    while frontier:
        path = frontier.pop(0)
        for m in bits(succ.pred_mask(path[-1])):
            if m == dst:
                return set(path + [m])
            if m not in seen:
                seen.add(m)
                frontier.append(path + [m])
    return {src, dst}


def _prefix_fold(ar, op, spec):
    """fold(order, mask): the state spec's fold reaches over op's labels of
    the events of mask, in the order `order` (a permutation of ar) lists
    them.  K (see the module docstring) is bisected on ar's prefix masks
    up to the order's common prefix with ar; ar's fold states are extended
    lazily, only as far as some K reaches."""
    prefix = list(accumulate(map((1).__lshift__, ar), or_, initial=0))
    states = [spec.init]
    step = spec.step

    def fold(order, mask):
        c = common_prefix(ar, order)
        outside = ~mask
        k = bisect_left(prefix, True, 1, c + 1,
                        key=lambda m: m & outside != 0) - 1
        while len(states) <= k:
            states.append(step(states[-1], op[ar[len(states) - 1]]))
        rest = in_order(order, mask & ~prefix[k], k)
        return reduce(step, map(op.__getitem__, rest), states[k])
    return fold


def _check_values(name, a, l, spec, context):
    """rval(e) = F(op(e), context(a, e)) for every level-l event, where
    context is `context_of` or `fcontext_of`.

    A fold type reads each context as ar's fold state at a prefix plus a
    short tail (`_prefix_fold`); any other type is evaluated on the context
    by `spec.evaluate`.  A pending level-l event can never match F and
    counts as a violation.
    """
    if spec.step is None:
        def value(e):
            return spec.evaluate(e.op, context(a, e.id))
    else:
        fold = _prefix_fold(a.ar, a.history.op, spec)

        def value(e):
            c = context(a, e.id)
            return spec.answer(spec.known(e.op), fold(c.order, c.mask))
    bad = []
    for e in a.history:
        if e.lvl != l:
            continue
        if e.rval.is_pending():
            bad.append((e.id, "pending"))
            continue
        got = value(e)
        if got != e.rval:
            bad.append((e.id, "expected %r got %r" % (e.rval, got)))
    return report(name, l, bad)


def check_RVal(a: AbstractExecution, l: str, spec: RdtSpec) -> PredicateReport:
    """Return values follow F over context(A,e), ordered by ar."""
    return _check_values("RVal", a, l, spec, context_of)


def check_FRVal(a: AbstractExecution, l: str, spec: RdtSpec) -> PredicateReport:
    """Like RVal but the context order follows the perceived arbitration par(e)."""
    return _check_values("FRVal", a, l, spec, fcontext_of)


def check_CPar(a: AbstractExecution, l: str, hz: HorizonConfig) -> PredicateReport:
    """Perceived arbitration converges: every level-l tail event ranks each
    event it observes exactly as the final arbitration does.  ar and par(e2)
    agree on their common prefix, so only the events e2 observes past it
    are compared."""
    bad = []
    for e2 in _tail_events(a, l, hz):
        order = a.par[e2]
        c = common_prefix(a.ar, order)
        if c == len(a.ar):
            continue
        rest = a.vis.pred_mask(e2) & ~id_mask(a.ar[:c])
        bad.extend((x, e2) for x, y in zip(in_order(a.ar, rest, c),
                                           in_order(order, rest, c))
                   if x != y)
    return report("CPar", l, sorted(bad))


def check_SinOrd(a: AbstractExecution, l: str) -> PredicateReport:
    """vis into level-l events equals arbitration, modulo some set of pending
    events (resolved constructively: exactly the mismatching pending ones)."""
    pending = id_mask(e.id for e in a.history if e.rval.is_pending())
    walk = a.ar_against(a.vis, a.history.level_events(l))
    excluded = 0
    for _, before, seen in walk:
        excluded |= before & ~seen & pending
    bad = [(x, y, "completed event arbitrated before but invisible")
           for x, y in _pairs((y, before & ~seen & ~pending)
                              for y, before, seen in walk)]
    # edges removed by E' x E must not survive in vis, and vis must not
    # order against ar
    bad += [(x, y, "visible but arbitrated after")
            for x, y in _pairs((y, seen & ~before)
                               for y, before, seen in walk)]
    bad += [(x, y, "pending event both excluded and visible")
            for x, y in _pairs((y, before & seen & excluded)
                               for y, before, seen in walk)]
    if bad:
        return PredicateReport("SinOrd", l, VIOLATED, tuple(bad))
    return PredicateReport("SinOrd", l, HOLDS,
                           (tuple(bits(excluded)),) if excluded else ())


def _pairs(rows):
    """The pairs (x, y), ascending, for each (y, mask) of rows and each x in
    the mask."""
    return sorted((x, y) for y, mask in rows for x in bits(mask))


def _against_ar(a, rel, ids):
    """The edges x -> y of rel into ids whose x is not arbitrated before y,
    ascending."""
    return _pairs((y, preds & ~before)
                  for y, before, preds in a.ar_against(rel, ids))


def check_SessArb(a: AbstractExecution, l: str) -> PredicateReport:
    """so edges ending in level-l events are respected by arbitration."""
    L = a.history.level_events(l)
    if not L:
        return PredicateReport("SessArb", l, VACUOUS)
    return report("SessArb", l, _against_ar(a, session_order(a.history), L))


def check_RT(a: AbstractExecution, l: str) -> PredicateReport:
    """rb between level-l events is respected by arbitration."""
    L = a.history.level_events(l)
    if not L:
        return PredicateReport("RT", l, VACUOUS)
    return report("RT", l, _against_ar(a, a.history.rb.induced(L), L))


# the predicates each composite conjoins, checked in this order
COMPOSITES = {
    "BEC": ("EV", "NCC", "RVal"),
    "FEC": ("EV", "NCC", "FRVal", "CPar"),
    "Seq": ("SinOrd", "SessArb", "BEC"),
    "Lin": ("SinOrd", "RT", "BEC"),
}


def check_composite(a: AbstractExecution, which: str, l: str, spec: RdtSpec,
                    hz: HorizonConfig) -> PredicateReport:
    """The conjunction of the composite's parts, one sub-report each."""
    if which not in COMPOSITES:
        raise ValueError("unknown composite %r" % which)
    subs = [check(a, part, l, spec, hz) for part in COMPOSITES[which]]
    return report(which, l, [s.predicate for s in subs if not s.ok], subs)


PREDICATES = {
    "EV": lambda a, l, spec, hz: check_EV(a, l, hz),
    "NCC": lambda a, l, spec, hz: check_NCC(a, l),
    "RVal": lambda a, l, spec, hz: check_RVal(a, l, spec),
    "FRVal": lambda a, l, spec, hz: check_FRVal(a, l, spec),
    "CPar": lambda a, l, spec, hz: check_CPar(a, l, hz),
    "SinOrd": lambda a, l, spec, hz: check_SinOrd(a, l),
    "SessArb": lambda a, l, spec, hz: check_SessArb(a, l),
    "RT": lambda a, l, spec, hz: check_RT(a, l),
}


def check(a: AbstractExecution, which: str, l: str, spec: RdtSpec,
          hz: HorizonConfig) -> PredicateReport:
    """One of PREDICATES or COMPOSITES, by name."""
    if which in PREDICATES:
        return PREDICATES[which](a, l, spec, hz)
    return check_composite(a, which, l, spec, hz)
