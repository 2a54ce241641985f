"""Deliberately broken replicas, one per implementation rule.

Each mutant violates exactly one of the five lint rules; the tests assert
the lints flag that rule and no other.
"""

from actsim.model import OK, OperationLabel, STRONG, WEAK
from actsim.protocols import NncReplica
from actsim.simnet import (Effects, Invoke, RB, Response, Schedule, SimWorld,
                           TOB, check_act_restrictions)

RULES = ("invisible_reads", "input_driven_processing", "op_driven_messages",
         "highly_available_weak", "non_blocking_strong")


def lab(name, *args):
    return OperationLabel(name, args)


def run_world(replicas, workload, **schedkw):
    world = SimWorld(replicas, Schedule(**schedkw), workload, protocol="nnc")
    world.run_to_quiescence()
    return world


def verdicts(trace):
    report = check_act_restrictions(trace)
    return {s.predicate: s.verdict for s in report.sub_reports}


class VisibleGetReplica(NncReplica):
    """Breaks rule 1: a read-only get leaves a mark in the state."""

    def __init__(self, rid):
        super().__init__(rid)
        self.read_count = 0

    def _state_parts(self):
        lead, rest = super()._state_parts()
        return lead, (*rest, self.read_count)

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name == "get":
            self.read_count += 1
        return super().on_invoke(event_id, op, level, now_clock)


class RestlessReplica(NncReplica):
    """Breaks rule 2: does internal work before any stimulus arrives."""

    def __init__(self, rid):
        super().__init__(rid)
        self.ticks = 0

    def has_internal(self):
        return self.ticks < 1

    def on_internal(self):
        self.ticks += 1
        return Effects()


class ChattyGetReplica(NncReplica):
    """Breaks rule 3: gets gossip even though nothing was ever updated."""

    def on_invoke(self, event_id, op, level, now_clock):
        eff = super().on_invoke(event_id, op, level, now_clock)
        if op.name == "get":
            eff.casts.append((RB, ("PING", (self.rid, 0), 0)))
        return eff

    def on_deliver(self, msg):
        if msg.payload[0] == "PING":
            return Effects()
        return super().on_deliver(msg)


class SlowAddReplica(NncReplica):
    """Breaks rule 4: a weak add waits for its own commit before answering."""

    def __init__(self, rid):
        super().__init__(rid)
        self.slow = {}

    def on_invoke(self, event_id, op, level, now_clock):
        if op.name != "add":
            return super().on_invoke(event_id, op, level, now_clock)
        dot = self.mint_dot()
        amount = op.args[0]
        self._learn(dot, amount)
        self.slow[dot] = event_id
        eff = Effects(casts=[(RB, ("ADD", dot, amount)),
                             (TOB, ("ADD", dot, amount))])
        eff.req_dot = dot
        return eff

    def on_deliver(self, msg):
        eff = super().on_deliver(msg)
        tag, dot, _ = msg.payload
        if msg.kind == TOB and tag == "ADD" and dot in self.slow:
            eff.responses.append(Response(self.slow.pop(dot), OK))
        return eff


class MuteSubtractReplica(NncReplica):
    """Breaks rule 5: a strong subtract is decided but never answered."""

    def on_deliver(self, msg):
        eff = super().on_deliver(msg)
        if msg.payload[0] == "SUB":
            eff.responses = []
        return eff


def mutant_runs():
    """(rule, quiesced world) for every mutant."""
    yield "invisible_reads", run_world(
        [VisibleGetReplica(0), NncReplica(1)],
        [Invoke(1, "c0", 0, lab("add", 2), WEAK),
         Invoke(6, "c1", 0, lab("get"), WEAK)],
        rb_delay=2, tob_delay=3)
    yield "input_driven_processing", run_world(
        [NncReplica(0), RestlessReplica(1)],
        [Invoke(3, "c0", 0, lab("add", 2), WEAK)],
        rb_delay=2, tob_delay=3)
    yield "op_driven_messages", run_world(
        [ChattyGetReplica(0), ChattyGetReplica(1)],
        [Invoke(1, "c0", 0, lab("get"), WEAK),
         Invoke(8, "c1", 1, lab("get"), WEAK)],
        rb_delay=2, tob_delay=3)
    yield "highly_available_weak", run_world(
        [SlowAddReplica(0), NncReplica(1)],
        [Invoke(1, "c0", 0, lab("add", 2), WEAK)],
        rb_delay=2, tob_delay=3)
    yield "non_blocking_strong", run_world(
        [MuteSubtractReplica(0), NncReplica(1)],
        [Invoke(1, "c0", 0, lab("add", 5), WEAK),
         Invoke(6, "c1", 0, lab("subtract", 2), STRONG)],
        rb_delay=2, tob_delay=3)
