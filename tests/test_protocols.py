"""Unit tests for the replica implementations, driven without the network,
and for the containers that keep their state text current."""

import hashlib
import random
from bisect import bisect_left, insort

import pytest
from hypothesis import given, strategies as st

from actsim.model import (OK, OperationLabel, STRONG, WEAK, rv_bool, rv_int,
                          rv_str)
from actsim.protocols import (ClassicLogReplica, MixedLogReplica, NncReplica,
                              RedBlueReplica, RenderedDict, RenderedLog, Req,
                              replay)
from actsim.rdt import ACT_NNC, ACT_SEQ_MIXED, ACT_SEQ_REDBLUE
from actsim.simnet import Invoke, Message, RB, Schedule, SimWorld, TOB


def lab(name, *args):
    return OperationLabel(name, args)


def msg(kind, payload, origin=0, mid=0):
    return Message(mid, kind, tuple(payload), origin, None)


def test_counter_add_is_applied_locally_and_broadcast():
    r = NncReplica(0)
    eff = r.on_invoke(0, lab("add", 4), WEAK, 0)
    assert [k for k, _ in eff.casts] == [RB, TOB]
    assert eff.responses[0].value == OK
    assert r.value() == 4
    get = r.on_invoke(1, lab("get"), WEAK, 1)
    assert get.responses[0].value == rv_int(4)


def test_counter_duplicate_adds_are_ignored():
    r = NncReplica(0)
    r.on_deliver(msg(RB, ("ADD", (1, 1), 4)))
    r.on_deliver(msg(TOB, ("ADD", (1, 1), 4)))
    assert r.value() == 4
    assert r.committed_add == 4


def test_counter_subtract_decisions_match_across_replicas():
    deliveries = [("ADD", (1, 1), 3), ("SUB", (2, 1), 2), ("SUB", (1, 2), 2)]
    values = []
    for rid in (0, 1):
        r = NncReplica(rid)
        for payload in deliveries:
            r.on_deliver(msg(TOB, payload))
        values.append((r.committed_add, r.committed_sub, r.value()))
    # 3 - 2 succeeds, the second subtract is unfunded everywhere
    assert values == [(3, 2, 1), (3, 2, 1)]


def test_counter_subtract_answers_at_its_own_commit():
    r = NncReplica(0)
    eff = r.on_invoke(0, lab("subtract", 1), STRONG, 0)
    assert eff.responses == [] and [k for k, _ in eff.casts] == [TOB]
    dot = eff.req_dot
    r.on_deliver(msg(TOB, ("ADD", (1, 1), 3)))
    done = r.on_deliver(msg(TOB, ("SUB", dot, 1)))
    assert done.responses[0].event_id == 0
    assert done.responses[0].value == rv_bool(True)


def test_log_tentative_order_follows_timestamps():
    r = MixedLogReplica(0)
    r.on_invoke(0, lab("append", "a"), WEAK, 10)
    r.on_deliver(msg(RB, ("ISSUE", Req(4, (1, 1), lab("append", "b")))))
    read = r.on_invoke(1, lab("read"), WEAK, 11)
    assert read.responses[0].value == rv_str("ba")


def test_log_commit_moves_requests_out_of_tentative():
    r = MixedLogReplica(0)
    eff = r.on_invoke(0, lab("append", "a"), WEAK, 10)
    _, req = eff.casts[1][1][0], eff.casts[1][1][1]
    r.on_deliver(msg(TOB, ("COMMIT", req)))
    assert [x.dot for x in r.committed] == [req.dot]
    assert r.tentative == []


def test_log_strong_read_answers_from_the_committed_prefix():
    r = MixedLogReplica(0)
    r.on_deliver(msg(TOB, ("COMMIT",
                           Req(4, (1, 1), lab("append", "b"), WEAK, 7))))
    eff = r.on_invoke(0, lab("read"), STRONG, 10)
    assert eff.responses == []
    req = eff.casts[0][1][1]
    done = r.on_deliver(msg(TOB, ("COMMIT", req)))
    assert done.responses[0].value == rv_str("b")
    # the snapshot names the event that issued the committed append
    assert done.responses[0].trace_snapshot == (7,)


def test_register_replay_tracks_read_from_provenance():
    u2 = Req(1, (1, 1), lab("upd_y"))
    u1 = Req(5, (0, 1), lab("upd_x"))
    q = Req(9, (0, 2), lab("read_z"))
    results = replay([u2, u1, q])
    value, edges = results[q.dot]
    assert value == 1  # x=1 ran after y=1, so the guarded write fired
    assert ((0, 1), (0, 2)) in edges      # the read saw u1's write
    assert ((1, 1), (0, 1)) in edges      # which itself read u2's write


def test_classic_primary_commits_in_learn_order():
    p = ClassicLogReplica(0, is_primary=True)
    late = Req(9, (1, 1), lab("upd_x"))
    early = Req(1, (2, 1), lab("upd_y"))
    p.on_deliver(msg(RB, ("ISSUE", late)))
    p.on_deliver(msg(RB, ("ISSUE", early)))
    order = []
    while p.has_internal():
        eff = p.on_internal()
        order.append(eff.casts[0][1][1].dot)
    # commit follows arrival, not timestamps
    assert order == [late.dot, early.dot]
    assert [r.dot for r in p.committed] == [late.dot, early.dot]


def test_classic_flags_nothing_as_local_readonly():
    # it names no ActSpec, so the world records none of its invokes as
    # local read-only, read_z included
    assert ClassicLogReplica.act is None
    world = SimWorld([ClassicLogReplica(0, is_primary=True)], Schedule(),
                     [Invoke(1, "c", 0, lab("read_z"), WEAK)])
    world.run_to_quiescence()
    assert world.trace.events[0].local_ro is False


def test_each_replica_names_the_act_spec_it_implements():
    assert NncReplica.act is ACT_NNC
    assert MixedLogReplica.act is ACT_SEQ_MIXED
    assert RedBlueReplica.act is ACT_SEQ_REDBLUE


def test_redblue_read_sorts_by_clock_then_payload():
    r = RedBlueReplica(0)
    r.on_invoke(0, lab("append", "b"), WEAK, 0)
    r.on_deliver(msg(RB, ("SHADOW", (1, 1), "a", 0)))
    read = r.on_invoke(1, lab("read"), WEAK, 1)
    assert read.responses[0].value == rv_str("ab")
    assert r.lc == 2  # bumped once per applied shadow


def test_redblue_duplicate_shadows_are_idempotent():
    r = RedBlueReplica(0)
    r.on_deliver(msg(RB, ("SHADOW", (1, 1), "a", 0)))
    r.on_deliver(msg(RB, ("SHADOW", (1, 1), "a", 0)))
    assert r.lc == 1
    assert len(r.shadows) == 1


def test_redblue_red_append_answers_at_commit():
    r = RedBlueReplica(0)
    eff = r.on_invoke(0, lab("append", "x"), STRONG, 0)
    assert eff.responses == [] and eff.casts[0][0] == TOB
    done = r.on_deliver(msg(TOB, eff.casts[0][1]))
    assert done.responses[0].event_id == 0


def test_counter_value_equals_the_sum_of_its_known_adds_at_every_get():
    """The counter keeps a running total while every known amount is an
    int, add(True) among them, and sums its known adds once one is not:
    sum() rounds floats its own way (compensated from Python 3.12 on)."""
    seen = []

    class Checking(NncReplica):
        def on_invoke(self, event_id, op, level, now_clock):
            if op.name == "get":
                want = sum(self.known_adds.values()) - self.committed_sub
                got = self.value()
                assert got == want and type(got) is type(want)
                seen.append(type(got))
            return super().on_invoke(event_id, op, level, now_clock)

    amounts = [True, 2, True, 3] + [0.5, 0.1, True, 0.1, 0.1, 2] * 3
    workload = []
    for i, amount in enumerate(amounts):
        workload.append(Invoke(1 + 3 * i, "a%d" % i, i % 3,
                               lab("add", amount), WEAK))
        workload.append(Invoke(2 + 3 * i, "g%d" % i, (i + 1) % 3,
                               lab("get"), WEAK))
    workload.append(Invoke(3 * len(amounts), "s", 0, lab("subtract", 1),
                           STRONG))
    world = SimWorld([Checking(i) for i in range(3)],
                     Schedule(rb_delay=2, tob_delay=4, jitter=1), workload,
                     protocol="nnc").run_to_quiescence()
    for rid in range(3):
        world.replicas[rid].on_invoke(None, lab("get"), WEAK, world.now)
    assert seen.count(int) >= 4 and seen.count(float) >= 15


# -- the rendered state containers -----------------------------------------

dots = st.tuples(st.integers(0, 3), st.integers(1, 40))
values = st.one_of(st.integers(-5, 5),
                   st.tuples(st.text("ab", max_size=2), st.integers(0, 9)))


def head_hexdigest(text):
    return hashlib.sha256(("(" + text).encode()).hexdigest()


@given(st.lists(st.tuples(st.booleans(), dots, values), max_size=60),
       st.integers(0, 60))
def test_rendered_dict_text_is_its_sorted_items(writes, hashed_from):
    """Its text, and from the hashed_from-th write on, its head hash, which
    the first call begins."""
    d, plain = RenderedDict(), {}
    for n, (assign, key, value) in enumerate(writes):
        if assign:
            d[key] = value
            plain[key] = value
        elif key not in d:
            d[key] = value
            plain[key] = value
        assert d == plain
        assert d.text() == repr(sorted(plain.items()))
        if n >= hashed_from:
            assert d.head_hash().hexdigest() == head_hexdigest(d.text())
    assert repr((d.text(), 0)) == repr((sorted(plain.items()), 0))


@given(st.lists(dots, unique=True, max_size=40),
       st.lists(st.one_of(st.tuples(st.integers(0, 9), dots),
                          st.integers(0, 39)), max_size=60))
def test_rendered_log_text_is_its_list_of_dots(appended, changes):
    """Its text, and its head hash: appends extend the running hash, and
    inserts elsewhere and deletes feed it afresh."""
    log = RenderedLog()
    for i, dot in enumerate(appended):
        log.append(Req(i, dot, lab("append", "a")))
        assert log.text() == repr([r.dot for r in log])
        assert log.head_hash().hexdigest() == head_hexdigest(log.text())
    assert [r.dot for r in log] == appended
    # as a tentative log changes: requests insorted in (timestamp, dot)
    # order, and deleted anywhere
    log, plain = RenderedLog(), []
    for change in changes:
        if type(change) is tuple:
            req = Req(*change, lab("append", "a"))
            insort(log, req)
            insort(plain, req)
        elif log:
            del log[change % len(log)]
            del plain[change % len(plain)]
        assert log == plain and log.text() == repr([r.dot for r in log])
        assert log.head_hash().hexdigest() == head_hexdigest(log.text())


def test_rendered_containers_refuse_every_other_mutator():
    d = RenderedDict()
    d[(0, 1)] = 1
    log = RenderedLog()
    log.append(Req(0, (0, 1), lab("append", "a")))
    req = Req(1, (0, 2), lab("append", "b"))
    refused = [
        lambda: d.update({(0, 2): 2}), lambda: d.setdefault((0, 2), 2),
        lambda: d.pop((0, 1)), d.popitem,
        d.clear, lambda: log.extend([req]), log.pop,
        lambda: log.remove(log[0]), log.clear, log.sort, log.reverse]
    for mutate in refused:
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(TypeError):
        del d[(0, 1)]
    with pytest.raises(TypeError):
        d |= {(0, 2): 2}
    with pytest.raises(TypeError):
        log[0] = req
    with pytest.raises(TypeError):
        log[0:1] = []
    with pytest.raises(TypeError):
        log += [req]
    with pytest.raises(TypeError):
        log *= 2
    assert d == {(0, 1): 1} and d.text() == "[((0, 1), 1)]"
    assert [r.dot for r in log] == [(0, 1)] and log.text() == "[(0, 1)]"


# -- both logs at scale, with skewed clocks ----------------------------------

def recording(cls):
    """cls, counting the inserts that land before the tentative log's tail
    and the commits that take a request that is not its first."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.inner_inserts = self.inner_commits = 0

        def _insert_tentative(self, req):
            self.inner_inserts += (bisect_left(self.tentative, req)
                                   < len(self.tentative))
            super()._insert_tentative(req)

        def _commit(self, req):
            i = bisect_left(self.tentative, req)
            self.inner_commits += (0 < i < len(self.tentative)
                                   and self.tentative[i].dot == req.dot)
            return super()._commit(req)

    return Recording


def primary_commit_world(n):
    cls = recording(ClassicLogReplica)
    progs = ("upd_x", "upd_y", "read_z")
    return SimWorld(
        [cls(0), cls(1), cls(2, is_primary=True)],
        Schedule(clock_skew=((0, 9), (1, -4))),
        [Invoke(2 * i + 1, "c%d" % (i % 8), i % 3, lab(progs[i % 3]), WEAK)
         for i in range(n)], protocol="classic-log")


def tentative_log_world(n):
    cls = recording(MixedLogReplica)
    return SimWorld(
        [cls(0), cls(1), cls(2)],
        Schedule(rb_delay=3, tob_delay=5, clock_skew=((0, 11), (2, -6))),
        [Invoke(i + 1, "c%d" % (i % 12), i % 3,
                lab("read") if i % 4 == 1 else lab("append", "abcde"[i % 5]),
                STRONG if i % 7 == 3 else WEAK)
         for i in range(n)], protocol="log")


# (world, invokes, its pinned trace digest)
SCALE_WORLDS = [
    (primary_commit_world, 300,
     "8e4639849ea3e9484ddeae0d39567efc28d9b4ddfc347b91cf319a40f7f48acd"),
    (tentative_log_world, 800,
     "b9ddd7d282828581223badda42f43186ee67331b5e9fe260ae34e4bb7c46e049"),
]


@pytest.mark.parametrize("make,n,digest", SCALE_WORLDS,
                         ids=["primary-commit", "tentative-log"])
def test_logs_changed_in_place_keep_the_trace_digests_at_scale(make, n,
                                                              digest):
    """Skewed clocks make requests land inside the tentative log and commit
    out of its order, at every replica, and the traces keep their pinned
    digests."""
    world = make(n).run_to_quiescence()
    assert len(world.trace.events) == n
    assert world.trace.digest() == digest
    assert all(r.inner_inserts and r.inner_commits for r in world.replicas)


# -- the counter's and red-blue's dicts at scale, with jitter ---------------

class RunRecordingDict(RenderedDict):
    """A RenderedDict counting the new keys set past the end of their
    origin's run, inside it, and as its first key."""

    def __init__(self):
        super().__init__()
        self.ends = {}          # origin -> its last key
        self.past_end = self.inside = self.first = 0

    def __setitem__(self, key, value):
        if key not in self:
            end = self.ends.get(key[0])
            if end is None:
                self.first += 1
            elif key > end:
                self.past_end += 1
            else:
                self.inside += 1
            self.ends[key[0]] = key if end is None else max(end, key)
        super().__setitem__(key, value)


def run_recording(cls, attr):
    """cls, with its RenderedDict attr a RunRecordingDict."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            setattr(self, attr, RunRecordingDict())

    return Recording


def _jittered_world(cls, n, ops, protocol, seed):
    """Three replicas of cls, n invokes 1-3 steps apart drawn from ops,
    jitter 3 and replica 2 cut off for the middle third of the span."""
    rng = random.Random(seed)
    invokes, step = [], 0
    for i in range(n):
        step += rng.randint(1, 3)
        name, args, level = rng.choice(ops)
        invokes.append(Invoke(step, "c%d" % (i % 8), rng.randrange(3),
                              lab(name, *args), level))
    schedule = Schedule(seed=rng.getrandbits(32), rb_delay=2, tob_delay=4,
                        jitter=3, partitions=((step // 3, ((0, 1), (2,))),
                                              (2 * step // 3, ((0, 1, 2),))))
    return SimWorld([cls(i) for i in range(3)], schedule, invokes,
                    protocol=protocol)


def jittered_counter_world(n):
    ops = [("add", (k,), WEAK) for k in (1, 2, 3)] + [
        ("get", (), WEAK), ("get", (), WEAK), ("subtract", (2,), STRONG)]
    return _jittered_world(run_recording(NncReplica, "known_adds"), n, ops,
                           "nnc", "counter/%d" % n)


def jittered_redblue_world(n):
    ops = [("append", (c,), WEAK) for c in "abc"] + [
        ("append", ("d",), STRONG), ("read", (), WEAK), ("read", (), WEAK)]
    return _jittered_world(run_recording(RedBlueReplica, "shadows"), n, ops,
                           "redblue", "redblue/%d" % n)


# (world, invokes, the attribute holding its dict, its pinned trace digest)
JITTERED_WORLDS = [
    (jittered_counter_world, 1600, "known_adds",
     "39f8049d63e8185cf298d0510c32157f4409a9be16d011d7e418861f206aa768"),
    (jittered_redblue_world, 800, "shadows",
     "f3e0bfdc24c67f2c2ccc184653c8f3d9ee80de85c9ca2ad731bf6d529393284b"),
]


@pytest.mark.parametrize("make,n,attr,digest", JITTERED_WORLDS,
                         ids=["counter", "red-blue"])
def test_dicts_keep_the_trace_digests_at_scale(make, n, attr, digest):
    """RB jitter and a partition make dots reach a replica out of their
    origin's order: most land past the end of their run, at every replica,
    and some inside it.  The traces keep their pinned digests.  The
    counter's known adds lead its state, so its digests go through the
    dict's checkpoints; red-blue's shadows do not, and go through its
    text."""
    world = make(n).run_to_quiescence()
    assert len(world.trace.events) == n
    assert world.trace.digest() == digest
    dicts = [getattr(r, attr) for r in world.replicas]
    assert all(d.first == 3 and d.past_end > n / 4 for d in dicts)
    assert sum(d.inside for d in dicts) > 10
