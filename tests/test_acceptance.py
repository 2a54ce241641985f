"""Acceptance suite: one test per shipped claim.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

from actsim.harness import run_scenario
from actsim.predicates import HorizonConfig, check_NCC
from actsim.rdt import F_SEQ
from actsim.simnet import check_act_restrictions
from actsim.witness import brute_force_witness

from mutants import RULES, mutant_runs, verdicts
from runs import agreement_case, random_counter_run, random_log_run


def report_map(artifact):
    return {(r.predicate, r.level): r for r in artifact.reports}


def test_01_counter_stable_holds_basic_weak_and_linearizable_strong():
    art = run_scenario("annc-stable")
    got = report_map(art)
    assert got[("BEC", "weak")].ok
    assert got[("Lin", "strong")].ok
    assert art.extras["converged"]


def test_02_counter_async_keeps_weak_guarantee_but_not_strong():
    art = run_scenario("annc-async")
    got = report_map(art)
    assert got[("BEC", "weak")].ok
    assert got[("Lin", "strong")].verdict == "violated"
    pending = art.extras["pending"]
    assert len(pending) == 1
    assert art.history.event(pending[0]).op.name == "subtract"


def test_03_log_stable_fluctuates_then_settles():
    art = run_scenario("acutebayou-stable")
    got = report_map(art)
    assert got[("FEC", "weak")].ok
    assert got[("Lin", "strong")].ok
    # temporary reordering is observable: one read perceives an order that
    # differs from the final arbitration
    assert art.extras["par_differs"]
    assert art.extras["tentative_value"] != art.extras["final_value"]
    # the four-event excerpt around that read admits no BEC(weak) witness
    sub, mapping = art.history.subhistory(art.extras["excerpt"])
    assert len(sub) <= 5
    hz = HorizonConfig(max(mapping.values()))
    res = brute_force_witness(sub, "BEC", "weak", F_SEQ, hz)
    assert not res.satisfiable
    assert res.ars_tried > 0


def test_04_primary_commit_log_reproduces_the_circular_reads():
    tor = run_scenario("bayou-classic-tor")
    assert tor.extras["q1"] == 1
    assert tor.extras["q2"] == 2
    circ = run_scenario("bayou-classic-circular")
    ncc = circ.reports[0]
    assert ncc.verdict == "violated"
    cycle, support = ncc.counterexample
    assert art_cycle_replays(circ.witnesses["causal"], cycle, support)


def art_cycle_replays(a, cycle, support):
    """The support set alone must still exhibit the cycle."""
    sub = a.restrict(support)
    return check_NCC(sub, "weak").verdict == "violated"


def test_05_no_circular_causality_across_200_random_runs():
    for seed in range(100):
        _, _, a, _, _ = random_counter_run(seed)
        assert check_NCC(a, "weak").ok, ("counter", seed)
        assert check_NCC(a, "strong").ok, ("counter", seed)
    for seed in range(100):
        _, _, a, _ = random_log_run(seed)
        assert check_NCC(a, "weak").ok, ("log", seed)
        assert check_NCC(a, "strong").ok, ("log", seed)


def test_06_shadow_operation_run_shows_the_stale_read_then_agreement():
    art = run_scenario("redblue-anomaly")
    assert art.extras["anomaly_read"] == "b"
    assert art.extras["final_reads"] == ["ab", "ab"]
    assert art.extras["converged"]


def test_07_impossible_history_has_no_witness_until_repaired():
    art = run_scenario("impossibility")
    assert not art.extras["satisfiable"]
    # the certificate covers the whole search space
    assert art.extras["ars_tried"] == 24
    assert art.reports[0].verdict == "violated"
    assert art.extras["flipped_satisfiable"]
    assert sorted(art.extras["flipped_ar"]) == list(art.history.ids())


def test_08_implementation_rules_pass_stock_and_catch_each_mutant():
    for name in ("annc-stable", "annc-async", "annc-partition-convergence",
                 "bayou-classic-tor", "acutebayou-stable", "acutebayou-async",
                 "redblue-anomaly"):
        trace = run_scenario(name).trace
        assert check_act_restrictions(trace).ok, name
    hit = []
    for rule, world in mutant_runs():
        got = verdicts(world.trace)
        assert got[rule] == "violated", rule
        assert all(v == "holds" for r, v in got.items() if r != rule), rule
        hit.append(rule)
    assert hit == list(RULES)


def test_09_builder_verdicts_agree_with_exhaustive_search_on_500_seeds():
    for seed in range(500):
        built_ok, brute_ok, history, _ = agreement_case(seed)
        assert built_ok == brute_ok, (seed, history.to_jsonl())


def test_10_every_stable_scenario_converges():
    for name in ("annc-stable", "annc-partition-convergence",
                 "bayou-classic-tor", "acutebayou-stable", "redblue-anomaly"):
        art = run_scenario(name)
        assert art.extras["converged"], name
    part = run_scenario("annc-partition-convergence")
    assert part.extras["diverged_during_partition"]
