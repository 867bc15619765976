"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The random-instance family is seeded and frozen here:
200 markets with at most 4 agents, 8 items, 3 demand bundles per agent and
3 items per bundle, plus 100 two-agent markets in the style of the bundled
impossibility setting (all demand bundles drawn over the partner's items,
so the individual-rationality filter has no bite there).
"""

import itertools
import json
import time
from contextlib import contextmanager

import pytest

from exchange_clear import (
    BUILT_IN_CONSTRAINT_SETS,
    ConsistencyParams,
    ConstraintSet,
    IR,
    MechanismSpec,
    audit_strategyproofness,
    audit_weak_consistency,
    audit_weak_consistency_choice,
    choose_from,
    endowment_allocation,
    enumerate_feasible,
    fixture,
    max_satisfied_oracle,
    parse_instance,
    replicate_impossibility,
    run_cp,
    run_cup,
    satisfaction_profile,
    serialize,
    suites,
)
from exchange_clear.auditors import _misreport_table
from exchange_clear.feasibility import clear_enumeration_cache, feasible_with_profiles
from exchange_clear.cli import cli_dispatch

from oracles import greedy_cp, key_chooser, naive_weak_consistency, two_agent_partner_market

FAMILY_SEEDS = range(1, 201)
TWO_AGENT_SEEDS = range(1, 101)


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number} PASS  {description}  [{time.monotonic() - started:.1f}s]")


@pytest.fixture(scope="module")
def family():
    markets = suites.family(FAMILY_SEEDS)
    for market in markets:
        assert len(market.agents) <= 4
        assert len(market.items) <= 8
        assert all(len(ag.demands) <= 3 for ag in market.agents)
        assert all(len(d) <= 3 for ag in market.agents for d in ag.demands)
    return markets


@pytest.fixture(scope="module")
def outcomes(family):
    """One walk of the family's mechanism runs, shared by criteria 5 and 7:
    (market, spec, outcome, Pareto report, oracle max) per run."""
    return list(suites.outcomes(family))


@pytest.fixture(scope="module")
def two_agent_family():
    return [two_agent_partner_market(s) for s in TWO_AGENT_SEEDS]


def test_criterion_1_example1_reproduction():
    with criterion(1, "example1: cp and cup under sir give profile (1,1,1) for every priority, < 1 s"):
        fx = fixture("example1")
        clear_enumeration_cache()
        started = time.monotonic()
        for runner in (run_cp, run_cup):
            for priority in itertools.permutations(fx.market.agent_ids):
                alloc = runner(fx.market, priority, fx.constraints)
                assert satisfaction_profile(fx.market, alloc) == {"1": 1, "2": 1, "3": 1}
        assert time.monotonic() - started < 1.0


def test_criterion_2_theorem5_replication():
    with criterion(2, "theorem5: max satisfaction 2, 12/12 scripted manipulations, ir filter has no bite, < 5 s"):
        fx = fixture("theorem5")
        clear_enumeration_cache()
        started = time.monotonic()
        # (a) the brute-force maximum over the pairwise/desirable feasible set
        assert max_satisfied_oracle(fx.market, fx.constraints) == 2
        # (c) adding the ir constraint does not change the feasible set
        with_ir = ConstraintSet(tuple(fx.constraints) + (IR,))
        assert enumerate_feasible(fx.market, fx.constraints) == enumerate_feasible(fx.market, with_ir)
        # (b) every priority order and both mechanisms leave somebody
        # unsatisfied, and a scripted misreport flips that somebody
        report = replicate_impossibility()
        assert report.violation_found
        assert report.summary["runs"] == 12
        assert report.summary["runs_with_unsatisfied"] == 12
        assert report.summary["manipulations_found"] == 12
        assert report.summary["pareto_optimal_runs"] == 12
        assert report.summary["ir_filter_identity"] == 1
        assert time.monotonic() - started < 5.0


def test_criterion_3_strategyproofness_suite(family):
    with criterion(3, "200 instances x sir constraint sets x cp/cup x all priorities: zero manipulation witnesses"):
        started = time.monotonic()
        audits = 0
        for market, spec, report in suites.strategyproofness(family):
            audits += 1
            assert not report.violation_found, (market, spec, serialize(report))
        elapsed = time.monotonic() - started
        print(f"  criterion 3: {audits} audits in {elapsed:.0f}s")
        assert elapsed < 600


def test_criterion_4_weak_consistency_suite(family):
    with criterion(4, "same family: zero weak-consistency violations for cp/cup; broken mechanism is caught"):
        for _, _, report in suites.weak_consistency(family):
            assert not report.violation_found, serialize(report)

        # auditor sensitivity: the frozen broken-mechanism fixture must trip it
        from exchange_clear import Agent, Item, Market

        broken_market = Market(
            agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [])),
            items=(Item("x"), Item("y")),
        )
        constraints = BUILT_IN_CONSTRAINT_SETS["unrestricted"]
        spec = MechanismSpec("cp", broken_market.agent_ids, constraints)

        def broken(candidates):
            if len(candidates) % 2 == 0:
                return max(candidates, key=lambda a: a.canonical_key)
            return choose_from(broken_market, spec, candidates)

        assert audit_weak_consistency_choice(broken_market, constraints, broken).violation_found


def test_criterion_5_outputs_constrained_pareto_optimal(outcomes):
    with criterion(5, "same family: every cp/cup output is undominated within its own feasible set"):
        for _, _, _, pareto, _ in outcomes:
            assert not pareto.violation_found, serialize(pareto)


def test_criterion_6_two_agent_tightness(two_agent_family):
    with criterion(6, "100 two-agent impossibility-style instances under pairwise+desirable: cp has zero witnesses"):
        cs = BUILT_IN_CONSTRAINT_SETS["pairwise+desirable"]
        for market in two_agent_family:
            # family construction keeps the ir requirement bite-free, mirroring
            # the bundled impossibility setting restricted to two agents
            assert all(not any(d <= ag.endowment for d in ag.demands) for ag in market.agents)
            for priority in (market.agent_ids, tuple(reversed(market.agent_ids))):
                report = audit_strategyproofness(market, MechanismSpec("cp", priority, cs))
                assert not report.violation_found, serialize(report)


def test_criterion_7_oracle_equivalence(outcomes):
    with criterion(7, "cup satisfaction sum equals the brute-force oracle and cp equals greedy filtering"):
        for market, spec, outcome, _, oracle in outcomes:
            if spec.kind == "cup":
                assert sum(satisfaction_profile(market, outcome).values()) == oracle
            else:
                assert outcome == greedy_cp(market, spec.priority, spec.constraints)


def test_criterion_8_engineering_determinism(family, two_agent_family, tmp_path, capsys):
    with criterion(8, "round-trip identity, byte-identical reports from a cold and a warm enumeration cache and vs the naive consistency engine, cli exit statuses"):
        for market in family + two_agent_family:
            assert parse_instance(serialize(market)) == market

        fx = fixture("theorem5")
        spec = MechanismSpec("cp", fx.market.agent_ids, fx.constraints)
        clear_enumeration_cache()
        assert _misreport_table.cache_info().currsize == 0  # no misreport table survives
        cold = serialize(audit_strategyproofness(fx.market, spec))
        assert cold == serialize(audit_strategyproofness(fx.market, spec))
        allocations, profiles = feasible_with_profiles(fx.market, fx.constraints)
        assert serialize(audit_weak_consistency(fx.market, spec)) == serialize(
            naive_weak_consistency(
                allocations,
                profiles,
                fx.market.agent_ids,
                key_chooser(fx.market, spec, profiles),
                ConsistencyParams(),
            )
        )

        example1_path = tmp_path / "example1.json"
        theorem5_path = tmp_path / "theorem5.json"
        assert cli_dispatch(["fixture", "example1", "--out", str(example1_path)]) == 0
        assert cli_dispatch(["fixture", "theorem5", "--out", str(theorem5_path)]) == 0
        endow_path = tmp_path / "endow.json"
        endow_path.write_text(serialize(endowment_allocation(fixture("example1").market)))

        expectations = [
            (["solve", "--mechanism", "cup", "--priority", "1,2,3",
              "--constraints", "sir", "--instance", str(example1_path)], 0),
            (["enumerate", "--constraints", "pairwise,desirable",
              "--instance", str(theorem5_path)], 0),
            (["audit-sp", "--mechanism", "cup", "--constraints", "sir",
              "--instance", str(example1_path)], 0),
            (["audit-sp", "--mechanism", "cp", "--priority", "1,2,3",
              "--constraints", "pairwise,desirable", "--instance", str(theorem5_path),
              "--max-scenarios", "200"], 2),
            (["audit-consistency", "--mechanism", "cp", "--constraints", "sir",
              "--instance", str(example1_path)], 0),
            (["audit-pareto", "--constraints", "sir", "--instance", str(example1_path),
              "--allocation", str(endow_path)], 2),
            (["replicate-theorem5"], 2),
            (["generate", "--seed", "9", "--out", str(tmp_path / "g.json")], 0),
            (["solve", "--mechanism", "cp", "--constraints", "sir",
              "--instance", "/missing.json"], 1),
            (["frobnicate"], 1),
        ]
        for argv, expected in expectations:
            assert cli_dispatch(argv) == expected, argv
        capsys.readouterr()  # drop accumulated cli stdout

        # cup solve output exercises the documented example end to end
        assert cli_dispatch([
            "solve", "--mechanism", "cup", "--priority", "1,2,3",
            "--constraints", "sir", "--instance", str(example1_path),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfaction"] == {"1": 1, "2": 1, "3": 1}
