import itertools

import pytest

from exchange_clear import (
    Agent,
    BUILT_IN_CONSTRAINT_SETS,
    ConsistencyParams,
    Item,
    Market,
    MechanismSpec,
    MisreportBudget,
    MisreportScenario,
    apply_misreport,
    audit_constrained_pareto,
    audit_strategyproofness,
    audit_weak_consistency,
    audit_weak_consistency_choice,
    endowment_allocation,
    enumerate_feasible,
    enumerate_misreports,
    fixture,
    max_satisfied_oracle,
    pareto_dominates,
    realized_bundle,
    replicate_impossibility,
    run_mechanism,
    satisfaction_profile,
    scripted_misreport,
    serialize,
    validate_market,
)

from exchange_clear.auditors import _misreports_with_truncation
from exchange_clear.feasibility import clear_enumeration_cache
from exchange_clear.suites import SIR_SETS, family

from oracles import choose_from, naive_misreport_stream, tiny_random_market, two_agent_partner_market
from test_consistency import BENCH_SHAPES, pairwise_bench_market


# ---------------------------------------------------------------- misreports

def test_enumerate_misreports_counting_example():
    market = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [{"x"}])),
        items=(Item("x"), Item("y")),
    )
    agent = market.agent("1")
    scenarios = enumerate_misreports(market, "1")
    subset = [s for s in scenarios if s.reported_demands and s.reported_demands <= agent.demands]
    # two endowment subsets x one nonempty demand subset, before the first probe
    assert scenarios[:2] == subset and len(scenarios) > 2
    assert (scenarios[0].reported_endowment, scenarios[0].reported_demands) == (
        agent.endowment, agent.demands
    )  # the truthful report comes first
    assert scenarios[1].withheld == {"x"}


def test_enumerate_misreports_contains_scripted(theorem5):
    scripted = scripted_misreport(theorem5, "1")
    scenarios = enumerate_misreports(
        theorem5.market, "1", MisreportBudget(max_scenarios=1000)
    )
    assert scripted in scenarios
    assert len(scripted.reported_demands) == 4  # size-3 subsets of a 4-item liked set


def test_enumerate_misreports_prefix_monotone(theorem5):
    small = enumerate_misreports(theorem5.market, "2", MisreportBudget(bundle_cap=1, max_scenarios=30))
    large = enumerate_misreports(theorem5.market, "2", MisreportBudget(bundle_cap=3, max_scenarios=90))
    assert small == large[: len(small)]


def test_misreport_probe_sizes_stop_at_the_item_pool(example1, monkeypatch):
    market = example1.market
    pool = sorted(market.item_ids)
    budget = MisreportBudget(bundle_cap=len(pool), max_scenarios=10**6)
    expected = enumerate_misreports(market, "2", budget)
    assert len(expected) == 194
    real = itertools.combinations
    probe_sizes = []

    def combinations(elems, size):
        if elems == pool:
            probe_sizes.append(size)
        return real(elems, size)

    monkeypatch.setattr(itertools, "combinations", combinations)
    # a bundle cap past the pool adds no scenario and no probe size
    huge = MisreportBudget(bundle_cap=10**5, max_scenarios=10**6)
    assert enumerate_misreports(market, "2", huge) == expected
    assert probe_sizes == list(range(len(pool) + 1))


STREAM_MARKETS = (
    family(range(1, 101))
    + [tiny_random_market(seed, max_agents=4, max_items=5) for seed in range(1, 61)]
    + [
        # an empty demand bundle, and an agent without demands
        Market((Agent("1", ["x"], [frozenset()]), Agent("2", ["y"])), (Item("x"), Item("y"))),
        Market((Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [])), (Item("x"), Item("y"))),
    ]
)


@pytest.mark.parametrize(
    "budget",
    [
        MisreportBudget(),
        MisreportBudget(bundle_cap=0, max_scenarios=10**6),
        MisreportBudget(bundle_cap=5, max_scenarios=10**6),
    ],
    ids=["default", "cap0", "cap5"],
)
def test_enumerate_misreports_matches_the_naive_stream(budget):
    # the package skips the stream's two possible repeats by construction;
    # the naive stream builds every candidate and drops the repeats
    cap = budget.max_scenarios
    for market in STREAM_MARKETS:
        for agent_id in market.agent_ids:
            naive = list(itertools.islice(naive_misreport_stream(market, agent_id, budget), cap + 1))
            assert enumerate_misreports(market, agent_id, budget) == naive[:cap]
            assert _misreports_with_truncation(market, agent_id, budget) == (naive[:cap], len(naive) > cap)


def test_misreport_scenario_invariant():
    with pytest.raises(ValueError):
        MisreportScenario("1", frozenset({"x"}), frozenset(), frozenset({"x"}))


def test_apply_misreport_truthful_is_identity(example1):
    market = example1.market
    truthful = enumerate_misreports(market, "1")[0]
    assert apply_misreport(market, truthful) == market


def test_apply_misreport_scripted(theorem5):
    market = theorem5.market
    misreported = apply_misreport(market, scripted_misreport(theorem5, "1"))
    assert misreported.item_ids == market.item_ids
    assert len(misreported.agent("1").demands) == 4
    assert misreported.agent("2") == market.agent("2")


def test_apply_misreport_full_withholding(theorem5):
    market = theorem5.market
    scenario = MisreportScenario("1", frozenset(), frozenset(), frozenset({"a1", "a2", "a3"}))
    misreported = apply_misreport(market, scenario)
    assert misreported.item_ids == ("b1", "b2", "b3", "c1", "c2", "c3")
    assert misreported.agent("1").endowment == frozenset()
    # other agents' demand bundles naming withheld items are kept verbatim and
    # become uncoverable; the partition invariants themselves must survive
    violations = validate_market(misreported)
    assert violations and all(v.startswith("unknown item in demand") for v in violations)
    endowed = [x for ag in misreported.agents for x in ag.endowment]
    assert sorted(endowed) == list(misreported.item_ids)


def test_apply_misreport_rejects_bad_scenarios(theorem5):
    market = theorem5.market
    with pytest.raises(ValueError):
        apply_misreport(market, MisreportScenario("1", frozenset({"b1"}), frozenset(), frozenset()))
    with pytest.raises(KeyError):
        apply_misreport(market, MisreportScenario("9", frozenset(), frozenset(), frozenset()))
    endowment = market.agent("1").endowment
    with pytest.raises(ValueError, match="^withheld items do not match endowment minus report$"):
        apply_misreport(market, MisreportScenario("1", frozenset({"a1"}), frozenset(), frozenset()))
    with pytest.raises(ValueError, match="^reported demand references unknown item 'zz'$"):
        apply_misreport(market, MisreportScenario("1", endowment, {frozenset({"zz"})}, frozenset()))


def test_realized_bundle():
    assert realized_bundle(frozenset({"p"}), frozenset({"c2", "c3", "c4"})) == {
        "p", "c2", "c3", "c4"
    }
    assert realized_bundle(frozenset(), frozenset({"x"})) == {"x"}
    assert realized_bundle(frozenset({"x"}), frozenset()) == {"x"}
    with pytest.raises(ValueError):
        realized_bundle(frozenset({"x"}), frozenset({"x"}))


# ------------------------------------------------------------------ sp audit

def test_sp_audit_example1_clean(example1):
    for priority in itertools.permutations(example1.market.agent_ids):
        report = audit_strategyproofness(
            example1.market, MechanismSpec("cup", priority, example1.constraints)
        )
        assert report.verdict == "no violation found"
        assert report.summary["agents_probed"] == 0  # everyone satisfied truthfully


def test_sp_audit_theorem5_finds_violation(theorem5):
    spec = MechanismSpec("cp", ("1", "2", "3"), theorem5.constraints)
    report = audit_strategyproofness(theorem5.market, spec)
    assert report.violation_found
    witness = report.witnesses[0]
    # re-check the witness independently: rerun the mechanism on the
    # misreported market and re-evaluate against the true demands
    misreported = apply_misreport(theorem5.market, witness.scenario)
    from exchange_clear import run_mechanism

    outcome = run_mechanism(misreported, spec)
    assert outcome == witness.misreport_outcome
    realized = realized_bundle(outcome.bundle_of(witness.scenario.agent), witness.scenario.withheld)
    agent = theorem5.market.agent(witness.scenario.agent)
    assert any(d <= realized for d in agent.demands)
    truthful_profile = satisfaction_profile(theorem5.market, witness.truthful_outcome)
    assert truthful_profile[witness.scenario.agent] == 0


def test_sp_audit_two_agent_restriction_clean():
    # a 2-agent cut of the bundled impossibility setting: demands draw only on
    # the partner's items, so the desirability veto cannot pay off
    market = Market(
        agents=(
            Agent("1", ["a1", "a2", "a3"], [{"b1", "b3"}]),
            Agent("2", ["b1", "b2", "b3"], [{"a1"}]),
        ),
        items=tuple(Item(x) for x in ("a1", "a2", "a3", "b1", "b2", "b3")),
    )
    cs = BUILT_IN_CONSTRAINT_SETS["pairwise+desirable"]
    for priority in (("1", "2"), ("2", "1")):
        report = audit_strategyproofness(market, MechanismSpec("cp", priority, cs))
        assert report.verdict == "no violation found"


def test_sp_audit_finds_desirability_expansion_under_sir():
    # pinned counterexample for why desirability is never combined with strong
    # individual rationality in the built-in constraint sets: desirability is
    # derived from the demand REPORTS, so an agent can unlock a blocked trade
    # by over-reporting what she accepts.  Agent 1 truly wants only o05; the
    # one-for-one swap dies on agent 3's rationality, the two-for-two swap on
    # agent 1's truthful desirability.  Reporting the demand {o04, o05} makes
    # o04 acceptable, the big swap goes through, and her true demand is met.
    from exchange_clear import ConstraintSet, DESIRABLE_ONLY, PAIRWISE_ONLY, SIR

    market = Market(
        agents=(
            Agent("1", ["o01", "o02"], [{"o05"}]),
            Agent("2", ["o03"], [{"o01", "o03", "o04"}, {"o02"}, {"o02", "o03", "o05"}]),
            Agent("3", ["o04", "o05"], [{"o01", "o02"}, {"o01", "o02", "o04"}]),
        ),
        items=tuple(Item(f"o0{i}") for i in range(1, 6)),
    )
    cs = ConstraintSet((SIR, PAIRWISE_ONLY, DESIRABLE_ONLY))
    assert enumerate_feasible(market, cs) == [endowment_allocation(market)]
    report = audit_strategyproofness(market, MechanismSpec("cp", ("1", "2", "3"), cs))
    assert report.violation_found
    witness = report.witnesses[0]
    assert witness.scenario.agent == "1"
    assert frozenset({"o04", "o05"}) in witness.scenario.reported_demands
    assert {"o05"} <= witness.realized_bundle


# ---------------------------------------------------------------- wc audit

def test_wc_audit_cp_example1_exhaustive_feasible_subset():
    # small market so the feasible set stays within the exhaustive-subset limit
    market = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [{"x"}])),
        items=(Item("x"), Item("y")),
    )
    report = audit_weak_consistency(
        market, MechanismSpec("cp", ("1", "2"), BUILT_IN_CONSTRAINT_SETS["sir"])
    )
    assert report.verdict == "no violation found"
    assert report.summary["exhaustive"] == 1


def test_wc_audit_cup_theorem5_sampled(theorem5):
    spec = MechanismSpec("cup", theorem5.market.agent_ids, theorem5.constraints)
    report = audit_weak_consistency(theorem5.market, spec, ConsistencyParams(seed=5, samples=40))
    assert report.verdict == "no violation found"
    assert report.summary["exhaustive"] == 0
    assert report.summary["seed"] == 5


def test_wc_audit_catches_broken_mechanism():
    # frozen sensitivity fixture: the even-size rule below provably violates
    # weak consistency on this two-agent market
    market = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [])),
        items=(Item("x"), Item("y")),
    )
    constraints = BUILT_IN_CONSTRAINT_SETS["unrestricted"]
    spec = MechanismSpec("cp", market.agent_ids, constraints)

    def broken(candidates):
        if len(candidates) % 2 == 0:
            return max(candidates, key=lambda a: a.canonical_key)
        return choose_from(market, spec, candidates)

    report = audit_weak_consistency_choice(market, constraints, broken)
    assert report.violation_found
    witness = report.witnesses[0]
    assert witness.superset_profile != witness.subset_profile
    # the honest mechanism stays clean on the very same market
    assert not audit_weak_consistency(market, spec).violation_found


# ------------------------------------------------------------- pareto audit

def test_pareto_audit_example1(example1, example1_all_satisfying):
    market = example1.market
    clean = audit_constrained_pareto(market, example1_all_satisfying, example1.constraints)
    assert clean.verdict == "no violation found"
    dominated = audit_constrained_pareto(market, endowment_allocation(market), example1.constraints)
    assert dominated.violation_found
    assert any(w.dominating == example1_all_satisfying for w in dominated.witnesses)
    # every dominating holder in canonical order, not only each profile's
    # first: 66 allocations with two profiles
    feasible = enumerate_feasible(market, example1.constraints)
    expected = [a for a in feasible if pareto_dominates(market, a, endowment_allocation(market))]
    assert [w.dominating for w in dominated.witnesses] == expected
    assert len(expected) == 66


def test_mechanism_outputs_undominated(example1, theorem5):
    for fx in (example1, theorem5):
        for priority in itertools.permutations(fx.market.agent_ids):
            for kind in ("cp", "cup"):
                alloc = run_mechanism(fx.market, MechanismSpec(kind, priority, fx.constraints))
                assert not audit_constrained_pareto(fx.market, alloc, fx.constraints).violation_found


# ------------------------------------------------------------------ oracles

def test_max_satisfied_oracle_example1(example1):
    assert max_satisfied_oracle(example1.market, example1.constraints) == 3


def test_max_satisfied_oracle_theorem5(theorem5):
    assert max_satisfied_oracle(theorem5.market, theorem5.constraints) == 2


def test_max_satisfied_oracle_endowment_only():
    from exchange_clear import ConstraintSet, DESIRABLE_ONLY, SIR

    # agent 1 can only ever hold {x} here, so the endowment is the sole
    # feasible allocation and the oracle counts the endowment-satisfied agents
    market = Market(
        agents=(Agent("1", ["x"], [{"x"}]), Agent("2", ["y"], [{"x", "y"}])),
        items=(Item("x"), Item("y")),
    )
    cs = ConstraintSet((SIR, DESIRABLE_ONLY))
    assert max_satisfied_oracle(market, cs) == 1


# ------------------------------------------------------------------ fixtures

def test_fixture_example1_valid(example1):
    assert validate_market(example1.market) == []


def test_fixture_theorem5_desirable_sets(theorem5):
    liked = {
        "1": {"b1", "b3", "c1", "c2", "c3"},
        "2": {"a1", "a3", "c1", "c2", "c3"},
        "3": {"a2", "a3", "b2", "b3"},
    }
    assert {agent.id: agent.desirable for agent in theorem5.market.agents} == liked
    assert len(theorem5.market.agent("1").demands) == 10
    assert len(theorem5.market.agent("3").demands) == 4


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixture("example2")


# -------------------------------------------------------------- replication

def test_replicate_impossibility():
    report = replicate_impossibility()
    assert report.violation_found  # "violation" means the impossibility replicated
    assert report.summary["runs"] == 12
    assert report.summary["manipulations_found"] == 12
    assert report.summary["runs_with_unsatisfied"] == 12
    assert report.summary["pareto_optimal_runs"] == 12
    assert report.summary["ir_filter_identity"] == 1
    assert len(report.witnesses) == 12


def test_two_agent_partner_family_has_no_self_covering_endowments():
    for seed in range(1, 30):
        market = two_agent_partner_market(seed)
        assert validate_market(market) == []
        for ag in market.agents:
            assert not any(d <= ag.endowment for d in ag.demands)


# ------------------------------------------------------ warm equals cold

def audit_documents(market, spec):
    """The bytes of one spec's run and its three audits, in that order."""
    outcome = run_mechanism(market, spec)
    return (
        serialize(outcome),
        serialize(audit_constrained_pareto(market, outcome, spec.constraints)),
        serialize(audit_weak_consistency(market, spec)),
        serialize(audit_strategyproofness(market, spec)),
    )


def warm_cold_cases():
    """(market, constraints) for the four benchmark shapes under `pairwise`
    and `family(1-30)` under every `sir` set."""
    for seed, count in BENCH_SHAPES:
        yield pairwise_bench_market(seed, count)
    for market in family(range(1, 31)):
        for constraints in SIR_SETS.values():
            yield market, constraints


def test_warm_audits_match_cold_ones():
    # each spec cold, right after the cache is emptied; then every spec
    # twice more over the tables, derived misreport tables and kept hashes
    # that the other specs left behind
    for market, constraints in warm_cold_cases():
        specs = [
            MechanismSpec(kind, priority, constraints)
            for kind in ("cp", "cup")
            for priority in (market.agent_ids, market.agent_ids[::-1])
        ]
        cold = {}
        for spec in specs:
            clear_enumeration_cache()
            cold[spec] = audit_documents(market, spec)
        for _ in range(2):
            for spec in specs:
                assert audit_documents(market, spec) == cold[spec], (serialize(market), spec)
