"""The strategyproofness audit and the impossibility replication against
their per-(spec, scenario) references, and the lifecycle of the audit's
misreport tables in the enumeration cache."""

import itertools

import pytest

from exchange_clear import (
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    MechanismSpec,
    MisreportBudget,
    apply_misreport,
    audit_strategyproofness,
    enumerate_misreports,
    fixture,
    replicate_impossibility,
    run_mechanism,
    satisfaction_profile,
    scripted_misreport,
    serialize,
)
from exchange_clear import auditors
from exchange_clear.auditors import impossibility_runs
from exchange_clear.feasibility import (
    BUDGET_ENV_VAR,
    DEFAULT_SEARCH_BUDGET,
    _feasible_profiles_cached,
    _search,
    clear_enumeration_cache,
    derived_tables,
    feasible_with_profiles,
    resolve_budget,
)

from oracles import (
    naive_audit_strategyproofness,
    naive_replicate_impossibility,
    tiny_random_market,
)
from test_feasibility import CHECK_SETS

TRUNCATING = MisreportBudget(bundle_cap=1, max_scenarios=5)


def _priorities(market):
    if len(market.agent_ids) <= 3:
        return list(itertools.permutations(market.agent_ids))
    return [market.agent_ids, market.agent_ids[::-1]]


def _interleaved(markets, cs):
    """Every spec of every market, one spec per market in turn, so the
    audits of one market never run back to back."""
    per_market = [
        [(market, MechanismSpec(kind, priority, cs)) for kind in ("cp", "cup") for priority in _priorities(market)]
        for market in markets
    ]
    for batch in itertools.zip_longest(*per_market):
        yield from (case for case in batch if case is not None)


TINY_MARKETS = [tiny_random_market(seed, max_agents=4, max_items=5) for seed in range(1, 41)]


def _same_bytes(market, spec, budget=None, search_budget=None):
    fast = serialize(audit_strategyproofness(market, spec, budget, search_budget))
    naive = serialize(naive_audit_strategyproofness(market, spec, budget, search_budget))
    assert fast == naive, (market, spec, budget)
    return fast


@pytest.mark.parametrize("set_name", sorted(CHECK_SETS))
def test_sp_audit_matches_naive_on_tiny_markets(set_name):
    cs = CHECK_SETS[set_name]
    for start in range(0, len(TINY_MARKETS), 5):
        for market, spec in _interleaved(TINY_MARKETS[start : start + 5], cs):
            for budget in (None, TRUNCATING):
                _same_bytes(market, spec, budget)


@pytest.mark.parametrize("set_name", ["unrestricted", "sir"])
def test_interleaved_audits_build_each_misreport_table_once(monkeypatch, set_name):
    # the gate's order, without the reference: every (market, agent,
    # misreport budget) table of the set is built on its first lookup only
    cs = CHECK_SETS[set_name]
    real = auditors._misreports_with_truncation
    built = []

    def scenarios(market, agent_id, budget):
        built.append((market, agent_id, budget))
        return real(market, agent_id, budget)

    monkeypatch.setattr(auditors, "_misreports_with_truncation", scenarios)
    clear_enumeration_cache()
    probed = set()
    for start in range(0, len(TINY_MARKETS), 5):
        for market, spec in _interleaved(TINY_MARKETS[start : start + 5], cs):
            for budget in (None, TRUNCATING):
                audit_strategyproofness(market, spec, budget)
                profile = satisfaction_profile(market, run_mechanism(market, spec))
                probed.update((market, a, budget or MisreportBudget()) for a, sat in profile.items() if not sat)
    assert len(built) == len(set(built))
    assert set(built) == probed
    assert len(probed) > 100


def test_sp_audit_matches_naive_on_theorem5(theorem5):
    violations = []
    for budget in (None, MisreportBudget(max_scenarios=200), TRUNCATING):
        for kind in ("cp", "cup"):
            for priority in itertools.permutations(theorem5.market.agent_ids):
                spec = MechanismSpec(kind, priority, theorem5.constraints)
                violations.append('"verdict": "violation"' in _same_bytes(theorem5.market, spec, budget))
    assert violations.count(True) == 12 + 12 + 4


# ---------------------------------------------------------- table lifecycle

# generator seed 27 under sir: 4 agents, 5 items; the canonical cp audit
# probes agents 1, 2 and 4.  TIGHT is the node count of the true market's
# search, so the true market fits it; the budget tests below rest on some
# misreport search of the first probed agent not fitting it, and on every
# misreport search fitting TIGHT * 100 (both checked by the premise test).
SEED27 = tiny_random_market(27, max_agents=4, max_items=5)
SIR = BUILT_IN_CONSTRAINT_SETS["sir"]
SEED27_SPEC = MechanismSpec("cp", SEED27.agent_ids, SIR)
TIGHT = _search(SEED27, SIR, DEFAULT_SEARCH_BUDGET)[2]


def test_seed27_tight_budget_premise():
    clear_enumeration_cache()
    feasible_with_profiles(SEED27, SIR, TIGHT)  # the true market fits
    truthful = satisfaction_profile(SEED27, run_mechanism(SEED27, SEED27_SPEC))
    probed = [agent_id for agent_id, sat in truthful.items() if not sat]
    assert probed == ["1", "2", "4"]
    nodes = {
        agent_id: [
            _search(apply_misreport(SEED27, scenario), SIR, DEFAULT_SEARCH_BUDGET)[2]
            for scenario in enumerate_misreports(SEED27, agent_id)
        ]
        for agent_id in probed
    }
    assert max(nodes[probed[0]]) > TIGHT
    assert max(map(max, nodes.values())) <= TIGHT * 100


def test_clear_enumeration_cache_empties_misreport_tables(theorem5):
    spec = MechanismSpec("cp", theorem5.market.agent_ids, theorem5.constraints)
    audit_strategyproofness(theorem5.market, spec)
    assert derived_tables(theorem5.market, theorem5.constraints, resolve_budget(None))
    clear_enumeration_cache()
    assert _feasible_profiles_cached.cache_info().currsize == 0
    assert derived_tables(theorem5.market, theorem5.constraints, resolve_budget(None)) == {}


def test_budget_exceeded_while_building_stores_no_table():
    clear_enumeration_cache()
    feasible_with_profiles(SEED27, SIR, TIGHT)  # the true market fits
    with pytest.raises(BudgetExceededError):
        audit_strategyproofness(SEED27, SEED27_SPEC, search_budget=TIGHT)
    assert derived_tables(SEED27, SIR, TIGHT) == {}
    with pytest.raises(BudgetExceededError):  # and again: nothing half-built is found
        audit_strategyproofness(SEED27, SEED27_SPEC, search_budget=TIGHT)
    after_failure = _same_bytes(SEED27, SEED27_SPEC, search_budget=TIGHT * 100)
    clear_enumeration_cache()
    cold = serialize(audit_strategyproofness(SEED27, SEED27_SPEC, search_budget=TIGHT * 100))
    assert after_failure == cold
    assert '"agents_probed": 3' in cold


def test_budget_env_var_change_rebuilds_tables(monkeypatch):
    clear_enumeration_cache()
    monkeypatch.setenv(BUDGET_ENV_VAR, str(TIGHT * 100))
    audit_strategyproofness(SEED27, SEED27_SPEC)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(TIGHT))
    with pytest.raises(BudgetExceededError):
        audit_strategyproofness(SEED27, SEED27_SPEC)


def test_misreported_markets_stay_out_of_the_enumeration_cache():
    clear_enumeration_cache()
    for kind in ("cp", "cup"):
        for priority in itertools.permutations(SEED27.agent_ids):
            before = _feasible_profiles_cached.cache_info().currsize
            report = audit_strategyproofness(SEED27, MechanismSpec(kind, priority, SIR))
            assert report.summary["agents_probed"] > 0
            assert _feasible_profiles_cached.cache_info().currsize <= before + 1
    assert _feasible_profiles_cached.cache_info().currsize == 1


# ------------------------------------------------- impossibility replication

def _replication_bytes(replicate, search_budget):
    clear_enumeration_cache()
    try:
        return serialize(replicate(search_budget))
    except BudgetExceededError as exc:
        return f"BudgetExceededError: {exc}"


def _same_replication(search_budget):
    fast = _replication_bytes(replicate_impossibility, search_budget)
    assert fast == _replication_bytes(naive_replicate_impossibility, search_budget), search_budget
    return fast


def _replication_search_nodes():
    """The node count of each search the replication may run: the true
    market and each agent's scripted misreport."""
    fx = fixture("theorem5")
    markets = [fx.market] + [
        apply_misreport(fx.market, scripted_misreport(fx, agent_id)) for agent_id in fx.market.agent_ids
    ]
    return [_search(market, fx.constraints, DEFAULT_SEARCH_BUDGET)[2] for market in markets]


@pytest.mark.parametrize("search_budget", [None, *range(1, 1001, 25)])
def test_replication_matches_naive(search_budget):
    _same_replication(search_budget)


def test_replication_matches_naive_at_each_search_node_count():
    counts = _replication_search_nodes()
    failed = {}
    for nodes in counts:
        for search_budget in (nodes, nodes - 1):
            failed[search_budget] = _same_replication(search_budget).startswith("BudgetExceededError")
    # the whole replication fits the largest count and no budget below it
    assert not failed[max(counts)] and failed[max(counts) - 1]


def test_replication_searches_each_scripted_misreport_when_first_needed(monkeypatch):
    # the budget gate above cannot see this order, since the true market's
    # search is the largest; building every agent's rows up front would fail
    real = auditors._misreport_rows
    runs = 0
    built = []

    def rows(market, constraints, agent_id, *rest):
        built.append((runs + 1, agent_id))
        return real(market, constraints, agent_id, *rest)

    monkeypatch.setattr(auditors, "_misreport_rows", rows)
    for _ in impossibility_runs():
        runs += 1
    assert runs == 12
    assert built == [(1, "3"), (2, "2"), (4, "1")]


def test_replication_leaves_only_the_true_market_in_the_cache():
    clear_enumeration_cache()
    assert replicate_impossibility().violation_found
    assert _feasible_profiles_cached.cache_info().currsize == 1


# ------------------------------------------------------------ budget errors

@pytest.mark.parametrize("field", ["bundle_cap", "max_scenarios"])
@pytest.mark.parametrize("value", [-1, -2, 1.5])
def test_misreport_budget_rejects_bad_bounds_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer"):
        MisreportBudget(**{field: value})


def test_misreport_budget_zero_scenarios_examines_nothing(theorem5):
    spec = MechanismSpec("cp", theorem5.market.agent_ids, theorem5.constraints)
    report = audit_strategyproofness(theorem5.market, spec, MisreportBudget(max_scenarios=0))
    assert report.summary["scenarios_examined"] == 0
    assert report.summary["truncated_agents"] == report.summary["agents_probed"] == 1
    assert not report.violation_found
