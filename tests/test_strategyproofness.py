"""The strategyproofness audit and the impossibility replication against
their per-(spec, scenario) references, and the lifecycle of the audit's
memo of misreport tables."""

import itertools

import pytest

from exchange_clear import (
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    MechanismSpec,
    MisreportBudget,
    apply_misreport,
    audit_strategyproofness,
    fixture,
    replicate_impossibility,
    scripted_misreport,
    serialize,
)
from exchange_clear.auditors import _misreport_table
from exchange_clear.feasibility import (
    BUDGET_ENV_VAR,
    DEFAULT_SEARCH_BUDGET,
    _feasible_profiles_cached,
    _Search,
    clear_enumeration_cache,
    feasible_with_profiles,
)

from oracles import (
    naive_audit_strategyproofness,
    naive_replicate_impossibility,
    tiny_random_market,
)
from test_feasibility import CHECK_SETS

TRUNCATING = MisreportBudget(bundle_cap=1, max_scenarios=5)
MEMO_SIZE = _misreport_table.cache_info().maxsize


def _priorities(market):
    if len(market.agent_ids) <= 3:
        return list(itertools.permutations(market.agent_ids))
    return [market.agent_ids, market.agent_ids[::-1]]


def _interleaved(markets, cs):
    """Every spec of every market, one spec per market in turn: each table
    is built cold, found warm by the market's next spec and, when the group
    probes more agents than the memo holds, rebuilt after eviction."""
    per_market = [
        [(market, MechanismSpec(kind, priority, cs)) for kind in ("cp", "cup") for priority in _priorities(market)]
        for market in markets
    ]
    for batch in itertools.zip_longest(*per_market):
        yield from (case for case in batch if case is not None)


def _same_bytes(market, spec, budget=None, search_budget=None):
    fast = serialize(audit_strategyproofness(market, spec, budget, search_budget))
    naive = serialize(naive_audit_strategyproofness(market, spec, budget, search_budget))
    assert fast == naive, (market, spec, budget)
    return fast


@pytest.mark.parametrize("set_name", sorted(CHECK_SETS))
def test_sp_audit_matches_naive_on_tiny_markets(set_name):
    cs = CHECK_SETS[set_name]
    markets = [tiny_random_market(seed, max_agents=4, max_items=5) for seed in range(1, 41)]
    before = _misreport_table.cache_info()
    for start in range(0, len(markets), 5):
        for market, spec in _interleaved(markets[start : start + 5], cs):
            for budget in (None, TRUNCATING):
                _same_bytes(market, spec, budget)
    after = _misreport_table.cache_info()
    assert after.hits > before.hits
    assert after.misses - before.misses > MEMO_SIZE


def test_sp_audit_matches_naive_on_theorem5(theorem5):
    violations = []
    for budget in (None, MisreportBudget(max_scenarios=200), TRUNCATING):
        for kind in ("cp", "cup"):
            for priority in itertools.permutations(theorem5.market.agent_ids):
                spec = MechanismSpec(kind, priority, theorem5.constraints)
                violations.append('"verdict": "violation"' in _same_bytes(theorem5.market, spec, budget))
    assert violations.count(True) == 12 + 12 + 4


# ----------------------------------------------------------- memo lifecycle

# generator seed 27 under sir: 4 agents, 5 items; the canonical cp audit
# probes agents 1, 2 and 4.  The true market's search takes 20 nodes, and
# some misreported markets' searches of each probed agent take more.
SEED27 = tiny_random_market(27, max_agents=4, max_items=5)
SIR = BUILT_IN_CONSTRAINT_SETS["sir"]
SEED27_SPEC = MechanismSpec("cp", SEED27.agent_ids, SIR)
TIGHT = 20


def test_clear_enumeration_cache_empties_misreport_tables(theorem5):
    spec = MechanismSpec("cp", theorem5.market.agent_ids, theorem5.constraints)
    audit_strategyproofness(theorem5.market, spec)
    assert _misreport_table.cache_info().currsize > 0
    clear_enumeration_cache()
    assert _misreport_table.cache_info().currsize == 0
    assert _feasible_profiles_cached.cache_info().currsize == 0


def test_budget_exceeded_while_building_stores_no_table():
    clear_enumeration_cache()
    feasible_with_profiles(SEED27, SIR, TIGHT)  # the true market fits
    with pytest.raises(BudgetExceededError):
        audit_strategyproofness(SEED27, SEED27_SPEC, search_budget=TIGHT)
    assert _misreport_table.cache_info().currsize == 0
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
    counts = []
    for market in markets:
        search = _Search(market, fx.constraints, DEFAULT_SEARCH_BUDGET)
        search.run()
        counts.append(search.nodes)
    return counts


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
