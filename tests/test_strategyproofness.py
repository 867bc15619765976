"""The strategyproofness audit and the impossibility replication against
their per-(spec, scenario) references, the lifecycle of the audit's
misreport tables in the enumeration cache, the patched searches of its
misreport bases against searches of the misreported markets, and a weakly
consistent chooser outside `cp`/`cup` that a misreport manipulates."""

import itertools

import pytest

from exchange_clear import (
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    MechanismSpec,
    MisreportBudget,
    MisreportScenario,
    apply_misreport,
    audit_strategyproofness,
    audit_weak_consistency_choice,
    covers,
    enumerate_feasible,
    enumerate_misreports,
    fixture,
    realized_bundle,
    replicate_impossibility,
    run_mechanism,
    satisfaction_profile,
    scripted_misreport,
    serialize,
)
from exchange_clear import auditors, feasibility
from exchange_clear.auditors import impossibility_runs
from exchange_clear.suites import family
from exchange_clear.feasibility import (
    BUDGET_ENV_VAR,
    DEFAULT_SEARCH_BUDGET,
    _compile,
    _feasible_profiles_cached,
    _search,
    _with_demands,
    clear_enumeration_cache,
    feasible_with_profiles,
    search_feasible,
)

from oracles import (
    naive_audit_strategyproofness,
    naive_replicate_impossibility,
    tiny_random_market,
)
from test_feasibility import CHECK_SETS, NULL_MARKETS

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


@pytest.mark.parametrize(
    "set_name", ["sir", "pairwise", "desirable", "pairwise+desirable", "sir+pairwise+desirable"]
)
def test_sp_audit_matches_naive_with_null_items(set_name):
    # a patched demand report recomputes the desirable receivers, null
    # items included
    cs = CHECK_SETS[set_name]
    for market in NULL_MARKETS:
        for kind in ("cp", "cup"):
            _same_bytes(market, MechanismSpec(kind, market.agent_ids, cs))


# ---------------------------------------------------------- table lifecycle

# generator seed 27 under sir: 4 agents, 5 items; the canonical cp audit
# probes agents 1, 2 and 4.  TIGHT is the node count of the true market's
# search, so the true market fits it; the budget tests below rest on some
# misreport search of the first probed agent not fitting it, and on every
# misreport search fitting TIGHT * 100 (both checked by the premise test).
SEED27 = tiny_random_market(27, max_agents=4, max_items=5)
SIR = BUILT_IN_CONSTRAINT_SETS["sir"]
SEED27_SPEC = MechanismSpec("cp", SEED27.agent_ids, SIR)
TIGHT = search_feasible(SEED27, SIR, DEFAULT_SEARCH_BUDGET).nodes


def test_seed27_tight_budget_premise():
    clear_enumeration_cache()
    feasible_with_profiles(SEED27, SIR, TIGHT)  # the true market fits
    truthful = satisfaction_profile(SEED27, run_mechanism(SEED27, SEED27_SPEC))
    probed = [agent_id for agent_id, sat in truthful.items() if not sat]
    assert probed == ["1", "2", "4"]
    nodes = {
        agent_id: [
            search_feasible(apply_misreport(SEED27, scenario), SIR, DEFAULT_SEARCH_BUDGET).nodes
            for scenario in enumerate_misreports(SEED27, agent_id)
        ]
        for agent_id in probed
    }
    assert max(nodes[probed[0]]) > TIGHT
    assert max(map(max, nodes.values())) <= TIGHT * 100


def test_clear_enumeration_cache_empties_misreport_tables(theorem5):
    spec = MechanismSpec("cp", theorem5.market.agent_ids, theorem5.constraints)
    audit_strategyproofness(theorem5.market, spec)
    assert feasible_with_profiles(theorem5.market, theorem5.constraints).derived
    clear_enumeration_cache()
    assert _feasible_profiles_cached.cache_info().currsize == 0
    assert feasible_with_profiles(theorem5.market, theorem5.constraints).derived == {}


def test_budget_exceeded_while_building_stores_no_table():
    clear_enumeration_cache()
    feasible_with_profiles(SEED27, SIR, TIGHT)  # the true market fits
    with pytest.raises(BudgetExceededError):
        audit_strategyproofness(SEED27, SEED27_SPEC, search_budget=TIGHT)
    assert feasible_with_profiles(SEED27, SIR, TIGHT).derived == {}
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
    # each audit looks the true market up once: its misreport tables come
    # with the table it reads
    clear_enumeration_cache()
    for kind in ("cp", "cup"):
        for priority in itertools.permutations(SEED27.agent_ids):
            before = _feasible_profiles_cached.cache_info()
            report = audit_strategyproofness(SEED27, MechanismSpec(kind, priority, SIR))
            after = _feasible_profiles_cached.cache_info()
            assert report.summary["agents_probed"] > 0
            assert after.currsize <= before.currsize + 1
            assert after.hits + after.misses == before.hits + before.misses + 1
    assert _feasible_profiles_cached.cache_info().currsize == 1
    # the cached table carries its own search's node count
    assert feasible_with_profiles(SEED27, SIR).nodes == search_feasible(SEED27, SIR, DEFAULT_SEARCH_BUDGET).nodes


# ---------------------------------------------------------- misreport bases

@pytest.mark.parametrize("set_name", sorted(CHECK_SETS))
def test_patched_search_matches_the_misreported_markets_search(set_name):
    # every scenario searched as _misreport_rows searches it, as a patch of
    # the first misreported market with its withheld set, against a search
    # of its own misreported market: the same allocations, profiles and
    # node count, and the same error one node short
    cs = CHECK_SETS[set_name]
    for market in TINY_MARKETS:
        for agent, agent_id in enumerate(market.agent_ids):
            bases = {}
            for scenario in enumerate_misreports(market, agent_id):
                misreported = apply_misreport(market, scenario)
                if scenario.withheld not in bases:
                    bases[scenario.withheld] = _compile(misreported, cs)
                patched = _with_demands(bases[scenario.withheld], agent, scenario.reported_demands)
                expected = search_feasible(misreported, cs, DEFAULT_SEARCH_BUDGET)
                found = _search(patched, DEFAULT_SEARCH_BUDGET)
                assert (tuple(found), found.profiles, found.first, found.nodes) == (
                    tuple(expected),
                    expected.profiles,
                    expected.first,
                    expected.nodes,
                ), (market, scenario)
                short = expected.nodes - 1
                with pytest.raises(BudgetExceededError) as patched_error:
                    _search(patched, short)
                with pytest.raises(BudgetExceededError) as direct_error:
                    search_feasible(misreported, cs, short)
                assert str(patched_error.value) == str(direct_error.value)


def test_misreport_rows_compile_one_base_per_withheld_set(monkeypatch):
    built, compiled = [], []
    real_apply, real_compile = auditors.apply_misreport, auditors._compile

    def apply(market, scenario):
        built.append(scenario)
        return real_apply(market, scenario)

    def compile_market(market, cs):
        compiled.append(market)
        return real_compile(market, cs)

    monkeypatch.setattr(auditors, "apply_misreport", apply)
    monkeypatch.setattr(auditors, "_compile", compile_market)
    bases = 0
    for agent_id in SEED27.agent_ids:
        scenarios = enumerate_misreports(SEED27, agent_id)
        first = {}
        for scenario in scenarios:
            first.setdefault(scenario.withheld, scenario)
        built.clear()
        compiled.clear()
        auditors._misreport_rows(SEED27, SIR, agent_id, scenarios, DEFAULT_SEARCH_BUDGET)
        assert built == list(first.values())
        assert compiled == [real_apply(SEED27, scenario) for scenario in first.values()]
        assert len(scenarios) > len(first)
        bases += len(first)
    assert bases > len(SEED27.agent_ids)


@pytest.mark.parametrize("set_name", ["unrestricted", "pairwise", "maxcycle3", "sir"])
def test_misreport_rows_search_each_report_free_structure_once(set_name, monkeypatch):
    # without sir, ir and desirable the reports with one withheld set share
    # a trade structure, as may two withheld sets: each structure is
    # searched once and the other reports are scored over its rows, with
    # the rows of a search per report.  Under sir every report is searched.
    cs = CHECK_SETS[set_name]
    searched = []
    for module in (auditors, feasibility):
        real = module._search
        monkeypatch.setattr(module, "_search", lambda c, *args, real=real: searched.append(c) or real(c, *args))
    for market in TINY_MARKETS[:20] + [SEED27]:
        for agent_id in market.agent_ids:
            scenarios = enumerate_misreports(market, agent_id)
            withheld = {scenario.withheld: scenario for scenario in scenarios}
            structures = set()
            for scenario in withheld.values():
                c = _compile(apply_misreport(market, scenario), cs)
                structures.add((tuple(c.owner), len(c.endow)))
            clear_enumeration_cache()
            searched.clear()
            rows = auditors._misreport_rows(market, cs, agent_id, scenarios, DEFAULT_SEARCH_BUDGET)
            if set_name == "sir":
                assert len(searched) == len(scenarios), (market, agent_id)
            else:
                assert len(searched) == len(structures) <= len(withheld), (market, agent_id)
            with monkeypatch.context() as patch:
                patch.setattr(auditors, "_report_free", lambda c: False)
                assert rows == auditors._misreport_rows(market, cs, agent_id, scenarios, DEFAULT_SEARCH_BUDGET)
    clear_enumeration_cache()


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
    return [search_feasible(market, fx.constraints, DEFAULT_SEARCH_BUDGET).nodes for market in markets]


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


# ------------------------------------------- beyond the cp/cup mechanisms

# a fixed strict order of the profiles of family seed 3's two agents that
# ranks nobody satisfied first; the chooser takes the canonically first
# holder of the best-ranked profile present
FIXED_ORDER = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


def _fixed_order_choice(market, allocations):
    return min(allocations, key=lambda a: FIXED_ORDER[tuple(satisfaction_profile(market, a).values())])


def test_fixed_order_chooser_is_weakly_consistent_yet_manipulable():
    # the suites cover cp and cup only: passing the weak-consistency audit
    # does not make this chooser strategyproof under sir
    market = family([3])[0]
    sir = BUILT_IN_CONSTRAINT_SETS["sir"]
    truthful = _fixed_order_choice(market, enumerate_feasible(market, sir))
    witnesses = []
    for agent_id, sat in satisfaction_profile(market, truthful).items():
        if sat:
            continue
        true_demands = market.agent(agent_id).demands
        for scenario in enumerate_misreports(market, agent_id):
            reported = apply_misreport(market, scenario)
            outcome = _fixed_order_choice(reported, enumerate_feasible(reported, sir))
            held = realized_bundle(outcome.bundle_of(agent_id), scenario.withheld)
            if covers(held, true_demands):
                witnesses.append((scenario, held))
    assert witnesses == [
        (MisreportScenario("1", {"o01"}, {frozenset()}, frozenset()), frozenset({"o03"}))
    ]
    assert {"o03"} in market.agent("1").demands
    report = audit_weak_consistency_choice(market, sir, lambda allocs: _fixed_order_choice(market, allocs))
    assert report.verdict == "no violation found"
