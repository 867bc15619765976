"""The property-suite generators of `exchange_clear.suites`."""

from exchange_clear import auditors, enumerate_misreports, run_mechanism, satisfaction_profile, suites
from exchange_clear.feasibility import _canonical, clear_enumeration_cache, resolve_budget


def test_strategyproofness_builds_each_misreport_table_once(monkeypatch):
    # a market's tables stay in its enumeration cache entry until every
    # spec over that market and constraint set has been audited; sets that
    # define one feasible set (sir+maxcycle2 and sir+pairwise) share the
    # entry, so each table is keyed on the canonical set
    real = auditors._misreport_rows
    built = []

    def rows(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(auditors, "_misreport_rows", rows)
    markets = suites.family(range(1, 31))
    clear_enumeration_cache()
    unsatisfied = set()
    for market, spec, report in suites.strategyproofness(markets):
        profile = satisfaction_profile(market, run_mechanism(market, spec))
        unsatisfied.update((market, _canonical(spec.constraints), a) for a, sat in profile.items() if not sat)
    keys = [(market, _canonical(cs), agent_id) for market, cs, agent_id, *_ in built]
    assert len(keys) == len(set(keys)) == len(unsatisfied) > 0
    assert set(keys) == unsatisfied
    for market, _, agent_id, scenarios, search_budget in built:
        assert scenarios == enumerate_misreports(market, agent_id)
        assert search_budget == resolve_budget(None)
