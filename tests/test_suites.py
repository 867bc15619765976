"""The property-suite generators of `exchange_clear.suites`."""

from exchange_clear import MisreportBudget, auditors, run_mechanism, satisfaction_profile, suites
from exchange_clear.feasibility import clear_enumeration_cache, resolve_budget


def test_strategyproofness_builds_each_misreport_table_once(monkeypatch):
    # a market's tables stay in its enumeration cache entry until every
    # spec over that market and constraint set has been audited
    real = auditors._misreport_table
    built = []

    def table(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(auditors, "_misreport_table", table)
    markets = suites.family(range(1, 31))
    clear_enumeration_cache()
    unsatisfied = set()
    for market, spec, report in suites.strategyproofness(markets):
        profile = satisfaction_profile(market, run_mechanism(market, spec))
        unsatisfied.update((market, spec.constraints, a) for a, sat in profile.items() if not sat)
    assert len(built) == len(set(built)) == len(unsatisfied) > 0
    assert {args[:3] for args in built} == unsatisfied
    assert {args[3:] for args in built} == {(MisreportBudget(), resolve_budget(None))}
