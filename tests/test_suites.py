"""The property-suite generators of `exchange_clear.suites`."""

from exchange_clear import run_mechanism, satisfaction_profile, suites
from exchange_clear.auditors import _misreport_table
from exchange_clear.feasibility import clear_enumeration_cache


def test_strategyproofness_builds_each_misreport_table_once():
    # market-major order keeps a market's tables in the 16-entry memo until
    # every spec over that market and constraint set has been audited
    markets = suites.family(range(1, 31))
    clear_enumeration_cache()
    unsatisfied = set()
    probed = 0
    for market, spec, report in suites.strategyproofness(markets):
        probed += report.summary["agents_probed"]
        profile = satisfaction_profile(market, run_mechanism(market, spec))
        unsatisfied.update((market, spec.constraints, a) for a, sat in profile.items() if not sat)
    info = _misreport_table.cache_info()
    assert info.misses == len(unsatisfied) > 0
    assert info.hits + info.misses == probed
