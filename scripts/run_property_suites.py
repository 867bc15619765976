#!/usr/bin/env python3
"""Run the seeded random-instance property suites and print per-suite stats.

Covers the strategyproofness, weak-consistency, Pareto-optimality, and
oracle-agreement checks over a configurable number of generated markets,
and checks that the one-shot `solve` (a search bounded by the mechanism's
key) picks what `run_mechanism` picks from the full feasible table.
Useful for longer soak runs than the frozen acceptance family.
"""

import argparse
import sys
import time

from exchange_clear import max_satisfied_oracle, satisfaction_profile, suites
from exchange_clear.mechanisms import solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    markets = suites.family(range(args.first_seed, args.first_seed + args.instances))
    print(f"{len(markets)} markets, constraint sets: {', '.join(suites.SIR_SETS)}")

    started = time.monotonic()
    sp = [len(report.witnesses) for *_, report in suites.strategyproofness(markets)]
    print(f"strategyproofness: {len(sp)} audits, {sum(sp)} witnesses "
          f"[{time.monotonic() - started:.0f}s]")

    tick = time.monotonic()
    wc = [len(report.witnesses) for *_, report in suites.weak_consistency(markets)]
    print(f"weak consistency: {len(wc)} audits, {sum(wc)} violations "
          f"[{time.monotonic() - tick:.0f}s]")

    tick = time.monotonic()
    runs = dominated = oracle_mismatches = solve_mismatches = 0
    oracles = {}  # the brute-force maximum satisfied count per (market, constraint set)
    for market, spec, outcome, pareto in suites.outcomes(markets):
        runs += 1
        dominated += pareto.violation_found
        if spec.kind == "cup":
            key = market, spec.constraints
            if key not in oracles:
                oracles[key] = max_satisfied_oracle(*key)
            oracle_mismatches += sum(satisfaction_profile(market, outcome).values()) != oracles[key]
        solve_mismatches += solve(market, spec) != outcome
    print(f"pareto + oracle: {runs} runs, {dominated} dominated outputs, "
          f"{oracle_mismatches} oracle mismatches, {solve_mismatches} solve mismatches "
          f"[{time.monotonic() - tick:.0f}s]")

    failed = sum(sp) or sum(wc) or dominated or oracle_mismatches or solve_mismatches
    print("RESULT:", "FAIL" if failed else "PASS",
          f"(total {time.monotonic() - started:.0f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
