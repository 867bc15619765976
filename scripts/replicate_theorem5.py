#!/usr/bin/env python3
"""Run the bundled three-agent impossibility replication and narrate each run.

For every priority order and both mechanisms, prints who ends up unsatisfied
on the truthful reports and which scripted demand restriction flips them to
satisfied.  Exits 2 when the impossibility replicated (the expected outcome),
mirroring the `exchange-clear replicate-theorem5` subcommand.
"""

import argparse
import sys

from exchange_clear import (
    fixture,
    impossibility_report,
    impossibility_runs,
    satisfaction_profile,
)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    runs = list(impossibility_runs())
    report = impossibility_report(runs)
    fx = fixture("theorem5")
    market = fx.market
    print(f"instance: {fx.name}  items={len(market.items)}  feasibility=pairwise+desirable")
    for agent in market.agents:
        print(f"  agent {agent.id}: endows {sorted(agent.endowment)}, "
              f"likes {sorted(agent.desirable)}")
    print()

    for spec, outcome, _, witness in runs:
        profile = satisfaction_profile(market, outcome)
        flipped = None if witness is None else witness.scenario.agent
        print(f"{spec.kind} priority={','.join(spec.priority)}  satisfied="
              f"{[a for a, u in profile.items() if u]}  "
              f"unsatisfied={[a for a, u in profile.items() if u == 0]}  "
              f"-> agent {flipped} gains by restricting her reported demands")

    print()
    print("aggregate:", report.verdict, report.summary)
    return 2 if report.violation_found else 0


if __name__ == "__main__":
    sys.exit(main())
