"""The seeded property suites behind the paper's positive results: `cp` and
`cup` are weakly consistent, hence strategyproof under any constraint set,
and constrained Pareto optimal.  Each generator runs one check for both
mechanisms under every built-in set containing `sir` and yields the results
for the caller to judge.  All are market-major, with the specs of one
(market, constraint set) back to back.  The strategyproofness audit's
misreport tables live in the true market's enumeration cache entry, so
each is built once in any order while that entry stays cached.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .auditors import audit_constrained_pareto, audit_strategyproofness, audit_weak_consistency
from .core import Market
from .feasibility import BUILT_IN_CONSTRAINT_SETS, SIR
from .instances import GeneratorConfig, generate_instance
from .mechanisms import MECHANISM_KINDS, MechanismSpec, run_mechanism

SIR_SETS = {name: cs for name, cs in BUILT_IN_CONSTRAINT_SETS.items() if SIR in cs}


def family(seeds: Iterable[int]) -> list[Market]:
    """One market per seed, drawn with the generator's default config."""
    return [generate_instance(GeneratorConfig(seed=seed)) for seed in seeds]


def _specs(markets: Iterable[Market], orders):
    """(market, constraint set, cp and cup specs under each of `orders(agent_ids)`)."""
    for market in markets:
        priorities = list(orders(market.agent_ids))
        for cs in SIR_SETS.values():
            yield market, cs, [MechanismSpec(k, p, cs) for k in MECHANISM_KINDS for p in priorities]


def strategyproofness(markets: Iterable[Market]):
    """(market, spec, strategyproofness report) under every priority order."""
    for market, _, specs in _specs(markets, itertools.permutations):
        for spec in specs:
            yield market, spec, audit_strategyproofness(market, spec)


def weak_consistency(markets: Iterable[Market]):
    """(market, spec, weak-consistency report) under the canonical priority
    order and its reverse."""
    for market, _, specs in _specs(markets, lambda ids: (ids, ids[::-1])):
        for spec in specs:
            yield market, spec, audit_weak_consistency(market, spec)


def outcomes(markets: Iterable[Market]):
    """(market, spec, outcome, constrained-Pareto report of the outcome)
    under every priority order."""
    for market, cs, specs in _specs(markets, itertools.permutations):
        for spec in specs:
            outcome = run_mechanism(market, spec)
            yield market, spec, outcome, audit_constrained_pareto(market, outcome, cs)
