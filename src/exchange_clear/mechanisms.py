"""Priority-based clearing mechanisms as deterministic choice functions.

Both mechanisms pick the allocation with the lexicographically maximal key
over the feasible set.  The constrained-priority key is the vector of
satisfaction indicators read in priority order; the constrained-utilitarian
variant prepends the number of satisfied agents, so it first maximizes how
many agents are satisfied and only then applies the priority hierarchy.
Key ties are broken by canonical allocation order, which is sound because
key-tied allocations give every agent the same utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from .core import Allocation, Market, PriorityOrder
from .feasibility import ConstraintSet, FeasibleTable, feasible_with_profiles, resolve_budget, search_feasible

# No function here calls it, but the benchmark's traced run (bench/spans.py)
# wraps `mechanisms.satisfaction_profile` and stops when the name is missing,
# so it stays bound here.
from .core import satisfaction_profile

MECHANISM_KINDS = ("cp", "cup")


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism is its kind, a priority order, and the feasibility constraints."""

    kind: str
    priority: PriorityOrder
    constraints: ConstraintSet

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        object.__setattr__(self, "priority", tuple(self.priority))


def check_priority(market: Market, priority: Sequence[str]) -> PriorityOrder:
    """Validate that the priority order is a permutation of the market's
    agents, whose ids `market.agent_ids` holds already sorted."""
    priority = tuple(priority)
    if sorted(priority) != list(market.agent_ids):
        raise ValueError(
            f"priority order {priority!r} is not a permutation of agents {market.agent_ids!r}"
        )
    return priority


def _weights(market: Market, spec: MechanismSpec) -> list[int]:
    """The mechanism key as integers: one weight per agent, canonical agent
    order.  The agent at priority rank r weighs 2**(n-1-r), plus 2**n under
    cup so that the satisfied count comes first.  Summed over a profile's
    satisfied agents, they order profiles as the lexicographic keys do."""
    n = len(check_priority(market, spec.priority))
    rank = {agent_id: r for r, agent_id in enumerate(spec.priority)}
    count = 1 << n if spec.kind == "cup" else 0
    return [count + (1 << n - 1 - rank[agent_id]) for agent_id in market.agent_ids]


def profile_key(market: Market, spec: MechanismSpec) -> Callable[[tuple[int, ...]], int]:
    """The mechanism key of a satisfaction profile (0/1 per agent, canonical
    agent order): the sum of its satisfied agents' :func:`_weights`.
    Distinct profiles get distinct keys."""
    weights = _weights(market, spec)
    return lambda profile: sum(compress(weights, profile))


def best_profile(table: FeasibleTable, key: Callable[[tuple[int, ...]], int]) -> tuple[int, ...]:
    """The profile the mechanism picks from a feasible table: the one with
    the maximal key.  Its first holder, `table.first[profile]`, is the
    mechanism's choice."""
    if not table.first:
        raise ValueError("empty candidate list")
    # distinct profiles have distinct keys, so the best profile is unique;
    # allocations arrive in canonical order, so its first holder is also
    # the canonical tie-break winner
    return max(table.first, key=key)


def run_mechanism(market: Market, spec: MechanismSpec, budget: int | None = None) -> Allocation:
    """Run the mechanism over the full feasible set of its constraint set,
    read from the enumeration cache: callers that run many specs on one
    market, or audit the same table, pay for the search once."""
    key = profile_key(market, spec)
    table = feasible_with_profiles(market, spec.constraints, budget)
    return table[table.first[best_profile(table, key)]]


def solve(market: Market, spec: MechanismSpec, budget: int | None = None) -> Allocation:
    """The allocation :func:`run_mechanism` returns, from one uncached
    search bounded by the mechanism's key, for a caller that runs one spec
    once.  It charges no more nodes than the full search (see
    :func:`search_feasible`), so `budget` is reached later."""
    weights = _weights(market, spec)
    table = search_feasible(market, spec.constraints, resolve_budget(budget), weights)
    if not table:
        raise ValueError("empty candidate list")
    return table[0]
