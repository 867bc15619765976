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
from typing import Callable, Iterable, Sequence

from .core import Allocation, Market, PriorityOrder, satisfaction_profile
from .feasibility import ConstraintSet, feasible_with_profiles

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
    """Validate that the priority order is a permutation of the market's agents."""
    priority = tuple(priority)
    if sorted(priority) != sorted(market.agent_ids):
        raise ValueError(
            f"priority order {priority!r} is not a permutation of agents {market.agent_ids!r}"
        )
    return priority


def profile_key(market: Market, spec: MechanismSpec) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The mechanism key of a satisfaction profile (0/1 per agent, canonical
    agent order): (u_p1, ..., u_pn) for cp, with the satisfied count
    prepended for cup.  Distinct profiles get distinct keys."""
    check_priority(market, spec.priority)
    index_of = {agent_id: i for i, agent_id in enumerate(market.agent_ids)}
    order = [index_of[a] for a in spec.priority]
    if spec.kind == "cup":
        return lambda profile: (sum(profile),) + tuple(profile[i] for i in order)
    return lambda profile: tuple(profile[i] for i in order)


def lex_key(market: Market, allocation: Allocation, spec: MechanismSpec) -> tuple[int, ...]:
    """The maximized tuple of one allocation."""
    return profile_key(market, spec)(tuple(satisfaction_profile(market, allocation).values()))


def choose_from(market: Market, spec: MechanismSpec, candidates: Iterable[Allocation]) -> Allocation:
    """The candidate with the lexicographically maximal key; ties go to the
    canonically first allocation regardless of the candidates' list order."""
    key = profile_key(market, spec)
    ordered = sorted(candidates, key=lambda alloc: alloc.canonical_key)
    profiles = [tuple(satisfaction_profile(market, alloc).values()) for alloc in ordered]
    return ordered[chosen_index(profiles, key)]


def chosen_index(
    profiles: Sequence[tuple[int, ...]], key: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> int:
    """The index the mechanism picks from a feasible table: the first holder
    of the profile with the maximal key."""
    if not profiles:
        raise ValueError("empty candidate list")
    # distinct profiles have distinct keys, so the best profile is unique;
    # allocations arrive in canonical order, so its first holder is also
    # the canonical tie-break winner
    return profiles.index(max(set(profiles), key=key))


def run_mechanism(market: Market, spec: MechanismSpec, budget: int | None = None) -> Allocation:
    """Run the mechanism over the full feasible set of its constraint set."""
    key = profile_key(market, spec)
    allocations, profiles = feasible_with_profiles(market, spec.constraints, budget)
    return allocations[chosen_index(profiles, key)]


def run_cp(
    market: Market,
    priority: Sequence[str],
    constraints: ConstraintSet,
    budget: int | None = None,
) -> Allocation:
    return run_mechanism(market, MechanismSpec("cp", tuple(priority), constraints), budget)


def run_cup(
    market: Market,
    priority: Sequence[str],
    constraints: ConstraintSet,
    budget: int | None = None,
) -> Allocation:
    return run_mechanism(market, MechanismSpec("cup", tuple(priority), constraints), budget)
