"""Domain model for multi-item exchange markets under single-minded dichotomous preferences.

An exchange market is a set of agents holding pairwise-disjoint endowments
that together partition the item pool, plus a demand set per agent: a
collection of target bundles, any one of which satisfies her.  Utilities are
the 0/1 satisfaction indicator, so the preference relation over bundles has
exactly two indifference classes per agent (satisfying above non-satisfying).

All ids are opaque strings; every deterministic ordering in this package is
the lexicographic order of ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

Bundle = frozenset[str]


def bundle_sort_key(b: Bundle) -> tuple[int, tuple[str, ...]]:
    """Canonical ordering of bundles: by size, then by sorted item ids."""
    return (len(b), tuple(sorted(b)))


def covers(candidate: Bundle, demands: Iterable[Bundle]) -> bool:
    """True iff the candidate bundle is a superset of at least one demand bundle."""
    return any(d <= candidate for d in demands)


@dataclass(frozen=True)
class Item:
    id: str
    is_null: bool = False


@dataclass(frozen=True)
class Agent:
    id: str
    endowment: Bundle
    demands: frozenset[Bundle] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "endowment", frozenset(self.endowment))
        object.__setattr__(self, "demands", frozenset(frozenset(d) for d in self.demands))

    @cached_property
    def desirable(self) -> Bundle:
        """Items appearing in at least one of the agent's demand bundles."""
        out: set[str] = set()
        for d in self.demands:
            out.update(d)
        return frozenset(out)


@dataclass(frozen=True)
class Market:
    """Agents plus the item pool; stored in canonical (id-sorted) order."""

    agents: tuple[Agent, ...]
    items: tuple[Item, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(sorted(self.agents, key=lambda a: a.id)))
        object.__setattr__(self, "items", tuple(sorted(self.items, key=lambda it: it.id)))

    @cached_property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    @cached_property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(it.id for it in self.items)

    @cached_property
    def agents_by_id(self) -> dict[str, Agent]:
        return {a.id: a for a in self.agents}

    @cached_property
    def items_by_id(self) -> dict[str, Item]:
        return {it.id: it for it in self.items}

    @cached_property
    def null_item_ids(self) -> Bundle:
        return frozenset(it.id for it in self.items if it.is_null)

    def agent(self, agent_id: str) -> Agent:
        try:
            return self.agents_by_id[agent_id]
        except KeyError:
            raise KeyError(f"unknown agent id: {agent_id!r}") from None


@dataclass(frozen=True)
class Allocation:
    """Total assignment of every item to exactly one agent.

    Stored as (item id, agent id) pairs sorted by item id, so equality,
    hashing and the canonical comparison key are all well defined.  An item
    kept by its owner is represented by assigning it back to her; items never
    vanish from an allocation.
    """

    assignment: tuple[tuple[str, str], ...]

    def __post_init__(self):
        raw = self.assignment
        pairs = sorted(raw.items()) if isinstance(raw, Mapping) else sorted(tuple(p) for p in raw)
        object.__setattr__(self, "assignment", tuple(pairs))

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)

    @cached_property
    def _bundles(self) -> dict[str, Bundle]:
        held: dict[str, set[str]] = {}
        for item_id, agent_id in self.assignment:
            held.setdefault(agent_id, set()).add(item_id)
        return {agent_id: frozenset(items) for agent_id, items in held.items()}

    @property
    def canonical_key(self) -> tuple[str, ...]:
        """Assignee ids read in canonical item order; the package-wide sort key."""
        return tuple(agent_id for _, agent_id in self.assignment)

    def agent_of(self, item_id: str) -> str:
        try:
            return self.as_dict[item_id]
        except KeyError:
            raise KeyError(f"item {item_id!r} not present in allocation") from None

    def bundle_of(self, agent_id: str) -> Bundle:
        return self._bundles.get(agent_id, frozenset())


PriorityOrder = tuple[str, ...]


def validate_market(market: Market) -> list[str]:
    """Check all market invariants; an empty list means the market is valid.

    Violations are returned as data (one message per problem, naming the
    offending agent/item ids) rather than raised, so callers can report all
    of them at once.
    """
    violations: list[str] = []
    if not market.agents:
        violations.append("market must have at least one agent")

    seen_items: set[str] = set()
    for it in market.items:
        if it.id in seen_items:
            violations.append(f"duplicate item id {it.id!r}")
        seen_items.add(it.id)

    seen_agents: set[str] = set()
    endowed_by: dict[str, str] = {}
    for ag in market.agents:
        if ag.id in seen_agents:
            violations.append(f"duplicate agent id {ag.id!r}")
        seen_agents.add(ag.id)
        for item_id in sorted(ag.endowment):
            if item_id not in seen_items:
                violations.append(f"agent {ag.id!r} endows unknown item {item_id!r}")
            elif item_id in endowed_by:
                violations.append(
                    f"endowments overlap: item {item_id!r} claimed by agents "
                    f"{endowed_by[item_id]!r} and {ag.id!r}"
                )
            else:
                endowed_by[item_id] = ag.id

    for item_id in market.item_ids:
        if item_id not in endowed_by:
            violations.append(f"item {item_id!r} endowed by no agent")

    null_ids = market.null_item_ids
    for ag in market.agents:
        for d in sorted(ag.demands, key=bundle_sort_key):
            for item_id in sorted(d):
                if item_id not in seen_items:
                    violations.append(f"unknown item in demand: agent {ag.id!r} demands {item_id!r}")
                elif item_id in null_ids:
                    violations.append(f"null item {item_id!r} in demand bundle of agent {ag.id!r}")
    return violations


def satisfies(market: Market, allocation: Allocation, agent_id: str) -> bool:
    """True iff the agent's allocated bundle covers one of her demand bundles."""
    agent = market.agent(agent_id)
    return covers(allocation.bundle_of(agent_id), agent.demands)


def utility(market: Market, allocation: Allocation, agent_id: str) -> int:
    """Satisfaction indicator: 1 iff satisfied, else 0."""
    return 1 if satisfies(market, allocation, agent_id) else 0


def satisfaction_profile(market: Market, allocation: Allocation) -> dict[str, int]:
    """Per-agent 0/1 satisfaction flags, keyed by agent id in canonical order."""
    return {ag.id: utility(market, allocation, ag.id) for ag in market.agents}


def weakly_prefers(market: Market, agent_id: str, bundle_x: Bundle, bundle_y: Bundle) -> bool:
    """Dichotomous weak preference: bundle_y satisfying the agent implies bundle_x does.

    Indifference is weak preference both ways; strict preference is weak
    preference exactly one way (a satisfying bundle over a non-satisfying one).
    """
    demands = market.agent(agent_id).demands
    return covers(bundle_x, demands) or not covers(bundle_y, demands)


def is_sir(market: Market, allocation: Allocation) -> bool:
    """Strong individual rationality: each agent keeps exactly her endowment or is satisfied."""
    for ag in market.agents:
        held = allocation.bundle_of(ag.id)
        if held != ag.endowment and not covers(held, ag.demands):
            return False
    return True


def is_ir(market: Market, allocation: Allocation) -> bool:
    """Individual rationality: an agent whose endowment already satisfies her stays satisfied."""
    for ag in market.agents:
        if covers(ag.endowment, ag.demands) and not covers(allocation.bundle_of(ag.id), ag.demands):
            return False
    return True


def pareto_dominates(market: Market, allocation_y: Allocation, allocation_x: Allocation) -> bool:
    """True iff allocation_y weakly improves every agent's satisfaction and strictly improves one."""
    strict = False
    for ag in market.agents:
        uy = utility(market, allocation_y, ag.id)
        ux = utility(market, allocation_x, ag.id)
        if uy < ux:
            return False
        if uy > ux:
            strict = True
    return strict


def endowment_allocation(market: Market) -> Allocation:
    """The no-trade allocation: every item assigned back to its endowing agent."""
    assignment = {}
    for ag in market.agents:
        for item_id in ag.endowment:
            assignment[item_id] = ag.id
    return Allocation(assignment)
