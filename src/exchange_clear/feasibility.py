"""Feasibility constraints and exhaustive enumeration of the feasible allocation set.

An allocation is viewed at the agent level as a directed trade multigraph:
one edge owner -> assignee per item that changes hands.  Cycle-cap
constraints ask for a partition of those edges into closed walks, each
visiting a bounded number of distinct agents; pairwise-only trading
additionally requires a one-for-one item balance between every agent pair
(for cap 2 the two conditions coincide, since a closed walk on two agents
must alternate directions).

Every built-in constraint set admits the endowment allocation, so the
feasible set is never empty.  Enumeration is exhaustive over total
item -> agent assignments with pruning that never changes the returned set,
and aborts with :class:`BudgetExceededError` once the search exceeds its
node budget (the instance is beyond desk scale).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .core import Allocation, Market, is_ir, is_sir

CONSTRAINT_KINDS = ("unrestricted", "sir", "ir", "maxcycle", "pairwise", "desirable")

DEFAULT_SEARCH_BUDGET = 10_000_000
BUDGET_ENV_VAR = "EXCHANGE_CLEAR_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search exceeds its configured node budget."""


@dataclass(frozen=True)
class Constraint:
    """One feasibility predicate; `limit` is only meaningful for kind "maxcycle"."""

    kind: str
    limit: int | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "maxcycle":
            if not isinstance(self.limit, int) or self.limit < 2:
                raise ValueError("maxcycle limit must be an integer >= 2")
        elif self.limit is not None:
            raise ValueError(f"constraint {self.kind!r} takes no limit")


UNRESTRICTED = Constraint("unrestricted")
SIR = Constraint("sir")
IR = Constraint("ir")
PAIRWISE_ONLY = Constraint("pairwise")
DESIRABLE_ONLY = Constraint("desirable")


def max_cycle_agents(limit: int) -> Constraint:
    return Constraint("maxcycle", limit)


@dataclass(frozen=True)
class ConstraintSet:
    """A conjunction of constraints."""

    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def __iter__(self):
        return iter(self.constraints)

    def __contains__(self, constraint: Constraint) -> bool:
        return constraint in self.constraints


def parse_constraints(text: str) -> ConstraintSet:
    """Parse the comma-separated spelling used on the command line.

    Accepted tokens: unrestricted, sir, ir, pairwise, desirable, maxcycle=<L>.
    """
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "unrestricted":
            out.append(UNRESTRICTED)
        elif token == "sir":
            out.append(SIR)
        elif token == "ir":
            out.append(IR)
        elif token == "pairwise":
            out.append(PAIRWISE_ONLY)
        elif token == "desirable":
            out.append(DESIRABLE_ONLY)
        elif token.startswith("maxcycle="):
            try:
                out.append(max_cycle_agents(int(token.split("=", 1)[1])))
            except ValueError as exc:
                raise ValueError(f"bad constraint token {token!r}: {exc}") from None
        else:
            raise ValueError(f"unknown constraint token {token!r}")
    return ConstraintSet(tuple(out))


def format_constraints(constraints: ConstraintSet) -> list[str]:
    out = []
    for c in constraints:
        out.append(f"maxcycle={c.limit}" if c.kind == "maxcycle" else c.kind)
    return out


#: Named constraint sets used by the property suites; every one of them
#: admits the endowment allocation.  The SIR-containing entries pair strong
#: individual rationality only with report-independent trade structure
#: (cycle caps, pairwise balance): desirability is derived from the demand
#: reports themselves, and combining it with SIR is demonstrably manipulable
#: (an agent can unlock blocked trades by over-reporting what she accepts),
#: so those combinations stay expressible but are not built-ins.
BUILT_IN_CONSTRAINT_SETS: dict[str, ConstraintSet] = {
    "unrestricted": ConstraintSet((UNRESTRICTED,)),
    "sir": ConstraintSet((SIR,)),
    "ir": ConstraintSet((IR,)),
    "maxcycle2": ConstraintSet((max_cycle_agents(2),)),
    "maxcycle3": ConstraintSet((max_cycle_agents(3),)),
    "pairwise": ConstraintSet((PAIRWISE_ONLY,)),
    "desirable": ConstraintSet((DESIRABLE_ONLY,)),
    "pairwise+desirable": ConstraintSet((PAIRWISE_ONLY, DESIRABLE_ONLY)),
    "sir+maxcycle2": ConstraintSet((SIR, max_cycle_agents(2))),
    "sir+maxcycle3": ConstraintSet((SIR, max_cycle_agents(3))),
    "sir+pairwise": ConstraintSet((SIR, PAIRWISE_ONLY)),
}


def _partition_into_cycles(edges: list[tuple[int, int]], cap: int) -> bool:
    """Whether the (giver, receiver) `edges` partition into simple directed
    cycles, each visiting at most `cap` distinct agents.

    Any partition into closed walks with the cap exists iff a partition into
    simple cycles with the cap does (a closed walk splits into simple cycles
    over subsets of its agents), so searching simple cycles loses nothing.
    Whether a partition exists does not depend on the order of `edges`.
    """
    by_src: dict[int, list[int]] = {}
    for idx, (src, _) in enumerate(edges):
        by_src.setdefault(src, []).append(idx)
    used = [False] * len(edges)

    def solve() -> bool:
        first = next((idx for idx, flag in enumerate(used) if not flag), None)
        if first is None:
            return True
        start, current = edges[first]
        used[first] = True
        if extend(start, current, {start, current}):
            return True
        used[first] = False
        return False

    def extend(start: int, current: int, visited: set[int]) -> bool:
        for idx in by_src.get(current, ()):
            if used[idx]:
                continue
            dst = edges[idx][1]
            if dst == start:
                used[idx] = True
                if solve():
                    return True
                used[idx] = False
            elif dst not in visited and len(visited) < cap:
                used[idx] = True
                if extend(start, dst, visited | {dst}):
                    return True
                used[idx] = False
        return False

    try:
        return solve()
    finally:
        solve = extend = None  # break the closures' reference cycle


def _trade_ok(
    owner: list[int], assignee: list[int], n: int, pairwise: bool, cycle_cap: int | None
) -> bool:
    """The trade-structure constraints over one allocation, given per item the
    index of the agent that owns it and of the agent it goes to (agents are
    0 .. n-1).  Each item that changes hands is an edge owner -> assignee.
    Of several cycle caps only the smallest binds, so one is passed."""
    counts: dict[tuple[int, int], int] = {}
    for edge in zip(owner, assignee):
        if edge[0] != edge[1]:
            counts[edge] = counts.get(edge, 0) + 1
    if pairwise:
        if any(counts.get((dst, src), 0) != k for (src, dst), k in counts.items()):
            return False
    if cycle_cap is None:
        return True
    delta = [0] * n
    for (src, dst), k in counts.items():
        delta[src] += k
        delta[dst] -= k
    if any(delta):
        return False  # each closed walk is balanced at every agent
    # union-find over agents that trade; a balanced component of k agents
    # always decomposes into walks of <= k agents
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst in counts:
        parent[find(src)] = find(dst)
    comp_agents: dict[int, set[int]] = {}
    for src, dst in counts:
        comp_agents.setdefault(find(src), set()).update((src, dst))
    if all(len(members) <= cycle_cap for members in comp_agents.values()):
        return True
    edges = [edge for edge in zip(owner, assignee) if edge[0] != edge[1]]
    return _partition_into_cycles(edges, cycle_cap)


def _desirable_ok(market: Market, allocation: Allocation) -> bool:
    null_ids = market.null_item_ids
    for ag in market.agents:
        received = allocation.bundle_of(ag.id) - ag.endowment
        for item_id in received:
            if item_id not in null_ids and item_id not in ag.desirable:
                return False
    return True


def satisfies_constraints(market: Market, allocation: Allocation, constraints: ConstraintSet) -> bool:
    """Conjunction of all constraint predicates over one allocation."""
    kinds = {c.kind for c in constraints}
    if "sir" in kinds and not is_sir(market, allocation):
        return False
    if "ir" in kinds and not is_ir(market, allocation):
        return False
    if "desirable" in kinds and not _desirable_ok(market, allocation):
        return False
    cycle_cap = min((c.limit for c in constraints if c.kind == "maxcycle"), default=None)
    if "pairwise" not in kinds and cycle_cap is None:
        return True
    n = len(market.agents)
    index = {agent_id: i for i, agent_id in enumerate(market.agent_ids)}
    owner: list[int] = []
    assignee: list[int] = []
    for i, ag in enumerate(market.agents):
        for item_id in ag.endowment:
            owner.append(i)
            # an agent outside the market only receives: index n stands for
            # all of them, so balance fails as it should
            assignee.append(index.get(allocation.agent_of(item_id), n))
    return _trade_ok(owner, assignee, n + 1, "pairwise" in kinds, cycle_cap)


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_SEARCH_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR}={env!r} must be positive: it is the search's node budget")
    return value


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class _Search:
    """Bitmask state for one (market, constraint set) enumeration."""

    def __init__(self, market: Market, constraints: ConstraintSet, budget: int):
        self.market = market
        self.budget = budget
        self.nodes = 0
        item_ids = market.item_ids
        self.m = len(item_ids)
        self.pos = {item_id: p for p, item_id in enumerate(item_ids)}
        self.full = (1 << self.m) - 1
        self.null_mask = self._mask(market.null_item_ids)

        self.agents = market.agents
        self.n = len(self.agents)
        self.endow = [self._mask(ag.endowment) for ag in self.agents]
        self.owner = [0] * self.m
        for i, ag in enumerate(self.agents):
            for item_id in ag.endowment:
                self.owner[self.pos[item_id]] = i
        # demands with items absent from the market can never be covered;
        # desirability still derives from demand bundles as written
        self.live_demands = []
        self.desirable = []
        for ag in self.agents:
            live = sorted(
                {self._mask(d) for d in ag.demands if all(x in self.pos for x in d)}
            )
            self.live_demands.append(live)
            self.desirable.append(self._mask(x for x in ag.desirable if x in self.pos))

        kinds = {c.kind for c in constraints}
        self.need_sir = "sir" in kinds
        self.need_ir = "ir" in kinds
        self.need_desirable = "desirable" in kinds
        self.need_pairwise = "pairwise" in kinds
        self.cycle_cap = min((c.limit for c in constraints if c.kind == "maxcycle"), default=None)

    def _mask(self, item_ids) -> int:
        mask = 0
        for item_id in item_ids:
            mask |= 1 << self.pos[item_id]
        return mask

    def _charge(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"feasible-set search exceeded its budget of {self.budget} nodes; "
                f"raise it via {BUDGET_ENV_VAR} or an explicit budget argument"
            )

    def _covers_live(self, mask: int, agent_idx: int) -> bool:
        return any(d & ~mask == 0 for d in self.live_demands[agent_idx])

    def _candidates(self, agent_idx: int) -> list[int]:
        """Bundle masks this agent may end up holding, given the per-agent
        constraints (receivable items, coverage obligations)."""
        endow = self.endow[agent_idx]
        if self.need_desirable:
            allowed = endow | self.null_mask | self.desirable[agent_idx]
        else:
            allowed = self.full
        must_cover = self.need_ir and self._covers_live(endow, agent_idx)
        cands: set[int] = set()
        if self.need_sir or must_cover:
            if self.need_sir:
                cands.add(endow)  # keeping the endowment is always admissible under SIR
            for d in self.live_demands[agent_idx]:
                if d & ~allowed:
                    continue
                free = allowed & ~d
                for sub in _submasks(free):
                    cands.add(d | sub)
                    self._charge()
        else:
            for sub in _submasks(allowed):
                cands.add(sub)
                self._charge()
        return sorted(cands)

    def run(self) -> list[tuple[Allocation, tuple[int, ...]]]:
        cand_lists = [self._candidates(i) for i in range(self.n)]
        cand_sets = [set(c) for c in cand_lists]
        results: list[tuple[tuple[int, ...], list[int]]] = []
        masks = [0] * self.n
        last = self.n - 1
        owner, n, pairwise, cycle_cap = self.owner, self.n, self.need_pairwise, self.cycle_cap
        check_trades = pairwise or cycle_cap is not None

        def recurse(idx: int, remaining: int) -> None:
            self._charge()
            if idx == last:
                if remaining in cand_sets[idx]:
                    masks[idx] = remaining
                    assignee = [0] * len(owner)
                    for i, mask in enumerate(masks):
                        while mask:
                            low = mask & -mask
                            assignee[low.bit_length() - 1] = i
                            mask ^= low
                    if not check_trades or _trade_ok(owner, assignee, n, pairwise, cycle_cap):
                        # agents are in id order, so assignee indices sort
                        # like the canonical key of assignee ids
                        results.append((tuple(assignee), list(masks)))
                return
            for mask in cand_lists[idx]:
                if mask & ~remaining:
                    continue
                masks[idx] = mask
                recurse(idx + 1, remaining & ~mask)

        if self.n == 0:
            return []
        try:
            recurse(0, self.full)
        finally:
            recurse = None  # break the closure's reference cycle
        results.sort(key=lambda r: r[0])

        # the cached table holds every allocation: share one (item, agent)
        # pair per cell and one tuple per distinct profile between them
        cells = [
            [(item_id, agent_id) for agent_id in self.market.agent_ids]
            for item_id in self.market.item_ids
        ]
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        out = []
        for key, final_masks in results:
            alloc = Allocation(tuple(cells[p][i] for p, i in enumerate(key)))
            profile = tuple(
                1 if self._covers_live(final_masks[i], i) else 0 for i in range(self.n)
            )
            out.append((alloc, interned.setdefault(profile, profile)))
        return out


@lru_cache(maxsize=4096)
def _feasible_profiles_cached(
    market: Market, constraints: ConstraintSet, budget: int
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    pairs = _Search(market, constraints, budget).run()
    allocs = tuple(p[0] for p in pairs)
    profiles = tuple(p[1] for p in pairs)
    return allocs, profiles


def feasible_with_profiles(
    market: Market, constraints: ConstraintSet, budget: int | None = None
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    """Feasible allocations in canonical order plus their satisfaction profiles
    (0/1 per agent, canonical agent order).  Cached; shared by the mechanisms
    and the auditors so repeated runs over one instance pay for the search once.
    """
    return _feasible_profiles_cached(market, constraints, _resolve_budget(budget))


def enumerate_feasible(
    market: Market, constraints: ConstraintSet, budget: int | None = None
) -> list[Allocation]:
    """All total item->agent assignments passing the constraint set.

    Returned in canonical order: lexicographic by the tuple of assignee ids
    read in canonical item order.  The search prunes (per-agent candidate
    bundles, partition bookkeeping) but is exhaustive: pruning never changes
    the returned set, which is cross-checked against a naive enumerator in
    the tests.
    """
    allocs, _ = feasible_with_profiles(market, constraints, budget)
    return list(allocs)


def clear_enumeration_cache() -> None:
    _feasible_profiles_cached.cache_clear()
