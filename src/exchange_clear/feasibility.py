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


Edge = tuple[str, str, str]  # (giving agent, receiving agent, item id)


@dataclass(frozen=True)
class TradeGraph:
    """Directed multigraph over agent ids: one edge per item that changes hands."""

    agents: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def balanced(self) -> bool:
        """Every agent gives exactly as many items as she receives."""
        delta: dict[str, int] = {}
        for src, dst, _ in self.edges:
            delta[src] = delta.get(src, 0) + 1
            delta[dst] = delta.get(dst, 0) - 1
        return all(v == 0 for v in delta.values())


@dataclass(frozen=True)
class CycleDecomposition:
    """A partition of a trade graph's edges into directed closed walks."""

    walks: tuple[tuple[Edge, ...], ...]

    @property
    def agent_counts(self) -> tuple[int, ...]:
        return tuple(len({a for e in walk for a in e[:2]}) for walk in self.walks)


def trade_graph(market: Market, allocation: Allocation) -> TradeGraph:
    """Project an allocation onto the agent-level trade multigraph."""
    edges = []
    for ag in market.agents:
        for item_id in ag.endowment:
            assignee = allocation.agent_of(item_id)
            if assignee != ag.id:
                edges.append((ag.id, assignee, item_id))
    return TradeGraph(market.agent_ids, tuple(edges))


def _partition_into_cycles(edges: tuple[Edge, ...], cap: int) -> list[list[Edge]] | None:
    """Exhaustively search for a partition of `edges` into simple directed cycles,
    each visiting at most `cap` distinct agents.

    Any partition into closed walks with the cap exists iff a partition into
    simple cycles with the cap does (a closed walk splits into simple cycles
    over subsets of its agents), so searching simple cycles loses nothing.
    Deterministic: edges are tried in canonical sorted order.
    """
    if not edges:
        return []
    if cap < 2:
        return None  # trade edges never self-loop, so any cycle has >= 2 agents
    by_src: dict[str, list[int]] = {}
    for idx, (src, _, _) in enumerate(edges):
        by_src.setdefault(src, []).append(idx)
    used = [False] * len(edges)

    def next_unused() -> int | None:
        for idx, flag in enumerate(used):
            if not flag:
                return idx
        return None

    def solve() -> list[list[Edge]] | None:
        first = next_unused()
        if first is None:
            return []
        start, current, _ = edges[first]
        used[first] = True
        result = extend(start, edges[first][1], {start, current}, [first])
        if result is None:
            used[first] = False
        return result

    def extend(start: str, current: str, visited: set[str], path: list[int]) -> list[list[Edge]] | None:
        for idx in by_src.get(current, ()):
            if used[idx]:
                continue
            dst = edges[idx][1]
            if dst == start:
                used[idx] = True
                rest = solve()
                if rest is not None:
                    return [[edges[j] for j in path + [idx]]] + rest
                used[idx] = False
            elif dst not in visited and len(visited) < cap:
                used[idx] = True
                result = extend(start, dst, visited | {dst}, path + [idx])
                if result is not None:
                    return result
                used[idx] = False
        return None

    return solve()


def find_cycle_decomposition(graph: TradeGraph, max_agents: int) -> CycleDecomposition | None:
    """Partition the graph's edges into closed walks of at most `max_agents`
    distinct agents each, or return None when no such partition exists."""
    if not graph.balanced():
        return None  # each closed walk is balanced at every agent, so a partition needs balance
    cycles = _partition_into_cycles(graph.edges, max_agents)
    if cycles is None:
        return None
    return CycleDecomposition(tuple(tuple(c) for c in cycles))


def _pair_balance_ok(edges: tuple[Edge, ...]) -> bool:
    counts: dict[tuple[str, str], int] = {}
    for src, dst, _ in edges:
        counts[(src, dst)] = counts.get((src, dst), 0) + 1
    return all(counts.get((dst, src), 0) == n for (src, dst), n in counts.items())


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
    graph = None
    for c in constraints:
        if c.kind == "unrestricted":
            continue
        if c.kind == "sir":
            if not is_sir(market, allocation):
                return False
        elif c.kind == "ir":
            if not is_ir(market, allocation):
                return False
        elif c.kind == "desirable":
            if not _desirable_ok(market, allocation):
                return False
        else:
            if graph is None:
                graph = trade_graph(market, allocation)
            if c.kind == "pairwise":
                if not _pair_balance_ok(graph.edges) or find_cycle_decomposition(graph, 2) is None:
                    return False
            elif find_cycle_decomposition(graph, c.limit) is None:
                return False
    return True


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
        self.cycle_caps = sorted(c.limit for c in constraints if c.kind == "maxcycle")

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

    def _graph_ok(self, masks: list[int]) -> bool:
        if not (self.need_pairwise or self.cycle_caps):
            return True
        assignee = [0] * self.m
        for i, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                assignee[low.bit_length() - 1] = i
                mask ^= low
        counts: dict[tuple[int, int], int] = {}
        for p in range(self.m):
            src, dst = self.owner[p], assignee[p]
            if src != dst:
                counts[(src, dst)] = counts.get((src, dst), 0) + 1
        if self.need_pairwise:
            if any(counts.get((dst, src), 0) != n for (src, dst), n in counts.items()):
                return False
        if self.cycle_caps:
            delta = [0] * self.n
            for (src, dst), n in counts.items():
                delta[src] += n
                delta[dst] -= n
            if any(delta):
                return False
            # union-find over agents that trade; a balanced component of k
            # agents always decomposes into walks of <= k agents
            parent = list(range(self.n))

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
            for cap in self.cycle_caps:
                if all(len(members) <= cap for members in comp_agents.values()):
                    continue
                agent_ids = self.market.agent_ids
                item_by_pos = self.market.item_ids
                edges = tuple(
                    sorted(
                        (agent_ids[self.owner[p]], agent_ids[assignee[p]], item_by_pos[p])
                        for p in range(self.m)
                        if self.owner[p] != assignee[p]
                    )
                )
                if _partition_into_cycles(edges, cap) is None:
                    return False
        return True

    def run(self) -> list[tuple[Allocation, tuple[int, ...]]]:
        cand_lists = [self._candidates(i) for i in range(self.n)]
        cand_sets = [set(c) for c in cand_lists]
        results: list[tuple[tuple[int, ...], list[int]]] = []
        masks = [0] * self.n
        item_count = self.m

        def recurse(idx: int, remaining: int) -> None:
            self._charge()
            if idx == self.n - 1:
                if remaining in cand_sets[idx]:
                    masks[idx] = remaining
                    if self._graph_ok(masks):
                        # agents are in id order, so assignee indices sort
                        # like the canonical key of assignee ids
                        key = tuple(
                            next(i for i in range(self.n) if masks[i] >> p & 1)
                            for p in range(item_count)
                        )
                        results.append((key, list(masks)))
                return
            for mask in cand_lists[idx]:
                if mask & ~remaining:
                    continue
                masks[idx] = mask
                recurse(idx + 1, remaining & ~mask)

        if self.n == 0:
            return []
        recurse(0, self.full)
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
