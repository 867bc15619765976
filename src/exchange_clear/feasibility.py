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
item -> agent assignments: a depth-first search places the items in id
order, each with the agents in id order, so allocations come out in
canonical order.  After each placement it drops the branch as soon as one
agent can no longer meet a constraint with the items still unplaced:

- desirable: an agent is offered only items it owns, null items and items
  in its demands;
- sir: the assignee, the owner and every agent with the item in a live
  demand must still be able to end with exactly its endowment or to cover
  a demand from what it holds plus the unplaced items (so an item that one
  of them cannot do without goes to that agent);
- ir: the same coverage test for an agent whose endowment covers a demand;
- pairwise (and a cycle cap of 2, which is the same condition): for each
  agent j, the sum over i of max(0, gave(i -> j) - gave(j -> i)) is at most
  the number of j's own items still unplaced;
- other cycle caps: each agent's items received minus items given lie
  between minus the unplaced items of the others and its own unplaced
  items; components and the cycle partition are decided at the leaves.

Each test is exact once every item is placed, so the pruning never changes
the returned set.  The node budget counts the search's nodes (the root and
every placement that survives the tests) plus every step of the leaves'
cycle-partition search; past it the search aborts with
:class:`BudgetExceededError` (the instance is beyond desk scale).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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


def _partition_into_cycles(edges: list[tuple[int, int]], cap: int, charge: Callable[[], None]) -> bool:
    """Whether the (giver, receiver) `edges` partition into simple directed
    cycles, each visiting at most `cap` distinct agents.  Every step calls
    `charge`, which may raise to bound the search.

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
        charge()
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
        charge()
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


def _uncharged() -> None:
    pass


def _trade_ok(
    owner: list[int],
    assignee: list[int],
    n: int,
    pairwise: bool,
    cycle_cap: int | None,
    charge: Callable[[], None] = _uncharged,
) -> bool:
    """The trade-structure constraints over one allocation, given per endowed
    item the index of the agent that owns it and of the agent it goes to
    (agents are 0 .. n-1).  Each item that changes hands is an edge
    owner -> assignee.  Of several cycle caps only the smallest binds, so one
    is passed.  `charge` is called per step of the cycle-partition search."""
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
    return _partition_into_cycles(edges, cycle_cap, charge)


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


def resolve_budget(budget: int | None) -> int:
    """The node budget of a search: `budget` itself, else the value of
    EXCHANGE_CLEAR_BUDGET, else :data:`DEFAULT_SEARCH_BUDGET`."""
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


class _Search:
    """Item-major depth-first search for one (market, constraint set)."""

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
        # an item that no agent endows has owner -1 and makes no trade edge
        self.owner = [-1] * self.m
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

    def _charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"feasible-set search exceeded its budget of {self.budget} nodes; "
                f"raise it via {BUDGET_ENV_VAR} or an explicit budget argument"
            )

    def run(self) -> list[tuple[Allocation, tuple[int, ...]]]:
        """Assign items in id order, each to the agents in id order, so leaves
        come out in canonical order.  An item that one watched agent cannot
        do without goes to that agent (two such agents end the branch); every
        other placement is kept only if the receiver, the owner and the trade
        balances can still meet the constraints with the items not yet
        placed."""
        n, m, full = self.n, self.m, self.full
        endow, owner, live = self.endow, self.owner, self.live_demands
        # a cap of 2 is pairwise balance, which propagates
        pairwise, cycle_cap = self.need_pairwise or self.cycle_cap == 2, self.cycle_cap
        need_sir, need_ir = self.need_sir, self.need_ir
        charge = self._charge

        def covers(x: int, avail: int) -> bool:
            for d in live[x]:
                if not d & ~avail:
                    return True
            return False

        if self.need_desirable:
            receivable = [endow[i] | self.null_mask | self.desirable[i] for i in range(n)]
        else:
            receivable = [full] * n
        wanted = [0] * n  # items in some live demand of the agent
        for i in range(n):
            for d in live[i]:
                wanted[i] |= d
        # per item: who may receive it, and who may be unable to do without
        # it (under sir its owner and its demanders, under ir the demanders
        # whose endowment covers a demand)
        allowed = [tuple(a for a in range(n) if receivable[a] >> p & 1) for p in range(m)]
        if need_sir:
            watch = [tuple(x for x in range(n) if wanted[x] >> p & 1 or x == owner[p]) for p in range(m)]
        else:
            bound = [need_ir and covers(x, endow[x]) for x in range(n)]
            watch = [tuple(x for x in range(n) if wanted[x] >> p & 1 and bound[x]) for p in range(m)]
        rest_after = [full & ~((2 << p) - 1) for p in range(m)]
        own_left = [[(endow[j] & rest).bit_count() for j in range(n)] for rest in rest_after]
        # pairwise balance implies agent balance and every cap >= 2, so only a
        # cycle cap without it needs the balance bounds and the leaf check
        cap_only = cycle_cap is not None and not pairwise
        if cap_only:
            endowed = 0
            for mask in endow:
                endowed |= mask
            # the balance in - out of agent j can still reach 0 iff it lies
            # in [-(others' items unplaced), own items unplaced]
            bal_floor = [
                [k - (endowed & rest).bit_count() for k in left]
                for rest, left in zip(rest_after, own_left)
            ]
        traded = [p for p in range(m) if owner[p] >= 0]
        edge_owner = [owner[p] for p in traded]

        held = [0] * n
        assign = [0] * m
        gave = [[0] * n for _ in range(n)]  # gave[i][j]: items i owns placed with j
        deficit = [0] * n  # sum over i of max(0, gave[i][j] - gave[j][i])
        bal = [0] * n  # items received minus own items given away
        # the cached table holds every allocation: share one (item, agent)
        # pair per cell and one tuple per distinct profile between them
        cells = [
            [(item_id, agent_id) for agent_id in self.market.agent_ids]
            for item_id in self.market.item_ids
        ]
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        out: list[tuple[Allocation, tuple[int, ...]]] = []

        def admissible(p: int, a: int, o: int) -> bool:
            rest = rest_after[p]
            # under sir the receiver of an item not its own must end covered
            if need_sir and a != o and not covers(a, held[a] | rest):
                return False
            if o < 0:
                return True
            left = own_left[p]
            if pairwise and (deficit[a] > left[a] or deficit[o] > left[o]):
                return False
            if cap_only:
                for b, lo, hi in zip(bal, bal_floor[p], left):
                    if b < lo or b > hi:
                        return False
            return True

        def descend(p: int) -> None:
            charge()
            if p == m:
                if cap_only and not _trade_ok(
                    edge_owner, [assign[q] for q in traded], n, False, cycle_cap, charge
                ):
                    return
                profile = tuple(1 if covers(i, held[i]) else 0 for i in range(n))
                alloc = Allocation(tuple(cells[q][a] for q, a in enumerate(assign)))
                out.append((alloc, interned.setdefault(profile, profile)))
                return
            o = owner[p]
            bit = 1 << p
            rest = rest_after[p]
            placed = full ^ rest
            # a watched agent that cannot do without the item must receive it
            claims = [
                x for x in watch[p]
                if not (need_sir and held[x] == endow[x] & placed) and not covers(x, held[x] | rest)
            ]
            if not claims:
                receivers = allowed[p]
            elif len(claims) == 1 and claims[0] in allowed[p]:
                receivers = claims
            else:
                return
            for a in receivers:
                held[a] |= bit
                assign[p] = a
                trade = o >= 0 and a != o
                if trade:
                    gave[o][a] += 1
                    repays = gave[o][a] <= gave[a][o]
                    if repays:
                        deficit[o] -= 1
                    else:
                        deficit[a] += 1
                    bal[a] += 1
                    bal[o] -= 1
                if admissible(p, a, o):
                    descend(p + 1)
                held[a] ^= bit
                if trade:
                    gave[o][a] -= 1
                    if repays:
                        deficit[o] += 1
                    else:
                        deficit[a] -= 1
                    bal[a] -= 1
                    bal[o] += 1

        try:
            descend(0)
        finally:
            descend = covers = admissible = None  # break the closures' reference cycles
        return out


_memos: list = []


def enumeration_memo(maxsize: int):
    """An `lru_cache` of `maxsize` entries that :func:`clear_enumeration_cache`
    also empties; for memos whose entries are built from feasible sets."""

    def decorate(fn):
        memo = lru_cache(maxsize=maxsize)(fn)
        _memos.append(memo)
        return memo

    return decorate


def search_feasible(
    market: Market, constraints: ConstraintSet, budget: int
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    """What :func:`feasible_with_profiles` returns, searched afresh on every
    call and never cached: for markets that are searched once, such as the
    strategyproofness audit's misreported ones.  `budget` is the node
    budget itself (see :func:`resolve_budget`)."""
    pairs = _Search(market, constraints, budget).run()
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


@enumeration_memo(4096)
def _feasible_profiles_cached(
    market: Market, constraints: ConstraintSet, budget: int
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    return search_feasible(market, constraints, budget)


def feasible_with_profiles(
    market: Market, constraints: ConstraintSet, budget: int | None = None
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    """Feasible allocations in canonical order plus their satisfaction profiles
    (0/1 per agent, canonical agent order).  Cached; shared by the mechanisms
    and the auditors so repeated runs over one instance pay for the search once.
    """
    return _feasible_profiles_cached(market, constraints, resolve_budget(budget))


def enumerate_feasible(
    market: Market, constraints: ConstraintSet, budget: int | None = None
) -> list[Allocation]:
    """All total item->agent assignments passing the constraint set.

    Returned in canonical order: lexicographic by the tuple of assignee ids
    read in canonical item order.  The search prunes placements that no
    completion can make feasible but is exhaustive: pruning never changes
    the returned set, which is cross-checked against a naive enumerator in
    the tests.
    """
    allocs, _ = feasible_with_profiles(market, constraints, budget)
    return list(allocs)


def clear_enumeration_cache() -> None:
    """Empty the enumeration cache and every memo built on feasible sets
    (the strategyproofness audit's misreport tables)."""
    for memo in _memos:
        memo.cache_clear()
