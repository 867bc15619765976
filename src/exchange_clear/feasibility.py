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

Under sir the agents are also tested jointly, after each placement that
trades its item (to an agent other than its owner, or an item nobody owns)
while items remain unplaced.  Each agent has options, each reserving some
unplaced items: keeping its endowment, allowed while it holds exactly its own
placed items, reserves its own unplaced items; covering a live demand d that
lies within its holding plus the unplaced items reserves the unplaced items
of d.  An agent with an option that reserves nothing is left out, and the
branch ends when the others cannot take one option each with pairwise
disjoint reservations.  This is sound: in any feasible completion every
agent ends with its endowment or covers a demand, which is taking an option,
and every item goes to one agent, so those options' reservations are
disjoint.  The per-agent tests see one agent at a time and miss two agents
that need the same unplaced item.  Agents with a single option are joined
first; the choices of the others are searched depth-first (`pack`), which can
branch exponentially, so each of its steps that fails is charged as a node.

Under sir the search also runs one such test at the root, before any item
is placed, over every live demand at once.  There a packing takes one option
per agent, keeping its endowment or reserving one live demand, with pairwise
disjoint reservations; in every feasible allocation the agents' justifying
options form one.  So a demand that lies in no packing is never covered, and
the root pass drops it: the placements, the watch lists, the joint test, the
frontier bound and the leaf profiles all read the pruned demands.  A demand
that meets no other agent's endowment lies in the packing where everyone
else keeps, as does every demand within the agent's own endowment, so the
ir test never changes; the others are refuted by a depth-first packing
search whose failed steps are charged as nodes.  The argument ignores trade
structure, so it holds under pairwise balance and cycle caps.  Without sir
an agent need not end covered, so the pass runs only under sir; under
desirable, what an agent may receive still comes from its demands as
written.

Each test is exact once every item is placed, so the pruning never changes
the returned set.  Within one search each agent's coverage test is memoized
on the available items it demands, and the trade counters exist only under
pairwise balance or a cycle cap.  The search returns the allocations, their
satisfaction profiles and its node count: the root, every placement that
survives the tests, every failed step of the root pass's and the joint
test's packings and every step of the leaves' cycle-partition search.  Past the node budget it aborts
with :class:`BudgetExceededError` (the instance is beyond desk scale).

A search is two steps.  `_compile` turns (market, constraint set) into the
value the depth-first search reads: item bits, endowment masks, owners,
each agent's live demands, the items each agent may receive and the
trade-balance bounds.  `_search` runs over that value and never writes it:
under sir it prunes the live demands first, and from the demands it
searches with it builds each agent's wanted items, coverage memo and watch
lists, and the receiver lists (who may receive each item) from what each
agent may receive.  `search_feasible` is the two in turn.  The
strategyproofness audit searches many reports of one agent that differ
only in its demands, so `_with_demands` derives the value for another
demand report from a compiled base: it replaces that agent's demands and
(under desirable) what it may receive, and shares every other field.

The frontier mode serves a caller that runs one mechanism spec once (the
command line's `solve`).  Both mechanisms rank a satisfaction profile above
every profile it contains, so their choice is the first holder of a profile
on the Pareto frontier of the feasible profiles.  The mode is the same
search, charged the same way, keeping profiles as agent bitmasks.  Once a
profile is found, a node is pruned when the agents that can still be
covered (held plus unplaced items cover a live demand) lie inside a found
profile: no leaf below holds a profile outside it.  A leaf is kept only if
its profile lies inside no found profile (this test runs before the
cycle-partition search), and a kept leaf drops every found profile inside
its own.  A frontier profile lies inside no other feasible profile, so its
first holder is never pruned nor dropped, and the search returns exactly
the first holders of the frontier profiles, in canonical order.  It
charges far fewer nodes where many allocations share few profiles (the
generator-seed-3 ladder: n=6 `pairwise` 300,355 -> 35,906 nodes), so its
budget is reached later.  The cache, the audits and `run_mechanism` keep
the full table: they read all of it, or many specs' choices from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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
_BARE_KINDS = {c.kind: c for c in (UNRESTRICTED, SIR, IR, PAIRWISE_ONLY, DESIRABLE_ONLY)}


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
        if token in _BARE_KINDS:
            out.append(_BARE_KINDS[token])
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


def _decode(constraints: ConstraintSet) -> tuple[set[str], bool, int | None]:
    """The kinds in `constraints`, whether trades must be pairwise balanced,
    and the cycle cap left to check.  Only the smallest cap binds; a cap of 2
    is pairwise balance, which meets every cap, so under pairwise balance no
    cap is left."""
    kinds = {c.kind for c in constraints}
    cap = min((c.limit for c in constraints if c.kind == "maxcycle"), default=None)
    pairwise = "pairwise" in kinds or cap == 2
    return kinds, pairwise, None if pairwise else cap


@lru_cache(maxsize=256)
def _canonical(constraints: ConstraintSet) -> ConstraintSet:
    """One spelling per feasible set: the sir, ir and desirable constraints
    of `constraints`, then pairwise balance or the cycle cap left to check
    (see :func:`_decode`).  `sir,maxcycle=2` and `sir,pairwise` become one
    set, and so do `pairwise,maxcycle=3` and `pairwise`; the cache keys on
    it, so such sets share one table."""
    kinds, pairwise, cycle_cap = _decode(constraints)
    out = [_BARE_KINDS[kind] for kind in ("sir", "ir", "desirable") if kind in kinds]
    if pairwise:
        out.append(PAIRWISE_ONLY)
    elif cycle_cap:
        out.append(max_cycle_agents(cycle_cap))
    return ConstraintSet(tuple(out))


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
    owner -> assignee.  `pairwise` and `cycle_cap` are as :func:`_decode`
    returns them; both callers pass a cap unless `pairwise`.  `charge` is
    called per step of the cycle-partition search."""
    counts: dict[tuple[int, int], int] = {}
    for edge in zip(owner, assignee):
        if edge[0] != edge[1]:
            counts[edge] = counts.get(edge, 0) + 1
    if pairwise:
        return all(counts.get((dst, src), 0) == k for (src, dst), k in counts.items())
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
    kinds, pairwise, cycle_cap = _decode(constraints)
    if "sir" in kinds and not is_sir(market, allocation):
        return False
    if "ir" in kinds and not is_ir(market, allocation):
        return False
    if "desirable" in kinds and not _desirable_ok(market, allocation):
        return False
    if not pairwise and cycle_cap is None:
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
    return _trade_ok(owner, assignee, n + 1, pairwise, cycle_cap)


def resolve_budget(budget: int | None) -> int:
    """The node budget of a search: `budget` itself, else the value of
    EXCHANGE_CLEAR_BUDGET, else :data:`DEFAULT_SEARCH_BUDGET`."""
    if budget is not None:
        if type(budget) is not int or budget <= 0:
            raise ValueError(f"node budget must be a positive integer, got {budget!r}")
        return budget
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


class _Coverage(dict):
    """One agent's coverage test within one search, memoized: indexed by a
    mask of available items within its wanted items, 1 if one of its live
    `demands` (masks) lies inside, else 0."""

    def __init__(self, demands: list[int]):
        self.demands = demands

    def __missing__(self, avail: int) -> int:
        hit = self[avail] = 1 if any(not d & ~avail for d in self.demands) else 0
        return hit


class _Compiled(NamedTuple):
    """One (market, constraint set) as the search reads it: items are the
    bits 0 .. m-1 in id order, agents the indices 0 .. n-1 in id order.
    :func:`_compile` builds it from a market, :func:`_with_demands` derives
    it for another demand report of one agent.  Nothing writes it, so
    derived values share every field they do not replace.  The wanted
    items, coverage memos and watch lists read the live demands, which under
    sir the search narrows first, so the search builds them, and it builds
    the receiver lists from `receivable` beside them."""

    pos: dict[str, int]  # item id -> bit
    null: int  # the null items
    desirable: bool
    need_sir: bool
    need_ir: bool
    pairwise: bool
    cycle_cap: int | None
    endow: list[int]
    owner: list[int]  # an item that no agent endows has owner -1 and makes no trade edge
    live: list[list[int]]  # per agent, its demands that lie within the market
    receivable: list[int]  # per agent, the items it may receive
    rest_after: list[int]  # per item p, the items after p
    own_left: list[list[int]]  # per item p and agent j, j's own items after p
    # per item p, the endowed items after p: under a cycle cap the balance
    # in - out of agent j after item p can still reach 0 iff it lies in
    # [own_left[p][j] - endowed_left[p], own_left[p][j]]
    endowed_left: list[int]
    traded: list[int]  # the endowed items
    edge_owner: list[int]  # their owners
    # the cached table holds every allocation: they share one (item, agent)
    # pair per cell
    cells: list[list[tuple[str, str]]]


def _mask(pos: dict[str, int], ids) -> int:
    out = 0
    for item_id in ids:
        out |= 1 << pos[item_id]
    return out


def _live(pos: dict[str, int], demands) -> list[int]:
    """The masks of the demands all of whose items are in the market; the
    others can never be covered."""
    return sorted({_mask(pos, d) for d in demands if all(x in pos for x in d)})


def _union(masks: list[int]) -> int:
    out = 0
    for bits in masks:
        out |= bits
    return out


def _receivable(pos: dict[str, int], null: int, endow: int, demands) -> int:
    """Under desirable, what an agent with endowment `endow` and demand
    bundles `demands` may receive: its own items, the `null` items and the
    items of its bundles as written, coverable or not."""
    return endow | null | _mask(pos, (x for d in demands for x in d if x in pos))


def _watch(c: _Compiled, wanted: list[int], cover: list[_Coverage]) -> list[tuple[tuple[int, int, int], ...]]:
    """Per item p, who may be unable to do without it (under sir its owner
    and its demanders, under ir the demanders whose endowment covers a
    demand), as (x, the holding that exempts x: under sir its own items up
    to p, else none, -1; x's wanted items), given each agent's `wanted`
    items and coverage memo `cover` from the demands searched with."""
    agents, endow = range(len(c.endow)), c.endow
    if c.need_sir:
        return [
            tuple([(x, endow[x] & ~rest, wanted[x]) for x in agents if wanted[x] >> p & 1 or x == o])
            for p, (rest, o) in enumerate(zip(c.rest_after, c.owner))
        ]
    bound = [w if c.need_ir and cover[x][endow[x] & w] else 0 for x, w in enumerate(wanted)]
    return [tuple([(x, -1, bound[x]) for x in agents if bound[x] >> p & 1]) for p in range(len(c.owner))]


def _compile(market: Market, constraints: ConstraintSet) -> _Compiled:
    """Everything the search reads of (market, constraints), built once."""
    kinds, pairwise, cycle_cap = _decode(constraints)
    agents, item_ids = market.agents, market.item_ids
    n, m = len(agents), len(item_ids)
    pos = {item_id: p for p, item_id in enumerate(item_ids)}
    full = (1 << m) - 1
    endow = [_mask(pos, ag.endowment) for ag in agents]
    owner = [-1] * m
    for i, ag in enumerate(agents):
        for item_id in ag.endowment:
            owner[pos[item_id]] = i
    live = [_live(pos, ag.demands) for ag in agents]
    rest_after = [full & ~((2 << p) - 1) for p in range(m)]
    own_left = [[(endow[j] & rest).bit_count() for j in range(n)] for rest in rest_after]
    endowed = _union(endow)
    traded = [p for p in range(m) if owner[p] >= 0]
    null = _mask(pos, market.null_item_ids)
    desirable = "desirable" in kinds
    if desirable:
        receivable = [_receivable(pos, null, endow[i], ag.demands) for i, ag in enumerate(agents)]
    else:
        receivable = [full] * n
    return _Compiled(
        pos=pos,
        null=null,
        desirable=desirable,
        need_sir="sir" in kinds,
        need_ir="ir" in kinds,
        pairwise=pairwise,
        cycle_cap=cycle_cap,
        endow=endow,
        owner=owner,
        live=live,
        receivable=receivable,
        rest_after=rest_after,
        own_left=own_left,
        endowed_left=[(endowed & rest).bit_count() for rest in rest_after],
        traded=traded,
        edge_owner=[owner[p] for p in traded],
        cells=[[(item_id, agent_id) for agent_id in market.agent_ids] for item_id in item_ids],
    )


def _with_demands(base: _Compiled, agent: int, demands) -> _Compiled:
    """`base` with agent index `agent` reporting the demand bundles
    `demands` (item ids; a bundle with an id outside the market can never be
    covered): what :func:`_compile` builds for the market with that report.
    The agent's demands and, under desirable, what it may receive are
    replaced, in copies."""
    live = list(base.live)
    live[agent] = _live(base.pos, demands)
    if not base.desirable:
        return base._replace(live=live)
    receivable = list(base.receivable)
    receivable[agent] = _receivable(base.pos, base.null, base.endow[agent], demands)
    return base._replace(live=live, receivable=receivable)


def _reservation_consistent(c: _Compiled, charge: Callable[[], None]) -> list[list[int]]:
    """Under sir, the live demands of `c` per agent without those that lie
    in no packing: a packing takes one option per agent, keeping its
    endowment or reserving one live demand, with pairwise disjoint
    reservations.  In a feasible
    allocation each agent keeps or covers a demand, so a demand in no
    packing is never covered and never justifies a bundle.  A demand that
    meets no other agent's endowment is in the packing where everyone else
    keeps.  The others are tried by :func:`_displace`, whose failed steps
    are charged; a packing it finds marks all its demands, and a demand
    found in none is no longer tried for the agents after."""
    endow, owner, live = c.endow, c.owner, c.live
    endowed = _union(endow)
    viable: set[tuple[int, int]] = set()
    options = list(live)
    for x, demands in enumerate(live):
        others = endowed & ~endow[x]
        kept = [
            d
            for d in demands
            if not d & others or (x, d) in viable or _displace(endow, owner, options, viable, d, others, charge)
        ]
        if len(kept) < len(demands):
            options[x] = kept
    return options


def _displace(
    endow: list[int],
    owner: list[int],
    options: list[list[int]],
    viable: set[tuple[int, int]],
    taken: int,
    keepers: int,
    charge: Callable[[], None],
) -> bool:
    """Whether a packing reserves `taken`, the union of the demands chosen
    so far, while the agents whose endowments make up `keepers` keep.  The
    owner of the first item in both cannot keep, so it takes in turn each of
    its `options` disjoint from `taken`.  The packing found adds its demands
    to `viable` as (agent index, demand); every step that fails is
    charged."""
    clash = taken & keepers
    if not clash:
        return True
    y = owner[(clash & -clash).bit_length() - 1]
    rest = keepers & ~endow[y]
    for e in options[y]:
        if not e & taken and _displace(endow, owner, options, viable, taken | e, rest, charge):
            viable.add((y, e))
            return True
    charge()
    return False


def search_feasible(
    market: Market, constraints: ConstraintSet, budget: int, frontier: bool = False
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...], int]:
    """Depth-first search of one (market, constraint set), uncached: markets
    searched once call it directly.  Returns the feasible allocations in
    canonical order, their satisfaction profiles and the number of nodes
    charged against `budget`, the node budget itself (see
    :func:`resolve_budget`); no state outlives the call.  With `frontier` it
    returns only the first holder of each profile on the Pareto frontier of
    the feasible profiles, in canonical order (see the module docstring).
    It is :func:`_search` of :func:`_compile`."""
    return _search(_compile(market, constraints), budget, frontier)


def _search(
    c: _Compiled, budget: int, frontier: bool = False
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...], int]:
    """:func:`search_feasible` over a compiled market.

    Items are assigned in id order, each to the agents in id order, so leaves
    come out in canonical order.  An item that one watched agent cannot do
    without goes to that agent (two such agents end the branch); every other
    placement is kept only if the receiver, the owner and the trade balances
    can still meet the constraints with the items not yet placed, and, under
    sir after a trade, if every agent can still reserve the unplaced items it
    needs without two agents reserving the same item (`reservable`).  Under
    sir the live demands are first narrowed to those in some packing
    (:func:`_reservation_consistent`), and the pass's failed steps are
    charged as nodes.
    Coverage tests go through a per-agent memo, built for this search and
    keyed on the available items the agent demands; the trade counters are
    updated only under pairwise balance (`gave`, `deficit`) or a cycle cap
    (`bal`)."""
    nodes = 0

    def charge() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"feasible-set search exceeded its budget of {budget} nodes; "
                f"raise it via {BUDGET_ENV_VAR} or an explicit budget argument"
            )

    need_sir, pairwise, cycle_cap = c.need_sir, c.pairwise, c.cycle_cap
    endow, owner = c.endow, c.owner
    live = _reservation_consistent(c, charge) if need_sir else c.live
    # cover[x][avail & wanted[x]]: 1 if agent x can cover a live demand
    # from the items `avail`, else 0 (an empty demand is always covered)
    wanted = [_union(ds) for ds in live]
    cover = [_Coverage(ds) for ds in live]
    rest_after, own_left, endowed_left = c.rest_after, c.own_left, c.endowed_left
    traded, edge_owner, cells = c.traded, c.edge_owner, c.cells
    n, m = len(endow), len(cells)
    watch = _watch(c, wanted, cover)
    # per item, the agents that may receive it
    if c.desirable:
        allowed = [tuple([a for a, bits in enumerate(c.receivable) if bits >> p & 1]) for p in range(m)]
    else:
        allowed = [tuple(range(n))] * m
    full = (1 << m) - 1

    held = [0] * n
    assign = [0] * m
    gave = [[0] * n for _ in range(n)]  # pairwise: gave[i][j] items i owns placed with j
    deficit = [0] * n  # pairwise: sum over i of max(0, gave[i][j] - gave[j][i])
    bal = [0] * n  # cycle cap: items received minus own items given away
    # one tuple per distinct profile between the allocations
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    allocations: list[Allocation] = []
    profiles: list[tuple[int, ...]] = []
    # frontier mode: the profiles found so far that no other found profile
    # contains, as agent bitmasks, each with its first holder, in the order
    # found
    found: dict[int, Allocation] = {}

    def reservable(p: int) -> bool:
        """Under sir, after item p is placed: whether every agent can still
        take one option (keep its endowment, or cover a live demand) so that
        the unplaced items the options reserve are pairwise disjoint.  An
        agent with an option that reserves nothing is left out."""
        rest = rest_after[p]
        options = []
        # agents with one option have no choice: their reservations are
        # joined as they are met, so two of them that clash end the test
        # before `pack` branches over the others (without this, audit-sp's
        # misreport searches take 6% longer and clear-cli's sir searches
        # charge 40% more nodes)
        taken = 0
        for h, mine, demands in zip(held, endow, live):
            lacking = ~(h | rest)
            # keeping the endowment: the agent holds exactly its own placed items
            reserves = [mine & rest] if h == mine & ~rest else []
            for d in demands:
                if not d & lacking:
                    reserves.append(d & rest)
            # never empty: at the root everyone can keep, and a placement
            # leaves its receiver covered (the receiver test) and the item's
            # owner and demanders able to keep or cover (the claim rule)
            if len(reserves) == 1:
                r = reserves[0]
                if r & taken:
                    return False
                taken |= r
            elif 0 not in reserves:
                options.append(reserves)
        return pack(options, 0, taken)

    def pack(options: list[list[int]], i: int, taken: int) -> bool:
        """Whether options[i:] admit one reservation each, pairwise disjoint
        and disjoint from `taken`.  The packing can branch exponentially, so
        every call that fails is a charged node; the calls that succeed form
        one path, one call per agent in `options` and the last."""
        if i == len(options) or any(not r & taken and pack(options, i + 1, taken | r) for r in options[i]):
            return True
        charge()
        return False

    def descend(p: int) -> None:
        charge()
        if frontier and (found or p == m):
            # the agents that some completion may cover (at a leaf, the
            # profile): a subtree whose bound a found profile contains
            # holds no new frontier profile (before the first leaf no
            # profile is found, so the bound is not needed)
            unplaced = full >> p << p  # items p.. are unplaced
            reach = 0
            for i in range(n):
                if cover[i][(held[i] | unplaced) & wanted[i]]:
                    reach |= 1 << i
            if any(not reach & ~f for f in found):
                return
        if p == m:
            if cycle_cap and not _trade_ok(
                edge_owner, [assign[q] for q in traded], n, False, cycle_cap, charge
            ):
                return
            allocation = Allocation._from_sorted(tuple([cells[q][a] for q, a in enumerate(assign)]))
            if frontier:
                for f in [f for f in found if not f & ~reach]:
                    del found[f]
                found[reach] = allocation
                return
            profile = tuple([cover[i][held[i] & wanted[i]] for i in range(n)])
            allocations.append(allocation)
            profiles.append(interned.setdefault(profile, profile))
            return
        rest = rest_after[p]
        # a watched agent that cannot do without the item must receive it
        claim = -1
        for x, kept, want in watch[p]:
            h = held[x]
            if h != kept and not cover[x][(h | rest) & want]:
                if claim >= 0:
                    return
                claim = x
        # a claimant may always receive the item: it is the owner, or the
        # item lies in one of its live demands and so among its desirable items
        receivers = allowed[p] if claim < 0 else (claim,)
        o = owner[p]
        bit = 1 << p
        unplaced = rest | bit
        left = own_left[p]
        for a in receivers:
            h = held[a]
            # under sir the receiver of an item not its own must end covered
            if need_sir and a != o and not cover[a][(h | unplaced) & wanted[a]]:
                continue
            held[a] = h | bit
            # a traded item may leave two agents needing the same unplaced
            # item (once none is left, the tests above are exact)
            if need_sir and a != o and rest and not reservable(p):
                held[a] = h
                continue
            assign[p] = a
            if o < 0 or not (pairwise or cycle_cap):
                descend(p + 1)
            elif pairwise:
                # the deficits the placement would leave are tested first,
                # and the counters change only for a placement that passes
                if a == o:
                    if deficit[o] <= left[o]:
                        descend(p + 1)
                elif gave[o][a] < gave[a][o]:  # o repays a
                    if deficit[o] - 1 <= left[o] and deficit[a] <= left[a]:
                        gave[o][a] += 1
                        deficit[o] -= 1
                        descend(p + 1)
                        gave[o][a] -= 1
                        deficit[o] += 1
                elif deficit[a] + 1 <= left[a] and deficit[o] <= left[o]:  # a now owes o
                    gave[o][a] += 1
                    deficit[a] += 1
                    descend(p + 1)
                    gave[o][a] -= 1
                    deficit[a] -= 1
            else:
                bal[a] += 1
                bal[o] -= 1
                endowed_after = endowed_left[p]
                for b, hi in zip(bal, left):
                    if b + endowed_after < hi or b > hi:
                        break
                else:
                    descend(p + 1)
                bal[a] -= 1
                bal[o] += 1
            held[a] = h

    try:
        descend(0)
    finally:
        descend = pack = None  # break the closures' reference cycles
    if frontier:
        allocations = list(found.values())
        profiles = [tuple([f >> i & 1 for i in range(n)]) for f in found]
    return tuple(allocations), tuple(profiles), nodes


@lru_cache(maxsize=4096)
def _feasible_profiles_cached(
    market: Market, constraints: ConstraintSet, budget: int
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...], dict]:
    """The enumeration cache: :func:`search_feasible`'s allocations and
    profiles plus an empty dict for the tables derived from them (see
    :func:`derived_tables`).  Its callers key it on :func:`_canonical`
    constraint sets."""
    allocations, profiles, _ = search_feasible(market, constraints, budget)
    return allocations, profiles, {}


def feasible_with_profiles(
    market: Market, constraints: ConstraintSet, budget: int | None = None
) -> tuple[tuple[Allocation, ...], tuple[tuple[int, ...], ...]]:
    """Feasible allocations in canonical order plus their satisfaction profiles
    (0/1 per agent, canonical agent order).  Cached; shared by the mechanisms
    and the auditors so repeated runs over one instance pay for the search once.
    """
    allocations, profiles, _ = _feasible_profiles_cached(market, _canonical(constraints), resolve_budget(budget))
    return allocations, profiles


def derived_tables(market: Market, constraints: ConstraintSet, budget: int) -> dict:
    """The dict of tables derived from the feasible table of (market,
    constraints) under node budget `budget` (see :func:`resolve_budget`),
    such as the strategyproofness audit's misreport tables and the
    weak-consistency audit's holder masks.  It lives in that table's
    enumeration cache entry, so its tables leave the cache with it, and
    constraint sets that define one feasible set share it."""
    return _feasible_profiles_cached(market, _canonical(constraints), budget)[2]


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
    """Empty the enumeration cache, and with it the tables derived from its
    entries (the strategyproofness audit's misreport tables)."""
    _feasible_profiles_cached.cache_clear()
