"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: no pruning, no shared key machinery,
so these are safe oracles for the optimized code paths.
"""

import itertools
import random
from dataclasses import dataclass

from exchange_clear import (
    Agent,
    Allocation,
    AuditReport,
    ConsistencyViolation,
    Item,
    Market,
    MechanismSpec,
    audit_constrained_pareto,
    covers,
    enumerate_feasible,
    fixture,
    is_ir,
    is_sir,
    run_mechanism,
    satisfaction_profile,
    satisfies,
)
from exchange_clear.feasibility import feasible_with_profiles
from exchange_clear.mechanisms import check_priority
from exchange_clear.auditors import (
    VERDICT_CLEAN,
    VERDICT_VIOLATION,
    ManipulationWitness,
    MisreportBudget,
    _misreports_with_truncation,
    apply_misreport,
    realized_bundle,
    scripted_misreport,
)
from exchange_clear.feasibility import _desirable_ok


# The agent-level trade multigraph: one edge owner -> assignee per item that
# changes hands, decided by an exhaustive search over string edges.  The
# package decides the same structure over integer agent indices.

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


def naive_satisfies_constraints(market, allocation, constraints):
    """Conjunction of all constraint predicates over one allocation, deciding
    trade structure on the string-edge trade multigraph."""
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





def naive_enumerate(market, constraints):
    """All n^|O| total assignments filtered by the naive constraint predicate."""
    item_ids = market.item_ids
    out = []
    for assignees in itertools.product(market.agent_ids, repeat=len(item_ids)):
        alloc = Allocation(tuple(zip(item_ids, assignees)))
        if naive_satisfies_constraints(market, alloc, constraints):
            out.append(alloc)
    return out


def greedy_cp(market, priority, constraints):
    """Sequential-filtering formulation of the constrained priority mechanism:
    keep the allocations satisfying each agent in priority order whenever any
    survive, then take the canonically first."""
    candidates = enumerate_feasible(market, constraints)
    for agent_id in priority:
        satisfied = [a for a in candidates if satisfies(market, a, agent_id)]
        if satisfied:
            candidates = satisfied
    return candidates[0]


def two_agent_partner_market(seed):
    """A 2-agent market in the style of the bundled impossibility setting:
    every demand bundle draws from the partner's items only, so no endowment
    covers an own demand and the individual-rationality filter has no bite."""
    rng = random.Random(seed)
    owned = {
        "1": [f"a{i + 1}" for i in range(rng.randint(1, 2))],
        "2": [f"b{i + 1}" for i in range(rng.randint(1, 2))],
    }
    agents = []
    for me, other in (("1", "2"), ("2", "1")):
        pool = owned[other]
        bundles = set()
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, min(2, len(pool)))
            bundles.add(frozenset(rng.sample(pool, size)))
        agents.append(Agent(me, owned[me], bundles))
    items = tuple(Item(x) for ids in owned.values() for x in ids)
    return Market(tuple(agents), items)


def tiny_random_market(seed, max_agents=3, max_items=4):
    """Small random market for naive-vs-fast cross-checks."""
    rng = random.Random(seed)
    n = rng.randint(1, max_agents)
    agent_ids = [str(i) for i in range(1, n + 1)]
    item_ids = [f"o{i}" for i in range(1, rng.randint(n, max_items) + 1)]
    owner = {x: rng.choice(agent_ids) for x in item_ids}
    agents = []
    for agent_id in agent_ids:
        endow = [x for x in item_ids if owner[x] == agent_id]
        demands = set()
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, min(2, len(item_ids)))
            demands.add(frozenset(rng.sample(item_ids, size)))
        agents.append(Agent(agent_id, endow, demands))
    return Market(tuple(agents), tuple(Item(x) for x in item_ids))


def naive_consistency_pairs(count, params):
    """Build the (superset, subset) index pairs to test.

    The full feasible set is paired with every family member: all non-empty
    subsets in exhaustive mode, otherwise leave-one-outs plus seeded samples.
    Nested pairs inside the leave-one-out/sampled family are always added so
    contractions of already-contracted sets get exercised too.
    """
    everything = tuple(range(count))
    exhaustive = count <= params.exhaustive_limit

    loo_sampled = []
    if count > 1:
        loo_sampled.extend(tuple(j for j in range(count) if j != i) for i in range(count))
    rng = random.Random(params.seed)
    drawn = 0
    seen = set(loo_sampled)
    for _ in range(params.samples):
        bits = rng.getrandbits(count)
        while bits == 0:
            bits = rng.getrandbits(count)
        subset = tuple(i for i in range(count) if bits >> i & 1)
        drawn += 1
        if subset not in seen:
            seen.add(subset)
            loo_sampled.append(subset)

    if exhaustive:
        family = [
            combo
            for size in range(1, count + 1)
            for combo in itertools.combinations(range(count), size)
        ]
    else:
        family = list(loo_sampled)

    pairs = [(everything, subset) for subset in family]
    nested = 0
    as_sets = [frozenset(s) for s in loo_sampled]
    for i, sup in enumerate(loo_sampled):
        for j, sub in enumerate(loo_sampled):
            if i != j and as_sets[j] < as_sets[i]:
                pairs.append((sup, sub))
                nested += 1
    stats = {
        "exhaustive": int(exhaustive),
        "samples_drawn": drawn,
        "nested_pairs_tested": nested,
        "pairs_tested": len(pairs),
        "seed": params.seed,
    }
    return pairs, stats


def naive_weak_consistency(allocations, profiles, agent_ids, choose, params):
    """Materialize every (superset, subset) index pair and call `choose` on
    both sides of each; the reference for the package's weak-consistency
    engine, which takes the same arguments and must report the same bytes."""
    pairs, stats = naive_consistency_pairs(len(allocations), params)

    def as_profile_dict(profile):
        return dict(zip(agent_ids, profile))

    def evaluate(pair):
        superset, subset = pair
        chosen = choose(superset)
        target = profiles[chosen]
        match = next((i for i in subset if profiles[i] == target), None)
        if match is None:
            return None
        contracted = choose(subset)
        if profiles[contracted] == target:
            return None
        return ConsistencyViolation(
            superset_size=len(superset),
            subset_size=len(subset),
            superset_choice=allocations[chosen],
            subset_choice=allocations[contracted],
            matching_allocation=allocations[match],
            superset_profile=as_profile_dict(target),
            subset_profile=as_profile_dict(profiles[contracted]),
        )

    results = [evaluate(pair) for pair in pairs]
    witnesses = tuple(w for w in results if w is not None)
    summary = {"feasible_count": len(allocations), **stats}
    return AuditReport(
        kind="weak-consistency",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=witnesses,
        summary=dict(sorted(summary.items())),
    )


def key_chooser(market, spec, profiles):
    """Argmax of the mechanism key over index tuples, ties to the lowest
    index, with the key tuple rebuilt per element; the reference for the
    best-first `order` chooser in `audit_weak_consistency`."""
    index_of = {agent_id: i for i, agent_id in enumerate(market.agent_ids)}
    order = [index_of[a] for a in spec.priority]
    cup = spec.kind == "cup"

    def key_of(i):
        key = tuple(profiles[i][j] for j in order)
        return ((sum(profiles[i]),) + key) if cup else key

    keys = [key_of(i) for i in range(len(profiles))]

    def choose(indices):
        return max(indices, key=lambda i: (keys[i], -i))

    return choose


def naive_audit_strategyproofness(market, spec, budget=None, search_budget=None):
    """The strategyproofness audit one (spec, scenario) at a time: every
    misreported market is rebuilt and the mechanism rerun on it for every
    spec, through the enumeration cache.  The package judges each agent's
    misreports once per market and constraint set and must report the same
    bytes."""
    budget = budget or MisreportBudget()
    check_priority(market, spec.priority)
    allocations, _ = feasible_with_profiles(market, spec.constraints, search_budget)
    truthful = run_mechanism(market, spec, search_budget)
    profile = satisfaction_profile(market, truthful)
    unsatisfied = [agent_id for agent_id in market.agent_ids if profile[agent_id] == 0]

    tasks = []
    truncated_agents = 0
    for agent_id in unsatisfied:
        scenarios, truncated = _misreports_with_truncation(market, agent_id, budget)
        tasks.extend(scenarios)
        truncated_agents += 1 if truncated else 0

    true_demands = {ag.id: ag.demands for ag in market.agents}

    def evaluate(scenario):
        misreported = apply_misreport(market, scenario)
        outcome = run_mechanism(misreported, spec, search_budget)
        realized = realized_bundle(outcome.bundle_of(scenario.agent), scenario.withheld)
        if covers(realized, true_demands[scenario.agent]):
            return ManipulationWitness(scenario, truthful, outcome, realized)
        return None

    witnesses = tuple(w for w in map(evaluate, tasks) if w is not None)

    return AuditReport(
        kind="strategyproofness",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=witnesses,
        summary={
            "agents_probed": len(unsatisfied),
            "feasible_count": len(allocations),
            "scenarios_examined": len(tasks),
            "truncated_agents": truncated_agents,
        },
    )


def naive_replicate_impossibility(search_budget: int | None = None) -> AuditReport:
    """Exercise every priority order and both mechanisms on the "theorem5"
    fixture without strong individual rationality, rerunning the mechanism
    on each scripted misreport through the enumeration cache.  The package
    judges the scripted misreports with the strategyproofness audit's rows
    and argmax and must report the same bytes.

    For each of the 12 runs the outcome is checked to be constrained Pareto
    optimal, at least one agent must be unsatisfied, and one of the scripted
    misreports must flip an unsatisfied agent to satisfied.  The individual
    rationality predicate is also confirmed to hold on the whole feasible set
    (no agent's endowment satisfies her, so that filter cannot bite).  The
    "violation" verdict means the impossibility replicated, which is the
    expected outcome.
    """
    fx = fixture("theorem5")
    market, constraints = fx.market, fx.constraints
    allocations, _ = feasible_with_profiles(market, constraints, search_budget)
    ir_identity = all(is_ir(market, alloc) for alloc in allocations)

    witnesses = []
    runs = manipulated = pareto_ok_runs = runs_with_unsat = 0
    for kind in ("cp", "cup"):
        for priority in itertools.permutations(market.agent_ids):
            runs += 1
            spec = MechanismSpec(kind, priority, constraints)
            outcome = run_mechanism(market, spec, search_budget)
            profile = satisfaction_profile(market, outcome)
            if not audit_constrained_pareto(market, outcome, constraints, search_budget).violation_found:
                pareto_ok_runs += 1
            unsatisfied = [a for a in market.agent_ids if profile[a] == 0]
            if unsatisfied:
                runs_with_unsat += 1
            for agent_id in unsatisfied:
                scenario = scripted_misreport(fx, agent_id)
                misreported = apply_misreport(market, scenario)
                mis_outcome = run_mechanism(misreported, spec, search_budget)
                realized = realized_bundle(mis_outcome.bundle_of(agent_id), scenario.withheld)
                if covers(realized, market.agent(agent_id).demands):
                    witnesses.append(
                        ManipulationWitness(scenario, outcome, mis_outcome, realized)
                    )
                    manipulated += 1
                    break

    replicated = (
        ir_identity and manipulated == runs and pareto_ok_runs == runs and runs_with_unsat == runs
    )
    return AuditReport(
        kind="impossibility-replication",
        verdict=VERDICT_VIOLATION if replicated else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary={
            "feasible_count": len(allocations),
            "ir_filter_identity": int(ir_identity),
            "manipulations_found": manipulated,
            "pareto_optimal_runs": pareto_ok_runs,
            "runs": runs,
            "runs_with_unsatisfied": runs_with_unsat,
        },
    )
