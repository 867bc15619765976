"""Empirical axiom audits: strategyproofness, weak consistency, constrained Pareto.

The audits are falsifiers, not verifiers.  A "violation" verdict always comes
with concrete, independently re-checkable witnesses; "no violation found" is
always relative to the searched space, whose size is recorded in the report
summary.  Two counterexample fixtures ship with the package: the three-agent
car/painting/bike market ("example1") whose feasible set under strong
individual rationality contains an allocation satisfying everyone, and a
three-agent pairwise-trading market ("theorem5") on which every priority
mechanism that is Pareto-optimal within the pairwise/desirable feasible set
can be manipulated by a scripted demand restriction.

The strategyproofness audit's unit of work is one (market, constraint set,
probed agent): its misreported markets are built and searched once, into a
misreport table that holds, per scenario, the distinct satisfaction profiles
with their first holders and whether that holder's realized bundle covers
the agent's true demands.  Every mechanism spec over that market and
constraint set is then judged by an argmax over the table.  The tables live
in a 16-entry memo (the agents of the last few markets), so a caller should
audit one market and constraint set back to back, as ``suites`` does.  The
impossibility replication judges the fixture's scripted misreports with the
same rows and argmax, so misreported markets never enter the enumeration
cache.  ``feasibility.clear_enumeration_cache`` empties both.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .core import (
    Agent,
    Allocation,
    Bundle,
    Item,
    Market,
    bundle_sort_key,
    covers,
    is_ir,
    satisfaction_profile,
    satisfies,
)
from .feasibility import (
    BUILT_IN_CONSTRAINT_SETS,
    ConstraintSet,
    enumeration_memo,
    enumerate_feasible,
    feasible_with_profiles,
    resolve_budget,
    search_feasible,
)
from .mechanisms import MechanismSpec, chosen_index, profile_key, run_mechanism

VERDICT_VIOLATION = "violation"
VERDICT_CLEAN = "no violation found"


@dataclass(frozen=True)
class MisreportScenario:
    """One misreport: a sub-endowment plus an arbitrary demand set.

    `withheld` is exactly the true endowment minus the reported one; withheld
    items stay with the agent but leave the market's item pool.
    """

    agent: str
    reported_endowment: Bundle
    reported_demands: frozenset[Bundle]
    withheld: Bundle

    def __post_init__(self):
        object.__setattr__(self, "reported_endowment", frozenset(self.reported_endowment))
        object.__setattr__(
            self, "reported_demands", frozenset(frozenset(d) for d in self.reported_demands)
        )
        object.__setattr__(self, "withheld", frozenset(self.withheld))
        if self.reported_endowment & self.withheld:
            raise ValueError("reported endowment and withheld items overlap")


def _check_int_fields(params, *signed: str) -> None:
    """ValueError naming the first field not an integer, or negative unless in `signed`."""
    for name in params.__dataclass_fields__:
        value = getattr(params, name)
        if type(value) is not int or (value < 0 and name not in signed):  # rejects bools too
            kind = "an integer" if name in signed else "a non-negative integer"
            raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class MisreportBudget:
    """Bounds on the misreport space searched per agent.

    The space always contains the truthful report, every subset misreport
    (sub-endowment plus a non-empty subset of the true demand set) and every
    single-bundle report {b} with |b| <= bundle_cap over the items left in
    the market.  `max_scenarios` truncates the canonical-order list;
    enlarging any bound only appends.
    """

    bundle_cap: int = 3
    max_scenarios: int = 128

    def __post_init__(self):
        _check_int_fields(self)


@dataclass(frozen=True)
class ManipulationWitness:
    """A misreport under which a truthfully-unsatisfied agent ends up holding
    (received plus withheld items) a bundle covering one of her true demands."""

    scenario: MisreportScenario
    truthful_outcome: Allocation
    misreport_outcome: Allocation
    realized_bundle: Bundle


@dataclass
class DominationWitness:
    dominating: Allocation
    profile: dict[str, int]


@dataclass
class ConsistencyViolation:
    """A candidate-set contraction that changed some agent's satisfaction even
    though an allocation matching the original choice's profile survived."""

    superset_size: int
    subset_size: int
    superset_choice: Allocation
    subset_choice: Allocation
    matching_allocation: Allocation
    superset_profile: dict[str, int]
    subset_profile: dict[str, int]


@dataclass
class AuditReport:
    kind: str
    verdict: str
    witnesses: tuple = ()
    summary: dict[str, int] = field(default_factory=dict)

    @property
    def violation_found(self) -> bool:
        return self.verdict == VERDICT_VIOLATION


@dataclass(frozen=True)
class ConsistencyParams:
    """Subset-sampling knobs for the weak-consistency audit.

    Exhaustive over all non-empty subsets while the feasible set has at most
    `exhaustive_limit` allocations; otherwise all leave-one-out subsets plus
    `samples` seeded uniform draws.  The seed lands in the report summary.
    Outside exhaustive mode the audit's memory is linear in the feasible
    count: leave-one-outs are never materialized.
    """

    seed: int = 0
    samples: int = 64
    exhaustive_limit: int = 12

    def __post_init__(self):
        _check_int_fields(self, "seed")


@dataclass
class CounterexampleFixture:
    name: str
    market: Market
    constraints: ConstraintSet
    scripted_misreports: dict[str, Bundle]


def _subsets_desc(sorted_elems: Sequence) -> list[tuple]:
    """All subsets, largest first, lexicographic within a size."""
    out = []
    for size in range(len(sorted_elems), -1, -1):
        out.extend(itertools.combinations(sorted_elems, size))
    return out


def _nonempty_subsets_asc(sorted_elems: Sequence) -> list[tuple]:
    out = []
    for size in range(1, len(sorted_elems) + 1):
        out.extend(itertools.combinations(sorted_elems, size))
    return out


def _misreport_stream(market: Market, agent_id: str, budget: MisreportBudget):
    """Canonical, deduplicated misreport order: the truthful report, then
    subset misreports (full participation first), then single-bundle probes
    by ascending bundle size so a larger bundle cap only appends scenarios."""
    agent = market.agent(agent_id)
    endow_subsets = _subsets_desc(sorted(agent.endowment))
    demand_subsets = _nonempty_subsets_asc(sorted(agent.demands, key=bundle_sort_key))
    seen: set[tuple[Bundle, frozenset[Bundle]]] = set()

    def make(reported_endowment, reported_demands) -> MisreportScenario | None:
        endowment = frozenset(reported_endowment)
        demands = frozenset(frozenset(d) for d in reported_demands)
        if (endowment, demands) in seen:
            return None
        seen.add((endowment, demands))
        return MisreportScenario(agent_id, endowment, demands, agent.endowment - endowment)

    yield make(agent.endowment, agent.demands)
    for reported_endowment in endow_subsets:
        for reported_demands in demand_subsets:
            scenario = make(reported_endowment, reported_demands)
            if scenario is not None:
                yield scenario
    pool = sorted(market.item_ids)
    for size in range(0, budget.bundle_cap + 1):
        for combo in itertools.combinations(pool, size):
            probe = frozenset(combo)
            for reported_endowment in endow_subsets:
                withheld = agent.endowment - frozenset(reported_endowment)
                if probe & withheld:
                    continue
                scenario = make(reported_endowment, [probe])
                if scenario is not None:
                    yield scenario


def enumerate_misreports(
    market: Market, agent_id: str, budget: MisreportBudget | None = None
) -> list[MisreportScenario]:
    """The first `max_scenarios` scenarios of the canonical misreport order."""
    return _misreports_with_truncation(market, agent_id, budget or MisreportBudget())[0]


def _misreports_with_truncation(
    market: Market, agent_id: str, budget: MisreportBudget
) -> tuple[list[MisreportScenario], bool]:
    scenarios = list(
        itertools.islice(_misreport_stream(market, agent_id, budget), budget.max_scenarios + 1)
    )
    truncated = len(scenarios) > budget.max_scenarios
    return scenarios[: budget.max_scenarios], truncated


def apply_misreport(market: Market, scenario: MisreportScenario) -> Market:
    """The market as the mechanism sees it after the misreport: the agent's
    report replaces her true endowment and demands, withheld items leave the
    item pool, and every other agent is untouched (demand bundles of theirs
    that mention withheld items are kept verbatim and simply become
    uncoverable)."""
    agent = market.agent(scenario.agent)
    if not scenario.reported_endowment <= agent.endowment:
        extra = sorted(scenario.reported_endowment - agent.endowment)
        raise ValueError(f"reported endowment contains items not endowed: {extra}")
    if scenario.withheld != agent.endowment - scenario.reported_endowment:
        raise ValueError("withheld items do not match endowment minus report")
    known = set(market.item_ids)
    for d in scenario.reported_demands:
        for item_id in d:
            if item_id not in known:
                raise ValueError(f"reported demand references unknown item {item_id!r}")
    items = tuple(it for it in market.items if it.id not in scenario.withheld)
    agents = tuple(
        Agent(ag.id, scenario.reported_endowment, scenario.reported_demands)
        if ag.id == scenario.agent
        else ag
        for ag in market.agents
    )
    return Market(agents, items)


def realized_bundle(misreport_allocation_bundle: Bundle, withheld: Bundle) -> Bundle:
    """What the agent actually holds after a misreported run: the bundle the
    mechanism gave her plus everything she withheld.  True satisfaction is
    always evaluated against this union and the true demand set."""
    misreport_allocation_bundle = frozenset(misreport_allocation_bundle)
    withheld = frozenset(withheld)
    if misreport_allocation_bundle & withheld:
        overlap = sorted(misreport_allocation_bundle & withheld)
        raise ValueError(f"allocated and withheld bundles overlap: {overlap}")
    return misreport_allocation_bundle | withheld


def _misreport_rows(
    market: Market, constraints: ConstraintSet, agent_id: str, scenarios: Iterable, search_budget: int
) -> tuple[tuple, tuple]:
    """Misreports of one agent, each searched once (never through the
    enumeration cache), ready to be judged under any mechanism spec.

    Returns (profiles, rows).  `profiles` holds each distinct satisfaction
    profile of the misreported markets once.  A row is (scenario, ids,
    covering): `ids` are the indices into `profiles` of the scenario's
    distinct profiles, and `covering` maps those whose first holder leaves
    the agent with a bundle covering a true demand to (that holder, the
    realized bundle).  Scenarios where no holder does cannot yield a witness
    and get no row.
    """
    true_demands = market.agent(agent_id).demands
    profile_ids: dict[tuple[int, ...], int] = {}
    rows = []
    for scenario in scenarios:
        allocations, profiles = search_feasible(
            apply_misreport(market, scenario), constraints, search_budget
        )
        ids = []
        covering = {}
        for profile in dict.fromkeys(profiles):
            pid = profile_ids.setdefault(profile, len(profile_ids))
            ids.append(pid)
            holder = allocations[profiles.index(profile)]
            realized = realized_bundle(holder.bundle_of(agent_id), scenario.withheld)
            if covers(realized, true_demands):
                covering[pid] = (holder, realized)
        if covering:
            rows.append((scenario, tuple(ids), covering))
    return tuple(profile_ids), tuple(rows)


def _manipulations(
    profiles: Sequence[tuple[int, ...]], rows: Iterable[tuple], key: Callable, truthful: Allocation
) -> list[ManipulationWitness]:
    """The rows that are witnesses for the mechanism with `key`: its choice
    on a misreported market is the first holder of the row's key-maximal
    profile, and the row is a witness when that holder is covering."""
    keys = [key(profile) for profile in profiles]
    witnesses = []
    for scenario, ids, covering in rows:
        hit = covering.get(max(ids, key=keys.__getitem__))
        if hit is not None:
            witnesses.append(ManipulationWitness(scenario, truthful, *hit))
    return witnesses


@enumeration_memo(16)
def _misreport_table(
    market: Market, constraints: ConstraintSet, agent_id: str, budget: MisreportBudget, search_budget: int
) -> tuple[tuple, tuple, int, bool]:
    """(profiles, rows) of the agent's budgeted misreport space, its size and
    whether it was truncated."""
    scenarios, truncated = _misreports_with_truncation(market, agent_id, budget)
    profiles, rows = _misreport_rows(market, constraints, agent_id, scenarios, search_budget)
    return profiles, rows, len(scenarios), truncated


def audit_strategyproofness(
    market: Market,
    spec: MechanismSpec,
    budget: MisreportBudget | None = None,
    search_budget: int | None = None,
) -> AuditReport:
    """Probe every agent left unsatisfied by the truthful run with the budgeted
    misreport space.  Under dichotomous preferences a satisfied agent cannot
    strictly gain, so only unsatisfied agents are probed; the report records
    how much of the misreport space was actually searched.

    A misreport is a witness when the mechanism's choice on the misreported
    market (its key-maximal profile's first holder) leaves the agent, with
    her withheld items, covering a true demand."""
    budget = budget or MisreportBudget()
    key = profile_key(market, spec)
    search_budget = resolve_budget(search_budget)
    allocations, profiles = feasible_with_profiles(market, spec.constraints, search_budget)
    chosen = chosen_index(profiles, key)
    truthful = allocations[chosen]
    unsatisfied = [a for a, sat in zip(market.agent_ids, profiles[chosen]) if not sat]

    witnesses = []
    examined = truncated_agents = 0
    for agent_id in unsatisfied:
        profiles, rows, scenarios, truncated = _misreport_table(
            market, spec.constraints, agent_id, budget, search_budget
        )
        examined += scenarios
        truncated_agents += int(truncated)
        witnesses.extend(_manipulations(profiles, rows, key, truthful))

    return AuditReport(
        kind="strategyproofness",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary={
            "agents_probed": len(unsatisfied),
            "feasible_count": len(allocations),
            "scenarios_examined": examined,
            "truncated_agents": truncated_agents,
        },
    )


def _sample_masks(count: int, params: ConsistencyParams) -> list[int]:
    """The seeded uniform draws as bitmasks over feasible indices, in draw
    order, without repeats and without draws equal to a leave-one-out."""
    rng = random.Random(params.seed)
    masks: list[int] = []
    seen: set[int] = set()
    for _ in range(params.samples):
        bits = rng.getrandbits(count)
        while bits == 0:
            bits = rng.getrandbits(count)
        if bits.bit_count() != count - 1 and bits not in seen:
            seen.add(bits)
            masks.append(bits)
    return masks


def _run_consistency_engine(
    allocations: Sequence[Allocation],
    profiles: Sequence[tuple[int, ...]],
    agent_ids: tuple[str, ...],
    choose: Callable[[int], int],
    params: ConsistencyParams,
) -> AuditReport:
    """Test (superset, subset) contractions of the feasible set, in order.

    First the full set against every family member: all non-empty subsets in
    exhaustive mode, otherwise the leave-one-outs followed by the sampled
    subsets.  Then every strictly nested pair among the leave-one-outs and
    samples, superset position major, so contractions of already-contracted
    sets get exercised too.  A pair is a violation when the subset holds an
    allocation with the superset choice's profile but its own choice has
    another profile.

    Sets are bitmasks over feasible indices, bit i standing for
    `allocations[i]`, and nothing else holds them, so memory is linear in
    the feasible count.  Nested pairs follow from the family's structure: a
    sample lies under the leave-one-out of i exactly when it lacks i, a
    leave-one-out lies under a sample only when that sample is the full
    set, and only sample pairs need a subset test.  `choose` takes such a
    mask and returns the index it picks from it; it must be a pure function
    of the mask.  It runs once for the full set, once per leave-one-out and
    sample, and in exhaustive mode once per subset, never once per pair.
    """
    count = len(allocations)
    if not count:
        raise ValueError("empty candidate list")
    full = (1 << count) - 1
    exhaustive = count <= params.exhaustive_limit
    loos = range(count) if count > 1 else range(0)

    # indices by profile, one mask per distinct profile (at most 2**agents)
    with_profile: dict[tuple[int, ...], int] = {}
    for i, profile in enumerate(profiles):
        with_profile[profile] = with_profile.get(profile, 0) | 1 << i

    witnesses: list[ConsistencyViolation] = []
    tested = 0

    def test(sup_size: int, sup_choice: int, sub: int, sub_size: int, sub_choice: int) -> None:
        nonlocal tested
        tested += 1
        target = profiles[sup_choice]
        if profiles[sub_choice] == target:
            return
        hits = sub & with_profile[target]
        if hits:
            witnesses.append(
                ConsistencyViolation(
                    superset_size=sup_size,
                    subset_size=sub_size,
                    superset_choice=allocations[sup_choice],
                    subset_choice=allocations[sub_choice],
                    matching_allocation=allocations[(hits & -hits).bit_length() - 1],
                    superset_profile=dict(zip(agent_ids, target)),
                    subset_profile=dict(zip(agent_ids, profiles[sub_choice])),
                )
            )

    top = choose(full)
    loo_choices = [choose(full ^ 1 << i) for i in loos]
    sampled = [(mask, mask.bit_count(), choose(mask)) for mask in _sample_masks(count, params)]

    if exhaustive:
        for size in range(1, count + 1):
            for combo in itertools.combinations(range(count), size):
                mask = sum(1 << i for i in combo)
                test(count, top, mask, size, choose(mask))
    else:
        for i in loos:
            test(count, top, full ^ 1 << i, count - 1, loo_choices[i])
        for mask, size, choice in sampled:
            test(count, top, mask, size, choice)
    family_pairs = tested

    for i in loos:
        for mask, size, choice in sampled:
            if not mask >> i & 1:
                test(count - 1, loo_choices[i], mask, size, choice)
    for sup, sup_size, sup_choice in sampled:
        if sup == full:
            for i in loos:
                test(count, sup_choice, full ^ 1 << i, count - 1, loo_choices[i])
        for sub, size, choice in sampled:
            if sub != sup and sub & sup == sub:
                test(sup_size, sup_choice, sub, size, choice)

    summary = {  # keys in sorted order
        "exhaustive": int(exhaustive),
        "feasible_count": count,
        "nested_pairs_tested": tested - family_pairs,
        "pairs_tested": tested,
        "samples_drawn": params.samples,
        "seed": params.seed,
    }
    return AuditReport(
        kind="weak-consistency",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary=summary,
    )


def audit_weak_consistency(
    market: Market,
    spec: MechanismSpec,
    params: ConsistencyParams | None = None,
    search_budget: int | None = None,
) -> AuditReport:
    """Contract the feasible set and check that whenever some surviving
    allocation matches the original choice's satisfaction profile, the choice
    from the contracted set matches it too."""
    params = params or ConsistencyParams()
    key = profile_key(market, spec)
    allocations, profiles = feasible_with_profiles(market, spec.constraints, search_budget)
    # best first: key descending, key ties to the canonically first index
    order = sorted(range(len(allocations)), key=lambda i: (key(profiles[i]), -i), reverse=True)

    def choose(mask: int) -> int:
        return next(i for i in order if mask >> i & 1)

    return _run_consistency_engine(allocations, profiles, market.agent_ids, choose, params)


def audit_weak_consistency_choice(
    market: Market,
    constraints: ConstraintSet,
    choice: Callable[[list[Allocation]], Allocation],
    params: ConsistencyParams | None = None,
    search_budget: int | None = None,
) -> AuditReport:
    """Weak-consistency audit of an arbitrary choice function over allocation
    lists; used to regression-test the auditor's own sensitivity against
    deliberately broken mechanisms."""
    params = params or ConsistencyParams()
    allocations, profiles = feasible_with_profiles(market, constraints, search_budget)
    position = {alloc: i for i, alloc in enumerate(allocations)}

    def choose(mask: int) -> int:
        return position[choice([a for i, a in enumerate(allocations) if mask >> i & 1])]

    return _run_consistency_engine(allocations, profiles, market.agent_ids, choose, params)


def audit_constrained_pareto(
    market: Market,
    allocation: Allocation,
    constraints: ConstraintSet,
    search_budget: int | None = None,
) -> AuditReport:
    """Report every feasible allocation that Pareto-dominates the given one."""
    allocations, profiles = feasible_with_profiles(market, constraints, search_budget)
    target = tuple(satisfaction_profile(market, allocation).values())
    witnesses = []
    for alloc, profile in zip(allocations, profiles):
        if all(p >= t for p, t in zip(profile, target)) and any(
            p > t for p, t in zip(profile, target)
        ):
            witnesses.append(DominationWitness(alloc, dict(zip(market.agent_ids, profile))))
    return AuditReport(
        kind="constrained-pareto",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary={"candidates_compared": len(allocations), "feasible_count": len(allocations)},
    )


def max_satisfied_oracle(
    market: Market, constraints: ConstraintSet, search_budget: int | None = None
) -> int:
    """Brute-force maximum of the satisfaction sum over the feasible set.

    Deliberately re-derives satisfaction per allocation instead of reusing any
    mechanism key machinery, so it stays an independent reference for the
    utilitarian mechanism's leading term.
    """
    best = 0
    for alloc in enumerate_feasible(market, constraints, search_budget):
        count = sum(1 for ag in market.agents if satisfies(market, alloc, ag.id))
        best = max(best, count)
    return best


def _size3_subsets(items: Iterable[str]) -> frozenset[Bundle]:
    return frozenset(frozenset(c) for c in itertools.combinations(sorted(items), 3))


def fixture(name: str) -> CounterexampleFixture:
    """Bundled benchmark instances: "example1" and "theorem5"."""
    if name == "example1":
        cars = ["c1", "c2", "c3", "c4"]
        market = Market(
            agents=(
                Agent("1", cars, [{c, "p"} for c in cars]),
                Agent("2", ["p"], [{"c1"}, {"s", "h"}]),
                Agent("3", ["s", "h"], [{"c4"}]),
            ),
            items=tuple(Item(i) for i in cars + ["h", "p", "s"]),
        )
        return CounterexampleFixture(
            name="example1",
            market=market,
            constraints=BUILT_IN_CONSTRAINT_SETS["sir"],
            scripted_misreports={},
        )
    if name == "theorem5":
        liked = {
            "1": frozenset({"b1", "b3", "c1", "c2", "c3"}),
            "2": frozenset({"a1", "a3", "c1", "c2", "c3"}),
            "3": frozenset({"a2", "a3", "b2", "b3"}),
        }
        scripted = {
            "1": frozenset({"b3", "c1", "c2", "c3"}),
            "2": frozenset({"a3", "c1", "c2", "c3"}),
            "3": frozenset({"a3", "b2", "b3"}),
        }
        endowments = {"1": ["a1", "a2", "a3"], "2": ["b1", "b2", "b3"], "3": ["c1", "c2", "c3"]}
        market = Market(
            agents=tuple(
                Agent(i, endowments[i], _size3_subsets(liked[i])) for i in ("1", "2", "3")
            ),
            items=tuple(Item(x) for owned in endowments.values() for x in owned),
        )
        return CounterexampleFixture(
            name="theorem5",
            market=market,
            constraints=BUILT_IN_CONSTRAINT_SETS["pairwise+desirable"],
            scripted_misreports=scripted,
        )
    raise ValueError(f"unknown fixture name {name!r}")


def scripted_misreport(fx: CounterexampleFixture, agent_id: str) -> MisreportScenario:
    """The fixture's scripted manipulation for one agent: full endowment,
    demands restricted to the size-3 subsets of her scripted desirable set."""
    agent = fx.market.agent(agent_id)
    liked = fx.scripted_misreports[agent_id]
    return MisreportScenario(
        agent=agent_id,
        reported_endowment=agent.endowment,
        reported_demands=_size3_subsets(liked),
        withheld=frozenset(),
    )


def impossibility_runs(search_budget: int | None = None):
    """The 12 runs of the "theorem5" replication: both mechanisms under every
    priority order, without strong individual rationality.

    Yields (spec, outcome, whether no feasible allocation Pareto-dominates
    the outcome, witness or None) per run.  The witness is that of the first
    unsatisfied agent whose scripted misreport makes the mechanism cover one
    of her true demands.  Each agent's scripted misreport is searched once,
    when first needed, and judged like any strategyproofness misreport.
    """
    fx = fixture("theorem5")
    market, constraints = fx.market, fx.constraints
    budget = resolve_budget(search_budget)
    rows = {}
    for kind in ("cp", "cup"):
        for priority in itertools.permutations(market.agent_ids):
            spec = MechanismSpec(kind, priority, constraints)
            outcome = run_mechanism(market, spec, budget)
            profile = satisfaction_profile(market, outcome)
            pareto = audit_constrained_pareto(market, outcome, constraints, budget)
            key = profile_key(market, spec)
            witness = None
            for agent_id in (a for a in market.agent_ids if profile[a] == 0):
                if agent_id not in rows:
                    scripted = [scripted_misreport(fx, agent_id)]
                    rows[agent_id] = _misreport_rows(market, constraints, agent_id, scripted, budget)
                hits = _manipulations(*rows[agent_id], key, outcome)
                if hits:
                    witness = hits[0]
                    break
            yield spec, outcome, not pareto.violation_found, witness


def impossibility_report(runs: Sequence[tuple], search_budget: int | None = None) -> AuditReport:
    """Add up the records of :func:`impossibility_runs`.  The impossibility
    replicated when every run is constrained Pareto optimal, leaves some
    agent unsatisfied and has a witness, and the individual rationality
    predicate holds on the whole feasible set (no agent's endowment
    satisfies her, so that filter cannot bite).  The "violation" verdict
    means the impossibility replicated, which is the expected outcome.
    """
    fx = fixture("theorem5")
    allocations, _ = feasible_with_profiles(fx.market, fx.constraints, search_budget)
    ir_identity = all(is_ir(fx.market, alloc) for alloc in allocations)
    witnesses = tuple(witness for *_, witness in runs if witness is not None)
    pareto_ok_runs = sum(pareto_ok for _, _, pareto_ok, _ in runs)
    runs_with_unsat = sum(0 in satisfaction_profile(fx.market, out).values() for _, out, _, _ in runs)
    replicated = ir_identity and len(witnesses) == pareto_ok_runs == runs_with_unsat == len(runs)
    return AuditReport(
        kind="impossibility-replication",
        verdict=VERDICT_VIOLATION if replicated else VERDICT_CLEAN,
        witnesses=witnesses,
        summary={
            "feasible_count": len(allocations),
            "ir_filter_identity": int(ir_identity),
            "manipulations_found": len(witnesses),
            "pareto_optimal_runs": pareto_ok_runs,
            "runs": len(runs),
            "runs_with_unsatisfied": runs_with_unsat,
        },
    )


def replicate_impossibility(search_budget: int | None = None) -> AuditReport:
    """:func:`impossibility_report` of :func:`impossibility_runs`."""
    return impossibility_report(list(impossibility_runs(search_budget)), search_budget)
