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
probed agent).  Per withheld set of that agent, one misreported market is
built and compiled into a search base, and each demand report with that
withheld set is searched once, as a patch of the base.  Under a
report-free constraint set (no sir, ir or desirable) the reports of one
withheld set share a trade structure, and they go through the
per-structure row memo that also serves the enumeration cache's misses:
only the first is searched, and the others are scored over its rows.  The
searches fill a misreport table with one row per scenario where the first
holder of some profile leaves the agent, with its withheld items, covering a
true demand:
the scenario's distinct satisfaction profiles and those covering first
holders, keyed by profile.  Every mechanism spec over that market and
constraint set is then judged by an argmax over each row's profiles.  The
tables sit in the `derived` dict of the true market's feasible table, keyed
by (agent id, misreport budget), so they live and die with its enumeration
cache entry: specs may be audited in any order, and each table is built
once while that entry stays cached.  The impossibility replication judges
the fixture's scripted misreports with the same rows and argmax, so
misreported markets never enter the enumeration cache.
``feasibility.clear_enumeration_cache`` empties the cache and the tables
with it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from operator import ge
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
    _compile,
    _report_free,
    _search,
    _shared_search,
    _with_demands,
    enumerate_feasible,
    feasible_with_profiles,
    resolve_budget,
)
from .mechanisms import MechanismSpec, best_profile, check_priority, profile_key, run_mechanism

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


_DEFAULT_BUDGET = MisreportBudget()


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


MAX_SAMPLES = 4_096
MAX_EXHAUSTIVE_LIMIT = 16  # 2**16 - 1 = 65,535 subsets


@dataclass(frozen=True)
class ConsistencyParams:
    """Subset-sampling knobs for the weak-consistency audit.

    Exhaustive over all non-empty subsets while the feasible set has at most
    `exhaustive_limit` allocations; otherwise all leave-one-out subsets plus
    `samples` seeded uniform draws.  The seed lands in the report summary.
    `exhaustive_limit` is at most 16 (65,535 subsets) and `samples` at most
    4,096, so one audit makes a bounded number of chooser calls.

    Memory per audit is linear in the feasible count: the leave-one-outs
    are kept as their choices only, each sample as one mask of
    feasible-count bits, and exhaustive subsets are built one at a time.
    """

    seed: int = 0
    samples: int = 64
    exhaustive_limit: int = 12

    def __post_init__(self):
        _check_int_fields(self, "seed")
        for name, bound in (("samples", MAX_SAMPLES), ("exhaustive_limit", MAX_EXHAUSTIVE_LIMIT)):
            value = getattr(self, name)
            if value > bound:
                raise ValueError(f"{name} must be at most {bound}, got {value!r}")


_DEFAULT_PARAMS = ConsistencyParams()


@dataclass
class CounterexampleFixture:
    name: str
    market: Market
    constraints: ConstraintSet
    scripted_misreports: dict[str, Bundle]


def _subsets(sorted_elems: Sequence, sizes: range) -> list[tuple]:
    """The subsets of each size in `sizes`, in that order, lexicographic
    within a size."""
    return [combo for size in sizes for combo in itertools.combinations(sorted_elems, size)]


def _misreport_stream(market: Market, agent_id: str, budget: MisreportBudget):
    """Canonical misreport order: the truthful report, then subset
    misreports (full participation first), then single-bundle probes by
    ascending bundle size so a larger bundle cap only appends scenarios.
    Each scenario comes once.  Within a part the (reported endowment,
    demands) pairs differ, so only two repeats can occur, and both are
    skipped: the subset misreport of the full endowment and every true
    demand (the truthful report), and a probe equal to a true demand (a
    subset misreport, as those take every reported endowment)."""
    agent = market.agent(agent_id)
    demands = sorted(agent.demands, key=bundle_sort_key)
    demand_subsets = _subsets(demands, range(1, len(demands) + 1))
    own = sorted(agent.endowment)
    reports = [(kept, agent.endowment - set(kept)) for kept in _subsets(own, range(len(own), -1, -1))]
    yield MisreportScenario(agent_id, agent.endowment, agent.demands, frozenset())
    for kept, withheld in reports:
        for reported_demands in demand_subsets:
            if withheld or len(reported_demands) < len(demands):
                yield MisreportScenario(agent_id, kept, reported_demands, withheld)
    pool = sorted(market.item_ids)
    for size in range(0, min(budget.bundle_cap, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            probe = frozenset(combo)
            if probe in agent.demands:
                continue
            for kept, withheld in reports:
                if not probe & withheld:
                    yield MisreportScenario(agent_id, kept, [probe], withheld)


def enumerate_misreports(
    market: Market, agent_id: str, budget: MisreportBudget | None = None
) -> list[MisreportScenario]:
    """The first `max_scenarios` scenarios of the canonical misreport order."""
    return _misreports_with_truncation(market, agent_id, budget or _DEFAULT_BUDGET)[0]


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
) -> tuple[tuple, ...]:
    """Misreports of one agent, each searched or scored once (never through
    the enumeration cache), ready to be judged under any mechanism spec.

    Scenarios with one withheld set differ only in the agent's demand
    report.  So the first of them is built (`apply_misreport`, which
    validates it) and compiled into a base, and each of them is searched as
    a patch of that base that swaps in its demand report.  The scenarios
    are those of the canonical misreport stream or a fixture's script, so
    every report with that withheld set keeps the same endowment.  Under
    a report-free constraint set (see `feasibility._report_free`) those
    patches differ only in what the search scores, so they go through
    `feasibility._shared_search`: a trade structure is searched once, and
    every other patch with it is scored over its rows, with the same rows,
    profiles, first holders and node count.  A patch that reads the
    reports is searched here, by `_search`.

    Returns the rows.  A row is (scenario, profiles, covering): `profiles`
    are the scenario's distinct satisfaction profiles, and `covering` maps
    those whose first holder leaves the agent with a bundle covering a true
    demand to (that holder, the realized bundle).  Scenarios where no holder
    does cannot yield a witness and get no row.
    """
    true_demands = market.agent(agent_id).demands
    agent = market.agent_ids.index(agent_id)
    bases = {}
    rows = []
    for scenario in scenarios:
        base = bases.get(scenario.withheld)
        if base is None:
            base = bases[scenario.withheld] = _compile(apply_misreport(market, scenario), constraints)
        search = _shared_search if _report_free(base) else _search
        table = search(_with_demands(base, agent, scenario.reported_demands), search_budget)
        covering = {}
        for profile, i in table.first.items():
            # only the agent's bundle is read, so only a covering holder is built
            realized = realized_bundle(table.bundle_of(i, agent_id), scenario.withheld)
            if covers(realized, true_demands):
                covering[profile] = (table[i], realized)
        if covering:
            rows.append((scenario, tuple(table.first), covering))
    return tuple(rows)


def _manipulations(rows: Iterable[tuple], key: Callable, truthful: Allocation) -> list[ManipulationWitness]:
    """The rows that are witnesses for the mechanism with `key`: its choice
    on a misreported market is the first holder of the row's key-maximal
    profile, and the row is a witness when that holder is covering.  Only
    the profiles of the rows are keyed."""
    witnesses = []
    for scenario, profiles, covering in rows:
        hit = covering.get(max(profiles, key=key))
        if hit is not None:
            witnesses.append(ManipulationWitness(scenario, truthful, *hit))
    return witnesses


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
    budget = budget or _DEFAULT_BUDGET
    key = profile_key(market, spec)
    search_budget = resolve_budget(search_budget)
    table = feasible_with_profiles(market, spec.constraints, search_budget)
    best = best_profile(table, key)
    truthful = table[table.first[best]]
    unsatisfied = [a for a, sat in zip(market.agent_ids, best) if not sat]

    witnesses = []
    examined = truncated_agents = 0
    tables = table.derived
    for agent_id in unsatisfied:
        entry = tables.get((agent_id, budget))
        if entry is None:  # a search over budget raises here, storing nothing
            misreports, truncated = _misreports_with_truncation(market, agent_id, budget)
            rows = _misreport_rows(market, spec.constraints, agent_id, misreports, search_budget)
            entry = tables[agent_id, budget] = rows, len(misreports), truncated
        rows, scenarios, truncated = entry
        examined += scenarios
        truncated_agents += int(truncated)
        witnesses.extend(_manipulations(rows, key, truthful))

    return AuditReport(
        kind="strategyproofness",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary={
            "agents_probed": len(unsatisfied),
            "feasible_count": len(table),
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


@functools.lru_cache(maxsize=16)
def _consistency_summary(count: int, params: ConsistencyParams) -> tuple[tuple[str, int], ...]:
    """A weak-consistency audit's summary items, in sorted key order: its
    mode and how many pairs `_run_consistency_engine` tests on `count`
    allocations under `params`.  It depends on nothing else, so audits of
    any market or chooser share one memo entry: six ints, no subset masks.

    The leave-one-out × sample pairs are counted, not walked: leave-one-out
    i holds every sample lacking i, so a sample of size s lies under
    count - s of them.  A miss thus costs one scan of the sample pairs."""
    samples = _sample_masks(count, params)
    full = (1 << count) - 1
    loos = count if count > 1 else 0
    exhaustive = count <= params.exhaustive_limit
    nested = sum(sub != sup and sub & sup == sub for sup in samples for sub in samples)
    nested += loos * (full in samples)  # the full set, when drawn, holds every leave-one-out
    if loos:
        nested += sum(count - mask.bit_count() for mask in samples)
    family_pairs = 2**count - 1 if exhaustive else loos + len(samples)
    return (
        ("exhaustive", int(exhaustive)),
        ("feasible_count", count),
        ("nested_pairs_tested", nested),
        ("pairs_tested", family_pairs + nested),
        ("samples_drawn", params.samples),
        ("seed", params.seed),
    )


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
    samples, superset position major: each leave-one-out of i against the
    samples lacking i, then each sample against the leave-one-outs (only
    when it is the full set) and the smaller samples inside it, so
    contractions of already-contracted sets get exercised too.  A pair is a
    violation when the subset holds an allocation with the superset
    choice's profile but its own choice has another profile.

    Sets are bitmasks over feasible indices, bit i standing for
    `allocations[i]`.  `choose` takes a mask and returns the index it picks
    from it; it must be a pure function of the mask.  It runs once for the
    full set, once per leave-one-out and sample, and in exhaustive mode once
    per subset, never once per pair.  Memory is linear in the feasible
    count: the leave-one-outs are kept as their choices only, and the
    exhaustive subsets are built one at a time.
    """
    count = len(allocations)
    if not count:
        raise ValueError("empty candidate list")
    full = (1 << count) - 1
    holders: dict[tuple[int, ...], int] = {}  # feasible indices by profile
    for i, profile in enumerate(profiles):
        holders[profile] = holders.get(profile, 0) | 1 << i
    witnesses: list[ConsistencyViolation] = []

    def test(sup: int, sup_choice: int, sub: int, sub_choice: int) -> None:
        target = profiles[sup_choice]
        if profiles[sub_choice] != target:
            hits = sub & holders[target]
            if hits:
                witness = ConsistencyViolation(
                    superset_size=sup.bit_count(),
                    subset_size=sub.bit_count(),
                    superset_choice=allocations[sup_choice],
                    subset_choice=allocations[sub_choice],
                    matching_allocation=allocations[(hits & -hits).bit_length() - 1],
                    superset_profile=dict(zip(agent_ids, target)),
                    subset_profile=dict(zip(agent_ids, profiles[sub_choice])),
                )
                witnesses.append(witness)

    top = choose(full)
    loo_choices = [choose(full ^ 1 << i) for i in range(count)] if count > 1 else []
    samples = [(mask, choose(mask)) for mask in _sample_masks(count, params)]

    if count <= params.exhaustive_limit:
        bits = [1 << i for i in range(count)]
        for size in range(1, count + 1):
            for combo in itertools.combinations(bits, size):
                mask = sum(combo)
                test(full, top, mask, choose(mask))
    else:
        for i, choice in enumerate(loo_choices):
            test(full, top, full ^ 1 << i, choice)
        for mask, choice in samples:
            test(full, top, mask, choice)

    for i, loo_choice in enumerate(loo_choices):
        for mask, choice in samples:
            if not mask >> i & 1:
                test(full ^ 1 << i, loo_choice, mask, choice)
    for sup, sup_choice in samples:
        if sup == full:
            for i, choice in enumerate(loo_choices):
                test(sup, sup_choice, full ^ 1 << i, choice)
        for sub, choice in samples:
            if sub != sup and sub & sup == sub:
                test(sup, sup_choice, sub, choice)

    return AuditReport(
        kind="weak-consistency",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=tuple(witnesses),
        summary=dict(_consistency_summary(count, params)),
    )


def audit_weak_consistency(
    market: Market,
    spec: MechanismSpec,
    params: ConsistencyParams | None = None,
    search_budget: int | None = None,
) -> AuditReport:
    """Contract the feasible set and check that whenever some surviving
    allocation matches the original choice's satisfaction profile, the choice
    from the contracted set matches it too.

    For `cp` and `cup` no pair fails, so no chooser runs.  Their choice from
    a set S is the first holder of S's earliest profile P under one fixed
    strict order (the key; distinct profiles get distinct keys).  A subset T
    of S holding P holds no earlier profile, so T's choice has profile P
    too.  Every pair `_run_consistency_engine` tests is such a (superset,
    subset) pair, so the verdict is clean, and the summary depends only on
    the feasible count and `params`.  The errors come in the engine path's
    order: priority, node budget, `BudgetExceededError`, empty feasible set.
    """
    check_priority(market, spec.priority)
    allocations = feasible_with_profiles(market, spec.constraints, search_budget)
    if not allocations:
        raise ValueError("empty candidate list")
    summary = dict(_consistency_summary(len(allocations), params or _DEFAULT_PARAMS))
    return AuditReport(kind="weak-consistency", verdict=VERDICT_CLEAN, summary=summary)


def audit_weak_consistency_choice(
    market: Market,
    constraints: ConstraintSet,
    choice: Callable[[list[Allocation]], Allocation],
    params: ConsistencyParams | None = None,
    search_budget: int | None = None,
) -> AuditReport:
    """Weak-consistency audit of an arbitrary choice function over allocation
    lists; used to regression-test the auditor's own sensitivity against
    deliberately broken mechanisms.  A choice outside its candidates, which
    would make witnesses that do not re-check, raises a ValueError."""
    params = params or _DEFAULT_PARAMS
    table = feasible_with_profiles(market, constraints, search_budget)
    allocations = tuple(table)  # the chooser takes lists of them, so each is built once
    position = {alloc: i for i, alloc in enumerate(allocations)}

    def choose(mask: int) -> int:
        picked = choice([a for i, a in enumerate(allocations) if mask >> i & 1])
        index = position.get(picked) if isinstance(picked, Allocation) else None
        if index is None:
            raise ValueError(f"chooser returned {picked!r}, which is not a feasible allocation")
        if not mask >> index & 1:
            raise ValueError(f"chooser returned feasible allocation {index}, which is not among its candidates")
        return index

    return _run_consistency_engine(allocations, table.profiles, market.agent_ids, choose, params)


def audit_constrained_pareto(
    market: Market,
    allocation: Allocation,
    constraints: ConstraintSet,
    search_budget: int | None = None,
) -> AuditReport:
    """Report every feasible allocation that Pareto-dominates the given one.
    The table's distinct profiles decide whether any does; only then are
    the holders walked, and only the dominating ones built."""
    table = feasible_with_profiles(market, constraints, search_budget)
    target = tuple(satisfaction_profile(market, allocation).values())
    # under all(p >= t), a profile other than the target has some p > t
    dominating = {
        profile
        for profile in table.first
        if profile != target and all(map(ge, profile, target))
    }
    witnesses = ()
    if dominating:
        witnesses = tuple(  # their holders, in canonical order
            DominationWitness(table[i], dict(zip(market.agent_ids, profile)))
            for i, profile in enumerate(table.profiles)
            if profile in dominating
        )
    return AuditReport(
        kind="constrained-pareto",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=witnesses,
        summary={"candidates_compared": len(table), "feasible_count": len(table)},
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
                hits = _manipulations(rows[agent_id], key, outcome)
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
    allocations = feasible_with_profiles(fx.market, fx.constraints, search_budget)
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
