"""Property-based checks of the package invariants on small random markets."""

import itertools

from hypothesis import given, settings, strategies as st

from exchange_clear import (
    Agent,
    Allocation,
    BUILT_IN_CONSTRAINT_SETS,
    ConstraintSet,
    GeneratorConfig,
    Item,
    Market,
    MechanismSpec,
    MisreportBudget,
    endowment_allocation,
    enumerate_feasible,
    enumerate_misreports,
    generate_instance,
    is_ir,
    is_sir,
    max_cycle_agents,
    pareto_dominates,
    parse_instance,
    run_mechanism,
    satisfaction_profile,
    satisfies,
    satisfies_constraints,
    serialize,
    utility,
    weakly_prefers,
)

from exchange_clear.mechanisms import solve

from oracles import find_cycle_decomposition, trade_graph

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def markets(draw, max_agents=3, max_items=5, allow_null=True):
    agent_count = draw(st.integers(1, max_agents))
    agent_ids = [str(i) for i in range(1, agent_count + 1)]
    item_count = draw(st.integers(agent_count, max_items))
    item_ids = [f"o{i}" for i in range(1, item_count + 1)]
    null_flags = draw(st.lists(st.booleans(), min_size=item_count, max_size=item_count)) if allow_null else [False] * item_count
    owners = draw(st.lists(st.sampled_from(agent_ids), min_size=item_count, max_size=item_count))
    real_items = [x for x, is_null in zip(item_ids, null_flags) if not is_null]
    agents = []
    for agent_id in agent_ids:
        endow = [x for x, owner in zip(item_ids, owners) if owner == agent_id]
        demand_count = draw(st.integers(0, 2))
        demands = set()
        for _ in range(demand_count):
            if not real_items:
                break
            size = draw(st.integers(0, min(3, len(real_items))))
            demands.add(frozenset(draw(st.permutations(real_items))[:size]))
        agents.append(Agent(agent_id, endow, demands))
    items = tuple(Item(x, is_null) for x, is_null in zip(item_ids, null_flags))
    return Market(tuple(agents), items)


@st.composite
def markets_with_allocations(draw):
    market = draw(markets())
    assignees = [draw(st.sampled_from(market.agent_ids)) for _ in market.item_ids]
    return market, Allocation(tuple(zip(market.item_ids, assignees)))


@SETTINGS
@given(markets_with_allocations())
def test_utility_is_satisfaction_indicator(case):
    market, alloc = case
    for agent_id in market.agent_ids:
        value = utility(market, alloc, agent_id)
        assert value in (0, 1)
        assert (value == 1) == satisfies(market, alloc, agent_id)


@SETTINGS
@given(markets_with_allocations(), st.randoms(use_true_random=False))
def test_weak_preference_complete_and_transitive(case, rng):
    market, alloc = case
    pool = list(market.item_ids)
    bundles = [frozenset(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(3)]
    for agent_id in market.agent_ids:
        for x, y in itertools.product(bundles, repeat=2):
            assert weakly_prefers(market, agent_id, x, y) or weakly_prefers(market, agent_id, y, x)
        for x, y, z in itertools.product(bundles, repeat=3):
            if weakly_prefers(market, agent_id, x, y) and weakly_prefers(market, agent_id, y, z):
                assert weakly_prefers(market, agent_id, x, z)


@SETTINGS
@given(markets())
def test_endowment_is_sir_and_ir(market):
    endow = endowment_allocation(market)
    assert is_sir(market, endow)
    assert is_ir(market, endow)


@SETTINGS
@given(markets_with_allocations())
def test_pareto_irreflexive_asymmetric(case):
    market, alloc = case
    endow = endowment_allocation(market)
    assert not pareto_dominates(market, alloc, alloc)
    if pareto_dominates(market, alloc, endow):
        assert not pareto_dominates(market, endow, alloc)


@SETTINGS
@given(markets_with_allocations())
def test_satisfies_is_monotone(case):
    market, alloc = case
    for agent_id in market.agent_ids:
        held = alloc.bundle_of(agent_id)
        if satisfies(market, alloc, agent_id):
            grown = Allocation(
                {item: agent_id if assignee != agent_id and item not in held else assignee
                 for item, assignee in alloc.assignment}
            )
            # every superset of a satisfying bundle still satisfies
            assert held <= grown.bundle_of(agent_id)
            assert satisfies(market, grown, agent_id)


@SETTINGS
@given(markets())
def test_endowment_in_every_built_in_feasible_set(market):
    endow = endowment_allocation(market)
    for constraint_set in BUILT_IN_CONSTRAINT_SETS.values():
        assert endow in enumerate_feasible(market, constraint_set)


@SETTINGS
@given(markets())
def test_filter_soundness_and_chain(market):
    from exchange_clear import ConstraintSet, DESIRABLE_ONLY, PAIRWISE_ONLY, SIR

    names = ["pairwise", "maxcycle2", "maxcycle3", "unrestricted"]
    sets = [set(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS[n])) for n in names]
    assert sets[0] <= sets[1] <= sets[2] <= sets[3]
    mixed = ConstraintSet((SIR, PAIRWISE_ONLY, DESIRABLE_ONLY))
    for alloc in enumerate_feasible(market, mixed):
        for constraint in mixed:
            assert satisfies_constraints(market, alloc, ConstraintSet((constraint,)))


@SETTINGS
@given(markets_with_allocations())
def test_eulerian_balance_iff_decomposable(case):
    # a cap of n agents never binds, so it accepts exactly the balanced trades
    market, alloc = case
    graph = trade_graph(market, alloc)
    no_cap = ConstraintSet((max_cycle_agents(max(2, len(market.agent_ids))),))
    assert satisfies_constraints(market, alloc, no_cap) == graph.balanced()
    decomposition = find_cycle_decomposition(graph, len(market.agent_ids))
    assert (decomposition is not None) == graph.balanced()
    if decomposition is not None:
        flat = sorted(e for walk in decomposition.walks for e in walk)
        assert flat == sorted(graph.edges)


@SETTINGS
@given(markets())
def test_mechanism_outputs_feasible_and_deterministic(market):
    cs = BUILT_IN_CONSTRAINT_SETS["sir"]
    feasible = enumerate_feasible(market, cs)
    priority = market.agent_ids
    cp = MechanismSpec("cp", priority, cs)
    cp_one, cp_two = run_mechanism(market, cp), run_mechanism(market, cp)
    assert cp_one == cp_two
    assert cp_one in feasible
    cup = run_mechanism(market, MechanismSpec("cup", priority, cs))
    assert cup in feasible
    # utilitarian leading term dominates the priority refinement
    assert sum(satisfaction_profile(market, cup).values()) >= sum(
        satisfaction_profile(market, cp_one).values()
    )


@SETTINGS
@given(markets(max_agents=4), st.sampled_from(sorted(BUILT_IN_CONSTRAINT_SETS)), st.data())
def test_solve_matches_run_mechanism(market, set_name, data):
    cs = BUILT_IN_CONSTRAINT_SETS[set_name]
    for kind in ("cp", "cup"):
        spec = MechanismSpec(kind, data.draw(st.permutations(market.agent_ids)), cs)
        assert solve(market, spec) == run_mechanism(market, spec)


@SETTINGS
@given(markets())
def test_misreport_budget_prefix(market):
    agent_id = market.agent_ids[0]
    small = enumerate_misreports(market, agent_id, MisreportBudget(bundle_cap=1, max_scenarios=25))
    large = enumerate_misreports(market, agent_id, MisreportBudget(bundle_cap=2, max_scenarios=80))
    assert small == large[: len(small)]


@SETTINGS
@given(markets())
def test_serialization_round_trip(market):
    assert parse_instance(serialize(market)) == market


@SETTINGS
@given(st.integers(0, 10_000))
def test_generator_round_trip(seed):
    market = generate_instance(GeneratorConfig(seed=seed))
    assert parse_instance(serialize(market)) == market
