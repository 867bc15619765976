import gc
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from exchange_clear import (
    Agent,
    Allocation,
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    Constraint,
    ConstraintSet,
    GeneratorConfig,
    Item,
    Market,
    endowment_allocation,
    enumerate_feasible,
    format_constraints,
    generate_instance,
    max_cycle_agents,
    parse_constraints,
    run_cp,
    satisfaction_profile,
    satisfies_constraints,
)
from exchange_clear import feasibility
from exchange_clear.feasibility import (
    DEFAULT_SEARCH_BUDGET,
    _search,
    clear_enumeration_cache,
    feasible_with_profiles,
)

from oracles import (
    TradeGraph,
    find_cycle_decomposition,
    naive_enumerate,
    naive_satisfies_constraints,
    tiny_random_market,
    trade_graph,
)

# cross-check sets: every built-in plus a mixed conjunction that is legal to
# assemble even though it is not a named built-in
CHECK_SETS = dict(BUILT_IN_CONSTRAINT_SETS)
CHECK_SETS["sir+pairwise+desirable"] = ConstraintSet(
    (Constraint("sir"), Constraint("pairwise"), Constraint("desirable"))
)
CHECK_SETS["maxcycle4"] = ConstraintSet((max_cycle_agents(4),))


def test_trade_graph_endowment_is_empty(example1):
    graph = trade_graph(example1.market, endowment_allocation(example1.market))
    assert graph.edges == ()


def test_trade_graph_example1(example1, example1_all_satisfying):
    graph = trade_graph(example1.market, example1_all_satisfying)
    assert graph.edges == (
        ("1", "3", "c4"),
        ("2", "1", "p"),
        ("3", "2", "h"),
        ("3", "2", "s"),
    )


def test_trade_graph_single_swap():
    market = Market(agents=(Agent("1", ["x"]), Agent("2", ["y"])), items=(Item("x"), Item("y")))
    graph = trade_graph(market, Allocation({"x": "2", "y": "1"}))
    assert graph.edges == (("1", "2", "x"), ("2", "1", "y"))


def test_cycle_decomposition_empty():
    decomp = find_cycle_decomposition(TradeGraph(("1", "2"), ()), 2)
    assert decomp is not None and decomp.walks == ()


def test_cycle_decomposition_two_cycle():
    graph = TradeGraph(("1", "2"), (("1", "2", "x"), ("2", "1", "y")))
    decomp = find_cycle_decomposition(graph, 2)
    assert decomp is not None
    assert decomp.agent_counts == (2,)


def test_cycle_decomposition_triangle():
    graph = TradeGraph(("1", "2", "3"), (("1", "2", "x"), ("2", "3", "y"), ("3", "1", "z")))
    assert find_cycle_decomposition(graph, 2) is None
    decomp = find_cycle_decomposition(graph, 3)
    assert decomp is not None and decomp.agent_counts == (3,)


def test_cycle_decomposition_unbalanced():
    graph = TradeGraph(("1", "2"), (("1", "2", "x"),))
    assert find_cycle_decomposition(graph, 5) is None


def test_cycle_decomposition_partitions_all_edges():
    # two triangles sharing agent 1: cap 3 works even though 5 agents trade
    edges = (
        ("1", "2", "p"), ("2", "3", "q"), ("3", "1", "r"),
        ("1", "4", "s"), ("4", "5", "t"), ("5", "1", "u"),
    )
    graph = TradeGraph(("1", "2", "3", "4", "5"), edges)
    decomp = find_cycle_decomposition(graph, 3)
    assert decomp is not None
    flat = sorted(e for walk in decomp.walks for e in walk)
    assert flat == sorted(edges)
    assert all(count <= 3 for count in decomp.agent_counts)


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint("maxcycle", 1)
    with pytest.raises(ValueError):
        Constraint("nonsense")
    with pytest.raises(ValueError):
        Constraint("sir", 3)


def test_parse_and_format_constraints():
    cs = parse_constraints("sir,pairwise,maxcycle=3")
    assert format_constraints(cs) == ["sir", "pairwise", "maxcycle=3"]
    cs = parse_constraints(" unrestricted,ir,desirable ")
    assert format_constraints(cs) == ["unrestricted", "ir", "desirable"]
    assert parse_constraints("sir,,ir") == parse_constraints("sir,ir")
    with pytest.raises(ValueError):
        parse_constraints("bogus")
    with pytest.raises(ValueError):
        parse_constraints("maxcycle=x")


def test_endowment_passes_every_built_in(example1):
    endow = endowment_allocation(example1.market)
    for cs in BUILT_IN_CONSTRAINT_SETS.values():
        assert satisfies_constraints(example1.market, endow, cs)


def test_desirable_only_rejects_unwanted_swap(theorem5):
    market = theorem5.market
    # one-for-one swaps a1<->c1 and a2<->b2: balanced pairs, but agent 3
    # receives a1 (not liked) and agent 1 receives b2 (not liked)
    alloc = Allocation(
        {"a1": "3", "c1": "1", "a2": "2", "b2": "1",
         "a3": "1", "b1": "2", "b3": "2", "c2": "3", "c3": "3"}
    )
    assert satisfies_constraints(market, alloc, BUILT_IN_CONSTRAINT_SETS["pairwise"])
    assert not satisfies_constraints(market, alloc, theorem5.constraints)


def test_pairwise_rejects_three_cycle():
    market = Market(
        agents=(Agent("1", ["x"]), Agent("2", ["y"]), Agent("3", ["z"])),
        items=(Item("x"), Item("y"), Item("z")),
    )
    rotate = Allocation({"x": "2", "y": "3", "z": "1"})
    assert not satisfies_constraints(market, rotate, BUILT_IN_CONSTRAINT_SETS["pairwise"])
    assert satisfies_constraints(market, rotate, BUILT_IN_CONSTRAINT_SETS["maxcycle3"])


def test_enumerate_two_agents_unrestricted():
    market = Market(agents=(Agent("1", ["x"]), Agent("2", ["y"])), items=(Item("x"), Item("y")))
    allocs = enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["unrestricted"])
    assert len(allocs) == 4
    assert [a.canonical_key for a in allocs] == [
        ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")
    ]


def test_enumerate_example1_sir(example1, example1_all_satisfying):
    allocs = enumerate_feasible(example1.market, example1.constraints)
    assert endowment_allocation(example1.market) in allocs
    assert example1_all_satisfying in allocs
    assert len(allocs) == 67  # frozen regression value


def test_enumerate_canonical_order(example1):
    allocs = enumerate_feasible(example1.market, example1.constraints)
    keys = [a.canonical_key for a in allocs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", range(1, 13))
@pytest.mark.parametrize(
    "set_name",
    ["unrestricted", "sir", "ir", "pairwise", "desirable", "sir+pairwise+desirable", "maxcycle2"],
)
def test_enumerate_matches_naive(seed, set_name):
    market = tiny_random_market(seed)
    cs = CHECK_SETS[set_name]
    assert enumerate_feasible(market, cs) == naive_enumerate(market, cs)


def test_filter_chain_property():
    for seed in range(1, 8):
        market = tiny_random_market(seed)
        pairwise = set(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["pairwise"]))
        cap2 = set(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["maxcycle2"]))
        cap3 = set(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["maxcycle3"]))
        everything = set(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["unrestricted"]))
        assert pairwise <= cap2 <= cap3 <= everything


def test_budget_guard(example1):
    with pytest.raises(BudgetExceededError):
        enumerate_feasible(example1.market, BUILT_IN_CONSTRAINT_SETS["unrestricted"], budget=50)


def test_budget_env_override(example1, monkeypatch):
    monkeypatch.setenv("EXCHANGE_CLEAR_BUDGET", "50")
    with pytest.raises(BudgetExceededError):
        enumerate_feasible(example1.market, BUILT_IN_CONSTRAINT_SETS["unrestricted"])


@pytest.mark.parametrize(
    "value, cause",
    [("abc", "is not an integer"), ("1e6", "is not an integer"), ("0", "must be positive"), ("-5", "must be positive")],
)
def test_budget_env_rejects_bad_values(example1, monkeypatch, value, cause):
    monkeypatch.setenv("EXCHANGE_CLEAR_BUDGET", value)
    with pytest.raises(ValueError, match=f"EXCHANGE_CLEAR_BUDGET={value!r} {cause}"):
        enumerate_feasible(example1.market, BUILT_IN_CONSTRAINT_SETS["sir"])


@pytest.mark.parametrize("budget", [2.5, True, "40", 0, -3, "abc"])
def test_explicit_budget_rejects_bad_values(example1, budget):
    with pytest.raises(ValueError, match=re.escape(f"node budget must be a positive integer, got {budget!r}")):
        enumerate_feasible(example1.market, BUILT_IN_CONSTRAINT_SETS["sir"], budget=budget)


def test_maxcycle_constraint_in_enumeration():
    # three agents, one item each, everyone wants the next agent's item:
    # the only satisfying trade is a 3-cycle, excluded under cap 2
    market = Market(
        agents=(
            Agent("1", ["x"], [{"y"}]),
            Agent("2", ["y"], [{"z"}]),
            Agent("3", ["z"], [{"x"}]),
        ),
        items=(Item("x"), Item("y"), Item("z")),
    )
    cap2 = enumerate_feasible(market, ConstraintSet((Constraint("sir"), max_cycle_agents(2))))
    cap3 = enumerate_feasible(market, ConstraintSet((Constraint("sir"), max_cycle_agents(3))))
    assert cap2 == [endowment_allocation(market)]
    rotate = Allocation({"x": "3", "y": "1", "z": "2"})
    assert rotate in cap3


@pytest.mark.parametrize("seed", range(1, 41))
def test_satisfies_constraints_matches_naive_on_every_assignment(seed):
    # four agents are needed for a balanced trade that a cap of 2 or 3 rejects
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for assignees in itertools.product(market.agent_ids, repeat=len(market.item_ids)):
        alloc = Allocation(tuple(zip(market.item_ids, assignees)))
        for name, cs in CHECK_SETS.items():
            expected = naive_satisfies_constraints(market, alloc, cs)
            assert satisfies_constraints(market, alloc, cs) == expected, (seed, name, alloc)


def test_satisfies_constraints_rejects_trades_to_outsiders():
    market = Market(agents=(Agent("1", ["x"]), Agent("2", ["y"])), items=(Item("x"), Item("y")))
    alloc = Allocation({"x": "9", "y": "1"})
    for name in ("pairwise", "maxcycle2", "maxcycle3"):
        assert not satisfies_constraints(market, alloc, BUILT_IN_CONSTRAINT_SETS[name])
        assert not naive_satisfies_constraints(market, alloc, BUILT_IN_CONSTRAINT_SETS[name])


@pytest.mark.parametrize("set_name", ["pairwise", "sir+maxcycle3", "maxcycle2"])
def test_search_leaves_no_reference_cycles(set_name):
    # four agents with two items each: sir+maxcycle3 reaches the
    # cycle-partition search, pairwise and maxcycle2 give the 474-allocation
    # table
    market = generate_instance(
        GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2))
    )
    clear_enumeration_cache()
    gc.collect()
    gc.disable()
    try:
        assert enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS[set_name])
        assert gc.collect() == 0
    finally:
        gc.enable()


# four agents with one or two items each and three demanded pairs: sir
# searches here mostly end because two agents need the same unplaced item,
# which only the joint reservation test sees (it cut nodes on all 120
# (seed, set) cases against the search without it)
CONTESTED_SETS = ("sir", "sir+maxcycle3", "sir+pairwise")


@pytest.mark.parametrize("seed", range(1, 41))
def test_contested_sir_markets_match_naive(seed):
    market = generate_instance(
        GeneratorConfig(
            seed=seed, agents=(4, 4), items_per_agent=(1, 2), demands_per_agent=(3, 3), demand_bundle_size=(2, 2)
        )
    )
    # each set is sir and more, so its naive answer is the naive sir answer
    # filtered by its own predicate, in the same order
    sir = naive_enumerate(market, BUILT_IN_CONSTRAINT_SETS["sir"])
    for name in CONTESTED_SETS:
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        expected = [a for a in sir if naive_satisfies_constraints(market, a, cs)]
        assert enumerate_feasible(market, cs) == expected, name


def _naive_with_profiles(market, cs):
    allocs = naive_enumerate(market, cs)
    profiles = tuple(tuple(satisfaction_profile(market, a).values()) for a in allocs)
    return tuple(allocs), profiles


# the desirable filter with the sets whose agents may claim an item: a
# claimant can always receive it (kept out of CHECK_SETS, which the slower
# strategyproofness gate also runs)
CLAIM_SETS = {text: parse_constraints(text) for text in ("sir,desirable", "ir,desirable")}


@pytest.mark.parametrize("seed", range(1, 41))
def test_feasible_with_profiles_matches_naive(seed):
    # four agents reach balanced trades that a cap of 2 or 3 rejects
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for name, cs in {**CHECK_SETS, **CLAIM_SETS}.items():
        assert feasible_with_profiles(market, cs) == _naive_with_profiles(market, cs), (seed, name)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(CHECK_SETS)))
def test_feasible_with_profiles_matches_naive_property(seed, name):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    cs = CHECK_SETS[name]
    assert feasible_with_profiles(market, cs) == _naive_with_profiles(market, cs)


def test_unendowed_item_makes_no_trade_edge():
    # "z" is endowed by nobody: giving it to either agent trades nothing, so
    # only the receiver's own tests (sir, desirable) can turn it away
    market = Market((Agent("1", ["x"]), Agent("2", ["y"])), (Item("x"), Item("y"), Item("z")))
    for name, cs in BUILT_IN_CONSTRAINT_SETS.items():
        allocs = enumerate_feasible(market, cs)
        assert allocs == naive_enumerate(market, cs), name
        if "sir" in name or "desirable" in name:
            assert allocs == [], name
        else:
            assert len(allocs) == (8 if name in ("unrestricted", "ir") else 4), name


@pytest.mark.parametrize("set_name", sorted(BUILT_IN_CONSTRAINT_SETS))
@pytest.mark.parametrize("items", [(), (Item("x"),)], ids=["no-items", "one-item"])
def test_agentless_market_matches_naive(set_name, items):
    # with no items the empty allocation is the endowment and is feasible;
    # an item with no agent to receive it leaves nothing feasible
    market = Market((), items)
    cs = BUILT_IN_CONSTRAINT_SETS[set_name]
    assert feasible_with_profiles(market, cs) == _naive_with_profiles(market, cs)
    if not items:
        assert run_cp(market, (), cs) == Allocation(())


def test_cycle_partition_steps_are_charged(monkeypatch):
    market = generate_instance(GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2)))
    cs = BUILT_IN_CONSTRAINT_SETS["maxcycle3"]
    *expected, charged_nodes = _search(market, cs, DEFAULT_SEARCH_BUDGET)

    real = feasibility._partition_into_cycles
    steps = []
    monkeypatch.setattr(
        feasibility,
        "_partition_into_cycles",
        lambda edges, cap, charge: real(edges, cap, lambda: steps.append(1)),
    )
    *found, free_nodes = _search(market, cs, DEFAULT_SEARCH_BUDGET)
    assert found == expected
    assert steps and free_nodes + len(steps) == charged_nodes
    # the assignment search alone fits this budget; the partition steps do not
    assert _search(market, cs, free_nodes)[:2] == tuple(expected)
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError):
        _search(market, cs, free_nodes)


def test_pairwise_five_agent_ladder_cell_fits_default_budget():
    market = generate_instance(GeneratorConfig(seed=3, agents=(5, 5), items_per_agent=(2, 2)))
    allocs = enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["pairwise"], budget=DEFAULT_SEARCH_BUDGET)
    assert len(allocs) == 5850


def test_pairwise_four_agent_search_is_propagated():
    # checking trade structure only on complete allocations visits all
    # 65,536 of them (73,378 nodes)
    market = generate_instance(GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2)))
    assert len(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["pairwise"], budget=5_000)) == 474


# `_search`'s exact (nodes, allocations) under the default budget, on the
# generator-seed-3 ladder with two items per agent and on the clear-cli
# benchmark's market shape (five agents with three demanded pairs each).
# The naive oracles check the returned sets; only these pins see a change
# in how much the search prunes.
SHAPES = {
    "ladder": lambda n: GeneratorConfig(seed=3, agents=(n, n), items_per_agent=(2, 2)),
    "cli": lambda seed: GeneratorConfig(
        seed=seed, agents=(5, 5), items_per_agent=(2, 2), demands_per_agent=(3, 3), demand_bundle_size=(2, 2)
    ),
}


@pytest.mark.parametrize(
    "shape, arg, text, nodes, count",
    [
        ("ladder", 4, "sir", 381, 110),
        ("ladder", 4, "sir,maxcycle=3", 228, 16),
        ("ladder", 4, "pairwise", 1_603, 474),
        ("ladder", 4, "maxcycle=3", 23_189, 2_082),
        ("ladder", 4, "pairwise,desirable", 57, 10),
        ("ladder", 5, "sir", 96, 23),
        ("ladder", 5, "sir,maxcycle=3", 74, 4),
        ("ladder", 5, "pairwise", 20_171, 5_850),
        ("ladder", 6, "sir", 56, 1),
        ("ladder", 6, "sir,maxcycle=3", 56, 1),
        ("ladder", 7, "sir,maxcycle=3", 1_150, 17),
        ("ladder", 8, "sir,pairwise", 19_736, 15),
        ("ladder", 9, "sir", 3_946, 972),
        ("ladder", 9, "sir,maxcycle=3", 1_920, 20),
        ("cli", 2, "sir", 159, 1),
        ("cli", 2, "sir,maxcycle=3", 159, 1),
        ("cli", 3, "sir", 340, 2),
        ("cli", 3, "sir,maxcycle=3", 337, 2),
    ],
)
def test_search_node_counts_are_pinned(shape, arg, text, nodes, count):
    market = generate_instance(SHAPES[shape](arg))
    allocations, _, charged = _search(market, parse_constraints(text), DEFAULT_SEARCH_BUDGET)
    assert (charged, len(allocations)) == (nodes, count)


def test_sir_reservation_packing_is_charged():
    # a0..a6 each own one item and want any one of b's six items; b wants
    # all seven.  Once a0 gives p0 to b, b claims p1..p6 and seven agents
    # need six items: the joint test's packing fails after about e*6!
    # steps, each a node (2,013 in all; the root and the placements are 14)
    k = 6
    agents = tuple(Agent(f"a{i}", [f"p{i}"], [{f"u{j}"} for j in range(k)]) for i in range(k + 1))
    agents += (Agent("b", [f"u{j}" for j in range(k)], [{f"p{i}" for i in range(k + 1)}]),)
    items = tuple(Item(f"p{i}") for i in range(k + 1)) + tuple(Item(f"u{j}") for j in range(k))
    market = Market(agents, items)
    sir = parse_constraints("sir")
    allocations, _, nodes = _search(market, sir, DEFAULT_SEARCH_BUDGET)
    assert (nodes, allocations) == (2_013, (endowment_allocation(market),))
    with pytest.raises(BudgetExceededError):
        _search(market, sir, 1_000)
