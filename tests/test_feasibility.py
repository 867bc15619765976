import copy
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
    MechanismSpec,
    endowment_allocation,
    enumerate_feasible,
    format_constraints,
    generate_instance,
    max_cycle_agents,
    parse_constraints,
    run_mechanism,
    satisfaction_profile,
    satisfies_constraints,
    suites,
)
from exchange_clear import feasibility
from exchange_clear.feasibility import (
    DEFAULT_SEARCH_BUDGET,
    SIR,
    clear_enumeration_cache,
    feasible_with_profiles,
    search_feasible,
)

from oracles import (
    TradeGraph,
    find_cycle_decomposition,
    involutions,
    naive_enumerate,
    naive_satisfies_constraints,
    one_donor_market,
    pareto_frontier,
    permanent,
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


# seeded generator markets whose endowments are padded with null items,
# which the desirable filter lets every agent receive (at most 7 items, so
# the naive enumerator stays quick)
NULL_MARKETS = [
    market
    for market in (
        generate_instance(GeneratorConfig(seed=seed, agents=(2, 3), items_per_agent=(1, 2), null_padding=True))
        for seed in range(1, 61)
    )
    if len(market.items) <= 7
]


@pytest.mark.parametrize("set_name", sorted(CHECK_SETS))
def test_search_matches_naive_with_null_items(set_name):
    cs = CHECK_SETS[set_name]
    assert sum(bool(market.null_item_ids) for market in NULL_MARKETS) > 30
    for market in NULL_MARKETS:
        assert search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)[:2] == _naive_with_profiles(market, cs), market


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


def _frontier(market, cs):
    allocations, profiles, _ = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET, frontier=True)
    return tuple(zip(allocations, profiles))


@pytest.mark.parametrize("seed", range(1, 41))
def test_frontier_search_keeps_first_holders_of_maximal_profiles(seed):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for name, cs in {**CHECK_SETS, **CLAIM_SETS}.items():
        assert _frontier(market, cs) == pareto_frontier(*feasible_with_profiles(market, cs)), (seed, name)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(CHECK_SETS)))
def test_frontier_search_keeps_first_holders_of_maximal_profiles_property(seed, name):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    cs = CHECK_SETS[name]
    assert _frontier(market, cs) == pareto_frontier(*_naive_with_profiles(market, cs))


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
        assert run_mechanism(market, MechanismSpec("cp", (), cs)) == Allocation(())


def test_cycle_partition_steps_are_charged(monkeypatch):
    market = generate_instance(GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2)))
    cs = BUILT_IN_CONSTRAINT_SETS["maxcycle3"]
    *expected, charged_nodes = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)

    real = feasibility._partition_into_cycles
    steps = []
    monkeypatch.setattr(
        feasibility,
        "_partition_into_cycles",
        lambda edges, cap, charge: real(edges, cap, lambda: steps.append(1)),
    )
    *found, free_nodes = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)
    assert found == expected
    assert steps and free_nodes + len(steps) == charged_nodes
    # the assignment search alone fits this budget; the partition steps do not
    assert search_feasible(market, cs, free_nodes)[:2] == tuple(expected)
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError):
        search_feasible(market, cs, free_nodes)


def test_pairwise_five_agent_ladder_cell_fits_default_budget():
    market = generate_instance(GeneratorConfig(seed=3, agents=(5, 5), items_per_agent=(2, 2)))
    allocs = enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["pairwise"], budget=DEFAULT_SEARCH_BUDGET)
    assert len(allocs) == 5850


def test_pairwise_four_agent_search_is_propagated():
    # checking trade structure only on complete allocations visits all
    # 65,536 of them (73,378 nodes)
    market = generate_instance(GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2)))
    assert len(enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["pairwise"], budget=5_000)) == 474


# The search's exact (nodes, allocations) under the default budget, on the
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
        ("ladder", 4, "sir", 354, 110),
        ("ladder", 4, "sir,maxcycle=3", 203, 16),
        ("ladder", 4, "pairwise", 1_603, 474),
        ("ladder", 4, "maxcycle=3", 23_189, 2_082),
        ("ladder", 4, "pairwise,desirable", 57, 10),
        ("ladder", 5, "sir", 101, 23),
        ("ladder", 5, "sir,maxcycle=3", 79, 4),
        ("ladder", 5, "pairwise", 20_171, 5_850),
        ("ladder", 6, "sir", 31, 1),
        ("ladder", 6, "sir,maxcycle=3", 31, 1),
        ("ladder", 7, "sir,maxcycle=3", 580, 17),
        ("ladder", 8, "sir,pairwise", 17_596, 15),
        ("ladder", 9, "sir", 2_831, 972),
        ("ladder", 9, "sir,maxcycle=3", 867, 20),
        ("cli", 2, "sir", 40, 1),
        ("cli", 2, "sir,maxcycle=3", 40, 1),
        ("cli", 3, "sir", 57, 2),
        ("cli", 3, "sir,maxcycle=3", 67, 2),
    ],
)
def test_search_node_counts_are_pinned(shape, arg, text, nodes, count):
    market = generate_instance(SHAPES[shape](arg))
    allocations, _, charged = search_feasible(market, parse_constraints(text), DEFAULT_SEARCH_BUDGET)
    assert (charged, len(allocations)) == (nodes, count)


def test_sir_reservation_packing_is_charged():
    # a0..a6 each own one item and want any one of b's six items; b wants
    # all seven.  Any demand of a0 makes b take its demand, which leaves
    # a1..a6 five items: the root's reservation pass refutes each of a0's
    # six demands after about 5!*e failed packing steps, each a node.  Every
    # other demand then needs a0 or b to reserve one, so it fails at once;
    # with no demand left the search places the endowment (2,049 in all;
    # the root and the placements are 14)
    k = 6
    agents = tuple(Agent(f"a{i}", [f"p{i}"], [{f"u{j}"} for j in range(k)]) for i in range(k + 1))
    agents += (Agent("b", [f"u{j}" for j in range(k)], [{f"p{i}" for i in range(k + 1)}]),)
    items = tuple(Item(f"p{i}") for i in range(k + 1)) + tuple(Item(f"u{j}") for j in range(k))
    market = Market(agents, items)
    sir = parse_constraints("sir")
    allocations, _, nodes = search_feasible(market, sir, DEFAULT_SEARCH_BUDGET)
    assert (nodes, allocations) == (2_049, (endowment_allocation(market),))
    with pytest.raises(BudgetExceededError):
        search_feasible(market, sir, 1_000)


# The frontier search's exact (nodes, frontier profiles) on the ladder cells
# where it saves the most: the full search charges 1,603, 20,171, 300,355,
# 1,233,843, 352,913 and 19,736 nodes on them.  Dropping the node prune
# moves the node counts; dropping the leaf eviction moves the profile counts.
@pytest.mark.parametrize(
    "n, text, nodes, count",
    [
        (4, "pairwise", 801, 3),
        (5, "pairwise", 4_505, 2),
        (6, "pairwise", 35_906, 2),
        (5, "maxcycle=3", 20_777, 1),
        (8, "sir", 598, 1),
        (8, "sir,pairwise", 17_525, 2),
    ],
)
def test_frontier_search_node_counts_are_pinned(n, text, nodes, count):
    market = generate_instance(SHAPES["ladder"](n))
    allocations, _, charged = search_feasible(
        market, parse_constraints(text), DEFAULT_SEARCH_BUDGET, frontier=True
    )
    assert (charged, len(allocations)) == (nodes, count)


@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_donor_counts_match_exact_oracles(seed, n):
    # one item per agent and single-item demands: under sir every agent ends
    # with exactly one item, its own or a compatible donor's, so the
    # allocations are the permutations inside compat + I; pairwise balance
    # leaves their involutions.  These counts lie past naive_enumerate's
    # n^n assignments.
    market, compat = one_donor_market(seed, n)
    with_identity = [[int(i == j) | c for j, c in enumerate(row)] for i, row in enumerate(compat)]
    sir, _, _ = search_feasible(market, parse_constraints("sir"), DEFAULT_SEARCH_BUDGET)
    pairwise, _, _ = search_feasible(market, parse_constraints("sir,pairwise"), DEFAULT_SEARCH_BUDGET)
    assert (len(sir), len(pairwise)) == (permanent(with_identity), involutions(compat))


# ------------------------------------------------- root reservation pass

# every built-in sir set, with the ir and desirable kinds beside it: the
# pass prunes under all of them, and desirable must keep reading the
# demands as written
PASS_SETS = {name: cs for name, cs in BUILT_IN_CONSTRAINT_SETS.items() if SIR in cs}
PASS_SETS.update({text: parse_constraints(text) for text in ("sir,desirable", "sir,ir", "sir,pairwise,desirable")})

# markets with an item that nobody endows (z): under sir it must go to an
# agent that ends covered, so the demands that hold it decide who may take it
UNENDOWED_MARKETS = [
    Market(
        (
            Agent("1", ["x"], [{"y", "z"}, {"z"}]),
            Agent("2", ["y"], [{"x"}, {"x", "z"}]),
            Agent("3", ["w"], [{"y"}, {"x", "w"}]),
        ),
        (Item("w"), Item("x"), Item("y"), Item("z")),
    ),
    Market(
        (Agent("1", ["x"], [{"y"}, {"z"}]), Agent("2", ["y"], [{"x", "z"}])),
        (Item("x"), Item("y"), Item("z")),
    ),
]

PASS_MARKETS = {
    "tiny": [tiny_random_market(seed, max_agents=4, max_items=5) for seed in range(1, 41)],
    "family": suites.family(range(1, 61)),
    "null": NULL_MARKETS,
    "unendowed": UNENDOWED_MARKETS,
}


@pytest.mark.parametrize("group", sorted(PASS_MARKETS))
def test_reservation_pass_matches_naive(group):
    # the full and the frontier search under every set the pass runs under;
    # each set is sir and more, so its naive answer is the naive sir answer
    # filtered by its own predicate, in the same order
    for market in PASS_MARKETS[group]:
        sir = naive_enumerate(market, BUILT_IN_CONSTRAINT_SETS["sir"])
        for name, cs in PASS_SETS.items():
            allocs = tuple(a for a in sir if naive_satisfies_constraints(market, a, cs))
            expected = allocs, tuple(tuple(satisfaction_profile(market, a).values()) for a in allocs)
            assert search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)[:2] == expected, (name, market)
            assert _frontier(market, cs) == pareto_frontier(*expected), (name, market)


def _pruned_live(market, cs):
    c = feasibility._compile(market, cs)
    return feasibility._reservation_consistent(c, lambda: None), c.live


def test_reservation_pass_drops_a_demand_no_packing_holds():
    # 1 wants 2's item, 2 wants 3's, 3 wants nothing: if 1 reserves y, 2
    # must give it up and reserve z, which 3 cannot give up
    market = Market(
        (Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [{"z"}]), Agent("3", ["z"])),
        (Item("x"), Item("y"), Item("z")),
    )
    pruned, live = _pruned_live(market, BUILT_IN_CONSTRAINT_SETS["sir"])
    assert live == [[0b010], [0b100], []]
    assert pruned == [[], [], []]
    for cs in PASS_SETS.values():
        assert enumerate_feasible(market, cs) == [endowment_allocation(market)]


def test_reservation_pass_keeps_a_demand_that_needs_another_agents_item():
    # a three-cycle: each demand takes the next agent's item, so it lies only
    # in the packing where every agent reserves its demand
    market = Market(
        (Agent("1", ["x"], [{"y"}, {"w"}]), Agent("2", ["y"], [{"z"}]), Agent("3", ["z"], [{"x"}])),
        (Item("w"), Item("x"), Item("y"), Item("z")),
    )
    pruned, live = _pruned_live(market, BUILT_IN_CONSTRAINT_SETS["sir"])
    # w is endowed by nobody and lies in no other agent's endowment; every
    # demand is kept
    assert pruned == live == [[0b0001, 0b0100], [0b1000], [0b0010]]
    rotate = Allocation({"w": "1", "x": "3", "y": "1", "z": "2"})
    assert rotate in enumerate_feasible(market, BUILT_IN_CONSTRAINT_SETS["sir"])


def test_searches_leave_their_compiled_value_unchanged():
    # a compiled value is input only: the searches build their own coverage
    # memos, so a base can be searched and patched again and again
    def search(c):
        return feasibility._search(c, DEFAULT_SEARCH_BUDGET)

    def frontier(c):
        return feasibility._search(c, DEFAULT_SEARCH_BUDGET, frontier=True)

    def reservation_pass(c):
        return feasibility._reservation_consistent(c, lambda: None)

    for market in suites.family(range(1, 31)):
        for name, cs in BUILT_IN_CONSTRAINT_SETS.items():
            base = feasibility._compile(market, cs)
            patch = feasibility._with_demands(base, 0, market.agents[-1].demands)
            for value, call in ((base, search), (base, frontier), (patch, search), (base, reservation_pass)):
                before = copy.deepcopy(value)
                call(value)
                assert value == before, (name, call.__name__, market)


def test_reservation_pass_runs_only_under_sir(monkeypatch):
    # without sir an agent need not end covered, so a demand in no packing
    # can still be held: under ir agent 1 may take y while 2 goes without
    market = Market(
        (Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [{"z"}]), Agent("3", ["z"])),
        (Item("x"), Item("y"), Item("z")),
    )
    real = feasibility._reservation_consistent
    runs = []

    def spy(c, charge):
        runs.append(c.need_sir)
        return real(c, charge)

    monkeypatch.setattr(feasibility, "_reservation_consistent", spy)
    for name, cs in {**CHECK_SETS, **CLAIM_SETS, **PASS_SETS}.items():
        runs.clear()
        allocs = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)[0]
        assert list(allocs) == naive_enumerate(market, cs), name
        assert runs == ([True] if SIR in cs else []), name
    _, profiles = feasible_with_profiles(market, BUILT_IN_CONSTRAINT_SETS["ir"])
    assert any(profile[0] for profile in profiles)
