import copy
import gc
import itertools
import pickle
import re
import tracemalloc
import types

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
from exchange_clear.mechanisms import MECHANISM_KINDS, _weights, profile_key, solve

from conftest import look_up_in_child
from oracles import (
    TradeGraph,
    chosen_index,
    find_cycle_decomposition,
    involutions,
    naive_enumerate,
    naive_satisfies_constraints,
    one_donor_market,
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


def test_constraint_set_hash_is_the_fields_hash_computed_once():
    cs = parse_constraints("sir,maxcycle=3")
    assert "_hash" not in vars(cs)
    assert hash(cs) == hash((cs.constraints,))
    assert vars(cs)["_hash"] == hash(cs)
    other = parse_constraints("sir,maxcycle=3")
    assert other == cs and other is not cs and hash(other) == hash(cs)


def test_equal_constraint_sets_parsed_separately_share_one_cache_entry(example1):
    # straight into the cache, past the canonical-set memo
    clear_enumeration_cache()
    first, second = parse_constraints("sir,maxcycle=3"), parse_constraints("sir,maxcycle=3")
    cached = feasibility._feasible_profiles_cached
    table = cached(example1.market, first, DEFAULT_SEARCH_BUDGET)
    before = cached.cache_info()
    assert cached(example1.market, second, DEFAULT_SEARCH_BUDGET) is table
    after = cached.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)


@pytest.mark.parametrize(
    "duplicate",
    [lambda cs: pickle.loads(pickle.dumps(cs)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_constraint_set_copies_rebuild_from_the_fields(duplicate):
    cs = parse_constraints("sir,pairwise,maxcycle=3")
    hash(cs)
    twin = duplicate(cs)
    assert twin is not cs
    assert "_hash" not in vars(twin)
    assert twin == cs and hash(twin) == hash(cs)


def test_unpickled_constraint_set_is_found_under_another_hash_seed():
    cs = parse_constraints("sir,pairwise,maxcycle=3")
    child_hash, found = look_up_in_child(cs, "parse_constraints('sir,pairwise,maxcycle=3')")
    assert found == "found"
    assert child_hash != hash(cs)  # the seeds differ, so a kept hash would be stale


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
        expected = _naive_with_profiles(market, cs)
        assert _with_profiles(search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)) == expected, market


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


def _with_profiles(table):
    """A feasible table as :func:`_naive_with_profiles` returns its
    answer: (allocations, profiles)."""
    return tuple(table), table.profiles


# the desirable filter with the sets whose agents may claim an item: a
# claimant can always receive it (kept out of CHECK_SETS, which the slower
# strategyproofness gate also runs)
CLAIM_SETS = {text: parse_constraints(text) for text in ("sir,desirable", "ir,desirable")}


@pytest.mark.parametrize("seed", range(1, 41))
def test_feasible_with_profiles_matches_naive(seed):
    # four agents reach balanced trades that a cap of 2 or 3 rejects
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for name, cs in {**CHECK_SETS, **CLAIM_SETS}.items():
        assert _with_profiles(feasible_with_profiles(market, cs)) == _naive_with_profiles(market, cs), (seed, name)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(CHECK_SETS)))
def test_feasible_with_profiles_matches_naive_property(seed, name):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    cs = CHECK_SETS[name]
    assert _with_profiles(feasible_with_profiles(market, cs)) == _naive_with_profiles(market, cs)


def _check_bounded(market, cs, expected, search=None):
    """The search bounded by cp's and cup's keys, under the canonical and the
    reversed priority, returns run_mechanism's choice from the feasible table
    `expected` (allocations, profiles) with its profile, or nothing when the
    table is empty.  `search` maps the weights to a search's table."""
    search = search or (lambda weights: search_feasible(market, cs, DEFAULT_SEARCH_BUDGET, weights))
    allocations, profiles = expected
    for kind in MECHANISM_KINDS:
        for priority in (market.agent_ids, market.agent_ids[::-1]):
            spec = MechanismSpec(kind, priority, cs)
            chosen = [chosen_index(profiles, profile_key(market, spec))] if allocations else []
            choice = tuple(allocations[i] for i in chosen), tuple(profiles[i] for i in chosen)
            assert _with_profiles(search(_weights(market, spec))) == choice, spec


@pytest.mark.parametrize("seed", range(1, 41))
def test_frontier_search_keeps_first_holders_of_maximal_profiles(seed):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for cs in {**CHECK_SETS, **CLAIM_SETS}.values():
        _check_bounded(market, cs, _with_profiles(feasible_with_profiles(market, cs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(CHECK_SETS)))
def test_frontier_search_keeps_first_holders_of_maximal_profiles_property(seed, name):
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    cs = CHECK_SETS[name]
    _check_bounded(market, cs, _naive_with_profiles(market, cs))


def test_unendowed_item_makes_no_trade_edge():
    # "z" is endowed by nobody: giving it to either agent trades nothing, so
    # only the receiver's own tests (sir, desirable) can turn it away
    market = Market((Agent("1", ["x"]), Agent("2", ["y"])), (Item("x"), Item("y"), Item("z")))
    for name, cs in BUILT_IN_CONSTRAINT_SETS.items():
        allocs = enumerate_feasible(market, cs)
        assert allocs == naive_enumerate(market, cs), name
        spec = MechanismSpec("cp", market.agent_ids, cs)
        if "sir" in name or "desirable" in name:
            assert allocs == [], name
            for run in (run_mechanism, solve):
                with pytest.raises(ValueError, match="empty candidate list"):
                    run(market, spec)
        else:
            assert len(allocs) == (8 if name in ("unrestricted", "ir") else 4), name
            assert solve(market, spec) == run_mechanism(market, spec), name


@pytest.mark.parametrize("set_name", sorted(BUILT_IN_CONSTRAINT_SETS))
@pytest.mark.parametrize("items", [(), (Item("x"),)], ids=["no-items", "one-item"])
def test_agentless_market_matches_naive(set_name, items):
    # with no items the empty allocation is the endowment and is feasible;
    # an item with no agent to receive it leaves nothing feasible
    market = Market((), items)
    cs = BUILT_IN_CONSTRAINT_SETS[set_name]
    assert _with_profiles(feasible_with_profiles(market, cs)) == _naive_with_profiles(market, cs)
    for run in (run_mechanism, solve):
        if items:
            with pytest.raises(ValueError, match="empty candidate list"):
                run(market, MechanismSpec("cp", (), cs))
        else:
            assert run(market, MechanismSpec("cp", (), cs)) == Allocation(())


def test_cycle_partition_steps_are_charged(monkeypatch):
    market = generate_instance(GeneratorConfig(seed=3, agents=(4, 4), items_per_agent=(2, 2)))
    cs = BUILT_IN_CONSTRAINT_SETS["maxcycle3"]
    charged = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)

    real = feasibility._partition_into_cycles
    steps = []
    monkeypatch.setattr(
        feasibility,
        "_partition_into_cycles",
        lambda edges, cap, charge: real(edges, cap, lambda: steps.append(1)),
    )
    free = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)
    assert _with_profiles(free) == _with_profiles(charged)
    assert steps and free.nodes + len(steps) == charged.nodes
    # the assignment search alone fits this budget; the partition steps do not
    assert _with_profiles(search_feasible(market, cs, free.nodes)) == _with_profiles(charged)
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError):
        search_feasible(market, cs, free.nodes)


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
        ("ladder", 5, "sir,maxcycle=3", 77, 4),
        ("ladder", 5, "pairwise", 20_171, 5_850),
        ("ladder", 6, "sir", 31, 1),
        ("ladder", 6, "sir,maxcycle=3", 31, 1),
        ("ladder", 7, "sir,maxcycle=3", 580, 17),
        ("ladder", 8, "sir,pairwise", 10_647, 15),
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
    table = search_feasible(market, parse_constraints(text), DEFAULT_SEARCH_BUDGET)
    assert (table.nodes, len(table)) == (nodes, count)


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
    table = search_feasible(market, sir, DEFAULT_SEARCH_BUDGET)
    assert (table.nodes, table) == (2_049, (endowment_allocation(market),))
    with pytest.raises(BudgetExceededError):
        search_feasible(market, sir, 1_000)


# The nodes the search bounded by cp's and cup's keys (canonical priority)
# charges on the ladder cells where it saves the most: the full search
# charges 1,603, 20,171, 300,355, 1,233,843, 347,853 and 10,647 nodes on
# them.  Only these pins see a change in how much the bound prunes.
@pytest.mark.parametrize(
    "n, text, cp_nodes, cup_nodes",
    [
        (4, "pairwise", 801, 698),
        (5, "pairwise", 2_421, 2_057),
        (6, "pairwise", 32_132, 17_655),
        (5, "maxcycle=3", 6_648, 5_568),
        (8, "sir", 598, 597),
        (8, "sir,pairwise", 9_881, 10_571),
    ],
)
def test_bounded_search_node_counts_are_pinned(n, text, cp_nodes, cup_nodes):
    market = generate_instance(SHAPES["ladder"](n))
    cs = parse_constraints(text)
    for kind, nodes in (("cp", cp_nodes), ("cup", cup_nodes)):
        weights = _weights(market, MechanismSpec(kind, market.agent_ids, cs))
        table = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET, weights)
        assert (table.nodes, len(table)) == (nodes, 1), kind


def test_equal_profiles_in_a_table_are_one_tuple():
    # a search builds one tuple per distinct profile, and every holder of
    # that profile shares it, so a table keeps at most 2**agents of them
    market = generate_instance(SHAPES["ladder"](4))
    pairwise = BUILT_IN_CONSTRAINT_SETS["pairwise"]
    clear_enumeration_cache()
    tables = {
        "full": search_feasible(market, pairwise, DEFAULT_SEARCH_BUDGET).profiles,
        "cached": feasible_with_profiles(market, pairwise).profiles,
    }
    assert len(tables["full"]) == len(tables["cached"]) == 474
    for name, profiles in tables.items():
        assert len({id(profile) for profile in profiles}) == len(set(profiles)), name


def _allocations_held(table):
    """The Allocation objects reachable from `table` (types, modules and
    functions are not followed)."""
    seen, stack, found = set(), [table], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Allocation):
            found.append(obj)
        stack.extend(o for o in gc.get_referents(obj) if gc.is_tracked(o))
    return found


@pytest.mark.parametrize("seeds", [range(1, 11), range(11, 21), range(21, 31), range(31, 41), range(41, 51)])
def test_table_rows_first_holders_and_bundles(seeds):
    # the table keeps rows and builds an allocation only when one is read;
    # what it reads back matches the naive enumerator, and `first` is each
    # distinct profile's first index, in order of first appearance
    for market in suites.family(seeds):
        everything = naive_enumerate(market, BUILT_IN_CONSTRAINT_SETS["unrestricted"])
        for name, cs in BUILT_IN_CONSTRAINT_SETS.items():
            clear_enumeration_cache()
            table = feasible_with_profiles(market, cs)
            profiles = table.profiles
            assert _allocations_held(table) == [], (name, market)
            built = list(table)
            assert built == [a for a in everything if naive_satisfies_constraints(market, a, cs)], (name, market)
            firsts = [(p, profiles.index(p)) for p in dict.fromkeys(profiles)]
            assert list(table.first.items()) == firsts, (name, market)
            for agent_id in market.agent_ids:
                bundles = [table.bundle_of(i, agent_id) for i in range(len(table))]
                assert bundles == [a.bundle_of(agent_id) for a in built], (name, market)
            # a first holder is built once and kept
            assert all(table[i] is table[i] for _, i in firsts), (name, market)


def test_cached_table_holds_at_most_150_bytes_per_allocation():
    # a row of agent indices per allocation (about 120 B on CPython 3.11),
    # where a built Allocation per leaf took about 200 B
    market = generate_instance(SHAPES["ladder"](4))
    clear_enumeration_cache()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        table = feasible_with_profiles(market, BUILT_IN_CONSTRAINT_SETS["unrestricted"])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    clear_enumeration_cache()
    assert len(table) == 65_536
    assert held <= 150 * len(table), held / len(table)


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
    sir = search_feasible(market, parse_constraints("sir"), DEFAULT_SEARCH_BUDGET)
    pairwise = search_feasible(market, parse_constraints("sir,pairwise"), DEFAULT_SEARCH_BUDGET)
    assert (len(sir), len(pairwise)) == (permanent(with_identity), involutions(compat))



# The search's exact (nodes, allocations) on the kidney shape, where the
# balance tests reject most trades: they run before the joint test, so its
# packing steps are charged only on placements that balance.
@pytest.mark.parametrize(
    "seed, text, nodes, count",
    [
        (1, "sir,pairwise", 8_841, 100),
        (2, "sir,pairwise", 925, 12),
        (1, "sir,maxcycle=3", 32_716, 468),
        (2, "sir,maxcycle=3", 1_247, 28),
    ],
)
def test_one_donor_node_counts_are_pinned(seed, text, nodes, count):
    market, _ = one_donor_market(seed, 8)
    table = search_feasible(market, parse_constraints(text), DEFAULT_SEARCH_BUDGET)
    assert (table.nodes, len(table)) == (nodes, count)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_donor_search_matches_naive(seed, n):
    # the full and the bounded search on the kidney shape under every
    # exchange-cycle set, with and without sir
    market, _ = one_donor_market(seed, n)
    for text in ("pairwise", "maxcycle=3", "sir,pairwise", "sir,maxcycle=3"):
        cs = parse_constraints(text)
        expected = _naive_with_profiles(market, cs)
        assert _with_profiles(search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)) == expected, text
        _check_bounded(market, cs, expected)

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
    # the full and the bounded search under every set the pass runs under;
    # each set is sir and more, so its naive answer is the naive sir answer
    # filtered by its own predicate, in the same order
    for market in PASS_MARKETS[group]:
        sir = naive_enumerate(market, BUILT_IN_CONSTRAINT_SETS["sir"])
        for name, cs in PASS_SETS.items():
            allocs = tuple(a for a in sir if naive_satisfies_constraints(market, a, cs))
            expected = allocs, tuple(tuple(satisfaction_profile(market, a).values()) for a in allocs)
            assert _with_profiles(search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)) == expected, (name, market)
            _check_bounded(market, cs, expected)


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

    def bounded(c):
        # only the base is searched this way: it is the market's own value
        _check_bounded(
            market,
            cs,
            _with_profiles(feasible_with_profiles(market, cs)),
            lambda w: feasibility._search(c, DEFAULT_SEARCH_BUDGET, w),
        )

    def reservation_pass(c):
        return feasibility._reservation_consistent(c, lambda: None)

    for market in suites.family(range(1, 31)):
        for name, cs in BUILT_IN_CONSTRAINT_SETS.items():
            base = feasibility._compile(market, cs)
            patch = feasibility._with_demands(base, 0, market.agents[-1].demands)
            for value, call in ((base, search), (base, bounded), (patch, search), (base, reservation_pass)):
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
        allocs = search_feasible(market, cs, DEFAULT_SEARCH_BUDGET)
        assert list(allocs) == naive_enumerate(market, cs), name
        assert runs == ([True] if SIR in cs else []), name
    profiles = feasible_with_profiles(market, BUILT_IN_CONSTRAINT_SETS["ir"]).profiles
    assert any(profile[0] for profile in profiles)


# ------------------------------------------------- shared trade structures

# the sets that read no demand report: without sir, ir and desirable a
# search's rows and nodes depend only on the trade structure
FREE_SETS = {
    name: cs for name, cs in CHECK_SETS.items() if not {"sir", "ir", "desirable"} & {c.kind for c in cs}
}


def _twin(market):
    """`market` with each agent taking the next agent's demands: the same
    endowments, so the same trade structure."""
    demands = [ag.demands for ag in market.agents]
    demands = demands[1:] + demands[:1]
    return Market(tuple(Agent(ag.id, ag.endowment, d) for ag, d in zip(market.agents, demands)), market.items)


def _table_parts(table):
    return table._rows, table.profiles, table.first, table.nodes


def _count_searches(monkeypatch):
    """Count the calls of feasibility._search from here on; returns the
    list of their compiled values and the unwrapped search."""
    real = feasibility._search
    searched = []
    monkeypatch.setattr(feasibility, "_search", lambda c, *args: searched.append(c) or real(c, *args))
    return searched, real


def _check_shared(markets, sets, monkeypatch):
    """Every (market, set) read through the enumeration cache equals
    _search of its compiled value, and each trade structure is searched
    once: the first market with it is searched, the others are scored."""
    clear_enumeration_cache()
    searched, search = _count_searches(monkeypatch)
    structures = set()
    for market in markets:
        for name, cs in sets.items():
            c = feasibility._compile(market, feasibility._canonical(cs))
            structure = (tuple(c.owner), len(c.endow), c.pairwise, c.cycle_cap)
            before = len(searched)
            table = feasible_with_profiles(market, cs)
            assert len(searched) - before == int(structure not in structures), (name, market)
            structures.add(structure)
            assert _table_parts(table) == _table_parts(search(c, DEFAULT_SEARCH_BUDGET)), (name, market)
    assert len(searched) == len(structures)
    clear_enumeration_cache()


@pytest.mark.parametrize("seeds", [range(1, 51), range(51, 101), range(101, 151), range(151, 201)])
def test_shared_structure_tables_match_their_own_search(seeds, monkeypatch):
    # each market and its twin, under every report-free set in turn: the
    # twin is always scored over the market's rows, and so is a market
    # whose structure an earlier one had
    markets = [twin for market in suites.family(seeds) for twin in (market, _twin(market))]
    _check_shared(markets, FREE_SETS, monkeypatch)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_one_donor_seeds_share_one_structure(n, monkeypatch):
    # one donor item per agent, whatever the seed: seeds 2 and 3 are scored
    # over seed 1's rows
    markets = [one_donor_market(seed, n)[0] for seed in (1, 2, 3)]
    sets = {text: parse_constraints(text) for text in ("pairwise", "maxcycle=3")}
    _check_shared(markets, sets, monkeypatch)


def test_shared_structure_budget_one_short_raises_and_stores_nothing():
    market = suites.family([3])[0]
    cs = FREE_SETS["maxcycle3"]
    clear_enumeration_cache()
    nodes = feasible_with_profiles(market, cs).nodes
    stored = dict(feasibility._structures)
    twin = _twin(market)
    with pytest.raises(BudgetExceededError) as shared_error:
        feasible_with_profiles(twin, cs, nodes - 1)
    with pytest.raises(BudgetExceededError) as direct_error:
        search_feasible(twin, cs, nodes - 1)
    assert str(shared_error.value) == str(direct_error.value)
    assert feasibility._structures == stored
    assert feasibility._feasible_profiles_cached.cache_info().currsize == 1
    clear_enumeration_cache()
    assert feasibility._structures == {}


def test_report_reading_sets_leave_the_structure_memo_alone(monkeypatch):
    class Spy(dict):
        touched = 0

        def pop(self, *args):
            Spy.touched += 1
            return super().pop(*args)

        def __setitem__(self, key, value):
            Spy.touched += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(feasibility, "_structures", Spy())
    markets = suites.family(range(1, 11))
    for name, cs in {**CHECK_SETS, **CLAIM_SETS}.items():
        clear_enumeration_cache()
        for market in markets:
            feasible_with_profiles(market, cs)
            feasible_with_profiles(_twin(market), cs)
        if name in FREE_SETS:
            assert Spy.touched > 0, name
        else:
            assert Spy.touched == 0, name
        Spy.touched = 0
    clear_enumeration_cache()
