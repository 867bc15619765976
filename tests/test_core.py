import pytest

from exchange_clear import (
    Agent,
    Allocation,
    Item,
    Market,
    endowment_allocation,
    is_ir,
    is_sir,
    pareto_dominates,
    satisfaction_profile,
    satisfies,
    utility,
    validate_market,
    weakly_prefers,
)


def test_validate_example1_ok(example1):
    assert validate_market(example1.market) == []


def test_validate_overlapping_endowments():
    market = Market(
        agents=(Agent("1", ["c1"]), Agent("2", ["c1"])),
        items=(Item("c1"),),
    )
    violations = validate_market(market)
    assert any("overlap" in v and "c1" in v for v in violations)


def test_validate_unknown_demand_item():
    market = Market(
        agents=(Agent("1", ["c1"]), Agent("2", ["c2"], [{"zzz"}])),
        items=(Item("c1"), Item("c2")),
    )
    violations = validate_market(market)
    assert any("unknown item in demand" in v and "zzz" in v for v in violations)


def test_validate_null_item_in_demand():
    market = Market(
        agents=(Agent("1", ["c1", "n1"], [{"n1"}]),),
        items=(Item("c1"), Item("n1", is_null=True)),
    )
    assert any("null item" in v for v in validate_market(market))


def test_validate_unendowed_item():
    market = Market(agents=(Agent("1", ["c1"]),), items=(Item("c1"), Item("c2")))
    assert any("endowed by no agent" in v for v in validate_market(market))


def test_validate_duplicate_ids_and_unknown_endowment():
    # parse_instance turns duplicates away before validating, so build directly
    market = Market(
        agents=(Agent("1", ["c1"]), Agent("1", ["c2"]), Agent("2", ["zzz"])),
        items=(Item("c1"), Item("c1"), Item("c2")),
    )
    violations = validate_market(market)
    assert "duplicate item id 'c1'" in violations
    assert "duplicate agent id '1'" in violations
    assert "agent '2' endows unknown item 'zzz'" in violations


def test_satisfies_example1(example1, example1_all_satisfying):
    assert satisfies(example1.market, example1_all_satisfying, "3")
    assert example1_all_satisfying.bundle_of("3") == {"c4"}


def test_satisfies_altruist_and_never_satisfiable():
    market = Market(
        agents=(Agent("1", ["x"], [frozenset()]), Agent("2", ["y"])),
        items=(Item("x"), Item("y")),
    )
    alloc = endowment_allocation(market)
    assert satisfies(market, alloc, "1")  # the empty bundle is covered by anything
    assert not satisfies(market, alloc, "2")  # no demand to cover


def test_satisfies_unknown_agent(example1):
    with pytest.raises(KeyError):
        satisfies(example1.market, endowment_allocation(example1.market), "nope")


def test_agent_of_unknown_item_names_it(example1):
    with pytest.raises(KeyError, match="item 'ghost' not present in allocation"):
        endowment_allocation(example1.market).agent_of("ghost")


def test_utility_example1(example1, example1_all_satisfying):
    market = example1.market
    assert utility(market, example1_all_satisfying, "1") == 1
    # at the endowment, agent 2 holds only the painting and neither demand fits
    assert utility(market, endowment_allocation(market), "2") == 0
    assert satisfaction_profile(market, example1_all_satisfying) == {"1": 1, "2": 1, "3": 1}


def test_weakly_prefers(example1):
    market = example1.market
    # neither bundle covers a demand of agent 3: mutual weak preference
    assert weakly_prefers(market, "3", frozenset({"c1"}), frozenset({"p"}))
    assert weakly_prefers(market, "3", frozenset({"p"}), frozenset({"c1"}))
    # {c4} strictly preferred to {s, h} for agent 3
    assert weakly_prefers(market, "3", frozenset({"c4"}), frozenset({"s", "h"}))
    assert not weakly_prefers(market, "3", frozenset({"s", "h"}), frozenset({"c4"}))
    # reflexive
    assert weakly_prefers(market, "1", frozenset({"c1"}), frozenset({"c1"}))


def test_is_sir(example1, example1_all_satisfying):
    market = example1.market
    assert is_sir(market, endowment_allocation(market))
    assert is_sir(market, example1_all_satisfying)
    # moving only c4 to agent 3 leaves agent 1 unsatisfied and off her endowment
    moved = Allocation(
        {"c1": "1", "c2": "1", "c3": "1", "c4": "3", "p": "2", "s": "3", "h": "3"}
    )
    assert not is_sir(market, moved)


def test_is_ir(theorem5):
    market = theorem5.market
    # no endowment covers an own demand, so anything goes
    assert is_ir(market, endowment_allocation(market))
    swap_all = Allocation(
        {"a1": "2", "a2": "2", "a3": "2", "b1": "1", "b2": "1", "b3": "1", "c1": "3", "c2": "3", "c3": "3"}
    )
    assert is_ir(market, swap_all)


def test_is_ir_direct_violation():
    market = Market(
        agents=(Agent("1", ["x"], [{"x"}]), Agent("2", ["y"], [{"x"}])),
        items=(Item("x"), Item("y")),
    )
    assert is_ir(market, endowment_allocation(market))
    taken = Allocation({"x": "2", "y": "1"})
    assert not is_ir(market, taken)  # agent 1 was satisfied at her endowment


def test_pareto_dominates(example1, example1_all_satisfying):
    market = example1.market
    endow = endowment_allocation(market)
    assert pareto_dominates(market, example1_all_satisfying, endow)
    assert not pareto_dominates(market, endow, example1_all_satisfying)
    assert not pareto_dominates(market, endow, endow)


def test_pareto_incomparable_profiles():
    market = Market(
        agents=(Agent("1", ["x"], [{"x"}]), Agent("2", ["y"], [{"x"}])),
        items=(Item("x"), Item("y")),
    )
    keep = endowment_allocation(market)      # profile (1, 0)
    give = Allocation({"x": "2", "y": "1"})  # profile (0, 1)
    assert not pareto_dominates(market, keep, give)
    assert not pareto_dominates(market, give, keep)


def test_endowment_allocation(example1):
    alloc = endowment_allocation(example1.market)
    assert alloc.as_dict == {
        "c1": "1", "c2": "1", "c3": "1", "c4": "1", "p": "2", "s": "3", "h": "3"
    }
    single = Market(agents=(Agent("1", ["x"]),), items=(Item("x"),))
    assert endowment_allocation(single).as_dict == {"x": "1"}


def test_market_canonical_order():
    market = Market(
        agents=(Agent("2", ["y"]), Agent("1", ["x"])),
        items=(Item("y"), Item("x")),
    )
    assert market.agent_ids == ("1", "2")
    assert market.item_ids == ("x", "y")
