import itertools

import pytest

from exchange_clear import (
    Agent,
    BUILT_IN_CONSTRAINT_SETS,
    Item,
    Market,
    MechanismSpec,
    choose_from,
    endowment_allocation,
    enumerate_feasible,
    lex_key,
    max_satisfied_oracle,
    run_cp,
    run_cup,
    run_mechanism,
    satisfaction_profile,
)

from exchange_clear.feasibility import feasible_with_profiles

from oracles import greedy_cp, key_chooser, tiny_random_market


def test_lex_key_cup_example1(example1, example1_all_satisfying):
    spec = MechanismSpec("cup", ("1", "2", "3"), example1.constraints)
    assert lex_key(example1.market, example1_all_satisfying, spec) == (3, 1, 1, 1)


def test_lex_key_cp_theorem5_endowment(theorem5):
    endow = endowment_allocation(theorem5.market)
    for priority in itertools.permutations(theorem5.market.agent_ids):
        spec = MechanismSpec("cp", priority, theorem5.constraints)
        assert lex_key(theorem5.market, endow, spec) == (0, 0, 0)


def test_lex_key_indicator_placement():
    market = Market(
        agents=(
            Agent("1", ["x"]),
            Agent("2", ["y"], [{"y"}]),
            Agent("3", ["z"]),
        ),
        items=(Item("x"), Item("y"), Item("z")),
    )
    spec = MechanismSpec("cp", ("2", "1", "3"), BUILT_IN_CONSTRAINT_SETS["sir"])
    assert lex_key(market, endowment_allocation(market), spec) == (1, 0, 0)


def test_choose_from_singleton(example1):
    endow = endowment_allocation(example1.market)
    spec = MechanismSpec("cp", example1.market.agent_ids, example1.constraints)
    assert choose_from(example1.market, spec, [endow]) == endow


def test_choose_from_empty(example1):
    spec = MechanismSpec("cp", example1.market.agent_ids, example1.constraints)
    with pytest.raises(ValueError):
        choose_from(example1.market, spec, [])


def test_choose_from_cup_example1(example1):
    candidates = enumerate_feasible(example1.market, example1.constraints)
    for priority in itertools.permutations(example1.market.agent_ids):
        spec = MechanismSpec("cup", priority, example1.constraints)
        chosen = choose_from(example1.market, spec, candidates)
        assert satisfaction_profile(example1.market, chosen) == {"1": 1, "2": 1, "3": 1}


def test_choose_from_tie_break_is_canonical_and_order_free():
    market = Market(agents=(Agent("1", ["x"]), Agent("2", ["y"])), items=(Item("x"), Item("y")))
    spec = MechanismSpec("cp", ("1", "2"), BUILT_IN_CONSTRAINT_SETS["unrestricted"])
    candidates = enumerate_feasible(market, spec.constraints)
    assert len(candidates) == 4  # all key-tied: nobody has demands
    first = choose_from(market, spec, candidates)
    assert first.canonical_key == ("1", "1")
    assert choose_from(market, spec, list(reversed(candidates))) == first


def test_run_cp_example1_all_priorities(example1):
    for priority in itertools.permutations(example1.market.agent_ids):
        alloc = run_cp(example1.market, priority, example1.constraints)
        assert satisfaction_profile(example1.market, alloc) == {"1": 1, "2": 1, "3": 1}


def test_run_cp_theorem5_satisfies_exactly_two(theorem5):
    for priority in itertools.permutations(theorem5.market.agent_ids):
        alloc = run_cp(theorem5.market, priority, theorem5.constraints)
        assert sum(satisfaction_profile(theorem5.market, alloc).values()) == 2


def test_run_cp_no_trade_possible():
    from exchange_clear import ConstraintSet, DESIRABLE_ONLY, SIR

    market = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [])),
        items=(Item("x"), Item("y")),
    )
    # agent 2 accepts nothing, so under SIR only the endowment is feasible
    constraints = ConstraintSet((SIR, DESIRABLE_ONLY))
    assert run_cp(market, ("1", "2"), constraints) == endowment_allocation(market)


def test_run_cup_example1(example1):
    alloc = run_cup(example1.market, example1.market.agent_ids, example1.constraints)
    assert sum(satisfaction_profile(example1.market, alloc).values()) == 3


def test_run_cup_single_agent_self_covered():
    market = Market(agents=(Agent("1", ["x"], [{"x"}]),), items=(Item("x"),))
    alloc = run_cup(market, ("1",), BUILT_IN_CONSTRAINT_SETS["sir"])
    assert alloc == endowment_allocation(market)
    assert sum(satisfaction_profile(market, alloc).values()) == 1


def test_outputs_are_feasible(example1, theorem5):
    for fx in (example1, theorem5):
        feasible = enumerate_feasible(fx.market, fx.constraints)
        for priority in itertools.permutations(fx.market.agent_ids):
            assert run_cp(fx.market, priority, fx.constraints) in feasible
            assert run_cup(fx.market, priority, fx.constraints) in feasible


@pytest.mark.parametrize("seed", range(1, 16))
def test_cup_sum_matches_oracle(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "sir+pairwise", "unrestricted"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        alloc = run_cup(market, market.agent_ids, cs)
        assert sum(satisfaction_profile(market, alloc).values()) == max_satisfied_oracle(market, cs)


@pytest.mark.parametrize("seed", range(1, 16))
def test_cp_matches_greedy_oracle(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "sir+maxcycle2", "desirable"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        for priority in itertools.permutations(market.agent_ids):
            assert run_cp(market, priority, cs) == greedy_cp(market, priority, cs)


@pytest.mark.parametrize("seed", range(1, 41))
def test_run_mechanism_matches_key_chooser(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "pairwise", "sir+maxcycle2", "desirable", "unrestricted"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        allocations, profiles = feasible_with_profiles(market, cs)
        everything = tuple(range(len(allocations)))
        for kind in ("cp", "cup"):
            for priority in itertools.permutations(market.agent_ids):
                spec = MechanismSpec(kind, priority, cs)
                expected = allocations[key_chooser(market, spec, profiles)(everything)]
                assert run_mechanism(market, spec) == expected
                assert choose_from(market, spec, reversed(allocations)) == expected


def test_argmax_invariance(example1):
    market = example1.market
    spec = MechanismSpec("cup", market.agent_ids, example1.constraints)
    candidates = enumerate_feasible(market, spec.constraints)
    chosen = choose_from(market, spec, candidates)
    chosen_key = lex_key(market, chosen, spec)
    # dropping non-chosen allocations whose key differs keeps the output's key
    kept = [a for a in candidates if a == chosen or lex_key(market, a, spec) == chosen_key]
    assert lex_key(market, choose_from(market, spec, kept), spec) == chosen_key
    # adding only smaller-key allocations (endowment has key (0,...)) changes nothing
    smaller = [a for a in candidates if lex_key(market, a, spec) < chosen_key]
    assert choose_from(market, spec, smaller + [chosen]) == chosen


def test_priority_must_be_permutation(example1):
    with pytest.raises(ValueError):
        run_cp(example1.market, ("1", "2"), example1.constraints)
    with pytest.raises(ValueError):
        run_cp(example1.market, ("1", "2", "2"), example1.constraints)


def test_unknown_mechanism_kind_is_rejected(example1):
    with pytest.raises(ValueError, match="unknown mechanism kind 'rsd'"):
        MechanismSpec("rsd", example1.market.agent_ids, example1.constraints)
