import itertools

import pytest

from exchange_clear import (
    Agent,
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    Item,
    Market,
    MechanismSpec,
    endowment_allocation,
    enumerate_feasible,
    max_satisfied_oracle,
    run_mechanism,
    satisfaction_profile,
)

from exchange_clear.feasibility import feasible_with_profiles
from exchange_clear.mechanisms import MECHANISM_KINDS, profile_key, solve

from oracles import choose_from, greedy_cp, key_chooser, tiny_random_market
from test_feasibility import CHECK_SETS


def key_of(market, allocation, spec):
    """The mechanism key of one allocation."""
    return profile_key(market, spec)(tuple(satisfaction_profile(market, allocation).values()))


def test_lex_key_cup_example1(example1, example1_all_satisfying):
    spec = MechanismSpec("cup", ("1", "2", "3"), example1.constraints)
    assert key_of(example1.market, example1_all_satisfying, spec) == 31  # 3 * 2**3 + 4 + 2 + 1


def test_lex_key_cp_theorem5_endowment(theorem5):
    endow = endowment_allocation(theorem5.market)
    for priority in itertools.permutations(theorem5.market.agent_ids):
        spec = MechanismSpec("cp", priority, theorem5.constraints)
        assert key_of(theorem5.market, endow, spec) == 0


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
    assert key_of(market, endowment_allocation(market), spec) == 4  # agent 2 first: 2**2


@pytest.mark.parametrize("n", range(1, 6))
def test_integer_key_orders_profiles_as_the_lexicographic_key(n):
    # the paper's key reads the indicators in priority order, after the
    # satisfied count under cup; the integer key must order every profile
    # the same way, for every priority
    market = Market(tuple(Agent(str(i), [f"x{i}"]) for i in range(n)), tuple(Item(f"x{i}") for i in range(n)))
    profiles = list(itertools.product((0, 1), repeat=n))
    for priority in itertools.permutations(market.agent_ids):
        order = [market.agent_ids.index(agent_id) for agent_id in priority]
        for kind in MECHANISM_KINDS:
            key = profile_key(market, MechanismSpec(kind, priority, BUILT_IN_CONSTRAINT_SETS["unrestricted"]))

            def paper(profile):
                indicators = tuple(profile[i] for i in order)
                return (sum(profile),) + indicators if kind == "cup" else indicators

            assert len(set(map(key, profiles))) == 2**n, (kind, priority)
            assert sorted(profiles, key=key) == sorted(profiles, key=paper), (kind, priority)


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
        alloc = run_mechanism(example1.market, MechanismSpec("cp", priority, example1.constraints))
        assert satisfaction_profile(example1.market, alloc) == {"1": 1, "2": 1, "3": 1}


def test_run_cp_theorem5_satisfies_exactly_two(theorem5):
    for priority in itertools.permutations(theorem5.market.agent_ids):
        alloc = run_mechanism(theorem5.market, MechanismSpec("cp", priority, theorem5.constraints))
        assert sum(satisfaction_profile(theorem5.market, alloc).values()) == 2


def test_run_cp_no_trade_possible():
    from exchange_clear import ConstraintSet, DESIRABLE_ONLY, SIR

    market = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [])),
        items=(Item("x"), Item("y")),
    )
    # agent 2 accepts nothing, so under SIR only the endowment is feasible
    constraints = ConstraintSet((SIR, DESIRABLE_ONLY))
    assert run_mechanism(market, MechanismSpec("cp", ("1", "2"), constraints)) == endowment_allocation(market)


def test_run_cup_example1(example1):
    spec = MechanismSpec("cup", example1.market.agent_ids, example1.constraints)
    alloc = run_mechanism(example1.market, spec)
    assert sum(satisfaction_profile(example1.market, alloc).values()) == 3


def test_run_cup_single_agent_self_covered():
    market = Market(agents=(Agent("1", ["x"], [{"x"}]),), items=(Item("x"),))
    alloc = run_mechanism(market, MechanismSpec("cup", ("1",), BUILT_IN_CONSTRAINT_SETS["sir"]))
    assert alloc == endowment_allocation(market)
    assert sum(satisfaction_profile(market, alloc).values()) == 1


def test_outputs_are_feasible(example1, theorem5):
    for fx in (example1, theorem5):
        feasible = enumerate_feasible(fx.market, fx.constraints)
        for priority in itertools.permutations(fx.market.agent_ids):
            for kind in MECHANISM_KINDS:
                assert run_mechanism(fx.market, MechanismSpec(kind, priority, fx.constraints)) in feasible


@pytest.mark.parametrize("seed", range(1, 16))
def test_cup_sum_matches_oracle(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "sir+pairwise", "unrestricted"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        alloc = run_mechanism(market, MechanismSpec("cup", market.agent_ids, cs))
        assert sum(satisfaction_profile(market, alloc).values()) == max_satisfied_oracle(market, cs)


@pytest.mark.parametrize("seed", range(1, 16))
def test_cp_matches_greedy_oracle(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "sir+maxcycle2", "desirable"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        for priority in itertools.permutations(market.agent_ids):
            assert run_mechanism(market, MechanismSpec("cp", priority, cs)) == greedy_cp(market, priority, cs)


@pytest.mark.parametrize("seed", range(1, 41))
def test_run_mechanism_matches_key_chooser(seed):
    market = tiny_random_market(seed)
    for name in ("sir", "pairwise", "sir+maxcycle2", "desirable", "unrestricted"):
        cs = BUILT_IN_CONSTRAINT_SETS[name]
        allocations = feasible_with_profiles(market, cs)
        profiles = allocations.profiles
        everything = tuple(range(len(allocations)))
        for kind in ("cp", "cup"):
            for priority in itertools.permutations(market.agent_ids):
                spec = MechanismSpec(kind, priority, cs)
                expected = allocations[key_chooser(market, spec, profiles)(everything)]
                assert run_mechanism(market, spec) == expected
                assert choose_from(market, spec, reversed(allocations)) == expected


@pytest.mark.parametrize("seed", range(1, 41))
def test_solve_matches_run_mechanism(seed):
    # four agents reach balanced trades that a cap of 2 or 3 rejects, and
    # frontiers of several profiles where cp and cup differ
    market = tiny_random_market(seed, max_agents=4, max_items=5)
    for name, cs in CHECK_SETS.items():
        for kind in MECHANISM_KINDS:
            for priority in itertools.permutations(market.agent_ids):
                spec = MechanismSpec(kind, priority, cs)
                assert solve(market, spec) == run_mechanism(market, spec), (name, spec)


def test_solve_checks_priority_and_budget(example1):
    with pytest.raises(ValueError, match="not a permutation"):
        solve(example1.market, MechanismSpec("cp", ("1", "2"), example1.constraints))
    spec = MechanismSpec("cup", example1.market.agent_ids, example1.constraints)
    with pytest.raises(BudgetExceededError):
        solve(example1.market, spec, budget=5)
    assert solve(example1.market, spec) == run_mechanism(example1.market, spec)


def test_argmax_invariance(example1):
    market = example1.market
    spec = MechanismSpec("cup", market.agent_ids, example1.constraints)
    candidates = enumerate_feasible(market, spec.constraints)
    chosen = choose_from(market, spec, candidates)
    chosen_key = key_of(market, chosen, spec)
    # dropping non-chosen allocations whose key differs keeps the output's key
    kept = [a for a in candidates if a == chosen or key_of(market, a, spec) == chosen_key]
    assert key_of(market, choose_from(market, spec, kept), spec) == chosen_key
    # adding only smaller-key allocations (endowment has key (0,...)) changes nothing
    smaller = [a for a in candidates if key_of(market, a, spec) < chosen_key]
    assert choose_from(market, spec, smaller + [chosen]) == chosen


def test_priority_must_be_permutation(example1):
    with pytest.raises(ValueError):
        run_mechanism(example1.market, MechanismSpec("cp", ("1", "2"), example1.constraints))
    with pytest.raises(ValueError):
        run_mechanism(example1.market, MechanismSpec("cp", ("1", "2", "2"), example1.constraints))


def test_unknown_mechanism_kind_is_rejected(example1):
    with pytest.raises(ValueError, match="unknown mechanism kind 'rsd'"):
        MechanismSpec("rsd", example1.market.agent_ids, example1.constraints)
