"""Differential tests of the weak-consistency engine against the naive oracle.

The engine tests the same (superset, subset) pairs as `naive_weak_consistency`
in the same order, so the serialized reports must be byte-identical, for the
mechanisms' own chooser and for a deliberately broken one.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from exchange_clear import (
    Agent,
    BUILT_IN_CONSTRAINT_SETS,
    ConsistencyParams,
    Item,
    Market,
    MechanismSpec,
    audit_weak_consistency,
    audit_weak_consistency_choice,
    choose_from,
    serialize,
)
from exchange_clear.auditors import _run_consistency_engine, _sample_masks
from exchange_clear.feasibility import feasible_with_profiles
from exchange_clear.instances import GeneratorConfig, generate_instance

from oracles import key_chooser, naive_consistency_pairs, naive_weak_consistency, tiny_random_market

CONSTRAINT_NAMES = ("sir", "pairwise", "unrestricted", "sir+maxcycle3")
PARAMS = (ConsistencyParams(), ConsistencyParams(seed=7, samples=16, exhaustive_limit=3))


def naive_mechanism_report(market, spec, params):
    allocations, profiles = feasible_with_profiles(market, spec.constraints)
    choose = key_chooser(market, spec, profiles)
    return naive_weak_consistency(allocations, profiles, market.agent_ids, choose, params)


def broken_choice(market, constraints):
    """Canonically last allocation on even-size candidate lists, the honest
    cp choice otherwise: not weakly consistent whenever the two differ."""
    spec = MechanismSpec("cp", market.agent_ids, constraints)

    def choice(candidates):
        if len(candidates) % 2 == 0:
            return max(candidates, key=lambda a: a.canonical_key)
        return choose_from(market, spec, candidates)

    return choice


def naive_choice_report(market, constraints, choice, params):
    allocations, profiles = feasible_with_profiles(market, constraints)
    position = {alloc: i for i, alloc in enumerate(allocations)}

    def choose(indices):
        return position[choice([allocations[i] for i in indices])]

    return naive_weak_consistency(allocations, profiles, market.agent_ids, choose, params)


def assert_mechanism_matches(market, spec, params):
    engine = serialize(audit_weak_consistency(market, spec, params))
    assert engine == serialize(naive_mechanism_report(market, spec, params))


def assert_choice_matches(market, constraints, params):
    choice = broken_choice(market, constraints)
    engine = audit_weak_consistency_choice(market, constraints, choice, params)
    assert serialize(engine) == serialize(naive_choice_report(market, constraints, choice, params))
    return engine


@pytest.mark.parametrize("name", CONSTRAINT_NAMES)
def test_engine_matches_naive_on_tiny_markets(name):
    constraints = BUILT_IN_CONSTRAINT_SETS[name]
    for seed in range(1, 41):
        market = tiny_random_market(seed)
        for kind in ("cp", "cup"):
            for priority in (market.agent_ids, market.agent_ids[::-1]):
                for params in PARAMS:
                    assert_mechanism_matches(market, MechanismSpec(kind, priority, constraints), params)


@pytest.mark.parametrize("name", CONSTRAINT_NAMES)
def test_broken_chooser_matches_naive(name):
    constraints = BUILT_IN_CONSTRAINT_SETS[name]
    violations = 0
    for seed in range(1, 26):
        market = tiny_random_market(seed)
        for params in PARAMS:
            violations += len(assert_choice_matches(market, constraints, params).witnesses)
    assert violations > 0  # the comparison covered witness bytes, not only clean verdicts


def test_engine_matches_naive_around_exhaustive_limit():
    market = tiny_random_market(9)
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    count = len(feasible_with_profiles(market, constraints)[0])
    assert count == 6
    spec = MechanismSpec("cup", market.agent_ids, constraints)
    for limit in (count - 1, count, count + 1):
        for samples in (0, 1, 9):
            params = ConsistencyParams(seed=limit, samples=samples, exhaustive_limit=limit)
            assert_mechanism_matches(market, spec, params)
            report = assert_choice_matches(market, constraints, params)
            assert report.summary["exhaustive"] == int(count <= limit)


def test_engine_matches_naive_on_one_and_two_allocations():
    single = Market(agents=(Agent("1", ["x"], [{"x"}]),), items=(Item("x"),))
    # sir admits exactly the endowment and the swap
    swap = Market(
        agents=(Agent("1", ["x"], [{"y"}]), Agent("2", ["y"], [{"x"}])),
        items=(Item("x"), Item("y")),
    )
    cases = (
        (single, BUILT_IN_CONSTRAINT_SETS["unrestricted"], 1),
        (swap, BUILT_IN_CONSTRAINT_SETS["sir"], 2),
    )
    for market, constraints, count in cases:
        assert len(feasible_with_profiles(market, constraints)[0]) == count
        for kind in ("cp", "cup"):
            spec = MechanismSpec(kind, market.agent_ids, constraints)
            for limit, samples in itertools.product((0, 12), (0, 1, 64)):
                params = ConsistencyParams(seed=3, samples=samples, exhaustive_limit=limit)
                assert_mechanism_matches(market, spec, params)
                assert_choice_matches(market, constraints, params)


def test_engine_matches_naive_when_a_sample_is_the_full_set():
    market = tiny_random_market(9)
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    count = len(feasible_with_profiles(market, constraints)[0])
    params = ConsistencyParams(seed=1, samples=400, exhaustive_limit=0)
    pairs, _ = naive_consistency_pairs(count, params)
    everything = tuple(range(count))
    # the full set was drawn, so it is a nested superset of every leave-one-out
    assert sum(1 for sup, sub in pairs if sup == everything and len(sub) == count - 1) == 2 * count
    for kind in ("cp", "cup"):
        assert_mechanism_matches(market, MechanismSpec(kind, market.agent_ids, constraints), params)
    assert_choice_matches(market, constraints, params)


def pairwise_bench_market(seed, count):
    """A 4-agent market of the shape the benchmark's consistency workload
    audits, with its `pairwise` feasible count pinned."""
    market = generate_instance(GeneratorConfig(seed=seed, agents=(4, 4)))
    constraints = BUILT_IN_CONSTRAINT_SETS["pairwise"]
    assert len(feasible_with_profiles(market, constraints)[0]) == count
    return market, constraints


@pytest.mark.parametrize("seed, count", [(1, 56), (4, 156)])
def test_engine_matches_naive_on_bench_size_markets(seed, count):
    market, constraints = pairwise_bench_market(seed, count)
    for kind in ("cp", "cup"):
        for priority in (market.agent_ids, market.agent_ids[::-1]):
            spec = MechanismSpec(kind, priority, constraints)
            assert_mechanism_matches(market, spec, ConsistencyParams())


def test_broken_chooser_matches_naive_on_a_bench_size_market():
    market, constraints = pairwise_bench_market(1, 56)
    report = assert_choice_matches(market, constraints, ConsistencyParams())
    assert len(report.witnesses) == 719


@pytest.mark.parametrize("exhaustive", [False, True])
def test_choose_runs_once_per_set_never_per_pair(exhaustive):
    market = tiny_random_market(9)
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    count = len(feasible_with_profiles(market, constraints)[0])
    assert count == 6
    params = ConsistencyParams(seed=5, samples=20, exhaustive_limit=count if exhaustive else 0)
    broken = broken_choice(market, constraints)
    calls = []

    def choice(candidates):
        calls.append(len(candidates))
        return broken(candidates)

    report = audit_weak_consistency_choice(market, constraints, choice, params)
    expected = 1 + count + len(_sample_masks(count, params))
    if exhaustive:
        expected += 2**count - 1
    assert report.summary["exhaustive"] == int(exhaustive)
    assert len(calls) == expected
    assert report.summary["pairs_tested"] > expected  # calls are not per pair


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(1, 10_000),
    name=st.sampled_from(CONSTRAINT_NAMES),
    kind=st.sampled_from(("cp", "cup")),
    reverse=st.booleans(),
    broken=st.booleans(),
    params=st.builds(
        ConsistencyParams,
        seed=st.integers(0, 1_000),
        samples=st.integers(0, 40),
        exhaustive_limit=st.integers(0, 10),
    ),
)
def test_engine_matches_naive_hypothesis(seed, name, kind, reverse, broken, params):
    market = tiny_random_market(seed)
    constraints = BUILT_IN_CONSTRAINT_SETS[name]
    if broken:
        assert_choice_matches(market, constraints, params)
    else:
        priority = market.agent_ids[::-1] if reverse else market.agent_ids
        assert_mechanism_matches(market, MechanismSpec(kind, priority, constraints), params)


def test_engine_memory_is_linear_in_feasible_count():
    # 2,000 leave-one-outs of 1,999 indices would take over 30 MB as tuples
    count = 2_000
    profiles = [((i * 7) % 3 == 0, i % 5 == 0) for i in range(count)]
    allocations = list(range(count))
    order = sorted(range(count), key=lambda i: (profiles[i], -i), reverse=True)

    def choose(mask):
        return next(i for i in order if mask >> i & 1)

    tracemalloc.start()
    try:
        report = _run_consistency_engine(allocations, profiles, ("1", "2"), choose, ConsistencyParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.summary["feasible_count"] == count
    assert not report.witnesses
    assert peak < 2_000_000, peak


def test_empty_feasible_set_raises_a_named_error():
    # an item that nobody owns and no agent may receive under sir leaves
    # nothing feasible; sampling zero indices would never draw a set
    market = Market((Agent("1", [], []),), (Item("x"),))
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    assert feasible_with_profiles(market, constraints) == ((), ())
    spec = MechanismSpec("cp", market.agent_ids, constraints)
    with pytest.raises(ValueError, match="^empty candidate list$"):
        audit_weak_consistency(market, spec)
    with pytest.raises(ValueError, match="^empty candidate list$"):
        audit_weak_consistency_choice(market, constraints, broken_choice(market, constraints))


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", "x"), ("samples", -5), ("samples", "x"),
     ("samples", True), ("exhaustive_limit", -1), ("exhaustive_limit", 2.0)],
)
def test_consistency_params_reject_bad_fields_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        ConsistencyParams(**{field: value})


def test_consistency_params_accept_a_negative_seed():
    assert ConsistencyParams(seed=-3, samples=0, exhaustive_limit=0).seed == -3
