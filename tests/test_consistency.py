"""Differential tests of the weak-consistency audits against the naive oracle.

The engine tests the same (superset, subset) pairs as `naive_weak_consistency`
in the same order, so the serialized reports must be byte-identical for a
deliberately broken chooser.  For `cp` and `cup` the audit answers in closed
form, and its report must equal the oracle's run with the mechanisms' key.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from exchange_clear import (
    Agent,
    BUILT_IN_CONSTRAINT_SETS,
    BudgetExceededError,
    ConsistencyParams,
    Item,
    Market,
    MechanismSpec,
    audit_weak_consistency,
    audit_weak_consistency_choice,
    auditors,
    serialize,
    suites,
)
from exchange_clear.auditors import _consistency_summary, _run_consistency_engine, _sample_masks
from exchange_clear.feasibility import clear_enumeration_cache, feasible_with_profiles
from exchange_clear.instances import GeneratorConfig, generate_instance
from exchange_clear.mechanisms import profile_key

from oracles import (
    choose_from,
    chosen_index,
    key_chooser,
    naive_consistency_pairs,
    naive_weak_consistency,
    tiny_random_market,
)

CONSTRAINT_NAMES = ("sir", "pairwise", "unrestricted", "sir+maxcycle3")
PARAMS = (ConsistencyParams(), ConsistencyParams(seed=7, samples=16, exhaustive_limit=3))
# (generator seed, pairwise feasible count) of the benchmark's consistency markets
BENCH_SHAPES = [(15, 10), (2, 22), (1, 56), (4, 156)]


def naive_mechanism_report(market, spec, params):
    allocations = feasible_with_profiles(market, spec.constraints)
    profiles = allocations.profiles
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


def modular_choice(market, constraints):
    """The candidate at (sum of the candidates' canonical positions) mod
    their number: a leave-one-out's choice moves with the index it drops,
    so the leave-one-outs' choices are nearly all distinct."""
    allocations = feasible_with_profiles(market, constraints)
    position = {alloc: i for i, alloc in enumerate(allocations)}

    def choice(candidates):
        return candidates[sum(map(position.__getitem__, candidates)) % len(candidates)]

    return choice


def naive_choice_report(market, constraints, choice, params):
    allocations = feasible_with_profiles(market, constraints)
    profiles = allocations.profiles
    position = {alloc: i for i, alloc in enumerate(allocations)}

    def choose(indices):
        return position[choice([allocations[i] for i in indices])]

    return naive_weak_consistency(allocations, profiles, market.agent_ids, choose, params)


def assert_mechanism_matches(market, spec, params):
    engine = serialize(audit_weak_consistency(market, spec, params))
    assert engine == serialize(naive_mechanism_report(market, spec, params))


def assert_choice_matches(market, constraints, params, choice=None):
    choice = choice or broken_choice(market, constraints)
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
    count = len(feasible_with_profiles(market, constraints))
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
        assert len(feasible_with_profiles(market, constraints)) == count
        for kind in ("cp", "cup"):
            spec = MechanismSpec(kind, market.agent_ids, constraints)
            for limit, samples in itertools.product((0, 12), (0, 1, 64)):
                params = ConsistencyParams(seed=3, samples=samples, exhaustive_limit=limit)
                assert_mechanism_matches(market, spec, params)
                assert_choice_matches(market, constraints, params)


def test_engine_matches_naive_when_a_sample_is_the_full_set():
    market = tiny_random_market(9)
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    count = len(feasible_with_profiles(market, constraints))
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
    assert len(feasible_with_profiles(market, constraints)) == count
    return market, constraints


@pytest.mark.parametrize("seed, count", BENCH_SHAPES)
def test_engine_matches_naive_on_bench_size_markets(seed, count):
    market, constraints = pairwise_bench_market(seed, count)
    for kind in ("cp", "cup"):
        for priority in (market.agent_ids, market.agent_ids[::-1]):
            spec = MechanismSpec(kind, priority, constraints)
            assert_mechanism_matches(market, spec, ConsistencyParams())


def mechanism_choice_engine(market, spec, params):
    """The engine run with the mechanism's own choice on every set it asks
    about: `chosen_index` over the set's profiles."""
    allocations = feasible_with_profiles(market, spec.constraints)
    profiles = allocations.profiles
    key = profile_key(market, spec)

    def choose(mask):
        indices = [i for i in range(len(profiles)) if mask >> i & 1]
        return indices[chosen_index([profiles[i] for i in indices], key)]

    return _run_consistency_engine(allocations, profiles, market.agent_ids, choose, params)


@pytest.mark.parametrize("seed, count", BENCH_SHAPES)
def test_mechanism_chooser_is_the_mechanisms_choice_on_every_audited_set(seed, count):
    # the closed form runs no chooser; the engine driven by the mechanism's
    # choice on each audited set must report the same bytes
    market, constraints = pairwise_bench_market(seed, count)
    for params in (ConsistencyParams(), ConsistencyParams(seed=1, samples=400, exhaustive_limit=0)):
        for kind in ("cp", "cup"):
            for priority in (market.agent_ids, market.agent_ids[::-1]):
                spec = MechanismSpec(kind, priority, constraints)
                closed = serialize(audit_weak_consistency(market, spec, params))
                assert serialize(mechanism_choice_engine(market, spec, params)) == closed


def fixed_order_markets():
    """(market, constraints) for `family(1-50)` under every `sir` set and
    the four benchmark shapes under `pairwise`."""
    for market in suites.family(range(1, 51)):
        for constraints in suites.SIR_SETS.values():
            yield market, constraints
    for seed, count in BENCH_SHAPES:
        yield pairwise_bench_market(seed, count)


ORDERS = 8  # seeded strict orders of the distinct profiles per feasible table


def test_every_fixed_strict_order_of_profiles_is_weakly_consistent():
    # the theorem behind the closed form: a chooser that takes the first
    # holder of the best profile under any fixed strict order passes the
    # engine on every feasible set, with or without the mechanisms' keys
    rng = random.Random(16)
    audits = 0
    for market, constraints in fixed_order_markets():
        allocations = feasible_with_profiles(market, constraints)
        profiles = allocations.profiles
        holders = {}  # feasible indices by profile, as bitmasks
        for i, profile in enumerate(profiles):
            holders[profile] = holders.get(profile, 0) | 1 << i
        for _ in range(ORDERS):
            order = rng.sample(sorted(holders), len(holders))
            best_first = [holders[profile] for profile in order]

            def choose(mask):
                hits = next(mask & held for held in best_first if mask & held)
                return (hits & -hits).bit_length() - 1

            for params in PARAMS:
                report = _run_consistency_engine(allocations, profiles, market.agent_ids, choose, params)
                assert not report.witnesses, (market, constraints, order, params)
                audits += 1
    assert audits == (50 * len(suites.SIR_SETS) + len(BENCH_SHAPES)) * ORDERS * len(PARAMS)


def test_mechanism_audit_runs_no_engine_yet_keeps_its_errors(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed form ran the engine")

    monkeypatch.setattr(auditors, "_run_consistency_engine", refuse)
    market, constraints = pairwise_bench_market(1, 56)
    spec = MechanismSpec("cup", market.agent_ids, constraints)
    report = audit_weak_consistency(market, spec)
    assert (report.verdict, report.witnesses) == ("no violation found", ())
    assert report.summary["feasible_count"] == 56
    clear_enumeration_cache()
    with pytest.raises(BudgetExceededError):
        audit_weak_consistency(market, spec, search_budget=1)
    bad = MechanismSpec("cp", market.agent_ids[:-1], constraints)
    with pytest.raises(ValueError, match="^priority order .* is not a permutation"):
        audit_weak_consistency(market, bad, search_budget=1)  # priority before budget
    empty = Market((Agent("1", [], []),), (Item("x"),))
    empty_spec = MechanismSpec("cp", ("1",), BUILT_IN_CONSTRAINT_SETS["sir"])
    with pytest.raises(ValueError, match="^node budget must be a positive integer"):
        audit_weak_consistency(empty, empty_spec, search_budget=0)  # budget before emptiness
    with pytest.raises(ValueError, match="^empty candidate list$"):
        audit_weak_consistency(empty, empty_spec)


def test_broken_chooser_matches_naive_on_a_bench_size_market():
    market, constraints = pairwise_bench_market(1, 56)
    report = assert_choice_matches(market, constraints, ConsistencyParams())
    assert len(report.witnesses) == 719
    # the leave-one-outs choose 55 distinct allocations holding all 7 of the
    # market's profiles, where broken_choice's hold one
    choice = modular_choice(market, constraints)
    allocations = feasible_with_profiles(market, constraints)
    profiles = allocations.profiles
    loo_choices = [allocations.index(choice(allocations[:i] + allocations[i + 1:])) for i in range(56)]
    assert len(set(loo_choices)) == 55
    assert {profiles[i] for i in loo_choices} == set(profiles)
    report = assert_choice_matches(market, constraints, ConsistencyParams(), choice)
    assert len(report.witnesses) == 1_471


@pytest.mark.parametrize("exhaustive", [False, True])
def test_choose_runs_once_per_set_never_per_pair(exhaustive):
    market = tiny_random_market(9)
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    count = len(feasible_with_profiles(market, constraints))
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


def engine_peak(count):
    """Peak traced bytes of one clean engine run on `count` allocations."""
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
    return peak


def test_engine_memory_is_linear_in_feasible_count():
    # 2,000 leave-one-outs of 1,999 indices would take over 30 MB as tuples,
    # and as masks 0.5 MB, which doubling the count would quadruple
    small, large = engine_peak(2_000), engine_peak(4_000)
    assert small < 2_000_000, small
    assert large < 2.5 * small, (small, large)


def test_summary_matches_a_brute_force_scan_of_the_draws():
    full_drawn = 0
    for count in (*range(1, 15), 22, 56, 156):
        params_list = [
            ConsistencyParams(),
            ConsistencyParams(seed=count, samples=16, exhaustive_limit=min(count, 16)),
            ConsistencyParams(seed=count, samples=16, exhaustive_limit=min(count - 1, 16)),
            ConsistencyParams(seed=1, samples=400, exhaustive_limit=0),
        ]
        for params in params_list:
            _, stats = naive_consistency_pairs(count, params)
            expected = dict(sorted({"feasible_count": count, **stats}.items()))
            assert dict(_consistency_summary(count, params)) == expected, (count, params)
            full_drawn += (1 << count) - 1 in _sample_masks(count, params)
    # seed 1 draws the full set for counts 1-7, so the leave-one-outs' term ran
    assert full_drawn >= 7


def test_audits_of_one_feasible_count_share_one_family():
    (first, constraints), (second, _) = pairwise_bench_market(2, 22), pairwise_bench_market(7, 22)
    assert first != second
    params = ConsistencyParams(seed=11, samples=48)
    _consistency_summary.cache_clear()
    # the closed form and the engine each read the summary memo once
    closed = audit_weak_consistency(first, MechanismSpec("cp", first.agent_ids, constraints), params)
    cold = _consistency_summary.cache_info()
    again = audit_weak_consistency(second, MechanismSpec("cup", second.agent_ids[::-1], constraints), params)
    engine = audit_weak_consistency_choice(second, constraints, broken_choice(second, constraints), params)
    warm = _consistency_summary.cache_info()
    assert (cold.misses, cold.hits, cold.currsize) == (1, 0, 1)
    assert (warm.misses, warm.hits, warm.currsize) == (1, 2, 1)
    assert closed.summary == again.summary == engine.summary
    # each report owns its summary, so changing one leaves the memo alone
    closed.summary["pairs_tested"] = -1
    assert again.summary == engine.summary == dict(_consistency_summary(22, params))
    assert all(type(value) is int for _, value in _consistency_summary(22, params))


@pytest.mark.parametrize("market_seed, name", [(9, "sir"), (1, "pairwise")])
def test_warm_family_gives_the_bytes_of_a_cold_one(market_seed, name):
    constraints = BUILT_IN_CONSTRAINT_SETS[name]
    if name == "pairwise":
        market, _ = pairwise_bench_market(market_seed, 56)
    else:
        market = tiny_random_market(market_seed)
    spec = MechanismSpec("cup", market.agent_ids[::-1], constraints)
    choice = broken_choice(market, constraints)
    audits = (
        lambda params: audit_weak_consistency(market, spec, params),
        lambda params: audit_weak_consistency_choice(market, constraints, choice, params),
    )
    for params in (ConsistencyParams(), ConsistencyParams(seed=1, samples=400, exhaustive_limit=0)):
        for audit in audits:
            _consistency_summary.cache_clear()
            cold = serialize(audit(params))
            assert serialize(audit(params)) == cold
            info = _consistency_summary.cache_info()
            assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "pick, message",
    [
        (lambda allocations: allocations[0], "feasible allocation 0, which is not among its candidates"),
        (lambda allocations: "nope", "'nope', which is not a feasible allocation"),
        (lambda allocations: [allocations[0]], r"\[Allocation\(.*\)\], which is not a feasible allocation"),
    ],
)
def test_chooser_must_return_one_of_its_candidates(pick, message):
    # the first tiny market with more than four allocations, so the default
    # params sample, and some audited set lacks allocation 0
    constraints = BUILT_IN_CONSTRAINT_SETS["unrestricted"]
    market = next(m for m in map(tiny_random_market, itertools.count(1))
                  if len(feasible_with_profiles(m, constraints)) > 4)
    allocations = feasible_with_profiles(market, constraints)
    assert len(allocations) == 81
    with pytest.raises(ValueError, match=f"^chooser returned {message}$"):
        audit_weak_consistency_choice(market, constraints, lambda candidates: pick(allocations))


def test_empty_feasible_set_raises_a_named_error():
    # an item that nobody owns and no agent may receive under sir leaves
    # nothing feasible; sampling zero indices would never draw a set
    market = Market((Agent("1", [], []),), (Item("x"),))
    constraints = BUILT_IN_CONSTRAINT_SETS["sir"]
    table = feasible_with_profiles(market, constraints)
    assert (tuple(table), table.profiles) == ((), ())
    spec = MechanismSpec("cp", market.agent_ids, constraints)
    with pytest.raises(ValueError, match="^empty candidate list$"):
        audit_weak_consistency(market, spec)
    with pytest.raises(ValueError, match="^empty candidate list$"):
        audit_weak_consistency_choice(market, constraints, broken_choice(market, constraints))


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", "x"), ("samples", -5), ("samples", "x"),
     ("samples", True), ("exhaustive_limit", -1), ("exhaustive_limit", 2.0),
     ("samples", 4_097), ("samples", 100_000_000), ("exhaustive_limit", 17), ("exhaustive_limit", 40)],
)
def test_consistency_params_reject_bad_fields_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        ConsistencyParams(**{field: value})


def test_consistency_params_name_the_bound_they_exceed():
    with pytest.raises(ValueError, match="^samples must be at most 4096, got 4097$"):
        ConsistencyParams(samples=4_097)
    with pytest.raises(ValueError, match="^exhaustive_limit must be at most 16, got 17$"):
        ConsistencyParams(exhaustive_limit=17)
    params = ConsistencyParams(samples=auditors.MAX_SAMPLES, exhaustive_limit=auditors.MAX_EXHAUSTIVE_LIMIT)
    assert (params.samples, params.exhaustive_limit) == (4_096, 16)


def test_consistency_params_accept_a_negative_seed():
    assert ConsistencyParams(seed=-3, samples=0, exhaustive_limit=0).seed == -3
