"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: no pruning, no shared key machinery,
so these are safe oracles for the optimized code paths.
"""

import itertools
import random

from exchange_clear import (
    Agent,
    Allocation,
    AuditReport,
    ConsistencyViolation,
    Item,
    Market,
    enumerate_feasible,
    satisfies,
    satisfies_constraints,
)
from exchange_clear.auditors import VERDICT_CLEAN, VERDICT_VIOLATION


def naive_enumerate(market, constraints):
    """All n^|O| total assignments filtered by the public constraint predicate."""
    item_ids = market.item_ids
    out = []
    for assignees in itertools.product(market.agent_ids, repeat=len(item_ids)):
        alloc = Allocation(tuple(zip(item_ids, assignees)))
        if satisfies_constraints(market, alloc, constraints):
            out.append(alloc)
    return out


def greedy_cp(market, priority, constraints):
    """Sequential-filtering formulation of the constrained priority mechanism:
    keep the allocations satisfying each agent in priority order whenever any
    survive, then take the canonically first."""
    candidates = enumerate_feasible(market, constraints)
    for agent_id in priority:
        satisfied = [a for a in candidates if satisfies(market, a, agent_id)]
        if satisfied:
            candidates = satisfied
    return candidates[0]


def two_agent_partner_market(seed):
    """A 2-agent market in the style of the bundled impossibility setting:
    every demand bundle draws from the partner's items only, so no endowment
    covers an own demand and the individual-rationality filter has no bite."""
    rng = random.Random(seed)
    owned = {
        "1": [f"a{i + 1}" for i in range(rng.randint(1, 2))],
        "2": [f"b{i + 1}" for i in range(rng.randint(1, 2))],
    }
    agents = []
    for me, other in (("1", "2"), ("2", "1")):
        pool = owned[other]
        bundles = set()
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, min(2, len(pool)))
            bundles.add(frozenset(rng.sample(pool, size)))
        agents.append(Agent(me, owned[me], bundles))
    items = tuple(Item(x) for ids in owned.values() for x in ids)
    return Market(tuple(agents), items)


def tiny_random_market(seed, max_agents=3, max_items=4):
    """Small random market for naive-vs-fast cross-checks."""
    rng = random.Random(seed)
    n = rng.randint(1, max_agents)
    agent_ids = [str(i) for i in range(1, n + 1)]
    item_ids = [f"o{i}" for i in range(1, rng.randint(n, max_items) + 1)]
    owner = {x: rng.choice(agent_ids) for x in item_ids}
    agents = []
    for agent_id in agent_ids:
        endow = [x for x in item_ids if owner[x] == agent_id]
        demands = set()
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, min(2, len(item_ids)))
            demands.add(frozenset(rng.sample(item_ids, size)))
        agents.append(Agent(agent_id, endow, demands))
    return Market(tuple(agents), tuple(Item(x) for x in item_ids))


def naive_consistency_pairs(count, params):
    """Build the (superset, subset) index pairs to test.

    The full feasible set is paired with every family member: all non-empty
    subsets in exhaustive mode, otherwise leave-one-outs plus seeded samples.
    Nested pairs inside the leave-one-out/sampled family are always added so
    contractions of already-contracted sets get exercised too.
    """
    everything = tuple(range(count))
    exhaustive = count <= params.exhaustive_limit

    loo_sampled = []
    if count > 1:
        loo_sampled.extend(tuple(j for j in range(count) if j != i) for i in range(count))
    rng = random.Random(params.seed)
    drawn = 0
    seen = set(loo_sampled)
    for _ in range(params.samples):
        bits = rng.getrandbits(count)
        while bits == 0:
            bits = rng.getrandbits(count)
        subset = tuple(i for i in range(count) if bits >> i & 1)
        drawn += 1
        if subset not in seen:
            seen.add(subset)
            loo_sampled.append(subset)

    if exhaustive:
        family = [
            combo
            for size in range(1, count + 1)
            for combo in itertools.combinations(range(count), size)
        ]
    else:
        family = list(loo_sampled)

    pairs = [(everything, subset) for subset in family]
    nested = 0
    as_sets = [frozenset(s) for s in loo_sampled]
    for i, sup in enumerate(loo_sampled):
        for j, sub in enumerate(loo_sampled):
            if i != j and as_sets[j] < as_sets[i]:
                pairs.append((sup, sub))
                nested += 1
    stats = {
        "exhaustive": int(exhaustive),
        "samples_drawn": drawn,
        "nested_pairs_tested": nested,
        "pairs_tested": len(pairs),
        "seed": params.seed,
    }
    return pairs, stats


def naive_weak_consistency(allocations, profiles, agent_ids, choose, params):
    """Materialize every (superset, subset) index pair and call `choose` on
    both sides of each; the reference for the package's weak-consistency
    engine, which takes the same arguments and must report the same bytes."""
    pairs, stats = naive_consistency_pairs(len(allocations), params)

    def as_profile_dict(profile):
        return dict(zip(agent_ids, profile))

    def evaluate(pair):
        superset, subset = pair
        chosen = choose(superset)
        target = profiles[chosen]
        match = next((i for i in subset if profiles[i] == target), None)
        if match is None:
            return None
        contracted = choose(subset)
        if profiles[contracted] == target:
            return None
        return ConsistencyViolation(
            superset_size=len(superset),
            subset_size=len(subset),
            superset_choice=allocations[chosen],
            subset_choice=allocations[contracted],
            matching_allocation=allocations[match],
            superset_profile=as_profile_dict(target),
            subset_profile=as_profile_dict(profiles[contracted]),
        )

    results = [evaluate(pair) for pair in pairs]
    witnesses = tuple(w for w in results if w is not None)
    summary = {"feasible_count": len(allocations), **stats}
    return AuditReport(
        kind="weak-consistency",
        verdict=VERDICT_VIOLATION if witnesses else VERDICT_CLEAN,
        witnesses=witnesses,
        summary=dict(sorted(summary.items())),
    )


def key_chooser(market, spec, profiles):
    """Argmax of the mechanism key over index tuples, ties to the lowest
    index, with the key tuple rebuilt per element; the reference for the
    rank-table chooser in `audit_weak_consistency`."""
    index_of = {agent_id: i for i, agent_id in enumerate(market.agent_ids)}
    order = [index_of[a] for a in spec.priority]
    cup = spec.kind == "cup"

    def key_of(i):
        key = tuple(profiles[i][j] for j in order)
        return ((sum(profiles[i]),) + key) if cup else key

    keys = [key_of(i) for i in range(len(profiles))]

    def choose(indices):
        return max(indices, key=lambda i: (keys[i], -i))

    return choose
