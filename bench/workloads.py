"""The benchmark's workloads: how each builds its inputs, runs one op and
checks the op's output.

Every input is drawn from the workload seed through the package's own seeded
generator; the package only ever sees the generated markets (and, for the
command-line workload, the instance files written from them).  A deck is a
list of tasks made of identical rounds, so a run that covers any number of
whole rounds carries the same mix of inputs, whatever the seed.

Ops call the package through module attributes (``auditors.audit_...``), so
the traced run's wrappers see them; checks use the names bound below at
import time, which the wrappers never replace.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from exchange_clear import auditors, cli, feasibility, instances, mechanisms
from exchange_clear.core import Allocation, Market, satisfaction_profile
from exchange_clear.feasibility import (
    BUILT_IN_CONSTRAINT_SETS,
    ConstraintSet,
    parse_constraints,
    satisfies_constraints,
)
from exchange_clear.instances import GeneratorConfig, generate_instance
from exchange_clear.instances import serialize as serialize_unwrapped
from exchange_clear.mechanisms import MechanismSpec

CLEAN = auditors.VERDICT_CLEAN


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def reset_cache() -> None:
    """Empty the enumeration cache."""
    feasibility.clear_enumeration_cache()


@dataclass(frozen=True)
class Task:
    market: Market
    constraints: ConstraintSet
    spec: MechanismSpec | None = None
    argv: tuple[str, ...] = ()
    group: int = 0  # command-line tasks on one instance and constraint set


def _draw(rng: random.Random, **ranges) -> Market:
    return generate_instance(GeneratorConfig(seed=rng.randrange(2**31), **ranges))


def _draw_items(rng: random.Random, agents: int, items: int) -> Market:
    """A default-config market with `agents` agents and exactly `items` items
    (each agent holds 1 or 2), found by redrawing the generator seed."""
    while True:
        market = _draw(rng, agents=(agents, agents))
        if len(market.items) == items:
            return market


def spread_schedule(weights: dict[int, int]) -> list[int]:
    """Each key repeated `weight` times, interleaved as evenly as possible, so
    that any stretch of the schedule holds close to the weighted mix."""
    total = sum(weights.values())
    placed = dict.fromkeys(weights, 0)
    out = []
    for i in range(1, total + 1):
        key = max(weights, key=lambda k: (weights[k] * i / total - placed[k], -k))
        placed[key] += 1
        out.append(key)
    return out


def endowment_shapes(agents: int) -> dict[int, int]:
    """How often the default generator gives `agents` agents (1-2 items each)
    each total item count: binomial in the number of two-item agents."""
    return {agents + j: math.comb(agents, j) for j in range(agents + 1)}


class AuditSP:
    """One `audit_strategyproofness` call plus `serialize` of its report.

    The acceptance suite's shape: default generator markets, every built-in
    constraint set that contains `sir`, `cp` and `cup`, every priority order.
    All ops on one (market, constraint set) run back to back, as in the suite,
    so the misreported markets of one priority are found in the enumeration
    cache by the next.  A round holds one market of each agent count (2, 3,
    4) per constraint set, so every run has the same mix of 4-, 12- and
    48-op groups.  Item counts follow a fixed schedule in the generator's own
    proportions (for 4 agents, 4-8 items as 1:4:6:4:1): the item count is
    what most sets an audit's cost, and a run covers only some 40 markets
    of each size.
    """

    name = "audit-sp"
    rounds = 24
    trace_rounds = 2
    constraint_sets = tuple(
        cs for cs in BUILT_IN_CONSTRAINT_SETS.values() if any(c.kind == "sir" for c in cs)
    )

    def build(self, seed: int, workdir: Path, rounds: int) -> list[Task]:
        rng = random.Random(f"{self.name}/{seed}")
        schedules = {k: itertools.cycle(spread_schedule(endowment_shapes(k))) for k in (2, 3, 4)}
        deck = []
        for _ in range(rounds):
            for cs in self.constraint_sets:
                for agents in (2, 3, 4):
                    market = _draw_items(rng, agents, next(schedules[agents]))
                    for kind in ("cp", "cup"):
                        for priority in itertools.permutations(market.agent_ids):
                            deck.append(Task(market, cs, MechanismSpec(kind, priority, cs)))
        return deck

    def prepare(self, task: Task) -> None:
        pass

    def op(self, task: Task):
        report = auditors.audit_strategyproofness(task.market, task.spec)
        return report, instances.serialize(report)

    def output(self, task: Task, result) -> str:
        return result[1]

    def check(self, task: Task, result, state: dict) -> None:
        report = result[0]
        if report.witnesses or report.verdict != CLEAN:
            raise CheckFailed(f"{len(report.witnesses)} manipulation witnesses")


class ClearCLI:
    """One in-process `cli_dispatch` of `enumerate`, `solve --mechanism cp`
    or `solve --mechanism cup` on an instance file, stdout captured.

    The enumeration cache is emptied before every op, as every real command
    starts cold.  A round holds four 5-agent x 2-item markets, two under
    `sir` and two under `sir,maxcycle=3`, and one 4-agent x 2-item market
    under `pairwise`: 15 ops.  The 5 x 2 markets give every agent three
    demanded pairs: the exhaustive search is heavy and finds 1-4
    allocations.  With the generator's default demand shapes the same search
    costs anywhere from 5 ms to over 2 s per market, which no run of a few
    dozen markets can average out.  The pairwise market always has 474
    feasible allocations, checked for trade structure only at the leaves;
    its three ops are the slowest of the round, a fifth of all ops, so the
    90th percentile falls among them.
    """

    name = "clear-cli"
    rounds = 20
    trace_rounds = 3
    sir_constraints = ("sir", "sir,maxcycle=3") * 2

    def build(self, seed: int, workdir: Path, rounds: int) -> list[Task]:
        rng = random.Random(f"{self.name}/{seed}")
        deck: list[Task] = []
        groups = itertools.count()
        files = itertools.count()

        def write(market: Market) -> Path:
            path = workdir / f"m{next(files):04d}.json"
            path.write_text(serialize_unwrapped(market), encoding="utf-8")
            return path

        def group(market: Market, path: Path, text: str) -> list[Task]:
            common = ("--constraints", text, "--instance", str(path))
            gid = next(groups)
            return [
                Task(market, parse_constraints(text), argv=(*cmd, *common), group=gid)
                for cmd in (("enumerate",), ("solve", "--mechanism", "cp"), ("solve", "--mechanism", "cup"))
            ]

        for _ in range(rounds):
            sir_groups = []
            for text in self.sir_constraints:
                market = _draw(
                    rng,
                    agents=(5, 5),
                    items_per_agent=(2, 2),
                    demands_per_agent=(3, 3),
                    demand_bundle_size=(2, 2),
                )
                sir_groups.append(group(market, write(market), text))
            market = _draw(rng, agents=(4, 4), items_per_agent=(2, 2))
            pairwise = group(market, write(market), "pairwise")
            # the pairwise commands go between the sir groups, spreading the
            # slowest ops evenly over the round
            sir_iter, pairwise_iter = iter(sir_groups), iter(pairwise)
            for slot in spread_schedule({0: len(sir_groups), 1: len(pairwise)}):
                deck.extend(next(sir_iter) if slot == 0 else [next(pairwise_iter)])
        return deck

    def prepare(self, task: Task) -> None:
        reset_cache()

    def op(self, task: Task):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(list(task.argv))
        return code, out.getvalue(), err.getvalue()

    def output(self, task: Task, result) -> str:
        code, stdout, _ = result
        return f"exit {code}\n{stdout}"

    def check(self, task: Task, result, state: dict) -> None:
        code, stdout, stderr = result
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()[:200]}")
        doc = json.loads(stdout)
        market = task.market
        if task.argv[0] == "enumerate":
            if doc["feasible_count"] < 1:
                raise CheckFailed("empty feasible set; the endowment is always feasible")
            if task.argv[2] == "pairwise" and doc["feasible_count"] != 474:
                raise CheckFailed(f"{doc['feasible_count']} pairwise allocations, not 474, for 4 agents x 2 items")
            state[task.group] = doc["max_satisfaction"]
            return
        alloc = Allocation(doc["allocation"])
        if sorted(doc["allocation"]) != sorted(market.item_ids) or not set(
            doc["allocation"].values()
        ) <= set(market.agent_ids):
            raise CheckFailed("allocation does not assign exactly the market's items to its agents")
        if not satisfies_constraints(market, alloc, task.constraints):
            raise CheckFailed(f"{' '.join(task.argv[:3])}: allocation violates the constraints")
        profile = satisfaction_profile(market, alloc)
        if doc["satisfaction"] != profile or doc["satisfied_count"] != sum(profile.values()):
            raise CheckFailed("reported satisfaction does not match the allocation")
        if task.argv[2] == "cup" and doc["satisfied_count"] != state.get(task.group):
            raise CheckFailed(
                f"cup satisfied {doc['satisfied_count']}, enumerate's max_satisfaction "
                f"is {state.get(task.group)}"
            )


class AuditWC:
    """`run_mechanism`, then `audit_constrained_pareto` of its outcome, then
    `audit_weak_consistency`, for one mechanism spec.

    4-agent markets with 1-2 items each under `pairwise`, `cp`/`cup` x
    canonical/reversed priority.  Under `pairwise` the feasible set depends
    only on how many agents hold two items: 10, 22, 56 or 156 allocations
    for 0-3 such agents.  A round holds 15 markets in the generator's own
    proportions of those shapes (1:4:6:4), so every run sees the same mix of
    feasible-set sizes.  Markets where all four agents hold two items (474
    allocations, about 2 s per op) are left out: one of them would be most
    of a round's time.
    """

    name = "audit-wc"
    rounds = 10
    trace_rounds = 1
    constraints = BUILT_IN_CONSTRAINT_SETS["pairwise"]

    def build(self, seed: int, workdir: Path, rounds: int) -> list[Task]:
        rng = random.Random(f"{self.name}/{seed}")
        shapes = endowment_shapes(4)
        del shapes[8]  # all four agents with two items: 474 allocations
        schedule = spread_schedule(shapes)
        deck = []
        for _ in range(rounds):
            for items in schedule:
                market = _draw_items(rng, 4, items)
                for kind in ("cp", "cup"):
                    for priority in (market.agent_ids, market.agent_ids[::-1]):
                        spec = MechanismSpec(kind, priority, self.constraints)
                        deck.append(Task(market, self.constraints, spec))
        return deck

    def prepare(self, task: Task) -> None:
        pass

    def op(self, task: Task):
        outcome = mechanisms.run_mechanism(task.market, task.spec)
        pareto = auditors.audit_constrained_pareto(task.market, outcome, task.constraints)
        consistency = auditors.audit_weak_consistency(task.market, task.spec)
        return outcome, pareto, consistency

    def output(self, task: Task, result) -> str:
        return "".join(serialize_unwrapped(value) for value in result)

    def check(self, task: Task, result, state: dict) -> None:
        _, pareto, consistency = result
        if pareto.witnesses or pareto.verdict != CLEAN:
            raise CheckFailed(f"mechanism outcome is Pareto-dominated ({len(pareto.witnesses)} witnesses)")
        if consistency.witnesses or consistency.verdict != CLEAN:
            raise CheckFailed(f"{len(consistency.witnesses)} weak-consistency violations")


WORKLOADS = {w.name: w for w in (AuditSP(), ClearCLI(), AuditWC())}
