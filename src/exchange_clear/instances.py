"""Instance and report serialization plus a seeded random-instance generator.

Documents are JSON with a "schema_version" field (currently "1") and a fully
canonical layout: fixed key order, agents and items sorted by id, bundles
sorted item-by-item, demand sets sorted by size then contents, two-space
indentation, UTF-8, newline-terminated.  Serializing the same value twice is
byte-identical, which is what makes golden-file regression tests possible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .core import Agent, Allocation, Bundle, Item, Market, bundle_sort_key, validate_market
from .auditors import (
    AuditReport,
    ConsistencyViolation,
    DominationWitness,
    ManipulationWitness,
)

SCHEMA_VERSION = "1"


class InstanceFormatError(ValueError):
    """Malformed, mis-versioned, or invalid instance/allocation documents."""


def _market_document(market: Market) -> dict:
    items = []
    for it in market.items:
        entry: dict = {"id": it.id}
        if it.is_null:
            entry["null"] = True
        items.append(entry)
    agents = []
    for ag in market.agents:
        agents.append(
            {
                "id": ag.id,
                "endowment": sorted(ag.endowment),
                "demands": [sorted(d) for d in sorted(ag.demands, key=bundle_sort_key)],
            }
        )
    return {"schema_version": SCHEMA_VERSION, "items": items, "agents": agents}


def _allocation_document(allocation: Allocation) -> dict:
    return {"schema_version": SCHEMA_VERSION, "assignment": dict(allocation.assignment)}


def _witness_document(witness) -> dict:
    if isinstance(witness, ManipulationWitness):
        scenario = witness.scenario
        return {
            "agent": scenario.agent,
            "reported_endowment": sorted(scenario.reported_endowment),
            "reported_demands": [
                sorted(d) for d in sorted(scenario.reported_demands, key=bundle_sort_key)
            ],
            "withheld": sorted(scenario.withheld),
            "truthful_outcome": dict(witness.truthful_outcome.assignment),
            "misreport_outcome": dict(witness.misreport_outcome.assignment),
            "realized_bundle": sorted(witness.realized_bundle),
        }
    if isinstance(witness, DominationWitness):
        return {"dominating": dict(witness.dominating.assignment), "profile": witness.profile}
    if isinstance(witness, ConsistencyViolation):
        return {
            "superset_size": witness.superset_size,
            "subset_size": witness.subset_size,
            "superset_choice": dict(witness.superset_choice.assignment),
            "subset_choice": dict(witness.subset_choice.assignment),
            "matching_allocation": dict(witness.matching_allocation.assignment),
            "superset_profile": witness.superset_profile,
            "subset_profile": witness.subset_profile,
        }
    raise TypeError(f"cannot serialize witness of type {type(witness).__name__}")


def _report_document(report: AuditReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "verdict": report.verdict,
        "summary": dict(sorted(report.summary.items())),
        "witnesses": [_witness_document(w) for w in report.witnesses],
    }


def _dump(doc: dict) -> str:
    """The canonical JSON text of a document: what `serialize` and the
    command line write."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def serialize(value) -> str:
    """Canonical text form of a Market, Allocation, or AuditReport."""
    if isinstance(value, Market):
        doc = _market_document(value)
    elif isinstance(value, Allocation):
        doc = _allocation_document(value)
    elif isinstance(value, AuditReport):
        doc = _report_document(value)
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")
    return _dump(doc)


# The checks below raise inline, so a message is formatted only when its
# check fails.


def _repeat(values: list):
    """The first entry of `values` that repeats an earlier one."""
    return next(v for i, v in enumerate(values) if v in values[:i])


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's members as a dict.  A repeated key raises: JSON
    keeps its last value, so the document would say something else than
    it spells."""
    out = dict(pairs)
    if len(out) < len(pairs):
        raise InstanceFormatError(f"repeated key {_repeat([key for key, _ in pairs])!r}")
    return out


def _decode_document(text: str) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, a repeated key, or an integer literal too long to convert
        raise InstanceFormatError(f"malformed document: {exc}") from None
    except RecursionError:
        raise InstanceFormatError("malformed document: nested too deeply") from None
    if not isinstance(data, dict):
        raise InstanceFormatError("top-level value must be an object")
    version = data.get("schema_version")
    if version is None:
        raise InstanceFormatError("missing field 'schema_version'")
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(f"unsupported schema version {version!r}")
    return data


def parse_instance(text: str) -> Market:
    """Decode and validate an instance document; raises InstanceFormatError
    naming the offending field on any structural or validation problem."""
    data = _decode_document(text)
    if not isinstance(data.get("items"), list):
        raise InstanceFormatError("field 'items' must be a list")
    if not isinstance(data.get("agents"), list):
        raise InstanceFormatError("field 'agents' must be a list")

    items = []
    for pos, entry in enumerate(data["items"]):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"items[{pos}] must be an object")
        unknown = set(entry) - {"id", "null"}
        if unknown:
            raise InstanceFormatError(f"items[{pos}]: unknown field {sorted(unknown)[0]!r}")
        item_id = entry.get("id")
        if not isinstance(item_id, str):
            raise InstanceFormatError(f"items[{pos}]: field 'id' must be a string")
        is_null = entry.get("null", False)
        if not isinstance(is_null, bool):
            raise InstanceFormatError(f"items[{pos}]: field 'null' must be a boolean")
        items.append(Item(item_id, is_null))

    agents = []
    for pos, entry in enumerate(data["agents"]):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"agents[{pos}] must be an object")
        unknown = set(entry) - {"id", "endowment", "demands"}
        if unknown:
            raise InstanceFormatError(f"agents[{pos}]: unknown field {sorted(unknown)[0]!r}")
        agent_id = entry.get("id")
        if not isinstance(agent_id, str):
            raise InstanceFormatError(f"agents[{pos}]: field 'id' must be a string")
        endowment = entry.get("endowment")
        if not (isinstance(endowment, list) and all(isinstance(x, str) for x in endowment)):
            raise InstanceFormatError(f"agents[{pos}]: field 'endowment' must be a list of item ids")
        if len(set(endowment)) < len(endowment):
            raise InstanceFormatError(f"agents[{pos}]: field 'endowment' repeats item id {_repeat(endowment)!r}")
        demands = entry.get("demands")
        if not isinstance(demands, list):
            raise InstanceFormatError(f"agents[{pos}]: field 'demands' must be a list")
        bundles: dict[frozenset, int] = {}
        for dpos, d in enumerate(demands):
            if not (isinstance(d, list) and all(isinstance(x, str) for x in d)):
                raise InstanceFormatError(f"agents[{pos}].demands[{dpos}] must be a list of item ids")
            if len(set(d)) < len(d):
                raise InstanceFormatError(f"agents[{pos}].demands[{dpos}] repeats item id {_repeat(d)!r}")
            bundle = frozenset(d)
            if bundle in bundles:
                raise InstanceFormatError(f"agents[{pos}].demands[{dpos}] repeats demands[{bundles[bundle]}]")
            bundles[bundle] = dpos
        agents.append(Agent(agent_id, endowment, tuple(bundles)))

    market = Market(tuple(agents), tuple(items))
    violations = validate_market(market)
    if violations:
        raise InstanceFormatError("invalid market: " + "; ".join(violations))
    return market


def parse_allocation(text: str) -> Allocation:
    data = _decode_document(text)
    assignment = data.get("assignment")
    if not isinstance(assignment, dict):
        raise InstanceFormatError("field 'assignment' must be an object")
    for item_id, agent_id in assignment.items():
        if not isinstance(agent_id, str):
            raise InstanceFormatError(f"assignment[{item_id!r}] must name an agent id")
    return Allocation(assignment)


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded instance-generator parameters; every range is inclusive.

    Demand bundles are drawn over the whole non-null item pool, so agents may
    demand items they already own.  With `null_padding` every endowment is
    padded with null items up to the largest endowment size, which keeps
    balanced-cycle trades available for otherwise uneven endowments.
    """

    seed: int
    agents: tuple[int, int] = (2, 4)
    items_per_agent: tuple[int, int] = (1, 2)
    demands_per_agent: tuple[int, int] = (1, 3)
    demand_bundle_size: tuple[int, int] = (1, 3)
    null_padding: bool = False


def _check_range(name: str, bounds: tuple[int, int], minimum: int = 0) -> None:
    lo, hi = bounds
    if lo > hi or lo < minimum:
        raise ValueError(f"infeasible config: bad range for {name}: {bounds}")


def generate_instance(config: GeneratorConfig) -> Market:
    """Deterministic per seed: the same config always yields the same market."""
    _check_range("agents", config.agents, minimum=1)
    _check_range("items_per_agent", config.items_per_agent)
    _check_range("demands_per_agent", config.demands_per_agent)
    _check_range("demand_bundle_size", config.demand_bundle_size)

    rng = random.Random(config.seed)
    agent_count = rng.randint(*config.agents)
    agent_ids = [str(i) for i in range(1, agent_count + 1)]

    items: list[Item] = []
    endowments: dict[str, list[str]] = {}
    counter = 0
    for agent_id in agent_ids:
        owned = []
        for _ in range(rng.randint(*config.items_per_agent)):
            counter += 1
            owned.append(f"o{counter:02d}")
        endowments[agent_id] = owned
        items.extend(Item(x) for x in owned)
    if config.null_padding:
        target = max(len(v) for v in endowments.values())
        for agent_id in agent_ids:
            pad = 0
            while len(endowments[agent_id]) < target:
                pad += 1
                null_id = f"z{agent_id}n{pad:02d}"
                endowments[agent_id].append(null_id)
                items.append(Item(null_id, is_null=True))

    real_ids = sorted(it.id for it in items if not it.is_null)
    lo, hi = config.demand_bundle_size
    if lo > len(real_ids):
        raise ValueError(
            f"infeasible config: demand bundles of size {lo} need at least {lo} non-null items, "
            f"have {len(real_ids)}"
        )
    hi = min(hi, len(real_ids))

    agents = []
    for agent_id in agent_ids:
        wanted = rng.randint(*config.demands_per_agent)
        bundles: list[Bundle] = []
        attempts = 0
        while len(bundles) < wanted and attempts < 20 * max(wanted, 1):
            attempts += 1
            size = rng.randint(lo, hi)
            candidate = frozenset(rng.sample(real_ids, size))
            if candidate not in bundles:
                bundles.append(candidate)
        agents.append(Agent(agent_id, endowments[agent_id], bundles))

    return Market(tuple(agents), tuple(items))
