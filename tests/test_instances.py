import json

import pytest
from hypothesis import given, settings, strategies as st

from exchange_clear import (
    Agent,
    AuditReport,
    GeneratorConfig,
    InstanceFormatError,
    Item,
    Market,
    endowment_allocation,
    fixture,
    generate_instance,
    parse_allocation,
    parse_instance,
    serialize,
    validate_market,
)


def test_round_trip_fixtures(example1, theorem5):
    for fx in (example1, theorem5):
        assert parse_instance(serialize(fx.market)) == fx.market


def test_round_trip_null_items():
    market = Market(
        agents=(Agent("1", ["x", "z1"], [{"y"}]), Agent("2", ["y"])),
        items=(Item("x"), Item("y"), Item("z1", is_null=True)),
    )
    again = parse_instance(serialize(market))
    assert again == market
    assert again.items_by_id["z1"].is_null


def test_serialize_is_stable(theorem5):
    assert serialize(theorem5.market) == serialize(theorem5.market)
    assert serialize(theorem5.market).endswith("\n")


def test_serialize_allocation_round_trip(example1):
    alloc = endowment_allocation(example1.market)
    assert parse_allocation(serialize(alloc)) == alloc


def test_parse_duplicate_item_id():
    text = '{"schema_version": "1", "items": [{"id": "x"}, {"id": "x"}], "agents": [{"id": "1", "endowment": ["x"], "demands": []}]}'
    with pytest.raises(InstanceFormatError, match="duplicate item id 'x'"):
        parse_instance(text)


def test_parse_empty_agents():
    text = '{"schema_version": "1", "items": [], "agents": []}'
    with pytest.raises(InstanceFormatError, match="at least one agent"):
        parse_instance(text)


def test_parse_schema_mismatch():
    with pytest.raises(InstanceFormatError, match="unsupported schema version"):
        parse_instance('{"schema_version": "7", "items": [], "agents": []}')
    with pytest.raises(InstanceFormatError, match="schema_version"):
        parse_instance('{"items": [], "agents": []}')


def test_parse_malformed_document():
    with pytest.raises(InstanceFormatError, match="malformed document"):
        parse_instance("{nope")


@pytest.mark.parametrize("parse", [parse_instance, parse_allocation])
@pytest.mark.parametrize("text", ["[" * 100_000, '{"schema_version": "1", "assignment": ' + "[" * 100_000])
def test_parse_deeply_nested_document(parse, text):
    with pytest.raises(InstanceFormatError, match="malformed document: nested too deeply"):
        parse(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)

VALID_DOCUMENTS = [
    json.loads(serialize(fixture("example1").market)),
    json.loads(serialize(endowment_allocation(fixture("example1").market))),
]


@st.composite
def mutated_documents(draw):
    """A valid document with one node replaced by, or one key dropped in
    favour of, an arbitrary JSON value."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCUMENTS))))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    replacement = draw(JSON_VALUES)
    if parent is None:
        doc = replacement
    elif isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = replacement
    return json.dumps(doc)


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except InstanceFormatError:
        pass  # any other exception fails the test


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), JSON_VALUES.map(json.dumps), mutated_documents()))
def test_parse_malformed_raises_instance_format_error_only(text):
    parses_or_rejects(parse_instance, text)
    parses_or_rejects(parse_allocation, text)


def test_parse_unknown_field():
    text = '{"schema_version": "1", "items": [{"id": "x", "weight": 3}], "agents": []}'
    with pytest.raises(InstanceFormatError, match="unknown field 'weight'"):
        parse_instance(text)


def test_parse_unknown_agent_field():
    text = '{"schema_version": "1", "items": [], "agents": [{"id": "1", "endowment": [], "demands": [], "age": 3}]}'
    with pytest.raises(InstanceFormatError, match="agents\\[0\\]: unknown field 'age'"):
        parse_instance(text)


def test_parse_rejects_invalid_market():
    text = (
        '{"schema_version": "1", "items": [{"id": "x"}],'
        ' "agents": [{"id": "1", "endowment": ["x"], "demands": [["ghost"]]}]}'
    )
    with pytest.raises(InstanceFormatError, match="unknown item in demand"):
        parse_instance(text)


GOLDEN_SEED1 = Market(
    agents=(Agent("1", ["o01"], [{"o02"}]), Agent("2", ["o02"], [{"o01"}])),
    items=(Item("o01"), Item("o02")),
)


def test_generator_golden_seed1():
    config = GeneratorConfig(
        seed=1,
        agents=(2, 2),
        items_per_agent=(1, 1),
        demands_per_agent=(1, 1),
        demand_bundle_size=(1, 1),
    )
    assert generate_instance(config) == GOLDEN_SEED1


def test_generator_deterministic_and_seed_sensitive():
    config = GeneratorConfig(seed=11)
    assert serialize(generate_instance(config)) == serialize(generate_instance(config))
    other = GeneratorConfig(seed=12)
    assert generate_instance(config) != generate_instance(other)


def test_generator_output_is_valid():
    for seed in range(1, 40):
        market = generate_instance(GeneratorConfig(seed=seed))
        assert validate_market(market) == []


def test_generator_null_padding():
    market = generate_instance(GeneratorConfig(seed=3, agents=(3, 3), null_padding=True))
    assert validate_market(market) == []
    sizes = {len(ag.endowment) for ag in market.agents}
    assert len(sizes) == 1  # padded to a common endowment size
    assert any(it.is_null for it in market.items) or min(
        len(ag.endowment) for ag in market.agents
    ) == max(len(ag.endowment) for ag in market.agents)


def test_generator_infeasible_config():
    with pytest.raises(ValueError, match="infeasible config"):
        generate_instance(GeneratorConfig(seed=1, agents=(0, 2)))
    with pytest.raises(ValueError, match="infeasible config"):
        generate_instance(
            GeneratorConfig(seed=1, agents=(2, 2), items_per_agent=(1, 1), demand_bundle_size=(5, 5))
        )


def test_serialize_rejects_unknown_type():
    with pytest.raises(TypeError):
        serialize(42)


def test_serialize_rejects_unknown_witness_type():
    report = AuditReport("strategyproofness", "violation", witnesses=(42,))
    with pytest.raises(TypeError, match="cannot serialize witness of type int"):
        serialize(report)


def test_allocation_document_shape(example1):
    alloc = endowment_allocation(example1.market)
    text = serialize(alloc)
    assert '"assignment"' in text and '"schema_version": "1"' in text
    with pytest.raises(InstanceFormatError, match="assignment"):
        parse_allocation('{"schema_version": "1"}')
