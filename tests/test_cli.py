import json
import subprocess
import sys

import pytest

from conftest import subprocess_env
from exchange_clear import (
    BUILT_IN_CONSTRAINT_SETS,
    Agent,
    Allocation,
    GeneratorConfig,
    Item,
    Market,
    cli,
    fixture,
    format_constraints,
    generate_instance,
    max_satisfied_oracle,
    serialize,
)
from exchange_clear.cli import cli_dispatch


@pytest.fixture()
def example1_path(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(serialize(fixture("example1").market))
    return str(path)


@pytest.fixture()
def theorem5_path(tmp_path):
    path = tmp_path / "theorem5.json"
    path.write_text(serialize(fixture("theorem5").market))
    return str(path)


def run_cli(capsys, *argv):
    status = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_solve_example1(capsys, example1_path):
    status, out, _ = run_cli(
        capsys,
        "solve", "--mechanism", "cup", "--priority", "1,2,3",
        "--constraints", "sir", "--instance", example1_path,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["satisfaction"] == {"1": 1, "2": 1, "3": 1}
    assert doc["satisfied_count"] == 3


def test_solve_default_priority(capsys, example1_path):
    status, out, _ = run_cli(
        capsys, "solve", "--mechanism", "cp", "--constraints", "sir",
        "--instance", example1_path,
    )
    assert status == 0
    assert json.loads(out)["priority"] == ["1", "2", "3"]


def test_enumerate_theorem5(capsys, theorem5_path):
    status, out, _ = run_cli(
        capsys, "enumerate", "--constraints", "pairwise,desirable",
        "--instance", theorem5_path,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["feasible_count"] == 192
    assert doc["max_satisfaction"] == 2
    assert "allocations" not in doc


@pytest.mark.parametrize("set_name", sorted(BUILT_IN_CONSTRAINT_SETS))
def test_enumerate_max_satisfaction_matches_oracle(capsys, tmp_path, set_name):
    cs = BUILT_IN_CONSTRAINT_SETS[set_name]
    markets = [fixture("example1").market, fixture("theorem5").market]
    markets += [generate_instance(GeneratorConfig(seed=seed, agents=(2, 3))) for seed in range(1, 9)]
    for pos, market in enumerate(markets):
        path = tmp_path / f"m{pos}.json"
        path.write_text(serialize(market))
        status, out, _ = run_cli(
            capsys, "enumerate", "--constraints", ",".join(format_constraints(cs)), "--instance", str(path),
        )
        assert status == 0
        assert json.loads(out)["max_satisfaction"] == max_satisfied_oracle(market, cs), pos


def test_enumerate_full(capsys, example1_path):
    status, out, _ = run_cli(
        capsys, "enumerate", "--constraints", "sir", "--instance", example1_path, "--full",
    )
    doc = json.loads(out)
    assert status == 0
    assert len(doc["allocations"]) == doc["feasible_count"] == 67


def test_audit_sp_clean_exit_zero(capsys, example1_path):
    status, out, _ = run_cli(
        capsys, "audit-sp", "--mechanism", "cup", "--constraints", "sir",
        "--instance", example1_path,
    )
    assert status == 0
    assert json.loads(out)["verdict"] == "no violation found"


def test_audit_sp_violation_exit_two(capsys, theorem5_path):
    status, out, _ = run_cli(
        capsys, "audit-sp", "--mechanism", "cp", "--priority", "1,2,3",
        "--constraints", "pairwise,desirable", "--instance", theorem5_path,
        "--max-scenarios", "200",
    )
    assert status == 2
    doc = json.loads(out)
    assert doc["verdict"] == "violation"
    assert doc["witnesses"]


def test_audit_consistency(capsys, example1_path):
    status, out, _ = run_cli(
        capsys, "audit-consistency", "--mechanism", "cp", "--constraints", "sir",
        "--instance", example1_path, "--seed", "3", "--samples", "20",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no violation found"
    assert doc["summary"]["seed"] == 3


def test_audit_pareto(capsys, tmp_path, example1_path):
    from exchange_clear import endowment_allocation

    market = fixture("example1").market
    alloc_path = tmp_path / "endow.json"
    alloc_path.write_text(serialize(endowment_allocation(market)))
    status, out, _ = run_cli(
        capsys, "audit-pareto", "--constraints", "sir",
        "--instance", example1_path, "--allocation", str(alloc_path),
    )
    assert status == 2  # the endowment is dominated under sir
    assert json.loads(out)["verdict"] == "violation"


def test_audit_pareto_mismatched_allocation(capsys, tmp_path, example1_path):
    alloc_path = tmp_path / "bad.json"
    alloc_path.write_text('{"schema_version": "1", "assignment": {"c1": "1"}}\n')
    status, _, err = run_cli(
        capsys, "audit-pareto", "--constraints", "sir",
        "--instance", example1_path, "--allocation", str(alloc_path),
    )
    assert status == 1
    assert "error:" in err


def test_audit_pareto_unknown_agent(capsys, tmp_path, example1_path):
    market = fixture("example1").market
    alloc_path = tmp_path / "stranger.json"
    alloc_path.write_text(serialize(Allocation({item_id: "9" for item_id in market.item_ids})))
    status, _, err = run_cli(
        capsys, "audit-pareto", "--constraints", "sir",
        "--instance", example1_path, "--allocation", str(alloc_path),
    )
    assert (status, err) == (1, "error: allocation names unknown agents: ['9']\n")


def test_unwritable_out_exits_one_naming_the_path(capsys, tmp_path):
    out_path = tmp_path / "missing" / "fx.json"
    status, _, err = run_cli(capsys, "fixture", "theorem5", "--out", str(out_path))
    assert status == 1
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_fixture_writes_instance(capsys, tmp_path):
    out_path = tmp_path / "fx.json"
    status, _, _ = run_cli(capsys, "fixture", "theorem5", "--out", str(out_path))
    assert status == 0
    from exchange_clear import parse_instance

    assert parse_instance(out_path.read_text()) == fixture("theorem5").market


def test_replicate_theorem5(capsys):
    status, out, _ = run_cli(capsys, "replicate-theorem5")
    assert status == 2
    doc = json.loads(out)
    assert doc["summary"]["manipulations_found"] == 12
    assert len(doc["witnesses"]) == 12


def test_generate_deterministic_stdout(capsys):
    status1, out1, _ = run_cli(capsys, "generate", "--seed", "5")
    status2, out2, _ = run_cli(capsys, "generate", "--seed", "5")
    assert status1 == status2 == 0
    assert out1 == out2


def test_generate_single_agent_count(capsys):
    status, out, err = run_cli(capsys, "generate", "--seed", "1", "--agents", "3")
    assert (status, err) == (0, "")
    assert [agent["id"] for agent in json.loads(out)["agents"]] == ["1", "2", "3"]


def test_generate_refuses_to_write_an_invalid_market(capsys, monkeypatch):
    overlapping = Market((Agent("1", ["x"]), Agent("2", ["x"])), (Item("x"),))
    monkeypatch.setattr(cli, "generate_instance", lambda config: overlapping)
    status, out, err = run_cli(capsys, "generate", "--seed", "1")
    assert (status, out) == (1, "")
    assert err.startswith("error: generated market failed validation: ")


def test_generate_bad_range(capsys):
    status, _, err = run_cli(capsys, "generate", "--seed", "1", "--agents", "4:x")
    assert status == 1
    assert "error:" in err


def test_unknown_subcommand(capsys):
    status, _, _ = run_cli(capsys, "frobnicate")
    assert status == 1


def test_missing_required_flag(capsys):
    status, _, _ = run_cli(capsys, "solve", "--mechanism", "cp")
    assert status == 1


def test_missing_instance_file(capsys):
    status, _, err = run_cli(
        capsys, "solve", "--mechanism", "cp", "--constraints", "sir",
        "--instance", "/nonexistent/market.json",
    )
    assert status == 1
    assert "error:" in err


def test_no_subcommand_prints_usage(capsys):
    status, _, err = run_cli(capsys)
    assert status == 1


def test_bad_budget_env_exits_one_naming_the_variable(capsys, monkeypatch, example1_path):
    monkeypatch.setenv("EXCHANGE_CLEAR_BUDGET", "abc")
    status, out, err = run_cli(
        capsys, "enumerate", "--constraints", "sir", "--instance", example1_path,
    )
    assert status == 1
    assert out == ""
    assert "error: EXCHANGE_CLEAR_BUDGET='abc' is not an integer" in err


def test_cli_stdout_stable_across_hash_seeds(theorem5_path):
    commands = [
        (["audit-consistency", "--mechanism", "cup", "--constraints", "pairwise,desirable",
          "--instance", theorem5_path], 0),
        (["enumerate", "--constraints", "pairwise,desirable", "--instance", theorem5_path,
          "--full"], 0),
        (["audit-sp", "--mechanism", "cp", "--priority", "1,2,3",
          "--constraints", "pairwise,desirable", "--instance", theorem5_path,
          "--max-scenarios", "200"], 2),
    ]
    for argv, expected_status in commands:
        runs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "exchange_clear", *argv],
                capture_output=True, text=True, env=subprocess_env(PYTHONHASHSEED=hash_seed), timeout=120,
            )
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1], argv
        status, out = runs[0]
        assert status == expected_status, (argv, status)
        assert out
        if argv[0] == "audit-sp":
            assert json.loads(out)["witnesses"]


def test_bad_priority_exits_one_naming_the_flag(capsys, example1_path):
    status, out, err = run_cli(
        capsys, "solve", "--mechanism", "cp", "--priority", "1,2",
        "--constraints", "sir", "--instance", example1_path,
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error: --priority '1,2': ")
    assert "not a permutation" in err


@pytest.mark.parametrize("token, message", [
    ("bogus", "unknown constraint token 'bogus'"),
    ("maxcycle=1", "bad constraint token 'maxcycle=1': maxcycle limit must be an integer >= 2"),
])
def test_bad_constraint_token_exits_one_naming_it(capsys, example1_path, token, message):
    status, out, err = run_cli(
        capsys, "solve", "--mechanism", "cp", "--constraints", token, "--instance", example1_path,
    )
    assert (status, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--max-scenarios", "--bundle-cap"])
def test_negative_misreport_bound_exits_one_naming_the_flag(capsys, theorem5_path, flag):
    status, out, err = run_cli(
        capsys, "audit-sp", "--mechanism", "cp", "--constraints", "pairwise,desirable",
        "--instance", theorem5_path, flag, "-2",
    )
    assert status == 1
    assert out == ""
    assert err.startswith(f"error: {flag} -2: ")
    assert "must be a non-negative integer" in err


def test_negative_samples_exit_one_naming_the_flag(capsys, example1_path):
    status, out, err = run_cli(
        capsys, "audit-consistency", "--mechanism", "cp", "--constraints", "sir",
        "--instance", example1_path, "--samples", "-5",
    )
    assert status == 1
    assert out == ""
    assert err == "error: --samples -5: samples must be a non-negative integer, got -5\n"


def test_samples_above_the_bound_exit_one_naming_the_bound(capsys, example1_path):
    status, out, err = run_cli(
        capsys, "audit-consistency", "--mechanism", "cp", "--constraints", "sir",
        "--instance", example1_path, "--samples", "100000000",
    )
    assert status == 1
    assert out == ""
    assert err == "error: --samples 100000000: samples must be at most 4096, got 100000000\n"


def test_deeply_nested_instance_exits_one(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    status, out, err = run_cli(
        capsys, "enumerate", "--constraints", "sir", "--instance", str(path),
    )
    assert status == 1
    assert out == ""
    assert err == "error: malformed document: nested too deeply\n"


def test_undecodable_instance_exits_one_naming_the_path(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": "1", "items": [{"id": "\xe9"}]}')
    status, out, err = run_cli(capsys, "enumerate", "--constraints", "sir", "--instance", str(path))
    assert status == 1
    assert out == ""
    assert err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in position 42: "
        "invalid continuation byte\n"
    )


def test_unencodable_stdout_exits_one_naming_the_codec(tmp_path):
    path = tmp_path / "accented.json"
    market = Market((Agent("é", ["x"], [{"x"}]),), (Item("x"),))
    path.write_text(serialize(market), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "exchange_clear", "enumerate", "--constraints", "sir", "--instance", str(path)],
        capture_output=True, text=True, env=subprocess_env(PYTHONIOENCODING="ascii"), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9' in position "), proc.stderr


def test_cli_determinism_byte_identical(capsys, theorem5_path):
    args = ("enumerate", "--constraints", "pairwise,desirable", "--instance", theorem5_path)
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_module_entry_point(tmp_path):
    # exercised via a real process so the installed entry point stays honest
    proc = subprocess.run(
        [sys.executable, "-m", "exchange_clear", "fixture", "example1"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert '"schema_version": "1"' in proc.stdout
