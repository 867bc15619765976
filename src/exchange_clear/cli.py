"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit status 0 means success
(for audits: no violation found), 2 means an audit found a violation, and 1
means any error.  Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .auditors import (
    ConsistencyParams,
    MisreportBudget,
    audit_constrained_pareto,
    audit_strategyproofness,
    audit_weak_consistency,
    fixture,
    replicate_impossibility,
)
from .core import Market, satisfaction_profile, validate_market
from .feasibility import (
    BudgetExceededError,
    feasible_with_profiles,
    format_constraints,
    parse_constraints,
)
from .instances import (
    SCHEMA_VERSION,
    GeneratorConfig,
    InstanceFormatError,
    _dump,
    generate_instance,
    parse_allocation,
    parse_instance,
    serialize,
)
from .mechanisms import MechanismSpec, check_priority, solve

# No command calls these three, but the benchmark's traced run
# (bench/spans.py) wraps `cli.run_mechanism`, `cli.max_satisfied_oracle` and
# `cli.enumerate_feasible` and stops when a name is missing, so all three
# stay bound here.
from .auditors import max_satisfied_oracle
from .feasibility import enumerate_feasible
from .mechanisms import run_mechanism

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from None


def _load_market(path: str) -> Market:
    return parse_instance(_read_text(path))


def _parse_priority(market: Market, text: str | None) -> tuple[str, ...]:
    if text is None:
        return market.agent_ids  # canonical agent-id order when the flag is omitted
    try:
        return check_priority(market, [token.strip() for token in text.split(",") if token.strip()])
    except ValueError as exc:
        raise CliError(f"--priority {text!r}: {exc}") from None


def _params_from_flags(cls, args, *names: str):
    fields = {name: getattr(args, name) for name in names}
    for name, value in fields.items():
        try:
            cls(**{name: value})
        except ValueError as exc:
            raise CliError(f"--{name.replace('_', '-')} {value}: {exc}") from None
    return cls(**fields)


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise CliError(f"{flag} expects 'N' or 'LO:HI', got {text!r}")


def _load_spec(args) -> tuple[Market, MechanismSpec]:
    """The market of --instance and the spec of --mechanism, --constraints
    and --priority, read in that order."""
    market = _load_market(args.instance)
    constraints = parse_constraints(args.constraints)
    priority = _parse_priority(market, args.priority)
    return market, MechanismSpec(args.mechanism, priority, constraints)


def _cmd_solve(args) -> int:
    market, spec = _load_spec(args)
    allocation = solve(market, spec)
    profile = satisfaction_profile(market, allocation)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mechanism": args.mechanism,
        "priority": list(spec.priority),
        "constraints": format_constraints(spec.constraints),
        "allocation": dict(allocation.assignment),
        "satisfaction": profile,
        "satisfied_count": sum(profile.values()),
    }
    sys.stdout.write(_dump(doc))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    market = _load_market(args.instance)
    constraints = parse_constraints(args.constraints)
    # the table builds only the allocations read: the ends, or all of them
    # with --full
    table = feasible_with_profiles(market, constraints)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "constraints": format_constraints(constraints),
        "feasible_count": len(table),
        "max_satisfaction": max(map(sum, table.first), default=0),
        "first_allocation": dict(table[0].assignment) if table else None,
        "last_allocation": dict(table[-1].assignment) if table else None,
    }
    if args.full:
        doc["allocations"] = [dict(a.assignment) for a in table]
    sys.stdout.write(_dump(doc))
    return EXIT_OK


def _audit_exit(report) -> int:
    return EXIT_VIOLATION if report.violation_found else EXIT_OK


def _cmd_audit_sp(args) -> int:
    market, spec = _load_spec(args)
    budget = _params_from_flags(MisreportBudget, args, "bundle_cap", "max_scenarios")
    report = audit_strategyproofness(market, spec, budget)
    sys.stdout.write(serialize(report))
    return _audit_exit(report)


def _cmd_audit_consistency(args) -> int:
    market, spec = _load_spec(args)
    params = _params_from_flags(ConsistencyParams, args, "seed", "samples")
    report = audit_weak_consistency(market, spec, params)
    sys.stdout.write(serialize(report))
    return _audit_exit(report)


def _cmd_audit_pareto(args) -> int:
    market = _load_market(args.instance)
    constraints = parse_constraints(args.constraints)
    allocation = parse_allocation(_read_text(args.allocation))
    assigned = {item_id for item_id, _ in allocation.assignment}
    if assigned != set(market.item_ids):
        raise CliError("allocation does not assign exactly the market's items")
    unknown = {a for _, a in allocation.assignment} - set(market.agent_ids)
    if unknown:
        raise CliError(f"allocation names unknown agents: {sorted(unknown)}")
    report = audit_constrained_pareto(market, allocation, constraints)
    sys.stdout.write(serialize(report))
    return _audit_exit(report)


def _cmd_fixture(args) -> int:
    fx = fixture(args.name)
    _write_output(serialize(fx.market), args.out)
    return EXIT_OK


def _cmd_replicate(args) -> int:
    report = replicate_impossibility()
    sys.stdout.write(serialize(report))
    return _audit_exit(report)


def _cmd_generate(args) -> int:
    config = GeneratorConfig(
        seed=args.seed,
        agents=_parse_range(args.agents, "--agents"),
        items_per_agent=_parse_range(args.items_per_agent, "--items-per-agent"),
        demands_per_agent=_parse_range(args.demands_per_agent, "--demands-per-agent"),
        demand_bundle_size=_parse_range(args.bundle_size, "--bundle-size"),
        null_padding=args.null_padding,
    )
    market = generate_instance(config)
    violations = validate_market(market)
    if violations:
        raise CliError("generated market failed validation: " + "; ".join(violations))
    _write_output(serialize(market), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not
    change it)."""
    parser = argparse.ArgumentParser(
        prog="exchange-clear",
        description="Clearing engine and axiom auditor for multi-item exchange markets.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_mechanism_flags(p):
        p.add_argument("--mechanism", required=True, choices=("cp", "cup"))
        p.add_argument("--priority", default=None,
                       help="comma-separated agent ids (default: canonical id order)")

    def add_market_flags(p):
        p.add_argument("--constraints", required=True)
        p.add_argument("--instance", required=True)

    solve = sub.add_parser("solve", help="run a mechanism and print its allocation")
    add_mechanism_flags(solve)
    add_market_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    enum = sub.add_parser("enumerate", help="enumerate the feasible allocation set")
    add_market_flags(enum)
    enum.add_argument("--full", action="store_true", help="print every allocation")
    enum.set_defaults(handler=_cmd_enumerate)

    sp = sub.add_parser("audit-sp", help="search for profitable misreports")
    add_mechanism_flags(sp)
    add_market_flags(sp)
    sp.add_argument("--bundle-cap", type=int, default=MisreportBudget.bundle_cap)
    sp.add_argument("--max-scenarios", type=int, default=MisreportBudget.max_scenarios)
    sp.set_defaults(handler=_cmd_audit_sp)

    wc = sub.add_parser("audit-consistency", help="audit choice consistency under set contraction")
    add_mechanism_flags(wc)
    add_market_flags(wc)
    wc.add_argument("--seed", type=int, default=ConsistencyParams.seed)
    wc.add_argument("--samples", type=int, default=ConsistencyParams.samples)
    wc.set_defaults(handler=_cmd_audit_consistency)

    pareto = sub.add_parser("audit-pareto", help="check an allocation for feasible dominators")
    add_market_flags(pareto)
    pareto.add_argument("--allocation", required=True)
    pareto.set_defaults(handler=_cmd_audit_pareto)

    fix = sub.add_parser("fixture", help="write a bundled benchmark instance")
    fix.add_argument("name", choices=("example1", "theorem5"))
    fix.add_argument("--out", default=None)
    fix.set_defaults(handler=_cmd_fixture)

    rep = sub.add_parser("replicate-theorem5", help="run the bundled impossibility replication")
    rep.set_defaults(handler=_cmd_replicate)

    gen = sub.add_parser("generate", help="write a seeded random instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--agents", default="2:4")
    gen.add_argument("--items-per-agent", default="1:2")
    gen.add_argument("--demands-per-agent", default="1:3")
    gen.add_argument("--bundle-size", default="1:3")
    gen.add_argument("--null-padding", action="store_true")
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_generate)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR
    try:
        return args.handler(args)
    except (CliError, InstanceFormatError, BudgetExceededError, ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
