"""Command-line surface.

Subcommands:
  validate    check a document and print positioned diagnostics
  metrics     stability accounting for one agent's route table
  trace       per-step perception/generation/choice records
  experiment  persistence runs for every agent, CSV output
  logic-table the eight-row persistence-claim truth tables

Exit codes: 0 success, 1 usage, 2 invalid document, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .architectures import ArchitectureError
from .digits import DigitError
from .dsl import SpecInvalid, parse_file
from .harness import ExperimentConfig, HarnessError, run_experiment, run_trajectory
from .metrics import MetricsError, derive_objectives, persistence_truth_table, stability_report
from .representation import RepresentationError
from .universe import UniverseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SPEC = 2
EXIT_RUNTIME = 3


class CliError(Exception):
    """A request that cannot be satisfied with the given document."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits with 2 by default
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exosim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document")
    p.add_argument("file", type=Path)

    p = sub.add_parser("metrics", help="stability metrics for one agent")
    p.add_argument("file", type=Path)
    p.add_argument("--agent", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("trace", help="per-step trace of one agent")
    p.add_argument("file", type=Path)
    p.add_argument("--agent", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("experiment", help="persistence experiment over all agents")
    p.add_argument("file", type=Path)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--max-steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)

    sub.add_parser("logic-table", help="persistence-claim truth tables")
    return parser


def _load_checked(path: Path, out):
    """Parse a document and print its warnings. An invalid one raises
    SpecInvalid, whose diagnostics run() prints."""
    result = parse_file(path)
    if result.document is None:
        raise SpecInvalid(str(path), result.diagnostics)
    for diag in result.diagnostics:
        print(diag.render(str(path)), file=out)
    return result.document


def _cmd_validate(args, out) -> int:
    doc = _load_checked(args.file, out)
    print(
        f"{args.file}: ok ({len(doc.universes)} universes, {len(doc.agents)} agents)",
        file=out,
    )
    return EXIT_OK


def _fraction(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cmd_metrics(args, out) -> int:
    doc = _load_checked(args.file, out)
    try:
        agent, universe = doc.build_agent(args.agent)
    except KeyError:
        raise CliError(f"no agent named {args.agent!r} in {args.file}") from None
    if not agent.tables or agent.representation is None:
        raise CliError(
            f"agent {args.agent!r} is {agent.kind.value}; metrics need a route table"
        )
    # A learner's run starts on pool table 0.
    table = agent.tables[0]
    objectives = derive_objectives(table, agent.representation, universe)
    report = stability_report(table, agent.representation, objectives, universe)
    payload = {
        "agent": agent.name,
        "universe": universe.name,
        "objectives": sorted(objectives.objectives),
        "positive_objectives": sorted(objectives.positive),
        "negative_objectives": sorted(objectives.negative),
        "departures": dict(sorted(report.departures.items())),
        "negative_escapes": dict(sorted(report.negative_escapes.items())),
        "positive_escapes": dict(sorted(report.positive_escapes.items())),
        "basic_stability": _fraction(report.basic_stability),
        "instability": _fraction(report.instability),
        "total_stability": _fraction(report.total_stability),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
        return EXIT_OK
    print(f"agent {payload['agent']} in universe {payload['universe']}", file=out)
    print(f"objectives: {' '.join(payload['objectives']) or '-'}", file=out)
    # Then one line per entry of each count table and one per fraction.
    for key, value in payload.items():
        if isinstance(value, dict):
            for item, count in value.items():
                print(f"{key}[{item}] {count}", file=out)
        elif key.endswith("stability"):
            print(f"{key} {value}", file=out)
    return EXIT_OK


def _cmd_trace(args, out) -> int:
    doc = _load_checked(args.file, out)
    if args.steps < 0:
        raise CliError("--steps must be non-negative")
    try:
        agent, universe = doc.build_agent(args.agent)
    except KeyError:
        raise CliError(f"no agent named {args.agent!r} in {args.file}") from None
    trajectory = run_trajectory(universe, agent, args.steps, args.seed)
    for rec in trajectory.iter_steps():
        formula = rec.formula if rec.formula is not None else "-"
        sequence = " ".join(rec.sequence) if rec.sequence else "-"
        print(
            f"t={rec.t} state={rec.state_before} formula={formula} "
            f"sequence=[{sequence}] act={rec.act} energy={rec.energy_after}",
            file=out,
        )
    print(
        f"persistence {trajectory.persistence} ({trajectory.terminal_reason.value})",
        file=out,
    )
    return EXIT_OK


def _cmd_experiment(args, out) -> int:
    if args.runs <= 0:
        raise CliError("--runs must be positive")
    if args.max_steps < 0:
        raise CliError("--max-steps must be non-negative")
    doc = _load_checked(args.file, out)
    cfg = ExperimentConfig(
        runs_per_agent=args.runs,
        max_steps=args.max_steps,
        master_seed=args.seed,
        output_path=args.out,
    )
    result = run_experiment(doc, cfg)
    print(f"wrote {len(result.rows)} rows to {args.out}", file=out)
    for s in result.summaries:
        print(
            f"agent {s.agent} ({s.kind}): mean {s.mean:.2f} median {s.median:.1f} "
            f"min {s.min} max {s.max}",
            file=out,
        )
    for c in result.comparisons:
        print(
            f"sensitive vs {c.against}: U={c.u_statistic:.1f} p={c.p_value:.3g} "
            f"(means {c.sensitive_mean:.2f} vs {c.other_mean:.2f})",
            file=out,
        )
    return EXIT_OK


def _cmd_logic_table(args, out) -> int:
    def fmt(flag: bool) -> str:
        return "V" if flag else "F"

    rows = persistence_truth_table()
    groups = {
        "I": "immobile systems",
        "II": "movers in an act-insensitive universe",
        "III": "movers in an act-sensitive universe",
    }
    for group, title in groups.items():
        print(f"table {group}: {title}", file=out)
        print("case  s  r  n  s^r  s^n  value", file=out)
        for row in rows:
            if row.group != group:
                continue
            c = row.case
            print(
                f"{group}.{row.label}   {fmt(c.act_sensitive)}  {fmt(c.rep_movers)}  "
                f"{fmt(c.free_movers)}  {fmt(row.s_and_r)}    {fmt(row.s_and_n)}    "
                f"{row.value.value}",
                file=out,
            )
        print("", file=out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "experiment": _cmd_experiment,
    "logic-table": _cmd_logic_table,
}


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises for --help (code 0) and usage errors (code 1 here).
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except SpecInvalid as exc:
        for diag in exc.diagnostics:
            print(diag.render(exc.filename), file=out)
        return EXIT_INVALID_SPEC
    except (
        CliError,
        UniverseError,
        RepresentationError,
        ArchitectureError,
        DigitError,
        MetricsError,
        HarnessError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
