"""Command-line surface.

Subcommands:
  validate    check a document and print positioned diagnostics
  metrics     stability accounting for one agent's route table
  trace       per-step perception/generation/choice lines, printed as taken
  experiment  persistence runs for every agent, CSV output
  logic-table the eight-row persistence-claim truth tables

Exit codes: 0 success, 1 usage, 2 invalid document, 3 runtime failure.

A command imports only the modules it runs: every command reads its
document through dsl, trace and experiment also load harness (and digits
for a positional agent), metrics and logic-table load metrics, and only
`metrics --format json` loads json. A name a command takes from harness
or metrics is an attribute of this module (see _LAZY) that the command
reads at each call, so a wrapper set on it sees every call; experiment
takes its result from run_experiment and writes the CSV with write_csv.
run() pauses the cyclic garbage collector for the command, then
restores it: a command leaves the same few hundred unreachable objects
whatever its document, so a pass frees next to nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import import_module

from .architectures import ArchitectureKind
from .dsl import SpecInvalid, parse_file
from .universe import ExosimError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SPEC = 2
EXIT_RUNTIME = 3


# The names the commands take from harness and metrics. The first read of
# one imports its module through the package and keeps what its module
# holds then, so a wrapper set on exosim.harness.write_csv before
# experiment runs sees the call.
_LAZY = (
    "run_experiment",
    "write_csv",
    "run_trajectory",
    "derive_objectives",
    "persistence_truth_table",
    "stability_report",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(__package__), name)
    return value


# This module, whose _LAZY names the commands read as attributes.
_cli = sys.modules[__name__]


class CliError(ExosimError):
    """A request that cannot be satisfied with the given document."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits with 2 by default
        self.print_usage(sys.stderr)
        print(f"exosim: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exosim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document")
    p.add_argument("file")

    p = sub.add_parser("metrics", help="stability metrics for one agent")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("trace", help="per-step trace of one agent")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("experiment", help="persistence experiment over all agents")
    p.add_argument("file")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--max-steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("logic-table", help="persistence-claim truth tables")
    return parser


def _load_checked(path: str, out):
    """Parse a document and print its warnings. An invalid one raises
    SpecInvalid, whose diagnostics run() prints."""
    result = parse_file(path)
    if result.document is None:
        raise SpecInvalid(path, result.diagnostics)
    for diag in result.diagnostics:
        print(diag.render(path), file=out)
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
    # afs1's table holds reactions, not routes toward objectives.
    if not agent.tables or agent.kind is ArchitectureKind.AFS1:
        raise CliError(
            f"agent {args.agent!r} is {agent.kind.value}; metrics need a route table"
        )
    # A learner's run starts on pool table 0.
    table = agent.tables[0]
    objectives = _cli.derive_objectives(table, agent.representation, universe)
    report = _cli.stability_report(table, agent.representation, objectives, universe)
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
        import json

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

    def show(rec) -> None:
        formula = rec.formula if rec.formula is not None else "-"
        sequence = " ".join(rec.sequence) if rec.sequence else "-"
        print(
            f"t={rec.t} state={rec.state_before} formula={formula} "
            f"sequence=[{sequence}] act={rec.act} energy={rec.energy_after}",
            file=out,
        )

    # Each step is printed as the loop takes it, so a run that fails shows
    # the steps before the failure.
    trajectory = _cli.run_trajectory(universe, agent, args.steps, args.seed, on_step=show)
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
    result = _cli.run_experiment(doc, args.runs, args.max_steps, args.seed)
    _cli.write_csv(result, args.out)
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

    rows = _cli.persistence_truth_table()
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args, out)
    except SpecInvalid as exc:
        for diag in exc.diagnostics:
            print(diag.render(exc.filename), file=out)
        return EXIT_INVALID_SPEC
    except (ExosimError, OSError, ValueError) as exc:  # CliError is an ExosimError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
