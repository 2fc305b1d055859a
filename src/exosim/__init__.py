"""exosim: finite act-sensitive universes and the behaviors that survive them.

The library models desk-scale universes (finite states, a finite act
alphabet, total deterministic transitions, an energy budget) and three
families of act generation: seeded random draws, positional replay of a
constant's digits, and sensitive architectures that read the current
state through a representation and answer with routes from a prediction
table. On top sit exact stability metrics for route tables, tri-valued
truth tables for the persistence claim, a declarative `.exo` document
format, and an experiment harness comparing persistence times across
behavior families.

Every public name of the submodules below is read from here, and a
submodule is imported when one of its names is first read (PEP 562), so
`from exosim import load_document` loads only dsl and the three modules
it builds on, and never digits, harness, metrics or stats.
"""

from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    "architectures": (
        "AgentArchitecture",
        "ArchitectureError",
        "ArchitectureKind",
        "OrientedViolation",
        "ProjectionOutOfRange",
        "RouteTable",
        "check_oriented_table",
        "splitmix64",
        "unit_draw",
        "update_learning",
    ),
    "digits": (
        "ConstantDigits",
        "DigitError",
        "DigitOutOfRange",
        "DigitSourceExhausted",
        "ExplicitDigits",
        "constant_digits",
        "parse_digit_string",
    ),
    "dsl": (
        "AgentDecl",
        "ParseDiagnostic",
        "ParseResult",
        "Severity",
        "SpecDocument",
        "SpecInvalid",
        "UniverseDecl",
        "load_document",
        "parse",
        "parse_file",
        "serialize",
    ),
    "harness": (
        "CSV_HEADER",
        "AgentSummary",
        "ExperimentResult",
        "GroupComparison",
        "HarnessError",
        "MissingAgentKind",
        "RunRecord",
        "TerminalReason",
        "Trajectory",
        "TrajectoryStep",
        "derive_seed",
        "run_experiment",
        "run_trajectory",
        "write_csv",
    ),
    "metrics": (
        "ObjectiveSets",
        "PersistenceCase",
        "StabilityReport",
        "TriValue",
        "TruthTableRow",
        "derive_objectives",
        "evaluate_persistence_claim",
        "persistence_truth_table",
        "stability_report",
    ),
    "representation": (
        "AmbiguousRepresentation",
        "Formula",
        "RepresentationError",
        "RepresentationMap",
        "UnrepresentedFormula",
    ),
    "stats": ("rank_sum_test",),
    "universe": (
        "ActId",
        "EnergyRules",
        "StateClass",
        "StateId",
        "Universe",
        "UniverseError",
        "UnknownAct",
        "UnknownState",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "fixture_path"]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def fixture_path(name: str):
    """The Path of a shipped .exo fixture (e.g. "reference.exo"). No
    command calls this, so its import stays out of every command's."""
    from pathlib import Path

    return Path(__file__).with_name("fixtures") / name
