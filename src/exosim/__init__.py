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
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .architectures import (
    AgentArchitecture,
    ArchitectureError,
    ArchitectureKind,
    FunctionalUnit,
    InconsistentMetadata,
    OrientedViolation,
    PositionalFasa,
    ProjectionOutOfRange,
    RandomFasa,
    ReactionTable,
    RouteTable,
    UnitGraph,
    check_oriented_table,
    detect_redundancy,
    splitmix64,
    unit_draw,
    update_learning,
)
from .digits import (
    ConstantDigits,
    DigitError,
    DigitOutOfRange,
    DigitSourceExhausted,
    ExplicitDigits,
    constant_digits,
    parse_digit_string,
)
from .dsl import (
    AgentDecl,
    ParseDiagnostic,
    ParseResult,
    Severity,
    SpecDocument,
    SpecInvalid,
    UniverseDecl,
    load_document,
    parse,
    parse_file,
    serialize,
)
from .harness import (
    CSV_HEADER,
    AgentSummary,
    ExperimentConfig,
    ExperimentResult,
    GroupComparison,
    HarnessError,
    MissingAgentKind,
    RunRecord,
    derive_seed,
    run_experiment,
    run_experiment_from_document,
    run_trajectory,
    write_csv,
)
from .metrics import (
    MetricsError,
    MismatchedContext,
    ObjectiveSets,
    PersistenceCase,
    StabilityDelta,
    StabilityReport,
    TriValue,
    TruthTableRow,
    compare_learning,
    departure_set,
    derive_objectives,
    evaluate_persistence_claim,
    persistence_truth_table,
    stability_report,
)
from .representation import (
    AmbiguousRepresentation,
    Formula,
    RepresentationError,
    RepresentationMap,
    UnknownActToken,
    UnrepresentedFormula,
    interpret_act,
)
from .stats import rank_sum_test
from .universe import (
    ActId,
    EnergyRules,
    StateClass,
    StateId,
    TerminalReason,
    Trajectory,
    TrajectoryStep,
    Universe,
    UniverseError,
    UnknownAct,
    UnknownState,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped .exo fixture (e.g. "reference.exo")."""
    return Path(resources.files(__name__) / "fixtures" / name)
