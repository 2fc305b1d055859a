"""The package's public names, and the modules each entry point loads.

`exosim` imports a submodule when one of its names is first read, and a
CLI command imports only the modules it runs, and none of them imports
`pathlib`, `dataclasses` or `inspect`. Each load test runs one fresh
interpreter under `-S`, so that no module `site` loads hides one the code
loads, and reads the modules the code added to sys.modules. (`-X importtime` does
not list a module that importlib.import_module loads, which is how both
lazy paths import.)
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exosim

SRC = Path(exosim.__file__).parents[1]

# Every name the package re-exported while it imported all its modules
# at once, less the unit graph, learning delta, departure set and
# metrics error names that nothing but their own tests used, and less
# ExperimentConfig and run_experiment_from_document, whose work
# run_experiment now does with its three settings as arguments, and less
# the two elementary act-stream records, whose seed or digits an
# AgentArchitecture now holds itself.
PUBLIC_NAMES = [
    "ActId", "AgentArchitecture", "AgentDecl", "AgentSummary", "AmbiguousRepresentation",
    "ArchitectureError", "ArchitectureKind", "CSV_HEADER", "ConstantDigits", "DigitError",
    "DigitOutOfRange", "DigitSourceExhausted", "EnergyRules", "ExperimentResult",
    "ExplicitDigits", "Formula", "GroupComparison", "HarnessError",
    "MissingAgentKind", "ObjectiveSets", "OrientedViolation", "ParseDiagnostic", "ParseResult",
    "PersistenceCase", "ProjectionOutOfRange",
    "RepresentationError", "RepresentationMap", "RouteTable", "RunRecord", "Severity",
    "SpecDocument", "SpecInvalid", "StabilityReport", "StateClass", "StateId",
    "TerminalReason", "Trajectory", "TrajectoryStep", "TriValue", "TruthTableRow", "Universe",
    "UniverseDecl", "UniverseError", "UnknownAct", "UnknownState", "UnrepresentedFormula",
    "check_oriented_table", "constant_digits", "derive_objectives", "derive_seed",
    "evaluate_persistence_claim", "load_document", "parse", "parse_digit_string", "parse_file",
    "persistence_truth_table", "rank_sum_test", "run_experiment", "run_trajectory",
    "serialize", "splitmix64", "stability_report", "unit_draw", "update_learning", "write_csv",
]


# Every record of the public API that is a named tuple.
RECORDS = [
    "AgentArchitecture", "AgentDecl", "AgentSummary", "ConstantDigits", "EnergyRules",
    "ExperimentResult", "ExplicitDigits", "GroupComparison", "ObjectiveSets",
    "OrientedViolation", "ParseDiagnostic", "ParseResult", "PersistenceCase",
    "RunRecord", "StabilityReport", "Trajectory", "TrajectoryStep",
    "TruthTableRow", "Universe", "UniverseDecl",
]
# Loaded by building a dataclass, and by nothing exosim runs.
CLASS_BUILDERS = {"dataclasses", "inspect"}


def imported(code: str, *argv: str) -> set[str]:
    """Modules a fresh interpreter without `site` imports to run code
    with argv."""
    script = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "try:\n"
        f"    {code}\n"
        "finally:\n"
        "    print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# `python -m exosim.cli ARGS`, as runpy runs it.
CLI = "runpy.run_module('exosim.cli', run_name='__main__', alter_sys=True)"


class TestPublicNames:
    def test_all_keeps_every_public_name(self):
        assert sorted(exosim.__all__) == sorted([*PUBLIC_NAMES, "fixture_path"])

    def test_dir_and_star_import_give_every_name(self):
        assert set(exosim.__all__) <= set(dir(exosim))
        namespace: dict = {}
        exec("from exosim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(exosim.__all__)

    def test_each_name_is_its_module_attribute(self):
        from exosim import dsl, harness, universe

        assert exosim.load_document is dsl.load_document
        assert exosim.run_experiment is harness.run_experiment
        assert exosim.UnknownAct is universe.UnknownAct

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(exosim, "no_such_name")


class TestRecords:
    def test_records_are_the_public_named_tuples(self):
        named_tuples = {
            name for name in exosim.__all__
            if isinstance(value := getattr(exosim, name), type)
            and issubclass(value, tuple) and hasattr(value, "_fields")
        }
        assert named_tuples == set(RECORDS)

    @pytest.mark.parametrize("name", RECORDS)
    def test_record_field_cannot_be_assigned(self, name):
        cls = getattr(exosim, name)
        record = cls._make(range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], "changed")
        assert record == tuple(range(len(cls._fields)))


def unused_imports(scope: ast.AST, imports: list[ast.stmt]) -> set[str]:
    """The names the imports bind that no name or attribute in scope reads."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return bound - used


def is_import(node: ast.AST) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom))


MODULES = pytest.mark.parametrize(
    "path", sorted((SRC / "exosim").glob("*.py")), ids=lambda path: path.name
)


class TestImports:
    @MODULES
    def test_every_top_level_import_is_used(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert unused_imports(tree, [node for node in tree.body if is_import(node)]) == set()

    @MODULES
    def test_every_import_in_a_function_is_used_there(self, path):
        # A lazy import (cli's json, dsl's digits)
        # must be read in the function that makes it.
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused = {
            (function.name, name)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in unused_imports(
                function, [node for node in ast.walk(function) if is_import(node)]
            )
        }
        assert unused == set()


class TestLoadedModules:
    def test_load_document_loads_no_harness_or_metrics(self):
        loaded = imported("from exosim import load_document")
        assert {m for m in loaded if m.startswith("exosim")} == {
            "exosim",
            *(f"exosim.{m}" for m in ("dsl", "architectures", "representation", "universe")),
        }
        assert "statistics" not in loaded
        assert "pathlib" not in loaded
        assert not loaded & CLASS_BUILDERS

    def test_experiment_loads_no_metrics(self, reference_path, tmp_path):
        loaded = imported(
            CLI, "experiment", str(reference_path), "--runs", "2",
            "--max-steps", "9", "--seed", "1", "--out", str(tmp_path / "out.csv"),
        )
        # Its metronome is positional, so it reads digits; its wanderer is
        # random, and its draws are unpacked with no array module.
        assert {"exosim.harness", "exosim.digits"} <= loaded
        assert not loaded & {"exosim.metrics", "fractions", "json", "array", *CLASS_BUILDERS}

    def test_metrics_loads_no_harness(self, reference_path):
        loaded = imported(CLI, "metrics", str(reference_path), "--agent", "pathfinder")
        assert "exosim.metrics" in loaded
        assert not loaded & {"exosim.harness", "exosim.stats", "exosim.digits", "statistics", "json"}
        loaded = imported(
            CLI, "metrics", str(reference_path), "--agent", "pathfinder",
            "--format", "json",
        )
        assert "json" in loaded
        assert not loaded & CLASS_BUILDERS

    def test_pathlib_is_not_loaded_before_the_code(self):
        # So a command that does not list it leaves it out of sys.modules.
        assert "pathlib" in imported("import pathlib")

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "{doc}"),
            ("metrics", "{doc}", "--agent", "pathfinder"),
            ("metrics", "{doc}", "--agent", "pathfinder", "--format", "json"),
            ("trace", "{doc}", "--agent", "metronome", "--steps", "5"),
            ("experiment", "{doc}", "--runs", "2", "--max-steps", "9", "--seed", "1",
             "--out", "{out}"),
            ("logic-table",),
        ],
        ids=["validate", "metrics", "metrics-json", "trace", "experiment", "logic-table"],
    )
    def test_no_command_loads_pathlib(self, argv, reference_path, tmp_path):
        paths = {"doc": str(reference_path), "out": str(tmp_path / "out.csv")}
        assert "pathlib" not in imported(CLI, *(arg.format(**paths) for arg in argv))

    def test_random_draws_load_nothing(self):
        # Both ways a chunk is drawn run here: in lanes, and through
        # unit_draw for the chunk holding this seed's clamped step 0.
        kernel = "list(a.draw_chunks(3558559446808474027, 5, 3000))"
        assert imported(f"import exosim.architectures as a; {kernel}") == imported(
            "import exosim.architectures as a"
        )

    def test_validate_loads_no_digits(self, reference_path):
        loaded = imported(CLI, "validate", str(reference_path))
        assert "exosim.dsl" in loaded
        assert not loaded & {"exosim.digits", "exosim.harness", "exosim.metrics"}
