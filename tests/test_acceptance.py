"""Acceptance gate: one test per advertised capability.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS line with the measured numbers (visible with -s or
in failure output). Run `pytest -v tests/test_acceptance.py` for the
one-line-per-criterion view.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from dataclasses import replace

from exosim import (
    RouteTable,
    check_oriented_table,
    derive_objectives,
    load_document,
    parse,
    parse_file,
    persistence_truth_table,
    run_experiment,
    run_trajectory,
    serialize,
    stability_report,
    ExperimentConfig,
)
from exosim.cli import run as cli_run

import docgen
import oracles
from case_builder import build_case


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_cli_reports_exact_stability(ejemplo5_path):
    started = time.perf_counter()
    out = io.StringIO()
    code = cli_run(["metrics", str(ejemplo5_path), "--agent", "ejemplo"], out=out)
    elapsed = time.perf_counter() - started
    lines = out.getvalue().splitlines()
    assert code == 0
    assert "basic_stability 4/5" in lines
    assert "total_stability 4/5" in lines
    assert elapsed < 1.0, f"metrics took {elapsed:.2f}s"
    _report(1, f"exit 0, basic_stability 4/5, {elapsed * 1000:.0f}ms")


def test_criterion_2_truth_table_matches_canon():
    canon = [
        ("I", "a", True, False, False, "V"),
        ("I", "b", False, False, False, "V"),
        ("II", "a", False, False, True, "V"),
        ("II", "b", False, True, False, "V"),
        ("II", "c", False, True, True, "V"),
        ("III", "a", True, False, True, "?"),
        ("III", "b", True, True, False, "?"),
        ("III", "c", True, True, True, "?"),
    ]
    rows = persistence_truth_table()
    got = [
        (
            r.group,
            r.label,
            r.case.act_sensitive,
            r.case.rep_movers,
            r.case.free_movers,
            r.value.value,
        )
        for r in rows
    ]
    assert got == canon
    out = io.StringIO()
    assert cli_run(["logic-table"], out=out) == 0
    text = out.getvalue()
    for group, label, *_, value in canon:
        assert f"{group}.{label}" in text
    assert text.count("?") == 3
    _report(2, "8 rows match, including the three open verdicts")


def test_criterion_3_stability_matches_oracle_on_500_universes():
    started = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    for _ in range(500):
        case = oracles.random_universe_case(rng)
        universe, rmap, table = build_case(case)
        want = oracles.stability_oracle(
            case["states"], case["classes"], case["rmap"], case["table"]
        )
        sets = derive_objectives(table, rmap, universe)
        report = stability_report(table, rmap, sets, universe)
        assert sets.objectives == frozenset(want["objectives"])
        assert sets.positive == frozenset(want["positive"])
        assert sets.negative == frozenset(want["negative"])
        assert dict(report.departures) == want["departures"]
        assert dict(report.negative_escapes) == want["negative_escapes"]
        assert dict(report.positive_escapes) == want["positive_escapes"]
        assert report.basic_stability == want["basic"]
        assert report.instability == want["instability"]
        assert report.total_stability == want["total"]
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 500
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _report(3, f"500 random universes, exact rational agreement, {elapsed:.2f}s")


def _acts(agent, universe, steps: int) -> list[str]:
    """The acts of agent's first steps in universe with free steps, so
    no run ends before steps."""
    free = replace(universe, energy=replace(universe.energy, per_step_cost=0, negative_penalty=0))
    return [record.act for record in run_trajectory(free, agent, steps).steps]


def test_criterion_4_generator_semantics(reference_doc):
    # Random: near-uniform frequencies and exact reproducibility.
    wanderer, universe = reference_doc.build_agent("wanderer")
    draws = _acts(wanderer, universe, 1000)
    counts = [draws.count(a) for a in wanderer.stream.act_order]
    stat = oracles.chi_square_statistic(counts)
    bound = oracles.chi_square_bound_4_sigma(len(counts))
    assert stat <= bound, f"chi-square {stat:.2f} above {bound:.2f}"
    assert draws == _acts(wanderer, universe, 1000)

    # Positional: acts replay certified digits through the sorted alphabet.
    metronome, _ = reference_doc.build_agent("metronome")
    order = metronome.stream.act_order
    assert order == tuple(sorted(universe.acts))
    digits = oracles.certified_constant_digits("pi", len(order), 1000)
    acts = _acts(metronome, universe, 1000)
    assert acts == [order[d] for d in digits]

    # Sensitive: the issued act is always the projected element of the
    # generated sequence.
    pathfinder, universe = reference_doc.build_agent("pathfinder")
    traces = run_trajectory(universe, pathfinder, max_steps=1000).steps
    assert len(traces) == 1000
    c = pathfinder.projection_index
    for record in traces:
        assert record.sequence is not None
        assert record.act == record.sequence[c - 1]
    _report(
        4,
        f"random chi2 {stat:.1f} <= {bound:.1f}; 1000 positional acts match "
        f"certified digits; 1000 sensitive steps project correctly",
    )


def test_criterion_5_oriented_check(reference_doc):
    pathfinder, universe = reference_doc.build_agent("pathfinder")
    assert check_oriented_table(
        pathfinder.tables[0], pathfinder.representation, universe
    ) == []

    entries = dict(pathfinder.tables[0].entries)
    entries[("at_c4", "at_oasis")] = ("probe",)
    detoured = RouteTable(entries, pathfinder.tables[0].depth_max)
    violations = check_oriented_table(detoured, pathfinder.representation, universe)
    assert len(violations) == 1
    v = violations[0]
    assert (v.source_formula, v.goal_formula) == ("at_c4", "at_oasis")
    assert v.expected == "oasis"
    assert v.reached != "oasis"
    _report(5, f"clean table passes; injected detour lands in {v.reached!r}")


def test_criterion_6_persistence_experiment(reference_path, tmp_path):
    started = time.perf_counter()
    cfg = ExperimentConfig(
        runs_per_agent=100,
        max_steps=500,
        master_seed=1,
        output_path=tmp_path / "runs.csv",
    )
    result = run_experiment(load_document(reference_path), cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"
    assert len(result.rows) == 300

    def mean_of(agent: str) -> float:
        return statistics.fmean(
            r.persistence_steps for r in result.rows if r.agent == agent
        )

    means = {name: mean_of(name) for name in ("wanderer", "metronome", "pathfinder")}
    # Regression anchors for this exact configuration.
    assert abs(means["wanderer"] - 3.31) < 1e-9
    assert abs(means["metronome"] - 3.0) < 1e-9
    assert abs(means["pathfinder"] - 500.0) < 1e-9
    assert means["pathfinder"] >= 2 * means["wanderer"]
    assert means["pathfinder"] >= 2 * means["metronome"]
    assert len(result.comparisons) == 2
    for comparison in result.comparisons:
        assert comparison.p_value < 0.01
    _report(
        6,
        f"means {means['pathfinder']:.0f} vs {means['wanderer']:.2f}/"
        f"{means['metronome']:.2f}, both p < 0.01, {elapsed:.2f}s",
    )


def test_criterion_7_dsl_round_trip_and_fuzz(ejemplo5_path, reference_path):
    fixture_texts = [
        ejemplo5_path.read_text(encoding="utf-8"),
        reference_path.read_text(encoding="utf-8"),
    ]
    round_tripped = 0
    for text in fixture_texts + [docgen.random_document_text(s) for s in range(200)]:
        result = parse(text)
        assert result.errors == [], result.errors[:3]
        doc = result.document
        again = parse(serialize(doc))
        assert again.errors == []
        assert again.document == doc
        round_tripped += 1

    bases = fixture_texts + [docgen.random_document_text(s) for s in range(18)]
    fuzzed = 0
    for i, base in enumerate(bases):
        for seed in range(50):
            mutated = docgen.mutate_text(base, seed * 101 + i)
            result = parse(mutated)
            assert (result.document is None) == bool(result.errors)
            fuzzed += 1
    assert round_tripped == 202
    assert fuzzed == 1000
    _report(7, f"{round_tripped} round-trips equal, {fuzzed} mutations handled")


def test_criterion_8_deterministic_reruns(reference_path, tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        cfg = ExperimentConfig(
            runs_per_agent=25,
            max_steps=120,
            master_seed=7,
            output_path=tmp_path / name,
        )
        run_experiment(load_document(reference_path), cfg)
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"run_id,agent,kind,seed,persistence_steps,terminal_reason\n")
    _report(8, f"two runs, {len(outputs[0])} identical bytes")


def test_fixture_documents_stay_pristine(ejemplo5_path, reference_path):
    # Guard: the acceptance anchors above assume these exact documents.
    for path in (ejemplo5_path, reference_path):
        assert parse_file(path).diagnostics == []
