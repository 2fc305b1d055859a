from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import exosim.cli
from exosim import (
    ArchitectureError,
    DigitError,
    HarnessError,
    RepresentationError,
    SpecInvalid,
    UniverseError,
)
from exosim.cli import CliError, run
from exosim.universe import ExosimError

from test_dsl import INT_DIGIT_LIMIT, MINI, agent_block, needs_int_digit_limit, ring_document


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture()
def broken_spec(tmp_path):
    path = tmp_path / "broken.exo"
    path.write_text(MINI.replace("initial: a;", "initial: zz;"), encoding="utf-8")
    return path


class TestValidate:
    def test_clean_document(self, ejemplo5_path):
        code, text = cli("validate", str(ejemplo5_path))
        assert code == 0
        assert text.strip().endswith("ok (1 universes, 1 agents)")

    def test_invalid_document(self, broken_spec):
        code, text = cli("validate", str(broken_spec))
        assert code == 2
        assert "error: initial state 'zz' is not a declared state" in text
        assert f"{broken_spec}:" in text

    def test_warnings_keep_exit_zero(self, tmp_path):
        path = tmp_path / "warned.exo"
        path.write_text(
            MINI + agent_block("  architecture: positional;\n  seed: 4;"),
            encoding="utf-8",
        )
        code, text = cli("validate", str(path))
        assert code == 0
        assert "warning:" in text
        assert "ok (1 universes, 1 agents)" in text

    def test_non_decimal_digit_is_invalid_spec(self, tmp_path):
        path = tmp_path / "digit.exo"
        path.write_text(MINI.replace("initial: 5;", "initial: ²;"), encoding="utf-8")
        code, text = cli("validate", str(path))
        assert code == 2
        assert "12:14: error: expected an integer, found '²'" in text

    @needs_int_digit_limit
    def test_over_long_integer_is_invalid_spec(self, tmp_path):
        path = tmp_path / "long.exo"
        digits = "7" * (INT_DIGIT_LIMIT + 1)
        path.write_text(MINI.replace("cap: 9;", f"cap: {digits};"), encoding="utf-8")
        code, text = cli("validate", str(path))
        assert code == 2
        assert f"16:10: error: integer of {len(digits)} digits is too long" in text

    def test_a_file_that_is_not_utf8_is_invalid_spec(self, tmp_path):
        path = tmp_path / "bytes.exo"
        path.write_bytes(b"\xff\xfe")
        code, text = cli("validate", str(path))
        assert code == 2
        assert text == f"{path}:1:1: error: byte 0xff is not UTF-8\n"

    def test_missing_file_is_runtime_error(self, tmp_path):
        code, _ = cli("validate", str(tmp_path / "nope.exo"))
        assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["metrics", "--agent", "pathfinder"],
        ["trace", "--agent", "pathfinder", "--steps", "1"],
        ["experiment", "--runs", "1", "--max-steps", "1", "--seed", "1", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_prints_document_warnings(argv, reference_path, tmp_path):
    path = tmp_path / "warned.exo"
    text = reference_path.read_text(encoding="utf-8")
    path.write_text(
        text.replace("architecture: random;", "architecture: random;\n  constant: pi;"),
        encoding="utf-8",
    )
    argv = [a.replace("{out}", str(tmp_path / "out.csv")) for a in argv]
    code, out = cli(argv[0], str(path), *argv[1:])
    assert code == 0
    assert "warning: item 'constant' is ignored for random agents" in out


class TestUsage:
    def test_no_arguments(self):
        code, _ = cli()
        assert code == 1

    def test_unknown_subcommand(self):
        code, _ = cli("frobnicate")
        assert code == 1

    def test_missing_required_option(self, ejemplo5_path):
        code, _ = cli("metrics", str(ejemplo5_path))
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code = run(["--help"], out=io.StringIO())
        assert code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_file_names_the_argument(self, capsys):
        code, _ = cli("validate")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: exosim validate")
        assert err[1] == "exosim: error: the following arguments are required: file"

    def test_extra_argument_is_named(self, capsys):
        code, _ = cli("logic-table", "foo")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: exosim")
        assert err[1] == "exosim: error: unrecognized arguments: foo"


class TestMetrics:
    def test_text_report(self, ejemplo5_path):
        code, text = cli("metrics", str(ejemplo5_path), "--agent", "ejemplo")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "agent ejemplo in universe ejemplo5"
        assert lines[1] == "objectives: psi1 psi2"
        assert "departures[psi1] 3" in lines
        assert "departures[psi2] 1" in lines
        assert "negative_escapes[e2] 1" in lines
        assert "negative_escapes[e3] 0" in lines
        assert "positive_escapes[e2] 0" in lines
        assert "basic_stability 4/5" in lines
        assert "instability 0/1" in lines
        assert "total_stability 4/5" in lines

    def test_json_report(self, ejemplo5_path):
        code, text = cli(
            "metrics", str(ejemplo5_path), "--agent", "ejemplo", "--format", "json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["agent"] == "ejemplo"
        assert payload["universe"] == "ejemplo5"
        assert payload["objectives"] == ["psi1", "psi2"]
        assert payload["positive_objectives"] == ["psi1"]
        assert payload["departures"] == {"psi1": 3, "psi2": 1}
        assert payload["negative_escapes"] == {"e2": 1, "e3": 0}
        assert payload["basic_stability"] == "4/5"
        assert payload["instability"] == "0/1"
        assert payload["total_stability"] == "4/5"

    def test_unknown_agent(self, ejemplo5_path):
        code, _ = cli("metrics", str(ejemplo5_path), "--agent", "ghost")
        assert code == 3

    def test_elementary_agent_rejected(self, reference_path):
        code, _ = cli("metrics", str(reference_path), "--agent", "wanderer")
        assert code == 3

    def test_route_table_needed(self, tmp_path, capsys):
        # afs2a with no predict rows holds one empty table and reports
        # zeros; afs1 holds no table at all.
        sight = '  represents a -> "fa";\n  represents b -> "fb";'
        path = tmp_path / "tables.exo"
        path.write_text(
            MINI
            + agent_block(f'  architecture: afs2a;\n  goal: "fb";\n{sight}')
            + agent_block(f'  architecture: afs1;\n{sight}\n  react "fa" : hop;', "reflex"),
            encoding="utf-8",
        )
        code, text = cli("metrics", str(path), "--agent", "crew")
        assert code == 0
        assert text.splitlines() == [
            "agent crew in universe mini",
            "objectives: -",
            "negative_escapes[a] 0",
            "positive_escapes[a] 0",
            "basic_stability 0/1",
            "instability 0/1",
            "total_stability 0/1",
        ]
        capsys.readouterr()
        code, text = cli("metrics", str(path), "--agent", "reflex")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == (
            "error: agent 'reflex' is afs1; metrics need a route table\n"
        )

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("text", "beb9dd5eeb2f224ba87c47679fa4d248ef0b087bb085570a6f8dec50d092d150"),
            ("json", "5b45427f05c4cf19a0a44ca5b234b738d66c9d724a1b656b4ab3e34f3c4ea533"),
        ],
    )
    def test_learner_reports_pool_table_zero(self, fmt, digest, tmp_path):
        # A learner's run starts on pool table 0: departures[H] is 6
        # there, and table 1 would give another count.
        path = tmp_path / "six.exo"
        path.write_text(SIX_KINDS, encoding="utf-8")
        code, text = cli("metrics", str(path), "--agent", "learner", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_invalid_spec(self, broken_spec):
        code, _ = cli("metrics", str(broken_spec), "--agent", "ejemplo")
        assert code == 2


# One agent of every kind on a seven-state ring. reflex (afs1) has no
# reaction for A3 and idles there; echo (afs2b) is blind at a2 and its
# recall empties there; learner (afs3a) scores episodes that succeed on
# the way up and fail on the lap that leaves home by `back`.
SIX_KINDS = """
universe "ring" {
  states: a0 a1 a2 a3 a4 home pit;
  acts: back fwd rest;
  initial: a0;
  neutral_act: rest;
  classify positive: home;
  classify neutral: a0 a1 a2 a3 a4;
  classify negative: pit;
  transition a0 fwd a1;
  transition a1 fwd a2;
  transition a2 fwd a3;
  transition a3 fwd a4;
  transition a4 fwd home;
  transition home fwd a0;
  transition pit fwd a3;
  transition a0 back a0;
  transition a1 back a0;
  transition a2 back pit;
  transition a3 back a2;
  transition a4 back a3;
  transition home back a0;
  transition pit back pit;
  transition a0 rest a0;
  transition a1 rest a1;
  transition a2 rest a3;
  transition a3 rest a3;
  transition a4 rest a4;
  transition home rest home;
  transition pit rest pit;
  energy {
    initial: 20;
    per_step: 1;
    negative_penalty: 2;
    positive_reward: 6;
    cap: 30;
  }
}

agent "drifter" in "ring" {
  architecture: random;
  seed: 11;
}

agent "replayer" in "ring" {
  architecture: positional;
  constant: e;
}

agent "reflex" in "ring" {
  architecture: afs1;
  represents a0 -> "A0";
  represents a1 -> "A1";
  represents a2 -> "A2";
  represents a3 -> "A3";
  represents home -> "H";
  represents pit -> "P";
  react "A0" : fwd;
  react "A1" : fwd;
  react "A2" : back;
  react "P" : fwd;
  react "H" : fwd;
}

agent "homing" in "ring" {
  architecture: afs2a;
  depth: 6;
  goal: "H";
  represents a0 -> "A0";
  represents a1 -> "A1";
  represents a2 -> "A2";
  represents a3 -> "A3";
  represents a4 -> "A4";
  represents home -> "H";
  predict "A0" -> "H" : fwd fwd fwd fwd fwd;
  predict "A1" -> "H" : fwd fwd fwd fwd;
  predict "A2" -> "H" : fwd fwd fwd;
  predict "A3" -> "H" : fwd fwd;
  predict "A4" -> "H" : fwd;
  predict "H" -> "H" : fwd fwd fwd fwd fwd fwd;
}

agent "echo" in "ring" {
  architecture: afs2b;
  depth: 2;
  goal: "H";
  represents a0 -> "A0";
  represents a1 -> "A1";
  represents a3 -> "A3";
  represents a4 -> "A4";
  represents home -> "H";
  predict "A0" -> "H" : fwd fwd;
  predict "A1" -> "A0" : fwd;
  predict "A3" -> "A3" : fwd;
  predict "A4" -> "A3" : fwd;
  predict "H" -> "A4" : fwd;
}

agent "learner" in "ring" {
  architecture: afs3a;
  depth: 5;
  goal: "H";
  represents a0 -> "A0";
  represents a1 -> "A1";
  represents a2 -> "A2";
  represents a3 -> "A3";
  represents a4 -> "A4";
  represents home -> "H";
  pool 0 predict "A0" -> "H" : fwd fwd fwd fwd fwd;
  pool 0 predict "A1" -> "H" : fwd fwd fwd fwd;
  pool 0 predict "A2" -> "H" : fwd fwd fwd;
  pool 0 predict "A3" -> "H" : fwd fwd;
  pool 0 predict "A4" -> "H" : fwd;
  pool 0 predict "H" -> "H" : back;
  pool 1 predict "A0" -> "H" : fwd;
  pool 1 predict "H" -> "H" : rest;
}
"""

# sha256 of the full `trace --steps 300 --seed 5` stdout of each agent.
SIX_KIND_TRACES = {
    "drifter": "997623c7fdc3b0d8fa539c550ba026a61df9a1eeb8c8b0dca3782257918e0a65",
    "replayer": "8c2e3d1b3902f68c57c6fe568e5c628aa99b8c7afbb7ade9495ac8127fb872dc",
    "reflex": "328b1fe57bc89e64775d9756db1ccc411afd5d332384213dd69409bf98350414",
    "homing": "00b78369473da78bc0d7f959acae36a3777373715e0936fb66daa0b56d03cbbb",
    "echo": "1493791a144ca0f51963c4602f7b5a37ad7dfa95a29814ec34a02a2718e92a4c",
    "learner": "9cda48e201a835e5b8cb27648579bf2ca069cb70885560046e7bbf929f6069a5",
}


class TestTrace:
    def test_pathfinder_trace(self, reference_path):
        code, text = cli(
            "trace", str(reference_path), "--agent", "pathfinder", "--steps", "3"
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == (
            "t=0 state=c0 formula=at_c0 sequence=[move move move move move] "
            "act=move energy=11"
        )
        assert lines[-1] == "persistence 3 (StepLimit)"

    def test_metronome_dies_at_three(self, reference_path):
        code, text = cli(
            "trace", str(reference_path), "--agent", "metronome", "--steps", "10"
        )
        assert code == 0
        lines = text.splitlines()
        # Elementary agents show no perception or generation.
        assert lines[0].startswith("t=0 state=c0 formula=- sequence=[-]")
        assert lines[-1] == "persistence 3 (ExoinactiveEnergy)"

    def test_negative_steps_rejected(self, reference_path):
        code, _ = cli(
            "trace", str(reference_path), "--agent", "pathfinder", "--steps", "-1"
        )
        assert code == 3

    def test_unknown_agent_rejected(self, reference_path, capsys):
        code, _ = cli("trace", str(reference_path), "--agent", "nobody", "--steps", "5")
        assert code == 3
        assert "error: no agent named 'nobody'" in capsys.readouterr().err

    def test_seeded_trace_reproducible(self, reference_path):
        args = ("trace", str(reference_path), "--agent", "wanderer",
                "--steps", "10", "--seed", "5")
        assert cli(*args) == cli(*args)

    def test_draw_rounding_to_one_stays_in_range(self, reference_path):
        # This seed's first draw rounds to 1.0 unless unit_draw clamps it.
        code, text = cli(
            "trace", str(reference_path), "--agent", "wanderer",
            "--steps", "2", "--seed", "3558559446808474027",
        )
        assert code == 0
        assert text.splitlines()[-1] == "persistence 2 (StepLimit)"

    @pytest.mark.parametrize("agent", sorted(SIX_KIND_TRACES))
    def test_every_kind_trace_pinned(self, agent, tmp_path):
        path = tmp_path / "six.exo"
        path.write_text(SIX_KINDS, encoding="utf-8")
        code, text = cli(
            "trace", str(path), "--agent", agent, "--steps", "300", "--seed", "5"
        )
        assert code == 0
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == SIX_KIND_TRACES[agent]


class TestExperiment:
    def test_writes_csv_and_summary(self, reference_path, tmp_path):
        out_csv = tmp_path / "runs.csv"
        code, text = cli(
            "experiment", str(reference_path),
            "--runs", "4", "--max-steps", "25", "--seed", "1",
            "--out", str(out_csv),
        )
        assert code == 0
        assert f"wrote 12 rows to {out_csv}" in text
        assert "agent pathfinder (afs2a): mean 25.00" in text
        assert "sensitive vs random:" in text
        assert "sensitive vs positional:" in text
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "run_id,agent,kind,seed,persistence_steps,terminal_reason"

    @pytest.mark.parametrize(
        "runs,max_steps,digest,size,summary",
        [
            (
                100,
                500,
                "65e72fbd46491fafaf4dda8ea189fbd70517ba070ddf791db190003dde458448",
                18073,
                [
                    "agent wanderer (random): mean 3.31 median 3.0 min 3 max 5",
                    "agent metronome (positional): mean 3.00 median 3.0 min 3 max 3",
                    "agent pathfinder (afs2a): mean 500.00 median 500.0 min 500 max 500",
                    "sensitive vs random: U=10000.0 p=3.57e-41 (means 500.00 vs 3.31)",
                    "sensitive vs positional: U=10000.0 p=3.45e-45 (means 500.00 vs 3.00)",
                ],
            ),
            (
                1000,
                5000,
                "067b51ceaf2c6b91a6bcfdd45232e97025375adac482902619dee6e9a45c1f3c",
                184215,
                [
                    "agent wanderer (random): mean 3.26 median 3.0 min 3 max 6",
                    "agent metronome (positional): mean 3.00 median 3.0 min 3 max 3",
                    "agent pathfinder (afs2a): mean 5000.00 median 5000.0 min 5000 max 5000",
                    "sensitive vs random: U=1000000.0 p=0 (means 5000.00 vs 3.26)",
                    "sensitive vs positional: U=1000000.0 p=0 (means 5000.00 vs 3.00)",
                ],
            ),
        ],
        ids=["100x500", "1000x5000"],
    )
    def test_reference_anchor_bytes(
        self, reference_path, tmp_path, runs, max_steps, digest, size, summary
    ):
        # The ROADMAP's seed-1 anchors; the 100x500 summary is the one the
        # README shows.
        out_csv = tmp_path / "runs.csv"
        code, text = cli(
            "experiment", str(reference_path),
            "--runs", str(runs), "--max-steps", str(max_steps), "--seed", "1",
            "--out", str(out_csv),
        )
        assert code == 0
        data = out_csv.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert len(data) == size
        assert text.splitlines() == [f"wrote {3 * runs} rows to {out_csv}", *summary]

    def test_a_billion_steps_cost_what_the_cycle_costs(self, reference_path, tmp_path):
        # pathfinder is back at (c0, 12) after its 6-step lap, so its run
        # stops stepping there; the other two die within 3 steps.
        out_csv = tmp_path / "long.csv"
        code, _ = cli(
            "experiment", str(reference_path),
            "--runs", "1", "--max-steps", "1000000000", "--seed", "1",
            "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text(encoding="utf-8").splitlines()[3] == (
            "2,pathfinder,afs2a,13608149317741381227,1000000000,StepLimit"
        )

    def test_invalid_spec_prints_diagnostics(self, broken_spec, tmp_path):
        code, text = cli(
            "experiment", str(broken_spec),
            "--runs", "2", "--max-steps", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error: initial state 'zz' is not a declared state" in text

    def test_zero_runs_rejected(self, reference_path, tmp_path):
        code, _ = cli(
            "experiment", str(reference_path),
            "--runs", "0", "--max-steps", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_negative_max_steps_rejected(self, reference_path, tmp_path, capsys):
        code, _ = cli(
            "experiment", str(reference_path),
            "--runs", "2", "--max-steps", "-1", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "error: --max-steps must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_spec_without_groups_rejected(self, tmp_path):
        path = tmp_path / "solo.exo"
        path.write_text(MINI + agent_block("  architecture: random;"), encoding="utf-8")
        code, _ = cli(
            "experiment", str(path),
            "--runs", "2", "--max-steps", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3


class TestLogicTable:
    def test_blocks_and_rows(self):
        code, text = cli("logic-table")
        assert code == 0
        assert "table I: immobile systems" in text
        assert "table II: movers in an act-insensitive universe" in text
        assert "table III: movers in an act-sensitive universe" in text
        lines = [l for l in text.splitlines() if l]
        headers = [l for l in lines if l.startswith("case")]
        assert headers == ["case  s  r  n  s^r  s^n  value"] * 3
        assert "I.a   V  F  F  F    F    V" in lines
        assert "III.c   V  V  V  V    V    ?" in lines
        # Open verdicts appear exactly in the third table.
        open_rows = [l for l in lines if l.endswith("?")]
        assert [l.split(".")[0] for l in open_rows] == ["III", "III", "III"]


class TestModuleNames:
    """Each name a command takes from harness or metrics is read from
    exosim.cli at every call, so a wrapper set there (the benchmark's
    tracer sets one) sees every call."""

    def test_wrappers_see_every_call(self, monkeypatch, reference_path, tmp_path):
        calls = []
        for name in (
            "derive_objectives",
            "stability_report",
            "run_trajectory",
            "run_experiment",
            "write_csv",
            "persistence_truth_table",
        ):
            def wrapper(*args, _fn=getattr(exosim.cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(exosim.cli, name, wrapper)
        path = str(reference_path)
        assert cli("metrics", path, "--agent", "pathfinder")[0] == 0
        assert cli("trace", path, "--agent", "pathfinder", "--steps", "3")[0] == 0
        out = str(tmp_path / "out.csv")
        assert cli("experiment", path, "--runs", "2", "--max-steps", "9", "--seed", "1",
                   "--out", out)[0] == 0
        assert cli("logic-table")[0] == 0
        assert calls == [
            "derive_objectives",
            "stability_report",
            "run_trajectory",
            "run_experiment",
            "write_csv",
            "persistence_truth_table",
        ]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'derive_seed'"):
            exosim.cli.derive_seed


class TestCollectorPause:
    """run() pauses the cyclic garbage collector for a command and leaves
    it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(
        self, enabled, keep_collector_state, ejemplo5_path, reference_path, broken_spec
    ):
        # A clean command, a usage error, an invalid document and a
        # runtime error.
        runs = [
            (("validate", str(ejemplo5_path)), 0),
            (("validate",), 1),
            (("validate", str(broken_spec)), 2),
            (("metrics", str(reference_path), "--agent", "nobody"), 3),
        ]
        (gc.enable if enabled else gc.disable)()
        for argv, code in runs:
            assert (cli(*argv)[0], gc.isenabled()) == (code, enabled)

    def test_command_runs_with_collection_off(self, monkeypatch, reference_path):
        seen = []

        def wrapper(*args, _fn=exosim.cli.stability_report, **kwargs):
            seen.append(gc.isenabled())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(exosim.cli, "stability_report", wrapper)
        assert gc.isenabled()
        assert cli("metrics", str(reference_path), "--agent", "pathfinder")[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("command", ["metrics", "validate", "experiment"])
    def test_garbage_does_not_grow_with_the_document(self, command, keep_collector_state, tmp_path):
        # The pause is safe because a command leaves the same cycles for
        # the collector however large its document is.
        gc.disable()

        def garbage(n: int) -> int:
            # A random and a positional agent give an experiment its groups.
            path = tmp_path / f"ring{n}.exo"
            path.write_text(
                ring_document(n)
                + agent_block("  architecture: random;\n  seed: 3;", "drifter", "ring")
                + agent_block("  architecture: positional;\n  constant: e;", "ticker", "ring"),
                encoding="utf-8",
            )
            argv = {
                "metrics": ("--agent", "walker"),
                "validate": (),
                "experiment": ("--runs", "3", "--max-steps", "40", "--seed", "1",
                               "--out", str(tmp_path / "out.csv")),
            }[command]
            gc.collect()
            assert cli(command, str(path), *argv)[0] == 0
            return gc.collect()

        garbage(40)  # the first run imports what the command loads
        small, large = garbage(40), garbage(400)
        sizes = [(tmp_path / f"ring{n}.exo").stat().st_size for n in (40, 400)]
        assert sizes[1] > 9 * sizes[0]
        assert large == small


@pytest.mark.parametrize(
    "error",
    [
        UniverseError,
        RepresentationError,
        ArchitectureError,
        DigitError,
        HarnessError,
        CliError,
    ],
    ids=lambda error: error.__name__,
)
def test_error_family_exits_3(error, monkeypatch, reference_path, capsys):
    assert issubclass(error, ExosimError)

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(exosim.cli, "run_trajectory", fail)
    code, text = cli("trace", str(reference_path), "--agent", "wanderer", "--steps", "1")
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == "error: boom\n"


def test_invalid_document_is_no_exosim_error():
    # Its diagnostics go to stdout with exit code 2, not to the runtime path.
    assert not issubclass(SpecInvalid, ExosimError)


class TestInstalledEntryPoint:
    def test_console_script_runs(self, ejemplo5_path):
        proc = subprocess.run(
            [sys.executable, "-m", "exosim.cli", "validate", str(ejemplo5_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ok (1 universes, 1 agents)" in proc.stdout

    def test_readme_quick_start(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
        proc = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["4/5", "50 StepLimit"]
