"""exosim benchmark: the CLI end to end, and each module from outside.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --tiny

Every measured command is `exosim ...` in a fresh child interpreter with
PYTHONPATH set to this checkout's src/. This script starts one command at
a time and waits for it (a closed loop with one client, no threads).

--trace 0 prints the end-to-end metrics: the wall time of the workload's
command, the set-up time of a fresh interpreter (import, load the
document, build every universe and agent), both in calibrated seconds
(see end_to_end), and the peak RSS of the command; each a median.
--trace 1 alternates untraced and traced runs of the same command and
prints the per-layer metrics: span totals from the traced runs, the
tracing overhead, a tracemalloc pass and a Universe.advance probe.

The document must pass `exosim validate` with no diagnostic. Every
output is checked: exit code 0, the workload's own invariants, and
the sha256 of the CSV or metrics JSON against bench/pins.json where the
seed is pinned, or against the first repeat where it is not. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
--tiny runs every workload at toy size, checks that every metric named
in BENCHMARK.json is emitted, and reproduces the reference CSV anchor.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = BENCH / "probe.py"
PINS = BENCH / "pins.json"
REFERENCE = SRC / "exosim" / "fixtures" / "reference.exo"

MIN_SAMPLES = 3
# The calibration probe's wall time on the machine this benchmark was
# written on (2-core Xeon, Python 3.11) when nothing else ran on it.
CALIBRATION_S = 0.3
CHILD_TIMEOUT_S = 120
KINDS = ("random", "positional", "afs1", "afs2a", "afs2b", "afs3a")
CSV_HEADER = "run_id,agent,kind,seed,persistence_steps,terminal_reason"

# Seeds whose outputs bench/pins.json holds; tiny mode runs only TINY_SEED.
PINNED_SEEDS = range(32)
TINY_SEED = 1

# `experiment reference.exo --runs 100 --max-steps 500 --seed 1` at the seed commit.
ANCHOR_SHA256 = "65e72fbd46491fafaf4dda8ea189fbd70517ba070ddf791db190003dde458448"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "dsl.parse_s": "s",
    "dsl.build_s": "s",
    "dsl.doc_bytes": "B",
    "universe.advance_ns": "ns",
    "architectures.update_learning_calls": "count",
    "architectures.update_learning_s": "s",
    "digits.constant_digits_calls": "count",
    "digits.constant_digits_s": "s",
    "digits.digits_computed": "count",
    "digits.positions_used": "count",
    "digits.recompute_ratio": "ratio",
    "harness.runs": "count",
    "harness.steps": "count",
    "harness.run_trajectory_s": "s",
    **{f"harness.us_per_step.{kind}": "us" for kind in KINDS},
    "harness.experiment_self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "B",
    "harness.trajectory_bytes_per_step": "B",
    "metrics.derive_objectives_s": "s",
    "metrics.stability_report_s": "s",
    "stats.rank_sum_s": "s",
    "stats.rank_sum_samples": "count",
    "steps_per_s": "1/s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (no program, bad arguments)."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def run_child(args: list[str], tag: str) -> Child:
    """Run `python3 ARGS` to completion; time it from spawn to reaped exit."""
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


# ---------------------------------------------------------------------------
# Workloads: the document, the CLI arguments, and the output invariants.


@dataclass
class Job:
    name: str
    document: Path
    cli_args: list[str]
    output: Path | None  # CSV path; None when the output is stdout
    max_steps: int | None  # None for the analysis workload, which takes no steps
    check: Callable[[bytes], list[str]]


def _csv_rows(data: bytes) -> list[dict]:
    text = data.decode("utf-8")
    if not text.startswith(CSV_HEADER + "\n"):
        raise ValueError("CSV header differs")
    return list(csv.DictReader(io.StringIO(text)))


def _check_reference(data: bytes, runs: int, max_steps: int) -> list[str]:
    rows = _csv_rows(data)
    errors = []
    if len(rows) != 3 * runs:
        errors.append(f"expected {3 * runs} rows, got {len(rows)}")
    for row in rows:
        steps = int(row["persistence_steps"])
        if steps > max_steps or steps < 1:
            errors.append(f"run {row['run_id']}: persistence {steps} out of range")
        if row["agent"] == "pathfinder" and (
            steps != max_steps or row["terminal_reason"] != "StepLimit"
        ):
            errors.append(f"run {row['run_id']}: the routed agent stopped at {steps}")
    return errors


def _check_mixed(data: bytes, runs: int, max_steps: int) -> list[str]:
    rows = _csv_rows(data)
    errors = []
    if len(rows) != 6 * runs:
        errors.append(f"expected {6 * runs} rows, got {len(rows)}")
    for row in rows:
        if row["terminal_reason"] != "StepLimit" or int(row["persistence_steps"]) != max_steps:
            errors.append(
                f"run {row['run_id']} ({row['kind']}) ended {row['terminal_reason']} "
                f"after {row['persistence_steps']} steps, not StepLimit at {max_steps}"
            )
    return errors


def _check_analysis(data: bytes, shape: wl.AnalysisShape) -> list[str]:
    report = json.loads(data)
    expected = {
        "agent": wl.ANALYSIS_AGENT,
        "objectives": sorted(shape.goals),
        "positive_objectives": sorted(shape.positive),
        "negative_objectives": sorted(shape.negative),
        "departures": dict(sorted(shape.goals.items())),
    }
    return [
        f"metrics {key}: expected {value!r:.80}, got {report.get(key)!r:.80}"
        for key, value in expected.items()
        if report.get(key) != value
    ]


def prepare(name: str, seed: int, size: str) -> Job:
    stem = WORK / f"{name}-{size}-{seed}"
    if name == "reference-long":
        runs, steps = wl.REFERENCE_RUNS[size], wl.REFERENCE_MAX_STEPS[size]
        out = stem.with_suffix(".csv")
        return Job(
            name, REFERENCE,
            ["experiment", str(REFERENCE), "--runs", str(runs), "--max-steps", str(steps),
             "--seed", str(seed), "--out", str(out)],
            out, steps, lambda data: _check_reference(data, runs, steps),
        )
    if name == "mixed-long":
        runs, steps = wl.MIXED_RUNS[size], wl.MIXED_MAX_STEPS[size]
        doc, out = stem.with_suffix(".exo"), stem.with_suffix(".csv")
        doc.write_text(wl.mixed_long_document(seed), encoding="utf-8")
        return Job(
            name, doc,
            ["experiment", str(doc), "--runs", str(runs), "--max-steps", str(steps),
             "--seed", str(seed), "--out", str(out)],
            out, steps, lambda data: _check_mixed(data, runs, steps),
        )
    if name == "analysis-large":
        doc = stem.with_suffix(".exo")
        text, shape = wl.analysis_large_document(seed, size)
        doc.write_text(text, encoding="utf-8")
        return Job(
            name, doc,
            ["metrics", str(doc), "--agent", wl.ANALYSIS_AGENT, "--format", "json"],
            None, None, lambda data: _check_analysis(data, shape),
        )
    raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("reference-long", "mixed-long", "analysis-large")


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Tally:
    """Children attempted and failed, and why, for one benchmark run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # output sha256 per command

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def child(self, child: Child, what: str) -> bool:
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            self.fail(f"{what} exited {child.code}: {' | '.join(tail)}")
            return False
        return True


def run_command(job: Job, tally: Tally, pinned: str | None, traced: bool, tag: str):
    """One CLI run of the workload; returns (child, spans or None)."""
    spans_path = WORK / f"{tag}.spans.json"
    if job.output:
        job.output.unlink(missing_ok=True)  # a command that writes nothing must not pass on an old file
    if traced:
        args = [str(PROBE), "trace", str(spans_path), "--", *job.cli_args]
    else:
        args = ["-m", "exosim.cli", *job.cli_args]
    child = run_child(args, tag)
    what = f"{'traced ' if traced else ''}{job.name} command"
    if not tally.child(child, what):
        return child, None
    if job.output and not job.output.is_file():
        tally.failed += 1
        tally.fail(f"{what} wrote no {job.output.name}")
        return child, None
    output = job.output.read_bytes() if job.output else child.stdout
    digest = sha256(output)
    try:
        errors = job.check(output)
    except (ValueError, KeyError) as exc:
        errors = [f"unreadable output: {exc!r:.200}"]
    expected = pinned or (tally.outputs[0] if tally.outputs else digest)
    if digest != expected:
        errors.append(f"output sha256 {digest} differs from {expected}")
    tally.outputs.append(digest)
    if errors:
        tally.failed += 1
        tally.errors.extend(f"{what}: {e}" for e in errors[:5])
    spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
    return child, spans


def end_to_end(job: Job, tally: Tally, pinned: str | None, seconds: float) -> tuple[dict, dict]:
    """Rounds of set-up probe and command, with the calibration probe
    before the first round and after every round, until the time is up.

    Other tenants of this machine slow every process on it by up to 2x,
    in spells that last from under a second to minutes, so raw wall
    times drift between runs by more than any useful bound. Each timing
    is divided by the mean of the two calibrations around its round, and
    the median ratio is scaled by CALIBRATION_S, which gives seconds at
    the machine's quiet speed. The raw medians go on the info line.
    """

    def calibrate() -> Child | None:
        child = run_child([str(PROBE), "calibrate"], "calibrate")
        return child if tally.child(child, "calibration") else None

    calibrations = [calibrate()]
    rounds: list[tuple[Child, Child]] = []
    start = time.perf_counter()
    while True:
        probe = run_child([str(PROBE), "setup", str(job.document)], "setup")
        tally.child(probe, "setup probe")
        command, _ = run_command(job, tally, pinned, False, "command")
        calibrations.append(calibrate())
        rounds.append((probe, command))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_SAMPLES and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    setup_ratios, wall_ratios, walls, rss = [], [], [], []
    for (probe, command), before, after in zip(rounds, calibrations, calibrations[1:]):
        if before is None or after is None:
            continue
        cal = (before.wall_s + after.wall_s) / 2
        if probe.code == 0:
            setup_ratios.append(probe.wall_s / cal)
        if command.code == 0:
            wall_ratios.append(command.wall_s / cal)
            walls.append(command.wall_s)
            rss.append(command.peak_rss_mb)

    def scaled(ratios: list[float]) -> float:
        return statistics.median(ratios) * CALIBRATION_S if ratios else 0.0

    cal_walls = [c.wall_s for c in calibrations if c is not None]
    return {
        "wall_s": scaled(wall_ratios),
        "setup_s": scaled(setup_ratios),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }, {
        "rounds": len(rounds),
        "raw_median_calibration_s": statistics.median(cal_walls) if cal_walls else None,
        "raw_median_wall_s": statistics.median(walls) if walls else None,
    }


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# Which wrapped names each per-layer metric is read from.
_SOURCES = {
    "dsl.parse_s": ("exosim.dsl.parse",),
    "dsl.doc_bytes": ("exosim.dsl.parse",),
    "dsl.build_s": ("exosim.dsl.UniverseDecl.build", "exosim.dsl.AgentDecl.build"),
    "architectures.update_learning_calls": ("exosim.architectures.update_learning",),
    "architectures.update_learning_s": ("exosim.architectures.update_learning",),
    "digits.constant_digits_calls": ("exosim.digits.constant_digits",),
    "digits.constant_digits_s": ("exosim.digits.constant_digits",),
    "digits.digits_computed": ("exosim.digits.constant_digits",),
    "digits.positions_used": ("exosim.harness.run_trajectory",),
    "digits.recompute_ratio": ("exosim.digits.constant_digits", "exosim.harness.run_trajectory"),
    "harness.runs": ("exosim.harness.run_trajectory",),
    "harness.steps": ("exosim.harness.run_trajectory",),
    "harness.run_trajectory_s": ("exosim.harness.run_trajectory",),
    **{f"harness.us_per_step.{k}": ("exosim.harness.run_trajectory",) for k in KINDS},
    "harness.experiment_self_s": ("exosim.cli.run_experiment",),
    "harness.write_csv_s": ("exosim.harness.write_csv",),
    "harness.csv_bytes": ("exosim.harness.write_csv",),
    "metrics.derive_objectives_s": ("exosim.cli.derive_objectives",),
    "metrics.stability_report_s": ("exosim.cli.stability_report",),
    "stats.rank_sum_s": ("exosim.harness.rank_sum_test",),
    "stats.rank_sum_samples": ("exosim.harness.rank_sum_test",),
}


def layer_metrics(trace: dict, tally: Tally) -> tuple[dict[str, float], set[str], int]:
    """Per-layer totals from one traced run, the metrics whose wrapped
    names were missing from the program or whose arguments no longer
    matched, and the number of afs3a steps taken."""
    spans = trace["spans"]
    missing = set(trace["missing"])
    children: dict[int, list[int]] = {}
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    self_ns = []
    for index, (name, start, end, _, _) in enumerate(spans):
        kids = [spans[k] for k in children.get(index, ())]
        if sum(k[2] - k[1] for k in kids) > end - start or any(
            k[1] < start or k[2] > end for k in kids
        ):
            tally.fail(f"span {name} #{index}: child spans exceed it")
        self_ns.append(end - start - _covered([(k[1], k[2]) for k in kids]))

    def spans_of(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def total_s(name, self_time=False):
        return sum((self_ns[i] if self_time else s[2] - s[1]) for i, s in spans_of(name)) / 1e9

    def attrs(name):
        found = [s[4] for _, s in spans_of(name)]
        if any(a is None for a in found):
            missing.add(name)
            return []
        return found

    runs = attrs("exosim.harness.run_trajectory")
    run_spans = spans_of("exosim.harness.run_trajectory")
    digit_counts = [a["count"] for a in attrs("exosim.digits.constant_digits")]
    positions: dict[str, int] = {}
    for a in runs:
        if a["kind"] == "positional":
            positions[a["agent"]] = max(positions.get(a["agent"], 0), a["steps"])
    used = sum(positions.values())
    per_step = {}
    for kind in KINDS:
        of_kind = [(s, a) for (_, s), a in zip(run_spans, runs) if a["kind"] == kind]
        steps = sum(a["steps"] for _, a in of_kind)
        ns = sum(s[2] - s[1] for s, _ in of_kind)
        per_step[f"harness.us_per_step.{kind}"] = ns / steps / 1e3 if steps else 0.0
    learning = spans_of("exosim.architectures.update_learning")
    out = {
        "dsl.parse_s": total_s("exosim.dsl.parse"),
        "dsl.build_s": total_s("exosim.dsl.UniverseDecl.build") + total_s("exosim.dsl.AgentDecl.build"),
        "dsl.doc_bytes": sum(a["bytes"] for a in attrs("exosim.dsl.parse")),
        "architectures.update_learning_calls": len(learning),
        "architectures.update_learning_s": total_s("exosim.architectures.update_learning"),
        "digits.constant_digits_calls": len(spans_of("exosim.digits.constant_digits")),
        "digits.constant_digits_s": total_s("exosim.digits.constant_digits"),
        "digits.digits_computed": sum(digit_counts),
        "digits.positions_used": used,
        "digits.recompute_ratio": sum(digit_counts) / used if used else 0.0,
        "harness.runs": len(run_spans),
        "harness.steps": sum(a["steps"] for a in runs),
        "harness.run_trajectory_s": total_s("exosim.harness.run_trajectory"),
        **per_step,
        "harness.experiment_self_s": total_s("exosim.cli.run_experiment", self_time=True),
        "harness.write_csv_s": total_s("exosim.harness.write_csv"),
        "harness.csv_bytes": sum(a["bytes"] for a in attrs("exosim.harness.write_csv")),
        "metrics.derive_objectives_s": total_s("exosim.cli.derive_objectives"),
        "metrics.stability_report_s": total_s("exosim.cli.stability_report"),
        "stats.rank_sum_s": total_s("exosim.harness.rank_sum_test"),
        "stats.rank_sum_samples": sum(a["samples"] for a in attrs("exosim.harness.rank_sum_test")),
    }
    afs3a_steps = sum(a["steps"] for a in runs if a["kind"] == "afs3a")
    return out, {m for m, names in _SOURCES.items() if missing.intersection(names)}, afs3a_steps


def per_layer(job: Job, tally: Tally, pinned: str | None, seconds: float, seed: int) -> tuple[dict, set[str]]:
    """The memory and advance passes, then untraced and traced commands
    in alternation until the time is up."""
    out: dict[str, float] = {}
    missing: set[str] = set()
    start = time.perf_counter()
    if job.max_steps is not None:
        child = run_child([str(PROBE), "memory", str(job.document), str(job.max_steps), str(seed)], "memory")
        if tally.child(child, "memory probe"):
            peaks = json.loads(child.stdout)
            steps = sum(s for _, s in peaks.values())
            if steps:
                out["harness.trajectory_bytes_per_step"] = sum(p for p, _ in peaks.values()) / steps
    child = run_child([str(PROBE), "advance", str(job.document), str(seed)], "advance")
    if tally.child(child, "advance probe"):
        out["universe.advance_ns"] = json.loads(child.stdout)

    plain: list[Child] = []
    traced: list[tuple[Child, dict]] = []
    while True:
        child, _ = run_command(job, tally, pinned, False, "command")
        plain.append(child)
        child, spans = run_command(job, tally, pinned, True, "traced")
        if spans is not None:
            traced.append((child, spans))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    samples: dict[str, list[float]] = {}
    for _, spans in traced:
        values, absent, afs3a_steps = layer_metrics(spans, tally)
        missing |= absent
        if job.name == "mixed-long" and values["architectures.update_learning_calls"] < afs3a_steps / 10:
            tally.fail(
                f"afs3a learner scored {values['architectures.update_learning_calls']} "
                f"episodes in {afs3a_steps} steps (fewer than steps/10)"
            )
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    out.update((key, statistics.median(values)) for key, values in samples.items())

    plain_ok = [c.wall_s for c in plain if c.code == 0]
    traced_ok = [c.wall_s for c, _ in traced]
    if plain_ok and traced_ok:
        out["trace.overhead_s"] = min(traced_ok) - min(plain_ok)
    steps = out.get("harness.steps", 0)
    if plain_ok and steps:
        out["steps_per_s"] = steps / min(plain_ok)
    for key in PER_LAYER_UNITS:
        if key not in out:
            missing.add(key)
            out[key] = 0.0
    return out, missing


def validate(job: Job, tally: Tally) -> None:
    """`exosim validate` must accept the document with zero diagnostics:
    its only output line is the `ok` summary."""
    child = run_child(["-m", "exosim.cli", "validate", str(job.document)], "validate")
    if not tally.child(child, "validate"):
        return
    lines = child.stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != 1 or not lines[0].startswith(f"{job.document}: ok "):
        tally.failed += 1
        tally.fail(f"validate {job.document.name}: {' | '.join(lines[:5])}")


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def check_program() -> None:
    if not (SRC / "exosim" / "cli.py").is_file():
        raise BenchError(f"no exosim sources under {SRC}; run from a checkout of the repository")
    child = run_child([str(PROBE), "where"], "where")
    where = child.stdout.decode("utf-8", "replace").strip()
    if child.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"exosim imports from {where or 'nowhere'}, not from {SRC}")


def bench(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object of the last stdout line."""
    job = prepare(name, seed, size)
    pin = load_pins().get(size, {}).get(name, {}).get(str(seed), {})
    tally = Tally()
    doc_digest = sha256(job.document.read_bytes())
    if pin.get("document", doc_digest) != doc_digest:
        tally.fail(f"document sha256 {doc_digest} differs from pinned {pin['document']}")
    validate(job, tally)
    raw: dict = {}
    if trace:
        values, missing = per_layer(job, tally, pin.get("output"), seconds, seed)
        units = PER_LAYER_UNITS
    else:
        values, raw = end_to_end(job, tally, pin.get("output"), seconds)
        missing = set()
        units = END_TO_END_UNITS
    info = {
        "workload": name,
        "seed": seed,
        "size": size,
        "document_sha256": doc_digest,
        "output_sha256": sorted(set(tally.outputs)),
        "pinned": bool(pin),
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
        **raw,
        "missing": sorted(missing),
        "errors": tally.errors,
    }
    print(json.dumps(info))
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": not tally.errors and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def tiny() -> bool:
    """Every workload at toy size, both modes; every declared metric emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = bench(name, TINY_SEED, 1, trace, "tiny")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if emitted != wanted or not result["correct"]:
                ok = False
                print(f"tiny {name} trace={int(trace)}: correct={result['correct']} "
                      f"emitted {sorted(emitted.items() ^ wanted.items())} differently")
    out = WORK / "anchor.csv"
    out.unlink(missing_ok=True)
    child = run_child(["-m", "exosim.cli", "experiment", str(REFERENCE), "--runs", "100",
                       "--max-steps", "500", "--seed", "1", "--out", str(out)], "anchor")
    if child.code != 0 or not out.is_file() or sha256(out.read_bytes()) != ANCHOR_SHA256:
        ok = False
        print("tiny: the reference anchor CSV differs from the seed commit")
    print(f"tiny mode: {'ok' if ok else 'FAILED'}")
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="toy-size smoke run of every workload")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_program()
        if args.tiny:
            return 0 if tiny() else 1
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
