"""Child-process side of the benchmark: each subcommand runs in a fresh
interpreter that imports exosim from the checkout's src/ directory.

  calibrate                  a fixed piece of pure-Python work, no exosim
  setup DOC                  import exosim, load DOC, build every universe and agent
  where                      print the path exosim was imported from
  trace SPANS -- ARGS...     run `exosim ARGS...` with spans recorded around
                             the calls into each module, written to SPANS
  memory DOC MAX_STEPS SEED  tracemalloc peak of one run_trajectory per agent kind
  advance DOC SEED           ns per Universe.advance over a seeded (state, act) list

Spans are recorded from outside the program: each public function is
replaced, under the name its caller looks it up by, with a wrapper that
notes its start, end and parent span. Nothing under src/ is changed.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction


def _setup(path: str) -> None:
    from exosim import load_document

    doc = load_document(path)
    for decl in doc.universes:
        decl.build()
    for decl in doc.agents:
        decl.build(doc.build_universe(decl.universe_name))


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        describe(arguments, result) -> dict adds attributes to the span.
        A name the program no longer has is noted as missing.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        signature = inspect.signature(fn) if describe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if describe is not None:
                try:
                    span[4] = describe(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, AttributeError, KeyError):
                    span[4] = None  # signature changed: the attribute reads as missing
            return result

        setattr(owner, attr, wrapper)


def _trace(spans_path: str, argv: list[str]) -> int:
    import exosim.architectures
    import exosim.cli
    import exosim.digits
    import exosim.dsl
    import exosim.harness

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(exosim.dsl, "parse", "exosim.dsl.parse",
         lambda a, r: {"bytes": len(a["text"].encode("utf-8"))})
    wrap(exosim.dsl.UniverseDecl, "build", "exosim.dsl.UniverseDecl.build")
    wrap(exosim.dsl.AgentDecl, "build", "exosim.dsl.AgentDecl.build")
    wrap(exosim.cli, "run_experiment", "exosim.cli.run_experiment")
    wrap(exosim.harness, "run_trajectory", "exosim.harness.run_trajectory",
         lambda a, r: {"kind": a["agent"].kind.value, "agent": a["agent"].name,
                       "steps": r.persistence})
    wrap(exosim.harness, "rank_sum_test", "exosim.harness.rank_sum_test",
         lambda a, r: {"samples": len(a["x"]) + len(a["y"])})
    wrap(exosim.harness, "write_csv", "exosim.harness.write_csv",
         lambda a, r: {"bytes": os.path.getsize(a["path"])})
    wrap(exosim.architectures, "update_learning", "exosim.architectures.update_learning")
    wrap(exosim.digits, "constant_digits", "exosim.digits.constant_digits",
         lambda a, r: {"count": a["count"]})
    wrap(exosim.cli, "derive_objectives", "exosim.cli.derive_objectives")
    wrap(exosim.cli, "stability_report", "exosim.cli.stability_report")
    code = exosim.cli.run(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    return code


def _memory(path: str, max_steps: int, seed: int) -> dict:
    from exosim import load_document, run_trajectory

    doc = load_document(path)
    out: dict[str, list[int]] = {}
    for decl in doc.agents:
        if decl.kind.value in out:
            continue
        universe = doc.build_universe(decl.universe_name)
        agent = decl.build(universe)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        trajectory = run_trajectory(universe, agent, max_steps, seed)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        out[decl.kind.value] = [peak, trajectory.persistence]
    return out


ADVANCE_CALLS = 100_000
ADVANCE_REPEATS = 5


def _advance(path: str, seed: int) -> float:
    from exosim import load_document

    doc = load_document(path)
    universe = doc.universes[0].build()
    rng = random.Random(f"advance:{seed}")
    states, acts = sorted(universe.states), sorted(universe.acts)
    pairs = [(rng.choice(states), rng.choice(acts)) for _ in range(ADVANCE_CALLS)]
    energy = universe.energy.initial_energy
    advance = universe.advance
    per_call = []
    for _ in range(ADVANCE_REPEATS):
        start = time.perf_counter_ns()
        for state, act in pairs:
            advance(state, act, energy)
        per_call.append((time.perf_counter_ns() - start) / ADVANCE_CALLS)
    return statistics.median(per_call)


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: int, count: int) -> None:
        self.key = key
        self.count = count


def _calibrate() -> None:
    """A fixed piece of interpreter work that imports nothing from exosim:
    dict and attribute traffic, small objects, strings, a sort, and
    exact fractions over a growing list, like the stepper's mix."""
    cells: dict[int, _Cell] = {}
    rows = []
    for i in range(500_000):
        key = i % 997
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key, 0)
        cell.count += 1
        if i % 7 == 0:
            rows.append((str(key), i, cell.count))
    rows.sort()
    history: list[int] = []
    for i in range(1500):
        history.append(i % 3)
        tallies = [0, 0, 0]
        for h in history:
            tallies[h] += 1
        max(range(3), key=lambda j: (Fraction(tallies[j], 1 + i), -j))


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "calibrate":
        _calibrate()
    elif command == "setup":
        _setup(rest[0])
    elif command == "where":
        import exosim

        print(exosim.__file__)
    elif command == "trace":
        if rest[1] != "--":
            raise SystemExit("usage: probe.py trace SPANS -- ARGS...")
        return _trace(rest[0], rest[2:])
    elif command == "memory":
        print(json.dumps(_memory(rest[0], int(rest[1]), int(rest[2]))))
    elif command == "advance":
        print(json.dumps(_advance(rest[0], int(rest[1]))))
    else:
        raise SystemExit(f"unknown probe {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
