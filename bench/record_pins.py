"""Record bench/pins.json: the sha256 of each workload's output for every
seed in run.PINNED_SEEDS at full size and for run.TINY_SEED at tiny size,
and of each generated document.

  python3 bench/record_pins.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run on a pinned seed fails if its output differs from these.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.check_program()
    pins: dict = {}
    for size, seeds in (("full", run.PINNED_SEEDS), ("tiny", (run.TINY_SEED,))):
        for name in run.WORKLOADS:
            for seed in seeds:
                job = run.prepare(name, seed, size)
                tally = run.Tally()
                run.run_command(job, tally, None, False, "pin")
                if tally.errors or tally.failed:
                    print(f"{size} {name} seed {seed}: {tally.errors}", file=sys.stderr)
                    return 1
                (digest,) = tally.outputs
                pin = {"output": digest}
                if job.document != run.REFERENCE:  # the fixture is fixed; only generated documents vary
                    pin["document"] = run.sha256(job.document.read_bytes())
                pins.setdefault(size, {}).setdefault(name, {})[str(seed)] = pin
                print(f"{size} {name} seed {seed}: {digest}")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
