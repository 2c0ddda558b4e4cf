"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload whynot-direct --seed 1 --seconds 20 --trace 0

Workloads: ``whynot-direct``, ``served-sharded``, ``merchant-churn``
(see ``wnbench/workloads.py``). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes a second, traced pass and prints the
per-layer metrics. ``--seconds`` sets how long the op list is (a fixed
number of sweep blocks per second of expected work); the run replays
it to completion instead of stopping on a clock, so its work repeats
exactly for one seed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it (prefixed ``#``) give the ungated summary and the
host-noise metadata. Per-op records go to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.

The program is imported from ``src/`` of the checkout and nowhere
else; without it the run exits with code 2 and prints no result.
The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from wnbench.runner import run

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"host": outcome.host, "metrics": outcome.metrics,
                   "summary": outcome.summary, "correct": outcome.correct,
                   "ops": outcome.records}, handle)
    print("# host " + json.dumps(outcome.host))
    print("# summary " + json.dumps(outcome.summary))
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": outcome.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
