"""The repository's benchmark: one command, four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sim-resident`` and ``sim-missheavy`` drive the timing
simulator; ``serve-hot`` and ``serve-cold`` drive the verification
service over HTTP.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` is a separate run that wraps each layer's entry
points and reports the per-layer split (see ``metrics.py``).

Human-readable lines start with ``#``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-resident", "sim-missheavy", "serve-hot", "serve-cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, root: str) -> dict:
    """Run one workload; returns its result dict (see metrics.py)."""
    if args.workload.startswith("sim-"):
        import simbench
        return simbench.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    import servebench
    return servebench.run(args.workload, root, args.seed, args.seconds,
                          bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no program to measure: {root}/src/repro is missing; run "
              f"from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from metrics import result_object

    result = run(args, root)
    output = result_object(result, bool(args.trace))
    for line in result["lines"]:
        print(line)
    print(json.dumps(output), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
