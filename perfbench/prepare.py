"""Set-up for one workload, in its own interpreter.

    python3 perfbench/prepare.py --workload NAME --seed N --size full|tiny --out DIR [--speed FILE]

Imports the package, writes the seeded input files into DIR and the oracle
values to DIR/plan.json.  run.py times this whole process as ``setup_s``;
keeping it out of the measuring process also keeps its memory out of that
process's peak RSS.  With ``--speed`` the process runs the speed probe
throughout and writes the probe durations to FILE as a JSON list.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402


def import_package():
    """Import uppertail from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import uppertail.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import uppertail from {SRC}: {exc}")
    package = sys.modules["uppertail"]
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported uppertail from {package.__file__}, not {SRC}")
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--speed")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    with probe.running():
        import_package()
        from workloads import WORKLOADS

        plan = WORKLOADS[args.workload].prepare(args.seed, args.size, args.out)
        with open(os.path.join(args.out, "plan.json"), "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
    if args.speed:
        with open(args.speed, "w", encoding="utf-8") as handle:
            json.dump(probe.durations, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
