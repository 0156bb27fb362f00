"""Benchmark entry point.

    python3 perfbench/run.py --workload {multijoin,onejoin,cli-scan} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Generates the workload's instances from the
seed, solves them in a closed loop for S seconds with symcut imported from
``src/``, checks every answer, and prints a summary line followed by one
JSON object as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. Generated files,
cached reference values and span dumps go to ``.perfbench/``.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("multijoin", "onejoin", "cli-scan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "symcut" / "__init__.py").is_file():
        print(f"error: symcut sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import symcut
    if Path(symcut.__file__).resolve().parent != SRC / "symcut":
        print(f"error: imported symcut from {symcut.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    summary, result = bench.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), ROOT / ".perfbench")
    print(summary)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
