"""evacsim benchmark: one workload per process, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crowd_dense --seed 0 --seconds 20 --trace 0

The simulator is imported from the checkout's own `src/`; without it the
benchmark exits with status 2. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced pass. Every run's
outputs are checked; see README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("crowd_dense", "sparse_hall", "seed_batch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="evacsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evacsim", "__init__.py")):
        print(f"error: no evacsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
