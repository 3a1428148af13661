"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 trainbench/run.py --workload magnet-ref --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "magnetdml" / "__init__.py").is_file():
        print(f"error: no magnetdml sources under {src}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads; the set-up probes
    # inherit it. A seed override would make the configs lie.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MAGNETDML_SEED", None)
    sys.path[:0] = [str(src), str(ROOT)]

    from trainbench import harness, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
