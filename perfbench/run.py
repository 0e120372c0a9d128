"""The repo benchmark's command line.

From the root of a checkout::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 15 --trace 0

Workloads: ``serve_small``, ``serve_kernel``, ``serve_burst``,
``library_generate`` (see ``perfbench/README.md``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the traced variant,
prints the per-layer tables and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process: the benchmark's thread budget is one
# client plus the dispatcher.  Set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: the program source (src/repro) is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    result = workloads.run(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
