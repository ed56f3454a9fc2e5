#!/usr/bin/env python3
"""Benchmark of the wnnm package, driven only through its public entry points.

    python3 perfbench/run.py --workload denoise-64 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` and nothing is installed. The workloads are defined in workloads.py:

* ``denoise-64``: ``wnnm.cli.main(["denoise", ...])`` on seeded 64x64 images
* ``solve-csv``: ``wnnm.cli.main(["solve", ...])`` on seeded CSV instances
* ``spectrum-20k``: ``wnnm.pava_solve`` on seeded spectra with n = 20000

The load is one process and one client in a closed loop, with BLAS pinned
to one thread. Each op is timed alone. Its output is then checked against an
independent reference outside the timed region, and a failed check counts
the op as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced ops with ops traced by spans around the package's call sites (see
tracing.py), and prints per-layer metrics per traced op. The last line on stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it is a report with the machine, the sample
counts and the first failure reasons.

The exit status is 0 whenever a result was printed; failed ops are reported
in the result. It is 2 when the run cannot start, for example when there is
no ``src/wnnm`` beside this directory.
"""

import os

# Pinned before anything imports numpy. With the default two threads and the
# other core busy, a 64x48 SVD was seen to take 72-87 ms instead of 0.65 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS; that module imports numpy, which a set-up
# probe must not load before it starts timing.
WORKLOADS = ("denoise-64", "solve-csv", "spectrum-20k")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark of the wnnm package.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    ap.add_argument("--seconds", type=float, default=25.0, help="length of the measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    # Internal: one set-up sample in a fresh process, on inputs already written.
    ap.add_argument("--probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe(workload: str, workdir: Path) -> int:
    """Print the set-up time of this fresh process: ``import wnnm`` plus one op."""
    t0 = time.perf_counter()
    import wnnm.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter() - t0
    import workloads

    op = workloads.probe_op(workload, workdir)
    t1 = time.perf_counter()
    op()
    print(json.dumps({"setup_s": imported + time.perf_counter() - t1}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wnnm" / "__init__.py").is_file():
        print(f"perfbench: no wnnm source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload, Path(args.probe))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
