#!/usr/bin/env python3
"""Closed-loop benchmark of ``pointscatter.pipeline.run_pipeline``.

Run from the repository root:

    python3 perfbench/run.py --workload demo_noisy --seed 1 --seconds 30 --trace 0

One process builds the workload from ``--seed``, then calls
``run_pipeline(scene, config, output_dir=...)`` in a closed loop (each call
starts when the previous one has ended) for ``--seconds`` seconds and
checks every call's output. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and prints per-module
metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads:
``demo_noisy``, ``orbit80_clean`` and ``hires_6view`` (see
``workloads.py``). ``--reduced`` runs a smaller variant of each workload
for the self-test in ``test_perfbench.py``.

This file only caps the thread-count variables and puts ``src`` on the
import path before numpy is loaded; the benchmark itself is ``bench.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> tuple[int, dict[str, str]]:
    """Set each thread-count variable to at most the usable core count."""
    nproc = len(os.sched_getaffinity(0))
    capped = {}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        capped[var] = str(max(1, min(wanted, nproc)))
        os.environ[var] = capped[var]
    return nproc, capped


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="smaller inputs, for the self-test")
    # internal: time one fresh process from start to ready-to-run
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, threads = cap_threads()
    src = ROOT / "src"
    if not (src / "pointscatter").is_dir():
        print(f"no package source at {src / 'pointscatter'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # noqa: E402 - numpy must load after the thread caps

    if args.setup_probe:
        return bench.setup_probe(args)
    return bench.run(args, nproc, threads)


if __name__ == "__main__":
    raise SystemExit(main())
