"""Benchmark of the ``vlac`` pipeline, driven through ``vlac.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload build --seed 1 --seconds 35 --trace 0

One closed loop: a single client in this process runs the workload's CLI
commands back to back, repeating the pass until ``--seconds`` have gone by
(at least one pass). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics plus the tracing overhead. The last stdout line is the result JSON;
the line before it holds the workload's named figures and the environment.
The exit code is 0 only if every command and output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "search", "stability"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _limit_blas_threads() -> None:
    """Cap BLAS at the cores this process may use; read when numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "vlac" / "__init__.py").is_file():
        print(f"bench: no vlac package under {ROOT / 'src'}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # only now: numpy reads the BLAS thread cap when it loads

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
