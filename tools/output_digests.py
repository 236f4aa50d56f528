"""Print the sha256 of every file the gated benchmark workloads write.

Usage, from anywhere:

    python3 tools/output_digests.py --seed 301 --seed 302 --seed 303

For each seed and each workload that ``BENCHMARK.json`` gates, in that
order, this runs the workload's ``setup`` and one pass of its
``commands``, both taken unchanged from ``bench/workloads.py``, against the
``vlac`` package of the checkout this file lives in, in a temporary
directory. It then prints one JSON object that maps ``seed/workload/file``
to that file's sha256, for the inputs ``setup`` made and the outputs of the
pass alike. Two checkouts that print the same object wrote the same bytes.
The PCA bases, and every byte after them, depend on the OpenBLAS thread
count, so run both sides with the same ``OPENBLAS_NUM_THREADS``.
Exit code 1, naming the step, when a command of a pass fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(seeds: list[int]) -> dict[str, str]:
    """``seed/workload/file`` -> sha256 of every file each gated workload's
    set-up and one pass write, per seed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    import workloads  # only now: it imports vlac from this checkout

    gated = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for seed in seeds:
        for name in gated:
            workload = workloads.WORKLOADS[name]
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                workload.setup(work, seed)
                for step, argv in workload.commands(work, seed):
                    code = workloads.run_cli(argv)
                    if code != 0:
                        raise SystemExit(f"seed {seed} {name}: {step!r} "
                                         f"exited with {code}")
                for path in sorted(p for p in work.rglob("*") if p.is_file()):
                    key = f"{seed}/{name}/{path.relative_to(work).as_posix()}"
                    out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="input seed; repeat for more seeds")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.seed), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
