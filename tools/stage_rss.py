"""Print the process's memory after each stage of one benchmark pass.

Usage, from anywhere:

    python3 tools/stage_rss.py --workload stability --seed 301

In one process, as ``bench/harness.py`` measures it, this caps the BLAS
threads as ``bench/run.py`` does, runs the workload's ``setup`` as many
times as the harness does, then one pass of its ``commands``, all taken
unchanged from ``bench/workloads.py``, against the ``vlac`` package of the
checkout this file lives in, in a temporary directory. After the set-up
and after each command it prints one JSON line: the stage, the process's
``ru_maxrss``, and glibc's ``mallinfo2`` figures, all in MB: ``arena_mb``
(the heap the allocator holds), ``arena_in_use_mb`` and ``arena_free_mb``
(its bytes in use and free) and ``mmapped_mb`` (live mmapped chunks),
each null where the C library has no ``mallinfo2``. The figures are only
read; nothing in the allocator is tuned. Run both sides of a comparison
at the same ``OPENBLAS_NUM_THREADS``. Exit code 1, naming the step, when a
command fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MB = 1024 * 1024
# each printed heap figure and the mallinfo2 field it reads
_HEAP_FIGURES = (("arena_mb", "arena"), ("arena_in_use_mb", "uordblks"),
                 ("arena_free_mb", "fordblks"), ("mmapped_mb", "hblkhd"))


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's ``mallinfo2``, or None where the C library lacks it."""
    fn = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], _Mallinfo2
    return fn


def stage_line(stage: str, mallinfo2) -> dict:
    """The memory figures of this process after ``stage``."""
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    line = {"stage": stage, "ru_maxrss_mb": maxrss_kb / 1024}
    info = None if mallinfo2 is None else mallinfo2()
    for key, field in _HEAP_FIGURES:
        line[key] = None if info is None else getattr(info, field) / MB
    return line


def stages(workload_name: str, seed: int):
    """The memory figures after the set-up and after each command of one
    pass of ``workload_name``, one dict per stage, as each is reached."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    import run
    run._limit_blas_threads()  # before numpy loads, as bench/run.py does
    import harness  # only now: it imports numpy and vlac from this checkout
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    mallinfo2 = _mallinfo2()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for _ in range(harness.SETUP_REPEATS):
            workload.setup(work, seed)
        yield stage_line("setup", mallinfo2)
        for step, argv in workload.commands(work, seed):
            code = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"seed {seed} {workload_name}: {step!r} "
                                 f"exited with {code}")
            yield stage_line(step, mallinfo2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "search", "stability"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for line in stages(args.workload, args.seed):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
