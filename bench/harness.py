"""Measurement loop, output checks and result records of the benchmark.

``run.py`` caps BLAS threads and then hands over to :func:`run`, which sets
up the workload's inputs, runs passes of its CLI commands for the requested
time, checks every pass and prints the result.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy

import tracing
import workloads

SETUP_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _blas_threads() -> int | None:
    """Threads the numpy-bundled OpenBLAS actually uses, if it is one."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def _run_pass(workload, work: Path, seed: int, ledger, tracer):
    """Run one pass of CLI commands; returns each command's wall time."""
    times = {}
    if tracer is not None:
        tracer.install()
    try:
        for label, argv in workload.commands(work, seed):
            if tracer is not None:
                tracer.trace_id += 1
                root_span = tracer.open("cli.main")
            start = time.perf_counter()
            try:
                code = workloads.run_cli(argv)
            except Exception:  # a crash is one failed command; keep going
                code = traceback.format_exc(limit=3)
            times[label] = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root_span, failed=code != 0)
            ledger.record(code == 0, f"vlac {' '.join(argv)}: exit {code}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times


def _check(workload, work: Path, seed: int, ledger) -> dict | None:
    try:
        return workload.check(work, seed, ledger)
    except Exception:  # unreadable or missing output fails the check
        ledger.record(False, "output check raised " + traceback.format_exc(limit=3))
        return None


def measure(workload, work: Path, seed: int, seconds: float, trace: bool):
    """Set up, then run passes for ``seconds``; returns (result, details)."""
    ledger = workloads.Ledger()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(work, seed)
        setup_times.append(time.perf_counter() - start)

    # The peak is read after the first pass, as a user running each command
    # in a fresh process would see it; the allocator's heap can keep
    # growing over later passes in one process, by an amount that varies.
    plain, traced, checked, peak_rss_mb = [], [], None, None
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(plain) > len(traced) else None
        times = _run_pass(workload, work, seed, ledger, tracer)
        wall = sum(times.values())
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = _check(workload, work, seed, ledger)
        if tracer is None:
            plain.append(times)
        else:
            for span in tracer.spans:
                if span.name != "cli.main":
                    ledger.record(not span.failed, f"{span.name} raised")
            traced.append((wall, tracing.layer_metrics(tracer.spans, tracer.counts),
                           tracer.spans))
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    median = statistics.median
    plain_wall = median(sum(t.values()) for t in plain)
    times = {label: median(t[label] for t in plain) for label in plain[0]}
    end_to_end = {
        "setup_s": median(setup_times),
        "wall_s": plain_wall,
        "peak_rss_mb": peak_rss_mb,
    }
    figures = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in (workload.figures(times, checked).items()
                                    if checked else ())
    }
    figures.update({
        "setup_s": {"value": end_to_end["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": end_to_end["peak_rss_mb"], "unit": "MB"},
        "failed_ratio": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
    })
    if trace:
        units = tracing.metric_units()
        layer = {name: median(m[name] for _, m, _ in traced)
                 for name in traced[0][1]}
        overhead = median(w for w, _, _ in traced) - plain_wall
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_ratio"] = overhead / plain_wall
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    details = {
        "workload": workload.name,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "figures": figures,
        "setup_s_samples": setup_times,
        "wall_s_samples": [sum(t.values()) for t in plain],
        "command_s": times,
        "failures": ledger.failures[:20],
        "spans": [[[s.span_id, s.parent_id, s.trace_id, s.name, s.start, s.end,
                    s.failed] for s in spans] for _, _, spans in traced],
    }
    return result, details


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> int:
    """Measure one workload inside checkout ``root``; returns the exit code."""
    workload = workloads.WORKLOADS[workload_name]
    work = root / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = measure(workload, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["environment"] = environment(root, seed)
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps({"result": result, **details}) + "\n")
    del details["spans"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
