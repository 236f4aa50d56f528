"""One pass of each benchmark workload, checked as ``bench/run.py`` checks
it. A change that makes a workload's command fail or its output check
record a failure fails here, not only inside a benchmark run; ``search``,
which no gated run covers, is the only caller of ``DescriptorSequence`` and
``write_store(..., overwrite=True)`` from outside the package. The
benchmark's files are imported as they are, never changed."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (needs bench/ on the path, for reference.py)


@pytest.mark.parametrize("name", ["build", "stability", "search"])
def test_one_pass_passes_its_check(tmp_path, name):
    workload, seed = workloads.WORKLOADS[name], 7
    ledger = workloads.Ledger()
    workload.setup(tmp_path, seed)
    for label, argv in workload.commands(tmp_path, seed):
        ledger.record(workloads.run_cli(argv) == 0, f"{label} exited non-zero")
    figures = workload.check(tmp_path, seed, ledger)
    assert ledger.failures == []
    assert ledger.attempted > len(workload.commands(tmp_path, seed))
    assert figures
