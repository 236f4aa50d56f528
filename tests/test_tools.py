"""The measuring scripts under ``tools/``, each run as a user runs it."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_stage_rss_prints_each_stage():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "stage_rss.py"), "--workload",
         "stability", "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["stage"] for line in lines] == ["setup", "stability"]
    peaks = [line["ru_maxrss_mb"] for line in lines]
    assert 0 < peaks[0] <= peaks[1]
    for line in lines:
        heap = [line[key] for key in ("arena_mb", "arena_in_use_mb",
                                      "arena_free_mb", "mmapped_mb")]
        # all null off glibc; on glibc the arena is its bytes in use and free
        assert heap == [None] * 4 or (
            heap[0] > 0 and abs(heap[0] - heap[1] - heap[2]) < 1e-6)
