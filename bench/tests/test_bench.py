"""Tests of the benchmark's own code: tracing, generators and the search
reference. Run with ``python -m pytest bench/tests``."""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import reference
import run
import tracing
import workloads
import vlac.cli
import vlac.core_math
from vlac.search import DescriptorSequence, retrieve

BENCH = Path(__file__).resolve().parents[1]


def span(span_id, parent, start, end, name="core_math.pca_fit"):
    return tracing.Span(span_id, parent, 1, name, start, end)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(0, None, 0.0, 10.0, "cli.cmd_train"),
            span(1, 0, 1.0, 4.0, "aggregation.train_vlad"),
            span(2, 1, 1.5, 2.5, "core_math.kmeans_fit"),
            span(3, 1, 3.0, 3.5, "core_math.pca_fit"),
            span(4, 0, 6.0, 9.0, "aggregation.save_model"),
        ]
        own = tracing.self_times(spans)
        assert own == pytest.approx({0: 4.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 3.0})

    def test_children_covering_the_same_interval_count_once(self):
        spans = [span(0, None, 0.0, 4.0), span(1, 0, 1.0, 3.0), span(2, 0, 2.0, 5.0)]
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_layer_metrics_sum_self_time_per_name(self):
        spans = [
            span(0, None, 0.0, 10.0, "cli.main"),
            span(1, 0, 0.0, 6.0, "cli.cmd_train"),
            span(2, 1, 1.0, 3.0, "core_math.kmeans_fit"),
            span(3, 1, 3.0, 4.0, "core_math.kmeans_fit"),
        ]
        spans[3].failed = True
        metrics = tracing.layer_metrics(spans, {"core_math.kmeans_fit.iterations": 7})
        assert metrics["cli.cmd_train.self_s"] == pytest.approx(3.0)
        assert metrics["core_math.kmeans_fit.calls"] == 2
        assert metrics["core_math.kmeans_fit.self_s"] == pytest.approx(3.0)
        assert metrics["core_math.failed"] == 1
        assert metrics["core_math.kmeans_fit.iterations"] == 7
        assert metrics["trace.spans"] == 4


class TestWrapper:
    def test_returns_the_same_object(self):
        sentinel = object()
        tracer = tracing.Tracer()
        wrapped = tracer.wrap("search.retrieve", lambda x, *, y=None: (x, y, sentinel))
        out = wrapped(1, y=2)
        assert out[0] == 1 and out[1] == 2 and out[2] is sentinel
        assert [s.name for s in tracer.spans] == ["search.retrieve"]
        assert not tracer.spans[0].failed

    def test_raises_the_same_exception(self):
        error = KeyError("missing")

        def boom():
            raise error

        tracer = tracing.Tracer()
        with pytest.raises(KeyError) as caught:
            tracer.wrap("search.retrieve", boom)()
        assert caught.value is error
        assert tracer.spans[0].failed
        assert tracer._stack == []

    def test_install_traces_callers_and_uninstall_restores(self):
        original = vlac.core_math.kmeans_fit
        points = np.random.default_rng(0).normal(size=(40, 3))
        expected = original(points, 4, 7)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert vlac.core_math.kmeans_fit is not original
            assert vlac.aggregation.kmeans_fit is vlac.core_math.kmeans_fit
            assert vlac.cli.train_hp is vlac.aggregation.train_hp
            got = vlac.core_math.kmeans_fit(points, 4, 7)
        finally:
            tracer.uninstall()
        assert vlac.core_math.kmeans_fit is original
        assert vlac.aggregation.kmeans_fit is original
        np.testing.assert_array_equal(got.centers, expected.centers)
        assert got.inertia_history == expected.inertia_history
        iterations = len(expected.inertia_history)
        assert tracer.counts["core_math.kmeans_fit.iterations"] == iterations
        assert tracer.counts["core_math.kmeans_fit.distance_flops"] == (
            2 * 40 * 4 * 3 * iterations)


class TestGenerators:
    def test_search_data_repeats_under_a_seed(self):
        a, b, c = (workloads.search_data(s) for s in (5, 5, 6))
        for x, y in zip(a[:2], b[:2]):
            assert x.keys() == y.keys()
            assert all(np.array_equal(x[k], y[k]) for k in x)
        assert a[2] == b[2]
        assert not all(np.array_equal(a[0][k], c[0][k]) for k in a[0])

    def test_search_work_is_the_same_for_every_seed(self):
        def shifts(seed):
            store, queries, _ = workloads.search_data(seed)
            return sum(len(s) - len(q) + 1 for s in store.values() for q in queries.values())

        assert shifts(1) == shifts(2)

    @pytest.mark.parametrize("name", ["build", "stability"])
    def test_synthetic_files_repeat_under_a_seed(self, name, tmp_path):
        workload = workloads.WORKLOADS[name]
        for label, seed in (("a", 3), ("b", 3), ("c", 4)):
            workload.setup(tmp_path / label, seed)

        def same(x, y):
            cmp = filecmp.dircmp(x, y)
            return (not cmp.left_only and not cmp.right_only
                    and filecmp.cmpfiles(x, y, cmp.common_files, shallow=False)[1] == []
                    and all(same(x / d, y / d) for d in cmp.common_dirs))

        assert same(tmp_path / "a", tmp_path / "b")
        assert not same(tmp_path / "a", tmp_path / "c")


class TestReference:
    def test_matches_retrieve_on_a_store_with_ties(self):
        query = np.array([[1.0, 0.0], [0.0, 1.0]])
        store = {
            # best score 2 at shifts 0 and 2: the smallest shift wins
            "b": np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            # same best score as "b": the smaller video_id ranks first
            "a": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            # shorter than the query: the query slides over it
            "c": np.array([[2.0, 1.0]]),
            "d": np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]),
        }
        expected = reference.rank(query, store)
        got = retrieve(
            DescriptorSequence("q", query, "vlac"),
            [DescriptorSequence(k, v, "vlac") for k, v in store.items()],
            top_k=0,
        )
        assert reference.mismatch(
            expected, [(m.video_id, m.score, m.offset) for m in got.matches]) is None
        assert [row[0] for row in expected] == ["a", "b", "c", "d"]
        assert expected[1][2] == 0 and expected[2][2] == 0

    def test_reports_the_first_difference(self):
        ranked = [("a", 2.0, 1), ("b", 1.0, 0)]
        assert reference.mismatch(ranked, ranked) is None
        assert "shift" in reference.mismatch(ranked, [("a", 2.0, 0), ("b", 1.0, 0)])
        assert "rank 1" in reference.mismatch(ranked, ranked[::-1])
        assert "scored" in reference.mismatch(ranked, [("a", 2.1, 1), ("b", 1.0, 0)])


class TestBenchmarkFile:
    def test_names_match_what_the_run_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        # `search` runs by hand only; README.md says why it is not gated
        assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"search"}
        workload_flag = next(a for a in run._parser()._actions if a.dest == "workload")
        assert set(workload_flag.choices) == set(workloads.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()

    def test_refuses_to_run_without_the_sources(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
        done = subprocess.run(
            [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
             "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert done.stdout == ""
