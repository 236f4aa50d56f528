import csv
import hashlib
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import SENTINEL, poison, set_model_param
from vlac import (
    Codebook,
    ModelParams,
    ProjectionBasis,
    TrainedModel,
    load_model,
    save_model,
)
from vlac.cli import RESULTS_CSV_COLUMNS, build_parser, load_config, main
from vlac.ingestion import load_features, write_features
from vlac.search import DescriptorSequence, write_store


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


SYNTH = ["synth", "--videos", "6", "--train-videos", "4", "--frames", "40",
         "--dim", "8", "--clusters", "8", "--features-per-frame", "10",
         "--segment-len", "16", "--offset", "1", "--seed", "3"]
PARAMS = ["--j", "8", "--n", "8", "--m", "4", "--d", "4", "--d0", "8",
          "--alpha1", "8", "--alpha2", "4", "--h", "2",
          "--gof-size", "5", "--overlap", "1", "--seed", "5", "--normalize"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert run(*SYNTH, "--data-root", root) == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    for method in ("vlad", "vlac", "hp"):
        code = run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", method, "--out", out / f"{method}.bin", *PARAMS)
        assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, dataset):
        assert (dataset / "train" / "manifest.json").exists()
        assert (dataset / "test" / "manifest.json").exists()
        assert (dataset / "queries" / "manifest.json").exists()
        train = json.loads((dataset / "train" / "manifest.json").read_text())
        test = json.loads((dataset / "test" / "manifest.json").read_text())
        queries = json.loads((dataset / "queries" / "manifest.json").read_text())
        assert len(train["videos"]) == 4
        assert len(test["videos"]) == 6
        assert len(queries["queries"]) == 6
        train_ids = {v["video_id"] for v in train["videos"]}
        test_ids = {v["video_id"] for v in test["videos"]}
        assert not train_ids & test_ids

    def test_rerun_identical_files(self, dataset, tmp_path):
        assert run(*SYNTH, "--data-root", tmp_path) == 0
        for sub in ("train", "test", "queries"):
            ours = sorted((tmp_path / sub).iterdir())
            theirs = sorted((dataset / sub).iterdir())
            assert [p.name for p in ours] == [p.name for p in theirs]
            for a, b in zip(ours, theirs):
                assert digest(a) == digest(b), a.name

    def test_zero_videos_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--data-root", tmp_path, "--videos", "0")
        assert exc.value.code == 2


class TestTrain:
    def test_model_files_written(self, trained):
        for method in ("vlad", "vlac", "hp"):
            assert (trained / f"{method}.bin").stat().st_size > 0

    def test_same_seed_bit_identical(self, dataset, tmp_path):
        for name in ("a.bin", "b.bin"):
            assert run("train", "--manifest",
                       dataset / "train" / "manifest.json",
                       "--method", "vlac", "--out", tmp_path / name,
                       *PARAMS) == 0
        assert digest(tmp_path / "a.bin") == digest(tmp_path / "b.bin")

    def test_j_too_large_exit_2(self, dataset, tmp_path):
        code = run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlad", "--out", tmp_path / "m.bin",
                   "--j", "100000", "--d", "4")
        assert code == 2

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "j": 8, "n": 8, "m": 4, "d": 2, "d0": 8, "alpha1": 8,
            "alpha2": 4, "h": 2, "gof_size": 5, "overlap": 1, "seed": 5,
        }))
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlac", "--out", tmp_path / "m.bin",
                   "--config", cfg, "--d", "4") == 0
        from vlac import load_model

        assert load_model(tmp_path / "m.bin").params.d == 4

    # f comes from the manifest, the method from --method; data_root and
    # output_dir were never read
    @pytest.mark.parametrize("key, value", [
        ("bogus", 1), ("f", 8), ("data_root", "."), ("output_dir", "."),
        ("method", "vlad"),
    ], ids=["bogus", "f", "data_root", "output_dir", "method"])
    def test_unknown_config_key_exit_2(self, dataset, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlac", "--out", tmp_path / "m.bin",
                   "--config", cfg, *PARAMS) == 2

    @pytest.mark.parametrize("doc", [
        {"j": 0}, {"j": "8"}, {"normalize": 1}, {"seed": -1}, {"j": 2**32},
        {"overlap": 5, "gof_size": 5}, ["j"],
    ])
    def test_invalid_config_value_exit_2(self, dataset, tmp_path, doc):
        valid = {"j": 8, "n": 8, "m": 4, "d": 4, "d0": 8, "alpha1": 8,
                 "alpha2": 4, "h": 2, "gof_size": 5, "overlap": 1, "seed": 5}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {**valid, **doc} if isinstance(doc, dict) else doc))
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlac", "--out", tmp_path / "m.bin",
                   "--config", cfg) == 2
        assert not (tmp_path / "m.bin").exists()

    def test_removed_flags_rejected(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--manifest", dataset / "train" / "manifest.json",
                "--out", tmp_path / "m.bin", "--f", "999")
        assert exc.value.code == 2


class TestEncode:
    def test_database_and_query_stores(self, dataset, trained, tmp_path):
        store = tmp_path / "db.store"
        qstore = tmp_path / "q.store"
        assert run("encode", "--model", trained / "vlac.bin",
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", store) == 0
        assert run("encode", "--model", trained / "vlac.bin",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--queries", "--out", qstore) == 0
        from vlac import load_store

        db = load_store(store)
        qs = load_store(qstore)
        assert len(db) == 6 and len(qs) == 6
        # 40 frames, gof 5, overlap 1 -> 1 + (40-5)//4 = 9 windows
        assert all(s.length == 9 for s in db)
        # 16-frame queries -> 1 + (16-5)//4 = 3 windows
        assert all(s.length == 3 for s in qs)

    def test_gof_size_one_counts_frames(self, dataset, trained, tmp_path):
        model = tmp_path / "pf.bin"
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlad", "--out", model,
                   "--j", "8", "--d", "4", "--gof-size", "1", "--overlap", "0",
                   "--seed", "5") == 0
        assert run("encode", "--model", model,
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", tmp_path / "pf.store") == 0
        from vlac import load_store

        assert all(s.length == 40 for s in load_store(tmp_path / "pf.store"))

    def test_windowing_independent_of_method(self, dataset, trained, tmp_path):
        from vlac import load_store

        lengths = {}
        for method in ("vlad", "vlac"):
            out = tmp_path / f"{method}.store"
            assert run("encode", "--model", trained / f"{method}.bin",
                       "--manifest", dataset / "test" / "manifest.json",
                       "--out", out) == 0
            lengths[method] = [s.length for s in load_store(out)]
        assert lengths["vlad"] == lengths["vlac"]

    def test_rerun_bit_identical(self, dataset, trained, tmp_path):
        digests = set()
        for name in ("a", "b"):
            out = tmp_path / f"{name}.store"
            assert run("encode", "--model", trained / "vlac.bin",
                       "--manifest", dataset / "test" / "manifest.json",
                       "--out", out) == 0
            digests.add(digest(out))
        assert len(digests) == 1

    def test_perturbed_encode_deterministic(self, dataset, trained, tmp_path):
        digests = set()
        for name in ("a", "b"):
            out = tmp_path / f"{name}.store"
            assert run("encode", "--model", trained / "vlac.bin",
                       "--manifest", dataset / "test" / "manifest.json",
                       "--out", out, "--perturb", "additive_gaussian",
                       "--magnitude", "0.5", "--perturb-seed", "9") == 0
            digests.add(digest(out))
        assert len(digests) == 1


@pytest.fixture(scope="module")
def stores(dataset, trained, tmp_path_factory):
    out = tmp_path_factory.mktemp("stores")
    assert run("encode", "--model", trained / "vlac.bin",
               "--manifest", dataset / "test" / "manifest.json",
               "--out", out / "db.store") == 0
    assert run("encode", "--model", trained / "vlac.bin",
               "--manifest", dataset / "queries" / "manifest.json",
               "--queries", "--out", out / "q.store") == 0
    return out


class TestSearchEvaluate:
    def test_self_search_top1(self, dataset, trained, tmp_path, stores):
        results = tmp_path / "self.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "db.store",
                   "--top-k", "1", "--out", results) == 0
        with open(results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert all(r["query_id"] == r["video_id"] for r in rows)

    def test_threshold_above_scores_empty_body(self, tmp_path, stores):
        results = tmp_path / "none.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--threshold", "1e18", "--out", results) == 0
        lines = results.read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_rerun_identical_results(self, tmp_path, stores):
        digests = set()
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert run("search", "--store", stores / "db.store",
                       "--queries", stores / "q.store", "--out", out) == 0
            digests.add(digest(out))
        assert len(digests) == 1

    def test_negative_top_k_usage_error(self, tmp_path, stores):
        with pytest.raises(SystemExit) as exc:
            run("search", "--store", stores / "db.store",
                "--queries", stores / "q.store", "--top-k", "-1",
                "--out", tmp_path / "r.csv")
        assert exc.value.code == 2

    def test_perfect_separation_map_one(self, dataset, tmp_path, stores):
        # database searched against itself is perfectly separated: every
        # sequence ranks itself first, so mAP is exactly 1
        results = tmp_path / "self_results.csv"
        truth = tmp_path / "self_truth.json"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "db.store", "--out", results) == 0
        test_manifest = json.loads(
            (dataset / "test" / "manifest.json").read_text()
        )
        truth.write_text(json.dumps({
            "queries": [
                {"query_id": v["video_id"], "feature_file": v["feature_file"],
                 "fps_sampled": v["fps_sampled"], "label": v["label"],
                 "source_video_id": v["video_id"], "start_frame": 0}
                for v in test_manifest["videos"]
            ],
            "feature_dim": test_manifest["feature_dim"],
            "notes": "self search ground truth",
        }))
        assert run("evaluate", "--results", results, "--queries", truth,
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["mAP"] == "1.0"
        with open(tmp_path / "eval_pr.csv", newline="") as fh:
            pr_rows = list(csv.DictReader(fh))
        assert pr_rows[0].keys() == {"method", "D", "threshold", "precision",
                                     "recall"}
        # thresholds are swept to below the minimum score, where recall is 1
        recalls = [float(r["recall"]) for r in pr_rows]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_shifted_queries_still_rank_high(self, dataset, tmp_path, stores):
        # queries are cut on a shifted sampling grid, so matching is
        # approximate; the clean database must still score near the top
        results = tmp_path / "results.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store", "--out", results) == 0
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mAP"]) >= 0.6

    def write_results(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_CSV_COLUMNS)
            for query_id, video_id, score in rows:
                writer.writerow([query_id, 1, video_id, score, 0, "vlac", 4])

    def test_missed_query_scores_ap_zero(self, dataset, tmp_path):
        # a top-1 ranking: the first query hits its source video, the
        # second ranks the wrong video first
        queries = json.loads(
            (dataset / "queries" / "manifest.json").read_text())["queries"]
        hit, miss = queries[:2]
        results = tmp_path / "top1.csv"
        self.write_results(results, [
            (hit["query_id"], hit["source_video_id"], "2.0"),
            (miss["query_id"], hit["source_video_id"], "1.0"),
        ])
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            assert float(next(csv.DictReader(fh))["mAP"]) == 0.5

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_2(self, dataset, tmp_path, capsys, bad):
        query = json.loads(
            (dataset / "queries" / "manifest.json").read_text())["queries"][0]
        results = tmp_path / "bad.csv"
        self.write_results(results, [
            (query["query_id"], query["source_video_id"], bad),
        ])
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 2
        assert query["query_id"] in capsys.readouterr().out
        assert not (tmp_path / "eval_pr.csv").exists()

    def test_evaluate_svg(self, dataset, tmp_path, stores):
        results = tmp_path / "results.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store", "--out", results) == 0
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "plot", "--svg") == 0
        svg = (tmp_path / "plot_pr.svg").read_text()
        assert svg.lstrip().startswith("<?xml")


class TestStabilityCommand:
    def test_zero_magnitude_returns_d(self, dataset, tmp_path):
        out = tmp_path / "stab.csv"
        assert run("stability", "--manifest",
                   dataset / "train" / "manifest.json",
                   "--method", "all", "--kind", "additive_gaussian",
                   "--magnitude", "0", "--out", out, *PARAMS) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["vlad", "hp", "vlac", "sift"]
        for row in rows:
            assert abs(float(row["score_raw"]) - 4.0) <= 1e-6
            assert abs(float(row["score_sign_aligned"]) - 4.0) <= 1e-6


class TestErrors:
    def test_missing_manifest_exit_2(self, tmp_path):
        assert run("train", "--manifest", tmp_path / "nope.json",
                   "--method", "vlac", "--out", tmp_path / "m.bin") == 2

    def test_bad_store_exit_2(self, tmp_path):
        bad = tmp_path / "bad.store"
        bad.write_bytes(b"garbage!")
        assert run("search", "--store", bad, "--queries", bad,
                   "--out", tmp_path / "r.csv") == 2

    def test_non_finite_feature_exit_2(self, dataset, trained, tmp_path):
        doc = json.loads((dataset / "queries" / "manifest.json").read_text())
        for entry in doc["queries"]:
            frames = load_features(dataset / "queries" / entry["feature_file"])
            write_features(frames, tmp_path / entry["feature_file"])
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        bad = tmp_path / doc["queries"][0]["feature_file"]
        frames = load_features(bad)
        frames[2].features[1, 3] = SENTINEL
        write_features(frames, bad, overwrite=True)
        poison(bad, np.nan)
        assert run("encode", "--model", trained / "vlad.bin",
                   "--manifest", tmp_path / "manifest.json", "--queries",
                   "--out", tmp_path / "q.store") == 2
        assert not (tmp_path / "q.store").exists()

    def test_non_finite_descriptor_exit_2(self, tmp_path):
        good = tmp_path / "good.store"
        bad = tmp_path / "bad.store"
        values = np.ones((2, 3))
        write_store([DescriptorSequence("v", values, "vlac")], good)
        values[1, 2] = SENTINEL
        write_store([DescriptorSequence("v", values, "vlac")], bad)
        poison(bad, np.inf)
        for store, queries in ((good, bad), (bad, good)):
            assert run("search", "--store", store, "--queries", queries,
                       "--out", tmp_path / "r.csv") == 2

    def test_model_shape_mismatch_exit_2(self, dataset, trained, tmp_path):
        model = tmp_path / "vlad.bin"
        model.write_bytes((trained / "vlad.bin").read_bytes())
        set_model_param(model, "j", 9)
        assert run("encode", "--model", model,
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", tmp_path / "db.store") == 2

    @pytest.mark.parametrize("case", ["top_level_list", "video_is_string",
                                      "null_fps_sampled",
                                      "feature_file_is_number",
                                      "video_id_is_number"])
    def test_malformed_manifest_exit_2(self, dataset, tmp_path, case):
        queries = dataset / "queries" / "manifest.json"
        bad = tmp_path / "manifest.json"
        if case == "null_fps_sampled":
            doc = json.loads(queries.read_text())
            doc["queries"][0]["fps_sampled"] = None
            first = doc["queries"][0]
            results = tmp_path / "r.csv"
            results.write_text(
                ",".join(RESULTS_CSV_COLUMNS) + "\n"
                + f"{first['query_id']},1,{first['source_video_id']},1.0,0,"
                "vlac,4\n"
            )
            argv = ["evaluate", "--results", results, "--queries", bad,
                    "--out-prefix", tmp_path / "ev"]
        else:
            doc = json.loads((dataset / "train" / "manifest.json").read_text())
            for video in doc["videos"]:  # so only the planted fault can fail
                video["feature_file"] = str(
                    dataset / "train" / video["feature_file"])
            if case == "top_level_list":
                doc = doc["videos"]
            elif case == "video_is_string":
                doc["videos"][0] = doc["videos"][0]["video_id"]
            elif case == "feature_file_is_number":
                doc["videos"][0]["feature_file"] = 5
            else:
                doc["videos"][0]["video_id"] = 7
            argv = ["train", "--manifest", bad, "--method", "vlad",
                    "--out", tmp_path / "m.bin", *PARAMS]
        bad.write_text(json.dumps(doc))
        assert run(*argv) == 2


U32_MAX = 2**32 - 1


@st.composite
def valid_params(draw):
    count = st.integers(1, U32_MAX)
    gof_size = draw(count)
    return ModelParams(
        f=draw(count), j=draw(count), n=draw(count), m=draw(count),
        d=draw(count), d0=draw(count), alpha1=draw(count),
        alpha2=draw(count), h=draw(count), gof_size=gof_size,
        overlap=draw(st.integers(0, gof_size - 1)),
        seed=draw(st.integers(0, U32_MAX)), normalize=draw(st.booleans()),
    )


def as_flags(params):
    argv = []
    for field in fields(ModelParams):
        value = getattr(params, field.name)
        flag = "--" + field.name.replace("_", "-")
        if field.name == "f" or value is False:
            continue
        argv += [flag] if value is True else [flag, str(value)]
    return argv


class TestParamSchema:
    @settings(max_examples=60, deadline=None)
    @given(valid_params())
    def test_flags_round_trip_through_load_config(self, params):
        for command in ("train", "stability"):
            extra = ["--magnitude", "0"] if command == "stability" else []
            args = build_parser().parse_args(
                [command, "--manifest", "m.json", "--out", "o", *extra,
                 *as_flags(params)])
            assert load_config(args, params.f) == params

    @settings(max_examples=30, deadline=None)
    @given(valid_params(), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    def test_model_header_keeps_every_field(self, params, f, j, d):
        # f, j and d fix the shapes of a vlad model's arrays, which
        # load_model checks; every other field may take any u32 value
        params = replace(params, f=f, j=j, d=d)
        model = TrainedModel(
            method="vlad", params=params,
            codebook=Codebook(centers=np.ones((j, f)), k=j, seed=0,
                              inertia=0.0),
            basis=ProjectionBasis(rows=np.ones((d, j * f)),
                                  mean=np.zeros(j * f),
                                  eigenvalues=np.ones(d)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.bin"
            save_model(model, path)
            loaded = load_model(path).params
        assert loaded == params
        assert type(loaded.normalize) is bool
