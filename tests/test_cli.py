import csv
import hashlib
import json
import math
import tempfile
import tracemalloc
import weakref
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
    average_precision,
    load_model,
    save_model,
)
from vlac import cli, core_math, evaluation, ingestion
from vlac.aggregation import encode_video
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

    def test_pinned_output(self, dataset):
        """Every file ``vlac synth`` writes for SYNTH, by sha256."""
        expected = {
            "queries/manifest.json": "106d2863f5109c3bde5c17655002bf3d7a6312fbb56a0abfc77955b156e8f3f6",
            "queries/video_004_q.vfeat": "0ffe77644d0404994c08dd42c9371d63aa8ed1dc7ddba6caf6320021d1671ae3",
            "queries/video_005_q.vfeat": "75a57fd1e4d5464a6f5ccc6d558302d0dec4312b1dd9d0dac38cded05679a599",
            "queries/video_006_q.vfeat": "d1656252842be14e3ec1362972da2f7fb49ecad386f7820e030ddcc6329be837",
            "queries/video_007_q.vfeat": "659cba935ad8d38efbc88ca031646fb7482947f1704057678e1054b3cf744a35",
            "queries/video_008_q.vfeat": "7770eb44df43689808299cd3967e4e454262b691856b1c6155061e2dd8164c6a",
            "queries/video_009_q.vfeat": "03b16a684149788da667014098e07b57989c3574b295899252a5219ac4d8824c",
            "test/manifest.json": "8aa6824709b146d3a918dca389474d2a64eb450b77803f28d342c5c703436865",
            "test/video_004.vfeat": "4323d634a2ed45788bd52f4ca6f5f2651919e7dd4194fe426f3d898c3e8fcd17",
            "test/video_005.vfeat": "aaa3196200e92959b7050fcb0a4f6e508364679ae0fa6cc0e36c6033ff69784e",
            "test/video_006.vfeat": "83f36244356731148baae8452154571b36a82738c47fa72162ebef6734389389",
            "test/video_007.vfeat": "9204a55612d19314375a070dc2f1b8b8eb5831585c085478f5954cf0003d72d4",
            "test/video_008.vfeat": "7ef1ec8c4201218ce4837f0cbda4d53341875f0d225d671fcda59b7d1ef021f2",
            "test/video_009.vfeat": "188480a9be52283ff1887eb0720bacba31e2c3e77acbb3c839d34988f6ef0d15",
            "train/manifest.json": "abe2e71a2d1075b0a010f05ad78ff66af3dd5d527ddcd94acb200f41f4b23909",
            "train/video_000.vfeat": "c85b4fdeb63d43b0822bc205ecf7e00dec4aa36570aceb1ecb37df465e94e876",
            "train/video_001.vfeat": "0ba9615228462b4eadb3b6d09796a83e1788ec98fc1ab5e6abf13e2406f44a70",
            "train/video_002.vfeat": "162858efc86223dab3dfcf7754726a491bd8a1dc4ecf5199e738ad112c47afb2",
            "train/video_003.vfeat": "a54f64f21c40dec9010a552ad83a8acc6897374837f35574f76077c36762357f",
        }
        written = {
            p.relative_to(dataset).as_posix(): digest(p)
            for p in dataset.rglob("*") if p.is_file()
        }
        assert written == expected

    def test_zero_videos_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--data-root", tmp_path, "--videos", "0")
        assert exc.value.code == 2

    # --offset -1 used to fail after writing the train and test splits, and
    # --seed -1 with numpy's "expected non-negative integer"
    @pytest.mark.parametrize("flag", ["--offset", "--seed"])
    def test_negative_int_flag_usage_error(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(*SYNTH, "--data-root", tmp_path, flag, "-1")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    # --fps nan used to write "fps_sampled": NaN, which is not JSON; NaN
    # noise and an infinite spread used to blame the video's features
    @pytest.mark.parametrize("flag,value", [
        ("--fps", "nan"), ("--fps", "-1"), ("--fps", "0"), ("--fps", "inf"),
        ("--noise-std", "nan"), ("--noise-std", "-0.5"),
        ("--center-spread", "inf"), ("--center-spread", "-1"),
    ])
    def test_bad_float_flag_exit_2(self, tmp_path, capsys, flag, value):
        capsys.readouterr()
        assert run(*SYNTH, "--data-root", tmp_path, flag, value) == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "error"
        assert event["message"].startswith(f"{flag} must be finite")
        assert list(tmp_path.iterdir()) == []

    # used to exit 2 only after writing both splits, from make_queries
    @pytest.mark.parametrize("frames,segment_len,offset", [
        (10, 20, 0), (20, 20, 1), (16, 10, 7),
    ])
    def test_query_longer_than_video_exit_2(self, tmp_path, capsys, frames,
                                            segment_len, offset):
        capsys.readouterr()
        assert run(*SYNTH, "--data-root", tmp_path, "--frames", frames,
                   "--segment-len", segment_len, "--offset", offset) == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["message"].startswith(f"--segment-len {segment_len} "
                                           f"plus --offset {offset}")
        assert list(tmp_path.iterdir()) == []

    def test_query_as_long_as_video_accepted(self, tmp_path):
        assert run(*SYNTH, "--data-root", tmp_path, "--frames", "17",
                   "--segment-len", "16", "--offset", "1") == 0

    def test_spread_beyond_float32_writes_no_feature_file(self, tmp_path,
                                                          capsys):
        capsys.readouterr()
        assert run(*SYNTH, "--data-root", tmp_path,
                   "--center-spread", "1e39") == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "holds a non-finite value" in event["message"]
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    # at this seed the first video beyond float32's range is video_005, the
    # second of the test split: the test split used to keep video_004.vfeat
    # with no manifest
    def test_failed_split_leaves_earlier_splits_whole(self, tmp_path):
        assert run(*SYNTH, "--data-root", tmp_path, "--clusters", "128",
                   "--center-spread", "1e38", "--seed", "77") == 2
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*")) == [
            "train", "train/manifest.json",
            *(f"train/video_{v:03d}.vfeat" for v in range(4))]

    def test_holds_one_video_at_a_time(self, tmp_path, monkeypatch):
        """tracemalloc, unlike RSS, counts the same bytes on every run."""
        frames, features, dim, videos = 20, 100, 16, 20
        video_bytes = frames * features * dim * 8
        held = []

        def measured(video, path, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return write_features(video, path, **kwargs)

        # a first run imports what synth imports lazily, so the measured
        # run counts only the videos
        assert run(*SYNTH, "--data-root", tmp_path / "warm") == 0
        monkeypatch.setattr(ingestion, "write_features", measured)
        tracemalloc.start()
        try:
            code = run("synth", "--data-root", tmp_path, "--videos", videos,
                       "--train-videos", "2", "--frames", frames, "--dim",
                       dim, "--features-per-frame", features,
                       "--segment-len", "10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every video and every query segment
        assert code == 0 and len(held) == 2 * videos + 2
        # the video being written, and the one before it, which its
        # consumer's loop holds until the next is drawn; all 22 videos at
        # once came to 22 videos' bytes
        assert max(held) <= 3 * video_bytes
        # drawing a video adds about two videos' bytes of temporaries
        assert peak <= 5 * video_bytes


class TestTrain:
    def test_model_files_written(self, trained):
        for method in ("vlad", "vlac", "hp"):
            assert (trained / f"{method}.bin").stat().st_size > 0

    def test_pinned_models(self, trained):
        """The model file ``vlac train`` writes per method for SYNTH and
        PARAMS (which set --normalize), by sha256."""
        expected = {
            "vlad": "eb4107f246054c2dc77a77867182d84db50fc9a4f11d5e64ad4c863c6e4ef164",
            "vlac": "1bcea16390f897e5eeb026d55ad5f88e528731d78bb2968e996fb045de838af9",
            "hp": "698d9bd8f006c8c7b97f0acc4f1c0d650efffc029b39f3485e81f8e2fa4135f6",
        }
        assert {m: digest(trained / f"{m}.bin") for m in expected} == expected

    @pytest.mark.parametrize("method,extra,solvers", [
        # 4 videos of 9 windows of 5 frames: 180 picks of 148 distinct
        # frames, one row each for the first basis, and 36 window rows
        ("hp", [], {"hp_first_basis": ("eig", 148), "basis": ("eig", 36)}),
        # 160 training frames of 32 x 8 VLAD dims: a wide fit
        ("vlad", ["--j", "32"], {"basis": ("gram", 160)}),
    ])
    def test_trained_event_reports_bases(self, dataset, tmp_path, capsys,
                                         method, extra, solvers):
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", method, "--out", tmp_path / "m.bin", *PARAMS,
                   *extra) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "trained"
        # each basis's solver and the rows its eigensolve saw
        assert {k: (v["solver"], v["fit_rows"])
                for k, v in event["bases"].items()} == solvers
        for basis in event["bases"].values():
            assert 0.0 < basis["retained_variance"] <= 1.0
        books = {"codebook"} | ({"hp_second_codebook"} if method == "hp"
                                else set())
        assert set(event["codebooks"]) == books
        for book in event["codebooks"].values():
            assert book["iterations"] >= 1
            assert type(book["converged"]) is bool
            assert type(book["refills"]) is int and book["refills"] >= 0
            assert book["seeding"] in ("gram", "exact")
        assert event["duration_s"] > 0.0

    @pytest.mark.parametrize("bundled", [True, False])
    def test_trained_event_reports_eigensolver(self, dataset, tmp_path,
                                               capsys, monkeypatch, bundled):
        if not bundled:  # numpy on another BLAS: no library handle
            monkeypatch.setattr(core_math, "_openblas", lambda: None)
        elif core_math._openblas() is None:
            pytest.skip("numpy's BLAS is not its bundled scipy-openblas")
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", "vlad", "--out", tmp_path / "m.bin",
                   *PARAMS) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        if bundled:
            assert event["eigensolver"] == "dsyevr"
            assert type(event["blas_threads"]) is int
            assert event["blas_threads"] >= 1
        else:
            assert event["eigensolver"] == "eigh"
            assert event["blas_threads"] is None

    @pytest.mark.parametrize("method", ["vlad", "vlac"])
    def test_trained_event_reports_lfc_fits_and_f32_error(
            self, dataset, tmp_path, capsys, method):
        assert run("train", "--manifest", dataset / "train" / "manifest.json",
                   "--method", method, "--out", tmp_path / "m.bin",
                   *PARAMS) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "trained"
        fits = event["lfc_fits"]
        if method == "vlac":
            # 4 training videos of 40 frames: 9 windows of 5 frames each
            assert fits["fits"] == 36
            assert fits["iterations"] >= fits["fits"]
            assert 0 <= fits["converged"] <= fits["fits"]
            assert fits["refills"] >= 0
            assert 0 <= fits["exact_seeding"] <= fits["fits"]
        else:
            assert fits is None
        model = load_model(tmp_path / "m.bin")
        errors = event["f32_error"]
        assert set(errors) == {"codebook.centers", "codebook.inertia",
                               "basis.rows", "basis.mean",
                               "basis.eigenvalues"}
        for key, error in errors.items():
            name, part = key.split(".")
            stored = np.atleast_2d(getattr(getattr(model, name), part))
            half_ulp = np.spacing(np.float32(np.abs(stored).max())) / 2
            assert math.isfinite(error) and 0.0 <= error <= half_ulp

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

    # vlad used to train on 40-frame videos with 41-frame windows and exit 0,
    # and encode then refused every video
    def test_no_full_window_exit_2(self, dataset, tmp_path, capsys):
        for method in ("vlad", "vlac", "hp"):
            capsys.readouterr()
            assert run("train", "--manifest",
                       dataset / "train" / "manifest.json", "--method",
                       method, "--out", tmp_path / "m.bin", *PARAMS,
                       "--gof-size", "41") == 2, method
            event = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert event["message"] == (
                f"train_{method} requires at least one training group")
            assert not (tmp_path / "m.bin").exists()

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


    @pytest.mark.parametrize("method, kind, magnitude, expected", [
        ("vlad", "additive_gaussian", "0.5",
         "b0a67f48e707750f4174e0956905ff8f735b9cf0249c028dc9a40ae9aba06e72"),
        ("vlac", "component_dropout", "0.3",
         "8d8270d0383a72e5dcb32b1e0beb36e7dada34cc584eae243fccb5360e2abb35"),
        ("hp", "gain", "0.5",
         "a831ec13f2f9c8e13235a790b32a6bbf48155558e95c242849d71820b3e72595"),
    ])
    def test_pinned_perturbed_query_store(self, dataset, trained, tmp_path,
                                          method, kind, magnitude, expected):
        """The query store of a perturbed encode, by sha256: streaming the
        videos keeps each one's ``perturb_seed ^ index`` stream."""
        out = tmp_path / "q.store"
        assert run("encode", "--model", trained / f"{method}.bin",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--queries", "--out", out, "--perturb", kind,
                   "--magnitude", magnitude, "--perturb-seed", "9") == 0
        assert digest(out) == expected

    def test_holds_one_video_at_a_time(self, tmp_path, monkeypatch):
        """tracemalloc, unlike RSS, counts the same bytes on every run."""
        frames, features, dim, videos = 20, 100, 16, 20
        assert run("synth", "--data-root", tmp_path, "--videos", videos,
                   "--train-videos", "2", "--frames", frames, "--dim", dim,
                   "--features-per-frame", features, "--segment-len",
                   "10") == 0
        assert run("train", "--manifest", tmp_path / "train" / "manifest.json",
                   "--method", "vlad", "--out", tmp_path / "m.bin",
                   "--j", "4", "--d", "2") == 0
        video_bytes = frames * features * dim * 8
        held = []

        def measured(video, model):
            held.append(tracemalloc.get_traced_memory()[0])
            return encode_video(video, model)

        monkeypatch.setattr(cli, "encode_video", measured)
        tracemalloc.start()
        try:
            code = run("encode", "--model", tmp_path / "m.bin",
                       "--manifest", tmp_path / "test" / "manifest.json",
                       "--out", tmp_path / "db.store",
                       "--perturb", "additive_gaussian", "--magnitude", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(held) == videos
        # the perturbed video being encoded, and nothing of the others; all
        # 20 clean and noisy videos at once came to 40 videos' bytes
        assert max(held) <= 2 * video_bytes
        # the residual kernel's temporaries add about three videos' bytes
        assert peak <= 6 * video_bytes


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

    def test_threshold_above_scores_empty_body(self, dataset, tmp_path,
                                               stores):
        results = tmp_path / "none.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--threshold", "1e18", "--out", results) == 0
        lines = results.read_text().strip().splitlines()
        assert len(lines) == 1  # header only
        # every query is missed: mAP 0, and no threshold retrieves anything
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            assert float(next(csv.DictReader(fh))["mAP"]) == 0.0
        lines = (tmp_path / "eval_pr.csv").read_text().strip().splitlines()
        assert lines == ["method,D,threshold,precision,recall"]

    def test_minus_inf_threshold_ranks_whole_store(self, tmp_path, stores):
        # "--threshold -inf" reads "-inf" as an option; joined with "=" it
        # is the value that keeps every score, the same ranking as --top-k 0
        cut, whole = tmp_path / "cut.csv", tmp_path / "whole.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--threshold=-inf", "--out", cut) == 0
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store", "--out", whole) == 0
        with open(cut, newline="") as fh:
            rows = list(csv.DictReader(fh))
        queries = {r["query_id"] for r in rows}
        assert queries and len(rows) == 6 * len(queries)
        for query in queries:
            ranked = [r["video_id"] for r in rows if r["query_id"] == query]
            assert len(set(ranked)) == 6
        assert cut.read_bytes() == whole.read_bytes()

    def test_header_only_results_report_unknown_method(self, dataset,
                                                       tmp_path, stores,
                                                       capsys):
        # a header-only results CSV cannot say which method and D made it
        results = tmp_path / "none.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--threshold", "1e18", "--out", results) == 0
        capsys.readouterr()
        assert run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval", "--svg") == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "evaluated"
        assert event["method"] is None and event["d"] is None
        lines = (tmp_path / "eval_map.csv").read_text().splitlines()
        assert lines == ["method,D,mAP", ",,0.0"]

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

    def evaluate_one_hit(self, dataset, tmp_path):
        """``vlac evaluate`` of one query whose source video ranks first,
        with score 0.5; the lines of the PR and mAP files it writes."""
        doc = json.loads((dataset / "queries" / "manifest.json").read_text())
        hit, = doc["queries"] = doc["queries"][:1]
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        results = tmp_path / "top1.csv"
        self.write_results(results, [
            (hit["query_id"], hit["source_video_id"], "0.5")])
        assert run("evaluate", "--results", results, "--queries", truth,
                   "--out-prefix", tmp_path / "eval") == 0
        return [(tmp_path / f"eval_{kind}.csv").read_text().splitlines()
                for kind in ("pr", "map")]

    def test_pr_csv_columns(self, dataset, tmp_path):
        pr, _ = self.evaluate_one_hit(dataset, tmp_path)
        assert pr == ["method,D,threshold,precision,recall",
                      "vlac,4,0.5,1.0,1.0"]

    def test_map_csv_columns(self, dataset, tmp_path):
        _, map_lines = self.evaluate_one_hit(dataset, tmp_path)
        assert map_lines == ["method,D,mAP", "vlac,4,1.0"]

    def test_missed_query_scores_ap_zero(self, dataset, tmp_path):
        # a top-1 ranking: the first query hits its source video, the
        # second ranks the wrong video first; the ground truth holds these
        # two queries, since every query in it is scored
        doc = json.loads((dataset / "queries" / "manifest.json").read_text())
        hit, miss = doc["queries"] = doc["queries"][:2]
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        results = tmp_path / "top1.csv"
        self.write_results(results, [
            (hit["query_id"], hit["source_video_id"], "2.0"),
            (miss["query_id"], hit["source_video_id"], "1.0"),
        ])
        assert run("evaluate", "--results", results, "--queries", truth,
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            assert float(next(csv.DictReader(fh))["mAP"]) == 0.5

    def test_threshold_dropped_query_scores_ap_zero(self, dataset, tmp_path,
                                                    stores):
        # a threshold between the two lowest best scores leaves one query
        # without rows; evaluate still counts it, with AP 0 and no recall
        def search(out, *extra):
            assert run("search", "--store", stores / "db.store",
                       "--queries", stores / "q.store", "--out", out,
                       *extra) == 0
            with open(out, newline="") as fh:
                return list(csv.DictReader(fh))

        best = {}
        for row in search(tmp_path / "all.csv"):
            best[row["query_id"]] = max(best.get(row["query_id"], -math.inf),
                                        float(row["score"]))
        low, second = sorted(best.values())[:2]
        assert low < second
        rows = search(tmp_path / "cut.csv", "--threshold",
                      repr((low + second) / 2))
        queries = json.loads(
            (dataset / "queries" / "manifest.json").read_text())["queries"]
        source = {q["query_id"]: q["source_video_id"] for q in queries}
        flags = {}
        for row in rows:
            flags.setdefault(row["query_id"], []).append(
                row["video_id"] == source[row["query_id"]])
        assert len(flags) == len(source) - 1
        assert run("evaluate", "--results", tmp_path / "cut.csv",
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 0
        with open(tmp_path / "eval_map.csv", newline="") as fh:
            map_value = float(next(csv.DictReader(fh))["mAP"])
        assert map_value == math.fsum(
            average_precision(f, 1) for f in flags.values()) / len(source)
        with open(tmp_path / "eval_pr.csv", newline="") as fh:
            recall = float(list(csv.DictReader(fh))[-1]["recall"])
        assert recall == sum(any(f) for f in flags.values()) / len(source)

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

    def test_pinned_output(self, dataset, tmp_path):
        """The CSV ``vlac stability`` writes for SYNTH and PARAMS at
        magnitude 0.5, by sha256."""
        out = tmp_path / "stab.csv"
        assert run("stability", "--manifest",
                   dataset / "train" / "manifest.json",
                   "--method", "all", "--kind", "additive_gaussian",
                   "--magnitude", "0.5", "--out", out, *PARAMS) == 0
        assert digest(out) == (
            "7b6da02cd3a39e24da11a181daf8c253d38762e05ff3378b9435d4cf06b567b8")

    def test_clean_videos_gone_before_perturbed_training(self, dataset,
                                                         tmp_path,
                                                         monkeypatch):
        """Only one video set is held: when the first basis is fit on
        perturbed videos, no clean video is alive."""
        manifest = dataset / "train" / "manifest.json"
        count = len(json.loads(manifest.read_text())["videos"])
        clean, alive = [], []

        def load(*args, **kwargs):
            video = load_features(*args, **kwargs)
            if len(clean) < count:  # the first read is the clean set
                clean.append(weakref.ref(video))
            return video

        def train(method, videos, params):
            if not alive and not any(ref() is videos[0] for ref in clean):
                alive.append(sum(ref() is not None for ref in clean))
            return real_train(method, videos, params)

        real_train = evaluation.train
        monkeypatch.setattr(cli, "load_features", load)
        monkeypatch.setattr(evaluation, "train", train)
        assert run("stability", "--manifest", manifest, "--magnitude", "0.5",
                   "--out", tmp_path / "stab.csv", *PARAMS) == 0
        assert len(clean) == count and alive == [0]


class TestPipeline:
    def test_pinned_outputs_without_normalize(self, dataset, tmp_path):
        """Every file of train, encode, encode --queries, search and
        evaluate per method for SYNTH and PARAMS without --normalize, the
        setting the benchmark runs, by sha256."""
        params = [p for p in PARAMS if p != "--normalize"]
        queries = dataset / "queries" / "manifest.json"
        for m in ("vlad", "vlac", "hp"):
            model, db, q, res = (tmp_path / f"{m}.{ext}"
                                 for ext in ("bin", "db", "q", "csv"))
            assert run("train", "--manifest", dataset / "train" / "manifest.json",
                       "--method", m, "--out", model, *params) == 0
            assert run("encode", "--model", model, "--manifest",
                       dataset / "test" / "manifest.json", "--out", db) == 0
            assert run("encode", "--model", model, "--queries", "--manifest",
                       queries, "--out", q, "--perturb", "additive_gaussian",
                       "--magnitude", "1.0", "--perturb-seed", "5") == 0
            assert run("search", "--store", db, "--queries", q,
                       "--out", res) == 0
            assert run("evaluate", "--results", res, "--queries", queries,
                       "--out-prefix", tmp_path / f"{m}_eval") == 0
        expected = {
            "vlad.bin": "6cee478e19f306e8c569974c87dad822aae96a4a596291b457ef317cf412ada1",
            "vlad.db": "c348be4a7478e0610e4cfa79f58f1c2da962da22695bcb9d9d455ebdee7c9d21",
            "vlad.q": "1361f05afcc25b3bbe658e1ce98288fcc4efc00c232ccbe3edc62fdf867dfdf8",
            "vlad.csv": "3b9990c06350c0fa1e5884170087578c9cc0f539ef8699e324c32999c13b92cc",
            "vlad_eval_map.csv": "b1fb157e14ca3d2dc57576fd36055df536c04907f505b8a4f9a4ed5374986e18",
            "vlac.bin": "e811b95ae67ecd14c6c7a092e61caf1053e57695bd69295f98a7986d79225c2f",
            "vlac.db": "8530943bbf50a0cfce96ef022fe200717bb8d3b048244e8c3daeb828eb6bf8d9",
            "vlac.q": "f134de1113c3a0abc1ed82659daef8dbdf7ceab4eecc05162d380cca25412cc0",
            "vlac.csv": "72266913f141fa681cd1d3808b1b9dec23655e9f5be75b3077be90d97ba17ca7",
            "vlac_eval_map.csv": "4fc8a086937e185deaf5d4d77f2be901282879753f710c7a1c8b64a2cc9d8228",
            "hp.bin": "e983c2d1676fa0bf3c068ddd7657dfc4ed80b9f04a2da4605ad9469fbfd93b8a",
            "hp.db": "125cddc422d869d5f7fd395a47edc92c6dfd083e188d7f47a05e36899980807c",
            "hp.q": "84d43fb9cec28b024c212cb646756495b8252b0e8fa92fcf6441e60382b731f5",
            "hp.csv": "0ba172fbf0538093ea6f921fd4f5e170e3de1f48e91c7ac19587599bfbdd5974",
            "hp_eval_map.csv": "190e0901d61b807ea7b15ee08f7fc5ebfd763d946c455b7ef239c381efbfbf54",
        }
        assert {name: digest(tmp_path / name) for name in expected} == expected


class TestEvents:
    def test_every_command_reports_duration(self, dataset, stores, tmp_path,
                                            capsys):
        train_manifest = dataset / "train" / "manifest.json"
        capsys.readouterr()
        assert run(*SYNTH, "--data-root", tmp_path / "data") == 0
        assert run("train", "--manifest", train_manifest, "--method", "vlac",
                   "--out", tmp_path / "m.bin", *PARAMS) == 0
        assert run("encode", "--model", tmp_path / "m.bin",
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", tmp_path / "db.store") == 0
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--out", tmp_path / "r.csv") == 0
        assert run("evaluate", "--results", tmp_path / "r.csv",
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval") == 0
        assert run("stability", "--manifest", train_manifest,
                   "--magnitude", "0.5", "--out", tmp_path / "s.csv",
                   *PARAMS) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == [
            "synthesized", "trained", "encoded", "searched", "evaluated",
            "stability", "stability", "stability", "stability"]
        for event in events:
            assert event["duration_s"] > 0.0, event["event"]
        # the process high-water mark: positive, and never falling
        peaks = [e["peak_rss_mb"] for e in events
                 if e["event"] in ("trained", "encoded", "stability")]
        assert len(peaks) == 6
        assert 0.0 < peaks[0] and peaks == sorted(peaks)


    def test_synth_reports_draw_and_write_times(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(*SYNTH, "--data-root", tmp_path) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "synthesized"
        assert event["draw_s"] > 0.0 and event["write_s"] > 0.0
        assert event["draw_s"] + event["write_s"] <= event["duration_s"]
        assert event["features"] == 10 * 40 * 10  # videos x frames x F

    def test_search_reports_latency_and_margin(self, stores, tmp_path,
                                               capsys):
        capsys.readouterr()
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--out", tmp_path / "r.csv") == 0
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "searched"
        for name in ("retrieve_p50_ms", "retrieve_p90_ms", "top_margin_min",
                     "top_margin_median"):
            assert math.isfinite(event[name]), name
        assert 0 < event["retrieve_p50_ms"] <= event["retrieve_p90_ms"]
        assert 0 <= event["top_margin_min"] <= event["top_margin_median"]


# NaN dropout used to leave every feature in place; NaN noise and an
# infinite gain used to fail later, blaming the video's features
NON_FINITE_MAGNITUDES = [("component_dropout", "nan"),
                         ("additive_gaussian", "nan"), ("gain", "inf")]


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
            video = load_features(dataset / "queries" / entry["feature_file"])
            write_features(video, tmp_path / entry["feature_file"])
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        bad = tmp_path / doc["queries"][0]["feature_file"]
        video = load_features(bad)
        video.features[video.offsets[2] + 1, 3] = SENTINEL
        write_features(video, bad, overwrite=True)
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

    # a store that held v0 twice used to rank v0 twice and exit 0, and
    # evaluate then refused the results CSV
    def test_repeated_store_id_exit_2(self, tmp_path, capsys):
        one = tmp_path / "one.store"
        write_store([DescriptorSequence("v0", np.ones((2, 3)), "vlac")], one)
        twice = tmp_path / "twice.store"
        twice.write_bytes(one.read_bytes() + one.read_bytes()[8:])
        capsys.readouterr()
        for store, queries in ((twice, one), (one, twice)):
            assert run("search", "--store", store, "--queries", queries,
                       "--out", tmp_path / "r.csv") == 2
            event = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert "repeats video id 'v0'" in event["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_model_shape_mismatch_exit_2(self, dataset, trained, tmp_path):
        model = tmp_path / "vlad.bin"
        model.write_bytes((trained / "vlad.bin").read_bytes())
        set_model_param(model, "j", 9)
        assert run("encode", "--model", model,
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", tmp_path / "db.store") == 2

    @staticmethod
    def error_message(capsys):
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert events[-1]["event"] == "error"
        return events[-1]["message"]

    @pytest.mark.parametrize("kind,magnitude", NON_FINITE_MAGNITUDES)
    def test_non_finite_magnitude_encode_exit_2(self, dataset, trained,
                                                tmp_path, capsys, kind,
                                                magnitude):
        out = tmp_path / "q.store"
        assert run("encode", "--model", trained / "vlac.bin", "--queries",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--out", out, "--perturb", kind,
                   "--magnitude", magnitude) == 2
        assert "magnitude" in self.error_message(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("kind,magnitude", NON_FINITE_MAGNITUDES)
    def test_non_finite_magnitude_stability_exit_2(self, dataset, tmp_path,
                                                   capsys, kind, magnitude):
        out = tmp_path / "stab.csv"
        assert run("stability", "--manifest",
                   dataset / "train" / "manifest.json", "--method", "sift",
                   "--kind", kind, "--magnitude", magnitude,
                   "--out", out, *PARAMS) == 2
        assert "magnitude" in self.error_message(capsys)
        assert not out.exists()

    # a seed outside u32 must not alias one inside it: reduced modulo
    # 2**32, 4294967296 would draw seed 0's noise
    def test_out_of_range_perturb_seed_encode_exit_2(self, dataset, trained,
                                                     tmp_path, capsys):
        out = tmp_path / "q.store"
        assert run("encode", "--model", trained / "vlad.bin", "--queries",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--out", out, "--perturb", "gain", "--magnitude", "0.5",
                   "--perturb-seed", "4294967296") == 2
        assert "seed" in self.error_message(capsys)
        assert not out.exists()

    def test_out_of_range_perturb_seed_stability_exit_2(self, dataset,
                                                        tmp_path, capsys):
        out = tmp_path / "stab.csv"
        assert run("stability", "--manifest",
                   dataset / "train" / "manifest.json", "--method", "sift",
                   "--kind", "gain", "--magnitude", "0.5",
                   "--perturb-seed", "-1", "--out", out, *PARAMS) == 2
        assert "seed" in self.error_message(capsys)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_perturbation_exit_2(self, dataset, trained,
                                             tmp_path, capsys):
        out = tmp_path / "q.store"
        assert run("encode", "--model", trained / "vlac.bin", "--queries",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--out", out, "--perturb", "gain",
                   "--magnitude", "1e308") == 2
        message = self.error_message(capsys)
        assert "gain" in message and "1e+308" in message
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_overflowing_norm_exit_2(self, dataset, trained, tmp_path,
                                     capsys, method):
        # finite perturbed features whose squared norms overflow used to
        # be assigned to center 0 and encoded without complaint
        out = tmp_path / "q.store"
        assert run("encode", "--model", trained / f"{method}.bin",
                   "--queries",
                   "--manifest", dataset / "queries" / "manifest.json",
                   "--out", out, "--perturb", "additive_gaussian",
                   "--magnitude", "1e300") == 2
        assert self.error_message(capsys) == (
            "points have a squared norm beyond float64's range")
        assert not out.exists()

    def test_nan_threshold_exit_2(self, stores, tmp_path):
        results = tmp_path / "r.csv"
        assert run("search", "--store", stores / "db.store",
                   "--queries", stores / "q.store",
                   "--threshold", "nan", "--out", results) == 2
        assert not results.exists()

    @pytest.mark.parametrize("h", [0, 9])
    def test_hp_h_out_of_range_exit_2(self, dataset, trained, tmp_path, h):
        model = tmp_path / "hp.bin"
        model.write_bytes((trained / "hp.bin").read_bytes())
        set_model_param(model, "h", h)  # PARAMS train with d0 = 8
        assert run("encode", "--model", model,
                   "--manifest", dataset / "test" / "manifest.json",
                   "--out", tmp_path / "db.store") == 2
        assert not (tmp_path / "db.store").exists()

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

    # PARAMS train on 8-dim features, so "8.7", "8" and true would pass
    # as 8, 8 and 1 under int(); 1e400 is inf and 10**400 an int
    @pytest.mark.parametrize("field, text", [
        ("feature_dim", "1e400"), ("feature_dim", "8.7"),
        ("feature_dim", '"8"'), ("feature_dim", "true"),
        ("fps_sampled", "NaN"), ("fps_sampled", "1e400"),
        ("fps_sampled", "-1"), ("fps_sampled", "1" + "0" * 400),
    ], ids=["dim_overflow", "dim_float", "dim_string", "dim_bool",
            "fps_nan", "fps_inf", "fps_negative", "fps_huge_int"])
    def test_loosely_typed_manifest_value_exit_2(self, dataset, tmp_path,
                                                 capsys, field, text):
        doc = json.loads((dataset / "train" / "manifest.json").read_text())
        for video in doc["videos"]:  # so only the planted value can fail
            video["feature_file"] = str(
                dataset / "train" / video["feature_file"])
        (doc if field == "feature_dim" else doc["videos"][0])[field] = "PLANT"
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc).replace('"PLANT"', text))
        capsys.readouterr()
        assert run("train", "--manifest", bad, "--method", "vlad",
                   "--out", tmp_path / "m.bin", *PARAMS) == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["kind"] == "data" and field in event["message"]
        assert not (tmp_path / "m.bin").exists()

    def test_whole_number_fps_loads_as_float(self, dataset, tmp_path):
        doc = json.loads((dataset / "train" / "manifest.json").read_text())
        for video in doc["videos"]:
            video["feature_file"] = str(
                dataset / "train" / video["feature_file"])
            video["fps_sampled"] = 0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert cli.load_manifest(path).videos[0].fps_sampled == 0.0
        assert run("train", "--manifest", path, "--method", "vlad",
                   "--out", tmp_path / "m.bin", *PARAMS) == 0

    @pytest.mark.parametrize("reader", ["manifest", "config"])
    def test_deeply_nested_json_exit_2(self, dataset, tmp_path, capsys,
                                       reader):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "]" * 100_000)
        manifest, config = dataset / "train" / "manifest.json", []
        if reader == "manifest":
            manifest = nested
        else:
            config = ["--config", nested]
        capsys.readouterr()
        assert run("train", "--manifest", manifest, "--method", "vlad",
                   "--out", tmp_path / "m.bin", *config) == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["kind"] == "data" and "nested" in event["message"]


class TestResultsCsv:
    """``vlac evaluate`` refuses a results CSV that ``vlac search`` cannot
    have written."""

    @staticmethod
    def evaluate(dataset, tmp_path, lines):
        query = json.loads((dataset / "queries" / "manifest.json")
                           .read_text())["queries"][0]
        results = tmp_path / "results.csv"
        results.write_text("\n".join(
            [",".join(RESULTS_CSV_COLUMNS)]
            + [line.format(q=query["query_id"], v=query["source_video_id"])
               for line in lines]) + "\n")
        code = run("evaluate", "--results", results,
                   "--queries", dataset / "queries" / "manifest.json",
                   "--out-prefix", tmp_path / "eval")
        assert (tmp_path / "eval_map.csv").exists() == (code == 0)
        return code

    def test_well_formed_rows_accepted(self, dataset, tmp_path):
        assert self.evaluate(dataset, tmp_path, [
            "{q},1,{v},2.0,0,vlac,4", "{q},2,other,1.0,0,vlac,4",
        ]) == 0

    def test_short_row_exit_2(self, dataset, tmp_path):
        assert self.evaluate(dataset, tmp_path, ["{q},1,{v}"]) == 2

    @pytest.mark.parametrize("second", ["{q},2,other,1.0,0,vlad,4",
                                        "{q},2,other,1.0,0,vlac,8"],
                             ids=["method", "D"])
    def test_second_method_or_d_exit_2(self, dataset, tmp_path, second):
        assert self.evaluate(dataset, tmp_path, [
            "{q},1,{v},2.0,0,vlac,4", second,
        ]) == 2

    def test_repeated_video_exit_2(self, dataset, tmp_path):
        assert self.evaluate(dataset, tmp_path, [
            "{q},1,other,2.0,0,vlac,4", "{q},2,other,1.0,0,vlac,4",
        ]) == 2

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 3), (2, 3)],
                             ids=["repeated", "gap", "not_from_one"])
    def test_ranks_out_of_order_exit_2(self, dataset, tmp_path, ranks):
        assert self.evaluate(dataset, tmp_path, [
            f"{{q}},{ranks[0]},{{v}},2.0,0,vlac,4",
            f"{{q}},{ranks[1]},other,1.0,0,vlac,4",
        ]) == 2

    # a field over the csv module's 131,072-character limit used to escape
    # as _csv.Error, and a bad rank, D or score to name neither file nor line
    @pytest.mark.parametrize("line", [
        "{q},1.5,{v},2.0,0,vlac,4", "{q},1,{v},2.0,0,vlac,x",
        "{q},1,{v},abc,0,vlac,4", "{q},1,{v},2.0,0,vlac,4," + "x" * 131_073,
    ], ids=["rank", "D", "score", "oversized_field"])
    def test_unparsable_field_names_file_and_line(self, dataset, tmp_path,
                                                  capsys, line):
        capsys.readouterr()
        assert self.evaluate(dataset, tmp_path, [line]) == 2
        event = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert event["event"] == "error"
        assert event["message"].startswith(
            f"results CSV {tmp_path / 'results.csv'} line 2")


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
            assert load_config(args) == replace(params, f=0)

    @settings(max_examples=30, deadline=None)
    @given(valid_params(), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    def test_model_header_keeps_every_field(self, params, f, j, d):
        # f, j and d fix the shapes of a vlad model's arrays, which
        # load_model checks; the fields of other methods are stored as 0,
        # and every other field may take any u32 value
        params = replace(params, f=f, j=j, d=d).for_method("vlad")
        model = TrainedModel(
            method="vlad", params=params,
            codebook=Codebook(centers=np.ones((j, f)), inertia=0.0),
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
