import json

import numpy as np
import pytest

from _helpers import SENTINEL, make_video, poison
from vlac import (
    DatasetManifest,
    PerturbationSpec,
    Video,
    load_features,
    load_manifest,
    load_query_manifest,
    make_queries,
    perturb,
    perturb_videos,
    synthesize_videos,
    write_dataset,
    write_features,
)
from vlac.errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    TruncatedFile,
    VideoTooShort,
)
from vlac.ingestion import VideoEntry, save_manifest


def write_synthetic(out_dir, num_videos, frames_per_video, dim, clusters,
                    seed):
    """Synthesize videos, write them as a dataset, return the manifest and
    the in-memory videos."""
    data = synthesize_videos(num_videos, frames_per_video, dim, clusters, seed)
    ids = [f"video_{v:03d}" for v in range(num_videos)]
    manifest = write_dataset(out_dir, ids, data.videos, fps_sampled=1.0 / 3.0,
                             notes="")
    return manifest, data.videos


class TestFeatureFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        video = make_video(rng, 5, 3, features_per_frame=4)
        path = tmp_path / "x.vfeat"
        write_features(video, path)
        # float32 payload: a second write of the loaded frames must be
        # byte-identical
        loaded = load_features(path)
        path2 = tmp_path / "y.vfeat"
        write_features(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.array_equal(loaded.frame_index, video.frame_index)

    def test_random_shapes_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(10):
            dim = int(rng.integers(1, 6))
            video = Video.from_frames([
                rng.normal(size=(int(rng.integers(0, 5)), dim))
                for t in range(int(rng.integers(1, 6)))
            ])
            path = tmp_path / f"t{trial}.vfeat"
            write_features(video, path)
            loaded = load_features(path)
            assert len(loaded) == len(video)
            assert np.array_equal(loaded.frame_index, video.frame_index)
            assert np.array_equal(loaded.offsets, video.offsets)
            np.testing.assert_array_equal(
                video.features.astype(np.float32),
                loaded.features.astype(np.float32)
            )

    def test_empty_frame_record(self, tmp_path):
        video = Video.from_frames([np.empty((0, 2)), np.ones((2, 2))])
        path = tmp_path / "k0.vfeat"
        write_features(video, path)
        loaded = load_features(path)
        assert loaded.offsets.tolist() == [0, 0, 2]
        assert loaded.dim == 2

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.vfeat"
        write_features(make_video(rng, 2, 2), path)
        data = path.read_bytes()
        # keep the header (frame_count=2) but drop the second record
        short = tmp_path / "short.vfeat"
        short.write_bytes(data[: len(data) - 1])
        with pytest.raises(TruncatedFile):
            load_features(short)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_a_later_frame(self, tmp_path, value):
        rng = np.random.default_rng(5)
        video = make_video(rng, 4, 3)
        video.features[video.offsets[3] + 2, 1] = SENTINEL
        path = tmp_path / "p.vfeat"
        write_features(video, path)
        poison(path, value)
        with pytest.raises(DataError, match="p.vfeat"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vfeat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            load_features(path)

    def test_manifest_dimension_check(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "d.vfeat"
        write_features(make_video(rng, 2, 3), path)
        with pytest.raises(DimensionMismatch):
            load_features(path, expected_dim=4)

    def test_overwrite_guard(self, tmp_path):
        rng = np.random.default_rng(4)
        video = make_video(rng, 2, 2)
        path = tmp_path / "o.vfeat"
        write_features(video, path)
        with pytest.raises(FileExistsError):
            write_features(video, path)
        write_features(video, path, overwrite=True)


class TestSynthesize:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            write_synthetic(out, num_videos=3, frames_per_video=4, dim=3,
                            clusters=2, seed=11)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self):
        x = synthesize_videos(2, 3, 4, 2, seed=0)
        y = synthesize_videos(2, 3, 4, 2, seed=1)
        mean_x = np.concatenate([v.features for v in x.videos]).mean(axis=0)
        mean_y = np.concatenate([v.features for v in y.videos]).mean(axis=0)
        assert not np.allclose(mean_x, mean_y)

    def test_single_cluster_zero_variance(self):
        data = synthesize_videos(2, 3, 4, clusters=1, seed=5, noise_std=0.0)
        for video in data.videos:
            np.testing.assert_array_equal(
                video.features, np.broadcast_to(
                    data.cluster_means[0], video.features.shape)
            )

    def test_video_means_follow_mixing_weights(self):
        # pooled video mean approaches sum_c w_c * mean_c; with
        # well-separated means two videos with different weights sit
        # further apart than the within-cluster noise
        data = synthesize_videos(
            2, 30, 8, clusters=4, seed=6, features_per_frame=40,
            center_spread=25.0, noise_std=0.5,
        )
        expected = data.mixing_weights @ data.cluster_means
        for v, video in enumerate(data.videos):
            err = np.linalg.norm(video.features.mean(axis=0) - expected[v])
            assert err < 5.0  # sampling error of the mixture, not spread
        separation = np.linalg.norm(expected[0] - expected[1])
        assert separation > data.noise_std

    def test_manifest_written(self, tmp_path):
        manifest, _ = write_synthetic(
            tmp_path, num_videos=2, frames_per_video=3, dim=2, clusters=2,
            seed=0,
        )
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == manifest
        assert loaded.feature_dim == 2
        assert len(loaded.videos) == 2


class TestPerturb:
    @pytest.mark.parametrize("kind", ["additive_gaussian", "component_dropout",
                                      "gain"])
    def test_zero_magnitude_is_identity(self, kind):
        rng = np.random.default_rng(7)
        video = make_video(rng, 3, 4)
        out = perturb(video, PerturbationSpec(kind=kind, magnitude=0.0, seed=3))
        np.testing.assert_array_equal(out.features, video.features)
        np.testing.assert_array_equal(out.offsets, video.offsets)

    def test_gain_doubles(self):
        rng = np.random.default_rng(8)
        video = make_video(rng, 2, 3)
        out = perturb(video, PerturbationSpec(kind="gain", magnitude=1.0, seed=0))
        np.testing.assert_allclose(out.features, video.features * 2.0)

    def test_gaussian_empirical_std(self):
        video = Video.from_frames([np.zeros((100, 100))])
        out = perturb(
            video,
            PerturbationSpec(kind="additive_gaussian", magnitude=0.1, seed=1),
        )
        std = out.features.std()
        assert 0.097 <= std <= 0.103

    def test_dropout_probability(self):
        video = Video.from_frames([np.ones((100, 100))])
        out = perturb(
            video,
            PerturbationSpec(kind="component_dropout", magnitude=0.25, seed=2),
        )
        frac = float((out.features == 0.0).mean())
        assert 0.22 <= frac <= 0.28

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        video = make_video(rng, 3, 4)
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.5, seed=10)
        a = perturb(video, spec)
        b = perturb(video, spec)
        np.testing.assert_array_equal(a.features, b.features)

    def test_videos_decorrelated(self):
        rng = np.random.default_rng(10)
        videos = [make_video(rng, 2, 3), make_video(rng, 2, 3)]
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=1.0, seed=0)
        out = perturb_videos(videos, spec)
        delta0 = out[0].features - videos[0].features
        delta1 = out[1].features - videos[1].features
        assert not np.allclose(delta0, delta1)

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            PerturbationSpec(kind="blur", magnitude=0.1, seed=0)
        with pytest.raises(DataError):
            PerturbationSpec(kind="gain", magnitude=-1.0, seed=0)
        with pytest.raises(DataError):
            PerturbationSpec(kind="component_dropout", magnitude=1.5, seed=0)


class TestMakeQueries:
    def make_dataset(self, tmp_path, frames_per_video=10):
        return write_synthetic(
            tmp_path, num_videos=3, frames_per_video=frames_per_video,
            dim=2, clusters=2, seed=21,
        )

    def test_full_video_query(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path)
        qdir = tmp_path / "q"
        qmanifest = make_queries(manifest, videos, qdir,
                                 segment_len_frames=10, offset_frames=0,
                                 seed=0)
        for q, v in zip(qmanifest.queries, manifest.videos):
            query = load_features(qdir / q.feature_file)
            video = load_features(tmp_path / v.feature_file)
            assert q.start_frame == 0
            assert len(query) == len(video)
            np.testing.assert_array_equal(query.offsets, video.offsets)
            np.testing.assert_array_equal(query.features, video.features)

    def test_deterministic_bytes(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path)
        qa, qb = tmp_path / "qa", tmp_path / "qb"
        for qdir in (qa, qb):
            make_queries(manifest, videos, qdir, segment_len_frames=4,
                         offset_frames=1, seed=9)
        for name in sorted(p.name for p in qa.iterdir()):
            assert (qa / name).read_bytes() == (qb / name).read_bytes()

    def test_ground_truth_linkage(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path)
        qmanifest = make_queries(manifest, videos, tmp_path / "q",
                                 segment_len_frames=4, offset_frames=1,
                                 seed=1)
        assert len(qmanifest.queries) == 3
        assert [q.source_video_id for q in qmanifest.queries] == [
            v.video_id for v in manifest.videos
        ]

    def test_query_frames_reindexed(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path)
        qmanifest = make_queries(manifest, videos, tmp_path / "q",
                                 segment_len_frames=4, offset_frames=2,
                                 seed=2)
        query = load_features(tmp_path / "q" / qmanifest.queries[0].feature_file)
        assert query.frame_index.tolist() == [0, 1, 2, 3]
        entry = manifest.videos[0]
        video = load_features(tmp_path / entry.feature_file)
        start = qmanifest.queries[0].start_frame
        rows = video.rows(start, start + 4)
        np.testing.assert_array_equal(query.features, video.features[rows])
        np.testing.assert_array_equal(
            query.offsets, video.offsets[start:start + 5] - rows.start)

    def test_video_too_short(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path, frames_per_video=3)
        with pytest.raises(VideoTooShort):
            make_queries(manifest, videos, tmp_path / "q",
                         segment_len_frames=4, offset_frames=0, seed=0)


class TestManifests:
    def test_json_round_trip(self, tmp_path):
        manifest, _ = write_synthetic(
            tmp_path, num_videos=2, frames_per_video=3, dim=2, clusters=2,
            seed=1,
        )
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == manifest

    def test_exact_field_names(self, tmp_path):
        write_synthetic(tmp_path, num_videos=1, frames_per_video=3, dim=2,
                        clusters=2, seed=1)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert set(doc) == {"videos", "feature_dim", "notes"}
        assert set(doc["videos"][0]) == {
            "video_id", "feature_file", "fps_sampled", "label"
        }

    def test_query_manifest_fields(self, tmp_path):
        manifest, videos = write_synthetic(
            tmp_path, num_videos=1, frames_per_video=6, dim=2, clusters=2,
            seed=1,
        )
        make_queries(manifest, videos, tmp_path / "q",
                     segment_len_frames=3, offset_frames=0, seed=0)
        doc = json.loads((tmp_path / "q" / "manifest.json").read_text())
        assert set(doc) == {"queries", "feature_dim", "notes"}
        assert set(doc["queries"][0]) == {
            "query_id", "feature_file", "fps_sampled", "label",
            "source_video_id", "start_frame",
        }
        loaded = load_query_manifest(tmp_path / "q" / "manifest.json")
        assert loaded.queries[0].query_id == doc["queries"][0]["query_id"]

    def test_missing_file_detected(self, tmp_path):
        manifest = DatasetManifest(
            videos=(VideoEntry("v0", "gone.vfeat", 1.0, "clean"),),
            feature_dim=2,
        )
        save_manifest(manifest, tmp_path / "m.json")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.json")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            DatasetManifest(
                videos=(VideoEntry("v", "a.vfeat", 1.0, "x"),
                        VideoEntry("v", "b.vfeat", 1.0, "x")),
                feature_dim=2,
            )
