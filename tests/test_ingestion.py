import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _helpers import (
    MUTATIONS,
    SENTINEL,
    make_video,
    mutate,
    poison,
    synthesize_by_choice,
    write_features_by_frame,
)
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
from vlac.core_math import _choice_indices
from vlac.errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    TruncatedFile,
    VideoTooShort,
)
from vlac.ingestion import (
    PERTURBATION_KINDS,
    QueryEntry,
    VideoEntry,
    save_manifest,
)


def write_synthetic(out_dir, num_videos, frames_per_video, dim, clusters,
                    seed):
    """Synthesize videos, write them as a dataset, return the manifest and
    the in-memory videos."""
    data = synthesize_videos(num_videos, frames_per_video, dim, clusters, seed)
    ids = [f"video_{v:03d}" for v in range(num_videos)]
    manifest = write_dataset(out_dir, ids, data.videos, fps_sampled=1.0 / 3.0,
                             notes="")
    return manifest, data.videos


@st.composite
def feature_videos(draw):
    """A small video: 1-6 frames of 0-4 features each, dim 1-4, frame
    indices increasing by 1-3 from 0-2."""
    dim = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    steps = draw(st.lists(st.integers(1, 3), min_size=len(counts),
                          max_size=len(counts)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Video.from_frames(
        [rng.normal(0.0, 10.0, size=(count, dim)) for count in counts],
        np.cumsum(steps) - 1,
    )


def vfeat_u32_fields(video):
    """Byte offsets of every u32 in ``video``'s VLACFEAT file: the dim and
    frame count, then each frame's index and feature count."""
    at = [10, 14]
    pos = 18
    for t in range(len(video)):
        at += [pos, pos + 4]
        pos += 8 + 4 * video.dim * int(video.offsets[t + 1] - video.offsets[t])
    return at



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

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_writer_names_the_first_bad_frame(self, tmp_path, value):
        video = make_video(np.random.default_rng(6), 5, 3, start_index=10)
        video.features[video.offsets[2] + 1, 0] = value
        video.features[video.offsets[4], 2] = value
        with pytest.raises(DataError,
                           match="frame 12 holds a non-finite value"):
            write_features(video, tmp_path / "bad.vfeat")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(video=feature_videos(), data=st.data(),
           value=st.sampled_from([np.nan, np.inf, -np.inf, 1e39]))
    def test_writer_names_the_frame_the_reference_names(self, video, data,
                                                        value):
        assume(video.features.size > 0)
        row = data.draw(st.integers(0, video.features.shape[0] - 1))
        col = data.draw(st.integers(0, video.dim - 1))
        video.features[row, col] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.vfeat"
            with pytest.raises(DataError) as reference:
                write_features_by_frame(video, path)
            with pytest.raises(DataError) as ours:
                write_features(video, path)
            assert str(ours.value) == str(reference.value)
            assert list(Path(tmp).iterdir()) == []

    @pytest.mark.parametrize("index", [[-1, 0], [0, 2**32]])
    def test_writer_refuses_a_frame_index_beyond_u32(self, tmp_path, index):
        video = Video.from_frames([np.ones((1, 2))] * 2, index)
        bad = next(i for i in index if not 0 <= i < 2**32)
        with pytest.raises(DataError, match=f"frame index {bad} "):
            write_features(video, tmp_path / "bad.vfeat")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=80, deadline=None)
    @given(video=feature_videos())
    def test_writer_matches_frame_by_frame_reference(self, video):
        with tempfile.TemporaryDirectory() as tmp:
            ours, reference = Path(tmp) / "a.vfeat", Path(tmp) / "b.vfeat"
            write_features(video, ours)
            write_features_by_frame(video, reference)
            assert ours.read_bytes() == reference.read_bytes()
            loaded = load_features(ours)
        # a loaded video keeps the file's float32 values
        assert loaded.features.dtype == np.float32
        assert np.array_equal(loaded.features,
                              video.features.astype(np.float32))
        assert np.array_equal(loaded.offsets, video.offsets)
        assert np.array_equal(loaded.frame_index, video.frame_index)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None)
    @given(video=feature_videos(), kind=st.sampled_from(MUTATIONS),
           where=st.integers(0, 2**16), bit=st.integers(0, 7),
           value=st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)))
    def test_mutated_file_loads_or_raises_data_error(self, video, kind,
                                                     where, bit, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vfeat"
            write_features(video, path)
            path.write_bytes(mutate(path.read_bytes(), kind, where, bit,
                                    value, vfeat_u32_fields(video)))
            try:
                load_features(path)
            except DataError:
                pass

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


# Dirichlet weights (concentration 0.01, seed 1) with an exact zero and a
# cumulative sum that ends at 0.9999999999999999, not 1.0
SPARSE_WEIGHTS = np.random.default_rng(1).dirichlet(np.full(12, 0.01))

weight_vectors = st.one_of(
    st.builds(
        lambda seed, k, alpha: np.random.default_rng(seed).dirichlet(
            np.full(k, alpha)),
        st.integers(0, 2**32 - 1), st.integers(1, 40),
        st.sampled_from([0.003, 0.01, 0.3, 1.0, 5.0])),
    st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]), min_size=1,
             max_size=12)
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: np.array(w) / sum(w)),
)


class TestSynthesize:
    def test_sparse_weights_are_the_edge_cases(self):
        assert (SPARSE_WEIGHTS == 0.0).any()
        assert np.cumsum(SPARSE_WEIGHTS)[-1] != 1.0

    @settings(max_examples=200, deadline=None)
    @given(weights=weight_vectors, count=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    @example(weights=SPARSE_WEIGHTS, count=40, seed=7)
    @example(weights=np.full(10, 0.1), count=25, seed=8)
    def test_picks_follow_generator_choice(self, weights, count, seed):
        # synthesis picks clusters, and k-means++ seeding its rows, from
        # uniforms they draw themselves (the seeding one at a time, with
        # zero weights for the rows already drawn); a numpy whose choice
        # draws otherwise must fail here rather than let every synthesized
        # byte and every fit drift
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        picks = _choice_indices(weights, ours.random(count))
        expected = theirs.choice(weights.shape[0], size=count, p=weights)
        assert np.array_equal(picks, expected)
        assert (_choice_indices(weights, ours.random())
                == theirs.choice(weights.shape[0], p=weights))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(num_videos=st.integers(1, 3), frames=st.integers(1, 4),
           dim=st.integers(1, 3), clusters=st.integers(1, 6),
           features_per_frame=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_frame_choice_reference(
            self, num_videos, frames, dim, clusters, features_per_frame,
            seed):
        args = (num_videos, frames, dim, clusters, seed)
        data = synthesize_videos(*args, features_per_frame=features_per_frame)
        reference = synthesize_by_choice(
            *args, features_per_frame=features_per_frame)
        assert np.array_equal(data.mixing_weights, reference.mixing_weights)
        for video, expected in zip(data.videos, reference.videos, strict=True):
            assert video.features.tobytes() == expected.features.tobytes()
            assert np.array_equal(video.offsets, expected.offsets)

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
        out = list(perturb_videos(videos, spec))
        delta0 = out[0].features - videos[0].features
        delta1 = out[1].features - videos[1].features
        assert not np.allclose(delta0, delta1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["additive_gaussian", "gain"])
    def test_overflow_names_the_perturbation(self, kind):
        video = make_video(np.random.default_rng(11), 3, 4)
        spec = PerturbationSpec(kind=kind, magnitude=1e308, seed=0)
        with pytest.raises(DataError, match=f"{kind} .* 1e\\+308"):
            perturb(video, spec)

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            PerturbationSpec(kind="blur", magnitude=0.1, seed=0)
        with pytest.raises(DataError):
            PerturbationSpec(kind="gain", magnitude=-1.0, seed=0)
        with pytest.raises(DataError):
            PerturbationSpec(kind="component_dropout", magnitude=1.5, seed=0)
        for kind in PERTURBATION_KINDS:
            for magnitude in (np.nan, np.inf):
                with pytest.raises(DataError, match="finite"):
                    PerturbationSpec(kind=kind, magnitude=magnitude, seed=0)
        for seed in (-1, 2**32, 1.0):
            with pytest.raises(DataError, match="seed"):
                PerturbationSpec(kind="gain", magnitude=0.5, seed=seed)

    @pytest.mark.parametrize("magnitude", ["0.5", None, True])
    def test_magnitude_must_be_a_real_number(self, magnitude):
        # np.isfinite cannot take a string or None, and True would read as 1
        with pytest.raises(DataError, match="magnitude must be a real number"):
            PerturbationSpec(kind="gain", magnitude=magnitude, seed=0)


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

    def test_last_video_too_short_writes_nothing(self, tmp_path):
        # the first two segments used to be written before the third raised
        manifest, videos = self.make_dataset(tmp_path)
        videos = [*videos[:2], make_video(np.random.default_rng(5), 3, 2)]
        with pytest.raises(VideoTooShort):
            make_queries(manifest, videos, tmp_path / "q",
                         segment_len_frames=4, offset_frames=0, seed=0)
        assert not (tmp_path / "q").exists()


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

    @pytest.mark.parametrize("fps", [np.nan, np.inf, -1.0, True, "1.0", None])
    def test_non_finite_value_refused(self, fps):
        # both entry types refuse it, and any other value the loader
        # refuses, so no manifest can hold it
        with pytest.raises(DataError, match="fps_sampled must be a finite"):
            VideoEntry("v0", "v0.vfeat", fps, "clean")
        with pytest.raises(DataError, match="fps_sampled must be a finite"):
            QueryEntry("v0_q", "v0_q.vfeat", fps, "clean", "v0", 0)

    def test_entries_store_fps_as_float(self):
        for fps in (2, np.float64(0.5), np.int64(3)):
            assert type(VideoEntry("v", "v.vfeat", fps, "x").fps_sampled) is float
            query = QueryEntry("q", "q.vfeat", fps, "x", "v", 0)
            assert type(query.fps_sampled) is float

    # fps_sampled=-1.0 used to write both feature files and a manifest that
    # load_manifest refused, and ids ["a", "a"] raised only after a.vfeat
    @pytest.mark.parametrize("ids,fps", [(["a", "b"], -1.0),
                                         (["a", "b"], np.nan),
                                         (["a", "a"], 1.0)])
    def test_write_dataset_refuses_before_writing(self, tmp_path, ids, fps):
        rng = np.random.default_rng(4)
        videos = [make_video(rng, 3, 2) for _ in ids]
        with pytest.raises(DataError):
            write_dataset(tmp_path / "d", ids, videos, fps_sampled=fps,
                          notes="")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            DatasetManifest(
                videos=(VideoEntry("v", "a.vfeat", 1.0, "x"),
                        VideoEntry("v", "b.vfeat", 1.0, "x")),
                feature_dim=2,
            )
