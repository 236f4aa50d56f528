import json
import re
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
    QueryManifest,
    VideoEntry,
    save_manifest,
)


def write_synthetic(out_dir, num_videos, frames_per_video, dim, clusters,
                    seed):
    """Synthesize videos, write them as a dataset, return the manifest and
    the in-memory videos."""
    videos = tuple(synthesize_videos(num_videos, frames_per_video, dim,
                                     clusters, seed))
    ids = [f"video_{v:03d}" for v in range(num_videos)]
    manifest = write_dataset(out_dir, ids, videos, fps_sampled=1.0 / 3.0,
                             notes="")
    return manifest, videos


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
        videos = synthesize_videos(*args,
                                   features_per_frame=features_per_frame)
        reference, _, _ = synthesize_by_choice(
            *args, features_per_frame=features_per_frame)
        for video, expected in zip(videos, reference, strict=True):
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
        mean_x = np.concatenate([v.features for v in x]).mean(axis=0)
        mean_y = np.concatenate([v.features for v in y]).mean(axis=0)
        assert not np.allclose(mean_x, mean_y)

    def test_single_cluster_zero_variance(self):
        # the means come from the reference loop, which draws the same bits
        args = (2, 3, 4, 1, 5)
        videos = tuple(synthesize_videos(*args, noise_std=0.0))
        reference, means, _ = synthesize_by_choice(*args, noise_std=0.0)
        for video, expected in zip(videos, reference, strict=True):
            assert video.features.tobytes() == expected.features.tobytes()
            np.testing.assert_array_equal(
                video.features, np.broadcast_to(means[0], video.features.shape)
            )

    def test_video_means_follow_mixing_weights(self):
        # pooled video mean approaches sum_c w_c * mean_c; with
        # well-separated means two videos with different weights sit
        # further apart than the within-cluster noise. The means and
        # weights come from the reference loop, which draws the same bits
        args = (2, 30, 8, 4, 6)
        kwargs = dict(features_per_frame=40, center_spread=25.0,
                      noise_std=0.5)
        videos = tuple(synthesize_videos(*args, **kwargs))
        reference, means, weights = synthesize_by_choice(*args, **kwargs)
        for video, ref in zip(videos, reference, strict=True):
            assert video.features.tobytes() == ref.features.tobytes()
        expected = weights @ means
        for v, video in enumerate(videos):
            err = np.linalg.norm(video.features.mean(axis=0) - expected[v])
            assert err < 5.0  # sampling error of the mixture, not spread
        separation = np.linalg.norm(expected[0] - expected[1])
        assert separation > kwargs["noise_std"]

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

    def test_segment_that_fails_to_write_writes_nothing(self, tmp_path):
        manifest, videos = self.make_dataset(tmp_path)
        bad = videos[2]
        bad = Video(bad.features.copy(), bad.frame_index, bad.offsets)
        bad.features[:] = 1e39  # every segment of it is beyond float32
        with pytest.raises(DataError, match="holds a non-finite value"):
            make_queries(manifest, [*videos[:2], bad], tmp_path / "q",
                         segment_len_frames=4, offset_frames=0, seed=0)
        assert not (tmp_path / "q").exists()
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    # a 5-dim video under a 4-dim manifest used to give a_q.vfeat and a
    # query manifest saying 4, which loading a_q.vfeat then refused
    def test_segment_of_another_dim_writes_nothing(self, tmp_path):
        manifest = DatasetManifest(
            videos=(VideoEntry("a", "a.vfeat", 1.0, "clean"),), feature_dim=4)
        video = make_video(np.random.default_rng(6), 6, 5)
        with pytest.raises(DimensionMismatch, match="'a_q' has 5-dim"):
            make_queries(manifest, [video], tmp_path / "q",
                         segment_len_frames=4, offset_frames=0, seed=0)
        assert list(tmp_path.iterdir()) == []


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

    # a float32 or float16 value used to raise "overflow encountered in
    # cast" (an error under this suite's warning filter): the Python float
    # bound it was compared with was cast to its type
    @pytest.mark.parametrize("value", [np.float32(0.5), np.float16(0.5),
                                       np.float32(0.0), np.longdouble(2.5)])
    def test_narrow_numpy_floats_accepted(self, value):
        assert VideoEntry("v", "v.vfeat", value, "x").fps_sampled == value
        assert QueryEntry("q", "q.vfeat", value, "x", "v", 0).fps_sampled \
            == value
        assert PerturbationSpec("gain", value, 0).magnitude == value

    @pytest.mark.parametrize("value", [
        np.float32(np.inf), np.float16(np.nan), np.float32(-0.5),
        np.longdouble("1e400"), 10**400, -(10**400)])
    def test_out_of_range_values_refused(self, value):
        with pytest.raises(DataError, match="fps_sampled must be a finite"):
            VideoEntry("v", "v.vfeat", value, "x")
        with pytest.raises(DataError, match="magnitude must be a real"):
            PerturbationSpec("gain", value, 0)

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

    # write_dataset(dir, [7], ...) used to write 7.vfeat and a manifest
    # that load_manifest then refused
    def test_non_string_id_refused_before_writing(self, tmp_path):
        video = make_video(np.random.default_rng(9), 3, 2)
        with pytest.raises(DataError, match="video_id must be a string, got 7"):
            write_dataset(tmp_path / "d", [7], [video], fps_sampled=1.0,
                          notes="")
        assert list(tmp_path.iterdir()) == []

    # the constructors keep the field rule the loader applies, so no
    # manifest can be built, written or loaded that breaks it
    @pytest.mark.parametrize("build", [
        lambda: VideoEntry("v", "v.vfeat", 1.0, None),
        lambda: QueryEntry("q", "q.vfeat", 1.0, "x", "v", True),
        lambda: QueryEntry("q", "q.vfeat", 1.0, "x", 3, 0),
        lambda: DatasetManifest(videos=(), feature_dim=2.0),
        lambda: QueryManifest(queries=(), feature_dim=2, notes=None),
    ], ids=["label-none", "start-frame-bool", "source-id-int",
            "feature-dim-float", "notes-none"])
    def test_constructors_refuse_wrong_field_types(self, build):
        with pytest.raises(DataError, match=r"must be an? (string|integer)"):
            build()

    def test_loader_names_the_field_type(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {"videos": [], "feature_dim": True, "notes": ""}))
        with pytest.raises(DataError, match="not a valid manifest: "
                           "feature_dim must be an integer, got True"):
            load_manifest(path)

    # a 5-dim video after a 4-dim one used to be written under a manifest
    # saying feature_dim 4, which loading b.vfeat then refused
    def test_mixed_feature_dims_write_nothing(self, tmp_path):
        rng = np.random.default_rng(10)
        videos = [make_video(rng, 3, 4), make_video(rng, 3, 5)]
        with pytest.raises(DimensionMismatch, match="'b' has 5-dim"):
            write_dataset(tmp_path / "d", ["a", "b"], videos,
                          fps_sampled=1.0, notes="")
        assert list(tmp_path.iterdir()) == []

    # two (3, 0)-feature videos used to be written under a manifest saying
    # feature_dim 0, which load_manifest and load_features then read back
    def test_zero_dim_features_write_nothing(self, tmp_path):
        videos = [Video(np.empty((3, 0)), np.arange(3), np.arange(4))
                  for _ in range(2)]
        with pytest.raises(DataError, match="feature_dim must be >= 1, got 0"):
            write_dataset(tmp_path / "d", ["a", "b"], videos,
                          fps_sampled=1.0, notes="")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entries,load", [
        ("videos", load_manifest), ("queries", load_query_manifest)])
    def test_loader_refuses_zero_dim(self, tmp_path, entries, load):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({entries: [], "feature_dim": 0,
                                    "notes": ""}))
        with pytest.raises(DataError, match=re.escape(
                f"{path} is not a valid manifest: feature_dim must be >= 1, "
                "got 0")):
            load(path)

    # a video beyond float32's range used to fail only after the videos
    # before it were written, leaving a.vfeat with no manifest
    def test_failed_split_writes_nothing(self, tmp_path):
        rng = np.random.default_rng(4)
        good, bad = make_video(rng, 3, 2), make_video(rng, 3, 2)
        bad.features[4, 1] = 1e39
        with pytest.raises(DataError, match="holds a non-finite value"):
            write_dataset(tmp_path / "d", ["a", "b"], [good, bad],
                          fps_sampled=1.0, notes="")
        assert list(tmp_path.iterdir()) == []

    def test_failed_split_keeps_existing_files(self, tmp_path):
        rng = np.random.default_rng(5)
        videos = [make_video(rng, 3, 2) for _ in range(2)]
        write_dataset(tmp_path / "d", ["a", "b"], videos, fps_sampled=1.0,
                      notes="first")
        before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
        fresh = [make_video(rng, 3, 2) for _ in range(2)]
        fresh[1].features[0, 0] = 1e39
        with pytest.raises(DataError):
            write_dataset(tmp_path / "d", ["a", "b"], fresh, fps_sampled=2.0,
                          notes="second", overwrite=True)
        after = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
        assert after == before
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_refused_overwrite_keeps_existing_files(self, tmp_path):
        rng = np.random.default_rng(6)
        videos = [make_video(rng, 3, 2) for _ in range(2)]
        write_dataset(tmp_path / "d", ["a", "b"], videos, fps_sampled=1.0,
                      notes="")
        before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
        with pytest.raises(FileExistsError):
            write_dataset(tmp_path / "d", ["a", "b"], videos[::-1],
                          fps_sampled=1.0, notes="")
        after = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
        assert after == before

    @pytest.mark.parametrize("count", [1, 3])
    def test_video_count_other_than_ids_writes_nothing(self, tmp_path, count):
        rng = np.random.default_rng(7)
        videos = (make_video(rng, 3, 2) for _ in range(count))
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "d", ["a", "b"], videos, fps_sampled=1.0,
                          notes="")
        assert list(tmp_path.iterdir()) == []

    def test_split_with_queries_matches_two_calls(self, tmp_path):
        # one pass that hands each written video to make_queries gives the
        # bytes of writing the split and then cutting its queries
        videos = tuple(synthesize_videos(3, 8, 2, 2, seed=3))
        cut = dict(segment_len_frames=4, offset_frames=1, seed=9)
        manifest = write_dataset(tmp_path / "one", ["a", "b", "c"],
                                 iter(videos), fps_sampled=1.0, notes="",
                                 queries=dict(out_dir=tmp_path / "one_q", **cut))
        write_dataset(tmp_path / "two", ["a", "b", "c"], videos,
                      fps_sampled=1.0, notes="")
        make_queries(manifest, videos, tmp_path / "two_q", **cut)
        for one, two in [("one", "two"), ("one_q", "two_q")]:
            names = sorted(p.name for p in (tmp_path / one).iterdir())
            assert names == sorted(p.name for p in (tmp_path / two).iterdir())
            for name in names:
                assert ((tmp_path / one / name).read_bytes()
                        == (tmp_path / two / name).read_bytes())

    def test_failed_query_cut_writes_neither_split(self, tmp_path):
        rng = np.random.default_rng(8)
        videos = [make_video(rng, 6, 2), make_video(rng, 3, 2)]
        with pytest.raises(VideoTooShort):
            write_dataset(tmp_path / "d", ["a", "b"], videos, fps_sampled=1.0,
                          notes="", queries=dict(
                              out_dir=tmp_path / "q", segment_len_frames=4,
                              offset_frames=0, seed=0))
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="repeats entry id 'v'"):
            DatasetManifest(
                videos=(VideoEntry("v", "a.vfeat", 1.0, "x"),
                        VideoEntry("v", "b.vfeat", 1.0, "x")),
                feature_dim=2,
            )
        with pytest.raises(DataError, match="repeats entry id 'q'"):
            QueryManifest(
                queries=(QueryEntry("q", "a.vfeat", 1.0, "x", "a", 0),
                         QueryEntry("q", "b.vfeat", 1.0, "x", "b", 0)),
                feature_dim=2,
            )
        # the id is the first field: other fields may repeat
        QueryManifest(queries=(QueryEntry("q", "a.vfeat", 1.0, "x", "a", 0),
                               QueryEntry("r", "a.vfeat", 1.0, "x", "a", 0)),
                      feature_dim=2)

    def test_entries_of_the_other_type_rejected(self):
        video = VideoEntry("v", "v.vfeat", 1.0, "x")
        query = QueryEntry("q", "q.vfeat", 1.0, "x", "v", 0)
        with pytest.raises(DataError, match="VideoEntry entries, got "
                                            "QueryEntry"):
            DatasetManifest(videos=(video, query), feature_dim=2)
        with pytest.raises(DataError, match="QueryEntry entries, got "
                                            "VideoEntry"):
            QueryManifest(queries=(video,), feature_dim=2)
        with pytest.raises(DataError, match="got dict"):
            DatasetManifest(videos=({"video_id": "v"},), feature_dim=2)

    @pytest.mark.parametrize("field, entry, load", [
        ("videos", {"video_id": "v", "fps_sampled": 1.0, "label": "x"},
         load_manifest),
        ("queries", {"query_id": "v", "fps_sampled": 1.0, "label": "x",
                     "source_video_id": "a", "start_frame": 0},
         load_query_manifest),
    ], ids=["dataset", "query"])
    def test_loaders_name_the_file_and_the_repeated_id(self, tmp_path, field,
                                                       entry, load):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({field: [
            {**entry, "feature_file": name} for name in ("a.vfeat", "b.vfeat")
        ], "feature_dim": 2, "notes": ""}))
        with pytest.raises(DataError) as exc:
            load(path, check_files=False)
        assert str(path) in str(exc.value)
        assert "repeats entry id 'v'" in str(exc.value)
