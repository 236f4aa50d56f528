import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import frames_of, make_video
from vlac import (
    Codebook,
    ModelParams,
    TrainedModel,
    Video,
    encode_video,
    kmeans_fit,
    load_model,
    pca_fit,
    pca_project,
    save_model,
    split_gofs,
    train,
    train_hp,
    train_vlac,
    train_vlad,
)
from dataclasses import replace

from vlac import aggregation, core_math
from vlac.aggregation import (
    _HP_SECOND_STAGE_SALT,
    compute_lfcs,
    fit_clfcs,
    hp_encode,
    vlac_encode,
    vlad_encode,
    _frame_stage,
    _model_arrays,
    _residual_sums,
    _window_lfcs,
)
from vlac.core_math import ProjectionBasis, cluster_sums, nearest_centers
from vlac.ingestion import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    load_features,
    perturb,
    synthesize_videos,
    write_features,
)
from vlac.errors import (
    DataError,
    DimensionMismatch,
    DTooLarge,
    EmptyGof,
    EmptyInput,
    EmptyVideo,
    InsufficientRows,
    UntrainedModel,
)


def cb(*centers):
    arr = np.asarray(centers, dtype=np.float64)
    return Codebook(centers=arr, inertia=0.0)


def params(**fields):
    """ModelParams for a direct trainer call; the trainer fills in f."""
    return ModelParams(f=0, **fields)


def frame_vlads(video, codebook):
    """The VLAD row of every frame of ``video``, one kernel window per
    frame, an (F, k * dim) matrix: what encoding sums for hyper-pooling,
    and the reference for the rows training sums for picked frames only."""
    return _residual_sums(video.features, codebook.centers,
                          video.offsets[:-1], video.offsets[1:])


class TestVladEncode:
    def test_one_dimensional_fixture(self):
        got = vlad_encode(np.array([[1.0], [2.0], [11.0]]), cb([0.0], [10.0]))
        np.testing.assert_allclose(got, [3.0, 1.0])

    def test_features_on_centers_give_zero(self):
        book = cb([0.0, 0.0], [4.0, 4.0])
        got = vlad_encode(np.array([[0.0, 0.0], [4.0, 4.0]]), book)
        np.testing.assert_allclose(got, np.zeros(4))

    def test_two_dimensional_fixture(self):
        book = cb([0.0, 0.0], [4.0, 4.0])
        got = vlad_encode(np.array([[1.0, 0.0], [3.0, 4.0]]), book)
        np.testing.assert_allclose(got, [1.0, 0.0, -1.0, 0.0])

    def test_empty_features_zero_vector(self):
        got = vlad_encode(np.empty((0, 2)), cb([0.0, 0.0], [1.0, 1.0]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vlad_encode(np.ones((3, 3)), cb([0.0], [1.0]))

    def test_codebook_without_centers(self):
        book = Codebook(centers=np.empty((0, 2)), inertia=0.0)
        with pytest.raises(EmptyInput, match="at least one center"):
            vlad_encode(np.ones((3, 2)), book)

    def test_residual_block_sum_identity(self):
        # sum of all blocks == sum(features) - sum(multiplicity * center)
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 5))
            count = int(rng.integers(0, 50))
            centers = rng.normal(size=(k, dim))
            feats = rng.normal(size=(count, dim))
            book = Codebook(centers=centers, inertia=0.0)
            got = vlad_encode(feats, book).reshape(k, dim)
            mult = np.zeros(k)
            for f in feats:
                dists = np.sum((centers - f) ** 2, axis=1)
                mult[int(np.argmin(dists))] += 1
            expected = feats.sum(axis=0) - mult @ centers
            np.testing.assert_allclose(got.sum(axis=0), expected, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(size=(4, 3))
        book = Codebook(centers=centers, inertia=0.0)
        feats = rng.normal(size=(60, 3)) * 100.0
        base = vlad_encode(feats, book)
        for _ in range(5):
            perm = rng.permutation(60)
            got = vlad_encode(feats[perm], book)
            np.testing.assert_allclose(got, base, atol=1e-9)


class TestResidualKernel:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 80), dim=st.integers(1, 6), k=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_per_center_loop(self, n, dim, k, seed, data):
        assign_dims = data.draw(st.none() | st.integers(1, dim),
                                label="assign_dims")
        # overlapping and empty windows, and one over all rows
        bound = st.integers(0, n)
        windows = data.draw(st.lists(st.tuples(bound, bound).map(sorted),
                                     max_size=6), label="windows")
        windows.append((0, n))
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim)) * 100.0
        centers = rng.normal(size=(k, dim))
        assign = nearest_centers(points[:, :assign_dims],
                                 centers[:, :assign_dims])
        starts, stops = zip(*windows)
        got = _residual_sums(points, centers, starts, stops,
                             assign_dims=assign_dims)
        assert got.shape == (len(windows), k * dim)
        for row, (start, stop) in zip(got, windows):
            part, owner = points[start:stop], assign[start:stop]
            expected = [(part[owner == j] - centers[j]).sum(axis=0)
                        for j in range(k)]
            assert np.array_equal(row, np.concatenate(expected))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_and_float32_points_match_per_center_loop(self, monkeypatch,
                                                            dtype):
        # 7-value blocks cut through rows and windows; float32 points widen
        # exactly, so they sum as their float64 widening does
        monkeypatch.setattr(core_math, "_BLOCK_VALUES", 7)
        rng = np.random.default_rng(14)
        points = (rng.normal(size=(40, 3)) * 100.0).astype(dtype)
        centers = rng.normal(size=(5, 3))
        windows = [(0, 40), (5, 23), (23, 23), (2, 39)]
        got = _residual_sums(points, centers, *zip(*windows))
        wide = points.astype(np.float64)
        assign = nearest_centers(wide, centers)
        for row, (start, stop) in zip(got, windows):
            part, owner = wide[start:stop], assign[start:stop]
            expected = [(part[owner == j] - centers[j]).sum(axis=0)
                        for j in range(5)]
            assert np.array_equal(row, np.concatenate(expected))

    @pytest.mark.parametrize("assign_dims", [None, 2])
    def test_width_mismatch_refused(self, assign_dims):
        # with assign_dims=2 the leading columns agree, the residuals not
        with pytest.raises(DimensionMismatch, match="dimension 3, centers 5"):
            _residual_sums(np.ones((4, 3)), np.ones((2, 5)), [0], [4],
                           assign_dims=assign_dims)

    def test_one_window_equals_its_row_in_a_window_list(self):
        # a window's sums must not depend on the windows summed with it
        rng = np.random.default_rng(12)
        points = rng.normal(size=(50, 4)) * 100.0
        centers = rng.normal(size=(6, 4))
        windows = [(0, 50), (7, 31), (31, 31), (3, 45)]
        together = _residual_sums(points, centers, *zip(*windows),
                                  assign_dims=2)
        for (start, stop), row in zip(windows, together):
            alone = _residual_sums(points, centers, [start], [stop],
                                   assign_dims=2)
            assert alone.shape == (1, 6 * 4)
            assert np.array_equal(alone[0], row)

    def test_holds_no_residual_matrix(self):
        # train vlac's stacked-LFC shape: 280 windows of 64 LFCs of dim 64
        rng = np.random.default_rng(15)
        points = rng.normal(size=(280 * 64, 64))
        centers = rng.normal(size=(16, 64))
        starts = np.arange(0, 280 * 64, 64)
        tracemalloc.start()
        try:
            _residual_sums(points, centers, starts, starts + 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 12.3 MiB with the whole (rows, dim) residual matrix, 3.8 without
        assert peak < points.nbytes // 2

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_fills_and_returns_out(self, monkeypatch, dim, dtype, block):
        if block is not None:
            monkeypatch.setattr(core_math, "_BLOCK_VALUES", block)
        rng = np.random.default_rng(16)
        points = (rng.normal(size=(40, dim)) * 100.0).astype(dtype)
        centers = rng.normal(size=(5, dim))
        windows = [(0, 40), (5, 23), (23, 23), (2, 39), (9, 9)]
        want = _residual_sums(points, centers, *zip(*windows))
        held = rng.normal(size=(len(windows) + 3, 5 * dim)) * 1e300
        before = held.copy()
        out = held[2 : 2 + len(windows)]
        got = _residual_sums(points, centers, *zip(*windows), out=out)
        assert got is out
        assert np.array_equal(got, want)
        # the rows around the view keep their values
        assert np.array_equal(held[:2], before[:2])
        assert np.array_equal(held[2 + len(windows):],
                              before[2 + len(windows):])

    def test_out_must_be_a_contiguous_float64_matrix(self):
        points, centers = np.ones((4, 3)), np.ones((2, 3))
        for out in (np.empty((1, 12))[:, ::2], np.empty((1, 6), np.float32),
                    np.empty((2, 6))):
            with pytest.raises(ValueError, match="out must be"):
                _residual_sums(points, centers, [0], [4], out=out)


class TestFrameStage:
    def test_rows_are_the_picked_frames_vlad_rows(self, monkeypatch):
        # at overlap 1 the 14 windows of 5 start every 4 frames, so frames
        # 57-59 of 60 are never picked; the 3-frame video has no window
        rng = np.random.default_rng(17)
        videos = [make_video(rng, 60, 4), make_video(rng, 3, 4),
                  make_video(rng, 60, 4, features_per_frame=6)]
        p = params(gof_size=5, overlap=1)
        picks = [np.add.outer(split_gofs(v, p), np.arange(5)).ravel()
                 for v in videos]
        calls = []

        def counted(points, centers):
            calls.append(len(points))
            return nearest_centers(points, centers)

        monkeypatch.setattr(aggregation, "nearest_centers", counted)
        codebook, rows, inverse = _frame_stage(videos, picks, 8, 3)
        # one assignment per video with picks, over all its features
        assert calls == [240, 360]
        unique = np.arange(57)
        want = np.concatenate([frame_vlads(v, codebook)[unique]
                               for v in (videos[0], videos[2])])
        assert np.array_equal(rows, want)
        assert np.array_equal(inverse,
                              np.concatenate([picks[0], picks[2] + 57]))


class TestVlacEncode:
    def test_lfcs_on_clfcs_give_zero(self):
        clfc = cb([0.0], [10.0])
        np.testing.assert_allclose(
            vlac_encode(cb([0.0], [10.0]), clfc), np.zeros(2)
        )

    def test_one_dimensional_fixture(self):
        got = vlac_encode(cb([1.0], [9.0]), cb([0.0], [10.0]))
        np.testing.assert_allclose(got, [1.0, -1.0])

    def test_structurally_identical_to_vlad(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            lfcs = cb(*rng.normal(size=(int(rng.integers(1, 10)), dim)))
            clfc = cb(*rng.normal(size=(int(rng.integers(1, 6)), dim)))
            a = vlac_encode(lfcs, clfc)
            b = vlad_encode(lfcs.centers, clfc)
            assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vlac_encode(cb([1.0, 2.0]), cb([0.0]))


class TestComputeLfcs:
    def test_distinct_features_become_lfcs(self):
        lfcs = compute_lfcs(np.array([[0.0], [7.0], [20.0]]), 3, seed=0)
        assert sorted(lfcs.centers.ravel().tolist()) == [0.0, 7.0, 20.0]
        assert lfcs.inertia == 0.0

    def test_lloyd_fixture(self):
        lfcs = compute_lfcs(np.array([[0.0], [0.2], [10.0], [10.2]]), 2,
                            seed=0)
        np.testing.assert_allclose(
            sorted(lfcs.centers.ravel().tolist()), [0.1, 10.1]
        )

    def test_clamps_to_pooled_count(self):
        assert compute_lfcs(np.arange(3.0)[:, None], 128, seed=0).k == 3

    def test_empty_gof(self):
        with pytest.raises(EmptyGof):
            compute_lfcs(np.empty((0, 2)), 4, seed=0)


def assert_same_fit(got, want):
    assert np.array_equal(got.centers, want.centers)
    assert got.inertia_history == want.inertia_history
    assert got.converged == want.converged
    assert got.refills == want.refills
    assert got.seeding == want.seeding


def each_window_alone(video, p):
    """kmeans_fit of every window of ``video`` on its own, as _window_lfcs
    fits it: k = min(n, rows) and seed XOR the window index."""
    g = p.gof_size
    windows = [video.features[video.rows(s, s + g)]
               for s in split_gofs(video, p)]
    return [kmeans_fit(w, min(p.n, len(w)), p.seed ^ i)
            for i, w in enumerate(windows)]


class TestWindowLfcs:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lockstep_matches_each_window_alone(self, data):
        # frames of 1-6 features make windows of several row counts, some
        # with fewer rows than n; an offset frame (1e8 + noise) makes the
        # windows holding it fall back to exact seeding
        frames = data.draw(st.integers(1, 14), label="frames")
        counts = data.draw(st.lists(st.integers(1, 6), min_size=frames,
                                    max_size=frames), label="counts")
        dim = data.draw(st.integers(1, 5), label="dim")
        gof = data.draw(st.integers(1, 4), label="gof_size")
        p = params(n=data.draw(st.integers(1, 16), label="n"), gof_size=gof,
                   overlap=data.draw(st.integers(0, gof - 1), label="overlap"),
                   seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        feats = [rng.normal(size=(c, dim)) * 10.0 ** rng.integers(-3, 4)
                 for c in counts]
        offset = data.draw(st.none() | st.integers(0, frames - 1),
                           label="offset_frame")
        if offset is not None:
            feats[offset] += 1e8
        video = Video.from_frames(feats)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_math, "_PP_GRAM_ROWS",
                          data.draw(st.sampled_from([512, 3]),
                                    label="gram_rows"))
            got = _window_lfcs(video, p)
            want = each_window_alone(video, p)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_fit(a, b)

    def test_exact_fallback_stays_with_its_window(self):
        # three disjoint windows of 40 rows; the middle one is offset
        rng = np.random.default_rng(50)
        frames = [rng.normal(size=(20, 4)) for _ in range(6)]
        frames[2] += 1e8
        frames[3] += 1e8
        video = Video.from_frames(frames)
        p = params(n=8, gof_size=2, overlap=0, seed=3)
        got = _window_lfcs(video, p)
        assert [cb.seeding for cb in got] == ["gram", "exact", "gram"]
        for a, b in zip(got, each_window_alone(video, p)):
            assert_same_fit(a, b)

    def test_empty_window_raises(self):
        frames = [np.ones((3, 2)), np.ones((3, 2)), np.empty((0, 2)),
                  np.ones((3, 2))]
        with pytest.raises(EmptyGof):
            _window_lfcs(Video.from_frames(frames),
                         params(n=2, gof_size=1, overlap=0))
        with pytest.raises(ValueError):
            _window_lfcs(Video.from_frames(frames[:2]),
                         params(n=0, gof_size=1, overlap=0))


class TestTrainVlad:
    def test_single_center_is_global_mean(self):
        rng = np.random.default_rng(3)
        video = make_video(rng, 6, 3)
        model = train_vlad([video], params(j=1, d=2))
        np.testing.assert_allclose(
            model.codebook.centers[0], video.features.mean(axis=0), atol=1e-9
        )

    def test_basis_composes_kmeans_and_pca(self):
        rng = np.random.default_rng(4)
        video = make_video(rng, 8, 2, features_per_frame=5)
        model = train_vlad([video], params(j=2, d=2, seed=9))
        book = kmeans_fit(video.features, 2, seed=9)
        rows = np.stack([vlad_encode(f, book) for f in frames_of(video)])
        expected = pca_fit(rows, 2)
        assert np.array_equal(model.basis.rows, expected.rows)
        assert np.array_equal(model.basis.mean, expected.mean)

    def test_identical_frames_degenerate_spectrum(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
        video = Video.from_frames([feats] * 4)
        model = train_vlad([video], params(j=2, d=2, seed=1))
        np.testing.assert_allclose(model.basis.eigenvalues, 0.0, atol=1e-9)


class TestTrain:
    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_dispatches_to_the_method_trainer(self, method, tmp_path):
        rng = np.random.default_rng(23)
        videos = [make_video(rng, 7, 3, features_per_frame=6,
                             start_index=10 * v) for v in range(2)]
        schema = ModelParams(f=3, j=3, n=4, m=3, d=2, d0=5, alpha1=3,
                             alpha2=2, h=2, gof_size=3, overlap=1, seed=4,
                             normalize=True)
        trainer = {"vlad": train_vlad, "vlac": train_vlac, "hp": train_hp}
        expected = trainer[method](videos, schema)
        save_model(train(method, videos, schema), tmp_path / "a.bin")
        save_model(expected, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_one_pass_iterator_gives_the_list_model(self, method,
                                                    monkeypatch):
        videos = _random_videos(26, 3, 6)
        schema = ModelParams(f=0, j=3, n=4, m=3, d=2, d0=5, alpha1=3,
                             alpha2=2, h=2, gof_size=3, overlap=1, seed=4,
                             normalize=True)
        expected = _model_bytes(train(method, videos, schema))
        handed = []

        def one_pass():
            # copies that only the trainer holds, as a file reader yields
            for video in videos:
                copy = Video(video.features.copy(), video.frame_index,
                             video.offsets)
                handed.append(weakref.ref(copy))
                yield copy

        alive_at_fits = []

        def counting_pca_fit(*args, **kwargs):
            alive_at_fits.append(sum(ref() is not None for ref in handed))
            return pca_fit(*args, **kwargs)

        monkeypatch.setattr(aggregation, "pca_fit", counting_pca_fit)
        assert _model_bytes(train(method, one_pass(), schema)) == expected
        # every video was read, and none is held while a basis is fit
        assert len(handed) == len(videos)
        assert alive_at_fits == [0] * (2 if method == "hp" else 1)

    def test_unknown_method(self):
        rng = np.random.default_rng(24)
        with pytest.raises(DataError):
            train("sift", [make_video(rng, 4, 2)], ModelParams(f=2, d=1))


class TestModelParams:
    def test_for_method_zeroes_other_methods_fields(self):
        schema = ModelParams(f=3, j=1, n=2, m=3, d=4, d0=5, alpha1=6,
                             alpha2=7, h=8, seed=9, normalize=True)
        assert schema.for_method("vlad") == ModelParams(
            f=3, j=1, d=4, seed=9, normalize=True)
        assert schema.for_method("vlac") == ModelParams(
            f=3, n=2, m=3, d=4, seed=9, normalize=True)
        assert schema.for_method("hp") == ModelParams(
            f=3, d=4, d0=5, alpha1=6, alpha2=7, h=8, seed=9, normalize=True)

    @pytest.mark.parametrize("method, field", [
        ("vlad", "j"), ("vlac", "n"), ("vlac", "m"), ("hp", "d0"),
        ("hp", "alpha1"), ("hp", "alpha2"), ("hp", "h"),
    ])
    def test_for_method_rejects_unset_field(self, method, field):
        schema = ModelParams(f=3, j=1, n=1, m=1, d=1, d0=1, alpha1=1,
                             alpha2=1, h=1)
        schema.for_method(method)
        with pytest.raises(DataError, match=field):
            replace(schema, **{field: 0}).for_method(method)

    def test_train_hp_rejects_default_h(self):
        rng = np.random.default_rng(25)
        videos = [make_video(rng, 3, 3, features_per_frame=8)
                  for _ in range(6)]
        with pytest.raises(DataError):
            train_hp(videos, params(alpha1=4, d0=6, alpha2=3, d=2,
                                    gof_size=3, overlap=0))

    # the last four are windows split_gofs cannot cut; gof_size 1 keeps the
    # default overlap of 1
    @pytest.mark.parametrize("fields", [
        {"j": 2**32}, {"seed": -1}, {"f": 3.0}, {"normalize": 1},
        {"d": True}, {"gof_size": 1}, {"gof_size": 0, "overlap": 0},
        {"gof_size": 5, "overlap": 5}, {"gof_size": 3, "overlap": 7},
    ])
    def test_rejects_values_the_header_cannot_store(self, fields):
        with pytest.raises(DataError):
            ModelParams(**{"f": 3, **fields})


def _stages(method, p):
    """Codebooks and bases of the shapes a ``method`` model with
    parameters ``p`` stores, every value 0.5."""
    arrays = {}
    for name, part, shape in _model_arrays(method, p):
        arrays.setdefault(name, {})[part] = np.full(shape, 0.5)
    return {name: aggregation._stage(parts) for name, parts in arrays.items()}


VALID = {
    "vlad": ModelParams(f=2, j=2, d=1),
    "vlac": ModelParams(f=2, n=3, m=2, d=1),
    "hp": ModelParams(f=2, d0=2, alpha1=2, alpha2=2, h=2, d=1),
}


class TestTrainedModel:
    """A model no trainer writes cannot be built."""

    @pytest.mark.parametrize("method", VALID)
    def test_builds_what_a_trainer_writes(self, method):
        TrainedModel(method, VALID[method], **_stages(method, VALID[method]))

    def test_rejects_unknown_method(self):
        with pytest.raises(DataError, match="unknown model method 'sift'"):
            TrainedModel("sift", VALID["vlad"], **_stages("vlad", VALID["vlad"]))

    @pytest.mark.parametrize("method, fields, named", [
        ("vlad", {"alpha2": 7}, "alpha2"), ("vlac", {"j": 1, "h": 3}, "j, h"),
        ("hp", {"n": 4}, "n"),
    ])
    def test_rejects_fields_only_other_methods_read(self, method, fields,
                                                    named):
        with pytest.raises(DataError,
                           match=f"set {named}, which only other methods"):
            TrainedModel(method, replace(VALID[method], **fields),
                         **_stages(method, VALID[method]))

    def test_rejects_hp_on_more_than_d0_components(self):
        p = replace(VALID["hp"], h=3)
        with pytest.raises(DataError, match="h=3, which must be between 1 "
                                            "and d0=2"):
            TrainedModel("hp", p, **_stages("hp", p))

    @pytest.mark.parametrize("stage", ["hp_first_basis", "hp_second_codebook"])
    def test_rejects_hp_without_both_stages(self, stage):
        stages = {**_stages("hp", VALID["hp"]), stage: None}
        with pytest.raises(UntrainedModel):
            TrainedModel("hp", VALID["hp"], **stages)


def _random_videos(seed, dim, features_per_frame):
    rng = np.random.default_rng(seed)
    return [make_video(rng, 7, dim, features_per_frame=features_per_frame,
                       start_index=10 * v) for v in range(2)]


def _model_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        save_model(model, path)
        return path.read_bytes()


training_cases = st.fixed_dictionaries({
    "data_seed": st.integers(0, 2**32 - 1),
    "dim": st.integers(2, 3),  # d0 <= alpha1 * dim
    "features_per_frame": st.integers(4, 8),
    "schema": st.builds(
        ModelParams, f=st.just(0), j=st.integers(1, 3), n=st.integers(1, 4),
        m=st.integers(1, 3), d=st.just(2), d0=st.integers(2, 4),
        alpha1=st.integers(2, 3), alpha2=st.integers(1, 3),
        h=st.integers(1, 4), gof_size=st.just(3), overlap=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1), normalize=st.booleans(),
    ),
})


class TestTrainingProperties:
    @settings(max_examples=5, deadline=None)
    @given(case=training_cases, method=st.sampled_from(["vlad", "vlac", "hp"]))
    def test_training_twice_gives_identical_model_and_encoding(self, case,
                                                              method):
        videos = _random_videos(case["data_seed"], case["dim"],
                                case["features_per_frame"])
        first = train(method, videos, case["schema"])
        second = train(method, videos, case["schema"])
        assert _model_bytes(first) == _model_bytes(second)
        a = encode_video(videos[0], first)
        b = encode_video(videos[0], second)
        windows = len(split_gofs(videos[0], case["schema"]))
        assert a.shape == (windows, 2) and np.array_equal(a, b)

    @settings(max_examples=5, deadline=None)
    @given(case=training_cases, perm_seed=st.integers(0, 2**32 - 1))
    def test_vlad_encoding_ignores_feature_order(self, case, perm_seed):
        videos = _random_videos(case["data_seed"], case["dim"],
                                case["features_per_frame"])
        model = train("vlad", videos, case["schema"])
        rng = np.random.default_rng(perm_seed)
        shuffled = shuffle_within_frames(videos[0], rng)
        np.testing.assert_allclose(encode_video(shuffled, model),
                                   encode_video(videos[0], model), atol=1e-9)


def _as_dtype(video, dtype):
    return Video(video.features.astype(dtype), video.frame_index,
                 video.offsets)


def _array_bytes(model):
    """The float64 bytes of every array a model stores, unrounded."""
    return [np.asarray(getattr(getattr(model, name), part)).tobytes()
            for name, part, _ in _model_arrays(model.method, model.params)]


class TestFloat32Videos:
    """A float32 video gives every byte its float64 widening gives."""

    @settings(max_examples=15, deadline=None)
    @given(case=training_cases, method=st.sampled_from(["vlad", "vlac", "hp"]),
           kind=st.sampled_from(PERTURBATION_KINDS),
           magnitude=st.sampled_from([0.0, 0.3, 1.0]))
    def test_same_bytes_as_the_widened_video(self, case, method, kind,
                                             magnitude):
        singles = [_as_dtype(v, np.float32) for v in _random_videos(
            case["data_seed"], case["dim"], case["features_per_frame"])]
        doubles = [_as_dtype(v, np.float64) for v in singles]
        assert singles[0].features.dtype == np.float32
        model = train(method, singles, case["schema"])
        widened = train(method, doubles, case["schema"])
        assert model.params == widened.params
        assert _array_bytes(model) == _array_bytes(widened)
        for single, double in zip(singles, doubles):
            assert (encode_video(single, model).tobytes()
                    == encode_video(double, model).tobytes())
        spec = PerturbationSpec(kind=kind, magnitude=magnitude, seed=7)
        noisy = perturb(singles[0], spec)
        assert noisy.features.dtype == np.float64
        assert (noisy.features.tobytes()
                == perturb(doubles[0], spec).features.tobytes())

    def test_from_frames_keeps_float32_only_when_every_frame_has_it(self):
        single = np.ones((2, 3), dtype=np.float32)
        assert Video.from_frames([single, single]).features.dtype == np.float32
        assert Video.from_frames([single, single.astype(np.float64)]
                                 ).features.dtype == np.float64
        assert Video.from_frames([single.astype(np.int32)]
                                 ).features.dtype == np.float64
        assert Video(single.tolist(), [0], [0, 2]).features.dtype == np.float64

    # from_frames concatenates as numpy promotes and Video alone picks the
    # dtype: float32 kept, anything else cast to float64, both exact
    @settings(max_examples=10, deadline=None)
    @given(case=training_cases, method=st.sampled_from(["vlad", "vlac", "hp"]))
    def test_promoted_frames_encode_as_their_float64_copies(self, case,
                                                           method):
        videos = _random_videos(case["data_seed"], case["dim"],
                                case["features_per_frame"])
        model = train(method, videos, case["schema"])
        frames, index = frames_of(videos[0]), videos[0].frame_index
        mixed = [f.astype(np.float16 if t % 2 else np.float32)
                 for t, f in enumerate(frames)]
        ints = [np.rint(4 * f).astype(np.int32) for f in frames]
        for parts, dtype in ((mixed, np.float32), (ints, np.float64)):
            video = Video.from_frames(parts, index)
            wide = Video.from_frames([f.astype(np.float64) for f in parts],
                                     index)
            assert video.features.dtype == dtype
            assert (encode_video(video, model).tobytes()
                    == encode_video(wide, model).tobytes())

    def test_load_features_returns_float32(self, tmp_path):
        video = _random_videos(3, 4, 5)[0]
        write_features(video, tmp_path / "v.vfeat")
        loaded = load_features(tmp_path / "v.vfeat")
        assert loaded.features.dtype == np.float32
        assert np.array_equal(loaded.features,
                              video.features.astype(np.float32))


def shuffle_within_frames(video, rng):
    """``video`` with the features of each frame in a random order."""
    return Video.from_frames(
        [f[rng.permutation(f.shape[0])] for f in frames_of(video)],
        video.frame_index,
    )


class TestVideo:
    def test_empty_frames_keep_their_dimension(self):
        video = Video.from_frames([np.empty((0, 3)), np.empty((0, 3))])
        assert video.features.shape == (0, 3)
        assert len(video) == 2 and video.dim == 3

    def test_frame_rows(self):
        video = Video.from_frames(
            [np.ones((2, 2)), np.empty((0, 2)), 2 * np.ones((1, 2))],
            [4, 5, 9])
        assert video.offsets.tolist() == [0, 2, 2, 3]
        assert video.frame_index.tolist() == [4, 5, 9]
        assert video.rows(1, 3) == slice(2, 3)
        np.testing.assert_array_equal(video.features[video.rows(0, 2)],
                                      np.ones((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.ones((3, 2))
        features[1, 0] = value
        with pytest.raises(DataError, match="non-finite"):
            Video(features, [0, 1], [0, 2, 3])

    def test_rejects_features_that_are_not_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            Video(np.ones(3), [0], [0, 3])

    @pytest.mark.parametrize("features", [
        np.array([["1.5", "2"]]),         # a cast would parse them
        np.array([[1.5 + 2j, 2.0]]),      # and drop the imaginary part
        np.array([[1.5, 2.0]], dtype=object),
    ])
    def test_rejects_features_that_are_not_real_numbers(self, features):
        with pytest.raises(DataError, match="real numbers"):
            Video(features, [0], [0, 1])
        with pytest.raises(DataError, match="real numbers"):
            Video.from_frames([features])

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float16])
    def test_casts_other_real_numbers_to_float64(self, dtype):
        video = Video(np.ones((1, 2), dtype=dtype), [0], [0, 1])
        assert video.features.dtype == np.float64

    @pytest.mark.parametrize("index, offsets", [
        ([0, 1], [0, 3]),         # one offset per frame plus one
        ([0, 1], [1, 2, 3]),      # the first frame starts at row 0
        ([0, 1], [0, 2, 2]),      # the last frame ends at the last row
        ([0, 1], [0, 4, 3]),      # offsets never decrease
        ([0, 0], [0, 1, 3]),      # frame indices strictly increase
        ([3, 1], [0, 1, 3]),
        ([[0, 1]], [0, 1, 3]),
    ])
    def test_rejects_inconsistent_layout(self, index, offsets):
        with pytest.raises(DataError):
            Video(np.ones((3, 2)), index, offsets)

    @pytest.mark.parametrize("index", [
        [0.5, 1.5],         # an int64 cast would truncate these
        [0, 2**63],         # and overflow on this one
        np.array([0, 2**63], dtype=np.uint64),
        [False, True],
    ])
    def test_rejects_frame_indices_outside_int64(self, index):
        with pytest.raises(DataError, match="integers that fit in int64"):
            Video.from_frames([np.ones((1, 2))] * 2, index)


class TestTrainVlac:
    def test_single_gof_degenerate_clfcs(self):
        # T=1 and M=N make the second stage reproduce the window's LFCs
        rng = np.random.default_rng(5)
        video = make_video(rng, 4, 2, features_per_frame=6)
        one_window = params(n=3, m=3, d=1, seed=2, gof_size=4, overlap=0)
        clfc, lfcs, points = fit_clfcs([video], one_window)
        assert np.array_equal(
            np.sort(clfc.centers, axis=0), np.sort(lfcs[0].centers, axis=0)
        )
        assert np.array_equal(points, lfcs[0].centers)
        # a d-dim basis cannot be fit on a single training row
        with pytest.raises(InsufficientRows):
            train_vlac([video], one_window)

    def test_two_gof_cross_cluster_means(self):
        # both windows hold the same two well-separated 1-D clusters, offset
        # by 0.2; the CLFCs land on the cross-window means
        video = Video.from_frames([np.array([[0.0], [10.0]]),
                                   np.array([[0.2], [10.2]])])
        clfc, _, _ = fit_clfcs(
            [video], params(n=2, m=2, seed=0, gof_size=1, overlap=0))
        np.testing.assert_allclose(
            sorted(clfc.centers.ravel().tolist()), [0.1, 10.1]
        )

    def test_identical_gofs_zero_trailing_eigenvalues(self):
        rng = np.random.default_rng(6)
        video = make_video(rng, 3, 2, features_per_frame=5)
        model = train_vlac([video] * 4, params(n=2, m=2, d=2, seed=3,
                                               gof_size=3, overlap=0))
        np.testing.assert_allclose(model.basis.eigenvalues, 0.0, atol=1e-9)

    def test_n_does_not_change_dimensions(self):
        rng = np.random.default_rng(7)
        video = make_video(rng, 15, 4, features_per_frame=40)
        shapes = set()
        for n in (2, 8, 32):
            model = train_vlac([video], params(n=n, m=3, d=2, seed=1,
                                               gof_size=3, overlap=0))
            window = video.features[video.rows(0, 3)]
            raw = vlac_encode(compute_lfcs(window, n, seed=1), model.codebook)
            shapes.add(raw.shape)
        assert shapes == {(3 * 4,)}

    def test_centers_are_held_once_in_the_stack(self):
        # 6 videos of 10 windows of 64 features: 60 windows of 32 LFCs of
        # dim 64, 0.98 MB stacked; a video too short for a window adds none
        rng = np.random.default_rng(8)
        videos = [make_video(rng, 40, 64, features_per_frame=16)
                  for _ in range(6)]
        videos.insert(3, make_video(rng, 3, 64, features_per_frame=16))
        p = params(n=32, m=8, seed=4, gof_size=4, overlap=0)
        tracemalloc.start()
        try:
            clfc, lfcs, points = fit_clfcs(iter(videos), p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert points.shape == (60 * 32, 64)
        assert all(np.shares_memory(cb.centers, points) for cb in lfcs)
        assert np.array_equal(np.concatenate([cb.centers for cb in lfcs]),
                              points)
        # one copy of the centers: a second, one array per codebook, would
        # double it (2.0 times points.nbytes)
        assert held < 1.5 * points.nbytes
        # the same fit as each video's windows fit alone
        want = [cb for v in videos for cb in each_window_alone(v, p)]
        for got, alone in zip(lfcs, want, strict=True):
            assert_same_fit(got, alone)

    def test_lfc_stack_is_dropped_before_the_basis_fit(self, monkeypatch):
        rng = np.random.default_rng(9)
        videos = [make_video(rng, 12, 4, features_per_frame=10)
                  for _ in range(3)]
        stacks, alive = [], []
        fit, pca = aggregation.fit_clfcs, aggregation.pca_fit

        def tracked_fit(*args):
            clfc, lfcs, points = fit(*args)
            stacks.append(weakref.ref(points))
            return clfc, lfcs, points

        def checked_pca(*args, **kwargs):
            alive.append(stacks[0]() is not None)
            return pca(*args, **kwargs)

        monkeypatch.setattr(aggregation, "fit_clfcs", tracked_fit)
        monkeypatch.setattr(aggregation, "pca_fit", checked_pca)
        model = train_vlac(videos, params(n=4, m=3, d=2, seed=5,
                                          gof_size=3, overlap=0))
        assert alive == [False]
        assert model.lfc_fits["fits"] == 12


class TestHyperPooling:
    @staticmethod
    def tiny_model(dim=2, h=2):
        # hand-built stages: identity-like first basis, fixed codebooks
        first = cb([0.0] * dim, [4.0] * dim)
        rows = np.eye(2 * dim)[:2]
        first_basis = ProjectionBasis(
            rows=rows, mean=np.zeros(2 * dim), eigenvalues=np.ones(2)
        )
        second = cb([0.0, 0.0], [2.0, 2.0])
        params = ModelParams(
            f=dim, d=1, d0=2, alpha1=2, alpha2=2, h=h,
            gof_size=3, overlap=0, seed=0,
        )
        final = ProjectionBasis(
            rows=np.eye(4)[:1], mean=np.zeros(4), eigenvalues=np.ones(1)
        )
        return TrainedModel(
            method="hp", params=params, codebook=first, basis=final,
            hp_first_basis=first_basis, hp_second_codebook=second,
        )

    @staticmethod
    def encode(model, *frames):
        """hp_encode of one window of ``frames``."""
        rows = np.stack([vlad_encode(f, model.codebook) for f in frames])
        return hp_encode(rows, model.hp_first_basis,
                         model.hp_second_codebook, model.params.h)

    def test_frame_on_second_center_gives_zero(self):
        model = self.tiny_model()
        # one feature at the first center: VLAD residual is zero, projects
        # to (0, 0), the first second-stage center exactly
        got = self.encode(model, np.zeros((1, 2)))
        np.testing.assert_allclose(got, np.zeros(4))

    def test_two_frames_disjoint_centers_concatenate(self):
        model = self.tiny_model()
        # frame A -> projected (0.5, 0.5) quantizes to center 0
        # frame B -> projected (1.5, 1.5) quantizes to center 1
        got = self.encode(model, np.array([[0.5, 0.5]]),
                          np.array([[1.5, 1.5]]))
        np.testing.assert_allclose(got, [0.5, 0.5, -0.5, -0.5])

    def test_three_frame_hand_trace(self):
        model = self.tiny_model()
        frames = [np.array([[0.5, 0.5]]), np.array([[1.5, 1.5]]),
                  np.array([[0.25, 0.25]])]
        # step-by-step: projections (0.5,.5), (1.5,1.5), (0.25,.25);
        # assignments 0, 1, 0; residual sums (0.75,.75) and (-0.5,-0.5)
        got = self.encode(model, *frames)
        np.testing.assert_allclose(got, [0.75, 0.75, -0.5, -0.5])
        # encode_video projects that window onto the first basis row
        video = Video.from_frames(frames)
        np.testing.assert_allclose(encode_video(video, model), [[0.75]])

    def test_requires_hp_model(self):
        video = Video.from_frames([np.zeros((1, 2))] * 3)
        for stage in ("hp_first_basis", "hp_second_codebook"):
            with pytest.raises(UntrainedModel):
                encode_video(video, replace(self.tiny_model(), **{stage: None}))

    def test_train_hp_round_numbers(self):
        rng = np.random.default_rng(9)
        video = make_video(rng, 18, 3, features_per_frame=8)
        model = train_hp([video], params(alpha1=4, d0=6, alpha2=3, d=2,
                                         seed=5, h=2, gof_size=3, overlap=0))
        assert model.hp_first_basis.rows.shape == (6, 4 * 3)
        assert model.hp_second_codebook.centers.shape == (3, 6)
        assert model.basis.rows.shape == (2, 3 * 6)
        assert model.params.h == 2
        # second-stage centers restricted to the first h dims must agree
        # with quantization, i.e. every training window encodes cleanly
        raw = self.encode(model, *frames_of(video)[:3])
        assert raw.shape == (3 * 6,)


class TestTrainHpDistinctFrames:
    """The first basis fits one row per distinct training frame."""

    def test_d0_is_bounded_by_the_distinct_frames(self):
        # two windows of 5 pick 10 frame rows but only 6 distinct frames,
        # whose centered rows span at most 5 directions
        rng = np.random.default_rng(14)
        video = Video.from_frames([rng.normal(size=(4, 3)) for _ in range(6)])
        p = params(alpha1=4, d0=8, alpha2=2, h=2, d=2, gof_size=5,
                   overlap=4, seed=1)
        with pytest.raises(DTooLarge, match="rows=6"):
            train_hp([video], p)
        assert train_hp([video], replace(p, d0=6)).hp_first_basis.d == 6

    def test_first_basis_holds_no_row_per_pick(self):
        # overlap 4 of 5: most frames sit in 5 windows, so the frame rows
        # of every pick would be about 4.5 times those of the distinct
        # frames (36 windows of 5 picks, 40 frames, per video)
        videos = tuple(synthesize_videos(6, 40, 8, 8, 21,
                                         features_per_frame=4))
        p = params(alpha1=32, d0=16, alpha2=4, h=4, d=8, gof_size=5,
                   overlap=4, seed=3)
        picks = 6 * 36 * 5
        tracemalloc.start()
        try:
            model = train_hp(videos, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2.9 MB when the fit took a row per pick, 1.2 MB with one per frame
        assert peak < picks * 32 * 8 * 8  # (picks, alpha1 * f) float64
        assert model.hp_first_basis.fit_rows == 6 * 40


class TestTrainHpReference:
    """``train_hp`` against the public one-window path, which fits its first
    basis on every window's frames: each stage agrees within rounding."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_one_window_path(self, normalize):
        # the stability workload's data and model dims: every fit is tall
        videos = tuple(synthesize_videos(20, 60, 32, 32, 17,
                                         features_per_frame=20))
        p = params(alpha1=32, d0=32, alpha2=8, h=16, d=32, gof_size=5,
                   overlap=1, seed=4, normalize=normalize)
        model = train_hp(videos, p)
        g, h = p.gof_size, p.h

        frame_rows = np.concatenate([
            frame_vlads(v, model.codebook)[s : s + g]
            for v in videos for s in split_gofs(v, p)
        ])
        first = pca_fit(frame_rows.copy(), p.d0)
        assert first.solver == model.hp_first_basis.solver == "eig"
        # training fits each distinct frame once, weighted by its windows
        for name in ("rows", "mean", "eigenvalues"):
            np.testing.assert_allclose(getattr(model.hp_first_basis, name),
                                       getattr(first, name), rtol=0,
                                       atol=1e-12, err_msg=name)

        projected = pca_project(first, frame_rows)
        head = kmeans_fit(projected[:, :h], p.alpha2,
                          p.seed ^ _HP_SECOND_STAGE_SALT)
        labels = nearest_centers(projected[:, :h], head.centers)
        counts = np.bincount(labels, minlength=p.alpha2)
        centers = (cluster_sums(projected, labels, p.alpha2)
                   / np.maximum(counts, 1)[:, None])
        centers[counts == 0, :h] = head.centers[counts == 0]
        np.testing.assert_allclose(model.hp_second_codebook.centers, centers,
                                   rtol=0, atol=1e-12)

        rows = np.stack([
            hp_encode(frame_rows[r : r + g], first,
                      model.hp_second_codebook, h)
            for r in range(0, len(frame_rows), g)
        ])
        if normalize:
            rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        final = pca_fit(rows, p.d)
        assert final.solver == model.basis.solver == "eig"
        # training projects every window in one product, which may round
        # differently from hp_encode's one-window products
        for name in ("rows", "mean", "eigenvalues"):
            np.testing.assert_allclose(getattr(model.basis, name),
                                       getattr(final, name), rtol=0,
                                       atol=1e-12, err_msg=name)


class TestEncodeVideo:
    @staticmethod
    def model_for(video, gof_size, overlap):
        return train_vlad(
            [video], params(j=2, d=2, gof_size=gof_size, overlap=overlap)
        )

    def test_per_frame_window_count(self):
        rng = np.random.default_rng(10)
        video = make_video(rng, 5, 2)
        model = self.model_for(video, gof_size=1, overlap=0)
        assert len(encode_video(video, model)) == 5

    def test_single_full_window(self):
        rng = np.random.default_rng(11)
        video = make_video(rng, 5, 2)
        model = self.model_for(video, gof_size=5, overlap=1)
        descs = encode_video(video, model)
        assert len(descs) == 1

    def test_stride_windows(self):
        rng = np.random.default_rng(12)
        video = make_video(rng, 9, 2)
        model = self.model_for(video, gof_size=5, overlap=1)
        descs = encode_video(video, model)
        assert descs.shape == (2, 2) and descs.dtype == np.float64

    def test_window_count_formula(self):
        rng = np.random.default_rng(13)
        for num_frames in (5, 6, 11, 23):
            for gof_size, overlap in ((5, 1), (4, 2), (3, 0)):
                video = make_video(rng, num_frames, 2)
                expected = 1 + (num_frames - gof_size) // (gof_size - overlap)
                p = params(gof_size=gof_size, overlap=overlap)
                assert len(split_gofs(video, p)) == expected

    def test_short_video_yields_nothing(self):
        rng = np.random.default_rng(14)
        video = make_video(rng, 3, 2)
        model = self.model_for(video, gof_size=5, overlap=1)
        assert encode_video(video, model).shape == (0, 2)

    def test_empty_video(self):
        rng = np.random.default_rng(15)
        model = self.model_for(make_video(rng, 4, 2), 2, 0)
        with pytest.raises(EmptyVideo):
            encode_video(Video.from_frames([]), model)

    def test_normalize_flag_round_trip(self):
        rng = np.random.default_rng(16)
        video = make_video(rng, 8, 3, features_per_frame=6)
        plain = train_vlad([video], params(j=2, d=2, gof_size=2, overlap=0))
        normed = train_vlad(
            [video], params(j=2, d=2, gof_size=2, overlap=0, normalize=True)
        )
        a = encode_video(video, plain)
        b = encode_video(video, normed)
        assert len(a) == len(b)
        assert not np.allclose(a[0], b[0])

    def test_permuting_features_in_frames_is_invariant(self):
        rng = np.random.default_rng(17)
        video = make_video(rng, 6, 3, features_per_frame=20, scale=50.0)
        model = train_vlad([video], params(j=3, d=2, seed=1, gof_size=3,
                                           overlap=1))
        base = encode_video(video, model)
        got = encode_video(shuffle_within_frames(video, rng), model)
        np.testing.assert_allclose(got, base, atol=1e-9)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_matches_one_window_encoders(self, method, normalize):
        # each window through its one-window encoder, projected on its own
        rng = np.random.default_rng(19)
        videos = [make_video(rng, 14, 3, features_per_frame=8)
                  for _ in range(2)]
        model = train(method, videos, params(
            j=3, n=4, m=3, d=2, d0=5, alpha1=3, alpha2=2, h=2, gof_size=4,
            overlap=1, seed=2, normalize=normalize))
        video, p = videos[1], model.params
        expected = []
        for i, s in enumerate(split_gofs(video, p)):
            window = video.features[video.rows(s, s + p.gof_size)]
            if method == "vlad":
                raw = vlad_encode(window, model.codebook)
            elif method == "vlac":
                raw = vlac_encode(compute_lfcs(window, p.n, p.seed ^ i),
                                  model.codebook)
            else:
                frame_rows = np.stack([
                    vlad_encode(f, model.codebook)
                    for f in frames_of(video)[s : s + p.gof_size]])
                raw = hp_encode(frame_rows, model.hp_first_basis,
                                model.hp_second_codebook, p.h)
            if normalize:
                raw = raw / np.linalg.norm(raw)
            expected.append(pca_project(model.basis, raw))
        expected = np.stack(expected)
        np.testing.assert_allclose(encode_video(video, model), expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())


class TestGroupOfFrames:
    def test_no_windows(self):
        short = Video.from_frames([np.ones((1, 1))] * 3)
        starts = split_gofs(short, params(gof_size=4, overlap=1))
        assert starts.dtype == np.int64 and starts.tolist() == []
        empty = Video.from_frames([])
        assert split_gofs(empty, params(gof_size=1, overlap=0)).tolist() == []

    def test_window_starts(self):
        video = Video.from_frames([np.ones((1, 1))] * 9)
        starts = split_gofs(video, params(gof_size=5, overlap=1))
        assert starts.dtype == np.int64 and starts.tolist() == [0, 4]
        assert (split_gofs(video, params(gof_size=3, overlap=2)).tolist()
                == list(range(7)))

    # ModelParams refuses the windows split_gofs cannot cut, so every
    # window it is given has a stride of at least 1
    @pytest.mark.parametrize("gof_size, overlap",
                             [(0, 0), (0, 1), (3, 3), (3, 4), (3, -1)])
    def test_rejects_windows_it_cannot_cut(self, gof_size, overlap):
        with pytest.raises(DataError, match="overlap"):
            params(gof_size=gof_size, overlap=overlap)

    def test_rejects_gaps(self):
        video = Video.from_frames([np.ones((1, 1))] * 4, [0, 1, 3, 4])
        with pytest.raises(DataError, match="consecutive"):
            split_gofs(video, params(gof_size=3, overlap=1))
        # windows on either side of the gap are fine
        assert split_gofs(video, params(gof_size=2, overlap=0)).tolist() \
            == [0, 2]


class TestModelPersistence:
    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_save_load_bit_exact(self, method, tmp_path):
        rng = np.random.default_rng(18)
        video = make_video(rng, 18, 3, features_per_frame=8)
        schema = params(j=3, n=4, m=3, d=2, d0=5, alpha1=3, alpha2=2, h=2,
                        seed=4, gof_size=3, overlap=0)
        model = train(method, [video], schema)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.method == model.method
        assert loaded.params == model.params
        # fit diagnostics are not stored in the file
        names = ["codebook"] + (["hp_second_codebook"] if method == "hp"
                                else [])
        for name in names:
            fitted, read = getattr(model, name), getattr(loaded, name)
            assert type(fitted.converged) is bool
            assert type(fitted.refills) is int
            assert fitted.seeding in ("gram", "exact")
            assert read.converged is None and read.refills is None
            assert read.seeding is None
        assert loaded.lfc_fits is None
        assert (model.lfc_fits is None) == (method != "vlac")
        path2 = tmp_path / "model2.bin"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp"])
    def test_save_reports_float32_error(self, method, tmp_path):
        rng = np.random.default_rng(22)
        video = make_video(rng, 18, 3, features_per_frame=8, scale=3.0)
        schema = params(j=3, n=4, m=3, d=2, d0=5, alpha1=3, alpha2=2, h=2,
                        seed=4, gof_size=3, overlap=0)
        model = train(method, [video], schema)
        errors = save_model(model, tmp_path / "m.bin")
        assert list(errors) == [f"{name}.{part}" for name, part, _
                                in _model_arrays(method, model.params)]
        for key, error in errors.items():
            name, part = key.split(".")
            arr = np.atleast_2d(getattr(getattr(model, name), part))
            # a value is off by at most half a float32 ulp of itself
            half_ulp = np.spacing(np.float32(np.abs(arr).max())) / 2
            assert np.isfinite(error) and 0.0 <= error <= half_ulp, key
        assert max(errors.values()) > 0.0
        # a loaded model holds float32 values already
        loaded = load_model(tmp_path / "m.bin")
        again = save_model(loaded, tmp_path / "m2.bin")
        assert list(again) == list(errors)
        assert set(again.values()) == {0.0}
        assert ((tmp_path / "m.bin").read_bytes()
                == (tmp_path / "m2.bin").read_bytes())

    def test_same_seed_same_bytes(self, tmp_path):
        rng = np.random.default_rng(19)
        video = make_video(rng, 12, 2, features_per_frame=6)
        schema = params(n=3, m=2, d=2, seed=7, gof_size=3, overlap=0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(train_vlac([video], schema), a)
        save_model(train_vlac([video], schema), b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_model_encodes(self, tmp_path):
        rng = np.random.default_rng(20)
        video = make_video(rng, 12, 2, features_per_frame=6)
        model = train_vlac([video], params(n=3, m=2, d=2, seed=7, gof_size=3,
                                           overlap=0))
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        other = make_video(rng, 6, 2, features_per_frame=6)
        assert encode_video(other, loaded).shape == (2, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hand_built_model_saves_or_raises_data_error(self, data):
        """Any model that can be built either saves, and then loads back
        byte for byte, or fails to save as DataError and leaves no file."""
        method = data.draw(st.sampled_from(["vlad", "vlac", "hp"]))
        gof_size = data.draw(st.integers(1, 3))
        p = ModelParams(
            gof_size=gof_size, overlap=data.draw(st.integers(0, gof_size - 1)),
            **{name: data.draw(st.integers(1, 3), label=name) for name in
               ("f", "j", "n", "m", "d", "d0", "alpha1", "alpha2", "h")})
        if data.draw(st.integers(0, 3), label="as a trainer stores them"):
            p = p.for_method(method)
        arrays = _model_arrays(method, p)
        # at most one array is faulty: reshaped, or holding 1e39 or NaN
        faulty = data.draw(st.one_of(st.none(), st.integers(0, len(arrays) - 1)))
        fault = data.draw(st.sampled_from(["shape", 1e39, np.nan]))
        parts = {}
        for i, (name, part, shape) in enumerate(arrays):
            if i == faulty and fault == "shape":
                shape = (data.draw(st.integers(0, 3)),
                         data.draw(st.integers(0, 3)))
            value = fault if i == faulty and fault != "shape" else 0.5
            parts.setdefault(name, {})[part] = np.full(shape, value)
        stages = {
            name: Codebook(a["centers"], a["inertia"]) if "centers" in a
            else ProjectionBasis(a["rows"], a["mean"], a["eigenvalues"])
            for name, a in parts.items()
            if name in ("codebook", "basis")
            or data.draw(st.integers(0, 3), label=f"keep {name}")
        }
        try:
            model = TrainedModel(method, p, **stages)
        except DataError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "m.bin", Path(tmp) / "again.bin"
            try:
                save_model(model, path)
            except DataError:
                assert not path.exists()
                return
            save_model(load_model(path), again)
            assert again.read_bytes() == path.read_bytes()

    def test_overwrite_guard(self, tmp_path):
        rng = np.random.default_rng(21)
        video = make_video(rng, 4, 2)
        model = train_vlad([video], params(j=2, d=1))
        path = tmp_path / "m.bin"
        save_model(model, path)
        with pytest.raises(FileExistsError):
            save_model(model, path)
        save_model(model, path, overwrite=True)
