import contextlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlac import core_math
from vlac import (
    basis_alignment_score,
    kmeans_fit,
    pca_fit,
    pca_project,
)
from vlac.core_math import (
    _dist_blocks,
    _exact_pp_init,
    _top_eigenpairs,
    _fill_empty_clusters,
    cluster_sums,
    kmeans_pp_draws,
    nearest_centers,
)
from vlac.errors import (
    DataError,
    DimensionMismatch,
    DTooLarge,
    EmptyInput,
    InsufficientRows,
    KTooLarge,
)


def nearest(point, *centers):
    """Index of the center nearest to one point, as nearest_centers gives it."""
    return int(nearest_centers([point], np.asarray(centers, dtype=float))[0])


def reference_pca(rows, d):
    """The top-``d`` (eigenvalues, directions) of ``rows`` twice over: from
    ``eigh`` of the covariance and from the SVD of the centered rows, each
    direction flipped so its largest-magnitude component is positive."""
    centered = rows - rows.mean(axis=0)
    n = rows.shape[0]
    evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
    order = np.argsort(-evals)[:d]
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)

    def signed(vecs):
        top = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
        return vecs * np.sign(top)[:, None]

    return [(evals[order], signed(evecs[:, order].T)),
            (sing[:d] ** 2 / (n - 1), signed(vt[:d]))]


def reference_sq_dists(points, centers):
    """Squared distances as first written: per chunk of
    ``max(1, _BLOCK_VALUES // k)`` rows, ``x2 + c2 - 2 * (block @ centers.T)``
    from fresh temporaries."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    out = np.empty((points.shape[0], centers.shape[0]))
    chunk = max(1, core_math._BLOCK_VALUES // centers.shape[0])
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        x2 = np.einsum("ij,ij->i", block, block)
        out[start : start + chunk] = (
            x2[:, None] + c2[None, :] - 2.0 * (block @ centers.T)
        )
    return out


def reference_kmeans(points, k, seed, max_iter=100, tol=1e-4, refills=None):
    """kmeans_fit as first written: ``rng.choice`` k-means++ draws, distances
    from fresh temporaries and one masked mean per cluster. Refills use the
    same helper, on every point's distance to its center read from the whole
    distance matrix of every iteration; each iteration's count of moved
    points is appended to ``refills`` if given."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for i in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[i] = points[idx]
        diff = points - centers[i]
        closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
    history, prev = [], np.inf
    for _ in range(max_iter):
        dists = reference_sq_dists(points, centers)
        assign = np.argmin(dists, axis=1)
        moved = _fill_empty_clusters(assign, dists[np.arange(n), assign], k)
        if refills is not None:
            refills.append(moved)
        centers = np.stack([points[assign == j].mean(axis=0) for j in range(k)])
        history.append(float(np.sum((points - centers[assign]) ** 2)))
        if np.isfinite(prev) and prev - history[-1] <= tol * prev:
            break
        prev = history[-1]
    return centers, tuple(history)


@st.composite
def kmeans_cases(draw):
    """Points, k and seed. ``unique`` < n repeats rows, so with k above the
    number of distinct rows the seeding falls back to uniform draws; k near
    n empties clusters that then get refilled; integer grids make ties."""
    n = draw(st.integers(1, 60), label="n")
    dim = draw(st.integers(1, 5), label="dim")
    unique = draw(st.integers(1, n), label="unique")
    k = draw(st.sampled_from(sorted({1, unique, n, max(1, n - 1),
                                     draw(st.integers(1, n))})), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans(), label="grid"):
        rows = rng.integers(-2, 3, size=(unique, dim)).astype(np.float64)
    else:
        rows = rng.normal(size=(unique, dim)) * 10.0 ** rng.integers(-3, 4)
    points = rows[rng.integers(0, unique, size=n)] if unique < n else rows
    return points, k, draw(st.integers(0, 2**32 - 1), label="seed")


# Finite points whose squared norms overflow float64: the distance form
# used to make every distance inf and assign all three to center 0, where
# the overflow-free argmax(x.c - |c|^2 / 2) gives [2, 1, 2].
HUGE_POINTS = 1e300 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]])
UNIT_CENTERS = np.eye(3)
# Finite squared norms (1.47e308) whose Gram-form distances still overflow:
# |x|^2 + |c|^2 and 2 x.c exceed float64's range.
HALF_RANGE_POINTS = 7e153 * np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
                                      [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])


class TestKMeans:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_norms_raise(self):
        with pytest.raises(DataError, match="points have a squared norm"):
            kmeans_fit(HUGE_POINTS, 2, 0)
        with pytest.raises(DataError, match="points have a squared norm"):
            kmeans_pp_draws([HUGE_POINTS, HUGE_POINTS], 2, [0, 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_raise(self):
        with pytest.raises(DataError, match="distances overflow"):
            kmeans_fit(HALF_RANGE_POINTS, 2, 0)
        with pytest.raises(DataError, match="distances overflow"):
            kmeans_pp_draws([HALF_RANGE_POINTS] * 2, 2, [0, 1])

    @settings(max_examples=150, deadline=None)
    @given(case=kmeans_cases())
    def test_bit_identical_to_reference(self, case):
        points, k, seed = case
        centers, history = reference_kmeans(points, k, seed)
        result = kmeans_fit(points, k, seed)
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    @settings(max_examples=100, deadline=None)
    @given(case=kmeans_cases())
    def test_bit_identical_to_reference_across_chunks(self, case):
        # 5-value cache blocks put the boundaries of the distance chunks
        # (max(1, 5 // k) rows), the residual sums and the scatter-add's
        # rows inside the data, so all are checked across chunks too
        points, k, seed = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_math, "_BLOCK_VALUES", 5)
            centers, history = reference_kmeans(points, k, seed)
            result = kmeans_fit(points, k, seed)
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    def test_reference_cases_reach_fallback_and_refill(self):
        # the branches the property above must reach: with 3 distinct rows
        # and k = 5 the weighted draws run out, the uniform fallback draws
        # duplicate centers, and their empty clusters are refilled
        points = np.repeat(np.eye(3), 2, axis=0)
        result = kmeans_fit(points, 5, seed=0)
        assert result.refills > 0
        centers, history = reference_kmeans(points, 5, 0)
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    @pytest.mark.parametrize("chunk", [1, 16, 33])
    def test_chunked_argmin_matches_reference(self, monkeypatch, chunk):
        # each distance chunk's argmin is taken as soon as the chunk exists;
        # a fit over many chunks must be the whole-matrix reference bit for bit
        points = np.random.default_rng(5).normal(size=(100, 3))
        monkeypatch.setattr(core_math, "_BLOCK_VALUES", chunk * 6)
        centers, history = reference_kmeans(points, 6, 8)
        result = kmeans_fit(points, 6, 8)
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    def test_refill_across_chunks_matches_reference(self, monkeypatch):
        # 4 distinct rows, each 10 times, and k = 6: the seeding draws
        # duplicate centers, so an iteration leaves clusters empty and the
        # refill gathers each point's distance to its center chunk by chunk
        points = np.repeat(np.random.default_rng(6).normal(size=(4, 2)), 10,
                           axis=0)
        monkeypatch.setattr(core_math, "_BLOCK_VALUES", 7 * 6)
        moved = []
        centers, history = reference_kmeans(points, 6, 3, refills=moved)
        result = kmeans_fit(points, 6, 3)
        assert result.refills == sum(moved) > 0
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    def test_lloyd_holds_no_distance_matrix(self, monkeypatch):
        # one (n, k) float64 matrix is 10.24 MB here; the seeding is drawn
        # ahead, so only the Lloyd iterations are measured (the whole fit
        # is bounded in test_fit_holds_no_input_sized_array). Spread-out
        # rows never empty a cluster; 40 distinct rows and k = 64 empty
        # some in every iteration, so the refill is measured too
        n, k = 20_000, 64
        rng = np.random.default_rng(7)
        spread = rng.normal(size=(n, 8))
        repeated = rng.normal(size=(40, 8))[rng.integers(0, 40, size=n)]
        monkeypatch.setattr(core_math, "_KMEANS_MAX_ITER", 3)
        for points, refilled in [(spread, False), (repeated, True)]:
            draws = kmeans_pp_draws([points], k, [1])[0]
            tracemalloc.start()
            try:
                result = kmeans_fit(points, k, 1, draws=draws)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (result.refills > 0) == refilled
            assert peak < n * k * 8

    def test_fit_holds_no_input_sized_array(self, monkeypatch):
        # the pooled codebook shape of the build workload: the seeding's
        # (k - 1, n) cumulative sums and Lloyd's (n, dim) residuals were
        # each as large as the input (28.7 MB), and the whole fit peaked at
        # 38.2 MB; now it holds rows, blocks and chunks only
        points = np.random.default_rng(8).normal(size=(56_000, 64))
        monkeypatch.setattr(core_math, "_KMEANS_MAX_ITER", 2)
        tracemalloc.start()
        try:
            result = kmeans_fit(points, 64, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.inertia_history) == 2
        assert peak < points.nbytes / 2

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), dim=st.integers(1, 64),
           k=st.integers(1, 64), scale=st.integers(-3, 3),
           data_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_gram_seeding_at_window_shapes(self, n, dim, k, scale, data_seed,
                                           seed):
        # LFC-window shapes (200 x 64, k = 64 in the build workload) on
        # spread-out data: every draw is certified on the Gram path
        points = np.random.default_rng(data_seed).normal(size=(n, dim))
        points *= 10.0 ** scale
        k = min(k, n)
        centers, history = reference_kmeans(points, k, seed)
        result = kmeans_fit(points, k, seed)
        assert result.seeding == "gram"
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    @pytest.mark.parametrize("case", ["offset", "duplicates"])
    def test_uncertified_draw_falls_back_to_exact(self, case):
        rng = np.random.default_rng(21)
        if case == "offset":
            # |x|^2 ~ 1e16 against distances ~ 1: cancellation swamps the
            # Gram form, so the first draw cannot be certified
            points = 1e8 + rng.normal(size=(50, 4))
            k = 6
        else:
            # 4 distinct rows and k = 6: once they are drawn every direct
            # distance is 0 and the seeding takes its uniform draws
            points = rng.normal(size=(4, 3))[rng.integers(0, 4, size=40)]
            k = 6
        centers, history = reference_kmeans(points, k, 5)
        result = kmeans_fit(points, k, 5)
        assert result.seeding == "exact"
        assert np.array_equal(result.centers, centers)
        assert result.inertia_history == history

    def test_gram_seeding_above_the_row_limit(self, monkeypatch):
        # above the limit each draw is one matrix-vector product
        monkeypatch.setattr(core_math, "_PP_GRAM_ROWS", 16)
        rng = np.random.default_rng(33)
        for trial, (n, dim, k) in enumerate([(17, 3, 5), (120, 8, 16),
                                             (400, 64, 64)]):
            points = rng.normal(size=(n, dim)) * 10.0 ** (trial - 1)
            centers, history = reference_kmeans(points, k, trial)
            result = kmeans_fit(points, k, trial)
            assert result.seeding == "gram"
            assert np.array_equal(result.centers, centers)
            assert result.inertia_history == history

    @pytest.mark.parametrize("draws", [1, 5, 64])
    def test_uniforms_drawn_up_front_are_the_same_stream(self, draws):
        # the lockstep seeding takes each window's uniforms with one
        # random(k - 1) after integers(n); the direct path takes them one
        # random() at a time
        for seed in range(20):
            ahead, one_by_one = (np.random.default_rng(seed) for _ in "ab")
            assert ahead.integers(200) == one_by_one.integers(200)
            assert (ahead.random(draws).tolist()
                    == [one_by_one.random() for _ in range(draws)])

    @pytest.mark.parametrize("gram_rows", [512, 8])
    def test_lockstep_draws_match_each_window_alone(self, monkeypatch,
                                                    gram_rows):
        # five windows in lockstep, the fourth offset so that its draws
        # cannot be certified; every window draws what the direct path
        # draws, and what it draws alone
        monkeypatch.setattr(core_math, "_PP_GRAM_ROWS", gram_rows)
        rng = np.random.default_rng(40)
        windows = [rng.normal(size=(30, 4)) * 10.0 ** (b - 2)
                   for b in range(5)]
        windows[3] += 1e8
        seeds = [9 ^ b for b in range(5)]
        together = kmeans_pp_draws(windows, 7, seeds)
        assert [path for _, path in together] == ["gram"] * 3 + ["exact",
                                                                 "gram"]
        for window, seed, (idx, path) in zip(windows, seeds, together):
            direct = _exact_pp_init(window, 7, np.random.default_rng(seed))
            assert idx.tolist() == direct.tolist()
            alone_idx, alone_path = kmeans_pp_draws([window], 7, [seed])[0]
            assert alone_idx.tolist() == direct.tolist()
            assert alone_path == path

    @pytest.mark.parametrize("side", [-1, 1])
    def test_draw_within_slack_of_a_cdf_step_is_not_certified(self, side):
        # three points on a line whose weighted draw puts u * total a few
        # ulps below (side -1) or above (side 1) the CDF step at the second
        # point: both paths may round it to either side, so the Gram draw
        # must not be certified
        seed = next(s for s in range(100)
                    if np.random.default_rng(s).integers(3) == 0)
        rng = np.random.default_rng(seed)
        rng.integers(3)
        u = rng.random()
        eps = np.finfo(np.float64).eps
        points = np.array([[0.0], [np.sqrt(u * (1 - side * 16 * eps))],
                           [-np.sqrt(1 - u)]])
        cum = np.cumsum(points[:, 0] ** 2)
        assert 0 < side * (u * cum[-1] - cum[1]) < 100 * eps
        idx, path = kmeans_pp_draws([points], 2, [seed])[0]
        assert path == "exact"
        direct = _exact_pp_init(points, 2, np.random.default_rng(seed))
        assert idx.tolist() == direct.tolist()

    def test_lockstep_draws_in_blocks(self, monkeypatch):
        # a stack bigger than the work-array budget is drawn in blocks
        rng = np.random.default_rng(41)
        windows = [rng.normal(size=(20, 3)) for _ in range(6)]
        whole = kmeans_pp_draws(windows, 5, list(range(6)))
        monkeypatch.setattr(core_math, "_PP_STACK_BYTES", 2 * 8 * 20 * 25)
        blocks = kmeans_pp_draws(windows, 5, list(range(6)))
        for (a, path_a), (b, path_b) in zip(whole, blocks):
            assert a.tolist() == b.tolist() and path_a == path_b == "gram"

    def test_handed_draws_give_the_same_fit(self):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(40, 3))
        draws = kmeans_pp_draws([points], 6, [3])[0]
        own = kmeans_fit(points, 6, 3)
        handed = kmeans_fit(points, 6, 3, draws=draws)
        assert np.array_equal(own.centers, handed.centers)
        assert own.inertia_history == handed.inertia_history
        assert own.seeding == handed.seeding == "gram"

    @pytest.mark.parametrize("draws", [
        (np.arange(5), "gram"),             # one index short
        (np.arange(7), "gram"),             # one index too many
        (np.array([0, 1, 2, 3, 4, 40]), "gram"),  # a row past the end
        (np.array([-1, 1, 2, 3, 4, 5]), "exact"),  # a negative row
        (np.arange(6.0), "gram"),           # not integers
        (np.arange(6), "direct"),           # an unknown path
    ])
    def test_handed_draws_are_checked(self, draws):
        points = np.random.default_rng(43).normal(size=(40, 3))
        with pytest.raises(ValueError, match="draws must be"):
            kmeans_fit(points, 6, 3, draws=draws)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 80), dim=st.integers(1, 6), k=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([None, 1, 7]))
    def test_cluster_sums_match_masked_sums(self, n, dim, k, seed, block):
        # block=None keeps the module's _BLOCK_VALUES; 1 and 7 put the
        # scatter-add's row blocks inside the data
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        assign = rng.integers(0, k, size=n)
        expected = np.stack([points[assign == j].sum(axis=0)
                             for j in range(k)])
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(core_math, "_BLOCK_VALUES", block)
            got = cluster_sums(points, assign, k)
        assert np.array_equal(got, expected)

    def test_reports_convergence_and_refills(self, monkeypatch):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(100, 3))
        fit = kmeans_fit(points, 4, seed=1)
        assert fit.converged is True and fit.refills == 0
        monkeypatch.setattr(core_math, "_KMEANS_MAX_ITER", 1)
        capped = kmeans_fit(points, 4, seed=1)
        assert capped.converged is False
        assert len(capped.inertia_history) == 1

    def test_two_separated_pairs(self):
        # unique local optimum: centers must be the two pair means
        points = np.array([[0.0], [0.2], [10.0], [10.2]])
        result = kmeans_fit(points, 2, seed=0)
        got = sorted(result.centers.ravel().tolist())
        np.testing.assert_allclose(got, [0.1, 10.1])

    def test_identical_points_single_center(self):
        result = kmeans_fit(np.array([[5.0], [5.0], [5.0]]), 1, seed=3)
        np.testing.assert_allclose(result.centers, [[5.0]])
        assert result.inertia == 0.0

    def test_k_equals_point_count(self):
        result = kmeans_fit(np.array([[1.0], [2.0]]), 2, seed=1)
        assert sorted(result.centers.ravel().tolist()) == [1.0, 2.0]
        assert result.inertia == 0.0

    def test_errors(self):
        with pytest.raises(EmptyInput):
            kmeans_fit(np.empty((0, 2)), 1, seed=0)
        with pytest.raises(KTooLarge):
            kmeans_fit(np.array([[1.0], [2.0]]), 3, seed=0)
        with pytest.raises(DimensionMismatch):
            kmeans_fit([np.array([1.0]), np.array([1.0, 2.0])], 1, seed=0)
        with pytest.raises(DimensionMismatch, match="dim >= 1"):
            kmeans_fit(np.empty((5, 0)), 2, seed=0)

    def test_deterministic_rerun_bit_identical(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(200, 5))
        a = kmeans_fit(points, 8, seed=42)
        b = kmeans_fit(points, 8, seed=42)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia
        assert a.inertia_history == b.inertia_history

    def test_inertia_monotone_non_increasing(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            points = rng.normal(size=(150, 4))
            result = kmeans_fit(points, 6, seed=trial)
            history = np.array(result.inertia_history)
            assert np.all(np.diff(history) <= 0)

    def test_empty_cluster_refill_keeps_k(self):
        # one far outlier plus a tight clump provokes empty clusters
        points = np.concatenate([np.zeros((20, 2)), [[100.0, 100.0]]])
        result = kmeans_fit(points, 3, seed=0)
        assert result.centers.shape == (3, 2)
        assert np.isfinite(result.centers).all()
        assert result.refills > 0


@st.composite
def inertia_cases(draw):
    """Points, centers and an assignment whose n * dim is below numpy's
    8-way unroll, within one 128-value leaf, just above ``_BLOCK_VALUES``
    or several blocks deep; dim = 1 in a share of them."""
    size = draw(st.sampled_from(["below_8", "one_leaf", "above_block",
                                 "deep"]), label="size")
    dim = draw(st.sampled_from([1, draw(st.integers(1, 130))]), label="dim")
    if size == "below_8":
        dim = min(dim, 7)
        values = draw(st.integers(1, 7 // dim * dim))
    elif size == "one_leaf":
        dim = min(dim, 128)
        values = draw(st.integers(1, 128))
    elif size == "above_block":
        values = core_math._BLOCK_VALUES + draw(st.integers(1, 2 * dim + 8))
    else:
        values = draw(st.integers(2, 8)) * core_math._BLOCK_VALUES + draw(
            st.integers(0, 999))
    n = max(1, values // dim)
    k = draw(st.integers(1, min(n, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
    centers = rng.normal(size=(k, dim))
    return points, centers, rng.integers(0, k, size=n)


class TestInertia:
    """``_inertia`` is ``np.sum((points - centers[assign]) ** 2)`` bit for
    bit. It relies on how numpy sums a contiguous float64 array: pairwise,
    split at half the count rounded down to a multiple of 8 while a run
    holds more than 128 values (numpy's PW_BLOCKSIZE), and each run of at
    most 128 added eight ways. A numpy that sums in another order fails
    here."""

    @settings(max_examples=150, deadline=None)
    @given(case=inertia_cases(),
           block=st.sampled_from([None, 1, 5, 127, 128, 129, 1000]))
    def test_matches_numpy_sum(self, case, block):
        # block=None keeps the module's _BLOCK_VALUES; a block below 128
        # must still leave numpy's own leaves whole
        points, centers, assign = case
        want = float(np.sum((points - centers[assign]) ** 2))
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(core_math, "_BLOCK_VALUES", block)
            got = core_math._inertia(points, centers, assign)
        assert got == want

    def test_tree_differs_from_block_sums(self):
        # adding per-block sums in order is not the same sum: the property
        # above would catch a walk that dropped numpy's tree
        points = np.random.default_rng(0).normal(size=(5000, 33)) * 1e3
        centers, assign = points[:1] * 0.0, np.zeros(5000, dtype=np.intp)
        flat = (points ** 2).ravel()
        step = core_math._BLOCK_VALUES
        blockwise = 0.0
        for start in range(0, flat.size, step):
            blockwise += flat[start : start + step].sum()
        assert core_math._inertia(points, centers, assign) == flat.sum()
        assert blockwise != flat.sum()


class TestQuantize:
    """Vector quantization: nearest_centers maps a point to its center."""

    def test_exact_match(self):
        assert nearest([0.0], [0.0], [10.0]) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert nearest([5.0], [0.0], [10.0]) == 0

    def test_nearest_of_three(self):
        # exhaustive distance comparison puts 7.6 nearest to 7
        assert nearest([7.6], [0.0], [10.0], [7.0]) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nearest([1.0, 2.0], [0.0], [10.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norms_raise(self):
        with pytest.raises(DataError, match="points have a squared norm"):
            nearest_centers(HUGE_POINTS, UNIT_CENTERS)
        with pytest.raises(DataError, match="centers have a squared norm"):
            nearest_centers(UNIT_CENTERS, HUGE_POINTS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_raise(self):
        with pytest.raises(DataError, match="distances overflow"):
            nearest_centers(HALF_RANGE_POINTS, HALF_RANGE_POINTS[::-1])
        # halved, the squared norms sum to 7.4e307, within half the range
        assert np.array_equal(
            nearest_centers(HALF_RANGE_POINTS / 2, HALF_RANGE_POINTS[::-1] / 2),
            [3, 2, 1, 0])

    @pytest.mark.parametrize("block", [7, 4096])
    def test_chunked_distances_match_reference(self, monkeypatch, block):
        # float32 points are widened chunk by chunk, so their distances are
        # those of their float64 widening, bit for bit
        monkeypatch.setattr(core_math, "_BLOCK_VALUES", block)
        rng = np.random.default_rng(12)
        for n, k, dim in [(1, 1, 1), (7, 3, 2), (8, 5, 3), (50, 9, 4),
                          (200, 64, 64)]:
            scaled = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
            centers = rng.normal(size=(k, dim))
            for points in [scaled, scaled.astype(np.float32)]:
                expected = reference_sq_dists(points.astype(np.float64),
                                              centers)
                got = [(start, dists.copy())
                       for start, dists in _dist_blocks(points, centers)]
                assert [start for start, _ in got] == list(
                    range(0, n, max(1, block // k)))
                assert np.array_equal(
                    np.concatenate([dists for _, dists in got]), expected)
                assert np.array_equal(nearest_centers(points, centers),
                                      np.argmin(expected, axis=1))

    def test_refuses_zero_centers(self):
        with pytest.raises(EmptyInput, match="at least one center"):
            nearest_centers(np.ones((3, 2)), np.empty((0, 2)))
        # zero points still quantize to nothing
        got = nearest_centers(np.empty((0, 2)), np.ones((2, 2)))
        assert got.shape == (0,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, value):
        # a value that is not finite is named as such, not as an overflow
        bad = np.ones((2, 2))
        bad[1, 0] = value
        with pytest.raises(DataError, match="points contain non-finite"):
            nearest_centers(bad, np.ones((2, 2)))
        with pytest.raises(DataError, match="centers contain non-finite"):
            nearest_centers(np.ones((3, 2)), bad)
        with pytest.raises(DataError, match="points contain non-finite"):
            kmeans_fit(bad, 1, 0)

    def test_float32_points_hold_no_float64_copy(self):
        # the float64 widening of these points is 10.24 MB (9.77 MiB); it
        # used to be made whole, and the call peaked at 14.2 MB
        rng = np.random.default_rng(13)
        points = rng.normal(size=(20_000, 64)).astype(np.float32)
        centers = rng.normal(size=(64, 64))
        tracemalloc.start()
        try:
            nearest_centers(points, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < points.size * 8

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 6))
            centers = rng.normal(size=(k, dim))
            points = rng.normal(size=(n, dim))
            got = nearest_centers(points, centers)
            for point, index in zip(points, got):
                dists = [float(np.sum((point - c) ** 2)) for c in centers]
                best = min(range(k), key=lambda i: (dists[i], i))
                assert index == best


class TestPCA:
    def test_rank_one_axis(self):
        rows = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        basis = pca_fit(rows, 1)
        np.testing.assert_allclose(basis.rows, [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(basis.mean, [1.0, 0.0])

    def test_identical_rows_zero_eigenvalue(self):
        v = np.array([2.0, -1.0, 3.0])
        basis = pca_fit(np.stack([v, v]), 1)
        np.testing.assert_allclose(basis.eigenvalues, [0.0], atol=1e-12)
        np.testing.assert_allclose(basis.mean, v)

    def test_full_dimension_round_trip(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(40, 6))
        basis = pca_fit(rows, 6)
        for v in rows[:10]:
            back = pca_project(basis, v) @ basis.rows + basis.mean
            np.testing.assert_allclose(back, v, rtol=1e-6, atol=1e-9)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(30, 8)) * 5.0
        basis = pca_fit(rows, 5)
        gram = basis.rows @ basis.rows.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-6)

    def test_eigenvalues_sorted_and_nonnegative(self):
        rng = np.random.default_rng(2)
        basis = pca_fit(rng.normal(size=(25, 7)), 7)
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
        assert np.all(basis.eigenvalues >= -1e-9)

    def test_eig_and_svd_paths_agree(self):
        rng = np.random.default_rng(3)
        # a wide input of rank 3 keeps a zero eigenvalue at d = 4, which the
        # Gram path refuses, so it takes the SVD; only its first 3
        # directions are defined
        for _ in range(10):
            cases = (
                ("eig", rng.normal(size=(20, 6)), 4),
                ("gram", rng.normal(size=(20, 60)), 4),
                ("svd", rng.normal(size=(20, 3)) @ rng.normal(size=(3, 60)), 3),
            )
            for solver, rows, defined in cases:
                fit = pca_fit(rows, 4)
                assert fit.solver == solver
                np.testing.assert_allclose(fit.rows @ fit.rows.T, np.eye(4),
                                           atol=1e-9)
                fits = [(fit.eigenvalues, fit.rows), *reference_pca(rows, 4)]
                for a, b in itertools.combinations(fits, 2):
                    np.testing.assert_allclose(a[1][:defined], b[1][:defined],
                                               atol=1e-5)
                    np.testing.assert_allclose(a[0], b[0], atol=1e-5)

    def test_auto_picks_solver_by_shape(self):
        rng = np.random.default_rng(5)
        assert pca_fit(rng.normal(size=(10, 30)), 4).solver == "gram"
        assert pca_fit(rng.normal(size=(29, 30)), 4).solver == "gram"
        assert pca_fit(rng.normal(size=(30, 30)), 4).solver == "eig"
        assert pca_fit(rng.normal(size=(40, 30)), 4).solver == "eig"
        # a wide input the Gram path refuses takes the thin SVD; a tall
        # rank-deficient one stays on the covariance
        rank_two = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 30))
        assert pca_fit(rank_two, 4).solver == "svd"
        assert pca_fit(rank_two.T, 4).solver == "eig"

    def test_rank_deficient_wide_falls_back(self):
        # rank-2 data: the 3rd and 4th Gram eigenvalues are rounding noise;
        # with 1e-6 noise they sit above the n*eps*lambda_max floor, but the
        # mapped Gram rows are off orthonormal by about 1e-4
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 50))
        noisy = rows + 1e-6 * rng.normal(size=rows.shape)
        for data in (rows, noisy):
            basis = pca_fit(data, 4)
            assert basis.solver == "svd"
            assert np.isfinite(basis.rows).all()
            np.testing.assert_allclose(
                basis.rows @ basis.rows.T, np.eye(4), atol=1e-9)
            np.testing.assert_allclose(basis.retained_variance, 1.0)

    def test_retained_variance(self):
        rng = np.random.default_rng(7)
        for shape in ((12, 40), (40, 12)):
            rows = rng.normal(size=shape)
            centered = rows - rows.mean(axis=0)
            total = np.sum(centered**2) / (shape[0] - 1)
            basis = pca_fit(rows, 3)
            np.testing.assert_allclose(
                basis.retained_variance, basis.eigenvalues.sum() / total)
            assert 0.0 < basis.retained_variance < 1.0
            # every direction with variance kept: all of it retained
            full = pca_fit(rows, min(shape[0] - 1, shape[1]))
            np.testing.assert_allclose(full.retained_variance, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
           extra=st.integers(1, 30), data=st.data())
    def test_wide_gram_matches_eig(self, seed, n, extra, data):
        d = data.draw(st.integers(1, n - 1), label="d")
        rows = np.random.default_rng(seed).normal(size=(n, n + extra))
        auto = pca_fit(rows, d)
        assert auto.solver == "gram"
        np.testing.assert_allclose(auto.rows @ auto.rows.T, np.eye(d),
                                   atol=1e-9)
        eigenvalues, eig_rows = reference_pca(rows, d)[0]
        np.testing.assert_allclose(auto.rows, eig_rows, atol=1e-5)
        np.testing.assert_allclose(auto.eigenvalues, eigenvalues, atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
           dim=st.integers(2, 20), data=st.data())
    def test_orientation_picks_solver(self, seed, n, dim, data):
        # full-rank input: Gram when wide, covariance when tall, whatever
        # the width
        d = data.draw(st.integers(1, min(n - 1, dim)), label="d")
        rows = np.random.default_rng(seed).normal(size=(n, dim))
        fit = pca_fit(rows, d)
        assert fit.solver == ("gram" if n < dim else "eig")
        for eigenvalues, directions in reference_pca(rows, d):
            np.testing.assert_allclose(fit.rows, directions, atol=1e-5)
            np.testing.assert_allclose(fit.eigenvalues, eigenvalues,
                                       atol=1e-5)

    def test_errors(self):
        with pytest.raises(InsufficientRows):
            pca_fit(np.ones((1, 3)), 1)
        with pytest.raises(DTooLarge):
            pca_fit(np.ones((4, 3)), 4)


class TestPCAOwnership:
    """``pca_fit`` centers a C-contiguous float64 input in place and
    converts any other input first, leaving it unchanged; the basis does
    not depend on which it did."""

    @staticmethod
    def inputs():
        """(solver, rows) of each case."""
        rng = np.random.default_rng(8)
        rank_two = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 50))
        return [
            ("gram", rng.normal(size=(12, 40))),
            ("eig", rng.normal(size=(40, 12))),
            # wide but rank-deficient, so the Gram path falls back to the
            # SVD: a kept eigenvalue is zero, or with noise the mapped rows
            # are not orthonormal
            ("svd", rank_two),
            ("svd", rank_two + 1e-6 * rng.normal(size=rank_two.shape)),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_default_leaves_rows_unchanged(self, case):
        # a Fortran-ordered input is converted, so the fit leaves it as is
        solver, rows = self.inputs()[case]
        fortran = np.asfortranarray(rows)
        before = fortran.tobytes(order="A")
        basis = pca_fit(fortran, 4)
        assert basis.solver == solver
        assert fortran.tobytes(order="A") == before

    @pytest.mark.parametrize("case", range(4))
    def test_overwrite_gives_the_same_basis(self, case):
        solver, rows = self.inputs()[case]
        fortran = np.asfortranarray(rows)
        kept = pca_fit(fortran, 4)
        basis = pca_fit(rows, 4)
        assert basis.solver == kept.solver == solver
        for name in ("rows", "mean", "eigenvalues"):
            got, want = getattr(basis, name), getattr(kept, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert basis.retained_variance == kept.retained_variance
        # the caller's matrix now holds the centered rows
        assert rows.tobytes() == (fortran - kept.mean).tobytes()

    def test_overwrite_converts_other_inputs_first(self):
        rows = np.random.default_rng(9).normal(size=(12, 5)).astype(np.float32)
        before = rows.tobytes()
        basis = pca_fit(rows, 3)
        assert rows.tobytes() == before
        wide = rows.astype(np.float64)
        assert basis.rows.tobytes() == pca_fit(wide, 3).rows.tobytes()


@contextlib.contextmanager
def solver_context(solver):
    """Run ``_top_eigenpairs`` with ``solver``: "dsyevr" (skipped when
    numpy's BLAS is not its bundled OpenBLAS) or "eigh", the fallback,
    forced by replacing the cached library handle with None."""
    if solver == "dsyevr" and core_math._openblas() is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas")
    with pytest.MonkeyPatch.context() as mp:
        if solver == "eigh":
            mp.setattr(core_math, "_openblas", lambda: None)
        yield


class TestTopEigenpairs:
    """``_top_eigenpairs`` on both paths: the top-d ``dsyevr`` solve and the
    full ``eigh`` it falls back to on another BLAS."""

    @pytest.mark.parametrize("solver", ["dsyevr", "eigh"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           data=st.data())
    def test_top_d_of_symmetric_psd(self, solver, seed, n, data):
        # m < n rows give a rank-deficient matrix with tied zero eigenvalues
        m = data.draw(st.integers(1, n + 3), label="m")
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        x = np.random.default_rng(seed).normal(size=(m, n)) * scale
        sym = x.T @ x
        want = np.linalg.eigh(sym)[0][::-1]
        top = want[0]
        with solver_context(solver):
            assert core_math.eigensolver() == solver
            for d in range(1, n + 1):
                evals, rows = _top_eigenpairs(sym.copy(), d)
                assert evals.shape == (d,) and rows.shape == (d, n)
                assert np.all(np.diff(evals) <= 0.0)
                assert np.abs(evals - want[:d]).max() <= 1e-12 * top
                assert np.abs(rows @ rows.T - np.eye(d)).max() <= 1e-10
                residual = sym @ rows.T - rows.T * evals
                assert np.linalg.norm(residual, axis=0).max() <= 1e-10 * top

    @pytest.mark.parametrize("shape", [(60, 20), (20, 60)])
    def test_pca_fit_paths_agree(self, shape):
        rows = np.random.default_rng(10).normal(size=shape)
        fits = {}
        for solver in ("dsyevr", "eigh"):
            with solver_context(solver):
                fits[solver] = pca_fit(rows.copy(), 5)
        top, full = fits["dsyevr"], fits["eigh"]
        assert top.solver == full.solver == ("eig" if shape[0] > shape[1]
                                             else "gram")
        np.testing.assert_allclose(top.rows, full.rows, rtol=0, atol=1e-9)
        np.testing.assert_allclose(top.eigenvalues, full.eigenvalues,
                                   rtol=1e-9, atol=0)
        assert top.mean.tobytes() == full.mean.tobytes()

    def test_pca_fit_imports_no_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from vlac.core_math import pca_fit\n"
            "rng = np.random.default_rng(0)\n"
            "pca_fit(rng.normal(size=(40, 10)), 3)\n"
            "pca_fit(rng.normal(size=(10, 40)), 3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(core_math.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestProjection:
    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(12, 5))
        basis = pca_fit(rows, 3)
        np.testing.assert_allclose(
            pca_project(basis, basis.mean), np.zeros(3), atol=1e-12
        )

    def test_identity_basis_passthrough(self):
        from vlac.core_math import ProjectionBasis

        basis = ProjectionBasis(
            rows=np.eye(3), mean=np.zeros(3), eigenvalues=np.ones(3)
        )
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(pca_project(basis, v), v)

    def test_axis_basis_scalar(self):
        rows = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        basis = pca_fit(rows, 1)
        got = pca_project(basis, np.array([5.0, 0.0]))
        np.testing.assert_allclose(got, [5.0 - 1.0])

    def test_dimension_mismatch(self):
        basis = pca_fit(np.random.default_rng(0).normal(size=(5, 3)), 2)
        with pytest.raises(DimensionMismatch):
            pca_project(basis, np.ones(4))


class TestBasisAlignment:
    def test_self_alignment_equals_d(self):
        rng = np.random.default_rng(6)
        basis = pca_fit(rng.normal(size=(30, 10)), 4)
        assert abs(basis_alignment_score(basis, basis) - 4.0) <= 1e-6

    def test_orthogonal_rows_score_zero(self):
        from vlac.core_math import ProjectionBasis

        a = ProjectionBasis(
            rows=np.array([[1.0, 0.0, 0.0]]), mean=np.zeros(3),
            eigenvalues=np.ones(1),
        )
        b = ProjectionBasis(
            rows=np.array([[0.0, 1.0, 0.0]]), mean=np.zeros(3),
            eigenvalues=np.ones(1),
        )
        assert basis_alignment_score(a, b) == 0.0

    def test_single_dot_product(self):
        from vlac.core_math import ProjectionBasis

        a = ProjectionBasis(
            rows=np.array([[1.0, 0.0]]), mean=np.zeros(2),
            eigenvalues=np.ones(1),
        )
        b = ProjectionBasis(
            rows=np.array([[0.6, 0.8]]), mean=np.zeros(2),
            eigenvalues=np.ones(1),
        )
        assert abs(basis_alignment_score(a, b) - 0.6) < 1e-12
        assert basis_alignment_score(a, b) == basis_alignment_score(b, a)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        a = pca_fit(rng.normal(size=(10, 4)), 2)
        b = pca_fit(rng.normal(size=(10, 5)), 2)
        with pytest.raises(DimensionMismatch):
            basis_alignment_score(a, b)
