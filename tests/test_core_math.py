import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlac import (
    Codebook,
    basis_alignment_score,
    kmeans_fit,
    pca_fit,
    pca_project,
    pca_reconstruct,
    quantize,
)
from vlac.errors import (
    DimensionMismatch,
    DTooLarge,
    EmptyInput,
    InsufficientRows,
    KTooLarge,
)


def cb(*centers):
    arr = np.asarray(centers, dtype=np.float64)
    return Codebook(centers=arr, k=arr.shape[0], seed=0, inertia=0.0)


class TestKMeans:
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


class TestQuantize:
    def test_exact_match(self):
        assert quantize([0.0], cb([0.0], [10.0])) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert quantize([5.0], cb([0.0], [10.0])) == 0

    def test_nearest_of_three(self):
        # exhaustive distance comparison puts 7.6 nearest to 7
        assert quantize([7.6], cb([0.0], [10.0], [7.0])) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quantize([1.0, 2.0], cb([0.0], [10.0]))

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 6))
            centers = rng.normal(size=(k, dim))
            book = Codebook(centers=centers, k=k, seed=0, inertia=0.0)
            for point in rng.normal(size=(n, dim)):
                dists = [float(np.sum((point - c) ** 2)) for c in centers]
                best = min(range(k), key=lambda i: (dists[i], i))
                assert quantize(point, book) == best


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
            back = pca_reconstruct(basis, pca_project(basis, v))
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
        for shape in [(20, 6)] * 10 + [(20, 60)] * 10:
            rows = rng.normal(size=shape)
            fits = [pca_fit(rows, 4, method=m) for m in ("auto", "eig", "svd")]
            assert fits[0].solver == ("gram" if shape[0] < shape[1] else "eig")
            for a, b in itertools.combinations(fits, 2):
                np.testing.assert_allclose(a.rows, b.rows, atol=1e-5)
                np.testing.assert_allclose(
                    a.eigenvalues, b.eigenvalues, atol=1e-5)

    def test_auto_picks_solver_by_shape(self):
        rng = np.random.default_rng(5)
        assert pca_fit(rng.normal(size=(10, 30)), 4).solver == "gram"
        assert pca_fit(rng.normal(size=(30, 30)), 4).solver == "eig"
        assert pca_fit(rng.normal(size=(40, 30)), 4).solver == "eig"
        for method in ("eig", "svd"):
            forced = pca_fit(rng.normal(size=(10, 30)), 4, method=method)
            assert forced.solver == method
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(10, 30)), 4, method="gram")

    def test_rank_deficient_wide_falls_back(self):
        # rank-2 data: the 3rd and 4th Gram eigenvalues are rounding noise;
        # with 1e-6 noise they sit above the n*eps*lambda_max floor, but the
        # mapped Gram rows are off orthonormal by about 1e-4
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 50))
        noisy = rows + 1e-6 * rng.normal(size=rows.shape)
        for data in (rows, noisy):
            basis = pca_fit(data, 4)
            assert basis.solver == "eig"
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
        eig = pca_fit(rows, d, method="eig")
        np.testing.assert_allclose(auto.rows, eig.rows, atol=1e-5)
        np.testing.assert_allclose(auto.eigenvalues, eig.eigenvalues,
                                   atol=1e-5)

    def test_errors(self):
        with pytest.raises(InsufficientRows):
            pca_fit(np.ones((1, 3)), 1)
        with pytest.raises(DTooLarge):
            pca_fit(np.ones((4, 3)), 4)


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
