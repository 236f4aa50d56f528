import numpy as np
import pytest

from vlac import (
    DescriptorSequence,
    aligned_similarity,
    load_store,
    retrieve,
    write_store,
)
from vlac.errors import DataError, DimensionMismatch, EmptyStore


def seq(video_id, matrix, method="vlac"):
    return DescriptorSequence(
        video_id=video_id, descriptors=np.asarray(matrix, dtype=np.float64),
        method=method,
    )


def brute_force_best(query, target):
    """Naive enumeration over all shifts of the shorter sequence."""
    a, b = query, target
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    g1, g2 = a.shape[0], b.shape[0]
    best_score, best_k = -np.inf, None
    for k in range(g2 - g1 + 1):
        s = 0.0
        for g in range(g1):
            s += float(np.dot(a[g], b[g + k]))
        if s > best_score:
            best_score, best_k = s, k
    return best_score, best_k


class TestDescriptorSequence:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        matrix = np.ones((2, 3))
        matrix[1, 2] = value
        with pytest.raises(DataError, match="non-finite"):
            seq("b", matrix)

    def test_rejects_empty_sequence(self):
        with pytest.raises(DataError):
            seq("a", np.empty((0, 3)))


class TestAlignedSimilarity:
    def test_equal_lengths_single_alignment(self):
        rng = np.random.default_rng(1)
        a = seq("a", rng.normal(size=(4, 3)))
        b = seq("b", rng.normal(size=(4, 3)))
        score, offset = aligned_similarity(a, b)
        expected = float(np.sum(a.descriptors * b.descriptors))
        assert offset == 0
        np.testing.assert_allclose(score, expected)

    def test_exact_subsequence_found(self):
        # orthonormal rows: target rows 2..3 are the query, others orthogonal
        eye = np.eye(6)
        target = seq("t", eye[:5])
        query = seq("q", eye[2:4])
        score, offset = aligned_similarity(query, target)
        assert offset == 2
        assert abs(score - 2.0) < 1e-12

    def test_matches_brute_force_fixture(self):
        rng = np.random.default_rng(2)
        q = seq("q", rng.normal(size=(3, 4)))
        t = seq("t", rng.normal(size=(7, 4)))
        score, offset = aligned_similarity(q, t)
        b_score, b_offset = brute_force_best(q.descriptors, t.descriptors)
        np.testing.assert_allclose(score, b_score)
        assert offset == b_offset

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g2 = int(rng.integers(1, 13))
            g1 = int(rng.integers(1, g2 + 1))
            d = int(rng.integers(1, 5))
            q = seq("q", rng.normal(size=(g1, d)))
            t = seq("t", rng.normal(size=(g2, d)))
            score, offset = aligned_similarity(q, t)
            b_score, b_offset = brute_force_best(q.descriptors, t.descriptors)
            np.testing.assert_allclose(score, b_score, rtol=1e-12)
            assert offset == b_offset

    def test_tie_breaks_to_smallest_shift(self):
        # two identical alignment windows -> equal scores at k=0 and k=2
        target = seq("t", [[1.0], [0.0], [1.0], [0.0]])
        query = seq("q", [[1.0], [0.0]])
        score, offset = aligned_similarity(query, target)
        assert score == 1.0
        assert offset == 0

    def test_max_property(self):
        rng = np.random.default_rng(4)
        q = seq("q", rng.normal(size=(3, 3)))
        t = seq("t", rng.normal(size=(9, 3)))
        score, _ = aligned_similarity(q, t)
        for k in range(7):
            fixed = float(np.sum(q.descriptors * t.descriptors[k : k + 3]))
            assert score >= fixed - 1e-12

    def test_argument_order_symmetric(self):
        rng = np.random.default_rng(5)
        q = seq("q", rng.normal(size=(2, 3)))
        t = seq("t", rng.normal(size=(5, 3)))
        assert aligned_similarity(q, t) == aligned_similarity(t, q)

    def test_strict_paper_range(self):
        target = seq("t", [[1.0], [5.0], [0.0]])
        query = seq("q", [[1.0]])
        # default includes k=0; strict range {1, 2} skips it
        score, offset = aligned_similarity(query, target,
                                           strict_paper_range=True)
        assert (score, offset) == (5.0, 1)
        equal = seq("e", [[1.0], [2.0], [3.0]])
        with pytest.raises(DataError):
            aligned_similarity(equal, seq("f", [[1.0], [2.0], [3.0]]),
                               strict_paper_range=True)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aligned_similarity(seq("a", np.ones((2, 3))),
                               seq("b", np.ones((2, 4))))

    def test_method_mismatch(self):
        with pytest.raises(DataError):
            aligned_similarity(seq("a", [[1.0]], "vlad"),
                               seq("b", [[1.0]], "vlac"))


class TestRetrieve:
    def make_store(self, rng, ids, g=4, d=3):
        return [seq(i, rng.normal(size=(g, d))) for i in ids]

    def test_self_retrieval_rank_one(self):
        rng = np.random.default_rng(6)
        mats = []
        for i in range(4):
            m = rng.normal(size=(3, 8))
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            mats.append(m)
        store = [seq(f"v{i}", m) for i, m in enumerate(mats)]
        result = retrieve(store[2], store, top_k=1)
        assert result.matches[0].video_id == "v2"

    def test_threshold_above_everything_empty(self):
        rng = np.random.default_rng(7)
        store = self.make_store(rng, ["a", "b", "c"])
        result = retrieve(store[0], store, threshold=1e9)
        assert result.matches == ()

    def test_ranking_matches_hand_sort(self):
        rng = np.random.default_rng(8)
        store = self.make_store(rng, list("abcde"))
        query = seq("q", rng.normal(size=(2, 3)))
        result = retrieve(query, store, top_k=0)
        scored = []
        for s in store:
            sc, _ = aligned_similarity(query, s)
            scored.append((s.video_id, sc))
        scored.sort(key=lambda p: (-p[1], p[0]))
        assert [m.video_id for m in result.matches] == [p[0] for p in scored]
        assert all(
            x.score >= y.score
            for x, y in zip(result.matches, result.matches[1:])
        )

    def test_deterministic_including_ties(self):
        base = [[1.0, 0.0], [0.0, 1.0]]
        store = [seq("b", base), seq("a", base), seq("c", base)]
        query = seq("q", base)
        first = retrieve(query, store, top_k=0)
        second = retrieve(query, store, top_k=0)
        assert first == second
        assert [m.video_id for m in first.matches] == ["a", "b", "c"]

    def test_normalize_by_length(self):
        rng = np.random.default_rng(9)
        store = self.make_store(rng, ["a"], g=5)
        query = seq("q", rng.normal(size=(2, 3)))
        plain = retrieve(query, store, top_k=0)
        normed = retrieve(query, store, top_k=0, normalize_by_length=True)
        np.testing.assert_allclose(
            normed.matches[0].score, plain.matches[0].score / 2.0
        )

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            retrieve(seq("q", [[1.0]]), [], top_k=1)

    def test_mode_required(self):
        store = [seq("a", [[1.0]])]
        with pytest.raises(ValueError):
            retrieve(seq("q", [[1.0]]), store)
        with pytest.raises(ValueError):
            retrieve(seq("q", [[1.0]]), store, top_k=1, threshold=0.0)

    def test_negative_top_k_rejected(self):
        store = [seq("a", [[1.0]]), seq("b", [[2.0]])]
        with pytest.raises(ValueError):
            retrieve(seq("q", [[1.0]]), store, top_k=-1)


class TestStoreIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        sequences = [
            seq("first", rng.normal(size=(3, 4))),
            seq("second/видео", rng.normal(size=(1, 4)), method="vlad"),
        ]
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        write_store(sequences, a)
        loaded = load_store(a)
        assert [s.video_id for s in loaded] == ["first", "second/видео"]
        assert [s.method for s in loaded] == ["vlac", "vlad"]
        write_store(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "t.store"
        write_store([seq("v", rng.normal(size=(2, 3)))], path)
        data = path.read_bytes()
        bad = tmp_path / "bad.store"
        bad.write_bytes(data[:-3])
        from vlac.errors import TruncatedFile

        with pytest.raises(TruncatedFile):
            load_store(bad)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"WRONG!!!")
        from vlac.errors import BadMagic

        with pytest.raises(BadMagic):
            load_store(path)
