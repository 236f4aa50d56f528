import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def brute_force_best(query, target, first_k=0):
    """Naive enumeration over shifts ``first_k`` to G2 - G1 of the shorter
    sequence."""
    a, b = query, target
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    g1, g2 = a.shape[0], b.shape[0]
    best_score, best_k = -np.inf, None
    for k in range(first_k, g2 - g1 + 1):
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

    @pytest.mark.parametrize("method", ["bogus", "", "sift", None])
    def test_rejects_method_without_store_tag(self, method):
        with pytest.raises(DataError, match="unknown method"):
            seq("a", np.ones((1, 3)), method)


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


@st.composite
def mixed_stores(draw):
    """A query and a store holding entries of length 1, of the query's
    length, shorter and longer than it, in a drawn order. On the integer
    grid every score is exact, so shifts and ids tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    g = draw(st.integers(2, 7))
    grid = draw(st.booleans())
    lengths = [1, g, draw(st.integers(1, g - 1))] + draw(
        st.lists(st.integers(1, g + 6), max_size=5))
    lengths = draw(st.permutations(lengths))

    def values(n):
        if grid:
            return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        return rng.normal(size=(n, d))

    store = [seq(f"v{i}", values(n)) for i, n in enumerate(lengths)]
    if grid:  # an entry again under another id
        store.append(seq("dup", store[0].descriptors))
    return seq("q", values(g)), store


def close(got, expected):
    return abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


class TestRetrieveProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=mixed_stores(), strict=st.booleans(), normalize=st.booleans())
    def test_matches_brute_force(self, case, strict, normalize):
        query, store = case
        if strict:  # the strict range is empty for equal lengths
            store = [s for s in store if s.length != query.length]
        expected = []
        for s in store:
            score, shift = brute_force_best(query.descriptors, s.descriptors,
                                            first_k=int(strict))
            if normalize:
                score /= min(query.length, s.length)
            expected.append((s.video_id, score, shift))
        expected.sort(key=lambda row: (-row[1], row[0]))
        got = retrieve(query, store, top_k=0, strict_paper_range=strict,
                       normalize_by_length=normalize).matches
        assert [(m.video_id, m.offset) for m in got] == [
            (vid, shift) for vid, _, shift in expected]
        for m, (_, score, _) in zip(got, expected):
            assert close(m.score, score), (m, score)
        by_id = {s.video_id: s for s in store}
        for m in got:
            score, shift = aligned_similarity(query, by_id[m.video_id],
                                              strict_paper_range=strict)
            if normalize:
                score /= min(query.length, by_id[m.video_id].length)
            assert shift == m.offset and close(score, m.score)


class TestRetrieveTies:
    # shifts 0 and 2 of "a" and "b" score 3, as do shifts 1 and 3 of "d";
    # "c" is shorter than the query and scores 1 at its shifts 0 and 2
    QUERY = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    STORE = {
        "b": [[1.0, 0.0], [0.0, 1.0]] * 2 + [[1.0, 0.0]],
        "d": [[0.0, 1.0], [1.0, 0.0]] * 3,
        "c": [[1.0, 0.0]],
        "a": [[1.0, 0.0], [0.0, 1.0]] * 2 + [[1.0, 0.0]],
    }

    @pytest.mark.parametrize("strict, expected", [
        (False, [("a", 3.0, 0), ("b", 3.0, 0), ("d", 3.0, 1), ("c", 1.0, 0)]),
        (True, [("a", 3.0, 2), ("b", 3.0, 2), ("d", 3.0, 1), ("c", 1.0, 2)]),
    ])
    def test_smallest_shift_then_smallest_id(self, strict, expected):
        query = seq("q", self.QUERY)
        store = [seq(vid, m) for vid, m in self.STORE.items()]
        result = retrieve(query, store, top_k=0, strict_paper_range=strict)
        assert [(m.video_id, m.score, m.offset)
                for m in result.matches] == expected
        for vid, score, shift in expected:
            assert aligned_similarity(query, seq(vid, self.STORE[vid]),
                                      strict_paper_range=strict) == (
                score, shift)


class TestRetrieveErrors:
    """Every entry is checked, not only the first."""

    def store_with(self, bad):
        return [seq("a", np.ones((3, 2))), bad, seq("c", np.ones((4, 2)))]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            retrieve(seq("q", np.ones((2, 2))),
                     self.store_with(seq("b", np.ones((3, 3)))), top_k=0)

    def test_mixed_methods(self):
        with pytest.raises(DataError, match="mix methods"):
            retrieve(seq("q", np.ones((2, 2))),
                     self.store_with(seq("b", np.ones((3, 2)), "vlad")),
                     top_k=0)

    def test_strict_range_empty_for_equal_lengths(self):
        query = seq("q", np.ones((2, 2)))
        store = self.store_with(seq("b", np.ones((2, 2))))
        with pytest.raises(DataError, match="strict"):
            retrieve(query, store, top_k=0, strict_paper_range=True)
        assert len(retrieve(query, store, top_k=0).matches) == 3

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            retrieve(seq("q", np.ones((2, 2))), iter([]), threshold=0.0)

    def test_nan_threshold(self):
        query = seq("q", np.ones((2, 2)))
        store = self.store_with(seq("b", np.ones((3, 2))))
        with pytest.raises(ValueError, match="nan"):
            retrieve(query, store, threshold=float("nan"))
        # infinite thresholds keep everything or nothing
        assert len(retrieve(query, store, threshold=-np.inf).matches) == 3
        assert retrieve(query, store, threshold=np.inf).matches == ()


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

    def test_repeated_id_refused_before_writing(self, tmp_path):
        sequences = [seq("v0", np.ones((2, 3))), seq("v1", np.ones((1, 3))),
                     seq("v0", np.zeros((1, 3)))]
        with pytest.raises(DataError, match="repeats video id 'v0'"):
            write_store(sequences, tmp_path / "r.store")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_id_refused_on_load(self, tmp_path):
        one = tmp_path / "one.store"
        write_store([seq("v0", np.ones((2, 3))), seq("v1", np.ones((1, 3)))],
                    one)
        data = one.read_bytes()
        twice = tmp_path / "twice.store"
        twice.write_bytes(data + data[8:])  # every record after the magic, twice
        with pytest.raises(DataError) as exc:
            load_store(twice)
        assert str(twice) in str(exc.value)
        assert "repeats video id 'v0'" in str(exc.value)

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
