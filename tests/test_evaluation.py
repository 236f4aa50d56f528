import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlac import (
    GroundTruth,
    ModelParams,
    PerturbationSpec,
    average_precision,
    mean_average_precision,
    perturb_videos,
    pr_curve,
    basis_alignment_score,
    sign_aligned_alignment_score,
    synthesize_videos,
)
from vlac.core_math import ProjectionBasis, pca_fit
from vlac.errors import DataError
from vlac.evaluation import (
    PRPoint,
    map_from_retrievals,
    plot_pr_svg,
    stability_bases,
)


class TestAveragePrecision:
    def test_relevant_first(self):
        assert average_precision([1, 1, 0], 2) == 1.0

    def test_relevant_second(self):
        assert average_precision([0, 1], 1) == 0.5

    def test_interleaved_fixture_exact(self):
        assert average_precision([1, 0, 1], 2) == 5 / 6

    def test_relevant_count_divides_the_sum(self):
        # two relevant items, the ranking keeps one at rank 1: (1/1) / 2
        assert average_precision([1, 0], relevant_count=2) == 0.5
        assert average_precision([1, 0, 1], relevant_count=3) == 5 / 9

    def test_relevant_count_with_no_hit_is_zero(self):
        assert average_precision([0, 0], relevant_count=1) == 0.0

    @pytest.mark.parametrize("count", [0, 1])
    def test_relevant_count_below_hits_rejected(self, count):
        with pytest.raises(DataError):
            average_precision([1, 1], relevant_count=count)

    def test_invariant_below_last_relevant(self):
        rng = np.random.default_rng(0)
        flags = [1, 0, 0, 1, 0, 0, 0]
        base = average_precision(flags, 2)
        tail = flags[4:]
        for _ in range(5):
            rng.shuffle(tail)
            assert average_precision(flags[:4] + tail, 2) == base


class TestMeanAveragePrecision:
    def test_all_perfect(self):
        assert mean_average_precision([1.0, 1.0, 1.0]) == 1.0

    def test_half(self):
        assert mean_average_precision([1.0, 0.0]) == 0.5

    def test_arithmetic(self):
        got = mean_average_precision([5 / 6, 0.5, 1.0])
        np.testing.assert_allclose(got, 7 / 9, rtol=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        aps = rng.uniform(0, 1, size=20)
        assert 0.0 <= mean_average_precision(aps) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([])


class TestPRCurve:
    def truth(self, **kw):
        return GroundTruth(relevant={k: frozenset(v) for k, v in kw.items()})

    def test_perfect_separation_contains_one_one(self):
        results = {"q": [("rel", 0.9), ("irr", 0.1)]}
        curve = pr_curve(results, self.truth(q={"rel"}))
        assert any(p.precision == 1.0 and p.recall == 1.0 for p in curve)

    def test_hand_counted_fixture(self):
        results = {"q": [("a", 0.9), ("b", 0.8), ("c", 0.7)]}
        curve = pr_curve(results, self.truth(q={"a", "c"}))
        got = [(p.threshold, p.precision, p.recall) for p in curve]
        assert got == [(0.9, 1.0, 0.5), (0.8, 0.5, 0.5), (0.7, 2 / 3, 1.0)]

    def test_recall_monotone(self):
        rng = np.random.default_rng(2)
        results = {
            f"q{i}": [(f"v{j}", float(rng.normal())) for j in range(8)]
            for i in range(3)
        }
        truth = self.truth(**{f"q{i}": {f"v{i}"} for i in range(3)})
        curve = pr_curve(results, truth)
        recalls = [p.recall for p in curve]
        assert recalls == sorted(recalls)
        for p in curve:
            assert 0.0 <= p.precision <= 1.0
            assert 0.0 <= p.recall <= 1.0

    def test_bottom_threshold_full_recall(self):
        rng = np.random.default_rng(3)
        results = {"q": [(f"v{j}", float(rng.normal())) for j in range(6)]}
        curve = pr_curve(results, self.truth(q={"v2", "v4"}))
        assert curve[-1].recall == 1.0

    def test_empty_results(self):
        # no scored pair: nothing is retrieved at any threshold
        assert pr_curve({}, self.truth(q={"a"})) == ()

    def test_unknown_query(self):
        with pytest.raises(DataError):
            pr_curve({"mystery": [("a", 1.0)]}, self.truth(q={"a"}))

    def test_query_without_rows_counts_as_missed(self):
        # q2 scored below a search threshold everywhere and has no rows
        results = {"q1": [("a", 1.0)]}
        curve = pr_curve(results, self.truth(q1={"a"}, q2={"b"}))
        assert curve[-1].recall == 0.5


class TestMapFromRetrievals:
    def test_matches_manual_ap(self):
        results = {"q1": [("x", 3.0), ("t1", 2.0)], "q2": [("t2", 5.0)]}
        truth = GroundTruth(
            relevant={"q1": frozenset({"t1"}), "q2": frozenset({"t2"})}
        )
        assert map_from_retrievals(results, truth) == 0.75

    def test_relevance_flags(self):
        # the ranking's flags are [False, True]: AP 1/2, and 1 reversed
        truth = GroundTruth(relevant={"q": frozenset({"b"})})
        assert map_from_retrievals({"q": [("a", 2.0), ("b", 1.0)]}, truth) == 0.5
        assert map_from_retrievals({"q": [("b", 2.0), ("a", 1.0)]}, truth) == 1.0

    def test_missed_query_scores_zero(self):
        # top-1 rankings: q1 hits at rank 1, q2's relevant video was cut off
        results = {"q1": [("t1", 2.0)], "q2": [("t1", 1.0)]}
        truth = GroundTruth(
            relevant={"q1": frozenset({"t1"}), "q2": frozenset({"t2"})}
        )
        assert map_from_retrievals(results, truth) == 0.5

    def test_query_without_rows_scores_zero(self):
        # q2 scored below a search threshold everywhere and has no rows
        truth = GroundTruth(
            relevant={"q1": frozenset({"a"}), "q2": frozenset({"b"})}
        )
        assert map_from_retrievals({"q1": [("a", 1.0)]}, truth) == 0.5

    def test_truncated_ranking_counts_dropped_relevant(self):
        truth = GroundTruth(relevant={"q": frozenset({"a", "b"})})
        assert map_from_retrievals({"q": [("a", 1.0)]}, truth) == 0.5


def brute_average_precision(flags, relevant_count):
    """AP by its definition: precision at each relevant rank, summed, over
    the relevant count."""
    return float(sum(Fraction(sum(flags[:r]), r)
                     for r in range(1, len(flags) + 1) if flags[r - 1])
                 / relevant_count)


def brute_pr_curve(results, truth):
    """(threshold, precision, recall) for each distinct score, highest
    first, counting every scored pair at or above it as retrieved."""
    pairs = [(score, video_id in truth.relevant[query_id])
             for query_id, scored in results.items()
             for video_id, score in scored]
    total = sum(len(ids) for ids in truth.relevant.values())
    points = []
    for threshold in sorted({score for score, _ in pairs}, reverse=True):
        kept = [rel for score, rel in pairs if score >= threshold]
        points.append((threshold, sum(kept) / len(kept), sum(kept) / total))
    return points


@st.composite
def scored_queries(draw):
    """A ground truth of up to four queries and each query's scored videos,
    drawn from few scores so that ties occur; a query may have no rows."""
    videos = st.sampled_from([f"v{i}" for i in range(6)])
    truth = GroundTruth(relevant={
        f"q{i}": draw(st.frozensets(videos, min_size=1))
        for i in range(draw(st.integers(1, 4)))
    })
    results = {}
    for query_id in truth.relevant:
        if draw(st.booleans()):
            results[query_id] = [
                (v, draw(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])))
                for v in draw(st.lists(videos, unique=True))
            ]
    return truth, results


class TestBruteForceDefinitions:
    @settings(max_examples=200, deadline=None)
    @given(flags=st.lists(st.booleans(), max_size=12),
           extra=st.integers(0, 3))
    def test_average_precision(self, flags, extra):
        count = max(sum(flags), 1) + extra
        assert average_precision(flags, count) == brute_average_precision(
            flags, count)

    @settings(max_examples=200, deadline=None)
    @given(scored_queries())
    def test_pr_curve(self, case):
        truth, results = case
        got = [(p.threshold, p.precision, p.recall)
               for p in pr_curve(results, truth)]
        assert got == brute_pr_curve(results, truth)


class TestSignAlignedScore:
    def test_sign_flip_recovered(self):
        rows = np.eye(3)[:2]
        a = ProjectionBasis(rows=rows, mean=np.zeros(3),
                            eigenvalues=np.ones(2))
        b = ProjectionBasis(rows=rows * np.array([[1.0], [-1.0]]),
                            mean=np.zeros(3), eigenvalues=np.ones(2))
        assert basis_alignment_score(a, b) == 0.0
        assert sign_aligned_alignment_score(a, b) == 2.0


def desk_params(d, **kw):
    defaults = dict(f=6, j=3, n=4, m=2, d=d, d0=8, alpha1=3, alpha2=2, h=2,
                    gof_size=3, overlap=1, seed=11)
    defaults.update(kw)
    return ModelParams(**defaults)


@pytest.fixture(scope="module")
def videos():
    return list(synthesize_videos(
        4, 15, 6, clusters=5, seed=13, features_per_frame=10,
        center_spread=6.0, noise_std=0.8,
    ))


def stability_score(videos, spec, method, params):
    """Raw alignment of the clean and the perturbed final basis."""
    noisy = perturb_videos(videos, spec)
    return basis_alignment_score(*stability_bases(videos, noisy, method,
                                                  params))


class TestStabilityExperiment:
    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp", "sift"])
    def test_zero_perturbation_self_alignment(self, videos, method):
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.0, seed=1)
        score = stability_score(videos, spec, method, desk_params(d=4))
        assert abs(score - 4.0) <= 1e-6

    @pytest.mark.parametrize("method", ["vlad", "vlac", "hp", "sift"])
    def test_score_bounded_by_d(self, videos, method):
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=2.0, seed=3)
        score = stability_score(videos, spec, method, desk_params(d=4))
        assert abs(score) <= 4.0 + 1e-9

    def test_deterministic(self, videos):
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.5, seed=5)
        a = stability_score(videos, spec, "vlac", desk_params(d=3))
        b = stability_score(videos, spec, "vlac", desk_params(d=3))
        assert a == b

    def test_sift_direct_small_noise_near_d(self, videos):
        # tiny noise on well-conditioned raw features barely moves the basis
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.01,
                                seed=7)
        score = stability_score(videos, spec, "sift", desk_params(d=4))
        assert score / 4.0 >= 0.95

    def test_bases_exposed_for_both_score_views(self, videos):
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.5, seed=9)
        clean, noisy = stability_bases(videos, perturb_videos(videos, spec),
                                       "sift", desk_params(d=3))
        raw = basis_alignment_score(clean, noisy)
        aligned = sign_aligned_alignment_score(clean, noisy)
        assert aligned >= raw - 1e-12

    def test_sift_direct_matches_plain_pca(self, videos):
        spec = PerturbationSpec(kind="additive_gaussian", magnitude=0.0, seed=1)
        clean, _ = stability_bases(videos, perturb_videos(videos, spec),
                                   "sift", desk_params(d=4))
        pooled = np.concatenate([video.features for video in videos])
        expected = pca_fit(pooled, 4)
        assert np.array_equal(clean.rows, expected.rows)


class TestPrSvg:
    SVG = "{http://www.w3.org/2000/svg}"
    CURVES = {
        "vlac D=8": (PRPoint(0.9, 1.0, 0.25), PRPoint(0.5, 0.75, 1.0)),
        "a<&>b": (PRPoint(0.8, 1.0, 0.5),
                  PRPoint(0.4, 0.5, 0.75),
                  PRPoint(0.1, 0.4, 1.0)),
    }

    def test_one_polyline_per_curve_with_every_point(self, tmp_path):
        path = tmp_path / "pr.svg"
        plot_pr_svg(path, self.CURVES)
        assert path.read_text().startswith("<?xml")
        root = ET.parse(path).getroot()
        assert root.tag == f"{self.SVG}svg"
        polylines = root.findall(f"{self.SVG}polyline")
        assert [len(p.get("points").split()) for p in polylines] == [2, 3]

    def test_points_follow_the_curve(self, tmp_path):
        path = tmp_path / "pr.svg"
        plot_pr_svg(path, self.CURVES)
        line = ET.parse(path).getroot().find(f"{self.SVG}polyline")
        xs, ys = zip(*(map(float, pt.split(","))
                       for pt in line.get("points").split()))
        # recall grows to the right, lower precision sits lower (larger y)
        assert xs[0] < xs[1] and ys[0] < ys[1]

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "pr.svg"
        plot_pr_svg(path, self.CURVES)
        root = ET.parse(path).getroot()
        texts = [t.text for t in root.iter(f"{self.SVG}text")]
        assert "vlac D=8" in texts and "a<&>b" in texts

    def test_byte_identical_rewrite(self, tmp_path):
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_pr_svg(first, self.CURVES)
        plot_pr_svg(second, self.CURVES)
        assert first.read_bytes() == second.read_bytes()
