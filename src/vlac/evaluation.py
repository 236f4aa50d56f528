"""Precision-recall curves, (mean) average precision, and the
clean-vs-perturbed eigenbasis stability experiment.

The stability experiment trains one method's full pipeline twice, on clean
and on perturbed copies of the same videos with identical seeds
(:func:`stability_bases`); how well the two final compaction bases align
is scored by ``basis_alignment_score`` and
:func:`sign_aligned_alignment_score`. Zero perturbation therefore scores
the self-alignment value d exactly (up to float noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from html import escape
from math import fsum

import numpy as np

from .aggregation import (
    METHOD_HP,
    METHOD_VLAC,
    METHOD_VLAD,
    ModelParams,
    train,
)
from .core_math import ProjectionBasis, pca_fit
from .errors import DataError
from .fileio import atomic_write, write_csv
from .ingestion import QueryManifest

METHOD_SIFT_DIRECT = "sift"
STABILITY_METHODS = (METHOD_VLAD, METHOD_HP, METHOD_VLAC, METHOD_SIFT_DIRECT)

PR_CSV_COLUMNS = ("method", "D", "threshold", "precision", "recall")
MAP_CSV_COLUMNS = ("method", "D", "mAP")

_SVG_AXIS_MAX = 1.05
_SVG_COLOURS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")


@dataclass(frozen=True)
class GroundTruth:
    """query_id -> the set of video_ids relevant to it."""

    relevant: dict[str, frozenset[str]]

    def __post_init__(self):
        cleaned = {
            q: frozenset(ids) for q, ids in dict(self.relevant).items()
        }
        for q, ids in cleaned.items():
            if not ids:
                raise DataError(f"query {q!r} has no relevant videos")
        object.__setattr__(self, "relevant", cleaned)

    @classmethod
    def from_queries(cls, manifest: QueryManifest) -> "GroundTruth":
        return cls(
            relevant={
                q.query_id: frozenset({q.source_video_id})
                for q in manifest.queries
            }
        )


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


@dataclass(frozen=True)
class PRCurve:
    points: tuple[PRPoint, ...]


def pr_curve(results, truth: GroundTruth) -> PRCurve:
    """Precision/recall swept over every distinct score threshold.

    ``results`` maps query_id to its scored (video_id, score) pairs, which
    must cover the full store for recall to reach 1. The total relevant
    count comes from every ground-truth query, so unscored relevant pairs,
    including those of a query with no results, count as misses.
    Thresholds descend; points where nothing is retrieved are omitted
    (precision is undefined there), so results without a scored pair give
    a curve with no points.
    """
    _check_queries(results, truth)
    pairs = sorted(((float(score), video_id in truth.relevant[query_id])
                    for query_id, scored in results.items()
                    for video_id, score in scored), key=lambda p: -p[0])
    total_relevant = sum(len(ids) for ids in truth.relevant.values())
    points, tp = [], 0
    for i, (score, relevant) in enumerate(pairs):
        tp += relevant
        # only the last pair of each distinct score: that is the full
        # "score >= threshold" retrieval set for this threshold; a scored
        # pair means a ground-truth query, so total_relevant >= 1
        if i + 1 == len(pairs) or pairs[i + 1][0] != score:
            points.append(PRPoint(score, tp / (i + 1), tp / total_relevant))
    return PRCurve(points=tuple(points))


def _check_queries(results, truth: GroundTruth) -> None:
    for query_id in results:
        if query_id not in truth.relevant:
            raise DataError(f"query {query_id!r} is missing from ground truth")


def average_precision(ranked, relevant_count: int) -> float:
    """Sum of precision-at-r over the relevant ranks r of a ranking,
    divided by ``relevant_count``.

    ``ranked`` holds one relevance flag per rank. ``relevant_count`` is the
    number of relevant items in the ground truth, at least one and at least
    the relevant items the ranking holds; a relevant item the ranking
    misses adds 0 to the sum. Accumulates in exact rational arithmetic
    (ranks are integers), so fixture values like 5/6 come back as the
    correctly rounded float.
    """
    flags = [bool(x) for x in ranked]
    found = sum(flags)
    if relevant_count < max(found, 1):
        raise DataError(
            f"ranking holds {found} relevant items, more than the "
            f"relevant_count {relevant_count}"
        )
    hits = 0
    total = Fraction(0)
    for rank, is_relevant in enumerate(flags, start=1):
        if is_relevant:
            hits += 1
            total += Fraction(hits, rank)
    return float(total / relevant_count)


def mean_average_precision(aps) -> float:
    """Arithmetic mean of per-query average precisions."""
    aps = list(aps)
    if not aps:
        raise ValueError("mean_average_precision needs at least one query")
    return fsum(aps) / len(aps)


def map_from_retrievals(results, truth: GroundTruth) -> float:
    """mAP over every ground-truth query.

    ``results`` maps query_id to its ranked (video_id, score) pairs. Each
    AP is divided by the query's relevant count in the ground truth,
    so a ranking cut by top-k or a threshold is not credited for the
    relevant items it dropped; one that holds none, or a query with no
    ranking in ``results``, scores AP 0.
    """
    _check_queries(results, truth)
    return mean_average_precision(
        average_precision(
            [video_id in relevant for video_id, _ in results.get(query_id, ())],
            len(relevant))
        for query_id, relevant in truth.relevant.items()
    )


def sign_aligned_alignment_score(a: ProjectionBasis, b: ProjectionBasis) -> float:
    """Alignment score after flipping each row of b onto its partner in a.

    Equals the sum of absolute per-row inner products; reported alongside
    the raw score because the raw one is sensitive to eigenvector sign.
    """
    if a.rows.shape != b.rows.shape:
        raise DataError(
            f"bases have shapes {a.rows.shape} and {b.rows.shape}"
        )
    return float(np.sum(np.abs(np.sum(a.rows * b.rows, axis=1))))


def _train_basis(videos, method: str, params: ModelParams) -> ProjectionBasis:
    if method == METHOD_SIFT_DIRECT:
        return pca_fit(np.concatenate([v.features for v in videos],
                                      dtype=np.float64), params.d)
    return train(method, videos, params).basis


def stability_bases(
    videos,
    noisy,
    method: str,
    params: ModelParams,
) -> tuple[ProjectionBasis, ProjectionBasis]:
    """Final compaction bases of the clean and the perturbed pipeline.

    ``noisy`` is ``videos`` after ``ingestion.perturb_videos``, made once and
    shared by every method. ``method`` is one of vlad/vlac/hp/sift; sift
    fits PCA directly on the raw feature vectors. Deterministic under the
    seeds in ``params``; with zero-magnitude noise both bases are equal, so
    ``basis_alignment_score`` of the pair is d.
    """
    return (
        _train_basis(videos, method, params),
        _train_basis(noisy, method, params),
    )


# ---------------------------------------------------------------------------
# CSV / SVG emitters
# ---------------------------------------------------------------------------


def write_pr_csv(path, rows) -> None:
    """Write (method, D, threshold, precision, recall) rows."""
    write_csv(path, PR_CSV_COLUMNS, (
        [method, d, point.threshold, point.precision, point.recall]
        for method, d, point in rows
    ))


def write_map_csv(path, rows) -> None:
    """Write (method, D, mAP) rows."""
    write_csv(path, MAP_CSV_COLUMNS, rows)


def plot_pr_svg(path, curves) -> None:
    """Write labelled PR curves to an SVG file.

    Recall runs along x and precision along y, both over [0, 1.05]. Each
    label in ``curves`` gets one polyline through its points in order and
    one legend entry. Labels are XML-escaped and coordinates are written
    with a fixed precision, so equal curves give byte-identical files.
    """
    width, height, margin = 500, 400, 50
    span_x, span_y = width - 2 * margin, height - 2 * margin

    def px(recall, precision):
        return (margin + recall / _SVG_AXIS_MAX * span_x,
                height - margin - precision / _SVG_AXIS_MAX * span_y)

    def xy(recall, precision):
        return "{:.2f},{:.2f}".format(*px(recall, precision))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="12">',
        f'<path d="M{xy(0, _SVG_AXIS_MAX)} L{xy(0, 0)} L{xy(_SVG_AXIS_MAX, 0)}"'
        ' fill="none" stroke="black"/>',
        f'<text x="{width / 2:.2f}" y="{height - 10}" '
        'text-anchor="middle">recall</text>',
        f'<text x="15" y="{height / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height / 2:.2f})">precision</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        x, y = px(tick, tick)
        lines.append(f'<text x="{x:.2f}" y="{height - margin + 15}" '
                     f'text-anchor="middle">{tick:.1f}</text>')
        lines.append(f'<text x="{margin - 5}" y="{y:.2f}" '
                     f'text-anchor="end">{tick:.1f}</text>')
    for i, (label, curve) in enumerate(curves.items()):
        colour = _SVG_COLOURS[i % len(_SVG_COLOURS)]
        points = " ".join(xy(p.recall, p.precision) for p in curve.points)
        lines.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{colour}"/>')
        lines.append(f'<text x="{width - margin}" y="{margin + 15 * i}" '
                     f'text-anchor="end" fill="{colour}">'
                     f'{escape(label)}</text>')
    lines.append("</svg>")
    with atomic_write(path, overwrite=True) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
