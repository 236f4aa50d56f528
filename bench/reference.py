"""Brute-force max-over-alignment ranking, written apart from ``vlac.search``.

It scores every shift from the diagonals of one ``short @ long.T`` product
instead of summing element-wise products per shift, so it shares neither
code nor summation order with the program and checks it.
"""

from __future__ import annotations

import numpy as np


def best_alignment(query: np.ndarray, target: np.ndarray) -> tuple[float, int]:
    """Best summed inner product over shifts of the shorter sequence inside
    the longer one, and the smallest shift that reaches it."""
    short, long_ = (query, target) if len(query) <= len(target) else (target, query)
    g1, g2 = len(short), len(long_)
    products = short @ long_.T
    scores = np.zeros(g2 - g1 + 1)
    for i in range(g1):
        scores += products[i, i : i + g2 - g1 + 1]
    best = int(np.argmax(scores))
    return float(scores[best]), best


def rank(query: np.ndarray, store: dict[str, np.ndarray]) -> list[tuple[str, float, int]]:
    """(video_id, score, shift) for every stored sequence, best first, ties
    broken by video_id."""
    rows = [(vid, *best_alignment(query, seq)) for vid, seq in store.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def mismatch(expected, got, *, rel_tol: float = 1e-9) -> str | None:
    """Why ranking ``got`` differs from ``expected``, or None if they agree.

    Both are sequences of (video_id, score, shift). Scores may differ by
    ``rel_tol`` relative to max(1, |expected score|); ids, shifts and order
    must be identical.
    """
    if len(expected) != len(got):
        return f"{len(got)} ranked entries, expected {len(expected)}"
    for rank_no, ((vid, score, shift), (gvid, gscore, gshift)) in enumerate(
        zip(expected, got), start=1
    ):
        if gvid != vid:
            return f"rank {rank_no} is {gvid!r}, expected {vid!r}"
        if gshift != shift:
            return f"{vid!r} aligned at shift {gshift}, expected {shift}"
        if not abs(gscore - score) <= rel_tol * max(1.0, abs(score)):
            return f"{vid!r} scored {gscore!r}, expected {score!r}"
    return None
