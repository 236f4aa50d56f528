"""Deterministic K-means clustering and PCA primitives used by all encoders.

Feature vectors are rows of float64 arrays. Every routine here is pure:
fixed inputs (including the seed) produce bit-identical outputs, which the
rest of the pipeline relies on for reproducible training and matching.

k-means++ seeding computes its distances in Gram form, ``|x|^2 + |y|^2 -
2 x.y``, from one n x n Gram matrix for small inputs or one matrix-vector
product per draw for large ones. Those distances only choose which rows
become centers, and every draw is certified: a rounding-error bound shows
that the direct ``(x - y).(x - y)`` distances would have drawn the same
row. :func:`kmeans_pp_draws` seeds a stack of same-shape windows in
lockstep, each window from its own stream: every step draws for all of
them with one cumulative sum, and the certificate checks all their draws
at once after the loop. A window with a draw the bound cannot certify
reruns alone on the direct distances, so the drawn indices, and with them
every fit, are always those of the direct path. A single fit is the
one-window case.

Lloyd iterations compute their distances ``_BLOCK_VALUES // k`` rows at a
time, in two chunk-sized buffers per pass. Each chunk's nearest centers
are taken as soon as its distances exist, and an empty-cluster refill
gathers each point's distance to its own center from the same chunks, so
no (n, k) distance matrix is ever held. The inertia follows numpy's
pairwise summation tree one cache-sized subtree at a time, so no (n, dim)
residual array is held either. Keyed row sums, :func:`cluster_sums` and
the residual kernel of :mod:`vlac.aggregation`, share one scatter-add,
:func:`_keyed_sums`, which asks for its rows one cache block at a time.

One helper, :func:`_choice_indices`, takes the steps ``Generator.choice``
takes with ``p=``, for k-means++ draws and for synthetic cluster picks.
"""

from __future__ import annotations

import ctypes
import functools
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    DTooLarge,
    EmptyInput,
    InsufficientRows,
    KTooLarge,
)

# Largest entry of |V V^T - I| accepted from the Gram path before pca_fit
# falls back to the thin SVD of the centered rows.
_GRAM_ORTHO_TOL = 1e-9

# k-means stops once an iteration lowers the inertia by at most this
# fraction of the previous inertia, or after this many iterations.
_KMEANS_TOL = 1e-4
_KMEANS_MAX_ITER = 100

# Values per block of an elementwise pass that should stay in cache.
_BLOCK_VALUES = 1 << 15

# Values numpy's pairwise summation adds in one unrolled leaf (its
# PW_BLOCKSIZE); a larger run is split in two.
_NUMPY_PAIRWISE_LEAF = 128

# Half of float64's range. While max |x|^2 + max |c|^2 stays within it, the
# Gram-form terms |x|^2 + |c|^2 and 2 x.c, and the distances they give,
# are finite.
_HALF_MAX = float(np.finfo(np.float64).max) / 2

# k-means++ seeding builds the n x n Gram distance matrix (2 MB at this
# size) up to this many rows, and one matrix-vector product per draw above.
_PP_GRAM_ROWS = 512

# k-means++ seeding of a stack of windows draws as many windows in lockstep
# as keep their Gram distance matrices (or distance rows) and their three
# (n,) work rows under this many bytes.
_PP_STACK_BYTES = 1 << 24

# LAPACKE's matrix_layout argument for column-major arrays.
_COL_MAJOR = 102


@dataclass(frozen=True)
class Codebook:
    """Ordered K-means centers plus fit diagnostics.

    Attributes:
        centers: (k, dim) float64 array; row order is deterministic for a
            fixed (input, k, seed) triple.
        inertia: final sum of squared distances to the nearest center.
        inertia_history: inertia after each Lloyd iteration (non-increasing).
        converged: whether the fit stopped on the relative inertia
            decrease rather than the iteration cap.
        refills: empty clusters refilled over all iterations.
        seeding: which k-means++ distances drew the centers, "gram" or
            "exact" (the fallback when a Gram draw was not certified).

    ``converged``, ``refills`` and ``seeding`` are None for a codebook read
    from a file or built by hand.
    """

    centers: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...] = ()
    converged: bool | None = None
    refills: int | None = None
    seeding: str | None = None

    @property
    def k(self) -> int:
        return int(self.centers.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centers.shape[1])


@dataclass(frozen=True)
class ProjectionBasis:
    """Top principal directions of a fitted dataset.

    ``rows[i]`` is the i-th eigenvector (unit norm, sign fixed so the
    largest-magnitude component is positive); ``eigenvalues`` are sorted
    non-increasing, tied ones in the order LAPACK returned them. Only these
    d directions are ever solved for (:func:`pca_fit`). ``mean`` is
    subtracted before projection, making the basis self-contained. A basis
    from :func:`pca_fit` also records the ``solver`` that ran ("gram",
    "eig" or "svd"), ``retained_variance``, the kept eigenvalues over the
    total variance, and ``fit_rows``, the number of rows the eigensolve saw
    (the distinct rows of a weighted fit); all three are None for a basis
    read from a file or built by hand.
    """

    rows: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray
    solver: str | None = None
    retained_variance: float | None = None
    fit_rows: int | None = None

    @property
    def d(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])


def _as_points(points, *, name: str = "points") -> np.ndarray:
    """A 2-D (n, dim) array as a C-contiguous float64 array."""
    if not (isinstance(points, np.ndarray) and points.ndim == 2):
        raise DimensionMismatch(f"{name} must be a 2-D (n, dim) array")
    return np.ascontiguousarray(points, dtype=np.float64)


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contain non-finite values")


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """The squared norm of every row."""
    return np.einsum("ij,ij->i", points, points)


def _finite_sq_norms(points: np.ndarray, name: str) -> np.ndarray:
    """:func:`_sq_norms`, refusing a norm that is not finite, which
    ``einsum`` gives without a warning and which would make every distance
    to it inf or NaN. The DataError names ``name`` and, from a scan of the
    values made only then, says whether one is not finite or a norm
    overflowed."""
    norms = _sq_norms(points)
    if not np.isfinite(norms).all():
        _check_finite(points, name)
        raise DataError(f"{name} have a squared norm beyond float64's range")
    return norms


def _check_distance_range(x2: np.ndarray, c2: np.ndarray, name: str) -> None:
    """Refuse Gram-form distances that would overflow float64.

    With every squared norm finite, ``x2 + c2`` or ``2 * x.c`` can still
    overflow, and the distance then turns inf or NaN. A DataError naming
    ``name`` is raised instead when ``max(x2) + max(c2)`` exceeds half of
    float64's range.
    """
    if x2.max(initial=0.0) > _HALF_MAX - c2.max(initial=0.0):
        raise DataError(
            f"{name} have squared norms whose distances overflow float64"
        )


def _dist_blocks(points, centers, x2=None):
    """Squared Euclidean distances ``(x2 + c2) - 2 * points @ centers.T``,
    ``max(1, _BLOCK_VALUES // k)`` rows at a time.

    Yields ``(start, dists)`` per chunk, ``dists`` being that chunk's
    (rows, k) distances in a buffer that the next chunk overwrites; each
    chunk of ``points`` is widened to float64 as it is used. A given ``x2``
    (the rows' squared norms) is trusted, else each chunk computes its own.
    The centers' squared norms, and the rows' when computed here, raise
    DataError when one is not finite, and so does a chunk whose distances
    would overflow (:func:`_check_distance_range`).
    """
    n, k = points.shape[0], centers.shape[0]
    step = max(1, _BLOCK_VALUES // k)
    prod = np.empty((min(n, step), k), dtype=np.float64)
    block = np.empty_like(prod)
    c2 = _finite_sq_norms(centers, "centers")
    for start in range(0, n, step):
        rows = points[start : start + step].astype(np.float64, copy=False)
        rows_x2 = (_finite_sq_norms(rows, "points") if x2 is None
                   else x2[start : start + step])
        _check_distance_range(rows_x2, c2, "points and centers")
        dists = block[: rows.shape[0]]
        gram = np.matmul(rows, centers.T, out=prod[: rows.shape[0]])
        gram *= 2.0
        np.add(rows_x2[:, None], c2, out=dists)
        dists -= gram
        yield start, dists


def _assign_nearest(points, centers, x2=None) -> np.ndarray:
    """The row-wise argmin of :func:`_dist_blocks`' distances, an (n,)
    array filled one chunk at a time as soon as the chunk's distances
    exist, so no (n, k) matrix is held."""
    assign = np.empty(points.shape[0], dtype=np.intp)
    for start, dists in _dist_blocks(points, centers, x2):
        np.argmin(dists, axis=1, out=assign[start : start + dists.shape[0]])
    return assign


def nearest_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point, ties to the lowest index.

    Float32 points are widened a distance chunk at a time, never whole. A
    caller that quantizes on the leading components only (hyper-pooling)
    passes those columns of both operands.
    """
    pts = np.atleast_2d(np.asarray(points))
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.ndim != 2 or ctr.ndim != 2 or pts.shape[1] != ctr.shape[1]:
        raise DimensionMismatch(
            f"points {pts.shape} and centers {ctr.shape} are not (n, d), (k, d)"
        )
    if ctr.shape[0] == 0:
        raise EmptyInput("nearest_centers requires at least one center")
    return _assign_nearest(pts, ctr)


def cluster_sums(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster sums of the rows of ``points``, a (k, dim) array.

    Row ``j`` is bit-equal to ``points[assign == j].sum(axis=0)``
    (:func:`_keyed_sums`), with no pass over the rows per cluster. A
    cluster with no rows sums to zero.
    """
    return _keyed_sums(np.empty((k, points.shape[1])), assign,
                       lambda start, stop: points[start:stop])


def _keyed_sums(out: np.ndarray, keys: np.ndarray, rows) -> np.ndarray:
    """Fill ``out``, a C-contiguous (K, dim) float64 array, with per-key row
    sums, and return it.

    ``rows(start, stop)`` gives rows ``start:stop`` of an (n, dim) float64
    matrix, n being ``keys.size``. It is asked for them in order,
    ``_BLOCK_VALUES // dim`` rows at a time (at least one), or all n rows
    at once for a single column, so only one block need exist at a time.
    Row ``j`` of ``out`` is bit-equal to ``matrix[keys == j].sum(axis=0)``,
    zero for a key with no rows: for two or more columns numpy adds those
    rows in input order, and so does the ``np.add.at`` scatter-add here,
    block by block. A single column numpy sums pairwise, so its values are
    sorted by key once, stably, and each key's run, the same values in the
    same order, is summed by the same pairwise ``sum``.
    """
    n, dim = keys.size, out.shape[1]
    flat = out.reshape(-1)
    if dim == 1:
        order = np.argsort(keys, kind="stable")
        col = rows(0, n)[order, 0]
        bounds = np.searchsorted(keys[order],
                                 np.arange(flat.size + 1)).tolist()
        flat[...] = [col[a:b].sum() for a, b in zip(bounds, bounds[1:])]
        return out
    flat[...] = 0.0
    cols = np.arange(dim)
    step = max(1, _BLOCK_VALUES // dim)
    for start in range(0, n, step):
        stop = min(start + step, n)
        index = (keys[start:stop, None] * dim + cols).ravel()
        np.add.at(flat, index, rows(start, stop).ravel())
    return out


def kmeans_pp_draws(windows, k: int, seeds) -> list[tuple[np.ndarray, str]]:
    """k-means++ seeding of B same-shape windows, drawn in lockstep.

    ``windows`` are (n, dim) float64 arrays, all of one shape, and window
    ``b`` draws ``k`` rows from ``default_rng(seeds[b])``. Returns, for each
    window, the drawn row indices and the path that drew them: "gram" when
    :func:`_gram_pp_draws` certified every draw, else "exact", the direct
    distances of :func:`_exact_pp_init` from a fresh stream, run for that
    window alone. Both draw the same indices, so the centers, and with them
    the fit, are bit-identical either way. The windows are drawn a block
    at a time, so the work arrays stay under ``_PP_STACK_BYTES``.
    """
    n = windows[0].shape[0]
    # the n x n distances or one distance row, then the squared norms, the
    # closest distances and the cumulative sums
    per_window = 8 * n * ((n if n <= _PP_GRAM_ROWS else 1) + 3)
    step = max(1, _PP_STACK_BYTES // per_window)
    out = []
    for start in range(0, len(windows), step):
        block = windows[start : start + step]
        block_seeds = seeds[start : start + step]
        idx, certified = _gram_pp_draws(
            block, k, [np.random.default_rng(s) for s in block_seeds])
        for points, seed, rows, ok in zip(block, block_seeds, idx, certified):
            if ok:
                out.append((rows, "gram"))
            else:
                rng = np.random.default_rng(seed)
                out.append((_exact_pp_init(points, k, rng), "exact"))
    return out


def _exact_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding on direct ``(x - c).(x - c)`` distances.

    Returns the k drawn row indices. A weighted draw is
    :func:`_choice_indices` of ``closest / total`` and one ``random()``, so
    it consumes the stream ``rng.choice(n, p=closest / total)`` would and
    picks the same index.
    """
    n = points.shape[0]
    idx = np.empty(k, dtype=np.intp)
    idx[0] = rng.integers(n)
    diff = points - points[idx[0]]
    closest = _sq_norms(diff)
    for i in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx[i] = _choice_indices(closest / total, rng.random())
        else:
            # all points coincide with chosen centers; fall back to uniform
            idx[i] = rng.integers(n)
        np.subtract(points, points[idx[i]], out=diff)
        np.minimum(closest, _sq_norms(diff), out=closest)
    return idx


def _choice_indices(weights: np.ndarray, uniforms):
    """The indices ``Generator.choice(len(weights), p=weights)`` picks when
    its ``random`` call gives it ``uniforms`` (one or an array): the
    uniforms searched on the cumulative weights, normalized by their last
    entry. A zero weight is never picked."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def _gram_pp_draws(windows, k: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """The indices :func:`_exact_pp_init` draws for each window, from
    Gram-form distances, and whether each window's draws are certified.

    A Gram distance ``x2[i] + x2[j] - 2 G[i, j]`` (clamped at 0) differs
    from the direct one by at most ``delta``, the standard dot-product
    rounding bound, so a cumulative sum of n distances moves by at most
    ``n * delta``. A draw is certified when the total lies clearly above
    that and ``u * total`` lies farther than the propagated slack (those
    errors plus the rounding of both paths' cumulative sums) from both
    neighbouring cumulative sums: then the direct path's CDF puts ``u``
    between the same two entries.

    Every window takes its first index with ``integers(n)`` and each later
    draw with one ``random()``, as the direct path does while the total is
    positive; a total too small to certify gives the window up anyway, so
    the uniforms are drawn up front with ``random(k - 1)``. Each step then
    serves all B windows with one ``cumsum``, one counting search and one
    ``minimum``. A single window searches its sums with ``searchsorted``
    instead: a pooled seeding (B = 1, 48,000 x 64) measures faster that
    way than with the counting search. Each step's cumulative sums are
    overwritten by the next; only each draw's total and the two sums
    around its drawn index are kept, (k - 1, B) each, and the certificate
    runs over every draw at once after the loop on those values; a window
    whose draws went astray after an uncertified one is given up whole.

    Returns a (B, k) index array and a (B,) bool array.
    """
    b = len(windows)
    n, dim = windows[0].shape
    eps = np.finfo(np.float64).eps
    x2 = np.stack([_finite_sq_norms(w, "points") for w in windows])
    _check_distance_range(x2, x2, "points")
    # the dot-product rounding bound, plus a term for underflowing products
    delta = (4 * dim + 16) * 2 * (eps * x2.max(axis=1)
                                  + np.finfo(np.float64).tiny)
    err = n * delta
    every = np.arange(b)
    if n <= _PP_GRAM_ROWS:
        # each window's n x n distances, built while its product is in cache
        dists = np.empty((b, n, n), dtype=np.float64)
        for w, w2, d in zip(windows, x2, dists):
            _gram_dists(np.matmul(w, w.T, out=d), w2[:, None], w2)

        def rows(j):
            return dists[every, j]
    else:
        row_buf = np.empty((b, n), dtype=np.float64)

        def rows(j):
            for w, w2, i, r in zip(windows, x2, j, row_buf):
                _gram_dists(np.matmul(w, w[i], out=r), w2, w2[i])
            return row_buf

    idx = np.empty((k, b), dtype=np.intp)
    idx[0] = [rng.integers(n) for rng in rngs]
    uniforms = np.array([rng.random(k - 1) for rng in rngs]).T
    # per draw and window: the total and the cumulative sums just below
    # and at the drawn index
    total, below, above = np.empty((3, k - 1, b), dtype=np.float64)
    c = np.empty((b, n), dtype=np.float64)
    closest = rows(idx[0]).copy()
    for s, (u, j) in enumerate(zip(uniforms, idx[1:])):
        np.add.accumulate(closest, axis=1, out=c)
        total[s] = c[:, -1]
        # searchsorted(side="right") of u * total on the ascending sums,
        # capped at n - 1; one window searches its row, a stack counts
        if b == 1:
            j[0] = c[0, :-1].searchsorted(u[0] * total[s, 0], side="right")
        else:
            np.add.reduce(c[:, :-1] <= (u * total[s])[:, None], axis=1,
                          out=j)
        # a draw of row 0 has no sum below it; the certificate ignores
        # what its index - 1 reads
        below[s] = c[every, j - 1]
        above[s] = c[every, j]
        np.minimum(closest, rows(j), out=closest)

    target = uniforms * total
    drawn = idx[1:]
    slack = 3.0 * err + 8.0 * (n + 2) * eps * total
    certified = (
        (total > 4.0 * err)
        & ((drawn == 0) | (below < target - slack))
        & ((drawn == n - 1) | (above > target + slack))
    )
    return idx.T, certified.all(axis=0)


def _gram_dists(gram: np.ndarray, a2, b2) -> np.ndarray:
    """``a2 + b2 - 2 * gram`` clamped at 0, computed in place in ``gram``."""
    gram *= -2.0
    gram += a2
    gram += b2
    return np.maximum(gram, 0.0, out=gram)


def _pairwise_sum(leaf_sum, start: int, count: int, leaf: int):
    """numpy's pairwise sum of the ``count`` values from flat position
    ``start``, its subtrees of at most ``leaf`` values summed by
    ``leaf_sum(start, count)``.

    numpy sums a contiguous float64 array along one pairwise tree: a node
    of more than ``_NUMPY_PAIRWISE_LEAF`` values splits at half its count,
    rounded down to a multiple of 8, and a smaller node is one unrolled
    leaf. The split depends on the count alone, so ``np.sum`` of any
    subtree's values on their own gives that subtree's sum, and adding
    the subtree sums along the same splits gives the whole array's sum bit
    for bit. ``leaf`` must be at least ``_NUMPY_PAIRWISE_LEAF``: a node
    that numpy sums as one leaf cannot be split here.
    """
    if count <= leaf:
        return leaf_sum(start, count)
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(leaf_sum, start, half, leaf)
            + _pairwise_sum(leaf_sum, start + half, count - half, leaf))


def _inertia(points, centers, assign) -> float:
    """``np.sum((points - centers[assign]) ** 2)``, bit for bit.

    The (n, dim) residuals are never formed whole. The sum follows numpy's
    pairwise tree over their n * dim values (:func:`_pairwise_sum`), and
    each subtree of at most ``_BLOCK_VALUES`` values (never fewer than
    numpy's own leaf) has its residuals formed and squared in one small
    buffer, covering the rows it touches, and then summed by ``np.sum``.
    """
    dim = points.shape[1]
    leaf = max(_BLOCK_VALUES, _NUMPY_PAIRWISE_LEAF)
    # a subtree's values start inside a row, so it touches up to two
    # rows more than leaf // dim
    buf = np.empty((min(points.shape[0], leaf // dim + 2), dim))

    def leaf_sum(start, count):
        first, stop = start // dim, -(-(start + count) // dim)
        block = buf[: stop - first]
        np.take(centers, assign[first:stop], axis=0, out=block)
        np.subtract(points[first:stop], block, out=block)
        np.square(block, out=block)
        skip = start - first * dim
        return block.ravel()[skip : skip + count].sum()

    return float(_pairwise_sum(leaf_sum, 0, points.size, leaf))


def _fill_empty_clusters(assign: np.ndarray, own: np.ndarray,
                         counts: np.ndarray) -> int:
    """Move the point farthest from its center into each empty cluster.

    ``own`` (n,) holds each point's distance to its assigned center and
    ``counts`` (k,) each cluster's point count. Edits ``assign``, ``own``
    and ``counts`` in place and returns the number of points moved.
    """
    guard = 0
    while np.any(counts == 0) and guard < 2 * counts.size:
        j = int(np.flatnonzero(counts == 0)[0])
        p = int(np.argmax(own))
        old = int(assign[p])
        assign[p] = j
        counts[old] -= 1
        counts[j] += 1
        own[p] = -np.inf
        guard += 1
    return guard


def kmeans_fit(
    points, k: int, seed: int, *, draws: tuple[np.ndarray, str] | None = None
) -> Codebook:
    """Lloyd iterations from k-means++ seeding, deterministic under ``seed``.

    The seeding is :func:`kmeans_pp_draws` of this one input: Gram-form
    draws from ``default_rng(seed)``, certified together after the draw
    loop against a rounding-error bound, with a rerun on direct distances
    when a draw cannot be certified. The drawn indices are always those of
    the direct path, and the codebook records which path ran as
    ``seeding``. ``draws``, when given, replaces that seeding: the fit
    starts from those indices and records that path. Only their shape,
    range and path are checked, so the fit is the one ``seed`` gives only
    when ``draws`` is what :func:`kmeans_pp_draws` returned for these
    points, ``k`` and ``seed``, as when a caller draws a stack of windows
    ahead together.
    Stops when an iteration lowers the inertia by at most ``_KMEANS_TOL``
    of its previous value, or after ``_KMEANS_MAX_ITER`` iterations. Empty
    clusters are refilled with the point currently farthest from its
    assigned center so exactly ``k`` centers always come back. The
    points' squared norms are computed and checked once per fit, before
    the seeding. Every iteration takes each distance chunk's argmin as
    soon as that chunk's (``_BLOCK_VALUES // k`` rows) distances exist; an
    iteration that leaves a cluster empty computes the chunks again and
    keeps only each point's distance to its own center for the refill, so
    no (n, k) distance matrix is held. The inertia is summed one
    ``_BLOCK_VALUES`` subtree of residuals at a time (:func:`_inertia`), so
    no (n, dim) array is held either, only the points and a few (n,) ones.

    Args:
        points: (n, dim) array.
        k: number of centers, 1 <= k <= n.
        seed: initialization seed.
        draws: the k-means++ (indices, path) for this input, or None to
            draw them here.

    Returns:
        A :class:`Codebook` with k centers.

    Raises:
        EmptyInput: no points were given.
        KTooLarge: k exceeds the number of points.
        DimensionMismatch: points is not a 2-D array, or has no columns.
        DataError: a point is not finite, or its squared norm is not, or
            the norms are so large that a distance would overflow.
        ValueError: k < 1, or ``draws`` are not k row indices of
            ``points`` with the path "gram" or "exact".
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise EmptyInput("kmeans_fit requires at least one point")
    if pts.shape[1] == 0:
        raise DimensionMismatch("kmeans_fit requires points of dim >= 1")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > pts.shape[0]:
        raise KTooLarge(f"k={k} exceeds the {pts.shape[0]} available points")
    x2 = _finite_sq_norms(pts, "points")

    if draws is None:
        idx, seeding = kmeans_pp_draws([pts], k, [seed])[0]
    else:
        idx, seeding = np.asarray(draws[0]), draws[1]
        if (idx.shape != (k,) or idx.dtype.kind not in "iu"
                or seeding not in ("gram", "exact")
                or idx.min() < 0 or idx.max() >= pts.shape[0]):
            raise ValueError(
                f"draws must be {k} row indices in [0, {pts.shape[0]}) and "
                f"a path 'gram' or 'exact', got shape {idx.shape} of "
                f"{idx.dtype} and path {seeding!r}"
            )
    centers = pts[idx]

    history: list[float] = []
    prev = np.inf
    refills = 0
    converged = False
    for _ in range(_KMEANS_MAX_ITER):
        assign = _assign_nearest(pts, centers, x2)
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            # rare: the refill needs each point's distance to its center
            own = np.empty(pts.shape[0], dtype=np.float64)
            for start, dists in _dist_blocks(pts, centers, x2):
                rows = slice(start, start + dists.shape[0])
                own[rows] = np.take_along_axis(
                    dists, assign[rows, None], axis=1)[:, 0]
            refills += _fill_empty_clusters(assign, own, counts)
        # every cluster holds a point after the refill: no division by zero
        centers = cluster_sums(pts, assign, k) / counts[:, None]
        inertia = _inertia(pts, centers, assign)
        history.append(inertia)
        if np.isfinite(prev) and prev - inertia <= _KMEANS_TOL * prev:
            converged = True
            break
        prev = inertia

    return Codebook(
        centers=centers,
        inertia=history[-1],
        inertia_history=tuple(history),
        converged=converged,
        refills=refills,
        seeding=seeding,
    )


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude component is positive."""
    idx = np.argmax(np.abs(vecs), axis=1)
    signs = np.sign(vecs[np.arange(vecs.shape[0]), idx])
    signs[signs == 0] = 1.0
    return vecs * signs[:, None]


# numpy's bundled scipy-openblas, as the two entry points pca_fit reads.
_OpenBLAS = namedtuple("_OpenBLAS", "dsyevr num_threads")


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """numpy's bundled scipy-openblas, or None when numpy ships another BLAS.

    Loaded on first use and kept: the library's ILP64 LAPACKE ``dsyevr`` and
    its thread-count getter, with their C signatures set, from the first
    library under ``numpy.libs`` (``numpy/.dylibs`` on macOS) that exports
    both.
    """
    root = Path(np.__file__).parent
    for lib in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                       *(root / ".dylibs").glob("*openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        dsyevr = getattr(dll, "scipy_LAPACKE_dsyevr64_", None)
        threads = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        if dsyevr is None or threads is None:
            continue
        i64, f64, char = ctypes.c_int64, ctypes.c_double, ctypes.c_char
        f64s = np.ctypeslib.ndpointer(np.float64, flags="C,W")
        i64s = np.ctypeslib.ndpointer(np.int64, flags="C,W")
        # (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m,
        # w, z, ldz, isuppz)
        dsyevr.restype = i64
        dsyevr.argtypes = [ctypes.c_int, char, char, char, i64, f64s, i64,
                           f64, f64, i64, i64, f64, ctypes.POINTER(i64),
                           f64s, f64s, i64, i64s]
        threads.argtypes, threads.restype = [], ctypes.c_int
        return _OpenBLAS(dsyevr, threads)
    return None


def eigensolver() -> str:
    """The LAPACK routine :func:`pca_fit`'s eigendecompositions run:
    "dsyevr" (the top-d solve) or "eigh" (every pair, on another BLAS)."""
    return "eigh" if _openblas() is None else "dsyevr"


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS uses, or None on another BLAS.

    The bases :func:`pca_fit` returns, and every byte downstream of them,
    depend on this count.
    """
    lib = _openblas()
    return None if lib is None else int(lib.num_threads())


def _top_eigenpairs(sym: np.ndarray, d: int):
    """The ``d`` largest eigenvalues of the symmetric ``sym``, descending,
    and their unit eigenvectors as the rows of a (d, n) array.

    With numpy's bundled OpenBLAS this is one LAPACKE ``dsyevr`` call for
    eigenvalues n - d + 1 to n (bisection and inverse iteration below
    d = n), which overwrites ``sym``: callers pass a temporary, so no n x n
    copy is made and no eigenvector outside the top d is formed. On another
    BLAS ``np.linalg.eigh`` solves every pair and the top d are kept. Both
    paths return LAPACK's ascending eigenvalues reversed, ties kept in
    LAPACK's order, and raise LinAlgError when LAPACK fails.
    """
    n = sym.shape[0]
    if sym.shape != (n, n) or not 1 <= d <= n:
        raise ValueError(f"need an n x n matrix and 1 <= d <= n, got "
                         f"{sym.shape} and d = {d}")
    lib = _openblas()
    if lib is None:
        evals, evecs = np.linalg.eigh(sym)
        order = np.argsort(-evals, kind="stable")[:d]
        return evals[order], evecs[:, order].T
    found = ctypes.c_int64()
    evals = np.empty(n, dtype=np.float64)
    evecs = np.empty((d, n), dtype=np.float64)
    isuppz = np.empty(2 * d, dtype=np.int64)
    # column-major: sym is its own transpose, and evecs' rows are the
    # columns of Z with ldz = n
    info = lib.dsyevr(_COL_MAJOR, b"V", b"I", b"L", n, sym, n, 0.0, 0.0,
                      n - d + 1, n, 0.0, ctypes.byref(found), evals, evecs,
                      n, isuppz)
    if info != 0 or found.value != d:
        raise np.linalg.LinAlgError(
            f"dsyevr failed (info {info}, {found.value} of {d} eigenpairs)")
    order = np.argsort(-evals[:d], kind="stable")
    return evals[order], evecs[order]


def _gram_solve(centered: np.ndarray, d: int, dof):
    """Top-``d`` eigenpairs of the covariance ``C^T C / dof`` through the
    n x n Gram matrix.

    The snapshot method: if ``C C^T u = dof lam u`` then ``C^T u / sqrt(dof
    lam)`` is a unit eigenvector of ``C^T C / dof`` with eigenvalue ``lam``.
    Returns None when a kept eigenvalue is not clearly above the rounding
    error of the eigensolver (about n * eps * lam_max), because dividing by
    its root would give NaN or noise; centered data has rank at most n - 1.
    Above that floor the mapped rows still lose orthogonality by about
    eps * lam_max / lam_k, so it also returns None when they are not
    orthonormal to ``_GRAM_ORTHO_TOL``.
    """
    n = centered.shape[0]
    gram = centered @ centered.T
    gram /= dof  # in place: no second n x n array
    eigenvalues, snapshots = _top_eigenpairs(gram, d)
    del gram  # spent, so the map and its check do not sit beside it
    floor = n * np.finfo(np.float64).eps * eigenvalues[0]
    if eigenvalues[-1] <= 0.0 or eigenvalues[-1] <= floor:
        return None
    vecs = snapshots @ centered
    vecs /= np.sqrt(dof * eigenvalues)[:, None]
    if np.abs(vecs @ vecs.T - np.eye(d)).max() > _GRAM_ORTHO_TOL:
        return None
    return eigenvalues, vecs


def pca_fit(rows, d: int, *, weights=None) -> ProjectionBasis:
    """Fit the top-``d`` principal directions of ``rows``.

    The column-wise mean is subtracted and recorded on the basis. The input's
    orientation alone picks the solver, so the eigendecomposition always
    runs on the smaller of the two square products. A tall input (at least
    as many rows as columns) goes through the dim x dim covariance. A wide
    input goes through the n x n Gram matrix, mapped back to the input space
    (the snapshot method); when a kept Gram eigenvalue is too small to
    divide by or the mapped rows are not orthonormal to 1e-9
    (rank-deficient or nearly rank-deficient data), the same call takes the
    thin SVD of the n centered rows instead. All paths agree within 1e-5 on
    well-conditioned data. Eigenvector signs follow the
    largest-magnitude-component-positive rule so fits are reproducible. The
    basis records the solver that ran ("gram", "eig" or "svd"), the
    fraction of the total variance the kept directions hold, and the row
    count n as ``fit_rows``.

    The covariance and Gram eigendecompositions solve for the top ``d``
    pairs only: one LAPACK ``dsyevr`` call in the OpenBLAS that numpy
    bundles, which overwrites the temporary product in place (see
    :func:`eigensolver`). Eigenvalues come out descending, tied ones in
    LAPACK's ascending order. On a numpy linked to another BLAS, where that
    routine cannot be reached, ``np.linalg.eigh`` solves every pair and the
    top ``d`` are kept; the two agree within 1e-9 on well-conditioned data,
    but not bit for bit. Either way the bits also depend on the BLAS thread
    count (:func:`blas_threads`).

    ``weights`` gives the number of times each row counts: the fit is that
    of the rows repeated that often, up to rounding, without the repeats.
    It takes the weighted mean, scales each centered row by the root of its
    weight, and runs the unweighted solvers on those n rows with the
    sample count ``sum(weights)`` in place of n. The row count n alone
    picks the solver and bounds ``d``.

    The fit centers ``rows`` in place instead of copying it: a C-contiguous
    float64 ``rows`` holds ``rows - basis.mean`` afterwards, each row also
    multiplied by the square root of its weight when ``weights`` is given,
    and any other array is converted to a new array first and left
    unchanged. The basis is bit for bit the same either way. A caller that
    still needs its rows passes a copy.

    Args:
        rows: (n, dim) array, n >= 2.
        d: directions to keep, 1 <= d <= min(n, dim).
        weights: None, or (n,) integers >= 1.

    Returns:
        A :class:`ProjectionBasis` with d orthonormal rows.

    Raises:
        DimensionMismatch: rows is not a 2-D array, or weights is not (n,).
        DataError: a weight is not an integer >= 1.
        InsufficientRows: fewer than two rows.
        DTooLarge: d exceeds min(n, dim).
    """
    mat = _as_points(rows, name="rows")
    n, dim = mat.shape
    if weights is not None:
        weights = np.asarray(weights)
        if weights.shape != (n,):
            raise DimensionMismatch(
                f"weights have shape {weights.shape}, rows need ({n},)")
        if weights.dtype.kind not in "iu" or np.any(weights < 1):
            raise DataError("weights must be integers >= 1")
    if n < 2:
        raise InsufficientRows(f"pca_fit requires >= 2 rows, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d > min(n, dim):
        raise DTooLarge(f"d={d} exceeds min(rows={n}, dim={dim})")
    _check_finite(mat, "rows")

    if weights is None:
        count = n
        mean = mat.mean(axis=0)
    else:
        weights = weights.astype(np.float64)
        count = float(weights.sum())
        mean = (weights @ mat) / count
    centered = np.subtract(mat, mean, out=mat)
    if weights is not None:
        centered *= np.sqrt(weights)[:, None]  # in place, as the centering
    dof = count - 1
    if n >= dim:
        solver = "eig"
        cov = centered.T @ centered
        cov /= dof  # in place: no second dim x dim array
        eigenvalues, vecs = _top_eigenpairs(cov, d)
    elif (solved := _gram_solve(centered, d, dof)) is not None:
        solver = "gram"
        eigenvalues, vecs = solved
    else:
        solver = "svd"
        _, sing, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = (sing[:d] ** 2) / dof
        vecs = vt[:d]

    total = float(np.vdot(centered, centered)) / dof
    # identical rows have no variance, so no projection loses any
    retained = float(np.sum(eigenvalues)) / total if total > 0.0 else 1.0
    return ProjectionBasis(
        rows=_fix_signs(np.ascontiguousarray(vecs)),
        mean=mean,
        eigenvalues=np.ascontiguousarray(eigenvalues, dtype=np.float64),
        solver=solver,
        retained_variance=retained,
        fit_rows=n,
    )


def pca_project(basis: ProjectionBasis, v: np.ndarray) -> np.ndarray:
    """Project ``v`` (one vector or a stack of them) onto the basis.

    Returns ``rows @ (v - mean)``: a (d,) vector for 1-D input, an (n, d)
    matrix for 2-D input.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != basis.dim:
        raise DimensionMismatch(
            f"vector has dimension {arr.shape[-1]}, basis expects {basis.dim}"
        )
    return (arr - basis.mean) @ basis.rows.T


def basis_alignment_score(a: ProjectionBasis, b: ProjectionBasis) -> float:
    """Sum of element-wise products of corresponding basis rows.

    Symmetric in (a, b) and bounded by [-d, d] for orthonormal rows; equal
    bases score exactly d. Sensitive to eigenvector sign and order, which
    is what makes it a stability probe for the compaction bases.
    """
    if a.d != b.d or a.dim != b.dim:
        raise DimensionMismatch(
            f"bases have shapes {a.rows.shape} and {b.rows.shape}"
        )
    return float(np.sum(a.rows * b.rows))
