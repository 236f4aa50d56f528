"""VLAD, VLAC and hyper-pooling encoders plus their training procedures.

A video is one :class:`Video`: a (total, dim) feature matrix plus the row
offsets of its frames. A group of frames (GoF) is a range of consecutive
frames, so its features are one contiguous row slice; :func:`split_gofs`
cuts a video's windows with the :class:`ModelParams` ``gof_size`` and
``overlap`` and gives the first frame of each.

Every encoder aggregates nearest-center residuals through one kernel,
:func:`_residual_sums`: it assigns a matrix of points to the centers once
and sums the residuals of any list of row windows, plain float64 addition
in input order, so permuting features moves an output only by float64
rounding. :func:`encode_video` makes one kernel call per video for every
method, one window per GoF: over the features (VLAD), over the stacked
window LFCs (VLAC), or over the frame VLAD rows projected once to d0 dims
(hyper-pooling); the per-frame VLAD rows are one window per frame. It then
projects all windows' raw vectors onto the basis in one product.
Training sums every window in one call too: VLAC over the stacked window
LFCs of every training video, the stack the CLFCs were fit on
(:func:`_vlac_rows`), and hyper-pooling over its frame rows projected once.
:func:`vlac_encode`, :func:`vlad_encode` and :func:`hp_encode` are the
public one-window forms of the three methods; a hyper-pooling row may
differ from :func:`hp_encode`'s by the projection's rounding. VLAC is the
VLAD kernel applied to per-window local feature centers (LFCs) instead of
raw features, so ``vlac_encode(lfcs, c)`` is
``vlad_encode(lfcs.centers, c)``; :func:`_window_lfcs`
is the one place that fits a video's window LFCs, for training and
encoding alike. It groups a video's windows by feature count, draws each
group's k-means++ seeding in lockstep, and then fits every window on its
own, each exactly as a lone :func:`compute_lfcs` call would. Every encoder
returns a plain float64 NumPy vector, and :func:`encode_video` a (G, d)
matrix.

Each trainer takes the training videos and one :class:`ModelParams`,
cuts the windows itself, and the field metadata records which method
reads which field. Each builds its own raw rows and ends in the same
step, :func:`_trained`: the d-dim compaction basis over those rows, and
``f`` set to the feature dimension of the data, the one place it is set,
so no caller passes it. ``videos`` may be any iterable, a one-pass iterator
that reads each video from its file included, and a trainer consumes it
once: VLAC streams it, fitting each video's window LFCs as the video
arrives, while VLAD and hyper-pooling make the only list of it and drop
that list after its last use, the frame VLAD rows, so no video is held
while a basis is fit. Both share one first stage, :func:`_frame_stage`.
A trainer holds each training matrix once: the videos keep the float32
features they were loaded with, and the pooled float64 features exist
only until the codebook is fit; VLAC's window LFC centers live only as
rows of the one stack the CLFCs are fit on, every window codebook a view
of its rows, exist twice only during the one concatenation that joins
the videos' blocks into that stack (:func:`fit_clfcs`), and are dropped
once the VLAC rows are summed, before the basis is fit; the kernel sums
each video's frame VLAD rows straight into one preallocated matrix, one
row per distinct picked frame even where overlapping windows pick a
frame twice, with no per-video copy and no row for a frame that no
window picks; no residual sum holds its (rows, dim) residuals, only one
cache block of them; and every basis fit L2-normalizes (with
``normalize``) and centers the rows built for it in place, as
:func:`pca_fit` always does.
Hyper-pooling fits its first basis on those rows weighted by the number
of windows that pick each frame, projects them with one plain product,
drops them, and spreads the projected rows back to every pick.

A model file (``VLACMODL``) holds the magic, version (u16), method tag
(u8) and one u32 per :class:`ModelParams` field in field order, then the
arrays :func:`_model_arrays` lists, each as rows and cols (u32) and
rows*cols float32 values. The parameters fix every array's shape. The
file checks and the float32 codec live in :mod:`vlac.fileio`; saving a
loaded model reproduces the file byte for byte. :class:`ModelParams` and
:class:`TrainedModel` hold the stored-model rules, so a model that no
trainer writes cannot be built, saved or loaded.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import core_math
from .core_math import (
    Codebook,
    ProjectionBasis,
    cluster_sums,
    kmeans_fit,
    kmeans_pp_draws,
    nearest_centers,
    pca_fit,
    pca_project,
)
from .errors import (
    DataError,
    DimensionMismatch,
    EmptyGof,
    EmptyVideo,
    UntrainedModel,
)
from .fileio import Reader, atomic_write, f32_bytes

METHOD_VLAD = "vlad"
METHOD_VLAC = "vlac"
METHOD_HP = "hp"
METHODS = (METHOD_VLAD, METHOD_VLAC, METHOD_HP)

METHOD_TAGS = {METHOD_VLAD: 1, METHOD_VLAC: 2, METHOD_HP: 3}
TAG_METHODS = {v: k for k, v in METHOD_TAGS.items()}

# Mixed into the model seed for the hyper-pooling second clustering stage
# so it never reuses the first-stage initialization stream.
_HP_SECOND_STAGE_SALT = 0x5F3759DF

_MODEL_MAGIC = b"VLACMODL"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class Video:
    """The local descriptors of one video, all frames in one matrix.

    ``features`` is a (total, dim) matrix whose rows
    ``offsets[t]:offsets[t + 1]`` are the features of frame ``t``, and
    ``frame_index[t]`` is that frame's index. A float32 array stays
    float32, at half the bytes of float64, as a loaded feature file gives
    it; other real numbers (bool, integer or float) are cast to float64,
    and any other kind (complex, strings, objects) is refused. Every
    consumer widens the features to float64 on use, which is exact, so
    both dtypes give the same bits downstream. The input is checked once,
    here: 2-D finite features, F + 1 offsets that start at 0, never
    decrease and end at ``total``, and strictly increasing integer frame
    indices that fit in int64.
    """

    features: np.ndarray
    frame_index: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        feats = self.features
        if not (isinstance(feats, np.ndarray) and feats.dtype == np.float32):
            feats = np.asarray(feats)
            # a complex value would lose its imaginary part, a string parse
            if feats.dtype.kind not in "biuf":
                raise DataError("video features must be real numbers, got "
                                f"{feats.dtype} values")
            feats = feats.astype(np.float64, copy=False)
        if feats.ndim != 2:
            raise DimensionMismatch(
                f"video features must be 2-D (total, dim), got {feats.ndim}-D"
            )
        if not np.isfinite(feats).all():
            raise DataError("video features contain non-finite values")
        index = np.asarray(self.frame_index)
        # a float array would truncate, a huge Python int overflow the cast
        if index.size and (index.dtype.kind not in "iu"
                           or index.max() > np.iinfo(np.int64).max):
            raise DataError("frame indices must be integers that fit in "
                            f"int64, got {index.dtype} values")
        index = index.astype(np.int64, copy=False)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if index.ndim != 1 or offsets.shape != (index.shape[0] + 1,):
            raise DataError(
                f"{index.shape} frame indices need {index.shape[0] + 1} "
                f"offsets, got {offsets.shape}"
            )
        if (offsets[0] != 0 or offsets[-1] != feats.shape[0]
                or np.any(np.diff(offsets) < 0)):
            raise DataError(
                "frame offsets must start at 0, never decrease and end at "
                f"the {feats.shape[0]} feature rows"
            )
        if np.any(np.diff(index) <= 0):
            raise DataError("frame indices must be strictly increasing")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "frame_index", index)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_frames(cls, frames, frame_index=None) -> "Video":
        """A video from per-frame (count, dim) arrays, indexed 0, 1, ...
        unless ``frame_index`` is given. The frames are copied into the one
        feature matrix in the dtype numpy promotes them to, which ``Video``
        then keeps, casts or refuses; a signaling NaN passes the copy
        quietly and fails the finiteness check."""
        frames = [np.asarray(f) for f in frames]
        if frame_index is None:
            frame_index = range(len(frames))
        counts = [f.shape[0] for f in frames]
        with np.errstate(invalid="ignore"):
            features = np.concatenate(frames) if frames else np.empty((0, 0))
        return cls(
            features=features,
            frame_index=frame_index,
            offsets=np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
        )

    def __len__(self) -> int:
        return int(self.frame_index.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def rows(self, start: int, stop: int) -> slice:
        """The feature rows of frames ``start`` to ``stop - 1``."""
        return slice(int(self.offsets[start]), int(self.offsets[stop]))


@dataclass(frozen=True)
class ModelParams:
    """Every training/encoding parameter, persisted with the model.

    This is the one parameter schema: the CLI derives its flags and config
    keys from these fields, and the field order is the VLACMODL header
    layout, so every int field must fit in a u32. ``h`` is the number of
    leading projected components hyper-pooling quantizes on. An int
    field's ``metadata["min"]`` is the least value a run may configure
    (default 1); ``metadata["method"]`` names the one method that reads the
    field, and a trained model stores the fields of other methods as 0.
    DataError for ``overlap >= gof_size``, so the windows
    :func:`split_gofs` cuts always have a stride ``gof_size - overlap`` of
    at least 1.
    """

    f: int
    j: int = field(default=0, metadata={"method": METHOD_VLAD})
    n: int = field(default=0, metadata={"method": METHOD_VLAC})
    m: int = field(default=0, metadata={"method": METHOD_VLAC})
    d: int = 0
    d0: int = field(default=0, metadata={"method": METHOD_HP})
    alpha1: int = field(default=0, metadata={"method": METHOD_HP})
    alpha2: int = field(default=0, metadata={"method": METHOD_HP})
    h: int = field(default=0, metadata={"method": METHOD_HP})
    gof_size: int = 5
    overlap: int = field(default=1, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    normalize: bool = False

    def __post_init__(self):
        for fld in fields(self):
            value = getattr(self, fld.name)
            kind = _field_kind(fld)
            if type(value) is not kind:
                raise DataError(f"parameter {fld.name} must be {kind.__name__}")
            if kind is int and not 0 <= value < 2**32:
                raise DataError(
                    f"parameter {fld.name} must be in [0, {2**32 - 1}], "
                    f"got {value}"
                )
        if self.overlap >= self.gof_size:
            raise DataError(
                f"parameters have gof_size={self.gof_size} and overlap="
                f"{self.overlap}, which must satisfy 0 <= overlap < gof_size"
            )

    def for_method(self, method: str) -> "ModelParams":
        """These parameters as a ``method`` model stores them: the fields
        other methods read are 0. Raises DataError if a field ``method``
        reads is below 1."""
        others = {}
        for fld in fields(self):
            reader = fld.metadata.get("method")
            if reader == method and getattr(self, fld.name) < 1:
                raise DataError(f"{method} needs {fld.name} >= 1")
            if reader not in (None, method):
                others[fld.name] = 0
        return replace(self, **others)


def _field_kind(fld) -> type:
    # annotations are strings under ``from __future__ import annotations``
    return bool if fld.type == "bool" else int


@dataclass(frozen=True)
class TrainedModel:
    """The codebooks and projection basis of one trained encoder.

    ``codebook`` is the method's primary codebook (VLAD: J centers, VLAC:
    M CLFCs, HP: the alpha1 first-stage centers); ``basis`` performs the
    final compaction to d dimensions. The hyper-pooling fields are None
    for the other methods. ``lfc_fits`` sums up a VLAC model's window LFC
    fits (see :func:`_fit_summary`); it is not stored in the file, so it
    is None for a loaded model and for the other methods. Construction
    refuses, as DataError, a method outside ``METHODS``, parameters other
    than ``params.for_method(method)`` and a hyper-pooling ``h > d0``, and,
    as UntrainedModel, a hyper-pooling model without both stages.
    """

    method: str
    params: ModelParams
    codebook: Codebook
    basis: ProjectionBasis
    hp_first_basis: ProjectionBasis | None = None
    hp_second_codebook: Codebook | None = None
    lfc_fits: dict[str, int] | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(f"unknown model method {self.method!r}")
        p, stored = self.params, self.params.for_method(self.method)
        extra = [f.name for f in fields(p)
                 if getattr(p, f.name) != getattr(stored, f.name)]
        if extra:
            raise DataError(f"{self.method} parameters set {', '.join(extra)}, "
                            "which only other methods read")
        if self.method != METHOD_HP:
            return
        if p.h > p.d0:
            raise DataError(f"hp parameters have h={p.h}, which must be "
                            f"between 1 and d0={p.d0}")
        if self.hp_first_basis is None or self.hp_second_codebook is None:
            raise UntrainedModel("hp model is missing its hyper-pooling stages")


def _residual_sums(
    points: np.ndarray, centers: np.ndarray, starts, stops, *,
    assign_dims: int | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """Nearest-center residual sums over row windows, a (W, k * dim) matrix.

    Window ``w`` is rows ``starts[w]:stops[w]`` of ``points``; windows may
    overlap or be empty. The points are assigned once, and row ``w`` holds
    each center's sum of (point - center) over window ``w``'s rows, added
    in input order by one keyed scatter-add (``core_math._keyed_sums``, as
    :func:`cluster_sums`), so it is bit-equal to summing that window alone.
    ``assign_dims`` restricts the nearest-center search to the leading
    components of points and centers; residuals span all of them, so
    points and centers of different widths raise DimensionMismatch.
    No (rows, dim) residual matrix is held: each block of rows that
    ``_keyed_sums`` asks for is gathered from ``points`` and widened to
    float64 (float32 points widen exactly), has its centers subtracted in
    place, and is added into the output before the next block is formed.
    ``out``, a C-contiguous (W, k * dim) float64 array, is filled and
    returned in place of a new matrix.
    """
    k, dim = centers.shape
    if points.shape[1] != dim:  # the slices below may agree regardless
        raise DimensionMismatch(
            f"points have dimension {points.shape[1]}, centers {dim}")
    assign = nearest_centers(points[:, :assign_dims],
                             centers[:, :assign_dims])
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(stops, dtype=np.int64) - starts
    if out is None:
        out = np.empty((starts.size, k * dim))
    elif (out.shape != (starts.size, k * dim) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous (W, k * dim) float64 "
                         "array")
    owner = np.repeat(np.arange(starts.size), lengths)
    # every window's rows in order: row i of window w is starts[w] + i
    first = np.cumsum(lengths) - lengths
    rows = np.arange(owner.size) + np.repeat(starts - first, lengths)
    labels = assign[rows]

    def residuals(start, stop):
        # the gather is already a copy; float64 points are not copied again
        block = points[rows[start:stop]].astype(np.float64, copy=False)
        block -= centers[labels[start:stop]]
        return block

    core_math._keyed_sums(out.reshape(starts.size * k, dim),
                          owner * k + labels, residuals)
    return out


def vlad_encode(features, codebook: Codebook) -> np.ndarray:
    """VLAD: per-center sums of (feature - center) residuals, concatenated.

    An empty feature set encodes to the zero vector.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.size == 0:
        feats = feats.reshape(0, codebook.dim)
    if feats.ndim != 2 or feats.shape[1] != codebook.dim:
        raise DimensionMismatch(
            f"features of dimension {feats.shape[-1] if feats.ndim else 0} "
            f"do not match codebook dimension {codebook.dim}"
        )
    return _residual_sums(feats, codebook.centers, [0], [len(feats)])[0]


def vlac_encode(lfcs: Codebook, clfc: Codebook) -> np.ndarray:
    """VLAC: :func:`vlad_encode` of the local feature centers against the
    CLFC codebook, an (M * dim) vector."""
    return vlad_encode(lfcs.centers, clfc)


def _vlac_rows(lfcs, points: np.ndarray, clfc: Codebook) -> np.ndarray:
    """The VLAC vector of every window from its LFCs, a (W, M * dim) matrix.

    ``points`` is the windows' LFC centers stacked in order, the matrix the
    CLFC fit clusters, and one :func:`_residual_sums` call sums each
    window's rows of it; row ``w`` is bit-equal to
    ``vlac_encode(lfcs[w], clfc)``.
    """
    counts = np.array([cb.k for cb in lfcs], dtype=np.int64)
    ends = np.cumsum(counts)
    return _residual_sums(points, clfc.centers, ends - counts, ends)


def hp_encode(
    frame_vlads: np.ndarray,
    first_basis: ProjectionBasis,
    second_codebook: Codebook,
    h: int,
) -> np.ndarray:
    """Hyper-pooling of one window from the VLAD rows of its frames:
    project them to d0 dims, quantize on the top ``h`` components against
    the second-stage codebook, and aggregate full-d0 residuals into an
    (alpha2 * d0) vector.
    """
    vectors = pca_project(first_basis, frame_vlads)
    return _residual_sums(vectors, second_codebook.centers, [0],
                          [len(vectors)], assign_dims=h)[0]


def compute_lfcs(
    features: np.ndarray, n: int, seed: int, *,
    draws: tuple[np.ndarray, str] | None = None,
) -> Codebook:
    """Cluster one window's features into local feature centers.

    The center count is min(n, feature count): sparse windows keep one
    center per feature rather than failing. ``draws`` hands the window's
    k-means++ seeding, drawn ahead, to :func:`kmeans_fit`.
    """
    if features.shape[0] == 0:
        raise EmptyGof("a group of frames has no features")
    k = min(int(n), features.shape[0])
    return kmeans_fit(features, k, seed, draws=draws)


def split_gofs(video: Video, params: ModelParams) -> np.ndarray:
    """The first frame of each window of ``params.gof_size`` frames,
    neighbouring windows sharing ``params.overlap`` frames, as int64.

    The stride is ``gof_size - overlap``; a trailing window that cannot be
    filled completely is dropped. Raises DataError for a window whose frame
    indices are not consecutive.
    """
    gof_size = params.gof_size
    starts = np.arange(0, len(video) - gof_size + 1,
                       gof_size - params.overlap, dtype=np.int64)
    # gaps[t]: the breaks in the frame indices up to frame t
    gaps = np.concatenate([[0], np.cumsum(np.diff(video.frame_index) != 1)])
    broken = starts[gaps[starts + gof_size - 1] != gaps[starts]]
    if broken.size:
        first = video.frame_index[broken[0] : broken[0] + gof_size]
        raise DataError(
            f"a group of frames must have consecutive indices, got {first}"
        )
    return starts


def _window_lfcs(video: Video, params: ModelParams) -> list[Codebook]:
    """The LFCs of every window of ``video`` in order, window ``i``
    clustered with ``seed XOR i``.

    Windows with the same feature count share k = min(n, count), so each
    such group draws its k-means++ seeding in lockstep through one
    :func:`kmeans_pp_draws` call; every window is then fitted on its own
    through :func:`compute_lfcs`, in order, so the first window without
    features raises EmptyGof.
    """
    g = params.gof_size
    # widened once, so the seeding and the fits run in float64
    features = video.features.astype(np.float64, copy=False)
    windows = [features[video.rows(s, s + g)]
               for s in split_gofs(video, params)]
    seeds = [params.seed ^ i for i in range(len(windows))]
    groups: dict[int, list[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault(window.shape[0], []).append(i)
    draws = [None] * len(windows)
    for count, members in groups.items():
        k = min(params.n, count)
        if k < 1:
            continue  # compute_lfcs refuses these windows
        drawn = kmeans_pp_draws([windows[i] for i in members], k,
                                [seeds[i] for i in members])
        for i, window_draws in zip(members, drawn):
            draws[i] = window_draws
    return [compute_lfcs(w, params.n, s, draws=d)
            for w, s, d in zip(windows, seeds, draws)]


def _stacked(books, dim: int) -> tuple[np.ndarray, list[Codebook]]:
    """The centers of the codebooks ``books`` stacked in order, a (sum of
    k, ``dim``) matrix ((0, ``dim``) for no codebooks), and the codebooks
    with each one's ``centers`` re-pointed at its rows of that matrix."""
    stack = np.concatenate([cb.centers for cb in books]
                           or [np.empty((0, dim))])
    ends = np.cumsum([cb.k for cb in books], dtype=np.int64).tolist()
    return stack, [replace(cb, centers=stack[end - cb.k : end])
                   for cb, end in zip(books, ends)]


def _l2_normalize(
    x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """``x`` scaled to unit L2 norm along its last axis (a vector, or each
    row of a matrix); zero vectors stay zero. Written into ``out`` if given."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, np.where(norms > 0, norms, 1.0), out=out)


def _fit_basis(rows: np.ndarray, d: int, normalize: bool) -> ProjectionBasis:
    """The d-dim compaction basis over training rows, L2-normalized first
    when ``normalize`` is set.

    ``rows`` must be a float64 matrix the caller built for this fit: it is
    normalized and centered in place.
    """
    if normalize:
        _l2_normalize(rows, out=rows)
    return pca_fit(rows, d)


def _trained(method: str, params: ModelParams, codebook: Codebook,
             rows: np.ndarray, **stages) -> TrainedModel:
    """The ``method`` model every trainer ends with: its primary
    ``codebook``, the d-dim basis fit on ``rows`` (:func:`_fit_basis`,
    which normalizes and centers them in place), the method's other
    ``stages``, and ``f`` set to ``codebook.dim``, the one place the data
    fixes the feature dimension."""
    return TrainedModel(method=method, params=replace(params, f=codebook.dim),
                        codebook=codebook,
                        basis=_fit_basis(rows, params.d, params.normalize),
                        **stages)


def _frame_stage(videos, picks, k: int,
                 seed: int) -> tuple[Codebook, np.ndarray, np.ndarray]:
    """The first stage VLAD and hyper-pooling share: a k-codebook over the
    features of frames ``picks[i]`` of each video ``videos[i]``, pooled in
    order (a frame picked twice pooled twice) into one float64 matrix that
    is dropped once the codebook is fit; the VLAD rows of each distinct
    picked frame, in frame order, summed video by video straight into one
    preallocated matrix; and, for every pick in order, the row that holds
    its frame, so ``np.bincount`` of it counts the windows that pick each
    row. The loops live here, so no loop variable keeps a video alive once
    the caller drops its list."""
    frames = [v.features[v.rows(t, t + 1)]
              for v, pick in zip(videos, picks) for t in pick]
    # no frames pool to no points, which kmeans_fit refuses
    pooled = np.concatenate(frames or [np.empty((0, 0))], dtype=np.float64)
    codebook = kmeans_fit(pooled, k, seed)
    del pooled
    distinct = [np.unique(pick, return_inverse=True) for pick in picks]
    rows = np.empty((sum(len(u) for u, _ in distinct),
                     codebook.k * codebook.dim))
    inverse = []
    end = 0
    for video, (unique, pick_rows) in zip(videos, distinct):
        if len(unique):  # a video with no picks makes no assignment
            _residual_sums(video.features, codebook.centers,
                           video.offsets[unique], video.offsets[unique + 1],
                           out=rows[end : end + len(unique)])
        inverse.append(pick_rows + end)
        end += len(unique)
    return codebook, rows, np.concatenate(inverse)


def train_vlad(videos, params: ModelParams) -> TrainedModel:
    """Fit a VLAD model: a J-codebook over all pooled training features and
    a d-dimensional compaction basis over the per-frame VLAD rows.

    The basis is always fit on per-frame encodings of the training frames,
    but a training set with no full ``gof_size`` window is refused, as
    ``train_vlac`` and ``train_hp`` refuse it: none of its videos could be
    encoded. ``videos`` is consumed once, into a list that is dropped after
    the frame VLAD rows.
    """
    params = params.for_method(METHOD_VLAD)
    videos = list(videos)
    if not any(split_gofs(v, params).size for v in videos):
        raise DataError("train_vlad requires at least one training group")
    codebook, rows, _ = _frame_stage(
        videos, [np.arange(len(v)) for v in videos], params.j, params.seed)
    del videos  # the last use of the features
    return _trained(METHOD_VLAD, params, codebook, rows)


def fit_clfcs(
    videos, params: ModelParams
) -> tuple[Codebook, list[Codebook], np.ndarray]:
    """Two-stage clustering: per-window LFCs, then M centers of LFCs.

    Returns the CLFC codebook, the LFC codebooks of every window of every
    video in order, and their centers stacked in that order, the matrix the
    CLFCs are fit on (both reused to encode the training windows). Each
    window's LFC clustering is seeded with ``seed XOR`` the window's index
    within its video. ``videos`` is gone through once, so each video can
    be dropped as soon as its windows are fit.

    The centers are held once, as rows of the stack: every codebook's
    ``centers`` is a view of its rows of the returned matrix. As each
    video is fit its window centers are stacked into one block and its
    codebooks re-pointed at it (:func:`_stacked`), so the per-window
    arrays are freed video by video; the blocks are then concatenated into
    the stack and dropped before the CLFC fit. The centers exist twice only
    during that one concatenation.
    """
    lfcs = [cb for video in videos
            for cb in _stacked(_window_lfcs(video, params), video.dim)[1]]
    if not lfcs:
        raise DataError("train_vlac requires at least one training group")
    # re-pointed at the stack, the codebooks drop the blocks
    points, lfcs = _stacked(lfcs, lfcs[0].dim)
    return kmeans_fit(points, params.m, params.seed), lfcs, points


def _fit_summary(books) -> dict[str, int]:
    """The fit count, the total Lloyd iterations, the fits that converged,
    the total empty-cluster refills and the fits whose k-means++ seeding
    took the exact fallback, over the fitted codebooks ``books``."""
    return {
        "fits": len(books),
        "iterations": sum(len(b.inertia_history) for b in books),
        "converged": sum(bool(b.converged) for b in books),
        "refills": sum(b.refills for b in books),
        "exact_seeding": sum(b.seeding == "exact" for b in books),
    }


def train_vlac(videos, params: ModelParams) -> TrainedModel:
    """Fit a VLAC model: LFCs per training window, an M-codebook of CLFCs
    over all of them, and a d-dimensional basis over per-window VLAC rows.
    ``videos`` is consumed once, one video at a time (:func:`fit_clfcs`).
    """
    params = params.for_method(METHOD_VLAC)
    clfc, lfcs, points = fit_clfcs(videos, params)
    rows = _vlac_rows(lfcs, points, clfc)
    lfc_fits = _fit_summary(lfcs)
    del lfcs, points  # the last use of the LFC stack
    return _trained(METHOD_VLAC, params, clfc, rows, lfc_fits=lfc_fits)


def train_hp(videos, params: ModelParams) -> TrainedModel:
    """Fit a hyper-pooling model.

    Stages: an alpha1-codebook over the pooled features of the training
    windows; a d0-dim basis over their per-frame VLADs; an alpha2-codebook
    clustered on the top ``h`` projected components (centers extended to
    all d0 dimensions as the mean of their assigned frame vectors, so
    residuals are defined everywhere); and a final d-dim basis over the
    per-window raw vectors, all summed in one :func:`_residual_sums` call.
    Every stage sees the frames window by window, so a frame two windows
    share counts twice: the first codebook pools its features twice, and
    the first basis fits its one VLAD row with weight 2, so ``d0`` may not
    exceed the distinct training frames. ``h`` is clamped to ``d0``.
    ``videos`` is consumed once, into a list that is dropped after the
    frame VLAD rows, before the first basis is fit.
    """
    params = params.for_method(METHOD_HP)
    params = replace(params, h=min(params.h, params.d0))
    d0, alpha2, h, g = params.d0, params.alpha2, params.h, params.gof_size
    videos = list(videos)
    starts = [split_gofs(v, params) for v in videos]
    if not any(s.size for s in starts):
        raise DataError("train_hp requires at least one training group")
    # the frames of each window in order, g per window
    first_codebook, frame_rows, inverse = _frame_stage(
        videos, [np.add.outer(ss, np.arange(g)).ravel() for ss in starts],
        params.alpha1, params.seed)
    del videos  # the last use of the features
    counts = np.bincount(inverse)
    # the fit centers frame_rows and scales each by the root of its count in
    # place, so a plain product and that division project them
    first_basis = pca_fit(frame_rows, d0, weights=counts)
    projected = frame_rows @ first_basis.rows.T
    del frame_rows
    projected /= np.sqrt(counts)[:, None]
    projected = projected[inverse]

    head = kmeans_fit(projected[:, :h], alpha2,
                      params.seed ^ _HP_SECOND_STAGE_SALT)
    labels = nearest_centers(projected[:, :h], head.centers)
    counts = np.bincount(labels, minlength=alpha2)
    sums = cluster_sums(projected, labels, alpha2)
    full_centers = sums / np.maximum(counts, 1)[:, None]
    # a final-iteration tie can leave a cluster empty in full space
    full_centers[counts == 0, :h] = head.centers[counts == 0]
    second_codebook = replace(head, centers=full_centers)

    # one window per GoF over the projection, as _encode_windows sums them
    windows = np.arange(0, projected.shape[0], g)
    rows = _residual_sums(projected, second_codebook.centers, windows,
                          windows + g, assign_dims=h)
    return _trained(METHOD_HP, params, first_codebook, rows,
                    hp_first_basis=first_basis,
                    hp_second_codebook=second_codebook)


def train(method: str, videos, params: ModelParams) -> TrainedModel:
    """Train ``method`` on ``videos``, an iterable of :class:`Video`.

    ``videos`` is consumed once and may be a one-pass iterator; the
    trainer drops it after its last use, so a caller that hands over its
    only reference holds no video while a basis is fit. ``params.f`` is
    not read: the data fixes the feature dimension (:func:`_trained`).
    """
    if method == METHOD_VLAD:
        return train_vlad(videos, params)
    if method == METHOD_VLAC:
        return train_vlac(videos, params)
    if method == METHOD_HP:
        return train_hp(videos, params)
    raise DataError(f"unknown training method {method!r}")


def _encode_windows(video: Video, model: TrainedModel) -> np.ndarray:
    """The raw vector of every window of ``video``, a (G, raw) matrix.

    Each method sums all its windows in one :func:`_residual_sums` call,
    one window per GoF: VLAD over the video's features, VLAC over its
    window LFCs stacked in order, and hyper-pooling over its frame VLAD
    rows projected once to d0 dims, quantized on the top ``h`` components.
    """
    p = model.params
    if model.method == METHOD_VLAC:
        # a video shorter than one window stacks to (0, dim), which the
        # kernel still checks against the CLFC dimension
        points, lfcs = _stacked(_window_lfcs(video, p), video.dim)
        return _vlac_rows(lfcs, points, model.codebook)
    starts = split_gofs(video, p)
    if model.method == METHOD_VLAD:
        return _residual_sums(video.features, model.codebook.centers,
                              video.offsets[starts],
                              video.offsets[starts + p.gof_size])
    # one window per frame: the frame VLAD rows
    frame_vlads = _residual_sums(video.features, model.codebook.centers,
                                 video.offsets[:-1], video.offsets[1:])
    projected = pca_project(model.hp_first_basis, frame_vlads)
    return _residual_sums(projected, model.hp_second_codebook.centers, starts,
                          starts + p.gof_size, assign_dims=p.h)


def encode_video(video: Video, model: TrainedModel) -> np.ndarray:
    """Encode a video into a (G, d) matrix, one row per group of frames.

    Frames are windowed with the model's gof_size/overlap (gof_size 1
    reproduces per-frame operation). :func:`_encode_windows` gives every
    window's raw vector at once; the rows are optionally L2-normalized,
    then projected onto the model's basis in one product. A video shorter
    than one full window yields a (0, d) matrix.
    """
    if len(video) == 0:
        raise EmptyVideo("cannot encode a video with no frames")
    raw = _encode_windows(video, model)
    return pca_project(model.basis,
                       _l2_normalize(raw) if model.params.normalize else raw)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


# The VLACMODL header: version (u16) and method tag (u8), then one u32 per
# ModelParams field in field order (normalize as 0/1).
_MODEL_HEADER = struct.Struct("<HB")
_PARAMS_HEADER = struct.Struct(f"<{len(fields(ModelParams))}I")
_ARRAY_SHAPE = struct.Struct("<II")


def _model_arrays(method: str, p: ModelParams) -> list[tuple[str, str, tuple]]:
    """Each array a ``method`` model stores, as (TrainedModel attribute,
    part, shape) in file order. Vectors are stored as one row and a k-means
    inertia as a 1x1 array; the shapes follow from the parameters."""
    k = {METHOD_VLAD: p.j, METHOD_VLAC: p.m, METHOD_HP: p.alpha1}[method]
    arrays = [("codebook", "centers", (k, p.f)), ("codebook", "inertia", (1, 1))]
    if method != METHOD_HP:
        return arrays + _basis_arrays("basis", p.d, k * p.f)
    return (
        arrays
        + _basis_arrays("hp_first_basis", p.d0, k * p.f)
        + [("hp_second_codebook", "centers", (p.alpha2, p.d0)),
           ("hp_second_codebook", "inertia", (1, 1))]
        + _basis_arrays("basis", p.d, p.alpha2 * p.d0)
    )


def _basis_arrays(name: str, d: int, width: int) -> list[tuple[str, str, tuple]]:
    return [(name, "rows", (d, width)), (name, "mean", (1, width)),
            (name, "eigenvalues", (1, d))]


def _check_shape(shape, expected: tuple, what: str) -> None:
    if tuple(shape) != expected:
        raise DataError(
            f"{what} has shape {tuple(shape)}, the parameters imply {expected}"
        )


def save_model(
    model: TrainedModel, path, *, overwrite: bool = False
) -> dict[str, float]:
    """Write a model to the VLACMODL binary format.

    ``model``'s constructor checked the stored-model rules, so only an array
    of the wrong shape or a value float32 cannot hold fails, as DataError.
    Returns the largest float32 rounding error of each stored array,
    ``|stored - value|``, keyed ``attribute.part`` in file order.
    """
    errors = {}
    with atomic_write(path, overwrite=overwrite) as fh:
        tag = METHOD_TAGS[model.method]
        fh.write(_MODEL_MAGIC + _MODEL_HEADER.pack(_MODEL_VERSION, tag))
        fh.write(_PARAMS_HEADER.pack(*astuple(model.params)))
        for name, part, shape in _model_arrays(model.method, model.params):
            arr = np.atleast_2d(getattr(getattr(model, name), part))
            what = f"{path} {name}.{part}"
            _check_shape(arr.shape, shape, what)
            data = f32_bytes(arr, what)
            fh.write(_ARRAY_SHAPE.pack(*shape) + data)
            stored = np.frombuffer(data, dtype="<f4").reshape(shape)
            errors[f"{name}.{part}"] = float(
                np.abs(stored - arr).max(initial=0.0))
    return errors


def load_model(path) -> TrainedModel:
    """Read a model written by :func:`save_model`.

    Array values come back as float64 holding exactly the stored float32
    values, so saving a loaded model reproduces the file bit for bit. A
    header that :class:`ModelParams` or :class:`TrainedModel` refuses fails
    as DataError naming the file.
    """
    reader = Reader(path, _MODEL_MAGIC)
    version, tag = reader.unpack(_MODEL_HEADER, "the header")
    if version != _MODEL_VERSION:
        raise DataError(f"unsupported model version {version}")
    if tag not in TAG_METHODS:
        raise DataError(f"unknown method tag {tag}")
    method = TAG_METHODS[tag]
    header = reader.unpack(_PARAMS_HEADER, "the header")
    try:
        # normalize reads as bool only from 0 or 1; another u32 stays an
        # int, which ModelParams refuses, so every loaded file round-trips
        params = ModelParams(*(
            bool(value) if _field_kind(fld) is bool and value in (0, 1)
            else value
            for fld, value in zip(fields(ModelParams), header)))
    except DataError as exc:
        raise DataError(f"{path} header: {exc}") from exc
    stages: dict[str, dict[str, np.ndarray]] = {}
    for name, part, shape in _model_arrays(method, params):
        what = f"{name}.{part}"
        _check_shape(reader.unpack(_ARRAY_SHAPE, what), shape, f"{path} {what}")
        stages.setdefault(name, {})[part] = reader.f32(*shape, what)
    reader.end()
    try:
        return TrainedModel(method=method, params=params, **{
            name: _stage(arrays) for name, arrays in stages.items()
        })
    except DataError as exc:
        raise DataError(f"{path} header: {exc}") from exc


def _stage(arrays: dict[str, np.ndarray]):
    """The Codebook or ProjectionBasis stored as ``arrays``."""
    if "centers" in arrays:
        return Codebook(centers=arrays["centers"],
                        inertia=float(arrays["inertia"][0, 0]))
    return ProjectionBasis(rows=arrays["rows"], mean=arrays["mean"][0],
                           eigenvalues=arrays["eigenvalues"][0])
