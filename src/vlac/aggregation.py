"""VLAD, VLAC and hyper-pooling encoders plus their training procedures.

All three encoders aggregate nearest-center residuals. The residual kernel
uses compensated (Kahan) summation in input order, so permuting features
never moves an output by more than ~1e-9. VLAC is structurally the VLAD
kernel applied to per-window local feature centers (LFCs) instead of raw
features; both encoders literally share the kernel, so
``vlac_encode(lfcs, c)`` equals ``vlad_encode(lfcs.centers, c)`` element
for element. Every encoder returns a plain float64 NumPy vector, and
:func:`encode_video` a (G, d) matrix.

Each trainer takes the data and one :class:`ModelParams`; the field
metadata records which method reads which field.

A model file (``VLACMODL``) holds the magic, version (u16), method tag
(u8) and one u32 per :class:`ModelParams` field in field order, then the
arrays :func:`_model_arrays` lists, each as rows and cols (u32) and
rows*cols float32 values. The parameters fix every array's shape. The
checks and the float32 codec live in :mod:`vlac.fileio`; saving a loaded
model reproduces the file byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .core_math import (
    Codebook,
    ProjectionBasis,
    kmeans_fit,
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
class FrameFeatures:
    """Local descriptors of one frame: a (count, dim) float64 array."""

    frame_index: int
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionMismatch(
                f"frame features must be 2-D (count, dim), got {feats.ndim}-D"
            )
        object.__setattr__(self, "features", feats)

    @property
    def count(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class GroupOfFrames:
    """A fixed-size temporal window of consecutive frames."""

    gof_index: int
    frames: tuple[FrameFeatures, ...]

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise DataError("a group of frames must contain frames")
        for prev, cur in zip(frames, frames[1:]):
            if cur.frame_index != prev.frame_index + 1:
                raise DataError(
                    "group frames must have consecutive indices, got "
                    f"{prev.frame_index} then {cur.frame_index}"
                )
        object.__setattr__(self, "frames", frames)


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
    for the other methods.
    """

    method: str
    params: ModelParams
    codebook: Codebook
    basis: ProjectionBasis
    hp_first_basis: ProjectionBasis | None = None
    hp_second_codebook: Codebook | None = None


def _aggregate_residuals(
    points: np.ndarray, centers: np.ndarray, *, assign_dims: int | None = None
) -> np.ndarray:
    """Sum (point - nearest center) into per-center blocks.

    Shared by every encoder. Accumulation is Kahan-compensated in input
    order; ``assign_dims`` restricts the nearest-center search to the
    leading components while residuals always span all components.
    """
    k, dim = centers.shape
    acc = np.zeros((k, dim), dtype=np.float64)
    comp = np.zeros((k, dim), dtype=np.float64)
    if points.shape[0] == 0:
        return acc
    assign = nearest_centers(points, centers, use_dims=assign_dims)
    for i in range(points.shape[0]):
        j = assign[i]
        y = (points[i] - centers[j]) - comp[j]
        t = acc[j] + y
        comp[j] = (t - acc[j]) - y
        acc[j] = t
    return acc


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
    return _aggregate_residuals(feats, codebook.centers).ravel()


def vlac_encode(lfcs: Codebook, clfc: Codebook) -> np.ndarray:
    """VLAC: the VLAD kernel applied to local feature centers.

    Each LFC is quantized against the CLFC codebook and its residual
    accumulated, giving an (M * dim) vector.
    """
    if lfcs.dim != clfc.dim:
        raise DimensionMismatch(
            f"LFC dimension {lfcs.dim} does not match CLFC dimension {clfc.dim}"
        )
    return _aggregate_residuals(lfcs.centers, clfc.centers).ravel()


def compute_lfcs(gof: GroupOfFrames, n: int, seed: int) -> Codebook:
    """Cluster the window's pooled features into local feature centers.

    The center count is min(n, pooled count): sparse windows keep one
    center per feature rather than failing.
    """
    pooled = stack_features(gof.frames)
    if pooled.shape[0] == 0:
        raise EmptyGof(f"group {gof.gof_index} has no features")
    k = min(int(n), pooled.shape[0])
    return kmeans_fit(pooled, k, seed)


def split_gofs(
    frames, gof_size: int, overlap: int
) -> list[GroupOfFrames]:
    """Window frames into groups of ``gof_size`` with ``overlap`` shared frames.

    The stride is ``gof_size - overlap``; a trailing window that cannot be
    filled completely is dropped.
    """
    if gof_size < 1:
        raise ValueError(f"gof_size must be >= 1, got {gof_size}")
    if not 0 <= overlap < gof_size:
        raise ValueError(
            f"overlap must satisfy 0 <= overlap < gof_size, got {overlap}"
        )
    frames = list(frames)
    stride = gof_size - overlap
    gofs = []
    start = 0
    while start + gof_size <= len(frames):
        gofs.append(
            GroupOfFrames(
                gof_index=len(gofs),
                frames=tuple(frames[start : start + gof_size]),
            )
        )
        start += stride
    return gofs


def stack_features(frames) -> np.ndarray:
    """All features of all frames stacked into one (total, dim) array."""
    dims = {f.dim for f in frames}
    if len(dims) > 1:
        raise DimensionMismatch(f"frames mix feature dimensions {sorted(dims)}")
    parts = [f.features for f in frames if f.count > 0]
    if not parts:
        dim = dims.pop() if dims else 0
        return np.empty((0, dim), dtype=np.float64)
    return np.concatenate(parts, axis=0)


def _maybe_normalize(raw: np.ndarray, flag: bool) -> np.ndarray:
    if not flag:
        return raw
    norm = float(np.linalg.norm(raw))
    return raw / norm if norm > 0 else raw


def _fit_basis(rows: np.ndarray, d: int, normalize: bool) -> ProjectionBasis:
    """The d-dim compaction basis over training rows, L2-normalized first
    when ``normalize`` is set (zero rows stay zero)."""
    if normalize:
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows / np.where(norms > 0, norms, 1.0)
    return pca_fit(rows, d)


def train_vlad(training_frames, params: ModelParams) -> TrainedModel:
    """Fit a VLAD model: a J-codebook over all pooled training features and
    a d-dimensional compaction basis over the per-frame VLAD rows.

    ``gof_size``/``overlap`` only parameterize later encoding; the basis is
    always fit on per-frame encodings of the training frames.
    """
    params = params.for_method(METHOD_VLAD)
    frames = list(training_frames)
    pooled = stack_features(frames)
    codebook = kmeans_fit(pooled, params.j, params.seed)
    rows = np.stack([vlad_encode(f.features, codebook) for f in frames])
    basis = _fit_basis(rows, params.d, params.normalize)
    return TrainedModel(
        method=METHOD_VLAD,
        params=replace(params, f=codebook.dim),
        codebook=codebook,
        basis=basis,
    )


def fit_clfcs(
    training_gofs, n: int, m: int, seed: int
) -> tuple[Codebook, list[Codebook]]:
    """Two-stage clustering: per-window LFCs, then M centers of LFCs.

    Returns the CLFC codebook together with the per-window LFC codebooks
    (reused to encode the training windows). Each window's LFC clustering
    is seeded with ``seed XOR gof_index``.
    """
    gofs = list(training_gofs)
    if not gofs:
        raise DataError("train_vlac requires at least one training group")
    lfcs = [compute_lfcs(g, n, seed ^ g.gof_index) for g in gofs]
    all_centers = np.concatenate([cb.centers for cb in lfcs], axis=0)
    clfc = kmeans_fit(all_centers, m, seed)
    return clfc, lfcs


def train_vlac(training_gofs, params: ModelParams) -> TrainedModel:
    """Fit a VLAC model: LFCs per training window, an M-codebook of CLFCs
    over all of them, and a d-dimensional basis over per-window VLAC rows.
    """
    params = params.for_method(METHOD_VLAC)
    clfc, lfcs = fit_clfcs(training_gofs, params.n, params.m, params.seed)
    rows = np.stack([vlac_encode(cb, clfc) for cb in lfcs])
    basis = _fit_basis(rows, params.d, params.normalize)
    return TrainedModel(
        method=METHOD_VLAC,
        params=replace(params, f=clfc.dim),
        codebook=clfc,
        basis=basis,
    )


def _hp_frame_vectors(
    frames,
    first_codebook: Codebook,
    first_basis: ProjectionBasis,
) -> np.ndarray:
    """Per-frame VLADs projected onto the first-stage basis, (W, d0)."""
    rows = np.stack([vlad_encode(f.features, first_codebook) for f in frames])
    return pca_project(first_basis, rows)


def _hp_raw(
    gof: GroupOfFrames,
    first_codebook: Codebook,
    first_basis: ProjectionBasis,
    second_codebook: Codebook,
    h: int,
) -> np.ndarray:
    vectors = _hp_frame_vectors(gof.frames, first_codebook, first_basis)
    return _aggregate_residuals(
        vectors, second_codebook.centers, assign_dims=h
    ).ravel()


def hp_encode(gof: GroupOfFrames, model: TrainedModel) -> np.ndarray:
    """Hyper-pooling: VLAD each frame, project to d0 dims, quantize on the
    top ``h`` components against the second-stage codebook, and aggregate
    full-d0 residuals into an (alpha2 * d0) vector.
    """
    if model.method != METHOD_HP:
        raise UntrainedModel(
            f"hp_encode needs a hyper-pooling model, got {model.method!r}"
        )
    if model.hp_first_basis is None or model.hp_second_codebook is None:
        raise UntrainedModel("model is missing its hyper-pooling stages")
    return _hp_raw(
        gof,
        model.codebook,
        model.hp_first_basis,
        model.hp_second_codebook,
        model.params.h,
    )


def train_hp(training_gofs, params: ModelParams) -> TrainedModel:
    """Fit a hyper-pooling model.

    Stages: an alpha1-codebook over pooled training features; a d0-dim
    basis over per-frame VLADs; an alpha2-codebook clustered on the top
    ``h`` projected components (centers extended to all d0 dimensions as
    the mean of their assigned frame vectors, so residuals are defined
    everywhere); and a final d-dim basis over the per-window raw vectors.
    ``h`` is clamped to ``d0``.
    """
    params = params.for_method(METHOD_HP)
    params = replace(params, h=min(params.h, params.d0))
    d0, alpha2, h = params.d0, params.alpha2, params.h
    gofs = list(training_gofs)
    if not gofs:
        raise DataError("train_hp requires at least one training group")
    frames = [f for g in gofs for f in g.frames]
    pooled = stack_features(frames)
    first_codebook = kmeans_fit(pooled, params.alpha1, params.seed)
    frame_rows = np.stack(
        [vlad_encode(f.features, first_codebook) for f in frames]
    )
    first_basis = pca_fit(frame_rows, d0)
    projected = pca_project(first_basis, frame_rows)

    second_seed = params.seed ^ _HP_SECOND_STAGE_SALT
    head = kmeans_fit(projected[:, :h], alpha2, second_seed)
    labels = nearest_centers(projected[:, :h], head.centers)
    full_centers = np.zeros((alpha2, d0), dtype=np.float64)
    for c in range(alpha2):
        members = projected[labels == c]
        if members.shape[0] > 0:
            full_centers[c] = members.mean(axis=0)
        else:
            # final-iteration tie left the cluster empty in full space
            full_centers[c, :h] = head.centers[c]
    second_codebook = Codebook(
        centers=full_centers,
        k=alpha2,
        seed=second_seed,
        inertia=head.inertia,
        inertia_history=head.inertia_history,
    )

    rows = np.stack(
        [_hp_raw(g, first_codebook, first_basis, second_codebook, h)
         for g in gofs]
    )
    basis = _fit_basis(rows, params.d, params.normalize)
    return TrainedModel(
        method=METHOD_HP,
        params=replace(params, f=first_codebook.dim),
        codebook=first_codebook,
        basis=basis,
        hp_first_basis=first_basis,
        hp_second_codebook=second_codebook,
    )


def train(method: str, videos, params: ModelParams) -> TrainedModel:
    """Train ``method`` on ``videos``, each a sequence of FrameFeatures.

    VLAD trains on all frames; VLAC and hyper-pooling on each video's groups
    of frames. ``params.f`` is not read: the data fixes the feature
    dimension.
    """
    if method == METHOD_VLAD:
        return train_vlad([f for video in videos for f in video], params)
    if method not in METHODS:
        raise DataError(f"unknown training method {method!r}")
    gofs = [
        g
        for video in videos
        for g in split_gofs(video, params.gof_size, params.overlap)
    ]
    if method == METHOD_VLAC:
        return train_vlac(gofs, params)
    return train_hp(gofs, params)


def _encode_gof_raw(gof: GroupOfFrames, model: TrainedModel) -> np.ndarray:
    if model.method == METHOD_VLAD:
        return vlad_encode(stack_features(gof.frames), model.codebook)
    if model.method == METHOD_VLAC:
        lfcs = compute_lfcs(
            gof, model.params.n, model.params.seed ^ gof.gof_index
        )
        return vlac_encode(lfcs, model.codebook)
    if model.method == METHOD_HP:
        return hp_encode(gof, model)
    raise UntrainedModel(f"unknown model method {model.method!r}")


def encode_video(video_frames, model: TrainedModel) -> np.ndarray:
    """Encode a video into a (G, d) matrix, one row per group of frames.

    Frames are windowed with the model's gof_size/overlap (gof_size 1
    reproduces per-frame operation); each window is encoded with the
    model's method, optionally L2-normalized, then projected onto the
    model's basis. A video shorter than one full window yields a (0, d)
    matrix.
    """
    frames = list(video_frames)
    if not frames:
        raise EmptyVideo("cannot encode a video with no frames")
    rows = [
        pca_project(
            model.basis,
            _maybe_normalize(_encode_gof_raw(gof, model), model.params.normalize),
        )
        for gof in split_gofs(frames, model.params.gof_size, model.params.overlap)
    ]
    if not rows:
        return np.empty((0, model.basis.rows.shape[0]), dtype=np.float64)
    return np.stack(rows)


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


def save_model(model: TrainedModel, path, *, overwrite: bool = False) -> None:
    """Write a model to the VLACMODL binary format."""
    with atomic_write(path, overwrite=overwrite) as fh:
        tag = METHOD_TAGS[model.method]
        fh.write(_MODEL_MAGIC + _MODEL_HEADER.pack(_MODEL_VERSION, tag))
        fh.write(_PARAMS_HEADER.pack(*astuple(model.params)))
        for name, part, shape in _model_arrays(model.method, model.params):
            arr = np.atleast_2d(getattr(getattr(model, name), part))
            what = f"{path} {name}.{part}"
            _check_shape(arr.shape, shape, what)
            fh.write(_ARRAY_SHAPE.pack(*shape) + f32_bytes(arr, what))


def load_model(path) -> TrainedModel:
    """Read a model written by :func:`save_model`.

    Array values come back as float64 holding exactly the stored float32
    values, so saving a loaded model reproduces the file bit for bit.
    """
    reader = Reader(path, _MODEL_MAGIC)
    version, tag = reader.unpack(_MODEL_HEADER, "the header")
    if version != _MODEL_VERSION:
        raise DataError(f"unsupported model version {version}")
    if tag not in TAG_METHODS:
        raise DataError(f"unknown method tag {tag}")
    method = TAG_METHODS[tag]
    params = ModelParams(*(
        _field_kind(fld)(value)
        for fld, value in zip(
            fields(ModelParams), reader.unpack(_PARAMS_HEADER, "the header")
        )
    ))
    stages: dict[str, dict[str, np.ndarray]] = {}
    for name, part, shape in _model_arrays(method, params):
        what = f"{name}.{part}"
        _check_shape(reader.unpack(_ARRAY_SHAPE, what), shape, f"{path} {what}")
        stages.setdefault(name, {})[part] = reader.f32(*shape, what)
    reader.end()
    seeds = {"hp_second_codebook": params.seed ^ _HP_SECOND_STAGE_SALT}
    return TrainedModel(method=method, params=params, **{
        name: _stage(arrays, seeds.get(name, params.seed))
        for name, arrays in stages.items()
    })


def _stage(arrays: dict[str, np.ndarray], seed: int):
    """The Codebook or ProjectionBasis stored as ``arrays``."""
    if "centers" in arrays:
        centers = arrays["centers"]
        return Codebook(centers=centers, k=centers.shape[0], seed=seed,
                        inertia=float(arrays["inertia"][0, 0]))
    return ProjectionBasis(rows=arrays["rows"], mean=arrays["mean"][0],
                           eigenvalues=arrays["eigenvalues"][0])
