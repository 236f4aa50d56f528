"""VLAD, VLAC and hyper-pooling encoders plus their training procedures.

All three encoders aggregate nearest-center residuals. The residual kernel
uses compensated (Kahan) summation in input order, so permuting features
never moves an output by more than ~1e-9. VLAC is structurally the VLAD
kernel applied to per-window local feature centers (LFCs) instead of raw
features; both encoders literally share the kernel, so
``vlac_encode(lfcs, c).values`` is bit-identical to
``vlad_encode(lfcs.centers, c).values``.

Model files use the ``VLACMODL`` binary layout: magic, version (u16),
method tag (u8), one u32 per :class:`ModelParams` field in field order,
then each array as u32 row/col headers followed by little-endian float32
data. Saving a loaded model reproduces the file byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

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
    BadMagic,
    DataError,
    DimensionMismatch,
    EmptyGof,
    EmptyVideo,
    TruncatedFile,
    UntrainedModel,
)

METHOD_VLAD = "vlad"
METHOD_VLAC = "vlac"
METHOD_HP = "hp"
METHODS = (METHOD_VLAD, METHOD_VLAC, METHOD_HP)

METHOD_TAGS = {METHOD_VLAD: 1, METHOD_VLAC: 2, METHOD_HP: 3}
_TAG_METHODS = {v: k for k, v in METHOD_TAGS.items()}

# Mixed into the model seed for the hyper-pooling second clustering stage
# so it never reuses the first-stage initialization stream.
_HP_SECOND_STAGE_SALT = 0x5F3759DF

_MODEL_MAGIC = b"VLACMODL"
_MODEL_VERSION = 1
_SEED_LIMIT = 2**32  # seeds are persisted as u32 in model files


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
class RawDescriptor:
    """A pre-compaction aggregated vector of ``blocks * block_dim`` values."""

    values: np.ndarray
    method: str
    blocks: int
    block_dim: int
    normalized: bool = False


@dataclass(frozen=True)
class CompactDescriptor:
    """A d-dimensional descriptor of one group of frames."""

    values: np.ndarray
    method: str
    gof_index: int


@dataclass(frozen=True)
class ModelParams:
    """Every training/encoding parameter, persisted with the model.

    This is the one parameter schema: the CLI derives its flags and config
    keys from these fields, and the field order is the VLACMODL header
    layout. Fields unused by a method stay 0; ``h`` is the number of leading
    projected components hyper-pooling quantizes on. An int field's
    ``metadata["min"]`` is the least value a run may configure (default 1).
    """

    f: int
    j: int = 0
    n: int = 0
    m: int = 0
    d: int = 0
    d0: int = 0
    alpha1: int = 0
    alpha2: int = 0
    h: int = 0
    gof_size: int = 5
    overlap: int = field(default=1, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    normalize: bool = False


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


def vlad_encode(features, codebook: Codebook) -> RawDescriptor:
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
    blocks = _aggregate_residuals(feats, codebook.centers)
    return RawDescriptor(
        values=blocks.ravel(),
        method=METHOD_VLAD,
        blocks=codebook.k,
        block_dim=codebook.dim,
    )


def vlac_encode(lfcs: Codebook, clfc: Codebook) -> RawDescriptor:
    """VLAC: the VLAD kernel applied to local feature centers.

    Each LFC is quantized against the CLFC codebook and its residual
    accumulated, giving an (M * dim) vector.
    """
    if lfcs.dim != clfc.dim:
        raise DimensionMismatch(
            f"LFC dimension {lfcs.dim} does not match CLFC dimension {clfc.dim}"
        )
    blocks = _aggregate_residuals(lfcs.centers, clfc.centers)
    return RawDescriptor(
        values=blocks.ravel(),
        method=METHOD_VLAC,
        blocks=clfc.k,
        block_dim=clfc.dim,
    )


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


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"model seeds must fit in u32, got {seed}")
    return seed


def _maybe_normalize(raw: RawDescriptor, flag: bool) -> RawDescriptor:
    if not flag:
        return raw
    norm = float(np.linalg.norm(raw.values))
    values = raw.values / norm if norm > 0 else raw.values
    return replace(raw, values=values, normalized=True)


def _fit_basis(rows: np.ndarray, d: int, normalize: bool) -> ProjectionBasis:
    """The d-dim compaction basis over training rows, L2-normalized first
    when ``normalize`` is set (zero rows stay zero)."""
    if normalize:
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows / np.where(norms > 0, norms, 1.0)
    return pca_fit(rows, d)


def train_vlad(
    training_frames,
    j: int,
    d: int,
    seed: int,
    *,
    gof_size: int = 5,
    overlap: int = 1,
    normalize: bool = False,
) -> TrainedModel:
    """Fit a VLAD model: a J-codebook over all pooled training features and
    a d-dimensional compaction basis over the per-frame VLAD rows.

    ``gof_size``/``overlap`` only parameterize later encoding; the basis is
    always fit on per-frame encodings of the training frames.
    """
    seed = _check_seed(seed)
    frames = list(training_frames)
    pooled = stack_features(frames)
    codebook = kmeans_fit(pooled, j, seed)
    rows = np.stack(
        [vlad_encode(f.features, codebook).values for f in frames]
    )
    basis = _fit_basis(rows, d, normalize)
    params = ModelParams(
        f=codebook.dim,
        j=j,
        d=d,
        gof_size=gof_size,
        overlap=overlap,
        seed=seed,
        normalize=normalize,
    )
    return TrainedModel(
        method=METHOD_VLAD, params=params, codebook=codebook, basis=basis
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


def train_vlac(
    training_gofs,
    n: int,
    m: int,
    d: int,
    seed: int,
    *,
    gof_size: int = 5,
    overlap: int = 1,
    normalize: bool = False,
) -> TrainedModel:
    """Fit a VLAC model: LFCs per training window, an M-codebook of CLFCs
    over all of them, and a d-dimensional basis over per-window VLAC rows.
    """
    seed = _check_seed(seed)
    gofs = list(training_gofs)
    clfc, lfcs = fit_clfcs(gofs, n, m, seed)
    rows = np.stack([vlac_encode(cb, clfc).values for cb in lfcs])
    basis = _fit_basis(rows, d, normalize)
    params = ModelParams(
        f=clfc.dim,
        n=n,
        m=m,
        d=d,
        gof_size=gof_size,
        overlap=overlap,
        seed=seed,
        normalize=normalize,
    )
    return TrainedModel(
        method=METHOD_VLAC, params=params, codebook=clfc, basis=basis
    )


def _hp_frame_vectors(
    frames,
    first_codebook: Codebook,
    first_basis: ProjectionBasis,
) -> np.ndarray:
    """Per-frame VLADs projected onto the first-stage basis, (W, d0)."""
    rows = np.stack(
        [vlad_encode(f.features, first_codebook).values for f in frames]
    )
    return pca_project(first_basis, rows)


def _hp_raw(
    gof: GroupOfFrames,
    first_codebook: Codebook,
    first_basis: ProjectionBasis,
    second_codebook: Codebook,
    h: int,
) -> RawDescriptor:
    vectors = _hp_frame_vectors(gof.frames, first_codebook, first_basis)
    blocks = _aggregate_residuals(
        vectors, second_codebook.centers, assign_dims=h
    )
    return RawDescriptor(
        values=blocks.ravel(),
        method=METHOD_HP,
        blocks=second_codebook.k,
        block_dim=second_codebook.dim,
    )


def hp_encode(gof: GroupOfFrames, model: TrainedModel) -> RawDescriptor:
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


def train_hp(
    training_gofs,
    alpha1: int,
    d0: int,
    alpha2: int,
    d: int,
    seed: int,
    *,
    h: int = 64,
    gof_size: int = 5,
    overlap: int = 1,
    normalize: bool = False,
) -> TrainedModel:
    """Fit a hyper-pooling model.

    Stages: an alpha1-codebook over pooled training features; a d0-dim
    basis over per-frame VLADs; an alpha2-codebook clustered on the top
    ``h`` projected components (centers extended to all d0 dimensions as
    the mean of their assigned frame vectors, so residuals are defined
    everywhere); and a final d-dim basis over the per-window raw vectors.
    """
    seed = _check_seed(seed)
    gofs = list(training_gofs)
    if not gofs:
        raise DataError("train_hp requires at least one training group")
    frames = [f for g in gofs for f in g.frames]
    pooled = stack_features(frames)
    first_codebook = kmeans_fit(pooled, alpha1, seed)
    frame_rows = np.stack(
        [vlad_encode(f.features, first_codebook).values for f in frames]
    )
    first_basis = pca_fit(frame_rows, d0)
    projected = pca_project(first_basis, frame_rows)

    h_eff = min(int(h), d0)
    second_seed = (seed ^ _HP_SECOND_STAGE_SALT) % _SEED_LIMIT
    head = kmeans_fit(projected[:, :h_eff], alpha2, second_seed)
    labels = nearest_centers(projected[:, :h_eff], head.centers)
    full_centers = np.zeros((alpha2, d0), dtype=np.float64)
    for c in range(alpha2):
        members = projected[labels == c]
        if members.shape[0] > 0:
            full_centers[c] = members.mean(axis=0)
        else:
            # final-iteration tie left the cluster empty in full space
            full_centers[c, :h_eff] = head.centers[c]
    second_codebook = Codebook(
        centers=full_centers,
        k=alpha2,
        seed=second_seed,
        inertia=head.inertia,
        inertia_history=head.inertia_history,
    )

    rows = np.stack(
        [
            _hp_raw(g, first_codebook, first_basis, second_codebook, h_eff).values
            for g in gofs
        ]
    )
    basis = _fit_basis(rows, d, normalize)
    params = ModelParams(
        f=first_codebook.dim,
        d=d,
        d0=d0,
        alpha1=alpha1,
        alpha2=alpha2,
        h=h_eff,
        gof_size=gof_size,
        overlap=overlap,
        seed=seed,
        normalize=normalize,
    )
    return TrainedModel(
        method=METHOD_HP,
        params=params,
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
    shared = dict(gof_size=params.gof_size, overlap=params.overlap,
                  normalize=params.normalize)
    if method == METHOD_VLAD:
        frames = [f for video in videos for f in video]
        return train_vlad(frames, params.j, params.d, params.seed, **shared)
    if method not in METHODS:
        raise DataError(f"unknown training method {method!r}")
    gofs = [
        g
        for video in videos
        for g in split_gofs(video, params.gof_size, params.overlap)
    ]
    if method == METHOD_VLAC:
        return train_vlac(gofs, params.n, params.m, params.d, params.seed,
                          **shared)
    return train_hp(gofs, params.alpha1, params.d0, params.alpha2, params.d,
                    params.seed, h=params.h, **shared)


def _encode_gof_raw(gof: GroupOfFrames, model: TrainedModel) -> RawDescriptor:
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


def encode_video(
    video_frames, model: TrainedModel
) -> list[CompactDescriptor]:
    """Encode a video into one compact descriptor per group of frames.

    Frames are windowed with the model's gof_size/overlap (gof_size 1
    reproduces per-frame operation); each window is encoded with the
    model's method, optionally L2-normalized, then projected onto the
    model's basis. A video shorter than one full window yields an empty
    list.
    """
    frames = list(video_frames)
    if not frames:
        raise EmptyVideo("cannot encode a video with no frames")
    descriptors = []
    for gof in split_gofs(frames, model.params.gof_size, model.params.overlap):
        raw = _maybe_normalize(_encode_gof_raw(gof, model), model.params.normalize)
        descriptors.append(
            CompactDescriptor(
                values=pca_project(model.basis, raw.values),
                method=model.method,
                gof_index=gof.gof_index,
            )
        )
    return descriptors


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def _write_array(fh, arr: np.ndarray) -> None:
    mat = np.atleast_2d(np.asarray(arr, dtype=np.float32))
    fh.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
    fh.write(mat.astype("<f4").tobytes(order="C"))


def _read_array(fh, path) -> np.ndarray:
    header = fh.read(8)
    if len(header) != 8:
        raise TruncatedFile(f"model file {path} ended early")
    rows, cols = struct.unpack("<II", header)
    payload = fh.read(rows * cols * 4)
    if len(payload) != rows * cols * 4:
        raise TruncatedFile(f"model file {path} ended early")
    return (
        np.frombuffer(payload, dtype="<f4")
        .reshape(rows, cols)
        .astype(np.float64)
    )


# The VLACMODL header: one u32 per ModelParams field, in field order
# (normalize as 0/1).
_PARAMS_HEADER = struct.Struct(f"<{len(fields(ModelParams))}I")


def save_model(model: TrainedModel, path, *, overwrite: bool = False) -> None:
    """Write a model to the VLACMODL binary format."""
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} exists; pass overwrite=True to replace")
    p = model.params
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<H", _MODEL_VERSION))
        fh.write(struct.pack("<B", METHOD_TAGS[model.method]))
        fh.write(_PARAMS_HEADER.pack(*astuple(p)))
        _write_array(fh, model.codebook.centers)
        _write_array(fh, np.array([[model.codebook.inertia]]))
        if model.method == METHOD_HP:
            fb = model.hp_first_basis
            _write_array(fh, fb.rows)
            _write_array(fh, fb.mean)
            _write_array(fh, fb.eigenvalues)
            _write_array(fh, model.hp_second_codebook.centers)
            _write_array(fh, np.array([[model.hp_second_codebook.inertia]]))
        _write_array(fh, model.basis.rows)
        _write_array(fh, model.basis.mean)
        _write_array(fh, model.basis.eigenvalues)


def load_model(path) -> TrainedModel:
    """Read a model written by :func:`save_model`.

    Array values come back as float64 holding exactly the stored float32
    values, so saving a loaded model reproduces the file bit for bit.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MODEL_MAGIC:
            raise BadMagic(f"{path} is not a VLACMODL file")
        header = fh.read(3)
        if len(header) != 3:
            raise TruncatedFile(f"model file {path} ended early")
        version, tag = struct.unpack("<HB", header)
        if version != _MODEL_VERSION:
            raise DataError(f"unsupported model version {version}")
        if tag not in _TAG_METHODS:
            raise DataError(f"unknown method tag {tag}")
        method = _TAG_METHODS[tag]
        raw = fh.read(_PARAMS_HEADER.size)
        if len(raw) != _PARAMS_HEADER.size:
            raise TruncatedFile(f"model file {path} ended early")
        params = ModelParams(*_PARAMS_HEADER.unpack(raw))
        params = replace(params, normalize=bool(params.normalize))
        centers = _read_array(fh, path)
        inertia = float(_read_array(fh, path)[0, 0])
        codebook = Codebook(
            centers=centers, k=centers.shape[0], seed=params.seed,
            inertia=inertia,
        )
        hp_first_basis = None
        hp_second_codebook = None
        if method == METHOD_HP:
            rows = _read_array(fh, path)
            mean = _read_array(fh, path)[0]
            eig = _read_array(fh, path)[0]
            hp_first_basis = ProjectionBasis(rows=rows, mean=mean, eigenvalues=eig)
            sc = _read_array(fh, path)
            s_inertia = float(_read_array(fh, path)[0, 0])
            hp_second_codebook = Codebook(
                centers=sc,
                k=sc.shape[0],
                seed=(params.seed ^ _HP_SECOND_STAGE_SALT) % _SEED_LIMIT,
                inertia=s_inertia,
            )
        rows = _read_array(fh, path)
        mean = _read_array(fh, path)[0]
        eig = _read_array(fh, path)[0]
        basis = ProjectionBasis(rows=rows, mean=mean, eigenvalues=eig)
        if fh.read(1):
            raise DataError(f"model file {path} has trailing bytes")
    return TrainedModel(
        method=method,
        params=params,
        codebook=codebook,
        basis=basis,
        hp_first_basis=hp_first_basis,
        hp_second_codebook=hp_second_codebook,
    )
