"""Feature files, manifests, synthetic data and feature perturbation.

Every function here takes or returns a video as one :class:`Video`: the
features of all its frames in one (total, dim) matrix plus each frame's
index and row offset.

A feature file (``VLACFEAT``) holds the magic, version (u16), feature
dimension (u32) and frame count (u32), then per frame its frame_index
(u32), feature count K (u32) and K*dim float32 values: the frames' rows
in order, which is the in-memory layout. The checks and the float32
codec live in :mod:`vlac.fileio`; round trips are bit-exact.

A manifest is the JSON form of a :class:`DatasetManifest` or
:class:`QueryManifest`, field for field; feature-file paths are relative
to the manifest's directory.

A synthetic dataset is drawn once, in memory, by
:func:`synthesize_videos`. :func:`write_dataset` writes each split
(``<video_id>.vfeat`` files plus ``manifest.json``) straight from those
videos, and :func:`make_queries` cuts the query segments from the same
in-memory videos; neither reads a feature file back.
:func:`write_features` builds a file in one preallocated buffer, casting
the features to float32 straight into it, and writes it in one piece.

The draw order of :func:`synthesize_videos` is a contract, because it
fixes every byte of a synthesized dataset: after the cluster means, per
video one Dirichlet draw of its cluster weights, then per frame F
uniforms, which pick F clusters as ``Generator.choice(clusters, size=F,
p=weights)`` would (searched on the video's cluster CDF), and then
F x dim normals of noise.
"""

from __future__ import annotations

import itertools
import json
import struct
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .aggregation import Video
from .errors import DataError, DimensionMismatch, EmptyInput, VideoTooShort
from .fileio import Reader, atomic_write, f32_into

_FEAT_MAGIC = b"VLACFEAT"
_FEAT_VERSION = 1
_FEAT_HEADER = struct.Struct("<HII")  # version, dim, frame count
_FRAME_HEADER = struct.Struct("<II")  # frame index, feature count

PERTURBATION_KINDS = ("additive_gaussian", "component_dropout", "gain")

# Dirichlet concentration of each synthetic video's cluster weights: below 1,
# a video draws most features from a few clusters.
_MIXING_CONCENTRATION = 0.3


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    feature_file: str
    fps_sampled: float
    label: str


@dataclass(frozen=True)
class DatasetManifest:
    videos: tuple[VideoEntry, ...]
    feature_dim: int
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "videos", tuple(self.videos))
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise DataError("manifest video_ids must be unique")


@dataclass(frozen=True)
class QueryEntry:
    query_id: str
    feature_file: str
    fps_sampled: float
    label: str
    source_video_id: str
    start_frame: int


@dataclass(frozen=True)
class QueryManifest:
    queries: tuple[QueryEntry, ...]
    feature_dim: int
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        ids = [q.query_id for q in self.queries]
        if len(set(ids)) != len(ids):
            raise DataError("query_ids must be unique")


@dataclass(frozen=True)
class PerturbationSpec:
    """A feature-space stand-in for pixel-domain distortions."""

    kind: str
    magnitude: float
    seed: int

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise DataError(f"unknown perturbation kind {self.kind!r}")
        if not np.isfinite(self.magnitude):
            raise DataError(
                f"perturbation magnitude must be finite, got {self.magnitude}"
            )
        if self.magnitude < 0:
            raise DataError("perturbation magnitude must be >= 0")
        if self.kind == "component_dropout" and self.magnitude > 1:
            raise DataError("dropout probability must be in [0, 1]")


def write_features(video: Video, path, *, overwrite: bool = False) -> None:
    """Write a video to a VLACFEAT file. Refuses to clobber unless told to.

    The file is built in one preallocated buffer: the header, then each
    frame's header followed by its rows, which are cast to float32
    straight into the buffer (:func:`fileio.f32_into`). Consecutive frames
    with one feature count lie at equal strides in the file, so each such
    run is cast and checked through one strided view; a synthesized video
    is one run. The buffer is written in one piece. A non-finite value
    raises DataError naming the first frame that holds one, and nothing is
    written.
    """
    if len(video) == 0:
        raise EmptyInput("cannot write a feature file with no frames")
    dim, offsets = video.dim, video.offsets
    counts = np.diff(offsets)
    head = len(_FEAT_MAGIC) + _FEAT_HEADER.size
    # where each frame's record, its header and then its rows, starts
    ends = head + np.cumsum(_FRAME_HEADER.size + 4 * dim * counts)
    starts = [head, *ends[:-1].tolist()]
    buf = np.empty(int(ends[-1]), dtype=np.uint8)  # every byte is set below
    buf[:head] = np.frombuffer(
        _FEAT_MAGIC + _FEAT_HEADER.pack(_FEAT_VERSION, dim, len(video)),
        dtype=np.uint8)
    for start, frame_index, count in zip(starts, video.frame_index.tolist(),
                                         counts.tolist()):
        _FRAME_HEADER.pack_into(buf, start, frame_index, count)
    cuts = (np.flatnonzero(np.diff(counts)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(video)]):
        n, width = b - a, int(counts[a]) * dim
        payload = np.ndarray((n, width), dtype="<f4", buffer=buf,
                             offset=starts[a] + _FRAME_HEADER.size,
                             strides=(_FRAME_HEADER.size + 4 * width, 4))
        rows = video.features[offsets[a] : offsets[b]].reshape(n, width)
        finite = f32_into(payload, rows)
        if not finite.all():
            frame_index = video.frame_index[a + int(np.argmin(finite))]
            raise DataError(f"{path} frame {frame_index} holds a non-finite "
                            "value")
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(buf)


def load_features(path, *, expected_dim: int | None = None) -> Video:
    """Decode a whole VLACFEAT file.

    The frame headers are walked first, keeping each payload as a float32
    view of the file; :meth:`Video.from_frames` then casts every payload
    once into one float64 matrix, which ``Video`` checks once. A
    non-finite value raises DataError naming the file.
    """
    reader = Reader(path, _FEAT_MAGIC)
    version, dim, frame_count = reader.unpack(_FEAT_HEADER, "the header")
    if version != _FEAT_VERSION:
        raise DataError(f"unsupported feature file version {version}")
    if expected_dim is not None and dim != expected_dim:
        raise DimensionMismatch(
            f"{path} holds {dim}-dim features, manifest says {expected_dim}"
        )
    index, frames = [], []
    for _ in range(frame_count):
        frame_index, count = reader.unpack(_FRAME_HEADER, "a frame header")
        index.append(frame_index)
        frames.append(reader.f32_view(count, dim, f"frame {frame_index}"))
    reader.end()
    try:
        return Video.from_frames(frames, index)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SyntheticDataset:
    """Synthetic videos plus the generator parameters that produced them.

    Videos share one vocabulary of Gaussian cluster means; each video has
    its own mixing weights, which is what makes videos distinguishable.
    """

    videos: tuple[Video, ...]
    cluster_means: np.ndarray
    mixing_weights: np.ndarray
    noise_std: float


def synthesize_videos(
    num_videos: int,
    frames_per_video: int,
    dim: int,
    clusters: int,
    seed: int,
    *,
    features_per_frame: int = 15,
    center_spread: float = 10.0,
    noise_std: float = 0.5,
) -> SyntheticDataset:
    """Draw videos from a shared Gaussian-mixture vocabulary, in memory.

    Deterministic under ``seed``, in this draw order: the (clusters,
    dim) cluster means first; then per video one Dirichlet draw of its
    mixing weights (concentration ``_MIXING_CONCENTRATION``); then per
    frame F = ``features_per_frame`` uniforms and F x dim normals of
    noise (``noise_std``). A video's uniforms are searched on its
    cluster CDF in one call, and the picked means are gathered into one
    buffer that every video reuses and added to its noise in one pass.
    The picks are those a per-frame ``Generator.choice(clusters, size=F,
    p=weights)`` makes from the same uniforms, so the stream and every
    byte are the ones that loop gives.
    """
    if min(num_videos, frames_per_video, dim, clusters, features_per_frame) < 1:
        raise DataError("all synthesis counts must be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, center_spread, size=(clusters, dim))
    weights = np.empty((num_videos, clusters), dtype=np.float64)
    offsets = np.arange(frames_per_video + 1) * features_per_frame
    picked = np.empty((offsets[-1], dim))  # each video's means, gathered
    videos = []
    for v in range(num_videos):
        weights[v] = rng.dirichlet(np.full(clusters, _MIXING_CONCENTRATION))
        feats = np.empty((offsets[-1], dim), dtype=np.float64)
        uniforms = np.empty((frames_per_video, features_per_frame))
        for t in range(frames_per_video):
            rng.random(out=uniforms[t])
            feats[offsets[t] : offsets[t + 1]] = rng.normal(
                0.0, noise_std, size=(features_per_frame, dim)
            )
        # float addition commutes, so noise + mean has the bits of mean + noise
        # every pick is a valid row, so "clip" changes none; it lets take
        # gather into ``picked`` without a buffer of its own
        feats += means.take(_pick_clusters(weights[v], uniforms.ravel()),
                            axis=0, out=picked, mode="clip")
        videos.append(Video(feats, np.arange(frames_per_video), offsets))
    return SyntheticDataset(
        videos=tuple(videos),
        cluster_means=means,
        mixing_weights=weights,
        noise_std=noise_std,
    )


def _pick_clusters(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The clusters ``Generator.choice(len(weights), size=n, p=weights)``
    picks when ``random(n)`` gives it ``uniforms``: the same search of the
    uniforms on the cumulative weights, normalized by their last entry,
    so one call serves every frame of a video."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def write_dataset(
    out_dir, ids, videos, *, fps_sampled: float, notes: str,
    overwrite: bool = False,
) -> DatasetManifest:
    """Write each video to ``<id>.vfeat`` in ``out_dir`` plus a manifest.json
    listing them in order, and return that manifest."""
    if not videos:
        raise EmptyInput("a dataset needs at least one video")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for video_id, video in zip(ids, videos, strict=True):
        rel = f"{video_id}.vfeat"
        write_features(video, out_dir / rel, overwrite=overwrite)
        entries.append(VideoEntry(video_id=video_id, feature_file=rel,
                                  fps_sampled=fps_sampled, label="clean"))
    manifest = DatasetManifest(
        videos=tuple(entries), feature_dim=videos[0].dim, notes=notes
    )
    save_manifest(manifest, out_dir / "manifest.json", overwrite=overwrite)
    return manifest


def perturb(video: Video, spec: PerturbationSpec) -> Video:
    """Apply a feature-space perturbation, deterministic under spec.seed.

    additive_gaussian adds N(0, magnitude^2) per component; gain multiplies
    every component by (1 + magnitude); component_dropout zeroes each
    component with probability ``magnitude``. The random values are drawn
    for the whole feature matrix at once, row after row. Frame and feature
    counts are unchanged; magnitude 0 is the identity. Raises DataError,
    naming the kind and magnitude, when a value overflows.
    """
    rng = np.random.default_rng(spec.seed)
    feats = video.features
    with np.errstate(over="ignore"):
        if spec.kind == "additive_gaussian":
            feats = feats + rng.normal(0.0, spec.magnitude, size=feats.shape)
        elif spec.kind == "gain":
            feats = feats * (1.0 + spec.magnitude)
        else:
            mask = rng.random(size=feats.shape) < spec.magnitude
            feats = np.where(mask, 0.0, feats)
    if not np.isfinite(feats).all():
        raise DataError(
            f"{spec.kind} perturbation of magnitude {spec.magnitude} "
            "overflows float64"
        )
    return Video(feats, video.frame_index, video.offsets)


def perturb_videos(videos, spec: PerturbationSpec) -> Iterator[Video]:
    """Perturb several videos, decorrelated via seed XOR video index.

    Lazy: a one-pass iterator that perturbs each video of ``videos`` only
    when it is reached and keeps neither the clean nor the perturbed video
    afterwards. Wrap it in ``list`` to hold them all.
    """
    specs = (replace(spec, seed=(spec.seed ^ i) % 2**32)
             for i in itertools.count())
    return map(perturb, videos, specs)


def make_queries(
    manifest: DatasetManifest,
    videos,
    out_dir,
    segment_len_frames: int,
    offset_frames: int,
    seed: int,
    *,
    overwrite: bool = False,
) -> QueryManifest:
    """Cut one query segment per manifest video, emulating a sampling-grid
    shift, and write the segments plus a manifest.json to ``out_dir``.

    ``videos`` are the manifest's videos in manifest order, in memory. The
    extraction start is drawn per video from a seeded stream and then
    shifted by ``offset_frames`` against the database grid (the paper's
    sub-frame 0.25 s shift is approximated by integer start jitter). Query
    frames are re-indexed from 0. The ground-truth source video id is
    recorded on each query entry.
    """
    if segment_len_frames < 1:
        raise DataError("segment_len_frames must be >= 1")
    if offset_frames < 0:
        raise DataError("offset_frames must be >= 0")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    span = segment_len_frames + offset_frames
    entries = []
    for entry, video in zip(manifest.videos, videos, strict=True):
        if len(video) < span:
            raise VideoTooShort(
                f"{entry.video_id} has {len(video)} frames, needs {span}"
            )
        start = int(rng.integers(0, len(video) - span + 1)) + offset_frames
        stop = start + segment_len_frames
        segment = Video(
            video.features[video.rows(start, stop)],
            np.arange(segment_len_frames),
            video.offsets[start : stop + 1] - video.offsets[start],
        )
        query_id = f"{entry.video_id}_q"
        rel = f"{query_id}.vfeat"
        write_features(segment, out_dir / rel, overwrite=overwrite)
        entries.append(
            QueryEntry(
                query_id=query_id,
                feature_file=rel,
                fps_sampled=entry.fps_sampled,
                label=entry.label,
                source_video_id=entry.video_id,
                start_frame=start,
            )
        )
    qmanifest = QueryManifest(
        queries=tuple(entries), feature_dim=manifest.feature_dim
    )
    save_query_manifest(qmanifest, out_dir / "manifest.json", overwrite=overwrite)
    return qmanifest


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def save_manifest(manifest, path, *, overwrite: bool = False) -> None:
    """Write a DatasetManifest or a QueryManifest as JSON; DataError if a
    value is not finite, which JSON cannot hold."""
    try:
        doc = json.dumps(asdict(manifest), indent=2, sort_keys=True,
                         allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: manifest holds a non-finite value "
                        f"({exc})") from None
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write((doc + "\n").encode())


save_query_manifest = save_manifest


def load_manifest(path, *, check_files: bool = True) -> DatasetManifest:
    return _load(path, DatasetManifest, VideoEntry, check_files)


def load_query_manifest(path, *, check_files: bool = True) -> QueryManifest:
    return _load(path, QueryManifest, QueryEntry, check_files)


def _load(path, cls, entry_cls, check_files: bool):
    """Build ``cls`` from the JSON file at ``path``; its first field holds
    the ``entry_cls`` entries, each naming a feature file relative to
    ``path``'s directory."""
    path = Path(path)
    doc = json.loads(path.read_text())
    try:
        manifest = _from_json(cls, doc, entry_cls)
    except KeyError as exc:
        raise DataError(f"{path} is missing manifest field {exc}") from exc
    except (TypeError, ValueError) as exc:  # a non-object, a wrong-typed value
        raise DataError(f"{path} is not a valid manifest: {exc}") from exc
    if check_files:
        for entry in getattr(manifest, fields(cls)[0].name):
            if not (path.parent / entry.feature_file).exists():
                raise DataError(
                    f"{path} references missing feature file {entry.feature_file}"
                )
    return manifest


def _from_json(cls, doc, entry_cls=None):
    """``cls`` from a JSON object, field by field: numbers are coerced to the
    field's type, strings must be strings, and the one tuple field holds
    ``entry_cls`` objects."""
    values = {}
    for fld in fields(cls):
        if fld.name not in doc and fld.default is not MISSING:
            continue
        value = doc[fld.name]
        if fld.type == "str":
            if not isinstance(value, str):
                raise TypeError(f"{fld.name} must be a string, got {value!r}")
        elif fld.type in ("int", "float"):
            value = int(value) if fld.type == "int" else float(value)
        else:
            value = tuple(_from_json(entry_cls, entry) for entry in value)
        values[fld.name] = value
    return cls(**values)
