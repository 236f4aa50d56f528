"""Feature-file and manifest I/O, synthetic data, and feature perturbation.

Feature files (``VLACFEAT``) are binary: an 8-byte magic, version (u16),
feature dimension (u32) and frame count (u32), then per-frame records of
frame_index (u32), feature count K (u32) and K*dim little-endian float32
values. Round trips are bit-exact.

Manifests are JSON with fixed field names; feature-file paths are stored
relative to the manifest's directory.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .aggregation import FrameFeatures
from .errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    EmptyInput,
    TruncatedFile,
    VideoTooShort,
)
from .fileio import atomic_write

_FEAT_MAGIC = b"VLACFEAT"
_FEAT_VERSION = 1

PERTURBATION_KINDS = ("additive_gaussian", "component_dropout", "gain")


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
        if self.magnitude < 0:
            raise DataError("perturbation magnitude must be >= 0")
        if self.kind == "component_dropout" and self.magnitude > 1:
            raise DataError("dropout probability must be in [0, 1]")


def write_features(frames, path, *, overwrite: bool = False) -> None:
    """Write frames to a VLACFEAT file. Refuses to clobber unless told to."""
    frames = list(frames)
    if not frames:
        raise EmptyInput("cannot write a feature file with no frames")
    dim = frames[0].dim
    prev_index = None
    for f in frames:
        if f.dim != dim:
            raise DimensionMismatch(
                f"frame {f.frame_index} has dimension {f.dim}, expected {dim}"
            )
        if prev_index is not None and f.frame_index <= prev_index:
            raise DataError("frame indices must be strictly increasing")
        prev_index = f.frame_index
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(_FEAT_MAGIC)
        fh.write(struct.pack("<HII", _FEAT_VERSION, dim, len(frames)))
        for f in frames:
            fh.write(struct.pack("<II", f.frame_index, f.count))
            fh.write(f.features.astype("<f4").tobytes(order="C"))


def iter_features(path, *, expected_dim: int | None = None) -> Iterator[FrameFeatures]:
    """Yield frames from a VLACFEAT file in order."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _FEAT_MAGIC:
            raise BadMagic(f"{path} is not a VLACFEAT file")
        header = fh.read(10)
        if len(header) != 10:
            raise TruncatedFile(f"{path} ended inside the header")
        version, dim, frame_count = struct.unpack("<HII", header)
        if version != _FEAT_VERSION:
            raise DataError(f"unsupported feature file version {version}")
        if expected_dim is not None and dim != expected_dim:
            raise DimensionMismatch(
                f"{path} holds {dim}-dim features, manifest says {expected_dim}"
            )
        prev_index = None
        for _ in range(frame_count):
            record = fh.read(8)
            if len(record) != 8:
                raise TruncatedFile(
                    f"{path} declares {frame_count} frames but ended early"
                )
            frame_index, count = struct.unpack("<II", record)
            if prev_index is not None and frame_index <= prev_index:
                raise DataError(f"{path} frame indices are not increasing")
            prev_index = frame_index
            payload = fh.read(count * dim * 4)
            if len(payload) != count * dim * 4:
                raise TruncatedFile(f"{path} frame {frame_index} is truncated")
            feats = (
                np.frombuffer(payload, dtype="<f4")
                .reshape(count, dim)
                .astype(np.float64)
            )
            if not np.isfinite(feats).all():
                raise DataError(
                    f"{path} frame {frame_index} holds a non-finite value"
                )
            yield FrameFeatures(frame_index=frame_index, features=feats)
        if fh.read(1):
            raise DataError(f"{path} has trailing bytes after the last frame")


def load_features(path, *, expected_dim: int | None = None) -> list[FrameFeatures]:
    """Decode a whole VLACFEAT file."""
    return list(iter_features(path, expected_dim=expected_dim))


@dataclass(frozen=True)
class SyntheticDataset:
    """Synthetic videos plus the generator parameters that produced them.

    Videos share one vocabulary of Gaussian cluster means; each video has
    its own mixing weights, which is what makes videos distinguishable.
    """

    videos: tuple[tuple[FrameFeatures, ...], ...]
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
    mixing_concentration: float = 0.3,
) -> SyntheticDataset:
    """Draw videos from a shared Gaussian-mixture vocabulary, in memory.

    Deterministic under ``seed``: the cluster means are drawn once, then
    per video a Dirichlet mixing vector and per frame ``features_per_frame``
    features (a cluster pick plus isotropic noise of ``noise_std``).
    """
    if min(num_videos, frames_per_video, dim, clusters, features_per_frame) < 1:
        raise DataError("all synthesis counts must be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, center_spread, size=(clusters, dim))
    weights = np.empty((num_videos, clusters), dtype=np.float64)
    videos = []
    for v in range(num_videos):
        weights[v] = rng.dirichlet(np.full(clusters, mixing_concentration))
        frames = []
        for t in range(frames_per_video):
            picks = rng.choice(clusters, size=features_per_frame, p=weights[v])
            feats = means[picks] + rng.normal(
                0.0, noise_std, size=(features_per_frame, dim)
            )
            frames.append(FrameFeatures(frame_index=t, features=feats))
        videos.append(tuple(frames))
    return SyntheticDataset(
        videos=tuple(videos),
        cluster_means=means,
        mixing_weights=weights,
        noise_std=noise_std,
    )


def synthesize_dataset(
    out_dir,
    num_videos: int,
    frames_per_video: int,
    dim: int,
    clusters: int,
    seed: int,
    *,
    fps_sampled: float = 1.0 / 3.0,
    id_prefix: str = "video",
    label: str = "clean",
    notes: str = "",
    overwrite: bool = False,
    **synth_kwargs,
) -> DatasetManifest:
    """Synthesize videos and write feature files plus a manifest.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = synthesize_videos(
        num_videos, frames_per_video, dim, clusters, seed, **synth_kwargs
    )
    entries = []
    for v, frames in enumerate(data.videos):
        video_id = f"{id_prefix}_{v:03d}"
        rel = f"{video_id}.vfeat"
        write_features(frames, out_dir / rel, overwrite=overwrite)
        entries.append(
            VideoEntry(
                video_id=video_id,
                feature_file=rel,
                fps_sampled=fps_sampled,
                label=label,
            )
        )
    manifest = DatasetManifest(
        videos=tuple(entries), feature_dim=dim, notes=notes
    )
    save_manifest(manifest, out_dir / "manifest.json", overwrite=overwrite)
    return manifest


def perturb(frames, spec: PerturbationSpec) -> list[FrameFeatures]:
    """Apply a feature-space perturbation, deterministic under spec.seed.

    additive_gaussian adds N(0, magnitude^2) per component; gain multiplies
    every component by (1 + magnitude); component_dropout zeroes each
    component with probability ``magnitude``. Frame and feature counts are
    unchanged; magnitude 0 is the identity.
    """
    rng = np.random.default_rng(spec.seed)
    out = []
    for f in frames:
        feats = f.features
        if spec.kind == "additive_gaussian":
            feats = feats + rng.normal(0.0, spec.magnitude, size=feats.shape)
        elif spec.kind == "gain":
            feats = feats * (1.0 + spec.magnitude)
        else:
            mask = rng.random(size=feats.shape) < spec.magnitude
            feats = np.where(mask, 0.0, feats)
        out.append(FrameFeatures(frame_index=f.frame_index, features=feats))
    return out


def perturb_videos(
    videos, spec: PerturbationSpec
) -> list[list[FrameFeatures]]:
    """Perturb several videos, decorrelated via seed XOR video index."""
    return [
        perturb(frames, replace(spec, seed=(spec.seed ^ i) % 2**32))
        for i, frames in enumerate(videos)
    ]


def make_queries(
    manifest: DatasetManifest,
    data_root,
    out_dir,
    segment_len_frames: int,
    offset_frames: int,
    seed: int,
    *,
    overwrite: bool = False,
    notes: str = "",
) -> QueryManifest:
    """Cut one query segment per video, emulating a sampling-grid shift.

    The extraction start is drawn per video from a seeded stream and then
    shifted by ``offset_frames`` against the database grid (the paper's
    sub-frame 0.25 s shift is approximated by integer start jitter). Query
    frames are re-indexed from 0. The ground-truth source video id is
    recorded on each query entry.
    """
    if segment_len_frames < 1:
        raise DataError("segment_len_frames must be >= 1")
    if offset_frames < 0:
        raise DataError("offset_frames must be >= 0")
    data_root = Path(data_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for entry in manifest.videos:
        frames = load_features(
            data_root / entry.feature_file, expected_dim=manifest.feature_dim
        )
        span = segment_len_frames + offset_frames
        if len(frames) < span:
            raise VideoTooShort(
                f"{entry.video_id} has {len(frames)} frames, needs {span}"
            )
        start = int(rng.integers(0, len(frames) - span + 1)) + offset_frames
        segment = [
            FrameFeatures(frame_index=i, features=f.features)
            for i, f in enumerate(frames[start : start + segment_len_frames])
        ]
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
        queries=tuple(entries), feature_dim=manifest.feature_dim, notes=notes
    )
    save_query_manifest(qmanifest, out_dir / "manifest.json", overwrite=overwrite)
    return qmanifest


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def _write_json(doc: dict, path, overwrite: bool) -> None:
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def save_manifest(manifest: DatasetManifest, path, *, overwrite: bool = False) -> None:
    doc = {
        "videos": [
            {
                "video_id": v.video_id,
                "feature_file": v.feature_file,
                "fps_sampled": v.fps_sampled,
                "label": v.label,
            }
            for v in manifest.videos
        ],
        "feature_dim": manifest.feature_dim,
        "notes": manifest.notes,
    }
    _write_json(doc, path, overwrite)


def load_manifest(path, *, check_files: bool = True) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text())
    try:
        manifest = DatasetManifest(
            videos=tuple(
                VideoEntry(
                    video_id=v["video_id"],
                    feature_file=v["feature_file"],
                    fps_sampled=float(v["fps_sampled"]),
                    label=v["label"],
                )
                for v in doc["videos"]
            ),
            feature_dim=int(doc["feature_dim"]),
            notes=doc.get("notes", ""),
        )
    except KeyError as exc:
        raise DataError(f"{path} is missing manifest field {exc}") from exc
    except TypeError as exc:  # a non-object document or entry, a null number
        raise DataError(f"{path} is not a valid manifest: {exc}") from exc
    if check_files:
        base = path.parent
        for v in manifest.videos:
            if not (base / v.feature_file).exists():
                raise DataError(
                    f"{path} references missing feature file {v.feature_file}"
                )
    return manifest


def save_query_manifest(
    manifest: QueryManifest, path, *, overwrite: bool = False
) -> None:
    doc = {
        "queries": [
            {
                "query_id": q.query_id,
                "feature_file": q.feature_file,
                "fps_sampled": q.fps_sampled,
                "label": q.label,
                "source_video_id": q.source_video_id,
                "start_frame": q.start_frame,
            }
            for q in manifest.queries
        ],
        "feature_dim": manifest.feature_dim,
        "notes": manifest.notes,
    }
    _write_json(doc, path, overwrite)


def load_query_manifest(path, *, check_files: bool = True) -> QueryManifest:
    path = Path(path)
    doc = json.loads(path.read_text())
    try:
        manifest = QueryManifest(
            queries=tuple(
                QueryEntry(
                    query_id=q["query_id"],
                    feature_file=q["feature_file"],
                    fps_sampled=float(q["fps_sampled"]),
                    label=q["label"],
                    source_video_id=q["source_video_id"],
                    start_frame=int(q["start_frame"]),
                )
                for q in doc["queries"]
            ),
            feature_dim=int(doc["feature_dim"]),
            notes=doc.get("notes", ""),
        )
    except KeyError as exc:
        raise DataError(f"{path} is missing query field {exc}") from exc
    except TypeError as exc:  # a non-object document or entry, a null number
        raise DataError(f"{path} is not a valid query manifest: {exc}") from exc
    if check_files:
        base = path.parent
        for q in manifest.queries:
            if not (base / q.feature_file).exists():
                raise DataError(
                    f"{path} references missing feature file {q.feature_file}"
                )
    return manifest
