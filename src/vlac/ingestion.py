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
to the manifest's directory. One rule (``_Manifest``) serves both.

A synthetic dataset is drawn one video at a time by
:func:`synthesize_videos`, which returns a one-pass iterator of videos.
:func:`write_dataset` writes a split (``<video_id>.vfeat`` files plus
``manifest.json``) straight from such videos and can hand each one, as
it is written, to :func:`make_queries`, which cuts the query split in the
same pass; neither reads a feature file back. Both splits write their
feature files through one writer, ``_write_each``, which refuses a video
of another dim before writing it, and each split is all-or-nothing
(:func:`fileio.atomic_dir`). :func:`write_features` casts a video's
features to float32 once and writes the file in one piece.

The draw order of :func:`synthesize_videos` is a contract, because it
fixes every byte of a synthesized dataset: after the cluster means, per
video one Dirichlet draw of its cluster weights, then per frame F
uniforms, which pick F clusters as ``Generator.choice(clusters, size=F,
p=weights)`` would (``core_math._choice_indices``, the emulation k-means++
seeding draws with too), and then F x dim normals of noise.
"""

from __future__ import annotations

import itertools
import json
import numbers
import struct
import sys
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .aggregation import Video
from .core_math import _choice_indices
from .errors import DataError, DimensionMismatch, EmptyInput, VideoTooShort
from .fileio import (Reader, atomic_dir, atomic_write, f32_into, read_json,
                     refuse_repeats)

_FEAT_MAGIC = b"VLACFEAT"
_FEAT_VERSION = 1
_FEAT_HEADER = struct.Struct("<HII")  # version, dim, frame count
_FRAME_HEADER = struct.Struct("<II")  # frame index, feature count

PERTURBATION_KINDS = ("additive_gaussian", "component_dropout", "gain")

# Dirichlet concentration of each synthetic video's cluster weights: below 1,
# a video draws most features from a few clusters.
_MIXING_CONCENTRATION = 0.3


def _check_types(obj) -> None:
    """The field rule of every manifest class: an int field holds only an
    int (not a bool) and a str field only a str; DataError otherwise."""
    for fld in fields(obj):
        value = getattr(obj, fld.name)
        if fld.type == "str" and not isinstance(value, str):
            raise DataError(f"{fld.name} must be a string, got {value!r}")
        if fld.type == "int" and type(value) is not int:
            raise DataError(f"{fld.name} must be an integer, got {value!r}")


class _Entry:
    """The rules both manifest entry types share: :func:`_check_types`, and
    ``fps_sampled`` is a real number, finite and >= 0, stored as a float;
    DataError otherwise. The first field is the entry's :attr:`id`."""

    def __post_init__(self):
        _check_types(self)
        if not _finite_non_negative(self.fps_sampled):
            raise DataError("fps_sampled must be a finite number >= 0, "
                            f"got {self.fps_sampled!r}")
        object.__setattr__(self, "fps_sampled", float(self.fps_sampled))

    @property
    def id(self) -> str:
        return getattr(self, fields(self)[0].name)


class _Manifest:
    """The rules both manifest types share: :func:`_check_types`, a
    ``feature_dim`` of at least 1, the entries (the first field, read by
    either type as :attr:`entries`) stored as a tuple, each one of the
    class's ``entry_type``, and no entry id repeated
    (:func:`fileio.refuse_repeats`); DataError otherwise."""

    def __post_init__(self):
        _check_types(self)
        if self.feature_dim < 1:
            raise DataError(
                f"feature_dim must be >= 1, got {self.feature_dim}")
        name = fields(self)[0].name
        entries = tuple(getattr(self, name))
        object.__setattr__(self, name, entries)
        for entry in entries:
            if not isinstance(entry, self.entry_type):
                raise DataError(f"{name} must hold {self.entry_type.__name__}"
                                f" entries, got {type(entry).__name__}")
        refuse_repeats("manifest", "entry id", (e.id for e in entries))

    @property
    def entries(self) -> tuple:
        """The manifest's entries (its first field), in manifest order."""
        return getattr(self, fields(self)[0].name)


@dataclass(frozen=True)
class VideoEntry(_Entry):
    video_id: str
    feature_file: str
    fps_sampled: float
    label: str


@dataclass(frozen=True)
class DatasetManifest(_Manifest):
    entry_type = VideoEntry
    videos: tuple[VideoEntry, ...]
    feature_dim: int
    notes: str = ""


@dataclass(frozen=True)
class QueryEntry(_Entry):
    query_id: str
    feature_file: str
    fps_sampled: float
    label: str
    source_video_id: str
    start_frame: int


@dataclass(frozen=True)
class QueryManifest(_Manifest):
    entry_type = QueryEntry
    queries: tuple[QueryEntry, ...]
    feature_dim: int
    notes: str = ""


@dataclass(frozen=True)
class PerturbationSpec:
    """A feature-space stand-in for pixel-domain distortions."""

    kind: str
    magnitude: float
    seed: int

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise DataError(f"unknown perturbation kind {self.kind!r}")
        if not _finite_non_negative(self.magnitude):
            raise DataError("perturbation magnitude must be a real number, "
                            f"finite and >= 0, got {self.magnitude!r}")
        if self.kind == "component_dropout" and self.magnitude > 1:
            raise DataError("dropout probability must be in [0, 1]")
        if type(self.seed) is not int or not 0 <= self.seed < 2**32:
            raise DataError(f"perturbation seed must be an int in "
                            f"[0, {2**32 - 1}], got {self.seed!r}")


def _finite_non_negative(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite and >= 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    # compared, not cast, and NaN fails. A Python int meets the Python
    # float bound exactly, where float() overflows on a huge one. A numpy
    # float meets a float64 bound, which promotes it: numpy would cast the
    # Python float bound to a float32 or float16 and overflow
    if isinstance(value, np.floating):
        return bool(0 <= value <= np.finfo(np.float64).max)
    return 0 <= value <= sys.float_info.max


def write_features(video: Video, path, *, overwrite: bool = False) -> None:
    """Write a video to a VLACFEAT file. Refuses to clobber unless told to.

    The whole feature matrix is cast to float32 and checked once
    (:func:`fileio.f32_into`), and the file is written in one piece: the
    header, then each frame's header followed by that frame's rows of the
    payload. A frame index outside u32, or a non-finite value, raises
    DataError naming the index or the first frame that holds one, and
    nothing is written.
    """
    if len(video) == 0:
        raise EmptyInput("cannot write a feature file with no frames")
    index, offsets = video.frame_index.tolist(), video.offsets.tolist()
    for frame_index in (index[0], index[-1]):  # the indices increase
        if not 0 <= frame_index < 2**32:
            raise DataError(f"{path} frame index {frame_index} does not fit "
                            "in a u32")
    payload = np.empty(video.features.shape, dtype="<f4")
    finite = f32_into(payload, video.features)
    if not finite.all():
        # the frame that holds the first bad row; "right" skips empty frames
        t = np.searchsorted(offsets, np.argmin(finite), "right") - 1
        raise DataError(f"{path} frame {index[t]} holds a non-finite value")
    parts = [_FEAT_MAGIC
             + _FEAT_HEADER.pack(_FEAT_VERSION, video.dim, len(index))]
    for frame_index, start, stop in zip(index, offsets, offsets[1:]):
        parts.append(_FRAME_HEADER.pack(frame_index, stop - start))
        parts.append(payload[start:stop])
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(b"".join(parts))


def load_features(path, *, expected_dim: int | None = None) -> Video:
    """Decode a whole VLACFEAT file.

    The frame headers are walked first, keeping each payload as a float32
    view of the file; :meth:`Video.from_frames` then copies every payload
    once into one float32 matrix, half the bytes of float64, which
    ``Video`` checks once and every consumer widens exactly on use. A
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
) -> Iterator[Video]:
    """Draw videos from a shared Gaussian-mixture vocabulary, one at a time.

    Videos share one vocabulary of Gaussian cluster means; each video has
    its own mixing weights, which is what makes videos distinguishable.
    Returns a one-pass iterator that draws each video when it is reached
    and keeps none of them; ``tuple(...)`` of it holds them all.

    Deterministic under ``seed``, in this draw order: the (clusters,
    dim) cluster means first, here, after the counts are checked; then, as
    the iterator reaches each video, one Dirichlet draw of its mixing
    weights (concentration ``_MIXING_CONCENTRATION``) and per frame
    F = ``features_per_frame`` uniforms and F x dim normals of noise
    (``noise_std``). A video's uniforms are searched on its cluster CDF in
    one call, and the picked means are added to its noise in one pass.
    The picks are those a per-frame ``Generator.choice(clusters, size=F,
    p=weights)`` makes from the same uniforms, so the stream and every
    byte are the ones that loop gives.
    """
    if min(num_videos, frames_per_video, dim, clusters, features_per_frame) < 1:
        raise DataError("all synthesis counts must be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, center_spread, size=(clusters, dim))
    return _draw_videos(rng, means, num_videos, frames_per_video,
                        features_per_frame, noise_std)


def _draw_videos(rng, means, num_videos: int, frames_per_video: int,
                 features_per_frame: int, noise_std: float) -> Iterator[Video]:
    """The videos of :func:`synthesize_videos`, drawn from ``rng`` as each
    is reached."""
    clusters, dim = means.shape
    offsets = np.arange(frames_per_video + 1) * features_per_frame
    for _ in range(num_videos):
        weights = rng.dirichlet(np.full(clusters, _MIXING_CONCENTRATION))
        feats = np.empty((offsets[-1], dim), dtype=np.float64)
        uniforms = np.empty((frames_per_video, features_per_frame))
        for t in range(frames_per_video):
            rng.random(out=uniforms[t])
            feats[offsets[t] : offsets[t + 1]] = rng.normal(
                0.0, noise_std, size=(features_per_frame, dim)
            )
        # float addition commutes, so noise + mean has the bits of mean + noise
        feats += means[_choice_indices(weights, uniforms.ravel())]
        yield Video(feats, np.arange(frames_per_video), offsets)


def write_dataset(
    out_dir, ids, videos, *, fps_sampled: float, notes: str,
    overwrite: bool = False, queries: dict | None = None,
) -> DatasetManifest:
    """Write each video to ``<id>.vfeat`` in ``out_dir`` plus a manifest.json
    listing them in order, and return that manifest.

    ``videos`` is read once, in order, one video at a time, so a lazy
    iterator (:func:`synthesize_videos`) is written without holding more
    than the video at hand. The manifest is built once the first video
    gives the feature dimension and before any file is written, so one it
    refuses (a repeated id, an id that is not a string, a bad
    ``fps_sampled``) writes no file. The split is written through
    ``_write_each``, all-or-nothing (:func:`fileio.atomic_dir`): a video
    that fails to write or whose dim is not the first video's, or a count
    of videos other than of ``ids``, leaves ``out_dir`` as it was.

    ``queries``, when given, holds the arguments of :func:`make_queries`
    after ``videos``: each video is then handed to it as soon as it is
    written, and its query split is cut in the same pass and written
    all-or-nothing within this split's own write.
    """
    videos = iter(videos)
    first = next(videos, None)
    if first is None:
        raise EmptyInput("a dataset needs at least one video")
    manifest = DatasetManifest(
        videos=tuple(
            VideoEntry(video_id=video_id, feature_file=f"{video_id}.vfeat",
                       fps_sampled=fps_sampled, label="clean")
            for video_id in ids),
        feature_dim=first.dim, notes=notes,
    )
    # chain holds its arguments to the end; an exhausted list iterator, unlike
    # a list, lets go of the first video
    videos = itertools.chain(iter([first]), videos)
    del first
    with atomic_dir(out_dir, overwrite=overwrite) as stage:
        written = (video for _, video in _write_each(
            stage, manifest.feature_dim,
            zip(manifest.videos, videos, strict=True)))
        if queries is None:
            for _ in written:
                pass
        else:
            make_queries(manifest, written, overwrite=overwrite, **queries)
        save_manifest(manifest, stage / "manifest.json")
    return manifest


def _write_each(out_dir: Path, feature_dim: int, pairs) -> Iterator[tuple]:
    """Write each (entry, video) pair's video to the entry's feature file
    in ``out_dir`` and then yield the pair: the one writer of every split.
    DimensionMismatch, naming the entry's id, before its file is written
    for a video whose dim is not ``feature_dim``."""
    for entry, video in pairs:
        if video.dim != feature_dim:
            raise DimensionMismatch(
                f"video {entry.id!r} has {video.dim}-dim features, "
                f"the manifest says {feature_dim}")
        write_features(video, out_dir / entry.feature_file)
        yield entry, video


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
    # widened first: a float32 matrix times (1 + m) would stay float32
    feats = video.features.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        if spec.kind == "additive_gaussian":
            feats = feats + rng.normal(0.0, spec.magnitude, size=feats.shape)
        elif spec.kind == "gain":
            feats = feats * (1.0 + spec.magnitude)
        else:
            mask = rng.random(size=feats.shape) < spec.magnitude
            feats = np.where(mask, 0.0, feats)
    try:
        # the frames and offsets are a valid video's: only a value can fail
        return Video(feats, video.frame_index, video.offsets)
    except DataError:
        raise DataError(
            f"{spec.kind} perturbation of magnitude {spec.magnitude} "
            "overflows float64"
        ) from None


def perturb_videos(videos, spec: PerturbationSpec) -> Iterator[Video]:
    """Perturb several videos, decorrelated via seed XOR video index.

    Lazy: a one-pass iterator that perturbs each video of ``videos`` only
    when it is reached and keeps neither the clean nor the perturbed video
    afterwards. Wrap it in ``list`` to hold them all.
    """
    specs = (replace(spec, seed=spec.seed ^ i) for i in itertools.count())
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

    ``videos`` are the manifest's videos in manifest order, read once,
    one at a time: each video's segment is cut and written
    (``_write_each``) before the next video is read. The extraction start
    is drawn per video from a seeded stream and then shifted by
    ``offset_frames`` against the database grid (the paper's sub-frame
    0.25 s shift is approximated by integer start jitter). Query frames
    are re-indexed from 0. The ground-truth source video id is recorded
    on each query entry. The query split is all-or-nothing
    (:func:`fileio.atomic_dir`): a video too short for its segment, a
    segment that fails to write or has another dim than the manifest, or
    another count of videos leaves ``out_dir`` as it was.
    """
    if segment_len_frames < 1:
        raise DataError("segment_len_frames must be >= 1")
    if offset_frames < 0:
        raise DataError("offset_frames must be >= 0")
    rng = np.random.default_rng(seed)
    span = segment_len_frames + offset_frames

    def segments():
        for entry, video in zip(manifest.videos, videos, strict=True):
            if len(video) < span:
                raise VideoTooShort(
                    f"{entry.video_id} has {len(video)} frames, needs {span}"
                )
            start = int(rng.integers(0, len(video) - span + 1)) + offset_frames
            stop = start + segment_len_frames
            yield QueryEntry(
                query_id=f"{entry.video_id}_q",
                feature_file=f"{entry.video_id}_q.vfeat",
                fps_sampled=entry.fps_sampled,
                label=entry.label,
                source_video_id=entry.video_id,
                start_frame=start,
            ), Video(video.features[video.rows(start, stop)],
                     np.arange(segment_len_frames),
                     video.offsets[start : stop + 1] - video.offsets[start])

    with atomic_dir(out_dir, overwrite=overwrite) as stage:
        written = _write_each(stage, manifest.feature_dim, segments())
        qmanifest = QueryManifest(queries=tuple(e for e, _ in written),
                                  feature_dim=manifest.feature_dim)
        save_query_manifest(qmanifest, stage / "manifest.json")
    return qmanifest


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def save_manifest(manifest, path, *, overwrite: bool = False) -> None:
    """Write a DatasetManifest or a QueryManifest as JSON. Its entries
    refuse a non-finite value, which JSON cannot hold."""
    doc = json.dumps(asdict(manifest), indent=2, sort_keys=True,
                     allow_nan=False)
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write((doc + "\n").encode())


save_query_manifest = save_manifest


def load_manifest(path, *, check_files: bool = True) -> DatasetManifest:
    return _load(path, DatasetManifest, check_files)


def load_query_manifest(path, *, check_files: bool = True) -> QueryManifest:
    return _load(path, QueryManifest, check_files)


def _load(path, cls, check_files: bool):
    """Build ``cls`` from the JSON file at ``path``; its first field holds
    its ``entry_type`` entries, each naming a feature file relative to
    ``path``'s directory."""
    path = Path(path)
    doc = read_json(path)
    try:
        manifest = _from_json(cls, doc)
    except KeyError as exc:
        raise DataError(f"{path} is missing manifest field {exc}") from exc
    # a non-object, a wrong-typed value, a value the classes refuse
    except (TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path} is not a valid manifest: {exc}") from exc
    if check_files:
        for entry in manifest.entries:
            if not (path.parent / entry.feature_file).exists():
                raise DataError(
                    f"{path} references missing feature file {entry.feature_file}"
                )
    return manifest


def _from_json(cls, doc):
    """``cls`` from a JSON object, field by field; the one tuple field of a
    manifest holds its ``entry_type`` objects. ``cls`` checks every value
    itself."""
    values = {}
    for fld in fields(cls):
        if fld.name not in doc and fld.default is not MISSING:
            continue
        value = doc[fld.name]
        if fld.type.startswith("tuple"):
            value = tuple(_from_json(cls.entry_type, entry) for entry in value)
        values[fld.name] = value
    return cls(**values)
