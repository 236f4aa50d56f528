"""Similarity scoring, max-over-alignment matching and flat-scan retrieval.

Similarity is the raw inner product of compact descriptors; sequences are
compared at every alignment of the shorter one inside the longer one and
the best alignment wins. The store is an in-memory flat scan.

A store file (``VLACSTOR``) holds the magic, then until the end of the
file one record per video: the UTF-8 video_id's length (u32) and bytes,
the GoF count G (u32), descriptor dimension d (u32) and method tag (u8),
and G*d float32 values. The checks and the float32 codec live in
:mod:`vlac.fileio`; round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .aggregation import METHOD_TAGS, TAG_METHODS
from .errors import DataError, DimensionMismatch, EmptyStore
from .fileio import Reader, atomic_write, f32_bytes

_STORE_MAGIC = b"VLACSTOR"
_ID_LENGTH = struct.Struct("<I")
_RECORD = struct.Struct("<IIB")  # GoF count, descriptor dim, method tag


@dataclass(frozen=True)
class DescriptorSequence:
    """Ordered per-GoF descriptors of one video, a finite (G, d) float64
    matrix."""

    video_id: str
    descriptors: np.ndarray
    method: str

    def __post_init__(self):
        mat = np.asarray(self.descriptors, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise DataError(
                f"sequence {self.video_id!r} needs a (G>=1, d) matrix, "
                f"got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise DataError(
                f"sequence {self.video_id!r} holds a non-finite descriptor"
            )
        object.__setattr__(self, "descriptors", mat)

    @property
    def length(self) -> int:
        return int(self.descriptors.shape[0])

    @property
    def d(self) -> int:
        return int(self.descriptors.shape[1])


@dataclass(frozen=True)
class RankedMatch:
    video_id: str
    score: float
    offset: int


@dataclass(frozen=True)
class RetrievalResult:
    matches: tuple[RankedMatch, ...]


def aligned_similarity(
    query: DescriptorSequence,
    target: DescriptorSequence,
    *,
    strict_paper_range: bool = False,
) -> tuple[float, int]:
    """Best inner-product sum over all alignments of the shorter sequence.

    The shorter of the two sequences is slid over the longer one; at shift
    k the score is the sum of per-position inner products. Returns the
    maximum score and its shift, ties resolved to the smallest shift.

    By default the shift range is {0, ..., G2 - G1}, which always includes
    the identity alignment. ``strict_paper_range`` restricts it to
    {1, ..., G2 - G1}, which is empty for equal lengths and then raises.
    """
    if query.d != target.d:
        raise DimensionMismatch(
            f"sequences have descriptor dims {query.d} and {target.d}"
        )
    if query.method != target.method:
        raise DataError(
            f"sequences mix methods {query.method!r} and {target.method!r}"
        )
    short, long_ = query.descriptors, target.descriptors
    if short.shape[0] > long_.shape[0]:
        short, long_ = long_, short
    g1, g2 = short.shape[0], long_.shape[0]
    first_k = 1 if strict_paper_range else 0
    if first_k > g2 - g1:
        raise DataError(
            "strict alignment range {1..G2-G1} is empty for equal lengths"
        )
    scores = np.array(
        [
            np.sum(short * long_[k : k + g1])
            for k in range(first_k, g2 - g1 + 1)
        ]
    )
    best = int(np.argmax(scores))
    return float(scores[best]), best + first_k


def retrieve(
    query: DescriptorSequence,
    store,
    *,
    threshold: float | None = None,
    top_k: int | None = None,
    normalize_by_length: bool = False,
    strict_paper_range: bool = False,
) -> RetrievalResult:
    """Rank store entries by aligned similarity to the query.

    Exactly one of ``threshold`` (keep scores >= threshold) and ``top_k``
    (keep the k best; 0 keeps everything) must be given. The ranking sorts
    by score descending with video_id as the tie-breaker, so equal inputs
    always produce identical output. ``normalize_by_length`` divides each
    score by the aligned length for cross-length comparability.
    """
    if (threshold is None) == (top_k is None):
        raise ValueError("pass exactly one of threshold= or top_k=")
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    entries = list(store)
    if not entries:
        raise EmptyStore("cannot retrieve from an empty store")
    matches = []
    for seq in entries:
        score, offset = aligned_similarity(
            query, seq, strict_paper_range=strict_paper_range
        )
        if normalize_by_length:
            score /= min(query.length, seq.length)
        matches.append(RankedMatch(seq.video_id, score, offset))
    matches.sort(key=lambda m: (-m.score, m.video_id))
    if threshold is not None:
        matches = [m for m in matches if m.score >= threshold]
    elif top_k:
        matches = matches[: int(top_k)]
    return RetrievalResult(matches=tuple(matches))


def write_store(sequences, path, *, overwrite: bool = False) -> None:
    """Serialize sequences to a VLACSTOR file (bit-exact round trip)."""
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(_STORE_MAGIC)
        for seq in sequences:
            encoded = seq.video_id.encode("utf-8")
            fh.write(_ID_LENGTH.pack(len(encoded)) + encoded)
            fh.write(_RECORD.pack(seq.length, seq.d, METHOD_TAGS[seq.method]))
            fh.write(f32_bytes(seq.descriptors, f"{path} record {seq.video_id!r}"))


def load_store(path) -> list[DescriptorSequence]:
    """Read sequences from a VLACSTOR file."""
    reader = Reader(path, _STORE_MAGIC)
    sequences = []
    while not reader.at_end():
        (id_length,) = reader.unpack(_ID_LENGTH, "a record header")
        raw_id = reader.bytes(id_length, "a record header")
        try:
            video_id = raw_id.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path} record {len(sequences)} has a video id that is not "
                f"UTF-8: {raw_id!r}"
            ) from exc
        g, d, tag = reader.unpack(_RECORD, "a record header")
        if tag not in TAG_METHODS:
            raise DataError(f"{path} has unknown method tag {tag}")
        descriptors = reader.f32(g, d, f"record {video_id!r}")
        sequences.append(DescriptorSequence(video_id, descriptors, TAG_METHODS[tag]))
    return sequences
