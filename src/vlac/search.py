"""Similarity scoring, max-over-alignment matching and retrieval.

Similarity is the raw inner product of compact descriptors; sequences are
compared at every alignment of the shorter one inside the longer one and
the best alignment wins. :func:`retrieve` stacks the store's descriptors
into one (sum of G, d) matrix and takes one product of the query with it;
each shift's score is then a diagonal sum over that product, made by
adding the shorter sequence's rows in order. When the query is longer
than a stored sequence the roles swap and the stored one slides along the
query. Within an entry the smallest best shift wins; between entries a
higher score ranks first and equal scores rank by video_id.
:func:`aligned_similarity` is :func:`retrieve` on a one-entry store.

A store file (``VLACSTOR``) holds the magic, then until the end of the
file one record per video: the UTF-8 video_id's length (u32) and bytes,
the GoF count G (u32), descriptor dimension d (u32) and method tag (u8),
and G*d float32 values. No video_id appears twice. The checks and the
float32 codec live in :mod:`vlac.fileio`; round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .aggregation import METHOD_TAGS, TAG_METHODS
from .errors import DataError, DimensionMismatch, EmptyStore
from .fileio import Reader, atomic_write, f32_bytes, refuse_repeats

_STORE_MAGIC = b"VLACSTOR"
_ID_LENGTH = struct.Struct("<I")
_RECORD = struct.Struct("<IIB")  # GoF count, descriptor dim, method tag


@dataclass(frozen=True)
class DescriptorSequence:
    """Ordered per-GoF descriptors of one video, a finite (G, d) float64
    matrix, and the method that encoded them, one with a VLACSTOR tag.
    DataError for a ``video_id`` that is not a string."""

    video_id: str
    descriptors: np.ndarray
    method: str

    def __post_init__(self):
        if not isinstance(self.video_id, str):
            raise DataError(
                f"sequence video_id must be a string, got {self.video_id!r}")
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
        if self.method not in METHOD_TAGS:
            raise DataError(
                f"sequence {self.video_id!r} has unknown method {self.method!r}"
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


def _best_alignments(
    query: np.ndarray, packed: np.ndarray, lengths: np.ndarray,
    first_k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best aligned score and shift of ``query`` against every entry of a
    packed store, two arrays with one value per entry.

    ``packed`` stacks the entries' (G, d) matrices in order and ``lengths``
    holds their G. One product ``query @ packed.T`` gives every per-position
    inner product. An entry at least as long as the query scores shift k
    as the sum over query rows i of ``products[i, start + i + k]``; an
    entry shorter than the query swaps roles and sums over its own rows j
    of ``products[k + j, start + j]``, into one row of scores per shorter
    entry. Either way the shorter sequence's rows are added in order,
    starting from 0, and each entry's shifts lie side by side. Shifts run
    from ``first_k`` to the length difference; the first maximum wins.
    """
    g = query.shape[0]
    starts = np.cumsum(lengths) - lengths
    products = query @ packed.T
    # diagonals from row 0, one per column, for entries at least g long
    width = packed.shape[0] - g + 1
    diagonals = np.zeros(max(width, 0))
    if np.any(lengths >= g):
        for i in range(g):
            diagonals += products[i, i : i + width]
    # one row of scores per shorter entry, which slides along the query:
    # column k is its shift k, with the entry's rows j added in order
    shorter = np.flatnonzero(lengths < g)
    swapped = np.zeros((shorter.size, g))
    for j in range(int(lengths[shorter].max(initial=0))):
        adding = np.flatnonzero(lengths[shorter] > j)
        swapped[adding, : g - j] += products[j:, starts[shorter[adding]] + j].T

    # every entry's candidate scores in one flat array: entry e's shift k
    # is candidates[base[e] + k]
    candidates = np.concatenate([diagonals, swapped.ravel()])
    base = starts.copy()
    base[shorter] = diagonals.size + g * np.arange(shorter.size)
    counts = np.abs(lengths - g) + 1 - first_k
    first = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(first, counts) + first_k
    scores = candidates[np.repeat(base, counts) + k]
    best = np.maximum.reduceat(scores, first)
    # the first position reaching its entry's maximum ("not below" so that
    # a NaN maximum still marks a position inside its own entry)
    hits = np.flatnonzero(~(scores < np.repeat(best, counts)))
    at = hits[np.searchsorted(hits, first)]
    return scores[at], k[at]


def aligned_similarity(
    query: DescriptorSequence,
    target: DescriptorSequence,
    *,
    strict_paper_range: bool = False,
) -> tuple[float, int]:
    """Best inner-product sum over all alignments of the shorter sequence.

    The shorter of the two sequences is slid over the longer one; at shift
    k the score is the sum of per-position inner products. Returns the
    maximum score and its shift, ties resolved to the smallest shift. This
    is :func:`retrieve`'s scoring applied to a one-entry store.

    By default the shift range is {0, ..., G2 - G1}, which always includes
    the identity alignment. ``strict_paper_range`` restricts it to
    {1, ..., G2 - G1}, which is empty for equal lengths and then raises.
    """
    (best,) = retrieve(query, [target], top_k=0,
                       strict_paper_range=strict_paper_range).matches
    return best.score, best.offset


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

    Every entry is scored by its best alignment (see the module
    docstring), from one product of the query with the whole store. The
    store is refused when it is empty (EmptyStore), repeats a video_id
    (DataError), holds another descriptor dim (DimensionMismatch) or
    another method (DataError), or, under ``strict_paper_range``, an entry
    of the query's length (DataError). Exactly one of
    ``threshold`` (keep scores >= threshold; -inf keeps everything, inf
    nothing, NaN is refused) and ``top_k`` (keep the k best; 0 keeps
    everything) must be given. The ranking sorts by score descending with
    video_id as the tie-breaker, so equal inputs always produce identical
    output. ``normalize_by_length`` divides each score by the aligned
    length for cross-length comparability.
    """
    if (threshold is None) == (top_k is None):
        raise ValueError("pass exactly one of threshold= or top_k=")
    if threshold is not None and np.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    entries = list(store)
    if not entries:
        raise EmptyStore("cannot retrieve from an empty store")
    refuse_repeats("store", "video id", (seq.video_id for seq in entries))
    lengths = np.array([seq.length for seq in entries])
    dims = {seq.d for seq in entries} - {query.d}
    if dims:
        raise DimensionMismatch(
            f"sequences have descriptor dims {query.d} and {min(dims)}"
        )
    methods = {seq.method for seq in entries} - {query.method}
    if methods:
        raise DataError(
            f"sequences mix methods {query.method!r} and {min(methods)!r}"
        )
    if strict_paper_range and np.any(lengths == query.length):
        raise DataError(
            "strict alignment range {1..G2-G1} is empty for equal lengths"
        )
    scores, shifts = _best_alignments(
        query.descriptors, np.concatenate([s.descriptors for s in entries]),
        lengths, int(strict_paper_range),
    )
    if normalize_by_length:
        scores = scores / np.minimum(lengths, query.length)
    matches = [
        RankedMatch(seq.video_id, score, shift)
        for seq, score, shift in zip(entries, scores.tolist(), shifts.tolist())
    ]
    matches.sort(key=lambda m: (-m.score, m.video_id))
    if threshold is not None:
        matches = [m for m in matches if m.score >= threshold]
    elif top_k:
        matches = matches[: int(top_k)]
    return RetrievalResult(matches=tuple(matches))


def write_store(sequences, path, *, overwrite: bool = False) -> None:
    """Serialize sequences to a VLACSTOR file (bit-exact round trip).
    A repeated video_id raises DataError before any byte is written."""
    sequences = list(sequences)
    refuse_repeats(path, "video id", (seq.video_id for seq in sequences))
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(_STORE_MAGIC)
        for seq in sequences:
            encoded = seq.video_id.encode("utf-8")
            fh.write(_ID_LENGTH.pack(len(encoded)) + encoded)
            fh.write(_RECORD.pack(seq.length, seq.d, METHOD_TAGS[seq.method]))
            fh.write(f32_bytes(seq.descriptors, f"{path} record {seq.video_id!r}"))


def load_store(path) -> list[DescriptorSequence]:
    """Read sequences from a VLACSTOR file; DataError for a repeated
    video_id, which would rank one video twice."""
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
    refuse_repeats(path, "video id", (seq.video_id for seq in sequences))
    return sequences
