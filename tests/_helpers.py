"""Small builders shared by the test modules."""

import struct
from dataclasses import fields

import numpy as np

from vlac import ModelParams, Video
from vlac.fileio import atomic_write, f32_bytes
from vlac.ingestion import (
    _FEAT_HEADER,
    _FEAT_MAGIC,
    _FEAT_VERSION,
    _FRAME_HEADER,
    _MIXING_CONCENTRATION,
)


def make_video(rng, num_frames, dim, features_per_frame=4, scale=1.0,
               start_index=0):
    """A video of random frames with Gaussian features."""
    return Video.from_frames(
        [rng.normal(0.0, scale, size=(features_per_frame, dim))
         for _ in range(num_frames)],
        range(start_index, start_index + num_frames),
    )


def write_features_by_frame(video, path, *, overwrite=False):
    """The frame-by-frame VLACFEAT writer, kept as the reference for
    ``write_features``: each frame's header and its own float32 cast and
    check, written one after the other."""
    with atomic_write(path, overwrite=overwrite) as fh:
        fh.write(_FEAT_MAGIC
                 + _FEAT_HEADER.pack(_FEAT_VERSION, video.dim, len(video)))
        for t, frame_index in enumerate(video.frame_index.tolist()):
            rows = video.features[video.rows(t, t + 1)]
            fh.write(_FRAME_HEADER.pack(frame_index, rows.shape[0]))
            fh.write(f32_bytes(rows, f"{path} frame {frame_index}"))


def synthesize_by_choice(num_videos, frames_per_video, dim, clusters, seed,
                         *, features_per_frame=15, center_spread=10.0,
                         noise_std=0.5):
    """The per-frame ``Generator.choice`` synthesis loop, kept as the
    reference for ``synthesize_videos``: its videos as a tuple, the
    (clusters, dim) cluster means and the (num_videos, clusters) mixing
    weights."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, center_spread, size=(clusters, dim))
    weights = np.empty((num_videos, clusters), dtype=np.float64)
    offsets = np.arange(frames_per_video + 1) * features_per_frame
    videos = []
    for v in range(num_videos):
        weights[v] = rng.dirichlet(np.full(clusters, _MIXING_CONCENTRATION))
        feats = np.empty((offsets[-1], dim), dtype=np.float64)
        for t in range(frames_per_video):
            picks = rng.choice(clusters, size=features_per_frame, p=weights[v])
            feats[offsets[t] : offsets[t + 1]] = means[picks] + rng.normal(
                0.0, noise_std, size=(features_per_frame, dim)
            )
        videos.append(Video(feats, np.arange(frames_per_video), offsets))
    return tuple(videos), means, weights


def frames_of(video):
    """The (count, dim) feature block of each frame of ``video``."""
    return [video.features[video.rows(t, t + 1)] for t in range(len(video))]


# The binary writers refuse non-finite values, so a file holding one is
# written with SENTINEL in its place and then patched by ``poison``.
SENTINEL = 1234.5

# A float32 signaling NaN, as bytes: packing a Python float would quiet it.
SIGNALING_NAN = struct.pack("<I", 0x7F800001)


def poison(path, value):
    """Replace the one float32 SENTINEL in the file at ``path`` by ``value``,
    a float or its four little-endian bytes."""
    data = path.read_bytes()
    mark = struct.pack("<f", SENTINEL)
    assert data.count(mark) == 1
    if not isinstance(value, bytes):
        value = struct.pack("<f", value)
    path.write_bytes(data.replace(mark, value))


def set_model_param(path, name, value):
    """Overwrite one u32 ModelParams field in a VLACMODL file's header,
    which follows the 8-byte magic, the u16 version and the u8 tag."""
    names = [f.name for f in fields(ModelParams)]
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 11 + 4 * names.index(name), value)
    path.write_bytes(bytes(data))


MUTATIONS = ("flip", "truncate", "forge_u32", "insert")


def mutate(data, kind, where, bit, value, u32_fields):
    """``data`` with one mutation at byte ``where`` (modulo its length): a
    flip of bit ``bit``, a truncation, or the inserted byte ``value & 0xFF``;
    or, for "forge_u32", ``value`` written over the u32 that starts at one of
    the offsets ``u32_fields`` (picked by ``where``)."""
    data = bytearray(data)
    pos = where % len(data)
    if kind == "flip":
        data[pos] ^= 1 << bit
    elif kind == "truncate":
        del data[pos:]
    elif kind == "insert":
        data[pos:pos] = bytes([value & 0xFF])
    else:
        struct.pack_into("<I", data, u32_fields[where % len(u32_fields)],
                         value)
    return bytes(data)
