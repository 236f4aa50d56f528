"""Small builders shared by the test modules."""

import struct
from dataclasses import fields

import numpy as np

from vlac import ModelParams, Video


def make_video(rng, num_frames, dim, features_per_frame=4, scale=1.0,
               start_index=0):
    """A video of random frames with Gaussian features."""
    return Video.from_frames(
        [rng.normal(0.0, scale, size=(features_per_frame, dim))
         for _ in range(num_frames)],
        range(start_index, start_index + num_frames),
    )


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
