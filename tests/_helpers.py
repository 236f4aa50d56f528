"""Small builders shared by the test modules."""

import struct
from dataclasses import fields

import numpy as np

from vlac import FrameFeatures, GroupOfFrames, ModelParams


def make_frames(rng, num_frames, dim, features_per_frame=4, scale=1.0,
                start_index=0):
    """Random frames with Gaussian features."""
    return [
        FrameFeatures(
            frame_index=start_index + t,
            features=rng.normal(0.0, scale, size=(features_per_frame, dim)),
        )
        for t in range(num_frames)
    ]


def make_gof(rng, num_frames, dim, features_per_frame=4, gof_index=0):
    return GroupOfFrames(
        gof_index=gof_index,
        frames=tuple(make_frames(rng, num_frames, dim, features_per_frame)),
    )


# The binary writers refuse non-finite values, so a file holding one is
# written with SENTINEL in its place and then patched by ``poison``.
SENTINEL = 1234.5


def poison(path, value):
    """Replace the one float32 SENTINEL in the file at ``path`` by ``value``."""
    data = path.read_bytes()
    mark = struct.pack("<f", SENTINEL)
    assert data.count(mark) == 1
    path.write_bytes(data.replace(mark, struct.pack("<f", value)))


def set_model_param(path, name, value):
    """Overwrite one u32 ModelParams field in a VLACMODL file's header,
    which follows the 8-byte magic, the u16 version and the u8 tag."""
    names = [f.name for f in fields(ModelParams)]
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 11 + 4 * names.index(name), value)
    path.write_bytes(bytes(data))
