"""The VLACFEAT, VLACSTOR and VLACMODL files and the two manifests: their
exact bytes, and how each reader fails on a damaged file."""

import hashlib
import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    MUTATIONS,
    SENTINEL,
    SIGNALING_NAN,
    mutate,
    poison,
    set_model_param,
)
from vlac import (
    Codebook,
    DatasetManifest,
    ModelParams,
    ProjectionBasis,
    QueryManifest,
    TrainedModel,
    Video,
    load_features,
    load_model,
    load_store,
    save_model,
    write_features,
    write_store,
)
from vlac.aggregation import _ARRAY_SHAPE, _model_arrays, _stage
from vlac.errors import BadMagic, DataError
from vlac.ingestion import QueryEntry, VideoEntry, save_manifest
from vlac.search import DescriptorSequence


def grid(rows, cols, start=0.0):
    """A (rows, cols) matrix of values that float32 holds exactly."""
    return (start + np.arange(rows * cols).reshape(rows, cols)) / 4


def codebook(k, dim):
    return Codebook(centers=grid(k, dim, 1.0), inertia=2.5)


def basis(d, width):
    return ProjectionBasis(rows=grid(d, width), mean=grid(1, width, 3.0)[0],
                           eigenvalues=grid(1, d, 5.0)[0])


MODELS = {
    "vlad": TrainedModel(
        method="vlad", params=ModelParams(f=2, j=2, d=1, seed=9),
        codebook=codebook(2, 2), basis=basis(1, 4)),
    "vlac": TrainedModel(
        method="vlac", params=ModelParams(f=2, n=3, m=2, d=1, seed=9),
        codebook=codebook(2, 2), basis=basis(1, 4)),
    "hp": TrainedModel(
        method="hp",
        params=ModelParams(f=2, d0=2, alpha1=2, alpha2=2, h=1, d=1, seed=9,
                           normalize=True),
        codebook=codebook(2, 2), basis=basis(1, 4),
        hp_first_basis=basis(2, 4), hp_second_codebook=codebook(2, 2)),
}
VIDEO = Video.from_frames([grid(2, 3), grid(1, 3, 6.0)], [0, 3])
SEQUENCES = [DescriptorSequence("a", grid(2, 2), "vlac"),
             DescriptorSequence("b", grid(1, 2, 4.0), "vlac")]
MANIFEST = DatasetManifest(
    videos=(VideoEntry("a", "a.vfeat", 0.5, "clean"),), feature_dim=3,
    notes="pinned")
QUERIES = QueryManifest(
    queries=(QueryEntry("a_q", "a_q.vfeat", 0.5, "clean", "a", 4),),
    feature_dim=3)

WRITERS = {
    "features": lambda path: write_features(VIDEO, path),
    "store": lambda path: write_store(SEQUENCES, path),
    "vlad_model": lambda path: save_model(MODELS["vlad"], path),
    "vlac_model": lambda path: save_model(MODELS["vlac"], path),
    "hp_model": lambda path: save_model(MODELS["hp"], path),
    "manifest": lambda path: save_manifest(MANIFEST, path),
    "query_manifest": lambda path: save_manifest(QUERIES, path),
}
# sha256 of each file above as the separate per-module codecs wrote it,
# before they were merged into one; a layout change must show up here.
DIGESTS = {
    "features": "c4d84c8a13e250101764225d2a4ad623933bae774dfcda0d06b0319a16fb1dc1",
    "store": "3888f3a6a1342e814b23067cab41153097937323fb88027df3af9bf36c4b1630",
    "vlad_model": "ebac9ea34d02e3de4630530e04604f3d6e0f1cac6fdc6992320607678e408900",
    "vlac_model": "0bf99acbd714748678da5a27815ce53a50bff773fb6106599ca1d7e22112923e",
    "hp_model": "a87aa7f1271d93add7caf7d371a07c7cba281eea23bfb7f54a802092d3dc3a45",
    "manifest": "0e20937477d9df61fb6b24e398fca79c042399aecfb7761a2e9abfa5472fe138",
    "query_manifest": "705e183d51ba58c1562b429d4ba117c4d9fbccd0aa6e587da35a057bc2416e10",
}


@pytest.mark.parametrize("name", WRITERS)
def test_layout_is_pinned(tmp_path, name):
    path = tmp_path / name
    WRITERS[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


# Each binary format: its writer, its reader, and the offset and new value
# of a version or method-tag field that makes the file unsupported.
BINARY = {
    "features": (WRITERS["features"], load_features, 8, struct.pack("<H", 2)),
    "store": (WRITERS["store"], load_store, 8 + 4 + 1 + 8, b"\x09"),
    "vlad_model": (WRITERS["vlad_model"], load_model, 8, struct.pack("<H", 2)),
    "hp_model": (WRITERS["hp_model"], load_model, 10, b"\x09"),
}


def damaged(tmp_path, name, edit):
    """Write ``name``'s file, pass its bytes through ``edit``, return the path."""
    write, _, _, _ = BINARY[name]
    path = tmp_path / name
    write(path)
    path.write_bytes(edit(path.read_bytes()))
    return path


def store_boundaries():
    """The byte offsets at which SEQUENCES' store records end."""
    ends, pos = [8], 8
    for seq in SEQUENCES:
        pos += 4 + len(seq.video_id.encode()) + 9 + 4 * seq.descriptors.size
        ends.append(pos)
    return ends


@pytest.mark.parametrize("name", BINARY)
class TestDamagedFiles:
    def test_wrong_magic(self, tmp_path, name):
        path = damaged(tmp_path, name, lambda data: b"NOTMAGIC" + data[8:])
        with pytest.raises(BadMagic):
            BINARY[name][1](path)

    def test_shorter_than_magic(self, tmp_path, name):
        path = damaged(tmp_path, name, lambda data: data[:5])
        with pytest.raises(BadMagic):
            BINARY[name][1](path)

    def test_every_strict_prefix(self, tmp_path, name):
        _, load, _, _ = BINARY[name]
        data = damaged(tmp_path, name, lambda data: data).read_bytes()
        boundaries = store_boundaries() if name == "store" else []
        path = tmp_path / "prefix"
        for size in range(len(data)):
            path.write_bytes(data[:size])
            if size in boundaries:
                leading = load(path)
                count = boundaries.index(size)
                assert [s.video_id for s in leading] == [
                    s.video_id for s in SEQUENCES[:count]]
            else:
                with pytest.raises(DataError):
                    load(path)

    def test_trailing_byte(self, tmp_path, name):
        path = damaged(tmp_path, name, lambda data: data + b"\x00")
        with pytest.raises(DataError):
            BINARY[name][1](path)

    def test_unknown_version_or_tag(self, tmp_path, name):
        _, load, offset, value = BINARY[name]
        path = damaged(
            tmp_path, name,
            lambda data: data[:offset] + value + data[offset + len(value):])
        with pytest.raises(DataError, match="version|tag"):
            load(path)


BAD_VALUES = {"nan": np.nan, "inf": np.inf, "float32_overflow": 1e39}


def with_value(value):
    """One object per binary writer, each holding ``value`` once."""
    features = grid(2, 3)
    features[1, 2] = value
    descriptors = grid(2, 2)
    descriptors[0, 1] = value
    centers = grid(2, 2)
    centers[1, 0] = value
    model = MODELS["vlad"]
    return {
        "features": lambda path: write_features(
            Video.from_frames([features]), path),
        "store": lambda path: write_store(
            [DescriptorSequence("v", descriptors, "vlac")], path),
        "model": lambda path: save_model(
            replace(model, codebook=replace(model.codebook, centers=centers)),
            path),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("writer", ["features", "store", "model"])
def test_writer_refuses_non_finite(tmp_path, writer, value):
    with pytest.raises(DataError, match="non-finite"):
        with_value(BAD_VALUES[value])[writer](tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_load_model_rejects_nan(tmp_path):
    path = tmp_path / "m.bin"
    with_value(SENTINEL)["model"](path)
    poison(path, np.nan)
    with pytest.raises(DataError, match="non-finite"):
        load_model(path)


LOADERS = {"features": load_features, "store": load_store, "model": load_model}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_refuses_signaling_nan(tmp_path, kind):
    # numpy reports the cast of a signaling NaN to float64 as an invalid
    # value; the loader must refuse the payload without that warning
    path = tmp_path / kind
    with_value(SENTINEL)[kind](path)
    poison(path, SIGNALING_NAN)
    with pytest.raises(DataError, match="non-finite"):
        LOADERS[kind](path)


# Per method, every header field that fixes an array shape; each is bumped
# by one.
SHAPE_FIELDS = [("vlad", "f"), ("vlad", "j"), ("vlad", "d"),
                ("vlac", "f"), ("vlac", "m"), ("vlac", "d"),
                ("hp", "f"), ("hp", "alpha1"), ("hp", "d0"),
                ("hp", "alpha2"), ("hp", "d")]
# Header fields that fix no shape but that no trainer writes at some values:
# the bad value and the error it must raise. Hyper-pooling quantizes on
# h <= d0 (2) components; split_gofs cannot cut windows with gof_size 0 or
# overlap >= gof_size (5); a field only another method reads is stored as 0.
RANGE_FIELDS = {
    ("hp", "h"): (3, "between 1 and d0"),
    ("vlad", "gof_size"): (0, "overlap < gof_size"),
    ("vlad", "overlap"): (5, "overlap < gof_size"),
    ("vlad", "alpha2"): (7, "alpha2, which only other methods read"),
}


@pytest.mark.parametrize("method,field", SHAPE_FIELDS + list(RANGE_FIELDS))
def test_header_must_match_array_shapes(tmp_path, method, field):
    model = MODELS[method]
    wrong, match = RANGE_FIELDS.get(
        (method, field), (getattr(model.params, field) + 1, "shape"))
    path = tmp_path / "m.bin"
    save_model(model, path)
    set_model_param(path, field, wrong)
    with pytest.raises(DataError, match=match) as exc:
        load_model(path)
    assert str(path) in str(exc.value)
    # a range field is refused as the model is built, a shape field on save
    with pytest.raises(DataError, match=match):
        bad = replace(model, params=replace(model.params, **{field: wrong}))
        save_model(bad, tmp_path / "bad.bin")
    assert not (tmp_path / "bad.bin").exists()


@pytest.mark.parametrize("value", [2, 2**32 - 1])
def test_normalize_other_than_0_or_1_is_refused(tmp_path, value):
    # bool(value) would load as True and save back as 1
    path = tmp_path / "m.bin"
    save_model(MODELS["vlad"], path)
    set_model_param(path, "normalize", value)
    with pytest.raises(DataError, match="normalize must be bool") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_store_id_not_utf8(tmp_path):
    # the first id byte follows the magic and the u32 id length
    path = damaged(tmp_path, "store",
                   lambda data: data[:12] + b"\xff" + data[13:])
    with pytest.raises(DataError, match="not UTF-8") as exc:
        load_store(path)
    assert str(path) in str(exc.value)


# ---------------------------------------------------------------------------
# mutated files
# ---------------------------------------------------------------------------


def float32_values(rng, shape):
    return rng.normal(size=shape).astype(np.float32).astype(np.float64)


@st.composite
def stores(draw):
    """Valid store contents: one to three sequences of random shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        DescriptorSequence(draw(st.text(max_size=3)),
                           float32_values(rng, (draw(st.integers(1, 3)),
                                                draw(st.integers(1, 3)))),
                           draw(st.sampled_from(["vlad", "vlac", "hp"])))
        for _ in range(draw(st.integers(1, 3)))
    ]


def vstor_u32_fields(sequences):
    """Byte offsets of every u32 in the store file of ``sequences``: per
    record the id length, the GoF count and the dimension."""
    at, pos = [], 8
    for seq in sequences:
        pos += 4 + len(seq.video_id.encode())
        at += [pos - 4 - len(seq.video_id.encode()), pos, pos + 4]
        pos += 9 + 4 * seq.descriptors.size
    return at


@st.composite
def models(draw):
    """Valid models of every method: small random parameters, and random
    float32 values in every array the parameters imply."""
    method = draw(st.sampled_from(["vlad", "vlac", "hp"]))
    size = st.integers(1, 3)
    gof_size = draw(st.integers(1, 4))
    params = ModelParams(
        f=draw(size), j=draw(size), n=draw(size), m=draw(size), d=draw(size),
        d0=3, alpha1=draw(size), alpha2=draw(size), h=draw(size),
        gof_size=gof_size, overlap=draw(st.integers(0, gof_size - 1)),
        seed=draw(st.integers(0, 2**32 - 1)), normalize=draw(st.booleans()),
    ).for_method(method)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = {}
    for name, part, shape in _model_arrays(method, params):
        arrays.setdefault(name, {})[part] = float32_values(rng, shape)
    return TrainedModel(method=method, params=params, **{
        name: _stage(parts) for name, parts in arrays.items()})


def vlacmodl_u32_fields(model):
    """Byte offsets of every u32 in ``model``'s file: each parameter, then
    each array's rows and cols."""
    at = [11 + 4 * i for i in range(len(fields(ModelParams)))]
    pos = at[-1] + 4
    for _, _, (rows, cols) in _model_arrays(model.method, model.params):
        at += [pos, pos + 4]
        pos += _ARRAY_SHAPE.size + 4 * rows * cols
    return at


mutations = dict(kind=st.sampled_from(MUTATIONS), where=st.integers(0, 2**16),
                 bit=st.integers(0, 7),
                 value=st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)))


def loads_or_raises_data_error(write, load, u32_fields, kind, where, bit,
                               value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m"
        write(path)
        path.write_bytes(mutate(path.read_bytes(), kind, where, bit, value,
                                u32_fields))
        try:
            load(path)
        except DataError:
            pass


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(sequences=stores(), **mutations)
def test_mutated_store_loads_or_raises_data_error(sequences, kind, where,
                                                  bit, value):
    loads_or_raises_data_error(lambda path: write_store(sequences, path),
                               load_store, vstor_u32_fields(sequences),
                               kind, where, bit, value)


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(model=models(), **mutations)
def test_mutated_model_loads_or_raises_data_error(model, kind, where, bit,
                                                  value):
    loads_or_raises_data_error(lambda path: save_model(model, path),
                               load_model, vlacmodl_u32_fields(model),
                               kind, where, bit, value)
