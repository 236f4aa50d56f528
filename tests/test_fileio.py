import numpy as np
import pytest

from vlac import (
    Codebook,
    DatasetManifest,
    ModelParams,
    ProjectionBasis,
    TrainedModel,
    Video,
    save_model,
    write_features,
    write_store,
)
from vlac.errors import DataError
from vlac.fileio import atomic_write, write_csv
from vlac.ingestion import VideoEntry, save_manifest
from vlac.search import DescriptorSequence

# A model whose basis holds a value float32 cannot: save_model fails after
# the magic, the header and the codebook.
UNSTORABLE_MODEL = TrainedModel(
    method="vlad",
    params=ModelParams(f=2, j=1, d=1),
    codebook=Codebook(centers=np.ones((1, 2)), inertia=0.0),
    basis=ProjectionBasis(rows=np.full((1, 2), 1e39), mean=np.zeros(2),
                          eigenvalues=np.ones(1)),
)


def rows_then_fail(first):
    """Yield one row, then fail as a row source reading bad input would."""
    yield first
    raise DataError("no second row")


# Each writer given input that fails part-way through the write. The CSV
# writers always replace their target, so they ignore ``overwrite``.
FAILING_WRITES = {
    "store": lambda path, overwrite: write_store(
        [DescriptorSequence("v", np.ones((1, 2)), "vlac"),
         DescriptorSequence("w", np.full((1, 2), 1e39), "vlac")],
        path, overwrite=overwrite),
    "features": lambda path, overwrite: write_features(
        Video.from_frames([np.ones((1, 2))] * 2, [0, 2**32]),
        path, overwrite=overwrite),
    "model": lambda path, overwrite: save_model(
        UNSTORABLE_MODEL, path, overwrite=overwrite),
    "manifest": lambda path, overwrite: save_manifest(
        DatasetManifest(videos=(VideoEntry("v", "v.vfeat", object(), ""),),
                        feature_dim=2),
        path, overwrite=overwrite),
    "pr_csv": lambda path, overwrite: write_csv(
        path, ("method", "D", "threshold", "precision", "recall"),
        rows_then_fail(("vlac", 8, 0.5, 1.0, 0.25))),
    "map_csv": lambda path, overwrite: write_csv(
        path, ("method", "D", "mAP"), rows_then_fail(("vlad", 16, 0.75))),
}
WRITE_ERRORS = (DataError, TypeError)


@pytest.mark.parametrize("writer", FAILING_WRITES)
def test_failed_write_leaves_no_file(tmp_path, writer):
    with pytest.raises(WRITE_ERRORS):
        FAILING_WRITES[writer](tmp_path / "out", False)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("writer", FAILING_WRITES)
def test_failed_overwrite_keeps_target(tmp_path, writer):
    target = tmp_path / "out"
    target.write_bytes(b"previous content")
    with pytest.raises(WRITE_ERRORS):
        FAILING_WRITES[writer](target, True)
    assert target.read_bytes() == b"previous content"
    assert list(tmp_path.iterdir()) == [target]


def test_successful_write_replaces_target(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"old")
    with atomic_write(target, overwrite=True) as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [target]

