"""The one-matrix video layout against the per-window stacking it replaced.

The reference below is the encoder and trainer code as it was when a video
was a list of frames: every window stacked its frames' features again, and
VLAD and hyper-pooling encoded every frame of every window on its own.
Hyper-pooling projects its frame VLAD rows once and windows the
projection, in training and encoding alike. The property checks that
training and encoding through :class:`Video` give the same model arrays
and descriptors, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlac import (
    ModelParams,
    PerturbationSpec,
    TrainedModel,
    Video,
    encode_video,
    perturb,
    train,
)
from vlac.aggregation import (
    _HP_SECOND_STAGE_SALT,
    _fit_basis,
    _l2_normalize,
    vlac_encode,
    vlad_encode,
)
from vlac.core_math import kmeans_fit, nearest_centers, pca_fit, pca_project
from vlac.errors import DataError, EmptyGof


def ref_windows(frames, p):
    """Each full window of ``frames`` as a list of frame arrays."""
    stride = p.gof_size - p.overlap
    return [frames[s : s + p.gof_size]
            for s in range(0, len(frames) - p.gof_size + 1, stride)]


def ref_stack(frames):
    return np.concatenate(frames)


def ref_lfcs(window, n, seed):
    pooled = ref_stack(window)
    if pooled.shape[0] == 0:
        raise EmptyGof("empty window")
    return kmeans_fit(pooled, min(n, pooled.shape[0]), seed)


def ref_hp_raw(rows, second, h):
    """One window's hyper-pooling vector from its projected frame rows."""
    labels = nearest_centers(rows[:, :h], second[:, :h])
    return np.concatenate([(rows[labels == c] - second[c]).sum(axis=0)
                           for c in range(len(second))])


def ref_train(method, videos, p):
    """Train on ``videos``, each a list of (count, dim) frame arrays."""
    if method == "vlad":
        p = p.for_method("vlad")
        frames = [f for v in videos for f in v]
        book = kmeans_fit(ref_stack(frames), p.j, p.seed)
        rows = np.stack([vlad_encode(f, book) for f in frames])
        return TrainedModel("vlad", replace(p, f=book.dim), book,
                            _fit_basis(rows, p.d, p.normalize))
    windows = [(i, w) for v in videos for i, w in enumerate(ref_windows(v, p))]
    if not windows:
        raise DataError("no training window")
    if method == "vlac":
        p = p.for_method("vlac")
        lfcs = [ref_lfcs(w, p.n, p.seed ^ i) for i, w in windows]
        clfc = kmeans_fit(np.concatenate([c.centers for c in lfcs]), p.m,
                          p.seed)
        rows = np.stack([vlac_encode(c, clfc) for c in lfcs])
        return TrainedModel("vlac", replace(p, f=clfc.dim), clfc,
                            _fit_basis(rows, p.d, p.normalize))
    p = p.for_method("hp")
    p = replace(p, h=min(p.h, p.d0))
    frames = [f for _, w in windows for f in w]
    first = kmeans_fit(ref_stack(frames), p.alpha1, p.seed)
    frame_rows = np.stack([vlad_encode(f, first) for f in frames])
    # a copy, since the fit centers its input in place
    first_basis = pca_fit(frame_rows.copy(), p.d0)
    projected = pca_project(first_basis, frame_rows)
    head = kmeans_fit(projected[:, :p.h], p.alpha2,
                      p.seed ^ _HP_SECOND_STAGE_SALT)
    labels = nearest_centers(projected[:, :p.h], head.centers)
    full = np.zeros((p.alpha2, p.d0))
    for c in range(p.alpha2):
        members = projected[labels == c]
        if members.shape[0] > 0:
            full[c] = members.mean(axis=0)
        else:
            full[c, :p.h] = head.centers[c]
    second = replace(head, centers=full)
    g = p.gof_size
    rows = np.stack([ref_hp_raw(projected[r : r + g], full, p.h)
                     for r in range(0, len(frames), g)])
    return TrainedModel("hp", replace(p, f=first.dim), first,
                        _fit_basis(rows, p.d, p.normalize),
                        hp_first_basis=first_basis,
                        hp_second_codebook=second)


def ref_encode(frames, model):
    """Encode window by window, then project the stacked raw rows once;
    hyper-pooling projects the video's frame VLAD rows once and windows
    the projected rows."""
    p = model.params
    if model.method == "hp":
        projected = pca_project(
            model.hp_first_basis,
            np.stack([vlad_encode(f, model.codebook) for f in frames]))
        second = model.hp_second_codebook.centers
    raws = []
    for i, window in enumerate(ref_windows(frames, p)):
        if model.method == "vlad":
            raws.append(vlad_encode(ref_stack(window), model.codebook))
        elif model.method == "vlac":
            raws.append(vlac_encode(ref_lfcs(window, p.n, p.seed ^ i),
                                    model.codebook))
        else:
            start = i * (p.gof_size - p.overlap)
            raws.append(ref_hp_raw(projected[start : start + p.gof_size],
                                   second, p.h))
    if not raws:
        return np.empty((0, model.basis.d))
    raw = np.stack(raws)
    return pca_project(model.basis, _l2_normalize(raw) if p.normalize else raw)


def outcome(fn):
    """``fn()``, or the type of the DataError it raised."""
    try:
        return fn()
    except DataError as exc:
        return type(exc)


ARRAYS = [("codebook", "centers"), ("basis", "rows"), ("basis", "mean"),
          ("basis", "eigenvalues"), ("hp_first_basis", "rows"),
          ("hp_first_basis", "mean"), ("hp_first_basis", "eigenvalues"),
          ("hp_second_codebook", "centers")]


def assert_same_model(got, expected):
    assert type(got) is type(expected)
    if not isinstance(got, TrainedModel):
        return
    assert got.params == expected.params
    assert got.codebook.inertia == expected.codebook.inertia
    for stage, part in ARRAYS:
        a, b = getattr(got, stage), getattr(expected, stage)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(getattr(a, part), getattr(b, part)), (
                stage, part)


@st.composite
def layouts(draw):
    """Two videos of random frames, some with zero or one feature."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(seed)
    videos = []
    for _ in range(2):
        counts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=9))
        videos.append([rng.normal(size=(c, dim)) * 3.0 for c in counts])
    return videos


schemas = st.builds(
    ModelParams, f=st.just(0), j=st.integers(1, 3), n=st.integers(1, 4),
    m=st.integers(1, 3), d=st.just(2), d0=st.integers(2, 4),
    alpha1=st.integers(2, 3), alpha2=st.integers(1, 3), h=st.integers(1, 4),
    gof_size=st.just(1), overlap=st.just(0),
    seed=st.integers(0, 2**32 - 1), normalize=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(frames=layouts(), schema=schemas,
       window=st.sampled_from([(1, 0), (2, 0), (2, 1), (3, 1), (3, 2),
                               (4, 1)]),
       method=st.sampled_from(["vlad", "vlac", "hp"]))
def test_matches_per_window_stacking(frames, schema, window, method):
    schema = replace(schema, gof_size=window[0], overlap=window[1])
    videos = [Video.from_frames(v) for v in frames]
    model = outcome(lambda: train(method, videos, schema))
    assert_same_model(model, outcome(lambda: ref_train(method, frames,
                                                       schema)))
    if isinstance(model, TrainedModel):
        for video, video_frames in zip(videos, frames):
            got = outcome(lambda: encode_video(video, model))
            expected = outcome(lambda: ref_encode(video_frames, model))
            if isinstance(expected, type):
                assert got is expected
            else:
                assert np.array_equal(got, expected)


@pytest.mark.parametrize("kind", ["additive_gaussian", "component_dropout"])
def test_perturb_draws_like_frame_by_frame(kind):
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(c, 5)) for c in (4, 0, 1, 7, 3)]
    spec = PerturbationSpec(kind=kind, magnitude=0.3, seed=11)
    got = perturb(Video.from_frames(frames), spec)
    draws = np.random.default_rng(spec.seed)
    expected = []
    for f in frames:
        if kind == "additive_gaussian":
            expected.append(f + draws.normal(0.0, 0.3, size=f.shape))
        else:
            expected.append(np.where(draws.random(size=f.shape) < 0.3, 0.0, f))
    assert np.array_equal(got.features, np.concatenate(expected))
    assert np.array_equal(got.offsets, Video.from_frames(frames).offsets)
