"""Command-line front end: synth, train, encode, search, evaluate, stability.

Every command is reproducible under a fixed seed and emits structured logs
(one JSON object per line) on stdout; each command's events carry
``duration_s``, the seconds the command (for ``stability``, the method,
after the one perturbation all methods share) took; the ``trained``,
``encoded`` and ``stability`` events also carry ``peak_rss_mb``, the
process's resident memory high-water mark so far, and the ``synthesized``
event splits its time into ``draw_s`` (drawing the videos in memory) and
``write_s`` (writing every file) and counts the feature rows drawn as
``features``.
Exit codes: 0 success, 2 data or usage error (``DataError``,
``ValueError``, ``OSError``, bad JSON), 3 numeric failure (numpy's
``LinAlgError`` or ``FloatingPointError``). Commands overwrite their own
output files so reruns are idempotent, and every output file is written
all-or-nothing: a failed command leaves an existing file unchanged.

A manifest's feature files are read one at a time, when a command reaches
them. ``train`` hands the videos to the trainer as a one-pass iterator
(see :mod:`vlac.aggregation` for how long each trainer holds them).
``encode`` reads, perturbs and encodes one video at a time and drops it
before it reads the next, so its memory does not grow with the manifest.
``stability`` trains every method on every clean and every noisy video,
so it holds all of them for the whole command.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import resource
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .aggregation import (
    METHOD_VLAC,
    METHODS,
    ModelParams,
    encode_video,
    load_model,
    save_model,
    train,
    train_hp,  # noqa: F401 (bench tests check tracing patches this name too)
)
from .errors import DataError
from .evaluation import (
    GroundTruth,
    STABILITY_METHODS,
    map_from_retrievals,
    plot_pr_svg,
    pr_curve,
    sign_aligned_alignment_score,
    stability_bases,
    write_map_csv,
    write_pr_csv,
)
from .core_math import basis_alignment_score
from .fileio import write_csv
from .ingestion import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    load_features,
    load_manifest,
    load_query_manifest,
    make_queries,
    perturb_videos,
    synthesize_videos,
    write_dataset,
)
from .search import DescriptorSequence, load_store, retrieve, write_store

RESULTS_CSV_COLUMNS = (
    "query_id", "rank", "video_id", "score", "offset", "method", "D",
)

# The reference parameterization. f is not settable: it always comes from
# the manifest's feature_dim.
DEFAULT_PARAMS = ModelParams(
    f=0, j=128, n=256, m=16, d=256, d0=512, alpha1=128, alpha2=32, h=64,
    gof_size=5, overlap=1, seed=0, normalize=False,
)
# ModelParams fields that are both config keys and flags
_SETTABLE = tuple(field for field in fields(ModelParams) if field.name != "f")


def _log(event: str, **extra) -> None:
    print(json.dumps({"event": event, **extra}, sort_keys=True), flush=True)


def _peak_rss_mb() -> float:
    """The process's resident-memory high-water mark so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_config(args, feature_dim: int) -> ModelParams:
    """The run's parameters: defaults, overridden by the --config JSON,
    overridden by explicit flags. ``f`` is always ``feature_dim``."""
    params = replace(DEFAULT_PARAMS, f=feature_dim)
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise DataError("config file must hold a JSON object")
        unknown = set(doc) - {field.name for field in _SETTABLE}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        params = replace(params, **doc)
    flags = {
        field.name: getattr(args, field.name)
        for field in _SETTABLE
        if getattr(args, field.name) is not None
    }
    params = replace(params, **flags)
    for field in fields(ModelParams):
        value = getattr(params, field.name)
        minimum = field.metadata.get("min", 1)
        if type(value) is int and value < minimum:
            raise DataError(f"config {field.name} must be >= {minimum}")
    if params.overlap >= params.gof_size:
        raise DataError("config must satisfy 0 <= overlap < gof_size")
    return params


def _manifest_videos(path, *, queries: bool = False):
    """The feature dimension of a dataset (or, with ``queries``, a query)
    manifest, its video (or query) ids in manifest order, and its videos in
    that order as a one-pass iterator: each feature file is read only when
    the iterator reaches it, and the caller decides how long to hold it."""
    path = Path(path)
    if queries:
        manifest = load_query_manifest(path)
        entries = [(q.query_id, q.feature_file) for q in manifest.queries]
    else:
        manifest = load_manifest(path)
        entries = [(v.video_id, v.feature_file) for v in manifest.videos]
    dim = manifest.feature_dim
    videos = (load_features(path.parent / rel, expected_dim=dim)
              for _, rel in entries)
    return dim, [video_id for video_id, _ in entries], videos


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check_float_flag(flag: str, value: float, *, positive=False) -> None:
    """DataError naming ``flag`` unless ``value`` is finite and >= 0, or
    > 0 when ``positive``."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        rule = "> 0" if positive else ">= 0"
        raise DataError(f"{flag} must be finite and {rule}, got {value}")


def cmd_synth(args) -> int:
    start = time.perf_counter()
    _check_float_flag("--fps", args.fps, positive=True)
    _check_float_flag("--center-spread", args.center_spread)
    _check_float_flag("--noise-std", args.noise_std)
    root = Path(args.data_root)
    # one synthesis covers train + test so both share the feature vocabulary;
    # the first train_videos videos are the training split
    data = synthesize_videos(
        args.train_videos + args.videos, args.frames, args.dim, args.clusters,
        args.seed, features_per_frame=args.features_per_frame,
        center_spread=args.center_spread, noise_std=args.noise_std,
    )
    drawn = time.perf_counter()
    ids = [f"video_{v:03d}" for v in range(len(data.videos))]
    cut = args.train_videos
    train_manifest = write_dataset(
        root / "train", ids[:cut], data.videos[:cut], fps_sampled=args.fps,
        notes="training split", overwrite=True,
    )
    test_manifest = write_dataset(
        root / "test", ids[cut:], data.videos[cut:], fps_sampled=args.fps,
        notes="test split", overwrite=True,
    )
    qmanifest = make_queries(
        test_manifest,
        data.videos[cut:],
        root / "queries",
        segment_len_frames=args.segment_len,
        offset_frames=args.offset,
        seed=args.seed + 1,
        overwrite=True,
    )
    written = time.perf_counter()
    _log(
        "synthesized",
        train_manifest=str(root / "train" / "manifest.json"),
        test_manifest=str(root / "test" / "manifest.json"),
        query_manifest=str(root / "queries" / "manifest.json"),
        train_videos=len(train_manifest.videos),
        test_videos=len(test_manifest.videos),
        queries=len(qmanifest.queries),
        features=sum(video.features.shape[0] for video in data.videos),
        draw_s=drawn - start,
        write_s=written - drawn,
        duration_s=time.perf_counter() - start,
    )
    return 0


def cmd_train(args) -> int:
    start = time.perf_counter()
    dim, _, videos = _manifest_videos(args.manifest)
    model = train(args.method, videos, load_config(args, dim))
    f32_error = save_model(model, args.out, overwrite=True)
    bases = {
        name: {"solver": basis.solver,
               "retained_variance": basis.retained_variance}
        for name, basis in (("hp_first_basis", model.hp_first_basis),
                            ("basis", model.basis))
        if basis is not None
    }
    codebooks = {
        name: {"iterations": len(book.inertia_history),
               "converged": book.converged, "refills": book.refills,
               "seeding": book.seeding}
        for name, book in (("codebook", model.codebook),
                           ("hp_second_codebook", model.hp_second_codebook))
        if book is not None
    }
    _log(
        "trained",
        method=args.method,
        out=str(args.out),
        inertia=model.codebook.inertia,
        eigenvalues=[float(x) for x in model.basis.eigenvalues],
        bases=bases,
        codebooks=codebooks,
        lfc_fits=model.lfc_fits,
        f32_error=f32_error,
        peak_rss_mb=_peak_rss_mb(),
        duration_s=time.perf_counter() - start,
    )
    return 0


def _encode_one(video_id, video, model):
    descriptors = encode_video(video, model)
    if descriptors.shape[0] == 0:
        raise DataError(
            f"{video_id} is shorter than one {model.params.gof_size}-frame window"
        )
    return DescriptorSequence(video_id, descriptors, model.method)


def cmd_encode(args) -> int:
    start = time.perf_counter()
    model = load_model(args.model)
    _, ids, videos = _manifest_videos(args.manifest, queries=args.queries)
    if args.perturb:
        videos = perturb_videos(videos, PerturbationSpec(
            kind=args.perturb, magnitude=args.magnitude, seed=args.perturb_seed
        ))
    # map drops each video once it is encoded, before the next is read
    sequences = list(map(_encode_one, ids, videos, itertools.repeat(model)))
    write_store(sequences, args.out, overwrite=True)
    _log(
        "encoded",
        out=str(args.out),
        method=model.method,
        videos=len(sequences),
        gofs=[s.length for s in sequences],
        peak_rss_mb=_peak_rss_mb(),
        duration_s=time.perf_counter() - start,
    )
    return 0


def cmd_search(args) -> int:
    start = time.perf_counter()
    store = load_store(args.store)
    queries = load_store(args.queries)
    if args.threshold is not None:
        mode = dict(threshold=args.threshold)
    else:
        mode = dict(top_k=args.top_k)

    results, latencies_ms = [], []
    for seq in queries:
        begin = time.perf_counter()
        results.append(retrieve(
            seq, store,
            normalize_by_length=args.normalize_by_length,
            strict_paper_range=args.strict_alignment,
            **mode,
        ))
        latencies_ms.append(1000.0 * (time.perf_counter() - begin))
    # how far each query's best match stands above its second best
    margins = [r.matches[0].score - r.matches[1].score
               for r in results if len(r.matches) >= 2]

    d = store[0].d if store else 0
    method = store[0].method if store else ""
    write_csv(args.out, RESULTS_CSV_COLUMNS, (
        [seq.video_id, rank, m.video_id, repr(m.score), m.offset, method, d]
        for seq, result in zip(queries, results)
        for rank, m in enumerate(result.matches, start=1)
    ))
    _log("searched", out=str(args.out), queries=len(queries),
         store=len(store),
         retrieve_p50_ms=_percentile(latencies_ms, 50),
         retrieve_p90_ms=_percentile(latencies_ms, 90),
         top_margin_min=min(margins, default=None),
         top_margin_median=_percentile(margins, 50),
         duration_s=time.perf_counter() - start)
    return 0


def _percentile(values, q):
    """The ``q``-th percentile of ``values``, or None when there are none."""
    return float(np.percentile(values, q)) if values else None


def _read_results_csv(path):
    """The (video_id, score) rows of each query, and the method and D of
    the rows; both are None for a file without rows, which cannot say."""
    by_query: dict[str, list[tuple[str, float]]] = {}
    method, d = None, None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(RESULTS_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"results CSV is missing columns {sorted(missing)}")
        for row in reader:
            score = float(row["score"])
            if not math.isfinite(score):
                raise DataError(
                    f"query {row['query_id']!r} has non-finite score "
                    f"{row['score']!r}"
                )
            by_query.setdefault(row["query_id"], []).append(
                (row["video_id"], score)
            )
            method, d = row["method"], int(row["D"])
    return by_query, method, d


def cmd_evaluate(args) -> int:
    start = time.perf_counter()
    by_query, method, d = _read_results_csv(args.results)
    truth = GroundTruth.from_queries(
        load_query_manifest(Path(args.queries), check_files=False)
    )
    map_value = map_from_retrievals(by_query, truth)
    curve = pr_curve(by_query, truth)

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    pr_path = Path(f"{prefix}_pr.csv")
    map_path = Path(f"{prefix}_map.csv")
    write_pr_csv(pr_path, [(method, d, p) for p in curve.points])
    write_map_csv(map_path, [(method, d, map_value)])
    if args.svg:
        label = "unknown" if method is None else f"{method} D={d}"
        plot_pr_svg(Path(f"{prefix}_pr.svg"), {label: curve})
    _log("evaluated", method=method, d=d, map=map_value, pr_csv=str(pr_path),
         map_csv=str(map_path), queries=len(truth.relevant),
         duration_s=time.perf_counter() - start)
    return 0


def cmd_stability(args) -> int:
    dim, _, videos = _manifest_videos(args.manifest)
    params = load_config(args, dim)
    # every method trains on every clean and noisy video: hold them all
    videos = list(videos)
    spec = PerturbationSpec(
        kind=args.kind, magnitude=args.magnitude, seed=args.perturb_seed
    )
    noisy_videos = list(perturb_videos(videos, spec))
    methods = list(STABILITY_METHODS) if args.method == "all" else [args.method]
    rows = []
    for method in methods:
        start = time.perf_counter()
        clean, noisy = stability_bases(videos, noisy_videos, method, params)
        raw = basis_alignment_score(clean, noisy)
        aligned = sign_aligned_alignment_score(clean, noisy)
        rows.append((method, params.d, raw, aligned))
        _log("stability", method=method, d=params.d, score_raw=raw,
             score_sign_aligned=aligned, peak_rss_mb=_peak_rss_mb(),
             duration_s=time.perf_counter() - start)
    write_csv(args.out, ("method", "D", "score_raw", "score_sign_aligned"),
              rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _non_negative(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="JSON config file")
    for field in _SETTABLE:
        flag = "--" + field.name.replace("_", "-")
        if type(getattr(DEFAULT_PARAMS, field.name)) is bool:
            sub.add_argument(flag, action="store_const", const=True)
        else:
            sub.add_argument(flag, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlac",
        description="Compact video-segment descriptors: synthesis, training, "
                    "encoding, search and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a dataset plus queries")
    synth.add_argument("--data-root", required=True)
    synth.add_argument("--videos", type=_positive, default=10,
                       help="test/database videos")
    synth.add_argument("--train-videos", type=_positive, default=10)
    synth.add_argument("--frames", type=_positive, default=60)
    synth.add_argument("--dim", type=_positive, default=16)
    synth.add_argument("--clusters", type=_positive, default=32)
    synth.add_argument("--features-per-frame", type=_positive, default=15)
    synth.add_argument("--center-spread", type=float, default=10.0)
    synth.add_argument("--noise-std", type=float, default=0.5)
    synth.add_argument("--fps", type=float, default=1.0 / 3.0)
    synth.add_argument("--segment-len", type=_positive, default=20)
    synth.add_argument("--offset", type=_non_negative, default=1,
                       help="query sampling-grid shift in frames")
    synth.add_argument("--seed", type=_non_negative, default=0)
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="train an encoder model")
    train.add_argument("--manifest", required=True)
    train.add_argument("--method", choices=METHODS, default=METHOD_VLAC)
    train.add_argument("--out", required=True)
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    encode = sub.add_parser("encode", help="encode a manifest into a store")
    encode.add_argument("--model", required=True)
    encode.add_argument("--manifest", required=True)
    encode.add_argument("--out", required=True)
    encode.add_argument("--queries", action="store_true",
                        help="manifest is a query manifest")
    encode.add_argument("--perturb", choices=PERTURBATION_KINDS)
    encode.add_argument("--magnitude", type=float, default=0.0)
    encode.add_argument("--perturb-seed", type=int, default=0)
    encode.set_defaults(func=cmd_encode)

    search = sub.add_parser("search", help="rank store entries per query")
    search.add_argument("--store", required=True)
    search.add_argument("--queries", required=True,
                        help="query descriptor store")
    search.add_argument("--out", required=True)
    mode = search.add_mutually_exclusive_group()
    mode.add_argument("--threshold", type=float)
    mode.add_argument("--top-k", type=_non_negative, default=0,
                      help="0 ranks the whole store (default)")
    search.add_argument("--normalize-by-length", action="store_true")
    search.add_argument("--strict-alignment", action="store_true",
                        help="use the {1..G2-G1} shift range")
    search.set_defaults(func=cmd_search)

    evaluate = sub.add_parser("evaluate", help="PR curve and mAP from results")
    evaluate.add_argument("--results", required=True)
    evaluate.add_argument("--queries", required=True,
                          help="query manifest with ground truth")
    evaluate.add_argument("--out-prefix", required=True)
    evaluate.add_argument("--svg", action="store_true",
                          help="also write the PR curve to <prefix>_pr.svg")
    evaluate.set_defaults(func=cmd_evaluate)

    stability = sub.add_parser(
        "stability", help="clean-vs-perturbed basis alignment per method"
    )
    stability.add_argument("--manifest", required=True)
    stability.add_argument("--method",
                           choices=STABILITY_METHODS + ("all",),
                           default="all")
    stability.add_argument("--kind", choices=PERTURBATION_KINDS,
                           default="additive_gaussian")
    stability.add_argument("--magnitude", type=float, required=True)
    stability.add_argument("--perturb-seed", type=int, default=0)
    stability.add_argument("--out", required=True)
    _add_config_flags(stability)
    stability.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError, json.JSONDecodeError) as exc:
        _log("error", kind="data", message=str(exc))
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        _log("error", kind="numeric", message=str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
