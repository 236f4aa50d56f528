"""Command-line front end: synth, train, encode, search, evaluate, stability.

Every command is reproducible under a fixed seed and emits structured logs
(one JSON object per line) on stdout. Exit codes: 0 success, 2 data or
usage error, 3 numeric failure. Commands overwrite their own output files
so reruns are idempotent.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
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
from .errors import DataError, NumericError
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
from .ingestion import (
    PERTURBATION_KINDS,
    DatasetManifest,
    PerturbationSpec,
    load_features,
    load_manifest,
    load_query_manifest,
    make_queries,
    perturb,
    save_manifest,
    synthesize_dataset,
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


def _training_inputs(args):
    """The run's parameters and the frames of every manifest video."""
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    params = load_config(args, manifest.feature_dim)
    videos = [v for _, v in _load_videos(manifest, manifest_path.parent)]
    return params, videos


def _load_videos(manifest: DatasetManifest, base: Path):
    return [
        (
            v.video_id,
            load_features(base / v.feature_file, expected_dim=manifest.feature_dim),
        )
        for v in manifest.videos
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    root = Path(args.data_root)
    train_dir, test_dir, query_dir = root / "train", root / "test", root / "queries"
    common = dict(
        frames_per_video=args.frames,
        dim=args.dim,
        clusters=args.clusters,
        features_per_frame=args.features_per_frame,
        center_spread=args.center_spread,
        noise_std=args.noise_std,
        fps_sampled=args.fps,
        overwrite=True,
    )
    # one synthesis covers train + test so both share the feature vocabulary,
    # then the videos are split into disjoint manifests
    total = args.train_videos + args.videos
    all_dir = root / "test"
    manifest = synthesize_dataset(
        all_dir, num_videos=total, seed=args.seed, id_prefix="video", **common
    )
    train_entries = manifest.videos[: args.train_videos]
    test_entries = manifest.videos[args.train_videos :]
    train_dir.mkdir(parents=True, exist_ok=True)
    for entry in train_entries:
        src = all_dir / entry.feature_file
        (train_dir / entry.feature_file).write_bytes(src.read_bytes())
        src.unlink()
    train_manifest = DatasetManifest(
        videos=tuple(train_entries), feature_dim=manifest.feature_dim,
        notes="training split",
    )
    test_manifest = DatasetManifest(
        videos=tuple(test_entries), feature_dim=manifest.feature_dim,
        notes="test split",
    )
    save_manifest(train_manifest, train_dir / "manifest.json", overwrite=True)
    save_manifest(test_manifest, test_dir / "manifest.json", overwrite=True)
    qmanifest = make_queries(
        test_manifest,
        test_dir,
        query_dir,
        segment_len_frames=args.segment_len,
        offset_frames=args.offset,
        seed=args.seed + 1,
        overwrite=True,
    )
    _log(
        "synthesized",
        train_manifest=str(train_dir / "manifest.json"),
        test_manifest=str(test_dir / "manifest.json"),
        query_manifest=str(query_dir / "manifest.json"),
        train_videos=len(train_manifest.videos),
        test_videos=len(test_manifest.videos),
        queries=len(qmanifest.queries),
    )
    return 0


def cmd_train(args) -> int:
    params, videos = _training_inputs(args)
    model = train(args.method, videos, params)
    save_model(model, args.out, overwrite=True)
    _log(
        "trained",
        method=args.method,
        out=str(args.out),
        inertia=model.codebook.inertia,
        eigenvalues=[float(x) for x in model.basis.eigenvalues],
    )
    return 0


def _encode_one(item, model, pspec):
    video_id, frames = item
    if pspec is not None:
        frames = perturb(frames, pspec)
    descriptors = encode_video(frames, model)
    if descriptors.shape[0] == 0:
        raise DataError(
            f"{video_id} is shorter than one {model.params.gof_size}-frame window"
        )
    return DescriptorSequence(video_id, descriptors, model.method)


def cmd_encode(args) -> int:
    model = load_model(args.model)
    manifest_path = Path(args.manifest)
    base = manifest_path.parent
    if args.queries:
        qmanifest = load_query_manifest(manifest_path)
        items = [
            (q.query_id, load_features(base / q.feature_file,
                                       expected_dim=qmanifest.feature_dim))
            for q in qmanifest.queries
        ]
    else:
        manifest = load_manifest(manifest_path)
        items = _load_videos(manifest, base)

    specs = [None] * len(items)
    if args.perturb:
        root_spec = PerturbationSpec(
            kind=args.perturb, magnitude=args.magnitude, seed=args.perturb_seed
        )
        specs = [
            replace(root_spec, seed=(root_spec.seed ^ i) % 2**32)
            for i in range(len(items))
        ]

    sequences = [_encode_one(iv, model, s) for iv, s in zip(items, specs)]
    write_store(sequences, args.out, overwrite=True)
    _log(
        "encoded",
        out=str(args.out),
        method=model.method,
        videos=len(sequences),
        gofs=[s.length for s in sequences],
    )
    return 0


def cmd_search(args) -> int:
    store = load_store(args.store)
    queries = load_store(args.queries)
    if args.threshold is not None:
        mode = dict(threshold=args.threshold)
    else:
        mode = dict(top_k=args.top_k)

    results = [
        retrieve(
            seq, store,
            normalize_by_length=args.normalize_by_length,
            strict_paper_range=args.strict_alignment,
            **mode,
        )
        for seq in queries
    ]

    d = store[0].d if store else 0
    method = store[0].method if store else ""
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_COLUMNS)
        for seq, result in zip(queries, results):
            for rank, m in enumerate(result.matches, start=1):
                writer.writerow(
                    [seq.video_id, rank, m.video_id, repr(m.score),
                     m.offset, method, d]
                )
    _log("searched", out=str(args.out), queries=len(queries),
         store=len(store))
    return 0


def _read_results_csv(path):
    by_query: dict[str, list[tuple[str, float]]] = {}
    method, d = "", 0
    with open(path, newline="") as fh:
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
        plot_pr_svg(Path(f"{prefix}_pr.svg"), {f"{method} D={d}": curve})
    _log("evaluated", map=map_value, pr_csv=str(pr_path),
         map_csv=str(map_path), queries=len(by_query))
    return 0


def cmd_stability(args) -> int:
    params, videos = _training_inputs(args)
    spec = PerturbationSpec(
        kind=args.kind, magnitude=args.magnitude, seed=args.perturb_seed
    )
    methods = list(STABILITY_METHODS) if args.method == "all" else [args.method]
    rows = []
    for method in methods:
        clean, noisy = stability_bases(videos, spec, method, params)
        raw = basis_alignment_score(clean, noisy)
        aligned = sign_aligned_alignment_score(clean, noisy)
        rows.append((method, params.d, raw, aligned))
        _log("stability", method=method, d=params.d, score_raw=raw,
             score_sign_aligned=aligned)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "D", "score_raw", "score_sign_aligned"])
        writer.writerows(rows)
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
    synth.add_argument("--offset", type=int, default=1,
                       help="query sampling-grid shift in frames")
    synth.add_argument("--seed", type=int, default=0)
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
    mode.add_argument("--top-k", type=_non_negative, default=None,
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
    if args.command == "search" and args.threshold is None and args.top_k is None:
        args.top_k = 0
    try:
        return args.func(args)
    except (DataError, ValueError, OSError, json.JSONDecodeError) as exc:
        _log("error", kind="data", message=str(exc))
        return 2
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _log("error", kind="numeric", message=str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
