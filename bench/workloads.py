"""The benchmark's workloads: inputs from a seed, CLI steps, output checks.

Each workload makes its inputs in ``setup`` (the program only receives the
generated files), lists one pass of ``vlac`` CLI commands in ``commands``,
checks the outputs of a pass in ``check`` and derives its named figures in
``figures``. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import reference
import vlac.cli
from vlac.ingestion import QueryEntry, QueryManifest, save_query_manifest
from vlac.search import DescriptorSequence, load_store, write_store

SEED_LIMIT = 2**32  # model seeds are stored as u32


class Ledger:
    """Attempted and failed operations of one run, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def run_cli(argv: list[str]) -> int:
    """``vlac.cli.main`` with its JSON event lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return vlac.cli.main(argv)


def _setup_cli(argv: list[str]) -> None:
    code = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]!r} exited with {code}")


def _results(path: Path) -> dict[str, list[tuple[str, float, int]]]:
    """The results CSV of ``vlac search`` as query_id -> ranked rows."""
    by_query: dict[str, list[tuple[str, float, int]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_query.setdefault(row["query_id"], []).append(
                (row["video_id"], float(row["score"]), int(row["offset"]))
            )
    return by_query


def _map_value(prefix: Path) -> float:
    with open(f"{prefix}_map.csv", newline="") as fh:
        return float(next(csv.DictReader(fh))["mAP"])


class Build:
    """Offline index build: train, encode, search and evaluate per method."""

    name = "build"
    methods = ("vlad", "vlac", "hp")
    videos, frames, gof_size, overlap = 60, 60, 5, 1
    query_frames = 20  # vlac synth's default --segment-len
    magnitude = "1.0"  # keeps every method's mAP away from 1.0 and chance
    params = ["--j", "64", "--n", "64", "--m", "16", "--d0", "128",
              "--alpha1", "64", "--alpha2", "32", "--d", "64"]

    @staticmethod
    def gofs(frames: int) -> int:
        return (frames - Build.gof_size) // (Build.gof_size - Build.overlap) + 1

    def setup(self, work: Path, seed: int) -> None:
        _setup_cli(["synth", "--data-root", str(work / "data"),
                    "--train-videos", "20", "--videos", str(self.videos),
                    "--frames", str(self.frames), "--features-per-frame", "40",
                    "--dim", "64", "--segment-len", str(self.query_frames),
                    "--seed", str(seed)])

    def commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        data, model_seed = work / "data", str(seed % SEED_LIMIT)
        steps = []
        for m in self.methods:
            model, db, q, res = (str(work / f"{m}.{ext}")
                                 for ext in ("model", "db", "q", "csv"))
            steps += [
                (f"train {m}", ["train", "--manifest", str(data / "train/manifest.json"),
                                "--method", m, "--out", model, *self.params,
                                "--seed", model_seed]),
                (f"encode {m}", ["encode", "--model", model, "--manifest",
                                 str(data / "test/manifest.json"), "--out", db]),
                (f"encode queries {m}", [
                    "encode", "--model", model, "--queries", "--manifest",
                    str(data / "queries/manifest.json"), "--out", q,
                    "--perturb", "additive_gaussian", "--magnitude", self.magnitude,
                    "--perturb-seed", model_seed]),
                (f"search {m}", ["search", "--store", db, "--queries", q,
                                 "--out", res]),
                (f"evaluate {m}", ["evaluate", "--results", res, "--queries",
                                   str(data / "queries/manifest.json"),
                                   "--out-prefix", str(work / f"{m}_eval")]),
            ]
        return steps

    def check(self, work: Path, seed: int, ledger: Ledger) -> dict[str, float]:
        manifest = json.loads((work / "data/test/manifest.json").read_text())
        video_ids = sorted(v["video_id"] for v in manifest["videos"])
        query_ids = sorted(f"{vid}_q" for vid in video_ids)
        maps = {}
        for m in self.methods:
            db = load_store(work / f"{m}.db")
            ledger.record(
                sorted(s.video_id for s in db) == video_ids
                and all(s.length == self.gofs(self.frames) for s in db),
                f"{m}: store must hold one {self.gofs(self.frames)}-GoF "
                f"sequence per video")
            queries = load_store(work / f"{m}.q")
            ledger.record(
                sorted(s.video_id for s in queries) == query_ids
                and all(s.length == self.gofs(self.query_frames) for s in queries),
                f"{m}: query store must hold one "
                f"{self.gofs(self.query_frames)}-GoF sequence per query")
            results = _results(work / f"{m}.csv")
            ledger.record(sorted(results) == query_ids,
                          f"{m}: every query must be answered")
            ledger.record(
                all(sorted(r[0] for r in rows) == video_ids
                    for rows in results.values()),
                f"{m}: every query must rank the whole store")
            ledger.record(
                all(math.isfinite(r[1]) for rows in results.values() for r in rows),
                f"{m}: scores must be finite")
            stored = {s.video_id: s.descriptors for s in db}
            for q in queries:
                problem = reference.mismatch(reference.rank(q.descriptors, stored),
                                             results.get(q.video_id, []))
                ledger.record(problem is None, f"{m} {q.video_id}: {problem}")
            maps[m] = _map_value(work / f"{m}_eval")
            ledger.record(0.0 < maps[m] <= 1.0, f"{m}: mAP {maps[m]} out of (0, 1]")
        return {f"map_{m}": v for m, v in maps.items()}

    def figures(self, times: dict[str, float], checked: dict[str, float]):
        out = {}
        for m in self.methods:
            out[f"train_{m}_s"] = (times[f"train {m}"], "s")
        for m in self.methods:
            out[f"encode_{m}_gofs_per_s"] = (
                self.videos * self.gofs(self.frames) / times[f"encode {m}"], "1/s")
        for m in self.methods:
            out[f"map_{m}"] = (checked[f"map_{m}"], "ratio")
        return out


def search_data(seed: int):
    """Stored sequences, query clips and each clip's source, from ``seed``.

    Sequences are AR(1) over time (consecutive GoFs correlate like
    neighbouring video segments) with per-component variance decaying as
    1/(c+1), the shape of PCA output. Clips are cut at a random shift from a
    random stored sequence and noised. Sequence and clip lengths are fixed
    evenly spaced sets that only the seed's order changes, so every seed
    scores the same number of shifts. Values are float32-exact, so the
    VLACSTOR round trip keeps them bit for bit.
    """
    rng = np.random.default_rng(seed)
    d, rho = Search.d, 0.9
    scale = 1.0 / np.sqrt(1.0 + np.arange(d))
    seq_lengths = rng.permutation(np.linspace(60, 240, Search.sequences).round())
    clip_lengths = rng.permutation(np.linspace(4, 40, Search.queries).round())
    store = {}
    for v, length in enumerate(seq_lengths):
        steps = rng.normal(size=(int(length), d))
        seq = np.empty_like(steps)
        seq[0] = steps[0]
        for t in range(1, len(seq)):
            seq[t] = rho * seq[t - 1] + math.sqrt(1.0 - rho * rho) * steps[t]
        store[f"seq_{v:03d}"] = (seq * scale).astype(np.float32).astype(np.float64)
    ids = sorted(store)
    queries, sources = {}, {}
    for q, length in enumerate(clip_lengths.astype(int)):
        source = ids[int(rng.integers(len(ids)))]
        start = int(rng.integers(0, len(store[source]) - length + 1))
        clip = store[source][start : start + length]
        clip = clip + Search.noise * scale * rng.normal(size=clip.shape)
        queries[f"query_{q:03d}"] = clip.astype(np.float32).astype(np.float64)
        sources[f"query_{q:03d}"] = (source, start)
    return store, queries, sources


@functools.lru_cache(maxsize=1)
def search_reference(seed: int):
    """Every query's reference ranking, made once per run so that checking a
    pass costs far less than the pass."""
    store, queries, _ = search_data(seed)
    return {qid: reference.rank(clip, store) for qid, clip in queries.items()}


class Search:
    """Online matching at descriptor level over a store, with no model.

    Not in BENCHMARK.json: its pass time follows the host's speed drift
    more than the other workloads do (see README.md). Run it by hand.
    """

    name = "search"
    sequences, queries, d = 150, 100, 64
    noise = 2.0  # query noise std relative to each component's scale

    def setup(self, work: Path, seed: int) -> None:
        store, queries, sources = search_data(seed)
        write_store([DescriptorSequence(vid, seq, "vlac") for vid, seq in store.items()],
                    work / "store.vst", overwrite=True)
        write_store([DescriptorSequence(qid, seq, "vlac") for qid, seq in queries.items()],
                    work / "queries.vst", overwrite=True)
        manifest = QueryManifest(
            queries=tuple(
                QueryEntry(query_id=qid, feature_file=f"{qid}.vfeat",
                           fps_sampled=1.0 / 3.0, label="clean",
                           source_video_id=source, start_frame=start)
                for qid, (source, start) in sources.items()),
            feature_dim=self.d)
        save_query_manifest(manifest, work / "queries.json", overwrite=True)

    def commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("search", ["search", "--store", str(work / "store.vst"), "--queries",
                        str(work / "queries.vst"), "--out", str(work / "results.csv")]),
            ("evaluate", ["evaluate", "--results", str(work / "results.csv"),
                          "--queries", str(work / "queries.json"),
                          "--out-prefix", str(work / "eval")]),
        ]

    def check(self, work: Path, seed: int, ledger: Ledger) -> dict[str, float]:
        expected = search_reference(seed)
        results = _results(work / "results.csv")
        ledger.record(sorted(results) == sorted(expected),
                      "every query must be answered")
        for qid, ranking in expected.items():
            problem = reference.mismatch(ranking, results.get(qid, []))
            ledger.record(problem is None, f"{qid}: {problem}")
        value = _map_value(work / "eval")
        ledger.record(0.0 < value <= 1.0, f"mAP {value} out of (0, 1]")
        return {"map": value}

    def figures(self, times: dict[str, float], checked: dict[str, float]):
        return {"search_qps": (self.queries / times["search"], "1/s"),
                "map": (checked["map"], "ratio")}


class Stability:
    """The paper's clean-vs-perturbed basis-stability experiment."""

    name = "stability"
    methods = ("vlad", "hp", "vlac", "sift")
    d = 32
    params = ["--j", "32", "--alpha1", "32", "--n", "64", "--m", "8",
              "--d0", "32", "--alpha2", "8", "--h", "16", "--d", str(d)]

    def setup(self, work: Path, seed: int) -> None:
        # 20 videos x 60 frames is the least data that keeps every PCA fit
        # tall (VLAC: 20 x 14 GoFs = 280 rows for 256 dims); 20 features per
        # frame keep a pass near 5 s.
        _setup_cli(["synth", "--data-root", str(work / "data"),
                    "--train-videos", "20", "--videos", "1", "--frames", "60",
                    "--features-per-frame", "20", "--dim", "32",
                    "--seed", str(seed)])

    def commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        model_seed = str(seed % SEED_LIMIT)
        return [("stability", [
            "stability", "--manifest", str(work / "data/train/manifest.json"),
            "--method", "all", "--kind", "additive_gaussian", "--magnitude", "1.0",
            "--perturb-seed", model_seed, "--out", str(work / "stability.csv"),
            *self.params, "--seed", model_seed])]

    def check(self, work: Path, seed: int, ledger: Ledger) -> dict[str, float]:
        with open(work / "stability.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ledger.record(sorted(r["method"] for r in rows) == sorted(self.methods),
                      "one row per stability method")
        bound = self.d * (1.0 + 1e-9)
        aligned = {}
        for r in rows:
            raw, signed = float(r["score_raw"]), float(r["score_sign_aligned"])
            ledger.record(int(r["D"]) == self.d and math.isfinite(raw)
                          and math.isfinite(signed), f"{r['method']}: finite scores")
            ledger.record(abs(raw) <= bound, f"{r['method']}: |raw| {raw} > D")
            ledger.record(0.0 <= signed <= bound,
                          f"{r['method']}: sign-aligned {signed} outside [0, D]")
            aligned[r["method"]] = signed
        return {f"score_sign_aligned_{m}": v for m, v in aligned.items()}

    def figures(self, times: dict[str, float], checked: dict[str, float]):
        return {"stability_s": (times["stability"], "s"),
                **{name: (value, "score") for name, value in checked.items()}}


WORKLOADS = {w.name: w for w in (Build(), Search(), Stability())}
