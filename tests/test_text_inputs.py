"""Mutated text inputs through ``vlac.cli.main``: the results CSV and the
query manifest through ``evaluate``, the dataset manifest and the
``--config`` file through ``train``. Whatever a mutation does (a flipped
byte, a dropped field, a retyped value, a field longer than the csv
module's limit), the command exits 0 or 2 and raises nothing."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from vlac.cli import RESULTS_CSV_COLUMNS, main

OVERSIZED = "x" * 131_073  # one past the csv module's field size limit
VALUES = st.one_of(
    st.sampled_from(["", "1.5", "x", "nan", "-1", "1e999", OVERSIZED, None,
                     True, [], {}, 1.5, -1, 2**64, 10**400]),
    st.text(max_size=8), st.integers(-2**40, 2**40), st.floats(),
)
CONFIG = {"j": 2, "n": 2, "m": 2, "d": 1, "d0": 2, "alpha1": 2, "alpha2": 2,
          "h": 1, "gof_size": 2, "overlap": 0, "seed": 0, "normalize": False}


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Tiny valid inputs: two training videos of six 3-feature frames, two
    queries, a results CSV ranking both test videos for each query, and a
    config every method trains with."""
    root = tmp_path_factory.mktemp("text_inputs")
    assert run("synth", "--data-root", root, "--videos", "2",
               "--train-videos", "2", "--frames", "6", "--dim", "2",
               "--clusters", "2", "--features-per-frame", "3",
               "--segment-len", "3", "--offset", "0", "--seed", "1") == 0
    queries = json.loads((root / "queries" / "manifest.json").read_text())
    rows = [RESULTS_CSV_COLUMNS]
    for q in queries["queries"]:
        other = "video_002" if q["source_video_id"] != "video_002" else "video_003"
        rows += [[q["query_id"], 1, q["source_video_id"], 2.5, 0, "vlac", 4],
                 [q["query_id"], 2, other, 0.5, 1, "vlac", 4]]
    with open(root / "results.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    (root / "config.json").write_text(json.dumps(CONFIG))
    return root, {"results": root / "results.csv",
                  "queries": root / "queries" / "manifest.json",
                  "manifest": root / "train" / "manifest.json",
                  "config": root / "config.json"}


def json_spots(doc):
    """Every (container, key or index) of a JSON document, depth first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return []
    spots = []
    for key, value in items:
        spots += [(doc, key)] + json_spots(value)
    return spots


def mutate(text, kind, op, at, value, byte):
    """``text`` with one mutation: ``op`` "flip" sets the byte at ``at``
    (modulo the length) to ``byte``; "drop" deletes the ``at``-th field and
    "retype" sets it to ``value`` (a CSV field to ``str(value)``)."""
    if op == "flip":
        data = bytearray(text.encode())
        data[at % len(data)] = byte
        return bytes(data)
    if kind == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        spots = [(row, i) for row in rows for i in range(len(row))]
    else:
        doc = json.loads(text)
        spots = json_spots(doc)
    container, key = spots[at % len(spots)]
    if op == "drop":
        del container[key]
    else:
        container[key] = str(value) if kind == "csv" else value
    if kind == "csv":
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue().encode()
    return json.dumps(doc).encode()


@settings(max_examples=120, deadline=None)
@given(target=st.sampled_from(["results", "queries", "manifest", "config"]),
       op=st.sampled_from(["flip", "drop", "retype"]),
       at=st.integers(0, 10_000), value=VALUES, byte=st.integers(0, 255),
       method=st.sampled_from(["vlad", "vlac", "hp"]))
@example(target="results", op="retype", at=9, value=OVERSIZED, byte=0,
         method="vlad")
@example(target="config", op="retype", at=4, value=OVERSIZED, byte=0,
         method="vlac")
@example(target="results", op="flip", at=60, value=None, byte=0xFF,
         method="vlad")
@example(target="manifest", op="flip", at=30, value=None, byte=0xFF,
         method="hp")
def test_mutated_text_input_exits_0_or_2(inputs, target, op, at, value, byte,
                                         method):
    root, valid = inputs
    kind = "csv" if target == "results" else "json"
    # beside the original: a manifest's feature files are relative to it
    mutated = valid[target].with_name(f"mutated_{valid[target].name}")
    mutated.write_bytes(mutate(valid[target].read_text(), kind, op, at, value,
                               byte))
    files = {**valid, target: mutated}
    if target in ("results", "queries"):
        code = run("evaluate", "--results", files["results"],
                   "--queries", files["queries"],
                   "--out-prefix", root / "eval")
    else:
        code = run("train", "--manifest", files["manifest"],
                   "--method", method, "--config", files["config"],
                   "--out", root / "model.bin")
    assert code in (0, 2)


@pytest.mark.parametrize("target", ["results", "queries", "manifest", "config"])
def test_invalid_utf8_names_the_file_and_line(inputs, target):
    root, valid = inputs
    data = bytearray(valid[target].read_bytes())
    at = data.find(b"\n") + 3  # on the second line; a one-line file, the first
    data[at] = 0xFF
    bad = valid[target].with_name(f"latin1_{valid[target].name}")
    bad.write_bytes(bytes(data))
    files = {**valid, target: bad}
    if target in ("results", "queries"):
        argv = ["evaluate", "--results", files["results"],
                "--queries", files["queries"], "--out-prefix", root / "eval"]
    else:
        argv = ["train", "--manifest", files["manifest"], "--method", "vlad",
                "--config", files["config"], "--out", root / "model.bin"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    event = json.loads(out.getvalue().splitlines()[-1])
    assert code == 2 and event["event"] == "error"
    line = data.count(b"\n", 0, at) + 1
    assert f"{bad} line {line} is not valid UTF-8" in event["message"]
