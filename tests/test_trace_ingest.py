"""The columnar path of load_traces against the row loop it falls back to.

For every file, load_traces must give what the row loop alone gives:
bitwise-equal traces, or the same DataError text.
"""

import csv

import numpy as np
import pytest

from crowdmtl import annotations
from crowdmtl.annotations import TRACE_COLUMNS, load_traces
from crowdmtl.errors import DataError
from test_cli import _mutate, _mutations, small_tree

HEADER = ",".join(TRACE_COLUMNS) + "\n"


def outcome(path):
    """What load_traces makes of `path`: its traces as bytes, or its error."""
    try:
        traces = load_traces(path)
    except (DataError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [
        (tr.key(), tr.rater_kind, tr.times.tobytes(), tr.values.tobytes(),
         tr.missing_fraction.hex())
        for tr in traces
    ]


def assert_paths_agree(path, monkeypatch, plain=None):
    """Both paths agree on `path`; with `plain`, whether it is read by columns."""
    got = outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(annotations, "_plain_trace_blocks", lambda path: None)
        expected = outcome(path)
    assert got == expected, path
    if plain is not None:
        assert (annotations._plain_trace_blocks(path) is not None) == plain, path
    return got


def trace_files(data_dir):
    return [
        path
        for path in sorted(data_dir.glob("p[12]/*.csv"))
        if "rater_kind" in path.read_text().split("\n", 1)[0]
    ]


def test_synth_trace_files_take_the_columnar_path(tmp_path, monkeypatch):
    files = trace_files(small_tree(tmp_path))
    assert [p.name for p in files] == [
        "crowd.csv", "expert.csv", "eval_crowd.csv", "val_crowd.csv", "val_expert.csv",
    ]
    for path in files:
        assert len(assert_paths_agree(path, monkeypatch, plain=True)) > 1


def test_every_protocol_input_mutation_loads_alike(tmp_path, monkeypatch):
    # the mutations of test_every_protocol_input_mutation_fails_at_load_or_runs_clean:
    # the same tree, rng and order, so every file draws the same defects
    data_dir = small_tree(tmp_path)
    rng = np.random.default_rng(20)
    mutated = tmp_path / "mutated.csv"
    outcomes = set()
    for path in sorted(data_dir.glob("p[12]/*.csv")):
        original = path.read_text()
        header = original.split("\n", 1)[0]
        for mutation in _mutations(path.name, header):
            mutated.write_text(_mutate(original, mutation, rng))
            if "rater_kind" in header:
                got = assert_paths_agree(str(mutated), monkeypatch)
                outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}


ROWS = (
    "c1,r1,crowd,arousal,0,2\n"
    "c1,r1,crowd,arousal,1,-1.5\n"
    "c1,r2,expert,arousal,0,0.25\n"
    "c1,r2,expert,arousal,1,1\n"
)

# name: (text, read by columns, loads without a DataError)
HAND_MADE = {
    "plain": (HEADER + ROWS, True, True),
    "quoted id with a comma": (
        HEADER + '"c,1",r1,crowd,arousal,0,1\n"c,1",r1,crowd,arousal,1,2\n', False, True
    ),
    "quoted number": (
        HEADER + 'c1,r1,crowd,arousal,"0",1\nc1,r1,crowd,arousal,1,2\n', False, True
    ),
    "crlf": ((HEADER + ROWS).replace("\n", "\r\n"), False, True),
    "crlf body only": (HEADER + ROWS.replace("\n", "\r\n"), False, True),
    "blank line": (HEADER + ROWS.replace("-1.5\n", "-1.5\n\n"), False, True),
    "whitespace-only line": (HEADER + ROWS + "   \t\n", False, True),
    "padded id": (
        HEADER + ROWS + " c2,r1,crowd,arousal,0,1\nc2,r1,crowd,arousal,1,1\n", False, True
    ),
    "padded id in a block": (
        HEADER + "c2,r1,crowd,arousal,0,1\nc2 ,r1,crowd,arousal,1,1\n", False, True
    ),
    "padded kind": (HEADER + "c1,r1, crowd,arousal,0,1\n", False, True),
    "padded attribute": (HEADER + "c1,r1,crowd,arousal\t,0,1\n", False, True),
    "padded numbers": (
        HEADER + "c1,r1,crowd,arousal, 0 ,\t1.5\nc1,r1,crowd,arousal,1\t, -2 \n", True, True
    ),
    "no final newline": (HEADER + ROWS[:-1], True, True),
    "header only": (HEADER, True, True),
    "x1c-padded numbers": (
        HEADER + "c1,r1,crowd,arousal,0\x1c,1\nc1,r1,crowd,arousal,1,\x1c2\n", False, True
    ),
    "underscored numbers": (
        HEADER + "c1,r1,crowd,arousal,0,1\nc1,r1,crowd,arousal,1_0,1_0e-1\n", True, True
    ),
    "nul byte": (
        HEADER + "c\x001,r1,crowd,arousal,0,1\nc\x001,r1,crowd,arousal,1,1\n", False, True
    ),
    "permuted header": (
        "value,time_s,attribute,rater_kind,rater_id,clip_id\n"
        "2,0,arousal,crowd,r1,c1\n-1,1,arousal,crowd,r1,c1\n0.5,0,valence,expert,r1,c1\n",
        True,
        True,
    ),
    "non-ascii ids": (
        HEADER + "clip\u00e9,r\u20281,crowd,arousal,0,1\nclip\u00e9,r\u20281,crowd,arousal,1,1\n",
        True,
        True,
    ),
    "field over the csv size limit": (
        HEADER + "c" * 140_000 + ",r1,crowd,arousal,0,1\n", False, False
    ),
    "short line": (HEADER + ROWS + "c1,r3,crowd,arousal,0\n", False, False),
    "long line": (HEADER + ROWS + "c1,r3,crowd,arousal,0,1,1\n", False, False),
    "unknown kind": (HEADER + ROWS + "c1,r3,wizard,arousal,0,1\n", False, False),
    "unknown attribute": (HEADER + ROWS + "c1,r3,crowd,dominance,0,1\n", False, False),
    "unparsable value": (HEADER + ROWS + "c1,r3,crowd,arousal,0,oops\n", False, False),
    "nan": (HEADER + ROWS + "c1,r3,crowd,arousal,nan,1\n", False, False),
    "inf": (HEADER + ROWS + "c1,r3,crowd,arousal,0,-inf\n", False, False),
    "negative time": (HEADER + ROWS + "c1,r3,crowd,arousal,-1,1\n", False, False),
    "off the crowd slider": (HEADER + ROWS + "c1,r3,crowd,arousal,0,2.000000002\n", False, False),
    "off the expert slider": (HEADER + ROWS + "c1,r3,expert,arousal,0,-1.5\n", False, False),
    "within the tolerance": (HEADER + ROWS + "c1,r3,crowd,arousal,0,-2.0000000005\n", True, True),
    "duplicate trace": (HEADER + ROWS + "c1,r1,crowd,arousal,5,1\n", False, False),
    "kind change": (HEADER + ROWS + "c1,r2,crowd,arousal,2,1\n", False, False),
    "repeated time": (HEADER + ROWS + "c1,r2,expert,arousal,1,1\n", False, False),
    "time going back": (HEADER + ROWS + "c1,r2,expert,arousal,0.5,1\n", False, False),
}


@pytest.mark.parametrize("name", list(HAND_MADE))
def test_hand_made_file_loads_alike(tmp_path, monkeypatch, name):
    text, plain, loads = HAND_MADE[name]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    got = assert_paths_agree(str(path), monkeypatch, plain=plain)
    assert isinstance(got, list) == loads, got


def test_a_bad_header_is_the_same_error(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text(HEADER.replace("\n", ",value\n") + "c1,r1,crowd,arousal,0,1,1\n")
    got = assert_paths_agree(str(path), monkeypatch)
    assert got.startswith(f"DataError: {path}: line 1: expected columns"), got


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_traces_across_chunk_edges_load_alike(tmp_path, monkeypatch, chunk):
    files = trace_files(small_tree(tmp_path))
    edge_cases = [
        ("duplicate", ROWS + "c1,r1,crowd,arousal,5,1\n"),
        ("kind change", ROWS + "c1,r2,crowd,arousal,2,1\n"),
        ("time going back", ROWS + "c1,r2,expert,arousal,0.5,1\n"),
        ("plain", ROWS + "c1,r3,crowd,arousal,0,1\nc1,r3,crowd,arousal,1,1\n"),
    ]
    monkeypatch.setattr(annotations, "TRACE_CHUNK_CHARS", chunk)
    for path in files:
        assert_paths_agree(path, monkeypatch, plain=True)
    for name, rows in edge_cases:
        path = tmp_path / f"{name}.csv"
        path.write_text(HEADER + rows)
        assert_paths_agree(str(path), monkeypatch, plain=name == "plain")
