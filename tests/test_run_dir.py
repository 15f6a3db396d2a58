"""The run-directory contract: a command loads every input and computes
every result before `main` creates `--out`, so a command that exits
non-zero leaves no `--out`; and `fit` rejects a design whose smooth part
overflows as a data error (exit 2) naming the file, and a hyperparameter
that overflows its term as a usage error (exit 1) naming its flag, not as a
solver failure."""

import csv
import json
import re
import shutil

import numpy as np
import pytest

from crowdmtl import cli
from crowdmtl.experiments import ResultTable

TINY_SYNTH = {
    "n_tasks": 3,
    "n_features": 4,
    "samples_per_task": 20,
    "n_crowd": 3,
    "n_expert": 3,
    "p2_clips_per_set": 4,
    "p2_eval_clips": 4,
    "p2_window_len": 12,
}
GRAPH = {"edges": [{"i": 1, "j": 2, "gamma": 1.0}, {"i": 2, "j": 3, "gamma": 0.5}]}


def _main(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A tiny synth tree plus fit inputs: fused crowd and expert labels,
    static labels and a task graph."""
    root = tmp_path_factory.mktemp("tree")
    (root / "synth.json").write_text(json.dumps(TINY_SYNTH))
    argv = ["synth", "--config", root / "synth.json", "--seed", 5, "--out", root / "data"]
    assert _main(*argv) == 0
    p1 = root / "data" / "p1"
    for kind in ("crowd", "expert"):
        argv = ["fuse", "--traces", p1 / f"{kind}.csv", "--window", 20, "--out", root / kind]
        assert _main(*argv) == 0
    (root / "static.csv").write_text("clip_id,label\nclip01,1\nclip02,3\nclip03,2\n")
    (root / "graph.json").write_text(json.dumps(GRAPH))
    return root


def _copy(tree, tmp_path):
    return shutil.copytree(tree, tmp_path / "tree")


def _with_cell(text, row, column, value) -> str:
    """CSV `text` with field `column` (an index) of line `row` set to `value`."""
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _set_cell(path, column, value, row=1):
    """Set `column` of body row `row` of the CSV at `path` to the text `value`."""
    text = path.read_text()
    path.write_text(_with_cell(text, row, text.split("\n", 1)[0].split(",").index(column), value))


def _fit_files(t, labels):
    """{input: path} of the fit inputs in the tree at `t`, with fused
    ("crowd") or static labels."""
    fused = labels == "crowd"
    return {
        "features": t / "data/p1/features.csv",
        "labels": t / "crowd/fused.csv" if fused else t / "static.csv",
        "expert_features": t / "expert_features.csv",
        "expert_labels": t / "expert/fused.csv" if fused else t / "static.csv",
        "graph": t / "graph.json",
    }


def _fit_argv(t, out, model="eg_mtl", labels="crowd", extra=()):
    """`fit` of `model` on the inputs of `_fit_files(t, labels)`."""
    files = _fit_files(t, labels)
    argv = ["fit", "--features", files["features"], "--labels", files["labels"],
            "--model", model, "--out", out, *extra]
    if model == "eg_mtl":
        argv += ["--expert-features", files["expert_features"],
                 "--expert-labels", files["expert_labels"], "--graph", files["graph"]]
    return argv


def _several_series(t):
    # crowd and expert series in one labels file: the series to fit is ambiguous
    both = t / "crowd" / "fused.csv"
    both.write_text(both.read_text() + (t / "expert" / "fused.csv").read_text().split("\n", 1)[1])


NO_OUT_CASES = {
    # case: (command argv after the tree, defect made in the tree copy, exit code)
    "filter-missing": (["filter", "--traces", "missing.csv"], None, 2),
    "filter-malformed": (["filter", "--traces", "data/p1/crowd.csv"],
                         lambda t: _set_cell(t / "data/p1/crowd.csv", "value", "oops"), 2),
    "concordance-missing": (["concordance", "--traces", "missing.csv"], None, 2),
    "concordance-malformed": (["concordance", "--traces", "data/p1/crowd.csv", "--window", "20"],
                              lambda t: _set_cell(t / "data/p1/crowd.csv", "time_s", "oops"), 2),
    "fuse-missing": (["fuse", "--traces", "missing.csv"], None, 2),
    "fuse-malformed": (["fuse", "--traces", "data/p1/expert.csv", "--window", "20"],
                       lambda t: _set_cell(t / "data/p1/expert.csv", "value", ""), 2),
    "fit-missing": (["fit", "--features", "missing.csv", "--labels", "static.csv",
                     "--model", "mt_lasso"], None, 2),
    "fit-malformed": (["fit", "--features", "data/p1/features.csv", "--labels", "static.csv",
                       "--model", "mt_lasso"],
                      lambda t: _set_cell(t / "static.csv", "label", "x"), 2),
    "fit-several-series": (["fit", "--features", "data/p1/features.csv", "--labels",
                            "crowd/fused.csv", "--model", "mt_lasso"], _several_series, 1),
    "synth-missing": (["synth", "--config", "missing.json"], None, 1),
    "synth-malformed": (["synth", "--config", "synth.json"],
                        lambda t: (t / "synth.json").write_text('{"n_tasks": }'), 2),
    "p1-missing": (["p1", "--data", "missing", "--models", "mt_lasso"], None, 2),
    "p1-malformed": (["p1", "--data", "data", "--models", "mt_lasso"],
                     lambda t: _set_cell(t / "data/p1/features.csv", "f2", "nan"), 2),
    "p2-missing": (["p2", "--data", "missing", "--models", "mt_lasso"], None, 2),
    "p2-malformed": (["p2", "--data", "data", "--models", "mt_lasso"],
                     lambda t: _set_cell(t / "data/p2/eval_labels.csv", "label", "3"), 2),
}


@pytest.mark.parametrize("case", list(NO_OUT_CASES))
def test_a_command_that_fails_leaves_no_out(tree, tmp_path, capsys, monkeypatch, case):
    argv, defect, code = NO_OUT_CASES[case]
    t = _copy(tree, tmp_path)
    if defect is not None:
        defect(t)
    monkeypatch.chdir(t)
    capsys.readouterr()
    assert _main(*argv, "--out", "o/run") == code
    assert capsys.readouterr().out == ""
    assert not (t / "o").exists()


def _json_value(text: str) -> str:
    """`text` as a JSON value in a graph file's edge field."""
    return {"": '""', "nan": "NaN", "inf": "Infinity"}.get(text, text)


def _mutated(path, value, rng) -> str:
    """The text of the input at `path` with one seeded cell set to `value`:
    a numeric CSV field, or an edge field of the graph."""
    text = path.read_text()
    if path.suffix == ".json":
        edges = json.loads(text)["edges"]
        k, field = int(rng.integers(len(edges))), str(rng.choice(["i", "j", "gamma"]))
        edges[k][field] = "@"
        return json.dumps({"edges": edges}).replace('"@"', _json_value(value))
    lines = text.splitlines()
    header = lines[0].split(",")
    numeric = [i for i, c in enumerate(header) if c not in ("clip_id", "rater_kind", "attribute")]
    return _with_cell(text, int(rng.integers(1, len(lines))), int(rng.choice(numeric)), value)


MUTATION_VALUES = ["1e200", "-1e200", "1e308", "nan", "inf", "", "9" * 400, "1e-320"]
# each weight has a finite square, but task 1's Laplacian row sum overflows
OVERFLOW_GRAPH = {"edges": [{"i": 1, "j": 2, "gamma": 1.3e154},
                            {"i": 1, "j": 3, "gamma": 1.3e154}]}


def test_every_fit_input_mutation_exits_0_1_or_2_and_a_failure_leaves_no_out(tree, tmp_path,
                                                                            capsys):
    # eg_mtl with a graph reads all five inputs; a defect in any of them must
    # fail at load (exit 2) or not matter, never end in the solver (exit 3)
    t = _copy(tree, tmp_path)
    shutil.copy(t / "data/p1/features.csv", t / "expert_features.csv")
    rng = np.random.default_rng(21)
    cases = [
        (labels, name, value, _mutated(path, value, rng))
        for labels in ("crowd", "static")
        for name, path in _fit_files(t, labels).items()
        for value in MUTATION_VALUES
    ]
    cases += [(labels, "graph", "1.3e154 x 2", json.dumps(OVERFLOW_GRAPH))
              for labels in ("crowd", "static")]
    problems = []
    for n, (labels, name, value, text) in enumerate(cases):
        path = _fit_files(t, labels)[name]
        original = path.read_text()
        path.write_text(text)
        try:
            code = _main(*_fit_argv(t, t / f"o{n}", labels=labels))
        except Exception as exc:  # a traceback: the console script exits 1
            code = repr(exc)
        finally:
            path.write_text(original)
        err = capsys.readouterr().err.strip()
        case = f"{labels} labels, {name} cell {value[:12]!r}: exit {code}"
        if code not in (0, 1, 2):
            problems.append(f"{case}: {err[-200:]}")
        elif code != 0 and (t / f"o{n}").exists():
            problems.append(f"{case} left its --out")
    assert len(cases) == 2 * 5 * len(MUTATION_VALUES) + 2
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "model,name", [("mt_lasso", "features"), ("eg_mtl", "expert_features"), ("sr_mtl", "graph")]
)
def test_fit_design_that_overflows_exits_2_naming_its_file(tree, tmp_path, capsys, model, name):
    # X'X, P'P or the Laplacian overflows, so the solver could not start:
    # before, `numerical failure: objective is not finite at the starting point`
    t = _copy(tree, tmp_path)
    shutil.copy(t / "data/p1/features.csv", t / "expert_features.csv")
    path = _fit_files(t, "crowd")[name]
    if name == "graph":
        path.write_text(json.dumps(OVERFLOW_GRAPH))
    else:
        _set_cell(path, "f2", "1e200", row=3)
    argv = _fit_argv(t, t / "o", model, extra=["--graph", path] if model == "sr_mtl" else [])
    capsys.readouterr()
    assert _main(*argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: values too large: the " in err
    assert not (t / "o").exists()
    if name == "features":  # standardized columns no longer overflow
        assert _main(*argv, "--standardize") == 0


@pytest.mark.parametrize(
    "model,flag",
    [("st_lasso", "--beta"), ("mt_lasso", "--beta"), ("l21_mtl", "--beta"), ("eg_mtl", "--lambda1"),
     ("eg_mtl", "--lambda2"), ("sr_mtl", "--alpha"), ("sr_mtl", "--gamma")],
)
def test_fit_hyperparameter_that_overflows_its_term_exits_1_naming_its_flag(tree, tmp_path, capsys,
                                                                           model, flag):
    # finite data, but 2b I, 2 lambda1 P'P or 2a gamma^2 R (the complete graph)
    # overflows: before, exit 3 at the solver's start (mt_lasso, eg_mtl) or
    # exit 2 blaming "the complete task graph" (sr_mtl without --graph).
    # the cases cover every quadratic hyperparameter of the seven models
    t = _copy(tree, tmp_path)
    shutil.copy(t / "data/p1/features.csv", t / "expert_features.csv")
    capsys.readouterr()
    assert _main(*_fit_argv(t, t / "o", model, extra=[flag, "1e308"])) == 1
    assert capsys.readouterr().err == (f"usage error: {flag} 1e+308 is too large: "
                                       "its term of the smooth objective is not finite\n")
    assert not (t / "o").exists()


def _levels_argv(t, command, levels):
    """`fit` on fused crowd labels or a one-run `p1`, at `levels` classes."""
    if command == "fit":
        return _fit_argv(t, t / "o", "mt_lasso", extra=["--levels", levels])
    return ["p1", "--data", t / "data", "--models", "mt_lasso", "--runs", 1, "--folds", 2,
            "--grid", 1, "--levels", levels, "--out", t / "o"]


@pytest.mark.parametrize("command", ["fit", "p1"])
def test_levels_above_the_feature_rows_exits_1_naming_the_row_count(tree, tmp_path, capsys,
                                                                     command):
    # one class per feature row at most, as for a static label: before,
    # fit died in a 74.5 GiB MemoryError traceback and p1 wrote
    # failed:MemoryError rows
    t = _copy(tree, tmp_path)
    features = t / "data/p1/features.csv"
    rows = len(features.read_text().splitlines()) - 1
    capsys.readouterr()
    assert _main(*_levels_argv(t, command, 9999999999)) == 1
    assert capsys.readouterr().err == (f"usage error: --levels 9999999999 is above the {rows} "
                                       f"feature rows of {features}\n")
    assert not (t / "o").exists()
    assert _main(*_levels_argv(t, command, rows)) == 0
    if command == "fit":
        assert json.loads((t / "o/fit.json").read_text())["dims"]["C"] == rows


def test_result_csv_quotes_a_field_that_holds_a_comma(tree, tmp_path):
    t = _copy(tree, tmp_path)
    (t / "p2.json").write_text(json.dumps({"feature_set": "audio,visual"}))
    argv = ["p2", "--data", t / "data", "--config", t / "p2.json", "--models", "mt_lasso",
            "--folds", 2, "--grid", 1, "--out", t / "o"]
    assert _main(*argv) == 0
    with open(t / "o/result.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ResultTable.CSV_HEADER.split(",")
    assert rows and all(len(row) == 9 for row in rows)
    assert {row[2] for row in rows} == {"audio,visual"}


def test_each_command_prints_the_summary_of_what_it_wrote(tree, tmp_path, capsys, monkeypatch):
    t = _copy(tree, tmp_path)
    monkeypatch.chdir(t)
    (t / "one.csv").write_text(
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        + "".join(f"c1,r1,expert,arousal,{s},0.{s % 9}\n" for s in range(20))
    )
    protocol = ["--models", "mt_lasso", "--folds", "2", "--grid", "1", "--seed", "5"]
    runs = {
        "synth": ["synth", "--config", "synth.json", "--seed", "5"],
        "filter": ["filter", "--traces", "data/p1/crowd.csv", "--min-std", "5"],
        "concordance": ["concordance", "--traces", "data/p1/expert.csv", "--window", "20"],
        "skipped": ["concordance", "--traces", "one.csv", "--window", "10"],
        "fuse": ["fuse", "--traces", "data/p1/crowd.csv", "--window", "20"],
        "fit": ["fit", "--features", "data/p1/features.csv", "--labels", "static.csv",
                "--model", "mt_lasso"],
        "p1": ["p1", "--data", "data", "--runs", "1", *protocol],
        "p2": ["p2", "--data", "data", *protocol],
    }
    stdout = {}
    for name, argv in runs.items():
        capsys.readouterr()
        assert _main(*argv, "--out", name) == 0, name
        stdout[name] = capsys.readouterr().out
    report = json.loads((t / "filter/report.json").read_text())
    summary = json.loads((t / "concordance/concordance.json").read_text())["summary"]
    fit = json.loads((t / "fit/fit.json").read_text())
    assert stdout["synth"] == "synthetic data written to synth\n"
    assert stdout["filter"] == (f"accepted {report['n_accepted']} / rejected "
                                f"{report['n_rejected']} of {report['n_input']} traces\n")
    assert report["n_rejected"] == report["n_input"] > 0
    assert stdout["concordance"] == "".join(
        f"arousal/expert/{s['segment']}: W = {s['mean_w']:.3f} +- {s['sd_w']:.3f} (3 clips)\n"
        for s in summary
    )
    assert len(summary) == 3
    # every group skipped: the skip lines go to stderr, stdout stays empty
    assert stdout["skipped"] == ""
    assert json.loads((t / "skipped/concordance.json").read_text()) == {
        "reports": [], "summary": []
    }
    assert stdout["fuse"] == "fused 3 (clip, attribute, rater_kind) groups\n"
    assert stdout["fit"] == (f"mt_lasso: objective {fit['final_objective']:.6g} after "
                             f"{fit['iterations']} iterations (sparsity {fit['sparsity']:.3f})\n")
    for protocol in ("p1", "p2"):
        assert stdout[protocol] == (t / protocol / "result.txt").read_text()
        assert re.match(r"model +attr", stdout[protocol])
