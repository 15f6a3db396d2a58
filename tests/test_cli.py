import argparse
import dataclasses
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdmtl import cli
from crowdmtl.annotations import QcPolicy
from crowdmtl.design import apply_standardizer, column_standardizer
from crowdmtl.experiments import P1Config, P2Config
from crowdmtl.solvers import SolverConfig

TRACE_HEADER = "clip_id,rater_id,rater_kind,attribute,time_s,value\n"


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "crowdmtl", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_traces(path, rows):
    path.write_text(TRACE_HEADER + "".join(rows))
    return str(path)


def good_traces(n_raters=3, n_seconds=20, kind="expert"):
    rows = []
    for r in range(n_raters):
        for t in range(n_seconds):
            value = np.sin(t / 3.0) * 0.8
            rows.append(f"c1,{kind}{r},{kind},arousal,{t},{value:.6f}\n")
    return rows


def test_filter_all_pass(tmp_path):
    traces = write_traces(tmp_path / "t.csv", good_traces())
    code, out, err = run_cli("filter", "--traces", traces, "--out", str(tmp_path / "o"))
    assert code == 0, err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["n_rejected"] == 0
    assert report["rejected"] == []


def test_filter_malformed_csv(tmp_path):
    traces = write_traces(
        tmp_path / "t.csv",
        ["c1,r1,expert,arousal,0,0.5\n", "c1,r1,expert,arousal,1,oops\n"],
    )
    code, out, err = run_cli("filter", "--traces", traces, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "line 3" in err


def test_filter_kind_change_within_trace_exits_2(tmp_path):
    traces = write_traces(
        tmp_path / "t.csv",
        [
            "c1,r1,crowd,arousal,0,2\n",
            "c1,r1,expert,arousal,1,1\n",
            "c1,r1,crowd,arousal,2,-2\n",
        ],
    )
    code, out, err = run_cli("filter", "--traces", traces, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "t.csv: line 3: rater_kind changes within trace" in err


def test_filter_repeated_column_exits_2(tmp_path):
    traces = tmp_path / "t.csv"
    traces.write_text(
        TRACE_HEADER.rstrip("\n") + ",value\n"
        "c1,r1,crowd,arousal,0,2,-2\n"
        "c1,r1,crowd,arousal,1,1,-1\n"
    )
    code, out, err = run_cli(
        "filter", "--traces", str(traces), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "t.csv: line 1: expected columns" in err


def test_filter_static_rating_off_the_crowd_slider_exits_2(tmp_path, capsys):
    traces = write_traces(tmp_path / "t.csv", good_traces(kind="crowd"))
    static = tmp_path / "static.csv"
    static.write_text("clip_id,rater_id,attribute,static_value\nc1,crowd0,arousal,7\n")
    capsys.readouterr()
    argv = ["filter", "--traces", traces, "--static", str(static), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    message = f"data error: {static}: line 2: static_value 7.0 outside the crowd range [-2, 2]"
    assert message in capsys.readouterr().err


def test_filter_flag_in_resolved_config(tmp_path):
    traces = write_traces(tmp_path / "t.csv", good_traces())
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "filter", "--traces", traces, "--max-missing", "0.35", "--out", str(out_dir)
    )
    assert code == 0
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["max_missing_fraction"] == 0.35


def test_filter_rejects_flatliner(tmp_path):
    rows = good_traces() + [f"c1,flat,crowd,arousal,{t},0.5\n" for t in range(20)]
    traces = write_traces(tmp_path / "t.csv", rows)
    out_dir = tmp_path / "o"
    code, *_ = run_cli("filter", "--traces", traces, "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["rejected"] == [
        {"clip_id": "c1", "rater_id": "flat", "attribute": "arousal", "reason": "inactivity"}
    ]


def test_filter_sign_rule_without_static_ratings_exits_1(tmp_path, capsys):
    # it used to reject every trace as "sign" and exit 0
    traces = write_traces(tmp_path / "t.csv", good_traces(kind="crowd"))
    capsys.readouterr()
    argv = ["filter", "--traces", traces, "--require-sign-consistency",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert "usage error: --require-sign-consistency needs --static" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_concordance_identical_raters(tmp_path):
    traces = write_traces(tmp_path / "t.csv", good_traces())
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        "concordance",
        "--traces", traces,
        "--window", "10",
        "--out", str(out_dir),
    )
    assert code == 0, err
    payload = json.loads((out_dir / "concordance.json").read_text())
    assert len(payload["reports"]) == 3  # full, first_half, second_half
    for report in payload["reports"]:
        assert report["kendalls_w"] == pytest.approx(1.0)
        assert report["n_raters"] == 3
        assert set(report) == {
            "clip_set", "attribute", "segment", "rater_kind",
            "n_raters", "n_items", "kendalls_w",
        }


def test_concordance_single_segment(tmp_path):
    traces = write_traces(tmp_path / "t.csv", good_traces())
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "concordance",
        "--traces", traces,
        "--window", "10",
        "--segment", "second_half",
        "--out", str(out_dir),
    )
    assert code == 0
    payload = json.loads((out_dir / "concordance.json").read_text())
    assert [r["segment"] for r in payload["reports"]] == ["second_half"]
    assert payload["reports"][0]["n_items"] == 5


def test_concordance_group_by_kind(tmp_path):
    rows = good_traces(kind="expert") + [
        f"c1,w{r},crowd,arousal,{t},{np.cos(t / 2.0):.4f}\n"
        for r in range(2)
        for t in range(20)
    ]
    traces = write_traces(tmp_path / "t.csv", rows)
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "concordance", "--traces", traces, "--window", "10",
        "--segment", "full", "--out", str(out_dir),
    )
    assert code == 0
    payload = json.loads((out_dir / "concordance.json").read_text())
    kinds = {r["rater_kind"] for r in payload["reports"]}
    assert kinds == {"expert", "crowd"}


def test_fuse_median(tmp_path):
    rows = []
    for rater, offset in (("a", -0.2), ("b", 0.0), ("c", 0.9)):
        for t in range(10):
            rows.append(f"c1,{rater},expert,arousal,{t},{offset:.2f}\n")
    # second clip with an even rater count: median is the middle-pair mean
    for rater, offset in (("d", 0.0), ("e", 0.5)):
        for t in range(10):
            rows.append(f"c2,{rater},expert,arousal,{t},{offset:.2f}\n")
    # third clip with a single rater: fused vector is the trace itself
    for t in range(10):
        rows.append(f"c3,solo,expert,arousal,{t},{0.1 * t - 0.4:.2f}\n")
    traces = write_traces(tmp_path / "t.csv", rows)
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "fuse", "--traces", traces, "--window", "10", "--out", str(out_dir)
    )
    assert code == 0
    per_clip = {}
    for line in (out_dir / "fused.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        per_clip.setdefault(cells[0], []).append(float(cells[4]))
    assert per_clip["c1"] == [0.0] * 10  # median robust to the outlier rater
    assert per_clip["c2"] == [0.25] * 10  # even count: mean of the two middles
    assert np.allclose(per_clip["c3"], [0.1 * t - 0.4 for t in range(10)])


def make_fit_inputs(tmp_path, n=30, d=3, clips=("c1",)):
    rng = np.random.default_rng(0)
    feature_lines = ["clip_id,time_s," + ",".join(f"f{i+1}" for i in range(d))]
    label_lines = ["clip_id,label"]
    for ci, clip in enumerate(clips):
        x = rng.normal(size=(n, d))
        for t in range(n):
            feature_lines.append(f"{clip},{t}," + ",".join(repr(float(v)) for v in x[t]))
        label_lines.append(f"{clip},{1 + ci % 2}")
    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.csv"
    fpath.write_text("\n".join(feature_lines) + "\n")
    lpath.write_text("\n".join(label_lines) + "\n")
    return str(fpath), str(lpath)


def test_fit_egmtl_requires_expert_inputs(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path)
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", lpath,
        "--model", "eg_mtl", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "--expert-features" in err and "--expert-labels" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--expert-features", "--expert-labels"], "--expert-features, --expert-labels"),
        (["--expert-labels"], "--expert-labels"),
    ],
)
def test_fit_expert_files_for_a_model_without_expert_term_exit_1(tmp_path, capsys, flags,
                                                                 named):
    # mt_lasso's W does not depend on expert rows, yet fit.json reported them
    fpath, lpath = make_fit_inputs(tmp_path)
    files = {"--expert-features": fpath, "--expert-labels": lpath}
    experts = [arg for flag in flags for arg in (flag, files[flag])]
    base = ["fit", "--features", fpath, "--labels", lpath]
    capsys.readouterr()
    assert cli.main([*base, "--model", "mt_lasso", *experts, "--out", str(tmp_path / "o")]) == 1
    message = f"usage error: mt_lasso does not take {named}; its hyperparameters are --alpha, --beta"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fit_egmtl_with_expert_files_runs(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "eg_mtl",
            "--expert-features", fpath, "--expert-labels", lpath, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "o" / "fit.json").read_text())["dims"]["Ne"] == 60


def test_fit_nonfinite_graph_weight_exits_2(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"edges": [{"i": 1, "j": 2, "gamma": Infinity}]}\n')
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", lpath, "--graph", str(gpath),
        "--model", "sr_mtl", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "graph.json" in err and "finite" in err


@pytest.mark.parametrize("edge", ['{"i": "1", "j": 2}', '{"i": 1, "j": 2, "gamma": true}'])
def test_fit_graph_field_that_is_not_a_number_exits_2(tmp_path, capsys, edge):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"edges": [%s]}\n' % edge)
    argv = ["fit", "--features", fpath, "--labels", lpath, "--graph", str(gpath),
            "--model", "sr_mtl", "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert f"data error: {gpath}: bad edge list: edge field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edge,message",
    [
        ('{"i": 1, "j": 2, "gamma": 1e200}', "edge (1,2) weight 1e+200 has no finite square"),
        ('{"i": 1e300, "j": 2}', "edge endpoint 1e+300 is out of range"),
        ('{"i": 1, "j": -1e300}', "edge endpoint -1e+300 is out of range"),
        ('{"i": 9223372036854775809, "j": 2}', "edge endpoint 9.223372036854776e+18 is out of range"),
    ],
    ids=["weight", "float-endpoint", "negative-endpoint", "integer-endpoint"],
)
def test_fit_graph_number_too_large_exits_2(tmp_path, capsys, edge, message):
    # the weight used to load and fail the fit with exit 3, and the
    # endpoints to wrap in int64 and be named as -9223372036854775808
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2", "c3", "c4"))
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"edges": [%s]}\n' % edge)
    argv = ["fit", "--features", fpath, "--labels", lpath, "--graph", str(gpath),
            "--model", "sr_mtl", "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {gpath}: bad edge list: {message}\n" in err


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_fit_nonfinite_fused_label_exits_2(tmp_path, text):
    fpath, _ = make_fit_inputs(tmp_path, n=6)
    values = ["0.5", "-0.5", text, "0.25", "-0.25", "0.0"]
    labels = tmp_path / "fused.csv"
    labels.write_text(
        "clip_id,rater_kind,attribute,time_s,value\n"
        + "".join(f"c1,crowd,arousal,{t},{v}\n" for t, v in enumerate(values))
    )
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", str(labels),
        "--model", "mt_lasso", "--out", str(tmp_path / "o"),
    )
    assert code == 2, err
    assert "fused.csv: line 4: non-finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_fit_hyperparameter_not_finite_and_nonnegative_exits_1(tmp_path, capsys, value):
    fpath, lpath = make_fit_inputs(tmp_path)
    argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "mt_lasso",
            f"--alpha={value}", "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    message = f"usage error: alpha must be finite and >= 0, got {float(value)}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "W.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_rel_tol_not_finite_exits_1(tmp_path, capsys, value):
    # inf stopped the solver after one step with converged: true
    fpath, lpath = make_fit_inputs(tmp_path)
    argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "mt_lasso",
            "--rel-tol", value, "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    message = f"usage error: rel_tol must be > 0 and finite, got {float(value)}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "model, flags, named, takes",
    [
        ("mt_lasso", ["--gamma", "5", "--lambda1", "3"], "--gamma, --lambda1", "--alpha, --beta"),
        ("eg_mtl", ["--alpha", "1"], "--alpha", "--lambda1, --lambda2, --lambda3"),
        ("dirty_mtl", ["--graph", "graph.json"], "--graph", "--rho1, --rho2"),
        ("st_lasso", ["--beta", "0", "--graph", "graph.json"], "--graph", "--alpha, --beta"),
    ],
)
def test_fit_flag_the_model_does_not_take_exits_1(tmp_path, capsys, model, flags, named, takes):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    (tmp_path / "graph.json").write_text('{"edges": [{"i": 1, "j": 2}]}\n')
    flags = [str(tmp_path / f) if f == "graph.json" else f for f in flags]
    argv = ["fit", "--features", fpath, "--labels", lpath, "--model", model, *flags,
            "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: {model} does not take {named}; its hyperparameters are {takes}" in err
    assert not (tmp_path / "o").exists()


def test_fit_hyperparameters_the_model_takes_default_to_1(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    runs = {}
    for name, flags in (("default", []), ("explicit", ["--alpha", "1", "--beta", "1.0"])):
        out_dir = tmp_path / name
        argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "mt_lasso",
                *flags, "--out", str(out_dir)]
        assert cli.main(argv) == 0
        runs[name] = [(out_dir / f).read_bytes() for f in ("W.csv", "fit.json")]
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["hyperparams"] == {"alpha": 1.0, "beta": 1.0}
    assert runs["default"] == runs["explicit"]


def test_fit_graph_endpoint_off_the_clips_exits_2_naming_the_graph(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2", "c3", "c4"))
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"edges": [{"i": 1, "j": 2}, {"i": 1, "j": 9}]}\n')
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", lpath, "--graph", str(gpath),
        "--model", "sr_mtl", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert f"data error: {gpath}: edge (1,9) endpoint out of range 1..4" in err


def test_fit_least_squares_oracle(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, n=40, d=3, clips=("c1",))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", lpath,
        "--model", "mt_lasso", "--alpha", "0", "--beta", "0",
        "--rel-tol", "1e-13", "--max-iter", "30000",
        "--out", str(out_dir),
    )
    assert code == 0, err
    w = np.loadtxt(out_dir / "W.csv", delimiter=",", ndmin=2)
    # independent direct solve of the normal equations; the single clip is
    # labelled class 1, so the target is one column of ones
    x = np.loadtxt(fpath, delimiter=",", skiprows=1, usecols=(2, 3, 4))
    y = np.ones((x.shape[0], 1))
    w_star = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.linalg.norm(w - w_star) / np.linalg.norm(w_star) < 1e-6


def test_fit_deterministic(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    outputs = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        code, *_ = run_cli(
            "fit", "--features", fpath, "--labels", lpath,
            "--model", "mt_lasso", "--alpha", "0.2", "--beta", "0.1",
            "--out", str(out_dir),
        )
        assert code == 0
        outputs.append(
            (
                (out_dir / "fit.json").read_bytes(),
                (out_dir / "W.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_fit_standardize_matches_features_standardized_by_hand(tmp_path):
    rng = np.random.default_rng(5)
    clips = ("c1", "c2", "c3")
    crowd = {clip: rng.normal(3.0, 2.0, size=(20, 3)) for clip in clips}
    expert = {clip: rng.normal(-1.0, 0.5, size=(6, 3)) for clip in clips}
    lpath = tmp_path / "labels.csv"
    lpath.write_text("clip_id,label\nc1,1\nc2,2\nc3,1\n")
    # the crowd rows in the order fit stacks them; the expert rows take their scaler
    mean, std = column_standardizer(np.vstack([crowd[clip] for clip in clips]))

    def write_features(name, per_clip, scale):
        lines = ["clip_id,time_s,f1,f2,f3"]
        for clip, x in per_clip.items():
            for t, row in enumerate(scale(x)):
                lines.append(f"{clip},{t}," + ",".join(repr(float(v)) for v in row))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return str(tmp_path / name)

    def fitted_w(scale, *flags):
        out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
        argv = [
            "fit", "--features", write_features(f"{out.name}_crowd.csv", crowd, scale),
            "--labels", str(lpath), "--model", "eg_mtl",
            "--expert-features", write_features(f"{out.name}_expert.csv", expert, scale),
            "--expert-labels", str(lpath), *flags, "--out", str(out),
        ]
        assert cli.main(argv) == 0
        return (out / "W.csv").read_bytes()

    by_hand = fitted_w(lambda x: apply_standardizer(x, mean, std))
    assert fitted_w(lambda x: x, "--standardize") == by_hand
    assert fitted_w(lambda x: x) != by_hand


def test_fit_dirty_emits_parts(tmp_path):
    fpath, lpath = make_fit_inputs(tmp_path, clips=("c1", "c2"))
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "fit", "--features", fpath, "--labels", lpath,
        "--model", "dirty_mtl", "--rho1", "0.3", "--rho2", "0.2",
        "--out", str(out_dir),
    )
    assert code == 0
    shared = np.loadtxt(out_dir / "shared_part.csv", delimiter=",")
    sparse = np.loadtxt(out_dir / "sparse_part.csv", delimiter=",")
    w = np.loadtxt(out_dir / "W.csv", delimiter=",")
    assert np.allclose(shared + sparse, w)


SYNTH_CONFIG = {
    "n_tasks": 3,
    "n_features": 5,
    "samples_per_task": 40,
    "n_crowd": 4,
    "n_expert": 4,
    "p2_clips_per_set": 6,
    "p2_eval_clips": 6,
    "p2_window_len": 16,
}


def synth_dir(tmp_path, seed=3, noiseless=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CONFIG))
    data_dir = tmp_path / "data"
    args = [
        "synth", "--config", str(cfg_path), "--seed", str(seed),
        "--out", str(data_dir),
    ]
    if noiseless:
        args.insert(1, "--noiseless")
    code, out, err = run_cli(*args)
    assert code == 0, err
    return data_dir


def test_synth_writes_layout(tmp_path):
    data_dir = synth_dir(tmp_path)
    for name in (
        "p1/features.csv", "p1/crowd.csv", "p1/expert.csv", "p1/truth.csv",
        "p2/val_crowd.csv", "p2/val_expert.csv", "p2/val_labels.csv",
        "p2/eval_crowd.csv", "p2/eval_labels.csv",
        "manifest.json", "resolved_config.json",
    ):
        assert (data_dir / name).exists(), name


def test_manifest_digest_recomputable(tmp_path):
    data_dir = synth_dir(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    digest = hashlib.sha256((data_dir / "resolved_config.json").read_bytes()).hexdigest()
    assert manifest["config_digest"] == digest
    assert manifest["command"] == "synth"
    assert manifest["master_seed"] == 3


FILTER_MANIFEST = """{
  "artifacts": [
    "accepted.csv",
    "rejected.csv",
    "report.json"
  ],
  "command": "filter",
  "config_digest": "c4adfa2ae174508bcf74ef872d52ae767f49f14922108fb5fd3cd0930bc750d4",
  "master_seed": null,
  "tool_version": "0.1.0"
}
"""

SYNTH_MANIFEST = """{
  "artifacts": [
    "p1/crowd.csv",
    "p1/expert.csv",
    "p1/features.csv",
    "p1/truth.csv",
    "p2/eval_crowd.csv",
    "p2/eval_labels.csv",
    "p2/val_crowd.csv",
    "p2/val_expert.csv",
    "p2/val_labels.csv"
  ],
  "command": "synth",
  "config_digest": "8150c43ca95738dacc594090c7c2b579eaf7209aa81cbd38ee1f2b6023dcf3e6",
  "master_seed": 3,
  "tool_version": "0.1.0"
}
"""


def test_manifest_text_is_pinned(tmp_path):
    # the whole file: key set, order, layout and the digest of the resolved config
    write_traces(tmp_path / "t.csv", good_traces())
    code, out, err = run_cli("filter", "--traces", "t.csv", "--out", "o", cwd=tmp_path)
    assert code == 0, err
    assert (tmp_path / "o" / "manifest.json").read_text() == FILTER_MANIFEST
    assert (synth_dir(tmp_path) / "manifest.json").read_text() == SYNTH_MANIFEST


def test_synth_deterministic(tmp_path):
    d1 = synth_dir(tmp_path / "a")
    d2 = synth_dir(tmp_path / "b")
    assert (d1 / "p1" / "crowd.csv").read_bytes() == (d2 / "p1" / "crowd.csv").read_bytes()
    assert (d1 / "p2" / "val_crowd.csv").read_bytes() == (d2 / "p2" / "val_crowd.csv").read_bytes()


# sha256 of each file `crowdmtl synth --seed 7` writes at the default config
SYNTH_SEED7_SHA256 = {
    "p1/crowd.csv": "0c6f2031fe98c1047c81911efa4759628aad79f32701d0dbac876ffa24c16ebd",
    "p1/expert.csv": "87eca329c344bf26617768fa0a514e058189a4b3003aa1802810dcf9113fc6d6",
    "p1/features.csv": "327b8bbbeaee7f1e8a04008510b35908ebb706cc92aa28327ee06c6b01613600",
    "p1/truth.csv": "d4c4e20c1745c8803a21a9ecccf5fd7fb6d1ad931c92b5562e07a9ad1fe40a24",
    "p2/eval_crowd.csv": "f0a3d9da4d0cd1e26d7f71cdb5e28b5a9510f21bd713d70465b6d564b5b8e83b",
    "p2/eval_labels.csv": "9305cdfd442862f3085d2c7ac42237f0659d036e8968b2ae9eeb4102d224e519",
    "p2/val_crowd.csv": "52768bb2f00dd824b5ce7f4f7206d7a12f701472c6eabff86b591231aa3546c9",
    "p2/val_expert.csv": "7e1e84b6710f4952c01beac29feb552404dfbdd2b4f5452715b3fe9b84ad85f3",
    "p2/val_labels.csv": "9fd1733c0c80c07299c7d2e8aba280cdaaea071e29d0f76fd6ed64d229fbb133",
}


def test_synth_seed_7_bytes_are_pinned(tmp_path):
    assert cli.main(["synth", "--seed", "7", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(SYNTH_SEED7_SHA256)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SYNTH_SEED7_SHA256
    }
    assert digests == SYNTH_SEED7_SHA256


def p1_args(data_dir, out_dir, seed=7, extra=()):
    return [
        "p1", "--data", str(data_dir), "--out", str(out_dir),
        "--seed", str(seed), "--runs", "2", "--folds", "3",
        "--grid", "0.1,1", "--models", "mt_lasso,eg_mtl",
        *extra,
    ]


def test_p1_seeded_reruns_identical(tmp_path):
    data_dir = synth_dir(tmp_path)
    code1, *_ = run_cli(*p1_args(data_dir, tmp_path / "r1"))
    code2, *_ = run_cli(*p1_args(data_dir, tmp_path / "r2"))
    assert code1 == 0 and code2 == 0
    assert (tmp_path / "r1" / "result.csv").read_bytes() == (
        tmp_path / "r2" / "result.csv"
    ).read_bytes()


def test_p1_rerun_from_resolved_config(tmp_path):
    # the emitted resolved config alone reproduces the run byte for byte
    data_dir = synth_dir(tmp_path)
    code, *_ = run_cli(*p1_args(data_dir, tmp_path / "r1", seed=9))
    assert code == 0
    code, out, err = run_cli(
        "p1",
        "--config", str(tmp_path / "r1" / "resolved_config.json"),
        "--out", str(tmp_path / "r2"),
    )
    assert code == 0, err
    assert (tmp_path / "r1" / "result.csv").read_bytes() == (
        tmp_path / "r2" / "result.csv"
    ).read_bytes()
    assert (tmp_path / "r1" / "resolved_config.json").read_bytes() == (
        tmp_path / "r2" / "resolved_config.json"
    ).read_bytes()


def test_p1_noiseless_ceiling(tmp_path):
    data_dir = synth_dir(tmp_path, noiseless=True)
    out_dir = tmp_path / "r"
    code, out, err = run_cli(
        "p1", "--data", str(data_dir), "--out", str(out_dir),
        "--seed", "1", "--runs", "2", "--folds", "3",
        "--grid", "0.001,0.1", "--levels", "2",
    )
    assert code == 0, err
    lines = (out_dir / "result.csv").read_text().splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        assert cells[-1] == "ok"
        assert float(cells[5]) <= 0.5 + 1e-6, line


def test_p1_nonfinite_feature_exits_2(tmp_path):
    data_dir = synth_dir(tmp_path)
    features = data_dir / "p1" / "features.csv"
    lines = features.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "nan"
    lines[2] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(*p1_args(data_dir, tmp_path / "r"))
    assert code == 2, err
    assert "features.csv: line 3" in err


def test_p1_nonfinite_truth_exits_2(tmp_path):
    data_dir = synth_dir(tmp_path)
    truth = data_dir / "p1" / "truth.csv"
    lines = truth.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    truth.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(*p1_args(data_dir, tmp_path / "r"))
    assert code == 2, err
    assert "truth.csv: line 3: non-finite numeric field" in err


def test_p1_truth_row_missing_exits_2(tmp_path):
    # a deleted row must not shift the rest of the clip's signal
    data_dir = synth_dir(tmp_path)
    truth = data_dir / "p1" / "truth.csv"
    lines = truth.read_text().splitlines()
    clip = lines[5].split(",")[0]
    del lines[5]
    truth.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(*p1_args(data_dir, tmp_path / "r"))
    assert code == 2, err
    assert f"truth.csv: time grid mismatch for clip {clip}" in err


def test_p2_requires_eval_source(tmp_path):
    data_dir = synth_dir(tmp_path)
    (data_dir / "p2" / "eval_crowd.csv").unlink()
    code, out, err = run_cli(
        "p2", "--data", str(data_dir), "--out", str(tmp_path / "r"), "--seed", "1"
    )
    assert code == 2
    assert "Eval source required" in err


def test_p2_runs_and_reports(tmp_path):
    data_dir = synth_dir(tmp_path)
    out_dir = tmp_path / "r"
    code, out, err = run_cli(
        "p2", "--data", str(data_dir), "--out", str(out_dir), "--seed", "1",
        "--folds", "3", "--grid", "0.1,1", "--models", "mt_lasso",
    )
    assert code == 0, err
    lines = (out_dir / "result.csv").read_text().splitlines()
    assert lines[0].startswith("model,attribute")
    cells = lines[1].split(",")
    assert cells[0] == "mt_lasso"
    assert 0.0 <= float(cells[5]) <= 1.0


def test_usage_errors_exit_1(tmp_path):
    code, out, err = run_cli("p1", "--data", "nowhere")  # missing --out
    assert code == 1
    code, out, err = run_cli("fit", "--features", "x", "--labels", "y",
                             "--model", "bogus", "--out", str(tmp_path / "o"))
    assert code == 1


# a key no generator reads is not a SynthConfig setting
@pytest.mark.parametrize("key", ["not_a_key", "level_count", "p2_wiggle"])
def test_unknown_config_key_rejected(tmp_path, key):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({key: 1}))
    code, out, err = run_cli(
        "synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")
    )
    assert code == 1
    assert key in err


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_config_file_empty_grid_rejected(tmp_path, protocol):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lambda1_grid": []}))
    code, out, err = run_cli(
        protocol, "--config", str(cfg_path), "--data", str(tmp_path / "d"),
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "empty hyperparameter grid" in err


def test_cli_import_loads_no_scipy():
    code = "import crowdmtl.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only a protocol run with --jobs above 1 imports the pool
    code = "import crowdmtl.cli, sys; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_numerical_failure_exit_3(tmp_path):
    # finite Gram parts (1e200 would overflow X'X: a data error, exit 2) whose
    # scale is past the solver's Lipschitz cap
    lines = ["clip_id,time_s,f1,f2"]
    for t in range(10):
        sign = -1 if t % 2 else 1
        lines.append(f"c1,{t},1e12,{sign}e12")
    fpath = tmp_path / "f.csv"
    fpath.write_text("\n".join(lines) + "\n")
    lpath = tmp_path / "l.csv"
    lpath.write_text("clip_id,label\nc1,1\n")
    code, out, err = run_cli(
        "fit", "--features", str(fpath), "--labels", str(lpath),
        "--model", "mt_lasso", "--alpha", "0.1", "--beta", "0.1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert "numerical failure" in err


def test_version_flag():
    code, out, err = run_cli("--version")
    assert code == 0


def test_concordance_group_by_none_pools_populations(tmp_path):
    rows = good_traces(n_raters=2, kind="expert") + [
        f"c1,w{r},crowd,arousal,{t},{np.sin(t / 3.0) * 1.6:.4f}\n"
        for r in range(2)
        for t in range(20)
    ]
    traces = write_traces(tmp_path / "t.csv", rows)
    out_dir = tmp_path / "o"
    code, *_ = run_cli(
        "concordance", "--traces", traces, "--window", "10",
        "--segment", "full", "--group-by", "none", "--out", str(out_dir),
    )
    assert code == 0
    payload = json.loads((out_dir / "concordance.json").read_text())
    assert len(payload["reports"]) == 1
    report = payload["reports"][0]
    assert report["rater_kind"] == "all"
    assert report["n_raters"] == 4


# --------------------------------------------------------------------------
# protocol inputs: seeded mutations of every p1/ and p2/ file

MUTATION_SYNTH = {
    "n_tasks": 3,
    "n_features": 4,
    "samples_per_task": 20,
    "n_crowd": 3,
    "n_expert": 8,  # more than 7, so the eg_mtl_7 row exists
    "p2_clips_per_set": 4,
    "p2_eval_clips": 4,
    "p2_window_len": 12,
}
TEXT_COLUMNS = ("clip_id", "rater_id", "rater_kind", "attribute")


def _mutations(name, header):
    """Mutation names that apply to a protocol file with this header."""
    out = ["drop_row", "drop_clip", "dup_row", "swap_columns", "nan", "inf", "truncate"]
    if "rater_kind" in header:
        out.append("change_kind")
    if "expert" in name:
        out.append("drop_expert")
    if "label" in header:
        out.append("label_3")
    return out


def _mutate(text, mutation, rng):
    """`text` of a CSV with one seeded defect."""
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    k = int(rng.integers(len(rows)))
    numeric = [i for i, col in enumerate(header) if col not in TEXT_COLUMNS]
    if mutation == "truncate":
        return text[: int(rng.integers(1, len(text)))]
    if mutation == "drop_row":
        del rows[k]
    elif mutation == "drop_clip":
        rows = [r for r in rows if r[0] != rows[k][0]]
    elif mutation == "dup_row":
        rows.insert(k, list(rows[k]))
    elif mutation == "swap_columns":
        i, j = rng.choice(len(header), size=2, replace=False)
        for r in rows:
            r[i], r[j] = r[j], r[i]
    elif mutation in ("nan", "inf"):
        rows[k][numeric[int(rng.integers(len(numeric)))]] = mutation
    elif mutation == "change_kind":
        col = header.index("rater_kind")
        rows[k][col] = "crowd" if rows[k][col] == "expert" else "expert"
    elif mutation == "drop_expert":
        rows = [r for r in rows if r[:2] != rows[k][:2]]
    elif mutation == "label_3":
        rows[k][header.index("label")] = "3"
    return lines[0] + "".join(",".join(r) + "\n" for r in rows)


def small_tree(tmp_path):
    """In-process `crowdmtl synth` of MUTATION_SYNTH; returns its data dir."""
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(MUTATION_SYNTH))
    data_dir = tmp_path / "data"
    argv = ["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(data_dir)]
    assert cli.main(argv) == 0
    return data_dir


def protocol_argv(protocol, data_dir, out_dir, models="mt_lasso,eg_mtl", extra=()):
    runs = ["--runs", "1"] if protocol == "p1" else []
    return [protocol, *runs, "--data", str(data_dir), "--out", str(out_dir), "--seed", "5",
            "--folds", "2", "--grid", "1", "--models", models, *extra]


def test_every_protocol_input_mutation_fails_at_load_or_runs_clean(tmp_path, capsys):
    # a defect in any p1/ or p2/ file either exits 2 naming that file, or
    # does not matter to the protocol: never exit 1 or 3, never a failed row
    data_dir = small_tree(tmp_path)
    rng = np.random.default_rng(20)
    cases = [(None, None)] + [
        (path, mutation)
        for path in sorted(data_dir.glob("p[12]/*.csv"))
        for mutation in _mutations(path.name, path.read_text().split("\n", 1)[0])
    ]
    problems = []
    for n, (path, mutation) in enumerate(cases):
        protocols = ("p1", "p2") if path is None else (path.parent.name,)
        original = path.read_text() if path is not None else None
        if path is not None:
            path.write_text(_mutate(original, mutation, rng))
        for protocol in protocols:
            out_dir = tmp_path / f"out{n}{protocol}"
            try:
                code = cli.main(protocol_argv(protocol, data_dir, out_dir))
            except Exception as exc:  # a traceback: the console script exits 1
                print(repr(exc), file=sys.stderr)
                code = 1
            err = capsys.readouterr().err
            case = f"{path and path.relative_to(data_dir)} {mutation}: exit {code}"
            if code == 0:
                if "failed:" in (out_dir / "result.csv").read_text():
                    problems.append(f"{case} with a failed row")
            elif code != 2:
                problems.append(f"{case}: {err.strip()}")
            elif path is None or str(path) not in err:
                problems.append(f"{case} without naming the file: {err.strip()}")
        if path is not None:
            path.write_text(original)
    assert len(cases) > 60
    assert not problems, "\n".join(problems)


def _drop_rows(path, drop):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(l for l in lines[1:] if not drop(l.split(","))))


def _set_label(path, clip, label):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(
        f"{clip},{label}\n" if l.split(",")[0] == clip else l for l in lines[1:]
    ))


FIRST_HALF = {f"expert{r:02d}" for r in range(1, 5)}


@pytest.mark.parametrize(
    "protocol,models,name,mutate",
    [
        ("p1", "eg_mtl", "p1/expert.csv", lambda p: _drop_rows(p, lambda r: r[0] == "clip01")),
        ("p1", "eg_mtl", "p1/expert.csv",
         lambda p: _drop_rows(p, lambda r: r[0] == "clip01" and float(r[4]) == 19)),
        ("p1", "eg_mtl", "p1/expert.csv",
         lambda p: _drop_rows(p, lambda r: r[0] == "clip02" and r[1] not in FIRST_HALF)),
        ("p1", "mt_lasso", "p1/truth.csv", lambda p: _drop_rows(p, lambda r: r[0] == "clip02")),
        ("p2", "eg_mtl", "p2/val_expert.csv",
         lambda p: _drop_rows(p, lambda r: float(r[4]) == 11)),
        ("p2", "eg_mtl", "p2/val_expert.csv",
         lambda p: _drop_rows(p, lambda r: r[0] == "val02" and r[1] not in FIRST_HALF)),
        ("p2", "mt_lasso", "p2/val_labels.csv", lambda p: _set_label(p, "val01", 3)),
        ("p2", "mt_lasso", "p2/eval_labels.csv", lambda p: _set_label(p, "eval01", 3)),
    ],
    ids=["expert-clip", "expert-last-second", "expert-panel", "truth-clip",
         "val-expert-last-second", "val-expert-panel", "val-label-3", "eval-label-3"],
)
def test_protocol_input_defect_exits_2_naming_the_file(
    tmp_path, capsys, protocol, models, name, mutate
):
    data_dir = small_tree(tmp_path)
    mutate(data_dir / name)
    capsys.readouterr()
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "r", models)) == 2
    assert f"data error: {data_dir / name}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "protocol,flags,code,message",
    [
        ("p1", ["--folds", "1"], 1, "folds must be >= 2"),
        ("p1", ["--levels", "1"], 1, "level_count must be >= 2"),
        ("p2", ["--folds", "1"], 1, "folds must be >= 2"),
        # 20 s clips less a 5 s snippet leave 15 training seconds
        ("p1", ["--folds", "16"], 2, "16 folds but only 15 training seconds"),
        ("p2", ["--folds", "5"], 2, "5 folds but only 4 validation clips"),
        ("p1", ["--grid", "nan"], 1, "lambda1 must be finite and >= 0, got nan"),
        ("p2", ["--grid", "1,inf"], 1, "lambda1 must be finite and >= 0, got inf"),
        ("p1", ["--grid=-1,1"], 1, "lambda1 must be finite and >= 0, got -1.0"),
        ("p2", ["--grid=-1,1"], 1, "lambda1 must be finite and >= 0, got -1.0"),
        ("p1", ["--jobs", "0"], 1, "--jobs must be >= 1, got 0"),
        ("p2", ["--jobs", "-3"], 1, "--jobs must be >= 1, got -3"),
    ],
)
def test_protocol_settings_that_cannot_run_fail_before_any_cell(
    tmp_path, capsys, protocol, flags, code, message
):
    data_dir = small_tree(tmp_path)
    capsys.readouterr()
    # the later flag wins, so these override the --folds 2 default of the helper
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "r", "mt_lasso", flags)) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r" / "result.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_protocol_grid_value_whose_term_overflows_exits_1(tmp_path, capsys, protocol, jobs):
    # eg_mtl weighs P'P by 2 lambda1, which 1e308 makes overflow; mt_lasso's
    # alpha weighs no smooth term, and grid value 1 alone runs clean
    data_dir = small_tree(tmp_path)
    capsys.readouterr()
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "ok", extra=["--jobs", jobs])) == 0
    assert "failed:" not in (tmp_path / "ok" / "result.csv").read_text()
    flags = ["--grid", "1,1e308", "--jobs", jobs]
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "r", extra=flags)) == 1
    assert ("usage error: --grid 1e+308 is too large: "
            "its lambda1 term of the smooth objective is not finite") in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("protocol,grid", [("p1", "1,1e308"), ("p2", "1e308")])
def test_protocol_grid_value_whose_term_overflows_prints_one_line(tmp_path, protocol, grid, jobs):
    # the overflowing fit warns nothing (no numpy RuntimeWarning in a child
    # process's stderr): the usage error is the whole of it
    data_dir = small_tree(tmp_path)
    flags = ["--grid", grid, "--jobs", jobs]
    code, out, err = run_cli(*protocol_argv(protocol, data_dir, tmp_path / "r", extra=flags))
    assert (code, out) == (1, "")
    assert err == ("usage error: --grid 1e+308 is too large: "
                   "its lambda1 term of the smooth objective is not finite\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("protocol", ["p1", "p2"])
@pytest.mark.parametrize(
    "config,message",
    [
        ({"lambda2": -1}, "lambda2 must be finite and >= 0, got -1.0"),
        ({"lambda3": -0.5}, "lambda3 must be finite and >= 0, got -0.5"),
        ({"lambda1_grid": [-1, 1]}, "lambda1 must be finite and >= 0, got -1.0"),
        ({"lambda1_grid": [float("nan")]}, "lambda1 must be finite and >= 0, got nan"),
        ({"rel_tol": float("nan")}, "rel_tol must be > 0 and finite, got nan"),
        ({"rel_tol": float("inf")}, "rel_tol must be > 0 and finite, got inf"),
        # the subset size is fixed: a configured 3 fitted 3 experts in the row eg_mtl_7
        ({"expert_subset_size": 3, "models": ["eg_mtl"]},
         "unknown config key 'expert_subset_size'"),
    ],
)
def test_protocol_config_settings_no_cell_can_run_exit_1(
    tmp_path, capsys, protocol, config, message
):
    data_dir = small_tree(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = [protocol, "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r" / "result.csv").exists()


@pytest.mark.parametrize("command", ["synth", "p1", "p2"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_1_before_out_is_created(tmp_path, capsys, command, source):
    # numpy's SeedSequence would reject it later as a data error naming nothing
    argv = [command, "--out", str(tmp_path / "r")]
    if command != "synth":
        argv += ["--data", str(small_tree(tmp_path)), "--models", "mt_lasso"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "cfg.json").write_text('{"seed": -1}')
        argv += ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "usage error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _benchmark_tracer():
    """benchmarks/tracer.py's Tracer, imported from its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_sees_the_protocol_layers(tmp_path):
    # the tracer wraps module attributes by name: a call moved to a name it
    # does not wrap would read 0 in the benchmark without failing anything
    data_dir = small_tree(tmp_path)
    tracer = _benchmark_tracer()
    tracer.install()
    try:
        for protocol in ("p1", "p2"):
            assert cli.main(protocol_argv(protocol, data_dir, tmp_path / protocol)) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    # mt_lasso, eg_mtl and eg_mtl_7 (8 experts > 7), one run, 2 folds, 1 value;
    # each protocol builds its 2 + 1 designs once per expert set: the
    # all-experts set that mt_lasso and eg_mtl share, and eg_mtl_7's
    cells, expert_sets = 3 + 3, 2 + 2
    p1_predicts = 3 * (2 + 1) * MUTATION_SYNTH["n_tasks"]  # each fold and the test
    p2_predicts = 3 * (MUTATION_SYNTH["p2_clips_per_set"] + MUTATION_SYNTH["p2_eval_clips"])
    assert metrics["experiments.cells"] == cells
    assert metrics["design.assemble_calls"] == expert_sets * (2 + 1)
    assert metrics["solvers.fit_calls"] == cells * (2 * 1 + 1)
    assert metrics["solvers.predict_calls"] == p1_predicts + p2_predicts
    for name in ("design.standardize_s", "annotations.median_fuse_s", "cli.load_s"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("protocol,folds", [("p1", "15"), ("p2", "4")])
def test_protocol_folds_up_to_the_training_units_run(tmp_path, capsys, protocol, folds):
    data_dir = small_tree(tmp_path)
    argv = protocol_argv(protocol, data_dir, tmp_path / "r", "mt_lasso", ["--folds", folds])
    assert cli.main(argv) == 0
    assert "failed:" not in (tmp_path / "r" / "result.csv").read_text()


@pytest.mark.parametrize("half", ["front", "back"])
def test_p1_snippet_longer_than_its_half_exits_2(tmp_path, capsys, half):
    data_dir = small_tree(tmp_path)
    capsys.readouterr()
    argv = protocol_argv("p1", data_dir, tmp_path / "r", "mt_lasso",
                         ["--snippet", "15", "--half", half])
    assert cli.main(argv) == 2
    message = f"data error: {data_dir}: 15 s snippet does not fit in the {half} half of 20 samples"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r" / "result.csv").exists()


@pytest.mark.parametrize("half", ["front", "back"])
def test_p1_snippet_filling_its_half_runs(tmp_path, half):
    data_dir = small_tree(tmp_path)  # 20 s clips: each half holds 10 s
    argv = protocol_argv("p1", data_dir, tmp_path / "r", "mt_lasso",
                         ["--snippet", "10", "--half", half])
    assert cli.main(argv) == 0
    assert "failed:" not in (tmp_path / "r" / "result.csv").read_text()


def _add_valence_copies(path):
    """Append a negated valence copy of every arousal trace of `path`."""
    lines = path.read_text().splitlines(keepends=True)
    copies = []
    for line in lines[1:]:
        clip, rater, kind, attribute, t, value = line.rstrip("\n").split(",")
        assert attribute == "arousal"
        copies.append(f"{clip},{rater},{kind},valence,{t},{-float(value)!r}\n")
    path.write_text("".join(lines + copies))


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_protocol_reads_only_its_attribute(tmp_path, capsys, protocol):
    data_dir = small_tree(tmp_path)
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "clean")) == 0
    trace_files = [p for p in sorted((data_dir / protocol).glob("*.csv"))
                   if p.read_text().startswith(TRACE_HEADER)]
    assert len(trace_files) >= 2
    for path in trace_files:
        _add_valence_copies(path)
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "mixed")) == 0
    clean = (tmp_path / "clean" / "result.csv").read_bytes()
    assert (tmp_path / "mixed" / "result.csv").read_bytes() == clean
    # a crowd file with only the other attribute's traces has none to read
    crowd = trace_files[0]
    _drop_rows(crowd, lambda r: r[3] == "arousal")
    capsys.readouterr()
    assert cli.main(protocol_argv(protocol, data_dir, tmp_path / "none")) == 2
    assert f"{crowd}: no crowd arousal traces" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config",
    [
        ("p1", {"lambda1_grid": 5}),
        ("p1", {"lambda1_grid": ["a"]}),
        ("p1", {"runs": "3"}),
        ("p1", {"folds": 2.5}),
        ("p1", {"models": 5}),
        ("p1", {"models": ["mt_lasso", 3]}),
        ("p1", {"data": 7}),
        ("p2", {"rel_tol": "1e-6"}),
        ("p2", {"max_iter": 10.5}),
        ("p2", {"folds": True}),
        ("p2", {"lambda1_grid": [1, False]}),
        ("synth", {"n_tasks": "4"}),
        ("synth", {"n_tasks": 2.5}),
        ("synth", {"crowd_noise_sd": True}),
    ],
)
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    data = [] if command == "synth" else ["--data", str(small_tree(tmp_path))]
    argv = [command, "--config", str(cfg_path), *data, "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    (key,) = config
    assert f"usage error: config key {key!r} has a value of the wrong type" in capsys.readouterr().err
    assert not (tmp_path / "r" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command,config",
    [  # an int passes for a float; models is a string or a list of strings
        ("p1", {"lambda1_grid": [1], "lambda2": 1, "models": ["mt_lasso"], "folds": 2}),
        ("p2", {"lambda1_grid": [1.0], "lambda3": 2, "models": "mt_lasso", "folds": 2}),
        ("synth", {"crowd_noise_sd": 1, "n_tasks": 3}),
    ],
)
def test_config_values_of_their_defaults_type_run(tmp_path, command, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    data = [] if command == "synth" else ["--data", str(small_tree(tmp_path))]
    runs = ["--runs", "1"] if command == "p1" else []
    argv = [command, *runs, "--config", str(cfg_path), *data, "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    resolved = json.loads((tmp_path / "r" / "resolved_config.json").read_text())
    if "models" in config:
        assert resolved.pop("models") == ["mt_lasso"]
    assert all(resolved[key] == value for key, value in config.items() if key != "models")


@pytest.mark.parametrize(
    "rows,line,message",
    [
        (["0,0.5", "1,1.5", "2,0.0"], 3, "value 1.5 outside [-1, 1]"),
        (["0,0.5", "1,-1.25", "2,0.0"], 3, "value -1.25 outside [-1, 1]"),
        (["0,0.5", "1,0.25", "1,0.0"], 4, "duplicate time_s 1.0"),
        (["2,0.5", "0,0.25", "2,0.0"], 4, "duplicate time_s 2.0"),
    ],
    ids=["above", "below", "repeat", "repeat-unsorted"],
)
def test_fit_bad_fused_label_exits_2_naming_its_line(tmp_path, rows, line, message):
    fpath, _ = make_fit_inputs(tmp_path, n=3)
    labels = tmp_path / "fused.csv"
    labels.write_text(
        "clip_id,rater_kind,attribute,time_s,value\n"
        + "".join(f"c1,crowd,arousal,{row}\n" for row in rows)
    )
    code, out, err = run_cli(
        "fit", "--features", fpath, "--labels", str(labels),
        "--model", "mt_lasso", "--out", str(tmp_path / "o"),
    )
    assert code == 2, err
    assert f"fused.csv: line {line}: {message}" in err


def test_p1_truth_header_without_value_exits_2(tmp_path, capsys):
    data_dir = small_tree(tmp_path)
    truth = data_dir / "p1" / "truth.csv"
    lines = truth.read_text().splitlines(keepends=True)
    truth.write_text("clip_id,time_s,v\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert cli.main(protocol_argv("p1", data_dir, tmp_path / "r", "mt_lasso")) == 2
    assert f"data error: {truth}: line 1: expected columns" in capsys.readouterr().err


# One CSV dialect: each table the package reads, with its columns, two good
# data rows and the numeric column that the cases below break.
DIALECT = {
    "traces": (
        ("clip_id", "rater_id", "rater_kind", "attribute", "time_s", "value"),
        [["c1", "r1", "crowd", "arousal", "0", "0.5"], ["c1", "r1", "crowd", "arousal", "1", "1"]],
        "value",
    ),
    "static": (
        ("clip_id", "rater_id", "attribute", "static_value"),
        [["c1", "r1", "arousal", "1"], ["c1", "r2", "arousal", "-2"]],
        "static_value",
    ),
    "features": (
        ("clip_id", "time_s", "f1", "f2"),
        [["c1", "0", "0.1", "0.2"], ["c1", "1", "0.3", "0.4"]],
        "f2",
    ),
    "truth": (
        ("clip_id", "time_s", "value"),
        [["clip01", "0.0", "0.5"], ["clip01", "1.0", "0.25"]],
        "value",
    ),
    "labels": (("clip_id", "label"), [["c1", "1"], ["c2", "2"]], "label"),
    "fused": (
        ("clip_id", "rater_kind", "attribute", "time_s", "value"),
        [["c1", "crowd", "arousal", "0", "0.5"], ["c1", "crowd", "arousal", "1", "0.25"]],
        "value",
    ),
}


def _table(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _dialect_case(reader, case):
    """(CSV text with one defect, the line it must be reported at)."""
    columns, rows, numeric = DIALECT[reader]
    bad = list(rows[1])
    bad[columns.index(numeric)] = "nan" if case == "nan" else "oops"
    if case == "empty":
        return "", 1
    if case == "header":
        return _table([columns[0], "bogus", *columns[2:]], rows), 1
    if case == "short":
        return _table(columns, [rows[0], rows[1][:-1]]), 3
    if case == "blank":
        return _table(columns, [rows[0], [], bad]), 4  # the blank line still counts
    if case == "permuted":
        if reader == "features":  # clip_id,time_s lead: no other order
            return _table(columns[::-1], [r[::-1] for r in rows]), 1
        return _table(columns[::-1], [rows[0][::-1], bad[::-1]]), 3
    return _table(columns, [rows[0], bad]), 3  # nan, oops


def _read_table(reader, path, tmp_path, capsys) -> str:
    """The error message from reading `path` as the `reader` table."""
    from crowdmtl.annotations import load_static_ratings
    from crowdmtl.design import load_features_csv
    from crowdmtl.errors import DataError

    direct = {"traces": cli.load_traces, "static": load_static_ratings,
              "features": load_features_csv}
    if reader in direct:
        with pytest.raises(DataError) as exc:
            direct[reader](path)
        return str(exc.value)
    if reader == "truth":
        argv = protocol_argv("p1", path.parent.parent, tmp_path / "r", "mt_lasso")
    else:
        fpath, _ = make_fit_inputs(tmp_path, n=2, clips=("c1", "c2"))
        argv = ["fit", "--features", fpath, "--labels", str(path), "--model", "mt_lasso",
                "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("case", ["empty", "header", "short", "blank", "nan", "oops", "permuted"])
@pytest.mark.parametrize("reader", list(DIALECT))
def test_every_table_reports_a_defect_with_its_path_and_line(tmp_path, capsys, reader, case):
    text, line = _dialect_case(reader, case)
    path = small_tree(tmp_path) / "p1" / "truth.csv" if reader == "truth" else tmp_path / "t.csv"
    path.write_text(text)
    message = _read_table(reader, path, tmp_path, capsys)
    assert f"{path}: line {line}: " in message


def _reader_of(reader, data_dir, tmp_path):
    """(a valid table for `reader` in `data_dir`, a function that reads it
    and returns what it loaded, or the bytes of the command output)."""
    from crowdmtl.annotations import load_static_ratings

    if reader == "traces":
        path = data_dir / "p1" / "crowd.csv"
        return path, lambda: [(tr.key(), tr.rater_kind, tr.times.tolist(), tr.values.tolist())
                              for tr in cli.load_traces(path)]
    if reader == "static":
        path = tmp_path / "static.csv"
        path.write_text(_table(*DIALECT["static"][:2]))
        return path, lambda: load_static_ratings(path)
    output, features = "W.csv", str(data_dir / "p1" / "features.csv")
    if reader == "truth":
        path, output = data_dir / "p1" / "truth.csv", "result.csv"
        argv = protocol_argv("p1", data_dir, tmp_path / "r", "mt_lasso")
    elif reader == "labels":
        path = tmp_path / "labels.csv"
        path.write_text("clip_id,label\n" + "".join(f"clip0{c},{c}\n" for c in (1, 2, 3)))
        argv = ["fit", "--features", features, "--labels", str(path)]
    else:
        fuse = ["fuse", "--traces", str(data_dir / "p1" / "crowd.csv"), "--window", "20"]
        assert cli.main([*fuse, "--out", str(tmp_path / "f")]) == 0
        path = tmp_path / "f" / "fused.csv"
        argv = ["fit", "--features", features, "--labels", str(path), "--levels", "3"]
    if reader != "truth":
        argv += ["--model", "mt_lasso", "--out", str(tmp_path / "r")]

    def run():
        assert cli.main(argv) == 0
        return (tmp_path / "r" / output).read_bytes()

    return path, run


@pytest.mark.parametrize("reader", ["traces", "static", "truth", "labels", "fused"])
def test_fixed_column_tables_take_their_columns_in_any_order(tmp_path, reader):
    path, read = _reader_of(reader, small_tree(tmp_path), tmp_path)
    before = read()
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[::-1]) + "\n" for line in lines))
    assert read() == before


FIT_HELP = """\
usage: crowdmtl fit [-h] --features FEATURES --labels LABELS --model
                    {st_lasso,mt_lasso,l21_mtl,dirty_mtl,robust_mtl,sr_mtl,eg_mtl}
                    [--levels LEVELS] [--label-kind {crowd,expert}]
                    [--label-attribute {arousal,valence}]
                    [--expert-features EXPERT_FEATURES]
                    [--expert-labels EXPERT_LABELS] [--graph GRAPH]
                    [--standardize] [--alpha ALPHA] [--beta BETA]
                    [--rho1 RHO1] [--rho2 RHO2] [--gamma GAMMA]
                    [--lambda1 LAMBDA1] [--lambda2 LAMBDA2]
                    [--lambda3 LAMBDA3] [--max-iter MAX_ITER]
                    [--rel-tol REL_TOL] --out OUT

options:
  -h, --help            show this help message and exit
  --features FEATURES
  --labels LABELS       static labels or fused CSV
  --model {st_lasso,mt_lasso,l21_mtl,dirty_mtl,robust_mtl,sr_mtl,eg_mtl}
  --levels LEVELS       classes for dynamic labels
  --label-kind {crowd,expert}
  --label-attribute {arousal,valence}
  --expert-features EXPERT_FEATURES
  --expert-labels EXPERT_LABELS
  --graph GRAPH         task graph JSON
  --standardize
  --alpha ALPHA         default 1.0
  --beta BETA           default 1.0
  --rho1 RHO1           default 1.0
  --rho2 RHO2           default 1.0
  --gamma GAMMA         default 1.0
  --lambda1 LAMBDA1     default 1.0
  --lambda2 LAMBDA2     default 1.0
  --lambda3 LAMBDA3     default 1.0
  --max-iter MAX_ITER
  --rel-tol REL_TOL
  --out OUT
"""


def test_fit_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    assert cli.main(["fit", "--help"]) == 0
    assert capsys.readouterr().out == FIT_HELP


@pytest.mark.parametrize(
    "argv,config_cls",
    [
        (["filter", "--traces", "t.csv"], QcPolicy),
        (["fit", "--features", "f.csv", "--labels", "l.csv", "--model", "mt_lasso"],
         SolverConfig),
        (["p1"], P1Config),
        (["p2"], P2Config),
    ],
)
def test_flags_leave_each_setting_default_to_its_config_class(argv, config_cls):
    # a flag that sets a config field carries the field's name and no default
    args = cli.build_parser().parse_args([*argv, "--out", "o"])
    named = [f.name for f in dataclasses.fields(config_cls) if hasattr(args, f.name)]
    assert named
    assert all(getattr(args, name) is None for name in named)


def test_fit_levels_below_2_exits_1(tmp_path, capsys):
    fpath, lpath = make_fit_inputs(tmp_path)
    argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "mt_lasso"]
    capsys.readouterr()
    assert cli.main([*argv, "--levels", "1", "--out", str(tmp_path / "o")]) == 1
    assert "usage error: --levels must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("label", [2**62, 9999999999, 31])
@pytest.mark.parametrize("flag", ["--labels", "--expert-labels"])
def test_fit_static_label_above_the_feature_rows_exits_2(tmp_path, capsys, flag, label):
    # the class count is the largest label: 2**62 overflowed the design's
    # sizes and 9999999999 asked for terabytes; 31 is one past the 30 rows
    fpath, lpath = make_fit_inputs(tmp_path)
    bad = tmp_path / "bad_labels.csv"
    bad.write_text(f"clip_id,label\nc1,{label}\n")
    labels = {"--labels": lpath, "--expert-labels": lpath, flag: str(bad)}
    out_dir = tmp_path / "o"
    argv = ["fit", "--features", fpath, "--model", "eg_mtl", "--expert-features", fpath]
    for name, path in labels.items():
        argv += [name, path]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out_dir)]) == 2
    assert (f"data error: {bad}: clip c1: label {label} is above the 30 feature rows "
            f"of {fpath}") in capsys.readouterr().err
    assert not out_dir.exists()


def test_fit_static_label_equal_to_the_feature_rows_fits(tmp_path):
    fpath, _ = make_fit_inputs(tmp_path, n=6)
    labels = tmp_path / "labels.csv"
    labels.write_text("clip_id,label\nc1,6\n")
    out_dir = tmp_path / "o"
    argv = ["fit", "--features", fpath, "--labels", str(labels), "--model", "mt_lasso"]
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "fit.json").read_text())["dims"]["C"] == 6


# `fit --levels` is the class count of dynamic labels and `p1 --levels` sets
# P1Config.level_count: two settings that share one name, not one flag
NOT_SHARED = {"--levels"}


def test_each_shared_flag_is_one_declaration():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    uses: dict = {}
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            for flag in action.option_strings:
                uses.setdefault(flag, []).append((command, action))
    shared = {flag: found for flag, found in uses.items() if len(found) > 1}
    assert set(shared) >= {"--out", "--traces", "--rate", "--window", "--config", "--seed",
                           "--data", "--folds", "--grid", "--models", "--jobs"}
    for flag, found in shared.items():
        if flag in NOT_SHARED:
            continue
        first_command, first = found[0]
        for command, action in found[1:]:
            for field in ("dest", "type", "default", "choices", "required", "help"):
                assert getattr(action, field) == getattr(first, field), (
                    f"{command} {flag} differs from {first_command} {flag} in {field}"
                )


@pytest.mark.parametrize("command", ["concordance", "fuse"])
@pytest.mark.parametrize(
    "flag,value",
    [("--window", "0"), ("--window", "-5"), ("--window", "nan"), ("--rate", "0"),
     ("--rate", "nan"), ("--rate", "-1"), ("--rate", "inf")],
)
def test_window_and_rate_not_positive_exit_1_before_any_read(
    tmp_path, capsys, command, flag, value
):
    traces = write_traces(tmp_path / "t.csv", good_traces(n_seconds=50))
    out_dir = tmp_path / "o"
    capsys.readouterr()
    assert cli.main([command, "--traces", traces, f"{flag}={value}", "--out", str(out_dir)]) == 1
    assert f"usage error: {flag} must be finite and > 0, got {float(value)}" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["concordance", "fuse"])
@pytest.mark.parametrize(
    "window,rate", [("2.5", "1"), ("0.5", "3"), ("1e-10", "1"), ("10", "1e308")]
)
def test_window_of_no_whole_sample_count_exits_1_before_any_read(
    tmp_path, capsys, command, window, rate
):
    # the traces file does not exist: reading it first would exit 2
    out_dir = tmp_path / "o"
    argv = [command, "--traces", str(tmp_path / "absent.csv"), "--window", window,
            "--rate", rate, "--out", str(out_dir)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    message = f"usage error: --window {float(window)} s is not a whole number of samples " \
        f"at --rate {float(rate)} Hz"
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["concordance", "fuse"])
def test_window_of_whole_samples_at_a_fractional_rate_runs(tmp_path, command):
    traces = write_traces(tmp_path / "t.csv", good_traces(n_seconds=20))
    out_dir = tmp_path / "o"
    argv = [command, "--traces", traces, "--window", "2.5", "--rate", "2", "--out", str(out_dir)]
    assert cli.main(argv) == 0
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert (resolved["window_s"], resolved["rate_hz"]) == (2.5, 2.0)


@pytest.mark.parametrize("command", ["concordance", "fuse"])
def test_window_longer_than_the_traces_exits_2_naming_the_file(tmp_path, capsys, command):
    traces = write_traces(tmp_path / "t.csv", good_traces(n_seconds=50))
    capsys.readouterr()
    argv = [command, "--traces", traces, "--window", "60", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert f"data error: {traces}: c1/expert0: trace covers 50 s, shorter than the 60 s window" \
        in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["0.5", "1", "2", "100"])
def test_concordance_fits_the_whole_timeline_at_every_rate(tmp_path, rate):
    # 20 samples at 1 Hz cover 20 s at every rate, so a 20 s window fits
    data_dir = small_tree(tmp_path)
    out_dir = tmp_path / "o"
    argv = ["concordance", "--traces", str(data_dir / "p1" / "crowd.csv"), "--window", "20",
            "--rate", rate, "--out", str(out_dir)]
    assert cli.main(argv) == 0
    reports = json.loads((out_dir / "concordance.json").read_text())["reports"]
    assert {r["n_items"] for r in reports if r["segment"] == "full"} == {round(20 * float(rate))}


def test_fuse_takes_values_within_the_slider_tolerance(tmp_path, capsys):
    rows = good_traces(n_seconds=5, kind="crowd")
    rows[2] = "c1,crowd0,crowd,arousal,2,2.0000000005\n"
    traces = write_traces(tmp_path / "t.csv", rows)
    out_dir = tmp_path / "o"
    assert cli.main(["fuse", "--traces", traces, "--window", "3", "--out", str(out_dir)]) == 0
    rows[2] = "c1,crowd0,crowd,arousal,2,2.000000002\n"
    write_traces(tmp_path / "t.csv", rows)
    capsys.readouterr()
    assert cli.main(["fuse", "--traces", traces, "--window", "3", "--out", str(out_dir)]) == 2
    assert f"data error: {traces}: line 4: value 2.000000002 outside the crowd range [-2, 2]" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_filter_min_std_not_finite_exits_1(tmp_path, capsys, value):
    traces = write_traces(tmp_path / "t.csv", good_traces())
    capsys.readouterr()
    argv = ["filter", "--traces", traces, "--min-std", value, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert f"usage error: min_std must be finite and >= 0, got {float(value)}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "config,message",
    [
        ({"crowd_noise_sd": float("nan"), "expert_noise_sd": 0.1},
         "crowd_noise_sd must be finite and >= 0, got nan"),
        ({"crowd_noise_sd": float("inf")}, "crowd_noise_sd must be finite and >= 0, got inf"),
        ({"crowd_noise_sd": -0.1, "expert_noise_sd": -0.2},
         "crowd_noise_sd must be finite and >= 0, got -0.1"),
        ({"expert_noise_sd": -0.1}, "expert_noise_sd must be finite and >= 0, got -0.1"),
        ({"p2_window_len": 0}, "p2_window_len must be >= 1"),
        ({"p2_clips_per_set": 0}, "p2_clips_per_set must be >= 1"),
        ({"p2_eval_clips": 0}, "p2_eval_clips must be >= 1"),
    ],
)
def test_synth_setting_its_loaders_cannot_read_exits_1(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["concordance", "filter", "fit"])
def test_csv_field_over_the_csv_limit_exits_2_naming_file_and_line(tmp_path, capsys, command):
    # csv refuses a field over csv.field_size_limit() (131,072 characters)
    huge = "c" * 140_000
    if command == "fit":
        fpath, lpath = make_fit_inputs(tmp_path)
        lines = Path(fpath).read_text().splitlines(keepends=True)
        lines[2] = huge + lines[2][len("c1"):]
        Path(fpath).write_text("".join(lines))
        argv = ["fit", "--features", fpath, "--labels", lpath, "--model", "mt_lasso"]
        bad = fpath
    else:
        rows = good_traces()
        rows[1] = huge + rows[1][len("c1"):]
        bad = write_traces(tmp_path / "t.csv", rows)
        argv = [command, "--traces", bad]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert f"data error: {bad}: line 3: field larger than field limit" in capsys.readouterr().err
