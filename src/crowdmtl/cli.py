"""Command-line surface: one binary, subcommands for each pipeline stage.

A command's handler loads every input and computes every result; it
returns them, and `main` alone then creates `--out` and writes the
artifacts, the resolved config and a run manifest into it -- inputs are
never mutated. So a command that exits non-zero creates no `--out` (a
write that fails part-way may still leave one). `synth`, `p1` and `p2`
also take a JSON `--config` file and resolve each setting as flag > config
file > default; the other commands take flags alone. Exit codes: 0
success, 1 usage error, 2 data error (a design whose Gram parts or graph
term overflow among them), 3 numerical failure of the solver.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .annotations import (
    ATTRIBUTES,
    AnnotationTrace,
    QcPolicy,
    RATER_KINDS,
    SEGMENTS,
    RowError,
    concordance,
    load_traces,
    median_fuse,
    qc_reasons,
    # unused here, but benchmarks/tracer.py wraps these three names on `cli`
    quality_filter,  # noqa: F401
    resample_trace,  # noqa: F401
    resample_windows,
    window_last,  # noqa: F401
    write_sample_csv,
    write_traces,
)
from .design import (
    FUSED_COLUMNS,
    TaskDataset,
    TaskGraph,
    # unused here, but benchmarks/tracer.py wraps these two names on `cli`
    apply_standardizer,  # noqa: F401
    assemble_design,
    column_standardizer,  # noqa: F401
    discretize_levels,
    is_static_labels,
    load_features_csv,
    load_fused_csv,
    load_graph_json,
    load_labels_csv,
)
from .errors import DataError, NumericalError, UsageError
from .experiments import (
    MODEL_ORDER,
    P1Config,
    P1Data,
    P2Config,
    P2Data,
    SynthConfig,
    run_p1,
    run_p2,
    snippet_offsets,
    standardized_design,
    synth_generate,
    synth_generate_p2,
)
from .solvers import (
    EXPERT_KINDS,
    GRAPH_KINDS,
    HYPERPARAMS,
    MODEL_KINDS,
    ModelSpec,
    SolverConfig,
    fit,
    nonfinite_term,
)

TRUTH_COLUMNS = ("clip_id", "time_s", "value")
# every model's hyperparameters, one `fit` flag each
FIT_HYPERPARAMS = tuple(dict.fromkeys(n for names in HYPERPARAMS.values() for n in names))


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve for data)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rows(path, rows) -> None:
    """Write each row of `rows` as a CSV line; a float is written as its
    repr, so it reads back as the same value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_trace_list(path, traces) -> None:
    """`write_traces`, path first as an artifact writer takes it."""
    write_traces(traces, path)


def _write_run(out_dir, command: str, resolved: dict, seed, artifacts) -> None:
    """Create `out_dir` and write each artifact, {name: (writer, *inputs)}
    as `writer(path, *inputs)`, then resolved_config.json and manifest.json,
    the record of one invocation; the digest covers the config file bytes
    so it can be recomputed from the emitted file alone."""
    for name, (write, *inputs) in artifacts.items():
        path = os.path.join(out_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(path, *inputs)
    cfg_path = os.path.join(out_dir, "resolved_config.json")
    _write_json(cfg_path, resolved)
    with open(cfg_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "command": command,
        "config_digest": digest,
        "master_seed": seed,
        "artifacts": sorted(artifacts),
        "tool_version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return payload


def _config_type_ok(key: str, value, default) -> bool:
    """Whether a config-file value has its default's type, an int passing
    for a float and a bool for no number; `data` is a string, `models` a
    string or a list of strings and `lambda1_grid` a list of numbers."""
    if key in ("models", "lambda1_grid") and isinstance(value, list):
        return all(_config_type_ok("", v, "" if key == "models" else 0.0) for v in value)
    if key in ("data", "models"):
        return isinstance(value, str)
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and not isinstance(value, bool)


def _resolve(defaults: dict, config_file: dict, flags: dict) -> dict:
    """flag > config file > default; unknown config keys and config values
    of the wrong type are rejected."""
    resolved = dict(defaults)
    for key, value in config_file.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        if not _config_type_ok(key, value, defaults[key]):
            raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
        resolved[key] = value
    for key, value in flags.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _usage_guard(factory, /, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _given(args, names) -> dict:
    """The flags among `names` that were set. A flag that sets a config field
    has the field's name as dest and None as default, so the config class
    alone declares the default."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _parse_models(value) -> list:
    if value is None:
        return list(MODEL_KINDS)
    names = value if isinstance(value, (list, tuple)) else value.split(",")
    names = [str(m).strip() for m in names if str(m).strip()]
    for name in names:
        if name not in MODEL_ORDER:
            raise UsageError(
                f"unknown model {name!r}; choose from {', '.join(MODEL_ORDER)}"
            )
    if not names:
        raise UsageError("empty model list")
    return names


def _parse_grid(text):
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse grid {text!r}") from None


# ---------------------------------------------------------------------------
# filter


def _cmd_filter(args):
    policy = _usage_guard(QcPolicy, **_given(args, asdict(QcPolicy())))
    if policy.require_sign_consistency and args.static is None:
        # without static ratings the sign rule would reject every trace
        raise UsageError("--require-sign-consistency needs --static")
    table = load_traces(args.traces, static_path=args.static)
    reasons = qc_reasons(table, policy)
    accepted = [i for i, reason in enumerate(reasons) if reason is None]
    rejected = [i for i, reason in enumerate(reasons) if reason is not None]
    rows = [
        dict(zip(("clip_id", "rater_id", "attribute"), table[i].key()), reason=reasons[i])
        for i in rejected
    ]
    report = {
        "n_input": len(table),
        "n_accepted": len(accepted),
        "n_rejected": len(rejected),
        "rejected": rows,
    }
    artifacts = {
        "accepted.csv": (_write_trace_list, table.select(accepted)),
        "rejected.csv": (_write_trace_list, table.select(rejected)),
        "report.json": (_write_json, report),
    }
    resolved = dict(asdict(policy), traces=args.traces, static=args.static)
    summary = f"accepted {len(accepted)} / rejected {len(rejected)} of {len(table)} traces\n"
    return resolved, None, artifacts, summary


# ---------------------------------------------------------------------------
# concordance / fuse


def _windowed_groups(args):
    """Group the traces of --traces by (clip, attribute, rater_kind) into
    windowed matrices, returned with the settings that made them; --rate
    and --window are checked before any read."""
    for flag, value in (("--rate", args.rate), ("--window", args.window)):
        if not (np.isfinite(value) and value > 0):
            raise UsageError(f"{flag} must be finite and > 0, got {value}")
    samples = args.window * args.rate  # whole to window_last's 1e-9, and >= 1
    if not (np.isfinite(samples) and samples > 0.5 and abs(samples - round(samples)) <= 1e-9):
        raise UsageError(
            f"--window {args.window} s is not a whole number of samples at --rate {args.rate} Hz"
        )
    table = load_traces(args.traces)
    try:
        values, offsets = resample_windows(table, args.rate, args.window)
    except RowError as exc:
        tr = table[exc.row]
        raise DataError(f"{args.traces}: {tr.clip_id}/{tr.rater_id}: {exc}") from None
    groups: dict = {}
    bounds = offsets.tolist()
    codes = (getattr(table, name).tolist() for name in ("clips", "raters", "kinds", "attributes"))
    for clip, rater, kind, attribute, a, b in zip(*codes, bounds, bounds[1:]):
        key = (table.clip_ids[clip], ATTRIBUTES[attribute], RATER_KINDS[kind])
        groups.setdefault(key, []).append((table.rater_ids[rater], values[a:b]))
    for key in groups:
        groups[key].sort(key=lambda item: item[0])
    return groups, {"traces": args.traces, "rate_hz": args.rate, "window_s": args.window}


def _cmd_concordance(args):
    groups, resolved = _windowed_groups(args)
    segments = list(SEGMENTS) if args.segment == "all" else [args.segment]
    if args.group_by == "none":
        merged: dict = {}
        for (clip, attribute, _), rows in groups.items():
            merged.setdefault((clip, attribute, "all"), []).extend(rows)
        groups = merged
    reports = []
    per_stat: dict = {}
    for (clip, attribute, kind), rows in sorted(groups.items()):
        if len(rows) < 2:
            print(
                f"skipping {clip}/{attribute}/{kind}: fewer than 2 raters",
                file=sys.stderr,
            )
            continue
        matrix = np.vstack([vec for _, vec in rows])
        for segment in segments:
            rep = concordance(matrix, segment)
            reports.append(dict(asdict(rep), clip_set=clip, attribute=attribute, rater_kind=kind))
            per_stat.setdefault((attribute, kind, segment), []).append(rep.kendalls_w)
    summary = [
        {
            "attribute": attribute,
            "rater_kind": kind,
            "segment": segment,
            "n_clips": len(values),
            "mean_w": float(np.mean(values)),
            "sd_w": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        }
        for (attribute, kind, segment), values in sorted(per_stat.items())
    ]
    resolved.update(segment=args.segment, group_by=args.group_by)
    text = "".join(
        f"{entry['attribute']}/{entry['rater_kind']}/{entry['segment']}: "
        f"W = {entry['mean_w']:.3f} +- {entry['sd_w']:.3f} ({entry['n_clips']} clips)\n"
        for entry in summary
    )
    payload = {"reports": reports, "summary": summary}
    return resolved, None, {"concordance.json": (_write_json, payload)}, text


def _cmd_fuse(args):
    groups, resolved = _windowed_groups(args)
    fused_rows = []
    for (clip, attribute, kind), rows in sorted(groups.items()):
        fused = median_fuse([vec for _, vec in rows])
        times = np.arange(fused.size) / args.rate
        fused_rows.append(((clip, kind, attribute), times, fused))
    summary = f"fused {len(fused_rows)} (clip, attribute, rater_kind) groups\n"
    return resolved, None, {"fused.csv": (write_sample_csv, FUSED_COLUMNS, fused_rows)}, summary


# ---------------------------------------------------------------------------
# fit


def _fit_tasks(features_path, labels_path, args):
    """Build per-clip TaskDatasets from a feature CSV plus labels.

    Static labels (clip_id,label) give every row of a clip its class;
    dynamic labels (a fused CSV, the series of --label-kind and
    --label-attribute) are aligned on the time grid and discretized to
    --levels classes.
    """
    feats = load_features_csv(features_path)
    clip_order = sorted(feats)
    n_rows = sum(x.shape[0] for _, x in feats.values())
    if is_static_labels(labels_path):
        labels = load_labels_csv(labels_path)
        # the class count is the largest label, at most one class per row
        top, n_classes = max(labels.items(), key=lambda item: item[1], default=(None, 0))
        if n_classes > n_rows:
            raise DataError(f"{labels_path}: clip {top}: label {n_classes} is above "
                            f"the {n_rows} feature rows of {features_path}")
        tasks = []
        for clip in clip_order:
            if clip not in labels:
                raise DataError(f"{labels_path}: no label for clip {clip}")
            times, x = feats[clip]
            tasks.append(
                TaskDataset(clip, x, np.full(x.shape[0], labels[clip], dtype=int))
            )
        return tasks, n_classes
    fused = load_fused_csv(labels_path)
    keys = sorted(fused)
    kinds = {k[1] for k in keys}
    attributes = {k[2] for k in keys}
    kind = args.label_kind or (kinds.pop() if len(kinds) == 1 else None)
    attribute = args.label_attribute or (attributes.pop() if len(attributes) == 1 else None)
    if kind is None or attribute is None:
        raise UsageError(
            "labels file holds several series; pass --label-kind/--label-attribute"
        )
    _check_levels(args.levels, n_rows, features_path)
    tasks = []
    for clip in clip_order:
        key = (clip, kind, attribute)
        if key not in fused:
            raise DataError(f"{labels_path}: no {kind}/{attribute} labels for {clip}")
        times, x = feats[clip]
        ltimes, values = fused[key]
        if ltimes.size != times.size or np.max(np.abs(ltimes - times)) > 1e-9:
            raise DataError(f"{labels_path}: time grid mismatch for clip {clip}")
        classes, _ = discretize_levels(values, args.levels)
        tasks.append(TaskDataset(clip, x, classes))
    return tasks, args.levels


def _check_levels(levels: int, n_rows: int, path) -> None:
    """At most one class per feature row of `path`, as for static labels."""
    if levels > n_rows:
        raise UsageError(f"--levels {levels} is above the {n_rows} feature rows of {path}")


def _cmd_fit(args):
    takes = HYPERPARAMS[args.model]
    foreign = [
        f"--{name}"
        for name in FIT_HYPERPARAMS
        if name not in takes and getattr(args, name) is not None
    ]
    if args.graph is not None and args.model not in GRAPH_KINDS:
        foreign.append("--graph")
    expert_flags = {
        "--expert-features": args.expert_features,
        "--expert-labels": args.expert_labels,
    }
    if args.model not in EXPERT_KINDS:
        foreign += [flag for flag, value in expert_flags.items() if value is not None]
    if foreign:
        raise UsageError(
            f"{args.model} does not take {', '.join(foreign)}; its hyperparameters are "
            + ", ".join(f"--{name}" for name in takes)
        )
    missing = [flag for flag, value in expert_flags.items() if value is None]
    if args.model in EXPERT_KINDS and missing:
        raise UsageError(f"{args.model} requires {' and '.join(missing)}")
    if args.levels < 2:
        raise UsageError(f"--levels must be >= 2, got {args.levels}")
    hyper = {
        name: 1.0 if getattr(args, name) is None else getattr(args, name)
        for name in takes
    }
    spec = _usage_guard(ModelSpec, kind=args.model, hyperparams=hyper)
    config = _usage_guard(SolverConfig, **_given(args, asdict(SolverConfig())))
    tasks, n_classes = _fit_tasks(args.features, args.labels, args)
    expert_tasks = None
    if args.expert_features is not None:
        expert_tasks, expert_classes = _fit_tasks(args.expert_features, args.expert_labels, args)
        if expert_classes != n_classes:
            raise DataError("crowd and expert label sets disagree on class count")
    if args.graph is not None:
        graph = load_graph_json(args.graph)
        try:
            graph.check_endpoints(len(tasks))
        except ValueError as exc:
            raise DataError(f"{args.graph}: {exc}") from None
    elif args.model in GRAPH_KINDS:
        graph = TaskGraph.complete(len(tasks))
    else:
        graph = None
    if args.standardize:
        design = standardized_design(tasks, n_classes, expert_tasks, graph)[0]
    else:
        design = assemble_design(tasks, n_classes, expert_tasks=expert_tasks, graph=graph)
    term = nonfinite_term(spec, design)
    if term in hyper:
        raise UsageError(f"--{term} {hyper[term]!r} is too large: "
                         "its term of the smooth objective is not finite")
    if term is not None:
        files = {"crowd": args.features, "expert": args.expert_features, "graph": args.graph}
        raise DataError(f"{files[term]}: values too large: "
                        f"the {term} part of the smooth objective is not finite")
    result = fit(spec, design, config)
    n, ne, d, r, c = design.dims
    fit_payload = {
        "model": spec.kind,
        "hyperparams": hyper,
        "dims": {"N": n, "Ne": ne, "D": d, "R": r, "C": c},
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": result.final_objective,
        "sparsity": result.sparsity,
    }
    artifacts = {
        "W.csv": (_write_rows, result.W.tolist()),
        "fit.json": (_write_json, fit_payload),
        "design.json": (_write_json, design.summary()),
    }
    if result.shared_part is not None:
        artifacts["shared_part.csv"] = (_write_rows, result.shared_part.tolist())
        artifacts["sparse_part.csv"] = (_write_rows, result.sparse_part.tolist())
    resolved = {
        "model": spec.kind,
        "hyperparams": hyper,
        "features": args.features,
        "labels": args.labels,
        "expert_features": args.expert_features,
        "expert_labels": args.expert_labels,
        "levels": args.levels,
        "graph": args.graph,
        "standardize": bool(args.standardize),
        "max_iter": config.max_iter,
        "rel_tol": config.rel_tol,
    }
    summary = (
        f"{spec.kind}: objective {result.final_objective:.6g} after "
        f"{result.iterations} iterations (sparsity {result.sparsity:.3f})\n"
    )
    return resolved, None, artifacts, summary


# ---------------------------------------------------------------------------
# synth


def _feature_rows(clip_ids, features):
    yield ["clip_id", "time_s"] + [f"f{i + 1}" for i in range(features[0].shape[1])]
    for clip, x in zip(clip_ids, features):
        for t, row in enumerate(x.tolist()):
            yield [clip, float(t), *row]


def _label_rows(clip_ids, classes):
    return [("clip_id", "label"), *zip(clip_ids, map(int, classes))]


def _write_trace_matrices(path, clip_ids, matrices, kind) -> None:
    """Write per-clip rater-row matrices (canonical scale) as arousal traces."""
    traces = [
        AnnotationTrace(
            clip_id=clip,
            rater_id=f"{kind}{r + 1:02d}",
            rater_kind=kind,
            attribute="arousal",
            times=np.arange(row.size, dtype=float),
            values=row,
        )
        for clip, mat in zip(clip_ids, matrices)
        for r, row in enumerate(mat)
    ]
    write_traces(traces, path)


def _cmd_synth(args):
    file_cfg = _load_config_file(args.config)
    defaults = asdict(SynthConfig())
    flags = {"seed": args.seed}
    resolved = _resolve(defaults, file_cfg, flags)
    if args.noiseless:
        resolved["crowd_noise_sd"] = 0.0
        resolved["expert_noise_sd"] = 0.0
    config = _usage_guard(SynthConfig, **resolved)
    data = synth_generate(config)
    val, evalset = synth_generate_p2(config)
    truth = [((clip,), np.arange(sig.size), sig) for clip, sig in zip(data.clip_ids, data.truth)]
    artifacts = {
        "p1/features.csv": (_write_rows, _feature_rows(data.clip_ids, data.features)),
        "p1/truth.csv": (write_sample_csv, TRUTH_COLUMNS, truth),
        "p1/crowd.csv": (_write_trace_matrices, data.clip_ids, data.crowd, "crowd"),
        "p1/expert.csv": (_write_trace_matrices, data.clip_ids, data.expert, "expert"),
        "p2/val_crowd.csv": (_write_trace_matrices, val.clip_ids, val.crowd_rows, "crowd"),
        "p2/val_expert.csv": (_write_trace_matrices, val.clip_ids, val.expert_rows, "expert"),
        "p2/val_labels.csv": (_write_rows, _label_rows(val.clip_ids, val.classes)),
        "p2/eval_crowd.csv": (
            _write_trace_matrices, evalset.clip_ids, evalset.crowd_rows, "crowd"
        ),
        "p2/eval_labels.csv": (_write_rows, _label_rows(evalset.clip_ids, evalset.classes)),
    }
    return resolved, config.seed, artifacts, f"synthetic data written to {args.out}\n"


# ---------------------------------------------------------------------------
# p1 / p2


def _clip_matrices(path, kind, attribute, clip_ids=None, width=None, width_from=None):
    """{clip: raters x width matrix, rows by rater id} of the `kind` traces
    of `attribute` in `path`, for each clip of `clip_ids` (by default the
    file's clips).

    Every trace must have `width` samples, the timeline of `width_from`
    (by default this file's first trace), and every clip the first clip's
    number of experts, as eg_mtl_7 picks experts by position.
    """
    per_clip: dict = {}
    for tr in load_traces(path):
        if tr.rater_kind == kind and tr.attribute == attribute:
            per_clip.setdefault(tr.clip_id, []).append((tr.rater_id, tr.values))
    out: dict = {}
    for clip in sorted(per_clip) if clip_ids is None else clip_ids:
        if clip not in per_clip:
            raise DataError(
                f"{path}: no {kind} {attribute} traces for clip {clip} of {width_from}"
            )
        rows = sorted(per_clip[clip], key=lambda item: item[0])
        if width is None:
            width, width_from = rows[0][1].size, path
        for rater, values in rows:
            if values.size != width:
                raise DataError(
                    f"{path}: clip {clip}: {kind} trace {rater} has {values.size} "
                    f"samples, not the {width} of {width_from}"
                )
        panel = len(next(iter(out.values()), rows))
        if kind == "expert" and len(rows) != panel:
            raise DataError(f"{path}: clip {clip} has {len(rows)} experts, the first clip {panel}")
        out[clip] = np.vstack([values for _, values in rows])
    if not out:
        raise DataError(f"{path}: no {kind} {attribute} traces")
    return out


def _load_p1_dir(data_dir, attribute) -> P1Data:
    """P1 inputs. features.csv lists the clips and their timeline; the
    `attribute` traces of crowd.csv, and of expert.csv and truth.csv where
    present, must cover both."""
    p1 = os.path.join(data_dir, "p1")
    features_path = os.path.join(p1, "features.csv")
    feats = load_features_csv(features_path)
    clip_ids = sorted(feats)
    width = feats[clip_ids[0]][1].shape[0]
    crowd = _clip_matrices(
        os.path.join(p1, "crowd.csv"), "crowd", attribute, clip_ids, width, features_path
    )
    expert_path = os.path.join(p1, "expert.csv")
    expert = {}
    if os.path.exists(expert_path):
        expert = _clip_matrices(
            expert_path, "expert", attribute, clip_ids, width, features_path
        )
    truth_path = os.path.join(p1, "truth.csv")
    if os.path.exists(truth_path):
        truth = load_features_csv(truth_path, TRUTH_COLUMNS)
        for clip in clip_ids:
            if clip not in truth or not np.array_equal(truth[clip][0], feats[clip][0]):
                raise DataError(
                    f"{truth_path}: time grid mismatch for clip {clip} with {features_path}"
                )
        truth_list = [truth[clip][1][:, 0] for clip in clip_ids]
    else:
        truth_list = [np.median(mat, axis=0) for mat in crowd.values()]
    try:
        return P1Data(
            clip_ids=clip_ids,
            features=[feats[c][1] for c in clip_ids],
            crowd=list(crowd.values()),
            expert=list(expert.values()),
            truth=truth_list,
        )
    except ValueError as exc:  # clips whose feature timelines differ
        raise DataError(f"{features_path}: {exc}") from None


def _load_p2_set(p2, name, attribute, width=None, width_from=None, with_experts=False):
    """The P2 set `name`: the `attribute` traces of its crowd file list the
    clips, and its labels (each 1 or 2) and, `with_experts`, its expert file
    where present cover them."""
    crowd_path = os.path.join(p2, f"{name}_crowd.csv")
    labels_path = os.path.join(p2, f"{name}_labels.csv")
    if not os.path.exists(crowd_path) or not os.path.exists(labels_path):
        raise DataError(
            f"{p2}: {name.title()} source required ({name}_crowd.csv, {name}_labels.csv)"
        )
    crowd = _clip_matrices(crowd_path, "crowd", attribute, None, width, width_from)
    clip_ids = list(crowd)
    labels = load_labels_csv(labels_path)
    for clip, label in labels.items():
        if label not in (1, 2):
            raise DataError(f"{labels_path}: clip {clip}: label {label} is not 1 or 2")
    for clip in clip_ids:
        if clip not in labels:
            raise DataError(f"{labels_path}: no label for clip {clip} of {crowd_path}")
    expert_path = os.path.join(p2, f"{name}_expert.csv")
    expert = {}
    if with_experts and os.path.exists(expert_path):
        window = crowd[clip_ids[0]].shape[1]
        expert = _clip_matrices(expert_path, "expert", attribute, clip_ids, window, crowd_path)
    return P2Data(
        clip_ids=clip_ids,
        crowd_rows=list(crowd.values()),
        classes=[labels[c] for c in clip_ids],
        expert_rows=list(expert.values()),
    )


def _resolve_protocol(args, config_cls):
    """Shared p1/p2 resolution; data/models/seed resolve like config keys so
    a run can be reproduced from its emitted resolved config alone. Each
    flag's dest is the key it sets."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    file_cfg = _load_config_file(args.config)
    defaults = asdict(config_cls())
    defaults.update({"data": None, "models": None, "seed": 0})
    flags = _given(args, defaults)
    flags["lambda1_grid"] = _parse_grid(flags.get("lambda1_grid"))
    resolved = _resolve(defaults, file_cfg, flags)
    if resolved["data"] is None:
        raise UsageError("a data directory is required (--data or config)")
    if resolved["seed"] < 0:
        raise UsageError(f"seed must be >= 0, got {resolved['seed']}")
    resolved["models"] = _parse_models(resolved["models"])
    config_kwargs = {
        k: v for k, v in resolved.items() if k not in ("data", "models", "seed")
    }
    config_kwargs["lambda1_grid"] = tuple(config_kwargs["lambda1_grid"])
    config = _usage_guard(config_cls, **config_kwargs)
    return resolved, config


def _check_folds(config, n_train: int, unit: str, source) -> None:
    """Each fold needs one of the protocol's `n_train` training units."""
    if config.folds > n_train:
        raise DataError(f"{source}: {config.folds} folds but only {n_train} {unit}")


def _protocol_run(resolved: dict, table):
    """A p1/p2 run: the result table as CSV and text; the text is its summary."""
    text = table.to_text()
    artifacts = {"result.csv": (table.write_csv,), "result.txt": (_write_text, text)}
    return resolved, resolved["seed"], artifacts, text


def _cmd_p1(args):
    resolved, config = _resolve_protocol(args, P1Config)
    data = _load_p1_dir(resolved["data"], config.attribute)
    try:
        snippet_offsets(data.n_timepoints, config.snippet_s, config.half)
    except ValueError as exc:
        raise DataError(f"{resolved['data']}: {exc}") from None
    n_train = data.n_timepoints - config.snippet_s
    _check_folds(config, n_train, "training seconds", resolved["data"])
    features_path = os.path.join(resolved["data"], "p1", "features.csv")
    _check_levels(config.level_count, sum(x.shape[0] for x in data.features), features_path)
    table = run_p1(data, config, resolved["models"], seed=resolved["seed"], jobs=args.jobs)
    return _protocol_run(resolved, table)


def _cmd_p2(args):
    resolved, config = _resolve_protocol(args, P2Config)
    p2 = os.path.join(resolved["data"], "p2")
    val_crowd = os.path.join(p2, "val_crowd.csv")
    val = _load_p2_set(p2, "val", config.attribute, with_experts=True)
    # Eval rows go through the model fitted on Val rows: one window for both
    evalset = _load_p2_set(p2, "eval", config.attribute, val.window_len, val_crowd)
    _check_folds(config, len(val.clip_ids), "validation clips", val_crowd)
    table = run_p2(
        val, evalset, resolved["models"], config=config, seed=resolved["seed"], jobs=args.jobs
    )
    return _protocol_run(resolved, table)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdmtl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    # a flag that several commands take is declared once, in a parent group
    traces = argparse.ArgumentParser(add_help=False)
    traces.add_argument("--traces", required=True, help="trace CSV file")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--rate", type=float, default=1.0, help="resampling rate (Hz)")
    sampling.add_argument("--window", type=float, default=50.0, help="final window (s)")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON config file")
    config.add_argument("--seed", type=int, default=None)
    protocol = argparse.ArgumentParser(add_help=False, parents=[config])
    protocol.add_argument("--data", default=None, help="directory produced by synth")
    protocol.add_argument("--folds", type=int)  # ProtocolConfig's default
    protocol.add_argument("--grid", dest="lambda1_grid", help="comma-separated lambda1 grid")
    protocol.add_argument("--models", default=None, help="comma-separated model list")
    protocol.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("filter", parents=[traces], help="quality-filter a trace CSV")
    p.add_argument("--static", default=None, help="sidecar static-ratings CSV")
    # each QcPolicy field, defaulting to the policy's
    p.add_argument("--max-missing", type=float, dest="max_missing_fraction")
    p.add_argument("--min-active", type=float, dest="min_active_fraction")
    p.add_argument("--min-std", type=float)
    p.add_argument("--require-sign-consistency", action="store_true", default=None)
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser(
        "concordance", parents=[traces, sampling], help="inter-rater agreement per clip"
    )
    p.add_argument("--segment", choices=list(SEGMENTS) + ["all"], default="all")
    p.add_argument("--group-by", choices=["rater_kind", "none"], default="rater_kind")
    p.set_defaults(handler=_cmd_concordance)

    sub.add_parser(
        "fuse", parents=[traces, sampling], help="median-fuse raters per clip and attribute"
    ).set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("fit", help="fit one model on feature/label CSVs")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True, help="static labels or fused CSV")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--levels", type=int, default=5, help="classes for dynamic labels")
    p.add_argument("--label-kind", choices=RATER_KINDS, default=None)
    p.add_argument("--label-attribute", choices=ATTRIBUTES, default=None)
    p.add_argument("--expert-features", default=None)
    p.add_argument("--expert-labels", default=None)
    p.add_argument("--graph", default=None, help="task graph JSON")
    p.add_argument("--standardize", action="store_true")
    for name in FIT_HYPERPARAMS:
        p.add_argument(f"--{name}", type=float, default=None, help="default 1.0")
    p.add_argument("--max-iter", type=int)  # SolverConfig's default
    p.add_argument("--rel-tol", type=float)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("synth", parents=[config], help="generate planted synthetic datasets")
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("p1", parents=[protocol], help="snippet regression protocol")
    # a P1Config field each, defaulting to the config's
    p.add_argument("--snippet", type=int, choices=(5, 10, 15), dest="snippet_s")
    p.add_argument("--half", choices=("front", "back"))
    p.add_argument("--runs", type=int)
    p.add_argument("--levels", type=int, dest="level_count")
    p.set_defaults(handler=_cmd_p1)

    p = sub.add_parser("p2", parents=[protocol], help="transfer classification protocol")
    p.set_defaults(handler=_cmd_p2)

    for p in sub.choices.values():  # last, so that each usage line ends with it
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    try:
        # a handler returns (resolved config, seed, artifacts, summary text)
        resolved, seed, artifacts, summary = args.handler(args)
        _write_run(args.out, args.command, resolved, seed, artifacts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    print(summary, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
