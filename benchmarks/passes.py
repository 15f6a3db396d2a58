"""Input generation and one measured pass, run in a fresh interpreter.

    python3 benchmarks/passes.py generate --workload W --seed N --inputs DIR
    python3 benchmarks/passes.py pass --workload W --seed N --inputs DIR \
        --out DIR --result FILE --spawned T --trace 0|1

`run.py` starts this script; `crowdmtl` must be importable from the
checkout's `src/` (run.py sets PYTHONPATH). A pass writes a JSON result
with its timings, peak RSS, output digests, correctness findings and,
when traced, its per-layer metrics and spans.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# all 8 model rows: the 7 base models plus the 7-expert eg_mtl condition
MODEL_ROWS = (
    "st_lasso",
    "mt_lasso",
    "l21_mtl",
    "dirty_mtl",
    "robust_mtl",
    "sr_mtl",
    "eg_mtl",
    "eg_mtl_7",
)
GRAPH_SCALE = {"n_tasks": 120, "n_features": 32, "samples_per_task": 50}
GRAPH_MODELS = ("eg_mtl", "sr_mtl", "mt_lasso")
GRAPH_LEVELS = 5

QC_CLIPS, QC_RATERS, QC_SECONDS = 200, 16, 100
QC_GAP = (35, 65)  # interior samples dropped from a gap trace: 30 % missing
QC_PLANT = {"missing": 0.04, "inactivity": 0.03, "sign": 0.05}


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


# ---------------------------------------------------------------------------
# input generation (before any timing)


def _blas_info() -> dict:
    """The OpenBLAS numpy loaded, its build string and thread count."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    info = {"libraries": libs, "config": None, "threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = int(threads())
                    info["config"] = config().decode()
                    return info
    return info


def _run_info() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }


def generate(workload: str, seed: int, inputs: str) -> None:
    from crowdmtl import cli

    os.makedirs(inputs, exist_ok=True)
    with open(os.path.join(inputs, "runinfo.json"), "w", encoding="utf-8") as fh:
        json.dump(_run_info(), fh)
    if workload in ("p1_snippet", "p2_transfer"):
        argv = ["synth", "--seed", str(seed), "--out", inputs]
    elif workload == "graph_scale":
        cfg = os.path.join(inputs, "synth_config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(GRAPH_SCALE, fh)
        argv = ["synth", "--config", cfg, "--seed", str(seed), "--out", inputs]
    else:
        _generate_trace_qc(seed, inputs)
        return
    with open(os.devnull, "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            rc = cli.main(argv)
        finally:
            sys.stdout = saved
    if rc != 0:
        raise SystemExit(f"crowdmtl {argv[0]} exited {rc}")


def _generate_trace_qc(seed: int, inputs: str) -> None:
    """Synth crowd traces with planted gaps, flat traces and sign conflicts.

    Every trace gets a static self-report. Unplanted traces agree in sign
    with their extremal value, so each quality rule rejects exactly the
    traces planted for it.
    """
    import numpy as np

    from crowdmtl.annotations import AnnotationTrace, load_traces, write_traces
    from crowdmtl.experiments import SynthConfig, substream, synth_generate

    data = synth_generate(
        SynthConfig(
            seed=seed,
            n_tasks=QC_CLIPS,
            n_features=4,
            samples_per_task=QC_SECONDS,
            n_crowd=QC_RATERS,
        )
    )
    n_traces = QC_CLIPS * QC_RATERS
    rng = substream(seed, "bench-trace-qc")
    order = rng.permutation(n_traces)
    planted, start = {}, 0
    for reason, share in QC_PLANT.items():
        count = int(round(share * n_traces))
        planted[reason] = {int(i) for i in order[start : start + count]}
        start += count

    traces = []
    times = np.arange(QC_SECONDS, dtype=float)
    keep = np.ones(QC_SECONDS, dtype=bool)
    keep[QC_GAP[0] : QC_GAP[1]] = False
    for c, (clip, mat) in enumerate(zip(data.clip_ids, data.crowd)):
        for r, values in enumerate(mat):
            i = c * QC_RATERS + r
            t, v = times, values
            if i in planted["missing"]:
                t, v = times[keep], values[keep]
            elif i in planted["inactivity"]:
                v = np.full_like(values, values[0])
            traces.append(
                AnnotationTrace(clip, f"crowd{r + 1:02d}", "crowd", "arousal", t, v)
            )
    path = os.path.join(inputs, "traces.csv")
    write_traces(traces, path)
    # the sign rule reads the extremal value as loaded, so read it back
    loaded = load_traces(path)
    with open(os.path.join(inputs, "static.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clip_id", "rater_id", "attribute", "static_value"])
        for i, tr in enumerate(loaded):
            sign = float(np.sign(tr.values[np.argmax(np.abs(tr.values))])) or 1.0
            if i in planted["sign"]:
                sign = -sign
            writer.writerow([tr.clip_id, tr.rater_id, tr.attribute, repr(sign)])
    expected = {
        "n_input": n_traces,
        "trace_rows": int(sum(tr.n_samples for tr in loaded)),
        "rejected": {reason: len(ix) for reason, ix in planted.items()},
    }
    with open(os.path.join(inputs, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# one pass


class InputLoads:
    """Times public loaders called on the workload's generated input files.

    That time belongs to set-up ("inputs in memory"), not to the pass's
    wall time; loads of files the pass itself wrote stay in wall time.
    """

    def __init__(self, inputs: str):
        self.inputs = os.path.abspath(inputs) + os.sep
        self.seconds = 0.0

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)

        def timed(path, *args, **kwargs):
            if not os.path.abspath(path).startswith(self.inputs):
                return original(path, *args, **kwargs)
            t0 = time.perf_counter()
            try:
                return original(path, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(module, attr, timed)


def _cli(argv) -> int:
    from crowdmtl import cli

    return cli.main(argv)


def _check_result_csv(path, expected_rows, findings, p1: bool) -> int:
    """Rows must be ok, finite and in range; returns the rows checked."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    models = [r["model"] for r in rows]
    if tuple(models) != expected_rows:
        findings.append(f"result.csv rows {models} != {list(expected_rows)}")
    for r in rows:
        label = f"result.csv {r['model']}"
        if r["status"] != "ok":
            findings.append(f"{label}: status {r['status']}")
            continue
        mean = float(r["mean"]) if r["mean"] else None
        sparsity = float(r["sparsity"]) if r["sparsity"] else None
        if not (_finite(mean) and _finite(sparsity) and 0.0 <= sparsity <= 1.0):
            findings.append(f"{label}: mean {mean} / sparsity {sparsity} out of range")
        elif p1 and (mean < 0 or not _finite(float(r["sd"])) or float(r["sd"]) < 0):
            findings.append(f"{label}: RMSE {mean} sd {r['sd']} out of range")
        elif not p1 and not 0.0 <= mean <= 1.0:
            findings.append(f"{label}: accuracy {mean} out of [0, 1]")
    return len(expected_rows)


def _pass_protocol(workload, seed, inputs, out, findings, digests) -> int:
    command = "p1" if workload == "p1_snippet" else "p2"
    rc = _cli(
        [command, "--data", inputs, "--seed", str(seed), "--jobs", "1", "--out", out]
    )
    if rc != 0:
        findings.append(f"crowdmtl {command} exited {rc}")
        return len(MODEL_ROWS)
    result = os.path.join(out, "result.csv")
    digests["result.csv"] = _digest(result)
    return _check_result_csv(result, MODEL_ROWS, findings, command == "p1")


def _load_graph_inputs(inputs):
    """Features, crowd and expert rater matrices, truth: the pass's inputs."""
    import numpy as np

    from crowdmtl import annotations, design

    p1 = os.path.join(inputs, "p1")
    feats = design.load_features_csv(os.path.join(p1, "features.csv"))
    mats = {}
    for kind in ("crowd", "expert"):
        rows: dict = {}
        for tr in annotations.load_traces(os.path.join(p1, f"{kind}.csv")):
            rows.setdefault(tr.clip_id, []).append((tr.rater_id, tr.values))
        mats[kind] = {
            clip: np.vstack([v for _, v in sorted(pairs, key=lambda p: p[0])])
            for clip, pairs in rows.items()
        }
    truth: dict = {}
    with open(os.path.join(p1, "truth.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            truth.setdefault(row["clip_id"], []).append(float(row["value"]))
    clips = sorted(feats)
    return (
        clips,
        [feats[c][1] for c in clips],
        [mats["crowd"][c] for c in clips],
        [mats["expert"][c] for c in clips],
        [np.asarray(truth[c]) for c in clips],
    )


def _pass_graph_scale(loaded, out, findings, digests) -> int:
    import numpy as np

    from crowdmtl import annotations, design, experiments, solvers

    clips, features, crowd, expert, truth = loaded
    levels = GRAPH_LEVELS

    def tasks(mats):
        out_tasks = []
        for cid, x, mat in zip(clips, features, mats):
            fused = annotations.median_fuse(list(mat))
            classes, _ = design.discretize_levels(fused, levels)
            out_tasks.append(design.TaskDataset(cid, x, classes))
        return out_tasks

    stacked = design.assemble_design(
        tasks(crowd),
        levels,
        expert_tasks=tasks(expert),
        graph=design.TaskGraph.complete(len(clips)),
    )
    p1 = experiments.P1Config()
    config = solvers.SolverConfig(max_iter=p1.max_iter, rel_tol=p1.rel_tol)
    midpoints = design.level_midpoints(levels)
    fixed = {
        "eg_mtl": {"lambda2": p1.lambda2, "lambda3": p1.lambda3},
        "sr_mtl": {"alpha": 1.0, "gamma": 1.0},
        "mt_lasso": {"beta": 1.0},
    }
    primary = {"eg_mtl": "lambda1", "sr_mtl": "beta", "mt_lasso": "alpha"}
    lines = ["model,lambda,task,rmse,sparsity"]
    fits = 0
    for kind in GRAPH_MODELS:
        for lam in p1.lambda1_grid:
            fits += 1
            params = dict(fixed[kind], **{primary[kind]: float(lam)})
            try:
                result = solvers.fit(solvers.ModelSpec(kind, params), stacked, config)
            except Exception as exc:  # a fit that raised is a failed operation
                findings.append(f"{kind} lambda={lam}: {type(exc).__name__}: {exc}")
                continue
            if not (0.0 <= result.sparsity <= 1.0 and np.all(np.isfinite(result.W))):
                findings.append(f"{kind} lambda={lam}: non-finite W or bad sparsity")
            for t, (x, sig) in enumerate(zip(features, truth), start=1):
                pred = solvers.predict(
                    result.W, x, t, levels, mode="level", midpoints=midpoints
                )
                err = float(np.sqrt(np.mean((pred - sig) ** 2)))
                if not (_finite(err) and np.all(np.abs(pred) <= 1.0)):
                    findings.append(f"{kind} lambda={lam} task {t}: bad prediction")
                lines.append(
                    f"{kind},{lam!r},{t},{err!r},{result.sparsity!r}"
                )
    path = os.path.join(out, "predictions.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    digests["predictions.csv"] = _digest(path)
    return fits


def _pass_trace_qc(inputs, out, findings, digests) -> int:
    traces = os.path.join(inputs, "traces.csv")
    qc = os.path.join(out, "qc")
    accepted = os.path.join(qc, "accepted.csv")
    steps = [
        ["filter", "--traces", traces, "--static", os.path.join(inputs, "static.csv"),
         "--require-sign-consistency", "--out", qc],
        ["concordance", "--traces", accepted, "--out", os.path.join(out, "concordance")],
        ["fuse", "--traces", accepted, "--out", os.path.join(out, "fused")],
    ]
    for argv in steps:
        rc = _cli(argv)
        if rc != 0:
            findings.append(f"crowdmtl {argv[0]} exited {rc}")
            return len(steps)
    with open(os.path.join(inputs, "planted.json"), encoding="utf-8") as fh:
        planted = json.load(fh)
    with open(os.path.join(qc, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    counted: dict = {}
    for entry in report["rejected"]:
        counted[entry["reason"]] = counted.get(entry["reason"], 0) + 1
    if report["n_input"] != planted["n_input"] or counted != planted["rejected"]:
        findings.append(
            f"filter rejected {counted} of {report['n_input']}, "
            f"planted {planted['rejected']} of {planted['n_input']}"
        )
    conc_path = os.path.join(out, "concordance", "concordance.json")
    with open(conc_path, encoding="utf-8") as fh:
        conc = json.load(fh)
    ws = [r["kendalls_w"] for r in conc["reports"]]
    if len(ws) != 3 * QC_CLIPS or not all(0.0 <= w <= 1.0 for w in ws):
        findings.append(f"concordance: {len(ws)} reports, W outside [0, 1]")
    fused_path = os.path.join(out, "fused", "fused.csv")
    with open(fused_path, encoding="utf-8") as fh:
        fused_rows = sum(1 for _ in fh) - 1
    if fused_rows != QC_CLIPS * 50:
        findings.append(f"fused.csv has {fused_rows} rows, expected {QC_CLIPS * 50}")
    digests["accepted.csv"] = _digest(accepted)
    digests["concordance.json"] = _digest(conc_path)
    digests["fused.csv"] = _digest(fused_path)
    return len(steps)


def run_pass(args) -> dict:
    t0 = time.perf_counter()
    import crowdmtl.cli

    import_s = time.perf_counter() - t0
    imported = time.monotonic()
    cli = crowdmtl.cli

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.abspath(crowdmtl.__file__).startswith(src + os.sep):
        raise SystemExit(f"crowdmtl imported from {crowdmtl.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loads = InputLoads(args.inputs)
    for attr in ("load_traces", "load_features_csv", "load_labels_csv"):
        loads.wrap(cli, attr)

    findings: list[str] = []
    digests: dict = {}
    os.makedirs(args.out, exist_ok=True)
    with open(os.devnull, "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            preload_s = 0.0
            if args.workload == "graph_scale":
                t_load = time.perf_counter()
                loaded = _load_graph_inputs(args.inputs)
                preload_s = time.perf_counter() - t_load
            t_body = time.perf_counter()
            if args.workload in ("p1_snippet", "p2_transfer"):
                ops = _pass_protocol(
                    args.workload, args.seed, args.inputs, args.out, findings, digests
                )
            elif args.workload == "graph_scale":
                ops = _pass_graph_scale(loaded, args.out, findings, digests)
            else:
                ops = _pass_trace_qc(args.inputs, args.out, findings, digests)
            body_s = time.perf_counter() - t_body
        finally:
            sys.stdout = saved
    result = {
        "setup_s": (imported - args.spawned) + preload_s + loads.seconds,
        "wall_s": body_s - loads.seconds,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "findings": findings,
        "digests": digests,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("generate", "pass"))
    parser.add_argument("--workload", required=True, help="validated by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--spawned", type=float, default=STARTED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "generate":
        generate(args.workload, args.seed, args.inputs)
        return 0
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
