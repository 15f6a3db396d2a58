"""Spans and counters recorded from outside the crowdmtl package.

Nothing under `src/` is edited. Each public function of interest is
replaced, on the module attribute its caller actually looks up, by a
wrapper that records a span (name, start, end, parent). `experiments`
imports `fit`, `assemble_design`, `predict` and `median_fuse` by name, and
`build_problem`'s closures reach the prox operators through the `solvers`
namespace, so wrappers go on `crowdmtl.experiments.fit`,
`crowdmtl.solvers.prox_l1` and so on, not only on the defining module.

A Tracer lives in one pass process and keeps its spans in memory until
the pass ends; run.py files them under that pass's id. A layer's self time is the summed duration of its spans minus the
time their direct child spans cover.

Counters the solver does not expose are derived from call counts:

    backtracks = f-calls - fista calls - 2 * iterations

because `fista_solve` evaluates f once at the start and, per iteration,
once at the momentum point plus once per trial step (one trial, plus one
more per backtrack). Restarts are read off each fit's objective trace
(see `count_restarts`). `selftest.py` checks both on problems whose counts
are known.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

LAYERS = ("annotations", "design", "solvers", "prox", "experiments", "cli")
PROX_OPS = ("l1", "l21_rows", "l21_cols", "linf_rows")
LOADERS = ("load_traces", "load_features_csv", "load_labels_csv")


def count_restarts(trace, converged: bool) -> int:
    """Momentum restarts of one fit, from its objective trace.

    Every iteration appends one value. An accepted step appends the new,
    lower objective; a momentum restart re-appends the current one. A
    repeat can also end a fit: the momentum-free step that cannot descend,
    or an accepted step of zero progress, both stop with converged=True.
    So every repeat is a restart except a final one of a converged fit.
    """
    trace = np.asarray(trace, dtype=float)
    repeats = trace[1:] == trace[:-1]
    if converged and repeats.size and repeats[-1]:
        return int(np.count_nonzero(repeats[:-1]))
    return int(np.count_nonzero(repeats))


def count_problem(problem, counts: Counter):
    """Wrap a CompositeProblem's f and grad so each call is counted."""
    f, grad = problem.f, problem.grad

    def counted_f(w):
        counts["f_calls"] += 1
        return f(w)

    def counted_grad(w):
        counts["grad_calls"] += 1
        return grad(w)

    problem.f = counted_f
    problem.grad = counted_grad
    return problem


def _nbytes(value) -> int:
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


class Tracer:
    """Span recorder for one pass; wrappers are installed with `wrap`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fit_results: list[tuple[int, bool, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        `after(args, result)` runs once the span has closed, for counters
        read off the call's arguments or result.
        """
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, key: str) -> None:
        """Replace module.attr by a wrapper that only counts calls."""
        original = getattr(module, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # installation on the crowdmtl namespaces

    def install(self) -> None:
        from crowdmtl import annotations, cli, design, experiments, solvers

        counts = self.counts

        def rows_loaded(args, traces):
            counts["trace_rows"] += sum(tr.n_samples for tr in traces)

        def rows_written(args, result):
            counts["rows_written"] += sum(tr.n_samples for tr in args[0])

        def verdict(args, result):
            counts["rejected"] += 0 if result.accepted else 1

        for module in (cli, annotations):
            self.wrap(module, "load_traces", "annotations.load_traces", rows_loaded)
        self.wrap(cli, "quality_filter", "annotations.quality_filter", verdict)
        self.wrap(cli, "resample_trace", "annotations.resample_trace")
        self.wrap(cli, "window_last", "annotations.window_last")
        self.wrap(cli, "concordance", "annotations.concordance")
        self.wrap(cli, "write_traces", "annotations.write_traces", rows_written)
        for module in (cli, experiments, annotations):
            self.wrap(module, "median_fuse", "annotations.median_fuse")

        def design_bytes(args, d):
            counts["design_bytes"] += sum(
                _nbytes(m) for m in (d.X, d.Y, d.E, d.P, d.V)
            )

        def edge_rows(args, e):
            counts["edge_rows"] += int(e.shape[0])

        for module in (cli, experiments, design):
            self.wrap(module, "assemble_design", "design.assemble_design", design_bytes)
        self.wrap(design, "stack_tasks", "design.stack_tasks")
        self.wrap(design, "build_incidence", "design.build_incidence", edge_rows)
        self.count_calls(design, "build_label_indicator", "label_indicator_calls")
        for attr in ("column_standardizer", "apply_standardizer"):
            for module in (cli, experiments):
                self.wrap(module, attr, "design.standardize")
        for module in (cli, design):
            self.wrap(module, "load_features_csv", "design.load_features_csv")
        self.wrap(cli, "load_labels_csv", "design.load_labels_csv")

        def fitted(args, result):
            self.fit_results.append(
                (
                    int(result.iterations),
                    bool(result.converged),
                    count_restarts(result.objective_trace, result.converged),
                )
            )

        for module in (cli, experiments, solvers):
            self.wrap(module, "fit", "solvers.fit", fitted)
        self.wrap(solvers, "fista_solve", "solvers.fista_solve")
        self.wrap(
            solvers,
            "build_problem",
            "solvers.build_problem",
            lambda args, problem: count_problem(problem, counts),
        )
        for module in (experiments, solvers):
            self.wrap(module, "predict", "solvers.predict")
        self.wrap(experiments, "predict_transfer", "solvers.predict")

        def prox_bytes(args, out):
            counts["prox_bytes"] += _nbytes(np.asarray(args[0])) + _nbytes(out)

        for op in PROX_OPS:
            self.wrap(solvers, f"prox_{op}", f"prox.{op}", prox_bytes)

        self.wrap(cli, "run_p1", "experiments.run")
        self.wrap(cli, "run_p2", "experiments.run")
        self.wrap(experiments, "crossval_lambda1", "experiments.crossval")
        self.wrap(cli, "main", "cli.main")

    # ------------------------------------------------------------------
    # per-layer metrics

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        total: Counter = Counter()
        calls: Counter = Counter()
        child = [0.0] * len(spans)
        durations: dict[str, list[float]] = {}
        for name, start, end, parent in spans:
            total[name] += end - start
            calls[name] += 1
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        cli_load_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name.split(".", 1)[0]] += (end - start) - child[i]
            if name.endswith(LOADERS) and parent >= 0 and spans[parent][0] == "cli.main":
                cli_load_s += end - start

        c = self.counts
        fits = self.fit_results
        iterations = sum(f[0] for f in fits)
        fista_calls = calls["solvers.fista_solve"]
        smooth = c["f_calls"] + c["grad_calls"]
        fit_ms = np.asarray(durations.get("solvers.fit", [0.0])) * 1e3
        m = {
            "annotations.load_traces_s": total["annotations.load_traces"],
            "annotations.trace_rows": c["trace_rows"],
            "annotations.quality_filter_s": total["annotations.quality_filter"],
            "annotations.rejected": c["rejected"],
            "annotations.resample_window_s": total["annotations.resample_trace"]
            + total["annotations.window_last"],
            "annotations.concordance_s": total["annotations.concordance"],
            "annotations.median_fuse_s": total["annotations.median_fuse"],
            "annotations.write_traces_s": total["annotations.write_traces"],
            "annotations.rows_written": c["rows_written"],
            "design.assemble_s": total["design.assemble_design"],
            "design.assemble_calls": calls["design.assemble_design"],
            "design.stack_tasks_s": total["design.stack_tasks"],
            "design.build_incidence_s": total["design.build_incidence"],
            "design.label_indicator_calls": c["label_indicator_calls"],
            "design.edge_rows": c["edge_rows"],
            "design.bytes_computed": c["design_bytes"],
            "design.standardize_s": total["design.standardize"],
            "solvers.fit_s": total["solvers.fit"],
            "solvers.fit_calls": calls["solvers.fit"],
            "solvers.fit_ms_p50": float(np.percentile(fit_ms, 50)),
            "solvers.fit_ms_p90": float(np.percentile(fit_ms, 90)),
            "solvers.build_problem_s": total["solvers.build_problem"],
            "solvers.fista_s": total["solvers.fista_solve"],
            "solvers.iterations": iterations,
            "solvers.iters_per_fit": iterations / len(fits) if fits else 0.0,
            "solvers.us_per_iter": total["solvers.fista_solve"] / iterations * 1e6
            if iterations
            else 0.0,
            "solvers.smooth_evals": smooth,
            "solvers.smooth_evals_per_iter": smooth / iterations if iterations else 0.0,
            "solvers.backtracks": c["f_calls"] - fista_calls - 2 * iterations,
            "solvers.restarts": sum(f[2] for f in fits),
            "solvers.not_converged": sum(1 for f in fits if not f[1]),
            "solvers.predict_s": total["solvers.predict"],
            "solvers.predict_calls": calls["solvers.predict"],
        }
        for op in PROX_OPS:
            m[f"prox.{op}_calls"] = calls[f"prox.{op}"]
            m[f"prox.{op}_s"] = total[f"prox.{op}"]
        m["prox.bytes_computed"] = c["prox_bytes"]
        m["experiments.run_s"] = total["experiments.run"]
        m["experiments.crossval_s"] = total["experiments.crossval"]
        m["experiments.cells"] = calls["experiments.crossval"]
        m["cli.load_s"] = cli_load_s
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return {k: float(v) for k, v in m.items()}
