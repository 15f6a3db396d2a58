"""Self-test of the solver counters that tracer.py derives from outside.

    PYTHONPATH=src python3 benchmarks/selftest.py

Three hand-worked problems have known counts:

* f(x) = 4x^2 from x0 = 1 with L0 = 1. The step needs L = 8, so the first
  iteration backtracks 1 -> 2 -> 4 -> 8 (3 backtracks) and lands on 0; the
  second makes no progress and stops: 2 iterations, no restart, converged.
  With max_iter=1 it stops unconverged after the backtracks.
* f(x) = x^2/2 from x0 = 1 with L0 = 2 (no backtracking). The iterates
  are 0.5, 0.25, 0.0898, 0.0101; momentum then overshoots to -0.0161,
  whose objective is higher, so iteration 5 restarts. With max_iter=5 the
  restart is the last entry of an unconverged trace; with max_iter=6 a
  plain step follows it.

Then small model fits are checked against an independent observer: it
counts backtracks as prox calls minus iterations, and restarts by
re-evaluating each iteration's final trial point against the best
objective so far. Last, the same fits run under the Tracer installed as in
a traced pass, whose per-layer counters must agree with the observer.
Exits non-zero on any mismatch.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from crowdmtl import design, solvers
from tracer import Tracer, count_problem, count_restarts

FAILURES: list[str] = []


def check(label: str, got: dict, want: dict) -> None:
    status = "ok" if got == want else "MISMATCH"
    print(f"{label}: {got} {status}" + ("" if got == want else f" (want {want})"))
    if got != want:
        FAILURES.append(label)


def derived(problem, w0, config) -> dict:
    """The counters as the traced run derives them."""
    counts: Counter = Counter()
    count_problem(problem, counts)
    _, trace, iterations, converged = solvers.fista_solve(problem, w0, config)
    return {
        "iterations": iterations,
        "backtracks": counts["f_calls"] - 1 - 2 * iterations,
        "restarts": count_restarts(trace, converged),
        "not_converged": int(not converged),
    }


def observed(problem, w0, config) -> dict:
    """The same counters from prox calls and re-evaluated trial points."""
    f, h, prox = problem.f, problem.h, problem.prox
    iterations: list[list] = []  # per iteration, its trial points

    def grad(w):
        iterations.append([])
        return problem_grad(w)

    def traced_prox(v, step):
        z = prox(v, step)
        iterations[-1].append(np.array(z, copy=True))
        return z

    problem_grad = problem.grad
    problem.grad, problem.prox = grad, traced_prox
    _, _, n_iter, converged = solvers.fista_solve(problem, w0, config)
    best = f(np.asarray(w0, dtype=float)) + h(np.asarray(w0, dtype=float))
    rejected = []
    for trials in iterations:
        z = trials[-1]  # the trial step that met the quadratic bound
        value = f(z) + h(z)
        rejected.append(value > best)
        best = min(best, value)
    restarts = sum(rejected)
    if converged and rejected and rejected[-1]:
        restarts -= 1  # a momentum-free step that cannot descend stops the fit
    return {
        "iterations": n_iter,
        "backtracks": sum(len(t) for t in iterations) - n_iter,
        "restarts": int(restarts),
        "not_converged": int(not converged),
    }


def scalar_problem(curvature: float):
    """f(x) = curvature * x^2 / 2 with no non-smooth part."""
    return solvers.CompositeProblem(
        shape=(1, 1),
        f=lambda w: 0.5 * curvature * float(w[0, 0] ** 2),
        grad=lambda w: curvature * w,
        prox=lambda v, step: np.array(v, copy=True),
        h=lambda w: 0.0,
    )


def small_design():
    rng = np.random.default_rng(3)
    crowd, expert = [], []
    for t in range(4):
        x = rng.normal(size=(30, 6)) * 3.0
        crowd.append(design.TaskDataset(f"c{t}", x, rng.integers(1, 4, 30)))
        expert.append(design.TaskDataset(f"c{t}", x[:10], rng.integers(1, 4, 10)))
    return design.assemble_design(
        crowd, 3, expert_tasks=expert, graph=design.TaskGraph.complete(4)
    )


MODELS = (
    solvers.ModelSpec("mt_lasso", {"alpha": 0.5, "beta": 0.0}),
    solvers.ModelSpec("dirty_mtl", {"rho1": 2.0, "rho2": 1.0}),
    solvers.ModelSpec("eg_mtl", {"lambda1": 1.0, "lambda2": 1.0, "lambda3": 0.1}),
    solvers.ModelSpec("robust_mtl", {"rho1": 1.0, "rho2": 1.0}),
)


def main() -> int:
    one = np.ones((1, 1))
    check(
        "4x^2, L0=1",
        derived(scalar_problem(8.0), one, solvers.SolverConfig(L0=1.0)),
        {"iterations": 2, "backtracks": 3, "restarts": 0, "not_converged": 0},
    )
    check(
        "4x^2, L0=1, max_iter=1",
        derived(scalar_problem(8.0), one, solvers.SolverConfig(L0=1.0, max_iter=1)),
        {"iterations": 1, "backtracks": 3, "restarts": 0, "not_converged": 1},
    )
    for max_iter in (5, 6):
        check(
            f"x^2/2, L0=2, max_iter={max_iter}",
            derived(scalar_problem(1.0), one, solvers.SolverConfig(L0=2.0, max_iter=max_iter)),
            {"iterations": max_iter, "backtracks": 0, "restarts": 1, "not_converged": 1},
        )

    stacked = small_design()
    config = solvers.SolverConfig(max_iter=100, rel_tol=1e-9)  # robust_mtl hits it
    totals: Counter = Counter()
    for spec in MODELS:
        shape = solvers.build_problem(spec, stacked).shape
        want = observed(solvers.build_problem(spec, stacked), np.zeros(shape), config)
        got = derived(solvers.build_problem(spec, stacked), np.zeros(shape), config)
        check(f"{spec.kind} vs observer", got, want)
        totals.update(want)
    if totals["restarts"] == 0 or totals["backtracks"] == 0 or totals["not_converged"] == 0:
        FAILURES.append("model fits exercised no restart, backtrack or max_iter stop")
        print(f"model fits exercised too little: {dict(totals)}")

    tracer = Tracer()
    tracer.install()
    try:
        for spec in MODELS:
            solvers.fit(spec, stacked, config)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    check(
        "traced fits vs observer",
        {k: int(layers[f"solvers.{k}"]) for k in totals},
        dict(totals),
    )
    if FAILURES:
        print(f"counter self-test FAILED: {', '.join(FAILURES)}", file=sys.stderr)
        return 1
    print("counter self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
