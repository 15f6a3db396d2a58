"""Objectives, gradients, and the accelerated proximal-gradient engine.

W is D x (R*C); every model shares the crowd loss

    loss(W) = 0.5 * || U^(1/2) (Y - X W) ||_F^2

and minimizes, with S/Q the shared and sparse parts where applicable:

    st_lasso    sum_t [ 0.5||Y_t - X_t W_t||^2 ]  + alpha ||W||_1 + beta ||W||_F^2
                (per-task blocks only; tasks decouple completely)
    mt_lasso    loss + beta ||W||_F^2             + alpha ||W||_1
    l21_mtl     loss + beta ||W||_F^2             + alpha ||W||_{2,1}
    dirty_mtl   loss(S+Q) + rho1 ||S||_{1,inf}    + rho2 ||Q||_1
    robust_mtl  loss(S+Q) + rho1 ||S||_{2,1}      + rho2 ||Q||_{2,1 over columns}
    sr_mtl      loss + alpha ||E W'||_F^2 + gamma ||W||_F^2 + beta ||W||_1
    eg_mtl      loss + lambda1 ||V - P W||_F^2 + lambda2 ||E W'||_F^2
                     + lambda3 ||W||_1

Each model is one row of the term table `_MODELS`, {term: hyperparameter}
in hyperparameter order: quadratic terms ("ridge", "expert", "graph") and
penalties named by their norm ("l1", "l21_rows", "l21_cols",
"linf_rows"). Only eg_mtl has an "expert" term. MODEL_KINDS, HYPERPARAMS,
GRAPH_KINDS and EXPERT_KINDS are read off the table. The smooth part is

    f(W) = 0.5 <W, A W> - <W, C> + c0,    A W = K W + W G,

with K = X'UX, C = X'UY and c0 = 0.5 sum U from the crowd loss. A ridge
weight b adds 2b I to K; the expert block adds 2 lambda1 P'P to K,
2 lambda1 P'V to C and lambda1 Ne to c0; a graph weight a gives
G = 2a E'E = 2a (L_R (x) I_C) from the task Laplacian L_R. st_lasso keeps
one D x D block of K per task; its C and c0 are the shared ones, since a
task's rows are zero in every other task's columns. dirty_mtl and
robust_mtl apply the operator to S + Q.

X'UX, X'UY, P'P, P'V and st_lasso's blocks are stored on the design
(`StackedDesign.crowd_gram`, `expert_gram`, `task_grams`), computed once
per design. The graph alone chooses how W G is applied (`_graph_form`):

    complete    a graph that joins every pair of tasks with one weight
                gamma (`StackedDesign.complete_gamma`): L_R is
                gamma^2 (R I - 1 1'), so W G = 2a gamma^2 (R W - W M M'),
                with M the RC x C matrix that sums each class over the
                tasks. 2a gamma^2 R is folded into K's diagonal, and the
                task sum is two skinny GEMMs, O(D*R*C^2); no Laplacian is
                built.
    gemm        any other graph with edges: one GEMM of the (D*C) x R view
                of W with the R x R matrix 2a L_R, O(D*C*R^2), L_R built
                from the graph's edges when the problem is.

Neither form builds an RC x RC array. Per apply at D=32, C=5 on a 2-core
host, the complete form against the GEMM form took 72 against 177 us at
R=120, 137 against 969 us at R=240, 0.47 against 4.07 ms at R=960 and 1.06
against 16.7 ms at R=2000.

The penalties (l1, l2,1 over rows, l2,1 over columns, l-infinity over rows)
each have an exact prox, so keeping the graph coupling in the smooth part
leaves no inner iteration.

The engine is a monotone variant of accelerated proximal gradient:
backtracking doubles the local Lipschitz estimate until the quadratic upper
bound holds, and a momentum restart fires whenever the accelerated
candidate would increase the objective, so the recorded trace never
increases. f, grad, prox and h never write their argument, and the engine
passes each momentum point read-only. A problem's f reuses the operator
image grad computed at the very same read-only array, which cannot have
changed since, so each momentum point costs one operator application, not
two; any other argument is applied afresh. prox and h are built once per
problem from the term table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import StackedDesign
from .errors import NumericalError
from .prox import prox_l1, prox_l21_cols, prox_l21_rows, prox_linf_rows  # noqa: F401

# kind -> {term: hyperparameter weighting it}, in hyperparameter order. A
# term that is not "ridge", "expert" or "graph" is a penalty named by its norm
# in _NORMS; each penalty takes one D-row block of the variable, in order.
_MODELS = {
    "st_lasso": {"l1": "alpha", "ridge": "beta"},
    "mt_lasso": {"l1": "alpha", "ridge": "beta"},
    "l21_mtl": {"l21_rows": "alpha", "ridge": "beta"},
    "dirty_mtl": {"linf_rows": "rho1", "l1": "rho2"},
    "robust_mtl": {"l21_rows": "rho1", "l21_cols": "rho2"},
    "sr_mtl": {"graph": "alpha", "l1": "beta", "ridge": "gamma"},
    "eg_mtl": {"expert": "lambda1", "graph": "lambda2", "l1": "lambda3"},
}

MODEL_KINDS = tuple(_MODELS)
HYPERPARAMS = {kind: tuple(terms.values()) for kind, terms in _MODELS.items()}
# the kinds whose objective has a graph term, and those fitted on the expert block
GRAPH_KINDS = tuple(kind for kind, terms in _MODELS.items() if "graph" in terms)
EXPERT_KINDS = tuple(kind for kind, terms in _MODELS.items() if "expert" in terms)

# relative threshold under which a weight counts as zero in sparsity reports
ZERO_TOL = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    """One of the model kinds plus its complete hyperparameter set."""

    kind: str
    hyperparams: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = set(HYPERPARAMS[self.kind])
        got = set(self.hyperparams)
        if got != expected:
            raise ValueError(
                f"{self.kind} needs hyperparameters {sorted(expected)}, "
                f"got {sorted(got)}"
            )
        for name, value in self.hyperparams.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def __getitem__(self, name: str) -> float:
        return float(self.hyperparams[name])


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 5000
    rel_tol: float = 1e-7
    L0: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("rel_tol", "L0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")


@dataclass
class FitResult:
    W: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    sparsity: float
    shared_part: np.ndarray | None = None
    sparse_part: np.ndarray | None = None

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass
class CompositeProblem:
    """Smooth f with gradient plus a non-smooth h with exact prox.

    `prox(v, step)` solves argmin_x 0.5||x - v||^2 + step * h(x). None of
    the four writes its argument. A problem from `build_problem` keeps the
    operator image grad computed at a read-only array that owns its data
    and f reuses it when given that same array.
    """

    shape: tuple
    f: callable
    grad: callable
    prox: callable
    h: callable


def measure_sparsity(w: np.ndarray) -> float:
    """Fraction of entries below ZERO_TOL relative to the largest weight."""
    w = np.asarray(w)
    if w.size == 0:
        return 1.0
    cut = ZERO_TOL * float(np.max(np.abs(w)))
    return float(np.mean(np.abs(w) <= cut))


def fista_solve(problem: CompositeProblem, w0, config: SolverConfig | None = None):
    """Monotone accelerated proximal gradient.

    Returns (w, objective_trace, iterations, converged). The trace starts
    at the objective of w0 and records the accepted iterate each step;
    convergence is declared when the relative objective change (measured
    against max(|previous|, 1)) drops below rel_tol. Each momentum point y
    is made read-only before grad(y) and f(y), so f may reuse grad's work;
    the problem's functions must not write their argument.
    """
    if config is None:
        config = SolverConfig()
    x = np.array(w0, dtype=float)
    y = x.copy()
    lip = float(config.L0)
    t = 1.0
    fx = problem.f(x) + problem.h(x)
    if not np.isfinite(fx):
        raise NumericalError("objective is not finite at the starting point")
    trace = [fx]
    converged = False
    iterations = 0
    base_step = True  # y holds no momentum: a plain prox step must descend
    for iterations in range(1, config.max_iter + 1):
        y.flags.writeable = False  # lets f(y) reuse grad(y)'s operator image
        grad = problem.grad(y)
        fy = problem.f(y)
        if not (np.all(np.isfinite(grad)) and np.isfinite(fy)):
            raise NumericalError("non-finite gradient or objective")
        while True:
            z = problem.prox(y - grad / lip, 1.0 / lip)
            dz = z - y
            bound = fy + float(np.vdot(grad, dz)) + 0.5 * lip * float(np.vdot(dz, dz))
            fz_smooth = problem.f(z)
            if fz_smooth <= bound + 1e-12 * (1.0 + abs(bound)):
                break
            lip *= 2.0
            if lip > 1e18:
                raise NumericalError("backtracking line search diverged")
        fz = fz_smooth + problem.h(z)
        if fz > fx:
            if base_step:
                # a momentum-free step can only fail to descend at (numerical)
                # stationarity, so the iterate is optimal to float precision
                trace.append(fx)
                converged = True
                break
            # momentum overshoot: restart from the best iterate
            y = x.copy()
            t = 1.0
            base_step = True
            trace.append(fx)
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z + ((t - 1.0) / t_next) * (z - x)
        base_step = False
        rel_change = abs(fx - fz) / max(abs(fx), 1.0)
        x = z
        fx = fz
        t = t_next
        trace.append(fx)
        if rel_change < config.rel_tol:
            converged = True
            break
    return x, np.asarray(trace), iterations, converged


# penalty -> its norm. The prox of penalty p is the module global `prox_<p>`,
# looked up at call time so that a wrapper installed on this module is used.
_NORMS = {
    "l1": lambda w: np.abs(w).sum(),
    "l21_rows": lambda w: np.sqrt((w * w).sum(axis=1)).sum(),
    "l21_cols": lambda w: np.sqrt((w * w).sum(axis=0)).sum(),
    "linf_rows": lambda w: np.abs(w).max(axis=1).sum(),
}

def _quadratic(model: ModelSpec, design: StackedDesign):
    """The smooth part as (apply, C, c0, parts): f(W) = 0.5<W, apply(W)> - <W, C> + c0,
    and `parts` the (name, part) pairs it is built from: the data parts
    "crowd" (X'UX, or st_lasso's blocks), "expert" (P'P) and "graph" (L_R,
    or gamma^2 R for a complete graph), then each weighted term folded into
    K, C or c0, named by its hyperparameter."""
    names = _MODELS[model.kind]
    weight = {term: model[name] for term, name in names.items()}
    d, r, n_cls = design.n_features, design.n_tasks, design.n_classes
    k, c, c0 = design.crowd_gram
    if model.kind == "st_lasso":
        k = design.task_grams
    data, weighted = [("crowd", k)], []
    if "ridge" in weight:
        weighted.append((names["ridge"], 2.0 * weight["ridge"] * np.eye(d)))
        k = k + weighted[-1][1]
    if weight.get("expert"):
        lam, (ptp, pv) = weight["expert"], design.expert_gram
        terms = (2.0 * lam * ptp, 2.0 * lam * pv, lam * design.n_expert_rows)
        data.append(("expert", ptp))
        weighted += [(names["expert"], term) for term in terms]
        k, c, c0 = k + terms[0], c + terms[1], c0 + terms[2]
    form = _graph_form(design, weight.get("graph"))
    if k.ndim == 3:

        def apply(w):
            blocks = k @ w.reshape(d, r, n_cls).swapaxes(0, 1)
            return blocks.swapaxes(0, 1).reshape(d, r * n_cls)
    elif form == "complete":
        gamma = design.complete_gamma
        scale = 2.0 * weight["graph"] * (gamma * gamma)
        data.append(("graph", gamma * gamma * r))
        weighted.append((names["graph"], (scale * r) * np.eye(d)))
        k = k + weighted[-1][1]
        sums = np.tile(np.eye(n_cls), (r, 1))  # RC x C: the class sums over tasks
        spread = scale * sums.T
        apply = lambda w: k @ w - (w @ sums) @ spread
    elif form == "gemm":
        lap = design.graph.laplacian(r)
        g = 2.0 * weight["graph"] * lap
        data.append(("graph", lap))
        weighted.append((names["graph"], g))

        def apply(w):
            by_task = w.reshape(d, r, n_cls).swapaxes(1, 2).reshape(d * n_cls, r)
            wg = (by_task @ g).reshape(d, n_cls, r).swapaxes(1, 2)
            return k @ w + wg.reshape(d, r * n_cls)
    else:
        apply = lambda w: k @ w
    return apply, c, c0, data + weighted


def _graph_form(design: StackedDesign, weight) -> str | None:
    """How `_quadratic` applies a graph term of `weight`: None without one,
    else "complete" or "gemm" (see the module docstring)."""
    if not (weight and _has_edges(design)):
        return None
    return "gemm" if design.complete_gamma is None else "complete"


def _has_edges(design: StackedDesign) -> bool:
    return design.graph is not None and design.graph.n_edges > 0


def nonfinite_term(model: ModelSpec, design: StackedDesign) -> str | None:
    """Why `model`'s smooth part on `design` is not finite, so that no
    solver can start: the name of the first of `_quadratic`'s parts that
    is not finite, a data part ("crowd", "expert", "graph") before any
    hyperparameter's weighted term; None when every part is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, part in _quadratic(model, design)[3]:
            if not np.isfinite(part).all():
                return name
    return None


def build_problem(model: ModelSpec, design: StackedDesign) -> CompositeProblem:
    """Smooth/non-smooth split for a model on a design.

    For dirty_mtl and robust_mtl the variable is the two blocks stacked
    vertically (2D x RC): shared part on top, sparse part below.
    """
    if model.kind in EXPERT_KINDS and design.n_expert_rows == 0:
        raise ValueError(f"{model.kind} requires the expert block (P, V)")
    if model.kind in GRAPH_KINDS and not _has_edges(design):
        warnings.warn(f"{model.kind} fitted with an empty task graph")
    apply, c, c0, _ = _quadratic(model, design)
    d = design.n_features
    penalties = [(t, model[n]) for t, n in _MODELS[model.kind].items() if t in _NORMS]
    blocks = [  # (prox name, norm, weight, rows): each penalty takes its own D-row block
        (f"prox_{p}", _NORMS[p], a, slice(i * d, (i + 1) * d))
        for i, (p, a) in enumerate(penalties)
    ]
    stacked = len(blocks) > 1  # shared part S over sparse part Q: the loss sees S + Q
    last = []  # (argument, loss variable, its image) of the last read-only grad point

    def image(w):
        """(u, A u) for the variable u the loss sees in w: w itself, or S + Q."""
        if last and w is last[0]:
            return last[1], last[2]
        u = w[:d] + w[d:] if stacked else w
        return u, apply(u)

    def f(w):
        u, au = image(w)
        return 0.5 * float(np.vdot(u, au)) - float(np.vdot(u, c)) + c0

    def grad(w):
        u, au = image(w)
        # an array that owns its data and is read-only cannot change in place
        # (short of being made writable again, which no caller does)
        if isinstance(w, np.ndarray) and w.flags.owndata and not w.flags.writeable:
            last[:] = (w, u, au)
        g = au - c
        return np.concatenate([g] * len(blocks)) if stacked else g

    # loops, not comprehensions (a frame each before Python 3.12): every solver step calls these
    def prox(v, step):
        ops, parts = globals(), []
        for op, _, a, rows in blocks:
            parts.append(ops[op](v[rows], step * a))
        return np.concatenate(parts) if stacked else parts[0]

    def h(w):
        total = 0.0
        for _, norm, a, rows in blocks:
            total += a * float(norm(w[rows]))
        return total

    return CompositeProblem((len(blocks) * d, c.shape[1]), f, grad, prox, h)


def fit(
    model: ModelSpec,
    design: StackedDesign,
    config: SolverConfig | None = None,
    w0=None,
) -> FitResult:
    """Fit one model on a design via the accelerated solver, from W0 = 0.
    An overflowing term warns nothing: the loop raises NumericalError on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        problem = build_problem(model, design)
        if w0 is None:
            w0 = np.zeros(problem.shape)
        z, trace, iterations, converged = fista_solve(problem, w0, config)
    w, shared, sparse = z, None, None
    if problem.shape[0] > design.n_features:  # shared part over sparse part
        shared, sparse = z[: design.n_features], z[design.n_features :]
        w = shared + sparse
    return FitResult(
        W=w,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        sparsity=measure_sparsity(w),
        shared_part=shared,
        sparse_part=sparse,
    )


def predict(w, x_new, task: int, n_classes: int, mode: str = "class", midpoints=None):
    """Decode predictions for one task's column block.

    mode="class" returns 1-based argmax class indices (ties to the lowest
    index). mode="level" clips negative scores to zero and returns the
    midpoint-weighted average; rows with no positive score fall back to
    the midpoint of the argmax class.
    """
    w = np.asarray(w, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    n_tasks = w.shape[1] // n_classes
    if not 1 <= task <= n_tasks:
        raise ValueError(f"task {task} out of range 1..{n_tasks}")
    scores = x_new @ w[:, (task - 1) * n_classes : task * n_classes]
    if mode == "class":
        return np.argmax(scores, axis=1) + 1
    if mode == "level":
        if midpoints is None:
            raise ValueError("level decoding requires midpoints")
        midpoints = np.asarray(midpoints, dtype=float)
        if midpoints.shape != (n_classes,):
            raise ValueError("need one midpoint per class")
        pos = np.maximum(scores, 0.0)
        totals = pos.sum(axis=1)
        # rows without a positive score keep their fallback and never divide
        fallback = midpoints[np.argmax(scores, axis=1)]
        return np.divide(pos @ midpoints, totals, out=fallback, where=totals > 0)
    raise ValueError(f"unknown mode {mode!r}")


def predict_transfer(w, x_new, n_classes: int):
    """Class decode for rows that belong to no training task.

    Scores are pooled over every task's block per class; returns
    (1-based classes, pooled class scores).
    """
    w = np.asarray(w, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    scores = x_new @ w
    n_tasks = w.shape[1] // n_classes
    pooled = scores.reshape(x_new.shape[0], n_tasks, n_classes).sum(axis=1)
    return np.argmax(pooled, axis=1) + 1, pooled
