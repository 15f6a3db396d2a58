import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from crowdmtl import solvers
from crowdmtl.design import TaskDataset, TaskGraph, assemble_design, load_graph_json
from crowdmtl.errors import NumericalError
from crowdmtl.prox import prox_l1
from crowdmtl.solvers import (
    MODEL_KINDS,
    ModelSpec,
    SolverConfig,
    build_problem,
    fista_solve,
    fit,
    measure_sparsity,
    predict,
    predict_transfer,
)
from util import central_difference_grad, from_groups, random_design

TIGHT = SolverConfig(max_iter=30000, rel_tol=1e-13)


def default_spec(kind, **overrides):
    base = {
        "st_lasso": {"alpha": 0.1, "beta": 0.0},
        "mt_lasso": {"alpha": 0.1, "beta": 0.05},
        "l21_mtl": {"alpha": 0.1, "beta": 0.05},
        "dirty_mtl": {"rho1": 0.2, "rho2": 0.1},
        "robust_mtl": {"rho1": 0.2, "rho2": 0.1},
        "sr_mtl": {"alpha": 0.1, "beta": 0.1, "gamma": 0.05},
        "eg_mtl": {"lambda1": 0.5, "lambda2": 0.3, "lambda3": 0.1},
    }[kind]
    base.update(overrides)
    return ModelSpec(kind, base)


# --------------------------------------------------------------------------
# objective


def objective_naive(w, design, lam1, lam2, lam3):
    """Per-entry summation of every objective term, no linear algebra."""
    n, ne, d, r, c = design.dims
    rc = r * c
    total = 0.0
    for i in range(n):
        for j in range(rc):
            pred = sum(design.X[i, k] * w[k, j] for k in range(d))
            total += 0.5 * design.U[i] * (design.Y[i, j] - pred) ** 2
    for i in range(ne):
        for j in range(rc):
            pred = sum(design.P[i, k] * w[k, j] for k in range(d))
            total += lam1 * (design.V[i, j] - pred) ** 2
    for q in range(design.E.shape[0]):
        for k in range(d):
            dot = sum(design.E[q, j] * w[k, j] for j in range(rc))
            total += lam2 * dot * dot
    total += lam3 * sum(abs(w[k, j]) for k in range(d) for j in range(rc))
    return total


def egmtl_problem(design, lam1, lam2, lam3=0.0):
    spec = ModelSpec("eg_mtl", {"lambda1": lam1, "lambda2": lam2, "lambda3": lam3})
    return build_problem(spec, design)


def test_objective_zero_weights():
    rng = np.random.default_rng(0)
    design = random_design(rng)
    problem = egmtl_problem(design, 2.0, 3.0, 4.0)
    w = np.zeros(problem.shape)
    expected = 0.5 * np.sum(design.U[:, None] * design.Y**2) + 2.0 * np.sum(
        design.V**2
    )
    assert problem.f(w) + problem.h(w) == pytest.approx(expected)


def test_objective_reduces_to_least_squares():
    rng = np.random.default_rng(1)
    design = random_design(rng, with_expert=True)
    problem = egmtl_problem(design, 0.0, 0.0, 0.0)
    w = rng.normal(size=problem.shape)
    expected = 0.5 * np.sum((design.Y - design.X @ w) ** 2)
    assert problem.f(w) + problem.h(w) == pytest.approx(expected)


def test_objective_matches_naive_summation():
    rng = np.random.default_rng(2)
    design = random_design(
        rng, n_per_task=3, d=3, r=2, c=2, ne_per_task=1, u=[0.5, 1.5, 2.0, 1.0, 0.7, 1.2]
    )
    assert design.dims == (6, 2, 3, 2, 2)
    w = rng.normal(size=(3, 4))
    lam = (0.7, 0.4, 0.9)
    expected = objective_naive(w, design, *lam)
    problem = egmtl_problem(design, *lam)
    assert problem.f(w) + problem.h(w) == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# gradient


@pytest.mark.filterwarnings("ignore:eg_mtl fitted with an empty task graph")
def test_grad_zero_at_least_squares_optimum():
    rng = np.random.default_rng(5)
    design = random_design(rng, n_per_task=20, d=4, r=2, c=2, with_graph=False)
    w_ls, *_ = np.linalg.lstsq(design.X, design.Y, rcond=None)
    grad = egmtl_problem(design, 0.0, 0.0).grad(w_ls)
    scale = np.linalg.norm(design.X.T @ design.Y)
    assert np.linalg.norm(grad) <= 1e-8 * scale


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    design = random_design(rng, u=np.abs(rng.normal(1.0, 0.2, size=16)))
    problem = egmtl_problem(design, 0.6, 0.3)
    w = rng.normal(size=problem.shape)
    grad = problem.grad(w)
    fd = central_difference_grad(problem.f, w)
    scale = max(np.max(np.abs(grad)), 1e-12)
    assert np.max(np.abs(fd - grad)) / scale < 1e-5


def test_grad_empty_graph_has_no_graph_term():
    rng = np.random.default_rng(7)
    design = random_design(rng, with_graph=False)
    w = rng.normal(size=(design.n_features, design.n_tasks * design.n_classes))
    with pytest.warns(UserWarning, match="empty task graph"):
        problem = egmtl_problem(design, 0.5, 7.0)
    two_term = design.X.T @ (
        design.U[:, None] * (design.X @ w - design.Y)
    ) + 2 * 0.5 * (design.P.T @ (design.P @ w - design.V))
    assert np.linalg.norm(problem.grad(w) - two_term) <= 1e-12 * np.linalg.norm(two_term)


def test_all_model_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for kind in MODEL_KINDS:
        design = random_design(rng, n_per_task=6, d=3, r=2, c=2)
        problem = build_problem(default_spec(kind), design)
        w = rng.normal(size=problem.shape)
        grad = problem.grad(w)
        fd = central_difference_grad(problem.f, w)
        scale = max(np.max(np.abs(grad)), 1.0)
        assert np.max(np.abs(fd - grad)) / scale < 1e-5, kind


def objective_residual_form(kind, spec, z, design):
    """Each model's full objective, term by term from the module docstring."""
    d = design.n_features
    x, y, u, e = design.X, design.Y, design.U, design.E

    def loss(w):
        return 0.5 * np.sum(u[:, None] * (y - x @ w) ** 2)

    def l1(w):
        return np.sum(np.abs(w))

    def l21(w):
        return np.sum(np.linalg.norm(w, axis=1))

    def fro2(w):
        return np.sum(w * w)

    def graph(w):
        return np.sum((e @ w.T) ** 2)

    if kind == "st_lasso":
        cc = design.n_classes
        tasks = design.row_tasks()
        value = 0.0
        for t in range(design.n_tasks):
            rows, cols = tasks == t, slice(t * cc, (t + 1) * cc)
            resid = y[rows][:, cols] - x[rows] @ z[:, cols]
            value += 0.5 * np.sum(u[rows, None] * resid**2)
        return value + spec["alpha"] * l1(z) + spec["beta"] * fro2(z)
    if kind == "mt_lasso":
        return loss(z) + spec["beta"] * fro2(z) + spec["alpha"] * l1(z)
    if kind == "l21_mtl":
        return loss(z) + spec["beta"] * fro2(z) + spec["alpha"] * l21(z)
    if kind in ("dirty_mtl", "robust_mtl"):
        s, q = z[:d], z[d:]
        if kind == "dirty_mtl":
            penalty = spec["rho1"] * np.sum(np.max(np.abs(s), axis=1)) + spec["rho2"] * l1(q)
        else:
            penalty = spec["rho1"] * l21(s) + spec["rho2"] * l21(q.T)
        return loss(s + q) + penalty
    if kind == "sr_mtl":
        return (
            loss(z) + spec["alpha"] * graph(z) + spec["gamma"] * fro2(z)
            + spec["beta"] * l1(z)
        )
    expert = np.sum((design.V - design.P @ z) ** 2)
    return (
        loss(z) + spec["lambda1"] * expert + spec["lambda2"] * graph(z)
        + spec["lambda3"] * l1(z)
    )


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_problem_matches_residual_form(monkeypatch, kind):
    rng = np.random.default_rng(30)
    # the complete graph takes the complete form at RC = 6 and RC = 150, and
    # two cliques with a non-unit weight the GEMM form; graph kinds check the
    # GEMM form at RC = 6 too
    r = 30
    designs = [
        random_design(rng, n_per_task=7, d=3, r=3, c=2, u=rng.uniform(0.5, 2.0, 21)),
        random_design(rng, n_per_task=4, d=3, r=r, c=5, u=rng.uniform(0.5, 2.0, 4 * r)),
        random_design(
            rng, n_per_task=4, d=3, r=r, c=5, u=rng.uniform(0.5, 2.0, 4 * r),
            graph=from_groups([range(1, 13), range(13, r + 1)], gamma=1.3),
        ),
    ]
    assert [solvers._graph_form(design, 0.7) for design in designs] == [
        "complete", "complete", "gemm"
    ]
    cases = [(design, solvers._graph_form) for design in designs]
    if kind in solvers.GRAPH_KINDS:
        cases.append((designs[0], lambda design, weight: "gemm"))
    for design, form in cases:
        monkeypatch.setattr(solvers, "_graph_form", form)
        # distinct, non-unit weights so a term folded with the wrong factor shows
        weights = iter((0.7, 0.3, 1.9))
        spec = ModelSpec(kind, {name: next(weights) for name in solvers.HYPERPARAMS[kind]})
        problem = build_problem(spec, design)
        z = rng.normal(size=problem.shape)
        expected = objective_residual_form(kind, spec, z, design)
        assert problem.f(z) + problem.h(z) == pytest.approx(expected, rel=1e-10)
        if kind == "eg_mtl":
            fd = central_difference_grad(problem.f, z)
            grad = problem.grad(z)
            assert np.max(np.abs(fd - grad)) <= 1e-5 * np.max(np.abs(grad))


def test_graph_term_above_the_crossover_forms_no_rc_by_rc_array():
    rng = np.random.default_rng(32)
    r, c, d = 240, 5, 32
    design = random_design(rng, n_per_task=10, d=d, r=r, c=c, ne_per_task=2)
    spec = default_spec("eg_mtl")
    dense_g_bytes = (r * c) ** 2 * 8  # 11.5 MB
    tracemalloc.start()
    try:
        problem = build_problem(spec, design)
        problem.grad(np.zeros(problem.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_g_bytes


@pytest.mark.parametrize("kind", ["st_lasso", "eg_mtl"])
def test_fits_share_the_design_parts_and_a_replaced_design_has_its_own(kind):
    rng = np.random.default_rng(31)
    design = random_design(rng, n_per_task=12, d=4, r=3, c=2, u=rng.uniform(0.5, 2.0, 36))
    spec = default_spec(kind)
    first = fit(spec, design)
    stored = (design.crowd_gram, design.task_grams, design.expert_gram)
    again = fit(spec, design)
    assert np.array_equal(again.W, first.W)
    assert np.array_equal(again.objective_trace, first.objective_trace)
    now = (design.crowd_gram, design.task_grams, design.expert_gram)
    assert all(part is kept for part, kept in zip(now, stored))
    for name, value in (
        ("U", rng.uniform(0.5, 2.0, design.n_crowd_rows)),
        ("X", rng.normal(size=design.X.shape)),
    ):
        changed = dataclasses.replace(design, **{name: value})
        refit = fit(spec, changed)
        assert not np.array_equal(refit.W, first.W)
        assert np.array_equal(refit.W, fit(spec, dataclasses.replace(changed)).W)
        assert changed.crowd_gram[0] is not design.crowd_gram[0]
        assert np.array_equal(fit(spec, design).W, first.W)


# --------------------------------------------------------------------------
# fista engine


def test_fista_matches_ridge_closed_form():
    rng = np.random.default_rng(9)
    design = random_design(rng, n_per_task=25, d=5, r=2, c=2, with_graph=False)
    beta = 0.4
    spec = ModelSpec("mt_lasso", {"alpha": 0.0, "beta": beta})
    result = fit(spec, design, TIGHT)
    d = design.n_features
    w_star = np.linalg.solve(
        design.X.T @ design.X + 2 * beta * np.eye(d), design.X.T @ design.Y
    )
    rel = np.linalg.norm(result.W - w_star) / np.linalg.norm(w_star)
    assert rel < 1e-6


def test_fista_identity_design_gives_soft_threshold():
    rng = np.random.default_rng(10)
    n = 12
    labels = rng.integers(1, 3, size=n)
    task = TaskDataset("t0", np.eye(n), labels)
    design = assemble_design([task], 2)
    alpha = 0.3
    result = fit(ModelSpec("mt_lasso", {"alpha": alpha, "beta": 0.0}), design, TIGHT)
    assert np.allclose(result.W, prox_l1(design.Y, alpha), atol=1e-8)


def test_fista_stationary_start_converges_fast():
    rng = np.random.default_rng(11)
    design = random_design(rng, n_per_task=10, d=4, r=2, c=2)
    spec = default_spec("eg_mtl")
    problem = build_problem(spec, design)
    first = fit(spec, design, TIGHT)
    w, trace, iterations, converged = fista_solve(problem, first.W, TIGHT)
    assert converged
    assert iterations <= 2


def test_fista_nonfinite_raises():
    bad = lambda w: float("nan")
    from crowdmtl.solvers import CompositeProblem

    problem = CompositeProblem(
        (2, 2),
        f=bad,
        grad=lambda w: np.zeros((2, 2)),
        prox=lambda v, s: v,
        h=lambda w: 0.0,
    )
    with pytest.raises(NumericalError):
        fista_solve(problem, np.zeros((2, 2)), SolverConfig())


def test_objective_trace_monotone_all_models():
    rng = np.random.default_rng(12)
    for kind in MODEL_KINDS:
        for _ in range(3):
            design = random_design(rng, n_per_task=7, d=4, r=2, c=2)
            result = fit(default_spec(kind), design)
            diffs = np.diff(result.objective_trace)
            assert np.all(diffs <= 1e-10), kind


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_reused_operator_image_changes_no_bit(kind):
    # a writable copy of each point never hits the image grad stored
    design = random_design(np.random.default_rng(41), n_per_task=9, d=4, r=3, c=2)
    spec = default_spec(kind)
    reused, fresh = build_problem(spec, design), build_problem(spec, design)
    f, grad = fresh.f, fresh.grad
    fresh.f = lambda w: f(np.array(w))
    fresh.grad = lambda w: grad(np.array(w))
    config = SolverConfig(max_iter=300)
    w, trace, iterations, _ = fista_solve(reused, np.zeros(reused.shape), config)
    w_ref, trace_ref, iterations_ref, _ = fista_solve(fresh, np.zeros(fresh.shape), config)
    assert iterations == iterations_ref > 2
    assert w.tobytes() == w_ref.tobytes()
    assert trace.tobytes() == trace_ref.tobytes()


@pytest.mark.parametrize("kind", ["eg_mtl", "dirty_mtl"])
def test_one_operator_application_per_momentum_point(monkeypatch, kind):
    applications = []
    quadratic = solvers._quadratic

    def counted_quadratic(model, design):
        apply, c, c0, parts = quadratic(model, design)
        return (lambda w: applications.append(1) or apply(w)), c, c0, parts

    calls = {"f": 0, "grad": 0}
    build = solvers.build_problem

    def counted_build(model, design):
        problem = build(model, design)
        f, grad = problem.f, problem.grad

        def counted_f(w):
            calls["f"] += 1
            return f(w)

        def counted_grad(w):
            calls["grad"] += 1
            return grad(w)

        problem.f, problem.grad = counted_f, counted_grad
        return problem

    monkeypatch.setattr(solvers, "_quadratic", counted_quadratic)
    monkeypatch.setattr(solvers, "build_problem", counted_build)
    design = random_design(np.random.default_rng(43), n_per_task=9, d=4, r=3, c=2)
    result = fit(default_spec(kind), design, SolverConfig(max_iter=300))
    assert result.iterations > 2
    assert len(applications) == calls["f"] + calls["grad"] - result.iterations


@pytest.mark.parametrize("kind", ["mt_lasso", "dirty_mtl"])
def test_f_applies_the_operator_afresh_to_a_changed_array(kind):
    design = random_design(np.random.default_rng(47), n_per_task=9, d=4, r=3, c=2)
    spec = default_spec(kind)
    problem = build_problem(spec, design)
    rng = np.random.default_rng(48)
    w = rng.normal(size=problem.shape)
    problem.grad(w)
    w *= 2.0
    assert problem.f(w) == build_problem(spec, design).f(w)
    # a read-only view whose base is still writable can change too
    base = rng.normal(size=problem.shape)
    view = base[:]
    view.flags.writeable = False
    problem.grad(view)
    base *= 2.0
    assert problem.f(view) == build_problem(spec, design).f(view)


# --------------------------------------------------------------------------
# fit dispatch and identities


@pytest.mark.filterwarnings("ignore:eg_mtl fitted with an empty task graph")
def test_egmtl_reduces_to_mt_lasso():
    rng = np.random.default_rng(13)
    design = random_design(rng, n_per_task=10, d=4, r=2, c=2, with_graph=False)
    alpha = 0.2
    w_eg = fit(
        ModelSpec("eg_mtl", {"lambda1": 0.0, "lambda2": 1.0, "lambda3": alpha}),
        design,
        TIGHT,
    ).W
    w_mt = fit(ModelSpec("mt_lasso", {"alpha": alpha, "beta": 0.0}), design, TIGHT).W
    scale = max(np.linalg.norm(w_mt), 1e-12)
    assert np.linalg.norm(w_eg - w_mt) / scale < 1e-6


def test_st_lasso_equals_mt_lasso_single_task():
    rng = np.random.default_rng(14)
    task = TaskDataset("only", rng.normal(size=(15, 4)), rng.integers(1, 3, size=15))
    design = assemble_design([task], 2)
    alpha = 0.15
    w_st = fit(ModelSpec("st_lasso", {"alpha": alpha, "beta": 0.0}), design, TIGHT).W
    w_mt = fit(ModelSpec("mt_lasso", {"alpha": alpha, "beta": 0.0}), design, TIGHT).W
    scale = max(np.linalg.norm(w_mt), 1e-12)
    assert np.linalg.norm(w_st - w_mt) / scale < 1e-6


@pytest.mark.filterwarnings("ignore:eg_mtl fitted with an empty task graph")
def test_egmtl_expert_limit():
    rng = np.random.default_rng(15)
    design = random_design(
        rng, n_per_task=10, d=3, r=2, c=2, ne_per_task=4, with_graph=False
    )
    w_expert = np.linalg.lstsq(design.P, design.V, rcond=None)[0]
    distances = []
    for lam1 in (1e2, 1e4, 1e6):
        w = fit(
            ModelSpec("eg_mtl", {"lambda1": lam1, "lambda2": 0.0, "lambda3": 0.0}),
            design,
            TIGHT,
        ).W
        distances.append(np.linalg.norm(w - w_expert) / np.linalg.norm(w_expert))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 1e-3


def test_robust_mtl_flags_outlier_task():
    # three clean tasks share a feature support; the fourth task's rows are
    # pure noise (loud random features, random labels)
    rng = np.random.default_rng(16)
    d, n_t, c = 6, 40, 2
    beta_true = np.zeros(d)
    beta_true[:2] = [1.5, -1.0]
    tasks = []
    for t in range(4):
        x = rng.normal(size=(n_t, d))
        if t < 3:
            labels = np.where(x @ beta_true < 0, 1, 2)
        else:
            x = 3.0 * x
            labels = rng.integers(1, c + 1, size=n_t)  # planted outlier task
        tasks.append(TaskDataset(f"t{t}", x, labels))
    design = assemble_design(tasks, c)
    found = False
    for rho2 in (12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0):
        result = fit(
            ModelSpec("robust_mtl", {"rho1": 16.0, "rho2": rho2}), design, TIGHT
        )
        q = result.sparse_part
        col_norms = np.sqrt(np.sum(q * q, axis=0))
        clean = np.max(col_norms[: 3 * c])
        outlier = np.max(col_norms[3 * c :])
        if clean < 1e-3 and outlier > 1e-3:
            found = True
            break
    assert found


def test_dirty_and_robust_parts_sum_to_w():
    rng = np.random.default_rng(17)
    for kind in ("dirty_mtl", "robust_mtl"):
        design = random_design(rng, n_per_task=8, d=4, r=2, c=2)
        result = fit(default_spec(kind), design)
        assert result.shared_part is not None
        assert np.array_equal(result.W, result.shared_part + result.sparse_part)


def test_egmtl_requires_expert_block():
    rng = np.random.default_rng(18)
    design = random_design(rng, with_expert=False)
    with pytest.raises(ValueError, match="expert"):
        fit(default_spec("eg_mtl"), design)


def test_empty_graph_warns_for_graph_models():
    rng = np.random.default_rng(19)
    design = random_design(rng, with_graph=False)
    with pytest.warns(UserWarning, match="empty task graph"):
        fit(default_spec("sr_mtl"), design)
    with pytest.warns(UserWarning, match="empty task graph"):
        fit(default_spec("eg_mtl"), design)


def test_scaling_invariance():
    rng = np.random.default_rng(20)
    design = random_design(rng, n_per_task=10, d=4, r=2, c=2)
    lam = {"lambda1": 0.5, "lambda2": 0.2, "lambda3": 0.1}
    w_base = fit(ModelSpec("eg_mtl", lam), design, TIGHT).W
    c = 3.7
    design_scaled = type(design)(
        X=design.X,
        y_cols=design.y_cols,
        U=design.U * c,
        graph=design.graph,
        n_tasks=design.n_tasks,
        n_classes=design.n_classes,
        P=design.P,
        v_cols=design.v_cols,
    )
    lam_scaled = {k: v * c for k, v in lam.items()}
    w_scaled = fit(ModelSpec("eg_mtl", lam_scaled), design_scaled, TIGHT).W
    scale = max(np.linalg.norm(w_base), 1e-12)
    assert np.linalg.norm(w_scaled - w_base) / scale < 1e-6


def test_sparsity_monotone_in_l1_weight():
    rng = np.random.default_rng(21)
    design = random_design(rng, n_per_task=12, d=6, r=2, c=2)
    for kind, param in (("eg_mtl", "lambda3"), ("mt_lasso", "alpha")):
        sparsities = []
        for weight in (0.01, 0.1, 1.0, 10.0):
            spec = default_spec(kind, **{param: weight})
            sparsities.append(fit(spec, design, TIGHT).sparsity)
        assert all(a <= b + 1e-12 for a, b in zip(sparsities, sparsities[1:])), kind


def test_measure_sparsity():
    assert measure_sparsity(np.zeros((3, 3))) == 1.0
    # entries below 1e-6 of the max count as zero
    w = np.array([[1.0, 0.0], [0.0, 1e-9]])
    assert measure_sparsity(w) == pytest.approx(0.75)
    w = np.array([[1.0, 1e-3], [0.0, 0.0]])
    assert measure_sparsity(w) == pytest.approx(0.5)


def test_model_facts_read_off_the_term_table():
    # the hand-written literals the term table replaced
    assert solvers.MODEL_KINDS == (
        "st_lasso", "mt_lasso", "l21_mtl", "dirty_mtl", "robust_mtl", "sr_mtl", "eg_mtl",
    )
    assert solvers.HYPERPARAMS == {
        "st_lasso": ("alpha", "beta"),
        "mt_lasso": ("alpha", "beta"),
        "l21_mtl": ("alpha", "beta"),
        "dirty_mtl": ("rho1", "rho2"),
        "robust_mtl": ("rho1", "rho2"),
        "sr_mtl": ("alpha", "beta", "gamma"),
        "eg_mtl": ("lambda1", "lambda2", "lambda3"),
    }
    assert solvers.GRAPH_KINDS == ("sr_mtl", "eg_mtl")
    assert solvers.EXPERT_KINDS == ("eg_mtl",)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown model"):
        ModelSpec("nope", {})
    with pytest.raises(ValueError, match="needs hyperparameters"):
        ModelSpec("mt_lasso", {"alpha": 1.0})
    with pytest.raises(ValueError, match=">= 0"):
        ModelSpec("mt_lasso", {"alpha": -1.0, "beta": 0.0})


@pytest.mark.parametrize("field", ["rel_tol", "L0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_settings(field, value):
    # L0 = nan never trips the backtracking guard, so the solve would not end
    with pytest.raises(ValueError, match=f"{field} must be > 0 and finite, got {value}"):
        SolverConfig(**{field: value})


# --------------------------------------------------------------------------
# predict


def test_predict_class_argmax():
    w = np.array([[0.9, 0.1]])  # D=1, R=1, C=2
    assert predict(w, np.array([[1.0]]), 1, 2).tolist() == [1]
    # ties break to the lowest class index
    w_tie = np.array([[0.5, 0.5]])
    assert predict(w_tie, np.array([[1.0]]), 1, 2).tolist() == [1]


def test_predict_level_decode():
    mids3 = np.array([-2.0 / 3.0, 0.0, 2.0 / 3.0])
    w = np.array([[0.0, 1.0, 0.0]])
    out = predict(w, np.array([[1.0]]), 1, 3, mode="level", midpoints=mids3)
    assert out[0] == pytest.approx(0.0)
    mids2 = np.array([-0.5, 0.5])
    w = np.array([[1.0, 1.0]])
    out = predict(w, np.array([[1.0]]), 1, 2, mode="level", midpoints=mids2)
    assert out[0] == pytest.approx(0.0)
    # all scores <= 0 falls back to the argmax midpoint
    w = np.array([[-3.0, -1.0]])
    out = predict(w, np.array([[1.0]]), 1, 2, mode="level", midpoints=mids2)
    assert out[0] == pytest.approx(0.5)
    # a mixed batch: positive rows divide, the others never do, so no
    # warning is raised and each row is exactly its own decode
    w = np.array([[1.0, 3.0, -1.0], [-2.0, -1.0, -4.0]])  # D=2, R=1, C=3
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = predict(w, x, 1, 3, mode="level", midpoints=mids3)
    # scores (1, 3, -1), (-2, -1, -4), (-1, 2, -5), (0, 0, 0) and (-1, -3, 1)
    assert out[0] == pytest.approx((1.0 * mids3[0] + 3.0 * mids3[1]) / 4.0)
    assert out[1:].tolist() == [mids3[1], mids3[1], mids3[0], mids3[2]]


def test_predict_task_out_of_range():
    w = np.zeros((2, 4))
    with pytest.raises(ValueError, match="out of range"):
        predict(w, np.zeros((1, 2)), 3, 2)


def test_predict_transfer_pools_blocks():
    # two tasks, two classes; block scores add per class
    w = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 2.0, 0.0, -1.0]])
    x = np.array([[1.0, 1.0]])
    classes, pooled = predict_transfer(w, x, 2)
    assert np.allclose(pooled, [[1.5, 1.0]])
    assert classes.tolist() == [1]


# --------------------------------------------------------------------------
# seams the benchmark tracer relies on


@pytest.mark.parametrize(
    "penalty,kind",
    [
        ("l1", "mt_lasso"),
        ("l21_rows", "l21_mtl"),
        ("l21_cols", "robust_mtl"),
        ("linf_rows", "dirty_mtl"),
    ],
)
def test_fit_looks_up_prox_at_call_time(monkeypatch, penalty, kind):
    # a wrapper installed on the solvers module after import must be reached
    name = f"prox_{penalty}"
    original = getattr(solvers, name)
    calls = []

    def counted(v, tau):
        calls.append(tau)
        return original(v, tau)

    monkeypatch.setattr(solvers, name, counted)
    design = random_design(np.random.default_rng(31), n_per_task=6, d=3, r=2, c=2)
    fit(default_spec(kind), design, SolverConfig(max_iter=20))
    assert calls


def test_benchmark_counter_selftest_passes():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# --------------------------------------------------------------------------
# the graph term's forms: complete (closed form) and GEMM


def graph_objective_by_edges(kind, spec, z, design):
    """sr_mtl's or eg_mtl's objective term by term, the graph term summed
    over the edges: no incidence matrix, so it runs at R in the hundreds."""
    d, r, c = design.n_features, design.n_tasks, design.n_classes
    loss = 0.5 * np.sum(design.U[:, None] * (design.Y - design.X @ z) ** 2)
    blocks = z.reshape(d, r, c)
    i, j, gamma = (np.array(column) for column in zip(*design.graph.edges))
    diff = blocks[:, i - 1, :] - blocks[:, j - 1, :]
    graph = np.sum(gamma**2 * np.sum(diff**2, axis=(0, 2)))
    l1 = np.sum(np.abs(z))
    if kind == "sr_mtl":
        return loss + spec["alpha"] * graph + spec["gamma"] * np.sum(z * z) + spec["beta"] * l1
    expert = np.sum((design.V - design.P @ z) ** 2)
    return loss + spec["lambda1"] * expert + spec["lambda2"] * graph + spec["lambda3"] * l1


@pytest.mark.parametrize("r", [30, 240])
@pytest.mark.parametrize("kind", solvers.GRAPH_KINDS)
def test_complete_form_matches_the_gemm_form_and_the_residual_form(monkeypatch, kind, r):
    rng = np.random.default_rng(50 + r)
    design = random_design(
        rng, n_per_task=4, d=3, r=r, c=5, ne_per_task=2, u=rng.uniform(0.5, 2.0, 4 * r),
        graph=TaskGraph.complete(r, gamma=1.3),
    )
    assert solvers._graph_form(design, 0.7) == "complete"
    weights = iter((0.7, 0.3, 1.9))
    spec = ModelSpec(kind, {name: next(weights) for name in solvers.HYPERPARAMS[kind]})
    complete = build_problem(spec, design)
    monkeypatch.setattr(solvers, "_graph_form", lambda design, weight: "gemm")
    gemm = build_problem(spec, design)
    z = rng.normal(size=complete.shape)
    expected = graph_objective_by_edges(kind, spec, z, design)
    for problem in (complete, gemm):
        assert problem.f(z) + problem.h(z) == pytest.approx(expected, rel=1e-12)
    grad, grad_gemm = complete.grad(z), gemm.grad(z)
    assert np.max(np.abs(grad - grad_gemm)) <= 1e-12 * np.max(np.abs(grad_gemm))


def test_only_a_complete_graph_with_one_weight_takes_the_complete_form():
    r = 30
    edges = TaskGraph.complete(r).edges
    changed = list(edges)
    changed[17] = (*changed[17][:2], 1.5)
    graphs = {
        "complete": TaskGraph.complete(r),
        "one weight changed": TaskGraph(tuple(changed)),
        "one edge missing": TaskGraph(edges[:-1]),
        "two cliques": from_groups([range(1, 13), range(13, r + 1)]),
    }
    forms = {}
    for name, graph in graphs.items():
        design = random_design(np.random.default_rng(52), n_per_task=4, d=3, r=r, c=5, graph=graph)
        forms[name] = solvers._graph_form(design, 0.7), design.complete_gamma
    assert forms == {
        "complete": ("complete", 1.0),
        "one weight changed": ("gemm", None),
        "one edge missing": ("gemm", None),
        "two cliques": ("gemm", None),
    }
    small = random_design(np.random.default_rng(52), n_per_task=4, d=3, r=4, c=5)
    assert solvers._graph_form(small, 0.7) == "complete" and small.complete_gamma == 1.0
    assert solvers._graph_form(small, 0.0) is None


@pytest.mark.parametrize("r", [4, 30])
def test_complete_graph_from_json_in_any_order_gives_the_same_w(tmp_path, r):
    rng = np.random.default_rng(53)
    reversed_edges = [{"i": j, "j": i, "gamma": g} for i, j, g in TaskGraph.complete(r).edges]
    path = tmp_path / "graph.json"
    shuffled = [reversed_edges[k] for k in rng.permutation(len(reversed_edges))]
    path.write_text(json.dumps({"edges": shuffled}))
    designs = [
        random_design(np.random.default_rng(54), n_per_task=4, d=3, r=r, c=5, graph=graph)
        for graph in (TaskGraph.complete(r), load_graph_json(path))
    ]
    laplacians = [design.graph.laplacian(r) for design in designs]
    assert laplacians[1].tobytes() == laplacians[0].tobytes()
    for kind in solvers.GRAPH_KINDS:
        assert [solvers._graph_form(design, 0.7) for design in designs] == ["complete"] * 2
        w, w_json = (fit(default_spec(kind), design).W for design in designs)
        assert w_json.tobytes() == w.tobytes()


@pytest.mark.parametrize("r", [1, 2])
def test_complete_form_at_one_and_two_tasks(monkeypatch, r):
    rng = np.random.default_rng(55)
    design = random_design(rng, n_per_task=6, d=3, r=r, c=2, graph=TaskGraph.complete(r))
    spec = default_spec("eg_mtl")
    z = rng.normal(size=(3, 2 * r))
    assert solvers._graph_form(design, spec["lambda2"]) == ("complete" if r > 1 else None)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "eg_mtl fitted with an empty task graph")
        problem = build_problem(spec, design)
        result = fit(spec, design)
    expected = objective_residual_form("eg_mtl", spec, z, design)
    assert problem.f(z) + problem.h(z) == pytest.approx(expected, rel=1e-12)
    if r > 1:
        monkeypatch.setattr(solvers, "_graph_form", lambda design, weight: "gemm")
        gemm_grad = build_problem(spec, design).grad(z)
        assert np.max(np.abs(problem.grad(z) - gemm_grad)) <= 1e-12 * np.max(np.abs(gemm_grad))
    assert result.converged and np.all(np.isfinite(result.W))


def test_only_a_graph_that_is_not_complete_builds_its_laplacian(monkeypatch):
    def refuse(graph, n_tasks):
        raise AssertionError("TaskGraph.laplacian called")

    monkeypatch.setattr(TaskGraph, "laplacian", refuse)
    rng = np.random.default_rng(56)
    for r in (4, 120):  # R*C = 20 and 600
        design = random_design(rng, n_per_task=4, d=3, r=r, c=5, ne_per_task=2)
        assert solvers._graph_form(design, 0.7) == "complete"
        for kind in solvers.GRAPH_KINDS:
            spec = ModelSpec(kind, dict(zip(solvers.HYPERPARAMS[kind], (0.7, 0.3, 1.9))))
            problem = build_problem(spec, design)
            z = rng.normal(size=problem.shape)
            expected = graph_objective_by_edges(kind, spec, z, design)
            assert problem.f(z) + problem.h(z) == pytest.approx(expected, rel=1e-12)
            result = fit(default_spec(kind), design)
            assert result.converged and np.all(np.isfinite(result.W))
    two_cliques = random_design(
        rng, n_per_task=4, d=3, r=4, c=5, graph=from_groups([(1, 2), (3, 4)])
    )
    assert solvers._graph_form(two_cliques, 0.7) == "gemm"
    spec = ModelSpec("sr_mtl", {"alpha": 0.7, "beta": 0.3, "gamma": 1.9})
    with pytest.raises(AssertionError, match="TaskGraph.laplacian called"):
        build_problem(spec, two_cliques)
    monkeypatch.undo()
    problem = build_problem(spec, two_cliques)
    z = rng.normal(size=problem.shape)
    expected = graph_objective_by_edges("sr_mtl", spec, z, two_cliques)
    assert problem.f(z) + problem.h(z) == pytest.approx(expected, rel=1e-12)
