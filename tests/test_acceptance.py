"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from crowdmtl.annotations import AnnotationTrace, QcPolicy, kendalls_w, quality_filter
from crowdmtl.design import TaskDataset, assemble_design
from crowdmtl.experiments import (
    P1Config,
    P2Config,
    SynthConfig,
    run_p1,
    run_p2,
    synth_generate,
    synth_generate_p2,
)
from crowdmtl.prox import prox_l1, prox_l21_rows, prox_linf_rows
from crowdmtl.solvers import (
    MODEL_KINDS,
    ModelSpec,
    SolverConfig,
    build_problem,
    fit,
)
from util import central_difference_grad, random_design

TIGHT = SolverConfig(max_iter=60000, rel_tol=1e-14)

ALL_MODELS = ["st_lasso", "mt_lasso", "l21_mtl", "dirty_mtl", "robust_mtl", "sr_mtl", "eg_mtl"]
BASELINES = ALL_MODELS[1:-1]


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion:>2}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _default_hyper(kind):
    return {
        "st_lasso": {"alpha": 0.1, "beta": 0.0},
        "mt_lasso": {"alpha": 0.1, "beta": 0.05},
        "l21_mtl": {"alpha": 0.1, "beta": 0.05},
        "dirty_mtl": {"rho1": 0.2, "rho2": 0.1},
        "robust_mtl": {"rho1": 0.2, "rho2": 0.1},
        "sr_mtl": {"alpha": 0.1, "beta": 0.1, "gamma": 0.05},
        "eg_mtl": {"lambda1": 0.5, "lambda2": 0.3, "lambda3": 0.1},
    }[kind]


# --------------------------------------------------------------------------
# 1. solver correctness against the closed form


def test_criterion_01_solver_matches_closed_form():
    rng = np.random.default_rng(101)
    dims = [
        dict(n_per_task=40, d=10, r=2, c=2),
        dict(n_per_task=40, d=12, r=3, c=2),
        dict(n_per_task=50, d=30, r=4, c=3),
        # R*C = 150 is above DENSE_GRAPH_MAX_RC: the complete graph's closed form
        dict(n_per_task=12, d=8, r=30, c=5),
    ]
    worst_rel = 0.0
    worst_time = 0.0
    for spec in dims:
        design = random_design(
            rng,
            with_expert=True,
            with_graph=True,
            ne_per_task=max(spec["d"] // spec["r"] + 2, 4),
            u=None,
            **spec,
        )
        design.U = rng.uniform(0.5, 2.0, size=design.n_crowd_rows)
        lam1, lam2 = 0.7, 0.4
        start = time.monotonic()
        result = fit(
            ModelSpec("eg_mtl", {"lambda1": lam1, "lambda2": lam2, "lambda3": 0.0}),
            design,
            TIGHT,
        )
        elapsed = time.monotonic() - start
        a = design.X.T @ (design.U[:, None] * design.X) + 2 * lam1 * design.P.T @ design.P
        b = 2 * lam2 * design.E.T @ design.E
        q = design.X.T @ (design.U[:, None] * design.Y) + 2 * lam1 * design.P.T @ design.V
        w_star = solve_sylvester(a, b, q)
        rel = np.linalg.norm(result.W - w_star) / np.linalg.norm(w_star)
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel < 1e-6 and worst_time < 5.0
    _report(1, ok, f"max relative error {worst_rel:.2e}, max time {worst_time:.2f}s")


# --------------------------------------------------------------------------
# 2. gradients against central finite differences


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(102)
    worst = 0.0
    for kind in MODEL_KINDS:
        design = random_design(rng, n_per_task=6, d=3, r=2, c=2)
        problem = build_problem(ModelSpec(kind, _default_hyper(kind)), design)
        for _ in range(10):
            w = rng.normal(size=problem.shape)
            grad = problem.grad(w)
            fd = central_difference_grad(problem.f, w, step=1e-6)
            scale = max(np.max(np.abs(grad)), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - grad)) / scale))
    _report(2, worst < 1e-5, f"max relative component error {worst:.2e} over {len(MODEL_KINDS)} models x 10 points")


# --------------------------------------------------------------------------
# 3. prox operators against brute-force grids


def test_criterion_03_prox_oracles():
    rng = np.random.default_rng(103)
    worst_l1 = 0.0
    for _ in range(100):
        v = float(rng.uniform(-1.5, 1.5))
        tau = float(rng.uniform(0.0, 1.0))
        lo, hi = min(0.0, v) - 0.5, max(0.0, v) + 0.5
        xs = np.arange(lo, hi + 1e-4, 1e-4)
        grid_min = xs[np.argmin(0.5 * (xs - v) ** 2 + tau * np.abs(xs))]
        worst_l1 = max(worst_l1, abs(float(prox_l1(np.array([v]), tau)[0]) - grid_min))

    worst_linf = 0.0
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, size=2)
        tau = float(rng.uniform(0.05, 0.8))
        axes = []
        for vi in v:
            lo, hi = min(0.0, vi) - 2e-3, max(0.0, vi) + 2e-3
            axes.append(np.arange(lo, hi + 1e-3, 1e-3))
        x1, x2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        obj = 0.5 * ((x1 - v[0]) ** 2 + (x2 - v[1]) ** 2) + tau * np.maximum(
            np.abs(x1), np.abs(x2)
        )
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        grid_min = np.array([axes[0][i], axes[1][j]])
        out = prox_linf_rows(v[None, :], tau)[0]
        worst_linf = max(worst_linf, float(np.max(np.abs(out - grid_min))))

    # analytic form and single-column reduction for the row-group prox
    m = rng.normal(size=(40, 5))
    tau = 0.6
    norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
    expected = m * np.maximum(1 - tau / norms, 0.0)
    analytic_exact = np.array_equal(prox_l21_rows(m, tau), expected)
    col = rng.normal(size=(40, 1))
    reduces = np.allclose(prox_l21_rows(col, tau), prox_l1(col, tau))

    ok = worst_l1 <= 1e-4 and worst_linf <= 2e-3 and analytic_exact and reduces
    _report(
        3,
        ok,
        f"l1 grid gap {worst_l1:.1e} (res 1e-4), linf grid gap {worst_linf:.1e} "
        f"(res 1e-3), l21 analytic={analytic_exact}, 1-col reduction={reduces}",
    )


# --------------------------------------------------------------------------
# 4. monotone descent


def test_criterion_04_monotone_descent():
    rng = np.random.default_rng(104)
    worst_rise = -np.inf
    worst_time = 0.0
    for kind in MODEL_KINDS:
        for _ in range(20):
            design = random_design(rng, n_per_task=6, d=4, r=2, c=2)
            start = time.monotonic()
            result = fit(ModelSpec(kind, _default_hyper(kind)), design)
            worst_time = max(worst_time, time.monotonic() - start)
            rises = np.diff(result.objective_trace)
            worst_rise = max(worst_rise, float(rises.max(initial=-np.inf)))
    ok = worst_rise <= 1e-10 and worst_time < 10.0
    _report(4, ok, f"max objective rise {worst_rise:.2e}, max fit time {worst_time:.2f}s over 7 models x 20 instances")


# --------------------------------------------------------------------------
# 5. reduction identities


def test_criterion_05_reduction_identities():
    rng = np.random.default_rng(105)
    design = random_design(rng, n_per_task=10, d=4, r=2, c=2, with_graph=False)
    alpha = 0.2
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w_eg = fit(
            ModelSpec("eg_mtl", {"lambda1": 0.0, "lambda2": 1.0, "lambda3": alpha}),
            design,
            TIGHT,
        ).W
    w_mt = fit(ModelSpec("mt_lasso", {"alpha": alpha, "beta": 0.0}), design, TIGHT).W
    rel_eg = np.linalg.norm(w_eg - w_mt) / np.linalg.norm(w_mt)

    single = assemble_design(
        [TaskDataset("only", rng.normal(size=(15, 4)), rng.integers(1, 3, size=15))], 2
    )
    w_st = fit(ModelSpec("st_lasso", {"alpha": alpha, "beta": 0.0}), single, TIGHT).W
    w_mt1 = fit(ModelSpec("mt_lasso", {"alpha": alpha, "beta": 0.0}), single, TIGHT).W
    rel_st = np.linalg.norm(w_st - w_mt1) / np.linalg.norm(w_mt1)

    ok = rel_eg < 1e-6 and rel_st < 1e-6
    _report(5, ok, f"eg_mtl == mt_lasso rel {rel_eg:.2e}; st_lasso == mt_lasso (R=1) rel {rel_st:.2e}")


# --------------------------------------------------------------------------
# 6. sparsity monotone in the l1 weight


def test_criterion_06_sparsity_monotone():
    rng = np.random.default_rng(106)
    grid = (0.01, 0.1, 1.0, 10.0)
    ok = True
    detail = []
    for trial in range(3):
        design = random_design(rng, n_per_task=12, d=6, r=2, c=2)
        for kind, param, base in (
            ("eg_mtl", "lambda3", {"lambda1": 0.5, "lambda2": 0.3}),
            ("mt_lasso", "alpha", {"beta": 0.05}),
        ):
            sparsities = []
            for weight in grid:
                hyper = dict(base)
                hyper[param] = weight
                sparsities.append(fit(ModelSpec(kind, hyper), design, TIGHT).sparsity)
            monotone = all(a <= b + 1e-12 for a, b in zip(sparsities, sparsities[1:]))
            ok = ok and monotone
            if trial == 0:
                detail.append(f"{kind}: {['%.2f' % s for s in sparsities]}")
    _report(6, ok, "; ".join(detail))


# --------------------------------------------------------------------------
# 7. directional reproduction of the published findings


def test_criterion_07_directional_findings():
    start = time.monotonic()
    p1_wins = 0
    for seed in range(5):
        cfg = SynthConfig(
            seed=seed,
            n_tasks=3,
            n_features=6,
            samples_per_task=50,
            n_crowd=5,
            n_expert=10,
            crowd_noise_sd=0.5,
            expert_noise_sd=0.1,
        )
        data = synth_generate(cfg)
        table = run_p1(data, P1Config(runs=5), ["mt_lasso", "eg_mtl"], seed=seed)
        p1_wins += table.cell("eg_mtl").mean < table.cell("mt_lasso").mean

    p2_best = p2_between = p2_over_st = 0
    for seed in range(5):
        cfg = SynthConfig(
            seed=seed,
            n_crowd=5,
            n_expert=16,
            crowd_noise_sd=0.5,
            expert_noise_sd=0.1,
            p2_clips_per_set=32,
            p2_eval_clips=240,
        )
        val, evalset = synth_generate_p2(cfg)
        table = run_p2(val, evalset, ALL_MODELS, config=P2Config(folds=5), seed=seed)
        acc = {row.model: row.mean for row in table.rows}
        best_baseline = max(acc[m] for m in BASELINES)
        p2_best += acc["eg_mtl"] >= best_baseline
        p2_between += best_baseline <= acc["eg_mtl_7"] <= acc["eg_mtl"]
        p2_over_st += all(acc[m] > acc["st_lasso"] for m in ALL_MODELS[1:])
    elapsed = time.monotonic() - start

    ok = (
        p1_wins >= 4
        and p2_best >= 4
        and p2_between >= 3
        and p2_over_st >= 4
        and elapsed < 300.0
    )
    _report(
        7,
        ok,
        f"(a) eg<mt on P1 {p1_wins}/5; (b) eg>=best {p2_best}/5; "
        f"(c) eg7 between {p2_between}/5; (d) MTL>st {p2_over_st}/5; "
        f"wall {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 8. Kendall's W against the brute-force rank-sum oracle


def _rank_average_ties(row):
    order = sorted(range(len(row)), key=lambda i: row[i])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _kendalls_w_bruteforce(ratings):
    m, n = len(ratings), len(ratings[0])
    ranks = [_rank_average_ties(row) for row in ratings]
    sums = [sum(ranks[r][i] for r in range(m)) for i in range(n)]
    mean = sum(sums) / n
    s = sum((x - mean) ** 2 for x in sums)
    tie = 0.0
    for row in ratings:
        counts = {}
        for v in row:
            counts[v] = counts.get(v, 0) + 1
        tie += sum(t**3 - t for t in counts.values())
    return 12.0 * s / (m * m * (n**3 - n) - m * tie)


def test_criterion_08_kendalls_w_oracle():
    identical = np.vstack([np.arange(6.0)] * 3)
    exact_one = kendalls_w(identical) == pytest.approx(1.0, abs=1e-15)
    a = np.arange(6.0)
    exact_zero = kendalls_w(np.vstack([a, a[::-1]])) == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(108)
    worst = 0.0
    checked = 0
    while checked < 50:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        if checked % 2 == 0:
            ratings = rng.normal(size=(m, n))
        else:
            ratings = rng.integers(0, 4, size=(m, n)).astype(float)
        try:
            expected = _kendalls_w_bruteforce(ratings.tolist())
        except ZeroDivisionError:
            continue
        worst = max(worst, abs(kendalls_w(ratings) - expected))
        checked += 1
    ok = exact_one and exact_zero and worst < 1e-12
    _report(8, ok, f"identical->1 {exact_one}, reversed->0 {exact_zero}, max |diff| {worst:.1e} on 50 matrices")


# --------------------------------------------------------------------------
# 9. quality-control rules


def _trace(values, **kwargs):
    values = np.asarray(values, dtype=float)
    defaults = dict(
        clip_id="c1",
        rater_id="r1",
        rater_kind="crowd",
        attribute="arousal",
        times=np.arange(values.size, dtype=float),
        values=values,
    )
    defaults.update(kwargs)
    return AnnotationTrace(**defaults)


def test_criterion_09_qc_rules():
    policy = QcPolicy(require_sign_consistency=True)
    flat = quality_filter(_trace([0.3] * 10), policy)
    rule_inactivity = (not flat.accepted) and flat.reason == "inactivity"

    missing = quality_filter(
        _trace(np.linspace(-1, 1, 10), missing_fraction=0.25),
        QcPolicy(max_missing_fraction=0.20),
    )
    rule_missing = (not missing.accepted) and missing.reason == "missing"

    values = -0.4 - 0.05 * np.arange(10)  # extremal continuous value negative
    sign = quality_filter(_trace(values, static_rating=1.5), policy)
    rule_sign = (not sign.accepted) and sign.reason == "sign"

    rng = np.random.default_rng(109)
    traces = [
        _trace(np.clip(rng.normal(0, 0.3, 30), -1, 1), rater_id=f"r{i}",
               static_rating=float(rng.uniform(-1, 1)))
        for i in range(30)
    ]
    base = [quality_filter(t, policy) for t in traces]
    order = rng.permutation(30)
    shuffled = [quality_filter(traces[i], policy) for i in order]
    order_free = all(shuffled[k] == base[order[k]] for k in range(30))

    ok = rule_inactivity and rule_missing and rule_sign and order_free
    _report(
        9,
        ok,
        f"inactivity={rule_inactivity}, missing={rule_missing}, "
        f"sign={rule_sign}, order-independent={order_free}",
    )


# --------------------------------------------------------------------------
# 10. end-to-end CLI determinism


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "crowdmtl", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "n_tasks": 3,
        "n_features": 5,
        "samples_per_task": 40,
        "n_crowd": 4,
        "n_expert": 4,
        "p2_clips_per_set": 6,
        "p2_eval_clips": 6,
        "p2_window_len": 16,
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data"
    _cli("synth", "--config", str(cfg_path), "--seed", "11", "--out", str(data))

    outputs = {}
    for cmd, extra in (("p1", ["--runs", "2"]), ("p2", [])):
        for tag, jobs in (("a", 1), ("b", 1), ("j4", 4)):
            out = tmp_path / f"{cmd}_{tag}"
            _cli(
                cmd,
                "--data", str(data),
                "--seed", "7",
                "--folds", "3",
                "--grid", "0.1,1",
                "--models", "mt_lasso,eg_mtl",
                "--jobs", str(jobs),
                "--out", str(out),
                *extra,
            )
            outputs[(cmd, tag)] = (out / "result.csv").read_bytes()
    p1_ok = outputs[("p1", "a")] == outputs[("p1", "b")] == outputs[("p1", "j4")]
    p2_ok = outputs[("p2", "a")] == outputs[("p2", "b")] == outputs[("p2", "j4")]
    ok = p1_ok and p2_ok
    _report(10, ok, f"p1 byte-identical (rerun + jobs4): {p1_ok}; p2: {p2_ok}")
