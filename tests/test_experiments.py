import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from crowdmtl.experiments import (
    MODEL_ORDER,
    P1Config,
    P1Data,
    P2Config,
    ResultRow,
    ResultTable,
    SynthConfig,
    accuracy,
    contiguous_folds,
    crossval_lambda1,
    extract_snippets,
    majority_vote,
    rmse,
    run_p1,
    run_p2,
    substream,
    synth_generate,
    synth_generate_p2,
)

SMALL = dict(
    seed=0,
    n_tasks=3,
    n_features=6,
    samples_per_task=50,
    n_crowd=6,
    n_expert=10,
)


def small_config(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


# --------------------------------------------------------------------------
# metrics


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.5, 2.5], [1.0, 2.0]) == pytest.approx(0.5)
    # hand arithmetic: sqrt((9 + 16) / 2)
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_accuracy():
    assert accuracy([1, 2, 1], [1, 2, 1]) == 1.0
    assert accuracy([1, 1], [2, 2]) == 0.0
    assert accuracy([1, 2, 1, 2], [1, 2, 2, 2]) == 0.75
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


# --------------------------------------------------------------------------
# substream / synth


def test_substream_independent_and_deterministic():
    a1 = substream(7, "synth").standard_normal(5)
    a2 = substream(7, "synth").standard_normal(5)
    b = substream(7, "snippets").standard_normal(5)
    c = substream(8, "synth").standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_synth_noiseless_labels_equal_truth():
    data = synth_generate(small_config(crowd_noise_sd=0.0, expert_noise_sd=0.0))
    for crowd_mat, expert_mat, truth in zip(data.crowd, data.expert, data.truth):
        assert np.allclose(crowd_mat, truth[None, :])
        assert np.allclose(expert_mat, truth[None, :])


def test_synth_deterministic():
    d1 = synth_generate(small_config())
    d2 = synth_generate(small_config())
    for a, b in zip(d1.features, d2.features):
        assert np.array_equal(a, b)
    for a, b in zip(d1.crowd, d2.crowd):
        assert np.array_equal(a, b)
    assert np.array_equal(d1.w_true, d2.w_true)


def test_synth_degenerate_plant():
    data = synth_generate(small_config(sparsity_true=1.0))
    assert np.all(data.w_true == 0.0)
    for truth in data.truth:
        assert np.all(truth == 0.0)
    # labels are pure discretized clipped noise, so raters disagree
    assert np.std(data.crowd[0]) > 0


def test_synth_invariant_expert_not_noisier():
    with pytest.raises(ValueError):
        small_config(crowd_noise_sd=0.1, expert_noise_sd=0.5)


def test_synth_p2_shapes():
    cfg = small_config(p2_clips_per_set=6, p2_eval_clips=4, p2_window_len=30)
    val, evalset = synth_generate_p2(cfg)
    assert len(val.clip_ids) == 6
    assert len(evalset.clip_ids) == 4
    assert val.window_len == 30 and evalset.window_len == 30
    assert val.expert_rows and not evalset.expert_rows
    assert set(val.classes) == {1, 2}


def _synth_digest(config):
    data = synth_generate(config)
    val, evalset = synth_generate_p2(config)
    digest = hashlib.sha256()
    for part in (data.features, data.crowd, data.expert, data.truth,
                 val.crowd_rows, val.expert_rows, evalset.crowd_rows):
        for array in part:
            digest.update(repr(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((data.clip_ids, val.classes, evalset.classes)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(SynthConfig) if f.name != "seed"]
)
def test_every_synth_setting_changes_the_data(name):
    # a setting that no generator reads would leave the data as it was
    default = getattr(SynthConfig(), name)
    changed = default + 1 if isinstance(default, int) else default * 0.5
    base = _synth_digest(SynthConfig())
    assert _synth_digest(SynthConfig(**{name: changed})) != base


# --------------------------------------------------------------------------
# snippets / folds / crossval


def test_extract_snippets_front():
    rng = substream(0, "snippets", 0)
    train, test = extract_snippets(50, 5, "front", rng)
    assert test.size == 5
    assert test.max() < 25
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(50))
    assert np.intersect1d(train, test).size == 0


def test_extract_snippets_full_half():
    train, test = extract_snippets(50, 25, "front", substream(0, "s", 1))
    assert np.array_equal(test, np.arange(25))
    train, test = extract_snippets(50, 25, "back", substream(0, "s", 2))
    assert np.array_equal(test, np.arange(25, 50))


def test_extract_snippets_too_long():
    with pytest.raises(ValueError, match="does not fit"):
        extract_snippets(50, 26, "front", substream(0, "s", 3))


def test_extract_snippets_shared_offsets():
    # the draw is deterministic per substream
    t1 = extract_snippets(50, 10, "back", substream(4, "snippets", 0))
    t2 = extract_snippets(50, 10, "back", substream(4, "snippets", 0))
    assert np.array_equal(t1[1], t2[1])


def test_p1_data_clips_share_one_timeline():
    cfg = small_config()
    data = synth_generate(cfg)
    features = list(data.features)
    features[1] = features[1][:40]
    with pytest.raises(ValueError, match="share"):
        P1Data(data.clip_ids, features, data.crowd, data.expert, data.truth)


def test_contiguous_folds():
    folds = contiguous_folds(np.arange(10), 5)
    assert len(folds) == 5
    for fit_idx, val_idx in folds:
        assert np.intersect1d(fit_idx, val_idx).size == 0
        assert np.array_equal(
            np.sort(np.concatenate([fit_idx, val_idx])), np.arange(10)
        )
    with pytest.raises(ValueError, match="folds"):
        contiguous_folds(np.arange(3), 5)


def test_crossval_lambda1_selection():
    # scores known in advance: the per-fold scorer just looks them up
    table = {0.1: 1.0, 1.0: 0.25, 10.0: 0.25, 100.0: 0.8}
    folds_seen = []

    def score_fold(fit_idx, val_idx):
        folds_seen.append(tuple(val_idx))
        return table.__getitem__

    best = crossval_lambda1(score_fold, [0.1, 1.0, 10.0, 100.0], np.arange(10), 5)
    assert best == 1.0  # tie between 1 and 10 goes to the smaller value
    # prepared exactly once per fold, not once per (fold, value)
    assert folds_seen == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    best = crossval_lambda1(
        score_fold, [100.0, 10.0, 1.0, 0.1], np.arange(10), 5, maximize=True
    )
    assert best == 0.1
    folds_seen.clear()
    assert crossval_lambda1(score_fold, [10.0], np.arange(10), 5) == 10.0
    assert len(folds_seen) == 5


@pytest.mark.parametrize("config_cls", [P1Config, P2Config])
@pytest.mark.parametrize(
    "field,value,message",
    [
        ("folds", 1, "folds must be >= 2"),
        ("max_iter", 0, "max_iter must be >= 1"),
        ("rel_tol", 0.0, "rel_tol must be > 0"),
        ("lambda1_grid", (), "empty hyperparameter grid"),
        ("attribute", "Arousal", "attribute must be one of arousal, valence"),
        ("lambda2", -1.0, "lambda2 must be finite and >= 0, got -1.0"),
        ("lambda3", -0.5, "lambda3 must be finite and >= 0, got -0.5"),
        ("lambda3", float("inf"), "lambda3 must be finite and >= 0, got inf"),
        ("lambda1_grid", (-1.0, 1.0), "lambda1 must be finite and >= 0, got -1.0"),
        ("lambda1_grid", (1.0, float("nan")), "lambda1 must be finite and >= 0, got nan"),
        ("lambda1_grid", (float("inf"),), "lambda1 must be finite and >= 0, got inf"),
    ],
)
def test_protocol_configs_reject_settings_no_cell_can_run(config_cls, field, value, message):
    with pytest.raises(ValueError, match=message):
        config_cls(**{field: value})


def test_p1_config_rejects_one_level():
    with pytest.raises(ValueError, match="level_count must be >= 2"):
        P1Config(level_count=1)


# --------------------------------------------------------------------------
# result table


def test_result_table_round_trip(tmp_path):
    table = ResultTable(
        [
            ResultRow("mt_lasso", "arousal", "synthetic", 5, "front", 0.5, 0.1, 0.25),
            ResultRow("eg_mtl", "arousal", "synthetic", 5, "front", None, None, None, "failed:X"),
        ]
    )
    text = table.to_csv_text()
    assert text.splitlines()[0] == ResultTable.CSV_HEADER
    assert "failed:X" in text
    path = tmp_path / "r.csv"
    table.write_csv(path)
    assert path.read_text() == text
    assert "mt_lasso" in table.to_text()


def test_majority_vote():
    assert majority_vote([1, 1, 2], np.zeros((3, 2))) == 1
    # ties break to the class with the larger summed score
    scores = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert majority_vote([2, 1], scores) == 2
    # equal scores too: lowest class wins
    assert majority_vote([1, 2], np.zeros((2, 2))) == 1


def test_majority_vote_row_order_invariant():
    rng = np.random.default_rng(0)
    classes = np.array([1, 2, 2, 1, 2])
    scores = rng.normal(size=(5, 2))
    base = majority_vote(classes, scores)
    for _ in range(5):
        perm = rng.permutation(5)
        assert majority_vote(classes[perm], scores[perm]) == base


# --------------------------------------------------------------------------
# run_p1


def p1_models():
    return ["mt_lasso", "eg_mtl"]


def test_run_p1_deterministic():
    data = synth_generate(small_config())
    config = P1Config(runs=2, lambda1_grid=(0.1, 1.0), folds=3)
    t1 = run_p1(data, config, p1_models(), seed=3)
    t2 = run_p1(data, config, p1_models(), seed=3)
    assert t1.to_csv_text() == t2.to_csv_text()


def test_run_p1_jobs_equivalence():
    data = synth_generate(small_config())
    config = P1Config(runs=2, lambda1_grid=(0.1, 1.0), folds=3)
    serial = run_p1(data, config, p1_models(), seed=3, jobs=1)
    parallel = run_p1(data, config, p1_models(), seed=3, jobs=4)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_run_p1_noiseless_rmse_within_discretization():
    # the ceiling binds at the sign-split level count: interior-level
    # indicators are bump functions of the linear signal and no linear
    # score can express them, so finer grids cannot reach 1/L
    data = synth_generate(small_config(crowd_noise_sd=0.0, expert_noise_sd=0.0))
    levels = 2
    config = P1Config(
        runs=2, lambda1_grid=(0.001, 0.1), folds=3, level_count=levels
    )
    table = run_p1(
        data,
        config,
        ["st_lasso", "mt_lasso", "l21_mtl", "dirty_mtl", "robust_mtl", "sr_mtl", "eg_mtl"],
        seed=0,
    )
    for row in table.rows:
        assert row.status == "ok", row
        assert row.mean <= 1.0 / levels + 1e-6, row


def test_run_p1_expert_subset_row():
    data = synth_generate(small_config())
    config = P1Config(runs=1, lambda1_grid=(1.0,), folds=3)
    table = run_p1(data, config, ["eg_mtl"], seed=0)
    names = [r.model for r in table.rows]
    assert names == ["eg_mtl", "eg_mtl_7"]  # 10 experts > subset of 7
    few = synth_generate(small_config(n_expert=5))
    table = run_p1(few, config, ["eg_mtl"], seed=0)
    assert [r.model for r in table.rows] == ["eg_mtl"]


def test_run_p1_requires_experts_for_egmtl():
    data = synth_generate(small_config())
    data.expert = []
    with pytest.raises(ValueError, match="expert"):
        run_p1(data, P1Config(runs=1), ["eg_mtl"], seed=0)


def test_run_p1_unknown_model():
    data = synth_generate(small_config())
    with pytest.raises(ValueError, match="unknown model"):
        run_p1(data, P1Config(runs=1), ["nope"], seed=0)


def test_run_p1_snippet_monotone_trend():
    # longer held-out snippets leave less training data; the error should
    # not improve by more than sampling noise, at the 4-of-5-seeds level
    runs = 5
    worse = 0
    for seed in range(5):
        data = synth_generate(small_config(seed=seed))
        short = run_p1(
            data,
            P1Config(runs=runs, snippet_s=5, lambda1_grid=(0.1, 1.0, 10.0), folds=3),
            ["mt_lasso"],
            seed=seed,
        ).cell("mt_lasso")
        long = run_p1(
            data,
            P1Config(runs=runs, snippet_s=15, lambda1_grid=(0.1, 1.0, 10.0), folds=3),
            ["mt_lasso"],
            seed=seed,
        ).cell("mt_lasso")
        slack = (short.sd + long.sd) / np.sqrt(runs)
        worse += long.mean >= short.mean - slack
    assert worse >= 4


def test_run_p1_matched_penalties_identity():
    # with equal noise and lambda1 = 0, the expert term vanishes and eg_mtl
    # matches mt_lasso under matched penalties
    data = synth_generate(small_config(crowd_noise_sd=0.3, expert_noise_sd=0.3))
    config = P1Config(
        runs=1, lambda1_grid=(1e-12,), folds=3, lambda2=0.0, lambda3=0.7
    )
    t_eg = run_p1(data, config, ["eg_mtl"], seed=1)
    # mt_lasso cross-validates alpha over the same single-point grid, but its
    # secondary (beta) is fixed to 1; match by passing alpha via the grid
    config_mt = P1Config(runs=1, lambda1_grid=(0.7,), folds=3)
    t_mt = run_p1(data, config_mt, ["mt_lasso"], seed=1)
    eg_cell = t_eg.cell("eg_mtl")
    mt_cell = t_mt.cell("mt_lasso")
    # mt_lasso carries the fixed ridge, so compare only loosely here; the
    # strict identity is covered at the solver level
    assert abs(eg_cell.mean - mt_cell.mean) < 0.1


# --------------------------------------------------------------------------
# run_p2


def p2_data(seed=0, **overrides):
    kwargs = dict(
        seed=seed,
        n_crowd=5,
        n_expert=9,
        p2_clips_per_set=8,
        p2_eval_clips=8,
        p2_window_len=30,
    )
    kwargs.update(overrides)
    return synth_generate_p2(small_config(**kwargs))


def test_run_p2_smoke_single_clip_per_class():
    val, evalset = p2_data(p2_clips_per_set=2, p2_eval_clips=2)
    table = run_p2(val, evalset, ["mt_lasso"], config=P2Config(folds=2), seed=0)
    cell = table.cell("mt_lasso")
    assert cell.status == "ok"
    assert 0.0 <= cell.mean <= 1.0


def test_run_p2_train_set_recall():
    # evaluating on the training set itself with weak penalties recalls it
    val, _ = p2_data(crowd_noise_sd=0.05, expert_noise_sd=0.05)
    table = run_p2(
        val,
        val,
        ["mt_lasso"],
        config=P2Config(lambda1_grid=(0.001,), folds=2),
        seed=0,
    )
    assert table.cell("mt_lasso").mean == 1.0


def test_run_p2_window_mismatch():
    val, _ = p2_data()
    _, evalset = p2_data(p2_window_len=20)
    with pytest.raises(ValueError, match="window length"):
        run_p2(val, evalset, ["mt_lasso"], seed=0)


def test_run_p2_deterministic_and_jobs():
    val, evalset = p2_data()
    config = P2Config(lambda1_grid=(0.1, 1.0), folds=2)
    t1 = run_p2(val, evalset, ["mt_lasso", "eg_mtl"], config=config, seed=5)
    t2 = run_p2(val, evalset, ["mt_lasso", "eg_mtl"], config=config, seed=5)
    t4 = run_p2(val, evalset, ["mt_lasso", "eg_mtl"], config=config, seed=5, jobs=4)
    assert t1.to_csv_text() == t2.to_csv_text() == t4.to_csv_text()


def test_run_p2_requires_experts():
    val, evalset = p2_data()
    val.expert_rows = []
    with pytest.raises(ValueError, match="expert"):
        run_p2(val, evalset, ["eg_mtl"], seed=0)


def test_model_order_stable():
    assert MODEL_ORDER[-1] == "eg_mtl_7"
    assert MODEL_ORDER[0] == "st_lasso"


def test_run_p1_marks_failed_cells():
    # folds larger than the training rows make every cell of a model fail;
    # the table still lists the model with an explicit failed status
    data = synth_generate(small_config())
    config = P1Config(runs=1, lambda1_grid=(0.1,), folds=60)
    table = run_p1(data, config, ["mt_lasso"], seed=0)
    row = table.cell("mt_lasso")
    assert row.status.startswith("failed:")
    assert row.mean is None
    csv_text = table.to_csv_text()
    assert "failed:" in csv_text


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_failing_model_keeps_the_other_cells(monkeypatch, jobs):
    # a fit that raises for one model fails only that model's row; the
    # other cells keep their results and, with one job, each runs once.
    # Pool workers are forked, so they inherit the patched fit.
    from crowdmtl import experiments

    real_fit, real_cell = experiments.fit, experiments._p1_cell

    def fit(spec, *args, **kwargs):
        if spec.kind == "mt_lasso":
            raise RuntimeError("planted failure")
        return real_fit(spec, *args, **kwargs)

    calls = Counter()

    def counted_cell(payload):
        calls[payload[3], payload[4]] += 1
        return real_cell(payload)

    monkeypatch.setattr(experiments, "fit", fit)
    if jobs == 1:
        monkeypatch.setattr(experiments, "_p1_cell", counted_cell)
    models = ["st_lasso", "mt_lasso", "l21_mtl"]
    config = P1Config(runs=2, lambda1_grid=(0.1,), folds=2)
    table = run_p1(synth_generate(small_config()), config, models, seed=0, jobs=jobs)
    val, evalset = p2_data()
    p2 = run_p2(
        val, evalset, models, config=P2Config(lambda1_grid=(0.1,), folds=2), jobs=jobs
    )
    for result in (table, p2):
        assert result.cell("mt_lasso").status == "failed:RuntimeError"
        assert result.cell("st_lasso").status == "ok"
        assert result.cell("l21_mtl").status == "ok"
    if jobs == 1:
        assert calls == {(m, run): 1 for m in models for run in range(2)}


@pytest.mark.parametrize("runs,jobs,pools", [(2, 64, [2]), (1, 64, []), (2, 1, [])])
def test_pool_starts_no_more_workers_than_cells(monkeypatch, runs, jobs, pools):
    # a pool forks all its workers up front: 64 jobs on 2 cells must start 2
    from crowdmtl import experiments

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    config = P1Config(runs=runs, lambda1_grid=(0.1,), folds=2)
    table = run_p1(synth_generate(small_config()), config, ["mt_lasso"], seed=0, jobs=jobs)
    assert started == pools
    assert table.cell("mt_lasso").status == "ok"


def test_protocols_assemble_one_design_per_fold(monkeypatch):
    # each cell builds one design per fold, scores the whole grid on it,
    # then one more for the refit; fits stay one per (fold, value) + refit
    from crowdmtl import experiments

    counts = Counter()
    real_assemble, real_fit = experiments.assemble_design, experiments.fit

    def assemble_design(*args, **kwargs):
        counts["assemble"] += 1
        return real_assemble(*args, **kwargs)

    def fit(*args, **kwargs):
        counts["fit"] += 1
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiments, "assemble_design", assemble_design)
    monkeypatch.setattr(experiments, "fit", fit)
    grid = (0.1, 1.0, 10.0)
    models = ["mt_lasso", "eg_mtl"]  # eg_mtl_7 joins: 10 experts > 7
    run_p1(
        synth_generate(small_config()),
        P1Config(runs=2, lambda1_grid=grid, folds=3),
        models,
        seed=0,
    )
    cells = 3 * 2
    assert counts == {"assemble": cells * (3 + 1), "fit": cells * (3 * 3 + 1)}
    counts.clear()
    val, evalset = p2_data()
    run_p2(val, evalset, models, config=P2Config(lambda1_grid=grid, folds=2))
    cells = 3
    assert counts == {"assemble": cells * (2 + 1), "fit": cells * (2 * 3 + 1)}


# run_p1 / run_p2 CSV text at a small config, taken from the version that
# rebuilt the design for every (fold, value); fold-major scoring must not
# move a single byte
GOLDEN_P1 = """\
model,attribute,feature_set,snippet_s,half,mean,sd,sparsity,status
st_lasso,arousal,synthetic,5,front,0.24874679890385015,0.00704197836551033,0.11111111111111112,ok
mt_lasso,arousal,synthetic,5,front,0.2733094984473087,0.013357469608390548,0.011111111111111112,ok
l21_mtl,arousal,synthetic,5,front,0.2719129236302502,0.011006493859669354,0.0,ok
dirty_mtl,arousal,synthetic,5,front,0.2717053208073149,0.01036768200378952,0.0,ok
robust_mtl,arousal,synthetic,5,front,0.2730943300578389,0.012233300182784075,0.0,ok
sr_mtl,arousal,synthetic,5,front,0.2747172906005452,0.012522622165639489,0.011111111111111112,ok
eg_mtl,arousal,synthetic,5,front,0.24563519245406332,0.010248363080651333,0.005555555555555556,ok
eg_mtl_7,arousal,synthetic,5,front,0.2522053450917474,0.02102818867808531,0.011111111111111112,ok
"""

GOLDEN_P2 = """\
model,attribute,feature_set,snippet_s,half,mean,sd,sparsity,status
st_lasso,arousal,annotations,,,0.5,,0.9104166666666667,ok
mt_lasso,arousal,annotations,,,0.625,,0.53125,ok
l21_mtl,arousal,annotations,,,0.625,,0.5,ok
dirty_mtl,arousal,annotations,,,0.5,,0.5,ok
robust_mtl,arousal,annotations,,,0.5,,0.5,ok
sr_mtl,arousal,annotations,,,0.5,,0.0,ok
eg_mtl,arousal,annotations,,,0.75,,0.7208333333333333,ok
eg_mtl_7,arousal,annotations,,,0.625,,0.73125,ok
"""


def test_protocol_results_golden():
    data = synth_generate(small_config())
    config = P1Config(runs=2, lambda1_grid=(0.1, 1.0, 10.0), folds=3)
    assert run_p1(data, config, list(MODEL_ORDER), seed=3).to_csv_text() == GOLDEN_P1
    val, evalset = p2_data()
    config = P2Config(lambda1_grid=(0.001, 0.01, 0.1), folds=2)
    table = run_p2(val, evalset, list(MODEL_ORDER), config=config, seed=3)
    assert table.to_csv_text() == GOLDEN_P2
