"""Desk-scale reproduction of the two evaluation protocols.

P1: regress dynamic rating levels from per-second clip features. A
contiguous test snippet at a shared offset is held out of every clip, the
primary regularizer is cross-validated on the remaining time points, and
the level-decoded predictions are scored by RMSE against the evaluation
signal over several runs.

P2: classify static binary labels from per-rater windowed annotation
vectors, training on one clip set and evaluating on a disjoint one with a
per-clip majority vote.

Synthetic generators stand in for the unavailable annotation corpora; all
randomness flows from one master seed through named substreams.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .annotations import ATTRIBUTES, median_fuse
from .design import (
    TaskDataset,
    TaskGraph,
    apply_standardizer,
    assemble_design,
    column_standardizer,
    discretize_levels,
    level_midpoints,
)
from .solvers import (
    HYPERPARAMS,
    MODEL_KINDS,
    ModelSpec,
    SolverConfig,
    fit,
    predict,
    predict_transfer,
)

# the extra row EXPERT_SUBSET_ROW fits eg_mtl on a fixed subset of this many
# experts, drawn from the seed
EXPERT_SUBSET_SIZE = 7
EXPERT_SUBSET_ROW = f"eg_mtl_{EXPERT_SUBSET_SIZE}"
MODEL_ORDER = (*MODEL_KINDS, EXPERT_SUBSET_ROW)

# the protocol cross-validates one parameter per model and pins the rest
PRIMARY_PARAM = {
    "st_lasso": "alpha",
    "mt_lasso": "alpha",
    "l21_mtl": "alpha",
    "dirty_mtl": "rho1",
    "robust_mtl": "rho1",
    "sr_mtl": "beta",
    "eg_mtl": "lambda1",
}
SECONDARY_VALUE = 1.0

# P2 generator shape: the class pattern's amplitude and its length at the end
# of the window, the scales of each clip's drift and baseline shift, and the
# per-rater offset sds as fractions of each population's noise sd
P2_CLASS_AMP = 0.20
P2_MASK_LEN = 8
P2_WIGGLE = 0.3
P2_OFFSET = 0.3
P2_CROWD_BIAS_FRAC = 0.0
P2_EXPERT_BIAS_FRAC = 0.6


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Named child generator of the master seed; order-independent."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, *indices]))


def rmse(predicted, truth) -> float:
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError("predicted and truth must be equal-length vectors")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError("predicted and truth must be equal-length vectors")
    return float(np.mean(predicted == truth))


@dataclass(frozen=True)
class SynthConfig:
    """Planted-model generator settings (desk-scale data stand-in)."""

    seed: int = 0
    n_tasks: int = 4
    n_features: int = 8
    samples_per_task: int = 50
    n_crowd: int = 8
    n_expert: int = 16
    crowd_noise_sd: float = 0.5
    expert_noise_sd: float = 0.1
    sparsity_true: float = 0.5
    p2_clips_per_set: int = 20
    p2_eval_clips: int = 40
    p2_window_len: int = 50

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("crowd_noise_sd", "expert_noise_sd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.expert_noise_sd > self.crowd_noise_sd:
            raise ValueError("experts must be at least as consistent as the crowd")
        for name in (
            "n_tasks", "n_features", "samples_per_task", "n_crowd", "n_expert",
            "p2_clips_per_set", "p2_eval_clips", "p2_window_len",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.sparsity_true <= 1.0:
            raise ValueError("sparsity_true must lie in [0, 1]")


@dataclass
class P1Data:
    """Per-clip features, per-rater annotation matrices, evaluation signal."""

    clip_ids: list
    features: list  # each T x D
    crowd: list  # each n_crowd x T
    expert: list  # each n_expert x T, may be empty list
    truth: list  # each T, the signal test predictions are scored against
    w_true: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.clip_ids)
        if not (len(self.features) == len(self.crowd) == len(self.truth) == n):
            raise ValueError("per-clip lists must have equal length")
        if self.expert and len(self.expert) != n:
            raise ValueError("expert list must cover every clip when present")
        lengths = {f.shape[0] for f in self.features}
        if len(lengths) != 1:
            raise ValueError("all clips must share one timeline length")

    @property
    def n_timepoints(self) -> int:
        return int(self.features[0].shape[0])

    @property
    def n_expert_raters(self) -> int:
        return int(self.expert[0].shape[0]) if self.expert else 0


@dataclass
class P2Data:
    """Per-clip rater-row matrices plus static binary labels."""

    clip_ids: list
    crowd_rows: list  # each n_raters x window_len
    classes: list  # 1-based binary class per clip
    expert_rows: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.clip_ids)
        if not (len(self.crowd_rows) == len(self.classes) == n):
            raise ValueError("per-clip lists must have equal length")
        if self.expert_rows and len(self.expert_rows) != n:
            raise ValueError("expert rows must cover every clip when present")
        widths = {m.shape[1] for m in self.crowd_rows}
        if len(widths) != 1:
            raise ValueError("all clips must share one window length")

    @property
    def window_len(self) -> int:
        return int(self.crowd_rows[0].shape[1])


@dataclass(frozen=True)
class ProtocolConfig:
    """The attribute, grid, folds, penalties and solver settings both
    protocols select and fit with."""

    lambda1_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    folds: int = 5
    lambda2: float = 1.0
    lambda3: float = 1.0
    attribute: str = "arousal"
    feature_set: str = "annotations"
    max_iter: int = 2000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.attribute not in ATTRIBUTES:
            raise ValueError(f"attribute must be one of {', '.join(ATTRIBUTES)}")
        if not self.lambda1_grid:
            raise ValueError("empty hyperparameter grid")
        for value in self.lambda1_grid:
            # every model fits its primary parameter at each grid value, and
            # eg_mtl also lambda2 and lambda3: ModelSpec checks them all
            _model_spec("eg_mtl", value, self)
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        SolverConfig(max_iter=self.max_iter, rel_tol=self.rel_tol)  # checks both


@dataclass(frozen=True)
class P1Config(ProtocolConfig):
    """P1 adds the snippet split, the runs and the rating levels."""

    feature_set: str = "synthetic"
    snippet_s: int = 5
    half: str = "front"
    runs: int = 5
    level_count: int = 5

    def __post_init__(self):
        if self.snippet_s not in (5, 10, 15):
            raise ValueError("snippet_s must be one of 5, 10, 15")
        if self.half not in ("front", "back"):
            raise ValueError("half must be 'front' or 'back'")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.level_count < 2:
            raise ValueError("level_count must be >= 2")
        super().__post_init__()


class P2Config(ProtocolConfig):
    """P2 fits with the shared settings alone."""


@dataclass(frozen=True)
class ResultRow:
    model: str
    attribute: str
    feature_set: str
    snippet_s: int | None
    half: str | None
    mean: float | None
    sd: float | None
    sparsity: float | None
    status: str = "ok"


@dataclass
class ResultTable:
    rows: list

    CSV_HEADER = "model,attribute,feature_set,snippet_s,half,mean,sd,sparsity,status"

    @staticmethod
    def _fields(r: ResultRow, missing: str, formats) -> list:
        """The nine text fields of row `r`: `missing` for a value that is None,
        and the mean, sd and sparsity as floats in the three `formats`."""
        numbers = [None if v is None else float(v) for v in (r.mean, r.sd, r.sparsity)]
        specs = ("", "", *formats)
        cells = [
            missing if v is None else format(v, spec)
            for v, spec in zip([r.snippet_s, r.half, *numbers], specs)
        ]
        return [r.model, r.attribute, r.feature_set, *cells, r.status]

    def to_csv_text(self) -> str:
        """The header and rows, each field CSV-quoted where it needs to be."""
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(self.CSV_HEADER.split(","))
        writer.writerows(self._fields(r, "", ("", "", "")) for r in self.rows)
        return text.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_text(self) -> str:
        header = ["model", "attr", "features", "snip", "half", "mean", "sd", "sparsity", "status"]
        rows = [header] + [self._fields(r, "-", (".4f", ".4f", ".3f")) for r in self.rows]
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"

    def cell(self, model: str) -> ResultRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


def _rater_rows(rng, signal, n_raters: int, sd: float, offset_frac=None) -> np.ndarray:
    """`n_raters` noisy copies of `signal`, clipped to [-1, 1]: each rater
    adds Gaussian noise of sd `sd` and, with `offset_frac`, first a constant
    offset of sd offset_frac * sd, drawn before the noise."""
    if offset_frac is not None:
        signal = signal + offset_frac * sd * rng.standard_normal((n_raters, 1))
    noise = sd * rng.standard_normal((n_raters, signal.shape[-1]))
    return np.clip(signal + noise, -1.0, 1.0)


def synth_generate(config: SynthConfig) -> P1Data:
    """Plant a row-sparse linear model and sample noisy rater annotations.

    Features are i.i.d. standard normal; the true signal per clip is the
    clipped linear response; each rater observes the truth plus Gaussian
    noise, clipped to [-1, 1].
    """
    rng = substream(config.seed, "synth-p1")
    d, r = config.n_features, config.n_tasks
    w_true = rng.standard_normal((d, r))
    n_zero = int(round(config.sparsity_true * d))
    zero_rows = rng.permutation(d)[:n_zero]
    w_true[zero_rows, :] = 0.0
    # column scale 0.5 keeps the linear response mostly inside [-1, 1]
    norms = np.sqrt(np.sum(w_true * w_true, axis=0))
    w_true = w_true * np.where(norms > 0, 0.5 / np.where(norms > 0, norms, 1.0), 0.0)

    clip_ids, features, crowd, expert, truth = [], [], [], [], []
    for t in range(r):
        x = rng.standard_normal((config.samples_per_task, d))
        signal = np.clip(x @ w_true[:, t], -1.0, 1.0)
        crowd.append(_rater_rows(rng, signal, config.n_crowd, config.crowd_noise_sd))
        expert.append(_rater_rows(rng, signal, config.n_expert, config.expert_noise_sd))
        clip_ids.append(f"clip{t + 1:02d}")
        features.append(x)
        truth.append(signal)
    return P1Data(clip_ids, features, crowd, expert, truth, w_true)


def _smooth_profile(rng: np.random.Generator, length: int, scale: float) -> np.ndarray:
    """Low-frequency wiggle: smoothed random walk rescaled to `scale`."""
    steps = rng.standard_normal(length)
    walk = np.cumsum(steps)
    kernel = np.ones(7) / 7.0
    padded = np.concatenate([np.full(3, walk[0]), walk, np.full(3, walk[-1])])
    smooth = np.convolve(padded, kernel, mode="valid")
    spread = np.max(np.abs(smooth - smooth.mean()))
    if spread <= 0:
        return np.zeros(length)
    return scale * (smooth - smooth.mean()) / spread


def _synth_p2_set(
    config: SynthConfig,
    rng: np.random.Generator,
    prefix: str,
    n_clips: int,
    with_experts: bool,
) -> P2Data:
    win = config.p2_window_len
    mask = np.zeros(win)
    mask[-min(P2_MASK_LEN, win) :] = 1.0  # class signal sits late in the window
    clip_ids, crowd_rows, expert_rows, classes = [], [], [], []
    for t in range(n_clips):
        cls = 1 + (t % 2)
        sign = -1.0 if cls == 1 else 1.0
        # clip-specific drift and baseline shift confound the class pattern
        shift = rng.uniform(-P2_OFFSET, P2_OFFSET)
        profile = np.clip(
            sign * P2_CLASS_AMP * mask
            + _smooth_profile(rng, win, P2_WIGGLE)
            + shift,
            -1.0,
            1.0,
        )
        # the crowd offset is scaled to zero but still drawn: it keeps the synth bytes
        crowd_rows.append(
            _rater_rows(rng, profile, config.n_crowd, config.crowd_noise_sd, P2_CROWD_BIAS_FRAC)
        )
        if with_experts:
            expert_rows.append(
                _rater_rows(
                    rng, profile, config.n_expert, config.expert_noise_sd, P2_EXPERT_BIAS_FRAC
                )
            )
        clip_ids.append(f"{prefix}{t + 1:02d}")
        classes.append(cls)
    return P2Data(clip_ids, crowd_rows, classes, expert_rows)


def synth_generate_p2(config: SynthConfig):
    """Planted binary-class annotation sets: (val with experts, eval crowd-only)."""
    val = _synth_p2_set(
        config,
        substream(config.seed, "synth-p2-val"),
        "val",
        config.p2_clips_per_set,
        True,
    )
    evalset = _synth_p2_set(
        config,
        substream(config.seed, "synth-p2-eval"),
        "eval",
        config.p2_eval_clips,
        False,
    )
    return val, evalset


def snippet_offsets(n_samples: int, snippet_s: int, half: str) -> tuple:
    """The first and last offset at which a `snippet_s` window lies inside
    the chosen half of an `n_samples` timeline; ValueError if none does."""
    if half not in ("front", "back"):
        raise ValueError("half must be 'front' or 'back'")
    span = int(snippet_s)
    if span < 1:
        raise ValueError("snippet is shorter than one sample")
    boundary = n_samples // 2
    if half == "front":
        lo, hi = 0, boundary - span
    else:
        lo, hi = boundary, n_samples - span
    if hi < lo:
        raise ValueError(
            f"{snippet_s} s snippet does not fit in the {half} half of {n_samples} samples"
        )
    return lo, hi


def extract_snippets(n_samples: int, snippet_s: int, half: str, rng):
    """Hold out one contiguous test window of an `n_samples` timeline.

    The window's offset is drawn from the generator `rng`, uniformly inside
    the chosen half; train indices are the complement.
    """
    lo, hi = snippet_offsets(n_samples, snippet_s, half)
    offset = int(lo + rng.integers(0, hi - lo + 1))
    test_idx = np.arange(offset, offset + int(snippet_s))
    train_idx = np.setdiff1d(np.arange(n_samples), test_idx)
    return train_idx, test_idx


def contiguous_folds(indices, folds: int):
    """Split an index vector into `folds` contiguous chunks.

    Returns one (fit_idx, val_idx) pair per fold: chunk f is fold f's
    validation set, and the other chunks, in order, are its fit set.
    """
    indices = np.asarray(indices)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if indices.size < folds:
        raise ValueError("more folds than rows")
    chunks = np.array_split(indices, folds)
    return [
        (np.concatenate(chunks[:f] + chunks[f + 1 :]), chunks[f]) for f in range(folds)
    ]


def crossval_lambda1(score_fold, grid, train_idx, folds: int, maximize: bool = False):
    """Pick the grid value with the best mean validation score.

    `score_fold(fit_idx, val_idx)` prepares one fold of `train_idx` and
    returns a function mapping a grid value to the fold's score (RMSE or
    accuracy), so a fold's design is built once for the whole grid. Ties go
    to the smaller value.
    """
    values = sorted(float(g) for g in grid)
    per_fold = []
    for fit_idx, val_idx in contiguous_folds(train_idx, folds):
        score = score_fold(fit_idx, val_idx)
        per_fold.append([score(value) for value in values])
        del score  # drop this fold's design before the next fold builds its own
    means = [float(np.mean(scores)) for scores in zip(*per_fold)]
    sign = -1.0 if maximize else 1.0
    # min keeps the first of equal keys, and values are sorted
    return min(zip(values, means), key=lambda pair: sign * pair[1])[0]


def _model_spec(kind: str, primary_value: float, config) -> ModelSpec:
    params = {}
    for name in HYPERPARAMS[kind]:
        if name == PRIMARY_PARAM[kind]:
            params[name] = float(primary_value)
        elif kind == "st_lasso":
            params[name] = 0.0  # plain single-task Lasso carries no ridge
        elif kind == "eg_mtl" and name == "lambda2":
            params[name] = float(config.lambda2)
        elif kind == "eg_mtl" and name == "lambda3":
            params[name] = float(config.lambda3)
        else:
            params[name] = SECONDARY_VALUE
    return ModelSpec(kind, params)


def _select_and_fit(kind, config, train, test, scope, build, score, maximize):
    """Cross-validate the primary parameter on `train`, then refit on all of it.

    `build(fit_idx, held_idx)` returns (design, held): the design on the
    rows or clips `fit_idx` and the inputs of the held-out `held_idx`,
    standardized as the design is; `held_idx` None names the protocol's
    evaluation set. `score(result, held, held_idx)` scores a fit on them.
    Each fold's design is built once per `scope` and index pair, kept in the
    memo (`_shared`) for every model of the scope, and scored at every grid
    value. Each cell fits a shallow copy of the design: the arrays are
    shared, and the Gram parts its fits compute and cache (st_lasso's task
    blocks alone are R x D x D) go with the cell instead of staying in the
    memo. Returns (result, held, chosen value) of the refit, held out on
    `test`.
    """
    solver = SolverConfig(max_iter=config.max_iter, rel_tol=config.rel_tol)

    def fit_at(value, design):
        return fit(_model_spec(kind, value, config), design, solver)

    def prepare(fit_idx, held_idx):
        key = (fit_idx.tobytes(), None if held_idx is None else held_idx.tobytes())
        design, held = _shared(scope, key, lambda: build(fit_idx, held_idx))
        return copy.copy(design), held

    def score_fold(fit_idx, held_idx):
        design, held = prepare(fit_idx, held_idx)
        return lambda value: score(fit_at(value, design), held, held_idx)

    best = crossval_lambda1(score_fold, config.lambda1_grid, train, config.folds, maximize)
    design, held = prepare(train, test)
    return fit_at(best, design), held, best


def standardized_design(crowd, n_classes: int, expert, graph, held=()):
    """Assemble on `graph`, then standardize on the crowd rows.

    `crowd` and `expert` list TaskDatasets; the expert rows and the feature
    matrices `held` take the crowd standardizer, and `expert` None leaves
    the design without an expert block. Returns (design, standardized held).
    """
    design = assemble_design(crowd, n_classes, expert_tasks=expert, graph=graph)
    mean, std = column_standardizer(design.X)
    p = None if design.P is None else apply_standardizer(design.P, mean, std)
    design = replace(design, X=apply_standardizer(design.X, mean, std), P=p)
    return design, [apply_standardizer(x, mean, std) for x in held]


def _cell_kind(model_name: str) -> str:
    """The model kind of a result row."""
    return "eg_mtl" if model_name == EXPERT_SUBSET_ROW else model_name


def _pick(matrix, raters):
    """The rows of `matrix` of the experts `raters`, or all rows for None."""
    return matrix if raters is None else matrix[list(raters)]


# what every model of one protocol run repeats, {scope: {key: value}}, kept
# by `_shared`. Module-level, so a forked pool worker keeps it across the
# payloads it runs.
_SHARED: dict = {}


def _shared(scope, key, build):
    """build() for `key`, built on its first request under `scope`, a (run,
    expert set). A request under a new scope empties the memo first, so one
    run's one expert set is held at a time."""
    if scope not in _SHARED:
        _SHARED.clear()
    entries = _SHARED.setdefault(scope, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def _attempt(cell_fn, payload):
    try:
        return cell_fn(payload)
    except Exception as exc:  # the cell's row reports it; other cells go on
        return exc


def _run_protocol(cell_fn, data, config, models, n_expert: int, runs: int, context,
                  summarize, seed: int, jobs: int) -> ResultTable:
    """Run `cell_fn` once per (model, run) and tabulate one row per model.

    Rows follow MODEL_ORDER; eg_mtl brings EXPERT_SUBSET_ROW when the data
    has more experts than the subset, which is drawn from `seed`. Each cell
    gets the payload (data, config, seed, model, run, expert set) and
    returns (model, run, score, sparsity, chosen value); the expert set is
    the subset for EXPERT_SUBSET_ROW and None, all experts, for every other
    model, whose design carries the expert block whether it fits it or not.
    A model's row is (mean, sd, sparsity) = `summarize` of its cells'
    results, or failed:<exception name> if one of them raised; `context` is
    (attribute, feature_set, snippet_s, half).

    Payloads run run-major, so the models of one run and expert set follow
    one another, and each process keeps what they repeat in the memo
    `_SHARED` (see `_shared`): P1's fused signals, and each fold's and the
    refit's design with its standardized held-out rows. A new run or expert
    set drops the entries of the old one. The memo is emptied as this call
    starts and again as it ends, raise or return, so it never serves another
    call's data or settings; forked pool workers inherit it empty.
    """
    for name in models:
        if name not in MODEL_ORDER:
            raise ValueError(f"unknown model {name!r}")
    names = [name for name in MODEL_ORDER if name in models]
    if "eg_mtl" in names and EXPERT_SUBSET_ROW not in names and n_expert > EXPERT_SUBSET_SIZE:
        names.append(EXPERT_SUBSET_ROW)
    if n_expert == 0 and any(n.startswith("eg_mtl") for n in names):
        raise ValueError("eg_mtl requested but the data has no expert annotations")
    if EXPERT_SUBSET_ROW in names and n_expert <= EXPERT_SUBSET_SIZE:
        raise ValueError(
            f"{EXPERT_SUBSET_ROW} needs more than {EXPERT_SUBSET_SIZE} experts; "
            f"the data has {n_expert}"
        )
    rng = substream(seed, "expert-subset")
    subset = tuple(int(i) for i in rng.permutation(n_expert)[:EXPERT_SUBSET_SIZE])
    payloads = [
        (data, config, seed, name, run, subset if name == EXPERT_SUBSET_ROW else None)
        for run in range(runs)
        for name in names
    ]
    attempt = functools.partial(_attempt, cell_fn)
    workers = min(jobs, len(payloads))  # a pool starts all its workers up front
    _SHARED.clear()
    try:
        if workers <= 1:
            results = [attempt(p) for p in payloads]
        else:
            from concurrent.futures import ProcessPoolExecutor  # only a pool run loads it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(attempt, payloads))
    finally:
        _SHARED.clear()
    cells, failures = {}, {}
    for payload, result in zip(payloads, results):
        if isinstance(result, Exception):
            failures[payload[3]] = type(result).__name__
        else:
            cells.setdefault(payload[3], []).append(result)
    rows = []
    for name in names:
        if name in failures or name not in cells:
            status = f"failed:{failures.get(name, 'missing')}"
            rows.append(ResultRow(name, *context, None, None, None, status=status))
        else:
            rows.append(ResultRow(name, *context, *summarize(cells[name])))
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# P1


def _p1_predict(config, result, held):
    """Level-decoded predictions of each clip's standardized rows `held`,
    pooled over clips."""
    midpoints = level_midpoints(config.level_count)
    return np.concatenate([
        predict(result.W, z, pos, config.level_count, mode="level", midpoints=midpoints)
        for pos, z in enumerate(held, start=1)
    ])


def _p1_cell(payload):
    """One (model, run) cell: snippet draw, cross-validation, fit, test RMSE."""
    data, config, master_seed, model_name, run_idx, raters = payload
    scope = (run_idx, raters)
    rng = substream(master_seed, "snippets", run_idx)
    train_idx, test_idx = extract_snippets(data.n_timepoints, config.snippet_s, config.half, rng)

    def fuse():
        crowd = [median_fuse(list(mat)) for mat in data.crowd]
        expert = [median_fuse(list(_pick(mat, raters))) for mat in data.expert]
        return crowd, expert or None

    fused_crowd, fused_expert = _shared(scope, "signals", fuse)
    level = config.level_count

    def build(fit_idx, held_idx):
        feats = [f[fit_idx] for f in data.features]

        def block(signals):
            return [
                TaskDataset(cid, x, discretize_levels(sig[fit_idx], level)[0])
                for cid, x, sig in zip(data.clip_ids, feats, signals)
            ]

        expert = None if fused_expert is None else block(fused_expert)
        graph = TaskGraph.complete(len(data.clip_ids))
        held = [f[held_idx] for f in data.features]
        return standardized_design(block(fused_crowd), level, expert, graph, held)

    def score(result, held, val_idx):
        preds = _p1_predict(config, result, held)
        return rmse(preds, np.concatenate([sig[val_idx] for sig in fused_crowd]))

    result, held, best = _select_and_fit(
        _cell_kind(model_name), config, train_idx, test_idx, scope, build, score, maximize=False
    )
    preds = _p1_predict(config, result, held)
    target = np.concatenate([sig[test_idx] for sig in data.truth])
    return model_name, run_idx, rmse(preds, target), result.sparsity, best


def _p1_summary(cells):
    """RMSE mean and sd over runs, and mean sparsity, of one model's cells."""
    errs = np.array([c[2] for c in cells])
    spars = np.array([c[3] for c in cells])
    sd = float(errs.std(ddof=1)) if errs.size > 1 else 0.0
    return float(errs.mean()), sd, float(spars.mean())


def run_p1(data: P1Data, config: P1Config, models, seed: int = 0, jobs: int = 1) -> ResultTable:
    """RMSE mean +- sd over runs per model, at one snippet/half condition."""
    context = (config.attribute, config.feature_set, config.snippet_s, config.half)
    return _run_protocol(
        _p1_cell, data, config, models, data.n_expert_raters, config.runs, context,
        _p1_summary, seed, jobs,
    )


# ---------------------------------------------------------------------------
# P2


def majority_vote(row_classes, row_scores):
    """Per-clip decision: majority over rater rows, ties to the class with
    the higher summed score."""
    row_classes = np.asarray(row_classes)
    counts = np.bincount(row_classes, minlength=3)[1:]
    top = counts.max()
    tied = np.nonzero(counts == top)[0] + 1
    if tied.size == 1:
        return int(tied[0])
    sums = np.asarray(row_scores).sum(axis=0)
    tied_scores = [(sums[cls - 1], -cls) for cls in tied]
    return int(-max(tied_scores)[1])


def _p2_cell(payload):
    """One model's P2 cell: cross-validate, refit, evaluate on the held set.

    Folds hold out contiguous blocks of clips, so validation measures the
    same clip-level transfer the final evaluation performs (held-out rows
    are scored per row, not per clip, for resolution).
    """
    (val, evalset), config, _, model_name, run_idx, raters = payload
    expert_rows = [_pick(rows, raters) for rows in val.expert_rows] or None

    def block(matrices, clips):
        return [
            TaskDataset(val.clip_ids[i], matrices[i], np.full(len(matrices[i]), val.classes[i]))
            for i in clips
        ]

    def build(clips, held_clips):
        expert = None if expert_rows is None else block(expert_rows, clips)
        graph = TaskGraph.complete(len(clips))
        held = evalset.crowd_rows if held_clips is None else [val.crowd_rows[i] for i in held_clips]
        return standardized_design(block(val.crowd_rows, clips), 2, expert, graph, held)

    def score(result, held, held_clips):
        preds = [predict_transfer(result.W, z, 2)[0] for z in held]
        truths = [np.full(p.size, val.classes[i]) for p, i in zip(preds, held_clips)]
        return accuracy(np.concatenate(preds), np.concatenate(truths))

    result, held, best = _select_and_fit(
        _cell_kind(model_name), config, np.arange(len(val.clip_ids)), None, (run_idx, raters),
        build, score, maximize=True,
    )
    votes = [
        majority_vote(*predict_transfer(result.W, z, 2)) == cls
        for z, cls in zip(held, evalset.classes)
    ]
    return model_name, run_idx, float(np.mean(votes)), result.sparsity, best


def run_p2(
    val: P2Data,
    evalset: P2Data,
    models,
    config: P2Config | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> ResultTable:
    """Static binary recognition accuracy on the evaluation set per model."""
    if config is None:
        config = P2Config()
    if evalset.window_len != val.window_len:
        raise ValueError("window length mismatch between Val and Eval sets")
    n_expert = val.expert_rows[0].shape[0] if val.expert_rows else 0
    context = (config.attribute, config.feature_set, None, None)
    return _run_protocol(
        _p2_cell, (val, evalset), config, models, n_expert, 1, context,
        lambda cells: (cells[0][2], None, cells[0][3]), seed, jobs,
    )
