"""Assembly of the stacked learning problem.

Each movie clip is a task. Crowd samples stack into a feature matrix X
(N x D) and a one-hot label matrix Y (N x R*C) whose single 1 per row sits
at column (task-1)*C + class - 1. Expert samples form the analogous P, V
block. Related tasks are coupled through an edge-vertex incidence matrix E
whose rows carry +gamma / -gamma on the same-class columns of the two
tasks, so ||E W'||_F^2 penalizes disagreement between related weight
columns.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

FEATURE_KEY_COLUMNS = ("clip_id", "time_s")


@dataclass
class TaskDataset:
    """Per-task (per-clip) samples before stacking.

    Labels are either class indices in 1..C or continuous ratings awaiting
    discretization.
    """

    task_id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be 1-D with one entry per feature row")
        if self.features.shape[0] == 0:
            raise ValueError(f"task {self.task_id}: empty task")

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class TaskGraph:
    """Undirected weighted relations between tasks (1-based endpoints)."""

    edges: tuple = ()

    def __post_init__(self):
        seen = set()
        norm = []
        for edge in self.edges:
            i, j, gamma = int(edge[0]), int(edge[1]), float(edge[2])
            if i == j:
                raise ValueError(f"self edge ({i},{j}) not allowed")
            if gamma <= 0:
                raise ValueError(f"edge ({i},{j}) weight must be positive")
            undirected = (min(i, j), max(i, j))
            if undirected in seen:
                raise ValueError(f"duplicate edge between tasks {i} and {j}")
            seen.add(undirected)
            norm.append((i, j, gamma))
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def complete(cls, n_tasks: int, gamma: float = 1.0) -> "TaskGraph":
        """All clips related, the default coupling."""
        edges = [
            (i, j, gamma)
            for i in range(1, n_tasks + 1)
            for j in range(i + 1, n_tasks + 1)
        ]
        return cls(tuple(edges))

    @classmethod
    def from_groups(cls, groups, gamma: float = 1.0) -> "TaskGraph":
        """Cliques within each group of task indices (e.g. HA/LA clips)."""
        edges = []
        for group in groups:
            members = sorted(set(int(g) for g in group))
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    edges.append((members[a], members[b], gamma))
        return cls(tuple(edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_label_indicator(task: int, cls: int, n_tasks: int, n_classes: int) -> np.ndarray:
    """One-hot vector of length R*C with the 1 at (task-1)*C + cls - 1."""
    if not 1 <= task <= n_tasks:
        raise ValueError(f"task {task} out of range 1..{n_tasks}")
    if not 1 <= cls <= n_classes:
        raise ValueError(f"class {cls} out of range 1..{n_classes}")
    vec = np.zeros(n_tasks * n_classes)
    vec[(task - 1) * n_classes + (cls - 1)] = 1.0
    return vec


def level_midpoints(levels: int) -> np.ndarray:
    """Midpoints of `levels` uniform bins covering [-1, 1]."""
    return -1.0 + (2.0 / levels) * (np.arange(levels) + 0.5)


def discretize_levels(values, levels: int):
    """Map ratings in [-1, 1] to class indices 1..levels plus bin midpoints.

    Bins have width 2/levels; boundary values go to the higher bin except
    +1, which stays in the top bin.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    v = np.asarray(values, dtype=float)
    if v.size and (v.min() < -1.0 - 1e-9 or v.max() > 1.0 + 1e-9):
        raise ValueError("values must lie in [-1, 1]")
    scaled = (np.clip(v, -1.0, 1.0) + 1.0) * (levels / 2.0)
    idx = np.floor(scaled + 1e-9).astype(int)
    classes = np.minimum(idx, levels - 1) + 1
    return classes, level_midpoints(levels)


def stack_tasks(tasks, n_classes: int):
    """Row-concatenate task features and build the one-hot label matrix.

    Task order follows the input order; labels must already be class
    indices in 1..n_classes.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no tasks to stack")
    d = tasks[0].n_features
    for t in tasks:
        if t.n_features != d:
            raise ValueError(
                f"task {t.task_id}: feature dimension {t.n_features} != {d}"
            )
    n_tasks = len(tasks)
    x = np.vstack([t.features for t in tasks])
    rows = []
    for pos, t in enumerate(tasks, start=1):
        labels = np.asarray(t.labels)
        if not np.all(labels == labels.astype(int)):
            raise ValueError(f"task {t.task_id}: labels must be class indices")
        for cls in labels.astype(int):
            rows.append(build_label_indicator(pos, int(cls), n_tasks, n_classes))
    y = np.vstack(rows)
    return x, y


def build_incidence(graph: TaskGraph | None, n_tasks: int, n_classes: int) -> np.ndarray:
    """Expand task-level edges into the class-aligned incidence matrix.

    Each edge (i, j, gamma) yields one row per class c with +gamma at
    column (i-1)*C + c and -gamma at (j-1)*C + c, coupling like-class
    columns only.
    """
    rc = n_tasks * n_classes
    if graph is None or graph.n_edges == 0:
        return np.zeros((0, rc))
    rows = np.zeros((graph.n_edges * n_classes, rc))
    r = 0
    for i, j, gamma in graph.edges:
        if not 1 <= i <= n_tasks or not 1 <= j <= n_tasks:
            raise ValueError(f"edge ({i},{j}) endpoint out of range 1..{n_tasks}")
        for c in range(n_classes):
            rows[r, (i - 1) * n_classes + c] = gamma
            rows[r, (j - 1) * n_classes + c] = -gamma
            r += 1
    return rows


def build_reliability(n_rows: int, weights=None) -> np.ndarray:
    """Per-row reliability weights (the diagonal of U); identity by default."""
    if weights is None:
        return np.ones(n_rows)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size != n_rows:
        raise ValueError(f"need one weight per crowd row ({n_rows})")
    if np.any(weights <= 0):
        raise ValueError("reliability weights must be positive")
    return weights.copy()


def reliability_from_median(rows) -> np.ndarray:
    """Optional per-worker weights: 1 / (1 + RMSE to the panel median).

    `rows` is a raters x samples matrix of aligned annotations; workers far
    from the fused median get down-weighted. Off by default everywhere.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("need a raters x samples matrix")
    med = np.median(rows, axis=0)
    dist = np.sqrt(np.mean((rows - med) ** 2, axis=1))
    return 1.0 / (1.0 + dist)


@dataclass
class StackedDesign:
    """The assembled problem: crowd block, optional expert block, graph.

    U is the diagonal of the crowd reliability matrix, stored as a length-N
    vector. P and V are both present or both absent.
    """

    X: np.ndarray
    Y: np.ndarray
    U: np.ndarray
    E: np.ndarray
    n_tasks: int
    n_classes: int
    P: np.ndarray | None = None
    V: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.U = np.asarray(self.U, dtype=float)
        self.E = np.asarray(self.E, dtype=float)
        rc = self.n_tasks * self.n_classes
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be matrices")
        if self.Y.shape != (self.X.shape[0], rc):
            raise ValueError(f"Y must be {self.X.shape[0]} x {rc}")
        _check_one_hot(self.Y, "Y")
        if self.U.shape != (self.X.shape[0],):
            raise ValueError("U must hold one weight per crowd row")
        if np.any(self.U <= 0):
            raise ValueError("U entries must be positive")
        if self.E.ndim != 2 or self.E.shape[1] != rc:
            raise ValueError(f"E must have {rc} columns")
        for r in range(self.E.shape[0]):
            nz = np.nonzero(self.E[r])[0]
            if nz.size != 2 or self.E[r, nz[0]] != -self.E[r, nz[1]]:
                raise ValueError(f"E row {r} must hold exactly +gamma and -gamma")
        if (self.P is None) != (self.V is None):
            raise ValueError("P and V must be given together")
        if self.P is not None:
            self.P = np.asarray(self.P, dtype=float)
            self.V = np.asarray(self.V, dtype=float)
            if self.P.ndim != 2 or self.P.shape[1] != self.X.shape[1]:
                raise ValueError("P must share the feature dimension of X")
            if self.V.shape != (self.P.shape[0], rc):
                raise ValueError(f"V must be {self.P.shape[0]} x {rc}")
            _check_one_hot(self.V, "V")

    @property
    def n_crowd_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_expert_rows(self) -> int:
        return 0 if self.P is None else int(self.P.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        """(N, Ne, D, R, C)"""
        return (
            self.n_crowd_rows,
            self.n_expert_rows,
            self.n_features,
            self.n_tasks,
            self.n_classes,
        )

    def row_tasks(self) -> np.ndarray:
        """0-based task index of each crowd row, recovered from Y."""
        return np.argmax(self.Y, axis=1) // self.n_classes

    def summary(self) -> dict:
        n, ne, d, r, c = self.dims
        return {
            "n_crowd_rows": n,
            "n_expert_rows": ne,
            "n_features": d,
            "n_tasks": r,
            "n_classes": c,
            "n_edge_rows": int(self.E.shape[0]),
            "nnz_X": int(np.count_nonzero(self.X)),
            "nnz_Y": int(np.count_nonzero(self.Y)),
            "nnz_E": int(np.count_nonzero(self.E)),
        }


def _check_one_hot(m: np.ndarray, name: str) -> None:
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError(f"{name} entries must be 0 or 1")
    if not np.all(m.sum(axis=1) == 1.0):
        raise ValueError(f"every {name} row must contain exactly one 1")


def assemble_design(
    crowd_tasks,
    n_classes: int,
    expert_tasks=None,
    graph: TaskGraph | None = None,
    reliability=None,
) -> StackedDesign:
    """Stack crowd (and optional expert) tasks into a StackedDesign.

    Expert tasks are matched to crowd tasks by task_id, so their indicator
    columns land in the right block regardless of ordering.
    """
    crowd_tasks = list(crowd_tasks)
    x, y = stack_tasks(crowd_tasks, n_classes)
    n_tasks = len(crowd_tasks)
    u = build_reliability(x.shape[0], reliability)
    e = build_incidence(graph, n_tasks, n_classes)
    p = v = None
    if expert_tasks is not None:
        position = {t.task_id: i + 1 for i, t in enumerate(crowd_tasks)}
        feats, rows = [], []
        for t in expert_tasks:
            if t.task_id not in position:
                raise ValueError(f"expert task {t.task_id!r} has no crowd counterpart")
            if t.n_features != x.shape[1]:
                raise ValueError(
                    f"expert task {t.task_id}: feature dimension mismatch"
                )
            pos = position[t.task_id]
            labels = np.asarray(t.labels)
            if not np.all(labels == labels.astype(int)):
                raise ValueError(f"expert task {t.task_id}: labels must be classes")
            feats.append(t.features)
            for cls in labels.astype(int):
                rows.append(build_label_indicator(pos, int(cls), n_tasks, n_classes))
        if feats:
            p = np.vstack(feats)
            v = np.vstack(rows)
    return StackedDesign(
        X=x, Y=y, U=u, E=e, n_tasks=n_tasks, n_classes=n_classes, P=p, V=v
    )


def column_standardizer(x: np.ndarray):
    """Column means and stds from training rows; zero-spread columns keep scale 1."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std <= 1e-12, 1.0, std)
    return mean, std


def apply_standardizer(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) - mean) / std


def load_graph_json(path) -> TaskGraph:
    """Read {"edges": [{"i": .., "j": .., "gamma": ..}, ...]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    edges = payload.get("edges")
    if edges is None:
        raise DataError(f"{path}: missing 'edges' key")
    try:
        return TaskGraph(
            tuple((e["i"], e["j"], e.get("gamma", 1.0)) for e in edges)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad edge list: {exc}") from None


def save_graph_json(graph: TaskGraph, path) -> None:
    payload = {
        "edges": [{"i": i, "j": j, "gamma": g} for i, j, g in graph.edges]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_features_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read `clip_id,time_s,f1..fD` into {clip_id: (times, features)}.

    Rows are returned sorted by time within each clip.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header") from None
        if tuple(header[:2]) != FEATURE_KEY_COLUMNS or len(header) < 3:
            raise DataError(
                f"{path}: line 1: expected header clip_id,time_s,f1..fD"
            )
        n_feat = len(header) - 2
        per_clip: dict[str, list] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {lineno}: expected {len(header)} fields")
            clip = row[0].strip()
            try:
                t = float(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: cannot parse numeric fields"
                ) from None
            if not all(map(math.isfinite, (t, *feats))):
                raise DataError(f"{path}: line {lineno}: non-finite numeric field")
            per_clip.setdefault(clip, []).append((t, feats))
    out = {}
    for clip, rows in per_clip.items():
        rows.sort(key=lambda r: r[0])
        times = np.array([r[0] for r in rows])
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise DataError(f"{path}: clip {clip}: duplicate time_s values")
        out[clip] = (times, np.array([r[1] for r in rows]).reshape(-1, n_feat))
    return out


def load_labels_csv(path) -> dict[str, int]:
    """Read the static label CSV `clip_id,label` into {clip_id: class}."""
    out: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header") from None
        if header != ["clip_id", "label"]:
            raise DataError(f"{path}: line 1: expected header clip_id,label")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 fields")
            clip = row[0].strip()
            try:
                label = int(row[1])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: label must be an integer class"
                ) from None
            if clip in out:
                raise DataError(f"{path}: line {lineno}: duplicate clip {clip}")
            out[clip] = label
    return out
