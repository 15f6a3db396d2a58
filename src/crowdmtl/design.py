"""Assembly of the stacked learning problem.

Each movie clip is a task. Crowd samples stack into a feature matrix X
(N x D) and, per row, the 0-based label column (task-1)*C + class-1 of the
one-hot label matrix Y (N x R*C). Expert samples form the analogous P block
with its own label columns. Related tasks are coupled through the task
Laplacian L_R, whose edge (i, j, gamma) adds gamma^2 to L_ii and L_jj and
-gamma^2 to L_ij and L_ji. It is the Gram matrix of the class-aligned
incidence matrix E, E'E = L_R (x) I_C, so ||E W'||_F^2 penalizes
disagreement between like-class weight columns of related tasks. Y, V and E
are built only on request, as oracles for small designs.

A TaskGraph holds its edges as arrays (endpoints i and j, weights gamma),
checked, scattered into L_R and expanded into E on whole columns; no step
loops over the edges in Python. The complete graph is built from
`np.triu_indices` with int32 endpoints and one broadcast weight, so at
R = 2000 its two million edges take 16 MB. A design stores no L_R: it
records only whether its graph is complete with one weight
(`complete_gamma`), which the solver applies in closed form, and L_R is
built from the edges for any other graph.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .annotations import data_rows, parse_numbers, read_header
from .errors import DataError

LABEL_COLUMNS = ("clip_id", "label")
FUSED_COLUMNS = ("clip_id", "rater_kind", "attribute", "time_s", "value")


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


class TaskGraph:
    """Undirected weighted relations between tasks, held as three read-only
    arrays of one entry per edge: 1-based endpoints `i` and `j` and weights
    `gamma`.

    `edges` is a sequence of (i, j, gamma) triples of numbers. They are
    checked on whole columns, and the first bad edge in input order raises
    ValueError: a non-integer endpoint or one beyond int64, a self edge, a
    weight that is not positive and finite or whose square is not finite, or
    a pair of tasks already joined, in either order.
    """

    def __init__(self, edges=()):
        table = np.array(edges, dtype=float)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError("edges must be (i, j, gamma) triples")
        self._keep(*table.T)

    def _keep(self, i, j, gamma, distinct=False) -> None:
        """Check the columns and keep them: endpoints as integers, weights as
        floats. `distinct` says that no two edges join the same pair."""
        whole = [
            np.isfinite(e) & (e == np.floor(e)) if e.dtype.kind == "f" else np.ones(e.shape, bool)
            for e in (i, j)
        ]
        wide = [np.abs(e) >= 2.0**63 for e in (i, j)]  # whole, but would wrap in int64
        ends = [
            np.where(w & ~x, e, 0).astype(np.int64) if e.dtype.kind == "f" else e
            for w, x, e in zip(whole, wide, (i, j))
        ]
        repeated = np.zeros(gamma.shape, dtype=bool)
        if not distinct and gamma.size > 1:
            lo, hi = np.minimum(*ends), np.maximum(*ends)
            order = np.lexsort((hi, lo))  # stable: the first edge of a pair sorts first
            same = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
            repeated[order[1:][same]] = True
        checks = (
            ~whole[0],
            ~whole[1],
            *wide,
            ends[0] == ends[1],
            ~(np.isfinite(gamma) & (gamma > 0)),
            gamma > np.sqrt(np.finfo(float).max),  # the largest gamma with a finite gamma^2
            repeated,
        )
        bad = np.logical_or.reduce(checks)
        if bad.any():
            e = int(np.argmax(bad))
            a, b = int(ends[0][e]), int(ends[1][e])
            ends_text = [repr(float(end[e])) for end in (i, j)]
            messages = (
                *(f"edge endpoint {text} is not an integer" for text in ends_text),
                *(f"edge endpoint {text} is out of range" for text in ends_text),
                f"self edge ({a},{b}) not allowed",
                f"edge ({a},{b}) weight must be positive and finite",
                f"edge ({a},{b}) weight {float(gamma[e])!r} has no finite square",
                f"duplicate edge between tasks {a} and {b}",
            )
            raise ValueError(next(m for m, check in zip(messages, checks) if check[e]))
        self.i, self.j, self.gamma = (*ends, np.asarray(gamma, dtype=float))
        for column in (self.i, self.j, self.gamma):
            column.flags.writeable = False

    @classmethod
    def complete(cls, n_tasks: int, gamma: float = 1.0) -> "TaskGraph":
        """All clips related, the default coupling: every pair in row-major
        order, int32 endpoints and the one weight broadcast over the edges."""
        i, j = (e.astype(np.int32) + 1 for e in np.triu_indices(n_tasks, 1))
        graph = cls.__new__(cls)
        graph._keep(i, j, np.broadcast_to(float(gamma), i.shape), distinct=True)
        return graph

    @property
    def edges(self) -> tuple:
        """The (i, j, gamma) tuples of Python numbers, built on each read."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.gamma.tolist()))

    @property
    def n_edges(self) -> int:
        return int(self.i.size)

    def check_endpoints(self, n_tasks: int) -> None:
        """Raise ValueError unless every edge joins two of tasks 1..n_tasks."""
        out = (np.minimum(self.i, self.j) < 1) | (np.maximum(self.i, self.j) > n_tasks)
        if out.any():
            e = int(np.argmax(out))
            raise ValueError(f"edge ({self.i[e]},{self.j[e]}) endpoint out of range 1..{n_tasks}")

    def laplacian(self, n_tasks: int) -> np.ndarray:
        """R x R Laplacian with edge weights gamma^2: E'E = L (x) I_C. One
        scatter per orientation sets the off-diagonal entries, and each
        diagonal entry is minus its row's sum."""
        self.check_endpoints(n_tasks)
        lap = np.zeros((n_tasks, n_tasks))
        weight = -(self.gamma * self.gamma)
        lap[self.i - 1, self.j - 1] = weight
        lap[self.j - 1, self.i - 1] = weight
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def complete_weight(self, n_tasks: int) -> float | None:
        """gamma when the graph joins every pair of tasks 1..n_tasks with the
        one weight gamma, else None. Self edges and repeated pairs are
        rejected, so R(R-1)/2 edges within 1..R are every pair."""
        self.check_endpoints(n_tasks)
        g = self.gamma
        if not g.size or g.size != n_tasks * (n_tasks - 1) // 2 or not (g == g[0]).all():
            return None
        return float(g[0])


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


def _stack_block(tasks, positions, n_classes: int, d=None, who: str = "task"):
    """Row-stack task features and each row's 0-based label column.

    `positions[k]` is the 1-based task of `tasks[k]`; a row of class c in
    task t has label column (t-1)*C + c-1. Features must have d columns,
    those of the first task by default.
    """
    if not tasks:
        raise ValueError("no tasks to stack")
    d = tasks[0].n_features if d is None else d
    feats, cols = [], []
    for t, pos in zip(tasks, positions):
        if t.n_features != d:
            raise ValueError(f"{who} {t.task_id}: feature dimension {t.n_features} != {d}")
        labels = np.asarray(t.labels)
        classes = labels.astype(int)
        if not np.all(labels == classes):
            raise ValueError(f"{who} {t.task_id}: labels must be class indices")
        if classes.min() < 1 or classes.max() > n_classes:
            raise ValueError(f"{who} {t.task_id}: class out of range 1..{n_classes}")
        feats.append(t.features)
        cols.append((pos - 1) * n_classes + classes - 1)
    return np.vstack(feats), np.concatenate(cols)


def _label_sum(m: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """M'Y for the one-hot Y whose row n has its 1 in column cols[n]."""
    d = m.shape[1]
    bins = (cols[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=m.ravel(), minlength=n_cols * d)
    return np.ascontiguousarray(sums.reshape(n_cols, d).T)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _one_hot(cols: np.ndarray, n_cols: int) -> np.ndarray:
    out = np.zeros((cols.size, n_cols))
    out[np.arange(cols.size), cols] = 1.0
    return out


def stack_tasks(tasks, n_classes: int):
    """Row-concatenate task features and build the one-hot label matrix.

    Task order follows the input order; labels must already be class
    indices in 1..n_classes.
    """
    tasks = list(tasks)
    x, cols = _stack_block(tasks, range(1, len(tasks) + 1), n_classes)
    return x, _one_hot(cols, len(tasks) * n_classes)


def build_incidence(graph: TaskGraph | None, n_tasks: int, n_classes: int) -> np.ndarray:
    """Expand task-level edges into the class-aligned incidence matrix.

    Each edge (i, j, gamma) yields one row per class c with +gamma at
    column (i-1)*C + c and -gamma at (j-1)*C + c, coupling like-class
    columns only.
    """
    graph = graph or TaskGraph()
    graph.check_endpoints(n_tasks)
    task_rows = np.zeros((graph.n_edges, n_tasks))
    rows = np.arange(graph.n_edges)
    task_rows[rows, graph.i - 1] = graph.gamma
    task_rows[rows, graph.j - 1] = -graph.gamma
    return np.kron(task_rows, np.eye(n_classes))


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


@dataclass(frozen=True)
class StackedDesign:
    """The assembled problem: crowd block, optional expert block, graph.

    `y_cols` and `v_cols` hold the 0-based label column of each crowd and
    expert row; U is the diagonal of the crowd reliability matrix, stored
    as a length-N vector. P and v_cols are both present or both absent.
    `complete_gamma` is gamma when `graph` joins every pair of tasks with
    the one weight gamma, else None.

    A design is frozen: a changed one is made with `dataclasses.replace`,
    which checks it again. `crowd_gram`, `expert_gram` and `task_grams` are
    the quadratic parts every model fitted on the design shares, each
    computed on first use and kept read-only. Arrays changed in place are
    not noticed.
    """

    X: np.ndarray
    y_cols: np.ndarray
    U: np.ndarray
    graph: TaskGraph | None
    n_tasks: int
    n_classes: int
    P: np.ndarray | None = None
    v_cols: np.ndarray | None = None
    complete_gamma: float | None = field(init=False, repr=False)

    def __post_init__(self):
        keep = partial(object.__setattr__, self)  # a frozen field is set here only
        keep("X", np.asarray(self.X, dtype=float))
        keep("U", np.asarray(self.U, dtype=float))
        if self.X.ndim != 2:
            raise ValueError("X must be a matrix")
        rc = self.n_tasks * self.n_classes
        keep("y_cols", _label_columns(self.y_cols, self.X.shape[0], rc, "y_cols"))
        if self.U.shape != (self.X.shape[0],):
            raise ValueError("U must hold one weight per crowd row")
        if np.any(self.U <= 0):
            raise ValueError("U entries must be positive")
        if (self.P is None) != (self.v_cols is None):
            raise ValueError("P and v_cols must be given together")
        if self.P is not None:
            keep("P", np.asarray(self.P, dtype=float))
            if self.P.ndim != 2 or self.P.shape[1] != self.X.shape[1]:
                raise ValueError("P must share the feature dimension of X")
            keep("v_cols", _label_columns(self.v_cols, self.P.shape[0], rc, "v_cols"))
        keep("complete_gamma", (self.graph or TaskGraph()).complete_weight(self.n_tasks))

    @cached_property
    def crowd_gram(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(X'UX, X'UY, 0.5 sum U), the crowd loss's quadratic parts.

        Y is one-hot, so X'UY is a scatter-add of the rows of UX into their
        label columns and 0.5 sum U Y^2 = 0.5 sum U.
        """
        ux = self.U[:, None] * self.X
        c = _label_sum(ux, self.y_cols, self.n_tasks * self.n_classes)
        return _read_only(self.X.T @ ux), _read_only(c), 0.5 * float(np.sum(self.U))

    @cached_property
    def expert_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(P'P, P'V), the expert loss's quadratic parts."""
        c = _label_sum(self.P, self.v_cols, self.n_tasks * self.n_classes)
        return _read_only(self.P.T @ self.P), _read_only(c)

    @cached_property
    def task_grams(self) -> np.ndarray:
        """R x D x D: block t is X_t'U_t X_t over task t's crowd rows only."""
        ux = self.U[:, None] * self.X
        rows = self.row_tasks()
        return _read_only(
            np.stack([self.X[rows == t].T @ ux[rows == t] for t in range(self.n_tasks)])
        )

    @property
    def Y(self) -> np.ndarray:
        """Dense one-hot crowd labels (N x R*C), built on each read."""
        return _one_hot(self.y_cols, self.n_tasks * self.n_classes)

    @property
    def V(self) -> np.ndarray | None:
        """Dense one-hot expert labels (Ne x R*C), built on each read; None
        without an expert block."""
        if self.v_cols is None:
            return None
        return _one_hot(self.v_cols, self.n_tasks * self.n_classes)

    @property
    def E(self) -> np.ndarray:
        """Dense class-aligned incidence matrix, built on each read."""
        return build_incidence(self.graph, self.n_tasks, self.n_classes)

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
        """0-based task index of each crowd row."""
        return self.y_cols // self.n_classes

    def summary(self) -> dict:
        n, ne, d, r, c = self.dims
        edges = 0 if self.graph is None else self.graph.n_edges
        return {
            "n_crowd_rows": n,
            "n_expert_rows": ne,
            "n_features": d,
            "n_tasks": r,
            "n_classes": c,
            "n_edge_rows": c * edges,
            "nnz_X": int(np.count_nonzero(self.X)),
            "nnz_Y": n,
            "nnz_E": 2 * c * edges,
        }


def _label_columns(cols, n_rows: int, n_cols: int, name: str) -> np.ndarray:
    cols = np.asarray(cols)
    if cols.shape != (n_rows,) or not np.issubdtype(cols.dtype, np.integer):
        raise ValueError(f"{name} must hold one integer label column per row")
    if n_rows and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"{name} entries must lie in 0..{n_cols - 1}")
    return cols


def assemble_design(
    crowd_tasks,
    n_classes: int,
    expert_tasks=None,
    graph: TaskGraph | None = None,
    reliability=None,
) -> StackedDesign:
    """Stack crowd (and optional expert) tasks into a StackedDesign.

    Expert tasks are matched to crowd tasks by task_id, so their label
    columns land in the right block regardless of ordering.
    """
    crowd_tasks = list(crowd_tasks)
    n_tasks = len(crowd_tasks)
    x, y_cols = _stack_block(crowd_tasks, range(1, n_tasks + 1), n_classes)
    u = build_reliability(x.shape[0], reliability)
    p = v_cols = None
    expert_tasks = list(expert_tasks or ())
    if expert_tasks:
        position = {t.task_id: i + 1 for i, t in enumerate(crowd_tasks)}
        for t in expert_tasks:
            if t.task_id not in position:
                raise ValueError(f"expert task {t.task_id!r} has no crowd counterpart")
        positions = [position[t.task_id] for t in expert_tasks]
        p, v_cols = _stack_block(
            expert_tasks, positions, n_classes, x.shape[1], "expert task"
        )
    return StackedDesign(
        X=x, y_cols=y_cols, U=u, graph=graph, n_tasks=n_tasks, n_classes=n_classes,
        P=p, v_cols=v_cols,
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


def _edge_numbers(edge) -> tuple:
    """(i, j, gamma) of one JSON edge, gamma 1 when absent; TypeError for a
    field that is not a JSON number (a string, a boolean, null, ...)."""
    fields = {"i": edge["i"], "j": edge["j"], "gamma": edge.get("gamma", 1.0)}
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"edge field {name!r} is {json.dumps(value)}, not a number")
    return tuple(fields.values())


def load_graph_json(path) -> TaskGraph:
    """Read {"edges": [{"i": .., "j": .., "gamma": ..}, ...]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object with an 'edges' key")
    edges = payload.get("edges")
    if edges is None:
        raise DataError(f"{path}: missing 'edges' key")
    try:
        return TaskGraph(tuple(_edge_numbers(e) for e in edges))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an int past float range
        raise DataError(f"{path}: bad edge list: {exc}") from None


def _pack_row(per_key: dict, key, numbers, path, lineno: int) -> None:
    """Add a row's numbers, time first, to `key`'s array('d'); a repeated time is a DataError."""
    times, packed = per_key.setdefault(key, (set(), array("d")))
    if numbers[0] in times:
        raise DataError(f"{path}: line {lineno}: duplicate time_s {numbers[0]!r}")
    times.add(numbers[0])
    packed.extend(numbers)


def _time_sorted(per_key: dict, width: int) -> dict:
    """Each key's packed rows of `width` numbers as float64 (times, values) in
    time order, made in place so that each key's array is let go at once."""
    for key, (_, packed) in per_key.items():
        rows = np.frombuffer(packed).reshape(-1, width)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        per_key[key] = (rows[:, 0].copy(), np.ascontiguousarray(rows[:, 1:]))
    return per_key


def load_features_csv(path, columns=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read `clip_id,time_s,f1..fD` into {clip_id: (times, features)}, rows
    sorted by time within each clip. With `columns`, the header holds those
    columns in any order, and those after clip_id,time_s are the features."""
    per_clip: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, cols = read_header(
            fh, path, columns or ("clip_id", "time_s"), leading=columns is None
        )
        for lineno, row in data_rows(reader, len(header), path):
            values = parse_numbers(row, cols[1:], header, path, lineno)
            _pack_row(per_clip, row[cols[0]].strip(), values, path, lineno)
    if not per_clip:
        raise DataError(f"{path}: no data rows")
    return _time_sorted(per_clip, len(cols) - 1)


def load_labels_csv(path) -> dict[str, int]:
    """Read the static label CSV `clip_id,label` into {clip_id: class >= 1}."""
    out: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, (i_clip, i_label) = read_header(fh, path, LABEL_COLUMNS)
        for lineno, row in data_rows(reader, len(header), path):
            clip = row[i_clip].strip()
            try:
                label = int(row[i_label])
            except ValueError:
                label = 0  # reported below
            if not 1 <= label < 2**63:
                raise DataError(f"{path}: line {lineno}: label must be an integer in 1..2**63-1")
            if clip in out:
                raise DataError(f"{path}: line {lineno}: duplicate clip {clip}")
            out[clip] = label
    return out


def is_static_labels(path) -> bool:
    """Whether `path` has the header of static labels, not of fused ones."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(fh, path, (), leading=True)[1]  # any header
    return sorted(header) == sorted(LABEL_COLUMNS)


def load_fused_csv(path) -> dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]]:
    """Read a fused CSV into {(clip, kind, attribute): (times, values)},
    values on the canonical [-1, 1] scale."""
    per_key: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, cols = read_header(fh, path, FUSED_COLUMNS)
        i_clip, i_kind, i_attr, i_time, i_value = cols
        for lineno, row in data_rows(reader, len(header), path):
            t, v = parse_numbers(row, (i_time, i_value), header, path, lineno)
            if abs(v) > 1.0 + 1e-9:
                raise DataError(f"{path}: line {lineno}: value {v!r} outside [-1, 1]")
            key = (row[i_clip].strip(), row[i_kind].strip(), row[i_attr].strip())
            _pack_row(per_key, key, (t, v), path, lineno)
    return {key: (t, v.ravel()) for key, (t, v) in _time_sorted(per_key, 2).items()}
