"""Shared builders and oracles for solver, design and experiment tests."""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from crowdmtl.design import TaskDataset, TaskGraph, assemble_design


@dataclass(frozen=True)
class ReferenceTaskGraph:
    """The task graph as a tuple of edge tuples, checked, scattered and
    expanded one edge at a time: the oracle for TaskGraph's arrays."""

    edges: tuple = ()

    def __post_init__(self):
        seen = set()
        norm = []
        for edge in self.edges:
            i, j = _reference_endpoint(edge[0]), _reference_endpoint(edge[1])
            gamma = float(edge[2])
            if i == j:
                raise ValueError(f"self edge ({i},{j}) not allowed")
            if not (math.isfinite(gamma) and gamma > 0):
                raise ValueError(f"edge ({i},{j}) weight must be positive and finite")
            undirected = (min(i, j), max(i, j))
            if undirected in seen:
                raise ValueError(f"duplicate edge between tasks {i} and {j}")
            seen.add(undirected)
            norm.append((i, j, gamma))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def check_endpoints(self, n_tasks: int) -> None:
        for i, j, _ in self.edges:
            if not (1 <= i <= n_tasks and 1 <= j <= n_tasks):
                raise ValueError(f"edge ({i},{j}) endpoint out of range 1..{n_tasks}")

    def laplacian(self, n_tasks: int) -> np.ndarray:
        self.check_endpoints(n_tasks)
        lap = np.zeros((n_tasks, n_tasks))
        for i, j, gamma in self.edges:
            lap[i - 1, j - 1] = lap[j - 1, i - 1] = -gamma * gamma
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap


def from_groups(groups, gamma=1.0) -> TaskGraph:
    """Cliques within each group of task indices (e.g. HA/LA clips)."""
    members = (sorted({int(g) for g in group}) for group in groups)
    return TaskGraph([(i, j, gamma) for m in members for i, j in itertools.combinations(m, 2)])


def save_graph_json(graph, path) -> None:
    """Write a graph's edges in the `--graph` file format."""
    payload = {"edges": [{"i": i, "j": j, "gamma": g} for i, j, g in graph.edges]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reference_endpoint(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"edge endpoint {value!r} is not an integer")
    return int(value)


def reference_incidence(graph: ReferenceTaskGraph, n_tasks: int, n_classes: int) -> np.ndarray:
    """The class-aligned incidence matrix, one edge row at a time."""
    graph.check_endpoints(n_tasks)
    task_rows = np.zeros((graph.n_edges, n_tasks))
    for e, (i, j, gamma) in enumerate(graph.edges):
        task_rows[e, i - 1], task_rows[e, j - 1] = gamma, -gamma
    return np.kron(task_rows, np.eye(n_classes))


def random_design(
    rng,
    n_per_task=8,
    d=4,
    r=2,
    c=2,
    with_expert=True,
    with_graph=True,
    ne_per_task=3,
    u=None,
    graph=None,
):
    """Random stacked design with one-hot labels and an optional expert block.

    The tasks are coupled by `graph`, else by the complete graph when
    `with_graph` is set."""
    crowd = [
        TaskDataset(
            f"t{i}",
            rng.normal(size=(n_per_task, d)),
            rng.integers(1, c + 1, size=n_per_task),
        )
        for i in range(r)
    ]
    expert = None
    if with_expert:
        expert = [
            TaskDataset(
                f"t{i}",
                rng.normal(size=(ne_per_task, d)),
                rng.integers(1, c + 1, size=ne_per_task),
            )
            for i in range(r)
        ]
    if graph is None and with_graph and r > 1:
        graph = TaskGraph.complete(r)
    return assemble_design(crowd, c, expert_tasks=expert, graph=graph, reliability=u)


def central_difference_grad(f, w, step=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        wp = w.copy()
        wm = w.copy()
        wp[idx] += step
        wm[idx] -= step
        grad[idx] = (f(wp) - f(wm)) / (2 * step)
        it.iternext()
    return grad
