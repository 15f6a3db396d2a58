"""Shared builders for solver and experiment tests."""

import numpy as np

from crowdmtl.design import TaskDataset, TaskGraph, assemble_design


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
