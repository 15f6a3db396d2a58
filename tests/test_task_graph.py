"""TaskGraph's edge arrays against the edge-tuple reference, and its cost at scale."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from crowdmtl.design import TaskGraph, build_incidence
from util import ReferenceTaskGraph, from_groups, reference_incidence, save_graph_json

ERROR_KINDS = ("not an integer", "self edge", "weight must be", "duplicate edge", "out of range")


def random_edge_list(rng, n_tasks):
    """Edges over tasks 0..R+1 with every kind of defect now and then: self
    edges, weights 0, -1, nan and inf, repeated pairs in either order, and
    2.5 or 1.0 as an endpoint."""
    edges = []
    for _ in range(int(rng.integers(0, 9))):
        roll = rng.random()
        if edges and roll < 0.05:
            i, j, gamma = edges[int(rng.integers(len(edges)))]
            edges.append((j, i, gamma) if rng.random() < 0.5 else (i, j, 2.0))
            continue
        i, j = (int(v) for v in rng.integers(1, n_tasks + 1, size=2))
        if roll < 0.07:
            j = i
        elif roll < 0.1:
            i = 2.5
        elif roll < 0.15:
            j = 1.0
        elif roll < 0.2:
            i = int(rng.choice([0, n_tasks + 1]))
        gamma = float(rng.choice([0.0, -1.0, math.nan, math.inf])) if rng.random() < 0.04 else (
            float(rng.uniform(0.1, 3.0))
        )
        edges.append((i, j, gamma))
    return edges


def outcome(build):
    try:
        return "ok", build()
    except ValueError as exc:
        return "error", str(exc)


def test_edge_arrays_match_the_edge_tuple_reference(tmp_path):
    rng = np.random.default_rng(2016)
    seen = {kind: 0 for kind in ("valid", *ERROR_KINDS)}
    for _ in range(1500):
        n_tasks = int(rng.integers(1, 12))
        edges = random_edge_list(rng, n_tasks)
        status, reference = outcome(lambda: ReferenceTaskGraph(tuple(edges)))
        got_status, graph = outcome(lambda: TaskGraph(tuple(edges)))
        assert (got_status, status) == ("error", "error") or got_status == status == "ok", edges
        if status == "error":
            assert graph == reference, edges
            seen[next(k for k in ERROR_KINDS if k in reference)] += 1
            continue
        assert repr(graph.edges) == repr(reference.edges)
        assert graph.n_edges == reference.n_edges
        lap = outcome(lambda: graph.laplacian(n_tasks))
        lap_ref = outcome(lambda: reference.laplacian(n_tasks))
        if lap_ref[0] == "error":
            assert lap == lap_ref, edges
            seen["out of range"] += 1
            continue
        seen["valid"] += 1
        assert lap[1].tobytes() == lap_ref[1].tobytes(), edges
        for n_classes in (1, 3):
            e = build_incidence(graph, n_tasks, n_classes)
            assert e.tobytes() == reference_incidence(reference, n_tasks, n_classes).tobytes()
        save_graph_json(graph, tmp_path / "arrays.json")
        save_graph_json(reference, tmp_path / "tuples.json")
        assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "tuples.json").read_bytes()
    # every kind of defect was drawn, and so were graphs without one
    assert min(seen.values()) >= 20, seen


def test_complete_graph_matches_the_reference():
    for n_tasks in (1, 2, 5):
        graph = TaskGraph.complete(n_tasks, gamma=0.7)
        edges = [(i, j, 0.7) for i in range(1, n_tasks + 1) for j in range(i + 1, n_tasks + 1)]
        reference = ReferenceTaskGraph(tuple(edges))
        assert repr(graph.edges) == repr(reference.edges)
        assert graph.laplacian(n_tasks).tobytes() == reference.laplacian(n_tasks).tobytes()
        assert graph.complete_weight(n_tasks) == (0.7 if n_tasks > 1 else None)
    for gamma in (0.0, math.nan):
        with pytest.raises(ValueError, match=r"^edge \(1,2\) weight must be positive and finite$"):
            TaskGraph.complete(3, gamma=gamma)


def test_from_groups_joins_each_group_into_a_clique():
    groups = from_groups([[1, 2], [3, 4]])
    assert set(groups.edges) == {(1, 2, 1.0), (3, 4, 1.0)}


def test_complete_graph_at_two_thousand_tasks_is_cheap():
    # 1,999,000 edges: as edge tuples, 4.4 s and about 550 MB before any fit
    n_tasks = 2000
    lap_bytes = n_tasks * n_tasks * 8
    start = time.perf_counter()
    tracemalloc.start()
    try:
        graph = TaskGraph.complete(n_tasks)
        lap = graph.laplacian(n_tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert peak < 3 * lap_bytes
    assert elapsed < 5.0  # generous for a loaded host; about 0.1 s untraced
    assert graph.n_edges == n_tasks * (n_tasks - 1) // 2
    assert np.all(np.diag(lap) == n_tasks - 1)
    assert lap.sum() == 0.0 and np.count_nonzero(lap == -1.0) == n_tasks * (n_tasks - 1)
    assert graph.complete_weight(n_tasks) == 1.0
