import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from crowdmtl.design import (
    StackedDesign,
    TaskDataset,
    TaskGraph,
    assemble_design,
    build_incidence,
    build_label_indicator,
    build_reliability,
    discretize_levels,
    level_midpoints,
    load_graph_json,
    stack_tasks,
)
from crowdmtl.errors import DataError
from crowdmtl.solvers import ModelSpec, build_problem
from util import reference_load_features_csv, reference_load_fused_csv, save_graph_json


def test_indicator_examples():
    assert np.array_equal(
        build_label_indicator(2, 2, 3, 2), [0, 0, 0, 1, 0, 0]
    )
    assert np.array_equal(build_label_indicator(1, 1, 1, 1), [1])
    assert np.array_equal(build_label_indicator(1, 1, 2, 2), [1, 0, 0, 0])


def test_indicator_range_errors():
    with pytest.raises(ValueError):
        build_label_indicator(0, 1, 3, 2)
    with pytest.raises(ValueError):
        build_label_indicator(1, 3, 3, 2)


def test_discretize_sign_split():
    classes, mids = discretize_levels([-0.3, 0.3], 2)
    assert classes.tolist() == [1, 2]
    assert np.allclose(mids, [-0.5, 0.5])


def test_discretize_five_levels_oracle():
    # explicit bin-edge enumeration for L=5:
    # [-1,-0.6) [-0.6,-0.2) [-0.2,0.2) [0.2,0.6) [0.6,1]
    edges = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]

    def oracle(v):
        for cls in range(1, 6):
            lo, hi = edges[cls - 1], edges[cls]
            if (lo <= v < hi) or (cls == 5 and v == 1.0):
                return cls
        raise AssertionError

    values = np.array([-1.0, -0.7, -0.6, -0.3, -0.2, 0.0, 0.19, 0.2, 0.7, 1.0])
    classes, mids = discretize_levels(values, 5)
    assert classes.tolist() == [oracle(v) for v in values]
    assert classes[values.tolist().index(0.0)] == 3
    assert np.allclose(mids, [-0.8, -0.4, 0.0, 0.4, 0.8])
    assert mids[2] == pytest.approx(0.0)


def test_discretize_top_boundary():
    classes, _ = discretize_levels([1.0], 4)
    assert classes.tolist() == [4]


def test_discretize_rejects_out_of_range():
    with pytest.raises(ValueError):
        discretize_levels([1.2], 5)
    with pytest.raises(ValueError):
        discretize_levels([0.0], 1)


def test_discretize_decode_error_bound():
    rng = np.random.default_rng(0)
    for levels in (2, 3, 5, 8):
        values = rng.uniform(-1, 1, 200)
        classes, mids = discretize_levels(values, levels)
        decoded = mids[classes - 1]
        assert np.max(np.abs(decoded - values)) <= 1.0 / levels + 1e-12


def test_stack_tasks_shapes():
    rng = np.random.default_rng(1)
    t1 = TaskDataset("a", rng.normal(size=(2, 4)), [1, 2])
    t2 = TaskDataset("b", rng.normal(size=(3, 4)), [2, 1, 2])
    x, y = stack_tasks([t1, t2], 2)
    assert x.shape == (5, 4)
    assert y.shape == (5, 4)
    assert np.allclose(x[:2], t1.features)
    assert np.allclose(x[2:], t2.features)


def test_stack_tasks_single_task():
    t1 = TaskDataset("a", np.eye(3), [1, 2, 1])
    x, y = stack_tasks([t1], 2)
    assert np.allclose(x, t1.features)
    assert np.array_equal(y, [[1, 0], [0, 1], [1, 0]])


def test_stack_tasks_dim_mismatch():
    t1 = TaskDataset("a", np.zeros((2, 4)), [1, 1])
    t2 = TaskDataset("b", np.zeros((2, 3)), [1, 1])
    with pytest.raises(ValueError, match="dimension"):
        stack_tasks([t1, t2], 2)


def test_stack_tasks_label_properties():
    rng = np.random.default_rng(2)
    tasks = [
        TaskDataset(f"t{i}", rng.normal(size=(4, 3)), rng.integers(1, 4, size=4))
        for i in range(3)
    ]
    x, y = stack_tasks(tasks, 3)
    assert np.all(y.sum(axis=1) == 1.0)
    yty = y.T @ y
    assert np.allclose(yty, np.diag(np.diag(yty)))
    # slicing rows by task recovers each block
    offset = 0
    for t in tasks:
        assert np.allclose(x[offset : offset + t.n_samples], t.features)
        offset += t.n_samples


def test_incidence_examples():
    e = build_incidence(TaskGraph(((1, 2, 1.0),)), 2, 1)
    assert np.array_equal(e, [[1.0, -1.0]])
    e = build_incidence(TaskGraph(((1, 2, 1.0),)), 2, 2)
    assert np.array_equal(e, [[1, 0, -1, 0], [0, 1, 0, -1]])
    e = build_incidence(None, 3, 2)
    assert e.shape == (0, 6)
    w = np.random.default_rng(3).normal(size=(4, 6))
    assert np.sum((e @ w.T) ** 2) == 0.0


def test_incidence_penalty_identity():
    rng = np.random.default_rng(4)
    n_tasks, n_classes, d = 4, 3, 5
    graph = TaskGraph(((1, 2, 1.0), (2, 4, 2.5), (1, 3, 0.7)))
    e = build_incidence(graph, n_tasks, n_classes)
    w = rng.normal(size=(d, n_tasks * n_classes))
    direct = 0.0
    for i, j, gamma in graph.edges:
        for c in range(n_classes):
            ci = (i - 1) * n_classes + c
            cj = (j - 1) * n_classes + c
            direct += gamma**2 * np.sum((w[:, ci] - w[:, cj]) ** 2)
    assert np.sum((e @ w.T) ** 2) == pytest.approx(direct, rel=1e-12)
    lap = np.kron(graph.laplacian(n_tasks), np.eye(n_classes))
    assert np.allclose(lap, e.T @ e, rtol=0, atol=1e-12)


def test_incidence_endpoint_error():
    with pytest.raises(ValueError):
        build_incidence(TaskGraph(((1, 5, 1.0),)), 3, 2)
    tasks = [TaskDataset(f"t{i}", np.eye(2), [1, 2]) for i in range(3)]
    with pytest.raises(ValueError, match=r"\(1,5\) endpoint out of range 1\.\.3"):
        assemble_design(tasks, 2, graph=TaskGraph(((1, 2, 1.0), (1, 5, 1.0))))


def test_graph_validation(tmp_path):
    with pytest.raises(ValueError):
        TaskGraph(((1, 1, 1.0),))
    with pytest.raises(ValueError):
        TaskGraph(((1, 2, 0.0),))
    with pytest.raises(ValueError):
        TaskGraph(((1, 2, 1.0), (2, 1, 1.0)))
    with pytest.raises(ValueError, match="not an integer"):
        TaskGraph(((1, 2.5, 1.0),))
    for gamma in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            TaskGraph(((1, 2, gamma),))
    assert TaskGraph(((1.0, 2, 1),)).edges == ((1, 2, 1.0),)
    assert TaskGraph.complete(4).n_edges == 6
    for text in (
        "[]",
        '{"edges": [{"i": 1, "j": 2.5}]}',
        '{"edges": [{"i": 1, "j": 2, "gamma": Infinity}]}',
        '{"edges": [{"i": 1, "j": 2, "gamma": NaN}]}',
        '{"edges": [{"i": "1", "j": 2}]}',
        '{"edges": [{"i": 1, "j": "2"}]}',
        '{"edges": [{"i": 1, "j": 2, "gamma": "0.5"}]}',
        '{"edges": [{"i": true, "j": 2}]}',
        '{"edges": [{"i": 1, "j": 2, "gamma": false}]}',
        '{"edges": [{"i": 1, "j": 2, "gamma": null}]}',
        '{"edges": [{"i": [1], "j": 2}]}',
    ):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(DataError, match="g.json"):
            load_graph_json(path)


def test_graph_json_field_that_is_not_a_number_is_a_data_error(tmp_path):
    # the string and boolean fields used to read as numbers: edge (1, 2, 0.5)
    path = tmp_path / "g.json"
    path.write_text('{"edges": [{"i": "1", "j": 2, "gamma": "0.5"}]}')
    message = f"{path}: bad edge list: edge field 'i' is \"1\", not a number"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_graph_json(path)
    path.write_text('{"edges": [{"i": 1, "j": 2, "gamma": true}]}')
    with pytest.raises(DataError, match="edge field 'gamma' is true, not a number$"):
        load_graph_json(path)
    path.write_text('{"edges": [{"i": 1.0, "j": 2, "gamma": 2}]}')
    assert load_graph_json(path).edges == ((1, 2, 2.0),)


def test_graph_number_limits_sit_where_the_square_and_int64_end():
    # the largest weight whose square is finite loads, the next one up not
    largest = math.sqrt(np.finfo(float).max)
    assert TaskGraph(((1, 2, largest),)).laplacian(2)[0, 0] == largest * largest
    with pytest.raises(ValueError, match=r"^edge \(1,2\) weight .* has no finite square$"):
        TaskGraph(((1, 2, math.nextafter(largest, math.inf)),))
    # a whole endpoint within int64 keeps its value for the range check
    with pytest.raises(ValueError, match=r"^edge \(9200000000000000000,2\) endpoint out of range"):
        TaskGraph(((9.2e18, 2, 1.0),)).check_endpoints(4)
    with pytest.raises(ValueError, match=r"^edge endpoint 9\.223372036854776e\+18 is out of range$"):
        TaskGraph(((1, 2.0**63, 1.0),))


def test_graph_json_roundtrip(tmp_path):
    graph = TaskGraph(((1, 2, 1.0), (2, 3, 0.5)))
    path = tmp_path / "g.json"
    save_graph_json(graph, path)
    assert load_graph_json(path).edges == graph.edges


def test_reliability():
    assert np.array_equal(build_reliability(3), [1.0, 1.0, 1.0])
    assert np.array_equal(build_reliability(3, [2.0, 1.0, 1.0]), [2.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        build_reliability(3, [2.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        build_reliability(3, [1.0, 1.0])


def test_assemble_design_with_experts():
    rng = np.random.default_rng(5)
    crowd = [
        TaskDataset("a", rng.normal(size=(3, 4)), [1, 2, 1]),
        TaskDataset("b", rng.normal(size=(2, 4)), [2, 2]),
    ]
    expert = [TaskDataset("b", rng.normal(size=(2, 4)), [1, 2])]
    design = assemble_design(
        crowd, 2, expert_tasks=expert, graph=TaskGraph(((1, 2, 0.4),))
    )
    assert design.dims == (5, 2, 4, 2, 2)
    # expert indicators land in task b's block (positions 2..3)
    assert np.array_equal(design.V, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.array_equal(design.E, [[0.4, 0, -0.4, 0], [0, 0.4, 0, -0.4]])
    summary = design.summary()
    assert summary["n_tasks"] == 2
    assert summary["n_edge_rows"] == design.E.shape[0]
    assert summary["nnz_Y"] == np.count_nonzero(design.Y)
    assert summary["nnz_E"] == np.count_nonzero(design.E)


def test_assemble_design_unknown_expert_task():
    crowd = [TaskDataset("a", np.zeros((2, 3)), [1, 1])]
    expert = [TaskDataset("zzz", np.zeros((1, 3)), [1])]
    with pytest.raises(ValueError, match="zzz"):
        assemble_design(crowd, 2, expert_tasks=expert)


def test_design_validation():
    # a label column outside 0..R*C-1 is a malformed label row
    with pytest.raises(ValueError, match=r"must lie in 0\.\.1"):
        StackedDesign(
            X=np.zeros((2, 3)),
            y_cols=np.array([0, 2]),
            U=np.ones(2),
            graph=None,
            n_tasks=1,
            n_classes=2,
        )
    with pytest.raises(ValueError, match="positive"):
        StackedDesign(
            X=np.zeros((2, 3)),
            y_cols=np.array([0, 1]),
            U=np.array([1.0, 0.0]),
            graph=None,
            n_tasks=1,
            n_classes=2,
        )


def test_a_design_is_changed_only_through_its_checks():
    rng = np.random.default_rng(8)
    tasks = [TaskDataset(f"t{t}", rng.normal(size=(3, 2)), [1, 2, 1]) for t in range(2)]
    design = assemble_design(tasks, 2, graph=TaskGraph.complete(2))
    for name in ("U", "X", "graph", "complete_gamma"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(design, name, getattr(design, name))
    for bad in (-np.ones(6), np.zeros(6), np.ones(5)):
        with pytest.raises(ValueError, match="U "):
            dataclasses.replace(design, U=bad)
    changed = dataclasses.replace(design, U=np.full(6, 2.0), graph=TaskGraph(((1, 2, 0.5),)))
    assert changed.crowd_gram[2] == 6.0 and design.crowd_gram[2] == 3.0
    assert (changed.complete_gamma, design.complete_gamma) == (0.5, 1.0)


def test_design_stores_no_dense_label_or_graph_matrix():
    # R=120 tasks, C=5: a dense incidence matrix alone would be 35,700 x 600
    # (171 MB); the label columns are 48 kB, and a complete graph builds
    # no Laplacian
    r, c, d, rows = 120, 5, 32, 50
    rng = np.random.default_rng(7)
    crowd = [
        TaskDataset(f"t{t}", rng.normal(size=(rows, d)), rng.integers(1, c + 1, rows))
        for t in range(r)
    ]
    expert = [
        TaskDataset(f"t{t}", rng.normal(size=(rows, d)), rng.integers(1, c + 1, rows))
        for t in range(r)
    ]
    graph = TaskGraph.complete(r)
    spec = ModelSpec("sr_mtl", {"alpha": 1.0, "beta": 0.1, "gamma": 1.0})
    tracemalloc.start()
    try:
        design = assemble_design(crowd, c, expert_tasks=expert, graph=graph)
        build_problem(spec, design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    stored = [v for v in vars(design).values() if isinstance(v, np.ndarray)]
    assert all(v.ndim < 2 or v.shape[1] != r * c for v in stored)
    for name in ("Y", "V", "E"):
        with pytest.raises(AttributeError):
            setattr(design, name, None)


def test_row_tasks_derived_from_y():
    rng = np.random.default_rng(6)
    tasks = [
        TaskDataset("a", rng.normal(size=(2, 3)), [1, 2]),
        TaskDataset("b", rng.normal(size=(3, 3)), [1, 1, 2]),
    ]
    design = assemble_design(tasks, 2)
    assert design.row_tasks().tolist() == [0, 0, 1, 1, 1]


def test_level_midpoints():
    assert np.allclose(level_midpoints(2), [-0.5, 0.5])
    assert np.allclose(level_midpoints(3), [-2 / 3, 0.0, 2 / 3])


def test_load_features_csv(tmp_path):
    from crowdmtl.design import load_features_csv
    from crowdmtl.errors import DataError

    path = tmp_path / "f.csv"
    path.write_text(
        "clip_id,time_s,f1,f2\n"
        "c1,1,0.5,0.6\n"
        "c1,0,0.1,0.2\n"
        "c2,0,0.3,0.4\n"
    )
    feats = load_features_csv(path)
    times, x = feats["c1"]
    assert np.array_equal(times, [0.0, 1.0])  # rows sorted by time
    assert np.allclose(x, [[0.1, 0.2], [0.5, 0.6]])
    assert feats["c2"][1].shape == (1, 2)

    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("clip,time,f1\nc1,0,1\n")
    with pytest.raises(DataError, match="expected header"):
        load_features_csv(bad_header)

    bad_float = tmp_path / "bad2.csv"
    bad_float.write_text("clip_id,time_s,f1\nc1,0,oops\n")
    with pytest.raises(DataError, match="line 2"):
        load_features_csv(bad_float)

    dup_time = tmp_path / "bad3.csv"
    dup_time.write_text("clip_id,time_s,f1\nc1,0,1\nc1,0,2\n")
    with pytest.raises(DataError, match="duplicate time"):
        load_features_csv(dup_time)


def _write_rows(path, header, rows, newline="\n"):
    path.write_bytes(newline.join([header, *rows, ""]).encode())
    return path


def _same_tables(got, want):
    assert list(got) == list(want)  # keys in the order of first appearance
    for key, arrays in want.items():
        for a, b in zip(got[key], arrays):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
            assert a.flags.c_contiguous


def test_packed_readers_match_the_dict_of_dicts_oracle(tmp_path):
    from crowdmtl.design import load_features_csv, load_fused_csv

    rng = np.random.default_rng(19)
    rows = [
        (f'"c {c}"' if c % 2 else f"c{c}", t, *rng.normal(size=3).round(rng.integers(1, 17)).tolist())
        for c in range(5) for t in (rng.permutation(7) * 0.5).tolist()
    ]
    order = rng.permutation(len(rows))  # shuffled: every clip split over non-adjacent rows
    lines = [",".join(map(str, rows[k])) for k in order]
    for newline in ("\n", "\r\n"):
        path = _write_rows(tmp_path / "f.csv", "clip_id,time_s,f1,f2,f3", lines, newline)
        _same_tables(load_features_csv(path), reference_load_features_csv(path))
        # truth.csv: the named columns in another order, one value column
        truth = [",".join(map(str, (rows[k][2], rows[k][1], rows[k][0]))) for k in order]
        path = _write_rows(tmp_path / "truth.csv", "value,time_s,clip_id", truth, newline)
        columns = ("clip_id", "time_s", "value")
        got = load_features_csv(path, columns)
        _same_tables(got, reference_load_features_csv(path, columns))
        assert got["c0"][1].shape == (7, 1)
        fused = [
            ",".join(map(str, (rows[k][1], repr(math.tanh(rows[k][2])), "crowd", rows[k][0], "arousal")))
            for k in order
        ]
        path = _write_rows(tmp_path / "fused.csv", "time_s,value,rater_kind,clip_id,attribute", fused, newline)
        got = load_fused_csv(path)
        _same_tables(got, reference_load_fused_csv(path))
        assert got[("c 1", "crowd", "arousal")][1].shape == (7,)
    # a time repeated within a clip, rows apart: the same line and message
    path = _write_rows(tmp_path / "dup.csv", "clip_id,time_s,f1,f2,f3", [*lines, lines[3]])
    messages = []
    for read in (load_features_csv, reference_load_features_csv):
        with pytest.raises(DataError) as exc:
            read(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and f"line {len(lines) + 2}: duplicate time_s" in messages[0]


def test_features_read_holds_little_more_than_its_arrays(tmp_path):
    # 3000 rows of 16 features: as {clip: {time: [floats]}} the read peaked
    # at 5.7x the arrays it returns, packed as it reads at under 2x
    from crowdmtl.design import load_features_csv

    rng = np.random.default_rng(3)
    path = tmp_path / "features.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("clip_id,time_s," + ",".join(f"f{k}" for k in range(1, 17)) + "\n")
        for c in range(60):
            for t in range(50):
                fh.write(f"clip{c:03d},{t}," + ",".join(map(repr, rng.normal(size=16).tolist())) + "\n")
    tracemalloc.start()
    try:
        feats = load_features_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(t.nbytes + x.nbytes for t, x in feats.values())
    assert nbytes == 3000 * 17 * 8
    assert peak <= 3 * nbytes, peak / nbytes


def test_load_labels_csv(tmp_path):
    from crowdmtl.design import load_labels_csv
    from crowdmtl.errors import DataError

    path = tmp_path / "l.csv"
    path.write_text("clip_id,label\nc1,1\nc2,2\n")
    assert load_labels_csv(path) == {"c1": 1, "c2": 2}

    dup = tmp_path / "dup.csv"
    dup.write_text("clip_id,label\nc1,1\nc1,2\n")
    with pytest.raises(DataError, match="duplicate clip"):
        load_labels_csv(dup)

    frac = tmp_path / "frac.csv"
    frac.write_text("clip_id,label\nc1,1.5\n")
    with pytest.raises(DataError, match="integer"):
        load_labels_csv(frac)
