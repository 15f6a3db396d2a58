"""Trace commands end to end, and the trace table against per-trace oracles."""

import hashlib
import importlib.util
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from util import (
    reference_active_fraction,
    reference_quality_filter,
    reference_resample_trace,
    reference_window_last,
)

from crowdmtl import annotations, cli
from crowdmtl.annotations import (
    AnnotationTrace,
    QcPolicy,
    RowError,
    TraceTable,
    load_traces,
    qc_reasons,
    quality_filter,
    resample_trace,
    resample_windows,
    window_last,
)

TRACE_HEADER = "clip_id,rater_id,rater_kind,attribute,time_s,value\n"


def qc_trace_files(directory):
    """A small seeded trace file and its static ratings, with one trace of
    each kind the filter and the windowing treat apart.

    c1/arousal holds four crowd traces of uneven length, the first starting
    at time -0.0, a gap trace (r3, 16 samples dropped), a flat trace (r4)
    and two experts; c2/arousal three crowd traces sampled every 0.5 s.
    The static file rates r1 of c1 as 0, contradicts r2 of c1 in sign and
    leaves r3 of c2 out.
    """
    rng = random.Random(23)
    rows = []

    def trace(clip, rater, kind, times, flat=False):
        scale = 2.0 if kind == "crowd" else 1.0
        level = round(rng.uniform(-scale, scale), 3)
        for t in times:
            if not flat:
                level = min(max(level + round(rng.uniform(-0.4, 0.4), 3), -scale), scale)
            rows.append(f"{clip},{rater},{kind},arousal,{t!r},{round(level, 3)!r}\n")

    trace("c1", "r1", "crowd", [-0.0] + [float(t) for t in range(1, 60)])
    trace("c1", "r2", "crowd", [float(t) for t in range(72)])
    trace("c1", "r3", "crowd", [float(t) for t in range(66) if not 20 <= t < 36])
    trace("c1", "r4", "crowd", [float(t) for t in range(64)], flat=True)
    trace("c1", "e1", "expert", [float(t) for t in range(58)])
    trace("c1", "e2", "expert", [float(t) for t in range(61)])
    for r, n in (("r1", 120), ("r2", 131), ("r3", 125)):
        trace("c2", r, "crowd", [t / 2 for t in range(n)])
    traces = directory / "traces.csv"
    traces.write_text(TRACE_HEADER + "".join(rows), newline="")
    static = directory / "static.csv"
    static.write_text(
        "clip_id,rater_id,attribute,static_value\n"
        "c1,r1,arousal,0\nc1,r2,arousal,-1.5\nc1,r3,arousal,1\nc1,r4,arousal,0.5\n"
        "c2,r1,arousal,2\nc2,r2,arousal,-0.25\n",
        newline="",
    )
    return traces, static


# sha256 of each output of the trace commands on qc_trace_files
TRACE_COMMANDS_SHA256 = {
    "filter/accepted.csv":
        "ccac3c901c76979e5055eef5d99280d667a727dd5c17398da340acd1e883d82c",
    "filter/rejected.csv":
        "27e4df5e4eb46a5bf4561dee6effcabbcda83587e9b78be351178d68e960248b",
    "filter/report.json":
        "4e8a8065f9e29e5274625c2e3cda16dec1658dad15692f9f13903eaf02856972",
    "concordance_rater_kind/concordance.json":
        "38ccb79a9170e427f2f5734271fd049fe83853c8a2b1d99282a0a4f938b7ed24",
    "concordance_none/concordance.json":
        "ba1de213dd935a0e114c6b4b771d7bc819f16ed8b9e16ad7b8043edcb4ea7974",
    "fuse/fused.csv":
        "2e8b29c550cff438fda33e4a473a387a1067c4a1859a009b6c1a360190e675ce",
}


def trace_command_digests(traces, static, out):
    argvs = {
        "filter": ["filter", "--traces", traces, "--static", static,
                   "--require-sign-consistency"],
        "concordance_rater_kind": ["concordance", "--traces", traces, "--segment", "all",
                                   "--group-by", "rater_kind"],
        "concordance_none": ["concordance", "--traces", traces, "--segment", "all",
                             "--group-by", "none"],
        "fuse": ["fuse", "--traces", traces],
    }
    for name, argv in argvs.items():
        assert cli.main([*map(str, argv), "--out", str(out / name)]) == 0, name
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in TRACE_COMMANDS_SHA256
    }


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_trace_command_outputs_are_pinned(tmp_path, capsys, line_end):
    # a CRLF copy is not a plain file: the row loop reads it, and every
    # output must be the same bytes
    traces, static = qc_trace_files(tmp_path)
    for path in (traces, static):
        path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
    digests = trace_command_digests(traces, static, tmp_path / "out")
    assert digests == TRACE_COMMANDS_SHA256


# --------------------------------------------------------------------------
# the table functions against the per-trace oracles


def random_trace_file(directory, seed):
    """A seeded trace file and static file: traces of 1 to 40 samples at
    non-uniform times, some flat, some all zero, some with gaps; crowd and
    expert; static ratings missing, zero or of either sign."""
    rng = np.random.default_rng(seed)
    rows, static = [], ["clip_id,rater_id,attribute,static_value\n"]
    for i in range(60):
        clip, rater, kind = f"c{i % 4}", f"r{i}", ("crowd", "expert")[i % 3 == 0]
        n = int(rng.choice([1, 2, 3, rng.integers(4, 41)]))
        steps = rng.choice([0.5, 1.0, 1.0, 1.0, 2.5, rng.uniform(0.1, 3.0)], size=n - 1)
        times = rng.uniform(0, 3) * (i % 2) + np.concatenate([[0.0], np.cumsum(steps)])
        scale = 2.0 if kind == "crowd" else 1.0
        shape = i % 5
        if shape == 0:
            values = np.zeros(n)
        elif shape == 1:
            values = np.full(n, rng.uniform(-scale, scale))
        else:
            values = np.clip(np.cumsum(rng.normal(0, 0.5, n)), -scale, scale)
            values[rng.uniform(size=n) < 0.3] = 0.0
        rows += [f"{clip},{rater},{kind},arousal,{t!r},{v!r}\n"
                 for t, v in zip(times.tolist(), values.tolist())]
        if i % 7:
            static.append(f"{clip},{rater},arousal,{float(rng.choice([0.0, -1.5, 0.5, 2.0]))!r}\n")
    traces, statics = directory / f"t{seed}.csv", directory / f"s{seed}.csv"
    traces.write_text(TRACE_HEADER + "".join(rows))
    statics.write_text("".join(static))
    return load_traces(str(traces), static_path=str(statics))


def boundary_policies(table):
    """Policies whose thresholds equal a trace's own missing fraction,
    active fraction and spread, with and without the sign rule."""
    policies = [QcPolicy(), QcPolicy(1.0), QcPolicy(require_sign_consistency=True),
                QcPolicy(0.0, 0.0, 0.0, True), QcPolicy(1.0, 0.0, 0.0, True)]
    for tr in list(table)[::5]:
        active = reference_active_fraction(tr.times, tr.values)
        std = float(np.std(tr.values))
        policies += [
            QcPolicy(max_missing_fraction=tr.missing_fraction, min_active_fraction=0.0,
                     min_std=0.0),
            QcPolicy(max_missing_fraction=1.0, min_active_fraction=active, min_std=0.0),
            QcPolicy(max_missing_fraction=1.0, min_active_fraction=0.0, min_std=std,
                     require_sign_consistency=True),
        ]
    return policies


@pytest.mark.parametrize("seed", range(6))
def test_qc_reasons_equal_the_per_trace_oracle(tmp_path, seed):
    table = random_trace_file(tmp_path, seed)
    assert {tr.n_samples for tr in table} >= {1, 2}
    assert 0.0 in table.static and np.isnan(table.static).any()
    for policy in boundary_policies(table):
        expected = [reference_quality_filter(tr, policy).reason for tr in table]
        assert qc_reasons(table, policy) == expected, policy
        assert [quality_filter(tr, policy).reason for tr in table] == expected
    # every rule decides some trace
    reasons = {reason for policy in boundary_policies(table) for reason in qc_reasons(table, policy)}
    assert reasons == {None, "missing", "inactivity", "sign"}


def window_outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 100.0])
@pytest.mark.parametrize("window", [None, 2.0, 10.0])
def test_resample_windows_equal_the_per_trace_oracles(tmp_path, rate, window):
    table = random_trace_file(tmp_path, 7 + int(rate))
    expected = []
    for tr in table:
        if window is None:
            expected.append(window_outcome(lambda: reference_resample_trace(tr, rate).values))
        else:
            expected.append(window_outcome(
                lambda: reference_window_last(reference_resample_trace(tr, rate), window)))
    failing = [i for i, out in enumerate(expected) if isinstance(out, str)]
    assert failing  # 1-sample traces, and traces shorter than the window
    with pytest.raises(RowError) as info:
        resample_windows(table, rate, window)
    assert (info.value.row, str(info.value)) == (failing[0], expected[failing[0]])
    good = [i for i in range(len(table)) if i not in failing]
    values, offsets = resample_windows(table.select(good), rate, window)
    got = [values[a:b].tobytes() for a, b in zip(offsets[:-1], offsets[1:])]
    assert got == [expected[i].tobytes() for i in good]
    for i in good:
        tr, oracle = table[i], reference_resample_trace(table[i], rate)
        one = resample_trace(tr, rate)
        assert (one.times.tobytes(), one.values.tobytes()) == (
            oracle.times.tobytes(), oracle.values.tobytes())
        if window is not None:
            assert window_last(oracle, window).tobytes() == expected[i].tobytes()


@pytest.mark.parametrize("grid_block", [7, 65536])
def test_the_uniform_sampling_rule_fires_as_on_the_whole_grid(tmp_path, monkeypatch, grid_block):
    # far from 0 s, t0 + k / rate rounds to steps that differ by more than
    # 1e-9 of a step: the rule must see each grid point the whole grid has
    monkeypatch.setattr(annotations, "_GRID_BLOCK", grid_block)
    outcomes = []
    for t0 in (0.0, 1e4, 1e5, 1e6, 3e6, 1e7, 1.5e7):
        tr = AnnotationTrace("c", "r", "expert", "arousal", t0 + np.arange(3.0), [0.1, 0.5, -0.2])
        table = TraceTable.from_traces([tr])
        expected = window_outcome(lambda: reference_window_last(reference_resample_trace(tr, 1000.0), 0.5))
        got = window_outcome(lambda: resample_windows(table, 1000.0, 0.5)[0])
        assert type(got) is type(expected)
        assert got == expected if isinstance(got, str) else got.tobytes() == expected.tobytes()
        outcomes.append(expected if isinstance(expected, str) else "ok")
    assert outcomes[0] == "ok" and "trace is not uniformly sampled" in outcomes


@pytest.mark.parametrize("window", [2.0, 10.0, 1e-10, 0.0])
def test_window_last_equals_its_oracle(window):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 25):
        for times in (np.arange(n) * 0.5, np.sort(rng.uniform(0, 30, n))):
            tr = AnnotationTrace("c", "r", "crowd", "valence", times, rng.uniform(-1, 1, n))
            expected = window_outcome(lambda: reference_window_last(tr, window))
            got = window_outcome(lambda: window_last(tr, window))
            assert type(got) is type(expected)
            assert got == expected if isinstance(got, str) else got.tobytes() == expected.tobytes()


def _benchmark_tracer():
    """benchmarks/tracer.py's Tracer, imported from its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def run_trace_qc(traces, static, out):
    """filter, then concordance and fuse of the accepted traces, as the
    benchmark's trace_qc pass runs them; the bytes of every output."""
    accepted = out / "qc" / "accepted.csv"
    for argv in (
        ["filter", "--traces", traces, "--static", static, "--require-sign-consistency",
         "--out", out / "qc"],
        ["concordance", "--traces", accepted, "--out", out / "concordance"],
        ["fuse", "--traces", accepted, "--out", out / "fused"],
    ):
        assert cli.main([str(arg) for arg in argv]) == 0
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file() and "manifest" not in path.name
        and "resolved_config" not in path.name
    }


def test_traced_trace_commands_write_the_same_bytes_and_count_rows(tmp_path, capsys):
    # the tracer wraps cli names and counts rows by iterating what
    # load_traces returns and what write_traces is given
    traces, static = qc_trace_files(tmp_path)
    untraced = run_trace_qc(traces, static, tmp_path / "untraced")
    tracer = _benchmark_tracer()
    tracer.install()
    try:
        traced = run_trace_qc(traces, static, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.layer_metrics()
    n_rows = len(traces.read_text().splitlines()) - 1
    n_accepted = len(untraced["qc/accepted.csv"].splitlines()) - 1
    n_rejected = len(untraced["qc/rejected.csv"].splitlines()) - 1
    assert n_accepted + n_rejected == n_rows and n_rejected > 0
    assert metrics["annotations.trace_rows"] == n_rows + 2 * n_accepted
    assert metrics["annotations.rows_written"] == n_rows
    assert metrics["annotations.load_traces_s"] > 0 and metrics["annotations.write_traces_s"] > 0


def test_windows_at_a_high_rate_hold_no_whole_grids(tmp_path, capsys):
    # concordance --window 40 --rate 2000 on the synth crowd traces: only
    # the last 40 s of each trace's grid are made, never its whole grid
    assert cli.main(["synth", "--seed", "7", "--out", str(tmp_path)]) == 0
    table = load_traces(str(tmp_path / "p1" / "crowd.csv"))
    full_grid = sum(2 * resample_trace(tr, 2000.0).times.nbytes for tr in table)
    tracemalloc.start()
    try:
        values, offsets = resample_windows(table, 2000.0, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == len(table) * 80_000
    assert peak < full_grid / 2, (peak, full_grid)
