from collections import Counter

import numpy as np
import pytest
from scipy.stats import rankdata

from crowdmtl.annotations import (
    AnnotationTrace,
    QcPolicy,
    _average_ranks,
    concordance,
    kendalls_w,
    load_static_ratings,
    load_traces,
    median_fuse,
    pearson,
    quality_filter,
    resample_trace,
    window_last,
    write_traces,
)
from crowdmtl.errors import DataError


def make_trace(times, values, **kwargs):
    defaults = dict(
        clip_id="clip01",
        rater_id="r01",
        rater_kind="crowd",
        attribute="arousal",
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
    )
    defaults.update(kwargs)
    return AnnotationTrace(**defaults)


# --------------------------------------------------------------------------
# independent oracles


def rank_average_ties(row):
    """Hand-rolled average ranks, independent of scipy."""
    row = list(row)
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


def kendalls_w_bruteforce(ratings):
    """Direct evaluation of 12*S / (m^2(n^3 - n) - m*T) from first principles."""
    m = len(ratings)
    n = len(ratings[0])
    ranks = [rank_average_ties(row) for row in ratings]
    rank_sums = [sum(ranks[r][i] for r in range(m)) for i in range(n)]
    mean = sum(rank_sums) / n
    s = sum((ri - mean) ** 2 for ri in rank_sums)
    tie = 0.0
    for row in ratings:
        seen = {}
        for v in row:
            seen[v] = seen.get(v, 0) + 1
        tie += sum(t**3 - t for t in seen.values())
    denom = m * m * (n**3 - n) - m * tie
    return 12.0 * s / denom


def pearson_bruteforce(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    sa = sum((x - ma) ** 2 for x in a) ** 0.5
    sb = sum((y - mb) ** 2 for y in b) ** 0.5
    return cov / (sa * sb)


# --------------------------------------------------------------------------
# load_traces


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_traces_wellformed(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,2\n"
        "c1,r1,crowd,arousal,1,0\n"
        "c1,r1,crowd,arousal,2,-2\n",
    )
    traces = load_traces(path)
    assert len(traces) == 1
    tr = traces[0]
    assert tr.n_samples == 3
    # crowd values rescale from [-2, 2] to [-1, 1]
    assert np.allclose(tr.values, [1.0, 0.0, -1.0])
    assert tr.missing_fraction == 0.0


def test_load_traces_duplicate_key(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1\n"
        "c1,r1,crowd,arousal,1,1\n"
        "c2,r1,crowd,arousal,0,1\n"
        "c1,r1,crowd,arousal,0,1\n",
    )
    with pytest.raises(DataError, match=r"duplicate trace.*c1.*r1.*arousal"):
        load_traces(path)


def test_load_traces_empty_file(tmp_path):
    path = write_csv(
        tmp_path / "t.csv", "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
    )
    assert load_traces(path) == []


def test_load_traces_nonmonotone(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1\n"
        "c1,r1,crowd,arousal,2,1\n"
        "c1,r1,crowd,arousal,1.5,1\n",
    )
    with pytest.raises(DataError, match="non-monotone"):
        load_traces(path)


def test_load_traces_parse_error_line_number(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1\n"
        "c1,r1,crowd,arousal,1,not_a_number\n",
    )
    with pytest.raises(DataError, match="line 3"):
        load_traces(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_traces_rejects_nonfinite_time(tmp_path, text):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1\n"
        f"c1,r1,crowd,arousal,{text},1\n",
    )
    with pytest.raises(DataError, match="line 3: .*time_s"):
        load_traces(path)


def test_load_traces_missing_fraction_and_static(tmp_path):
    # trace covers only the first 75 of 100 seconds
    rows = "".join(f"c1,r1,crowd,arousal,{t},0.5\n" for t in range(76))
    rows += "".join(f"c1,r2,crowd,arousal,{t},0.5\n" for t in range(101))
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n" + rows,
    )
    static = write_csv(
        tmp_path / "s.csv",
        "clip_id,rater_id,attribute,static_value\nc1,r1,arousal,2\n",
    )
    traces = load_traces(path, static_path=static)
    tr = {t.rater_id: t for t in traces}
    assert tr["r1"].missing_fraction == pytest.approx(0.25, abs=1e-9)
    assert tr["r2"].missing_fraction == 0.0
    assert tr["r1"].static_rating == pytest.approx(1.0)  # rescaled from 2
    assert tr["r2"].static_rating is None


def test_write_traces_roundtrip(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1.5\n"
        "c1,r1,crowd,arousal,1,-0.25\n"
        "c1,r2,expert,arousal,0,0.75\n"
        "c1,r2,expert,arousal,1,-1\n",
    )
    traces = load_traces(path)
    out = tmp_path / "back.csv"
    write_traces(traces, out)
    again = load_traces(str(out))
    for a, b in zip(traces, again):
        assert a.key() == b.key()
        assert np.allclose(a.values, b.values)


def test_write_traces_golden_bytes(tmp_path):
    # a clip id needing quotes, and floats whose repr is easy to get wrong
    x = [-0.0, 1e-300, 0.1 + 0.2]
    traces = [
        AnnotationTrace('clip,"7"', "r1", "crowd", "arousal", x, x),
        AnnotationTrace("c2", "r 2", "expert", "valence", x, x),
    ]
    out = tmp_path / "out.csv"
    write_traces(traces, out)
    assert out.read_bytes() == (
        b"clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        b'"clip,""7""",r1,crowd,arousal,-0.0,0.0\n'
        b'"clip,""7""",r1,crowd,arousal,1e-300,0.0\n'
        b'"clip,""7""",r1,crowd,arousal,0.30000000000000004,0.6000000000000001\n'
        b"c2,r 2,expert,valence,-0.0,0.0\n"
        b"c2,r 2,expert,valence,1e-300,0.0\n"
        b"c2,r 2,expert,valence,0.30000000000000004,0.30000000000000004\n"
    )


def test_load_traces_rescale_is_exact(tmp_path):
    raw = {
        "crowd": [2.0, -2.0, 1.5, -0.25, 0.1, 0.7, 1.9999, 0.3, -1.3],
        "expert": [1.0, -1.0, 0.75, -0.1, 0.3, 0.7, 0.999, -0.6],
    }
    rows = "".join(
        f"c1,{kind},{kind},arousal,{t},{v!r}\n"
        for kind, values in raw.items()
        for t, v in enumerate(values)
    )
    path = write_csv(
        tmp_path / "t.csv", "clip_id,rater_id,rater_kind,attribute,time_s,value\n" + rows
    )
    for tr in load_traces(path):
        lo, hi = {"crowd": (-2.0, 2.0), "expert": (-1.0, 1.0)}[tr.rater_kind]
        expected = [-1.0 + (v - lo) * (1.0 - -1.0) / (hi - lo) for v in raw[tr.rater_kind]]
        assert np.array_equal(tr.values, expected)


def test_load_traces_permuted_header(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "value,time_s,attribute,rater_kind,rater_id,clip_id\n"
        "2,0,arousal,crowd,r1,c1\n"
        "-1,1,arousal,crowd,r1,c1\n",
    )
    (tr,) = load_traces(path)
    assert tr.key() == ("c1", "r1", "arousal")
    assert tr.times.tolist() == [0.0, 1.0]
    assert tr.values.tolist() == [1.0, -0.5]


def test_load_traces_whitespace_padded_fields(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        " clip_id ,rater_id,\trater_kind,attribute,time_s,value\n"
        " c1 ,\tr1, crowd ,arousal\t, 0 ,2 \n"
        "c1,r1 ,crowd, arousal,\t1\t, -2\n",
    )
    (tr,) = load_traces(path)
    assert (tr.clip_id, tr.rater_id, tr.rater_kind, tr.attribute) == (
        "c1", "r1", "crowd", "arousal",
    )
    assert tr.times.tolist() == [0.0, 1.0]
    assert tr.values.tolist() == [1.0, -1.0]


def test_load_traces_blank_line_counts_toward_line_numbers(tmp_path):
    header = "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
    good = "c1,r1,crowd,arousal,0,1\n\n   \nc1,r1,crowd,arousal,1,1\n"
    (tr,) = load_traces(write_csv(tmp_path / "t.csv", header + good))
    assert tr.n_samples == 2
    path = write_csv(tmp_path / "bad.csv", header + good + "c1,r1,crowd,arousal,2\n")
    with pytest.raises(DataError, match="line 6: expected 6 fields"):
        load_traces(path)


def test_load_traces_first_bad_line_wins(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,1\n"
        "c1,r1,crowd,arousal,1,oops\n"
        "c1,r1,crowd,arousal,2,1\n"
        "c1,r1,wizard,arousal,3,1\n",
    )
    with pytest.raises(DataError, match=r"line 3: cannot parse value='oops'"):
        load_traces(path)


def test_load_traces_rejects_kind_change_within_trace(tmp_path):
    # the expert row would be rescaled on the expert scale inside a crowd trace
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
        "c1,r1,crowd,arousal,0,2\n"
        "c1,r1,expert,arousal,1,1\n"
        "c1,r1,crowd,arousal,2,-2\n",
    )
    with pytest.raises(
        DataError, match=r"t\.csv: line 3: rater_kind changes within trace .*c1.*r1"
    ):
        load_traces(path)


# --------------------------------------------------------------------------
# quality_filter


def test_filter_constant_trace_rejected():
    tr = make_trace(range(10), [0.3] * 10)
    verdict = quality_filter(tr, QcPolicy())
    assert not verdict.accepted
    assert verdict.reason == "inactivity"


def test_filter_missing_fraction():
    tr = make_trace(range(10), np.linspace(-1, 1, 10), missing_fraction=0.25)
    verdict = quality_filter(tr, QcPolicy(max_missing_fraction=0.20))
    assert verdict.reason == "missing"


def test_filter_sign_rule():
    values = -0.4 - 0.05 * np.arange(10)  # max continuous value is -0.4
    tr = make_trace(range(10), values, static_rating=1.5)
    verdict = quality_filter(tr, QcPolicy(require_sign_consistency=True))
    assert verdict.reason == "sign"
    ok = quality_filter(tr, QcPolicy(require_sign_consistency=False))
    assert ok.accepted


def test_filter_accepts_active_trace():
    rng = np.random.default_rng(0)
    tr = make_trace(range(50), np.clip(rng.normal(0, 0.4, 50), -1, 1))
    assert quality_filter(tr, QcPolicy()).accepted


def test_filter_order_independent():
    rng = np.random.default_rng(1)
    traces = []
    for i in range(20):
        vals = np.clip(rng.normal(0, 0.3, 30), -1, 1)
        if i % 3 == 0:
            vals[:] = 0.1  # flat-liner
        traces.append(make_trace(range(30), vals, rater_id=f"r{i}"))
    policy = QcPolicy()
    verdicts = {t.rater_id: quality_filter(t, policy) for t in traces}
    shuffled = list(traces)
    rng.shuffle(shuffled)
    for t in shuffled:
        assert quality_filter(t, policy) == verdicts[t.rater_id]


# --------------------------------------------------------------------------
# resample / window / fuse


def test_resample_linear_interpolation():
    tr = make_trace([0.0, 2.0], [0.0, 1.0], rater_kind="expert")
    out = resample_trace(tr, 1.0)
    assert np.allclose(out.times, [0, 1, 2])
    assert np.allclose(out.values, [0.0, 0.5, 1.0])


def test_resample_identity_on_uniform():
    vals = np.sin(np.arange(8) / 3.0)
    tr = make_trace(np.arange(8.0), vals, rater_kind="expert")
    out = resample_trace(tr, 1.0)
    assert np.max(np.abs(out.values - vals)) <= 1e-12


def test_resample_constant():
    tr = make_trace([0.0, 10.0], [1.0, 1.0], rater_kind="expert")
    out = resample_trace(tr, 1.0)
    assert out.n_samples == 11
    assert np.all(out.values == 1.0)


def test_resample_requires_two_samples():
    tr = make_trace([0.0], [0.5])
    with pytest.raises(ValueError):
        resample_trace(tr, 1.0)


def test_window_last_basic():
    # 90 samples at 1 Hz cover 90 s; the last 50 s are the last 50 samples
    vals = np.arange(90.0) / 90.0
    tr = make_trace(np.arange(90.0), vals, rater_kind="expert")
    win = window_last(tr, 50.0)
    assert win.size == 50
    assert np.allclose(win, vals[-50:])


def test_window_last_boundary_and_error():
    vals = np.linspace(-1, 1, 50)
    tr = make_trace(np.arange(50.0), vals, rater_kind="expert")
    assert np.allclose(window_last(tr, 50.0), vals)
    short = make_trace(np.arange(30.0), vals[:30], rater_kind="expert")
    with pytest.raises(ValueError, match="shorter"):
        window_last(short, 50.0)


@pytest.mark.parametrize("window", [0.0, -3.0, float("nan"), float("inf")])
def test_window_last_rejects_a_window_that_is_not_positive(window):
    # values[-0:] is the whole trace and values[3:] drops its head
    tr = make_trace(np.arange(50.0), np.linspace(-1, 1, 50), rater_kind="expert")
    with pytest.raises(ValueError, match=f"window_s must be finite and > 0, got {window}"):
        window_last(tr, window)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_qc_policy_min_std_must_be_finite_and_nonnegative(value):
    # std < nan is false for every trace, so a nan spread rule rejected none
    with pytest.raises(ValueError, match="min_std must be finite and >= 0"):
        QcPolicy(min_std=value)


def test_median_fuse_examples():
    v = np.array([0.2, -0.1, 0.5])
    assert np.allclose(median_fuse([v]), v)
    fused = median_fuse([[1.0, 1.0], [2.0, 2.0], [100.0, 100.0]])
    assert np.allclose(fused, [2.0, 2.0])
    fused = median_fuse([[0.0, 0.0], [2.0, 2.0]])
    assert np.allclose(fused, [1.0, 1.0])


def test_median_fuse_errors():
    with pytest.raises(ValueError):
        median_fuse([])
    with pytest.raises(ValueError):
        median_fuse([[1.0, 2.0], [1.0]])


def test_median_fuse_properties():
    rng = np.random.default_rng(3)
    vectors = [rng.normal(size=20) for _ in range(5)]
    fused = median_fuse(vectors)
    perm = [vectors[i] for i in rng.permutation(5)]
    assert np.allclose(median_fuse(perm), fused)
    stack = np.vstack(vectors)
    assert np.all(fused >= stack.min(axis=0) - 1e-12)
    assert np.all(fused <= stack.max(axis=0) + 1e-12)


# --------------------------------------------------------------------------
# kendalls_w / pearson


def test_kendalls_w_perfect_agreement():
    ratings = np.vstack([np.arange(6)] * 4) + np.arange(4)[:, None] * 0.0
    assert kendalls_w(ratings) == pytest.approx(1.0)


def test_kendalls_w_reversed_pair():
    a = np.arange(6.0)
    assert kendalls_w(np.vstack([a, a[::-1]])) == pytest.approx(0.0)


def test_kendalls_w_derived_example():
    # ranks {1,2,3},{1,2,3},{3,2,1}: rank sums (5,6,7), S = 2,
    # W = 24 / (9 * 24) = 1/9 by the brute-force formula
    ratings = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    expected = kendalls_w_bruteforce(ratings.tolist())
    assert expected == pytest.approx(1.0 / 9.0)
    assert kendalls_w(ratings) == pytest.approx(expected, abs=1e-12)


def test_kendalls_w_matches_bruteforce_random():
    rng = np.random.default_rng(7)
    for trial in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        if trial % 2 == 0:
            ratings = rng.normal(size=(m, n))  # ties almost surely absent
        else:
            ratings = rng.integers(0, 4, size=(m, n)).astype(float)  # many ties
        try:
            expected = kendalls_w_bruteforce(ratings.tolist())
        except ZeroDivisionError:
            with pytest.raises(ValueError):
                kendalls_w(ratings)
            continue
        assert kendalls_w(ratings) == pytest.approx(expected, abs=1e-12)


def test_kendalls_w_monotone_transform_invariance():
    rng = np.random.default_rng(11)
    ratings = rng.normal(size=(4, 7))
    w = kendalls_w(ratings)
    transformed = ratings.copy()
    transformed[0] = np.exp(transformed[0])
    transformed[1] = 3 * transformed[1] + 1
    transformed[2] = np.tanh(transformed[2])
    assert kendalls_w(transformed) == pytest.approx(w, abs=1e-12)


def test_kendalls_w_duplicated_raters():
    rng = np.random.default_rng(13)
    ratings = rng.normal(size=(3, 6))
    w = kendalls_w(ratings)
    doubled = np.vstack([ratings, ratings])
    assert kendalls_w(doubled) == pytest.approx(w, abs=1e-12)


def test_kendalls_w_validates_input():
    with pytest.raises(ValueError):
        kendalls_w(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        kendalls_w(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="degenerate"):
        kendalls_w(np.ones((3, 4)))  # every rater ties everything


def test_kendalls_w_rejects_nan_and_ranks_inf():
    ratings = np.arange(12.0).reshape(3, 4)
    ratings[1, 2] = np.nan
    with pytest.raises(ValueError, match="ratings must not contain nan"):
        kendalls_w(ratings)
    # an infinite rating ranks above (below) every finite one of its rater
    with_inf = np.array([[1.0, np.inf, 2.0], [-np.inf, 3.0, 2.0]])
    finite = np.array([[1.0, 9.0, 2.0], [-9.0, 3.0, 2.0]])
    assert kendalls_w(with_inf) == kendalls_w(finite)


def test_average_ranks_match_oracle_and_rankdata():
    rng = np.random.default_rng(23)
    shapes = [(1, 1), (1, 9), (6, 1), (3, 5), (14, 50)]
    shapes += [(int(rng.integers(1, 8)), int(rng.integers(1, 30))) for _ in range(200)]
    for trial, (m, n) in enumerate(shapes):
        levels = trial % 5  # 1 level ties every row; 0 draws continuous values
        if levels:
            ratings = rng.integers(0, levels, size=(m, n)).astype(float)
        else:
            ratings = rng.normal(size=(m, n))
        if trial % 7 == 3:
            ratings[rng.random((m, n)) < 0.3] = np.inf
            ratings[rng.random((m, n)) < 0.3] = -np.inf
        ranks, tie_term = _average_ranks(ratings)
        assert ranks.tolist() == [rank_average_ties(row) for row in ratings.tolist()]
        assert np.array_equal(ranks, rankdata(ratings, axis=1))
        groups = [k for row in ratings.tolist() for k in Counter(row).values()]
        assert tie_term == sum(k**3 - k for k in groups)


def test_pearson_examples():
    a = np.array([0.1, 0.5, -0.2, 0.9])
    assert pearson(a, a) == pytest.approx(1.0)
    assert pearson(a, -a) == pytest.approx(-1.0)
    expected = pearson_bruteforce([1, 2, 3], [1, 2, 4])
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx((27.0 / 28.0) ** 0.5)


def test_pearson_constant_errors():
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_pearson_affine_invariance():
    rng = np.random.default_rng(17)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    r = pearson(a, b)
    assert pearson(2.5 * a + 3, b) == pytest.approx(r, abs=1e-12)
    assert pearson(a, 0.1 * b - 7) == pytest.approx(r, abs=1e-12)


def test_concordance_segments():
    rng = np.random.default_rng(19)
    ratings = rng.normal(size=(4, 50))
    full = concordance(ratings, "full")
    first = concordance(ratings, "first_half")
    second = concordance(ratings, "second_half")
    assert full.n_items == 50
    assert first.n_items == 25 and second.n_items == 25
    assert first.kendalls_w == pytest.approx(kendalls_w(ratings[:, :25]))
    assert second.kendalls_w == pytest.approx(kendalls_w(ratings[:, 25:]))


def test_load_traces_rejects_bad_enums_and_ranges(tmp_path):
    header = "clip_id,rater_id,rater_kind,attribute,time_s,value\n"
    cases = [
        ("c1,r1,wizard,arousal,0,1\n", "rater_kind"),
        ("c1,r1,crowd,happiness,0,1\n", "attribute"),
        ("c1,r1,crowd,arousal,-1,1\n", "negative time"),
        ("c1,r1,crowd,arousal,0,3.5\n", "outside the crowd range"),
        ("c1,r1,expert,arousal,0,1.5\n", "outside the expert range"),
    ]
    for row, message in cases:
        path = tmp_path / "t.csv"
        path.write_text(header + row)
        with pytest.raises(DataError, match=message):
            load_traces(str(path))


def test_load_traces_wrong_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="expected columns"):
        load_traces(str(path))


def test_load_traces_rejects_repeated_column(tmp_path):
    # a second value column must not be silently dropped
    path = write_csv(
        tmp_path / "t.csv",
        "clip_id,rater_id,rater_kind,attribute,time_s,value,value\n"
        "c1,r1,crowd,arousal,0,2,-2\n"
        "c1,r1,crowd,arousal,1,1,-1\n",
    )
    with pytest.raises(DataError, match="t.csv: line 1: expected columns"):
        load_traces(path)


@pytest.mark.parametrize(
    "header",
    [
        "clip_id,rater_id,attribute,static_value,static_value",
        "clip_id,rater_id,attribute,attribute,static_value",
        "clip_id,rater_id,attribute,static_value,extra",
    ],
)
def test_load_static_ratings_rejects_repeated_or_extra_column(tmp_path, header):
    n_fields = header.count(",") + 1
    row = ",".join(["c1", "r1", "arousal", "2", "1"][:n_fields])
    path = write_csv(tmp_path / "s.csv", f"{header}\n{row}\n")
    with pytest.raises(DataError, match="s.csv: line 1: expected columns"):
        load_static_ratings(path)


@pytest.mark.parametrize("value", ["7", "-2.5", "2.000001"])
def test_load_static_ratings_rejects_values_off_the_crowd_slider(tmp_path, value):
    # the crowd slider's raw [-2, 2], with the 1e-9 tolerance of trace values
    text = "clip_id,rater_id,attribute,static_value\nc1,r1,arousal,-2\nc1,r2,arousal,2.0000000005\n"
    path = write_csv(tmp_path / "s.csv", text)
    assert load_static_ratings(path) == {
        ("c1", "r1", "arousal"): -1.0,
        ("c1", "r2", "arousal"): pytest.approx(1.0),
    }
    write_csv(tmp_path / "s.csv", text + f"c1,r3,arousal,{value}\n")
    message = rf"s.csv: line 4: static_value {float(value)} outside the crowd range \[-2, 2\]"
    with pytest.raises(DataError, match=message):
        load_static_ratings(path)


def test_segment_slice_rejects_unknown():
    from crowdmtl.annotations import segment_slice

    with pytest.raises(ValueError, match="unknown segment"):
        segment_slice(np.zeros(10), "middle")


def test_trace_samples_property():
    tr = make_trace([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert tr.samples == [(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)]


def test_parse_numbers_fast_path_falls_back_without_losing_values(tmp_path):
    from crowdmtl.annotations import parse_numbers

    header = ["a", "b", "c"]
    # the sum of two finite values overflows; a \x1c-padded field fails float()
    row = ["1e308", "1e308", " 2\x1c"]
    assert parse_numbers(row, [0, 1, 2], header, "t.csv", 2) == [1e308, 1e308, 2.0]
    with pytest.raises(DataError, match=r"t\.csv: line 5: non-finite numeric field b='-inf'"):
        parse_numbers(["1", " -inf "], [0, 1], header, "t.csv", 5)
