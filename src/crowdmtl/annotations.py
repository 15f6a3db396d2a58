"""Time-continuous affect annotation handling.

A trace is one rater's arousal-or-valence signal for one clip. This module
loads traces from CSV into one `TraceTable`, applies slider quality
control, resamples onto uniform grids, windows and fuses them, and
computes inter-rater agreement statistics (Kendall's W, Pearson).

A table holds float64 `times` and `values` of all traces end to end, int64
`offsets` (trace i is rows offsets[i]:offsets[i+1]) and per trace its clip
and rater (codes into `clip_ids`, `rater_ids`), kind and attribute (codes
into RATER_KINDS, ATTRIBUTES), missing fraction and static rating (nan for
none). Its items are `AnnotationTrace` views of its rows, not validated
again. `qc_reasons`, `resample_windows` and `write_traces` take a table;
`quality_filter`, `resample_trace` and `window_last` are one-trace forms.

Ratings are kept on the canonical [-1, 1] scale in memory. Crowd slider
values live in [-2, 2] on disk and are rescaled at load time; writing
traces back inverts the rescale, so files always carry raw slider units.
"""

from __future__ import annotations

import bisect
import copy
import csv
import dataclasses
import io
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError

RATER_KINDS = ("crowd", "expert")
ATTRIBUTES = ("arousal", "valence")
SEGMENTS = ("full", "first_half", "second_half")

CANONICAL_RANGE = (-1.0, 1.0)
RAW_RANGES = {"crowd": (-2.0, 2.0), "expert": (-1.0, 1.0)}
RAW_TOLERANCE = 1e-9  # how far past its slider a raw value may lie

TRACE_COLUMNS = ("clip_id", "rater_id", "rater_kind", "attribute", "time_s", "value")
STATIC_COLUMNS = ("clip_id", "rater_id", "attribute", "static_value")

# the columnar path of load_traces reads a plain file in chunks of whole
# lines of about this many characters
TRACE_CHUNK_CHARS = 16384
_BATCH_SAMPLES = 4096  # samples of the traces of one length reduced at once
_GRID_BLOCK = 65536  # grid points whose steps are checked at once
_WRITE_ROWS = 8192  # rows write_traces formats at once
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
_KIND_CODES = {kind: code for code, kind in enumerate(RATER_KINDS)}
_ATTRIBUTE_CODES = {attribute: code for code, attribute in enumerate(ATTRIBUTES)}
_RAW_BOUNDS = np.array([RAW_RANGES[kind] for kind in RATER_KINDS])  # by kind code
_RAW_LOW = _RAW_BOUNDS[:, 0] - RAW_TOLERANCE
_RAW_HIGH = _RAW_BOUNDS[:, 1] + RAW_TOLERANCE


@dataclass
class AnnotationTrace:
    """One rater's continuous rating signal for one clip and attribute."""

    clip_id: str
    rater_id: str
    rater_kind: str
    attribute: str
    times: np.ndarray
    values: np.ndarray
    static_rating: float | None = None
    missing_fraction: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.rater_kind not in RATER_KINDS:
            raise ValueError(f"unknown rater_kind {self.rater_kind!r}")
        if self.attribute not in ATTRIBUTES:
            raise ValueError(f"unknown attribute {self.attribute!r}")
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        lo, hi = CANONICAL_RANGE
        if self.values.size and (
            self.values.min() < lo - 1e-12 or self.values.max() > hi + 1e-12
        ):
            raise ValueError(f"values outside the canonical range [{lo}, {hi}]")
        if not 0.0 <= self.missing_fraction <= 1.0:
            raise ValueError("missing_fraction must lie in [0, 1]")

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def key(self) -> tuple[str, str, str]:
        return (self.clip_id, self.rater_id, self.attribute)


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Traces end to end; see the module docstring."""

    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    clips: np.ndarray
    raters: np.ndarray
    kinds: np.ndarray
    attributes: np.ndarray
    clip_ids: tuple
    rater_ids: tuple
    missing: np.ndarray
    static: np.ndarray

    @classmethod
    def from_traces(cls, traces) -> TraceTable:
        traces = list(traces)
        return _table(
            [tr.key() for tr in traces],
            [_KIND_CODES[tr.rater_kind] for tr in traces],
            np.concatenate([[], *(tr.times for tr in traces)]),
            np.concatenate([[], *(tr.values for tr in traces)]),
            np.cumsum([0, *(tr.n_samples for tr in traces)]),
            [np.nan if tr.static_rating is None else tr.static_rating for tr in traces],
            [tr.missing_fraction for tr in traces],
        )

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i) -> AnnotationTrace:
        i = range(len(self))[i]
        a, b, static = self.offsets[i], self.offsets[i + 1], float(self.static[i])
        view = object.__new__(AnnotationTrace)  # the table has checked its rows
        view.__dict__.update(
            clip_id=self.clip_ids[self.clips[i]],
            rater_id=self.rater_ids[self.raters[i]],
            rater_kind=RATER_KINDS[self.kinds[i]],
            attribute=ATTRIBUTES[self.attributes[i]],
            times=self.times[a:b],
            values=self.values[a:b],
            static_rating=None if math.isnan(static) else static,
            missing_fraction=float(self.missing[i]),
        )
        return view

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def select(self, rows) -> TraceTable:
        """The traces `rows` of this table, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.lengths[rows]
        offsets = np.cumsum([0, *lengths.tolist()])
        take = np.repeat(self.offsets[rows] - offsets[:-1], lengths) + np.arange(offsets[-1])
        per_trace = ("clips", "raters", "kinds", "attributes", "missing", "static")
        return dataclasses.replace(
            self, times=self.times[take], values=self.values[take], offsets=offsets,
            **{name: getattr(self, name)[rows] for name in per_trace},
        )


def _codes(names):
    """Each name's index among the distinct names, and those names."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(n, len(index)) for n in names), np.int64, len(names))
    return codes, tuple(index)


def _table(keys, kinds, times, values, offsets, static, missing=None) -> TraceTable:
    """The table of traces of these (clip, rater, attribute) keys and kind
    codes; missing fractions are computed where not given."""
    clips, clip_ids = _codes([key[0] for key in keys])
    raters, rater_ids = _codes([key[1] for key in keys])
    if missing is None:
        clip_end = np.zeros(len(clip_ids))
        np.maximum.at(clip_end, clips, times[offsets[1:] - 1])
        missing = _missing_fractions(times, offsets, clip_end[clips])
    attributes = [_ATTRIBUTE_CODES[key[2]] for key in keys]
    return TraceTable(
        times, values, offsets, clips, raters, np.array(kinds, dtype=np.int64),
        np.array(attributes, dtype=np.int64), clip_ids, rater_ids,
        np.array(missing, dtype=float), np.array(static, dtype=float),
    )


def _stacks(flat, offsets, rows=None):
    """(rows, stack) pairs over the traces `rows` (all by default) of
    `offsets` into `flat`, the segments of one length stacked, at most
    _BATCH_SAMPLES samples a stack: numpy reduces a row as a segment."""
    lengths = np.diff(offsets)
    rows = np.arange(lengths.size) if rows is None else np.asarray(rows, dtype=np.int64)
    rows = rows[np.argsort(lengths[rows], kind="stable")]
    for group in np.split(rows, np.flatnonzero(np.diff(lengths[rows])) + 1):
        n = int(lengths[group[0]]) if group.size else 0
        step = max(_BATCH_SAMPLES // max(n, 1), 1)
        for k in range(0, group.size, step):
            batch = group[k : k + step]
            yield batch, flat[offsets[batch, None] + np.arange(n)]


class RowError(ValueError):
    """A ValueError about trace `row` of a table."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _raise_first(rules) -> None:
    """RowError at the first trace failing a rule (mask, message or
    message of a row), with the message of its first failing rule."""
    failing = np.flatnonzero(np.any([mask for mask, _ in rules], axis=0))
    if failing.size:
        row = int(failing[0])
        message = next(message for mask, message in rules if mask[row])
        raise RowError(row, message(row) if callable(message) else message)


@dataclass(frozen=True)
class QcPolicy:
    """Thresholds for discarding bad-quality annotations.

    A trace is rejected when too much of it is missing, when the slider
    barely moved (low active fraction or near-zero spread), or -- with the
    sign rule on -- when the overall self-report contradicts the sign of
    the extremal continuous value.
    """

    max_missing_fraction: float = 0.20
    min_active_fraction: float = 0.20
    min_std: float = 0.01
    require_sign_consistency: bool = False

    def __post_init__(self):
        for name in ("max_missing_fraction", "min_active_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (np.isfinite(self.min_std) and self.min_std >= 0):
            raise ValueError(f"min_std must be finite and >= 0, got {self.min_std}")


@dataclass(frozen=True)
class QcVerdict:
    accepted: bool
    reason: str | None = None  # "missing" | "inactivity" | "sign"


@dataclass(frozen=True)
class ConcordanceReport:
    kendalls_w: float
    n_raters: int
    n_items: int
    segment: str


def qc_reasons(table: TraceTable, policy: QcPolicy) -> list:
    """The first rule each trace fails ("missing", "inactivity" or "sign"),
    or None. The active fraction is the time of the steps over which the
    slider moved over the trace's span; the sign rule reads the first value
    of largest magnitude, and a zero carries no sign evidence."""
    m, times, values, offsets, n = len(table), table.times, table.values, table.offsets, table.lengths
    moved = np.abs(np.diff(values)) > 0
    edges = offsets[1:-1]
    moved[edges[(edges > 0) & (edges < times.size)] - 1] = False  # no step joins two traces
    active, std, span, extremal = np.zeros(m), np.zeros(m), np.zeros(m), np.zeros(m)
    for rows, stack in _stacks(np.diff(times)[moved], np.searchsorted(np.flatnonzero(moved), offsets)):
        active[rows] = stack.sum(axis=1)
    for rows, stack in _stacks(values, offsets, np.flatnonzero(n)):
        std[rows] = np.std(stack, axis=1)
    some = n >= 2
    span[some] = times[offsets[1:][some] - 1] - times[offsets[:-1][some]]
    with np.errstate(divide="ignore", invalid="ignore"):
        active = np.where(some & (span > 0), active / span, 0.0)
    missing = table.missing > policy.max_missing_fraction
    inactive = ~missing & ((active < policy.min_active_fraction) | (std < policy.min_std))
    sign = np.zeros(m, dtype=bool)
    if policy.require_sign_consistency:
        static = table.static
        for rows, stack in _stacks(values, offsets, np.flatnonzero(~missing & ~inactive & ~np.isnan(static))):
            extremal[rows] = stack[np.arange(rows.size), np.argmax(np.abs(stack), axis=1)]
        sign = np.isnan(static) | (
            (static != 0) & (extremal != 0) & (np.sign(static) != np.sign(extremal))
        )
    reasons = np.full(m, None, dtype=object)
    reasons[sign], reasons[inactive], reasons[missing] = "sign", "inactivity", "missing"
    return reasons.tolist()


def quality_filter(trace: AnnotationTrace, policy: QcPolicy) -> QcVerdict:
    """Accept or reject one trace; the reason names the first failing rule."""
    (reason,) = qc_reasons(TraceTable.from_traces([trace]), policy)
    return QcVerdict(reason is None, reason)


def _grid(t0, start: int, stop: int, rate_hz: float) -> np.ndarray:
    """Points start..stop-1 of the uniform grid from t0 at rate_hz."""
    return t0 + np.arange(start, stop) / rate_hz


def _window_sizes(window_s, n, step, deviation, earlier=()) -> np.ndarray:
    """Samples in the last `window_s` seconds of each trace of n samples,
    steps within `deviation` of the first, `step`, each sample counting
    for one step; RowError at the first trace failing a rule."""
    with np.errstate(all="ignore"):
        rate = 1.0 / step
        need = np.round(window_s * rate)
        valid = bool(np.isfinite(window_s) and window_s > 0)
        _raise_first([
            *earlier,
            (np.full(n.size, not valid), f"window_s must be finite and > 0, got {window_s}"),
            (n < 2, "windowing requires a uniform trace with >= 2 samples"),
            (deviation > 1e-9 * np.maximum(1.0, np.abs(step)), "trace is not uniformly sampled"),
            ((need < 1) | (np.abs(window_s * rate - need) > 1e-9),
             "window_s must be a whole number of samples"),
            (n < need, lambda i: f"trace covers {int(n[i]) / (1.0 / float(step[i])):g} s, "
             f"shorter than the {window_s:g} s window"),
        ])
    return need.astype(np.int64)


def resample_windows(table: TraceTable, rate_hz: float, window_s: float | None = None):
    """The values of each trace linearly interpolated onto a uniform grid
    from its first sample time, end to end, and their offsets.

    Each sample holds for the trace's median interval, so n samples at f Hz
    cover n/f seconds at every rate; boundary values are held. With
    `window_s`, only the last `window_s` seconds of each grid are made,
    checked as window_last checks them (a grid whose rounding could unsettle
    its steps a block at a time). RowError names the first failing trace.
    """
    m, times, offsets = len(table), table.times, table.offsets
    ok = table.lengths >= 2
    t0, t1, period = np.zeros(m), np.zeros(m), np.ones(m)
    t0[ok], t1[ok] = times[offsets[:-1][ok]], times[offsets[1:][ok] - 1]
    for rows, stack in _stacks(times, offsets, np.flatnonzero(ok)):
        dt = np.sort(np.diff(stack, axis=1), axis=1)
        period[rows] = (dt[:, (dt.shape[1] - 1) // 2] + dt[:, dt.shape[1] // 2]) / 2
    with np.errstate(all="ignore"):
        n = np.maximum(np.ceil((t1 - t0 + period) * rate_hz - 1e-9), 1)
        step = (t0 + 1 / rate_hz) - (t0 + 0 / rate_hz)  # the grid's first step
        # past this, float rounding could move a step by 1e-9 of it
        unsure = ok & (n >= 2) & (2.0**-46 * (np.abs(t0) + (2 * n + 1) / rate_hz)
                                  >= 1e-9 * np.maximum(1.0, np.abs(step)))
    earlier = [(~ok, "resampling requires at least 2 samples"),
               (np.full(m, not 0 < rate_hz < math.inf), f"rate_hz must be finite and > 0, got {rate_hz}")]
    if window_s is None:
        _raise_first(earlier)
        counts = n.astype(np.int64)
    else:
        deviation = np.zeros(m)
        for i in np.flatnonzero(unsure):
            size = int(n[i])
            deviation[i] = max(
                np.max(np.abs(np.diff(_grid(t0[i], k, min(k + _GRID_BLOCK, size - 1) + 1,
                                            rate_hz)) - step[i]))
                for k in range(0, size - 1, _GRID_BLOCK)
            )
        counts = _window_sizes(window_s, n, step, deviation, earlier)
    out = np.cumsum([0, *counts.tolist()])
    values = np.empty(out[-1])
    for first, size, a, b, lo, hi in zip(t0.tolist(), n.astype(np.int64).tolist(), out[:-1].tolist(),
                                         out[1:].tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
        grid = _grid(first, size - (b - a), size, rate_hz)
        values[a:b] = np.interp(grid, times[lo:hi], table.values[lo:hi])
    return values, out


def resample_trace(trace: AnnotationTrace, rate_hz: float = 1.0) -> AnnotationTrace:
    """`trace` on the uniform grid of resample_windows."""
    values, _ = resample_windows(TraceTable.from_traces([trace]), rate_hz)
    # a copy, not a re-validated trace: the grid increases and interp stays in range
    out = copy.copy(trace)
    out.times, out.values = _grid(float(trace.times[0]), 0, values.size, rate_hz), values
    return out


def window_last(trace: AnnotationTrace, window_s: float = 50.0) -> np.ndarray:
    """Return the ratings covering the final `window_s` seconds.

    The trace must be uniformly sampled; each sample counts for one
    sampling period, so a trace of n samples at rate f covers n/f seconds.
    """
    n = trace.n_samples
    dt = np.diff(trace.times) if n >= 2 else np.ones(1)
    need = _window_sizes(window_s, np.array([n]), dt[:1], np.max(np.abs(dt - dt[0]), keepdims=True))
    return trace.values[n - int(need[0]) :].copy()


def median_fuse(vectors) -> np.ndarray:
    """Element-wise median of aligned rating vectors (robust to outliers)."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        raise ValueError("median_fuse requires at least one vector")
    n = vectors[0].size
    for v in vectors:
        if v.ndim != 1 or v.size != n:
            raise ValueError("all vectors must be 1-D and of equal length")
    return np.median(np.vstack(vectors), axis=0)


def _average_ranks(ratings: np.ndarray):
    """Row-wise 1-based ranks of a nan-free matrix, tied values sharing their
    mean rank, and the tie term: the sum of k^3 - k over all tie groups of k.

    Every rank is a half-integer and the tie term an integer, so both are
    exact in float64.
    """
    m, n = ratings.shape
    order = np.argsort(ratings, axis=1)
    ordered = np.take_along_axis(ratings, order, axis=1)
    starts_group = np.ones((m, n), dtype=bool)
    starts_group[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    # each row opens a group, so no group spans two rows of the flat order
    starts = np.flatnonzero(starts_group)
    sizes = np.diff(np.append(starts, m * n))
    # a group at 0-based column s of its sorted row holds ranks s+1 .. s+size
    mean_rank = starts % n + (sizes + 1) / 2
    ranks = np.empty((m, n))
    np.put_along_axis(ranks, order, np.repeat(mean_rank, sizes).reshape(m, n), axis=1)
    return ranks, float(np.sum(sizes**3 - sizes))


def kendalls_w(ratings) -> float:
    """Kendall's coefficient of concordance for an m-raters x n-items matrix.

    Uses the rank-sum form 12*S / (m^2 (n^3 - n) - m * T) with average
    ranks for ties and the usual per-rater tie correction T.
    """
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 2:
        raise ValueError("ratings must be a 2-D matrix (raters x items)")
    m, n = ratings.shape
    if m < 2 or n < 2:
        raise ValueError("need at least 2 raters and 2 items")
    if np.isnan(ratings).any():
        raise ValueError("ratings must not contain nan")
    ranks, tie_term = _average_ranks(ratings)
    rank_sums = ranks.sum(axis=0)
    s = float(np.sum((rank_sums - rank_sums.mean()) ** 2))
    denom = m * m * (n**3 - n) - m * tie_term
    if denom <= 0:
        raise ValueError("degenerate ratings: every rater ties all items")
    w = 12.0 * s / denom
    return float(min(max(w, 0.0), 1.0))


def pearson(a, b) -> float:
    """Sample Pearson correlation; raises on constant input."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if a.size < 2:
        raise ValueError("need at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    sa = float(np.sqrt(np.sum(da * da)))
    sb = float(np.sqrt(np.sum(db * db)))
    if sa == 0.0 or sb == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    r = float(np.sum(da * db) / (sa * sb))
    return float(min(max(r, -1.0), 1.0))


def segment_slice(vector: np.ndarray, segment: str) -> np.ndarray:
    """Slice a windowed vector into its full / first-half / second-half part."""
    if segment not in SEGMENTS:
        raise ValueError(f"unknown segment {segment!r}")
    vector = np.asarray(vector)
    half = vector.shape[-1] // 2
    if segment == "first_half":
        return vector[..., :half]
    if segment == "second_half":
        return vector[..., half:]
    return vector


def concordance(ratings, segment: str = "full") -> ConcordanceReport:
    """Kendall's W over the chosen segment of a raters x items matrix."""
    part = segment_slice(np.asarray(ratings, dtype=float), segment)
    w = kendalls_w(part)
    return ConcordanceReport(
        kendalls_w=w,
        n_raters=int(part.shape[0]),
        n_items=int(part.shape[1]),
        segment=segment,
    )


def _rescale(value, raw_range: tuple[float, float]):
    # a float or an array: numpy rounds each element as float arithmetic does
    lo, hi = raw_range
    clo, chi = CANONICAL_RANGE
    return clo + (value - lo) * (chi - clo) / (hi - lo)


def _unscale(value, raw_range: tuple[float, float]):
    lo, hi = raw_range
    clo, chi = CANONICAL_RANGE
    return lo + (value - clo) * (hi - lo) / (chi - clo)


def _csv_rows(reader, path):
    """The rows of the csv `reader`. A line `csv` cannot read, such as one
    with a field over `csv.field_size_limit()`, is a DataError naming it."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def read_header(fh, path, columns, leading=False):
    """Read the header of `fh`, as of every CSV table the package reads.
    Return the rows of a csv reader at its first data row, line 2; the
    header; and the index of each of `columns`, which the header holds in
    any order, each once. With `leading`, the header starts with `columns`
    and more follow, and every index is returned."""
    reader = _csv_rows(csv.reader(fh), path)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: line 1: empty file, expected header") from None
    if leading:
        ok = header[: len(columns)] == list(columns) and len(header) > len(columns)
        expected = f"header {','.join((*columns, '...'))}"
    else:
        ok = sorted(header) == sorted(columns)
        expected = f"columns {','.join(columns)}"
    if not ok:
        raise DataError(f"{path}: line 1: expected {expected}, got {','.join(header)}")
    indices = range(len(header)) if leading else map(header.index, columns)
    return reader, header, list(indices)


def data_rows(reader, n_fields: int, path):
    """(line number, row) of each data row, all of `n_fields` fields; blank
    rows are skipped, and other rows are a DataError."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) == n_fields:
            yield lineno, row
        elif row and not (len(row) == 1 and not row[0].strip()):
            raise DataError(f"{path}: line {lineno}: expected {n_fields} fields")


def parse_numbers(row, indices, header, path, lineno: int) -> list[float]:
    """The finite floats of the fields of `row` at `indices`."""
    try:
        values = [float(row[i]) for i in indices]
        if math.isfinite(sum(values)):  # any nan or inf term makes the sum so
            return values
    except ValueError:
        pass
    # float() ignores surrounding whitespace but for \x1c-\x1f, which
    # str.strip() removes: so a failed field is stripped and parsed again
    values = []
    for i in indices:
        text, column = row[i].strip(), header[i]
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: cannot parse {column}={text!r}") from None
        if not math.isfinite(values[-1]):
            raise DataError(f"{path}: line {lineno}: non-finite numeric field {column}={text!r}")
    return values


def load_static_ratings(path) -> dict[tuple[str, str, str], float]:
    """Load the sidecar static-ratings CSV, values rescaled to [-1, 1].

    Static ratings are crowd self-reports on the raw [-2, 2] slider scale;
    a value outside it, beyond the trace values' RAW_TOLERANCE, is a
    DataError.
    """
    out: dict[tuple[str, str, str], float] = {}
    lo, hi = RAW_RANGES["crowd"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, cols = read_header(fh, path, STATIC_COLUMNS)
        i_clip, i_rater, i_attr, i_value = cols
        for lineno, row in data_rows(reader, len(header), path):
            attribute = row[i_attr].strip()
            if attribute not in ATTRIBUTES:
                raise DataError(f"{path}: line {lineno}: unknown attribute {attribute!r}")
            (value,) = parse_numbers(row, (i_value,), header, path, lineno)
            if not lo - RAW_TOLERANCE <= value <= hi + RAW_TOLERANCE:
                raise DataError(
                    f"{path}: line {lineno}: static_value {value} outside the crowd range "
                    f"[{lo:g}, {hi:g}]"
                )
            key = (row[i_clip].strip(), row[i_rater].strip(), attribute)
            if key in out:
                raise DataError(f"{path}: line {lineno}: duplicate static rating for {key}")
            out[key] = _rescale(value, RAW_RANGES["crowd"])
    return out


def _missing_fractions(times, offsets, clip_ends) -> np.ndarray:
    """Per trace, the gap mass (leading + oversized interior + trailing) over
    the span of its clip, `clip_ends` in trace order.

    Interior gaps count their excess past the trace's median interval. A
    trace of one sample is all missing, and a clip ending at 0 s misses
    nothing; a trace of 2 or more samples ends after 0 s.
    """
    fractions = np.ones(len(offsets) - 1)
    for rows, stacked in _stacks(times, offsets):
        if stacked.shape[1] >= 2:
            ends = clip_ends[rows]
            dt = np.diff(stacked, axis=1)
            dt -= np.median(dt, axis=1)[:, None]
            gaps = stacked[:, 0] + np.maximum(dt, 0.0, out=dt).sum(axis=1)
            gaps += np.maximum(ends - stacked[:, -1], 0.0)
            fractions[rows] = np.clip(gaps / ends, 0.0, 1.0)
    fractions[clip_ends <= 0] = 0.0
    return fractions


class _TraceColumns:
    """A trace file as read: each block's key, kind code and first row,
    and every row's time and canonical value."""

    def __init__(self):
        self.blocks: dict = {}  # key: kind code, in file order
        self.starts: list[int] = []
        self.times, self.values = array("d"), array("d")

    def open(self, key, kind: int, start: int) -> bool:
        """Open a block at row `start`; False if `key` opened one before."""
        if key in self.blocks:
            return False
        self.blocks[key] = kind
        self.starts.append(start)
        return True

    def add(self, times, raw_values, kinds) -> None:
        """Append rows, given their times, raw values and kind codes; a raw
        value within RAW_TOLERANCE past the slider is taken as its end."""
        lo, hi = CANONICAL_RANGE
        values = _rescale(np.asarray(raw_values, dtype=float), _RAW_BOUNDS[kinds].T)
        self.times.frombytes(np.asarray(times, dtype=float).tobytes())
        self.values.frombytes(np.minimum(np.maximum(values, lo), hi).tobytes())


def _named(key) -> str:
    return f"(clip_id={key[0]}, rater_id={key[1]}, attribute={key[2]})"


def _row_trace_blocks(path) -> _TraceColumns:
    """The blocks of the trace CSV `path`, read row by row by `csv`.

    Rows are checked in file order, so the first bad line is the one
    reported. Only the open block is held as Python floats.
    """
    columns = _TraceColumns()
    key = kind_of_block = None
    times: list[float] = []
    raw_values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, cols = read_header(fh, path, TRACE_COLUMNS)
        i_clip, i_rater, i_kind, i_attr, i_time, i_value = cols
        for lineno, row in data_rows(reader, len(header), path):
            kind = row[i_kind].strip()
            if kind not in RATER_KINDS:
                raise DataError(f"{path}: line {lineno}: unknown rater_kind {kind!r}")
            attribute = row[i_attr].strip()
            if attribute not in ATTRIBUTES:
                raise DataError(f"{path}: line {lineno}: unknown attribute {attribute!r}")
            t, v = parse_numbers(row, (i_time, i_value), header, path, lineno)
            if t < 0:
                raise DataError(f"{path}: line {lineno}: negative time_s")
            lo, hi = RAW_RANGES[kind]
            if not lo - RAW_TOLERANCE <= v <= hi + RAW_TOLERANCE:
                raise DataError(
                    f"{path}: line {lineno}: value {v} outside the {kind} range "
                    f"[{lo:g}, {hi:g}]"
                )
            row_key = (row[i_clip].strip(), row[i_rater].strip(), attribute)
            if row_key != key:
                if key is not None:
                    columns.add(times, raw_values, _KIND_CODES[kind_of_block])
                if not columns.open(row_key, _KIND_CODES[kind], len(columns.times)):
                    raise DataError(f"{path}: line {lineno}: duplicate trace for {_named(row_key)}")
                key, kind_of_block, times, raw_values = row_key, kind, [], []
            elif kind != kind_of_block:
                raise DataError(
                    f"{path}: line {lineno}: rater_kind changes within trace {_named(key)} "
                    f"from {kind_of_block!r} to {kind!r}"
                )
            elif t <= times[-1]:
                raise DataError(
                    f"{path}: line {lineno}: non-monotone timestamp {t} for {_named(key)}"
                )
            times.append(t)
            raw_values.append(v)
    if key is not None:
        columns.add(times, raw_values, _KIND_CODES[kind_of_block])
    return columns


def _line_chunks(fh):
    """The rest of `fh` as chunks of whole lines, each of about
    TRACE_CHUNK_CHARS characters or one longer line; a last line without a
    newline is given one."""
    pending: list[str] = []
    while piece := fh.read(TRACE_CHUNK_CHARS):
        cut = piece.rfind("\n") + 1
        if not cut:
            pending.append(piece)
            continue
        pending.append(piece[:cut])
        yield "".join(pending)
        pending = [piece[cut:]]
    rest = "".join(pending)
    if rest:
        yield rest + "\n"


def _plain_trace_blocks(path) -> _TraceColumns | None:
    """The blocks of the trace CSV `path`, read by columns, or None if the
    file is not plain.

    A plain file has no quote, CR, NUL or line near `csv`'s field size
    limit, so its fields are those `csv` reads; every line holds the
    header's fields; no id or enum is padded; float() parses every number;
    and every row rule holds, checked on the whole columns of a chunk. A
    row opens a block where its clip, rater, kind and attribute fields are
    not those of the row before, and only such rows are decoded.
    """
    columns = _TraceColumns()
    ids: dict[str, str] = {}  # one str object per distinct id
    kind, last_time, before = 0, None, None  # of the open block, and its last key fields
    with open(path, newline="", encoding="utf-8") as fh:
        _, header, cols = read_header(fh, path, TRACE_COLUMNS)
        n_fields, (i_time, i_value) = len(header), cols[4:]
        separators = b"," * (n_fields - 1) + b"\n"
        field_limit = csv.field_size_limit()
        for text in _line_chunks(fh):
            n_rows = text.count("\n")
            if '"' in text or "\r" in text or "\0" in text or len(text) > field_limit:
                return None
            raw = text.encode()
            # UTF-8 encodes no other character with the bytes of "," or "\n"
            if raw.translate(None, _NOT_SEPARATORS) != separators * n_rows:
                return None
            fields = text.replace("\n", ",").split(",")
            fields.pop()  # the empty field after the last newline
            try:
                t = np.fromiter(map(float, fields[i_time::n_fields]), float, n_rows)
                v = np.fromiter(map(float, fields[i_value::n_fields]), float, n_rows)
            except ValueError:
                return None
            keys = list(zip(*(fields[i::n_fields] for i in cols[:4])))
            # the row opens a block
            new = np.fromiter(map(operator.ne, keys, [before, *keys[:-1]]), bool, n_rows)
            before = keys[-1]
            # within a block, also across the chunk edge: strictly increasing times
            if (not new[0] and t[0] <= last_time) or ((t[1:] <= t[:-1]) & ~new[1:]).any():
                return None
            opened = np.flatnonzero(new).tolist()
            codes = [kind]
            for r in opened:
                clip, rater, kind, attribute = keys[r]
                kind, attribute = _KIND_CODES.get(kind), _ATTRIBUTE_CODES.get(attribute)
                if kind is None or attribute is None or clip != clip.strip() or rater != rater.strip():
                    return None
                # each id is kept as one shared str, and the chunk's fields
                # are freed: few kept objects sit among them, so the memory
                # they took is reused, which keeps peak RSS down
                key = (ids.setdefault(clip, clip), ids.setdefault(rater, rater), ATTRIBUTES[attribute])
                if not columns.open(key, kind, len(columns.times) + r):
                    return None
                codes.append(kind)
            del fields, keys
            kinds = np.repeat(codes, np.diff([0, *opened, n_rows]))
            in_range = (_RAW_LOW[kinds] <= v) & (v <= _RAW_HIGH[kinds])
            if not (np.isfinite(t).all() and in_range.all()) or (t < 0).any():
                return None
            columns.add(t, v, kinds)
            last_time = t[-1]
    return columns


def load_traces(path, static_path=None) -> TraceTable:
    """Parse a trace CSV into a table of canonical-scale traces.

    One trace per contiguous (clip_id, rater_id, attribute) block of rows;
    a key reappearing in a later block is a duplicate, and every row of a
    block must have the same rater_kind. The missing fraction is computed
    against the latest sample time seen for that clip.

    Two paths give bitwise-equal tables. A plain file -- what write_traces
    writes for ids that need no quotes and have no padding -- is read by
    columns in chunks of about TRACE_CHUNK_CHARS characters. Any other file
    is read again by the row loop, which reports the first bad line.
    """
    statics = load_static_ratings(static_path) if static_path else {}
    columns = _plain_trace_blocks(path)
    if columns is None:
        columns = _row_trace_blocks(path)
    keys, times = list(columns.blocks), np.frombuffer(columns.times, dtype=float)
    offsets = np.array([*columns.starts, times.size], dtype=np.int64)
    return _table(keys, list(columns.blocks.values()), times, np.frombuffer(columns.values),
                  offsets, [statics.get(key, np.nan) for key in keys])


def _csv_prefix(fields) -> str:
    """`fields` as the start of a CSV row, quoted by `csv`, with a comma."""
    lead = io.StringIO()
    csv.writer(lead, lineterminator="\n").writerow([*fields, ""])
    return lead.getvalue()[:-1]


def _sample_text(prefixes, bounds, times, values, cache) -> str:
    """Lines of prefix j and ``repr`` of the time and value of each row
    bounds[j]:bounds[j + 1]; each time is formatted once, kept in `cache`
    by its bit pattern so -0.0 keeps its sign."""
    keys, inverse = np.unique(np.ascontiguousarray(times, dtype=float).view(np.int64),
                              return_inverse=True)
    if len(cache) > _WRITE_ROWS:
        cache.clear()
    texts = [cache.get(key) or cache.setdefault(key, f"{t!r},")
             for key, t in zip(keys.tolist(), keys.view(float).tolist())]
    time_text = np.array(texts, dtype=object)[inverse].tolist()
    value_text = repr(np.asarray(values, dtype=float).tolist())[1:-1].split(", ")
    return "".join([
        prefix + f"\n{prefix}".join(map(operator.concat, time_text[a:b], value_text[a:b])) + "\n"
        for prefix, a, b in zip(prefixes, bounds, bounds[1:]) if b > a
    ])


def write_sample_csv(path, columns, blocks) -> None:
    """Write a CSV of time-stamped samples, one block of rows at a time.

    `columns` is the header. Each block is (text fields, times, values):
    every row of a block starts with the same text fields, quoted by `csv`
    where needed, and ends with ``repr`` of its time and of its value.
    """
    cache: dict = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(columns)
        for fields, times, values in blocks:
            fh.write(_sample_text([_csv_prefix(fields)], [0, len(times)], times, values, cache))


def write_traces(traces, path) -> None:
    """Write a table, or traces, in raw slider units (inverse of load)."""
    table = traces if isinstance(traces, TraceTable) else TraceTable.from_traces(traces)
    clips, raters = ([_csv_prefix([name]) for name in names] for names in (table.clip_ids, table.rater_ids))
    prefixes = [
        f"{clips[c]}{raters[r]}{RATER_KINDS[k]},{ATTRIBUTES[a]},"
        for c, r, k, a in zip(table.clips.tolist(), table.raters.tolist(),
                              table.kinds.tolist(), table.attributes.tolist())
    ]
    offsets, cache, i = table.offsets.tolist(), {}, 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(TRACE_COLUMNS)
        while i < len(table):
            j = max(bisect.bisect_right(offsets, offsets[i] + _WRITE_ROWS) - 1, i + 1)
            a, b = offsets[i], offsets[j]
            kinds = np.repeat(table.kinds[i:j], table.lengths[i:j])
            raw = _unscale(table.values[a:b], _RAW_BOUNDS[kinds].T)
            bounds = [offset - a for offset in offsets[i : j + 1]]
            fh.write(_sample_text(prefixes[i:j], bounds, table.times[a:b], raw, cache))
            i = j
