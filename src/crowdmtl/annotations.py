"""Time-continuous affect annotation handling.

A trace is one rater's arousal-or-valence signal for one clip. This module
loads traces from CSV, applies slider quality control, resamples onto
uniform grids, windows and fuses them, and computes inter-rater agreement
statistics (Kendall's W, Pearson correlation).

Ratings are kept on the canonical [-1, 1] scale in memory. Crowd slider
values live in [-2, 2] on disk and are rescaled at load time; writing
traces back inverts the rescale, so files always carry raw slider units.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace

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
_BATCH_SAMPLES = 4096  # samples of the traces whose missing fractions are computed at once
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
_KIND_CODES = {kind: code for code, kind in enumerate(RATER_KINDS)}
_ATTRIBUTE_CODES = {attribute: code for code, attribute in enumerate(ATTRIBUTES)}
_RAW_LOW = np.array([RAW_RANGES[kind][0] - RAW_TOLERANCE for kind in RATER_KINDS])
_RAW_HIGH = np.array([RAW_RANGES[kind][1] + RAW_TOLERANCE for kind in RATER_KINDS])


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


def _active_fraction(times: np.ndarray, values: np.ndarray) -> float:
    """Fraction of the trace span during which the slider value changes."""
    if values.size < 2:
        return 0.0
    span = float(times[-1] - times[0])
    if span <= 0:
        return 0.0
    dt = np.diff(times)
    moved = np.abs(np.diff(values)) > 0
    return float(np.sum(dt[moved]) / span)


def quality_filter(trace: AnnotationTrace, policy: QcPolicy) -> QcVerdict:
    """Accept or reject one trace; the reason names the first failing rule."""
    if trace.missing_fraction > policy.max_missing_fraction:
        return QcVerdict(False, "missing")
    std = float(np.std(trace.values)) if trace.n_samples else 0.0
    if _active_fraction(trace.times, trace.values) < policy.min_active_fraction:
        return QcVerdict(False, "inactivity")
    if std < policy.min_std:
        return QcVerdict(False, "inactivity")
    if policy.require_sign_consistency:
        if trace.static_rating is None:
            return QcVerdict(False, "sign")
        extremal = float(trace.values[np.argmax(np.abs(trace.values))])
        # a zero on either side carries no sign evidence
        if trace.static_rating != 0 and extremal != 0:
            if np.sign(trace.static_rating) != np.sign(extremal):
                return QcVerdict(False, "sign")
    return QcVerdict(True)


def resample_trace(trace: AnnotationTrace, rate_hz: float = 1.0) -> AnnotationTrace:
    """Linearly interpolate onto a uniform grid from the first sample time.

    Each sample holds for one period of the trace, its median interval, so
    the trace covers [first, last + period): the grid has a point every
    1/rate_hz seconds within it, and n samples at f Hz cover n/f seconds at
    every rate. Interior gaps are interpolated; boundary values are held
    rather than extrapolated.
    """
    if trace.n_samples < 2:
        raise ValueError("resampling requires at least 2 samples")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    t0, t1 = float(trace.times[0]), float(trace.times[-1])
    dt = np.sort(np.diff(trace.times))
    period = float(dt[(dt.size - 1) // 2] + dt[dt.size // 2]) / 2  # as np.median computes it
    n = max(int(np.ceil((t1 - t0 + period) * rate_hz - 1e-9)), 1)
    grid = t0 + np.arange(n) / rate_hz
    vals = np.interp(grid, trace.times, trace.values)
    return replace(trace, times=grid, values=vals)


def window_last(trace: AnnotationTrace, window_s: float = 50.0) -> np.ndarray:
    """Return the ratings covering the final `window_s` seconds.

    The trace must be uniformly sampled; each sample counts for one
    sampling period, so a trace of n samples at rate f covers n/f seconds.
    """
    if not (np.isfinite(window_s) and window_s > 0):
        raise ValueError(f"window_s must be finite and > 0, got {window_s}")
    if trace.n_samples < 2:
        raise ValueError("windowing requires a uniform trace with >= 2 samples")
    dt = np.diff(trace.times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(1.0, abs(dt[0])):
        raise ValueError("trace is not uniformly sampled")
    rate = 1.0 / float(dt[0])
    n_need = int(round(window_s * rate))
    if n_need < 1 or abs(window_s * rate - n_need) > 1e-9:
        raise ValueError("window_s must be a whole number of samples")
    if trace.n_samples < n_need:
        raise ValueError(
            f"trace covers {trace.n_samples / rate:g} s, shorter than the "
            f"{window_s:g} s window"
        )
    return trace.values[-n_need:].copy()


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


def _missing_fractions(times: list[np.ndarray], clip_ends: np.ndarray) -> np.ndarray:
    """Per trace, the gap mass (leading + oversized interior + trailing) over
    the span of its clip, `clip_ends` in trace order.

    Interior gaps count only their excess past the nominal step, taken as
    the trace's median inter-sample interval. A trace of one sample is all
    missing, and a clip that ends at 0 s misses nothing. Traces with the
    same number of samples are stacked, at most _BATCH_SAMPLES samples per
    stack, and computed together. A trace of two or more samples ends
    after 0 s, as its times are at least 0 and strictly increasing, so its
    clip's end is positive.
    """
    fractions = np.ones(len(times))
    by_count: dict[int, list[int]] = {}
    for i, block_times in enumerate(times):
        by_count.setdefault(block_times.size, []).append(i)
    for count, rows in by_count.items():
        if count < 2:
            continue
        step = max(_BATCH_SAMPLES // count, 1)
        for k in range(0, len(rows), step):
            batch = rows[k : k + step]
            stacked = np.stack([times[i] for i in batch])
            ends = clip_ends[batch]
            dt = np.diff(stacked, axis=1)
            dt -= np.median(dt, axis=1)[:, None]
            gaps = stacked[:, 0] + np.maximum(dt, 0.0, out=dt).sum(axis=1)
            gaps += np.maximum(ends - stacked[:, -1], 0.0)
            fractions[batch] = np.clip(gaps / ends, 0.0, 1.0)
    fractions[clip_ends <= 0] = 0.0
    return fractions


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


def _reject_unless_blank(row, n_fields: int, path, lineno: int) -> None:
    """For a row without `n_fields` fields: return if it is blank, else raise."""
    if row and not (len(row) == 1 and not row[0].strip()):
        raise DataError(f"{path}: line {lineno}: expected {n_fields} fields")


def data_rows(reader, n_fields: int, path):
    """(line number, row) of each data row, all of `n_fields` fields; blank
    rows are skipped, and other rows are a DataError."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) != n_fields:
            _reject_unless_blank(row, n_fields, path, lineno)
            continue
        yield lineno, row


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


def _trace_block(key, kind, times: list, raw_values: list):
    """Close one block of rows, given as pieces of its times and raw values,
    into its own two arrays: times and canonical-scale values.

    A raw value within RAW_TOLERANCE past the slider is taken as the
    slider's end, so every value the loader accepts is canonical.
    """
    lo, hi = CANONICAL_RANGE
    values = _rescale(np.concatenate(raw_values), RAW_RANGES[kind])
    return key, kind, np.concatenate(times), np.minimum(np.maximum(values, lo), hi)


def _row_trace_blocks(path) -> list[tuple]:
    """The blocks of the trace CSV `path`, read row by row by `csv`.

    Rows are checked in file order, so the first bad line is the one
    reported. Only the open block is held as Python floats.
    """
    blocks: list[tuple] = []
    finalized: set[tuple[str, str, str]] = set()
    key = kind_of_block = None
    times: list[float] = []
    raw_values: list[float] = []
    isfinite = math.isfinite
    with open(path, newline="", encoding="utf-8") as fh:
        reader, header, cols = read_header(fh, path, TRACE_COLUMNS)
        n_fields = len(header)
        i_clip, i_rater, i_kind, i_attr, i_time, i_value = cols
        # the rule of data_rows, inline
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                _reject_unless_blank(row, n_fields, path, lineno)
                continue
            kind = row[i_kind].strip()
            if kind not in RATER_KINDS:
                raise DataError(f"{path}: line {lineno}: unknown rater_kind {kind!r}")
            attribute = row[i_attr].strip()
            if attribute not in ATTRIBUTES:
                raise DataError(f"{path}: line {lineno}: unknown attribute {attribute!r}")
            # the fast path of parse_numbers, inline
            try:
                t = float(row[i_time])
                v = float(row[i_value])
            except ValueError:
                t = v = math.nan
            if not (isfinite(t) and isfinite(v)):
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
                    finalized.add(key)
                    blocks.append(_trace_block(key, kind_of_block, [times], [raw_values]))
                if row_key in finalized:
                    raise DataError(
                        f"{path}: line {lineno}: duplicate trace for "
                        f"(clip_id={row_key[0]}, rater_id={row_key[1]}, "
                        f"attribute={row_key[2]})"
                    )
                key, kind_of_block, times, raw_values = row_key, kind, [], []
            elif kind != kind_of_block:
                raise DataError(
                    f"{path}: line {lineno}: rater_kind changes within trace "
                    f"(clip_id={key[0]}, rater_id={key[1]}, attribute={key[2]}) "
                    f"from {kind_of_block!r} to {kind!r}"
                )
            elif t <= times[-1]:
                raise DataError(
                    f"{path}: line {lineno}: non-monotone timestamp {t} for "
                    f"(clip_id={key[0]}, rater_id={key[1]}, attribute={key[2]})"
                )
            times.append(t)
            raw_values.append(v)
    if key is not None:
        blocks.append(_trace_block(key, kind_of_block, [times], [raw_values]))
    return blocks


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


def _plain_trace_blocks(path) -> list[tuple] | None:
    """The blocks of the trace CSV `path`, read by columns, or None if the
    file is not plain.

    A plain file has no quote, carriage return or NUL and no line near
    `csv`'s field size limit, so its fields are those `csv` reads; every
    line holds the header's number of fields; no
    id or enum is padded; float() parses every number, as the row loop
    does; and every row rule of the row loop holds. Each rule is checked on
    the whole columns of a chunk of lines.
    """
    blocks: list[tuple] = []
    finalized: set[tuple[str, str, str]] = set()
    ids: dict[str, str] = {}  # one str object per distinct id
    key = kind_of_block = None
    times: list[np.ndarray] = []  # the open block's, one array per chunk
    raw_values: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8") as fh:
        _, header, cols = read_header(fh, path, TRACE_COLUMNS)
        n_fields = len(header)
        i_clip, i_rater, i_kind, i_attr, i_time, i_value = cols
        separators = b"," * (n_fields - 1) + b"\n"
        field_limit = csv.field_size_limit()
        for text in _line_chunks(fh):
            n_rows = text.count("\n")
            if '"' in text or "\r" in text or "\0" in text or len(text) > field_limit:
                return None
            # UTF-8 encodes no other character with the bytes of "," or "\n"
            if text.encode().translate(None, _NOT_SEPARATORS) != separators * n_rows:
                return None
            fields = text.replace("\n", ",").split(",")
            fields.pop()  # the empty field after the last newline
            clips, raters = fields[i_clip::n_fields], fields[i_rater::n_fields]
            try:
                kinds = np.fromiter(map(_KIND_CODES.__getitem__, fields[i_kind::n_fields]), int)
                attrs = np.fromiter(
                    map(_ATTRIBUTE_CODES.__getitem__, fields[i_attr::n_fields]), int
                )
                t = np.array(list(map(float, fields[i_time::n_fields])))
                v = np.array(list(map(float, fields[i_value::n_fields])))
            except (KeyError, ValueError):
                return None
            in_range = (_RAW_LOW[kinds] <= v) & (v <= _RAW_HIGH[kinds])
            if not (np.isfinite(t).all() and in_range.all()) or (t < 0).any():
                return None
            new = np.empty(n_rows, dtype=bool)  # the row opens a block
            new[0] = (clips[0], raters[0], ATTRIBUTES[attrs[0]]) != key
            new[1:] = np.fromiter(map(operator.ne, clips[1:], clips[:-1]), bool)
            new[1:] |= np.fromiter(map(operator.ne, raters[1:], raters[:-1]), bool)
            new[1:] |= attrs[1:] != attrs[:-1]
            # within a block, also across the chunk edge: one kind, and
            # strictly increasing times
            if not new[0] and (RATER_KINDS[kinds[0]] != kind_of_block or t[0] <= times[-1][-1]):
                return None
            inner = ~new[1:]
            if ((kinds[1:] != kinds[:-1]) & inner).any() or ((t[1:] <= t[:-1]) & inner).any():
                return None
            starts = np.flatnonzero(new).tolist()
            # the keys are taken, each id as one shared str, before the
            # chunk's fields are freed, so few kept objects sit among them
            # and the memory they took is reused: this keeps peak RSS down
            keys = [
                (ids.setdefault(clips[i], clips[i]), ids.setdefault(raters[i], raters[i]),
                 ATTRIBUTES[attrs[i]])
                for i in starts
            ]
            del fields, clips, raters
            if not new[0]:
                end = starts[0] if starts else n_rows
                times.append(t[:end])
                raw_values.append(v[:end])
            for start, end, next_key in zip(starts, starts[1:] + [n_rows], keys):
                if key is not None:
                    finalized.add(key)
                    blocks.append(_trace_block(key, kind_of_block, times, raw_values))
                key = next_key
                if key in finalized or key[0] != key[0].strip() or key[1] != key[1].strip():
                    return None
                kind_of_block = RATER_KINDS[kinds[start]]
                times, raw_values = [t[start:end]], [v[start:end]]
    if key is not None:
        blocks.append(_trace_block(key, kind_of_block, times, raw_values))
    return blocks


def load_traces(path, static_path=None) -> list[AnnotationTrace]:
    """Parse a trace CSV into canonical-scale traces.

    One trace per contiguous (clip_id, rater_id, attribute) block of rows;
    a key reappearing in a later block is a duplicate, and every row of a
    block must have the same rater_kind. The missing fraction is computed
    against the latest sample time seen for that clip.

    Two paths read a file and give bitwise-equal traces. A plain file --
    what write_traces writes for ids that `csv` leaves unquoted and that
    have no padding -- is read by columns, in chunks of about
    TRACE_CHUNK_CHARS characters cut after a newline: besides the closed
    blocks, each kept as its own two arrays, only one chunk (or one longer
    line) with its columns and the open block are held. Any other file --
    with a quote, a carriage return or a NUL, a line near `csv`'s field
    size limit, a blank or short line, a padded id or enum, a number
    float() rejects, or a broken row rule -- is read again by the row
    loop, which checks rows in file order and reports the first bad line,
    with its number.
    """
    statics = load_static_ratings(static_path) if static_path else {}
    blocks = _plain_trace_blocks(path)
    if blocks is None:
        blocks = _row_trace_blocks(path)

    clip_end: dict[str, float] = {}
    for (cid, _, _), _, block_times, _ in blocks:
        clip_end[cid] = max(clip_end.get(cid, 0.0), float(block_times[-1]))
    missing = _missing_fractions(
        [block_times for _, _, block_times, _ in blocks],
        np.array([clip_end[cid] for (cid, _, _), *_ in blocks]),
    )
    return [
        AnnotationTrace(
            clip_id=clip_id,
            rater_id=rater_id,
            rater_kind=kind,
            attribute=attribute,
            times=block_times,
            values=values,
            static_rating=statics.get((clip_id, rater_id, attribute)),
            missing_fraction=float(fraction),
        )
        for ((clip_id, rater_id, attribute), kind, block_times, values), fraction in zip(
            blocks, missing
        )
    ]


def write_sample_csv(path, columns, blocks) -> None:
    """Write a CSV of time-stamped samples, one block of rows at a time.

    `columns` is the header. Each block is (text fields, times, values):
    every row of a block starts with the same text fields, quoted by `csv`
    where needed, and ends with ``repr`` of its time and of its value.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(columns)
        for fields, times, values in blocks:
            lead = io.StringIO()
            # the empty last field leaves the separator the samples follow
            csv.writer(lead, lineterminator="\n").writerow([*fields, ""])
            prefix = lead.getvalue()[:-1]
            pairs = zip(
                np.asarray(times, dtype=float).tolist(),
                np.asarray(values, dtype=float).tolist(),
            )
            fh.write("".join([f"{prefix}{t!r},{v!r}\n" for t, v in pairs]))


def write_traces(traces, path) -> None:
    """Write traces back to CSV in raw slider units (inverse of load)."""
    write_sample_csv(
        path,
        TRACE_COLUMNS,
        (
            (
                (tr.clip_id, tr.rater_id, tr.rater_kind, tr.attribute),
                tr.times,
                _unscale(tr.values, RAW_RANGES[tr.rater_kind]),
            )
            for tr in traces
        ),
    )
