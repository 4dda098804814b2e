"""Observation records, two-group samples, and risk tables.

The risk table is the single input consumed by every estimator: ordered
distinct event times with at-risk and per-cause event counts, tabulated
by ``_tabulate``: for a sample once per group, by its pooled fit, whose
tables or CIFs every statistic of the sample reads; and for every group of
a Monte Carlo chunk of replications in one call.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataValidationError

if TYPE_CHECKING:
    from .cif import PooledFit


class EventCode(IntEnum):
    """Observation status: censored, event of interest, or competing event."""

    CENSORED = 0
    INTEREST = 1
    COMPETING = 2


@dataclass(frozen=True, eq=False)
class TwoGroupSample:
    """Two nonempty groups held as parallel arrays, one entry per subject.

    ``times`` are observed times, ``codes`` the ``EventCode`` values and
    ``group`` the index (0 or 1) into ``groups``. ``groups`` fixes the group
    order: differences are always computed as group 2 minus group 1, so the
    order determines the sign of the effect. The arrays are copied and made
    read-only, so the cached ``pooled`` fit (all a sample keeps) cannot go stale.
    """

    times: np.ndarray
    codes: np.ndarray
    group: np.ndarray
    groups: tuple[str, str]

    def __post_init__(self):
        times = _floats(self.times)
        codes = _indices(self.codes, (0, 1, 2), "status codes must be 0, 1 or 2")
        group = _indices(self.group, (0, 1), "group indices must be 0/1, both groups nonempty")
        if times.ndim != 1 or codes.shape != times.shape or group.shape != times.shape:
            raise DataValidationError("times, codes and group must be 1-d, one length")
        if not times.size:
            raise DataValidationError("both groups must be nonempty")
        try:
            groups = tuple(self.groups)
        except TypeError:  # not iterable: one label, and not a string
            groups = (self.groups,)
        if isinstance(self.groups, str) or not all(isinstance(g, str) for g in groups):
            raise DataValidationError(f"group labels must be strings, got {self.groups!r}")
        _check_columns(times, codes)
        if len(groups) != 2 or groups[0] == groups[1]:
            raise DataValidationError("exactly two distinct group labels required")
        if not (group.min() == 0 and group.max() == 1):
            raise DataValidationError("group indices must be 0/1, both groups nonempty")
        for name, arr in (("times", times), ("codes", codes), ("group", group)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "groups", groups)

    @classmethod
    def from_records(cls, records, reference: str | None = None) -> "TwoGroupSample":
        """Build a sample from ``(time, status, group label)`` rows, with group
        order taken as first seen in ``records``.

        ``reference`` forces that label into the group-1 (reference) slot.
        """
        times, codes, labels = [], [], []
        for i, record in enumerate(records):
            try:
                time, code, label = record
            except (TypeError, ValueError):
                raise DataValidationError(
                    f"record {i}: expected (time, status, group), got {record!r}") from None
            if not isinstance(label, str):
                raise DataValidationError(f"record {i}: group label {label!r} is not a string")
            times.append(time)
            codes.append(code)
            labels.append(label)
        seen = list(dict.fromkeys(labels))
        if len(seen) != 2:
            raise DataValidationError(
                f"exactly two groups required, found {len(seen)}: {seen}")
        if reference is not None:
            if reference not in seen:
                raise DataValidationError(
                    f"reference group {reference!r} not present in data")
            seen.sort(key=lambda g: g != reference)
        return cls(times, codes, [label == seen[1] for label in labels], tuple(seen))

    @cached_property
    def pooled(self) -> PooledFit:
        """Each group's risk table and interest CIF, fitted once on first
        use and also read on the pooled event times; every statistic of
        the sample reads it."""
        from .cif import PooledFit  # cif imports this module

        return PooledFit.from_arrays(self.times, self.codes, self.group, 2)


def _array(values) -> np.ndarray:
    """``values`` as an array; ragged nesting, which numpy refuses, is a data error."""
    try:
        return np.asarray(values)
    except ValueError:
        raise DataValidationError("ragged input: nested sequences of unequal length") from None


def _floats(times) -> np.ndarray:
    """``times`` as a new float array; a time ``float`` refuses is a data error."""
    try:
        return _array(times).astype(float)
    except (TypeError, ValueError):
        raise DataValidationError("times must be finite and nonnegative") from None


def _indices(values, allowed: tuple, message: str) -> np.ndarray:
    """``values`` as a new int64 array. Values not held as integers or bools
    are read as floats and must be in ``allowed`` (so '1' is 1, and 1.7 is
    not truncated to 1), else a data error worded by ``message``."""
    values = _array(values)
    if values.dtype.kind not in "biu":
        try:
            values = values.astype(float)
        except (TypeError, ValueError):
            values = None
        if values is None or not np.isin(values, allowed).all():
            raise DataValidationError(message)
    return values.astype(np.int64)


def _check_columns(times, codes):
    """The value checks of a sample: ``times`` and ``codes`` may hold one
    sample or a block of them, one per row."""
    # min/max checks: a NaN fails the first comparison
    if not (times.min() >= 0 and times.max() < math.inf):
        raise DataValidationError("times must be finite and nonnegative")
    if not (codes.min() >= 0 and codes.max() <= 2):
        raise DataValidationError("status codes must be 0, 1 or 2")


@dataclass(frozen=True)
class RiskTable:
    """Distinct event times with at-risk and per-cause event counts.

    Rows exist only at times with at least one event of either cause;
    censorings reduce the at-risk set but never create a row.
    """

    times: np.ndarray
    at_risk: np.ndarray
    events_interest: np.ndarray
    events_competing: np.ndarray
    n_total: int
    last_observed: float


def build_risk_table(times, codes) -> RiskTable:
    """Tabulate at-risk and event counts at each distinct event time.

    ``times`` and ``codes`` hold one group's observed times and status
    codes. Ties between events and censorings at the same time are resolved
    with events first: a subject censored at t is still at risk for events
    at t.
    """
    times = _floats(times)
    codes = _indices(codes, (0, 1, 2), "status codes must be 0, 1 or 2")
    if times.ndim != 1 or codes.shape != times.shape:
        raise DataValidationError(f"times and codes must be 1-d and of one length, "
                                  f"got shapes {times.shape} and {codes.shape}")
    if len(times) == 0:
        raise DataValidationError("cannot build a risk table from no observations")
    _check_columns(times, codes)
    # counts are summed by bincount, so the order within tied times is free
    order = times.argsort()
    t = times.take(order)
    _, starts, at_risk, dj, dk = _tabulate(t, codes.take(order), np.array((0, len(t))))
    return RiskTable(times=t.take(starts), at_risk=at_risk, events_interest=dj,
                     events_competing=dk, n_total=len(t), last_observed=float(t[-1]))


def _tabulate(t, c, bounds):
    """Risk-table rows of samples held back to back in ``t`` (times, sorted
    within each sample) and ``c`` (status codes), sample i at positions
    ``[bounds[i], bounds[i + 1])``: for each run of tied times that holds an
    event (a subject censored at t is at risk at t), its sample, its first
    subject's position, its at-risk count and its events of interest and
    competing events, in position order."""
    first = np.ones(t.size, dtype=bool)  # the first subject of each run
    np.not_equal(t[1:], t[:-1], out=first[1:])
    first[bounds[:-1]] = True  # and of each sample
    starts = first.nonzero()[0]
    # censored, interest and competing counts of each run
    runs = len(starts)
    counts = np.bincount(c * runs + first.cumsum() - 1, minlength=3 * runs)
    keep = counts[runs:].reshape(2, runs).any(axis=0).nonzero()[0]
    starts = starts.take(keep)
    dj, dk = counts.reshape(3, runs)[1:].take(keep, axis=1)
    sample = bounds.searchsorted(starts, side="right") - 1
    return sample, starts, bounds.take(sample + 1) - starts, dj, dk


def read_text(path) -> str:
    """Read a UTF-8 text file; a file that cannot be read or decoded is a
    data error naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataValidationError(
            f"cannot read {path}: not UTF-8 text (byte offset {exc.start})"
        ) from None


_REQUIRED_COLUMNS = ("time", "status", "group")
_STATUS_CODES = {"0": 0, "1": 1, "2": 2}
_BLOCK_CHARS = 1 << 16  # bytes of a plain file read at a time
_POW10 = np.array([10 ** k for k in range(16)], dtype=float)  # each exact


def parse_dataset(text: str, reference: str | None = None) -> TwoGroupSample:
    """Parse a delimited table with columns time, status, group.

    Comma is the default delimiter; tab is accepted (a header without the
    three columns is an error that quotes its line). Column order is free
    and extra columns are ignored; when a name repeats, its last column is
    used. Blank lines are skipped and not counted in row numbers. ``status``
    must be 0 (censored), 1 (event of interest), or 2 (competing event). A
    leading UTF-8 byte order mark is ignored. Lines may end in ``\n``,
    ``\r\n`` or a bare ``\r``.

    A plain file (no quote, carriage return or NUL, every line as many
    fields as the header) is checked in bulk as UTF-8 bytes, a block of
    lines at a time; a time of 1-15 digits with at most one point is read
    exactly as an integer over a power of ten, any other by ``float``. Any
    other file, or one with a bad value, is read row by row by the csv
    module, which words the error; the result and messages are the same.
    """
    sample = _parse_plain(text.removeprefix("\ufeff"), reference)
    return sample if sample is not None else _parse_rows(text, reference)


def _header_columns(header, line: str) -> list[int]:
    """The time, status and group columns of the ``header`` fields split
    from ``line``; a data error quoting the line if any is missing."""
    column = {name.strip(): k for k, name in enumerate(header)}
    missing = [c for c in _REQUIRED_COLUMNS if c not in column]
    if missing:
        raise DataValidationError(
            f"missing required column(s): {', '.join(missing)} (header line read: "
            f"{line!r}; only comma and tab are accepted as delimiters)")
    return [column[c] for c in _REQUIRED_COLUMNS]


def _parse_plain(text: str, reference: str | None) -> TwoGroupSample | None:
    """The sample of a plain, valid ``text`` (byte order mark removed), read
    as UTF-8 bytes a block of lines at a time; None for any other text."""
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    start = data.find(b"\n") + 1
    head = data[:start].decode()
    limit = csv.field_size_limit()
    if (b'"' in data or b"\r" in data or b"\0" in data
            or not start or not head.strip() or len(head) >= limit):
        return None
    delimiter = "\t" if ("\t" in head and "," not in head) else ","
    header = head[:-1].split(delimiter)
    t_col, s_col, g_col = _header_columns(header, head[:-1])
    stop = len(data) - 1 if data.endswith(b"\n") else len(data)
    if stop <= start:
        return None
    buf = np.frombuffer(data, np.uint8)
    n = np.count_nonzero(buf[start:stop] == 10) + 1
    times, codes, group = np.empty(n), np.empty(n, np.uint8), np.zeros(n, bool)
    words = []  # the group labels as UTF-8, in first-seen order
    row = 0
    while start <= stop:  # a blank last line is a block of its own
        end = data.find(b"\n", start + _BLOCK_CHARS, stop)
        end = stop if end < 0 else end
        block = buf[start:end]
        line_ends = np.flatnonzero(block == 10) + start
        delims = np.flatnonzero(block == ord(delimiter)) + start
        lines = len(line_ends) + 1
        if len(delims) != lines * (len(header) - 1):
            return None
        # row i: line i's left end, delimiters and right end; with this many
        # delimiters, every line has the header's fields exactly when rows increase
        bounds = np.concatenate(([start - 1], line_ends, [end]))
        cuts = np.column_stack((bounds[:-1], delims.reshape(lines, -1), bounds[1:]))
        spans = np.diff(cuts)  # each field's length + 1
        firsts, ends = cuts[:, :-1] + 1, cuts[:, 1:]
        status = buf.take(firsts[:, s_col], mode="clip") - np.uint8(ord("0"))
        if (spans.min() < 1 or len(block) >= limit and spans.max() > limit
                or (spans[:, s_col] != 2).any() or status.max() > 2):
            return None
        start = end + 1
        # each line's label against the labels seen so far, in order; a
        # label new to the block is the one on its first line left over
        g0, g1 = firsts[:, g_col], ends[:, g_col]
        other, k = np.ones(lines, bool), 0
        while other.any():
            if k == len(words):
                i = other.argmax()
                label = data[g0[i]:g1[i]].decode()
                if k == 2 or not label or label != label.strip():
                    return None
                words.append(label.encode())
            word = np.frombuffer(words[k], np.uint8)[:, None]
            same = (g1 - g0 == len(word)) & (
                buf.take(g0 + np.arange(len(word))[:, None], mode="clip") == word).all(axis=0)
            other &= ~same
            k += 1
        try:
            times[row:row + lines] = _times(data, buf, firsts[:, t_col], ends[:, t_col])
        except ValueError:  # a time float refuses
            return None
        codes[row:row + lines] = status
        group[row:row + lines] = same if k == 2 else False  # same: the last label tried
        row += lines
    # min/max checks: a NaN fails the first comparison
    if not (times.min() >= 0 and times.max() < math.inf) or len(words) != 2:
        return None
    groups = tuple(word.decode() for word in words)
    if reference is not None and reference != groups[0]:
        if reference != groups[1]:
            return None
        groups, group = groups[::-1], ~group
    return TwoGroupSample(times, codes, group, groups)


def _times(data: bytes, buf, firsts, ends) -> np.ndarray | list[float]:
    """The values of the tokens ``data[firsts[i]:ends[i]]``. If each is 1-15
    ASCII digits with at most one point, M / 10**k (M the digits, k of them
    after the point) is exact: correctly rounded, as ``float`` rounds, since
    M < 2**53 and 10**k is exact (Clinger 1990). Otherwise every token is
    read by ``float``, whose ValueError passes on."""
    size = ends - firsts
    if size.max() <= 16:
        columns = np.arange(size.max(), dtype=np.uint8)[:, None]  # a row per character
        chars = buf.take(firsts + columns, mode="clip")
        inside = columns < size
        digits = chars - np.uint8(ord("0"))
        digit, point = inside & (digits < 10), inside & (chars == ord("."))
        has_point = point.any(axis=0)
        count = size - has_point  # each token's digits
        if (np.count_nonzero(digit) + np.count_nonzero(point) == size.sum()
                and np.count_nonzero(point) == np.count_nonzero(has_point)
                and count.min() >= 1 and count.max() <= 15):
            mantissa = np.zeros(len(size))
            for row, mask in zip(digits, digit):  # exact: each partial M is below 2**53
                mantissa = np.where(mask, mantissa * 10 + row, mantissa)
            at = (point * columns).sum(axis=0, dtype=np.uint8)  # the point's column
            return mantissa / _POW10[has_point * (size - 1 - at)]
    return [float(data[a:b]) for a, b in zip(firsts.tolist(), ends.tolist())]


def _parse_rows(text: str, reference: str | None) -> TwoGroupSample:
    """``parse_dataset`` row by row through the csv module: any text, and
    the error message for any invalid one."""
    text = text.removeprefix("\ufeff")
    first = io.StringIO(text, newline=None).readline()
    if not first.strip():
        raise DataValidationError("empty input")
    delimiter = "\t" if ("\t" in first and "," not in first) else ","
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    # the reader raises csv.Error on a row it cannot split, such as one
    # with a field over its size limit
    try:
        header = next(reader)
    except csv.Error as exc:
        raise DataValidationError(f"header: {exc}") from None
    t_col, s_col, g_col = _header_columns(header, first.rstrip("\n"))
    width = max(t_col, s_col, g_col) + 1

    rows = []
    i = 0
    try:
        for i, row in enumerate(filter(None, reader), start=1):
            if len(row) < width:
                row += [""] * (width - len(row))
            try:
                time = float(row[t_col].strip())
            except ValueError:
                raise DataValidationError(f"row {i}: unparseable time {row[t_col]!r}")
            if not (math.isfinite(time) and time >= 0):
                raise DataValidationError(
                    f"row {i}: time must be finite and nonnegative, got {time!r}"
                )
            code = _STATUS_CODES.get(row[s_col].strip())
            if code is None:
                raise DataValidationError(
                    f"row {i}: unknown status code {row[s_col].strip()!r}"
                )
            group = row[g_col].strip()
            if not group:
                raise DataValidationError(f"row {i}: empty group label")
            rows.append((time, code, group))
    except csv.Error as exc:  # reading the row after row i
        raise DataValidationError(f"row {i + 1}: {exc}") from None
    if not rows:
        raise DataValidationError("no data rows found")
    return TwoGroupSample.from_records(rows, reference)
