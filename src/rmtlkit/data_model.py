"""Observation records, two-group samples, and risk tables.

The risk table is the single input consumed by every estimator: ordered
distinct event times with at-risk counts and per-cause event counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DataValidationError


class EventCode(IntEnum):
    """Observation status: censored, event of interest, or competing event."""

    CENSORED = 0
    INTEREST = 1
    COMPETING = 2


@dataclass(frozen=True)
class SubjectRecord:
    """One observation: time on study, status code, and group label."""

    time: float
    event: EventCode
    group: str

    def __post_init__(self):
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise DataValidationError(f"time must be finite, got {self.time!r}")
        if self.time < 0:
            raise DataValidationError(f"time must be nonnegative, got {self.time}")
        if not isinstance(self.event, EventCode):
            object.__setattr__(self, "event", EventCode(self.event))


@dataclass(frozen=True)
class TwoGroupSample:
    """Validated records from exactly two nonempty groups.

    ``groups`` fixes the group order: differences are always computed as
    group 2 minus group 1, so the order determines the sign of the effect.
    """

    records: tuple[SubjectRecord, ...]
    groups: tuple[str, str]

    def __post_init__(self):
        labels = set(r.group for r in self.records)
        if len(self.groups) != 2 or self.groups[0] == self.groups[1]:
            raise DataValidationError("exactly two distinct group labels required")
        if labels != set(self.groups):
            raise DataValidationError(
                f"record groups {sorted(labels)} do not match labels {list(self.groups)}"
            )

    @classmethod
    def from_records(cls, records, reference: str | None = None) -> "TwoGroupSample":
        """Build a sample with group order taken as first seen in ``records``.

        ``reference`` forces that label into the group-1 (reference) slot.
        """
        records = tuple(records)
        seen: list[str] = []
        for r in records:
            if r.group not in seen:
                seen.append(r.group)
        if len(seen) != 2:
            raise DataValidationError(
                f"exactly two groups required, found {len(seen)}: {seen}"
            )
        if reference is not None:
            if reference not in seen:
                raise DataValidationError(
                    f"reference group {reference!r} not present in data"
                )
            seen.sort(key=lambda g: g != reference)
        return cls(records=records, groups=(seen[0], seen[1]))

    def group_records(self, label: str) -> tuple[SubjectRecord, ...]:
        return tuple(r for r in self.records if r.group == label)

    def split(self) -> tuple[tuple[SubjectRecord, ...], tuple[SubjectRecord, ...]]:
        return self.group_records(self.groups[0]), self.group_records(self.groups[1])

    @property
    def n1(self) -> int:
        return sum(1 for r in self.records if r.group == self.groups[0])

    @property
    def n2(self) -> int:
        return sum(1 for r in self.records if r.group == self.groups[1])


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
    n_censored: int
    n_total: int
    last_observed: float

    def __len__(self) -> int:
        return len(self.times)

    def events(self, cause: EventCode) -> np.ndarray:
        if cause == EventCode.INTEREST:
            return self.events_interest
        if cause == EventCode.COMPETING:
            return self.events_competing
        raise DataValidationError(f"cause must be Interest or Competing, got {cause}")


def build_risk_table(records) -> RiskTable:
    """Tabulate at-risk and event counts at each distinct event time.

    Ties between events and censorings at the same time are resolved with
    events first: a subject censored at t is still at risk for events at t.
    """
    records = tuple(records)
    if not records:
        raise DataValidationError("cannot build a risk table from no records")
    times = np.array([r.time for r in records], dtype=float)
    codes = np.array([int(r.event) for r in records], dtype=np.int64)
    return _risk_table_from_arrays(times, codes)


def _risk_table_from_arrays(times: np.ndarray, codes: np.ndarray) -> RiskTable:
    n = len(times)
    uniq = np.unique(times)
    idx = np.searchsorted(uniq, times)
    d1 = np.bincount(idx[codes == EventCode.INTEREST], minlength=len(uniq))
    d2 = np.bincount(idx[codes == EventCode.COMPETING], minlength=len(uniq))
    total = np.bincount(idx, minlength=len(uniq))
    # at risk at t = everyone with observed time >= t (censored-at-t included)
    at_risk = n - np.concatenate(([0], np.cumsum(total)[:-1]))
    mask = (d1 + d2) > 0
    return RiskTable(
        times=uniq[mask],
        at_risk=at_risk[mask],
        events_interest=d1[mask],
        events_competing=d2[mask],
        n_censored=int((codes == EventCode.CENSORED).sum()),
        n_total=n,
        last_observed=float(times.max()),
    )


_REQUIRED_COLUMNS = ("time", "status", "group")


def parse_dataset(text: str, reference: str | None = None) -> TwoGroupSample:
    """Parse a delimited table with columns time, status, group.

    Comma is the default delimiter; tab is accepted. Column order is free
    and extra columns are ignored. ``status`` must be 0 (censored),
    1 (event of interest), or 2 (competing event). A leading UTF-8 byte
    order mark is ignored.
    """
    text = text.removeprefix("\ufeff")
    sample = io.StringIO(text)
    first = sample.readline()
    if not first.strip():
        raise DataValidationError("empty input")
    delimiter = "\t" if ("\t" in first and "," not in first) else ","
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter)
    by_name = {h.strip(): h for h in (reader.fieldnames or [])}
    missing = [c for c in _REQUIRED_COLUMNS if c not in by_name]
    if missing:
        raise DataValidationError(f"missing required column(s): {', '.join(missing)}")

    records = []
    for i, row in enumerate(reader, start=1):
        try:
            time = float(str(row[by_name["time"]]).strip())
        except (TypeError, ValueError):
            raise DataValidationError(
                f"row {i}: unparseable time {row.get(by_name['time'])!r}"
            )
        status_raw = str(row.get(by_name["status"], "")).strip()
        if status_raw not in {"0", "1", "2"}:
            raise DataValidationError(f"row {i}: unknown status code {status_raw!r}")
        group = (row.get(by_name["group"]) or "").strip()
        if not group:
            raise DataValidationError(f"row {i}: empty group label")
        try:
            records.append(SubjectRecord(time, EventCode(int(status_raw)), group))
        except DataValidationError as exc:
            raise DataValidationError(f"row {i}: {exc}") from None
    if not records:
        raise DataValidationError("no data rows found")
    return TwoGroupSample.from_records(records, reference=reference)
