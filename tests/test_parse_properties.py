"""Property tests: every generated table either parses to the rows it holds
and analyses (or fails as degenerate, naming the cause), or is rejected
with an error naming the offending row."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlkit import (
    DataValidationError,
    DegenerateDataError,
    ExtrapolationWarning,
    default_tau,
    diff_test,
    parse_dataset,
)

# A coarse grid forces tied times, within and across groups; 0 is included.
TIMES = st.one_of(
    st.sampled_from(["0", "0.5", "1", "1.5", "2", "3"]),
    st.floats(0.0, 10.0).map(lambda x: repr(round(x, 2))),
)
ROWS = st.lists(
    st.tuples(TIMES, st.sampled_from(["0", "1", "2"]), st.sampled_from(["a", "b"])),
    min_size=1,
    max_size=12,
)
BAD_CELLS = st.sampled_from([
    ("time", "-1"), ("time", "-0.5"), ("time", "nan"), ("time", "inf"),
    ("time", "x"), ("time", ""), ("status", "3"), ("status", "-1"),
    ("status", ""), ("group", ""), ("group", "  "),
])


def to_csv(rows) -> str:
    return "time,status,group\n" + "".join(f"{t},{s},{g}\n" for t, s, g in rows)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_valid_rows_parse_in_order_and_analyse(rows):
    labels = list(dict.fromkeys(g for _, _, g in rows))
    if len(labels) != 2:
        with pytest.raises(DataValidationError, match="exactly two groups"):
            parse_dataset(to_csv(rows))
        return
    sample = parse_dataset(to_csv(rows))
    assert sample.groups == tuple(labels)
    assert sample.times.tolist() == [float(t) for t, _, _ in rows]
    assert sample.codes.tolist() == [int(s) for _, s, _ in rows]
    assert sample.group.tolist() == [labels.index(g) for _, _, g in rows]

    last_interest = {}
    for t, s, g in rows:
        if s == "1":
            last_interest[g] = max(last_interest.get(g, 0.0), float(t))
    missing = [g for g in labels if g not in last_interest]
    if missing:
        with pytest.raises(DegenerateDataError, match=f"group {missing[0]!r}"):
            default_tau(sample)
        return
    at_zero = [g for g in labels if last_interest[g] == 0.0]
    if at_zero:
        with pytest.raises(DegenerateDataError, match=f"group {at_zero[0]!r}"):
            default_tau(sample)
        return
    tau = default_tau(sample)
    assert tau == min(last_interest.values())
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        try:
            res = diff_test(sample, tau)
        except DegenerateDataError as exc:
            assert "zero standard error" in str(exc)
            return
    assert np.isfinite(res.statistic)
    assert 0.0 <= res.p_value <= 1.0
    assert res.delta.delta == pytest.approx(
        res.delta.per_group[1].value - res.delta.per_group[0].value, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(ROWS, st.data())
def test_a_bad_cell_is_rejected_naming_its_row(rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    column, cell = data.draw(BAD_CELLS)
    t, s, g = rows[row]
    rows = list(rows)
    rows[row] = {"time": (cell, s, g), "status": (t, cell, g), "group": (t, s, cell)}[column]
    with pytest.raises(DataValidationError, match=rf"^row {row + 1}: "):
        parse_dataset(to_csv(rows))


@settings(max_examples=100, deadline=None)
@given(ROWS, st.data())
def test_a_short_row_is_rejected_naming_its_row(rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    keep = data.draw(st.integers(1, 2))
    lines = to_csv(rows).splitlines()
    lines[row + 1] = ",".join(lines[row + 1].split(",")[:keep])
    with pytest.raises(DataValidationError, match=rf"^row {row + 1}: "):
        parse_dataset("\n".join(lines) + "\n")
