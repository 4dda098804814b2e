"""Property tests: every generated table either parses to the rows it holds
and analyses (or fails as degenerate, naming the cause), or is rejected
with an error naming the offending row."""

import re
import warnings
from unittest import mock

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
from rmtlkit import data_model

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


# ---------------------------------------------------------------------------
# The bulk split of plain files against the row-by-row csv reader

LABELS = ("a", "b", "c")
# True one time in five (Hypothesis draws the first of a list most often)
RARELY = st.sampled_from([False, False, False, False, True])
CELLS = {"time": TIMES, "status": st.sampled_from(["0", "1", "2"]),
         "x": st.sampled_from(["", "9", "z"])}


@st.composite
def tables(draw):
    """A table text, plain or not, and a reference label. Each departure
    from a plain file is drawn for the whole table: padded names and
    fields, quoted fields, rows short or long by a field, a blank line, CR
    or CRLF line ends. Also drawn: the column order, repeated and extra
    columns, the delimiter, a BOM, 1-3 labels and at most one bad value."""
    columns = draw(st.permutations(["time", "status", "group"]))
    columns[draw(st.integers(0, 3)):0] = draw(st.lists(st.sampled_from(["x", "time"]),
                                                        max_size=2))
    delimiter = draw(st.sampled_from([",", "\t"]))
    labels = draw(st.sampled_from([2, 2, 2, 1, 3]))
    padded, quoted, ragged, blank, cr = (draw(RARELY) for _ in range(5))
    lines = [[f" {c} " if padded and draw(st.booleans()) else c for c in columns]]
    for k in range(draw(st.integers(2, 12))):
        line = []
        for c in columns:
            cell = (LABELS[k if k < labels else draw(st.integers(0, labels - 1))]
                    if c == "group" else draw(CELLS[c]))
            if padded and draw(RARELY):
                cell = draw(st.sampled_from([f" {cell}", f"{cell} "]))
            if quoted and draw(RARELY):
                cell = f'"{cell}"'
            line.append(cell)
        if ragged:
            line = draw(st.sampled_from([line, line, line[:-1], line + ["9"], line[:1]]))
        lines.append(line)
    if draw(RARELY):
        row = draw(st.integers(1, len(lines) - 1))
        column, cell = draw(BAD_CELLS)
        k = len(columns) - 1 - columns[::-1].index(column)  # the column read
        if k < len(lines[row]):
            lines[row][k] = cell
    text = [delimiter.join(line) for line in lines]
    if blank:
        text.insert(draw(st.integers(1, len(text))), "")
    end = draw(st.sampled_from(["\r\n", "\r"])) if cr else "\n"
    text = end.join(text) + draw(st.sampled_from([end, ""]))
    if draw(RARELY):
        text = "\ufeff" + text
    reference = draw(st.sampled_from([None, None, "a", "b", "c", "zz"]))
    return text, reference


def outcome(parse, text, reference):
    """What a parser makes of a text: the sample's arrays as bytes with
    their dtypes and its groups, or the error message."""
    try:
        sample = parse(text, reference)
    except DataValidationError as exc:
        return str(exc)
    arrays = (sample.times, sample.codes, sample.group)
    return [(a.dtype, a.tobytes()) for a in arrays], sample.groups


@settings(max_examples=600, deadline=None)
@given(tables(), st.integers(1, 40))
def test_bulk_split_equals_the_row_reader(table, block_chars):
    # small blocks split even these short texts at every few lines
    text, reference = table
    expected = outcome(data_model._parse_rows, text, reference)
    assert outcome(data_model.parse_dataset, text, reference) == expected
    with mock.patch.object(data_model, "_BLOCK_CHARS", block_chars):
        assert outcome(data_model.parse_dataset, text, reference) == expected


def test_a_plain_file_never_reaches_the_row_reader(monkeypatch):
    def refuse(text, reference):
        raise AssertionError("a plain file went to the row reader")

    # several blocks, each time read whole
    text = to_csv([(f"{k * 0.37:.3f}", str(k % 3), "ab"[k % 2]) for k in range(30_000)])
    assert len(text) > 4 * data_model._BLOCK_CHARS
    expected = outcome(data_model._parse_rows, text, "b")
    monkeypatch.setattr(data_model, "_parse_rows", refuse)
    assert outcome(data_model.parse_dataset, text, "b") == expected
    for plain in (text.replace(",", "\t"), "\ufeff" + text, text.rstrip("\n"),
                  "x," + text[:-1].replace("\n", "\n9,") + "\n"):
        parse_dataset(plain)
    # every "a" quoted: read as it stands, '"a"' would pass as a label
    for not_plain in (text.replace(",a\n", ',"a"\n'), text.replace("\n", "\r\n"),
                      text.replace("\n", "\r"), text.replace("\n", "\n\n", 1),
                      text.replace(",2,", ", 2,", 1), text + "4,1,c\n",
                      text + "4,1,a,9\n5,1\n"):
        with pytest.raises(AssertionError, match="row reader"):
            parse_dataset(not_plain)


def test_fields_shifted_across_lines_are_read_per_line():
    # the first line lacks its (unread) last field and the second has one
    # too many: as one run of fields, the second line would read (2, 1, a)
    text = "time,status,group,x\n1,1,a\n1,2,1,a,9\n3,1,1,9\n"
    sample = parse_dataset(text)
    assert sample.times.tolist() == [1.0, 1.0, 3.0]
    assert sample.codes.tolist() == [1, 2, 1]
    assert sample.groups == ("a", "1")
    assert outcome(parse_dataset, text, None) == outcome(data_model._parse_rows, text, None)


@pytest.mark.parametrize("line,message", [
    ("nan,1,a", "row 24001: time must be finite and nonnegative, got nan"),
    ("-0.5,1,a", "row 24001: time must be finite and nonnegative, got -0.5"),
    ("1e999,1,a", "row 24001: time must be finite and nonnegative, got inf"),
    ("x,1,a", "row 24001: unparseable time 'x'"),
    ("1,3,a", "row 24001: unknown status code '3'"),
    ("1,1,", "row 24001: empty group label"),
    ("1,1", "row 24001: empty group label"),
    ("1,1,c", "exactly two groups required, found 3: ['a', 'b', 'c']"),
    # as many fields as lines of three, but not three on each line
    ("1,1,a,9\n2,1", "row 24002: empty group label"),
])
def test_a_bad_line_in_a_late_block_names_its_row(line, message):
    text = to_csv([("1", "1", "a"), ("2.5", "0", "b"), ("3", "2", "a")] * 8000)
    assert len(text) > 2 * data_model._BLOCK_CHARS
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        parse_dataset(text + line + "\n4,1,b\n")


# ---------------------------------------------------------------------------
# The byte path: exact decimals, the float fallback and multibyte labels

# time tokens off the exact decimal path (1-15 digits, at most one point),
# which a block reads through float, or which float refuses
ODD_TIMES = st.one_of(
    st.sampled_from(["1e3", "2.5E-2", "1e999", "0.5e-1", "0001.50", "00000000000000000007",
                     "5.", ".5", ".", "+1", " 2", "3 ", "1_0", "-0", "-0.0", "١", "٢.٥",
                     "1234567890123456", "9.999999999999999", "0x1", "1.2.3", "1..2",
                     "1/2", "3:4", "nan"]),
    st.floats(0.0, 1e6).map(repr),  # up to 17 significant digits
    st.floats(1.0, 10.0).map(lambda x: f"{x:.15f}"),  # 16 digits
)
# a third label next to two that share bytes: a bulk reader that took the
# two for one would return a sample where the row reader finds three groups
WORDS = st.sampled_from([("contrôle", "治疗"), ("a", "治疗"), ("contrôle", "b"),
                         ("治疗", "治愈"), ("治疗", "治疗x"), ("ab", "ac"), ("ab", "a"),
                         ("治疗", "治愈", "b"), ("ab", "ac", "治疗")])


@st.composite
def byte_tables(draw):
    """A plain table of two (or three) multibyte or prefix-sharing labels,
    with exact decimal times or (half the tables) a mix with tokens off
    that path; and a reference label."""
    labels = draw(WORDS)
    times = draw(st.sampled_from([TIMES, st.one_of(TIMES, ODD_TIMES)]))
    rows = draw(st.lists(st.tuples(times, st.sampled_from("012"), st.sampled_from(labels)),
                         min_size=1, max_size=12))
    return to_csv(rows), draw(st.sampled_from([None, *labels]))


@settings(max_examples=100, deadline=None)
@given(byte_tables(), st.integers(1, 40))
def test_odd_times_and_multibyte_labels_equal_the_row_reader(table, block_chars):
    text, reference = table
    expected = outcome(data_model._parse_rows, text, reference)
    assert outcome(data_model.parse_dataset, text, reference) == expected
    with mock.patch.object(data_model, "_BLOCK_CHARS", block_chars):
        assert outcome(data_model.parse_dataset, text, reference) == expected


def refuse_rows(text, reference):
    raise AssertionError("a plain file went to the row reader")


def test_short_decimals_are_read_exactly(monkeypatch):
    # 1-15 digits with the point anywhere, or none: M / 10**k is float's value
    rng = np.random.default_rng(22)
    sizes = rng.integers(1, 16, 100_000)
    digits = "".join(map(str, rng.integers(0, 10, sizes.sum())))
    ends = np.cumsum(sizes)
    points = rng.integers(0, sizes + 2)  # past the last digit: no point
    tokens = ["0", "000.5", "999999999999999"] + [
        digits[e - s:e - s + p] + "." + digits[e - s + p:e] if p <= s else digits[e - s:e]
        for s, e, p in zip(sizes.tolist(), ends.tolist(), points.tolist())]
    expected = np.array([float(t) for t in tokens])

    def read(tokens):  # _times on the tokens joined by line ends
        data = b"\n".join(tokens)
        lengths = np.array([len(t) for t in tokens])
        firsts = np.cumsum(lengths + 1) - lengths - 1
        return data_model._times(data, np.frombuffer(data, np.uint8), firsts, firsts + lengths)

    exact = read([t.encode() for t in tokens])
    assert isinstance(exact, np.ndarray)  # not the float fallback
    assert exact.tobytes() == expected.tobytes()
    # 16 digits and a point: M can pass 2**53, so float reads the token
    assert read([b"9.999999999999999"]) == [9.999999999999998]
    for token in (b"1/2", b"3:4"):  # the bytes either side of 0-9 go to float
        with pytest.raises(ValueError):
            read([token])
    # and through the parser, in blocks, never the row reader
    monkeypatch.setattr(data_model, "_parse_rows", refuse_rows)
    sample = parse_dataset(to_csv([(t, "1", "ab"[k % 2]) for k, t in enumerate(tokens)]))
    assert sample.times.tobytes() == expected.tobytes()


def test_full_precision_times_stay_in_bulk(monkeypatch):
    # 17-digit repr exports miss the exact path and are read by float
    values = np.random.default_rng(5).exponential(3.0, 30_000)
    text = to_csv([(repr(v), str(k % 3), "ab"[k % 2]) for k, v in enumerate(values.tolist())])
    assert len(text) > 4 * data_model._BLOCK_CHARS
    expected = outcome(data_model._parse_rows, text, None)
    monkeypatch.setattr(data_model, "_parse_rows", refuse_rows)
    sample = parse_dataset(text)
    assert sample.times.tobytes() == values.tobytes()
    assert outcome(parse_dataset, text, None) == expected
