import re

import numpy as np
import pytest

from rmtlkit import (
    DataValidationError,
    EventCode,
    TwoGroupSample,
    build_risk_table,
    parse_dataset,
)
from rmtlkit import data_model
from helpers import random_arrays, random_records


def make_records(spec, group="g"):
    return [(t, e, group) for t, e in spec]


def table(spec):
    times, codes = zip(*spec)
    return build_risk_table(times, codes)


def test_codes():
    assert EventCode.CENSORED == 0
    assert EventCode.INTEREST == 1
    assert EventCode.COMPETING == 2


class TestRiskTable:
    def test_three_subject_example(self):
        rt = table([(1.0, 1), (2.0, 2), (3.0, 0)])
        assert rt.times.tolist() == [1.0, 2.0]
        assert rt.at_risk.tolist() == [3, 2]
        assert rt.events_interest.tolist() == [1, 0]
        assert rt.events_competing.tolist() == [0, 1]
        assert rt.n_total == 3
        assert rt.last_observed == 3.0

    def test_ties_aggregate(self):
        rt = table([(1.0, 1), (1.0, 1), (1.0, 2), (2.0, 0), (2.0, 1)])
        assert rt.times.tolist() == [1.0, 2.0]
        assert rt.at_risk.tolist() == [5, 2]
        assert rt.events_interest.tolist() == [2, 1]
        assert rt.events_competing.tolist() == [1, 0]

    def test_censor_only_times_leave_no_row(self):
        rt = table([(1.0, 0), (2.0, 1), (3.0, 0)])
        assert rt.times.tolist() == [2.0]
        assert rt.at_risk.tolist() == [2]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        times, codes = random_arrays(rng, 200, tie_grid=4)
        base = build_risk_table(times, codes)
        perm = rng.permutation(len(times))
        other = build_risk_table(times[perm], codes[perm])
        assert np.array_equal(base.times, other.times)
        assert np.array_equal(base.at_risk, other.at_risk)
        assert np.array_equal(base.events_interest, other.events_interest)
        assert np.array_equal(base.events_competing, other.events_competing)
        # the pooled fit of a tied, censored two-group sample: bitwise equal
        group = rng.integers(0, 2, len(times))
        first = TwoGroupSample(times, codes, group, ("a", "b")).pooled
        second = TwoGroupSample(times[perm], codes[perm], group[perm], ("a", "b")).pooled
        for name in ("times", "values", "variances"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        for cif, other_cif in zip(first.cifs, second.cifs):
            for name in ("times", "values", "variances"):
                assert getattr(cif, name).tobytes() == getattr(other_cif, name).tobytes()

    def test_at_risk_decreasing_and_consistent(self):
        rng = np.random.default_rng(8)
        rt = build_risk_table(*random_arrays(rng, 120, tie_grid=2))
        assert np.all(np.diff(rt.at_risk) < 0)
        assert rt.at_risk[0] <= rt.n_total
        assert np.all(rt.events_interest + rt.events_competing <= rt.at_risk)

    def test_empty_records_rejected(self):
        with pytest.raises(DataValidationError):
            build_risk_table([], [])

    @pytest.mark.parametrize("times,codes", [
        ([1.0], [1, 2]), ([1.0, 2.0], [1]), ([[1.0, 2.0]], [[1, 1]]), (1.0, 1)],
        ids=["more-codes", "fewer-codes", "2-d", "0-d"])
    def test_times_and_codes_of_other_shapes_rejected(self, times, codes):
        # neither a subject tabulated silently nor a bare numpy error
        with pytest.raises(DataValidationError, match="1-d and of one length"):
            build_risk_table(times, codes)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_times_not_finite_and_nonnegative_rejected(self, bad):
        # a NaN row would leave last_observed NaN, which no tau check can warn on
        for times in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(DataValidationError, match="finite and nonnegative"):
                build_risk_table(times, [1, 1])

    def test_integer_codes_out_of_range_rejected(self):
        with pytest.raises(DataValidationError, match="^status codes must be 0, 1 or 2$"):
            build_risk_table([1.0], [3])

    @pytest.mark.parametrize("build", [
        lambda: build_risk_table([-1.0, 2.0], [3, 1]),
        lambda: TwoGroupSample([-1.0, 2.0], [3, 1], [0, 1], ("a", "b")),
    ], ids=["build_risk_table", "TwoGroupSample"])
    def test_a_bad_time_is_named_before_a_bad_code(self, build):
        # one check of a sample's values, times first
        with pytest.raises(DataValidationError, match="^times must be finite and nonnegative$"):
            build()


@pytest.mark.parametrize("bad", [1.7, 0.5, float("nan"), float("inf"), "x", "1.7", None])
@pytest.mark.parametrize("build", [
    lambda codes: build_risk_table([1.0, 2.0, 3.0], codes),
    lambda codes: TwoGroupSample([1.0, 2.0, 3.0], codes, [0, 1, 1], ("a", "b")),
], ids=["build_risk_table", "TwoGroupSample"])
def test_codes_that_are_not_0_1_or_2_rejected(bad, build):
    # neither truncated to a valid code nor a bare numpy ValueError/TypeError
    with pytest.raises(DataValidationError, match="status codes must be 0, 1 or 2"):
        build([1, bad, 2])


@pytest.mark.parametrize("build, match", [
    (lambda: TwoGroupSample([1.0, 2.0], [1, 1], [0, 1.5], ("a", "b")), "group indices"),
    (lambda: TwoGroupSample([1.0, 2.0], [1, 1], [0, "b"], ("a", "b")), "group indices"),
    (lambda: TwoGroupSample(["x", 2.0], [1, 1], [0, 1], ("a", "b")), "times"),
    (lambda: build_risk_table(["x", 2.0], [1, 1]), "times"),
    (lambda: TwoGroupSample.from_records([("x", 1, "a"), (2.0, 1, "b")]), "times"),
], ids=["fractional-group", "text-group", "text-time", "text-time-risk-table",
        "text-time-record"])
def test_times_and_group_indices_converted_like_codes(build, match):
    # neither truncated (group 1.5 read as 1) nor a bare numpy ValueError
    with pytest.raises(DataValidationError, match=match):
        build()


@pytest.mark.parametrize("build", [
    lambda: TwoGroupSample([1.0, 2.0], [[1], [1, 2]], [0, 1], ("a", "b")),
    lambda: TwoGroupSample([1.0, 2.0], [1, 1], [[0], [0, 1]], ("a", "b")),
    lambda: TwoGroupSample([[1.0], [1.0, 2.0]], [1, 1], [0, 1], ("a", "b")),
    lambda: build_risk_table([[1.0], [1.0, 2.0]], [1, 1]),
    lambda: build_risk_table([1.0, 2.0], [[1], [1, 2]]),
    lambda: TwoGroupSample.from_records([([1.0], 1, "a"), ([1.0, 2.0], 1, "b")]),
], ids=["codes", "group", "times", "times-risk-table", "codes-risk-table", "times-record"])
def test_ragged_input_named_as_a_shape_fault(build):
    # neither numpy's bare ValueError nor a time read as not finite
    with pytest.raises(DataValidationError, match="^ragged input"):
        build()


@pytest.mark.parametrize("codes", [[1.0, 0.0, 2.0], ["1", "0", "2"], ["1.0", "0", "2.0"]])
def test_codes_held_as_whole_floats_or_numeric_strings_accepted(codes):
    assert build_risk_table([1.0, 2.0, 3.0], codes).events_competing.tolist() == [0, 1]
    sample = TwoGroupSample([1.0, 2.0, 3.0], codes, [0, 1, 1], ("a", "b"))
    assert sample.codes.dtype == np.int64 and sample.codes.tolist() == [1, 0, 2]


class TestTwoGroupSample:
    def test_no_subjects_rejected(self):
        with pytest.raises(DataValidationError, match="^both groups must be nonempty$"):
            TwoGroupSample([], [], [], ("a", "b"))

    def test_first_seen_order(self):
        recs = make_records([(1.0, 1)], "b") + make_records([(2.0, 1)], "a")
        sample = TwoGroupSample.from_records(recs)
        assert sample.groups == ("b", "a")
        assert sample.group.tolist() == [0, 1]
        assert sample.pooled.n_total.tolist() == [1, 1]

    def test_reference_override(self):
        recs = make_records([(1.0, 1)], "b") + make_records([(2.0, 1)], "a")
        sample = TwoGroupSample.from_records(recs, reference="a")
        assert sample.groups == ("a", "b")

    def test_unknown_reference_rejected(self):
        recs = make_records([(1.0, 1)], "b") + make_records([(2.0, 1)], "a")
        with pytest.raises(DataValidationError):
            TwoGroupSample.from_records(recs, reference="zzz")

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_group_count_enforced(self, labels):
        recs = [(1.0, EventCode.INTEREST, g) for g in labels]
        with pytest.raises(DataValidationError):
            TwoGroupSample.from_records(recs)

    def test_group_index_partitions_rows(self):
        rng = np.random.default_rng(9)
        recs = random_records(rng, 20, "x") + random_records(rng, 30, "y")
        sample = TwoGroupSample.from_records(recs)
        assert sample.groups == ("x", "y")
        assert sample.group.tolist() == [0] * 20 + [1] * 30
        assert sample.times.tolist() == [t for t, _, _ in recs]
        assert sample.codes.tolist() == [e for _, e, _ in recs]
        assert sample.pooled.n_total.tolist() == [20, 30]

    @pytest.mark.parametrize(
        "times, codes, group, groups",
        [
            ([1.0, -1.0], [1, 1], [0, 1], ("a", "b")),
            ([1.0, float("nan")], [1, 1], [0, 1], ("a", "b")),
            ([1.0, float("inf")], [1, 1], [0, 1], ("a", "b")),
            ([1.0, 2.0], [1, 3], [0, 1], ("a", "b")),
            ([1.0, 2.0], [1, 1], [0, 0], ("a", "b")),
            ([1.0, 2.0], [1, 1], [0, 2], ("a", "b")),
            ([1.0, 2.0], [1, 1], [0, 1], ("a", "a")),
            ([1.0, 2.0], [1], [0, 1], ("a", "b")),
        ],
    )
    def test_arrays_validated(self, times, codes, group, groups):
        with pytest.raises(DataValidationError):
            TwoGroupSample(times, codes, group, groups)

    @pytest.mark.parametrize("groups", [(1, 2), ("a", 2), "ab", None, 5])
    def test_labels_that_are_not_strings_rejected(self, groups):
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(f'group labels must be strings, got {groups!r}')}$"):
            TwoGroupSample([1.0, 2.0], [1, 1], [0, 1], groups)

    def test_labels_held_as_a_tuple(self):
        sample = TwoGroupSample([1.0, 2.0], [1, 1], [0, 1], ["a", "b"])
        assert type(sample.groups) is tuple and sample.groups == ("a", "b")

    def test_arrays_are_read_only_copies(self):
        times = np.array([1.0, 2.0, 3.0])
        sample = TwoGroupSample(times, [1, 0, 1], [0, 1, 1], ("a", "b"))
        with pytest.raises(ValueError):
            sample.times[0] = 5.0
        with pytest.raises(ValueError):
            sample.group[0] = 1
        times[0] = 5.0
        assert sample.times[0] == 1.0

    def test_fits_are_built_once(self):
        sample = TwoGroupSample([1.0, 2.0, 3.0], [1, 0, 1], [0, 1, 1], ("a", "b"))
        assert sample.pooled is sample.pooled
        assert sample.pooled.n_total[1] == 2
        assert sample.pooled.cifs[1].times.tolist() == [3.0]


class TestFromRecords:
    @pytest.mark.parametrize("bad", [(1.0, 1), (1.0, 1, "b", "x"), 1.0],
                             ids=["two-fields", "four-fields", "not-a-sequence"])
    def test_record_not_three_fields_names_its_index(self, bad):
        with pytest.raises(DataValidationError, match=r"^record 1: expected \(time"):
            TwoGroupSample.from_records([(1.0, 1, "a"), bad, (2.0, 1, "b")])

    @pytest.mark.parametrize("label, shown", [(["b"], r"\['b'\]"), (2, "2")],
                             ids=["unhashable", "not-a-string"])
    def test_label_not_a_string_names_its_record(self, label, shown):
        with pytest.raises(DataValidationError,
                           match=rf"^record 1: group label {shown} is not a string$"):
            TwoGroupSample.from_records([(1.0, 1, "a"), (2.0, 1, label)])

    def test_empty_input(self):
        with pytest.raises(DataValidationError,
                           match=r"^exactly two groups required, found 0: \[\]$"):
            TwoGroupSample.from_records([])

    def test_bad_code_rejected(self):
        with pytest.raises(DataValidationError, match="status codes must be 0, 1 or 2"):
            TwoGroupSample.from_records([(1.0, 3, "a"), (2.0, 1, "b")])

    def test_zero_time_allowed(self):
        sample = TwoGroupSample.from_records([(0.0, 0, "a"), (2.0, 1, "b")])
        assert sample.times.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_bad_time_rejected(self, time):
        with pytest.raises(DataValidationError, match="finite and nonnegative"):
            TwoGroupSample.from_records([(1.0, 1, "a"), (time, 1, "b")])


class TestParseDataset:
    @pytest.mark.parametrize("text", ["", "\ufeff", "\n"])
    def test_no_text_is_empty_input(self, text):
        with pytest.raises(DataValidationError, match="^empty input$"):
            parse_dataset(text)

    def test_csv_roundtrip(self):
        text = "time,status,group\n1,1,a\n2,2,a\n3,0,b\n4,1,b\n"
        sample = parse_dataset(text)
        assert sample.groups == ("a", "b")
        assert sample.group.tolist() == [0, 0, 1, 1]
        assert sample.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert sample.codes.tolist() == [1, 2, 0, 1]

    def test_tsv_autodetected(self):
        text = "time\tstatus\tgroup\n1.5\t1\ta\n2\t0\tb\n3\t1\tb\n"
        sample = parse_dataset(text)
        assert sample.group.tolist() == [0, 1, 1]

    def test_header_whitespace_tolerated(self):
        text = " time , status , group \n1,1,a\n2,1,b\n"
        sample = parse_dataset(text)
        assert sample.groups == ("a", "b")

    def test_byte_order_mark_ignored(self):
        text = "\ufefftime,status,group\n1,1,a\n2,0,a\n3,1,b\n"
        sample = parse_dataset(text)
        assert sample.groups == ("a", "b")
        assert sample.times[0] == 1.0

    def test_missing_column(self):
        with pytest.raises(DataValidationError, match="status"):
            parse_dataset("time,group\n1,a\n")

    def test_missing_columns_are_worded_alike_on_both_paths(self):
        # a plain file's header is checked by the bulk split itself
        text = "time;status;group\n1;1;a\n2;1;b\n"
        messages = []
        for parse in (data_model._parse_plain, data_model._parse_rows):
            with pytest.raises(DataValidationError) as err:
                parse(text, None)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "'time;status;group'" in messages[0]

    def test_bad_status_names_row(self):
        text = "time,status,group\n1,1,a\n2,7,b\n"
        with pytest.raises(DataValidationError, match="row 2"):
            parse_dataset(text)

    def test_bad_time_names_row(self):
        text = "time,status,group\n1,1,a\noops,1,b\n"
        with pytest.raises(DataValidationError, match="row 2"):
            parse_dataset(text)

    def test_field_over_the_csv_limit_names_row(self):
        # the csv module refuses a field longer than 131072 characters; the
        # blank line is not counted
        text = "time,status,group\n1,1,a\n\n2,1," + "b" * 131073 + "\n"
        with pytest.raises(DataValidationError, match="^row 2: field larger"):
            parse_dataset(text)
        with pytest.raises(DataValidationError, match="^header: field larger"):
            parse_dataset("time,status,group" + "x" * 131073 + "\n1,1,a\n")

    def test_line_endings(self):
        # a bare carriage return (classic Mac) ends a line too
        sample = parse_dataset("time,status,group\r1,1,a\r2,1,b\r")
        assert sample.times.tolist() == [1.0, 2.0]
        assert sample.group.tolist() == [0, 1]
        # the delimiter is sniffed from the first line only
        text = "time\tstatus\tgroup\r1\t1\ta,x\r2\t1\tb\r"
        assert parse_dataset(text).groups == ("a,x", "b")
        lines = ["time,status,group", "1,1,a", "", "2,0,b", "3,1,b"]
        unix = parse_dataset("\n".join(lines) + "\n")
        for end in ("\r\n", "\r"):
            other = parse_dataset(end.join(lines) + end)
            for field in ("times", "codes", "group"):
                assert np.array_equal(getattr(other, field), getattr(unix, field))
            # the blank line is not counted: the bad row is row 4 either way
            bad = end.join(lines + ["4,9,b"]) + end
            with pytest.raises(DataValidationError, match="^row 4: unknown status"):
                parse_dataset(bad)

    def test_reference_flag(self):
        text = "time,status,group\n1,1,a\n2,1,b\n"
        assert parse_dataset(text, reference="b").groups == ("b", "a")

    def test_empty_input(self):
        with pytest.raises(DataValidationError):
            parse_dataset("time,status,group\n")
