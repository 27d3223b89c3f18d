"""Census bookkeeping: recording, aggregation, CSV round trips."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.census import METRIC_INDEX, METRICS, AgeClassScheme, SyntheticCensus
from popsim.errors import InputError
from popsim.regions import region_at_level
from popsim.validation import _series, ensemble_mean

from conftest import book_by_label, book_population


def toy_census():
    census = SyntheticCensus()
    book_population(census, 2024, {("AT-5-01", "m", 70): 3, ("AT-5-01", "f", 71): 2,
                                   ("AT-9", "f", 85): 1})
    census.record_event("D", 2024, "AT-5-01", "m", 70)
    census.record_event("IM_OUT", 2024, "AT-1", "f", 30)
    census.record_event("IM_IN", 2024, "AT-9", "f", 30)
    return census


def test_record_event_increments():
    census = toy_census()
    assert census.get("D", 2024, "AT-5-01", "m", 70) == 1
    census.record_event("D", 2024, "AT-5-01", "m", 70)
    assert census.get("D", 2024, "AT-5-01", "m", 70) == 2
    assert census.get("D", 2023, "AT-5-01", "m", 70) == 0


def test_record_event_rejects_unknown_metric():
    census = toy_census()
    with pytest.raises(InputError, match="unknown census metric 'Q'"):
        census.record_event("Q", 2024, "AT-1", "f", 30)
    assert census.labels("year") == {2024}


def test_internal_migration_double_entry():
    census = toy_census()
    assert census.get("IM_OUT", 2024, "AT-1", "f", 30) == 1
    assert census.get("IM_IN", 2024, "AT-9", "f", 30) == 1


def test_total_with_region_prefix():
    census = toy_census()
    assert census.total("P", 2024) == 6
    assert census.total("P", 2024, region="AT-5") == 5
    assert census.total("P", 2024, region="AT-5-01") == 5
    assert census.total("P", 2024, sex="f") == 3


def test_twenty_year_scheme_labels():
    scheme = AgeClassScheme.twenty_year()
    assert scheme.labels == ["0-19", "20-39", "40-59", "60-79", "80+"]
    assert scheme.label_for(0) == "0-19"
    assert scheme.label_for(79) == "60-79"
    assert scheme.label_for(95) == "80+"


def test_aggregate_by_twenty_year_classes():
    census = toy_census()
    agg = census.aggregate(AgeClassScheme.twenty_year(), region_level=1)
    assert agg.get("P", 2024, "AT-5", "m", "60-79") == 3
    assert agg.get("P", 2024, "AT-5", "f", "60-79") == 2
    assert agg.get("P", 2024, "AT-9", "f", "80+") == 1
    # grand totals preserved
    assert agg.total("P", 2024) == census.total("P", 2024)


def test_aggregate_is_linear():
    a, b = toy_census(), toy_census()
    b.record_event("D", 2024, "AT-9", "f", 85, 4)
    scheme = AgeClassScheme.twenty_year()
    combined = a.add(b).aggregate(scheme)
    summed = a.aggregate(scheme).add(b.aggregate(scheme))
    for metric in ("P", "D", "IM_OUT", "IM_IN"):
        assert dict(combined.items(metric)) == dict(summed.items(metric))


def test_scheme_must_start_at_zero():
    with pytest.raises(InputError):
        AgeClassScheme([20, 40])


def test_csv_round_trip(tmp_path):
    census = toy_census()
    path = tmp_path / "census.csv"
    census.to_csv(path)
    loaded = SyntheticCensus.from_csv(path)
    for metric in ("P", "D", "IM_OUT", "IM_IN"):
        assert dict(loaded.items(metric)) == dict(census.items(metric))


def test_csv_round_trip_aggregated_labels(tmp_path):
    census = toy_census().aggregate(AgeClassScheme.twenty_year())
    path = tmp_path / "agg.csv"
    census.to_csv(path)
    loaded = SyntheticCensus.from_csv(path)
    assert loaded.get("P", 2024, "AT-5-01", "m", "60-79") == 3


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(InputError):
        SyntheticCensus.from_csv(path)


def test_csv_rejects_duplicate_row(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("metric,year,region,sex,age,count\n"
                    "P,2020,AT-1,m,5,3\nD,2020,AT-1,m,5,1\nP,2020,AT-1,m,5,4\n")
    with pytest.raises(InputError, match=r"dup\.csv:4: duplicate row for \(P,2020,AT-1,m,5\)"):
        SyntheticCensus.from_csv(path)


def test_csv_rejects_nan_count(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("metric,year,region,sex,age,count\nP,2020,AT-1,m,5,nan\n")
    with pytest.raises(InputError, match=r"nan\.csv:2: "):
        SyntheticCensus.from_csv(path)


def test_csv_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"metric,year,region,sex,age,count\nP,2020,AT-1,m,5,3\xe9\n")
    with pytest.raises(InputError, match=r"latin1\.csv:2: line holds a non-ASCII byte$"):
        SyntheticCensus.from_csv(path)


def test_csv_rejects_negative_count(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("metric,year,region,sex,age,count\nP,2020,AT-1,m,5,3\nP,2021,AT-1,m,5,-10\n")
    with pytest.raises(InputError, match=r"neg\.csv:3: .*negative count"):
        SyntheticCensus.from_csv(path)


@pytest.mark.parametrize("age", ["", "-1", "x", "1.5", "5-5", "20-10", "-19", "80-", "+", "x+",
                                 " 0-19", "1\0", "1_0", "\u0663"])
def test_csv_rejects_age_neither_whole_nor_class_label(tmp_path, age):
    path = tmp_path / "ages.csv"
    path.write_text(f"metric,year,region,sex,age,count\nP,2020,AT-1,m,5,3\nP,2021,AT-1,m,{age},1\n",
                    encoding="utf-8")
    # a NUL or a non-ASCII byte ends the read at the line before the age is parsed
    message = {"1\0": "line holds a NUL byte$", "\u0663": "line holds a non-ASCII byte$"}.get(
        age, r".*is neither a whole number nor an age class")
    with pytest.raises(InputError, match=rf"ages\.csv:3: {message}"):
        SyntheticCensus.from_csv(path)


def _census_over(regions):
    census = SyntheticCensus()
    for region in regions:
        census.record_event("P", 2020, region, "f", "0-19", 2.5)
        census.record_event("D", 2020, region, "m", 7)
    return census


def test_to_csv_rejects_a_label_outside_the_dialect(tmp_path):
    path = tmp_path / "census.csv"
    for label in ("a,b", 'q"r', "a\nb", "\u00e9"):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            _census_over((label, "AT-1")).to_csv(path)
        assert not path.exists()  # rejected before the file is opened
    # the empty label is a field, so it is written; the reader checks region codes
    census = _census_over(("", "AT-1"))
    census.to_csv(path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "year", "region", "sex", "age", "count"])
        for metric in METRICS:
            writer.writerows([metric, *cell, int(n) if n.is_integer() else repr(n)]
                             for cell, n in census.items(metric))
    assert path.read_bytes() == expected.read_bytes()
    with pytest.raises(InputError, match=r"census\.csv:2: .*malformed region code ''"):
        SyntheticCensus.from_csv(path)


def big_then_ones():
    """1e16 followed by ones: in row order each 1.0 is lost when added to 1e16,
    so any other order of the terms gives a larger float."""
    census = SyntheticCensus()
    census.record_event("P", 2020, "AT-1", "f", 0, 1e16)
    for region in ("AT-1", "AT-2"):
        for age in range(1, 19):
            census.record_event("P", 2020, region, "f", age, 1.0)
    return census


def test_aggregate_adds_cells_in_row_order():
    agg = big_then_ones().aggregate(AgeClassScheme.twenty_year(), region_level=0)
    assert agg.get("P", 2020, "AT", "f", "0-19") == 1e16
    assert 1e16 + 36 > 1e16


def test_report_series_add_cells_in_row_order():
    census = big_then_ones()
    stack = census.table("P", [2020], *census.axes[1:])[None]
    # overall, region AT-1, sex f at age 0, region AT-2
    blocks = ({}, {1: ["AT-1"]}, {2: ["f"], 3: [0]}, {1: ["AT-2"]})
    series = np.concatenate([_series(stack, census.index, picks) for picks in blocks], axis=1)
    assert series[0].tolist() == [[1e16], [1e16], [1e16], [18.0]]


# ----- properties of the array census against per-cell dict arithmetic --------------

REGIONS = ("AT-1", "AT-1-01", "AT-1-02", "AT-10", "AT-2")
CLASS_LABELS = ("0-19", "20-39", "80+", "100+")

int_ages = st.integers(0, 110)
# zeros, whole counts, any reals, and reals whose sums round (thirds have no
# finite binary expansion), so that a change in the order of the terms shows
counts = st.one_of(st.just(0.0), st.integers(0, 10**6).map(float),
                   st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
                   st.integers(1, 10**9).map(lambda k: k / 3000.0))


def cells(ages, metrics=METRICS, years=(2019, 2020, 2021, 2022, 2023), sexes="fm",
          max_size=40):
    """Sparse {(metric, year, region, sex, age): count} maps, zero counts included."""
    return st.dictionaries(
        st.tuples(st.sampled_from(metrics), st.sampled_from(years), st.sampled_from(REGIONS),
                  st.sampled_from(sexes), ages),
        counts, max_size=max_size)


# few coarse cells, so that each sums several cells and the order of the terms shows
dense_cells = cells(int_ages, metrics=("P", "D"), years=(2020,), sexes="f", max_size=80)


mixed_ages = st.one_of(int_ages, st.sampled_from(CLASS_LABELS))
any_ages = st.one_of(int_ages, st.sampled_from(CLASS_LABELS), mixed_ages)


def census_of(cell_map):
    census = SyntheticCensus()
    for (metric, *cell), n in cell_map.items():
        census.record_event(metric, *cell, n)
    return census


def as_dict(census):
    return {(metric, *cell): n for metric in METRICS for cell, n in census.items(metric)}


def row_order(cell_map):
    """The cells in CSV row order: metric, then year, region, sex, age (ages as
    zero-padded numbers, labels as text)."""
    def key(item):
        (metric, year, region, sex, age), _ = item
        return (METRICS.index(metric), year, region, sex,
                f"{age:05d}" if isinstance(age, int) else str(age))
    return sorted(cell_map.items(), key=key)


@settings(max_examples=60, deadline=None)
@given(cell_map=st.one_of(cells(int_ages), cells(st.sampled_from(CLASS_LABELS)),
                          cells(mixed_ages)))
def test_csv_round_trip_is_byte_identical(tmp_path_factory, cell_map):
    first = tmp_path_factory.mktemp("rt") / "census.csv"
    census = census_of(cell_map)
    census.to_csv(first)
    loaded = SyntheticCensus.from_csv(first)
    second = first.with_name("again.csv")
    loaded.to_csv(second)
    assert second.read_bytes() == first.read_bytes()
    assert as_dict(loaded) == cell_map
    rows = first.read_text().splitlines()[1:]
    assert [tuple(row.split(",")[:5]) for row in rows] == \
        [tuple(map(str, key)) for key, _ in row_order(cell_map)]


@settings(max_examples=60, deadline=None)
@given(cell_map=st.one_of(cells(int_ages), dense_cells), level=st.sampled_from([None, 1]),
       scheme=st.sampled_from([None, AgeClassScheme.twenty_year()]))
def test_aggregate_keeps_totals_and_adds_in_row_order(cell_map, level, scheme):
    census = census_of(cell_map)
    agg = census.aggregate(scheme, level)
    expected = {}
    for (metric, year, region, sex, age), n in row_order(cell_map):
        key = (metric, year, region if level is None else region_at_level(region, level), sex,
               age if scheme is None else scheme.label_for(age))
        expected[key] = expected.get(key, 0) + n
    assert as_dict(agg) == expected
    for metric in METRICS:
        for year in range(2019, 2024):
            assert agg.total(metric, year) == pytest.approx(census.total(metric, year))


@settings(max_examples=60, deadline=None)
@given(cell_map=cells(mixed_ages), level=st.sampled_from([1, 2]))
def test_aggregate_by_region_keeps_age_labels(cell_map, level):
    cell_map = {k: v for k, v in cell_map.items() if k[2].count("-") >= level}
    agg = census_of(cell_map).aggregate(None, level)
    expected = {}
    for (metric, year, region, sex, age), n in row_order(cell_map):
        key = (metric, year, region_at_level(region, level), sex, age)
        expected[key] = expected.get(key, 0) + n
    assert as_dict(agg) == expected


@settings(max_examples=60, deadline=None)
@given(maps=st.lists(cells(any_ages), min_size=1, max_size=4))
def test_ensemble_mean_is_the_cell_wise_mean(maps):
    mean = ensemble_mean([census_of(m) for m in maps])
    expected = {}
    for cell_map in maps:
        for key, n in cell_map.items():
            expected[key] = expected.get(key, 0) + n
    assert as_dict(mean) == {key: n * (1.0 / len(maps)) for key, n in expected.items()}


@settings(max_examples=60, deadline=None)
@given(a=cells(any_ages), b=cells(any_ages))
def test_add_and_scaled_match_per_cell_arithmetic(a, b):
    left, right = census_of(a), census_of(b)
    summed = dict(a)
    for key, n in b.items():
        summed[key] = summed.get(key, 0) + n
    assert as_dict(left.add(right)) == summed
    assert as_dict(left) == a  # the operands are left as they were


@settings(max_examples=80, deadline=None)
@given(cell_map=st.one_of(cells(int_ages), cells(mixed_ages)),
       prior=cells(st.integers(0, 30), max_size=6), data=st.data())
def test_booking_by_position_matches_booking_by_label(tmp_path_factory, cell_map, prior, data):
    # the census already holds some labels and cells; the map may use labels it
    # lacks, and each axis's labels come in any order, with some no cell uses
    metrics, *columns = zip(*cell_map) if cell_map else ((),) * 5
    labels = [data.draw(st.permutations(list(dict.fromkeys([*column, *extra]))))
              for column, extra in zip(columns, ((1990, 2019), ("AT-2", "AT-9"), ("m",),
                                                 (0, 200, "0-19")))]
    codes = [np.array([axis.index(label) for label in column], np.intp)
             for axis, column in zip(labels, columns)]
    by_label, by_position = census_of(prior), census_of(prior)
    book_by_label(by_label, cell_map)
    by_position.record_codes(np.array([METRIC_INDEX[m] for m in metrics], np.intp), codes,
                             labels, np.array(list(cell_map.values()), float))
    assert by_position.axes == by_label.axes
    assert np.array_equal(by_position.values, by_label.values)
    assert np.array_equal(by_position.present, by_label.present)
    folder = tmp_path_factory.mktemp("booked")
    by_label.to_csv(folder / "label.csv")
    by_position.to_csv(folder / "position.csv")
    assert (folder / "label.csv").read_bytes() == (folder / "position.csv").read_bytes()
