"""Census bookkeeping: recording, aggregation, CSV round trips."""

import pytest

from popsim.census import AgeClassScheme, SyntheticCensus
from popsim.errors import InputError


def toy_census():
    census = SyntheticCensus()
    census.record_population(2024, {("AT-5-01", "m", 70): 3, ("AT-5-01", "f", 71): 2,
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


def test_single_age_scheme_is_identity():
    census = toy_census()
    agg = census.aggregate(AgeClassScheme.single_age(100))
    for key, value in census.items("P"):
        assert agg.get("P", *key) == value
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
    with pytest.raises(InputError, match=r"latin1\.csv: unreadable"):
        SyntheticCensus.from_csv(path)
