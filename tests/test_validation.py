"""Ensemble statistics and deviation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.census import METRICS, AgeClassScheme, SyntheticCensus
from popsim.errors import InputError
from popsim.validation import (deviation_extrema, deviation_report,
                               ensemble_mean)


def census_from(cells):
    census = SyntheticCensus()
    for (metric, year, region, sex, age), n in cells.items():
        census.record_event(metric, year, region, sex, age, n)
    return census


def test_ensemble_mean_identity_and_average():
    run = census_from({("P", 2020, "AT-1", "m", 10): 90})
    assert dict(ensemble_mean([run]).items("P")) == {(2020, "AT-1", "m", 10): 90}
    other = census_from({("P", 2020, "AT-1", "m", 10): 110})
    mean = ensemble_mean([run, other])
    assert mean.get("P", 2020, "AT-1", "m", 10) == 100


def test_ensemble_mean_treats_missing_cells_as_zero():
    a = census_from({("D", 2020, "AT-1", "m", 10): 4})
    b = census_from({})
    assert ensemble_mean([a, b]).get("D", 2020, "AT-1", "m", 10) == 2


def test_ensemble_mean_commutes_with_aggregation():
    a = census_from({("P", 2020, "AT-1", "m", 10): 3, ("P", 2020, "AT-1", "m", 25): 5})
    b = census_from({("P", 2020, "AT-1", "m", 12): 7})
    scheme = AgeClassScheme.twenty_year()
    lhs = ensemble_mean([a, b]).aggregate(scheme)
    rhs = ensemble_mean([a.aggregate(scheme), b.aggregate(scheme)])
    assert dict(lhs.items("P")) == dict(rhs.items("P"))


@st.composite
def ensembles(draw):
    """1 to 4 runs of up to 12 cells, zero counts among them; a run may have
    year, region and age labels that no other run has."""
    runs = []
    for k in range(draw(st.integers(1, 4))):
        shift = 10 * (k + 1) if draw(st.booleans()) else 0
        cells = draw(st.dictionaries(st.tuples(
            st.sampled_from(METRICS), st.integers(2020, 2022), st.sampled_from(["AT-1", "AT-2"]),
            st.sampled_from("fm"), st.integers(0, 3)),
            st.just(0.0) | st.floats(0, 1e6), max_size=12))
        runs.append(census_from({(metric, year + shift, f"{region}{shift or ''}", sex, age + shift): n
                                 for (metric, year, region, sex, age), n in cells.items()}))
    return runs


@settings(max_examples=25)
@given(ensembles())
def test_ensemble_mean_folds_runs_as_one_sum_would(runs):
    # the running fold over a generator gives the bytes of the one sum over the list
    expected = runs[0].add(*runs[1:])
    np.multiply(expected.values, 1.0 / len(runs), out=expected.values, where=expected.present)
    first = runs[0].values.copy()
    for mean in (ensemble_mean(run for run in runs), ensemble_mean(runs)):
        assert mean.axes == expected.axes
        np.testing.assert_array_equal(mean.present, expected.present)
        np.testing.assert_array_equal(mean.values.view(np.uint64), expected.values.view(np.uint64))
    np.testing.assert_array_equal(runs[0].values, first)


@pytest.mark.parametrize("empty", [[], iter(())])
def test_ensemble_mean_of_no_runs_is_an_error(empty):
    with pytest.raises(InputError, match="ensemble is empty"):
        ensemble_mean(empty)


def test_deviation_extrema_identical():
    series = [5.0, 7.0]
    assert deviation_extrema(series, list(series)) == (0.0, 0.0)


def test_deviation_extrema_hand_example():
    e_min, e_max = deviation_extrema([100.0, 110.0], [100.0, 100.0])
    assert (e_min, e_max) == (0.0, pytest.approx(0.10))


def test_deviation_extrema_guard_for_zero_reference():
    assert deviation_extrema([3.0], [0.0]) == (3.0, 3.0)


def test_deviation_extrema_keeps_sign():
    e_min, e_max = deviation_extrema([80.0, 120.0], [100.0, 100.0])
    assert e_min == pytest.approx(-0.2)
    assert e_max == pytest.approx(0.2)


def test_deviation_extrema_antisymmetric_on_common_baseline():
    sim = [104.0, 93.0]
    base = [100.0, 100.0]
    fwd = deviation_extrema(sim, base)
    bwd = deviation_extrema(base, sim)
    # same denominators only when the reference side stays >= 1 and equal;
    # asserted for the baseline-denominator direction
    assert fwd[1] == pytest.approx(0.04)
    assert fwd[0] == pytest.approx(-0.07)


def test_deviation_extrema_empty_years():
    with pytest.raises(InputError):
        deviation_extrema([], [])


def test_deviation_extrema_takes_each_row_of_an_array():
    sim = np.array([[100.0, 110.0], [80.0, 120.0], [3.0, 0.0]])
    data = np.array([[100.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    e_min, e_max = deviation_extrema(sim, data)
    rows = [deviation_extrema(s.tolist(), d.tolist()) for s, d in zip(sim, data)]
    assert (e_min.tolist(), e_max.tolist()) == tuple(map(list, zip(*rows)))
    # one reference row against a stack of series, broadcast along the leading axis
    e_min, e_max = deviation_extrema(np.stack([sim, sim * 2]), data)
    assert e_min.shape == e_max.shape == (2, 3)


def test_report_zero_when_ensemble_equals_reference():
    cells = {("P", 2020, "AT-1", "m", 10): 100, ("P", 2021, "AT-1", "m", 10): 100}
    runs = [census_from(cells), census_from(cells)]
    report = deviation_report(runs, census_from(cells))
    assert report.rows
    for row in report.rows:
        assert row.e_min == 0 and row.e_max == 0
        assert row.e_min_ci == (0, 0) and row.e_max_ci == (0, 0)


def test_report_matches_spreadsheet_oracle():
    run1 = census_from({
        ("P", 2020, "AT-1", "m", 10): 100, ("P", 2020, "AT-1", "f", 30): 50,
        ("P", 2021, "AT-1", "m", 10): 110, ("P", 2021, "AT-1", "f", 30): 55,
    })
    run2 = census_from({
        ("P", 2020, "AT-1", "m", 10): 90, ("P", 2020, "AT-1", "f", 30): 52,
        ("P", 2021, "AT-1", "m", 10): 100, ("P", 2021, "AT-1", "f", 30): 57,
    })
    reference = census_from({
        ("P", 2020, "AT-1", "m", 10): 100, ("P", 2020, "AT-1", "f", 30): 50,
        ("P", 2021, "AT-1", "m", 10): 100, ("P", 2021, "AT-1", "f", 30): 50,
    })
    report = deviation_report([run1, run2], reference)

    # spreadsheet arithmetic: quantiles of the aggregated year series
    def q(lo_hi, a, b):
        lo, hi = sorted((a, b))
        return lo + (hi - lo) * (0.05 if lo_hi == "lo" else 0.95)

    run1_totals = {2020: 100 + 50, 2021: 110 + 55}       # 150, 165
    run2_totals = {2020: 90 + 52, 2021: 100 + 57}        # 142, 157
    mean_2020 = (run1_totals[2020] + run2_totals[2020]) / 2   # 146
    mean_2021 = (run1_totals[2021] + run2_totals[2021]) / 2   # 161
    ref_total = 150.0
    e_min = (mean_2020 - ref_total) / ref_total
    e_max = (mean_2021 - ref_total) / ref_total
    lo_2020 = q("lo", run1_totals[2020], run2_totals[2020])   # 142.4
    lo_2021 = q("lo", run1_totals[2021], run2_totals[2021])   # 157.4
    hi_2020 = q("hi", run1_totals[2020], run2_totals[2020])   # 149.6
    hi_2021 = q("hi", run1_totals[2021], run2_totals[2021])   # 164.6
    lo_ratios = [(lo_2020 - 150) / 150, (lo_2021 - 150) / 150]
    hi_ratios = [(hi_2020 - 150) / 150, (hi_2021 - 150) / 150]

    overall = report.rows[0]
    assert (overall.region, overall.sex, overall.age_class) == (None, None, None)
    assert overall.e_min == pytest.approx(e_min, abs=1e-12)
    assert overall.e_max == pytest.approx(e_max, abs=1e-12)
    assert overall.e_min_ci == pytest.approx(
        tuple(sorted((min(lo_ratios), min(hi_ratios)))), abs=1e-12)
    assert overall.e_max_ci == pytest.approx(
        tuple(sorted((max(lo_ratios), max(hi_ratios)))), abs=1e-12)

    # the female block row: cells (f, 30) only
    f_row = next(r for r in report.rows if r.sex == "f")
    f_mean = [(50 + 52) / 2, (55 + 57) / 2]
    f_ratios = [(v - 50) / 50 for v in f_mean]
    assert f_row.e_min == pytest.approx(min(f_ratios), abs=1e-12)
    assert f_row.e_max == pytest.approx(max(f_ratios), abs=1e-12)


def test_report_layout_mirrors_block_structure():
    cells = {("P", 2020, "AT-1", "m", 10): 10, ("P", 2020, "AT-2", "f", 30): 20,
             ("P", 2021, "AT-1", "m", 10): 10, ("P", 2021, "AT-2", "f", 30): 20}
    runs = [census_from(cells), census_from(cells)]
    report = deviation_report(runs, census_from(cells))
    shape = [(r.region, r.sex, r.age_class) for r in report.rows]
    assert shape == [
        (None, None, None),
        (None, "f", None), (None, "m", None),
        (None, None, "0-19"), (None, None, "20-39"),
        ("AT-1", None, None), ("AT-2", None, None),
        ("AT-1", None, "0-19"), ("AT-2", None, "20-39"),
    ]
    # empty reference groupings are reported as coverage gaps, not rows
    assert any("40-59" in gap for gap in report.coverage_gaps)


def test_report_csv_layout(tmp_path):
    cells = {("P", 2020, "AT-1", "m", 10): 10, ("P", 2021, "AT-1", "m", 10): 12}
    runs = [census_from(cells), census_from(cells)]
    report = deviation_report(runs, census_from(cells))
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("region,sex,age_class,e_min,e_min_ci_lo,e_min_ci_hi,"
                        "e_max,e_max_ci_lo,e_max_ci_hi")
    assert lines[1].startswith("-,-,-,")
