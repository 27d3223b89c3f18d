"""Calendar arithmetic: the single-agent reference's scalar birthday rules
against an independent day-walking oracle, and the array forms of
``popsim.dates`` against those rules."""

from calendar import isleap
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.dates import (add_months, anniversaries, anniversary_in_year, birthdate_windows,
                          shift_years, ymd)

from reference_agent import (birthdate_window, completed_age, days_since_birthday,
                             days_until_birthday, life_year_length)


def observes_anniversary(d: date, birthdate: date) -> bool:
    """Feb-29 birthdays are observed on Feb 28 in non-leap years."""
    if (d.month, d.day) == (birthdate.month, birthdate.day):
        return True
    return (birthdate.month, birthdate.day) == (2, 29) and \
        (d.month, d.day) == (2, 28) and not isleap(d.year)


def oracle_next(t: date, birthdate: date) -> int:
    d = t + timedelta(days=1)
    steps = 1
    while not observes_anniversary(d, birthdate):
        d += timedelta(days=1)
        steps += 1
    return steps


def oracle_since(t: date, birthdate: date) -> int:
    d = t
    steps = 0
    while not observes_anniversary(d, birthdate):
        d -= timedelta(days=1)
        steps += 1
    return steps


# values cross-checked with the day-walk oracle below
CASES_NEXT = [
    (date(2020, 1, 1), date(2000, 3, 15), 74),
    (date(2020, 3, 15), date(2000, 3, 15), 365),
    (date(2021, 1, 1), date(2000, 2, 29), 58),
]
CASES_SINCE = [
    (date(2020, 3, 15), date(2000, 3, 15), 0),
    (date(2020, 1, 1), date(2000, 3, 15), 292),
    (date(2000, 6, 1), date(2000, 3, 15), 78),
]


@pytest.mark.parametrize("t, bd, expected", CASES_NEXT)
def test_days_until_birthday(t, bd, expected):
    assert oracle_next(t, bd) == expected
    assert days_until_birthday(t, bd) == expected


@pytest.mark.parametrize("t, bd, expected", CASES_SINCE)
def test_days_since_birthday(t, bd, expected):
    assert oracle_since(t, bd) == expected
    assert days_since_birthday(t, bd) == expected


def test_life_year_length():
    # life-year 2019-03-15..2020-03-15 contains Feb 29 2020
    assert life_year_length(date(2020, 1, 1), date(2000, 3, 15)) == 366
    assert life_year_length(date(2021, 5, 1), date(2000, 3, 15)) == 365
    # on the anniversary the elapsed part is zero
    t = date(2020, 3, 15)
    assert life_year_length(t, date(2000, 3, 15)) == days_until_birthday(t, date(2000, 3, 15))


def test_feb29_anniversary_observed_feb28():
    assert anniversary_in_year(date(2000, 2, 29), 2021) == date(2021, 2, 28)
    assert anniversary_in_year(date(2000, 2, 29), 2024) == date(2024, 2, 29)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        days_until_birthday(date(2000, 1, 1), date(2010, 1, 1))
    with pytest.raises(ValueError):
        completed_age(date(2000, 1, 1), date(2010, 1, 1))


dates_strategy = st.dates(min_value=date(1900, 1, 1), max_value=date(2150, 12, 31))


@given(bd=dates_strategy, offset=st.integers(min_value=0, max_value=40000))
@settings(max_examples=300, deadline=None)
def test_life_year_invariants(bd, offset):
    t = bd + timedelta(days=offset)
    ahead = days_until_birthday(t, bd)
    since = days_since_birthday(t, bd)
    assert ahead + since in (365, 366)
    assert 0 < ahead <= 366
    assert 0 <= since < 366
    # advancing to the anniversary lands exactly on it
    landing = t + timedelta(days=ahead)
    assert days_since_birthday(landing, bd) == 0
    assert completed_age(landing, bd) == completed_age(t, bd) + 1


@given(bd=dates_strategy, offset=st.integers(min_value=0, max_value=40000))
@settings(max_examples=200, deadline=None)
def test_completed_age_matches_oracle(bd, offset):
    t = bd + timedelta(days=offset)
    walked = sum(1 for y in range(bd.year, t.year + 1)
                 if bd < anniversary_in_year(bd, y) <= t or
                 (y == bd.year and False))
    # anniversaries strictly after birth, at or before t
    count = 0
    for y in range(bd.year, t.year + 1):
        a = anniversary_in_year(bd, y)
        if bd < a <= t:
            count += 1
    assert completed_age(t, bd) == count
    assert walked == count


@given(ref=dates_strategy, age=st.integers(min_value=0, max_value=110))
@settings(max_examples=200, deadline=None)
def test_birthdate_window_exact(ref, age):
    lo, hi = birthdate_window(ref, age)
    span = (hi - lo).days + 1
    assert span in (365, 366)
    for b in (lo, hi):
        assert completed_age(ref, b) == age
    # one day outside either end changes the age
    assert completed_age(ref, lo - timedelta(days=1)) == age + 1
    if hi + timedelta(days=1) <= ref:
        assert completed_age(ref, hi + timedelta(days=1)) == age - 1


def test_shift_and_add_months():
    assert shift_years(date(2020, 2, 29), 1) == date(2021, 2, 28)
    assert shift_years(date(2020, 2, 29), 4) == date(2024, 2, 29)
    assert add_months(date(2020, 1, 31), 1) == date(2020, 2, 29)
    assert add_months(date(2020, 12, 15), 2) == date(2021, 2, 15)


# the leap-day edges, on which the array forms must agree with the scalar ones
LEAP_EDGES = [date(y, 2, d) for y in (1900, 1999, 2000, 2001, 2020, 2021, 2100)
              for d in (27, 28, 29) if d < 29 or isleap(y)] + [date(2021, 3, 1), date(2020, 3, 1)]


@given(refs=st.lists(st.one_of(dates_strategy, st.sampled_from(LEAP_EDGES)), min_size=1),
       ages=st.lists(st.integers(0, 110), min_size=1), shift=st.integers(-150, 150))
@settings(max_examples=200, deadline=None)
def test_array_forms_match_the_scalar_rules(refs, ages, shift):
    refs, ages = refs[:len(ages)], ages[:len(refs)]
    ordinals = np.array([d.toordinal() for d in refs])
    assert [tuple(v) for v in np.stack(ymd(ordinals), axis=1).tolist()] == \
        [(d.year, d.month, d.day) for d in refs]
    years = np.array([d.year + shift for d in refs])
    assert anniversaries(*ymd(ordinals)[1:], years).tolist() == \
        [anniversary_in_year(d, y).toordinal() for d, y in zip(refs, years.tolist())]
    lo, length = birthdate_windows(ordinals, ages)
    windows = [birthdate_window(ref, age) for ref, age in zip(refs, ages)]
    assert lo.tolist() == [first.toordinal() for first, _ in windows]
    assert length.tolist() == [(last - first).days + 1 for first, last in windows]
