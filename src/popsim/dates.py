"""Exact Gregorian date arithmetic for birthday-centred scheduling.

All durations are whole days (``int``); dates are ``datetime.date``.
A "1-year" delay is never a fixed 365 days: it is always the distance to
the next observed anniversary, so leap years are handled exactly.

A Feb-29 birthdate observes its anniversary on Feb 28 in non-leap years,
so no life-year is ever longer than 366 days.

The engine applies the same rules to numpy arrays of day ordinals
(``date.toordinal()``), through ``ymd``, ``anniversaries`` and
``birthdate_windows``.
"""

from __future__ import annotations

import calendar as _cal
from datetime import date, timedelta

import numpy as np

__all__ = [
    "anniversary_in_year",
    "next_birthday",
    "last_birthday",
    "days_until_birthday",
    "days_since_birthday",
    "life_year_length",
    "completed_age",
    "shift_years",
    "add_months",
    "birthdate_window",
    "ymd",
    "anniversaries",
    "birthdate_windows",
]

_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of numpy's datetime64


def anniversary_in_year(birthdate: date, year: int) -> date:
    """The observed anniversary of ``birthdate`` within ``year``."""
    if birthdate.month == 2 and birthdate.day == 29 and not _cal.isleap(year):
        return date(year, 2, 28)
    return date(year, birthdate.month, birthdate.day)


def next_birthday(t: date, birthdate: date) -> date:
    """First observed anniversary strictly after ``t``."""
    _check_order(t, birthdate)
    cand = anniversary_in_year(birthdate, t.year)
    if cand <= t:
        cand = anniversary_in_year(birthdate, t.year + 1)
    return cand


def last_birthday(t: date, birthdate: date) -> date:
    """Most recent observed anniversary at or before ``t``."""
    _check_order(t, birthdate)
    cand = anniversary_in_year(birthdate, t.year)
    if cand > t:
        cand = anniversary_in_year(birthdate, t.year - 1)
    return cand


def days_until_birthday(t: date, birthdate: date) -> int:
    """Days from ``t`` to the next anniversary; strictly positive.

    On the anniversary itself this is the distance to the anniversary one
    year later.
    """
    return (next_birthday(t, birthdate) - t).days


def days_since_birthday(t: date, birthdate: date) -> int:
    """Days since the most recent anniversary; 0 on the anniversary."""
    return (t - last_birthday(t, birthdate)).days


def life_year_length(t: date, birthdate: date) -> int:
    """Length in days of the life-year containing ``t``; 365 or 366."""
    return days_until_birthday(t, birthdate) + days_since_birthday(t, birthdate)


def completed_age(t: date, birthdate: date) -> int:
    """Number of observed anniversaries at or before ``t``."""
    _check_order(t, birthdate)
    age = t.year - birthdate.year
    if anniversary_in_year(birthdate, t.year) > t:
        age -= 1
    return age


def shift_years(d: date, years: int) -> date:
    """``d`` moved by whole calendar years, Feb 29 collapsing to Feb 28."""
    return anniversary_in_year(d, d.year + years)


def add_months(d: date, months: int) -> date:
    """``d`` moved by calendar months, day-of-month clamped to month end."""
    m = d.year * 12 + (d.month - 1) + months
    year, month = divmod(m, 12)
    month += 1
    day = min(d.day, _cal.monthrange(year, month)[1])
    return date(year, month, day)


def birthdate_window(ref: date, age: int) -> tuple[date, date]:
    """Inclusive range of birthdates giving exactly ``age`` completed years at ``ref``.

    The window spans 365 or 366 days.
    """
    if age < 0:
        raise ValueError("age must be non-negative")
    day = timedelta(days=1)
    hi = shift_years(ref, -age)
    lo = shift_years(ref, -(age + 1)) + day
    # Feb-29 collapse can put an endpoint one day off; nudge until maximal.
    while completed_age(ref, hi) != age:
        hi -= day
    while hi + day <= ref and completed_age(ref, hi + day) == age:
        hi += day
    while completed_age(ref, lo) != age:
        lo += day
    while completed_age(ref, lo - day) == age:
        lo -= day
    return lo, hi


# ----- the same rules on arrays of day ordinals -----------------------------------

def ymd(ordinals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of each day ordinal."""
    days = (np.asarray(ordinals, np.int64) - _EPOCH).astype("datetime64[D]")
    months = days.astype("datetime64[M]")
    month_count = months.astype(np.int64)  # months since January 1970
    return (month_count // 12 + 1970, month_count % 12 + 1,
            (days - months.astype("datetime64[D]")).astype(np.int64) + 1)


def _ordinals(years, months, days) -> np.ndarray:
    month_count = (years - 1970) * 12 + months - 1
    return month_count.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) \
        + (days - 1 + _EPOCH)


def _is_leap(years) -> np.ndarray:
    return (years % 4 == 0) & ((years % 100 != 0) | (years % 400 == 0))


def anniversaries(months, days, years) -> np.ndarray:
    """Ordinal of the observed anniversary of a (month, day) birthdate within
    each year, as ``anniversary_in_year``."""
    feb29 = (months == 2) & (days == 29) & ~_is_leap(years)
    return _ordinals(years, months, days - feb29)


def birthdate_windows(refs, ages) -> tuple[np.ndarray, np.ndarray]:
    """First ordinal and length in days of each ``birthdate_window(ref, age)``.

    The window holds the birthdates of years ``ref.year - age - 1`` and
    ``ref.year - age`` whose anniversary in ``ref.year`` falls after ``ref``
    and on or before it respectively, so it ends, in each of those years, on
    the last day whose anniversary is on or before ``ref``: ``ref``'s month
    and day, with Feb 28 and Feb 29 exchanged where the year lacks or adds the
    leap day.
    """
    ages = np.asarray(ages, np.int64)
    if np.any(ages < 0):
        raise ValueError("age must be non-negative")
    ref_year, month, day = ymd(refs)
    feb28 = (month == 2) & (day == 28) & ~_is_leap(ref_year)

    def last_day(years):
        return anniversaries(month, day, years) + (feb28 & _is_leap(years))

    hi = last_day(ref_year - ages)
    lo = last_day(ref_year - ages - 1) + 1
    return lo, hi - lo + 1


def _check_order(t: date, birthdate: date) -> None:
    if birthdate > t:
        raise ValueError(f"birthdate {birthdate} is after reference date {t}")
