"""Exact Gregorian date arithmetic for birthday-centred scheduling.

A "1-year" delay is never a fixed 365 days but the distance to the next
observed anniversary; a Feb-29 birthdate observes its anniversary on Feb 28
in non-leap years, so no life-year is longer than 366 days. The engine
applies these rules to arrays of day ordinals (``date.toordinal()``); the
tests check them against ``tests/reference_agent.py``, which states them for
single dates.
"""

from __future__ import annotations

import calendar as _cal
from datetime import date

import numpy as np

__all__ = ["anniversary_in_year", "shift_years", "add_months", "ymd", "anniversaries",
           "birthdate_windows"]

_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of numpy's datetime64


def anniversary_in_year(birthdate: date, year: int) -> date:
    """The observed anniversary of ``birthdate`` within ``year``."""
    if birthdate.month == 2 and birthdate.day == 29 and not _cal.isleap(year):
        return date(year, 2, 28)
    return date(year, birthdate.month, birthdate.day)


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
        + days + (_EPOCH - 1)


def _is_leap(years) -> np.ndarray:
    return (years % 4 == 0) & ((years % 100 != 0) | (years % 400 == 0))


def anniversaries(months, days, years) -> np.ndarray:
    """Ordinal of the observed anniversary of a (month, day) birthdate within
    each year, as ``anniversary_in_year``."""
    feb29 = (months == 2) & (days == 29) & ~_is_leap(years)
    return _ordinals(years, months, days - feb29)


def birthdate_windows(refs, ages) -> tuple[np.ndarray, np.ndarray]:
    """First ordinal and length in days (365 or 366) of each window of birthdates
    with ``ages`` completed years at ``refs``.

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
