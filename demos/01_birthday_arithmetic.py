"""Birthday-centred date arithmetic.

"One year" is not a fixed number of days: the library always computes the
distance to the next observed anniversary, so leap years come out exactly.
The engine applies these rules to whole columns of agents at once, on day
ordinals (``date.toordinal()``); this demo runs them on small arrays.
"""

from datetime import date

import numpy as np

from popsim.dates import anniversaries, ymd


def birthdays_around(t: date, birthdate: date) -> tuple[date, date]:
    """The last observed anniversary at or before ``t`` and the first after it."""
    _, month, day = ymd([birthdate.toordinal()])
    before, this, after = anniversaries(month, day, np.arange(t.year - 1, t.year + 2)).tolist()
    last, following = (this, after) if this <= t.toordinal() else (before, this)
    return date.fromordinal(last), date.fromordinal(following)


today = date(2020, 1, 1)
birthdate = date(2000, 3, 15)

last, following = birthdays_around(today, birthdate)
ahead, since = (following - today).days, (today - last).days
print(f"born {birthdate}, on {today}:")
print(f"  next birthday {following} in {ahead} days")
print(f"  last birthday was {since} days ago")
print(f"  current life-year spans {(following - last).days} days "
      "(it contains Feb 29 2020)")

# the partial-year scaling factor used when an agent is created mid life-year
print(f"  remaining-life-year fraction: {ahead / (ahead + since):.4f}")

# Feb-29 birthdays observe Feb 28 in non-leap years: one call for three years
leapling = date(2000, 2, 29)
print(f"\nleapling born {leapling}:")
for ordinal in anniversaries(2, 29, np.array([2021, 2023, 2024])).tolist():
    print(f"  anniversary observed {date.fromordinal(ordinal)}")

# on the anniversary itself the delta rolls over to a full year
t = date(2020, 3, 15)
last, following = birthdays_around(t, birthdate)
print(f"\non the anniversary {t}: {(following - t).days} days to the next"
      f" one, {(t - last).days} since the last")
