"""Parameter computation and lookup.

Probabilities are per *life-year* (the interval between two consecutive
birthdays of one person), not per calendar year. Converting calendar-year
census counts into such probabilities uses Farr's rate formula

    p = D / (P_avg + D/2)

which corrects for the fact that roughly half of the events recorded at age
``a`` in a calendar year happened to people who started the year aged a-1.

Integer disaggregation uses a Huntington-Hill style priority method
(priority w / sqrt(n(n+1))), the divisor method classically used for
apportioning parliament seats.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable

import numpy as np

from . import regions
from .errors import CoverageError, InputError
from .files import age, integer, number, read_columns, whole_or_repr, write_columns

PROBABILITY_KINDS = ("death", "emigration", "birth", "internal_migration")
IMMIGRATION_KIND = "immigration"

# the sexes whose life-years draw each kind: only women give birth
KIND_SEXES = {"death": ("m", "f"), "emigration": ("m", "f"), "birth": ("f",),
              "internal_migration": ("m", "f")}

# census metric holding the per-year event counts for each probability kind
EVENT_METRIC = {
    "death": "D",
    "emigration": "E",
    "birth": "B",
    "internal_migration": "IM_OUT",
}

PARAM_CSV_HEADER = ("kind", "year", "region", "sex", "age", "value")


def farr_probability(deaths: float, pop_avg: float) -> float:
    """Per-life-year event probability from a yearly count and average cohort size.

    Algebraically equal to 1 - (1 - m/2)/(1 + m/2) with m = deaths/pop_avg.
    """
    if deaths < 0:
        raise InputError(f"negative event count {deaths}")
    if pop_avg <= 0:
        raise InputError(f"undefined cell: pop_avg={pop_avg} with {deaths} events")
    if deaths >= 2 * pop_avg:
        raise InputError(
            f"event count {deaths} >= 2*pop_avg ({pop_avg}); probability would reach 1"
        )
    return deaths / (pop_avg + deaths / 2.0)


def apportion_integer(total: int, weights) -> list[int]:
    """Distribute an integer ``total`` over cells proportionally to ``weights``.

    Huntington-Hill priority method: every positive-weight cell receives a
    first unit (by descending weight while units last), further units go to
    the highest priority w/sqrt(n(n+1)). Ties break toward the lower index.
    The result sums exactly to ``total`` and is invariant under positive
    scaling of the weight vector.
    """
    w = [float(x) for x in weights]
    if total < 0:
        raise InputError("total must be non-negative")
    if any(x < 0 for x in w):
        raise InputError("weights must be non-negative")
    alloc = [0] * len(w)
    if total == 0:
        return alloc
    positive = [i for i, x in enumerate(w) if x > 0]
    if not positive:
        raise InputError("cannot apportion a positive total over all-zero weights")

    if total < len(positive):
        for i in sorted(positive, key=lambda i: (-w[i], i))[:total]:
            alloc[i] = 1
        return alloc

    for i in positive:
        alloc[i] = 1
    remaining = total - len(positive)
    # max-heap on priority; (-priority, index) gives the lower-index tie-break
    heap = [(-w[i] / math.sqrt(2.0), i) for i in positive]
    heapq.heapify(heap)
    for _ in range(remaining):
        _, i = heapq.heappop(heap)
        alloc[i] += 1
        n = alloc[i]
        heapq.heappush(heap, (-w[i] / math.sqrt(n * (n + 1.0)), i))
    return alloc


class ParameterTable:
    """Lookup of per-life-year probabilities keyed by (year, region, sex, age).

    Regions are stored at one resolution level; queries with finer codes are
    mapped upward through the region hierarchy. Ages above ``max_age`` clamp
    to the ``max_age`` row. Sex is ``'m'``/``'f'``, or ``'all'`` in a table
    whose every row covers both; a birth table has no ``'m'`` rows.
    """

    def __init__(self, kind: str, max_age: int):
        if kind not in PROBABILITY_KINDS and kind != IMMIGRATION_KIND:
            raise InputError(f"unknown parameter kind {kind!r}")
        if max_age < 0:
            raise InputError(f"max_age {max_age} is negative")
        self.kind = kind
        self.max_age = int(max_age)
        self._rows: dict[tuple[int, str, str], np.ndarray] = {}
        self.level: int | None = None
        self.sexes: set[str] = set()
        self._resolved: dict[tuple[int, str, str], np.ndarray] = {}

    def set_row(self, year: int, region: str, sex: str, values) -> None:
        arr = np.array(values, dtype=float)
        if arr.shape != (self.max_age + 1,):
            raise InputError(
                f"row for ({year},{region},{sex}) must cover ages 0..{self.max_age}"
            )
        # written as an in-range test so that NaN fails it
        if not (np.all(arr >= 0) and (self.kind == IMMIGRATION_KIND or np.all(arr <= 1))):
            raise InputError(f"values out of range for kind {self.kind!r}")
        lvl = regions.level_of(region)
        if self.level is None:
            self.level = lvl
        elif lvl != self.level:
            raise InputError(
                f"mixed region levels in {self.kind} table: {region!r} is not "
                f"{regions.level_name(self.level)}"
            )
        if self.sexes and ("all" in self.sexes) != (sex == "all"):
            raise InputError(f"{self.kind} row ({year},{region},{sex}) mixes sex 'all' with m/f")
        if self.kind == "birth" and sex == "m":
            raise InputError(f"birth row ({year},{region},m): only women give birth")
        self._rows[(year, region, sex)] = arr
        self.sexes.add(sex)
        self._resolved.clear()

    def set_constant(self, years: Iterable[int], region_list: Iterable[str],
                     sexes: Iterable[str], values) -> None:
        for y, r, s in itertools.product(years, region_list, sexes):
            self.set_row(y, r, s, values)

    def row(self, year: int, region: str, sex: str) -> np.ndarray:
        """The stored age row answering (year, region, sex).

        The ``all``-sex fallback and the region hierarchy are resolved once per
        key; the table's own array is returned, so it must not be modified.
        """
        key = (year, region, sex)
        row = self._resolved.get(key)
        if row is None:
            if self.level is None:
                raise CoverageError(f"{self.kind} table is empty")
            key_sex = "all" if "all" in self.sexes else sex
            row = self._rows.get((year, regions.region_at_level(region, self.level), key_sex))
            if row is None:
                raise CoverageError(
                    f"{self.kind} parameters missing for year={year} region={region} sex={sex}"
                )
            self._resolved[key] = row
        return row

    def lookup(self, year: int, region: str, sex: str, age: int) -> float:
        if age < 0:
            raise InputError(f"negative age {age}")
        return float(self.row(year, region, sex)[min(age, self.max_age)])

    def covers(self, years: Iterable[int], region_list: Iterable[str],
               sexes: Iterable[str]) -> list[str]:
        """Human-readable list of coverage gaps (empty when fully covered)."""
        gaps = []
        for y, r, s in itertools.product(years, region_list, sexes):
            try:
                self.row(y, r, s)
            except CoverageError:
                gaps.append(f"{self.kind}: year={y} region={r} sex={s}")
            except InputError as exc:
                gaps.append(str(exc))
        return gaps

    def to_csv(self, path) -> None:
        keys, ages = sorted(self._rows), np.arange(self.max_age + 1)
        labels = [np.unique(column, return_inverse=True)
                  for column in zip(*((self.kind, *key) for key in keys))]
        write_columns(path, PARAM_CSV_HEADER, [
            *((distinct, np.repeat(codes, len(ages))) for distinct, codes in labels),
            (ages, np.tile(ages, len(keys)))], np.array([self._rows[key] for key in keys]).ravel())

    @classmethod
    def from_csv(cls, path) -> "ParameterTable":
        cells, kind = _read_param_csv(path)
        if kind == IMMIGRATION_KIND:
            raise InputError(f"{path}: use ImmigrationTable.from_csv for immigration counts")
        max_age = max(cells.labels[4])
        group, first = cells.groups((1, 2, 3))
        ages = cells.positions(4, range(max_age + 1))
        rows = np.zeros((len(first), max_age + 1))
        rows[group, ages] = cells.values
        short = np.flatnonzero(np.bincount(group) != max_age + 1).tolist()
        if short:  # the first (year, region, sex) of the file that lacks ages
            missing = sorted(set(range(max_age + 1)) - set(ages[group == short[0]].tolist()))
            raise InputError(f"{path}:{first[short[0]] + 2}: row "
                             f"({','.join(map(str, cells.row(first[short[0]], (1, 2, 3))))}) "
                             f"lacks ages {missing} of 0..{max_age}")
        table = cls(kind, max_age)
        for g, row in enumerate(first.tolist()):
            table.set_row(*cells.row(row, (1, 2, 3)), rows[g])
        return table


class ImmigrationTable:
    """Integer immigrant counts per (year, region, sex, age).

    Counts are exact: the engine creates precisely this many agents per cell,
    randomising only entry date and birthdate.
    """

    def __init__(self):
        self.counts: dict[tuple[int, str, str, int], int] = {}

    def add(self, year: int, region: str, sex: str, age: int, count: int) -> None:
        if count < 0:
            raise InputError(f"negative immigration count for ({year},{region},{sex},{age})")
        if age < 0:
            raise InputError(f"negative immigration age for ({year},{region},{sex},{age})")
        if sex not in ("m", "f"):
            raise InputError(f"immigration counts need sex m or f: ({year},{region},{sex},{age})")
        regions.level_of(region)  # validates the code
        if count:
            key = (year, region, sex, age)
            self.counts[key] = self.counts.get(key, 0) + int(count)

    def cells_for_year(self, year: int) -> list[tuple[str, str, int, int]]:
        """(region, sex, age, count) cells of ``year`` in deterministic order."""
        out = [(r, s, a, n) for (y, r, s, a), n in self.counts.items() if y == year]
        out.sort()
        return out

    def to_csv(self, path) -> None:
        cells = sorted(self.counts.items())
        write_columns(path, PARAM_CSV_HEADER, [
            np.unique(column, return_inverse=True)
            for column in zip(*((IMMIGRATION_KIND, *key) for key, _ in cells))],
            [count for _, count in cells], whole_or_repr)

    @classmethod
    def from_csv(cls, path) -> "ImmigrationTable":
        cells, kind = _read_param_csv(path)
        if kind != IMMIGRATION_KIND:
            raise InputError(f"{path}: expected immigration counts, found kind {kind!r}")
        table = cls()
        table.counts = {key: int(count) for key, count in zip(
            zip(*(cells.column(j) for j in range(1, 5))), cells.values.tolist()) if count}
        return table


def _read_param_csv(path):
    """The file's cells as ``read_columns`` reads them, and its one kind."""
    kinds = []
    first_level = []  # (code, level) of the first region of a probability table
    sexes = []

    def kind(text):
        if not kinds:
            if text not in PROBABILITY_KINDS and text != IMMIGRATION_KIND:
                raise ValueError(f"unknown parameter kind {text!r}")
            kinds.append(text)
        elif text != kinds[0]:
            raise ValueError(f"mixed kinds {kinds[0]!r} and {text!r}")
        return text

    def region(text):
        level = regions.level_of(text)
        if kinds[:1] != [IMMIGRATION_KIND]:
            if not first_level:
                first_level.append((text, level))
            first, first_at = first_level[0]
            if level != first_at:
                raise ValueError(f"mixed region levels: {text!r} is {regions.level_name(level)}, "
                                 f"{first!r} above is {regions.level_name(first_at)}")
        return text

    def sex(text):
        if text not in ("m", "f", "all"):
            raise ValueError("sex must be m, f or all")
        if text == "all" and kinds[:1] == [IMMIGRATION_KIND]:
            raise ValueError("immigration counts need sex m or f")
        if text == "m" and kinds[:1] == ["birth"]:
            raise ValueError("only women give birth: a birth row's sex is f or all")
        if sexes and (sexes[0] == "all") != (text == "all"):
            raise ValueError(f"mixed sexes {sexes[0]!r} and {text!r}")
        sexes.append(text)
        return text

    def check(value):
        if kinds[:1] == [IMMIGRATION_KIND]:
            return ((value < 0) | (value != np.trunc(value)),
                    "an immigration count must be a non-negative integer")
        return ~((0 <= value) & (value <= 1)), "a probability must lie in [0, 1]"

    cells = read_columns(path, PARAM_CSV_HEADER, (kind, integer, region, sex, age, number),
                         key=range(1, 5), check=check)
    if not len(cells.values):
        raise InputError(f"{path}: no data rows")
    return cells, kinds[0]


def derive_params_from_census(census, kind: str, max_age: int | None = None) -> ParameterTable:
    """Farr probabilities from a census's event counts and Jan-1 snapshots.

    Per cell, p = farr(X, P_avg) with P_avg the mean of the adjacent Jan-1
    snapshots when both exist, else the start-of-year count. Birth
    probabilities are computed against the female population only.
    """
    if kind not in PROBABILITY_KINDS:
        raise InputError(f"cannot derive parameters of kind {kind!r}")
    metric = EVENT_METRIC[kind]
    snap_years = census.labels("year", "P")
    if not snap_years:
        raise InputError("census holds no population snapshots")
    if not all(isinstance(age, int) for age in census.axes[3]):
        for m in ("P", metric):
            for (year, region, sex, age), _ in census.items(m):
                if not isinstance(age, int):
                    raise InputError(f"census cell {m}({year},{region},{sex},{age}) has a "
                                     "non-integer age; parameters derive from single-year ages")
    derive_years = sorted({y for y in snap_years if y + 1 in snap_years}
                          | (census.labels("year", metric) & snap_years))
    region_list = sorted(census.labels("region"))
    sexes = KIND_SEXES[kind]
    if max_age is None:
        max_age = max(census.labels("age", "P"), default=0)

    table = ParameterTable(kind, max_age)
    years = sorted(snap_years)  # a year's successor, when a snapshot year, is next
    pop = census.table("P", years, region_list, sexes, range(max_age + 1))
    events = census.table(metric, years, region_list, sexes, range(max_age + 1))
    for year in derive_years:
        y = years.index(year)
        pop_avg = (pop[y] + pop[y + 1]) / 2.0 if year + 1 in snap_years else pop[y]
        x, empty = events[y], pop_avg <= 0
        # the first (region, sex, age) cell that farr_probability rejects
        bad = np.argwhere(np.where(empty, x > 0, (x < 0) | (x >= 2 * pop_avg)))
        if len(bad):
            r, s, age = bad[0].tolist()
            cell = f"{metric}({year},{region_list[r]},{sexes[s]},{age})"
            if empty[r, s, age]:
                raise InputError(f"empty cell: {cell}={float(x[r, s, age])} with no population")
            try:
                farr_probability(float(x[r, s, age]), float(pop_avg[r, s, age]))
            except InputError as exc:
                raise InputError(f"cell {cell}: {exc}") from None
        values = np.divide(x, pop_avg + x / 2.0, out=np.zeros(x.shape), where=~empty)
        for (r, region), (s, sex) in itertools.product(enumerate(region_list), enumerate(sexes)):
            table.set_row(year, region, sex, values[r, s])
    return table
