"""Synthetic census bookkeeping.

Population snapshots ``P`` are taken on each Jan 1 of the horizon (both ends
inclusive); ``B``, ``D``, ``E``, ``I``, ``IM_IN`` and ``IM_OUT`` count events
per calendar year. Cells are keyed by (year, region, sex, age) at single-age
resolution and aggregated on demand into age classes or coarser regions.

Storage is sparse: absent cells read as zero.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from . import regions as regions_mod
from .errors import InputError
from .files import number, read_table, write_table

METRICS = ("P", "B", "D", "E", "I", "IM_IN", "IM_OUT")
EVENT_METRICS = ("B", "D", "E", "I", "IM_IN", "IM_OUT")

CENSUS_CSV_HEADER = ("metric", "year", "region", "sex", "age", "count")


class AgeClassScheme:
    """Ordered, contiguous age intervals; the last one is open-ended."""

    def __init__(self, lower_bounds: Iterable[int], _identity: bool = False):
        bounds = sorted(set(int(b) for b in lower_bounds))
        if not bounds or bounds[0] != 0:
            raise InputError("age class scheme must start at age 0")
        self.lower_bounds = bounds
        self._identity = _identity
        self.labels: list = []
        for i, lo in enumerate(bounds):
            if i + 1 < len(bounds):
                hi = bounds[i + 1] - 1
                self.labels.append(lo if hi == lo else f"{lo}-{hi}")
            else:
                self.labels.append(lo if _identity else f"{lo}+")

    @classmethod
    def twenty_year(cls) -> "AgeClassScheme":
        return cls([0, 20, 40, 60, 80])

    @classmethod
    def single_age(cls, max_age: int) -> "AgeClassScheme":
        """Width-1 classes labelled by the age itself (aggregation is an identity)."""
        return cls(range(max_age + 1), _identity=True)

    def label_for(self, age: int):
        try:
            if age < 0:
                raise InputError(f"negative age {age}")
        except TypeError:
            raise InputError(f"age {age!r} is not a whole number of years") from None
        return self.labels[bisect_right(self.lower_bounds, age) - 1]


class SyntheticCensus:
    """Accumulated population snapshots and per-year event counts."""

    def __init__(self):
        self._data: dict[str, dict[tuple, float]] = {m: {} for m in METRICS}

    def record_event(self, metric: str, year: int, region: str, sex: str,
                     age, n: float = 1) -> None:
        if metric not in METRICS:
            raise InputError(f"unknown census metric {metric!r}")
        cells = self._data[metric]
        key = (year, region, sex, age)
        cells[key] = cells.get(key, 0) + n

    def record_population(self, year: int, counts: dict) -> None:
        """Store a Jan-1 snapshot; ``counts`` maps (region, sex, age) to count."""
        cells = self._data["P"]
        for (region, sex, age), n in counts.items():
            key = (year, region, sex, age)
            cells[key] = cells.get(key, 0) + n

    def get(self, metric: str, year: int, region: str, sex: str, age) -> float:
        return self._data[metric].get((year, region, sex, age), 0)

    def keys(self, metric: str) -> Iterator[tuple]:
        return iter(self._data[metric])

    def items(self, metric: str):
        return self._data[metric].items()

    def years(self, metric: str) -> set[int]:
        return {y for (y, _, _, _) in self._data[metric]}

    def regions(self) -> set[str]:
        out = set()
        for cells in self._data.values():
            out.update(r for (_, r, _, _) in cells)
        return out

    def total(self, metric: str, year: int, region: str | None = None,
              sex: str | None = None) -> float:
        """Sum over cells of one year, optionally filtered by region prefix and sex."""
        acc = 0
        for (y, r, s, _), n in self._data[metric].items():
            if y != year:
                continue
            if region is not None and r != region and not r.startswith(region + "-"):
                continue
            if sex is not None and s != sex:
                continue
            acc += n
        return acc

    def aggregate(self, scheme: AgeClassScheme | None = None,
                  region_level: int | None = None) -> "SyntheticCensus":
        """Sum cells into (year, region-at-level, sex, age-class); totals preserved."""
        out = SyntheticCensus()
        for metric, cells in self._data.items():
            acc = out._data[metric]
            for (year, region, sex, age), n in cells.items():
                if region_level is not None:
                    region = regions_mod.region_at_level(region, region_level)
                label = scheme.label_for(age) if scheme is not None else age
                key = (year, region, sex, label)
                acc[key] = acc.get(key, 0) + n
        return out

    def scaled(self, factor: float) -> "SyntheticCensus":
        out = SyntheticCensus()
        for metric, cells in self._data.items():
            out._data[metric] = {k: v * factor for k, v in cells.items()}
        return out

    def add(self, other: "SyntheticCensus") -> "SyntheticCensus":
        out = SyntheticCensus()
        for metric in METRICS:
            cells = dict(self._data[metric])
            for k, v in other._data[metric].items():
                cells[k] = cells.get(k, 0) + v
            out._data[metric] = cells
        return out

    def to_csv(self, path) -> None:
        write_table(path, CENSUS_CSV_HEADER, self._csv_rows())

    def _csv_rows(self):
        for metric in METRICS:
            cells = self._data[metric]
            for key in sorted(cells, key=_cell_sort_key):
                n = cells[key]
                yield [metric, *key, int(n) if float(n).is_integer() else repr(float(n))]

    @classmethod
    def from_csv(cls, path) -> "SyntheticCensus":
        census = cls()
        data = census._data
        for (metric, cell), n in read_table(path, CENSUS_CSV_HEADER, _parse_census_row).items():
            data[metric][cell] = n
        return census


def _parse_census_row(row):
    metric, year, region, sex, age, count = row
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    age = int(age) if age.lstrip("-").isdigit() else age
    return (metric, (int(year), region, sex, age)), number(count)


def _cell_sort_key(key):
    year, region, sex, age = key
    return (year, region, sex, str(age) if not isinstance(age, int) else f"{age:05d}")


def count_population(agents) -> dict[tuple[str, str, int], int]:
    """Tally alive agents per (region, sex, age)."""
    counts: dict[tuple[str, str, int], int] = {}
    for agent in agents:
        if agent.alive:
            key = (agent.region, agent.sex, agent.age)
            counts[key] = counts.get(key, 0) + 1
    return counts
