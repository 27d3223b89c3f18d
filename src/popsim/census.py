"""Synthetic census bookkeeping.

Population snapshots ``P`` are taken on each Jan 1 of the horizon (both ends
inclusive); ``B``, ``D``, ``E``, ``I``, ``IM_IN`` and ``IM_OUT`` count events
per calendar year. Cells are keyed by (year, region, sex, age) at single-age
resolution and aggregated on demand into age classes or coarser regions.

A census holds one float64 array per metric, stacked as ``values[metric,
year, region, sex, age]``, and a boolean ``present`` array of the same shape.
``axes`` holds each axis's labels in CSV row order (years, regions and sexes
sorted, ages as zero-padded numbers, class labels as text), so C order is row
order; ``index`` maps labels to positions. A cell is present once recorded,
even with a zero count; only present cells are written, and an absent cell
reads as 0. Sums add their terms one at a time in row order, as a scan over a
file's rows would.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

import numpy as np

from . import regions as regions_mod
from .errors import InputError
from .files import csv_field, number, read_table, write_lines

METRICS = ("P", "B", "D", "E", "I", "IM_IN", "IM_OUT")
METRIC_INDEX = {metric: i for i, metric in enumerate(METRICS)}
AXES = ("year", "region", "sex", "age")

CENSUS_CSV_HEADER = ("metric", "year", "region", "sex", "age", "count")


def _age_key(age) -> str:
    return f"{age:05d}" if isinstance(age, int) else str(age)


# how each axis sorts its labels: year, region, sex, age
_AXIS_KEYS = (None, None, None, _age_key)


class AgeClassScheme:
    """Ordered, contiguous age intervals; the last one is open-ended."""

    def __init__(self, lower_bounds: Iterable[int]):
        bounds = sorted(set(int(b) for b in lower_bounds))
        if not bounds or bounds[0] != 0:
            raise InputError("age class scheme must start at age 0")
        self.lower_bounds = bounds
        self.labels: list = []
        for i, lo in enumerate(bounds):
            if i + 1 < len(bounds):
                hi = bounds[i + 1] - 1
                self.labels.append(lo if hi == lo else f"{lo}-{hi}")
            else:
                self.labels.append(f"{lo}+")

    @classmethod
    def twenty_year(cls) -> "AgeClassScheme":
        return cls([0, 20, 40, 60, 80])

    def label_for(self, age: int):
        try:
            if age < 0:
                raise InputError(f"negative age {age}")
        except TypeError:
            raise InputError(f"age {age!r} is not a whole number of years") from None
        return self.labels[bisect_right(self.lower_bounds, age) - 1]


class SyntheticCensus:
    """Accumulated population snapshots and per-year event counts."""

    def __init__(self, axes=((), (), (), ())):
        """An empty census over ``axes``: year, region, sex and age labels, each
        in sorted order."""
        self.axes = tuple(list(labels) for labels in axes)
        for labels, key in zip(self.axes, _AXIS_KEYS):
            if labels != sorted(labels, key=key):
                raise ValueError(f"census axis labels out of order: {labels!r}")
        self.index = tuple({label: i for i, label in enumerate(labels)} for labels in self.axes)
        shape = (len(METRICS), *map(len, self.axes))
        self.values = np.zeros(shape)
        self.present = np.zeros(shape, dtype=bool)

    # ----- recording ---------------------------------------------------------

    def record_event(self, metric: str, year: int, region: str, sex: str,
                     age, n: float = 1) -> None:
        self.record_cells({(metric, year, region, sex, age): n})

    def record_cells(self, cells) -> None:
        """Add each count of ``cells``, a mapping (metric, year, region, sex, age) -> n."""
        if not cells:
            return
        metrics, *labels = zip(*cells)
        unknown = set(metrics) - METRIC_INDEX.keys()
        if unknown:
            raise InputError(f"unknown census metric {min(unknown)!r}")
        self.extend(*labels)
        at = tuple(np.fromiter(map(index.__getitem__, column), np.intp, len(cells))
                   for index, column in zip((METRIC_INDEX, *self.index), (metrics, *labels)))
        self.values[at] += np.fromiter(cells.values(), float, len(cells))
        self.present[at] = True

    def record_population(self, year: int, counts: dict) -> None:
        """Store a Jan-1 snapshot; ``counts`` maps (region, sex, age) to count."""
        self.record_cells({("P", year, *key): n for key, n in counts.items()})

    def extend(self, years=(), regions=(), sexes=(), ages=()) -> None:
        """Add the missing labels to the axes; no cell becomes present. Growing
        copies the arrays, so a caller that knows its labels can add them first."""
        new = [sorted(set(got) - index.keys(), key=key)
               for got, index, key in zip((years, regions, sexes, ages), self.index, _AXIS_KEYS)]
        if any(new):
            vars(self).update(vars(self.add(SyntheticCensus(new))))

    # ----- reading -----------------------------------------------------------

    def get(self, metric: str, year: int, region: str, sex: str, age) -> float:
        try:
            at = (METRIC_INDEX[metric], *(index[label] for index, label
                                          in zip(self.index, (year, region, sex, age))))
        except KeyError:
            return 0.0
        return float(self.values[at])

    def _cells(self, metric: str, axes):
        """(year, region, sex, age, count) of each present cell in row order, the
        labels taken from ``axes``."""
        m = METRIC_INDEX[metric]
        at = np.nonzero(self.present[m])
        return zip(*([axis[i] for i in idx.tolist()] for axis, idx in zip(axes, at)),
                   self.values[m][at].tolist())

    def items(self, metric: str):
        """((year, region, sex, age), count) of each present cell, in row order."""
        return (((y, r, s, a), n) for y, r, s, a, n in self._cells(metric, self.axes))

    def labels(self, axis: str, metric: str | None = None) -> set:
        """Labels of ``axis`` (one of AXES) holding a present cell of ``metric``,
        or of any metric."""
        k = AXES.index(axis)
        present = self.present if metric is None else self.present[METRIC_INDEX[metric]][None]
        hit = present.any(axis=tuple(i for i in range(5) if i != k + 1))
        return {self.axes[k][i] for i in np.flatnonzero(hit)}

    def table(self, metric: str, years, regions, sexes, n_ages: int) -> np.ndarray:
        """``metric`` as a [year, region, sex, age] array over the given labels and
        the integer ages 0..n_ages-1; absent cells and labels read as 0."""
        out = np.zeros((len(years), len(regions), len(sexes), n_ages))
        found = [[(j, index[label]) for j, label in enumerate(labels) if label in index]
                 for labels, index in zip((years, regions, sexes, range(n_ages)), self.index)]
        dst, src = ([[pair[k] for pair in axis] for axis in found] for k in (0, 1))
        out[np.ix_(*dst)] = self.values[METRIC_INDEX[metric]][np.ix_(*src)]
        return out

    def total(self, metric: str, year: int, region: str | None = None,
              sex: str | None = None) -> float:
        """Sum over cells of one year, optionally filtered by region prefix and sex."""
        if year not in self.index[0]:
            return 0.0
        cells = self.values[METRIC_INDEX[metric], self.index[0][year]]
        if region is not None:
            cells = cells[[r == region or r.startswith(region + "-") for r in self.axes[1]]]
        if sex is not None:
            cells = cells[:, [s == sex for s in self.axes[2]]]
        return float(cells.sum())

    # ----- arithmetic ----------------------------------------------------------

    def aggregate(self, scheme: AgeClassScheme | None = None,
                  region_level: int | None = None) -> "SyntheticCensus":
        """Sum cells into (year, region-at-level, sex, age-class); totals preserved.

        Each coarser cell adds its cells one at a time in row order (region,
        then age).
        """
        years, regions, sexes, ages = self.axes
        to_region = regions if region_level is None else \
            [regions_mod.region_at_level(r, region_level) for r in regions]
        to_age = ages if scheme is None else [scheme.label_for(a) for a in ages]
        out = SyntheticCensus((years, sorted(set(to_region)), sexes,
                               sorted(set(to_age), key=_age_key)))
        # ufunc.at visits the (region, age) pairs in row order, adding one at a time
        at = (slice(None), slice(None),
              np.array([out.index[1][r] for r in to_region], dtype=np.intp)[:, None],
              slice(None), np.array([out.index[3][a] for a in to_age], dtype=np.intp))
        np.add.at(out.values, at, np.moveaxis(self.values, (2, 4), (0, 1)))
        np.logical_or.at(out.present, at, np.moveaxis(self.present, (2, 4), (0, 1)))
        return out

    def add(self, *others: "SyntheticCensus") -> "SyntheticCensus":
        """Cell-wise sum of this census and ``others``, added in that order; a cell
        is present where any term has it."""
        terms = (self, *others)
        out = SyntheticCensus([sorted(set().union(*(t.axes[k] for t in terms)), key=key)
                               for k, key in enumerate(_AXIS_KEYS)])
        for term in terms:
            if term.axes == out.axes:
                # written only where the term has cells: np.zeros leaves a page unmapped
                # until it is written, so the pages no term has a cell on cost no memory
                np.add(out.values, term.values, out=out.values, where=term.present)
                out.present[term.present] = True
            else:
                at = (slice(None),) + np.ix_(*([pos[label] for label in labels]
                                               for pos, labels in zip(out.index, term.axes)))
                out.values[at] += term.values
                out.present[at] |= term.present
        return out

    # ----- files ---------------------------------------------------------------

    def to_csv(self, path) -> None:
        fields = [[csv_field(label) for label in labels] for labels in self.axes]
        write_lines(path, CENSUS_CSV_HEADER, (
            f"{metric},{y},{r},{s},{a},{int(n) if n.is_integer() else repr(n)}\r\n"
            for metric in METRICS for y, r, s, a, n in self._cells(metric, fields)))

    @classmethod
    def from_csv(cls, path) -> "SyntheticCensus":
        census = cls()
        census.record_cells(read_table(path, CENSUS_CSV_HEADER, _census_row_parser()))
        return census


def _census_row_parser():
    """A row parser for one census file; it checks each region code once."""
    checked = set()  # region codes found well-formed

    def parse(row):
        metric, year, region, sex, age, count = row
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        count = number(count)
        if count < 0:
            raise ValueError("negative count")
        if region not in checked:
            regions_mod.level_of(region)
            checked.add(region)
        age = int(age) if age.lstrip("-").isdigit() else age
        return (metric, int(year), region, sex, age), count

    return parse


def count_population(regions, region, sex, age) -> dict[tuple[str, str, int], int]:
    """Tally agents per (region, sex, age), given as columns: positions in
    ``regions``, sex positions in (``f``, ``m``) and ages."""
    shape = (len(regions), 2, int(age.max(initial=0)) + 1)
    counts = np.bincount(np.ravel_multi_index((region, sex, age), shape))
    cells = np.flatnonzero(counts)
    return {(regions[r], "fm"[s], a): n for r, s, a, n in zip(
        *(c.tolist() for c in np.unravel_index(cells, shape)), counts[cells].tolist())}
