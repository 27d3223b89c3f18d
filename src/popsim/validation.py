"""Monte Carlo aggregation and deviation metrics against a reference census.

An ensemble is the censuses of runs differing only in seed. The
cell-wise ensemble mean is compared with the reference through the signed
minimum/maximum relative deviation over a year range,

    e = (sim - data) / max(1, data),

which deliberately does not smooth over fluctuations: systematic under- or
overestimation stays visible, and the max(1, .) guard keeps empty reference
cells finite. Confidence bands come from applying the same metric to the
5% and 95% ensemble quantiles of each report row's aggregated year series
(the quantile of the aggregate, not a sum of cell-wise quantiles); the
resulting pair is reported sorted ascending. The report works on one
[census, block, year] array of these series."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

import numpy as np

from .census import METRIC_INDEX, AgeClassScheme, SyntheticCensus
from .errors import InputError
from .files import write_table

# the report's age classes
CLASSES = AgeClassScheme.twenty_year()

REPORT_CSV_HEADER = ("region", "sex", "age_class", "e_min", "e_min_ci_lo",
                     "e_min_ci_hi", "e_max", "e_max_ci_lo", "e_max_ci_hi")


def ensemble_mean(ensemble: Iterable[SyntheticCensus]) -> SyntheticCensus:
    """Cell-wise mean of the runs (absent cells count as zero), summed in run order."""
    mean, count = SyntheticCensus(), 0
    for census in ensemble:  # no enumerate: it holds a run while it takes the next
        mean += census
        count += 1
        del census  # nor is the run held here while the next one is made
    if not count:
        raise InputError("ensemble is empty")
    np.multiply(mean.values, 1.0 / count, out=mean.values, where=mean.present)
    return mean


def deviation_extrema(sim, data) -> tuple:
    """Signed (e_min, e_max) of e = (sim - data) / max(1, data) along the last
    axis of the arrays, the years."""
    e = (np.asarray(sim, dtype=float) - data) / np.maximum(1.0, data)
    if not e.shape[-1]:
        raise InputError("empty year range")
    return e.min(axis=-1), e.max(axis=-1)


@dataclass
class ReportRow:
    region: str | None
    sex: str | None
    age_class: str | None
    e_min: float
    e_min_ci: tuple[float, float]
    e_max: float
    e_max_ci: tuple[float, float]


@dataclass
class DeviationReport:
    rows: list[ReportRow] = field(default_factory=list)
    coverage_gaps: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        write_table(path, REPORT_CSV_HEADER, ([
            r.region or "-", r.sex or "-",
            "-" if r.age_class is None else r.age_class,
            repr(r.e_min), repr(r.e_min_ci[0]), repr(r.e_min_ci[1]),
            repr(r.e_max), repr(r.e_max_ci[0]), repr(r.e_max_ci[1]),
        ] for r in self.rows))


def _series(stack: np.ndarray, index, picks: dict) -> np.ndarray:
    """[census, block, year] sums of ``stack``, a [census, year, region, sex,
    age] array over the labels of ``index``. ``picks`` maps label axes (1
    region, 2 sex, 3 age) to labels: one block per combination, in row order,
    sums every label of the other axes. A block adds its cells one at a time
    in row order, as a file-order scan over them would."""
    summed = [k + 1 for k in (1, 2, 3) if k not in picks]
    cells = np.moveaxis(stack, [1, *summed], range(len(picks) + 1, 5))
    sums = np.cumsum(cells.reshape(*cells.shape[:len(picks) + 2], -1), axis=-1)[..., -1]
    for k, (axis, labels) in enumerate(sorted(picks.items()), start=1):
        sums = sums.take([index[axis][label] for label in labels], axis=k)
    return sums.reshape(len(stack), -1, stack.shape[1])


def deviation_report(ensemble: list[SyntheticCensus], reference: SyntheticCensus,
                     metric: str = "P") -> DeviationReport:
    """Extrema-with-confidence-band report, one row per block of the overall /
    per-sex / per-age-class / per-region / per-region-and-age-class layout over
    CLASSES and the regions as given. A block whose reference series is
    entirely absent is listed as a coverage gap instead of failing."""
    if not ensemble:
        raise InputError("ensemble is empty")
    if metric not in METRIC_INDEX:
        raise InputError(f"unknown census metric {metric!r}")
    runs = [census.aggregate(CLASSES) for census in ensemble]
    # a reference with integer ages is single-age resolution: bin it the same way
    ref_single_age = all(isinstance(a, int) for a in reference.labels("age", metric))
    ref = reference.aggregate(CLASSES if ref_single_age else None)

    years = sorted(set.intersection(*(run.labels("year", metric) for run in runs))
                   & ref.labels("year", metric))
    if not years:
        raise InputError(f"no overlapping years between ensemble and reference for {metric}")
    regions, sexes = (sorted(ref.labels(axis, metric)) for axis in ("region", "sex"))

    # every census over the union of the labels: a label a census lacks adds zeros
    censuses = (ref, *runs)
    frame = SyntheticCensus()
    frame.extend(years, *(set().union(*(c.axes[k] for c in censuses)) for k in (1, 2)),
                 set(CLASSES.labels).union(*(c.axes[3] for c in censuses)))
    stack = np.stack([c.table(metric, *frame.axes) for c in censuses])
    kinds = ({}, {2: sexes}, {3: CLASSES.labels}, {1: regions}, {1: regions, 3: CLASSES.labels})
    series = np.concatenate([_series(stack, frame.index, picks) for picks in kinds], axis=1)
    # each block's (region, sex, age class), None where summed, in _series's order
    blocks = [tuple(dict(zip(sorted(picks), labels)).get(axis) for axis in (1, 2, 3))
              for picks in kinds for labels in product(*(picks[k] for k in sorted(picks)))]

    ref_rows, run_rows = series[0], series[1:]
    mean = run_rows.mean(axis=0)
    lo, hi = np.quantile(run_rows, [0.05, 0.95], axis=0) if len(runs) >= 2 else (mean, mean)
    e_min, e_max = deviation_extrema(np.stack([mean, lo, hi]), ref_rows)
    columns = (e_min[0], *np.sort(e_min[1:], axis=0), e_max[0], *np.sort(e_max[1:], axis=0))
    report = DeviationReport()
    for (region, sex, age_class), covered, (a, a_lo, a_hi, b, b_lo, b_hi) in zip(
            blocks, ref_rows.any(axis=1), np.stack(columns, axis=1).tolist()):
        if not covered:
            report.coverage_gaps.append(
                f"reference empty for region={region or '-'} sex={sex or '-'} "
                f"age_class={age_class or '-'}")
            continue
        report.rows.append(ReportRow(region, sex, age_class, a, (a_lo, a_hi), b, (b_lo, b_hi)))
    return report
