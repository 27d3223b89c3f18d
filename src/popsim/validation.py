"""Monte Carlo aggregation and deviation metrics against a reference census.

An ensemble is a list of censuses from runs differing only in seed. The
cell-wise ensemble mean is compared with the reference through the signed
minimum/maximum relative deviation over a year range,

    e = (sim - data) / max(1, data),

which deliberately does not smooth over fluctuations: systematic under- or
overestimation stays visible, and the max(1, .) guard keeps empty reference
cells finite. Confidence bands come from applying the same metrics to the
5% and 95% ensemble quantiles of each report row's aggregated year series;
the resulting pair is reported sorted ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .census import METRIC_INDEX, AgeClassScheme, SyntheticCensus
from .errors import InputError
from .files import write_table

REPORT_CSV_HEADER = ("region", "sex", "age_class", "e_min", "e_min_ci_lo",
                     "e_min_ci_hi", "e_max", "e_max_ci_lo", "e_max_ci_hi")


def ensemble_mean(ensemble: list[SyntheticCensus]) -> SyntheticCensus:
    """Cell-wise arithmetic mean of the runs (absent cells count as zero)."""
    if not ensemble:
        raise InputError("ensemble is empty")
    mean = ensemble[0].add(*ensemble[1:])
    np.multiply(mean.values, 1.0 / len(ensemble), out=mean.values, where=mean.present)
    return mean


def deviation_extrema(sim_series, data_series, years) -> tuple[float, float]:
    """Signed (e_min, e_max) of the relative deviation over ``years``.

    Both series are mappings year -> value; the denominator guard is
    max(1, data).
    """
    years = list(years)
    if not years:
        raise InputError("empty year range")
    ratios = []
    for y in years:
        sim = float(sim_series.get(y, 0.0))
        data = float(data_series.get(y, 0.0))
        ratios.append((sim - data) / max(1.0, data))
    return min(ratios), max(ratios)


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


def _series(census: SyntheticCensus, metric: str, years, blocks) -> np.ndarray:
    """[block, year] sums of ``metric`` over each (region, sex, age class) block,
    None standing for every label; a block's cells are added one at a time in
    row order, as a file-order scan over the cells would."""
    index = census.index
    cells = census.values[METRIC_INDEX[metric]][[index[0][y] for y in years]]
    out = np.zeros((len(blocks), len(years)))
    for b, block in enumerate(blocks):
        picked = cells
        for axis, label in enumerate(block, start=1):
            if label is not None:
                picked = picked.take([index[axis][label]] if label in index[axis] else [],
                                     axis=axis)
        flat = picked.reshape(len(years), -1)
        if flat.size:
            out[b] = np.cumsum(flat, axis=1)[:, -1]
    return out


def deviation_report(ensemble: list[SyntheticCensus], reference: SyntheticCensus,
                     scheme: AgeClassScheme | None = None, metric: str = "P",
                     region_level: int | None = None) -> DeviationReport:
    """Extrema-with-confidence-band report, one block per aggregation level.

    Blocks follow the overall / per-sex / per-age-class / per-region /
    per-region-and-age-class layout. For each row, the 5%/95% ensemble
    quantiles are taken of the row's aggregated year series (the quantile of
    the aggregate, not a sum of cell-wise quantiles) and the extrema applied
    to them give the confidence band, reported sorted ascending. Rows whose
    reference series is entirely absent are listed as coverage gaps instead
    of failing.
    """
    if not ensemble:
        raise InputError("ensemble is empty")
    if metric not in METRIC_INDEX:
        raise InputError(f"unknown census metric {metric!r}")
    if scheme is None:
        scheme = AgeClassScheme.twenty_year()
    runs = [census.aggregate(scheme, region_level) for census in ensemble]
    # a reference with integer ages is single-age resolution: bin it the same way
    ref_single_age = all(isinstance(a, int) for a in reference.labels("age", metric))
    ref = reference.aggregate(scheme if ref_single_age else None, region_level)

    years = sorted(set.intersection(*(run.labels("year", metric) for run in runs))
                   & ref.labels("year", metric))
    if not years:
        raise InputError(f"no overlapping years between ensemble and reference for {metric}")

    region_list = sorted(ref.labels("region", metric))
    sexes = sorted(ref.labels("sex", metric))
    classes = [label for label in scheme.labels]

    blocks: list[tuple] = [(None, None, None)]
    blocks += [(None, s, None) for s in sexes]
    blocks += [(None, None, c) for c in classes]
    blocks += [(r, None, None) for r in region_list]
    blocks += [(r, None, c) for r in region_list for c in classes]

    ref_rows = _series(ref, metric, years, blocks)
    run_rows = np.stack([_series(run, metric, years, blocks) for run in runs], axis=1)
    report = DeviationReport()
    for (region, sex, age_class), ref_row, matrix in zip(blocks, ref_rows, run_rows):
        if not ref_row.any():
            report.coverage_gaps.append(
                f"reference empty for region={region or '-'} sex={sex or '-'} "
                f"age_class={age_class or '-'}")
            continue
        ref_series = dict(zip(years, ref_row))
        mean_series = dict(zip(years, matrix.mean(axis=0)))
        e_min, e_max = deviation_extrema(mean_series, ref_series, years)
        if len(runs) >= 2:
            lo_series = dict(zip(years, np.quantile(matrix, 0.05, axis=0)))
            hi_series = dict(zip(years, np.quantile(matrix, 0.95, axis=0)))
        else:
            lo_series = hi_series = mean_series
        lo_min, lo_max = deviation_extrema(lo_series, ref_series, years)
        hi_min, hi_max = deviation_extrema(hi_series, ref_series, years)
        report.rows.append(ReportRow(
            region=region, sex=sex,
            age_class=None if age_class is None else str(age_class),
            e_min=e_min, e_min_ci=tuple(sorted((lo_min, hi_min))),
            e_max=e_max, e_max_ci=tuple(sorted((lo_max, hi_max))),
        ))
    return report
