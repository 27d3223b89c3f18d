"""Three-dimensional iterative proportional fitting for internal migration.

The unknown migration census is a non-negative tensor indexed
(origin, destination, age) whose three 2D marginals are observed:

    OD        = sum over age          (origin x destination flows)
    EmigByAge = sum over destination  (origin x age)
    ImmByAge  = sum over origin       (destination x age)

Starting from a positive initial guess (zeros are preserved, the diagonal
origin == destination is forced to zero), the tensor is alternately scaled
to each marginal until all three match within tolerance. Fitted values are
real numbers: a distribution, not a person count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, FeasibilityError, InputError
from .files import integer, number, read_columns, write_columns
from .regions import checked

TENSOR_CSV_HEADER = ("origin", "destination", "age", "value")
OD_CSV_HEADER = ("origin", "destination", "value")
AGE_MARGINAL_CSV_HEADER = ("region", "age", "value")


@dataclass
class MarginalSet:
    """The three observed marginals plus their shared axis labels."""

    regions: tuple[str, ...]
    ages: tuple[int, ...]
    od: np.ndarray            # (origin, destination)
    emig_by_age: np.ndarray   # (origin, age)
    imm_by_age: np.ndarray    # (destination, age)

    def __post_init__(self):
        n, m = len(self.regions), len(self.ages)
        self.od = np.asarray(self.od, dtype=float)
        self.emig_by_age = np.asarray(self.emig_by_age, dtype=float)
        self.imm_by_age = np.asarray(self.imm_by_age, dtype=float)
        if self.od.shape != (n, n):
            raise InputError(f"OD marginal must be {n}x{n}")
        if self.emig_by_age.shape != (n, m) or self.imm_by_age.shape != (n, m):
            raise InputError(f"age marginals must be {n}x{m}")
        for name in ("od", "emig_by_age", "imm_by_age"):
            if np.any(getattr(self, name) < 0):
                raise InputError(f"negative entries in {name} marginal")

    def grand_totals(self) -> tuple[float, float, float]:
        return float(self.od.sum()), float(self.emig_by_age.sum()), float(self.imm_by_age.sum())


class MigrationTensor:
    """Non-negative (origin, destination, age) tensor with a zero diagonal.

    Its (origin, age) rows share out the movers of that age leaving that
    origin; ages outside the tensor's range use the row of the nearest end.
    """

    def __init__(self, regions, ages, values=None):
        self.regions = tuple(regions)
        self.ages = tuple(int(a) for a in ages)
        self.position = {region: i for i, region in enumerate(self.regions)}
        n, m = len(self.regions), len(self.ages)
        if len(self.position) < n:
            repeated = next(r for i, r in enumerate(self.regions) if self.position[r] != i)
            raise InputError(f"migration tensor lists region {repeated!r} twice")
        if values is None:
            values = np.ones((n, n, m))
        self.values = np.array(values, dtype=float)
        if self.values.shape != (n, n, m):
            raise InputError(f"tensor must have shape ({n},{n},{m})")
        if np.any(self.values < 0):
            raise InputError("tensor entries must be non-negative")
        idx = np.arange(n)
        self.values[idx, idx, :] = 0.0

    def marginals(self) -> MarginalSet:
        return MarginalSet(
            regions=self.regions,
            ages=self.ages,
            od=self.values.sum(axis=2),
            emig_by_age=self.values.sum(axis=1),
            imm_by_age=self.values.sum(axis=0),
        )

    def check_single_ages(self, source="migration tensor") -> None:
        """Raise InputError unless the ages run 1 apart, as ``age_position`` assumes."""
        if not self.ages:
            raise InputError(f"{source}: no ages")
        for expected, age in zip(itertools.count(self.ages[0]), self.ages):
            if age != expected:
                raise InputError(f"{source}: no age {expected}; tensor ages must run "
                                 f"consecutively from {self.ages[0]}")

    def age_position(self, age: int) -> int:
        """Index on the age axis of the row for movers of ``age``."""
        return min(max(age, self.ages[0]), self.ages[-1]) - self.ages[0]

    def shares(self) -> np.ndarray:
        """(origin, age, destination) share of each destination in its row."""
        # a copy, as the shares overwrite it. Each row is contiguous, so its sum
        # adds in the order of the row summed on its own
        rows = self.values.transpose(0, 2, 1).copy()
        totals = rows.sum(axis=2, keepdims=True)
        return np.divide(rows, totals, out=rows, where=totals > 0)

    @cached_property
    def cumulative_shares(self) -> np.ndarray:
        """``shares`` summed along each row, computed on first use: ``values``
        must not change after that."""
        shares = self.shares()
        return np.cumsum(shares, axis=2, out=shares)

    def to_csv(self, path) -> None:
        _write_dense(path, TENSOR_CSV_HEADER, (self.regions, self.regions, self.ages), self.values)

    @classmethod
    def from_csv(cls, path) -> "MigrationTensor":
        cells = read_columns(path, TENSOR_CSV_HEADER, (checked, checked, integer, number),
                             key=range(3), check=lambda weight: (weight < 0, "negative weight"))
        regions = sorted({*cells.labels[0], *cells.labels[1]})
        ages = sorted(cells.labels[2])
        return cls(regions, ages, cells.dense((regions, regions, ages)))


def marginal_residual(values: np.ndarray, marginals: MarginalSet) -> float:
    """Largest absolute deviation of the tensor's marginals from the targets."""
    return max(
        float(np.max(np.abs(values.sum(axis=2) - marginals.od))),
        float(np.max(np.abs(values.sum(axis=1) - marginals.emig_by_age))),
        float(np.max(np.abs(values.sum(axis=0) - marginals.imm_by_age))),
    )


def ipf_3d(init: MigrationTensor, marginals: MarginalSet,
           tol: float = 1e-9, max_iter: int = 1000) -> MigrationTensor:
    """Fit ``init`` to the marginals by alternating proportional scaling.

    Sweep order is OD, then emigrants-by-age, then immigrants-by-age;
    convergence is measured as the max absolute marginal deviation after a
    full sweep. Raises FeasibilityError on mismatched grand totals before
    iterating, ConvergenceError (carrying the last residual) on timeout.
    """
    if init.regions != marginals.regions or init.ages != marginals.ages:
        raise InputError("tensor and marginals use different region/age labels")
    totals = marginals.grand_totals()
    scale = max(1.0, max(totals))
    # floor at summation noise so a sub-epsilon tol cannot reject honest input
    feasibility_tol = max(tol, 64 * np.finfo(float).eps)
    if max(totals) - min(totals) > feasibility_tol * scale:
        raise FeasibilityError(
            f"marginal grand totals differ: od={totals[0]:.6g} "
            f"emig={totals[1]:.6g} imm={totals[2]:.6g}"
        )

    t = init.values.copy()
    residual = marginal_residual(t, marginals)
    for _ in range(max_iter):
        if residual <= tol:
            return MigrationTensor(init.regions, init.ages, t)
        cur = t.sum(axis=2)
        t *= np.divide(marginals.od, cur, out=np.ones_like(cur), where=cur > 0)[:, :, None]
        cur = t.sum(axis=1)
        t *= np.divide(marginals.emig_by_age, cur, out=np.ones_like(cur), where=cur > 0)[:, None, :]
        cur = t.sum(axis=0)
        t *= np.divide(marginals.imm_by_age, cur, out=np.ones_like(cur), where=cur > 0)[None, :, :]
        residual = marginal_residual(t, marginals)
    if residual <= tol:
        return MigrationTensor(init.regions, init.ages, t)
    raise ConvergenceError(
        f"IPF did not reach tolerance {tol} within {max_iter} sweeps "
        f"(residual {residual:.3e})", residual)


def write_marginals_csv(marginals: MarginalSet, od_path, emig_path, imm_path) -> None:
    regions, ages = marginals.regions, marginals.ages
    _write_dense(od_path, OD_CSV_HEADER, (regions, regions), marginals.od)
    _write_dense(emig_path, AGE_MARGINAL_CSV_HEADER, (regions, ages), marginals.emig_by_age)
    _write_dense(imm_path, AGE_MARGINAL_CSV_HEADER, (regions, ages), marginals.imm_by_age)


def _write_dense(path, header, axes, values) -> None:
    """Every cell of ``values``, an array over the label ``axes``, one row each in C order."""
    write_columns(path, header, zip(axes, np.unravel_index(np.arange(values.size), values.shape)),
                  values.ravel())


def read_marginals_csv(od_path, emig_path, imm_path) -> MarginalSet:
    od = read_columns(od_path, OD_CSV_HEADER, (checked, checked, number), key=range(2))
    emig, imm = (read_columns(path, AGE_MARGINAL_CSV_HEADER, (checked, integer, number),
                              key=range(2)) for path in (emig_path, imm_path))
    regions = tuple(sorted({*od.labels[0], *od.labels[1], *emig.labels[0], *imm.labels[0]}))
    ages = tuple(sorted({*emig.labels[1], *imm.labels[1]}))
    return MarginalSet(regions=regions, ages=ages, od=od.dense((regions, regions)),
                       emig_by_age=emig.dense((regions, ages)),
                       imm_by_age=imm.dense((regions, ages)))
