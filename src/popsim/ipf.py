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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FeasibilityError, InputError

SWEEP_ORDER = ("od", "emig_by_age", "imm_by_age")


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
    """Non-negative (origin, destination, age) tensor with a zero diagonal."""

    def __init__(self, regions, ages, values=None):
        self.regions = tuple(regions)
        self.ages = tuple(int(a) for a in ages)
        n, m = len(self.regions), len(self.ages)
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

    def destination_weights(self, origin: str, age: int) -> np.ndarray:
        """Unnormalised destination weights for movers of ``age`` from ``origin``."""
        o = self.regions.index(origin)
        a = min(max(age, self.ages[0]), self.ages[-1])
        return self.values[o, :, self.ages.index(a)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["origin", "destination", "age", "value"])
            for i, o in enumerate(self.regions):
                for j, d in enumerate(self.regions):
                    for k, a in enumerate(self.ages):
                        writer.writerow([o, d, a, repr(float(self.values[i, j, k]))])

    @classmethod
    def from_csv(cls, path) -> "MigrationTensor":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["origin", "destination", "age", "value"]:
                raise InputError(f"{path}: expected header origin,destination,age,value")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    o, d, a, v = row[0], row[1], int(row[2]), float(row[3])
                except (ValueError, IndexError) as exc:
                    raise InputError(f"{path}:{lineno}: bad row {row!r}: {exc}") from None
                rows.append((o, d, a, v))
        region_list = tuple(sorted({o for o, _, _, _ in rows} | {d for _, d, _, _ in rows}))
        age_list = tuple(sorted({a for _, _, a, _ in rows}))
        tensor = cls(region_list, age_list, np.zeros((len(region_list), len(region_list), len(age_list))))
        for o, d, a, v in rows:
            tensor.values[region_list.index(o), region_list.index(d), age_list.index(a)] = v
        idx = np.arange(len(region_list))
        tensor.values[idx, idx, :] = 0.0
        return tensor


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
    with open(od_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "value"])
        for i, o in enumerate(marginals.regions):
            for j, d in enumerate(marginals.regions):
                writer.writerow([o, d, repr(float(marginals.od[i, j]))])
    for path, name, mat in ((emig_path, "emig", marginals.emig_by_age),
                            (imm_path, "imm", marginals.imm_by_age)):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region", "age", "value"])
            for i, r in enumerate(marginals.regions):
                for k, a in enumerate(marginals.ages):
                    writer.writerow([r, a, repr(float(mat[i, k]))])


def _read_value_rows(path, header: tuple[str, str, str], parse_key) -> list[tuple]:
    """(first column, parse_key(second column), float value) per data row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != list(header):
            raise InputError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                first, second, value = row
                rows.append((first, parse_key(second), float(value)))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad row {row!r}: {exc}") from None
    return rows


def read_marginals_csv(od_path, emig_path, imm_path) -> MarginalSet:
    od_rows = _read_value_rows(od_path, ("origin", "destination", "value"), str)
    emig_rows = _read_value_rows(emig_path, ("region", "age", "value"), int)
    imm_rows = _read_value_rows(imm_path, ("region", "age", "value"), int)
    region_list = tuple(sorted({o for o, _, _ in od_rows} | {d for _, d, _ in od_rows}
                               | {r for r, _, _ in emig_rows} | {r for r, _, _ in imm_rows}))
    age_list = tuple(sorted({a for _, a, _ in emig_rows} | {a for _, a, _ in imm_rows}))
    n, m = len(region_list), len(age_list)
    od = np.zeros((n, n))
    emig = np.zeros((n, m))
    imm = np.zeros((n, m))
    for o, d, v in od_rows:
        od[region_list.index(o), region_list.index(d)] = v
    for r, a, v in emig_rows:
        emig[region_list.index(r), age_list.index(a)] = v
    for r, a, v in imm_rows:
        imm[region_list.index(r), age_list.index(a)] = v
    return MarginalSet(regions=region_list, ages=age_list, od=od,
                       emig_by_age=emig, imm_by_age=imm)
