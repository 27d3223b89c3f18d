"""Synthetic closed-loop scenarios.

A ScenarioSpec describes a small self-contained world: regions, a horizon,
constant or age-profiled event probabilities, an initial population and
yearly immigration counts. From it we generate the complete input set for a
run (parameter tables, initial population, immigration counts, migration
tensor) plus a reference census computed by an independent cohort-projection
oracle, so the whole pipeline can be validated without external data. The
oracle reads the same ``ModelParameters`` as the engine (each life-year's
probability rows, the migration tensor's destination shares, the regions of
a run and the coverage rule) and keeps only its own cohort arithmetic.

The oracle tracks expected *life-year cohorts*: the mass of people having
their age-a birthday during calendar year c. Each such person draws events
once, at the birthday, uniformly timed over the life-year, and the expected
counts split between the two calendar years the life-year touches. With
birthday positions uniform over the year and death/emigration probabilities
d and e, per unit cohort mass:

    deaths recorded in year c          d(1-e)/2 + de/3
    deaths recorded in year c+1        d(1-e)/2 + de/6
    alive on Jan 1 of year c+1         1 - (d+e)/2 + de/3
    survivors reaching next birthday   (1-d)(1-e)

Non-terminal events (birth, internal migration) with probability q occur
only when no terminal event precedes them:

    occurring at all        q * [(1-d)(1-e) + (d(1-e) + e(1-d))/2 + de/3]
    occurring in year c     q * [(1-d)(1-e)/2 + (d(1-e) + e(1-d))/3 + de/4]

Cohorts created mid-life-year at Jan 1 (the initial population, uniformly
elapsed fraction s, probabilities scaled by 1-s) integrate to

    deaths recorded               d/2 - de/6          (all in the start year)
    birth/migration occurring     q * (1/2 - (d+e)/6 + de/12)
    movers among survivors        m * (1/2 - (d+e)/3 + de/4)

These resident formulas are exact. Immigrant cohorts, entering at a uniform
date with a uniformly elapsed life-year, are handled to first order in the
probabilities (events split 1/3 : 1/6 between entry year and the next, the
cohort halves between a first birthday before and after New Year), which
keeps the oracle within O(p^2) of the truth on the small immigration flows
synthetic scenarios use.

The bookkeeping is Farr-consistent: deriving probabilities from the oracle
census via Farr's formula recovers the generating probabilities.

The ledger is arrays laid out like a census year, ``values[metric, year]``:
a year's life-year cohorts are one [region, sex, age] array and its newborns
one [region, sex] pool. Movers are spread over their destinations one origin
at a time, in region order, with the mass that stays added at its origin, so
a census cell adds its terms in origin order. A (region, sex) row with no
cell above MASS_EPSILON is dropped, and no mass at or below it is recorded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .agents import EventKind
from .census import METRIC_INDEX, SyntheticCensus
from .config import RunConfig
from .engine import ModelParameters, check_initial_cells
from .errors import InputError
from .files import (number, parse_value, read_key_values, read_table, write_key_values,
                    write_table)
from .ipf import MigrationTensor
from .params import (ImmigrationTable, ParameterTable, PROBABILITY_KINDS,
                     apportion_integer)

MASS_EPSILON = 1e-12

POPULATION_CSV_HEADER = ("region", "sex", "age", "count")


@dataclass
class ScenarioSpec:
    """Declarative description of a synthetic closed-loop scenario."""

    regions: list[str] = field(default_factory=lambda: ["AT-1"])
    start_year: int = 2020
    years: int = 10
    max_age: int = 100
    initial_total: int = 10000
    initial_age_low: int = 0
    initial_age_high: int = 80
    male_fraction: float = 0.5
    p_death: float | list = 0.0
    p_emigration: float | list = 0.0
    p_birth: float | list = 0.0
    p_internal_migration: float | list = 0.0
    immigration_per_year: int = 0
    immigration_age_low: int = 20
    immigration_age_high: int = 39
    ensemble_runs: int = 9

    def __post_init__(self):
        if not self.regions:
            raise InputError("scenario needs at least one region")
        if self.years < 1:
            raise InputError("horizon must be at least one year")
        if not 0 <= self.initial_age_low <= self.initial_age_high <= self.max_age:
            raise InputError("initial age window must lie within 0..max_age")
        if self.immigration_per_year and not (
                0 <= self.immigration_age_low <= self.immigration_age_high <= self.max_age):
            raise InputError("immigration age window must lie within 0..max_age")
        if not 0 <= self.male_fraction <= 1:
            raise InputError("male_fraction must be in [0, 1]")
        if self.ensemble_runs < 1:
            raise InputError("ensemble_runs must be >= 1")
        for name in ("p_death", "p_emigration", "p_birth", "p_internal_migration"):
            arr = profile_to_array(getattr(self, name), self.max_age)
            if not np.all((arr >= 0) & (arr <= 1)):
                raise InputError(f"{name} leaves [0, 1]")

    @property
    def end_year(self) -> int:
        return self.start_year + self.years

    def internal_migration_enabled(self) -> bool:
        return len(self.regions) > 1 and bool(np.any(
            profile_to_array(self.p_internal_migration, self.max_age) > 0))

    def to_file(self, path) -> None:
        pairs = [("regions", ", ".join(self.regions))]
        for f_ in fields(self):
            value = getattr(self, f_.name)
            if f_.name.startswith("p_"):
                pairs.append((f_.name, format_profile(value)))
            elif f_.name != "regions":
                pairs.append((f_.name, value))
        write_key_values(path, pairs)

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        pairs = read_key_values(path)
        kwargs = {}
        valid = {f_.name for f_ in fields(cls)}
        for key, raw in pairs.items():
            if key not in valid:
                raise InputError(f"{path}: unknown scenario key {key!r}")
            if key == "regions":
                kwargs[key] = [r.strip() for r in raw.split(",") if r.strip()]
            elif key.startswith("p_"):
                kwargs[key] = parse_value(path, key, raw, parse_profile)
            elif key == "male_fraction":
                kwargs[key] = parse_value(path, key, raw, float)
            else:
                kwargs[key] = parse_value(path, key, raw, int)
        return cls(**kwargs)


def profile_to_array(profile, max_age: int) -> np.ndarray:
    """Constant or [(age, value), ...] breakpoint profile to a per-age vector.

    A breakpoint's value holds from its age upward; ages below the first
    breakpoint get 0.
    """
    values = np.zeros(max_age + 1)
    if isinstance(profile, (int, float)):
        values[:] = float(profile)
        return values
    for age, value in sorted(profile):
        if not 0 <= age <= max_age:
            raise InputError(f"profile breakpoint age {age} outside 0..{max_age}")
        values[int(age):] = float(value)
    return values


def parse_profile(text: str):
    text = text.strip()
    if ":" not in text:
        return number(text)
    points = []
    for part in text.split(","):
        age, _, value = part.partition(":")
        points.append((int(age.strip()), number(value.strip())))
    return points


def format_profile(profile) -> str:
    if isinstance(profile, (int, float)):
        return repr(float(profile))
    return ", ".join(f"{age}:{value!r}" for age, value in profile)


# ----- input-set builders -----------------------------------------------------

def build_parameter_tables(spec: ScenarioSpec) -> dict[str, ParameterTable]:
    """One table per event kind with a nonzero profile.

    Coverage spans start_year-1 .. end_year so that partial first life-years
    (evaluated at the previous birthday) and end-of-horizon birthdays resolve.
    """
    years = range(spec.start_year - 1, spec.end_year + 1)
    tables = {}
    for kind in PROBABILITY_KINDS:
        values = profile_to_array(getattr(spec, f"p_{kind}"), spec.max_age)
        if not np.any(values > 0):
            continue
        if kind == "internal_migration" and len(spec.regions) < 2:
            continue
        table = ParameterTable(kind, spec.max_age)
        sexes = ("f",) if kind == "birth" else ("all",)
        table.set_constant(years, spec.regions, sexes, values)
        tables[kind] = table
    return tables


def build_initial_population(spec: ScenarioSpec) -> list[tuple[str, str, int, int]]:
    """(region, sex, age, count) cells; the total is apportioned exactly."""
    cells = [(region, sex, age)
             for region in spec.regions
             for sex in ("f", "m")
             for age in range(spec.initial_age_low, spec.initial_age_high + 1)]
    counts = apportion_integer(spec.initial_total, [1.0] * len(cells))
    return sorted((r, s, a, n) for (r, s, a), n in zip(cells, counts) if n > 0)


def build_immigration_table(spec: ScenarioSpec) -> ImmigrationTable | None:
    if spec.immigration_per_year <= 0:
        return None
    table = ImmigrationTable()
    cells = [(region, sex, age)
             for region in spec.regions
             for sex in ("f", "m")
             for age in range(spec.immigration_age_low, spec.immigration_age_high + 1)]
    counts = apportion_integer(spec.immigration_per_year, [1.0] * len(cells))
    for year in range(spec.start_year, spec.end_year):
        for (region, sex, age), count in zip(cells, counts):
            if count > 0:
                table.add(year, region, sex, age, count)
    return table


def build_migration_tensor(spec: ScenarioSpec) -> MigrationTensor | None:
    """Uniform off-diagonal destination weights over single ages."""
    if not spec.internal_migration_enabled():
        return None
    n = len(spec.regions)
    return MigrationTensor(spec.regions, range(spec.max_age + 1),
                           np.ones((n, n, spec.max_age + 1)))


# ----- cohort-projection oracle -------------------------------------------------

SEXES = ("f", "m")
# the kinds along the first axis of the oracle's rate arrays
RATE_KINDS = (EventKind.DEATH, EventKind.EMIGRATION, EventKind.BIRTH,
              EventKind.INTERNAL_MIGRATION)


def cohort_projection(params: ModelParameters, initial_cells, start_year: int, years: int,
                      *, male_fraction: float = 0.5) -> SyntheticCensus:
    """Expected-value reference census (real-valued counts).

    Independent of the event-driven engine: pure ledger arithmetic over
    life-year cohorts as derived in the module docstring. It reads the same
    ``ModelParameters`` as the engine, under the same coverage rule: the rows
    of each life-year, the migration tensor's destination shares and the
    regions of the run. Cohorts are [region, sex, age] blocks laid out like a
    census year; each census cell adds the terms above MASS_EPSILON that
    reach it, in the order the ledger produces them.
    """
    check_initial_cells(initial_cells)
    max_age = max((t.max_age for t in params.tables.values()), default=0)
    max_age = max(max_age, max((a for (_, _, a, _) in initial_cells), default=0))
    immigration = params.immigration
    if immigration is not None:
        max_age = max(max_age, max((a for (_, _, _, a) in immigration.counts), default=0))
    track = max_age + years + 2
    ages = np.arange(track + 1)
    end_year = start_year + years

    regions = params.run_regions(r for r, _, _, _ in initial_cells)
    params.validate_coverage(range(start_year - 1, end_year + 1), regions)
    census = SyntheticCensus((range(start_year, end_year + 1), regions, SEXES, range(track + 1)))
    values, present = census.values, census.present
    _, at_region, at_sex, _ = census.index
    shape = (len(regions), len(SEXES), track + 1)

    def record(metric: str, year: int, block: np.ndarray):
        """Add the cells of ``block`` above MASS_EPSILON to ``metric`` in ``year``."""
        at = (METRIC_INDEX[metric], year - start_year)
        mask = block > MASS_EPSILON
        values[at] += np.where(mask, block, 0.0)
        present[at] |= mask

    def record_cell(metric: str, year: int, r: int, s: int, age: int, n: float):
        """Add ``n`` to one cell, which becomes present even when ``n`` is 0."""
        cell = (METRIC_INDEX[metric], year - start_year, r, s, age)
        values[cell] += n
        present[cell] = True

    shares = None
    if "internal_migration" in params.tables:
        # [origin, destination, tracked age] shares of moving mass over the run's
        # regions; the tensor keeps its caller's region order
        tensor = params.migration_tensor
        order = [tensor.position[region] for region in regions]
        shares = tensor.shares()[np.ix_(order, [tensor.age_position(a) for a in ages], order)]
        shares = shares.transpose(0, 2, 1)

    def year_rates(year: int) -> np.ndarray:
        """[kind, region, sex, age] probabilities of the life-years starting in
        ``year``, kinds in RATE_KINDS order."""
        rates = np.zeros((len(RATE_KINDS), *shape))
        for (r, region), (s, sex) in itertools.product(enumerate(regions), enumerate(SEXES)):
            for kind, row in params.life_year_rates(year, region, sex):
                rates[RATE_KINDS.index(kind), r, s] = row[np.minimum(ages, len(row) - 1)]
        if shares is not None:  # internal migration, like the engine: no weight, no movers
            rates[-1] *= shares.any(axis=1)[:, None, :]
        return rates

    def spread(moving: np.ndarray, own: np.ndarray | None = None):
        """The [region, sex, age] blocks that share ``moving`` out over its
        destinations, one per origin in region order, each holding ``own`` (the
        mass that stays) at its origin: a destination cell adds its terms in
        origin order. Without internal migration ``own`` is the only block."""
        if shares is None:
            if own is not None:
                yield own
            return
        for o in range(len(regions)):
            block = moving[o] * shares[o][:, None, :]
            if own is not None:
                block[o] = own[o]
            yield block

    split = np.array([1.0 - male_fraction, male_fraction])

    def bear(pool: np.ndarray, births: np.ndarray):
        """Add the newborns of a block of births to ``pool``, a [region, sex]
        array; a (region, sex) row bearing no more than MASS_EPSILON adds none."""
        mass = births.sum(axis=-1)
        pool += np.where(mass > MASS_EPSILON, mass, 0.0).sum(axis=1)[:, None] * split

    # cohort[r, s, a]: expected mass entering its age-a life-year during the year
    # being processed; pool[r, s]: the newborns of that year, next_pool the next's
    cohort, pool, next_pool = np.zeros(shape), np.zeros(shape[:2]), np.zeros(shape[:2])

    # --- initial population: alive on Jan 1 of start_year --------------------
    n0 = np.zeros(shape)
    for region, sex, age, count in initial_cells:
        n0[at_region[region], at_sex[sex], age] += count
        present[METRIC_INDEX["P"], 0, at_region[region], at_sex[sex], age] = True
    values[METRIC_INDEX["P"], 0] += n0

    d, e, b, m = year_rates(start_year - 1)
    de = d * e
    death = n0 * (d / 2 - de / 6)
    emigration = n0 * (e / 2 - de / 6)
    occ_init = 0.5 - (d + e) / 6 + de / 12
    births = n0 * b * occ_init
    moving = n0 * m * occ_init
    for metric, block in (("D", death), ("E", emigration), ("B", births), ("IM_OUT", moving)):
        record(metric, start_year, block)
    bear(pool, births)
    for block in spread(moving):
        record("IM_IN", start_year, block)
    # a (region, sex) whose moves all stay below MASS_EPSILON keeps its movers
    movers = np.where((moving > MASS_EPSILON).any(axis=-1, keepdims=True),
                      n0 * m * (0.5 - (d + e) / 3 + de / 4), 0.0)
    for block in spread(movers, n0 - death - emigration - movers):
        cohort[..., 1:] += block[..., :-1]

    # --- year loop ------------------------------------------------------------
    for year in range(start_year, end_year):
        rates = year_rates(year)
        next_cohort = np.zeros(shape)

        # immigrants of this year (first-order bookkeeping): their events split
        # 1/3 : 1/6 between this year and the next
        parts = ((year, 3), (year + 1, 6)) if year + 1 < end_year else ((year, 3),)
        for region, sex, age, count in (immigration.cells_for_year(year)
                                        if immigration is not None else ()):
            r, s = at_region[region], at_sex[sex]
            record_cell("I", year, r, s, age, count)
            d, e, b, m = rates[:, r, s, age].tolist()
            for y, part in parts:
                for metric, p in (("D", d), ("E", e), ("B", b), ("IM_OUT", m)):
                    if p > 0:
                        record_cell(metric, y, r, s, age, count * p / part)
            for target, mass in ((pool, count * b / 3), (next_pool, count * b / 6)):
                if mass > MASS_EPSILON:
                    target[r] += mass * split
            moved = count * m / 6  # per segment: pre-birthday, pre-Jan-1, after
            if m > 0:
                for dest in np.flatnonzero(shares[r, :, age]).tolist():
                    frac = float(shares[r, dest, age])
                    for y, part in parts:
                        record_cell("IM_IN", y, dest, s, age, count * m / part * frac)
                    cohort[dest, s, age + 1] += moved * frac
                    record_cell("P", year + 1, dest, s, age, moved * frac)
                    next_cohort[dest, s, age + 1] += moved * frac
            # half has its first birthday this year; half is alive on Jan 1 and has it next
            half = count * (0.5 - (d + e) / 6) - moved
            cohort[r, s, age + 1] += half
            record_cell("P", year + 1, r, s, age, half)
            next_cohort[r, s, age + 1] += count * (0.5 - (d + e) / 3) - moved

        d, e, b, m = rates
        de = d * e
        occ = (1 - d) * (1 - e) + (d * (1 - e) + e * (1 - d)) / 2 + de / 3
        occ0 = (1 - d) * (1 - e) / 2 + (d * (1 - e) + e * (1 - d)) / 3 + de / 4

        def project(vec):
            """One year of the life-year cohorts in ``vec``: exact formulas."""
            # a life-year's events fall in this calendar year and the next
            for y, newborns, de_part, occ_y in ((year, pool, de / 3, occ0),
                                                (year + 1, next_pool, de / 6, occ - occ0)):
                births, moving = vec * b * occ_y, vec * m * occ_y
                bear(newborns, births)
                if y < end_year:
                    record("D", y, vec * (d * (1 - e) / 2 + de_part))
                    record("E", y, vec * (e * (1 - d) / 2 + de_part))
                    record("B", y, births)
                    record("IM_OUT", y, moving)
                    for block in spread(moving):
                        record("IM_IN", y, block)
            move0 = vec * m * occ0
            for block in spread(move0, vec * (1 - (d + e) / 2 + de / 3) - move0):
                record("P", year + 1, block)
            movers = vec * m * (1 - d) * (1 - e)
            for block in spread(movers, vec * (1 - d) * (1 - e) - movers):
                next_cohort[..., 1:] += block[..., :-1]

        # a (region, sex) with no cohort above MASS_EPSILON is dropped
        project(np.where((cohort > MASS_EPSILON).any(axis=-1, keepdims=True), cohort, 0.0))
        # newborn mass feeds back into this year's age-0 cohorts
        for _ in range(64):
            if not pool.any():
                break
            newborns = np.zeros(shape)
            newborns[..., 0] = np.where(pool > MASS_EPSILON, pool, 0.0)
            pool[:] = 0.0
            project(newborns)

        cohort, pool, next_pool = next_cohort, next_pool, np.zeros(shape[:2])

    return census


def build_model_parameters(spec: ScenarioSpec) -> ModelParameters:
    """The parameter tables, immigration counts and migration tensor of ``spec``."""
    return ModelParameters(build_parameter_tables(spec),
                           immigration=build_immigration_table(spec),
                           migration_tensor=build_migration_tensor(spec))


def reference_census_for(spec: ScenarioSpec) -> SyntheticCensus:
    return cohort_projection(build_model_parameters(spec), build_initial_population(spec),
                             spec.start_year, spec.years, male_fraction=spec.male_fraction)


def generate_scenario_files(spec: ScenarioSpec, seed: int, out_dir) -> dict[str, Path]:
    """Write the complete, internally consistent input set for a run.

    Emits parameter CSVs, the initial population, immigration counts, the
    migration tensor where applicable, the oracle reference census and a
    ready-to-run config. Returns the paths keyed by role.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    params = build_model_parameters(spec)
    for role, name, source in (
            *((kind, f"params_{kind}.csv", table) for kind, table in params.tables.items()),
            ("immigration", "immigration.csv", params.immigration),
            ("migration_tensor", "migration_tensor.csv", params.migration_tensor)):
        if source is not None:
            paths[role] = out / name
            source.to_csv(paths[role])

    initial = build_initial_population(spec)
    paths["initial_population"] = out / "initial_population.csv"
    write_population_csv(initial, paths["initial_population"])

    reference = cohort_projection(params, initial, spec.start_year, spec.years,
                                  male_fraction=spec.male_fraction)
    paths["reference_census"] = out / "reference_census.csv"
    reference.to_csv(paths["reference_census"])

    paths["scenario"] = out / "scenario.conf"
    spec.to_file(paths["scenario"])

    names = {role: path.name for role, path in paths.items()}
    config = RunConfig(
        start=f"{spec.start_year}-01-01",
        end=f"{spec.end_year}-01-01",
        seed=seed,
        runs=spec.ensemble_runs,
        male_fraction=spec.male_fraction,
        internal_migration="full-regional" if params.migration_tensor is not None else "none",
        params_death=names.get("death"),
        params_emigration=names.get("emigration"),
        params_birth=names.get("birth"),
        params_internal_migration=names.get("internal_migration"),
        migration_tensor=names.get("migration_tensor"),
        immigration=names.get("immigration"),
        initial_population=names["initial_population"],
        reference_census=names["reference_census"],
    )
    config_path = out / "run.conf"
    config.to_file(config_path)
    paths["config"] = config_path
    return paths


def write_population_csv(cells, path) -> None:
    write_table(path, POPULATION_CSV_HEADER, sorted(cells))


def read_population_csv(path) -> list[tuple[str, str, int, int]]:
    def parse(row):
        region, sex, age, count = row
        age, count = int(age), int(count)
        if sex not in ("m", "f"):
            raise ValueError("sex must be m or f")
        if age < 0:
            raise ValueError("negative age")
        if count < 0:
            raise ValueError("negative count")
        return (region, sex, age), count

    cells = read_table(path, POPULATION_CSV_HEADER, parse)
    return [(region, sex, age, count) for (region, sex, age), count in cells.items()]
