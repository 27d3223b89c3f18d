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
a year's life-year cohorts and its immigrants are [region, sex, age] arrays,
its newborns one [region, sex] pool. Movers are spread over their destinations
one origin at a time, in region order, with the mass that stays added at its
origin, so a census cell adds its terms in origin order. A (region, sex) row
with no cell above MASS_EPSILON is dropped, and no mass at or below it is
recorded, neither a resident's nor an immigrant's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .census import METRIC_INDEX, SyntheticCensus
from .config import RunConfig, fraction
from .engine import SEXES, ModelParameters, check_initial_cells
from .errors import InputError
from .files import (age, integer, number, read_columns, read_settings, sex, whole_or_repr,
                    write_columns, write_key_values)
from .ipf import MigrationTensor
from .params import (ImmigrationTable, ParameterTable, PROBABILITY_KINDS,
                     apportion_integer)
from .regions import checked, level_of

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
        for i, region in enumerate(self.regions):
            level_of(region)
            if region in self.regions[:i]:
                raise InputError(f"scenario lists region {region!r} twice")
        if self.years < 1:
            raise InputError("horizon must be at least one year")
        for name in ("initial_total", "immigration_per_year"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative, got {getattr(self, name)}")
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
        converters = {f_.name: parse_profile if f_.name.startswith("p_") else integer
                      for f_ in fields(cls)}
        converters.update(regions=lambda text: [checked(r.strip()) for r in text.split(",")
                                                if r.strip()], male_fraction=fraction)
        return read_settings(path, cls, converters)


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
        points.append((integer(age.strip()), number(value.strip())))
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
        if kind == "internal_migration" and not spec.internal_migration_enabled():
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
    immigration = params.immigration or ImmigrationTable()
    max_age = max(max_age, max((a for (_, _, _, a) in immigration.counts), default=0))
    track = max_age + years + 2
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

    shares = None
    if "internal_migration" in params.tables:
        # [origin, destination, tracked age] shares of moving mass over the run's
        # regions; the tensor keeps its caller's region order
        tensor = params.migration_tensor
        order = [tensor.position[region] for region in regions]
        ages = [tensor.age_position(a) for a in range(track + 1)]
        shares = tensor.shares()[np.ix_(order, ages, order)].transpose(0, 2, 1)

    def year_rates(year: int) -> np.ndarray:
        """[kind, region, sex, age] probabilities of the life-years starting in
        ``year``, kinds in draw order."""
        rates = params.rate_array([year], regions, track + 1)[:, 0]
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

    def bear_each(pool: np.ndarray, births: np.ndarray):
        """Add the newborns of each cell of ``births`` above MASS_EPSILON to ``pool``,
        a region's in (sex, age) order: np.cumsum adds in sequence, unlike ``bear``."""
        mass = np.where(births > MASS_EPSILON, births, 0.0).reshape(len(pool), -1, 1) * split
        pool[:] = np.cumsum(np.concatenate([pool[:, None], mass], axis=1), axis=1)[:, -1]

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
        d, e, b, m = year_rates(year)
        next_cohort = np.zeros(shape)

        # immigrants of this year (first-order bookkeeping): their events split
        # 1/3 : 1/6 between this year and the next
        arrivals = np.zeros(shape)
        for region, sex, age, count in immigration.cells_for_year(year):
            arrivals[at_region[region], at_sex[sex], age] = count
        if arrivals.any():
            record("I", year, arrivals)
            for y, part, newborns in ((year, 3, pool), (year + 1, 6, next_pool)):
                bear_each(newborns, arrivals * b / part)
                if y < end_year:
                    for metric, p in (("D", d), ("E", e), ("B", b), ("IM_OUT", m)):
                        record(metric, y, arrivals * p / part)
                    for block in spread(arrivals * m / part):
                        record("IM_IN", y, block)
            moved = arrivals * m / 6  # per segment: pre-birthday, pre-Jan-1, after
            # half has its first birthday this year; half is alive on Jan 1 and has it next
            for block in spread(moved, arrivals * (0.5 - (d + e) / 6) - moved):
                cohort[..., 1:] += block[..., :-1]
                record("P", year + 1, block)
            for block in spread(moved, arrivals * (0.5 - (d + e) / 3) - moved):
                next_cohort[..., 1:] += block[..., :-1]

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


def generate_scenario_files(spec: ScenarioSpec, seed: int, out_dir) -> dict[str, Path]:
    """Write the complete, internally consistent input set for a run.

    Emits parameter CSVs, the initial population, immigration counts, the
    migration tensor where applicable, the oracle reference census and a
    ready-to-run config. Returns the paths keyed by role.
    """
    params = build_model_parameters(spec)
    sources = {role: (name, source) for role, name, source in (
        *((kind, f"params_{kind}.csv", table) for kind, table in params.tables.items()),
        ("immigration", "immigration.csv", params.immigration),
        ("migration_tensor", "migration_tensor.csv", params.migration_tensor))
        if source is not None}
    names = {role: name for role, (name, _) in sources.items()}
    names.update(initial_population="initial_population.csv",
                 reference_census="reference_census.csv", scenario="scenario.conf",
                 config="run.conf")
    # the run settings are checked before anything is written
    config = RunConfig(
        start=f"{spec.start_year}-01-01",
        end=f"{spec.end_year}-01-01",
        seed=seed,
        runs=spec.ensemble_runs,
        male_fraction=spec.male_fraction,
        params_death=names.get("death"),
        params_emigration=names.get("emigration"),
        params_birth=names.get("birth"),
        params_internal_migration=names.get("internal_migration"),
        migration_tensor=names.get("migration_tensor"),
        immigration=names.get("immigration"),
        initial_population=names["initial_population"],
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {role: out / name for role, name in names.items()}
    for role, (_, source) in sources.items():
        source.to_csv(paths[role])
    initial = build_initial_population(spec)
    write_population_csv(initial, paths["initial_population"])
    cohort_projection(params, initial, spec.start_year, spec.years,
                      male_fraction=spec.male_fraction).to_csv(paths["reference_census"])
    spec.to_file(paths["scenario"])
    config.to_file(paths["config"])
    return paths


def write_population_csv(cells, path) -> None:
    *labels, counts = list(zip(*sorted(cells))) or [()] * 4
    write_columns(path, POPULATION_CSV_HEADER, [np.unique(column, return_inverse=True)
                                                for column in labels], counts, whole_or_repr)


def read_population_csv(path) -> list[tuple[str, str, int, int]]:
    cells = read_columns(path, POPULATION_CSV_HEADER, (checked, sex, age, _count), key=range(3))
    return list(zip(*(cells.column(j) for j in range(4))))


def _count(text: str) -> int:
    count = integer(text)
    if count < 0:
        raise ValueError("negative count")
    return count
