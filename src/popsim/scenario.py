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
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .agents import EventKind
from .census import METRIC_INDEX, SyntheticCensus
from .config import RunConfig
from .engine import ModelParameters
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

def cohort_projection(params: ModelParameters, initial_cells, start_year: int, years: int,
                      *, male_fraction: float = 0.5) -> SyntheticCensus:
    """Expected-value reference census (real-valued counts).

    Independent of the event-driven engine: pure ledger arithmetic over
    life-year cohorts as derived in the module docstring. It reads the same
    ``ModelParameters`` as the engine, under the same coverage rule: the rows
    of each life-year, the migration tensor's destination shares and the
    regions of the run. Each (metric, year, region, sex) row of the census
    adds the cells of a cohort vector above MASS_EPSILON in one masked vector
    add, in the order the ledger produces them.
    """
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
    sexes = ("f", "m")
    census = SyntheticCensus((range(start_year, end_year + 1), regions, sexes, range(track + 1)))
    values, present = census.values, census.present
    _, at_region, at_sex, _ = census.index

    def record(metric: str, year: int, region: str, sex: str, age: int, n: float):
        cell = (METRIC_INDEX[metric], year - start_year, at_region[region], at_sex[sex], age)
        values[cell] += n
        present[cell] = True

    tensor = params.migration_tensor
    if tensor is not None:
        # (origin, destination, tracked age) shares of moving mass
        shares = tensor.shares()[:, [tensor.age_position(age) for age in range(track + 1)]]
        shares = shares.transpose(0, 2, 1)
        movable = shares.any(axis=1)

    rate_cache: dict[tuple[int, str, str], tuple] = {}

    def rates(year: int, region: str, sex: str):
        """Death, emigration, birth and internal migration probability per age."""
        key = (year, region, sex)
        got = rate_cache.get(key)
        if got is None:
            rows = dict(params.life_year_rates(year, region, sex))
            d, e, b, m = (rows[kind][np.minimum(ages, len(rows[kind]) - 1)] if kind in rows
                          else np.zeros(track + 1) for kind in (
                              EventKind.DEATH, EventKind.EMIGRATION, EventKind.BIRTH,
                              EventKind.INTERNAL_MIGRATION))
            if EventKind.INTERNAL_MIGRATION in rows:  # like the engine: no weight, no movers
                m = m * movable[tensor.position[region]]
            got = rate_cache[key] = (d, e, b, m)
        return got

    def record_vec(metric: str, year: int, region: str, sex: str, per_age: np.ndarray):
        row = (METRIC_INDEX[metric], year - start_year, at_region[region], at_sex[sex])
        mask = per_age > MASS_EPSILON
        values[row] += np.where(mask, per_age, 0.0)
        present[row] |= mask

    # ledger[(region, sex)][a]: expected mass entering its age-a life-year
    # during the year currently being processed
    ledger = {(r, s): np.zeros(track + 1) for r in regions for s in sexes}
    newborn_pool: dict[int, dict[tuple[str, str], float]] = {}

    def add_newborns(year: int, region: str, mass: float):
        if mass <= MASS_EPSILON or year >= end_year:
            return
        pool = newborn_pool.setdefault(year, {})
        for sex, frac in (("f", 1.0 - male_fraction), ("m", male_fraction)):
            if frac > 0:
                key = (region, sex)
                pool[key] = pool.get(key, 0.0) + mass * frac

    # --- initial population: alive on Jan 1 of start_year --------------------
    initial = {(r, s): np.zeros(track + 1) for r in regions for s in sexes}
    for region, sex, age, count in initial_cells:
        initial[(region, sex)][age] += count
        record("P", start_year, region, sex, int(age), count)

    for (region, sex), n0 in initial.items():
        if not np.any(n0):
            continue
        d, e, b, m = rates(start_year - 1, region, sex)
        de = d * e
        death_rec = n0 * (d / 2 - de / 6)
        emig_rec = n0 * (e / 2 - de / 6)
        occ_init = 0.5 - (d + e) / 6 + de / 12
        birth_rec = n0 * b * occ_init
        move_rec = n0 * m * occ_init
        record_vec("D", start_year, region, sex, death_rec)
        record_vec("E", start_year, region, sex, emig_rec)
        record_vec("B", start_year, region, sex, birth_rec)
        add_newborns(start_year, region, float(birth_rec.sum()))
        survivors = n0 - death_rec - emig_rec
        movers = n0 * m * (0.5 - (d + e) / 3 + de / 4)
        if np.any(move_rec > MASS_EPSILON):
            record_vec("IM_OUT", start_year, region, sex, move_rec)
            out = shares[tensor.position[region]]
            for j, dest in enumerate(tensor.regions):
                record_vec("IM_IN", start_year, dest, sex, move_rec * out[j])
                ledger[(dest, sex)][1:] += (movers * out[j])[:-1]
            survivors = survivors - movers
        ledger[(region, sex)][1:] += survivors[:-1]

    # --- year loop ------------------------------------------------------------
    for year in range(start_year, end_year):
        next_ledger = {key: np.zeros(track + 1) for key in ledger}

        # immigrants of this year (first-order bookkeeping)
        if immigration is not None:
            for region, sex, age, count in immigration.cells_for_year(year):
                record("I", year, region, sex, age, count)
                d_v, e_v, b_v, m_v = rates(year, region, sex)
                d, e, b, m = (float(v[age]) for v in (d_v, e_v, b_v, m_v))
                z = d + e
                for metric, p in (("D", d), ("E", e), ("B", b), ("IM_OUT", m)):
                    if p <= 0:
                        continue
                    record(metric, year, region, sex, age, count * p / 3)
                    if year + 1 < end_year:
                        record(metric, year + 1, region, sex, age, count * p / 6)
                if b > 0:
                    add_newborns(year, region, count * b / 3)
                    add_newborns(year + 1, region, count * b / 6)
                half_a = count * (0.5 - z / 6)      # first birthday this year
                half_b_alive = count * (0.5 - z / 6)  # alive Jan 1, birthday next year
                half_b_next = count * (0.5 - z / 3)
                moved = count * m / 6  # per segment: pre-birthday, pre-Jan-1, after
                if m > 0:
                    out = shares[tensor.position[region], :, age]
                    for j, dest in enumerate(tensor.regions):
                        frac = float(out[j])
                        if frac <= 0:
                            continue
                        record("IM_IN", year, dest, sex, age, count * m / 3 * frac)
                        if year + 1 < end_year:
                            record("IM_IN", year + 1, dest, sex, age, count * m / 6 * frac)
                        ledger[(dest, sex)][age + 1] += moved * frac
                        record("P", year + 1, dest, sex, age, moved * frac)
                        next_ledger[(dest, sex)][age + 1] += moved * frac
                    half_a -= moved
                    half_b_alive -= moved
                    half_b_next -= moved
                ledger[(region, sex)][age + 1] += half_a
                record("P", year + 1, region, sex, age, half_b_alive)
                next_ledger[(region, sex)][age + 1] += half_b_next

        def process_cohort(region, sex, vec):
            """One year's life-year cohorts of (region, sex): exact formulas."""
            d, e, b, m = rates(year, region, sex)
            de = d * e
            death0 = vec * (d * (1 - e) / 2 + de / 3)
            death1 = vec * (d * (1 - e) / 2 + de / 6)
            emig0 = vec * (e * (1 - d) / 2 + de / 3)
            emig1 = vec * (e * (1 - d) / 2 + de / 6)
            occ = (1 - d) * (1 - e) + (d * (1 - e) + e * (1 - d)) / 2 + de / 3
            occ0 = (1 - d) * (1 - e) / 2 + (d * (1 - e) + e * (1 - d)) / 3 + de / 4
            record_vec("D", year, region, sex, death0)
            record_vec("E", year, region, sex, emig0)
            if year + 1 < end_year:
                record_vec("D", year + 1, region, sex, death1)
                record_vec("E", year + 1, region, sex, emig1)
            if np.any(b > 0):
                birth0 = vec * b * occ0
                birth1 = vec * b * (occ - occ0)
                record_vec("B", year, region, sex, birth0)
                add_newborns(year, region, float(birth0.sum()))
                if year + 1 < end_year:
                    record_vec("B", year + 1, region, sex, birth1)
                    add_newborns(year + 1, region, float(birth1.sum()))
            alive = vec * (1 - (d + e) / 2 + de / 3)
            survivors = vec * (1 - d) * (1 - e)
            if np.any(m > 0):
                move0 = vec * m * occ0
                move1 = vec * m * (occ - occ0)
                movers_surviving = vec * m * (1 - d) * (1 - e)
                record_vec("IM_OUT", year, region, sex, move0)
                if year + 1 < end_year:
                    record_vec("IM_OUT", year + 1, region, sex, move1)
                out = shares[tensor.position[region]]
                for j, dest in enumerate(tensor.regions):
                    share = out[j]
                    record_vec("IM_IN", year, dest, sex, move0 * share)
                    if year + 1 < end_year:
                        record_vec("IM_IN", year + 1, dest, sex, move1 * share)
                    record_vec("P", year + 1, dest, sex, move0 * share)
                    next_ledger[(dest, sex)][1:] += (movers_surviving * share)[:-1]
                alive = alive - move0
                survivors = survivors - movers_surviving
            record_vec("P", year + 1, region, sex, alive)
            next_ledger[(region, sex)][1:] += survivors[:-1]

        for (region, sex), vec in ledger.items():
            if np.any(vec > MASS_EPSILON):
                process_cohort(region, sex, vec)
        # newborn mass feeds back into this year's age-0 cohorts
        for _ in range(64):
            batch = newborn_pool.pop(year, None)
            if not batch:
                break
            for (region, sex), mass in sorted(batch.items()):
                if mass > MASS_EPSILON:
                    vec = np.zeros(track + 1)
                    vec[0] = mass
                    process_cohort(region, sex, vec)

        ledger = next_ledger

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
