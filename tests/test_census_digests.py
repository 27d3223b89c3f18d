"""Pinned census digests.

The digests below were computed with the engine that kept one event heap and
one numpy ``Generator`` per agent (``popsim.agents``). The array kernel that
replaced it must draw exactly what each agent's stream drew and apply the
events in the same order, so every census keeps its bytes; a change here means
a changed draw, event order or id assignment, not a different random run.
"""

import hashlib
import sys
from datetime import date

import pytest

from popsim import engine
from popsim.engine import MacroStepConfig, World
from popsim.params import ImmigrationTable
from popsim.scenario import ScenarioSpec, build_initial_population, build_model_parameters

# the scenario specs of perfbench's three workloads
WORKLOAD_SPECS = {
    "closed_loop": (dict(
        regions=["AT-1", "AT-2", "AT-3"], start_year=2020, years=10,
        initial_total=3_000, initial_age_low=0, initial_age_high=79,
        p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)],
        p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
        p_internal_migration=0.01, immigration_per_year=100, ensemble_runs=2), "year"),
    "churn_monthly": (dict(
        regions=["AT-1"], start_year=2020, years=5,
        initial_total=1_500, initial_age_low=0, initial_age_high=79,
        p_death=[(0, 0.002), (60, 0.02)], p_emigration=0.3,
        p_birth=[(15, 0.06), (50, 0.0)], immigration_per_year=3_000,
        immigration_age_low=0, immigration_age_high=79, ensemble_runs=1), "month"),
    "regional_ensemble": (dict(
        regions=[f"AT-{s}-{d:02d}" for s in range(1, 4) for d in range(1, 6)],
        start_year=2020, years=5, initial_total=1_500, initial_age_low=0,
        initial_age_high=79, p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)],
        p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
        p_internal_migration=0.02, ensemble_runs=4), "year"),
}

# every event kind over two regions, with immigrants
BUSY = dict(regions=["AT-1", "AT-2"], start_year=2020, years=3, initial_total=2_000,
            initial_age_low=0, initial_age_high=90,
            p_death=[(0, 0.003), (60, 0.03), (85, 0.2)], p_emigration=0.02,
            p_birth=[(15, 0.15), (45, 0.0)], p_internal_migration=0.05,
            immigration_per_year=400, immigration_age_low=0, immigration_age_high=70)


def workload(name, seed):
    fields, unit = WORKLOAD_SPECS[name]
    spec = ScenarioSpec(**fields)
    step = MacroStepConfig(date(spec.start_year, 1, 1),
                           date(spec.start_year + spec.years, 1, 1), unit)
    return step, build_model_parameters(spec), build_initial_population(spec), seed, 0.5


def busy(start, end, unit, multiplier, male_fraction=0.5, seed=7):
    spec = ScenarioSpec(**BUSY)
    return (MacroStepConfig(start, end, unit, multiplier), build_model_parameters(spec),
            build_initial_population(spec), seed, male_fraction)


def feb29():
    # a leap-day start: the birthdate windows of ages divisible by 4 hold a Feb 29
    spec = ScenarioSpec(**{**BUSY, "immigration_per_year": 0})
    params = build_model_parameters(spec)
    params.immigration = ImmigrationTable()
    for year in (2020, 2021, 2022):
        params.immigration.add(year, "AT-2", "f", 28, 30)
    initial = [(region, sex, age, 80) for region in spec.regions for sex in "fm"
               for age in range(0, 90, 4)]
    return (MacroStepConfig(date(2020, 2, 29), date(2023, 1, 1), "month", 4), params,
            initial, 11, 0.5)


CASES = {
    **{f"{name}_seed{seed}": (lambda name=name, seed=seed: workload(name, seed))
       for name in WORKLOAD_SPECS for seed in (1, 2)},
    # month steps from mid-month and 10-day steps: Jan-1 snapshots fall inside steps
    "month_steps": lambda: busy(date(2020, 3, 15), date(2023, 1, 1), "month", 1),
    "ten_day_steps": lambda: busy(date(2020, 1, 1), date(2022, 6, 1), "day", 10),
    "feb29_birthdates": feb29,
    "male_fraction_0": lambda: busy(date(2020, 1, 1), date(2023, 1, 1), "year", 1, 0.0),
    "male_fraction_1": lambda: busy(date(2020, 1, 1), date(2023, 1, 1), "year", 1, 1.0),
}

DIGESTS = {
    "churn_monthly_seed1": "25f93f62252efed2b578dd4d9f2cfb4d62a70f5aa260b45b19a7b6c581a7fae9",
    "churn_monthly_seed2": "c87774181f80672a9c958f3a4871a66918282fd8a4013ac00a40c36378f307c0",
    "closed_loop_seed1": "01e18bc78bcbc4c83763643f05533ac05228231b09cf75bf53b5b61c7c80e60b",
    "closed_loop_seed2": "27b62110fa510c2e72143d22cc48e2311fa68c925f3fe6aea87b141344c5a161",
    "feb29_birthdates": "f5704676e866a5c8fc3767400d11fd22188fa1b0e834b61739f60f5a4e88d915",
    "male_fraction_0": "899f4ebf24a22eab9c4496414c149c3aa6898f9210184e0ddf318bfc9c0f670e",
    "male_fraction_1": "7bdd6026d0204f1f07a7684da9f3166493527e37ff0b89c0921cee26470d915a",
    "month_steps": "3bf6a68d0d3898c7fc8aca4b68d83835f595d357f3b862ffc718e89087368482",
    "regional_ensemble_seed1": "db596df079b16c51510a14b583e0056b47f834cb70caccc9a304223a02d03a81",
    "regional_ensemble_seed2": "02fcc5d02c5103b187689cf00368984353cf87422ef9c3debaa26524a4ccd180",
    "ten_day_steps": "bcb6ea034ef9d1b9d8383a59ca5af5d548d5a037e482a8660b07f73ec06db7ed",
}


def census_digest(case, tmp_path, workers=1):
    step, params, initial, seed, male_fraction = CASES[case]()
    world = World(step, params, seed, male_fraction=male_fraction, workers=workers)
    world.add_initial_population(initial)
    path = tmp_path / "census.csv"
    world.run().to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), world


@pytest.mark.parametrize("case", sorted(CASES))
def test_census_bytes_are_pinned(case, tmp_path):
    digest, world = census_digest(case, tmp_path)
    assert digest == DIGESTS[case]
    assert world.counters["births"] and world.counters["deaths"]


@pytest.mark.parametrize("case", ["closed_loop_seed1", "month_steps", "ten_day_steps"])
def test_census_bytes_are_pinned_with_two_workers(case, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "PARALLEL_MIN_DUE", 2)  # thread even the small sweeps
    assert census_digest(case, tmp_path, workers=2)[0] == DIGESTS[case]


def test_census_bytes_are_pinned_under_thread_switching(tmp_path, monkeypatch):
    # more workers than cores and a thread switch every microsecond: a lost update to
    # the lane columns the blocks share would change the census
    monkeypatch.setattr(engine, "PARALLEL_MIN_DUE", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        digest = census_digest("month_steps", tmp_path, workers=8)[0]
    finally:
        sys.setswitchinterval(interval)
    assert digest == DIGESTS["month_steps"]


def test_feb29_case_has_leap_day_birthdates(tmp_path):
    step, params, initial, seed, male_fraction = feb29()
    world = World(step, params, seed, male_fraction=male_fraction)
    world.add_initial_population(initial)
    born = [agent.birthdate for agent in world.agents.values()]
    assert sum((b.month, b.day) == (2, 29) for b in born) > 5
