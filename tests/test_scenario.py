"""Scenario generation and the cohort-projection oracle.

The oracle is verified against a test-local continuous-time per-person
sampler: an independent implementation of the life-year semantics (draw all
events at the birthday, uniform times, terminal events cancel later ones).
Running it at large probabilities makes the second-order ledger coefficients
statistically visible, so a wrong 1/3-vs-1/6 style term would fail here.
"""

import hashlib
import math

import numpy as np
import pytest

from popsim.engine import ModelParameters
from popsim.errors import InputError
from popsim.ipf import MigrationTensor
from popsim.params import ImmigrationTable, ParameterTable, derive_params_from_census
from popsim.scenario import (MASS_EPSILON, ScenarioSpec, build_immigration_table,
                             build_initial_population, build_migration_tensor,
                             build_model_parameters, build_parameter_tables,
                             cohort_projection, format_profile, generate_scenario_files,
                             parse_profile, profile_to_array, read_population_csv)

from conftest import reference_census_for
from test_census_digests import WORKLOAD_SPECS


def test_spec_file_round_trip(tmp_path):
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], start_year=2021, years=4,
                        initial_total=500, initial_age_low=5, initial_age_high=60,
                        p_death=0.02, p_birth=[(15, 0.1), (50, 0.0)],
                        immigration_per_year=40, ensemble_runs=3)
    path = tmp_path / "scenario.conf"
    spec.to_file(path)
    assert ScenarioSpec.from_file(path) == spec


def test_spec_validation():
    with pytest.raises(InputError):
        ScenarioSpec(p_death=1.5)
    with pytest.raises(InputError):
        ScenarioSpec(initial_age_low=50, initial_age_high=10)
    with pytest.raises(InputError):
        ScenarioSpec(years=0)


def test_profile_parsing():
    assert parse_profile("0.25") == 0.25
    assert parse_profile("15:0.1, 50:0") == [(15, 0.1), (50, 0.0)]
    assert parse_profile(format_profile([(15, 0.1), (50, 0.0)])) == [(15, 0.1), (50, 0.0)]
    arr = profile_to_array([(15, 0.1), (50, 0.0)], 60)
    assert arr[14] == 0 and arr[15] == 0.1 and arr[49] == 0.1 and arr[50] == 0


def test_initial_population_total_exact():
    spec = ScenarioSpec(regions=["AT-1", "AT-2", "AT-3"], initial_total=10007,
                        initial_age_low=0, initial_age_high=76)
    cells = build_initial_population(spec)
    assert sum(n for *_, n in cells) == 10007


def test_immigration_counts_exact_per_year():
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], years=3,
                        immigration_per_year=101, immigration_age_low=20,
                        immigration_age_high=29)
    table = build_immigration_table(spec)
    for year in (2020, 2021, 2022):
        assert sum(n for *_, n in table.cells_for_year(year)) == 101
    assert table.cells_for_year(2023) == []


def test_tables_cover_pre_and_post_horizon_years():
    spec = ScenarioSpec(p_death=0.01, years=5)
    tables = build_parameter_tables(spec)
    sexes = ("f", "m")
    assert tables["death"].covers(range(2019, 2026), spec.regions, sexes) == []
    assert tables["death"].covers((2018, 2026), spec.regions, sexes) == [
        f"death: year={y} region=AT-1 sex={s}" for y in (2018, 2026) for s in sexes]


def test_tensor_uniform_off_diagonal():
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], p_internal_migration=0.1)
    tensor = build_migration_tensor(spec)
    assert tensor.values[0, 0, :].sum() == 0
    assert tensor.values[0, 1, 0] == 1.0


@pytest.mark.parametrize("regions, p_move", [
    (["AT-1"], 0.1), (["AT-1", "AT-2"], 0.0), (["AT-1", "AT-2"], [(30, 0.1)]),
    (["AT-1", "AT-2"], [(0, 0.1), (30, 0.0)]), (["AT-1", "AT-2", "AT-3"], 0.05)])
def test_scenario_writes_both_migration_files_or_neither(tmp_path, regions, p_move):
    spec = ScenarioSpec(regions=regions, initial_total=20, years=1, max_age=40,
                        initial_age_high=40, p_internal_migration=p_move, ensemble_runs=1)
    migrates = len(regions) > 1 and bool(np.any(profile_to_array(p_move, 40) > 0))
    params = build_model_parameters(spec)
    assert ("internal_migration" in params.tables) == migrates
    assert (params.migration_tensor is not None) == migrates
    paths = generate_scenario_files(spec, 1, tmp_path)
    assert {"internal_migration", "migration_tensor"} & set(paths) == (
        {"internal_migration", "migration_tensor"} if migrates else set())


def test_oracle_initial_snapshot_exact():
    spec = ScenarioSpec(initial_total=1234, p_death=0.05,
                        initial_age_low=10, initial_age_high=40)
    reference = reference_census_for(spec)
    assert reference.total("P", 2020) == pytest.approx(1234, abs=1e-9)


def test_oracle_is_farr_consistent():
    """Deriving parameters from the oracle census recovers the generating
    death probability exactly on cells away from the start-year ramp."""
    spec = ScenarioSpec(initial_total=100000, years=6, p_death=0.04,
                        initial_age_low=30, initial_age_high=34)
    reference = reference_census_for(spec)
    table = derive_params_from_census(reference, "death")
    for year in range(2021, 2026):
        drift = year - 2020
        for age in range(31 + drift, 34 + drift):
            assert table.lookup(year, "AT-1", "m", age) == pytest.approx(0.04, abs=1e-9)
    # the start-year cells of the initial cohorts carry the known ramp-in
    # value p/(1 + p/2): the cohort was not observed before the start
    assert table.lookup(2020, "AT-1", "f", 30) == pytest.approx(0.04 / 1.02, abs=1e-9)


def test_oracle_conservation_without_immigration():
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], initial_total=5000, years=4,
                        initial_age_low=0, initial_age_high=70,
                        p_death=0.05, p_emigration=0.03,
                        p_birth=[(15, 0.2), (50, 0.0)], p_internal_migration=0.1)
    reference = reference_census_for(spec)
    for year in range(2020, 2024):
        lhs = reference.total("P", year + 1)
        rhs = (reference.total("P", year) + reference.total("B", year)
               - reference.total("D", year) - reference.total("E", year))
        assert lhs == pytest.approx(rhs, abs=1e-6)


# ----- independent per-person continuous-time sampler -------------------------


def sample_reference(rng, spec: ScenarioSpec, immigration=None):
    """Per-person rejection sampler of the life-year semantics.

    Times are continuous, in years since Jan 1 of the start year. All of a
    life-year's events are drawn at its start, the earliest terminal one
    cancels everything after it, and Jan-1 snapshot crossings are counted
    interleaved with the events so the age/region at each crossing is right.
    """
    horizon = spec.years
    p = {kind: profile_to_array(getattr(spec, field), spec.max_age)
         for kind, field in (("death", "p_death"), ("emigration", "p_emigration"),
                             ("birth", "p_birth"),
                             ("internal_migration", "p_internal_migration"))}
    regions = spec.regions
    census = census_counters()

    def prob(kind, sex, age):
        if kind == "birth" and sex != "f":
            return 0.0
        return float(p[kind][min(age, spec.max_age)])

    def snap(k, region, sex, age):
        key = (spec.start_year + k, region, sex, age)
        census["P"][key] = census["P"].get(key, 0) + 1

    def crossings(cursor, bound):
        """Integer times k with cursor < k <= min(bound, horizon)."""
        top = min(bound, float(horizon))
        return range(math.floor(cursor) + 1, math.floor(top) + 1)

    def live(now, born_shift, age, region, sex, spawned):
        while True:
            next_bd = born_shift + 1.0
            window = next_bd - now
            drawn = []
            for kind in ("death", "emigration", "birth", "internal_migration"):
                if kind == "internal_migration" and len(regions) < 2:
                    continue
                q = prob(kind, sex, age) * window
                if q > 0 and rng.random() < q:
                    drawn.append((now + window * rng.random(), kind))
            drawn.sort()
            cursor = now
            for when, kind in drawn:
                for k in crossings(cursor, when):
                    snap(k, region, sex, age)
                cursor = when
                if kind in ("death", "emigration"):
                    if when < horizon:
                        rec(census, "D" if kind == "death" else "E",
                            spec.start_year, when, region, sex, age, horizon)
                    return
                if when >= horizon:
                    continue
                if kind == "birth":
                    rec(census, "B", spec.start_year, when, region, sex, age, horizon)
                    baby_sex = "m" if rng.random() < spec.male_fraction else "f"
                    spawned.append((when, region, baby_sex))
                else:
                    rec(census, "IM_OUT", spec.start_year, when, region, sex, age, horizon)
                    others = [r for r in regions if r != region]
                    region = others[int(rng.random() * len(others))]
                    rec(census, "IM_IN", spec.start_year, when, region, sex, age, horizon)
            for k in crossings(cursor, next_bd):
                snap(k, region, sex, age)
            if next_bd >= horizon:
                return
            now = born_shift = next_bd
            age += 1

    worklist = []
    for region, sex, age, count in build_initial_population(spec):
        for _ in range(count):
            worklist.append((0.0, -rng.random(), age, region, sex))
            snap(0, region, sex, age)
    if immigration is not None:
        for (year, region, sex, age), count in sorted(immigration.counts.items()):
            for _ in range(count):
                entry = (year - spec.start_year) + rng.random()
                worklist.append((entry, entry - rng.random(), age, region, sex))
                rec(census, "I", spec.start_year, entry, region, sex, age, horizon)

    spawned: list = list()
    for person in worklist:
        now, born_shift, age, region, sex = person
        live(now, born_shift, age, region, sex, spawned)
    while spawned:
        when, region, baby_sex = spawned.pop()
        live(when, when, 0, region, baby_sex, spawned)
    return census


def census_counters():
    return {m: {} for m in ("P", "B", "D", "E", "I", "IM_IN", "IM_OUT")}


def rec(census, metric, start_year, when, region, sex, age, horizon):
    if 0 <= when < horizon:
        key = (start_year + int(when), region, sex, age)
        census[metric][key] = census[metric].get(key, 0) + 1


def totals(counter, year):
    return sum(n for (y, *_), n in counter.items() if y == year)


def test_oracle_matches_independent_sampler_large_probabilities():
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], initial_total=40000, years=3,
                        initial_age_low=20, initial_age_high=49, max_age=60,
                        p_death=0.30, p_emigration=0.20,
                        p_birth=[(15, 0.4), (50, 0.0)],
                        p_internal_migration=0.25, male_fraction=0.5)
    oracle = reference_census_for(spec)
    sampled = sample_reference(np.random.default_rng(2718), spec)
    for metric in ("D", "E", "B", "IM_OUT", "P"):
        years = range(2021, 2023) if metric == "P" else range(2020, 2023)
        for year in years:
            expected = oracle.total(metric, year)
            observed = totals(sampled[metric], year)
            sigma = math.sqrt(max(expected, 25.0))
            assert abs(observed - expected) < 5 * sigma, (
                f"{metric}({year}): sampler {observed} vs oracle {expected:.1f} "
                f"(5 sigma = {5 * sigma:.1f})")


def test_oracle_matches_independent_sampler_with_immigration():
    spec = ScenarioSpec(regions=["AT-1"], initial_total=30000, years=3,
                        initial_age_low=20, initial_age_high=39, max_age=60,
                        p_death=0.02, p_emigration=0.01,
                        p_birth=[(15, 0.06), (50, 0.0)],
                        immigration_per_year=3000,
                        immigration_age_low=20, immigration_age_high=29)
    immigration = build_immigration_table(spec)
    oracle = reference_census_for(spec)
    sampled = sample_reference(np.random.default_rng(31415), spec, immigration)
    for metric in ("D", "E", "B", "I", "P"):
        years = range(2021, 2023) if metric == "P" else range(2020, 2023)
        for year in years:
            expected = oracle.total(metric, year)
            observed = totals(sampled[metric], year)
            sigma = math.sqrt(max(expected, 25.0))
            assert abs(observed - expected) < 5 * sigma, (
                f"{metric}({year}): sampler {observed} vs oracle {expected:.1f}")
    assert totals(sampled["I"], 2021) == 3000


def test_oracle_records_no_immigrant_mass_at_or_below_epsilon():
    spec = ScenarioSpec(regions=["AT-1"], years=2, max_age=40, initial_total=0,
                        initial_age_high=40, p_death=1e-13, immigration_per_year=10,
                        immigration_age_low=20, immigration_age_high=24)
    reference = reference_census_for(spec)
    assert sum(n for _, n in reference.items("I")) == 20
    # each immigrant's deaths, 1e-13/3 and 1e-13/6, stay below MASS_EPSILON
    assert [cell for cell, n in reference.items("D") if n <= MASS_EPSILON] == []


def test_oracle_zero_probabilities_constant_population():
    spec = ScenarioSpec(initial_total=777, years=5, initial_age_low=10,
                        initial_age_high=50)
    reference = reference_census_for(spec)
    for year in range(2020, 2026):
        assert reference.total("P", year) == pytest.approx(777, abs=1e-9)
        assert reference.total("D", year) == 0


def _golden_oracle_inputs(case):
    """(ModelParameters, initial cells, start year, years, male fraction) of ``case``."""
    specs = {
        # perfbench's closed_loop: immigrants into three regions, internal migration
        "closed_loop": ScenarioSpec(
            regions=["AT-1", "AT-2", "AT-3"], years=10, initial_total=3_000,
            initial_age_low=0, initial_age_high=79,
            p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)], p_emigration=0.004,
            p_birth=[(15, 0.06), (50, 0.0)], p_internal_migration=0.01,
            immigration_per_year=100, ensemble_runs=2),
        # perfbench's churn_monthly: immigrants at every age outnumber the residents
        "churn_monthly": ScenarioSpec(
            regions=["AT-1"], years=5, initial_total=1_500, initial_age_low=0,
            initial_age_high=79, p_death=[(0, 0.002), (60, 0.02)], p_emigration=0.3,
            p_birth=[(15, 0.06), (50, 0.0)], immigration_per_year=3_000,
            immigration_age_low=0, immigration_age_high=79, ensemble_runs=1),
        # perfbench's regional_ensemble: 15 districts, internal migration, births
        "regional_ensemble": ScenarioSpec(
            regions=[f"AT-{s}-{d:02d}" for s in (1, 2, 3) for d in range(1, 6)],
            years=5, initial_total=1_500, initial_age_low=0, initial_age_high=79,
            p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)], p_emigration=0.004,
            p_birth=[(15, 0.06), (50, 0.0)], p_internal_migration=0.02, ensemble_runs=4),
        # the tensor keeps the unsorted region order; every newborn is a boy
        "unsorted_regions": ScenarioSpec(
            regions=["AT-3", "AT-1", "AT-2"], years=4, max_age=60, initial_total=2_000,
            initial_age_low=5, initial_age_high=55, male_fraction=1.0,
            p_death=[(0, 0.01), (40, 0.05)], p_emigration=0.02,
            p_birth=[(15, 0.08), (45, 0.0)], p_internal_migration=[(0, 0.05), (30, 0.1)],
            immigration_per_year=150, immigration_age_low=18, immigration_age_high=40),
        # newborns give birth in their first life-year: the newborn pool feeds back
        "births_from_age_0": ScenarioSpec(
            regions=["AT-2", "AT-1"], years=3, max_age=30, initial_total=500,
            initial_age_high=30, male_fraction=0.3, p_death=0.1, p_emigration=0.05,
            p_birth=[(0, 0.7), (20, 0.2)], p_internal_migration=0.2,
            immigration_per_year=40, immigration_age_low=0, immigration_age_high=25),
        # every mover stays below MASS_EPSILON: the start year keeps its movers at home,
        # and AT-1's women are a cohort row of such movers only, which is dropped
        "moves_below_mass_epsilon": ScenarioSpec(
            regions=["AT-2", "AT-1"], years=4, max_age=90, initial_total=80,
            initial_age_high=79, p_death=0.01, p_birth=[(15, 0.5), (50, 0.0)],
            p_internal_migration=[(1, 1e-12)]),
    }
    if case in specs:
        spec = specs[case]
        params = build_model_parameters(spec)
        if case == "unsorted_regions":
            # unequal weights in the spec's region order; nobody aged 50+ leaves AT-1
            weights = np.repeat([[0, 1, 2], [3, 0, 5], [6, 7, 0]], 61).reshape(3, 3, 61)
            weights[1, :, 50:] = 0
            params = ModelParameters(params.tables, immigration=params.immigration,
                                     migration_tensor=MigrationTensor(spec.regions, range(61),
                                                                      weights))
        return (params, build_initial_population(spec), spec.start_year, spec.years,
                spec.male_fraction)
    # a tensor but no internal_migration table, and a population region outside it
    regions = ("AT-1", "AT-2", "AT-3")
    tables = {}
    for kind, values in (("death", np.linspace(0.001, 0.3, 41)), ("emigration", 0.01),
                         ("birth", [0.0] * 15 + [0.1] * 20 + [0.0] * 6)):
        tables[kind] = ParameterTable(kind, 40)
        tables[kind].set_constant(range(2009, 2016), regions,
                                  ("f",) if kind == "birth" else ("m", "f"),
                                  np.broadcast_to(values, 41))
    immigration = ImmigrationTable()
    immigration.add(2012, "AT-3", "m", 25, 30)
    params = ModelParameters(tables, immigration=immigration,
                             migration_tensor=MigrationTensor(("AT-2", "AT-1"), range(5, 20)))
    # a duplicate cell adds up; a zero cell is present with count 0
    cells = [("AT-3", "f", 20, 40), ("AT-1", "m", 12, 0), ("AT-3", "f", 20, 25),
             ("AT-2", "f", 33, 18), ("AT-1", "f", 0, 9)]
    return params, cells, 2010, 5, 0.5


# SHA-256 of the oracle's reference census CSV, computed with the oracle that kept
# its ledger as a dict of per-(region, sex) vectors; closed_loop's and
# churn_monthly's with the one that booked immigrants one cell at a time. Every
# ensemble is validated against this census, so a change to the oracle's
# bookkeeping must keep its bytes: each cell adds the same terms in the same order.
GOLDEN_ORACLE_SHA256 = {
    "closed_loop": "e683504cfc0650612014ba51bd701f1832a3888fb51dfeb2c76ef2ad1dd2150f",
    "churn_monthly": "39579f96721f81dda76e5ba622fd43adee54b588a029b47cbc613a82177d3672",
    "regional_ensemble": "0463de8eb65b2bac4929168c37a072914dc4456369d6a392b385309874ef4926",
    "unsorted_regions": "3eef2d6fb4aff6d9aa57b41f694ed310affc16cebf807d50f8665d745fe250ad",
    "births_from_age_0": "8ae2ce2c758525fea15edf8084b1c65d6e2485682060f8ee8261064b6e981b08",
    "moves_below_mass_epsilon":
        "65a1007fbcfba03c8cc6b638267674e87e4883c7982fc7797b73fdf59e576352",
    "tensor_without_movers": "2bd8e12a285439fe536710773ab0aef05fa12ffe4f0a446e41c9e7a36c486055",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ORACLE_SHA256))
def test_oracle_census_bytes_are_pinned(case, tmp_path):
    params, cells, start_year, years, male_fraction = _golden_oracle_inputs(case)
    path = tmp_path / "reference.csv"
    cohort_projection(params, cells, start_year, years,
                      male_fraction=male_fraction).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ORACLE_SHA256[case]


# SHA-256 of every table ``generate_scenario_files`` writes for perfbench's three
# workloads at seed 1, computed with the writers that rendered one row at a time;
# the reference census is pinned above. A faster writer must keep every byte.
GOLDEN_INPUT_SHA256 = {
    "closed_loop": {
        "immigration.csv": "8704aa024dac02091e18ff648c8fb7860381129349d25411ef44d4e191157d1b",
        "initial_population.csv":
            "eee2082353b8f24cab51778f2dca887fdf6b70599b5721de74b493b80a275976",
        "migration_tensor.csv": "73179cd5937eb2f8798576c748d2cb87b47e0d18ad1756ad1141ecd54b415207",
        "params_birth.csv": "3a1cda8c281ef1f68055d75d36542ca163574032603d61eb83be99f3f29ef04a",
        "params_death.csv": "bf617b794cfa74c2376c81f19d225f3d6ba80297e5de94711caa693f26315c8b",
        "params_emigration.csv": "6e163f005b98749a57229b6e103c41e3d09d18cebc170d8585e883a695b564bb",
        "params_internal_migration.csv":
            "5382b9edb696b6efa5e2515ac9210feb63a0f26da4c0591b1c4b3ebde9297e0e",
    },
    "churn_monthly": {
        "immigration.csv": "9b39ae4f2e69f428c7f327fd1d5523a161c5848f6df303faffdfcb0a2c43b950",
        "initial_population.csv":
            "21a9a1d663ebb9f255dfefd49e285d4a60e43e56ab9e4ef2b75d10c1611183cb",
        "params_birth.csv": "e136a324844cbf6b452ed8c03ca2ae56f3458b3dab1001c2a9dc668255a3a4c0",
        "params_death.csv": "d9e966b1b0171790de407cc39eb00a27a7cea3760011e11ccb3c4cfc062aae69",
        "params_emigration.csv": "23f4f2801892152a75945856061a614854f0dc22721d01cf2cd7f4f038bcb0be",
    },
    "regional_ensemble": {
        "initial_population.csv":
            "f87e2e132450535c79f66dab77c53080fdfbf7fb43bf07e43392d9f0fc46482e",
        "migration_tensor.csv": "e18ad5ece8f6ba7e1b806a24c8e26c2f6ebf412806226eba50c3694b1fced149",
        "params_birth.csv": "f8665c477b1bf3d4f2dad68c800acee0ea25e92005c0282a4b9c15d7128481c6",
        "params_death.csv": "d2715ec181e3a0afcb13250e42d3527c0c6d40fcb5f80fdae075d61efda0452e",
        "params_emigration.csv": "f1deb469d26ca2f422817f0d196b58dc931b4f80e3cde7540d3dba83a73943ea",
        "params_internal_migration.csv":
            "19f69f2bfcaf76e78119c31ba1c2c58a8c73239ec8a8698c50900eb16a64263c",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUT_SHA256))
def test_scenario_input_bytes_are_pinned(name, tmp_path):
    paths = generate_scenario_files(ScenarioSpec(**WORKLOAD_SPECS[name][0]), 1, tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in paths.values() if path.suffix == ".csv"}
    assert digests == {**GOLDEN_INPUT_SHA256[name],
                       "reference_census.csv": GOLDEN_ORACLE_SHA256[name]}


def _write_population(path, *rows):
    path.write_text("region,sex,age,count\n" + "".join(r + "\n" for r in rows))
    return path


@pytest.mark.parametrize("rows, message", [
    (("AT-1,f,3,10", "AT-1,f,3,5"), r"pop\.csv:3: duplicate row for \(AT-1,f,3\)"),
    (("AT-1,f,3,10,1",), r"pop\.csv:2: .*too many values to unpack"),
    (("AT-1,f,-1,10",), r"pop\.csv:2: .*negative age"),
])
def test_population_csv_rejects(tmp_path, rows, message):
    path = _write_population(tmp_path / "pop.csv", *rows)
    with pytest.raises(InputError, match=message):
        read_population_csv(path)
