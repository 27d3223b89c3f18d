"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The closed-loop scenarios substitute for external reference data: inputs are
generated synthetically and the reference census comes from the independent
cohort-projection oracle. Monte Carlo tolerances below are fixed; the default
seeds are part of the pinned configuration.
"""

import itertools
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from popsim.agents import EventKind
from popsim.census import SyntheticCensus
from popsim.cli import main
from popsim.engine import MacroStepConfig, ModelParameters, World, run_simulation
from popsim.errors import FeasibilityError
from popsim.ipf import MigrationTensor, ipf_3d, marginal_residual
from popsim.params import ImmigrationTable, ParameterTable, apportion_integer, farr_probability
from popsim.rng import substream
from popsim.scenario import ScenarioSpec, build_initial_population, build_parameter_tables
from popsim.validation import deviation_extrema, deviation_report

from conftest import reference_census_for
from reference_agent import completed_age, days_since_birthday, days_until_birthday

# pinned acceptance configuration
FARR_SEED = 36           # criterion 1
DETERMINISM_SEED = 2401  # criterion 3
FIRST_YEAR_SEED = 8801   # criterion 8
CLOSED_LOOP_SEED = 90    # criterion 9


RESULTS: list[str] = []


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        RESULTS.append(f"[ACCEPTANCE] {label}: FAIL")
        print(RESULTS[-1])
        raise
    RESULTS.append(f"[ACCEPTANCE] {label}: PASS")
    print(RESULTS[-1])


def national_residuals(census, years):
    return [census.total("P", y + 1)
            - (census.total("P", y) + census.total("B", y) - census.total("D", y)
               - census.total("E", y) + census.total("I", y))
            for y in years]


def regional_residuals(census, years, regions):
    out = []
    for y in years:
        for r in regions:
            out.append(census.total("P", y + 1, region=r)
                       - (census.total("P", y, region=r)
                          + census.total("B", y, region=r)
                          - census.total("D", y, region=r)
                          - census.total("E", y, region=r)
                          + census.total("I", y, region=r)
                          + census.total("IM_IN", y, region=r)
                          - census.total("IM_OUT", y, region=r)))
    return out


# ----- criterion 1: Farr closed loop -------------------------------------------

FARR_SPEC = ScenarioSpec(regions=["AT-1"], start_year=2020, years=10, max_age=100,
                         initial_total=100_000, initial_age_low=30,
                         initial_age_high=30, p_death=0.01)

_conservation_pool: list[tuple[str, SyntheticCensus, range, tuple]] = []


@pytest.fixture(scope="module")
def farr_run():
    tables = build_parameter_tables(FARR_SPEC)
    initial = build_initial_population(FARR_SPEC)
    step = MacroStepConfig(date(2020, 1, 1), date(2030, 1, 1))
    t0 = time.perf_counter()
    census = run_simulation(step, ModelParameters(tables), initial, seed=FARR_SEED)
    elapsed = time.perf_counter() - t0
    _conservation_pool.append(("farr", census, range(2020, 2030), ("AT-1",)))
    return census, elapsed


def test_criterion_1_farr_closed_loop(farr_run):
    """Constant p_death 0.01, 100k agents, 10 years, no other events: the
    Farr estimate per age (pooled over sexes and years, cells with at least
    1000 expected person-years) recovers 0.01 within 5%, pooled over all
    ages within 1%. Runtime below 60 s on one worker."""
    census, elapsed = farr_run
    with criterion("1 Farr closed loop"):
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        reference = reference_census_for(FARR_SPEC)
        years = range(2020, 2030)
        ages = range(29, 43)

        def person_years(census_like, age):
            return sum((census_like.get("P", y, "AT-1", s, age)
                        + census_like.get("P", y + 1, "AT-1", s, age)) / 2
                       for y in years for s in "mf")

        pooled_deaths = pooled_py = 0.0
        checked = 0
        for age in ages:
            if person_years(reference, age) < 1000:
                continue
            deaths = sum(census.get("D", y, "AT-1", s, age)
                         for y in years for s in "mf")
            exposure = person_years(census, age)
            estimate = farr_probability(deaths, exposure)
            assert estimate == pytest.approx(0.01, rel=0.05), f"age {age}"
            pooled_deaths += deaths
            pooled_py += exposure
            checked += 1
        assert checked >= 10
        pooled = farr_probability(pooled_deaths, pooled_py)
        assert pooled == pytest.approx(0.01, rel=0.01)


# ----- criterion 3 (and fodder for 2): determinism under parallelism ------------

DET_SPEC = ScenarioSpec(regions=["AT-1", "AT-2", "AT-3"], start_year=2020, years=5,
                        max_age=100, initial_total=10_000, initial_age_low=0,
                        initial_age_high=79, p_death=[(0, 0.004), (60, 0.02)],
                        p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
                        p_internal_migration=0.02, immigration_per_year=200)


@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    from popsim.scenario import build_immigration_table, build_migration_tensor

    tables = build_parameter_tables(DET_SPEC)
    initial = build_initial_population(DET_SPEC)
    step = MacroStepConfig(date(2020, 1, 1), date(2025, 1, 1))
    out = tmp_path_factory.mktemp("determinism")
    blobs = {}
    census_by_workers = {}
    for workers in (1, 2, 8):
        params = ModelParameters(tables,
                                 immigration=build_immigration_table(DET_SPEC),
                                 migration_tensor=build_migration_tensor(DET_SPEC))
        census = run_simulation(step, params, initial, seed=DETERMINISM_SEED,
                                workers=workers)
        path = out / f"workers_{workers}.csv"
        census.to_csv(path)
        blobs[workers] = path.read_bytes()
        census_by_workers[workers] = census
    _conservation_pool.append(("determinism", census_by_workers[1],
                               range(2020, 2025), tuple(DET_SPEC.regions)))
    return blobs


def test_criterion_3_determinism_under_parallelism(determinism_runs):
    """Identical census bytes for worker counts 1, 2 and 8 with a fixed seed
    on a 10,000-agent five-year scenario."""
    with criterion("3 determinism under parallelism"):
        assert determinism_runs[1] == determinism_runs[2] == determinism_runs[8]


# ----- criterion 9: end-to-end closed loop ---------------------------------------

LOOP_SPEC = ScenarioSpec(regions=["AT-1", "AT-2", "AT-3"], start_year=2020,
                         years=10, max_age=100, initial_total=100_000,
                         initial_age_low=0, initial_age_high=79,
                         p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)],
                         p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
                         p_internal_migration=0.01, immigration_per_year=1000,
                         ensemble_runs=9)


@pytest.fixture(scope="module")
def closed_loop(tmp_path_factory):
    base = tmp_path_factory.mktemp("closed_loop")
    spec_path = base / "scenario.conf"
    LOOP_SPEC.to_file(spec_path)
    gen_dir = base / "inputs"
    runs_dir = base / "runs"
    report_path = base / "report.csv"
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec_path),
                 "--seed", str(CLOSED_LOOP_SEED), "--out-dir", str(gen_dir)]) == 0
    assert main(["--quiet", "simulate", "--config", str(gen_dir / "run.conf"),
                 "--out-dir", str(runs_dir)]) == 0
    assert main(["--quiet", "validate", "--runs-dir", str(runs_dir),
                 "--reference", str(gen_dir / "reference_census.csv"),
                 "--out", str(report_path)]) == 0
    censuses = [SyntheticCensus.from_csv(p)
                for p in sorted(runs_dir.glob("run_*.csv"))]
    for i, census in enumerate(censuses):
        _conservation_pool.append((f"loop{i}", census, range(2020, 2030),
                                   tuple(LOOP_SPEC.regions)))
    return report_path, censuses


def test_criterion_9_end_to_end_closed_loop(closed_loop):
    """gen-synthetic -> simulate (9 runs) -> validate: the total-population
    deviation extrema of the ensemble mean against the cohort-projection
    reference stay within +-0.5% over the 10-year horizon."""
    report_path, censuses = closed_loop
    with criterion("9 end-to-end closed loop"):
        assert len(censuses) == 9
        import csv as _csv
        with open(report_path, newline="") as fh:
            rows = list(_csv.DictReader(fh))
        overall = next(r for r in rows
                       if (r["region"], r["sex"], r["age_class"]) == ("-", "-", "-"))
        e_min, e_max = float(overall["e_min"]), float(overall["e_max"])
        assert -0.005 <= e_min <= e_max <= 0.005, (e_min, e_max)


# ----- criterion 2: conservation -------------------------------------------------


def test_criterion_2_conservation(farr_run, determinism_runs, closed_loop):
    """P(y+1) = P(y) + B - D - E + I exactly at national level for every run
    of every scenario, and the per-region identity with IM flows under the
    full-regional internal migration model. Zero tolerance."""
    with criterion("2 conservation"):
        assert _conservation_pool, "no runs collected"
        for label, census, years, regions in _conservation_pool:
            assert national_residuals(census, years) == [0] * len(years), label
            if len(regions) > 1:
                residuals = regional_residuals(census, years, regions)
                assert residuals == [0] * len(residuals), label


# ----- criterion 4: IPF ------------------------------------------------------------


def test_criterion_4_ipf():
    """20 random self-consistent 4x4x5 instances reach a marginal residual
    of 1e-9 within 1000 sweeps from a flat start; mismatched grand totals
    are rejected before iterating."""
    with criterion("4 IPF"):
        regions = ("R1", "R2", "R3", "R4")
        ages = (0, 1, 2, 3, 4)
        rng = np.random.default_rng(424242)
        for trial in range(20):
            truth = MigrationTensor(regions, ages, rng.random((4, 4, 5)) + 0.05)
            marginals = truth.marginals()
            fitted = ipf_3d(MigrationTensor(regions, ages), marginals,
                            tol=1e-9, max_iter=1000)
            assert marginal_residual(fitted.values, marginals) <= 1e-9, trial
        bad = truth.marginals()
        bad.od = bad.od * 1.1
        with pytest.raises(FeasibilityError):
            ipf_3d(MigrationTensor(regions, ages), bad, tol=1e-9, max_iter=1000)


# ----- criterion 5: apportionment ---------------------------------------------------


def _compositions_min1(parts, max_total):
    """Arrays of all compositions with entries >= 1, grouped by total."""
    grid = np.array(list(itertools.product(range(1, max_total + 1), repeat=parts)))
    sums = grid.sum(axis=1)
    return {t: grid[sums == t] for t in range(parts, max_total + 1)}


def _divisor_valid_set(comps, weights):
    """Brute force over all compositions: which satisfy the equal-proportions
    min-max inequality max_i w_i/d(n_i) <= min_i w_i/d(n_i - 1) with
    d(n) = sqrt(n(n+1))? Exactly the apportionments of the priority method."""
    d_last = np.sqrt(comps * (comps + 1.0))
    d_prev = np.sqrt((comps - 1.0) * comps)
    last = (weights / d_last).max(axis=1)
    with np.errstate(divide="ignore"):
        prev = np.where(d_prev > 0, weights / np.where(d_prev > 0, d_prev, 1.0), np.inf)
    prev_min = prev.min(axis=1)
    ok = last <= prev_min * (1 + 1e-12) + 1e-300
    return {tuple(int(v) for v in row) for row in comps[ok]}


def _strictly_separated(alloc, weights):
    """True when the min-max inequality holds with clear slack, which makes
    the equal-proportions apportionment unique."""
    arr = np.asarray(alloc, dtype=float)
    last = float((weights / np.sqrt(arr * (arr + 1.0))).max())
    prev_d = np.sqrt((arr - 1.0) * arr)
    prev = np.where(prev_d > 0, weights / np.where(prev_d > 0, prev_d, 1.0), np.inf)
    return last < float(prev.min()) * (1.0 - 1e-9)


def _transfer_stable(alloc, weights):
    """No single-unit transfer between any pair reduces that pair's relative
    per-unit difference (the classical optimality of equal proportions)."""
    k = len(weights)
    for i in range(k):
        if alloc[i] <= 1:
            continue
        for j in range(k):
            if i == j:
                continue
            r_i, r_j = alloc[i] / weights[i], alloc[j] / weights[j]
            s_i, s_j = (alloc[i] - 1) / weights[i], (alloc[j] + 1) / weights[j]
            before = max(r_i, r_j) / min(r_i, r_j)
            after = max(s_i, s_j) / min(s_i, s_j)
            if after < before * (1 - 1e-12):
                return False
    return True


def test_criterion_5_apportionment():
    """Exhaustive brute-force verification over every weight vector from the
    0.1-grid with up to 4 positive cells and totals up to 12: the allocation
    always lies in the exhaustively computed set of equal-proportions
    apportionments (unique for tie-free weights), no pairwise unit transfer
    can reduce a pair's relative per-unit difference, sums are always exact,
    and the result is invariant under positive scaling (1000 random
    instances). A global-minimax reading of 'minimizing pairwise relative
    differences' is unattainable for any priority method (ledgered), so the
    classical pairwise criterion is asserted."""
    with criterion("5 apportionment"):
        max_total = 12
        for parts in (1, 2, 3, 4):
            comps = _compositions_min1(parts, max_total)
            for grid_idx in itertools.product(range(1, 11), repeat=parts):
                weights = np.array(grid_idx, dtype=float) / 10.0
                for total in range(0, max_total + 1):
                    alloc = apportion_integer(total, weights.tolist())
                    assert sum(alloc) == total
                    if total == 0:
                        continue
                    if total < parts:
                        order = sorted(range(parts), key=lambda i: (-weights[i], i))
                        expected = [0] * parts
                        for i in order[:total]:
                            expected[i] = 1
                        assert alloc == expected, (weights, total)
                    else:
                        valid = _divisor_valid_set(comps[total], weights)
                        assert tuple(alloc) in valid, (weights, total, alloc)
                        if _strictly_separated(alloc, weights):
                            assert valid == {tuple(alloc)}, (weights, total, valid)
                        assert _transfer_stable(alloc, weights), (weights, total)
        rng = np.random.default_rng(55)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            weights = rng.random(k) + 1e-3
            total = int(rng.integers(0, 60))
            base = apportion_integer(total, weights.tolist())
            factor = float(10 ** rng.uniform(-3, 3))
            assert apportion_integer(total, (weights * factor).tolist()) == base


# ----- criterion 6: metrics ----------------------------------------------------------


def test_criterion_6_metrics():
    """deviation_extrema reproduces the hand-computed (0, 0.10) pair and the
    max(1, .) guard exactly; a two-run toy report matches a spreadsheet
    computation to 1e-12; the report rows follow the aggregation blocks."""
    with criterion("6 metrics"):
        e_min, e_max = deviation_extrema([100.0, 110.0], [100.0, 100.0])
        assert e_min == 0.0 and abs(e_max - 0.10) < 1e-12
        assert deviation_extrema([3.0], [0.0]) == (3.0, 3.0)

        def cells(values):
            census = SyntheticCensus()
            for (year, sex, age), n in values.items():
                census.record_event("P", year, "AT-1", sex, age, n)
            return census

        run1 = cells({(2020, "m", 10): 100, (2020, "f", 30): 50,
                      (2021, "m", 10): 110, (2021, "f", 30): 55})
        run2 = cells({(2020, "m", 10): 90, (2020, "f", 30): 52,
                      (2021, "m", 10): 100, (2021, "f", 30): 57})
        reference = cells({(2020, "m", 10): 100, (2020, "f", 30): 50,
                           (2021, "m", 10): 100, (2021, "f", 30): 50})
        report = deviation_report([run1, run2], reference)

        def q(which, a, b):
            lo, hi = sorted((a, b))
            return lo + (hi - lo) * (0.05 if which == "lo" else 0.95)

        mean = [(95 + 51), (105 + 56)]                   # 2020, 2021 totals
        ratios = [(v - 150) / 150 for v in mean]
        # quantiles of the aggregated run totals (150, 142) and (165, 157)
        lo = [(q("lo", 150, 142) - 150) / 150, (q("lo", 165, 157) - 150) / 150]
        hi = [(q("hi", 150, 142) - 150) / 150, (q("hi", 165, 157) - 150) / 150]
        overall = report.rows[0]
        assert abs(overall.e_min - min(ratios)) < 1e-12
        assert abs(overall.e_max - max(ratios)) < 1e-12
        assert abs(overall.e_min_ci[0] - min(min(lo), min(hi))) < 1e-12
        assert abs(overall.e_min_ci[1] - max(min(lo), min(hi))) < 1e-12
        assert abs(overall.e_max_ci[0] - min(max(lo), max(hi))) < 1e-12
        assert abs(overall.e_max_ci[1] - max(max(lo), max(hi))) < 1e-12

        shape = [(r.region, r.sex, r.age_class) for r in report.rows]
        assert shape[0] == (None, None, None)
        assert (None, "f", None) in shape and (None, "m", None) in shape
        assert (None, None, "0-19") in shape
        assert ("AT-1", None, None) in shape
        assert ("AT-1", None, "20-39") in shape
        assert shape.index((None, "f", None)) < shape.index((None, None, "0-19")) \
            < shape.index(("AT-1", None, None)) < shape.index(("AT-1", None, "20-39"))


# ----- criterion 7: birthday semantics ------------------------------------------------


def test_criterion_7_birthday_semantics():
    """1000 never-removed agents over 50 years: exactly 50 Birthday events
    each, and the dynamic age equals the completed anniversaries at every
    single event."""
    with criterion("7 birthday semantics"):
        params = ModelParameters({})
        step = MacroStepConfig(date(2020, 1, 1), date(2070, 1, 1))
        world = World(step, params, seed=321)
        world.add_initial_population(
            [("AT-1", "m", age, 10) for age in range(20, 70)]
            + [("AT-1", "f", age, 10) for age in range(20, 70)])
        birthday_counts = {agent_id: 0 for agent_id in world.agents}

        def check(agent, event):
            if event.kind == EventKind.BIRTHDAY:
                birthday_counts[agent.id] += 1
                assert agent.age == completed_age(event.due, agent.birthdate)

        world.listeners.append(check)
        world.run()
        assert len(world.agents) == 1000
        assert set(birthday_counts.values()) == {50}
        for agent in world.agents.values():
            assert agent.age == completed_age(date(2070, 1, 1), agent.birthdate)


# ----- criterion 8: first-life-year scaling --------------------------------------------


def test_criterion_8_first_year_scaling():
    """100,000 age-30 immigrants entering over 2020 with p = 0.5, run through the
    World API: each one's death before its first Birthday comes at the
    partial-year rate, chi-square at alpha = 0.01, and the day offsets of those
    deaths within the residual window are uniform."""
    with criterion("8 first-life-year scaling"):
        table = ParameterTable("death", 60)
        table.set_constant(range(2019, 2023), ["AT-1"], ("all",), np.full(61, 0.5))
        immigration = ImmigrationTable()
        n = 100_000
        immigration.add(2020, "AT-1", "m", 30, n)
        params = ModelParameters({"death": table}, immigration=immigration)
        world = World(MacroStepConfig(date(2020, 1, 1), date(2022, 1, 1)), params,
                      FIRST_YEAR_SEED)
        entry, birthdate, first_birthday, death = {}, {}, {}, {}

        def listen(agent, event):
            if event.kind == EventKind.INIT:
                entry[agent.id], birthdate[agent.id] = event.due, agent.birthdate
            elif event.kind == EventKind.BIRTHDAY:
                first_birthday.setdefault(agent.id, event.due)
            elif event.kind == EventKind.DEATH and agent.id not in first_birthday:
                death[agent.id] = event.due

        world.listeners.append(listen)
        world.macro_step(date(2022, 1, 1))
        assert len(entry) == n and first_birthday.keys().isdisjoint(death)
        assert len(first_birthday) + len(death) == n
        ahead = np.array([days_until_birthday(entry[i], birthdate[i]) for i in range(n)])
        since = np.array([days_since_birthday(entry[i], birthdate[i]) for i in range(n)])
        for i, due in first_birthday.items():
            assert (due - entry[i]).days == ahead[i]

        predicted = 0.5 * ahead / (ahead + since)
        observed = np.isin(np.arange(n), list(death))
        bins = np.clip((predicted / 0.5 * 10).astype(int), 0, 9)
        chi2 = 0.0
        for b in range(10):
            mask = bins == b
            expected = predicted[mask].sum()
            variance = (predicted[mask] * (1 - predicted[mask])).sum()
            chi2 += (observed[mask].sum() - expected) ** 2 / variance
        assert chi2 < chi2_dist.ppf(0.99, df=10), chi2

        # whole-day offsets live on a lattice of 1/ahead; dithering with an
        # independent uniform makes the null exactly uniform
        died = np.array(list(death))
        days = np.array([(death[i] - entry[i]).days for i in died.tolist()])
        offsets = (days + substream(FIRST_YEAR_SEED, 9).random(len(died))) / ahead[died]
        counts, _ = np.histogram(offsets, bins=20, range=(0.0, 1.0))
        expected = len(offsets) / 20
        gof = float(((counts - expected) ** 2 / expected).sum())
        assert gof < chi2_dist.ppf(0.99, df=19), gof
