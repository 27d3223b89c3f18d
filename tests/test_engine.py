"""Simulation-layer semantics: macro steps, exchange, immigration, determinism."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim import engine, rng
from popsim.agents import EventKind
from popsim.dates import anniversary_in_year
from popsim.engine import MacroStepConfig, ModelParameters, World, run_simulation
from popsim.errors import CoverageError, InputError
from popsim.ipf import MigrationTensor
from popsim.params import ImmigrationTable, ParameterTable
from popsim.rng import agent_stream
from popsim.scenario import (ScenarioSpec, build_initial_population,
                             build_parameter_tables, cohort_projection)

from conftest import constant_parameters

START, END = date(2020, 1, 1), date(2030, 1, 1)


def year_step(start=START, end=END):
    return MacroStepConfig(start, end, "year", 1)


def national_residuals(census, years):
    out = []
    for y in years:
        lhs = census.total("P", y + 1)
        rhs = (census.total("P", y) + census.total("B", y) - census.total("D", y)
               - census.total("E", y) + census.total("I", y))
        out.append(lhs - rhs)
    return out


def regional_residuals(census, years, regions):
    out = []
    for y in years:
        for r in regions:
            lhs = census.total("P", y + 1, region=r)
            rhs = (census.total("P", y, region=r) + census.total("B", y, region=r)
                   - census.total("D", y, region=r) - census.total("E", y, region=r)
                   + census.total("I", y, region=r)
                   + census.total("IM_IN", y, region=r)
                   - census.total("IM_OUT", y, region=r))
            out.append(lhs - rhs)
    return out


def test_empty_world_all_zero_census():
    params = constant_parameters(death=0.01)
    census = run_simulation(year_step(), params, [], seed=1)
    for metric in ("P", "B", "D", "E", "I"):
        assert dict(census.items(metric)) == {}


def test_single_agent_no_dynamics():
    params = constant_parameters(death=0.0)
    census = run_simulation(year_step(), params, [("AT-1", "m", 40, 1)], seed=1)
    for y in range(2020, 2031):
        assert census.total("P", y) == 1
    for metric in ("B", "D", "E", "I", "IM_IN", "IM_OUT"):
        assert census.total(metric, 2025) == 0


def test_ages_advance_in_snapshots():
    params = constant_parameters(death=0.0)
    census = run_simulation(year_step(), params, [("AT-1", "f", 30, 5)], seed=3)
    assert census.total("P", 2020) == 5
    for y in range(2021, 2031):
        ages = {a for (yy, _, _, a), _ in census.items("P") if yy == y}
        assert ages <= {y - 2020 + 29, y - 2020 + 30}


def test_birthday_on_snapshot_date_counted_at_new_age():
    # born Jan 1: age 39 through Dec 31, the Jan-1 birthday precedes the snapshot
    params = constant_parameters(death=0.0)
    world = World(year_step(START, date(2021, 1, 1)), params, seed=1)
    _add_agents(world, (date(1981, 1, 1), "m", "AT-1"))
    census = world.run()
    assert census.get("P", 2021, "AT-1", "m", 40) == 1
    assert census.get("P", 2021, "AT-1", "m", 39) == 0


def _add_agents(world, *agents, t=START):
    """Create agents of the given (birthdate, sex, region) at ``t``, with the
    next ids, as the initial population is created."""
    birthdates, sexes, regions = zip(*agents)
    world._prepare(world.date)
    world._create(np.array([b.toordinal() for b in birthdates]),
                  np.array([engine.SEXES.index(s) for s in sexes]), world._codes(regions),
                  np.full(len(agents), t.toordinal()), engine._Outbox())


def test_conservation_national_exact():
    spec_params = constant_parameters(
        death=0.01, emigration=0.005, birth=0.0,
        age_profiles={"birth": _fertility_profile(0.1)})
    spec_params.tables["birth"] = _birth_table()
    initial = [("AT-1", s, a, 20) for s in "mf" for a in range(0, 80, 5)]
    census = run_simulation(year_step(), spec_params, initial, seed=11)
    assert national_residuals(census, range(2020, 2030)) == [0] * 10


def _fertility_profile(level):
    values = np.zeros(101)
    values[15:50] = level
    return values


def _birth_table(level=0.1, years=(2019, 2032), regions=("AT-1",)):
    table = ParameterTable("birth", 100)
    table.set_constant(range(*years), regions, ("f",), _fertility_profile(level))
    return table


def test_conservation_regional_with_internal_migration():
    regions = ("AT-1", "AT-2", "AT-3")
    params = constant_parameters(regions=regions, death=0.01, emigration=0.004,
                                 internal_migration=0.05)
    params.tables["birth"] = _birth_table(regions=regions)
    immigration = ImmigrationTable()
    for y in range(2020, 2030):
        immigration.add(y, "AT-2", "f", 25, 3)
        immigration.add(y, "AT-3", "m", 40, 2)
    params.immigration = immigration
    initial = [(r, s, a, 10) for r in regions for s in "mf" for a in range(10, 70, 3)]
    census = run_simulation(year_step(), params, initial, seed=23)
    assert national_residuals(census, range(2020, 2030)) == [0] * 10
    assert regional_residuals(census, range(2020, 2030), regions) == [0] * 30


def test_conservation_under_monthly_steps():
    params = constant_parameters(death=0.02, emigration=0.01)
    params.tables["birth"] = _birth_table(0.15)
    initial = [("AT-1", s, a, 15) for s in "mf" for a in range(0, 60, 2)]
    step = MacroStepConfig(START, date(2024, 1, 1), "month", 1)
    census = run_simulation(step, params, initial, seed=5)
    assert national_residuals(census, range(2020, 2024)) == [0] * 4


def test_conservation_when_snapshots_fall_mid_step():
    # 10-day steps drift off the calendar year, so Jan-1 snapshots land inside
    # macro steps and must still see every newborn and immigrant dated before them
    params = constant_parameters(death=0.02, emigration=0.01)
    params.tables["birth"] = _birth_table(0.15)
    immigration = ImmigrationTable()
    for y in range(2020, 2023):
        immigration.add(y, "AT-1", "f", 25, 8)
    params.immigration = immigration
    initial = [("AT-1", s, a, 12) for s in "mf" for a in range(0, 60, 2)]
    step = MacroStepConfig(START, date(2023, 1, 1), "day", 10)
    census = run_simulation(step, params, initial, seed=29)
    assert national_residuals(census, range(2020, 2023)) == [0] * 3
    assert census.total("I", 2021) == 8


def test_newborn_init_dated_at_birthdate():
    params = constant_parameters(death=0.0)
    params.tables["birth"] = _birth_table(1.0)
    world = World(year_step(START, date(2021, 1, 1)), params, seed=9)
    world.add_initial_population([("AT-1", "f", 30, 4)])
    world.run()
    newborns = [a for a in world.agents.values() if a.age <= 1 and a.id >= 4]
    assert newborns
    for baby in newborns:
        assert date(2020, 1, 1) <= baby.birthdate < date(2021, 1, 1)
        birthday = [ev for ev in baby.events if ev.kind == EventKind.BIRTHDAY]
        assert birthday and birthday[0].due.year - baby.birthdate.year == 1


def test_newborn_ids_assigned_in_mother_id_order():
    params = constant_parameters(death=0.0)
    params.tables["birth"] = _birth_table(1.0)
    world = World(year_step(START, date(2021, 1, 1)), params, seed=13)
    # eight mothers, ids 0..7, fertile with p = 1
    world.add_initial_population([("AT-1", "f", 30, 8)])
    births = []
    world.listeners.append(
        lambda agent, ev: births.append((agent.id, ev.due))
        if ev.kind == EventKind.BIRTH else None)
    world.run()
    assert births
    # birth messages are collected by (mother id, per-mother sequence); the
    # listener observes them in exactly that order, and newborn ids follow it
    assert births == sorted(births)
    newborn_ids = sorted(a_id for a_id in world.agents if a_id >= 8)
    assert newborn_ids == list(range(8, 8 + len(births)))
    for (mother_id, due), baby_id in zip(births, newborn_ids):
        assert world.agents[baby_id].birthdate == due


def test_certain_death_removes_everyone():
    # every agent dies within its current life-year; with a one-year horizon
    # some deaths fall past the boundary, so two years capture them all
    params = constant_parameters(death=1.0)
    census = run_simulation(year_step(START, date(2022, 1, 1)), params,
                            [("AT-1", "m", 40, 120), ("AT-1", "f", 70, 80)], seed=2)
    total_deaths = sum(census.total("D", y) for y in (2020, 2021))
    assert total_deaths == 200
    assert census.total("P", 2022) == 0


def test_certain_event_fires_exactly_once_per_life_year():
    params = constant_parameters(regions=("AT-1", "AT-2"), internal_migration=1.0)
    world = World(year_step(START, date(2025, 1, 1)), params, seed=19)
    world.add_initial_population([("AT-1", "m", 30, 25), ("AT-2", "f", 50, 25)])
    per_life_year = {a: [0] for a in world.agents}

    def watch(agent, ev):
        if ev.kind == EventKind.BIRTHDAY:
            per_life_year[agent.id].append(0)
        elif ev.kind == EventKind.INTERNAL_MIGRATION:
            per_life_year[agent.id][-1] += 1

    world.listeners.append(watch)
    world.run()
    for agent_id, counts in per_life_year.items():
        # every completed life-year observed exactly one migration event; the
        # first entry covers the partial pre-first-birthday segment
        assert all(c == 1 for c in counts[1:-1]), (agent_id, counts)
        assert counts[0] in (0, 1) and counts[-1] in (0, 1)


def test_immigration_counts_exact():
    params = constant_parameters(regions=("AT-9",), death=0.0)
    immigration = ImmigrationTable()
    immigration.add(2024, "AT-9", "f", 30, 2)
    immigration.add(2022, "AT-9", "m", 61, 5)
    params.immigration = immigration
    world = World(year_step(), params, seed=31)
    world.add_initial_population([("AT-9", "m", 50, 3)])
    census = world.run()
    assert census.get("I", 2024, "AT-9", "f", 30) == 2
    assert census.get("I", 2022, "AT-9", "m", 61) == 5
    assert census.total("I", 2023) == 0
    assert world.counters["immigrants"] == 7
    # exactly 2 female agents entered at age 30 in 2024: alive and aged since
    females = [a for a in world.agents.values() if a.sex == "f"]
    assert len(females) == 2
    for a in females:
        assert a.region == "AT-9"


def test_immigration_all_zero_table():
    params = constant_parameters(death=0.0)
    params.immigration = ImmigrationTable()
    census = run_simulation(year_step(), params, [("AT-1", "m", 20, 1)], seed=1)
    assert census.total("I", 2024) == 0


def test_immigrant_entry_dates_spread_within_year():
    params = constant_parameters(death=0.0)
    immigration = ImmigrationTable()
    immigration.add(2020, "AT-1", "f", 30, 400)
    params.immigration = immigration
    world = World(year_step(START, date(2021, 1, 1)), params, seed=17)
    world.run()
    entries = [date.fromordinal(e) for e in world._immigrant_queue.entry.tolist()]
    months = {d.month for d in entries}
    assert len(months) >= 10  # uniform over the year, not clumped


def test_dropped_message_for_removed_agent():
    params = constant_parameters(death=0.0)
    world = World(year_step(START, date(2022, 1, 1)), params, seed=41)
    _add_agents(world, (date(1990, 5, 5), "m", "AT-1"), (date(1991, 6, 6), "f", "AT-1"))
    # agent 1 dies mid-step; agent 0 addresses it in the same step
    world._due[engine._COLUMN[EventKind.DEATH], 1] = date(2020, 3, 1).toordinal()
    world.send_event(0, 1, date(2020, 7, 1), payload="ping")
    world.macro_step(date(2021, 1, 1))
    assert world.dropped_messages == 1
    assert 1 not in world.agents


def test_cross_agent_event_delivered_next_step():
    params = constant_parameters(death=0.0)
    world = World(year_step(START, date(2023, 1, 1)), params, seed=43)
    _add_agents(world, (date(1990, 5, 5), "m", "AT-1"), (date(1991, 6, 6), "f", "AT-1"))
    world.send_event(0, 1, date(2020, 7, 1), payload="ping")
    seen = []
    world.listeners.append(lambda a, ev: seen.append((a.id, ev))
                           if ev.kind == EventKind.CUSTOM else None)
    world.macro_step(date(2021, 1, 1))
    # visible in the target queue no later than the start of the next step
    assert any(ev.kind == EventKind.CUSTOM for ev in world.agents[1].events)
    assert not seen
    world.macro_step(date(2022, 1, 1))
    assert seen and seen[0][0] == 1 and seen[0][1].data == "ping"


def test_life_year_rates_match_lookup():
    regions = ("AT-1", "AT-2")
    params = constant_parameters(regions=regions, max_age=30, death=0.01,
                                 emigration=0.02, internal_migration=0.03)
    params.tables["birth"] = _birth_table(regions=regions)
    params.tables["death"].set_row(2024, "AT-2", "all", np.linspace(0, 0.3, 31))
    for region in ("AT-2", "AT-1-05"):
        for sex in "mf":
            rates = params.life_year_rates(2024, region, sex)
            kinds = [EventKind.DEATH, EventKind.EMIGRATION, EventKind.BIRTH,
                     EventKind.INTERNAL_MIGRATION]
            if sex == "m":
                kinds.remove(EventKind.BIRTH)
            assert [kind for kind, _ in rates] == kinds
            for kind, row in rates:
                table = params.tables[kind.name.lower()]
                for age in range(110):
                    assert row[min(age, len(row) - 1)] == table.lookup(2024, region, sex, age)
    with pytest.raises(CoverageError):
        params.life_year_rates(2040, "AT-1", "f")


def test_replaced_or_edited_table_takes_effect_after_first_draw():
    # month steps through 2020: every woman's 2020 birthday reads the 2020 birth row
    params = constant_parameters(death=0.0)
    params.tables["birth"] = _birth_table(0.0)
    world = World(MacroStepConfig(START, date(2021, 1, 1), "month", 3), params, seed=9)
    world.add_initial_population([("AT-1", "f", 30, 200)])

    def births_drawn():
        return world.counters["births"] + sum(ev.kind == EventKind.BIRTH
                                              for a in world.agents.values()
                                              for ev in a.events)

    def birthdays_in(lo, hi):  # of the initial women; Birthdays fire on the bound itself
        return sum(lo < anniversary_in_year(a.birthdate, 2020) <= hi
                   for a in world.agents.values() if a.id < 200)

    world.macro_step(date(2020, 4, 1))  # caches the zero 2020 row
    assert births_drawn() == 0
    params.tables["birth"] = _birth_table(1.0)
    world.macro_step(date(2020, 7, 1))
    drawn = births_drawn()
    assert drawn == birthdays_in(date(2020, 4, 1), date(2020, 7, 1)) > 0
    params.tables["birth"].set_row(2020, "AT-1", "f", np.zeros(101))
    world.macro_step(date(2020, 10, 1))
    assert births_drawn() == drawn
    assert birthdays_in(date(2020, 7, 1), date(2020, 10, 1)) > 0


def test_month_steps_identical_across_workers_and_listener(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "PARALLEL_MIN_DUE", 2)  # thread even the small sweeps
    # two regions, so a newborn's region-and-sex cell depends on the outbox order
    regions = ("AT-1", "AT-2")
    params = constant_parameters(regions=regions, death=0.02, emigration=0.05,
                                 internal_migration=0.05)
    params.tables["birth"] = _birth_table(0.2, regions=regions)
    immigration = ImmigrationTable()
    for y in range(2020, 2023):
        immigration.add(y, "AT-1", "f", 28, 60)
        immigration.add(y, "AT-2", "m", 3, 40)
    params.immigration = immigration
    initial = [(r, s, a, 6) for r in regions for s in "mf" for a in range(0, 70, 3)]
    step = MacroStepConfig(START, date(2023, 1, 1), "month", 1)
    outputs = []
    for workers, listen in ((1, False), (2, False), (1, True), (2, True)):
        world = World(step, params, seed=31, workers=workers)
        if listen:
            world.listeners.append(lambda agent, event: None)
        world.add_initial_population(initial)
        path = tmp_path / f"census_{workers}_{listen}.csv"
        world.run().to_csv(path)
        outputs.append(path.read_bytes())
    assert world.counters["births"] and world.counters["immigrants"]
    assert outputs[1:] == outputs[:1] * 3


def seed_sequence_block_state(master_seed, block):
    """The reference for ``rng._block_state``: numpy's own seeding of each id."""
    first = block * rng._BLOCK
    return np.array([np.random.SeedSequence((master_seed, 0, agent_id)).generate_state(
        4, np.uint64) for agent_id in range(first, first + rng._BLOCK)])


@pytest.mark.parametrize("seed", [31, 2**32 + 3])
def test_census_same_with_seed_sequence_streams(tmp_path, monkeypatch, seed):
    # more than one block of agent ids, with births and migration between two regions;
    # the reference seeds every lane with numpy's SeedSequence
    regions = ("AT-1", "AT-2")
    params = constant_parameters(regions=regions, death=0.02, emigration=0.02,
                                 internal_migration=0.05)
    params.tables["birth"] = _birth_table(0.2, regions=regions)
    initial = [(r, s, a, 12) for r in regions for s in "mf" for a in range(0, 70, 2)]
    step = MacroStepConfig(START, date(2023, 1, 1), "year", 1)
    outputs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(rng, "_block_state", seed_sequence_block_state)
        world = World(step, params, seed=seed)
        world.add_initial_population(initial)
        path = tmp_path / f"census_{reference}.csv"
        world.run().to_csv(path)
        outputs.append(path.read_bytes())
    assert world.counters["births"] and world.counters["initial"] > 1024
    assert outputs[0] == outputs[1]


def test_macro_step_requires_forward_target():
    params = constant_parameters(death=0.0)
    world = World(year_step(), params, seed=1)
    with pytest.raises(InputError):
        world.macro_step(date(2020, 1, 1))


def test_coverage_gap_detected_upfront():
    table = ParameterTable("death", 100)
    table.set_constant(range(2019, 2025), ["AT-1"], ("all",), np.zeros(101))
    params = ModelParameters({"death": table})
    with pytest.raises(CoverageError):
        run_simulation(year_step(), params, [("AT-1", "m", 30, 1)], seed=1)


@pytest.mark.parametrize("p_move", [0.0, 1.0])
def test_region_without_tensor_row_is_a_coverage_gap(p_move):
    # the upfront check finds the gap before any initial agent draws a move
    tables = constant_parameters(regions=("AT-1", "AT-2", "AT-3"),
                                 internal_migration=p_move).tables
    params = ModelParameters(tables, migration_tensor=MigrationTensor(("AT-1", "AT-2"),
                                                                      range(101)))
    with pytest.raises(CoverageError, match="parameter coverage gaps: "
                                            "migration tensor: no row for region=AT-3$"):
        run_simulation(year_step(), params, [("AT-3", "m", 30, 1)], seed=1)


def test_coverage_gaps_are_listed_before_the_first_draw():
    # every initial agent draws a move in its first life-year, which would meet the
    # missing tensor row before the upfront check ran
    regions = ("AT-1", "AT-2", "AT-3")
    death = ParameterTable("death", 100)
    death.set_constant(range(2019, 2025), regions, ("all",), np.zeros(101))
    params = ModelParameters(
        {**constant_parameters(regions=regions, internal_migration=1.0).tables, "death": death},
        migration_tensor=MigrationTensor(("AT-1", "AT-2"), range(101)))
    gaps = [f"death: year=2025 region={r} sex={s}" for r in regions for s in ("m", "f")]
    expected = "parameter coverage gaps: " + "; ".join(
        gaps + ["migration tensor: no row for region=AT-3"])
    step = year_step(START, date(2025, 1, 1))
    with pytest.raises(CoverageError) as raised:
        run_simulation(step, params, [("AT-3", "m", 30, 100)], seed=1)
    assert str(raised.value) == expected
    world = World(step, params, seed=1)
    with pytest.raises(CoverageError):
        world.add_initial_population([("AT-3", "m", 30, 100)])
    assert not world.agents


def test_agent_count_identity_at_boundaries():
    params = constant_parameters(death=0.02, emigration=0.01)
    params.tables["birth"] = _birth_table(0.2)
    world = World(year_step(), params, seed=3)
    world.add_initial_population([("AT-1", s, a, 25) for s in "mf"
                                  for a in range(10, 60, 2)])
    world.run()
    c = world.counters
    assert len(world.agents) == (c["initial"] + c["births"] + c["immigrants"]
                                 - c["deaths"] - c["emigrations"])


def test_deterministic_across_worker_counts(tmp_path):
    spec = ScenarioSpec(regions=["AT-1", "AT-2"], start_year=2020, years=3,
                        initial_total=4000, initial_age_low=10, initial_age_high=60,
                        p_death=0.01, p_emigration=0.005,
                        p_birth=[(15, 0.1), (50, 0.0)], p_internal_migration=0.02)
    tables = build_parameter_tables(spec)
    from popsim.scenario import build_migration_tensor
    initial = build_initial_population(spec)
    step = MacroStepConfig(START, date(2023, 1, 1))
    outputs = []
    for workers in (1, 2, 8):
        params = ModelParameters(tables, migration_tensor=build_migration_tensor(spec))
        census = run_simulation(step, params, initial, seed=77, workers=workers)
        path = tmp_path / f"census_w{workers}.csv"
        census.to_csv(path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_rerun_is_bit_identical(tmp_path):
    params = constant_parameters(death=0.02, emigration=0.01)
    initial = [("AT-1", s, a, 30) for s in "mf" for a in range(20, 60, 4)]
    paths = []
    for run_idx in (0, 1):
        census = run_simulation(year_step(START, date(2024, 1, 1)), params,
                                initial, seed=55)
        path = tmp_path / f"r{run_idx}.csv"
        census.to_csv(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_same_seed_same_id_same_stream():
    a = agent_stream(123, 7)
    b = agent_stream(123, 7)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    c = agent_stream(123, 8)
    assert a.random() != c.random()


def test_substream_first_draw_uniformity():
    draws = np.array([agent_stream(2024, i).random() for i in range(10000)])
    counts, _ = np.histogram(draws, bins=20, range=(0, 1))
    expected = len(draws) / 20
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.99, df=19)


def test_step_units_align_to_calendar():
    cfg = MacroStepConfig(date(2020, 1, 31), date(2021, 1, 1), "month", 1)
    assert cfg.next_boundary(date(2020, 1, 31)) == date(2020, 2, 29)
    cfg = MacroStepConfig(START, END, "year", 2)
    assert cfg.next_boundary(date(2028, 1, 1)) == END  # clamped to the horizon
    with pytest.raises(InputError):
        MacroStepConfig(START, START)
    with pytest.raises(InputError):
        MacroStepConfig(START, END, "week", 1)


# ----- the destination rule the engine and the oracle share ------------------------

def scanned_destination(weights, u):
    """Index of the first destination whose cumulative share exceeds ``u`` (the
    last one if none does), None for a row without weight: the rule written out."""
    total = float(weights.sum())
    if total <= 0:
        return None
    for i, c in enumerate((weights / total).cumsum()):
        if u < c:
            return i
    return len(weights) - 1


@st.composite
def migration_tensors(draw):
    """Non-integer weights spanning orders of magnitude over 8 to 12 regions and
    ages that need not start at 0, with empty cells and empty (origin, age) rows."""
    n = draw(st.integers(8, 12))
    first, span = draw(st.integers(0, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.sampled_from([0.0, 0.3, 0.9]))
    values = rng.random((n, n, span)) * 10.0 ** rng.integers(-3, 7, size=(n, n, span))
    values[rng.random((n, n, span)) < empty] = 0.0
    values.transpose(0, 2, 1)[rng.random((n, span)) < empty / 2] = 0.0
    return MigrationTensor([f"AT-{i}" for i in range(1, n + 1)],
                           range(first, first + span), values)


@given(tensor=migration_tensors(), u=st.floats(0, 1, exclude_max=True),
       age_shift=st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_sample_destination_is_the_first_cumulative_share_above_u(tensor, u, age_shift):
    params = ModelParameters(migration_tensor=tensor)
    first, last = tensor.ages[0], tensor.ages[-1]
    for age in {0, first, last, first + age_shift, last + 7, 150}:
        row = tensor.values[:, :, min(max(age, first), last) - first]
        for o, origin in enumerate(tensor.regions):
            weights = row[o]
            cum = (weights / float(weights.sum() or 1.0)).cumsum()
            # ties with a cumulative value, the last one and just above it
            for x in (u, *cum[::3], cum[-1], np.nextafter(cum[-1], 2.0)):
                got = params.sample_destination(origin, age, x)
                want = scanned_destination(weights, x)
                assert got == (None if want is None else tensor.regions[want]), (origin, age, x)


@given(tensor=migration_tensors(), age_shift=st.integers(-50, 50))
@settings(max_examples=30, deadline=None)
def test_oracle_moves_mass_by_the_destination_shares(tensor, age_shift):
    # no deaths or emigration: a start-year cohort of 1000 moves 1000 * q / 2
    # people, split exactly by the shares of its (origin, clamped age) row
    q, count, age = 0.4, 1000, max(0, tensor.ages[0] + age_shift)
    table = ParameterTable("internal_migration", 100)
    table.set_constant(range(2019, 2022), tensor.regions, ("all",), np.full(101, q))
    params = ModelParameters({"internal_migration": table}, migration_tensor=tensor)
    initial = [(region, "f", age, count) for region in tensor.regions]
    oracle = cohort_projection(params, initial, 2020, 1)
    row = tensor.values[:, :, tensor.age_position(age)]
    for o, origin in enumerate(tensor.regions):
        weights = row[o]
        total = float(weights.sum())
        shares = weights / total if total > 0 else np.zeros_like(weights)
        assert np.array_equal(tensor.shares()[o, tensor.age_position(age)], shares)
        moving = count * q * 0.5 if total > 0 else 0.0
        assert oracle.get("IM_OUT", 2020, origin, "f", age) == moving
    for d, dest in enumerate(tensor.regions):
        arrived = sum(count * q * 0.5 * float(row[o, d]) / float(row[o].sum())
                      for o in range(len(tensor.regions)) if row[o].sum() > 0)
        assert oracle.get("IM_IN", 2020, dest, "f", age) == pytest.approx(arrived, rel=1e-12)


@pytest.mark.parametrize("cell, message", [
    (("AT-1", "x", 30, 5), "sex must be 'm' or 'f', got 'x'"),
    (("AT-1", "f", 30, -1), r"negative population count for \(AT-1,f,30\)")])
def test_engine_and_oracle_reject_a_bad_initial_cell_alike(cell, message):
    params = constant_parameters(death=0.01)
    for run in (lambda: run_simulation(year_step(), params, [cell], seed=1),
                lambda: cohort_projection(params, [cell], 2020, 2)):
        with pytest.raises(InputError, match=f"^{message}$"):
            run()
