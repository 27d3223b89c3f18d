"""Simulation-layer semantics: macro steps, exchange, immigration, determinism."""

import collections
import contextlib
import itertools
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from popsim import engine, rng
from popsim.agents import EventKind, OutboxMessage
from popsim.census import METRICS, SyntheticCensus
from popsim.dates import anniversary_in_year, ymd
from popsim.engine import MacroStepConfig, ModelParameters, World, run_simulation
from popsim.errors import CoverageError, InputError
from popsim.ipf import MigrationTensor
from popsim.params import ImmigrationTable, ParameterTable
from popsim.rng import agent_stream
from popsim.scenario import (ScenarioSpec, build_initial_population,
                             build_parameter_tables, cohort_projection)

from conftest import book_by_label, constant_parameters
from reference_agent import life_year_rates

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


def test_death_cancels_a_pending_custom_event():
    params = constant_parameters(death=0.0)
    world = World(year_step(START, date(2023, 1, 1)), params, seed=41)
    _add_agents(world, (date(1990, 5, 5), "m", "AT-1"), (date(1991, 6, 6), "f", "AT-1"))
    world.send_event(0, 1, date(2021, 7, 1), payload="ping")
    seen = []
    world.listeners.append(lambda a, ev: seen.append(ev) if ev.kind == EventKind.CUSTOM else None)
    world.macro_step(date(2021, 1, 1))
    assert 1 in world._customs  # delivered, and due after the death forced below
    world._due[engine._COLUMN[EventKind.DEATH], 1] = date(2021, 3, 1).toordinal()
    world.macro_step(date(2022, 1, 1))
    world.macro_step(date(2023, 1, 1))
    assert 1 not in world.agents and 1 not in world._customs
    assert not seen and world.dropped_messages == 0


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


def test_cross_agent_events_keep_their_send_order():
    params = constant_parameters(death=0.0)
    world = World(year_step(START, date(2023, 1, 1)), params, seed=43)
    _add_agents(world, (date(1990, 5, 5), "m", "AT-1"), (date(1991, 6, 6), "f", "AT-1"))
    payloads = ["first", "second", "third"]
    for payload in payloads:
        world.send_event(0, 1, date(2020, 7, 1), payload=payload)
    assert world._custom_msgs == [OutboxMessage(date(2020, 7, 1), 1, p) for p in payloads]
    seen = []
    world.listeners.append(lambda a, ev: seen.append(ev.data)
                           if ev.kind == EventKind.CUSTOM else None)
    world.macro_step(date(2021, 1, 1))
    world.macro_step(date(2022, 1, 1))
    assert seen == payloads


def test_life_year_rates_match_lookup():
    regions = ("AT-1", "AT-2")
    params = constant_parameters(regions=regions, max_age=30, death=0.01,
                                 emigration=0.02, internal_migration=0.03)
    params.tables["birth"] = _birth_table(regions=regions)
    params.tables["death"].set_row(2024, "AT-2", "all", np.linspace(0, 0.3, 31))
    for region in ("AT-2", "AT-1-05"):
        for sex in "mf":
            rates = life_year_rates(params, 2024, region, sex)
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
        life_year_rates(params, 2040, "AT-1", "f")


def test_rate_array_resolves_rows_like_lookup():
    # ages past the rows, Birth for women only, a kind without a table, a finer
    # region code and tables with an all-sex row
    regions = ("AT-2", "AT-1-05")
    params = constant_parameters(regions=("AT-1", "AT-2"), max_age=30, death=0.01,
                                 emigration=0.02)
    params.tables["birth"] = _birth_table(regions=("AT-1", "AT-2"))
    params.tables["death"].set_row(2024, "AT-2", "all", np.linspace(0, 0.3, 31))
    rates = params.rate_array([2023, 2024], regions, 110)
    assert rates.shape == (len(engine.DRAWN), 2, 2, 2, 110)
    for k, kind in enumerate(engine.DRAWN):
        table = params.tables.get(kind.name.lower())
        for (y, year), (r, region), (s, sex) in itertools.product(
                enumerate((2023, 2024)), enumerate(regions), enumerate(engine.SEXES)):
            expected = [table.lookup(year, region, sex, age) if table is not None and
                        (kind is not EventKind.BIRTH or sex == "f") else 0.0
                        for age in range(110)]
            assert rates[k, y, r, s].tolist() == expected
    assert rates[engine.DRAWN.index(EventKind.DEATH), 1, 0, :, 109].tolist() == [0.3, 0.3]
    assert not rates[engine.DRAWN.index(EventKind.BIRTH), :, :, 1].any()
    assert not rates[engine.DRAWN.index(EventKind.INTERNAL_MIGRATION)].any()


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


def _busy_world(step, seed=5):
    """One region with births, deaths, emigration and immigrants every year of
    2020-2022, 200 women of 30 and 100 men of 40."""
    params = constant_parameters(death=0.01, emigration=0.02)
    params.tables["birth"] = _birth_table(0.3)
    params.immigration = ImmigrationTable()
    for year in (2020, 2021, 2022):
        params.immigration.add(year, "AT-1", "f", 25, 60)
    world = World(step, params, seed=seed)
    world.add_initial_population([("AT-1", "f", 30, 200), ("AT-1", "m", 40, 100)])
    return world


def test_rate_array_built_at_most_twice_per_calendar_year(monkeypatch):
    built = collections.Counter()  # per last year of the life-years it covers
    rate_array = ModelParameters.rate_array

    def counted(params, years, regions, n_ages):
        built[years[-1]] += 1
        return rate_array(params, years, regions, n_ages)

    monkeypatch.setattr(ModelParameters, "rate_array", counted)
    world = _busy_world(MacroStepConfig(START, date(2022, 1, 1), "month", 1))
    census = world.run()
    assert census.total("B", 2021) and census.total("I", 2021)
    # 24 macro steps and 3 snapshots; the years change twice at each Jan 1: with
    # the step that reaches it and with the snapshot taken on it
    assert set(built) == {2020, 2021, 2022} and max(built.values()) <= 2


def test_a_rounds_newborns_come_before_its_immigrants():
    world = _busy_world(year_step(START, date(2023, 1, 1)))
    rounds = []
    exchange = world._exchange

    def marked(births, to):
        rounds.append([])
        return exchange(births, to)

    world._exchange = marked
    world.listeners.append(lambda agent, ev: rounds[-1].append(
        (agent.id, ev.due == agent.birthdate)) if ev.kind == EventKind.INIT else None)
    world.run()
    created = [inits for inits in rounds if inits]
    assert sum(len(inits) for inits in created) == (world.counters["births"]
                                                    + world.counters["immigrants"])
    assert sum(any(born for _, born in inits) and not all(born for _, born in inits)
               for inits in created) == 3  # one round a year creates both
    for inits in created:
        ids = [agent_id for agent_id, _ in inits]
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        assert sorted(inits, key=lambda init: not init[1]) == inits


def test_events_are_booked_once_their_year_ends():
    world = _busy_world(MacroStepConfig(START, date(2022, 1, 1), "month", 3))
    world.macro_step(date(2020, 7, 1))
    assert world.counters["deaths"] and not world.census.total("D", 2020)
    world.macro_step(date(2021, 1, 1))
    deaths_2020 = world.census.total("D", 2020)
    assert deaths_2020 == world.counters["deaths"]
    world.macro_step(date(2021, 4, 1))
    world.macro_step(date(2022, 1, 1))  # the end of the horizon
    assert world.census.total("D", 2021) == world.counters["deaths"] - deaths_2020


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


class _GivenWords(ISeedSequence):
    """A seed sequence that hands a bit generator the given state words."""

    def __init__(self, words):
        self.words = np.ascontiguousarray(words, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def numpy_pcg64_seeding(seeds):
    """The reference for ``rng._pcg64_seeded``: numpy's own PCG64 seeded with each
    lane's four words, as (state high, state low, inc high, inc low) rows."""
    states = [np.random.PCG64(_GivenWords(words)).state["state"] for words in seeds.T]
    return np.array([[state[key] >> shift & (2**64 - 1) for key in ("state", "inc")
                      for shift in (64, 0)] for state in states], np.uint64).T


@pytest.mark.parametrize("seed", [31, 2**32 + 3])
def test_census_same_with_seed_sequence_streams(tmp_path, monkeypatch, seed):
    # more than one block of agent ids, with births and migration between two regions;
    # the reference seeds every lane with numpy's SeedSequence and PCG64 and draws the
    # world stream from numpy's generator
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
            monkeypatch.setattr(rng, "_pcg64_seeded", numpy_pcg64_seeding)
            monkeypatch.setattr(engine, "WorldStream", rng.world_stream)
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


def test_coverage_gaps_are_listed_once():
    # a malformed region code fails every (year, sex) key it is in alike
    params = constant_parameters(death=0.01)
    with pytest.raises(CoverageError, match="^parameter coverage gaps: "
                                            "malformed region code 'AT-1-'$"):
        params.validate_coverage(range(2019, 2031), ["AT-1", "AT-1-"])


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
        origins, draws, want = [], [], []
        for o, weights in enumerate(row):
            cum = (weights / float(weights.sum() or 1.0)).cumsum()
            # ties with a cumulative value, the last one and just above it
            for x in (u, *cum[::3], cum[-1], np.nextafter(cum[-1], 2.0)):
                origins.append(o)
                draws.append(x)
                found = scanned_destination(weights, x)
                want.append(-1 if found is None else found)
        got = params.destinations(np.array(origins), np.full(len(origins), age), np.array(draws))
        assert got.tolist() == want, age


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
    (("AT-1", "f", 30, -1), r"negative population count for \(AT-1,f,30\)"),
    (("AT-1", "f", -1, 5), r"negative age for \(AT-1,f,-1\)")])
def test_engine_and_oracle_reject_a_bad_initial_cell_alike(cell, message):
    params = constant_parameters(death=0.01)
    for run in (lambda: run_simulation(year_step(), params, [cell], seed=1),
                lambda: cohort_projection(params, [cell], 2020, 2)):
        with pytest.raises(InputError, match=f"^{message}$"):
            run()


# ----- census booking by position, the calendar columns, stacked rate rows ----------

def _record_codes_by_label(census, metric, codes, labels, counts):
    """``SyntheticCensus.record_codes`` as booking by label: the cells turned
    into a {(metric, year, region, sex, age): n} map and booked label by label."""
    metric = np.broadcast_to(metric, counts.shape).tolist()
    book_by_label(census, {(METRICS[m], *(axis[c] for axis, c in zip(labels, cell))): n
                           for m, *cell, n in zip(metric, *(c.tolist() for c in codes),
                                                  counts.tolist())})


def _drive(world):
    """Step ``world`` through macro_step and snapshot_population in the order
    ``run`` takes its boundaries and Jan-1 snapshots; the snapshots taken."""
    step, marks, boundary = world.step, [], world.step.start
    while boundary < step.end:
        boundary = step.next_boundary(boundary)
        marks.append((boundary, 0))
    marks += [(date(year, 1, 1), 1) for year in range(step.start.year + 1, step.end.year + 1)
              if date(year, 1, 1) > step.start]
    snapshots = []
    for when, snapshot in sorted(marks):
        if snapshot:
            snapshots.append(world.snapshot_population(when))
        else:
            world.macro_step(when)
    return snapshots


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), months=st.integers(1, 5), migration=st.booleans())
def test_census_booked_by_position_matches_booking_by_label(tmp_path_factory, seed, months,
                                                            migration):
    # month steps from Mar 15; immigrants enter AT-2 from 2022 on, a region the
    # world meets only then unless the migration tensor names it first, and whose
    # census position falls between those of AT-1 and AT-3
    rates = dict(death=0.03, emigration=0.02, birth=0.08)
    if migration:
        rates["internal_migration"] = 0.05
    params = constant_parameters(regions=("AT-1", "AT-2", "AT-3"), max_age=90, **rates)
    params.immigration = ImmigrationTable()
    for year in (2022, 2023):
        params.immigration.add(year, "AT-2", "f", 20, 15)
        params.immigration.add(year, "AT-2", "m", 95, 3)
    step = MacroStepConfig(date(2020, 3, 15), date(2024, 3, 15), "month", months)
    initial = [("AT-1", "f", 30, 40), ("AT-3", "m", 60, 30), ("AT-3", "f", 0, 20)]
    results = []
    for by_label in (False, True):
        with (mock.patch.object(SyntheticCensus, "record_codes", _record_codes_by_label)
              if by_label else contextlib.nullcontext()):
            driven, ran = (World(step, params, seed) for _ in range(2))
            for world in (driven, ran):
                world.add_initial_population(initial)
            results.append((driven.census, _drive(driven), ran.run()))
    folder = tmp_path_factory.mktemp("booked")
    (driven, snapshots, ran), (driven_ref, snapshots_ref, ran_ref) = results
    assert snapshots == snapshots_ref
    for k, (census, reference) in enumerate(((driven, driven_ref), (ran, ran_ref))):
        assert census.axes == reference.axes
        assert np.array_equal(census.values, reference.values)
        assert np.array_equal(census.present, reference.present)
        census.to_csv(folder / f"{k}.csv")
        reference.to_csv(folder / f"{k}_ref.csv")
        assert (folder / f"{k}.csv").read_bytes() == (folder / f"{k}_ref.csv").read_bytes()
    assert "AT-2" in driven.labels("region", "I")
    # a world stepped without run() books the events run() books, and no snapshot
    for metric in METRICS[1:]:
        assert dict(driven.items(metric)) == dict(ran.items(metric))
    assert dict(ran.items("P")) == {(year, *cell): n for year, counts in
                                    zip(range(2021, 2025), snapshots)
                                    for cell, n in counts.items()}
    assert not driven.labels("year", "P")


def test_birth_month_and_day_columns_match_the_birthdates():
    # 5,000 agents aged 3 on 2020-01-01, about 14 of them born on 2016-02-29,
    # and newborns through the leap year 2020
    params = constant_parameters(death=0.01, birth=0.3)
    world = World(MacroStepConfig(date(2020, 1, 1), date(2021, 1, 1), "month"), params, seed=5)
    world.add_initial_population([("AT-1", sex, age, 2500) for sex in "fm" for age in range(4)])
    world.run()
    n = world._n
    _, month, day = ymd(world._birth[:n])
    assert world.counters["births"] > 0
    assert np.array_equal(world._month[:n], month)
    assert np.array_equal(world._day[:n], day)
    leap_born = np.flatnonzero((month == 2) & (day == 29) & world._alive[:n])
    assert {date.fromordinal(b).year for b in world._birth[leap_born].tolist()} == {2016, 2020}
    # their next Birthday is observed on Feb 28
    assert set(world._due[engine._BIRTHDAY, leap_born].tolist()) == {date(2021, 2, 28).toordinal()}


def test_year_lookup_matches_ymd_on_dec_31_and_jan_1():
    world = World(MacroStepConfig(date(2019, 3, 1), date(2031, 1, 1)),
                  constant_parameters(death=0.0), seed=1)
    world._prepare(date(2031, 1, 1))
    edges = [date(year, month, day).toordinal() for year in range(2018, 2032)
             for month, day in ((1, 1), (12, 31))]
    assert world._years(np.array(edges)).tolist() == ymd(edges)[0].tolist()


def test_rate_array_stacks_tables_of_different_max_age():
    regions = ("AT-1", "AT-2")
    params = constant_parameters(regions=regions, max_age=20, death=0.01)
    params.tables["death"].set_row(2025, "AT-2", "all", np.linspace(0, 0.2, 21))
    emigration = ParameterTable("emigration", 60)
    emigration.set_constant(range(2019, 2032), regions, ("f", "m"), np.linspace(0, 0.6, 61))
    emigration.set_row(2024, "AT-1", "m", np.full(61, 0.5))
    params.tables["emigration"] = emigration
    birth = ParameterTable("birth", 45)
    birth.set_constant(range(2019, 2032), regions, ("f",), np.linspace(0.1, 0.2, 46))
    params.tables["birth"] = birth
    for n_ages in (10, 46, 90):
        rates = params.rate_array([2024, 2025], regions, n_ages)
        for (k, kind), (y, year), (r, region), (s, sex) in itertools.product(
                enumerate(engine.DRAWN), enumerate((2024, 2025)), enumerate(regions),
                enumerate(engine.SEXES)):
            table = params.tables.get(kind.name.lower())
            expected = [table.lookup(year, region, sex, age) if table is not None and
                        (kind is not EventKind.BIRTH or sex == "f") else 0.0
                        for age in range(n_ages)]
            assert rates[k, y, r, s].tolist() == expected
