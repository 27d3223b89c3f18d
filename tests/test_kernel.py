"""The engine's array kernel against the single-agent reference in ``reference_agent``.

Random agents are created in one batch of lanes and, one by one, as
``init_agent`` on ``agent_stream``; then both are advanced through their next
Birthdays. After creation and after each Birthday, each agent's pending events
(due, kind, destination), its state and its stream's next draw must agree.
"""

import copy
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim import engine
from popsim.agents import EventKind
from popsim.dates import anniversary_in_year
from popsim.engine import MacroStepConfig, ModelParameters, World
from popsim.ipf import MigrationTensor
from popsim.params import ParameterTable
from popsim.rng import agent_stream

from reference_agent import advance, init_agent

REGIONS = ("AT-1", "AT-2")
MAX_AGE = 100
KINDS = ("death", "emigration", "birth", "internal_migration")

rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.0, 0.05))


@st.composite
def parameters(draw):
    """One table per kind, constant or with an age profile, per region and
    scaled per year, so the lookup year shows; a tensor whose AT-2 row is
    empty, so its movers draw and stay."""
    tables = {}
    for kind in KINDS:
        if draw(st.booleans()) and draw(st.booleans()):
            continue  # a kind without a table
        table = ParameterTable(kind, draw(st.sampled_from([MAX_AGE, 40])))
        for region in REGIONS:
            if draw(st.booleans()):
                values = np.full(table.max_age + 1, draw(rates))
            else:
                values = np.array(draw(st.lists(rates, min_size=table.max_age + 1,
                                                max_size=table.max_age + 1)))
            sexes = ("f",) if kind == "birth" else ("all",)
            for year in range(2015, 2031):
                factor = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
                table.set_constant([year], [region], sexes, np.minimum(values * factor, 1.0))
        tables[kind] = table
    weights = np.zeros((2, 2, MAX_AGE + 1))
    weights[0] = draw(st.sampled_from([0.5, 1.0, 3.0]))
    weights[0, 0, :10] = 0.0  # young movers of AT-1 all go to AT-2
    tensor = MigrationTensor(REGIONS, range(MAX_AGE + 1), weights)
    return ModelParameters(tables, migration_tensor=tensor)


@st.composite
def agents(draw):
    """(birthdate, sex, region, creation date), Feb-29 birthdates and creation
    on a birthday included."""
    if draw(st.integers(0, 4)) == 0:
        birthdate = date(draw(st.sampled_from(range(1932, 2020, 4))), 2, 29)
    else:
        birthdate = date(1930, 1, 1) + timedelta(days=draw(st.integers(0, 90 * 365)))
    if draw(st.booleans()):
        created = anniversary_in_year(birthdate, draw(st.sampled_from([2020, 2021])))
    else:
        created = date(2020, 1, 1) + timedelta(days=draw(st.integers(0, 730)))
    created = max(created, birthdate)
    return birthdate, draw(st.sampled_from("fm")), draw(st.sampled_from(REGIONS)), created


def pending(events):
    return sorted((ev.due, int(ev.kind), ev.data) for ev in events)


def next_draws(world, lanes):
    return copy.deepcopy(world._streams).draw(np.array(lanes, dtype=np.intp)).tolist()


def assert_same(world, reference):
    alive = [agent.id for agent in reference if agent.alive]
    assert list(world.agents) == alive
    for agent in reference:
        if agent.alive:
            view = world.agents[agent.id]
            assert (view.age, view.region, view.birthdate, view.sex) == \
                (agent.age, agent.region, agent.birthdate, agent.sex)
            assert pending(view.events) == pending(agent.events), agent
    assert next_draws(world, [a.id for a in reference]) == \
        [copy.deepcopy(a.rng).random() for a in reference]


@given(params=parameters(), people=st.lists(agents(), min_size=1, max_size=25),
       seed=st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_single_agent_reference(params, people, seed):
    world = World(MacroStepConfig(date(2020, 1, 1), date(2030, 1, 1)), params, seed)
    world._prepare(date(2027, 1, 1))  # rates of the life-years from 2019 to 2027
    birthdates, sexes, regions, created = zip(*people)
    world._create(np.array([b.toordinal() for b in birthdates]),
                  np.array([engine.SEXES.index(s) for s in sexes]), world._codes(regions),
                  np.array([t.toordinal() for t in created]), engine._Outbox())
    reference = [init_agent(i, *person, params, agent_stream(seed, i))
                 for i, person in enumerate(people)]
    assert_same(world, reference)
    for _ in range(3):  # through each agent's next Birthday
        for agent in reference:
            if agent.alive:
                birthday = next(ev.due for ev in agent.events if ev.kind is EventKind.BIRTHDAY)
                advance(agent, birthday, params, [], [])
                world._advance(np.array([agent.id]), birthday.toordinal())
        assert_same(world, reference)
