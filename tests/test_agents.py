"""Agent-level event graph semantics, on the single-agent reference."""

from datetime import date

import numpy as np
import pytest

from popsim.agents import EventKind
from popsim.errors import InputError
from popsim.rng import agent_stream

from conftest import constant_parameters
from reference_agent import (BirthRequest, Departure, advance, init_agent, on_birthday,
                             on_demographic_event, scale_partial_year)


def make_agent(params, agent_id=1, birthdate=date(2000, 3, 15), sex="f",
               region="AT-1", t=date(2020, 1, 1)):
    return init_agent(agent_id, birthdate, sex, region, t, params,
                      agent_stream(42, agent_id))


def test_scale_partial_year_values():
    assert scale_partial_year(0.5, 366, 0) == 0.5
    assert scale_partial_year(0.2, 74, 292) == pytest.approx(0.2 * 74 / 366)
    # minimum possible scaling is 1/366 of p
    assert scale_partial_year(1.0, 1, 365) == pytest.approx(1 / 366)


def test_scale_partial_year_domain():
    with pytest.raises(InputError):
        scale_partial_year(1.5, 100, 100)
    with pytest.raises(InputError):
        scale_partial_year(0.5, 0, 100)


def test_init_newborn_full_first_year():
    params = constant_parameters(death=0.0)
    agent = make_agent(params, birthdate=date(2020, 1, 1), t=date(2020, 1, 1))
    assert agent.age == 0
    kinds = [ev.kind for ev in agent.events]
    assert kinds == [EventKind.BIRTHDAY]
    assert agent.events[0].due == date(2021, 1, 1)


def test_init_zero_probabilities_only_birthday():
    params = constant_parameters(death=0.0, emigration=0.0)
    agent = make_agent(params)
    assert [ev.kind for ev in agent.events] == [EventKind.BIRTHDAY]
    assert agent.events[0].due == date(2020, 3, 15)
    assert agent.age == 19


def test_init_certain_event_lands_before_first_birthday():
    params = constant_parameters(death=1.0)
    # scaled probability is 74/366, so draw many agents and check every
    # scheduled death lies in [t, next birthday)
    scheduled = 0
    for agent_id in range(3000):
        agent = make_agent(params, agent_id=agent_id)
        kinds = {ev.kind: ev for ev in agent.events}
        if EventKind.DEATH in kinds:
            scheduled += 1
            assert date(2020, 1, 1) <= kinds[EventKind.DEATH].due < date(2020, 3, 15)
    assert scheduled / 3000 == pytest.approx(74 / 366, abs=0.03)


def test_init_rejects_future_birthdate():
    params = constant_parameters(death=0.0)
    with pytest.raises(InputError):
        make_agent(params, birthdate=date(2021, 1, 1), t=date(2020, 1, 1))


def test_birthday_increments_age_and_reschedules():
    params = constant_parameters(death=0.0)
    agent = make_agent(params, birthdate=date(2000, 3, 15), t=date(2020, 1, 1))
    on_birthday(agent, date(2020, 3, 15), params)
    assert agent.age == 20
    dues = sorted(ev.due for ev in agent.events if ev.kind == EventKind.BIRTHDAY)
    assert dues[-1] == date(2021, 3, 15)


def test_birthday_certain_events_all_scheduled():
    params = constant_parameters(regions=("AT-1", "AT-2"), death=1.0,
                                 emigration=1.0, birth=1.0, internal_migration=1.0)
    agent = make_agent(params, sex="f")
    agent.events.clear()
    on_birthday(agent, date(2020, 3, 15), params)
    kinds = sorted(ev.kind for ev in agent.events)
    assert kinds == [EventKind.BIRTHDAY, EventKind.DEATH, EventKind.EMIGRATION,
                     EventKind.BIRTH, EventKind.INTERNAL_MIGRATION]
    nxt = date(2021, 3, 15)
    for ev in agent.events:
        if ev.kind != EventKind.BIRTHDAY:
            assert date(2020, 3, 15) <= ev.due < nxt


def test_birthday_no_birth_for_males():
    params = constant_parameters(birth=1.0)
    agent = make_agent(params, sex="m")
    agent.events.clear()
    on_birthday(agent, date(2020, 3, 15), params)
    assert EventKind.BIRTH not in {ev.kind for ev in agent.events}


def test_birthday_probability_uses_incremented_age():
    # a zero row below age 70 and a certain row at 70: an agent turning 70
    # today must sample against the age-70 row
    profile = np.zeros(101)
    profile[70:] = 1.0
    params = constant_parameters(death=0.0, age_profiles={"death": profile})
    agent = make_agent(params, birthdate=date(1950, 3, 15), t=date(2020, 1, 1))
    assert agent.age == 69
    agent.events.clear()
    on_birthday(agent, date(2020, 3, 15), params)
    assert EventKind.DEATH in {ev.kind for ev in agent.events}


def test_terminal_event_cancels_pending():
    params = constant_parameters(death=0.0)
    agent = make_agent(params)
    agent.schedule(date(2020, 2, 1), EventKind.DEATH)
    agent.schedule(date(2020, 3, 1), EventKind.BIRTH)
    records, outbox = [], []
    event = [ev for ev in agent.events if ev.kind == EventKind.DEATH][0]
    agent.events.remove(event)
    on_demographic_event(agent, event, records, outbox)
    assert not agent.alive
    assert agent.events == []
    assert records == [("D", date(2020, 2, 1), "AT-1", "f", 19)]
    assert outbox == [Departure(agent.id, date(2020, 2, 1), EventKind.DEATH)]


def test_death_before_birth_means_no_birth():
    params = constant_parameters(death=0.0)
    agent = make_agent(params)
    agent.schedule(date(2020, 2, 1), EventKind.DEATH)
    agent.schedule(date(2020, 3, 1), EventKind.BIRTH)  # due after the death
    records, outbox = [], []
    advance(agent, date(2021, 1, 1), params, records, outbox)
    assert outbox == [Departure(agent.id, date(2020, 2, 1), EventKind.DEATH)]
    assert all(metric != "B" for metric, *_ in records)


def test_birth_event_emits_one_request():
    params = constant_parameters(death=0.0)
    agent = make_agent(params)
    before = list(agent.events)
    event_due = date(2020, 2, 10)
    agent.schedule(event_due, EventKind.BIRTH)
    event = [ev for ev in agent.events if ev.kind == EventKind.BIRTH][0]
    agent.events.remove(event)
    records, outbox = [], []
    on_demographic_event(agent, event, records, outbox)
    assert agent.alive
    assert outbox == [BirthRequest(agent.id, event_due, "AT-1")]
    assert agent.events == before  # mother's queue otherwise unchanged


def test_internal_migration_changes_region():
    params = constant_parameters(death=0.0)
    agent = make_agent(params, region="AT-1")
    agent.schedule(date(2020, 2, 1), EventKind.INTERNAL_MIGRATION, data="AT-9")
    event = [ev for ev in agent.events if ev.kind == EventKind.INTERNAL_MIGRATION][0]
    agent.events.remove(event)
    records, outbox = [], []
    on_demographic_event(agent, event, records, outbox)
    assert agent.region == "AT-9"
    metrics = sorted(metric for metric, *_ in records)
    assert metrics == ["IM_IN", "IM_OUT"]


def test_event_on_removed_agent_signals_bug():
    params = constant_parameters(death=0.0)
    agent = make_agent(params)
    agent.alive = False
    with pytest.raises(RuntimeError):
        on_birthday(agent, date(2020, 3, 15), params)
    with pytest.raises(RuntimeError):
        on_demographic_event(agent, agent.events and agent.events[0] or None, [], [])


def test_advance_bound_excludes_demographic_at_bound():
    params = constant_parameters(death=0.0)
    agent = make_agent(params, birthdate=date(2000, 1, 1), t=date(2019, 6, 1))
    agent.events.clear()
    agent.schedule(date(2020, 1, 1), EventKind.BIRTHDAY)
    agent.schedule(date(2020, 1, 1), EventKind.DEATH)
    records, outbox = [], []
    advance(agent, date(2020, 1, 1), params, records, outbox)
    # birthday fires at the bound, the same-day death waits for the next interval
    assert agent.age == 20
    assert {ev.kind for ev in agent.events} >= {EventKind.DEATH}
    assert agent.alive
    advance(agent, date(2021, 1, 1), params, records, outbox)
    assert not agent.alive


def test_advance_processes_in_due_order_with_priority_ties():
    params = constant_parameters(death=0.0)
    agent = make_agent(params)
    agent.events.clear()
    day = date(2020, 5, 1)
    agent.schedule(day, EventKind.INTERNAL_MIGRATION, data="AT-1")
    agent.schedule(day, EventKind.DEATH)
    order = []
    advance(agent, date(2021, 1, 1), params, [], [],
            listeners=[lambda a, ev: order.append(ev.kind)])
    # same due date: Death outranks InternalMigration, so the move never happens
    assert order == [EventKind.DEATH]


def test_at_most_one_pending_event_per_kind():
    params = constant_parameters(regions=("AT-1", "AT-2"), death=0.6,
                                 emigration=0.6, birth=0.6, internal_migration=0.6)
    for agent_id in range(200):
        agent = make_agent(params, agent_id=agent_id)
        kinds = [ev.kind for ev in agent.events]
        assert len(kinds) == len(set(kinds))


def test_event_day_offsets_uniform_over_life_year():
    """With p=1 the event day is floor(U * window): uniform over the window."""
    params = constant_parameters(emigration=1.0)
    t = date(2020, 3, 15)
    offsets = []
    for agent_id in range(20000):
        agent = init_agent(agent_id, date(2000, 3, 15), "m", "AT-1", t, params,
                           agent_stream(7, agent_id))
        ev = [e for e in agent.events if e.kind == EventKind.EMIGRATION][0]
        offsets.append((ev.due - t).days)
    window = 365
    counts, _ = np.histogram(offsets, bins=10, range=(0, window))
    expected = len(offsets) / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.99, df=9)
