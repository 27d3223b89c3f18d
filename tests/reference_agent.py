"""The single-agent reference: the paper's time-update rules for one agent.

``popsim.engine.World`` applies these rules to all agents at once as array
operations; this module states them for one agent, and the engine is tested
against it event for event and draw for draw (``test_kernel.py``,
``test_agents.py``). Its date helpers state the birthday rules on single
dates, as the independent reference for the array forms in ``popsim.dates``
(``test_dates.py``).

Each agent runs its own event queue centred on its annual Birthday event:
the Birthday reschedules itself one calendar year ahead (exact date
arithmetic, never a fixed 365 days), increments the agent's age, and draws
the demographic events of the upcoming life-year. A drawn event is placed
uniformly at random within the life-year, at whole-day resolution.

Agents created mid-life-year (initial population, immigrants) draw their
remaining first-year events with the probability scaled by the remaining
fraction of the life-year, days_ahead / (days_ahead + days_elapsed), and
the probability row is the one that applied at the last birthday.

The probabilities of one life-year come from one ``life_year_rates(params,
year, region, sex)`` call: each table's age row for that key, with the
``all``-sex fallback and the region hierarchy already resolved and cached by
the table, so a draw only indexes the row at the agent's age (the last entry
for ages beyond the table's ``max_age``). An accepted InternalMigration then
draws its destination from the migration tensor's (origin, age) row.

Death and Emigration are terminal: they mark the agent not-alive and cancel
everything still pending. Birth and InternalMigration leave the agent
running. All cross-agent effects are buffered as notices (``BirthRequest``,
``Departure``) for the simulation layer; agents never touch each other
directly.
"""

from __future__ import annotations

from datetime import date, timedelta
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from popsim.agents import DRAW_ORDER, RECORD_METRIC, TERMINAL_KINDS, AgentEvent, EventKind
from popsim.dates import anniversary_in_year, shift_years
from popsim.errors import CoverageError, InputError


# ----- the birthday rules on single dates ------------------------------------------

def next_birthday(t: date, birthdate: date) -> date:
    """First observed anniversary strictly after ``t``."""
    _check_order(t, birthdate)
    cand = anniversary_in_year(birthdate, t.year)
    if cand <= t:
        cand = anniversary_in_year(birthdate, t.year + 1)
    return cand


def last_birthday(t: date, birthdate: date) -> date:
    """Most recent observed anniversary at or before ``t``."""
    _check_order(t, birthdate)
    cand = anniversary_in_year(birthdate, t.year)
    if cand > t:
        cand = anniversary_in_year(birthdate, t.year - 1)
    return cand


def days_until_birthday(t: date, birthdate: date) -> int:
    """Days from ``t`` to the next anniversary; strictly positive.

    On the anniversary itself this is the distance to the anniversary one
    year later.
    """
    return (next_birthday(t, birthdate) - t).days


def days_since_birthday(t: date, birthdate: date) -> int:
    """Days since the most recent anniversary; 0 on the anniversary."""
    return (t - last_birthday(t, birthdate)).days


def life_year_length(t: date, birthdate: date) -> int:
    """Length in days of the life-year containing ``t``; 365 or 366."""
    return days_until_birthday(t, birthdate) + days_since_birthday(t, birthdate)


def completed_age(t: date, birthdate: date) -> int:
    """Number of observed anniversaries at or before ``t``."""
    _check_order(t, birthdate)
    age = t.year - birthdate.year
    if anniversary_in_year(birthdate, t.year) > t:
        age -= 1
    return age


def birthdate_window(ref: date, age: int) -> tuple[date, date]:
    """Inclusive range of birthdates giving exactly ``age`` completed years at ``ref``.

    The window spans 365 or 366 days.
    """
    if age < 0:
        raise ValueError("age must be non-negative")
    day = timedelta(days=1)
    hi = shift_years(ref, -age)
    lo = shift_years(ref, -(age + 1)) + day
    # Feb-29 collapse can put an endpoint one day off; nudge until maximal.
    while completed_age(ref, hi) != age:
        hi -= day
    while hi + day <= ref and completed_age(ref, hi + day) == age:
        hi += day
    while completed_age(ref, lo) != age:
        lo += day
    while completed_age(ref, lo - day) == age:
        lo -= day
    return lo, hi


def _check_order(t: date, birthdate: date) -> None:
    if birthdate > t:
        raise ValueError(f"birthdate {birthdate} is after reference date {t}")


# ----- one agent ---------------------------------------------------------------------


class BirthRequest(NamedTuple):
    """A newborn to create in ``region`` on ``date``."""

    mother: int
    date: date
    region: str


class Departure(NamedTuple):
    """The agent left the model on ``date`` by a terminal event of ``kind``."""

    agent: int
    date: date
    kind: EventKind


class Agent:
    """One statistically representative person."""

    __slots__ = ("id", "birthdate", "age", "sex", "region", "alive",
                 "rng", "events", "_seq")

    def __init__(self, agent_id: int, birthdate: date, sex: str, region: str, rng):
        self.id = agent_id
        self.birthdate = birthdate
        self.age = 0
        self.sex = sex
        self.region = region
        self.alive = True
        self.rng = rng
        self.events: list[AgentEvent] = []
        self._seq = 0

    def schedule(self, due: date, kind: EventKind, data=None) -> None:
        self._seq += 1
        heappush(self.events, AgentEvent(due, kind, self._seq, data))

    def __repr__(self):
        state = "alive" if self.alive else "removed"
        return (f"Agent(id={self.id}, bd={self.birthdate}, age={self.age}, "
                f"sex={self.sex}, region={self.region}, {state})")


def life_year_rates(params, year: int, region: str, sex: str) -> list:
    """(EventKind, age row) of every kind with a table in ``params``, in draw
    order. Birth rows are given for women only. The rows come from each
    table's resolved-row cache, read afresh on every call, as
    ``ModelParameters.rate_array`` reads them."""
    tables = params.tables
    return [(kind, tables[name].row(year, region, sex)) for kind, name in DRAW_ORDER[sex]
            if name in tables]


def sample_destination(params, origin: str, age: int, u: float) -> str | None:
    """The first destination whose cumulative share exceeds ``u`` (the last one
    if none does), or None when nobody of ``age`` leaves ``origin``."""
    tensor = params.migration_tensor
    try:
        o = tensor.position[origin]
    except KeyError:
        raise CoverageError(f"migration tensor: no row for region={origin}") from None
    d = params.destinations(np.array([o]), np.array([age]), np.array([u])).item()
    return None if d < 0 else tensor.regions[d]


def scale_partial_year(p: float, days_ahead: int, days_elapsed: int) -> float:
    """Probability for the remainder of a partially elapsed life-year.

    Scales the full life-year probability ``p`` by
    days_ahead / (days_ahead + days_elapsed).
    """
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0, 1]")
    if days_ahead <= 0 or days_elapsed < 0:
        raise InputError("days_ahead must be positive, days_elapsed non-negative")
    return p * days_ahead / (days_ahead + days_elapsed)


def init_agent(agent_id: int, birthdate: date, sex: str, region: str, t: date,
               params, rng) -> Agent:
    """Set up an agent's state and schedule its first life-year.

    ``t`` is the creation instant. The first Birthday lands on the next
    anniversary of ``birthdate``; demographic events for the remainder of the
    current life-year are drawn with partial-year scaling (factor 1 for an
    agent born at ``t``).
    """
    if birthdate > t:
        raise InputError(f"birthdate {birthdate} lies after creation date {t}")
    if sex not in ("m", "f"):
        raise InputError(f"sex must be 'm' or 'f', got {sex!r}")
    agent = Agent(agent_id, birthdate, sex, region, rng)
    agent.age = completed_age(t, birthdate)

    first_birthday = next_birthday(t, birthdate)
    days_ahead = (first_birthday - t).days
    days_elapsed = days_since_birthday(t, birthdate)
    agent.schedule(first_birthday, EventKind.BIRTHDAY)

    scale = scale_partial_year(1.0, days_ahead, days_elapsed)
    lookup_year = (t - timedelta(days=days_elapsed)).year
    _draw_life_year_events(agent, t, days_ahead, lookup_year, scale, params)
    return agent


def on_birthday(agent: Agent, t: date, params) -> None:
    """Age the agent, reschedule the Birthday, draw the next life-year's events."""
    if not agent.alive:
        raise RuntimeError(f"birthday event delivered to removed agent {agent.id}")
    agent.age += 1
    following = next_birthday(t, agent.birthdate)
    agent.schedule(following, EventKind.BIRTHDAY)
    _draw_life_year_events(agent, t, (following - t).days, t.year, 1.0, params)


def _draw_life_year_events(agent: Agent, start: date, window_days: int,
                           lookup_year: int, scale: float, params) -> None:
    """One accept/reject draw per demographic kind; accepted events land
    uniformly within the window. Kinds with probability 0 consume no draws."""
    rng = agent.rng
    age = agent.age
    for kind, row in life_year_rates(params, lookup_year, agent.region, agent.sex):
        p = row.item(age if age < len(row) else -1)
        if scale != 1.0:
            p *= scale
        if p <= 0.0:
            continue
        if rng.random() < p:
            offset = int(window_days * rng.random())
            data = None
            if kind is EventKind.INTERNAL_MIGRATION:
                data = sample_destination(params, agent.region, agent.age, rng.random())
                if data is None:
                    continue
            agent.schedule(start + timedelta(days=offset), kind, data)


def on_demographic_event(agent: Agent, event: AgentEvent, records: list,
                         outbox: list) -> None:
    """Apply one demographic event; census rows and notices are appended.

    Terminal events (Death, Emigration) empty the queue and emit a
    ``Departure``; Birth emits a ``BirthRequest`` and the mother continues;
    InternalMigration swaps the region in place.
    """
    if not agent.alive:
        raise RuntimeError(f"event {event.kind.name} delivered to removed agent {agent.id}")
    kind = event.kind
    if kind in TERMINAL_KINDS:
        records.append((RECORD_METRIC[kind], event.due, agent.region, agent.sex, agent.age))
        outbox.append(Departure(agent.id, event.due, kind))
        agent.alive = False
        agent.events.clear()
    elif kind is EventKind.BIRTH:
        records.append(("B", event.due, agent.region, agent.sex, agent.age))
        outbox.append(BirthRequest(agent.id, event.due, agent.region))
    elif kind is EventKind.INTERNAL_MIGRATION:
        records.append(("IM_OUT", event.due, agent.region, agent.sex, agent.age))
        records.append(("IM_IN", event.due, event.data, agent.sex, agent.age))
        agent.region = event.data
    else:
        raise InputError(f"{kind.name} is not a demographic event")


def advance(agent: Agent, bound: date, params, records: list, outbox: list,
            listeners=()) -> None:
    """Process the agent's events up to ``bound``.

    Events strictly before ``bound`` are processed; at ``bound`` itself only
    the structural Birthday fires (so a Jan-1 birthday is reflected in the
    Jan-1 snapshot) while demographic events dated exactly ``bound`` are left
    for the following interval.
    """
    events = agent.events
    while agent.alive and events:
        head = events[0]
        if head.due > bound or (head.due == bound and head.kind != EventKind.BIRTHDAY):
            break
        event = heappop(events)
        if event.kind is EventKind.BIRTHDAY:
            on_birthday(agent, event.due, params)
        elif event.kind is EventKind.CUSTOM:
            pass  # extension hook: observable via listeners only
        else:
            on_demographic_event(agent, event, records, outbox)
        if listeners:
            for fn in listeners:
                fn(agent, event)
