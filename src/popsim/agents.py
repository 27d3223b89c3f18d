"""Per-agent discrete-event simulation: the single-agent reference.

``popsim.engine`` applies these rules to all agents at once as array
operations; this module states them for one agent, and the engine is tested
against it event for event and draw for draw.

Each agent runs its own event queue centred on its annual Birthday event:
the Birthday reschedules itself one calendar year ahead (exact date
arithmetic, never a fixed 365 days), increments the agent's age, and draws
the demographic events of the upcoming life-year. A drawn event is placed
uniformly at random within the life-year, at whole-day resolution.

Agents created mid-life-year (initial population, immigrants) draw their
remaining first-year events with the probability scaled by the remaining
fraction of the life-year, days_ahead / (days_ahead + days_elapsed), and
the probability row is the one that applied at the last birthday.

The probabilities of one life-year come from one
``params.life_year_rates(year, region, sex)`` call: each table's age row for
that key, with the ``all``-sex fallback and the region hierarchy already
resolved and cached by the table, so a draw only indexes the row at the
agent's age (the last entry for ages beyond the table's ``max_age``).

Death and Emigration are terminal: they mark the agent not-alive and cancel
everything still pending. Birth and InternalMigration leave the agent
running. All cross-agent effects are buffered as outbox messages for the
simulation layer; agents never touch each other directly.
"""

from __future__ import annotations

from datetime import date, timedelta
from enum import IntEnum
from heapq import heappop, heappush
from typing import NamedTuple

from .dates import completed_age, days_since_birthday, next_birthday
from .errors import InputError
from .params import KIND_SEXES


class EventKind(IntEnum):
    """Agent event kinds; the numeric order is the same-day tie-break priority."""

    INIT = 0
    BIRTHDAY = 1
    DEATH = 2
    EMIGRATION = 3
    BIRTH = 4
    INTERNAL_MIGRATION = 5
    CUSTOM = 6


TERMINAL_KINDS = (EventKind.DEATH, EventKind.EMIGRATION)

# per sex, the accept/reject draws of a life-year in draw order, with their table
# names: the kinds that apply to that sex
DRAW_ORDER = {sex: tuple((kind, name) for kind, name in (
    (EventKind.DEATH, "death"), (EventKind.EMIGRATION, "emigration"),
    (EventKind.BIRTH, "birth"), (EventKind.INTERNAL_MIGRATION, "internal_migration"))
    if sex in KIND_SEXES[name]) for sex in ("f", "m")}

# census metric per demographic event kind
RECORD_METRIC = {
    EventKind.DEATH: "D",
    EventKind.EMIGRATION: "E",
    EventKind.BIRTH: "B",
}


class AgentEvent(NamedTuple):
    due: date
    kind: EventKind
    seq: int
    data: object = None


class OutboxMessage(NamedTuple):
    """Cross-agent effect buffered for the simulation layer.

    kind is one of "birth" (request to create a newborn in ``region`` on
    ``date``), "terminal" (the origin agent left the model; ``payload`` holds
    the EventKind), or "custom" (deliver ``payload`` as a CUSTOM event to
    agent ``target``).
    """

    origin: int
    seq: int
    kind: str
    date: date
    region: str | None = None
    target: int | None = None
    payload: object = None


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

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(self, due: date, kind: EventKind, data=None) -> None:
        heappush(self.events, AgentEvent(due, kind, self.next_seq(), data))

    def __repr__(self):
        state = "alive" if self.alive else "removed"
        return (f"Agent(id={self.id}, bd={self.birthdate}, age={self.age}, "
                f"sex={self.sex}, region={self.region}, {state})")


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
    for kind, row in params.life_year_rates(lookup_year, agent.region, agent.sex):
        p = row.item(age if age < len(row) else -1)
        if scale != 1.0:
            p *= scale
        if p <= 0.0:
            continue
        if rng.random() < p:
            offset = int(window_days * rng.random())
            data = None
            if kind is EventKind.INTERNAL_MIGRATION:
                data = params.sample_destination(agent.region, agent.age, rng.random())
                if data is None:
                    continue
            agent.schedule(start + timedelta(days=offset), kind, data)


def on_demographic_event(agent: Agent, event: AgentEvent, records: list,
                         outbox: list) -> None:
    """Apply one demographic event; census rows and messages are appended.

    Terminal events (Death, Emigration) empty the queue and emit a terminal
    notice; Birth emits a birth request and the mother continues;
    InternalMigration swaps the region in place.
    """
    if not agent.alive:
        raise RuntimeError(f"event {event.kind.name} delivered to removed agent {agent.id}")
    kind = event.kind
    if kind in TERMINAL_KINDS:
        records.append((RECORD_METRIC[kind], event.due, agent.region, agent.sex, agent.age))
        outbox.append(OutboxMessage(agent.id, agent.next_seq(), "terminal",
                                    event.due, payload=kind))
        agent.alive = False
        agent.events.clear()
    elif kind is EventKind.BIRTH:
        records.append(("B", event.due, agent.region, agent.sex, agent.age))
        outbox.append(OutboxMessage(agent.id, agent.next_seq(), "birth",
                                    event.due, region=agent.region))
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
