"""The agent vocabulary the simulation layer speaks: event kinds, the order of
a life-year's draws, the census metric of each demographic event, the event
record listeners receive and the custom message one agent sends another.

The time-update rules themselves live in ``popsim.engine.World``; the
single-agent statement of them, which the engine is tested against, is
``tests/reference_agent.py``.
"""

from __future__ import annotations

from datetime import date
from enum import IntEnum
from typing import NamedTuple

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
    """A CUSTOM event for agent ``target``, dated ``date``, buffered by
    ``World.send_event`` until the next exchange."""

    date: date
    target: int
    payload: object
