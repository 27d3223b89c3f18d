"""Co-simulation layer: synchronises the agents' simulations in macro steps.

The layer is itself a small discrete-event simulation whose queue holds
self-rescheduling macro-step boundaries plus Jan-1 snapshot observer events.
Reaching a position X means:

  phase 1  every alive agent processes its pending events dated before X
           (plus Birthdays dated exactly X), buffering census records and
           birth requests;
  phase 2  custom messages are delivered into their targets' queues
           (messages for removed agents are dropped and counted), then the
           birth requests are served in (mother id, birth date) order:
           newborns get their Init dated at the birth date;
  phase 3  immigrants whose entry date precedes X get their Init dated at
           their entry date.

Phases 2-3 are one round: its newborns, then its immigrants, are created
in one batch, with ids in that order, and caught up to X together. Rounds
repeat until quiescent (a caught-up newborn or immigrant may itself give
birth before X), so the world state at X reflects exactly the events dated
up to X and the census conservation identities hold exactly.

Agents are columns, one lane per agent id: birthdate, its int8 month and
day (set at creation, so no Birthday splits a birthdate), age, sex, region,
alive flag, one due date per event kind and the destination of a drawn
internal migration, plus the agent's PCG64 stream in ``rng.StreamArray``.
The year of an event or creation date is its place among the Jan-1 ordinals
of the years being stepped.
An agent has at most one pending event per demographic kind, because the
events of a life-year all fall before the Birthday that closes it, so the
due columns are its whole queue; CUSTOM events wait in a small side queue
whose earliest date is the CUSTOM column. The due columns are ordered like
their kinds, so a lane's earliest (due, kind) is the first column holding
its earliest date. Phase 1 sweeps: each sweep applies, to every lane with an
event due, that earliest event, as array operations per kind, until no lane
has one left. A lane draws from its own stream (``rng.agent_stream`` of its
id) in the order the single-agent reference in ``tests/reference_agent.py``
states, and the world stream's draws (initial birthdates, newborn sexes,
immigrant plans) are batches in the order of the scalar draws they replace.

The census is booked by array position (``SyntheticCensus.record_codes``):
the records are held until a sync reaches or passes the end of their calendar
year (or the horizon's end), then counted per distinct cell with one
``np.unique``, so ``World.census`` shows a year's events only from then on; a
Jan-1 snapshot bincounts the alive lanes per (region, sex, age). The world's
region codes map to census positions per booking, the axes gaining any label
they lack. No cell passes through a label dict.

The life-year probabilities come from one ``ModelParameters.rate_array`` of
the years being stepped, kept across syncs until those years, the number of
regions met, or a table (replaced, or edited through ``set_row``) change.

Lanes do not interact in phase 1, so any split of the due lanes gives the
same result: with ``workers`` > 1 the due lanes are cut into contiguous
blocks advanced on a thread pool (numpy releases the interpreter lock inside
its array operations), and all cross-agent effects flow through the ordered
phases 2-3.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date, timedelta
from functools import partial
from heapq import heapify, heappop, heappush
from typing import NamedTuple

import numpy as np

from . import dates
from .agents import (DRAW_ORDER, RECORD_METRIC, TERMINAL_KINDS, AgentEvent, EventKind,
                     OutboxMessage)
from .census import METRIC_INDEX, METRICS, SyntheticCensus, count_population
from .errors import CoverageError, InputError
from .ipf import MigrationTensor
from .params import KIND_SEXES, ImmigrationTable, ParameterTable, checked_cells
from .rng import StreamArray, WorldStream

# World calls none of these three: perfbench's tracer wraps them by their names in
# this module (ROADMAP item 2 moves it onto per-step stats), so they stay bound.
# advance and init_agent, the single-agent reference's entry points, are in
# tests/reference_agent.py and bound to None here
from .rng import agent_stream  # noqa: F401
advance = init_agent = None

log = logging.getLogger(__name__)

STEP_UNITS = ("day", "month", "year")

# fewer agents due than this are advanced on the calling thread
PARALLEL_MIN_DUE = 256

SEXES = ("f", "m")  # an agent's sex is its position here

# an agent's due-date columns, in the same-day order of their kinds, so that the
# first column holding a lane's earliest date is its next event in (due, kind) order
DUE_KINDS = (EventKind.BIRTHDAY, EventKind.DEATH, EventKind.EMIGRATION, EventKind.BIRTH,
             EventKind.INTERNAL_MIGRATION, EventKind.CUSTOM)
_COLUMN = {kind: c for c, kind in enumerate(DUE_KINDS)}
_BIRTHDAY, _CUSTOM = _COLUMN[EventKind.BIRTHDAY], _COLUMN[EventKind.CUSTOM]
_NEVER = np.iinfo(np.int64).max  # the due date of no event

# the demographic kinds in draw order; women draw every one, men all but Birth
DRAWN = tuple(kind for kind, _ in DRAW_ORDER["f"])


@dataclass(frozen=True)
class MacroStepConfig:
    """Calendar-aligned macro stepping from ``start`` to ``end``."""

    start: date
    end: date
    unit: str = "year"
    multiplier: int = 1

    def __post_init__(self):
        check_settings(step_unit=self.unit, step_multiplier=self.multiplier)
        if self.start >= self.end:
            raise InputError(f"start {self.start} must precede end {self.end}")

    def next_boundary(self, d: date) -> date:
        if self.unit == "day":
            nxt = d + timedelta(days=self.multiplier)
        elif self.unit == "month":
            nxt = dates.add_months(d, self.multiplier)
        else:  # the anniversary of d's month and day ``multiplier`` years on
            nxt = date.fromordinal(int(dates.anniversaries(
                *np.array([d.month, d.day, d.year + self.multiplier]))))
        return min(nxt, self.end)


class ModelParameters:
    """Bundle of event-probability tables plus optional immigration inputs.

    The engine and the cohort-projection oracle both read their inputs
    through it: the age rows a life-year draws, as one dense array from
    ``rate_array``, the destination rule of internal migration (the migration
    tensor's (origin, age) rows; origins whose row sums to zero never move)
    and the regions a run can meet.
    """

    def __init__(self, tables: dict[str, ParameterTable] | None = None,
                 immigration: ImmigrationTable | None = None,
                 migration_tensor: MigrationTensor | None = None):
        self.tables: dict[str, ParameterTable] = {}
        for kind, table in (tables or {}).items():
            if table.kind != kind:  # a table's own kind is a probability kind
                raise InputError(f"table of kind {table.kind!r} registered as {kind!r}")
            self.tables[kind] = table
        self.immigration = immigration
        self.migration_tensor = migration_tensor
        if "internal_migration" in self.tables and migration_tensor is None:
            raise InputError("internal_migration table requires a migration tensor")
        if migration_tensor is not None:
            migration_tensor.check_single_ages()

    def rate_array(self, years, regions, n_ages: int) -> np.ndarray:
        """[kind, year, region, sex, age] probabilities of the life-years starting
        in ``years``, kinds in DRAWN and sexes in SEXES order, each kind's rows
        stacked once from its table's resolved rows. Ages past a row's last one
        repeat it; a kind without a table, or Birth for men, is 0. The engine
        builds it again when a table is replaced in ``tables`` or edited
        through its ``set_row``, so either takes effect from the next macro
        step on."""
        rates = np.zeros((len(DRAWN), len(years), len(regions), len(SEXES), n_ages))
        for k, (_, name) in enumerate(DRAW_ORDER["f"]):
            if name in self.tables:
                table = self.tables[name]
                sexes = [s for s, sex in enumerate(SEXES) if sex in KIND_SEXES[name]]
                rows = np.array([table.row(year, region, SEXES[s]) for year, region, s
                                 in itertools.product(years, regions, sexes)])
                rows = rows.reshape(len(years), len(regions), len(sexes), table.max_age + 1)
                rates[k][:, :, sexes] = rows[..., np.minimum(np.arange(n_ages), table.max_age)]
        return rates

    def destinations(self, origins, ages, u) -> np.ndarray:
        """Per (origin tensor position, age, draw ``u``): the tensor position of
        the first destination whose cumulative share exceeds ``u`` (the last one
        if none does), -1 where nobody of that age leaves that origin.

        The count of cumulative shares at or below ``u`` is the position of the
        first one above it, as the shares never decrease along a row.
        """
        tensor = self.migration_tensor
        first, last = tensor.ages[0], tensor.ages[-1]
        cum = tensor.cumulative_shares[origins, np.clip(ages, first, last) - first]
        found = np.minimum(np.count_nonzero(cum <= u[:, None], axis=1), cum.shape[1] - 1)
        return np.where(cum[:, -1] > 0, found, -1)

    def run_regions(self, population_regions) -> list[str]:
        """Sorted regions a run can meet: its population's, the immigrants' and
        the migration tensor's."""
        found = set(population_regions)
        if self.immigration is not None:
            found.update(r for (_, r, _, _) in self.immigration.counts)
        if self.migration_tensor is not None:
            found.update(self.migration_tensor.regions)
        return sorted(found)

    def validate_coverage(self, years, region_list) -> None:
        """Raise CoverageError naming every (kind, year, region, sex) gap, and
        every region without a migration tensor row when people migrate."""
        gaps: list[str] = []
        for kind, table in self.tables.items():
            gaps.extend(table.covers(years, region_list, KIND_SEXES[kind]))
        if "internal_migration" in self.tables:
            gaps.extend(f"migration tensor: no row for region={region}"
                        for region in region_list
                        if region not in self.migration_tensor.position)
        gaps = list(dict.fromkeys(gaps))  # a bad region code fails each (year, sex) alike
        if gaps:
            shown = "; ".join(gaps[:8])
            more = f" (+{len(gaps) - 8} more)" if len(gaps) > 8 else ""
            raise CoverageError(f"parameter coverage gaps: {shown}{more}")


class AgentView:
    """One agent as the world's columns hold it: ``id``, ``birthdate``, ``age``,
    ``sex``, ``region`` and ``alive``, and ``events``, its pending events in
    (due, kind, seq) order as the columns hold them when it is read."""

    __slots__ = ("_world", "id", "birthdate", "age", "sex", "region", "alive")

    def __init__(self, world: "World", lane: int, age: int, region: int, alive: bool):
        self._world = world
        self.id = lane
        self.birthdate = date.fromordinal(int(world._birth[lane]))
        self.sex = SEXES[world._sex[lane]]
        self.age = age
        self.region = world._regions[region]
        self.alive = alive

    @property
    def events(self) -> list[AgentEvent]:
        return self._world._pending_events(self.id)

    def __repr__(self):
        state = "alive" if self.alive else "removed"
        return (f"AgentView(id={self.id}, bd={self.birthdate}, age={self.age}, "
                f"sex={self.sex}, region={self.region}, {state})")


class AgentMap(Mapping):
    """Read-only mapping from each alive agent's id to its ``AgentView``."""

    def __init__(self, world: "World"):
        self._world = world

    def __getitem__(self, agent_id) -> AgentView:
        world = self._world
        if not (isinstance(agent_id, (int, np.integer)) and 0 <= agent_id < world._n
                and world._alive[agent_id]):
            raise KeyError(agent_id)
        return AgentView(world, int(agent_id), int(world._age[agent_id]),
                         world._region[agent_id], True)

    def __iter__(self):
        return iter(np.flatnonzero(self._world._alive[:self._world._n]).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._world._alive[:self._world._n]))


class _Outbox:
    """What applying events to a block of lanes leaves for the sequential phases:
    census records, birth requests, terminal counts and, when listeners are
    registered, the events applied."""

    def __init__(self):
        self.records: list = []  # (metric, years, regions, sexes, ages)
        self.births: list = []   # (mothers, dates, regions)
        self.terminal = {EventKind.DEATH: 0, EventKind.EMIGRATION: 0}
        self.log: list = []      # (lanes, dues, kind, data, ages, regions, alive)


class World:
    """Visible simulation state: agents, clock, census, deterministic RNG.

    Agents are lanes of column arrays, lane ``i`` holding agent ``i`` from its
    creation on; a removed agent's lane stays, with no event pending.
    """

    def __init__(self, step: MacroStepConfig, params: ModelParameters, seed: int,
                 *, male_fraction: float = 0.5, workers: int = 1):
        check_settings(male_fraction=male_fraction, workers=workers, seed=seed)
        self.step = step
        self.params = params
        self.seed = seed
        self.male_fraction = male_fraction
        self.workers = workers
        self.date = step.start
        self.census = SyntheticCensus()
        self.listeners: list = []
        self.dropped_messages = 0
        self.counters = {"births": 0, "deaths": 0, "emigrations": 0,
                         "immigrants": 0, "initial": 0}
        self._world_rng = WorldStream(seed)
        # the agent columns, lane = agent id; _n lanes are in use
        self._n = 0
        self._streams = StreamArray(seed)
        self._birth = np.zeros(0, np.int64)    # birthdate ordinal
        self._month = np.zeros(0, np.int8)     # birthdate month
        self._day = np.zeros(0, np.int8)       # birthdate day of month
        self._age = np.zeros(0, np.int64)
        self._sex = np.zeros(0, np.int8)       # position in SEXES
        self._region = np.zeros(0, np.intp)    # position in _regions
        self._alive = np.zeros(0, bool)
        self._dest = np.zeros(0, np.intp)      # drawn internal migration's destination
        self._due = np.zeros((len(DUE_KINDS), 0), np.int64)  # ordinal, or _NEVER
        self._customs: dict[int, list] = {}    # lane -> heap of (due, seq, payload)
        self._regions: list[str] = []
        self._region_at: dict[str, int] = {}
        self._records: list = []
        self._custom_msgs: list[OutboxMessage] = []
        self._custom_seq = itertools.count()  # delivery order of same-day CUSTOM events
        self._immigrant_queue = _Planned(*(np.zeros(0, np.int64),) * 5)
        self._immigrant_cursor = 0
        self._plans_through: int | None = None
        self._rate_years: tuple | None = None  # first and last year _prepare set up
        self._prepare(step.start)
        self._tensor_rows: np.ndarray | None = None
        self._tensor_regions: np.ndarray | None = None
        self._covered: set[str] = set()
        self._executor: ThreadPoolExecutor | None = None

    @property
    def agents(self) -> AgentMap:
        """The alive agents by id (a new mapping per access: a world holding its
        own would be freed only by the cycle collector)."""
        return AgentMap(self)

    # ----- construction ---------------------------------------------------

    def add_initial_population(self, cells) -> None:
        """Create agents from (region, sex, age, count) cells at the start date.

        Birthdates are sampled uniformly over each age's valid window, once the
        parameters are known to cover the run.
        """
        if self.date != self.step.start:
            raise InputError("initial population must precede the first step")
        columns = checked_cells(*(list(zip(*sorted(cells))) or [()] * 4))
        regions, sexes, ages, counts = (column[columns[3] > 0] for column in columns)
        self._check_coverage(self.params.run_regions([*self._alive_regions(), *regions]))
        if not len(counts):
            return
        start = self.step.start.toordinal()
        lo, length = dates.birthdate_windows(np.full(len(counts), start), ages)
        birth = np.repeat(lo, counts) + (self._world_rng.random(int(counts.sum()))
                                         * np.repeat(length, counts)).astype(np.int64)
        self._prepare(self.date)
        out = _Outbox()
        self._create(birth, np.repeat([SEXES.index(s) for s in sexes], counts),
                     np.repeat(self._codes(regions), counts), np.full(len(birth), start), out)
        self.counters["initial"] += len(birth)
        self._notify(out)

    def _check_coverage(self, regions: list[str]) -> None:
        """Raise CoverageError naming every gap of the horizon's parameters for
        ``regions``, unless they were all checked before."""
        if not self._covered.issuperset(regions):
            self.params.validate_coverage(
                range(self.step.start.year - 1, self.step.end.year + 1), regions)
            self._covered.update(regions)

    def _codes(self, regions) -> np.ndarray:
        """Positions of ``regions`` in ``_regions``, which gains the new ones."""
        for region in regions:
            if region not in self._region_at:
                self._region_at[region] = len(self._regions)
                self._regions.append(region)
                self._rates, self._tensor_rows = (None, None), None
        return np.array([self._region_at[r] for r in regions], np.intp)

    def _alive_regions(self) -> list[str]:
        alive = self._region[:self._n][self._alive[:self._n]]
        return [self._regions[r] for r in np.flatnonzero(np.bincount(alive)).tolist()]

    def _grow(self, n: int) -> np.ndarray:
        """Lanes for the next ``n`` agent ids."""
        size = self._n + n
        if size > len(self._age):
            capacity = max(size, 2 * len(self._age))
            for name in ("_birth", "_month", "_day", "_age", "_sex", "_region", "_alive",
                         "_dest", "_due"):
                old = getattr(self, name)
                new = np.full((*old.shape[:-1], capacity), _NEVER if name == "_due" else 0,
                              old.dtype)
                new[..., :self._n] = old[..., :self._n]
                setattr(self, name, new)
        self._streams.grow(n)
        lanes = np.arange(self._n, size)
        self._n = size
        return lanes

    def _create(self, birth, sex, region, at, out: _Outbox) -> np.ndarray:
        """Agents born on ``birth`` created on ``at`` (day ordinals), with their
        first Birthday and the remainder of their current life-year drawn, its
        probabilities scaled by days_ahead / (days_ahead + days_elapsed) and read
        in the year of the last birthday."""
        late = np.flatnonzero(birth > at)
        if late.size:
            i = late[0]
            raise InputError(f"birthdate {date.fromordinal(int(birth[i]))} lies after "
                             f"creation date {date.fromordinal(int(at[i]))}")
        lanes = self._grow(len(birth))
        born_year, month, day = dates.ymd(birth)
        year = self._years(at)
        this_year = dates.anniversaries(month, day, year)
        ahead_in_year = this_year > at  # the birthday of ``at``'s year is still to come
        following = np.where(ahead_in_year, this_year,
                             dates.anniversaries(month, day, year + 1))
        last = np.where(ahead_in_year, dates.anniversaries(month, day, year - 1), this_year)
        self._birth[lanes] = birth
        self._month[lanes] = month
        self._day[lanes] = day
        self._age[lanes] = year - born_year - ahead_in_year
        self._sex[lanes] = sex
        self._region[lanes] = region
        self._alive[lanes] = True
        self._due[_BIRTHDAY, lanes] = following
        ahead, elapsed = following - at, at - last
        self._draw_life_years(lanes, at, ahead, year - ahead_in_year, ahead / (ahead + elapsed))
        if self.listeners:
            out.log.append((lanes, at, EventKind.INIT, None, self._age[lanes], region,
                            np.ones(len(lanes), bool)))
        return lanes

    # ----- the life-year draw ------------------------------------------------

    def _prepare(self, until: date) -> None:
        """Make the life-years starting from the year before the world's date
        to ``until`` the ones ``_rate_array`` covers, and ``_years`` read the
        dates of those years."""
        years = (self.date.year - 1, until.year)
        if years != self._rate_years:  # the rate array of other years is freed now
            self._rate_years, self._rates = years, (None, None)
            self._jan1 = np.array([date(year, 1, 1).toordinal()
                                   for year in range(years[0], years[1] + 1)])

    def _years(self, ordinals) -> np.ndarray:
        """The year of each day ordinal from the prepared years' first Jan 1 on,
        none of them past the last year."""
        return self._rate_years[0] - 1 + np.searchsorted(self._jan1, ordinals, side="right")

    def _rate_array(self) -> np.ndarray:
        """``ModelParameters.rate_array`` of the prepared years and the world's
        regions, as wide as the widest table, kept in ``_rates`` with the tables
        it was built from; built again only when the years, the regions or a
        table (replaced, or edited through ``set_row``) change."""
        tables = self.params.tables
        key = [(kind, table, table.version) for kind, table in tables.items()]
        if self._rates[0] != key:
            first, last = self._rate_years
            width = max((table.max_age + 1 for table in tables.values()), default=1)
            self._rates = key, self.params.rate_array(range(first, last + 1), self._regions,
                                                      width)
        return self._rates[1]

    def _draw_life_years(self, lanes, start, window, year, scale=None) -> None:
        """Draw the demographic events of the life-years of ``lanes`` that run
        ``window`` days from ``start`` (day ordinals), with the probabilities of
        ``year`` times ``scale``. Per lane and kind in draw order: an accept draw
        where the probability is positive, then for an accepted event the day
        offset within the window, then for a migration its destination."""
        if not self.params.tables or not lanes.size:
            return
        rates = self._rate_array()
        ages = self._age[lanes]
        probabilities = rates[:, year - self._rate_years[0], self._region[lanes],
                              self._sex[lanes], np.minimum(ages, rates.shape[-1] - 1)]
        if scale is not None:
            probabilities *= scale
        draw = self._streams.draw
        for kind, p in zip(DRAWN, probabilities):
            drawing = np.flatnonzero(p > 0.0)
            if not drawing.size:
                continue
            hit = drawing[draw(lanes[drawing]) < p[drawing]]
            if not hit.size:
                continue
            movers = lanes[hit]
            when = start[hit] + (window[hit] * draw(movers)).astype(np.int64)
            if kind is EventKind.INTERNAL_MIGRATION:
                dest = self._destinations(movers, ages[hit], draw(movers))
                moving = dest >= 0
                movers, when = movers[moving], when[moving]
                self._dest[movers] = dest[moving]
            self._due[_COLUMN[kind], movers] = when

    def _destinations(self, lanes, ages, u) -> np.ndarray:
        """Destination region position per lane, -1 where nobody of that age
        leaves its region."""
        tensor = self.params.migration_tensor
        if self._tensor_rows is None:
            self._tensor_regions = self._codes(tensor.regions)
            self._tensor_rows = np.array([tensor.position.get(r, -1) for r in self._regions],
                                         np.intp)
        rows = self._tensor_rows[self._region[lanes]]
        if np.any(rows < 0):
            region = self._regions[self._region[lanes][rows < 0][0]]
            raise CoverageError(f"migration tensor: no row for region={region}")
        dest = self.params.destinations(rows, ages, u)
        return np.where(dest >= 0, self._tensor_regions[dest], -1)

    # ----- phases ----------------------------------------------------------

    def _advance(self, lanes: np.ndarray, bound: int, out: _Outbox | None = None) -> _Outbox:
        """Apply the events of ``lanes`` dated before ``bound`` (a day ordinal),
        and Birthdays dated on it, sweep by sweep: each sweep applies every due
        lane's earliest event in (due, kind) order."""
        out = out or _Outbox()
        while lanes.size:
            due = self._due[:, lanes]
            column = due.argmin(axis=0)
            head = due[column, np.arange(lanes.size)]
            ready = (head < bound) | ((head == bound) & (column == _BIRTHDAY))
            lanes, column, head = lanes[ready], column[ready], head[ready]
            for c in np.flatnonzero(np.bincount(column)).tolist():
                picked = column == c
                self._apply(DUE_KINDS[c], lanes[picked], head[picked], out)
        return out

    def _apply(self, kind: EventKind, lanes, when, out: _Outbox) -> None:
        """Apply one event of ``kind`` dated ``when`` to each of ``lanes``."""
        region, sex, age = self._region[lanes], self._sex[lanes], self._age[lanes]
        data = None
        if kind is EventKind.BIRTHDAY:
            age += 1
            self._age[lanes] = age
            year = self._years(when)
            following = dates.anniversaries(self._month[lanes], self._day[lanes], year + 1)
            self._due[_BIRTHDAY, lanes] = following
            self._draw_life_years(lanes, when, following - when, year)
        elif kind is EventKind.CUSTOM:
            data = []
            for lane in lanes.tolist():
                queue = self._customs[lane]
                data.append(heappop(queue)[2])
                self._due[_CUSTOM, lane] = queue[0][0] if queue else _NEVER
                if not queue:
                    del self._customs[lane]
        else:
            year = self._years(when)
            self._due[_COLUMN[kind], lanes] = _NEVER
            if kind is EventKind.INTERNAL_MIGRATION:
                dest = self._dest[lanes]
                out.records.append((METRIC_INDEX["IM_OUT"], year, region, sex, age))
                out.records.append((METRIC_INDEX["IM_IN"], year, dest, sex, age))
                self._region[lanes] = region = dest
                if self.listeners:
                    data = [self._regions[r] for r in dest.tolist()]
            else:
                out.records.append((METRIC_INDEX[RECORD_METRIC[kind]], year, region, sex, age))
            if kind is EventKind.BIRTH:
                out.births.append((lanes, when, region))
            elif kind in TERMINAL_KINDS:
                for lane in lanes[self._due[_CUSTOM, lanes] != _NEVER].tolist():
                    del self._customs[lane]  # its CUSTOM events are cancelled
                self._alive[lanes] = False
                self._due[:, lanes] = _NEVER
                out.terminal[kind] += len(lanes)
        if self.listeners:
            out.log.append((lanes, when, kind, data, age, region, self._alive[lanes]))

    def _advance_all(self, bound: int) -> list:
        """Phase 1 over every lane with an event due; the birth requests it leaves."""
        due = np.flatnonzero(self._due[:, :self._n].min(axis=0) <= bound)
        if self.workers == 1 or len(due) < PARALLEL_MIN_DUE or self.listeners:
            outs = [self._advance(due, bound)]
        else:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            chunk = (len(due) + self.workers - 1) // self.workers
            outs = list(self._executor.map(partial(self._advance, bound=bound),
                                           [due[i:i + chunk] for i in range(0, len(due), chunk)]))
        births = []
        for out in outs:
            births += self._collect(out)
        return births

    def _collect(self, out: _Outbox) -> list:
        """Keep an outbox's records and counts, notify the listeners of its
        events; its birth requests are returned."""
        self._records += out.records
        self.counters["deaths"] += out.terminal[EventKind.DEATH]
        self.counters["emigrations"] += out.terminal[EventKind.EMIGRATION]
        self._notify(out)
        return out.births

    def _notify(self, out: _Outbox) -> None:
        """Hand the listeners each logged event in (agent id, due, kind, seq)
        order, with the agent's state just after it."""
        if not out.log:
            return
        entries = []
        for lanes, dues, kind, data, ages, regions, alive in out.log:
            data = data or [None] * len(lanes)
            entries += zip(lanes.tolist(), dues.tolist(), [kind] * len(lanes), data,
                           ages.tolist(), regions.tolist(), alive.tolist())
        entries.sort(key=lambda entry: entry[0])
        for lane, due, kind, data, age, region, alive in entries:
            agent = AgentView(self, lane, age, region, alive)
            event = AgentEvent(date.fromordinal(due), kind, 0, data)
            for fn in self.listeners:
                fn(agent, event)

    def _exchange(self, births: list, to: date) -> list:
        """Phases 2 and 3 as one round: deliver the custom messages, then create
        the newborns of ``births`` in (mother id, birth date) order followed by
        the immigrants whose entry date precedes ``to``, and catch them all up to
        ``to``; the birth requests of the agents created are returned."""
        msgs, self._custom_msgs = self._custom_msgs, []
        for when, target, payload in msgs:
            if target not in self.agents:
                self.dropped_messages += 1
                continue
            queue = self._customs.setdefault(target, [])
            heappush(queue, (max(when, self.date).toordinal(), next(self._custom_seq), payload))
            self._due[_CUSTOM, target] = queue[0][0]
        created = []  # (birth, sex, region, creation date) per group
        if births:
            mothers, when, regions = (np.concatenate(column) for column in zip(*births))
            order = np.lexsort((when, mothers))
            when, regions = when[order], regions[order]
            # a newborn is male (position 1 in SEXES) below male_fraction
            sexes = (self._world_rng.random(len(order)) < self.male_fraction).astype(np.int8)
            created.append((when, sexes, regions, when))
        immigrants = 0
        if self.params.immigration is not None:
            if self._plans_through is None or to.year > self._plans_through:
                self._plan_immigration(to.year)
            queue, first = self._immigrant_queue, self._immigrant_cursor
            # an entry dated exactly on a boundary belongs to the interval that
            # starts there, like any same-day demographic event
            stop = first + int(np.searchsorted(queue.entry[first:], to.toordinal()))
            self._immigrant_cursor, immigrants = stop, stop - first
            entry, region, sex, age, birth = (column[first:stop] for column in queue)
            if immigrants:
                created.append((birth, sex, region,
                                np.maximum(entry, self.step.start.toordinal())))
        if not created:
            return []
        birth, sex, region, at = map(np.concatenate, zip(*created))
        out = _Outbox()
        lanes = self._create(birth, sex, region, at, out)
        self.counters["births"] += len(lanes) - immigrants
        self.counters["immigrants"] += immigrants
        if immigrants:
            out.records.append((METRIC_INDEX["I"], self._years(at[-immigrants:]),
                                region[-immigrants:], sex[-immigrants:], age))
        return self._collect(self._advance(lanes, to.toordinal(), out))

    def _plan_immigration(self, through_year: int) -> None:
        table = self.params.immigration
        start_year = self.step.start.year if self._plans_through is None \
            else self._plans_through + 1
        planned = [self._immigrant_queue]
        for year in range(start_year, through_year + 1):
            cells = table.cells_for_year(year)
            if not cells:
                continue
            regions, sexes, ages, counts = zip(*cells)
            # per immigrant, an entry draw then a birthdate draw
            u = self._world_rng.random(2 * sum(counts))
            first, following = (date(y, 1, 1).toordinal() for y in (year, year + 1))
            entry = first + (u[0::2] * (following - first)).astype(np.int64)
            ages = np.repeat(ages, counts)
            lo, length = dates.birthdate_windows(entry, ages)
            order = np.argsort(entry, kind="stable")
            planned.append(_Planned(*(column[order] for column in (
                entry, np.repeat(self._codes(regions), counts),
                np.repeat([SEXES.index(s) for s in sexes], counts), ages,
                lo + (u[1::2] * length).astype(np.int64)))))
        self._immigrant_queue = _Planned(*map(np.concatenate, zip(*planned)))
        self._plans_through = through_year

    def _flush_records(self) -> None:
        if not self._records:
            return
        metric, *columns = zip(*self._records)
        metric = np.repeat(metric, [len(ages) for ages in columns[-1]])
        year, region, sex, age = map(np.concatenate, columns)
        first = int(year.min())
        shape = (len(METRICS), int(year.max()) - first + 1, len(self._regions), len(SEXES),
                 int(age.max()) + 1)
        cells, counts = np.unique(np.ravel_multi_index((metric, year - first, region, sex, age),
                                                       shape), return_counts=True)
        metric, *codes = np.unravel_index(cells, shape)
        self.census.record_codes(metric, codes, (range(first, first + shape[1]), self._regions,
                                                 SEXES, range(shape[-1])), counts)
        self._records.clear()

    def _sync(self, to: date) -> None:
        if to < self.date:
            raise InputError(f"cannot rewind world from {self.date} to {to}")
        self._prepare(to)
        births = self._exchange(self._advance_all(to.toordinal()), to)
        while births or self._custom_msgs:
            births = self._exchange(births, to)
        if to.year != self.date.year or to >= self.step.end:
            self._flush_records()
        self.date = to

    def _pending_events(self, lane: int) -> list[AgentEvent]:
        events = [AgentEvent(date.fromordinal(due), DUE_KINDS[c], 0,
                             self._regions[self._dest[lane]]
                             if c == _COLUMN[EventKind.INTERNAL_MIGRATION] else None)
                  for c, due in enumerate(self._due[:_CUSTOM, lane].tolist()) if due != _NEVER]
        events += [AgentEvent(date.fromordinal(due), EventKind.CUSTOM, seq, payload)
                   for due, seq, payload in self._customs.get(lane, ())]
        return sorted(events, key=lambda ev: ev[:3])

    # ----- public stepping --------------------------------------------------

    def macro_step(self, until: date) -> None:
        """Advance the whole world to ``until`` (one observe/interfere cycle)."""
        if until <= self.date:
            raise InputError(f"macro step target {until} not after {self.date}")
        self._sync(until)

    def snapshot_population(self, at: date) -> dict:
        """Population counts per (region, sex, age) at ``at``.

        Brings the world up to ``at`` first, so the counts reflect every event
        dated before the instant plus the Birthdays of the day itself.
        """
        self._sync(at)
        alive = self._alive[:self._n]
        return count_population(self._regions, self._region[:self._n][alive],
                                self._sex[:self._n][alive], self._age[:self._n][alive])

    def _record_population(self, year: int) -> None:
        """Book the alive agents' (region, sex, age) counts as the census's
        population of ``year``."""
        alive = self._alive[:self._n]
        region, sex, age = (lane[:self._n][alive] for lane in (self._region, self._sex, self._age))
        shape = (1, len(self._regions), len(SEXES), int(age.max(initial=0)) + 1)
        counts = np.bincount(np.ravel_multi_index((region, sex, age), shape[1:]))
        cells = np.flatnonzero(counts)
        self.census.record_codes(METRIC_INDEX["P"], np.unravel_index(cells, shape),
                                 ([year], self._regions, SEXES, range(shape[-1])), counts[cells])

    def run(self) -> SyntheticCensus:
        """Drive macro steps and Jan-1 snapshots from start to end."""
        regions = self.params.run_regions(self._alive_regions())
        self._check_coverage(regions)
        # the labels the census will meet, so that its arrays are sized once
        years = range(self.step.start.year, self.step.end.year + 1)
        immigration = self.params.immigration
        alive = self._alive[:self._n]
        oldest = max([0, int(self._age[:self._n][alive].max(initial=0)),
                      *(a for (_, _, _, a) in (immigration.counts if immigration else ()))])
        self.census.extend(years, regions, SEXES, range(oldest + len(years)))

        # the Jan-1 snapshot observers and the first macro-step boundary
        queue = [(date(year, 1, 1), 1) for year in years if date(year, 1, 1) >= self.step.start]
        queue.append((self.step.next_boundary(self.step.start), 0))
        heapify(queue)

        try:
            while queue:
                when, prio = heappop(queue)
                t0 = time.perf_counter()
                if prio == 0:
                    self.macro_step(when)
                    if when < self.step.end:
                        heappush(queue, (self.step.next_boundary(when), 0))
                    if log.isEnabledFor(logging.INFO):
                        log.info("macro step to %s: %d agents, %.1f ms", when,
                                 len(self.agents), 1e3 * (time.perf_counter() - t0))
                else:
                    self._sync(when)
                    self._record_population(when.year)
        finally:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
        log.info("run complete: %d agents alive, %d dropped messages",
                 len(self.agents), self.dropped_messages)
        return self.census

    def send_event(self, origin_id: int, target_id: int, when: date, payload) -> None:
        """Queue a cross-agent event; delivered at the next exchange."""
        self.agents[origin_id]  # the sender must be alive
        self._custom_msgs.append(OutboxMessage(when, target_id, payload))


class _Planned(NamedTuple):
    """Planned immigrants, as columns in entry order."""

    entry: np.ndarray   # day ordinal
    region: np.ndarray  # position in World._regions
    sex: np.ndarray
    age: np.ndarray     # at entry, as the immigration table gives it
    birth: np.ndarray   # day ordinal


def check_settings(*, step_unit="year", step_multiplier=1, seed=0, runs=1, workers=1,
                   male_fraction=0.5) -> None:
    """Raise InputError for the first setting given that breaks its rule; MacroStepConfig,
    World, RunConfig, the converters of its file and ScenarioSpec all check through here."""
    for broken, message in (
            (step_unit not in STEP_UNITS,
             f"step unit must be one of {STEP_UNITS}, got {step_unit!r}"),
            (step_multiplier < 1, "step multiplier must be >= 1"),
            (seed < 0, f"seed must be non-negative, got {seed}"),
            (runs < 1, "ensemble size must be >= 1"),
            (workers < 1, "workers must be >= 1"),
            (not 0 <= male_fraction <= 1, "male_fraction must be in [0, 1]")):
        if broken:
            raise InputError(message)


def run_simulation(step: MacroStepConfig, params: ModelParameters,
                   initial_population, seed: int, *, male_fraction: float = 0.5,
                   workers: int = 1) -> SyntheticCensus:
    """Build a world, run it over the horizon, return the synthetic census.

    Identical inputs give identical output for any worker count.
    """
    world = World(step, params, seed, male_fraction=male_fraction, workers=workers)
    world.add_initial_population(initial_population)
    return world.run()
