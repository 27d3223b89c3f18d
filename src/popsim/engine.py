"""Co-simulation layer: synchronises the per-agent simulations in macro steps.

The layer is itself a small discrete-event simulation whose queue holds
self-rescheduling macro-step boundaries plus Jan-1 snapshot observer events.
Reaching a position X means:

  phase 1  every alive agent processes its pending events dated before X
           (plus Birthdays dated exactly X), buffering census records and
           outbox messages;
  phase 2  messages are applied in deterministic (origin id, sequence)
           order: terminal agents leave the collection, newborns are
           created with their Init dated at the birth date and caught up
           to X, cross-agent events are delivered into target queues
           (messages for removed agents are dropped and counted);
  phase 3  immigrants whose entry date has been reached are injected,
           initialised at their entry date and caught up to X.

Phases 2-3 repeat until quiescent (a caught-up newborn may itself give
birth before X), so the world state at X reflects exactly the events dated
up to X and the census conservation identities hold exactly.

Phase 1 visits only the agents whose queue head is dated on or before X,
in id order (the agent dict keeps creation order). An agent with nothing
due would process no event, draw nothing and emit nothing, so skipping it
leaves the outbox (in origin-id order) and the world stream's draws exactly
as a sweep over every agent would. Phase 1 is parallelisable over agents;
identical results are guaranteed for any worker count because agents own
independent RNG streams, the due agents are split into contiguous id
blocks whose outputs are joined in block order, and all cross-agent effects
flow through the ordered outbox.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date, timedelta
from functools import partial
from heapq import heappop, heappush

from . import dates
from .agents import (DRAW_ORDER, Agent, AgentEvent, EventKind, OutboxMessage, advance,
                     init_agent)
from .census import SyntheticCensus, count_population
from .errors import CoverageError, InputError
from .ipf import MigrationTensor
from .params import KIND_SEXES, PROBABILITY_KINDS, ImmigrationTable, ParameterTable
from .rng import agent_stream, world_stream

log = logging.getLogger(__name__)

STEP_UNITS = ("day", "month", "year")

# fewer agents due than this are advanced on the calling thread
PARALLEL_MIN_DUE = 256


@dataclass(frozen=True)
class MacroStepConfig:
    """Calendar-aligned macro stepping from ``start`` to ``end``."""

    start: date
    end: date
    unit: str = "year"
    multiplier: int = 1

    def __post_init__(self):
        if self.unit not in STEP_UNITS:
            raise InputError(f"step unit must be one of {STEP_UNITS}, got {self.unit!r}")
        if self.multiplier < 1:
            raise InputError("step multiplier must be >= 1")
        if self.start >= self.end:
            raise InputError(f"start {self.start} must precede end {self.end}")

    def next_boundary(self, d: date) -> date:
        if self.unit == "day":
            nxt = d + timedelta(days=self.multiplier)
        elif self.unit == "month":
            nxt = dates.add_months(d, self.multiplier)
        else:
            nxt = dates.shift_years(d, self.multiplier)
        return min(nxt, self.end)


class ModelParameters:
    """Bundle of event-probability tables plus optional immigration inputs.

    The engine and the cohort-projection oracle both read their inputs
    through it: the age rows a life-year draws, the destination rule of
    internal migration (the migration tensor's (origin, age) rows; origins
    whose row sums to zero never move) and the regions a run can meet.
    """

    def __init__(self, tables: dict[str, ParameterTable] | None = None,
                 immigration: ImmigrationTable | None = None,
                 migration_tensor: MigrationTensor | None = None):
        self.tables: dict[str, ParameterTable] = {}
        for kind, table in (tables or {}).items():
            if kind not in PROBABILITY_KINDS:
                raise InputError(f"unknown probability kind {kind!r}")
            if table.kind != kind:
                raise InputError(f"table of kind {table.kind!r} registered as {kind!r}")
            self.tables[kind] = table
        self.immigration = immigration
        self.migration_tensor = migration_tensor
        if "internal_migration" in self.tables and migration_tensor is None:
            raise InputError("internal_migration table requires a migration tensor")
        if migration_tensor is not None:
            migration_tensor.check_single_ages()

    def life_year_rates(self, year: int, region: str, sex: str) -> list:
        """(EventKind, age row) of every kind with a table, in draw order.

        Birth rows are given for women only. The rows come from each table's
        resolved-row cache, read afresh on every call, so replacing a table in
        ``tables`` or calling its ``set_row`` takes effect at the next call.
        """
        tables = self.tables
        return [(kind, tables[name].row(year, region, sex)) for kind, name in DRAW_ORDER[sex]
                if name in tables]

    def sample_destination(self, origin: str, age: int, u: float) -> str | None:
        """The first destination whose cumulative share exceeds ``u`` (the last
        one if none does), or None when nobody of ``age`` leaves ``origin``."""
        tensor = self.migration_tensor
        try:
            o = tensor.position[origin]
        except KeyError:
            raise CoverageError(f"migration tensor: no row for region={origin}") from None
        cum = tensor.cumulative_shares[o, tensor.age_position(age)]
        if cum[-1] <= 0:
            return None
        return tensor.regions[min(bisect_right(cum, u), len(cum) - 1)]

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
        if gaps:
            shown = "; ".join(gaps[:8])
            more = f" (+{len(gaps) - 8} more)" if len(gaps) > 8 else ""
            raise CoverageError(f"parameter coverage gaps: {shown}{more}")


class World:
    """Visible simulation state: agents, clock, census, deterministic RNG."""

    def __init__(self, step: MacroStepConfig, params: ModelParameters, seed: int,
                 *, male_fraction: float = 0.5, workers: int = 1):
        if not 0 <= male_fraction <= 1:
            raise InputError("male_fraction must be in [0, 1]")
        if workers < 1:
            raise InputError("workers must be >= 1")
        if seed < 0:
            raise InputError(f"seed must be non-negative, got {seed}")
        self.step = step
        self.params = params
        self.seed = seed
        self.male_fraction = male_fraction
        self.workers = workers
        self.date = step.start
        self.agents: dict[int, Agent] = {}
        self.census = SyntheticCensus()
        self.listeners: list = []
        self.dropped_messages = 0
        self.counters = {"births": 0, "deaths": 0, "emigrations": 0,
                         "immigrants": 0, "initial": 0}
        self._next_id = 0
        self._world_rng = world_stream(seed)
        self._pending_records: list = []
        self._pending_msgs: list[OutboxMessage] = []
        self._immigrant_queue: list = []
        self._immigrant_cursor = 0
        self._plans_through: int | None = None
        self._window_cache: dict[tuple[date, int], tuple] = {}
        self._covered: set[str] = set()
        self._executor: ThreadPoolExecutor | None = None

    # ----- construction ---------------------------------------------------

    def add_initial_population(self, cells) -> None:
        """Create agents from (region, sex, age, count) cells at the start date.

        Birthdates are sampled uniformly over each age's valid window, once the
        parameters are known to cover the run.
        """
        if self.date != self.step.start:
            raise InputError("initial population must precede the first step")
        cells = sorted(cells)
        self._check_coverage(self.params.run_regions(
            [a.region for a in self.agents.values()] + [c[0] for c in cells if c[3] > 0]))
        for region, sex, age, count in cells:
            if count < 0:
                raise InputError(f"negative population count for ({region},{sex},{age})")
            for _ in range(count):
                birthdate = self.sample_birthdate(self.step.start, age)
                self._create_agent(birthdate, sex, region, self.step.start)
                self.counters["initial"] += 1

    def _check_coverage(self, regions: list[str]) -> None:
        """Raise CoverageError naming every gap of the horizon's parameters for
        ``regions``, unless they were all checked before."""
        if not self._covered.issuperset(regions):
            self.params.validate_coverage(
                range(self.step.start.year - 1, self.step.end.year + 1), regions)
            self._covered.update(regions)

    def sample_birthdate(self, ref: date, age: int) -> date:
        key = (ref, age)
        window = self._window_cache.get(key)
        if window is None:
            lo, hi = dates.birthdate_window(ref, age)
            window = (lo, (hi - lo).days + 1)
            self._window_cache[key] = window
        lo, n = window
        return lo + timedelta(days=int(self._world_rng.random() * n))

    def _create_agent(self, birthdate: date, sex: str, region: str, at: date) -> Agent:
        agent_id = self._next_id
        self._next_id += 1
        agent = init_agent(agent_id, birthdate, sex, region, at,
                           self.params, agent_stream(self.seed, agent_id))
        self.agents[agent_id] = agent
        if self.listeners:
            ev = AgentEvent(at, EventKind.INIT, 0)
            for fn in self.listeners:
                fn(agent, ev)
        return agent

    # ----- phases ----------------------------------------------------------

    def _advance_all(self, bound: date) -> None:
        due = [agent for agent in self.agents.values()
               if agent.events and agent.events[0].due <= bound]
        work = partial(self._advance_block, bound)
        if self.workers == 1 or len(due) < PARALLEL_MIN_DUE or self.listeners:
            results = [work(due)]
        else:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            chunk = (len(due) + self.workers - 1) // self.workers
            results = self._executor.map(work, [due[i:i + chunk]
                                                for i in range(0, len(due), chunk)])
        for records, outbox in results:
            self._pending_records.extend(records)
            self._pending_msgs.extend(outbox)

    def _advance_block(self, bound: date, block: list) -> tuple[list, list]:
        records: list = []
        outbox: list = []
        for agent in block:
            advance(agent, bound, self.params, records, outbox, self.listeners)
        return records, outbox

    def _exchange(self, bound: date) -> None:
        msgs = self._pending_msgs
        self._pending_msgs = []
        for msg in msgs:
            if msg.kind == "terminal":
                self.agents.pop(msg.origin, None)
                key = "deaths" if msg.payload is EventKind.DEATH else "emigrations"
                self.counters[key] += 1
            elif msg.kind == "birth":
                sex = "m" if self._world_rng.random() < self.male_fraction else "f"
                newborn = self._create_agent(msg.date, sex, msg.region, msg.date)
                self.counters["births"] += 1
                advance(newborn, bound, self.params, self._pending_records,
                        self._pending_msgs, self.listeners)
            elif msg.kind == "custom":
                target = self.agents.get(msg.target)
                if target is None or not target.alive:
                    self.dropped_messages += 1
                else:
                    target.schedule(max(msg.date, self.date), EventKind.CUSTOM, msg.payload)
            else:
                raise InputError(f"unknown outbox message kind {msg.kind!r}")

    def _plan_immigration(self, through_year: int) -> None:
        table = self.params.immigration
        start_year = self.step.start.year if self._plans_through is None \
            else self._plans_through + 1
        for year in range(start_year, through_year + 1):
            order = 0
            entries = []
            days = _year_days(year)
            for region, sex, age, count in table.cells_for_year(year):
                for _ in range(count):
                    entry = date(year, 1, 1) + timedelta(
                        days=int(self._world_rng.random() * days))
                    birthdate = self.sample_birthdate(entry, age)
                    entries.append((entry, order, region, sex, age, birthdate))
                    order += 1
            entries.sort(key=lambda e: (e[0], e[1]))
            self._immigrant_queue.extend(entries)
        self._plans_through = through_year

    def _inject_immigrants(self, bound: date) -> None:
        if self.params.immigration is None:
            return
        if self._plans_through is None or bound.year > self._plans_through:
            self._plan_immigration(bound.year)
        queue = self._immigrant_queue
        while self._immigrant_cursor < len(queue):
            entry, _, region, sex, age, birthdate = queue[self._immigrant_cursor]
            if entry >= bound:
                # an entry dated exactly on a boundary belongs to the interval
                # that starts there, like any same-day demographic event
                break
            self._immigrant_cursor += 1
            at = max(entry, self.step.start)
            agent = self._create_agent(birthdate, sex, region, at)
            self.counters["immigrants"] += 1
            self._pending_records.append(("I", at, region, sex, age))
            advance(agent, bound, self.params, self._pending_records,
                    self._pending_msgs, self.listeners)

    def _flush_records(self) -> None:
        self.census.record_cells(Counter((metric, when.year, region, sex, age) for
                                         metric, when, region, sex, age in self._pending_records))
        self._pending_records.clear()

    def _sync(self, to: date) -> None:
        if to < self.date:
            raise InputError(f"cannot rewind world from {self.date} to {to}")
        self._advance_all(to)
        while True:
            self._exchange(to)
            self._inject_immigrants(to)
            if not self._pending_msgs:
                break
        self._flush_records()
        self.date = to

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
        return count_population(self.agents.values())

    def run(self) -> SyntheticCensus:
        """Drive macro steps and Jan-1 snapshots from start to end."""
        regions = self.params.run_regions(a.region for a in self.agents.values())
        self._check_coverage(regions)
        # the labels the census will meet, so that its arrays are sized once
        years = range(self.step.start.year, self.step.end.year + 1)
        immigration = self.params.immigration
        oldest = max([0, *(a.age for a in self.agents.values()),
                      *(a for (_, _, _, a) in (immigration.counts if immigration else ()))])
        self.census.extend(years, regions, ("f", "m"), range(oldest + len(years)))

        queue: list[tuple[date, int]] = []
        d = date(self.step.start.year, 1, 1)
        if d < self.step.start:
            d = date(self.step.start.year + 1, 1, 1)
        while d <= self.step.end:
            heappush(queue, (d, 1))  # snapshot observer
            d = date(d.year + 1, 1, 1)
        heappush(queue, (self.step.next_boundary(self.step.start), 0))

        try:
            while queue:
                when, prio = heappop(queue)
                t0 = time.perf_counter()
                if prio == 0:
                    self.macro_step(when)
                    if when < self.step.end:
                        heappush(queue, (self.step.next_boundary(when), 0))
                    log.info("macro step to %s: %d agents, %.1f ms", when,
                             len(self.agents), 1e3 * (time.perf_counter() - t0))
                else:
                    counts = self.snapshot_population(when)
                    self.census.record_population(when.year, counts)
        finally:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
        log.info("run complete: %d agents alive, %d dropped messages",
                 len(self.agents), self.dropped_messages)
        return self.census

    def send_event(self, origin_id: int, target_id: int, when: date, payload) -> None:
        """Queue a cross-agent event; delivered at the next exchange."""
        origin = self.agents[origin_id]
        self._pending_msgs.append(OutboxMessage(
            origin_id, origin.next_seq(), "custom", when, target=target_id,
            payload=payload))


def _year_days(year: int) -> int:
    return (date(year + 1, 1, 1) - date(year, 1, 1)).days


def run_simulation(step: MacroStepConfig, params: ModelParameters,
                   initial_population, seed: int, *, male_fraction: float = 0.5,
                   workers: int = 1) -> SyntheticCensus:
    """Build a world, run it over the horizon, return the synthetic census.

    Identical inputs give identical output for any worker count.
    """
    world = World(step, params, seed, male_fraction=male_fraction, workers=workers)
    world.add_initial_population(initial_population)
    return world.run()
