"""Spans and call counters recorded around popsim's public functions.

The traced run installs wrappers on module and class attributes from the
benchmark's own code; nothing under ``src/`` knows about them. A span records
(name, parent span, start, end) in typed arrays, so even the per-agent
``advance`` calls cost a few dozen bytes each. The two functions called
millions of times from inside other spans, ``ParameterTable.lookup`` and
``SyntheticCensus.record_event``, are counters instead (calls and summed
time): they leave no span, and their time stays in the self time of the span
that called them. Each counter call is charged to the innermost open span, so
the engine's record flush (inside ``engine.macro_step``) stays apart from the
oracle's bookkeeping (inside ``scenario.cohort_projection``) and from CSV
reads (inside ``census.from_csv``). ``marginal_residual`` is a counter because
IPF calls it once before its first sweep and once after every sweep, so its
call count gives the sweep count.

A span's self time is its duration minus the durations of its direct child
spans. Wrappers are installed only while a traced iteration runs and removed
afterwards, so untraced iterations execute the unmodified functions.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from popsim import cli, engine, ipf, scenario
from popsim.census import SyntheticCensus
from popsim.engine import World
from popsim.ipf import MigrationTensor
from popsim.params import ParameterTable


def _capture_world(stats, world, _result):
    stats["agents_created"] += (world.counters["initial"] + world.counters["births"]
                                + world.counters["immigrants"])
    stats["dropped_messages"] += world.dropped_messages


def _track_alive(stats, world, _result):
    stats["peak_alive"] = max(stats["peak_alive"], len(world.agents))


# (span name, owner, attribute, hook run with (stats, self, result) after the call).
# popsim.engine and popsim.cli import these functions by name, so the wrappers
# go on those modules' attributes.
SPANS = (
    ("agents.advance", engine, "advance", None),
    ("agents.init_agent", engine, "init_agent", None),
    ("rng.agent_stream", engine, "agent_stream", None),
    ("census.count_population", engine, "count_population", None),
    ("engine.run", World, "run", _capture_world),
    ("engine.macro_step", World, "macro_step", _track_alive),
    ("engine.snapshot_population", World, "snapshot_population", None),
    ("engine.add_initial_population", World, "add_initial_population", None),
    ("params.derive", cli, "derive_params_from_census", None),
    ("ipf", cli, "ipf_3d", None),
    ("ipf.tensor_from_csv", MigrationTensor, "from_csv", None),
    ("census.to_csv", SyntheticCensus, "to_csv", None),
    ("census.from_csv", SyntheticCensus, "from_csv", None),
    ("scenario.cohort_projection", scenario, "cohort_projection", None),
    ("validation.deviation_report", cli, "deviation_report", None),
    ("validation.ensemble_mean", cli, "ensemble_mean", None),
)

COUNTERS = (
    ("params.lookup", ParameterTable, "lookup"),
    ("census.record_event", SyntheticCensus, "record_event"),
    ("ipf.marginal_residual", ipf, "marginal_residual"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # counter name -> {name id of the innermost open span (-1: none) -> [calls, s]}
        self.counters = {name: defaultdict(lambda: [0, 0.0]) for name, _, _ in COUNTERS}
        self.world = {"agents_created": 0, "dropped_messages": 0, "peak_alive": 0}
        self._patches = []
        for name, owner, attr, hook in SPANS:
            self._plan(owner, attr, functools.partial(self._spanned, name, hook))
        for name, owner, attr in COUNTERS:
            self._plan(owner, attr, functools.partial(self._counted, self.counters[name]))

    # ----- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name, hook, fn):
        name_id = self._name_id(name)
        open_, close, stats = self._open, self._close, self.world

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(stats, args[0], result)
            return result
        return wrapper

    def _counted(self, by_caller, fn):
        stack, span_name = self._stack, self.span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                top = stack[-1]
                acc = by_caller[span_name[top] if top >= 0 else -1]
                acc[0] += 1
                acc[1] += perf_counter() - t0
        return wrapper

    # ----- installation -----------------------------------------------------

    def _plan(self, owner, attr, make) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._patches.append((owner, attr, original, wrapped))

    @contextmanager
    def installed(self):
        """The wrappers in place for the duration of the block, the originals after."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # ----- results ----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to the next iteration."""
        return len(self.span_name)

    def take(self, since: int) -> dict:
        """Per-name calls, seconds and self seconds of the spans from ``since``,
        plus the counters and world statistics, which are reset. A counter
        appears as its total under its own name and per caller under
        ``<counter>@<innermost span name>``."""
        names = np.frombuffer(self.span_name[since:], dtype=np.int32)
        parents = np.frombuffer(self.span_parent[since:], dtype=np.int32) - since
        durations = (np.frombuffer(self.span_end[since:], dtype=np.float64)
                     - np.frombuffer(self.span_start[since:], dtype=np.float64))
        inside = parents >= 0
        child = np.bincount(parents[inside], weights=durations[inside],
                            minlength=len(durations))
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=durations, minlength=n)
        self_total = np.bincount(names, weights=durations - child, minlength=n)
        out = {name: {"calls": int(calls[i]), "s": float(total[i]),
                      "self_s": float(self_total[i])}
               for i, name in enumerate(self.names)}
        for name, by_caller in self.counters.items():
            out[name] = {"calls": 0, "s": 0.0}
            for caller, (calls_, seconds) in by_caller.items():
                out[f"{name}@{self.names[caller] if caller >= 0 else ''}"] = \
                    {"calls": calls_, "s": seconds}
                out[name]["calls"] += calls_
                out[name]["s"] += seconds
            by_caller.clear()
        out["world"] = dict(self.world)
        self.world.update(agents_created=0, dropped_messages=0, peak_alive=0)
        return out

    def write(self, path) -> None:
        """All spans of the run, written once at the end."""
        np.savez_compressed(path, workload=np.array(self.workload), names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
