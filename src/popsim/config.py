"""Run configuration: flat ``key = value`` text files.

Dates are ISO-8601; file paths are kept verbatim and resolved relative to
the config file's directory when the run is assembled, so a config directory
can be moved as a unit. A run has internal migration exactly when it names a
``params_internal_migration`` table, which needs a ``migration_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path

from .engine import MacroStepConfig, check_settings
from .errors import InputError
from .files import integer, number, read_settings, write_key_values


def _setting(key: str, parse):
    """The converter of ``key``: its text as ``parse`` reads it, held to its rule."""
    def convert(text: str):
        check_settings(**{key: (value := parse(text))})
        return value
    return convert


# the keys whose text is checked or converted, so that a bad value fails at its line
CONVERTERS = {**dict.fromkeys(("start", "end"), lambda text: _parse_date(text) and text), **{
    key: _setting(key, parse) for key, parse in (
        ("step_unit", str), ("step_multiplier", integer), ("seed", integer),
        ("runs", integer), ("workers", integer), ("male_fraction", number))}}


@dataclass(kw_only=True)
class RunConfig:
    start: str
    end: str
    step_unit: str = "year"
    step_multiplier: int = 1
    seed: int = 1
    runs: int = 9
    workers: int = 1
    male_fraction: float = 0.5
    params_death: str | None = None
    params_emigration: str | None = None
    params_birth: str | None = None
    params_internal_migration: str | None = None
    migration_tensor: str | None = None
    immigration: str | None = None
    initial_population: str
    base_dir: str = "."

    def __post_init__(self):
        self.step  # MacroStepConfig checks the dates and the step settings
        check_settings(seed=self.seed, runs=self.runs, workers=self.workers,
                       male_fraction=self.male_fraction)
        if (self.params_internal_migration is None) != (self.migration_tensor is None):
            raise InputError("params_internal_migration and migration_tensor "
                             "must be given together")

    @property
    def start_date(self) -> date:
        return _parse_date(self.start)

    @property
    def end_date(self) -> date:
        return _parse_date(self.end)

    @property
    def step(self) -> MacroStepConfig:
        return MacroStepConfig(self.start_date, self.end_date, self.step_unit, self.step_multiplier)

    def resolve(self, key: str) -> Path | None:
        value = getattr(self, key)
        if value is None:
            return None
        return Path(self.base_dir) / value

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return read_settings(path, cls, CONVERTERS, base_dir=str(Path(path).parent))

    def to_file(self, path) -> None:
        write_key_values(path, [(f.name, getattr(self, f.name)) for f in fields(self)
                                if f.name != "base_dir" and getattr(self, f.name) is not None])


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise InputError(f"bad ISO date {text!r}: {exc}") from None
