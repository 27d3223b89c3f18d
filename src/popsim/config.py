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

from .engine import MacroStepConfig
from .errors import InputError
from .files import integer, number, read_settings, write_key_values


def fraction(text: str) -> float:
    """``number(text)`` if it lies in [0, 1], as ``male_fraction`` must; else a ValueError."""
    value = number(text)
    if not 0 <= value <= 1:
        raise ValueError("must be in [0, 1]")
    return value


# the keys whose values are not kept as text
CONVERTERS = {"step_multiplier": integer, "seed": integer, "runs": integer,
              "workers": integer, "male_fraction": fraction}


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
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.runs < 1:
            raise InputError("ensemble size must be >= 1")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        if not 0 <= self.male_fraction <= 1:
            raise InputError("male_fraction must be in [0, 1]")
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
