"""Run configuration: flat ``key = value`` text files.

Dates are ISO-8601; file paths are kept verbatim and resolved relative to
the config file's directory when the run is assembled, so a config directory
can be moved as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path

from .engine import MacroStepConfig
from .errors import InputError
from .files import parse_value, read_key_values, write_key_values

IM_MODES = ("none", "full-regional")


@dataclass
class RunConfig:
    start: str = "2020-01-01"
    end: str = "2030-01-01"
    step_unit: str = "year"
    step_multiplier: int = 1
    seed: int = 1
    runs: int = 9
    workers: int = 1
    internal_migration: str = "none"
    male_fraction: float = 0.5
    params_death: str | None = None
    params_emigration: str | None = None
    params_birth: str | None = None
    params_internal_migration: str | None = None
    migration_tensor: str | None = None
    immigration: str | None = None
    initial_population: str | None = None
    reference_census: str | None = None
    base_dir: str = "."

    def __post_init__(self):
        self.step  # MacroStepConfig checks the dates and the step settings
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.runs < 1:
            raise InputError("ensemble size must be >= 1")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        if self.internal_migration not in IM_MODES:
            raise InputError(f"internal_migration must be one of {IM_MODES}")
        if not 0 <= self.male_fraction <= 1:
            raise InputError("male_fraction must be in [0, 1]")
        if self.initial_population is None:
            raise InputError("config needs an initial_population file")
        if self.internal_migration == "full-regional":
            if not (self.params_internal_migration and self.migration_tensor):
                raise InputError("full-regional mode needs params_internal_migration "
                                 "and migration_tensor files")

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
        path = Path(path)
        pairs = read_key_values(path)
        valid = {f.name for f in fields(cls) if f.name != "base_dir"}
        kwargs: dict = {"base_dir": str(path.parent)}
        for key, raw in pairs.items():
            if key not in valid:
                raise InputError(f"{path}: unknown config key {key!r}")
            if key in ("step_multiplier", "seed", "runs", "workers"):
                kwargs[key] = parse_value(path, key, raw, int)
            elif key == "male_fraction":
                kwargs[key] = parse_value(path, key, raw, float)
            else:
                kwargs[key] = raw
        try:
            return cls(**kwargs)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None

    def to_file(self, path) -> None:
        write_key_values(path, [(f.name, getattr(self, f.name)) for f in fields(self)
                                if f.name != "base_dir" and getattr(self, f.name) is not None])


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise InputError(f"bad ISO date {text!r}: {exc}") from None
