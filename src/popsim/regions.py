"""Hierarchical region codes.

Codes are dash-separated paths below a country root of two ASCII capitals,
one segment of ASCII letters or digits per level:

    AT              country
    AT-5            federal state
    AT-5-02         district
    AT-5-02-007     municipality

A parameter table stored at a coarse level answers queries for any finer
code by walking the code up to the table's level.
"""

from __future__ import annotations

import re

from .errors import InputError

CODE = re.compile(r"[A-Z]{2}(?:-[A-Za-z0-9]+)*")
LEVEL_NAMES = ("country", "federal-state", "district", "municipality")


def level_of(code: str) -> int:
    if not CODE.fullmatch(code):
        raise InputError(f"malformed region code {code!r}")
    level = code.count("-")
    if level >= len(LEVEL_NAMES):
        raise InputError(f"region code {code!r} is deeper than municipality level")
    return level


def checked(code: str) -> str:
    """``code``, once ``level_of`` accepts it: the parser of a region column."""
    level_of(code)
    return code


def level_name(level: int) -> str:
    return LEVEL_NAMES[level]


def region_at_level(code: str, level: int) -> str:
    """Ancestor of ``code`` at ``level``; ``code`` itself if already there."""
    own = level_of(code)
    if own < level:
        raise InputError(
            f"region {code!r} ({level_name(own)}) is coarser than requested {level_name(level)}"
        )
    return "-".join(code.split("-")[: level + 1])
