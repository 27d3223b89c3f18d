"""Every file popsim reads or writes: CSV tables and ``key = value`` text.

One input contract holds for every table. A CSV file starts with exactly the
expected header; every data row has exactly the header's width; numbers are
finite; no key appears twice. Blank lines are skipped. Any breach is an
InputError naming the file and line, which the command line turns into exit
code 1. Domain checks (kinds, sexes, age coverage, integer counts) stay with
the readers that know the domain.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

from .errors import InputError


def number(text: str) -> float:
    """``float(text)``, rejecting nan and infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def read_table(path, header, parse_row) -> dict:
    """``{key: value}`` of a CSV file's data rows, in file order.

    ``parse_row`` is called once per data row with the row's cells, unpacks
    them all at once (so a row of the wrong width fails) and returns
    ``(key, value)``; a ValueError or InputError it raises becomes an
    InputError naming the row.
    """
    header = list(header)
    table: dict = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None or [h.strip() for h in got] != header:
                raise InputError(f"{path}: expected header {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                try:
                    key, value = parse_row(row)
                except (ValueError, InputError) as exc:
                    raise InputError(f"{path}:{reader.line_num}: bad row {row!r}: {exc}") from None
                if key in table:
                    raise InputError(f"{path}:{reader.line_num}: duplicate row for {_show(key)}")
                table[key] = value
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: unreadable as CSV text: {exc}") from None
    return table


def line_of(path, index: int) -> int:
    """Line number of the ``index``-th data row (from 0) of a CSV file that
    ``read_table`` accepted; for error messages about a row found after reading."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index, None))


def _show(key) -> str:
    """``(2020,AT-1,m,1)`` for a tuple key; one level of nesting is flattened."""
    if not isinstance(key, tuple):
        return str(key)
    parts = (p for part in key for p in (part if isinstance(part, tuple) else (part,)))
    return "(" + ",".join(map(str, parts)) + ")"


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, header, lines) -> None:
    """``write_table`` for rows already rendered: ``csv_field`` of each field,
    joined by commas and ended by csv's "\\r\\n"."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def csv_field(value) -> str:
    """``value`` as ``write_table`` renders it within a row, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([value, ""])
    return buf.getvalue()[:-1]


def read_key_values(path) -> dict[str, str]:
    """Flat ``key = value`` text; '#' starts a comment.

    A repeated key takes its last value, so a line appended to a generated
    config overrides it.
    """
    pairs: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                pairs[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: unreadable as text: {exc}") from None
    return pairs


def write_key_values(path, pairs) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in pairs)


def parse_value(path, key: str, raw: str, convert):
    """``convert(raw)`` for a key of a ``key = value`` file; a malformed value
    is an InputError naming the file and the key."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise InputError(f"{path}: bad value for {key!r}: {raw!r} ({exc})") from None
