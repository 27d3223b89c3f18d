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
import dataclasses
import io
import itertools
import math
import re

import numpy as np

from .errors import InputError

BLOCK_ROWS = 1024  # lines per block: enough to amortise, few enough to keep memory flat
_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?").fullmatch


def number(text: str) -> float:
    """``float(text)`` if it is finite and written as ``repr`` writes floats: ASCII
    digits with an optional leading '-', '.digits' fraction and exponent; else a
    ValueError. ``float`` alone also takes '_', '+', spaces and other digits."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    if not _DECIMAL(text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return value


def read_columns(path, header, parsers, key=(), check=None) -> Columns:
    """The rows csv.reader reads from a CSV table, blank ones left out, by column.

    Rows are read in blocks of BLOCK_ROWS lines. ``parsers`` holds one
    function per column. A label column's parser turns a text into its label
    and runs once per distinct text, in order of first appearance. The column
    whose parser is ``number`` holds the values, parsed once per distinct text of
    a block; ``check(values)``, if given, returns a mask of bad values and why.
    No two rows may share their labels in the ``key`` columns. The first
    failing row is reported at its first failing column, a repeated key at its
    later copy, as an InputError naming the line.
    """
    table = Columns(parsers, check)
    try:
        with open(path, newline="") as fh:
            if [h.strip() for h in next(csv.reader(fh), ())] != list(header):
                raise InputError(f"{path}: expected header {','.join(header)}")
            for columns, wrong in _blocks(fh, len(header)):
                bad = table.extend(columns) or wrong and (table.size, *wrong)
                if bad:
                    table.finish(path, key)  # a key repeated before the row is reported first
                    line = line_of(path, bad[0])
                    raise InputError(f"{path}:{line}: bad row {bad[1]!r}: {bad[2]}")
    except (UnicodeDecodeError, csv.Error) as exc:
        table.finish(path, key)
        raise InputError(f"{path}: unreadable as CSV text: {exc}") from None
    table.finish(path, key)
    return table


def _blocks(fh, width):
    """The rows csv.reader reads from ``fh`` (opened with newline=""), blank
    rows left out, as ``width`` columns of texts per block of BLOCK_ROWS lines;
    with each block, a row of another width that follows it, ``(row, error)``,
    which ends the rows. An error reading a row is raised after the block of
    the rows before it.

    A block without quotes, lone "\\r" line ends, blank lines and overlong lines
    is split with ``str.split``; any other goes through csv.reader, which
    reads on past the block while a quoted field is open.
    """
    limit = csv.field_size_limit()
    while True:
        block, failure, columns, wrong = [], None, None, None
        try:
            block.extend(itertools.islice(fh, BLOCK_ROWS))
        except UnicodeDecodeError as exc:
            failure = exc
        if not block:
            if failure:
                raise failure
            return
        text, n = "".join(block).replace("\r\n", "\n"), len(block)
        if (not any(c in text for c in '"\r') and max(map(len, block)) <= limit
                and text[0] != "\n" and "\n\n" not in text):
            cells = (text if text[-1] == "\n" else text + "\n").replace("\n", ",\n,").split(",")
            # every line has ``width`` cells if every (width + 1)-th cell is a line end
            if len(cells) == n * (width + 1) + 1 and cells[width::width + 1].count("\n") == n:
                columns = [cells[j:-1:width + 1] for j in range(width)]
        if columns is None:
            source = _raising(failure) if failure else fh
            rows, reader = [], csv.reader(itertools.chain(block, source))
            try:
                for row in reader:
                    if row and len(row) != width:  # worded as unpacking the row would be
                        wrong = row, (f"too many values to unpack (expected {width})"
                                      if len(row) > width else f"not enough values to unpack "
                                      f"(expected {width}, got {len(row)})")
                        break
                    if row:
                        rows.append(row)
                    if reader.line_num >= n:
                        break
            except (UnicodeDecodeError, csv.Error) as exc:
                failure = exc
            columns = list(zip(*rows)) or [()] * width
        yield columns, wrong
        if failure:
            raise failure
        if wrong:
            return


def _raising(exc):
    """Lines that end in ``exc`` being raised."""
    raise exc
    yield


def line_of(path, index: int) -> int:
    """Line number of the ``index``-th data row (from 0) of a CSV file, as
    csv.reader counts it; for error messages about a row found after reading."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index, None))


class Columns:
    """A table of ``size`` rows as ``read_columns`` returns it. Label column
    ``j`` lists its distinct labels in ``labels[j]``, in order of first
    appearance, and each row's position in that list in ``codes[j]``;
    ``values`` holds the value column."""

    def __init__(self, parsers, check):
        self.parsers, self.check, self.size = parsers, check, 0
        self.labels = [[] for _ in parsers]
        self._index = [{} for _ in parsers]   # per column: label -> code
        self._codes = [{} for _ in parsers]   # per column: text -> code, -1 if it failed
        self._errors = [{} for _ in parsers]  # per column: text -> what parsing it raised
        self._parts = [[np.zeros(0, float if p is number else np.intp)] for p in parsers]

    def extend(self, columns):
        """Add the rows before the first failing row; ``(index, row, error)``
        of that row, if any."""
        n = len(columns[0]) if columns else 0
        arrays, bad, checked = [], np.zeros(n, dtype=bool), (np.zeros(n, dtype=bool), None)
        for j, texts in enumerate(columns):
            if self.parsers[j] is number:
                arrays.append(_floats(texts, self._errors[j]))
                checked = self.check(arrays[-1]) if self.check else checked
                bad |= np.isnan(arrays[-1]) | checked[0]
            else:
                arrays.append(self._encode(j, texts))
                bad |= arrays[-1] < 0
        first = int(bad.argmax()) if bad.any() else n
        for part, array in zip(self._parts, arrays):
            part.append(array[:first])
        self.size += first
        if first == n:
            return None
        row = [texts[first] for texts in columns]
        for parse, errors, text in zip(self.parsers, self._errors, row):
            if text in errors:  # explained by its first failing column
                return self.size, row, errors[text]
            if parse is number and checked[0][first]:
                return self.size, row, checked[1]

    def _encode(self, j: int, texts) -> np.ndarray:
        """Each text's code in column ``j``, parsing each new text once."""
        codes, index, labels = self._codes[j], self._index[j], self.labels[j]
        try:
            return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))
        except KeyError:  # parse the new texts, in order of first appearance
            for text in dict.fromkeys(texts):
                if text in codes:
                    continue
                try:
                    label = self.parsers[j](text)
                except (ValueError, InputError) as exc:
                    self._errors[j][text], codes[text] = exc, -1
                    continue
                codes[text] = index.setdefault(label, len(labels))
                if codes[text] == len(labels):
                    labels.append(label)
        return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))

    def finish(self, path, key) -> None:
        """Gather the rows read so far; an InputError at the first whose labels
        in the ``key`` columns repeat an earlier row's."""
        self.codes = list(map(np.concatenate, self._parts))
        self.values = self.codes[self.parsers.index(number)] if number in self.parsers else None
        if key:
            group, first = self.groups(key)
            repeats = np.flatnonzero(first[group] != np.arange(self.size)).tolist()
            if repeats:
                raise InputError(f"{path}:{line_of(path, repeats[0])}: duplicate row for "
                                 f"({','.join(map(str, self.row(repeats[0], key)))})")

    def row(self, i: int, columns) -> tuple:
        """The labels of row ``i`` in ``columns``."""
        return tuple(self.labels[j][self.codes[j][i]] for j in columns)

    def column(self, j: int) -> list:
        """Each row's label in column ``j``."""
        return [self.labels[j][i] for i in self.codes[j].tolist()]

    def positions(self, j: int, axis) -> np.ndarray:
        """Each row's position on ``axis``, which holds every label of column ``j``."""
        at = {label: i for i, label in enumerate(axis)}
        return np.array([at[label] for label in self.labels[j]], dtype=np.intp)[self.codes[j]]

    def dense(self, axes) -> np.ndarray:
        """The values over the label ``axes`` of the leading columns; 0 where no row is."""
        out = np.zeros([len(axis) for axis in axes])
        out[tuple(self.positions(j, axis) for j, axis in enumerate(axes))] = self.values
        return out

    def groups(self, columns):
        """Each row's group, the rows sharing their labels in ``columns``,
        numbered in order of first appearance; and each group's first row."""
        key, span = np.zeros(self.size, dtype=np.int64), 1
        for j in columns:
            size = len(self.labels[j])
            if span * size > 2 ** 62:  # renumber, as ravelling on would overflow
                uniques, key = np.unique(key, return_inverse=True)
                span = len(uniques)
            key, span = key * size + self.codes[j], span * size
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        return np.argsort(order)[group], first[order]


def _floats(texts, errors) -> np.ndarray:
    """The texts as ``number`` reads them, each distinct text parsed once (so "-0.0"
    keeps its sign); nan for one it rejects, which goes into ``errors`` with why."""
    parsed = dict.fromkeys(texts)
    for text in parsed:
        try:
            parsed[text] = number(text)
        except ValueError as exc:
            parsed[text], errors[text] = math.nan, exc
    return np.fromiter(map(parsed.__getitem__, texts), float, len(texts))


def sex(text: str) -> str:
    """``text`` if it is ``m`` or ``f``, else a ValueError."""
    if text not in ("f", "m"):
        raise ValueError("sex must be m or f")
    return text


def integer(text: str) -> int:
    """``text`` as an int if it is ASCII digits with an optional leading '-',
    else a ValueError: ``int`` alone also takes '_', '+', spaces and other digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a whole number: {text!r}")
    return int(text)


def age(text: str) -> int:
    """``integer(text)``, rejecting a negative age with a ValueError."""
    value = integer(text)
    if value < 0:
        raise ValueError("negative age")
    return value


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path, header, columns, values, render=repr) -> None:
    """``write_table`` of ``header`` and a row per entry of ``values``: the label
    columns, each given as its distinct labels and each row's position among them,
    then ``render`` of the value. Rows are joined and written BLOCK_ROWS at a time; a
    label is rendered once, a value once per bit pattern in a block (-0.0 keeps its text)."""
    columns = [(np.array([csv_field(label) + "," for label in labels], dtype=object), codes)
               for labels, codes in columns]
    values = np.ascontiguousarray(values, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(values), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            distinct, inverse = np.unique(values[block].view(np.int64), return_inverse=True)
            texts = np.array([render(v) + "\r\n" for v in distinct.view(float).tolist()], object)
            rows = np.stack([*(fields[codes[block]] for fields, codes in columns),
                             texts[inverse]], axis=1)
            fh.write("".join(rows.ravel().tolist()))


def whole_or_repr(value: float) -> str:
    """A count as the census writes it: a whole value as an integer, else ``repr``."""
    return str(int(value)) if value.is_integer() else repr(value)


def csv_field(value) -> str:
    """``value`` as ``write_table`` renders it within a row, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([value, ""])
    return buf.getvalue()[:-1]


def read_settings(path, cls, converters, **given):
    """The dataclass ``cls`` built from flat ``key = value`` text; '#' starts a comment.

    Every field of ``cls`` not in ``given`` is a key; ``converters`` maps a key
    to the function that turns its text into a value, ``str`` by default. A
    repeated key takes its last value, so a line appended to a generated file
    overrides it. An unknown key, an empty value or a value its converter
    rejects is an InputError at ``file:line``; a missing key of a field without
    a default and an InputError ``cls`` raises name the file.
    """
    keys = {f.name for f in dataclasses.fields(cls)} - set(given)
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                key, equals, raw = map(str.strip, line.split("#", 1)[0].partition("="))
                if not (key or equals):
                    continue
                if not equals:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                if key not in keys:
                    raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    if not raw:  # no key takes empty text; a path would name the directory
                        raise ValueError("empty value")
                    values[key] = converters.get(key, str)(raw)
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad value for {key!r}: "
                                     f"{raw!r} ({exc})") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: unreadable as text: {exc}") from None
    for f in dataclasses.fields(cls):
        if f.name in keys - values.keys() and f.default is f.default_factory is dataclasses.MISSING:
            raise InputError(f"{path}: missing key {f.name!r}")
    try:
        return cls(**values, **given)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_key_values(path, pairs) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in pairs)

