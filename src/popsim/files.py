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

    Rows are read in blocks of BLOCK_ROWS lines, split as bytes while they are
    plain (see ``_tokens``); from the first block that is not (or a header that
    is not) on, by csv.reader. ``parsers`` holds one function per column. A
    label column's parser turns a text into its label and runs once per distinct
    text, in order of first appearance. The column whose parser is ``number``
    holds the values, parsed once per distinct text of a block; ``check(values)``,
    if given, returns a mask of bad values and why. No two rows may share their
    labels in the ``key`` columns. The first failing row is reported at its first
    failing column, a repeated key at its later copy, as an InputError naming the
    line.
    """
    table = Columns(parsers, check)

    def add(bad):
        if bad:
            table.finish(path, key)  # a key repeated before the row is reported first
            raise InputError(f"{path}:{line_of(path, bad[0])}: bad row {bad[1]!r}: {bad[2]}")

    try:
        with open(path, "rb") as raw:
            first, done = raw.readline(), 0  # csv.reader reads past ``done`` lines, unless None
            if _plain_line(first):
                _check_header(path, first.rstrip(b"\r\n").decode().split(","), header)
                done = None
                for columns in _plain_blocks(raw, len(header)):
                    if columns is None:
                        done = 1 + table.size
                        break
                    add(table.add(columns))
        if done is not None:  # a text file from the start decodes as csv.reader alone would
            with open(path, newline="") as fh:
                if done:
                    next(itertools.islice(fh, done - 1, None))
                else:
                    _check_header(path, next(csv.reader(fh), ()), header)
                for columns, wrong in _blocks(fh, len(header)):
                    add(table.extend(columns) or wrong and (table.size, *wrong))
    except (UnicodeDecodeError, csv.Error) as exc:
        try:
            table.finish(path, key)
        except UnicodeDecodeError:  # a repeated key in text that does not decode has no line
            pass
        raise InputError(f"{path}: unreadable as CSV text: {exc}") from None
    table.finish(path, key)
    return table


def _check_header(path, fields, header) -> None:
    if [h.strip() for h in fields] != list(header):
        raise InputError(f"{path}: expected header {','.join(header)}")


def _plain_line(line: bytes) -> bool:
    """Whether csv.reader reads ``line`` as ``line.split(",")``, its line end left out."""
    return (line.isascii() and b'"' not in line and b"\0" not in line and
            line.count(b"\r") == line.endswith(b"\r\n") and len(line) <= csv.field_size_limit())


def _plain_blocks(raw, width):
    """The blocks of BLOCK_ROWS lines that ``raw``, a binary file, holds from its
    position on, each as ``_tokens`` gives it while it is plain; then None if one is not.

    One buffer holds the block's bytes and the start of the next, with 8 bytes of
    padding that the byte-strided word view of ``_tokens`` may read into.
    """
    buf, size, more = np.empty(2 ** 16 + 8, np.uint8), 0, True
    while True:
        lines = np.flatnonzero(buf[:size] == 10)
        while more and len(lines) < BLOCK_ROWS:
            if size + 8 == len(buf):  # a block longer than the buffer: double it
                buf = np.concatenate([buf[:size], np.empty(size + 8, np.uint8)])
            got = raw.readinto(memoryview(buf)[size:-8])
            more, size = got > 0, size + got
            lines = np.flatnonzero(buf[:size] == 10)
        if not size:
            return
        if len(lines) >= BLOCK_ROWS:
            lines = lines[:BLOCK_ROWS]
        elif buf[size - 1] != 10:  # the last line has no line end: give it one
            buf[size] = 10
            lines = np.append(lines, size)
        end = int(lines[-1]) + 1
        columns = _tokens(buf, end, lines, width)
        yield columns
        if columns is None:
            return
        size = max(size - end, 0)
        buf[:size] = buf[end:end + size]


_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # a word's first k bytes


def _tokens(buf, end, lines, width):
    """Each column of the block ``buf[:end]``, whose lines end at ``lines``, as
    (its distinct texts in order of first appearance, each row's position among
    them); None if the block is not plain: if a line has another width, a blank
    line, a quote, NUL, non-ASCII byte or "\\r" but before "\\n", or more bytes
    than csv.field_size_limit().

    A field's key is its bytes read as little-endian uint64 words, masked past its
    end: exact, as a plain field holds no NUL. A column of fields of 8 bytes or
    fewer has one word per field, whose np.unique sorts integers, not strings.
    """
    data, n, limit = buf[:end], len(lines), csv.field_size_limit()
    commas = np.flatnonzero(data == 44)
    crlf = data[lines - 1] == 13  # lines ended by "\r\n"
    if (len(commas) != n * (width - 1) or (data == 34).any()
            or not 0 < data.min() <= data.max() < 128  # a NUL or a non-ASCII byte
            or np.count_nonzero(data == 13) != np.count_nonzero(crlf)
            or end > limit and np.diff(lines, prepend=-1).max() > limit):
        return None
    starts, stops = np.empty((2, width, n), np.intp)
    stops[:-1] = commas.reshape(n, width - 1).T
    stops[-1] = lines - crlf
    starts[0, 0], starts[0, 1:], starts[1:] = 0, lines[:-1] + 1, stops[:-1] + 1
    lengths = stops - starts
    # given as many commas as the lines need, a line with more than its share holds a
    # field that stops before it starts
    if (lengths < 0).any() or (stops[-1] == starts[0]).any():  # or a line is blank
        return None
    words, top = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,)), len(buf) - 8
    columns = []
    for at, rest in zip(starts, lengths):
        nwords = max(-(-int(rest.max()) // 8), 1)
        keys = np.empty((nwords, n), np.uint64)
        for i in range(nwords):
            if i:  # the next word, masked off past the field's end, so read it clamped
                at, rest = np.minimum(at + 8, top), np.maximum(rest - 8, 0)
            keys[i] = words[at] & _MASKS[np.minimum(rest, 8)]
        if (keys == keys[:, :1]).all():  # one text throughout, as a sorted file's first columns
            columns.append(([keys[:, 0].tobytes().rstrip(b"\0").decode()], np.zeros(n, np.intp)))
            continue
        keys = keys[0] if nwords == 1 else keys.T.copy().view(f"S{8 * nwords}").ravel()
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        texts = distinct[order].view(f"S{8 * nwords}").tolist()
        columns.append((list(map(bytes.decode, texts)), rank[inverse.ravel()]))
    return columns


def _blocks(fh, width):
    """The rows csv.reader reads from ``fh`` (opened with newline=""), blank
    rows left out, as ``width`` columns of texts per block of BLOCK_ROWS lines;
    with each block, a row of another width that follows it, ``(row, error)``,
    which ends the rows. An error reading a row is raised after the block of
    the rows before it. csv.reader reads on past a block while a quoted field
    is open.
    """
    while True:
        block, failure, wrong = [], None, None
        try:
            block.extend(itertools.islice(fh, BLOCK_ROWS))
        except UnicodeDecodeError as exc:
            failure = exc
        if not block:
            if failure:
                raise failure
            return
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
                if reader.line_num >= len(block):
                    break
        except (UnicodeDecodeError, csv.Error) as exc:
            failure = exc
        yield list(zip(*rows)) or [()] * width, wrong
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
        """``add`` of rows given as a list of texts per column."""
        return self.add([_distinct(texts) for texts in columns])

    def add(self, columns):
        """Add the rows before the first failing row, given per column as its
        distinct texts in order of first appearance and each row's position among
        them; ``(index, row, error)`` of that row, if any."""
        n = len(columns[0][1])
        arrays, bad, checked = [], np.zeros(n, dtype=bool), (np.zeros(n, dtype=bool), None)
        for j, (texts, inverse) in enumerate(columns):
            if self.parsers[j] is number:
                arrays.append(_floats(texts, self._errors[j])[inverse])
                checked = self.check(arrays[-1]) if self.check else checked
                bad |= np.isnan(arrays[-1]) | checked[0]
            else:
                arrays.append(self._encode(j, texts)[inverse])
                bad |= arrays[-1] < 0
        first = int(bad.argmax()) if bad.any() else n
        for part, array in zip(self._parts, arrays):
            part.append(array[:first])
        self.size += first
        if first == n:
            return None
        row = [texts[inverse[first]] for texts, inverse in columns]
        for parse, errors, field in zip(self.parsers, self._errors, row):
            if field in errors:  # explained by its first failing column
                return self.size, row, errors[field]
            if parse is number and checked[0][first]:
                return self.size, row, checked[1]

    def _encode(self, j: int, texts) -> np.ndarray:
        """The code in column ``j`` of each of the distinct ``texts``; a new one is parsed."""
        codes, index, labels = self._codes[j], self._index[j], self.labels[j]
        try:
            return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))
        except KeyError:  # parse the new texts, in order of first appearance
            for text in texts:
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
        for part in self._parts:  # a column at a time, so that no two are held twice
            part[:] = [np.concatenate(part)]
        self.codes = [part[0] for part in self._parts]
        self.values = self.codes[self.parsers.index(number)] if number in self.parsers else None
        if key:  # stably sorted, a row with the key of the one before repeats an earlier row
            keys = self._key(key)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            repeats = order[1:][keys[1:] == keys[:-1]]
            if len(repeats):
                at = int(repeats.min())
                raise InputError(f"{path}:{line_of(path, at)}: duplicate row for "
                                 f"({','.join(map(str, self.row(at, key)))})")

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
        _, first, group = np.unique(self._key(columns), return_index=True, return_inverse=True)
        order = np.argsort(first)
        return np.argsort(order)[group], first[order]

    def _key(self, columns) -> np.ndarray:
        """Each row's labels in ``columns`` as one int64, equal where they are."""
        key, span = np.zeros(self.size, dtype=np.int64), 1
        for j in columns:
            size = len(self.labels[j])
            if span * size > 2 ** 62:  # renumber, as ravelling on would overflow
                uniques, key = np.unique(key, return_inverse=True)
                span = len(uniques)
            key *= size
            key += self.codes[j]
            span *= size
        return key


def _floats(texts, errors) -> np.ndarray:
    """The distinct ``texts`` as ``number`` reads them (so "-0.0" keeps its sign); nan
    for one it rejects, which goes into ``errors`` with why."""
    values = np.empty(len(texts))
    for i, text in enumerate(texts):
        try:
            values[i] = number(text)
        except ValueError as exc:
            values[i], errors[text] = math.nan, exc
    return values


def _distinct(texts):
    """The distinct ``texts`` in order of first appearance, and each text's position
    among them."""
    index = {}
    inverse = np.fromiter((index.setdefault(t, len(index)) for t in texts), np.intp, len(texts))
    return list(index), inverse


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

