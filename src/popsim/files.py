"""Every file popsim reads or writes: CSV tables and ``key = value`` text.

Every table is read and written in one dialect: ASCII, ',' between fields, no
quotes, lines ending in "\\n" or "\\r\\n" (the last one may have none). A table
starts with exactly the expected header; every data row has exactly its width,
so data row ``i`` is line ``i + 2``; numbers are finite; no key appears twice.
Any other line (see ``_fault``) or breach is an InputError naming the file and
line, which the command line turns into exit code 1. Domain checks (kinds, sexes,
age coverage, integer counts) stay with the readers that know the domain: a parser
or check is a pure function of one text or block, a rule across rows checks the columns.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .errors import InputError

BLOCK_ROWS = 1024  # lines per block: enough to amortise, few enough to keep memory flat
LINE_LIMIT = 131_072  # bytes before a line feed: bounds the key matrices _tokens builds
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
    """The data rows of a CSV table in the dialect, by column.

    Rows are read as bytes in blocks of BLOCK_ROWS lines and split in numpy (see
    ``_tokens``). ``parsers`` holds one function per column. A label column's
    parser turns a text into its label and runs once per distinct text, in no set
    order, so it must be a pure function of its text; the order of ``labels`` is
    unspecified too. The column whose parser is ``number`` holds the values,
    parsed once per distinct text of a block; ``check(values)``, if given, is as
    pure and returns a mask of bad values and why. Rules across rows are the
    caller's to check after the read. No two rows may share their labels in the
    ``key`` columns. The first failing row is reported at its first failing
    column, a repeated key at its later copy, and a line that is not a row (see
    ``_fault``) only if no row before it fails, as an InputError naming the line.
    """
    table = Columns(parsers, check)
    with open(path, "rb") as raw:
        first = raw.readline(LINE_LIMIT + 1)
        why = first and _fault(first)
        if why:
            raise InputError(f"{path}:1: {why}")
        if [h.strip() for h in first.rstrip(b"\r\n").decode().split(",")] != list(header):
            raise InputError(f"{path}: expected header {','.join(header)}")
        for columns, why in _blocks(raw, len(header)):
            bad = columns and table.add(columns) or why and (table.size, why)
            if bad:
                table.finish(path, key)  # a key repeated before the row is reported first
                raise InputError(f"{path}:{bad[0] + 2}: {bad[1]}")
    table.finish(path, key)
    return table


def _fault(line: bytes, width=0) -> str | None:
    """Why ``line``, with its line feed if it has one, is not a line of the dialect,
    or not of ``width`` fields if given; None if it is."""
    text = line.removesuffix(b"\n")
    body = text.removesuffix(b"\r") if len(text) < len(line) else text
    for bad, why in ((len(text) > LINE_LIMIT, f"line longer than {LINE_LIMIT} bytes"),
                     (not body, "blank line"), (b'"' in body, "line holds a quote"),
                     (b"\0" in body, "line holds a NUL byte"),
                     (not body.isascii(), "line holds a non-ASCII byte"),
                     (b"\r" in body, "line holds a CR not before its line feed")):
        if bad:
            return why
    row = body.decode().split(",")
    if width and len(row) != width:  # worded as unpacking the row would be
        return f"bad row {row!r}: " + (
            f"too many values to unpack (expected {width})" if len(row) > width else
            f"not enough values to unpack (expected {width}, got {len(row)})")


def _blocks(raw, width):
    """Each block of BLOCK_ROWS lines that ``raw``, a binary file, holds from its position
    on, as ``_tokens`` gives it, and None; then at the first line ``_fault`` finds, its
    block's lines before it (None if none) and why.

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
        # a last line ending in "\r" looks ended by "\r\n" once given its line end
        columns = None if end > size and buf[size - 1] == 13 else _tokens(buf, end, lines, width)
        if columns is None:  # the first line that is not a row, and the lines before it
            starts = [0, *(lines[:-1] + 1).tolist()]
            faults = ((i, _fault(buf[start:min(stop + 1, size)].tobytes(), width))
                      for i, (start, stop) in enumerate(zip(starts, lines.tolist())))
            i, why = next(fault for fault in faults if fault[1])
            yield (_tokens(buf, starts[i], lines[:i], width) if i else None), why
            return
        yield columns, None
        size = max(size - end, 0)
        buf[:size] = buf[end:end + size]


_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # a word's first k bytes


def _tokens(buf, end, lines, width):
    """Each column of the block ``buf[:end]``, whose lines end at ``lines``, as
    (its distinct texts, in no set order, and each row's position among them); None
    if a line is not a row of ``width`` fields in the dialect (see ``_fault``).

    A field's key is its bytes read as little-endian uint64 words, masked past its
    end: exact, as a field of the dialect holds no NUL. A column of fields of 8 bytes
    or fewer has one word per field, whose np.unique sorts integers, not strings.
    """
    data, n = buf[:end], len(lines)
    commas = np.flatnonzero(data == 44)
    crlf = data[lines - 1] == 13  # lines ended by "\r\n"
    if (len(commas) != n * (width - 1) or (data == 34).any()
            or not 0 < data.min() <= data.max() < 128  # a NUL or a non-ASCII byte
            or np.count_nonzero(data == 13) != np.count_nonzero(crlf)
            or end > LINE_LIMIT and np.diff(lines, prepend=-1).max() > LINE_LIMIT + 1):
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
        distinct, inverse = np.unique(keys, return_inverse=True)
        texts = distinct.view(f"S{8 * nwords}").tolist()
        columns.append((list(map(bytes.decode, texts)), inverse.ravel()))
    return columns


class Columns:
    """A table of ``size`` rows as ``read_columns`` returns it. Label column
    ``j`` lists its distinct labels in ``labels[j]``, in no set order, and each
    row's position in that list in ``codes[j]``; ``values`` holds the value column."""

    def __init__(self, parsers, check):
        self.parsers, self.check, self.size = parsers, check, 0
        self.labels = [[] for _ in parsers]
        self._index = [{} for _ in parsers]   # per column: label -> code
        self._codes = [{} for _ in parsers]   # per column: text -> code, -1 if it failed
        self._errors = [{} for _ in parsers]  # per column: text -> what parsing it raised
        self._parts = [[np.zeros(0, float if p is number else np.intp)] for p in parsers]

    def add(self, columns):
        """Add the rows before the first failing row, given per column as its
        distinct texts, in no set order, and each row's position among them;
        ``(index, message)`` of that row, if any."""
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
                return self.size, f"bad row {row!r}: {errors[field]}"
            if parse is number and checked[0][first]:
                return self.size, f"bad row {row!r}: {checked[1]}"

    def _encode(self, j: int, texts) -> np.ndarray:
        """The code in column ``j`` of each of the distinct ``texts``. A new text is parsed
        once, by a pure parser, and a new label takes the next code: no order is set."""
        codes, index, labels = self._codes[j], self._index[j], self.labels[j]
        try:
            return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))
        except KeyError:  # parse the new texts
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
                raise InputError(f"{path}:{at + 2}: duplicate row for "
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


_UNWRITABLE = re.compile(r'[^\x01-\x7f]|[,"\r\n]').search  # a NUL or non-ASCII, too


def _line(fields, end="\r\n") -> str:
    """``fields`` as a line of the dialect ended by ``end``; a ValueError naming a
    field that the dialect cannot hold."""
    fields = list(map(str, fields))
    for field in fields:
        if _UNWRITABLE(field):
            raise ValueError(f"label {field!r} cannot be written as a plain CSV field")
    return ",".join(fields) + end


def write_table(path, header, rows) -> None:
    """``header`` and ``rows``, each a sequence of fields, as lines of the dialect."""
    text = "".join(map(_line, [header, *rows]))
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_columns(path, header, columns, values, render=repr) -> None:
    """``write_table`` of ``header`` and a row per entry of ``values``: the label
    columns, each given as its distinct labels and each row's position among them,
    then ``render`` of the value. A label the dialect cannot hold is a ValueError
    raised before the file is opened. Rows are joined and written BLOCK_ROWS at a
    time; a label is rendered once, a value once per bit pattern in a block (-0.0
    keeps its text)."""
    head = _line(header)
    columns = [(np.array([_line([label], ",") for label in labels], dtype=object), codes)
               for labels, codes in columns]
    values = np.ascontiguousarray(values, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(head)
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


def read_settings(path, cls, converters, **given):
    """The dataclass ``cls`` built from flat ``key = value`` text; '#' starts a comment.

    Every field of ``cls`` not in ``given`` is a key; ``converters`` maps a key
    to the function that turns its text into a value, ``str`` by default. A
    repeated key takes its last value, so a line appended to a generated file
    overrides it. An unknown key, an empty value, a NUL or a value its converter
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
                    if not raw or "\0" in raw:  # a path would name the directory, or not open
                        raise ValueError("NUL byte" if raw else "empty value")
                    values[key] = converters.get(key, str)(raw)
                except (ValueError, InputError) as exc:
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

