"""The columnar CSV reader and writer: one dialect, the rows csv.reader reads from it,
errors at their lines."""

import contextlib
import csv
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim import files
from popsim.census import CENSUS_CSV_HEADER, SyntheticCensus
from popsim.cli import main
from popsim.errors import InputError
from popsim.ipf import MarginalSet, MigrationTensor, read_marginals_csv, write_marginals_csv
from popsim.params import ImmigrationTable, ParameterTable
from popsim.scenario import ScenarioSpec, read_population_csv

from test_census_digests import WORKLOAD_SPECS

# ----- errors at their lines -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b-c", "x y"]), st.sampled_from(["\n", "\r\n"])),
                min_size=1, max_size=40),
       st.data())
def test_a_bad_value_is_reported_at_csv_line_num(tmp_path_factory, cells, data):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    bad = data.draw(st.integers(0, len(cells) - 1))
    text = "label,value\n" + "".join(f"{label}{i},{'x' if i == bad else i}{ending}"
                                     for i, (label, ending) in enumerate(cells))
    path.write_text(text, newline="")
    with mock.patch.object(files, "BLOCK_ROWS", data.draw(st.integers(1, 6))):
        with pytest.raises(InputError, match=rf"t\.csv:{bad + 2}: bad row .*could not convert"):
            files.read_columns(path, ("label", "value"), (str, files.number))


# per reason: a census's lines from line 3 on, the line that ends the read and the message
GOOD = b"P,2021,AT-1,m,5,1\n"
DAMAGED = {
    "quote": (b'P,2021,"AT-1",m,5,1\n' + GOOD, 3, "line holds a quote"),
    "nul": (b"P,2021,AT-1,m,5\0,1\n" + GOOD, 3, "line holds a NUL byte"),
    "non-ascii": ("P,2021,AT-\u00fc,m,5,1\n".encode() + GOOD, 3, "line holds a non-ASCII byte"),
    "undecodable": (b"P,2021,AT-1,m,5,1\xff\n" + GOOD, 3, "line holds a non-ASCII byte"),
    "lone cr": (b"P,2021,AT-1\r,m,5,1\n" + GOOD, 3, "line holds a CR not before its line feed"),
    "cr at the end": (GOOD + b"P,2022,AT-1,m,5,1\r", 4, "line holds a CR not before its line feed"),
    "blank line": (b"\r\n" + GOOD, 3, "blank line"),
    "blank line at the end": (GOOD + b"\n", 4, "blank line"),
    "overlong": (b"P,2021,AT-1,m,5," + b"1" * files.LINE_LIMIT + b"\n" + GOOD, 3,
                 f"line longer than {files.LINE_LIMIT} bytes"),
    "too wide": (b"P,2021,AT-1,m,5,1,1\n" + GOOD, 3, "bad row ['P', '2021', 'AT-1', 'm', '5', "
                 "'1', '1']: too many values to unpack (expected 6)"),
    "too narrow": (b"P,2021,AT-1,m,5\n" + GOOD, 3, "bad row ['P', '2021', 'AT-1', 'm', '5']: "
                   "not enough values to unpack (expected 6, got 5)"),
}


@pytest.mark.parametrize("reason", sorted(DAMAGED))
def test_a_line_outside_the_dialect_exits_1_at_its_line(tmp_path, reason):
    tail, line, message = DAMAGED[reason]
    path = tmp_path / "census.csv"
    path.write_bytes(b"metric,year,region,sex,age,count\r\nP,2020,AT-1,m,5,3\r\n" + tail)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["--quiet", "derive-params", "--census", str(path), "--kind", "death",
                     "--out", str(tmp_path / "derived.csv")])
    assert (code, err.getvalue()) == (1, f"error: {path}:{line}: {message}\n")


# ----- errors past the first block ------------------------------------------------------

def _census_text(n):
    """A header and ``n`` distinct census rows."""
    return ["metric,year,region,sex,age,count"] + [
        f"P,{2000 + i // 200},AT-{1 + i // 100 % 2},{'mf'[i % 2]},{i % 100},{i}" for i in range(n)]


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_an_error_past_the_first_block_names_its_line(tmp_path):
    lines = _census_text(3000)
    lines[2500] = lines[2500].rsplit(",", 1)[0] + ",-4"
    lines.insert(2700, "")  # a blank line after the failing row leaves the row reported

    def read():
        return files.read_columns(_write(tmp_path / "census.csv", lines), CENSUS_CSV_HEADER,
                                  (str,) * 5 + (files.number,),
                                  check=lambda count: (count < 0, "negative count"))

    with pytest.raises(InputError, match=r"census\.csv:2501: .*negative count"):
        read()
    # a blank line or a quoted field before it is reported instead, at its line
    lines.insert(2100, "")
    with pytest.raises(InputError, match=r"census\.csv:2101: blank line$"):
        read()
    lines[1500] = lines[1500].replace(",AT-1,", ',"AT-1",')
    with pytest.raises(InputError, match=r"census\.csv:1501: line holds a quote$"):
        read()


def test_the_earlier_of_two_failing_rows_is_reported(tmp_path):
    lines = _census_text(2500)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",-1"
    lines[1999] = lines[1999].replace(",AT-", ",AT--", 1)
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:3: .*negative count"):
        SyntheticCensus.from_csv(path)
    lines = _census_text(2500)
    lines[1999] = lines[1999].rsplit(",", 1)[0] + ",-1"
    lines[1500] = lines[1500].replace(",AT-", ",AT--", 1)
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:1501: .*malformed region code 'AT--"):
        SyntheticCensus.from_csv(path)


def test_a_duplicate_of_an_earlier_block_is_reported_on_the_later_copy(tmp_path):
    lines = _census_text(2500)
    lines.insert(1800, lines[10])
    path = _write(tmp_path / "census.csv", lines)
    key = lines[10].rsplit(",", 1)[0]
    with pytest.raises(InputError, match=rf"census\.csv:1801: duplicate row for \({key}\)"):
        SyntheticCensus.from_csv(path)
    # a failing row after the duplicate leaves the duplicate reported; one before it wins
    lines[2200] = lines[2200].rsplit(",", 1)[0] + ",nan"
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:1801: duplicate row"):
        SyntheticCensus.from_csv(path)
    lines[1200] = lines[1200].rsplit(",", 1)[0] + ",nan"
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:1201: .*not a finite number"):
        SyntheticCensus.from_csv(path)


def test_a_row_failing_twice_is_reported_at_its_first_failing_column(tmp_path):
    lines = _census_text(3)
    lines[2] = "P,2000,AT--1,f,1,-1"
    with pytest.raises(InputError, match=r"census\.csv:3: .*malformed region code 'AT--1'$"):
        SyntheticCensus.from_csv(_write(tmp_path / "census.csv", lines))


def test_a_short_row_past_the_first_block_names_its_line(tmp_path):
    lines = _census_text(2000)
    lines[1500] = lines[1500].rsplit(",", 1)[0]
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:1501: .*not enough values to unpack "
                                         r"\(expected 6, got 5\)"):
        SyntheticCensus.from_csv(path)


def test_a_large_census_reads_as_recorded(tmp_path):
    lines = _census_text(3000)
    census = SyntheticCensus.from_csv(_write(tmp_path / "census.csv", lines))
    assert census.get("P", 2014, "AT-2", "m", 98) == 2998
    assert sum(1 for _ in census.items("P")) == 3000
    path = tmp_path / "again.csv"
    census.to_csv(path)
    with open(path, newline="") as fh:
        assert next(csv.reader(fh)) == list(CENSUS_CSV_HEADER)


def test_keys_stay_distinct_when_their_codes_overflow_int64(tmp_path):
    # 2**16 labels in each of four columns: ravelled on, the first column's code
    # would be multiplied by 2**64 and vanish, so the last row would repeat the first
    lines = ["a,b,c,d,e,v"] + [f"x,{i},{i},{i},{i},1" for i in range(2 ** 16)] + ["y,0,0,0,0,1"]
    table = files.read_columns(_write(tmp_path / "t.csv", lines), "abcdev",
                               (str,) * 5 + (files.number,), key=range(5))
    group, first = table.groups(range(5))
    assert len(first) == 2 ** 16 + 1 and table.row(2 ** 16, range(5)) == ("y", "0", "0", "0", "0")
    lines.append("y,0,0,0,0,2")
    with pytest.raises(InputError, match=r"t\.csv:65539: duplicate row for \(y,0,0,0,0\)"):
        files.read_columns(_write(tmp_path / "t.csv", lines), "abcdev",
                           (str,) * 5 + (files.number,), key=range(5))


def test_an_overlong_line_ends_the_read_at_its_line(tmp_path):
    # the line's field would have a key matrix of LINE_LIMIT / 8 words by the block's
    # 200 rows, 26 MB, and its column's copy as bytes as much again
    lines = _census_text(200)
    lines[150] = lines[150].replace(",f,", f",{'f' * files.LINE_LIMIT},", 1)
    path = _write(tmp_path / "census.csv", lines)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=rf"census\.csv:151: line longer than "
                                             rf"{files.LINE_LIMIT} bytes$"):
            SyntheticCensus.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # a line of LINE_LIMIT bytes before its line feed, its CR included, is read
    lines = ["h,v", "a" * (files.LINE_LIMIT - 3) + ",1\r", "b,2"]
    table = files.read_columns(_write(tmp_path / "t.csv", lines), "hv", (str, files.number))
    assert table.size == 2 and len(table.labels[0][0]) == files.LINE_LIMIT - 3


@pytest.mark.parametrize("quoted", [False, True])  # a line with a quote, else an overlong one
def test_rows_before_an_unreadable_one_are_checked_first(tmp_path, quoted):
    lines = _census_text(20)
    lines[12] = (lines[12].replace(",f,", ',"f",', 1) if quoted else
                 lines[12].replace(",f,", f",{'f' * (files.LINE_LIMIT + 1)},", 1))
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-1"
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:4: .*negative count"):
        SyntheticCensus.from_csv(path)
    lines[3] = lines[2]
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:4: duplicate row"):
        SyntheticCensus.from_csv(path)
    lines[3] = "P,2020,AT-1,m,1,1"
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=r"census\.csv:13: line (holds a quote|longer than)"):
        SyntheticCensus.from_csv(path)


@pytest.mark.parametrize("quoted", [False, True])  # a quote, else a byte that does not decode
def test_rows_before_undecodable_text_are_checked_first(tmp_path, quoted):
    lines = _census_text(900)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-1"
    path = tmp_path / "census.csv"

    def write():
        data = "\n".join(lines).encode()
        path.write_bytes(data[:-100] + (b'"' if quoted else b"\xff") + data[-100:])
        return data[:-100].count(b"\n") + 1  # the line of the byte

    write()
    with pytest.raises(InputError, match=r"census\.csv:4: .*negative count"):
        SyntheticCensus.from_csv(path)
    lines[3] = "P,2020,AT-1,m,1,1"
    line = write()
    with pytest.raises(InputError, match=rf"census\.csv:{line}: line holds a "
                                         rf"{'quote' if quoted else 'non-ASCII byte'}$"):
        SyntheticCensus.from_csv(path)


def test_undecodable_text_at_a_block_start_is_unreadable(tmp_path):
    lines = _census_text(900)
    lines[301] = "\udcff" + lines[301]  # the first line of the fourth block of 100 rows
    path = tmp_path / "census.csv"
    path.write_bytes("\n".join(lines).encode(errors="surrogateescape"))
    with mock.patch.object(files, "BLOCK_ROWS", 100):
        with pytest.raises(InputError, match=r"census\.csv:302: line holds a non-ASCII byte$"):
            SyntheticCensus.from_csv(path)


def test_a_nul_ends_the_read_at_its_line(tmp_path):
    lines = _census_text(3)
    lines[2] = lines[2].replace(",f,1,", ",f,1\0,", 1)
    path = _write(tmp_path / "census.csv", lines)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2][4] == "1\0"  # which csv.reader reads as a field
    # a column parsed as text does not take it either
    with pytest.raises(InputError, match=r"census\.csv:3: line holds a NUL byte$"):
        files.read_columns(path, CENSUS_CSV_HEADER, (str,) * 5 + (files.number,))


def test_labels_are_parsed_once_per_distinct_text(tmp_path):
    seen = []

    def label(text):
        seen.append(text)
        return text.strip()

    path = _write(tmp_path / "t.csv", ["label,value"] + [f"{' ' * (i % 2)}a{i % 3},{i}"
                                                         for i in range(3000)])
    with mock.patch.object(files, "BLOCK_ROWS", 100):
        table = files.read_columns(path, ("label", "value"), (label, files.number))
    assert sorted(seen) == sorted({f"{' ' * (i % 2)}a{i % 3}" for i in range(6)})
    assert table.labels[0] == ["a0", "a1", "a2"]
    assert table.column(0)[:4] == ["a0", "a1", "a2", "a0"]
    assert np.array_equal(table.values, np.arange(3000.0))


def test_values_are_parsed_once_per_distinct_text_per_block(tmp_path):
    seen, parse = [], files.number

    def number(text):
        seen.append(text)
        return parse(text)

    texts = ["0.5", "-0.0", "0.0", "3", "1e-05"]
    path = _write(tmp_path / "t.csv", ["label,value"] + [f"a{i},{texts[i % 5]}"
                                                         for i in range(250)])
    with mock.patch.object(files, "BLOCK_ROWS", 100), mock.patch.object(files, "number", number):
        table = files.read_columns(path, ("label", "value"), (str, files.number))
    assert seen == texts * 3  # each block's distinct texts, in order of first appearance
    assert table.values.tolist() == [float(texts[i % 5]) for i in range(250)]
    assert np.signbit(table.values).tolist() == [i % 5 == 1 for i in range(250)]
    # a bad text first seen past the first block is reported at its line
    for bad, message in (("1_0", "not a plain decimal number"), ("1e999", "not a finite number")):
        lines = ["label,value"] + [f"a{i},{texts[i % 5]}" for i in range(250)]
        lines[234] = f"a233,{bad}"
        _write(path, lines)
        with mock.patch.object(files, "BLOCK_ROWS", 100):
            with pytest.raises(InputError, match=rf"t\.csv:235: bad row .*{message}: '{bad}'"):
                files.read_columns(path, ("label", "value"), (str, files.number))


# ----- the byte path reads what csv.reader reads, in the dialect -----------------------

SIZES = (0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 31, 33)  # field lengths around 8-byte words
NUMBERS = ("0", "-0.0", "0.0", "3", "1e-05", "0.1234567890123456", "-12345678.25", "1_0",
           "1e999", "ab")
NOT_PLAIN = ("quote", "lone cr", "cr end", "blank line", "blank end", "nul", "non-ascii",
             "undecodable", "wide", "narrow", "widths", "overlong", "header")
REASONS = {"quote": "line holds a quote", "header": "line holds a quote",
           "lone cr": "line holds a CR not before its line feed",
           "cr end": "line holds a CR not before its line feed",
           "nul": "line holds a NUL byte", "non-ascii": "line holds a non-ASCII byte",
           "undecodable": "line holds a non-ASCII byte"}


def _body(line: str) -> str:
    """``line`` without its line end."""
    return line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


@st.composite
def byte_tables(draw):
    """A header and data lines over a few distinct fields per column (a value column
    last, maybe), "\\n" or "\\r\\n" line ends, maybe no final one, and maybe one line
    made not a row of the dialect by ``kind``; the width, whether there is a value
    column, the line limit, the kind and the index of the line it damaged (-1: the
    header)."""
    width, values = draw(st.integers(1, 3)), draw(st.booleans())
    limit = draw(st.sampled_from([72, files.LINE_LIMIT]))  # some plain lines exceed 72
    base = draw(st.text("ab -", min_size=SIZES[-1], max_size=SIZES[-1]))
    fields = st.sampled_from(SIZES).flatmap(lambda n: st.text("ab -", min_size=n, max_size=n))
    pools = [draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4))
             if values and j == width - 1 else  # and two labels differing in their last byte
             draw(st.lists(fields, max_size=3)) + [base[:n - 1] + c for n in
                                                   [draw(st.sampled_from(SIZES[1:]))] for c in "ab"]
             for j in range(width)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=40))
    lines = [",".join(row) + draw(st.sampled_from(["\n", "\r\n"])) for row in rows]
    if draw(st.booleans()):
        lines[-1] = _body(lines[-1])  # no final line end
    kind = draw(st.sampled_from((None, *NOT_PLAIN)))
    at = draw(st.integers(0, len(lines) - 1))
    body, end = _body(lines[at]), lines[at][len(_body(lines[at])):]
    head, rest = rows[at][0], lines[at][len(rows[at][0]):]
    wide, narrow = body + ",x" + end, body.rpartition(",")[0] + end
    if kind == "widths" and at + 1 < len(lines):  # the commas two lines need, not per line
        nxt = _body(lines[at + 1]), lines[at + 1][len(_body(lines[at + 1])):]
        if draw(st.booleans()) or width == 1:
            lines[at + 1] = nxt[0].rpartition(",")[0] + nxt[1]
        else:
            wide, lines[at + 1] = narrow, nxt[0] + ",x" + nxt[1]
    elif kind == "cr end":
        at = len(lines) - 1
        lines[at] = _body(lines[at]) + "\r"
    elif kind == "blank end":
        lines[-1] = _body(lines[-1]) + "\n"
        at = len(lines)
    elif kind == "blank line":
        lines.insert(at, draw(st.sampled_from(["\n", "\r\n"])))
    lines = lines + ["\n"] if kind == "blank end" else lines
    lines[at] = {"quote": f'"{head}"{rest}', "nul": f"{head}\0{rest}",
                 "lone cr": "\r" + lines[at], "non-ascii": f"{head}\u00e9{rest}",
                 "undecodable": f"{head}\udcff{rest}", "overlong": "a" * limit + "b" + rest,
                 "wide": wide, "widths": wide, "narrow": narrow}.get(kind, lines[at])
    header = ",".join(f"h{j}" for j in range(width))
    if kind == "header":
        header, at = f'"{header}"', -1
    return header, lines, width, values, limit, kind, at if kind else None


def _first_fault(lines, width, limit, kind, at):
    """The index of the first of ``lines`` that is not a row of the dialect, and its
    message after ``file:line: ``; None if every line is a row."""
    for i, line in enumerate(lines):
        if not line:  # a last row of one empty field and no line end is no line
            continue
        text = line.encode(errors="surrogateescape").removesuffix(b"\n")
        if len(text) > limit:
            return i, f"line longer than {limit} bytes"
        if not _body(line):
            return i, "blank line"
        if i == at:
            row = _body(line).split(",")
            if kind not in REASONS and len(row) != width:
                return i, f"bad row {row!r}: " + (
                    f"too many values to unpack (expected {width})" if len(row) > width else
                    f"not enough values to unpack (expected {width}, got {len(row)})")
            return i, REASONS[kind]
    return None


def _parsers(width, values, calls):
    """The parsers of a table with ``values`` or not, logging every call in ``calls``:
    a label is its text stripped, and one ending in "--" is rejected."""
    def label(text):
        calls.append(text)
        if text.endswith("--"):
            raise ValueError(f"bad label {text!r}")
        return text.strip()

    def number(text):
        calls.append(text)
        return parse(text)

    parse = files.number
    return [label] * (width - values) + [number] * values


def _read_logged(path, width, values, key):
    """What ``read_columns`` returns bitwise, or the InputError it raises, and every call
    of a parser in order."""
    calls = []
    parsers = _parsers(width, values, calls)
    with mock.patch.object(files, "number", parsers[-1] if values else files.number):
        try:
            table = files.read_columns(path, [f"h{j}" for j in range(width)], parsers, key=key)
        except InputError as exc:
            return str(exc), calls
    return (table.size, table.labels,
            [codes.view(np.int64).tolist() for codes in table.codes]), calls


def _csv_reader_reads(path, text, width, values, key, block_rows):
    """What ``_read_logged`` should give for ``text``, a header and rows of the dialect,
    worked out row by row from csv.reader's rows: label texts parsed once per file,
    value texts once per block, each block's new texts in order of first appearance."""
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    calls = []
    parsers, parsed = _parsers(width, values, calls), [{} for _ in range(width)]
    out, failing = [[] for _ in range(width)], None  # per column, each row's label or error
    for start in range(0, len(rows), block_rows):
        block = rows[start:start + block_rows]
        for j, parse in enumerate(parsers):
            seen = {} if values and j == width - 1 else parsed[j]
            for field in dict.fromkeys(row[j] for row in block):
                if field not in seen:
                    try:
                        seen[field] = parse(field)
                    except ValueError as exc:
                        seen[field] = exc
            out[j] += [seen[row[j]] for row in block]
        failing = next((i for i in range(start, len(out[0]))
                        if any(isinstance(column[i], Exception) for column in out)), None)
        if failing is not None:
            break
    firsts = {}
    for i in range(len(rows) if failing is None else failing):
        labels = tuple(out[j][i] for j in key)
        if key and firsts.setdefault(labels, i) != i:
            return f"{path}:{i + 2}: duplicate row for ({','.join(labels)})", calls
    if failing is not None:
        error = next(column[failing] for column in out if isinstance(column[failing], Exception))
        return f"{path}:{failing + 2}: bad row {rows[failing]!r}: {error}", calls
    labels = [[] if values and j == width - 1 else list(dict.fromkeys(column))
              for j, column in enumerate(out)]
    codes = [np.array(column, float).view(np.int64).tolist() if values and j == width - 1 else
             [labels[j].index(label) for label in column] for j, column in enumerate(out)]
    return (len(rows), labels, codes), calls


@settings(max_examples=600, deadline=None)
@given(byte_tables(), st.integers(1, 6), st.booleans())
def test_the_byte_path_reads_what_csv_reader_reads(tmp_path_factory, table, block_rows, keyed):
    header, lines, width, values, limit, kind, at = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    text = header + "\n" + "".join(lines)
    path.write_bytes(text.encode(errors="surrogateescape"))  # "\\udcff" as the byte 0xff
    key = range(width - values) if keyed else ()
    with mock.patch.object(files, "BLOCK_ROWS", block_rows), \
            mock.patch.object(files, "LINE_LIMIT", limit):
        outcome = _read_logged(path, width, values, key)
    if kind == "header":
        assert outcome == (f"{path}:1: line holds a quote", [])
        return
    fault = _first_fault(lines, width, limit, kind, at)
    # the rows before the first line that is not one are read as a file of their own;
    # an error among them is reported, else that line
    before = header + "\n" + "".join(lines[:fault[0]] if fault else lines)
    expected, calls = _csv_reader_reads(path, before, width, values, key, block_rows)
    if fault and not isinstance(expected, str):
        expected = f"{path}:{fault[0] + 2}: {fault[1]}"
    assert outcome == (expected, calls)


def test_a_repeat_before_a_line_outside_the_dialect_is_reported_first(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"h0,h1\na,1\na,1\nb\xff,1\n")
    for block_rows in (2, 3):  # the repeat in the block before the line, or in its block
        with mock.patch.object(files, "BLOCK_ROWS", block_rows):
            with pytest.raises(InputError, match=r"t\.csv:3: duplicate row for \(a\)$"):
                files.read_columns(path, ("h0", "h1"), (str, files.number), key=(0,))
    path.write_bytes(b"h0,h1\na,1\nb,1\nb\xff,1\n")
    with pytest.raises(InputError, match=r"t\.csv:4: line holds a non-ASCII byte$"):
        files.read_columns(path, ("h0", "h1"), (str, files.number), key=(0,))


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_every_file_the_pipeline_writes_is_read_as_bytes(tmp_path, name):
    fields, unit = WORKLOAD_SPECS[name]
    spec = ScenarioSpec(**fields)
    spec.to_file(tmp_path / "scenario.conf")
    inputs, runs = tmp_path / "inputs", tmp_path / "runs"
    assert main(["--quiet", "gen-synthetic", "--spec", str(tmp_path / "scenario.conf"),
                 "--seed", "1", "--out-dir", str(inputs)]) == 0
    with open(inputs / "run.conf", "a") as fh:
        fh.write(f"step_unit = {unit}\n")
    assert main(["--quiet", "simulate", "--config", str(inputs / "run.conf"),
                 "--out-dir", str(runs)]) == 0
    assert main(["--quiet", "derive-params", "--census", str(inputs / "reference_census.csv"),
                 "--kind", "death", "--out", str(tmp_path / "derived_death.csv")]) == 0
    regions, ages = sorted(spec.regions), range(spec.max_age + 1)
    tensor = MigrationTensor(regions, ages, np.random.default_rng(1).random(
        (len(regions), len(regions), len(ages))))
    marginals = [tmp_path / f"{part}.csv" for part in ("od", "emig", "imm")]
    write_marginals_csv(tensor.marginals(), *marginals)
    assert main(["--quiet", "ipf", "--od", str(marginals[0]), "--emigrants", str(marginals[1]),
                 "--immigrants", str(marginals[2]), "--out", str(tmp_path / "fitted.csv")]) == 0
    readers = {"params": ParameterTable.from_csv, "derived": ParameterTable.from_csv,
               "immigration": ImmigrationTable.from_csv, "initial": read_population_csv,
               "migration": MigrationTensor.from_csv, "fitted": MigrationTensor.from_csv,
               "reference": SyntheticCensus.from_csv, "run": SyntheticCensus.from_csv,
               "mean": SyntheticCensus.from_csv}
    paths = sorted(set(tmp_path.rglob("*.csv")) - set(marginals))
    assert len(paths) == len(list(inputs.glob("*.csv"))) + spec.ensemble_runs + 3
    # no block takes the search for a line that is not a row: each header alone is checked
    with mock.patch.object(files, "_fault", wraps=files._fault) as fault:
        for path in paths:
            readers[path.stem.split("_")[0]](path)
        read_marginals_csv(*marginals)
    assert fault.call_count == len(paths) + len(marginals)


# ----- writers render as csv.writer does --------------------------------------------------

def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_writers_render_rows_as_csv_writer_does(tmp_path):
    regions = ("AT-1", "AT-2")  # the tables take region codes, which csv never quotes
    table = ParameterTable("death", 2)
    table.set_row(2020, regions[1], "m", [0.1, 1 / 3, 0.0])
    table.set_row(2020, regions[0], "f", [1e-17, 0.5, 1.0])
    table.to_csv(tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "p_ref.csv", ("kind", "year", "region", "sex", "age", "value"),
        [["death", y, r, s, a, repr(float(v))] for (y, r, s) in sorted(table._rows)
         for a, v in enumerate(table._rows[(y, r, s)])])

    immigration = ImmigrationTable()
    immigration.add(2021, regions[1], "f", 3, 2)
    immigration.add(2020, regions[0], "m", 30, 7)
    immigration.add(2020, regions[0], "m", 4, 1)
    immigration.to_csv(tmp_path / "i.csv")
    assert (tmp_path / "i.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "i_ref.csv", ("kind", "year", "region", "sex", "age", "value"),
        [["immigration", *key, immigration.counts[key]] for key in sorted(immigration.counts)])
    assert ImmigrationTable.from_csv(tmp_path / "i.csv").counts == immigration.counts

    labels = ("A T-1", "")  # the tensor and marginals take labels that are no region code
    values = np.random.default_rng(7).random((2, 2, 3))
    tensor = MigrationTensor(labels, (0, 1, 2), values)
    tensor.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "t_ref.csv", ("origin", "destination", "age", "value"),
        [[o, d, a, repr(float(tensor.values[i, j, k]))] for i, o in enumerate(labels)
         for j, d in enumerate(labels) for k, a in enumerate(tensor.ages)])

    marginals = MarginalSet(labels, (0, 1, 2), values.sum(axis=2), values.sum(axis=1),
                            values.sum(axis=0))
    paths = [tmp_path / f"{name}.csv" for name in ("od", "emig", "imm")]
    write_marginals_csv(marginals, *paths)
    assert paths[0].read_bytes() == _csv_writer_bytes(
        tmp_path / "od_ref.csv", ("origin", "destination", "value"),
        [[o, d, repr(float(marginals.od[i, j]))] for i, o in enumerate(labels)
         for j, d in enumerate(labels)])
    assert paths[1].read_bytes() == _csv_writer_bytes(
        tmp_path / "emig_ref.csv", ("region", "age", "value"),
        [[r, a, repr(float(marginals.emig_by_age[i, k]))] for i, r in enumerate(labels)
         for k, a in enumerate(marginals.ages)])
    # a label the dialect cannot hold is rejected by name before the file is opened
    for label in ('A"T-1', "A,T-2", "AT\r1", "AT\n1", "AT-\u00fc", "AT\x001"):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            MigrationTensor((label, "AT-2"), (0,)).to_csv(tmp_path / "rejected.csv")
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_marginals_csv(MarginalSet((label, "AT-2"), (0,), np.ones((2, 2)),
                                            np.ones((2, 1)), np.ones((2, 1))),
                                *[tmp_path / "rejected.csv"] * 3)
        assert not (tmp_path / "rejected.csv").exists()


# values repr writes in every form, wholes the census rule writes as integers, and -0.0
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 2.0 ** 70, 1e-05, 1.5e16, 3.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A T-1", "", "AT-3"]), st.integers(0, 3),
                          FLOATS), max_size=30),
       st.integers(1, 6), st.sampled_from([repr, files.whole_or_repr]))
def test_write_columns_writes_what_csv_writer_writes(tmp_path_factory, rows, block_rows, render):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    values = [value for *_, value in rows]
    with mock.patch.object(files, "BLOCK_ROWS", block_rows):  # repeats straddle blocks
        files.write_columns(path, ("region", "age", "value"),
                            [np.unique([row[j] for row in rows], return_inverse=True)
                             for j in range(2)], values, render)
    assert path.read_bytes() == _csv_writer_bytes(
        path.with_name("ref.csv"), ("region", "age", "value"),
        [[region, age, render(value)] for region, age, value in rows])
    # read back bitwise: -0.0 keeps its sign, which the census rule writes as 0
    table = files.read_columns(path, ("region", "age", "value"), (str, files.age, files.number))
    assert list(zip(table.column(0), table.column(1))) == [row[:2] for row in rows]
    expected = np.array(values, dtype=float) + (0.0 if render is files.whole_or_repr else -0.0)
    assert table.values.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_writers_reject_a_header_field_outside_the_dialect(tmp_path):
    path = tmp_path / "t.csv"
    for header in (("a,b", "v"), ('"a"', "v"), ("\u00e9", "v")):
        with pytest.raises(ValueError, match=re.escape(repr(header[0]))):
            files.write_columns(path, header, [(["x"], np.zeros(1, np.intp))], [1.0])
        with pytest.raises(ValueError, match=re.escape(repr(header[0]))):
            files.write_table(path, header, [("x", "1.0")])
        assert not path.exists()


def test_population_csv_reads_rows_in_file_order(tmp_path):
    path = _write(tmp_path / "pop.csv", ["region,sex,age,count", "AT-2,m,4,1",
                                         "AT-1,f,0,0", "AT-2,f,4,3"])
    assert read_population_csv(path) == [("AT-2", "m", 4, 1), ("AT-1", "f", 0, 0),
                                         ("AT-2", "f", 4, 3)]
    _write(path, ["region,sex,age,count", "AT-2,m,4,1", "", "AT-1,f,0,0"])
    with pytest.raises(InputError, match=r"pop\.csv:3: blank line$"):
        read_population_csv(path)
    _write(path, ["region,sex,age,count", "AT-2,m,4,1", "AT-2,x,4,1"])
    with pytest.raises(InputError, match=r"pop\.csv:3: .*sex must be m or f"):
        read_population_csv(path)


def _read_emigrants(path):
    od = path.with_name("od.csv")
    od.write_text("origin,destination,value\nAT-1,AT-2,1.0\n")
    return read_marginals_csv(od, path, path)


# per reader: the reader, its header and a good row
READERS = {
    "census": (SyntheticCensus.from_csv, "metric,year,region,sex,age,count", "P,2020,AT-1,m,5,3"),
    "parameter": (ParameterTable.from_csv, "kind,year,region,sex,age,value",
                  "death,2020,AT-1,all,0,0.1"),
    "population": (read_population_csv, "region,sex,age,count", "AT-1,m,5,3"),
    "tensor": (MigrationTensor.from_csv, "origin,destination,age,value", "AT-1,AT-2,0,1.0"),
    "emigrants": (_read_emigrants, "region,age,value", "AT-1,0,1.0"),
}


def _rejected(text, message):
    """The error of a file whose line 3 holds ``text``: ``message``, or the dialect's
    if ``text`` is not ASCII."""
    return r"table\.csv:3: " + (message if text.isascii() else "line holds a non-ASCII byte$")


def _read_with_field(tmp_path, reader, column, text):
    """Read a file of ``reader``'s good row and, on line 3, that row with ``text``
    in ``column``."""
    read, header, good = READERS[reader]
    fields = good.split(",")
    fields[column] = text
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{good}\n{','.join(fields)}\n", encoding="utf-8")
    return read(path)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "+1", " 1"])
@pytest.mark.parametrize("reader, column", [
    ("census", 1), ("census", 4), ("parameter", 1), ("parameter", 4), ("population", 2),
    ("population", 3), ("tensor", 2), ("emigrants", 1)])
def test_integer_columns_take_ascii_digits_only(tmp_path, reader, column, text):
    with pytest.raises(InputError, match=_rejected(text, rf"bad row .*{re.escape(repr(text))}")):
        _read_with_field(tmp_path, reader, column, text)


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 7 ", "+1", ".5", "1.", "0x1"])
@pytest.mark.parametrize("reader, column", [
    ("census", 5), ("parameter", 5), ("tensor", 3), ("emigrants", 2)])
def test_value_columns_take_plain_decimals_only(tmp_path, reader, column, text):
    with pytest.raises(InputError, match=_rejected(text, rf"bad row .*{re.escape(repr(text))}")):
        _read_with_field(tmp_path, reader, column, text)


def test_number_parser():
    for text in ("0", "-0.0", "12", "0.1", "1e-05", "5e-324", "1.5e+16", "1E5", "007"):
        assert files.number(text) == float(text)
    assert str(files.number("-0.0")) == "-0.0"
    for text in ("1_0", "\u0663", " 7 ", "7\n", "+1", ".5", "1.", "1e", "0x1", "", "-"):
        with pytest.raises(ValueError):
            files.number(text)
    for text in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ValueError, match="not a finite number"):
            files.number(text)


def test_integer_parser():
    assert [files.integer(text) for text in ("0", "-1", "0042")] == [0, -1, 42]
    assert files.age("10") == 10
    for text in ("1_0", "\u0663", "+1", " 1", "1 ", "", "-", "1.0", "0x1"):
        with pytest.raises(ValueError):
            files.integer(text)
    with pytest.raises(ValueError, match="negative age"):
        files.age("-1")


@pytest.mark.parametrize("code", ["inf", "x", "at-1", "AT-\u00fc", "ATX-1", "A"])
@pytest.mark.parametrize("reader, column", [
    ("census", 2), ("parameter", 2), ("population", 0), ("tensor", 0), ("tensor", 1),
    ("emigrants", 0)])
def test_region_columns_take_only_region_codes(tmp_path, reader, column, code):
    with pytest.raises(InputError, match=_rejected(code, rf".*malformed region code '{code}'")):
        _read_with_field(tmp_path, reader, column, code)

