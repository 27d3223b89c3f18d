"""The columnar CSV reader: the rows csv.reader reads, errors at their lines."""

import csv
import io
import re
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

ENDINGS = ("\n", "\r\n", "\r")

# mostly plain labels, some with the characters csv quotes or that csv.reader alone reads
labels = st.one_of(st.text("ab-1 ", max_size=4), st.text('ab,"\n\r\0 ', max_size=4))


def render(row, ending):
    """``row`` as csv.writer writes it, ended by ``ending``: fields holding a
    "\\r" or "\\n" are quoted whatever the line end."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(row)
    return out.getvalue()[:-2] + ending


@st.composite
def tables(draw):
    """CSV text (blank lines, mixed line ends, maybe no final newline) and its width."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(labels, min_size=width, max_size=width), max_size=30))
    endings = [draw(st.sampled_from(ENDINGS)) for _ in rows]
    if endings and draw(st.booleans()):
        endings[-1] = ""  # no final line end
    text = ""
    for row, ending in zip(rows, endings):
        if draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(ENDINGS))  # a blank line
        text += render(row, ending)
    return text, width


def csv_rows(text):
    """(line_num, row) of each row csv.reader reads, blank rows left out."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return [(reader.line_num, row) for row in reader if row]


def reader_rows(text, width, block_rows):
    """Each row ``files._blocks`` reads, and the row of another width that ends them."""
    rows, wrong = [], None
    with mock.patch.object(files, "BLOCK_ROWS", block_rows):
        for columns, wrong in files._blocks(io.StringIO(text, newline=""), width):
            assert len(columns) == width and len({len(column) for column in columns}) == 1
            rows += [list(row) for row in zip(*columns)]
    return rows, wrong


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 6))
def test_blocks_read_the_rows_csv_reader_reads(table, block_rows):
    text, width = table
    assert reader_rows(text, width, block_rows) == ([row for _, row in csv_rows(text)], None)


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_a_row_of_another_width_ends_the_rows_at_its_line(tmp_path_factory, table, data):
    text, width = table
    rows = [row for _, row in csv_rows(text)] or [[""] * width]
    at = data.draw(st.integers(0, len(rows) - 1))
    extra = data.draw(st.sampled_from([-1, 1]) if width > 1 else st.just(1))
    rows[at] = rows[at] + ["x"] if extra > 0 else rows[at][:-1]
    text = "".join(render(row, data.draw(st.sampled_from(ENDINGS))) for row in rows)
    expected = csv_rows(text)
    block_rows = data.draw(st.integers(1, 6))
    rows, wrong = reader_rows(text, width, block_rows)
    assert rows == [row for _, row in expected[:at]] and wrong[0] == expected[at][1]
    # read as a file, the row is reported at its line as csv.reader counts it
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text("h" + ",h" * (width - 1) + "\n" + text, newline="")
    with mock.patch.object(files, "BLOCK_ROWS", block_rows):
        with pytest.raises(InputError) as error:
            files.read_columns(path, ("h",) * width, (str,) * width)
    assert re.fullmatch(rf".*t\.csv:{expected[at][0] + 1}: bad row .*: (too many|not enough) "
                        r"values to unpack \(expected \d.*\)", str(error.value), re.S)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b,c", 'q"r', "x\ny"]),
                          st.sampled_from(ENDINGS)), min_size=1, max_size=40),
       st.data())
def test_a_bad_value_is_reported_at_csv_line_num(tmp_path_factory, cells, data):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    bad = data.draw(st.integers(0, len(cells) - 1))
    text = "label,value\n" + "".join(render([f"{label}{i}", "x" if i == bad else i], ending)
                                     for i, (label, ending) in enumerate(cells))
    path.write_text(text, newline="")
    line = csv_rows(text)[bad + 1][0]
    with mock.patch.object(files, "BLOCK_ROWS", data.draw(st.integers(1, 6))):
        with pytest.raises(InputError, match=rf"t\.csv:{line}: bad row .*could not convert"):
            files.read_columns(path, ("label", "value"), (str, files.number))


# ----- errors past the first block ------------------------------------------------------

def _census_text(n, blank_every=0):
    """A header and ``n`` distinct census rows, with a blank line after every ``blank_every``-th."""
    lines = ["metric,year,region,sex,age,count"]
    for i in range(n):
        lines.append(f"P,{2000 + i // 200},AT-{1 + i // 100 % 2},{'mf'[i % 2]},{i % 100},{i}")
        if blank_every and i % blank_every == blank_every - 1:
            lines.append("")
    return lines


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_an_error_past_the_first_block_names_its_line(tmp_path):
    lines = _census_text(3000, blank_every=7)
    # a quoted field spanning two lines before the error, so line and row part ways; no
    # census column takes a line end, so the labels are read as text
    lines[1] = lines[1].replace(",AT-1,", ',"AT-1\n",', 1)
    bad = next(k for k in range(2500, len(lines)) if lines[k])
    lines[bad] = lines[bad].rsplit(",", 1)[0] + ",-4"
    path = _write(tmp_path / "census.csv", lines)
    with pytest.raises(InputError, match=rf"census\.csv:{bad + 2}: .*negative count"):
        files.read_columns(path, CENSUS_CSV_HEADER, (str,) * 5 + (files.number,),
                           check=lambda count: (count < 0, "negative count"))


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
    lines = _census_text(3000, blank_every=11)
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


def test_an_overlong_field_is_unreadable_as_csv_reader_finds_it(tmp_path):
    lines = _census_text(3)
    lines[1] = lines[1].replace(",m,", f",{'m' * (csv.field_size_limit() + 1)},", 1)
    with pytest.raises(InputError, match=r"census\.csv: unreadable as CSV text: field larger"):
        SyntheticCensus.from_csv(_write(tmp_path / "census.csv", lines))


@pytest.mark.parametrize("quoted", [False, True])  # read by str.split or by csv.reader
def test_rows_before_an_unreadable_one_are_checked_first(tmp_path, quoted):
    lines = _census_text(20)
    if quoted:
        lines[1] = lines[1].replace(",m,", ',"m",', 1)
    lines[12] = lines[12].replace(",f,", f",{'f' * (csv.field_size_limit() + 1)},", 1)
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
    with pytest.raises(InputError, match=r"census\.csv: unreadable as CSV text: field larger"):
        SyntheticCensus.from_csv(path)


@pytest.mark.parametrize("quoted", [False, True])
def test_rows_before_undecodable_text_are_checked_first(tmp_path, quoted):
    # the bad byte lies past the first chunk the text layer decodes, within the first block
    lines = _census_text(900)
    if quoted:
        lines[1] = lines[1].replace(",m,", ',"m",', 1)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-1"
    path = tmp_path / "census.csv"
    data = "\n".join(lines).encode()
    path.write_bytes(data[:-100] + b"\xff" + data[-100:])
    with pytest.raises(InputError, match=r"census\.csv:4: .*negative count"):
        SyntheticCensus.from_csv(path)
    lines[3] = "P,2020,AT-1,m,1,1"
    data = "\n".join(lines).encode()
    path.write_bytes(data[:-100] + b"\xff" + data[-100:])
    with pytest.raises(InputError, match=r"census\.csv: unreadable as CSV text: .*decode"):
        SyntheticCensus.from_csv(path)


def test_undecodable_text_at_a_block_start_is_unreadable(tmp_path):
    lines = _census_text(900)
    data = "\n".join(lines).encode()
    path = tmp_path / "census.csv"
    path.write_bytes(data[:-100] + b"\xff" + data[-100:])
    decoded = []
    with open(path, newline="") as fh, pytest.raises(UnicodeDecodeError):
        decoded.extend(fh)
    # the first block ends where decoding fails: the next one starts with the failure
    with mock.patch.object(files, "BLOCK_ROWS", len(decoded) - 1):
        with pytest.raises(InputError, match=r"census\.csv: unreadable as CSV text: .*decode"):
            SyntheticCensus.from_csv(path)


def test_a_nul_is_read_as_csv_reader_reads_it(tmp_path):
    lines = _census_text(3)
    lines[2] = lines[2].replace(",f,1,", ",f,1\0,", 1)
    path = _write(tmp_path / "census.csv", lines)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2][4] == "1\0"
    # the census reader rejects the age; a column parsed as text keeps it as read
    table = files.read_columns(path, CENSUS_CSV_HEADER, (str,) * 5 + (files.number,))
    assert "1\0" in table.labels[4]


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


# ----- the byte path reads what csv.reader alone reads ----------------------------------

SIZES = (0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 31, 33)  # field lengths around 8-byte words
NUMBERS = ("0", "-0.0", "0.0", "3", "1e-05", "0.1234567890123456", "-12345678.25", "1_0",
           "1e999", "ab")
NOT_PLAIN = ("quote", "lone cr", "blank line", "nul", "non-ascii", "undecodable", "width",
             "widths", "overlong", "header")


@st.composite
def byte_tables(draw):
    """A header and rows over a few distinct fields per column (a value column last,
    maybe), "\\n" or "\\r\\n" line ends, maybe no final one, and maybe one line made
    not plain; the width, whether there is a value column and the field size limit."""
    width, values = draw(st.integers(1, 3)), draw(st.booleans())
    limit = draw(st.sampled_from([72, csv.field_size_limit()]))  # some plain lines exceed 72
    base = draw(st.text("ab -", min_size=SIZES[-1], max_size=SIZES[-1]))
    fields = st.sampled_from(SIZES).flatmap(lambda n: st.text("ab -", min_size=n, max_size=n))
    pools = [draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4))
             if values and j == width - 1 else  # and two labels differing in their last byte
             draw(st.lists(fields, max_size=3)) + [base[:n - 1] + c for n in
                                                   [draw(st.sampled_from(SIZES[1:]))] for c in "ab"]
             for j in range(width)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=40))
    lines = [",".join(row) + draw(st.sampled_from(["\n", "\r\n"])) for row in rows]
    kind = draw(st.sampled_from((None, *NOT_PLAIN)))
    at = 0 if kind == "widths" else draw(st.integers(0, len(lines) - 1))
    head, rest = rows[at][0], lines[at][len(rows[at][0]):]
    if kind == "widths" and len(lines) > 1:  # as many commas as lines need, not per line
        lines[1] = lines[1].rpartition(",")[0] + "\n"
    lines[at] = {None: lines[at], "quote": f'"{head}"{rest}', "nul": f"{head}\0{rest}",
                 "lone cr": f"{head}\r{rest}", "blank line": "\n" + lines[at],
                 "non-ascii": f"{head}\u00e9{rest}", "undecodable": f"{head}\udcff{rest}",
                 "overlong": "a" * limit + "b" + rest,
                 "header": lines[at]}.get(kind, lines[at].rstrip("\r\n") + ",x\n")  # too wide
    header = ",".join(f"h{j}" for j in range(width))
    text = (f'"{header}"' if kind == "header" else header) + "\n" + "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text, width, values, limit


def _read_logged(path, width, values, key):
    """What ``read_columns`` returns bitwise, or the InputError it raises, and every call
    of a parser in order."""
    calls = []

    def label(text):
        calls.append(text)
        if text.endswith("--"):
            raise ValueError(f"bad label {text!r}")
        return text.strip()

    def number(text):
        calls.append(text)
        return parse(text)

    parse = files.number
    with mock.patch.object(files, "number", number):
        parsers = [label] * (width - values) + [number] * values
        try:
            table = files.read_columns(path, [f"h{j}" for j in range(width)], parsers, key=key)
        except InputError as exc:
            return str(exc), calls
    return (table.size, table.labels,
            [codes.view(np.int64).tolist() for codes in table.codes]), calls


@settings(max_examples=600, deadline=None)
@given(byte_tables(), st.integers(1, 6), st.booleans())
def test_the_byte_path_reads_what_csv_reader_reads(tmp_path_factory, table, block_rows, keyed):
    text, width, values, limit = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode(errors="surrogateescape"))  # "\\udcff" as the byte 0xff
    key = range(width - values) if keyed else ()
    saved = csv.field_size_limit(limit)
    try:
        with mock.patch.object(files, "BLOCK_ROWS", block_rows):
            outcome, calls = _read_logged(path, width, values, key)
            with mock.patch.object(files, "_plain_line", lambda line: False):
                expected, expected_calls = _read_logged(path, width, values, key)
    finally:
        csv.field_size_limit(saved)
    assert outcome == expected
    # plain blocks are parsed before an undecodable byte that fails the text layer's
    # whole chunk, and with it the rows csv.reader would parse
    assert calls == expected_calls or "\udcff" in text


def test_a_repeat_read_as_bytes_before_undecodable_text_is_unreadable(tmp_path):
    # the repeat's block is plain, but its line lies in the text chunk that fails to decode
    path = tmp_path / "t.csv"
    path.write_bytes(b"h0,h1\na,1\na,1\nb\xff,1\n")
    with mock.patch.object(files, "BLOCK_ROWS", 2):
        with pytest.raises(InputError, match=r"t\.csv: unreadable as CSV text: .*decode"):
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
    with mock.patch.object(files, "_blocks", wraps=files._blocks) as blocks:
        for path in paths:
            readers[path.stem.split("_")[0]](path)
        read_marginals_csv(*marginals)
    assert blocks.call_count == 0


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

    labels = ('A"T-1', "A,T-2")  # the tensor and marginals take labels csv must quote
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


# values repr writes in every form, wholes the census rule writes as integers, and -0.0
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 2.0 ** 70, 1e-05, 1.5e16, 3.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(['A"T-1', "A,T-2", "AT-3"]), st.integers(0, 3),
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


def test_population_csv_reads_rows_in_file_order(tmp_path):
    path = _write(tmp_path / "pop.csv", ["region,sex,age,count", "AT-2,m,4,1", "",
                                         "AT-1,f,0,0", "AT-2,f,4,3"])
    assert read_population_csv(path) == [("AT-2", "m", 4, 1), ("AT-1", "f", 0, 0),
                                         ("AT-2", "f", 4, 3)]
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
    with pytest.raises(InputError, match=rf"table\.csv:3: bad row .*{re.escape(repr(text))}"):
        _read_with_field(tmp_path, reader, column, text)


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 7 ", "+1", ".5", "1.", "0x1"])
@pytest.mark.parametrize("reader, column", [
    ("census", 5), ("parameter", 5), ("tensor", 3), ("emigrants", 2)])
def test_value_columns_take_plain_decimals_only(tmp_path, reader, column, text):
    with pytest.raises(InputError, match=rf"table\.csv:3: bad row .*{re.escape(repr(text))}"):
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
    with pytest.raises(InputError, match=rf"table\.csv:3: .*malformed region code '{code}'"):
        _read_with_field(tmp_path, reader, column, code)

