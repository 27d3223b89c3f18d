"""Fuzzing the command line with corrupted input files.

One small scenario (2 regions, 150 agents, 2 years) is generated and
simulated once. Each example copies it, damages one input file of one
subcommand, runs the subcommand in-process and requires exit code 0, 1 or 2:
an exception escaping ``cli.main`` fails the test. A CSV line put outside the
dialect (a quoted field, a blank line, a non-ASCII byte or a NUL) must end the
command with exit code 1 and an error naming the file and that line. No
mutation can raise a count above the original (the replacement values are small
or do not parse), so an example cannot turn into a large run.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.cli import main
from popsim.ipf import MigrationTensor, write_marginals_csv
from popsim.scenario import ScenarioSpec

REPLACEMENTS = ("", "x", "nan", "inf", "-1", "1e400", "AT--1")
# each of these puts one line of a CSV file outside the dialect
DIALECT = {"quote field": lambda field: f'"{field}"', "non-ascii": lambda field: field + "\u00e9",
           "nul": lambda field: field + "\0", "blank line": None}
MUTATIONS = ("delete line", "duplicate line", "drop column", "add column",
             "delete header", "replace field", *DIALECT)

# subcommand -> (its arguments in a scenario copy d, the input files it reads)
SUBCOMMANDS = {
    "simulate": (
        lambda d: ["--config", d / "inputs/run.conf", "--out-dir", d / "out"],
        ["inputs/run.conf", "inputs/params_death.csv", "inputs/params_emigration.csv",
         "inputs/params_birth.csv", "inputs/params_internal_migration.csv",
         "inputs/immigration.csv", "inputs/migration_tensor.csv",
         "inputs/initial_population.csv"]),
    "validate": (
        lambda d: ["--runs-dir", d / "runs", "--reference", d / "inputs/reference_census.csv",
                   "--out", d / "report.csv"],
        ["runs/run_001.csv", "runs/run_002.csv", "inputs/reference_census.csv"]),
    "derive-params": (
        lambda d: ["--census", d / "runs/run_001.csv", "--kind", "birth",
                   "--out", d / "derived.csv"],
        ["runs/run_001.csv"]),
    "gen-synthetic": (
        lambda d: ["--spec", d / "scenario.conf", "--seed", "1", "--out-dir", d / "gen"],
        ["scenario.conf"]),
    "ipf": (
        lambda d: ["--od", d / "od.csv", "--emigrants", d / "emig.csv",
                   "--immigrants", d / "imm.csv", "--init", d / "init.csv",
                   "--out", d / "fitted.csv", "--max-iter", "50"],
        ["od.csv", "emig.csv", "imm.csv", "init.csv"]),
    # the weights are read from a one-line file here so that they can be damaged alike
    "apportion": (
        lambda d: ["--total", "10", "--weights=" + (d / "weights.txt").read_text().strip()],
        ["weights.txt"]),
}


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ScenarioSpec(regions=["AT-1", "AT-2"], start_year=2020, years=2, max_age=20,
                 initial_total=150, initial_age_low=0, initial_age_high=15,
                 p_death=0.02, p_emigration=0.02, p_birth=[(10, 0.1), (18, 0.0)],
                 p_internal_migration=0.05, immigration_per_year=10,
                 immigration_age_low=5, immigration_age_high=10,
                 ensemble_runs=2).to_file(root / "scenario.conf")
    assert main(["--quiet", "gen-synthetic", "--spec", str(root / "scenario.conf"),
                 "--seed", "1", "--out-dir", str(root / "inputs")]) == 0
    assert main(["--quiet", "simulate", "--config", str(root / "inputs/run.conf"),
                 "--out-dir", str(root / "runs")]) == 0
    tensor = MigrationTensor(["AT-1", "AT-2"], range(3),
                             np.random.default_rng(1).random((2, 2, 3)) + 0.1)
    write_marginals_csv(tensor.marginals(), root / "od.csv", root / "emig.csv",
                        root / "imm.csv")
    MigrationTensor(["AT-1", "AT-2"], range(3)).to_csv(root / "init.csv")
    (root / "weights.txt").write_text("6,3,1\n")
    return root


def mutate(text: str, mutation: str, line: int, field: int, value: str) -> tuple[str, int]:
    """``text`` with one line or one field of a line damaged, and the number of the
    damaged line; fields are split at commas and at the '=' of a ``key = value`` line."""
    lines = text.splitlines()
    if mutation == "delete header":
        return "\n".join(lines[1:]) + "\n", 1
    i = line % (len(lines) + (mutation == "blank line"))  # a blank line may end the file
    if mutation == "blank line":
        lines.insert(i, "")
    elif mutation == "delete line":
        del lines[i]
    elif mutation == "duplicate line":
        lines.insert(i, lines[i])
    elif mutation == "add column":
        lines[i] += "," + value
    else:
        pieces = re.split(r"([,=])", lines[i])
        k = 2 * (field % ((len(pieces) + 1) // 2))
        if mutation == "replace field":
            pieces[k] = value
        elif mutation in DIALECT:
            pieces[k] = DIALECT[mutation](pieces[k])
        else:  # drop column: the field and one separator next to it
            del pieces[max(k - 1, 0):k + 1]
        lines[i] = "".join(pieces)
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_input_never_escapes(scenario, command, data):
    args, inputs = SUBCOMMANDS[command]
    name = data.draw(st.sampled_from(inputs), label="file")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    line = data.draw(st.integers(0, 10_000), label="line")
    field = data.draw(st.integers(0, 10), label="field")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "s"
        shutil.copytree(scenario, d)
        path = d / name
        text, damaged = mutate(path.read_text(), mutation, line, field, value)
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["--quiet", command, *map(str, args(d))])
    assert code in (0, 1, 2)
    if mutation in DIALECT and path.suffix == ".csv":
        assert code == 1
        assert err.getvalue().startswith(f"error: {path}:{damaged}: "), err.getvalue()
