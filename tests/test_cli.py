"""Config round trips and end-to-end command-line paths."""

import csv
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popsim
from popsim.census import SyntheticCensus
from popsim.cli import main
from popsim.config import RunConfig
from popsim.errors import InputError
from popsim.ipf import MigrationTensor, write_marginals_csv
from popsim.scenario import ScenarioSpec


def test_config_round_trip(tmp_path):
    cfg = RunConfig(start="2020-01-01", end="2023-01-01", seed=7, runs=2,
                    initial_population="init.csv", params_death="d.csv",
                    base_dir=str(tmp_path))
    path = tmp_path / "run.conf"
    cfg.to_file(path)
    again = RunConfig.from_file(path)
    assert again == cfg
    again.to_file(path)
    assert RunConfig.from_file(path) == again


def test_config_validation():
    with pytest.raises(InputError):
        RunConfig(start="2030-01-01", end="2020-01-01", initial_population="x")
    horizon = dict(start="2020-01-01", end="2030-01-01")
    with pytest.raises(TypeError, match="initial_population"):
        RunConfig(**horizon)
    for key in ("params_internal_migration", "migration_tensor"):
        with pytest.raises(InputError, match="params_internal_migration and migration_tensor "
                                             "must be given together"):
            RunConfig(**horizon, initial_population="x", **{key: "x.csv"})


def write_small_spec(path, **overrides):
    values = dict(regions=["AT-1", "AT-2"], start_year=2020, years=3,
                  max_age=100, initial_total=1500, initial_age_low=10,
                  initial_age_high=60, p_death=0.02, p_emigration=0.01,
                  p_birth=[(15, 0.1), (50, 0.0)], p_internal_migration=0.03,
                  immigration_per_year=40, ensemble_runs=2)
    values.update(overrides)
    ScenarioSpec(**values).to_file(path)
    return path


def test_end_to_end_pipeline(tmp_path, capsys):
    spec_path = write_small_spec(tmp_path / "scenario.conf")
    out = tmp_path / "scen"
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec_path),
                 "--seed", "3", "--out-dir", str(out)]) == 0
    assert (out / "run.conf").exists()
    assert (out / "reference_census.csv").exists()

    runs_dir = tmp_path / "runs"
    assert main(["--quiet", "simulate", "--config", str(out / "run.conf"),
                 "--out-dir", str(runs_dir)]) == 0
    assert (runs_dir / "run_001.csv").exists()
    assert (runs_dir / "run_002.csv").exists()
    assert (runs_dir / "mean.csv").exists()

    derived = tmp_path / "derived_death.csv"
    assert main(["--quiet", "derive-params", "--census", str(runs_dir / "run_001.csv"),
                 "--kind", "death", "--out", str(derived)]) == 0
    assert derived.exists()

    report = tmp_path / "report.csv"
    assert main(["--quiet", "validate", "--runs-dir", str(runs_dir),
                 "--reference", str(out / "reference_census.csv"),
                 "--out", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "region"
    assert rows[1][:3] == ["-", "-", "-"]
    assert len(rows) > 5


def test_simulate_rerun_byte_identical(tmp_path):
    spec_path = write_small_spec(tmp_path / "scenario.conf", ensemble_runs=1,
                                 initial_total=400, years=2)
    out = tmp_path / "scen"
    main(["--quiet", "gen-synthetic", "--spec", str(spec_path), "--seed", "5",
          "--out-dir", str(out)])
    blobs = []
    for name in ("a", "b"):
        runs = tmp_path / name
        assert main(["--quiet", "simulate", "--config", str(out / "run.conf"),
                     "--out-dir", str(runs)]) == 0
        blobs.append((runs / "run_001.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_missing_parameter_year_names_gap(tmp_path, capsys):
    spec_path = write_small_spec(tmp_path / "scenario.conf", ensemble_runs=1)
    out = tmp_path / "scen"
    main(["--quiet", "gen-synthetic", "--spec", str(spec_path), "--seed", "1",
          "--out-dir", str(out)])
    # truncate the death table: drop every row for the final year
    death_csv = out / "params_death.csv"
    rows = death_csv.read_text().splitlines()
    trimmed = [rows[0]] + [r for r in rows[1:] if ",2023," not in r]
    death_csv.write_text("\n".join(trimmed) + "\n")
    code = main(["--quiet", "simulate", "--config", str(out / "run.conf"),
                 "--out-dir", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert code == 1
    assert "2023" in captured.err and "death" in captured.err


def _generate_and_edit_tensor(tmp_path, keep_row, **spec):
    """A generated input set whose tensor file keeps only the rows ``keep_row``
    accepts, as (origin, destination, age) strings."""
    spec_path = write_small_spec(tmp_path / "scenario.conf", ensemble_runs=1, **spec)
    out = tmp_path / "scen"
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec_path), "--seed", "1",
                 "--out-dir", str(out)]) == 0
    tensor_csv = out / "migration_tensor.csv"
    header, *rows = tensor_csv.read_text().splitlines()
    tensor_csv.write_text("\n".join([header] + [r for r in rows
                                                if keep_row(*r.split(",")[:3])]) + "\n")
    return out / "run.conf"


def test_simulate_rejects_tensor_with_age_gap(tmp_path, capsys):
    config = _generate_and_edit_tensor(tmp_path, lambda origin, dest, age: age != "37")
    code = main(["--quiet", "simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 1
    assert "migration_tensor.csv: no age 37" in err


def test_simulate_rejects_region_without_tensor_row(tmp_path, capsys):
    config = _generate_and_edit_tensor(tmp_path, lambda origin, dest, age: "AT-3" not in
                                       (origin, dest), regions=["AT-1", "AT-2", "AT-3"])
    code = main(["--quiet", "simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 1
    assert "migration tensor: no row for region=AT-3" in err


def test_validate_requires_runs(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["--quiet", "validate", "--runs-dir", str(tmp_path / "empty"),
                 "--reference", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_ipf_subcommand_and_nonconvergence_exit(tmp_path):
    rng = np.random.default_rng(11)
    regions = ("AT-1", "AT-2", "AT-3")
    ages = (0, 1, 2)
    truth = MigrationTensor(regions, ages, rng.random((3, 3, 3)) + 0.2)
    paths = [tmp_path / n for n in ("od.csv", "emig.csv", "imm.csv")]
    write_marginals_csv(truth.marginals(), *paths)
    fitted = tmp_path / "fitted.csv"
    assert main(["--quiet", "ipf", "--od", str(paths[0]), "--emigrants", str(paths[1]),
                 "--immigrants", str(paths[2]), "--out", str(fitted)]) == 0
    loaded = MigrationTensor.from_csv(fitted)
    assert np.allclose(loaded.marginals().od, truth.marginals().od, atol=1e-8)
    # an impossible tolerance must exit with the numerical-failure code
    assert main(["--quiet", "ipf", "--od", str(paths[0]), "--emigrants", str(paths[1]),
                 "--immigrants", str(paths[2]), "--out", str(fitted),
                 "--tol", "1e-17", "--max-iter", "3"]) == 2


def test_ipf_names_the_files_of_inputs_that_disagree(tmp_path, capsys):
    ages = (0, 1)
    truth = MigrationTensor(("AT-1", "AT-2"), ages, np.ones((2, 2, 2)))
    paths = [tmp_path / n for n in ("od.csv", "emig.csv", "imm.csv")]
    write_marginals_csv(truth.marginals(), *paths)
    files = ", ".join(map(str, paths))
    out = tmp_path / "fitted.csv"
    args = ["--quiet", "ipf", "--od", str(paths[0]), "--emigrants", str(paths[1]),
            "--immigrants", str(paths[2]), "--out", str(out)]
    init = tmp_path / "init.csv"
    MigrationTensor(("AT-1", "AT-3"), ages, np.ones((2, 2, 2))).to_csv(init)
    assert main([*args, "--init", str(init)]) == 1
    assert capsys.readouterr().err == (f"error: {init} against {files}: tensor and marginals "
                                       "use different region/age labels\n")
    marginals = truth.marginals()
    marginals.imm_by_age[0, 0] += 1
    write_marginals_csv(marginals, *paths)
    assert main(args) == 1
    assert capsys.readouterr().err == (f"error: {files}: marginal grand totals differ: "
                                       "od=4 emig=4 imm=5\n")
    assert not out.exists()


def test_apportion_subcommand(tmp_path, capsys):
    assert main(["--quiet", "apportion", "--total", "10", "--weights", "6,3,1"]) == 0
    assert capsys.readouterr().out.strip() == "6,3,1"
    assert main(["--quiet", "apportion", "--total", "10", "--weights", "6, 3.0, 1e0"]) == 0
    assert capsys.readouterr().out.strip() == "6,3,1"
    out = tmp_path / "alloc.txt"
    assert main(["--quiet", "apportion", "--total", "2", "--weights", "5,4,3",
                 "--out", str(out)]) == 0
    assert out.read_text().strip() == "1,1,0"


def test_gen_synthetic_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("p_death = 1.5\n")
    code = main(["--quiet", "gen-synthetic", "--spec", str(bad),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "p_death" in capsys.readouterr().err


def _env(**extra):
    """The environment of a fresh interpreter that imports this popsim."""
    src = str(Path(popsim.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _python(*args):
    """A fresh interpreter that imports this popsim, run with ``args``."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env())


def _run_cli(*args):
    """The CLI in a fresh interpreter, so an escaping exception shows as a traceback."""
    return _python("-m", "popsim.cli", "--quiet", *args)


def test_importing_the_cli_loads_numpy_random_only_if_numpy_does():
    # perfbench's memory probe subtracts the peak RSS of a child that only imports
    # popsim.cli from that of a run; numpy.random loaded there would move its
    # megabytes out of the per-agent figure. numpy 2 imports numpy.random lazily;
    # numpy 1.x imports it with numpy, so there popsim cannot keep it out.
    probe = "import sys, {}; print('numpy.random' in sys.modules)"
    numpy_alone = _python("-c", probe.format("numpy"))
    cli = _python("-c", probe.format("popsim.cli"))
    assert numpy_alone.stdout.strip() in ("True", "False"), numpy_alone.stderr
    assert cli.stdout.strip() == numpy_alone.stdout.strip(), cli.stderr


def test_simulate_loads_numpy_random_only_if_numpy_does(tmp_path):
    # the engine draws the agent and world streams on its own PCG64 kernel, so a
    # whole run leaves numpy.random to numpy's own import
    spec = write_small_spec(tmp_path / "scenario.conf", ensemble_runs=1)
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "inputs")]) == 0
    probe = ("import sys; from popsim.cli import main; code = main(sys.argv[1:]); "
             "print('numpy.random' in sys.modules); sys.exit(code)")
    run = _python("-c", probe, "--quiet", "simulate", "--config",
                  str(tmp_path / "inputs" / "run.conf"), "--out-dir", str(tmp_path / "runs"))
    numpy_alone = _python("-c", "import sys, numpy; print('numpy.random' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == numpy_alone.stdout.strip(), run.stderr


def _resident_bytes(census):
    """The bytes of the 4 KiB pages of ``census``'s arrays that hold a present cell:
    np.zeros leaves the other pages unmapped."""
    cells = np.flatnonzero(census.present)
    return 4096 * sum(len(np.unique(cells * itemsize // 4096)) for itemsize in (8, 1))


@pytest.mark.skipif(not Path("/proc/self/status").exists()
                    or "VmHWM" not in Path("/proc/self/status").read_text(),
                    reason="needs VmHWM in /proc/self/status")
def test_simulate_peak_memory_is_flat_in_the_number_of_runs(tmp_path):
    # one agent per (region, sex, age) cell and every event kind put cells on most pages
    # of the census arrays; 16 runs must not hold more run censuses than 4 runs.
    # glibc's dynamic mmap threshold keeps freed arrays in the heap, where fragmentation
    # raises the high-water mark of repeated runs by about a census even when no census
    # is kept; a fixed threshold unmaps freed arrays, so VmHWM counts what is held
    regions = [f"AT-{state}-{district:02d}" for state in (1, 2) for district in range(1, 11)]
    spec = write_small_spec(tmp_path / "scenario.conf", regions=regions, initial_total=20 * 202,
                            initial_age_low=0, initial_age_high=100, p_death=0.02,
                            p_emigration=0.02, p_birth=[(15, 0.04), (50, 0.0)],
                            p_internal_migration=0.02, immigration_per_year=80,
                            immigration_age_low=0, immigration_age_high=100)
    inputs = tmp_path / "inputs"
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec), "--out-dir", str(inputs)]) == 0
    probe = ("import sys; from popsim.cli import main; code = main(sys.argv[1:]); "
             "print(next(line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM:'))); sys.exit(code)")
    children = {runs: subprocess.Popen(
        [sys.executable, "-c", probe, "--quiet", "simulate", "--config", str(inputs / "run.conf"),
         "--out-dir", str(tmp_path / f"runs{runs}"), "--runs", str(runs)],
        env=_env(MALLOC_MMAP_THRESHOLD_="65536"), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for runs in (4, 16)}
    peak = {}  # VmHWM in bytes
    for runs, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        peak[runs] = 1024 * int(out.split()[-1])
    census = SyntheticCensus.from_csv(tmp_path / "runs4" / "run_001.csv")
    assert peak[16] - peak[4] < _resident_bytes(census)


@pytest.mark.parametrize("module", ["popsim", "popsim.dates"])
def test_star_import_resolves_every_exported_name(module):
    # a name left in __all__ after its definition is gone fails the star import
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= namespace.keys()


def _bad_marginals(tmp_path):
    (tmp_path / "od.csv").write_text("origin,destination,value\nAT-1,AT-2,1.0\n")
    (tmp_path / "emig.csv").write_text("region,age,value\nAT-1,0,1.0\nAT-2,x,1.0\n")
    (tmp_path / "imm.csv").write_text("region,age,value\nAT-2,0,1.0\n")
    return (["ipf", "--od", str(tmp_path / "od.csv"), "--emigrants",
             str(tmp_path / "emig.csv"), "--immigrants", str(tmp_path / "imm.csv"),
             "--out", str(tmp_path / "fit.csv")], "emig.csv:3")


def _bad_run_config(tmp_path):
    (tmp_path / "run.conf").write_text("initial_population = init.csv\nseed = x\n")
    return (["simulate", "--config", str(tmp_path / "run.conf"),
             "--out-dir", str(tmp_path / "runs")], "'seed'")


def _bad_scenario(tmp_path):
    (tmp_path / "scenario.conf").write_text("years = abc\n")
    return (["gen-synthetic", "--spec", str(tmp_path / "scenario.conf"),
             "--out-dir", str(tmp_path / "scen")], "'years'")


@pytest.mark.parametrize("make", [_bad_marginals, _bad_run_config, _bad_scenario])
def test_malformed_number_exits_1_without_traceback(tmp_path, make):
    args, where = make(tmp_path)
    done = _run_cli(*args)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert where in done.stderr


@pytest.mark.parametrize("weights", ["1,x", "1,nan", "1,inf", "1,+2", "1,1_0"])
def test_apportion_rejects_bad_weight(weights, capsys):
    assert main(["--quiet", "apportion", "--total", "3", "--weights", weights]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--weights" in captured.err


def _tiny_scenario(tmp_path):
    spec_path = write_small_spec(tmp_path / "scenario.conf", ensemble_runs=1,
                                 initial_total=100, years=1)
    out = tmp_path / "scen"
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec_path), "--seed", "2",
                 "--out-dir", str(out)]) == 0
    return out


def _simulate(scen, tmp_path, *extra):
    return main(["--quiet", "simulate", "--config", str(scen / "run.conf"),
                 "--out-dir", str(tmp_path / "runs"), *extra])


@pytest.mark.parametrize("key, other", [("params_death", "immigration"),
                                        ("immigration", "params_death")])
def test_simulate_names_line_2_of_a_table_of_the_wrong_kind(tmp_path, capsys, key, other):
    scen = _tiny_scenario(tmp_path)
    settings = dict(line.split(" = ") for line in (scen / "run.conf").read_text().splitlines())
    settings[key] = name = settings[other]
    (scen / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert _simulate(scen, tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error: {scen / name}:2: bad row ")


def test_simulate_rejects_negative_initial_age(tmp_path, capsys):
    scen = _tiny_scenario(tmp_path)
    path = scen / "initial_population.csv"
    lines = path.read_text().splitlines()
    region, sex, _, count = lines[1].split(",")
    lines[1] = f"{region},{sex},-1,{count}"
    path.write_text("\n".join(lines) + "\n")
    assert _simulate(scen, tmp_path) == 1
    assert "initial_population.csv:2: " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["start", "end", "initial_population"])
def test_run_conf_must_name_its_required_keys(tmp_path, capsys, key):
    scen = _tiny_scenario(tmp_path)
    config = scen / "run.conf"
    config.write_text("".join(line + "\n" for line in config.read_text().splitlines()
                              if line.partition(" = ")[0] != key))
    assert _simulate(scen, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {config}: missing key {key!r}\n"
    assert not (tmp_path / "runs").exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    scen = _tiny_scenario(tmp_path)
    assert _simulate(scen, tmp_path, "--seed", "-3") == 1
    assert "seed" in capsys.readouterr().err
    with open(scen / "run.conf", "a") as fh:
        fh.write("seed = -1\n")
    assert _simulate(scen, tmp_path) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    (("--runs", "0"), "ensemble size must be >= 1"),
    (("--seed", "-1"), "seed must be non-negative, got -1"),
    (("--workers", "0"), "workers must be >= 1")])
def test_simulate_checks_overrides_before_reading_inputs(tmp_path, capsys, override, message):
    scen = _tiny_scenario(tmp_path)
    (scen / "initial_population.csv").unlink()
    assert _simulate(scen, tmp_path, *override) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, message", [
    ("runs = 0", "ensemble size must be >= 1"),
    ("start = 2020-13-01", "bad ISO date '2020-13-01'"),
    ("step_unit = week", "step unit must be one of"),
    ("step_multiplier = 0", "step multiplier must be >= 1")])
def test_simulate_names_config_file_before_reading_inputs(tmp_path, capsys, line, message):
    scen = _tiny_scenario(tmp_path)
    (scen / "initial_population.csv").unlink()
    with open(scen / "run.conf", "a") as fh:
        fh.write(line + "\n")
    assert _simulate(scen, tmp_path) == 1
    assert f"error: {scen / 'run.conf'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_gen_synthetic_rejects_negative_seed_before_writing(tmp_path, capsys):
    with pytest.raises(InputError, match="seed must be non-negative"):
        RunConfig(start="2020-01-01", end="2030-01-01", initial_population="x", seed=-1)
    out = tmp_path / "scen"
    assert main(["--quiet", "gen-synthetic", "--seed", "-1", "--out-dir", str(out)]) == 1
    assert "error: seed must be non-negative, got -1\n" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_unknown_metric(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    census = "metric,year,region,sex,age,count\nP,2020,AT-1,m,5,10\n"
    (runs / "run_001.csv").write_text(census)
    (tmp_path / "reference.csv").write_text(census)
    assert main(["--quiet", "validate", "--runs-dir", str(runs), "--reference",
                 str(tmp_path / "reference.csv"), "--out", str(tmp_path / "report.csv"),
                 "--metric", "Q"]) == 1
    assert capsys.readouterr().err == "error: unknown census metric 'Q'\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("name, spec", [
    # the default spec has no parameter tables, so no coverage check meets the code
    ("initial_population.csv", {}),
    ("migration_tensor.csv", dict(regions=["AT-1", "AT-2"], p_internal_migration=0.03))])
def test_simulate_names_line_of_malformed_region(tmp_path, capsys, name, spec):
    ScenarioSpec(initial_total=100, years=1, ensemble_runs=1, **spec).to_file(
        tmp_path / "scenario.conf")
    scen = tmp_path / "scen"
    assert main(["--quiet", "gen-synthetic", "--spec", str(tmp_path / "scenario.conf"),
                 "--seed", "2", "--out-dir", str(scen)]) == 0
    path = scen / name
    lines = path.read_text().splitlines()
    bad = next(i for i, line in enumerate(lines) if line.startswith("AT-1,"))
    lines[bad] = lines[bad].replace("AT-1,", "AT-1-,", 1)
    path.write_text("\n".join(lines) + "\n")
    assert _simulate(scen, tmp_path) == 1
    err = capsys.readouterr().err
    assert f"{name}:{bad + 1}: " in err and "malformed region code 'AT-1-'" in err
    assert not (tmp_path / "runs" / "run_001.csv").exists()


@pytest.mark.parametrize("regions, message", [
    ("AT-1, AT-1, AT-2", "scenario lists region 'AT-1' twice"),
    ("AT-1-, AT-2", "malformed region code 'AT-1-'")])
def test_gen_synthetic_rejects_bad_regions(tmp_path, capsys, regions, message):
    # without parameter tables no other check meets the codes
    spec = tmp_path / "scenario.conf"
    spec.write_text(f"regions = {regions}\n")
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "scen")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("regions = AT-1, AT-1\n", "scenario lists region 'AT-1' twice"),
    ("p_death = 1.5\n", "p_death leaves [0, 1]"),
    ("p_birth = 20:0.1\nmax_age = 10\ninitial_age_high = 10\n",
     "profile breakpoint age 20 outside 0..10"),
    ("p_death = 0.01\ninitial_total = -5\n", "initial_total must be non-negative, got -5"),
    ("immigration_per_year = -40\n", "immigration_per_year must be non-negative, got -40")])
def test_gen_synthetic_names_the_scenario_file(tmp_path, capsys, text, message):
    spec = tmp_path / "scenario.conf"
    spec.write_text(text)
    assert main(["--quiet", "gen-synthetic", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "scen")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {spec}: {message}"
    assert not (tmp_path / "scen").exists()


def test_config_later_key_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("start = 2020-01-01\nend = 2030-01-01\ninitial_population = init.csv\n"
                    "step_unit = year\nstep_unit = month\n")
    assert RunConfig.from_file(path).step_unit == "month"


def test_config_has_no_max_age(tmp_path, capsys):
    scen = _tiny_scenario(tmp_path)
    assert "max_age" not in (scen / "run.conf").read_text()
    with open(scen / "run.conf", "a") as fh:
        fh.write("max_age = 100\n")
    assert _simulate(scen, tmp_path) == 1
    assert "unknown config key 'max_age'" in capsys.readouterr().err


def test_derive_params_names_non_integer_age(tmp_path, capsys):
    census = tmp_path / "census.csv"
    census.write_text("metric,year,region,sex,age,count\n"
                      "P,2020,AT-1,m,5,10\nP,2020,AT-1,m,0-19,3\nP,2021,AT-1,m,5,10\n")
    assert main(["--quiet", "derive-params", "--census", str(census), "--kind", "death",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert "P(2020,AT-1,m,0-19)" in capsys.readouterr().err


def test_derive_params_names_census_and_cell_of_a_certain_event(tmp_path, capsys):
    census = tmp_path / "census.csv"
    census.write_text("metric,year,region,sex,age,count\n"
                      "P,2020,AT-1,m,5,1\nP,2021,AT-1,m,6,1\nD,2020,AT-1,m,5,1\n")
    assert main(["--quiet", "derive-params", "--census", str(census), "--kind", "death",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert (f"error: {census}: cell D(2020,AT-1,m,5): event count 1.0 >= 2*pop_avg (0.5); "
            "probability would reach 1") in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_config_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "run.conf"
    path.write_bytes(b"initial_population = init\xe9.csv\n")
    with pytest.raises(InputError, match=r"run\.conf: unreadable"):
        RunConfig.from_file(path)


def _census_with_negative_count(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("metric,year,region,sex,age,count\n"
                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,-10\nD,2020,AT-1,m,5,1\n")
    return census


def test_derive_params_rejects_negative_census_count(tmp_path, capsys):
    census = _census_with_negative_count(tmp_path)
    assert main(["--quiet", "derive-params", "--census", str(census), "--kind", "death",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert "census.csv:3: " in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_validate_rejects_negative_census_count(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "run_001.csv").write_text("metric,year,region,sex,age,count\n"
                                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,10\n")
    reference = _census_with_negative_count(tmp_path)
    assert main(["--quiet", "validate", "--runs-dir", str(runs), "--reference",
                 str(reference), "--out", str(tmp_path / "report.csv")]) == 1
    assert "census.csv:3: " in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def _census_with_malformed_region(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("metric,year,region,sex,age,count\n"
                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,10\nP,2020,AT--1,m,5,3\n"
                      "P,2021,AT--1,m,5,3\n")
    return census


def test_derive_params_names_line_of_malformed_census_region(tmp_path, capsys):
    census = _census_with_malformed_region(tmp_path)
    assert main(["--quiet", "derive-params", "--census", str(census), "--kind", "death",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert "census.csv:4: " in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_validate_names_line_of_malformed_census_region(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "run_001.csv").write_text("metric,year,region,sex,age,count\n"
                                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,10\n")
    reference = _census_with_malformed_region(tmp_path)
    assert main(["--quiet", "validate", "--runs-dir", str(runs), "--reference",
                 str(reference), "--out", str(tmp_path / "report.csv")]) == 1
    err = capsys.readouterr().err
    assert "census.csv:4: " in err and "malformed region code 'AT--1'" in err
    assert not (tmp_path / "report.csv").exists()


def _census_with_unknown_sex(tmp_path):
    # the rows of sex x would otherwise be left out of derived parameters unseen
    census = tmp_path / "census.csv"
    census.write_text("metric,year,region,sex,age,count\n"
                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,10\nP,2020,AT-1,x,5,10\n"
                      "P,2021,AT-1,x,5,8\nD,2020,AT-1,x,5,2\n")
    return census


def test_derive_params_names_line_of_unknown_census_sex(tmp_path, capsys):
    census = _census_with_unknown_sex(tmp_path)
    assert main(["--quiet", "derive-params", "--census", str(census), "--kind", "death",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert "census.csv:4: " in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_validate_names_line_of_unknown_census_sex(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "run_001.csv").write_text("metric,year,region,sex,age,count\n"
                                      "P,2020,AT-1,m,5,10\nP,2021,AT-1,m,5,10\n")
    reference = _census_with_unknown_sex(tmp_path)
    assert main(["--quiet", "validate", "--runs-dir", str(runs), "--reference",
                 str(reference), "--out", str(tmp_path / "report.csv")]) == 1
    err = capsys.readouterr().err
    assert "census.csv:4: " in err and "sex must be m or f" in err
    assert not (tmp_path / "report.csv").exists()


def test_generated_config_names_migration_files_and_no_mode(tmp_path):
    scen = _tiny_scenario(tmp_path)
    keys = [line.partition(" = ")[0] for line in (scen / "run.conf").read_text().splitlines()]
    assert keys == ["start", "end", "step_unit", "step_multiplier", "seed", "runs", "workers",
                    "male_fraction", "params_death", "params_emigration", "params_birth",
                    "params_internal_migration", "migration_tensor", "immigration",
                    "initial_population"]
    assert _simulate(scen, tmp_path) == 0
    census = (tmp_path / "runs" / "run_001.csv").read_text().splitlines()
    metrics = {line.partition(",")[0] for line in census}
    assert {"IM_OUT", "IM_IN"} <= metrics


@pytest.mark.parametrize("keep", ["params_internal_migration", "migration_tensor"])
def test_simulate_needs_both_migration_files(tmp_path, capsys, keep):
    scen = _tiny_scenario(tmp_path)
    config = scen / "run.conf"
    lines = config.read_text().splitlines()
    config.write_text("".join(line + "\n" for line in lines if line.partition(" = ")[0] in
                              ("start", "end", "initial_population", keep)))
    assert _simulate(scen, tmp_path) == 1
    assert capsys.readouterr().err == (f"error: {config}: params_internal_migration and "
                                       "migration_tensor must be given together\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name, line, message", [
    ("run.conf", "internal_migration = full-regional", "unknown config key 'internal_migration'"),
    ("run.conf", "reference_census = x", "unknown config key 'reference_census'"),
    ("run.conf", "colour = red", "unknown config key 'colour'"),
    ("run.conf", "runs = two", "bad value for 'runs': 'two'"),
    ("run.conf", "male_fraction = half", "bad value for 'male_fraction': 'half'"),
    ("run.conf", "seed", "expected 'key = value'"),
    ("run.conf", "initial_population =", "bad value for 'initial_population': '' (empty value)"),
    ("run.conf", "params_death =", "bad value for 'params_death': '' (empty value)"),
    ("run.conf", "start =", "bad value for 'start': '' (empty value)"),
    ("run.conf", "params_death = p.csv\0", "bad value for 'params_death': 'p.csv\\x00' (NUL byte)"),
    ("scenario.conf", "regions =", "bad value for 'regions': '' (empty value)"),
    ("scenario.conf", "colour = red", "unknown config key 'colour'"),
    ("scenario.conf", "years = abc", "bad value for 'years': 'abc'"),
    ("scenario.conf", "p_death = 10:x", "bad value for 'p_death': '10:x'"),
    ("run.conf", "runs = 1_0", "bad value for 'runs': '1_0'"),
    ("run.conf", "seed = \u0663", "bad value for 'seed': '\u0663'"),
    ("scenario.conf", "years = 1_0", "bad value for 'years': '1_0'"),
    ("scenario.conf", "p_death = \u0663:0.1", "bad value for 'p_death': '\u0663:0.1'"),
    ("run.conf", "male_fraction = +0.5", "bad value for 'male_fraction': '+0.5' (not a plain"),
    ("run.conf", "male_fraction = 0.5_0", "bad value for 'male_fraction': '0.5_0' (not a plain"),
    ("run.conf", "male_fraction = nan", "bad value for 'male_fraction': 'nan' (not a finite"),
    ("run.conf", "male_fraction = 1_0", "bad value for 'male_fraction': '1_0' (not a plain"),
    ("run.conf", "male_fraction = 1.5", "bad value for 'male_fraction': '1.5' (must be in [0, 1])"),
    ("scenario.conf", "male_fraction = .5", "bad value for 'male_fraction': '.5' (not a plain"),
    ("scenario.conf", "male_fraction = -0.1",
     "bad value for 'male_fraction': '-0.1' (must be in [0, 1])"),
    ("scenario.conf", "regions = AT-1, AT-1-",
     "bad value for 'regions': 'AT-1, AT-1-' (malformed region code 'AT-1-')")])
def test_settings_errors_name_file_and_line(tmp_path, capsys, name, line, message):
    path = tmp_path / name
    first = "initial_population = init.csv" if name == "run.conf" else "years = 2"
    path.write_text(f"# a comment\n{first}\n\n{line}\n{first}\n")
    out = tmp_path / "out"
    command = (["simulate", "--config"] if name == "run.conf" else ["gen-synthetic", "--spec"])
    assert main(["--quiet", *command, str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:4: {message}")
    assert not out.exists()
