"""The benchmark workloads and the gen -> simulate -> validate pipeline they drive.

Every stage is a ``popsim.cli`` subcommand called in-process through
``popsim.cli.main``. The inputs of a run come from its workload and seed
alone: the scenario spec is fixed per workload, the seed is the ensemble's
first simulation seed and seeds the random tensor whose marginals the ``ipf``
stage fits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import popsim
from popsim import cli
from popsim.config import RunConfig
from popsim.engine import MacroStepConfig, World
from popsim.ipf import MigrationTensor, marginal_residual, read_marginals_csv, \
    write_marginals_csv
from popsim.scenario import ScenarioSpec, profile_to_array, read_population_csv
from popsim.validation import ensemble_mean

IPF_TOL = 1e-9
# Farr's formula is exact only for a cohort of constant size across the
# calendar year; the oracle's cohorts change size between ages a-1 and a, which
# leaves a second-order error (at most 0.5% on regional_ensemble once cells
# next to a breakpoint of the death profile are skipped).
FARR_REL_TOL = 0.01
FARR_MIN_EXPOSURE = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # ScenarioSpec fields
    step_unit: str = "year"
    derive_and_ipf: bool = False


def _districts(states: int, per_state: int) -> list[str]:
    return [f"AT-{s}-{d:02d}" for s in range(1, states + 1) for d in range(1, per_state + 1)]


WORKLOADS = {w.name: w for w in (
    # acceptance criterion 9's shape, scaled down: phase-1 event processing dominates
    Workload(
        "closed_loop",
        dict(regions=["AT-1", "AT-2", "AT-3"], start_year=2020, years=10,
             initial_total=3_000, initial_age_low=0, initial_age_high=79,
             p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)],
             p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
             p_internal_migration=0.01, immigration_per_year=100,
             ensemble_runs=2)),
    # agent creation and month-step sweeps over idle agents dominate, not events
    Workload(
        "churn_monthly",
        dict(regions=["AT-1"], start_year=2020, years=5,
             initial_total=1_500, initial_age_low=0, initial_age_high=79,
             p_death=[(0, 0.002), (60, 0.02)], p_emigration=0.3,
             p_birth=[(15, 0.06), (50, 0.0)], immigration_per_year=3_000,
             immigration_age_low=0, immigration_age_high=79, ensemble_runs=1),
        step_unit="month"),
    # census bookkeeping and CSV, the oracle (quadratic in regions) and the
    # deviation report dominate; phase 1 is small
    Workload(
        "regional_ensemble",
        dict(regions=_districts(3, 5), start_year=2020, years=5,
             initial_total=1_500, initial_age_low=0, initial_age_high=79,
             p_death=[(0, 0.002), (40, 0.005), (60, 0.02), (80, 0.08)],
             p_emigration=0.004, p_birth=[(15, 0.06), (50, 0.0)],
             p_internal_migration=0.02, ensemble_runs=4),
        derive_and_ipf=True),
)}


@dataclass
class Iteration:
    """Timings, work counts and check outcomes of one pass through the pipeline."""

    stage_s: dict = field(default_factory=dict)
    wall_s: float = 0.0
    census_sha256: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    attempted: int = 0
    failed: list = field(default_factory=list)

    def op(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


class Pipeline:
    """One workload at one seed, run repeatedly in a scratch directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.spec = ScenarioSpec(**workload.spec)
        workdir.mkdir(parents=True)
        self.spec_path = workdir / "scenario.conf"
        self.spec.to_file(self.spec_path)
        self.marginal_paths = None
        if workload.derive_and_ipf:
            self.marginal_paths = tuple(workdir / f"{n}.csv" for n in ("od", "emig", "imm"))
            rng = np.random.default_rng(seed)
            n, ages = len(self.spec.regions), range(self.spec.max_age + 1)
            tensor = MigrationTensor(sorted(self.spec.regions), ages,
                                     rng.random((n, n, len(ages))))
            write_marginals_csv(tensor.marginals(), *self.marginal_paths)
        self.first_digests: list[str] | None = None
        self.inputs_sha256: dict[str, str] | None = None

    # ----- the pipeline -------------------------------------------------------

    def run(self, index: int, tracer=None) -> Iteration:
        it = Iteration()
        base = self.workdir / f"it{index}"
        inputs, runs = base / "inputs", base / "runs"
        span = tracer.span if tracer is not None else (lambda _name: nullcontext())

        def stage(name, argv):
            t0 = perf_counter()
            try:
                with span(f"cli.{name.replace('-', '_')}"), redirect_stdout(io.StringIO()):
                    code = cli.main(["--quiet", name] + [str(a) for a in argv])
            except Exception:  # a traceback is a failed stage, not a crashed benchmark
                traceback.print_exc()
                code = -1
            it.stage_s[name] = perf_counter() - t0
            it.op(f"stage {name} exit {code}", code == 0)

        with span("iteration"):
            t0 = perf_counter()
            stage("gen-synthetic", ["--spec", self.spec_path, "--seed", self.seed,
                                    "--out-dir", inputs])
            if self.workload.step_unit != "year":
                with open(inputs / "run.conf", "a") as fh:
                    fh.write(f"step_unit = {self.workload.step_unit}\n")
            stage("simulate", ["--config", inputs / "run.conf", "--out-dir", runs])
            stage("validate", ["--runs-dir", runs, "--reference",
                               inputs / "reference_census.csv", "--out", base / "report.csv"])
            if self.workload.derive_and_ipf:
                stage("derive-params", ["--census", inputs / "reference_census.csv",
                                        "--kind", "death", "--out", base / "derived_death.csv"])
                od, emig, imm = self.marginal_paths
                stage("ipf", ["--od", od, "--emigrants", emig, "--immigrants", imm,
                              "--out", base / "fitted.csv", "--tol", IPF_TOL])
            it.wall_s = perf_counter() - t0
        return it

    # ----- output checks --------------------------------------------------------

    def check(self, index: int, it: Iteration) -> None:
        """Conservation, determinism, Farr and IPF checks plus exact work counts."""
        base = self.workdir / f"it{index}"
        if self.inputs_sha256 is None:
            files = sorted((base / "inputs").iterdir())
            files += [self.spec_path, *(self.marginal_paths or ())]
            self.inputs_sha256 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in files}
        run_files = sorted((base / "runs").glob("run_*.csv"))
        it.op("one census per ensemble run", len(run_files) == self.spec.ensemble_runs)
        work = defaultdict(int)
        for path in run_files:
            data = path.read_bytes()
            it.census_sha256.append(hashlib.sha256(data).hexdigest())
            work["census_csv_bytes"] += len(data)
            try:
                totals, cells = _census_totals(path)
            except (OSError, ValueError) as exc:
                it.op(f"{path.name} readable: {exc}", False)
                continue
            work["census_cells"] += cells
            national, regional = self._conservation(totals)
            it.op(f"{path.name} national conservation", national)
            it.op(f"{path.name} regional conservation", regional)
            years = range(self.spec.start_year, self.spec.end_year)
            work["agent_years"] += sum(v for (m, y, _), v in totals.items()
                                       if m == "P" and y in years)
            for metric in ("B", "D", "E", "I", "IM_OUT"):
                work[f"events_{metric}"] += sum(v for (m, _, _), v in totals.items()
                                                if m == metric)
            work["agents_created"] += sum(v for (m, y, _), v in totals.items()
                                          if m == "P" and y == self.spec.start_year)
        work["agents_created"] += work["events_B"] + work["events_I"]
        if self.first_digests is None:
            self.first_digests = it.census_sha256
        else:
            for i, (a, b) in enumerate(zip(self.first_digests, it.census_sha256)):
                it.op(f"run {i + 1} census repeats its first digest", a == b)
        work["report_rows"] = _data_rows(base / "report.csv")
        if self.workload.derive_and_ipf:
            it.op("Farr consistency of derived death probabilities",
                  _safely(self._farr_consistent, base / "inputs" / "reference_census.csv",
                          base / "derived_death.csv"))
            it.op("IPF marginal residual within tol",
                  _safely(self._ipf_converged, base / "fitted.csv"))
        it.work = {k: int(v) for k, v in work.items()}

    def _conservation(self, totals) -> tuple[bool, bool]:
        """P(y+1) = P(y) + B - D - E + I nationally, plus IM_IN - IM_OUT per region."""
        def get(metric, year, region):
            return totals.get((metric, year, region), 0.0)

        regions = {r for (_, _, r) in totals}
        national = regional = True
        for y in range(self.spec.start_year, self.spec.end_year):
            after = before = 0.0
            for r in regions:
                p1 = get("P", y + 1, r)
                p0 = (get("P", y, r) + get("B", y, r) - get("D", y, r)
                      - get("E", y, r) + get("I", y, r))
                regional &= p1 == p0 + get("IM_IN", y, r) - get("IM_OUT", y, r)
                after, before = after + p1, before + p0
            national &= after == before
        return national, regional

    def _farr_consistent(self, reference_path: Path, derived_path: Path) -> bool:
        generating = profile_to_array(self.spec.p_death, self.spec.max_age)
        population = defaultdict(float)
        with open(reference_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for metric, year, region, sex, age, count in reader:
                if metric == "P":
                    population[int(year), region, sex, int(age)] += float(count)
        checked = 0
        with open(derived_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for _, year, region, sex, age, value in reader:
                year, age = int(year), int(age)
                if not 1 <= age < self.spec.max_age or \
                        not generating[age - 1] == generating[age] == generating[age + 1]:
                    continue
                exposure = (population[year, region, sex, age]
                            + population[year + 1, region, sex, age]) / 2
                if exposure < FARR_MIN_EXPOSURE:
                    continue
                if abs(float(value) - generating[age]) > FARR_REL_TOL * generating[age]:
                    return False
                checked += 1
        return checked > 0

    def _ipf_converged(self, fitted_path: Path) -> bool:
        fitted = MigrationTensor.from_csv(fitted_path)
        marginals = read_marginals_csv(*self.marginal_paths)
        return marginal_residual(fitted.values, marginals) <= IPF_TOL

    # ----- memory of the simulate stage --------------------------------------------

    def simulate_memory(self, index: int, it: Iteration) -> dict | None:
        """Peak RSS of ``simulate`` alone, in KiB: the stage rerun in a child
        process on this repetition's inputs, beside a child that only imports
        ``popsim.cli``. The child's censuses must match the in-process ones."""
        base = self.workdir / f"it{index}"
        try:
            _, imports_kib = _child_peak_rss([])
            code, simulate_kib = _child_peak_rss(
                ["--quiet", "simulate", "--config", base / "inputs" / "run.conf",
                 "--out-dir", base / "child_runs"])
        except (OSError, ValueError) as exc:
            it.op(f"child simulate: {exc!r}", False)
            return None
        it.op(f"child simulate exit {code}", code == 0)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted((base / "child_runs").glob("run_*.csv"))]
        it.op("child simulate censuses match the in-process ones",
              digests == it.census_sha256)
        return {"simulate_peak_kib": simulate_kib, "imports_peak_kib": imports_kib}

    # ----- simulation set-up and stepping ------------------------------------------

    def replay_simulate(self, index: int, it: Iteration) -> tuple[float, float]:
        """``simulate`` replayed through the public calls it makes, timed in two
        parts summed over the ensemble: set-up (reading the config and inputs
        once, then per seed constructing the ``World`` and adding the initial
        population) and stepping (per seed running the world and writing its
        census, then writing the ensemble mean). The replay's censuses must
        match the ones the CLI stage wrote."""
        base = self.workdir / f"it{index}"
        out_dir = base / "replay_runs"
        out_dir.mkdir()
        t0 = perf_counter()
        cfg = RunConfig.from_file(base / "inputs" / "run.conf")
        params = cli.load_model_parameters(cfg)
        initial = read_population_csv(cfg.resolve("initial_population"))
        step = MacroStepConfig(cfg.start_date, cfg.end_date, cfg.step_unit,
                               cfg.step_multiplier)
        setup = perf_counter() - t0
        stepping = 0.0
        runs = []
        for i in range(cfg.runs):
            t0 = perf_counter()
            world = World(step, params, cfg.seed + i, male_fraction=cfg.male_fraction,
                          workers=cfg.workers)
            world.add_initial_population(initial)
            t1 = perf_counter()
            census = world.run()
            census.to_csv(out_dir / f"run_{i + 1:03d}.csv")
            runs.append(census)
            t2 = perf_counter()
            setup += t1 - t0
            stepping += t2 - t1
            del world  # freed outside the timed spans, as simulate frees it after the run
        t0 = perf_counter()
        ensemble_mean(runs).to_csv(out_dir / "mean.csv")
        stepping += perf_counter() - t0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.glob("run_*.csv"))]
        it.op("simulate replay censuses match the CLI stage's", digests == it.census_sha256)
        return setup, stepping

    def clean(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"it{index}", ignore_errors=True)


# Run in a child: popsim's CLI with the given arguments (none: import only),
# then the high-water mark of the child's own address space. getrusage cannot
# give it: on Linux a child's ru_maxrss starts from its parent's RSS at spawn.
_PEAK_RSS_PROBE = """
import sys
from popsim import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _child_peak_rss(args) -> tuple[int, int]:
    """Exit code and peak RSS (KiB) of the popsim CLI run with ``args`` in a
    child process that has this popsim on its path."""
    src = str(Path(popsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, *map(str, args)],
                          env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.split()
    return proc.returncode, int(lines[-1]) if lines else 0


def _safely(check, *args) -> bool:
    """A check that raises, for instance on a missing output file, has failed."""
    try:
        return check(*args)
    except Exception:
        traceback.print_exc()
        return False


def _census_totals(path: Path):
    """(metric, year, region) -> count, read straight from the census CSV."""
    totals: dict[tuple, float] = defaultdict(float)
    cells = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for metric, year, region, _sex, _age, count in reader:
            totals[metric, int(year), region] += float(count)
            cells += 1
    return totals, cells


def _data_rows(path: Path) -> int:
    try:
        with open(path) as fh:
            return max(sum(1 for _ in fh) - 1, 0)
    except OSError:
        return 0
