"""Command-line interface.

Subcommands: simulate, derive-params, validate, gen-synthetic, ipf,
apportion. Exit codes: 0 success, 1 input error, 2 numerical failure
(e.g. IPF non-convergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .census import SyntheticCensus
from .config import RunConfig
from .engine import ModelParameters, run_simulation
from .errors import ConvergenceError, CoverageError, FeasibilityError, InputError
from .files import number
from .ipf import MigrationTensor, ipf_3d, read_marginals_csv
from .params import (ImmigrationTable, ParameterTable, PROBABILITY_KINDS,
                     apportion_integer, derive_params_from_census)
from .scenario import ScenarioSpec, generate_scenario_files, read_population_csv
from .validation import deviation_report, ensemble_mean

log = logging.getLogger(__name__)


def load_model_parameters(cfg: RunConfig) -> ModelParameters:
    tables = {kind: ParameterTable.from_csv(cfg.resolve(f"params_{kind}"))
              for kind in PROBABILITY_KINDS if cfg.resolve(f"params_{kind}") is not None}
    immigration = None
    if cfg.resolve("immigration") is not None:
        immigration = ImmigrationTable.from_csv(cfg.resolve("immigration"))
    tensor, path = None, cfg.resolve("migration_tensor")
    if path is not None:
        tensor = MigrationTensor.from_csv(path)
        tensor.check_single_ages(path)
    return ModelParameters(tables, immigration=immigration, migration_tensor=tensor)


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "runs", "workers")}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    params = load_model_parameters(cfg)
    initial = read_population_csv(cfg.resolve("initial_population"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run(i: int) -> SyntheticCensus:
        census = run_simulation(cfg.step, params, initial, cfg.seed + i,
                                male_fraction=cfg.male_fraction, workers=cfg.workers)
        path = out_dir / f"run_{i + 1:03d}.csv"
        census.to_csv(path)
        log.info("run %d/%d (seed %d) written to %s", i + 1, cfg.runs, cfg.seed + i, path)
        return census

    mean_path = out_dir / "mean.csv"
    ensemble_mean(map(run, range(cfg.runs))).to_csv(mean_path)
    print(f"wrote {cfg.runs} run census file(s) and {mean_path}")
    return 0


def cmd_derive_params(args) -> int:
    census = SyntheticCensus.from_csv(args.census)
    try:
        table = derive_params_from_census(census, args.kind, max_age=args.max_age)
    except InputError as exc:
        raise InputError(f"{args.census}: {exc}") from None
    table.to_csv(args.out)
    print(f"wrote {args.kind} parameters to {args.out}")
    return 0


def cmd_validate(args) -> int:
    run_files = sorted(Path(args.runs_dir).glob("run_*.csv"))
    if not run_files:
        raise InputError(f"no run_*.csv files in {args.runs_dir}")
    ensemble = [SyntheticCensus.from_csv(p) for p in run_files]
    reference = SyntheticCensus.from_csv(args.reference)
    try:
        report = deviation_report(ensemble, reference, metric=args.metric)
    except CoverageError as exc:  # no year in common: name both sides, not --metric
        raise CoverageError(f"{args.reference} against {args.runs_dir}: {exc}") from None
    report.to_csv(args.out)
    for gap in report.coverage_gaps:
        print(f"coverage gap: {gap}", file=sys.stderr)
    print(f"wrote deviation report ({len(report.rows)} rows) to {args.out}")
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = ScenarioSpec.from_file(args.spec) if args.spec else ScenarioSpec()
    paths = generate_scenario_files(spec, args.seed, args.out_dir)
    print(f"wrote scenario inputs to {args.out_dir} "
          f"({', '.join(sorted(p.name for p in paths.values()))})")
    return 0


def cmd_ipf(args) -> int:
    marginals = read_marginals_csv(args.od, args.emigrants, args.immigrants)
    if args.init:
        init = MigrationTensor.from_csv(args.init)
    else:
        init = MigrationTensor(marginals.regions, marginals.ages)
    try:
        fitted = ipf_3d(init, marginals, tol=args.tol, max_iter=args.max_iter)
    except InputError as exc:  # the marginals' grand totals differ, or --init's labels do
        files = f"{args.od}, {args.emigrants}, {args.immigrants}"
        where = files if isinstance(exc, FeasibilityError) else f"{args.init} against {files}"
        raise type(exc)(f"{where}: {exc}") from None
    fitted.to_csv(args.out)
    print(f"wrote fitted migration tensor to {args.out}")
    return 0


def cmd_apportion(args) -> int:
    try:
        weights = [number(w.strip()) for w in args.weights.split(",")]
    except ValueError as exc:
        raise InputError(f"--weights {args.weights!r}: {exc}") from None
    alloc = apportion_integer(args.total, weights)
    line = ",".join(str(n) for n in alloc)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsim",
        description="Birthday-centred agent-based population simulation")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo ensemble from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--runs", type=int, default=None, help="override ensemble size")
    p.add_argument("--workers", type=int, default=None, help="override worker count")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("derive-params", help="compute Farr probabilities from a census")
    p.add_argument("--census", required=True)
    p.add_argument("--kind", required=True, choices=PROBABILITY_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--max-age", type=int, default=None)
    p.set_defaults(func=cmd_derive_params)

    p = sub.add_parser("validate", help="deviation report of an ensemble vs a reference")
    p.add_argument("--runs-dir", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="P")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-synthetic", help="emit a synthetic closed-loop input set")
    p.add_argument("--spec", default=None, help="scenario file (defaults builtin)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("ipf", help="fit a migration tensor to three marginals")
    p.add_argument("--od", required=True)
    p.add_argument("--emigrants", required=True)
    p.add_argument("--immigrants", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=cmd_ipf)

    p = sub.add_parser("apportion", help="integer apportionment over weights")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated non-negative weights")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_apportion)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
