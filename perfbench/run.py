"""Run one popsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The workload's pipeline repeats for ``--seconds`` seconds (at least
MIN_ITERATIONS times); each metric is the median over the repetitions. With
``--trace 0`` the run is untraced and reports the end-to-end metrics. With
``--trace 1`` each repetition is a pair, one untraced and one with wrappers
on popsim's public functions, and the run reports the per-layer metrics and
the tracing overhead. ``--workload all`` runs every workload in turn, each in
its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record with
quartiles, sample counts, exact work counts and a manifest is written under
``.bench_work/results/``; the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 1

# numpy's BLAS pool would otherwise start one thread per core at import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "popsim" / "__init__.py").is_file():
        print(f"error: no popsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import popsim

    if not Path(popsim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: popsim imported from {popsim.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(WORKLOADS[args.workload], args)


def run_all(args, names) -> int:
    """Every workload in its own process, each from a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def run_one(workload, args) -> int:
    import numpy
    from workloads import Pipeline

    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(ROOT / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": os.getloadavg(),
    }
    pipeline = Pipeline(workload, args.seed, run_dir)
    try:
        if args.trace:
            samples, iterations, extra = measure_traced(pipeline, args.seconds,
                                                        results_dir, args.seed)
        else:
            samples, iterations, extra = measure_untraced(pipeline, args.seconds)
        manifest["inputs_sha256"] = pipeline.inputs_sha256
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    manifest["loadavg_after"] = os.getloadavg()

    attempted = sum(it.attempted for it in iterations)
    failed_ops = [label for it in iterations for label in it.failed]
    if not samples:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    metrics = {name: summarise(values, unit) for name, (values, unit) in samples.items()}
    record = {
        "manifest": manifest,
        "attempted": attempted,
        "failed": len(failed_ops),
        "failed_ops_frac": len(failed_ops) / attempted,
        "failed_ops": failed_ops,
        "work": iterations[-1].work,
        "metrics": metrics,
        **extra,
    }
    if not args.trace:  # the traced run has the stage spans instead
        record["stage_s_median"] = {
            stage: statistics.median(it.stage_s[stage] for it in iterations)
            for stage in iterations[0].stage_s}
        wall = metrics["wall_s"]["value"]
        record["stage_share"] = {stage: s / wall for stage, s in record["stage_s_median"].items()}
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']} "
              f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    shares = record.get("profile", {}).get("group_share") or record.get("stage_share", {})
    print(f"{workload.name} share of the {'traced' if args.trace else 'untraced'} pipeline: "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"{workload.name} failed_ops_frac = {record['failed_ops_frac']:.6g} ratio "
          f"({len(failed_ops)} of {attempted} operations failed)")
    for label in failed_ops:
        print(f"{workload.name} FAILED: {label}")
    print(f"{workload.name} full record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


def measure_memory_once(pipeline, index, it, clock, memory):
    """The child-process memory probe on the first repetition that gets here;
    its time is kept out of the clock's repetition lengths."""
    if memory or it.failed:
        return
    t0 = perf_counter()
    memory.update(pipeline.simulate_memory(index, it) or {})
    clock.exclude(perf_counter() - t0)


def measure_untraced(pipeline, seconds):
    iterations, wall, setup, rate = [], [], [], []
    memory = {}
    clock = Deadline(seconds)
    index = 0
    while clock.room_for_another() or index < MIN_ITERATIONS:
        it = pipeline.run(index)
        pipeline.check(index, it)
        try:
            setup_s, stepping_s = pipeline.replay_simulate(index, it)
        except Exception as exc:  # counted as a failed operation below
            it.op(f"simulate replay: {exc!r}", False)
        else:
            it.op("simulate replay", True)
        measure_memory_once(pipeline, index, it, clock, memory)
        pipeline.clean(index)
        iterations.append(it)
        index += 1
        if it.failed:
            continue
        wall.append(it.wall_s)
        setup.append(setup_s)
        # stepping throughput: agent-years (exact, the same every repetition)
        # over the replay's simulate time net of its set-up
        rate.append(it.work["agent_years"] / stepping_s)
    if not wall or not memory:
        return {}, iterations, {}
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "agent_years_per_s": (rate, "agent-years/s"),
        "peak_rss_mb": ([memory["simulate_peak_kib"] / 1024], "MiB"),
    }, iterations, {"memory_kib": memory}


def measure_traced(pipeline, seconds, results_dir, seed):
    from tracer import Tracer

    tracer = Tracer(pipeline.workload.name)
    iterations, base_wall, traced_wall, layers, profiles = [], [], [], [], []
    memory = {}
    clock = Deadline(seconds)
    index = 0
    while clock.room_for_another() or index < 2 * MIN_TRACED_PAIRS:
        base = pipeline.run(index)
        pipeline.check(index, base)
        measure_memory_once(pipeline, index, base, clock, memory)
        pipeline.clean(index)
        mark = tracer.mark()
        with tracer.installed():
            traced = pipeline.run(index + 1, tracer)
        spans = tracer.take(mark)
        pipeline.check(index + 1, traced)
        pipeline.clean(index + 1)
        iterations += [base, traced]
        index += 2
        if base.failed or traced.failed or not memory:
            continue
        base_wall.append(base.wall_s)
        traced_wall.append(traced.wall_s)
        layers.append(layer_metrics(spans, traced.work, memory))
        profiles.append(exclusive_profile(spans))
    tracer.write(results_dir / f"{pipeline.workload.name}-seed{seed}-spans.npz")
    if not layers:
        return {}, iterations, {}
    samples = {name: ([layer[name][0] for layer in layers], unit)
               for name, (_, unit) in layers[0].items()}
    samples["trace.overhead_frac"] = (
        [statistics.median(traced_wall) / statistics.median(base_wall) - 1], "ratio")
    return samples, iterations, {"memory_kib": memory, "profile": median_profile(profiles)}


class Deadline:
    """Starts another repetition only when one more, as long as the longest so
    far, still ends within the measuring time."""

    def __init__(self, seconds: float):
        self.last = perf_counter()
        self.end = self.last + seconds
        self.longest = 0.0

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent out of the current repetition's length."""
        self.last += seconds

    def room_for_another(self) -> bool:
        now = perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return now + self.longest <= self.end


def layer_metrics(spans, work, memory) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def us_per_call(name):
        return 1e6 * seconds(name) / calls(name) if calls(name) else 0.0

    def by_caller(counter, *callers):
        """Calls and seconds of a counter charged to spans whose names start
        with one of ``callers``."""
        picked = [v for key, v in spans.items()
                  if key.startswith(counter + "@") and key.partition("@")[2].startswith(callers)]
        n = sum(v["calls"] for v in picked)
        return n, sum(v["s"] for v in picked)

    flush_calls, flush_s = by_caller("census.record_event", "engine.")
    oracle_events, oracle_events_s = by_caller("census.record_event", "scenario.")
    agent_lookups, agent_lookups_s = by_caller("params.lookup", "agents.", "rng.")
    oracle_lookups, oracle_lookups_s = by_caller("params.lookup", "scenario.")
    world = spans["world"]
    out = {
        "agents.advance.calls_per_agent_year":
            (calls("agents.advance") / work["agent_years"], "1/agent-year"),
        "agents.advance.us_per_call": (us_per_call("agents.advance"), "us"),
        "agents.init_agent.calls": (calls("agents.init_agent"), "count"),
        "agents.init_agent.us_per_call": (us_per_call("agents.init_agent"), "us"),
        "rng.agent_stream.calls": (calls("rng.agent_stream"), "count"),
        "rng.agent_stream.us_per_call": (us_per_call("rng.agent_stream"), "us"),
        "engine.macro_step.s": (seconds("engine.macro_step"), "s"),
        "engine.macro_step.self_s": (seconds("engine.macro_step", "self_s"), "s"),
        "engine.snapshot_population.s": (seconds("engine.snapshot_population"), "s"),
        "census.count_population.s": (seconds("census.count_population"), "s"),
        "engine.add_initial_population.self_s":
            (seconds("engine.add_initial_population", "self_s"), "s"),
    }
    for metric in ("B", "D", "E", "I", "IM_OUT"):
        out[f"engine.events.{metric}"] = (work[f"events_{metric}"], "count")
    out.update({
        "engine.agents_created": (world["agents_created"], "count"),
        "engine.dropped_messages": (world["dropped_messages"], "count"),
        "params.lookup.calls": (calls("params.lookup"), "count"),
        "params.lookup.us_per_call": (us_per_call("params.lookup"), "us"),
        "params.lookup.agents.calls": (agent_lookups, "count"),
        "params.lookup.agents.us_per_call":
            (1e6 * agent_lookups_s / agent_lookups if agent_lookups else 0.0, "us"),
        "params.lookup.oracle.calls": (oracle_lookups, "count"),
        "params.lookup.oracle.us_per_call":
            (1e6 * oracle_lookups_s / oracle_lookups if oracle_lookups else 0.0, "us"),
        "params.derive.s": (seconds("params.derive"), "s"),
        # IPF evaluates the residual once before its first sweep and once per sweep
        "ipf.sweeps": (calls("ipf.marginal_residual") - calls("ipf"), "count"),
        "ipf.s": (seconds("ipf"), "s"),
        "ipf.tensor_from_csv.s": (seconds("ipf.tensor_from_csv"), "s"),
        "census.record_event.calls": (calls("census.record_event"), "count"),
        "census.record_event.s": (seconds("census.record_event"), "s"),
        "census.record_event.flush.calls": (flush_calls, "count"),
        "census.record_event.flush.s": (flush_s, "s"),
        "census.record_event.oracle.calls": (oracle_events, "count"),
        "census.record_event.oracle.s": (oracle_events_s, "s"),
        "census.to_csv.s": (seconds("census.to_csv"), "s"),
        "census.from_csv.s": (seconds("census.from_csv"), "s"),
        "census.cells": (work["census_cells"], "count"),
        "census.csv_bytes": (work["census_csv_bytes"], "bytes"),
        "scenario.cohort_projection.s": (seconds("scenario.cohort_projection"), "s"),
        "validation.deviation_report.s": (seconds("validation.deviation_report"), "s"),
        "validation.ensemble_mean.s": (seconds("validation.ensemble_mean"), "s"),
        "validation.report_rows": (work["report_rows"], "count"),
        "cli.gen_synthetic.s": (seconds("cli.gen_synthetic"), "s"),
        "cli.simulate.s": (seconds("cli.simulate"), "s"),
        "cli.validate.s": (seconds("cli.validate"), "s"),
        # simulate's peak above what importing popsim alone takes
        "memory.rss_bytes_per_agent":
            (1024 * (memory["simulate_peak_kib"] - memory["imports_peak_kib"])
             / world["peak_alive"], "bytes/agent"),
    })
    return out


def group_of(key: str) -> str:
    """The layer group a span or a counter's caller belongs to. Counter time
    goes to the group of the span that made the call, except that the engine's
    census record flush counts as census work."""
    name, _, caller = key.partition("@")
    if name == "census.record_event" and caller.startswith("engine."):
        return "census"
    owner = caller if "@" in key else name
    for prefix, group in (("agents.", "phase1"), ("rng.", "phase1"),
                          ("engine.", "engine"), ("census.", "census"),
                          ("scenario.", "oracle"), ("validation.", "report")):
        if owner.startswith(prefix):
            return group
    return "other"


def exclusive_profile(spans) -> dict:
    """Exclusive seconds of every span name and counter caller of one traced
    repetition, and their shares of it summed by layer group. A span's
    exclusive time is its self time less the counter calls it made, so the
    parts add up to the whole repetition."""
    exclusive = {key: v["self_s"] for key, v in spans.items() if "self_s" in v}
    for key, v in spans.items():
        if "@" in key:
            exclusive[key] = v["s"]
            caller = key.partition("@")[2]
            if caller in exclusive:
                exclusive[caller] -= v["s"]
    total = spans["iteration"]["s"]
    groups = {}
    for key, seconds in exclusive.items():
        groups[group_of(key)] = groups.get(group_of(key), 0.0) + seconds / total
    return {"exclusive_s": exclusive, "group_share": groups}


def median_profile(profiles) -> dict:
    def medians(field):
        keys = sorted({k for p in profiles for k in p[field]})
        return {k: statistics.median(p[field].get(k, 0.0) for p in profiles) for k in keys}
    return {"group_share": medians("group_share"), "exclusive_s": medians("exclusive_s"),
            "n": len(profiles)}


def summarise(values, unit) -> dict:
    # exact counts stay whole numbers
    ints = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if ints else statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"value": median, "unit": unit, "n": len(values), "q1": q1, "q3": q3,
            "samples": values}


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
