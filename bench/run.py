"""Benchmark of testerbounds: certified-report time, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` there.
With ``--trace 0`` the run times full reports with tracing off and measures
set-up in fresh processes; with ``--trace 1`` it alternates untraced and
traced passes and gives the per-layer breakdown.  The gated times are wall
times scaled to a reference host by reference work timed around each report
and set-up probe (see ``calibration.py``).  Every report is checked (see
``outputs.py``).  Details, the unscaled wall times, the environment and the
spans go to ``bench/results/``; the last line of stdout is the result as one
JSON object.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
if not (SRC / "testerbounds" / "__init__.py").is_file():
    sys.exit(f"no testerbounds sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import testerbounds  # noqa: E402

import calibration  # noqa: E402
import outputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # timed passes (and set-up probes) per run, whatever --seconds says
MIN_TRACED = 2          # traced passes, so exact counts can be compared
EXACT_COUNTS = ("channel_opt.solves", "channel_opt.newton_steps", "bounds.objective_calls")

END_TO_END = (
    ("report_s", "s", "lower"),
    ("combos_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)
PER_LAYER = (
    ("channel_opt.solves", "count", "lower"),
    ("channel_opt.busy_ms", "ms", "lower"),
    ("channel_opt.solve_ms_p50", "ms", "lower"),
    ("channel_opt.solve_ms_p90", "ms", "lower"),
    ("channel_opt.newton_steps", "count", "lower"),
    ("channel_opt.steps_per_solve", "steps/solve", "lower"),
    ("channel_opt.stages_per_solve", "stages/solve", "lower"),
    ("channel_opt.ms_per_step", "ms", "lower"),
    ("channel_opt.failures", "count", "lower"),
    ("channel_opt.distinct_frac", "ratio", "higher"),
    ("bounds.tight_frac", "ratio", "higher"),
    ("bounds.maxima_ms", "ms", "lower"),
    ("bounds.exact_ms", "ms", "lower"),
    ("bounds.objective_calls", "count", "lower"),
    ("bounds.objective_ms", "ms", "lower"),
    ("bounds.spectral_ms", "ms", "lower"),
    ("bounds.eigh_calls", "count", "lower"),
    ("testers.build_ms", "ms", "lower"),
    ("testers.elements", "count", "lower"),
    ("cli.load_ms", "ms", "lower"),
    ("linalg.dumps_ms", "ms", "lower"),
    ("cli.to_json_ms", "ms", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("other_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it, once that
    percentile is at least the median (20 samples or more)."""
    n = len(values)
    if n < 20:
        return None
    return {"pct": 100 * (n - 10) / n, "value": sorted(values)[n - 11]}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def measure_setup(jobs) -> tuple[float, float]:
    """Wall time of a fresh process that imports, loads, validates and builds
    testers, and that time on the reference host: the probe runs between two
    fresh numpy-importing interpreters (see ``calibration.py``)."""
    files = [str(job.path) for job in jobs]
    expected = str(sum(len(t.elements) for job in jobs for t in job.testers))
    before = calibration.startup_seconds()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *files],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != expected:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed, calibration.normalize(elapsed, before, calibration.startup_seconds(),
                                          calibration.STARTUP_NOMINAL_S)


class Scorer:
    """Checks every pass against the first one, which is fully checked."""

    def __init__(self, jobs, reference_raws):
        self.jobs = jobs
        self.reference = [workloads.render(job, raw) for job, raw in zip(jobs, reference_raws)]
        self.reference_failed = [outputs.check_report(job, rc, text, workloads.TOL)
                                 for job, (rc, text) in zip(jobs, self.reference)]
        self.attempted = self.failed = 0
        self.report_bytes = 0

    def score(self, raws) -> None:
        self.report_bytes = 0
        for job, raw, (_, ref_text), ref_failed in zip(self.jobs, raws, self.reference,
                                                       self.reference_failed):
            rc, text = workloads.render(job, raw)
            n = len(job.combinations)
            bad = set(range(n)) if rc != 0 else (
                set(ref_failed) | outputs.rerun_differences(ref_text, text, n))
            self.attempted += n
            self.failed += len(bad)
            if job.argv is not None:
                self.report_bytes += len(text.encode())

    def problems(self) -> dict:
        return {job.name: dict(list(failed.items())[:5])
                for job, failed in zip(self.jobs, self.reference_failed) if failed}


def run_pass(jobs, tracer=None) -> tuple[list, list[float], list[float]]:
    """Report every job once; return the raw outputs, each report's wall
    seconds, and each report's seconds on the reference host.

    The calibration kernel runs before the first report and after each one,
    so every report is bracketed by two measurements of the host's speed.
    """
    raws, wall, ref = [], [], []
    before = calibration.seconds()
    for job in jobs:
        if tracer is not None:
            tracer.request = job.name
        t0 = time.perf_counter()
        raws.append(workloads.report(job))
        wall.append(time.perf_counter() - t0)
        after = calibration.seconds()
        ref.append(calibration.normalize(wall[-1], before, after))
        before = after
    return raws, wall, ref


def full_report_s(passes: list[list[float]]) -> float:
    """Time of one full report: the sum over jobs of each job's median time.

    Host load comes in bursts shorter than a pass; a per-job median drops a
    burst that hits one job of a pass, where the median of pass totals would
    count the whole pass as slow.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def pass_layers(spans, own, wall_s: float, report_bytes: int) -> dict:
    """Per-layer numbers of one traced pass (spans of that pass only)."""
    ms = 1e-6
    solves = [s for s in spans if s.name == tracing.SOLVE]
    done = [s for s in solves if "error" not in s.attrs]
    steps = sum(s.attrs["steps"] for s in done)
    stages = sum(s.attrs["stages"] for s in done)
    busy = sum(s.dur_ns for s in solves) * ms
    distinct = {(s.request, s.attrs["site"], round(s.attrs["value"] / s.attrs["tol"]))
                for s in done}
    tight = [s.attrs["tight"] for s in spans if s.name == tracing.TIGHTNESS and "tight" in s.attrs]

    def own_ms(*names):
        return sum(o for s, o in zip(spans, own) if s.name in names) * ms

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    covered = sum(s.dur_ns for s in spans if s.parent is None) * ms
    return {
        "channel_opt.solves": len(solves),
        "channel_opt.busy_ms": busy,
        "channel_opt.newton_steps": steps,
        "channel_opt.steps_per_solve": steps / len(done) if done else 0.0,
        "channel_opt.stages_per_solve": stages / len(done) if done else 0.0,
        "channel_opt.ms_per_step": busy / steps if steps else 0.0,
        "channel_opt.failures": len(solves) - len(done),
        "channel_opt.distinct_frac": len(distinct) / len(solves) if solves else 0.0,
        "bounds.tight_frac": sum(tight) / len(tight) if tight else 0.0,
        "bounds.maxima_ms": sum(s.dur_ns for s in solves if s.attrs["site"] == "maxima") * ms,
        "bounds.exact_ms": sum(s.dur_ns for s in solves if s.attrs["site"] == "exact") * ms,
        "bounds.objective_calls": count(tracing.OBJECTIVE),
        "bounds.objective_ms": own_ms(tracing.OBJECTIVE),
        "bounds.spectral_ms": own_ms(tracing.UPPER, tracing.TIGHTNESS, tracing.EIG, tracing.NORM),
        "bounds.eigh_calls": count(tracing.EIG, tracing.NORM),
        "testers.build_ms": own_ms(tracing.TESTER),
        "testers.elements": sum(s.attrs.get("elements", 0) for s in spans),
        "cli.load_ms": own_ms(tracing.LOAD),
        "linalg.dumps_ms": own_ms(tracing.DUMPS),
        "cli.to_json_ms": own_ms(tracing.TO_JSON),
        "cli.report_bytes": report_bytes,
        "other_ms": wall_s * 1e3 - covered,
    }


def traced_pass(jobs, tracer, traced, layers, scorer) -> float:
    """One pass with the tracer installed; appends its reference-host times and
    layer numbers, and returns its wall seconds."""
    first = len(tracer.spans)
    tracer.install()
    try:
        raws, wall, ref = run_pass(jobs, tracer)
        traced.append(ref)
    finally:
        tracer.uninstall()
    scorer.score(raws)
    layers.append(pass_layers(tracer.spans[first:],
                              tracing.self_times_ns(tracer.spans, first),
                              sum(wall), scorer.report_bytes))
    return sum(wall)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result line, detail record)."""
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    calibration.SAMPLES.clear()
    detail: dict = {"workload": name, "why": workloads.WORKLOADS[name], "seed": seed,
                    "seconds": seconds, "trace": int(trace), "environment": environment()}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        jobs = workloads.prepare(name, seed, Path(tmp))
        combos = sum(len(job.combinations) for job in jobs)
        detail["sizes"] = {job.name: {"combinations": len(job.combinations), "solves": job.solves,
                                      "d_in": job.scenario.d_in, "d_out": job.scenario.d_out,
                                      "objective_dim": job.scenario.d_in * job.scenario.d_out}
                           for job in jobs}
        setup, setup_wall = [], []
        # warm-up pass: fills caches, and its reports are the fully checked reference
        scorer = Scorer(jobs, run_pass(jobs)[0])
        untraced, untraced_wall, traced, layers = [], [], [], []
        tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        while True:
            # traced run: the pair order alternates, so neither side always goes first
            traced_first = len(untraced) % 2 == 1
            last = 0.0
            if trace and traced_first:
                last += traced_pass(jobs, tracer, traced, layers, scorer)
            raws, wall, ref = run_pass(jobs)
            untraced.append(ref)
            untraced_wall.append(wall)
            last += sum(wall)
            scorer.score(raws)
            if not trace:
                # one fresh-process set-up per pass spreads the probes over the run
                elapsed, elapsed_ref = measure_setup(jobs)
                setup_wall.append(elapsed)
                setup.append(elapsed_ref)
                last += elapsed
            elif not traced_first:
                last += traced_pass(jobs, tracer, traced, layers, scorer)
            done = len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_PASSES
            if done and time.perf_counter() - start + last > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report_s = full_report_s(untraced)
    totals = [sum(p) for p in untraced]
    wall_totals = [sum(p) for p in untraced_wall]
    detail["report_s"] = {"value": report_s, "n": len(untraced), "median_of_passes":
                          statistics.median(totals), "tail": tail(totals), "samples": totals,
                          "job_samples": untraced,
                          "wall": {"value": full_report_s(untraced_wall),
                                   "median_of_passes": statistics.median(wall_totals),
                                   "tail": tail(wall_totals), "samples": wall_totals}}
    detail["calibration"] = {"nominal_s": calibration.NOMINAL_S,
                             "startup_nominal_s": calibration.STARTUP_NOMINAL_S,
                             "kernel_samples": calibration.SAMPLES}
    detail["failed_frac"] = scorer.failed / scorer.attempted
    detail["problems"] = scorer.problems()
    correct = scorer.failed == 0
    if trace:
        metrics = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        solve_ms = [s.dur_ns * 1e-6 for s in tracer.spans if s.name == tracing.SOLVE]
        metrics["channel_opt.solve_ms_p50"] = percentile(solve_ms, 50) if solve_ms else 0.0
        metrics["channel_opt.solve_ms_p90"] = percentile(solve_ms, 90) if solve_ms else 0.0
        metrics["trace.overhead_s"] = full_report_s(traced) - report_s
        detail["traced_report_s"] = {"value": full_report_s(traced), "n": len(traced),
                                     "samples": [sum(p) for p in traced]}
        detail["solve_samples"] = len(solve_ms)
        detail["exact_counts"] = [{k: p[k] for k in EXACT_COUNTS} for p in layers]
        repeat = all(p[k] == layers[0][k] for p in layers for k in EXACT_COUNTS)
        detail["exact_counts_repeat"] = repeat
        correct = correct and repeat
        spans_path = RESULTS / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        table = PER_LAYER
    else:
        metrics = {"report_s": report_s,
                   "combos_per_s": combos / report_s,
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb,
                   "ok_frac": 1.0 - scorer.failed / scorer.attempted}
        detail["setup_s"] = {"median": metrics["setup_s"], "n": len(setup), "samples": setup,
                             "wall": {"median": statistics.median(setup_wall),
                                      "samples": setup_wall}}
        table = END_TO_END
    result = {"correct": correct, "attempted": scorer.attempted, "failed": scorer.failed,
              "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit, _ in table}}
    detail["result"] = result
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(testerbounds.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"testerbounds imported from {testerbounds.__file__}, not {SRC}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(detail, indent=1) + "\n")
        print(f"# {name} seed={args.seed} trace={args.trace} "
              f"passes={detail['report_s']['n']} failed_frac={detail['failed_frac']:.3g} "
              f"detail={path.relative_to(ROOT)}")
        for key, metric in result["metrics"].items():
            print(f"#   {key:32s} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
