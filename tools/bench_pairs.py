"""Run the benchmark, or one library report, on two git revisions in
alternating pairs and compare them:

    python3 tools/bench_pairs.py BASE [HEAD] --workload W [--pairs N] [--seed N]
    python3 tools/bench_pairs.py BASE [HEAD] --scenario FILE [--skip-exact]
                                 [--skip-trivial] [--pairs N]

BASE and HEAD (default ``HEAD``) are revisions of this repository.  Each is
exported with ``git archive``, local git only, into its own temporary
directory, so neither side has a ``__pycache__`` at its first run.  Each
pair runs once per side, base first in odd pairs and head first in even
ones:

- with ``--workload``, ``bench/run.py --workload W --seed N --seconds S
  --trace 0``, with S the ``run_seconds`` of HEAD's ``BENCHMARK.json``, and
  the metrics are that file's end-to-end ones;
- with ``--scenario``, a fresh Python process with the side's ``src/`` on
  its path and one BLAS thread unless the environment sets a count, as the
  ``testerbounds`` command starts: it loads FILE, builds the testers and
  times one ``scenario_report(..., cap=None)`` with the skips given; the
  metrics are that call's wall time and the process's peak RSS
  (``ru_maxrss``).

For each metric the tool prints both sides' medians and quartiles, the
change of the medians, the pairs each side won by the metric's direction
(ties count for neither side), and whether the change is resolved: head won
at least nine tenths of the pairs and the medians differ by more than the
distance between base's quartiles.  It exits 1 if a run is not ``correct`` or
fails any operation (in a library run, a report entry with an ``error``).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# variables by which OpenBLAS takes its thread count, as testerbounds.__main__ lists them
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
LIBRARY_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
                   {"name": "maxrss_mb", "unit": "MB", "better": "lower"}]
# argv: the scenario file, then any of --skip-exact and --skip-trivial; prints
# one result line in bench/run.py's form with LIBRARY_METRICS' values
LIBRARY_CHILD = """
import json, resource, sys, time
from pathlib import Path
from testerbounds.bounds import scenario_report
from testerbounds.testers import scenario_from_json
scenario = scenario_from_json(json.loads(Path(sys.argv[1]).read_bytes()))
scenario.testers()
start = time.perf_counter()
reports = scenario_report(scenario, cap=None, skip_exact="--skip-exact" in sys.argv,
                          skip_trivial="--skip-trivial" in sys.argv)
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"correct": True, "failed": sum(r.error is not None for r in reports),
                  "metrics": {"wall_s": {"value": seconds}, "maxrss_mb": {"value": rss}}}))
"""


def export(revision: str, dest: Path) -> None:
    """The files of ``revision`` under ``dest``, by ``git archive``."""
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                            stdout=subprocess.PIPE)
    # extraction filters exist from Python 3.12 and in late 3.10 and 3.11 releases
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, **safe)
    if proc.wait() != 0:
        raise SystemExit(f"git archive {revision} exited {proc.returncode}")


def run(root: Path, workload: str, seed: int, seconds: float) -> str:
    """The last stdout line of one untraced benchmark run in ``root``: its result."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.splitlines()[-1]


def run_library(root: Path, scenario: Path, flags: list[str]) -> str:
    """The result line of one fresh library process on ``root``'s ``src/``:
    ``scenario_report`` of the file ``scenario`` with ``flags``, timed."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    if not any(name in env for name in THREAD_VARIABLES):
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", LIBRARY_CHILD, str(scenario), *flags],
                          cwd=root, env=env, capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: scenario_report exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout.splitlines()[-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(metrics: list[dict], base: list[str], head: list[str]) -> tuple[list[str], bool]:
    """The table for the result lines of paired runs, base[i] paired with
    head[i], and whether every run was correct and failed nothing.
    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries."""
    results = [[json.loads(line) for line in side] for side in (base, head)]
    lines, ok = [], True
    for name, side in zip(("base", "head"), results):
        bad = [i + 1 for i, r in enumerate(side) if not r["correct"] or r["failed"]]
        if bad:
            lines.append(f"{name} runs not correct or with failures: {bad}")
            ok = False
    for metric in metrics:
        key, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = [[r["metrics"][key]["value"] for r in side] for side in results]
        won = [sum(sign * (mine - theirs) > 0 for mine, theirs in zip(values[s], values[1 - s]))
               for s in (0, 1)]
        quartiles = [_quartiles(v) for v in values]
        medians = [statistics.median(v) for v in values]
        change = (medians[1] / medians[0] - 1) * 100 if medians[0] else float("nan")
        resolved = 10 * won[1] >= 9 * len(values[0]) and \
            abs(medians[1] - medians[0]) > quartiles[0][2] - quartiles[0][0]
        lines.append(f"{key} ({metric['unit']}, {metric['better']} is better)")
        for name, (q1, q2, q3) in zip(("base", "head"), quartiles):
            lines.append(f"  {name} median {q2:.6g} (quartiles {q1:.6g}-{q3:.6g})")
        lines.append(f"  head - base {change:+.1f} %; base won {won[0]}, head won {won[1]} "
                     f"of {len(values[0])} pairs; {'' if resolved else 'not '}resolved")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="base revision")
    parser.add_argument("head", nargs="?", default="HEAD", help="head revision (default HEAD)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a workload of bench/run.py")
    mode.add_argument("--scenario", type=Path, help="a scenario file for scenario_report")
    parser.add_argument("--skip-exact", action="store_true", help="with --scenario")
    parser.add_argument("--skip-trivial", action="store_true", help="with --scenario")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="--seed of each benchmark run (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    flags = [flag for flag, on in (("--skip-exact", args.skip_exact),
                                   ("--skip-trivial", args.skip_trivial)) if on]
    if args.workload and flags:
        parser.error(f"{flags[0]} needs --scenario")
    if args.scenario and not args.scenario.is_file():
        parser.error(f"{args.scenario} is not a file")
    for revision in (args.base, args.head):
        if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{revision}^{{commit}}"], capture_output=True).returncode != 0:
            parser.error(f"{revision!r} names no commit")
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "base", Path(tmp) / "head"]
        for revision, root in zip((args.base, args.head), roots):
            export(revision, root)
        if args.workload:
            spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
            seconds, metrics = spec["run_seconds"], spec["end_to_end"]
            title = f"{args.workload}: {args.base} against {args.head}, {args.pairs} pairs, " \
                f"seed {args.seed}, {seconds:g} s per run"

            def one(root):
                return run(root, args.workload, args.seed, seconds)
        else:
            scenario, metrics = args.scenario.resolve(), LIBRARY_METRICS
            title = f"scenario_report {' '.join([args.scenario.name, *flags])}: {args.base} " \
                f"against {args.head}, {args.pairs} pairs, one fresh process per run"

            def one(root):
                return run_library(root, scenario, flags)
        lines: tuple[list[str], list[str]] = ([], [])
        for i in range(args.pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                lines[side].append(one(roots[side]))
    table, ok = summarize(metrics, *lines)
    print(title)
    print("\n".join(table))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
