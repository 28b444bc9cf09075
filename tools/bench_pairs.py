"""Run the benchmark on two git revisions in alternating pairs and compare them:

    python3 tools/bench_pairs.py BASE [HEAD] --workload W [--pairs N] [--seed N]

BASE and HEAD (default ``HEAD``) are revisions of this repository.  Each is
exported with ``git archive``, local git only, into its own temporary
directory, so neither side has a ``__pycache__`` at its first run.  Each
pair runs ``bench/run.py --workload W --seed N --seconds S --trace 0`` once
per side, base first in odd pairs and head first in even ones, with S the
``run_seconds`` of HEAD's ``BENCHMARK.json``.  For each
end-to-end metric of that file the tool prints both sides' medians and
quartiles, the change of the medians, and the pairs each side won by the
metric's direction (ties count for neither side).  It exits 1 if a run is
not ``correct`` or fails any operation.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
        medians = [statistics.median(v) for v in values]
        change = (medians[1] / medians[0] - 1) * 100 if medians[0] else float("nan")
        lines.append(f"{key} ({metric['unit']}, {metric['better']} is better)")
        for name, v in zip(("base", "head"), values):
            q1, q2, q3 = _quartiles(v)
            lines.append(f"  {name} median {q2:.6g} (quartiles {q1:.6g}-{q3:.6g})")
        lines.append(f"  head - base {change:+.1f} %; base won {won[0]}, head won {won[1]} "
                     f"of {len(values[0])} pairs")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="base revision")
    parser.add_argument("head", nargs="?", default="HEAD", help="head revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="--seed of each run (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for revision in (args.base, args.head):
        if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{revision}^{{commit}}"], capture_output=True).returncode != 0:
            parser.error(f"{revision!r} names no commit")
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "base", Path(tmp) / "head"]
        for revision, root in zip((args.base, args.head), roots):
            export(revision, root)
        spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        lines: tuple[list[str], list[str]] = ([], [])
        for i in range(args.pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                lines[side].append(run(roots[side], args.workload, args.seed, seconds))
    table, ok = summarize(spec["end_to_end"], *lines)
    print(f"{args.workload}: {args.base} against {args.head}, {args.pairs} pairs, "
          f"seed {args.seed}, {seconds:g} s per run")
    print("\n".join(table))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
