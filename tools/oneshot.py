"""Time the one-shot CLI of two source trees in alternating pairs of fresh processes:

    python3 tools/oneshot.py BASE_SRC HEAD_SRC [--pairs N]

BASE_SRC and HEAD_SRC are ``src/`` directories of two checkouts.  Each command
runs as a new ``python -m testerbounds`` process with ``PYTHONPATH`` set to one
tree (``python -m testerbounds.cli`` for a tree that has no ``__main__``), and
with none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` set, as a user who sets none runs it.  The commands are

- ``bound meb --d 5 --skip-exact --skip-trivial``;
- ``bound mub-meb-2qubit``, the full report.

Their scenario files are written once by HEAD_SRC's ``gen``.  Each pair runs
one command once per tree, base first in odd pairs and head first in even
ones.  Per command, the tool prints each tree's median wall time and
quartiles in ms, the change of the medians, and the pairs head won (ties
count for neither side).  It exits 1 if the two trees print different bytes
for a command, or if a command does not exit 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
COMMANDS = {  # name: (gen arguments, bound flags)
    "bound meb --d 5 --skip-exact --skip-trivial": (("meb", "--d", "5"),
                                                    ("--skip-exact", "--skip-trivial")),
    "bound mub-meb-2qubit": (("mub-meb-2qubit",), ()),
}


def _env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(src)
    return env


def _module(src: Path) -> str:
    return "testerbounds" if (src / "testerbounds" / "__main__.py").is_file() \
        else "testerbounds.cli"


def run(src: Path, *args: str) -> tuple[float, bytes]:
    """Wall time in seconds and stdout of one fresh ``testerbounds`` process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", _module(src), *args], env=_env(src),
                          capture_output=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return elapsed, proc.stdout


def _summary(times: list[float]) -> str:
    ms = sorted(1e3 * t for t in times)
    q1, q2, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return f"median {q2:.1f} ms (quartiles {q1:.1f}-{q3:.1f})"


def compare(base: Path, head: Path, pairs: int, workdir: Path) -> int:
    """Print the table for ``pairs`` pairs per command; return the exit code."""
    code = 0
    for name, (gen, flags) in COMMANDS.items():
        scenario = workdir / f"{gen[0]}.json"
        run(head, "gen", *gen, "--out", str(scenario))
        argv = ("bound", str(scenario), *flags)
        times: tuple[list[float], list[float]] = ([], [])  # base, head
        outputs = [b"", b""]
        for i in range(pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                elapsed, outputs[side] = run((base, head)[side], *argv)
                times[side].append(elapsed)
        won = sum(h < b for b, h in zip(*times))
        change = statistics.median(times[1]) - statistics.median(times[0])
        print(f"{name}\n  base {_summary(times[0])}\n  head {_summary(times[1])}\n"
              f"  head - base {1e3 * change:+.1f} ms; head won {won} of {pairs} pairs")
        if outputs[0] != outputs[1]:
            print("  outputs differ")
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src/ directory of the base checkout")
    parser.add_argument("head", type=Path, help="src/ directory of the head checkout")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per command (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        return compare(args.base.resolve(), args.head.resolve(), args.pairs, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
