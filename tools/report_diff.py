"""Compare two ``bound`` outputs of one scenario, entry by entry:

    python3 tools/report_diff.py before.json after.json

For each numeric field, ``trivial``, ``upper``, ``exact``, ``gap`` and the
entries of the ``optimizer``'s Choi matrix, it prints the largest absolute
change over all entries and the combination where it occurs.  Then it
prints each flag that differs: ``tradeoff``, ``tight``,
``tight_degenerate``, ``error``, a bound present in one output only, an
optimizer of another shape, a different combination at the same position,
and a different ``scenario_digest`` or ``tol``.  Its last line counts the
flag changes by field and direction, and how many of them fall on entries
that either output marks ``tight_degenerate``.  It exits 1 when a flag
differs or a value moved by more than the first output's ``tol``, 2 when
not given two files, and 0 otherwise.
"""

from __future__ import annotations

import json
import sys

import numpy as np

NUMBERS = ("trivial", "upper", "exact", "gap")
FLAGS = ("tradeoff", "tight", "tight_degenerate", "error")


def _choi(optimizer: dict) -> np.ndarray:
    data = np.asarray(optimizer["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


def compare(before: dict, after: dict) -> tuple[dict[str, tuple[float, str]], list[tuple]]:
    """({field: (largest absolute change, where)},
    [(flag difference, field, direction, on a degenerate entry)])."""
    moved = {name: (0.0, "") for name in (*NUMBERS, "optimizer")}
    flags: list[tuple[str, str, str, bool]] = []

    def flag(text: str, field: str, direction: str, degenerate: bool = False) -> None:
        flags.append((text, field, direction, degenerate))

    for key in ("scenario_digest", "tol"):
        if before.get(key) != after.get(key):
            flag(f"{key}: {before.get(key)!r} -> {after.get(key)!r}", key, "changed")
    first, second = before["reports"], after["reports"]
    if len(first) != len(second):
        flag(f"entries: {len(first)} -> {len(second)}", "entries", f"{len(first)} -> {len(second)}")

    def move(name: str, change: float, where: str) -> None:
        if change > moved[name][0]:
            moved[name] = (change, where)

    for a, b in zip(first, second):
        where = ",".join(a["combination"])
        if a["combination"] != b["combination"]:
            flag(f"combination: {where} -> {','.join(b['combination'])}", "combination", "changed")
            continue
        degenerate = bool(a.get("tight_degenerate") or b.get("tight_degenerate"))
        for name in (*NUMBERS, *FLAGS, "optimizer"):
            if (name in a) != (name in b):
                direction = "present -> absent" if name in a else "absent -> present"
                flag(f"{name} at {where}: {direction}", name, direction, degenerate)
            elif name not in a:
                continue
            elif name in NUMBERS:
                move(name, abs(b[name] - a[name]), where)
            elif name in FLAGS:
                if a[name] != b[name]:
                    flag(f"{name} at {where}: {a[name]!r} -> {b[name]!r}", name,
                         "changed" if name == "error" else f"{a[name]!r} -> {b[name]!r}",
                         degenerate)
            else:
                shape = [(o["kind"], o["d_in"], o["d_out"]) for o in (a[name], b[name])]
                if shape[0] != shape[1]:
                    flag(f"optimizer at {where}: {shape[0]} -> {shape[1]}", name, "reshaped",
                         degenerate)
                else:
                    move(name, float(np.abs(_choi(b[name]) - _choi(a[name])).max()), where)
    return moved, flags


def summary(flags: list[tuple]) -> str:
    """The last line: each field and direction with its count of changes."""
    counts: dict[tuple[str, str], list[int]] = {}
    for _, field, direction, degenerate in flags:
        n = counts.setdefault((field, direction), [0, 0])
        n[0] += 1
        n[1] += degenerate
    parts = [f"{field} {direction}: {n} ({on} on tight_degenerate entries)"
             for (field, direction), (n, on) in sorted(counts.items())]
    return "flag changes by field: " + ("; ".join(parts) or "none")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    moved, flags = compare(before, after)
    tol = float(before["tol"])
    for name, (change, where) in moved.items():
        print(f"{name:<10} {change:.3e}" + (f"  at {where}" if change else ""))
    for text, *_ in flags:
        print(f"flag {text}")
    worst = max(change for change, _ in moved.values())
    print(f"{len(flags)} flags changed; largest change {worst:.3e} (tol {tol:g})")
    print(summary(flags))
    return 1 if flags or worst > tol else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
