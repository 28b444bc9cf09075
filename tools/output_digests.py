"""Print the SHA-256 of each CLI output on a fixed set of inputs, one
``sha256  name`` line per output, so that two checkouts' outputs can be
compared byte for byte with ``diff``:

    python3 tools/output_digests.py > digests.txt

The outputs are ``gen`` of every kind at d = 2 to 5, and of ``meb`` and
``example2`` at d = 6; ``bound`` of each of those scenarios at d = 2 and 3,
with no flags and with ``--skip-exact --skip-trivial``, and at d = 4 to 6
with ``--skip-exact --skip-trivial`` only, which covers the symmetry search
where every candidate is a symmetry (``meb``, ``example2``) and where only
some are (``example1``, ``state-mub``) at the larger sizes; the full
``bound`` of ``meb --d 5``; ``verify --trials 3 --seed 7``; two channel
files, a unitary and a Kraus one, written as literal payloads; ``simulate``
of ``mub-meb-2qubit`` with the unitary one; the full ``bound`` of two
scenarios built in the library: a seeded random one, with no symmetry, and
one whose POVM repeats each effect, so that symmetries relabel among equal
tester elements; and the full ``bound`` of the committed format-1 scenario
files in ``tests/fixtures/format1``, so that a change to how those are read
shows.  Every command runs in-process through ``cli.main``, with
the package imported from this checkout's ``src/``, and writes to a
temporary directory.  A command that does not exit 0 gets its exit code
after its name.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from testerbounds.cli import GEN_KINDS, main  # noqa: E402
from testerbounds.linalg import HermitianOperator, dumps_canonical  # noqa: E402
from testerbounds.sampling import random_scenario  # noqa: E402
from testerbounds.testers import Scenario, Test, scenario_to_json  # noqa: E402

FORMAT1 = sorted((Path(__file__).resolve().parent.parent / "tests" / "fixtures"
                  / "format1").glob("*.json"))
S = math.sqrt(0.5)
CHANNELS = {
    "unitary": {"kind": "unitary", "d_in": 2, "d_out": 2,
                "data": np.array([[S, 1j * S], [1j * S, S]])},
    # amplitude damping with decay probability 1/4
    "kraus": {"kind": "kraus", "d_in": 2, "d_out": 2,
              "data": np.array([[[1, 0], [0, math.sqrt(0.75)]], [[0, 0.5], [0, 0]]],
                               dtype=complex)},
}


def _repeated_effects() -> Scenario:
    """One ancilla-free test of input diag(0.6, 0.4) whose POVM is the
    computational basis of dimension 5 with each effect split into two equal
    halves, labelled x0, x1, ..."""
    effects = [np.diag(np.eye(5)[i]) / 2 for i in range(5) for _ in range(2)]
    test = Test(HermitianOperator(np.diag([0.6, 0.4]), (1, 2)),
                [(f"x{i}", HermitianOperator(e, (1, 5))) for i, e in enumerate(effects)],
                1, 2, 5)
    return Scenario([test], [1.0])


SCENARIOS = {
    "random-3x2 seed 3": lambda: random_scenario(
        np.random.default_rng(3), n_tests=2, d_anc=2, d_in=3, d_out=2, n_outcomes=3),
    "repeated-effects 2x5": _repeated_effects,
}


def _digest(name: str, path: Path, code: int = 0) -> None:
    data = path.read_bytes() if path.exists() else b""  # a failed command may write nothing
    suffix = f" (exit {code})" if code else ""
    print(f"{hashlib.sha256(data).hexdigest()}  {name}{suffix}", flush=True)


def _run(tmp: Path, name: str, *argv: str) -> Path:
    """Run the CLI with ``--out`` a new file, print that file's digest, return its path."""
    out = tmp / (name.replace(" ", "_") + ".json")
    code = main([*argv, "--out", str(out)])
    _digest(name, out, code)
    return out


def print_digests(tmp: Path) -> None:
    scenarios: dict[tuple[str, int], Path] = {}
    for kind in GEN_KINDS:
        # mub-meb-2qubit is one fixed scenario, whatever --d says
        for d in (2,) if kind == "mub-meb-2qubit" else \
                (2, 3, 4, 5, 6) if kind in ("meb", "example2") else (2, 3, 4, 5):
            scenarios[kind, d] = _run(tmp, f"gen {kind} --d {d}", "gen", kind, "--d", str(d))
    for (kind, d), path in scenarios.items():
        if d <= 3:
            _run(tmp, f"bound {kind} --d {d}", "bound", str(path))
        _run(tmp, f"bound {kind} --d {d} --skip-exact --skip-trivial",
             "bound", str(path), "--skip-exact", "--skip-trivial")
    _run(tmp, "bound meb --d 5", "bound", str(scenarios["meb", 5]))
    _run(tmp, "verify --trials 3 --seed 7", "verify", "--trials", "3", "--seed", "7")
    for kind, payload in CHANNELS.items():
        path = tmp / f"channel-{kind}.json"
        path.write_text(dumps_canonical(payload) + "\n")
        _digest(f"channel {kind}", path)
    _run(tmp, "simulate mub-meb-2qubit unitary", "simulate",
         str(scenarios["mub-meb-2qubit", 2]), str(tmp / "channel-unitary.json"))
    for name, build in SCENARIOS.items():
        path = tmp / (name.replace(" ", "_") + "-scenario.json")
        path.write_text(dumps_canonical(scenario_to_json(build())) + "\n")
        _run(tmp, f"bound {name}", "bound", str(path))
    for path in FORMAT1:
        _run(tmp, f"bound format-1 {path.stem}", "bound", str(path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print_digests(Path(tmp))
