"""Command-line interface.

Commands:
  gen       write a ready-made scenario file
  bound     compute a bound report for every outcome combination
  verify    run the randomized self-check suite
  simulate  sample outcomes from a channel and compare against the bounds

Machine-readable JSON goes to stdout (or --out); diagnostics go to stderr.
Exit codes: 0 ok, 1 verification/inequality failure, 2 usage or input error,
3 solver failure.  The command is ``testerbounds`` or ``python -m testerbounds``
(see ``__main__``); each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (InequalityError, all_combinations, report_to_json, scenario_report,
                     upper_bound)
from .channel_opt import SolverError
# not called here: bench/tracing.py looks these three names up in this module
from .bounds import tightness_check  # noqa: F401
from .channel_opt import maximize_over_channels  # noqa: F401
from .linalg import dumps_canonical  # noqa: F401
from .linalg import ValidationError, write_canonical
from .testers import (
    channel_from_json,
    sample_run,
    scenario_from_json,
    scenario_to_json,
)

GEN_KINDS = ("state-mub", "example1", "example2", "meb", "mub-meb-2qubit")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(obj, out: str | None) -> None:
    """Write ``obj`` as canonical JSON and a newline to the file ``out``, else to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        write_canonical(obj, fh.write)
        fh.write("\n")


def _build_scenario(kind: str, d: int):
    # imported here, so that only gen loads the scenario builders
    from .scenarios import (MEB, ancilla_free_scenario, entangled_input_product_scenario,
                            generalized_bell_basis, meb_scenario, mub_bases,
                            mub_meb_pair_2qubit, state_measurement_scenario)

    if kind == "state-mub":
        return state_measurement_scenario(mub_bases(d, 2), (0.5, 0.5))
    if kind == "example1":
        bases = mub_bases(d, 2)
        psi1 = bases[0][0]
        psi2 = bases[1][0]
        return ancilla_free_scenario([psi1, psi2], bases, (0.5, 0.5))
    if kind == "example2":
        bases = mub_bases(d, 2)
        return entangled_input_product_scenario(d, bases, bases)
    if kind == "meb":
        meb1 = generalized_bell_basis(d)
        fourier = np.stack([k.amps for k in mub_bases(d, 2)[1]], axis=1)
        meb2 = MEB.from_generators([fourier @ g for g in meb1.generators])
        return meb_scenario(meb1, meb2)
    if kind == "mub-meb-2qubit":
        meb1, meb2 = mub_meb_pair_2qubit()
        return meb_scenario(meb1, meb2)
    raise ValidationError(f"unknown scenario kind {kind!r}")


def cmd_gen(args) -> int:
    if args.kind != "mub-meb-2qubit" and args.d < 2:
        _err("--d must be at least 2")
        return 2
    scenario = _build_scenario(args.kind, args.d)
    _emit(scenario_to_json(scenario), args.out)
    return 0


def _load(data: bytes, what: str, from_json):
    """The value ``from_json`` builds from the JSON text ``data``."""
    try:
        return from_json(json.loads(data))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot load {what}: {exc}") from exc


def _cap(args) -> int | None:
    if args.cap < 1:
        raise ValidationError("--cap must be at least 1")
    return None if args.no_cap else args.cap


def cmd_bound(args) -> int:
    # the digest is the SHA-256 of the file's bytes, the same bytes that are parsed
    data = Path(args.scenario).read_bytes()
    scenario = _load(data, "scenario", scenario_from_json)
    reports = scenario_report(scenario, tol=args.tol, cap=_cap(args),
                              skip_exact=args.skip_exact, skip_trivial=args.skip_trivial)
    payload = {
        "scenario_digest": hashlib.sha256(data).hexdigest(),
        "tol": args.tol,
        # written one entry at a time, as each is built
        "reports": map(report_to_json, reports),
    }
    _emit(payload, args.out)
    failed = sum(r.error is not None for r in reports)
    if failed:
        _err(f"{failed} of {len(reports)} combinations carry a solver error")
        return 3
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        _err("--trials must be at least 1")
        return 2
    from .checks import run_all  # only verify loads the checks and their samplers

    results = run_all(seed=args.seed, trials=args.trials, tol=args.tol,
                      inject_fault=args.inject_fault)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        _err(f"{status} {r.name}: worst residual {r.worst_residual:.3e} ({r.detail})")
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "checks": [{"name": r.name, "passed": r.passed,
                    "worst_residual": r.worst_residual, "detail": r.detail}
                   for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload, args.out)
    return 0 if payload["all_passed"] else 1


def cmd_simulate(args) -> int:
    if args.n < 1:
        _err("--n must be at least 1")
        return 2
    scenario = _load(Path(args.scenario).read_bytes(), "scenario", scenario_from_json)
    channel = _load(Path(args.channel).read_bytes(), "channel", channel_from_json)
    if (channel.d_in, channel.d_out) != (scenario.d_in, scenario.d_out):
        _err("channel dimensions do not match the scenario")
        return 2
    combos = all_combinations(scenario, _cap(args))

    histogram = sample_run(scenario, channel, args.n, args.seed)
    checks = []
    violations = 0
    for combo in combos:
        empirical = sum(histogram[label] for label in combo) / args.n
        bound = upper_bound(scenario, combo)
        sigma = float(np.sqrt(max(empirical * (1 - empirical), 1.0 / args.n) / args.n))
        violated = empirical > bound + 5 * sigma
        violations += int(violated)
        checks.append({"combination": list(combo), "empirical": empirical,
                       "bound": bound, "sigma": sigma, "violation": violated})
    payload = {
        "n": args.n,
        "seed": args.seed,
        "histogram": histogram,
        "checks": checks,
        "violations": violations,
    }
    _emit(payload, args.out)
    if violations:
        _err(f"{violations} empirical bound violations beyond 5 sigma")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testerbounds",
        description="Uncertainty bounds for quantum-channel testers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a ready-made scenario file")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bound", help="compute bound reports for a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--tol", type=float, default=1e-6)
    cap = p.add_mutually_exclusive_group()
    cap.add_argument("--cap", type=int, default=4096,
                     help="largest allowed combination count (default 4096)")
    cap.add_argument("--no-cap", action="store_true", help="disable the combination cap")
    p.add_argument("--skip-exact", action="store_true",
                   help="skip the channel optimization, keep closed-form bounds")
    p.add_argument("--skip-trivial", action="store_true",
                   help="skip the per-test maxima")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="run the randomized self-check suite")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one fixture on purpose (the run must then fail)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="sample a channel and check the bounds empirically")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--n", type=int, default=100_000, help="number of samples")
    p.add_argument("--seed", type=int, default=2024)
    cap = p.add_mutually_exclusive_group()
    cap.add_argument("--cap", type=int, default=4096)
    cap.add_argument("--no-cap", action="store_true")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SolverError as exc:
        _err(f"solver failure: {exc}")
        return 3
    except InequalityError as exc:
        _err(f"inequality failure: {exc}")
        return 1
    except (ValidationError, ValueError, OSError) as exc:
        _err(f"error: {exc}")
        return 2
