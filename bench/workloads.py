"""Workloads: the scenario inputs each one reports on, made from the seed.

A *job* is one full report of one scenario, exactly as a user asks for it:
``testerbounds bound`` through ``cli.main`` or the library ``scenario_report``.
A *pass* reports every job of a workload once; its wall time is ``report_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from testerbounds import bounds, cli, sampling
from testerbounds.linalg import dumps_canonical
from testerbounds.testers import Scenario, scenario_from_json, scenario_to_json

TOL = 1e-6

WORKLOADS = {
    "structured-suite": "the paper's scenarios through the user-facing CLI: every gen kind at "
                        "the ROADMAP sizes, most time in the solver, one exact value per kind",
    "random-unstructured": "seeded random tests with no symmetry and no tight combinations, "
                           "so fast paths and orbit reuse are bypassed and only the solver core counts",
    "closed-form-wide": "625 combinations of 25x25 objectives with no solves: load, digest, "
                        "tester build, objective assembly, eigendecompositions and JSON output",
}

# (gen kind, d) at the sizes the ROADMAP cites; d is ignored by mub-meb-2qubit
STRUCTURED = (("state-mub", 5), ("example1", 4), ("example2", 3), ("meb", 3),
              ("mub-meb-2qubit", 2))
CLOSED_FORM = (("meb", 5), ("example2", 5))
# (tests, d_anc = d_in = d_out, outcomes per test)
RANDOM_SHAPES = ((3, 3, 4), (2, 4, 6))


@dataclass
class Job:
    name: str
    path: Path
    scenario: Scenario
    argv: list[str] | None  # CLI arguments; None reports through the library
    closed_form: bool = False
    expect_exact: float | None = None  # reference value of every exact bound
    expect_meb_upper: bool = False     # upper must equal (1/2)(1 + |overlap|)
    testers: list = field(init=False)
    combinations: list[tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        self.testers = self.scenario.testers()
        self.combinations = bounds.all_combinations(self.scenario)

    @property
    def solves(self) -> int:
        """Channel optimizations one report of this job makes."""
        if self.closed_form:
            return 0
        outcomes = sum(len(t.labels) for t in self.scenario.tests)
        return len(self.combinations) + outcomes


def _load(path: Path) -> Scenario:
    return scenario_from_json(json.loads(path.read_text()))


def _gen(kind: str, d: int, workdir: Path) -> Path:
    path = workdir / f"{kind}-d{d}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen", kind, "--d", str(d), "--out", str(path)])
    if rc != 0:
        raise RuntimeError(f"gen {kind} --d {d} exited with {rc}")
    return path


def prepare(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's scenario files into ``workdir`` and load them."""
    jobs = []
    if workload == "structured-suite":
        for kind, d in STRUCTURED:
            path = _gen(kind, d, workdir)
            expect = {"mub-meb-2qubit": 0.75,
                      "state-mub": bounds.mub_state_bound(d)}.get(kind)
            jobs.append(Job(path.stem, path, _load(path),
                            ["bound", str(path), "--tol", repr(TOL)], expect_exact=expect))
    elif workload == "closed-form-wide":
        for kind, d in CLOSED_FORM:
            path = _gen(kind, d, workdir)
            jobs.append(Job(path.stem, path, _load(path),
                            ["bound", str(path), "--skip-exact", "--skip-trivial"],
                            closed_form=True, expect_meb_upper=kind == "meb"))
    elif workload == "random-unstructured":
        rng = np.random.default_rng(seed)
        for n_tests, d, outcomes in RANDOM_SHAPES:
            scenario = sampling.random_scenario(rng, n_tests=n_tests, d_anc=d, d_in=d,
                                                d_out=d, n_outcomes=outcomes)
            path = workdir / f"random-{n_tests}x{d}d-{outcomes}o.json"
            path.write_text(dumps_canonical(scenario_to_json(scenario)))
            jobs.append(Job(path.stem, path, _load(path), None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def report(job: Job):
    """One full report of one job; this is the timed work.

    Returns the exit code and the raw output, which ``render`` turns into the
    report text outside the timed region.
    """
    try:
        if job.argv is None:
            return 0, bounds.scenario_report(job.scenario, tol=TOL)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(job.argv)
        return rc, out
    except Exception as exc:  # a report that raises counts as failed, the run goes on
        print(f"{job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1, None


def render(job: Job, raw) -> tuple[int, str]:
    rc, out = raw
    if out is None:
        return rc, ""
    if job.argv is not None:
        return rc, out.getvalue()
    return rc, dumps_canonical({"tol": TOL,
                                "reports": [bounds.report_to_json(r) for r in out]})
