"""Checks on every report the benchmark makes.

A combination fails when its report exited non-zero or raised, when its entry
carries ``error`` or breaks a check below, or when a rerun does not reproduce
its entry byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from testerbounds.linalg import ValidationError
from testerbounds.testers import channel_from_json

ORDER_ATOL = 1e-8    # exact <= upper and exact <= trivial
VALUE_ATOL = 1e-9    # tr[M J] against exact, recomputed upper against reported upper


def objective(job, combination) -> np.ndarray:
    """sum_l r_l T_l(x_l), summed here from the job's testers."""
    return sum(weight * tester.element(label).mat
               for weight, tester, label in zip(job.scenario.weights, job.testers, combination))


def _meb_upper(job, combination) -> float:
    # rank-1 MEB projectors P, Q: |<a|b>|^2 = tr[P Q]
    (p_label, q_label), (t1, t2) = combination, job.scenario.tests
    p, q = dict(t1.povm)[p_label].mat, dict(t2.povm)[q_label].mat
    return 0.5 * (1.0 + np.sqrt(max(np.trace(p @ q).real, 0.0)))


def entry_problem(job, combination, entry: dict, tol: float) -> str | None:
    """Why one report entry is wrong, or None when every check holds."""
    if entry.get("combination") != list(combination):
        return "combination out of order"
    if "error" in entry:
        return f"error: {entry['error']}"
    m = objective(job, combination)
    upper = entry["upper"]
    if abs(upper - job.scenario.d_in * float(np.linalg.eigvalsh(m)[-1])) > VALUE_ATOL:
        return "upper is not d_in * ||M||"
    if job.expect_meb_upper and abs(upper - _meb_upper(job, combination)) > VALUE_ATOL:
        return "upper is not (1/2)(1 + |overlap|)"
    if job.closed_form:
        return None
    exact, trivial, gap = entry["exact"], entry["trivial"], entry["gap"]
    if exact > upper + ORDER_ATOL:
        return "exact above upper"
    if exact > trivial + ORDER_ATOL:
        return "exact above trivial"
    if not 0.0 <= gap <= tol:
        return f"gap {gap!r} outside [0, tol]"
    try:
        channel = channel_from_json(entry["optimizer"])
    except (ValidationError, KeyError, ValueError) as exc:
        return f"optimizer is not a channel: {exc}"
    if abs(float(np.trace(m @ channel.choi.mat).real) - exact) > VALUE_ATOL:
        return "tr[M J] differs from exact"
    if job.expect_exact is not None and abs(exact - job.expect_exact) > tol:
        return f"exact differs from the reference {job.expect_exact!r}"
    return None


def check_report(job, rc: int, text: str, tol: float) -> dict[int, str]:
    """Failed combinations of one report, by index, with the first reason."""
    everything = range(len(job.combinations))
    if rc != 0:
        return {i: f"report exited with {rc}" for i in everything}
    try:
        entries = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return {i: "report is not JSON with reports" for i in everything}
    if len(entries) != len(job.combinations):
        return {i: f"{len(entries)} entries for {len(everything)} combinations"
                for i in everything}
    failed = {}
    for i, combination in enumerate(job.combinations):
        try:
            problem = entry_problem(job, combination, entries[i], tol)
        except (KeyError, TypeError) as exc:
            problem = f"malformed entry: {exc!r}"
        if problem is not None:
            failed[i] = problem
    return failed


def rerun_differences(reference: str, text: str, n: int) -> set[int]:
    """Combinations whose entry a rerun did not reproduce byte for byte."""
    if text == reference:
        return set()
    try:
        old, new = json.loads(reference)["reports"], json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return set(range(n))
    differ = {i for i in range(n)
              if i >= len(old) or i >= len(new) or json.dumps(old[i]) != json.dumps(new[i])}
    # equal entries in a different text: the header or layout changed, which
    # every entry of the report shares
    return differ or set(range(n))
