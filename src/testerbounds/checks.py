"""Randomized verification suite behind the ``verify`` CLI command.

Each check draws fresh random instances, measures a worst-case residual and
compares it against the same tolerances the library promises elsewhere.  The
suite is deliberately redundant with the unit tests: it gives a one-command
self-check on any installation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    exact_bound,
    qubit_meb_optimizer,
    tightness_check,
    upper_bound,
)
from .linalg import HermitianOperator, basis_transpose, partial_trace
from .sampling import (
    ginibre_state,
    haar_unitary,
    random_channel,
    random_mixed_marginal_test,
    random_scenario,
    random_test,
)
from .scenarios import MEB, generalized_bell_basis, meb_scenario
from .testers import (
    Scenario,
    direct_probability,
    probability,
    tester_from_test,
    upsilon_dual_apply,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_residual: float
    detail: str


def check_born_rule(rng: np.random.Generator, trials: int) -> CheckResult:
    """Tester probabilities match the three-step simulation and sum to one."""
    worst = 0.0
    for _ in range(trials):
        d_anc, d_in, d_out = (int(rng.integers(1, 4)) for _ in range(3))
        test = random_test(d_anc, d_in, d_out, int(rng.integers(2, 4)), rng)
        tester = tester_from_test(test)
        ch = random_channel(d_in, d_out, rng)
        total = 0.0
        for label, element in tester.elements:
            p = probability(element, ch)
            q = direct_probability(test, label, ch)
            worst = max(worst, abs(p - q))
            total += p
        worst = max(worst, abs(total - 1.0))
    return CheckResult("born_rule_equivalence", worst <= 1e-9,
                       worst, f"{trials} random (test, channel) pairs")


def check_tester_normalization(rng: np.random.Generator, trials: int) -> CheckResult:
    """Tester elements sum to (input marginal)^T (x) identity."""
    worst = 0.0
    for _ in range(trials):
        d_anc, d_in, d_out = (int(rng.integers(1, 4)) for _ in range(3))
        test = random_test(d_anc, d_in, d_out, int(rng.integers(2, 4)), rng)
        tester = tester_from_test(test)
        total = sum(op.mat for _, op in tester.elements)
        marg = basis_transpose(partial_trace(test.input_state, keep=[1]))
        worst = max(worst, float(np.max(np.abs(total - np.kron(marg.mat, np.eye(d_out))))))
    return CheckResult("tester_normalization", worst <= 1e-9, worst,
                       f"{trials} random tests")


def check_decomposition_independence(rng: np.random.Generator, trials: int) -> CheckResult:
    """The dual ancilla map is independent of the pure-state decomposition."""
    worst = 0.0
    for _ in range(trials):
        d_anc, d_in = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rho = ginibre_state(d_anc * d_in, rng, dims=(d_anc, d_in))
        b = ginibre_state(d_anc, rng)
        b = HermitianOperator(b.mat * d_anc, (d_anc,))  # arbitrary Hermitian scale
        vals, vecs = np.linalg.eigh(rho.mat)
        keep = [(v, vecs[:, i]) for i, v in enumerate(vals) if v > 1e-14]
        n = len(keep)
        k = n + 2
        g = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        mixed = []
        for row in range(k):
            phi = sum(q[row, m] * np.sqrt(keep[m][0]) * keep[m][1] for m in range(n))
            norm = np.linalg.norm(phi)
            if norm > 1e-12:
                mixed.append((float(norm**2), phi / norm))
        u1 = upsilon_dual_apply(rho, b)
        u2 = upsilon_dual_apply(rho, b, decomposition=mixed)
        worst = max(worst, float(np.max(np.abs(u1.mat - u2.mat))))
    return CheckResult("decomposition_independence", worst <= 1e-10, worst,
                       f"{trials} randomized redecompositions")


def check_povm_marginal_criterion(rng: np.random.Generator, trials: int,
                                  inject_fault: bool = False) -> CheckResult:
    """Rescaled testers d_in T form a POVM exactly when the input marginal is I/d_in."""
    worst = 0.0
    ok = True
    for _ in range(trials):
        d_in = int(rng.integers(2, 4))
        d_anc = d_in + int(rng.integers(0, 2))
        d_out = int(rng.integers(1, 4))
        conforming = random_mixed_marginal_test(d_anc, d_in, d_out, 3, rng)
        if inject_fault:
            # negative control: slip a non-uniform-marginal fixture into the
            # conforming slot; the completeness check below must then fail
            conforming = random_test(d_anc, d_in, d_out, 3, rng)
        tester = tester_from_test(conforming)
        total = sum(op.mat for _, op in tester.elements) * d_in
        resid = float(np.max(np.abs(total - np.eye(d_in * d_out))))
        worst = max(worst, resid)
        if resid > 1e-9:
            ok = False

        violating = random_test(d_anc, d_in, d_out, 3, rng)
        marg = partial_trace(violating.input_state, keep=[1])
        marg_resid = float(np.max(np.abs(marg.mat - np.eye(d_in) / d_in)))
        tester = tester_from_test(violating)
        total = sum(op.mat for _, op in tester.elements) * d_in
        completeness_resid = float(np.max(np.abs(total - np.eye(d_in * d_out))))
        # converse direction: a visibly non-uniform marginal must show up as
        # a completeness violation
        if marg_resid > 1e-6 and completeness_resid <= 1e-9:
            ok = False
    return CheckResult("povm_marginal_criterion", ok, worst,
                       f"{trials} conforming/violating fixture pairs")


def check_exact_below_norm_cap(rng: np.random.Generator, trials: int,
                               tol: float = 1e-6) -> CheckResult:
    """The certified exact bound never exceeds the operator-norm cap."""
    worst = -np.inf
    ok = True
    for _ in range(trials):
        scenario = random_scenario(rng)
        combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))] for t in scenario.tests)
        ub = upper_bound(scenario, combo)
        ex = exact_bound(scenario, combo, tol=tol)
        worst = max(worst, ex.value - ub)
        if ex.value > ub + 1e-8:
            ok = False
        tight = tightness_check(scenario, combo)
        if tight.tight and abs(ex.value - ub) > max(1e-6, 10 * ex.gap):
            ok = False
    return CheckResult("exact_below_norm_cap", ok, worst,
                       f"{trials} random scenarios, residual = max(exact - upper)")


def check_uniform_marginal_unit_cap(rng: np.random.Generator, trials: int) -> CheckResult:
    """Uniform input marginals force the operator-norm bound below one."""
    worst = -np.inf
    for _ in range(trials):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(1, 4))
        tests = []
        for l in range(2):
            d_anc = d_in + int(rng.integers(0, 2))
            tests.append(random_mixed_marginal_test(d_anc, d_in, d_out, 3, rng,
                                                    prefix=f"x{l + 1}"))
        w = rng.dirichlet(np.ones(2))
        scenario = Scenario(tests, w / w.sum())
        combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))] for t in scenario.tests)
        worst = max(worst, upper_bound(scenario, combo) - 1.0)
    return CheckResult("uniform_marginal_unit_cap", worst <= 1e-9, worst,
                       f"{trials} uniform-marginal scenarios, residual = max(upper - 1)")


def _random_meb(d: int, rng: np.random.Generator) -> MEB:
    base = generalized_bell_basis(d)
    u = haar_unitary(d, rng)
    return MEB.from_generators([u @ g for g in base.generators])


def check_meb_pair_norm_formula(rng: np.random.Generator, trials: int) -> CheckResult:
    """Upper bound for two MEB tests equals (1/2)(1 + |overlap|)."""
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        meb1, meb2 = _random_meb(d, rng), _random_meb(d, rng)
        scenario = meb_scenario(meb1, meb2)
        i, j = int(rng.integers(0, d * d)), int(rng.integers(0, d * d))
        combo = (scenario.tests[0].labels[i], scenario.tests[1].labels[j])
        ub = upper_bound(scenario, combo)
        expected = 0.5 * (1 + abs(meb1.kets[i].overlap(meb2.kets[j])))
        worst = max(worst, abs(ub - expected))
    return CheckResult("meb_pair_norm_formula", worst <= 1e-9, worst,
                       f"{trials} random MEB pairs (d = 2, 3)")


def check_qubit_meb_optimal(rng: np.random.Generator, trials: int,
                            tol: float = 1e-6) -> CheckResult:
    """For qubit MEB pairs the exact bound hits (1/2)(1 + |overlap|) and the
    closed-form unitary channel achieves it."""
    worst = 0.0
    ok = True
    for _ in range(trials):
        meb1, meb2 = _random_meb(2, rng), _random_meb(2, rng)
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        psi1, psi2 = meb1.kets[i], meb2.kets[j]
        expected = 0.5 * (1 + abs(psi1.overlap(psi2)))
        scenario = meb_scenario(meb1, meb2)
        combo = (scenario.tests[0].labels[i], scenario.tests[1].labels[j])
        ex = exact_bound(scenario, combo, tol=tol)
        resid = abs(ex.value - expected)
        worst = max(worst, resid)
        if resid > max(1e-6, 10 * ex.gap):
            ok = False
        _u, value = qubit_meb_optimizer(psi1, psi2)
        worst = max(worst, abs(value - expected))
        if abs(value - expected) > 1e-9:
            ok = False
    return CheckResult("qubit_meb_optimal_channel", ok, worst,
                       f"{trials} random qubit MEB pairs")


def run_all(seed: int, trials: int, tol: float = 1e-6,
            inject_fault: bool = False) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_born_rule(rng, trials),
        check_tester_normalization(rng, trials),
        check_decomposition_independence(rng, trials),
        check_povm_marginal_criterion(rng, max(2, trials // 2), inject_fault=inject_fault),
        check_exact_below_norm_cap(rng, trials, tol=tol),
        check_uniform_marginal_unit_cap(rng, trials),
        check_meb_pair_norm_formula(rng, max(2, trials // 2)),
        check_qubit_meb_optimal(rng, max(2, trials // 2), tol=tol),
    ]
