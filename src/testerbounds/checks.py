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
    agrees,
    exact_bound,
    objective_operator,
    qubit_meb_optimizer,
    scenario_report,
    tightness_check,
    trivial_bound,
    upper_bound,
)
from .channel_opt import _channel, _interior_point, maximize_over_channels
from .linalg import (EQUALITY_ATOL, ROUNDING_ATOL, STATE_ATOL, HermitianOperator, basis_transpose,
                     partial_trace, shift_clock)
from .sampling import (
    ginibre_state,
    haar_isometries,
    haar_unitary,
    random_channel,
    random_covariant_scenario,
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
    return CheckResult("born_rule_equivalence", worst <= EQUALITY_ATOL,
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
    return CheckResult("tester_normalization", worst <= EQUALITY_ATOL, worst,
                       f"{trials} random tests")


def check_decomposition_independence(rng: np.random.Generator, trials: int) -> CheckResult:
    """The dual ancilla map equals sum_n w_n K_n^dag b K_n over a random
    pure-state decomposition of the state: rho = L L^dag by Cholesky, and a
    Haar isometry Q mixes L's columns into sqrt(w_n) K_n, column n of L Q^T
    reshaped to d_anc x d_in."""
    worst = 0.0
    for _ in range(trials):
        d_anc, d_in = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rho = ginibre_state(d_anc * d_in, rng, dims=(d_anc, d_in))
        b = ginibre_state(d_anc, rng)
        b = HermitianOperator(b.mat * d_anc, (d_anc,))  # arbitrary Hermitian scale
        low = np.linalg.cholesky(rho.mat)
        n = len(low)
        q = haar_isometries(rng, 1, n + 2, n)[0]
        # Q^dag Q = I, so the n + 2 mixed vectors still sum to L L^dag = rho
        kraus = (low @ q.T).T.reshape(n + 2, d_anc, d_in)
        mixed = (kraus.conj().transpose(0, 2, 1) @ b.mat @ kraus).sum(axis=0)
        worst = max(worst, float(np.max(np.abs(upsilon_dual_apply(rho, b).mat - mixed))))
    return CheckResult("decomposition_independence", worst <= STATE_ATOL, worst,
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
        if resid > EQUALITY_ATOL:
            ok = False

        violating = random_test(d_anc, d_in, d_out, 3, rng)
        marg = partial_trace(violating.input_state, keep=[1])
        marg_resid = float(np.max(np.abs(marg.mat - np.eye(d_in) / d_in)))
        tester = tester_from_test(violating)
        total = sum(op.mat for _, op in tester.elements) * d_in
        completeness_resid = float(np.max(np.abs(total - np.eye(d_in * d_out))))
        # converse direction: a visibly non-uniform marginal must show up as
        # a completeness violation
        if marg_resid > 1e-6 and completeness_resid <= EQUALITY_ATOL:
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
        if tight.tight and not agrees(ex.value, ex.gap, ub):
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
    return CheckResult("uniform_marginal_unit_cap", worst <= EQUALITY_ATOL, worst,
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
    return CheckResult("meb_pair_norm_formula", worst <= EQUALITY_ATOL, worst,
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
        worst = max(worst, abs(ex.value - expected))
        if not agrees(ex.value, ex.gap, expected):
            ok = False
        _u, value = qubit_meb_optimizer(psi1, psi2)
        worst = max(worst, abs(value - expected))
        if abs(value - expected) > EQUALITY_ATOL:
            ok = False
    return CheckResult("qubit_meb_optimal_channel", ok, worst,
                       f"{trials} random qubit MEB pairs")


def check_orbit_reuse(rng: np.random.Generator, trials: int,
                      tol: float = 1e-6) -> CheckResult:
    """Every entry of a report that reuses symmetry orbits is within ``tol`` of
    the direct solves, its ``upper`` within rounding of ``tightness_check`` and
    its ``tight`` and ``tight_degenerate`` equal to it, and some entry came
    from a transported start.  Two certified brackets of one optimum overlap,
    so each transported bracket [exact, exact + gap] must meet the direct
    solve's [value, dual_value], within the rounding of its ends.  The solver
    builds a transported entry's channel J' unchecked: J' must pass the
    channel checks, and tr[M J'] be its ``exact`` within rounding.  The
    scenarios are random MEB ones, with every shift-clock symmetry, and one
    covariant one (d = 3) whose symmetries, the powers of X (x) X but the
    identity, are 2 of the 80 candidates."""
    worst, starts, spectral_agrees, starts_hold = 0.0, 0, True, True
    scenarios = []
    for _ in range(trials):
        d, w = int(rng.integers(2, 4)), float(rng.uniform(0.1, 0.9))
        scenarios.append(meb_scenario(_random_meb(d, rng), _random_meb(d, rng), (w, 1.0 - w)))
    x, z = shift_clock(3)[3], shift_clock(3)[1]
    scenarios.append(random_covariant_scenario(
        rng, 3, [[np.kron(x, x)], [np.kron(x, x), np.kron(z, z)]]))
    for scenario in scenarios:
        for r in scenario_report(scenario, tol=tol):
            direct = tightness_check(scenario, r.combination)
            spectral_agrees &= abs(r.upper - direct.upper) <= ROUNDING_ATOL and \
                (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)
            worst = max(worst, abs(r.upper - direct.upper))
            if r.error is not None:  # a failed entry has no bounds to compare
                worst = np.inf
                continue
            solve = exact_bound(scenario, r.combination, tol=tol)
            worst = max(worst, abs(r.exact - solve.value),
                        abs(r.trivial - trivial_bound(scenario, r.combination, tol=tol)))
            if r.path == "start":
                starts += 1
                m, j = objective_operator(scenario, r.combination), r.optimizer.choi.mat
                starts_hold &= max(r.exact, solve.value) <= \
                    min(r.exact + r.gap, solve.dual_value) + ROUNDING_ATOL \
                    and _channel(j, m.dims) is not None \
                    and abs(float(np.vdot(j, m.mat).real) - r.exact) <= ROUNDING_ATOL
    return CheckResult("orbit_reuse_matches_direct_solve",
                       worst <= tol and starts > 0 and spectral_agrees and starts_hold, worst,
                       f"{trials} random MEB scenarios (d = 2, 3) and one covariant (d = 3), "
                       f"{starts} transported entries")


def check_closed_form(rng: np.random.Generator, trials: int, tol: float = 1e-6) -> CheckResult:
    """Each closed-form bracket meets the interior point's, run on its own,
    within the rounding of their ends, and none is inverted.  Each trial
    draws a rank-one objective of each shape (d_in, d_out) below, where those
    with d_in > d_out must take the interior point, and one at d_in = 1 of
    random rank."""
    worst, ok, closed = -np.inf, True, 0
    for _ in range(trials):
        d = int(rng.integers(1, 6))
        cases = [(2, 3, 1), (3, 3, 1), (4, 2, 1), (3, 1, 1), (1, 4, 1),
                 (1, d, int(rng.integers(1, d + 1)))]
        for d_in, d_out, rank in cases:
            g = rng.standard_normal((d_in * d_out, rank)) + 1j * rng.standard_normal(
                (d_in * d_out, rank))
            m = HermitianOperator(g @ g.conj().T, (d_in, d_out))
            res = maximize_over_channels(m, tol=tol)
            oracle = _interior_point(m, tol, np.linalg.eigvalsh(m.mat))
            # two certified brackets of one optimum overlap
            apart = max(res.value, oracle.value) - min(res.dual_value, oracle.dual_value)
            worst = max(worst, apart)
            ok &= res.path == ("closed_form" if d_in <= d_out else "interior_point") \
                and apart <= ROUNDING_ATOL * max(1.0, oracle.dual_value) \
                and res.value <= res.dual_value and 0.0 <= res.gap <= tol
            closed += res.path == "closed_form"
    return CheckResult("closed_form_matches_interior_point", ok and closed > 0, worst,
                       f"{trials} x 6 random objectives, {closed} in closed form, "
                       "residual = max(higher lower end - lower upper end)")


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
        check_orbit_reuse(rng, max(2, trials // 8), tol=tol),
        check_closed_form(rng, max(2, trials // 4), tol=tol),
    ]
