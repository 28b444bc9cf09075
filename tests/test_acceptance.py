"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the lines also appear in captured output on failure).
"""

import time
from contextlib import contextmanager

import numpy as np

from testerbounds.bounds import (
    exact_bound,
    qubit_meb_optimizer,
    scenario_report,
    tightness_check,
    trivial_bound,
    upper_bound,
)
from testerbounds.channel_opt import maximize_over_channels, random_channel_lower_bound
from testerbounds.linalg import HermitianOperator, Ket, partial_trace
from testerbounds.sampling import (
    haar_unitary,
    random_channel,
    random_ket,
    random_mixed_marginal_test,
    random_povm,
    random_scenario,
    random_test,
)
from testerbounds.scenarios import (
    MEB,
    ancilla_free_scenario,
    entangled_input_product_scenario,
    generalized_bell_basis,
    meb_scenario,
    mub_bases,
    mub_meb_pair_2qubit,
    state_measurement_scenario,
)
from testerbounds.testers import (
    Scenario,
    direct_probability,
    probability,
    tester_from_test,
)


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description} [{time.perf_counter() - start:.1f}s]")


def random_meb(d, rng):
    base = generalized_bell_basis(d)
    u = haar_unitary(d, rng)
    return MEB.from_generators([u @ g for g in base.generators])


def test_criterion_1_mub_meb_two_qubit():
    with criterion(1, "two-qubit mutually unbiased MEB pair: exact 3/4, trivial 1, trade-off"):
        start = time.perf_counter()
        meb1, meb2 = mub_meb_pair_2qubit()
        scenario = meb_scenario(meb1, meb2)
        reports = scenario_report(scenario, tol=1e-6)
        assert len(reports) == 16
        for r in reports:
            assert abs(r.exact - 0.75) <= 1e-6
            assert r.gap <= 1e-6
            assert abs(r.trivial - 1.0) <= 1e-6
            assert r.tradeoff
        assert time.perf_counter() - start < 10.0


def test_criterion_2_qubit_meb_pairs():
    with criterion(2, "200 random qubit MEB pairs: exact equals (1/2)(1+overlap), "
                      "closed-form unitary achieves it"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(200):
            meb1, meb2 = random_meb(2, rng), random_meb(2, rng)
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            psi1, psi2 = meb1.kets[i], meb2.kets[j]
            expected = 0.5 * (1.0 + abs(psi1.overlap(psi2)))
            scenario = meb_scenario(meb1, meb2)
            res = exact_bound(scenario, (f"x1_{i}", f"x2_{j}"), tol=1e-8)
            assert abs(res.value - expected) <= 1e-6
            u, value = qubit_meb_optimizer(psi1, psi2)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9
            assert abs(value - expected) <= 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_3_state_measurement_reduction():
    with criterion(3, "state reduction: MUB pairs d=2..5 and 100 random POVM pairs "
                      "have upper = exact"):
        for d in range(2, 6):
            bases = mub_bases(d, 2)
            scenario = state_measurement_scenario(bases, (0.5, 0.5))
            expected = 0.5 * (1.0 + 1.0 / np.sqrt(d))
            for i in range(d):
                for j in range(d):
                    combo = (f"x1_{i}", f"x2_{j}")
                    ub = upper_bound(scenario, combo)
                    ex = exact_bound(scenario, combo, tol=1e-8)
                    assert abs(ub - expected) <= 1e-6
                    assert abs(ex.value - expected) <= 1e-6

        rng = np.random.default_rng(7)
        for _ in range(100):
            d_out = int(rng.integers(2, 5))
            povms = [random_povm(d_out, int(rng.integers(2, 4)), rng) for _ in range(2)]
            scenario = state_measurement_scenario(povms, (0.5, 0.5))
            combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))]
                          for t in scenario.tests)
            ub = upper_bound(scenario, combo)
            ex = exact_bound(scenario, combo, tol=1e-8)
            assert abs(ub - ex.value) <= 1e-6


def test_criterion_4_norm_cap_ordering():
    with criterion(4, "100 random scenarios: exact <= upper, equality when the "
                      "tightness certificate fires"):
        rng = np.random.default_rng(11)
        fired = 0
        for _ in range(100):
            scenario = random_scenario(rng)
            combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))]
                          for t in scenario.tests)
            ub = upper_bound(scenario, combo)
            ex = exact_bound(scenario, combo, tol=1e-7)
            assert ex.value <= ub + 1e-8
            tight = tightness_check(scenario, combo)
            if tight.tight:
                fired += 1
                assert abs(ex.value - ub) <= 1e-6
        print(f"  (tightness fired on {fired}/100 scenarios)", end=" ")


def test_criterion_5_uniform_marginal_cap():
    with criterion(5, "100 uniform-marginal scenarios capped at 1; pure product "
                      "input exceeds 1 at d_in = 2"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(1, 4))
            tests = [random_mixed_marginal_test(d_in + int(rng.integers(0, 2)), d_in,
                                                d_out, 3, rng, prefix=f"x{l + 1}")
                     for l in range(2)]
            w = rng.dirichlet(np.ones(2))
            scenario = Scenario(tests, w / w.sum())
            combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))]
                          for t in scenario.tests)
            assert upper_bound(scenario, combo) <= 1.0 + 1e-9

        # negative control: ancilla-free pure inputs with rank-1 bases
        psi1, psi2 = random_ket(2, rng), random_ket(2, rng)
        bases = [[Ket(u[:, i], (2,)) for i in range(2)]
                 for u in (haar_unitary(2, rng), haar_unitary(2, rng))]
        scenario = ancilla_free_scenario([psi1, psi2], bases, (0.5, 0.5))
        assert upper_bound(scenario, ("x1_0", "x2_0")) >= 1.0 - 1e-9


def test_criterion_6_entangled_product_setting():
    with criterion(6, "entangled input with product bases: trivial bound 1/d and "
                      "tester elements (1/d)|e><e|(x)|f><f|"):
        rng = np.random.default_rng(17)
        for d in (2, 3):
            bases_anc = [[Ket(u[:, i], (d,)) for i in range(d)]
                         for u in (haar_unitary(d, rng), haar_unitary(d, rng))]
            bases_out = [[Ket(u[:, i], (d,)) for i in range(d)]
                         for u in (haar_unitary(d, rng), haar_unitary(d, rng))]
            scenario = entangled_input_product_scenario(d, bases_anc, bases_out)
            testers = scenario.testers()
            for l, tester in enumerate(testers):
                for i in range(d):
                    for j in range(d):
                        element = tester.element(f"x{l + 1}_{i}_{j}")
                        expected = np.kron(bases_anc[l][i].projector().mat,
                                           bases_out[l][j].projector().mat) / d
                        assert np.max(np.abs(element.mat - expected)) <= 1e-12
            for _ in range(5):
                combo = tuple(t.labels[int(rng.integers(0, len(t.labels)))]
                              for t in scenario.tests)
                t = trivial_bound(scenario, combo, tol=1e-9)
                assert abs(t - 1.0 / d) <= 1e-8


def test_criterion_7_born_rule_equivalence():
    with criterion(7, "500 random (test, channel) pairs: tester Born rule agrees "
                      "with the three-step simulation"):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(500):
            d_anc, d_in, d_out = (int(rng.integers(1, 4)) for _ in range(3))
            test = random_test(d_anc, d_in, d_out, int(rng.integers(2, 4)), rng)
            tester = tester_from_test(test)
            channel = random_channel(d_in, d_out, rng)
            total = 0.0
            for label, element in tester.elements:
                p = probability(element, channel)
                q = direct_probability(test, label, channel)
                worst = max(worst, abs(p - q))
                total += p
            assert abs(total - 1.0) <= 1e-9
        assert worst <= 1e-10
        print(f"  (worst Born-rule residual {worst:.2e})", end=" ")


def test_criterion_8_povm_criterion_both_directions():
    with criterion(8, "rescaled testers are POVMs exactly for uniform input marginals"):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(1, 4))
            conforming = random_mixed_marginal_test(d_in + int(rng.integers(0, 2)),
                                                    d_in, d_out, 3, rng)
            marg = partial_trace(conforming.input_state, keep=[1])
            assert np.max(np.abs(marg.mat - np.eye(d_in) / d_in)) <= 1e-9
            tester = tester_from_test(conforming)
            total = d_in * sum(op.mat for _, op in tester.elements)
            assert np.max(np.abs(total - np.eye(d_in * d_out))) <= 1e-9

            violating = random_test(d_in, d_in, d_out, 3, rng)
            marg = partial_trace(violating.input_state, keep=[1])
            assert np.max(np.abs(marg.mat - np.eye(d_in) / d_in)) > 1e-3
            tester = tester_from_test(violating)
            total = d_in * sum(op.mat for _, op in tester.elements)
            assert np.max(np.abs(total - np.eye(d_in * d_out))) > 1e-6


def test_criterion_9_solver_certification():
    with criterion(9, "100 random objectives, sizes 4-16: certified gap, feasible "
                      "dual, Monte-Carlo floor below the certified optimum"):
        rng = np.random.default_rng(29)
        shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
        for k in range(100):
            d_in, d_out = shapes[int(rng.integers(0, len(shapes)))]
            n = d_in * d_out
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mat = g @ g.conj().T
            m = HermitianOperator(mat / np.trace(mat).real, (d_in, d_out))
            res = maximize_over_channels(m, tol=1e-6)
            assert res.gap <= 1e-6
            assert res.dual_min_eig >= -1e-8
            sampled, _ = random_channel_lower_bound(m, 10_000, seed=k)
            assert sampled <= res.dual_value + 1e-8
