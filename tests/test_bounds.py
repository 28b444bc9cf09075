"""Tests for the scenario-level uncertainty bounds."""

import numpy as np
import pytest

from testerbounds import bounds
from testerbounds.bounds import (
    BoundReport,
    all_combinations,
    bound_report,
    closed_form_state_bound,
    exact_bound,
    mub_state_bound,
    objective_operator,
    qubit_meb_optimizer,
    report_to_json,
    scenario_report,
    subset_bound,
    tightness_check,
    trivial_bound,
    unitary_from_max_entangled,
    upper_bound,
)
from testerbounds.linalg import (
    DimensionError,
    Ket,
    ValidationError,
    maximally_entangled_ket,
)
from testerbounds.sampling import haar_unitary, random_ket, random_povm, random_scenario
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
from testerbounds.testers import Scenario, channel_from_unitary


def random_meb(d, rng):
    base = generalized_bell_basis(d)
    u = haar_unitary(d, rng)
    return MEB.from_generators([u @ g for g in base.generators])


@pytest.fixture(scope="module")
def mub_meb_scenario():
    meb1, meb2 = mub_meb_pair_2qubit()
    return meb_scenario(meb1, meb2)


class TestObjective:
    def test_single_test_full_weight(self):
        rng = np.random.default_rng(0)
        scenario = random_scenario(rng, n_tests=1, d_in=2, d_out=2)
        tester = scenario.testers()[0]
        label = scenario.tests[0].labels[0]
        obj = objective_operator(scenario, (label,))
        assert np.max(np.abs(obj.mat - tester.element(label).mat)) < 1e-12

    def test_meb_pair_objective(self, mub_meb_scenario):
        meb1, meb2 = mub_meb_pair_2qubit()
        combo = ("x1_0", "x2_1")
        obj = objective_operator(mub_meb_scenario, combo)
        expected = (meb1.kets[0].projector().mat + meb2.kets[1].projector().mat) / 4
        assert np.max(np.abs(obj.mat - expected)) < 1e-12

    def test_zero_weight_ignores_test(self):
        rng = np.random.default_rng(1)
        s = random_scenario(rng, n_tests=2, d_in=2, d_out=2)
        s0 = Scenario(s.tests, (1.0, 0.0))
        combo_a = (s.tests[0].labels[0], s.tests[1].labels[0])
        combo_b = (s.tests[0].labels[0], s.tests[1].labels[1])
        obj_a = objective_operator(s0, combo_a)
        obj_b = objective_operator(s0, combo_b)
        assert np.max(np.abs(obj_a.mat - obj_b.mat)) < 1e-14

    def test_unknown_label(self):
        rng = np.random.default_rng(2)
        s = random_scenario(rng, n_tests=1, d_in=2, d_out=2)
        with pytest.raises(ValidationError):
            objective_operator(s, ("nope",))


class TestTrivialBound:
    def test_meb_tests_reach_one(self, mub_meb_scenario):
        t = trivial_bound(mub_meb_scenario, ("x1_0", "x2_0"), tol=1e-8)
        assert t == pytest.approx(1.0, abs=1e-7)

    def test_entangled_product_scenario(self):
        # one over the local dimension, for any basis choice
        for d in (2, 3):
            bases = mub_bases(d, 2)
            s = entangled_input_product_scenario(d, bases, bases)
            combo = (s.tests[0].labels[0], s.tests[1].labels[0])
            t = trivial_bound(s, combo, tol=1e-9)
            assert t == pytest.approx(1.0 / d, abs=1e-8)

    def test_state_pvms_reach_one(self):
        bases = mub_bases(2, 2)
        s = state_measurement_scenario(bases, (0.5, 0.5))
        t = trivial_bound(s, ("x1_0", "x2_1"), tol=1e-8)
        assert t == pytest.approx(1.0, abs=1e-7)


class TestUpperBound:
    def test_ancilla_free_closed_form(self):
        rng = np.random.default_rng(3)
        d = 3
        psi1, psi2 = random_ket(d, rng), random_ket(d, rng)
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        bases = [[Ket(u[:, i], (d,)) for i in range(d)] for u in (u1, u2)]
        s = ancilla_free_scenario([psi1, psi2], bases, (0.5, 0.5))
        for i in (0, 2):
            for j in (1, 2):
                ub = upper_bound(s, (f"x1_{i}", f"x2_{j}"))
                expected = (d / 2) * (1 + abs(psi1.overlap(psi2))
                                      * abs(bases[0][i].overlap(bases[1][j])))
                assert ub == pytest.approx(expected, abs=1e-9)

    def test_ancilla_free_coincident_case(self):
        # identical input kets and identical bases: the cap reaches d_in on
        # matching outcomes
        rng = np.random.default_rng(30)
        d = 2
        psi = random_ket(d, rng)
        u = haar_unitary(d, rng)
        basis = [Ket(u[:, i], (d,)) for i in range(d)]
        s = ancilla_free_scenario([psi, psi], [basis, basis], (0.5, 0.5))
        assert upper_bound(s, ("x1_0", "x2_0")) == pytest.approx(d, abs=1e-9)

    def test_meb_pair_closed_form(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            meb1, meb2 = random_meb(d, rng), random_meb(d, rng)
            s = meb_scenario(meb1, meb2)
            i, j = 1, d * d - 1
            ub = upper_bound(s, (f"x1_{i}", f"x2_{j}"))
            expected = 0.5 * (1 + abs(meb1.kets[i].overlap(meb2.kets[j])))
            assert ub == pytest.approx(expected, abs=1e-9)

    def test_entangled_input_product_closed_form(self):
        # (1/2)(1 + |<e_i|e_i'>||<f_j|f_j'>|) for maximally entangled input
        rng = np.random.default_rng(31)
        d = 2
        bases_anc = [[Ket(u[:, i], (d,)) for i in range(d)]
                     for u in (haar_unitary(d, rng), haar_unitary(d, rng))]
        bases_out = [[Ket(u[:, i], (d,)) for i in range(d)]
                     for u in (haar_unitary(d, rng), haar_unitary(d, rng))]
        s = entangled_input_product_scenario(d, bases_anc, bases_out)
        for (i1, j1, i2, j2) in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1)]:
            ub = upper_bound(s, (f"x1_{i1}_{j1}", f"x2_{i2}_{j2}"))
            expected = 0.5 * (1 + abs(bases_anc[0][i1].overlap(bases_anc[1][i2]))
                              * abs(bases_out[0][j1].overlap(bases_out[1][j2])))
            assert ub == pytest.approx(expected, abs=1e-9)

    def test_state_measurement_closed_form(self):
        rng = np.random.default_rng(5)
        d = 4
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        bases = [[Ket(u[:, i], (d,)) for i in range(d)] for u in (u1, u2)]
        s = state_measurement_scenario(bases, (0.5, 0.5))
        table = closed_form_state_bound(bases[0], bases[1])
        for i in (0, 3):
            for j in (0, 2):
                ub = upper_bound(s, (f"x1_{i}", f"x2_{j}"))
                assert ub == pytest.approx(table[i, j], abs=1e-9)


class TestExactBound:
    def test_mub_meb_three_quarters(self, mub_meb_scenario):
        res = exact_bound(mub_meb_scenario, ("x1_2", "x2_3"), tol=1e-6)
        assert res.value == pytest.approx(0.75, abs=1e-6)
        assert res.gap <= 1e-6

    def test_qubit_meb_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            meb1, meb2 = random_meb(2, rng), random_meb(2, rng)
            s = meb_scenario(meb1, meb2)
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            res = exact_bound(s, (f"x1_{i}", f"x2_{j}"), tol=1e-8)
            expected = 0.5 * (1 + abs(meb1.kets[i].overlap(meb2.kets[j])))
            assert res.value == pytest.approx(expected, abs=1e-7)

    def test_ordering_against_upper(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_scenario(rng)
            combo = tuple(t.labels[0] for t in s.tests)
            ub = upper_bound(s, combo)
            res = exact_bound(s, combo, tol=1e-6)
            assert res.value <= ub + 1e-8

    def test_optimal_channel_attains_value(self, mub_meb_scenario):
        combo = ("x1_0", "x2_0")
        res = exact_bound(mub_meb_scenario, combo, tol=1e-8)
        obj = objective_operator(mub_meb_scenario, combo)
        achieved = float(np.trace(obj.mat @ res.optimizer.choi.mat).real)
        assert achieved == pytest.approx(res.value, abs=1e-12)


class TestSubsetBound:
    def test_full_sets_give_one(self, mub_meb_scenario):
        subsets = [t.labels for t in mub_meb_scenario.tests]
        res = subset_bound(mub_meb_scenario, subsets, tol=1e-7)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_singletons_reduce_to_exact(self, mub_meb_scenario):
        combo = ("x1_1", "x2_2")
        res_subset = subset_bound(mub_meb_scenario, [["x1_1"], ["x2_2"]], tol=1e-8)
        res_exact = exact_bound(mub_meb_scenario, combo, tol=1e-8)
        assert res_subset.value == pytest.approx(res_exact.value, abs=1e-7)

    def test_two_outcome_subsets_bracketed(self, mub_meb_scenario):
        res = subset_bound(mub_meb_scenario, [["x1_0", "x1_1"], ["x2_0", "x2_2"]], tol=1e-7)
        assert 0.75 - 1e-7 <= res.value <= 1.0 + 1e-7
        assert res.gap <= 1e-7

    def test_bad_subsets_rejected(self, mub_meb_scenario):
        with pytest.raises(ValidationError):
            subset_bound(mub_meb_scenario, [["x1_0"], ["x1_0"]])
        with pytest.raises(ValidationError):
            subset_bound(mub_meb_scenario, [["x1_0"]])


class TestTightness:
    def test_meb_objective_tight(self, mub_meb_scenario):
        result = tightness_check(mub_meb_scenario, ("x1_0", "x2_1"))
        assert result.tight

    def test_ancilla_free_generally_not_tight(self):
        rng = np.random.default_rng(8)
        psi1, psi2 = random_ket(2, rng), random_ket(2, rng)
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        bases = [[Ket(u[:, i], (2,)) for i in range(2)] for u in (u1, u2)]
        s = ancilla_free_scenario([psi1, psi2], bases, (0.5, 0.5))
        result = tightness_check(s, ("x1_0", "x2_0"))
        assert not result.tight
        assert result.marginal_residual > 1e-3

    def test_state_measurements_always_tight(self):
        rng = np.random.default_rng(9)
        povms = [random_povm(3, 3, rng), random_povm(3, 2, rng)]
        s = state_measurement_scenario(povms, (0.5, 0.5))
        for combo in all_combinations(s)[:4]:
            assert tightness_check(s, combo).tight


class TestQubitMebOptimizer:
    def test_generator_recovery(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(3, rng)
        ket = Ket(np.kron(np.eye(3), u) @ maximally_entangled_ket(3).amps, (3, 3))
        assert np.max(np.abs(unitary_from_max_entangled(ket) - u)) < 1e-10
        with pytest.raises(ValidationError):
            unitary_from_max_entangled(Ket([1, 0, 0, 0], (2, 2)))

    def test_coincident_pair(self):
        rng = np.random.default_rng(11)
        u1 = haar_unitary(2, rng)
        ket = Ket(np.kron(np.eye(2), u1) @ maximally_entangled_ket(2).amps, (2, 2))
        u, value = qubit_meb_optimizer(ket, ket)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9

    def test_hs_orthogonal_pair(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        psi_plus = maximally_entangled_ket(2)
        k1 = psi_plus
        k2 = Ket(np.kron(np.eye(2), x) @ psi_plus.amps, (2, 2))
        u, value = qubit_meb_optimizer(k1, k2)
        assert np.max(np.abs(u - np.eye(2))) < 1e-12  # falls back to the first generator
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_certified_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            meb1, meb2 = random_meb(2, rng), random_meb(2, rng)
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            s = meb_scenario(meb1, meb2)
            res = exact_bound(s, (f"x1_{i}", f"x2_{j}"), tol=1e-8)
            u, value = qubit_meb_optimizer(meb1.kets[i], meb2.kets[j])
            assert value == pytest.approx(res.value, abs=1e-6)
            # the unitary channel really achieves it inside the scenario
            obj = objective_operator(s, (f"x1_{i}", f"x2_{j}"))
            p = float(np.trace(obj.mat @ channel_from_unitary(u).choi.mat).real)
            assert p == pytest.approx(value, abs=1e-9)

    def test_rejects_larger_dimensions(self):
        ket = maximally_entangled_ket(3)
        with pytest.raises(DimensionError):
            qubit_meb_optimizer(ket, ket)


class TestClosedForms:
    def test_identical_bases_diagonal(self):
        basis = mub_bases(3, 2)[0]
        table = closed_form_state_bound(basis, basis)
        assert np.allclose(np.diag(table), 1.0)

    def test_mub_value(self):
        for d in (2, 3, 5):
            bases = mub_bases(d, 2)
            table = closed_form_state_bound(bases[0], bases[1])
            assert np.allclose(table, mub_state_bound(d), atol=1e-12)

    def test_matches_exact_bound_of_reduction(self):
        rng = np.random.default_rng(13)
        d = 2
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        bases = [[Ket(u[:, i], (d,)) for i in range(d)] for u in (u1, u2)]
        s = state_measurement_scenario(bases, (0.5, 0.5))
        table = closed_form_state_bound(bases[0], bases[1])
        res = exact_bound(s, ("x1_0", "x2_1"), tol=1e-8)
        assert res.value == pytest.approx(table[0, 1], abs=1e-6)

    def test_rejects_bad_inputs(self):
        basis = mub_bases(2, 2)[0]
        with pytest.raises(ValidationError):
            closed_form_state_bound(basis, basis, weights=(0.3, 0.7))
        skew = [Ket([1, 0], (2,)), Ket(np.array([1, 1]) / np.sqrt(2), (2,))]
        with pytest.raises(ValidationError):
            closed_form_state_bound(skew, basis)


class TestReports:
    def test_mub_meb_report(self, mub_meb_scenario):
        reports = scenario_report(mub_meb_scenario, tol=1e-6)
        assert len(reports) == 16
        combos = [r.combination for r in reports]
        assert combos == sorted(combos)
        for r in reports:
            assert r.exact == pytest.approx(0.75, abs=1e-6)
            assert r.trivial == pytest.approx(1.0, abs=1e-5)
            assert r.tradeoff
            assert r.tight

    def test_single_pvm_scenario_no_tradeoff(self):
        bases = [mub_bases(2, 2)[0]]
        s = state_measurement_scenario(bases, (1.0,))
        reports = scenario_report(s, tol=1e-7)
        for r in reports:
            assert r.exact == pytest.approx(1.0, abs=1e-6)
            assert r.trivial == pytest.approx(1.0, abs=1e-6)
            assert not r.tradeoff

    def test_tradeoff_soundness(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            s = random_scenario(rng, d_in=2, d_out=2)
            combo = tuple(t.labels[0] for t in s.tests)
            r = bound_report(s, combo, tol=1e-6)
            if r.tradeoff:
                assert r.exact < r.trivial - 1e-8

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(15)
        s = random_scenario(rng, n_tests=2, d_in=2, d_out=2, n_outcomes=2)
        reports = {r.combination: r for r in scenario_report(s, tol=1e-7)}
        # relabel the outcomes of the first test by swapping its two labels
        a, b = s.tests[0].labels
        swapped_povm = [(b if lab == a else a, eff) for lab, eff in s.tests[0].povm]
        from testerbounds.testers import Test
        t0 = Test(s.tests[0].input_state, swapped_povm,
                  s.tests[0].d_anc, s.tests[0].d_in, s.tests[0].d_out)
        s2 = Scenario([t0, s.tests[1]], s.weights)
        reports2 = {r.combination: r for r in scenario_report(s2, tol=1e-7)}
        for combo, r in reports.items():
            swapped = (b if combo[0] == a else a, combo[1])
            assert reports2[swapped].upper == pytest.approx(r.upper, abs=1e-9)
            assert reports2[swapped].exact == pytest.approx(r.exact, abs=1e-6)

    def test_midpoint_convexity_in_weights(self):
        rng = np.random.default_rng(16)
        s = random_scenario(rng, n_tests=2, d_in=2, d_out=2)
        combo = tuple(t.labels[0] for t in s.tests)
        values = {}
        for w in (0.2, 0.5, 0.8):
            sw = Scenario(s.tests, (w, 1.0 - w))
            values[w] = exact_bound(sw, combo, tol=1e-9).value
        assert values[0.5] <= (values[0.2] + values[0.8]) / 2 + 1e-6

    def test_zero_weight_test_gets_no_solves(self, monkeypatch):
        rng = np.random.default_rng(18)
        s = random_scenario(rng, n_tests=2, d_in=2, d_out=2, n_outcomes=2)
        s0 = Scenario(s.tests, (1.0, 0.0))
        ignored = [op.mat for _, op in s0.testers()[1].elements]
        solve = bounds.maximize_over_channels
        solved = []

        def recording(m, tol):
            solved.append(m.mat)
            return solve(m, tol=tol)

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        reports = scenario_report(s0, tol=1e-7, skip_exact=True)
        assert len(solved) == len(s0.tests[0].labels)
        assert not any(np.array_equal(m, e) for m in solved for e in ignored)
        for r in reports:
            assert r.exact is None and r.tradeoff is None and r.error is None
            assert r.trivial == trivial_bound(s0, r.combination, tol=1e-7)

    def test_skip_exact_leaves_none(self, mub_meb_scenario):
        for r in scenario_report(mub_meb_scenario, tol=1e-6, skip_exact=True):
            assert r.exact is None and r.gap is None and r.optimizer is None
            assert r.tradeoff is None and r.error is None
            assert r.trivial == pytest.approx(1.0, abs=1e-5)
            assert r.upper == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_bad_tol_rejected(self, mub_meb_scenario, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            scenario_report(mub_meb_scenario, tol=tol, skip_exact=True, skip_trivial=True)

    def test_report_cap(self, mub_meb_scenario):
        with pytest.raises(ValidationError):
            scenario_report(mub_meb_scenario, cap=4)

    def test_report_json_shape(self, mub_meb_scenario):
        r = bound_report(mub_meb_scenario, ("x1_0", "x2_0"), tol=1e-6)
        obj = report_to_json(r)
        assert set(obj) >= {"combination", "trivial", "upper", "exact", "gap",
                            "tradeoff", "tight", "optimizer"}
        assert obj["optimizer"]["kind"] == "choi"

    def test_report_invariants_enforced(self, mub_meb_scenario):
        r = bound_report(mub_meb_scenario, ("x1_0", "x2_0"), tol=1e-6)
        with pytest.raises(ValidationError):
            BoundReport(combination=r.combination, trivial=r.trivial, upper=r.upper,
                        exact=r.upper + 1e-3, gap=r.gap, tradeoff=r.tradeoff,
                        tight=r.tight, tight_degenerate=r.tight_degenerate,
                        optimizer=r.optimizer, tol=r.tol)

    def test_larger_dimension_norm_cap_gap_reported(self):
        # whether the norm cap is attained for d = 3 entangled-basis pairs is
        # left open; record the observed gap without asserting either way
        rng = np.random.default_rng(17)
        meb1, meb2 = random_meb(3, rng), random_meb(3, rng)
        s = meb_scenario(meb1, meb2)
        combo = ("x1_0", "x2_4")
        ub = upper_bound(s, combo)
        res = exact_bound(s, combo, tol=1e-8)
        assert res.value <= ub + 1e-8
        print(f"d=3 entangled-basis pair: upper - exact = {ub - res.value:.3e}")
