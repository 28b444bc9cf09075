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
    tightness_check,
    trivial_bound,
    unitary_from_max_entangled,
    upper_bound,
)
from testerbounds.cli import GEN_KINDS, _build_scenario
from testerbounds.channel_opt import SolverError
from testerbounds.linalg import (
    ROUNDING_ATOL,
    DimensionError,
    HermitianOperator,
    Ket,
    ValidationError,
    dumps_canonical,
    eig_hermitian,
    maximally_entangled_ket,
    operator_norm,
    partial_trace,
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


def tightness_reference(scenario, combination, atol=bounds.TIGHTNESS_ATOL):
    """Per-ket form of ``tightness_check``: each top eigenvector as a validated
    ``Ket``, its input marginal by ``partial_trace`` of its projector, and the
    residual by ``operator_norm``."""
    objective = bounds.objective_operator(scenario, combination)
    vals, kets = eig_hermitian(objective)
    members = [k for v, k in zip(vals, kets) if v >= vals[-1] - atol]
    d_in = scenario.d_in
    best = min(operator_norm(HermitianOperator(
        partial_trace(k.projector(), keep=[0]).mat - np.eye(d_in) / d_in, (d_in,)))
        for k in members)
    return bounds.TightnessResult(tight=best <= atol, degenerate=len(members) > 1,
                                  marginal_residual=best,
                                  upper=d_in * float(np.max(np.abs(vals))))


def assert_matches_reference(scenario, combos):
    for combo in combos:
        got, want = tightness_check(scenario, combo), tightness_reference(scenario, combo)
        assert (got.tight, got.degenerate, got.upper) == (want.tight, want.degenerate, want.upper)
        assert abs(got.marginal_residual - want.marginal_residual) <= 1e-14


class TestTightnessOracle:
    @pytest.mark.parametrize("d,degenerate", [(2, 8), (3, 0)])
    def test_meb_all_combinations(self, d, degenerate):
        # the scenario of `gen meb --d d`; at d = 2 half the top eigenvalues are twofold
        meb1 = generalized_bell_basis(d)
        fourier = np.stack([k.amps for k in mub_bases(d, 2)[1]], axis=1)
        meb2 = MEB.from_generators([fourier @ g for g in meb1.generators])
        s = meb_scenario(meb1, meb2)
        combos = all_combinations(s)
        assert sum(tightness_check(s, c).degenerate for c in combos) == degenerate
        assert_matches_reference(s, combos)

    def test_mub_meb_2qubit_all_combinations(self, mub_meb_scenario):
        combos = all_combinations(mub_meb_scenario)
        assert all(tightness_check(mub_meb_scenario, c).tight for c in combos)
        assert_matches_reference(mub_meb_scenario, combos)

    def test_state_mub_trivial_input(self):
        s = state_measurement_scenario(mub_bases(5, 2), (0.5, 0.5))
        assert s.d_in == 1
        assert_matches_reference(s, all_combinations(s))

    def test_trivial_output(self):
        s = random_scenario(np.random.default_rng(31), n_tests=2, d_in=3, d_out=1)
        assert s.d_out == 1
        assert_matches_reference(s, all_combinations(s))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_scenarios(self, seed):
        s = random_scenario(np.random.default_rng(400 + seed), n_tests=2)
        assert_matches_reference(s, all_combinations(s))

    def test_threefold_top_eigenvalue(self, monkeypatch):
        rng = np.random.default_rng(32)
        s = random_scenario(rng, n_tests=1, d_in=2, d_out=3)
        combo = (s.tests[0].labels[0],)
        # a fourth eigenvalue 5e-8 below the top stays outside the top eigenspace
        vals = np.array([1.0, 1.0 - 3e-9, 1.0 - 6e-9, 1.0 - 5e-8, 0.4, 0.1])
        u = haar_unitary(6, rng)
        objective = HermitianOperator(u @ np.diag(vals) @ u.conj().T, (2, 3))
        monkeypatch.setattr(bounds, "objective_operator", lambda *_: objective)
        result = tightness_check(s, combo)
        assert result.degenerate
        assert result.upper == pytest.approx(2.0, abs=1e-12)
        assert_matches_reference(s, [combo])


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

        def recording(m, tol, start=None):
            solved.append(m.mat)
            return solve(m, tol=tol, start=start)

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


class TestOrbitReuse:
    """Reports solve once per symmetry orbit; the direct solves are the oracle."""

    @staticmethod
    def record_tightness(s, monkeypatch) -> list:
        """(combination, degenerate) of each objective a report checks directly,
        the combination found by rebuilding every objective."""
        combos = all_combinations(s)
        check = bounds._tightness
        calls = []

        def recording(objective):
            res = check(objective)
            calls.append((next(c for c in combos if np.array_equal(
                objective_operator(s, c).mat, objective.mat)), res.degenerate))
            return res

        monkeypatch.setattr(bounds, "_tightness", recording)
        return calls

    @pytest.mark.parametrize("kind,d", [(kind, d) for kind in GEN_KINDS for d in (2, 3)
                                        if kind != "mub-meb-2qubit" or d == 2])
    def test_newton_once_per_orbit(self, kind, d, monkeypatch):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)
        assert symmetries

        def orbit(key):
            return frozenset([key, *(tuple(perm[x] for x in key) for _, _, perm in symmetries)])

        labels = {id(op): label for tester in s.testers() for label, op in tester.elements}
        solve = bounds.maximize_over_channels
        newton = []

        def recording(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            if id(m) in labels and res.iterations > 0:
                newton.append(orbit((labels[id(m)],)))
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        reports = scenario_report(s, tol=1e-6)
        monkeypatch.undo()
        newton += [orbit(r.combination) for r in reports if r.iterations > 0]
        assert len(newton) == len(set(newton))
        assert any(r.iterations == 0 for r in reports)
        for r in reports:
            assert r.error is None and 0.0 <= r.gap <= 1e-6
            assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
            assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6

    def test_per_test_maxima_once_per_label_orbit(self, monkeypatch):
        # the solver stops once n mu <= tol / 2, which leaves a transported pair
        # room for the rounding of its repair: every image certifies its start
        s = _build_scenario("meb", 5)
        symmetries = bounds._symmetries(s)
        labels = {id(op): label for tester in s.testers() for label, op in tester.elements}
        solve = bounds.maximize_over_channels
        iterations = {}

        def recording(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            iterations[labels[id(m)]] = res.iterations
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        maxima = bounds._per_test_maxima(s, 1e-6, symmetries=symmetries)
        orbits = {frozenset([x, *(perm[x] for _, _, perm in symmetries)]) for x in labels.values()}
        solved = [x for x, n in iterations.items() if n > 0]
        assert len(iterations) == len(maxima) == 50 and len(orbits) == 2
        assert sorted(len([x for x in solved if x in orbit]) for orbit in orbits) == [1, 1]

    def test_failed_source_images_solved_directly(self, monkeypatch):
        # x1_0 is the source of its label orbit: its failure is the error of
        # every combination that uses it, and its images start from nothing
        s = _build_scenario("meb", 3)
        labels = {id(op): label for tester in s.testers() for label, op in tester.elements}
        solve = bounds.maximize_over_channels
        starts, runs = {}, []

        def failing(m, tol, start=None):
            if labels.get(id(m)) == "x1_0":
                raise SolverError("injected failure")
            res = solve(m, tol=tol, start=start)
            if id(m) in labels:
                starts[labels[id(m)]] = start
            runs.append(res.iterations > 0)
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", failing)
        reports = scenario_report(s, tol=1e-6)
        monkeypatch.undo()
        assert [r.combination for r in reports if r.error] == \
            [c for c in all_combinations(s) if c[0] == "x1_0"]
        assert sorted(x for x, start in starts.items() if start is None) == \
            [f"x1_{i}" for i in range(1, 9)] + ["x2_0"]
        assert sum(runs) == 10
        for r in reports:
            assert (r.trivial is None) == (r.error is not None)
            assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
            if r.trivial is not None:
                assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6

    @pytest.mark.parametrize("kind,d", [(kind, d) for kind in GEN_KINDS for d in (2, 3)
                                        if kind != "mub-meb-2qubit" or d == 2])
    def test_orbit_table(self, kind, d):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)
        elements = {(label,): op.mat for tester in s.testers() for label, op in tester.elements}
        objectives = {c: objective_operator(s, c).mat for c in all_combinations(s)}
        for mats in (elements, objectives):
            table = bounds._orbits(list(mats), symmetries)
            assert list(table) == list(mats)
            for key in mats:
                orbit = {key, *(tuple(perm[x] for x in key) for _, _, perm in symmetries)}
                members = [k for k in table if k in orbit]
                # the first key of an orbit in report order is its one source
                assert [table[k] is None for k in members] == [True] + [False] * (len(members) - 1)
            for key, origin in table.items():
                if origin is not None:
                    source, u, v = origin
                    assert table[source] is None
                    assert np.abs(bounds._conjugated(mats[source], u, v)
                                  - mats[key]).max() <= ROUNDING_ATOL

    def test_orbit_table_sources_of_meb(self):
        s = _build_scenario("meb", 3)
        symmetries = bounds._symmetries(s)
        combos = bounds._orbits(all_combinations(s), symmetries)
        labels = bounds._orbits([(x,) for test in s.tests for x in test.labels], symmetries)
        assert [k for k, origin in combos.items() if origin is None] == [("x1_0", "x2_0")]
        assert len(combos) == 81
        assert [k for k, origin in labels.items() if origin is None] == [("x1_0",), ("x2_0",)]
        assert len(labels) == 18

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kind,d", [(kind, d) for kind in GEN_KINDS for d in (2, 3)
                                        if kind != "mub-meb-2qubit" or d == 2])
    def test_spectral_once_per_orbit(self, kind, d, skip, monkeypatch):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)

        def orbit(key):
            return frozenset([key, *(tuple(perm[x] for x in key) for _, _, perm in symmetries)])

        calls = self.record_tightness(s, monkeypatch)
        reports = scenario_report(s, tol=1e-6, skip_exact=skip, skip_trivial=skip)
        monkeypatch.undo()
        # a degenerate top eigenspace is checked on eigh's own basis, so only
        # non-degenerate results are reused
        assert len(calls) == len({c for c, _ in calls})
        sources = [orbit(c) for c, degenerate in calls if not degenerate]
        assert len(sources) == len(set(sources))
        assert len(calls) < len(reports)
        for r in reports:
            direct = tightness_check(s, r.combination)
            assert abs(r.upper - direct.upper) <= 1e-12
            assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)

    @pytest.mark.parametrize("skip", [True, False])
    def test_false_symmetry_caught_by_objective_check(self, skip, monkeypatch):
        s = _build_scenario("meb", 3)
        u, v, perm = bounds._symmetries(s)[0]
        labels = [x for test in s.tests for x in test.labels]
        false = {x: perm[x] for x in labels}
        false["x1_0"], false["x1_1"] = perm["x1_1"], perm["x1_0"]
        w = np.kron(u, v)

        def moved(combo):
            return w @ objective_operator(s, combo).mat @ w.conj().T

        # the combinations whose source under the false relabelling is not
        # mapped onto them by W
        inverse = {y: x for x, y in false.items()}
        wrong = {c for c in all_combinations(s)
                 if np.abs(objective_operator(s, c).mat
                           - moved(tuple(inverse[y] for y in c))).max() > 1e-6}
        monkeypatch.setattr(bounds, "_symmetries", lambda scenario: [(u, v, false)])
        recorded = self.record_tightness(s, monkeypatch)
        reports = scenario_report(s, tol=1e-6, skip_exact=skip, skip_trivial=skip)
        monkeypatch.undo()
        calls = [c for c, _ in recorded]
        assert wrong and len(calls) < len(reports)
        for r in reports:
            direct = tightness_check(s, r.combination)
            if r.combination in wrong:
                assert r.combination in calls
                assert (r.upper, r.tight, r.tight_degenerate) == \
                    (direct.upper, direct.tight, direct.degenerate)
            assert abs(r.upper - direct.upper) <= 1e-12
            assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)
        if not skip:
            # a wrong image's moved start does not certify, in the exact solves
            # and the per-test maxima alike, and the image is solved from none:
            # more combinations run the interior point than there are sources
            sources = [c for c, origin in bounds._orbits(all_combinations(s),
                                                         [(u, v, false)]).items()
                       if origin is None]
            assert sum(r.iterations > 0 for r in reports) > len(sources)
            for r in reports:
                assert r.error is None
                assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
                assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6

    @pytest.mark.parametrize("seed,d_in,d_out", [(3, 3, 2), (4, 2, 2), (5, 3, 3)])
    def test_random_scenario_has_no_symmetry(self, seed, d_in, d_out):
        s = random_scenario(np.random.default_rng(seed), n_tests=2, d_anc=2, d_in=d_in,
                            d_out=d_out, n_outcomes=3)
        assert bounds._symmetries(s) == []
        direct = [report_to_json(bound_report(s, c, tol=1e-6)) for c in all_combinations(s)]
        reused = [report_to_json(r) for r in scenario_report(s, tol=1e-6)]
        assert dumps_canonical({"reports": reused}) == dumps_canonical({"reports": direct})
