"""Tests for the scenario-level uncertainty bounds."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testerbounds import bounds, channel_opt
from testerbounds.bounds import (
    BoundReport,
    InequalityError,
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
from testerbounds.channel_opt import ChannelOptResult, SolverError
from testerbounds.linalg import (
    ROUNDING_ATOL,
    DimensionError,
    HermitianOperator,
    Ket,
    ValidationError,
    _conjugated,
    dumps_canonical,
    maximally_entangled_ket,
    shift_clock,
)
from testerbounds.sampling import (haar_unitary, random_channel, random_covariant_scenario,
                                   random_ket, random_povm, random_scenario)
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
from testerbounds.testers import (Scenario, Test, channel_from_choi, channel_from_unitary,
                                  scenario_from_json, scenario_to_json)

from oracles import element_error, exhaustive_symmetries, tightness_witness, walk_report


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


def assert_matches_reference(scenario, combos):
    rng = np.random.default_rng(33)
    for combo in combos:
        got = tightness_check(scenario, combo)
        want = tightness_witness(bounds.objective_operator(scenario, combo), rng)
        assert (got.tight, got.degenerate, got.upper) == (want.tight, want.degenerate, want.upper)
        assert abs(got.marginal_residual - want.marginal_residual) <= 1e-14


class TestTightnessOracle:
    @pytest.mark.parametrize("d,degenerate", [(2, 8), (3, 0)])
    def test_meb_all_combinations(self, d, degenerate):
        # the scenario of `gen meb --d d`; at d = 2 half the top eigenvalues
        # are twofold, and every combination reaches the cap, the twofold ones
        # included; at d = 3 none does
        meb1 = generalized_bell_basis(d)
        fourier = np.stack([k.amps for k in mub_bases(d, 2)[1]], axis=1)
        meb2 = MEB.from_generators([fourier @ g for g in meb1.generators])
        s = meb_scenario(meb1, meb2)
        combos = all_combinations(s)
        assert sum(tightness_check(s, c).degenerate for c in combos) == degenerate
        assert sum(tightness_check(s, c).tight for c in combos) == {2: 16, 3: 0}[d]
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

    def test_equal_reports_compare_equal(self):
        # two reports of one scenario, and two solves of one objective, build
        # equal results in separate arrays; == used to raise on their channels
        s = _build_scenario("meb", 2)
        first, second = scenario_report(s, tol=1e-6), scenario_report(s, tol=1e-6)
        assert first[0].optimizer is not second[0].optimizer
        assert first == second and first[0] != first[1]
        combo = first[0].combination
        assert exact_bound(s, combo) == exact_bound(s, combo)
        assert first[0].optimizer == exact_bound(s, combo).optimizer

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

    def test_tight_report_must_attain_upper(self):
        # a tight flag needs exact within max(AGREEMENT_FLOOR, 10 gaps) of upper
        fields = dict(combination=("x1_0", "x2_0"), trivial=None, upper=1.0, gap=1e-8,
                      tradeoff=None, tight=True, tight_degenerate=False, optimizer=None)
        BoundReport(exact=1.0 - 5e-7, **fields)
        with pytest.raises(InequalityError, match="tightness certified"):
            BoundReport(exact=1.0 - 2e-6, **fields)

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


def orbit_of(symmetries, key):
    """``key``, a tuple of labels, and its image under each relabelling row of
    the ``_symmetries`` table, as a set."""
    labels, rows = symmetries[:2]
    index = {label: i for i, label in enumerate(labels)}
    images = rows[:, [index[x] for x in key]].tolist()
    return frozenset([key, *(tuple(labels[i] for i in image) for image in images)])


# the gen kinds at d = 2 and 3, as far as each is defined
KINDS_2_3 = [(kind, d) for kind in GEN_KINDS for d in (2, 3) if kind != "mub-meb-2qubit" or d == 2]


class TestOrbitReuse:
    """Reports solve once per symmetry orbit; the direct solves are the oracle."""

    @staticmethod
    def record_tightness(s, monkeypatch) -> list:
        """(combination, degenerate) of each objective a report checks directly,
        the combination found by rebuilding every objective."""
        combos = all_combinations(s)
        check = bounds._tightness
        calls = []

        def recording(mat, dims):
            res = check(mat, dims)
            calls.append((next(c for c in combos if np.array_equal(
                objective_operator(s, c).mat, mat)), res.degenerate))
            return res

        monkeypatch.setattr(bounds, "_tightness", recording)
        return calls

    @pytest.mark.parametrize("kind,d", KINDS_2_3)
    def test_newton_once_per_orbit(self, kind, d, monkeypatch):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)
        assert len(symmetries[1])
        labels = {id(op): label for tester in s.testers() for label, op in tester.elements}
        solve = bounds.maximize_over_channels
        newton = []

        def recording(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            if id(m) in labels and res.path != "start":
                newton.append(orbit_of(symmetries, (labels[id(m)],)))
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        reports = scenario_report(s, tol=1e-6)
        monkeypatch.undo()
        newton += [orbit_of(symmetries, r.combination) for r in reports if r.path != "start"]
        assert len(newton) == len(set(newton))
        assert any(r.path == "start" for r in reports)
        for r in reports:
            assert r.error is None and 0.0 <= r.gap <= 1e-6
            assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
            assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6

    def test_per_test_maxima_once_per_label_orbit(self, monkeypatch):
        # the solver stops once n mu <= tol / 2, which leaves the widening of a
        # moved result, d_in eps <= d_in * 1e-12, room within tol: every image
        # certifies its start
        s = _build_scenario("meb", 5)
        symmetries = bounds._symmetries(s)
        labels = {id(op): label for tester in s.testers() for label, op in tester.elements}
        solve = bounds.maximize_over_channels
        paths = {}

        def recording(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            paths[labels[id(m)]] = res.path
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        maxima = bounds._per_test_maxima(s, 1e-6, symmetries=symmetries)
        orbits = {orbit_of(symmetries, (x,)) for x in labels.values()}
        solved = [x for x, path in paths.items() if path != "start"]
        assert len(paths) == len(maxima) == 50 and len(orbits) == 2
        assert sorted(len([x for x in solved if (x,) in orbit]) for orbit in orbits) == [1, 1]

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
            runs.append(res.path != "start")
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

    def test_images_make_no_repair(self, monkeypatch):
        # a cost guard: an image is certified by the perturbation bound, with
        # no eigendecomposition, so the primal repair runs once per source
        # solve, in the closed form or the interior point, and never for an
        # image
        s = _build_scenario("meb", 3)
        repair, solve = channel_opt._repair_primal, bounds.maximize_over_channels
        repairs, paths = [], []

        def solving(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            paths.append(res.path)
            return res

        monkeypatch.setattr(channel_opt, "_repair_primal",
                            lambda *args: repairs.append(args) or repair(*args))
        monkeypatch.setattr(bounds, "maximize_over_channels", solving)
        reports = scenario_report(s)
        assert len(paths) == len(reports) + 18
        assert len(repairs) == sum(path != "start" for path in paths) == 3

    def test_one_result_per_solve(self, monkeypatch):
        # a cost guard: the solver moves an image's start and certifies it
        # into the image's one result, so a report builds one result per
        # solver call: 8 per-test maxima and 16 exact solves
        post_init, solve = ChannelOptResult.__post_init__, bounds.maximize_over_channels
        built, solves = [], []

        def counting(self):
            built.append(self)
            post_init(self)

        def solving(m, tol, start=None):
            solves.append(start)
            return solve(m, tol=tol, start=start)

        monkeypatch.setattr(ChannelOptResult, "__post_init__", counting)
        monkeypatch.setattr(bounds, "maximize_over_channels", solving)
        scenario_report(meb_scenario(*mub_meb_pair_2qubit()), tol=1e-6)
        assert len(built) == len(solves) == 24
        assert sum(start is not None for start in solves) > 0

    @pytest.mark.parametrize("kind,d", KINDS_2_3)
    def test_orbit_table(self, kind, d):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)
        _, _, (iw, pw), _ = symmetries
        elements = {(label,): op.mat for tester in s.testers() for label, op in tester.elements}
        objectives = {c: objective_operator(s, c).mat for c in all_combinations(s)}
        for mats in (elements, objectives):
            table = bounds._orbits(list(mats), symmetries)
            assert list(table) == list(mats)
            for key in mats:
                orbit = orbit_of(symmetries, key)
                members = [k for k in table if k in orbit]
                # the first key of an orbit in report order is its one source
                assert [table[k] is None for k in members] == [True] + [False] * (len(members) - 1)
            for key, origin in table.items():
                if origin is not None:
                    source, sym = origin
                    assert table[source] is None
                    assert np.abs(_conjugated(mats[source], (iw[sym], pw[sym]))
                                  - mats[key]).max() <= ROUNDING_ATOL

    @pytest.mark.parametrize("build", [
        *(lambda kind=kind, d=d: _build_scenario(kind, d) for kind, d in KINDS_2_3),
        lambda: covariant_scenario(3, 5, [[30], [30, 10]])],
        ids=[f"{kind}-{d}" for kind, d in KINDS_2_3] + ["covariant-3"])
    def test_orbit_table_takes_the_first_symmetry(self, build):
        # an image (source, s) names the smallest row s of the symmetry table
        # that maps its source onto it, in the label table and in the
        # combination table, read off every row of the table at once
        s = build()
        symmetries = bounds._symmetries(s)
        labels, rows = symmetries[:2]
        index = {label: i for i, label in enumerate(labels)}
        images = 0
        for keys in ([(x,) for test in s.tests for x in test.labels], all_combinations(s)):
            for key, origin in bounds._orbits(keys, symmetries).items():
                if origin is not None:
                    source, first = origin
                    maps = rows[:, [index[x] for x in source]] == [index[x] for x in key]
                    assert np.flatnonzero(maps.all(axis=1))[0] == first
                    images += 1
        assert images

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
    @pytest.mark.parametrize("kind,d", KINDS_2_3)
    def test_spectral_once_per_orbit(self, kind, d, skip, monkeypatch):
        s = _build_scenario(kind, d)
        symmetries = bounds._symmetries(s)

        calls = self.record_tightness(s, monkeypatch)
        reports = scenario_report(s, tol=1e-6, skip_exact=skip, skip_trivial=skip)
        monkeypatch.undo()
        # the witness does not depend on the basis of a degenerate top
        # eigenspace, so every source hands its result on: one call per orbit
        table = bounds._orbits(all_combinations(s), symmetries)
        assert [c for c, _ in calls] == [c for c, origin in table.items() if origin is None]
        assert len({orbit_of(symmetries, c) for c, _ in calls}) == len(calls) < len(reports)
        for r in reports:
            direct = tightness_check(s, r.combination)
            assert abs(r.upper - direct.upper) <= 1e-12
            assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)

    def test_degenerate_sources_hand_on(self, monkeypatch):
        # `meb --d 4`: half the objectives have a twofold top eigenspace, all
        # reach the cap, and one spectral step per orbit flags them all tight
        s = _build_scenario("meb", 4)
        calls = self.record_tightness(s, monkeypatch)
        reports = scenario_report(s, tol=1e-6, skip_exact=True, skip_trivial=True)
        monkeypatch.undo()
        table = bounds._orbits(all_combinations(s), bounds._symmetries(s))
        assert len(calls) == sum(origin is None for origin in table.values()) == 2
        assert any(degenerate for _, degenerate in calls)
        assert sum(r.tight_degenerate for r in reports) == 128
        assert all(r.tight for r in reports if r.tight_degenerate)
        for r in reports[::17]:
            direct = tightness_check(s, r.combination)
            assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)

    def test_false_matches_rejected_by_the_search(self, monkeypatch):
        # every candidate's fingerprints are made the identity's, so each
        # claims W T(x) W^dag = T(x) for every element; the search checks
        # each on the elements and keeps none, so the report is the direct one
        s = random_scenario(np.random.default_rng(11), n_tests=2, d_anc=2, d_in=2, d_out=3,
                            n_outcomes=3)
        fingerprints, own = bounds._fingerprints, []

        def matching(moved, stack):
            prints = fingerprints(moved, stack)
            if not own:  # the first candidate fingerprinted is the identity
                own.append(prints[0])
            return np.tile(own[0], (len(prints), 1))

        monkeypatch.setattr(bounds, "_fingerprints", matching)
        assert len(bounds._symmetries(s)[1]) == 0
        reports = scenario_report(s, tol=1e-6)
        monkeypatch.undo()
        assert report_bytes(reports) == \
            report_bytes([bound_report(s, c, tol=1e-6) for c in all_combinations(s)])

    @pytest.mark.parametrize("skip", [False, True])
    def test_perturbation_below_fingerprints_rejected(self, skip):
        # x1_0's effect of meb --d 2 grows by 1e-10 of itself: above
        # ROUNDING_ATOL, inside EQUALITY_ATOL, so every candidate still
        # matches on fingerprints, but only the three that fix x1_0 remain
        # symmetries, and only they are kept
        base = _build_scenario("meb", 2)
        first = base.tests[0]
        (label, effect), *rest = first.povm
        povm = [(label, HermitianOperator(effect.mat * (1 + 1e-10), effect.dims)), *rest]
        s = Scenario([Test(first.input_state, povm, first.d_anc, first.d_in, first.d_out),
                      base.tests[1]], base.weights)
        elems = np.array([op.mat for tester in s.testers() for _, op in tester.elements])
        labels, rows, (iw, pw), (iu, pu) = exhaustive_symmetries(s)
        kept = bounds._symmetries(s)
        keep = np.array([element_error(elems, (iw[c], pw[c]), rows[c]) <= ROUNDING_ATOL
                         for c in range(len(rows))])
        assert len(rows) == 15 and len(kept[1]) == 3
        assert symmetry_list(kept) == \
            symmetry_list((labels, rows[keep], (iw[keep], pw[keep]), (iu[keep], pu[keep])))
        reports = scenario_report(s, tol=1e-6, skip_exact=skip, skip_trivial=skip)
        assert report_bytes(reports) == \
            report_bytes(walk_report(s, tol=1e-6, skip_exact=skip, skip_trivial=skip))
        for r in reports:
            direct = tightness_check(s, r.combination)
            assert abs(r.upper - direct.upper) <= 1e-12
            assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)
            if not skip:
                assert r.error is None
                assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
                assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6

    def test_one_objective_per_source(self, monkeypatch):
        # a cost guard: with both skips an image builds no objective, so
        # meb --d 5, one source and 624 images, builds one
        s = _build_scenario("meb", 5)
        build, built = bounds._objective, []
        monkeypatch.setattr(bounds, "_objective",
                            lambda *args: built.append(args[2]) or build(*args))
        reports = scenario_report(s, skip_exact=True, skip_trivial=True)
        assert len(reports) == 625 and built == [reports[0].combination]

    # the rectangular and degenerate shapes check that an empty set of
    # symmetries is built for any (d_in, d_out)
    @pytest.mark.parametrize("seed,d_in,d_out", [(3, 3, 2), (4, 2, 2), (5, 3, 3), (6, 1, 3),
                                                 (7, 3, 1), (8, 2, 3)])
    def test_random_scenario_has_no_symmetry(self, seed, d_in, d_out):
        s = random_scenario(np.random.default_rng(seed), n_tests=2, d_anc=2, d_in=d_in,
                            d_out=d_out, n_outcomes=3)
        assert len(bounds._symmetries(s)[1]) == 0
        direct = [report_to_json(bound_report(s, c, tol=1e-6)) for c in all_combinations(s)]
        reused = [report_to_json(r) for r in scenario_report(s, tol=1e-6)]
        assert dumps_canonical({"reports": reused}) == dumps_canonical({"reports": direct})


def random_hermitian_matrix(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


class TestMonomials:
    """Symmetries act as index-and-phase monomials, and reports build each
    objective as a plain matrix; dense products and the oracles check both."""

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
    def test_transport_matches_dense_kron(self, d_in, d_out):
        # one outcome of a maximally mixed input: every shift-clock W is a symmetry
        test = Test(HermitianOperator(np.eye(d_in) / d_in, (1, d_in)),
                    [("x", HermitianOperator(np.eye(d_out), (1, d_out)))], 1, d_in, d_out)
        _, rows, (iw, pw), (iu, pu) = bounds._symmetries(Scenario([test], [1.0]))
        us, vs = shift_clock(d_in), shift_clock(d_out)
        assert len(rows) == len(us) * len(vs) - 1
        rng = np.random.default_rng(10 * d_in + d_out)
        m, j = (random_hermitian_matrix(rng, d_in * d_out) for _ in range(2))
        y = random_hermitian_matrix(rng, d_in)
        monomials = [((iw[s], pw[s]), (iu[s], pu[s])) for s in range(len(rows))]
        # symmetry c - 1 is candidate c = (p, q, s, t) in shift_clock order
        for c, (w, u) in enumerate(monomials, start=1):
            dense_u, dense_v = us[c // len(vs)], vs[c % len(vs)]
            dense_w = np.kron(dense_u, dense_v)
            for mat, monomial, dense in ((m, w, dense_w), (j, w, dense_w), (y, u, dense_u)):
                expected = dense @ mat @ dense.conj().T
                assert np.abs(_conjugated(mat, monomial) - expected).max() <= \
                    1e-15 * np.abs(mat).max()
        # one monomial moves a stack of matrices to the stack of their single
        # moves, bit for bit
        for w, u in monomials:
            for mats, monomial in ((np.array([m, j]), w), (np.array([y, y.conj()]), u)):
                assert _conjugated(mats, monomial).tobytes() == \
                    np.array([_conjugated(mat, monomial) for mat in mats]).tobytes()

    def test_monomials_of_kron_from_factors(self):
        # the monomial of U (x) V that _symmetries checks and returns, built
        # from U's and V's, has the bits of the dense kron's for every
        # candidate
        for d_in, d_out in itertools.product(range(1, 8), repeat=2):
            us, vs = shift_clock(d_in), shift_clock(d_out)
            c = np.arange(len(us) * len(vs))
            (iu, pu), (iv, pv) = bounds._monomials(us), bounds._monomials(vs)
            a, b = c // len(vs), c % len(vs)
            stacked = bounds._kron_monomials((iu[a], pu[a]), (iv[b], pv[b]))
            for k in c:
                kron = bounds._monomials(np.kron(us[a[k]], vs[b[k]]))
                # the search builds one pair at a time, the list's tail all at once
                one = bounds._kron_monomials((iu[a[k]], pu[a[k]]), (iv[b[k]], pv[b[k]]))
                for index, phase in one, (stacked[0][k], stacked[1][k]):
                    assert np.array_equal(index, kron[0]) and phase.tobytes() == kron[1].tobytes()

    def test_shift_clock_phases_within_stated_delta(self):
        # delta of the rounding bound _from_start states: how far the phases of
        # the shift-clock monomials are off unit modulus
        for d in range(2, 33):
            _, phase = bounds._monomials(shift_clock(d))
            delta = np.abs(np.abs(phase) - 1).max()
            assert delta < 2.5e-16, d

    def test_shift_clock_phases_near_roots_of_unity(self):
        # the rounding behind _symmetries' rho: each shift-clock phase is within
        # 18 u of its root of unity and a product of two within 39 u, checked
        # against roots taken in extended precision
        unit, pi = 2.0 ** -53, 4 * np.arctan(np.longdouble(1))
        roots = []
        for d in range(2, 33):
            stored = np.diagonal(shift_clock(d)[1])  # Z: omega^j for each j
            exact = np.exp(2j * pi * np.arange(d) / d)
            assert np.abs(stored - exact).max() <= 18 * unit, d
            roots.append((stored, exact))
        for (s1, e1), (s2, e2) in itertools.product(roots, repeat=2):
            assert np.abs(np.multiply.outer(s1, s2) - np.multiply.outer(e1, e2)).max() <= \
                39 * unit

    @pytest.mark.parametrize("d_in,d_out",
                             [(1, 3), (3, 1), (2, 3), (3, 3), (5, 5), (7, 7), (9, 9)])
    def test_moved_channel_within_stated_bound(self, d_in, d_out):
        # the bound channel_opt._from_start states instead of validating the
        # Choi matrix it builds again: ||J' - W~ J W~^dag||_op <= ||.||_F <= (8 u + 2 e + e^2) d_in,
        # with e = 2 delta + 3 u, W~ the monomial with its phases scaled to
        # unit modulus, as a dense matrix, and the product taken in extended
        # precision
        test = Test(HermitianOperator(np.eye(d_in) / d_in, (1, d_in)),
                    [("x", HermitianOperator(np.eye(d_out), (1, d_out)))], 1, d_in, d_out)
        _, rows, (iw, pw), _ = bounds._symmetries(Scenario([test], [1.0]))
        us, vs = shift_clock(d_in), shift_clock(d_out)
        channel = random_channel(d_in, d_out, np.random.default_rng(d_in + 10 * d_out))
        unit = 2.0 ** -53
        delta = max(np.abs(np.abs(bounds._monomials(shift_clock(d))[1]) - 1).max()
                    for d in (d_in, d_out))
        e = 2 * delta + 3 * unit
        j = channel.choi.mat.astype(np.clongdouble)
        for c in range(1, len(rows) + 1, max(1, len(rows) // 50)):
            dense = np.kron(us[c // len(vs)], vs[c % len(vs)]).astype(np.clongdouble)
            dense[dense != 0] /= np.abs(dense[dense != 0])
            w = iw[c - 1], pw[c - 1]
            moved = HermitianOperator(_conjugated(channel.choi.mat, w), (d_in, d_out))
            err = moved.mat - dense @ j @ dense.conj().T
            assert np.sqrt((np.abs(err) ** 2).sum()) <= (8 * unit + 2 * e + e * e) * d_in
            channel_from_choi(moved)  # and it passes the checks it skipped

    @pytest.mark.parametrize("kind,d", KINDS_2_3)
    def test_report_objectives_are_the_oracles(self, kind, d, monkeypatch):
        # every objective a report builds, a source's or an image's for its
        # exact solve, and every matrix it solves is objective_operator's, bit
        # for bit, with one solve per combination
        s = _build_scenario(kind, d)
        build, solve = bounds._objective, bounds.maximize_over_channels
        built, solved = [], []

        def building(scenario, testers, combination):
            mat = build(scenario, testers, combination)
            built.append((combination, mat))
            return mat

        def solving(m, tol, start=None):
            solved.append(m)
            return solve(m, tol=tol, start=start)

        monkeypatch.setattr(bounds, "_objective", building)
        monkeypatch.setattr(bounds, "maximize_over_channels", solving)
        reports = scenario_report(s, tol=1e-6, skip_trivial=True)
        monkeypatch.undo()
        combos = all_combinations(s)
        assert [r.combination for r in reports] == combos
        assert sorted(c for c, _ in built) == combos
        assert len(solved) == len(combos)
        # a report solves its objectives in the order it builds them
        inputs = {combo: m for (combo, _), m in zip(built, solved)}
        for combo, mat in built:
            oracle = objective_operator(s, combo)
            assert mat.tobytes() == inputs[combo].mat.tobytes() == oracle.mat.tobytes()
            assert inputs[combo].dims == oracle.dims

    @pytest.mark.parametrize("kind,d", [("meb", 3), ("mub-meb-2qubit", 2)])
    def test_checks_run_only_at_the_boundary(self, kind, d, monkeypatch):
        # a boundary guard: on a loaded scenario with its testers built, a full
        # report runs the checked HermitianOperator.__init__ twice in each solve
        # that is not a start, for the repaired primal and the dual, and nowhere
        # else; every other operator comes from validated ones, unchecked
        payload = dumps_canonical(scenario_to_json(_build_scenario(kind, d)))
        s = scenario_from_json(json.loads(payload))
        s.testers()
        checked, solves = [], []
        init, solve = HermitianOperator.__init__, bounds.maximize_over_channels
        monkeypatch.setattr(HermitianOperator, "__init__",
                            lambda self, *args: checked.append(args) or init(self, *args))

        def counted(m, tol, start=None):
            before = len(checked)
            res = solve(m, tol=tol, start=start)
            solves.append((res.path, len(checked) - before))
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", counted)
        reports = scenario_report(s)
        assert all(r.error is None for r in reports)
        assert {path for path, _ in solves} >= {"start", "interior_point"}
        assert [n for _, n in solves] == [0 if path == "start" else 2 for path, _ in solves]
        assert len(checked) == sum(n for _, n in solves)

    @pytest.mark.parametrize("kind,d", [
        *((kind, d) for kind in GEN_KINDS for d in ((2,) if kind == "mub-meb-2qubit" else (2, 3))),
        ("random", 0), ("random", 1)])
    def test_every_unchecked_operator_passes_the_checks(self, kind, d, monkeypatch):
        # the oracle of the boundary: each operator built unchecked, from the
        # scenario's construction through its testers to a full report, passes
        # the checks of the public constructor, which gives it the same bits
        built = []
        unchecked = HermitianOperator._unchecked.__func__

        def recorded(cls, mat, dims):
            op = unchecked(cls, mat, dims)
            built.append((np.array(mat), dims, op))
            return op

        monkeypatch.setattr(HermitianOperator, "_unchecked", classmethod(recorded))
        s = random_scenario(np.random.default_rng(d), d_anc=2, d_in=2, d_out=2) \
            if kind == "random" else _build_scenario(kind, d)
        assert all(r.error is None for r in scenario_report(s))
        monkeypatch.undo()
        assert built
        for mat, dims, op in built:
            assert HermitianOperator(mat, dims) == op


def report_bytes(reports) -> str:
    return dumps_canonical({"reports": [report_to_json(r) for r in reports]})


# (name, scenario builder, skip both bounds): every gen kind at d = 2 and 3,
# full and with both skips, meb and example2 at d = 4 with both skips, and a
# random scenario with no symmetry, where every combination is a source
WALKS = [(f"{kind}-{d}-{'skip' if skip else 'full'}",
          lambda kind=kind, d=d: _build_scenario(kind, d), skip)
         for kind in GEN_KINDS for d in (2, 3) if kind != "mub-meb-2qubit" or d == 2
         for skip in (False, True)]
WALKS += [(f"{kind}-4-skip", lambda kind=kind: _build_scenario(kind, 4), True)
          for kind in ("meb", "example2")]
WALKS += [("random-full", lambda: random_scenario(np.random.default_rng(11), n_tests=2, d_anc=2,
                                                  d_in=2, d_out=3, n_outcomes=3), False)]


class TestStackedWalk:
    """``scenario_report`` walks the orbit table once, in report order, and
    hands each image its source's spectral result with no objective built;
    ``walk_report`` (tests/oracles.py) builds every objective and checks each
    image against its moved source.  Their reports are the same bytes."""

    @pytest.mark.parametrize("build,skip", [(b, skip) for _, b, skip in WALKS],
                             ids=[name for name, _, _ in WALKS])
    def test_matches_the_per_image_walk(self, build, skip):
        s = build()
        assert report_bytes(scenario_report(s, skip_exact=skip, skip_trivial=skip)) == \
            report_bytes(walk_report(s, skip_exact=skip, skip_trivial=skip))

    def test_report_memory_stays_small(self):
        # a memory guard: meb --d 5 with both skips, one source and 624
        # images, peaks at 2.05 MB traced; the symmetry check moves one
        # tester element at a time
        s = _build_scenario("meb", 5)
        scenario_report(s, skip_exact=True, skip_trivial=True)
        tracemalloc.start()
        try:
            scenario_report(s, skip_exact=True, skip_trivial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


def one_test_scenario(rho, effects):
    """The scenario of one ancilla-free test: input state ``rho`` and the POVM
    ``effects``, labelled x0, x1, ..."""
    d_in, d_out = len(rho), len(effects[0])
    test = Test(HermitianOperator(rho, (1, d_in)),
                [(f"x{i}", HermitianOperator(e, (1, d_out))) for i, e in enumerate(effects)],
                1, d_in, d_out)
    return Scenario([test], [1.0])


def basis_effects(d, copies=1):
    """The computational-basis POVM of dimension d, each effect split into
    ``copies`` equal ones."""
    return [np.diag(np.eye(d)[i]) / copies for i in range(d) for _ in range(copies)]


def fourier_diagonal(weights):
    """The circulant state with eigenvalues ``weights`` on the Fourier basis:
    X commutes with it, Z does not."""
    d = len(weights)
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    return f @ np.diag(weights) @ f.conj().T


def symmetry_list(symmetries):
    """The table (labels, rows, W, U) of ``_symmetries`` as plain lists, for
    equality."""
    labels, rows, (iw, pw), (iu, pu) = symmetries
    return list(labels), rows.tolist(), iw.tolist(), pw.tolist(), iu.tolist(), pu.tolist()


def count_fingerprints(s, monkeypatch):
    """_symmetries(s) and the number of vectors it fingerprinted."""
    fingerprints, rows = bounds._fingerprints, []

    def counting(moved, stack):
        rows.append(len(moved))
        return fingerprints(moved, stack)

    monkeypatch.setattr(bounds, "_fingerprints", counting)
    symmetries = bounds._symmetries(s)
    monkeypatch.undo()
    return symmetries, sum(rows)


# (name, scenario builder, fingerprinted vectors at most, including the
# identity's): the paper's scenarios, where H is everything (meb, example2)
# or holds no U but the identity (example1, state-mub), random scenarios
# with no symmetry, and two single tests whose H holds some U's but not all:
# Z^q for a diagonal input state, X^p for a circulant one.  There H grows
# across chunks, and the last U's chunk skips its members of H, found by
# composition: 4 of 36 candidates and 9 of 81
SEARCHES = [(f"{kind}-{d}", lambda kind=kind, d=d: _build_scenario(kind, d), None)
            for kind in GEN_KINDS for d in range(2, 7) if kind != "mub-meb-2qubit" or d == 2]
SEARCHES += [
    ("meb-7", lambda: _build_scenario("meb", 7), 3 * 49),
    *[(f"random-{d_in}x{d_out}",
       lambda seed=seed, d_in=d_in, d_out=d_out: random_scenario(
           np.random.default_rng(seed), n_tests=2, d_anc=2, d_in=d_in, d_out=d_out,
           n_outcomes=3), None)
      for seed, d_in, d_out in [(3, 3, 2), (5, 3, 3), (6, 1, 3), (7, 3, 1), (8, 2, 3)]],
    ("diagonal-input", lambda: one_test_scenario(np.diag([0.5, 0.3, 0.2]), basis_effects(2)),
     36 - 4),
    ("circulant-input", lambda: one_test_scenario(fourier_diagonal([0.5, 0.3, 0.2]),
                                                  basis_effects(3)), 81 - 9),
]


def perturbed_meb():
    """meb --d 2 with x1_0's effect grown by 1e-10 of itself, as in
    ``test_perturbation_below_fingerprints_rejected``: every candidate
    matches on fingerprints, and the element check rejects all but three."""
    base = _build_scenario("meb", 2)
    first = base.tests[0]
    (label, effect), *rest = first.povm
    povm = [(label, HermitianOperator(effect.mat * (1 + 1e-10), effect.dims)), *rest]
    return Scenario([Test(first.input_state, povm, first.d_anc, first.d_in, first.d_out),
                     base.tests[1]], base.weights)


# (name, scenario builder) of the scenarios whose element checks are compared
# with the per-element loop: every gen kind at d = 2 to 5; meb --d 7, 98
# elements of 49 x 49 in blocks of 3, the last block short; and the
# perturbed meb --d 2, whose checks reject candidates
CHECKS = [(f"{kind}-{d}", lambda kind=kind, d=d: _build_scenario(kind, d))
          for kind in GEN_KINDS for d in range(2, 6) if kind != "mub-meb-2qubit" or d == 2]
CHECKS += [("meb-7", lambda: _build_scenario("meb", 7)), ("perturbed-meb-2", perturbed_meb)]


class TestSymmetrySearch:
    """The coset-pruned search returns the exhaustive search's list, which
    fingerprints every candidate on its own (tests/oracles.py)."""

    @pytest.mark.parametrize("build,most", [(b, m) for _, b, m in SEARCHES],
                             ids=[name for name, _, _ in SEARCHES])
    def test_matches_exhaustive_search(self, build, most, monkeypatch):
        s = build()
        symmetries, fingerprinted = count_fingerprints(s, monkeypatch)
        assert symmetry_list(symmetries) == symmetry_list(exhaustive_symmetries(s))
        if most is not None:
            assert fingerprinted <= most < s.d_in ** 2 * s.d_out ** 2

    def test_meb_fingerprints_three_chunks(self, monkeypatch):
        # a cost guard: H is every candidate, decided by the identity's chunk,
        # one chunk of Z's and one of X's: 75 vectors, the identity and 74 of
        # the 624 candidates
        symmetries, fingerprinted = count_fingerprints(_build_scenario("meb", 5), monkeypatch)
        assert len(symmetries[1]) == 624 and fingerprinted <= 75

    @pytest.mark.parametrize("build", [b for _, b in CHECKS], ids=[name for name, _ in CHECKS])
    def test_blocked_check_matches_per_element_loop(self, build, monkeypatch):
        # each checked generator's error, moved in blocks of elements, has
        # the bits of the per-element loop (tests/oracles.py)
        check, errors = bounds._element_error, []

        def recording(elems, w, row):
            errors.append((check(elems, w, row), element_error(elems, w, row)))
            return errors[-1][0]

        monkeypatch.setattr(bounds, "_element_error", recording)
        bounds._symmetries(build())
        assert errors and all(blocked == looped for blocked, looped in errors)

    def test_meb_checks_generators_in_blocks(self, monkeypatch):
        # a cost guard: meb --d 5 checks four generators on its 50 elements
        # of 25 x 25, 13 to a block: 16 moves, against 200 one at a time
        s = _build_scenario("meb", 5)
        s.testers()
        move, moves = bounds._conjugated, []
        monkeypatch.setattr(bounds, "_conjugated",
                            lambda m, w: moves.append(len(m)) or move(m, w))
        assert len(bounds._symmetries(s)[1]) == 624 and len(moves) <= 16

    def test_equal_elements(self):
        # each effect comes in equal copies, x0 = x1, x2 = x3, ..., so the
        # fingerprints tie; both searches rank equal fingerprints in element
        # order, so the composed relabellings are the exhaustive search's,
        # and the reports built on them are the direct computations'
        for d, copies in [(5, 2), (4, 3), (3, 2)]:
            s = one_test_scenario(np.diag([0.6, 0.4]), basis_effects(d, copies))
            assert symmetry_list(bounds._symmetries(s)) == symmetry_list(exhaustive_symmetries(s))
            for r in scenario_report(s, tol=1e-6):
                direct = tightness_check(s, r.combination)
                assert r.error is None and 0.0 <= r.gap <= 1e-6
                assert abs(r.exact - exact_bound(s, r.combination, tol=1e-6).value) <= 1e-6
                assert abs(r.trivial - trivial_bound(s, r.combination, tol=1e-6)) <= 1e-6
                assert abs(r.upper - direct.upper) <= 1e-12
                assert (r.tight, r.tight_degenerate) == (direct.tight, direct.degenerate)


def covariant_scenario(d, seed, generators):
    """``random_covariant_scenario`` with each generator given as a candidate
    index c = (p, q, s, t) of shift_clock order: X^p Z^q (x) X^s Z^t."""
    sc = shift_clock(d)
    return random_covariant_scenario(np.random.default_rng(seed), d, [
        [np.kron(sc[c // len(sc)], sc[c % len(sc)]) for c in gens] for gens in generators])


class TestCovariantScenarios:
    """Scenarios whose symmetry group H holds some candidates but not all
    (``sampling.random_covariant_scenario``): the search against the
    exhaustive one, and every report entry against the direct one."""

    def test_partial_group(self):
        # X (x) X for one test, X (x) X and Z (x) Z for the other: H is the
        # powers of X (x) X, 2 symmetries of the 80 candidates at d = 3, and
        # the 27 combinations fall into 9 orbits
        s = covariant_scenario(3, 5, [[30], [30, 10]])
        symmetries = bounds._symmetries(s)
        assert len(symmetries[1]) == 2 and len(exhaustive_symmetries(s)[1]) == 2
        table = bounds._orbits(all_combinations(s), symmetries)
        assert sum(origin is None for origin in table.values()) == 9

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
           share=st.booleans())
    def test_search_and_reports_match_the_oracles(self, data, d, seed, share):
        # one generator for the first test; the second test takes the
        # first's generator, another one or both, so H, of order d or 1, is
        # never every candidate
        candidate = st.integers(1, d ** 4 - 1)
        first = data.draw(candidate)
        second = [first] if share else []
        if not share or data.draw(st.booleans()):
            second.append(data.draw(candidate))
        s = covariant_scenario(d, seed, [[first], second])
        assert symmetry_list(bounds._symmetries(s)) == symmetry_list(exhaustive_symmetries(s))
        combos = all_combinations(s)
        for r, c in zip(scenario_report(s, tol=1e-6), combos, strict=True):
            direct = bound_report(s, c, tol=1e-6)
            assert r.combination == c and r.error is None and direct.error is None
            for name in ("trivial", "upper", "exact"):
                assert abs(getattr(r, name) - getattr(direct, name)) <= 1e-6, name
            assert (r.tight, r.tight_degenerate, r.tradeoff) == \
                (direct.tight, direct.tight_degenerate, direct.tradeoff)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_relabelling_permutes_the_report(self, data, d, seed):
        # permute the tests, and within each test the outcomes, under new
        # labels: each entry is the entry of the combination it relabels,
        # within tol, with the same flags; the group H may be trivial or not
        candidate = st.integers(1, d ** 4 - 1)
        s = covariant_scenario(d, seed, [[data.draw(candidate)], [data.draw(candidate)]])
        order = data.draw(st.permutations(range(len(s.tests))))
        tests, names = [], []
        for k in order:
            test = s.tests[k]
            povm = data.draw(st.permutations(test.povm))
            names.append({label: f"y{len(tests)}_{i}" for i, (label, _) in enumerate(povm)})
            tests.append(Test(test.input_state, [(names[-1][label], e) for label, e in povm],
                              test.d_anc, test.d_in, test.d_out))
        relabelled = Scenario(tests, [s.weights[k] for k in order])
        moved = {r.combination: r for r in scenario_report(relabelled, tol=1e-6)}
        entries = scenario_report(s, tol=1e-6)
        assert len(entries) == len(moved)
        for r in entries:
            other = moved[tuple(names[p][r.combination[k]] for p, k in enumerate(order))]
            assert r.error is None and other.error is None
            for name in ("trivial", "upper", "exact"):
                assert abs(getattr(r, name) - getattr(other, name)) <= 1e-6, name
            assert (r.tight, r.tight_degenerate) == (other.tight, other.tight_degenerate)
