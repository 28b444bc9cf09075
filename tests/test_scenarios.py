"""Tests for basis generators and scenario constructors."""

import json

import numpy as np
import pytest

from testerbounds.bounds import upper_bound
from testerbounds.linalg import (
    DimensionError,
    Ket,
    ValidationError,
    dumps_canonical,
    maximally_entangled_ket,
    partial_trace,
)
from testerbounds.sampling import random_povm
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
from testerbounds.testers import scenario_from_json, scenario_to_json, tester_from_test


class TestBellBasis:
    def test_qubit_case_is_bell_like(self):
        meb = generalized_bell_basis(2)
        assert len(meb.kets) == 4
        amps = np.stack([k.amps for k in meb.kets])
        gram = amps @ amps.conj().T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        # contains the standard pair (|00>+|11>)/sqrt(2)
        assert any(np.allclose(k.amps, np.array([1, 0, 0, 1]) / np.sqrt(2)) for k in meb.kets)

    def test_qutrit_gram(self):
        meb = generalized_bell_basis(3)
        amps = np.stack([k.amps for k in meb.kets])
        gram = amps @ amps.conj().T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_marginals_uniform(self):
        for d in (2, 3):
            for ket in generalized_bell_basis(d).kets:
                for keep in (0, 1):
                    marg = partial_trace(ket.projector(), keep=[keep])
                    assert np.max(np.abs(marg.mat - np.eye(d) / d)) < 1e-12

    def test_phase_convention(self):
        for ket in generalized_bell_basis(3).kets:
            first = next(a for a in ket.amps if abs(a) > 1e-12)
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            generalized_bell_basis(1)


class TestMebType:
    def test_rejects_non_orthonormal(self):
        kets = [maximally_entangled_ket(2)] * 4
        gens = [np.eye(2)] * 4
        with pytest.raises(ValidationError):
            MEB(kets, gens)

    def test_rejects_separable_ket(self):
        kets = [Ket([1, 0, 0, 0], (2, 2))] + list(generalized_bell_basis(2).kets[1:])
        gens = [np.eye(2)] * 4
        with pytest.raises(ValidationError):
            MEB(kets, gens)

    def test_generator_mismatch_rejected(self):
        base = generalized_bell_basis(2)
        wrong = list(base.generators[1:]) + [base.generators[0]]
        with pytest.raises(ValidationError):
            MEB(base.kets, wrong)

    def test_from_kets_round_trip(self):
        base = generalized_bell_basis(3)
        rebuilt = MEB.from_kets(base.kets)
        for k1, k2 in zip(rebuilt.kets, base.kets):
            assert np.max(np.abs(k1.amps - k2.amps)) < 1e-12


class TestMubBases:
    def test_any_dimension_pair(self):
        for d in (2, 3, 4, 5, 6):
            b1, b2 = mub_bases(d, 2)
            for a in b1:
                for b in b2:
                    assert abs(abs(a.overlap(b)) - 1 / np.sqrt(d)) < 1e-12

    def test_full_family_prime(self):
        for d in (2, 3, 5):
            bases = mub_bases(d, d + 1)
            assert len(bases) == d + 1
            for i in range(len(bases)):
                amps = np.stack([k.amps for k in bases[i]])
                assert np.max(np.abs(amps @ amps.conj().T - np.eye(d))) < 1e-12
                for j in range(i + 1, len(bases)):
                    for a in bases[i]:
                        for b in bases[j]:
                            assert abs(abs(a.overlap(b)) - 1 / np.sqrt(d)) < 1e-9

    def test_non_prime_full_family_rejected(self):
        with pytest.raises(ValidationError):
            mub_bases(4, 3)

    def test_too_many_rejected(self):
        with pytest.raises(ValidationError):
            mub_bases(3, 5)


class TestTwoQubitPair:
    def test_printed_amplitudes(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        explicit_first = 0.5 * np.array([
            [1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [1, -1, -1, -1]],
            dtype=complex)
        explicit_second = 0.5 * np.array([
            [1, 1j, 1j, 1], [1, -1j, 1j, -1], [1j, 1, 1, 1j], [-1j, 1, -1, 1j]],
            dtype=complex)
        for k, row in zip(meb1.kets, explicit_first):
            assert np.array_equal(k.amps, row)
        for k, row in zip(meb2.kets, explicit_second):
            assert np.array_equal(k.amps, row)

    def test_mutually_unbiased(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        for a in meb1.kets:
            for b in meb2.kets:
                assert abs(abs(a.overlap(b)) - 0.5) < 1e-10

    def test_both_families_maximally_entangled(self):
        for meb in mub_meb_pair_2qubit():
            for ket in meb.kets:
                for keep in (0, 1):
                    marg = partial_trace(ket.projector(), keep=[keep])
                    assert np.max(np.abs(marg.mat - np.eye(2) / 2)) < 1e-12


class TestScenarioConstructors:
    def test_state_measurement_testers_equal_povms(self):
        rng = np.random.default_rng(0)
        povms = [random_povm(3, 3, rng), random_povm(3, 2, rng)]
        s = state_measurement_scenario(povms, (0.5, 0.5))
        assert (s.d_in, s.d_out) == (1, 3)
        for test, povm in zip(s.tests, povms):
            tester = tester_from_test(test)
            for (_, element), eff in zip(tester.elements, povm):
                assert np.max(np.abs(element.mat - eff.mat)) < 1e-12

    def test_state_measurement_accepts_kets(self):
        bases = mub_bases(2, 2)
        s = state_measurement_scenario(bases, (0.5, 0.5))
        assert len(s.tests) == 2

    def test_entangled_product_tester_elements(self):
        for d in (2, 3):
            bases = mub_bases(d, 2)
            s = entangled_input_product_scenario(d, bases, bases)
            tester = tester_from_test(s.tests[0])
            e = bases[0][0]
            f = bases[0][0]
            expected = np.kron(e.projector().mat, f.projector().mat) / d
            assert np.max(np.abs(tester.element("x1_0_0").mat - expected)) < 1e-12

    def test_ancilla_free_scenario_validates(self):
        rng = np.random.default_rng(1)
        bases = mub_bases(2, 2)
        psi = Ket([1, 0], (2,))
        s = ancilla_free_scenario([psi, psi], bases, (0.5, 0.5))
        assert s.tests[0].d_anc == 1
        with pytest.raises(ValidationError):
            ancilla_free_scenario([psi], bases, (0.5, 0.5))

    def test_meb_scenario_marginals_and_testers(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        s = meb_scenario(meb1, meb2)
        for test in s.tests:
            marg = partial_trace(test.input_state, keep=[1])
            assert np.max(np.abs(marg.mat - np.eye(2) / 2)) < 1e-12
        tester = tester_from_test(s.tests[0])
        expected = meb1.kets[0].projector().mat / 2
        assert np.max(np.abs(tester.element("x1_0").mat - expected)) < 1e-12

    def test_meb_scenario_upper_bounds_capped(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        s = meb_scenario(meb1, meb2)
        for combo in [("x1_0", "x2_0"), ("x1_3", "x2_1")]:
            assert upper_bound(s, combo) <= 1.0 + 1e-9

    def test_same_meb_twice_diagonal(self):
        meb = generalized_bell_basis(2)
        shifted = MEB.from_generators([g * np.exp(0.1j) for g in meb.generators])
        from testerbounds.bounds import exact_bound
        s = meb_scenario(meb, shifted)
        assert exact_bound(s, ("x1_0", "x2_0"), tol=1e-7).value == pytest.approx(1.0, abs=1e-6)
        assert exact_bound(s, ("x1_0", "x2_1"), tol=1e-7).value == pytest.approx(0.5, abs=1e-6)

    def test_phase_rotation_leaves_bounds_invariant(self):
        rng = np.random.default_rng(2)
        d = 2
        bases = mub_bases(d, 2)
        rotated = [[Ket(k.amps * np.exp(1j * rng.uniform(0, 2 * np.pi)), (d,)) for k in b]
                   for b in bases]
        s1 = state_measurement_scenario(bases, (0.5, 0.5))
        s2 = state_measurement_scenario(rotated, (0.5, 0.5))
        for combo in [("x1_0", "x2_0"), ("x1_1", "x2_0")]:
            assert upper_bound(s1, combo) == pytest.approx(upper_bound(s2, combo), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            meb_scenario(generalized_bell_basis(2), generalized_bell_basis(3))


class TestSerialization:
    def test_scenario_file_round_trip_bytes(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        text = dumps_canonical(scenario_to_json(meb_scenario(meb1, meb2)))
        assert text.startswith('{\n  "format": 2,\n')
        loaded = scenario_from_json(json.loads(text))
        assert dumps_canonical(scenario_to_json(loaded)) == text

    def test_loaded_scenario_revalidates(self):
        meb1, meb2 = mub_meb_pair_2qubit()
        obj = json.loads(dumps_canonical(scenario_to_json(meb_scenario(meb1, meb2))))
        obj["weights"] = [0.9, 0.9]
        with pytest.raises(ValidationError):
            scenario_from_json(obj)
