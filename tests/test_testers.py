"""Tests for test/tester construction, channels and the generalized Born rule."""

import numpy as np
import pytest

from testerbounds.linalg import (
    HermitianOperator,
    Ket,
    ValidationError,
    basis_transpose,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    partial_trace,
)
from testerbounds.sampling import (
    ginibre_state,
    haar_unitary,
    random_channel,
    random_ket,
    random_mixed_marginal_test,
    random_povm,
    random_scenario,
    random_test,
)
from testerbounds.testers import (
    Scenario,
    Test,
    Tester,
    channel_constant,
    channel_from_choi,
    channel_from_json,
    channel_from_kraus,
    channel_from_unitary,
    channel_to_json,
    direct_probability,
    outcome_distribution,
    probability,
    sample_run,
    scenario_from_json,
    scenario_to_json,
    state_decomposition,
    tester_from_test,
    upsilon_dual_apply,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]])


def kron_dual_reference(rho, b):
    """sum_n w_n (K_n (x) I)^dag b (K_n (x) I), spelled out with kron."""
    d_anc, d_in = rho.dims
    eye = np.eye(b.size // d_anc)
    out = np.zeros((d_in * eye.shape[0],) * 2, dtype=complex)
    for w, psi in state_decomposition(rho):
        k = np.kron(psi.reshape(d_anc, d_in), eye)
        out += w * (k.conj().T @ b.mat @ k)
    return out


class TestUpsilonDual:
    def test_identity_gives_transposed_marginal(self):
        rng = np.random.default_rng(0)
        rho = ginibre_state(6, rng, dims=(2, 3))
        out = upsilon_dual_apply(rho, HermitianOperator(np.eye(2), (2,)))
        marg = basis_transpose(partial_trace(rho, keep=[1]))
        assert np.max(np.abs(out.mat - marg.mat)) < 1e-10

    def test_maximally_entangled_input_rescales(self):
        # the induced dual map is multiplication by 1/d, with no transpose:
        # Pauli Y (whose transpose is -Y) pins the behaviour
        d = 2
        rho = maximally_entangled_state(d)
        rho = HermitianOperator(rho.mat, (d, d))
        b = HermitianOperator(PAULI_Y, (2,))
        out = upsilon_dual_apply(rho, b)
        assert np.max(np.abs(out.mat - PAULI_Y / d)) < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_ket(3, rng)
        psi = random_ket(2, rng)
        rho = kron(a.projector(), psi.projector())
        rho = HermitianOperator(rho.mat, (3, 2))
        b = ginibre_state(3, rng)
        out = upsilon_dual_apply(rho, b)
        expected = np.vdot(a.amps, b.mat @ a.amps).real * psi.projector().mat.T
        assert np.max(np.abs(out.mat - expected)) < 1e-12

    def test_decomposition_independence(self):
        rng = np.random.default_rng(2)
        rho = ginibre_state(6, rng, dims=(2, 3))
        b = HermitianOperator(ginibre_state(2, rng).mat * 3.0, (2,))
        default = upsilon_dual_apply(rho, b)
        pairs = state_decomposition(rho)
        k = len(pairs) + 2
        g = rng.standard_normal((k, len(pairs))) + 1j * rng.standard_normal((k, len(pairs)))
        q, _ = np.linalg.qr(g)
        mixed = []
        for row in range(k):
            phi = sum(q[row, m] * np.sqrt(w) * v for m, (w, v) in enumerate(pairs))
            norm = np.linalg.norm(phi)
            if norm > 1e-12:
                mixed.append((norm**2, phi / norm))
        alt = upsilon_dual_apply(rho, b, decomposition=mixed)
        assert np.max(np.abs(default.mat - alt.mat)) < 1e-10

    @pytest.mark.parametrize("state", ["mixed", "max_entangled", "product"])
    def test_matches_kron_form(self, state):
        rng = np.random.default_rng(5)
        if state == "mixed":
            rho = ginibre_state(6, rng, dims=(2, 3))
        elif state == "max_entangled":
            rho = maximally_entangled_state(2)
        else:
            rho = HermitianOperator(kron(random_ket(3, rng).projector(),
                                         random_ket(2, rng).projector()).mat, (3, 2))
        d_anc, d_in = rho.dims
        b = HermitianOperator(ginibre_state(d_anc * 3, rng).mat, (d_anc, 3))
        out = upsilon_dual_apply(rho, b)
        assert out.dims == (d_in, 3)
        assert np.max(np.abs(out.mat - kron_dual_reference(rho, b))) < 1e-12

    def test_product_operator_factorizes(self):
        rng = np.random.default_rng(6)
        rho = ginibre_state(6, rng, dims=(2, 3))
        b_anc, c = ginibre_state(2, rng), ginibre_state(2, rng)
        out = upsilon_dual_apply(rho, HermitianOperator(np.kron(b_anc.mat, c.mat), (2, 2)))
        expected = np.kron(upsilon_dual_apply(rho, b_anc).mat, c.mat)
        assert np.max(np.abs(out.mat - expected)) < 1e-12

    def test_ancilla_dimension_checked(self):
        rho = maximally_entangled_state(2)
        with pytest.raises(ValidationError):
            upsilon_dual_apply(rho, HermitianOperator(np.eye(6), (3, 2)))


class TestScenarioTesters:
    def test_built_once_fresh_list(self, monkeypatch):
        import testerbounds.testers as testers_module
        s = random_scenario(np.random.default_rng(7), n_tests=2, d_in=2, d_out=2)
        calls = []
        build = testers_module.tester_from_test
        monkeypatch.setattr(testers_module, "tester_from_test",
                            lambda t: calls.append(t) or build(t))
        first, second = s.testers(), s.testers()
        assert len(calls) == 2
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(s.testers()) == 2


def state_measurement_test(povm_effects):
    d_out = povm_effects[0].shape[0]
    state = HermitianOperator([[1.0]], (1, 1))
    povm = [(f"m{i}", HermitianOperator(e, (1, d_out))) for i, e in enumerate(povm_effects)]
    return Test(state, povm, d_anc=1, d_in=1, d_out=d_out)


class TestTesterConstruction:
    def test_trivial_ancilla_reduces_to_povm(self):
        rng = np.random.default_rng(3)
        effects = [e.mat for e in random_povm(3, 3, rng)]
        tester = tester_from_test(state_measurement_test(effects))
        for (label, op), expected in zip(tester.elements, effects):
            assert np.max(np.abs(op.mat - expected)) < 1e-12
        assert np.max(np.abs(tester.marginal.mat - np.eye(1))) < 1e-12

    def test_pure_input_product_form(self):
        # no ancilla, rank-1 measurement: T = |psi><psi|^T (x) |e><e|
        rng = np.random.default_rng(4)
        psi = random_ket(3, rng)
        basis = haar_unitary(2, rng)
        state = HermitianOperator(psi.projector().mat, (1, 3))
        povm = [(f"b{i}", HermitianOperator(np.outer(basis[:, i], basis[:, i].conj()), (1, 2)))
                for i in range(2)]
        tester = tester_from_test(Test(state, povm, d_anc=1, d_in=3, d_out=2))
        for i, (label, op) in enumerate(tester.elements):
            proj = np.outer(basis[:, i], basis[:, i].conj())
            expected = np.kron(psi.projector().mat.T, proj)
            assert np.max(np.abs(op.mat - expected)) < 1e-12

    def test_entangled_input_product_measurement(self):
        # input P+, measurement |e><e| (x) |f><f|: T = (1/d)|e><e| (x) |f><f|
        rng = np.random.default_rng(5)
        d = 3
        e = random_ket(d, rng)
        f = random_ket(d, rng)
        state = maximally_entangled_state(d)
        eff = kron(e.projector(), f.projector())
        remainder = HermitianOperator(np.eye(d * d) - eff.mat, (d, d))
        test = Test(state, [("hit", eff), ("rest", remainder)], d_anc=d, d_in=d, d_out=d)
        tester = tester_from_test(test)
        expected = np.kron(e.projector().mat, f.projector().mat) / d
        assert np.max(np.abs(tester.element("hit").mat - expected)) < 1e-12

    def test_normalization_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            test = random_test(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               int(rng.integers(1, 4)), 3, rng)
            tester = tester_from_test(test)
            total = sum(op.mat for _, op in tester.elements)
            marg = basis_transpose(partial_trace(test.input_state, keep=[1]))
            expected = np.kron(marg.mat, np.eye(test.d_out))
            assert np.max(np.abs(total - expected)) < 1e-9

    def test_rescaled_tester_povm_iff_uniform_marginal(self):
        rng = np.random.default_rng(7)
        conforming = random_mixed_marginal_test(3, 2, 2, 3, rng)
        tester = tester_from_test(conforming)
        total = 2 * sum(op.mat for _, op in tester.elements)
        assert np.max(np.abs(total - np.eye(4))) < 1e-9

        violating = random_test(2, 2, 2, 3, rng)
        marg = partial_trace(violating.input_state, keep=[1])
        assert np.max(np.abs(marg.mat - np.eye(2) / 2)) > 1e-3  # genuinely non-uniform
        tester = tester_from_test(violating)
        total = 2 * sum(op.mat for _, op in tester.elements)
        assert np.max(np.abs(total - np.eye(4))) > 1e-6

    def test_invalid_povm_rejected(self):
        state = HermitianOperator([[1.0]], (1, 1))
        bad = [("a", HermitianOperator(np.eye(2) / 2, (1, 2)))]
        with pytest.raises(ValidationError):
            Test(state, bad, d_anc=1, d_in=1, d_out=2)

    def test_duplicate_labels_rejected(self):
        state = HermitianOperator([[1.0]], (1, 1))
        povm = [("a", HermitianOperator(np.diag([1.0, 0]), (1, 2))),
                ("a", HermitianOperator(np.diag([0, 1.0]), (1, 2)))]
        with pytest.raises(ValidationError):
            Test(state, povm, d_anc=1, d_in=1, d_out=2)

    def test_tester_type_rejects_bad_sum(self):
        eye = HermitianOperator(np.eye(4) / 3, (2, 2))
        marginal = HermitianOperator(np.eye(2) / 2, (2,))
        with pytest.raises(ValidationError):
            Tester([("a", eye)], marginal)


class TestChannels:
    def test_identity_unitary(self):
        ch = channel_from_unitary(np.eye(2))
        expected = maximally_entangled_state(2, normalized=False)
        assert np.max(np.abs(ch.choi.mat - expected.mat)) < 1e-12

    def test_constant_channel(self):
        rng = np.random.default_rng(8)
        sigma = ginibre_state(3, rng)
        ch = channel_constant(sigma, d_in=2)
        assert np.max(np.abs(ch.choi.mat - np.kron(np.eye(2), sigma.mat))) < 1e-12
        rho = ginibre_state(2, rng)
        out = ch.apply(rho)
        assert np.max(np.abs(out.mat - sigma.mat)) < 1e-10

    def test_kraus_choi_matches_direct_application(self):
        # oracle: apply I (x) channel to the unnormalized entangled state by
        # the explicit Kraus sum
        rng = np.random.default_rng(9)
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        ks = [u1 * np.sqrt(0.3), u2 * np.sqrt(0.7)]
        ch = channel_from_kraus(ks)
        p_plus = maximally_entangled_state(2, normalized=False).mat
        expected = sum(np.kron(np.eye(2), k) @ p_plus @ np.kron(np.eye(2), k).conj().T
                       for k in ks)
        assert np.max(np.abs(ch.choi.mat - expected)) < 1e-12
        marg = partial_trace(ch.choi, keep=[0])
        assert np.max(np.abs(marg.mat - np.eye(2))) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_unitary(np.diag([1.0, 0.5]))

    def test_non_trace_preserving_kraus_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_kraus([np.eye(2) * 0.9])

    def test_bad_choi_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_choi(HermitianOperator(np.eye(4), (2, 2)))  # tr_out = 2I

    def test_rectangular_channel(self):
        rng = np.random.default_rng(10)
        ch = random_channel(3, 2, rng)
        assert (ch.d_in, ch.d_out) == (3, 2)
        marg = partial_trace(ch.choi, keep=[0])
        assert np.max(np.abs(marg.mat - np.eye(3))) < 1e-9


class TestProbabilities:
    def test_meb_element_with_matching_unitary(self):
        rng = np.random.default_rng(11)
        d = 2
        u = haar_unitary(d, rng)
        ket = Ket(np.kron(np.eye(d), u) @ maximally_entangled_ket(d).amps, (d, d))
        element = HermitianOperator(ket.projector().mat / d, (d, d))
        assert probability(element, channel_from_unitary(u)) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            test = random_test(int(rng.integers(1, 3)), 2, 2, 3, rng)
            tester = tester_from_test(test)
            ch = random_channel(2, 2, rng)
            total = sum(probability(op, ch) for _, op in tester.elements)
            assert abs(total - 1.0) < 1e-9

    def test_identity_channel_direct(self):
        state = kron(Ket([1, 0], (2,)), Ket([1, 0], (2,)))
        test = Test(HermitianOperator(state.projector().mat, (2, 2)),
                    [("yes", state.projector()),
                     ("no", HermitianOperator(np.eye(4) - state.projector().mat, (2, 2)))],
                    d_anc=2, d_in=2, d_out=2)
        ch = channel_from_unitary(np.eye(2))
        assert direct_probability(test, "yes", ch) == pytest.approx(1.0, abs=1e-12)

    def test_constant_channel_factorizes(self):
        rng = np.random.default_rng(13)
        test = random_test(2, 2, 3, 3, rng)
        sigma = ginibre_state(3, rng)
        ch = channel_constant(sigma, d_in=2)
        rho_anc = partial_trace(test.input_state, keep=[0])
        for label, effect in test.povm:
            expected = np.trace(effect.mat @ np.kron(rho_anc.mat, sigma.mat)).real
            assert direct_probability(test, label, ch) == pytest.approx(expected, abs=1e-10)

    def test_born_rule_agreement_random(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(100):
            d_anc, d_in, d_out = (int(rng.integers(1, 4)) for _ in range(3))
            test = random_test(d_anc, d_in, d_out, int(rng.integers(2, 4)), rng)
            tester = tester_from_test(test)
            ch = random_channel(d_in, d_out, rng)
            for label, op in tester.elements:
                worst = max(worst, abs(probability(op, ch) - direct_probability(test, label, ch)))
        assert worst < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            probability(HermitianOperator(np.eye(4) / 4, (2, 2)),
                        channel_from_unitary(np.eye(3)))


class TestScenarioAndSampling:
    def make_scenario(self, rng):
        t1 = random_test(1, 2, 2, 2, rng, prefix="x1")
        t2 = random_test(2, 2, 2, 3, rng, prefix="x2")
        return Scenario([t1, t2], (0.4, 0.6))

    def test_label_disjointness_enforced(self):
        rng = np.random.default_rng(15)
        t1 = random_test(1, 2, 2, 2, rng, prefix="x")
        t2 = random_test(1, 2, 2, 2, rng, prefix="x")
        with pytest.raises(ValidationError):
            Scenario([t1, t2], (0.5, 0.5))

    def test_weights_validated(self):
        rng = np.random.default_rng(16)
        t1 = random_test(1, 2, 2, 2, rng, prefix="x1")
        with pytest.raises(ValidationError):
            Scenario([t1], [0.9])
        with pytest.raises(ValidationError):
            Scenario([t1], [-1.0, 2.0])

    def test_sample_validation(self):
        rng = np.random.default_rng(17)
        scenario = self.make_scenario(rng)
        ch = random_channel(2, 2, rng)
        with pytest.raises(ValidationError):
            sample_run(scenario, ch, 0, seed=1)
        hist = sample_run(scenario, ch, 1, seed=1)
        assert sum(hist.values()) == 1

    def test_deterministic_outcome(self):
        # constant channel: the state-measurement test sees sigma itself
        sigma = HermitianOperator(np.diag([1.0, 0.0]), (2,))
        ch = channel_constant(sigma, d_in=1)
        state = HermitianOperator([[1.0]], (1, 1))
        povm = [("hit", HermitianOperator(np.diag([1.0, 0.0]), (1, 2))),
                ("miss", HermitianOperator(np.diag([0.0, 1.0]), (1, 2)))]
        scenario = Scenario([Test(state, povm, 1, 1, 2)], [1.0])
        hist = sample_run(scenario, ch, 500, seed=3)
        assert hist == {"hit": 500, "miss": 0}

    def test_seed_determinism(self):
        rng = np.random.default_rng(18)
        scenario = self.make_scenario(rng)
        ch = random_channel(2, 2, rng)
        h1 = sample_run(scenario, ch, 1000, seed=77)
        h2 = sample_run(scenario, ch, 1000, seed=77)
        h3 = sample_run(scenario, ch, 1000, seed=78)
        assert h1 == h2
        assert h1 != h3

    def test_empirical_frequencies_within_binomial_band(self):
        rng = np.random.default_rng(19)
        scenario = self.make_scenario(rng)
        ch = random_channel(2, 2, rng)
        n = 100_000
        hist = sample_run(scenario, ch, n, seed=5)
        dist = outcome_distribution(scenario, ch)
        for label, p in dist.items():
            sigma = np.sqrt(max(p * (1 - p), 1.0 / n) / n)
            assert abs(hist[label] / n - p) <= 4 * sigma


class TestJsonInterfaces:
    def test_scenario_round_trip(self):
        rng = np.random.default_rng(20)
        scenario = random_scenario(rng, n_tests=2, d_in=2, d_out=2)
        obj = scenario_to_json(scenario)
        back = scenario_from_json(obj)
        assert back.weights == scenario.weights
        for t1, t2 in zip(back.tests, scenario.tests):
            assert t1.labels == t2.labels
            assert np.array_equal(t1.input_state.mat, t2.input_state.mat)

    @pytest.mark.parametrize("kind", ["unitary", "kraus", "constant", "choi"])
    def test_channel_round_trip(self, kind):
        rng = np.random.default_rng(21)
        if kind == "unitary":
            ch = channel_from_unitary(haar_unitary(3, rng))
        elif kind == "kraus":
            ch = random_channel(2, 3, rng, kraus_rank=2)
        elif kind == "constant":
            ch = channel_constant(ginibre_state(2, rng), d_in=3)
        else:
            ch = channel_from_choi(random_channel(2, 2, rng).choi)
        back = channel_from_json(channel_to_json(ch))
        assert back.kind == ch.kind if kind != "kraus" else True
        assert np.max(np.abs(back.choi.mat - ch.choi.mat)) < 1e-12
