"""Tests for the certified channel optimizer."""

import numpy as np
import pytest

from testerbounds.channel_opt import (
    SolverError,
    dual_bound,
    maximize_over_channels,
    random_channel_lower_bound,
)
from testerbounds.linalg import (
    HermitianOperator,
    Ket,
    maximally_entangled_ket,
    operator_norm,
    partial_trace,
)
from testerbounds.sampling import haar_unitary


def random_psd(rng, d_in, d_out, scale=1.0):
    n = d_in * d_out
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return HermitianOperator(scale * mat / np.trace(mat).real, (d_in, d_out))


def random_hermitian(rng, d_in, d_out):
    n = d_in * d_out
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((g + g.conj().T) / 2, (d_in, d_out))


def meb_ket(d, u):
    return Ket(np.kron(np.eye(d), u) @ maximally_entangled_ket(d).amps, (d, d))


class TestKnownOptima:
    def test_single_entangled_element(self):
        # objective (1/d)|Psi><Psi| with Psi maximally entangled: optimum 1
        for d in (2, 3):
            psi = maximally_entangled_ket(d)
            m = HermitianOperator(psi.projector().mat / d, (d, d))
            res = maximize_over_channels(m, tol=1e-6)
            assert res.value == pytest.approx(1.0, abs=1e-6)
            assert res.gap <= 1e-6

    def test_uniform_objective(self):
        # tr J = d_in is forced, so M = I/(d_in d_out) gives exactly 1/d_out
        for d_in, d_out in [(1, 3), (2, 3), (3, 2), (4, 4)]:
            m = HermitianOperator(np.eye(d_in * d_out) / (d_in * d_out), (d_in, d_out))
            res = maximize_over_channels(m, tol=1e-8)
            assert res.value == pytest.approx(1.0 / d_out, abs=1e-8)

    def test_qubit_meb_pair_value(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k1 = meb_ket(2, haar_unitary(2, rng))
            k2 = meb_ket(2, haar_unitary(2, rng))
            m = HermitianOperator((k1.projector().mat + k2.projector().mat) / 4, (2, 2))
            res = maximize_over_channels(m, tol=1e-8)
            expected = 0.5 * (1 + abs(k1.overlap(k2)))
            assert res.value == pytest.approx(expected, abs=1e-7)

    def test_scalar_problem(self):
        m = HermitianOperator([[0.37]], (1, 1))
        res = maximize_over_channels(m, tol=1e-9)
        assert res.value == pytest.approx(0.37, abs=1e-9)

    def test_trivial_output(self):
        # d_out = 1 forces J = I, so the optimum is tr M
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 3, 1)
        res = maximize_over_channels(m, tol=1e-8)
        assert res.value == pytest.approx(np.trace(m.mat).real, abs=1e-8)

    def test_state_optimization(self):
        # d_in = 1: optimize over output states, optimum is the top eigenvalue
        rng = np.random.default_rng(2)
        m = random_hermitian(rng, 1, 4)
        res = maximize_over_channels(m, tol=1e-8)
        assert res.value == pytest.approx(operator_norm(m), abs=1e-8)


class TestCertificates:
    def test_random_psd_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            m = random_psd(rng, d_in, d_out)
            res = maximize_over_channels(m, tol=1e-6)
            assert 0.0 <= res.gap <= 1e-6
            assert res.dual_min_eig >= -1e-8
            # optimizer is an exactly feasible channel
            marg = partial_trace(res.optimizer.choi, keep=[0])
            assert np.max(np.abs(marg.mat - np.eye(d_in))) < 1e-9
            assert res.optimizer.choi.min_eigenvalue() >= -1e-9
            # complementarity of the certified pair
            s = np.kron(res.dual_certificate.mat, np.eye(d_out)) - m.mat
            slack = abs(np.trace(s @ res.optimizer.choi.mat).real)
            assert slack <= 10 * 1e-6

    def test_weak_duality_along_history(self):
        rng = np.random.default_rng(4)
        m = random_psd(rng, 2, 3)
        res = maximize_over_channels(m, tol=1e-7)
        for value, dual in res.history:
            assert value <= dual + 1e-10

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        m = random_psd(rng, 2, 2)
        base = maximize_over_channels(m, tol=1e-9)
        for s in (0.5, 2.0, 10.0):
            scaled = HermitianOperator(s * m.mat, m.dims)
            res = maximize_over_channels(scaled, tol=s * 1e-9)
            assert res.value == pytest.approx(s * base.value, rel=1e-8)

    def test_shift_rule(self):
        # adding A (x) I shifts the optimum by exactly tr A
        rng = np.random.default_rng(6)
        m = random_psd(rng, 2, 2)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (g + g.conj().T) / 2
        shifted = HermitianOperator(m.mat + np.kron(a, np.eye(2)), (2, 2))
        r1 = maximize_over_channels(m, tol=1e-9)
        r2 = maximize_over_channels(shifted, tol=1e-9)
        assert r2.value - r1.value == pytest.approx(np.trace(a).real, abs=1e-8)

    def test_accepts_indefinite_objectives(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 2, 2)
        res = maximize_over_channels(m, tol=1e-7)
        assert res.gap <= 1e-7

    def test_iteration_budget_error_carries_best_pair(self):
        rng = np.random.default_rng(8)
        m = random_psd(rng, 2, 2)
        with pytest.raises(SolverError) as exc_info:
            maximize_over_channels(m, tol=1e-13, max_iter=3)
        err = exc_info.value
        if err.value is not None:
            assert err.value <= err.dual_value + 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(Exception):
            maximize_over_channels(HermitianOperator(np.eye(2), (2,)))
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                maximize_over_channels(HermitianOperator(np.eye(4), (2, 2)), tol=tol)


class TestDualBound:
    def test_norm_shift_always_feasible(self):
        rng = np.random.default_rng(9)
        m = random_psd(rng, 2, 3)
        y = HermitianOperator(operator_norm(m) * np.eye(2), (2,))
        out = dual_bound(m, y)
        assert out.feasible
        assert out.value == pytest.approx(2 * operator_norm(m))

    def test_solver_certificate_is_feasible(self):
        rng = np.random.default_rng(10)
        m = random_psd(rng, 2, 2)
        res = maximize_over_channels(m, tol=1e-8)
        out = dual_bound(m, res.dual_certificate)
        assert out.feasible
        assert out.value == pytest.approx(res.dual_value, abs=1e-12)
        assert out.value >= res.value - 1e-10

    def test_zero_infeasible_for_nonzero_psd(self):
        rng = np.random.default_rng(11)
        m = random_psd(rng, 2, 2)
        out = dual_bound(m, HermitianOperator(np.zeros((2, 2)), (2,)))
        assert not out.feasible
        assert out.value is None


class TestRandomLowerBound:
    def test_never_exceeds_certified_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d_in = int(rng.integers(1, 4))
            d_out = int(rng.integers(1, 4))
            m = random_psd(rng, d_in, d_out)
            res = maximize_over_channels(m, tol=1e-7)
            value, channel = random_channel_lower_bound(m, 500, seed=int(rng.integers(2**31)))
            assert value <= res.dual_value + 1e-8
            marg = partial_trace(channel.choi, keep=[0])
            assert np.max(np.abs(marg.mat - np.eye(d_in))) < 1e-9

    def test_matched_entangled_element(self):
        # the optimum 1 is attained by a unitary channel, so samples stay <= 1
        d = 2
        u = haar_unitary(d, np.random.default_rng(13))
        ket = meb_ket(d, u)
        m = HermitianOperator(ket.projector().mat / d, (d, d))
        value, _ = random_channel_lower_bound(m, 3000, seed=5)
        assert value <= 1.0 + 1e-10
        assert value >= 0.5  # full-support sampler gets within reach of the optimum

    def test_reproducible(self):
        rng = np.random.default_rng(14)
        m = random_psd(rng, 2, 2)
        v1, _ = random_channel_lower_bound(m, 1, seed=3)
        v2, _ = random_channel_lower_bound(m, 1, seed=3)
        v3, _ = random_channel_lower_bound(m, 1, seed=4)
        assert v1 == v2
        assert v1 != v3

    def test_sample_count_validated(self):
        m = HermitianOperator(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            random_channel_lower_bound(m, 0, seed=1)
