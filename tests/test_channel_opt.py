"""Tests for the certified channel optimizer."""

import numpy as np
import pytest

from testerbounds import bounds, channel_opt
from testerbounds.channel_opt import (
    SolverError,
    _lift_index,
    _newton_system,
    _slack,
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
from testerbounds.sampling import haar_unitary, random_scenario
from testerbounds.scenarios import meb_scenario, mub_meb_pair_2qubit


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

    def test_iteration_budget_error_carries_best_pair(self, monkeypatch):
        # 1e-13 is below what floating point can certify for this objective,
        # so the stage at the smallest barrier parameter fails, after a few
        # stage certifications counted at the dual repair
        m =random_psd(np.random.default_rng(8), 2, 2)
        repair = channel_opt._repair_dual
        stages = []

        def counting(*args):
            stages.append(1)
            return repair(*args)

        monkeypatch.setattr(channel_opt, "_repair_dual", counting)
        with pytest.raises(SolverError, match="smallest barrier parameter") as exc_info:
            maximize_over_channels(m, tol=1e-13)
        err = exc_info.value
        assert err.value <= err.dual_value + 1e-10
        assert err.optimizer.choi.dims == (2, 2)
        assert np.trace(m.mat @ err.optimizer.choi.mat).real == pytest.approx(err.value)
        assert len(stages) <= 20

    def test_rejects_bad_inputs(self):
        with pytest.raises(Exception):
            maximize_over_channels(HermitianOperator(np.eye(2), (2,)))
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                maximize_over_channels(HermitianOperator(np.eye(4), (2, 2)), tol=tol)


class TestDampedStep:
    """The damped Newton step keeps every iterate strictly inside the cone."""

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_every_slack_is_positive_definite(self, d_in, d_out, monkeypatch):
        slack = channel_opt._slack
        indefinite = []

        def checked(y, a, lift):
            s = slack(y, a, lift)
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                indefinite.append(s)
            return s

        monkeypatch.setattr(channel_opt, "_slack", checked)
        cases = [(HermitianOperator(np.zeros((d_in * d_out,) * 2), (d_in, d_out)), 1e-6)]
        for kind in (random_psd, random_hermitian):
            for tol in (1e-6, 1e-9):
                cases += [(kind(np.random.default_rng(seed), d_in, d_out), tol)
                          for seed in range(3)]
        for m, tol in cases:
            res = maximize_over_channels(m, tol=tol)
            assert 0.0 <= res.gap <= tol
        assert not indefinite

    @pytest.mark.parametrize("d_in,d_out", [(3, 3), (2, 3)])
    def test_tiny_objectives_at_tight_tolerance(self, d_in, d_out):
        for seed in range(12):
            m = random_psd(np.random.default_rng(seed), d_in, d_out, scale=1e-6)
            res = maximize_over_channels(m, tol=1e-12)
            assert 0.0 <= res.gap <= 1e-12

    # step counts do not depend on the machine, so the budgets are exact guards
    @pytest.mark.parametrize("scenario,solves,budget", [
        (lambda: meb_scenario(*mub_meb_pair_2qubit()), 24, 420),
        (lambda: random_scenario(np.random.default_rng(0), n_tests=2, d_anc=3, d_in=3,
                                 d_out=3, n_outcomes=3), 15, 650),
    ], ids=["mub-meb-2qubit", "random-3x3"])
    def test_step_budget_on_paper_scenario(self, scenario, solves, budget, monkeypatch):
        solve = bounds.maximize_over_channels
        steps = []

        def recording(m, tol):
            res = solve(m, tol=tol)
            steps.append(res.iterations)
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        bounds.scenario_report(scenario(), tol=1e-6)
        assert len(steps) == solves
        assert sum(steps) <= budget


class TestNumericalFailure:
    """A linear-algebra failure inside the solver surfaces as SolverError."""

    @pytest.mark.parametrize("seed,shape,scale", [(5, (4, 4), 1e6), (20, (3, 3), 1e8),
                                                  (31, (3, 2), 1e8)])
    def test_huge_objectives_raise_no_linalg_error(self, seed, shape, scale):
        m = random_hermitian(np.random.default_rng(seed), *shape)
        try:
            res = maximize_over_channels(HermitianOperator(scale * m.mat, shape), tol=1e-6)
        except SolverError as err:
            if err.value is not None:
                assert err.value <= err.dual_value
        else:
            assert 0.0 <= res.gap <= 1e-6

    # the solve makes 13 inversions and certifies its first stage after the 3rd
    @pytest.mark.parametrize("fail_at,certified", [(1, False), (12, True)])
    def test_failed_inverse_carries_best_pair(self, fail_at, certified, monkeypatch):
        m = random_psd(np.random.default_rng(15), 2, 3)
        inv = np.linalg.inv
        calls = []

        def failing(mat):
            calls.append(1)
            if len(calls) == fail_at:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(mat)

        monkeypatch.setattr(np.linalg, "inv", failing)
        with pytest.raises(SolverError, match="Singular matrix") as exc_info:
            maximize_over_channels(m, tol=1e-9)
        err = exc_info.value
        if not certified:
            assert err.value is None and err.dual_value is None and err.optimizer is None
        else:
            assert err.value <= err.dual_value
            assert np.trace(m.mat @ err.optimizer.choi.mat).real == pytest.approx(err.value)


class TestNewtonSystem:
    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_hessian_matches_gradient_difference(self, d_in, d_out):
        # hess @ vec(D) is the directional derivative of the gradient along D
        rng = np.random.default_rng(20 + 10 * d_in + d_out)
        a = random_hermitian(rng, d_in, d_out).mat
        lift = _lift_index(d_in, d_out)
        e = random_hermitian(rng, d_in, 1).mat
        y = (np.linalg.norm(a, 2) + np.linalg.norm(e, 2) + 0.5) * np.eye(d_in) + e
        mu = 0.3

        def system(y):
            return _newton_system(np.linalg.inv(_slack(y, a, lift)), mu, d_in, d_out)

        grad, hess = system(y)
        assert np.allclose(grad, grad.conj().T, atol=1e-12)
        for _ in range(3):
            delta = random_hermitian(rng, d_in, 1).mat
            h = 1e-5
            diff = (system(y + h * delta)[0] - system(y - h * delta)[0]) / (2 * h)
            predicted = (hess @ delta.reshape(-1)).reshape(d_in, d_in)
            assert np.max(np.abs(predicted - diff)) <= 1e-7 * np.max(np.abs(diff))

    def test_slack_matches_kron(self):
        rng = np.random.default_rng(21)
        for d_in, d_out in [(1, 3), (3, 1), (2, 3), (4, 2)]:
            a = random_hermitian(rng, d_in, d_out).mat
            y = random_hermitian(rng, d_in, 1).mat
            expected = np.kron(y, np.eye(d_out)) - a
            assert np.array_equal(_slack(y, a, _lift_index(d_in, d_out)), expected)


ASYMMETRIC_SHAPES = [(3, 2), (2, 4), (4, 3), (3, 5)]


class TestAsymmetricShapes:
    @pytest.mark.parametrize("d_in,d_out", ASYMMETRIC_SHAPES)
    @pytest.mark.parametrize("kind", ["psd", "indefinite"])
    def test_certified_bracket(self, d_in, d_out, kind):
        tol = 1e-7
        rng = np.random.default_rng(100 + 10 * d_in + d_out + (kind == "psd"))
        m = (random_psd if kind == "psd" else random_hermitian)(rng, d_in, d_out)
        res = maximize_over_channels(m, tol=tol)
        assert 0.0 <= res.gap <= tol
        assert dual_bound(m, res.dual_certificate).feasible
        s = np.kron(res.dual_certificate.mat, np.eye(d_out)) - m.mat
        assert abs(np.trace(s @ res.optimizer.choi.mat).real) <= 10 * tol
        floor, _ = random_channel_lower_bound(m, 500, seed=d_in * d_out)
        assert floor <= res.dual_value + 1e-8

    @pytest.mark.parametrize("d_in,d_out", [(3, 2), (2, 3)])
    def test_local_unitary_invariance(self, d_in, d_out):
        # J -> (U (x) V) J (U (x) V)^dag maps channels onto channels, so the
        # optimum of the rotated objective is the same
        tol = 1e-7
        rng = np.random.default_rng(200 + 10 * d_in + d_out)
        for kind in (random_psd, random_hermitian):
            m = kind(rng, d_in, d_out)
            w = np.kron(haar_unitary(d_in, rng), haar_unitary(d_out, rng))
            rotated = HermitianOperator(w @ m.mat @ w.conj().T, (d_in, d_out))
            base = maximize_over_channels(m, tol=tol)
            res = maximize_over_channels(rotated, tol=tol)
            assert abs(res.value - base.value) <= 2 * tol


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
