"""Tests for the certified channel optimizer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testerbounds import bounds, channel_opt
from testerbounds.channel_opt import (
    DUAL_FEAS_ATOL,
    SolverError,
    _index,
    _schur,
    _slack,
    maximize_over_channels,
)
from testerbounds.linalg import (
    ROUNDING_ATOL,
    HermitianOperator,
    Ket,
    _conjugated,
    maximally_entangled_ket,
    operator_norm,
    partial_trace,
    shift_clock,
)
from testerbounds.sampling import haar_unitary, random_scenario
from testerbounds.scenarios import meb_scenario, mub_meb_pair_2qubit

from oracles import random_channel_lower_bound, two_product_schur


def random_psd(rng, d_in, d_out, scale=1.0):
    n = d_in * d_out
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return HermitianOperator(scale * mat / np.trace(mat).real, (d_in, d_out))


def random_hermitian(rng, d_in, d_out):
    n = d_in * d_out
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((g + g.conj().T) / 2, (d_in, d_out))


def dual_min_eig(m, y):
    """Smallest eigenvalue of Y (x) I_out - M, from an explicit Kronecker product."""
    return float(np.linalg.eigvalsh(np.kron(y.mat, np.eye(m.dims[1])) - m.mat)[0])


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
        # every step stops at 0.95 of the way to the boundary, so the gap of
        # the zero objective shrinks about twentyfold per iteration and 1e-300
        # is out of the iteration cap's reach; the gap never gets below tol / 2,
        # so the only repair is that of the last iterate, counted at the dual
        m = HermitianOperator(np.zeros((4, 4)), (2, 2))
        repair = channel_opt._repair_dual
        repairs = []

        def counting(*args):
            repairs.append(1)
            return repair(*args)

        monkeypatch.setattr(channel_opt, "_repair_dual", counting)
        with pytest.raises(SolverError, match="not certified in 100 iterations") as exc_info:
            maximize_over_channels(m, tol=1e-300)
        err = exc_info.value
        assert 0.0 == err.value < err.dual_value < 1e-100
        assert err.optimizer.choi.dims == (2, 2)
        assert np.trace(m.mat @ err.optimizer.choi.mat).real == pytest.approx(err.value)
        assert len(repairs) == 1

    def test_gap_is_the_difference_of_the_ends(self):
        # on each path, bit for bit: the result derives its gap
        rng = np.random.default_rng(2)
        m = random_psd(rng, 2, 2)
        source = maximize_over_channels(m, tol=1e-6)
        for res in (source, maximize_over_channels(random_rank(rng, 2, 3, 1), tol=1e-6),
                    maximize_over_channels(m, tol=1e-6,
                                           start=(source, m.mat, identity(4), identity(2)))):
            assert res.gap == res.dual_value - res.value

    def test_inverted_result_is_refused(self):
        # one ulp of inversion is no certified bracket, whatever its size
        res = maximize_over_channels(random_psd(np.random.default_rng(2), 2, 2), tol=1e-6)
        above = np.nextafter(res.dual_value, np.inf)
        with pytest.raises(SolverError) as exc_info:
            dataclasses.replace(res, value=above)
        err = exc_info.value
        assert (err.value, err.dual_value, err.optimizer) == (above, res.dual_value, res.optimizer)

    def test_rejects_bad_inputs(self):
        with pytest.raises(Exception):
            maximize_over_channels(HermitianOperator(np.eye(2), (2,)))
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                maximize_over_channels(HermitianOperator(np.eye(4), (2, 2)), tol=tol)


class TestDampedStep:
    """Steps to 0.95 of the boundary keep every iterate strictly inside the cone."""

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_every_slack_is_positive_definite(self, d_in, d_out, monkeypatch):
        slack = channel_opt._slack
        slacks, indefinite = [], []

        def checked(y, a, lift, out=None):
            s = slack(y, a, lift, out)
            slacks.append(s)
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
        # the interior point itself: at d_in = 1 the solver takes the closed
        # form, whose dual lies on the boundary of the cone
        for m, tol in cases:
            slacks.clear()
            res = channel_opt._interior_point(m, tol, np.linalg.eigvalsh(m.mat))
            assert 0.0 <= res.gap <= tol
            # the slack of each of the iterations + 1 iterates reached the wrapper
            assert len(slacks) >= res.iterations + 1
        assert not indefinite

    # a refined Schur solve keeps the primal feasible enough that both certify;
    # the dual barrier path failed both, at gaps 8.4e-6 and 8.6e-12
    @pytest.mark.parametrize("scale,tol", [(1e6, 1e-6), (1.0, 1e-12)])
    def test_scaled_objective_certifies(self, scale, tol):
        m = random_psd(np.random.default_rng(0), 3, 3, scale=scale)
        res = maximize_over_channels(m, tol=tol)
        assert 0.0 <= res.gap <= tol
        assert res.iterations <= 20

    @pytest.mark.parametrize("d_in,d_out", [(3, 3), (2, 3)])
    def test_tiny_objectives_at_tight_tolerance(self, d_in, d_out):
        for seed in range(12):
            m = random_psd(np.random.default_rng(seed), d_in, d_out, scale=1e-6)
            res = maximize_over_channels(m, tol=1e-12)
            assert 0.0 <= res.gap <= 1e-12

    # iteration counts do not depend on the machine, so the budgets are exact guards
    @pytest.mark.parametrize("scenario,solves,budget", [
        (lambda: meb_scenario(*mub_meb_pair_2qubit()), 24, 24),
        (lambda: random_scenario(np.random.default_rng(0), n_tests=2, d_anc=3, d_in=3,
                                 d_out=3, n_outcomes=3), 15, 120),
    ], ids=["mub-meb-2qubit", "random-3x3"])
    def test_step_budget_on_paper_scenario(self, scenario, solves, budget, monkeypatch):
        solve = bounds.maximize_over_channels
        steps = []

        def recording(m, tol, start=None):
            res = solve(m, tol=tol, start=start)
            steps.append(res.iterations)
            return res

        monkeypatch.setattr(bounds, "maximize_over_channels", recording)
        bounds.scenario_report(scenario(), tol=1e-6)
        assert len(steps) == solves
        assert sum(steps) <= budget


def identity(n):
    """The identity of size n as a monomial (index, phase)."""
    return np.arange(n), np.ones(n)


def shift_clock_start(res, m, d_in, d_out, c):
    """The start of the image of ``m`` under shift-clock candidate c, made as
    the report walk makes it: (res, M, W, U), W and U the monomials read off
    by ``bounds._monomials``, by which the solver moves M and res; and that
    image, W M W^dag from the dense W."""
    u = shift_clock(d_in)[c // d_out ** 2]
    w = np.kron(u, shift_clock(d_out)[c % d_out ** 2])
    w_mono, u_mono = ((index[0], phase[0]) for index, phase in
                      (bounds._monomials(w[None]), bounds._monomials(u[None])))
    return (res, m.mat, w_mono, u_mono), w @ m.mat @ w.conj().T


class TestStart:
    """A start is a result certified for another objective: it certifies an
    objective within the guard by a perturbation bound, before any Newton step
    and with no eigendecomposition, or it is no start."""

    # each shape meets random candidates W = U (x) V, the identity included,
    # and the image is perturbed by up to 1e-13 per entry, so that eps stays
    # within the guard
    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16), size=st.floats(0.0, 1e-13))
    def test_transported_start_certifies(self, d_in, d_out, seed, pick, size):
        rng = np.random.default_rng(seed)
        m = random_psd(rng, d_in, d_out)
        source = maximize_over_channels(m, tol=1e-6)
        start, image = shift_clock_start(source, m, d_in, d_out, pick % (d_in * d_out) ** 2)
        noise = random_hermitian(rng, d_in, d_out).mat
        image = HermitianOperator(image + size * noise / np.abs(noise).max(), (d_in, d_out))
        res = maximize_over_channels(image, tol=1e-6, start=start)
        eps = image.size * np.abs(image.mat - _conjugated(start[1], start[2])).max()
        assert res.path == "start" and res.iterations == 0 and len(res.history) == 1
        assert eps <= ROUNDING_ATOL
        assert np.trace(image.mat @ res.optimizer.choi.mat).real == \
            pytest.approx(res.value, abs=1e-14)
        assert res.dual_value - source.dual_value == \
            pytest.approx(d_in * eps, abs=2 * np.spacing(max(1.0, source.dual_value)))
        # the widened certificate is feasible for the image itself, and has
        # the bits of the moved certificate, validated, widened by eps
        moved = HermitianOperator(_conjugated(source.dual_certificate.mat, start[3]), (d_in,))
        assert np.array_equal(res.dual_certificate.mat, moved.mat + eps * np.eye(d_in))
        assert dual_min_eig(image, res.dual_certificate) >= source.dual_min_eig - 1e-14
        # two certified brackets of one optimum overlap
        direct = maximize_over_channels(image, tol=1e-6)
        assert res.value <= direct.dual_value and direct.value <= res.dual_value

    @staticmethod
    def wrong_image(m, source):
        """The result of another objective, moved by a shift-clock W: its
        objective is farther than the guard from the image's."""
        other = random_psd(np.random.default_rng(7), 2, 2)
        start, _ = shift_clock_start(maximize_over_channels(other, tol=1e-6), other, 2, 2, 15)
        _, image = shift_clock_start(source, m, 2, 2, 15)
        return HermitianOperator(image, (2, 2)), 1e-6, start

    @staticmethod
    def past_guard(m, source):
        """The exact image, and the start's source objective moved by 5e-13
        per diagonal entry: eps = 2e-12."""
        (res, objective, w, u), image = shift_clock_start(source, m, 2, 2, 5)
        return HermitianOperator(image, (2, 2)), 1e-6, (res, objective + 5e-13 * np.eye(4), w, u)

    @staticmethod
    def wide_gap(m, source):
        """A source whose widened gap exceeds the image's tolerance."""
        start, image = shift_clock_start(source, m, 2, 2, 5)
        assert source.gap > 0
        return HermitianOperator(image, (2, 2)), source.gap / 2, start

    @staticmethod
    def inverted(m, source):
        """A start on its own objective whose dual value lies 1e-13 below
        tr[M J]: eps is 0, and the pair it proposes is inverted."""
        value = float(np.vdot(source.optimizer.choi.mat, m.mat).real)
        start = dataclasses.replace(source, value=value - 1e-12, dual_value=value - 1e-13)
        return m, 1e-6, (start, m.mat, identity(4), identity(2))

    @staticmethod
    def shape_mismatch(m, source):
        """The objective as one of shape (1, 4): eps is 0, but the channels differ."""
        start, _ = shift_clock_start(source, m, 2, 2, 0)
        return HermitianOperator(m.mat, (1, 4)), 1e-6, start

    @staticmethod
    def long_w(m, source):
        """The identity start with a W of size 5 for an objective of size 4."""
        return m, 1e-6, (source, m.mat, identity(5), identity(2))

    @staticmethod
    def short_u(m, source):
        """The identity start with a U of size 1 for d_in = 2."""
        return m, 1e-6, (source, m.mat, identity(4), identity(1))

    @pytest.mark.parametrize("case", [wrong_image, past_guard, wide_gap, shape_mismatch, inverted,
                                      long_w, short_u],
                             ids=["wrong-image", "past-guard", "wide-gap", "shape-mismatch",
                                  "inverted", "long-w", "short-u"])
    def test_uncertified_start_is_no_start(self, case):
        # a start that does not certify leaves no trace: the solve is the
        # start=None solve, bracket, iterations, history and path alike
        m = random_psd(np.random.default_rng(2), 2, 2)
        image, tol, start = case(m, maximize_over_channels(m, tol=1e-6))
        direct = maximize_over_channels(image, tol=tol)
        res = maximize_over_channels(image, tol=tol, start=start)
        assert res.path != "start" and same_solve(res, direct)

    def test_identity_start_certifies_unwidened(self):
        # the start on its own objective: eps is 0, so the result keeps the
        # source's channel and its dual, unwidened
        m = random_psd(np.random.default_rng(3), 2, 3)
        source = maximize_over_channels(m, tol=1e-6)
        res = maximize_over_channels(m, tol=1e-6, start=(source, m.mat, identity(6), identity(2)))
        assert res.path == "start" and res.iterations == 0
        assert res.dual_value == source.dual_value
        assert np.array_equal(res.dual_certificate.mat, source.dual_certificate.mat)
        assert np.array_equal(res.optimizer.choi.mat, source.optimizer.choi.mat)
        assert res.value == float(np.vdot(source.optimizer.choi.mat, m.mat).real)


class TestNumericalFailure:
    """A linear-algebra failure inside the solver surfaces as SolverError."""

    def test_non_channel_primal_is_never_reported(self):
        # the iterates of this objective reach a nearly singular input marginal,
        # and rounding leaves their repaired primal outside the channels
        rng = np.random.default_rng(21)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = g @ g.conj().T
        a = a / np.trace(a).real * 1e8
        m = HermitianOperator((a + a.conj().T) / 2, (3, 2))
        with pytest.raises(SolverError) as exc_info:
            maximize_over_channels(m, tol=1e-6)
        err = exc_info.value
        assert err.dual_value is not None
        assert (err.optimizer is None) == (err.value is None)

    def test_inverted_bracket_raises(self):
        # the indefinite objective of tools/stress_grid.py for seed 29 at
        # (1, 3), scaled by 1e8: the interior point's best pair ends with
        # value two ulps, 6e-8, above dual_value, which no result may carry
        rng = np.random.default_rng([29, 1, 3, 1])
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = HermitianOperator(1e8 * ((g + g.conj().T) / 2), (1, 3))
        with pytest.raises(SolverError) as exc_info:
            maximize_over_channels(m, tol=1e-6)
        err = exc_info.value
        assert err.value is not None and err.dual_value is not None
        assert np.trace(m.mat @ err.optimizer.choi.mat).real == pytest.approx(err.value)

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

    # each of the solve's 8 iterations inverts the stacked Cholesky factors of
    # (J, S), then the Schur matrix; call 12 is the 6th iteration's Schur matrix
    @pytest.mark.parametrize("fail_at,past_start", [(1, False), (12, True)])
    def test_failed_inverse_carries_best_pair(self, fail_at, past_start, monkeypatch):
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
        assert err.value <= err.dual_value
        assert np.trace(m.mat @ err.optimizer.choi.mat).real == pytest.approx(err.value)
        # the start J = I / d_out is a channel, so its repair keeps tr[M] / d_out
        start_value = np.trace(m.mat).real / 3
        if past_start:
            assert err.value > start_value and err.dual_value - err.value < 1e-5
        else:
            assert err.value == pytest.approx(start_value, abs=1e-15)


def random_rank(rng, d_in, d_out, rank, scale=1.0):
    """scale G G^dag for a complex Gaussian G of size n x rank."""
    g = rng.standard_normal((d_in * d_out, rank)) + 1j * rng.standard_normal((d_in * d_out, rank))
    h = g @ g.conj().T
    return HermitianOperator(scale * (h + h.conj().T) / 2, (d_in, d_out))


def interior_point(m, tol):
    """The interior point on its own: the closed form's oracle."""
    return channel_opt._interior_point(m, tol, np.linalg.eigvalsh(m.mat))


def same_solve(res, other):
    return (res.value, res.dual_value, res.iterations, res.history, res.path) == \
        (other.value, other.dual_value, other.iterations, other.history, other.path)


class TestClosedForm:
    """Rank-one objectives with d_in <= d_out, and every objective at d_in = 1,
    certify in closed form with no iteration; the interior point run on its
    own is the oracle, and every other objective is solved by it alone."""

    @staticmethod
    def check(m, tol, path):
        res = maximize_over_channels(m, tol=tol)
        oracle = interior_point(m, tol)
        assert res.path == path
        assert res.value <= res.dual_value and 0.0 <= res.gap <= tol
        # two certified brackets of one optimum overlap, within the rounding of their ends
        assert max(res.value, oracle.value) <= \
            min(res.dual_value, oracle.dual_value) + ROUNDING_ATOL * max(1.0, oracle.dual_value)
        if path == "closed_form":
            assert res.iterations == 0 and len(res.history) == 1
        else:
            assert same_solve(res, oracle)
        return res

    # at scale 1e7 the closed-form dual, a product of SVD factors, is off
    # Hermitian by rounding relative to its entries, more than 1e-10 absolute
    @pytest.mark.parametrize("scale,tol", [(1.0, 1e-6), (1.0, 1e-9), (1e7, 1e-6 * 1e7)])
    @pytest.mark.parametrize("d_in,d_out", [(2, 3), (3, 3), (4, 2), (3, 1), (1, 4)])
    def test_rank_one_matches_interior_point(self, d_in, d_out, scale, tol):
        for seed in range(5):
            m = random_rank(np.random.default_rng(seed), d_in, d_out, 1, scale)
            res = self.check(m, tol, "closed_form" if d_in <= d_out else "interior_point")
            # the optimum is ||A||_1^2 for the element |t><t|, t reshaped to A
            w, v = np.linalg.eigh(m.mat)
            a = np.sqrt(w[-1]) * v[:, -1].reshape(d_in, d_out)
            norm = np.linalg.svd(a, compute_uv=False).sum() ** 2
            assert res.value - 1e-12 * norm <= norm <= res.dual_value + 1e-12 * norm

    @pytest.mark.parametrize("d_out", [1, 2, 4, 6])
    def test_state_measurement_matches_interior_point(self, d_out):
        rng = np.random.default_rng(d_out)
        for rank in range(1, d_out + 1):
            self.check(random_rank(rng, 1, d_out, rank), 1e-6, "closed_form")
        self.check(random_hermitian(rng, 1, d_out), 1e-6, "closed_form")

    def test_other_objectives_take_the_interior_point(self):
        # full rank, rank two, and the zero objective, which has no top eigenvector
        # to build a channel from
        rng = np.random.default_rng(8)
        for m in (random_psd(rng, 2, 3), random_hermitian(rng, 3, 2), random_rank(rng, 3, 3, 2),
                  HermitianOperator(np.zeros((4, 4)), (2, 2))):
            self.check(m, 1e-6, "interior_point")

    def test_uncertified_closed_form_leaves_no_trace(self, monkeypatch):
        # a rank-two objective taken for rank one: its closed-form dual is
        # repaired by about the second eigenvalue, past tol, and the interior
        # point that follows starts from a bracket of its own
        m = random_rank(np.random.default_rng(9), 2, 3, 1)
        m = HermitianOperator(m.mat + 0.1 * random_rank(np.random.default_rng(10), 2, 3, 1).mat,
                              m.dims)
        oracle = interior_point(m, 1e-6)
        repair = channel_opt._repair_primal
        repairs = []
        monkeypatch.setattr(channel_opt, "_repair_primal",
                            lambda *args: repairs.append(args) or repair(*args))
        monkeypatch.setattr(channel_opt, "RANK_ONE_RTOL", 1.0)
        res = maximize_over_channels(m, tol=1e-6)
        assert len(repairs) == len(oracle.history) + 1
        assert same_solve(res, oracle)

    def test_unknown_path_rejected(self):
        res = maximize_over_channels(random_rank(np.random.default_rng(12), 1, 3, 2), tol=1e-6)
        assert res.path in channel_opt.PATHS
        with pytest.raises(ValueError, match="unknown solve path"):
            dataclasses.replace(res, path="newton")

    def test_linear_algebra_failure_falls_back(self, monkeypatch):
        m = random_rank(np.random.default_rng(11), 2, 3, 1)
        oracle = interior_point(m, 1e-6)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        assert same_solve(maximize_over_channels(m, tol=1e-6), oracle)


class TestNewtonSystem:
    """The Schur matrix of the primal-dual Newton system."""

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_schur_matches_kron_formula(self, d_in, d_out):
        # _schur @ vec(D) is herm tr_out(J (D (x) I) S^-1) for any J, S > 0
        rng = np.random.default_rng(40 + 10 * d_in + d_out)
        j = random_psd(rng, d_in, d_out).mat + 0.1 * np.eye(d_in * d_out)
        sinv = np.linalg.inv(random_psd(rng, d_in, d_out).mat + 0.1 * np.eye(d_in * d_out))
        schur = _schur(np.array([j, sinv]), d_in, d_out)
        assert np.array_equal(schur, two_product_schur(j, sinv, d_in, d_out))
        for _ in range(3):
            delta = random_hermitian(rng, d_in, 1).mat
            full = (j @ np.kron(delta, np.eye(d_out)) @ sinv).reshape(d_in, d_out, d_in, d_out)
            out = np.trace(full, axis1=1, axis2=3)
            expected = (out + out.conj().T) / 2
            predicted = (schur @ delta.reshape(-1)).reshape(d_in, d_in)
            assert np.max(np.abs(predicted - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_batched_schur_equals_two_products(self, d_in, d_out):
        # one batched matmul of gathered factors does the arithmetic of two, so
        # every entry is the same; the pair is read through a view, as the
        # solver's (J, S^-1) is the tail of its (S, J, S^-1) buffer
        rng = np.random.default_rng(60 + 10 * d_in + d_out)
        j = random_psd(rng, d_in, d_out).mat + 0.1 * np.eye(d_in * d_out)
        sinv = np.linalg.inv(random_psd(rng, d_in, d_out).mat + 0.1 * np.eye(d_in * d_out))
        buf = np.array([np.zeros_like(j), j, sinv])
        assert np.array_equal(_schur(buf[1:], d_in, d_out),
                              two_product_schur(j, sinv, d_in, d_out))

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3)])
    def test_cached_index_arrays_are_read_only(self, d_in, d_out):
        # every solve of a shape shares its index arrays, so none may be written
        indices = _index(d_in, d_out)
        assert _index(d_in, d_out) is indices
        for index in indices:
            with pytest.raises(ValueError, match="read-only"):
                index[(0,) * index.ndim] = 0

    @pytest.mark.parametrize("d_in,d_out", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 3)])
    def test_hessian_matches_gradient_difference(self, d_in, d_out):
        # on the central path J = mu S^-1 the Schur matrix is the Hessian of the
        # dual barrier tr Y - mu log det S: its product with vec(D) is the
        # directional derivative of the gradient I - mu tr_out S^-1 along D
        rng = np.random.default_rng(20 + 10 * d_in + d_out)
        a = random_hermitian(rng, d_in, d_out).mat
        lift = _index(d_in, d_out)[0]
        e = random_hermitian(rng, d_in, 1).mat
        y = (np.linalg.norm(a, 2) + np.linalg.norm(e, 2) + 0.5) * np.eye(d_in) + e
        mu = 0.3

        def grad(y):
            sinv = np.linalg.inv(_slack(y, a, lift))
            return np.eye(d_in) - mu * np.einsum("iojo->ij",
                                                 sinv.reshape(d_in, d_out, d_in, d_out))

        sinv = np.linalg.inv(_slack(y, a, lift))
        hess = _schur(np.array([mu * sinv, sinv]), d_in, d_out)
        assert np.array_equal(hess, two_product_schur(mu * sinv, sinv, d_in, d_out))
        for _ in range(3):
            delta = random_hermitian(rng, d_in, 1).mat
            h = 1e-5
            diff = (grad(y + h * delta) - grad(y - h * delta)) / (2 * h)
            predicted = (hess @ delta.reshape(-1)).reshape(d_in, d_in)
            assert np.max(np.abs(predicted - diff)) <= 1e-7 * np.max(np.abs(diff))

    def test_slack_matches_kron(self):
        rng = np.random.default_rng(21)
        for d_in, d_out in [(1, 3), (3, 1), (2, 3), (4, 2)]:
            a = random_hermitian(rng, d_in, d_out).mat
            y = random_hermitian(rng, d_in, 1).mat
            expected = np.kron(y, np.eye(d_out)) - a
            assert np.array_equal(_slack(y, a, _index(d_in, d_out)[0]), expected)
            out = np.empty_like(a)
            assert _slack(y, a, _index(d_in, d_out)[0], out) is out
            assert np.array_equal(out, expected)


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
        assert dual_min_eig(m, res.dual_certificate) >= -DUAL_FEAS_ATOL
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
        assert dual_min_eig(m, y) >= -DUAL_FEAS_ATOL
        assert y.trace() == pytest.approx(2 * operator_norm(m))

    def test_solver_certificate_is_feasible(self):
        rng = np.random.default_rng(10)
        m = random_psd(rng, 2, 2)
        res = maximize_over_channels(m, tol=1e-8)
        y = res.dual_certificate
        assert dual_min_eig(m, y) >= -DUAL_FEAS_ATOL
        assert y.trace() == pytest.approx(res.dual_value, abs=1e-12)
        assert y.trace() >= res.value - 1e-10

    def test_zero_infeasible_for_nonzero_psd(self):
        rng = np.random.default_rng(11)
        m = random_psd(rng, 2, 2)
        assert dual_min_eig(m, HermitianOperator(np.zeros((2, 2)), (2,))) < -DUAL_FEAS_ATOL


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
