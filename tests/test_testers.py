"""Tests for test/tester construction, channels and the generalized Born rule."""

import dataclasses
import json

import numpy as np
import pytest

from testerbounds.cli import GEN_KINDS, _build_scenario
from testerbounds.linalg import (
    PSD_ATOL,
    DimensionError,
    HermitianOperator,
    Ket,
    PositivityError,
    ValidationError,
    basis_transpose,
    dumps_canonical,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    partial_trace,
)
from testerbounds.sampling import (
    ginibre_state,
    haar_isometries,
    haar_unitary,
    random_channel,
    random_ket,
    random_mixed_marginal_test,
    random_povm,
    random_scenario,
    random_test,
)
from testerbounds.testers import (
    Channel,
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
    tester_from_test,
    upsilon_dual_apply,
)

from oracles import eigen_decomposition, kraus_dual_apply

PAULI_Y = np.array([[0, -1j], [1j, 0]])
# (d_in, d_out) of a channel file of each kind the reader takes
FILE_DIMS = {"unitary": (3, 3), "kraus": (2, 3), "constant": (3, 2), "choi": (2, 2)}


def channel_payload(kind, d_in, d_out, rng):
    """A channel file of ``kind`` acting d_in -> d_out, its data written out
    literally (a unitary needs d_in = d_out, a Kraus list has two operators),
    and the channel its constructor builds from the same data."""
    if kind == "unitary":
        data = haar_unitary(d_in, rng)
        ch = channel_from_unitary(data)
    elif kind == "kraus":
        data = haar_isometries(rng, 1, 2 * d_out, d_in)[0].reshape(2, d_out, d_in)
        ch = channel_from_kraus(data)
    elif kind == "constant":
        sigma = ginibre_state(d_out, rng)
        data, ch = sigma.mat, channel_constant(sigma, d_in)
    else:
        ch = random_channel(d_in, d_out, rng)
        data = ch.choi.mat
    return {"kind": kind, "d_in": d_in, "d_out": d_out, "data": data}, ch


def kron_dual_reference(rho, b):
    """sum_n w_n (K_n (x) I)^dag b (K_n (x) I), spelled out with kron."""
    d_anc, d_in = rho.dims
    eye = np.eye(b.size // d_anc)
    out = np.zeros((d_in * eye.shape[0],) * 2, dtype=complex)
    for w, psi in eigen_decomposition(rho):
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
        pairs = eigen_decomposition(rho)
        k = len(pairs) + 2
        g = rng.standard_normal((k, len(pairs))) + 1j * rng.standard_normal((k, len(pairs)))
        q, _ = np.linalg.qr(g)
        mixed = []
        for row in range(k):
            phi = sum(q[row, m] * np.sqrt(w) * v for m, (w, v) in enumerate(pairs))
            norm = np.linalg.norm(phi)
            if norm > 1e-12:
                mixed.append((norm**2, phi / norm))
        alt = kraus_dual_apply(rho, b, mixed)
        assert np.max(np.abs(default.mat - alt)) < 1e-10

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


class TestLinkProduct:
    """``upsilon_dual_apply`` is a link product; the Kraus sum over the state's
    eigendecomposition is its oracle, within 1e-15 max(1, max|b|)."""

    @staticmethod
    def assert_matches_kraus_sum(rho, b):
        out = upsilon_dual_apply(rho, b)
        want = kraus_dual_apply(rho, b, eigen_decomposition(rho))
        assert out.dims == (rho.dims[1], *b.dims[1:])
        assert np.max(np.abs(out.mat - want)) <= 1e-15 * max(1.0, np.max(np.abs(b.mat)))

    @pytest.mark.parametrize("kind,d", [(kind, d) for kind in GEN_KINDS for d in (2, 3, 4, 5)
                                        if kind != "mub-meb-2qubit" or d == 2])
    def test_gen_kinds(self, kind, d):
        for test in _build_scenario(kind, d).tests:
            for _, effect in test.povm:
                self.assert_matches_kraus_sum(test.input_state, effect)

    @pytest.mark.parametrize("d_anc,d_in,d_out", [(2, 3, 2), (3, 2, 3), (4, 2, 1), (1, 3, 2),
                                                  (1, 1, 4), (3, 1, 2)])
    def test_random_tests(self, d_anc, d_in, d_out):
        rng = np.random.default_rng(40 + 7 * d_anc + d_in)
        for _ in range(3):
            test = random_test(d_anc, d_in, d_out, 3, rng)
            for _, effect in test.povm:
                self.assert_matches_kraus_sum(test.input_state, effect)

    @pytest.mark.parametrize("dims", [(3,), (3, 2, 2), (3, 1, 2)])
    def test_rest_factors(self, dims):
        # b with the ancilla factor only, and with two rest factors, at a
        # scale well above 1
        rng = np.random.default_rng(len(dims))
        rho = ginibre_state(6, rng, dims=(3, 2))
        size = int(np.prod(dims))
        b = HermitianOperator(ginibre_state(size, rng).mat * 40.0, dims)
        self.assert_matches_kraus_sum(rho, b)


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

    def test_labels_built_once_outside_equality(self):
        rng = np.random.default_rng(8)
        effects = [e.mat for e in random_povm(3, 3, rng)]
        test = state_measurement_test(effects)
        assert test.labels == ("m0", "m1", "m2") and test.labels is test.labels
        assert "labels" not in {f.name for f in dataclasses.fields(Test)}
        assert test == Test(test.input_state, test.povm, d_anc=1, d_in=1, d_out=3)
        assert "labels" not in repr(test)
        tester = tester_from_test(test)
        assert [tester.element(label) for label in test.labels] == \
            [op for _, op in tester.elements]
        with pytest.raises(KeyError):
            tester.element("m3")

    def test_tester_type_rejects_bad_sum(self):
        eye = HermitianOperator(np.eye(4) / 3, (2, 2))
        marginal = HermitianOperator(np.eye(2) / 2, (2,))
        with pytest.raises(ValidationError):
            Tester([("a", eye)], marginal)


def _op(diag, dims):
    return HermitianOperator(np.diag(np.asarray(diag, dtype=float)), dims)


# each constructor call breaks one invariant; a positivity failure must raise
# PositivityError, anything else a plain ValidationError
INVALID_INPUTS = {
    "test-state-trace": (ValidationError, "unit trace", lambda: Test(
        _op([2.0], (1, 1)), [("a", _op([1, 1], (1, 2)))], d_anc=1, d_in=1, d_out=2)),
    "test-state-negative": (PositivityError, "input state", lambda: Test(
        _op([1.5, -0.5], (1, 2)), [("a", _op([1, 1], (1, 2)))], d_anc=1, d_in=2, d_out=2)),
    "test-effect-negative": (PositivityError, "POVM effect 1", lambda: Test(
        _op([1.0], (1, 1)), [("a", _op([1.5, 0], (1, 2))), ("b", _op([-0.5, 1], (1, 2)))],
        d_anc=1, d_in=1, d_out=2)),
    "test-povm-incomplete": (ValidationError, "completeness", lambda: Test(
        _op([1.0], (1, 1)), [("a", _op([0.5, 0.5], (1, 2)))], d_anc=1, d_in=1, d_out=2)),
    "tester-element-negative": (PositivityError, "element 'b'", lambda: Tester(
        [("a", _op([1.5, 0.5], (1, 2))), ("b", _op([-0.5, 0.5], (1, 2)))], _op([1.0], (1,)))),
    "tester-marginal-trace": (ValidationError, "transposed marginal", lambda: Tester(
        [("a", _op([2, 2], (1, 2)))], _op([2.0], (1,)))),
    "choi-negative": (PositivityError, "Choi matrix", lambda: channel_from_choi(
        _op([1.5, -0.5, 0.5, 0.5], (2, 2)))),  # tr_out J = I, but J is not positive
    "constant-trace": (ValidationError, "target state", lambda: channel_constant(
        _op([1.0, 1.0], (2,)), d_in=2)),
    "constant-negative": (PositivityError, "target state", lambda: channel_constant(
        _op([1.5, -0.5], (2,)), d_in=2)),
}


@pytest.mark.parametrize("case", list(INVALID_INPUTS))
def test_invalid_input_raises_its_class(case):
    cls, words, build = INVALID_INPUTS[case]
    with pytest.raises(cls, match=words) as exc_info:
        build()
    if cls is ValidationError:
        assert not isinstance(exc_info.value, PositivityError)


def _min_eigenvalue_message(what: str, op: HermitianOperator) -> str:
    return (f"{what} is not positive semidefinite "
            f"(min eigenvalue {np.linalg.eigvalsh(op.mat)[0]:.3e})")


def _tester_elements(low: float, member: int):
    """Four elements T_k = q_k q_k^dag / 2 of a random basis q of C^2 (x) C^2, summing to
    (I / 2) (x) I, with ``low`` moved from the last element into ``member``'s along q_3."""
    rng = np.random.default_rng(member)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mats = [np.outer(q[:, k], q[:, k].conj()) / 2 for k in range(4)]
    mats[member] = mats[member] + low * 2 * mats[3]
    mats[3] = (1 - 2 * low) * mats[3]
    return [(label, HermitianOperator(m, (2, 2))) for label, m in zip("abcd", mats)]


@pytest.mark.parametrize("member", [0, 1])
def test_tester_positivity_names_the_element(member):
    # one Cholesky accepts the family; a rejection is decided and worded by the
    # smallest eigenvalue of the element it names
    marginal = HermitianOperator(np.eye(2) / 2, (2,))
    elements = _tester_elements(-2 * PSD_ATOL, member)
    with pytest.raises(PositivityError) as exc_info:
        Tester(elements, marginal)
    label, op = elements[member]
    assert str(exc_info.value) == _min_eigenvalue_message(f"element {label!r}", op)
    Tester(_tester_elements(-0.5 * PSD_ATOL, member), marginal)


@pytest.mark.parametrize("negative,misshaped,error", [
    (0, 1, PositivityError), (1, 0, DimensionError)])
def test_tester_checks_elements_in_order(negative, misshaped, error):
    # an element of other dims falls back to the per-element checks, first failure first
    marginal = HermitianOperator(np.eye(2) / 2, (2,))
    elements = _tester_elements(-2 * PSD_ATOL, negative)
    label, op = elements[misshaped]
    elements[misshaped] = (label, HermitianOperator(op.mat, (4, 1)))
    with pytest.raises(error, match=f"element {'abcd'[min(negative, misshaped)]!r}"):
        Tester(elements, marginal)


@pytest.mark.parametrize("low", [-2 * PSD_ATOL, -0.5 * PSD_ATOL])
def test_choi_positivity(low):
    # I (x) I / 2 + t X (x) Z has eigenvalues 1/2 +- t and tr_out = I for every t
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    choi = HermitianOperator(np.eye(4) / 2 + (0.5 - low) * np.kron(x, z), (2, 2))
    if low < -PSD_ATOL:
        with pytest.raises(PositivityError) as exc_info:
            Channel(choi)
        assert str(exc_info.value) == _min_eigenvalue_message("Choi matrix", choi)
    else:
        Channel(choi)


class TestChannels:
    def test_identity_unitary(self):
        ch = channel_from_unitary(np.eye(2))
        expected = 2 * maximally_entangled_state(2).mat
        assert np.max(np.abs(ch.choi.mat - expected)) < 1e-12

    def test_constant_channel(self):
        rng = np.random.default_rng(8)
        sigma = ginibre_state(3, rng)
        ch = channel_constant(sigma, d_in=2)
        assert np.max(np.abs(ch.choi.mat - np.kron(np.eye(2), sigma.mat))) < 1e-12

    def test_kraus_choi_matches_direct_application(self):
        # oracle: apply I (x) channel to the unnormalized entangled state by
        # the explicit Kraus sum
        rng = np.random.default_rng(9)
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        ks = [u1 * np.sqrt(0.3), u2 * np.sqrt(0.7)]
        ch = channel_from_kraus(ks)
        p_plus = 2 * maximally_entangled_state(2).mat
        expected = sum(np.kron(np.eye(2), k) @ p_plus @ np.kron(np.eye(2), k).conj().T
                       for k in ks)
        assert np.max(np.abs(ch.choi.mat - expected)) < 1e-12
        marg = partial_trace(ch.choi, keep=[0])
        assert np.max(np.abs(marg.mat - np.eye(2))) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_unitary(np.diag([1.0, 0.5]))

    def test_nan_unitary_rejected_by_its_own_check(self):
        with pytest.raises(ValidationError, match="not unitary"):
            channel_from_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))

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

    @pytest.mark.parametrize("weights", [("0.5", "0.5"), (True, False), (None, 1.0),
                                         (np.bool_(True), 0.0)],
                             ids=["str", "bool", "none", "numpy-bool"])
    def test_non_number_weight_rejected(self, weights):
        rng = np.random.default_rng(16)
        tests = [random_test(1, 2, 2, 2, rng, prefix=p) for p in ("x1", "x2")]
        with pytest.raises(ValidationError, match="weights must be numbers"):
            Scenario(tests, weights)

    @pytest.mark.parametrize("weights", [(1, 0), (np.int64(0), np.int32(1)), (0.25, 0.75),
                                         (np.float32(0.5), np.float64(0.5)),
                                         np.random.default_rng(3).dirichlet(np.ones(2))],
                             ids=["int", "numpy-int", "float", "numpy-float", "dirichlet"])
    def test_number_weights_accepted(self, weights):
        rng = np.random.default_rng(16)
        tests = [random_test(1, 2, 2, 2, rng, prefix=p) for p in ("x1", "x2")]
        assert Scenario(tests, weights).weights == tuple(float(w) for w in weights)

    @pytest.mark.parametrize("weights", [(np.nan, 0.5), (0.5, np.nan)])
    def test_nan_weight_rejected(self, weights):
        rng = np.random.default_rng(16)
        tests = [random_test(1, 2, 2, 2, rng, prefix=p) for p in ("x1", "x2")]
        with pytest.raises(ValidationError, match=r"weights must be finite.*nan"):
            Scenario(tests, weights)

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
    @pytest.mark.parametrize("declared", [(3, 5), (2, 3), (3, 2)])
    def test_channel_declared_dims_enforced(self, kind, declared):
        # every file below acts 2 -> 2 and a file declaring other dims is rejected,
        # except that a constant channel takes its d_in from the file
        obj, _ = channel_payload(kind, 2, 2, np.random.default_rng(22))
        assert channel_from_json(obj).choi.dims == (2, 2)
        obj["d_in"], obj["d_out"] = declared
        if kind == "constant" and declared[1] == 2:
            assert channel_from_json(obj).choi.dims == declared
            return
        with pytest.raises(DimensionError):
            channel_from_json(obj)

    @pytest.mark.parametrize("d_in", [2.0, True, "2"])
    def test_channel_declared_dims_must_be_integers(self, d_in):
        obj = channel_to_json(channel_from_unitary(np.eye(2)))
        obj["d_in"] = d_in
        with pytest.raises(DimensionError):
            channel_from_json(obj)

    @pytest.mark.parametrize("kind", list(FILE_DIMS))
    def test_channel_round_trip(self, kind):
        # each kind's file loads to the channel its constructor builds, and
        # that channel is written as its Choi file, which loads back to it
        d_in, d_out = FILE_DIMS[kind]
        obj, ch = channel_payload(kind, d_in, d_out, np.random.default_rng(21))
        back = channel_from_json(obj)
        assert np.array_equal(back.choi.mat, ch.choi.mat)
        written = channel_to_json(back)
        assert (written["kind"], written["d_in"], written["d_out"]) == ("choi", d_in, d_out)
        assert np.array_equal(channel_from_json(written).choi.mat, back.choi.mat)

    @pytest.mark.parametrize("kind", list(FILE_DIMS))
    def test_channel_round_trip_through_text(self, kind):
        # each kind's data is written as [re, im] lists and read back to the same
        # channel, and that channel's Choi file is read back to the same bytes
        obj, ch = channel_payload(kind, *FILE_DIMS[kind], np.random.default_rng(24))
        back = channel_from_json(json.loads(dumps_canonical(obj)))
        assert np.array_equal(back.choi.mat, ch.choi.mat)
        text = dumps_canonical(channel_to_json(back))
        assert dumps_canonical(channel_to_json(channel_from_json(json.loads(text)))) == text

    @pytest.mark.parametrize("kind", ["unitary", "kraus"])
    def test_channel_data_of_wrong_ndim_rejected(self, kind):
        obj, _ = channel_payload("kraus", 2, 2, np.random.default_rng(25))
        obj["kind"] = kind  # a unitary given a stack, or a Kraus list given one matrix
        if kind == "kraus":
            obj["data"] = obj["data"][0]
        with pytest.raises(ValidationError, match="expected 2-D"):
            channel_from_json(obj)

    def test_channel_is_its_choi_matrix(self):
        # a channel keeps no record of how it was built: a unitary channel and
        # the channel of its Choi matrix are equal and write the same file
        ch = channel_from_unitary(haar_unitary(3, np.random.default_rng(26)))
        same = channel_from_choi(ch.choi)
        assert same == ch
        assert dumps_canonical(channel_to_json(same)) == dumps_canonical(channel_to_json(ch))
