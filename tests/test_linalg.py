"""Tests for the dense multi-partite operator algebra."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testerbounds.linalg import (
    _entries_from_json,
    _entries_to_json,
    DimensionError,
    HermitianOperator,
    Ket,
    PositivityError,
    ValidationError,
    basis_transpose,
    check_povm,
    check_state,
    conjugate_ket,
    dumps_canonical,
    eig_hermitian,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    operator_from_json,
    operator_to_json,
    operator_norm,
    partial_trace,
)


def random_hermitian(rng, dims):
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((g + g.conj().T) / 2, dims)


def entries_oracle(arr):
    """The element-wise complex codec the vectorized one replaced."""
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in arr]


# JSON values for the writer's oracle: every scalar json.dumps accepts, text with
# non-ASCII, control and quote characters, and lists of [re, im] pairs beside
# near-misses that must take the generic path.
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u2028", "\U0001f600", ""])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 40), 10 ** 40)
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | _TEXT)
_PAIR = st.lists(_FINITE, min_size=2, max_size=2)
_NEAR_PAIR = (st.tuples(_FINITE, st.integers()).map(list)
              | st.tuples(st.booleans(), _FINITE).map(list)
              | st.tuples(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf])).map(list)
              | st.lists(_FINITE, min_size=3, max_size=3))
_PAIR_LISTS = st.lists(_PAIR, min_size=1) | st.lists(_PAIR | _NEAR_PAIR | _FINITE, min_size=1)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    _SCALARS | _PAIR_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20)

# explicit near-misses and depths; an indent off by one level fails each nested one
JSON_CASES = [
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[1.0, 2.0]], [[1.0, -0.0], [1e-300, 1e300]],
    {"data": [[[0.5, -0.25], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.25]]]},
    {"k": [{"data": [[[1.0, 2.0]]]}]}, [[1, 2.0]], [[1.0, True]], [[math.nan, 1.0]],
    [[1.0, math.inf]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], 3.0], [[1.0, 2.0], [1.0]],
    [(1.0, 2.0)], [[1e308, 1e308], [1e308, 1e308]], {1: None, 1.5: True, False: "\u00e9"},
    ("a", 10 ** 40, -0.0, math.nan, -math.inf),
]


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def kron_oracle(a, b):
    """Brute-force double loop; independent of np.kron."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def partial_trace_oracle(mat, dims, keep):
    """Explicit summation over the traced multi-indices."""
    keep = sorted(keep)
    kept_dims = [dims[i] for i in keep]
    size = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((size, size), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in range(len(dims)) if i not in keep):
                continue
            r = np.ravel_multi_index(row, dims)
            c = np.ravel_multi_index(col, dims)
            rk = np.ravel_multi_index([row[i] for i in keep], kept_dims) if kept_dims else 0
            ck = np.ravel_multi_index([col[i] for i in keep], kept_dims) if kept_dims else 0
            out[rk, ck] += mat[r, c]
    return out


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0, 1], [0, 0]]), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionError):
            HermitianOperator(np.eye(4), (2, 3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[np.inf, 0], [0, 1.0]]), (2,))

    @pytest.mark.parametrize("entry", [complex(1.0, np.nan), complex(np.inf, 0.0)],
                             ids=["nan-imag", "inf-real"])
    def test_rejects_non_finite_in_one_part(self, entry):
        mat = np.eye(2, dtype=complex)
        mat[0, 0] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator(mat, (2,))
        with pytest.raises(ValidationError, match="non-finite"):
            Ket([entry, 0.0], (2,), normalized=False)

    @pytest.mark.parametrize("dims", [(True, 4), (2.0, 2), (2, 2.5), ("2", 2), (None, 4)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(DimensionError, match="must be an integer"):
            HermitianOperator(np.eye(4), dims)
        with pytest.raises(DimensionError, match="must be an integer"):
            Ket(np.eye(4)[0], dims)

    def test_rejects_truncatable_dims(self):
        # int(4.5) == 4 and int(True) == 1 used to make these dims (1, 4)
        with pytest.raises(DimensionError):
            HermitianOperator(np.eye(4), (True, 4.5))

    def test_accepts_numpy_integer_dims(self):
        op = HermitianOperator(np.eye(4), (np.int64(2), np.int32(2)))
        assert op.dims == (2, 2)
        assert all(type(d) is int for d in op.dims)

    def test_dims_product_does_not_overflow(self):
        # 2**32 * 2**32 wraps to 0 in int64, which would match an empty matrix
        with pytest.raises(DimensionError):
            HermitianOperator(np.zeros((0, 0)), (2**32, 2**32))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            HermitianOperator(np.zeros((2, 3)), (2,))

    def test_ket_norm_enforced(self):
        with pytest.raises(ValidationError):
            Ket([1.0, 1.0], (2,))
        Ket([1.0, 1.0], (2,), normalized=False)

    def test_matrices_read_only(self):
        op = HermitianOperator(np.eye(2), (2,))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0


class TestKron:
    def test_identity(self):
        out = kron(HermitianOperator(np.eye(2), (2,)), HermitianOperator(np.eye(2), (2,)))
        assert out.dims == (2, 2)
        assert np.array_equal(out.mat, np.eye(4))

    def test_basis_bookkeeping(self):
        zero = Ket([1, 0], (2,))
        one = Ket([0, 1], (2,))
        out = kron(zero, one)
        assert out.dims == (2, 2)
        assert np.array_equal(out.amps, [0, 1, 0, 0])  # index 0*2 + 1

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, (2,))
        b = random_hermitian(rng, (2,))
        assert np.max(np.abs(kron(a, b).mat - kron_oracle(a.mat, b.mat))) < 1e-13

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            kron(Ket([1, 0], (2,)), HermitianOperator(np.eye(2), (2,)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        ops = [random_hermitian(rng, (int(rng.integers(1, 4)),)) for _ in range(3)]
        left = kron(kron(ops[0], ops[1]), ops[2])
        right = kron(ops[0], kron(ops[1], ops[2]))
        assert left.dims == right.dims
        assert np.max(np.abs(left.mat - right.mat)) < 1e-13


class TestPartialTrace:
    def test_unnormalized_entangled_marginal(self):
        p_plus = maximally_entangled_state(2, normalized=False)
        out = partial_trace(p_plus, keep=[0])
        assert np.max(np.abs(out.mat - np.eye(2))) < 1e-12

    def test_product_state_factorization(self):
        rng = np.random.default_rng(3)
        sigma = random_hermitian(rng, (2,))
        tau = random_hermitian(rng, (3,))
        out = partial_trace(kron(sigma, tau), keep=[1])
        assert np.max(np.abs(out.mat - sigma.trace() * tau.mat)) < 1e-12

    def test_three_partite_against_oracle(self):
        rng = np.random.default_rng(4)
        dims = (2, 3, 2)
        op = random_hermitian(rng, dims)
        got = partial_trace(op, keep=[0, 2])
        want = partial_trace_oracle(op.mat, dims, keep=[0, 2])
        assert np.max(np.abs(got.mat - want)) < 1e-12
        assert got.dims == (2, 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        op = random_hermitian(rng, (2, 2, 3))
        for keep in ([0], [1, 2], [0, 1, 2], [2]):
            assert abs(partial_trace(op, keep).trace() - op.trace()) < 1e-12

    def test_invalid_subsystem(self):
        op = HermitianOperator(np.eye(4), (2, 2))
        with pytest.raises(DimensionError):
            partial_trace(op, keep=[2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kron_left_marginal(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, (int(rng.integers(1, 4)),))
        b = random_hermitian(rng, (int(rng.integers(1, 4)),))
        out = partial_trace(kron(a, b), keep=[0])
        assert np.max(np.abs(out.mat - b.trace() * a.mat)) < 1e-12


class TestTransposeConjugate:
    def test_real_symmetric_fixed(self):
        op = HermitianOperator(np.array([[1.0, 2.0], [2.0, -1.0]]), (2,))
        assert np.array_equal(basis_transpose(op).mat, op.mat)

    def test_conjugate_ket(self):
        v = Ket(np.array([1, 1j]) / np.sqrt(2), (2,))
        out = conjugate_ket(v)
        assert np.max(np.abs(out.amps - np.array([1, -1j]) / np.sqrt(2))) < 1e-15

    def test_involution(self):
        rng = np.random.default_rng(6)
        op = random_hermitian(rng, (2, 3))
        assert np.max(np.abs(basis_transpose(basis_transpose(op)).mat - op.mat)) < 1e-15


class TestEig:
    def test_diagonal(self):
        vals, _ = eig_hermitian(HermitianOperator(np.diag([0.9, 0.2]), (2,)))
        assert np.allclose(vals, [0.2, 0.9])

    def test_rank_one_projector(self):
        proj = maximally_entangled_ket(2).projector()
        vals, _ = eig_hermitian(proj)
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("dims", [(6,), (2, 2, 3), (4, 4)])
    def test_reconstruction_and_gram(self, dims):
        rng = np.random.default_rng(7)
        op = random_hermitian(rng, dims)
        vals, kets = eig_hermitian(op)
        rebuilt = sum(v * k.projector().mat for v, k in zip(vals, kets))
        assert np.max(np.abs(rebuilt - op.mat)) < 1e-9
        vecs = np.stack([k.amps for k in kets])
        assert np.max(np.abs(vecs @ vecs.conj().T - np.eye(op.size))) < 1e-9


class TestOperatorNorm:
    def test_identity(self):
        for d in (1, 2, 5):
            assert operator_norm(HermitianOperator(np.eye(d), (d,))) == pytest.approx(1.0)

    def test_two_projector_sum(self):
        # largest eigenvalue of |a><a| + |b><b| is 1 + |<a|b>|
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = random_unit(rng, 4), random_unit(rng, 4)
            op = HermitianOperator(np.outer(a, a.conj()) + np.outer(b, b.conj()), (4,))
            assert operator_norm(op) == pytest.approx(1 + abs(np.vdot(a, b)), abs=1e-12)

    def test_matches_max_eigenvalue_on_psd(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = HermitianOperator(g @ g.conj().T, (5,))
        vals, _ = eig_hermitian(op)
        assert abs(operator_norm(op) - vals[-1]) < 1e-12

    def test_psd_required(self):
        op = HermitianOperator(np.diag([1.0, -0.5]), (2,))
        with pytest.raises(PositivityError):
            operator_norm(op, require_psd=True)
        assert operator_norm(op) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 37.5))
    def test_homogeneous(self, seed, scale):
        rng = np.random.default_rng(seed)
        op = random_hermitian(rng, (3,))
        scaled = HermitianOperator(scale * op.mat, (3,))
        assert operator_norm(scaled) == pytest.approx(scale * operator_norm(op), abs=1e-10)


class TestMaximallyEntangled:
    def test_scalar_case(self):
        assert np.allclose(maximally_entangled_ket(1).amps, [1.0])
        assert np.allclose(maximally_entangled_state(1).mat, [[1.0]])

    def test_qubit_ket(self):
        assert np.allclose(maximally_entangled_ket(2).amps,
                           np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_marginals(self):
        for d in range(2, 6):
            p = maximally_entangled_state(d)
            assert abs(p.trace() - 1.0) < 1e-12
            marg = partial_trace(p, keep=[0])
            assert np.max(np.abs(marg.mat - np.eye(d) / d)) < 1e-12

    def test_unnormalized_trace(self):
        assert maximally_entangled_state(3, normalized=False).trace() == pytest.approx(3.0)

    def test_zero_dimension(self):
        with pytest.raises(DimensionError):
            maximally_entangled_ket(0)


class TestValidators:
    def test_projective_pair_valid(self):
        effects = [HermitianOperator(np.diag([1.0, 0.0]), (2,)),
                   HermitianOperator(np.diag([0.0, 1.0]), (2,))]
        check_povm(effects)

    def test_completeness_violation(self):
        with pytest.raises(ValidationError, match="completeness"):
            check_povm([HermitianOperator(np.eye(2) / 2, (2,)),
                        HermitianOperator(np.eye(2) / 3, (2,))])

    def test_random_pvm_valid(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        effects = [HermitianOperator(np.outer(q[:, i], q[:, i].conj()), (4,))
                   for i in range(4)]
        check_povm(effects)

    def test_negative_effect_reported(self):
        with pytest.raises(PositivityError, match="effect 1 is not positive semidefinite"):
            check_povm([HermitianOperator(np.diag([1.5, 0.0]), (2,)),
                        HermitianOperator(np.diag([-0.5, 1.0]), (2,))])

    def test_empty_or_mixed_dims_rejected(self):
        with pytest.raises(ValidationError, match="no effects"):
            check_povm([])
        with pytest.raises(DimensionError):
            check_povm([HermitianOperator(np.eye(4), (4,)),
                        HermitianOperator(np.zeros((4, 4)), (2, 2))])

    def test_state_valid_and_invalid(self):
        check_state(HermitianOperator(np.eye(2) / 2, (2,)), "state")
        with pytest.raises(ValidationError, match="unit trace"):
            check_state(HermitianOperator(np.eye(2), (2,)), "state")


class TestJson:
    def test_operator_round_trip(self):
        rng = np.random.default_rng(12)
        op = random_hermitian(rng, (2, 3))
        back = operator_from_json(operator_to_json(op))
        assert back.dims == op.dims
        assert np.array_equal(back.mat, op.mat)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5), (6, 6)])
    def test_entries_match_elementwise_codec(self, shape):
        rng = np.random.default_rng(sum(shape))
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        arr[0, 0] = complex(-0.0, -0.0)
        arr[-1, 0] = complex(0.0, -0.0)
        arr[0, -1] *= 1e-310  # subnormal parts
        out = _entries_to_json(arr)
        assert repr(out) == repr(entries_oracle(arr))  # repr tells -0.0 from 0.0
        flat = np.ravel(out)
        assert not np.signbit(flat[flat == 0]).any()
        assert np.array_equal(_entries_from_json(out, 2), arr)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_entries_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 7, size=2)
        arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        arr[rng.random((rows, cols)) < 0.3] = 0.0
        out = _entries_to_json(arr)
        assert repr(out) == repr(entries_oracle(arr))
        assert np.array_equal(_entries_from_json(json.loads(dumps_canonical(out)), 2), arr)

    @pytest.mark.parametrize("value", JSON_CASES, ids=repr)
    def test_writer_cases_match_json(self, value):
        assert dumps_canonical(value) == json.dumps(value, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_writer_matches_json(self, value):
        assert dumps_canonical(value) == json.dumps(value, indent=2)

    def test_writer_rejects_what_json_rejects(self):
        for value in ({(1, 2): 0}, {"x": {1, 2}}, [np.float32(1.0)], object()):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                dumps_canonical(value)

    def test_malformed_entries(self):
        with pytest.raises(ValidationError):
            operator_from_json({"dims": [2], "data": [[1.0, 0.0], [0.0, 1.0]]})
