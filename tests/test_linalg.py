"""Tests for the dense multi-partite operator algebra."""

import base64
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from testerbounds.linalg import (
    _cholesky_slack,
    _entries_from_json,
    _proves_psd,
    HERMITICITY_ATOL,
    PSD_ATOL,
    STATE_ATOL,
    DimensionError,
    HermitianOperator,
    Ket,
    PositivityError,
    ValidationError,
    basis_transpose,
    check_povm,
    check_psd,
    check_state,
    dumps_canonical,
    eig_hermitian,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    operator_from_json,
    operator_to_json,
    operator_norm,
    partial_trace,
    write_canonical,
)
from testerbounds.sampling import haar_isometries


def random_hermitian(rng, dims):
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((g + g.conj().T) / 2, dims)


def entries_oracle(arr):
    """The [re, im] lists of a complex matrix, element by element."""
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in arr]


def entries_to_json(arr):
    """The [re, im] lists of a complex array of any shape: what the writer must write for
    it, as json.dumps writes these lists."""
    return (np.stack([arr.real, arr.imag], axis=-1) + 0.0).tolist()


# JSON values for the writer's oracle: every scalar json.dumps accepts, text with
# non-ASCII, control and quote characters, and lists of [re, im] pairs, as a parsed
# payload holds them, beside near-misses.
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

# explicit depths, [re, im] rows and near-misses; every list takes the writer's generic
# path, and an indent off by one level fails each nested one
JSON_CASES = [
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[1.0, 2.0]], [[1.0, -0.0], [1e-300, 1e300]],
    {"data": [[[0.5, -0.25], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.25]]]},
    {"k": [{"data": [[[1.0, 2.0]]]}]}, [[1, 2.0]], [[1.0, True]], [[math.nan, 1.0]],
    [[1.0, math.inf]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], 3.0], [[1.0, 2.0], [1.0]],
    [(1.0, 2.0)], [[1e308, 1e308], [1e308, 1e308]], {1: None, 1.5: True, False: "\u00e9"},
    ("a", 10 ** 40, -0.0, math.nan, -math.inf),
]

# complex arrays for the writer, against json.dumps of their [re, im] lists: parts drawn
# from a few values so that texts repeat, with both zeros, subnormals and non-finites
_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 0.5, -1.25, math.nan, math.inf,
                          -math.inf]) | _FINITE


@st.composite
def complex_arrays(draw):
    # a matrix, or a stack of them as a Kraus channel holds
    shape = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    size = math.prod(shape)
    parts = draw(st.lists(_PARTS, min_size=2 * size, max_size=2 * size))
    return np.array(parts).view(complex).reshape(shape)


ARRAY_VALUES = st.recursive(
    complex_arrays() | _SCALARS | _PAIR_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10)

_RECT = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(5e-324, -2.5e-310)],
                  [0.5 + 0.5j, complex(math.nan, math.inf), complex(-math.inf, 0.5)]])
_SQUARE = np.random.default_rng(5).choice([0.0, -0.0, 0.25, 0.25j, -0.5 - 0.0j], (6, 6))
ARRAY_CASES = [
    np.array([[complex(-0.0, 0.0)]]), _RECT, _RECT.T, _SQUARE, _SQUARE.astype(np.complex64),
    [_RECT, _SQUARE], {"data": _RECT}, {"k": [{"data": _SQUARE}, [_RECT]]},
    {"pairs": [[0.0, -0.0], [-0.0, 0.0]], "data": _RECT, "more": [[-0.0, 0.0]]},
    # (k, r, c) stacks, as a Kraus channel's data
    np.stack([_RECT, -_RECT, _RECT[::-1]]), {"data": np.array([[[0.5j]]])},
]


def with_lists(obj):
    """``obj`` with each array as its [re, im] lists, the form json.dumps takes."""
    if isinstance(obj, np.ndarray):
        return entries_to_json(obj)
    if isinstance(obj, dict):
        return {key: with_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [with_lists(value) for value in obj]
    return obj


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

    @pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                       complex(np.inf, 0.0), complex(-np.inf, np.nan)],
                             ids=["nan", "inf-imag", "inf", "mixed"])
    @pytest.mark.parametrize("where", [[(1, 1)], [(0, 2)], [(0, 2), (2, 0)]],
                             ids=["diagonal", "off-diagonal", "mirrored"])
    def test_non_finite_reported_as_such(self, entry, where):
        # the skew test fails on any non-finite entry, a Hermitian-looking
        # mirrored pair included, and the finiteness check names the cause,
        # with no floating-point warning first
        mat = np.eye(3, dtype=complex)
        for i, j in where:
            mat[i, j] = entry if i <= j else np.conj(entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite entries"):
                HermitianOperator(mat, (3,))

    @pytest.mark.parametrize("skew", [2e-10, 1.0])
    def test_skew_above_tolerance_is_not_hermitian(self, skew):
        mat = np.eye(3, dtype=complex)
        mat[0, 1] = skew
        with pytest.raises(ValidationError, match=r"not Hermitian \(residual"):
            HermitianOperator(mat, (3,))

    def test_skew_scales_with_the_largest_entry(self):
        # a product at scale 1e7, off Hermitian by rounding relative to its
        # entries, is accepted; up to entries of 1 the tolerance stays absolute
        t = np.random.default_rng(0).standard_normal((6, 2)) @ [1.0, 1.0j]
        big = 1e7 * np.outer(t, t.conj())
        assert np.abs(big - big.conj().T).max() > HERMITICITY_ATOL
        op = HermitianOperator(big, (2, 3))
        assert np.array_equal(op.mat, (big + big.conj().T) / 2)
        big[0, 1] += 2e-10 * np.abs(big).max()
        with pytest.raises(ValidationError, match=r"not Hermitian \(residual"):
            HermitianOperator(big, (2, 3))
        for scale in (1.0, 1e-3):
            mat = scale * np.eye(3, dtype=complex)
            mat[0, 1] = 2e-10
            with pytest.raises(ValidationError, match=r"not Hermitian \(residual"):
                HermitianOperator(mat, (3,))

    @pytest.mark.parametrize("n", [1, 4, 9, 25])
    def test_mat_is_the_hermitian_average(self, n):
        # bit for bit (arr + arr^dag) / 2 of the complex input, signs of zeros
        # included, on Hermitian, near-Hermitian (skew within the tolerance),
        # real and signed-zero inputs, from the checked constructor and from
        # the unchecked one alike
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g + g.conj().T
        signs = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        zeros = np.empty((n, n), dtype=complex)
        zeros.real, zeros.imag = signs, signs.T
        for arr in (h, h + 1e-11 * g, h.real, h.real * signs, zeros):
            c = np.asarray(arr, dtype=complex)
            expected = ((c + c.conj().T) / 2).view(float)
            for build in (HermitianOperator, HermitianOperator._unchecked):
                mat = build(arr, (n,)).mat.view(float)
                assert np.array_equal(mat, expected)
                assert np.array_equal(np.signbit(mat), np.signbit(expected))

    @pytest.mark.parametrize("entry", [complex(1.0, np.nan), complex(np.inf, 0.0)],
                             ids=["nan-imag", "inf-real"])
    def test_rejects_non_finite_in_one_part(self, entry):
        mat = np.eye(2, dtype=complex)
        mat[0, 0] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator(mat, (2,))
        with pytest.raises(ValidationError, match="non-finite"):
            Ket([entry, 0.0], (2,))

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

    def test_equality_compares_dims_and_entries(self):
        # equal matrices held in separate arrays compare equal; == used to raise
        mat = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
        op = HermitianOperator(mat, (2,))
        assert op == HermitianOperator(mat.copy(), (2,))
        assert op != HermitianOperator(mat, (1, 2))
        assert op != HermitianOperator(mat + np.eye(2), (2,))
        ket = Ket([0.6, 0.8j, 0.0, 0.0], (2, 2))
        assert ket == Ket(np.array([0.6, 0.8j, 0.0, 0.0]), (2, 2))
        assert ket != Ket([0.6, 0.8j, 0.0, 0.0], (4,))
        assert ket != Ket([0.8j, 0.6, 0.0, 0.0], (2, 2))

    def test_matrices_read_only(self):
        arr = np.array([[1.0, 2.0 + 1e-12j], [2.0, 3.0]])
        op = HermitianOperator(arr, (2,))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0
        # the caller's array is neither averaged nor frozen
        assert arr[0, 1] == 2.0 + 1e-12j and arr.flags.writeable


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
        p_plus = HermitianOperator(2 * maximally_entangled_state(2).mat, (2, 2))
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
        # d times the state is the projector onto sum_i |i,i>, of trace d
        v = np.eye(3).reshape(-1)
        unnormalized = 3 * maximally_entangled_state(3).mat
        assert np.max(np.abs(unnormalized - np.outer(v, v))) < 1e-15
        assert np.trace(unnormalized).real == pytest.approx(3.0)

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


def in_random_basis(rng, vals) -> np.ndarray:
    """The Hermitian matrix with eigenvalues ``vals`` in a Haar-random basis."""
    n = len(vals)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * np.asarray(vals)) @ q.conj().T


def with_min_eigenvalue(rng, n: int, low: float, top: float = 1.0) -> np.ndarray:
    """A random n x n Hermitian matrix with smallest eigenvalue ``low`` and, for n > 1,
    largest ``top``."""
    return in_random_basis(rng, [low, *rng.uniform(0, top, max(n - 2, 0)), top][:n])


def eigvalsh_message(what: str, mat: np.ndarray) -> str:
    """The message of the eigenvalue test that decides every rejection."""
    lo = np.linalg.eigvalsh(mat)[0]
    return f"{what} is not positive semidefinite (min eigenvalue {lo:.3e})"


def eigvalsh_decision(mat: np.ndarray, atol: float) -> bool:
    """Accepted by the eigenvalue test alone."""
    return not np.linalg.eigvalsh(mat)[0] < -atol


class TestPositivityParity:
    """``check_psd`` and the family checks decide as the eigenvalue test did, name
    the same member and word the error the same; one Cholesky only accepts sooner."""

    @pytest.mark.parametrize("n", [1, 3, 25])
    def test_check_psd(self, n):
        rng = np.random.default_rng(n)
        bad = HermitianOperator(with_min_eigenvalue(rng, n, -2 * PSD_ATOL), (n,))
        with pytest.raises(PositivityError) as exc_info:
            check_psd(bad, "operator")
        assert str(exc_info.value) == eigvalsh_message("operator", bad.mat)
        check_psd(HermitianOperator(with_min_eigenvalue(rng, n, -0.5 * PSD_ATOL), (n,)),
                  "operator")

    def test_check_state(self):
        rng = np.random.default_rng(1)
        low = -2 * STATE_ATOL
        bad = HermitianOperator(in_random_basis(rng, [low, 0.5, 0.3, 0.2 - low]), (2, 2))
        with pytest.raises(PositivityError) as exc_info:
            check_state(bad, "state")
        assert str(exc_info.value) == eigvalsh_message("state", bad.mat)
        low = -0.5 * STATE_ATOL
        check_state(HermitianOperator(in_random_basis(rng, [low, 0.5, 0.3, 0.2 - low]), (2, 2)),
                    "state")

    @staticmethod
    def povm(rng, n: int, member: int, low: float) -> list[HermitianOperator]:
        """Rank-one projectors onto a random basis, summing to the identity, with
        ``low`` moved from the last effect into ``member``'s along one direction."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats = [np.outer(q[:, i], q[:, i].conj()) for i in range(n)]
        mats[member] = mats[member] + low * mats[-1]
        mats[-1] = (1 - low) * mats[-1]
        return [HermitianOperator(m, (n,)) for m in mats]

    @pytest.mark.parametrize("member", [0, 2])
    def test_check_povm_names_the_member(self, member):
        rng = np.random.default_rng(member)
        effects = self.povm(rng, 4, member, -2 * PSD_ATOL)
        with pytest.raises(PositivityError) as exc_info:
            check_povm(effects)
        assert str(exc_info.value) == eigvalsh_message(f"POVM effect {member}",
                                                       effects[member].mat)
        check_povm(self.povm(rng, 4, member, -0.5 * PSD_ATOL))

    def test_non_finite_refused_first(self):
        for bad in (np.nan, np.inf):
            mat = np.eye(2, dtype=complex)
            mat[0, 0] = bad
            with pytest.raises(ValidationError, match="non-finite") as exc_info:
                check_psd(HermitianOperator(mat, (2,)), "operator")
            assert not isinstance(exc_info.value, PositivityError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_cholesky_proves_nothing_on_non_finite(self, bad, where):
        # an unchecked operator holds what it is given; OpenBLAS factors through a
        # NaN pivot without an error, so the factor itself must be finite
        mat = np.eye(3, dtype=complex)
        mat[where] = bad
        with np.errstate(invalid="ignore"):
            assert not _proves_psd([HermitianOperator._unchecked(mat, (3,))], PSD_ATOL)

    def test_mixed_dims_are_not_stacked(self):
        ops = [HermitianOperator(np.eye(4), (4,)), HermitianOperator(np.eye(4), (2, 2))]
        assert not _proves_psd(ops, PSD_ATOL)
        assert _proves_psd(ops[:1], PSD_ATOL)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-3, 3),
           st.floats(-2, 1), st.booleans())
    def test_decisions_agree_outside_the_slack(self, seed, n, log_scale, log_offset, above):
        # lambda_min = -atol +- 10^log_offset atol, on matrices of norm up to 10^3
        rng = np.random.default_rng(seed)
        atol = PSD_ATOL
        lam = -atol + (1 if above else -1) * 10.0**log_offset * atol
        mat = HermitianOperator(with_min_eigenvalue(rng, n, lam, 10.0**log_scale), (n,)).mat
        delta = _cholesky_slack(n, float(np.abs(np.diag(mat)).max()), atol)
        assume(abs(np.linalg.eigvalsh(mat)[0] + atol) > delta)
        try:
            check_psd(HermitianOperator(mat, (n,)), "operator")
            accepted = True
        except PositivityError:
            accepted = False
        assert accepted == eigvalsh_decision(mat, atol)


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
        out = json.loads(dumps_canonical(arr))
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
        out = json.loads(dumps_canonical(arr))
        assert repr(out) == repr(entries_oracle(arr))
        assert np.array_equal(_entries_from_json(out, 2), arr)

    def test_operator_round_trip_through_text(self):
        op = random_hermitian(np.random.default_rng(13), (3, 2))
        obj = operator_to_json(op)
        back = operator_from_json(json.loads(dumps_canonical(obj)))
        assert back.dims == op.dims
        assert np.array_equal(back.mat, op.mat)

    def test_entries_take_complex_arrays_as_they_are(self):
        arr = np.arange(6).reshape(2, 3) * (1 - 0.5j)
        assert _entries_from_json(arr, 2) is arr
        stack = np.stack([arr, arr])
        assert _entries_from_json(stack, 3) is stack

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (1, 2, 2, 2)])
    def test_entries_reject_complex_arrays_of_other_ndim(self, shape):
        arr = np.ones(shape, dtype=complex)
        with pytest.raises(ValidationError, match="expected 2-D"):
            _entries_from_json(arr, 2)
        with pytest.raises(ValidationError, match="expected 2-D"):
            operator_from_json({"dims": [2], "data": arr}, 1)

    def test_b64_is_little_endian_complex128_without_negative_zero(self):
        mat = np.array([[0.5, complex(-0.0, 0.25)], [complex(-0.0, -0.25), -0.0]])
        op = HermitianOperator(mat, (2,))
        assert np.signbit(op.mat.view(float)).any()  # the average keeps -0.0
        obj = operator_to_json(op)
        assert list(obj) == ["dims", "b64"] and obj["dims"] == [2]
        parts = np.frombuffer(base64.b64decode(obj["b64"]), dtype="<f8")
        assert np.array_equal(parts, op.mat.view(float).ravel())  # row-major, re then im
        assert not np.signbit(parts[parts == 0]).any()

    def test_formats_read_their_own_form(self):
        op = random_hermitian(np.random.default_rng(14), (2, 2))
        rows = json.loads(dumps_canonical({"dims": [2, 2], "data": op.mat}))
        assert np.array_equal(operator_from_json(rows, 1).mat, op.mat)
        with pytest.raises(ValidationError, match="needs 'b64'"):
            operator_from_json(rows)
        with pytest.raises(ValidationError, match="needs 'data'"):
            operator_from_json(operator_to_json(op), 1)

    @pytest.mark.parametrize("dims,text,error,match", [
        ([2], "AAAA!AAA", ValidationError, "not base64"),
        ([2], "AAAA\nAAA", ValidationError, "not base64"),
        ([2], "AAAAAAA", ValidationError, "not base64"),  # bad padding
        ([2], "\u00e9", ValidationError, "not base64"),
        ([2], base64.b64encode(bytes(48)).decode(), ValidationError, "48 bytes"),
        ([1, 2], base64.b64encode(bytes(80)).decode(), ValidationError, "80 bytes"),
        ([2], ["AAAA"], ValidationError, "must be a string"),
        ([2.9, 2], "AAAA", DimensionError, "must be an integer"),
        ([2, True], "AAAA", DimensionError, "must be an integer"),
        ([-2, 2], "AAAA", DimensionError, "positive"),
        ([], "", DimensionError, "positive"),
    ])
    def test_malformed_b64_rejected(self, dims, text, error, match):
        with pytest.raises(error, match=match):
            operator_from_json({"dims": dims, "b64": text})

    @pytest.mark.parametrize("value", JSON_CASES, ids=repr)
    def test_writer_cases_match_json(self, value):
        assert dumps_canonical(value) == json.dumps(value, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_writer_matches_json(self, value):
        assert dumps_canonical(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", ARRAY_CASES, ids=range(len(ARRAY_CASES)))
    def test_writer_array_cases_match_json(self, value):
        assert dumps_canonical(value) == json.dumps(with_lists(value), indent=2)

    @settings(max_examples=200, deadline=None)
    @given(ARRAY_VALUES)
    def test_writer_arrays_match_json(self, value):
        assert dumps_canonical(value) == json.dumps(with_lists(value), indent=2)

    def test_writer_kraus_channel_matches_json(self):
        # a Kraus file's data, a stack of matrices, takes the writer's 3-D array path
        kraus = haar_isometries(np.random.default_rng(23), 1, 9, 2)[0].reshape(3, 3, 2)
        obj = {"kind": "kraus", "d_in": 2, "d_out": 3, "data": kraus}
        assert dumps_canonical(obj) == json.dumps(with_lists(obj), indent=2)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_writer_streams_iterator_items(self, n):
        items = [{"data": _RECT, "i": i} for i in range(n)]
        pieces = []
        write_canonical({"head": 1.5, "items": iter(items), "tail": [-0.0]}, pieces.append)
        expected = json.dumps({"head": 1.5, "items": with_lists(items), "tail": [-0.0]},
                              indent=2)
        assert "".join(pieces) == expected
        assert len(pieces) == n + 1  # each item as it is written, then the rest

    def test_writer_rejects_what_json_rejects(self):
        for value in ({(1, 2): 0}, {"x": {1, 2}}, [np.float32(1.0)], object(), np.ones(2),
                      np.zeros((0, 2), dtype=complex)):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                dumps_canonical(value)

    def test_malformed_entries(self):
        with pytest.raises(ValidationError, match="malformed complex entries"):
            operator_from_json({"dims": [2], "data": [[1.0, 0.0], [0.0, 1.0]]}, 1)
