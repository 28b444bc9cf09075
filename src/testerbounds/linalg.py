"""Dense complex linear algebra for small multi-partite Hermitian operators.

Everything here works on explicit dense matrices tagged with an ordered tuple
of subsystem dimensions.  Tensor-order convention used throughout the package:
the left factor is the slow index, i.e. the composite basis index of
``A (x) B`` is ``a * dim_b + b``.
"""

from __future__ import annotations

import base64
import math
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterable, Sequence

import numpy as np

# Tolerances shared across the package (sizes here stay <= a few hundred, so
# these sit comfortably above double-precision noise).
HERMITICITY_ATOL = 1e-10
PSD_ATOL = 1e-9
EQUALITY_ATOL = 1e-9
STATE_ATOL = 1e-10
# scalars equal in exact arithmetic and computed by a few flops (weights, a zero overlap)
ROUNDING_ATOL = 1e-12


class ValidationError(ValueError):
    """An operator or vector violates a structural invariant."""


class DimensionError(ValidationError):
    """Subsystem dimensions are inconsistent or out of range."""


class PositivityError(ValidationError):
    """An operator required to be positive semidefinite is not."""


def as_dim(d) -> int:
    """A dimension given as an int or numpy integer; a bool, float or str raises."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise DimensionError(f"dimension must be an integer, got {d!r}")
    return int(d)


def _positive_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(as_dim(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
    return dims


def _check_dims(dims: Iterable[int], size: int) -> tuple[int, ...]:
    dims = _positive_dims(dims)
    if math.prod(dims) != size:
        raise DimensionError(f"product of dims {dims} does not match size {size}")
    return dims


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on a tensor product of subsystems.

    The stored matrix is the Hermitian average of the input; construction
    rejects inputs whose anti-Hermitian part exceeds ``HERMITICITY_ATOL`` times
    ``max(1, max|M|)``, so a product formed at a large scale, off Hermitian by
    rounding relative to its entries, is accepted.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, mat: np.ndarray | Sequence, dims: Iterable[int]):
        arr = np.asarray(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        # a non-finite entry makes the skew NaN or inf, which fails the test
        # below and is reported as such; inf - inf warrants no warning first
        with np.errstate(invalid="ignore"):
            skew = np.abs(arr - arr.conj().T).max(initial=0.0)
        if not skew <= HERMITICITY_ATOL:
            if not np.isfinite(arr).all():
                raise ValidationError("matrix contains non-finite entries")
            if not skew <= HERMITICITY_ATOL * np.abs(arr).max():
                raise ValidationError(f"matrix is not Hermitian (residual {skew:.3e})")
        vars(self).update(vars(HermitianOperator._unchecked(arr, _check_dims(dims, arr.shape[0]))))

    @classmethod
    def _unchecked(cls, mat: np.ndarray, dims: tuple[int, ...]) -> HermitianOperator:
        """``cls(mat, dims)``, untested: for a finite ``mat`` Hermitian to rounding, of ``dims``."""
        op = object.__new__(cls)
        arr = np.asarray(mat, dtype=complex)
        arr = arr + arr.conj().T
        arr /= 2  # complex division, so the bits, signed zeros too, of (arr + arr^dag) / 2
        arr.setflags(write=False)
        vars(op).update(mat=arr, dims=dims)
        return op

    def __eq__(self, other):
        """Equal dims and equal matrices, entry by entry; a ``Channel`` and any
        result that holds operators compares through this."""
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.mat, other.mat)

    @property
    def size(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.mat)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


@dataclass(frozen=True)
class Ket:
    """A unit state vector (norm 1 within ``STATE_ATOL``) with tagged subsystem dimensions."""

    amps: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amps: np.ndarray | Sequence, dims: Iterable[int]):
        arr = np.ascontiguousarray(np.asarray(amps, dtype=complex).reshape(-1))
        if not np.isfinite(arr).all():
            raise ValidationError("amplitudes contain non-finite entries")
        if abs(np.linalg.norm(arr) - 1.0) > STATE_ATOL:
            raise ValidationError(f"ket is not normalized (norm {np.linalg.norm(arr):.12f})")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "dims", _check_dims(dims, arr.shape[0]))

    def __eq__(self, other):
        """Equal dims and equal amplitudes, entry by entry."""
        if not isinstance(other, Ket):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.amps, other.amps)

    @property
    def size(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> HermitianOperator:
        """Rank-1 operator |v><v| with the same subsystem dims, a unit ket's, so unchecked."""
        return HermitianOperator._unchecked(np.outer(self.amps, self.amps.conj()), self.dims)

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        if self.size != other.size:
            raise DimensionError("kets live on different spaces")
        return complex(np.vdot(self.amps, other.amps))


def kron(a, b):
    """Tensor product of two operators or two kets; dims concatenate."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator._unchecked(np.kron(a.mat, b.mat), a.dims + b.dims)  # validated
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amps, b.amps), a.dims + b.dims)
    raise TypeError("kron expects two HermitianOperator or two Ket operands")


def partial_trace(op: HermitianOperator, keep: Iterable[int]) -> HermitianOperator:
    """Trace out every subsystem not in ``keep``; kept dims stay in original order."""
    keep = sorted(set(int(k) for k in keep))
    n = len(op.dims)
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    letters = "abcdefghijklmnopqrstuvwx"
    if 2 * n > len(letters):
        raise DimensionError("too many subsystems")
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for idx in traced:
        col[idx] = row[idx]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reshaped = op.mat.reshape(op.dims + op.dims)
    kept_dims = tuple(op.dims[i] for i in keep) or (1,)
    kept_size = int(np.prod(kept_dims))
    result = np.einsum("".join(row) + "".join(col) + "->" + out, reshaped)
    # sums of a validated operator's entries, mirrored sums conjugate to each other
    return HermitianOperator._unchecked(result.reshape(kept_size, kept_size), kept_dims)


def basis_transpose(op: HermitianOperator) -> HermitianOperator:
    """Transpose in the fixed computational basis (involutive)."""
    return HermitianOperator._unchecked(op.mat.T, op.dims)  # a validated operator's transpose


def eig_hermitian(op: HermitianOperator) -> tuple[np.ndarray, list[Ket]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian operator."""
    vals, vecs = np.linalg.eigh(op.mat)
    kets = [Ket(vecs[:, i], op.dims) for i in range(op.size)]
    return vals, kets


def operator_norm(op: HermitianOperator, require_psd: bool = False) -> float:
    """Largest |eigenvalue|; equals the largest eigenvalue for positive operators."""
    vals = op.eigenvalues()
    if require_psd and vals[0] < -PSD_ATOL:
        raise PositivityError(f"operator has negative eigenvalue {vals[0]:.3e}")
    return float(np.max(np.abs(vals)))


def shift_clock(d: int) -> np.ndarray:
    """The d^2 shift-clock unitaries X^p Z^q, X|j> = |j+1 mod d> and Z|j> = omega^j |j>,
    ordered by (p, q) from the identity, as a (d^2, d, d) stack.  Each phase
    omega^(j q) is one ``exp`` of 2 pi i ((j q) mod d) / d, so it is off unit
    modulus by rounding only, not by an error that grows with the power."""
    j = np.arange(d)
    phase = np.exp(2j * np.pi * (np.outer(j, j) % d) / d)  # phase[q, j] = omega^(j q)
    p, q = j[:, None, None], j[None, :, None]
    stack = np.zeros((d, d, d, d), dtype=complex)  # (p, q, row, column)
    stack[p, q, (j + p) % d, j] = phase[q, j]
    return stack.reshape(d * d, d, d)


def _conjugated(m: np.ndarray, monomial: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """W m W^dag for the monomial W = (index, phase): entry (a, b) is
    phase[a] m[index[a], index[b]] conj(phase[b]).  A stack of matrices, m of
    shape (..., n, n), is moved matrix by matrix, by two takes on its last two
    axes, each matrix with the bits it has when moved alone."""
    index, phase = monomial
    gathered = m.take(index, -2).take(index, -1)
    np.multiply(phase[:, None], gathered, out=gathered)
    return np.multiply(gathered, phase.conj(), out=gathered)


def maximally_entangled_ket(d: int) -> Ket:
    """The ket (1/sqrt(d)) * sum_i |i,i> on two d-dimensional factors."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    amps = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return Ket(amps, (d, d))


def maximally_entangled_state(d: int) -> HermitianOperator:
    """The projector onto the maximally entangled ket, a state of unit trace."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    v = np.eye(d, dtype=complex).reshape(-1)
    return HermitianOperator(np.outer(v, v.conj()) / d, (d, d))


def check_close(actual, expected, atol: float, what: str) -> None:
    """Raise ``ValidationError`` when max |actual - expected| exceeds ``atol`` or is NaN."""
    resid = float(np.max(np.abs(actual - expected)))
    if not resid <= atol:
        raise ValidationError(f"{what} (residual {resid:.3e})")


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _cholesky_slack(n: int, max_diag: float, atol: float) -> float:
    """delta = 4 gamma_{n+1} n (max_diag + atol), gamma_k = k u / (1 - k u): a bound on the
    backward error of Cholesky of an n x n Hermitian matrix, diagonal entries at most
    ``max_diag`` in modulus, shifted by at most ``atol`` (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 10.3, with a factor 4 for complex arithmetic
    and the shift's rounding; see the README's "Positivity test")."""
    gamma = (n + 1) * _UNIT_ROUNDOFF / (1 - (n + 1) * _UNIT_ROUNDOFF)
    return 4 * gamma * n * (max_diag + atol)


def _proves_psd(ops: Sequence[HermitianOperator], atol: float) -> bool:
    """True when one Cholesky of the stacked ``ops``, each shifted by ``atol - delta``
    (``_cholesky_slack``), proves lambda_min >= -atol for every one of them.  False
    proves nothing: some member may still pass ``check_psd``, and members of
    different dims are never stacked."""
    if any(op.dims != ops[0].dims for op in ops):
        return False
    stack = np.array([op.mat for op in ops])  # a copy, shifted in place
    n = stack.shape[-1]
    diag = stack.reshape(len(ops), n * n)[:, ::n + 1]
    diag += atol - _cholesky_slack(n, float(np.abs(diag).max()), atol)
    try:
        # OpenBLAS runs through a NaN pivot, so a non-finite factor is a failure too
        return bool(np.isfinite(np.linalg.cholesky(stack)).all())
    except np.linalg.LinAlgError:
        return False


def check_psd(op: HermitianOperator, what: str, atol: float = PSD_ATOL) -> None:
    """Raise ``PositivityError`` when the smallest eigenvalue is below ``-atol``.

    One Cholesky proves most operators positive (``_proves_psd``); where it does
    not, the smallest eigenvalue decides, and words the error."""
    if _proves_psd([op], atol):
        return
    lo = op.min_eigenvalue()
    if lo < -atol:
        raise PositivityError(f"{what} is not positive semidefinite (min eigenvalue {lo:.3e})")


def check_state(rho: HermitianOperator, what: str) -> None:
    """Positivity and unit trace of a density operator, both within ``STATE_ATOL``."""
    check_psd(rho, what, STATE_ATOL)
    check_close(rho.trace(), 1.0, STATE_ATOL, f"{what} does not have unit trace")


def check_povm(effects: Sequence[HermitianOperator]) -> None:
    """Positivity of each effect and completeness (sum = identity) of the family."""
    if not effects:
        raise ValidationError("POVM has no effects")
    if not _proves_psd(effects, PSD_ATOL):  # one Cholesky of the family, else each effect's checks
        for i, eff in enumerate(effects):
            if eff.dims != effects[0].dims:
                raise DimensionError(f"POVM effect {i} dims {eff.dims} != {effects[0].dims}")
            check_psd(eff, f"POVM effect {i}")
    check_close(sum(eff.mat for eff in effects), np.eye(effects[0].size), EQUALITY_ATOL,
                "POVM effects do not sum to the identity (completeness)")


# JSON encoding shared by every module.  A matrix of a format-2 scenario file is
#   {"dims": [d1, d2, ...], "b64": "..."}
# the base64 of its entries as little-endian complex128, row-major, with no -0.0; a
# matrix of a format-1 scenario file, of a channel file or of a report is
#   {"dims": [d1, d2, ...], "data": [[[re, im], ...], ...]}   (row-major)
# and a complex ndarray in the payloads built for ``dumps_canonical``.

def _entries_from_json(data, ndim: int) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype.kind == "c":  # a payload's own array
        if data.ndim != ndim:
            raise ValidationError(f"complex array of shape {data.shape}, expected {ndim}-D")
        return data
    arr = np.asarray(data, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValidationError(f"malformed complex entries of shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def operator_to_json(op: HermitianOperator) -> dict:
    """The format-2 form of ``op``: ``+ 0.0`` writes no -0.0, as the array writer."""
    raw = (op.mat + 0.0).astype("<c16", copy=False).tobytes()
    return {"dims": list(op.dims), "b64": base64.b64encode(raw).decode("ascii")}


def operator_from_json(obj: dict, fmt: int = 2) -> HermitianOperator:
    """The operator of a matrix of a format-``fmt`` scenario file: ``b64`` in format 2,
    ``data`` rows in format 1."""
    key = "b64" if fmt == 2 else "data"
    if key not in obj:
        raise ValidationError(f"a format {fmt} matrix needs {key!r}, got keys {list(obj)}")
    if fmt == 1:
        return HermitianOperator(_entries_from_json(obj["data"], 2), obj["dims"])
    text = obj["b64"]
    n = math.prod(_positive_dims(obj["dims"]))  # dims checked before the size is used
    if not isinstance(text, str):
        raise ValidationError(f"b64 must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValidationError(f"b64 is not base64: {exc}") from None
    if len(raw) != 16 * n * n:
        raise ValidationError(f"b64 holds {len(raw)} bytes, a {n}x{n} matrix {16 * n * n}")
    return HermitianOperator(np.frombuffer(raw, dtype="<c16").reshape(n, n), obj["dims"])


def dumps_canonical(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``: ASCII-escaped text, a 2-space indent, key
    order as built.  Two values ``json.dumps`` rejects are written as their JSON forms: a
    non-empty complex ndarray (the matrix of a channel or report payload) as the
    ``[re, im]`` nestings of a file, with no -0.0, and an iterator (a generator or ``map``)
    as the list of its items.  A scenario payload's matrices are base64 strings already.
    This is ``write_canonical`` kept in memory."""
    chunks: list[str] = []
    write_canonical(obj, chunks.append)
    return "".join(chunks)


def write_canonical(obj, write) -> None:
    """Pass the text of ``dumps_canonical(obj)`` to ``write``, in pieces: each item of an
    iterator in ``obj`` goes out once it is written, so only one item's text is held.

    ``json.dumps`` runs a pure-Python encoder once an indent is set.  This one formats
    each distinct float of the complex arrays once per call, and writes each array as one
    join of those texts and of separators fixed by depth and shape.  Every list, such as
    a parsed payload, is written item by item."""
    writer = _Writer(write)
    writer.value(obj, "\n")
    writer.flush()


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_json(x) -> str:
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if not isinstance(x, (int, float)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    text = (float.__repr__ if isinstance(x, float) else int.__repr__)(x)
    return _FLOAT_NAMES.get(text, text)


class _FloatTexts(dict):
    """Each float's JSON text, keyed by the float, which merges 0.0 and -0.0: arrays, its
    only users, are written ``+ 0.0``.  A NaN matches no key and is written ``NaN``."""

    def __missing__(self, x: float) -> str:
        text = self[x] = _scalar_json(x)
        return text


class _Writer:
    """One call of ``write_canonical``: the text not yet passed on, and the float texts."""

    def __init__(self, write):
        self.write = write
        self.out: list[str] = []
        self.texts = _FloatTexts()

    def flush(self) -> None:
        self.write("".join(self.out))
        self.out.clear()

    def value(self, obj, nl: str) -> None:
        """Append ``obj``'s text, opened after newline-and-indent ``nl``."""
        out = self.out
        if isinstance(obj, str):
            out.append(_escape(obj))
        elif obj is None or isinstance(obj, (int, float)):
            out.append(_scalar_json(obj))
        elif isinstance(obj, dict):
            out.append("{" + (inner := nl + "  "))
            for key, value in obj.items():
                out.append(_escape(key if isinstance(key, str) else _scalar_json(key)) + ": ")
                self.value(value, inner)
                out.append("," + inner)
            out[-1] = nl + "}" if obj else "{}"
        elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c" and obj.size:
            # [re, im] nestings, as in a file: + 0.0 writes no -0.0
            arr = np.ascontiguousarray(obj, dtype=complex) + 0.0
            out.append(self.grid(arr.view(float).ravel().tolist(), arr.shape + (2,), nl))
        elif isinstance(obj, (list, tuple, Iterator)):
            streamed = not isinstance(obj, (list, tuple))
            out.append("[" + (inner := nl + "  "))
            for item in obj:
                self.value(item, inner)
                if streamed:
                    self.flush()
                out.append("," + inner)
            out[-1] = "[]" if out[-1][0] == "[" else nl + "]"
        else:
            _scalar_json(obj)  # raises the TypeError json.dumps raises

    def grid(self, floats: list[float], shape: tuple[int, ...], nl: str) -> str:
        """A nested list of ``floats``, row-major, of ``shape`` (outermost first, no zero),
        opened after newline-and-indent ``nl``."""
        depth = len(shape)
        ind = [nl + "  " * i for i in range(depth + 1)]
        # opens[i] and closes[i]: the brackets between level i and the floats
        opens = ["".join("[" + s for s in ind[i + 1:]) for i in range(depth)] + [""]
        closes = ["".join(s + "]" for s in reversed(ind[i:depth])) for i in range(depth)] + [""]
        seps: list[str] = []
        for i in reversed(range(depth)):
            seps = (seps + [closes[i + 1] + "," + ind[i + 1] + opens[i + 1]]) * shape[i]
            seps.pop()
        parts = [opens[0]] * (2 * len(floats) + 1)
        parts[2::2] = [*seps, closes[0]]
        parts[1::2] = map(self.texts.__getitem__, floats)
        return "".join(parts)
