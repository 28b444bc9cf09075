"""Dense complex linear algebra for small multi-partite Hermitian operators.

Everything here works on explicit dense matrices tagged with an ordered tuple
of subsystem dimensions.  Tensor-order convention used throughout the package:
the left factor is the slow index, i.e. the composite basis index of
``A (x) B`` is ``a * dim_b + b``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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


def _as_complex_matrix(mat: np.ndarray | Sequence) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix contains non-finite entries")
    return arr


def as_dim(d) -> int:
    """A dimension given as an int or numpy integer; a bool, float or str raises."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise DimensionError(f"dimension must be an integer, got {d!r}")
    return int(d)


def _check_dims(dims: Iterable[int], size: int) -> tuple[int, ...]:
    dims = tuple(as_dim(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != size:
        raise DimensionError(f"product of dims {dims} does not match size {size}")
    return dims


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on a tensor product of subsystems.

    The stored matrix is the Hermitian average of the input; construction
    rejects inputs whose anti-Hermitian part exceeds ``HERMITICITY_ATOL``.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, mat: np.ndarray | Sequence, dims: Iterable[int]):
        arr = _as_complex_matrix(mat)
        skew = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
        if skew > HERMITICITY_ATOL:
            raise ValidationError(f"matrix is not Hermitian (residual {skew:.3e})")
        arr = (arr + arr.conj().T) / 2
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "dims", _check_dims(dims, arr.shape[0]))

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
    """A state vector with tagged subsystem dimensions.

    ``normalized=True`` (the default) enforces unit norm within ``STATE_ATOL``.
    """

    amps: np.ndarray
    dims: tuple[int, ...]
    normalized: bool = field(default=True, compare=False)

    def __init__(self, amps: np.ndarray | Sequence, dims: Iterable[int], normalized: bool = True):
        arr = np.ascontiguousarray(np.asarray(amps, dtype=complex).reshape(-1))
        if not np.isfinite(arr).all():
            raise ValidationError("amplitudes contain non-finite entries")
        if normalized and abs(np.linalg.norm(arr) - 1.0) > STATE_ATOL:
            raise ValidationError(f"ket is not normalized (norm {np.linalg.norm(arr):.12f})")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "dims", _check_dims(dims, arr.shape[0]))
        object.__setattr__(self, "normalized", bool(normalized))

    @property
    def size(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> HermitianOperator:
        """Rank-1 operator |v><v| with the same subsystem dims."""
        return HermitianOperator(np.outer(self.amps, self.amps.conj()), self.dims)

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        if self.size != other.size:
            raise DimensionError("kets live on different spaces")
        return complex(np.vdot(self.amps, other.amps))


def kron(a, b):
    """Tensor product of two operators or two kets; dims concatenate."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.mat, b.mat), a.dims + b.dims)
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amps, b.amps), a.dims + b.dims,
                   normalized=a.normalized and b.normalized)
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
    return HermitianOperator(result.reshape(kept_size, kept_size), kept_dims)


def basis_transpose(op: HermitianOperator) -> HermitianOperator:
    """Transpose in the fixed computational basis (involutive)."""
    return HermitianOperator(op.mat.T, op.dims)


def conjugate_ket(v: Ket) -> Ket:
    """Entrywise complex conjugate in the computational basis."""
    return Ket(v.amps.conj(), v.dims, normalized=v.normalized)


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
    ordered by (p, q) from the identity, as a (d^2, d, d) stack."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    return np.stack([np.linalg.matrix_power(shift, p) @ np.linalg.matrix_power(clock, q)
                     for p in range(d) for q in range(d)])


def maximally_entangled_ket(d: int) -> Ket:
    """The ket (1/sqrt(d)) * sum_i |i,i> on two d-dimensional factors."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    amps = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return Ket(amps, (d, d))


def maximally_entangled_state(d: int, normalized: bool = True) -> HermitianOperator:
    """The projector onto the maximally entangled ket; unnormalized variant has trace d."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    v = np.eye(d, dtype=complex).reshape(-1)
    mat = np.outer(v, v.conj())
    if normalized:
        mat = mat / d
    return HermitianOperator(mat, (d, d))


def check_close(actual, expected, atol: float, what: str) -> None:
    """Raise ``ValidationError`` when max |actual - expected| exceeds ``atol`` or is NaN."""
    resid = float(np.max(np.abs(actual - expected)))
    if not resid <= atol:
        raise ValidationError(f"{what} (residual {resid:.3e})")


def check_psd(op: HermitianOperator, what: str, atol: float = PSD_ATOL) -> None:
    """Raise ``PositivityError`` when the smallest eigenvalue is below ``-atol``."""
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
    for i, eff in enumerate(effects):
        if eff.dims != effects[0].dims:
            raise DimensionError(f"POVM effect {i} dims {eff.dims} != {effects[0].dims}")
        check_psd(eff, f"POVM effect {i}")
    check_close(sum(eff.mat for eff in effects), np.eye(effects[0].size), EQUALITY_ATOL,
                "POVM effects do not sum to the identity (completeness)")


# JSON encoding shared by every module: matrices are
#   {"dims": [d1, d2, ...], "data": [[[re, im], ...], ...]}   (row-major).

def _entries_to_json(arr: np.ndarray) -> list:
    # + 0.0 canonicalizes negative zeros so files round-trip byte-identically
    return (np.stack([arr.real, arr.imag], axis=-1) + 0.0).tolist()


def _entries_from_json(data: list, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValidationError(f"malformed complex entries of shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def operator_to_json(op: HermitianOperator) -> dict:
    return {"dims": list(op.dims), "data": _entries_to_json(op.mat)}


def operator_from_json(obj: dict) -> HermitianOperator:
    return HermitianOperator(_entries_from_json(obj["data"], 2), obj["dims"])


def dumps_canonical(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``: ASCII-escaped text, a 2-space indent, key
    order as built.  That encoder is pure Python once an indent is set; this one joins one
    list once and writes a list of finite ``[float, float]`` pairs (a matrix row) as one
    join of ``float.__repr__`` texts and separators fixed by depth and length."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_json(x) -> str:
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if not isinstance(x, (int, float)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    text = (float.__repr__ if isinstance(x, float) else int.__repr__)(x)
    return _FLOAT_NAMES.get(text, text)


def _pairs_json(items: list, nl: str) -> str | None:
    """A list of finite [float, float] pairs opened after newline-and-indent ``nl``, else None."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(items))
    if set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None  # an overflowing sum of finite values only costs the generic path
    row, pair = nl + "  ", nl + "    "
    parts = [f"[{row}[{pair}"] * (2 * len(flat) + 1)
    parts[2::2] = ([f",{pair}", f"{row}],{row}[{pair}"] * (len(items) - 1)
                   + [f",{pair}", f"{row}]{nl}]"])
    parts[1::2] = map(float.__repr__, flat)
    return "".join(parts)


def _write_json(obj, nl: str, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif not isinstance(obj, (list, tuple, dict)):
        out.append(_scalar_json(obj))
    elif isinstance(obj, dict):
        out.append("{" + (inner := nl + "  "))
        for key, value in obj.items():
            out.append(_escape(key if isinstance(key, str) else _scalar_json(key)) + ": ")
            _write_json(value, inner, out)
            out.append("," + inner)
        out[-1] = nl + "}" if obj else "{}"
    elif (text := _pairs_json(obj, nl)) is not None:
        out.append(text)
    else:
        out.append("[" + (inner := nl + "  "))
        for item in obj:
            _write_json(item, inner, out)
            out.append("," + inner)
        out[-1] = nl + "]" if obj else "[]"
