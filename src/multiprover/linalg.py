"""Dense linear algebra over multipartite Hilbert spaces.

Operators live on a tensor product of finite-dimensional subsystems.
Subsystem 0 is the most significant Kronecker factor throughout, i.e.
``tensor(A, B)`` lays out ``np.kron(A, B)`` and basis index
``i = i_0 * d_1 * ... * d_{m-1} + ...`` with ``i_0`` the index on
subsystem 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

# Dense storage cap on the total dimension; everything here is O(D^2) memory.
DIM_CAP = 2 ** 14

HERMITICITY_TOL = 1e-12
STATE_NORM_TOL = 1e-12


class CapacityError(RuntimeError):
    """Requested object exceeds the configured dense-dimension cap."""


def _is_integer(value) -> bool:
    # bool is an int subclass; floats and strings would be truncated or
    # parsed by int() instead of rejected.
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _dims_tuple(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(dims)
    for d in out:
        if not _is_integer(d):
            raise ValueError(f"subsystem dimensions must be integers, got {d!r} in {list(out)!r}")
    out = tuple(int(d) for d in out)
    if not out:
        raise ValueError("at least one subsystem is required")
    if any(d < 1 for d in out):
        raise ValueError(f"subsystem dimensions must be >= 1, got {out}")
    return out


@dataclass(frozen=True)
class MultipartiteShape:
    """Ordered tuple of local dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        object.__setattr__(self, "dims", _dims_tuple(dims))

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def parties(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)


def _as_shape(shape) -> MultipartiteShape:
    if isinstance(shape, MultipartiteShape):
        return shape
    return MultipartiteShape(shape)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix tagged with a multipartite shape.

    Construction symmetrizes the entries as (M + M*)/2 provided the
    asymmetry max|M - M*| is within ``HERMITICITY_TOL``; larger asymmetry
    is rejected rather than silently averaged away.
    """

    shape: MultipartiteShape
    entries: np.ndarray

    def __init__(self, shape, entries):
        shape = _as_shape(shape)
        m = np.asarray(entries, dtype=np.complex128)
        if m.shape != (shape.total, shape.total):
            raise ValueError(
                f"entries shape {m.shape} does not match total dimension "
                f"{shape.total}"
            )
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        gap = np.abs(m - m.conj().T).max() if m.size else 0.0
        if gap > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max|M - M*| = {gap:.3e}")
        m = (m + m.conj().T) / 2
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.shape.total

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_shape(other)
        return HermitianOperator(self.shape, self.entries + other.entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_shape(other)
        return HermitianOperator(self.shape, self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.shape, self.entries * float(scalar))

    __rmul__ = __mul__

    def _check_same_shape(self, other: "HermitianOperator") -> None:
        if self.shape.dims != other.shape.dims:
            raise ValueError(
                f"shape mismatch: {self.shape.dims} vs {other.shape.dims}"
            )

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


@dataclass(frozen=True)
class PureState:
    """Unit vector on a multipartite space."""

    shape: MultipartiteShape
    amplitudes: np.ndarray

    def __init__(self, shape, amplitudes):
        shape = _as_shape(shape)
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if v.shape != (shape.total,):
            raise ValueError(
                f"amplitude length {v.shape[0]} does not match total "
                f"dimension {shape.total}"
            )
        if not np.isfinite(v).all():
            raise ValueError("amplitudes must be finite")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state is not normalized: ||psi|| = {nrm!r}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "amplitudes", _readonly(v))

    @classmethod
    def normalized(cls, shape, amplitudes) -> "PureState":
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(shape, v / nrm)

    def projector(self) -> HermitianOperator:
        v = self.amplitudes
        return HermitianOperator(self.shape, np.outer(v, v.conj()))


def basis_state(shape, index: int) -> PureState:
    shape = _as_shape(shape)
    v = np.zeros(shape.total, dtype=np.complex128)
    v[index] = 1.0
    return PureState(shape, v)


def identity(shape) -> HermitianOperator:
    shape = _as_shape(shape)
    return HermitianOperator(shape, np.eye(shape.total, dtype=np.complex128))


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product with a's subsystems ahead of b's."""
    total = a.dim * b.dim
    if total > DIM_CAP:
        raise CapacityError(f"tensor product dimension {total} exceeds cap {DIM_CAP}")
    dims = a.shape.dims + b.shape.dims
    return HermitianOperator(MultipartiteShape(dims), np.kron(a.entries, b.entries))


def partial_trace(a: HermitianOperator, keep: Sequence[int]) -> HermitianOperator:
    """Trace out all subsystems not listed in ``keep``.

    The result carries the kept dimensions in their original order,
    regardless of the order given in ``keep``.
    """
    dims = a.shape.dims
    m = len(dims)
    keep_set = sorted(set(int(k) for k in keep))
    if not keep_set:
        raise ValueError("keep must name at least one subsystem")
    if len(keep_set) != len(list(keep)):
        raise ValueError("keep contains duplicate subsystem indices")
    if keep_set[0] < 0 or keep_set[-1] >= m:
        raise IndexError(f"keep indices {keep_set} out of range for {m} subsystems")

    t = a.entries.reshape(dims + dims)
    # Row axis i is labeled i; column axis i is labeled m+i when kept,
    # i when traced (shared label contracts the pair).
    row = list(range(m))
    col = [m + i if i in keep_set else i for i in range(m)]
    out = [i for i in keep_set] + [m + i for i in keep_set]
    reduced = np.einsum(t, row + col, out)
    kept_dims = tuple(dims[i] for i in keep_set)
    d = prod(kept_dims)
    return HermitianOperator(MultipartiteShape(kept_dims), reduced.reshape(d, d))


def partial_transpose(a: HermitianOperator, subsystem: int) -> HermitianOperator:
    """Transpose one subsystem in place; applying it twice is the identity."""
    dims = a.shape.dims
    m = len(dims)
    s = int(subsystem)
    if s < 0 or s >= m:
        raise IndexError(f"subsystem {s} out of range for {m} subsystems")
    t = a.entries.reshape(dims + dims)
    t = np.swapaxes(t, s, m + s)
    return HermitianOperator(a.shape, t.reshape(a.dim, a.dim))


def permute_subsystems(a: HermitianOperator, perm: Sequence[int]) -> HermitianOperator:
    """Reorder subsystems so that new subsystem i is old subsystem perm[i]."""
    dims = a.shape.dims
    m = len(dims)
    p = tuple(int(i) for i in perm)
    if sorted(p) != list(range(m)):
        raise ValueError(f"perm {p} is not a permutation of range({m})")
    t = a.entries.reshape(dims + dims)
    t = t.transpose([*p, *(m + i for i in p)])
    new_dims = tuple(dims[i] for i in p)
    d = a.dim
    return HermitianOperator(MultipartiteShape(new_dims), t.reshape(d, d))


def trace_norm(a: HermitianOperator) -> float:
    """Sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a.entries)).sum())


def spectral_norm(a: HermitianOperator) -> float:
    """Largest absolute eigenvalue."""
    return float(np.abs(np.linalg.eigvalsh(a.entries)).max())


def hs_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt inner product Tr(A* B); real for Hermitian arguments."""
    a._check_same_shape(b)
    return float(np.vdot(a.entries, b.entries).real)


# -- serialization ------------------------------------------------------------
#
# Operator documents are JSON: {"dims": [...], "re": [[...]], "im": [[...]]},
# both parts dense row-major real matrices.


def operator_to_dict(a: HermitianOperator) -> dict:
    return {
        "dims": list(a.shape.dims),
        "re": a.entries.real.tolist(),
        "im": a.entries.imag.tolist(),
    }


def _check_finite_parts(re: np.ndarray, im: np.ndarray, what: str) -> None:
    # Before re + 1j * im: an infinite im entry would make numpy warn
    # (0 * inf) before the constructor's own check could reject it.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{what} must be finite")


def operator_from_dict(doc: dict) -> HermitianOperator:
    try:
        dims = doc["dims"]
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError("re/im parts must be matching 2-d matrices")
    _check_finite_parts(re, im, "matrix entries")
    return HermitianOperator(MultipartiteShape(dims), re + 1j * im)


def state_to_dict(psi: PureState) -> dict:
    return {
        "dims": list(psi.shape.dims),
        "re": psi.amplitudes.real.tolist(),
        "im": psi.amplitudes.imag.tolist(),
    }


def state_from_dict(doc: dict) -> PureState:
    try:
        dims = doc["dims"]
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    _check_finite_parts(re, im, "amplitudes")
    return PureState(MultipartiteShape(dims), re + 1j * im)
