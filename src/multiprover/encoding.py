"""Classical descriptions of pure states and their preparation plans.

A state on C^N is described componentwise by fixed-point real and
imaginary parts with f fractional bits (round to nearest). The induced
error obeys ||psi - psi'|| <= N * 2**-(f+1) for N >= 2, where psi' is the
renormalized decode; with the default f = 20 N the error is far below
any measurement resolution used elsewhere in this package.

Rounding and the exact error check run on Python integers: a float
amplitude is n / 2**e exactly (``float.as_integer_ratio``), so every
amplitude and every component is an integer numerator over one
power-of-two denominator and no step rounds.

A preparation plan turns a description into a short classical circuit:
N diagonal phases and N-1 Givens rotations that carry the basis state
e_0 onto the target. Verifying a plan needs only its application to e_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    PureState,
)


@dataclass(frozen=True)
class ClassicalStateDescription:
    """Fixed-point componentwise description of a pure state."""

    dimension: int
    precision_bits: int
    components: tuple[tuple[int, int], ...]

    def __init__(self, dimension, precision_bits, components):
        dimension = int(dimension)
        precision_bits = int(precision_bits)
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        comps = tuple((int(a), int(b)) for a, b in components)
        if len(comps) != dimension:
            raise ValueError(f"{len(comps)} components for dimension {dimension}")
        bound = 1 << (precision_bits + 1)
        for a, b in comps:
            if max(abs(a), abs(b)) >= bound:
                raise ValueError("component numerator out of range for precision")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "components", comps)


def default_precision(dimension: int) -> int:
    return 20 * int(dimension)


def _dyadic(x: float) -> tuple[int, int]:
    """(n, e) with x == n / 2**e exactly and e >= 0."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _round_fixed(x: float, f: int) -> int:
    # Exact round-to-nearest of x * 2**f, ties to even.
    n, e = _dyadic(x)
    if e <= f:
        return n << (f - e)
    s = e - f
    q = n >> s  # floor, also for negative n
    r = n - (q << s)
    half = 1 << (s - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q


def encode_state(psi: PureState, bits: int | None = None) -> ClassicalStateDescription:
    """Round each amplitude to the nearest multiple of 2**-bits."""
    n = psi.shape.total
    f = default_precision(n) if bits is None else int(bits)
    re, im = psi.amplitudes.real.tolist(), psi.amplitudes.imag.tolist()
    comps = [(_round_fixed(a, f), _round_fixed(b, f)) for a, b in zip(re, im)]
    return ClassicalStateDescription(n, f, comps)


def decode_state(desc: ClassicalStateDescription) -> PureState:
    """Renormalized state from a description; the zero description is an error."""
    # int true division is correctly rounded at any precision
    scale = 1 << desc.precision_bits
    v = np.array(
        [complex(a / scale, b / scale) for a, b in desc.components], dtype=np.complex128
    )
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("description decodes to the zero vector")
    return PureState(MultipartiteShape([desc.dimension]), v / nrm)


def description_error_bound(desc: ClassicalStateDescription) -> float:
    """N * 2**-(f+1); valid for N >= 2 (a 1-dimensional phase can exceed it)."""
    return desc.dimension * 2.0 ** -(desc.precision_bits + 1)


def encoding_error(psi: PureState, desc: ClassicalStateDescription) -> float:
    """Norm distance between the original state and the renormalized decode."""
    return float(np.linalg.norm(psi.amplitudes - decode_state(desc).amplitudes))


def encoding_error_squared_exact(psi: PureState, desc: ClassicalStateDescription) -> Fraction:
    """Exact squared distance between psi and the described (raw) vector.

    Float amplitudes are exact dyadic rationals, so the distance to the
    fixed-point description carries no roundoff. At high precision
    (f beyond ~50 bits) this is the only way to check the 2**-(f+1)
    rounding bound: float arithmetic cannot resolve it.

    The sum runs on integers: every amplitude n / 2**e and every component
    c / 2**f is written over the common denominator 2**L, L = max(f, every e),
    and the squared numerator differences are summed exactly.
    """
    f = desc.precision_bits
    re, im = psi.amplitudes.real.tolist(), psi.amplitudes.imag.tolist()
    terms = []
    for a, b, (cre, cim) in zip(re, im, desc.components):
        terms.append((_dyadic(a), cre))
        terms.append((_dyadic(b), cim))
    top = max([f] + [e for (_, e), _ in terms])
    acc = 0
    for (n, e), c in terms:
        diff = (n << (top - e)) - (c << (top - f))
        acc += diff * diff
    return Fraction(acc, 1 << (2 * top))


# -- hex serialization --------------------------------------------------------
#
# Components are packed as two's-complement words of f+2 bits (rounded up
# to whole bytes), big-endian, real part then imaginary part, and the
# whole register rendered as one hex string. Bit-exact round trip.


def _word_bytes(f: int) -> int:
    return (f + 2 + 7) // 8


def description_to_hex(desc: ClassicalStateDescription) -> str:
    nb = _word_bytes(desc.precision_bits)
    out = bytearray()
    for a, b in desc.components:
        out += a.to_bytes(nb, "big", signed=True)
        out += b.to_bytes(nb, "big", signed=True)
    return out.hex()


def description_from_hex(dimension: int, precision_bits: int, text: str) -> ClassicalStateDescription:
    nb = _word_bytes(precision_bits)
    raw = bytes.fromhex(text)
    if len(raw) != 2 * nb * dimension:
        raise ValueError(
            f"hex register holds {len(raw)} bytes, expected {2 * nb * dimension}"
        )
    comps = []
    for idx in range(dimension):
        off = 2 * nb * idx
        a = int.from_bytes(raw[off : off + nb], "big", signed=True)
        b = int.from_bytes(raw[off + nb : off + 2 * nb], "big", signed=True)
        comps.append((a, b))
    return ClassicalStateDescription(dimension, precision_bits, comps)


# -- preparation plans --------------------------------------------------------


@dataclass(frozen=True)
class PreparationPlan:
    """Diagonal phases plus Givens rotations carrying e_0 to the target.

    ``rotations`` hold (0, j, angle) in application order; angles come
    from eliminating component j into component 0 on the magnitude
    vector, so a basis-state target yields the all-zero canonical plan.
    """

    dimension: int
    phases: tuple[float, ...]
    rotations: tuple[tuple[int, int, float], ...]

    def __init__(self, dimension, phases, rotations):
        dimension = int(dimension)
        phases = tuple(float(p) for p in phases)
        rotations = tuple((int(a), int(b), float(t)) for a, b, t in rotations)
        if len(phases) != dimension:
            raise ValueError(f"{len(phases)} phases for dimension {dimension}")
        if len(rotations) != max(dimension - 1, 0):
            raise ValueError(
                f"{len(rotations)} rotations for dimension {dimension}; expected {dimension - 1}"
            )
        for a, b, _ in rotations:
            if not (0 <= a < dimension and 0 <= b < dimension and a != b):
                raise ValueError(f"rotation indices ({a}, {b}) out of range")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "rotations", rotations)


def preparation_plan(psi: PureState) -> PreparationPlan:
    """Phases and rotations preparing psi from e_0.

    The magnitude vector is reduced to e_0 by Givens eliminations of
    components N-1 down to 1 into component 0; the plan stores the
    inverse rotations in application order, followed by the component
    phases.
    """
    amps = psi.amplitudes
    n = amps.shape[0]
    phases = np.angle(amps)
    mags = np.abs(amps).astype(np.float64)

    elim = []
    v0 = float(mags[0])
    for j in range(n - 1, 0, -1):
        theta = math.atan2(float(mags[j]), v0)
        v0 = math.hypot(v0, float(mags[j]))
        elim.append((0, j, theta))
    rotations = tuple(reversed(elim))
    return PreparationPlan(n, tuple(float(p) for p in phases), rotations)


def apply_plan(plan: PreparationPlan) -> np.ndarray:
    """Run the plan from e_0."""
    w = np.zeros(plan.dimension, dtype=np.complex128)
    w[0] = 1.0
    for a, b, theta in plan.rotations:
        c, s = math.cos(theta), math.sin(theta)
        wa, wb = w[a], w[b]
        w[a] = c * wa - s * wb
        w[b] = s * wa + c * wb
    w *= np.exp(1j * np.asarray(plan.phases))
    return w


def apply_plan_adjoint(plan: PreparationPlan, vector: np.ndarray) -> np.ndarray:
    """Inverse of apply_plan; sends the target state back to e_0."""
    w = np.asarray(vector, dtype=np.complex128).copy()
    if w.shape != (plan.dimension,):
        raise ValueError("vector has the wrong dimension")
    w *= np.exp(-1j * np.asarray(plan.phases))
    for a, b, theta in reversed(plan.rotations):
        c, s = math.cos(theta), math.sin(theta)
        wa, wb = w[a], w[b]
        w[a] = c * wa + s * wb
        w[b] = -s * wa + c * wb
    return w


def plan_to_dict(plan: PreparationPlan) -> dict:
    return {
        "dimension": plan.dimension,
        "phases": list(plan.phases),
        "rotations": [list(r) for r in plan.rotations],
    }


def plan_from_dict(doc: dict) -> PreparationPlan:
    try:
        return PreparationPlan(doc["dimension"], doc["phases"], doc["rotations"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc


# -- one-message protocol simulation ------------------------------------------


def simulate_mqa_protocol(
    descriptions: Sequence[ClassicalStateDescription],
    accept_operator: HermitianOperator,
) -> float:
    """Acceptance probability when classical descriptions replace the proofs.

    Each description is decoded and the joint product state measured
    against {A, 1 - A}. The accept operator must be PSD with spectral
    norm at most 1.
    """
    if not descriptions:
        raise ValueError("need at least one description")
    dims = [d.dimension for d in descriptions]
    total = math.prod(dims)
    if total > DIM_CAP:
        raise CapacityError(f"joint dimension {total} exceeds cap {DIM_CAP}")
    if total != accept_operator.dim:
        raise ValueError(
            f"joint dimension {total} does not match accept operator "
            f"dimension {accept_operator.dim}"
        )
    evs = np.linalg.eigvalsh(accept_operator.entries)
    if evs[0] < -1e-10 or evs[-1] > 1.0 + 1e-9:
        raise ValueError("accept operator must satisfy 0 <= A <= 1")

    joint = decode_state(descriptions[0]).amplitudes
    for d in descriptions[1:]:
        joint = np.kron(joint, decode_state(d).amplitudes)
    val = float(np.real(joint.conj() @ (accept_operator.entries @ joint)))
    return min(max(val, 0.0), 1.0)
