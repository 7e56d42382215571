"""Separable operators, PPT screening, and entanglement-witness evidence.

A separable operator is stored in factored form, as a conic combination of
tensor products of local PSD factors. Membership of a candidate witness W
in the dual cone is screened numerically: minimize <product|W|product> over
sampled product states and refine the best candidates. A minimum clearly
below zero is a hard counterexample (a separable state on which W fails);
a minimum within tolerance of zero is evidence of dual feasibility.

The sampling runs on the same BLAS screening kernel as the sampled oracle
``optimize.brute_force_max``, keeping the lowest values instead of the
highest; the oracle itself still uses direct evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    operator_from_dict,
    operator_to_dict,
    partial_transpose,
    _as_shape,
)
from .optimize import SCREEN_CHUNK, ProductState, _qform, _screen_products, _seesaw_batch
from .rand import default_rng

FACTOR_PSD_TOL = 1e-10
POVM_SUM_TOL = 1e-9
EVIDENCE_TOL = 1e-9
COUNTEREXAMPLE_TOL = 1e-6
WITNESS_REFINE = 10  # lowest samples that witness_evidence refines


@dataclass(frozen=True)
class SeparableOperator:
    """Conic combination of products of local PSD factors."""

    shape: MultipartiteShape
    terms: tuple[tuple[HermitianOperator, ...], ...]

    def __init__(self, shape, terms):
        shape = _as_shape(shape)
        if not terms:
            raise ValueError("a separable operator needs at least one term")
        checked = []
        for t, factors in enumerate(terms):
            factors = tuple(factors)
            if len(factors) != shape.parties:
                raise ValueError(
                    f"term {t} has {len(factors)} factors for "
                    f"{shape.parties} subsystems"
                )
            for j, (f, d) in enumerate(zip(factors, shape.dims)):
                if f.dim != d:
                    raise ValueError(
                        f"term {t} factor {j} has dimension {f.dim}, expected {d}"
                    )
                lo = f.min_eigenvalue()
                if lo < -FACTOR_PSD_TOL:
                    raise ValueError(
                        f"term {t} factor {j} is not PSD: min eigenvalue {lo:.3e}"
                    )
            checked.append(factors)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", tuple(checked))


@dataclass(frozen=True)
class DualWitnessCandidate:
    """Hermitian operator proposed as a member of the dual separable cone."""

    operator: HermitianOperator
    label: str = ""


@dataclass(frozen=True)
class PptReport:
    min_eigenvalues: tuple[float, ...]
    is_ppt: bool


@dataclass(frozen=True)
class WitnessEvidence:
    min_value: float
    state: ProductState
    samples: int

    @property
    def feasible(self) -> bool:
        return self.min_value >= -EVIDENCE_TOL

    @property
    def counterexample(self) -> bool:
        return self.min_value < -COUNTEREXAMPLE_TOL


def densify(s: SeparableOperator) -> HermitianOperator:
    """Sum the factored terms into one dense operator."""
    total = s.shape.total
    if total > DIM_CAP:
        raise CapacityError(f"dense dimension {total} exceeds cap {DIM_CAP}")
    acc = np.zeros((total, total), dtype=np.complex128)
    for factors in s.terms:
        acc += reduce(np.kron, [f.entries for f in factors])
    return HermitianOperator(s.shape, acc)


def is_povm(effects) -> bool:
    """Check each effect PSD and the effects summing to the identity."""
    effects = list(effects)
    if not effects:
        return False
    dims = effects[0].shape.dims
    for e in effects:
        if e.shape.dims != dims:
            return False
        if e.min_eigenvalue() < -FACTOR_PSD_TOL:
            return False
    total = sum(e.entries for e in effects)
    gap = np.abs(total - np.eye(effects[0].dim)).max()
    return bool(gap <= POVM_SUM_TOL)


def ppt_check(a: HermitianOperator) -> PptReport:
    """Minimum eigenvalue of the partial transpose across every 1-subsystem cut.

    A negative value certifies that a (normalized PSD) operator is
    entangled; passing is necessary but not sufficient for separability.
    """
    mins = tuple(
        partial_transpose(a, s).min_eigenvalue() for s in range(a.shape.parties)
    )
    return PptReport(mins, bool(min(mins) >= -FACTOR_PSD_TOL))


def witness_evidence(
    w: HermitianOperator,
    *,
    samples: int = 20_000,
    rng=None,
) -> WitnessEvidence:
    """Minimize <product|W|product>: sampled screening plus seesaw refinement.

    The refinement maximizes <-W> with the same alternating-eigenvector
    updates used for primal optimization, started from the lowest sampled
    candidates, all refined in one batch.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    dims = w.shape.dims
    rng = default_rng(rng)
    wmat = w.entries
    vals, cands = _screen_products(
        wmat, dims, samples, rng, WITNESS_REFINE, SCREEN_CHUNK, lowest=True
    )
    best_val = float(vals[0])
    best_locs = cands[0]
    for val, out, _, _, _ in _seesaw_batch(-wmat, dims, cands):
        if -val < best_val:
            best_val = -val
            best_locs = out
    state = ProductState(w.shape, [v / np.linalg.norm(v) for v in best_locs])
    # Exact recompute at the reported state.
    best_val = min(best_val, _qform(wmat, list(state.locals)))
    return WitnessEvidence(min_value=best_val, state=state, samples=samples)


# -- serialization ------------------------------------------------------------
#
# {"dims": [...], "terms": [[factor, ...], ...]} with each factor an
# operator document on a single subsystem.


def separable_to_dict(s: SeparableOperator) -> dict:
    return {
        "dims": list(s.shape.dims),
        "terms": [[operator_to_dict(f) for f in factors] for factors in s.terms],
    }


def separable_from_dict(doc: dict) -> SeparableOperator:
    try:
        dims = doc["dims"]
        terms = doc["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed separable document: {exc}") from exc
    parsed = [tuple(operator_from_dict(f) for f in factors) for factors in terms]
    return SeparableOperator(MultipartiteShape(dims), parsed)
