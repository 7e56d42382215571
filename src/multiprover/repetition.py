"""Pairing of two multi-prover instances and perfect-repetition certificates.

Running two accept operators C1 (on X_1 ... X_m) and C2 (on Y_1 ... Y_m) in
parallel gives the operator C1 (x) C2 with prover j holding the pair
(X_j, Y_j). The pairing permutation regroups X_1...X_m Y_1...Y_m into
(X_1 Y_1) ... (X_m Y_m) so that the joint operator is again an m-party
object. For separable accept operators the product-state optimum
multiplies; the certificate plays both sides:

* primal: optimized product values v1, v2 and paired value v;
* dual: the witness t1 t2 * I - C1 (x) C2 splits into two manifestly
  dual-feasible summands, and its minimum over sampled product states
  certifies (numerically) that no paired product strategy beats t1 t2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    identity,
    permute_subsystems,
)
from .optimize import OptimizationResult, ProductState, seesaw_max
from .separable import (
    COUNTEREXAMPLE_TOL,
    EVIDENCE_TOL,
    DualWitnessCandidate,
    SeparableOperator,
    WitnessEvidence,
    densify,
    witness_evidence,
)
from .rand import default_rng

RESTARTS = 16  # seesaw restarts per optimization in verify_perfect_repetition


class PartyCountError(ValueError):
    """The two instances do not have the same number of provers."""


@dataclass(frozen=True)
class RepetitionReport:
    v1: float
    v2: float
    v: float
    t1t2: float
    witness_min: float
    verdict: str
    witness_state: ProductState

    def to_dict(self) -> dict:
        return {
            "v1": self.v1,
            "v2": self.v2,
            "v": self.v,
            "t1t2": self.t1t2,
            "witness_min": self.witness_min,
            "verdict": self.verdict,
        }


def _interleave_permutation(m: int) -> tuple[int, ...]:
    out = []
    for j in range(m):
        out.extend((j, m + j))
    return tuple(out)


def _check_parties(c1: SeparableOperator, c2: SeparableOperator) -> None:
    m = c1.shape.parties
    if c2.shape.parties != m:
        raise PartyCountError(
            f"cannot pair a {m}-party instance with a "
            f"{c2.shape.parties}-party instance"
        )


def _pair_operators(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """a (x) b regrouped so that subsystem j holds (X_j, Y_j)."""
    joint = HermitianOperator(
        MultipartiteShape(a.shape.dims + b.shape.dims), np.kron(a.entries, b.entries)
    )
    merged = tuple(x * y for x, y in zip(a.shape.dims, b.shape.dims))
    permuted = permute_subsystems(joint, _interleave_permutation(a.shape.parties))
    return HermitianOperator(MultipartiteShape(merged), permuted.entries)


def _densify_pair(c1: SeparableOperator, c2: SeparableOperator):
    """Dense C1 and C2 of two instances whose paired dimension is within the cap."""
    _check_parties(c1, c2)
    total = c1.shape.total * c2.shape.total
    if total > DIM_CAP:
        raise CapacityError(f"paired dimension {total} exceeds cap {DIM_CAP}")
    return densify(c1), densify(c2)


def _one_party(f: HermitianOperator) -> HermitianOperator:
    # a factor is one prover's operator, whatever subsystems it is tagged with
    return HermitianOperator(MultipartiteShape([f.dim]), f.entries)


def pair_separable(c1: SeparableOperator, c2: SeparableOperator) -> SeparableOperator:
    """Factored form of the paired operator; stays inside the separable cone."""
    _check_parties(c1, c2)
    merged = tuple(x * y for x, y in zip(c1.shape.dims, c2.shape.dims))
    terms = [
        tuple(_pair_operators(_one_party(pf), _one_party(qf)) for pf, qf in zip(p, q))
        for p in c1.terms
        for q in c2.terms
    ]
    return SeparableOperator(MultipartiteShape(merged), terms)


def witness_summands(
    c1: SeparableOperator,
    t1: float,
    c2: SeparableOperator,
    t2: float,
) -> tuple[DualWitnessCandidate, DualWitnessCandidate]:
    """The two dual-feasible halves whose mean is the repetition witness.

    (t1 I - C1) (x) (t2 I + C2) and (t1 I + C1) (x) (t2 I - C2): each is a
    product of an operator nonnegative on product states with a PSD one,
    so each lies in the dual separable cone whenever t1, t2 are valid
    bounds; their mean equals t1 t2 * I - C1 (x) C2 exactly.
    """
    d1, d2 = _densify_pair(c1, c2)
    i1 = identity(c1.shape)
    i2 = identity(c2.shape)
    first = _pair_operators(float(t1) * i1 - d1, float(t2) * i2 + d2)
    second = _pair_operators(float(t1) * i1 + d1, float(t2) * i2 - d2)
    return (
        DualWitnessCandidate(first, label="(t1 I - C1) x (t2 I + C2)"),
        DualWitnessCandidate(second, label="(t1 I + C1) x (t2 I - C2)"),
    )


def verify_perfect_repetition(
    c1: SeparableOperator,
    c2: SeparableOperator,
    tol: float = 1e-3,
    *,
    rng=None,
) -> RepetitionReport:
    """Certify opt(C1 paired C2) = opt(C1) * opt(C2) numerically.

    The paired optimization is warm-started with the product of the two
    single-instance optimizers, so v >= v1 v2 up to roundoff always holds;
    the dual witness at t1 t2 = v1 v2 rules out paired product states
    above that value. Verdicts:

    * ``perfect``: |v - v1 v2| <= tol and the witness minimum is not
      meaningfully negative;
    * ``violated``: hard numerical evidence against perfect repetition (a
      paired product state beating v1 v2 beyond counterexample tolerance);
    * ``inconclusive``: neither, e.g. optimization failed to close the gap.
    """
    rng = default_rng(rng)
    d1, d2 = _densify_pair(c1, c2)
    paired = _pair_operators(d1, d2)
    ch = rng.spawn(4)

    r1: OptimizationResult = seesaw_max(d1, restarts=RESTARTS, rng=ch[0])
    r2: OptimizationResult = seesaw_max(d2, restarts=RESTARTS, rng=ch[1])
    warm = ProductState(
        paired.shape,
        [np.kron(a, b) for a, b in zip(r1.state.locals, r2.state.locals)],
    )
    rp = seesaw_max(paired, restarts=RESTARTS, rng=ch[2], initial_states=[warm])

    v1, v2, v = r1.value, r2.value, rp.value
    t1t2 = v1 * v2
    witness = HermitianOperator(
        paired.shape, t1t2 * np.eye(paired.shape.total) - paired.entries
    )
    ev: WitnessEvidence = witness_evidence(witness, rng=ch[3])

    gap_ok = abs(v - t1t2) <= tol
    if v > t1t2 + COUNTEREXAMPLE_TOL or ev.min_value < -COUNTEREXAMPLE_TOL:
        verdict = "violated"
    elif gap_ok and ev.min_value >= -EVIDENCE_TOL:
        verdict = "perfect"
    else:
        verdict = "inconclusive"
    return RepetitionReport(
        v1=v1,
        v2=v2,
        v=v,
        t1t2=t1t2,
        witness_min=ev.min_value,
        verdict=verdict,
        witness_state=ev.state,
    )
