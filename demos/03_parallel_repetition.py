"""Perfect parallel repetition for separable accept operators.

Running two independent instances in parallel, with each prover holding
its pair of subsystems, cannot beat playing each instance optimally:
opt(C1 paired C2) = opt(C1) * opt(C2). The certificate is the dual
witness t1 t2 I - C1 (x) C2, which splits into two halves that are each
manifestly nonnegative on product states.
"""

import numpy as np

from multiprover import (
    HermitianOperator,
    SeparableOperator,
    default_rng,
    densify,
    pair_separable,
    random_separable_terms,
    spectral_norm,
    verify_perfect_repetition,
    witness_evidence,
    witness_summands,
)


def random_instance(dims, terms, rng):
    """Random separable operator scaled to unit norm, like an accept operator."""
    raw = random_separable_terms(dims, terms, rng)
    s = spectral_norm(densify(SeparableOperator(dims, raw)))
    scaled = [
        (HermitianOperator(fs[0].shape, fs[0].entries / s),) + tuple(fs[1:])
        for fs in raw
    ]
    return SeparableOperator(dims, scaled)


def main():
    rng = default_rng(5)
    c1 = random_instance([2, 2], 2, rng)
    c2 = random_instance([2, 3], 3, rng)

    print("single instances on dims", c1.shape.dims, "and", c2.shape.dims)
    print("paired instance on dims ", pair_separable(c1, c2).shape.dims,
          " (prover j holds X_j x Y_j)")

    report = verify_perfect_repetition(c1, c2, rng=rng)
    print(f"\nopt(C1)            = {report.v1:.9f}")
    print(f"opt(C2)            = {report.v2:.9f}")
    print(f"opt(paired)        = {report.v:.9f}")
    print(f"product of optima  = {report.t1t2:.9f}")
    print(f"|difference|       = {abs(report.v - report.t1t2):.2e}")
    print(f"witness minimum    = {report.witness_min:.2e}  (>= -1e-9 certifies)")
    print("verdict:", report.verdict)

    # The two dual-feasible halves behind the certificate
    print("\nwitness summands at (t1, t2) = (opt1, opt2):")
    for cand in witness_summands(c1, report.v1, c2, report.v2):
        val = witness_evidence(cand.operator, samples=5000, rng=rng).min_value
        print(f"  min over products of {cand.label}: {val:+.3e}")


if __name__ == "__main__":
    main()
