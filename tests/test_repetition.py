import numpy as np
import pytest

from multiprover.instances import (
    classical_correlated_accept,
    entangled_accept_as_single_party,
)
from multiprover.linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    hs_inner,
    identity,
)
from multiprover.optimize import ProductState, product_value, seesaw_max
from multiprover.rand import default_rng, haar_vector, random_separable_terms
from multiprover.repetition import (
    PartyCountError,
    pair_separable,
    verify_perfect_repetition,
    witness_summands,
)
from multiprover.repetition import _pair_operators
from multiprover.separable import SeparableOperator, densify, witness_evidence


def random_sep(dims, terms, rng):
    return SeparableOperator(dims, random_separable_terms(dims, terms, rng))


def paired(c1, c2):
    return densify(pair_separable(c1, c2))


def bound_witness(c, t):
    """t * I - C for a claimed bound t on the product-state optimum."""
    return HermitianOperator(c.shape, t * np.eye(c.shape.total) - densify(c).entries)


# -- pairing --------------------------------------------------------------------


def test_pair_separable_merges_per_prover():
    rng = default_rng(0)
    c1 = random_sep([2, 3], 2, rng)
    c2 = random_sep([2, 2], 2, rng)
    assert pair_separable(c1, c2).shape.dims == (4, 6)
    assert paired(c1, c2).shape.dims == (4, 6)


def test_pair_separable_value_on_product_states():
    # paired form evaluated at (a x c, b x d) equals the product of the two
    # single-instance forms at (a, b) and (c, d)
    rng = default_rng(1)
    c1 = random_sep([2, 2], 2, rng)
    c2 = random_sep([2, 2], 2, rng)
    d1, d2 = densify(c1), densify(c2)
    pair = paired(c1, c2)
    for _ in range(10):
        a, b, c, d = (haar_vector(2, rng) for _ in range(4))
        v1 = product_value(d1, ProductState([2, 2], [a, b]))
        v2 = product_value(d2, ProductState([2, 2], [c, d]))
        merged = ProductState([4, 4], [np.kron(a, c), np.kron(b, d)])
        v = product_value(pair, merged)
        assert v == pytest.approx(v1 * v2, abs=1e-12)


def test_pair_separable_matches_dense_pairing():
    # the factored pairing and the dense one that verification optimizes
    # over are the same operator
    rng = default_rng(2)
    c1 = random_sep([2, 2], 3, rng)
    c2 = random_sep([2, 2], 2, rng)
    rhs = _pair_operators(densify(c1), densify(c2))
    assert np.allclose(paired(c1, c2).entries, rhs.entries, atol=1e-12)
    assert len(pair_separable(c1, c2).terms) == 6


def test_pair_separable_treats_each_factor_as_one_prover():
    # a factor tagged with two subsystems is still one prover's operator:
    # its pairing is the plain Kronecker product, not a regrouped one
    rng = default_rng(15)
    c1 = random_sep([4], 2, rng)
    c2 = random_sep([4], 1, rng)
    tagged = SeparableOperator(
        [4], [(HermitianOperator([2, 2], f.entries),) for (f,) in c1.terms]
    )
    assert np.array_equal(paired(tagged, c2).entries, paired(c1, c2).entries)


def test_pair_party_count_mismatch():
    rng = default_rng(3)
    c1 = random_sep([2], 1, rng)
    c2 = random_sep([2, 2], 1, rng)
    with pytest.raises(PartyCountError):
        verify_perfect_repetition(c1, c2)
    with pytest.raises(PartyCountError):
        witness_summands(c1, 1.0, c2, 1.0)
    with pytest.raises(PartyCountError):
        pair_separable(c1, c2)


def test_pair_capacity():
    # the paired dimension 129**2 exceeds the cap even though each dense
    # instance (129) is within it; the pair is rejected before densifying
    rng = default_rng(4)
    c = random_sep([129], 1, rng)
    assert c.shape.total <= DIM_CAP < c.shape.total ** 2
    with pytest.raises(CapacityError):
        verify_perfect_repetition(c, c)
    with pytest.raises(CapacityError):
        witness_summands(c, 1, c, 1)


# -- duals ------------------------------------------------------------------------


def test_bound_witness_strict_feasibility():
    # t = 2 with ||C|| <= 1 leaves slack >= 1 on every product state
    c = entangled_accept_as_single_party()
    val = witness_evidence(bound_witness(c, 2.0), samples=2000, rng=default_rng(5)).min_value
    assert val >= 1.0 - 1e-9
    # spectral norm of this instance is 1/2, so the slack is exactly 3/2
    assert val == pytest.approx(1.5, abs=1e-8)


def test_witness_summands_average_to_witness():
    rng = default_rng(7)
    c1 = random_sep([2, 2], 2, rng)
    c2 = random_sep([2, 2], 2, rng)
    first, second = witness_summands(c1, 0.6, c2, 0.5)
    want = 0.6 * 0.5 * np.eye(16) - paired(c1, c2).entries
    mean = 0.5 * (first.operator.entries + second.operator.entries)
    assert np.allclose(mean, want, atol=1e-13)
    assert first.label != second.label


def test_witness_summands_each_nonnegative_on_products():
    # with valid bounds t_i >= opt(C_i), each summand is a tensor product of
    # an operator nonnegative on product states with a PSD operator
    rng = default_rng(8)
    c1 = random_sep([2, 2], 2, rng)
    c2 = random_sep([2, 2], 2, rng)
    t1 = seesaw_max(densify(c1), restarts=8, rng=rng).value + 1e-8
    t2 = seesaw_max(densify(c2), restarts=8, rng=rng).value + 1e-8
    for cand in witness_summands(c1, t1, c2, t2):
        val = witness_evidence(cand.operator, samples=4000, rng=rng).min_value
        assert val >= -1e-9, cand.label


def test_weak_duality_for_repetition_pairs():
    # t1 t2 from converged single-instance bounds upper-bounds the paired
    # seesaw value
    rng = default_rng(9)
    for _ in range(10):
        c1 = random_sep([2, 2], 2, rng)
        c2 = random_sep([2], 2, rng) if rng.random() < 0.3 else random_sep([2, 2], 2, rng)
        if c1.shape.parties != c2.shape.parties:
            c2 = random_sep([2, 2], 2, rng)
        t1 = seesaw_max(densify(c1), restarts=8, rng=rng).value
        t2 = seesaw_max(densify(c2), restarts=8, rng=rng).value
        v = seesaw_max(paired(c1, c2), restarts=8, rng=rng).value
        assert t1 * t2 - v >= -1e-9


# -- end-to-end verification -------------------------------------------------------


def test_verify_canonical_single_party_square():
    c = entangled_accept_as_single_party()
    report = verify_perfect_repetition(c, c, rng=10)
    assert report.verdict == "perfect"
    assert report.v1 == pytest.approx(0.5, abs=1e-8)
    assert report.v2 == pytest.approx(0.5, abs=1e-8)
    assert report.v == pytest.approx(0.25, abs=1e-6)
    assert report.witness_min >= -1e-9
    doc = report.to_dict()
    assert set(doc) >= {"v1", "v2", "v", "t1t2", "witness_min", "verdict"}


def test_verify_classical_two_party_square():
    c = classical_correlated_accept()
    report = verify_perfect_repetition(c, c, rng=11)
    assert report.verdict == "perfect"
    assert report.v1 == pytest.approx(0.5, abs=1e-8)
    assert report.v == pytest.approx(0.25, abs=1e-6)


def test_verify_mixed_instances():
    rng = default_rng(12)
    c1 = random_sep([2, 2], 2, rng)
    c2 = random_sep([3, 2], 2, rng)
    report = verify_perfect_repetition(c1, c2, rng=rng)
    assert report.verdict == "perfect"
    assert abs(report.v - report.v1 * report.v2) <= 1e-3
    assert report.v >= report.v1 * report.v2 - 1e-9


def test_verify_flags_violation_of_planted_bound():
    # verdict machinery: feed a witness check an operator that is NOT a
    # valid pairing by lowering t below the true optimum
    rng = default_rng(13)
    c = random_sep([2, 2], 2, rng)
    v = seesaw_max(densify(c), restarts=8, rng=rng).value
    val = witness_evidence(bound_witness(c, 0.5 * v), samples=4000, rng=rng).min_value
    assert val < -1e-6  # certified counterexample to the fake bound


def test_threefold_chaining():
    c = entangled_accept_as_single_party()
    twice = pair_separable(c, c)
    thrice = pair_separable(twice, c)
    dense = densify(thrice)
    assert dense.shape.dims == (64,)
    res = seesaw_max(dense, restarts=4, rng=14)
    assert res.value == pytest.approx(0.125, abs=1e-9)
