import numpy as np
import pytest

from multiprover.instances import entangled_accept_operator
from multiprover.linalg import (
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    basis_state,
    identity,
    tensor,
)
from multiprover.optimize import (
    OptimizationResult,
    ProductState,
    brute_force_max,
    effective_operator,
    product_value,
    seesaw_max,
)
from multiprover.rand import default_rng, haar_vector, random_psd


def psd_op(dims, rng):
    shape = MultipartiteShape(dims)
    return HermitianOperator(shape, random_psd(shape.total, rng))


# -- product states and form evaluation -----------------------------------------


def test_product_state_vector_layout():
    s = ProductState([2, 2], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(s.vector(), [0, 1, 0, 0])  # |0> x |1> -> index 1


def test_product_state_requires_unit_factors():
    with pytest.raises(ValueError):
        ProductState([2], [np.array([1.0, 1.0])])
    with pytest.raises(ValueError):
        ProductState([2, 2], [np.array([1.0, 0.0])])


def test_product_value_matches_direct_form():
    rng = default_rng(0)
    c = psd_op([2, 3], rng)
    for _ in range(10):
        locs = [haar_vector(2, rng), haar_vector(3, rng)]
        s = ProductState([2, 3], locs)
        joint = s.vector()
        want = float(np.vdot(joint, c.entries @ joint).real)
        assert product_value(c, s) == pytest.approx(want, abs=1e-12)


def test_effective_operator_reproduces_value():
    # <phi_j| C_eff(j) |phi_j> equals the full form value for every site
    rng = default_rng(1)
    c = psd_op([2, 2, 3], rng)
    locs = [haar_vector(2, rng), haar_vector(2, rng), haar_vector(3, rng)]
    s = ProductState([2, 2, 3], locs)
    want = product_value(c, s)
    for j in range(3):
        eff = effective_operator(c, s, j)
        got = float(np.vdot(locs[j], eff.entries @ locs[j]).real)
        assert got == pytest.approx(want, abs=1e-10)


# -- seesaw on the canonical instance -------------------------------------------


def test_seesaw_canonical_value_and_state():
    c = entangled_accept_operator()
    res = seesaw_max(c, restarts=8, rng=0)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    # optimum is |00>; fidelity must be essentially exact after polishing
    fid = abs(res.state.vector()[0]) ** 2
    assert fid >= 1.0 - 1e-10
    assert res.converged


def test_seesaw_beats_every_restart_trace():
    c = entangled_accept_operator()
    res = seesaw_max(c, restarts=6, rng=1)
    assert res.trace, "per-restart values should be recorded"
    assert res.value >= max(res.trace) - 1e-12


def test_seesaw_on_identity():
    res = seesaw_max(identity([2, 2]), restarts=2, rng=2)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_seesaw_single_party_is_top_eigenvalue():
    rng = default_rng(3)
    for _ in range(5):
        c = psd_op([6], rng)
        res = seesaw_max(c, restarts=4, rng=rng)
        top = float(np.linalg.eigvalsh(c.entries)[-1])
        assert res.value == pytest.approx(top, abs=1e-8)


def test_seesaw_rejects_indefinite_operator():
    m = np.diag([1.0, -1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="PSD"):
        seesaw_max(HermitianOperator([2, 2], m))


def test_seesaw_deterministic_for_fixed_seed():
    c = psd_op([2, 3], default_rng(4))
    a = seesaw_max(c, restarts=5, rng=11)
    b = seesaw_max(c, restarts=5, rng=11)
    assert a.value == b.value
    assert np.array_equal(a.state.vector(), b.state.vector())


def test_seesaw_warm_start_is_never_discarded():
    c = entangled_accept_operator()
    warm = ProductState([2, 2], [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    res = seesaw_max(c, restarts=0, rng=5, initial_states=[warm])
    assert res.value >= product_value(c, warm) - 1e-12
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_seesaw_reads_initial_states_from_an_iterator():
    c = entangled_accept_operator()
    warm = ProductState([2, 2], [np.array([1.0, 0.0]), np.array([0.6, 0.8])])
    a = seesaw_max(c, restarts=2, rng=5, initial_states=iter([warm]))
    b = seesaw_max(c, restarts=2, rng=5, initial_states=[warm])
    assert a.value == b.value and a.trace == b.trace
    assert np.array_equal(a.state.vector(), b.state.vector())


@pytest.mark.parametrize("initial_states", [(), [], iter([])], ids=["tuple", "list", "iterator"])
def test_seesaw_rejects_an_empty_start_set(initial_states):
    with pytest.raises(ValueError, match="at least one restart or initial state"):
        seesaw_max(entangled_accept_operator(), restarts=0, initial_states=initial_states)


@pytest.mark.parametrize("warm_starts", [0, 1])
def test_seesaw_rejects_negative_restarts(warm_starts):
    warm = ProductState([2, 2], [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(ValueError, match="restarts must be >= 0, got -1"):
        seesaw_max(entangled_accept_operator(), restarts=-1, initial_states=[warm] * warm_starts)


def test_seesaw_result_dict():
    res = seesaw_max(entangled_accept_operator(), restarts=2, rng=6)
    doc = res.to_dict()
    assert set(doc) >= {"value", "iterations", "converged", "locals", "trace"}
    assert len(doc["locals"]) == 2
    assert isinstance(res, OptimizationResult)


def test_value_clamped_nonnegative():
    z = HermitianOperator([2, 2], np.zeros((4, 4)))
    res = seesaw_max(z, restarts=1, rng=7)
    assert res.value == 0.0


# -- brute-force oracle ---------------------------------------------------------


def test_brute_force_single_party_matches_top_eigenvalue():
    rng = default_rng(8)
    for _ in range(5):
        c = psd_op([5], rng)
        got = brute_force_max(c, samples=4000, rng=rng)
        top = float(np.linalg.eigvalsh(c.entries)[-1])
        assert got == pytest.approx(top, abs=1e-6)


def test_brute_force_canonical_instance():
    c = entangled_accept_operator()
    got = brute_force_max(c, samples=20_000, rng=9)
    assert got == pytest.approx(0.5, abs=1e-6)


def test_brute_force_dimension_cap():
    with pytest.raises(CapacityError):
        brute_force_max(identity([2] * 7), samples=10)


def test_brute_force_never_exceeds_global_max():
    rng = default_rng(10)
    for _ in range(5):
        c = psd_op([2, 2], rng)
        got = brute_force_max(c, samples=3000, rng=rng)
        top = float(np.linalg.eigvalsh(c.entries)[-1])
        assert got <= top + 1e-10


def test_routes_agree_on_random_instances():
    # the large-scale version runs in the acceptance suite
    rng = default_rng(11)
    for _ in range(10):
        c = psd_op([2, 2], rng)
        a = seesaw_max(c, restarts=12, rng=rng).value
        b = brute_force_max(c, samples=20_000, rng=rng)
        assert a == pytest.approx(b, abs=1e-5)
        assert a >= b - 1e-9  # sampling cannot beat the converged ascent


def test_routes_agree_on_rank_one_product_target():
    # C = projector onto a product state: optimum exactly 1 at that state
    rng = default_rng(12)
    locs = [haar_vector(2, rng), haar_vector(2, rng), haar_vector(2, rng)]
    joint = np.kron(np.kron(locs[0], locs[1]), locs[2])
    c = HermitianOperator([2, 2, 2], np.outer(joint, joint.conj()))
    res = seesaw_max(c, restarts=8, rng=rng)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    got = brute_force_max(c, samples=30_000, rng=rng)
    assert got == pytest.approx(1.0, abs=1e-4)


def test_seesaw_dominates_entangled_overlap_on_shared_bell_instance():
    # product-state value of C (x) C under the pairing permutation stays at
    # the product of the single-copy optima even though the global maximum
    # is larger; the optimizer must not report the entangled value
    c = entangled_accept_operator()
    paired = tensor(c, c)
    res = seesaw_max(paired, restarts=16, rng=13)
    top = float(np.linalg.eigvalsh(paired.entries)[-1])
    assert res.value == pytest.approx(0.25, abs=1e-6)
    assert res.value <= top + 1e-12
