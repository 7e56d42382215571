import numpy as np
import pytest

from multiprover.instances import (
    classical_correlated_accept,
    entangled_accept_as_single_party,
    entangled_accept_operator,
    symmetric_bell_state,
)
from multiprover.linalg import (
    HermitianOperator,
    basis_state,
    hs_inner,
    identity,
    partial_transpose,
    tensor,
)
from multiprover.rand import default_rng, random_separable_terms
from multiprover.separable import (
    DualWitnessCandidate,
    SeparableOperator,
    densify,
    is_povm,
    ppt_check,
    separable_from_dict,
    separable_to_dict,
    witness_evidence,
)


# -- canonical instances -------------------------------------------------------


def test_entangled_accept_spectrum():
    c = entangled_accept_operator()
    w = np.sort(np.linalg.eigvalsh(c.entries))
    assert np.allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_entangled_accept_matrix_entries():
    # 1/2 |00><00| + 1/2 |Psi+><Psi+| in the computational basis
    c = entangled_accept_operator().entries
    want = np.zeros((4, 4))
    want[0, 0] = 0.5
    want[1, 1] = want[2, 2] = 0.25
    want[1, 2] = want[2, 1] = 0.25
    assert np.allclose(c, want, atol=1e-15)


def test_bell_state_overlap():
    psi = symmetric_bell_state()
    c = entangled_accept_operator()
    val = np.vdot(psi.amplitudes, c.entries @ psi.amplitudes).real
    assert val == pytest.approx(0.5, abs=1e-12)


def test_classical_correlated_accept_densifies():
    sep = classical_correlated_accept()
    dense = densify(sep)
    want = np.diag([0.5, 0.0, 0.0, 0.5])
    assert np.allclose(dense.entries, want, atol=1e-15)


# -- separable container -------------------------------------------------------


def test_separable_operator_validation():
    rng = default_rng(0)
    sep = SeparableOperator([2, 3], random_separable_terms([2, 3], 4, rng))
    assert sep.shape.dims == (2, 3)
    assert len(sep.terms) == 4
    # factor dimension mismatch
    with pytest.raises(ValueError):
        SeparableOperator([2, 3], [(identity([2]), identity([2]))])
    # factor count mismatch
    with pytest.raises(ValueError):
        SeparableOperator([2, 3], [(identity([2]),)])
    # non-PSD factor
    bad = HermitianOperator([2], np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="PSD"):
        SeparableOperator([2, 2], [(bad, identity([2]))])
    with pytest.raises(ValueError):
        SeparableOperator([2, 2], [])


def test_densify_matches_kron_sum():
    rng = default_rng(1)
    for _ in range(10):
        sep = SeparableOperator([2, 2, 3], random_separable_terms([2, 2, 3], 3, rng))
        dense = densify(sep)
        want = np.zeros((12, 12), dtype=complex)
        for fs in sep.terms:
            term = np.array([[1.0 + 0j]])
            for f in fs:
                term = np.kron(term, f.entries)
            want += term
        assert np.allclose(dense.entries, want, atol=1e-12)
        # every separable operator is PSD
        assert dense.min_eigenvalue() >= -1e-10


def test_separable_serialization_round_trip():
    rng = default_rng(2)
    sep = SeparableOperator([2, 3], random_separable_terms([2, 3], 2, rng))
    back = separable_from_dict(separable_to_dict(sep))
    assert np.allclose(densify(back).entries, densify(sep).entries, atol=1e-15)


# -- POVM check ----------------------------------------------------------------


def test_is_povm():
    p0 = basis_state([2], 0).projector()
    p1 = basis_state([2], 1).projector()
    assert is_povm([p0, p1])
    assert not is_povm([p0, p0])
    half = HermitianOperator([2], 0.5 * np.eye(2))
    assert is_povm([half, half])
    neg = HermitianOperator([2], np.diag([1.5, 1.0]))
    comp = HermitianOperator([2], np.diag([-0.5, 0.0]))
    assert not is_povm([neg, comp])


# -- PPT -----------------------------------------------------------------------


def test_ppt_check_on_separable_is_clean():
    rng = default_rng(3)
    for _ in range(10):
        sep = SeparableOperator([2, 3], random_separable_terms([2, 3], 3, rng))
        report = ppt_check(densify(sep))
        assert report.is_ppt
        assert all(v >= -1e-10 for v in report.min_eigenvalues)


def test_ppt_check_flags_entangled_accept():
    c = entangled_accept_operator()
    report = ppt_check(c)
    assert not report.is_ppt
    want = (1.0 - np.sqrt(2.0)) / 4.0
    assert len(report.min_eigenvalues) == 2
    for v in report.min_eigenvalues:
        assert v == pytest.approx(want, abs=1e-12)


def test_ppt_check_single_party_is_trivial():
    c = entangled_accept_as_single_party()
    report = ppt_check(densify(c))
    assert report.is_ppt  # transpose of a PSD operator stays PSD


# -- contradiction bookkeeping for the non-separability argument ----------------


def test_inner_product_obstruction_values():
    # If C were a separable sum, <11|C|11> = 0 would force every term to
    # vanish on |1>x|1>, contradicting the off-diagonal mass 1/4 that the
    # symmetric Bell component puts on |01><10|.
    c = entangled_accept_operator()
    p11 = basis_state([2, 2], 3).projector()
    assert hs_inner(c, p11) == pytest.approx(0.0, abs=1e-15)

    sym = HermitianOperator([2, 2], np.zeros((4, 4)))
    e01 = np.zeros((4, 4))
    e01[1, 2] = e01[2, 1] = 1.0
    sym = HermitianOperator([2, 2], e01)
    anti = np.zeros((4, 4), dtype=complex)
    anti[1, 2] = 1j
    anti[2, 1] = -1j
    skew = HermitianOperator([2, 2], anti)
    cross = 0.5 * (hs_inner(c, sym) + 1j * hs_inner(c, skew))
    assert cross == pytest.approx(0.25, abs=1e-15)
    assert c.entries[2, 1] == pytest.approx(0.25, abs=1e-15)


# -- witness evidence ------------------------------------------------------------


def test_witness_evidence_on_identity():
    rng = default_rng(4)
    ev = witness_evidence(identity([2, 2]), samples=2000, rng=rng)
    assert ev.feasible
    assert not ev.counterexample
    assert ev.min_value == pytest.approx(1.0, abs=1e-9)
    assert ev.samples == 2000


def test_witness_evidence_finds_product_violation():
    # W = 1/4 - |00><00| dips to -3/4 at the product state |00>
    m = 0.25 * np.eye(4)
    m[0, 0] = -0.75
    w = HermitianOperator([2, 2], m)
    ev = witness_evidence(w, samples=4000, rng=default_rng(5))
    assert ev.counterexample
    assert ev.min_value == pytest.approx(-0.75, abs=1e-6)
    # reported state reproduces the reported value
    vec = ev.state.vector()
    val = np.vdot(vec, w.entries @ vec).real
    assert val == pytest.approx(ev.min_value, abs=1e-12)


def test_witness_min_product_matches_global_min_when_psd():
    # C is PSD with kernel containing the product state |11>, so its product
    # minimum coincides with the global minimum 0
    c = entangled_accept_operator()
    val = witness_evidence(c, samples=4000, rng=default_rng(6)).min_value
    assert val >= -1e-9
    assert val <= 1e-6


def test_witness_candidate_label():
    w = DualWitnessCandidate(identity([2]), label="shifted identity")
    assert w.label == "shifted identity"
    assert w.operator.dim == 2


def test_witness_refinement_beats_raw_sampling():
    # with few samples the sampled minimum of W = I - C sits above the true
    # product minimum 0.5; local refinement must close the gap
    c = entangled_accept_operator()
    w = HermitianOperator([2, 2], np.eye(4) - c.entries)
    ev = witness_evidence(w, samples=50, rng=default_rng(7))
    assert ev.min_value == pytest.approx(0.5, abs=1e-7)
