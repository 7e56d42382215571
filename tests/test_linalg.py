import json
import re
import warnings

import numpy as np
import pytest

from multiprover.linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    PureState,
    basis_state,
    hs_inner,
    identity,
    operator_from_dict,
    operator_to_dict,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    spectral_norm,
    state_from_dict,
    tensor,
    trace_norm,
)
from multiprover.instances import entangled_accept_operator
from multiprover.rand import haar_vector, random_density, random_hermitian


def herm(dims, rng, scale=1.0):
    shape = MultipartiteShape(dims)
    return HermitianOperator(shape, scale * random_hermitian(shape.total, rng))


# -- shapes and construction --------------------------------------------------


def test_shape_validation():
    assert MultipartiteShape([2, 3]).total == 6
    assert MultipartiteShape([2, 3]).parties == 2
    with pytest.raises(ValueError):
        MultipartiteShape([])
    with pytest.raises(ValueError):
        MultipartiteShape([2, 0])


def test_hermitian_symmetrization():
    m = np.array([[1.0, 1.0 + 5e-13j], [1.0 - 5e-13j, 2.0]])
    a = HermitianOperator([2], m)
    assert np.array_equal(a.entries, a.entries.conj().T)


def test_hermitian_rejects_asymmetry():
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator([2], m)


def test_entries_are_read_only():
    a = identity([2])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        HermitianOperator([2, 2], np.eye(3))


def test_pure_state_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        PureState([2], [1.0, 1.0])
    psi = PureState.normalized([2], [1.0, 1.0])
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        PureState.normalized([2], [0.0, 0.0])


# -- tensor -------------------------------------------------------------------


def test_tensor_layout_subsystem0_most_significant():
    a = HermitianOperator([2], np.diag([1.0, 0.0]))
    b = identity([2])
    t = tensor(a, b)
    assert t.shape.dims == (2, 2)
    assert np.allclose(np.diag(t.entries).real, [1, 1, 0, 0])


def test_tensor_is_kron():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = herm([2], rng)
        b = herm([3], rng)
        t = tensor(a, b)
        assert np.allclose(t.entries, np.kron(a.entries, b.entries))


def test_tensor_capacity():
    # each factor (129) is within the cap, the product (129**2) is beyond it
    a = identity([129])
    assert a.dim <= DIM_CAP < a.dim * a.dim
    with pytest.raises(CapacityError):
        tensor(a, a)


# -- partial trace ------------------------------------------------------------


def _partial_trace_oracle(entries, dims, keep):
    """Index-by-index contraction, no einsum."""
    m = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(m) if i not in keep]
    kd = [dims[i] for i in keep]
    out = np.zeros((int(np.prod(kd)), int(np.prod(kd))), dtype=complex)
    t = entries.reshape(tuple(dims) * 2)
    for row in np.ndindex(*kd):
        for col in np.ndindex(*kd):
            total = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                ridx = [0] * m
                cidx = [0] * m
                for pos, i in enumerate(keep):
                    ridx[i] = row[pos]
                    cidx[i] = col[pos]
                for pos, i in enumerate(traced):
                    ridx[i] = tr[pos]
                    cidx[i] = tr[pos]
                total += t[tuple(ridx) + tuple(cidx)]
            r = int(np.ravel_multi_index(row, kd)) if len(kd) > 1 else row[0]
            c = int(np.ravel_multi_index(col, kd)) if len(kd) > 1 else col[0]
            out[r, c] = total
    return out


def test_partial_trace_against_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = herm([2, 3, 2], rng)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            got = partial_trace(a, keep)
            want = _partial_trace_oracle(a.entries, [2, 3, 2], keep)
            assert np.allclose(got.entries, want, atol=1e-12)


def test_partial_trace_of_product():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = herm([3], rng)
        b = herm([2], rng)
        t = tensor(a, b)
        left = partial_trace(t, [0])
        assert np.allclose(left.entries, a.entries * np.trace(b.entries))
        right = partial_trace(t, [1])
        assert np.allclose(right.entries, b.entries * np.trace(a.entries))


def test_partial_trace_keep_order_is_original():
    rng = np.random.default_rng(3)
    a = herm([2, 3, 4], rng)
    assert partial_trace(a, [2, 0]).shape.dims == (2, 4)


def test_partial_trace_errors():
    a = identity([2, 2])
    with pytest.raises(ValueError):
        partial_trace(a, [])
    with pytest.raises(IndexError):
        partial_trace(a, [2])
    with pytest.raises(ValueError):
        partial_trace(a, [0, 0])


# -- partial transpose --------------------------------------------------------


def test_partial_transpose_involution_bit_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = herm([2, 3], rng)
        for s in (0, 1):
            back = partial_transpose(partial_transpose(a, s), s)
            assert np.array_equal(back.entries, a.entries)


def test_partial_transpose_of_product():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = herm([2], rng)
        b = herm([3], rng)
        t = tensor(a, b)
        pt = partial_transpose(t, 1)
        want = np.kron(a.entries, b.entries.T)
        assert np.allclose(pt.entries, want, atol=1e-14)


def test_partial_transpose_negative_eigenvalue_frozen():
    # min eigenvalue of the partial transpose of the canonical entangled
    # operator; closed form (1 - sqrt(2))/4 from its 2x2 central block.
    c = entangled_accept_operator()
    want = (1.0 - np.sqrt(2.0)) / 4.0
    for s in (0, 1):
        got = partial_transpose(c, s).min_eigenvalue()
        assert got == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(-0.10355339059327379, abs=1e-15)


def test_partial_transpose_index_error():
    with pytest.raises(IndexError):
        partial_transpose(identity([2, 2]), 2)


# -- permutation --------------------------------------------------------------


def test_permute_subsystems_identity_and_inverse():
    rng = np.random.default_rng(6)
    a = herm([2, 3, 2], rng)
    same = permute_subsystems(a, (0, 1, 2))
    assert np.array_equal(same.entries, a.entries)
    perm = (2, 0, 1)
    inv = (1, 2, 0)
    back = permute_subsystems(permute_subsystems(a, perm), inv)
    assert np.array_equal(back.entries, a.entries)


def test_permute_subsystems_matches_kron_swap():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = herm([2], rng)
        b = herm([3], rng)
        swapped = permute_subsystems(tensor(a, b), (1, 0))
        assert swapped.shape.dims == (3, 2)
        assert np.allclose(swapped.entries, np.kron(b.entries, a.entries), atol=1e-14)


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_subsystems(identity([2, 2]), (0, 0))


# -- spectra and norms --------------------------------------------------------


def test_eigh_reconstruction_and_order():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = herm([2, 3], rng, scale=2.0)
        w, v = np.linalg.eigh(a.entries)
        w, v = w[::-1], v[:, ::-1]
        assert np.all(np.diff(w) <= 1e-12)
        recon = (v * w) @ v.conj().T
        assert np.abs(recon - a.entries).max() <= 1e-9 * max(1.0, spectral_norm(a))
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(a.dim)).max() <= 1e-10


def test_norms_basics():
    rng = np.random.default_rng(9)
    p = basis_state([2, 2], 0).projector()
    assert trace_norm(p) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(p) == pytest.approx(1.0, abs=1e-12)
    for _ in range(10):
        a = herm([2, 2], rng)
        assert trace_norm(a) >= spectral_norm(a) - 1e-12


def test_trace_norm_multiplicative_under_tensor():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = herm([2], rng)
        b = herm([3], rng)
        assert trace_norm(tensor(a, b)) == pytest.approx(
            trace_norm(a) * trace_norm(b), rel=1e-10
        )


def test_spectral_norm_multiplicative_for_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_density(3, rng)
        b = random_density(2, rng)
        assert spectral_norm(tensor(a, b)) == pytest.approx(
            spectral_norm(a) * spectral_norm(b), rel=1e-10
        )


def test_hs_inner_matches_entrywise_sum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = herm([2, 2], rng)
        b = herm([2, 2], rng)
        want = float(np.sum(np.conj(a.entries) * b.entries).real)
        assert hs_inner(a, b) == pytest.approx(want, abs=1e-12)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(identity([2]), identity([3]))


# -- pure-product trace distance (used by the acceptance-drift bound) ---------


def test_pure_state_trace_distance_identity():
    # || |a><a| - |b><b| ||_tr = 2 sqrt(1 - |<a|b>|^2) for unit vectors.
    rng = np.random.default_rng(13)
    shape = MultipartiteShape([4])
    for _ in range(20):
        a = haar_vector(4, rng)
        b = haar_vector(4, rng)
        lhs = trace_norm(
            HermitianOperator(shape, np.outer(a, a.conj()) - np.outer(b, b.conj()))
        )
        rhs = 2.0 * np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-10)
        # and the norm-difference bound
        assert lhs <= 2.0 * np.linalg.norm(a - b) + 1e-10


# -- serialization ------------------------------------------------------------


def test_operator_round_trip():
    rng = np.random.default_rng(14)
    a = herm([2, 3], rng)
    doc = operator_to_dict(a)
    back = operator_from_dict(doc)
    assert back.shape.dims == a.shape.dims
    assert np.allclose(back.entries, a.entries, atol=1e-15)
    again = operator_from_dict(json.loads(json.dumps(operator_to_dict(a))))
    assert np.allclose(again.entries, a.entries, atol=1e-15)


def test_operator_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        operator_from_dict({"dims": [2]})
    with pytest.raises(ValueError):
        operator_from_dict({"dims": [2], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        operator_from_dict(json.loads(json.dumps({"dims": [2], "re": [[1, 0]], "im": [[0, 0]]})))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_entries_are_rejected(bad, part):
    op = operator_to_dict(entangled_accept_operator())
    op[part][0][0] = bad
    with pytest.raises(ValueError, match="finite"):
        operator_from_dict(op)
    state = {"dims": [2], "re": [1.0, 0.0], "im": [0.0, 0.0]}
    state[part][1] = bad
    with pytest.raises(ValueError, match="finite"):
        state_from_dict(state)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_imaginary_part_raises_without_warning(bad):
    op = operator_to_dict(entangled_accept_operator())
    op["im"][0][1] = bad
    state = {"dims": [2], "re": [1.0, 0.0], "im": [0.0, bad]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            operator_from_dict(op)
        with pytest.raises(ValueError, match="finite"):
            state_from_dict(state)


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", None, [2]])
def test_non_integer_dims_are_rejected_naming_the_entry(bad):
    op = {"dims": [bad, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(ValueError, match="must be integers, got " + re.escape(repr(bad))):
        operator_from_dict(op)
    state = {"dims": [2, bad], "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
    with pytest.raises(ValueError, match="must be integers"):
        state_from_dict(state)


def test_numpy_integer_dims_are_accepted():
    shape = MultipartiteShape([np.int64(2), np.int32(3)])
    assert shape.dims == (2, 3)
    assert all(type(d) is int for d in shape.dims)
