"""The batched seesaw engine against the sequential loop it replaced."""

import numpy as np
import pytest

from multiprover import optimize
from multiprover.instances import entangled_accept_operator
from multiprover.linalg import HermitianOperator, MultipartiteShape
from multiprover.optimize import (
    MonotonicityError,
    ProductState,
    _product_vector,
    _qform,
    _seesaw_batch,
    effective_operator,
    seesaw_max,
)
from multiprover.rand import default_rng, haar_vector, random_psd


def psd_op(dims, seed):
    shape = MultipartiteShape(dims)
    return HermitianOperator(shape, random_psd(shape.total, default_rng(seed)))


def haar_starts(dims, n, seed):
    rng = default_rng(seed)
    return [[haar_vector(d, rng) for d in dims] for _ in range(n)]


# -- reference: the per-run loop the engine replaced, kept verbatim -------------


def _ref_eff(tview, m, locs, j):
    args = [tview, list(range(2 * m))]
    for l in range(m):
        if l == j:
            continue
        args.extend((locs[l].conj(), [l], locs[l], [m + l]))
    args.append([j, m + j])
    out = np.einsum(*args)
    return (out + out.conj().T) / 2


def _ref_gauge(v, ref):
    ph = np.vdot(v, ref)
    if abs(ph) > 1e-14:
        return v * (ph / abs(ph))
    return v


def _ref_update_block(tview, m, locs, j, tie_tol=1e-10):
    w, vv = np.linalg.eigh(_ref_eff(tview, m, locs, j))
    top = w[-1]
    k = int(np.sum(w >= top - tie_tol * max(1.0, abs(top))))
    if k > 1:
        basis = vv[:, -k:]
        proj = basis @ (basis.conj().T @ locs[j])
        nrm = np.linalg.norm(proj)
        v = proj / nrm if nrm > 1e-12 else vv[:, -1]
    else:
        v = vv[:, -1]
    locs[j] = _ref_gauge(v, locs[j])
    return float(top)


def _ref_qform(cmat, locs):
    v = locs[0]
    for x in locs[1:]:
        v = np.kron(v, x)
    return float(np.real(v.conj() @ (cmat @ v)))


def _ref_seesaw_run(cmat, dims, locs0, *, sweep_cap=500, improve_tol=1e-10):
    m = len(dims)
    tview = cmat.reshape(dims + dims)
    locs = [v.copy() for v in locs0]
    prev = _ref_qform(cmat, locs)
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, sweep_cap + 1):
        obj = 0.0
        for j in range(m):
            obj = _ref_update_block(tview, m, locs, j)
        if obj < prev - 1e-12 * max(1.0, abs(prev)):
            raise MonotonicityError(f"objective decreased: {prev} -> {obj}")
        trace.append(obj)
        if obj - prev < improve_tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = obj
    return _ref_qform(cmat, locs), locs, sweeps, converged, trace


def assert_same_run(got, want):
    val, locs, sweeps, conv, trace = got
    rval, rlocs, rsweeps, rconv, rtrace = want
    assert val == rval
    assert len(locs) == len(rlocs)
    for v, rv in zip(locs, rlocs):
        assert v.dtype == rv.dtype and v.tobytes() == rv.tobytes()
    assert (sweeps, conv) == (rsweeps, rconv)
    assert type(sweeps) is int and type(conv) is bool
    assert trace == rtrace
    assert all(type(t) is float for t in trace)


# -- bit identity ---------------------------------------------------------------

DIMS = [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 9), (4, 4), (4, 9), (9, 9), (6, 6),
        (2, 2, 2), (3, 2, 2)]


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: "x".join(map(str, d)))
def test_batch_matches_sequential_runs_bit_for_bit(dims):
    c = psd_op(list(dims), sum(dims))
    starts = haar_starts(dims, 6, 100 + len(dims))
    got = _seesaw_batch(c.entries, dims, starts)
    for r, s in enumerate(starts):
        assert_same_run(got[r], _ref_seesaw_run(c.entries, dims, s))


@pytest.mark.parametrize("dims", [(4, 9), (9, 9)], ids=["4x9", "9x9"])
def test_witness_shaped_runs_match_bit_for_bit(dims):
    # witness_evidence runs the engine on -W for W = t I - C.
    c = psd_op(list(dims), 7)
    top = float(np.linalg.eigvalsh(c.entries)[-1])
    neg = -(0.9 * top * np.eye(c.dim) - c.entries)
    starts = haar_starts(dims, 10, 8)
    got = _seesaw_batch(neg, dims, starts)
    for r, s in enumerate(starts):
        assert_same_run(got[r], _ref_seesaw_run(neg, dims, s))


def test_degenerate_canonical_operator_runs_to_the_cap():
    c = entangled_accept_operator()
    dims = c.shape.dims
    starts = haar_starts(dims, 5, 3) + [
        [np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)]
    ]
    got = _seesaw_batch(c.entries, dims, starts, sweep_cap=60)
    want = [_ref_seesaw_run(c.entries, dims, s, sweep_cap=60) for s in starts]
    for g, w in zip(got, want):
        assert_same_run(g, w)
    # the random starts crawl along the flat valley to the cap, while |00>
    # is a fixed point and leaves the batch after one sweep
    assert [g[2:4] for g in got] == [(60, False)] * 5 + [(1, True)]


@pytest.mark.parametrize("d0, d1", [(2, 3), (4, 9)])
def test_degenerate_leading_eigenspace_takes_the_tie_path(d0, d1, monkeypatch):
    # C = I (x) P: the effective operator on subsystem 0 is a multiple of I.
    p = random_psd(d1, default_rng(d1))
    c = HermitianOperator(MultipartiteShape([d0, d1]), np.kron(np.eye(d0), p))
    dims = c.shape.dims
    starts = haar_starts(dims, 4, d0)
    ties = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        w, v = eigh(a)
        top = w[..., -1:]
        ties.append(int(np.sum(np.sum(w >= top - 1e-10 * np.maximum(1.0, abs(top)), axis=-1) > 1)))
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    got = _seesaw_batch(c.entries, dims, starts)
    monkeypatch.undo()
    assert sum(ties) > 0
    for g, s in zip(got, starts):
        assert_same_run(g, _ref_seesaw_run(c.entries, dims, s))


def test_runs_that_converge_early_leave_the_batch_without_moving_the_rest():
    dims = (2, 2)
    c = psd_op(list(dims), 5)
    mixed = haar_starts(dims, 4, 6)
    e01 = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    starts = [mixed[0], e01, mixed[1], mixed[2], e01, mixed[3]]
    got = _seesaw_batch(c.entries, dims, starts)
    assert len({g[2] for g in got}) > 1
    for g, s in zip(got, starts):
        assert_same_run(g, _ref_seesaw_run(c.entries, dims, s))


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_sweep_cap_is_per_run(cap):
    c = psd_op([2, 3], 9)
    starts = haar_starts((2, 3), 3, 10)
    got = _seesaw_batch(c.entries, (2, 3), starts, sweep_cap=cap)
    for g, s in zip(got, starts):
        assert_same_run(g, _ref_seesaw_run(c.entries, (2, 3), s, sweep_cap=cap))


def test_seesaw_run_is_the_batch_of_one():
    c = psd_op([3, 3], 2)
    (s,) = haar_starts((3, 3), 1, 4)
    assert_same_run(_seesaw_batch(c.entries, (3, 3), [s])[0], _ref_seesaw_run(c.entries, (3, 3), s))


def test_start_vectors_are_not_modified():
    c = psd_op([2, 2], 1)
    starts = haar_starts((2, 2), 3, 2)
    before = [[v.copy() for v in s] for s in starts]
    _seesaw_batch(c.entries, (2, 2), starts)
    for s, b in zip(starts, before):
        for v, w in zip(s, b):
            assert v.tobytes() == w.tobytes()


# -- the public routes ----------------------------------------------------------


def _ref_seesaw_starts(c, restarts, seed, initial_states=()):
    starts = [[v.copy() for v in st.locals] for st in initial_states]
    rng = default_rng(seed)
    for child in rng.spawn(restarts):
        starts.append([haar_vector(d, child) for d in c.shape.dims])
    best = None
    for s in starts:
        run = _ref_seesaw_run(c.entries, c.shape.dims, s)
        if best is None or run[0] > best[0]:
            best = run
    return best


def _no_polish(monkeypatch):
    # The polish keeps the selected run's state when it is the identity, so
    # seesaw_max reports the winner of the restarts as selected.
    monkeypatch.setattr(optimize, "_aitken_polish", lambda cmat, dims, locs: locs)
    monkeypatch.setattr(optimize, "_snap_pass", lambda cmat, locs: locs)


@pytest.mark.parametrize(
    "make", [lambda: psd_op([2, 2], 3), lambda: psd_op([2, 2, 2], 4), entangled_accept_operator],
    ids=["2x2", "2x2x2", "canonical"],
)
def test_seesaw_max_keeps_the_first_strict_winner(make, monkeypatch):
    _no_polish(monkeypatch)
    c = make()
    init = [ProductState(c.shape, [np.eye(d, dtype=complex)[0] for d in c.shape.dims])]
    want = _ref_seesaw_starts(c, 6, 5, init)
    res = seesaw_max(c, restarts=6, rng=5, initial_states=init)
    assert res.value == max(want[0], 0.0)
    # the polish pads the count by its two sweeps per round and appends its value
    assert res.iterations == want[2] + 2 * optimize.AITKEN_ROUNDS
    assert res.converged == want[3]
    assert list(res.trace) == want[4] + [want[0]]
    for v, w in zip(res.state.locals, want[1]):
        assert np.array_equal(v, w / np.linalg.norm(w))


def test_seesaw_max_keeps_the_first_of_tied_winners(monkeypatch):
    _no_polish(monkeypatch)
    # |00> and |11> are fixed points of diag(1, 0, 0, 1) with the same value
    c = HermitianOperator(MultipartiteShape([2, 2]), np.diag([1.0, 0.0, 0.0, 1.0]))
    e = np.eye(2, dtype=complex)
    init = [ProductState(c.shape, [e[0], e[0]]), ProductState(c.shape, [e[1], e[1]])]
    res = seesaw_max(c, restarts=0, initial_states=init)
    assert res.value == 1.0
    assert np.array_equal(res.state.vector(), [1, 0, 0, 0])


def test_effective_operator_is_the_batch_of_one():
    c = psd_op([2, 3, 2], 6)
    dims = c.shape.dims
    s = ProductState(c.shape, haar_starts(dims, 1, 7)[0])
    tview = c.entries.reshape(dims + dims)
    for j in range(3):
        got = effective_operator(c, s, j).entries
        assert got.tobytes() == _ref_eff(tview, 3, list(s.locals), j).tobytes()


def test_effective_operator_single_party_is_the_operator():
    c = psd_op([3], 2)
    s = ProductState(c.shape, haar_starts((3,), 1, 1)[0])
    got = effective_operator(c, s, 0).entries
    tview = c.entries.reshape((3, 3))
    assert got.tobytes() == _ref_eff(tview, 1, list(s.locals), 0).tobytes()


def test_product_vector_equals_kron_bytes():
    rng = default_rng(0)
    for dims in [(2,), (2, 3), (4, 9), (3, 2, 2), (2, 2, 2, 2)]:
        locs = [haar_vector(d, rng) for d in dims]
        want = locs[0]
        for x in locs[1:]:
            want = np.kron(want, x)
        assert _product_vector(locs).tobytes() == want.tobytes()


# -- the monotonicity invariant with several runs -------------------------------


def test_monotonicity_error_names_the_first_offending_run(monkeypatch):
    c = entangled_accept_operator()
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    # <00|C|00> = 0.5 and <11|C|11> = 0 for the canonical operator
    starts = [[e1, e1], [e0, e0], [e1, e1], [e0, e0]]
    assert [_qform(c.entries, s) for s in starts] == pytest.approx([0.0, 0.5, 0.0, 0.5])
    monkeypatch.setattr(optimize, "_sweep", lambda tview, m, l: np.full(len(l[0]), 0.25))
    with pytest.raises(MonotonicityError, match=r"objective decreased in run 1: 0\.5 -> 0\.25"):
        _seesaw_batch(c.entries, c.shape.dims, starts)
