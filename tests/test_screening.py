"""The shared product-screening kernel and the two routes built on it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiprover
from multiprover import optimize
from multiprover.instances import entangled_accept_operator
from multiprover.linalg import HermitianOperator, MultipartiteShape
from multiprover.optimize import (
    MonotonicityError,
    _plane_refine,
    _qform,
    _screen_products,
    _seesaw_batch,
    brute_force_max,
)
from multiprover.rand import default_rng, random_psd, random_separable_terms
from multiprover.repetition import pair_separable
from multiprover.separable import SeparableOperator, densify, witness_evidence


def psd_op(dims, seed):
    shape = MultipartiteShape(dims)
    return HermitianOperator(shape, random_psd(shape.total, default_rng(seed)))


def paired_9x9(seed):
    rng = default_rng(seed)
    c1 = SeparableOperator([3, 3], random_separable_terms([3, 3], 3, rng))
    c2 = SeparableOperator([3, 3], random_separable_terms([3, 3], 2, rng))
    return densify(pair_separable(c1, c2))


# -- reference: the per-chunk einsum screening loop the kernel replaced ---------


def _reference_screen(cmat, dims, samples, rng, keep, chunk, lowest):
    top_vals, top_locs = [], []
    remaining = samples
    while remaining > 0:
        b = min(chunk, remaining)
        remaining -= b
        locs, joint = [], None
        for d in dims:
            x = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            locs.append(x)
            joint = x if joint is None else (joint[:, :, None] * x[:, None, :]).reshape(b, -1)
        vals = np.einsum("bi,ij,bj->b", joint.conj(), cmat, joint).real
        take = np.argsort(vals)[:keep] if lowest else np.argsort(vals)[-keep:]
        for idx in take:
            top_vals.append(float(vals[idx]))
            top_locs.append([x[idx].copy() for x in locs])
        order = np.argsort(top_vals)
        order = order[:keep] if lowest else order[-keep:]
        top_vals = [top_vals[i] for i in order]
        top_locs = [top_locs[i] for i in order]
    return top_vals, top_locs


def _reference_brute_force_max(c, samples, seed, refine=5, chunk=20_000):
    rng = default_rng(seed)
    vals, cands = _reference_screen(
        c.entries, c.shape.dims, samples, rng, refine, chunk, lowest=False
    )
    best = max(vals)
    for locs in cands:  # ascending: each refinement draws from the shared rng
        best = max(best, _plane_refine(c.entries, c.shape.dims, locs, rng)[0])
    return best


def _reference_witness_min(w, samples, seed, refine=10, chunk=20_000):
    rng = default_rng(seed)
    vals, cands = _reference_screen(
        w.entries, w.shape.dims, samples, rng, refine, chunk, lowest=True
    )
    best, best_locs = min(vals), cands[int(np.argmin(vals))]
    for locs in cands:
        val, out, _, _, _ = _seesaw_batch(-w.entries, w.shape.dims, [locs])[0]
        if -val < best:
            best, best_locs = -val, out
    best_locs = [v / np.linalg.norm(v) for v in best_locs]
    return min(best, _qform(w.entries, best_locs))


# -- the kernel -----------------------------------------------------------------


@pytest.mark.parametrize("lowest", [True, False])
@pytest.mark.parametrize(
    "make",
    [
        lambda: entangled_accept_operator(),
        lambda: psd_op([4, 4], 3),
        lambda: psd_op([3, 3, 3, 3], 4),
        lambda: paired_9x9(5),
    ],
    ids=["D4", "D16", "D81", "D81-paired"],
)
def test_kept_values_are_exact_forms_at_kept_states(make, lowest):
    c = make()
    cmat, dims = c.entries, c.shape.dims
    # 5000 samples in chunks of 3000 cross chunk and row-block edges.
    vals, locs = _screen_products(cmat, dims, 5000, default_rng(9), 7, 3000, lowest=lowest)
    assert len(vals) == len(locs) == 7
    assert np.all(np.diff(vals) >= 0)
    for v, loc in zip(vals, locs):
        want = _qform(cmat, loc)
        assert abs(v - want) <= 1e-12 * max(1.0, abs(want))

    ref_vals, _ = _reference_screen(cmat, dims, 5000, default_rng(9), 7, 3000, lowest)
    assert np.allclose(vals, ref_vals, rtol=1e-12, atol=1e-12)


def test_kernel_rejects_empty_keep_or_chunk():
    c = entangled_accept_operator()
    for keep, chunk in ((0, 100), (3, 0)):
        with pytest.raises(ValueError):
            _screen_products(c.entries, c.shape.dims, 10, default_rng(0), keep, chunk, lowest=True)


# -- the two routes against the old loop ----------------------------------------


@pytest.mark.parametrize(
    "make, seed",
    [(entangled_accept_operator, 7), (lambda: psd_op([2, 2, 2], 11), 3)],
    ids=["canonical", "2x2x2"],
)
def test_brute_force_max_matches_einsum_reference(make, seed):
    c = make()
    got = brute_force_max(c, samples=30_000, rng=seed)
    want = _reference_brute_force_max(c, 30_000, seed)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("dims, seed", [([2, 2], 1), ([4, 4], 2), ([9, 9], 3)])
def test_witness_evidence_matches_einsum_reference(dims, seed):
    c = psd_op(dims, seed)
    top = float(np.linalg.eigvalsh(c.entries)[-1])
    w = HermitianOperator(c.shape, 0.9 * top * np.eye(c.dim) - c.entries)
    got = witness_evidence(w, samples=25_000, rng=seed).min_value
    want = _reference_witness_min(w, 25_000, seed)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- the monotonicity invariant -------------------------------------------------


def test_seesaw_run_raises_when_a_sweep_lowers_the_objective(monkeypatch):
    c = entangled_accept_operator()
    locs = [np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)]
    monkeypatch.setattr(optimize, "_sweep", lambda tview, m, l: -1.0)
    with pytest.raises(MonotonicityError, match="objective decreased"):
        _seesaw_batch(c.entries, c.shape.dims, [locs])


def test_monotonicity_check_survives_optimize_flag():
    script = (
        "import numpy as np\n"
        "from multiprover import optimize\n"
        "from multiprover.instances import entangled_accept_operator\n"
        "c = entangled_accept_operator()\n"
        "optimize._sweep = lambda tview, m, l: -1.0\n"
        "e = np.array([1.0, 0.0], dtype=complex)\n"
        "try:\n"
        "    optimize._seesaw_batch(c.entries, c.shape.dims, [[e, e]])\n"
        "except optimize.MonotonicityError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ)
    src = str(Path(multiprover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
