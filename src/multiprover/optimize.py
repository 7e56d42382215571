"""Maximization of Hermitian forms over product states.

Two independent routes are provided on purpose:

* ``seesaw_max``: multistart alternating ascent. Each block update replaces
  one local vector by a top eigenvector of the effective operator obtained
  by contracting all other subsystems, so the objective never decreases.
  A terminal polish (vector Aitken extrapolation plus an exact
  sparsification pass) resolves optima that plain alternation approaches
  only at cubic speed along quartically flat valleys.
* ``brute_force_max``: dense random sampling refined by exact line searches
  on random 2-planes of the state manifold. Uses only direct evaluations
  of the objective, no eigendecompositions, so it can serve as an oracle
  for the seesaw route.

All seesaw restarts run as one array program (``_seesaw_batch``): the
local vectors of R runs are held as one (R, d) array per subsystem, each
block update is one batched einsum contraction followed by one ``eigh``
over the (R, d, d) stack, and runs leave the active set one by one as they
meet their own stopping test or ``sweep_cap``. A run's result does not
depend on the batch it runs in: it has the same bytes as a batch of one.
That needs the phase gauge to call ``np.vdot`` row by row on the strided
eigenvector view: on a contiguous copy BLAS takes another kernel and the
last digit can move. Degenerate leading eigenspaces are resolved row by
row, and every run's final value is recomputed with the direct form
``_qform``.

``brute_force_max`` (highest values) and ``separable.witness_evidence``
(lowest values) share one sampling kernel, ``_screen_products``, which
evaluates the form on BLAS over row blocks of sampled states: still direct
evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    _as_shape,
    _readonly,
)
from .rand import default_rng, haar_vector

LOCAL_NORM_TOL = 1e-10
PSD_TOL = 1e-6

# A seesaw run stops when a sweep gains less than IMPROVE_TOL (relative) or
# after SWEEP_CAP sweeps; eigenvalues within TIE_TOL of the top one tie; the
# polish runs at most AITKEN_ROUNDS rounds of two sweeps each.
SWEEP_CAP = 500
IMPROVE_TOL = 1e-10
TIE_TOL = 1e-10
AITKEN_ROUNDS = 40


class MonotonicityError(RuntimeError):
    """An ascent step lowered the objective it is guaranteed not to lower."""


@dataclass(frozen=True)
class ProductState:
    """Tuple of local unit vectors, one per subsystem."""

    shape: MultipartiteShape
    locals: tuple[np.ndarray, ...]

    def __init__(self, shape, locals):
        shape = _as_shape(shape)
        vecs = []
        if len(locals) != shape.parties:
            raise ValueError(
                f"{len(locals)} local vectors for {shape.parties} subsystems"
            )
        for d, v in zip(shape.dims, locals):
            v = np.asarray(v, dtype=np.complex128).reshape(-1)
            if v.shape != (d,):
                raise ValueError(f"local vector length {v.shape[0]} != dimension {d}")
            if abs(np.linalg.norm(v) - 1.0) > LOCAL_NORM_TOL:
                raise ValueError("local vectors must be unit norm")
            vecs.append(_readonly(v))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "locals", tuple(vecs))

    def vector(self) -> np.ndarray:
        """Joint state vector; subsystem 0 is the most significant factor."""
        return _product_vector([*self.locals])


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    state: ProductState
    iterations: int
    converged: bool
    trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "locals": [
                {"re": v.real.tolist(), "im": v.imag.tolist()}
                for v in self.state.locals
            ],
            "trace": list(self.trace),
        }


# -- kernels on raw arrays ----------------------------------------------------


def _product_vector(locs: Sequence[np.ndarray]) -> np.ndarray:
    v = locs[0]
    for x in locs[1:]:
        v = np.multiply.outer(v, x).ravel()
    return v


def _qform(cmat: np.ndarray, locs: Sequence[np.ndarray]) -> float:
    v = _product_vector(locs)
    return float(np.real(v.conj() @ (cmat @ v)))


# The seesaw kernels below act on a batch of runs: ``locs`` holds one
# (R, d_l) array per subsystem, row r being run r's local vector.


def _eff(tview: np.ndarray, m: int, locs: Sequence[np.ndarray], j: int) -> np.ndarray:
    """Effective operators on subsystem j, one per run: shape (R, d_j, d_j)."""
    if m == 1:
        out = np.broadcast_to(tview, (len(locs[0]),) + tview.shape)
    else:
        b = 2 * m  # batch index label
        args = [tview, list(range(2 * m))]
        for l in range(m):
            if l == j:
                continue
            args.extend((locs[l].conj(), [b, l], locs[l], [b, m + l]))
        args.append([b, j, m + j])
        out = np.einsum(*args)
    return (out + out.conj().transpose(0, 2, 1)) / 2


def _gauge(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # Phase-align v with ref; immaterial to the objective, keeps the iterate
    # sequence smooth for extrapolation and makes runs deterministic.
    ph = np.vdot(v, ref)
    if abs(ph) > 1e-14:
        return v * (ph / abs(ph))
    return v


def _update_block(tview, m, locs, j):
    w, vv = np.linalg.eigh(_eff(tview, m, locs, j))
    top = w[:, -1]
    ties = np.sum(w >= (top - TIE_TOL * np.maximum(1.0, np.abs(top)))[:, None], axis=1)
    cur = locs[j]
    for r, k in enumerate(ties):
        # vv[r, :, -1] stays a strided view: np.vdot on a contiguous copy
        # takes another BLAS kernel and can move the last digit.
        v = vv[r, :, -1]
        if k > 1:
            # Degenerate leading eigenspace: keep the direction closest to
            # the current local vector.
            basis = vv[r, :, -k:]
            proj = basis @ (basis.conj().T @ cur[r])
            nrm = np.linalg.norm(proj)
            if nrm > 1e-12:
                v = proj / nrm
        cur[r] = _gauge(v, cur[r])
    return top


def _sweep(tview, m, locs):
    """One pass of block updates over every subsystem; the last block's top
    eigenvalue per run."""
    for j in range(m):
        obj = _update_block(tview, m, locs, j)
    return obj


def _seesaw_batch(cmat, dims, starts, *, sweep_cap=SWEEP_CAP):
    """Alternating ascent from every start at once.

    Each run sweeps until its own improvement falls below ``IMPROVE_TOL``
    or ``sweep_cap`` is reached; finished runs leave the active set. Returns
    one ``(value, locs, sweeps, converged, trace)`` per start, in order.
    """
    m = len(dims)
    n = len(starts)
    tview = cmat.reshape(dims + dims)
    locs = [np.array([s[l] for s in starts], dtype=np.complex128) for l in range(m)]
    prev = np.array([_qform(cmat, s) for s in starts])
    traces = [[] for _ in range(n)]
    sweeps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for sweep in range(1, sweep_cap + 1):
        if not len(active):
            break
        sub = locs if len(active) == n else [x[active] for x in locs]
        # A scalar objective from _sweep is read as the same value for every run.
        obj = np.broadcast_to(np.asarray(_sweep(tview, m, sub), dtype=float), active.shape)
        if sub is not locs:
            for x, s in zip(locs, sub):
                x[active] = s
        p = prev[active]
        scale = np.maximum(1.0, np.abs(p))
        fell = np.flatnonzero(obj < p - 1e-12 * scale)
        if len(fell):
            i = fell[0]
            raise MonotonicityError(
                f"objective decreased in run {active[i]}: {p[i]} -> {obj[i]}"
            )
        for r, o in zip(active, obj):
            traces[r].append(float(o))
        sweeps[active] = sweep
        done = obj - p < IMPROVE_TOL * scale
        converged[active[done]] = True
        prev[active] = obj
        active = active[~done]
    out = []
    for r in range(n):
        run = [x[r].copy() for x in locs]
        out.append((_qform(cmat, run), run, int(sweeps[r]), bool(converged[r]), traces[r]))
    return out


def _aitken_polish(cmat, dims, locs):
    """Componentwise Aitken extrapolation of the alternating-ascent iterates.

    Near a degenerate optimum the sweep map contracts only cubically; the
    extrapolated limit of three consecutive iterates jumps geometrically
    instead. Extrapolations are kept only when they do not lower the exact
    objective.
    """
    m = len(dims)
    tview = cmat.reshape(dims + dims)
    splits = np.cumsum(dims)[:-1]

    locs = [v.copy() for v in locs]
    for _ in range(AITKEN_ROUNDS):
        x0 = np.concatenate(locs)
        l1 = [v[None].copy() for v in locs]
        _sweep(tview, m, l1)
        x1 = np.concatenate([v[0] for v in l1])
        l2 = [v.copy() for v in l1]
        _sweep(tview, m, l2)
        l2 = [v[0] for v in l2]
        x2 = np.concatenate(l2)

        d1, d2 = x1 - x0, x2 - x1
        dd = d2 - d1
        y = x2.copy()
        mask = np.abs(dd) > 1e-15 * (np.abs(x2) + 1.0)
        y[mask] = x2[mask] - d2[mask] ** 2 / dd[mask]
        cand = [v / np.linalg.norm(v) for v in np.split(y, splits)]
        if _qform(cmat, cand) >= _qform(cmat, l2) - 1e-13:
            locs = cand
        else:
            locs = l2
        if np.linalg.norm(d2) < 1e-14:
            break
    return locs


_SNAP_LEVELS = (0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4, 1e-5)


def _snap_pass(cmat, locs):
    """Try sparsified, phase-canonical local vectors; keep exact improvements.

    Rounding a near-optimal iterate onto the exact sparse state it is
    drifting toward is compared by direct evaluation, so a true optimum is
    hit exactly while any wrong snap is discarded.
    """
    best = [v.copy() for v in locs]
    best_val = _qform(cmat, best)
    for tau in _SNAP_LEVELS:
        cand = []
        for v in best:
            mag = np.abs(v)
            c = np.where(mag > tau * mag.max(), v, 0.0)
            k = int(np.argmax(np.abs(c)))
            c = c / (c[k] / abs(c[k]))
            re, im = c.real.copy(), c.imag.copy()
            scale = np.abs(c).max()
            re[np.abs(re) <= tau * scale] = 0.0
            im[np.abs(im) <= tau * scale] = 0.0
            c = re + 1j * im
            nrm = np.linalg.norm(c)
            if nrm == 0.0:
                cand = None
                break
            cand.append(c / nrm)
        if cand is None:
            continue
        val = _qform(cmat, cand)
        if val >= best_val:
            best_val, best = val, cand
    return best


def effective_operator(c: HermitianOperator, state: ProductState, j: int) -> HermitianOperator:
    """Contract every subsystem except j against the state's local vectors."""
    dims = c.shape.dims
    if state.shape.dims != dims:
        raise ValueError("state shape does not match operator shape")
    m = len(dims)
    if j < 0 or j >= m:
        raise IndexError(f"subsystem {j} out of range for {m} subsystems")
    tview = c.entries.reshape(dims + dims)
    eff = _eff(tview, m, [v[None] for v in state.locals], j)[0]
    return HermitianOperator(MultipartiteShape([dims[j]]), eff)


def product_value(c: HermitianOperator, state: ProductState) -> float:
    """Direct evaluation of the Hermitian form at a product state."""
    if state.shape.dims != c.shape.dims:
        raise ValueError("state shape does not match operator shape")
    return _qform(c.entries, list(state.locals))


def seesaw_max(
    c: HermitianOperator,
    *,
    restarts: int = 32,
    rng=None,
    initial_states: Iterable[ProductState] = (),
) -> OptimizationResult:
    """Best product-state value of a PSD operator over random restarts,
    with the winner polished (Aitken extrapolation, then the snap pass).

    Parameters
    ----------
    c : operator to maximize; must be PSD up to -1e-6.
    restarts : number of Haar-random starting points, >= 0.
    rng : seed or Generator; defaults to a fixed seed for reproducibility.
    initial_states : extra warm starts evaluated before the random ones.
    """
    dims = c.shape.dims
    min_eig = float(np.linalg.eigvalsh(c.entries)[0])
    if min_eig < -PSD_TOL:
        raise ValueError(f"operator is not PSD: min eigenvalue {min_eig:.3e}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    initial_states = list(initial_states)
    if restarts == 0 and not initial_states:
        raise ValueError("need at least one restart or initial state")

    cmat = c.entries
    starts: list[list[np.ndarray]] = []
    for st in initial_states:
        if st.shape.dims != dims:
            raise ValueError("initial state shape does not match operator")
        starts.append([v.copy() for v in st.locals])
    rng = default_rng(rng)
    for child in rng.spawn(restarts):
        starts.append([haar_vector(d, child) for d in dims])

    best = None
    for run in _seesaw_batch(cmat, dims, starts):
        if best is None or run[0] > best[0]:
            best = run

    val, locs, sweeps, conv, trace = best
    polished = _snap_pass(cmat, _aitken_polish(cmat, dims, locs))
    pval = _qform(cmat, polished)
    if pval >= val:
        val, locs = pval, polished
    if not conv:
        # The polish may finish what the coordinate phase could not:
        # re-test stationarity at the final point.
        probe = [v[None].copy() for v in locs]
        tview = cmat.reshape(dims + dims)
        gain = float(_sweep(tview, len(dims), probe)[0]) - val
        conv = gain < IMPROVE_TOL * max(1.0, abs(val))

    state = ProductState(c.shape, [v / np.linalg.norm(v) for v in locs])
    return OptimizationResult(
        value=max(val, 0.0),
        state=state,
        iterations=sweeps + 2 * AITKEN_ROUNDS,
        converged=conv,
        trace=tuple(trace + [val]),
    )


# -- sampling oracle ----------------------------------------------------------

BRUTE_DIM_CAP = 64
BRUTE_REFINE = 5  # best samples that brute_force_max refines
SCREEN_CHUNK = 20_000  # product states drawn per batch by the library's screens
# Rows per BLAS call in _screen_products: bounds its temporaries to a few MB.
_SCREEN_ROWS = 2048
# _plane_refine: at most PLANE_ROUNDS rounds; stops after 3 gaining < PLANE_TOL
PLANE_ROUNDS = 300
PLANE_TOL = 1e-13


def _screen_products(cmat, dims, samples, rng, keep, chunk, *, lowest):
    """Keep the ``keep`` lowest (or highest) <phi|C|phi> over sampled products.

    Haar-random product states are drawn ``chunk`` at a time and evaluated
    in blocks of ``_SCREEN_ROWS`` rows as J @ C.T plus a rowwise real dot
    with J. Returns the kept values in ascending order and their locals.
    """
    if keep < 1 or chunk < 1:
        raise ValueError("need keep >= 1 and chunk >= 1")

    def extreme(v):
        order = np.argsort(v)
        return order[:keep] if lowest else order[max(0, len(order) - keep) :]

    kept_vals, kept_locs = np.empty(0), []
    for start in range(0, samples, chunk):
        b = min(chunk, samples - start)
        locs = []
        for d in dims:
            x = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            locs.append(x)
        vals = np.empty(b)
        for s in range(0, b, _SCREEN_ROWS):
            jb = locs[0][s : s + _SCREEN_ROWS]
            for x in locs[1:]:
                jb = (jb[:, :, None] * x[s : s + _SCREEN_ROWS, None, :]).reshape(len(jb), -1)
            jw = jb @ cmat.T
            vals[s : s + len(jb)] = np.einsum("bi,bi->b", jb.real, jw.real) + np.einsum(
                "bi,bi->b", jb.imag, jw.imag
            )
        take = extreme(vals)
        kept_vals = np.concatenate([kept_vals, vals[take]])
        kept_locs += [[x[i].copy() for x in locs] for i in take]
        order = extreme(kept_vals)
        kept_vals, kept_locs = kept_vals[order], [kept_locs[i] for i in order]
    return kept_vals, kept_locs


def _plane_refine(cmat, dims, locs, rng):
    """Exact maximization over random 2-planes through the current state.

    Along v(t) = cos(t) phi_j + sin(t) u with u a unit tangent, the
    objective is a quadratic form in (cos t, sin t); three evaluations
    determine it and the optimum angle is closed-form.
    """
    locs = [v.copy() for v in locs]
    val = _qform(cmat, locs)
    stall = 0
    for _ in range(PLANE_ROUNDS):
        round_start = val
        for j, d in enumerate(dims):
            if d == 1:
                continue
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u -= np.vdot(locs[j], u) * locs[j]
            nrm = np.linalg.norm(u)
            if nrm < 1e-12:
                continue
            u /= nrm
            phi = locs[j]
            a = val
            locs[j] = u
            cc = _qform(cmat, locs)
            locs[j] = (phi + u) / np.sqrt(2.0)
            bb = _qform(cmat, locs) - (a + cc) / 2.0
            theta = 0.5 * np.arctan2(2.0 * bb, a - cc)
            cand = np.cos(theta) * phi + np.sin(theta) * u
            locs[j] = cand / np.linalg.norm(cand)
            new = _qform(cmat, locs)
            if new >= val:
                val = new
            else:
                locs[j] = phi
        stall = stall + 1 if val - round_start < PLANE_TOL else 0
        if stall >= 3:
            break
    return val, locs


def brute_force_max(
    c: HermitianOperator,
    *,
    samples: int = 1_000_000,
    rng=None,
) -> float:
    """Sampled lower bound on the product-state maximum, then local refinement.

    Independent of the seesaw route: only direct evaluations of the form
    are used. Intended as a small-dimension oracle (total dimension <= 64).
    """
    dims = c.shape.dims
    if c.dim > BRUTE_DIM_CAP:
        raise CapacityError(
            f"brute-force oracle limited to dimension {BRUTE_DIM_CAP}, got {c.dim}"
        )
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = default_rng(rng)
    cmat = c.entries
    vals, cands = _screen_products(
        cmat, dims, samples, rng, BRUTE_REFINE, SCREEN_CHUNK, lowest=False
    )
    # Refine in ascending order: every refinement draws from the shared rng.
    best = float(vals[-1])
    for locs in cands:
        val, _ = _plane_refine(cmat, dims, locs, rng)
        best = max(best, val)
    return best
