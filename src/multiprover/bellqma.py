"""Monte Carlo verification of a resource-bounded multi-prover protocol.

The simulated protocol replaces m unentangled provers answering one round
of POVM measurements by a single message per prover:

* a classical register x_j claiming the outcome distribution of prover
  j's designated POVM, sent as exact fixed-point numbers with denominator
  2**alpha;
* k copies of prover j's proof state.

The verifier, given parameters (p, k, q, alpha):

* step 3: checks each claimed distribution sums to exactly 1 in
  fixed-point arithmetic;
* step 4: picks one (prover, outcome) pair uniformly at random, measures
  all k copies of that prover's proof, and rejects when the empirical
  frequency deviates from the claim by 1/p or more;
* step 5: runs the downstream classical acceptance stage q times on
  outcome tuples drawn from the claimed distributions and accepts on a
  strict majority.

Each prover's k copies form one ``ProofModel``: (state, multiplicity)
groups whose multiplicities sum to k. k IID copies of rho are the one
group ``(rho, k)``, so step 4 samples one binomial per group however large
k is.

``estimate_acceptance`` verifies its trials in blocks of ``_TRIAL_BLOCK``,
each trial on its own spawned generator. Message checks and step 3 run
once per block, and the step-4 binomial probabilities once per (prover,
outcome) pick, at the first trial that makes it. Each trial then draws,
from its own generator and in this order, the pick, the binomial(s) and,
if it passes step 4, its q * m step-5 outcomes as 32-bit words: the same
words that q * m sequential ``rng.bytes`` draws would read. After the
block, the words of every passing trial are inverted in one pass per
prover and looked up in the stage-2 table in one indexing step; last,
each trial draws ``rng.random()`` for its runs whose acceptance
probability is strictly between 0 and 1. ``arthur_verify`` is a block of
one. Step 5 is the last use of a trial's generator, so on 0/1 stage-2
tables every verification is the same as with one draw at a time; on
fractional tables the draws come in a different order.

Honest senders fail with probability at most
``2 exp(-5 p / 4) + 2 exp(-0.02 q)``; a sender whose claimed
distribution strays by at least ``1/(10 m r)`` anywhere is accepted with
probability at most ``1 - 1/(40 m^2 r^2)``. Both bounds are exposed as
functions so experiments can compare against them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    HermitianOperator,
    MultipartiteShape,
    _is_integer,
    hs_inner,
    operator_from_dict,
    operator_to_dict,
)
from .separable import is_povm
from .rand import default_rng

STAGE2_TABLE_CAP = 10 ** 6
INT64_MAX = 2 ** 63 - 1
DENSITY_TOL = 1e-10
_TRIAL_BLOCK = 1024  # trials spawned and verified together by estimate_acceptance


class TableCapacityError(RuntimeError):
    """The classical acceptance table r**m would exceed the storage cap."""


@dataclass(frozen=True)
class ProtocolParams:
    """Verifier resources: frequency slack 1/p, copies k, runs q, bits alpha."""

    p: int
    k: int
    q: int
    alpha: int

    def __post_init__(self):
        for name in ("p", "k", "q", "alpha"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.k > INT64_MAX:
            raise OverflowError(f"copy count k = {self.k} exceeds the 63-bit sampling limit")


def derive_params(n: int, m: int, r: int) -> ProtocolParams:
    """Standard parameter schedule: p = 20 m r, k = 5 p^3, q = 50 n, alpha = 20 n m r."""
    if min(n, m, r) < 1:
        raise ValueError("n, m, r must all be positive")
    p = 20 * m * r
    return ProtocolParams(p=p, k=5 * p ** 3, q=50 * n, alpha=20 * n * m * r)


@dataclass(frozen=True)
class Stage2Acceptor:
    """Classical acceptance table over outcome tuples in [r]^m.

    Entries are acceptance probabilities in [0, 1]; a deterministic
    predicate is the 0/1 special case.
    """

    table: np.ndarray

    def __init__(self, table):
        t = np.asarray(table, dtype=np.float64)
        if t.size > STAGE2_TABLE_CAP:
            raise TableCapacityError(
                f"acceptance table with {t.size} entries exceeds cap {STAGE2_TABLE_CAP}"
            )
        if not np.isfinite(t).all():
            raise ValueError("acceptance probabilities must be finite")
        if t.min() < 0.0 or t.max() > 1.0:
            raise ValueError("acceptance probabilities must lie in [0, 1]")
        t = np.ascontiguousarray(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @classmethod
    def accept_all(cls, m: int, r: int) -> "Stage2Acceptor":
        cls._check_cap(m, r)
        return cls(np.ones((r,) * m))

    @classmethod
    def reject_all(cls, m: int, r: int) -> "Stage2Acceptor":
        cls._check_cap(m, r)
        return cls(np.zeros((r,) * m))

    @classmethod
    def from_function(cls, fn: Callable[[tuple[int, ...]], float], m: int, r: int) -> "Stage2Acceptor":
        cls._check_cap(m, r)
        t = np.zeros((r,) * m)
        for idx in np.ndindex(*t.shape):
            t[idx] = fn(idx)
        return cls(t)

    @staticmethod
    def _check_cap(m: int, r: int) -> None:
        if r ** m > STAGE2_TABLE_CAP:
            raise TableCapacityError(
                f"acceptance table with {r ** m} entries exceeds cap {STAGE2_TABLE_CAP}"
            )

    def accept_probability(self, outcomes: Sequence[int]) -> float:
        return float(self.table[tuple(int(i) for i in outcomes)])


@dataclass(frozen=True)
class BellProtocol:
    """One-round unentangled-prover protocol: POVMs plus a classical stage."""

    n: int
    m: int
    r: int
    povms: tuple[tuple[HermitianOperator, ...], ...]
    stage2: Stage2Acceptor

    def __init__(self, n, m, r, povms, stage2):
        if min(n, m, r) < 1:
            raise ValueError("n, m, r must all be positive")
        povms = tuple(tuple(p) for p in povms)
        if len(povms) != m:
            raise ValueError(f"{len(povms)} POVMs for {m} provers")
        for j, povm in enumerate(povms):
            if len(povm) != r:
                raise ValueError(f"prover {j} POVM has {len(povm)} outcomes, expected {r}")
            if not is_povm(povm):
                raise ValueError(f"prover {j} effects do not form a POVM")
        if stage2.table.shape != (r,) * m:
            raise ValueError(
                f"stage-2 table shape {stage2.table.shape} does not match ({r},)*{m}"
            )
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "povms", povms)
        object.__setattr__(self, "stage2", stage2)

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(p[0].dim for p in self.povms)


def _check_density(rho: HermitianOperator, what: str) -> None:
    lo = rho.min_eigenvalue()
    if lo < -DENSITY_TOL:
        raise ValueError(f"{what} is not PSD: min eigenvalue {lo:.3e}")
    if abs(rho.trace() - 1.0) > DENSITY_TOL:
        raise ValueError(f"{what} does not have unit trace")


@dataclass(frozen=True)
class ProofModel:
    """The copies of one prover's proof, as (state, multiplicity) groups.

    k IID copies of rho are the one group ``((rho, k),)``. Groups are kept
    as given, not merged, and each group's state is checked once.
    """

    groups: tuple[tuple[HermitianOperator, int], ...]

    def __init__(self, groups):
        groups = tuple((s, n) for s, n in groups)
        if not groups:
            raise ValueError("need at least one copy")
        for s, n in groups:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"copy multiplicity must be a positive integer, got {n!r}")
            _check_density(s, "proof state")
        object.__setattr__(self, "groups", groups)


@dataclass(frozen=True)
class MerlinMessage:
    """Per-prover claimed distributions (exact fixed point) plus proof models.

    ``x_register[j][i]`` is an integer numerator over 2**alpha. Honest
    messages sum to exactly 2**alpha per prover; the constructor does not
    enforce that, since checking it is the verifier's job (step 3).
    """

    alpha: int
    x_register: tuple[tuple[int, ...], ...]
    y_register: tuple[ProofModel, ...]

    def __init__(self, alpha, x_register, y_register):
        alpha = int(alpha)
        if alpha < 1:
            raise ValueError("alpha must be positive")
        xs = tuple(tuple(int(c) for c in row) for row in x_register)
        for j, row in enumerate(xs):
            if any(c < 0 for c in row):
                raise ValueError(f"prover {j} claim has negative numerators")
        ys = tuple(y_register)
        if len(xs) != len(ys):
            raise ValueError("x and y registers must cover the same provers")
        for y in ys:
            if not isinstance(y, ProofModel):
                raise TypeError(f"unsupported proof model {type(y).__name__}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "x_register", xs)
        object.__setattr__(self, "y_register", ys)


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    rejection_stage: str | None
    step4_pick: tuple[int, int] | None
    step4_count: int | None


# -- fixed-point arithmetic ---------------------------------------------------


def fixed_point_distribution(probs: Sequence[float], alpha: int) -> tuple[int, ...]:
    """Exact fixed-point rendering of a probability vector.

    The floats are renormalized as exact rationals, truncated to alpha
    fractional bits, and topped up by largest remainder so the numerators
    sum to exactly 2**alpha. Each entry moves by less than 2**-alpha
    relative to the renormalized input.
    """
    return _largest_remainder(probs, 1 << int(alpha))


def _largest_remainder(weights: Sequence[float], total: int) -> tuple[int, ...]:
    # Split the integer total in proportion to the weights (negatives count
    # as 0): exact-rational floors, then +1 by largest remainder, ties to
    # the lower index.
    vals = [Fraction(max(float(x), 0.0)) for x in weights]
    mass = sum(vals)
    if mass == 0:
        raise ValueError("cannot encode the zero vector as a distribution")
    scaled = [v / mass * total for v in vals]
    floors = [int(v) for v in scaled]  # Fractions are nonnegative: int() floors
    order = sorted(range(len(vals)), key=lambda i: (floors[i] - scaled[i], i))
    for i in order[: total - sum(floors)]:
        floors[i] += 1
    return tuple(floors)


def _word_count(alpha: int) -> int:
    # 32-bit words per draw: ceil(ceil(alpha / 8) / 4)
    return ((alpha + 7) // 8 + 3) // 4


def _draws_from_words(rows: Sequence[Sequence[int]], alpha: int, words: np.ndarray) -> np.ndarray:
    # words: (n, len(rows), _word_count(alpha)) uint32; one _invert_cdf per row.
    stream = words.astype("<u4", copy=False).view(np.uint8)[..., : (alpha + 7) // 8]
    out = np.empty(words.shape[:2], dtype=np.intp)
    for j, row in enumerate(rows):
        out[:, j] = _invert_cdf(row, alpha, stream[:, j])
    return out


def _invert_cdf(weights: Sequence[int], alpha: int, stream: np.ndarray) -> np.ndarray:
    # stream: (n, ceil(alpha/8)) bytes whose leading alpha bits are u.
    # Compare the leading min(alpha, 63) bits of u with the cumulative
    # numerators cut to the same bits, in uint64 (the cut total 2**63 does
    # not fit int64). For alpha <= 63 that is exact; above, u and a bound
    # with equal prefixes are compared again as exact integers.
    bits = min(alpha, 63)
    shift = alpha - bits
    head = np.zeros((len(stream), 8), dtype=np.uint8)
    head[:, : min(stream.shape[1], 8)] = stream[:, :8]
    lead = head.view(">u8")[:, 0].astype(np.uint64) >> np.uint64(64 - bits)
    scale = 1 << alpha
    cum = list(itertools.accumulate(weights))
    bounds = np.array([min(c, scale) >> shift for c in cum], dtype=np.uint64)
    idx = np.searchsorted(bounds, lead, side="right")
    if shift:
        for t in np.flatnonzero(idx != np.searchsorted(bounds, lead, side="left")):
            u = int.from_bytes(stream[t].tobytes(), "big") >> (8 * stream.shape[1] - alpha)
            idx[t] = bisect.bisect_right(cum, u)
    return np.minimum(idx, len(cum) - 1)


# -- message construction -----------------------------------------------------


def stage1_distribution(protocol: BellProtocol, j: int, rho: HermitianOperator) -> np.ndarray:
    """Outcome distribution of prover j's POVM on the state rho."""
    povm = protocol.povms[j]
    probs = np.array([hs_inner(e, rho) for e in povm])
    return probs


def honest_message(
    protocol: BellProtocol,
    proofs: Sequence[HermitianOperator],
    params: ProtocolParams,
) -> MerlinMessage:
    """Claims the true POVM distributions; sends k IID copies of each proof."""
    if len(proofs) != protocol.m:
        raise ValueError(f"{len(proofs)} proofs for {protocol.m} provers")
    claimed = [stage1_distribution(protocol, j, rho) for j, rho in enumerate(proofs)]
    return message_from_distributions(claimed, proofs, params)


def message_from_distributions(
    claimed: Sequence[Sequence[float]],
    proofs: Sequence[HermitianOperator],
    params: ProtocolParams,
) -> MerlinMessage:
    """A (possibly lying) message: claim ``claimed`` but hold ``proofs``."""
    xs = tuple(fixed_point_distribution(row, params.alpha) for row in claimed)
    ys = tuple(ProofModel([(rho, params.k)]) for rho in proofs)
    if len(xs) != len(ys):
        raise ValueError("claimed rows and proofs must cover the same provers")
    return MerlinMessage(alpha=params.alpha, x_register=xs, y_register=ys)


def alternating_message(
    protocol: BellProtocol,
    proofs: Sequence[HermitianOperator],
    params: ProtocolParams,
) -> MerlinMessage:
    """Non-IID copies: cycle through each proof's eigenstates in proportion.

    The k copies of prover j enumerate the eigenvectors of the proof, with
    multiplicities k * eigenvalue (largest remainder). The claim is the
    POVM distribution of the realized empirical mixture, so expectations
    match step 4 exactly even though individual copies differ.
    """
    if len(proofs) != protocol.m:
        raise ValueError(f"{len(proofs)} proofs for {protocol.m} provers")
    xs = []
    ys = []
    for j, rho in enumerate(proofs):
        w, v = np.linalg.eigh(rho.entries)
        w = np.clip(w, 0.0, None)
        counts = _largest_remainder(w / w.sum(), params.k)
        groups = []
        mix = np.zeros_like(rho.entries)
        for lam_count, col in zip(counts, v.T):
            if lam_count == 0:
                continue
            proj = np.outer(col, col.conj())
            groups.append((HermitianOperator(rho.shape, proj), lam_count))
            mix += (lam_count / params.k) * proj
        ys.append(ProofModel(groups))
        probs = stage1_distribution(protocol, j, HermitianOperator(rho.shape, mix))
        xs.append(fixed_point_distribution(probs, params.alpha))
    return MerlinMessage(alpha=params.alpha, x_register=tuple(xs), y_register=tuple(ys))


# -- verification -------------------------------------------------------------


def _checked_groups(y: ProofModel, k: int):
    held = sum(n for _, n in y.groups)
    if held != k:
        raise ValueError(f"proof model holds {held} copies, expected {k}")
    return y.groups


def _step4_binomials(protocol, message, params, j, i) -> list[tuple[int, float]]:
    # (copies, probability) of each binomial that counts outcome i of prover j
    out = []
    for s, mult in _checked_groups(message.y_register[j], params.k):
        probs = np.clip(stage1_distribution(protocol, j, s), 0.0, None)
        out.append((mult, min(float(probs[i] / max(probs.sum(), 1.0)), 1.0)))
    return out


def step4_frequency_test(n: int, claim_numerator: int, params: ProtocolParams) -> bool:
    """True when the empirical count is consistent with the claim.

    Exact integer form of |n/k - c/2**alpha| < 1/p:
    |n * 2**alpha - c * k| * p < k * 2**alpha.
    """
    scale = 1 << params.alpha
    return abs(n * scale - claim_numerator * params.k) * params.p < params.k * scale


def arthur_verify(
    protocol: BellProtocol,
    message: MerlinMessage,
    params: ProtocolParams,
    rng=None,
) -> VerificationOutcome:
    """One full verification; see the module docstring for the three steps."""
    return _verify_trials(protocol, message, params, [default_rng(rng)])[0]


def _verify_trials(
    protocol: BellProtocol,
    message: MerlinMessage,
    params: ProtocolParams,
    children: Sequence[np.random.Generator],
) -> list[VerificationOutcome]:
    """One verification of ``message`` per generator, as a block."""
    m, r = protocol.m, protocol.r
    rows = message.x_register
    if len(rows) != m:
        raise ValueError(f"message covers {len(rows)} provers, expected {m}")
    if message.alpha != params.alpha:
        raise ValueError(
            f"message uses alpha = {message.alpha}, verifier expects {params.alpha}"
        )
    for row in rows:
        if len(row) != r:
            raise ValueError(f"claim row of length {len(row)}, expected {r}")

    # Step 3: exact fixed-point sum check.
    scale = 1 << params.alpha
    if any(sum(row) != scale for row in rows):
        return [VerificationOutcome(False, "step3", None, None)] * len(children)

    # Step 4: one uniformly random frequency test per trial. Trials that
    # pass draw their q * m step-5 words at once, as the last draw before
    # the fractional acceptances below.
    outcomes: list = [None] * len(children)
    binomials: dict[tuple[int, int], list[tuple[int, float]]] = {}
    passed = []
    words = []
    shape = (params.q, m, _word_count(params.alpha))
    for t, child in enumerate(children):
        j = int(child.integers(m))
        i = int(child.integers(r))
        pick = binomials.get((j, i))
        if pick is None:
            pick = binomials[j, i] = _step4_binomials(protocol, message, params, j, i)
        n = sum(int(child.binomial(copies, prob)) for copies, prob in pick)
        if not step4_frequency_test(n, rows[j][i], params):
            outcomes[t] = VerificationOutcome(False, "step4", (j, i), n)
            continue
        passed.append((t, (j, i), n))
        words.append(child.integers(0, 2 ** 32, size=shape, dtype=np.uint32))
    if not passed:
        return outcomes

    # Step 5: majority over q simulated runs of the classical stage, for
    # every passing trial at once.
    draws = _draws_from_words(rows, params.alpha, np.concatenate(words))
    pr = protocol.stage2.table[tuple(draws.T)].reshape(len(passed), params.q)
    frac = (pr > 0.0) & (pr < 1.0)
    counts = np.count_nonzero(frac, axis=1).tolist()
    u = np.concatenate([children[t].random(c) for (t, _, _), c in zip(passed, counts)])
    accepting = np.count_nonzero(pr >= 1.0, axis=1) + np.bincount(
        np.nonzero(frac)[0][u < pr[frac]], minlength=len(passed)
    )
    for (t, pick, n), a in zip(passed, accepting.tolist()):
        accepted = 2 * a > params.q
        outcomes[t] = VerificationOutcome(accepted, None if accepted else "step5", pick, n)
    return outcomes


_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z2 = _Z95 ** 2
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        _Z95
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials ** 2))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_acceptance(
    protocol: BellProtocol,
    merlin,
    params: ProtocolParams,
    trials: int,
    rng=None,
    *,
    collect: bool = False,
) -> dict:
    """Acceptance frequency over independent verifications.

    Every trial verifies the one MerlinMessage ``merlin``. Returns
    ``{"mean", "ci95", "accepted", "trials"}`` where ci95 is the Wilson
    interval; with ``collect=True`` the per-trial outcomes are included.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = default_rng(rng)
    outcomes = []
    accepted = 0
    # spawn(a) then spawn(b) gives the children of spawn(a + b), so the
    # blocks bound memory without moving any trial's stream.
    for start in range(0, trials, _TRIAL_BLOCK):
        children = rng.spawn(min(_TRIAL_BLOCK, trials - start))
        block = _verify_trials(protocol, merlin, params, children)
        accepted += sum(out.accepted for out in block)
        if collect:
            outcomes += block
    lo, hi = wilson_interval(accepted, trials)
    result = {
        "mean": accepted / trials,
        "ci95": (lo, hi),
        "accepted": accepted,
        "trials": trials,
    }
    if collect:
        result["outcomes"] = outcomes
    return result


# -- serialization ------------------------------------------------------------
#
# {"n", "m", "r", "povms": [[operator doc, ...], ...],
#  "stage2": {"kind": "accept_all" | "reject_all" | "table", "table": nested},
#  "proofs": [operator doc, ...]}  (proofs optional; default maximally mixed)


def protocol_to_dict(protocol: BellProtocol, proofs=None) -> dict:
    stage2_table = protocol.stage2.table
    if np.all(stage2_table == 1.0):
        stage2 = {"kind": "accept_all"}
    elif np.all(stage2_table == 0.0):
        stage2 = {"kind": "reject_all"}
    else:
        stage2 = {"kind": "table", "table": stage2_table.tolist()}
    doc = {
        "n": protocol.n,
        "m": protocol.m,
        "r": protocol.r,
        "povms": [[operator_to_dict(e) for e in povm] for povm in protocol.povms],
        "stage2": stage2,
    }
    if proofs is not None:
        doc["proofs"] = [operator_to_dict(rho) for rho in proofs]
    return doc


def protocol_from_dict(doc: dict) -> tuple[BellProtocol, list[HermitianOperator]]:
    """Parse a protocol document; returns (protocol, proofs).

    Absent proofs default to the maximally mixed state per prover.
    """
    def int_field(key: str) -> int:
        value = doc[key]
        if not _is_integer(value):
            raise ValueError(f"protocol field {key!r} must be an integer, got {value!r}")
        return int(value)

    try:
        n, m, r = int_field("n"), int_field("m"), int_field("r")
        povms = tuple(
            tuple(operator_from_dict(e) for e in povm) for povm in doc["povms"]
        )
        stage2_doc = doc.get("stage2", {"kind": "accept_all"})
        kind = stage2_doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed protocol document: {exc}") from exc
    if kind == "accept_all":
        stage2 = Stage2Acceptor.accept_all(m, r)
    elif kind == "reject_all":
        stage2 = Stage2Acceptor.reject_all(m, r)
    elif kind == "table":
        stage2 = Stage2Acceptor(np.asarray(stage2_doc["table"], dtype=np.float64))
    else:
        raise ValueError(f"unknown stage2 kind {kind!r}")
    protocol = BellProtocol(n, m, r, povms, stage2)
    if "proofs" in doc:
        proofs = [operator_from_dict(p) for p in doc["proofs"]]
    else:
        proofs = [
            HermitianOperator(MultipartiteShape([d]), np.eye(d, dtype=complex) / d)
            for d in protocol.local_dims
        ]
    if len(proofs) != m:
        raise ValueError(f"{len(proofs)} proofs for {m} provers")
    return protocol, proofs


# -- reference bounds ---------------------------------------------------------


def completeness_error_bound(params: ProtocolParams) -> float:
    """Upper bound on the rejection probability of an honest message."""
    return 2.0 * math.exp(-5.0 * params.p / 4.0) + 2.0 * math.exp(-0.02 * params.q)


def soundness_bound(m: int, r: int) -> float:
    """Upper bound on acceptance when a claim strays by >= 1/(10 m r)."""
    return 1.0 - 1.0 / (40.0 * m ** 2 * r ** 2)


def deviation_threshold(m: int, r: int) -> float:
    """Claim deviation that the soundness bound is calibrated against."""
    return 1.0 / (10.0 * m * r)
