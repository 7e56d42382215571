"""The grouped proof model and the batched verifier.

Each verification is checked against a reference written the way the
verifier used to run: one trial at a time, one binomial per group on every
step-4 count, and one ``rng.bytes`` draw per outcome of step 5.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from multiprover.bellqma import (
    BellProtocol,
    ProofModel,
    ProtocolParams,
    Stage2Acceptor,
    VerificationOutcome,
    alternating_message,
    arthur_verify,
    estimate_acceptance,
    honest_message,
    message_from_distributions,
    stage1_distribution,
    step4_frequency_test,
)
from multiprover.bellqma import _draws_from_words, _invert_cdf, _word_count
from multiprover.linalg import HermitianOperator, basis_state
from multiprover.rand import default_rng, random_density, random_povm

ALPHAS = (4, 16, 62, 63, 64, 120, 150)


# -- reference: the sequential verifier ------------------------------------------


def reference_sample(weights, alpha, rng):
    nbytes = (alpha + 7) // 8
    u = int.from_bytes(rng.bytes(nbytes), "big") >> (nbytes * 8 - alpha)
    acc = 0
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            return idx
    return len(weights) - 1


def word_draws(rows, alpha, n, rng):
    # Step 5's draws: the (n, rows, words) uint32 words _verify_trials draws
    # on a trial's generator, inverted against the claimed rows.
    words = rng.integers(0, 2 ** 32, size=(n, len(rows), _word_count(alpha)), dtype=np.uint32)
    return _draws_from_words(rows, alpha, words)


def reference_step4(protocol, message, params, j, i, rng):
    y = message.y_register[j]
    assert sum(mult for _, mult in y.groups) == params.k
    if len(y.groups) == 1:
        # k IID copies, as honest_message and message_from_distributions
        # build them: the formula of the former IID step-4 path
        probs = stage1_distribution(protocol, j, y.groups[0][0])
        prob = float(np.clip(probs, 0.0, 1.0)[i] / max(np.clip(probs, 0.0, None).sum(), 1.0))
        return int(rng.binomial(params.k, min(prob, 1.0)))
    n = 0
    for s, mult in y.groups:
        probs = np.clip(stage1_distribution(protocol, j, s), 0.0, None)
        prob = min(float(probs[i] / max(probs.sum(), 1.0)), 1.0)
        n += int(rng.binomial(mult, prob))
    return n


def reference_verify(protocol, message, params, rng, *, fractional_last=False):
    # fractional_last: draw every step-5 outcome first, then rng.random()
    # for the runs with fractional acceptance, in run order, as the batched
    # verifier does; without it the draws interleave, which matches the
    # batched verifier only on 0/1 stage-2 tables
    rng = default_rng(rng)
    m, r = protocol.m, protocol.r
    scale = 1 << params.alpha
    for row in message.x_register:
        if sum(row) != scale:
            return VerificationOutcome(False, "step3", None, None)
    j = int(rng.integers(m))
    i = int(rng.integers(r))
    n = reference_step4(protocol, message, params, j, i, rng)
    if not step4_frequency_test(n, message.x_register[j][i], params):
        return VerificationOutcome(False, "step4", (j, i), n)
    accepting = 0
    prs = []
    for _ in range(params.q):
        outcome = tuple(
            reference_sample(message.x_register[jj], params.alpha, rng) for jj in range(m)
        )
        pr = protocol.stage2.accept_probability(outcome)
        if fractional_last:
            prs.append(pr)
        elif pr >= 1.0 or (pr > 0.0 and rng.random() < pr):
            accepting += 1
    for pr in prs:
        if pr >= 1.0 or (pr > 0.0 and rng.random() < pr):
            accepting += 1
    if 2 * accepting <= params.q:
        return VerificationOutcome(False, "step5", (j, i), n)
    return VerificationOutcome(True, None, (j, i), n)


# -- fixtures -------------------------------------------------------------------------


def random_protocol(m, r, stage2, seed):
    rng = default_rng(seed)
    povms = [random_povm(2, r, rng) for _ in range(m)]
    proofs = [random_density(2, rng) for _ in range(m)]
    return BellProtocol(1, m, r, povms, stage2), proofs


def stage2_tables(m, r):
    return {
        "accept_all": Stage2Acceptor.accept_all(m, r),
        "reject_all": Stage2Acceptor.reject_all(m, r),
        "parity": Stage2Acceptor.from_function(lambda o: float(sum(o) % 2 == 0), m, r),
    }


# -- sampler ----------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
def test_batch_draws_equal_sequential_draws(alpha):
    gen = default_rng(alpha)
    scale = 1 << alpha
    rows = []
    for r in (1, 2, 3, 5):
        cuts = sorted(int(x) for x in gen.integers(0, 2 ** 62, size=r - 1)) if r > 1 else []
        cuts = [c * scale >> 62 for c in cuts]
        rows.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [scale])))
    rows.append((0,) * 2 + (scale,))  # zero weights ahead of the mass
    rows.append((scale // 3,) * 2)  # short of 2**alpha: the last index takes the rest
    batch_rng, seq_rng = default_rng(7), default_rng(7)
    got = word_draws(rows, alpha, 400, batch_rng)
    want = [[reference_sample(row, alpha, seq_rng) for row in rows] for _ in range(400)]
    assert got.tolist() == want
    # the generators end in the same state
    assert batch_rng.random() == seq_rng.random()
    single = default_rng(8)
    ref = default_rng(8)
    assert [int(word_draws([rows[2]], alpha, 1, single)[0, 0]) for _ in range(50)] == [
        reference_sample(rows[2], alpha, ref) for _ in range(50)
    ]


@pytest.mark.parametrize("alpha", (63, 64, 120, 150))
def test_tied_prefixes_fall_back_to_exact_comparison(alpha):
    # u that agree with a cumulative bound on the leading 63 bits are
    # settled by exact integers: u = bound - 1 lands below it, u = bound on it
    scale = 1 << alpha
    w0 = scale // 3 + 5
    weights = (w0, scale // 4, scale - w0 - scale // 4)
    bounds = list(itertools.accumulate(weights))
    us = []
    for b in bounds[:-1]:
        us += [b - 2, b - 1, b, b + 1]
    us += [0, scale - 1]
    nbytes = (alpha + 7) // 8
    stream = np.array(
        [list((u << (8 * nbytes - alpha)).to_bytes(nbytes, "big")) for u in us], dtype=np.uint8
    )
    want = [min(sum(b <= u for b in bounds), len(weights) - 1) for u in us]
    assert _invert_cdf(weights, alpha, stream).tolist() == want


# -- verification against the reference ---------------------------------------------------


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_verification_matches_sequential_reference(m, alpha):
    r = 2
    for name, stage2 in stage2_tables(m, r).items():
        protocol, proofs = random_protocol(m, r, stage2, seed=10 * m + alpha)
        params = ProtocolParams(p=8, k=400, q=7, alpha=alpha)
        messages = {
            "iid": honest_message(protocol, proofs, params),
            "alternating": alternating_message(protocol, proofs, params),
        }
        for kind, msg in messages.items():
            for seed in range(6):
                got = arthur_verify(protocol, msg, params, rng=seed)
                want = reference_verify(protocol, msg, params, seed)
                assert got == want, (name, kind, seed)


def test_estimate_acceptance_outcomes_match_reference():
    stage2 = Stage2Acceptor.from_function(lambda o: float(o[0] == o[1]), 2, 3)
    protocol, proofs = random_protocol(2, 3, stage2, seed=3)
    params = ProtocolParams(p=10, k=2000, q=5, alpha=120)
    msg = alternating_message(protocol, proofs, params)
    res = estimate_acceptance(protocol, msg, params, trials=60, rng=11, collect=True)
    children = default_rng(11).spawn(60)
    want = [reference_verify(protocol, msg, params, c) for c in children]
    assert res["outcomes"] == want
    assert len({o.accepted for o in want}) == 2  # both verdicts occur


def estimate_matches_reference(protocol, msg, params, trials, seed):
    res = estimate_acceptance(protocol, msg, params, trials, rng=seed, collect=True)
    want = [
        reference_verify(protocol, msg, params, child, fractional_last=True)
        for child in default_rng(seed).spawn(trials)
    ]
    assert res["outcomes"] == want
    assert res["accepted"] == sum(o.accepted for o in want)
    return want


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_estimate_acceptance_blocks_match_reference_on_every_child(m, alpha):
    # IID, explicit and lying claims on 0/1, parity and fractional tables:
    # every trial of a block equals the sequential verifier on its child
    r = 3
    tables = dict(stage2_tables(m, r))
    tables["fractional"] = Stage2Acceptor.from_function(
        lambda o: (0.0, 0.3, 1.0, 0.7)[sum(o) % 4], m, r
    )
    stages = set()
    for name, stage2 in tables.items():
        protocol, proofs = random_protocol(m, r, stage2, seed=100 * m + alpha)
        params = ProtocolParams(p=8, k=400, q=7, alpha=alpha)
        claims = [[0.6, 0.3, 0.1]] + [
            stage1_distribution(protocol, j, rho) for j, rho in enumerate(proofs[1:], 1)
        ]
        messages = {
            "iid": honest_message(protocol, proofs, params),
            "alternating": alternating_message(protocol, proofs, params),
            "lying": message_from_distributions(claims, proofs, params),
        }
        for kind, msg in messages.items():
            want = estimate_matches_reference(protocol, msg, params, 25, seed=alpha + m)
            stages.update(o.rejection_stage for o in want)
    assert stages == {None, "step4", "step5"}


def test_estimate_acceptance_step3_failure():
    protocol, proofs = random_protocol(2, 2, Stage2Acceptor.accept_all(2, 2), seed=4)
    params = ProtocolParams(p=8, k=400, q=7, alpha=16)
    msg = honest_message(protocol, proofs, params)
    short = type(msg)(msg.alpha, (msg.x_register[0], (1, 2)), msg.y_register)
    want = estimate_matches_reference(protocol, short, params, 30, seed=9)
    assert want == [VerificationOutcome(False, "step3", None, None)] * 30


def test_estimate_acceptance_across_block_edges(monkeypatch):
    import multiprover.bellqma as bellqma

    stage2 = Stage2Acceptor.from_function(lambda o: 0.5 + 0.5 * (o[0] == o[1]), 2, 2)
    protocol, proofs = random_protocol(2, 2, stage2, seed=6)
    params = ProtocolParams(p=8, k=400, q=3, alpha=63)
    msg = alternating_message(protocol, proofs, params)
    estimate_matches_reference(protocol, msg, params, bellqma._TRIAL_BLOCK + 9, seed=13)
    monkeypatch.setattr(bellqma, "_TRIAL_BLOCK", 4)
    estimate_matches_reference(protocol, msg, params, 27, seed=14)
    estimate_matches_reference(protocol, msg, params, 8, seed=15)


def test_copy_count_mismatch_raises_at_the_first_trial_that_picks_it():
    # prover 0 holds 399 copies for k = 400; the check runs only when a
    # trial picks prover 0, as it did one trial at a time
    protocol, proofs = random_protocol(2, 2, Stage2Acceptor.accept_all(2, 2), seed=7)
    params = ProtocolParams(p=8, k=400, q=3, alpha=16)
    honest = honest_message(protocol, proofs, params)
    short = type(honest)(
        params.alpha, honest.x_register, (ProofModel([(proofs[0], 399)]), honest.y_register[1])
    )
    picks = [int(c.integers(2)) for c in default_rng(3).spawn(40)]
    first = picks.index(0)
    assert first > 0
    res = estimate_acceptance(protocol, short, params, first, rng=3, collect=True)
    assert [o.step4_pick[0] for o in res["outcomes"]] == [1] * first
    with pytest.raises(ValueError, match="399 copies, expected 400"):
        estimate_acceptance(protocol, short, params, first + 1, rng=3)


def test_step5_acceptance_on_fractional_table():
    # one prover with the exact claim (1/2, 1/2) and stage-2 acceptance
    # (0.3, 0.8): each run accepts with 0.55, so q = 3 runs accept by
    # majority with 3 (0.55)^2 (0.45) + (0.55)^3
    protocol = BellProtocol(
        1, 1, 2, [[basis_state([2], i).projector() for i in range(2)]], Stage2Acceptor([0.3, 0.8])
    )
    mixed = HermitianOperator([2], 0.5 * np.eye(2))
    trials = 4000
    for alpha in (16, 120):
        params = ProtocolParams(p=5, k=10_000, q=3, alpha=alpha)
        msg = honest_message(protocol, [mixed], params)
        res = estimate_acceptance(protocol, msg, params, trials=trials, rng=alpha, collect=True)
        assert all(o.rejection_stage != "step4" for o in res["outcomes"])
        p = 3 * 0.55 ** 2 * 0.45 + 0.55 ** 3
        expected = np.array([p, 1.0 - p]) * trials
        counts = np.array([res["accepted"], trials - res["accepted"]])
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1.0 - 1e-3, df=1)


# -- grouped proof model ---------------------------------------------------------------------


@pytest.mark.parametrize("eigenvalues", [(0.5, 0.3, 0.2), (0.6, 0.4, 0.0), (1.0, 0.0, 0.0)])
def test_alternating_message_groups(eigenvalues):
    rng = default_rng(4)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(z)
    rho = HermitianOperator([3], u @ np.diag(eigenvalues) @ u.conj().T)
    povm = [basis_state([3], i).projector() for i in range(3)]
    protocol = BellProtocol(1, 1, 3, [povm], Stage2Acceptor.accept_all(1, 3))
    params = ProtocolParams(p=10, k=40_000, q=5, alpha=40)
    (y,) = alternating_message(protocol, [rho], params).y_register
    nonzero = sorted(x for x in eigenvalues if x > 0)
    assert len(y.groups) == len(nonzero)
    assert sum(n for _, n in y.groups) == params.k
    mults = sorted(n for _, n in y.groups)
    for n, lam in zip(mults, nonzero):
        assert abs(n - lam * params.k) < 1
    for s, _ in y.groups:
        # each group is a rank-one eigenprojector of the proof
        assert math.isclose(s.trace(), 1.0, abs_tol=1e-12)
        assert np.allclose(s.entries @ s.entries, s.entries, atol=1e-12)


def test_explicit_model_groups_by_identity_in_first_appearance_order():
    # groups are kept as given, in order: neither a repeated state nor an
    # equal one is merged into an earlier group
    a = basis_state([2], 0).projector()
    b = basis_state([2], 1).projector()
    same_as_a = HermitianOperator([2], a.entries.copy())  # equal, not identical
    model = ProofModel([(a, 3), (b, 2), (same_as_a, 1), (a, 4)])
    assert [(s is a, s is b, s is same_as_a, n) for s, n in model.groups] == [
        (True, False, False, 3),
        (False, True, False, 2),
        (False, False, True, 1),
        (True, False, False, 4),
    ]


def test_explicit_model_checks_each_distinct_state_once(monkeypatch):
    import multiprover.bellqma as bellqma

    checked = []
    monkeypatch.setattr(bellqma, "_check_density", lambda rho, what: checked.append(rho))
    a = basis_state([2], 0).projector()
    b = basis_state([2], 1).projector()
    ProofModel([(a, 500), (b, 300)])
    assert checked == [a, b]


def test_explicit_copy_count_must_match_k():
    protocol = BellProtocol(
        1, 1, 2, [[basis_state([2], i).projector() for i in range(2)]],
        Stage2Acceptor.accept_all(1, 2),
    )
    params = ProtocolParams(p=10, k=100, q=5, alpha=16)
    msg = alternating_message(protocol, [HermitianOperator([2], 0.5 * np.eye(2))], params)
    short = ProtocolParams(p=10, k=99, q=5, alpha=16)
    with pytest.raises(ValueError, match="100 copies, expected 99"):
        arthur_verify(protocol, msg, short, rng=0)
    # an IID message is tied to the k it was built for, too
    honest = honest_message(protocol, [HermitianOperator([2], 0.5 * np.eye(2))], params)
    with pytest.raises(ValueError, match="100 copies, expected 99"):
        arthur_verify(protocol, honest, short, rng=0)


# -- non-finite input -------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stage2_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            Stage2Acceptor([[bad, 1.0], [1.0, 1.0]])
