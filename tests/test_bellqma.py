import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from multiprover.bellqma import (
    BellProtocol,
    MerlinMessage,
    ProofModel,
    ProtocolParams,
    Stage2Acceptor,
    TableCapacityError,
    alternating_message,
    arthur_verify,
    completeness_error_bound,
    derive_params,
    deviation_threshold,
    estimate_acceptance,
    fixed_point_distribution,
    honest_message,
    message_from_distributions,
    protocol_from_dict,
    protocol_to_dict,
    soundness_bound,
    stage1_distribution,
    step4_frequency_test,
    wilson_interval,
)
from multiprover.bellqma import _draws_from_words, _largest_remainder, _word_count
from multiprover.linalg import HermitianOperator, basis_state, identity
from multiprover.rand import default_rng, random_density, random_povm


def z_basis_povm():
    return [basis_state([2], i).projector() for i in range(2)]


def qubit_protocol(m=2, stage2=None):
    stage2 = stage2 or Stage2Acceptor.accept_all(m, 2)
    return BellProtocol(1, m, 2, [z_basis_povm() for _ in range(m)], stage2)


def qutrit_protocol(m=2):
    povm = [basis_state([3], i).projector() for i in range(3)]
    return BellProtocol(1, m, 3, [povm] * m, Stage2Acceptor.accept_all(m, 3))


def mixed_qubit():
    return HermitianOperator([2], 0.5 * np.eye(2))


SMALL = ProtocolParams(p=40, k=5000, q=20, alpha=16)


# -- parameters -----------------------------------------------------------------


def test_derive_params_formulas():
    params = derive_params(1, 2, 2)
    assert params == ProtocolParams(p=80, k=2_560_000, q=50, alpha=80)
    params = derive_params(2, 3, 2)
    assert params.p == 20 * 3 * 2
    assert params.k == 5 * params.p ** 3
    assert params.q == 100
    assert params.alpha == 20 * 2 * 3 * 2


def test_derive_params_overflow():
    with pytest.raises(OverflowError):
        derive_params(1, 700, 100)


def test_params_k_above_63_bits():
    # the copy count feeds rng.binomial, which takes a signed 64-bit count
    assert ProtocolParams(p=1, k=2 ** 63 - 1, q=1, alpha=1).k == 2 ** 63 - 1
    with pytest.raises(OverflowError, match="63-bit sampling limit"):
        ProtocolParams(p=1, k=2 ** 63, q=1, alpha=1)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(p=0, k=1, q=1, alpha=1)
    with pytest.raises(ValueError):
        ProtocolParams(p=1, k=1, q=-3, alpha=1)


def test_frozen_bounds():
    params = ProtocolParams(p=80, k=2_560_000, q=50, alpha=80)
    want = 2 * math.exp(-100.0) + 2 * math.exp(-1.0)
    assert completeness_error_bound(params) == pytest.approx(want, rel=1e-15)
    assert completeness_error_bound(params) == pytest.approx(0.7357588823428847, abs=1e-13)
    assert soundness_bound(2, 2) == pytest.approx(1.0 - 1.0 / 640.0, abs=1e-15)
    assert soundness_bound(2, 2) == 0.9984375
    assert deviation_threshold(2, 3) == pytest.approx(1.0 / 60.0, abs=1e-18)


# -- fixed-point distribution -----------------------------------------------------


def test_fixed_point_distribution_oracle_cases():
    # uniform over 3 with alpha=3: floors (2,2,2), equal remainders, deficit 2
    # goes to the two lowest indices
    assert fixed_point_distribution([1 / 3, 1 / 3, 1 / 3], 3) == (3, 3, 2)
    # exact dyadic probabilities are preserved
    assert fixed_point_distribution([0.5, 0.5], 4) == (8, 8)
    assert fixed_point_distribution([1.0, 0.0], 5) == (32, 0)
    # one largest remainder takes the single leftover slot
    assert fixed_point_distribution([0.7, 0.3], 3) == (6, 2)
    # unnormalized input is renormalized first
    assert fixed_point_distribution([2.0, 2.0], 1) == (1, 1)


def test_fixed_point_distribution_sums_exactly():
    rng = default_rng(0)
    for _ in range(200):
        r = int(rng.integers(2, 7))
        alpha = int(rng.integers(1, 120))
        probs = rng.random(r)
        out = fixed_point_distribution(probs, alpha)
        assert sum(out) == 1 << alpha
        assert all(c >= 0 for c in out)
        # each numerator within one unit of the exactly renormalized target
        total = sum(Fraction(float(x)) for x in probs)
        for c, x in zip(out, probs):
            target = Fraction(float(x)) / total * (1 << alpha)
            assert abs(Fraction(c) - target) <= 1


def test_fixed_point_distribution_rejects_zero():
    with pytest.raises(ValueError):
        fixed_point_distribution([0.0, 0.0], 4)
    # negatives are clipped, not propagated
    assert fixed_point_distribution([-1.0, 1.0], 2) == (0, 4)


def _reference_fixed_point_distribution(probs, alpha):
    # The earlier body of fixed_point_distribution.
    scale = 1 << int(alpha)
    vals = [Fraction(max(float(x), 0.0)) for x in probs]
    total = sum(vals)
    if total == 0:
        raise ValueError("cannot encode the zero vector as a distribution")
    vals = [v / total for v in vals]
    scaled = [v * scale for v in vals]
    floors = [int(s) for s in scaled]
    remainders = [s - f for s, f in zip(scaled, floors)]
    deficit = scale - sum(floors)
    order = sorted(range(len(vals)), key=lambda i: (-remainders[i], i))
    for i in order[:deficit]:
        floors[i] += 1
    return tuple(floors)


def _reference_apportion(weights, k):
    # The earlier copy-count split of alternating_message.
    exact = [Fraction(float(x)) * k for x in weights]
    total = sum(exact)
    exact = [e * k / total if total != k else e for e in exact]
    floors = [int(e) for e in exact]
    rem = [e - f for e, f in zip(exact, floors)]
    order = sorted(range(len(floors)), key=lambda i: (-rem[i], i))
    for i in order[: k - sum(floors)]:
        floors[i] += 1
    return floors


PROTOCOL_K = derive_params(1, 2, 2).k  # data/protocol_m2r2.json: k = 2 560 000

LARGEST_REMAINDER_CASES = [
    [0.0, 0.3, 0.0, 0.7],  # zero weights
    [0.0, 1.0],
    [1 / 3, 1 / 3, 1 / 3],  # exact ties
    [0.25, 0.25, 0.25, 0.25],
    [1.0, 1.0],
    [0.7],  # one weight
    [0.1, 0.2, 0.3, 0.4],
    [1e-300, 1.0, 5e-324],
]


@pytest.mark.parametrize("weights", LARGEST_REMAINDER_CASES)
@pytest.mark.parametrize("alpha", (1, 2, 3, 63, 64, 200))
def test_fixed_point_distribution_matches_reference(weights, alpha):
    got = fixed_point_distribution(weights, alpha)
    assert got == _reference_fixed_point_distribution(weights, alpha)


@pytest.mark.parametrize("weights", LARGEST_REMAINDER_CASES)
@pytest.mark.parametrize("k", (1, 2, 3, 7, 40_000, PROTOCOL_K))
def test_copy_split_matches_reference(weights, k):
    w = np.array(weights)
    w = w / w.sum()  # as alternating_message normalizes the clipped spectrum
    assert _largest_remainder(w, k) == tuple(_reference_apportion(w, k))


def test_largest_remainder_matches_references_on_random_weights():
    rng = default_rng(3)
    for _ in range(300):
        w = rng.random(int(rng.integers(1, 7)))
        w[rng.random(len(w)) < 0.2] = 0.0
        if not w.any():
            continue
        alpha = int(rng.integers(1, 201))
        assert fixed_point_distribution(w, alpha) == _reference_fixed_point_distribution(w, alpha)
        k = int(rng.integers(1, PROTOCOL_K + 1))
        w = w / w.sum()
        assert _largest_remainder(w, k) == tuple(_reference_apportion(w, k))


def word_draws(weights, alpha, n, rng):
    # n step-5 draws from the uint32 words _verify_trials draws
    words = rng.integers(0, 2 ** 32, size=(n, 1, _word_count(alpha)), dtype=np.uint32)
    return _draws_from_words([weights], alpha, words)[:, 0]


def test_fixed_point_sampler_is_exact():
    # chi-square goodness of fit against the integer weights
    weights = (1, 3, 12)
    alpha = 4
    rng = default_rng(1)
    n = 20_000
    counts = np.bincount(word_draws(weights, alpha, n, rng), minlength=3)
    expected = np.array(weights) / 16.0 * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1.0 - 1e-3, df=2)


def test_fixed_point_sampler_supports_wide_alpha():
    # alpha beyond 64 bits exercises the big-integer path
    alpha = 150
    scale = 1 << alpha
    weights = (scale // 2, scale - scale // 2)
    rng = default_rng(2)
    draws = word_draws(weights, alpha, 2000, rng)
    frac = draws.sum() / len(draws)
    assert 0.45 < frac < 0.55


# -- protocol construction ---------------------------------------------------------


def test_protocol_validation():
    stage2 = Stage2Acceptor.accept_all(2, 2)
    povm = z_basis_povm()
    proto = BellProtocol(1, 2, 2, [povm, povm], stage2)
    assert proto.local_dims == (2, 2)
    # wrong outcome count
    with pytest.raises(ValueError):
        BellProtocol(1, 2, 3, [povm, povm], Stage2Acceptor.accept_all(2, 3))
    # non-POVM
    bad = [povm[0], povm[0]]
    with pytest.raises(ValueError):
        BellProtocol(1, 2, 2, [bad, povm], stage2)
    # stage-2 table of the wrong shape
    with pytest.raises(ValueError):
        BellProtocol(1, 2, 2, [povm, povm], Stage2Acceptor.accept_all(3, 2))


def test_stage2_acceptor_modes():
    acc = Stage2Acceptor.accept_all(2, 2)
    rej = Stage2Acceptor.reject_all(2, 2)
    assert acc.accept_probability((0, 1)) == 1.0
    assert rej.accept_probability((1, 0)) == 0.0
    agree = Stage2Acceptor.from_function(
        lambda o: 1.0 if o[0] == o[1] else 0.0, 2, 3
    )
    assert agree.accept_probability((2, 2)) == 1.0
    assert agree.accept_probability((0, 1)) == 0.0
    with pytest.raises(ValueError):
        Stage2Acceptor(np.array([[0.5, 2.0], [0.0, 0.0]]))


def test_stage2_table_capacity():
    with pytest.raises(TableCapacityError):
        Stage2Acceptor.accept_all(10, 10)


def test_proof_model_validation():
    with pytest.raises(ValueError, match="trace"):
        ProofModel([(identity([2]), 3)])
    with pytest.raises(ValueError, match="PSD"):
        ProofModel([(HermitianOperator([2], np.diag([1.5, -0.5])), 3)])
    ProofModel([(mixed_qubit(), 1), (mixed_qubit(), 1)])
    with pytest.raises(ValueError, match="at least one copy"):
        ProofModel([])
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="multiplicity"):
            ProofModel([(mixed_qubit(), 2), (mixed_qubit(), bad)])


def test_message_validation():
    with pytest.raises(ValueError):
        MerlinMessage(0, ((1,),), (ProofModel([(mixed_qubit(), SMALL.k)]),))
    with pytest.raises(ValueError, match="negative"):
        MerlinMessage(4, ((-1, 17),), (ProofModel([(mixed_qubit(), SMALL.k)]),))
    with pytest.raises(TypeError):
        MerlinMessage(4, ((8, 8),), ("not a proof",))


# -- stage-1 distributions and counting ---------------------------------------------


def test_stage1_distribution():
    proto = qubit_protocol()
    probs = stage1_distribution(proto, 0, mixed_qubit())
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    probs = stage1_distribution(proto, 1, basis_state([2], 1).projector())
    assert np.allclose(probs, [0.0, 1.0], atol=1e-12)


def test_honest_message_is_the_per_prover_construction():
    # each prover's claim is the fixed-point rendering of its stage-1
    # distribution, and its proof model is the one IID group (rho, k)
    rng = default_rng(3)
    povms = [random_povm(2, 3, rng), random_povm(3, 3, rng)]
    proto = BellProtocol(1, 2, 3, povms, Stage2Acceptor.accept_all(2, 3))
    proofs = [random_density(2, rng), random_density(3, rng)]
    params = ProtocolParams(p=40, k=5000, q=20, alpha=50)
    msg = honest_message(proto, proofs, params)
    assert msg.alpha == params.alpha
    want = tuple(
        fixed_point_distribution(stage1_distribution(proto, j, rho), params.alpha)
        for j, rho in enumerate(proofs)
    )
    assert msg.x_register == want
    for y, rho in zip(msg.y_register, proofs):
        ((state, copies),) = y.groups
        assert state is rho and copies == params.k
    with pytest.raises(ValueError, match="1 proofs for 2 provers"):
        honest_message(proto, proofs[:1], params)


def test_effective_single_copy_state():
    # the average state of one copy, sum n * s / k over the groups, is rho
    proto = qubit_protocol()
    params = ProtocolParams(p=40, k=100, q=20, alpha=16)
    honest = honest_message(proto, [mixed_qubit(), mixed_qubit()], params)
    alt = alternating_message(proto, [mixed_qubit(), mixed_qubit()], params)
    for message in (honest, alt):
        groups = message.y_register[0].groups
        eff = sum(n * s.entries for s, n in groups) / params.k
        assert np.allclose(eff, 0.5 * np.eye(2), atol=1e-12)


# -- step 4 -----------------------------------------------------------------------


def test_step4_boundary_is_exact():
    # |n/k - c/2**alpha| < 1/p with k=100, alpha=10, c=512 (claim 1/2), p=10:
    # passes exactly for 41 <= n <= 59
    params = ProtocolParams(p=10, k=100, q=10, alpha=10)
    for n in range(0, 101):
        want = 41 <= n <= 59
        assert step4_frequency_test(n, 512, params) is want


def test_step4_threshold_scales_with_p():
    params = ProtocolParams(p=20, k=100, q=10, alpha=10)
    assert step4_frequency_test(54, 512, params)
    assert not step4_frequency_test(55, 512, params)


# -- verification ------------------------------------------------------------------


def test_honest_deterministic_proof_always_accepts():
    proto = qubit_protocol()
    proofs = [basis_state([2], 0).projector(), basis_state([2], 1).projector()]
    msg = honest_message(proto, proofs, SMALL)
    for seed in range(20):
        out = arthur_verify(proto, msg, SMALL, rng=seed)
        assert out.accepted
        assert out.rejection_stage is None
        assert out.step4_count is not None


def test_step3_rejects_bad_sum():
    proto = qubit_protocol()
    msg = MerlinMessage(
        SMALL.alpha,
        ((1, 2), (1 << SMALL.alpha, 0)),
        (ProofModel([(mixed_qubit(), SMALL.k)]), ProofModel([(mixed_qubit(), SMALL.k)])),
    )
    out = arthur_verify(proto, msg, SMALL, rng=0)
    assert not out.accepted
    assert out.rejection_stage == "step3"
    assert out.step4_pick is None


def test_step4_rejects_gross_lie():
    # single prover claims a deterministic outcome while holding |+>
    povm = z_basis_povm()
    proto = BellProtocol(1, 1, 2, [povm], Stage2Acceptor.accept_all(1, 2))
    plus = HermitianOperator([2], np.full((2, 2), 0.5))
    msg = message_from_distributions([[1.0, 0.0]], [plus], SMALL)
    res = estimate_acceptance(proto, msg, SMALL, trials=50, rng=5)
    assert res["mean"] == 0.0
    out = arthur_verify(proto, msg, SMALL, rng=1)
    assert out.rejection_stage == "step4"


def test_step5_rejects_when_stage2_rejects():
    proto = qubit_protocol(stage2=Stage2Acceptor.reject_all(2, 2))
    msg = honest_message(proto, [mixed_qubit(), mixed_qubit()], SMALL)
    out = arthur_verify(proto, msg, SMALL, rng=2)
    assert not out.accepted
    assert out.rejection_stage == "step5"


def test_step5_majority_tracks_stage2_probability():
    # stage 2 accepts iff the two outcomes agree; under independent uniform
    # claims that happens with probability 1/2, so the q-run majority is a
    # coin toss; with correlated deterministic claims it accepts always
    agree = Stage2Acceptor.from_function(lambda o: float(o[0] == o[1]), 2, 2)
    proto = qubit_protocol(stage2=agree)
    det = [basis_state([2], 0).projector(), basis_state([2], 0).projector()]
    msg = honest_message(proto, det, SMALL)
    res = estimate_acceptance(proto, msg, SMALL, trials=40, rng=6)
    assert res["mean"] == 1.0


def test_arthur_verify_parameter_mismatches():
    proto = qubit_protocol()
    msg = honest_message(proto, [mixed_qubit(), mixed_qubit()], SMALL)
    other = ProtocolParams(p=40, k=5000, q=20, alpha=8)
    with pytest.raises(ValueError, match="alpha"):
        arthur_verify(proto, msg, other, rng=0)
    short = MerlinMessage(
        SMALL.alpha, ((1 << SMALL.alpha,),), (ProofModel([(mixed_qubit(), SMALL.k)]),)
    )
    with pytest.raises(ValueError):
        arthur_verify(proto, short, SMALL, rng=0)


def test_rejection_rate_decreases_with_more_copies():
    # honest mixed proof, claim exact: the frequency test trips only on
    # sampling noise, which shrinks as k grows
    povm = z_basis_povm()
    proto = BellProtocol(1, 1, 2, [povm], Stage2Acceptor.accept_all(1, 2))
    rates = []
    for k in (1000, 10_000):
        params = ProtocolParams(p=67, k=k, q=10, alpha=16)
        msg = honest_message(proto, [mixed_qubit()], params)
        assert msg.x_register[0] == (1 << 15, 1 << 15)
        res = estimate_acceptance(proto, msg, params, trials=1500, rng=7)
        rates.append(1.0 - res["mean"])
    # binomial noise at k=1000 trips |n/k - 1/2| >= 1/67 about a third of
    # the time; at k=10000 almost never
    assert rates[0] > 0.25
    assert rates[1] < 0.03
    assert rates[0] > rates[1] + 0.2


def test_alternating_copies_pass_frequency_test():
    # non-IID proof whose empirical mixture matches the claim exactly
    povm = z_basis_povm()
    proto = BellProtocol(1, 1, 2, [povm], Stage2Acceptor.accept_all(1, 2))
    params = ProtocolParams(p=67, k=10_000, q=10, alpha=16)
    msg = alternating_message(proto, [mixed_qubit()], params)
    res = estimate_acceptance(proto, msg, params, trials=300, rng=8)
    assert res["mean"] > 0.97


def test_estimate_acceptance_contract():
    proto = qubit_protocol()
    msg = honest_message(proto, [mixed_qubit(), mixed_qubit()], SMALL)
    res = estimate_acceptance(proto, msg, SMALL, trials=64, rng=9, collect=True)
    assert set(res) == {"mean", "ci95", "accepted", "trials", "outcomes"}
    assert res["trials"] == 64
    assert len(res["outcomes"]) == 64
    assert 0.0 <= res["ci95"][0] <= res["mean"] <= res["ci95"][1] <= 1.0
    again = estimate_acceptance(proto, msg, SMALL, trials=64, rng=9)
    assert again["accepted"] == res["accepted"]


# -- Wilson interval -----------------------------------------------------------------


def test_wilson_interval_closed_forms():
    z2 = 1.959963984540054 ** 2
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(10.0 / (10.0 + z2), abs=1e-12)
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(z2 / (10.0 + z2), abs=1e-12)


def test_wilson_interval_covers_point_estimate():
    rng = default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        s = int(rng.integers(0, n + 1))
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# -- serialization -------------------------------------------------------------------


def test_protocol_round_trip():
    proto = qutrit_protocol()
    proofs = [HermitianOperator([3], np.eye(3) / 3.0)] * 2
    doc = protocol_to_dict(proto, proofs)
    back, back_proofs = protocol_from_dict(doc)
    assert back.n == proto.n and back.m == proto.m and back.r == proto.r
    assert back.local_dims == proto.local_dims
    for a, b in zip(back_proofs, proofs):
        assert np.allclose(a.entries, b.entries, atol=1e-15)
    assert back.stage2.accept_probability((0, 0)) == 1.0


def test_protocol_round_trip_with_table():
    agree = Stage2Acceptor.from_function(lambda o: float(o[0] == o[1]), 2, 2)
    proto = qubit_protocol(stage2=agree)
    doc = protocol_to_dict(proto)
    back, proofs = protocol_from_dict(doc)
    assert back.stage2.accept_probability((0, 1)) == 0.0
    assert back.stage2.accept_probability((1, 1)) == 1.0
    # default proofs are maximally mixed
    assert np.allclose(proofs[0].entries, 0.5 * np.eye(2), atol=1e-15)


def test_protocol_from_dict_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        protocol_from_dict({"n": 1, "m": 2})
    doc = protocol_to_dict(qubit_protocol())
    doc["stage2"] = {"kind": "sometimes"}
    with pytest.raises(ValueError):
        protocol_from_dict(doc)
