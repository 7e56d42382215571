from fractions import Fraction

import numpy as np
import pytest

from multiprover.encoding import (
    ClassicalStateDescription,
    PreparationPlan,
    _round_fixed,
    apply_plan,
    apply_plan_adjoint,
    decode_state,
    default_precision,
    description_error_bound,
    description_from_hex,
    description_to_hex,
    encode_state,
    encoding_error,
    encoding_error_squared_exact,
    plan_from_dict,
    plan_to_dict,
    preparation_plan,
    simulate_mqa_protocol,
)
from multiprover.instances import entangled_accept_operator
from multiprover.linalg import HermitianOperator, PureState, basis_state
from multiprover.rand import default_rng, haar_state


def plus_state():
    return PureState.normalized([2], [1.0, 1.0])


# -- descriptions ----------------------------------------------------------------


def test_description_validation():
    ClassicalStateDescription(2, 4, [(15, 0), (-31, 31)])
    with pytest.raises(ValueError):
        ClassicalStateDescription(2, 4, [(32, 0), (0, 0)])  # needs < 2**(f+1)
    with pytest.raises(ValueError):
        ClassicalStateDescription(3, 4, [(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        ClassicalStateDescription(2, 0, [(0, 0), (1, 0)])


def test_default_precision():
    assert default_precision(8) == 160


def test_plus_state_canonical_encoding():
    desc = encode_state(plus_state(), bits=20)
    # round(2**20 / sqrt(2)) = 741455 = 0xB504F
    assert desc.components == ((741455, 0), (741455, 0))
    assert description_error_bound(desc) == 2.0 ** -20
    assert encoding_error(plus_state(), desc) <= 2.0 ** -20


def test_exact_dyadic_amplitudes_are_preserved():
    psi = PureState([2], [0.6, 0.8])
    desc = encode_state(psi, bits=20)
    assert desc.components == ((round(0.6 * 2 ** 20), 0), (round(0.8 * 2 ** 20), 0))
    back = decode_state(desc)
    assert np.linalg.norm(back.amplitudes - psi.amplitudes) <= 2 ** -19


def test_decode_renormalizes():
    desc = ClassicalStateDescription(2, 10, [(512, 0), (512, 0)])
    out = decode_state(desc)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        decode_state(ClassicalStateDescription(2, 10, [(0, 0), (0, 0)]))


def _float_division_decode(desc):
    # decode_state as it read with float division, good only up to f = 1023
    scale = float(1 << desc.precision_bits)
    v = np.array([complex(a, b) / scale for a, b in desc.components], dtype=np.complex128)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("f", [1, 2, 11, 52, 53, 54, 64, 300, 971, 1000, 1022, 1023])
def test_decode_matches_float_division_below_1024_bits(f):
    # int true division rounds once, like float(a) / 2**f, whose division
    # by a power of two is exact: the decoded bytes are the same
    rng = default_rng(f)
    lim = 1 << f
    comps = [(lim, 0), (-lim, lim), (1, -1), (0, 1)]
    for _ in range(60):
        bits = int(rng.integers(1, f + 1))
        a, b = (int.from_bytes(rng.bytes((bits + 7) // 8), "big") >> (-bits % 8) for _ in "ab")
        comps.append((a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b))
    desc = ClassicalStateDescription(len(comps), f, comps)
    got = decode_state(desc).amplitudes
    assert got.tobytes() == _float_division_decode(desc).tobytes()
    rng = default_rng(1000 + f)
    for n in (2, 9):
        desc = encode_state(haar_state([n], rng), bits=f)
        got = decode_state(desc).amplitudes
        assert got.tobytes() == _float_division_decode(desc).tobytes()


def test_decode_above_1023_bits():
    # the default precision 20 N passes 1023 bits from N = 52 on
    rng = default_rng(52)
    psi = haar_state([52], rng)
    desc = encode_state(psi)
    assert desc.precision_bits == default_precision(52) == 1040
    back = decode_state(desc)
    scale = 1 << desc.precision_bits
    want = np.array(
        [complex(float(Fraction(a, scale)), float(Fraction(b, scale))) for a, b in desc.components]
    )
    assert back.amplitudes.tobytes() == (want / np.linalg.norm(want)).tobytes()
    assert encoding_error(psi, desc) <= 1e-15
    accept = HermitianOperator([52], np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert simulate_mqa_protocol([desc], accept) == pytest.approx(1.0, abs=1e-12)
    # 2**-1100 underflows to 0.0 instead of raising
    tiny = ClassicalStateDescription(2, 1100, [(1 << 1050, 0), (1, 0)])
    assert decode_state(tiny).amplitudes.tolist() == [1.0, 0.0]


def test_decoded_norm_drift_within_bound():
    rng = default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        f = int(rng.integers(10, 40))
        psi = haar_state([n], rng)
        desc = encode_state(psi, bits=f)
        raw = np.array(
            [complex(re, im) for re, im in desc.components], dtype=complex
        ) * 2.0 ** -f
        assert abs(np.linalg.norm(raw) - 1.0) <= description_error_bound(desc)


def test_error_bound_on_haar_states_float_regime():
    rng = default_rng(1)
    for _ in range(100):
        psi = haar_state([8], rng)
        desc = encode_state(psi, bits=30)
        assert encoding_error(psi, desc) <= 8.0 * 2.0 ** -31


def test_error_bound_exact_at_high_precision():
    # at f = 60 the bound is ~5e-17 for N=64: below float resolution, so the
    # check must run in exact rational arithmetic
    rng = default_rng(2)
    for n in (2, 8, 64):
        psi = haar_state([n], rng)
        desc = encode_state(psi, bits=60)
        err2 = encoding_error_squared_exact(psi, desc)
        bound = Fraction(n, 1 << 61)
        assert err2 <= bound * bound


def _reference_round_fixed(x, f):
    # The earlier Fraction form: round-half-even of x * 2**f.
    return round(Fraction(x) * (1 << f))


def _reference_error_squared(psi, desc):
    scale = 1 << desc.precision_bits
    acc = Fraction(0)
    for a, (nre, nim) in zip(psi.amplitudes, desc.components):
        acc += (Fraction(float(a.real)) - Fraction(nre, scale)) ** 2
        acc += (Fraction(float(a.imag)) - Fraction(nim, scale)) ** 2
    return acc


def _assert_matches_reference(psi, f):
    desc = encode_state(psi, bits=f)
    want = tuple(
        (_reference_round_fixed(float(a.real), f), _reference_round_fixed(float(a.imag), f))
        for a in psi.amplitudes
    )
    assert desc.components == want
    got, ref = encoding_error_squared_exact(psi, desc), _reference_error_squared(psi, desc)
    assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)


REFERENCE_BITS = (1, 52, 53, 54, 60, 200, 1023)
TINY = 2.0 ** -1074


@pytest.mark.parametrize("f", REFERENCE_BITS)
def test_integer_rounding_matches_fraction_reference_on_special_values(f):
    # (2k + 1) 2**-(f+1) is an exact tie between k and k + 1: both parities
    # of the quotient, on both signs
    ties = [(2 * k + 1) * 2.0 ** -(f + 1) for k in (0, 1, 2, 3, 6, 7)]
    values = [0.0, -0.0, TINY, -TINY, 0.5, 0.25 + 2.0 ** -53, 3 * 2.0 ** -40]
    values += ties + [-t for t in ties]
    for x in values:
        assert _round_fixed(x, f) == _reference_round_fixed(x, f), (x, f)
    small = [x for x in values if abs(x) <= 0.5]
    for re, im in zip(small, reversed(small)):
        rest = (1.0 - 2 * (re * re + im * im)) ** 0.5
        psi = PureState([3], [complex(re, im), complex(im, re), rest])
        _assert_matches_reference(psi, f)


@pytest.mark.parametrize("f", REFERENCE_BITS)
def test_integer_encoding_matches_fraction_reference_on_haar_states(f):
    rng = default_rng(9)
    for n in range(1, 65):
        psi = haar_state([n], rng)
        if n % 4 == 0:
            amps = psi.amplitudes.copy()
            amps[n // 2] = 0.0
            psi = PureState.normalized([n], amps)
        _assert_matches_reference(psi, f)


def test_complex_amplitudes_round_trip():
    rng = default_rng(3)
    psi = haar_state([4], rng)
    assert np.abs(psi.amplitudes.imag).max() > 1e-3  # the draw is genuinely complex
    desc = encode_state(psi, bits=40)
    assert encoding_error(psi, desc) <= 4.0 * 2.0 ** -41


# -- hex packing -----------------------------------------------------------------


def test_plus_state_hex_frozen():
    desc = encode_state(plus_state(), bits=20)
    text = description_to_hex(desc)
    # f + 2 = 22 bits -> 3-byte words, big endian, re then im per amplitude
    assert text == "0b504f0000000b504f000000"
    back = description_from_hex(2, 20, text)
    assert back.components == desc.components


def test_hex_negative_components():
    desc = ClassicalStateDescription(2, 4, [(-31, 5), (0, -1)])
    back = description_from_hex(2, 4, description_to_hex(desc))
    assert back.components == ((-31, 5), (0, -1))


def test_hex_round_trip_random():
    rng = default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(4, 70))
        psi = haar_state([n], rng)
        desc = encode_state(psi, bits=f)
        back = description_from_hex(n, f, description_to_hex(desc))
        assert back.components == desc.components


def test_hex_length_validation():
    desc = encode_state(plus_state(), bits=20)
    text = description_to_hex(desc)
    with pytest.raises(ValueError):
        description_from_hex(2, 20, text[:-2])
    with pytest.raises(ValueError):
        description_from_hex(3, 20, text)
    with pytest.raises(ValueError):
        description_from_hex(2, 20, "zz" + text[2:])


# -- preparation plans -------------------------------------------------------------


def test_plus_state_plan_is_single_rotation():
    plan = preparation_plan(plus_state())
    assert plan.dimension == 2
    assert np.allclose(plan.phases, [0.0, 0.0], atol=1e-15)
    assert len(plan.rotations) == 1
    axis_a, axis_b, theta = plan.rotations[0]
    assert (axis_a, axis_b) == (0, 1)
    assert theta == pytest.approx(np.pi / 4.0, abs=1e-12)


def test_basis_state_plan_is_trivial():
    plan = preparation_plan(basis_state([4], 0))
    assert all(abs(t) < 1e-15 for _, _, t in plan.rotations)
    assert np.allclose(apply_plan(plan), basis_state([4], 0).amplitudes, atol=1e-15)


def test_plan_round_trips_on_haar_states():
    rng = default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        psi = haar_state([n], rng)
        plan = preparation_plan(psi)
        built = apply_plan(plan)
        assert np.linalg.norm(built - psi.amplitudes) <= 1e-10


def test_plan_adjoint_inverts():
    rng = default_rng(6)
    psi = haar_state([8], rng)
    plan = preparation_plan(psi)
    back = apply_plan_adjoint(plan, psi.amplitudes)
    want = np.zeros(8, dtype=complex)
    want[0] = 1.0
    assert np.linalg.norm(back - want) <= 1e-10


def test_plan_serialization():
    rng = default_rng(7)
    psi = haar_state([5], rng)
    plan = preparation_plan(psi)
    back = plan_from_dict(plan_to_dict(plan))
    assert np.allclose(apply_plan(back), apply_plan(plan), atol=1e-15)
    with pytest.raises(ValueError):
        PreparationPlan(3, [0.0, 0.0, 0.0], [(0, 3, 0.1)])
    with pytest.raises(ValueError):
        PreparationPlan(3, [0.0, 0.0], [(0, 1, 0.1)])


# -- measurement with described proofs ------------------------------------------------


def test_simulate_mqa_protocol_on_basis_descriptions():
    c = entangled_accept_operator()
    d0 = encode_state(basis_state([2], 0), bits=20)
    pr = simulate_mqa_protocol([d0, d0], c)
    assert pr == pytest.approx(0.5, abs=1e-6)
    d1 = encode_state(basis_state([2], 1), bits=20)
    pr = simulate_mqa_protocol([d1, d1], c)
    assert pr == pytest.approx(0.0, abs=1e-6)


def test_simulate_mqa_protocol_rejects_non_contraction():
    grown = HermitianOperator([2], np.diag([2.0, 0.0]))
    d = encode_state(basis_state([2], 0), bits=10)
    with pytest.raises(ValueError):
        simulate_mqa_protocol([d], grown)


def test_simulate_mqa_protocol_clamps_to_unit_interval():
    rng = default_rng(8)
    c = entangled_accept_operator()
    for _ in range(20):
        descs = [encode_state(haar_state([2], rng), bits=12) for _ in range(2)]
        pr = simulate_mqa_protocol(descs, c)
        assert 0.0 <= pr <= 1.0
