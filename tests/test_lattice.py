import numpy as np
import pytest

from latticefl.errors import ConfigError, OffLattice
from latticefl.lattice import (
    LatticeSpec,
    decode,
    decode_vec,
    encode,
    encode_vec,
    ensure_accumulator_headroom,
    phi_q,
    phi_q_vec,
    wrap_centered,
)

from helpers import brute_force_wrap

SPEC7 = LatticeSpec(g_max=1.0, k=3, q=7)


def test_phi_q_identity_inside_group():
    assert phi_q(3, SPEC7) == 3


def test_phi_q_wraps_just_outside():
    assert phi_q(4, SPEC7) == brute_force_wrap(4, 7) == -3


def test_phi_q_full_period():
    assert phi_q(-7, SPEC7) == 0


def test_phi_q_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = 2 * int(rng.integers(1, 200)) + 1
        z = int(rng.integers(-10 * q, 10 * q))
        assert wrap_centered(z, q) == brute_force_wrap(z, q)


def test_phi_q_vec_coordinatewise():
    np.testing.assert_array_equal(phi_q_vec(np.array([3, 4, -7]), SPEC7), [3, -3, 0])


def test_phi_q_vec_empty_and_zeros():
    assert phi_q_vec(np.array([], dtype=np.int64), SPEC7).size == 0
    np.testing.assert_array_equal(phi_q_vec(np.zeros(5, dtype=np.int64), SPEC7), np.zeros(5))


def test_phi_q_idempotent_and_periodic():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = 2 * int(rng.integers(1, 500)) + 1
        z = int(rng.integers(-5 * q, 5 * q))
        w = wrap_centered(z, q)
        assert wrap_centered(w, q) == w
        assert wrap_centered(z + q, q) == w


def test_wrap_sum_homomorphism():
    # wrap(sum of wrapped values) == wrap(plain sum), on random vectors
    rng = np.random.default_rng(2)
    for _ in range(300):
        q = 2 * int(rng.integers(1, 1 << 16)) + 1
        parts = rng.integers(-(10 * q), 10 * q, size=(int(rng.integers(1, 20)), int(rng.integers(1, 64))))
        wrapped_sum = wrap_centered(wrap_centered(parts, q).sum(axis=0), q)
        np.testing.assert_array_equal(wrapped_sum, wrap_centered(parts.sum(axis=0), q))


def test_encode_decode_roundtrip():
    spec = LatticeSpec(g_max=2.0, k=9, q=101)
    assert encode(0.0, spec) == 0
    assert encode(spec.step, spec) == 1
    for z in (-17, -1, 0, 1, 42):
        assert encode(decode(z, spec), spec) == z


def test_encode_rejects_off_lattice():
    spec = LatticeSpec(g_max=2.0, k=9, q=101)
    with pytest.raises(OffLattice):
        encode(2.5 * spec.step, spec)


def test_encode_vec_matches_scalar():
    spec = LatticeSpec(g_max=1.5, k=5, q=11)
    z = np.array([-3, 0, 2, 7], dtype=np.int64)
    np.testing.assert_array_equal(encode_vec(decode_vec(z, spec), spec), z)
    with pytest.raises(OffLattice):
        encode_vec(np.array([0.0, 0.4 * spec.step]), spec)


def test_encode_tolerates_decimal_roundoff():
    spec = LatticeSpec(g_max=1.0, k=11, q=101)
    assert encode(3 * spec.step * (1 + 1e-12), spec) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(g_max=0.0, k=3, q=7)
    with pytest.raises(ValueError):
        LatticeSpec(g_max=1.0, k=1, q=7)
    with pytest.raises(ValueError):
        LatticeSpec(g_max=1.0, k=4, q=7)  # even k: levels sit off the lattice
    with pytest.raises(ValueError):
        LatticeSpec(g_max=1.0, k=3, q=8)  # even modulus


def test_step_invariant():
    spec = LatticeSpec(g_max=3.0, k=7, q=13)
    assert spec.step == pytest.approx(2 * 3.0 / 6)
    assert spec.half_levels == 3


def test_accumulator_headroom_guard():
    ensure_accumulator_headroom(100, 1 << 20)
    with pytest.raises(ConfigError):
        ensure_accumulator_headroom(1 << 40, 1 << 30)
