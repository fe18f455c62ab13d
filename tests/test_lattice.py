import numpy as np
import pytest

from latticefl.lattice import LatticeSpec, wrap_centered

from helpers import brute_force_wrap

# phi_q, the paper's wrap into the coarse group, is wrap_centered(z, q).
SPEC7 = LatticeSpec(g_max=1.0, k=3, q=7)


def test_phi_q_identity_inside_group():
    assert wrap_centered(3, SPEC7.q) == 3


def test_phi_q_wraps_just_outside():
    assert wrap_centered(4, SPEC7.q) == brute_force_wrap(4, 7) == -3


def test_phi_q_full_period():
    assert wrap_centered(-7, SPEC7.q) == 0


def test_phi_q_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = 2 * int(rng.integers(1, 200)) + 1
        z = int(rng.integers(-10 * q, 10 * q))
        assert wrap_centered(z, q) == brute_force_wrap(z, q)
    # the power-of-two wire groups: the b-bit two's-complement range
    for q in (2, 4, 2**16, 2**32):
        edges = [q // 2 - 1, q // 2, -(q // 2), -(q // 2) - 1]
        for z in edges + rng.integers(-10 * q, 10 * q, size=20).tolist():
            # 2**32 is past a search; its residue is z's low 32 bits as an int32
            expected = int(np.int64(z).astype(np.int32)) if q == 2**32 else brute_force_wrap(z, q)
            assert wrap_centered(z, q) == expected


def test_phi_q_vec_coordinatewise():
    np.testing.assert_array_equal(wrap_centered(np.array([3, 4, -7]), SPEC7.q), [3, -3, 0])


def test_phi_q_vec_empty_and_zeros():
    assert wrap_centered(np.array([], dtype=np.int64), SPEC7.q).size == 0
    np.testing.assert_array_equal(wrap_centered(np.zeros(5, dtype=np.int64), SPEC7.q), np.zeros(5))


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_phi_q_vec_unsigned(dtype):
    # net_masks' rows are uint32 residues: an unsigned array wraps as the
    # same integers would, not below 0 in its own dtype
    rng = np.random.default_rng(3)
    top = int(np.iinfo(dtype).max)
    for q in (3, 7, 1001, 2, 128, 1024, 2**32):
        z = np.array([v for v in (0, 1, q // 2, q // 2 + 1, q - 1, q, top - 1, top) if v <= top], dtype=dtype)
        z = np.concatenate([z, rng.integers(0, top, size=30, dtype=dtype, endpoint=True)])
        wrapped = wrap_centered(z, q)
        assert wrapped.dtype == np.int64
        # 2**32 is past a search; its residue is the low 32 bits as an int32
        expected = z.astype(np.uint32).view(np.int32) if q == 2**32 else [brute_force_wrap(v, q) for v in z.tolist()]
        assert wrapped.tolist() == list(np.asarray(expected).tolist())


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
    for trial in range(340):
        q = 2 * int(rng.integers(1, 1 << 16)) + 1
        if trial >= 300:  # power-of-two moduli, as the wire groups are
            q = (2, 4, 2**16, 2**32)[trial % 4]
        parts = rng.integers(-(10 * q), 10 * q, size=(int(rng.integers(1, 20)), int(rng.integers(1, 64))))
        wrapped_sum = wrap_centered(wrap_centered(parts, q).sum(axis=0), q)
        np.testing.assert_array_equal(wrapped_sum, wrap_centered(parts.sum(axis=0), q))


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
