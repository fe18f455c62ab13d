import numpy as np
import pytest

from latticefl.lattice import LatticeSpec
from latticefl.secagg import server_aggregate, wire_modulus

from helpers import brute_force_wrap, centered

# phi_q, the paper's wrap into the wire group, is the server's recentring of
# the summed payload residues.  With one participant and step 1 the
# recovered mean is phi_q of the payload row; for q = 7 the group is 8.
SPEC7 = LatticeSpec(g_max=1.0, k=3, q=7)


def phi(payloads, spec=SPEC7):
    return server_aggregate(np.asarray(payloads)[None, :], spec)


def spec_for_group(wire_q: int) -> LatticeSpec:
    """Step 1, and one participant's wire group is ``wire_q``, a power of two."""
    spec = LatticeSpec(g_max=1.0, k=3, q=wire_q - 1)
    assert wire_modulus(spec.q, 1) == wire_q
    return spec


def test_phi_q_identity_inside_group():
    assert phi([3]) == 3


def test_phi_q_wraps_just_outside():
    assert phi([4]) == brute_force_wrap(4, 8) == -4


def test_phi_q_full_period():
    assert phi([-8]) == phi([8]) == 0


def test_phi_q_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):  # the test-side oracle, at odd moduli too
        q = int(rng.integers(1, 400))
        z = rng.integers(-10 * q, 10 * q, size=5)
        assert centered(z, q).tolist() == [brute_force_wrap(v, q) for v in z.tolist()]
    # the power-of-two wire groups: the b-bit two's-complement range
    for q in (2, 4, 2**16, 2**32):
        edges = [q // 2 - 1, q // 2, -(q // 2), -(q // 2) - 1]
        z = np.array(edges + rng.integers(-10 * q, 10 * q, size=20).tolist())
        # 2**32 is past a search; its residue is z's low 32 bits as an int32
        expected = z.astype(np.int32) if q == 2**32 else [brute_force_wrap(v, q) for v in z.tolist()]
        np.testing.assert_array_equal(phi(z, spec_for_group(q)), expected)
        np.testing.assert_array_equal(centered(z, q), expected)


def test_phi_q_vec_coordinatewise():
    np.testing.assert_array_equal(phi([3, 4, -8]), [3, -4, 0])


def test_phi_q_vec_empty_and_zeros():
    assert phi(np.array([], dtype=np.uint32)).size == 0
    np.testing.assert_array_equal(phi(np.zeros(5, dtype=np.uint32)), np.zeros(5))


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_phi_q_vec_unsigned(dtype):
    # payloads are uint32 residues; the server reads any unsigned payload
    # by its residue, as the same integers would wrap, not below 0
    rng = np.random.default_rng(3)
    top = int(np.iinfo(dtype).max)
    for q in (2, 128, 1024, 2**32):
        z = np.array([v for v in (0, 1, q // 2 - 1, q // 2, q - 1, q, top - 1, top) if v <= top], dtype=dtype)
        z = np.concatenate([z, rng.integers(0, top, size=30, dtype=dtype, endpoint=True)])
        expected = z.astype(np.uint32).view(np.int32) if q == 2**32 else [brute_force_wrap(v, q) for v in z.tolist()]
        np.testing.assert_array_equal(phi(z, spec_for_group(q)), expected)


def test_phi_q_idempotent_and_periodic():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = 1 << int(rng.integers(1, 33))
        spec = spec_for_group(q)
        z = rng.integers(-5 * q, 5 * q, size=8)
        w = phi(z, spec)
        np.testing.assert_array_equal(phi(w.astype(np.int64), spec), w)
        np.testing.assert_array_equal(phi(z + q, spec), w)


def test_wrap_sum_homomorphism():
    # wrap(sum of wrapped values) == wrap(plain sum), on random vectors; at
    # the power-of-two wire groups the server's recentring of either sum
    # gives that same wrap
    rng = np.random.default_rng(2)
    for trial in range(340):
        q = 2 * int(rng.integers(1, 1 << 16)) + 1
        if trial >= 300:  # power-of-two moduli, as the wire groups are
            q = (2, 4, 2**16, 2**32)[trial % 4]
        parts = rng.integers(-(10 * q), 10 * q, size=(int(rng.integers(1, 20)), int(rng.integers(1, 64))))
        wrapped_sum = centered(centered(parts, q).sum(axis=0), q)
        np.testing.assert_array_equal(wrapped_sum, centered(parts.sum(axis=0), q))
        if trial >= 300:
            spec = spec_for_group(q)
            np.testing.assert_array_equal(phi(centered(parts, q).sum(axis=0), spec), wrapped_sum)
            np.testing.assert_array_equal(phi(parts.sum(axis=0), spec), wrapped_sum)


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
