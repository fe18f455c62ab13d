import math

import numpy as np
import pytest

from latticefl.compress import (
    RotationSeed,
    clip,
    default_g_max,
    fwht,
    padded_dim,
    quantize,
    rotate,
    sensitivity,
    unrotate,
)
from latticefl.errors import NonFiniteInput
from latticefl.lattice import LatticeSpec


def explicit_hadamard(n: int) -> np.ndarray:
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def test_fwht_matches_explicit_matrix():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 32):
        v = rng.normal(size=n)
        np.testing.assert_allclose(fwht(v), explicit_hadamard(n) @ v, atol=1e-10)


def test_fwht_of_a_stack_matches_explicit_matrix():
    rng = np.random.default_rng(20)
    for m, n in ((1, 1), (3, 2), (5, 64), (40, 256)):
        V = rng.normal(size=(m, n))
        np.testing.assert_allclose(fwht(V), V @ explicit_hadamard(n), atol=1e-9)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.zeros(6))


def test_padded_dim():
    assert padded_dim(1) == 1
    assert padded_dim(7) == 8
    assert padded_dim(64) == 64
    with pytest.raises(ValueError):
        padded_dim(0)


def test_clip_noop_inside_ball():
    g = np.array([0.3, 0.4])  # norm 0.5, bound 1
    out = clip(g, 1.0)
    np.testing.assert_array_equal(out, g)


def test_clip_scales_to_boundary():
    np.testing.assert_allclose(clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])


def test_clip_zero_vector():
    np.testing.assert_array_equal(clip(np.zeros(4), 2.0), np.zeros(4))


def test_clip_is_projection():
    # idempotent up to one rescaling ulp (the recomputed norm of a
    # clipped vector can land a rounding error above the bound)
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = rng.normal(size=10) * rng.uniform(0.1, 10)
        once = clip(g, 1.5)
        np.testing.assert_allclose(clip(once, 1.5), once, rtol=1e-14)
        assert np.linalg.norm(once) <= 1.5 * (1 + 1e-14)


def test_clip_rejects_bad_bound():
    with pytest.raises(ValueError):
        clip(np.ones(3), 0.0)


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_clip_rejects_non_finite_bound(bound):
    # a NaN or infinite bound would pass [3, 4] through unclipped
    with pytest.raises(NonFiniteInput):
        clip(np.array([3.0, 4.0]), bound)


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_sensitivity_rejects_non_finite_bound(bound):
    # a NaN or infinite bound would give the accountant a NaN or infinite sensitivity
    with pytest.raises(NonFiniteInput):
        sensitivity(bound, 16, 5)


STACK_SHAPES = [(1, 1), (2, 7), (5, 20), (40, 64), (16, 333), (8, 1000)]


def client_stack(m: int, d: int, seed: int) -> np.ndarray:
    """Rows with norms from 0 to 3 (a zero row first), around a bound of 1."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, d))
    G *= rng.uniform(0.0, 3.0, size=(m, 1)) / np.linalg.norm(G, axis=1, keepdims=True)
    G[0] = 0.0
    return G


@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_clip_of_a_stack_clips_each_row_by_its_own_norm(m, d):
    G = client_stack(m, d, seed=d)
    out = clip(G, 1.0)
    for r in range(m):
        # bit-exact against the per-vector definition and its norm
        want = G[r] / max(1.0, float(np.linalg.norm(G[r])) / 1.0)
        assert out[r].tobytes() == want.tobytes() == clip(G[r], 1.0).tobytes()


@pytest.mark.parametrize("big", [[1e200, 1e200], [1e308, -1e308, 1.0], [-1e160] + [0.0] * 63])
def test_clip_puts_a_row_with_an_overflowing_norm_on_the_sphere(big):
    # the squared norm overflows float64; such a row used to become zero
    G = client_stack(4, len(big), seed=len(big))
    G[2] = big
    out = clip(G, 0.5)  # RuntimeWarnings fail the suite
    # math.hypot scales internally, so it is an independent oracle for the norm
    np.testing.assert_allclose(out[2], np.array(big) / math.hypot(*big) * 0.5, rtol=1e-15)
    assert np.linalg.norm(out[2]) == pytest.approx(0.5, rel=1e-15)
    for r in (0, 1, 3):
        assert out[r].tobytes() == clip(G[r], 0.5).tobytes()
    assert clip(np.array(big), 0.5).tobytes() == out[2].tobytes()


@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_rotate_and_unrotate_of_a_stack_act_row_by_row(m, d):
    G = client_stack(m, d, seed=d + 1)
    rs = RotationSeed(d, padded_dim(d))
    rotated = rotate(G, rs)
    back = unrotate(rotated, rs, d)
    assert rotated.shape == (m, rs.d_pad) and back.shape == (m, d)
    for r in range(m):
        assert rotated[r].tobytes() == rotate(G[r], rs).tobytes()
        assert back[r].tobytes() == unrotate(rotated[r], rs, d).tobytes()
    np.testing.assert_array_equal(unrotate(rotated, rs), np.stack([unrotate(v, rs) for v in rotated]))


@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_quantize_of_a_stack_draws_each_row_from_its_own_generator(m, d):
    spec = LatticeSpec(g_max=0.5, k=9, q=101)
    V = rotate(client_stack(m, d, seed=d + 2), RotationSeed(3, padded_dim(d)))
    out = quantize(V, spec, [np.random.default_rng((d, r)) for r in range(m)])
    assert out.dtype == np.int64 and out.shape == V.shape
    for r in range(m):
        np.testing.assert_array_equal(out[r], quantize(V[r], spec, np.random.default_rng((d, r))))


def test_quantize_needs_one_generator_per_row():
    V = np.zeros((3, 4))
    with pytest.raises(ValueError):
        quantize(V, SPEC, [np.random.default_rng(r) for r in range(2)])
    with pytest.raises(ValueError):
        quantize(np.zeros((2, 2, 4)), SPEC, [np.random.default_rng(r) for r in range(4)])


def test_rotation_roundtrip():
    rng = np.random.default_rng(2)
    for d in (1, 7, 64):
        rs = RotationSeed(17, padded_dim(d))
        g = rng.normal(size=d)
        back = unrotate(rotate(g, rs), rs, d)
        np.testing.assert_allclose(back, g, rtol=1e-6, atol=1e-9)


def test_rotation_isometry():
    rng = np.random.default_rng(3)
    rs = RotationSeed(5, 128)
    for _ in range(10):
        g = rng.normal(size=100)
        assert np.linalg.norm(rotate(g, rs)) == pytest.approx(np.linalg.norm(g), rel=1e-6)


def test_rotation_seed_validation():
    with pytest.raises(ValueError):
        RotationSeed(1, 12)


def test_rotation_signs_built_once_and_read_only():
    rs = RotationSeed(99, 64)
    signs = rs.signs()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    np.testing.assert_array_equal(signs, rng.integers(0, 2, size=64) * 2.0 - 1.0)
    assert rs.signs() is signs
    with pytest.raises(ValueError):
        signs[0] = 0.0
    assert rs == RotationSeed(99, 64) and hash(rs) == hash(RotationSeed(99, 64))


def test_rotation_determinism():
    rs = RotationSeed(99, 64)
    g = np.random.default_rng(4).normal(size=50)
    np.testing.assert_array_equal(rotate(g, rs), rotate(g, rs))


def test_rotation_concentration():
    # randomized rotation flattens coordinates: the max coordinate of a
    # rotated unit vector stays below 2 sqrt(log(2 n d / delta) / d) in
    # all but ~delta of cases
    n, d_pad, delta = 100, 4096, 1e-3
    bound = 2.0 * math.sqrt(math.log(2 * n * d_pad / delta)) / math.sqrt(d_pad)
    rs = RotationSeed(7, d_pad)
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(1000):
        g = rng.normal(size=d_pad)
        g /= np.linalg.norm(g)
        if np.abs(rotate(g, rs)).max() <= bound:
            hits += 1
    assert hits >= 999


def test_default_g_max_matches_formula():
    got = default_g_max(2.0, 100, 4096, 1e-3)
    want = 2.0 * math.sqrt(math.log(2 * 100 * 4096 / 1e-3)) * 2.0 / math.sqrt(4096)
    assert got == pytest.approx(want)


SPEC = LatticeSpec(g_max=1.0, k=5, q=101)  # levels at -1, -0.5, 0, 0.5, 1


def test_quantize_exact_level_is_fixed_point():
    v = np.full(2000, -0.5)  # exactly level r = 1
    z = quantize(v, SPEC, np.random.default_rng(6))
    assert np.all(z == -1)


def test_quantize_midpoint_splits_evenly():
    v = np.full(10**5, 0.25)  # midpoint of levels 0 and 0.5
    z = quantize(v, SPEC, np.random.default_rng(7))
    up = np.mean(z == 1)
    assert abs(up - 0.5) < 0.01
    assert set(np.unique(z)) <= {0, 1}


def test_quantize_unbiased():
    target = 0.3 * SPEC.g_max
    draws = 10**5
    z = quantize(np.full(draws, target), SPEC, np.random.default_rng(8))
    values = z * SPEC.step
    se = values.std() / math.sqrt(draws)
    assert abs(values.mean() - target) <= 4 * se


def test_quantize_output_in_level_range():
    rng = np.random.default_rng(9)
    v = rng.uniform(-3, 3, size=1000)  # beyond the clamp on purpose
    z = quantize(v, SPEC, rng)
    assert z.min() >= -SPEC.half_levels
    assert z.max() <= SPEC.half_levels


def test_quantize_clamps_out_of_range():
    z = quantize(np.array([57.0, -57.0]), SPEC, np.random.default_rng(10))
    np.testing.assert_array_equal(z, [SPEC.half_levels, -SPEC.half_levels])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantize_rejects_non_finite(bad):
    with pytest.raises(NonFiniteInput):
        quantize(np.array([0.1, bad]), SPEC, np.random.default_rng(11))


def test_sensitivity_at_matched_levels():
    for d in (4, 16, 64, 256):
        k = int(math.isqrt(d)) + 1
        assert sensitivity(1.0, d, k) == 4.0


def test_sensitivity_limit_large_k():
    assert sensitivity(1.0, 100, 10**9) == pytest.approx(2.0, rel=1e-6)


def test_sensitivity_general_point():
    assert sensitivity(2.0, 16, 5) == pytest.approx(2 * (2 + 4 * 2 / 4))


def test_sensitivity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sensitivity(0.0, 4, 3)
    with pytest.raises(ValueError):
        sensitivity(1.0, 0, 3)
    with pytest.raises(ValueError):
        sensitivity(1.0, 4, 1)
