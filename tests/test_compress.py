import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

from helpers import fwht_reference, rotate_reference, unrotate_reference


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


@pytest.mark.parametrize("bad", [[math.inf, 1.0], [math.nan, 1.0], [0.0, -math.inf]])
def test_clip_rejects_non_finite_rows(bad):
    # dividing an infinite row by its infinite norm used to raise numpy's
    # "invalid value" RuntimeWarning before quantize could reject the row
    G = np.ones((3, 2))
    G[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (np.array(bad), G):
            with pytest.raises(NonFiniteInput):
                clip(g, 1.0)


def direction(row: np.ndarray) -> np.ndarray:
    """The unit vector along a nonzero row, through its largest entry so
    that a row whose norm overflows float64 has one too."""
    unit = row / np.abs(row).max()
    return unit / math.hypot(*unit)


@st.composite
def clip_cases(draw):
    """A stack of rows around a bound: entries near the bound's scale give
    rows inside and outside the ball, wide ones rows whose squared norm
    overflows float64."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 16)))
    near = st.floats(-4.0, 4.0)
    wide = st.floats(allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, shape, elements=st.one_of(near, wide))), draw(st.floats(0.01, 10.0))


@settings(max_examples=150, deadline=None)
@given(clip_cases())
def test_clip_bounds_the_norm_keeps_the_direction_and_leaves_inner_rows_alone(case):
    # math.hypot scales internally, so it is an independent oracle for the
    # norm of any finite row
    G, bound = case
    out = clip(G, bound)
    for row, clipped in zip(G, out):
        assert math.hypot(*clipped) <= bound * (1 + 1e-13)
        if math.hypot(*row) <= bound * (1 - 1e-13):
            assert clipped.tobytes() == row.tobytes()
        elif row.any():
            assert math.hypot(*clipped) >= bound * (1 - 1e-13)
            np.testing.assert_allclose(direction(clipped), direction(row), rtol=0, atol=1e-13)


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
    np.testing.assert_array_equal(unrotate(rotated, rs, rs.d_pad),
                                  np.stack([unrotate(v, rs, rs.d_pad) for v in rotated]))


@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_quantize_of_a_stack_draws_each_row_from_its_own_generator(m, d):
    # row r rounds with the uniforms of its own generator, and each leading
    # index of the uniforms rounds a copy of the stack
    spec = LatticeSpec(g_max=0.5, k=9, q=101)
    V = rotate(client_stack(m, d, seed=d + 2), RotationSeed(3, padded_dim(d)))
    uniforms = np.stack([np.random.default_rng((d, r)).random((2, V.shape[1])) for r in range(m)], axis=1)
    out = quantize(V, spec, uniforms)
    assert out.dtype == np.int64 and out.shape == (2,) + V.shape
    for t in range(2):
        np.testing.assert_array_equal(out[t], quantize(V, spec, uniforms[t]))
        for r in range(m):
            np.testing.assert_array_equal(out[t, r], quantize(V[r], spec, uniforms[t, r]))


def test_quantize_needs_uniforms_ending_with_the_input_shape():
    V = np.zeros((3, 4))
    for shape in ((2, 4), (4,), (3, 5), (3, 4, 1), (3,)):
        with pytest.raises(ValueError, match="uniforms"):
            quantize(V, SPEC, np.zeros(shape))
    assert quantize(V, SPEC, np.zeros((1, 2, 3, 4))).shape == (1, 2, 3, 4)


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    x=hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 300)),
                 elements=st.floats(-1e100, 1e100, allow_subnormal=False)),
)
def test_rotation_is_an_isometry_that_unrotate_inverts(seed, x):
    rs = RotationSeed(seed, padded_dim(x.shape[-1]))
    rotated = rotate(x, rs)
    for row, turned, back in zip(x, rotated, unrotate(rotated, rs, x.shape[-1])):
        # math.hypot scales: np.linalg.norm loses digits once squares go subnormal
        norm = math.hypot(*row)
        assert math.hypot(*turned) == pytest.approx(norm, rel=1e-12, abs=0)
        assert math.hypot(*(back - row)) <= 1e-12 * norm


@st.composite
def rotation_cases(draw):
    """A 1-D, 2-D or 3-D stack of rows of length ``d <= d_pad``, ``d_pad``
    from 1 to 2048, some rows all zero so that the signs of the zeros
    count, and the rotation seed."""
    d_pad = 1 << draw(st.integers(0, 11))
    d = draw(st.one_of(st.sampled_from([d_pad, d_pad // 2 + 1]), st.integers(1, d_pad)))
    lead = draw(st.sampled_from([(), (1,), (3,), (40,), (2, 3), (3, 1, 2), (1, 33)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=lead + (d,)) * 10.0 ** rng.integers(-3, 4, size=lead + (1,))
    x[rng.random(lead) < 0.3] = 0.0
    return x, RotationSeed(draw(st.integers(0, 2**63 - 1)), d_pad)


@settings(max_examples=150, deadline=None)
@given(rotation_cases())
@example((np.zeros((40, 2048)), RotationSeed(1, 2048)))
@example((np.zeros((3, 1, 100)), RotationSeed(2, 128)))
def test_rotation_and_transform_equal_the_reference_bit_for_bit(case):
    x, rs = case
    d = x.shape[-1]
    rotated = rotate(x, rs)
    assert rotated.shape == x.shape[:-1] + (rs.d_pad,)
    assert rotated.tobytes() == rotate_reference(x, rs).tobytes()
    assert fwht(rotated).tobytes() == fwht_reference(rotated).tobytes()
    for kept in {d, rs.d_pad}:
        back = unrotate(rotated, rs, kept)
        assert back.shape == x.shape[:-1] + (kept,)
        assert back.tobytes() == unrotate_reference(rotated, rs, kept).tobytes()


def test_fwht_leaves_its_input_alone_and_takes_any_layout():
    V = np.random.default_rng(21).normal(size=(256, 6))
    before = V.copy()
    assert fwht(V.T).tobytes() == fwht_reference(V.T).tobytes()
    np.testing.assert_array_equal(V, before)


def test_unrotate_keeps_between_one_and_d_pad_coordinates():
    rs = RotationSeed(4, 8)
    for d in (0, 9):
        with pytest.raises(ValueError, match="kept length"):
            unrotate(np.zeros(8), rs, d)


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
    got = default_g_max(2.0, 100, 4096)  # DELTA_ROT = 1e-3
    want = 2.0 * math.sqrt(math.log(2 * 100 * 4096 / 1e-3)) * 2.0 / math.sqrt(4096)
    assert got == pytest.approx(want)


SPEC = LatticeSpec(g_max=1.0, k=5, q=101)  # levels at -1, -0.5, 0, 0.5, 1


def test_quantize_exact_level_is_fixed_point():
    v = np.full(2000, -0.5)  # exactly level r = 1
    z = quantize(v, SPEC, np.random.default_rng(6).random(v.shape))
    assert np.all(z == -1)


def test_quantize_midpoint_splits_evenly():
    v = np.full(10**5, 0.25)  # midpoint of levels 0 and 0.5
    z = quantize(v, SPEC, np.random.default_rng(7).random(v.shape))
    up = np.mean(z == 1)
    assert abs(up - 0.5) < 0.01
    assert set(np.unique(z)) <= {0, 1}


def test_quantize_unbiased():
    target = 0.3 * SPEC.g_max
    draws = 10**5
    z = quantize(np.full(draws, target), SPEC, np.random.default_rng(8).random(draws))
    values = z * SPEC.step
    se = values.std() / math.sqrt(draws)
    assert abs(values.mean() - target) <= 4 * se


def test_quantize_output_in_level_range():
    rng = np.random.default_rng(9)
    v = rng.uniform(-3, 3, size=1000)  # beyond the clamp on purpose
    z = quantize(v, SPEC, rng.random(v.shape))
    assert z.min() >= -SPEC.half_levels
    assert z.max() <= SPEC.half_levels


def test_quantize_clamps_out_of_range():
    z = quantize(np.array([57.0, -57.0]), SPEC, np.random.default_rng(10).random(2))
    np.testing.assert_array_equal(z, [SPEC.half_levels, -SPEC.half_levels])


BELOW_ONE = np.nextafter(1.0, 0.0)


@st.composite
def specs_and_stacks(draw):
    spec = LatticeSpec(g_max=draw(st.floats(1e-6, 1e6)), k=2 * draw(st.integers(1, 40)) + 1, q=101)
    near = st.floats(-1.5 * spec.g_max, 1.5 * spec.g_max)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 9)),)
    v = draw(hnp.arrays(np.float64, shape, elements=st.one_of(near, finite)))
    return spec, v


@settings(max_examples=300, deadline=None)
@given(case=specs_and_stacks(), u=st.floats(0.0, 1.0, exclude_max=True))
def test_quantize_rounds_to_a_neighbouring_level(case, u):
    # x is a coordinate's grid position plus (k - 1)/2, which rounding can
    # put an ulp above the top level k - 1: the output plus (k - 1)/2 is
    # ceil(x) when the uniforms are 0, floor(x) when they are just below 1,
    # and one of the two for any uniform.
    spec, v = case
    x = np.minimum((np.clip(v, -spec.g_max, spec.g_max) + spec.g_max) / spec.step, spec.k - 1)
    for uniform, expected in ((u, None), (0.0, np.ceil(x)), (BELOW_ONE, np.floor(x))):
        z = quantize(v, spec, np.full(v.shape, uniform)) + spec.half_levels
        assert z.min() >= 0 and z.max() <= spec.k - 1
        assert np.all((z == np.floor(x)) | (z == np.ceil(x)))
        if expected is not None:
            np.testing.assert_array_equal(z, expected)


@settings(max_examples=100, deadline=None)
@given(
    exponent=st.integers(-20, 20),
    bits=st.integers(1, 8),
    levels=hnp.arrays(np.int64, st.tuples(st.integers(1, 3), st.integers(1, 9)), elements=st.integers(0, 256)),
)
def test_quantize_keeps_a_coordinate_on_a_level(exponent, bits, levels):
    # with k - 1 and g_max powers of two every level -g_max + r step is an
    # exact float, so its grid position is exact too
    spec = LatticeSpec(g_max=2.0**exponent, k=2**bits + 1, q=2**bits + 1)
    levels = levels % spec.k
    v = -spec.g_max + levels * spec.step
    for u in (0.0, BELOW_ONE):
        np.testing.assert_array_equal(quantize(v, spec, np.full(v.shape, u)), levels - spec.half_levels)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantize_rejects_non_finite(bad):
    with pytest.raises(NonFiniteInput):
        quantize(np.array([0.1, bad]), SPEC, np.random.default_rng(11).random(2))


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
