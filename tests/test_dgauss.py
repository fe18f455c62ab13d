import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticefl import dgauss
from latticefl.dgauss import (
    CHUNK,
    MAX_SIGMA_UNITS,
    MIN_SIGMA_UNITS,
    DiscreteGaussian,
    sample_integer_gaussian,
)
from latticefl.errors import SamplerStall
from latticefl.lattice import LatticeSpec
from latticefl.streams import entropy, generators

from helpers import (
    gof_pvalue_discrete,
    implemented_law,
    pmf,
    renyi_divergence,
    sample_integer_gaussian_reference,
    tail_lower_bound,
    tail_oracle,
    variance_oracle,
)

UNIT = LatticeSpec(g_max=1.0, k=3, q=7)  # step == 1


def dist(sigma_units: float, spec: LatticeSpec = UNIT) -> DiscreteGaussian:
    return DiscreteGaussian(sigma_units * spec.step, spec)


def test_tiny_sigma_concentrates_at_zero():
    # pmf(1)/pmf(0) = exp(-1/(2 * 0.0001)), i.e. nothing but zeros
    z = sample_integer_gaussian(0.01, np.random.default_rng(0), 10**5)
    assert np.mean(z == 0) >= 0.9999


def test_mass_at_zero_matches_pmf():
    d = dist(1.0)
    z = sample_integer_gaussian(d.sigma_units, np.random.default_rng(1), 10**6)
    assert abs(np.mean(z == 0) - pmf(d, 0)) < 0.005


def test_sample_symmetry():
    z = sample_integer_gaussian(1.0, np.random.default_rng(2), 10**6)
    assert abs(z.mean()) < 4.0 / math.sqrt(10**6)


def test_sampler_determinism():
    a = sample_integer_gaussian(2.5, np.random.default_rng(7), 5000)
    b = sample_integer_gaussian(2.5, np.random.default_rng(7), 5000)
    np.testing.assert_array_equal(a, b)


def test_sampler_rejects_bad_sigma():
    # above the range a proposal could pass 2**53 (at 1e20 the int64 cast
    # overflowed to zeros); below it sigma^2 nears the subnormals and at
    # 1e-200 is 0 (nothing was ever accepted)
    outside = (np.nextafter(MAX_SIGMA_UNITS, math.inf), 1e20, np.nextafter(MIN_SIGMA_UNITS, 0.0), 1e-200)
    for sigma_units in (0.0, -1.0, math.nan) + outside:
        with pytest.raises(ValueError, match="sigma_units"):
            sample_integer_gaussian(float(sigma_units), np.random.default_rng(0), 10)


def test_sampler_draws_at_the_edges_of_its_range():
    z = sample_integer_gaussian(MAX_SIGMA_UNITS, np.random.default_rng(0), 2000)
    assert np.abs(z).max() < 2**53
    assert 0.9 < np.std(z) / MAX_SIGMA_UNITS < 1.1  # 6 standard errors
    # sigma^2 = 2**-1000, and far proposals still get a finite exponent:
    # all mass sits at 0
    assert not sample_integer_gaussian(MIN_SIGMA_UNITS, np.random.default_rng(0), 10**5).any()


def test_sampler_equals_the_expression_reference():
    batches_per_call = []

    @settings(max_examples=150, deadline=None)
    @given(
        log2_sigma=st.floats(math.log2(MIN_SIGMA_UNITS), math.log2(MAX_SIGMA_UNITS)),
        # up to batches of a dozen chunks
        size=st.one_of(st.integers(0, 3000), st.integers(0, 6 * CHUNK)),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.booleans(),
    )
    # below sigma = 1 fewer than half of the candidates are accepted, so a
    # size near 3000 needs a second batch
    @example(log2_sigma=math.log2(0.01), size=3000, seed=0, buffered=False)
    @example(log2_sigma=math.log2(MIN_SIGMA_UNITS), size=2999, seed=1, buffered=False)
    @example(log2_sigma=math.log2(MAX_SIGMA_UNITS), size=1, seed=2, buffered=False)
    # batches of several chunks; the generator enters holding the unused
    # half of a 64-bit word, which advance() would drop
    @example(log2_sigma=0.0, size=3 * CHUNK + 100, seed=3, buffered=True)
    @example(log2_sigma=math.log2(0.01), size=3 * CHUNK, seed=4, buffered=True)
    def check(log2_sigma, size, seed, buffered):
        sigma_units = min(max(2.0**log2_sigma, MIN_SIGMA_UNITS), MAX_SIGMA_UNITS)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert rng.integers(0, 2**32, dtype=np.uint32) == reference_rng.integers(0, 2**32, dtype=np.uint32)
        batches = []
        z = sample_integer_gaussian(sigma_units, rng, size)
        expected = sample_integer_gaussian_reference(sigma_units, reference_rng, size, batches)
        assert z.dtype == expected.dtype == np.int64
        assert z.tobytes() == expected.tobytes()
        # the generator ends where whole-batch reads leave it, buffered
        # half-word included
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        batches_per_call.append(batches)

    check()
    assert max(map(len, batches_per_call)) >= 2
    # a batch whose draws were filled in a chunk before its last, so the
    # chunks after it were skipped
    chunks = [(-(-used // CHUNK), -(-batch // CHUNK)) for batches in batches_per_call for batch, used in batches]
    assert any(last_used < last for last_used, last in chunks)


def test_a_batch_above_a_chunk_needs_a_bit_generator_with_advance():
    # a batch of 2 * size candidates fits one chunk up to size CHUNK / 2,
    # and is read from the generator itself; above it the sampler positions
    # copies with advance(), which PCG64 counts in 64-bit words
    size = CHUNK // 2
    for bit_generator in (np.random.MT19937, np.random.SFC64):
        z = sample_integer_gaussian(1.0, np.random.Generator(bit_generator(0)), size)
        expected = sample_integer_gaussian_reference(1.0, np.random.Generator(bit_generator(0)), size)
        assert z.tobytes() == expected.tobytes()
        rng = np.random.Generator(bit_generator(0))
        with pytest.raises(AttributeError, match="advance"):
            sample_integer_gaussian(1.0, rng, size + 1)
        # nothing was read
        assert rng.random() == np.random.Generator(bit_generator(0)).random()
    rng, reference_rng = np.random.default_rng(0), np.random.default_rng(0)
    z = sample_integer_gaussian(1.0, rng, size + 1)
    assert z.tobytes() == sample_integer_gaussian_reference(1.0, reference_rng, size + 1).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_rows_equal_one_generator_calls():
    calls = []  # per call, the sizes of each row's batches, as the reference reads them

    @settings(max_examples=60, deadline=None)
    @given(
        log2_sigma=st.floats(-8.0, math.log2(40.0)),
        rows=st.integers(0, 40),
        size=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    # a third of the rows at sigma 0.5 need a second batch
    @example(log2_sigma=-1.0, rows=40, size=64, seed=0)
    # at sigma 0.3 about half the rows need a third batch, and the rows a
    # block leaves short need different amounts, so their next batches differ
    @example(log2_sigma=math.log2(0.3), rows=40, size=300, seed=2)
    @example(log2_sigma=math.log2(0.3), rows=20, size=1000, seed=3)
    # a first batch above a chunk: each row is a block of its own
    @example(log2_sigma=0.0, rows=2, size=CHUNK // 2 + 1, seed=1)
    def check(log2_sigma, rows, size, seed):
        sigma_units = 2.0**log2_sigma
        # one new Generator per row, and a short row goes on from its own
        rngs = list(generators(entropy(seed, np.arange(rows))))
        z = sample_integer_gaussian(sigma_units, iter(rngs), (rows, size))
        assert z.dtype == np.int64 and z.shape == (rows, size)
        batches_per_row = []
        for r in range(rows):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            assert z[r].tobytes() == sample_integer_gaussian(sigma_units, rng, size).tobytes()
            # each row's generator ends where its own one-generator call leaves it
            assert rngs[r].bit_generator.state == rng.bit_generator.state
            rng, batches = np.random.default_rng(np.random.SeedSequence([seed, r])), []
            assert z[r].tobytes() == sample_integer_gaussian_reference(sigma_units, rng, size, batches).tobytes()
            batches_per_row.append([batch for batch, _ in batches])
        calls.append(batches_per_row)

    check()
    assert any(len(batches) >= 3 for call in calls for batches in call)
    # a call whose short rows went on with batches of different sizes
    assert any(len({batches[1] for batches in call if len(batches) > 1}) > 1 for call in calls)


@pytest.mark.parametrize("size", [100, CHUNK // 2, CHUNK // 2 + 1, CHUNK + 7])
def test_rows_keep_a_buffered_half_word(size):
    # each generator enters holding the unused half of a 64-bit word: a
    # batch read in one block keeps it as it stands, and a batch above a
    # chunk, read from copies moved by advance(), puts it back
    def buffered(rows):
        rngs = [np.random.default_rng([size, r]) for r in range(rows)]
        for rng in rngs:
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"]
        return rngs

    rngs, singles, references = buffered(3), buffered(3), buffered(3)
    z = sample_integer_gaussian(0.7, iter(rngs), (3, size))
    for row, rng, single, reference in zip(z, rngs, singles, references):
        assert row.tobytes() == sample_integer_gaussian(0.7, single, size).tobytes()
        assert row.tobytes() == sample_integer_gaussian_reference(0.7, reference, size).tobytes()
        assert rng.bit_generator.state == single.bit_generator.state == reference.bit_generator.state


def test_rows_stall_when_nothing_is_accepted(monkeypatch):
    # an accept step that rejects every candidate: each row trips its cap
    # of 50 candidates a draw once its seventh batch of 64 is drawn
    monkeypatch.setattr(dgauss, "_accept", lambda batch, sigma_units: np.zeros_like(batch[..., 0, :], dtype=bool))
    monkeypatch.setattr(dgauss, "MAX_REJECTIONS_PER_SAMPLE", 50)
    with pytest.raises(SamplerStall, match=r"\(0/8 after 448 draws\)"):
        sample_integer_gaussian(1.0, generators(entropy(0, np.arange(3))), (3, 8))


def test_rows_need_a_generator_each():
    for rows, size in ((3, 8), (3, CHUNK)):
        with pytest.raises(ValueError, match="generators"):
            sample_integer_gaussian(1.0, [np.random.default_rng(r) for r in range(2)], (rows, size))
    # one generator a row is taken, and no more
    rngs = iter([np.random.default_rng(r) for r in range(3)])
    assert sample_integer_gaussian(1.0, rngs, (2, 8)).shape == (2, 8)
    assert next(rngs).random() == np.random.default_rng(2).random()


@settings(max_examples=20, deadline=None)
@given(log2_sigma=st.floats(-8.0, math.log2(1e4)))
@example(log2_sigma=0.0)
@example(log2_sigma=math.log2(7.0))
@example(log2_sigma=math.log2(1e4))
@example(log2_sigma=-1.59375)  # a mass of 1.2e-8 off by 1.2e-9
def test_sampler_law_is_the_discrete_gaussian(log2_sigma):
    # The law the sampler implements, counted exactly, against the ideal
    # pmf.  An accept chance is rounded up to a multiple of 2**-53, which
    # moves a mass by up to 2**-53 times its proposal over the accept rate,
    # at most about its own 1.1e-16 / mass.  So the ratios are checked from
    # mass 1e-6 (1.2e-11 at worst over 1500 sigmas up to 60); from 1e-8 they
    # reach 1.6e-9 (sigma 0.17), and at sigma 7 some masses below 1e-11 are
    # 1.7e8 times too large.  Above sigma 1e4 the candidates span too many
    # integers to count quickly.
    sigma_units = 2.0**log2_sigma
    ys, law = implemented_law(sigma_units)
    ideal = pmf(dist(sigma_units), ys)
    assert 0.5 * np.abs(law - ideal).sum() <= 1e-12
    held = ideal > 1e-6
    assert np.abs(law[held] / ideal[held] - 1.0).max() <= 1e-9


def test_goodness_of_fit_moderate_sizes():
    for su, seed in ((0.5, 11), (1.0, 12), (3.0, 13)):
        z = sample_integer_gaussian(su, np.random.default_rng(seed), 10**5)
        assert gof_pvalue_discrete(z, dist(su)) > 0.01, su


def test_pmf_mode_at_zero():
    d = dist(1.7)
    support = np.arange(-40, 41)
    pm = pmf(d, support)
    assert np.argmax(pm) == 40  # z = 0
    assert np.all(pm <= pmf(d, 0) + 1e-18)


def test_pmf_symmetry_and_ratio():
    d = dist(1.0)
    assert pmf(d, 5) == pytest.approx(pmf(d, -5), rel=1e-12)
    assert pmf(d, 1) / pmf(d, 0) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_pmf_normalizes():
    d = dist(3.0)
    support = np.arange(-60, 61)
    assert abs(pmf(d, support).sum() - 1.0) < 1e-12


def test_variance_bound_below_sigma_squared():
    for su in (0.3, 0.5, 1.0):
        d = dist(su)
        assert d.variance_upper_bound() < d.sigma**2
    # past ~1 step the correction term drops below one ulp of sigma^2 and
    # the correctly rounded bound saturates there
    for su in (2.0, 5.0, 20.0):
        d = dist(su)
        assert d.variance_upper_bound() <= d.sigma**2


def test_variance_bound_small_sigma_branch():
    d = dist(0.5)
    assert d.variance_upper_bound() <= 3.0 * math.exp(-2.0) * UNIT.step**2


def test_variance_bound_dominates_oracle():
    for su in (0.3, 1.0, 5.0):
        d = dist(su)
        assert variance_oracle(d) * UNIT.step**2 <= d.variance_upper_bound()


def test_empirical_variance_within_bound():
    d = dist(1.0)
    z = sample_integer_gaussian(d.sigma_units, np.random.default_rng(3), 10**6)
    se = z.var() * math.sqrt(2.0 / z.size)
    assert z.var() <= d.variance_upper_bound() / UNIT.step**2 + 5 * se


def test_tail_upper_at_center():
    assert dist(1.0).tail_bound(1) == pytest.approx(0.5, abs=1e-15)


def test_tail_brackets_oracle():
    for su in (0.5, 1.0, 2.0, 4.0):
        d = dist(su)
        for m in (1, 2, 3, 5):
            truth = tail_oracle(d, m)
            assert tail_lower_bound(d, m) <= truth <= d.tail_bound(m), (su, m)


def test_tail_lower_vanishes_below_threshold():
    d = dist(0.3)  # below 1/sqrt(2 pi)
    assert tail_lower_bound(d, 2) == 0.0


def test_tail_rejects_bad_m():
    with pytest.raises(ValueError):
        dist(1.0).tail_bound(0)


def test_renyi_zero_shift():
    assert renyi_divergence(dist(1.0), 0, 2.0) == 0.0


def test_renyi_against_closed_form_bound():
    # sigma = step, mu = 1, alpha = 2: closed form gives exactly 1
    assert renyi_divergence(dist(1.0), 1, 2.0) <= 1.0 + 1e-12
    # sigma = 2 steps: bound alpha mu^2 / (2 sigma^2) = alpha / 8
    d = dist(2.0)
    for alpha in (1.5, 2.0, 4.0, 8.0, 16.0):
        assert renyi_divergence(d, 1, alpha) <= alpha / 8.0 + 1e-12


def test_distribution_requires_positive_sigma():
    with pytest.raises(ValueError):
        DiscreteGaussian(0.0, UNIT)
