import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from latticefl import bounds, secagg, streams
from latticefl.bounds import ceil_log2, empirical_mse, empirical_mse_bytes, mse_bound
from latticefl.config import MseGrid
from latticefl.dgauss import DiscreteGaussian
from latticefl.errors import HypothesisViolated
from latticefl.lattice import LatticeSpec

from helpers import empirical_mse_reference, mse_bound_reading, mse_oracle, variance_oracle


def inputs(**overrides):
    """``mse_bound``'s keyword arguments at a base cell, some overridden."""
    base = dict(d=64, n=10, k=9, q=10**6 + 1, sigma_units=1.0, gamma=0.1, g_max=0.5)
    base.update(overrides)
    return base


def dominant_term(d, n, k, q, sigma_units, gamma, g_max) -> float:
    return (4 * d * g_max**2 / (n * (k - 1) ** 2)) * (0.25 + sigma_units**2 / (gamma**2 * n**2))


def test_bound_reduces_to_dominant_term_for_large_q():
    i = inputs()
    assert mse_bound(**i) == pytest.approx(dominant_term(**i), rel=1e-12)
    for normalize_phi in (True, False):
        assert mse_bound_reading(**i, normalize_phi=normalize_phi) == pytest.approx(dominant_term(**i), rel=1e-12)


def test_bound_quarter_per_level_doubling():
    lo = inputs(k=9)  # k - 1 = 8
    hi = inputs(k=17)  # k - 1 = 16
    assert mse_bound(**hi) == pytest.approx(mse_bound(**lo) / 4, rel=1e-12)


def test_bound_independent_reevaluation():
    # longhand re-evaluation of the bound formula
    su = inputs()["sigma_units"]
    phi_term = 0.0  # survival of 1e7 standard deviations underflows to 0
    coeff = 1.0 - phi_term / (1.0 + 3.0 * math.exp(-2.0 * math.pi**2 * su**2))
    expected = coeff * (4 * 64 * 0.25 / (10 * 64)) * (0.25 + 1.0 / (0.01 * 100)) + 0.0
    assert mse_bound(**inputs()) == pytest.approx(expected, rel=1e-12)


def test_bound_overflow_terms_engage_at_tiny_q():
    # only at tiny q do the CDF terms wake up; the two argument readings
    # then give genuinely different values
    i = inputs(q=3, k=3, n=1, sigma_units=30.0, gamma=1.0)
    literal = mse_bound_reading(**i, normalize_phi=False)
    normalized = mse_bound_reading(**i, normalize_phi=True)
    assert literal != normalized
    assert literal > 0 and normalized > 0
    assert mse_bound(**i) == max(literal, normalized) < dominant_term(**i)  # the no-overflow factor is < 1 here


def test_normal_sf_matches_scipy_log_ndtr():
    # the erfc tail against scipy's log-space form: the same to a relative
    # 1e-12 wherever scipy's, floored at 1e-300, is non-zero, and exactly
    # 0 from 37.1 on
    for x in np.linspace(-5.0, 37.0, 20001):
        log_sf = float(log_ndtr(-x))
        reference = 0.0 if log_sf < math.log(1e-300) else math.exp(log_sf)
        if reference > 0.0:
            assert bounds._normal_sf(x) == pytest.approx(reference, rel=1e-12, abs=0.0), x
    for x in (37.1, 38.0, 100.0, 3932.0, 1e6, math.inf):
        assert bounds._normal_sf(x) == 0.0


def test_bound_hypothesis_gate():
    with pytest.raises(HypothesisViolated, match="sigma_units"):
        mse_bound(**inputs(sigma_units=0.3))
    # the noise term covers one shared draw over n clients up to gamma^2 n = 1
    assert mse_bound(**inputs(n=4, gamma=0.5)) > 0
    with pytest.raises(HypothesisViolated, match="gamma"):
        mse_bound(**inputs(n=4, gamma=np.nextafter(0.5, 1.0)))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 1 << 20),
    n=st.integers(1, 20) | st.integers(1, 5000),
    k=st.integers(2, 1000),
    q=st.integers(1, 40) | st.integers(1, 1 << 20),  # tiny q, where the readings can differ, or any
    sigma_units=st.floats(1.0 / math.sqrt(2.0 * math.pi), 1e6),
    gamma=st.floats(1e-6, 1.0),
    g_max=st.floats(1e-6, 1e6),
)
# tiny q, where the two readings differ
@example(d=64, n=1, k=3, q=3, sigma_units=30.0, gamma=1.0, g_max=0.5)
@example(d=64, n=2, k=9, q=9, sigma_units=3.0, gamma=0.5, g_max=1.0)
def test_bound_is_the_larger_reading_bit_for_bit(d, n, k, q, sigma_units, gamma, g_max):
    i = (d, n, k, q, sigma_units, gamma, g_max)
    if gamma**2 * n > 1.0:
        with pytest.raises(HypothesisViolated):
            mse_bound(*i)
        return
    assert mse_bound(*i) == max(mse_bound_reading(*i, normalize_phi=True), mse_bound_reading(*i, normalize_phi=False))


def test_bound_monotonicity_grid():
    base = mse_bound(**inputs())
    assert mse_bound(**inputs(k=17)) < base  # decreasing in k
    assert mse_bound(**inputs(n=20)) < base  # decreasing in n
    assert mse_bound(**inputs(sigma_units=2.0)) > base  # increasing in sigma
    assert mse_bound(**inputs(d=128)) > base  # increasing in d


def test_inputs_validation():
    with pytest.raises(ValueError):
        mse_bound(**inputs(k=1))
    with pytest.raises(ValueError):
        mse_bound(**inputs(gamma=0.0))
    with pytest.raises(ValueError):
        mse_bound(**inputs(g_max=0.0))


def unit_updates(m, d, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(m, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def test_empirical_mse_noiseless_quantization_ceiling():
    m, d = 5, 32
    spec = LatticeSpec(g_max=1.0, k=2**10 + 1, q=2**10 + 3)
    emp = empirical_mse(unit_updates(m, d, 0), spec, 1.0, 0.0, trials=50, seed=1)
    assert emp <= spec.step**2 * d / 4 / m


def test_empirical_mse_noise_only():
    # zero updates: the error is exactly the shared draw over m
    m, d = 4, 16
    spec = LatticeSpec(g_max=1.0, k=9, q=5001)
    su = 1.0
    trials = 400
    emp = empirical_mse(np.zeros((m, d)), spec, 1.0, su, trials=trials, seed=2)
    dist = DiscreteGaussian(su * spec.step, spec)
    var_real = variance_oracle(dist) * spec.step**2
    expected = d * var_real / m**2
    # chi^2_d concentration: sd of the per-trial error is sqrt(2/d) of it
    se = expected * math.sqrt(2.0 / d) / math.sqrt(trials)
    assert abs(emp - expected) <= 4 * se


def test_empirical_below_bound():
    m, d = 10, 64
    spec = LatticeSpec(g_max=1.0, k=9, q=1001)
    emp = empirical_mse(unit_updates(m, d, 3), spec, 1.0, 1.0, trials=300, seed=4)
    bound = mse_bound(d, m, 9, 1001, 1.0, 0.1, 1.0)
    assert emp <= bound


def mse_bench_updates(n, d, seed):
    """A cell's updates as ``mse-bench`` draws them: unit-norm normal rows."""
    updates = np.random.default_rng(seed).normal(size=(n, d))
    return updates / np.linalg.norm(updates, axis=1, keepdims=True)


def assert_near_oracle(updates, spec, sigma_units, batches, trials, seed):
    """``empirical_mse`` over ``batches`` batches of ``trials`` trials lies
    within 5 batch standard errors of the exact expectation, either side."""
    results = [empirical_mse(updates, spec, 1.0, sigma_units, trials, seed=seed + b) for b in range(batches)]
    se = float(np.std(results, ddof=1)) / math.sqrt(batches)
    oracle = mse_oracle(updates, spec, 1.0, sigma_units)
    assert abs(float(np.mean(results)) - oracle) <= 5.0 * se + 1e-12 * oracle, (np.mean(results), oracle, se)


def test_empirical_mse_equals_the_oracle_on_the_stock_grid():
    # the 12 stock cells at 20 batches of 50 trials: catches a biased
    # quantizer, a lost noise share or noise at the wrong scale, either way
    for cell, (d, n, k, q, su, _, g_max) in enumerate(MseGrid().cells()):
        spec = LatticeSpec(g_max=g_max, k=k, q=q)
        assert_near_oracle(mse_bench_updates(n, d, 900 + cell), spec, su, 20, 50, seed=9000 + 100 * cell)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 6),
    d=st.integers(1, 40),
    half_k=st.integers(1, 8),
    g_max=st.floats(1.0, 3.0),  # at least the clip bound: nothing is clamped
    sigma_units=st.just(0.0) | st.floats(0.2, 3.0),
    scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_empirical_mse_equals_the_oracle_on_small_cells(m, d, half_k, g_max, sigma_units, scale, seed):
    # q = 1001 leaves no sum near a wrap
    spec = LatticeSpec(g_max=g_max, k=2 * half_k + 1, q=1001)
    updates = np.random.default_rng(seed).normal(size=(m, d)) * scale
    assert_near_oracle(updates, spec, sigma_units, 20, 20, seed)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 128),
    n=st.integers(1, 20),
    half_k=st.integers(1, 32),
    sigma_units=st.floats(0.0, 5.0),
    gamma=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# gamma^2 n = 4: the cell where the pipeline's MSE exceeded the bound by a quarter
@example(d=64, n=4, half_k=2, sigma_units=1.0, gamma=1.0, seed=0)
def test_bound_covers_the_oracle_wherever_it_applies(d, n, half_k, sigma_units, gamma, seed):
    # every cell mse-bench does not flag `hypothesis` has a bound at least
    # the pipeline's exact expected MSE, on mse-bench's own updates
    k, q, g_max = 2 * half_k + 1, 1001, 1.0
    try:
        bound = mse_bound(d, n, k, q, sigma_units, gamma, g_max)
    except HypothesisViolated:
        return
    assert bound >= mse_oracle(mse_bench_updates(n, d, seed), LatticeSpec(g_max=g_max, k=k, q=q), 1.0, sigma_units)


def test_empirical_mse_validation():
    spec = LatticeSpec(g_max=1.0, k=3, q=7)
    for trials, seed in ((0, 0), (2**32, 0), (1, -1)):
        with pytest.raises(ValueError):
            empirical_mse(np.zeros((2, 4)), spec, 1.0, 1.0, trials=trials, seed=seed)


@st.composite
def mse_cells(draw):
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 70))
    k = 2 * draw(st.integers(1, 8)) + 1
    spec = LatticeSpec(g_max=draw(st.floats(0.05, 2.0)), k=k, q=k + 2 * draw(st.integers(0, 2000)))
    sigma_units = draw(st.one_of(st.just(0.0), st.floats(0.2, 4.0)))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)))
    updates = np.random.default_rng(seed).normal(size=(m, d)) * draw(st.floats(0.1, 3.0))
    return updates, spec, sigma_units, seed


@settings(max_examples=40, deadline=None)
@given(mse_cells(), st.integers(1, 30), st.sampled_from([1, 3000, 40000, None]))
def test_empirical_mse_equals_the_per_trial_loop(cell, trials, chunk_bytes):
    # small chunk budgets split the trials into several chunks (down to one
    # trial each), so the trial counts cross chunk boundaries
    updates, spec, sigma_units, seed = cell
    with pytest.MonkeyPatch.context() as patch:
        if chunk_bytes is not None:
            patch.setattr(bounds, "_CHUNK_BYTES", chunk_bytes)
        batched = empirical_mse(updates, spec, 1.0, sigma_units, trials, seed)
    assert batched == empirical_mse_reference(updates, spec, 1.0, sigma_units, trials, seed)


def test_empirical_mse_derives_no_masks(monkeypatch):
    # the masks cancel exactly, so trials skip them; the masked per-trial
    # reference above shows that no bit changes
    def no_masks(*args, **kwargs):
        raise AssertionError("empirical_mse derived pairwise masks")

    monkeypatch.setattr(secagg, "net_masks", no_masks)
    updates = np.random.default_rng(9).normal(size=(6, 20))
    spec = LatticeSpec(g_max=1.0, k=9, q=1001)
    assert empirical_mse(updates, spec, 1.0, 1.0, 40, seed=5) > 0


def test_empirical_mse_hands_the_sampler_its_sigma_units(monkeypatch):
    # at k = 7 the step is 1/3, and sigma_units * step / step would give
    # 6.999999999999999, and with it another proposal scale; one call draws
    # a chunk's noise, a row per trial
    received = []
    sample = bounds.sample_integer_gaussian
    monkeypatch.setattr(bounds, "sample_integer_gaussian",
                        lambda su, rng, size: received.append((su, size)) or sample(su, rng, size))
    spec = LatticeSpec(g_max=1.0, k=7, q=1001)
    empirical_mse(np.zeros((3, 8)), spec, 1.0, 7.0, trials=2, seed=0)
    assert received == [(7.0, (2, 8))]
    received.clear()
    monkeypatch.setattr(bounds, "_CHUNK_BYTES", 1)  # a chunk of one trial
    empirical_mse(np.zeros((3, 8)), spec, 1.0, 7.0, trials=3, seed=0)
    assert received == [(7.0, (1, 8))] * 3


@pytest.mark.parametrize("seed", [0, 8, 123, 2**32 - 1, 2**32, 5 * 10**12, 2**63 - 1, 2**64 + 5, 2**100])
def test_trial_seeds_match_spawned_generators(seed):
    # empirical_mse seeds child i of trial t's SeedSequence([seed, t]).spawn
    trial, child = np.meshgrid(997 + np.arange(4), np.arange(6), indexing="ij")
    generators = streams.generators(streams.entropy(seed, trial, child=child))
    for t in range(4):
        for i, spawned in enumerate(np.random.SeedSequence([seed, 997 + t]).spawn(6)):
            assert next(generators).bit_generator.state == np.random.default_rng(spawned).bit_generator.state
    assert next(generators, None) is None


@pytest.mark.parametrize("m, d, trials", [(1, 1, 1300), (2, 64, 200), (4, 64, 100), (8, 1, 120),
                                          (10, 64, 20), (3, 4096, 3), (64, 1024, 2), (200, 256, 1),
                                          (10, 256, 21), (2000, 64, 2),
                                          (1, 16384, 2), (1, 2**18, 2)])
def test_empirical_mse_bytes_bounds_the_peak(m, d, trials):
    # the peak is one chunk's, so two chunks and a bit show it
    updates = np.random.default_rng(m).normal(size=(m, d))
    spec = LatticeSpec(g_max=1.0, k=9, q=1001)
    tracemalloc.start()
    try:
        empirical_mse(updates, spec, 1.0, 1.0, trials, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert updates.nbytes + peak <= empirical_mse_bytes(m, d)


def test_empirical_mse_frees_each_chunk_before_the_next():
    # at m = 1, d = 2**18 a chunk is one trial: a second trial must not
    # raise the peak by more than one (m, d_pad) float64 row
    updates = np.random.default_rng(1).normal(size=(1, 2**18))
    spec = LatticeSpec(g_max=1.0, k=9, q=1001)
    peaks = []
    for trials in (1, 2):
        tracemalloc.start()
        try:
            empirical_mse(updates, spec, 1.0, 1.0, trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + updates.nbytes


def test_comm_cost_validation():
    # the bits a payload coordinate takes
    assert [ceil_log2(v) for v in (1, 2, 3, 4, 5, 1 << 32, (1 << 32) + 1)] == [0, 1, 2, 2, 3, 32, 33]
    with pytest.raises(ValueError, match="need a positive integer, got 0"):
        ceil_log2(0)
