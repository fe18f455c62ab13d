import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special import gammaln

from latticefl.accountant import (
    ALPHAS,
    AccountantState,
    _log_factorial,
    amplify_by_subsampling,
    base_curve,
    compose,
    logsumexp,
    to_dp,
)
from latticefl.compress import sensitivity
from latticefl.dgauss import DiscreteGaussian
from latticefl.lattice import LatticeSpec

from helpers import (
    amplified_at_integer_reference,
    analytic_gaussian_epsilon,
    epsilon_reference,
    privacy_profile_epsilon,
    renyi_divergence,
    subsampled_pair_divergence,
)


def at(eps, alpha):
    """A curve's value at ``alpha``, one of the orders."""
    return float(eps[list(ALPHAS).index(alpha)])


def test_grid_covers_required_orders():
    for a in [1 + 1e-3, 1.5, 2, 3, 64, 128, 256]:
        assert a in ALPHAS
    assert set(range(2, 65)) <= {int(a) for a in ALPHAS if float(a).is_integer()}
    assert np.all(ALPHAS > 1.0) and np.all(np.diff(ALPHAS) > 0)
    assert not ALPHAS.flags.writeable


def test_base_curve_simple_point():
    assert at(base_curve(1.0, 1.0), 2.0) == pytest.approx(1.0)


def test_base_curve_quadruple_sensitivity():
    # clip bound 1 with sensitivity 4: eps(3) = 8 * 3 * 1 / sigma^2 at sigma=2
    assert at(base_curve(2.0, 4.0), 3.0) == pytest.approx(6.0)


def test_base_curve_vanishes_with_large_sigma():
    assert np.all(base_curve(1e9, 1.0) < 1e-15)
    # sigma**2 overflows, and the rate underflows to 0
    assert np.all(base_curve(1e200, 1.0) == 0.0)


def test_base_curve_rejects_nonpositive():
    with pytest.raises(ValueError):
        base_curve(0.0, 1.0)
    with pytest.raises(ValueError):
        base_curve(1.0, -1.0)
    # the rate sensitivity**2 / (2 sigma**2) is not a finite float
    for sigma, sens in ((1e-162, 3.4), (5e-324, 1.0), (2e-162, 3.4), (1.0, 1e160)):
        with pytest.raises(ValueError, match="float range"):
            base_curve(sigma, sens)


def test_amplify_gamma_one_is_identity():
    curve = base_curve(2.0, 1.0)
    assert amplify_by_subsampling(curve, 1.0) is curve


def test_amplify_rejects_bad_gamma():
    with pytest.raises(ValueError):
        amplify_by_subsampling(base_curve(1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        amplify_by_subsampling(base_curve(1.0, 1.0), 1.5)


def test_amplify_quadratic_in_gamma():
    curve = base_curve(4.0, 1.0)
    e_full = at(amplify_by_subsampling(curve, 1e-2), 2.0)
    e_half = at(amplify_by_subsampling(curve, 5e-3), 2.0)
    assert e_half <= e_full / 3.9


def test_amplify_matches_direct_formula():
    # independent re-evaluation at alpha = 2, sigma = 4 x sensitivity
    sigma, gamma = 4.0, 0.01
    eps2 = 2.0 / (2.0 * sigma**2)
    expected = math.log(
        1.0 + gamma**2 * 1.0 * min(4.0 * (math.exp(eps2) - 1.0), 2.0 * math.exp(eps2))
    )
    got = at(amplify_by_subsampling(base_curve(sigma, 1.0), gamma), 2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_amplify_direct_formula_alpha_four():
    # full sum including the j = 3, 4 terms, evaluated longhand
    sigma, gamma, alpha = 2.0, 0.05, 4
    eps = lambda j: j / (2.0 * sigma**2)
    total = 1.0 + gamma**2 * math.comb(alpha, 2) * min(
        4.0 * (math.exp(eps(2)) - 1.0), 2.0 * math.exp(eps(2))
    )
    for j in range(3, alpha + 1):
        total += 2.0 * gamma**j * math.comb(alpha, j) * math.exp((j - 1) * eps(j))
    expected = math.log(total) / (alpha - 1)
    got = at(amplify_by_subsampling(base_curve(sigma, 1.0), gamma), 4.0)
    assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(1e-150, 1e6),
    sens=st.floats(1e-6, 1e6),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
)
@example(sigma=4.78, sens=sensitivity(1.0, 32, 9), gamma=0.1)  # configs/accountant.cfg
@example(sigma=2.0, sens=1.0, gamma=float(np.nextafter(1.0, 0.0)))  # gamma near 1
@example(sigma=2.0, sens=1.0, gamma=5e-324)  # the smallest gamma
@example(sigma=1e-6, sens=1.0, gamma=0.5)  # large but finite terms
@example(sigma=1.0, sens=1.4e152, gamma=0.5)  # terms past the float range
@example(sigma=1e200, sens=1.0, gamma=0.5)  # the curve underflows to 0
@example(sigma=5.591222243335839, sens=1.0, gamma=0.1200276341902422)  # sum order shows at order 16
def test_amplified_curve_equals_the_per_term_reference(sigma, sens, gamma):
    # bit for bit, the ledger's curve as the terms added one at a time give it
    assume(sens / sigma <= 1e153)  # every order's base value is finite
    base = base_curve(sigma, sens)
    if gamma == 1.0:
        amplified = base
    else:
        amplified = np.array([amplified_at_integer_reference(base, gamma, max(2, math.ceil(a))) for a in ALPHAS])
    assert amplify_by_subsampling(base, gamma).tobytes() == amplified.tobytes()
    ledger = AccountantState(sigma=sigma, sensitivity=sens, gamma=gamma).per_round
    assert ledger.tobytes() == np.minimum(amplified, base).tobytes()


def test_amplified_curve_nondecreasing():
    for gamma in (0.01, 0.1, 0.5):
        amped = amplify_by_subsampling(base_curve(3.0, 1.0), gamma)
        assert np.all(np.diff(amped) >= -1e-12)


def test_amplify_never_hurts_at_small_gamma():
    base = base_curve(3.0, 1.0)
    amped = amplify_by_subsampling(base, 0.05)
    # subsampling at small gamma shrinks the moderate orders
    for a in (2.0, 4.0, 8.0):
        assert at(amped, a) < at(base, a)


def test_compose_zero_rounds():
    assert np.all(compose(base_curve(1.0, 1.0), 0) == 0.0)
    # an order past the float range spends nothing either, not inf * 0 = NaN
    assert np.all(compose(np.array([1.0, np.inf]), 0) == 0.0)


def test_compose_additivity():
    assert np.all(compose(np.ones_like(ALPHAS), 2) == 2.0)


def test_compose_rejects_negative():
    with pytest.raises(ValueError):
        compose(base_curve(1.0, 1.0), -1)


def test_sqrt_t_regime_ratio():
    amped = amplify_by_subsampling(base_curve(8.0, 1.0), 0.1)
    for T in (100, 400):
        eps_t, _ = to_dp(compose(amped, T), 1e-5)
        eps_4t, _ = to_dp(compose(amped, 4 * T), 1e-5)
        assert eps_4t / eps_t <= 2.2


def test_to_dp_flat_curve():
    eps, _ = to_dp(np.ones_like(ALPHAS), math.exp(-1.0))
    assert eps <= 2.0 + 1e-12  # candidate at alpha = 2 is 1 + 1/(2-1)


def test_to_dp_delta_near_one():
    curve = base_curve(1.0, 1.0)
    eps, alpha = to_dp(curve, 1.0 - 1e-12)
    assert eps == pytest.approx(curve.min(), abs=1e-8)
    assert alpha == pytest.approx(ALPHAS[0])


def test_to_dp_matches_dense_grid():
    # Gaussian-style curve eps(alpha) = alpha / 2 at delta = 1e-5
    eps, _ = to_dp(ALPHAS / 2.0, 1e-5)
    dense = np.linspace(ALPHAS[0], ALPHAS[-1], 10 * ALPHAS.size)
    eps_dense = float(np.min(dense / 2.0 + math.log(1e5) / (dense - 1.0)))
    assert eps <= 1.02 * eps_dense
    assert eps >= eps_dense


def test_to_dp_at_a_subnormal_delta():
    # 1 / delta overflows below about 5.6e-309, but -log(delta) is 713.8
    eps, alpha = to_dp(ALPHAS / 2.0, 1e-310)
    candidates = ALPHAS / 2.0 + 310 * math.log(10.0) / (ALPHAS - 1.0)
    assert eps == pytest.approx(float(candidates.min()), rel=1e-12)
    assert alpha == ALPHAS[int(np.argmin(candidates))]


def test_to_dp_rejects_bad_delta():
    with pytest.raises(ValueError):
        to_dp(base_curve(1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        to_dp(base_curve(1.0, 1.0), 1.0)


def test_epsilon_monotonicity():
    def eps(sigma=2.0, rounds=10, gamma=0.1, delta=1e-5):
        return AccountantState(sigma=sigma, sensitivity=1.0, gamma=gamma).epsilon(delta, rounds)[0]

    assert eps(sigma=3.0) < eps(sigma=2.0)  # strictly decreasing in sigma
    assert eps(rounds=20) > eps(rounds=10)
    assert eps(gamma=0.2) > eps(gamma=0.1)
    assert eps(delta=1e-3) < eps(delta=1e-7)


def test_closed_form_dominates_numeric_oracle():
    # gamma = 1: the accountant's curve must upper-bound the truncated-sum
    # divergence curve pointwise, hence also after conversion.
    spec = LatticeSpec(g_max=1.0, k=3, q=7)  # step 1
    sigma_units = 2.0
    d = DiscreteGaussian(sigma_units * spec.step, spec)
    closed = compose(base_curve(sigma_units, 1.0), 5)
    numeric = 5 * np.array([renyi_divergence(d, 1, a) for a in ALPHAS])
    assert np.all(closed >= numeric - 1e-12)
    for delta in (1e-7, 1e-5, 1e-2):
        assert to_dp(closed, delta)[0] >= to_dp(numeric, delta)[0] - 1e-12


@settings(max_examples=50, deadline=None)
@given(sigma_units=st.floats(0.5, 8.0), mu=st.integers(1, 5))
@example(sigma_units=0.5, mu=5)
def test_closed_form_dominates_the_divergence_at_every_order(sigma_units, mu):
    # At an integer order the two are equal, so the slack covers rounding:
    # 1.8e-12 of it at sigma_units 0.6, mu 5, order 256, where both are 8889.
    spec = LatticeSpec(g_max=1.0, k=3, q=7)  # step 1
    d = DiscreteGaussian(sigma_units * spec.step, spec)
    numeric = np.array([renyi_divergence(d, mu, a) for a in ALPHAS])
    assert np.all(base_curve(sigma_units, mu) >= numeric - 1e-9)


@settings(max_examples=50, deadline=None)
@given(sigma_units=st.floats(0.6, 20.0), shift=st.integers(1, 20), gamma=st.floats(0.01, 1.0))
# where each of four amplification mutants falls furthest below the pair:
# (j + 1) log gamma, (j - 2) eps(j), a division by alpha, the pair term at gamma^3
@example(sigma_units=3.0, shift=2, gamma=0.01)
@example(sigma_units=7.0, shift=10, gamma=0.01)
@example(sigma_units=0.6, shift=20, gamma=0.9)
@example(sigma_units=1.0, shift=2, gamma=0.01)
def test_ledger_bounds_the_exact_divergence_of_a_subsampled_pair(sigma_units, shift, gamma):
    # A sound ledger is at least the divergence of any realizable pair of
    # neighbouring rounds, both ways, at every order; at gamma = 1 the two
    # are equal (Canonne, Kamath, Steinke 2020), so the slack is float
    # rounding.  Three mutants shrink the proof's constants but stay above
    # this pair, so only the formula copies above catch them: the pair
    # factor 4 -> 1, the factor 2 of the j >= 3 terms dropped, and the
    # orders rounded down, not up, to integers.
    forward, backward = subsampled_pair_divergence(sigma_units, shift, gamma)
    per_round = AccountantState(sigma_units, shift, gamma).per_round
    assert np.all(per_round >= np.maximum(forward, backward) * (1.0 - 1e-9))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    ratio=st.floats(0.8, 8.0),
    shift=st.integers(1, 4),
    gamma=st.floats(0.01, 1.0),
    rounds=st.sampled_from([1, 2, 50]),
    delta=st.sampled_from([1e-7, 1e-5, 1e-3]),
)
# the stock accountant point, and full sampling, where the ledger's only
# slack is its conversion: 3.686 against the pair's 2.931 at one round
@example(ratio=1.4, shift=1, gamma=0.1, rounds=50, delta=1e-5)
@example(ratio=1.4, shift=1, gamma=1.0, rounds=1, delta=1e-5)
def test_ledger_epsilon_bounds_the_exact_privacy_profile_of_a_subsampled_pair(ratio, shift, gamma, rounds, delta):
    # The printed epsilon after T rounds, conversion included, is at least
    # a lower bound on the exact epsilon of a realizable pair of neighbouring
    # rounds (the pair of the test above, sigma = ratio x shift).  Two mutants fall below
    # it at full sampling and one round: the conversion's log(1/delta) term
    # halved (2.68) and the composition one round short (0.05).  At the
    # stock point, 6.890 against 2.798, the pair leaves a 2.5x gap, so
    # halving the term there (4.97) passes.  The conversion's own slack hides
    # smaller cuts, which survive: the term times 0.8, the composition at
    # 0.9 rounds, and three amplification mutants that the divergence test
    # above catches order by order (gamma^(j+1), alpha, the pair at gamma^3).
    sigma_units = ratio * shift
    spent = AccountantState(sigma_units, shift, gamma).epsilon(delta, rounds)[0]
    assert spent >= privacy_profile_epsilon(sigma_units, shift, gamma, rounds, delta)


@pytest.mark.parametrize("shift", [1, 10])
@pytest.mark.parametrize("rounds", [1, 50])
def test_privacy_profile_at_full_sampling_is_the_gaussian_mechanism(shift, rounds):
    # At gamma = 1 the pair is a discrete Gaussian and its shift, whose
    # exact profile nears the continuous Gaussian's (Balle and Wang 2018)
    # as the lattice refines: at sigma / shift = 1.4 it reads 2.931 (shift
    # 1) and 2.978 (shift 10) against 2.977 after one round, and 33.48
    # and 33.49 against 33.57 after 50, where the grid's rounding shows.
    exact = analytic_gaussian_epsilon(math.sqrt(rounds) / 1.4, 1e-5)
    assert privacy_profile_epsilon(1.4 * shift, shift, 1.0, rounds, 1e-5) == pytest.approx(exact, rel=0.02)


def test_epsilon_does_not_rise_as_gamma_falls():
    # stock train noise and sensitivity, 50 rounds: the amplification bound
    # alone gave 75.76 at gamma = 0.9 against 41.09 at gamma = 1
    sens = sensitivity(0.5, 32, 33)
    eps = []
    for gamma in np.linspace(1.0, 0.05, 20):
        state = AccountantState(sigma=1.53, sensitivity=sens, gamma=float(gamma))
        eps.append(state.epsilon(1e-5, 50)[0])
    assert all(later <= earlier for earlier, later in zip(eps, eps[1:]))
    base = AccountantState(sigma=1.53, sensitivity=sens, gamma=0.9).per_round
    assert np.all(base <= base_curve(1.53, sens))


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(0.3, 10.0),
    gamma=st.floats(0.01, 1.0),
    rounds=st.integers(1, 1000),
    more_rounds=st.integers(1, 1000),
    gamma_scale=st.floats(0.05, 1.0, exclude_max=True),
    sigma_scale=st.floats(1.0, 4.0, exclude_min=True),
    delta=st.sampled_from([1e-7, 1e-5, 1e-2]),
)
# stock train's noise over its sensitivity, where the amplification bound
# alone exceeds the unamplified curve just below gamma = 1
@example(sigma=1.53 / sensitivity(0.5, 32, 33), gamma=1.0, rounds=50, more_rounds=1,
         gamma_scale=0.9, sigma_scale=1.01, delta=1e-5)
def test_ledger_epsilon_is_monotone_in_rounds_gamma_and_sigma(
    sigma, gamma, rounds, more_rounds, gamma_scale, sigma_scale, delta
):
    # epsilon does not fall as rounds rise, and does not rise as gamma falls
    # or sigma rises; the last two allow rounding in the log-sum-exp
    def spent(sigma, gamma, rounds):
        return AccountantState(sigma=sigma, sensitivity=1.0, gamma=gamma).epsilon(delta, rounds)[0]

    eps = spent(sigma, gamma, rounds)
    assert spent(sigma, gamma, rounds + more_rounds) >= eps
    assert spent(sigma, gamma * gamma_scale, rounds) <= eps * (1 + 1e-12)
    assert spent(sigma * sigma_scale, gamma, rounds) <= eps * (1 + 1e-12)


def test_accountant_state_ledger():
    state = AccountantState(sigma=2.0, sensitivity=1.0, gamma=0.5)
    # nothing spent at no optimal order, as `latticefl accountant` prints it
    assert state.epsilon(1e-5, 0) == (0.0, math.inf)
    eps, alpha = state.epsilon(1e-5, 3)
    assert 0 < eps < math.inf and alpha in ALPHAS
    assert (eps, alpha) == to_dp(3 * state.per_round, 1e-5)


@settings(max_examples=15, deadline=None)
@given(sigma=st.floats(0.3, 10.0), gamma=st.floats(0.01, 1.0), delta=st.sampled_from([1e-7, 1e-5, 1e-2]))
@example(sigma=1.53 / sensitivity(0.5, 32, 33), gamma=0.1, delta=1e-5)  # stock train
def test_epsilon_after_t_rounds_is_the_composed_curve_converted(sigma, gamma, delta):
    # every round count of a 300-round run, bit for bit
    state = AccountantState(sigma=sigma, sensitivity=1.0, gamma=gamma)
    assert state.epsilon(delta, 0) == epsilon_reference(state.per_round, delta, 0) == (0.0, math.inf)
    for t in range(1, 301):
        spent = state.epsilon(delta, t)
        assert spent == epsilon_reference(state.per_round, delta, t) == to_dp(compose(state.per_round, t), delta)


def test_log_factorial_equals_scipy_gammaln():
    # bit for bit, across the small-argument product and the Stirling series,
    # and past the table's n <= 256, where cephes shortens and then drops the series
    n = np.arange(0, 10**5 + 1)
    ours = np.array([_log_factorial(int(i)) for i in n])
    assert ours.tobytes() == gammaln(n + 1.0).tobytes()
    for big in (10**8 - 2, 10**8 - 1, 10**8, 10**12):
        assert _log_factorial(big) == gammaln(big + 1.0)


@st.composite
def log_terms(draw):
    """Finite values drawn with repeats (ties, the maximum's included) and
    -inf entries, at scales up to 1e300."""
    pool = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool + [-math.inf]), min_size=1, max_size=300)))


@settings(max_examples=300, deadline=None)
@given(log_terms())
def test_logsumexp_equals_scipy(a):
    assert logsumexp(a) == float(special.logsumexp(a))


@pytest.mark.parametrize(
    "a, expected",
    [
        ([-math.inf], -math.inf),
        ([-math.inf] * 3, -math.inf),
        ([math.inf, 0.0], math.inf),
        ([math.nan, 0.0], math.nan),
        ([-1e308, 1e308], 1e308),  # the shifted minimum rounds to -inf
    ],
)
def test_logsumexp_edges_match_scipy_without_warnings(a, expected):
    # any RuntimeWarning fails the suite, so passing shows none is raised
    ours = logsumexp(np.array(a))
    with np.errstate(over="ignore"):
        theirs = float(special.logsumexp(np.array(a)))
    assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))
    assert ours == expected or (math.isnan(ours) and math.isnan(expected))
