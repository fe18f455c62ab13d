"""Renyi-DP accounting across rounds.

Per-round privacy of the noised aggregate is the Gaussian-form curve
``eps(alpha) = alpha * sensitivity^2 / (2 sigma^2)``, amplified by
client subsampling at rate ``gamma``, composed additively over rounds,
and finally converted to an ``(epsilon, delta)`` statement by minimizing
``eps(alpha) + log(1/delta) / (alpha - 1)`` over the fixed orders ``ALPHAS``.

All rounds are homogeneous (same sigma, sensitivity, gamma); the ledger
is therefore a single curve scaled by the round count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The orders 1+1e-3, 1.5, 2..64, 128, 256: a curve is its float64 values at them.
ALPHAS = np.array([1.0 + 1e-3, 1.5] + list(range(2, 65)) + [128.0, 256.0])
ALPHAS.flags.writeable = False


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` by scipy.special.logsumexp's steps on real input,
    to the bit: the maxima are counted, not summed, and all -inf gives -inf."""
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    is_max = a == a_max
    m = np.count_nonzero(is_max)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a - a_max))) / m
        return float(np.log1p(s) + np.log(m) + a_max)


def base_curve(sigma: float, sensitivity: float) -> np.ndarray:
    """Unamplified per-round curve ``alpha * sensitivity^2 / (2 sigma^2)``.

    ``sigma`` and ``sensitivity`` must share units (real-valued or
    lattice steps); only their ratio matters.  Raises ValueError when the
    rate ``sensitivity^2 / (2 sigma^2)`` is not a finite float.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    try:
        rate = sensitivity**2 / (2.0 * sigma**2)
    except (ZeroDivisionError, OverflowError):  # a square left the float range
        rate = (sensitivity / sigma) * (sensitivity / sigma) / 2.0
    if not math.isfinite(rate):
        raise ValueError(f"sigma = {sigma} and sensitivity = {sensitivity} give a per-round rate "
                         "sensitivity**2 / (2 sigma**2) past the float range")
    with np.errstate(over="ignore"):  # a finite rate whose curve passes the float range is inf there
        return ALPHAS * rate


_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(n: int) -> float:
    """``log(n!)``, bit for bit scipy's ``gammaln(n + 1)``: a port of cephes' ``lgam``,
    whose shorter series from the argument 1000 on, and none above 1e8, round alike."""
    x = float(n + 1)
    if x < 13.0:
        return math.log(float(math.factorial(n)))
    p = 1.0 / (x * x)
    series = functools.reduce(lambda acc, coeff: acc * p + coeff, _LGAM_A)
    return (x - 0.5) * math.log(x) - x + 0.91893853320467274178 + series / x  # log(sqrt(2 pi))


# log(n!) for every n up to the largest order
_LOG_FACTORIAL = np.array([_log_factorial(n) for n in range(int(ALPHAS[-1]) + 1)])

# The integer orders amplified, and the one each order takes its value from
_ORDERS, _AT_ORDER = np.unique(np.maximum(2, np.ceil(ALPHAS)).astype(int), return_inverse=True)


def _amplified_at_integer(eps: np.ndarray, gamma: float, alpha: int) -> float:
    """Subsampled RDP bound at an integer order ``alpha >= 2``.

    eps'(alpha) = log(1 + gamma^2 C(alpha,2) min{4(e^{eps(2)}-1), 2 e^{eps(2)}}
                      + sum_{j=3}^{alpha} 2 gamma^j C(alpha,j) e^{(j-1) eps(j)})
                  / (alpha - 1)

    evaluated in log space so that orders up to 256 cannot overflow (a term
    past the float range is inf); ``eps(j)``'s linear interpolation bounds a convex eps from above.
    """
    log_gamma = math.log(gamma)
    eps2 = float(np.interp(2.0, ALPHAS, eps))
    # min{4(e^eps2 - 1), 2 e^eps2} in log space; log(e^x - 1) = x + log(1 - e^-x)
    if eps2 > 0:
        log_pair = min(math.log(4.0) + eps2 + math.log(-math.expm1(-eps2)),
                       math.log(2.0) + eps2)
    else:
        log_pair = -math.inf
    lf = _LOG_FACTORIAL
    j = np.arange(3, alpha + 1)
    with np.errstate(over="ignore"):
        log_terms = (math.log(2.0) + j * log_gamma + (lf[alpha] - lf[j] - lf[alpha - j])
                     + (j - 1) * np.interp(j, ALPHAS, eps))
    log_pair_term = 2.0 * log_gamma + (lf[alpha] - lf[2] - lf[alpha - 2]) + log_pair
    return logsumexp(np.concatenate(([0.0, log_pair_term], log_terms))) / (alpha - 1)


def amplify_by_subsampling(eps: np.ndarray, gamma: float) -> np.ndarray:
    """Privacy amplification from sampling a ``gamma`` fraction of clients
    without replacement.

    ``gamma = 1`` returns the curve unchanged.  Non-integer orders take
    the value at the next higher integer: the true curve is
    non-decreasing in the order, so rounding up is the sound direction
    (rounding down could understate the divergence at the queried order).
    Orders in (1, 2) take the value at 2.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if gamma == 1.0:
        return eps
    return np.array([_amplified_at_integer(eps, gamma, int(a)) for a in _ORDERS])[_AT_ORDER]


def compose(eps: np.ndarray, rounds: int) -> np.ndarray:
    """Additive composition of ``rounds`` identical mechanisms; zero rounds
    spend nothing, even at orders where ``eps`` is inf."""
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return np.zeros_like(eps)
    with np.errstate(over="ignore"):
        return eps * rounds


def to_dp(eps: np.ndarray, delta: float) -> tuple[float, float]:
    """Best ``(epsilon, alpha*)`` at failure probability ``delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    candidates = eps - math.log(delta) / (ALPHAS - 1.0)  # 1 / delta overflows at a subnormal delta
    i = int(np.argmin(candidates))
    return float(candidates[i]), float(ALPHAS[i])


@dataclass
class AccountantState:
    """Ledger for a run with fixed per-round parameters."""

    sigma: float
    sensitivity: float
    gamma: float

    def __post_init__(self):
        # Subsampling cannot cost privacy, but the amplification bound can
        # exceed the unamplified curve (near gamma = 1), so the ledger takes
        # the smaller of the two at each order.
        base = base_curve(self.sigma, self.sensitivity)
        self.per_round = np.minimum(amplify_by_subsampling(base, self.gamma), base)

    def epsilon(self, delta: float, rounds: int) -> tuple[float, float]:
        """Spent ``(epsilon, alpha*)`` after ``rounds`` rounds; nothing is
        spent before the first, at no optimal order: ``(0.0, inf)``."""
        if rounds == 0:
            return 0.0, math.inf
        return to_dp(compose(self.per_round, rounds), delta)
