"""Renyi-DP accounting across rounds.

Per-round privacy of the noised aggregate is the Gaussian-form curve
``eps(alpha) = alpha * sensitivity^2 / (2 sigma^2)``, amplified by
client subsampling at rate ``gamma``, composed additively over rounds,
and finally converted to an ``(epsilon, delta)`` statement by minimizing
``eps(alpha) + log(1/delta) / (alpha - 1)`` over a grid of orders.

All rounds are homogeneous (same sigma, sensitivity, gamma); the ledger
is therefore a single curve scaled by the round count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dgauss import logsumexp


def default_alpha_grid() -> np.ndarray:
    """Orders the accountant evaluates: 1+1e-3, 1.5, 2..64, 128, 256."""
    return np.array([1.0 + 1e-3, 1.5] + list(range(2, 65)) + [128.0, 256.0], dtype=float)


@dataclass(frozen=True)
class RdpCurve:
    """``eps(alpha)`` sampled on an increasing grid of orders > 1."""

    alphas: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "eps", np.asarray(self.eps, dtype=float))
        if self.alphas.shape != self.eps.shape:
            raise ValueError("alphas and eps must have the same length")
        if np.any(self.alphas <= 1.0):
            raise ValueError("all orders must exceed 1")
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("orders must be strictly increasing")

    def at(self, alpha: float) -> float:
        """Value at ``alpha``, linearly interpolated between grid points.

        Exact for the linear Gaussian-form curve; for convex curves the
        chord lies above the curve, so interpolation stays a valid upper
        bound.  Queries outside the grid are clamped to the end values.
        """
        return float(np.interp(alpha, self.alphas, self.eps))


def base_curve(sigma: float, sensitivity: float, alphas: np.ndarray | None = None) -> RdpCurve:
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
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = np.asarray(alphas, dtype=float)
    return RdpCurve(alphas, alphas * rate)


_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(n: int) -> float:
    """``log(n!)``, bit for bit cephes' ``lgam(n + 1)`` (scipy's ``gammaln``); above
    1e8 cephes drops the Stirling series, which rounds away there anyway."""
    x = float(n + 1)
    if x < 13.0:
        return math.log(float(math.factorial(n)))
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    else:
        series = functools.reduce(lambda acc, coeff: acc * p + coeff, _LGAM_A)
    return (x - 0.5) * math.log(x) - x + 0.91893853320467274178 + series / x  # log(sqrt(2 pi))


def _log_comb(n: int, k: int) -> float:
    return _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)


def _amplified_at_integer(curve: RdpCurve, gamma: float, alpha: int) -> float:
    """Subsampled RDP bound at an integer order ``alpha >= 2``.

    eps'(alpha) = log(1 + gamma^2 C(alpha,2) min{4(e^{eps(2)}-1), 2 e^{eps(2)}}
                      + sum_{j=3}^{alpha} 2 gamma^j C(alpha,j) e^{(j-1) eps(j)})
                  / (alpha - 1)

    evaluated in log space so that orders up to 256 cannot overflow.
    """
    log_gamma = math.log(gamma)
    eps2 = curve.at(2.0)
    # min{4(e^eps2 - 1), 2 e^eps2} in log space; log(e^x - 1) = x + log(1 - e^-x)
    if eps2 > 0:
        log_pair = min(math.log(4.0) + eps2 + math.log(-math.expm1(-eps2)),
                       math.log(2.0) + eps2)
    else:
        log_pair = -math.inf
    log_terms = [0.0, 2.0 * log_gamma + _log_comb(alpha, 2) + log_pair]
    for j in range(3, alpha + 1):
        log_terms.append(
            math.log(2.0) + j * log_gamma + _log_comb(alpha, j) + (j - 1) * curve.at(float(j))
        )
    return logsumexp(log_terms) / (alpha - 1)


def amplify_by_subsampling(curve: RdpCurve, gamma: float) -> RdpCurve:
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
        return curve
    orders = [max(2, math.ceil(a)) for a in curve.alphas]
    at_order = {a: _amplified_at_integer(curve, gamma, a) for a in set(orders)}
    eps = np.array([at_order[a] for a in orders])
    return RdpCurve(curve.alphas.copy(), eps)


def compose(curve: RdpCurve, rounds: int) -> RdpCurve:
    """Additive composition of ``rounds`` identical mechanisms."""
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    return RdpCurve(curve.alphas.copy(), curve.eps * rounds)


def to_dp(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Best ``(epsilon, alpha*)`` at failure probability ``delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    candidates = curve.eps + math.log(1.0 / delta) / (curve.alphas - 1.0)
    i = int(np.argmin(candidates))
    return float(candidates[i]), float(curve.alphas[i])


@dataclass
class AccountantState:
    """Cumulative ledger for a run with fixed per-round parameters."""

    sigma: float
    sensitivity: float
    gamma: float
    rounds_recorded: int = 0
    alphas: np.ndarray = field(default_factory=default_alpha_grid)

    def __post_init__(self):
        # Subsampling cannot cost privacy, but the amplification bound can
        # exceed the unamplified curve (near gamma = 1), so the ledger takes
        # the smaller of the two at each order.
        base = base_curve(self.sigma, self.sensitivity, self.alphas)
        amplified = amplify_by_subsampling(base, self.gamma)
        self.per_round = RdpCurve(base.alphas, np.minimum(amplified.eps, base.eps))

    @property
    def cumulative(self) -> RdpCurve:
        return compose(self.per_round, self.rounds_recorded)

    def record_round(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.rounds_recorded += count

    def epsilon(self, delta: float) -> tuple[float, float]:
        """Spent ``(epsilon, alpha*)`` after the recorded rounds; nothing is
        spent before the first, at no optimal order: ``(0.0, inf)``."""
        if self.rounds_recorded == 0:
            return 0.0, math.inf
        return to_dp(self.cumulative, delta)
