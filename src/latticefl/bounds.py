"""Closed-form error and cost bounds, and their empirical counterparts.

The mean-squared-error bound takes the noise scale in lattice-step units
(``sigma_units``) everywhere, including inside the normal-CDF overflow
terms; the dimension field is the padded dimension the pipeline actually
quantizes.  The overflow terms involve CDF arguments like ``n * q`` that
underflow double precision, so survival probabilities are computed in
log space and clamped to zero below 1e-300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from . import compress, secagg
from .dgauss import DiscreteGaussian
from .errors import HypothesisViolated
from .lattice import LatticeSpec

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_FLOOR = math.log(1e-300)

# Fixed per-client framing overhead (seed and client id), excluded from
# bound comparisons.
HEADER_BITS = 128


def _normal_sf(x: float) -> float:
    """1 - Phi(x), exactly 0 below the documented 1e-300 floor."""
    log_sf = float(log_ndtr(-x))
    return 0.0 if log_sf < _LOG_FLOOR else math.exp(log_sf)


@dataclass(frozen=True)
class MseBoundInputs:
    """Parameters of the mean-estimation error bound.

    d: padded dimension; n: clients contributing to the round;
    sigma_units: noise scale in lattice steps; gamma: subsampling rate;
    q: coarse per-client group size.
    """

    d: int
    n: int
    k: int
    q: int
    sigma_units: float
    gamma: float
    g_max: float

    def __post_init__(self):
        if min(self.d, self.n, self.k, self.q) < 1 or self.k < 2:
            raise ValueError("d, n, q must be >= 1 and k >= 2")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.sigma_units < 0 or self.g_max <= 0:
            raise ValueError("sigma_units must be >= 0 and g_max > 0")


def mse_bound(inputs: MseBoundInputs, normalize_phi: bool = True) -> float:
    """Upper bound on E||estimated mean - true mean||^2.

    Requires ``sigma_units >= 1/sqrt(2 pi)``.  ``normalize_phi`` selects
    whether the overflow-term CDF arguments ``n q`` and ``n (q - k - 1)``
    are divided by the noise scale (the reading consistent with how the
    discrete tail is bracketed by continuous tails) or taken literally;
    both vanish except at tiny ``q``.  See :func:`mse_bound_conservative`.
    """
    su = inputs.sigma_units
    if su < _INV_SQRT_2PI:
        raise HypothesisViolated(
            f"sigma_units={su} below 1/sqrt(2 pi); the bound's tail bracket needs it"
        )
    scale = su if normalize_phi else 1.0
    sf_main = _normal_sf(inputs.n * inputs.q / scale)
    sf_overflow = _normal_sf(inputs.n * (inputs.q - inputs.k - 1) / scale)
    coeff = 1.0 - sf_main / (1.0 + 3.0 * math.exp(-2.0 * math.pi**2 * su * su))
    main = (
        coeff
        * (4.0 * inputs.d * inputs.g_max**2 / (inputs.n * (inputs.k - 1) ** 2))
        * (0.25 + su * su / (inputs.gamma**2 * inputs.n**2))
    )
    return main + sf_overflow * float(inputs.q) ** 2


def mse_bound_conservative(inputs: MseBoundInputs) -> float:
    """Larger of the two CDF-argument readings of :func:`mse_bound`."""
    return max(mse_bound(inputs, normalize_phi=True), mse_bound(inputs, normalize_phi=False))


def ceil_log2(v: int) -> int:
    if v < 1:
        raise ValueError(f"need a positive integer, got {v}")
    return (v - 1).bit_length()


def payload_bits_per_client(n_participants: int, d_pad: int, q: int) -> int:
    """Bits one client uploads per round: ``d * ceil(log2(n q + 1))``.

    The factor ``n`` inside the log is the field expansion secure
    aggregation needs so the sum of ``n`` group elements cannot wrap.
    """
    if min(n_participants, d_pad, q) < 1:
        raise ValueError("participants, dimension and q must all be >= 1")
    return d_pad * ceil_log2(n_participants * q + 1)


def payload_bytes_per_client(n_participants: int, d_pad: int, q: int) -> int:
    return -(-payload_bits_per_client(n_participants, d_pad, q) // 8)


def comm_cost(n_participants: int, d_pad: int, q: int, include_header: bool = False) -> int:
    """Total per-round upload in bits across the participants."""
    per_client = payload_bits_per_client(n_participants, d_pad, q)
    if include_header:
        per_client += HEADER_BITS
    return n_participants * per_client


def empirical_mse(
    updates: np.ndarray,
    spec: LatticeSpec,
    clip_bound: float,
    sigma_units: float,
    trials: int,
    seed: int,
    rotation_seed: int = 0,
) -> float:
    """Mean squared error of the masked mean-estimation pipeline.

    Runs clip -> rotate -> quantize -> noise-share -> mask -> aggregate
    -> unrotate on the fixed ``updates`` (shape ``(m, d)``) ``trials``
    times with fresh quantizer, noise, and mask randomness, and averages
    the squared L2 error against the exact mean of the clipped updates.
    ``sigma_units = 0`` disables the noise.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    updates = np.asarray(updates, dtype=float)
    m, d = updates.shape
    d_pad = compress.padded_dim(d)
    rs = compress.RotationSeed(rotation_seed, d_pad)
    clipped = np.stack([compress.clip(u, clip_bound) for u in updates])
    reference = clipped.mean(axis=0)
    rotated = np.stack([compress.rotate(c, rs) for c in clipped])

    dist = DiscreteGaussian(sigma_units * spec.step, spec) if sigma_units > 0 else None
    participants = list(range(m))

    total_sq = 0.0
    for trial in range(trials):
        ss = np.random.SeedSequence([seed, trial])
        children = ss.spawn(m + 2)
        round_seed = int(np.random.default_rng(children[0]).integers(1 << 62))
        if dist is not None:
            noise_z = dist.sample(np.random.default_rng(children[1]), d_pad)
        else:
            noise_z = np.zeros(d_pad, dtype=np.int64)
        quantized = np.stack([
            compress.quantize(rotated[rank], spec, np.random.default_rng(children[2 + rank]))
            for rank in range(m)
        ])
        agg, _ = secagg.aggregate_round(quantized, noise_z, participants, round_seed, spec)
        estimate = compress.unrotate(agg, rs, d)
        diff = estimate - reference
        total_sq += float(diff @ diff)
    return total_sq / trials
