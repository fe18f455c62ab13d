"""The closed-form mean-estimation error bound and its empirical counterpart.

``mse_bound(d, n, k, q, sigma_units, gamma, g_max)`` takes one mse-bench
cell's values in that order: the noise scale in lattice-step units
everywhere, including inside the normal-CDF overflow terms, and ``d``
the padded dimension the pipeline actually quantizes.  The overflow
terms involve CDF arguments like ``n * q`` far in the normal tail, so
their survival probabilities are clamped to zero below 1e-300.
"""

from __future__ import annotations

import math

import numpy as np

from . import compress, secagg, streams
from .dgauss import INV_SQRT_2PI, sample_integer_gaussian, std_normal_sf
from .errors import HypothesisViolated
from .lattice import LatticeSpec


def _normal_sf(x: float) -> float:
    """1 - Phi(x), exactly 0 below the documented 1e-300 floor."""
    sf = std_normal_sf(x)
    return 0.0 if sf < 1e-300 else sf


def mse_bound(d: int, n: int, k: int, q: int, sigma_units: float, gamma: float, g_max: float) -> float:
    """Upper bound on E||estimated mean - true mean||^2 for one cell
    ``(d, n, k, q, sigma_units, gamma, g_max)`` of
    :meth:`latticefl.config.MseGrid.cells`, in that order.

    Requires ``sigma_units >= 1/sqrt(2 pi)``, and ``gamma^2 n <= 1``, where
    the noise term covers the pipeline's ``spread su^2 / n`` at most.  The
    overflow terms' CDF arguments ``n q`` and ``n (q - k - 1)`` have two
    readings: divided by the noise scale (as the discrete tail is bracketed
    by continuous tails) or taken literally.  Both vanish except at tiny
    ``q``; the bound is the larger of the two.
    """
    if min(d, n, k, q) < 1 or k < 2:
        raise ValueError("d, n, q must be >= 1 and k >= 2")
    if not 1e-150 <= gamma <= 1.0:  # gamma**2 a normal float
        raise ValueError(f"gamma must be in [1e-150, 1], got {gamma}")
    if sigma_units < 0 or g_max <= 0:
        raise ValueError("sigma_units must be >= 0 and g_max > 0")
    su = sigma_units
    if su < INV_SQRT_2PI:
        raise HypothesisViolated(
            f"sigma_units={su} below 1/sqrt(2 pi); the bound's tail bracket needs it"
        )
    if gamma**2 * n > 1.0:
        raise HypothesisViolated(f"gamma^2 n = {gamma**2 * n:g} above 1; the noise term needs it at most 1")
    spread = 4.0 * d * g_max**2 / (n * (k - 1) ** 2)
    noise = 0.25 + su * su / (gamma**2 * n**2)
    bracket = 1.0 + 3.0 * math.exp(-2.0 * math.pi**2 * su * su)
    return max(
        (1.0 - _normal_sf(n * q / scale) / bracket) * spread * noise
        + _normal_sf(n * (q - k - 1) / scale) * float(q) ** 2
        for scale in (su, 1.0)
    )


def ceil_log2(v: int) -> int:
    if v < 1:
        raise ValueError(f"need a positive integer, got {v}")
    return (v - 1).bit_length()


# Trials run in chunks of about this many bytes, so that each call's fixed
# cost is spread over many trials while a chunk's arrays stay small beside
# the process.  A trial's client rows and two shared streams each count 8 B
# per coordinate plus 128 B (a generator's seed and its hashing): 136
# trials of 10 clients at d_pad = 64, so a 100-trial mse-bench cell is one.
_CHUNK_BYTES = 1 << 20

TRIALS_LIMIT = 1 << 32  # a trial's index is one uint32 word of its seed entropy


def empirical_mse_bytes(m: int, d: int) -> int:
    """Peak bytes :func:`empirical_mse` allocates for ``m`` updates of
    dimension ``d``, counting the caller's update stack, whatever the
    trial count: 16 float64 ``(m, d_pad)`` arrays for a trial too large to
    share a chunk (in tracemalloc 12.0 at m = 1, d_pad = 2^18, and at most
    9.5 from m = 2 to 2000, d_pad = 64 to 2^17), plus ten chunks' worth of
    bytes for a chunk's arrays (under 4.2 in tracemalloc, m = 1 to 200,
    d_pad = 1 to 256)."""
    return 16 * 8 * m * compress.padded_dim(d) + 10 * _CHUNK_BYTES


def empirical_mse(
    updates: np.ndarray,
    spec: LatticeSpec,
    clip_bound: float,
    sigma_units: float,
    trials: int,
    seed: int,
) -> float:
    """Mean squared error of the masked mean-estimation pipeline.

    Runs clip -> rotate -> quantize -> noise-share -> aggregate ->
    unrotate on the fixed ``updates`` (shape ``(m, d)``) ``trials`` times
    with fresh quantizer and noise randomness, and averages the squared
    L2 error against the exact mean of the clipped updates.  The rotation
    has seed 0; ``sigma_units = 0`` disables the noise.  Trials skip the
    pairwise masks, which cancel exactly: the recovered mean, the only
    thing kept, equals the masked one bit for bit.

    Trial ``t`` draws from ``SeedSequence([seed, t]).spawn(m + 2)``: child
    1 seeds the noise (not seeded at ``sigma_units = 0``) and child
    ``2 + r`` client ``r``'s quantizer uniforms, ``d_pad`` draws, each
    through ``default_rng``; child 0 (the masks' seed once) is unused, so
    every other stream keeps its bytes.  Trials run in chunks.  A chunk
    seeds its trials' noise generators and their quantizer generators
    with one :func:`latticefl.streams.generators` call each; one sampler
    call draws its noise, a row per trial, one quantize, aggregate and
    unrotate call each round its ``(count, m, d_pad)`` uniforms against
    the one rotated stack, and one stacked row-dot takes every trial's
    squared error.  The result equals running the trials one by one.
    """
    if not 1 <= trials < TRIALS_LIMIT:
        raise ValueError(f"trials must be in [1, 2**32), got {trials}")
    updates = np.asarray(updates, dtype=float)
    m, d = updates.shape
    d_pad = compress.padded_dim(d)
    rs = compress.RotationSeed(0, d_pad)
    clipped = compress.clip(updates, clip_bound)
    reference = clipped.mean(axis=0)
    rotated = compress.rotate(clipped, rs)

    chunk = max(1, _CHUNK_BYTES // ((m + 2) * (8 * d_pad + 128)))

    total_sq = 0.0
    for first in range(0, trials, chunk):
        count = min(chunk, trials - first)
        trial = np.arange(first, first + count)
        if sigma_units > 0:  # each trial's noise generator, child 1
            noise = streams.generators(streams.entropy(seed, trial, child=1))
            noise_z = sample_integer_gaussian(sigma_units, noise, (count, d_pad))
        else:
            noise_z = np.zeros((count, d_pad), dtype=np.int64)
        # each trial's quantizers, children 2 to m + 1, trial by trial
        quantizers = streams.generators(streams.entropy(seed, trial[:, None], child=np.arange(2, m + 2)))
        uniforms = np.empty((count, m, d_pad))
        for row, rng in zip(uniforms.reshape(-1, d_pad), quantizers):
            rng.random(out=row)
        quantized = compress.quantize(rotated, spec, uniforms)
        del uniforms  # each stage's input, once the next holds its result
        agg, _ = secagg.aggregate_round(quantized, noise_z, None, spec)
        del quantized, noise_z
        diff = compress.unrotate(agg, rs, d) - reference
        # diff @ diff of each row, added trial by trial: a batched sum would round differently
        for sq in (diff[:, None, :] @ diff[:, :, None]).ravel().tolist():
            total_sq += sq
        del agg, diff  # before the next chunk draws its own
    return total_sq / trials
