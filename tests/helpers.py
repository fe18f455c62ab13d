"""Shared oracles and reference implementations for the test suite.

These stay independent of the code paths they check:
- the wrap oracle is a brute-force search, and the vectorized one it
  checks is a plain ``%`` on int64;
- the b-bit payload codec packs and unpacks bit planes with numpy;
- a client's noise share is one row of a stacked ``(m, ...)`` share
  matrix;
- the discrete Gaussian's pmf and its Renyi divergence are truncated sums
  of ``exp(-z^2 / (2 sigma^2))``, and the variance and tail oracles sum
  that pmf; goodness-of-fit runs through scipy's chi-square;
- the tail's lower bracket is scipy's normal tail scaled down, and each
  of the MSE bound's two readings of its overflow terms is evaluated on
  its own, term by term;
- the subsampled RDP bound at an integer order adds its terms one at a
  time as Python floats, its log-binomials from scipy's ``gammaln``, and
  the spend after some rounds is converted order by order as Python floats;
- each pairwise mask is read from its own fresh copy of the round's
  PCG64 stream, advanced past the blocks of the pairs before it, and a
  client's net mask is the int64 sum of its pairs' masks;
- the Walsh-Hadamard transform is the plain staged loop, each stage a
  fresh sum and difference array, and the rotation pads into a zeroed
  array, multiplies by the signs and divides by ``sqrt(d_pad)`` as
  separate whole-array steps;
- a client's round streams come from one ``default_rng`` each;
- the empirical MSE reference runs one trial at a time with one generator
  per stream, and the MSE oracle takes the pipeline's exact expectation
  through scipy's Hadamard matrix and the pmf-summed variance;
- the sampler reference evaluates each rejection step as a fresh array,
  and the sampler's exact law is counted out of its own rejection step,
  one 53-bit uniform at a time by bisection;
- the task shards are sliced out of a reordered copy of the data, one
  copy per client, or gathered into a new array in one step; the spiral
  draw stacks fresh arrays, and the logistic draw adds an ``np.outer``
  term and appends the bias column with ``np.hstack``;
- local training runs one client at a time, each step a 2-D gradient
  (``X.T @ residual``, and the MLP's backpropagation with 1-D biases);
- a task's pooled loss, gradient and smoothness read every client's
  shard at once, and the convergence report checks the paper's
  stationarity bound from each round's recomputed client gradients.

A spy on ``secagg.aggregate_round`` records the wire state that
transcripts do not keep, and writes it out in the payload debug layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, signal, special, stats

from latticefl import compress, dgauss, secagg
from latticefl.accountant import ALPHAS, logsumexp
from latticefl.dgauss import DiscreteGaussian, check_sigma_units, sample_integer_gaussian
from latticefl.errors import ConfigError
from latticefl.tasks import LinearRegressionTask, SpiralMlpTask


def brute_force_wrap(z: int, modulus: int) -> int:
    """The unique centered residue congruent to z, found by search."""
    half = modulus // 2
    for y in range(-half, modulus - half):
        if (y - z) % modulus == 0:
            return y
    raise AssertionError("no residue found")


def centered(z, modulus: int) -> np.ndarray:
    """The residues of the integers ``z`` in the centered range
    ``[-(modulus // 2), (modulus - 1) // 2]``, as int64, for a modulus that
    divides ``2**64`` or integers whose int64 sum with ``modulus // 2``
    does not overflow."""
    half = modulus // 2
    return (np.asarray(z).astype(np.int64) + half) % modulus - half


def split_integer(v, m: int) -> np.ndarray:
    """Split integers into ``m`` integer shares summing exactly.

    Euclidean quotient plus one extra unit for the first ``v mod m``
    ranks (remainder taken in ``[0, m)``).  ``v`` may be a scalar or a
    vector; the result has shape ``(m,) + v.shape``.
    """
    if m < 1:
        raise ValueError(f"share count must be >= 1, got {m}")
    v = np.asarray(v, dtype=np.int64)
    base = v // m
    remainder = v - base * m
    ranks = np.arange(m, dtype=np.int64).reshape((m,) + (1,) * v.ndim)
    return base + (ranks < remainder)


def encode_payloads(payloads: np.ndarray, bits: int) -> np.ndarray:
    """Pack each payload row at ``bits`` bits a coordinate: the low
    ``bits`` bits of each uint32, least significant first, into
    ``ceil(d_pad bits / 8)`` bytes a row."""
    planes = (payloads[..., None] >> np.arange(bits, dtype=np.uint32)) & 1
    return np.packbits(planes.astype(np.uint8).reshape(*payloads.shape[:-1], -1), axis=-1, bitorder="little")


def decode_payloads(encoded: np.ndarray, bits: int, d_pad: int) -> np.ndarray:
    """The uint32 payload rows that :func:`encode_payloads` packed."""
    planes = np.unpackbits(encoded, axis=-1, count=d_pad * bits, bitorder="little")
    planes = planes.reshape(*encoded.shape[:-1], d_pad, bits).astype(np.uint32)
    return (planes << np.arange(bits, dtype=np.uint32)).sum(axis=-1, dtype=np.uint32)


def _log_normaliser(sigma_units: float) -> float:
    """log of ``sum_z exp(-z^2 / (2 sigma^2))`` over ``|z| <= 20 sigma``;
    the terms past it add less than 1e-87 of the sum."""
    radius = max(1, math.ceil(20.0 * sigma_units))
    z = np.arange(-radius, radius + 1, dtype=float)
    return math.log(np.exp(-(z * z) / (2.0 * sigma_units * sigma_units)).sum())


def pmf(dist, z):
    """Mass of the discrete Gaussian ``dist`` at the integers ``z``, in
    lattice steps."""
    z = np.asarray(z, dtype=float)
    su = dist.sigma_units
    return np.exp(-(z * z) / (2.0 * su * su) - _log_normaliser(su))


def renyi_divergence(dist, mu: int, alpha: float) -> float:
    """Order-``alpha`` Renyi divergence between ``dist`` and its shift by
    ``mu`` lattice steps: ``log sum_x p(x)^alpha p(x - mu)^(1 - alpha)``
    over ``alpha - 1``.  The summand is a Gaussian of width sigma about
    ``(1 - alpha) mu``, summed 20 sigma + 5 either side."""
    su = dist.sigma_units
    centre, radius = math.floor((1.0 - alpha) * mu), max(1, math.ceil(20.0 * su)) + 5
    x = np.arange(centre - radius, centre + radius + 1, dtype=float)
    log_terms = -(alpha * x * x + (1.0 - alpha) * (x - mu) ** 2) / (2.0 * su * su)
    return (special.logsumexp(log_terms) - _log_normaliser(su)) / (alpha - 1.0)


def subsampled_pair_divergence(sigma_units: float, shift: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(D_alpha(P || Q), D_alpha(Q || P))`` at every order of ``ALPHAS``,
    exact up to float rounding, for P = (1 - gamma) N_Z(0) + gamma
    N_Z(shift) and Q = N_Z(0), discrete Gaussians of ``sigma_units``.

    A realizable pair of neighbouring rounds has these laws: a cohort
    drawn without replacement at rate ``gamma`` from D = (x, u, ..., u) or
    D' = (u, ..., u), with x and u at opposite lattice points of one axis
    ``shift`` steps apart; the other axes are equal.  The sums run over the
    integers in log space.  The summands at order alpha are Gaussians about
    j shift, j from 1 - alpha to alpha, so the support reaches 20 sigma + 5
    past (1 - 256) shift and 256 shift.
    """
    radius, top = math.ceil(20.0 * sigma_units) + 5, int(ALPHAS[-1])
    x = np.arange((1 - top) * shift - radius, top * shift + radius + 1, dtype=float)
    log_q = -(x * x) / (2.0 * sigma_units * sigma_units)
    log_q -= special.logsumexp(log_q)
    with np.errstate(divide="ignore"):  # gamma = 1: P is the shifted law alone
        # log(p / q) = log(1 - gamma + gamma exp(((x - 0)^2 - (x - shift)^2) / (2 sigma^2)))
        log_ratio = np.logaddexp(np.log1p(-gamma), math.log(gamma) + (2.0 * x - shift) * shift / (2.0 * sigma_units**2))
    alpha = ALPHAS[:, None]
    forward = special.logsumexp(log_q + alpha * log_ratio, axis=1) / (ALPHAS - 1.0)
    backward = special.logsumexp(log_q + (1.0 - alpha) * log_ratio, axis=1) / (ALPHAS - 1.0)
    return forward, backward


def amplified_at_integer_reference(eps: np.ndarray, gamma: float, alpha: int) -> float:
    """The subsampled RDP bound of the curve ``eps`` (over ``ALPHAS``) at
    the integer order ``alpha >= 2``, in log space, one term per ``j`` in
    a Python loop: ``log 2 + j log gamma + log C(alpha, j) + (j - 1)
    eps(j)``, after the pair term ``2 log gamma + log C(alpha, 2) +
    log min{4(e^eps(2) - 1), 2 e^eps(2)}``.  A term past the float range is
    inf, as Python's float product makes it."""
    def at(order: float) -> float:
        return float(np.interp(order, ALPHAS, eps))

    def log_comb(n: int, k: int) -> float:
        return float(special.gammaln(n + 1.0)) - float(special.gammaln(k + 1.0)) - float(special.gammaln(n - k + 1.0))

    log_gamma = math.log(gamma)
    eps2 = at(2.0)
    if eps2 > 0:
        log_pair = min(math.log(4.0) + eps2 + math.log(-math.expm1(-eps2)), math.log(2.0) + eps2)
    else:
        log_pair = -math.inf
    log_terms = [0.0, 2.0 * log_gamma + log_comb(alpha, 2) + log_pair]
    for j in range(3, alpha + 1):
        log_terms.append(math.log(2.0) + j * log_gamma + log_comb(alpha, j) + (j - 1) * at(float(j)))
    return logsumexp(log_terms) / (alpha - 1)


def epsilon_reference(per_round: np.ndarray, delta: float, rounds: int) -> tuple[float, float]:
    """``(epsilon, alpha*)`` after ``rounds`` rounds of the curve ``per_round``,
    order by order as Python floats: the first order at which
    ``rounds * eps(alpha) - log(delta) / (alpha - 1)`` is least.  Nothing is
    spent before the first round, at no order: ``(0.0, inf)``."""
    if rounds == 0:
        return 0.0, math.inf
    candidates = [(float(e) * rounds - math.log(delta) / (float(a) - 1.0), float(a))
                  for e, a in zip(per_round, ALPHAS)]
    return min(candidates, key=lambda candidate: candidate[0])


def pmf_oracle(dist, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Support [-radius, radius] and pmf values on it."""
    support = np.arange(-radius, radius + 1)
    return support, pmf(dist, support)


def variance_oracle(dist, radius: int | None = None) -> float:
    """Sum z^2 pmf(z) over a generous truncation, in lattice units."""
    if radius is None:
        radius = max(5, int(np.ceil(25 * dist.sigma_units)))
    support, pm = pmf_oracle(dist, radius)
    return float(np.sum(support.astype(float) ** 2 * pm))


def tail_oracle(dist, m: int, radius: int | None = None) -> float:
    """P[X >= m] by truncated summation of the pmf."""
    if radius is None:
        radius = max(m + 5, int(np.ceil(25 * dist.sigma_units)))
    support = np.arange(m, radius + 1)
    return float(np.sum(pmf(dist, support)))


def tail_lower_bound(dist, m: int) -> float:
    """Lower bound on P[X >= m] from the continuous tail at ``m``, valid for
    ``sigma_units >= 1/sqrt(2 pi)`` and 0 below it."""
    su = dist.sigma_units
    if su < 1.0 / math.sqrt(2.0 * math.pi):
        return 0.0
    return stats.norm.sf(m / su) / (1.0 + 3.0 * math.exp(-2.0 * math.pi**2 * su * su))


def mse_bound_reading(d, n, k, q, sigma_units, gamma, g_max, *, normalize_phi: bool) -> float:
    """The MSE bound at one cell, its arguments in ``mse_bound``'s order,
    with the overflow terms' CDF arguments ``n q`` and ``n (q - k - 1)``
    divided by ``sigma_units`` (``normalize_phi``) or taken literally, each
    term a separate step, survival probabilities below 1e-300 taken as 0."""
    su = sigma_units
    scale = su if normalize_phi else 1.0

    def sf(x):
        value = 0.5 * math.erfc(x / math.sqrt(2.0))
        return 0.0 if value < 1e-300 else value

    coeff = 1.0 - sf(n * q / scale) / (1.0 + 3.0 * math.exp(-2.0 * math.pi**2 * su * su))
    main = coeff * (4.0 * d * g_max**2 / (n * (k - 1) ** 2)) * (0.25 + su * su / (gamma**2 * n**2))
    return main + sf(n * (q - k - 1) / scale) * float(q) ** 2


def gof_pvalue_discrete(samples: np.ndarray, dist, min_pmf: float = 1e-6) -> float:
    """Chi-square p-value of samples against the pmf.

    Buckets are the support points with pmf above ``min_pmf``; the test
    conditions on landing inside them (the complement holds ~1e-7 mass
    per million draws).
    """
    radius = max(2, int(np.ceil(20 * dist.sigma_units)))
    support, pm = pmf_oracle(dist, radius)
    keep = pm > min_pmf
    buckets, p = support[keep], pm[keep]
    counts = np.array([(samples == b).sum() for b in buckets])
    inside = counts.sum()
    assert inside >= 0.999 * samples.size, "unexpected mass outside the buckets"
    _, pvalue = stats.chisquare(counts, p / p.sum() * inside)
    return float(pvalue)


def gof_pvalue_uniform(residues: np.ndarray, modulus: int, n_buckets: int = 32) -> float:
    """Chi-square p-value of centered residues against the uniform law.

    Residues are grouped into contiguous ranges (expected counts derived
    from the exact number of residues per range, so uneven splits do not
    bias the statistic).
    """
    half = modulus // 2
    shifted = np.asarray(residues, dtype=np.int64).ravel() + half
    assert shifted.min() >= 0 and shifted.max() < modulus
    n_buckets = min(n_buckets, modulus)
    observed = np.bincount(shifted * n_buckets // modulus, minlength=n_buckets)
    per_bucket = np.bincount(np.arange(modulus) * n_buckets // modulus, minlength=n_buckets)
    expected = per_bucket / modulus * shifted.size
    _, pvalue = stats.chisquare(observed, expected)
    return float(pvalue)


@dataclass(frozen=True)
class PairwiseMask:
    """Uniform mask shared by one ordered client pair.

    ``values`` is added by ``sender`` and subtracted by ``receiver``, so
    the pair contributes zero to the aggregate.
    """

    sender: int
    receiver: int
    values: np.ndarray


def pair_mask(round_seed: int, p: int, d_pad: int, wire_q: int) -> np.ndarray:
    """The mask of the round's ``p``-th pair in the wire group of size
    ``wire_q``, a power of two: block ``p`` of ``ceil(d_pad / 2)`` 64-bit
    words of ``PCG64(round_seed)``, read by a fresh generator that
    ``advance`` moves past the ``p * ceil(d_pad / 2)`` words of the blocks
    before it; the block's first ``d_pad`` 32-bit words, low half of each
    64-bit word first, each ANDed with ``wire_q - 1``."""
    words_per_pair = -(-d_pad // 2)
    pcg = np.random.PCG64(round_seed)
    pcg.advance(p * words_per_pair)
    words = []
    for word in pcg.random_raw(words_per_pair).tolist():
        words += [word & 0xFFFFFFFF, word >> 32]
    return np.array(words[:d_pad], dtype=np.int64) & (wire_q - 1)


def derive_masks(round_seed: int, participants, d_pad: int, wire_q: int) -> list[PairwiseMask]:
    """All pairwise masks of a round, one per unordered pair, lower id
    sending; pair ``p`` is the ``p``-th pair of the sorted ids, taken
    sender by sender."""
    ids = sorted(participants)
    pairs = [(i, j) for a, i in enumerate(ids) for j in ids[a + 1 :]]
    return [
        PairwiseMask(sender=i, receiver=j, values=pair_mask(round_seed, p, d_pad, wire_q))
        for p, (i, j) in enumerate(pairs)
    ]


def summed_masks(round_seed: int, ids, d_pad: int, wire_q: int) -> np.ndarray:
    """Per-client sums of the per-pair masks, row r for ids[r]."""
    net = {cid: np.zeros(d_pad, dtype=np.int64) for cid in ids}
    for mask in derive_masks(round_seed, ids, d_pad, wire_q):
        net[mask.sender] += mask.values
        net[mask.receiver] -= mask.values
    return np.stack([net[cid] for cid in ids])


@dataclass(frozen=True)
class WireRound:
    """One call of ``secagg.aggregate_round``: the participants, the
    shared noise draw, the ``(m, d_pad)`` uint32 payload matrix and the
    size of the wire group its residues live in."""

    clients: tuple[int, ...]
    noise_z: np.ndarray
    payloads: np.ndarray
    wire_q: int


def record_wire(monkeypatch) -> list[WireRound]:
    """Wrap ``secagg.aggregate_round`` so that every later call appends its
    wire state to the returned list, in call order: round 1 first for a
    run of ``simulate.run_training``."""
    rounds: list[WireRound] = []
    aggregate_round = secagg.aggregate_round

    def spy(quantized, noise_z, participants, mask_seed, spec):
        mean, payloads = aggregate_round(quantized, noise_z, participants, mask_seed, spec)
        wire_q = secagg.wire_modulus(spec.q, len(participants))
        rounds.append(WireRound(tuple(participants), np.array(noise_z), payloads, wire_q))
        return mean, payloads

    monkeypatch.setattr(secagg, "aggregate_round", spy)
    return rounds


def write_payload_csv(rounds: list[WireRound], path) -> None:
    """Dump the recorded payloads of rounds 1, 2, ... in the debug layout:
    columns round, client, coordinate, payload_int, each payload recentred
    into the wire group's centered range.  Together with the run's seeds
    this is enough to replay the aggregation and reconstruct the realized
    noise draw."""
    with open(path, "w") as fh:
        fh.write("round,client,coordinate,payload_int\n")
        for round_index, wire in enumerate(rounds, 1):
            for cid, row in zip(wire.clients, centered(wire.payloads, wire.wire_q)):
                fh.writelines(f"{round_index},{cid},{j},{int(v)}\n" for j, v in enumerate(row))


def fwht_reference(v: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis
    (length a power of two)."""
    a = np.array(v, dtype=float, copy=True)
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    shape = a.shape
    h = 1
    while h < n:
        a = a.reshape(-1, n // (2 * h), 2, h)
        top = a[:, :, 0, :] + a[:, :, 1, :]
        bottom = a[:, :, 0, :] - a[:, :, 1, :]
        a[:, :, 0, :] = top
        a[:, :, 1, :] = bottom
        h *= 2
    return a.reshape(shape)


def rotate_reference(g: np.ndarray, rs: compress.RotationSeed) -> np.ndarray:
    """``compress.rotate``: the signs times the zero-padded rows, then the
    transform divided by ``sqrt(d_pad)``."""
    g = np.asarray(g, dtype=float)
    padded = np.zeros(g.shape[:-1] + (rs.d_pad,))
    padded[..., : g.shape[-1]] = g
    return fwht_reference(rs.signs() * padded) / math.sqrt(rs.d_pad)


def unrotate_reference(v: np.ndarray, rs: compress.RotationSeed, d: int) -> np.ndarray:
    """``compress.unrotate``: the signs times the transform, divided by
    ``sqrt(d_pad)``, its first ``d`` coordinates kept."""
    return (rs.signs() * fwht_reference(v) / math.sqrt(rs.d_pad))[..., :d]


def client_rng_reference(master: int, domain: int, round_index: int, cid: int) -> np.random.Generator:
    """Client ``cid``'s generator of one round's stream ``domain``, as
    ``simulate.run_round`` seeds it."""
    return np.random.default_rng(np.random.SeedSequence([master, domain, round_index, cid]))


def empirical_mse_reference(updates, spec, clip_bound, sigma_units, trials, seed):
    """``bounds.empirical_mse`` one trial at a time: per trial, a spawned
    seed sequence, one ``default_rng`` per stream and one masked round
    through ``secagg.aggregate_round``, its masks seeded by child 0; client
    ``r``'s quantizer uniforms are ``d_pad`` draws of child ``2 + r``'s."""
    updates = np.asarray(updates, dtype=float)
    m, d = updates.shape
    d_pad = compress.padded_dim(d)
    rs = compress.RotationSeed(0, d_pad)
    clipped = compress.clip(updates, clip_bound)
    reference = clipped.mean(axis=0)
    rotated = compress.rotate(clipped, rs)
    total_sq = 0.0
    for trial in range(trials):
        children = np.random.SeedSequence([seed, trial]).spawn(m + 2)
        round_seed = int(np.random.default_rng(children[0]).integers(1 << 62))
        if sigma_units > 0:
            noise_z = sample_integer_gaussian(sigma_units, np.random.default_rng(children[1]), d_pad)
        else:
            noise_z = np.zeros(d_pad, dtype=np.int64)
        uniforms = np.stack([np.random.default_rng(child).random(d_pad) for child in children[2:]])
        quantized = compress.quantize(rotated, spec, uniforms)
        agg, _ = secagg.aggregate_round(quantized, noise_z, list(range(m)), round_seed, spec)
        diff = compress.unrotate(agg, rs, d) - reference
        total_sq += float(diff @ diff)
    return total_sq / trials


def mse_oracle(updates, spec, clip_bound, sigma_units) -> float:
    """The exact expected squared error of ``bounds.empirical_mse``'s
    pipeline on ``updates`` when no rotated coordinate is clamped and no
    sum wraps: ``step^2 / m^2 (d / d_pad) (sum_ij f_ij (1 - f_ij) + d_pad
    Var(Z))``.  Client ``i``'s rotated coordinate ``j`` rounds up by one
    step with chance ``f_ij``, its fraction of a step above its level; the
    shared draw ``Z`` (none at ``sigma_units = 0``) adds ``Var(Z)`` to every
    rotated coordinate of the sum.  Every entry of the rotation is
    ``+-1/sqrt(d_pad)``, so keeping ``d`` of the ``d_pad`` unrotated outputs
    keeps that share of the rotated variance.  The clip is a division by
    ``np.linalg.norm``, and the rotation scipy's Hadamard matrix times the
    shared signs."""
    updates = np.asarray(updates, dtype=float)
    m, d = updates.shape
    d_pad = compress.padded_dim(d)
    padded = np.zeros((m, d_pad))
    padded[:, :d] = updates / np.maximum(1.0, np.linalg.norm(updates, axis=1, keepdims=True) / clip_bound)
    rotated = padded * compress.RotationSeed(0, d_pad).signs() @ linalg.hadamard(d_pad) / math.sqrt(d_pad)
    assert np.abs(rotated).max() <= spec.g_max, "a clamped coordinate adds a bias the oracle leaves out"
    position = (rotated + spec.g_max) / spec.step
    f = position - np.floor(position)
    var_z = variance_oracle(DiscreteGaussian(sigma_units * spec.step, spec)) if sigma_units > 0 else 0.0
    return spec.step**2 / m**2 * (d / d_pad) * (float(np.sum(f * (1.0 - f))) + d_pad * var_z)


_ONE = 2**53  # Generator.random returns j / 2**53 for a 53-bit integer j


def _drive(sigma_units, j1, j2, j3):
    """``dgauss._accept`` on the uniforms ``j / 2**53``: the candidates, the
    scratch row and the accept mask."""
    batch = np.stack(np.broadcast_arrays(j1, j2, j3)) * 2.0**-53
    accepted = dgauss._accept(batch, sigma_units)
    return batch[0], batch[1], accepted


def _first(pred, lo, hi):
    """Smallest ``j`` in ``[lo, hi]`` at which ``pred``, non-decreasing in
    ``j``, holds (``2**53`` where it holds nowhere).  Where ``[lo, hi]`` does
    not bracket it, bisection runs on ``[0, 2**53]`` instead."""
    lo, hi = np.clip(lo, 0, _ONE), np.clip(hi, 0, _ONE)
    wrong = ((lo > 0) & pred(np.maximum(lo - 1, 0))) | ((hi < _ONE) & ~pred(np.minimum(hi, _ONE - 1)))
    lo[wrong], hi[wrong] = 0, _ONE
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        hit = pred(mid)
        np.copyto(hi, mid, where=hit)
        np.copyto(lo, mid + 1, where=~hit)
    return lo


def implemented_law(sigma_units: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact law of ``dgauss.sample_integer_gaussian``'s draws: every
    integer its candidates reach and that integer's mass.

    Counted out of the sampler's own rejection step, ``dgauss._accept``,
    never re-typed from its formula.  A second uniform of 0 makes the
    candidate the first geometric, which is non-decreasing in its uniform
    ``j / 2**53``; bisection finds where it reaches each ``g``, and the
    counts between are the geometric's law (``2**53`` times it).  A
    candidate is the difference of two, so its law is that law's
    correlation with itself.  A candidate ``y``, made from the geometrics'
    first uniforms, is accepted exactly on the accept uniforms below the
    first rejected one, found by bisection too.  Each draw is the first
    accepted of iid candidates, so its law is the proposal times the
    accept chance, normalised, however the batches are cut.  Quantile
    and scratch-row hints narrow each bisection; a hint that does not
    bracket its answer is dropped.  Takes about 0.4 s at ``sigma_units =
    1e4``, where the candidates span about 7e5 integers.
    """
    gmax = int(_drive(sigma_units, [_ONE - 1], 0, 0)[0][0])
    g = np.arange(1, gmax + 1)
    hint = np.ceil(-np.expm1(-g / (math.floor(sigma_units) + 1)) * _ONE).astype(np.int64)
    starts = _first(lambda j: _drive(sigma_units, j, 0, 0)[0] >= g, hint - 64, hint + 64)
    starts = np.concatenate([[0], starts, [_ONE]])  # of each geometric 0..gmax, then the end
    counts = np.diff(starts)
    ys = np.arange(-gmax, gmax + 1)
    # y = g1 - g2 with g1 the first reached geometric from |y| on
    reached = np.flatnonzero(counts)
    g1 = reached[np.searchsorted(reached, np.abs(ys))]
    j1, j2 = starts[g1], starts[g1 - np.abs(ys)]
    j1, j2 = np.where(ys >= 0, j1, j2), np.where(ys >= 0, j2, j1)
    candidates, scratch, _ = _drive(sigma_units, j1, j2, 0)
    assert (candidates == ys).all()
    hint = np.ceil(scratch * _ONE).astype(np.int64)  # the scratch row holds the accept chance
    accepts = _first(lambda j: ~_drive(sigma_units, j1, j2, j)[2], hint - 1, hint + 1)
    geometric = counts / _ONE
    law = np.maximum(signal.fftconvolve(geometric, geometric[::-1]), 0.0) * (accepts / _ONE)
    return ys, law / law.sum()


def sample_integer_gaussian_reference(
    sigma_units: float, rng: np.random.Generator, size: int, batches: list | None = None
) -> np.ndarray:
    """``dgauss.sample_integer_gaussian`` as plain expressions: the same
    batches, the generator read whole batch by whole batch (first
    geometrics, second geometrics, accept uniforms), every step a new
    array.  When ``batches`` is a list, each batch appends its
    ``(candidates, used)``: ``used`` counts the candidates up to the last
    one taken, all of them when the batch leaves draws to fill."""
    check_sigma_units(sigma_units)
    t = math.floor(sigma_units) + 1
    log_p = -1.0 / t
    var = sigma_units * sigma_units
    shift = var / t
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        batch = max(64, 2 * (size - filled))
        g1 = np.floor(np.log(1.0 - rng.random(batch)) / log_p).astype(np.int64)
        g2 = np.floor(np.log(1.0 - rng.random(batch)) / log_p).astype(np.int64)
        y = g1 - g2
        dev = np.abs(y).astype(float) - shift
        accept = np.flatnonzero(rng.random(batch) < np.exp(-(dev * dev) / (2.0 * var)))
        take = min(accept.size, size - filled)
        out[filled : filled + take] = y[accept[:take]]
        filled += take
        if batches is not None:
            batches.append((batch, accept[take - 1] + 1 if filled == size else batch))
    return out


def client_shards_reference(X, y, n_clients, iid, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each client's ``(points, targets)``: IID shuffles the data and deals
    every ``n_clients``-th row to a client; non-IID sorts it by label
    (stable) and cuts it into ``n_clients`` contiguous chunks."""
    if iid:
        order = rng.permutation(len(y))
        X, y = X[order], y[order]
        return [(X[i::n_clients].copy(), y[i::n_clients].copy()) for i in range(n_clients)]
    order = np.argsort(y, kind="stable")
    X, y = X[order], y[order]
    edges = [i * len(y) // n_clients for i in range(n_clients + 1)]
    return [
        (X[edges[i] : edges[i + 1]].copy(), y[edges[i] : edges[i + 1]].copy())
        for i in range(n_clients)
    ]


def shard_gather_reference(X, y, n_clients, iid, rng) -> tuple[np.ndarray, np.ndarray]:
    """The stacked ``(n_clients, s, features)`` points and ``(n_clients, s)``
    targets gathered into new arrays by one C-contiguous client-major
    index, leaving ``X`` and ``y`` as they are."""
    if iid:
        index = rng.permutation(len(y)).reshape(-1, n_clients).T
    else:
        index = np.argsort(y, kind="stable").reshape(n_clients, -1)
    index = np.ascontiguousarray(index)
    return X[index], y[index]


def logistic_draw_reference(rng: np.random.Generator, count: int, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``count`` points of the two Gaussian blobs at ``±centers`` with a
    bias column of ones, and their labels."""
    labels = rng.integers(0, 2, size=count)
    points = rng.normal(size=(count, centers.size)) + np.outer(2 * labels - 1, centers)
    return np.hstack([points, np.ones((count, 1))]), labels.astype(float)


def spiral_draw_reference(rng: np.random.Generator, count: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """``count`` noisy points on two interleaved spirals and their labels,
    each step a fresh array."""
    labels = rng.integers(0, 2, size=count)
    t = rng.uniform(0.5, 3.0 * math.pi, size=count)
    radius = t / (3.0 * math.pi)
    angle = t + labels * math.pi
    pts = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return pts + noise * rng.normal(size=pts.shape), labels.astype(float)


def pooled(task) -> tuple[np.ndarray, np.ndarray]:
    """Every client's points and targets as one training set, client by
    client."""
    return task.points.reshape(-1, task.points.shape[-1]), task.targets.reshape(-1)


def grad_reference(task, w, X, y) -> np.ndarray:
    """One client's gradient by the 2-D formulas: ``X.T @ residual / len(y)``
    for the linear and logistic tasks, and backpropagation with 1-D biases
    for the MLP."""
    if isinstance(task, SpiralMlpTask):
        H = task.HIDDEN
        layers, at = [], 0
        for shape in [(2, H), (H,), (H, H), (H,), (H, 1), (1,)]:
            layers.append(w[at : at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
        W1, b1, W2, b2, W3, b3 = layers
        h1 = np.tanh(X @ W1 + b1)
        h2 = np.tanh(h1 @ W2 + b2)
        p = 0.5 * (1.0 + np.tanh(0.5 * (h2 @ W3 + b3).ravel()))
        dz3 = (p - y)[:, None] / len(y)
        dz2 = dz3 @ W3.T * (1.0 - h2 * h2)
        dz1 = dz2 @ W2.T * (1.0 - h1 * h1)
        grads = (X.T @ dz1, dz1.sum(axis=0), h1.T @ dz2, dz2.sum(axis=0), h2.T @ dz3, dz3.sum(axis=0))
        return np.concatenate([g.ravel() for g in grads])
    z = X @ w
    residual = z - y if isinstance(task, LinearRegressionTask) else 0.5 * (1.0 + np.tanh(0.5 * z)) - y
    return X.T @ residual / len(y)


def local_update_reference(task, w, clients, steps, learning_rate, batch, rngs) -> np.ndarray:
    """Each client's locally trained weights, one client at a time: a copy
    of ``w`` takes ``steps`` SGD steps of ``grad_reference``, on the
    client's whole shard or on a mini-batch of ``batch`` points that its
    generator in ``rngs`` draws."""
    out = []
    for rank, client in enumerate(clients):
        X, y = task.points[client], task.targets[client]
        w_client = w.copy()
        for _ in range(steps):
            if batch >= len(y):
                bx, by = X, y
            else:
                idx = rngs[rank].choice(len(y), size=batch, replace=False)
                bx, by = X[idx], y[idx]
            w_client -= learning_rate * grad_reference(task, w_client, bx, by)
        out.append(w_client)
    return np.array(out)


def loss(task, w, X, y) -> float:
    """The task's loss of weights ``w`` on the points ``X`` and targets ``y``."""
    return task._loss_of(task._outputs(w, X), y)


def full_gradient(task, w) -> np.ndarray:
    """Exact gradient of the pooled training loss."""
    return task.grad(w, *pooled(task))


def smoothness(task) -> float:
    """Largest eigenvalue of the pooled design covariance: the smoothness
    L of a linear task's loss."""
    X = pooled(task)[0]
    return float(np.linalg.eigvalsh(X.T @ X / len(X)).max())


@dataclass(frozen=True)
class ConvergenceReport:
    """Gradient-stationarity bound and the measured quantities behind it."""

    rounds: int
    sampling_dev_sq: float  # max_t ||g_t - grad F(w_t)||^2
    estimate_dev_sq: float  # max_t ||g_t - estimate_t||^2
    lambda_sq: float  # 2 * sampling_dev_sq + 2 * estimate_dev_sq
    deviation_bound: float  # max_t ||g_t - estimate_t||
    rhs: float
    grad_sq_mean: float  # mean ||grad F(w_t)||^2 over recorded rounds


def convergence_report(plan, transcripts, smoothness, grad_bound, initial_gap) -> ConvergenceReport:
    """The paper's stationarity bound along the rounds of a run of ``plan``.

    With one full-batch local step per round, a client's update is
    ``-lr * grad`` of its shard's loss, so each round's gradient estimate
    is the mean of the participants' shard gradients and the server's is
    the aggregate divided by ``-lr``.  Each round's starting weights are
    rebuilt from the initial weights plus the earlier rounds' aggregates,
    as ``simulate.run_round`` applies them, so the transcripts must run
    from round 1.  ``smoothness``, ``grad_bound`` and ``initial_gap`` are
    the bound's L, rho and rho_F.
    """
    cfg, task = plan.cfg, plan.task
    if cfg.local_steps != 1 or plan.batch < cfg.samples_per_client:
        raise ConfigError("the convergence report assumes one full-batch local step per round")
    T = len(transcripts)
    if T == 0 or [tr.round_index for tr in transcripts] != list(range(1, T + 1)):
        raise ValueError("transcripts must hold every round of the run from round 1, in order")
    w = task.init_weights()
    sample_dev_sq = est_dev_sq = dev_bound = grad_sq = 0.0
    for tr in transcripts:
        g = np.mean([task.grad(w, task.points[c], task.targets[c]) for c in tr.clients], axis=0)
        g_est = -np.asarray(tr.aggregate) / cfg.learning_rate
        full = full_gradient(task, w)
        w = w + tr.aggregate
        sample_dev_sq = max(sample_dev_sq, float(np.sum((g - full) ** 2)))
        est_dev_sq = max(est_dev_sq, float(np.sum((g - g_est) ** 2)))
        dev_bound = max(dev_bound, float(np.linalg.norm(g - g_est)))
        grad_sq += float(full @ full)
    lambda_sq = 2.0 * sample_dev_sq + 2.0 * est_dev_sq
    rhs = (
        2.0 * initial_gap * smoothness / T
        + 2.0 * math.sqrt(2.0) * math.sqrt(lambda_sq) * math.sqrt(smoothness * initial_gap) / math.sqrt(T)
        + grad_bound * dev_bound
    )
    return ConvergenceReport(T, sample_dev_sq, est_dev_sq, lambda_sq, dev_bound, rhs, grad_sq / T)
