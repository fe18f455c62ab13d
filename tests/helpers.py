"""Shared oracles and reference implementations for the test suite.

These stay independent of the code paths they check: the wrap oracle is
a brute-force search, the distribution oracles are truncated sums over
the pmf, goodness-of-fit runs through scipy's chi-square, each pairwise
mask is read from its own fresh copy of the round's Philox stream after
skipping the blocks of the pairs before it, a client's round streams from
one ``default_rng`` each, the empirical MSE reference runs one trial at
a time with one generator per stream, the sampler
reference evaluates each rejection step as a fresh array, the task
shards are sliced out of a reordered copy of the data, one copy per
client, or gathered into a new array in one step, the spiral draw
stacks fresh arrays, and the logistic draw adds an ``np.outer`` term
and appends the bias column with ``np.hstack``.  A spy on
``secagg.aggregate_round`` records the wire state that transcripts do
not keep, and writes it out in the payload debug layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from latticefl import compress, secagg
from latticefl.dgauss import check_sigma_units, sample_integer_gaussian


def brute_force_wrap(z: int, modulus: int) -> int:
    """The unique centered residue congruent to z, found by search."""
    half = modulus // 2
    for y in range(-half, modulus - half):
        if (y - z) % modulus == 0:
            return y
    raise AssertionError("no residue found")


def pmf_oracle(dist, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Support [-radius, radius] and pmf values on it."""
    support = np.arange(-radius, radius + 1)
    return support, np.asarray(dist.pmf(support))


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
    return float(np.sum(dist.pmf(support)))


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
    words of ``Philox(key=round_seed)``, read by a fresh generator that
    skips the ``p`` blocks before it; the block's first ``d_pad`` 32-bit
    words, low half of each 64-bit word first, each ANDed with ``wire_q -
    1``."""
    words_per_pair = -(-d_pad // 2)
    philox = np.random.Philox(key=round_seed)
    philox.random_raw(p * words_per_pair)
    words = []
    for word in philox.random_raw(words_per_pair).tolist():
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
    shared noise draw and the ``(m, d_pad)`` payload matrix."""

    clients: tuple[int, ...]
    noise_z: np.ndarray
    payloads: np.ndarray


def record_wire(monkeypatch) -> list[WireRound]:
    """Wrap ``secagg.aggregate_round`` so that every later call appends its
    wire state to the returned list, in call order: round 1 first for a
    run of ``simulate.run_training``."""
    rounds: list[WireRound] = []
    aggregate_round = secagg.aggregate_round

    def spy(quantized, noise_z, participants, mask_seed, spec):
        mean, payloads = aggregate_round(quantized, noise_z, participants, mask_seed, spec)
        rounds.append(WireRound(tuple(participants), np.array(noise_z), payloads))
        return mean, payloads

    monkeypatch.setattr(secagg, "aggregate_round", spy)
    return rounds


def write_payload_csv(rounds: list[WireRound], path) -> None:
    """Dump the recorded payloads of rounds 1, 2, ... in the debug layout:
    columns round, client, coordinate, payload_int.  Together with the
    run's seeds this is enough to replay the aggregation and reconstruct
    the realized noise draw."""
    with open(path, "w") as fh:
        fh.write("round,client,coordinate,payload_int\n")
        for round_index, wire in enumerate(rounds, 1):
            for cid, row in zip(wire.clients, wire.payloads):
                fh.writelines(f"{round_index},{cid},{j},{int(v)}\n" for j, v in enumerate(row))


def client_rng_reference(master: int, domain: int, round_index: int, cid: int) -> np.random.Generator:
    """Client ``cid``'s generator of one round's stream ``domain``, as
    ``simulate.run_round`` seeds it."""
    return np.random.default_rng(np.random.SeedSequence([master, domain, round_index, cid]))


def empirical_mse_reference(updates, spec, clip_bound, sigma_units, trials, seed):
    """``bounds.empirical_mse`` one trial at a time: per trial, a spawned
    seed sequence, one ``default_rng`` per stream and one masked round
    through ``secagg.aggregate_round``, its masks seeded by child 0."""
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
        quantizers = [np.random.default_rng(child) for child in children[2:]]
        quantized = compress.quantize(rotated, spec, quantizers)
        agg, _ = secagg.aggregate_round(quantized, noise_z, list(range(m)), round_seed, spec)
        diff = compress.unrotate(agg, rs, d) - reference
        total_sq += float(diff @ diff)
    return total_sq / trials


def sample_integer_gaussian_reference(sigma_units: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``dgauss.sample_integer_gaussian`` as plain expressions: the same
    batches, the same ``rng`` calls in the same order, every step a new
    array."""
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
        accepted = y[rng.random(batch) < np.exp(-(dev * dev) / (2.0 * var))]
        take = min(accepted.size, size - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
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
