"""Simulated pairwise-mask secure aggregation on the quantization lattice.

Every value here is an integer count of lattice steps.  Each client adds
its exact integer share of one shared discrete-Gaussian draw to its
quantized row (the shares sum to the draw, so the aggregate carries one
noise sample per coordinate, never a sum of independent ones) and sends
the result in the wire group of size ``2**b``, the smallest power of two
above ``m q`` (``b = ceil(log2(m q + 1))``).  A payload coordinate is its
residue in ``[0, 2**b)``, a uint32: the group divides ``2**32``, so
casting to uint32, uint32 sums that wrap mod ``2**32`` and one AND with
``2**b - 1`` give the exact residue.  The server sums the payloads so,
and recentres only the total, into ``[-2**(b-1), 2**(b-1))``.  The group
leaves at least ``m (q - k) / 2`` steps of room for the draw above the
largest sum of ``m`` quantized rows; the run's plan bounds the chance
that the draw exceeds it.  A draw that does exceed it wraps, like any sum
in the group: the server recovers the residue, a modular clip, and raises
nothing.

A client is known here only by its rank ``r`` in ``[0, m)``, row ``r``
of the round's matrices; the caller fixes the order.  Each unordered pair
of ranks derives an identical uniform mask vector from the round seed, as
in Bonawitz et al., *Practical Secure Aggregation for Privacy-Preserving
Machine Learning* (CCS 2017); the lower rank adds it, the higher rank
subtracts it, so masks cancel bit-exactly in the modular sum and the
server learns nothing but the total.  Key agreement, dropout recovery, and
malicious-party defenses are out of scope; the cohort is fixed within a
round.

A round's masks come from one ``np.random.PCG64(round_seed)`` stream
(O'Neill, *PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation*, 2014; its SeedSequence
hash gives consecutive round seeds unrelated streams), cut into
consecutive blocks of ``ceil(d_pad / 2)`` 64-bit words.  Pair ``p``, the
``p``-th pair of ranks ``a < b`` in ``np.triu_indices`` order, takes
block ``p``: its first ``d_pad`` 32-bit words (each 64-bit word read
low half first), each ANDed with ``2**b - 1``, uniform on the group.
Since ``2**b`` divides ``2**32``, senders sum and receivers subtract the
raw words as uint32, wrapping mod ``2**32``, and one AND at the end
leaves each net mask's exact residue.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .lattice import LatticeSpec

# A mask coordinate is the low b bits of one 32-bit PCG64 word, so the
# wire group is at most 2**32.
_WIRE_LIMIT = 1 << 32


def wire_modulus(q: int, m: int) -> int:
    """Group size (in lattice steps) carrying the masked payloads.

    The smallest power of two above ``m q``, so a payload coordinate is a
    ``ceil(log2(m q + 1))``-bit residue and the sum of ``m`` rows of at
    most ``q / 2`` steps each stays inside the group.
    Raises ConfigError when the group exceeds ``2**32``.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be a positive odd integer, got {q}")
    if m < 1:
        raise ValueError(f"participant count must be >= 1, got {m}")
    wire_q = 1 << (m * q).bit_length()
    if wire_q > _WIRE_LIMIT:
        raise ConfigError(
            f"wire group {wire_q} (participants {m} times q = {q}) must be at most 2**32; "
            "reduce q or the participant count"
        )
    return wire_q


def net_masks(round_seed: int, m: int, d_pad: int, wire_q: int) -> np.ndarray:
    """Every rank's sum of its pairwise masks in a cohort of ``m``,
    derived in bulk.

    Row ``r`` is what rank ``r`` adds in the round seeded
    ``round_seed``: the masks of the pairs it sends minus those it
    receives (see the module docstring for a pair's mask), as its residue
    in ``[0, wire_q)``, a uint32, for the wire group of size ``wire_q``, a
    power of two up to ``2**32``.  A sender's pairs are adjacent blocks of
    the round's stream, so each sender reads all of its masks with one
    draw; extra memory is that ``(m - 1, ceil(d_pad / 2))`` uint64 block.
    """
    if not 0 < wire_q <= _WIRE_LIMIT or wire_q & (wire_q - 1):
        raise ValueError(f"wire modulus must be a power of two up to 2**32, got {wire_q}")
    if not 0 <= round_seed < 1 << 64:  # PCG64 itself takes any seed >= 0
        raise ValueError(f"round seed must be in [0, 2**64), got {round_seed}")
    net = np.zeros((m, d_pad), dtype=np.uint32)
    pcg = np.random.PCG64(round_seed)
    for a in range(m - 1):
        block = pcg.random_raw((m - 1 - a, (d_pad + 1) // 2)).astype("<u8", copy=False).view("<u4")[:, :d_pad]
        net[a] += block.sum(axis=0, dtype=np.uint32)
        net[a + 1 :] -= block
        del block  # so the next sender's draw does not sit beside this one
    net &= np.uint32(wire_q - 1)
    return net


def aggregate_round(quantized, noise_z: np.ndarray, mask_seed, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Noise, mask, wrap and aggregate one round, or a batch of unmasked
    rounds, of quantized updates.

    ``quantized`` is the ``(m, d_pad)`` matrix of lattice-step rows, row
    ``r`` belonging to rank ``r``.  Row ``r`` adds its exact share of the
    shared draw ``noise_z``, of shape ``(d_pad,)``: the floor
    ``noise_z // m``, plus one where ``r < noise_z mod m`` (remainder in
    ``[0, m)``), so the ``m`` shares sum to the draw.  Then every pairwise
    mask derived from ``mask_seed`` (``None``: unmasked), and wraps into
    the wire group.  Returns the recovered mean (see
    :func:`server_aggregate`) and the ``(m, d_pad)`` uint32 payload matrix
    of residues in ``[0, wire_modulus(spec.q, m))``.  The recovered mean
    does not depend on the masks, which sum to exactly 0.  A batch of
    unmasked rounds stacks them on a leading axis: ``quantized`` of shape
    ``(rounds, m, d_pad)`` and ``noise_z`` of shape ``(rounds, d_pad)``;
    each round's results equal those of its own call bit for bit.
    """
    quantized = np.asarray(quantized, dtype=np.int64)
    if quantized.ndim not in (2, 3):
        raise ValueError(f"expected (m, d_pad) or (rounds, m, d_pad) rows, got shape {quantized.shape}")
    m, d_pad = quantized.shape[-2:]
    noise_z = np.asarray(noise_z, dtype=np.int64)
    if noise_z.shape != quantized.shape[:-2] + (d_pad,):
        raise ValueError(f"expected a noise draw of shape {quantized.shape[:-2] + (d_pad,)}, got {noise_z.shape}")
    wire_q = wire_modulus(spec.q, m)
    # Each cast to uint32 keeps its value mod 2**32, which the group divides.
    payloads = quantized.astype(np.uint32)
    np.add(payloads, (noise_z // m)[..., None, :], out=payloads, casting="unsafe")
    payloads += np.arange(m)[:, None] < (noise_z % m)[..., None, :]
    if mask_seed is not None:
        if quantized.ndim == 3:
            raise ValueError("a batch of rounds is aggregated unmasked; mask one round per call")
        payloads += net_masks(mask_seed, m, d_pad, wire_q)
    payloads &= np.uint32(wire_q - 1)
    return server_aggregate(payloads, spec), payloads


def server_aggregate(payloads, spec: LatticeSpec) -> np.ndarray:
    """Recover the averaged aggregate from the masked payloads.

    ``payloads`` is one round's ``(m, d_pad)`` matrix or a ``(rounds, m,
    d_pad)`` batch, which gives one mean per round; ``m`` is its second
    to last axis and the group is ``wire_modulus(spec.q, m)``.  Only each
    payload's residue in the group counts.  Sums mod the group,
    recentres, converts lattice steps to real values, and divides by
    ``m``: ``(sum quantized + noise) / m`` exactly when that sum stays
    inside the group, and its residue, a modular clip, when it does not.
    """
    payloads = np.asarray(payloads)  # ValueError when ragged
    if payloads.ndim not in (2, 3):
        raise ValueError(f"expected (m, d_pad) or (rounds, m, d_pad) payloads, got shape {payloads.shape}")
    m = payloads.shape[-2]
    wire_q = wire_modulus(spec.q, m)
    total = payloads.sum(axis=-2, dtype=np.uint32) & np.uint32(wire_q - 1)
    total = total.astype(np.int64) - (total >= wire_q // 2) * wire_q
    # Not total * step / m: the pinned output digests were made with this
    # order of float operations, and the plain form differs from it in the
    # last bit on many coordinates.
    return (total * m) * (spec.step / m) / m
