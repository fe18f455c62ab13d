"""Simulated pairwise-mask secure aggregation on the quantization lattice.

Every value here is an integer count of lattice steps.  Each client adds
its exact integer share of one shared discrete-Gaussian draw to its
quantized row (the shares sum to the draw, so the aggregate carries one
noise sample per coordinate, never a sum of independent ones) and sends
the result in the wire group of size ``m q`` (rounded up to odd), so a
payload coordinate takes ``ceil(log2(m q + 1))`` bits.  The group leaves
about ``m (q - k) / 2`` steps of room for the draw above the largest sum
of ``m`` quantized rows; the run's plan bounds the chance that the draw
exceeds it.

Each unordered client pair derives an identical uniform mask vector from
the round seed, as in Bonawitz et al., *Practical Secure Aggregation for
Privacy-Preserving Machine Learning* (CCS 2017); the lower-id client adds
it, the higher-id client subtracts it, so masks cancel bit-exactly in the
modular sum and the server learns nothing but the total.  Key agreement,
dropout recovery, and malicious-party defenses are out of scope; the
participant set is fixed within a round.

The mask of pair ``i < j`` is ``Generator(Philox(SeedSequence([round_seed,
i, j]))).integers(-half, half + 1, size=d_pad)``.  A round does not build
its ``m (m - 1) / 2`` generators: :func:`net_masks` derives each client's
net mask in bulk (every pair key in one vectorized pass of SeedSequence's
hash, ported in :mod:`latticefl.streams`, raw Philox words from one
reused generator, and numpy's own bounded-integer reduction, or numpy
itself for a mask that meets a word the reduction rejects), and
reproduces the per-pair draws bit for bit, so payloads do not change.
The wire group stays below ``2**32``, where numpy draws from 32-bit
words.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .errors import ConfigError, OverflowSuspected
from .lattice import LatticeSpec, ensure_accumulator_headroom, wrap_centered

# Wire groups from here on would make numpy draw each mask coordinate from
# a 64-bit word, which net_masks does not port.
_WIRE_LIMIT = 1 << 32


def wire_modulus(q: int, m: int) -> int:
    """Group size (in lattice steps) carrying the masked payloads.

    The per-client coarse group of size ``q`` expands by the participant
    count ``m`` so the plaintext sum cannot wrap; the result is rounded up
    to odd so the centered wrap is symmetric.  Raises ConfigError when the
    group reaches ``2**32``, or when ``m + 1`` wire values (a
    payload plus its ``m - 1`` masks, or the server's sum) could overflow
    the int64 accumulators.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be a positive odd integer, got {q}")
    if m < 1:
        raise ValueError(f"participant count must be >= 1, got {m}")
    wide = m * q
    wire_q = wide if wide % 2 else wide + 1
    if wire_q >= _WIRE_LIMIT:
        raise ConfigError(
            f"wire group {wire_q} (participants {m} times q = {q}) must be below 2**32; "
            "reduce q or the participant count"
        )
    ensure_accumulator_headroom(m + 1, wire_q)
    return wire_q


def pair_keys(round_seed: int, ids) -> np.ndarray:
    """Philox keys of every pair of ids in the round seeded ``round_seed``.

    Row ``p`` is ``SeedSequence([round_seed, ids[a],
    ids[b]]).generate_state(2, np.uint64)`` for the ``p``-th pair ``a <
    b`` in ``np.triu_indices(len(ids), 1)`` order: the key Philox takes
    from that seed sequence (its counter starts at 0).  The entropy must
    fit SeedSequence's pool of 4 words: the seed in ``[0, 2**64)`` and
    every id in ``[0, 2**32)``.
    """
    ids = np.asarray(ids, dtype=np.uint32)  # OverflowError outside [0, 2**32)
    if not 0 <= round_seed < 1 << 64:
        raise ValueError(f"round seed must be in [0, 2**64), got {round_seed}")
    a, b = np.nonzero(np.arange(ids.size)[:, None] < np.arange(ids.size))  # np.triu_indices order
    return streams.seed_sequence_state(streams.entropy(round_seed, ids[a], ids[b]), 2).T


def _redrawn_rows(scaled: np.ndarray, wire_q: int) -> np.ndarray:
    """The rows of ``scaled`` (words times ``wire_q``) holding a word that
    numpy rejects, one whose low product half is below ``2**32 mod
    wire_q``."""
    rejected = (scaled & np.uint64(0xFFFFFFFF)) < np.uint64((1 << 32) % wire_q)
    return np.flatnonzero(rejected.any(axis=1))


def _pair_masks(philox, generator, keys: np.ndarray, d_pad: int, wire_q: int) -> np.ndarray:
    """The masks of the pairs whose Philox keys are the rows of ``keys``.

    Row ``r`` equals ``Generator(Philox(key=keys[r])).integers(-half, half
    + 1, size=d_pad)``.  numpy maps each 32-bit word ``w`` to ``(w wire_q)
    >> 32`` (Lemire's multiply-shift) and skips a word whose low product
    half is below ``2**32 mod wire_q``, taking the next word instead.  So
    each row maps its first ``d_pad`` words of the stream at once, and a
    row holding a rejected word is drawn again by ``generator``, which
    wraps ``philox``, from counter 0.
    """
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((len(keys), (d_pad + 1) // 2), dtype=np.uint64)
    for r, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        philox.state = state
        raw[r] = philox.random_raw(raw.shape[1])
    # numpy reads each 64-bit word as two 32-bit draws, low half first.
    words = raw.astype("<u8", copy=False).view("<u4")[:, :d_pad]
    scaled = np.multiply(words, np.uint64(wire_q), dtype=np.uint64)
    half = (wire_q - 1) // 2
    masks = (scaled >> np.uint64(32)).view(np.int64)
    masks -= half
    for r in _redrawn_rows(scaled, wire_q).tolist():
        state["state"]["key"] = keys[r].tolist()
        philox.state = state
        masks[r] = generator.integers(-half, half + 1, size=d_pad)
    return masks


def net_masks(round_seed: int, participants, d_pad: int, wire_q: int) -> np.ndarray:
    """Each participant's sum of its pairwise masks, derived in bulk.

    Row ``c`` is what ``participants[c]`` adds in the round seeded
    ``round_seed``: the masks of the pairs it sends minus those it
    receives (see the module docstring for a pair's mask).  Equal bit for
    bit to the per-pair draws, without a generator per pair: the keys of
    every pair come from one :func:`pair_keys` call and one reused Philox
    emits each pair's raw words (see :func:`_pair_masks`).  Extra memory
    is the key table and one sender's ``(m - 1, d_pad)`` block of masks.
    """
    if wire_q % 2 == 0 or not 0 < wire_q < _WIRE_LIMIT:
        raise ValueError(f"wire modulus must be odd and below 2**32, got {wire_q}")
    ids = sorted(participants)
    if len(set(ids)) != len(ids):
        raise ValueError("participant ids must be distinct")
    m = len(ids)
    net = np.zeros((m, d_pad), dtype=np.int64)
    if m > 1:
        keys = pair_keys(round_seed, ids)
        philox = np.random.Philox(0)
        generator = np.random.Generator(philox)
        first = 0
        for a in range(m - 1):
            last = first + m - 1 - a  # sender a's pairs are [first, last)
            block = _pair_masks(philox, generator, keys[first:last], d_pad, wire_q)
            net[a] += block.sum(axis=0)
            net[a + 1 :] -= block
            first = last
    position = {cid: a for a, cid in enumerate(ids)}
    return net[[position[cid] for cid in participants]]


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


def aggregate_round(
    quantized,
    noise_z: np.ndarray,
    participants,
    mask_seed,
    spec: LatticeSpec,
    plaintext_bound: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise, mask, wrap and aggregate one round, or a batch of unmasked
    rounds, of quantized updates.

    ``quantized`` is the ``(m, d_pad)`` matrix of lattice-step rows, row
    ``r`` belonging to ``participants[r]``.  Row ``r`` adds share ``r`` of
    the shared draw ``noise_z``, then every pairwise mask derived from
    ``mask_seed`` (``None``: unmasked), and wraps into the wire group.
    Returns the recovered mean (see :func:`server_aggregate`) and the
    ``(m, d_pad)`` payload matrix.  The recovered mean does not depend
    on the masks, which sum to exactly 0.  A batch of unmasked rounds
    stacks them on a leading axis: ``quantized`` of shape ``(rounds, m,
    d_pad)`` and ``noise_z`` of shape ``(rounds, d_pad)``; each round's
    results equal those of its own call bit for bit.
    """
    quantized = np.asarray(quantized, dtype=np.int64)
    if quantized.ndim not in (2, 3):
        raise ValueError(f"expected (m, d_pad) or (rounds, m, d_pad) rows, got shape {quantized.shape}")
    m, d_pad = quantized.shape[-2:]
    if len(participants) != m:
        raise ValueError(f"expected {m} participant ids, got {len(participants)}")
    wire_q = wire_modulus(spec.q, m)
    plain = quantized + np.moveaxis(split_integer(noise_z, m), 0, -2)
    if mask_seed is not None:
        if quantized.ndim == 3:
            raise ValueError("a batch of rounds is aggregated unmasked; mask one round per call")
        plain += net_masks(mask_seed, participants, d_pad, wire_q)
    payloads = wrap_centered(plain, wire_q)
    return server_aggregate(payloads, m, wire_q, spec, plaintext_bound), payloads


def server_aggregate(
    payloads,
    m: int,
    wire_q: int,
    spec: LatticeSpec,
    plaintext_bound: int | None = None,
) -> np.ndarray:
    """Recover the averaged aggregate from the masked payloads.

    Sums mod ``wire_q``, recenters, converts lattice steps to real values,
    and divides by ``m``.  Equals ``(sum quantized + noise) / m`` exactly
    whenever the plaintext sum stayed inside the group.  When
    ``plaintext_bound`` (lattice steps) is given, any recovered coordinate
    beyond it raises OverflowSuspected: a wrapped sum, i.e. a bug or an
    inconsistent configuration, never statistical noise at the validated
    settings.  ``payloads`` is one round's ``(m, d_pad)`` matrix or a
    ``(rounds, m, d_pad)`` batch, which gives one mean per round.
    """
    payloads = np.asarray(payloads, dtype=np.int64)  # ValueError when ragged
    if payloads.ndim not in (2, 3) or payloads.shape[-2] != m:
        raise ValueError(f"expected {m} equal-length payloads, got shape {payloads.shape}")
    ensure_accumulator_headroom(m + 1, wire_q)
    total = wrap_centered(payloads.sum(axis=-2), wire_q)
    if plaintext_bound is not None and int(np.abs(total).max(initial=0)) > plaintext_bound:
        raise OverflowSuspected(
            f"recovered coordinate magnitude {int(np.abs(total).max())} exceeds "
            f"plaintext bound {plaintext_bound}"
        )
    # Not total * step / m: the pinned output digests were made with this
    # order of float operations, and the plain form differs from it in the
    # last bit on many coordinates.
    return (total * m) * (spec.step / m) / m
