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

A pair's mask is defined by :func:`mask_stream`, a Philox generator seeded
with ``SeedSequence([round_seed, i, j])``, and :func:`derive_masks` lists
them.  A round does not build its ``m (m - 1) / 2`` generators:
:func:`net_masks` derives each client's net mask in bulk (every pair key
in one vectorized pass of SeedSequence's hash, raw Philox words from one
reused generator, and numpy's own bounded-integer reduction), and
reproduces the per-pair streams bit for bit, so payloads do not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverflowSuspected
from .lattice import LatticeSpec, ensure_accumulator_headroom, wrap_centered


def wire_modulus(q: int, m: int) -> int:
    """Group size (in lattice steps) carrying the masked payloads.

    The per-client coarse group of size ``q`` expands by the participant
    count ``m`` so the plaintext sum cannot wrap; the result is rounded up
    to odd so the centered wrap is symmetric.  Raises ConfigError when
    ``m + 1`` wire values (a payload plus its ``m - 1`` masks, or the
    server's sum) could overflow the int64 accumulators.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be a positive odd integer, got {q}")
    if m < 1:
        raise ValueError(f"participant count must be >= 1, got {m}")
    wide = m * q
    wire_q = wide if wide % 2 else wide + 1
    ensure_accumulator_headroom(m + 1, wire_q)
    return wire_q


@dataclass(frozen=True)
class PairwiseMask:
    """Uniform mask shared by one ordered client pair.

    ``values`` is added by ``sender`` and subtracted by ``receiver``, so
    the pair contributes zero to the aggregate.
    """

    sender: int
    receiver: int
    values: np.ndarray


def mask_stream(round_seed: int, i: int, j: int) -> np.random.Generator:
    """Counter-based generator both endpoints of a pair can reproduce."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([round_seed, i, j])))


def _pair_mask(round_seed: int, i: int, j: int, d_pad: int, half: int) -> np.ndarray:
    """The mask of pair ``(i, j)``: ``d_pad`` uniform draws from ``[-half, half]``."""
    return mask_stream(round_seed, i, j).integers(-half, half + 1, size=d_pad, dtype=np.int64)


def _sorted_ids(participants, wire_q: int) -> list:
    if wire_q % 2 == 0:
        raise ValueError(f"wire modulus must be odd, got {wire_q}")
    ids = sorted(participants)
    if len(set(ids)) != len(ids):
        raise ValueError("participant ids must be distinct")
    return ids


def derive_masks(
    round_seed: int, participants, d_pad: int, wire_q: int
) -> list[PairwiseMask]:
    """All pairwise masks for a round, one per unordered pair.

    Deterministic in (round_seed, i, j): both endpoints derive the same
    vector, uniform over the centered residues mod ``wire_q``.  This is
    the per-pair definition that :func:`net_masks` reproduces in bulk.
    """
    ids = _sorted_ids(participants, wire_q)
    half = (wire_q - 1) // 2
    return [
        PairwiseMask(sender=i, receiver=j, values=_pair_mask(round_seed, i, j, d_pad, half))
        for a, i in enumerate(ids)
        for j in ids[a + 1 :]
    ]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiply) constants of ``count`` successive hashmix calls.

    The constant advances by ``mult`` on every call whatever the data, so
    the sequence is fixed.
    """
    out, const = [], init
    for _ in range(count):
        out.append((const, const * mult & _MASK32))
        const = out[-1][1]
    return out


def _columns(consts) -> tuple[np.ndarray, np.ndarray]:
    xor, mul = zip(*consts)
    return np.array(xor, dtype=np.uint32)[:, None], np.array(mul, dtype=np.uint32)[:, None]


def _mixing_columns() -> list[tuple[np.ndarray, np.ndarray]]:
    """Constants of SeedSequence's 12 mixing hashmix calls, by source word.

    Source word ``s`` is hashed once for each other word ``d``, in order
    of ``d``; row ``s`` of table ``s`` is a placeholder whose result is
    discarded.
    """
    calls = iter(_POOL_CONSTS[_POOL_SIZE:])
    return [
        _columns([(0, 0) if d == s else next(calls) for d in range(_POOL_SIZE)])
        for s in range(_POOL_SIZE)
    ]


# SeedSequence fills its pool with 4 hashmix calls and mixes it with 12.
_POOL_CONSTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_FILL = _columns(_POOL_CONSTS[:_POOL_SIZE])
_MIX = _mixing_columns()
_STATE = _columns(_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE))


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _uint32_words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative integer."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def pair_keys(round_seed: int, ids) -> np.ndarray:
    """Philox keys of ``mask_stream(round_seed, i, j)`` for every pair of ids.

    Entry ``[a, b]`` is ``SeedSequence([round_seed, ids[a],
    ids[b]]).generate_state(2, np.uint64)``, the key Philox takes from
    that seed sequence (its counter starts at 0).  A vectorized port of
    SeedSequence's uint32 hash pool, valid while the entropy fits the pool
    of 4 words: ``0 <= round_seed < 2**64`` and every id in ``[0, 2**32)``.
    """
    ids = np.asarray(ids, dtype=np.uint32)  # OverflowError outside [0, 2**32)
    words = _uint32_words(round_seed)
    if round_seed < 0 or len(words) > _POOL_SIZE - 2:  # two words are the ids
        raise ValueError(f"round seed must be in [0, 2**64), got {round_seed}")
    m = ids.size
    entropy = np.zeros((_POOL_SIZE, m, m), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[len(words)] = ids[:, None]
    entropy[len(words) + 1] = ids

    pool = _hashmix(entropy.reshape(_POOL_SIZE, -1), *_FILL)
    for src, consts in enumerate(_MIX):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(pool[src], *consts)
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed

    state = _hashmix(pool, *_STATE).astype(np.uint64)  # generate_state(4, np.uint32)
    keys = state[0::2] | state[1::2] << np.uint64(32)  # little-endian pairs of words
    return np.moveaxis(keys.reshape(2, m, m), 0, -1)


def net_masks(round_seed: int, participants, d_pad: int, wire_q: int) -> np.ndarray:
    """Each participant's sum of its pairwise masks, derived in bulk.

    Row ``r`` is what ``participants[r]`` adds: the masks of the pairs it
    sends minus those it receives.  Equal bit for bit to summing
    :func:`derive_masks`, without a generator per pair: the pair keys
    come from :func:`pair_keys`, one reused Philox emits each pair's raw
    words, and numpy's bounded-integer method (Lemire's multiply-shift)
    maps 32-bit words to ``[-half, half]``.  A pair whose words hit that
    method's rejection zone, every pair when ``wire_q > 2**32`` (numpy
    then draws 64-bit words), and every pair when a seed or id is outside
    :func:`pair_keys`' range, is drawn with :func:`mask_stream` itself.
    Extra memory is the ``(m, m)`` key table and one sender's
    ``(m - 1, d_pad)`` block of masks.
    """
    ids = _sorted_ids(participants, wire_q)
    m = len(ids)
    half = (wire_q - 1) // 2
    net = np.zeros((m, d_pad), dtype=np.int64)
    bulk = (m > 1 and wire_q < 1 << 32 and 0 <= round_seed < 1 << 64
            and 0 <= ids[0] and ids[-1] < 1 << 32)
    if bulk:
        keys = pair_keys(round_seed, ids)
        threshold = (1 << 32) % wire_q  # numpy's (2**32 - wire_q) % wire_q
        philox = np.random.Philox(0)
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        n_raw = (d_pad + 1) // 2
    for a in range(m - 1):
        receivers = ids[a + 1 :]
        if bulk:
            raw = np.empty((len(receivers), n_raw), dtype=np.uint64)
            for r, key in enumerate(keys[a, a + 1 :].tolist()):
                state["state"]["key"] = key
                philox.state = state
                raw[r] = philox.random_raw(n_raw)
            # numpy reads each 64-bit word as two 32-bit draws, low half first.
            words = raw.astype("<u8", copy=False).view("<u4")[:, :d_pad]
            scaled = np.multiply(words, np.uint64(wire_q), dtype=np.uint64)
            rejected = np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1))
            block = (scaled >> np.uint64(32)).view(np.int64)
            block -= half
            for r in rejected:
                block[r] = _pair_mask(round_seed, ids[a], receivers[r], d_pad, half)
        else:
            block = np.stack([_pair_mask(round_seed, ids[a], j, d_pad, half) for j in receivers])
        net[a] += block.sum(axis=0)
        net[a + 1 :] -= block
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
    mask_seed: int | None,
    spec: LatticeSpec,
    plaintext_bound: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise, mask, wrap and aggregate one round of quantized updates.

    ``quantized`` is the ``(m, d_pad)`` matrix of lattice-step rows, row
    ``r`` belonging to ``participants[r]``.  Row ``r`` adds share ``r`` of
    the shared draw ``noise_z``, then every pairwise mask derived from
    ``mask_seed`` (``None``: unmasked), and wraps into the wire group.
    Returns the recovered mean (see :func:`server_aggregate`) and the
    ``(m, d_pad)`` payload matrix.  The recovered mean does not depend
    on the masks.
    """
    quantized = np.asarray(quantized, dtype=np.int64)
    m, d_pad = quantized.shape
    if len(participants) != m:
        raise ValueError(f"expected {m} participant ids, got {len(participants)}")
    wire_q = wire_modulus(spec.q, m)
    plain = quantized + split_integer(noise_z, m)
    if mask_seed is not None:
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
    settings.
    """
    payloads = np.asarray(payloads, dtype=np.int64)  # ValueError when ragged
    if payloads.ndim != 2 or payloads.shape[0] != m:
        raise ValueError(f"expected {m} equal-length payloads, got shape {payloads.shape}")
    ensure_accumulator_headroom(m + 1, wire_q)
    total = wrap_centered(payloads.sum(axis=0), wire_q)
    if plaintext_bound is not None and int(np.abs(total).max(initial=0)) > plaintext_bound:
        raise OverflowSuspected(
            f"recovered coordinate magnitude {int(np.abs(total).max())} exceeds "
            f"plaintext bound {plaintext_bound}"
        )
    # Not total * step / m: the pinned output digests were made with this
    # order of float operations, and the plain form differs from it in the
    # last bit on many coordinates.
    return (total * m) * (spec.step / m) / m
