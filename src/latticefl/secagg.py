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


def derive_masks(
    round_seed: int, participants, d_pad: int, wire_q: int
) -> list[PairwiseMask]:
    """All pairwise masks for a round, one per unordered pair.

    Deterministic in (round_seed, i, j): both endpoints derive the same
    vector, uniform over the centered residues mod ``wire_q``.
    """
    if wire_q % 2 == 0:
        raise ValueError(f"wire modulus must be odd, got {wire_q}")
    ids = sorted(participants)
    if len(set(ids)) != len(ids):
        raise ValueError("participant ids must be distinct")
    half = (wire_q - 1) // 2
    masks = []
    for a, i in enumerate(ids):
        for j in ids[a + 1 :]:
            rng = mask_stream(round_seed, i, j)
            values = rng.integers(-half, half + 1, size=d_pad, dtype=np.int64)
            masks.append(PairwiseMask(sender=i, receiver=j, values=values))
    return masks


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
        row = {cid: r for r, cid in enumerate(participants)}
        for mask in derive_masks(mask_seed, participants, d_pad, wire_q):
            plain[row[mask.sender]] += mask.values
            plain[row[mask.receiver]] -= mask.values
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
