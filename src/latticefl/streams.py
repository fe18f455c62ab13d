"""Seed port: numpy's SeedSequence hash pool, in bulk.

A round seeds many streams at once (client generators, MSE trials), so
this module hashes many seed sequences in one vectorized pass and hands
each sequence's words to numpy's own PCG64 seeding; every generator
equals numpy's ``default_rng`` of that sequence bit for bit.  The hash's
constants, which no data moves, are two tables built at import.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hash_table(const: int, mult: int) -> np.ndarray:
    """The (xor, multiply) uint32 constants of a sequence's first 256 hashmix
    calls, a column each: ``const mult^i`` and ``const mult^(i + 1)``, mod 2**32."""
    consts = np.uint32(const) * np.cumprod(np.r_[1, np.full(256, mult)].astype(np.uint32), dtype=np.uint32)
    return np.stack([consts[:-1], consts[1:]])


# 256 calls: 64 entropy words (16, and 4 a word past the pool), or 128 state words (2 a word)
_HASH_A, _HASH_B = _hash_table(_INIT_A, _MULT_A), _hash_table(_INIT_B, _MULT_B)


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hashmix call per column of the ``(2, calls)`` table slice
    ``constants``, on ``values`` broadcast to ``calls`` rows."""
    xor, mul = constants[:, :, None]
    rows = values ^ xor
    rows *= mul
    rows ^= rows >> _XSHIFT
    return rows


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of ``hashed`` into ``pool``: overwrites both, returns ``pool``."""
    pool *= _MIX_MULT_L
    hashed *= _MIX_MULT_R
    pool -= hashed
    pool ^= pool >> _XSHIFT
    return pool


def seed_words(seed: int) -> list[int]:
    """The uint32 words SeedSequence takes from the non-negative int
    ``seed``, low word first (0 is one word)."""
    return [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]


def entropy(seed: int, *words, child=None) -> np.ndarray:
    """Entropy columns of ``SeedSequence([seed, *words])``, or of its
    spawned child ``child``, for the broadcast uint32 words (ints or
    arrays) ``words`` and ``child``: one column per sequence, as
    :func:`seed_sequence_state` takes them."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rows = [*seed_words(seed), *words]
    if child is not None:  # a child pads the entropy to the pool, then appends its spawn key
        rows += [0] * (_POOL_SIZE - len(rows)) + [child]
    out = np.empty((len(rows),) + np.broadcast_shapes(*map(np.shape, rows)), dtype=np.uint32)
    for i, row in enumerate(rows):
        row = np.asarray(row)
        if row.size and not (0 <= row.min() and row.max() <= _MASK32):
            raise OverflowError(f"entropy words must lie in [0, 2**32), got words from {row.min()} to {row.max()}")
        out[i] = row
    return out.reshape(len(rows), -1)


def seed_sequence_state(entropy, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of the SeedSequence of each
    column of the uint32 matrix ``entropy`` (see :func:`entropy`), as an
    ``(n_words, columns)`` array.  Follows ``mix_entropy`` and then
    ``generate_state`` one hashmix call at a time; a call on ``k`` rows
    takes the table's next ``k`` constants, one per row: up to 64 entropy
    words and 128 state words (more raise ValueError)."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]  # a missing word counts as 0
    # mix_entropy's calls: 4, 3 as each pool word mixes into the others, 4 a word past the pool
    pool = _hashmix(pool, _HASH_A[:, :4])
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A[:, 4 + 3 * src : 7 + 3 * src]))
    for i, word in enumerate(entropy[_POOL_SIZE:]):  # hashed into every pool word
        _mix(pool, _hashmix(word, _HASH_A[:, 16 + 4 * i : 20 + 4 * i]))
    # generate_state cycles through the pool, one hashmix call per uint32
    # word, and pairs the words little-endian into uint64 words.
    pool = pool[np.arange(2 * n_words) % _POOL_SIZE]
    state = _hashmix(pool, _HASH_B[:, : 2 * n_words]).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


class _Hashed(np.random.bit_generator.ISeedSequence):
    """A seed sequence already hashed: the four uint64 words that
    ``generate_state(4, np.uint64)`` of its SeedSequence gives, which is
    all that PCG64 asks of it."""

    def __init__(self, words):
        # a C-contiguous (4,) uint64 row, as generators() hands it: PCG64 reads it through a raw pointer
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:  # PCG64 passes the type
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def generators(entropy) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence(...))`` of each column of ``entropy``, in
    order, each a new Generator that numpy's PCG64 seeds from the
    column's hashed words."""
    for words in np.ascontiguousarray(seed_sequence_state(entropy, 4).T):
        yield np.random.Generator(np.random.PCG64(_Hashed(words)))
