"""Client-side update compression: L2 clip, seeded random rotation, and
unbiased stochastic quantization onto the lattice.

The rotation is the randomized Hadamard transform
``R = H diag(xi) / sqrt(d_pad)`` with ``xi`` a seed-derived sign vector:
orthonormal, O(d log d), and reproducible by the server from the shared
seed alone.  Rotating flattens coordinate magnitudes, which is what lets
the quantizer run with a small clamp bound ``g_max``.

Every operation acts along the last axis, so a round passes its whole
``(m, d)`` stack of client updates at once; a single vector is the
one-row case.  Each output row equals the one-row call on that row bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .lattice import LatticeSpec


def padded_dim(d: int) -> int:
    """Smallest power of two >= d (the Hadamard transform length)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 1 << (d - 1).bit_length()


@dataclass(frozen=True)
class RotationSeed:
    """Shared seed and padded length defining one rotation matrix."""

    seed: int
    d_pad: int

    def __post_init__(self):
        if self.d_pad < 1 or self.d_pad & (self.d_pad - 1):
            raise ValueError(f"d_pad must be a power of two, got {self.d_pad}")

    def signs(self) -> np.ndarray:
        """The ``+-1`` diagonal ``xi``; built on first use, then shared read-only."""
        signs = self.__dict__.get("_signs")
        if signs is None:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))
            signs = rng.integers(0, 2, size=self.d_pad).astype(float) * 2.0 - 1.0
            signs.flags.writeable = False
            object.__setattr__(self, "_signs", signs)  # frozen: fields stay (seed, d_pad)
        return signs


def fwht(v: np.ndarray) -> np.ndarray:
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


def clip(g: np.ndarray, clip_bound: float) -> np.ndarray:
    """Project each row onto the L2 ball of radius ``clip_bound``.

    Rows already inside the ball are returned unchanged (bit-exact).
    Raises NonFiniteInput on a NaN or infinite bound, which would return
    the update unclipped and void the sensitivity bound.
    """
    if not math.isfinite(clip_bound):
        raise NonFiniteInput(f"clip bound must be finite, got {clip_bound}")
    if clip_bound <= 0:
        raise ValueError(f"clip bound must be positive, got {clip_bound}")
    g = np.asarray(g, dtype=float)
    # Each row's dot product with itself, as np.linalg.norm(row) computes
    # it; norm(..., axis=-1) sums in another order and can differ in the
    # last bit.
    with np.errstate(over="ignore"):
        norms = np.sqrt((g[..., None, :] @ g[..., :, None])[..., 0, 0])
        scale = np.maximum(1.0, norms / clip_bound)
    out = g / scale[..., None]
    # A finite row too long for norm / clip_bound to be a finite double
    # lies far outside the ball; its direction comes from the row divided
    # by its largest entry, whose norm is between 1 and sqrt(d).
    big = np.isinf(scale)
    if big.any():
        big &= np.isfinite(g).all(axis=-1)
        unit = g[big] / np.abs(g[big]).max(axis=-1, keepdims=True)
        out[big] = unit * (clip_bound / np.sqrt(np.sum(unit * unit, axis=-1, keepdims=True)))
    return out


def rotate(g: np.ndarray, rs: RotationSeed) -> np.ndarray:
    """Zero-pad each row to ``rs.d_pad`` and apply ``H diag(xi) / sqrt(d_pad)``."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] > rs.d_pad:
        raise ValueError(f"vector of length {g.shape[-1]} exceeds d_pad={rs.d_pad}")
    padded = np.zeros(g.shape[:-1] + (rs.d_pad,))
    padded[..., : g.shape[-1]] = g
    return fwht(rs.signs() * padded) / math.sqrt(rs.d_pad)


def unrotate(v: np.ndarray, rs: RotationSeed, d: int | None = None) -> np.ndarray:
    """Inverse rotation of each row; keeps the first ``d`` coordinates when given."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != rs.d_pad:
        raise ValueError(f"expected length {rs.d_pad}, got {v.shape[-1]}")
    out = rs.signs() * fwht(v) / math.sqrt(rs.d_pad)
    return out if d is None else out[..., :d]


def quantize(v: np.ndarray, spec: LatticeSpec, rng) -> np.ndarray:
    """Stochastically round each coordinate to the level grid
    ``-g_max + r * step``, unbiased in expectation.

    ``rng`` is one Generator for a vector, or a sequence of Generators
    for an ``(m, d)`` stack: row ``r`` draws its uniforms from ``rng[r]``,
    so each client's quantizer randomness is its own stream.

    Coordinates are first clamped to ``[-g_max, g_max]``; the rotation's
    concentration bound makes the clamp a measure-delta event when
    ``g_max`` is chosen per :func:`default_g_max`.  Returns lattice-step
    integers in ``[-(k-1)/2, (k-1)/2]``.  Raises NonFiniteInput on a NaN or
    infinite coordinate, whose integer cast would be garbage.
    """
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    rngs = [rng] if v.ndim == 1 else list(rng)
    if v.ndim > 2 or len(rngs) != len(rows):
        raise ValueError(f"need one generator per row, got {len(rngs)} for shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("quantizer input has NaN or infinite coordinates")
    uniforms = np.empty(rows.shape)
    for r, row_rng in enumerate(rngs):
        row_rng.random(out=uniforms[r])
    v = np.clip(v, -spec.g_max, spec.g_max)
    step = spec.step
    low = np.floor((v + spec.g_max) / step).astype(np.int64)
    np.clip(low, 0, spec.k - 2, out=low)
    frac = (v - (low * step - spec.g_max)) / step
    level = low + (uniforms.reshape(v.shape) < frac)
    return level.astype(np.int64) - spec.half_levels


def sensitivity(clip_bound: float, d: int, k: int) -> float:
    """L2 sensitivity of one clipped-and-quantized update.

    Quantization can push a vector of norm ``clip_bound`` outward by at
    most ``sqrt(d) * clip_bound / (k - 1)``, so swapping one client moves
    the sum by at most twice the enlarged radius.  Equals
    ``4 * clip_bound`` at ``k = sqrt(d) + 1``.
    """
    if not math.isfinite(clip_bound):
        raise NonFiniteInput(f"clip bound must be finite, got {clip_bound}")
    if clip_bound <= 0:
        raise ValueError(f"clip bound must be positive, got {clip_bound}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 2.0 * (clip_bound + math.sqrt(d) * clip_bound / (k - 1))


def default_g_max(clip_bound: float, n: int, d_pad: int, delta_rot: float = 1e-3) -> float:
    """Clamp bound ``2 sqrt(log(2 n d / delta)) * clip_bound / sqrt(d)``.

    With this choice the probability that any rotated coordinate of any
    of ``n`` unit-norm updates exceeds the bound is at most ``delta_rot``.
    """
    if not 0.0 < delta_rot < 1.0:
        raise ValueError(f"delta_rot must be in (0, 1), got {delta_rot}")
    return 2.0 * math.sqrt(math.log(2.0 * n * d_pad / delta_rot)) * clip_bound / math.sqrt(d_pad)
