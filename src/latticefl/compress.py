"""Client-side update compression: L2 clip, seeded random rotation, and
unbiased stochastic quantization onto the lattice.

The rotation is the randomized Hadamard transform
``R = H diag(xi) / sqrt(d_pad)`` with ``xi`` a seed-derived sign vector:
orthonormal, O(d log d), and reproducible by the server from the shared
seed alone.  Rotating flattens coordinate magnitudes, which is what lets
the quantizer run with a small clamp bound ``g_max``.  The transform
works on the stack transposed, one client per column of a ``(d_pad, m)``
buffer, so each butterfly stage adds and subtracts contiguous runs of
``h * m`` values rather than ``m * d_pad / 2h`` runs of ``h``.

Every operation acts along the last axis, so a round passes its whole
``(m, d)`` stack of client updates at once; a single vector is the
one-row case.  Each output row equals the one-row call on that row bit
for bit.  The quantizer draws no randomness of its own: callers pass its
uniforms, each client's read from that client's generator.
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


def _fwht_columns(buf: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform down the columns of the
    C-contiguous ``(d_pad, m)`` float array ``buf``, in place.

    Stage ``h`` pairs rows ``i`` and ``i + h`` within each block of ``2h``
    rows; in this layout each half of a block is one contiguous run of
    ``h * m`` values, so every ufunc call runs over whole runs.
    """
    d_pad, m = buf.shape
    scratch = np.empty(d_pad * m // 2)
    h = 1
    while h < d_pad:
        pairs = buf.reshape(d_pad // (2 * h), 2, h * m)
        x, y = pairs[:, 0], pairs[:, 1]
        total = scratch.reshape(x.shape)
        np.add(x, y, out=total)
        np.subtract(x, y, out=y)
        x[...] = total
        h *= 2


def clip(g: np.ndarray, clip_bound: float) -> np.ndarray:
    """Project each row onto the L2 ball of radius ``clip_bound``.

    Rows already inside the ball are returned unchanged (bit-exact).
    Raises NonFiniteInput on a NaN or infinite bound, which would return
    the update unclipped and void the sensitivity bound, and on a NaN or
    infinite coordinate, which has no direction to clip along.
    """
    if not math.isfinite(clip_bound):
        raise NonFiniteInput(f"clip bound must be finite, got {clip_bound}")
    if clip_bound <= 0:
        raise ValueError(f"clip bound must be positive, got {clip_bound}")
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteInput("update has NaN or infinite coordinates")
    # Each row's dot product with itself, as np.linalg.norm(row) computes
    # it; norm(..., axis=-1) sums in another order and can differ in the
    # last bit.
    with np.errstate(over="ignore"):
        norms = np.sqrt((g[..., None, :] @ g[..., :, None])[..., 0, 0])
        scale = np.maximum(1.0, norms / clip_bound)
    out = g / scale[..., None]
    # A row too long for norm / clip_bound to be a finite double lies far
    # outside the ball; its direction comes from the row divided by its
    # largest entry, whose norm is between 1 and sqrt(d).
    big = np.isinf(scale)
    if big.any():
        unit = g[big] / np.abs(g[big]).max(axis=-1, keepdims=True)
        out[big] = unit * (clip_bound / np.sqrt(np.sum(unit * unit, axis=-1, keepdims=True)))
    return out


def rotate(g: np.ndarray, rs: RotationSeed) -> np.ndarray:
    """Zero-pad each row to ``rs.d_pad`` and apply ``H diag(xi) / sqrt(d_pad)``."""
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    if d > rs.d_pad:
        raise ValueError(f"vector of length {d} exceeds d_pad={rs.d_pad}")
    rows = g.reshape(math.prod(g.shape[:-1]), d)
    signs = rs.signs()[:, None]
    buf = np.empty((rs.d_pad, rows.shape[0]))
    np.multiply(signs[:d], rows.T, out=buf[:d])
    # the padding's zeros take the signs too: -0.0 where xi is -1
    np.multiply(signs[d:], 0.0, out=buf[d:])
    _fwht_columns(buf)
    out = np.empty((rows.shape[0], rs.d_pad))
    np.divide(buf.T, math.sqrt(rs.d_pad), out=out)
    return out.reshape(g.shape[:-1] + (rs.d_pad,))


def unrotate(v: np.ndarray, rs: RotationSeed, d: int) -> np.ndarray:
    """Inverse rotation of each row, keeping its first ``d`` coordinates
    in an array of their own (``1 <= d <= rs.d_pad``)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != rs.d_pad:
        raise ValueError(f"expected length {rs.d_pad}, got {v.shape[-1]}")
    if not 1 <= d <= rs.d_pad:
        raise ValueError(f"kept length must be in [1, {rs.d_pad}], got {d}")
    rows = v.reshape(-1, rs.d_pad)
    buf = rows.T.copy()
    _fwht_columns(buf)
    out = np.empty((rows.shape[0], d))
    np.multiply(rs.signs()[:d], buf[:d].T, out=out)
    out /= math.sqrt(rs.d_pad)
    return out.reshape(v.shape[:-1] + (d,))


def quantize(v: np.ndarray, spec: LatticeSpec, uniforms: np.ndarray) -> np.ndarray:
    """Stochastically round each coordinate to the level grid
    ``-g_max + r * step``, unbiased in expectation.

    ``uniforms`` holds the rounding uniforms in ``[0, 1)``, one per output
    coordinate: its shape ends with ``v``'s, and each leading index rounds
    a copy of ``v``, so the output has the uniforms' shape.  A coordinate
    moves up a level when its uniform is below its fraction of a step.
    Raises ValueError on any other shape.

    Coordinates are first clamped to ``[-g_max, g_max]``; the rotation's
    concentration bound makes the clamp a measure-delta event when
    ``g_max`` is chosen per :func:`default_g_max`.  Returns lattice-step
    integers in ``[-(k-1)/2, (k-1)/2]``.  Raises NonFiniteInput on a NaN or
    infinite coordinate, whose integer cast would be garbage.
    """
    v = np.asarray(v, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.shape[uniforms.ndim - v.ndim :] != v.shape:
        raise ValueError(f"uniforms of shape {uniforms.shape} do not end with the input's shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("quantizer input has NaN or infinite coordinates")
    # The fraction is taken from the same grid position as the floor, so a
    # position that is an integer stays on that level for every uniform.
    position = (np.clip(v, -spec.g_max, spec.g_max) + spec.g_max) / spec.step
    low = np.floor(position).astype(np.int64)
    np.clip(low, 0, spec.k - 2, out=low)
    level = low + (uniforms < position - low)
    level -= spec.half_levels
    return level


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


DELTA_ROT = 1e-3  # chance that default_g_max clamps a rotated coordinate


def default_g_max(clip_bound: float, n: int, d_pad: int) -> float:
    """Clamp bound ``2 sqrt(log(2 n d / DELTA_ROT)) * clip_bound / sqrt(d)``.

    With this choice the probability that any rotated coordinate of any
    of ``n`` unit-norm updates exceeds the bound is at most ``DELTA_ROT``.
    """
    return 2.0 * math.sqrt(math.log(2.0 * n * d_pad / DELTA_ROT)) * clip_bound / math.sqrt(d_pad)
