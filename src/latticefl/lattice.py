"""Quantization lattice and centered modular wrap.

Every protocol value lives on the lattice ``step * Z`` with
``step = 2 * g_max / (k - 1)``.  Scalars are plain Python ints counting
lattice steps; vectors are int64 numpy arrays, so all modular arithmetic
is exact.

Quantized updates, noise shares, masks and wire payloads all count the
same lattice steps; only the modulus of the wrap differs (the coarse
group of size ``q`` here, the wire group in :mod:`latticefl.secagg`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# int64 accumulators: sums must stay strictly below 2**63.
_ACCUMULATOR_LIMIT = 1 << 62


@dataclass(frozen=True)
class LatticeSpec:
    """The discrete support of quantized updates and noise.

    g_max:
        Symmetric coordinate bound; the quantizer grid spans
        ``[-g_max, g_max]``.
    k:
        Number of quantization levels.  Must be odd so that the level
        grid ``-g_max + r * step`` consists of integer lattice steps;
        for even ``k`` the levels would sit half a step off the lattice
        and could not be carried as integers.
    q:
        Odd modulus of the coarse cyclic group (``wrap_centered(z, q)``
        maps onto ``{z : |z| <= (q - 1) / 2}``).
    """

    g_max: float
    k: int
    q: int

    def __post_init__(self):
        if self.g_max <= 0:
            raise ValueError(f"g_max must be positive, got {self.g_max}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.k % 2 == 0:
            raise ValueError(
                f"k must be odd so quantizer levels are lattice points, got {self.k}"
            )
        if self.q < 1 or self.q % 2 == 0:
            raise ValueError(f"q must be a positive odd integer, got {self.q}")

    @property
    def step(self) -> float:
        """Lattice spacing ``2 * g_max / (k - 1)``."""
        return 2.0 * self.g_max / (self.k - 1)

    @property
    def half_levels(self) -> int:
        """Largest quantizer level magnitude in lattice steps, ``(k-1)/2``."""
        return (self.k - 1) // 2

    def sigma_units(self, sigma: float) -> float:
        """Convert a real-valued noise scale to lattice-step units."""
        return sigma / self.step


def ensure_accumulator_headroom(count: int, modulus: int) -> None:
    """Reject configurations whose integer sums could overflow int64.

    ``count`` values wrapped to magnitude ``< modulus`` are summed before
    re-wrapping; their total must stay below the int64 accumulator limit
    (with a factor-two margin for intermediates).
    """
    if count * modulus >= _ACCUMULATOR_LIMIT:
        raise ConfigError(
            f"accumulating {count} values mod {modulus} could overflow int64; "
            "reduce q, the participant count, or the quantization level"
        )


def wrap_centered(z, modulus: int):
    """Map integers onto the centered residues ``[-(m-1)/2, (m-1)/2]``.

    Uses the non-negative remainder, so the result is total and
    sign-stable for negative inputs.  ``modulus`` must be odd.  Accepts a
    Python int or an integer ndarray and returns the same kind.
    """
    half = (modulus - 1) // 2
    if isinstance(z, np.ndarray):
        return (z + half) % modulus - half
    return (int(z) + half) % modulus - half
