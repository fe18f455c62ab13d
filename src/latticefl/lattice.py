"""Quantization lattice and centered modular wrap.

Every protocol value lives on the lattice ``step * Z`` with
``step = 2 * g_max / (k - 1)``.  Scalars are plain Python ints counting
lattice steps; vectors are int64 numpy arrays.

Quantized updates, noise shares, masks and wire payloads all count the
same lattice steps.  The package wraps them only into the wire group of
:mod:`latticefl.secagg`, a power of two that divides ``2**64``, so int64
array sums, which wrap mod ``2**64`` without a warning, still give the
exact residue in that group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        Odd bound that sizes the wire group: with ``m`` participants the
        payloads travel mod the power of two above ``m q`` (see
        :func:`latticefl.secagg.wire_modulus`).  Nothing wraps mod ``q``.
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


def wrap_centered(z, modulus: int):
    """Map integers onto the centered residues ``[-(m // 2), (m - 1) // 2]``.

    For an odd modulus that is ``|z| <= (m - 1) / 2``; for ``2**b`` it is
    the ``b``-bit two's-complement range.  Uses the non-negative
    remainder, so the result is total and sign-stable for negative
    inputs.  Accepts a Python int or an integer ndarray and returns the
    same kind; an unsigned array comes back as int64.
    """
    half = modulus // 2
    if isinstance(z, np.ndarray):
        z = (z % np.uint64(modulus)).astype(np.int64) if z.dtype.kind == "u" else z  # no wrap below 0
        return (z + half) % modulus - half
    return (int(z) + half) % modulus - half
