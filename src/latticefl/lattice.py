"""The quantization lattice.

Every protocol value lives on the lattice ``step * Z`` with
``step = 2 * g_max / (k - 1)``.  Scalars are plain Python ints counting
lattice steps; vectors are int64 numpy arrays.  Quantized updates, noise
shares, masks and wire payloads all count the same lattice steps;
:mod:`latticefl.secagg` carries the masks and payloads as uint32 residues
of its wire group.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        # far inside the float range: 2**31 steps summed over 2**28 coordinates, squared, stay finite
        if not 1e-100 <= self.g_max <= 1e100:
            raise ValueError(f"g_max must be in [1e-100, 1e100], got {self.g_max}")
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

