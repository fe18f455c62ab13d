"""Discrete Gaussian on the lattice: exact sampling, variance and tail bounds.

The distribution puts mass proportional to ``exp(-x^2 / (2 sigma^2))`` on
each lattice point ``x``.  Internally everything is computed on the
integer lattice with the per-step scale ``sigma_units = sigma / step``:
draws take ``sigma_units``, and the class holds the variance and tail
bounds of the law at a real ``sigma`` on a lattice.

The sampler is exact: rejection from a two-sided discrete-Laplace
proposal, never a rounded continuous Gaussian (rounding would change the
distribution and void the Renyi-divergence bound the accountant relies
on).  It is exact up to its 53-bit uniforms: the implemented law's support
ends near 36.7 t (t = floor(sigma_units) + 1, the proposal's largest
geometric) or sooner, where the accept chance underflows, and its tail
masses are rounded to multiples of 2**-53.  So the ledger's Renyi bound,
proved for the ideal law, holds outside an event of mass about 1e-30:
the last point's mass, as ``tests/helpers.implemented_law`` counts it, is
3.6e-30 at sigma_units 1.53, 5.5e-25 at 0.5 and below 1e-32 from 7 up.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplerStall
from .lattice import LatticeSpec

# Candidate draws per requested sample before the sampler is declared
# stalled.  The accept rate is bounded away from zero for all sigma, so
# the cap only ever trips on an arithmetic bug.
MAX_REJECTIONS_PER_SAMPLE = 10**6

# Candidates evaluated at a time: a chunk's three float64 rows (384 KiB) stay in cache.
CHUNK = 1 << 14

# Smallest noise scale, in lattice steps, at which a continuous tail bounds
# the discrete one from below, as the MSE bound's no-overflow term needs.
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Noise scales, in lattice steps, where the draws are exact.  A geometric
# proposal floor(-t log(1 - u)), t = floor(sigma) + 1, stays below 37 t as
# 1 - u >= 2**-53; above the maximum it could pass 2**53, where float64
# stops holding every integer.  Below the minimum, the accept exponent's
# division by sigma^2 overflows (and from 2**-511, sigma^2 is subnormal).
MAX_SIGMA_UNITS = 2.0**53 / 37.0 - 1.0
MIN_SIGMA_UNITS = 2.0**-500


def check_sigma_units(sigma_units: float) -> None:
    if not MIN_SIGMA_UNITS <= sigma_units <= MAX_SIGMA_UNITS:
        raise ValueError(f"sigma_units = {sigma_units:g} is outside [2**-500, 2**53 / 37 - 1]: inexact draws")


def std_normal_sf(x: float) -> float:
    """P[N(0,1) >= x] via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _geometric(buf: np.ndarray, log_p: float) -> np.ndarray:
    """``floor(log(1 - U) / log_p)`` of the uniforms ``U`` in ``buf``, in place."""
    np.subtract(1.0, buf, out=buf)
    np.log(buf, out=buf)
    np.divide(buf, log_p, out=buf)
    return np.floor(buf, out=buf)


def _accept(batch: np.ndarray, sigma_units: float) -> np.ndarray:
    """The rejection step, in place along the last two axes of ``batch``:
    ``batch[..., 0, :]`` and ``batch[..., 1, :]`` hold the two geometrics'
    uniforms and ``batch[..., 2, :]`` the accept uniforms.  The first
    becomes the candidates and the second scratch; returns the mask of
    accepted candidates."""
    t = math.floor(sigma_units) + 1
    var = sigma_units * sigma_units
    # Two iid geometrics' difference, a two-sided discrete Laplace; exact as both are < 2**53
    _geometric(batch[..., :2, :], -1.0 / t)  # -1/t: the Laplace magnitude's geometric parameter
    y, dev, u = batch[..., 0, :], batch[..., 1, :], batch[..., 2, :]
    y -= dev
    np.abs(y, out=dev)
    dev -= var / t
    dev *= dev
    dev /= -2.0 * var  # -(dev * dev) / (2 var), to the bit
    return u < np.exp(dev, out=dev)


def _fill_rows(sigma_units: float, generators, out: np.ndarray) -> None:
    """Fill the rows of ``out``, a block, from the next ``len(out)``
    generators, each from its stream as it stands: the batch loop that
    :func:`sample_integer_gaussian` describes."""
    rows, size = out.shape
    rngs = list(itertools.islice(generators, rows))
    if len(rngs) < rows:
        raise ValueError("fewer generators than rows")
    filled, drawn = [0] * rows, [0] * rows
    # Candidates, accept exponents and uniforms of one block, each step in place.
    buf = np.empty(3 * min(CHUNK, rows * max(64, 2 * size)))
    short = list(range(rows if size else 0))  # rows of 0 draws read nothing
    while short:
        batches = [max(64, 2 * (size - filled[r])) for r in short]
        top, copies = max(batches), None
        if top > CHUNK:  # only ever in a block of one row: its ranges from copies moved by advance()
            bg, start = rngs[short[0]].bit_generator, rngs[short[0]].bit_generator.state
            copies = [np.random.Generator(copy.deepcopy(bg).advance(k * top)) for k in range(3)]
            # advance() drops a buffered 32-bit half-word, which sequential reads keep
            bg.state = {**bg.advance(3 * top).state, "has_uint32": start["has_uint32"], "uinteger": start["uinteger"]}
        for lo in range(0, top, CHUNK):
            n = min(CHUNK, top - lo)
            block = buf[: 3 * len(short) * n].reshape(len(short), 3, n)
            for uniforms, r, b in zip(block, short, batches):
                if copies:  # the next chunk of each of the three ranges
                    for stream, part in zip(copies, uniforms):
                        stream.random(out=part)
                elif b == n:  # the batch's three ranges, in stream order, in one read
                    rngs[r].random(out=uniforms)
                else:
                    for part in uniforms[:, :b]:
                        rngs[r].random(out=part)
                    uniforms[:, b:] = 0  # a shorter batch's unread tail: valid uniforms, never taken
            for y, accepted, r, b in zip(block[:, 0], _accept(block, sigma_units), short, batches):
                got = y[:b].compress(accepted[:b])
                take = min(got.size, size - filled[r])
                out[r, filled[r] : filled[r] + take] = got[:take]
                filled[r] += take
            if filled[short[0]] == size:  # a chunked row stops once full
                break
        for r, b in zip(short, batches):
            drawn[r] += b
            if drawn[r] > MAX_REJECTIONS_PER_SAMPLE * size:  # each row's own cap
                raise SamplerStall(f"accept rate collapsed at sigma={sigma_units} "
                                   f"({filled[r]}/{size} after {drawn[r]} draws)")
        short = [r for r in short if filled[r] < size]


def sample_integer_gaussian(sigma_units: float, rng, size) -> np.ndarray:
    """Draw ``size`` exact samples of the integer-lattice Gaussian.

    Rejection sampling with a discrete-Laplace proposal of integer scale
    ``t = floor(sigma) + 1``; a proposal ``y`` is accepted with
    probability ``exp(-(|y| - sigma^2/t)^2 / (2 sigma^2))``, which makes
    the output law exactly proportional to ``exp(-y^2 / (2 sigma^2))``.
    Raises ValueError outside ``[MIN_SIGMA_UNITS, MAX_SIGMA_UNITS]``.

    A batch of ``B = max(64, 2 r)`` candidates, ``r`` draws to go, reads
    words ``[0, B)`` of ``rng``'s stream for its first geometrics,
    ``[B, 2B)`` for the second and ``[2B, 3B)`` for the accept uniforms,
    and leaves ``rng`` ``3B`` words on; batches follow until ``size``
    draws are filled.  A batch above ``CHUNK`` is evaluated a chunk at a
    time, reading its three ranges from copies of the bit generator moved
    by ``advance``, which PCG64 (``default_rng``'s) counts in 64-bit words;
    one without ``advance`` raises AttributeError.

    With ``size = (rows, n)``, ``rng`` is an iterable of distinct
    Generators and row ``r`` of the ``(rows, n)`` result equals the call
    with ``n`` on the ``r``-th of them, bit for bit; fewer than ``rows``
    raise ValueError.  Rows whose first batches fit ``CHUNK`` candidates
    together make a block (one generator is a block of one row), and each
    pass of the loop reads the next batch of each row of the block still
    short and evaluates them at once.  A batch above ``CHUNK`` is only
    ever in a block of one row.  Rows of 0 draws read nothing.
    """
    check_sigma_units(sigma_units)
    one = np.ndim(size) == 0
    rows, size = (1, int(size)) if one else (int(n) for n in size)
    out = np.empty((rows, size), dtype=np.int64)
    generators = iter([rng] if one else rng)
    group = max(1, CHUNK // max(64, 2 * size))  # rows whose first batches share a block
    for lo in range(0, rows, group):
        _fill_rows(sigma_units, generators, out[lo : lo + group])
    return out[0] if one else out


@dataclass(frozen=True)
class DiscreteGaussian:
    """Symmetric discrete Gaussian ``N_L(sigma)`` on a lattice.

    ``sigma`` is in real units of the coordinate values; the support is
    ``spec.step * Z``.
    """

    sigma: float
    spec: LatticeSpec

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def sigma_units(self) -> float:
        return self.spec.sigma_units(self.sigma)

    def variance_upper_bound(self) -> float:
        """Closed-form upper bound on the variance, in real units.

        Always strictly below ``sigma^2``; for ``sigma_units^2 <= 1/3``
        the sharper exponential bound is taken as well.
        """
        su2 = self.sigma_units**2
        x = 4.0 * math.pi**2 * su2
        # x / (e^x - 1) -> 0 for large x; guard the overflow of expm1.
        correction = x / math.expm1(x) if x < 700.0 else 0.0
        bound = su2 * (1.0 - correction)
        if su2 <= 1.0 / 3.0:
            bound = min(bound, 3.0 * math.exp(-1.0 / (2.0 * su2)))
        return bound * self.spec.step**2

    def tail_bound(self, m: int) -> float:
        """Upper bound on ``P[X >= m]`` (``m`` in lattice steps): the
        continuous-Gaussian tail from ``m - 1``."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return std_normal_sf((m - 1) / self.sigma_units)
