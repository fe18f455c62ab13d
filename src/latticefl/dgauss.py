"""Discrete Gaussian on the lattice: exact sampling, variance and tail bounds.

The distribution puts mass proportional to ``exp(-x^2 / (2 sigma^2))`` on
each lattice point ``x``.  Internally everything is computed on the
integer lattice with the per-step scale ``sigma_units = sigma / step``;
the public class converts at the boundary.

The sampler is exact: rejection from a two-sided discrete-Laplace
proposal, never a rounded continuous Gaussian (rounding would change the
distribution and void the Renyi-divergence bound the accountant relies
on).  It works through each batch of candidates in cache-sized chunks,
reading the generator's stream as one pass over the whole batch would.
Many short draws, one per generator (a chunk of mse-bench trials), are
one ``(rows, n)`` call: each row still short reads its next batch from
its own generator into a block of up to a chunk, evaluated at once,
until every row is full.
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


def _fill(sigma_units: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` by the batch loop from ``rng``'s stream as it stands."""
    size, filled, drawn = out.size, 0, 0
    # Candidates, accept exponents and uniforms of one chunk, each step in place.
    buf = np.empty(3 * min(CHUNK, max(64, 2 * size)))
    while filled < size:
        batch = max(64, 2 * (size - filled))
        streams = [rng] * 3
        if batch > CHUNK:
            bg, start = rng.bit_generator, rng.bit_generator.state
            streams = [np.random.Generator(copy.deepcopy(bg).advance(k * batch)) for k in range(3)]
            # advance() drops a buffered 32-bit half-word, which sequential reads keep
            bg.state = {**bg.advance(3 * batch).state, "has_uint32": start["has_uint32"], "uinteger": start["uinteger"]}
        for lo in range(0, batch, CHUNK):
            n = min(CHUNK, batch - lo)
            chunk = buf[: 3 * n].reshape(3, n)
            for stream, row in zip(streams, chunk):
                stream.random(out=row)
            accepted = chunk[0].compress(_accept(chunk, sigma_units))
            take = min(accepted.size, size - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
            if filled == size:
                break
        drawn += batch
        if drawn > MAX_REJECTIONS_PER_SAMPLE * size:
            raise SamplerStall(
                f"accept rate collapsed at sigma={sigma_units} "
                f"({filled}/{size} after {drawn} draws)"
            )
    return out


def _fill_rows(sigma_units: float, generators, out: np.ndarray) -> None:
    """Fill the rows of ``out`` from the next ``len(out)`` generators, each
    as :func:`_fill` would from its own, in blocks of the rows still short
    until all are full.  A first batch above ``CHUNK`` comes in a block of
    one row, which :func:`_fill` draws."""
    rows, size = out.shape
    rngs = list(itertools.islice(generators, rows))
    if len(rngs) < rows:
        raise ValueError("fewer generators than rows")
    if max(64, 2 * size) > CHUNK:  # one row: the chunked loop reads it without holding 3 B floats
        _fill(sigma_units, rngs[0], out[0])
        return
    filled, drawn = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    short = np.arange(rows if size else 0)  # rows of 0 draws read nothing
    while short.size:
        need = size - filled[short]
        batch = np.maximum(64, 2 * need)
        block = np.zeros((short.size, 3, batch.max()))  # a shorter batch's unread tail: zeros, masked below
        for uniforms, r, b in zip(block, short.tolist(), batch.tolist()):
            ranges = uniforms[:, :b]  # the batch's three ranges, in stream order; one read if contiguous
            for part in [ranges] if b == block.shape[-1] else ranges:
                rngs[r].random(out=part)
        accepted = _accept(block, sigma_units) & (np.arange(block.shape[-1]) < batch[:, None])
        rank = accepted.cumsum(axis=-1)  # of each accepted candidate in its row, from 1
        keep = accepted & (rank <= need[:, None])  # each row's first accepted candidates, up to its need
        taken = short[np.nonzero(keep)[0]]  # the row of each, in row order
        out[taken, filled[taken] + rank[keep] - 1] = block[:, 0][keep]
        filled[short] += np.minimum(rank[:, -1], need)
        drawn[short] += batch
        for r in short[drawn[short] > MAX_REJECTIONS_PER_SAMPLE * size].tolist():  # each row's own cap
            raise SamplerStall(f"accept rate collapsed at sigma={sigma_units} "
                               f"({filled[r]}/{size} after {drawn[r]} draws)")
        short = short[filled[short] < size]


def sample_integer_gaussian(sigma_units: float, rng, size) -> np.ndarray:
    """Draw ``size`` exact samples of the integer-lattice Gaussian.

    Rejection sampling with a discrete-Laplace proposal of integer scale
    ``t = floor(sigma) + 1``; a proposal ``y`` is accepted with
    probability ``exp(-(|y| - sigma^2/t)^2 / (2 sigma^2))``, which makes
    the output law exactly proportional to ``exp(-y^2 / (2 sigma^2))``.
    Raises ValueError outside ``[MIN_SIGMA_UNITS, MAX_SIGMA_UNITS]``.

    A batch of ``B`` candidates reads words ``[0, B)`` of ``rng``'s stream
    for its first geometrics, ``[B, 2B)`` for the second and ``[2B, 3B)``
    for the accept uniforms, and leaves ``rng`` ``3B`` words on.  It is
    evaluated ``CHUNK`` candidates at a time, and stops once ``size`` draws
    are filled.  A batch above ``CHUNK`` reads its three ranges from copies
    of the bit generator moved by ``advance``, which PCG64 (``default_rng``'s)
    counts in 64-bit words; one without ``advance`` raises AttributeError.

    With ``size = (rows, n)``, ``rng`` is an iterable of distinct
    Generators and row ``r`` of the ``(rows, n)`` result equals the call
    with ``n`` on the ``r``-th of them, bit for bit; fewer than ``rows``
    raise ValueError.  Each row's first batch (``3 max(64, 2n)`` words)
    is read into a block of rows that holds up to ``CHUNK`` candidates,
    and each block is evaluated at once; then every row still short reads
    its next batch (``3 max(64, 2r)`` words, ``r`` draws to go) into one
    block, until all are full.  Rows of 0 draws read nothing.  A first
    batch above ``CHUNK`` makes a block of one row, as one generator's.
    """
    check_sigma_units(sigma_units)
    if np.ndim(size) == 0:
        return _fill(sigma_units, rng, np.empty(int(size), dtype=np.int64))
    rows, size = (int(n) for n in size)
    out = np.empty((rows, size), dtype=np.int64)
    generators = iter(rng)
    group = max(1, CHUNK // max(64, 2 * size))  # rows whose first batches share a block
    for lo in range(0, rows, group):
        _fill_rows(sigma_units, generators, out[lo : lo + group])
    return out


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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` exact samples in lattice steps."""
        return sample_integer_gaussian(self.sigma_units, rng, size)

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
