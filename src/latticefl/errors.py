"""Exception types shared across the package."""


class LatticeflError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInput(LatticeflError):
    """A NaN or infinite value was about to be mapped to integers."""


class SamplerStall(LatticeflError):
    """The rejection sampler exceeded its iteration cap.

    The accept probability of the sampler is bounded away from zero for
    every noise scale, so hitting the cap indicates an arithmetic bug,
    not bad luck.
    """


class HypothesisViolated(LatticeflError):
    """A closed-form bound was requested outside its hypothesis."""


class ConfigError(LatticeflError):
    """An experiment configuration failed validation."""
