"""Differentially private, communication-efficient federated learning.

Library plus CLI simulator: discrete Gaussian noise on the quantization
lattice, Renyi-DP accounting with subsampling amplification, randomized
Hadamard compression, and pairwise-mask secure aggregation whose masked
and unmasked paths agree bit for bit.
"""

from .accountant import ALPHAS, AccountantState, amplify_by_subsampling, base_curve, compose, to_dp
from .bounds import empirical_mse, mse_bound
from .compress import RotationSeed, clip, quantize, rotate, sensitivity, unrotate
from .dgauss import DiscreteGaussian, sample_integer_gaussian
from .errors import (
    ConfigError,
    HypothesisViolated,
    LatticeflError,
    NonFiniteInput,
    SamplerStall,
)
from .lattice import LatticeSpec
from .secagg import aggregate_round, server_aggregate, wire_modulus
from .simulate import (
    GlobalModel,
    RoundConfig,
    RoundTranscript,
    make_plan,
    run_round,
    run_training,
    subsample_clients,
)

__version__ = "0.1.0"
