"""Differentially private, communication-efficient federated learning.

Library plus CLI simulator: discrete Gaussian noise on the quantization
lattice, Renyi-DP accounting with subsampling amplification, randomized
Hadamard compression, and pairwise-mask secure aggregation whose masked
and unmasked paths agree bit for bit.
"""

from .accountant import AccountantState, RdpCurve, amplify_by_subsampling, base_curve, compose, to_dp
from .bounds import MseBoundInputs, comm_cost, empirical_mse, mse_bound, mse_bound_conservative
from .compress import RotationSeed, clip, quantize, rotate, sensitivity, unrotate
from .dgauss import DiscreteGaussian, sample_integer_gaussian
from .errors import (
    ConfigError,
    HypothesisViolated,
    LatticeflError,
    NonFiniteInput,
    OverflowSuspected,
    SamplerStall,
)
from .lattice import LatticeSpec, wrap_centered
from .secagg import aggregate_round, derive_masks, server_aggregate, split_integer, wire_modulus
from .simulate import (
    ConvergenceReport,
    GlobalModel,
    RoundConfig,
    RoundTranscript,
    convergence_report,
    make_plan,
    run_round,
    run_training,
    subsample_clients,
)

__version__ = "0.1.0"
