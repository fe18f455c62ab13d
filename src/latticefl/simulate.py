"""Round loop of the private federated averaging protocol.

Per round: subsample clients, train locally, clip the model difference,
rotate, quantize onto the lattice, add each client's exact share of the
shared discrete-Gaussian draw, mask pairwise, aggregate modulo the wire
group, unrotate, and apply the recovered mean to the global model.

Everything is derived from the master seed through fixed-purpose seed
sequences, so a run is a pure function of its configuration: transcripts
are bit-identical across reruns, and the masked and unmasked execution
paths consume identical streams (their aggregates must agree exactly;
tests assert it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, compress, secagg
from .accountant import AccountantState
from .dgauss import DiscreteGaussian
from .errors import ConfigError
from .lattice import LatticeSpec
from .tasks import LocalTrainerSpec, Task, data_bytes, make_task, model_dim

# Seed-derivation domains (second entry of every SeedSequence).
_DOM_TASK = 10
_DOM_ROTATION = 11
_DOM_SUBSAMPLE = 20
_DOM_LOCAL = 21
_DOM_QUANTIZE = 22
_DOM_NOISE = 23
_DOM_MASKS = 24

# Per-round overflow probability above which a configuration is rejected.
OVERFLOW_BUDGET = 1e-9

# Largest allocation one command may make: a plan's task data, the
# sample command's draws, or one mse-bench cell's client stacks.  Task
# sharding briefly holds about three copies, so this keeps a desk-scale
# run within a few GiB and turns an oversized n, samples_per_client,
# count, dims or clients into a configuration error before anything is
# allocated.
TASK_DATA_BUDGET_BYTES = 2 << 30


def check_memory_budget(needed: int, what: str, remedy: str) -> None:
    """Raise ConfigError when ``what`` needs more than the memory budget."""
    if needed > TASK_DATA_BUDGET_BYTES:
        raise ConfigError(
            f"{what} would take {needed / 2**30:.3g} GiB, above the "
            f"{TASK_DATA_BUDGET_BYTES / 2**30:.3g} GiB budget; {remedy}"
        )


def participants_per_round(n: int, gamma: float) -> int:
    """floor(gamma * n), guarded against cases like 0.3 * 10 = 2.999...9."""
    return int(gamma * n + 1e-9)


@dataclass(frozen=True)
class RoundConfig:
    """Full protocol configuration for a training run."""

    n: int
    gamma: float
    rounds: int
    dim: int
    clip_bound: float
    k: int
    q: int
    sigma: float
    delta: float
    seed: int
    g_max: float | None = None  # None: concentration-based default
    task: str = "logistic"
    iid: bool = True
    samples_per_client: int = 20
    local: LocalTrainerSpec = field(default_factory=LocalTrainerSpec)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if participants_per_round(self.n, self.gamma) < 1:
            raise ValueError(f"gamma * n must be >= 1, got {self.gamma * self.n}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 <= self.seed < 1 << 63:
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {self.seed}")
        if self.samples_per_client < 1:
            raise ValueError(f"samples_per_client must be >= 1, got {self.samples_per_client}")


@dataclass
class GlobalModel:
    w: np.ndarray
    t: int = 0


@dataclass
class RoundTranscript:
    """Everything one round produced (desk scale: arrays kept in full)."""

    round_index: int
    clients: tuple[int, ...]
    payload_bytes_per_client: int
    aggregate: np.ndarray  # recovered mean update, original dimension
    noise_z: np.ndarray  # realized shared draw, lattice steps, padded dim
    payloads: np.ndarray  # (m, d_pad) wire integers
    round_mse: float  # ||aggregate - mean clipped update||^2
    loss: float
    accuracy: float
    epsilon: float
    wall_time: float
    raw_mean: np.ndarray | None = None  # mean un-clipped update (oracle runs)
    full_grad: np.ndarray | None = None  # pooled-loss gradient at round start


@dataclass(frozen=True)
class SimPlan:
    """Validated, derived quantities shared by every round of a run."""

    cfg: RoundConfig
    task: Task
    m: int
    d: int
    d_pad: int
    spec: LatticeSpec
    rotation: compress.RotationSeed
    wire_q: int
    sensitivity: float
    noise_margin_steps: int
    plaintext_bound: int
    overflow_probability: float


def _derived_int(master: int, domain: int) -> int:
    return int(np.random.default_rng(np.random.SeedSequence([master, domain])).integers(1 << 62))


def make_plan(cfg: RoundConfig) -> SimPlan:
    """Validate a configuration and derive the per-run constants.

    Raises ConfigError for cross-field violations, all checked before the
    task data is drawn; the overflow budget is enforced by the caller (the
    CLI offers an override flag).
    """
    m = participants_per_round(cfg.n, cfg.gamma)
    check_memory_budget(
        data_bytes(cfg.task, cfg.dim, cfg.n, cfg.samples_per_client),
        "task data", "reduce n, samples_per_client or dim",
    )
    d = model_dim(cfg.task, cfg.dim)
    d_pad = compress.padded_dim(d)
    if cfg.q < cfg.k:
        raise ConfigError(
            f"q={cfg.q} must be >= k={cfg.k} so the quantizer grid fits the coarse group"
        )
    g_max = cfg.g_max if cfg.g_max is not None else compress.default_g_max(cfg.clip_bound, cfg.n, d_pad)
    spec = LatticeSpec(g_max=g_max, k=cfg.k, q=cfg.q)
    wire_q = secagg.wire_modulus(cfg.q, m)
    sensitivity = compress.sensitivity(cfg.clip_bound, d_pad, cfg.k)

    # Room, in lattice steps, that the recovered sum leaves for the noise
    # once the m quantized rows take their largest magnitude.
    margin_steps = (wire_q - 1) // 2 - m * spec.half_levels
    if cfg.sigma > 0:
        if margin_steps < 1:
            overflow_probability = 1.0
        else:
            dist = DiscreteGaussian(cfg.sigma, spec)
            upper, _ = dist.tail_bound(margin_steps)
            overflow_probability = min(1.0, 2.0 * d_pad * upper)
    else:
        overflow_probability = 0.0

    task = make_task(cfg.task, cfg.dim, cfg.n, cfg.samples_per_client, _derived_int(cfg.seed, _DOM_TASK), cfg.iid)

    return SimPlan(
        cfg=cfg,
        task=task,
        m=m,
        d=d,
        d_pad=d_pad,
        spec=spec,
        rotation=compress.RotationSeed(_derived_int(cfg.seed, _DOM_ROTATION), d_pad),
        wire_q=wire_q,
        sensitivity=sensitivity,
        noise_margin_steps=max(0, margin_steps),
        plaintext_bound=m * spec.half_levels + max(0, margin_steps),
        overflow_probability=overflow_probability,
    )


def subsample_clients(n: int, gamma: float, round_seed) -> np.ndarray:
    """Uniform without-replacement sample of ``floor(gamma n)`` ids."""
    m = participants_per_round(n, gamma)
    if m < 1:
        raise ValueError(f"gamma * n must be >= 1, got {gamma * n}")
    rng = np.random.default_rng(round_seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def run_round(
    model: GlobalModel,
    plan: SimPlan,
    round_index: int,
    use_masks: bool = True,
    record_gradient: bool = False,
) -> tuple[GlobalModel, RoundTranscript]:
    """Execute one protocol round; the model's round counter must match."""
    if model.t != round_index - 1:
        raise ValueError(f"model is at round {model.t}, cannot run round {round_index}")
    cfg, spec, m = plan.cfg, plan.spec, plan.m
    started = time.perf_counter()
    master = cfg.seed

    full_grad = plan.task.full_gradient(model.w) if record_gradient else None

    ids = subsample_clients(cfg.n, cfg.gamma, np.random.SeedSequence([master, _DOM_SUBSAMPLE, round_index]))
    raw = np.empty((m, plan.d))
    quantizer_rngs = []
    for rank, cid in enumerate(ids):
        rng = np.random.default_rng(np.random.SeedSequence([master, _DOM_LOCAL, round_index, int(cid)]))
        raw[rank] = plan.task.local_update(model.w, int(cid), cfg.local, rng) - model.w
        quantizer_rngs.append(
            np.random.default_rng(np.random.SeedSequence([master, _DOM_QUANTIZE, round_index, int(cid)]))
        )
    clipped = compress.clip(raw, cfg.clip_bound)
    quantized = compress.quantize(compress.rotate(clipped, plan.rotation), spec, quantizer_rngs)

    if cfg.sigma > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence([master, _DOM_NOISE, round_index]))
        noise_z = DiscreteGaussian(cfg.sigma, spec).sample(noise_rng, plan.d_pad)
    else:
        noise_z = np.zeros(plan.d_pad, dtype=np.int64)

    mask_seed = _derived_int(master, _DOM_MASKS) + round_index if use_masks else None
    agg_rotated, payloads = secagg.aggregate_round(
        quantized, noise_z, [int(i) for i in ids], mask_seed, spec, plan.plaintext_bound
    )
    estimate = compress.unrotate(agg_rotated, plan.rotation, plan.d)
    new_w = model.w + estimate
    if not np.all(np.isfinite(new_w)):
        raise ArithmeticError(f"model left the finite range at round {round_index}")

    clipped_mean = clipped.mean(axis=0)
    transcript = RoundTranscript(
        round_index=round_index,
        clients=tuple(int(i) for i in ids),
        payload_bytes_per_client=bounds.payload_bytes_per_client(m, plan.d_pad, cfg.q),
        aggregate=estimate,
        noise_z=noise_z,
        payloads=payloads,
        round_mse=float(np.sum((estimate - clipped_mean) ** 2)),
        loss=math.nan,
        accuracy=math.nan,
        epsilon=math.nan,
        wall_time=time.perf_counter() - started,
        raw_mean=raw.mean(axis=0),
        full_grad=full_grad,
    )
    return GlobalModel(new_w, round_index), transcript


def run_training(
    cfg: RoundConfig,
    use_masks: bool = True,
    record_gradients: bool = False,
    plan: SimPlan | None = None,
) -> tuple[GlobalModel, list[RoundTranscript], AccountantState | None]:
    """Run the full T-round protocol with a privacy ledger.

    ``plan`` is ``make_plan(cfg)`` when the caller has built it already
    (building it draws the task data).  Returns the final model,
    per-round transcripts (with evaluation metrics and the cumulative
    epsilon filled in), and the accountant (None when noise is disabled;
    epsilon is then infinite).
    """
    if plan is None:
        plan = make_plan(cfg)
    elif plan.cfg != cfg:
        raise ValueError("plan was built from a different configuration")
    if record_gradients and cfg.local.steps != 1:
        raise ConfigError("gradient recording assumes one local step per round")
    acct = AccountantState(cfg.sigma, plan.sensitivity, cfg.gamma) if cfg.sigma > 0 else None
    model = GlobalModel(plan.task.init_weights(), 0)
    transcripts: list[RoundTranscript] = []
    for t in range(1, cfg.rounds + 1):
        model, tr = run_round(model, plan, t, use_masks=use_masks, record_gradient=record_gradients)
        if acct is not None:
            acct.record_round()
            tr.epsilon = acct.epsilon(cfg.delta)[0]
        else:
            tr.epsilon = math.inf
        tr.loss, tr.accuracy = plan.task.eval_metrics(model.w)
        transcripts.append(tr)
    return model, transcripts, acct


@dataclass(frozen=True)
class ConvergenceReport:
    """Gradient-stationarity bound and the measured quantities behind it."""

    rounds: int
    sampling_dev_sq: float  # max_t ||g_t - grad F(w_t)||^2
    estimate_dev_sq: float  # max_t ||g_t - estimate_t||^2
    lambda_sq: float  # 2 * sampling_dev_sq + 2 * estimate_dev_sq
    deviation_bound: float  # max_t ||g_t - estimate_t||
    rhs: float
    grad_sq_mean: float  # mean ||grad F(w_t)||^2 over recorded rounds


def convergence_report(
    transcripts: list[RoundTranscript],
    smoothness: float,
    grad_bound: float,
    initial_gap: float,
    learning_rate: float,
) -> ConvergenceReport:
    """Evaluate the stationarity bound from recorded rounds.

    With one full-batch local step per round, a client's update is
    ``-lr * grad``; dividing the recorded update means by ``-lr`` turns
    them back into gradient estimates.  ``smoothness``, ``grad_bound``
    and ``initial_gap`` (L, rho, rho_F) are supplied by the caller.
    """
    if not transcripts:
        raise ValueError("need at least one recorded round")
    if any(tr.full_grad is None or tr.raw_mean is None for tr in transcripts):
        raise ValueError("transcripts lack gradient recordings; rerun with record_gradients=True")
    T = len(transcripts)
    sample_dev_sq = 0.0
    est_dev_sq = 0.0
    dev_bound = 0.0
    grad_sq = 0.0
    for tr in transcripts:
        g = -np.asarray(tr.raw_mean) / learning_rate
        g_est = -np.asarray(tr.aggregate) / learning_rate
        full = np.asarray(tr.full_grad)
        sample_dev_sq = max(sample_dev_sq, float(np.sum((g - full) ** 2)))
        est_dev_sq = max(est_dev_sq, float(np.sum((g - g_est) ** 2)))
        dev_bound = max(dev_bound, float(np.linalg.norm(g - g_est)))
        grad_sq += float(full @ full)
    lambda_sq = 2.0 * sample_dev_sq + 2.0 * est_dev_sq
    rhs = (
        2.0 * initial_gap * smoothness / T
        + 2.0 * math.sqrt(2.0) * math.sqrt(lambda_sq) * math.sqrt(smoothness * initial_gap) / math.sqrt(T)
        + grad_bound * dev_bound
    )
    return ConvergenceReport(
        rounds=T,
        sampling_dev_sq=sample_dev_sq,
        estimate_dev_sq=est_dev_sq,
        lambda_sq=lambda_sq,
        deviation_bound=dev_bound,
        rhs=rhs,
        grad_sq_mean=grad_sq / T,
    )


def payload_table(transcripts: list[RoundTranscript]):
    """Debug rows (round, client, coordinate, payload_int) for replay."""
    for tr in transcripts:
        for rank, cid in enumerate(tr.clients):
            for coord, value in enumerate(tr.payloads[rank]):
                yield tr.round_index, cid, coord, int(value)


def write_payload_csv(transcripts: list[RoundTranscript], path) -> None:
    """Dump wire payloads in the documented debug layout.

    Columns: round, client, coordinate, payload_int.  Together with the
    run's seeds this is enough to replay the aggregation and reconstruct
    the realized noise draw.
    """
    with open(path, "w") as fh:
        fh.write("round,client,coordinate,payload_int\n")
        for row in payload_table(transcripts):
            fh.write(",".join(str(v) for v in row) + "\n")
