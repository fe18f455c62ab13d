"""Round loop of the private federated averaging protocol.

Per round: subsample clients, train locally, clip the model difference,
rotate, quantize onto the lattice, add each client's exact share of the
shared discrete-Gaussian draw, mask pairwise, aggregate modulo the wire
group, unrotate, and apply the recovered mean to the global model.  Every
stage, local training too, takes the round's clients as one stack.

Everything is derived from the master seed through fixed-purpose seed
sequences, so a run is a pure function of its configuration: transcripts
are bit-identical across reruns, and the masked and unmasked execution
paths consume identical streams (their aggregates must agree exactly;
tests assert it).  A round's transcript keeps what the run reports and
what the server learns, the recovered mean; the per-client payloads and
the noise draw are dropped once the round is aggregated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import bounds, compress, secagg, streams
from .accountant import AccountantState, base_curve
from .dgauss import DiscreteGaussian, check_sigma_units, sample_integer_gaussian
from .errors import ConfigError, LatticeflError
from .lattice import G_MAX_RANGE, LatticeSpec, g_max_in_range
from .tasks import Task, data_bytes, make_task, model_dim

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

# Largest allocation one command may make: a plan's task data (built in
# one copy plus a bounded block) with the aggregates its rounds keep, the
# sample command's draws, or one mse-bench cell's client stacks.  This
# keeps a desk-scale run within a few GiB and turns an oversized n,
# samples_per_client, rounds, count, dims or clients into a configuration
# error before anything is allocated.
TASK_DATA_BUDGET_BYTES = 2 << 30

# Most point-coordinate steps a run's local training may take, rounds x m x
# local_steps x batch x d: 200 times the 4.8e8 of 300 rounds of 10 clients
# taking 5 steps of 32 points at d = 1000, which train in about half a second
# on a 2-vCPU desk machine, so an accepted run trains for minutes at most.
LOCAL_WORK_BUDGET = 10**11


def check_memory_budget(needed: int, what: str, remedy: str) -> None:
    """Raise ConfigError when ``what`` needs more than the memory budget."""
    if needed > TASK_DATA_BUDGET_BYTES:
        raise ConfigError(
            f"{what} would take {needed / 2**30:.3g} GiB, above the "
            f"{TASK_DATA_BUDGET_BYTES / 2**30:.3g} GiB budget; {remedy}"
        )


def ranged(interval: str, default=MISSING):
    """A dataclass field whose value must lie in ``interval``, such as
    ``"(0, 1]"`` or ``"[1, inf)"``: a bracket closes its end, a parenthesis opens it."""
    return field(default=default, metadata={"range": interval})


def check_ranges(obj) -> None:
    """Raise ValueError for the first field of ``obj`` outside the interval
    it was declared ``ranged`` with; a None value is unset and passes."""
    for f in fields(obj):
        interval, value = f.metadata.get("range"), getattr(obj, f.name)
        if interval is None or value is None:
            continue
        low, high = (float(end) for end in interval[1:-1].split(","))
        above = low <= value if interval[0] == "[" else low < value
        below = value <= high if interval[-1] == "]" else value < high
        if not (above and below):
            raise ValueError(f"{f.name} = {value}: must be in {interval}")


def participants_per_round(n: int, gamma: float) -> int:
    """floor(gamma * n), guarded against cases like 0.3 * 10 = 2.999...9;
    raises ValueError when no client would take part."""
    if (m := int(gamma * n + 1e-9)) < 1:
        raise ValueError(f"gamma * n must be >= 1, got {gamma * n}")
    return m


@dataclass(frozen=True)
class RoundConfig:
    """Full protocol configuration for a training run, its fields named as
    the ``[protocol]`` keys.  Local training is plain SGD: ``local_steps``
    steps of ``learning_rate`` on ``batch_size`` of a client's points
    (``None``: its whole shard).  Building one runs every check of a run
    but the overflow budget, which ``train`` checks next and
    ``--override-overflow-check`` waives: the single-key ranges, then the
    rules that join keys (:func:`make_plan`, which draws nothing)."""

    n: int = ranged("[1, inf)")
    gamma: float = ranged("(0, 1]")
    rounds: int = ranged("[0, inf)")
    dim: int
    clip: float = ranged("(0, inf)")
    k: int = ranged("[2, inf)")
    q: int = ranged("[1, inf)")
    sigma: float = ranged("[0, inf)")
    delta: float = ranged("(0, 1)")
    seed: int = ranged(f"[0, {1 << 63})")
    g_max: float | None = None  # None: concentration-based default
    task: str = "logistic"
    iid: bool = True
    samples_per_client: int = ranged("[1, inf)", 20)
    local_steps: int = ranged("[1, inf)", 1)
    learning_rate: float = ranged("(0, inf)", 0.5)
    batch_size: int | None = ranged("[1, inf)", None)

    def __post_init__(self):
        check_ranges(self)
        make_plan(self)


@dataclass
class GlobalModel:
    w: np.ndarray
    t: int = 0


@dataclass
class RoundTranscript:
    """What one round reports and what the server learns from it; a run
    keeps one ``d``-vector per round, whatever the number of participants.
    Only ``run_training`` fills ``loss``, ``accuracy`` and ``epsilon``; what
    every round shares, such as its upload in bytes, is in the ``SimPlan``."""

    round_index: int
    clients: tuple[int, ...]
    aggregate: np.ndarray  # recovered mean update, original dimension
    round_mse: float  # ||aggregate - mean clipped update||^2
    loss: float = math.nan
    accuracy: float = math.nan
    epsilon: float = math.nan


@dataclass(frozen=True)
class SimPlan:
    """Validated quantities shared by every round of a run, each derived once:
    a round reads its shapes, lattice, rotation and task from here, and seeds
    round ``t``'s masks with ``mask_seed + t``.  ``payload_bytes`` is one
    participant's upload a round, ``d_pad`` residues of ``wire_q``.  The task
    data is drawn on first use of ``task``, from the seed's task stream."""

    cfg: RoundConfig
    m: int
    d: int
    d_pad: int
    batch: int  # points a local step takes from each client's shard
    spec: LatticeSpec
    rotation: compress.RotationSeed
    wire_q: int
    payload_bytes: int
    mask_seed: int
    sensitivity: float
    overflow_probability: float

    @functools.cached_property
    def task(self) -> Task:
        cfg = self.cfg
        return make_task(cfg.task, cfg.dim, cfg.n, cfg.samples_per_client, _derived_int(cfg.seed, _DOM_TASK), cfg.iid)


def _derived_int(master: int, domain: int) -> int:
    return int(np.random.default_rng(np.random.SeedSequence([master, domain])).integers(1 << 62))


def make_plan(cfg: RoundConfig) -> SimPlan:
    """The plan of a run, drawing nothing: its task data is drawn on first use.
    Raises ValueError or ConfigError for a rule that joins keys: gamma * n, the task's dimension,
    the memory and local work budgets, the lattice, the wire group, the sampler's range and the
    ledger's per-round rate.  The caller enforces the overflow budget (the CLI offers an override flag)."""
    m = participants_per_round(cfg.n, cfg.gamma)
    d = model_dim(cfg.task, cfg.dim)
    # a run keeps its task data and one float64 aggregate per round
    check_memory_budget(
        data_bytes(cfg.task, cfg.dim, cfg.n, cfg.samples_per_client) + cfg.rounds * d * 8,
        "task data and per-round aggregates", "reduce n, samples_per_client, dim or rounds",
    )
    batch = min(cfg.batch_size or cfg.samples_per_client, cfg.samples_per_client)
    if cfg.rounds * m * cfg.local_steps * batch * d > LOCAL_WORK_BUDGET:
        raise ConfigError(
            f"local training would take {cfg.rounds} rounds x {m} clients x {cfg.local_steps} local_steps x "
            f"{batch} points x {d} coordinates, above the budget of {LOCAL_WORK_BUDGET:.0e} point-coordinate "
            "steps; reduce rounds, gamma * n, local_steps, batch_size or dim"
        )
    d_pad = compress.padded_dim(d)
    if cfg.q < cfg.k:
        raise ConfigError(f"q={cfg.q} must be >= k={cfg.k} so the quantizer grid fits the coarse group")
    g_max = cfg.g_max if cfg.g_max is not None else compress.default_g_max(cfg.clip, cfg.n, d_pad)
    if cfg.g_max is None and not g_max_in_range(g_max):
        raise ValueError(f"g_max = auto derives {g_max:.2g} from clip = {cfg.clip:g}, outside {G_MAX_RANGE}")
    spec = LatticeSpec(g_max=g_max, k=cfg.k, q=cfg.q)
    wire_q = secagg.wire_modulus(cfg.q, m)
    # Room, in lattice steps, that the recovered sum leaves for the noise
    # once the m quantized rows take their largest magnitude.
    margin_steps = (wire_q - 1) // 2 - m * spec.half_levels
    sensitivity = compress.sensitivity(cfg.clip, d_pad, cfg.k)
    overflow_probability = 0.0
    if cfg.sigma > 0:
        check_sigma_units(spec.sigma_units(cfg.sigma))
        base_curve(cfg.sigma, sensitivity)  # ValueError on a per-round rate past the float range
        tail = DiscreteGaussian(cfg.sigma, spec).tail_bound(margin_steps) if margin_steps >= 1 else 1.0
        overflow_probability = min(1.0, 2.0 * d_pad * tail)
    return SimPlan(
        cfg=cfg, m=m, d=d, d_pad=d_pad, batch=batch, spec=spec,
        rotation=compress.RotationSeed(_derived_int(cfg.seed, _DOM_ROTATION), d_pad), wire_q=wire_q,
        payload_bytes=-(-d_pad * bounds.ceil_log2(wire_q) // 8), mask_seed=_derived_int(cfg.seed, _DOM_MASKS),
        sensitivity=sensitivity, overflow_probability=overflow_probability,
    )


def subsample_clients(n: int, gamma: float, round_seed) -> np.ndarray:
    """Uniform without-replacement sample of ``floor(gamma n)`` ids."""
    rng = np.random.default_rng(round_seed)
    return np.sort(rng.choice(n, size=participants_per_round(n, gamma), replace=False))


def run_round(
    model: GlobalModel,
    plan: SimPlan,
    round_index: int,
    use_masks: bool = True,
) -> tuple[GlobalModel, RoundTranscript]:
    """Execute one protocol round; the model's round counter must match."""
    if model.t != round_index - 1:
        raise ValueError(f"model is at round {model.t}, cannot run round {round_index}")
    cfg, spec, m = plan.cfg, plan.spec, plan.m
    master = cfg.seed

    ids = subsample_clients(cfg.n, cfg.gamma, np.random.SeedSequence([master, _DOM_SUBSAMPLE, round_index]))
    # Each client's default_rng(SeedSequence([master, domain, round_index, cid]))
    # for its quantizer, and for its mini-batches if it draws any, seeded in one pass.
    domains = [[_DOM_QUANTIZE], [_DOM_LOCAL]] if plan.batch < cfg.samples_per_client else [_DOM_QUANTIZE]
    rngs = list(streams.generators(streams.entropy(master, domains, round_index, ids)))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step may overflow; clip rejects inf or NaN
        raw = plan.task.local_update(model.w, ids, cfg.local_steps, cfg.learning_rate, plan.batch, rngs[m:])
    raw -= model.w
    clipped = compress.clip(raw, cfg.clip)
    uniforms = np.empty((m, plan.d_pad))
    for row, rng in zip(uniforms, rngs[:m]):
        rng.random(out=row)
    quantized = compress.quantize(compress.rotate(clipped, plan.rotation), spec, uniforms)

    if cfg.sigma > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence([master, _DOM_NOISE, round_index]))
        noise_z = sample_integer_gaussian(spec.sigma_units(cfg.sigma), noise_rng, plan.d_pad)
    else:
        noise_z = np.zeros(plan.d_pad, dtype=np.int64)

    mask_seed = plan.mask_seed + round_index if use_masks else None
    agg_rotated, _ = secagg.aggregate_round(quantized, noise_z, mask_seed, spec)
    estimate = compress.unrotate(agg_rotated, plan.rotation, plan.d)
    new_w = model.w + estimate
    if not np.all(np.isfinite(new_w)):
        raise LatticeflError(f"model left the finite range at round {round_index}")

    clipped_mean = clipped.mean(axis=0)
    transcript = RoundTranscript(
        round_index=round_index,
        clients=tuple(ids.tolist()),
        aggregate=estimate,
        round_mse=float(np.sum((estimate - clipped_mean) ** 2)),
    )
    return GlobalModel(new_w, round_index), transcript


def run_training(
    cfg: RoundConfig,
    use_masks: bool = True,
) -> tuple[GlobalModel, list[RoundTranscript], AccountantState | None]:
    """Run the full T-round protocol with a privacy ledger, drawing the
    task data from ``make_plan(cfg)``, whatever the overflow probability.

    Returns the final model, per-round transcripts (with evaluation metrics
    and the epsilon spent so far filled in), and the accountant (None when
    noise is disabled; epsilon is then infinite).
    """
    plan = make_plan(cfg)
    acct = AccountantState(cfg.sigma, plan.sensitivity, cfg.gamma) if cfg.sigma > 0 else None
    model = GlobalModel(plan.task.init_weights(), 0)
    transcripts: list[RoundTranscript] = []
    for t in range(1, cfg.rounds + 1):
        model, tr = run_round(model, plan, t, use_masks=use_masks)
        tr.epsilon = math.inf if acct is None else acct.epsilon(cfg.delta, t)[0]
        tr.loss, tr.accuracy = plan.task.eval_metrics(model.w)
        transcripts.append(tr)
    return model, transcripts, acct
