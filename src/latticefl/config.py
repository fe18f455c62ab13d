"""Experiment configuration: flat ``key = value`` files with sections.

Every key is listed in the schema below; unknown sections or keys are
hard errors so a typo cannot silently fall back to a default.  The same
file drives all CLI modes; each mode reads its own section plus
``[experiment]``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .compress import padded_dim, sensitivity
from .errors import ConfigError
from .simulate import RoundConfig
from .tasks import LocalTrainerSpec

MODES = ("train", "mse-bench", "accountant", "sample")

# section -> {key: parser}; "auto"/"full" sentinels handled by the parsers.
_SCHEMA = {
    "experiment": {"mode": str, "seed": int, "out": str},
    "protocol": {
        "n": int,
        "gamma": float,
        "rounds": int,
        "dim": int,
        "clip": float,
        "k": int,
        "q": int,
        "sigma": float,
        "delta": float,
        "g_max": str,
        "task": str,
        "iid": str,
        "samples_per_client": int,
        "local_steps": int,
        "learning_rate": float,
        "batch_size": str,
    },
    "accountant": {
        "sigma": float,
        "clip": float,
        "k": int,
        "dim": int,
        "gamma": float,
        "rounds": int,
        "delta": float,
    },
    "sample": {"sigma_units": float, "count": int},
    "mse": {
        "dims": str,
        "clients": str,
        "ks": str,
        "qs": str,
        "sigmas": str,
        "gammas": str,
        "g_maxes": str,
        "clip": float,
        "trials": int,
    },
}

_REQUIRED = {
    "train": ("protocol",),
    "mse-bench": (),
    "accountant": ("accountant",),
    "sample": ("sample",),
}


@dataclass(frozen=True)
class AccountantParams:
    sigma: float
    clip_bound: float
    k: int
    dim: int
    gamma: float
    rounds: int
    delta: float

    @property
    def sensitivity(self) -> float:
        return sensitivity(self.clip_bound, padded_dim(self.dim), self.k)


@dataclass(frozen=True)
class SampleParams:
    sigma_units: float
    count: int


@dataclass(frozen=True)
class MseGrid:
    """Cartesian product of the listed parameters, one bench cell each."""

    dims: tuple[int, ...]
    clients: tuple[int, ...]
    ks: tuple[int, ...]
    qs: tuple[int, ...]
    sigmas: tuple[float, ...]
    gammas: tuple[float, ...]
    g_maxes: tuple[float, ...]
    clip_bound: float
    trials: int

    def cells(self):
        for d in self.dims:
            for n in self.clients:
                for k in self.ks:
                    for q in self.qs:
                        for su in self.sigmas:
                            for gamma in self.gammas:
                                for g in self.g_maxes:
                                    yield d, n, k, q, su, gamma, g


# The default bench grid: 12 cells, all satisfying the bound's noise
# hypothesis sigma >= 1/sqrt(2 pi).
DEFAULT_MSE_GRID = MseGrid(
    dims=(64,),
    clients=(4, 10),
    ks=(5, 9, 17),
    qs=(1001,),
    sigmas=(0.5, 1.0),
    gammas=(0.1,),
    g_maxes=(1.0,),
    clip_bound=1.0,
    trials=1000,
)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    seed: int
    out: str | None
    round_config: RoundConfig | None = None
    accountant_params: AccountantParams | None = None
    sample_params: SampleParams | None = None
    mse_grid: MseGrid | None = None


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _finite(value, where: str):
    """Reject NaN and infinities, which would otherwise reach the integer domain."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return value


def _parse_list(raw: str, kind, where: str) -> tuple:
    try:
        return tuple(_finite(kind(item.strip()), where) for item in raw.split(",") if item.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    """Typed view of one section, rejecting unknown keys."""
    if name not in parser:
        return {}
    out = {}
    for key, raw in parser[name].items():
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        kind = _SCHEMA[name][key]
        try:
            out[key] = _finite(kind(raw) if kind is not str else raw.strip(), f"[{name}] {key}")
        except ValueError:
            raise ConfigError(f"[{name}] {key}: cannot parse {raw!r} as {kind.__name__}") from None
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment file; raises ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")

    exp = _section(parser, "experiment")
    for key in ("mode", "seed"):
        if key not in exp:
            raise ConfigError(f"[experiment] must set {key!r}")
    mode = exp["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for section in _REQUIRED[mode]:
        if section not in parser:
            raise ConfigError(f"mode {mode!r} requires a [{section}] section")

    cfg = ExperimentConfig(mode=mode, seed=exp["seed"], out=exp.get("out"))
    try:
        if mode == "train":
            cfg = ExperimentConfig(
                mode=mode, seed=exp["seed"], out=exp.get("out"),
                round_config=_round_config(_section(parser, "protocol"), exp["seed"]),
            )
        elif mode == "accountant":
            acc = _section(parser, "accountant")
            missing = sorted(set(_SCHEMA["accountant"]) - set(acc))
            if missing:
                raise ConfigError(f"[accountant] missing keys: {', '.join(missing)}")
            cfg = ExperimentConfig(
                mode=mode, seed=exp["seed"], out=exp.get("out"),
                accountant_params=AccountantParams(
                    sigma=acc["sigma"], clip_bound=acc["clip"], k=acc["k"], dim=acc["dim"],
                    gamma=acc["gamma"], rounds=acc["rounds"], delta=acc["delta"],
                ),
            )
        elif mode == "sample":
            smp = _section(parser, "sample")
            missing = sorted(set(_SCHEMA["sample"]) - set(smp))
            if missing:
                raise ConfigError(f"[sample] missing keys: {', '.join(missing)}")
            cfg = ExperimentConfig(
                mode=mode, seed=exp["seed"], out=exp.get("out"),
                sample_params=SampleParams(sigma_units=smp["sigma_units"], count=smp["count"]),
            )
        else:  # mse-bench
            cfg = ExperimentConfig(
                mode=mode, seed=exp["seed"], out=exp.get("out"),
                mse_grid=_mse_grid(_section(parser, "mse")),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _validate(cfg)
    return cfg


def _round_config(proto: dict, seed: int) -> RoundConfig:
    required = ("n", "gamma", "rounds", "dim", "clip", "k", "q", "sigma", "delta")
    missing = sorted(set(required) - set(proto))
    if missing:
        raise ConfigError(f"[protocol] missing keys: {', '.join(missing)}")
    g_max_raw = proto.get("g_max", "auto")
    g_max = None if g_max_raw.lower() == "auto" else _finite(float(g_max_raw), "[protocol] g_max")
    batch_raw = proto.get("batch_size", "full")
    batch = None if batch_raw.lower() == "full" else int(batch_raw)
    return RoundConfig(
        n=proto["n"],
        gamma=proto["gamma"],
        rounds=proto["rounds"],
        dim=proto["dim"],
        clip_bound=proto["clip"],
        k=proto["k"],
        q=proto["q"],
        sigma=proto["sigma"],
        delta=proto["delta"],
        seed=seed,
        g_max=g_max,
        task=proto.get("task", "logistic"),
        iid=_parse_bool(proto.get("iid", "true"), "[protocol] iid"),
        samples_per_client=proto.get("samples_per_client", 20),
        local=LocalTrainerSpec(
            steps=proto.get("local_steps", 1),
            learning_rate=proto.get("learning_rate", 0.5),
            batch_size=batch,
        ),
    )


def _mse_grid(section: dict) -> MseGrid:
    if not section:
        return DEFAULT_MSE_GRID
    base = DEFAULT_MSE_GRID
    return MseGrid(
        dims=_parse_list(section.get("dims", ""), int, "[mse] dims") or base.dims,
        clients=_parse_list(section.get("clients", ""), int, "[mse] clients") or base.clients,
        ks=_parse_list(section.get("ks", ""), int, "[mse] ks") or base.ks,
        qs=_parse_list(section.get("qs", ""), int, "[mse] qs") or base.qs,
        sigmas=_parse_list(section.get("sigmas", ""), float, "[mse] sigmas") or base.sigmas,
        gammas=_parse_list(section.get("gammas", ""), float, "[mse] gammas") or base.gammas,
        g_maxes=_parse_list(section.get("g_maxes", ""), float, "[mse] g_maxes") or base.g_maxes,
        clip_bound=section.get("clip", base.clip_bound),
        trials=section.get("trials", base.trials),
    )


def _validate(cfg: ExperimentConfig) -> None:
    if not 0 <= cfg.seed < 1 << 63:
        raise ConfigError(f"seed must be a non-negative 63-bit integer, got {cfg.seed}")
    if cfg.mode == "mse-bench":
        grid = cfg.mse_grid
        if grid.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {grid.trials}")
        for q in grid.qs:
            if q < 1 or q % 2 == 0:
                raise ConfigError(f"mse grid q values must be positive odd, got {q}")
        for k in grid.ks:
            if k < 3 or k % 2 == 0:
                raise ConfigError(f"mse grid k values must be odd and >= 3, got {k}")
    if cfg.mode == "accountant":
        p = cfg.accountant_params
        if p.sigma <= 0 or p.clip_bound <= 0:
            raise ConfigError("accountant sigma and clip must be positive")
        if not 0 < p.gamma <= 1:
            raise ConfigError(f"gamma must be in (0, 1], got {p.gamma}")
        if p.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {p.rounds}")
        if not 0 < p.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {p.delta}")
    if cfg.mode == "sample":
        p = cfg.sample_params
        if p.sigma_units <= 0:
            raise ConfigError(f"sigma_units must be positive, got {p.sigma_units}")
        if p.count < 0:
            raise ConfigError(f"count must be >= 0, got {p.count}")


def format_real(x: float) -> str:
    """Reals in CSV output carry 17 significant digits (round-trip safe)."""
    return f"{x:.17g}"
