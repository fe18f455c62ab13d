"""Experiment configuration: flat ``key = value`` files with sections.

Every key is listed in the schema below; unknown sections or keys are
hard errors so a typo cannot silently fall back to a default.  The same
file drives all CLI modes; each mode reads its own section plus
``[experiment]``.  Each section builds one dataclass, which holds the
defaults (a key is required exactly when its field has none) and
validates itself, so a file is fully checked before anything is drawn.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import math
from dataclasses import MISSING, dataclass
from pathlib import Path

from .bounds import MseBoundInputs, empirical_mse_bytes
from .compress import padded_dim, sensitivity
from .errors import ConfigError
from .lattice import LatticeSpec
from .simulate import RoundConfig, check_memory_budget

# Peak bytes per draw of the ``sample`` command: the int64 draw plus its
# text line (about 107 B measured at 1e6 and 4e6 draws).
SAMPLE_BYTES_PER_DRAW = 110


@dataclass(frozen=True)
class AccountantParams:
    sigma: float
    clip_bound: float
    k: int
    dim: int
    gamma: float
    rounds: int
    delta: float

    def __post_init__(self):
        if self.sigma <= 0 or self.clip_bound <= 0:
            raise ValueError("accountant sigma and clip must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def sensitivity(self) -> float:
        return sensitivity(self.clip_bound, padded_dim(self.dim), self.k)


@dataclass(frozen=True)
class SampleParams:
    sigma_units: float
    count: int

    def __post_init__(self):
        if self.sigma_units <= 0:
            raise ValueError(f"sigma_units must be positive, got {self.sigma_units}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        check_memory_budget(
            self.count * SAMPLE_BYTES_PER_DRAW, f"count = {self.count} draws", "reduce count"
        )


@dataclass(frozen=True)
class MseGrid:
    """Cartesian product of the listed parameters, one bench cell each.

    The defaults are the stock 12-cell grid, every cell satisfying the
    bound's noise hypothesis sigma >= 1/sqrt(2 pi).
    """

    dims: tuple[int, ...] = (64,)
    clients: tuple[int, ...] = (4, 10)
    ks: tuple[int, ...] = (5, 9, 17)
    qs: tuple[int, ...] = (1001,)
    sigmas: tuple[float, ...] = (0.5, 1.0)
    gammas: tuple[float, ...] = (0.1,)
    g_maxes: tuple[float, ...] = (1.0,)
    clip_bound: float = 1.0
    trials: int = 1000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.clip_bound <= 0:
            raise ValueError(f"clip must be positive, got {self.clip_bound}")
        for cell in self.cells():
            d, n, k, q, su, gamma, g_max = cell
            try:
                LatticeSpec(g_max=g_max, k=k, q=q)
                MseBoundInputs(d=d, n=n, k=k, q=q, sigma_units=su, gamma=gamma, g_max=g_max)
            except ValueError as exc:
                raise ValueError(f"mse cell (d, n, k, q, sigma, gamma, g_max) = {cell}: {exc}") from None
            check_memory_budget(
                empirical_mse_bytes(n, d), f"an mse cell of {n} clients at d={d}",
                "reduce dims or clients",
            )

    def cells(self):
        """``(d, n, k, q, sigma_units, gamma, g_max)`` per cell, the last key varying fastest."""
        return itertools.product(
            self.dims, self.clients, self.ks, self.qs, self.sigmas, self.gammas, self.g_maxes
        )


DEFAULT_MSE_GRID = MseGrid()

# mode -> (section, ExperimentConfig field, dataclass the section builds)
_MODES = {
    "train": ("protocol", "round_config", RoundConfig),
    "mse-bench": ("mse", "mse_grid", MseGrid),
    "accountant": ("accountant", "accountant_params", AccountantParams),
    "sample": ("sample", "sample_params", SampleParams),
}
MODES = tuple(_MODES)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    seed: int
    out: str | None = None
    round_config: RoundConfig | None = None
    accountant_params: AccountantParams | None = None
    sample_params: SampleParams | None = None
    mse_grid: MseGrid | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 1 << 63:
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {self.seed}")


def _real(raw: str) -> float:
    """A float; NaN and infinities would otherwise reach the integer domain."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _BOOLEANS:
        raise ValueError("expected a boolean")
    return _BOOLEANS[raw.lower()]


def _unless(word: str, parse):
    """``None`` for ``word`` (any case), else ``parse(raw)``."""
    return lambda raw: None if raw.lower() == word else parse(raw)


def _list(parse):
    """Comma-separated values; blank items are skipped, but one must remain."""

    def parse_list(raw: str) -> tuple:
        values = tuple(parse(item.strip()) for item in raw.split(",") if item.strip())
        if not values:
            raise ValueError("needs at least one value")
        return values

    return parse_list


# section -> {key: (dataclass field, parser)}.  A dotted field fills the
# nested dataclass that the outer field's default factory makes.
_SCHEMA = {
    "experiment": {
        "mode": ("mode", str),
        "seed": ("seed", int),
        "out": ("out", str),
    },
    "protocol": {
        "n": ("n", int),
        "gamma": ("gamma", _real),
        "rounds": ("rounds", int),
        "dim": ("dim", int),
        "clip": ("clip_bound", _real),
        "k": ("k", int),
        "q": ("q", int),
        "sigma": ("sigma", _real),
        "delta": ("delta", _real),
        "g_max": ("g_max", _unless("auto", _real)),
        "task": ("task", str),
        "iid": ("iid", _boolean),
        "samples_per_client": ("samples_per_client", int),
        "local_steps": ("local.steps", int),
        "learning_rate": ("local.learning_rate", _real),
        "batch_size": ("local.batch_size", _unless("full", int)),
    },
    "accountant": {
        "sigma": ("sigma", _real),
        "clip": ("clip_bound", _real),
        "k": ("k", int),
        "dim": ("dim", int),
        "gamma": ("gamma", _real),
        "rounds": ("rounds", int),
        "delta": ("delta", _real),
    },
    "sample": {
        "sigma_units": ("sigma_units", _real),
        "count": ("count", int),
    },
    "mse": {
        "dims": ("dims", _list(int)),
        "clients": ("clients", _list(int)),
        "ks": ("ks", _list(int)),
        "qs": ("qs", _list(int)),
        "sigmas": ("sigmas", _list(_real)),
        "gammas": ("gammas", _list(_real)),
        "g_maxes": ("g_maxes", _list(_real)),
        "clip": ("clip_bound", _real),
        "trials": ("trials", int),
    },
}


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    """``{field: value}`` for one section's keys, rejecting unknown keys."""
    values = {}
    for key, raw in parser[name].items() if name in parser else ():
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        field, parse = _SCHEMA[name][key]
        try:
            values[field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {raw}: {exc}") from None
    return values


def _build(cls, section: str, values: dict):
    """``cls`` from one section's ``{field: value}``; every field without a
    default must be set."""
    kwargs = {}
    for field, value in values.items():
        outer, _, inner = field.partition(".")
        if inner:
            kwargs.setdefault(outer, {})[inner] = value
        else:
            kwargs[field] = value
    keys = {field.partition(".")[0]: key for key, (field, _) in _SCHEMA[section].items()}
    missing = []
    for f in dataclasses.fields(cls):
        if f.name in kwargs and f.default_factory is not MISSING:
            kwargs[f.name] = f.default_factory(**kwargs[f.name])
        elif f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            missing.append(keys[f.name])
    if missing:
        raise ConfigError(f"[{section}] missing keys: {', '.join(missing)}")
    return cls(**kwargs)


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
    values = {name: _section(parser, name) for name in _SCHEMA}

    try:
        cfg = _build(ExperimentConfig, "experiment", values["experiment"])
        section, field, cls = _MODES[cfg.mode]
        if cls is RoundConfig:
            values[section]["seed"] = cfg.seed  # every stream of a run derives from it
        return dataclasses.replace(cfg, **{field: _build(cls, section, values[section])})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_real(x: float) -> str:
    """Reals in CSV output carry 17 significant digits (round-trip safe)."""
    return f"{x:.17g}"
