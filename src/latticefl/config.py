"""Experiment configuration: flat ``key = value`` files with sections.

Each section builds one dataclass, whose fields are the section's keys,
parsed as their declared types say; unknown sections or keys are hard
errors so a typo cannot silently fall back to a default.  Each CLI mode
reads its own section plus ``[experiment]``.  The dataclass holds the
defaults (a key is required exactly when its field has none) and each
key's range (``simulate.ranged``), and runs every check of its mode but
``train``'s overflow budget, which the CLI checks next, still before anything
is drawn; an error names its section.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import math
from dataclasses import MISSING, dataclass
from pathlib import Path

from .accountant import base_curve
from .bounds import TRIALS_LIMIT, empirical_mse_bytes, mse_bound
from .compress import padded_dim, sensitivity
from .dgauss import check_sigma_units
from .errors import ConfigError, HypothesisViolated
from .lattice import LatticeSpec
from .secagg import wire_modulus
from .simulate import RoundConfig, check_memory_budget, check_ranges, ranged

# Peak bytes of the ``sample`` command: SAMPLE_BYTES_PER_DRAW a draw plus
# SAMPLE_BYTES_FIXED, from tracemalloc with 10% added.  A draw costs its
# int64 output, 8 B; the sampler's chunk buffers are fixed.  The fixed part
# peaks at 2.9 MB, at MAX_SIGMA_UNITS (2.0 MB at sigma_units = 1): the
# writer's arrays for one write chunk, whose text takes up to 21 B a line,
# with the generator besides.
SAMPLE_BYTES_PER_DRAW = 9
SAMPLE_BYTES_FIXED = 5 << 20

# Most client-coordinates an mse-bench grid may round, trials x the sum over cells of
# clients x d_pad: 186 times the 5.4e6 of the stock grid, which runs in about 0.9 s
# on a 2-vCPU desk machine, so an accepted grid runs for minutes at most.
MSE_WORK_BUDGET = 10**9


@dataclass(frozen=True)
class AccountantParams:
    sigma: float = ranged("(0, inf)")
    clip: float = ranged("(0, inf)")
    k: int = ranged("[2, inf)")
    dim: int = ranged("[1, inf)")
    gamma: float = ranged("(0, 1]")
    rounds: int = ranged("[0, inf)")
    delta: float = ranged("(0, 1)")

    def __post_init__(self):
        check_ranges(self)
        base_curve(self.sigma, self.sensitivity)  # ValueError on a per-round rate past the float range

    @property
    def sensitivity(self) -> float:
        return sensitivity(self.clip, padded_dim(self.dim), self.k)


@dataclass(frozen=True)
class SampleParams:
    sigma_units: float
    count: int = ranged("[0, inf)")

    def __post_init__(self):
        check_ranges(self)
        check_sigma_units(self.sigma_units)
        check_memory_budget(
            self.count * SAMPLE_BYTES_PER_DRAW + SAMPLE_BYTES_FIXED,
            f"count = {self.count} draws",
            "reduce count",
        )


@dataclass(frozen=True)
class MseGrid:
    """Cartesian product of the listed parameters, one bench cell each.

    The defaults are the stock 12-cell grid, every cell satisfying both
    of the bound's hypotheses: sigma >= 1/sqrt(2 pi) and gamma^2 n <= 1.
    A cell outside either is run and flagged ``hypothesis``.
    """

    dims: tuple[int, ...] = (64,)
    clients: tuple[int, ...] = (4, 10)
    ks: tuple[int, ...] = (5, 9, 17)
    qs: tuple[int, ...] = (1001,)
    sigmas: tuple[float, ...] = (0.5, 1.0)
    gammas: tuple[float, ...] = (0.1,)
    g_maxes: tuple[float, ...] = (1.0,)
    clip: float = ranged("(0, inf)", 1.0)
    trials: int = ranged(f"[1, {TRIALS_LIMIT})", 1000)

    def __post_init__(self):
        check_ranges(self)
        for cell in self.cells():
            d, n, k, q, su, gamma, g_max = cell
            try:  # the checks of the code that runs the cell; the bound's last, so its verdict skips none
                LatticeSpec(g_max=g_max, k=k, q=q)
                if su > 0:
                    check_sigma_units(su)
                wire_modulus(q, n)
                mse_bound(*cell)
            except HypothesisViolated:
                pass  # a verdict, not an error: the cell runs and is flagged
            except (ValueError, ConfigError) as exc:
                raise ValueError(f"mse cell (d, n, k, q, sigma, gamma, g_max) = {cell}: {exc}") from None
            check_memory_budget(
                empirical_mse_bytes(n, d), f"an mse cell of {n} clients at d={d}",
                "reduce dims or clients",
            )
        work = sum(n * padded_dim(d) for d, n, *_ in self.cells())
        if self.trials * work > MSE_WORK_BUDGET:
            raise ValueError(
                f"mse-bench would take {self.trials} trials x {work} client-coordinates summed over the cells, "
                f"above the budget of {MSE_WORK_BUDGET:.0e}; reduce trials, dims or clients, "
                "or shorten ks, qs, sigmas, gammas or g_maxes"
            )

    def cells(self):
        """``(d, n, k, q, sigma_units, gamma, g_max)`` per cell, the last key varying fastest."""
        return itertools.product(
            self.dims, self.clients, self.ks, self.qs, self.sigmas, self.gammas, self.g_maxes
        )


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
    seed: int = ranged(f"[0, {1 << 63})")
    out: str | None = None
    round_config: RoundConfig | None = None
    accountant_params: AccountantParams | None = None
    sample_params: SampleParams | None = None
    mse_grid: MseGrid | None = None

    def __post_init__(self):
        check_ranges(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.out == "":
            raise ValueError("out must name a file")
        if self.out is not None:
            out = Path(self.out)  # drops a trailing "/", which names a directory too
            if self.out.endswith("/") or out.is_dir() or not out.parent.is_dir():
                raise ValueError(f"out = {self.out} must name a file in an existing directory")


def _integer(raw: str) -> int:
    """An int below 2**63 in magnitude; a larger one overflows the float
    arithmetic that sizes and checks a run."""
    value = int(raw)
    if abs(value) >= 1 << 63:
        raise ValueError("must be below 2**63 in magnitude")
    return value


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


# a field's declared type, as written (annotations are strings here) -> its key's parser
_PARSERS = {
    "int": _integer,
    "float": _real,
    "bool": _boolean,
    "str": str,
    "tuple[int, ...]": _list(_integer),
    "tuple[float, ...]": _list(_real),
}
# key -> the word that sets its field, typed ``X | None``, to None
_NONE_WORDS = {"g_max": "auto", "batch_size": "full"}


def _parsers(cls, skip=()) -> dict:
    """``{key: parser}`` for the fields of ``cls`` not named in ``skip``, by their declared
    types; a type with no parser raises KeyError, so this module fails to import."""
    parsers = {}
    for f in dataclasses.fields(cls):
        if f.name not in skip:
            kind, optional, _ = f.type.partition(" | None")
            parse = _PARSERS[kind]
            parsers[f.name] = _unless(_NONE_WORDS[f.name], parse) if optional and f.name in _NONE_WORDS else parse
    return parsers


# section -> {key: parser}, in the order a file's sections are checked; [protocol]'s seed is [experiment]'s
_SECTIONS = {"experiment": _parsers(ExperimentConfig, skip=[field for _, field, _ in _MODES.values()])}
for _mode in ("train", "accountant", "sample", "mse-bench"):
    _SECTIONS[_MODES[_mode][0]] = _parsers(_MODES[_mode][2], skip=["seed"])


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    """``{key: value}`` for one section's keys, rejecting unknown keys."""
    values = {}
    for key, raw in parser[name].items() if name in parser else ():
        if key not in _SECTIONS[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            values[key] = _SECTIONS[name][key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {raw}: {exc}") from None
    return values


def _build(cls, section: str, values: dict):
    """``cls`` from one section's ``{key: value}``; every field without a
    default must be set, and every error names the section."""
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in values and f.default is MISSING]
    if missing:
        raise ConfigError(f"[{section}] missing keys: {', '.join(missing)}")
    try:
        return cls(**values)
    except (ValueError, ConfigError, OSError) as exc:  # OSError: an out path the file system cannot look up
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path: str | Path, seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment file; raises ConfigError.  A
    ``seed`` or ``out`` that is not None replaces the file's value before
    anything is built, so it is checked as the file's would be: ``out``
    must name a file in an existing directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # No header can name the section "", so no section supplies defaults
    # to the others: [DEFAULT] is one more unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:  # its message names the file and the line, over several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    values = {name: _section(parser, name) for name in _SECTIONS}
    values["experiment"].update({k: v for k, v in {"seed": seed, "out": out}.items() if v is not None})
    cfg = _build(ExperimentConfig, "experiment", values["experiment"])
    section, field, cls = _MODES[cfg.mode]
    if cls is RoundConfig:
        values[section]["seed"] = cfg.seed  # every stream of a run derives from it
    return dataclasses.replace(cfg, **{field: _build(cls, section, values[section])})


def format_real(x: float) -> str:
    """Reals in CSV output carry 17 significant digits (round-trip safe)."""
    return f"{x:.17g}"
