"""Experiment-file parsing: expected values, defaults, required keys,
rejections, and a write-then-parse round trip."""

import configparser
import contextlib
import dataclasses
import io
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticefl import bounds, cli, simulate
from latticefl.accountant import AccountantState, compose
from latticefl.cli import main
from latticefl.compress import padded_dim
from latticefl.config import (
    _MODES,
    _SECTIONS,
    MODES,
    MSE_WORK_BUDGET,
    AccountantParams,
    ExperimentConfig,
    MseGrid,
    SampleParams,
    _boolean,
    _integer,
    _list,
    _parsers,
    _real,
    _unless,
    load_config,
)
from latticefl.errors import ConfigError
from latticefl.simulate import RoundConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402

STOCK_TRAIN = RoundConfig(
    n=100, gamma=0.1, rounds=50, dim=20, clip=0.5, k=33, q=4097, sigma=1.53,
    delta=1e-5, seed=4000, g_max=None, task="logistic", iid=True, samples_per_client=20,
    local_steps=1, learning_rate=1.0, batch_size=None,
)

STOCK = {
    "train.cfg": ExperimentConfig(
        mode="train", seed=4000, out="train_metrics.csv", round_config=STOCK_TRAIN
    ),
    "mse_bench.cfg": ExperimentConfig(
        mode="mse-bench", seed=8, out="mse_grid.csv",
        mse_grid=MseGrid(
            dims=(64,), clients=(4, 10), ks=(5, 9, 17), qs=(1001,), sigmas=(0.5, 1.0),
            gammas=(0.1,), g_maxes=(1.0,), clip=1.0, trials=1000,
        ),
    ),
    "accountant.cfg": ExperimentConfig(
        mode="accountant", seed=1,
        accountant_params=AccountantParams(
            sigma=4.78, clip=1.0, k=9, dim=20, gamma=0.1, rounds=50, delta=1e-5
        ),
    ),
    "sample.cfg": ExperimentConfig(
        mode="sample", seed=2, sample_params=SampleParams(sigma_units=1.0, count=1_000_000)
    ),
}

BENCH_SEED = 7896617691693857887  # bench_run.child_seed(0, 0)
BENCH_OUT = "bench-out.txt"


def bench_train(**changes):
    base = dict(
        n=2000, gamma=0.1, rounds=2, dim=200, clip=0.5, k=33, q=4097, sigma=1.53,
        delta=1e-5, seed=BENCH_SEED, g_max=None, task="logistic", iid=True,
        samples_per_client=20, local_steps=1, learning_rate=1.0, batch_size=None,
    )
    return RoundConfig(**{**base, **changes})


BENCH = {
    "train-cohort": ExperimentConfig(
        mode="train", seed=BENCH_SEED, out=BENCH_OUT, round_config=bench_train()
    ),
    "train-long": ExperimentConfig(
        mode="train", seed=BENCH_SEED, out=BENCH_OUT,
        round_config=bench_train(
            n=100, rounds=300, dim=1000, samples_per_client=200,
            local_steps=5, learning_rate=1.0, batch_size=32,
        ),
    ),
    "mse-grid": ExperimentConfig(
        mode="mse-bench", seed=BENCH_SEED, out=BENCH_OUT,
        mse_grid=MseGrid(
            dims=(64,), clients=(4, 10), ks=(5, 9, 17), qs=(1001,), sigmas=(0.5, 1.0),
            gammas=(0.1,), g_maxes=(1.0,), clip=1.0, trials=100,
        ),
    ),
    "sample-stream": ExperimentConfig(
        mode="sample", seed=BENCH_SEED, out=BENCH_OUT,
        sample_params=SampleParams(sigma_units=1.0, count=2_000_000),
    ),
}

MSE = "[experiment]\nmode = mse-bench\nseed = 1\n[mse]\n"
SAMPLE = "[experiment]\nmode = sample\nseed = 3\n[sample]\nsigma_units = 1.0\ncount = 5\n"
REQUIRED = {
    "experiment": SAMPLE,
    "protocol": (
        "[experiment]\nmode = train\nseed = 3\n[protocol]\nn = 10\ngamma = 0.5\nrounds = 2\n"
        "dim = 4\nclip = 1.0\nk = 5\nq = 101\nsigma = 0.5\ndelta = 1e-5\n"
    ),
    "accountant": (
        "[experiment]\nmode = accountant\nseed = 3\n[accountant]\nsigma = 2.0\nclip = 1.0\n"
        "k = 5\ndim = 4\ngamma = 0.5\nrounds = 3\ndelta = 1e-5\n"
    ),
    "sample": SAMPLE,
}


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if anything draws random values or runs a cell or the sampler."""

    def refuse(*args, **kwargs):
        raise AssertionError("drew random values for a rejected config")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(bounds, "empirical_mse", refuse)
    monkeypatch.setattr(cli, "sample_integer_gaussian", refuse)


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def without(text: str, key: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith(f"{key} ="))


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_configs_parse_to_the_expected_values(name):
    assert load_config(CONFIGS / name) == STOCK[name]


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_bench_configs_parse_to_the_expected_values(tmp_path, workload):
    path = tmp_path / "bench.cfg"
    bench_run.write_config(bench_run.WORKLOADS[workload], 0, 0, path, Path(BENCH_OUT))
    assert load_config(path) == BENCH[workload]


@pytest.mark.parametrize(
    "section, key",
    [("experiment", "mode"), ("experiment", "seed")]
    + [("protocol", k) for k in ("n", "gamma", "rounds", "dim", "clip", "k", "q", "sigma", "delta")]
    + [("accountant", k) for k in ("sigma", "clip", "k", "dim", "gamma", "rounds", "delta")]
    + [("sample", "sigma_units"), ("sample", "count")],
)
def test_missing_required_key_is_named(tmp_path, section, key):
    with pytest.raises(ConfigError, match=rf"\[{section}\] missing keys: {key}$"):
        load_config(write(tmp_path, without(REQUIRED[section], key)))


@pytest.mark.parametrize("mode", MODES)
def test_each_key_is_its_dataclass_field(mode):
    # no second name for a key: the dataclass a section builds takes its keys as they are
    section, _, cls = _MODES[mode]
    fields = {f.name for f in dataclasses.fields(cls)} - ({"seed"} if cls is RoundConfig else set())
    assert set(_SECTIONS[section]) == fields
    assert set(_SECTIONS["experiment"]) <= {f.name for f in dataclasses.fields(ExperimentConfig)}


# Each key's parser as a table, one kind per key: the reference that the parsers
# derived from the dataclasses' field types must agree with.
KINDS = {
    "int": _integer, "real": _real, "bool": _boolean, "str": str,
    "int list": _list(_integer), "real list": _list(_real),
    "auto or real": _unless("auto", _real), "full or int": _unless("full", _integer),
}
REFERENCE = {
    "experiment": {"mode": "str", "seed": "int", "out": "str"},
    "protocol": {
        "n": "int", "gamma": "real", "rounds": "int", "dim": "int", "clip": "real", "k": "int",
        "q": "int", "sigma": "real", "delta": "real", "g_max": "auto or real", "task": "str",
        "iid": "bool", "samples_per_client": "int", "local_steps": "int", "learning_rate": "real",
        "batch_size": "full or int",
    },
    "accountant": {
        "sigma": "real", "clip": "real", "k": "int", "dim": "int", "gamma": "real", "rounds": "int",
        "delta": "real",
    },
    "sample": {"sigma_units": "real", "count": "int"},
    "mse": {
        "dims": "int list", "clients": "int list", "ks": "int list", "qs": "int list",
        "sigmas": "real list", "gammas": "real list", "g_maxes": "real list", "clip": "real",
        "trials": "int",
    },
}
RAWS = ("3", "-2", "1.5", "1e400", "nan", "true", "AUTO", "Full", "4, 5", " , ", "x")


def parsed(parse, raw: str) -> tuple:
    """What ``parse`` makes of ``raw``: its value's repr (so 3 and 3.0
    differ), or its error message."""
    try:
        return "value", repr(parse(raw))
    except ValueError as exc:
        return "error", str(exc)


def test_derived_parsers_agree_with_the_reference_table():
    assert _SECTIONS.keys() == REFERENCE.keys()
    for section, kinds in REFERENCE.items():
        assert _SECTIONS[section].keys() == kinds.keys(), section
        for key, kind in kinds.items():
            for raw in RAWS:
                assert parsed(_SECTIONS[section][key], raw) == parsed(KINDS[kind], raw), (section, key, raw)


def test_a_field_type_with_no_parser_fails_the_derivation():
    odd = dataclasses.make_dataclass("Odd", [("n", "int"), ("z", "complex")])
    with pytest.raises(KeyError, match="complex"):
        _parsers(odd)
    assert _parsers(odd, skip=["z"]) == {"n": _integer}
    # [experiment]'s per-mode fields have no parser: only their skip lets the module import
    with pytest.raises(KeyError, match="RoundConfig"):
        _parsers(ExperimentConfig)


BIG = "1" + "0" * 400  # 10**400, past the float range


@pytest.mark.parametrize(
    "name, section, key",
    [("accountant.cfg", "accountant", k) for k in ("dim", "k", "rounds")]
    + [("train.cfg", "protocol", k) for k in ("n", "dim", "rounds", "samples_per_client")]
    + [("mse_bench.cfg", "mse", "dims"), ("sample.cfg", "sample", "count")],
)
def test_integers_of_2_63_or_more_exit_2_naming_the_key(tmp_path, capsys, no_draw, name, section, key):
    # each escaped as an OverflowError traceback at 10**400
    text = without((CONFIGS / name).read_text(), key)  # the key's section is the file's last one
    for value in (BIG, str(1 << 63), str(-(1 << 63))):
        config = write(tmp_path, text + f"\n{key} = {value}\n")
        assert main([STOCK[name].mode, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [{section}] {key} = {value}: must be below 2**63 in magnitude"]


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        # clip = 0 named g_max, which the file leaves auto; the others named no section or their own words
        ("train.cfg", "clip", "0", "[protocol] clip = 0.0: must be in (0, inf)"),
        ("train.cfg", "k", "1", "[protocol] k = 1: must be in [2, inf)"),
        ("train.cfg", "q", "0", "[protocol] q = 0: must be in [1, inf)"),
        ("accountant.cfg", "sigma", "0", "[accountant] sigma = 0.0: must be in (0, inf)"),
        ("accountant.cfg", "clip", "-1", "[accountant] clip = -1.0: must be in (0, inf)"),
        ("accountant.cfg", "k", "1", "[accountant] k = 1: must be in [2, inf)"),
        ("accountant.cfg", "dim", "0", "[accountant] dim = 0: must be in [1, inf)"),
    ],
)
def test_single_key_ranges_name_the_section_and_key(tmp_path, capsys, no_draw, name, key, value, message):
    text = without((CONFIGS / name).read_text(), key)  # the key's section is the file's last one
    config = write(tmp_path, text + f"\n{key} = {value}\n")
    assert main([STOCK[name].mode, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_omitted_optional_keys_take_the_dataclass_defaults(tmp_path):
    cfg = load_config(write(tmp_path, REQUIRED["protocol"]))
    assert cfg.out is None
    assert cfg.round_config == RoundConfig(
        n=10, gamma=0.5, rounds=2, dim=4, clip=1.0, k=5, q=101, sigma=0.5, delta=1e-5,
        seed=3,
    )
    rc = cfg.round_config
    assert (rc.local_steps, rc.learning_rate, rc.batch_size) == (1, 0.5, None)

    mse = "[experiment]\nmode = mse-bench\nseed = 3\n"
    assert load_config(write(tmp_path, mse)).mse_grid == MseGrid()
    partial = load_config(write(tmp_path, mse + "[mse]\ntrials = 7\nqs = 11, 13\n")).mse_grid
    assert partial == MseGrid(trials=7, qs=(11, 13))


def test_sentinel_and_boolean_values(tmp_path):
    text = REQUIRED["protocol"] + "g_max = 0.25\niid = no\nbatch_size = 4\ntask = linear\n"
    rc = load_config(write(tmp_path, text)).round_config
    assert (rc.g_max, rc.iid, rc.batch_size, rc.task) == (0.25, False, 4, "linear")
    text = REQUIRED["protocol"] + "g_max = AUTO\niid = Yes\nbatch_size = Full\n"
    rc = load_config(write(tmp_path, text)).round_config
    assert (rc.g_max, rc.iid, rc.batch_size) == (None, True, None)


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(REQUIRED["protocol"] + "turbo = yes\n", "turbo", id="turbo"),
        pytest.param(REQUIRED["protocol"] + "[plugins]\nname = x\n", "plugins", id="plugins"),
        pytest.param("[DEFAULT]\nseed = 5\n[experiment]\nmode = mse-bench\n", r"\[DEFAULT\]", id="DEFAULT"),
        pytest.param(REQUIRED["protocol"] + "[mse]\ndimz = 4\n", "dimz", id="dimz"),
        # the sections are checked in a fixed order, whatever the file's
        pytest.param(REQUIRED["protocol"] + "[mse]\ndimz = 4\n[accountant]\nturbo = 1\n",
                     r"'turbo' in section \[accountant\]", id="accountant before mse"),
        pytest.param(REQUIRED["protocol"] + "iid = maybe\n", "iid", id="iid"),
        pytest.param(REQUIRED["protocol"].replace("n = 10", "n = ten"), "n = ten", id="n = ten"),
        pytest.param(REQUIRED["protocol"].replace("mode = train", "mode = demo"), "mode", id="mode"),
        pytest.param(MSE + "sigmas = 1.0, nan\n", "sigmas", id="sigmas"),
        pytest.param(MSE + "g_maxes = inf\n", "g_maxes", id="g_maxes"),
        pytest.param(MSE + "gammas = 0.5, -inf\n", "gammas", id="gammas"),
        pytest.param(MSE + "clients = 2, x\n", "clients", id="clients"),
        pytest.param(MSE + "trials = 0\n", "trials", id="trials"),
        pytest.param(MSE + "clip = 0\n", "clip", id="clip"),
        # sigma**2 underflows to 0, so the RDP rate divides by zero
        pytest.param(REQUIRED["accountant"].replace("sigma = 2.0", "sigma = 1e-162"), "sigma = 1e-162",
                     id="sigma = 1e-162"),
        pytest.param(REQUIRED["accountant"].replace("sigma = 2.0", "sigma = 5e-324"), "sigma = 5e-324",
                     id="sigma = 5e-324"),
        # sensitivity**2 overflows
        pytest.param(REQUIRED["accountant"].replace("clip = 1.0", "clip = 1e160"), "sensitivity",
                     id="accountant clip = 1e160"),
    ],
)
def test_malformed_input_rejected(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("seed", [str(1 << 63), "100000000000000000000000", "-4"])
@pytest.mark.parametrize("command", ["train", "mse-bench", "accountant", "sample"])
def test_seed_override_is_checked_in_every_mode(tmp_path, capsys, no_draw, command, seed):
    config = CONFIGS / f"{command.replace('-', '_')}.cfg"
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [experiment] seed = ")
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "flag"])
@pytest.mark.parametrize("command", ["train", "mse-bench", "accountant", "sample"])
def test_out_in_a_missing_directory_or_naming_one_is_rejected_before_anything_is_drawn(
    tmp_path, capsys, no_draw, command, where
):
    stock = CONFIGS / f"{command.replace('-', '_')}.cfg"
    for out in (tmp_path / "missing" / "out.csv", tmp_path, f"{tmp_path / 'new'}/"):
        config, argv = stock, ["--out", str(out)]
        if where == "file":
            text = without(stock.read_text(), "out").replace("[experiment]", f"[experiment]\nout = {out}")
            config, argv = write(tmp_path, text), []
        assert main([command, "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [experiment] out = "), err
    assert not (tmp_path / "missing").exists() and not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["train", "mse-bench", "accountant", "sample"])
def test_seed_and_out_flags_write_what_the_edited_file_writes(tmp_path, capsys, command):
    parser = stock_parser(f"{command.replace('-', '_')}.cfg")
    flagged, edited = tmp_path / "flagged.csv", tmp_path / "edited.csv"
    with open(tmp_path / "stock.cfg", "w") as fh:
        parser.write(fh)
    parser["experiment"]["seed"], parser["experiment"]["out"] = "77", str(edited)
    with open(tmp_path / "edited.cfg", "w") as fh:
        parser.write(fh)
    assert main([command, "--config", str(tmp_path / "stock.cfg"), "--seed", "77", "--out", str(flagged)]) == 0
    printed = capsys.readouterr().out
    assert main([command, "--config", str(tmp_path / "edited.cfg")]) == 0
    assert capsys.readouterr().out == printed
    assert flagged.read_bytes() == edited.read_bytes()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("mse-bench", "sigmas", "-1"),
        ("mse-bench", "dims", ","),
        ("mse-bench", "dims", "1000000000"),
        ("mse-bench", "clients", "0"),
        ("mse-bench", "gammas", "1.5"),
        ("mse-bench", "g_maxes", "0"),
        ("mse-bench", "qs", "2147483649"),
        ("mse-bench", "trials", "4294967296"),
        ("mse-bench", "sigmas", "1e20"),
        ("mse-bench", "clients", "4097"),  # 1.6e9 client-coordinates at 1000 trials: past the work budget
        ("mse-bench", "gammas", "1e-310"),  # gamma**2 underflows in the bound
        ("mse-bench", "g_maxes", "5e-324"),  # the lattice step underflows
        ("mse-bench", "g_maxes", "1e308"),  # the rounds' sums overflow
        ("sample", "count", "1000000000000"),
        ("sample", "sigma_units", "1e20"),
        ("sample", "sigma_units", "1e-200"),
    ],
)
def test_rejected_at_parse_time_before_anything_is_drawn(tmp_path, capsys, no_draw, command, key, value):
    text = (CONFIGS / f"{command.replace('-', '_')}.cfg").read_text()
    # the edited key's section is the file's last one
    config = write(tmp_path, without(text, key) + f"\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_memory_budget_bounds_sample_count_and_mse_cells():
    SampleParams(sigma_units=1.0, count=2_000_000)  # the sample-stream workload's size
    SampleParams(sigma_units=1.0, count=200_000_000)  # 9 B a draw and 5 MiB: 1.68 GiB
    with pytest.raises(ConfigError, match="count"):
        SampleParams(sigma_units=1.0, count=250_000_000)  # 2.10 GiB
    with pytest.raises(ConfigError, match="clients"):
        MseGrid(clients=(300_000,))  # 128 B per client per padded coordinate: 2.3 GiB


def test_work_budget_bounds_mse_grids():
    # trials x the sum over cells of clients x d_pad: 1000 clients at d = 64
    # in one cell is 64,000 a trial
    trials = MSE_WORK_BUDGET // 64_000
    MseGrid(dims=(64,), clients=(1000,), ks=(5,), sigmas=(1.0,), trials=trials)
    with pytest.raises(ValueError, match="reduce trials, dims or clients"):
        MseGrid(dims=(64,), clients=(1000,), ks=(5,), sigmas=(1.0,), trials=trials + 1)
    with pytest.raises(ValueError, match="shorten ks"):
        MseGrid(dims=(64,), clients=(1000,), ks=(5, 7), sigmas=(1.0,), trials=trials)


# Malformed values tried at each key of each stock config, one key at a time.
FUZZ_VALUES = ("", "abc", "0", "-1", "nan", "inf", "1e30", BIG)
# The stock sizes cut so that each run that is accepted takes milliseconds;
# the key itself still takes every fuzz value.
FUZZ_SIZES = {"mse_bench.cfg": ("mse", "trials", "2"), "sample.cfg": ("sample", "count", "1000")}


def fuzz_cases():
    for name in sorted(STOCK):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(CONFIGS / name)
        for section in parser.sections():
            for key in parser[section]:
                yield pytest.param(name, section, key, id=f"{name}-{key}")


def is_finite_real(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def written_reals(command: str, cfg: ExperimentConfig, stdout: str) -> list:
    """The real cells a run printed or wrote, less the documented non-finite
    ones: epsilon at sigma = 0, the bound of a ``hypothesis`` cell,
    alpha_star at zero rounds, and the epsilon an accountant run without out
    prints when no order of its composed curve stays finite."""
    written = [] if cfg.out is None else Path(cfg.out).read_text().splitlines()
    if command == "sample":
        return written or stdout.splitlines()
    rows = [line.split(",") for line in written[1:]]
    if command == "accountant":
        printed = dict(line.split(" = ") for line in stdout.splitlines())
        p = cfg.accountant_params
        if p.rounds == 0:
            assert printed.pop("alpha_star") == "inf"
        elif printed["epsilon"] == "inf":
            state = AccountantState(p.sigma, p.sensitivity, p.gamma)
            assert cfg.out is None and not np.isfinite(compose(state.per_round, p.rounds)).any()
            del printed["epsilon"]
        return list(printed.values()) + [cell for row in rows for cell in row]
    cells = []
    for row in rows:
        if command == "train" and cfg.round_config.sigma == 0:
            assert row.pop(1) == "inf"  # epsilon
        if command == "mse-bench":
            flag = row.pop()
            if flag == "hypothesis":
                assert row.pop(9) == "nan"  # bound
        cells += row
    return cells


def test_an_accountant_curve_past_the_float_range_prints_no_undocumented_non_finite_real(tmp_path, capsys):
    # stock accountant.cfg with clip = 1e154: every order of the composed curve is inf
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / "accountant.cfg")
    parser["accountant"]["clip"] = "1e154"
    config = tmp_path / "acct.cfg"
    with open(config, "w") as fh:
        parser.write(fh)
    assert main(["accountant", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("epsilon = inf\n")
    assert all(map(is_finite_real, written_reals("accountant", load_config(config), stdout)))


@pytest.mark.parametrize("name, section, key", fuzz_cases())
def test_malformed_values_exit_cleanly(tmp_path, monkeypatch, capsys, name, section, key):
    # each value exits 0 with finite output or 2 with one error line
    monkeypatch.chdir(tmp_path)  # where the mutated configs' relative outputs go
    command = STOCK[name].mode
    for i, value in enumerate(FUZZ_VALUES):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(CONFIGS / name)
        if name in FUZZ_SIZES:
            size_section, size_key, size = FUZZ_SIZES[name]
            parser[size_section][size_key] = size
        parser[section][key] = value
        config = tmp_path / f"value-{i}.cfg"
        with open(config, "w") as fh:
            parser.write(fh)
        rc = main([command, "--config", str(config)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, value
        if rc == 2:
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), (value, err)
            continue
        assert rc == 0, (value, captured.err)
        cells = written_reals(command, load_config(config), captured.out)
        assert all(map(is_finite_real, cells)), value


# Values the fuzz property puts in place of one or two keys: zero, a negative,
# a subnormal, the float range's edge, non-finite values, 2**64, 10**400,
# nothing, junk, lists and non-ASCII digits (which int and float accept).
# Each ranged key's values inside and just outside its range come from
# test_configs_drawn_from_the_declared_ranges.
FUZZ_POOL = (
    "0", "-1", "5e-324", "1e308", "-1e308", "inf", "-inf", "nan",
    "18446744073709551616", BIG, "", "abc", "1,2", "0.5, 1e308", "\u0661\u0662", "\u0663.\u0665", "\uff17",
)
# The stock work keys cut so that each accepted run takes milliseconds (the
# accountant's work does not grow with its rounds).
FUZZ_WORK = {"train.cfg": ("protocol", "rounds", "3"), **FUZZ_SIZES}


def stock_parser(name: str) -> configparser.ConfigParser:
    """A stock config with its work key cut as ``FUZZ_WORK`` says."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / name)
    if name in FUZZ_WORK:
        section, key, size = FUZZ_WORK[name]
        parser[section][key] = size
    return parser


@st.composite
def stock_edits(draw):
    """A stock config's name and one or two of its keys, each with a value from the pool."""
    name = draw(st.sampled_from(sorted(STOCK)))
    parser = stock_parser(name)
    keys = [(section, key) for section in parser.sections() for key in parser[section]]
    edits = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(FUZZ_POOL)),
                          min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
    return name, edits


@settings(max_examples=200, deadline=None)
@given(case=stock_edits())
# a per-round rate past the float range and unbounded local work, and
# underflowing or overflowing lattice steps and a subsampling rate whose
# square underflows: each escaped with a traceback, a RuntimeWarning or no end
@example(case=("accountant.cfg", [(("accountant", "sigma"), "5e-324")]))
@example(case=("train.cfg", [(("protocol", "local_steps"), "18446744073709551616")]))
@example(case=("train.cfg", [(("protocol", "clip"), "5e-324")]))
@example(case=("train.cfg", [(("protocol", "g_max"), "5e-324")]))
@example(case=("mse_bench.cfg", [(("mse", "gammas"), "1e-310")]))
@example(case=("mse_bench.cfg", [(("mse", "g_maxes"), "0.5, 1e308")]))
@example(case=("mse_bench.cfg", [(("mse", "trials"), "\u0661\u0662"), (("mse", "g_maxes"), "5e-324")]))
# integers past the float range, and a delta whose reciprocal overflows:
# each escaped as an OverflowError traceback or printed epsilon = inf
@example(case=("accountant.cfg", [(("accountant", "rounds"), BIG)]))
@example(case=("train.cfg", [(("protocol", "n"), BIG)]))
@example(case=("accountant.cfg", [(("accountant", "delta"), "1e-310")]))
@example(case=("train.cfg", [(("protocol", "delta"), "1e-310")]))
# a finite per-round rate whose spent curve leaves the float range, written
# as inf; and zero rounds of it, which composed to NaN with a RuntimeWarning
@example(case=("accountant.cfg", [(("accountant", "clip"), "1e154")]))
@example(case=("accountant.cfg", [(("accountant", "clip"), "1e154"), (("accountant", "rounds"), "0")]))
def test_edited_stock_configs_exit_0_or_2_with_one_error_line(tmp_path_factory, case):
    # no exception or RuntimeWarning (the suite's filter makes it an error)
    # escapes, and an accepted run writes only finite reals
    name, edits = case
    parser = stock_parser(name)
    for (section, key), value in edits:
        parser[section][key] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    with open(tmp / "edited.cfg", "w", encoding="utf-8") as fh:
        parser.write(fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([STOCK[name].mode, "--config", str(tmp / "edited.cfg"), "--out", str(tmp / "out")])
    assert rc in (0, 2), (edits, stderr.getvalue())
    if rc == 2:
        err = stderr.getvalue().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (edits, err)
        return
    cfg = load_config(tmp / "edited.cfg", out=str(tmp / "out"))
    assert all(map(is_finite_real, written_reals(cfg.mode, cfg, stdout.getvalue()))), edits


# Where an inside draw of a size key stops, so that an accepted run takes
# milliseconds; every other ranged key is drawn from its whole interval.
RANGE_CAPS = {
    ("protocol", "n"): 200, ("protocol", "rounds"): 3, ("protocol", "samples_per_client"): 50,
    ("protocol", "local_steps"): 3, ("protocol", "batch_size"): 50, ("sample", "count"): 1000,
    ("mse", "trials"): 3,
}


def ranged_keys(section: str) -> list:
    """``(key, interval, integral)`` for each key of ``section`` whose field
    declares a range, in the order the fields are checked."""
    cls = ExperimentConfig if section == "experiment" else {s: c for s, _, c in _MODES.values()}[section]
    return [(f.name, f.metadata["range"], f.type.startswith("int")) for f in dataclasses.fields(cls)
            if "range" in f.metadata and f.name in _SECTIONS[section]]


def interval_parts(interval: str) -> tuple:
    """``(low, high, low_open, high_open)`` of an interval such as ``"(0, 1]"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return low, high, interval[0] == "(", interval[-1] == ")"


def inside(interval: str, integral: bool, cap):
    """Values inside ``interval``, integers no larger than ``cap``."""
    low, high, low_open, high_open = interval_parts(interval)
    if integral:
        return st.integers(int(low) + low_open, min(cap, int(high) - high_open if math.isfinite(high) else cap))
    return st.floats(low, high, exclude_min=low_open, exclude_max=high_open and math.isfinite(high),
                     allow_nan=False, allow_infinity=False)


def just_outside(interval: str, integral: bool) -> list:
    """The values next to the finite ends of ``interval``, outside it."""
    low, high, low_open, high_open = interval_parts(interval)
    if integral:
        return [int(low) - (not low_open)] + ([int(high) + (not high_open)] if math.isfinite(high) else [])
    beyond = [low if low_open else math.nextafter(low, -math.inf)]
    return beyond + ([high if high_open else math.nextafter(high, math.inf)] if math.isfinite(high) else [])


@st.composite
def ranged_configs(draw):
    """A stock config with every ranged key of its two sections drawn inside
    its declared interval, or, for up to two keys, just outside it; and the
    first of those keys' ``(section, key)`` (None when every value is inside)."""
    name = draw(st.sampled_from(sorted(STOCK)))
    parser = stock_parser(name)
    keys = [(section, *rest) for section in ("experiment", _MODES[STOCK[name].mode][0])
            for rest in ranged_keys(section)]
    outside = draw(st.sets(st.sampled_from(range(len(keys))), max_size=2))
    for i, (section, key, interval, integral) in enumerate(keys):
        if i in outside:
            value = draw(st.sampled_from(just_outside(interval, integral)))
        else:
            value = draw(inside(interval, integral, RANGE_CAPS.get((section, key), (1 << 63) - 1)))
        parser[section][key] = repr(value) if isinstance(value, float) else str(value)
    return name, parser, keys[min(outside)][:2] if outside else None


@settings(max_examples=300, deadline=None)
@given(case=ranged_configs())
def test_configs_drawn_from_the_declared_ranges(tmp_path_factory, case):
    # a value outside its range is rejected, naming its section and key
    # first; a config with every value inside is run, or rejected by a
    # rule that joins keys, naming its section, never by a range
    name, parser, first_outside = case
    tmp = tmp_path_factory.mktemp("ranged")
    with open(tmp / "drawn.cfg", "w") as fh:
        parser.write(fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([STOCK[name].mode, "--config", str(tmp / "drawn.cfg"), "--out", str(tmp / "out")])
    err = stderr.getvalue().splitlines()
    if first_outside is not None:
        section, key = first_outside
        assert rc == 2 and len(err) == 1 and err[0].startswith(f"error: [{section}] {key} = "), err
        return
    if rc == 1:  # local training diverged: a run-time failure
        assert name == "train.cfg" and err == ["error: update has NaN or infinite coordinates"]
        return
    if rc == 2:
        section = _MODES[STOCK[name].mode][0]
        assert len(err) == 1 and err[0].startswith(f"error: [{section}] ") and "must be in" not in err[0], err
        if parser.get("protocol", "g_max", fallback=None) == "auto" and "g_max" in err[0]:
            assert err[0].startswith("error: [protocol] g_max = auto derives ") and " from clip = " in err[0], err
        return
    assert rc == 0, err
    cfg = load_config(tmp / "drawn.cfg", out=str(tmp / "out"))
    assert all(map(is_finite_real, written_reals(cfg.mode, cfg, stdout.getvalue())))


reals = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
unit_open = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)


@st.composite
def round_config_values(draw):
    """``RoundConfig`` keyword arguments, each inside its key's range; some
    break a rule that joins keys."""
    n = draw(st.integers(1, 10_000))
    return dict(
        n=n,
        gamma=draw(st.floats(min_value=min(1.0, 1.0 / n + 1e-9), max_value=1.0)),
        rounds=draw(st.integers(0, 1000)),
        dim=draw(st.integers(1, 4096)),
        clip=draw(reals),
        k=draw(st.integers(1, 100)) * 2 + 1,
        q=draw(st.integers(1, 1 << 20)) * 2 + 1,
        sigma=draw(st.floats(min_value=0.0, max_value=1e6)),
        delta=draw(unit_open),
        seed=draw(st.integers(0, (1 << 63) - 1)),
        g_max=draw(st.none() | reals),
        task=draw(st.sampled_from(["logistic", "linear", "mlp"])),
        iid=draw(st.booleans()),
        samples_per_client=draw(st.integers(1, 500)),
        local_steps=draw(st.integers(1, 20)),
        learning_rate=draw(reals),
        batch_size=draw(st.none() | st.integers(1, 500)),
    )


def protocol_text(rc) -> str:
    """The ``[protocol]`` lines of ``rc``, which has ``RoundConfig``'s fields."""
    pairs = [
        ("n", rc.n), ("gamma", rc.gamma), ("rounds", rc.rounds), ("dim", rc.dim),
        ("clip", rc.clip), ("k", rc.k), ("q", rc.q), ("sigma", rc.sigma),
        ("delta", rc.delta), ("g_max", "auto" if rc.g_max is None else rc.g_max),
        ("task", rc.task), ("iid", str(rc.iid).lower()),
        ("samples_per_client", rc.samples_per_client), ("local_steps", rc.local_steps),
        ("learning_rate", rc.learning_rate),
        ("batch_size", "full" if rc.batch_size is None else rc.batch_size),
    ]
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in pairs)


@settings(max_examples=60, deadline=None)
@given(values=round_config_values(), out=st.none() | st.from_regex(r"[a-z][a-z0-9_.]{0,12}", fullmatch=True))
def test_written_train_config_parses_back(tmp_path_factory, values, out):
    # the file is rejected exactly when the dataclass is, with the same message
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    head = f"[experiment]\nmode = train\nseed = {values['seed']}\n" + ("" if out is None else f"out = {out}\n")
    path.write_text(head + "[protocol]\n" + protocol_text(SimpleNamespace(**values)))
    with contextlib.chdir(path.parent):  # where a relative out is written, which holds no directory by its name
        try:
            rc = RoundConfig(**values)
        except (ValueError, ConfigError) as exc:
            with pytest.raises(ConfigError) as info:
                load_config(path)
            assert str(info.value) == f"[protocol] {exc}"
            return
        assert load_config(path) == ExperimentConfig(mode="train", seed=rc.seed, out=out, round_config=rc)


@settings(max_examples=200, deadline=None)
@given(values=round_config_values())
def test_a_round_config_that_builds_plans(values):
    try:
        rc = RoundConfig(**values)
    except (ValueError, ConfigError):
        return
    plan = simulate.make_plan(rc)
    assert plan.cfg is rc and plan.m * plan.d * plan.d_pad > 0


@st.composite
def mse_grids(draw):
    def values(strategy):
        return tuple(draw(st.lists(strategy, min_size=1, max_size=3)))

    grid = MseGrid(
        dims=values(st.integers(1, 512)),
        clients=values(st.integers(1, 50)),
        ks=values(st.integers(1, 20).map(lambda i: 2 * i + 1)),
        qs=values(st.integers(0, 5000).map(lambda i: 2 * i + 1)),
        # clear of the sampler's lower limit, 2**-500 lattice steps, which
        # the conversion to and from real units could round across
        sigmas=values(st.just(0.0) | st.floats(min_value=1e-150, max_value=100.0)),
        gammas=values(st.floats(min_value=1e-6, max_value=1.0)),
        g_maxes=values(reals),
        clip=draw(reals),
        trials=1,
    )
    # up to 10,000 trials, as many as the work budget admits
    work = sum(n * padded_dim(d) for d, n, *_ in grid.cells())
    return dataclasses.replace(grid, trials=draw(st.integers(1, min(10_000, MSE_WORK_BUDGET // work))))


@settings(max_examples=60, deadline=None)
@given(grid=mse_grids(), seed=st.integers(0, (1 << 63) - 1))
def test_written_mse_config_parses_back(tmp_path_factory, grid, seed):
    def listed(items):
        return ", ".join(repr(v) for v in items)

    path = tmp_path_factory.mktemp("cfg") / "mse.cfg"
    path.write_text(
        f"[experiment]\nmode = mse-bench\nseed = {seed}\n[mse]\n"
        f"dims = {listed(grid.dims)}\nclients = {listed(grid.clients)}\nks = {listed(grid.ks)}\n"
        f"qs = {listed(grid.qs)}\nsigmas = {listed(grid.sigmas)}\ngammas = {listed(grid.gammas)}\n"
        f"g_maxes = {listed(grid.g_maxes)}\nclip = {grid.clip!r}\ntrials = {grid.trials}\n"
    )
    assert load_config(path) == ExperimentConfig(mode="mse-bench", seed=seed, mse_grid=grid)


@settings(max_examples=40, deadline=None)
@given(
    acc=st.builds(
        AccountantParams, sigma=reals, clip=reals, k=st.integers(2, 1000),
        dim=st.integers(1, 10**6), gamma=st.floats(min_value=1e-6, max_value=1.0),
        rounds=st.integers(0, 10**6), delta=unit_open,
    ),
    smp=st.builds(SampleParams, sigma_units=reals, count=st.integers(0, 10**7)),
)
def test_written_accountant_and_sample_configs_parse_back(tmp_path_factory, acc, smp):
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(
        "[experiment]\nmode = accountant\nseed = 5\n[accountant]\n"
        f"sigma = {acc.sigma!r}\nclip = {acc.clip!r}\nk = {acc.k}\ndim = {acc.dim}\n"
        f"gamma = {acc.gamma!r}\nrounds = {acc.rounds}\ndelta = {acc.delta!r}\n"
    )
    assert load_config(path).accountant_params == acc
    path.write_text(
        "[experiment]\nmode = sample\nseed = 5\n[sample]\n"
        f"sigma_units = {smp.sigma_units!r}\ncount = {smp.count}\n"
    )
    assert load_config(path).sample_params == smp
