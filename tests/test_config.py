"""Experiment-file parsing: expected values, defaults, required keys,
rejections, and a write-then-parse round trip."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefl import bounds, cli
from latticefl.cli import main
from latticefl.config import (
    DEFAULT_MSE_GRID,
    AccountantParams,
    ExperimentConfig,
    MseGrid,
    SampleParams,
    load_config,
)
from latticefl.errors import ConfigError
from latticefl.simulate import RoundConfig
from latticefl.tasks import LocalTrainerSpec

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402

STOCK_TRAIN = RoundConfig(
    n=100, gamma=0.1, rounds=50, dim=20, clip_bound=0.5, k=33, q=4097, sigma=1.53,
    delta=1e-5, seed=4000, g_max=None, task="logistic", iid=True, samples_per_client=20,
    local=LocalTrainerSpec(steps=1, learning_rate=1.0, batch_size=None),
)

STOCK = {
    "train.cfg": ExperimentConfig(
        mode="train", seed=4000, out="train_metrics.csv", round_config=STOCK_TRAIN
    ),
    "mse_bench.cfg": ExperimentConfig(
        mode="mse-bench", seed=8, out="mse_grid.csv",
        mse_grid=MseGrid(
            dims=(64,), clients=(4, 10), ks=(5, 9, 17), qs=(1001,), sigmas=(0.5, 1.0),
            gammas=(0.1,), g_maxes=(1.0,), clip_bound=1.0, trials=1000,
        ),
    ),
    "accountant.cfg": ExperimentConfig(
        mode="accountant", seed=1,
        accountant_params=AccountantParams(
            sigma=4.78, clip_bound=1.0, k=9, dim=20, gamma=0.1, rounds=50, delta=1e-5
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
        n=2000, gamma=0.1, rounds=2, dim=200, clip_bound=0.5, k=33, q=4097, sigma=1.53,
        delta=1e-5, seed=BENCH_SEED, g_max=None, task="logistic", iid=True,
        samples_per_client=20, local=LocalTrainerSpec(steps=1, learning_rate=1.0, batch_size=None),
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
            local=LocalTrainerSpec(steps=5, learning_rate=1.0, batch_size=32),
        ),
    ),
    "mse-grid": ExperimentConfig(
        mode="mse-bench", seed=BENCH_SEED, out=BENCH_OUT,
        mse_grid=MseGrid(
            dims=(64,), clients=(4, 10), ks=(5, 9, 17), qs=(1001,), sigmas=(0.5, 1.0),
            gammas=(0.1,), g_maxes=(1.0,), clip_bound=1.0, trials=100,
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


def test_omitted_optional_keys_take_the_dataclass_defaults(tmp_path):
    cfg = load_config(write(tmp_path, REQUIRED["protocol"]))
    assert cfg.out is None
    assert cfg.round_config == RoundConfig(
        n=10, gamma=0.5, rounds=2, dim=4, clip_bound=1.0, k=5, q=101, sigma=0.5, delta=1e-5,
        seed=3,
    )
    assert cfg.round_config.local == LocalTrainerSpec()

    mse = "[experiment]\nmode = mse-bench\nseed = 3\n"
    assert load_config(write(tmp_path, mse)).mse_grid == DEFAULT_MSE_GRID == MseGrid()
    partial = load_config(write(tmp_path, mse + "[mse]\ntrials = 7\nqs = 11, 13\n")).mse_grid
    assert partial == MseGrid(trials=7, qs=(11, 13))


def test_sentinel_and_boolean_values(tmp_path):
    text = REQUIRED["protocol"] + "g_max = 0.25\niid = no\nbatch_size = 4\ntask = linear\n"
    rc = load_config(write(tmp_path, text)).round_config
    assert (rc.g_max, rc.iid, rc.local.batch_size, rc.task) == (0.25, False, 4, "linear")
    text = REQUIRED["protocol"] + "g_max = AUTO\niid = Yes\nbatch_size = Full\n"
    rc = load_config(write(tmp_path, text)).round_config
    assert (rc.g_max, rc.iid, rc.local.batch_size) == (None, True, None)


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(REQUIRED["protocol"] + "turbo = yes\n", "turbo", id="turbo"),
        pytest.param(REQUIRED["protocol"] + "[plugins]\nname = x\n", "plugins", id="plugins"),
        pytest.param(REQUIRED["protocol"] + "[mse]\ndimz = 4\n", "dimz", id="dimz"),
        pytest.param(REQUIRED["protocol"] + "iid = maybe\n", "iid", id="iid"),
        pytest.param(REQUIRED["protocol"].replace("n = 10", "n = ten"), "n = ten", id="n = ten"),
        pytest.param(REQUIRED["protocol"].replace("mode = train", "mode = demo"), "mode", id="mode"),
        pytest.param(MSE + "sigmas = 1.0, nan\n", "sigmas", id="sigmas"),
        pytest.param(MSE + "g_maxes = inf\n", "g_maxes", id="g_maxes"),
        pytest.param(MSE + "gammas = 0.5, -inf\n", "gammas", id="gammas"),
        pytest.param(MSE + "clients = 2, x\n", "clients", id="clients"),
        pytest.param(MSE + "trials = 0\n", "trials", id="trials"),
        pytest.param(MSE + "clip = 0\n", "clip", id="clip"),
    ],
)
def test_malformed_input_rejected(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("seed", [str(1 << 63), "100000000000000000000000", "-4"])
@pytest.mark.parametrize("command", ["train", "mse-bench", "accountant", "sample"])
def test_seed_override_is_checked_in_every_mode(tmp_path, capsys, monkeypatch, command, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew random values for a rejected seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    config = CONFIGS / f"{command.replace('-', '_')}.cfg"
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("mse-bench", "sigmas", "-1"),
        ("mse-bench", "dims", ","),
        ("mse-bench", "dims", "1000000000"),
        ("mse-bench", "clients", "0"),
        ("mse-bench", "gammas", "1.5"),
        ("mse-bench", "g_maxes", "0"),
        ("sample", "count", "1000000000000"),
    ],
)
def test_rejected_at_parse_time_before_anything_is_drawn(tmp_path, capsys, monkeypatch, command, key, value):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew random values for a rejected config")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(bounds, "empirical_mse", no_draw)
    monkeypatch.setattr(cli, "sample_integer_gaussian", no_draw)
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
    with pytest.raises(ConfigError, match="count"):
        SampleParams(sigma_units=1.0, count=50_000_000)
    with pytest.raises(ConfigError, match="clients"):
        MseGrid(clients=(10_000,))


reals = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
unit_open = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)


@st.composite
def round_configs(draw):
    n = draw(st.integers(1, 10_000))
    return RoundConfig(
        n=n,
        gamma=draw(st.floats(min_value=min(1.0, 1.0 / n + 1e-9), max_value=1.0)),
        rounds=draw(st.integers(0, 1000)),
        dim=draw(st.integers(1, 4096)),
        clip_bound=draw(reals),
        k=draw(st.integers(1, 100)) * 2 + 1,
        q=draw(st.integers(1, 1 << 20)) * 2 + 1,
        sigma=draw(st.floats(min_value=0.0, max_value=1e6)),
        delta=draw(unit_open),
        seed=draw(st.integers(0, (1 << 63) - 1)),
        g_max=draw(st.none() | reals),
        task=draw(st.sampled_from(["logistic", "linear", "mlp"])),
        iid=draw(st.booleans()),
        samples_per_client=draw(st.integers(1, 500)),
        local=LocalTrainerSpec(
            steps=draw(st.integers(1, 20)),
            learning_rate=draw(reals),
            batch_size=draw(st.none() | st.integers(1, 500)),
        ),
    )


def protocol_text(rc: RoundConfig) -> str:
    pairs = [
        ("n", rc.n), ("gamma", rc.gamma), ("rounds", rc.rounds), ("dim", rc.dim),
        ("clip", rc.clip_bound), ("k", rc.k), ("q", rc.q), ("sigma", rc.sigma),
        ("delta", rc.delta), ("g_max", "auto" if rc.g_max is None else rc.g_max),
        ("task", rc.task), ("iid", str(rc.iid).lower()),
        ("samples_per_client", rc.samples_per_client), ("local_steps", rc.local.steps),
        ("learning_rate", rc.local.learning_rate),
        ("batch_size", "full" if rc.local.batch_size is None else rc.local.batch_size),
    ]
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in pairs)


@settings(max_examples=60, deadline=None)
@given(rc=round_configs(), out=st.none() | st.from_regex(r"[a-z][a-z0-9_.]{0,12}", fullmatch=True))
def test_written_train_config_parses_back(tmp_path_factory, rc, out):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    head = f"[experiment]\nmode = train\nseed = {rc.seed}\n" + ("" if out is None else f"out = {out}\n")
    path.write_text(head + "[protocol]\n" + protocol_text(rc))
    assert load_config(path) == ExperimentConfig(mode="train", seed=rc.seed, out=out, round_config=rc)


@st.composite
def mse_grids(draw):
    def values(strategy):
        return tuple(draw(st.lists(strategy, min_size=1, max_size=3)))

    return MseGrid(
        dims=values(st.integers(1, 512)),
        clients=values(st.integers(1, 50)),
        ks=values(st.integers(1, 20).map(lambda i: 2 * i + 1)),
        qs=values(st.integers(0, 5000).map(lambda i: 2 * i + 1)),
        sigmas=values(st.floats(min_value=0.0, max_value=100.0)),
        gammas=values(st.floats(min_value=1e-6, max_value=1.0)),
        g_maxes=values(reals),
        clip_bound=draw(reals),
        trials=draw(st.integers(1, 10_000)),
    )


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
        f"g_maxes = {listed(grid.g_maxes)}\nclip = {grid.clip_bound!r}\ntrials = {grid.trials}\n"
    )
    assert load_config(path) == ExperimentConfig(mode="mse-bench", seed=seed, mse_grid=grid)


@settings(max_examples=40, deadline=None)
@given(
    acc=st.builds(
        AccountantParams, sigma=reals, clip_bound=reals, k=st.integers(2, 1000),
        dim=st.integers(1, 10**6), gamma=st.floats(min_value=1e-6, max_value=1.0),
        rounds=st.integers(0, 10**6), delta=unit_open,
    ),
    smp=st.builds(SampleParams, sigma_units=reals, count=st.integers(0, 10**7)),
)
def test_written_accountant_and_sample_configs_parse_back(tmp_path_factory, acc, smp):
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(
        "[experiment]\nmode = accountant\nseed = 5\n[accountant]\n"
        f"sigma = {acc.sigma!r}\nclip = {acc.clip_bound!r}\nk = {acc.k}\ndim = {acc.dim}\n"
        f"gamma = {acc.gamma!r}\nrounds = {acc.rounds}\ndelta = {acc.delta!r}\n"
    )
    assert load_config(path).accountant_params == acc
    path.write_text(
        "[experiment]\nmode = sample\nseed = 5\n[sample]\n"
        f"sigma_units = {smp.sigma_units!r}\ncount = {smp.count}\n"
    )
    assert load_config(path).sample_params == smp
