"""What the benchmark harness in ``bench/`` uses of the package.

The harness imports ``latticefl`` by name: it times the units of work
named in ``run.WORKLOADS``, sums per-layer times over the functions in
``run.ALIASES``, counts draws through the sampler's public name, captures
``simulate.run_training`` and replays its rounds unmasked.  A rename, a
changed return shape or draws made past the traced name would surface
only in a benchmark run; these tests catch it here.
"""

import importlib
import sys
from pathlib import Path

from latticefl import cli, dgauss
from latticefl.simulate import RoundConfig, run_training
from latticefl.tasks import LocalTrainerSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import child  # noqa: E402
import run  # noqa: E402


def resolve(name: str):
    """``"module.attr[.attr...]"`` -> that object of ``latticefl.module``."""
    module, *path = name.split(".")
    obj = importlib.import_module("latticefl." + module)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_name_the_harness_traces_resolves():
    names = [w.unit for w in run.WORKLOADS.values()] + list(child.CAPTURE)
    names += [name for aliased in run.ALIASES.values() for name in aliased]
    for name in names:
        assert callable(resolve(name)), name


def test_unmasked_replay_of_a_captured_run():
    cfg = RoundConfig(
        n=12, gamma=0.5, rounds=3, dim=8, clip_bound=1.0, k=9, q=3001, sigma=0.5,
        delta=1e-5, seed=77, samples_per_client=10, local=LocalTrainerSpec(steps=2, batch_size=4),
    )
    replay = child.replay_unmasked(((cfg,), {}, run_training(cfg)))
    assert replay["identical"]
    assert len(replay["unmasked_ns"]) == cfg.rounds


def test_mse_bench_draws_go_through_the_traced_sampler(tmp_path):
    # the harness counts dgauss.draws from the results of the sampler's
    # public name, wrapped and rebound in every module; a draw made past
    # that name would go uncounted
    trials, d_pad = 150, 64
    config = tmp_path / "mse.cfg"
    config.write_text(
        "[experiment]\nmode = mse-bench\nseed = 3\n\n"
        f"[mse]\ndims = 60\nclients = 4\nks = 5\nqs = 1001\nsigmas = 0.5\n"
        f"gammas = 0.1\ng_maxes = 1.0\nclip = 1.0\ntrials = {trials}\n"
    )
    tracer = child.Tracer("bounds.empirical_mse")
    original = dgauss.sample_integer_gaussian
    traced = tracer.wrap(original, "dgauss.sample_integer_gaussian")
    assert child.rebind(original, traced) > 0
    try:
        assert cli.main(["mse-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        child.rebind(traced, original)
    assert tracer.counters["dgauss.draws"] == trials * d_pad
