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

from latticefl import cli, dgauss, simulate

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


def test_unmasked_replay_of_a_captured_run(tmp_path):
    # the call is captured as the harness captures it, from the CLI's own
    # call of run_training, so a change to that call shows here
    config = tmp_path / "train.cfg"
    config.write_text(
        "[experiment]\nmode = train\nseed = 77\n\n"
        "[protocol]\nn = 12\ngamma = 0.5\nrounds = 3\ndim = 8\nclip = 1.0\nk = 9\nq = 3001\n"
        "sigma = 0.5\ndelta = 1e-5\nsamples_per_client = 10\nlocal_steps = 2\nbatch_size = 4\n"
    )
    tracer = child.Tracer("simulate.run_round")
    original = simulate.run_training
    traced = tracer.wrap(original, "simulate.run_training")
    assert child.rebind(original, traced) > 0
    try:
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        child.rebind(traced, original)
    replay = child.replay_unmasked(tracer.captured["simulate.run_training"])
    assert replay["identical"]
    assert len(replay["unmasked_ns"]) == 3


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
