"""What the benchmark harness in ``bench/`` uses of the package.

The harness imports ``latticefl`` by name: it times the units of work
named in ``run.WORKLOADS``, sums per-layer times over the functions in
``run.ALIASES``, captures ``simulate.run_training`` and replays its rounds
unmasked.  A rename or a changed return shape would surface only in a
benchmark run; these tests catch it here.
"""

import importlib
import sys
from pathlib import Path

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
