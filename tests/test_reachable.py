"""Every function and method in ``src/latticefl`` runs under some CLI command.

The package's import and one small run of each command (each task, a
mini-batch non-IID run, a noiseless mse-bench cell) run in-process under
``sys.setprofile``, on a fresh import of the package.  A definition whose
code object never starts is code that no command needs: it belongs in
the tests if they use it, and nowhere otherwise.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# Definitions no command runs but the bench harness calls, each checked
# against bench/run.py so that an entry cannot outlive its use.
ALLOWED = {"latticefl.dgauss.DiscreteGaussian.variance_upper_bound"}

CONFIGS = {
    "train-linear": ("train", "[protocol]\ntask = linear\nsigma = 0\n"),
    "train-logistic": (
        "train",
        "[protocol]\ntask = logistic\nsigma = 0.5\niid = false\nlocal_steps = 2\nbatch_size = 2\n",
    ),
    "train-mlp": ("train", "[protocol]\ntask = mlp\nsigma = 0.5\n"),
    "mse-bench": (
        "mse-bench",
        "[mse]\ndims = 4\nclients = 2\nks = 5\nqs = 101\nsigmas = 0, 1.0\ntrials = 2\n",
    ),
    "accountant": (
        "accountant",
        "[accountant]\nsigma = 2.0\nclip = 1.0\nk = 9\ndim = 4\ngamma = 0.5\nrounds = 2\ndelta = 1e-5\n",
    ),
    "sample": ("sample", "[sample]\nsigma_units = 1.0\ncount = 10\n"),
}
TRAIN_SIZES = (
    "n = 4\ngamma = 0.5\nrounds = 2\ndim = 4\nclip = 1.0\nk = 5\nq = 101\ndelta = 1e-5\nsamples_per_client = 4\n"
)


def definitions(module):
    """``{qualified name: code object}`` of each function and method written
    in the module's own file, and of each of its dataclasses' ``__init__``
    (a class no command builds has no method that runs)."""
    found = {}
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [obj]
        if inspect.isclass(obj):
            members = list(vars(obj).values())
            if dataclasses.is_dataclass(obj):
                found[f"{module.__name__}.{obj.__qualname__}"] = obj.__init__.__code__
        for member in members:
            member = getattr(member, "fget", None) or getattr(member, "__func__", member)
            code = getattr(inspect.unwrap(member), "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                found[f"{module.__name__}.{member.__qualname__}"] = code
    return found


def test_every_definition_runs_under_a_command(tmp_path, capsys):
    for name, (mode, section) in CONFIGS.items():
        if mode == "train":
            section += TRAIN_SIZES
        out = tmp_path / f"{name}.out"
        (tmp_path / f"{name}.cfg").write_text(f"[experiment]\nmode = {mode}\nseed = 1\nout = {out}\n{section}")

    saved = {name: m for name, m in sys.modules.items() if name.partition(".")[0] == "latticefl"}
    for name in saved:
        del sys.modules[name]
    seen = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code))
    try:
        cli = importlib.import_module("latticefl.cli")
        codes = [cli.main([mode, "--config", str(tmp_path / f"{name}.cfg")]) for name, (mode, _) in CONFIGS.items()]
    finally:
        sys.setprofile(previous)
        fresh = [sys.modules.pop(name) for name in list(sys.modules) if name.partition(".")[0] == "latticefl"]
        sys.modules.update(saved)
    assert codes == [0] * len(CONFIGS), capsys.readouterr().err

    bench = BENCH_RUN.read_text()
    for name in ALLOWED:
        assert name.rpartition(".")[2] in bench, f"{name} is allowed for bench/run.py, which no longer calls it"
    unreached = sorted(
        name
        for module in fresh
        for name, code in definitions(module).items()
        if code not in seen and name not in ALLOWED
    )
    assert not unreached, "defined in src/latticefl but run by no command:\n" + "\n".join(unreached)
