import argparse
import configparser
import io
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticefl
from latticefl import cli, simulate
from latticefl.cli import WRITE_CHUNK, build_parser, cmd_sample, main, write_int_lines
from latticefl.config import MODES, SAMPLE_BYTES_FIXED, SAMPLE_BYTES_PER_DRAW, ExperimentConfig, SampleParams
from latticefl.dgauss import MAX_SIGMA_UNITS, MIN_SIGMA_UNITS

from helpers import sample_integer_gaussian_reference


def write_cfg(tmp_path: Path, text: str, name="exp.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRAIN_CFG = """
[experiment]
mode = train
seed = 5

[protocol]
n = 20
gamma = 0.25
rounds = 3
dim = 8
clip = 1.0
k = 9
q = 3001
sigma = 0.2
delta = 1e-5
"""

SAMPLE_CFG = """
[experiment]
mode = sample
seed = 9

[sample]
sigma_units = 1.0
count = {count}
"""

ACCT_CFG = """
[experiment]
mode = accountant
seed = 1

[accountant]
sigma = {sigma}
clip = 0.25
k = 3
dim = 4
gamma = {gamma}
rounds = {rounds}
delta = {delta}
"""


MSE_CFG = """
[experiment]
mode = mse-bench
seed = 4

[mse]
dims = 16
clients = 4
ks = 5
qs = 1001
sigmas = 1.0
gammas = 0.5
g_maxes = 1.0
trials = 30
"""

IMPORT_GUARD = """
import sys
from latticefl.cli import main
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
for command, config, out in {runs!r}:
    assert main([command, "--config", config, "--out", out]) == 0, command
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(loaded)
"""


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test-only dependency: importing the CLI and running each
    # command on a small config, in a fresh interpreter, loads none of it
    configs = {
        "train": TRAIN_CFG,
        "mse-bench": MSE_CFG,
        "accountant": ACCT_CFG.format(sigma=2.0, gamma=0.1, rounds=100, delta=1e-5),
        "sample": SAMPLE_CFG.format(count=1000),
    }
    runs = [
        (command, write_cfg(tmp_path, text, f"{command}.cfg"), str(tmp_path / f"{command}.out"))
        for command, text in configs.items()
    ]
    src = str(Path(latticefl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD.format(runs=runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([[]] * (1 + len(runs)))
    assert all(Path(out).stat().st_size > 0 for _, _, out in runs)


def test_missing_config_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["train", "--config", missing]) == 2
    assert missing in capsys.readouterr().err


def test_train_writes_expected_rows(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out = tmp_path / "run.csv"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,epsilon,delta,loss,accuracy,bytes_per_client,mse_round"
    assert len(lines) == 1 + 3  # header + one row per round


def test_train_builds_the_task_once(tmp_path, monkeypatch):
    # the plan the CLI checks for overflow is the one the run uses
    built, make_task = [], simulate.make_task

    def counting_make_task(*args, **kwargs):
        built.append(args)
        return make_task(*args, **kwargs)

    monkeypatch.setattr(simulate, "make_task", counting_make_task)
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run.csv")]) == 0
    assert len(built) == 1


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--seed", "77", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG + "\nturbo = yes\n")
    assert main(["train", "--config", cfg]) == 2
    assert "turbo" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG + "\n[plugins]\nname = x\n")
    assert main(["train", "--config", cfg]) == 2
    assert "plugins" in capsys.readouterr().err


def test_mode_command_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    assert main(["sample", "--config", cfg]) == 2


def test_overflow_guard_and_override(tmp_path, capsys):
    risky = TRAIN_CFG.replace("q = 3001", "q = 11").replace("sigma = 0.2", "sigma = 2.0")
    cfg = write_cfg(tmp_path, risky)
    out = tmp_path / "r.csv"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "overflow" in capsys.readouterr().err
    assert main(["train", "--config", cfg, "--out", str(out), "--override-overflow-check"]) == 0


@pytest.mark.parametrize("command", ["mse-bench", "accountant", "sample"])
def test_overflow_override_is_train_only(command):
    config = Path(__file__).resolve().parent.parent / "configs" / f"{command.replace('-', '_')}.cfg"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--override-overflow-check"])
    assert exc.value.code == 2


def test_sample_empty_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAMPLE_CFG.format(count=0))
    assert main(["sample", "--config", cfg]) == 0
    assert capsys.readouterr().out == ""


def test_sample_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAMPLE_CFG.format(count=50))
    assert main(["sample", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--config", cfg]) == 0
    assert capsys.readouterr().out == first
    values = [int(v) for v in first.strip().split("\n")]
    assert len(values) == 50


def str_lines(z) -> bytes:
    return "".join(f"{int(v)}\n" for v in z).encode()


INT64_EDGES = [-(2**63), -(2**63) + 1, 2**63 - 1, 0] + [
    sign * value for k in range(1, 19) for value in (10**k, 10**k - 1) for sign in (1, -1)
]


def written(z) -> bytes:
    out = io.BytesIO()
    write_int_lines(z, out)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from(INT64_EDGES), max_size=300))
def test_format_int_lines_equals_str(values):
    z = np.array(values, dtype=np.int64)
    assert written(z) == str_lines(z)


@pytest.mark.parametrize("size", [0, 1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1])
def test_format_int_lines_at_chunk_sizes(size):
    rng = np.random.default_rng(size)
    z = rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64, endpoint=True)
    z[: len(INT64_EDGES)] = INT64_EDGES[:size]
    assert written(z) == str_lines(z)


BLOCKS = {
    "edges": np.resize(np.array(INT64_EDGES, dtype=np.int64), WRITE_CHUNK),
    "widest": np.full(WRITE_CHUNK, -(2**63), dtype=np.int64),  # 21 bytes a line, the most there is
    "digits": np.arange(WRITE_CHUNK, dtype=np.int64) % 19 - 9,  # one digit, either sign
}


@pytest.mark.parametrize("first, second", [("edges", "digits"), ("digits", "edges"), ("widest", "digits")])
def test_write_int_lines_wide_and_narrow_blocks(first, second):
    # The buffers are reused block to block: no byte of a wide block may
    # reach a narrow one or the reverse, a block of the widest lines fills
    # the text buffer, and the count ends on a partial block whose rows
    # hold other widths than the same rows of the first.
    z = np.concatenate([BLOCKS[first], BLOCKS[second], BLOCKS[first][1:1002]])
    assert written(z) == str_lines(z)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from(INT64_EDGES) | st.integers(-9, 9), max_size=60),
)
def test_write_int_lines_in_short_chunks(chunk, values):
    # many blocks of mixed widths per example, so a row's state carried
    # from one block into the next shows
    z = np.array(values, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "WRITE_CHUNK", chunk)
        assert written(z) == str_lines(z)


FAULT_GUARD = """
import io
import resource

import numpy as np
from latticefl.cli import WRITE_CHUNK, write_int_lines
from latticefl.dgauss import sample_integer_gaussian


class Recorder(io.BytesIO):
    # the process's minor page faults at each block's write
    def write(self, data):
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return super().write(data)


z = sample_integer_gaussian(1.0, np.random.default_rng(0), 32 * WRITE_CHUNK)
sink = Recorder()
for _ in range(2):  # the first pass grows the sink to the whole text
    sink.seek(0)
    sink.faults = []
    write_int_lines(z, sink)
print(sink.faults[31] - sink.faults[1])
"""


def test_write_int_lines_takes_no_fresh_pages_per_block():
    # A block's text is made in the buffers of the first: blocks 3 to 32
    # of sigma_units = 1 draws add fewer than one page fault a block
    # (fresh per-block temporaries cost about 460 a block).  A fresh
    # interpreter, so that no other test's heap is counted.
    pytest.importorskip("resource")
    src = str(Path(latticefl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FAULT_GUARD], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 30


POLICY_GUARD = """
import ctypes
import resource
import sys

opened = []  # each library the process opens through ctypes from here on
real_cdll = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: opened.append(name) or real_cdll(name, *args, **kwargs)
import numpy as np
from latticefl import cli

at_import = list(opened)
assert cli.main(["accountant", "--config", sys.argv[1]]) == 0
cli.keep_freed_pages()  # a second call is harmless
later = []  # faults of the cycles after the first, per block size
for size in (1 << 17, 3 << 20):  # 1 MiB, then 24 MiB (below the 32 MiB cap)
    faults = []
    for _ in range(20):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        block = np.ones(size)  # every page touched
        del block
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    later.append(sum(faults[1:]))
print(at_import.count(None), opened.count(None), *later)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's mallopt")
def test_cli_main_keeps_freed_pages_for_reuse(tmp_path):
    # In a fresh interpreter, importing the CLI sets nothing; main sets the
    # policy, and then a freed block's pages serve the next one: the cycles
    # after the first take no new page faults, for a 1 MiB block and for a
    # 24 MiB one.  Without the policy glibc maps the first 1 MiB block,
    # raises its thresholds when it is freed, and grows the heap by a fresh
    # 1 MiB for the second (about 235 faults); a 24 MiB block is mapped
    # afresh on every cycle.  So is it under any mmap threshold below
    # 24 MiB, or a trim threshold below 24 MiB, which returns it to the
    # kernel on every free.
    cfg = write_cfg(tmp_path, ACCT_CFG.format(sigma=2.0, gamma=0.1, rounds=10, delta=1e-5))
    src = str(Path(latticefl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", POLICY_GUARD, cfg], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, calls, small, large = map(int, proc.stdout.splitlines()[-1].split())
    assert (at_import, calls) == (0, 2)  # the C library, opened once per call
    assert small <= 8
    assert large <= 8


@pytest.mark.parametrize("count", [0, 1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1])
def test_sample_to_stdout_and_to_a_file_write_the_same_lines(tmp_path, capsys, count):
    cfg = write_cfg(tmp_path, SAMPLE_CFG.format(count=count))
    assert main(["sample", "--config", cfg]) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "draws.txt"
    out.write_text("stale")  # replaced, even by no draws
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    rng = np.random.default_rng(np.random.SeedSequence([9, 0]))
    assert out.read_bytes() == stdout == str_lines(sample_integer_gaussian_reference(1.0, rng, count))


@pytest.mark.parametrize("sigma_units", [MIN_SIGMA_UNITS, 1.0, 1e9, MAX_SIGMA_UNITS])
@pytest.mark.parametrize("count", [0, 1, 64, 10**4, WRITE_CHUNK, 10**6, 4 * 10**6])
def test_sample_bytes_bound_the_peak(tmp_path, sigma_units, count):
    cfg = ExperimentConfig(
        mode="sample", seed=3, out=str(tmp_path / "draws.txt"),
        sample_params=SampleParams(sigma_units=sigma_units, count=count),
    )
    tracemalloc.start()
    try:
        cmd_sample(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= count * SAMPLE_BYTES_PER_DRAW + SAMPLE_BYTES_FIXED


def test_accountant_zero_rounds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ACCT_CFG.format(sigma=1.0, gamma=1.0, rounds=0, delta=1e-5))
    out = tmp_path / "curve.csv"
    assert main(["accountant", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["epsilon = 0", "alpha_star = inf"]
    assert out.read_text().splitlines() == ["alpha,eps"]


def test_accountant_known_point(tmp_path, capsys):
    # sensitivity(0.25, 4, 3) = 1, sigma 1, one round, delta = e^-1:
    # the alpha = 2 candidate gives epsilon exactly 2
    cfg = write_cfg(
        tmp_path, ACCT_CFG.format(sigma=1.0, gamma=1.0, rounds=1, delta=0.36787944117144233)
    )
    out = tmp_path / "curve.csv"
    assert main(["accountant", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "epsilon = 2" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,eps"
    assert len(lines) > 60


@pytest.mark.parametrize(
    "clip, finite",
    [
        ("2e152", True),  # a finite curve whose 50-round composition passes the float range at high orders
        ("1e153", False),  # the curve itself passes the float range
    ],
)
def test_accountant_curve_past_the_float_range_warns_nothing(tmp_path, capsys, clip, finite):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(Path(__file__).resolve().parent.parent / "configs" / "accountant.cfg")
    parser["accountant"]["sigma"] = "1.0"
    parser["accountant"]["clip"] = clip
    cfg = tmp_path / "acct.cfg"
    with open(cfg, "w") as fh:
        parser.write(fh)
    assert main(["accountant", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    epsilon = float(captured.out.splitlines()[0].removeprefix("epsilon = "))
    assert epsilon < float("inf") if finite else epsilon == float("inf")


def test_accountant_doubling_rounds_ratio(tmp_path, capsys):
    def eps_at(rounds):
        cfg = write_cfg(
            tmp_path,
            ACCT_CFG.format(sigma=8.0, gamma=0.1, rounds=rounds, delta=1e-5),
            name=f"acct{rounds}.cfg",
        )
        assert main(["accountant", "--config", cfg]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        return float(line.split("=")[1])

    assert eps_at(800) / eps_at(400) <= 2.2


def test_mse_bench_single_cell(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[experiment]
mode = mse-bench
seed = 4

[mse]
dims = 16
clients = 4
ks = 5
qs = 1001
sigmas = 1.0
gammas = 0.5
g_maxes = 1.0
trials = 30
""",
    )
    out = tmp_path / "mse.csv"
    assert main(["mse-bench", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("ok")


def test_mse_bench_flags_hypothesis_rows(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[experiment]
mode = mse-bench
seed = 4

[mse]
dims = 16
clients = 4
ks = 5
qs = 1001
sigmas = 0.2
gammas = 0.5
g_maxes = 1.0
trials = 10
""",
    )
    out = tmp_path / "mse.csv"
    assert main(["mse-bench", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith("hypothesis")


def test_mse_bench_default_grid_unflagged(tmp_path):
    # the stock grid (12 cells) must produce zero flagged rows; trials
    # reduced to keep the check quick, cells unchanged
    cfg = write_cfg(
        tmp_path,
        """
[experiment]
mode = mse-bench
seed = 8

[mse]
trials = 50
""",
    )
    out = tmp_path / "grid.csv"
    assert main(["mse-bench", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.endswith("ok") for row in rows)


def test_mse_bench_rerun_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[experiment]
mode = mse-bench
seed = 6

[mse]
dims = 16
clients = 4
ks = 5
qs = 1001
sigmas = 1.0
gammas = 0.5
g_maxes = 1.0
trials = 20
""",
    )
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["mse-bench", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["mse-bench", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def assert_rejected_before_running(tmp_path, capsys, key, value):
    """One [protocol] key of the stock train config edited: exit 2 with one
    error line naming the key, and no output written."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(Path(__file__).resolve().parent.parent / "configs" / "train.cfg")
    parser["protocol"][key] = value
    cfg = tmp_path / "bad.cfg"
    with open(cfg, "w") as fh:
        parser.write(fh)
    out = tmp_path / "run.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize(
    "key, value",
    [("learning_rate", "nan"), ("clip", "inf"), ("clip", "nan"), ("sigma", "inf"), ("g_max", "nan")],
)
def test_non_finite_protocol_value_rejected(tmp_path, capsys, key, value):
    assert_rejected_before_running(tmp_path, capsys, key, value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("samples_per_client", "0"),
        ("samples_per_client", "-3"),
        ("n", "1000000000"),
        ("rounds", "20000000"),  # 20e6 aggregates of 20 floats: 3.2 GB kept by the run
        ("k", "4"),
        ("q", "4"),
        ("k", "5001"),
        ("g_max", "-1"),
        ("g_max", "5e-324"),  # the lattice step underflows
        ("g_max", "1e308"),  # and overflows
        ("q", "-3"),
        ("q", "429496731"),
        ("sigma", "1e19"),  # sigma / step about 2e20 lattice steps: past the sampler's range
        ("local_steps", "18446744073709551616"),  # 2**64: no integer parses at 2**63 or above
        ("local_steps", "100000000000"),  # 1e11 steps of 20 points at d = 20: past the local work budget
    ],
)
def test_out_of_range_protocol_value_rejected(tmp_path, capsys, monkeypatch, key, value):
    # rejected before any task data is drawn: n = 1e9 would need 149 GiB,
    # and the lattice (k odd, q >= k, g_max > 0) and the wire group (10 q
    # below 2**32) are checked first
    def no_task(*args, **kwargs):
        raise AssertionError("task data drawn for a rejected config")

    monkeypatch.setattr(simulate, "make_task", no_task)
    line = assert_rejected_before_running(tmp_path, capsys, key, value)
    if value == "100000000000":
        assert f"above the budget of {simulate.LOCAL_WORK_BUDGET:.0e} point-coordinate steps" in line


def test_logistic_task_without_a_feature_rejected(tmp_path, capsys):
    # dim = 1 leaves only the bias; make_task refuses it before it draws
    # anything, so the case cannot join the ones above, which stub make_task
    assert_rejected_before_running(tmp_path, capsys, "dim", "1")


def test_non_finite_model_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate.compress, "unrotate", lambda agg, rotation, d: np.full(d, np.inf))
    out = tmp_path / "run.csv"
    assert main(["train", "--config", write_cfg(tmp_path, TRAIN_CFG), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: model left the finite range at round 1"]
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("mode = train\n", 1, id="no section header"),
        pytest.param("[experiment]\nmode = train\nseed = 1\nmode = train\n", 4, id="duplicate key"),
        pytest.param("[experiment]\nmode = train\n\n[experiment]\n", 4, id="duplicate section"),
        pytest.param("[experiment]\nmode = train\nseed\n", 3, id="key without ="),
    ],
)
def test_unparsable_config_exits_2_with_one_line_naming_file_and_line(tmp_path, capsys, text, line):
    cfg = write_cfg(tmp_path, text)
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and cfg in err[0], err
    assert re.search(rf"\bline:? {line}\b", err[0]), err


def test_invalid_mode_value(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG.replace("mode = train", "mode = demo"))
    assert main(["train", "--config", cfg]) == 2


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_subcommands_are_the_config_modes():
    (sub,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    assert tuple(sub.choices) == MODES
