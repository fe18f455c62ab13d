import configparser
from pathlib import Path

import pytest

from latticefl import simulate
from latticefl.cli import main


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


def test_accountant_zero_rounds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ACCT_CFG.format(sigma=1.0, gamma=1.0, rounds=0, delta=1e-5))
    assert main(["accountant", "--config", cfg]) == 0
    assert "epsilon = 0" in capsys.readouterr().out


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
        ("k", "4"),
        ("q", "4"),
        ("k", "5001"),
        ("g_max", "-1"),
        ("q", "-3"),
    ],
)
def test_out_of_range_protocol_value_rejected(tmp_path, capsys, monkeypatch, key, value):
    # rejected before any task data is drawn: n = 1e9 would need 149 GiB,
    # and the lattice (k odd, q >= k, g_max > 0) is checked first
    def no_task(*args, **kwargs):
        raise AssertionError("task data drawn for a rejected config")

    monkeypatch.setattr(simulate, "make_task", no_task)
    assert_rejected_before_running(tmp_path, capsys, key, value)


def test_invalid_mode_value(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG.replace("mode = train", "mode = demo"))
    assert main(["train", "--config", cfg]) == 2


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
