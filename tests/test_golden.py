"""Golden digests of the CLI outputs on the stock configs.

Rerun tests only show that a run matches itself; these pin the bytes, so
a refactor that silently changes any number fails here.  A digest may
change only together with a note in CHANGES.md saying why.
"""

import configparser
import hashlib
import json
import sys
from pathlib import Path

import pytest

from latticefl.cli import main
from latticefl.config import load_config
from latticefl.simulate import run_training

from helpers import record_wire, write_payload_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402

BENCH_DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text())

# Stock mse-bench grid with fewer trials than configs/mse_bench.cfg, so the
# whole module stays within a few seconds.
MSE_TRIALS = 20

GOLDEN = {
    "train": "1ab35122ed1481c3aac8097060bd77ed2c878f84c0bf710b2c4348768f38f8c2",
    "mse-bench": "6c0992259f711d5c96fee4313dec7b317e3a64b3f27f23b124866711788bbfee",
    "sample": "e2cd50852c9fedd200b64e74b5dfd10fa997d811831593367c091fe49c586d5b",
    "accountant": "405f717829fb4725481bbf0b578e261be8aec25cf203d0fedb73734c26620898",
    "accountant-stdout": "d8a5754398f4cb4e4b49220fab02ca95fbc3812edfcc6d804b5b482c1b8cf19e",
    "train-payloads": "4250adfc17446c890e7405e0f21cf92fd667da292533c5ab141e8adacf2ad042",
    "mse-bench-63-bit-seed": "66a7a31d870121813bf4e73eed5b0b9d015816690dc17c25f30490b921b1dc3e",
    "sample-whole-file": "5a524555aa4a07b8edf4ecf6d171c4a876e0d786c4fcd73e0d5a77bfda89568b",
}

# Cell i of mse-bench runs at seed + i, so this pins seeds 2**63 - 12 to
# 2**63 - 1: two uint32 words each, like the benchmark's 63-bit seeds,
# where the stock seed 8 takes one.
SEED_63_BIT = (1 << 63) - 12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(command: str, config: Path, out: Path) -> bytes:
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


def test_train_digest(tmp_path):
    data = run_cli("train", CONFIGS / "train.cfg", tmp_path / "train.csv")
    assert sha256(data) == GOLDEN["train"]


def test_train_payload_digest(tmp_path, monkeypatch):
    # the masks cancel in the aggregate, so only the wire payloads pin them
    cfg = load_config(CONFIGS / "train.cfg")
    wire = record_wire(monkeypatch)
    _, transcripts, _ = run_training(cfg.round_config)
    write_payload_csv(wire, transcripts, tmp_path / "payloads.csv")
    assert sha256((tmp_path / "payloads.csv").read_bytes()) == GOLDEN["train-payloads"]


def mse_config(tmp_path: Path) -> Path:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / "mse_bench.cfg")
    parser["mse"]["trials"] = str(MSE_TRIALS)
    config = tmp_path / "mse.cfg"
    with open(config, "w") as fh:
        parser.write(fh)
    return config


def test_mse_bench_digest(tmp_path):
    data = run_cli("mse-bench", mse_config(tmp_path), tmp_path / "mse.csv")
    assert sha256(data) == GOLDEN["mse-bench"]


def test_mse_bench_digest_at_a_63_bit_seed(tmp_path):
    out = tmp_path / "mse.csv"
    argv = ["mse-bench", "--config", str(mse_config(tmp_path)), "--seed", str(SEED_63_BIT)]
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == GOLDEN["mse-bench-63-bit-seed"]


def test_sample_digest(tmp_path):
    data = run_cli("sample", CONFIGS / "sample.cfg", tmp_path / "draws.txt")
    head = b"".join(data.splitlines(keepends=True)[:10**4])
    assert sha256(head) == GOLDEN["sample"]
    # all 10**6 lines, so every write chunk is pinned too
    assert sha256(data) == GOLDEN["sample-whole-file"]


def test_accountant_curve_digest(tmp_path, capsys):
    data = run_cli("accountant", CONFIGS / "accountant.cfg", tmp_path / "curve.csv")
    assert sha256(data) == GOLDEN["accountant"]
    # the printed epsilon and alpha_star lines, which the curve does not pin
    assert sha256(capsys.readouterr().out.encode()) == GOLDEN["accountant-stdout"]


@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_bench_workload_digest(tmp_path, capsys, workload):
    # The benchmark pins its own outputs on configs far from the stock
    # ones (up to n = 2000 and d = 1000); this catches a changed stream
    # there before a benchmark run does.
    spec = bench.WORKLOADS[workload]
    config, out = tmp_path / "config.cfg", tmp_path / "output"
    bench.write_config(spec, bench.DEFAULT_SEED, 0, config, out)
    assert main([spec.command, "--config", str(config)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == BENCH_DIGESTS[workload]
