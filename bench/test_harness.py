"""Self-tests for the benchmark harness.

Run from the repository root::

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402


def span(sid, parent, name, start, end, error=False):
    return (sid, parent, 0, name, start, end, error)


def test_self_times_subtract_the_covered_part_of_each_span():
    spans = [
        span(0, None, 0, 0, 100),
        span(1, 0, 0, 10, 40),
        span(2, 1, 0, 20, 30),
        span(3, 0, 0, 50, 90),
        span(4, 3, 0, 55, 70),
        span(5, 3, 0, 65, 80),  # overlaps its sibling: counted once
        span(6, 3, 0, 85, 95),  # runs past its parent: clipped
    ]
    own = child.self_times(spans)
    assert own == {0: 30, 1: 20, 2: 10, 3: 10, 4: 15, 5: 15, 6: 10}


def test_layer_totals_add_up_and_function_times_keep_same_layer_callees():
    tracer = child.Tracer(unit="simulate.run_round")
    tracer.names = ["cli.main", "simulate.run_round", "secagg.derive_masks",
                    "secagg.mask_stream", "lattice.wrap_centered"]
    # Children end first, as the wrappers append them.
    tracer.spans = [
        (3, 2, 1, 3, 12, 18, False),   # mask_stream inside derive_masks
        (4, 2, 1, 4, 20, 22, False),   # wrap_centered inside derive_masks
        (2, 1, 1, 2, 10, 30, False),   # derive_masks inside run_round
        (1, 0, 1, 1, 5, 60, True),     # run_round raises into cli
        (0, None, 0, 0, 0, 100, True),
    ]
    summary = tracer.summary()
    assert summary["root_ns"] == summary["self_sum_ns"] == 100
    assert summary["layers"] == {
        "cli": [45, 1], "simulate": [35, 1], "secagg": [18, 0], "lattice": [2, 0],
    }
    assert summary["functions"]["secagg.derive_masks"] == [1, 18]
    assert summary["functions"]["secagg.mask_stream"] == [1, 6]


def test_work_between_speed_samples_is_scaled_by_the_host_factor():
    speed = child.HostSpeed()
    speed.samples = [(0, 10, 1.0), (110, 120, 1.0), (320, 330, 3.0)]
    work, ref = speed.work()
    assert work == 100 + 200
    assert ref == pytest.approx(100 / 1.0 + 200 / 2.0)
    assert speed.net(5, 115) == 110 - 5 - 5
    speed.samples = []
    speed.start()
    time.sleep(3 * speed.SPEED_EVERY_S)
    speed.stop()
    assert len(speed.samples) >= 3
    assert all(f > 0 for _, _, f in speed.samples)


SMALL = {
    "train-cohort": dict(run.WORKLOADS["train-cohort"].params, n=200, rounds=2),
    "train-long": dict(run.WORKLOADS["train-long"].params, samples_per_client=40, rounds=3),
    "mse-grid": dict(trials=2),
    "sample-stream": dict(sigma_units=1.0, count=2000),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_writes_the_same_bytes_as_an_untraced_run(name):
    workload = run.WORKLOADS[name]
    plain, _ = run.run_child(workload, "selftest-" + name, 7, 0, traced=False, params=SMALL[name])
    traced, _ = run.run_child(workload, "selftest-" + name, 7, 0, traced=True, params=SMALL[name])
    assert plain.problems == [] and traced.problems == []
    assert plain.output and traced.output == plain.output
    trace = traced.report["trace"]
    assert trace["self_sum_ns"] == trace["root_ns"] > 0
    if workload.command == "train":
        assert traced.report["replay"]["identical"]


def test_fails_without_printing_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
