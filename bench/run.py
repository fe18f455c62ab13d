"""latticefl benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root)::

    python3 bench/run.py --workload train-cohort --seed 0 --seconds 25 --trace 0

Each workload process is a fresh interpreter (``bench/child.py``) running
the real CLI entry point on a config written here from the workload seed.
Processes run one at a time (closed loop, one client) with BLAS pinned to
one thread, and new ones start until ``--seconds`` have passed.  Every
output is checked.  Stdout ends with a run record line and then the
result line ``{"correct", "attempted", "failed", "metrics"}``; metric
names and units come from ``BENCHMARK.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
MONOTONIC = time.CLOCK_MONOTONIC
DEFAULT_SEED = 0
RUN_LIMIT_S = 170  # a whole run, so that it ends within three minutes
BLAS_THREADS = "1"

# Sampling tolerance of the sample-stream variance check, in standard
# errors of the sample variance (sqrt(2/N) sigma^2 for a near-Gaussian law).
VARIANCE_TOLERANCE_SE = 6.0

# Per-layer metric prefixes that name more than one traced function, or a
# method: metric prefix -> traced function names (module.qualname).
ALIASES = {
    "dgauss.sample": ("dgauss.sample_integer_gaussian",),
    "dgauss.tail_bound": ("dgauss.DiscreteGaussian.tail_bound",),
    "accountant.init": ("accountant.AccountantState.__init__",),
    "accountant.epsilon": ("accountant.AccountantState.epsilon",),
    "compress.signs": ("compress.RotationSeed.signs",),
    "tasks.local_update": ("tasks.Task.local_update",),
    "tasks.eval_metrics": ("tasks.Task.eval_metrics",),
    "tasks.grad": ("tasks.LinearRegressionTask.grad", "tasks.LogisticBlobsTask.grad",
                   "tasks.SpiralMlpTask.grad"),
    "cli.cmd": ("cli.cmd_train", "cli.cmd_mse_bench", "cli.cmd_accountant", "cli.cmd_sample"),
}

TRAIN_HEADER = ["round", "epsilon", "delta", "loss", "accuracy", "bytes_per_client", "mse_round"]
MSE_HEADER = ["d", "n", "k", "q", "sigma_units", "gamma", "g_max",
              "trials", "empirical", "bound", "flag"]


@dataclass(frozen=True)
class Workload:
    command: str  # latticefl CLI subcommand
    unit: str  # function whose calls are the units of work
    section: str  # config section holding ``params``
    params: dict = field(default_factory=dict)


# Sizes are per workload process; a run launches processes until its time
# is up.  Parameters not listed take the values of configs/train.cfg.
WORKLOADS = {
    "train-cohort": Workload("train", "simulate.run_round", "protocol", dict(
        n=2000, gamma=0.1, rounds=2, dim=200, clip=0.5, k=33, q=4097, sigma=1.53,
        delta=1e-5, task="logistic", samples_per_client=20, local_steps=1,
        learning_rate=1.0, batch_size="full")),
    "train-long": Workload("train", "simulate.run_round", "protocol", dict(
        n=100, gamma=0.1, rounds=300, dim=1000, clip=0.5, k=33, q=4097, sigma=1.53,
        delta=1e-5, task="logistic", samples_per_client=200, local_steps=5,
        learning_rate=1.0, batch_size=32)),
    "mse-grid": Workload("mse-bench", "bounds.empirical_mse", "mse", dict(trials=100)),
    "sample-stream": Workload("sample", "cli.cmd_sample", "sample", dict(
        sigma_units=1.0, count=2_000_000)),
}


def child_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0] >> 1)


def write_config(workload: Workload, seed: int, index: int, path: Path, out: Path) -> None:
    lines = ["[experiment]", f"mode = {workload.command}", f"seed = {child_seed(seed, index)}",
             f"out = {out}", "", f"[{workload.section}]"]
    lines += [f"{key} = {value}" for key, value in workload.params.items()]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Child:
    """One finished workload process and what the harness made of it."""

    index: int
    traced: bool
    launch_ns: int
    report: dict | None
    output: bytes
    units: int  # units of work the config asks for
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str, units: int | None = None) -> None:
        self.problems.append(message)
        self.failed = max(self.failed, self.units if units is None else units)

    @property
    def work_ns(self) -> int:
        return self.report["work_ns"]

    @property
    def work_ref_s(self) -> float:
        """Work time in reference seconds (see child.HostSpeed)."""
        return self.report["work_ref_ns"] / 1e9

    @property
    def setup_ns(self) -> int:
        return self.report["reached_ns"] - self.launch_ns


def expected_work(cfg) -> dict:
    """Units, discrete-Gaussian draws and client updates one process does."""
    from latticefl.compress import padded_dim
    from latticefl.simulate import participants_per_round

    if cfg.mode == "train":
        rc = cfg.round_config
        m = participants_per_round(rc.n, rc.gamma)
        draws = rc.rounds * padded_dim(rc.dim) if rc.sigma > 0 else 0
        return dict(units=rc.rounds, draws=draws, updates=rc.rounds * m)
    if cfg.mode == "mse-bench":
        cells = list(cfg.mse_grid.cells())
        t = cfg.mse_grid.trials
        return dict(units=len(cells),
                    draws=sum(t * padded_dim(c[0]) for c in cells if c[4] > 0),
                    updates=sum(t * c[1] for c in cells))
    return dict(units=1, draws=cfg.sample_params.count, updates=0)


def wire_sizes(cfg, output: bytes) -> dict:
    """Bytes one participant really sends per round, from the plan's wire
    group, beside the per-round size the transcript reports in the CSV."""
    from latticefl.bounds import ceil_log2
    from latticefl.compress import padded_dim
    from latticefl.secagg import wire_modulus
    from latticefl.simulate import participants_per_round

    rc = cfg.round_config
    m = participants_per_round(rc.n, rc.gamma)
    bits = ceil_log2(wire_modulus(rc.q, m))
    reported = int(output.decode().splitlines()[1].split(",")[TRAIN_HEADER.index("bytes_per_client")])
    return dict(upload_bytes_per_client=-(-padded_dim(rc.dim) * bits // 8), wire_bits=bits,
                reported_upload_bytes=reported, reported_bits=ceil_log2(m * rc.q + 1))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_output(child: Child, cfg) -> None:
    """Workload-specific correctness gate; failures count per unit."""
    text = child.output.decode()
    lines = text.splitlines()
    if cfg.mode == "train":
        rows = [line.split(",") for line in lines[1:]]
        if not lines or lines[0].split(",") != TRAIN_HEADER:
            return child.fail("train CSV header differs")
        good = sum(
            1 for i, row in enumerate(rows[: child.units], 1)
            if len(row) == len(TRAIN_HEADER) and row[0] == str(i) and all(map(_finite, row[1:]))
        )
        if len(rows) != child.units or good != child.units:
            child.fail(f"{good} of {child.units} train rows present and finite ({len(rows)} rows)",
                       child.units - good if len(rows) == child.units else child.units)
    elif cfg.mode == "mse-bench":
        rows = [line.split(",") for line in lines[1:]]
        if not lines or lines[0].split(",") != MSE_HEADER:
            return child.fail("mse-bench CSV header differs")
        good = sum(1 for row in rows[: child.units]
                   if len(row) == len(MSE_HEADER) and row[-1] == "ok" and _finite(row[8]))
        if len(rows) != child.units or good != child.units:
            child.fail(f"{good} of {child.units} mse cells present and flagged ok",
                       child.units - good if len(rows) == child.units else child.units)
    else:
        import numpy as np
        from latticefl.dgauss import DiscreteGaussian
        from latticefl.lattice import LatticeSpec

        p = cfg.sample_params
        if len(lines) != p.count or not text.endswith("\n"):
            return child.fail(f"sample wrote {len(lines)} lines, expected {p.count}")
        z = np.array(lines, dtype=np.int64)
        bound = DiscreteGaussian(p.sigma_units, LatticeSpec(g_max=1.0, k=3, q=1)).variance_upper_bound()
        tolerance = VARIANCE_TOLERANCE_SE * math.sqrt(2.0 / p.count) * bound
        variance = float(np.var(z))
        if abs(variance - bound) > tolerance:
            child.fail(f"sample variance {variance} is not within {tolerance} of {bound}")


def run_child(workload: Workload, name: str, seed: int, index: int, traced: bool,
              params: dict | None = None, timeout: float = RUN_LIMIT_S) -> tuple[Child, object]:
    """Launch one workload process, wait for it and read what it wrote."""
    from latticefl.config import load_config

    tag = f"{index}-{'traced' if traced else 'plain'}"
    wdir = OUT / name
    wdir.mkdir(parents=True, exist_ok=True)
    cfg_path, out_path = wdir / f"config-{tag}.cfg", wdir / f"output-{tag}"
    report_path, spans_path = wdir / f"report-{tag}.json", wdir / f"spans-{index}.csv"
    if params is not None:
        workload = Workload(workload.command, workload.unit, workload.section, params)
    write_config(workload, seed, index, cfg_path, out_path)
    cfg = load_config(cfg_path)
    for stale in (out_path, report_path):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=BLAS_THREADS,
               OPENBLAS_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    argv = [sys.executable, str(BENCH / "child.py"), str(report_path), workload.unit,
            "1" if traced else "0", str(spans_path), "--",
            workload.command, "--config", str(cfg_path)]
    launch = time.clock_gettime_ns(MONOTONIC)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(timeout, 1.0))
        rc, err = proc.returncode, proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:
        rc, err = None, f"killed after {max(timeout, 1.0):.0f} s"
    work = expected_work(cfg)
    child = Child(index, traced, launch, None, b"", work["units"])
    if rc != 0 or not report_path.is_file():
        child.fail(f"process exited with {rc}: {err.strip()[-500:]}")
        return child, cfg
    child.report = json.loads(report_path.read_text())
    child.output = out_path.read_bytes() if out_path.is_file() else b""
    out_path.unlink(missing_ok=True)
    if not Path(child.report["latticefl_file"]).resolve().is_relative_to(ROOT / "src"):
        child.fail(f"imported latticefl from {child.report['latticefl_file']}")
    if len(child.report["unit_ns"]) != child.units:
        child.fail(f"{len(child.report['unit_ns'])} units timed, expected {child.units}")
        child.report = None
        return child, cfg
    check_output(child, cfg)
    if seed == DEFAULT_SEED and index == 0 and params is None:
        pinned = json.loads((BENCH / "digests.json").read_text()).get(name)
        digest = hashlib.sha256(child.output).hexdigest()
        if digest != pinned:
            child.fail(f"output digest {digest} differs from the pinned {pinned}")
    trace = child.report.get("trace")
    if trace is not None:
        if trace["self_sum_ns"] != trace["root_ns"]:
            child.fail(f"self times sum to {trace['self_sum_ns']} ns, root span is {trace['root_ns']} ns")
        if trace["counters"]["dgauss.draws"] != work["draws"]:
            child.fail(f"traced {trace['counters']['dgauss.draws']} draws, expected {work['draws']}")
        replay = child.report.get("replay")
        if replay is not None and not replay["identical"]:
            child.fail("unmasked replay recovered a different aggregate")
    return child, cfg


def median(values):
    return statistics.median(values) if values else math.nan


def layer_values(child: Child, names: list[str]) -> dict:
    """Per-layer metrics of one traced process that come from its spans
    and counters; ``names`` are the per-layer names of BENCHMARK.json."""
    trace = child.report["trace"]
    out = {}
    for metric in names:
        prefix, _, field_name = metric.rpartition(".")
        if metric in trace["counters"]:
            out[metric] = trace["counters"][metric]
        elif "." not in prefix and field_name in ("self_ms", "errors"):  # a whole layer
            self_ns, errors = trace["layers"].get(prefix, (0, 0))
            out[metric] = self_ns / 1e6 if field_name == "self_ms" else errors
        elif field_name in ("calls", "self_ms"):
            calls_self = [trace["functions"].get(f, (0, 0)) for f in ALIASES.get(prefix, (prefix,))]
            out[metric] = (sum(c for c, _ in calls_self) if field_name == "calls"
                           else sum(s for _, s in calls_self) / 1e6)
    return out


def run_record(name: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "latticefl").glob("*.py"))
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit, "blas_threads": BLAS_THREADS, "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latticefl" / "cli.py").is_file():
        print(f"error: no latticefl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    plain: list[Child] = []
    traced_children: list[Child] = []
    cfg = None
    started = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() < started + args.seconds:
        child, cfg = run_child(workload, args.workload, args.seed, index, traced=False,
                               timeout=started + RUN_LIMIT_S - time.monotonic())
        plain.append(child)
        if traced:
            twin, _ = run_child(workload, args.workload, args.seed, index, traced=True,
                                timeout=started + RUN_LIMIT_S - time.monotonic())
            if twin.report is not None and twin.output != child.output:
                twin.fail("traced output differs from the untraced output of the same config")
            traced_children.append(twin)
        index += 1

    children = plain + traced_children
    for child in children:
        for problem in child.problems:
            print(f"check failed ({args.workload} process {child.index}"
                  f"{' traced' if child.traced else ''}): {problem}", file=sys.stderr)
    attempted = sum(c.units for c in children)
    failed = sum(c.failed for c in children)
    ok_plain = [c for c in plain if c.report is not None]
    pairs = [(p, t) for p, t in zip(plain, traced_children) if p.report and t.report]
    if not ok_plain or (traced and not pairs):
        print("error: no workload process finished", file=sys.stderr)
        return 1

    work = expected_work(cfg)
    work_s = sum(c.work_ns for c in ok_plain) / 1e9
    work_ref_s = sum(c.work_ref_s for c in ok_plain)
    unit_ms = [ns / 1e6 for c in ok_plain for ns in c.report["unit_ns"]]
    record = run_record(args.workload, args.seed, traced)
    record.update(processes=len(children), work_s=work_s, work_ref_s=work_ref_s,
                  host_factor=median([c.report["host_factor"] for c in ok_plain]),
                  draws_per_s={"value": work["draws"] * len(ok_plain) / work_s, "unit": "1/s"},
                  error_rate={"value": failed / attempted, "unit": "ratio",
                              "failed": failed, "attempted": attempted})
    if work["updates"]:
        record["client_updates_per_s"] = {"value": work["updates"] * len(ok_plain) / work_s,
                                          "unit": "1/s"}
    if cfg.mode == "train":
        record["round_ms_p50"] = {"value": median(unit_ms), "unit": "ms", "samples": len(unit_ms)}
        if len(unit_ms) >= 10:
            p90 = statistics.quantiles(unit_ms, n=10)[-1]
            if sum(u > p90 for u in unit_ms) >= 10:
                record["round_ms_p90"] = {"value": p90, "unit": "ms", "samples": len(unit_ms)}
        checked = [c for c in ok_plain if not c.problems]
        if checked:
            record["wire"] = wire_sizes(cfg, checked[0].output)

    if not traced:
        values = {
            "setup_s": median([c.setup_ns / 1e9 for c in ok_plain]),
            "draws_per_ref_s": work["draws"] * len(ok_plain) / work_ref_s,
            "peak_rss_mb": median([c.report["peak_rss_kb"] / 1024 for c in ok_plain]),
        }
        names = spec["end_to_end"]
    else:
        traced_work = sum(t.work_ns for _, t in pairs) / 1e9
        untraced_work = sum(p.work_ns for p, _ in pairs) / 1e9
        record["trace_overhead"] = {"value": traced_work / untraced_work, "unit": "ratio",
                                    "traced_work_s": traced_work, "untraced_work_s": untraced_work}
        per_child = [layer_values(t, [m["name"] for m in spec["per_layer"]]) for _, t in pairs]
        values = {k: statistics.fmean(v[k] for v in per_child) for k in per_child[0]}
        masked = [ns for p, _ in pairs for ns in p.report["unit_ns"]]
        unmasked = [ns for _, t in pairs for ns in t.report.get("replay", {}).get("unmasked_ns", [])]
        values["secagg.masked_over_unmasked"] = median(masked) / median(unmasked) if unmasked else 0.0
        wire = record.get("wire", {})
        values["upload_bytes_per_client"] = wire.get("upload_bytes_per_client", 0)
        values["bounds.reported_upload_bytes"] = wire.get("reported_upload_bytes", 0)
        values["cli.import_s"] = median([c.report["import_ns"] / 1e9 for c in children if c.report])
        values["trace.overhead"] = record["trace_overhead"]["value"]
        values["trace.work_ms"] = statistics.fmean(t.work_ns / 1e6 for _, t in pairs)
        record["trace_totals_ms"] = {
            "root": statistics.fmean(t.report["trace"]["root_ns"] / 1e6 for _, t in pairs),
            "layer_self_sum": statistics.fmean(
                sum(s for s, _ in t.report["trace"]["layers"].values()) / 1e6 for _, t in pairs),
        }
        names = spec["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
