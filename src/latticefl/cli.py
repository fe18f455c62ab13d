"""Command-line front end.

Four subcommands driven by one config file: ``train`` runs the federated
protocol and emits per-round metrics, ``mse-bench`` sweeps the
mean-estimation error grid against the closed-form bound, ``accountant``
prints the privacy spend for a parameter set, and ``sample`` streams raw
discrete-Gaussian integers for external statistical testing.

Every command is a pure function of (config, seed): rerunning writes
byte-identical output.  Exit codes: 0 success, 1 runtime failure, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .accountant import AccountantState
from .config import ExperimentConfig, format_real, load_config
from .dgauss import sample_integer_gaussian
from .errors import ConfigError, HypothesisViolated, LatticeflError
from .simulate import OVERFLOW_BUDGET, make_plan, run_training


def _write_csv(out: str | None, header: list[str], rows: list[list[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_train(cfg: ExperimentConfig, override_overflow: bool) -> int:
    rc = cfg.round_config
    plan = make_plan(rc)
    if plan.overflow_probability > OVERFLOW_BUDGET and not override_overflow:
        raise ConfigError(
            f"per-round overflow probability {plan.overflow_probability:.3e} exceeds "
            f"{OVERFLOW_BUDGET:.0e}; enlarge q or pass --override-overflow-check"
        )
    _, transcripts, _ = run_training(rc, plan=plan)
    rows = [
        [
            str(tr.round_index),
            format_real(tr.epsilon),
            format_real(rc.delta),
            format_real(tr.loss),
            format_real(tr.accuracy),
            str(tr.payload_bytes_per_client),
            format_real(tr.round_mse),
        ]
        for tr in transcripts
    ]
    _write_csv(
        cfg.out,
        ["round", "epsilon", "delta", "loss", "accuracy", "bytes_per_client", "mse_round"],
        rows,
    )
    return 0


def cmd_mse_bench(cfg: ExperimentConfig) -> int:
    from .lattice import LatticeSpec

    grid = cfg.mse_grid
    header = [
        "d", "n", "k", "q", "sigma_units", "gamma", "g_max",
        "trials", "empirical", "bound", "flag",
    ]
    rows = []
    for index, (d, n, k, q, su, gamma, g_max) in enumerate(grid.cells()):
        spec = LatticeSpec(g_max=g_max, k=k, q=q)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index, 0]))
        updates = rng.normal(size=(n, d))
        updates /= np.linalg.norm(updates, axis=1, keepdims=True)
        empirical = bounds.empirical_mse(
            updates, spec, grid.clip_bound, su, grid.trials, seed=cfg.seed + index
        )
        inputs = bounds.MseBoundInputs(d=d, n=n, k=k, q=q, sigma_units=su, gamma=gamma, g_max=g_max)
        try:
            bound = bounds.mse_bound_conservative(inputs)
        except HypothesisViolated:
            bound, flag = math.nan, "hypothesis"
        else:
            flag = "ok" if empirical <= bound else "exceeds"
        rows.append(
            [str(d), str(n), str(k), str(q), format_real(su), format_real(gamma),
             format_real(g_max), str(grid.trials), format_real(empirical),
             format_real(bound), flag]
        )
    _write_csv(cfg.out, header, rows)
    flagged = sum(r[-1] != "ok" for r in rows)
    if flagged:
        print(f"{flagged} of {len(rows)} rows flagged", file=sys.stderr)
    return 0


def cmd_accountant(cfg: ExperimentConfig) -> int:
    p = cfg.accountant_params
    if p.rounds == 0:
        eps, alpha = 0.0, math.inf
        curve = None
    else:
        state = AccountantState(sigma=p.sigma, sensitivity=p.sensitivity, gamma=p.gamma)
        state.record_round(p.rounds)
        eps, alpha = state.epsilon(p.delta)
        curve = state.cumulative
    print(f"epsilon = {format_real(eps)}")
    print(f"alpha_star = {format_real(alpha)}")
    if cfg.out is not None:
        if curve is None:
            _write_csv(cfg.out, ["alpha", "eps"], [])
        else:
            _write_csv(
                cfg.out,
                ["alpha", "eps"],
                [[format_real(a), format_real(e)] for a, e in zip(curve.alphas, curve.eps)],
            )
    return 0


def cmd_sample(cfg: ExperimentConfig) -> int:
    p = cfg.sample_params
    if p.count == 0:
        return 0
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    z = sample_integer_gaussian(p.sigma_units, rng, p.count)
    out = sys.stdout if cfg.out is None else open(cfg.out, "w")
    try:
        out.write("\n".join(str(int(v)) for v in z) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticefl",
        description="Differentially private, communication-efficient federated learning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "mse-bench", "accountant", "sample"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment file (key = value sections)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default=None, help="override the configured output path")
        p.add_argument(
            "--override-overflow-check",
            action="store_true",
            help="run even if the per-round overflow probability exceeds the budget",
        )
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        if cfg.round_config is not None:
            cfg = dataclasses.replace(
                cfg, round_config=dataclasses.replace(cfg.round_config, seed=args.seed)
            )
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=args.out)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        expected = args.command
        if cfg.mode != expected:
            raise ConfigError(f"config mode is {cfg.mode!r} but the {expected!r} command was invoked")
        cfg = _apply_overrides(cfg, args)
        if expected == "train":
            return cmd_train(cfg, args.override_overflow_check)
        if expected == "mse-bench":
            return cmd_mse_bench(cfg)
        if expected == "accountant":
            return cmd_accountant(cfg)
        return cmd_sample(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
