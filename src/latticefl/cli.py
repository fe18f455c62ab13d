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
import contextlib
import ctypes
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .accountant import ALPHAS, AccountantState, compose
from .config import MODES, ExperimentConfig, format_real, load_config
from .dgauss import sample_integer_gaussian
from .errors import ConfigError, HypothesisViolated, LatticeflError
from .lattice import LatticeSpec
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
            updates, spec, grid.clip, su, grid.trials, seed=cfg.seed + index
        )
        try:
            bound = bounds.mse_bound(d, n, k, q, su, gamma, g_max)
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
    state = AccountantState(sigma=p.sigma, sensitivity=p.sensitivity, gamma=p.gamma)
    eps, alpha = state.epsilon(p.delta, p.rounds)
    print(f"epsilon = {format_real(eps)}")
    print(f"alpha_star = {format_real(alpha)}")
    if cfg.out is not None:
        # nothing spent at zero rounds: the header only
        spent = compose(state.per_round, p.rounds)
        rows = [[format_real(a), format_real(e)] for a, e in zip(ALPHAS, spent)] if p.rounds else []
        _write_csv(cfg.out, ["alpha", "eps"], rows)
    return 0


# Draws formatted per write by ``sample``, so that the text of at most
# this many values exists at once.
WRITE_CHUNK = 1 << 16

# 10 .. 10**18: a magnitude's count of powers at or below it is its digit
# count less one (|v| <= 2**63 has at most 19 digits).
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.uint64)


def write_int_lines(z: np.ndarray, out) -> None:
    """Write the bytes of ``"".join(f"{v}\\n" for v in z)`` for an int64 array to ``out``.

    The text is made one ``WRITE_CHUNK`` of values at a time, in arrays
    allocated once per call and sized for a whole chunk of the widest
    lines, so a long stream takes no fresh pages after its first chunk.
    ``out.write`` gets a view of the text buffer, which the next chunk
    overwrites: it must copy or write the bytes before it returns, as
    files and ``io.BytesIO`` do.
    """
    rows = min(WRITE_CHUNK, z.size)
    neg_buf, finished_buf = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    mag_buf, quotient_buf = np.empty(rows, dtype=np.uint64), np.empty(rows, dtype=np.uint64)
    width_buf, digit_buf, tens_buf = (np.empty(rows, dtype=np.uint8) for _ in range(3))
    pos_buf = np.empty(rows, dtype=np.int64)
    # 21 bytes a line: "-9223372036854775808\n"; byte end takes the digits of finished lines
    text = np.empty(rows * 21 + 1, dtype=np.uint8)
    for start in range(0, z.size, WRITE_CHUNK):
        block = z[start : start + WRITE_CHUNK]
        n = block.size
        neg, finished = neg_buf[:n], finished_buf[:n]
        mag, quotient = mag_buf[:n], quotient_buf[:n]
        width, digit, tens = width_buf[:n], digit_buf[:n], tens_buf[:n]
        pos = pos_buf[:n]
        np.less(block, 0, out=neg)
        np.absolute(block, out=mag.view(np.int64))  # |v| as uint64, exact at -2**63 too
        np.add(neg, np.uint8(2), out=width)  # sign, last digit and newline
        passes = 1  # digits of the largest magnitude
        for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= mag.max()]:
            width += np.greater_equal(mag, power, out=finished)  # finished is free until the digits
            passes += 1
        np.copyto(pos, width)  # cumsum of uint8 into int64 would cast to a fresh array first
        np.cumsum(pos, out=pos)  # one past each line's newline
        end = int(pos[-1])
        pos -= width
        text[pos] = ord("-")  # each line's first byte; a non-negative line's lead digit replaces it
        pos += width
        pos -= 1
        text[pos] = ord("\n")
        for left in range(passes - 1, -1, -1):  # least significant digit first
            pos -= 1
            np.floor_divide(mag, 10, out=quotient)
            # mag - 10 quotient is below 10, so uint8 arithmetic on the low bytes gives it
            np.copyto(digit, mag, casting="unsafe")
            np.copyto(tens, quotient, casting="unsafe")
            tens *= 10
            digit -= tens
            digit += ord("0")
            text[pos] = digit
            mag, quotient = quotient, mag
            if left:
                np.equal(mag, 0, out=finished)
                pos[finished] = end + 1
        out.write(memoryview(text[:end]))


def cmd_sample(cfg: ExperimentConfig) -> int:
    p = cfg.sample_params
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    z = sample_integer_gaussian(p.sigma_units, rng, p.count)
    with contextlib.nullcontext(sys.stdout.buffer) if cfg.out is None else open(cfg.out, "wb") as out:
        write_int_lines(z, out)
    return 0


# glibc's mallopt parameters (malloc.h) and the values keep_freed_pages sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # the cap of glibc's own dynamic threshold
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # as glibc's dynamic rule pairs them


def keep_freed_pages() -> None:
    """Have glibc keep freed blocks below ``MMAP_THRESHOLD`` for reuse.

    By default glibc serves a block above its mmap threshold (128 KiB at
    start) with a fresh mapping, unmaps it when it is freed, and returns
    heap tops above its trim threshold to the kernel, so a loop that
    makes the same large temporaries on every pass faults their pages
    back in on every pass.  Its dynamic rule raises both thresholds only
    after such a block is freed.  Fixing them at the rule's cap keeps the
    pages; setting either value switches the rule off, so neither is
    lower than what the rule reaches.  Process-wide and idempotent; does
    nothing where the C library is not glibc.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # only glibc has it
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticefl",
        description="Differentially private, communication-efficient federated learning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment file (key = value sections)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default=None, help="override the configured output path")
    sub.choices["train"].add_argument(
        "--override-overflow-check",
        action="store_true",
        help="run even if the per-round overflow probability exceeds the budget",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_pages()
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        if cfg.mode != args.command:
            raise ConfigError(f"config mode is {cfg.mode!r} but the {args.command!r} command was invoked")
        if args.command == "train":
            return cmd_train(cfg, args.override_overflow_check)
        # looked up per call, so a function rebound on this module is the one run
        commands = {"mse-bench": cmd_mse_bench, "accountant": cmd_accountant, "sample": cmd_sample}
        return commands[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LatticeflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
