"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
Randomized criteria use frozen seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from latticefl.accountant import ALPHAS, AccountantState, amplify_by_subsampling, base_curve
from latticefl.bounds import ceil_log2, empirical_mse, mse_bound
from latticefl.compress import quantize, sensitivity
from latticefl.dgauss import DiscreteGaussian, sample_integer_gaussian
from latticefl.lattice import LatticeSpec
from latticefl.secagg import aggregate_round, wire_modulus
from latticefl.simulate import RoundConfig, make_plan, run_training

from helpers import (
    centered,
    gof_pvalue_discrete,
    gof_pvalue_uniform,
    pooled,
    renyi_divergence,
    tail_lower_bound,
    tail_oracle,
    variance_oracle,
)

UNIT = LatticeSpec(g_max=1.0, k=3, q=7)  # step == 1


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def test_01_sampler_goodness_of_fit():
    started = time.perf_counter()
    pvalues = []
    for su in (0.5, 1.0, 3.0):
        samples = sample_integer_gaussian(su, np.random.default_rng(2), 10**6)
        pvalues.append(gof_pvalue_discrete(samples, DiscreteGaussian(su, UNIT)))
    elapsed = time.perf_counter() - started
    ok = all(p > 0.01 for p in pvalues) and elapsed < 30.0
    report(1, "sampler chi-square GOF at sigma 0.5/1/3", ok,
           f"p={['%.3f' % p for p in pvalues]}, {elapsed:.1f}s")


def test_02_renyi_divergence_dominated_by_closed_form():
    started = time.perf_counter()
    worst = -math.inf
    for su in (0.5, 1.0, 2.0, 4.0):
        dist = DiscreteGaussian(su, UNIT)
        for mu in (1, 2, 5):
            for alpha in (1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
                gap = renyi_divergence(dist, mu, alpha) - alpha * mu**2 / (2 * su**2)
                worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, "numeric Renyi divergence <= alpha mu^2 / (2 sigma^2)", ok,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_03_variance_and_tail_brackets():
    ok = True
    for su in (0.5, 1.0, 2.0, 4.0):
        dist = DiscreteGaussian(su, UNIT)
        ok &= variance_oracle(dist) <= dist.variance_upper_bound()
        for m in (1, 2, 3, 5):
            truth = tail_oracle(dist, m)
            ok &= tail_lower_bound(dist, m) <= truth <= dist.tail_bound(m)
    report(3, "variance bound dominates and tails bracket the oracle", bool(ok))


def test_04_wrap_homomorphism():
    # each unmasked, noiseless payload is its row wrapped into the wire
    # group; the server's wrap of their sum is the wrap of the rows' sum
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(10**4):
        q = 2 * int(rng.integers(1, 1 << 16)) + 1  # odd, <= 2^17 - 1
        m = int(rng.integers(1, 21))
        d = int(rng.integers(1, 65))
        parts = rng.integers(-(1 << 30), 1 << 30, size=(m, d), dtype=np.int64)
        spec = LatticeSpec(g_max=1.0, k=3, q=q)  # step 1
        wire_q = wire_modulus(q, m)
        mean, wraps = aggregate_round(parts, np.zeros(d, dtype=np.int64), None, spec)
        rhs = centered(parts.sum(axis=0), wire_q)
        if not (np.array_equal(wraps, parts % wire_q) and np.array_equal(np.rint(mean * m), rhs)):
            failures += 1
    report(4, "wrap(sum of wraps) == wrap(sum), 10^4 random instances",
           failures == 0, f"{failures} failures")


def test_05_masked_unmasked_equivalence_and_payload_uniformity():
    rng = np.random.default_rng(5)
    m, d, q = 5, 16, 1001
    wire_q = wire_modulus(q, m)
    spec = LatticeSpec(g_max=1.0, k=9, q=q)
    sigma_units = spec.sigma_units(1.5 * spec.step)
    mismatches = 0
    pooled = [[] for _ in range(m)]
    for round_seed in range(10**3):
        noise = sample_integer_gaussian(sigma_units, rng, d)
        quantized = np.stack([rng.integers(-4, 5, size=d) for _ in range(m)])
        masked_agg, payloads = aggregate_round(quantized, noise, round_seed, spec)
        plain_agg, plain_payloads = aggregate_round(quantized, noise, None, spec)
        for rank in range(m):
            pooled[rank].append(payloads[rank])
        if not (np.array_equal(centered(payloads.sum(axis=0), wire_q),
                               centered(plain_payloads.sum(axis=0), wire_q))
                and masked_agg.tobytes() == plain_agg.tobytes()):
            mismatches += 1
    pvalues = [gof_pvalue_uniform(centered(np.concatenate(chunks), wire_q), wire_q) for chunks in pooled]
    ok = mismatches == 0 and all(p > 0.01 for p in pvalues)
    report(5, "masked == unmasked on 10^3 rounds; payloads uniform", ok,
           f"{mismatches} mismatches, min p={min(pvalues):.3f}")


def test_06_quantizer_unbiasedness():
    spec = LatticeSpec(g_max=1.0, k=9, q=101)
    rng = np.random.default_rng(6)
    coords = rng.uniform(-spec.g_max, spec.g_max, size=100)
    draws = 10**5
    worst = 0.0
    for target in coords:
        z = quantize(np.full(draws, target), spec, rng.random(draws))
        values = z * spec.step
        se = values.std() / math.sqrt(draws)
        worst = max(worst, abs(values.mean() - target) / max(se, 1e-30))
    report(6, "quantizer per-coordinate mean within 4 SE, 100 coords", worst <= 4.0,
           f"worst {worst:.2f} SE")


def test_07_sensitivity_formula():
    ok = True
    for d in (4, 16, 64, 256):
        k = int(math.isqrt(d)) + 1
        ok &= sensitivity(1.0, d, k) == 4.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        D = float(rng.uniform(0.1, 5.0))
        d = int(rng.integers(1, 1000))
        k = int(rng.integers(2, 500))
        rederived = 2.0 * (D + math.sqrt(d) * D / (k - 1))
        ok &= sensitivity(D, d, k) == rederived
    report(7, "sensitivity 4D at k = sqrt(d)+1; general k matches radius formula", bool(ok))


def test_08_mse_bound_compliance():
    started = time.perf_counter()
    worst_margin = -math.inf
    ok = True
    cell = 0
    for n in (4, 10):
        for k in (5, 9, 17):
            for su in (0.5, 1.0):
                cell += 1
                d, q, gamma, g_max = 64, 1001, 0.1, 1.0
                spec = LatticeSpec(g_max=g_max, k=k, q=q)
                rng = np.random.default_rng(800 + cell)
                updates = rng.normal(size=(n, d))
                updates /= np.linalg.norm(updates, axis=1, keepdims=True)
                batches = [
                    empirical_mse(updates, spec, 1.0, su, trials=100, seed=8000 + 10 * cell + b)
                    for b in range(10)
                ]
                empirical = float(np.mean(batches))
                se = float(np.std(batches, ddof=1)) / math.sqrt(len(batches))
                bound = mse_bound(d, n, k, q, su, gamma, g_max)
                margin = empirical - bound
                worst_margin = max(worst_margin, margin - 3 * se)
                ok &= empirical <= bound + 3 * se
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    report(8, "empirical MSE <= bound + 3 SE on the 12-cell grid", bool(ok),
           f"worst margin {worst_margin:.2e}, {elapsed:.0f}s")


def test_09_composition_and_amplification_scaling():
    amped = amplify_by_subsampling(base_curve(8.0, 1.0), 0.1)
    ok = True
    ratios = []
    for T in (100, 400):
        state = AccountantState(sigma=8.0, sensitivity=1.0, gamma=0.1)
        ratio = state.epsilon(1e-5, 4 * T)[0] / state.epsilon(1e-5, T)[0]
        ratios.append(ratio)
        ok &= ratio <= 2.2
    order_2 = list(ALPHAS).index(2.0)
    eps_full = amplify_by_subsampling(base_curve(4.0, 1.0), 0.01)[order_2]
    eps_half = amplify_by_subsampling(base_curve(4.0, 1.0), 0.005)[order_2]
    quad = eps_full / eps_half
    ok &= quad >= 3.9
    report(9, "epsilon(4T)/epsilon(T) <= 2.2 and gamma-halving ratio >= 3.9", bool(ok),
           f"ratios {[f'{r:.2f}' for r in ratios]}, quad {quad:.2f}")


def test_10_communication_accounting():
    rng = np.random.default_rng(10)
    ok = True
    for trial in range(20):
        n = int(rng.integers(4, 30))
        gamma = float(rng.uniform(0.3, 1.0))
        dim = int(rng.integers(4, 25))
        k = int(2 * rng.integers(2, 9) + 1)
        q = int(2 * rng.integers(k, 4 * k) + 1)
        cfg = RoundConfig(
            n=n, gamma=gamma, rounds=1, dim=dim, clip=1.0, k=k, q=q,
            sigma=0.0, delta=1e-5, seed=int(rng.integers(1 << 32)), task="logistic",
            samples_per_client=4,
        )
        plan = make_plan(cfg)
        _, transcripts, _ = run_training(cfg)
        per_client_bits = plan.d_pad * ceil_log2(wire_modulus(q, plan.m))
        ok &= transcripts[0].payload_bytes_per_client == -(-per_client_bits // 8)
    report(10, "transcript byte counts equal the closed-form cost, 20 configs", bool(ok))


def test_11_end_to_end_learning():
    started = time.perf_counter()
    k, q, clip_bound, lr = 33, 4097, 0.5, 1.0
    sens = sensitivity(clip_bound, 32, k)
    sigma_dp = 1.3 * sens
    gaps_plain, gaps_dp, eps_values = [], [], []
    for seed in range(5):
        shared = dict(
            n=100, gamma=0.1, rounds=50, dim=20, clip=clip_bound, k=k, q=q,
            delta=1e-5, seed=4000 + seed, task="logistic",
            local_steps=1, learning_rate=lr,
        )
        _, plain, _ = run_training(RoundConfig(sigma=0.0, **shared))
        _, noisy, _ = run_training(RoundConfig(sigma=sigma_dp, **shared))
        task = make_plan(RoundConfig(sigma=0.0, **shared)).task
        X, y = pooled(task)
        w = task.init_weights()
        for _ in range(50):
            w -= lr * task.grad(w, X, y)
        central = task.eval_metrics(w)[1]
        gaps_plain.append(central - plain[-1].accuracy)
        gaps_dp.append(central - noisy[-1].accuracy)
        eps_values.append(noisy[-1].epsilon)
    elapsed = time.perf_counter() - started
    mean_plain, mean_dp = float(np.mean(gaps_plain)), float(np.mean(gaps_dp))
    ok = (
        mean_plain <= 0.02
        and mean_dp <= 0.05
        and max(eps_values) <= 8.0
        and elapsed < 120.0
    )
    report(11, "noiseless within 2 pts of centralized; eps<=8 run within 5 pts", ok,
           f"gaps {mean_plain:.3f}/{mean_dp:.3f}, eps {max(eps_values):.2f}, {elapsed:.0f}s")


def test_12_cli_determinism(tmp_path):
    from latticefl.cli import main

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        """
[experiment]
mode = train
seed = 12

[protocol]
n = 20
gamma = 0.25
rounds = 4
dim = 8
clip = 1.0
k = 9
q = 3001
sigma = 0.3
delta = 1e-5
"""
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 5
    report(12, "repeated CLI runs emit byte-identical CSV", ok)
