import math

import numpy as np
import pytest

from latticefl.errors import ConfigError
from latticefl.simulate import (
    GlobalModel,
    RoundConfig,
    convergence_report,
    make_plan,
    payload_table,
    run_round,
    run_training,
    subsample_clients,
)
from latticefl.tasks import LocalTrainerSpec


def small_cfg(**overrides):
    base = dict(
        n=20,
        gamma=0.25,
        rounds=4,
        dim=8,
        clip_bound=1.0,
        k=9,
        q=3001,
        sigma=0.1,
        delta=1e-5,
        seed=123,
        task="logistic",
        samples_per_client=12,
        local=LocalTrainerSpec(steps=1, learning_rate=0.5),
    )
    base.update(overrides)
    return RoundConfig(**base)


def test_subsample_full_population():
    ids = subsample_clients(10, 1.0, 0)
    np.testing.assert_array_equal(ids, np.arange(10))


def test_subsample_size_and_determinism():
    a = subsample_clients(100, 0.1, 42)
    b = subsample_clients(100, 0.1, 42)
    assert a.size == 10
    np.testing.assert_array_equal(a, b)
    assert len(np.unique(a)) == 10


def test_subsample_selection_frequency():
    n, gamma, rounds = 100, 0.1, 10**4
    counts = np.zeros(n)
    for t in range(rounds):
        counts[subsample_clients(n, gamma, t)] += 1
    freq = counts / rounds
    assert np.all(np.abs(freq - gamma) < 0.01)


def test_subsample_rejects_empty():
    with pytest.raises(ValueError):
        subsample_clients(5, 0.1, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(gamma=0.0)
    with pytest.raises(ValueError):
        small_cfg(gamma=0.01)  # gamma * n < 1
    with pytest.raises(ValueError):
        small_cfg(sigma=-1.0)
    with pytest.raises(ValueError):
        small_cfg(delta=2.0)
    with pytest.raises(ConfigError):
        make_plan(small_cfg(q=5))  # q < k


def test_plan_derivations():
    plan = make_plan(small_cfg())
    assert plan.m == 5
    assert plan.d == 8
    assert plan.d_pad == 8
    assert plan.wire_q % 2 == 1
    assert plan.wire_q >= plan.m * plan.cfg.q
    assert plan.overflow_probability <= 1e-12
    assert plan.sensitivity == pytest.approx(2 * (1 + math.sqrt(8) / 8))


def test_plan_overflow_probability_scales():
    # a tiny q leaves no room for the noise tail
    risky = make_plan(small_cfg(q=11, k=9, sigma=2.0))
    assert risky.overflow_probability > 1e-9
    safe = make_plan(small_cfg())
    assert safe.overflow_probability < 1e-9
    noiseless = make_plan(small_cfg(sigma=0.0))
    assert noiseless.overflow_probability == 0.0


def test_training_with_a_prebuilt_plan():
    cfg = small_cfg(rounds=2)
    plan = make_plan(cfg)
    _, given, _ = run_training(cfg, plan=plan)
    _, built, _ = run_training(cfg)
    assert [tr.aggregate.tobytes() for tr in given] == [tr.aggregate.tobytes() for tr in built]
    with pytest.raises(ValueError):
        run_training(small_cfg(rounds=2, seed=cfg.seed + 1), plan=plan)


def test_round_counter_must_match():
    plan = make_plan(small_cfg())
    model = GlobalModel(plan.task.init_weights(), 0)
    with pytest.raises(ValueError):
        run_round(model, plan, 2)


def test_zero_updates_leave_model_unchanged(monkeypatch):
    cfg = small_cfg(sigma=0.0)
    plan = make_plan(cfg)
    monkeypatch.setattr(
        plan.task, "local_update", lambda w, client, trainer, rng: w.copy()
    )
    model = GlobalModel(plan.task.init_weights(), 0)
    new_model, tr = run_round(model, plan, 1)
    np.testing.assert_array_equal(new_model.w, model.w)
    assert tr.round_mse == 0.0


def test_masked_and_unmasked_agree_bitwise():
    cfg = small_cfg()
    m1, t1, _ = run_training(cfg, use_masks=True)
    m2, t2, _ = run_training(cfg, use_masks=False)
    np.testing.assert_array_equal(m1.w, m2.w)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a.aggregate, b.aggregate)
        np.testing.assert_array_equal(a.noise_z, b.noise_z)


def test_training_is_deterministic():
    cfg = small_cfg()
    m1, t1, _ = run_training(cfg)
    m2, t2, _ = run_training(cfg)
    np.testing.assert_array_equal(m1.w, m2.w)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a.payloads, b.payloads)
        assert a.clients == b.clients
        assert a.epsilon == b.epsilon


def test_noiseless_round_tracks_plain_averaging():
    # sigma 0, huge k, gamma 1: one round equals FedAvg up to the
    # quantization resolution
    cfg = small_cfg(
        n=6, gamma=1.0, rounds=1, sigma=0.0, k=2**12 + 1, q=2**12 + 3, clip_bound=100.0
    )
    plan = make_plan(cfg)
    model = GlobalModel(plan.task.init_weights(), 0)
    new_model, tr = run_round(model, plan, 1)
    assert tr.raw_mean is not None
    tolerance = plan.spec.step * math.sqrt(plan.d_pad)
    assert np.linalg.norm(new_model.w - (model.w + tr.raw_mean)) <= tolerance


def test_training_zero_rounds():
    cfg = small_cfg(rounds=0)
    model, transcripts, acct = run_training(cfg)
    np.testing.assert_array_equal(model.w, make_plan(cfg).task.init_weights())
    assert transcripts == []
    assert acct.epsilon(cfg.delta)[0] == 0.0


def test_training_learns_and_accounts():
    cfg = small_cfg(rounds=6)
    model, transcripts, acct = run_training(cfg)
    assert transcripts[-1].accuracy > 0.8
    eps = [tr.epsilon for tr in transcripts]
    assert all(b > a for a, b in zip(eps, eps[1:]))  # budget accumulates
    assert acct.rounds_recorded == 6


def test_noise_disabled_reports_infinite_epsilon():
    _, transcripts, acct = run_training(small_cfg(sigma=0.0, rounds=2))
    assert acct is None
    assert all(math.isinf(tr.epsilon) for tr in transcripts)


def test_accuracy_nonincreasing_in_sigma_on_average():
    def mean_acc(sigma):
        accs = []
        for seed in range(5):
            _, trs, _ = run_training(small_cfg(sigma=sigma, rounds=6, seed=1000 + seed))
            accs.append(trs[-1].accuracy)
        return float(np.mean(accs))

    assert mean_acc(0.0) >= mean_acc(0.4) - 0.02


def test_non_iid_split_runs():
    _, transcripts, _ = run_training(small_cfg(iid=False, rounds=3))
    assert len(transcripts) == 3
    assert np.isfinite(transcripts[-1].loss)


def test_transcript_byte_counts():
    from latticefl.bounds import comm_cost

    cfg = small_cfg(rounds=1)
    plan = make_plan(cfg)
    _, transcripts, _ = run_training(cfg)
    tr = transcripts[0]
    total_bits = comm_cost(plan.m, plan.d_pad, cfg.q)
    assert tr.payload_bytes_per_client == -(-total_bits // plan.m // 8)


@pytest.mark.parametrize("m, dim, q", [(1, 8, 9), (7, 8, 3001), (10, 1000, 4097), (200, 20, 4097)])
def test_reported_bytes_match_the_wire_group(m, dim, q):
    # the reported per-client upload is exactly what the payloads need
    from latticefl.bounds import ceil_log2

    cfg = small_cfg(n=m, gamma=1.0, rounds=1, dim=dim, q=q, samples_per_client=2)
    plan = make_plan(cfg)
    model = GlobalModel(plan.task.init_weights(), 0)
    _, tr = run_round(model, plan, 1)
    bits = ceil_log2(plan.wire_q)
    assert tr.payload_bytes_per_client == -(-plan.d_pad * bits // 8)
    assert tr.payloads.shape == (m, plan.d_pad)
    assert int(np.abs(tr.payloads).max()) < 1 << (bits - 1)


def test_payload_table_layout():
    _, transcripts, _ = run_training(small_cfg(rounds=1))
    rows = list(payload_table(transcripts))
    plan = make_plan(small_cfg(rounds=1))
    assert len(rows) == plan.m * plan.d_pad
    rnd, client, coord, value = rows[0]
    assert rnd == 1 and coord == 0
    assert client in transcripts[0].clients
    assert value == int(transcripts[0].payloads[0][0])


def test_payload_csv_dump(tmp_path):
    from latticefl.simulate import write_payload_csv

    _, transcripts, _ = run_training(small_cfg(rounds=2))
    path = tmp_path / "payloads.csv"
    write_payload_csv(transcripts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,client,coordinate,payload_int"
    assert len(lines) == 1 + len(list(payload_table(transcripts)))
    rnd, client, coord, value = lines[1].split(",")
    assert (int(rnd), int(coord)) == (1, 0)
    assert int(client) in transcripts[0].clients
    assert int(value) == int(transcripts[0].payloads[0][0])


def test_aggregation_unbiased_without_noise():
    # Monte Carlo over the quantizer randomness: the recovered mean
    # matches the mean clipped update within 4 standard errors.
    from latticefl import compress, secagg
    from latticefl.lattice import LatticeSpec

    m, d = 4, 16
    spec = LatticeSpec(g_max=1.0, k=9, q=2001)
    rs = compress.RotationSeed(3, compress.padded_dim(d))
    rng = np.random.default_rng(12)
    updates = rng.normal(size=(m, d))
    updates /= np.linalg.norm(updates, axis=1, keepdims=True)
    clipped = compress.clip(updates, 1.0)
    rotated = compress.rotate(clipped, rs)
    noise = np.zeros(rs.d_pad, dtype=np.int64)
    trials = 400
    estimates = np.empty((trials, d))
    for t in range(trials):
        quantized = compress.quantize(rotated, spec, [np.random.default_rng((t, r)) for r in range(m)])
        agg, _ = secagg.aggregate_round(quantized, noise, list(range(m)), None, spec)
        estimates[t] = compress.unrotate(agg, rs, d)
    mean_est = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
    reference = clipped.mean(axis=0)
    assert np.all(np.abs(mean_est - reference) <= 4 * np.maximum(se, 1e-12))


def test_convergence_report_on_quadratic_task():
    cfg = small_cfg(
        task="linear",
        dim=6,
        n=10,
        gamma=0.5,
        rounds=30,
        sigma=0.0,
        k=2**12 + 1,
        q=2**12 + 3,
        clip_bound=10.0,
        samples_per_client=30,
        local=LocalTrainerSpec(steps=1, learning_rate=0.3),
    )
    plan = make_plan(cfg)
    model, transcripts, _ = run_training(cfg, record_gradients=True)
    L = plan.task.smoothness()
    rho = max(np.linalg.norm(tr.full_grad) for tr in transcripts) * 1.1
    w0 = plan.task.init_weights()
    X = np.concatenate([c[0] for c in plan.task.client_sets])
    y = np.concatenate([c[1] for c in plan.task.client_sets])
    rho_f = plan.task.loss(w0, X, y)  # loss is nonnegative, so gap <= loss(w0)
    report = convergence_report(transcripts, L, rho, rho_f, cfg.local.learning_rate)
    # the stationarity bound holds along the recorded trajectory
    assert report.grad_sq_mean <= report.rhs
    # noiseless huge-k limit: the estimate deviation is bounded by the
    # quantization resolution and lambda^2 collapses to the
    # client-sampling variance term
    quant_dust = (plan.spec.step * math.sqrt(plan.d_pad) / cfg.local.learning_rate) ** 2
    assert report.estimate_dev_sq <= quant_dust
    assert report.estimate_dev_sq <= 0.1 * report.sampling_dev_sq
    assert report.lambda_sq == pytest.approx(
        2 * report.sampling_dev_sq, abs=2 * report.estimate_dev_sq + 1e-12
    )
    # with the measured constants held fixed, the T-dependent terms of the
    # bound cannot grow when T doubles
    lam = math.sqrt(report.lambda_sq)

    def t_terms(T):
        return 2 * rho_f * L / T + 2 * math.sqrt(2) * lam * math.sqrt(L * rho_f) / math.sqrt(T)

    assert t_terms(2 * report.rounds) <= t_terms(report.rounds)


def test_convergence_report_requires_recordings():
    _, transcripts, _ = run_training(small_cfg(rounds=2))
    with pytest.raises(ValueError):
        convergence_report(transcripts, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        convergence_report([], 1.0, 1.0, 1.0, 0.5)


def test_record_gradients_needs_single_step():
    cfg = small_cfg(local=LocalTrainerSpec(steps=3, learning_rate=0.1, batch_size=4))
    with pytest.raises(ConfigError):
        run_training(cfg, record_gradients=True)
