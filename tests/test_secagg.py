import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefl import streams
from latticefl.bounds import ceil_log2
from latticefl.dgauss import sample_integer_gaussian
from latticefl.errors import ConfigError
from latticefl.lattice import LatticeSpec
from latticefl.secagg import (
    aggregate_round,
    net_masks,
    server_aggregate,
    wire_modulus,
)

from helpers import brute_force_wrap, centered, gof_pvalue_uniform, split_integer, summed_masks


def masked_payloads(plains, round_seed, q):
    """Masked wire payloads of noiseless rows, row r for rank r, in the
    wire group for ``q``."""
    rows = np.stack(plains)
    spec = LatticeSpec(g_max=1.0, k=3, q=q)
    return aggregate_round(rows, np.zeros(rows.shape[1], dtype=np.int64), round_seed, spec)[1]


def test_wire_modulus_is_the_power_of_two_above_m_q():
    for q, m, w in ((1, 1, 2), (7, 1, 8), (101, 4, 512), (1001, 10, 16384), (255, 1, 256), (3, 5, 16)):
        assert wire_modulus(q, m) == w
        assert w & (w - 1) == 0 and w // 2 <= m * q < w
    with pytest.raises(ValueError):
        wire_modulus(8, 2)
    with pytest.raises(ValueError, match="participant count"):
        wire_modulus(101, 0)


def test_wire_modulus_stays_below_2_32():
    # a mask coordinate is the low bits of one 32-bit Philox word
    assert wire_modulus(2**31 - 1, 2) == wire_modulus(2**32 - 1, 1) == 2**32
    for q, m in ((2**31 + 1, 2), (2**32 + 1, 1), (429497, 10**4)):
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            wire_modulus(q, m)


def test_single_participant_passthrough():
    plain = np.array([5, -3, 0], dtype=np.int64)
    spec = LatticeSpec(g_max=1.0, k=3, q=101)  # step 1
    agg, _ = aggregate_round(plain[None, :], np.zeros(3, dtype=np.int64), 1, spec)
    np.testing.assert_allclose(agg, plain * 1.0)


def test_two_party_cancellation():
    wire_q = wire_modulus(101, 2)
    a = np.array([3, -8], dtype=np.int64)
    b = np.array([-1, 4], dtype=np.int64)
    payloads = masked_payloads([a, b], round_seed=7, q=101)
    total = centered(payloads.sum(axis=0), wire_q)
    np.testing.assert_array_equal(total, centered(a + b, wire_q))


def test_mask_determinism_and_pair_agreement():
    # a round seed and a cohort size fix every rank's net mask; what a
    # sender adds its receiver subtracts, so the pairs cancel in the sum
    # mod the group
    first = net_masks(42, 3, 16, 1024)
    np.testing.assert_array_equal(first, net_masks(42, 3, 16, 1024))
    assert not np.array_equal(first, net_masks(43, 3, 16, 1024))
    np.testing.assert_array_equal(centered(first.sum(axis=0, dtype=np.int64), 1024), 0)
    np.testing.assert_array_equal(first, summed_masks(42, 3, 16, 1024) & 1023)


def test_mask_uniformity():
    q = 128
    sender = net_masks(2024, 2, 10**6, q)[0].astype(np.int64)  # the pair's mask itself
    assert gof_pvalue_uniform(centered(sender, q), q) > 0.01


def test_net_masks_validation():
    for wire_q in (0, 100, 101, 2**32 - 1, 2**32 + 1, 2**33):
        with pytest.raises(ValueError):
            net_masks(0, 2, 4, wire_q)
    # PCG64 itself would take any seed >= 0
    for seed in (-1, 2**64, 2**127):
        with pytest.raises(ValueError):
            net_masks(seed, 2, 4, 128)


def test_pair_masks_differ_across_pairs_and_rounds():
    # pair 0 of a round is block 0 of its stream at any m, so a two-party
    # round gives it alone and the three-party net masks give the others
    d_pad, wire_q = 1 << 16, 128
    masks = []
    for seed in (40, 41):  # rounds r and r + 1
        first = net_masks(seed, 2, d_pad, wire_q)[0].astype(np.int64)
        net = net_masks(seed, 3, d_pad, wire_q).astype(np.int64)
        masks += [first, net[0] - first, net[1] + first]  # pairs (0, 1), (0, 2), (1, 2)
    for a, mask in enumerate(masks):
        assert gof_pvalue_uniform(centered(mask, wire_q), wire_q) > 0.01
        for other in masks[a + 1 :]:
            assert not np.array_equal(mask, other)


@st.composite
def mask_rounds(draw):
    m = draw(st.integers(1, 40))
    seed = draw(st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1)))
    d_pad = draw(st.integers(1, 256))
    bits = draw(st.one_of(st.integers(1, 32), st.sampled_from([1, 31, 32])))
    return seed, m, d_pad, 1 << bits


@settings(max_examples=80, deadline=None)
@given(mask_rounds())
def test_net_masks_equal_summed_pair_masks(case):
    seed, m, d_pad, wire_q = case
    # rank r's net mask is the residue, in [0, wire_q), of the int64 sum of
    # its pairs' masks, and the residues cancel mod the group
    net = net_masks(seed, m, d_pad, wire_q)
    assert net.dtype == np.uint32 and net.shape == (m, d_pad)
    expected = summed_masks(seed, m, d_pad, wire_q) & (wire_q - 1)
    assert net.tobytes() == expected.astype(np.uint32).tobytes()
    np.testing.assert_array_equal(centered(net.sum(axis=0, dtype=np.int64), wire_q), 0)


def test_net_masks_build_one_pcg64_per_round(monkeypatch):
    # no generator per pair: one PCG64 seeded by the round seed, no
    # Generator and no call into the streams port
    m, seeds = 30, [5, 6, 7]
    wire_q = wire_modulus(1001, m)
    expected = [summed_masks(s, m, 64, wire_q) & (wire_q - 1) for s in seeds]
    built, wrapped = [], []
    pcg64, generator = np.random.PCG64, np.random.Generator
    monkeypatch.setattr(np.random, "PCG64", lambda *a, **k: built.append((a, k)) or pcg64(*a, **k))
    monkeypatch.setattr(np.random, "Generator", lambda *a, **k: wrapped.append(a) or generator(*a, **k))
    for name in ("entropy", "seed_sequence_state", "generators"):
        monkeypatch.setattr(streams, name, lambda *a, **k: pytest.fail("net_masks called into streams"))
    for r, seed in enumerate(seeds):
        np.testing.assert_array_equal(net_masks(seed, m, 64, wire_q), expected[r])
        assert built == [((s,), {}) for s in seeds[: r + 1]] and not wrapped


def test_net_masks_peak_memory_is_one_sender_block_beside_the_net_matrix():
    # at train-cohort's shape, m = 200 and d_pad = 256: one sender's raw
    # draw and the uint32 net matrix, never the round's 19,900 blocks (about
    # 20 MB) at once, nor two senders' draws side by side
    m, d_pad = 200, 256
    wire_q = wire_modulus(4097, m)
    tracemalloc.start()
    try:
        net = net_masks(1, m, d_pad, wire_q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sender_block = (m - 1) * (d_pad // 2) * np.dtype(np.uint64).itemsize
    assert peak <= sender_block + net.nbytes + 16 * 1024


def test_split_examples():
    np.testing.assert_array_equal(split_integer(0, 3), [0, 0, 0])
    np.testing.assert_array_equal(split_integer(1, 3), [1, 0, 0])
    np.testing.assert_array_equal(split_integer(-1, 4), [0, 0, 0, -1])
    np.testing.assert_array_equal(split_integer(np.array([7, -7]), 2), [[4, -3], [3, -4]])


def test_split_integer_exhaustive():
    for m in range(1, 7):
        for v in range(-20, 21):
            shares = split_integer(v, m)
            assert shares.shape == (m,)
            assert shares.sum() == v
            assert shares.max() - shares.min() <= 1


def test_split_integer_validation():
    with pytest.raises(ValueError):
        split_integer(np.array([1]), 0)


@st.composite
def rounds(draw):
    """One round inside the validated envelope: m rows of quantizer levels
    and a draw that fits the noise margin of the wire group, at or below 0
    when ``negative``.  With ``far`` each row coordinate is also moved by
    2**62 either way, so that the columns' true sums pass the int64 range
    and only their residues are in the group."""
    m = draw(st.integers(1, 40))
    k = 2 * draw(st.integers(1, 16)) + 1
    q = k + 2 * draw(st.integers(0, 5000))
    d = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    far, negative = draw(st.booleans()), draw(st.booleans())
    h = (k - 1) // 2
    margin = (wire_modulus(q, m) - 1) // 2 - m * h
    rng = np.random.default_rng(seed)
    rows = rng.integers(-h, h + 1, size=(m, d))
    if far:
        rows += rng.choice([-(1 << 62), 1 << 62], size=(m, d))
    noise = rng.integers(-margin, 1 if negative else margin + 1, size=d)
    return LatticeSpec(g_max=float(h), k=k, q=q), rows, noise, seed  # step 1


@settings(max_examples=60, deadline=None)
@given(rounds())
def test_aggregate_round_properties(case):
    spec, rows, noise, mask_seed = case
    m = rows.shape[0]
    wire_q = wire_modulus(spec.q, m)
    masked, payloads = aggregate_round(rows, noise, mask_seed, spec)
    unmasked, plain_payloads = aggregate_round(rows, noise, None, spec)
    # masked == unmasked, bit for bit
    assert masked.tobytes() == unmasked.tobytes()
    # the server recovers the integer total of the rows plus the draw, as
    # its centered residue: Python ints, whatever the int64 range
    half = wire_q // 2
    expected = [(sum(col) + z + half) % wire_q - half for col, z in zip(rows.T.tolist(), noise.tolist())]
    np.testing.assert_array_equal(np.rint(masked * m / spec.step), expected)
    # the shares sum to the draw
    shares = split_integer(noise, m)
    np.testing.assert_array_equal(shares.sum(axis=0), noise)
    # an unmasked payload is its row plus share, wrapped; the wrapped parts,
    # masked or not, sum to the wrap of the sum
    np.testing.assert_array_equal(plain_payloads, (rows + shares) % wire_q)
    for p in (payloads, plain_payloads):
        np.testing.assert_array_equal(centered(p.sum(axis=0, dtype=np.int64), wire_q), expected)
    # every payload is a uint32 residue of the wire group
    assert payloads.shape == rows.shape
    assert payloads.dtype == plain_payloads.dtype == np.uint32 and payloads.max() < wire_q


def test_unmasked_payloads_are_wrapped_plaintext():
    spec = LatticeSpec(g_max=1.0, k=3, q=101)
    rows = np.array([[40, -60, 150], [1, 2, 3]], dtype=np.int64)
    noise = np.array([5, -5, 0], dtype=np.int64)
    _, payloads = aggregate_round(rows, noise, None, spec)
    assert payloads.dtype == np.uint32
    np.testing.assert_array_equal(payloads, (rows + split_integer(noise, 2)) % wire_modulus(101, 2))


def test_aggregate_round_refuses_a_wire_group_above_2_32():
    # a wire group m q past 2**32 is refused before anything is summed
    m = 1 << 10
    spec = LatticeSpec(g_max=1.0, k=3, q=(1 << 45) + 1)
    with pytest.raises(ConfigError):
        aggregate_round(np.zeros((m, 1), dtype=np.int64), np.zeros(1, dtype=np.int64), None, spec)


def test_aggregate_round_rejects_a_row_vector():
    spec = LatticeSpec(g_max=1.0, k=3, q=101)
    with pytest.raises(ValueError, match=r"got shape \(4,\)"):
        aggregate_round(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), None, spec)


def test_aggregate_round_rejects_a_mis_shaped_noise_draw():
    # a draw is never broadcast: one integer per coordinate, one row per round
    spec = LatticeSpec(g_max=1.0, k=3, q=101)
    with pytest.raises(ValueError, match="noise"):
        aggregate_round(np.zeros((2, 4), dtype=np.int64), np.array([6]), None, spec)
    with pytest.raises(ValueError, match="noise"):
        aggregate_round(np.zeros((3, 2, 4), dtype=np.int64), np.zeros(4, dtype=np.int64), None, spec)
    with pytest.raises(ValueError, match="noise"):
        aggregate_round(np.zeros((2, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64), 7, spec)


@st.composite
def overflowing_columns(draw):
    """int64 rows whose every column sum lies beyond the int64 range."""
    m = draw(st.integers(2, 8))
    d = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
    magnitudes = st.integers((1 << 62) + 1, (1 << 63) - 1)
    rows = [[s * draw(magnitudes) for s in signs] for _ in range(m)]
    return np.array(rows, dtype=np.int64), draw(st.integers(1, 32))


@settings(max_examples=200, deadline=None)
@given(overflowing_columns())
def test_wrapped_int64_sums_keep_the_residue_mod_2_b(case):
    # numpy's int64 sums wrap mod 2**64, which 2**b divides, so the wrapped
    # sum and the true one leave the same residue, and the test-side
    # ``centered`` may recentre such sums
    rows, bits = case
    for column, total in zip(rows.T.tolist(), centered(rows.sum(axis=0), 1 << bits).tolist()):
        true_sum = sum(column)
        assert not -(1 << 63) <= true_sum < 1 << 63
        assert (total - true_sum) % (1 << bits) == 0 and -(1 << bits) <= 2 * total < 1 << bits


def test_aggregate_round_with_rows_near_2_62_recovers_the_residue_mean():
    # the caller's rows are any int64s: their noised sum, mod the wire
    # group, is still recovered exactly, however far it passes 2**63
    spec = LatticeSpec(g_max=1.0, k=3, q=101)  # step 1
    m, wire_q = 4, wire_modulus(101, 4)
    rows = np.array([[(1 << 62) + 3, -(1 << 62) - 5, (1 << 63) - 2],
                     [(1 << 62) + 11, -(1 << 62) - 1, (1 << 62)],
                     [(1 << 62) - 7, -(1 << 62) - 9, (1 << 62) + 1],
                     [(1 << 62) + 2, -(1 << 62), 5]], dtype=np.int64)
    noise = np.array([17, -23, 9], dtype=np.int64)
    expected = [brute_force_wrap(sum(col) + z, wire_q) for col, z in zip(rows.T.tolist(), noise.tolist())]
    for mask_seed in (None, 3):
        mean, payloads = aggregate_round(rows, noise, mask_seed, spec)
        np.testing.assert_array_equal(np.rint(mean * m / spec.step), expected)
        np.testing.assert_array_equal(centered(payloads.sum(axis=0), wire_q), expected)


@settings(max_examples=30, deadline=None)
@given(rounds(), st.integers(1, 4))
def test_aggregate_round_batch_equals_one_round_at_a_time(case, count):
    spec, rows, noise, seed = case
    rng = np.random.default_rng(seed)
    batch = np.stack([rng.permutation(rows) for _ in range(count)])
    noises = np.stack([rng.permutation(noise) for _ in range(count)])
    means, payloads = aggregate_round(batch, noises, None, spec)
    assert means.shape == (count, rows.shape[1]) and payloads.shape == batch.shape
    for r in range(count):
        mean, payload = aggregate_round(batch[r], noises[r], None, spec)
        assert means[r].tobytes() == mean.tobytes() and payloads[r].tobytes() == payload.tobytes()


def test_aggregate_round_refuses_a_masked_batch():
    # masks are derived one round per call; a batch carries no round seeds
    spec = LatticeSpec(g_max=1.0, k=3, q=101)
    batch = np.zeros((2, 3, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="unmasked"):
        aggregate_round(batch, np.zeros((2, 4), dtype=np.int64), 7, spec)


def test_payload_conditionally_uniform():
    # a masked payload is uniform mod Q regardless of its plaintext
    wire_q = wire_modulus(51, 2)
    rows = []
    for r in range(40):
        payloads = masked_payloads(
            [np.full(1000, 7, dtype=np.int64), np.full(1000, -2, dtype=np.int64)],
            round_seed=r,
            q=51,
        )
        rows.append(payloads[0])
    assert gof_pvalue_uniform(centered(np.concatenate(rows), wire_q), wire_q) > 0.01


def test_aggregate_equals_unmasked_sum():
    rng = np.random.default_rng(1)
    for trial in range(51):
        m = int(rng.integers(1, 21))
        q = 2 * int(rng.integers(1, 1 << 16)) + 1
        if trial == 50:  # the largest group: m q = 2**32 - 1, wire group 2**32
            m, q = 5, (2**32 - 1) // 5
        wire_q = wire_modulus(q, m)
        d = int(rng.integers(1, 33))
        plains = [rng.integers(-q, q, size=d).astype(np.int64) for _ in range(m)]
        payloads = masked_payloads(plains, round_seed=trial, q=q)
        total = centered(np.sum(payloads, axis=0, dtype=np.int64), wire_q)
        np.testing.assert_array_equal(total, centered(np.sum(plains, axis=0), wire_q))
        # every payload is a uint32 that fits the reported width
        bits = ceil_log2(wire_q)
        assert payloads.dtype == np.uint32 and payloads.max() < 1 << bits


def test_server_aggregate_recovers_quantized_values():
    # m = 1, zero noise: output is exactly the quantized update
    spec = LatticeSpec(g_max=1.0, k=5, q=101)
    z = np.array([2, -1, 0], dtype=np.int64)
    payloads = masked_payloads([z], round_seed=3, q=spec.q)
    np.testing.assert_allclose(server_aggregate(payloads, spec), z * spec.step)


def test_server_aggregate_recovers_a_sum_of_minus_half_the_group():
    # -2**(b-1) is the group's lowest residue, a legal unwrapped sum
    spec = LatticeSpec(g_max=1.0, k=3, q=7)  # step 1, wire group 16 for m = 2
    mean, payloads = aggregate_round(np.array([[1], [1]]), np.array([-10]), 5, spec)
    np.testing.assert_array_equal(mean, [-4.0])
    np.testing.assert_array_equal(server_aggregate(payloads, spec), [-4.0])


def test_transcript_replay_reconstructs_noise():
    # aggregate * m - sum(quantized) returns the shared draw bit-exactly
    m, d = 3, 16
    spec = LatticeSpec(g_max=1.0, k=9, q=4001)
    rng = np.random.default_rng(5)
    noise = sample_integer_gaussian(spec.sigma_units(2.0 * spec.step), rng, d)
    quantized = np.stack([rng.integers(-4, 5, size=d) for _ in range(m)])
    _, payloads = aggregate_round(quantized, noise, 11, spec)
    agg = server_aggregate(payloads, spec)
    reconstructed = np.rint(agg * m / spec.step - np.sum(quantized, axis=0)).astype(np.int64)
    np.testing.assert_array_equal(reconstructed, noise)


def test_masked_equals_unmasked_aggregate():
    m, d = 10, 32
    spec = LatticeSpec(g_max=0.5, k=5, q=2001)
    rng = np.random.default_rng(6)
    plains = np.stack([rng.integers(-40, 41, size=d) for _ in range(m)])
    noise = rng.integers(-100, 101, size=d)
    agg_masked, masked = aggregate_round(plains, noise, 21, spec)
    agg_plain, unmasked = aggregate_round(plains, noise, None, spec)
    assert not np.array_equal(masked, unmasked)
    np.testing.assert_array_equal(agg_masked, agg_plain)


def test_server_aggregate_validation():
    spec = LatticeSpec(g_max=1.0, k=3, q=7)
    with pytest.raises(ValueError):
        server_aggregate(np.zeros(3, dtype=np.int64), spec)
    with pytest.raises(ValueError):
        server_aggregate([np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)], spec)
