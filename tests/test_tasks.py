import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    client_shards_reference,
    full_gradient,
    local_update_reference,
    logistic_draw_reference,
    loss,
    shard_gather_reference,
    spiral_draw_reference,
)
from latticefl import tasks
from latticefl.tasks import (
    DRAW_CHUNK_BYTES,
    EVAL_SIZE,
    LinearRegressionTask,
    LogisticBlobsTask,
    SpiralMlpTask,
    Task,
    data_bytes,
    make_task,
)


def finite_difference_grad(task, w, X, y, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        g[i] = (loss(task, up, X, y) - loss(task, down, X, y)) / (2 * eps)
    return g


@pytest.mark.parametrize("name,dim", [("linear", 6), ("logistic", 7), ("mlp", 0)])
def test_gradients_match_finite_differences(name, dim):
    task = make_task(name, dim, n_clients=4, samples_per_client=10, seed=3)
    rng = np.random.default_rng(0)
    w = rng.normal(size=task.dim) * 0.3
    X, y = task.points[0], task.targets[0]
    np.testing.assert_allclose(
        task.grad(w, X, y), finite_difference_grad(task, w, X, y), rtol=1e-4, atol=1e-6
    )


@pytest.mark.parametrize("name,dim", [("linear", 6), ("logistic", 7), ("mlp", 0)])
def test_data_bytes_counts_what_the_task_draws(name, dim):
    task = make_task(name, dim, n_clients=4, samples_per_client=10, seed=3)
    arrays = [task.points, task.targets, *task.eval_set]
    assert data_bytes(name, dim, 4, 10) == sum(a.size * 8 for a in arrays)


@pytest.mark.parametrize("iid", [True, False])
@pytest.mark.parametrize("name,dim", [("linear", 6), ("logistic", 7), ("mlp", 0)])
def test_stacked_shards_equal_per_client_copies(monkeypatch, name, dim, iid):
    drawn = []
    shard = Task._shard

    def capture(X, y, n_clients, iid, rng):
        drawn.append((X.copy(), y.copy(), n_clients, iid, copy.deepcopy(rng)))
        stacked = shard(X, y, n_clients, iid, rng)
        drawn.append(rng.bit_generator.state)
        return stacked

    monkeypatch.setattr(Task, "_shard", staticmethod(capture))
    task = make_task(name, dim, n_clients=5, samples_per_client=12, seed=3, iid=iid)
    (X, y, n_clients, iid, rng), state_after = drawn
    shards = client_shards_reference(X, y, n_clients, iid, rng)
    assert task.points.shape == (5, 12, X.shape[1]) and task.targets.shape == (5, 12)
    assert task.points.flags.c_contiguous and task.targets.flags.c_contiguous
    assert task.points.tobytes() == np.stack([sx for sx, _ in shards]).tobytes()
    assert task.targets.tobytes() == np.stack([sy for _, sy in shards]).tobytes()
    assert rng.bit_generator.state == state_after  # the same draws from rng


@settings(max_examples=80, deadline=None)
@given(
    n_clients=st.integers(1, 6),
    samples=st.integers(1, 8),
    features=st.integers(1, 40),
    iid=st.booleans(),
    block=st.integers(1, 4096),
    seed=st.integers(0, 2**32 - 1),
)
def test_shard_in_place_equals_one_gather(n_clients, samples, features, iid, block, seed):
    # any column block, down to one column of a many-column row
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_clients * samples, features))
    y = rng.integers(0, 3, size=len(X)).astype(float)
    ref_rng = copy.deepcopy(rng)
    want_X, want_y = shard_gather_reference(X, y, n_clients, iid, ref_rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tasks, "SHARD_BLOCK_BYTES", block)
        points, targets = Task._shard(X.copy(), y, n_clients, iid, rng)
    assert points.shape == want_X.shape and targets.shape == want_y.shape
    assert points.flags.c_contiguous and targets.flags.c_contiguous
    assert points.tobytes() == want_X.tobytes() and targets.tobytes() == want_y.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("iid", [True, False])
@pytest.mark.parametrize(
    "name,dim,n_clients,samples,limit",
    [
        pytest.param("linear", 20, 40, 500, 1.15, id="linear-20"),
        pytest.param("logistic", 20, 40, 500, 1.4, id="logistic-20"),
        pytest.param("mlp", 0, 40, 500, 1.8, id="mlp-0"),
        # 66 MB, beside which the 1 MiB draw chunk is small
        pytest.param("logistic", 200, 2000, 20, 1.15, id="logistic-200"),
    ],
)
def test_make_task_peak_memory(name, dim, n_clients, samples, limit, iid):
    # the data is drawn into its final buffer and sharded there: no second
    # copy of the draw, only a bounded draw chunk or column block beside it
    tracemalloc.start()
    try:
        make_task(name, dim, n_clients, samples, seed=3, iid=iid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit * data_bytes(name, dim, n_clients, samples)


@pytest.mark.parametrize("iid", [True, False])
def test_linear_draw_equals_the_plain_formula(iid):
    # targets X w* plus noise of scale 0.05, from one stream
    n_clients, samples, seed, dim, noise = 5, 6, 4, 3, 0.05
    task = LinearRegressionTask(dim, n_clients, samples, seed, iid)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    w_star = rng.normal(size=dim) / np.sqrt(dim)
    X = rng.normal(size=(n_clients * samples, dim))
    y = X @ w_star + noise * rng.normal(size=n_clients * samples)
    shards = client_shards_reference(X, y, n_clients, iid, rng)
    assert task.points.tobytes() == np.stack([sx for sx, _ in shards]).tobytes()
    assert task.targets.tobytes() == np.stack([sy for _, sy in shards]).tobytes()
    Xe = rng.normal(size=(EVAL_SIZE, dim))
    ye = Xe @ w_star + noise * rng.normal(size=EVAL_SIZE)
    assert task.eval_set[0].tobytes() == Xe.tobytes() and task.eval_set[1].tobytes() == ye.tobytes()


@pytest.mark.parametrize("iid", [True, False])
def test_spiral_draw_equals_fresh_array_reference(iid):
    # the in-place draw keeps the stream and the bytes of the plain formula
    n_clients, samples, seed, noise = 6, 7, 4, 0.08
    task = SpiralMlpTask(n_clients, samples, seed, iid)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    X, y = spiral_draw_reference(rng, n_clients * samples, noise)
    shards = client_shards_reference(X, y, n_clients, iid, rng)
    assert task.points.tobytes() == np.stack([sx for sx, _ in shards]).tobytes()
    assert task.targets.tobytes() == np.stack([sy for _, sy in shards]).tobytes()
    Xe, ye = spiral_draw_reference(rng, EVAL_SIZE, noise)
    assert task.eval_set[0].flags.c_contiguous
    assert task.eval_set[0].tobytes() == Xe.tobytes() and task.eval_set[1].tobytes() == ye.tobytes()


@pytest.mark.parametrize("dim", [2, 7])
@pytest.mark.parametrize("chunks,extra", [(0, 1), (1, 0), (1, 1), (3, 7)])
def test_logistic_draw_equals_outer_hstack_reference(dim, chunks, extra):
    # count = 1, one chunk, one chunk + 1 and several chunks of the
    # in-place draw keep the stream and the bytes of the plain formula
    count = chunks * max(1, DRAW_CHUNK_BYTES // (8 * (dim - 1))) + extra
    seed, separation = 5, 2.0
    task = LogisticBlobsTask(dim, 1, count, seed, iid=False)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    direction = rng.normal(size=dim - 1)
    centers = separation * (direction / np.linalg.norm(direction))
    X, y = logistic_draw_reference(rng, count, centers)
    shards = client_shards_reference(X, y, 1, False, rng)
    assert task.points.tobytes() == np.stack([sx for sx, _ in shards]).tobytes()
    assert task.targets.tobytes() == np.stack([sy for _, sy in shards]).tobytes()
    Xe, ye = logistic_draw_reference(rng, EVAL_SIZE, centers)
    assert task.eval_set[0].tobytes() == Xe.tobytes() and task.eval_set[1].tobytes() == ye.tobytes()


def test_task_determinism():
    a = make_task("logistic", 9, 5, 8, seed=11)
    b = make_task("logistic", 9, 5, 8, seed=11)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_linear_task_knows_optimum():
    task = make_task("linear", 5, 10, 50, seed=4)
    X, y = task.eval_set
    loss_star = loss(task, task.w_star, X, y)
    loss_zero = loss(task, np.zeros(5), X, y)
    assert loss_star < loss_zero
    assert np.linalg.norm(full_gradient(task, task.w_star)) < 0.1


def test_local_update_descends():
    task = make_task("logistic", 7, 4, 30, seed=5)
    w0 = task.init_weights()
    X, y = task.points[1], task.targets[1]
    (w1,) = task.local_update(w0, [1], 3, 0.5, 10, [np.random.default_rng(0)])
    assert loss(task, w1, X, y) < loss(task, w0, X, y)


def test_local_update_deterministic_given_stream():
    task = make_task("mlp", 0, 3, 25, seed=6)
    w = task.init_weights()
    a = task.local_update(w, [0, 2], 2, 0.2, 8, [np.random.default_rng(9), np.random.default_rng(10)])
    b = task.local_update(w, [0, 2], 2, 0.2, 8, [np.random.default_rng(9), np.random.default_rng(10)])
    np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["linear", "logistic", "mlp"]),
    dim=st.integers(2, 40),
    n_clients=st.integers(1, 12),
    samples=st.integers(1, 16),
    iid=st.booleans(),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
    steps=st.integers(1, 3),
    batch_size=st.one_of(st.none(), st.integers(1, 20)),
    per_block=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
# the benchmark's shapes, train-cohort's full batches in blocks of 3 and
# train-long's 32-point batches of 1000 coordinates one client a block, and
# a non-IID MLP whose mini-batches run in one block
@example(name="logistic", dim=200, n_clients=16, samples=20, iid=True, picks=list(range(12)), steps=1,
         batch_size=None, per_block=3, seed=0)
@example(name="logistic", dim=1000, n_clients=4, samples=200, iid=True, picks=[3, 0], steps=5,
         batch_size=32, per_block=1, seed=1)
@example(name="mlp", dim=2, n_clients=12, samples=16, iid=False, picks=list(range(12)), steps=2,
         batch_size=5, per_block=16, seed=2)
def test_local_update_equals_the_per_client_loop(name, dim, n_clients, samples, iid, picks, steps,
                                                 batch_size, per_block, seed):
    # blocks of one client up to all of them, whole shards and mini-batches
    task = make_task(name, dim, n_clients, samples, seed=seed, iid=iid)
    clients = list(dict.fromkeys(c % n_clients for c in picks))
    w = task.init_weights() + 0.3 * np.random.default_rng(seed).normal(size=task.dim)
    rngs = [np.random.default_rng([seed, c]) for c in clients]
    ref_rngs = [np.random.default_rng([seed, c]) for c in clients]
    batch = min(batch_size or samples, samples)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tasks, "LOCAL_BLOCK_BYTES", per_block * batch * task.width * 8)
        got = task.local_update(w, np.array(clients), steps, 0.7, batch, rngs)
    want = local_update_reference(task, w, clients, steps, 0.7, batch, ref_rngs)
    assert got.shape == (len(clients), task.dim)
    assert got.tobytes() == want.tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


def blocks_beyond_the_result(task, m: int) -> float:
    """Peak bytes of two full-batch steps of ``m`` clients beyond their
    ``(m, d)`` result, in blocks of ``LOCAL_BLOCK_BYTES``."""
    w = np.full(task.dim, 0.01)
    tracemalloc.start()
    try:
        out = task.local_update(w, np.arange(m), 2, 1.0, task.points.shape[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - out.nbytes) / tasks.LOCAL_BLOCK_BYTES


@pytest.mark.parametrize("m", [200, 2000])
def test_local_update_peak_memory_is_one_block_beyond_its_result(m):
    # train-cohort's clients (d = 200, 20 points each): a block gathers at
    # most LOCAL_BLOCK_BYTES of points, never the whole cohort's 32 KB a client
    assert blocks_beyond_the_result(make_task("logistic", 200, m, 20, seed=3), m) <= 1.25


@pytest.mark.parametrize("m", [200, 2000])
def test_mlp_local_update_peak_memory_is_a_few_blocks_beyond_its_result(m):
    # 100 points a client: a block is sized by the 16-wide hidden rows, not
    # the 2-wide points, and a step holds several arrays of such rows
    assert blocks_beyond_the_result(make_task("mlp", 0, m, 100, seed=3), m) <= 8.0


def test_non_iid_shards_are_label_sorted():
    task = make_task("logistic", 5, 4, 25, seed=7, iid=False)
    per_client_label_spread = [len(np.unique(y)) for y in task.targets]
    # at least the edge shards are single-label under the sorted split
    assert per_client_label_spread[0] == 1
    assert per_client_label_spread[-1] == 1


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        make_task("transformer", 10, 2, 5, seed=0)


def test_mlp_learns_a_little():
    task = make_task("mlp", 0, 2, 200, seed=8)
    (w,) = task.local_update(task.init_weights(), [0], 800, 1.0, 64, [np.random.default_rng(1)])
    _, acc = task.eval_metrics(w)
    assert acc > 0.7
