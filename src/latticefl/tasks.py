"""Synthetic desk-scale learning tasks with exact gradient oracles.

Three tasks back the simulator: linear regression with a known optimum,
two-class logistic regression on Gaussian blobs, and a tiny MLP on 2-D
spirals.  All are deterministic given the seed, cheap enough for
thousand-round runs, and expose an exact gradient, which local training
steps along.
"""

from __future__ import annotations

import math

import numpy as np

# Points in every task's evaluation set.
EVAL_SIZE = 1000

DRAW_CHUNK_BYTES = 1 << 20  # bytes per normal() call of the logistic draw
LOCAL_BLOCK_BYTES = 256 << 10  # most bytes of per-point rows one block of local training holds at once
SHARD_BLOCK_BYTES = 16 << 20  # most bytes one column block of sharding gathers


def _sigmoid(z):
    """``0.5 * (1 + tanh(0.5 z))``, computed in place in ``z``."""
    return np.multiply(np.add(np.tanh(np.multiply(z, 0.5, out=z), out=z), 1.0, out=z), 0.5, out=z)


class Task:
    """Shared plumbing: client shards, minibatch SGD, evaluation.

    The training data is stacked client-major: client ``c`` holds
    ``points[c]`` (shape ``(samples_per_client, features)``) and
    ``targets[c]``.  Each task defines ``grad(w, X, y)`` along the trailing axes
    (stacked weights, points and targets give each client's 2-D call's bits), and
    the ``_loss_of(out, y)`` of the ``_outputs(w, X)`` that evaluation reads.
    """

    dim: int
    width: int  # floats per point in the widest array a step holds
    points: np.ndarray
    targets: np.ndarray
    eval_set: tuple[np.ndarray, np.ndarray]

    def init_weights(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _outputs(self, w, X):
        return X @ w

    def _accuracy_of(self, out, y) -> float:
        return float("nan")

    def eval_metrics(self, w) -> tuple[float, float]:
        """Loss and accuracy on the evaluation set, from one forward pass."""
        X, y = self.eval_set
        out = self._outputs(w, X)
        return self._loss_of(out, y), self._accuracy_of(out, y)

    def local_update(self, w: np.ndarray, clients, steps: int, learning_rate: float, batch: int,
                     rngs=()) -> np.ndarray:
        """Each client's weights after ``steps`` SGD steps from ``w``, stacked ``(len(clients), dim)``, each step
        on ``batch`` of a client's points: its whole shard when ``batch`` is its size, else one index set per
        client from its generator in ``rngs``.  Clients go in blocks whose points take at most
        ``LOCAL_BLOCK_BYTES`` in rows of ``width`` floats (one client at least)."""
        clients, (n, features) = np.asarray(clients), self.points.shape[1:]
        per_block = max(1, LOCAL_BLOCK_BYTES // (batch * self.width * self.points.itemsize))
        out = np.empty((len(clients), len(w)))
        for at in range(0, len(clients), per_block):
            # one client is indexed, not sliced: its shard is a view and its 2-D arrays step faster than 3-D ones
            block = at if per_block == 1 else slice(at, at + per_block)
            ids, W, gens = clients[block], out[block], rngs[at : at + per_block]
            W[...] = w
            if batch == n or per_block == 1:  # whole shards, or one client's own
                X, y = points, targets = self.points[ids], self.targets[ids]
            else:  # the flat points, indexed from each client's first row
                points, targets = self.points.reshape(-1, features), self.targets.reshape(-1)
            for _ in range(steps):
                if batch < n:
                    rows = (gens[0].choice(n, size=batch, replace=False) if per_block == 1 else
                            np.array([g.choice(n, size=batch, replace=False) for g in gens]) + (ids * n)[:, None])
                    X, y = points[rows], targets[rows]
                W -= learning_rate * self.grad(W, X, y)
            del X, y, points, targets  # so that the next block's gather is not made beside this one
        return out

    @staticmethod
    def _shard(X, y, n_clients, iid, rng) -> tuple[np.ndarray, np.ndarray]:
        """The clients' points and targets, stacked client-major: IID deals a
        shuffle round robin, non-IID cuts the stable label sort into chunks.
        The points view ``X``, its rows permuted in place by blocks of one
        column or more, up to ``min(SHARD_BLOCK_BYTES, X.nbytes // 8)`` bytes."""
        if iid:
            index = rng.permutation(len(y)).reshape(-1, n_clients).T.ravel()
        else:
            index = np.argsort(y, kind="stable")
        width = max(1, min(SHARD_BLOCK_BYTES, X.nbytes // 8) // (len(X) * X.itemsize or 1))
        for c in range(0, X.shape[1], width):
            X[:, c : c + width] = X[index, c : c + width]
        return X.reshape(n_clients, -1, X.shape[1]), y[index].reshape(n_clients, -1)


class LinearRegressionTask(Task):
    """y = X w* + noise; the optimum is known in closed form."""

    NOISE = 0.05  # of the targets

    def __init__(self, dim, n_clients, samples_per_client, seed, iid=True):
        self.dim = self.width = dim
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.w_star = rng.normal(size=dim) / math.sqrt(dim)
        total = n_clients * samples_per_client
        X = rng.normal(size=(total, dim))
        y = X @ self.w_star + self.NOISE * rng.normal(size=total)
        self.points, self.targets = self._shard(X, y, n_clients, iid, rng)
        Xe = rng.normal(size=(EVAL_SIZE, dim))
        self.eval_set = (Xe, Xe @ self.w_star + self.NOISE * rng.normal(size=EVAL_SIZE))

    def grad(self, w, X, y):
        return np.vecmat(np.matvec(X, w) - y, X) / y.shape[-1]

    def _loss_of(self, out, y):
        r = out - y
        return float(0.5 * (r @ r) / len(y))


class LogisticBlobsTask(Task):
    """Two Gaussian blobs, logistic regression with a bias feature."""

    SEPARATION = 2.0  # of each blob centre from the origin

    def __init__(self, dim, n_clients, samples_per_client, seed, iid=True):
        if dim < 2:
            raise ValueError("logistic task needs dim >= 2 (features + bias)")
        self.dim = self.width = dim
        features = dim - 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        direction = rng.normal(size=features)
        direction /= np.linalg.norm(direction)
        self.centers = self.SEPARATION * direction

        def draw(count):
            # same stream and bytes as one normal() call + outer(±1, centers)
            labels = rng.integers(0, 2, size=count)
            points = np.empty((count, features + 1))
            points[:, features] = 1.0  # the bias feature
            rows = max(1, DRAW_CHUNK_BYTES // (8 * features))
            for at in range(0, count, rows):
                chunk = points[at : at + rows, :features]
                chunk[...] = rng.normal(size=chunk.shape)
                chunk += (2.0 * labels[at : at + rows, None] - 1.0) * self.centers
            return points, labels.astype(float)

        X, y = draw(n_clients * samples_per_client)
        self.points, self.targets = self._shard(X, y, n_clients, iid, rng)
        self.eval_set = draw(EVAL_SIZE)

    def grad(self, w, X, y):
        return np.vecmat(_sigmoid(np.matvec(X, w)) - y, X) / y.shape[-1]

    def _loss_of(self, z, y):
        # log(1 + e^z) - y z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def _accuracy_of(self, z, y):
        return float(np.mean((z > 0) == (y > 0.5)))


class SpiralMlpTask(Task):
    """Two interleaved spirals, 2-16-16-1 tanh MLP with sigmoid output."""

    HIDDEN = 16
    SHAPES = [(2, HIDDEN), (1, HIDDEN), (HIDDEN, HIDDEN), (1, HIDDEN), (HIDDEN, 1), (1, 1)]
    ENDS = np.cumsum([0] + [math.prod(s) for s in SHAPES]).tolist()  # where each layer starts and ends
    DIM = ENDS[-1]
    NOISE = 0.08  # of the points off their spiral
    width = HIDDEN  # a hidden layer's activations are the widest per-point rows

    def __init__(self, n_clients, samples_per_client, seed, iid=True):
        self.dim = self.DIM
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))

        def draw(count):
            labels = rng.integers(0, 2, size=count).astype(float)
            t = rng.uniform(0.5, 3.0 * math.pi, size=count)
            angle = t + labels * math.pi
            t /= 3.0 * math.pi  # the radius
            on_spiral = np.empty((2, count))
            np.cos(angle, out=on_spiral[0])
            np.sin(angle, out=on_spiral[1])
            on_spiral *= t
            del t, angle  # so that at most five floats per point are ever live
            pts = rng.normal(size=(count, 2))
            pts *= self.NOISE
            pts += on_spiral.T
            return pts, labels

        X, y = draw(n_clients * samples_per_client)
        self.points, self.targets = self._shard(X, y, n_clients, iid, rng)
        self.eval_set = draw(EVAL_SIZE)
        # Fixed small random init; zeros would be a saddle for the MLP.
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self._w0 = 0.3 * init_rng.normal(size=self.dim)

    def init_weights(self):
        return self._w0.copy()

    def _unpack(self, w):
        """The layers of the weights along ``w``'s trailing axis; each bias is a row."""
        return [w[..., a:b].reshape(w.shape[:-1] + s) for a, b, s in zip(self.ENDS, self.ENDS[1:], self.SHAPES)]

    def _forward(self, w, X):
        W1, b1, W2, b2, W3, b3 = self._unpack(w)
        h1 = np.tanh(X @ W1 + b1)
        h2 = np.tanh(h1 @ W2 + b2)
        p = _sigmoid((h2 @ W3 + b3)[..., 0])
        return h1, h2, p

    def grad(self, w, X, y):
        _, _, W2, _, W3, _ = self._unpack(w)
        h1, h2, p = self._forward(w, X)
        dz3 = (p - y)[..., None] / y.shape[-1]
        dz2 = dz3 @ W3.swapaxes(-1, -2) * (1.0 - h2 * h2)
        dz1 = dz2 @ W2.swapaxes(-1, -2) * (1.0 - h1 * h1)
        grads = [(a.swapaxes(-1, -2) @ dz, dz.sum(-2, keepdims=True)) for a, dz in ((X, dz1), (h1, dz2), (h2, dz3))]
        return np.concatenate([g.reshape(w.shape[:-1] + (-1,)) for layer in grads for g in layer], axis=-1)

    def _outputs(self, w, X):
        return self._forward(w, X)[2]

    def _loss_of(self, p, y):
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def _accuracy_of(self, p, y):
        return float(np.mean((p > 0.5) == (y > 0.5)))


TASKS = {
    "linear": LinearRegressionTask,
    "logistic": LogisticBlobsTask,
    "mlp": SpiralMlpTask,
}


def model_dim(name, dim) -> int:
    """Dimension of the model ``make_task`` builds (the MLP fixes its own)."""
    return SpiralMlpTask.DIM if name == "mlp" else dim


def data_bytes(name, dim, n_clients, samples_per_client) -> int:
    """Bytes of the float64 points and labels ``make_task`` draws: the
    client shards plus the evaluation set (the MLP's points are 2-D)."""
    features = 2 if name == "mlp" else dim
    return (n_clients * samples_per_client + EVAL_SIZE) * (features + 1) * 8


def make_task(name, dim, n_clients, samples_per_client, seed, iid=True) -> Task:
    """Build a task by name; the MLP derives its own dimension."""
    if name == "mlp":
        return SpiralMlpTask(n_clients, samples_per_client, seed, iid)
    if name in TASKS:
        return TASKS[name](dim, n_clients, samples_per_client, seed, iid)
    raise ValueError(f"unknown task {name!r}; expected one of {sorted(TASKS)}")
