"""Synthetic desk-scale learning tasks with exact gradient oracles.

Three tasks back the simulator: linear regression with a known optimum,
two-class logistic regression on Gaussian blobs, and a tiny MLP on 2-D
spirals.  All are deterministic given the seed, cheap enough for
thousand-round runs, and expose the full-batch gradient needed by the
convergence report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points in every task's evaluation set.
EVAL_SIZE = 1000


@dataclass(frozen=True)
class LocalTrainerSpec:
    """Per-round local optimization: plain SGD.

    ``batch_size = None`` means full-batch, so ``steps = 1`` performs one
    exact gradient step (the mode the convergence report assumes).
    """

    steps: int = 1
    learning_rate: float = 0.5
    batch_size: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class Task:
    """Shared plumbing: client shards, minibatch SGD, pooled gradient."""

    dim: int
    client_sets: list[tuple[np.ndarray, np.ndarray]]
    eval_set: tuple[np.ndarray, np.ndarray]

    def init_weights(self) -> np.ndarray:
        return np.zeros(self.dim)

    def grad(self, w, X, y) -> np.ndarray:
        raise NotImplementedError

    def loss(self, w, X, y) -> float:
        raise NotImplementedError

    def accuracy(self, w, X, y) -> float:
        return float("nan")

    def eval_metrics(self, w) -> tuple[float, float]:
        X, y = self.eval_set
        return self.loss(w, X, y), self.accuracy(w, X, y)

    def full_gradient(self, w) -> np.ndarray:
        """Exact gradient of the pooled training loss."""
        X = np.concatenate([c[0] for c in self.client_sets])
        y = np.concatenate([c[1] for c in self.client_sets])
        return self.grad(w, X, y)

    def local_update(
        self, w: np.ndarray, client: int, trainer: LocalTrainerSpec, rng: np.random.Generator
    ) -> np.ndarray:
        X, y = self.client_sets[client]
        w = w.copy()
        for _ in range(trainer.steps):
            if trainer.batch_size is None or trainer.batch_size >= len(y):
                bx, by = X, y
            else:
                idx = rng.choice(len(y), size=trainer.batch_size, replace=False)
                bx, by = X[idx], y[idx]
            w -= trainer.learning_rate * self.grad(w, bx, by)
        return w

    @staticmethod
    def _shard(X, y, n_clients, iid, rng):
        """IID shuffle or label-sorted contiguous chunks (non-IID)."""
        if iid:
            order = rng.permutation(len(y))
            X, y = X[order], y[order]
            return [(X[i::n_clients].copy(), y[i::n_clients].copy()) for i in range(n_clients)]
        order = np.argsort(y, kind="stable")
        X, y = X[order], y[order]
        edges = [i * len(y) // n_clients for i in range(n_clients + 1)]
        return [
            (X[edges[i] : edges[i + 1]].copy(), y[edges[i] : edges[i + 1]].copy())
            for i in range(n_clients)
        ]


class LinearRegressionTask(Task):
    """y = X w* + noise; the optimum is known in closed form."""

    def __init__(self, dim, n_clients, samples_per_client, seed, iid=True, noise=0.05):
        self.dim = dim
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.w_star = rng.normal(size=dim) / math.sqrt(dim)
        total = n_clients * samples_per_client
        X = rng.normal(size=(total, dim))
        y = X @ self.w_star + noise * rng.normal(size=total)
        self.client_sets = self._shard(X, y, n_clients, iid, rng)
        Xe = rng.normal(size=(EVAL_SIZE, dim))
        self.eval_set = (Xe, Xe @ self.w_star + noise * rng.normal(size=EVAL_SIZE))

    def grad(self, w, X, y):
        return X.T @ (X @ w - y) / len(y)

    def loss(self, w, X, y):
        r = X @ w - y
        return float(0.5 * (r @ r) / len(y))

    def smoothness(self) -> float:
        """Largest eigenvalue of the pooled design covariance (the L of
        the convergence report)."""
        X = np.concatenate([c[0] for c in self.client_sets])
        return float(np.linalg.eigvalsh(X.T @ X / len(X)).max())


class LogisticBlobsTask(Task):
    """Two Gaussian blobs, logistic regression with a bias feature."""

    def __init__(self, dim, n_clients, samples_per_client, seed, iid=True, separation=2.0):
        if dim < 2:
            raise ValueError("logistic task needs dim >= 2 (features + bias)")
        self.dim = dim
        features = dim - 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        direction = rng.normal(size=features)
        direction /= np.linalg.norm(direction)
        self.centers = separation * direction

        def draw(count):
            labels = rng.integers(0, 2, size=count)
            points = rng.normal(size=(count, features)) + np.outer(2 * labels - 1, self.centers)
            return np.hstack([points, np.ones((count, 1))]), labels.astype(float)

        X, y = draw(n_clients * samples_per_client)
        self.client_sets = self._shard(X, y, n_clients, iid, rng)
        self.eval_set = draw(EVAL_SIZE)

    def grad(self, w, X, y):
        return X.T @ (_sigmoid(X @ w) - y) / len(y)

    def loss(self, w, X, y):
        z = X @ w
        # log(1 + e^z) - y z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def accuracy(self, w, X, y):
        return float(np.mean((X @ w > 0) == (y > 0.5)))


class SpiralMlpTask(Task):
    """Two interleaved spirals, 2-16-16-1 tanh MLP with sigmoid output."""

    HIDDEN = 16
    SHAPES = [(2, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,), (HIDDEN, 1), (1,)]
    DIM = sum(math.prod(s) for s in SHAPES)

    def __init__(self, n_clients, samples_per_client, seed, iid=True, noise=0.08):
        self.dim = self.DIM
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))

        def draw(count):
            labels = rng.integers(0, 2, size=count)
            t = rng.uniform(0.5, 3.0 * math.pi, size=count)
            radius = t / (3.0 * math.pi)
            angle = t + labels * math.pi
            pts = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
            return pts + noise * rng.normal(size=pts.shape), labels.astype(float)

        X, y = draw(n_clients * samples_per_client)
        self.client_sets = self._shard(X, y, n_clients, iid, rng)
        self.eval_set = draw(EVAL_SIZE)
        # Fixed small random init; zeros would be a saddle for the MLP.
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self._w0 = 0.3 * init_rng.normal(size=self.dim)

    def init_weights(self):
        return self._w0.copy()

    def _unpack(self, w):
        out, at = [], 0
        for s in self.SHAPES:
            size = math.prod(s)
            out.append(w[at : at + size].reshape(s))
            at += size
        return out

    def _forward(self, w, X):
        W1, b1, W2, b2, W3, b3 = self._unpack(w)
        h1 = np.tanh(X @ W1 + b1)
        h2 = np.tanh(h1 @ W2 + b2)
        p = _sigmoid((h2 @ W3 + b3).ravel())
        return h1, h2, p

    def grad(self, w, X, y):
        W1, b1, W2, b2, W3, b3 = self._unpack(w)
        h1, h2, p = self._forward(w, X)
        n = len(y)
        dz3 = (p - y)[:, None] / n
        dW3 = h2.T @ dz3
        db3 = dz3.sum(axis=0)
        dh2 = dz3 @ W3.T
        dz2 = dh2 * (1.0 - h2 * h2)
        dW2 = h1.T @ dz2
        db2 = dz2.sum(axis=0)
        dh1 = dz2 @ W2.T
        dz1 = dh1 * (1.0 - h1 * h1)
        dW1 = X.T @ dz1
        db1 = dz1.sum(axis=0)
        return np.concatenate([g.ravel() for g in (dW1, db1, dW2, db2, dW3, db3)])

    def loss(self, w, X, y):
        _, _, p = self._forward(w, X)
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def accuracy(self, w, X, y):
        _, _, p = self._forward(w, X)
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
