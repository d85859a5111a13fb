"""Automatic curriculum: a success-prediction network over five task
features, adaptive filtering of candidate tasks into easy/frontier bands,
and the dynamic task generator with its late-stage corner cases.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .nn import AdamState, DenseNet, adam_step, net_grads_list

N_FEATURES = 5  # distance, agent clearance, goal clearance, relative angle, initial Q
_SIGMOID_CLIP = 30.0  # keeps predictions strictly inside (0, 1) in float64


def fit_normal(success_probs) -> tuple[float, float]:
    """Sample mean and population standard deviation of predicted success."""
    values = np.asarray(success_probs, dtype=np.float64)
    if values.size < 2:
        raise ValueError("fit_normal needs at least 2 values")
    mu = float(values.mean())
    sigma = float(np.sqrt(np.mean((values - mu) ** 2)))
    return mu, sigma


def is_easy(f: float, mu: float, sigma: float, config: RunConfig) -> bool:
    """Easy-task predicate with both late-stage corner cases: the saturated
    band (mu + beta*sigma >= 1) degrades to f > mu, and the chi threshold
    admits near-certain tasks regardless of the band."""
    if mu + config.easy_band * sigma < 1.0:
        return f > mu + config.easy_band * sigma or f > config.easy_threshold
    return f > mu


def is_frontier(f: float, mu: float, sigma: float, config: RunConfig) -> bool:
    return mu - config.frontier_band * sigma < f < mu + config.frontier_band * sigma


def draw_task_type(rng: np.random.Generator, config: RunConfig) -> str:
    u = rng.uniform()
    if u < config.p_easy:
        return "easy"
    if u < config.p_easy + config.p_frontier:
        return "frontier"
    return "random"


def get_dynamic_task(task_sampler, predict, mu: float, sigma: float,
                     config: RunConfig, rng: np.random.Generator,
                     task_type: str | None = None):
    """Draw fresh tasks until one matches the requested difficulty.

    ``task_sampler()`` returns a task; ``predict(task)`` its success
    probability. After ``max_trials`` misses the next random task is returned
    unconditionally, so the sampler is called at most ``max_trials + 1``
    times. Returns (task, task_type, prediction).
    """
    if task_type is None:
        task_type = draw_task_type(rng, config)
    if task_type == "random":
        task = task_sampler()
        return task, task_type, float(predict(task))
    matches = is_easy if task_type == "easy" else is_frontier
    for _ in range(config.max_trials):
        task = task_sampler()
        f = float(predict(task))
        if matches(f, mu, sigma, config):
            return task, task_type, f
    task = task_sampler()
    return task, task_type, float(predict(task))


class RunningStats:
    """Per-feature running mean/variance (Welford) for input standardization.

    Updated only from observed task batches; before any data it standardizes
    to the identity.
    """

    def __init__(self, dim: int = N_FEATURES):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def update(self, batch: np.ndarray) -> None:
        for row in np.asarray(batch, dtype=np.float64):
            self.count += 1
            delta = row - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (row - self.mean)

    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones_like(self.mean)
        return np.sqrt(np.maximum(self.m2 / self.count, 1e-8))

    def standardize(self, features: np.ndarray) -> np.ndarray:
        if self.count < 2:
            return np.asarray(features, dtype=np.float64)
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std()


class SuccessPredictor:
    """The curriculum's success-probability network: 5 -> 32 -> 32 -> 1 with
    ReLU hidden layers and a sigmoid head, trained with binary cross-entropy
    on standardized features."""

    def __init__(self, rng, learning_rate: float):
        self.net = DenseNet([N_FEATURES, 32, 32, 1], ["relu", "relu", "sigmoid"], rng=rng)
        self.stats = RunningStats()
        self.adam = AdamState(self.net.parameters(), learning_rate)

    def predict(self, features) -> np.ndarray:
        """Success probabilities of a 2-D batch of feature rows, strictly
        inside (0, 1)."""
        x = self.stats.standardize(np.asarray(features, dtype=np.float64))
        if not np.isfinite(x).all():
            raise ValueError("non-finite curriculum features")
        p = self.net.forward(x)[:, 0]
        bound = 1.0 / (1.0 + math.exp(_SIGMOID_CLIP))
        return np.clip(p, bound, 1.0 - bound)

    def train_batch(self, features, labels) -> float:
        """One BCE gradient step; returns the batch loss. Updates the running
        standardization statistics with the observed features first."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"curriculum features must be a 2-D batch, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("non-finite curriculum features")
        self.stats.update(features)
        x = self.stats.standardize(features)
        p, tape = self.net.forward_tape(x)
        p = p[:, 0]
        m = len(labels)
        # fold sigmoid + BCE: dLoss/dlogit = (p - y) / m
        grads = self.net.backward(tape, ((p - labels) / m)[:, None], skip_last_activation=True)
        adam_step(self.net.parameters(), net_grads_list(grads), self.adam)
        return bce_loss(p, labels)


def bce_loss(probs, labels) -> float:
    """Binary cross-entropy of success probabilities against 0/1 labels."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    eps = 1e-12
    return float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))


def initial_q_feature(critic: DenseNet, actor, observations) -> np.ndarray:
    """Critic values of start states under the policy's mean action - the
    learned difficulty signal appended to the geometric task features. Takes
    a 2-D batch of observations and returns one value per row, from one actor
    and one critic forward."""
    actions, _ = actor.sample_with_noise(observations, np.zeros((len(observations), actor.act_dim)))
    return critic.forward(np.concatenate([observations, actions], axis=1))[:, 0]
