"""Proportional prioritized experience replay on a binary sum tree, plus a
bounded episode queue that training does not use (rollout workers take
turns in the training loop); it stays while the benchmark's tracer wraps it.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PerConfig:
    priority_exponent: float = 0.6  # c
    is_exponent_start: float = 0.4  # b0
    is_exponent_end: float = 0.6  # b1
    priority_floor: float = 1e-6  # keeps zero-TD-error samples reachable

    def __post_init__(self):
        if not 0.0 <= self.priority_exponent <= 1.0:
            raise ValueError("priority exponent must lie in [0, 1]")
        if not 0.0 <= self.is_exponent_start <= self.is_exponent_end <= 1.0:
            raise ValueError("need 0 <= b0 <= b1 <= 1")


def anneal_b(progress: float, config: PerConfig) -> float:
    """Linear importance-sampling exponent schedule between b0 and b1."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress {progress} outside [0, 1]")
    return config.is_exponent_start + progress * (config.is_exponent_end - config.is_exponent_start)


class SumTree:
    """Fixed-capacity binary tree of prefix sums (plus per-node maxima).

    Leaves live at indices [capacity-1, 2*capacity-1) of a flat array; every
    internal node stores the sum of its children. ``find_prefix_batch``
    descends from the root for a whole batch of values at once, in O(log n)
    vectorized steps.
    """

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity - 1)
        self.node_max = np.zeros(2 * capacity - 1)

    @property
    def total(self) -> float:
        return float(self.nodes[0])

    @property
    def max_leaf(self) -> float:
        return float(self.node_max[0])

    def leaf(self, index: int) -> float:
        return float(self.nodes[self.capacity - 1 + index])

    def leaves(self) -> np.ndarray:
        return self.nodes[self.capacity - 1 :].copy()

    def set(self, index: int, priority: float) -> None:
        if priority < 0:
            raise ValueError("priority must be non-negative")
        i = self.capacity - 1 + index
        self.nodes[i] = priority
        self.node_max[i] = priority
        while i:
            i = (i - 1) // 2
            left, right = 2 * i + 1, 2 * i + 2
            self.nodes[i] = self.nodes[left] + self.nodes[right]
            self.node_max[i] = max(self.node_max[left], self.node_max[right])

    def set_many(self, indices, priorities) -> None:
        """Batched leaf update: write all leaves, then repair each ancestor
        level once (the sampling hot path updates a whole batch at a time).
        The parents of a sorted, duplicate-free level are sorted, so above the
        first level a neighbour comparison drops the duplicates."""
        indices = np.asarray(indices, dtype=np.int64)
        priorities = np.asarray(priorities, dtype=np.float64)
        if priorities.size and priorities.min() < 0:
            raise ValueError("priority must be non-negative")
        nodes = self.capacity - 1 + indices
        self.nodes[nodes] = priorities
        self.node_max[nodes] = priorities
        if self.capacity == 1 or not len(nodes):
            return  # the only leaf is the root, or no leaf changed
        parents = np.unique((nodes - 1) // 2)
        while True:
            left = 2 * parents + 1
            right = left + 1
            self.nodes[parents] = self.nodes[left] + self.nodes[right]
            self.node_max[parents] = np.maximum(self.node_max[left], self.node_max[right])
            if parents[0] == 0:
                break
            parents = (parents - 1) // 2
            keep = np.empty(len(parents), dtype=bool)
            keep[0] = True
            np.not_equal(parents[1:], parents[:-1], out=keep[1:])
            parents = parents[keep]

    def find_prefix_batch(self, values: np.ndarray) -> np.ndarray:
        """For each value, the smallest leaf index whose cumulative sum reaches it."""
        idx = np.zeros(len(values), dtype=np.int64)
        values = values.copy()
        while idx[0] < self.capacity - 1:  # all indices share the same depth
            left = 2 * idx + 1
            left_sum = self.nodes[left]
            go_left = values <= left_sum
            values = np.where(go_left, values, values - left_sum)
            idx = np.where(go_left, left, left + 1)
        return idx - (self.capacity - 1)


@dataclass
class Episode:
    """A completed rollout as produced by a worker for the trainer."""

    worker_id: int
    task_type: str
    features: np.ndarray  # 5 curriculum inputs recorded at selection time
    fpi_prediction: float  # NaN when the curriculum was bypassed
    observations: np.ndarray  # (steps + 1, obs_dim)
    actions: np.ndarray  # (steps, 2)
    rewards: np.ndarray  # (steps,)
    terminals: np.ndarray  # (steps,) bool
    success: bool
    snapshot_version: int

    @property
    def steps(self) -> int:
        return len(self.actions)

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())


class PrioritizedReplay:
    """Proportional PER over flat transition arrays.

    New transitions enter at the current maximum leaf priority so each one is
    sampled at least once; priorities are refreshed to (|td| + floor)^c after
    the learner sees them. Storage is FIFO once capacity is reached. Single
    owner (the trainer); not thread safe.
    """

    def __init__(self, capacity: int, config: PerConfig | None = None, *,
                 obs_dim: int, act_dim: int = 2, dtype=np.float32):
        self.config = config or PerConfig()
        self.tree = SumTree(capacity)
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.inserted_total = 0
        self.dtype = np.dtype(dtype)
        self.obs = np.zeros((capacity, obs_dim), dtype=self.dtype)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=self.dtype)
        self.actions = np.zeros((capacity, act_dim), dtype=self.dtype)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.terminals = np.zeros(capacity, dtype=bool)
        self.worker_ids = np.zeros(capacity, dtype=np.int32)

    def __len__(self) -> int:
        return self.size

    def _stored_priority(self, td_abs: float) -> float:
        return (abs(td_abs) + self.config.priority_floor) ** self.config.priority_exponent

    def push(self, obs, action, reward, next_obs, terminal, td_error=None, worker_id=0) -> int:
        """Insert one transition; returns its slot index."""
        if td_error is None:
            priority = self.tree.max_leaf if self.size else 1.0
        else:
            priority = self._stored_priority(float(td_error))
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.terminals[i] = terminal
        self.worker_ids[i] = worker_id
        self.tree.set(i, priority)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.inserted_total += 1
        return i

    def push_episode(self, episode: Episode) -> None:
        steps = episode.steps
        for t in range(steps):
            self.push(episode.observations[t], episode.actions[t], episode.rewards[t],
                      episode.observations[t + 1], bool(episode.terminals[t]),
                      worker_id=episode.worker_id)

    def sample(self, batch_size: int, b: float, rng: np.random.Generator):
        """Stratified proportional sample.

        Returns (batch dict, leaf indices, normalized importance weights).
        """
        if self.size < batch_size:
            raise ValueError(f"cannot sample {batch_size} from buffer of size {self.size}")
        total = self.tree.total
        edges = total * np.arange(batch_size) / batch_size
        draws = edges + rng.uniform(0.0, total / batch_size, size=batch_size)
        idx = self.tree.find_prefix_batch(draws)
        leaf = self.tree.nodes[self.tree.capacity - 1 + idx]
        probs = leaf / total
        weights = (self.size * probs) ** (-b)
        weights = weights / weights.max()
        batch = {
            "obs": self.obs[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_obs": self.next_obs[idx],
            "terminals": self.terminals[idx],
            "worker_ids": self.worker_ids[idx],
        }
        return batch, idx, weights

    def update_priorities(self, indices, td_abs) -> None:
        """Refresh leaf priorities; a stale index simply reprioritizes the
        transition currently occupying that slot."""
        td_abs = np.abs(np.asarray(td_abs, dtype=np.float64))
        stored = (td_abs + self.config.priority_floor) ** self.config.priority_exponent
        self.tree.set_many(np.asarray(indices), stored)


class QueueClosed(Exception):
    """Raised to producers/consumers once the episode queue shuts down."""


class EpisodeQueue:
    """Bounded multi-producer single-consumer queue of completed episodes.

    ``put`` blocks when full (backpressure on fast workers) and raises
    :class:`QueueClosed` after ``close()`` so workers can shut down cleanly.
    """

    def __init__(self, maxsize: int = 16):
        self._q: queue.Queue = queue.Queue(maxsize=maxsize)
        self._closed = threading.Event()

    def close(self) -> None:
        self._closed.set()

    def put(self, episode: Episode, poll_interval: float = 0.05) -> None:
        while True:
            if self._closed.is_set():
                raise QueueClosed
            try:
                self._q.put(episode, timeout=poll_interval)
                return
            except queue.Full:
                continue

    def get(self, timeout: float | None = None) -> Episode | None:
        """One episode, or None on timeout / after close with an empty queue."""
        try:
            return self._q.get(timeout=timeout)
        except queue.Empty:
            return None
