"""Proportional prioritized experience replay on a binary sum tree, plus a
bounded episode queue that training does not use (rollout workers take
turns in the training loop); it stays while the benchmark's tracer wraps it.

Transitions enter the replay only as whole episodes, through
``PrioritizedReplay.push_episode``, and every write to the tree's leaves,
insertions and priority refreshes alike, goes through ``SumTree.set_many``.
Each observation is stored once: a transition's next observation is the
observation of the slot after it, or, for the last transition of an episode,
the episode's final observation from a side table of one row per episode.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from .config import RunConfig


def anneal_b(progress: float, config: RunConfig) -> float:
    """Linear importance-sampling exponent schedule between b0 and b1."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress {progress} outside [0, 1]")
    return config.is_exponent_start + progress * (config.is_exponent_end - config.is_exponent_start)


class SumTree:
    """Fixed-capacity binary tree of prefix sums.

    Leaves live at indices [capacity-1, 2*capacity-1) of a flat array; every
    internal node stores the sum of its children. ``set_many`` is the one way
    to write leaves: it repairs their ancestors in one loop, a level per pass,
    for one leaf, an episode or a sampled batch with repeats alike. A
    restore, which writes every leaf from outside, sums the inner nodes with
    ``sum_levels``. ``find_prefix_batch`` descends from the root for a whole batch of
    values at once, in O(log n) vectorized steps. ``max_leaf`` scans the
    leaves; the replay reads it once per episode, far less often than it
    writes priorities, so no tree of maxima is kept up to date.
    """

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity - 1)

    @property
    def total(self) -> float:
        return float(self.nodes[0])

    @property
    def max_leaf(self) -> float:
        return float(self.nodes[self.capacity - 1 :].max())

    def leaves(self) -> np.ndarray:
        return self.nodes[self.capacity - 1 :].copy()

    def set_many(self, indices, priorities) -> None:
        """Write leaves, then repair their ancestors one level per pass: each
        pass lifts the written nodes to their parents and sets every parent to
        the sum of its children, which the pass before left final. Every leaf
        is equally deep, so all the nodes reach the root on the same pass. A
        node listed twice, as a repeated index or a parent shared by two
        written leaves, gets the same sum twice, so one call leaves the same
        bits as writing the leaves one by one."""
        indices = np.asarray(indices, dtype=np.int64)
        priorities = np.asarray(priorities, dtype=np.float64)
        if priorities.size and priorities.min() < 0:
            raise ValueError("priority must be non-negative")
        nodes = self.capacity - 1 + indices
        self.nodes[nodes] = priorities
        while len(nodes) and nodes[0]:  # the first node is the root only when all are
            nodes = (nodes - 1) // 2
            left = 2 * nodes + 1
            self.nodes[nodes] = self.nodes[left] + self.nodes[left + 1]

    def sum_levels(self) -> None:
        """Set every inner node to the sum of its children, one level per
        pass from the leaves up: the tree above leaves written from outside,
        as a checkpoint restore writes them. On a tree whose inner nodes were
        zero this leaves the bits ``set_many`` leaves over the leaves written
        (an inner node above none of them sums to zero)."""
        nodes = self.nodes
        if nodes[self.capacity - 1 :].min() < 0:
            raise ValueError("priority must be non-negative")
        lo, hi = self.capacity // 2 - 1, self.capacity - 1  # the level above the leaves
        while hi:
            np.add(nodes[2 * lo + 1 : 2 * hi + 1 : 2], nodes[2 * lo + 2 : 2 * hi + 2 : 2],
                   out=nodes[lo:hi])
            lo, hi = lo // 2, lo

    def find_prefix_batch(self, values: np.ndarray) -> np.ndarray:
        """For each value, the smallest leaf index whose cumulative sum reaches it."""
        idx = np.zeros(len(values), dtype=np.int64)
        values = values.copy()
        while idx[0] < self.capacity - 1:  # all indices share the same depth
            left = 2 * idx + 1
            left_sum = self.nodes[left]
            go_right = ~(values <= left_sum)
            np.subtract(values, left_sum, out=values, where=go_right)
            idx = left + go_right
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
    """Proportional PER over flat transition arrays that hold each
    observation once.

    Episodes enter whole through ``push_episode``, the one insertion path,
    at the current maximum leaf priority so each transition is sampled at
    least once; ``update_priorities`` refreshes them to (|td| + floor)^c after
    the learner sees them. Both write the tree through ``SumTree.set_many``.
    Storage is FIFO once capacity is reached. Single owner (the trainer); not
    thread safe.

    Slot ``i`` stores its transition's observation in ``obs[i]``. Its next
    observation is ``obs[(i + 1) % capacity]``, unless ``ends[i]`` marks the
    last transition of an episode: then it is that episode's final
    observation, kept in a side table of one row per episode held. This is
    exact because episodes enter whole and FIFO overwrites a slot before its
    successor. The side table is a ring of rows, oldest episode first, that
    doubles when full up to ``capacity`` rows; the episodes whose end slots a
    push overwrites are always its oldest.
    """

    def __init__(self, capacity: int, config: RunConfig | None = None, *,
                 obs_dim: int, act_dim: int = 2, dtype=np.float32):
        self.config = config or RunConfig()
        self.tree = SumTree(capacity)
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.inserted_total = 0
        self.dtype = np.dtype(dtype)
        self.obs = np.zeros((capacity, obs_dim), dtype=self.dtype)
        self.actions = np.zeros((capacity, act_dim), dtype=self.dtype)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.terminals = np.zeros(capacity, dtype=bool)
        self.worker_ids = np.zeros(capacity, dtype=np.int32)
        self.ends = np.zeros(capacity, dtype=bool)
        self.expect_finals(0)  # an empty side table

    def __len__(self) -> int:
        return self.size

    def expect_finals(self, count: int) -> None:
        """Reset the side table to ``count`` rows, which a checkpoint reader
        fills oldest first through ``final_obs``; ``rebuild`` then links them
        to their end slots."""
        rows = max(count, min(self.capacity, 16))
        self._finals = np.zeros((rows, self.obs.shape[1]), dtype=self.dtype)
        self._final_head = 0
        self.final_count = count  # episodes held, one side-table row each
        self._final_row = np.zeros(self.capacity, dtype=np.int64)  # an end slot's table row

    @property
    def final_obs(self) -> np.ndarray:
        """The final observations of the episodes held, oldest first: a view
        of the side table, or a copy where its ring wraps."""
        head, count = self._final_head, self.final_count
        rows = self._finals[head : head + count]
        if len(rows) < count:
            rows = np.concatenate([rows, self._finals[: count - len(rows)]])
        return rows

    @property
    def next_obs(self) -> np.ndarray:
        """Every slot's next observation, gathered into one new
        ``(capacity, obs_dim)`` array whose rows past ``size`` are zero.
        Writing to it changes nothing stored."""
        out = self._next_obs(np.arange(self.capacity))
        out[self.size :] = 0
        return out

    def _next_obs(self, idx: np.ndarray) -> np.ndarray:
        """The next observations of slots ``idx``, gathered into a new array: the
        following slot's, or the side table's row where a slot ends its episode."""
        out = self.obs[(idx + 1) % self.capacity]
        end = self.ends[idx]
        out[end] = self._finals[self._final_row[idx[end]]]
        return out

    def push_episode(self, episode: Episode) -> None:
        """Store an episode's transitions at the next slots of the ring; an
        episode longer than the ring keeps only its last ``capacity``."""
        steps = episode.steps
        if not steps:
            return
        first = max(steps - self.capacity, 0)
        slots = (self.cursor + np.arange(first, steps)) % self.capacity
        self.obs[slots] = episode.observations[first:steps]
        self.actions[slots] = episode.actions[first:steps]
        self.rewards[slots] = episode.rewards[first:steps]
        self.terminals[slots] = episode.terminals[first:steps]
        self.worker_ids[slots] = episode.worker_id
        self._store_final(slots, episode.observations[steps])
        priority = self.tree.max_leaf if self.size else 1.0
        self.tree.set_many(slots, np.full(len(slots), priority))
        self.cursor = (self.cursor + steps) % self.capacity
        self.size = min(self.size + steps, self.capacity)
        self.inserted_total += steps

    def _store_final(self, slots: np.ndarray, final: np.ndarray) -> None:
        """Drop the side-table rows of the episodes that ended at ``slots``
        (the oldest held) and keep ``final`` as the next observation of the
        last of them."""
        dropped = int(np.count_nonzero(self.ends[slots]))
        rows = len(self._finals)
        if dropped:
            self.ends[slots] = False
            self._final_head = (self._final_head + dropped) % rows
            self.final_count -= dropped
        if self.final_count == rows:  # never at ``capacity`` rows: the last slot was just freed
            grown = np.zeros((min(2 * rows, self.capacity), self.obs.shape[1]), dtype=self.dtype)
            grown[: self.final_count] = self.final_obs
            self._final_row = (self._final_row - self._final_head) % rows  # rows oldest first
            self._finals, self._final_head = grown, 0
        row = (self._final_head + self.final_count) % len(self._finals)
        self._finals[row] = final
        self._final_row[slots[-1]] = row
        self.ends[slots[-1]] = True
        self.final_count += 1

    def rebuild(self) -> None:
        """Derive the tree's inner nodes and each end slot's side-table row
        after ``size``, ``cursor``, the stored arrays, the first ``size``
        leaves and the final observations (oldest first) were written from
        outside, as a checkpoint restore does."""
        self.tree.sum_levels()
        ends = np.flatnonzero(self.ends)
        if len(ends) != self.final_count:
            raise ValueError(f"replay holds {len(ends)} episode ends "
                             f"but {self.final_count} final observations")
        older = np.searchsorted(ends, self.cursor)  # the ends at or past the cursor come first
        self._final_row[np.roll(ends, -older)] = np.arange(len(ends))

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
            "next_obs": self._next_obs(idx),
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
