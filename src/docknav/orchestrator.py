"""Distributed training: asynchronous rollout workers feeding one master
update loop through a bounded episode queue, with immutable versioned
parameter snapshots flowing back.

Workers own their environments and RNG streams (seeded ``base_seed +
worker_id``); the master is the only writer of network parameters, replay
priorities, and the success predictor. ``workers = 1`` runs a strictly
synchronous single-context mode (one episode, then the owed update steps)
that is bit-reproducible and is what the checkpoint/restore tests rely on.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import curriculum as cur
from . import nn, world
from .per import Episode, EpisodeQueue, PerConfig, PrioritizedReplay, QueueClosed, anneal_b
from .sac import Actor, SacConfig, SacLearner

MASTER_SEED_OFFSET = 2**31  # keeps the master stream clear of worker streams

TELEMETRY_FIELDS = ["episode", "worker_id", "return", "steps", "success", "task_type",
                    "snapshot_version"]
CURRICULUM_FIELDS = ["episode", "task_type", "distance", "agent_clearance", "goal_clearance",
                     "relative_angle", "initial_q", "fpi_prediction", "success"]


@dataclass(frozen=True)
class ParameterSnapshot:
    """Immutable parameter set shipped master -> workers."""

    version: int
    actor_params: tuple
    q1_params: tuple
    fpi_params: tuple
    fpi_stats: dict

    @staticmethod
    def freeze(params) -> tuple:
        out = []
        for p in params:
            c = p.copy()
            c.flags.writeable = False
            out.append(c)
        return tuple(out)


class SnapshotChannel:
    """Single-publisher, multi-subscriber snapshot handoff. Publication is a
    single reference swap, so readers always see a complete parameter set."""

    def __init__(self):
        self._snapshot: ParameterSnapshot | None = None

    def publish(self, snapshot: ParameterSnapshot) -> None:
        self._snapshot = snapshot

    def latest(self) -> ParameterSnapshot:
        return self._snapshot


class Candidate(NamedTuple):
    """A task with its curriculum features, its success prediction and its
    t=0 (lidar, frame) scan, which the rollout reuses."""

    task: world.Task
    features: np.ndarray
    prediction: float
    start_scan: tuple[np.ndarray, np.ndarray]


class Worker:
    """Rollout context: local network copies, task selection, one episode at
    a time. Runs inline (synchronous mode) or as a thread body."""

    def __init__(self, worker_id: int, base_seed: int, trainer: "Trainer"):
        self.worker_id = worker_id
        self.rng = np.random.default_rng(base_seed + worker_id)
        # the trainer owns its sync worker; a strong reference back would make a
        # cycle, and each finished trainer, replay pages included, would stay
        # resident until the cyclic garbage collector next ran
        self.trainer = weakref.proxy(trainer)
        t = trainer
        self.actor = Actor(t.obs_dim, t.act_dim, t.sac_config.hidden, rng=self.rng,
                           dtype=t.dtype, log_std_min=t.sac_config.log_std_min,
                           log_std_max=t.sac_config.log_std_max, tanh_eps=t.sac_config.tanh_eps)
        self.q1 = t.learner.critics.q1.copy()
        self.fpi = cur.SuccessPredictor(rng=self.rng, learning_rate=t.navacl_config.learning_rate)
        self._version = -1

    def _load_snapshot(self, snap: ParameterSnapshot) -> None:
        if snap.version == self._version:
            return
        self.actor.net.set_parameters(snap.actor_params)
        self.q1.set_parameters(snap.q1_params)
        self.fpi.net.set_parameters(snap.fpi_params)
        self.fpi.stats = cur.RunningStats.from_state(snap.fpi_stats)
        self._version = snap.version

    def _sample_task(self) -> world.Task:
        return world.sample_task(self.rng, self.trainer.task_bounds,
                                 self.trainer.robot, self.trainer.dolly)

    def _start_observations(self, tasks: list[world.Task]):
        t = self.trainer
        lidar, frames = world.start_scans([task.config for task in tasks], t.robot, t.dolly)
        return lidar, frames, world.start_observations(lidar, frames, t.dtype)

    def _evaluate_task(self, task: world.Task) -> Candidate:
        """Five curriculum features (with the critic's initial-Q) and the
        success prediction for one candidate task, one row at a time."""
        lidar, frames, obs = self._start_observations([task])
        q0 = cur.initial_q_feature(self.q1, self.actor, obs[0])
        features = world.geometric_properties(task, q0)
        return Candidate(task, features, self.fpi.predict_one(features), (lidar[0], frames[0]))

    def _score_pool(self, pool: list[world.Task]) -> np.ndarray:
        """Success predictions for a whole candidate pool: one actor, one
        critic and one predictor forward."""
        _, _, obs = self._start_observations(pool)
        q0 = cur.initial_q_features(self.q1, self.actor, obs)
        return self.fpi.predict(np.stack([world.geometric_properties(task, q)
                                          for task, q in zip(pool, q0)]))

    def select_task(self) -> tuple[Candidate, str]:
        """The next episode's task, scored, and its task type."""
        t = self.trainer
        if t.variant != "navacl_q":
            chosen = self._evaluate_task(self._sample_task())
            return chosen._replace(prediction=float("nan")), "random"
        pool = [self._sample_task() for _ in range(t.navacl_config.candidate_pool)]
        mu, sigma = cur.fit_normal(self._score_pool(pool))
        chosen, task_type, _ = cur.get_dynamic_task(
            lambda: self._evaluate_task(self._sample_task()), lambda c: c.prediction,
            mu, sigma, t.navacl_config, self.rng,
        )
        return chosen, task_type

    def rollout(self, chosen: Candidate):
        t = self.trainer
        w = world.World(chosen.task.config, t.robot, t.dolly, t.step_limit, t.dtype,
                        start_scan=chosen.start_scan)
        obs = [w.observation()]
        actions, rewards, terminals = [], [], []
        flags = None
        while not w.terminal:
            a, _ = self.actor.act(obs[-1], rng=self.rng, mode="sample")
            out = w.step(a)
            obs.append(out.observation)
            actions.append(a)
            rewards.append(out.reward)
            terminals.append(out.terminal)
            flags = out.flags
        return (np.stack(obs), np.stack(actions), np.asarray(rewards),
                np.asarray(terminals, dtype=bool), bool(flags.goal))

    def produce_episode(self, snapshot: ParameterSnapshot) -> Episode:
        self._load_snapshot(snapshot)
        chosen, task_type = self.select_task()
        observations, actions, rewards, terminals, success = self.rollout(chosen)
        return Episode(
            worker_id=self.worker_id, task=chosen.task, task_type=task_type,
            features=chosen.features, fpi_prediction=chosen.prediction,
            observations=observations, actions=actions,
            rewards=rewards, terminals=terminals, success=success,
            snapshot_version=snapshot.version,
        )

    def run(self, queue: EpisodeQueue, stop: threading.Event) -> None:
        """Thread body: produce episodes until told to stop."""
        while not stop.is_set():
            episode = self.produce_episode(self.trainer.snapshots.latest())
            try:
                queue.put(episode)
            except QueueClosed:
                return


class Trainer:
    """Owns the learner, the replay buffer, the success predictor, telemetry,
    and the master update loop."""

    def __init__(self, config, seed: int, out_dir=None,
                 robot: world.RobotSpec | None = None, dolly: world.DollySpec | None = None):
        self.config = config
        self.seed = seed
        self.robot = robot or world.RobotSpec()
        self.dolly = dolly or world.DollySpec()
        self.variant = config.variant
        self.task_bounds = config.to_task_bounds()
        self.sac_config: SacConfig = config.to_sac_config()
        self.per_config: PerConfig = config.to_per_config()
        self.navacl_config = config.to_navacl_config()
        self.step_limit = config.step_limit
        self.dtype = np.dtype(config.dtype)
        self.obs_dim = world.observation_dim(self.robot)
        self.act_dim = 2

        init_rng = np.random.default_rng(seed)
        self.learner = SacLearner(self.obs_dim, self.act_dim, self.sac_config, init_rng,
                                  dtype=self.dtype)
        self.fpi = cur.SuccessPredictor(rng=init_rng,
                                        learning_rate=self.navacl_config.learning_rate)
        self.replay = PrioritizedReplay(config.replay_capacity, self.per_config,
                                        obs_dim=self.obs_dim, act_dim=self.act_dim,
                                        dtype=self.dtype)
        self.master_rng = np.random.default_rng(seed + MASTER_SEED_OFFSET)

        self.episodes_received = 0
        self.transitions_received = 0
        self.pending_updates = 0.0
        self.snapshot_version = 0
        self.result_set: list[tuple[np.ndarray, float]] = []  # pending f_pi batch
        self.fpi_train_calls = 0
        self.snapshots = SnapshotChannel()
        self._publish_snapshot(initial=True)

        self._sync_worker: Worker | None = None
        self.out_dir = Path(out_dir) if out_dir else None
        self._telemetry = self._curriculum_log = None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._telemetry_fh = open(self.out_dir / "telemetry.csv", "w", newline="")
            self._telemetry = csv.writer(self._telemetry_fh)
            self._telemetry.writerow(TELEMETRY_FIELDS)
            self._curriculum_fh = open(self.out_dir / "curriculum.csv", "w", newline="")
            self._curriculum_log = csv.writer(self._curriculum_fh)
            self._curriculum_log.writerow(CURRICULUM_FIELDS)

    # -- snapshots ------------------------------------------------------

    def _publish_snapshot(self, initial: bool = False) -> None:
        if not initial:
            self.snapshot_version += 1
        snap = ParameterSnapshot(
            version=self.snapshot_version,
            actor_params=ParameterSnapshot.freeze(self.learner.actor.net.parameters()),
            q1_params=ParameterSnapshot.freeze(self.learner.critics.q1.parameters()),
            fpi_params=ParameterSnapshot.freeze(self.fpi.net.parameters()),
            fpi_stats=self.fpi.stats.state(),
        )
        self.snapshots.publish(snap)

    # -- episode ingestion ------------------------------------------------

    def _ingest_episode(self, episode: Episode) -> None:
        self.replay.push_episode(episode)
        self.episodes_received += 1
        self.transitions_received += episode.steps
        self.pending_updates += self.config.updates_per_episode
        if self.variant == "navacl_q":
            self.result_set.append((episode.features, 1.0 if episode.success else 0.0))
            if len(self.result_set) >= self.navacl_config.batch_size:
                self._train_fpi()
        if self._telemetry:
            self._telemetry.writerow([
                self.episodes_received, episode.worker_id,
                f"{episode.episode_return:.6f}", episode.steps, int(episode.success),
                episode.task_type, episode.snapshot_version,
            ])
            f = episode.features
            pred = "" if math.isnan(episode.fpi_prediction) else f"{episode.fpi_prediction:.6f}"
            self._curriculum_log.writerow([
                self.episodes_received, episode.task_type,
                f"{f[0]:.6f}", f"{f[1]:.6f}", f"{f[2]:.6f}", f"{f[3]:.6f}", f"{f[4]:.6f}",
                pred, int(episode.success),
            ])

    def _train_fpi(self) -> None:
        batch = self.result_set[: self.navacl_config.batch_size]
        del self.result_set[: self.navacl_config.batch_size]
        features = np.stack([f for f, _ in batch])
        labels = np.array([y for _, y in batch])
        self.fpi.train_batch(features, labels)
        self.fpi_train_calls += 1

    def flush_fpi_results(self) -> None:
        """Train on a final partial batch (shutdown path)."""
        if self.result_set:
            features = np.stack([f for f, _ in self.result_set])
            labels = np.array([y for _, y in self.result_set])
            self.result_set.clear()
            self.fpi.train_batch(features, labels)
            self.fpi_train_calls += 1

    # -- updates -----------------------------------------------------------

    def _progress(self) -> float:
        return min(1.0, self.episodes_received / max(1, self.config.episode_budget))

    def run_update(self) -> bool:
        """One SAC gradient step off the replay buffer; False when the buffer
        is still below one batch."""
        batch_size = self.sac_config.batch_size
        if len(self.replay) < batch_size:
            return False
        b = anneal_b(self._progress(), self.per_config)
        batch, idx, weights = self.replay.sample(batch_size, b, self.master_rng)
        try:
            td_abs, _ = self.learner.update(
                batch["obs"], batch["actions"], batch["rewards"], batch["terminals"],
                batch["next_obs"], weights, self.master_rng,
            )
        except (FloatingPointError, nn.GradientError):
            if self.out_dir:
                save_checkpoint(self, self.out_dir / "abort.ckpt")
            raise
        self.replay.update_priorities(idx, td_abs)
        return True

    def _run_owed_updates(self) -> None:
        while self.pending_updates >= 1.0:
            if not self.run_update():
                break  # buffer below one batch: idle, keep the debt
            self.pending_updates -= 1.0

    # -- training loops -----------------------------------------------------

    def train(self, max_new_episodes: int | None = None) -> None:
        """Run training until the episode budget (or, when given, until
        ``max_new_episodes`` more episodes arrive - the interruption point for
        checkpoint/resume)."""
        stop_at = self.config.episode_budget
        if max_new_episodes is not None:
            stop_at = min(stop_at, self.episodes_received + max_new_episodes)
        if self.config.workers <= 1:
            self._train_sync(stop_at)
        else:
            self._train_async(stop_at)
        self.close_logs()

    def _train_sync(self, stop_at: int) -> None:
        if self._sync_worker is None:
            self._sync_worker = Worker(0, self.seed, self)
        worker = self._sync_worker
        start = time.monotonic()
        while self.episodes_received < stop_at:
            episode = worker.produce_episode(self.snapshots.latest())
            self._ingest_episode(episode)
            self._run_owed_updates()
            self._publish_snapshot()
            if self._wall_clock_exceeded(start):
                break
            self._maybe_periodic_checkpoint()

    def _train_async(self, stop_at: int) -> None:
        queue = EpisodeQueue(maxsize=self.config.queue_size)
        stop = threading.Event()
        workers = [Worker(i, self.seed, self) for i in range(self.config.workers)]
        threads = [threading.Thread(target=w.run, args=(queue, stop), daemon=True)
                   for w in workers]
        for t in threads:
            t.start()
        start = time.monotonic()
        timed_out = False
        try:
            while self.episodes_received < stop_at:
                got = False
                if self.pending_updates < 1.0 or len(self.replay) < self.sac_config.batch_size:
                    episode = queue.get(timeout=0.05)
                    if episode is not None:
                        # ingest everything already delivered, even past the
                        # budget: delivered transitions are never dropped
                        self._ingest_episode(episode)
                        for extra in queue.drain():
                            self._ingest_episode(extra)
                        got = True
                if self.pending_updates >= 1.0 and self.run_update():
                    self.pending_updates -= 1.0
                if got:
                    self._publish_snapshot()
                    self._maybe_periodic_checkpoint()
                if self._wall_clock_exceeded(start):
                    timed_out = True
                    break
        finally:
            stop.set()
            queue.close()
            for t in threads:
                t.join(timeout=10.0)
        # the loop ingests faster than it updates; pay what the received
        # episodes are owed, unless the run is out of wall-clock time
        if not timed_out:
            self._run_owed_updates()

    def _wall_clock_exceeded(self, start: float) -> bool:
        limit = self.config.wall_clock_limit
        return limit > 0 and (time.monotonic() - start) > limit

    def _maybe_periodic_checkpoint(self) -> None:
        interval = self.config.checkpoint_interval
        if self.out_dir and interval > 0 and self.episodes_received % interval == 0:
            save_checkpoint(self, self.out_dir / f"episode_{self.episodes_received}.ckpt")

    def close_logs(self) -> None:
        if self._telemetry:
            self._telemetry_fh.close()
            self._curriculum_fh.close()
            self._telemetry = self._curriculum_log = None


# -- checkpointing ----------------------------------------------------------


def _adam_arrays(prefix: str, state: nn.AdamState) -> dict:
    out = {}
    for i, (m, v) in enumerate(zip(state.m, state.v)):
        out[f"{prefix}.m{i}"] = m
        out[f"{prefix}.v{i}"] = v
    return out


def _load_adam(prefix: str, state: nn.AdamState, arrays: dict, meta: dict) -> None:
    for i in range(len(state.m)):
        state.m[i][...] = arrays[f"{prefix}.m{i}"]
        state.v[i][...] = arrays[f"{prefix}.v{i}"]
    state.step_count = int(meta[f"{prefix}.steps"])


def save_checkpoint(trainer: Trainer, path) -> None:
    """Full trainer state: networks, optimizers, replay, RNG streams, and
    counters. Restoring reproduces identical subsequent behavior in the
    synchronous mode."""
    learner = trainer.learner
    arrays: dict[str, np.ndarray] = {}
    for prefix, net in (("actor", learner.actor.net), ("q1", learner.critics.q1),
                        ("q2", learner.critics.q2), ("tq1", learner.critics.target_q1),
                        ("tq2", learner.critics.target_q2), ("fpi", trainer.fpi.net)):
        arrays.update(nn.net_to_arrays(prefix, net))
    arrays["log_alpha"] = learner._alpha_param[0]
    adam_meta = {}
    for prefix, st in (("adam_actor", learner.adam_actor), ("adam_q1", learner.adam_q1),
                       ("adam_q2", learner.adam_q2), ("adam_alpha", learner.adam_alpha),
                       ("adam_fpi", trainer.fpi.adam)):
        arrays.update(_adam_arrays(prefix, st))
        adam_meta[f"{prefix}.steps"] = st.step_count
    arrays["fpi_stats.mean"] = trainer.fpi.stats.mean
    arrays["fpi_stats.m2"] = trainer.fpi.stats.m2

    replay = trainer.replay
    n = len(replay)
    if n:
        arrays["replay.obs"] = replay.obs[:n]
        arrays["replay.next_obs"] = replay.next_obs[:n]
        arrays["replay.actions"] = replay.actions[:n]
        arrays["replay.rewards"] = replay.rewards[:n]
        arrays["replay.terminals"] = replay.terminals[:n]
        arrays["replay.worker_ids"] = replay.worker_ids[:n]
        first_leaf = replay.tree.capacity - 1
        arrays["replay.priorities"] = replay.tree.nodes[first_leaf : first_leaf + n]
    if trainer.result_set:
        arrays["pending_features"] = np.stack([f for f, _ in trainer.result_set])
        arrays["pending_labels"] = np.array([y for _, y in trainer.result_set])

    meta = {
        "seed": trainer.seed,
        "obs_dim": trainer.obs_dim,
        "dtype": trainer.dtype.name,
        "variant": trainer.variant,
        "robot": dataclasses.asdict(trainer.robot),
        "dolly": dataclasses.asdict(trainer.dolly),
        "actor_layers": list(learner.actor.net.layer_sizes),
        "critic_layers": list(learner.critics.q1.layer_sizes),
        "n_updates": learner.n_updates,
        "episodes_received": trainer.episodes_received,
        "transitions_received": trainer.transitions_received,
        "pending_updates": trainer.pending_updates,
        "snapshot_version": trainer.snapshot_version,
        "fpi_train_calls": trainer.fpi_train_calls,
        "fpi_stats.count": trainer.fpi.stats.count,
        "replay.size": n,
        "replay.cursor": replay.cursor,
        "replay.inserted_total": replay.inserted_total,
        "master_rng": trainer.master_rng.bit_generator.state,
        "adam": adam_meta,
    }
    if trainer._sync_worker is not None:
        meta["worker0_rng"] = trainer._sync_worker.rng.bit_generator.state
    nn.write_checkpoint(path, meta, arrays)


def restore_checkpoint(path, config, out_dir=None) -> Trainer:
    """Rebuild a trainer from a checkpoint; structural mismatches against the
    supplied config raise :class:`nn.CheckpointError`."""
    meta, arrays = nn.read_checkpoint(path)
    n, cursor = int(meta["replay.size"]), int(meta["replay.cursor"])
    if n > config.replay_capacity or cursor >= config.replay_capacity:
        raise nn.CheckpointError(
            f"replay mismatch: checkpoint holds {n} transitions at cursor {cursor}, "
            f"config replay_capacity is {config.replay_capacity}")
    trainer = Trainer(config, seed=int(meta["seed"]), out_dir=out_dir,
                      robot=world.RobotSpec(**meta["robot"]),
                      dolly=world.DollySpec(**meta["dolly"]))
    learner = trainer.learner
    if list(learner.actor.net.layer_sizes) != meta["actor_layers"]:
        raise nn.CheckpointError(
            f"actor layout mismatch: checkpoint {meta['actor_layers']} vs "
            f"config {list(learner.actor.net.layer_sizes)}")
    if meta["dtype"] != trainer.dtype.name:
        raise nn.CheckpointError(f"dtype mismatch: checkpoint {meta['dtype']}")
    for prefix, net in (("actor", learner.actor.net), ("q1", learner.critics.q1),
                        ("q2", learner.critics.q2), ("tq1", learner.critics.target_q1),
                        ("tq2", learner.critics.target_q2), ("fpi", trainer.fpi.net)):
        nn.load_net_arrays(net, prefix, arrays)
    learner._alpha_param[0][...] = arrays["log_alpha"]
    learner.log_alpha = float(arrays["log_alpha"][0])
    for prefix, st in (("adam_actor", learner.adam_actor), ("adam_q1", learner.adam_q1),
                       ("adam_q2", learner.adam_q2), ("adam_alpha", learner.adam_alpha),
                       ("adam_fpi", trainer.fpi.adam)):
        _load_adam(prefix, st, arrays, meta["adam"])
    trainer.fpi.stats.count = int(meta["fpi_stats.count"])
    trainer.fpi.stats.mean = arrays["fpi_stats.mean"].copy()
    trainer.fpi.stats.m2 = arrays["fpi_stats.m2"].copy()

    replay = trainer.replay
    if n:
        replay.obs[:n] = arrays["replay.obs"]
        replay.next_obs[:n] = arrays["replay.next_obs"]
        replay.actions[:n] = arrays["replay.actions"]
        replay.rewards[:n] = arrays["replay.rewards"]
        replay.terminals[:n] = arrays["replay.terminals"]
        replay.worker_ids[:n] = arrays["replay.worker_ids"]
        replay.tree.set_many(np.arange(n), arrays["replay.priorities"])
    replay.size = n
    replay.cursor = cursor
    replay.inserted_total = int(meta["replay.inserted_total"])
    if "pending_features" in arrays:
        feats = arrays["pending_features"]
        labels = arrays["pending_labels"]
        trainer.result_set = [(feats[i].copy(), float(labels[i])) for i in range(len(labels))]
    trainer.learner.n_updates = int(meta["n_updates"])
    trainer.episodes_received = int(meta["episodes_received"])
    trainer.transitions_received = int(meta["transitions_received"])
    trainer.pending_updates = float(meta["pending_updates"])
    trainer.snapshot_version = int(meta["snapshot_version"])
    trainer.fpi_train_calls = int(meta["fpi_train_calls"])
    trainer.master_rng.bit_generator.state = _rng_state(meta["master_rng"])
    if "worker0_rng" in meta:
        trainer._sync_worker = Worker(0, trainer.seed, trainer)
        trainer._sync_worker.rng.bit_generator.state = _rng_state(meta["worker0_rng"])
    trainer._publish_snapshot(initial=True)
    return trainer


def _rng_state(state: dict) -> dict:
    state = dict(state)
    state["state"] = {k: int(v) for k, v in state["state"].items()}
    return state


def actor_from_checkpoint(path, dtype=np.float32) -> Actor:
    """Load just the policy network from a checkpoint (enough for evaluation);
    the replay and every other array are skipped, not read."""
    meta, arrays = nn.read_checkpoint(path, prefix="actor.")
    layers = meta["actor_layers"]
    obs_dim, act_dim = int(layers[0]), int(layers[-1]) // 2
    actor = Actor(obs_dim, act_dim, tuple(int(h) for h in layers[1:-1]),
                  rng=np.random.default_rng(0), dtype=dtype)
    nn.load_net_arrays(actor.net, "actor", arrays)
    return actor
