"""Training: rollout workers take turns with the learner in one loop.

Workers own their environments and RNG streams (seeded ``base_seed +
worker_id``) and act with the learner's own actor, first critic and success
predictor; the trainer is the only writer of network parameters, replay
priorities, and the success predictor. Episode ``n`` comes from worker
``n % workers``; it is ingested, the owed update steps run, and a new
parameter version is published, which the next episode runs on. Runs are
bit-reproducible at any worker count, and a checkpoint holds every worker's
RNG stream, so a restored run continues bit-identically.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import operator
import time
import weakref
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import curriculum as cur
from . import nn, world
from .per import Episode, PerConfig, PrioritizedReplay, anneal_b
from .sac import Actor, SacConfig, SacLearner

MASTER_SEED_OFFSET = 2**31  # keeps the master stream clear of worker streams
ACT_DIM = 2  # (linear, angular) velocity command

TELEMETRY_FIELDS = ["episode", "worker_id", "return", "steps", "success", "task_type",
                    "snapshot_version"]
CURRICULUM_FIELDS = ["episode", "task_type", "distance", "agent_clearance", "goal_clearance",
                     "relative_angle", "initial_q", "fpi_prediction", "success"]


class Candidate(NamedTuple):
    """A task with its curriculum features, its success prediction and its
    t=0 observation, which the rollout reuses."""

    task: world.Task
    features: np.ndarray
    prediction: float
    observation: np.ndarray


class Worker:
    """Rollout context: its own RNG stream, task selection, one episode at a
    time, acting with the learner's networks."""

    def __init__(self, worker_id: int, base_seed: int, trainer: "Trainer"):
        self.worker_id = worker_id
        self.rng = np.random.default_rng(base_seed + worker_id)
        # the trainer owns its workers; a strong reference back would make a
        # cycle, and each finished trainer, replay pages included, would stay
        # resident until the cyclic garbage collector next ran
        self.trainer = weakref.proxy(trainer)
        self.actor = trainer.learner.actor
        self.q1 = trainer.learner.critics.q1
        self.fpi = trainer.fpi
        # skip one draw per actor and predictor parameter, as before: keeps every run's bits
        self.rng.bit_generator.advance(self.actor.net.flat.size + self.fpi.net.flat.size)

    def _sample_task(self) -> world.Task:
        return world.sample_task(self.rng, self.trainer.task_bounds,
                                 self.trainer.robot, self.trainer.dolly)

    def _score(self, tasks: list[world.Task]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start observations, curriculum features (four geometric, then the
        critic's initial Q) and success predictions of candidate tasks: one
        actor, one critic and one predictor forward for all of them."""
        t = self.trainer
        # the feature rows are stacked before the observations exist: the other
        # order placed the heap so that training's peak RSS rose by about 6 MB
        features = np.stack([world.geometric_properties(task, 0.0) for task in tasks])
        observations = world.start_observations([task.config for task in tasks], t.robot,
                                                t.dolly, t.dtype)
        features[:, 4] = cur.initial_q_feature(self.q1, self.actor, observations)
        return observations, features, self.fpi.predict(features)

    def _evaluate_task(self, task: world.Task) -> Candidate:
        observations, features, predictions = self._score([task])
        return Candidate(task, features[0], float(predictions[0]), observations[0])

    def select_task(self) -> tuple[Candidate, str]:
        """The next episode's task, scored, and its task type."""
        t = self.trainer
        if t.variant != "navacl_q":
            chosen = self._evaluate_task(self._sample_task())
            return chosen._replace(prediction=float("nan")), "random"
        pool = [self._sample_task() for _ in range(t.navacl_config.candidate_pool)]
        mu, sigma = cur.fit_normal(self._score(pool)[2])
        chosen, task_type, _ = cur.get_dynamic_task(
            lambda: self._evaluate_task(self._sample_task()), lambda c: c.prediction,
            mu, sigma, t.navacl_config, self.rng,
        )
        return chosen, task_type

    def rollout(self, chosen: Candidate):
        t = self.trainer
        w = world.World(chosen.task.config, t.robot, t.dolly, t.step_limit, t.dtype,
                        start_observation=chosen.observation)
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

    def produce_episode(self) -> Episode:
        chosen, task_type = self.select_task()
        observations, actions, rewards, terminals, success = self.rollout(chosen)
        return Episode(
            worker_id=self.worker_id, task_type=task_type,
            features=chosen.features, fpi_prediction=chosen.prediction,
            observations=observations, actions=actions,
            rewards=rewards, terminals=terminals, success=success,
            snapshot_version=self.trainer.snapshot_version,
        )


class Trainer:
    """Owns the learner, the replay buffer, the success predictor, telemetry,
    the rollout workers and the training loop."""

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
        self.act_dim = ACT_DIM

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

        self._workers = [Worker(i, seed, self) for i in range(config.workers)]
        self.out_dir = Path(out_dir) if out_dir else None
        self._telemetry = self._curriculum_log = None
        if self.out_dir:
            self._open_logs(keep_rows=0)

    def _open_logs(self, keep_rows: int) -> None:
        """Open ``telemetry.csv`` and ``curriculum.csv`` in ``out_dir``. With
        ``keep_rows``, an existing log keeps its header and first ``keep_rows``
        rows, and new rows follow them; a log with fewer rows raises
        :class:`nn.CheckpointError` before either file is written. A missing
        log, or any when ``keep_rows`` is 0, starts with its header."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        logs = [(self.out_dir / "telemetry.csv", TELEMETRY_FIELDS),
                (self.out_dir / "curriculum.csv", CURRICULUM_FIELDS)]
        kept = []
        for path, _ in logs:
            head = ""
            if keep_rows and path.exists():
                lines = path.read_bytes().splitlines(keepends=True)
                if len(lines) <= keep_rows:
                    raise nn.CheckpointError(
                        f"{path} holds {max(0, len(lines) - 1)} rows, fewer than the "
                        f"checkpoint's {keep_rows} episodes")
                head = b"".join(lines[: keep_rows + 1]).decode()
            kept.append(head)
        handles = []
        for (path, fields), head in zip(logs, kept):
            fh = open(path, "w", newline="")
            if head:
                fh.write(head)
            else:
                csv.writer(fh).writerow(fields)
            handles.append(fh)
        self._telemetry_fh, self._curriculum_fh = handles
        self._telemetry = csv.writer(self._telemetry_fh)
        self._curriculum_log = csv.writer(self._curriculum_fh)

    # -- snapshots ------------------------------------------------------

    def _publish_snapshot(self) -> None:
        """Mark the current parameters as a new version, the one the next
        episode runs on."""
        self.snapshot_version += 1

    # -- episode ingestion ------------------------------------------------

    def _ingest_episode(self, episode: Episode) -> None:
        self.replay.push_episode(episode)
        self.episodes_received += 1
        self.transitions_received += episode.steps
        self.pending_updates += self.config.updates_per_episode
        if self.variant == "navacl_q":
            self.result_set.append((episode.features, 1.0 if episode.success else 0.0))
            if len(self.result_set) >= self.navacl_config.batch_size:
                self._train_fpi(self.navacl_config.batch_size)
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

    def _train_fpi(self, count: int) -> None:
        """One success-predictor step on the oldest ``count`` results."""
        batch = self.result_set[:count]
        del self.result_set[:count]
        self.fpi.train_batch(np.stack([f for f, _ in batch]), np.array([y for _, y in batch]))
        self.fpi_train_calls += 1

    def flush_fpi_results(self) -> None:
        """Train on a final partial batch (shutdown path)."""
        if self.result_set:
            self._train_fpi(len(self.result_set))

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
                self._checkpoint_to_out_dir("abort.ckpt")
            raise
        self.replay.update_priorities(idx, td_abs)
        return True

    def _run_owed_updates(self) -> None:
        while self.pending_updates >= 1.0:
            if not self.run_update():
                break  # buffer below one batch: idle, keep the debt
            self.pending_updates -= 1.0

    # -- training loop ------------------------------------------------------

    def train(self, max_new_episodes: int | None = None) -> None:
        """Run training until the episode budget (or, when given, until
        ``max_new_episodes`` more episodes arrive - the interruption point for
        checkpoint/resume), then close the run's logs. A later call reopens
        them and appends its rows after the ``episodes_received`` kept ones."""
        stop_at = self.config.episode_budget
        if max_new_episodes is not None:
            stop_at = min(stop_at, self.episodes_received + max_new_episodes)
        if self.out_dir and not self._telemetry:
            self._open_logs(keep_rows=self.episodes_received)
        start = time.monotonic()
        while self.episodes_received < stop_at:
            worker = self._workers[self.episodes_received % len(self._workers)]
            self._ingest_episode(worker.produce_episode())
            self._run_owed_updates()
            self._publish_snapshot()
            if self._wall_clock_exceeded(start):
                break
            self._maybe_periodic_checkpoint()
        self.close_logs()

    def _wall_clock_exceeded(self, start: float) -> bool:
        limit = self.config.wall_clock_limit
        return limit > 0 and (time.monotonic() - start) > limit

    def _maybe_periodic_checkpoint(self) -> None:
        interval = self.config.checkpoint_interval
        if self.out_dir and interval > 0 and self.episodes_received % interval == 0:
            self._checkpoint_to_out_dir(f"episode_{self.episodes_received}.ckpt")

    def _checkpoint_to_out_dir(self, name: str) -> None:
        """Flush both logs first, so that on disk they hold every row the
        checkpoint counts and a restore from it can keep them."""
        if self._telemetry:
            self._telemetry_fh.flush()
            self._curriculum_fh.flush()
        save_checkpoint(self, self.out_dir / name)

    def close_logs(self) -> None:
        if self._telemetry:
            self._telemetry_fh.close()
            self._curriculum_fh.close()
            self._telemetry = self._curriculum_log = None


# -- checkpointing ----------------------------------------------------------
#
# The checkpointed trainer state is described once, in file order, and both
# save_checkpoint and restore_checkpoint walk these descriptions.

REPLAY_ARRAYS = ("obs", "next_obs", "actions", "rewards", "terminals", "worker_ids")
# checkpoint meta key -> attribute path from the trainer
COUNTERS = {
    "n_updates": "learner.n_updates",
    "episodes_received": "episodes_received",
    "transitions_received": "transitions_received",
    "pending_updates": "pending_updates",
    "snapshot_version": "snapshot_version",
    "fpi_train_calls": "fpi_train_calls",
    "fpi_stats.count": "fpi.stats.count",
    "replay.size": "replay.size",
    "replay.cursor": "replay.cursor",
    "replay.inserted_total": "replay.inserted_total",
}


def _networks(trainer: Trainer) -> dict[str, nn.DenseNet]:
    learner, critics = trainer.learner, trainer.learner.critics
    return {"actor": learner.actor.net, "q1": critics.q1, "q2": critics.q2,
            "tq1": critics.target_q1, "tq2": critics.target_q2, "fpi": trainer.fpi.net}


def _optimizers(trainer: Trainer) -> dict[str, nn.AdamState]:
    learner = trainer.learner
    return {"adam_actor": learner.adam_actor, "adam_q1": learner.adam_q1,
            "adam_q2": learner.adam_q2, "adam_alpha": learner.adam_alpha,
            "adam_fpi": trainer.fpi.adam}


def checkpoint_arrays(trainer: Trainer, n: int) -> dict[str, np.ndarray]:
    """The trainer's fixed-layout checkpointed arrays by name, in file order,
    with the first ``n`` replay rows: the arrays that save_checkpoint writes
    and restore_checkpoint reads straight back into."""
    learner, replay = trainer.learner, trainer.replay
    arrays: dict[str, np.ndarray] = {}
    for prefix, net in _networks(trainer).items():
        arrays[f"{prefix}.params"] = net.flat
    arrays["log_alpha"] = learner._alpha_param[0]
    for prefix, state in _optimizers(trainer).items():
        (m,), (v,) = state.m, state.v  # each optimizer steps one array
        arrays[f"{prefix}.m"], arrays[f"{prefix}.v"] = m, v
    arrays["fpi_stats.mean"] = trainer.fpi.stats.mean
    arrays["fpi_stats.m2"] = trainer.fpi.stats.m2
    if n:
        for name in REPLAY_ARRAYS:
            arrays[f"replay.{name}"] = getattr(replay, name)[:n]
        first_leaf = replay.tree.capacity - 1
        arrays["replay.priorities"] = replay.tree.nodes[first_leaf : first_leaf + n]
    return arrays


def save_checkpoint(trainer: Trainer, path) -> None:
    """Full trainer state: networks, optimizers, replay, RNG streams (the
    master's and every worker's), and counters. Restoring reproduces
    identical subsequent behavior."""
    learner = trainer.learner
    arrays = checkpoint_arrays(trainer, len(trainer.replay))
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
        **{key: operator.attrgetter(attr)(trainer) for key, attr in COUNTERS.items()},
        "master_rng": trainer.master_rng.bit_generator.state,
        "adam": {f"{prefix}.steps": state.step_count
                 for prefix, state in _optimizers(trainer).items()},
    }
    for w in trainer._workers:
        meta[f"worker{w.worker_id}_rng"] = w.rng.bit_generator.state
    nn.write_checkpoint(path, meta, arrays)


def _worker_rngs(meta: dict) -> list[dict]:
    states = []
    while f"worker{len(states)}_rng" in meta:
        states.append(meta[f"worker{len(states)}_rng"])
    return states


def _trainer_for(meta: dict, config) -> Trainer:
    """A fresh trainer for a checkpoint's metadata, after checking the
    metadata against ``config``."""
    robot = world.RobotSpec(**meta["robot"])
    actor_layers = [world.observation_dim(robot), *config.hidden, 2 * ACT_DIM]
    if meta["actor_layers"] != actor_layers:
        raise nn.CheckpointError(
            f"actor layout mismatch: checkpoint {meta['actor_layers']} vs config {actor_layers}")
    if meta["dtype"] != np.dtype(config.dtype).name:
        raise nn.CheckpointError(
            f"dtype mismatch: checkpoint {meta['dtype']} vs config {config.dtype}")
    n, cursor = int(meta["replay.size"]), int(meta["replay.cursor"])
    if n > config.replay_capacity or cursor >= config.replay_capacity:
        raise nn.CheckpointError(
            f"replay mismatch: checkpoint holds {n} transitions at cursor {cursor}, "
            f"config replay_capacity is {config.replay_capacity}")
    workers = len(_worker_rngs(meta))
    if workers and workers != config.workers:
        raise nn.CheckpointError(
            f"worker count mismatch: checkpoint {workers} vs config {config.workers}")
    return Trainer(config, seed=int(meta["seed"]), robot=robot,
                   dolly=world.DollySpec(**meta["dolly"]))


def restore_checkpoint(path, config, out_dir=None) -> Trainer:
    """Rebuild a trainer from a checkpoint. Structural mismatches against the
    supplied config raise :class:`nn.CheckpointError` before the trainer is
    created. Every array of :func:`checkpoint_arrays` is read straight into
    the new trainer's own, so the replay is held once. With ``out_dir``, the
    run's logs there keep their header and the checkpoint's
    ``episodes_received`` rows and are appended to; a log with fewer rows
    raises :class:`nn.CheckpointError` before either is written."""
    trainer = None

    def destinations(meta: dict) -> dict[str, np.ndarray]:
        nonlocal trainer
        trainer = _trainer_for(meta, config)
        return checkpoint_arrays(trainer, int(meta["replay.size"]))

    meta, arrays = nn.read_checkpoint(path, into=destinations)
    for prefix, state in _optimizers(trainer).items():
        state.step_count = int(meta["adam"][f"{prefix}.steps"])
    n = int(meta["replay.size"])
    if n:  # the priorities were read into the tree's leaves: rebuild every node above
        trainer.replay.tree.set_many(np.arange(n), arrays["replay.priorities"])
    if "pending_features" in arrays:
        feats = arrays["pending_features"]
        labels = arrays["pending_labels"]
        trainer.result_set = [(feats[i].copy(), float(labels[i])) for i in range(len(labels))]
    for key, attr in COUNTERS.items():
        owner, _, name = attr.rpartition(".")
        obj = operator.attrgetter(owner)(trainer) if owner else trainer
        setattr(obj, name, type(getattr(obj, name))(meta[key]))  # the fresh trainer's type
    trainer.master_rng.bit_generator.state = meta["master_rng"]
    for worker, state in zip(trainer._workers, _worker_rngs(meta)):
        worker.rng.bit_generator.state = state
    if out_dir:
        trainer.out_dir = Path(out_dir)
        trainer._open_logs(keep_rows=trainer.episodes_received)
    return trainer


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
