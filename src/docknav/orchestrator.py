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
from .config import ConfigError, RunConfig, validate_config
from .per import Episode, PrioritizedReplay, anneal_b
from .sac import Actor, SacLearner

MASTER_SEED_OFFSET = 2**31  # keeps the master stream clear of worker streams
ACT_DIM = 2  # (linear, angular) velocity command

LOGS = {  # the run's logs in ``out_dir``, file -> columns, in ``Trainer._logs`` order
    "telemetry.csv": ["episode", "worker_id", "return", "steps", "success", "task_type",
                      "snapshot_version"],
    "curriculum.csv": ["episode", "task_type", "distance", "agent_clearance", "goal_clearance",
                       "relative_angle", "initial_q", "fpi_prediction", "success"]}


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

    def _sample_task(self) -> world.Task:
        return world.sample_task(self.rng, self.trainer.config,
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
        if t.config.variant != "navacl_q":
            chosen = self._evaluate_task(self._sample_task())
            return chosen._replace(prediction=float("nan")), "random"
        pool = [self._sample_task() for _ in range(t.config.candidate_pool)]
        mu, sigma = cur.fit_normal(self._score(pool)[2])
        chosen, task_type, _ = cur.get_dynamic_task(
            lambda: self._evaluate_task(self._sample_task()), lambda c: c.prediction,
            mu, sigma, t.config, self.rng,
        )
        return chosen, task_type

    def rollout(self, chosen: Candidate):
        t = self.trainer
        w = world.World(chosen.task.config, t.robot, t.dolly, t.config.step_limit, t.dtype,
                        start_observation=chosen.observation)
        obs = [w.observation()]
        actions, rewards, terminals = [], [], []
        while not w.terminal:
            a, _ = self.actor.act(obs[-1], rng=self.rng, mode="sample")
            out = w.step(a)
            obs.append(out.observation)
            actions.append(a)
            rewards.append(out.reward)
            flags = out.flags
            # a time limit is not a state of the task, so its end still
            # bootstraps (Pardo et al. 2018); only goal and collisions stop it
            terminals.append(flags.goal or flags.collision_dolly or flags.collision_other)
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

    def __init__(self, config: RunConfig, seed: int, out_dir=None,
                 robot: world.RobotSpec | None = None, dolly: world.DollySpec | None = None):
        self.config = validate_config(config)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.robot = robot or world.RobotSpec()
        self.dolly = dolly or world.DollySpec()
        self.dtype = np.dtype(config.dtype)
        self.obs_dim = world.observation_dim(self.robot)

        init_rng = np.random.default_rng(seed)
        self.learner = SacLearner(self.obs_dim, ACT_DIM, config, init_rng, dtype=self.dtype)
        self.fpi = cur.SuccessPredictor(rng=init_rng, learning_rate=config.fpi_lr)
        self.replay = PrioritizedReplay(config.replay_capacity, config,
                                        obs_dim=self.obs_dim, act_dim=ACT_DIM, dtype=self.dtype)
        self.master_rng = np.random.default_rng(seed + MASTER_SEED_OFFSET)

        self.episodes_received = 0
        self.transitions_received = 0
        self.pending_updates = 0.0
        self.snapshot_version = 0
        self.result_set: list[tuple[np.ndarray, float]] = []  # pending f_pi batch

        self._workers = [Worker(i, seed, self) for i in range(config.workers)]
        self.out_dir = Path(out_dir) if out_dir else None
        self._logs: list[tuple] = []  # (file, csv writer) per open log, in LOGS order
        if self.out_dir:
            self._open_logs(keep_rows=0)

    def _open_logs(self, keep_rows: int) -> None:
        """Open every log of :data:`LOGS` in ``out_dir``. With ``keep_rows``,
        an existing log keeps its header and first ``keep_rows`` rows, and new
        rows follow them; a log with fewer rows raises
        :class:`nn.CheckpointError` before any file is written. A missing log,
        or any when ``keep_rows`` is 0, starts with its header."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        kept = {}
        for name in LOGS:
            path = self.out_dir / name
            if keep_rows and path.exists():
                lines = path.read_bytes().splitlines(keepends=True)
                if len(lines) <= keep_rows:
                    raise nn.CheckpointError(
                        f"{path} holds {max(0, len(lines) - 1)} rows, fewer than the "
                        f"checkpoint's {keep_rows} episodes")
                kept[name] = b"".join(lines[: keep_rows + 1]).decode()
        for name, fields in LOGS.items():
            fh = open(self.out_dir / name, "w", newline="")
            writer = csv.writer(fh)
            if name in kept:
                fh.write(kept[name])
            else:
                writer.writerow(fields)
            self._logs.append((fh, writer))

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
        if self.config.variant == "navacl_q":
            self.result_set.append((episode.features, 1.0 if episode.success else 0.0))
            count = self.config.result_batch_size
            if len(self.result_set) >= count:  # one predictor step on the oldest results
                batch = self.result_set[:count]
                del self.result_set[:count]
                self.fpi.train_batch(np.stack([f for f, _ in batch]),
                                     np.array([y for _, y in batch]))
        if self._logs:
            (_, telemetry), (_, curriculum) = self._logs
            telemetry.writerow([
                self.episodes_received, episode.worker_id,
                f"{episode.episode_return:.6f}", episode.steps, int(episode.success),
                episode.task_type, episode.snapshot_version,
            ])
            f = episode.features
            pred = "" if math.isnan(episode.fpi_prediction) else f"{episode.fpi_prediction:.6f}"
            curriculum.writerow([
                self.episodes_received, episode.task_type,
                f"{f[0]:.6f}", f"{f[1]:.6f}", f"{f[2]:.6f}", f"{f[3]:.6f}", f"{f[4]:.6f}",
                pred, int(episode.success),
            ])

    # -- updates -----------------------------------------------------------

    def _progress(self) -> float:
        return min(1.0, self.episodes_received / max(1, self.config.episode_budget))

    def run_update(self) -> bool:
        """One SAC gradient step off the replay buffer; False when the buffer
        is still below one batch."""
        batch_size = self.config.batch_size
        if len(self.replay) < batch_size:
            return False
        b = anneal_b(self._progress(), self.config)
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
        if self.out_dir and not self._logs:
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
        """Flush the logs first, so that on disk they hold every row the
        checkpoint counts and a restore from it can keep them."""
        for fh, _ in self._logs:
            fh.flush()
        save_checkpoint(self, self.out_dir / name)

    def close_logs(self) -> None:
        for fh, _ in self._logs:
            fh.close()
        self._logs = []


# -- checkpointing ----------------------------------------------------------
#
# The checkpointed trainer state is described once, in file order, and both
# save_checkpoint and restore_checkpoint walk these descriptions.

REPLAY_ARRAYS = ("obs", "actions", "rewards", "terminals", "worker_ids", "ends")
# checkpoint meta key -> attribute path from the trainer
COUNTERS = {
    "n_updates": "learner.n_updates",
    "episodes_received": "episodes_received",
    "transitions_received": "transitions_received",
    "pending_updates": "pending_updates",
    "snapshot_version": "snapshot_version",
    "fpi_train_calls": "fpi.adam.step_count",  # adam_fpi.steps again; key goes at the next version
    "fpi_stats.count": "fpi.stats.count",
    "replay.size": "replay.size",
    "replay.cursor": "replay.cursor",
    "replay.inserted_total": "replay.inserted_total",
    "replay.final_rows": "replay.final_count",
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
    with the first ``n`` replay rows and the replay's side table of final
    observations: the arrays that save_checkpoint writes and
    restore_checkpoint reads straight back into."""
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
        arrays["replay.final_obs"] = replay.final_obs
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
        "variant": trainer.config.variant,
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


def _entry(meta, key: str, kind: type, path):
    """``meta[key]`` if it is exactly a ``kind``, as JSON loads what save_checkpoint
    writes; else :class:`nn.CheckpointError` names the file and the key."""
    value = meta.get(key) if isinstance(meta, dict) else None
    if type(value) is not kind:
        raise nn.CheckpointError(f"{path}: checkpoint metadata has no {kind.__name__} {key!r}")
    return value


def _count(meta, key: str, kind: type, path):
    """``_entry(meta, key, kind, path)``, a counter: :class:`nn.CheckpointError`
    names the file and the key when it is negative."""
    value = _entry(meta, key, kind, path)
    if value < 0:
        raise nn.CheckpointError(f"{path}: checkpoint metadata {key!r} is negative: {value}")
    return value


def _spec(meta, key: str, cls: type, path):
    """``cls`` built from the dict ``meta[key]``; :class:`nn.CheckpointError`
    names the file and the key when the dict does not fit its fields."""
    try:
        return cls(**_entry(meta, key, dict, path))
    except TypeError as exc:
        raise nn.CheckpointError(f"{path}: checkpoint metadata {key!r} is no {cls.__name__}: "
                                 f"{exc}") from exc


def _set_rng_state(rng: np.random.Generator, meta, key: str, path) -> None:
    """Set ``rng``'s bit generator to the state dict ``meta[key]``;
    :class:`nn.CheckpointError` names the file and the key when numpy rejects it."""
    try:
        rng.bit_generator.state = _entry(meta, key, dict, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise nn.CheckpointError(f"{path}: checkpoint metadata {key!r} is no "
                                 f"{type(rng.bit_generator).__name__} state: {exc!r}") from exc


def _worker_rngs(meta: dict) -> list[dict]:
    states = []
    while f"worker{len(states)}_rng" in meta:
        states.append(meta[f"worker{len(states)}_rng"])
    return states


def _trainer_for(meta: dict, config, path) -> Trainer:
    """A fresh trainer for a checkpoint's metadata, after checking the
    metadata against ``config``."""
    robot = _spec(meta, "robot", world.RobotSpec, path)
    actor_layers = [world.observation_dim(robot), *config.hidden, 2 * ACT_DIM]
    if _entry(meta, "actor_layers", list, path) != actor_layers:
        raise nn.CheckpointError(
            f"actor layout mismatch: checkpoint {meta['actor_layers']} vs config {actor_layers}")
    if _entry(meta, "dtype", str, path) != np.dtype(config.dtype).name:
        raise nn.CheckpointError(
            f"dtype mismatch: checkpoint {meta['dtype']} vs config {config.dtype}")
    if _entry(meta, "variant", str, path) != config.variant:
        raise nn.CheckpointError(
            f"variant mismatch: checkpoint {meta['variant']} vs config {config.variant}")
    n, cursor = _count(meta, "replay.size", int, path), _count(meta, "replay.cursor", int, path)
    # Until a ring fills, its cursor equals its size. Once it has filled, a
    # slot's next observation is the next slot's and the next push overwrites
    # slot ``cursor``, so only a ring of its own size reads it.
    filled = cursor != n
    if (n > config.replay_capacity or cursor >= config.replay_capacity
            or filled and n != config.replay_capacity):
        raise nn.CheckpointError(
            f"replay mismatch: checkpoint holds {n} transitions at cursor {cursor}"
            f"{' of a filled ring' if filled else ''}, "
            f"config replay_capacity is {config.replay_capacity}")
    workers = len(_worker_rngs(meta))
    if workers != config.workers:
        raise nn.CheckpointError(
            f"worker count mismatch: checkpoint {workers} vs config {config.workers}")
    return Trainer(config, seed=_entry(meta, "seed", int, path), robot=robot,
                   dolly=_spec(meta, "dolly", world.DollySpec, path))


def restore_checkpoint(path, config, out_dir=None) -> Trainer:
    """Rebuild a trainer from a checkpoint. Structural mismatches against the
    supplied config raise :class:`nn.CheckpointError` before the trainer is
    created; a missing or mistyped metadata entry, or a negative counter,
    raises it too, naming the key. Every array of :func:`checkpoint_arrays`
    is read straight into the new trainer's own, so the replay is held once.
    With ``out_dir``, the run's logs there keep their header and the
    checkpoint's ``episodes_received`` rows and are appended to, after every
    check; a log with fewer rows raises :class:`nn.CheckpointError` before
    any is written."""
    trainer = None

    def destinations(meta: dict) -> dict[str, np.ndarray]:
        nonlocal trainer
        trainer = _trainer_for(meta, config, path)
        trainer.replay.expect_finals(_entry(meta, "replay.final_rows", int, path))
        return checkpoint_arrays(trainer, meta["replay.size"])

    meta, arrays = nn.read_checkpoint(path, into=destinations)
    adam = _entry(meta, "adam", dict, path)
    for prefix, state in _optimizers(trainer).items():
        state.step_count = _entry(adam, f"{prefix}.steps", int, path)
    if "pending_features" in arrays:
        feats = arrays["pending_features"]
        labels = arrays["pending_labels"]
        trainer.result_set = [(feats[i].copy(), float(labels[i])) for i in range(len(labels))]
    for key, attr in COUNTERS.items():
        owner, _, name = attr.rpartition(".")
        obj = operator.attrgetter(owner)(trainer) if owner else trainer
        setattr(obj, name, _count(meta, key, type(getattr(obj, name)), path))
    try:
        trainer.replay.rebuild()  # the tree above the leaves read, each end's final row
    except ValueError as exc:
        raise nn.CheckpointError(f"{path}: {exc}") from exc
    _set_rng_state(trainer.master_rng, meta, "master_rng", path)
    for worker in trainer._workers:
        _set_rng_state(worker.rng, meta, f"worker{worker.worker_id}_rng", path)
    if out_dir:
        trainer.out_dir = Path(out_dir)
        trainer._open_logs(keep_rows=trainer.episodes_received)
    return trainer


def actor_from_checkpoint(path, dtype=np.float32) -> Actor:
    """Load just the policy network from a checkpoint (enough for evaluation);
    the replay and every other array are skipped, not read."""
    meta, arrays = nn.read_checkpoint(path, prefix="actor.")
    layers = _entry(meta, "actor_layers", list, path)
    if len(layers) < 2 or any(type(n) is not int or n < 1 for n in layers):
        raise nn.CheckpointError(f"{path}: checkpoint metadata 'actor_layers' is {layers}")
    if "actor.params" not in arrays:
        raise nn.CheckpointError(f"{path}: checkpoint holds no array actor.params")
    actor = Actor(layers[0], layers[-1] // 2, tuple(layers[1:-1]),
                  rng=np.random.default_rng(0), dtype=dtype)
    actor.net.flat[...] = arrays["actor.params"].reshape(actor.net.flat.shape)  # no broadcast
    return actor
