import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from docknav import curriculum, orchestrator, world
from docknav.config import ConfigError, RunConfig
from docknav.nn import CheckpointError, GradientError, read_checkpoint, write_checkpoint
from docknav.orchestrator import (
    Trainer,
    Worker,
    actor_from_checkpoint,
    checkpoint_arrays,
    restore_checkpoint,
    save_checkpoint,
)
from docknav.per import Episode
from docknav.world import RobotSpec

from _oracles import sac_update_reference, select_task_reference

TINY_ROBOT = RobotSpec(lidar_beams_per_sensor=8, semantic_rays=4)


def tiny_config(**overrides):
    base = dict(
        variant="navacl_q", seeds=(1,), episode_budget=5, workers=1,
        updates_per_episode=2, replay_capacity=1024, dtype="float64",
        step_limit=20, batch_size=16, hidden=(16,), candidate_pool=4,
        result_batch_size=4, obstacle_count_min=0, obstacle_count_max=2,
        distance_min=1.5, distance_max=3.0, target_update_interval=50,
    )
    base.update(overrides)
    return RunConfig(**base)


def make_trainer(seed=1, out_dir=None, **overrides):
    return Trainer(tiny_config(**overrides), seed=seed, out_dir=out_dir,
                   robot=TINY_ROBOT)


def actor_bytes(trainer):
    return b"".join(p.tobytes() for p in trainer.learner.actor.net.parameters())


# -- synchronous determinism ---------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3])
def test_sync_mode_bit_reproducible(tmp_path, workers):
    digests = []
    telemetry = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        trainer = make_trainer(out_dir=out, workers=workers)
        trainer.train()
        digests.append(actor_bytes(trainer))
        telemetry.append((out / "telemetry.csv").read_text())
    assert digests[0] == digests[1]
    assert telemetry[0] == telemetry[1]


def test_single_worker_episode_reproducible():
    episodes = []
    for _ in range(2):
        trainer = make_trainer()
        worker = Worker(0, trainer.seed, trainer)
        episodes.append(worker.produce_episode())
    a, b = episodes
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.task_type == b.task_type


def test_worker_stream_is_seed_plus_worker_id():
    # a draw skipped or added before the first task would move every task
    trainer = make_trainer()
    for i in range(3):
        want = world.sample_task(np.random.default_rng(trainer.seed + i), trainer.config,
                                 trainer.robot, trainer.dolly)
        assert Worker(i, trainer.seed, trainer)._sample_task() == want


class FixedCommand:
    """An actor stand-in that sends the same velocity command every step."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=float)

    def act(self, obs, rng=None, mode="sample"):
        return self.action, 0.0


@pytest.mark.parametrize("action, step_limit", [((0.0, 0.0), 3), ((1.0, 0.0), 500)],
                         ids=["time_limit", "goal_or_collision"])
def test_only_goal_and_collision_ends_are_terminal(action, step_limit):
    trainer = make_trainer(step_limit=step_limit)
    worker = Worker(0, trainer.seed, trainer)
    chosen = worker._evaluate_task(worker._sample_task())
    worker.actor = FixedCommand(action)
    observations, actions, rewards, terminals, success = worker.rollout(chosen)
    trainer._ingest_episode(Episode(
        worker_id=0, task_type="random", features=chosen.features,
        fpi_prediction=chosen.prediction, observations=observations, actions=actions,
        rewards=rewards, terminals=terminals, success=success, snapshot_version=0))
    n = len(trainer.replay)
    assert n == len(actions)
    assert trainer.replay.ends[:n].tolist() == [False] * (n - 1) + [True]
    stored = trainer.replay.terminals[:n].tolist()
    if step_limit == 3:  # stopped by the time limit, which still bootstraps
        assert n == step_limit and stored == [False] * n
    else:  # driving straight ahead ends on the dolly, its leg or a wall
        assert n < step_limit and stored == [False] * (n - 1) + [True]


def test_sync_alternation_counters():
    trainer = make_trainer(episode_budget=8, updates_per_episode=3, batch_size=8)
    trainer.train()
    assert trainer.episodes_received == 8
    # updates owed = episodes * 3 minus the debt accrued while the buffer was
    # below one batch
    assert trainer.learner.n_updates + trainer.pending_updates == 8 * 3
    assert trainer.learner.n_updates > 0


# -- curriculum scoring ---------------------------------------------------------


def test_pool_scores_match_single_row_evaluation():
    trainer = make_trainer(dtype="float32", obstacle_count_max=4)
    worker = Worker(0, trainer.seed, trainer)
    pool = [worker._sample_task() for _ in range(40)]
    _, _, batched = worker._score(pool)
    single = np.array([worker._evaluate_task(task).prediction for task in pool])
    assert batched.shape == (40,)
    assert np.max(np.abs(batched - single)) <= 1e-6


def test_fresh_worker_scores_with_learner_networks():
    trainer = make_trainer()
    worker = Worker(0, trainer.seed, trainer)
    pool = [worker._sample_task() for _ in range(10)]
    obs = world.start_observations([task.config for task in pool], trainer.robot,
                                   trainer.dolly, trainer.dtype)
    q0 = curriculum.initial_q_feature(trainer.learner.critics.q1, trainer.learner.actor, obs)
    features = np.stack([world.geometric_properties(task, q) for task, q in zip(pool, q0)])
    assert np.array_equal(worker._score(pool)[2], trainer.fpi.predict(features))


def test_worker_holds_no_network_copies():
    trainer = Trainer(tiny_config(hidden=(128, 128), dtype="float32"), seed=1, robot=RobotSpec())
    _, peak = traced_peak(Worker, 0, trainer.seed, trainer)
    assert peak < 64 * 1024


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_select_task_matches_per_task_reference(dtype):
    trainer = make_trainer(dtype=dtype, candidate_pool=100)
    fast = Worker(0, 7, trainer)
    reference = Worker(0, 7, trainer)
    types = set()
    for _ in range(20):
        chosen, task_type = fast.select_task()
        task, ref_type, features, prediction = select_task_reference(reference)
        assert chosen.task == task
        assert task_type == ref_type
        assert np.array_equal(chosen.features, features)
        assert chosen.prediction == prediction
        types.add(task_type)
    assert types == {"easy", "frontier", "random"}
    assert fast.rng.bit_generator.state == reference.rng.bit_generator.state


def test_select_task_casts_pool_in_chunks_and_each_trial_once(monkeypatch):
    # a structural guard, not a timing: the pool goes through one cast per
    # START_SCAN_CHUNK tasks and every band trial through exactly one cast
    trainer = make_trainer(candidate_pool=100)
    worker = Worker(0, 7, trainer)
    sampled, casts = [0], []
    sample_task, cast_rays = world.sample_task, world.geometry.cast_rays

    def counted_sample_task(*args, **kwargs):
        sampled[0] += 1
        return sample_task(*args, **kwargs)

    def counted_cast_rays(points, *args, **kwargs):
        casts.append(len(points) if points.ndim == 3 else 1)  # scenes in this call
        return cast_rays(points, *args, **kwargs)

    monkeypatch.setattr(world, "sample_task", counted_sample_task)
    monkeypatch.setattr(world.geometry, "cast_rays", counted_cast_rays)
    selections = 20
    for _ in range(selections):
        worker.select_task()
    pool_tasks = selections * 100
    trials = sampled[0] - pool_tasks
    assert trials >= selections and sum(casts) == sampled[0]
    pool_casts = selections * math.ceil(100 / world.START_SCAN_CHUNK)
    assert len(casts) == pool_casts + trials
    assert casts.count(1) == trials


# -- distribution -----------------------------------------------------------------


def test_async_workers_all_deliver_and_counts_conserved(tmp_path):
    out = tmp_path / "async"
    trainer = make_trainer(out_dir=out, workers=4, episode_budget=24,
                           updates_per_episode=1, batch_size=8)
    trainer.train()
    assert trainer.episodes_received >= 24
    # count conservation between episode completion and PER insertion
    assert trainer.replay.inserted_total == trainer.transitions_received
    # every worker contributed and is visible in the buffer
    seen = set(trainer.replay.worker_ids[: len(trainer.replay)].tolist())
    assert seen == {0, 1, 2, 3}
    telemetry = (out / "telemetry.csv").read_text().strip().splitlines()[1:]
    rows = [line.split(",") for line in telemetry]
    assert len(rows) == trainer.episodes_received
    assert sum(int(r[3]) for r in rows) == trainer.transitions_received
    assert {int(r[1]) for r in rows} == {0, 1, 2, 3}


def test_async_training_pays_update_debt(tmp_path):
    trainer = make_trainer(out_dir=tmp_path / "debt", workers=2, episode_budget=8,
                           updates_per_episode=4, batch_size=8)
    trainer.train()
    assert len(trainer.replay) >= trainer.config.batch_size
    assert trainer.learner.n_updates == trainer.episodes_received * 4
    assert trainer.pending_updates == 0.0


def test_snapshot_versions_non_decreasing_per_worker(tmp_path):
    out = tmp_path / "versions"
    trainer = make_trainer(out_dir=out, workers=3, episode_budget=18,
                           updates_per_episode=1, batch_size=8)
    trainer.train()
    telemetry = (out / "telemetry.csv").read_text().strip().splitlines()[1:]
    per_worker = {}
    for line in telemetry:
        parts = line.split(",")
        per_worker.setdefault(int(parts[1]), []).append(int(parts[6]))
    for versions in per_worker.values():
        assert versions == sorted(versions)


def test_finished_trainer_freed_without_cycle_collection(tmp_path):
    # a process that trains one trainer after another (one per seed) must not
    # keep the finished ones, replay included, until a full collection
    gc.disable()
    try:
        trainer = make_trainer(out_dir=tmp_path / "run", episode_budget=2, batch_size=8)
        trainer.train()
        ref = weakref.ref(trainer)
        del trainer
        assert ref() is None
    finally:
        gc.enable()


def desk_trainer(out_dir=None):
    """A trainer of the desk learner's sizes (524 observations, batches of
    256, two hidden layers of 128, float32), its replay filled with 300
    random transitions, so each update pairs its critics' passes."""
    config = RunConfig(variant="random_starts", workers=1, replay_capacity=1024, batch_size=256,
                       hidden=(128, 128), dtype="float32")
    trainer = Trainer(config, seed=7, out_dir=out_dir)
    push_random_episodes(trainer.replay, np.random.default_rng(8), [100, 100, 100])
    return trainer


def test_desk_trainer_freed_after_the_helper_ran_its_jobs():
    # the helper thread keeps nothing of its last job, so the critics whose
    # passes it ran die with the trainer
    gc.disable()
    try:
        trainer = desk_trainer()
        assert trainer.run_update() and trainer.run_update()
        refs = [weakref.ref(obj) for obj in (trainer, trainer.learner, trainer.learner.critics)]
        del trainer
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("poisoned", ["q1", "q2"])
def test_abort_checkpoint_holds_the_serial_orders_state(tmp_path, poisoned):
    files = []
    for run in ("paired", "reference"):
        trainer = desk_trainer(out_dir=tmp_path / run)
        if run == "reference":
            learner = trainer.learner
            trainer.learner.update = lambda *batch: sac_update_reference(learner, *batch)
        assert trainer.run_update()
        getattr(trainer.learner.critics, poisoned).weights[0][0, 0] = np.nan
        with pytest.raises(GradientError):
            trainer.run_update()
        trainer.close_logs()
        files.append((tmp_path / run / "abort.ckpt").read_bytes())
    assert files[0] == files[1]


def test_idle_when_buffer_below_batch():
    trainer = make_trainer(batch_size=4096, replay_capacity=4096)
    assert trainer.run_update() is False
    assert trainer.learner.n_updates == 0


def test_trainer_validates_a_config_built_in_python():
    with pytest.raises(ConfigError) as err:
        Trainer(RunConfig(p_easy=0.5, p_frontier=0.5, p_random=0.5, batch_size=4096,
                          replay_capacity=1024), seed=1)
    message = str(err.value)
    assert "probabilities must sum to 1" in message
    assert "batch_size must not exceed run.replay_capacity" in message


def test_trainer_rejects_a_negative_seed_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(orchestrator, "SacLearner", refuse)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        Trainer(tiny_config(), seed=-1)


def test_fpi_batch_flush():
    trainer = make_trainer(episode_budget=9, result_batch_size=4, batch_size=8)
    trainer.train()
    assert trainer.fpi.adam.step_count == 2  # 9 results: two full batches of 4
    assert len(trainer.result_set) == 1


def test_random_starts_variant_bypasses_curriculum(tmp_path):
    out = tmp_path / "rnd"
    trainer = make_trainer(out_dir=out, variant="random_starts", episode_budget=6,
                           batch_size=8)
    trainer.train()
    assert trainer.fpi.adam.step_count == 0
    rows = (out / "curriculum.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[1] == "random" for row in rows)
    assert all(row.split(",")[7] == "" for row in rows)  # no f_pi prediction


# -- checkpointing -----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    for workers in (1, 3):
        # stopped mid-run (with 3 workers, mid-turn)
        config = tiny_config(episode_budget=6, batch_size=8, workers=workers)
        trainer = Trainer(config, seed=1, robot=TINY_ROBOT)
        trainer.train(max_new_episodes=4)
        path = tmp_path / f"state{workers}.ckpt"
        save_checkpoint(trainer, path)
        restored = restore_checkpoint(path, config)
        assert actor_bytes(trainer) == actor_bytes(restored)
        for a, b in zip(trainer.learner.critics.q1.parameters(),
                        restored.learner.critics.q1.parameters()):
            assert np.array_equal(a, b)
        assert restored.learner.n_updates == trainer.learner.n_updates
        assert restored.episodes_received == trainer.episodes_received
        assert len(restored.replay) == len(trainer.replay)
        assert np.array_equal(restored.replay.tree.nodes, trainer.replay.tree.nodes)
        # save, restore, save again: the same bytes
        again = tmp_path / f"again{workers}.ckpt"
        save_checkpoint(restored, again)
        assert again.read_bytes() == path.read_bytes()


def test_layer_views_stay_bound_to_their_own_flat(tmp_path):
    config = tiny_config(episode_budget=4, batch_size=8, target_update_interval=1)
    trainer = Trainer(config, seed=1, robot=TINY_ROBOT)
    trainer.train()
    path = tmp_path / "state.ckpt"
    save_checkpoint(trainer, path)
    restored = restore_checkpoint(path, config)
    actor = actor_from_checkpoint(path, dtype=np.float64)

    obs, act = trainer.replay.obs[:8], trainer.replay.actions[:8]
    for policy in (restored.learner.actor, actor):
        for o in obs:
            a, logp = policy.act(o, rng=np.random.default_rng(3))
            b, logq = trainer.learner.actor.act(o, rng=np.random.default_rng(3))
            assert a.tobytes() == b.tobytes() and logp == logq
    x = np.concatenate([obs, act], axis=1)
    assert (restored.learner.critics.q1.forward(x).tobytes()
            == trainer.learner.critics.q1.forward(x).tobytes())

    nets = [*orchestrator._networks(trainer).values(), *orchestrator._networks(restored).values(),
            actor.net]
    for net in nets:
        for view in [*net.weights, *net.biases]:
            assert [np.shares_memory(view, other.flat) for other in nets] == [
                other is net for other in nets]

    for t in (trainer, restored):
        critics = t.learner.critics
        critics.hard_update()
        for net, target in ((critics.q1, critics.target_q1), (critics.q2, critics.target_q2)):
            kept = target.flat.copy()
            net.flat[:] = 0.0
            assert target.flat.tobytes() == kept.tobytes()


def test_checkpoint_restores_whole_sum_tree(tmp_path):
    # a partly filled replay: restore rebuilds every internal sum
    trainer = make_trainer(episode_budget=3, batch_size=8)
    trainer.train()
    tree = trainer.replay.tree
    assert 0 < len(trainer.replay) < tree.capacity
    path = tmp_path / "tree.ckpt"
    save_checkpoint(trainer, path)
    restored = restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8)).replay.tree
    assert restored.nodes.tobytes() == tree.nodes.tobytes()
    assert restored.max_leaf == tree.max_leaf


def test_restore_then_updates_matches_uninterrupted(tmp_path):
    # reference: train 4 episodes, then 10 more updates
    ref = make_trainer(episode_budget=4, batch_size=8)
    ref.train()
    path = tmp_path / "mid.ckpt"
    save_checkpoint(ref, path)
    for _ in range(10):
        assert ref.run_update()

    resumed = restore_checkpoint(path, tiny_config(episode_budget=4, batch_size=8))
    for _ in range(10):
        assert resumed.run_update()
    assert actor_bytes(ref) == actor_bytes(resumed)
    assert np.array_equal(ref.replay.tree.nodes, resumed.replay.tree.nodes)


@pytest.mark.parametrize("workers, interrupt_at, capacity", [
    pytest.param(1, 3, 1024, id="1-3"),
    pytest.param(3, 4, 1024, id="3-4"),
    pytest.param(3, None, 1024, id="3-untrained"),
    pytest.param(1, 3, 16, id="1-3-wrapped"),
])
def test_resume_training_matches_uninterrupted(tmp_path, workers, interrupt_at, capacity):
    config = dict(episode_budget=6, batch_size=8, workers=workers, replay_capacity=capacity)
    # uninterrupted: 6 episodes in one go
    full = make_trainer(out_dir=tmp_path / "full", **config)
    full.train()
    # interrupted: checkpoint mid-run (with 3 workers, mid-turn) or before any
    # train() call, restore into the same run directory, finish
    out = tmp_path / "resumed"
    first = make_trainer(out_dir=out, **config)
    if interrupt_at is not None:
        first.train(max_new_episodes=interrupt_at)
    first.close_logs()
    if capacity == 16:
        assert first.replay.inserted_total > capacity  # the ring wrapped before the checkpoint
    path = tmp_path / "resume.ckpt"
    save_checkpoint(first, path)
    second = restore_checkpoint(path, tiny_config(**config), out_dir=out)
    second.train()
    assert second.episodes_received == 6
    assert actor_bytes(full) == actor_bytes(second)
    n = len(full.replay)
    assert second.replay.worker_ids[:n].tolist() == full.replay.worker_ids[:n].tolist()
    assert second.replay.next_obs.tobytes() == full.replay.next_obs.tobytes()
    for name in ("telemetry.csv", "curriculum.csv"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def push_random_episodes(replay, rng, lengths):
    for k, steps in enumerate(lengths):
        replay.push_episode(Episode(
            worker_id=k % 3, task_type="random", features=np.zeros(5),
            fpi_prediction=float("nan"), observations=rng.normal(size=(steps + 1, replay.obs.shape[1])),
            actions=rng.uniform(-1, 1, size=(steps, 2)), rewards=rng.normal(size=steps),
            terminals=rng.random(steps) < 0.2, success=False, snapshot_version=0))


def test_checkpoint_keeps_side_table_that_straddles_the_wrap(tmp_path):
    # the last episode held crosses the end of the slot ring, and the side
    # table's own ring of final observations wraps too
    config = tiny_config(replay_capacity=64, batch_size=8)
    trainer = Trainer(config, seed=1, robot=TINY_ROBOT)
    replay, rng = trainer.replay, np.random.default_rng(3)
    push_random_episodes(replay, rng, [5] * 10)
    for _ in range(200):
        push_random_episodes(replay, rng, [6])
        if 0 < replay.cursor < 6 and replay._final_head + replay.final_count > len(replay._finals):
            break
    assert 0 < replay.cursor < 6 and replay._final_head + replay.final_count > len(replay._finals)
    path = tmp_path / "wrapped.ckpt"
    save_checkpoint(trainer, path)
    restored = restore_checkpoint(path, config)
    n = len(replay)
    source, back = checkpoint_arrays(trainer, n), checkpoint_arrays(restored, n)
    assert list(back) == list(source) and len(back["replay.final_obs"]) == replay.final_count > 0
    for name, arr in source.items():
        assert back[name].tobytes() == arr.tobytes(), name
    again = tmp_path / "again.ckpt"
    save_checkpoint(restored, again)
    assert again.read_bytes() == path.read_bytes()
    # both go on alike, before and after pushes that drop the oldest episodes
    for more in ([], [3, 1, 7, 2], [30, 40]):
        for t in (trainer, restored):
            push_random_episodes(t.replay, np.random.default_rng(len(more)), more)
        assert restored.replay.next_obs.tobytes() == replay.next_obs.tobytes()
        got = restored.replay.sample(32, 0.5, np.random.default_rng(4))
        want = replay.sample(32, 0.5, np.random.default_rng(4))
        for key in want[0]:
            assert got[0][key].tobytes() == want[0][key].tobytes(), key
        assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


def test_second_train_call_appends_to_logs(tmp_path):
    once = make_trainer(out_dir=tmp_path / "once", episode_budget=6, batch_size=8)
    once.train()
    out = tmp_path / "twice"
    twice = make_trainer(out_dir=out, episode_budget=6, batch_size=8, checkpoint_interval=2)
    twice.train(max_new_episodes=3)
    twice.train(max_new_episodes=3)
    assert twice.episodes_received == 6
    for name in ("telemetry.csv", "curriculum.csv"):
        assert (out / name).read_bytes() == (tmp_path / "once" / name).read_bytes()
    # the logs hold every row the second call's checkpoint counts
    restored = restore_checkpoint(out / "episode_6.ckpt",
                                  tiny_config(episode_budget=6, batch_size=8), out_dir=out)
    restored.close_logs()
    assert restored.episodes_received == 6


def test_resume_rejects_logs_shorter_than_checkpoint(tmp_path):
    out = tmp_path / "run"
    trainer = make_trainer(out_dir=out, episode_budget=3, batch_size=8)
    trainer.train()
    path = out / "final.ckpt"
    save_checkpoint(trainer, path)
    curriculum_log = out / "curriculum.csv"
    curriculum_log.write_bytes(b"".join(curriculum_log.read_bytes().splitlines(True)[:3]))
    logs = {name: (out / name).read_bytes() for name in ("telemetry.csv", "curriculum.csv")}
    with pytest.raises(CheckpointError, match="2 rows, fewer than the checkpoint's 3"):
        restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8), out_dir=out)
    assert {name: (out / name).read_bytes() for name in logs} == logs


def test_logs_flushed_before_periodic_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "run"
    rows_at_save = []
    save = orchestrator.save_checkpoint

    def counting_save(trainer, path):
        rows_at_save.append([len((out / name).read_bytes().splitlines()) - 1
                             for name in ("telemetry.csv", "curriculum.csv")])
        save(trainer, path)

    monkeypatch.setattr(orchestrator, "save_checkpoint", counting_save)
    trainer = make_trainer(out_dir=out, episode_budget=4, batch_size=8, checkpoint_interval=2)
    trainer.train()
    assert rows_at_save == [[2, 2], [4, 4]]


def test_corrupted_checkpoint_rejected(tmp_path):
    trainer = make_trainer(episode_budget=2, batch_size=8)
    trainer.train()
    path = tmp_path / "c.ckpt"
    save_checkpoint(trainer, path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0x55
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        restore_checkpoint(path, tiny_config())


def test_structural_mismatch_rejected(tmp_path):
    trainer = make_trainer(episode_budget=2, batch_size=8)
    trainer.train()
    path = tmp_path / "s.ckpt"
    save_checkpoint(trainer, path)
    with pytest.raises(CheckpointError, match="actor layout mismatch"):
        restore_checkpoint(path, tiny_config(hidden=(24,)))
    with pytest.raises(CheckpointError,
                       match="variant mismatch: checkpoint navacl_q vs config random_starts"):
        restore_checkpoint(path, tiny_config(variant="random_starts"))
    # every file the trainer writes holds each worker's RNG stream
    meta, arrays = read_checkpoint(path)
    write_checkpoint(path, {k: v for k, v in meta.items() if k != "worker0_rng"}, arrays)
    with pytest.raises(CheckpointError, match="worker count mismatch: checkpoint 0 vs config 1"):
        restore_checkpoint(path, tiny_config())


@pytest.mark.parametrize("key, value", [
    ("robot", None), ("seed", "1"), ("replay.size", 1.5), ("adam", None),
    ("pending_updates", 3), ("master_rng", "PCG64"), ("worker0_rng", []),
    # a negative counter, checked before any destination is built or log opened
    ("replay.size", -3), ("replay.cursor", -3), ("episodes_received", -1),
    ("pending_updates", -0.5),
    # a callable value rewrites the saved entry
    pytest.param("robot", lambda robot: {**robot, "wheels": 4}, id="robot-unknown_field"),
    pytest.param("dolly", lambda dolly: {**dolly, "wheels": 4}, id="dolly-unknown_field"),
    pytest.param("master_rng", lambda state: {"bit_generator": state["bit_generator"]},
                 id="master_rng-no_state"),
    pytest.param("worker0_rng", lambda state: {**state, "state": {"state": 1}},
                 id="worker0_rng-short_state"),
])
def test_restore_rejects_missing_or_mistyped_metadata(tmp_path, key, value):
    out = tmp_path / "run"
    trainer = make_trainer(out_dir=out, episode_budget=3, batch_size=8)
    trainer.train()
    path = out / "final.ckpt"
    save_checkpoint(trainer, path)
    meta, arrays = read_checkpoint(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value(meta[key]) if callable(value) else value
    write_checkpoint(path, meta, arrays)
    logs = {name: (out / name).read_bytes() for name in ("telemetry.csv", "curriculum.csv")}
    message = re.escape(f"{path}: checkpoint metadata ") + f".*'{key}'"
    with pytest.raises(CheckpointError, match=message):
        restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8), out_dir=out)
    assert {name: (out / name).read_bytes() for name in logs} == logs


@pytest.mark.parametrize("meta", [{"note": 1}, None], ids=["no_trainer_keys", "no_meta"])
def test_restore_rejects_checkpoint_without_trainer_metadata(tmp_path, meta):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, meta, {"w": np.zeros(3)})
    message = re.escape(f"{path}: checkpoint metadata has no dict 'robot'")
    with pytest.raises(CheckpointError, match=message):
        restore_checkpoint(path, tiny_config(), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def rewrite_array(path, name, change):
    """Re-write a checkpoint with ``change`` applied to one of its arrays."""
    meta, arrays = read_checkpoint(path)
    arrays[name] = change(arrays[name])
    write_checkpoint(path, meta, arrays)


def narrow_rewards(path):
    rewrite_array(path, "replay.rewards", lambda a: a.astype(np.float32))


@pytest.mark.parametrize("mismatch", [dict(hidden=(24,)), dict(dtype="float32"),
                                      dict(workers=2), dict(replay_capacity=1, batch_size=1),
                                      dict(variant="random_starts"), narrow_rewards],
                         ids=["hidden", "dtype", "workers", "replay", "variant", "array"])
def test_rejected_restore_leaves_run_logs_untouched(tmp_path, mismatch):
    out = tmp_path / "run"
    trainer = make_trainer(out_dir=out, episode_budget=3, batch_size=8)
    trainer.train()
    path = out / "final.ckpt"
    save_checkpoint(trainer, path)
    overrides = {"episode_budget": 3, "batch_size": 8}
    if callable(mismatch):
        mismatch(path)
    else:
        overrides.update(mismatch)
    logs = {name: (out / name).read_bytes() for name in ("telemetry.csv", "curriculum.csv")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(CheckpointError, match="mismatch"):
            restore_checkpoint(path, tiny_config(**overrides), out_dir=out)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert {name: (out / name).read_bytes() for name in logs} == logs


@pytest.mark.parametrize("name, change", [
    ("replay.rewards", lambda a: a.astype(np.float32)),
    ("replay.obs", lambda a: a[:-1]),
], ids=["dtype", "rows"])
def test_restore_rejects_mismatched_replay_array(tmp_path, name, change):
    trainer = make_trainer(episode_budget=3, batch_size=8)
    trainer.train()
    path = tmp_path / "bad.ckpt"
    save_checkpoint(trainer, path)
    rewrite_array(path, name, change)
    with pytest.raises(CheckpointError, match=rf"array {name} mismatch"):
        restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8))


def test_restore_rejects_episode_ends_without_their_final_observations(tmp_path):
    trainer = make_trainer(episode_budget=3, batch_size=8)
    trainer.train()
    path = tmp_path / "ends.ckpt"
    save_checkpoint(trainer, path)

    def drop_oldest_end(ends):
        ends = ends.copy()
        ends[np.argmax(ends)] = False
        return ends

    rewrite_array(path, "replay.ends", drop_oldest_end)
    with pytest.raises(CheckpointError, match="2 episode ends but 3 final observations"):
        restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8))


def test_actor_from_checkpoint_matches(tmp_path):
    trainer = make_trainer(episode_budget=2, batch_size=8)
    trainer.train()
    path = tmp_path / "a.ckpt"
    save_checkpoint(trainer, path)
    actor = actor_from_checkpoint(path, dtype=np.float64)
    obs = np.random.default_rng(0).uniform(0, 1, trainer.obs_dim)
    a1, _ = trainer.learner.actor.act(obs, mode="mean")
    a2, _ = actor.act(obs, mode="mean")
    assert np.allclose(a1, a2, atol=1e-12)


def test_restore_into_smaller_replay_rejected(tmp_path):
    trainer = make_trainer(episode_budget=3, batch_size=8)
    trainer.train()
    n = len(trainer.replay)
    path = tmp_path / "big.ckpt"
    save_checkpoint(trainer, path)
    small = 1 << (n.bit_length() - 1)  # the largest power of two below n
    assert small < n
    with pytest.raises(CheckpointError, match=f"{n} transitions.*replay_capacity is {small}"):
        restore_checkpoint(path, tiny_config(episode_budget=3, batch_size=8,
                                             replay_capacity=small))


def test_restore_of_wrapped_ring_into_larger_replay_rejected(tmp_path):
    # the episode that crosses the end of the ring takes slot 63's next
    # observation from slot 0, where a larger ring would read slot 64
    config = tiny_config(replay_capacity=64, batch_size=8)
    trainer = Trainer(config, seed=1, robot=TINY_ROBOT)
    replay = trainer.replay
    push_random_episodes(replay, np.random.default_rng(3), [5] * 14)
    assert replay.inserted_total == 70 and replay.cursor == 6
    assert replay.ends[0] and not replay.ends[63]
    path = tmp_path / "wrapped.ckpt"
    save_checkpoint(trainer, path)
    with pytest.raises(CheckpointError, match="holds 64 transitions at cursor 6 of a filled "
                                              "ring, config replay_capacity is 128"):
        restore_checkpoint(path, tiny_config(replay_capacity=128, batch_size=8))
    same = restore_checkpoint(path, config)
    assert same.replay.next_obs.tobytes() == replay.next_obs.tobytes()


def test_restore_of_filled_ring_into_larger_replay_rejected(tmp_path):
    # a ring filled exactly has not wrapped, but its next push overwrites
    # slot 0: in a larger ring the slots past 64 would stay empty while
    # ``size`` counted them, and the IS weights would use that size
    config = tiny_config(replay_capacity=64, batch_size=8)
    trainer = Trainer(config, seed=1, robot=TINY_ROBOT)
    replay, rng = trainer.replay, np.random.default_rng(3)
    push_random_episodes(replay, rng, [5] * 12)
    part = tmp_path / "part.ckpt"
    save_checkpoint(trainer, part)  # 60 of 64 slots: restores into any ring that holds them
    grown = restore_checkpoint(part, tiny_config(replay_capacity=128, batch_size=8)).replay
    assert (grown.size, grown.cursor) == (60, 60)
    push_random_episodes(replay, rng, [4])
    assert replay.inserted_total == replay.size == 64 and replay.cursor == 0
    path = tmp_path / "filled.ckpt"
    save_checkpoint(trainer, path)
    with pytest.raises(CheckpointError, match="holds 64 transitions at cursor 0 of a filled "
                                              "ring, config replay_capacity is 128"):
        restore_checkpoint(path, tiny_config(replay_capacity=128, batch_size=8))
    same = restore_checkpoint(path, config).replay
    push_random_episodes(same, rng, [5])
    assert (same.size, same.cursor, np.count_nonzero(same.tree.leaves())) == (64, 5, 64)


def filled_trainer(capacity=1 << 12):
    """A trainer with the full-size robot whose replay holds ``capacity``
    random transitions and no episode end, so an empty side table."""
    trainer = Trainer(tiny_config(replay_capacity=capacity), seed=1, robot=RobotSpec())
    replay = trainer.replay
    rng = np.random.default_rng(5)
    rng.random(out=replay.obs)
    replay.actions[:] = rng.uniform(-1.0, 1.0, size=replay.actions.shape)
    replay.rewards[:] = rng.uniform(-10.0, 10.0, size=capacity)
    replay.terminals[:] = rng.random(capacity) < 0.01
    replay.worker_ids[:] = rng.integers(0, 4, size=capacity)
    replay.tree.set_many(np.arange(capacity), rng.uniform(0.1, 2.0, size=capacity))
    replay.size = replay.inserted_total = capacity
    return trainer


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_checkpoint_streams_replay(tmp_path):
    trainer = filled_trainer()
    replay_bytes = trainer.replay.obs.nbytes
    path = tmp_path / "full.ckpt"
    _, peak = traced_peak(save_checkpoint, trainer, path)
    assert peak < 0.1 * replay_bytes
    restored = restore_checkpoint(path, tiny_config(replay_capacity=1 << 12))
    assert restored.replay.obs.tobytes() == trainer.replay.obs.tobytes()


def test_actor_from_checkpoint_skips_replay(tmp_path):
    trainer = filled_trainer()
    replay_bytes = trainer.replay.obs.nbytes
    path = tmp_path / "full.ckpt"
    save_checkpoint(trainer, path)
    actor, peak = traced_peak(actor_from_checkpoint, path, dtype=np.float64)
    assert peak < 0.1 * replay_bytes
    for a, b in zip(actor.net.parameters(), trainer.learner.actor.net.parameters()):
        assert a.tobytes() == b.tobytes()


def test_restore_reads_arrays_in_place(tmp_path):
    trainer = filled_trainer()
    path = tmp_path / "full.ckpt"
    save_checkpoint(trainer, path)
    restored, peak = traced_peak(restore_checkpoint, path, tiny_config(replay_capacity=1 << 12))
    replay, tree = restored.replay, restored.replay.tree
    assert replay.final_count == 0
    held = [a for a in vars(replay).values() if isinstance(a, np.ndarray)]
    replay_bytes = sum(a.nbytes for a in (*held, tree.nodes))
    assert peak <= 1.1 * replay_bytes  # one replay: a copy of obs on the way would make it 2x
    n = len(trainer.replay)
    source, back = checkpoint_arrays(trainer, n), checkpoint_arrays(restored, n)
    assert list(back) == list(source)
    for name, arr in source.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes(), name
    assert tree.nodes.tobytes() == trainer.replay.tree.nodes.tobytes()
    assert tree.max_leaf == trainer.replay.tree.max_leaf


# One phase of a round trip of a full 2^20 desk replay, run in its own process
# so its peak RSS is its own. It prints the process's figures as JSON.
FULL_REPLAY_PHASE = """
import json, resource, sys, time
import numpy as np
from docknav.orchestrator import Trainer, restore_checkpoint, save_checkpoint
from docknav.per import Episode
from _toys import desk_nav_config

phase, path = sys.argv[1], sys.argv[2]
config = desk_nav_config(seeds=(1,), workers=1, replay_capacity=2**20, step_limit=100)
start = time.perf_counter()
if phase == "save":
    trainer = Trainer(config, seed=1)
    replay, rng = trainer.replay, np.random.default_rng(0)
    while replay.inserted_total < replay.capacity + 5000:  # full, and wrapped
        steps = int(rng.integers(20, 500))
        replay.push_episode(Episode(
            worker_id=0, task_type="random", features=np.zeros(5), fpi_prediction=float("nan"),
            observations=rng.random((steps + 1, replay.obs.shape[1]), dtype=np.float32),
            actions=rng.uniform(-1, 1, (steps, 2)), rewards=rng.normal(size=steps),
            terminals=np.arange(steps) == steps - 1, success=False, snapshot_version=0))
    start = time.perf_counter()
    save_checkpoint(trainer, path)
else:
    trainer = restore_checkpoint(path, config)
    restored = time.perf_counter()
    trainer.train(max_new_episodes=3)
replay = trainer.replay
print(json.dumps({
    "seconds": (restored if phase == "restore" else time.perf_counter()) - start,
    "live_bytes": sum(a.nbytes for a in (*vars(replay).values(), *vars(replay.tree).values())
                      if isinstance(a, np.ndarray)),
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    "size": len(replay), "episodes_held": replay.final_count,
    "episodes_received": trainer.episodes_received,
}))
"""


@pytest.mark.longrun
def test_full_2_20_replay_saves_restores_and_resumes(tmp_path):
    # a replay at the README's largest capacity fits here: each phase's peak
    # RSS stays within the replay it holds plus 10%
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    path = tmp_path / "full.ckpt"
    try:
        runs = {}
        for phase in ("save", "restore"):  # one process at a time
            done = subprocess.run([sys.executable, "-c", FULL_REPLAY_PHASE, phase, str(path)],
                                  env=env, capture_output=True, text=True, timeout=1200)
            assert done.returncode == 0, done.stderr
            runs[phase] = json.loads(done.stdout.splitlines()[-1])
            if phase == "save":
                runs[phase]["file_bytes"] = path.stat().st_size
        print(json.dumps(runs))
    finally:
        path.unlink(missing_ok=True)
    for run in runs.values():
        assert run["size"] == 2**20 and run["episodes_held"] > 0
        assert run["peak_rss_bytes"] <= 1.1 * run["live_bytes"]
    assert runs["restore"]["episodes_received"] == 3
    assert runs["save"]["file_bytes"] < 1.01 * runs["save"]["live_bytes"]
