"""The benchmark workloads, driven through docknav's public API from outside.

Each workload builds its inputs from the seed alone, measures closed-loop
rounds in this one process until the time budget is spent, and checks every
round's outputs. A round that raises or fails a check counts all of its
operations as failed.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CONFIG = ROOT / "configs" / "desk_nav.ini"

MODULES = ("config", "world", "geometry", "nn", "sac", "per", "curriculum",
           "orchestrator", "grid_eval")
SETUP_REPEATS = 7
# Episodes per round: a sync round holds one success-predictor batch, so a run
# spans several trainer seeds; an async round is one longer training, because
# its master ingests in bursts and shorter rounds are dominated by the first.
SYNC_EPISODES = 16
ASYNC_EPISODES = 32
# desk_nav.ini allows 500 steps. An untrained policy's episodes last anywhere
# from 3 to 500 steps, and that seed-dependent mix, not the code, would then
# decide episodes/s; 100 steps keeps the rollout share and lets rounds of
# several trainer seeds fit in one run.
TRAIN_STEP_LIMIT = 100
GRID = {"grid_extent": 0.5, "grid_cell": 0.5, "repeats": 2}  # 2 x 2 cells
CKPT_WARM_UPDATES = 4  # gives the checkpoint non-zero Adam state and priorities
# At the default 2^17 replay a round trip peaks at about 3.8 GB resident and
# writes a 1.1 GB file, more than a shared host reliably grants; 2^15 keeps
# the replay the bulk of the checkpoint at a quarter of that.
CKPT_REPLAY_CAPACITY = 2**15
PROBE_REF_S = 1e-3  # probe duration that defines one reference second
IO_PROBE_REF_S = 50e-3  # the same for the checkpoint rounds' page-fault and I/O probe
IO_PROBES = 3  # I/O probes before and after each checkpoint round trip
PROBE_EVERY_STEPS = 100  # grid rounds probe the host this often


def import_docknav() -> dict:
    """A fresh import of docknav (and its CLI) from this checkout's src tree."""
    for name in [m for m in sys.modules if m == "docknav" or m.startswith("docknav.")]:
        del sys.modules[name]
    importlib.import_module("docknav.cli")
    mods = {name: sys.modules[f"docknav.{name}"] for name in MODULES}
    if not Path(mods["world"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"docknav resolved outside {SRC}: {mods['world'].__file__}")
    return mods


def sub_seed(seed: int, index: int) -> int:
    """The trainer seed of round ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; (0, 0) when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return 0.0, 0.0
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _bit_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Same dtype, shape and bytes; hashing avoids copying replay-sized arrays."""
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).view(np.uint8)).digest()
    return x.dtype == y.dtype and x.shape == y.shape and digest(x) == digest(y)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Times a fixed reference computation: small matrix products and Python
    arithmetic, like the rollout and update code.

    This host's speed alternates by about 1.4x in spells of seconds to
    minutes, whatever runs. Dividing a measured time by the probe's slowdown
    over the same stretch turns it into reference seconds (a host on which
    the probe takes ``PROBE_REF_S``): the spells drop out, and a slower
    program still reads slower.
    """

    ref_s = PROBE_REF_S
    average = staticmethod(statistics.fmean)

    def __init__(self):
        self._a = np.random.default_rng(0).random((32, 32))
        self.durations: list[float] = []
        self._mark = 0

    def sample(self) -> float:
        t0 = time.perf_counter()
        a = self._a
        for _ in range(120):
            a = np.tanh(a @ self._a * 0.01)
            sum(range(20))
        elapsed = time.perf_counter() - t0
        self.durations.append(elapsed)
        return elapsed

    def take(self) -> tuple[float, float]:
        """(slowdown, seconds spent probing) over the samples since the last take."""
        recent = self.durations[self._mark:] or [self.sample()]
        self._mark = len(self.durations)
        return self.average(recent) / self.ref_s, sum(recent)


class IoProbe(HostProbe):
    """Times fresh 16 MB mappings filled and copied, then a 4 MB file written
    and read back: the page faults and file I/O that a checkpoint round trip
    is made of. Their speed alternates with the host's but not in step with
    the arithmetic of :class:`HostProbe`."""

    ref_s = IO_PROBE_REF_S
    average = staticmethod(statistics.median)  # now and then one sample hits a stall

    def __init__(self, scratch: Path):
        super().__init__()
        self.path = scratch / "io-probe.bin"
        self._bytes = bytes(4 << 20)

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            a = np.empty(2**21)
            a.fill(1.0)
            a.copy()
        self.path.write_bytes(self._bytes)
        self.path.read_bytes()
        self.path.unlink()
        elapsed = time.perf_counter() - t0
        self.durations.append(elapsed)
        return elapsed


@dataclass
class Measurement:
    """One pass over a workload: timed rounds, failures, and the
    workload-level numbers reported under ``run.*``."""

    ops: int = 0
    op_time: float = 0.0  # seconds inside the measured calls
    ref_time: float = 0.0  # the same in reference seconds
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    run: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    wall: float = 0.0

    def sample(self, ops: int, seconds: float, slowdown: float) -> None:
        self.ops += ops
        self.op_time += seconds
        self.ref_time += seconds / slowdown

    @property
    def ops_per_s(self) -> float:
        """Ops per reference second, totalled over the run."""
        return self.ops / self.ref_time if self.ref_time > 0 else 0.0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


class Workload:
    name = ""
    repeat_rounds: tuple[int, ...] = ()  # rounds run again once the time is spent

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.mods: dict = {}
        self.cfg = None
        self.setup_times: list[float] = []
        self.probe = HostProbe()

    # -- set-up --------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed input generation that set-up reads (e.g. a checkpoint)."""

    def build(self):
        """The object whose construction set-up times."""
        raise NotImplementedError

    def release(self, built) -> None:
        """Free what :meth:`build` made."""

    def setup(self) -> None:
        """Untimed inputs, then the first set-up samples."""
        self.mods = import_docknav()
        self.prepare()
        for _ in range(SETUP_REPEATS):
            self.time_setup()

    def time_setup(self) -> None:
        """One sample of import, config parse and construction."""
        self.probe.sample()
        t0 = time.perf_counter()
        self.mods = import_docknav()
        self.cfg = self.configure(self.mods["config"].parse_config(CONFIG))
        built = self.build()
        elapsed = time.perf_counter() - t0
        self.probe.sample()
        self.setup_times.append(elapsed / self.probe.take()[0])
        self.release(built)
        gc.collect()  # the replaced modules form cycles; free them before measuring

    @property
    def setup_s(self) -> float:
        """Median set-up time, in reference seconds."""
        return statistics.median(self.setup_times)

    def configure(self, cfg):
        return cfg

    # -- measurement -----------------------------------------------------------

    def notes(self) -> dict:
        """Per-span observers for the traced pass."""
        return {}

    def measure(self, seconds: float, traced: bool) -> Measurement:
        m = Measurement()
        self.begin(m, traced)
        t0 = time.perf_counter()
        rounds = 0
        # a round is indivisible: start one only while it is expected to end
        # less than half a round past the budget
        while rounds == 0 or (time.perf_counter() - t0) * (1 + 0.5 / rounds) < seconds:
            self.round(m, rounds)
            rounds += 1
        for index in self.repeat_rounds:
            self.round(m, index)
        m.wall = time.perf_counter() - t0
        self.finish(m)
        m.run["run.failed_frac"] = m.failed / m.attempted if m.attempted else 1.0
        return m

    def begin(self, m: Measurement, traced: bool) -> None:
        pass

    def round(self, m: Measurement, index: int) -> None:
        """Round ``index``: run it, record its sample, check its outputs."""
        raise NotImplementedError

    def finish(self, m: Measurement) -> None:
        pass

    def round_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))


class TrainWorkload(Workload):
    """A fresh trainer per round, trained for a fixed episode budget; round
    ``index`` seeds it with ``sub_seed(seed, index)``, so a run averages over
    several trainer seeds."""

    workers = 1
    episodes = SYNC_EPISODES

    def configure(self, cfg):
        return self.mods["config"].config_overrides(
            cfg, workers=self.workers, episode_budget=self.episodes,
            step_limit=TRAIN_STEP_LIMIT, seeds=(self.seed,))

    def build(self, index: int = 0):
        return self.mods["orchestrator"].Trainer(self.cfg, seed=sub_seed(self.seed, index),
                                                  out_dir=self.round_dir())

    def release(self, trainer) -> None:
        trainer.close_logs()
        shutil.rmtree(trainer.out_dir, ignore_errors=True)

    def notes(self) -> dict:
        # publishes between the snapshot an episode was produced under and its ingest
        return {"orchestrator.ingest":
                lambda trainer, episode: trainer.snapshot_version - episode.snapshot_version}

    def begin(self, m: Measurement, traced: bool) -> None:
        self.episode_ms: list[float] = []
        self.digests: dict[int, str] = {}
        self.totals = dict(episodes=0, steps=0, updates=0, owed=0)

    def round(self, m: Measurement, index: int) -> None:
        trainer = self.build(index)
        losses: list[dict] = []
        stamps: list[float] = []
        update = trainer.learner.update

        def recording_update(*args, **kwargs):
            td_abs, metrics = update(*args, **kwargs)
            losses.append(metrics)
            return td_abs, metrics

        # the end of one episode's cycle: publish (sync) or ingest (async)
        hook = "_publish_snapshot" if self.workers == 1 else "_ingest_episode"
        inner = getattr(trainer, hook)

        def stamped(*args, **kwargs):
            inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            if self.workers == 1:  # with rollout threads the probe would time the GIL
                self.probe.sample()

        trainer.learner.update = recording_update
        setattr(trainer, hook, stamped)
        self.probe.take()
        try:
            t0 = time.perf_counter()
            trainer.train()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising round is a failed round
            trainer.close_logs()
            count = max(1, trainer.episodes_received + trainer.learner.n_updates)
            m.attempted += count
            m.fail(count, f"round {index} raised {exc!r}")
            return
        finally:
            del trainer.learner.update
            delattr(trainer, hook)

        episodes = trainer.episodes_received
        updates = trainer.learner.n_updates
        owed = episodes * self.cfg.updates_per_episode
        slowdown, probing = self.probe.take()
        m.sample(episodes, elapsed - probing, slowdown)
        m.attempted += episodes + updates
        self.episode_ms.extend(np.diff([t0] + stamps) * 1e3)  # probes included: ~1 ms each
        t = self.totals
        t["episodes"] += episodes
        t["steps"] += trainer.transitions_received
        t["updates"] += updates
        t["owed"] += owed
        problems = self.check(trainer, losses, episodes, updates, owed, index)
        if problems:
            m.fail(episodes + updates, f"round {index}: " + "; ".join(problems))
        shutil.rmtree(trainer.out_dir, ignore_errors=True)

    def check(self, trainer, losses, episodes, updates, owed, index) -> list[str]:
        problems = []
        with open(trainer.out_dir / "telemetry.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        steps = sum(int(r["steps"]) for r in rows)
        if len(rows) != episodes:
            problems.append(f"{len(rows)} telemetry rows for {episodes} episodes")
        replay = trainer.replay
        if not replay.inserted_total == trainer.transitions_received == steps:
            problems.append(f"transitions not conserved: replay {replay.inserted_total}, "
                            f"received {trainer.transitions_received}, telemetry {steps}")
        if not all(math.isfinite(v) for metrics in losses for v in metrics.values()):
            problems.append("non-finite SAC loss")
        if len(losses) != updates:
            problems.append(f"{len(losses)} learner updates seen, trainer counted {updates}")
        problems.extend(self.check_mode(trainer, episodes, updates, owed, index))
        return problems

    def finish(self, m: Measurement) -> None:
        t = self.totals
        pct, tail_ms = tail(self.episode_ms)
        m.run.update({
            "run.episodes_per_s": t["episodes"] / m.op_time if m.op_time else 0.0,
            "run.env_steps_per_s": t["steps"] / m.op_time if m.op_time else 0.0,
            "run.updates_per_s": t["updates"] / m.op_time if m.op_time else 0.0,
            "run.update_ratio": t["updates"] / t["owed"] if t["owed"] else 0.0,
            "run.episode_ms_p50": statistics.median(self.episode_ms) if self.episode_ms else 0.0,
            "run.episode_ms_tail": tail_ms,
            "run.episode_ms_tail_pct": pct,
            "run.episode_samples": len(self.episode_ms),
            "orchestrator.update_debt": t["owed"] - t["updates"],
        })


class TrainSync(TrainWorkload):
    name = "train_sync"
    repeat_rounds = (0,)  # the telemetry digest of round 0's trainer seed must repeat

    def check_mode(self, trainer, episodes, updates, owed, index) -> list[str]:
        problems = []
        if episodes != self.episodes:
            problems.append(f"{episodes} episodes for a budget of {self.episodes}")
        if updates != owed:
            problems.append(f"{updates} updates run of {owed} owed")
        digest = hashlib.sha256()
        for name in ("telemetry.csv", "curriculum.csv"):
            digest.update((trainer.out_dir / name).read_bytes())
        if self.digests.setdefault(index, digest.hexdigest()) != digest.hexdigest():
            problems.append(f"telemetry digest of round {index}'s trainer seed did not repeat")
        return problems

    def finish(self, m: Measurement) -> None:
        super().finish(m)
        m.info["telemetry_digest"] = self.digests.get(0, "")


class TrainAsync(TrainWorkload):
    name = "train_async"
    workers = len(os.sched_getaffinity(0))
    episodes = ASYNC_EPISODES

    def check_mode(self, trainer, episodes, updates, owed, index) -> list[str]:
        problems = []
        if episodes < self.episodes:
            problems.append(f"{episodes} episodes for a budget of {self.episodes}")
        if updates > owed:
            problems.append(f"{updates} updates run of {owed} owed")
        seen = set(np.unique(trainer.replay.worker_ids[: len(trainer.replay)]).tolist())
        if seen != set(range(self.workers)):
            problems.append(f"worker ids {sorted(seen)} in the buffer, "
                            f"expected 0..{self.workers - 1}")
        return problems


class GridEval(Workload):
    """The reduced grid, evaluated again each round with the same actor."""

    name = "grid_eval"

    def prepare(self) -> None:
        cfg = self.mods["config"].parse_config(CONFIG)
        trainer = self.mods["orchestrator"].Trainer(cfg, seed=self.seed)
        self.actor_ckpt = self.scratch / "actor.ckpt"
        self.mods["orchestrator"].save_checkpoint(trainer, self.actor_ckpt)

    def build(self):
        return self.mods["orchestrator"].actor_from_checkpoint(
            self.actor_ckpt, dtype=np.dtype(self.cfg.dtype))

    def notes(self) -> dict:
        def start_episode(w, policy):
            pose = w.config.robot_start
            self.actions.append(((pose.x, pose.y, pose.yaw), []))
        return {"grid_eval.episode": start_episode}

    def begin(self, m: Measurement, traced: bool) -> None:
        ge = self.mods["grid_eval"]
        cfg = self.cfg
        self.grid = ge.GridEvalConfig(orientations_deg=cfg.orientations_deg,
                                      grid_offset=cfg.grid_offset,
                                      room_side=cfg.eval_room_side, **GRID)
        self.actor = self.build()
        self.actions: list = []
        self.recording = traced
        self.steps = 0
        self.episodes = 0
        self.invalid = 0

    def policy(self, obs):
        self.steps += 1
        if self.steps % PROBE_EVERY_STEPS == 0:
            self.probe.sample()
        action = self.actor.act(obs, mode="mean")[0]
        if self.recording:
            self.actions[-1][1].append(action.tobytes())
        return action

    def round(self, m: Measurement, index: int) -> None:
        out = self.round_dir()
        steps_before = self.steps
        self.probe.take()
        try:
            t0 = time.perf_counter()
            result = self.mods["grid_eval"].run_grid_eval(
                self.policy, self.grid, out_dir=out, step_limit=self.cfg.step_limit,
                dtype=np.dtype(self.cfg.dtype))
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising round is a failed round
            m.attempted += 1
            m.fail(1, f"round {index} raised {exc!r}")
            return
        slowdown, probing = self.probe.take()
        m.sample(self.steps - steps_before, elapsed - probing, slowdown)
        m.attempted += result.episodes_executed
        self.episodes += result.episodes_executed
        self.invalid = int((~result.valid).sum())
        problems = []
        expected = int(result.valid.sum()) * self.grid.repeats
        if result.episodes_executed != expected:
            problems.append(f"{result.episodes_executed} episodes for {expected} scheduled")
        problems.extend(self.recompute_summary(out))
        if problems:
            m.fail(result.episodes_executed, f"round {index}: " + "; ".join(problems))
        shutil.rmtree(out, ignore_errors=True)

    def recompute_summary(self, out: Path) -> list[str]:
        """Rebuild grid_summary.csv from grid_cells.csv with the harness's
        sequential arithmetic; every value must match exactly."""
        ge = self.mods["grid_eval"]
        with open(out / "grid_cells.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        with open(out / "grid_summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        expected = []
        means = {}
        for odeg in self.grid.orientations_deg:
            rows = [r for r in cells if float(r["orientation_deg"]) == odeg]
            rates = [int(r["successes"]) / int(r["episodes"]) if int(r["episodes"]) else 0.0
                     for r in rows if r["valid"] == "1"]
            means[odeg] = sum(rates) / len(rates) if rates else 0.0
            expected.append(["orientation", str(odeg), repr(means[odeg]), str(len(rates)),
                             str(len(rows) - len(rates))])

        def group(members):
            vals = [means[o] for o in self.grid.orientations_deg if o in members]
            return sum(vals) / len(vals) if vals else 0.0

        expected.append(["intrapolated", "", repr(group(ge.INTRAPOLATED)), "", ""])
        expected.append(["extrapolated", "", repr(group(ge.EXTRAPOLATED)), "", ""])
        expected.append(["all", "", repr(sum(means.values()) / len(means)), "", ""])
        got = [[r[k] for k in ge.SUMMARY_FIELDS] for r in summary]
        if got != expected:
            return ["grid_summary.csv does not recompute from grid_cells.csv"]
        return []

    def finish(self, m: Measurement) -> None:
        m.run.update({
            "run.episodes_per_s": self.episodes / m.op_time if m.op_time else 0.0,
            "run.env_steps_per_s": self.steps / m.op_time if m.op_time else 0.0,
            "grid_eval.invalid_cells": self.invalid,
        })
        if self.recording:
            seen: dict = {}
            distinct = 0
            for cell, actions in self.actions:
                sequence = b"".join(actions)
                earlier = seen.setdefault(cell, [])
                distinct += sequence not in earlier
                earlier.append(sequence)
            m.run["grid_eval.distinct_episode_frac"] = (
                distinct / len(self.actions) if self.actions else 0.0)


class Checkpoint(Workload):
    """Save and restore a trainer whose replay holds a full default capacity
    of seed-generated transitions, and compare the round trip bitwise."""

    name = "checkpoint"
    replay_capacity = CKPT_REPLAY_CAPACITY

    def configure(self, cfg):
        capacity = min(cfg.replay_capacity, self.replay_capacity or cfg.replay_capacity)
        return self.mods["config"].config_overrides(cfg, workers=1, seeds=(self.seed,),
                                                    replay_capacity=capacity)

    def build(self):
        return self.mods["orchestrator"].Trainer(self.cfg, seed=self.seed)

    def begin(self, m: Measurement, traced: bool) -> None:
        self.trainer = trainer = self.build()
        rng = np.random.default_rng(self.seed)
        replay = trainer.replay
        n = replay.capacity
        rng.random(out=replay.obs, dtype=replay.obs.dtype.type)
        rng.random(out=replay.next_obs, dtype=replay.next_obs.dtype.type)
        replay.actions[:] = rng.uniform(-1.0, 1.0, size=replay.actions.shape)
        replay.rewards[:] = rng.uniform(-10.0, 10.0, size=n)
        replay.terminals[:] = rng.random(n) < 0.01
        replay.worker_ids[:] = rng.integers(0, 4, size=n)
        replay.tree.set_many(np.arange(n), rng.uniform(0.1, 2.0, size=n))
        replay.size = replay.inserted_total = n
        replay.cursor = 0
        for _ in range(CKPT_WARM_UPDATES):
            trainer.run_update()
        self.io_probe = IoProbe(self.scratch)
        self.save_s: list[float] = []
        self.restore_s: list[float] = []
        self.file_mb = 0.0

    def round(self, m: Measurement, index: int) -> None:
        orch = self.mods["orchestrator"]
        path = self.round_dir() / "trainer.ckpt"
        m.attempted += 1
        self.io_probe.take()
        try:
            self.probe_io()
            t0 = time.perf_counter()
            orch.save_checkpoint(self.trainer, path)
            t1 = time.perf_counter()
            restored = orch.restore_checkpoint(path, self.cfg)
            t2 = time.perf_counter()
            self.probe_io()
        except Exception as exc:  # a raising round is a failed round
            m.fail(1, f"round {index} raised {exc!r}")
            return
        finally:
            self.file_mb = path.stat().st_size / 1e6 if path.exists() else self.file_mb
            shutil.rmtree(path.parent, ignore_errors=True)
        self.save_s.append(t1 - t0)
        self.restore_s.append(t2 - t1)
        # A round trip is mostly kernel time, which the arithmetic probe does
        # not track: normalised by it, per-run totals spread wider than raw.
        m.sample(1, t2 - t0, self.io_probe.take()[0])
        mismatched = self.compare(self.trainer, restored)
        if mismatched:
            m.fail(1, f"round {index}: restored state differs in {', '.join(mismatched)}")

    def probe_io(self) -> None:
        """A save or restore is one long call; probe around it instead."""
        for _ in range(IO_PROBES):
            self.io_probe.sample()

    @staticmethod
    def compare(a, b) -> list[str]:
        """Names of the state pieces that are not bit-equal after the trip."""
        pairs = {}
        for label, get in (("actor", lambda t: t.learner.actor.net),
                           ("q1", lambda t: t.learner.critics.q1),
                           ("q2", lambda t: t.learner.critics.q2),
                           ("target_q1", lambda t: t.learner.critics.target_q1),
                           ("target_q2", lambda t: t.learner.critics.target_q2),
                           ("fpi", lambda t: t.fpi.net)):
            pairs[label] = (get(a).parameters(), get(b).parameters())
        for label, get in (("adam_actor", lambda t: t.learner.adam_actor),
                           ("adam_q1", lambda t: t.learner.adam_q1),
                           ("adam_q2", lambda t: t.learner.adam_q2),
                           ("adam_alpha", lambda t: t.learner.adam_alpha),
                           ("adam_fpi", lambda t: t.fpi.adam)):
            sa, sb = get(a), get(b)
            pairs[label] = (sa.m + sa.v + [np.array(sa.step_count)],
                            sb.m + sb.v + [np.array(sb.step_count)])
        n = len(a.replay)
        for label in ("obs", "next_obs", "actions", "rewards", "terminals", "worker_ids"):
            pairs[f"replay.{label}"] = ([getattr(a.replay, label)[:n]],
                                        [getattr(b.replay, label)[:n]])
        pairs["priorities"] = ([a.replay.tree.leaves()[:n]], [b.replay.tree.leaves()[:n]])
        pairs["log_alpha"] = ([a.learner._alpha_param[0]], [b.learner._alpha_param[0]])
        pairs["counters"] = (
            [np.array([len(a.replay), a.replay.cursor, a.replay.inserted_total,
                       a.learner.n_updates])],
            [np.array([len(b.replay), b.replay.cursor, b.replay.inserted_total,
                       b.learner.n_updates])])
        return [label for label, (xs, ys) in pairs.items()
                if len(xs) != len(ys) or not all(map(_bit_equal, xs, ys))]

    def finish(self, m: Measurement) -> None:
        m.run.update({
            "run.ckpt_save_s": statistics.median(self.save_s) if self.save_s else 0.0,
            "run.ckpt_restore_s": statistics.median(self.restore_s) if self.restore_s else 0.0,
            "run.ckpt_file_mb": self.file_mb,
        })
        del self.trainer


class CheckpointFull(Checkpoint):
    """The same round trip at the configured (default 2^17) replay capacity."""

    name = "checkpoint_full"
    replay_capacity = None


WORKLOADS = {w.name: w for w in (TrainSync, TrainAsync, GridEval, Checkpoint, CheckpointFull)}
