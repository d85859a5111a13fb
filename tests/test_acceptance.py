"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantity and its tolerance.

Criteria 7 and 8 are hours-scale training experiments and carry the
``longrun`` marker (deselected by default; run with ``-m longrun``).
"""

import math
import time

import numpy as np
import pytest

from docknav import reporting
from docknav.curriculum import (
    NavAclConfig,
    SuccessPredictor,
    bce_loss,
    get_dynamic_task,
    is_easy,
    is_frontier,
)
from docknav.grid_eval import GridEvalConfig, run_grid_eval
from docknav.nn import DenseNet, net_grads_list
from docknav.orchestrator import Trainer, Worker
from docknav.per import PerConfig, PrioritizedReplay, SumTree
from docknav.sac import Actor, CriticPair, actor_loss_and_grads, alpha_loss_and_grad, critic_losses
from docknav.world import EventFlags, RobotSpec, World, compute_reward, sample_task

from _oracles import (
    finite_difference_grads,
    lidar_ray_geometry,
    raycast_oracle_many,
    relative_grad_error,
    scene_primitives,
    semantic_ray_geometry,
)
from _toys import desk_nav_config, one_step_episode, train_bandit, train_drive_to_origin

TINY_ROBOT = RobotSpec(lidar_beams_per_sensor=8, semantic_rays=4)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: geometry oracle ------------------------------------------------


def test_criterion_1_raycast_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    flag_mismatches = 0
    for _ in range(1000):
        task = sample_task(rng)
        w = World(task.config)
        segments, circles = scene_primitives(task.config)
        origins, angles = lidar_ray_geometry(w.pose, w.robot)
        exp_d, _ = raycast_oracle_many(origins, angles, segments, circles, 6.0)
        worst = max(worst, float(np.max(np.abs(w.lidar_scan() * 6.0 - exp_d))))
        origins, angles = semantic_ray_geometry(w.pose, w.robot)
        exp_d, exp_f = raycast_oracle_many(origins, angles, segments, circles, 6.0)
        scan = w.semantic_scan()
        worst = max(worst, float(np.max(np.abs(scan[:, 0] * 6.0 - exp_d))))
        flag_mismatches += int(np.sum(scan[:, 1].astype(bool) != exp_f))
    wall = time.monotonic() - start
    ok = worst < 1e-9 and flag_mismatches == 0 and wall < 60.0
    report(1, ok, f"1000 scenes, max |scan-oracle| = {worst:.2e} (tol 1e-9), "
                  f"{flag_mismatches} flag mismatches, {wall:.1f}s (< 60s)")


# -- criterion 2: reward truth table ----------------------------------------------


def test_criterion_2_reward_truth_table():
    composites = {
        (False, False, False, 0.5): -0.1,
        (False, True, False, 0.5): -0.2,
        (False, False, True, 0.5): -10.1,
        (True, False, False, 0.4): 9.9,
        (False, False, False, 0.1): -0.15,
    }
    mismatches = []
    for goal in (False, True):
        for cd in (False, True):
            for co in (False, True):
                for v in (0.1, 0.5):
                    expected = (-0.1 + (-0.1 if cd else 0) + (-10.0 if co else 0)
                                + (-0.05 if v < 0.3 else 0) + (10.0 if goal else 0))
                    got = compute_reward(EventFlags(goal, cd, co, v < 0.3), v)
                    if got != pytest.approx(expected, abs=0):
                        mismatches.append((goal, cd, co, v, got, expected))
    for combo, expected in composites.items():
        got = compute_reward(EventFlags(combo[0], combo[1], combo[2], combo[3] < 0.3), combo[3])
        if got != pytest.approx(expected):
            mismatches.append((combo, got, expected))
    report(2, not mismatches, f"16 flag/speed combinations exact; mismatches: {mismatches}")


# -- criterion 3: gradient checks ---------------------------------------------------


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(1003)
    obs_dim, act_dim = 4, 2
    worst = {"critic": 0.0, "actor": 0.0, "temperature": 0.0, "fpi": 0.0}
    for _ in range(20):
        critics = CriticPair(obs_dim, act_dim, (6,), rng)
        actor = Actor(obs_dim, act_dim, (6,), rng)
        obs = rng.normal(size=(4, obs_dim))
        act = rng.uniform(-1, 1, size=(4, act_dim))
        targets = rng.normal(size=4)
        weights = rng.uniform(0.2, 1.0, size=4)

        _, g1, g2, _ = critic_losses(critics, obs, act, targets, weights)

        def critic_fn():
            x = np.concatenate([obs, act], axis=1)
            e1 = critics.q1.forward(x)[:, 0] - targets
            e2 = critics.q2.forward(x)[:, 0] - targets
            return float(np.mean(weights * 0.5 * e1**2) + np.mean(weights * 0.5 * e2**2))

        num = (finite_difference_grads(critics.q1.parameters(), critic_fn)
               + finite_difference_grads(critics.q2.parameters(), critic_fn))
        worst["critic"] = max(worst["critic"], relative_grad_error(
            net_grads_list(g1) + net_grads_list(g2), num))

        noise = rng.standard_normal((4, act_dim))
        alpha = float(rng.uniform(0.05, 0.5))
        _, ga, logp = actor_loss_and_grads(actor, critics, obs, noise, alpha)

        def actor_fn():
            l, _, _ = actor_loss_and_grads(actor, critics, obs, noise, alpha)
            return l

        num = finite_difference_grads(actor.net.parameters(), actor_fn)
        worst["actor"] = max(worst["actor"], relative_grad_error(net_grads_list(ga), num))

        la = float(rng.normal(-1.0, 0.5))
        h = 1e-5
        _, grad = alpha_loss_and_grad(logp, la, -2.0)
        up, _ = alpha_loss_and_grad(logp, la + h, -2.0)
        down, _ = alpha_loss_and_grad(logp, la - h, -2.0)
        numeric = (up - down) / (2 * h)
        denom = max(abs(grad), abs(numeric), 1e-6)
        worst["temperature"] = max(worst["temperature"], abs(grad - numeric) / denom)

        fpi = DenseNet([5, 8, 1], ["relu", "sigmoid"], rng=rng)
        x = rng.normal(size=(6, 5))
        y = (rng.uniform(size=6) < 0.5).astype(float)
        p, tape = fpi.forward_tape(x)
        gf = fpi.backward(tape, ((p[:, 0] - y) / len(y))[:, None], skip_last_activation=True)

        def fpi_fn():
            return bce_loss(fpi.forward(x)[:, 0], y)

        num = finite_difference_grads(fpi.parameters(), fpi_fn)
        worst["fpi"] = max(worst["fpi"], relative_grad_error(net_grads_list(gf), num))

    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report(3, ok, f"20 parameterizations each, max rel. error: {detail} (tol 1e-4)")


# -- criterion 4: sum tree ----------------------------------------------------------


def test_criterion_4_sum_tree():
    rng = np.random.default_rng(1004)
    # (a) descent equals the linear-scan oracle on 10k cases
    mismatches = 0
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(1, 128))
        cap = 1
        while cap < n:
            cap *= 2
        tree = SumTree(cap)
        priorities = rng.uniform(0, 4, size=n)
        tree.set_many(np.arange(n), priorities)
        cumsum = np.cumsum(priorities)
        draws = rng.uniform(0, tree.total, size=25)
        got = tree.find_prefix_batch(draws)
        expected = np.minimum(np.searchsorted(cumsum, draws, side="left"), n - 1)
        mismatches += int(np.sum(got != expected))
        checked += len(draws)

    # (b) stratified frequencies at 1e6 draws
    buf = PrioritizedReplay(4, PerConfig(priority_exponent=1.0, priority_floor=1e-12),
                            obs_dim=1)
    for _ in range(4):
        buf.push_episode(one_step_episode(np.zeros(1), (0, 0), 0.0, np.zeros(1), False))
    buf.update_priorities(np.arange(4), [1.0, 2.0, 3.0, 4.0])
    n = 1_000_000
    draws = buf.tree.total * (np.arange(n) + rng.uniform(0, 1, n)) / n
    freq = np.bincount(buf.tree.find_prefix_batch(draws), minlength=4) / n
    freq_err = float(np.max(np.abs(freq - np.array([0.1, 0.2, 0.3, 0.4]))))

    # (c) root-sum invariant after 10k interleaved pushes and updates
    buf2 = PrioritizedReplay(256, obs_dim=1)
    for k in range(10_000):
        if k % 2 == 0:
            slot = buf2.cursor
            buf2.push_episode(one_step_episode(np.zeros(1), (0, 0), 0.0, np.zeros(1), False))
            buf2.update_priorities([slot], [float(rng.uniform(0, 5))])
        else:
            m = int(rng.integers(1, 8))
            idx = rng.integers(0, min(len(buf2), 256), size=m)
            buf2.update_priorities(idx, rng.uniform(0, 5, size=m))
    root_err = abs(buf2.tree.total - buf2.tree.leaves().sum())

    ok = mismatches == 0 and freq_err < 0.01 and root_err < 1e-9
    report(4, ok, f"descent mismatches {mismatches}/10k, frequency error "
                  f"{freq_err:.4f} (tol 0.01), root-sum error {root_err:.2e} (tol 1e-9)")


# -- criterion 5: curriculum classification --------------------------------------


def test_criterion_5_classification_oracle():
    rng = np.random.default_rng(1005)
    mismatches = 0
    saturated_hits = 0
    chi_hits = 0
    for _ in range(10_000):
        cfg = NavAclConfig(
            easy_band=float(rng.uniform(0, 2)),
            frontier_band=float(rng.uniform(0, 0.5)),
            easy_threshold=float(rng.uniform(0.5, 0.999)),
        )
        mu = float(rng.uniform(0, 1))
        sigma = float(rng.uniform(0, 0.6))
        f = float(rng.uniform(0, 1))
        band_top = mu + cfg.easy_band * sigma
        if band_top < 1.0:
            easy = f > band_top or f > cfg.easy_threshold
            if f > cfg.easy_threshold and f <= band_top:
                chi_hits += 1
        else:
            easy = f > mu
            saturated_hits += 1
        frontier = (mu - cfg.frontier_band * sigma) < f < (mu + cfg.frontier_band * sigma)
        expected = "easy" if easy else ("frontier" if frontier else "neither")
        got = ("easy" if is_easy(f, mu, sigma, cfg)
               else "frontier" if is_frontier(f, mu, sigma, cfg) else "neither")
        mismatches += got != expected

    calls = []
    cfg = NavAclConfig()
    for _ in range(500):
        count = [0]

        def sampler():
            count[0] += 1
            return float(rng.uniform(0, 1))

        get_dynamic_task(sampler, lambda t: t, float(rng.uniform(0, 1)),
                         float(rng.uniform(0, 0.3)), cfg, rng)
        calls.append(count[0])
    # force the exhaustion path too
    count = [0]

    def sampler():
        count[0] += 1
        return 0.5

    get_dynamic_task(sampler, lambda t: 0.5, 0.9, 0.01, cfg, rng, task_type="easy")
    calls.append(count[0])

    ok = mismatches == 0 and max(calls) <= 101 and saturated_hits > 100 and chi_hits > 100
    report(5, ok, f"0 mismatches required, got {mismatches}; branch coverage: "
                  f"saturated {saturated_hits}, chi {chi_hits}; max sampler calls "
                  f"{max(calls)} (cap 101)")


# -- criterion 6: SAC sanity on toy problems ---------------------------------------


def test_criterion_6_sac_toy_convergence():
    start = time.monotonic()
    threshold = 1.05 * (-3.0)  # within 5% of the known optimum
    returns = []
    for seed in range(5):
        ret, _ = train_drive_to_origin(seed, env_steps=20000)
        returns.append(ret)
    drive_passes = sum(r >= threshold for r in returns)

    action_errors = []
    for seed in range(3):
        learner = train_bandit(seed, env_steps=8000)
        mean_a, _ = learner.actor.act(np.zeros(1), mode="mean")
        action_errors.append(float(np.max(np.abs(mean_a - np.array([0.3, -0.4])))))

    learner = train_bandit(100, env_steps=20000, alpha_lr=3e-3)
    entropy = learner.actor.mean_entropy(np.zeros(1), np.random.default_rng(9), 20000)
    wall = time.monotonic() - start

    ok = (drive_passes >= 4 and entropy == pytest.approx(-2.0, abs=0.1)
          and max(action_errors) < 0.05 and wall < 600)
    report(6, ok, f"drive-to-origin {drive_passes}/5 seeds >= {threshold:.2f} "
                  f"(returns {[round(r, 3) for r in returns]}); bandit mean-action error "
                  f"{max(action_errors):.3f} (tol 0.05); entropy {entropy:.3f} "
                  f"(target -2 +- 0.1); wall {wall:.0f}s (< 600s)")


# -- criteria 7 and 8: desk-scale navigation (hours) --------------------------------


def _sustained(trainer_out, threshold):
    data = reporting.read_telemetry(trainer_out / "telemetry.csv")
    return reporting.episodes_to_sustained_success(data["success"], threshold, window=500)


@pytest.mark.longrun
def test_criterion_7_desk_navigation(tmp_path):
    hits = []
    for seed in (1, 2, 3):
        out = tmp_path / f"c7_seed{seed}"
        trainer = Trainer(desk_nav_config(), seed=seed, out_dir=out)
        trainer.train()
        hits.append(_sustained(out, 0.70))
    passes = sum(h is not None for h in hits)
    report(7, passes >= 2, f"sustained 70% over trailing 500 episodes reached in "
                           f"{passes}/3 seeds within 20k episodes (hit episodes: {hits})")


@pytest.mark.longrun
def test_criterion_8_curriculum_direction(tmp_path):
    wins = 0
    details = []
    for seed in (1, 2, 3):
        hit = {}
        for variant in ("navacl_q", "random_starts"):
            out = tmp_path / f"c8_{variant}_{seed}"
            trainer = Trainer(desk_nav_config(variant=variant, obstacles=True),
                              seed=seed, out_dir=out)
            trainer.train()
            hit[variant] = _sustained(out, 0.50)
        nav, rnd = hit["navacl_q"], hit["random_starts"]
        win = nav is not None and (rnd is None or nav <= rnd)
        wins += win
        details.append(f"seed {seed}: navacl {nav} vs random {rnd} -> {'win' if win else 'loss'}")
    report(8, wins >= 2, f"curriculum first-to-sustained-50% wins {wins}/3 paired seeds; "
                         + "; ".join(details))


# -- criterion 9: grid harness -------------------------------------------------------


def test_criterion_9_grid_harness(tmp_path):
    cfg = GridEvalConfig()
    straight = lambda obs: np.array([1.0, 0.0])  # noqa: E731
    out = tmp_path / "grid"
    result = run_grid_eval(straight, cfg, out_dir=out, dtype=np.float32)

    import csv as csvmod

    with open(out / "grid_cells.csv", newline="") as fh:
        cells = list(csvmod.DictReader(fh))
    with open(out / "grid_summary.csv", newline="") as fh:
        summary = list(csvmod.DictReader(fh))
    audit_fail = 0
    per_or = {}
    for row in summary:
        if row["row"] != "orientation":
            continue
        rates = [int(c["successes"]) / int(c["episodes"]) for c in cells
                 if c["orientation_deg"] == row["orientation_deg"]
                 and c["valid"] == "1" and int(c["episodes"])]
        recomputed = sum(rates) / len(rates)
        audit_fail += float(row["success_rate"]) != recomputed
        per_or[float(row["orientation_deg"])] = recomputed
    by_row = {r["row"]: float(r["success_rate"]) for r in summary if r["row"] != "orientation"}
    order = list(cfg.orientations_deg)
    audit_fail += by_row["intrapolated"] != sum(
        per_or[o] for o in order if o in (0.0, 45.0, -45.0, 90.0, -90.0)) / 5
    audit_fail += by_row["extrapolated"] != sum(
        per_or[o] for o in order if o in (135.0, -135.0, 180.0)) / 3
    audit_fail += by_row["all"] != sum(per_or[o] for o in order) / len(order)

    # the center front-row cells whose straight line passes through the goal
    # disc with a clear path must all dock
    n = cfg.positions_per_side
    io = cfg.orientations_deg.index(0.0)
    dolly = cfg.dolly_pose()
    front_failures = []
    for ix in range(n):
        pose = cfg.start_pose(ix, n - 1, 0.0)
        if abs(pose.x - dolly.x) < 0.29:
            rate = result.successes[io, n - 1, ix] / max(result.episodes[io, n - 1, ix], 1)
            if rate != 1.0:
                front_failures.append((ix, rate))

    ok = (result.episodes_executed == 8712 and audit_fail == 0 and not front_failures
          and int((~result.valid).sum()) == 0)
    report(9, ok, f"episodes executed {result.episodes_executed} (need 8712), "
                  f"summary audit failures {audit_fail}, straight-ahead front cells "
                  f"{'all dock' if not front_failures else front_failures}, "
                  f"invalid cells {int((~result.valid).sum())}")


# -- criterion 10: determinism and distribution ----------------------------------------


def test_criterion_10_determinism_and_distribution(tmp_path):
    from docknav.config import RunConfig

    def cfg(**kw):
        base = dict(variant="navacl_q", seeds=(1,), episode_budget=6, workers=1,
                    updates_per_episode=2, replay_capacity=1024, dtype="float64",
                    step_limit=25, batch_size=16, hidden=(16,), candidate_pool=4,
                    result_batch_size=4, obstacle_count_min=0, obstacle_count_max=1,
                    distance_max=3.0)
        base.update(kw)
        return RunConfig(**base)

    digests = []
    telemetry = []
    for run in range(2):
        out = tmp_path / f"det{run}"
        trainer = Trainer(cfg(), seed=11, out_dir=out, robot=TINY_ROBOT)
        trainer.train()
        digests.append(b"".join(p.tobytes() for p in trainer.learner.actor.net.parameters())
                       + b"".join(p.tobytes() for p in trainer.learner.critics.q1.parameters()))
        telemetry.append((out / "telemetry.csv").read_text())
    deterministic = digests[0] == digests[1] and telemetry[0] == telemetry[1]

    out = tmp_path / "dist"
    trainer = Trainer(cfg(workers=4, episode_budget=24, batch_size=8), seed=12,
                      out_dir=out, robot=TINY_ROBOT)
    trainer.train()
    conserved = trainer.replay.inserted_total == trainer.transitions_received
    rows = (out / "telemetry.csv").read_text().strip().splitlines()[1:]
    conserved = conserved and sum(int(r.split(",")[3]) for r in rows) == trainer.transitions_received
    buffer_workers = set(trainer.replay.worker_ids[: len(trainer.replay)].tolist())

    ok = deterministic and conserved and buffer_workers == {0, 1, 2, 3}
    report(10, ok, f"sync mode bit-reproducible: {deterministic}; transition counts "
                   f"conserved: {conserved}; worker ids in buffer: {sorted(buffer_workers)}")
