import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from docknav import geometry
from docknav.config import parse_config
from docknav.world import (
    HISTORY_LEN,
    START_SCAN_CHUNK,
    ACTION_DURATION,
    DollySpec,
    EventFlags,
    Pose,
    RobotSpec,
    SimulationError,
    TaskBounds,
    TaskSamplingError,
    World,
    WorldConfig,
    clearance,
    compute_reward,
    geometric_properties,
    integrate_unicycle,
    observation_dim,
    observation_slices,
    sample_task,
    start_observations,
    start_scans,
    task_from_config,
)

from _oracles import (
    euler_unicycle,
    lidar_ray_geometry,
    raycast_oracle,
    raycast_oracle_many,
    scene_primitives,
    semantic_ray_geometry,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_tasks(name, n, seed, **bounds):
    """``n`` tasks drawn from the task bounds of ``configs/<name>``."""
    task_bounds = replace(parse_config(CONFIGS / name).to_task_bounds(), **bounds)
    rng = np.random.default_rng(seed)
    return [sample_task(rng, task_bounds) for _ in range(n)]


def empty_room(width=10.0, length=10.0, dolly=Pose(5.0, 8.0, math.pi / 2),
               robot=Pose(5.0, 3.0, math.pi / 2), obstacles=()):
    return WorldConfig(room_width=width, room_length=length, obstacles=obstacles,
                       dolly_pose=dolly, robot_start=robot)


# -- kinematics -----------------------------------------------------------


def test_straight_line_step():
    p = integrate_unicycle(Pose(0, 0, 0), v=1.0, omega=0.0)
    assert (p.x, p.y, p.yaw) == (ACTION_DURATION, 0.0, 0.0)


def test_pure_rotation_step():
    p = integrate_unicycle(Pose(0, 0, 0), v=0.0, omega=1.0)
    assert (p.x, p.y) == (0.0, 0.0)
    assert p.yaw == pytest.approx(0.18, abs=0)


def test_arc_closed_form():
    p = integrate_unicycle(Pose(0, 0, 0), v=1.0, omega=1.0)
    assert p.x == pytest.approx(math.sin(0.18), abs=1e-15)
    assert p.y == pytest.approx(1.0 - math.cos(0.18), abs=1e-15)
    assert p.yaw == pytest.approx(0.18, abs=1e-15)


def test_arc_matches_euler_oracle():
    rng = np.random.default_rng(7)
    n = 1000
    v = rng.uniform(-1, 1, n)
    omega = rng.uniform(-1, 1, n)
    x0 = rng.uniform(-3, 3, n)
    y0 = rng.uniform(-3, 3, n)
    yaw0 = rng.uniform(-math.pi, math.pi, n)
    ex, ey, _ = euler_unicycle(x0, y0, yaw0, v, omega, ACTION_DURATION, substeps=100_000)
    for i in range(n):
        p = integrate_unicycle(Pose(x0[i], y0[i], yaw0[i]), v[i], omega[i])
        assert math.hypot(p.x - ex[i], p.y - ey[i]) < 1e-6


def test_yaw_stays_normalized():
    p = Pose(0, 0, math.pi)
    for _ in range(100):
        p = integrate_unicycle(p, 0.3, 1.0)
        assert -math.pi < p.yaw <= math.pi


# -- reward ---------------------------------------------------------------


def test_reward_paper_values():
    assert compute_reward(EventFlags(), 0.5) == pytest.approx(-0.1)
    assert compute_reward(EventFlags(collision_dolly=True), 0.5) == pytest.approx(-0.2)
    assert compute_reward(EventFlags(collision_other=True), 0.5) == pytest.approx(-10.1)
    assert compute_reward(EventFlags(goal=True), 0.4) == pytest.approx(9.9)
    assert compute_reward(EventFlags(), 0.1) == pytest.approx(-0.15)


def test_reward_truth_table_all_combinations():
    # independent hand-built sum over indicator terms
    for goal in (False, True):
        for cd in (False, True):
            for co in (False, True):
                for v in (0.1, 0.5):
                    expected = -0.1
                    expected += -0.1 if cd else 0.0
                    expected += -10.0 if co else 0.0
                    expected += -0.05 if v < 0.3 else 0.0
                    expected += 10.0 if goal else 0.0
                    flags = EventFlags(goal, cd, co, v < 0.3)
                    assert compute_reward(flags, v) == pytest.approx(expected, abs=0)


def test_negative_velocity_is_slow():
    assert compute_reward(EventFlags(), -1.0) == pytest.approx(-0.15)


# -- stepping and termination ---------------------------------------------


def test_step_limit_terminates():
    w = World(empty_room(), step_limit=5)
    for _ in range(4):
        out = w.step((0.0, 0.0))
        assert not out.terminal
    out = w.step((0.0, 0.0))
    assert out.terminal and not any([out.flags.goal, out.flags.collision_other])


def test_step_after_terminal_raises():
    w = World(empty_room(), step_limit=1)
    w.step((0.0, 0.0))
    with pytest.raises(SimulationError):
        w.step((0.0, 0.0))


def test_non_finite_action_rejected():
    w = World(empty_room())
    with pytest.raises(SimulationError):
        w.step((float("nan"), 0.0))


def test_action_clamped_to_bounds():
    w = World(empty_room())
    w.step((5.0, 0.0))  # clamped to 1 m/s
    assert w.pose.y == pytest.approx(3.0 + ACTION_DURATION)


def test_wall_collision_terminates():
    cfg = empty_room(robot=Pose(5.0, 9.2, math.pi / 2), dolly=Pose(8.0, 5.0, 0.0))
    w = World(cfg)
    out = None
    for _ in range(20):
        out = w.step((1.0, 0.0))
        if out.terminal:
            break
    assert out.flags.collision_other and out.terminal
    assert out.reward == pytest.approx(-10.1)


def test_goal_reached_driving_straight():
    w = World(empty_room())
    out = None
    for _ in range(40):
        out = w.step((1.0, 0.0))
        if out.terminal:
            break
    assert out.flags.goal
    assert out.reward == pytest.approx(9.9)
    # stopped as soon as the center distance dropped below 0.3
    d = math.hypot(w.pose.x - 5.0, w.pose.y - 8.0)
    assert d < 0.3


def test_dolly_leg_collision():
    # aim at a leg: dolly at (5,8) yaw 90deg has legs at (5 +- 0.41, 8 +- 0.615)
    cfg = empty_room(robot=Pose(4.59, 5.0, math.pi / 2))
    w = World(cfg)
    out = None
    for _ in range(40):
        out = w.step((1.0, 0.0))
        if out.terminal:
            break
    assert out.flags.collision_dolly and not out.flags.goal
    assert out.reward == pytest.approx(-0.2)  # step penalty + dolly contact, v=1 not slow


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(3)
    task = sample_task(rng)
    actions = np.random.default_rng(5).uniform(-1, 1, size=(50, 2))
    traces = []
    for _ in range(2):
        w = World(task.config)
        trace = []
        for a in actions:
            out = w.step(a)
            trace.append((w.pose.x, w.pose.y, w.pose.yaw, out.reward, out.terminal))
            if out.terminal:
                break
        traces.append(trace)
    assert traces[0] == traces[1]


# -- observation layout ----------------------------------------------------


def test_observation_dim_and_bounds():
    w = World(empty_room())
    obs = w.observation()
    assert obs.shape == (observation_dim(),)
    sl = observation_slices()
    assert np.all(obs[sl["semantic"]] >= 0) and np.all(obs[sl["semantic"]] <= 1)
    assert np.all(obs[sl["lidar"]] >= 0) and np.all(obs[sl["lidar"]] <= 1)


def test_history_padding_rules():
    w = World(empty_room())
    obs0 = w.observation()
    sl = observation_slices()
    assert np.all(obs0[sl["actions"]] == 0)
    assert np.all(obs0[sl["rewards"]] == 0)
    frames = obs0[sl["semantic"]].reshape(4, -1)
    for k in range(1, 4):
        assert np.array_equal(frames[0], frames[k])  # replicate-padded

    out = w.step((0.5, 0.1))
    obs1 = out.observation
    acts = obs1[sl["actions"]].reshape(4, 2)
    assert np.all(acts[:3] == 0)
    assert acts[3] == pytest.approx([0.5, 0.1])
    rews = obs1[sl["rewards"]]
    assert np.all(rews[:3] == 0)
    assert rews[3] == pytest.approx(out.reward)


def test_configurable_sensor_counts():
    robot = RobotSpec(lidar_beams_per_sensor=16, semantic_rays=8)
    w = World(empty_room(), robot=robot)
    assert w.observation().shape == (observation_dim(robot),)
    assert w.lidar_scan().shape == (32,)
    assert w.semantic_scan().shape == (8, 2)


# -- raycasting -----------------------------------------------------------


def test_ray_simple_wall_distance():
    segments = np.array([[[3.0, -5.0], [3.0, 5.0]]])
    dist, is_leg = geometry.cast_rays(
        np.zeros((1, 2)), np.array([[1.0, 0.0]]), segments,
        np.zeros((0, 2)), np.zeros(0), 6.0,
    )
    assert dist[0] / 6.0 == pytest.approx(0.5, abs=0)
    assert not is_leg[0]


def test_ray_no_hit_clamps_to_max_range():
    dist, _ = geometry.cast_rays(
        np.zeros((1, 2)), np.array([[1.0, 0.0]]),
        np.array([[[10.0, -5.0], [10.0, 5.0]]]), np.zeros((0, 2)), np.zeros(0), 6.0,
    )
    assert dist[0] / 6.0 == pytest.approx(1.0, abs=0)


def test_semantic_center_ray_sees_leg():
    # one dolly leg dead ahead with its surface 3 m away; odd ray count gives
    # an exact center ray
    robot = RobotSpec(semantic_rays=33)
    dolly = DollySpec(leg_radius=0.05)
    # dolly yaw 0: legs at (x +- 0.615, y +- 0.41); front-left leg on the ray
    leg_offset_x, leg_offset_y = 0.615, 0.41
    cfg = empty_room(
        width=20.0, length=20.0,
        dolly=Pose(5.0 + 3.0 + dolly.leg_radius + leg_offset_x, 3.0 + leg_offset_y, 0.0),
        robot=Pose(5.0, 3.0, 0.0),
    )
    w = World(cfg, robot=robot, dolly=dolly)
    scan = w.semantic_scan()
    center = scan[16]
    assert center[0] == pytest.approx(0.5, abs=1e-12)
    assert center[1] == 1.0


def test_semantic_empty_corridor():
    cfg = empty_room(width=30.0, length=30.0, robot=Pose(15.0, 15.0, 0.0),
                     dolly=Pose(2.0, 28.0, 0.0))
    w = World(cfg)
    scan = w.semantic_scan()
    # max range 6 m, nearest wall 15 m: all rays read 1.0 with no dolly flag
    assert np.all(scan[:, 0] == 1.0)
    assert np.all(scan[:, 1] == 0.0)


def test_semantic_wall_occludes_dolly():
    # wall at 2 m (obstacle face), dolly leg behind it at 4 m
    robot = RobotSpec(semantic_rays=33)
    cfg = empty_room(
        width=40.0, length=40.0,
        robot=Pose(10.0, 10.0, 0.0),
        dolly=Pose(14.0 + 0.615, 10.0 + 0.41, 0.0),
        obstacles=((12.0, 5.0, 13.0, 15.0),),
    )
    w = World(cfg, robot=robot)
    center = w.semantic_scan()[16]
    assert center[0] == pytest.approx(2.0 / 6.0, abs=1e-12)
    assert center[1] == 0.0


def test_lidar_matches_bruteforce_oracle_on_random_scenes():
    rng = np.random.default_rng(11)
    for _ in range(50):
        task = sample_task(rng)
        w = World(task.config)
        segments, circles = scene_primitives(task.config)
        origins, angles = lidar_ray_geometry(w.pose, w.robot)
        exp_d, _ = raycast_oracle_many(origins, angles, segments, circles, 6.0)
        assert np.max(np.abs(w.lidar_scan() * 6.0 - exp_d)) < 1e-9
        origins, angles = semantic_ray_geometry(w.pose, w.robot)
        exp_d, exp_f = raycast_oracle_many(origins, angles, segments, circles, 6.0)
        scan = w.semantic_scan()
        assert np.max(np.abs(scan[:, 0] * 6.0 - exp_d)) < 1e-9
        assert np.array_equal(scan[:, 1].astype(bool), exp_f)


@pytest.mark.parametrize("name", ["desk_nav.ini", "desk_nav_obstacles.ini"])
def test_fused_scan_equals_per_sensor_scans(name):
    # step() and reset() cast both LiDARs and the semantic fan in one call;
    # the float64 observation carries that cast's values unrounded
    sl = observation_slices()
    actions = np.random.default_rng(4).uniform(-1, 1, size=(25, 2))
    for task in config_tasks(name, 12, seed=21):
        w = World(task.config)
        for a in [None, *actions]:
            if a is not None:
                if w.terminal:
                    break
                w.step(a)
            obs = w.observation()
            newest_frame = obs[sl["semantic"]].reshape(HISTORY_LEN, -1)[-1]
            assert np.array_equal(obs[sl["lidar"]], w.lidar_scan())
            assert np.array_equal(newest_frame, w.semantic_scan().ravel())


@pytest.mark.parametrize("name", ["desk_nav.ini", "desk_nav_obstacles.ini"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_start_observations_equal_world_reset(name, dtype):
    # 0 to 4 obstacles per task: every chunk pads segment lists of mixed length
    tasks = config_tasks(name, 2 * START_SCAN_CHUNK + 5, seed=8, obstacle_count=(0, 4))
    configs = [task.config for task in tasks]
    assert len({len(cfg.obstacles) for cfg in configs}) == 5
    lidar, frames = start_scans(configs)
    batched = start_observations(lidar, frames, dtype)
    for i, cfg in enumerate(configs):
        w = World(cfg, dtype=dtype)
        assert batched[i].dtype == w.observation().dtype
        assert np.array_equal(batched[i], w.observation())
        assert np.array_equal(lidar[i], w.lidar_scan())
        assert np.array_equal(frames[i], w.semantic_scan())
    one_lidar, one_frames = start_scans(configs[-1:])
    assert np.array_equal(start_observations(one_lidar, one_frames, dtype)[0], batched[-1])


def test_world_reuses_a_given_start_scan():
    cfg = config_tasks("desk_nav_obstacles.ini", 1, seed=2)[0].config
    lidar, frames = start_scans([cfg])
    reused = World(cfg, start_scan=(lidar[0], frames[0]))
    fresh = World(cfg)
    assert np.array_equal(reused.observation(), fresh.observation())
    for a in ((0.4, 0.2), (0.6, -0.3)):
        assert np.array_equal(reused.step(a).observation, fresh.step(a).observation)
    assert np.array_equal(reused.reset(), fresh.reset())


# -- task sampling ---------------------------------------------------------


def test_sample_task_respects_bounds():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        task = sample_task(rng)
        assert 1.5 <= task.distance <= 5.0
        # recompute the relative angle from the raw configuration
        cfg = task.config
        bearing = math.atan2(cfg.dolly_pose.y - cfg.robot_start.y,
                             cfg.dolly_pose.x - cfg.robot_start.x)
        rel = geometry.wrap_angle(bearing - cfg.robot_start.yaw)
        assert abs(rel) <= math.pi / 2 + 1e-12
        assert abs(rel - task.relative_angle) < 1e-12
        assert not task.config.validate()
        assert 1 <= len(cfg.obstacles) <= 4
        for ob in cfg.obstacles:
            d = math.hypot(0.5 * (ob[0] + ob[2]) - cfg.dolly_pose.x,
                           0.5 * (ob[1] + ob[3]) - cfg.dolly_pose.y)
            assert 2.0 - 1e-9 <= d <= 5.0 + 1e-9


def test_sample_task_deterministic_from_seed():
    t1 = sample_task(np.random.default_rng(99))
    t2 = sample_task(np.random.default_rng(99))
    assert t1 == t2


def test_sample_task_retry_exhaustion():
    bounds = TaskBounds(room_side=(8.0, 8.0), distance=(7.5, 7.6))
    with pytest.raises(TaskSamplingError, match="retry cap"):
        sample_task(np.random.default_rng(0), bounds)


def test_dolly_yaw_jitter_within_bounds():
    rng = np.random.default_rng(4)
    for _ in range(500):
        t = sample_task(rng)
        rel_dolly = geometry.wrap_angle(t.config.dolly_pose.yaw - math.pi / 2)
        assert abs(rel_dolly) <= math.radians(15.0) + 1e-12


# -- geometric properties ---------------------------------------------------


def test_geometric_properties_facing_goal():
    cfg = empty_room(width=20, length=20, robot=Pose(10.0, 10.0, math.pi / 2),
                     dolly=Pose(10.0, 13.0, math.pi / 2))
    task = task_from_config(cfg)
    feats = geometric_properties(task, q0=1.25)
    assert feats[0] == pytest.approx(3.0, abs=0)
    assert feats[3] == pytest.approx(0.0, abs=0)
    assert feats[4] == 1.25


def test_geometric_properties_perpendicular():
    cfg = empty_room(width=20, length=20, robot=Pose(10.0, 10.0, 0.0),
                     dolly=Pose(10.0, 13.0, math.pi / 2))
    task = task_from_config(cfg)
    assert task.relative_angle == pytest.approx(math.pi / 2, abs=0)


def test_clearance_matches_dense_boundary_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        task = sample_task(rng)
        cfg = task.config
        for px, py, got in (
            (cfg.robot_start.x, cfg.robot_start.y, task.agent_clearance),
            (cfg.dolly_pose.x, cfg.dolly_pose.y, task.goal_clearance),
        ):
            best = math.inf
            for xmin, ymin, xmax, ymax in cfg.obstacles:
                for (x0, y0, x1, y1) in (
                    (xmin, ymin, xmax, ymin), (xmax, ymin, xmax, ymax),
                    (xmax, ymax, xmin, ymax), (xmin, ymax, xmin, ymin),
                ):
                    n = max(2, int(math.hypot(x1 - x0, y1 - y0) / 0.001))
                    ts = np.linspace(0, 1, n)
                    xs = x0 + ts * (x1 - x0)
                    ys = y0 + ts * (y1 - y0)
                    best = min(best, float(np.min(np.hypot(xs - px, ys - py))))
                if xmin <= px <= xmax and ymin <= py <= ymax:
                    best = 0.0
            assert abs(got - best) < 2e-3


def test_clearance_empty_scene_uses_walls():
    cfg = empty_room(width=10, length=12, robot=Pose(2.0, 5.0, 0.0),
                     dolly=Pose(5.0, 8.0, 0.0))
    assert clearance(2.0, 5.0, cfg) == pytest.approx(2.0)


# -- config validation and trajectory export --------------------------------


def test_world_config_validation():
    cfg = WorldConfig(room_width=10, room_length=10, obstacles=((0, 0, 1, 1),),
                      dolly_pose=Pose(5, 8, 0), robot_start=Pose(5, 7.5, 0))
    problems = cfg.validate()
    assert any("robot-dolly" in p for p in problems)
    assert any("obstacle-dolly" in p for p in problems)
    assert not cfg.validate(randomization_bounds=False)
    outside = WorldConfig(room_width=10, room_length=10, obstacles=(),
                          dolly_pose=Pose(5, 8, 0), robot_start=Pose(-1, 5, 0))
    assert any("outside room" in p for p in outside.validate())


def test_trajectory_export_roundtrip(tmp_path):
    w = World(empty_room(), record_trajectory=True)
    for _ in range(5):
        w.step((0.7, 0.2))
    path = tmp_path / "traj.jsonl"
    w.save_trajectory(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "scene"
    steps = lines[1:]
    assert len(steps) == 6  # initial pose + 5 steps
    assert list(steps[1]) == ["t", "x", "y", "yaw", "v", "omega", "r", "flags"]
    assert steps[1]["v"] == 0.7
    assert {"goal", "collision_dolly", "collision_other", "slow"} <= set(steps[1]["flags"])
