import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from docknav import geometry
from docknav.config import RunConfig, config_overrides, parse_config
from docknav.world import (
    HISTORY_LEN,
    START_SCAN_CHUNK,
    ACTION_DURATION,
    DollySpec,
    EventFlags,
    Pose,
    RobotSpec,
    SimulationError,
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
    task_from_config,
)

from _oracles import (
    cast_rays_reference,
    check_collisions_reference,
    euler_unicycle,
    lidar_ray_geometry,
    raycast_oracle_many,
    ray_fan_reference,
    sample_task_reference,
    scene_primitives,
    semantic_ray_geometry,
    step_reference,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_tasks(name, n, seed, **fields):
    """``n`` tasks drawn from ``configs/<name>`` with ``fields`` overridden."""
    config = config_overrides(parse_config(CONFIGS / name), **fields)
    rng = np.random.default_rng(seed)
    return [sample_task(rng, config) for _ in range(n)]


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
        assert not w.terminal
    out = w.step((0.0, 0.0))
    assert w.terminal and not any([out.flags.goal, out.flags.collision_other])


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
        if w.terminal:
            break
    assert out.flags.collision_other and w.terminal
    assert out.reward == pytest.approx(-10.1)


def test_goal_reached_driving_straight():
    w = World(empty_room())
    out = None
    for _ in range(40):
        out = w.step((1.0, 0.0))
        if w.terminal:
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
        if w.terminal:
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
            trace.append((w.pose.x, w.pose.y, w.pose.yaw, out.reward, w.terminal))
            if w.terminal:
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
        np.zeros((1, 2)), [1], np.array([1.0]), np.array([0.0]), segments,
        np.zeros((0, 2)), np.zeros(0), 6.0,
    )
    assert dist[0] / 6.0 == pytest.approx(0.5, abs=0)
    assert not is_leg[0]


def test_ray_no_hit_clamps_to_max_range():
    dist, _ = geometry.cast_rays(
        np.zeros((1, 2)), [1], np.array([1.0]), np.array([0.0]),
        np.array([[[10.0, -5.0], [10.0, 5.0]]]), np.zeros((0, 2)), np.zeros(0), 6.0,
    )
    assert dist[0] / 6.0 == pytest.approx(1.0, abs=0)


POSE_SOURCES = ["desk_nav.ini", "desk_nav_obstacles.ini", "grid"]


def source_scenes(source):
    """Scenes to pose robots in: 30 tasks drawn from a config's bounds, or
    the grid-evaluation room."""
    if source == "grid":
        return [RunConfig().to_grid_eval_config().world_config(0, 0, 0.0)]
    return [task.config for task in config_tasks(source, 30, seed=31)]


def random_poses(cfg, n, rng):
    """``n`` poses anywhere in the room, walls and obstacles included."""
    return [Pose(rng.uniform(0.0, cfg.room_width), rng.uniform(0.0, cfg.room_length),
                 rng.uniform(-math.pi, math.pi)) for _ in range(n)]


@pytest.mark.parametrize("source", POSE_SOURCES)
def test_grouped_cast_equals_per_ray_cast(source):
    # 300 poses per source: the origin-grouped cast and the frozen per-ray
    # cast give the same distance and hit-mask bits, and so does every scan
    rng = np.random.default_rng(17)
    scenes = source_scenes(source)
    for cfg in scenes:
        w = World(cfg)
        for pose in random_poses(cfg, 300 // len(scenes), rng):
            origins, dirs = ray_fan_reference([pose], w.robot)
            expected = cast_rays_reference(origins[0], dirs[0], w._segments, w._leg_centers,
                                           w._leg_radii, w.robot.lidar_max_range)
            points, dx, dy = w._fan.rays([pose])
            assert np.array_equal(np.repeat(points[0], w._fan.counts, axis=0), origins[0])
            assert np.array_equal(np.stack([dx[0], dy[0]], axis=-1), dirs[0])
            dist, is_leg = geometry.cast_rays(points[0], w._fan.counts, dx[0], dy[0],
                                              w._segments, w._leg_centers, w._leg_radii,
                                              w.robot.lidar_max_range)
            assert np.array_equal(dist, expected[0]) and np.array_equal(is_leg, expected[1])
            w.pose = pose
            lidar, frame = w._fan.split(*expected)
            assert np.array_equal(w.lidar_scan(), lidar)
            assert np.array_equal(w.semantic_scan(), frame)


def poses_touching(w, rng, gaps=(-1e-9, 0.0, 1e-9)):
    """Poses whose footprint lies ``gap`` short of touching each wall, each
    obstacle face and each dolly leg (negative gaps overlap), yaw random."""
    cfg, robot, r = w.config, w.robot, w.dolly.leg_radius
    hl, hw = 0.5 * robot.length, 0.5 * robot.width
    poses = []
    for gap in gaps:
        yaw = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(yaw), math.sin(yaw)
        corners = [(c * lx - s * ly, s * lx + c * ly) for lx, ly in
                   ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
        # the corner that reaches farthest toward -x, +x, -y and +y
        lo_x, hi_x = min(corners), max(corners)
        lo_y, hi_y = min(corners, key=lambda p: p[1]), max(corners, key=lambda p: p[1])
        mid_x, mid_y = 0.5 * cfg.room_width, 0.5 * cfg.room_length
        poses += [Pose(gap - lo_x[0], mid_y, yaw), Pose(cfg.room_width - gap - hi_x[0], mid_y, yaw),
                  Pose(mid_x, gap - lo_y[1], yaw), Pose(mid_x, cfg.room_length - gap - hi_y[1], yaw)]
        for xmin, ymin, xmax, ymax in cfg.obstacles:
            u, v = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
            poses += [Pose(xmin - gap - hi_x[0], v - hi_x[1], yaw),
                      Pose(xmax + gap - lo_x[0], v - lo_x[1], yaw),
                      Pose(u - hi_y[0], ymin - gap - hi_y[1], yaw),
                      Pose(u - lo_y[0], ymax + gap - lo_y[1], yaw)]
        for lx, ly in w.dolly.leg_centers(cfg.dolly_pose):
            # the leg's centre lies r + gap off the robot's front or side
            for local in ((hl + r + gap, rng.uniform(-hw, hw)), (rng.uniform(-hl, hl), hw + r + gap)):
                poses.append(Pose(lx - (c * local[0] - s * local[1]),
                                  ly - (s * local[0] + c * local[1]), yaw))
    return poses


@pytest.mark.parametrize("source", POSE_SOURCES)
def test_broad_phase_collisions_equal_exact_tests(source):
    # the broad phase skips only tests that would come out False: flags equal
    # the frozen exhaustive check on random poses and on poses within 1e-9 m
    # of touching every wall, obstacle face and leg
    rng = np.random.default_rng(23)
    seen = set()
    for cfg in source_scenes(source):
        w = World(cfg)
        for pose in random_poses(cfg, 20, rng) + poses_touching(w, rng) + poses_touching(w, rng):
            w.pose = pose
            flags = w._check_collisions()
            assert flags == check_collisions_reference(w), pose
            seen.add(flags)
    assert {(True, False), (False, True), (False, False)} <= seen


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
    # the float64 observation carries that cast's values unrounded, the
    # newest frame included, and the scans of the current pose read them back
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
    tasks = config_tasks(name, 2 * START_SCAN_CHUNK + 5, seed=8,
                         obstacle_count_min=0, obstacle_count_max=4)
    configs = [task.config for task in tasks]
    assert len({len(cfg.obstacles) for cfg in configs}) == 5
    batched = start_observations(configs, dtype=dtype)
    sl = observation_slices()
    for i, cfg in enumerate(configs):
        w = World(cfg, dtype=dtype)
        assert batched[i].dtype == w.observation().dtype
        assert np.array_equal(batched[i], w.observation())
        frames = batched[i, sl["semantic"]].reshape(HISTORY_LEN, -1)
        assert np.array_equal(batched[i, sl["lidar"]], w.lidar_scan().astype(dtype))
        assert np.all(frames == w.semantic_scan().ravel().astype(dtype))
    assert np.array_equal(start_observations(configs[-1:], dtype=dtype)[0], batched[-1])


def test_world_reuses_a_given_start_observation():
    cfg = config_tasks("desk_nav_obstacles.ini", 1, seed=2)[0].config
    reused = World(cfg, start_observation=start_observations([cfg])[0])
    fresh = World(cfg)
    assert np.array_equal(reused.observation(), fresh.observation())
    for a in ((0.4, 0.2), (0.6, -0.3)):
        assert np.array_equal(reused.step(a).observation, fresh.step(a).observation)
    assert np.array_equal(reused.reset(), fresh.reset())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_observation_history_window(dtype):
    # every step shifts the frame, action and reward blocks by one entry
    cfg = config_tasks("desk_nav_obstacles.ini", 1, seed=5)[0].config
    w = World(cfg, dtype=dtype, step_limit=10 * HISTORY_LEN)
    start = w.observation().copy()
    sl = observation_slices()
    frames = [w.semantic_scan().ravel()] * HISTORY_LEN
    actions = [np.zeros(2)] * HISTORY_LEN
    rewards = [0.0] * HISTORY_LEN
    commands = np.random.default_rng(6).uniform(-1.5, 1.5, size=(2 * HISTORY_LEN + 1, 2))
    for a in commands:
        out = w.step(a * (0.2, 1.0))  # slow: stays clear of walls and the dolly
        frames = frames[1:] + [w.semantic_scan().ravel()]
        actions = actions[1:] + [np.clip(a * (0.2, 1.0), -1.0, 1.0)]
        rewards = rewards[1:] + [out.reward]
        obs = out.observation
        assert obs.dtype == dtype
        assert np.array_equal(obs[sl["semantic"]], np.concatenate(frames).astype(dtype))
        assert np.array_equal(obs[sl["actions"]], np.concatenate(actions).astype(dtype))
        assert np.array_equal(obs[sl["rewards"]], np.asarray(rewards).astype(dtype))
        assert np.array_equal(obs[sl["lidar"]], w.lidar_scan().astype(dtype))
    reset = w.reset()
    assert np.array_equal(reset, start)
    with pytest.raises(ValueError):
        reset[0] = 1.0


@pytest.mark.parametrize("source", POSE_SOURCES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_step_equals_step_reference(source, dtype):
    # every step's observation, reward, flags and end equal the frozen
    # scan-split-concatenate step byte for byte; the grid room runs ten
    # episodes of its one start, each task scene one
    rng = np.random.default_rng(29)
    scenes = source_scenes(source)
    steps = 0
    for cfg in scenes * (10 if len(scenes) == 1 else 1):
        w = World(cfg, dtype=dtype, step_limit=60)
        while not w.terminal:
            action = rng.uniform(-1.2, 1.2, size=2)
            observation, reward, flags, terminal = step_reference(w, action)
            out = w.step(action)
            assert out.observation.dtype == dtype
            assert out.observation.tobytes() == observation.tobytes()
            assert (out.reward, out.flags, w.terminal) == (reward, flags, terminal)
            steps += 1
    assert steps > 300


def test_ray_fan_batch_equals_reference():
    # one call for 16 poses gives each pose's rays of the frozen fan
    rng = np.random.default_rng(37)
    robot = RobotSpec()
    poses = [Pose(rng.uniform(-2.0, 16.0), rng.uniform(-2.0, 16.0), rng.uniform(-4.0, 4.0))
             for _ in range(16)]
    fan = World(empty_room(), robot=robot)._fan
    points, dx, dy = fan.rays(poses)
    origins, dirs = ray_fan_reference(poses, robot)
    assert np.array_equal(np.repeat(points, fan.counts, axis=1), origins)
    assert np.array_equal(np.stack([dx, dy], axis=-1), dirs)


# -- record and replay -----------------------------------------------------


def test_step_observations_are_read_only():
    w = World(empty_room())
    out = w.step((0.5, 0.1))
    with pytest.raises(ValueError):
        out.observation[0] = 1.0
    assert w.observation() is out.observation


def drive(w, actions):
    """Step ``w`` with ``actions`` until they run out or the episode ends:
    every step's observation bytes, reward, flags, end and pose."""
    steps = []
    for a in actions:
        if w.terminal:
            break
        out = w.step(a)
        steps.append((out.observation.tobytes(), out.reward, out.flags, w.terminal, w.pose))
    return steps


def replay_scene():
    return config_tasks("desk_nav_obstacles.ini", 1, seed=4)[0].config


def slow_actions(seed, n=30):
    # slow commands stay clear of walls and the dolly for the whole episode
    return [tuple(a) for a in np.random.default_rng(seed).uniform(-0.3, 0.3, size=(n, 2))]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("swap", ["other_action", "negative_zero"])
def test_replay_diverging_at_step_k_equals_a_fresh_world(tmp_path, dtype, swap):
    # repeat 2 follows repeat 1 for k steps, then its commands differ: every
    # step, and the trajectory, equal a fresh world's under the same commands
    k = 12
    first = slow_actions(41)
    first[k] = (0.0, first[k][1])
    second = list(first)
    second[k] = (-0.0, first[k][1]) if swap == "negative_zero" else (0.2, -0.25)
    second[k + 1:] = slow_actions(42)[k + 1:]
    w = World(replay_scene(), dtype=dtype, step_limit=30, record_trajectory=True)
    recorded = drive(w, first)
    assert len(recorded) == 30 and not any(s[2].collision_other or s[2].goal for s in recorded)
    w.reset()
    replayed = drive(w, second)
    fresh = World(replay_scene(), dtype=dtype, step_limit=30, record_trajectory=True)
    assert replayed == drive(fresh, second)
    assert replayed[:k] == recorded[:k] and replayed[k][0] != recorded[k][0]
    w.save_trajectory(tmp_path / "replayed.jsonl")
    fresh.save_trajectory(tmp_path / "fresh.jsonl")
    assert (tmp_path / "replayed.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


@pytest.mark.parametrize("prefix", [0, 3, 5])
def test_reset_mid_episode_then_other_commands_equals_a_fresh_world(prefix):
    # an episode cut at t=5 by a reset; the next follows it for ``prefix``
    # steps and then goes its own way, past where the cut one stopped
    first = slow_actions(43)
    w = World(replay_scene(), step_limit=30)
    drive(w, first[:5])
    w.reset()
    second = first[:prefix] + slow_actions(44)[prefix:]
    assert drive(w, second) == drive(World(replay_scene(), step_limit=30), second)
    # the steps kept now are the second episode's: a third that follows the
    # cut one to t=5, then the second from where it left the cut one, must
    # not replay a step of the second at a t it was not taken at
    w.reset()
    third = first[:5] + second[prefix:]
    assert drive(w, third) == drive(World(replay_scene(), step_limit=30), third)


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
        for pose in (cfg.robot_start, cfg.dolly_pose):
            assert 0 <= pose.x <= cfg.room_width and 0 <= pose.y <= cfg.room_length
        assert 1 <= len(cfg.obstacles) <= 4
        for ob in cfg.obstacles:
            d = math.hypot(0.5 * (ob[0] + ob[2]) - cfg.dolly_pose.x,
                           0.5 * (ob[1] + ob[3]) - cfg.dolly_pose.y)
            assert 2.0 - 1e-9 <= d <= 5.0 + 1e-9


def test_sample_task_deterministic_from_seed():
    t1 = sample_task(np.random.default_rng(99))
    t2 = sample_task(np.random.default_rng(99))
    assert t1 == t2


# sha256 over repr(task) of 5 draws per seed and the generator state after
# each seed, for seeds 0-3 under RunConfig() and both shipped configs; taken
# from the sampler as it was when it still read a separate bounds object
TASK_STREAM_SHA256 = "c179276b77ab7ce432c1044b9b576caedba5f03c3250bbab8fc1bfd996c71002"


def test_sample_task_stream_is_pinned():
    digest = hashlib.sha256()
    for config in (RunConfig(), parse_config(CONFIGS / "desk_nav.ini"),
                   parse_config(CONFIGS / "desk_nav_obstacles.ini")):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                digest.update(repr(sample_task(rng, config)).encode())
            digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == TASK_STREAM_SHA256


SAMPLER_CONFIGS = {
    "default": RunConfig(),
    "desk_nav.ini": parse_config(CONFIGS / "desk_nav.ini"),
    "desk_nav_obstacles.ini": parse_config(CONFIGS / "desk_nav_obstacles.ini"),
    # a zero-width uniform still draws; a zero-range integers call draws nothing
    "zero_width": config_overrides(RunConfig(), position_jitter=0.0, relative_yaw_half_deg=0.0,
                                   obstacle_count_min=2, obstacle_count_max=2),
    # a small room: robot and dolly often lie near a wall, and many attempts
    # fail the inside-room corner test
    "near_walls": config_overrides(RunConfig(), room_min=5.0, room_max=6.0, distance_min=2.5,
                                   distance_max=4.5, position_jitter=1.0, start_anchor_y=0.9),
}


@pytest.mark.parametrize("name", SAMPLER_CONFIGS)
def test_sample_task_equals_scalar_draw_reference(name):
    # 2000 tasks, each equal to the one the frozen scalar-draw loop returns,
    # and the same generator state after them
    config = SAMPLER_CONFIGS[name]
    fast, reference = np.random.default_rng(61), np.random.default_rng(61)
    for _ in range(2000):
        assert sample_task(fast, config) == sample_task_reference(reference, config)
    assert fast.bit_generator.state == reference.bit_generator.state


def test_sample_task_retry_exhaustion():
    config = RunConfig(room_min=8, room_max=8, distance_min=7.5, distance_max=7.6)
    with pytest.raises(TaskSamplingError, match="retry cap") as raised:
        sample_task(np.random.default_rng(0), config)
    with pytest.raises(TaskSamplingError) as expected:
        sample_task_reference(np.random.default_rng(0), config)
    # the message keeps the per-reason failure counts of every attempt
    assert str(raised.value) == str(expected.value)
    assert re.fullmatch(r"retry cap 100 exhausted: \{'pose_outside_room': \d+, "
                        r"'start_collides': \d+\}", str(raised.value))
    counts = [int(n) for n in re.findall(r": (\d+)", str(raised.value))]
    assert sum(counts) == 100


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


# -- trajectory export ------------------------------------------------------


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
