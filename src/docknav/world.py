"""2D warehouse world: differential-drive kinematics, dual-LiDAR and semantic
ray sensing, docking reward, episode lifecycle, and task randomization.

The arena is an axis-aligned room ``[0, room_width] x [0, room_length]``.
The robot is an oriented rectangle driven by (v, omega) commands held for
0.18 s each. The goal is the region under a four-legged dolly; docking
succeeds when the robot center comes within 0.3 m of the dolly center.
Only the dolly's legs collide - the frame sits above chassis height.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import geometry
from .geometry import wrap_angle

if TYPE_CHECKING:
    from .config import RunConfig

ACTION_DURATION = 0.18  # seconds one command is held
GOAL_DISTANCE = 0.3  # robot-dolly center distance for success
SLOW_SPEED = 0.3  # below this |v| the slow penalty applies

STEP_REWARD = -0.1
DOLLY_COLLISION_REWARD = -0.1
COLLISION_REWARD = -10.0
SLOW_REWARD = -0.05
GOAL_REWARD = 10.0

HISTORY_LEN = 4  # stacked frames / actions / rewards
DEFAULT_STEP_LIMIT = 500
TASK_RETRY_CAP = 100  # scene draws sample_task tries before it gives up


class SimulationError(RuntimeError):
    """Contract violation inside the simulator (e.g. stepping a finished episode)."""


class TaskSamplingError(RuntimeError):
    """Task randomization exhausted its retry budget."""


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@dataclass(frozen=True)
class RobotSpec:
    length: float = 1.273
    width: float = 0.63
    lidar_beams_per_sensor: int = 128
    lidar_fov: float = math.radians(225.0)
    lidar_max_range: float = 6.0
    camera_fov: float = math.radians(47.0)
    semantic_rays: int = 32

    def __post_init__(self):
        if not (self.length > self.width > 0):
            raise ValueError("robot length must exceed width, both positive")
        if self.lidar_max_range <= 0:
            raise ValueError("lidar_max_range must be positive")
        if self.semantic_rays < 1:
            raise ValueError("semantic_rays must be >= 1")


@dataclass(frozen=True)
class DollySpec:
    length: float = 1.23
    width: float = 0.82
    leg_radius: float = 0.03

    def __post_init__(self):
        if self.leg_radius <= 0:
            raise ValueError("leg_radius must be positive")

    def leg_centers(self, pose: Pose) -> np.ndarray:
        """World positions of the four corner legs, shape (4, 2)."""
        return geometry.rect_corners(pose.x, pose.y, pose.yaw, self.length, self.width)

    def check_against(self, robot: RobotSpec) -> None:
        if not self.width > robot.width:
            raise ValueError("dolly must be wider than the robot for docking to be possible")


class EventFlags(NamedTuple):
    goal: bool = False
    collision_dolly: bool = False
    collision_other: bool = False
    slow: bool = False


class StepOutcome(NamedTuple):
    """One step's result. Whether the episode has ended, by an event or by
    the step limit, is :attr:`World.terminal`."""

    observation: np.ndarray
    reward: float
    flags: EventFlags


@dataclass(frozen=True)
class WorldConfig:
    room_width: float
    room_length: float
    obstacles: tuple[tuple[float, float, float, float], ...]  # (xmin, ymin, xmax, ymax)
    dolly_pose: Pose
    robot_start: Pose


def compute_reward(flags: EventFlags, v: float) -> float:
    """Per-step reward: all applicable indicator terms sum independently."""
    r = STEP_REWARD
    if flags.collision_dolly:
        r += DOLLY_COLLISION_REWARD
    if flags.collision_other:
        r += COLLISION_REWARD
    if v < SLOW_SPEED:
        r += SLOW_REWARD
    if flags.goal:
        r += GOAL_REWARD
    return r


def integrate_unicycle(pose: Pose, v: float, omega: float, dt: float = ACTION_DURATION) -> Pose:
    """Exact unicycle integration of a constant (v, omega) command over dt."""
    if abs(omega) > 1e-9:
        yaw1 = pose.yaw + omega * dt
        r = v / omega
        x = pose.x + r * (math.sin(yaw1) - math.sin(pose.yaw))
        y = pose.y - r * (math.cos(yaw1) - math.cos(pose.yaw))
        return Pose(x, y, yaw1)
    return Pose(pose.x + v * dt * math.cos(pose.yaw), pose.y + v * dt * math.sin(pose.yaw), pose.yaw)


def observation_slices(robot: RobotSpec | None = None) -> dict[str, slice]:
    """Layout of the flat observation vector. The observation is its own
    history: the last ``HISTORY_LEN`` semantic frames, actions and rewards,
    each block oldest first, around the newest LiDAR scan."""
    robot = robot or RobotSpec()
    n_sem = HISTORY_LEN * robot.semantic_rays * 2
    n_lidar = 2 * robot.lidar_beams_per_sensor
    return {
        "semantic": slice(0, n_sem),
        "lidar": slice(n_sem, n_sem + n_lidar),
        "actions": slice(n_sem + n_lidar, n_sem + n_lidar + HISTORY_LEN * 2),
        "rewards": slice(n_sem + n_lidar + HISTORY_LEN * 2, n_sem + n_lidar + HISTORY_LEN * 3),
    }


def observation_dim(robot: RobotSpec | None = None) -> int:
    return observation_slices(robot)["rewards"].stop


def _collision_reach(robot: RobotSpec, dolly: DollySpec) -> float:
    """Farthest a robot corner or the centre of a leg it touches can lie from
    the robot's centre, plus 1e-6 for rounding. A wall, obstacle or leg whose
    box is farther than this from the centre cannot collide and skips its
    exact test."""
    return 0.5 * math.hypot(robot.length, robot.width) + dolly.leg_radius + 1e-6


class _ObstacleBoxes:
    """A scene's obstacles for the robot-vs-obstacle test, their corners built
    once: the test's one owner, for task sampling and for every step."""

    def __init__(self, obstacles, reach: float):
        self._boxes = [((xmin - reach, ymin - reach, xmax + reach, ymax + reach),
                        geometry.aabb_corners(xmin, ymin, xmax, ymax))
                       for xmin, ymin, xmax, ymax in obstacles]

    def near(self, x: float, y: float) -> list[np.ndarray]:
        """Corners of the obstacles whose box, grown by the reach, holds (x, y)."""
        return [corners for (x0, y0, x1, y1), corners in self._boxes
                if x0 <= x <= x1 and y0 <= y <= y1]

    def hit(self, robot_corners: np.ndarray, x: float, y: float) -> bool:
        """Whether the robot box ``robot_corners``, centred at (x, y), overlaps
        an obstacle; only the near ones get the separating-axis test."""
        return any(geometry.rects_overlap(robot_corners, corners) for corners in self.near(x, y))


# (xmin, ymin, xmax, ymax) indices of a box's edges, each from an aabb_corners corner to the next
_BOX_EDGES = np.array([[[2, 3], [0, 3]], [[0, 3], [0, 1]], [[0, 1], [2, 1]], [[2, 1], [2, 3]]])


def scene_segments(configs) -> np.ndarray:
    """Edges of each config's room walls, then its obstacle boxes, shape
    (len(configs), S, 2, 2); scenes with fewer obstacles are padded with
    zero-length segments, which no ray hits."""
    empty = ((0.0, 0.0, 0.0, 0.0),) * max(len(cfg.obstacles) for cfg in configs)
    boxes = np.array([((0.0, 0.0, cfg.room_width, cfg.room_length), *cfg.obstacles,
                       *empty[len(cfg.obstacles):]) for cfg in configs], dtype=float)
    return boxes[:, :, _BOX_EDGES].reshape(len(configs), -1, 2, 2)


class _RayFan:
    """Every ray one robot casts per observation, stacked in one array: the
    front LiDAR, the rear LiDAR, then the semantic fan."""

    def __init__(self, robot: RobotSpec):
        self.max_range = robot.lidar_max_range
        # sensors sit on the front-left and rear-right chassis corners
        self._sensor_local = np.array(
            [[0.5 * robot.length, 0.5 * robot.width],
             [-0.5 * robot.length, -0.5 * robot.width]]
        )
        self._sensor_diag = math.atan2(0.5 * robot.width, 0.5 * robot.length)
        n = robot.lidar_beams_per_sensor
        lidar_offsets = np.linspace(-0.5 * robot.lidar_fov, 0.5 * robot.lidar_fov, n)
        m = robot.semantic_rays
        if m == 1:
            semantic_offsets = np.zeros(1)
        else:
            semantic_offsets = np.linspace(-0.5 * robot.camera_fov, 0.5 * robot.camera_fov, m)
        self.counts = [n, n, m]  # rays per origin
        self._offsets = np.concatenate([lidar_offsets, lidar_offsets, semantic_offsets])
        self.lidar = slice(0, 2 * n)
        self.semantic = slice(2 * n, 2 * n + m)

    def rays(self, poses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, dx, dy) for :func:`geometry.cast_rays` with ``counts``:
        the ray origins (len(poses), 3, 2), front LiDAR, rear LiDAR and centre,
        and the unit directions' components, each (len(poses), rays)."""
        # per pose: position, rotation matrix, then the three origins' headings
        pose = np.array([(p.x, p.y, math.cos(p.yaw), -math.sin(p.yaw), math.sin(p.yaw),
                          math.cos(p.yaw), p.yaw + self._sensor_diag,
                          p.yaw + math.pi + self._sensor_diag, p.yaw) for p in poses])
        position = pose[:, None, 0:2]
        rot = pose[:, 2:6].reshape(-1, 2, 2)
        points = np.empty((len(pose), 3, 2))
        np.add(self._sensor_local @ rot.transpose(0, 2, 1), position, out=points[:, :2])
        points[:, 2:] = position
        angles = pose[:, 6:].repeat(self.counts, axis=1) + self._offsets
        return points, np.cos(angles), np.sin(angles)

    def decode(self, dist: np.ndarray, is_leg: np.ndarray, lidar: np.ndarray,
               frame: np.ndarray) -> None:
        """Write a cast of :meth:`rays` (any leading batch axes) into ``lidar``,
        the LiDAR depths in [0, 1], and ``frame`` (..., rays, 2), the semantic
        rays' (depth in [0, 1], dolly flag); both are cast to their dtype."""
        np.divide(dist[..., self.lidar], self.max_range, out=lidar)
        np.divide(dist[..., self.semantic], self.max_range, out=frame[..., 0])
        frame[..., 1] = is_leg[..., self.semantic]

    def split(self, dist: np.ndarray, is_leg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A cast of :meth:`rays` (any leading batch axes) as float64
        (lidar, frame), see :meth:`decode`."""
        lidar = np.empty_like(dist[..., self.lidar])
        frame = np.empty(dist[..., self.semantic].shape + (2,))
        self.decode(dist, is_leg, lidar, frame)
        return lidar, frame


# tasks per batched start cast: bounds its rays x segments temporaries. In desk
# training a scene cost 43-45 us at 16 against 57, 46 and 66 us at 8, 32 and 100
START_SCAN_CHUNK = 16


def start_observations(configs, robot: RobotSpec | None = None,
                       dolly: DollySpec | None = None, dtype=np.float64) -> np.ndarray:
    """The t=0 observations of many tasks, (N, observation_dim), without
    building their worlds. Each row is the start frame tiled over the frame
    history, then the start LiDAR scan, then zero action and reward history;
    row i is what ``World(configs[i], robot, dolly, dtype=dtype).reset()``
    returns. Tasks go through :func:`geometry.cast_rays` ``START_SCAN_CHUNK``
    at a time, their segments from :func:`scene_segments`.
    """
    robot = robot or RobotSpec()
    dolly = dolly or DollySpec()
    fan = _RayFan(robot)
    radii = np.full(4, dolly.leg_radius)
    sl = observation_slices(robot)
    obs = np.zeros((len(configs), sl["rewards"].stop), dtype)
    for lo in range(0, len(configs), START_SCAN_CHUNK):
        chunk = configs[lo:lo + START_SCAN_CHUNK]
        points, dx, dy = fan.rays([cfg.robot_start for cfg in chunk])
        legs = np.stack([dolly.leg_centers(cfg.dolly_pose) for cfg in chunk])
        dist, is_leg = geometry.cast_rays(points, fan.counts, dx, dy, scene_segments(chunk),
                                          legs, radii, robot.lidar_max_range)
        rows = obs[lo:lo + len(chunk)]
        frames = rows[:, sl["semantic"]].reshape(len(chunk), HISTORY_LEN, -1, 2)
        fan.decode(dist, is_leg, rows[:, sl["lidar"]], frames[:, -1])
        frames[:, :-1] = frames[:, -1:]  # the start frame fills the whole history
    return obs


class World:
    """One docking episode. Single-owner, deterministic, no sensor noise.

    ``reset()`` returns the initial observation; ``step()`` advances 0.18 s.
    Stepping after termination raises :class:`SimulationError`. The
    observation is the world's only history: each step shifts the previous
    one's frame, action and reward blocks by one entry (see
    :func:`observation_slices`).
    """

    def __init__(
        self,
        config: WorldConfig,
        robot: RobotSpec | None = None,
        dolly: DollySpec | None = None,
        step_limit: int = DEFAULT_STEP_LIMIT,
        dtype=np.float64,
        record_trajectory: bool = False,
        start_observation: np.ndarray | None = None,
    ):
        """``start_observation``, when given, is this config's row of
        :func:`start_observations`; the world then skips its own t=0 cast."""
        self.config = config
        self.robot = robot or RobotSpec()
        self.dolly = dolly or DollySpec()
        self.dolly.check_against(self.robot)
        self.step_limit = step_limit
        self.dtype = np.dtype(dtype)
        self.record_trajectory = record_trajectory
        self._build_static_geometry()
        if start_observation is None:  # the start pose never changes: cast it once
            start_observation = start_observations([config], self.robot, self.dolly, self.dtype)[0]
        self._start_obs = start_observation.view()  # every reset hands out this array
        self._start_obs.flags.writeable = False
        self.reset()

    # -- static scene -------------------------------------------------

    def _build_static_geometry(self):
        self._segments = scene_segments([self.config])[0]
        self._leg_centers = self.dolly.leg_centers(self.config.dolly_pose)
        self._leg_radii = np.full(4, self.dolly.leg_radius)
        self._legs = self._leg_centers.tolist()
        self._reach = _collision_reach(self.robot, self.dolly)
        self._obstacles = _ObstacleBoxes(self.config.obstacles, self._reach)
        self._fan = _RayFan(self.robot)
        # each step, every history block drops its oldest entry: (to, from)
        sl = observation_slices(self.robot)
        sem, act, rew = sl["semantic"], sl["actions"], sl["rewards"]
        frame = 2 * self.robot.semantic_rays
        self._history_shift = [(slice(sem.start, sem.stop - frame), slice(sem.start + frame, sem.stop)),
                               (slice(act.start, act.stop - 2), slice(act.start + 2, act.stop)),
                               (slice(rew.start, rew.stop - 1), slice(rew.start + 1, rew.stop))]
        self._lidar = sl["lidar"]
        self._newest_frame = slice(sem.stop - frame, sem.stop)
        self._newest_action = act.stop - 2
        self._newest_reward = rew.stop - 1

    # -- episode lifecycle --------------------------------------------

    def reset(self) -> np.ndarray:
        self.pose = self.config.robot_start
        self.t = 0
        self.terminal = False
        self._trajectory: list[dict] = []
        if self.record_trajectory:
            self._trajectory.append(self._traj_record(0.0, 0.0, 0.0, EventFlags()))
        self._obs = self._start_obs
        return self._obs

    def step(self, action) -> StepOutcome:
        if self.terminal:
            raise SimulationError("step() called on a terminal episode")
        v, omega = float(action[0]), float(action[1])
        if not (math.isfinite(v) and math.isfinite(omega)):
            raise SimulationError(f"non-finite action ({v}, {omega})")
        v = min(max(v, -1.0), 1.0)
        omega = min(max(omega, -1.0), 1.0)

        self.pose = integrate_unicycle(self.pose, v, omega)
        self.t += 1

        goal = self._goal_reached()
        collision_dolly = False
        collision_other = False
        if not goal:  # goal takes precedence; flags stay mutually exclusive
            collision_dolly, collision_other = self._check_collisions()
        flags = EventFlags(goal, collision_dolly, collision_other, v < SLOW_SPEED)
        reward = compute_reward(flags, v)
        self.terminal = goal or collision_dolly or collision_other or self.t >= self.step_limit

        # a new array: callers keep the observations of earlier steps
        prev, obs = self._obs, np.empty_like(self._obs)
        for to, source in self._history_shift:
            obs[to] = prev[source]
        self._fan.decode(*self._cast(), obs[self._lidar], obs[self._newest_frame].reshape(-1, 2))
        obs[self._newest_action] = v
        obs[self._newest_action + 1] = omega
        obs[self._newest_reward] = reward
        self._obs = obs
        if self.record_trajectory:
            self._trajectory.append(self._traj_record(v, omega, reward, flags))
        return StepOutcome(obs, reward, flags)

    def _goal_reached(self) -> bool:
        d = math.hypot(self.pose.x - self.config.dolly_pose.x, self.pose.y - self.config.dolly_pose.y)
        return d < GOAL_DISTANCE

    def _check_collisions(self) -> tuple[bool, bool]:
        """(dolly leg hit, wall or obstacle hit). A broad phase on the robot
        centre skips each exact test that :func:`_collision_reach` rules out."""
        x, y, yaw = self.pose.x, self.pose.y, self.pose.yaw
        reach, length, width = self._reach, self.robot.length, self.robot.width
        collision_dolly = any(
            geometry.point_rect_distance(cx, cy, x, y, yaw, length, width) < self.dolly.leg_radius
            for cx, cy in self._legs if abs(cx - x) <= reach and abs(cy - y) <= reach
        )
        room_w, room_l = self.config.room_width, self.config.room_length
        near_wall = not (reach <= x <= room_w - reach and reach <= y <= room_l - reach)
        if not (near_wall or self._obstacles.near(x, y)):
            return collision_dolly, False
        corners = geometry.rect_corners(x, y, yaw, length, width)
        collision_other = ((near_wall and not geometry.corners_inside_room(corners, room_w, room_l))
                           or self._obstacles.hit(corners, x, y))
        return collision_dolly, collision_other

    def start_state_unreachable(self) -> bool:
        """True when the pose intersects walls or obstacles - a spawn that
        cannot exist. Touching a dolly leg is reachable (the episode simply
        collides on its first motion)."""
        _, other_hit = self._check_collisions()
        return other_hit

    # -- sensing -------------------------------------------------------

    def _cast(self) -> tuple[np.ndarray, np.ndarray]:
        """Both LiDARs and the semantic fan at the current pose in one cast:
        (distances, dolly hit) of every ray, for :meth:`_RayFan.decode`."""
        points, dx, dy = self._fan.rays([self.pose])
        return geometry.cast_rays(points[0], self._fan.counts, dx[0], dy[0], self._segments,
                                  self._leg_centers, self._leg_radii, self.robot.lidar_max_range)

    def lidar_scan(self) -> np.ndarray:
        """Both 128-beam sensors concatenated (front corner first), in [0, 1]."""
        return self._fan.split(*self._cast())[0]

    def semantic_scan(self) -> np.ndarray:
        """Frontal rays over the camera FOV: (rays, 2) of (depth in [0,1], dolly flag)."""
        return self._fan.split(*self._cast())[1]

    def observation(self) -> np.ndarray:
        """Current flat observation; the t=0 one is read-only."""
        return self._obs

    # -- trajectory export ----------------------------------------------

    def _traj_record(self, v, omega, reward, flags: EventFlags) -> dict:
        return {
            "t": self.t,
            "x": self.pose.x,
            "y": self.pose.y,
            "yaw": self.pose.yaw,
            "v": v,
            "omega": omega,
            "r": reward,
            "flags": {
                "goal": flags.goal,
                "collision_dolly": flags.collision_dolly,
                "collision_other": flags.collision_other,
                "slow": flags.slow,
            },
        }

    def save_trajectory(self, path) -> None:
        """Line-delimited trajectory export; first line is a scene header."""
        if not self.record_trajectory:
            raise SimulationError("trajectory recording was not enabled")
        header = {
            "type": "scene",
            "room_width": self.config.room_width,
            "room_length": self.config.room_length,
            "obstacles": [list(ob) for ob in self.config.obstacles],
            "dolly": {"x": self.config.dolly_pose.x, "y": self.config.dolly_pose.y,
                      "yaw": self.config.dolly_pose.yaw},
            "robot_length": self.robot.length,
            "robot_width": self.robot.width,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self._trajectory:
                fh.write(json.dumps(rec) + "\n")


# -- task randomization ------------------------------------------------


@dataclass(frozen=True)
class Task:
    """An initial world configuration plus its geometric curriculum features."""

    config: WorldConfig
    distance: float
    agent_clearance: float
    goal_clearance: float
    relative_angle: float


def geometric_properties(task: Task, q0: float) -> np.ndarray:
    """The five curriculum-network inputs: four geometric features plus the
    critic's initial state-action value estimate."""
    return np.array(
        [task.distance, task.agent_clearance, task.goal_clearance, task.relative_angle, q0]
    )


def _nearest_wall_distance(x: float, y: float, room_w: float, room_l: float) -> float:
    return min(x, room_w - x, y, room_l - y)


def clearance(x: float, y: float, config: WorldConfig) -> float:
    """Distance to the nearest obstacle boundary; nearest wall when the scene
    has no obstacles (keeps the feature finite in empty arenas)."""
    if not config.obstacles:
        return _nearest_wall_distance(x, y, config.room_width, config.room_length)
    return min(geometry.point_aabb_distance(x, y, *ob) for ob in config.obstacles)


def task_from_config(config: WorldConfig) -> Task:
    dx = config.dolly_pose.x - config.robot_start.x
    dy = config.dolly_pose.y - config.robot_start.y
    return Task(
        config=config,
        distance=math.hypot(dx, dy),
        agent_clearance=clearance(config.robot_start.x, config.robot_start.y, config),
        goal_clearance=clearance(config.dolly_pose.x, config.dolly_pose.y, config),
        relative_angle=wrap_angle(math.atan2(dy, dx) - config.robot_start.yaw),
    )


def sample_task(
    rng: np.random.Generator,
    config: RunConfig | None = None,
    robot: RobotSpec | None = None,
    dolly: DollySpec | None = None,
) -> Task:
    """Draw one randomized episode configuration from the ``[world]``
    intervals of ``config`` (default: ``RunConfig()``).

    Resamples until every scene invariant holds; raises
    :class:`TaskSamplingError` with per-reason counts when the retry cap is
    exhausted.
    """
    if config is None:
        from .config import RunConfig  # config imports grid_eval, which imports this module

        config = RunConfig()
    robot = robot or RobotSpec()
    dolly = dolly or DollySpec()
    bearing_half = math.radians(config.bearing_half_angle_deg)
    relative_yaw_half = math.radians(config.relative_yaw_half_deg)
    dolly_yaw_half = math.radians(config.dolly_yaw_half_deg)
    jitter = config.position_jitter
    # each attempt draws one rng.random(8) for, in the old scalar-draw order,
    # room width and length, both jitters, distance, bearing, dolly yaw and
    # robot yaw; low + (high - low) * u is what Generator.uniform computes
    low = [config.room_min] * 2 + [-jitter] * 2 + [
        config.distance_min, -bearing_half, -dolly_yaw_half, -relative_yaw_half]
    span = [config.room_max - config.room_min] * 2 + [2 * jitter] * 2 + [
        config.distance_max - config.distance_min, 2 * bearing_half, 2 * dolly_yaw_half,
        2 * relative_yaw_half]
    offset_min, side_min = config.obstacle_distance_min, config.obstacle_side_min
    offset_span = config.obstacle_distance_max - offset_min
    side_span = config.obstacle_side_max - side_min
    failures = {"pose_outside_room": 0, "start_collides": 0}
    for _ in range(TASK_RETRY_CAP):
        room_w, room_l, jx, jy, r, d_bearing, d_dolly_yaw, d_yaw = [
            lo + s * u for lo, s, u in zip(low, span, rng.random(8).tolist())]
        rx = 0.5 * room_w + jx
        ry = config.start_anchor_y + jy
        bearing = 0.5 * math.pi + d_bearing
        dollyx = rx + r * math.cos(bearing)
        dollyy = ry + r * math.sin(bearing)
        dolly_pose = Pose(dollyx, dollyy, 0.5 * math.pi + d_dolly_yaw)
        robot_yaw = bearing + d_yaw
        robot_pose = Pose(rx, ry, robot_yaw)

        n_obs = int(rng.integers(config.obstacle_count_min, config.obstacle_count_max + 1))
        obstacles = []
        # each obstacle's side, offset and size, drawn as the uniforms above
        for u_side, u_offset, u_size in rng.random((n_obs, 3)).tolist():
            side = 1.0 if u_side < 0.5 else -1.0
            half = 0.5 * (side_min + side_span * u_size)
            ocx = dollyx + side * (offset_min + offset_span * u_offset)
            obstacles.append((ocx - half, dollyy - half, ocx + half, dollyy + half))

        scene = WorldConfig(
            room_width=room_w,
            room_length=room_l,
            obstacles=tuple(obstacles),
            dolly_pose=dolly_pose,
            robot_start=robot_pose,
        )
        robot_corners = geometry.rect_corners(rx, ry, robot_yaw, robot.length, robot.width)
        dolly_corners = geometry.rect_corners(
            dollyx, dollyy, dolly_pose.yaw, dolly.length + 2 * dolly.leg_radius,
            dolly.width + 2 * dolly.leg_radius,
        )
        if not (
            geometry.corners_inside_room(robot_corners, room_w, room_l)
            and geometry.corners_inside_room(dolly_corners, room_w, room_l)
        ):
            failures["pose_outside_room"] += 1
            continue
        if _ObstacleBoxes(obstacles, _collision_reach(robot, dolly)).hit(robot_corners, rx, ry):
            failures["start_collides"] += 1
            continue
        return task_from_config(scene)
    raise TaskSamplingError(f"retry cap {TASK_RETRY_CAP} exhausted: {failures}")
