"""Independent reference implementations used as test oracles.

These deliberately re-derive results through different formulas than the
package code (implicit-line intersection and hit-point projection instead of
the parametric cross-product solve, substep Euler integration instead of
closed-form arcs, plain loops instead of tapes) so agreement is meaningful.
Most ``*_reference`` functions instead freeze an earlier form of the package
code, which a faster form must match bit for bit.
"""

import math

import numpy as np

from docknav.per import SumTree


def euler_unicycle(x, y, yaw, v, omega, duration, substeps):
    """Explicit-Euler integration oracle; vectorized over parallel cases."""
    x = np.asarray(x, dtype=np.float64).copy()
    y = np.asarray(y, dtype=np.float64).copy()
    yaw = np.asarray(yaw, dtype=np.float64).copy()
    dt = duration / substeps
    for _ in range(substeps):
        x += v * np.cos(yaw) * dt
        y += v * np.sin(yaw) * dt
        yaw += omega * dt
    return x, y, yaw


def raycast_oracle(ox, oy, angle, segments, circles, max_range):
    """Nearest hit for one ray, enumerating every primitive.

    Segments are hit via the ray parameter from the implicit line equation
    and then validated by projecting the hit point back onto the segment;
    circles via the quadratic in the ray parameter. Returns (distance clipped
    to max_range, first_hit_is_circle).
    """
    dx, dy = math.cos(angle), math.sin(angle)
    best = math.inf
    best_is_circle = False
    for (ax, ay), (bx, by) in segments:
        ex, ey = bx - ax, by - ay
        den = dx * ey - dy * ex
        if abs(den) < 1e-15:
            continue
        t = ((ax - ox) * ey - (ay - oy) * ex) / den
        if t < 0 or t >= best:
            continue
        px, py = ox + t * dx, oy + t * dy
        ee = ex * ex + ey * ey
        u = ((px - ax) * ex + (py - ay) * ey) / ee
        if -1e-12 <= u <= 1 + 1e-12:
            best = t
            best_is_circle = False
    for (cx, cy), r in circles:
        fx, fy = cx - ox, cy - oy
        proj = fx * dx + fy * dy
        c = fx * fx + fy * fy - r * r
        disc = proj * proj - c
        if disc < 0:
            continue
        t = proj - math.sqrt(disc)
        if 0 <= t < best:
            best = t
            best_is_circle = True
    if best > max_range:
        return max_range, False
    return best, best_is_circle


def scene_primitives(config):
    """Segments and circles of a world config, built from scratch."""
    w, l = config.room_width, config.room_length
    segments = [((0, 0), (w, 0)), ((w, 0), (w, l)), ((w, l), (0, l)), ((0, l), (0, 0))]
    for xmin, ymin, xmax, ymax in config.obstacles:
        pts = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        for i in range(4):
            segments.append((pts[i], pts[(i + 1) % 4]))
    d = config.dolly_pose
    cy, sy = math.cos(d.yaw), math.sin(d.yaw)
    circles = []
    for lx, ly in ((0.615, 0.41), (-0.615, 0.41), (-0.615, -0.41), (0.615, -0.41)):
        circles.append(((d.x + cy * lx - sy * ly, d.y + sy * lx + cy * ly), 0.03))
    return segments, circles


def raycast_oracle_many(origins, angles, segments, circles, max_range):
    dists = np.empty(len(angles))
    flags = np.empty(len(angles), dtype=bool)
    for i, ((ox, oy), ang) in enumerate(zip(origins, angles)):
        dists[i], flags[i] = raycast_oracle(ox, oy, ang, segments, circles, max_range)
    return dists, flags


def lidar_ray_geometry(pose, robot):
    """Sensor origins and per-ray world bearings for both LiDAR units,
    recomputed from the sensor-placement convention."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    hl, hw = 0.5 * robot.length, 0.5 * robot.width
    diag = math.atan2(hw, hl)
    origins, angles = [], []
    for corner, heading in (((hl, hw), pose.yaw + diag),
                            ((-hl, -hw), pose.yaw + math.pi + diag)):
        ox = pose.x + c * corner[0] - s * corner[1]
        oy = pose.y + s * corner[0] + c * corner[1]
        offs = np.linspace(-0.5 * robot.lidar_fov, 0.5 * robot.lidar_fov,
                           robot.lidar_beams_per_sensor)
        for o in offs:
            origins.append((ox, oy))
            angles.append(heading + o)
    return origins, np.array(angles)


def semantic_ray_geometry(pose, robot):
    if robot.semantic_rays == 1:
        offs = np.zeros(1)
    else:
        offs = np.linspace(-0.5 * robot.camera_fov, 0.5 * robot.camera_fov, robot.semantic_rays)
    origins = [(pose.x, pose.y)] * robot.semantic_rays
    return origins, pose.yaw + offs


def ray_fan_reference(poses, robot):
    """Per-ray origins and unit directions, each (len(poses), rays, 2), of
    the front LiDAR, the rear LiDAR and the semantic fan: the ray set-up of
    the per-ray cast, frozen."""
    sensor_local = np.array([[0.5 * robot.length, 0.5 * robot.width],
                             [-0.5 * robot.length, -0.5 * robot.width]])
    sensor_diag = math.atan2(0.5 * robot.width, 0.5 * robot.length)
    n = robot.lidar_beams_per_sensor
    lidar_offsets = np.linspace(-0.5 * robot.lidar_fov, 0.5 * robot.lidar_fov, n)
    m = robot.semantic_rays
    if m == 1:
        semantic_offsets = np.zeros(1)
    else:
        semantic_offsets = np.linspace(-0.5 * robot.camera_fov, 0.5 * robot.camera_fov, m)
    yaw = np.array([p.yaw for p in poses])
    position = np.array([[p.x, p.y] for p in poses])
    rot = np.array([[[math.cos(p.yaw), -math.sin(p.yaw)], [math.sin(p.yaw), math.cos(p.yaw)]]
                    for p in poses])
    sensors = sensor_local @ rot.transpose(0, 2, 1) + position[:, None, :]
    angles = np.concatenate([(yaw + sensor_diag)[:, None] + lidar_offsets,
                             (yaw + math.pi + sensor_diag)[:, None] + lidar_offsets,
                             yaw[:, None] + semantic_offsets], axis=1)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    origins = np.repeat(np.concatenate([sensors, position[:, None, :]], axis=1),
                        [n, n, m], axis=1)
    return origins, dirs


def cast_rays_reference(origins, dirs, segments, circle_centers, circle_radii, max_range):
    """The per-ray cast, frozen: origins and dirs (..., R, 2), every term
    computed on (..., S, R). ``geometry.cast_rays`` must match it bit for bit."""
    seg_dist = np.full(origins.shape[:-1], np.inf)
    if segments.shape[-3] > 0:
        ox, oy = origins[..., None, :, 0], origins[..., None, :, 1]
        dx, dy = dirs[..., None, :, 0], dirs[..., None, :, 1]
        ax, ay = segments[..., :, None, 0, 0], segments[..., :, None, 0, 1]
        ex = segments[..., :, None, 1, 0] - ax
        ey = segments[..., :, None, 1, 1] - ay
        denom = dx * ey - dy * ex
        aox, aoy = ax - ox, ay - oy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (aox * ey - aoy * ex) / denom
            s = (aox * dy - aoy * dx) / denom
        ok = (np.abs(denom) > 1e-12) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
        t = np.where(ok, t, np.inf)
        seg_dist = t.min(axis=-2)

    cir_dist = np.full(origins.shape[:-1], np.inf)
    if circle_centers.shape[-2] > 0:
        ocx = circle_centers[..., :, None, 0] - origins[..., None, :, 0]
        ocy = circle_centers[..., :, None, 1] - origins[..., None, :, 1]
        proj = ocx * dirs[..., None, :, 0] + ocy * dirs[..., None, :, 1]
        perp2 = (ocx * ocx + ocy * ocy) - proj**2
        disc = circle_radii[..., :, None] ** 2 - perp2
        root = np.sqrt(np.maximum(disc, 0.0))
        t = proj - root
        ok = (disc >= 0.0) & (t >= 0.0)
        t = np.where(ok, t, np.inf)
        cir_dist = t.min(axis=-2)

    first_is_circle = (cir_dist < seg_dist) & (cir_dist <= max_range)
    dist = np.minimum(np.minimum(seg_dist, cir_dist), max_range)
    return dist, first_is_circle


def check_collisions_reference(world):
    """``World._check_collisions`` without a broad phase, frozen: every leg,
    the walls and every obstacle get their exact test on every call.
    Returns (dolly leg hit, wall or obstacle hit)."""
    from docknav import geometry

    pose, robot, config = world.pose, world.robot, world.config
    corners = geometry.rect_corners(pose.x, pose.y, pose.yaw, robot.length, robot.width)
    collision_dolly = any(
        geometry.point_rect_distance(cx, cy, pose.x, pose.y, pose.yaw, robot.length, robot.width)
        < world.dolly.leg_radius
        for cx, cy in world.dolly.leg_centers(config.dolly_pose)
    )
    collision_other = not geometry.corners_inside_room(corners, config.room_width, config.room_length)
    if not collision_other:
        for ob in config.obstacles:
            if geometry.rects_overlap(corners, geometry.aabb_corners(*ob)):
                collision_other = True
                break
    return collision_dolly, collision_other


def step_reference(world, action):
    """One ``World.step`` from ``world``'s current state as the step was built
    from one scan, frozen: the per-ray fan and cast above, a float64
    (lidar, frame) split of the cast, then one concatenate of the shifted
    history blocks cast to the world's dtype. Collisions come from the
    exhaustive check above. Returns (observation, reward, flags, terminal)
    and leaves ``world`` unchanged."""
    from types import SimpleNamespace

    from docknav.world import (GOAL_DISTANCE, SLOW_SPEED, EventFlags, compute_reward,
                               integrate_unicycle, observation_slices)

    v = min(max(float(action[0]), -1.0), 1.0)
    omega = min(max(float(action[1]), -1.0), 1.0)
    pose = integrate_unicycle(world.pose, v, omega)
    dolly = world.config.dolly_pose
    goal = math.hypot(pose.x - dolly.x, pose.y - dolly.y) < GOAL_DISTANCE
    collision_dolly = collision_other = False
    if not goal:
        collision_dolly, collision_other = check_collisions_reference(SimpleNamespace(
            pose=pose, robot=world.robot, config=world.config, dolly=world.dolly))
    flags = EventFlags(goal, collision_dolly, collision_other, v < SLOW_SPEED)
    reward = compute_reward(flags, v)
    terminal = goal or collision_dolly or collision_other or world.t + 1 >= world.step_limit

    robot = world.robot
    origins, dirs = ray_fan_reference([pose], robot)
    dist, is_leg = cast_rays_reference(origins[0], dirs[0], world._segments, world._leg_centers,
                                       world._leg_radii, robot.lidar_max_range)
    n_lidar = 2 * robot.lidar_beams_per_sensor
    lidar = dist[:n_lidar] / robot.lidar_max_range
    frame = np.stack([dist[n_lidar:] / robot.lidar_max_range, is_leg[n_lidar:].astype(float)], axis=-1)
    prev, sl = world.observation(), observation_slices(robot)
    observation = np.concatenate([
        prev[sl["semantic"]][frame.size:], frame.ravel(), lidar,
        prev[sl["actions"]][2:], (v, omega), prev[sl["rewards"]][1:], (reward,),
    ]).astype(world.dtype, copy=False)
    return observation, reward, flags, terminal


def forward_oracle(net, x):
    """Re-evaluate a DenseNet with per-neuron dot products."""
    h = np.asarray(x, dtype=np.float64)
    for W, b, act in zip(net.weights, net.biases, net.activations):
        z = np.array([float(np.dot(h, W[:, j])) + b[j] for j in range(W.shape[1])])
        if act == "relu":
            h = np.where(z > 0, z, 0.0)
        elif act == "tanh":
            h = np.tanh(z)
        elif act == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-z))
        else:
            h = z
    return h


def finite_difference_grads(params, loss_fn, h=1e-5):
    """Central finite differences of a scalar loss over parameter arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def relative_grad_error(analytic, numeric):
    """Max elementwise relative error with an absolute floor for tiny grads."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def sample_task_reference(rng, config, robot=None, dolly=None):
    """``world.sample_task`` as it drew one scalar ``rng.uniform`` per value,
    frozen: each attempt draws room width, room length, both jitters,
    distance, bearing, dolly yaw and robot yaw, then the obstacle count and
    each obstacle's side, offset and size. The room test reads whole numpy
    columns and every obstacle gets its exact overlap test."""
    from docknav import geometry
    from docknav.world import (TASK_RETRY_CAP, DollySpec, Pose, RobotSpec, TaskSamplingError,
                               WorldConfig, task_from_config)

    robot = robot or RobotSpec()
    dolly = dolly or DollySpec()
    bearing_half = math.radians(config.bearing_half_angle_deg)
    relative_yaw_half = math.radians(config.relative_yaw_half_deg)
    dolly_yaw_half = math.radians(config.dolly_yaw_half_deg)
    jitter = config.position_jitter

    def inside(corners, room_w, room_l):
        x, y = corners[:, 0], corners[:, 1]
        return bool((x >= 0).all() and (x <= room_w).all() and (y >= 0).all()
                    and (y <= room_l).all())

    failures = {"pose_outside_room": 0, "start_collides": 0}
    for _ in range(TASK_RETRY_CAP):
        room_w = rng.uniform(config.room_min, config.room_max)
        room_l = rng.uniform(config.room_min, config.room_max)
        rx = 0.5 * room_w + rng.uniform(-jitter, jitter)
        ry = config.start_anchor_y + rng.uniform(-jitter, jitter)
        r = rng.uniform(config.distance_min, config.distance_max)
        bearing = 0.5 * math.pi + rng.uniform(-bearing_half, bearing_half)
        dollyx = rx + r * math.cos(bearing)
        dollyy = ry + r * math.sin(bearing)
        dolly_pose = Pose(dollyx, dollyy, 0.5 * math.pi + rng.uniform(-dolly_yaw_half, dolly_yaw_half))
        robot_yaw = bearing + rng.uniform(-relative_yaw_half, relative_yaw_half)
        robot_pose = Pose(rx, ry, robot_yaw)

        n_obs = int(rng.integers(config.obstacle_count_min, config.obstacle_count_max + 1))
        obstacles = []
        for _ in range(n_obs):
            side = 1.0 if rng.uniform() < 0.5 else -1.0
            offset = rng.uniform(config.obstacle_distance_min, config.obstacle_distance_max)
            half = 0.5 * rng.uniform(config.obstacle_side_min, config.obstacle_side_max)
            ocx = dollyx + side * offset
            obstacles.append((ocx - half, dollyy - half, ocx + half, dollyy + half))

        robot_corners = geometry.rect_corners(rx, ry, robot_yaw, robot.length, robot.width)
        dolly_corners = geometry.rect_corners(
            dollyx, dollyy, dolly_pose.yaw, dolly.length + 2 * dolly.leg_radius,
            dolly.width + 2 * dolly.leg_radius,
        )
        if not (inside(robot_corners, room_w, room_l) and inside(dolly_corners, room_w, room_l)):
            failures["pose_outside_room"] += 1
            continue
        if any(geometry.rects_overlap(robot_corners, geometry.aabb_corners(*ob)) for ob in obstacles):
            failures["start_collides"] += 1
            continue
        return task_from_config(WorldConfig(room_w, room_l, tuple(obstacles), dolly_pose, robot_pose))
    raise TaskSamplingError(f"retry cap {TASK_RETRY_CAP} exhausted: {failures}")


def select_task_reference(worker):
    """NavACL-Q task selection with one full World and single-row network
    forwards per candidate, and the chosen task scored again from scratch.

    Draws from ``worker.rng`` in the same order as ``Worker.select_task``.
    Returns (task, task_type, features, prediction).
    """
    from docknav import curriculum, world

    trainer = worker.trainer

    def evaluate(task):
        w = world.World(task.config, trainer.robot, trainer.dolly, trainer.config.step_limit,
                        trainer.dtype)
        obs = w.observation()
        action, _ = worker.actor.act(obs, mode="mean")
        q0 = float(worker.q1.forward(np.concatenate([obs, action])[None, :])[0, 0])
        features = np.array([task.distance, task.agent_clearance, task.goal_clearance,
                             task.relative_angle, q0])
        return features, float(worker.fpi.predict(features[None, :])[0])

    config = trainer.config
    pool = [worker._sample_task() for _ in range(config.candidate_pool)]
    mu, sigma = curriculum.fit_normal([evaluate(task)[1] for task in pool])
    task, task_type, _ = curriculum.get_dynamic_task(
        worker._sample_task, lambda task: evaluate(task)[1], mu, sigma, config, worker.rng)
    features, prediction = evaluate(task)
    return task, task_type, features, prediction


def _full_backward(net, tape, out_adjoint):
    """Reverse pass that always computes every parameter gradient and the
    input gradient (the network backward before it could skip either)."""
    from docknav.nn import _backprop_activation

    g = np.asarray(out_adjoint, dtype=net.dtype)
    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    for l in range(len(net.weights) - 1, -1, -1):
        g = _backprop_activation(net.activations[l], g, tape.pre[l], tape.outputs[l])
        d_weights[l] = tape.inputs[l].T @ g
        d_biases[l] = g.sum(axis=0)
        g = g @ net.weights[l].T
    return d_weights, d_biases, g


def _grads_list(d_weights, d_biases):
    """The per-layer gradients joined in the networks' flat layout: W0, b0, W1, b1, ..."""
    return [np.concatenate([g.ravel() for pair in zip(d_weights, d_biases) for g in pair])]


def sac_update_reference(learner, obs, act, rewards, terminals, next_obs, weights, rng):
    """One ``SacLearner.update`` as a frozen sequence: full backward passes
    whose unused gradients are thrown away, and sampled actions joined to the
    observations in float64 before the critics cast them to their dtype.

    Mutates ``learner`` like ``update`` and returns (|td error|, metrics).
    """
    from docknav.nn import adam_step
    from docknav.sac import LOG_2PI

    actor, critics, cfg = learner.actor, learner.critics, learner.config

    # TD target
    alpha = math.exp(learner.log_alpha)
    rewards = np.asarray(rewards, dtype=np.float64)
    terminals = np.asarray(terminals, dtype=bool)
    noise = rng.standard_normal((len(rewards), actor.act_dim))
    next_a, next_logp = actor.sample_with_noise(next_obs, noise)
    x = np.concatenate([next_obs, next_a], axis=1)
    min_q = np.minimum(critics.target_q1.forward(x)[:, 0], critics.target_q2.forward(x)[:, 0])
    targets = np.where(terminals, rewards, rewards + cfg.gamma * (min_q - alpha * next_logp))

    # critic step
    x = np.concatenate([obs, act], axis=1)
    weights = np.asarray(weights)
    batch = len(targets)
    v1, tape1 = critics.q1.forward_tape(x)
    v2, tape2 = critics.q2.forward_tape(x)
    e1 = v1[:, 0] - targets
    e2 = v2[:, 0] - targets
    closs = float(np.mean(weights * 0.5 * e1**2) + np.mean(weights * 0.5 * e2**2))
    dw1, db1, _ = _full_backward(critics.q1, tape1, (weights * e1 / batch)[:, None])
    dw2, db2, _ = _full_backward(critics.q2, tape2, (weights * e2 / batch)[:, None])
    adam_step(critics.q1.parameters(), _grads_list(dw1, db1), learner.adam_q1)
    adam_step(critics.q2.parameters(), _grads_list(dw2, db2), learner.adam_q2)

    # actor step
    noise = rng.standard_normal((len(obs), actor.act_dim))
    mu, log_std, gate, tape = actor.dist_params(obs, tape=True)
    sigma = np.exp(log_std)
    a = np.tanh(mu + sigma * noise)
    one_m_a2 = 1.0 - a**2
    logp = (-0.5 * LOG_2PI - log_std - 0.5 * noise**2).sum(axis=1)
    logp -= np.log(one_m_a2 + actor.tanh_eps).sum(axis=1)
    x = np.concatenate([obs, a], axis=1)
    v1, tape1 = critics.q1.forward_tape(x)
    v2, tape2 = critics.q2.forward_tape(x)
    use1 = v1[:, 0] <= v2[:, 0]
    aloss = float(np.mean(alpha * logp - np.where(use1, v1[:, 0], v2[:, 0])))
    adj1 = (-use1.astype(x.dtype) / batch)[:, None]
    adj2 = (-(~use1).astype(x.dtype) / batch)[:, None]
    dl_da = (_full_backward(critics.q1, tape1, adj1)[2][:, actor.obs_dim :]
             + _full_backward(critics.q2, tape2, adj2)[2][:, actor.obs_dim :])
    g_tanh = 2.0 * a * one_m_a2 / (one_m_a2 + actor.tanh_eps)
    d_mu = (alpha / batch) * g_tanh + dl_da * one_m_a2
    d_ls = (alpha / batch) * (-1.0 + g_tanh * sigma * noise) + dl_da * one_m_a2 * sigma * noise
    dwa, dba, _ = _full_backward(actor.net, tape, np.concatenate([d_mu, d_ls * gate], axis=1))
    adam_step(actor.net.parameters(), _grads_list(dwa, dba), learner.adam_actor)

    # temperature step and the periodic hard copy
    tloss = float(np.mean(-math.exp(learner.log_alpha) * (logp + cfg.target_entropy)))
    adam_step(learner._alpha_param, [np.array([tloss])], learner.adam_alpha)
    learner.n_updates += 1
    if learner.n_updates % cfg.target_update_interval == 0:
        critics.hard_update()
    metrics = {"critic_loss": closs, "actor_loss": aloss, "alpha_loss": tloss,
               "alpha": math.exp(learner.log_alpha), "mean_log_prob": float(logp.mean())}
    return np.abs(e1), metrics


def sumtree_find_prefix(tree, value):
    """Smallest leaf index of a ``SumTree`` whose cumulative sum reaches
    ``value``: one scalar descent, the sequential reference for
    ``SumTree.find_prefix_batch``."""
    i = 0
    while i < tree.capacity - 1:
        left = 2 * i + 1
        if value <= tree.nodes[left]:
            i = left
        else:
            value -= tree.nodes[left]
            i = left + 1
    return i - (tree.capacity - 1)


def sumtree_set_reference(tree, index, priority):
    """Scalar leaf write that walks to the root, repairing one ancestor per
    level. ``SumTree.set_many`` must leave the same bits as these writes made
    one leaf at a time."""
    i = tree.capacity - 1 + index
    tree.nodes[i] = priority
    while i:
        i = (i - 1) // 2
        left, right = 2 * i + 1, 2 * i + 2
        tree.nodes[i] = tree.nodes[left] + tree.nodes[right]


def max_leaf_reference(tree):
    """The largest leaf priority, by Python's ``max`` over the leaves."""
    return max(tree.nodes[tree.capacity - 1 :].tolist())


class ReplayReference:
    """The replay as it was when it stored every observation twice, once in
    ``obs`` and once in ``next_obs``, with its stratified sample, prefix walk
    and priority refresh frozen. Fed through :func:`replay_push_reference`,
    its arrays, tree and samples are what ``PrioritizedReplay`` must match
    bit for bit."""

    def __init__(self, capacity, obs_dim, act_dim=2, dtype=np.float32,
                 priority_exponent=0.6, priority_floor=1e-6):
        self.tree = SumTree(capacity)  # storage only: every write and walk is below
        self.capacity = capacity
        self.size = self.cursor = self.inserted_total = 0
        self.priority_exponent, self.priority_floor = priority_exponent, priority_floor
        self.obs = np.zeros((capacity, obs_dim), dtype=dtype)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=dtype)
        self.actions = np.zeros((capacity, act_dim), dtype=dtype)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.terminals = np.zeros(capacity, dtype=bool)
        self.worker_ids = np.zeros(capacity, dtype=np.int32)

    def _find_prefix_batch(self, values):
        tree = self.tree
        idx = np.zeros(len(values), dtype=np.int64)
        values = values.copy()
        while idx[0] < tree.capacity - 1:
            left = 2 * idx + 1
            left_sum = tree.nodes[left]
            go_left = values <= left_sum
            values = np.where(go_left, values, values - left_sum)
            idx = np.where(go_left, left, left + 1)
        return idx - (tree.capacity - 1)

    def sample(self, batch_size, b, rng):
        total = self.tree.total
        edges = total * np.arange(batch_size) / batch_size
        draws = edges + rng.uniform(0.0, total / batch_size, size=batch_size)
        idx = self._find_prefix_batch(draws)
        probs = self.tree.nodes[self.tree.capacity - 1 + idx] / total
        weights = (self.size * probs) ** (-b)
        weights = weights / weights.max()
        batch = {"obs": self.obs[idx], "actions": self.actions[idx],
                 "rewards": self.rewards[idx], "next_obs": self.next_obs[idx],
                 "terminals": self.terminals[idx], "worker_ids": self.worker_ids[idx]}
        return batch, idx, weights

    def update_priorities(self, indices, td_abs):
        stored = (np.abs(np.asarray(td_abs, dtype=np.float64)) + self.priority_floor
                  ) ** self.priority_exponent
        for i, priority in zip(np.asarray(indices).tolist(), stored.tolist()):
            sumtree_set_reference(self.tree, i, priority)


def replay_push_reference(replay, episode):
    """Insert an episode into a :class:`ReplayReference` one transition at a
    time, each at the maximum leaf priority (1.0 into an empty buffer)
    through a scalar tree write. ``PrioritizedReplay.push_episode`` must
    leave the same bits."""
    for t in range(episode.steps):
        priority = max_leaf_reference(replay.tree) if replay.size else 1.0
        i = replay.cursor
        replay.obs[i] = episode.observations[t]
        replay.actions[i] = episode.actions[t]
        replay.rewards[i] = episode.rewards[t]
        replay.next_obs[i] = episode.observations[t + 1]
        replay.terminals[i] = bool(episode.terminals[t])
        replay.worker_ids[i] = episode.worker_id
        sumtree_set_reference(replay.tree, i, priority)
        replay.cursor = (i + 1) % replay.capacity
        replay.size = min(replay.size + 1, replay.capacity)
        replay.inserted_total += 1
