"""Independent reference implementations used as test oracles.

These deliberately re-derive results through different formulas than the
package code (implicit-line intersection and hit-point projection instead of
the parametric cross-product solve, substep Euler integration instead of
closed-form arcs, plain loops instead of tapes) so agreement is meaningful.
"""

import math

import numpy as np


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


def select_task_reference(worker):
    """NavACL-Q task selection with one full World and single-row network
    forwards per candidate, and the chosen task scored again from scratch.

    Draws from ``worker.rng`` in the same order as ``Worker.select_task``.
    Returns (task, task_type, features, prediction).
    """
    from docknav import curriculum, world

    trainer = worker.trainer

    def evaluate(task):
        w = world.World(task.config, trainer.robot, trainer.dolly, trainer.step_limit,
                        trainer.dtype)
        obs = w.observation()
        action, _ = worker.actor.act(obs, mode="mean")
        q0 = float(worker.q1.forward(np.concatenate([obs, action]))[0])
        features = np.array([task.distance, task.agent_clearance, task.goal_clearance,
                             task.relative_angle, q0])
        return features, worker.fpi.predict_one(features)

    config = trainer.navacl_config
    pool = [worker._sample_task() for _ in range(config.candidate_pool)]
    mu, sigma = curriculum.fit_normal([evaluate(task)[1] for task in pool])
    task, task_type, _ = curriculum.get_dynamic_task(
        worker._sample_task, lambda task: evaluate(task)[1], mu, sigma, config, worker.rng)
    features, prediction = evaluate(task)
    return task, task_type, features, prediction
