"""Planar geometry kernels: oriented rectangles, ray casting, overlap tests.

Everything here works on plain numpy arrays. The hot path is one fused cast
per observation: 288 rays (two 128-beam LiDARs and the 32-ray semantic fan)
that leave from 3 origins, so :func:`cast_rays` computes its origin terms
once per origin. The per-step collision check runs the exact tests below
only for the walls, obstacles and dolly legs that the world's broad phase
cannot rule out. Angles are radians, distances meters.

What one cast costs, measured with one pose, 288 rays and 4 dolly legs on a
2-core host (numpy 2.4.6, one BLAS thread): about 40 us fixed plus 1.5 us
per segment, so 59 us for the 12 segments of the grid room. Most of that is
numpy's per-call overhead and whole passes over (S, R) float64 planes, not
arithmetic. A product that broadcasts an (S, 1) operand against a (1, R) one
costs two to three times a product of two (S, R) arrays (2.7 against 0.95 us
at S = 12), so :func:`cast_rays` spreads the directions over the rows once.
Two further ideas, measured:

- Culling the segments beyond ``max_range`` does not pay. On 4146 recorded
  grid poses, 9.6 of the 12 segments were within reach, so culling saves
  about 2.4 x 1.5 us, less than the 4.9 us that building the keep-mask
  costs. With the mask precomputed, the previous cast went only from 69.0
  to 68.8 us.
- Batching scenes pays in training, where the task-selection pool is cast
  16 scenes per call (``world.START_SCAN_CHUNK``): in ``desk_nav.ini``
  trainers such a call took 43 to 45 us a scene against 96 to 102 us for a
  single cast, and after a process's first trainer it averaged under 2
  minor faults. Fresh-process microbenchmarks, where glibc hands the freed
  heap top back after every call, overstate its cost.

Measure again before building on either.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def rect_corners(cx: float, cy: float, yaw: float, length: float, width: float) -> np.ndarray:
    """Corners of an oriented rectangle, counter-clockwise, shape (4, 2).

    The rectangle's long axis (``length``) points along ``yaw``.
    """
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def aabb_corners(xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
    return np.array([[xmax, ymax], [xmin, ymax], [xmin, ymin], [xmax, ymin]])


def cast_rays(
    points: np.ndarray,
    counts,
    dx: np.ndarray,
    dy: np.ndarray,
    segments: np.ndarray,
    circle_centers: np.ndarray,
    circle_radii: np.ndarray,
    max_range: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cast rays that leave from a few shared points against line segments
    and circles.

    points: (P, 2) ray origins; counts: (P,) rays per origin, so the first
    ``counts[0]`` rays leave from ``points[0]`` and so on.
    dx, dy: (R,) components of the unit ray directions, R = sum(counts).
    segments: (S, 2, 2) endpoint pairs; may be empty.
    circle_centers / circle_radii: (C, 2) and (C,); may be empty.

    Every array argument may carry the same leading batch axes (radii may omit
    them), so several scenes cast in one call: points (B, P, 2) and dx (B, R)
    against segments (B, S, 2, 2) and circles (B, C, 2). Each ray's result
    depends on its own scene alone, bit for bit, whatever else is in the batch.

    The terms that depend on a primitive and an origin alone are computed
    once per origin, on (S, P), and repeated out to the rays; each element
    is the same operation on the same values as a per-ray cast. The cost
    model is in the module docstring: a fixed part, a part per segment, and
    the price of broadcasting a ray axis against a primitive axis, which
    this cast pays only once.

    Returns ``(distances, first_hit_is_circle)`` where distances are clipped
    to ``max_range`` (no hit reads as ``max_range``) and the mask is True iff
    the nearest hit within range is a circle.
    """
    n_seg = segments.shape[-3]
    n_prim = n_seg + circle_centers.shape[-2]
    ox, oy = points[..., None, :, 0], points[..., None, :, 1]
    # the per-origin terms of the K = S + C primitives, segments first, one
    # (..., K, P) plane each: (ax - ox, ay - oy, t numerator) of a segment,
    # (cx - ox, cy - oy, |c - o|^2) of a circle
    per_origin = np.empty((3,) + dx.shape[:-1] + (n_prim, points.shape[-2]))
    seg, cir = per_origin[..., :n_seg, :], per_origin[..., n_seg:, :]
    ax, ay = segments[..., :, None, 0, 0], segments[..., :, None, 0, 1]
    ex = segments[..., :, None, 1, 0] - ax
    ey = segments[..., :, None, 1, 1] - ay
    aox = np.subtract(ax, ox, out=seg[0])
    aoy = np.subtract(ay, oy, out=seg[1])
    np.subtract(aox * ey, aoy * ex, out=seg[2])
    ocx = np.subtract(circle_centers[..., :, None, 0], ox, out=cir[0])
    ocy = np.subtract(circle_centers[..., :, None, 1], oy, out=cir[1])
    np.add(ocx * ocx, ocy * ocy, out=cir[2])
    per_ray = per_origin.repeat(counts, axis=-1)
    # the directions spread over every primitive's row once, so no product
    # below broadcasts a ray axis against a primitive axis
    dirs = np.empty((2,) + per_ray.shape[1:])
    dirs[0] = dx[..., None, :]
    dirs[1] = dy[..., None, :]

    # segments: the parametric cross-product solve
    dx, dy = dirs[..., :n_seg, :]
    aox, aoy, t_num = per_ray[..., :n_seg, :]
    denom = dx * ey - dy * ex
    # t and s overwrite the planes they are computed from: fewer temporaries
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(t_num, denom, out=t_num)
        s = np.multiply(aox, dy, out=aox)
        s -= np.multiply(aoy, dx, out=aoy)
        s /= denom
    ok = (np.abs(denom) > 1e-12) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
    seg_dist = np.minimum.reduce(np.where(ok, t, np.inf), axis=-2, initial=np.inf)

    # circles: the nearer root of the quadratic in the ray parameter
    dx, dy = dirs[..., n_seg:, :]
    ocx, ocy, oc2 = per_ray[..., n_seg:, :]
    proj = ocx * dx + ocy * dy
    disc = circle_radii[..., :, None] ** 2 - (oc2 - proj * proj)
    t = proj - np.sqrt(np.maximum(disc, 0.0))
    ok = (disc >= 0.0) & (t >= 0.0)
    cir_dist = np.minimum.reduce(np.where(ok, t, np.inf), axis=-2, initial=np.inf)

    first_is_circle = (cir_dist < seg_dist) & (cir_dist <= max_range)
    dist = np.minimum(np.minimum(seg_dist, cir_dist), max_range)
    return dist, first_is_circle


def _project(corners: np.ndarray, axis: np.ndarray) -> tuple[float, float]:
    p = corners @ axis
    return p.min(), p.max()


def rects_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    """Separating-axis overlap test for two convex quads given as corners."""
    for corners in (ca, cb):
        for i in (0, 1):
            edge = corners[i + 1] - corners[i]
            axis = np.array([-edge[1], edge[0]])
            amin, amax = _project(ca, axis)
            bmin, bmax = _project(cb, axis)
            if amax < bmin or bmax < amin:
                return False
    return True


def point_rect_distance(
    px: float, py: float, cx: float, cy: float, yaw: float, length: float, width: float
) -> float:
    """Distance from a point to an oriented rectangle (0 inside)."""
    dx, dy = px - cx, py - cy
    c, s = math.cos(yaw), math.sin(yaw)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    qx = max(abs(lx) - 0.5 * length, 0.0)
    qy = max(abs(ly) - 0.5 * width, 0.0)
    return math.hypot(qx, qy)


def point_aabb_distance(px: float, py: float, xmin: float, ymin: float, xmax: float, ymax: float) -> float:
    qx = max(xmin - px, 0.0, px - xmax)
    qy = max(ymin - py, 0.0, py - ymax)
    return math.hypot(qx, qy)


def corners_inside_room(corners: np.ndarray, room_w: float, room_l: float) -> bool:
    """Whether every corner lies in the room; a NaN coordinate reads as outside."""
    return all(0.0 <= x <= room_w and 0.0 <= y <= room_l for x, y in corners.tolist())
