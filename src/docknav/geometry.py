"""Planar geometry kernels: oriented rectangles, ray casting, overlap tests.

Everything here works on plain numpy arrays. The hot path is one fused cast
per observation: 288 rays (two 128-beam LiDARs and the 32-ray semantic fan)
that leave from 3 origins, so :func:`cast_rays` computes its origin terms
once per origin. The per-step collision check runs the exact tests below
only for the walls, obstacles and dolly legs that the world's broad phase
cannot rule out. Angles are radians, distances meters.
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


def segments_from_corners(corners: np.ndarray) -> np.ndarray:
    """Closed polygon edges from a corner list, shape (n, 2, 2)."""
    nxt = np.roll(corners, -1, axis=0)
    return np.stack([corners, nxt], axis=1)


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
    is the same operation on the same values as a per-ray cast.

    Returns ``(distances, first_hit_is_circle)`` where distances are clipped
    to ``max_range`` (no hit reads as ``max_range``) and the mask is True iff
    the nearest hit within range is a circle.
    """
    # one (..., S, R) plane per vector component, so no temporary is strided
    dx, dy = dx[..., None, :], dy[..., None, :]
    ox, oy = points[..., None, :, 0], points[..., None, :, 1]
    seg_dist = np.full(dx.shape[:-2] + dx.shape[-1:], np.inf)
    if segments.shape[-3] > 0:
        # the parametric cross-product solve
        ax, ay = segments[..., :, None, 0, 0], segments[..., :, None, 0, 1]
        ex = segments[..., :, None, 1, 0] - ax
        ey = segments[..., :, None, 1, 1] - ay
        aox, aoy = ax - ox, ay - oy
        aox, aoy, t_num = np.repeat(np.stack([aox, aoy, aox * ey - aoy * ex]), counts, axis=-1)
        denom = dx * ey - dy * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t_num / denom
            s = (aox * dy - aoy * dx) / denom
        ok = (np.abs(denom) > 1e-12) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
        seg_dist = np.where(ok, t, np.inf).min(axis=-2)

    cir_dist = np.full(seg_dist.shape, np.inf)
    if circle_centers.shape[-2] > 0:
        ocx = circle_centers[..., :, None, 0] - ox
        ocy = circle_centers[..., :, None, 1] - oy
        ocx, ocy, oc2 = np.repeat(np.stack([ocx, ocy, ocx * ocx + ocy * ocy]), counts, axis=-1)
        proj = ocx * dx + ocy * dy
        perp2 = oc2 - proj**2
        disc = circle_radii[..., :, None] ** 2 - perp2
        root = np.sqrt(np.maximum(disc, 0.0))
        t = proj - root
        ok = (disc >= 0.0) & (t >= 0.0)
        cir_dist = np.where(ok, t, np.inf).min(axis=-2)

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
    x, y = corners[:, 0], corners[:, 1]
    return bool((x >= 0).all() and (x <= room_w).all() and (y >= 0).all() and (y <= room_l).all())
