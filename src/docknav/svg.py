"""Tiny deterministic SVG writers for success heatmaps and trajectory replays.
No plotting dependency; the files are plain shapes with fixed formatting.
"""

from __future__ import annotations

import math

from .world import DollySpec

_LOW = (44, 62, 144)  # near-zero success
_HIGH = (247, 217, 56)  # certain success


def _cell_color(value: float | None) -> str:
    if value is None:
        return "#b0b0b0"
    v = min(max(value, 0.0), 1.0)
    r, g, b = (round(lo + v * (hi - lo)) for lo, hi in zip(_LOW, _HIGH))
    return f"#{r:02x}{g:02x}{b:02x}"


def write_heatmap(path, values, title: str) -> None:
    """Grid heatmap; ``values`` is a list of rows (row 0 drawn at the bottom),
    entries in [0, 1] or None for invalid cells."""
    ny = len(values)
    nx = len(values[0])
    cell_px = 36
    margin = 44
    width = nx * cell_px + 2 * margin
    height = ny * cell_px + 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
    ]
    for iy, row in enumerate(values):
        for ix, value in enumerate(row):
            x = margin + ix * cell_px
            y = margin + (ny - 1 - iy) * cell_px
            lines.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{_cell_color(value)}" stroke="#444" stroke-width="0.5"/>'
            )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory(path, scene: dict, records: list[dict]) -> None:
    """Room, obstacles, dolly footprint and legs, and the driven path."""
    room_w = scene["room_width"]
    room_l = scene["room_length"]
    scale = 600 / max(room_w, room_l)  # the longer room side spans 600 px
    pad = 20

    def sx(x):
        return pad + x * scale

    def sy(y):
        return pad + (room_l - y) * scale  # y up

    width = sx(room_w) + pad
    height = sy(0) + pad
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{sx(0):.1f}" y="{sy(room_l):.1f}" width="{room_w * scale:.1f}" '
        f'height="{room_l * scale:.1f}" fill="#f4f4f4" stroke="black" stroke-width="2"/>',
    ]
    for xmin, ymin, xmax, ymax in scene.get("obstacles", []):
        lines.append(
            f'<rect x="{sx(xmin):.1f}" y="{sy(ymax):.1f}" width="{(xmax - xmin) * scale:.1f}" '
            f'height="{(ymax - ymin) * scale:.1f}" fill="#8a6d3b"/>'
        )
    dolly = scene.get("dolly")
    if dolly:
        c, s = math.cos(dolly["yaw"]), math.sin(dolly["yaw"])
        spec = DollySpec()
        hl, hw = 0.5 * spec.length, 0.5 * spec.width
        pts = []
        for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            wx = dolly["x"] + c * lx - s * ly
            wy = dolly["y"] + s * lx + c * ly
            pts.append(f"{sx(wx):.1f},{sy(wy):.1f}")
            lines.append(f'<circle cx="{sx(wx):.1f}" cy="{sy(wy):.1f}" r="3" fill="#1b6ca8"/>')
        lines.append(f'<polygon points="{" ".join(pts)}" fill="none" stroke="#1b6ca8" stroke-width="1.5"/>')
    if records:
        pts = " ".join(f"{sx(r['x']):.1f},{sy(r['y']):.1f}" for r in records)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#c0392b" stroke-width="1.5"/>')
        first, last = records[0], records[-1]
        lines.append(f'<circle cx="{sx(first["x"]):.1f}" cy="{sy(first["y"]):.1f}" r="4" fill="black"/>')
        end_flags = last.get("flags", {})
        end_color = "#27ae60" if end_flags.get("goal") else "#c0392b"
        lines.append(f'<circle cx="{sx(last["x"]):.1f}" cy="{sy(last["y"]):.1f}" r="4" fill="{end_color}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
