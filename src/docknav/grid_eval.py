"""Grid-based evaluation: an exhaustive sweep of start positions and
orientations in a fixed held-out room, with per-cell success rates, summary
aggregation by orientation group, and SVG heatmaps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svg, world

INTRAPOLATED = (0.0, 45.0, -45.0, 90.0, -90.0)  # inside the training yaw range
EXTRAPOLATED = (135.0, -135.0, 180.0)

CELL_FIELDS = ["ix", "iy", "x", "y", "orientation_deg", "episodes", "successes",
               "success_rate", "valid"]
SUMMARY_FIELDS = ["row", "orientation_deg", "success_rate", "valid_cells", "invalid_cells"]


def orientation_name(orientation_deg: float) -> str:
    """An angle's part of its heatmap and trajectory file names."""
    return f"{orientation_deg:+.0f}"


@dataclass(frozen=True)
class GridEvalConfig:
    """The evaluation grid, built from a run's ``[eval]`` section by
    ``RunConfig.to_grid_eval_config``. ``repeats`` episodes run per valid
    cell; they are bit-identical replicas, since the world has no randomness
    and the policy is deterministic (``docknav eval-grid`` acts with the mean
    action)."""

    grid_extent: float
    grid_cell: float
    orientations_deg: tuple[float, ...]
    repeats: int
    grid_offset: float  # nearest grid row to the dolly center
    room_side: float

    @property
    def positions_per_side(self) -> int:
        return int(round(self.grid_extent / self.grid_cell)) + 1

    @property
    def total_episodes(self) -> int:
        return self.positions_per_side**2 * len(self.orientations_deg) * self.repeats

    def dolly_pose(self) -> world.Pose:
        cx = 0.5 * self.room_side
        cy = 0.5 * self.room_side + 0.5 * (self.grid_offset + self.grid_extent)
        return world.Pose(cx, cy, 0.5 * math.pi)

    def obstacles(self) -> tuple[tuple[float, float, float, float], ...]:
        """Two fixed boxes flanking the dolly, clear of the start grid."""
        d = self.dolly_pose()
        left = (d.x - 4.2, d.y - 1.0)
        right = (d.x + 4.0, d.y - 1.5)
        return (
            (left[0] - 0.5, left[1] - 0.5, left[0] + 0.5, left[1] + 0.5),
            (right[0] - 0.5, right[1] - 0.5, right[0] + 0.5, right[1] + 0.5),
        )

    def start_pose(self, ix: int, iy: int, orientation_deg: float) -> world.Pose:
        """Cell (ix, iy) of the grid in front of the dolly; orientation 0
        faces the dolly along +y, negative angles turn toward +x."""
        d = self.dolly_pose()
        x = d.x - 0.5 * self.grid_extent + ix * self.grid_cell
        y = d.y - self.grid_offset - self.grid_extent + iy * self.grid_cell
        return world.Pose(x, y, 0.5 * math.pi + math.radians(orientation_deg))

    def world_config(self, ix: int, iy: int, orientation_deg: float) -> world.WorldConfig:
        return world.WorldConfig(
            room_width=self.room_side, room_length=self.room_side,
            obstacles=self.obstacles(), dolly_pose=self.dolly_pose(),
            robot_start=self.start_pose(ix, iy, orientation_deg),
        )


@dataclass
class GridEvalResult:
    config: GridEvalConfig
    successes: np.ndarray  # (orientations, ny, nx)
    episodes: np.ndarray  # episodes actually run per combo
    valid: np.ndarray  # (orientations, ny, nx) bool
    episodes_executed: int

    def rates(self) -> np.ndarray:
        """Success rate per cell, (orientations, ny, nx); 0 where no episode ran."""
        return np.divide(self.successes, self.episodes, out=np.zeros(self.successes.shape),
                         where=self.episodes > 0)

    def cell_rows(self) -> list[list]:
        rows = []
        n = self.config.positions_per_side
        rates = self.rates().tolist()
        for io, odeg in enumerate(self.config.orientations_deg):
            for iy in range(n):
                for ix in range(n):
                    pose = self.config.start_pose(ix, iy, odeg)
                    rows.append([ix, iy, f"{pose.x:.3f}", f"{pose.y:.3f}", odeg,
                                 int(self.episodes[io, iy, ix]), int(self.successes[io, iy, ix]),
                                 repr(rates[io][iy][ix]), int(self.valid[io, iy, ix])])
        return rows

    def orientation_mean(self, odeg: float) -> tuple[float, int, int]:
        """(mean success over valid cells, valid count, invalid count).

        Plain sequential arithmetic over cells in CSV row order, so the value
        recomputes exactly from the emitted integer columns.
        """
        io = self.config.orientations_deg.index(odeg)
        valid = self.valid[io].ravel()
        rates = self.rates()[io].ravel()[valid].tolist()
        n_invalid = valid.size - len(rates)
        if not rates:
            return 0.0, 0, n_invalid
        return sum(rates) / len(rates), len(rates), n_invalid

    def summary_rows(self) -> list[list]:
        """Per-orientation means plus the intrapolated / extrapolated / grand
        aggregate rows (each aggregate is a mean of per-orientation means)."""
        rows = []
        per_orientation = {}
        for odeg in self.config.orientations_deg:
            mean, nv, ni = self.orientation_mean(odeg)
            per_orientation[odeg] = mean
            rows.append(["orientation", odeg, repr(mean), nv, ni])

        def group_mean(group):
            vals = [per_orientation[o] for o in self.config.orientations_deg if o in group]
            return sum(vals) / len(vals) if vals else 0.0

        rows.append(["intrapolated", "", repr(group_mean(INTRAPOLATED)), "", ""])
        rows.append(["extrapolated", "", repr(group_mean(EXTRAPOLATED)), "", ""])
        grand = sum(per_orientation.values()) / len(per_orientation)
        rows.append(["all", "", repr(grand), "", ""])
        return rows


def run_grid_eval(
    policy,
    config: GridEvalConfig,
    out_dir=None,
    robot: world.RobotSpec | None = None,
    step_limit: int = world.DEFAULT_STEP_LIMIT,
    dtype=np.float32,
    trajectory_limit: int = 0,
) -> GridEvalResult:
    """Run every (position, orientation, repeat) episode under the given
    deterministic policy (``policy(obs) -> action``).

    Start cells whose footprint intersects walls or obstacles are marked
    invalid and excluded from the means with a count report; starts that
    merely touch dolly legs run normally and fail on contact.
    """
    robot = robot or world.RobotSpec()
    n = config.positions_per_side
    n_or = len(config.orientations_deg)
    successes = np.zeros((n_or, n, n), dtype=np.int64)
    episodes = np.zeros((n_or, n, n), dtype=np.int64)
    valid = np.ones((n_or, n, n), dtype=bool)
    executed = 0
    traj_saved = 0
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for io, odeg in enumerate(config.orientations_deg):
        for iy in range(n):
            for ix in range(n):
                wcfg = config.world_config(ix, iy, odeg)
                record = traj_saved < trajectory_limit and out_dir is not None
                w = world.World(wcfg, robot, step_limit=step_limit, dtype=dtype,
                                record_trajectory=record)
                if w.start_state_unreachable():
                    valid[io, iy, ix] = False
                    continue
                for rep in range(config.repeats):
                    if rep > 0:
                        w.reset()
                    flags = _run_episode(w, policy)
                    executed += 1
                    episodes[io, iy, ix] += 1
                    if flags.goal:
                        successes[io, iy, ix] += 1
                if record:
                    w.save_trajectory(out_dir / f"traj_o{orientation_name(odeg)}_x{ix}_y{iy}.jsonl")
                    traj_saved += 1

    result = GridEvalResult(config, successes, episodes, valid, executed)
    if out_dir:
        _write_outputs(result, out_dir)
    return result


def _run_episode(w: world.World, policy) -> world.EventFlags:
    obs = w.observation()
    out = None
    while not w.terminal:
        out = w.step(policy(obs))
        obs = out.observation
    return out.flags


def _write_outputs(result: GridEvalResult, out_dir: Path) -> None:
    cfg = result.config
    with open(out_dir / "grid_cells.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CELL_FIELDS)
        wr.writerows(result.cell_rows())
    with open(out_dir / "grid_summary.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SUMMARY_FIELDS)
        wr.writerows(result.summary_rows())
    d = cfg.dolly_pose()
    meta = {
        "episodes_executed": result.episodes_executed,
        "grid_offset": cfg.grid_offset,
        "grid_extent": cfg.grid_extent,
        "grid_cell": cfg.grid_cell,
        "repeats": cfg.repeats,
        "orientations_deg": list(cfg.orientations_deg),
        "room_side": cfg.room_side,
        "dolly_pose": {"x": d.x, "y": d.y, "yaw": d.yaw},
        "obstacles": [list(ob) for ob in cfg.obstacles()],
    }
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    rates = result.rates().tolist()
    for io, odeg in enumerate(cfg.orientations_deg):
        values = [[rate if ok else None for rate, ok in zip(rate_row, valid_row)]
                  for rate_row, valid_row in zip(rates[io], result.valid[io].tolist())]
        svg.write_heatmap(out_dir / f"heatmap_{orientation_name(odeg)}.svg", values,
                          f"success rate, start orientation {odeg:+.0f} deg")
