import csv
import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from docknav import geometry, reporting
from docknav.config import RunConfig
from docknav.grid_eval import GridEvalConfig, run_grid_eval
from docknav.sac import Actor
from docknav.world import RobotSpec, World, observation_dim

TINY_ROBOT = RobotSpec(lidar_beams_per_sensor=8, semantic_rays=4)


def straight_policy(obs):
    return np.array([1.0, 0.0])


def frozen_policy(obs):
    return np.array([0.0, 0.0])


def small_grid(**overrides):
    base = dict(grid_extent=1.0, grid_cell=0.5, orientations_deg=(0.0, 90.0),
                repeats=2, grid_offset=1.0, room_side=14.0)
    base.update(overrides)
    return GridEvalConfig(**base)


# -- episode accounting -------------------------------------------------------


def test_total_episode_closed_form():
    cfg = RunConfig().to_grid_eval_config()
    assert cfg.positions_per_side == 11
    assert cfg.total_episodes == 11 * 11 * 8 * 9 == 8712
    small = small_grid()
    assert small.positions_per_side == 3
    assert small.total_episodes == 3 * 3 * 2 * 2


def test_grid_geometry_conventions():
    cfg = RunConfig().to_grid_eval_config()
    dolly = cfg.dolly_pose()
    nearest = cfg.start_pose(5, 10, 0.0)
    assert dolly.y - nearest.y == pytest.approx(cfg.grid_offset)
    assert nearest.x == pytest.approx(dolly.x)
    # orientation 0 faces the dolly along +y; -90 faces +x
    assert cfg.start_pose(0, 0, 0.0).yaw == pytest.approx(math.pi / 2)
    assert cfg.start_pose(0, 0, -90.0).yaw == pytest.approx(0.0)
    for ob in cfg.obstacles():
        cx, cy = 0.5 * (ob[0] + ob[2]), 0.5 * (ob[1] + ob[3])
        d = math.hypot(cx - dolly.x, cy - dolly.y)
        assert 2.0 <= d <= 5.0


def test_never_moving_policy_times_out_everywhere(tmp_path):
    result = run_grid_eval(frozen_policy, small_grid(), out_dir=tmp_path / "frozen",
                           robot=TINY_ROBOT, step_limit=10)
    assert result.episodes_executed == small_grid().total_episodes
    assert result.successes.sum() == 0
    for row in result.summary_rows():
        if row[0] == "orientation":
            assert float(row[2]) == 0.0


def test_straight_policy_succeeds_straight_ahead(tmp_path):
    cfg = small_grid(orientations_deg=(0.0,), repeats=3)
    result = run_grid_eval(straight_policy, cfg, robot=TINY_ROBOT, step_limit=200)
    # the center column points straight at the dolly center: guaranteed dock
    n = cfg.positions_per_side
    center_ix = n // 2
    for iy in range(n):
        assert result.successes[0, iy, center_ix] == 3


def test_invalid_cells_excluded_with_counts(tmp_path):
    # an obstacle square sitting on part of the grid invalidates those spawns
    class BlockedGrid(GridEvalConfig):
        def obstacles(self):
            d = self.dolly_pose()
            return ((d.x - 2.0, d.y - 3.0, d.x - 1.0, d.y - 2.0),)

    cfg = BlockedGrid(grid_extent=2.0, grid_cell=0.5, orientations_deg=(0.0,), repeats=1,
                      grid_offset=1.0, room_side=14.0)
    result = run_grid_eval(frozen_policy, cfg, out_dir=tmp_path / "blocked",
                           robot=TINY_ROBOT, step_limit=5)
    assert (~result.valid).sum() > 0
    assert result.episodes_executed == result.episodes.sum()
    assert result.episodes_executed < cfg.total_episodes
    mean, nv, ni = result.orientation_mean(0.0)
    assert nv + ni == cfg.positions_per_side**2
    assert ni == int((~result.valid).sum())
    rows = (tmp_path / "blocked" / "grid_cells.csv").read_text().splitlines()
    invalid_rows = [r for r in rows[1:] if r.endswith(",0")]
    assert len(invalid_rows) == ni


def test_summary_recomputes_from_cell_csv(tmp_path):
    out = tmp_path / "grid"
    cfg = small_grid()
    run_grid_eval(straight_policy, cfg, out_dir=out, robot=TINY_ROBOT, step_limit=60)
    with open(out / "grid_cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    with open(out / "grid_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    # zero-discrepancy audit: recompute every summary value from the exact
    # integer columns of the per-cell CSV, in row order
    per_or = {}
    for row in summary:
        if row["row"] != "orientation":
            continue
        odeg = row["orientation_deg"]
        rates = [int(c["successes"]) / int(c["episodes"]) for c in cells
                 if c["orientation_deg"] == odeg and c["valid"] == "1" and int(c["episodes"])]
        recomputed = sum(rates) / len(rates)
        assert float(row["success_rate"]) == recomputed
        per_or[float(odeg)] = recomputed
    by_row = {r["row"]: float(r["success_rate"]) for r in summary if r["row"] != "orientation"}
    order = [float(c) for c in dict.fromkeys(x["orientation_deg"] for x in cells)]
    intr = [per_or[k] for k in order if k in (0.0, 45.0, -45.0, 90.0, -90.0)]
    extr = [per_or[k] for k in order if k in (135.0, -135.0, 180.0)]
    assert by_row["intrapolated"] == sum(intr) / len(intr)
    if extr:
        assert by_row["extrapolated"] == sum(extr) / len(extr)
    assert by_row["all"] == sum(per_or[k] for k in order) / len(order)


def test_outputs_schema_and_metadata(tmp_path):
    out = tmp_path / "outputs"
    cfg = small_grid()
    run_grid_eval(frozen_policy, cfg, out_dir=out, robot=TINY_ROBOT, step_limit=5,
                  trajectory_limit=2)
    header = (out / "grid_cells.csv").read_text().splitlines()[0]
    assert header == "ix,iy,x,y,orientation_deg,episodes,successes,success_rate,valid"
    header = (out / "grid_summary.csv").read_text().splitlines()[0]
    assert header == "row,orientation_deg,success_rate,valid_cells,invalid_cells"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["grid_offset"] == cfg.grid_offset
    assert meta["episodes_executed"] == cfg.total_episodes
    assert (out / "heatmap_+0.svg").exists()
    assert (out / "heatmap_+90.svg").exists()
    trajs = list(out.glob("traj_*.jsonl"))
    assert len(trajs) == 2
    first = json.loads(trajs[0].read_text().splitlines()[0])
    assert first["type"] == "scene"


# -- repeats replay ---------------------------------------------------------------


class FreshWorldPerRepeat(World):
    """A world that starts each repeat as a newly built one, keeping no step."""

    def reset(self):
        vars(self).update(vars(World(self.config, self.robot, self.dolly, self.step_limit,
                                     self.dtype, self.record_trajectory)))
        return self.observation()


def test_replayed_repeats_equal_fresh_worlds_byte_for_byte(tmp_path, monkeypatch):
    # an untrained desk actor acting with its mean: the grid's files, the
    # trajectories among them, and every policy input and output are those
    # of the same grid with a newly built world per repeat
    actor = Actor(observation_dim(), 2, (128, 128), np.random.default_rng(5), dtype=np.float32)
    cfg = small_grid(orientations_deg=(0.0, 90.0, 180.0), repeats=3)
    runs = {}
    for name in ("replayed", "fresh"):
        if name == "fresh":
            monkeypatch.setattr("docknav.grid_eval.world.World", FreshWorldPerRepeat)
        calls = []

        def policy(obs):
            action = actor.act(obs, mode="mean")[0]
            calls.append(obs.tobytes() + action.tobytes())
            return action

        out = tmp_path / name
        run_grid_eval(policy, cfg, out_dir=out, step_limit=40, dtype=np.float32,
                      trajectory_limit=100)
        runs[name] = calls, {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(runs["replayed"][1]) == 3 + 3 + 9 * 3  # csvs and metadata, heatmaps, trajectories
    assert runs["replayed"] == runs["fresh"]


def test_repeats_cast_no_more_rays(monkeypatch):
    # a repeat under a deterministic policy replays: three repeats per cell
    # cast as often as one
    calls = []
    cast = geometry.cast_rays

    def counted(*args, **kwargs):
        calls.append(1)
        return cast(*args, **kwargs)

    monkeypatch.setattr(geometry, "cast_rays", counted)
    counts = []
    for repeats in (1, 3):
        calls.clear()
        result = run_grid_eval(straight_policy, small_grid(repeats=repeats), robot=TINY_ROBOT,
                               step_limit=60)
        assert result.episodes_executed == small_grid(repeats=repeats).total_episodes
        counts.append(len(calls))
    assert counts[0] > small_grid(repeats=1).total_episodes
    assert counts[0] == counts[1]


# -- reporting ------------------------------------------------------------------


def test_moving_average_constant_window():
    values = np.ones(700)
    ma = reporting.moving_average(values, window=500)
    assert ma[-1] == 1.0
    assert np.all(ma == 1.0)


def test_moving_average_partial_prefix():
    ma = reporting.moving_average([1.0, 0.0, 1.0, 1.0], window=2)
    assert ma == pytest.approx([1.0, 0.5, 0.5, 1.0])


def test_histogram_counts_sum_to_window_episodes():
    rng = np.random.default_rng(0)
    n = 25_000
    episodes = np.arange(1, n + 1)
    distances = rng.uniform(1.5, 5.0, n)
    rows = reporting.distance_histograms(distances, episodes, window=10_000)
    windows = {}
    for start, end, lo, hi, count in rows:
        windows.setdefault((start, end), 0)
        windows[(start, end)] += count
    assert windows[(1, 10_000)] == 10_000
    assert windows[(10_001, 20_000)] == 10_000
    assert windows[(20_001, 25_000)] == 5_000


def test_histogram_no_out_of_range_drops():
    episodes = np.arange(1, 6)
    distances = np.array([0.3, 1.5, 5.0, 9.0, 3.2])  # includes out-of-range values
    rows = reporting.distance_histograms(distances, episodes, window=10)
    assert sum(r[4] for r in rows) == 5


def test_uniform_distances_pass_chi_square():
    rng = np.random.default_rng(1)
    n = 20_000
    distances = rng.uniform(1.5, 5.0, n)
    rows = reporting.distance_histograms(distances, np.arange(1, n + 1), window=n)
    counts = [r[4] for r in rows]
    _, p = scipy_stats.chisquare(counts)
    assert p > 0.01


def test_episodes_to_sustained_success():
    flags = [0] * 10 + [1] * 20
    assert reporting.episodes_to_sustained_success(flags, 0.5, window=4) == 12
    assert reporting.episodes_to_sustained_success([0] * 30, 0.5, window=4) is None
