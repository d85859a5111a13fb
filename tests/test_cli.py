import json

import numpy as np
import pytest

import docknav
from docknav import cli
from docknav.world import Pose, World, WorldConfig


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(
        "[run]\n"
        "seeds = 1\n"
        "episode_budget = 3\n"
        "workers = 1\n"
        "updates_per_episode = 1\n"
        "replay_capacity = 512\n"
        "step_limit = 15\n"
        "dtype = float64\n"
        "[sac]\n"
        "batch_size = 8\n"
        "hidden = 8\n"
        "[world]\n"
        "distance_max = 3.0\n"
        "obstacle_count_min = 0\n"
        "obstacle_count_max = 1\n"
        "[curriculum]\n"
        "candidate_pool = 3\n"
        "result_batch_size = 4\n"
        "[eval]\n"
        "grid_extent = 1.0\n"
        "orientations_deg = 0\n"
        "repeats = 1\n"
    )
    return path


def test_train_then_eval_grid_and_histograms(tiny_ini, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(tiny_ini), "--out", str(out)])
    assert rc == 0
    seed_dir = out / "seed_1"
    for name in ("telemetry.csv", "curriculum.csv", "curves.csv", "final.ckpt"):
        assert (seed_dir / name).exists()
    assert (out / "effective_config.ini").exists()

    grid_out = tmp_path / "grid"
    rc = cli.main(["eval-grid", "--config", str(tiny_ini),
                   "--checkpoint", str(seed_dir / "final.ckpt"),
                   "--out", str(grid_out), "--trajectories", "1"])
    assert rc == 0
    assert (grid_out / "grid_summary.csv").exists()
    assert "executed" in capsys.readouterr().out

    hist_out = tmp_path / "hist.csv"
    rc = cli.main(["histograms", "--telemetry", str(seed_dir / "curriculum.csv"),
                   "--out", str(hist_out)])
    assert rc == 0
    assert hist_out.read_text().startswith("window_start,window_end,bin_low,bin_high,count")

    traj = next(grid_out.glob("traj_*.jsonl"))
    svg_out = tmp_path / "replay.svg"
    rc = cli.main(["replay", str(traj), "--out", str(svg_out)])
    assert rc == 0
    assert svg_out.read_text().startswith("<svg")


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    for text, key in (("[sac]\ngamma = 2.0\n", "gamma"),
                      ("[eval]\ngrid_extent = inf\n", "grid_extent"),
                      ("[eval]\ngrid_extent = nan\n", "grid_extent"),
                      ("[sac]\ntarget_entropy = nan\n", "target_entropy"),
                      ("[run]\nvariant = 50%\n", "variant")):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2, text
        assert key in capsys.readouterr().err, text


def test_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["eval-grid", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_seed_override_trains_single_seed(tiny_ini, tmp_path):
    out = tmp_path / "seeded"
    rc = cli.main(["train", "--config", str(tiny_ini), "--seed", "7",
                   "--variant", "random_starts", "--out", str(out)])
    assert rc == 0
    assert (out / "seed_7").exists()
    assert not (out / "seed_1").exists()


def test_replay_renders_manual_trajectory(tmp_path):
    cfg = WorldConfig(room_width=10, room_length=10, obstacles=((1, 1, 2, 2),),
                      dolly_pose=Pose(5, 8, 1.57), robot_start=Pose(5, 3, 1.57))
    w = World(cfg, record_trajectory=True)
    while not w.terminal:
        w.step((1.0, 0.0))
    path = tmp_path / "t.jsonl"
    w.save_trajectory(path)
    out = tmp_path / "t.svg"
    assert cli.main(["replay", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert "<polyline" in text and "polygon" in text


SCENE = '{"type": "scene", "room_width": 10, "room_length": 10}\n'


@pytest.mark.parametrize("text", [
    "",
    '{"t": 0, "x": 1.0, "y": 1.0}\n{"t": 1, "x": 1.5, "y": 1.0}\n',
    "[1, 2]\n",
    "not json\n",
    SCENE + '{"t": 0, "x": 1.0, "y": 1.0}\n{"t": 1, "x": 1.5}\n',
    SCENE + "[1.0, 1.0]\n",
], ids=["empty", "no_header", "not_object", "not_json", "record_without_y",
        "record_not_object"])
def test_replay_rejects_file_without_scene_header(tmp_path, capsys, text):
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    out = tmp_path / "t.svg"
    assert cli.main(["replay", str(path), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


CURRICULUM_LOG = "episode,task_type,distance,success\n1,random,2.0,0\n"
TELEMETRY_LOG = "episode,worker_id,return,steps,success,task_type\n1,0,-1.0,10,0,random\n"


@pytest.mark.parametrize("window, text, message", [
    ("0", CURRICULUM_LOG, "--window"),
    ("-5", CURRICULUM_LOG, "--window"),
    ("10", TELEMETRY_LOG, "distance"),
], ids=["window_zero", "window_negative", "no_curriculum_columns"])
def test_histograms_rejects_bad_window_and_log(tmp_path, capsys, window, text, message):
    path = tmp_path / "log.csv"
    path.write_text(text)
    out = tmp_path / "hist.csv"
    rc = cli.main(["histograms", "--telemetry", str(path), "--out", str(out),
                   "--window", window])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_package_exports_resolve():
    for name in docknav.__all__:
        assert hasattr(docknav, name), name
    namespace = {}
    exec("from docknav import *", namespace)
    assert set(docknav.__all__) <= namespace.keys()
