
import numpy as np
import pytest

import docknav
from docknav import cli
from docknav.nn import read_checkpoint, write_checkpoint
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
    # 3 episodes against result batches of 4: like a periodic checkpoint,
    # final.ckpt keeps the 3 pending predictor results, untrained
    meta, pending = read_checkpoint(seed_dir / "final.ckpt", prefix="pending_")
    rows = [row.split(",") for row in (seed_dir / "curriculum.csv").read_text().splitlines()[1:]]
    assert meta["fpi_train_calls"] == 0 and len(rows) == 3
    assert pending["pending_features"].shape == (3, 5)
    assert np.allclose(pending["pending_features"], [[float(v) for v in row[2:7]] for row in rows],
                       rtol=0, atol=1e-6)
    assert pending["pending_labels"].tolist() == [float(row[8]) for row in rows]

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
                      ("[run]\nvariant = 50%\n", "variant"),
                      ("[eval]\norientations_deg = 0.0, 0.4\n", "round to the same whole degree"),
                      ("[run]\nseeds = 1, 1\n", "run.seeds"),
                      ("[run]\nseeds = -1\n", "run.seeds"),
                      ("[world]\nbearing_half_angle_deg = -1\n", "world.bearing_half_angle_deg"),
                      ("[world]\nrelative_yaw_half_deg = -1\n", "world.relative_yaw_half_deg"),
                      ("[world]\ndolly_yaw_half_deg = -0.5\n", "world.dolly_yaw_half_deg")):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2, text
        assert key in capsys.readouterr().err, text
    rc = cli.main(["train", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "run.seeds" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["eval-grid", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("meta, arrays, message", [
    ({"note": 1}, {"w": np.zeros(3)}, "checkpoint metadata has no list 'actor_layers'"),
    (None, {"w": np.zeros(3)}, "checkpoint metadata has no list 'actor_layers'"),
    ({"actor_layers": [4, "8", 4]}, {}, "checkpoint metadata 'actor_layers' is"),
    ({"actor_layers": [4, 8, 4]}, {"w": np.zeros(3)}, "checkpoint holds no array actor.params"),
], ids=["no_trainer_keys", "no_meta", "mistyped_layers", "no_actor"])
def test_eval_grid_rejects_checkpoint_without_trainer_metadata(tmp_path, capsys, meta, arrays,
                                                               message):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, meta, arrays)
    rc = cli.main(["eval-grid", "--checkpoint", str(path), "--out", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err


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
    SCENE + '{"t": 0, "x": "1.0", "y": 1.0}\n',
    SCENE + '{"t": 0, "x": 1.0, "y": 1.0, "flags": [true]}\n',
    SCENE.replace("}", ', "dolly": {"x": 5.0, "y": 8.0}}') + '{"t": 0, "x": 1.0, "y": 1.0}\n',
    SCENE.replace("}", ', "obstacles": [[1, 1, 2]]}'),
    '{"type": "scene", "room_width": 10}\n',
    '{"type": "scene", "room_width": 0, "room_length": 0}\n',
], ids=["empty", "no_header", "not_object", "not_json", "record_without_y",
        "record_not_object", "record_x_not_number", "record_flags_not_object",
        "dolly_without_yaw", "obstacle_not_a_box", "room_without_length", "room_of_size_zero"])
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
    ("10", CURRICULUM_LOG + "2,random,2.5\n", "line 3 has no success"),
], ids=["window_zero", "window_negative", "no_curriculum_columns", "short_row"])
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
