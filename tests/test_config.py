import re
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from docknav import config
from docknav.config import ConfigError, RunConfig, config_overrides, echo_config, parse_config

from _toys import desk_nav_config


def test_empty_file_is_all_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert parse_config(path) == RunConfig()


def test_defaults_carry_paper_values():
    cfg = RunConfig()
    assert cfg.gamma == 0.999
    assert cfg.critic_lr == cfg.actor_lr == cfg.alpha_lr == 2e-4
    assert cfg.initial_alpha == 0.2
    assert cfg.target_update_interval == 1000
    assert cfg.priority_exponent == 0.6
    assert (cfg.is_exponent_start, cfg.is_exponent_end) == (0.4, 0.6)
    assert cfg.easy_band == 1.0 and cfg.frontier_band == 0.1
    assert cfg.easy_threshold == 0.95 and cfg.max_trials == 100
    assert cfg.result_batch_size == 16 and cfg.fpi_lr == 4e-4
    assert cfg.repeats == 9 and cfg.grid_extent == 5.0 and cfg.grid_cell == 0.5
    assert len(cfg.orientations_deg) == 8


def test_section_and_key_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nvariant = random_starts\nseeds = 7, 8\nworkers = 2\n"
        "[sac]\nhidden = 64, 64\ngamma = 0.99\n"
        "[world]\ndistance_max = 3.0\n"
    )
    cfg = parse_config(path)
    assert cfg.variant == "random_starts"
    assert cfg.seeds == (7, 8)
    assert cfg.hidden == (64, 64)
    assert cfg.gamma == 0.99
    assert cfg.distance_max == 3.0
    assert cfg.episode_budget == 20000  # untouched default


def test_out_of_range_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sac]\ngamma = 1.5\n")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(path)


def test_unknown_keys_rejected_and_all_errors_listed(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[run]\nbogus_key = 1\nworkers = 0\n"
        "[nonsense]\nx = 2\n"
        "[sac]\ngamma = -0.5\nworkers = 2\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    message = str(err.value)
    for fragment in ("bogus_key", "workers", "nonsense", "gamma", "unknown key sac.workers"):
        assert fragment in message


def test_unparseable_value_reported(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nepisode_budget = soon\n")
    with pytest.raises(ConfigError, match="episode_budget"):
        parse_config(path)


def test_probabilities_must_sum_to_one(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[curriculum]\np_easy = 0.9\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(path)


def test_replay_capacity_power_of_two(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nreplay_capacity = 1000\n")
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(path)


@pytest.mark.parametrize("angles", [(0.0, 0.0, 90.0), (0.0, 90.0, -0.0), (45.0, -45.0, 45.0)])
def test_orientations_must_not_repeat(angles):
    with pytest.raises(ConfigError, match="eval.orientations_deg must not repeat an angle"):
        config.validate_config(RunConfig(orientations_deg=angles))
    assert config.validate_config(RunConfig(orientations_deg=(0.0, 90.0, -90.0)))


def test_echo_round_trip(tmp_path):
    src = tmp_path / "src.ini"
    src.write_text(
        "[run]\nseeds = 5\ndtype = float64\n[sac]\nhidden = 32\n"
        "[eval]\norientations_deg = 0, 90, -90\n"
    )
    cfg = parse_config(src)
    echoed = tmp_path / "echo.ini"
    echo_config(cfg, echoed)
    assert parse_config(echoed) == cfg


def test_echo_round_trip_of_defaults(tmp_path):
    echoed = tmp_path / "defaults.ini"
    echo_config(RunConfig(), echoed)
    assert parse_config(echoed) == RunConfig()


# The bytes echo_config writes for the defaults: the effective_config.ini
# format, which changes only on purpose.
DEFAULTS_ECHO = """\
[run]
variant = navacl_q
seeds = 1, 2, 3
episode_budget = 20000
workers = 4
wall_clock_limit = 0.0
updates_per_episode = 32
replay_capacity = 131072
dtype = float32
step_limit = 500
checkpoint_interval = 0

[world]
room_min = 8.0
room_max = 12.0
distance_min = 1.5
distance_max = 5.0
bearing_half_angle_deg = 15.0
relative_yaw_half_deg = 90.0
dolly_yaw_half_deg = 15.0
obstacle_count_min = 1
obstacle_count_max = 4
obstacle_distance_min = 2.0
obstacle_distance_max = 5.0
obstacle_side_min = 0.5
obstacle_side_max = 1.5
position_jitter = 0.5
start_anchor_y = 1.5

[sac]
gamma = 0.999
critic_lr = 0.0002
actor_lr = 0.0002
alpha_lr = 0.0002
initial_alpha = 0.2
target_entropy = -2.0
target_update_interval = 1000
batch_size = 256
hidden = 256, 256
log_std_min = -20.0
log_std_max = 2.0
tanh_eps = 1e-06

[per]
priority_exponent = 0.6
is_exponent_start = 0.4
is_exponent_end = 0.6
priority_floor = 1e-06

[curriculum]
easy_band = 1.0
frontier_band = 0.1
easy_threshold = 0.95
max_trials = 100
result_batch_size = 16
fpi_lr = 0.0004
candidate_pool = 100
p_easy = 0.3333333333333333
p_frontier = 0.3333333333333333
p_random = 0.3333333333333333

[eval]
grid_extent = 5.0
grid_cell = 0.5
orientations_deg = 0.0, 45.0, -45.0, 90.0, -90.0, 135.0, -135.0, 180.0
repeats = 9
grid_offset = 1.0
eval_room_side = 14.0

"""


def test_echo_of_defaults_is_frozen(tmp_path):
    echoed = tmp_path / "defaults.ini"
    echo_config(RunConfig(), echoed)
    assert echoed.read_bytes() == DEFAULTS_ECHO.encode()


@pytest.mark.parametrize("name,obstacles", [("desk_nav.ini", False),
                                            ("desk_nav_obstacles.ini", True)])
def test_shipped_configs_match_desk_nav_config(name, obstacles):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    assert parse_config(path) == desk_nav_config(obstacles=obstacles)


def test_overrides_validated():
    cfg = RunConfig()
    out = config_overrides(cfg, workers=9, variant="random_starts")
    assert out.workers == 9 and out.variant == "random_starts"
    assert cfg.workers == 4  # original untouched
    with pytest.raises(ConfigError):
        config_overrides(cfg, workers=0)
    with pytest.raises(ConfigError):
        config_overrides(cfg, nonexistent=1)
    with pytest.raises(ConfigError, match="replay_capacity must be finite"):
        config_overrides(cfg, replay_capacity=float("inf"))
    # each value must have its field's type, and no range check reads one that has not
    for value, message in ((dict(workers=2.5), "run.workers must be int"),
                           (dict(step_limit=True), "run.step_limit must be int"),
                           (dict(orientations_deg=[0.0]), "eval.orientations_deg must be tuple[float, ...]"),
                           (dict(seeds=1), "run.seeds must be tuple[int, ...]"),
                           (dict(hidden=128), "sac.hidden must be tuple[int, ...]"),
                           (dict(gamma="0.9"), "sac.gamma must be float")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_overrides(cfg, **value)
    assert config_overrides(cfg, wall_clock_limit=5).wall_clock_limit == 5


def test_missing_file_reported():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.ini")


_FINITE_KEYS = [(section, f.name) for (section, _, _), f in zip(config._KEYS, fields(RunConfig))
                if f.type in ("float", "tuple[float, ...]")]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", _FINITE_KEYS)
def test_non_finite_value_rejected(tmp_path, section, key, text):
    path = tmp_path / "bad.ini"
    value = f"0, {text}" if key == "orientations_deg" else text
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
        parse_config(path)
    parsed = config._PARSERS[{k: a for _, k, a in config._KEYS}[key]](value)
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
        config_overrides(RunConfig(), **{key: parsed})


def test_sections_follow_field_blocks():
    sections = [section for section, _, _ in config._KEYS]
    assert list(dict.fromkeys(sections)) == ["run", "world", "sac", "per", "curriculum", "eval"]
    by_key = {key: section for section, key, _ in config._KEYS}
    assert (by_key["checkpoint_interval"], by_key["start_anchor_y"], by_key["tanh_eps"],
            by_key["priority_floor"], by_key["p_random"]) == ("run", "world", "sac", "per", "curriculum")


def test_unsupported_annotation_fails():
    @dataclass
    class Bad:
        variant: list[int]

    with pytest.raises(TypeError, match="Bad.variant"):
        config._derive_keys(Bad)


def test_builders_take_renamed_fields():
    assert RunConfig(eval_room_side=20.0).to_grid_eval_config().room_side == 20.0
