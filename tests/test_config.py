from dataclasses import dataclass, fields

import pytest

from docknav import config
from docknav.config import ConfigError, RunConfig, config_overrides, echo_config, parse_config


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
    parsed = {k: parse for _, k, parse in config._KEYS}[key](value)
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
    cfg = RunConfig(batch_size=64, result_batch_size=8, fpi_lr=1e-3, eval_room_side=20.0)
    navacl = cfg.to_navacl_config()
    assert (navacl.batch_size, navacl.learning_rate) == (8, 1e-3)
    assert cfg.to_sac_config().batch_size == 64
    assert cfg.to_grid_eval_config().room_side == 20.0
