"""Run configuration: an INI file with one section per subsystem.

Every key has a default (paper values where the paper provides one), unknown
sections or keys and non-finite numbers are rejected, and validation reports
*all* violations at once (range checks run once every value has its field's
type). Values are read raw: ``%`` is an ordinary character.
``echo_config`` writes the effective configuration back out in a form that
parses to an identical object.

``RunConfig``'s fields are the only declaration of the keys. To add a key, add
one field to its section's block in ``RunConfig``; its annotation (``int``,
``float``, ``str``, ``tuple[int, ...]`` or ``tuple[float, ...]``) chooses the
parser and the type every value must have. The task sampler, the learner,
the replay and the curriculum read their fields straight from a
``RunConfig``; only the grid evaluation gets a config of its own, from
``to_grid_eval_config``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .grid_eval import GridEvalConfig, orientation_name


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation."""


@dataclass
class RunConfig:
    # [run]
    variant: str = "navacl_q"
    seeds: tuple[int, ...] = (1, 2, 3)
    episode_budget: int = 20000
    workers: int = 4  # the full-scale setup parallelizes 9
    wall_clock_limit: float = 0.0  # seconds; 0 disables
    updates_per_episode: int = 32
    replay_capacity: int = 2**17  # power of two; full scale uses 2**20
    dtype: str = "float32"
    step_limit: int = 500
    checkpoint_interval: int = 0  # episodes; 0 = final checkpoint only
    # [world] - task randomization intervals
    room_min: float = 8.0
    room_max: float = 12.0
    distance_min: float = 1.5
    distance_max: float = 5.0
    bearing_half_angle_deg: float = 15.0
    relative_yaw_half_deg: float = 90.0
    dolly_yaw_half_deg: float = 15.0
    obstacle_count_min: int = 1
    obstacle_count_max: int = 4
    obstacle_distance_min: float = 2.0
    obstacle_distance_max: float = 5.0
    obstacle_side_min: float = 0.5
    obstacle_side_max: float = 1.5
    position_jitter: float = 0.5
    start_anchor_y: float = 1.5
    # [sac]
    gamma: float = 0.999
    critic_lr: float = 2e-4
    actor_lr: float = 2e-4
    alpha_lr: float = 2e-4
    initial_alpha: float = 0.2
    target_entropy: float = -2.0  # -action_dim
    target_update_interval: int = 1000  # hard copy (tau = 1) every this many updates
    batch_size: int = 256
    hidden: tuple[int, ...] = (256, 256)
    log_std_min: float = -20.0
    log_std_max: float = 2.0
    tanh_eps: float = 1e-6
    # [per]
    priority_exponent: float = 0.6  # c
    is_exponent_start: float = 0.4  # b0
    is_exponent_end: float = 0.6  # b1
    priority_floor: float = 1e-6  # keeps zero-TD-error samples reachable
    # [curriculum]
    easy_band: float = 1.0  # beta: f > mu + beta * sigma is easy
    frontier_band: float = 0.1  # gamma_f: |f - mu| < gamma_f * sigma is frontier
    easy_threshold: float = 0.95  # chi: alternative easy test late in training
    max_trials: int = 100  # n_T candidate draws before falling back to random
    result_batch_size: int = 16  # m: task results per success-predictor step
    fpi_lr: float = 4e-4
    candidate_pool: int = 100  # tasks per FitNormal refresh
    p_easy: float = 1.0 / 3.0
    p_frontier: float = 1.0 / 3.0
    p_random: float = 1.0 / 3.0
    # [eval]
    grid_extent: float = 5.0
    grid_cell: float = 0.5
    orientations_deg: tuple[float, ...] = (0.0, 45.0, -45.0, 90.0, -90.0, 135.0, -135.0, 180.0)
    repeats: int = 9
    grid_offset: float = 1.0  # nearest grid row to dolly center
    eval_room_side: float = 14.0

    # -- domain-object builders -----------------------------------------

    def to_grid_eval_config(self) -> GridEvalConfig:
        return GridEvalConfig(
            grid_extent=self.grid_extent, grid_cell=self.grid_cell,
            orientations_deg=self.orientations_deg, repeats=self.repeats,
            grid_offset=self.grid_offset, room_side=self.eval_room_side,
        )


def _parse_tuple(element):
    return lambda text: tuple(element(tok) for tok in text.replace(",", " ").split())


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _is(kinds):
    """Type check of a scalar value; a bool is no number."""
    return lambda value: isinstance(value, kinds) and not isinstance(value, bool)


def _is_tuple_of(is_element):
    return lambda value: isinstance(value, tuple) and all(is_element(v) for v in value)


# Parser and type check by field annotation, a string under
# ``from __future__ import annotations``.
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[int, ...]": _parse_tuple(int), "tuple[float, ...]": _parse_tuple(float)}
_IS_TYPE = {"int": _is(int), "float": _is((int, float)), "str": _is(str),
            "tuple[int, ...]": _is_tuple_of(_is(int)),
            "tuple[float, ...]": _is_tuple_of(_is((int, float)))}

# The first field of each section's block in RunConfig; every later field
# belongs to the section of the nearest start above it.
_SECTION_STARTS = {"variant": "run", "room_min": "world", "gamma": "sac",
                   "priority_exponent": "per", "easy_band": "curriculum", "grid_extent": "eval"}


def _derive_keys(cls) -> list[tuple[str, str, str]]:
    """(section, key, annotation) for every field of ``cls``, in field order."""
    keys, section = [], None
    for f in fields(cls):
        section = _SECTION_STARTS.get(f.name, section)
        if f.type not in _PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no parser for annotation {f.type!r}")
        keys.append((section, f.name, f.type))
    return keys


_KEYS = _derive_keys(RunConfig)


def _validate(cfg: RunConfig) -> list[str]:
    errors = []

    def check(ok: bool, msg: str):
        if not ok:
            errors.append(msg)

    wrong_type = []
    for section, key, annotation in _KEYS:
        value = getattr(cfg, key)
        values = value if isinstance(value, tuple) else (value,)
        check(all(math.isfinite(v) for v in values if isinstance(v, float)),
              f"{section}.{key} must be finite")
        if not _IS_TYPE[annotation](value):
            wrong_type.append(f"{section}.{key} must be {annotation}")
    if wrong_type:  # every check below assumes each value has its field's type
        return errors + wrong_type

    check(cfg.variant in ("navacl_q", "random_starts"),
          f"run.variant must be navacl_q or random_starts, got {cfg.variant!r}")
    check(len(cfg.seeds) >= 1, "run.seeds must list at least one seed")
    check(all(s >= 0 for s in cfg.seeds), "run.seeds must be >= 0")
    check(len(set(cfg.seeds)) == len(cfg.seeds), "run.seeds must not repeat a seed")
    check(cfg.episode_budget >= 1, "run.episode_budget must be >= 1")
    check(cfg.workers >= 1, "run.workers must be >= 1")
    check(cfg.updates_per_episode >= 0, "run.updates_per_episode must be >= 0")
    check(cfg.replay_capacity >= 1 and cfg.replay_capacity & (cfg.replay_capacity - 1) == 0,
          "run.replay_capacity must be a power of two")
    check(cfg.dtype in ("float32", "float64"), "run.dtype must be float32 or float64")
    check(cfg.step_limit >= 1, "run.step_limit must be >= 1")
    check(cfg.wall_clock_limit >= 0, "run.wall_clock_limit must be >= 0")
    check(cfg.checkpoint_interval >= 0, "run.checkpoint_interval must be >= 0")

    for lo, hi in (("room_min", "room_max"), ("distance_min", "distance_max"),
                   ("obstacle_distance_min", "obstacle_distance_max"),
                   ("obstacle_side_min", "obstacle_side_max"),
                   ("obstacle_count_min", "obstacle_count_max")):
        check(getattr(cfg, lo) <= getattr(cfg, hi), f"world.{lo} must be <= world.{hi}")
    check(cfg.distance_min > 0, "world.distance_min must be positive")
    check(cfg.obstacle_count_min >= 0, "world.obstacle_count_min must be >= 0")
    for key in ("position_jitter", "bearing_half_angle_deg", "relative_yaw_half_deg",
                "dolly_yaw_half_deg"):
        check(getattr(cfg, key) >= 0, f"world.{key} must be >= 0")

    check(0.0 < cfg.gamma <= 1.0, f"sac.gamma must lie in (0, 1], got {cfg.gamma}")
    for key in ("critic_lr", "actor_lr", "alpha_lr", "initial_alpha", "tanh_eps"):
        check(getattr(cfg, key) > 0, f"sac.{key} must be positive")
    check(cfg.target_update_interval >= 1, "sac.target_update_interval must be >= 1")
    check(cfg.batch_size >= 1, "sac.batch_size must be >= 1")
    check(cfg.batch_size <= cfg.replay_capacity,
          "sac.batch_size must not exceed run.replay_capacity")
    check(all(h >= 1 for h in cfg.hidden), "sac.hidden sizes must be >= 1")
    check(cfg.log_std_min < cfg.log_std_max, "sac.log_std_min must be < sac.log_std_max")

    check(0.0 <= cfg.priority_exponent <= 1.0, "per.priority_exponent must lie in [0, 1]")
    check(0.0 <= cfg.is_exponent_start <= cfg.is_exponent_end <= 1.0,
          "per importance-sampling exponents need 0 <= b0 <= b1 <= 1")
    check(cfg.priority_floor > 0, "per.priority_floor must be positive")

    check(0.0 <= cfg.easy_threshold < 1.0, "curriculum.easy_threshold must lie in [0, 1)")
    check(cfg.max_trials >= 1, "curriculum.max_trials must be >= 1")
    check(cfg.result_batch_size >= 1, "curriculum.result_batch_size must be >= 1")
    check(cfg.fpi_lr > 0, "curriculum.fpi_lr must be positive")
    check(cfg.candidate_pool >= 2, "curriculum.candidate_pool must be >= 2")
    probs = (cfg.p_easy, cfg.p_frontier, cfg.p_random)
    check(all(p >= 0 for p in probs), "curriculum task-type probabilities must be >= 0")
    check(math.isclose(sum(probs), 1.0, abs_tol=1e-9),
          f"curriculum task-type probabilities must sum to 1, got {sum(probs)}")

    check(cfg.grid_extent > 0, "eval.grid_extent must be positive")
    check(cfg.grid_cell > 0, "eval.grid_cell must be positive")
    if cfg.grid_cell > 0 and math.isfinite(cfg.grid_extent):
        ratio = cfg.grid_extent / cfg.grid_cell
        check(math.isfinite(ratio) and abs(ratio - round(ratio)) < 1e-9,
              "eval.grid_extent must be an integer multiple of eval.grid_cell")
    check(len(cfg.orientations_deg) >= 1, "eval.orientations_deg must list at least one angle")
    angles = set(cfg.orientations_deg)  # 0.0 and -0.0 count once, as list.index has them
    check(len(angles) == len(cfg.orientations_deg), "eval.orientations_deg must not repeat an angle")
    check(len(set(map(orientation_name, angles))) == len(angles),
          "eval.orientations_deg must not hold two angles that round to the same whole degree")
    check(cfg.repeats >= 1, "eval.repeats must be >= 1")
    check(cfg.grid_offset > 0, "eval.grid_offset must be positive")
    check(cfg.eval_room_side > 0, "eval.eval_room_side must be positive")
    return errors


def validate_config(cfg: RunConfig) -> RunConfig:
    errors = _validate(cfg)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def parse_config(path) -> RunConfig:
    """Load an INI run configuration; an empty file yields all defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = RunConfig()
    errors = []
    known = {(s, k): _PARSERS[annotation] for s, k, annotation in _KEYS}
    valid_sections = {s for s, _, _ in _KEYS}
    for section in parser.sections():
        if section not in valid_sections:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            parse = known.get((section, key))
            if parse is None:
                errors.append(f"unknown key {section}.{key}")
                continue
            try:
                setattr(cfg, key, parse(raw))
            except (TypeError, ValueError):
                errors.append(f"{section}.{key}: cannot parse {raw!r}")
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(f"invalid configuration {path}:\n  " + "\n  ".join(errors))
    return cfg


def echo_config(cfg: RunConfig, path) -> None:
    """Write the full effective configuration; parsing it back reproduces
    ``cfg`` exactly."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, key, _ in _KEYS:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _fmt(getattr(cfg, key)))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def config_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Copy with field overrides (CLI flags beat file values)."""
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in values:
            raise ConfigError(f"unknown config field {key}")
        values[key] = value
    return validate_config(RunConfig(**values))
