"""Command-line entry points: train, eval-grid, histograms, replay."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import grid_eval, orchestrator, reporting, svg
from .config import ConfigError, RunConfig, config_overrides, echo_config, parse_config


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "variant", None):
        overrides["variant"] = args.variant
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    return config_overrides(cfg, **overrides)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out / "effective_config.ini")
    for seed in cfg.seeds:
        seed_dir = out / f"seed_{seed}"
        print(f"training variant={cfg.variant} seed={seed} -> {seed_dir}")
        trainer = orchestrator.Trainer(cfg, seed=seed, out_dir=seed_dir)
        trainer.train()
        orchestrator.save_checkpoint(trainer, seed_dir / "final.ckpt")
        reporting.write_training_curves(seed_dir / "telemetry.csv", seed_dir / "curves.csv")
        print(f"  episodes={trainer.episodes_received} updates={trainer.learner.n_updates}")
    return 0


def cmd_eval_grid(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    actor = orchestrator.actor_from_checkpoint(args.checkpoint, dtype=np.dtype(cfg.dtype))
    grid_cfg = cfg.to_grid_eval_config()
    policy = lambda obs: actor.act(obs, mode="mean")[0]  # noqa: E731
    result = grid_eval.run_grid_eval(
        policy, grid_cfg, out_dir=out, step_limit=cfg.step_limit,
        dtype=np.dtype(cfg.dtype), trajectory_limit=args.trajectories,
    )
    print(f"executed {result.episodes_executed} episodes "
          f"({result.config.total_episodes} scheduled)")
    for row in result.summary_rows():
        print("  " + " ".join(str(v) for v in row if v != ""))
    return 0


def cmd_histograms(args) -> int:
    if args.window < 1:
        raise ValueError(f"--window must be at least 1, got {args.window}")
    reporting.write_distance_histograms(args.telemetry, args.out, window=args.window)
    print(f"wrote {args.out}")
    return 0


def _is_number(value) -> bool:
    return type(value) in (int, float)  # what JSON numbers load as; not bool


def _need_numbers(record, keys, what: str) -> None:
    for key in keys:
        if not isinstance(record, dict) or not _is_number(record.get(key)):
            raise ValueError(f"{what} has no numeric {key}")


def cmd_replay(args) -> int:
    path = args.trajectory
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not (lines and isinstance(lines[0], dict) and lines[0].get("type") == "scene"):
        raise ValueError(f"{path}: the first line is not a scene header")
    scene, records = lines[0], lines[1:]
    _need_numbers(scene, ("room_width", "room_length"), f"{path}: the scene header")
    if min(scene["room_width"], scene["room_length"]) <= 0:
        raise ValueError(f"{path}: the scene's room has no positive size")
    obstacles = scene.get("obstacles", [])
    if not (isinstance(obstacles, list) and all(
            isinstance(box, list) and len(box) == 4 and all(map(_is_number, box)) for box in obstacles)):
        raise ValueError(f"{path}: the scene's obstacles are not boxes of four numbers")
    if scene.get("dolly"):
        _need_numbers(scene["dolly"], ("x", "y", "yaw"), f"{path}: the scene's dolly")
    for n, record in enumerate(records, start=1):
        _need_numbers(record, ("x", "y"), f"{path}: record {n}")
        if not isinstance(record.get("flags", {}), dict):
            raise ValueError(f"{path}: record {n} has flags that are not an object")
    svg.write_trajectory(args.out, scene, records)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="docknav",
                                     description="warehouse docking RL: training and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run training for every configured seed")
    p.add_argument("--config", help="INI run configuration")
    p.add_argument("--seed", type=int, help="override: train this single seed")
    p.add_argument("--variant", choices=["navacl_q", "random_starts"])
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default="runs", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-grid", help="grid-based evaluation of a trained policy")
    p.add_argument("--config", help="INI run configuration")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="grid_eval")
    p.add_argument("--trajectories", type=int, default=0,
                   help="dump up to N trajectory files")
    p.set_defaults(func=cmd_eval_grid)

    p = sub.add_parser("histograms", help="task distance histograms per training stage")
    p.add_argument("--telemetry", required=True, help="curriculum.csv from a training run")
    p.add_argument("--out", default="histograms.csv")
    p.add_argument("--window", type=int, default=reporting.HISTOGRAM_WINDOW)
    p.set_defaults(func=cmd_histograms)

    p = sub.add_parser("replay", help="render a trajectory file to SVG")
    p.add_argument("trajectory")
    p.add_argument("--out", default="trajectory.svg")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
