"""Mapless warehouse docking: simulator, distributed SAC with prioritized
replay, success-prediction curriculum, and the grid evaluation harness."""

from .config import RunConfig, parse_config
from .world import (
    DollySpec,
    Pose,
    RobotSpec,
    Task,
    TaskBounds,
    World,
    WorldConfig,
    compute_reward,
    sample_task,
)

__version__ = "0.1.0"

__all__ = [
    "DollySpec", "Pose", "RobotSpec", "RunConfig", "Task", "TaskBounds", "World",
    "WorldConfig", "compute_reward", "parse_config", "sample_task",
]
