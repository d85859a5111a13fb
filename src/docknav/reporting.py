"""Telemetry post-processing: moving-average training curves and the task
distance histograms used to inspect what the curriculum proposes.
"""

from __future__ import annotations

import csv

import numpy as np

DISTANCE_RANGE = (1.5, 5.0)
DISTANCE_BINS = 14
HISTOGRAM_WINDOW = 10000  # episodes per histogram stage
CURVE_WINDOW = 500  # episodes per training-curve moving average

CURVE_FIELDS = ["episode", "return_ma", "success_ma"]
HISTOGRAM_FIELDS = ["window_start", "window_end", "bin_low", "bin_high", "count"]


def moving_average(values, window: int = 500) -> np.ndarray:
    """Trailing mean over up to ``window`` samples (shorter at the start)."""
    values = np.asarray(values, dtype=np.float64)
    csum = np.concatenate([[0.0], np.cumsum(values)])
    n = len(values)
    idx = np.arange(1, n + 1)
    lo = np.maximum(idx - window, 0)
    return (csum[idx] - csum[lo]) / (idx - lo)


def _read_columns(path, columns: dict) -> dict[str, np.ndarray]:
    """Each of ``columns`` (name -> converter) of a CSV file as an array;
    a header or a row without one of them raises ValueError naming it."""
    values = {name: [] for name in columns}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            missing = [name for name in columns if row[name] is None]  # a short row
            if missing:
                raise ValueError(f"{path}: line {reader.line_num} has no {', '.join(missing)}")
            for name, convert in columns.items():
                values[name].append(convert(row[name]))
    return {name: np.array(column) for name, column in values.items()}


def read_telemetry(path) -> dict[str, np.ndarray]:
    return _read_columns(path, {"episode": int, "worker_id": int, "return": float,
                                "steps": int, "success": int, "snapshot_version": int})


def write_training_curves(telemetry_path, out_path) -> None:
    """Moving-average return and success-rate curves from a telemetry CSV."""
    data = read_telemetry(telemetry_path)
    ret_ma = moving_average(data["return"], CURVE_WINDOW)
    suc_ma = moving_average(data["success"], CURVE_WINDOW)
    with open(out_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CURVE_FIELDS)
        for ep, r, s in zip(data["episode"], ret_ma, suc_ma):
            wr.writerow([ep, f"{r:.6f}", f"{s:.6f}"])


def read_curriculum_log(path) -> dict[str, np.ndarray]:
    return _read_columns(path, {"episode": int, "distance": float, "task_type": str,
                                "success": int})


def distance_histograms(distances, episodes, window: int = HISTOGRAM_WINDOW) -> list[list]:
    """Histogram rows of agent-goal distance per training-stage window.

    Distances are clipped into the fixed [1.5, 5] m range so no recorded task
    falls outside the bin edges.
    """
    distances = np.asarray(distances, dtype=np.float64)
    episodes = np.asarray(episodes)
    edges = np.linspace(DISTANCE_RANGE[0], DISTANCE_RANGE[1], DISTANCE_BINS + 1)
    rows = []
    if len(episodes) == 0:
        return rows
    last = int(episodes.max())
    for start in range(0, last, window):
        end = min(start + window, last)
        mask = (episodes > start) & (episodes <= end)
        clipped = np.clip(distances[mask], *DISTANCE_RANGE)
        counts, _ = np.histogram(clipped, bins=edges)
        for b in range(DISTANCE_BINS):
            rows.append([start + 1, end, f"{edges[b]:.6f}", f"{edges[b + 1]:.6f}", int(counts[b])])
    return rows


def write_distance_histograms(curriculum_path, out_path, window: int = HISTOGRAM_WINDOW) -> None:
    data = read_curriculum_log(curriculum_path)
    rows = distance_histograms(data["distance"], data["episode"], window)
    with open(out_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(HISTOGRAM_FIELDS)
        wr.writerows(rows)


def episodes_to_sustained_success(success_flags, threshold: float = 0.5,
                                  window: int = 500) -> int | None:
    """First episode index (1-based) at which the trailing moving average of
    success reaches the threshold; None if never."""
    ma = moving_average(success_flags, window)
    hits = np.nonzero(ma >= threshold)[0]
    return int(hits[0]) + 1 if len(hits) else None
