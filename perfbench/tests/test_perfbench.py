"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalog  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_INI = """
[run]
variant = navacl_q
updates_per_episode = 2
replay_capacity = 1024
dtype = float32
step_limit = 20

[world]
room_min = 8.0
room_max = 9.0
distance_min = 1.5
distance_max = 3.0
obstacle_count_min = 0
obstacle_count_max = 0

[sac]
batch_size = 8
hidden = 16

[curriculum]
candidate_pool = 4
result_batch_size = 4
max_trials = 10
"""


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    monkeypatch.setattr(workloads, "CONFIG", config)
    monkeypatch.setattr(workloads.TrainSync, "episodes", 6)
    monkeypatch.setattr(workloads.TrainAsync, "episodes", 8)
    monkeypatch.setattr(workloads, "TRAIN_STEP_LIMIT", 20)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    out = tmp_path / "out"
    monkeypatch.setattr(run, "OUT", out)
    return out


def test_spec_is_rendered_from_catalog():
    assert SPEC == catalog.spec()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"] + catalog.EXTRA_WORKLOADS])
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_spec(tiny, name, trace):
    result = run.report(run.run_workload(name, seed=3, seconds=0.0, trace=trace), trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in expected)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracing_leaves_sync_telemetry_unchanged(tiny):
    wl = workloads.TrainSync(seed=5, scratch=tiny.parent)
    wl.setup()
    plain = wl.measure(0.0, traced=False)
    tracer = Tracer(wl.mods)
    tracer.install(wl.notes())
    try:
        traced = wl.measure(0.0, traced=True)
    finally:
        assert tracer.remove()
    assert plain.failed == traced.failed == 0
    assert traced.info["telemetry_digest"] == plain.info["telemetry_digest"]
    assert tracer.spans and all(span[2] >= span[1] for span in tracer.spans)
    for _, module, owner, attr in catalog.SPANS:
        target = getattr(wl.mods[module], owner) if owner else wl.mods[module]
        assert not hasattr(getattr(target, attr), "__wrapped__")


def test_tracer_self_time_excludes_children():
    tracer = Tracer({})
    tracer.spans.extend([["outer", 0.0, 10.0, -1, 1, 0], ["inner", 2.0, 5.0, 0, 1, 0],
                         ["inner", 6.0, 7.0, 0, 1, 0]])
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_tail_needs_ten_samples_beyond():
    assert workloads.tail(list(range(10))) == (0.0, 0.0)
    pct, value = workloads.tail(list(range(40)))
    assert pct == 75.0 and value == 29


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train_sync",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
