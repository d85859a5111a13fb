"""docknav benchmark: one command, closed-loop single-process workloads.

    python3 perfbench/run.py --workload train_sync --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json

Run from the root of a checkout. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same workload untraced and then traced, and prints the
per-layer metrics together with the tracing overhead. The last line of
standard output is one JSON object; the full record, with the environment,
goes to ``perfbench/out/results/``. The exit code is 1 when any correctness
check fails and 2 when the docknav source tree is missing.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads, so every run uses one BLAS thread per process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402


def parse_args(argv):
    names = [w["name"] for w in catalog.WORKLOADS + catalog.EXTRA_WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from perfbench/catalog.py and exit")
    return p.parse_args(argv)


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of the program the run measured, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.ini")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_sha256(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, peak_rss_mb

    OUT.mkdir(parents=True, exist_ok=True)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    traced = tracer = None
    unwrapped = True
    try:
        workload = WORKLOADS[name](seed, scratch)
        workload.setup()
        untraced = workload.measure(seconds, traced=False)
        setup_s = workload.setup_s
        rss = peak_rss_mb()
        if trace:
            tracer = Tracer(workload.mods)
            tracer.install(workload.notes())
            try:
                traced = workload.measure(seconds, traced=True)
            finally:
                unwrapped = tracer.remove()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = [untraced] + ([traced] if traced else [])
    attempted = sum(m.attempted for m in passes)
    failed = sum(m.failed for m in passes)
    errors = [e for m in passes for e in m.errors]
    if not unwrapped:
        errors.append("a traced name was not restored to its original")
        failed += 1
    end_to_end = {"setup_s": setup_s, "ops_per_s": untraced.ops_per_s, "peak_rss_mb": rss}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    layers = {}
    if trace:
        layers = tracer.layer_metrics(max_trials=workload.cfg.max_trials)
        layers.update(untraced.run)
        distinct = "grid_eval.distinct_episode_frac"  # recorded only when traced
        if distinct in traced.run:
            layers[distinct] = traced.run[distinct]
        if traced.op_time:  # only the master waits on the episode queue
            layers["orchestrator.master_idle_frac"] = (
                layers["per.queue_wait.busy_s"] / traced.op_time)
        lags = tracer.notes.get("orchestrator.ingest", [])
        layers["orchestrator.snapshot_lag"] = statistics.fmean(lags) if lags else 0.0
        layers["trace.overhead_frac"] = (
            untraced.ops_per_s / traced.ops_per_s - 1.0 if traced.ops_per_s else 0.0)
        tracer.write(results / f"spans-{stem}.csv")
    meta = next(w for w in catalog.WORKLOADS + catalog.EXTRA_WORKLOADS if w["name"] == name)
    record = {
        "workload": {**meta, "seed": seed, "seconds": seconds,
                     "loop": "closed", "processes": 1},
        "environment": environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": end_to_end,
        "run": untraced.run,
        "info": {**untraced.info, "measured_wall_s": untraced.wall},
        "per_layer": layers,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict, trace: bool) -> dict:
    """Human-readable lines, then the one-line result object."""
    env = record["environment"]
    print(f"# {record['workload']['name']} seed={record['workload']['seed']} "
          f"nproc={env['nproc']} blas={env['blas']} threads={env['blas_threads']} "
          f"numpy={env['numpy']} python={env['python']} commit={env['commit'][:12]}")
    units = {m["name"]: m["unit"] for m in catalog.END_TO_END}
    units.update({m["name"]: m["unit"] for m in catalog.per_layer()})
    for name, value in {**record["end_to_end"], **record["run"]}.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for error in record["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    chosen = catalog.per_layer() if trace else catalog.END_TO_END
    source = record["per_layer"] if trace else record["end_to_end"]
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in chosen}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for w in catalog.WORKLOADS + catalog.EXTRA_WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", w["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(catalog.spec(), indent=2) + "\n")
        return 0
    if not (SRC / "docknav" / "__init__.py").is_file():
        print(f"error: no docknav source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(record, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
