#!/usr/bin/env python3
"""One-command benchmark of the geo/corpus engine.

    python3 perfbench/run.py --workload geo_enrich --seed 1 \\
        --seconds 30 --trace 0

Runs one closed-loop workload (one job at a time, from this process) on
inputs drawn from ``--seed``, checks every pass's outputs, and prints as its
last stdout line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the host, the inputs, every pass,
the route ceilings and, traced, every span. Run it from the root of a
checkout of the repository; it reads and writes only under that checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 2          # setup_s is the median of this many set-ups
STAGE_TIMEOUT_S = 60.0     # a stage call or check that takes longer fails
RUN_DEADLINE_S = 150.0     # no stage call runs past this, from start
OBJECT_STORE_BYTES = 512 << 20
# Ray's session dir; short, because its Unix socket paths must stay below
# 108 bytes
RAY_TMP = ROOT / ".pbray"

END_TO_END = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

_QTY_UNITS = {"s": "s", "rows": "count", "bytes": "bytes",
              "salted_share": "ratio", "hit_ratio": "ratio", "skew": "ratio"}
LAYERS = [
    ("layers.get_buildings", ("s", "rows")),
    ("layers.get_pois", ("s", "rows")),
    ("layers.get_network", ("s", "rows")),
    ("parquet.read_parquet_split", ("s", "rows")),
    ("spatial.assign_tiles", ("s", "rows", "salted_share")),
    ("spatial.pack_polygon_index", ("s",)),
    ("spatial.pack_point_index", ("s",)),
    ("spatial.pip_join", ("s", "rows", "hit_ratio")),
    ("spatial.knn_join", ("s", "rows")),
    ("spatial.radius_join", ("s", "rows")),
    ("spatial.tile_rollup", ("s", "rows")),
    ("raster.rasterize_points", ("s", "rows")),
    ("raster.polygon_zonal_stats", ("s", "rows")),
    ("spatial.pip_join_partitioned", ("s", "rows", "skew")),
    ("spatial.knn_join_partitioned", ("s", "rows", "skew")),
    ("history.latest_at_bucketed", ("s", "rows")),
    ("checkpoints.run_stage", ("s", "bytes")),
    ("checkpoints.resume", ("s",)),
    ("dedup.minhash_dedup", ("s", "rows")),
    ("dedup.line_dedup", ("s", "rows")),
    ("dedup.snapshot_diff", ("s", "rows")),
    ("windows.asof_join", ("s", "rows")),
    ("windows.retention_cohorts", ("s", "rows")),
    ("quantiles.group_quantiles", ("s", "rows")),
    ("pagerank.pagerank", ("s", "rows")),
    ("ray.scan", ("s",)),
    ("ray.hash_exchange", ("s",)),
    ("ray.shuffle_floor", ("s",)),
]
# stages whose Ray Data operators are split into map and exchange time
OP_LAYERS = [
    "raster.rasterize_points", "raster.polygon_zonal_stats",
    "spatial.pip_join_partitioned",
    "history.latest_at_bucketed", "dedup.line_dedup", "dedup.snapshot_diff",
    "windows.asof_join", "quantiles.group_quantiles",
]
OP_CLASSES = ("map", "exchange")
BENCH_METRICS = {"bench.traced_wall.s": "s", "bench.span_coverage": "ratio",
                 "bench.tracing_overhead": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    out = {f"{layer}.{q}": _QTY_UNITS[q] for layer, qs in LAYERS for q in qs}
    out.update({f"{layer}.op.{c}.s": "s"
                for layer in OP_LAYERS for c in OP_CLASSES})
    out.update(BENCH_METRICS)
    return out


# ---------------------------------------------------------------------------
# Ray lifetime
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


# Ray's logical CPUs, the same on every host so runs compare like with
# like. At 1 a hash-shuffle groupby deadlocks: its aggregator pool is
# sized max(2, cpus) and holds the only CPU.
RAY_CPUS = 2


def start_ray(cpus: int) -> None:
    import logging

    import ray
    import ray.data as rd

    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(ROOT) + (os.pathsep + path if path else "")
    kwargs = {}
    if len(str(RAY_TMP)) <= 44:
        RAY_TMP.mkdir(exist_ok=True)
        kwargs["_temp_dir"] = str(RAY_TMP)
    else:
        print(f"perfbench: {RAY_TMP} is too long for Ray's sockets; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _warm() -> int:
    import numpy as np

    import pyrosm_ray.pipelines.checkpoints  # noqa: F401
    import pyrosm_ray.pipelines.layers  # noqa: F401
    import pyrosm_ray.stages.dedup  # noqa: F401
    import pyrosm_ray.stages.history  # noqa: F401
    import pyrosm_ray.stages.pagerank  # noqa: F401
    import pyrosm_ray.stages.quantiles  # noqa: F401
    import pyrosm_ray.stages.raster  # noqa: F401
    import pyrosm_ray.stages.spatial  # noqa: F401
    import pyrosm_ray.stages.windows  # noqa: F401
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 500_000)
    np.arcsin(np.sqrt(np.abs(np.sin(x) * np.cos(x))))
    return os.getpid()


def warm_up(cpus: int) -> None:
    """Start the worker pool and import the heavy modules in the driver and
    in every worker, so the first timed pass does not pay process start
    and imports."""
    import ray
    import ray.data as rd
    _warm()
    warm = ray.remote(_warm)
    ray.get([warm.remote() for _ in range(2 * cpus)])
    rd.range(1000).map_batches(lambda b: b).count()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2:][:1] != b"Z"


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    from perfbench.harness import descendants
    started = descendants(os.getpid())
    ray.shutdown()
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            for p in started:
                if _alive(p):
                    try:
                        os.kill(p, sig)
                    except OSError:
                        pass
        t_end = time.monotonic() + 15.0
        while any(_alive(p) for p in started) and time.monotonic() < t_end:
            time.sleep(0.1)
        if not any(_alive(p) for p in started):
            break
    shutil.rmtree(RAY_TMP, ignore_errors=True)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def host_info(seed: int, wl) -> dict:
    import numpy
    import pyarrow
    import ray

    from perfbench import inputs
    from pyrosm_ray.fixtures import GENERATOR_VERSION
    return {"nproc": nproc(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_cpus": int(ray.cluster_resources().get("CPU", 0)),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": sys.version.split()[0],
            "osm_sf": inputs.OSM_SF, "seed": seed,
            "generator_version": GENERATOR_VERSION,
            "input_rows": wl.input_rows}


def run_passes(wl, rec, seconds: float, traced: bool, deadline: float):
    """Closed loop: the next pass starts only when the previous one is
    checked, and only while less than ``seconds`` has passed since the
    first one started, so a run measures at least ``seconds``. The pass
    clock stops once the outputs are collected; the checks run after it.
    Untraced, at least two passes run, so a slow first pass does not
    stand alone. Traced, a cold untraced pass comes first, then traced and
    untraced passes alternate, at least one of each, so tracing overhead
    compares warm passes."""
    from perfbench.harness import StageFailed
    passes = []
    start = time.monotonic()
    min_passes = 3 if traced else 2
    while time.monotonic() < deadline:
        if len(passes) >= min_passes and \
                time.monotonic() - start >= seconds:
            break
        t_pass = time.monotonic()
        rec.traced = traced and len(passes) % 2 == 1
        name = f"pass{len(passes)}"
        rec.begin_pass(name)
        t0 = time.perf_counter()
        try:
            out = wl.run_pass(rec, len(passes))
        except StageFailed:
            out = None
        wall = time.perf_counter() - t0
        if out is not None:
            wl.check(rec, out)
        passes.append({"name": name, "traced": rec.traced, "wall_s": wall,
                       "complete": out is not None,
                       "total_s": time.monotonic() - t_pass})
    return passes


def layer_metrics(rec, passes) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes of each layer's summed span time, rows
    and annotated quantities, and over repeats of each calibration; and
    the names the workload exercised. Every name is reported; one the
    workload does not exercise reads 0."""
    units = per_layer_units()
    per_pass: list[dict[str, float]] = []
    for p in passes:
        if not (p["traced"] and p["complete"]):
            continue
        m: dict[str, float] = {}
        spans = [s for s in rec.spans if s.parent == p["name"]]
        for s in spans:
            m[f"{s.name}.s"] = m.get(f"{s.name}.s", 0.0) + s.s
            if s.rows is not None:
                m[f"{s.name}.rows"] = m.get(f"{s.name}.rows", 0) + s.rows
            for cls, v in s.ops.items():
                k = f"{s.name}.op.{cls}.s"
                m[k] = m.get(k, 0.0) + v
            for k, v in s.extra.items():
                m[f"{s.name}.{k}"] = v
        m["bench.traced_wall.s"] = p["wall_s"]
        m["bench.span_coverage"] = sum(s.s for s in spans) / p["wall_s"]
        per_pass.append(m)
    out = {}
    exercised = []
    for k in units:
        vals = [m[k] for m in per_pass if k in m]
        out[k] = float(statistics.median(vals)) if vals else 0.0
        if vals:
            exercised.append(k)
    if per_pass:
        out["bench.span_coverage"] = min(m["bench.span_coverage"]
                                         for m in per_pass)
    cal: dict[str, list[float]] = {}
    for s in rec.spans:
        if s.parent == "calibration":
            cal.setdefault(f"{s.name}.s", []).append(s.s)
    out.update({k: statistics.median(v) for k, v in cal.items()})
    exercised += sorted(cal)
    # the first pass is cold, so it is no reference
    ref = [p["wall_s"] for p in passes[1:]
           if not p["traced"] and p["complete"]]
    if ref and per_pass:
        out["bench.tracing_overhead"] = (out["bench.traced_wall.s"]
                                         / statistics.median(ref) - 1.0)
        exercised.append("bench.tracing_overhead")
    return out, exercised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    sys.path.insert(0, str(ROOT))
    # found, not imported: importing the engine sizes Ray Data's hash
    # shuffle to the live cluster, so it waits until Ray has started
    spec = importlib.util.find_spec("pyrosm_ray")
    if spec is None or spec.origin is None:
        print(f"perfbench: the engine is not importable from {ROOT}",
              file=sys.stderr)
        return 2
    if ROOT not in Path(spec.origin).resolve().parents:
        print(f"perfbench: found the engine at {spec.origin}, "
              f"not in the checkout at {ROOT}", file=sys.stderr)
        return 2
    from perfbench.harness import Recorder, RssSampler, StageFailed
    from perfbench.workloads import WORKLOADS, calibrate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    traced = bool(args.trace)

    # the traced run reports no setup_s, so it sets up once
    setup_runs = []
    try:
        for i in range(1 if traced else SETUP_REPEATS):
            if i:
                stop_ray()
            t0 = time.perf_counter()
            start_ray(RAY_CPUS)
            warm_up(RAY_CPUS)
            wl.prepare(args.seed)
            setup_runs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.expect(args.seed)
        oracle_s = time.perf_counter() - t0
        # a slow first set-up (it generates the OSM world) still gets a pass
        deadline = max(t_start + RUN_DEADLINE_S,
                       time.monotonic() + STAGE_TIMEOUT_S)
        rec = Recorder(traced, STAGE_TIMEOUT_S, deadline)
        with RssSampler() as rss:
            passes = run_passes(wl, rec, args.seconds, traced, deadline)
        if traced:
            rec.traced = True
            rec.begin_pass("calibration")
            try:
                calibrate(rec)
            except StageFailed:
                pass  # counted in rec.failed; the result reports it
        info = {"workload": wl.name, "host": host_info(args.seed, wl),
                "setup_runs_s": setup_runs, "oracle_s": oracle_s,
                "passes": passes, "ceilings": wl.ceilings(),
                "failures": rec.failures,
                "fail_ratio": rec.failed / max(rec.attempted, 1),
                "rss_samples": rss.samples}
        if traced:
            t0 = rec.spans[0].start if rec.spans else 0.0
            info["spans"] = [{"name": s.name, "pass": s.parent,
                              "start_s": s.start - t0, "s": s.s,
                              "rows": s.rows, "ops": s.ops}
                             for s in rec.spans]
    finally:
        stop_ray()

    complete = [p["wall_s"] for p in passes if p["complete"]
                and p["traced"] == traced]
    walls = complete or [p["wall_s"] for p in passes]
    if traced:
        metrics, info["exercised"] = layer_metrics(rec, passes)
        units = per_layer_units()
    else:
        wall = statistics.median(walls)
        metrics = {"wall_s": wall, "rows_per_s": wl.input_rows / wall,
                   "setup_s": statistics.median(setup_runs),
                   "peak_rss_mb": rss.peak / (1 << 20)}
        units = END_TO_END
    result = {
        "correct": rec.failed == 0 and bool(complete),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
