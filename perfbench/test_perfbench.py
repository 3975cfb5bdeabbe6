"""Checks of the benchmark itself. Run from the root of the repository:

    python3 -m pytest perfbench -q

The traced-run check starts Ray and takes about two minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import pyarrow as pa
import pytest

from perfbench.harness import call_with_timeout
from perfbench.run import ROOT, per_layer_units
from perfbench.workloads import compare


def test_compare_ignores_row_order_and_finds_changes():
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", None], "c": [0.1, 0.2, 0.3]})
    shuffled = t.take([2, 0, 1]).select(["c", "a", "b"])
    cols = ["a", "b", "c"]
    assert compare(shuffled, t, cols) is None
    assert compare(t.slice(0, 2), t, cols) is not None
    changed = t.set_column(2, "c", pa.array([0.1, 0.2, 0.31]))
    assert compare(changed, t, cols) is not None
    assert compare(t.set_column(0, "a", pa.array([1, 2, 4])), t,
                   cols) is not None


def test_call_with_timeout_gives_up_on_a_hung_call():
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        call_with_timeout(lambda: time.sleep(30), 0.2)
    assert time.monotonic() - t0 < 5
    assert call_with_timeout(lambda: 7, 1.0) == 7
    with pytest.raises(ZeroDivisionError):
        call_with_timeout(lambda: 1 // 0, 1.0)


def test_traced_run_covers_each_pass_and_reports_overhead():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo_enrich",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    info, res = json.loads(lines[-2]), json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0, info["failures"]
    assert any(not p["traced"] for p in info["passes"])
    assert any(p["traced"] for p in info["passes"])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == list(per_layer_units())
    assert metrics["bench.span_coverage"] >= 0.9
    assert math.isfinite(metrics["bench.tracing_overhead"])
    assert metrics["spatial.pip_join.rows"] > 0
    for name in ("layers.get_buildings.s", "spatial.assign_tiles.salted_share",
                 "spatial.pip_join.hit_ratio", "ray.shuffle_floor.s"):
        assert name in info["exercised"]
    assert "dedup.minhash_dedup.s" not in info["exercised"]
