"""Engine Datasets run without Ray Data's per-operator resource
reservation (``blocks.unreserved``): a map over one keeps more than half
the cluster busy, every operator's output carries the switch, and
neither the global ``DataContext`` nor a caller-built Dataset's context
is written."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from pyrosm_ray.fixtures import ensure_fixtures
from pyrosm_ray.stages import blocks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_map_over_engine_dataset_runs_past_half_the_cluster(ray_session):
    """2 x CPU blocks of a busy UDF whose map feeds a downstream
    operator (here a repartition, as in ``knn_join_partitioned``): with
    the reservation on, Ray Data 2.49 runs at most half the CPUs' worth
    of them at once."""
    def busy(b: pa.Table) -> pa.Table:
        start = time.time()
        while time.time() - start < 0.4:
            pass
        return pa.table({"k": b["k"].slice(0, 1), "start": [start],
                         "end": [time.time()]})

    cpus = int(ray.cluster_resources()["CPU"])
    n = 2 * cpus
    # one key per fold partition, so every partition is a one-row block
    cand = pa.table({"k": pa.array(np.arange(1000), pa.int64())})
    part = blocks._key_hash(cand, ["k"]) % np.uint64(n)
    keys = [int(np.flatnonzero(part == p)[0]) for p in range(n)]
    t = pa.table({"k": pa.array(keys, pa.int64())})
    ds = blocks.fold(rd.from_arrow(t), "k", lambda g: g, n, t.slice(0, 0))
    spans = ds.map_batches(busy, batch_format="pyarrow",
                           batch_size=None).repartition(2).to_pandas()
    assert len(spans) == n
    events = sorted([(s, 1) for s in spans.start]
                    + [(e, -1) for e in spans.end])
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    assert peak >= 2
    assert peak > cpus // 2, (peak, cpus)


@pytest.fixture(scope="module")
def src():
    return str(ensure_fixtures("sf0.001"))


def test_engine_outputs_have_the_reservation_off(src, tmp_path, ray_session):
    from pyrosm_ray.pipelines.layers import OSM
    from pyrosm_ray.sources.parquet import read_parquet_split
    from pyrosm_ray.stages import dedup, spatial

    docs = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                     "text": ["a b c d", "a b c d", "x y z", "q r s t",
                              "q r s t u", None]})
    p = str(tmp_path / "docs.parquet")
    pq.write_table(docs, p, row_group_size=2)
    caller = rd.from_arrow(docs)
    outs = {
        "fold": blocks.fold(caller, "doc_id", lambda g: g, None, None),
        "read_parquet_split": read_parquet_split(p),
        "minhash_dedup": dedup.minhash_dedup(caller, threshold=0.5),
        "get_pois": OSM(src).get_pois(),
        "pip_join_partitioned": spatial.pip_join_partitioned(
            rd.read_parquet(f"{src}/pages.parquet"),
            OSM(src).get_buildings()),
    }
    on = {k: ds.context.op_resource_reservation_enabled
          for k, ds in outs.items()}
    assert not any(on.values()), on
    # the caller's own Dataset keeps its context untouched
    assert caller.context.op_resource_reservation_enabled is \
        rd.DataContext().op_resource_reservation_enabled


_PROBE = """
import json
import ray, ray.data as rd
import pyarrow as pa
import pyrosm_ray
from pyrosm_ray.stages import blocks, dedup
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
caller = rd.from_arrow(pa.table({"doc_id": pa.array(range(4), pa.int64()),
                                 "text": ["a b c", "a b c", "d e f", None]}))
n = blocks.fold(caller, "doc_id", lambda g: g, None, None).count()
d = dedup.minhash_dedup(caller).count()
print(json.dumps({
    "default": rd.DataContext().op_resource_reservation_enabled,
    "global": rd.DataContext.get_current().op_resource_reservation_enabled,
    "caller": caller.context.op_resource_reservation_enabled,
    "rows": [n, d]}))
ray.shutdown()
"""


def test_import_and_engine_ops_leave_callers_contexts_alone():
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    r = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                       text=True, env=env, cwd=ROOT, timeout=300)
    line = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    assert line, r.stderr[-2000:]
    got = json.loads(line[-1])
    assert got["rows"] == [4, 4]
    assert got["global"] == got["default"]
    assert got["caller"] == got["default"]
    # the check means something only while Ray reserves by default
    assert got["default"] is True
