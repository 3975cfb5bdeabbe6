"""Per-stage / per-partition checkpointing with lineage + row-count metrics.

The north rule's resume requirement (BASELINE.json): every stage writes
partitioned Parquet plus a JSON-lines manifest so a killed run skips
finished work. Modeled on the reference's result cache
(/root/reference/pyrosm/engine/cache.py:46-166 — deterministic key, atomic
tmp+rename, explicit empty marker) lifted from whole-result granularity to
stage + partition granularity.

Layout::

    <root>/<stage>/part-<key>/          one Parquet dir per partition
    <root>/<stage>/manifest.jsonl       one line per completed partition:
        {"stage", "part", "rows", "bytes", "lineage", "wall_s", "ts"}
    <root>/<stage>/_COMPLETE            stage-level marker

Two granularities:

* :meth:`CheckpointManager.run_stage` — whole-stage: build the Dataset,
  write it, mark complete; on resume read the parquet back instead.
* :meth:`CheckpointManager.run_partitioned` — keyed: the caller enumerates
  partition keys (tile buckets, shard ranges); each key builds and writes
  independently and completed keys are skipped on resume — a failed run
  recomputes only missing partitions.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import ray.data as rd

from pyrosm_ray.stages.blocks import unreserved


class CheckpointManager:
    def __init__(self, root: str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- manifest helpers --------------------------------------------------
    def _stage_dir(self, stage: str) -> Path:
        return self.root / stage

    def manifest(self, stage: str) -> list[dict]:
        p = self._stage_dir(stage) / "manifest.jsonl"
        if not p.exists():
            return []
        return [json.loads(line) for line in p.read_text().splitlines()
                if line.strip()]

    def _append_manifest(self, stage: str, entry: dict) -> None:
        d = self._stage_dir(stage)
        d.mkdir(parents=True, exist_ok=True)
        with open(d / "manifest.jsonl", "a") as f:
            f.write(json.dumps(entry) + "\n")

    def completed_parts(self, stage: str) -> set[str]:
        return {m["part"] for m in self.manifest(stage)}

    def stage_complete(self, stage: str) -> bool:
        return (self._stage_dir(stage) / "_COMPLETE").exists()

    # -- whole-stage checkpoint -------------------------------------------
    def run_stage(self, stage: str, build_fn, lineage: str = ""):
        """Build-or-reload one stage. ``build_fn() -> Dataset``; the result
        is written as partitioned Parquet; resume short-circuits to a
        read_parquet of the checkpoint."""
        d = self._stage_dir(stage)
        data_dir = d / "data"
        if self.stage_complete(stage):
            return unreserved(rd.read_parquet(str(data_dir)))
        if d.exists():
            shutil.rmtree(d)
        tmp = d.with_suffix(".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        (tmp / "data").mkdir(parents=True)
        t0 = time.time()
        ds = build_fn()
        ds.write_parquet(str(tmp / "data"))
        rows = 0
        nbytes = 0
        for f in (tmp / "data").glob("*.parquet"):
            import pyarrow.parquet as pq
            md = pq.read_metadata(f)
            rows += md.num_rows
            nbytes += f.stat().st_size
        os.replace(tmp, d)
        self._append_manifest(stage, {
            "stage": stage, "part": "ALL", "rows": rows, "bytes": nbytes,
            "lineage": lineage, "wall_s": round(time.time() - t0, 3),
            "ts": time.time(),
        })
        (d / "_COMPLETE").touch()
        return unreserved(rd.read_parquet(str(data_dir)))

    # -- per-partition checkpoint -----------------------------------------
    def run_partitioned(self, stage: str, part_keys, build_part_fn,
                        lineage: str = ""):
        """Run/resume a keyed stage partition by partition.

        ``build_part_fn(key) -> Dataset`` for one partition; completed keys
        (manifest) are skipped. Returns the Dataset union over all
        partitions (read back from the checkpoint files)."""
        done = self.completed_parts(stage)
        d = self._stage_dir(stage)
        # sweep stale part-*.tmp dirs from crashed runs whose key is absent
        # from the current key list (they would otherwise match the final
        # glob and surface partial files as committed data)
        if d.exists():
            for stale in d.glob("part-*.tmp"):
                shutil.rmtree(stale)
        for key in part_keys:
            part = str(key)
            if part in done:
                continue
            part_dir = d / f"part-{part}"
            tmp = d / f"part-{part}.tmp"
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir(parents=True)
            t0 = time.time()
            ds = build_part_fn(key)
            ds.write_parquet(str(tmp))
            rows = 0
            nbytes = 0
            import pyarrow.parquet as pq
            for f in tmp.glob("*.parquet"):
                md = pq.read_metadata(f)
                rows += md.num_rows
                nbytes += f.stat().st_size
            if part_dir.exists():
                shutil.rmtree(part_dir)
            os.replace(tmp, part_dir)
            self._append_manifest(stage, {
                "stage": stage, "part": part, "rows": rows, "bytes": nbytes,
                "lineage": lineage, "wall_s": round(time.time() - t0, 3),
                "ts": time.time(),
            })
        dirs = sorted(p for p in d.glob("part-*")
                      if p.is_dir() and not p.name.endswith(".tmp"))
        files = sorted(str(f) for p in dirs for f in p.glob("*.parquet"))
        return unreserved(rd.read_parquet(files)) if files else None

    # -- metrics -----------------------------------------------------------
    def metrics(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for stage_dir in self.root.iterdir():
            if not stage_dir.is_dir():
                continue
            entries = self.manifest(stage_dir.name)
            out[stage_dir.name] = {
                "parts": len(entries),
                "rows": sum(e["rows"] for e in entries),
                "bytes": sum(e["bytes"] for e in entries),
                "wall_s": round(sum(e["wall_s"] for e in entries), 3),
            }
        return out
