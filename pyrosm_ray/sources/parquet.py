"""Row-group-splitting parquet reader.

``ray.data.read_parquet`` (2.49) plans ONE read task per FILE: a
single-file table decodes serially whatever ``override_num_blocks``
asks for, which caps every downstream stage's parallelism. Parquet files
already carry a natural split boundary, the row group, so this reader
plans one Ray read task per contiguous row-group *range* and decodes the
ranges concurrently, column-pruned, straight into Arrow blocks.

Planning reads only file footers on the driver. Each file splits into at
least min(its row groups, the cluster's CPUs) ranges, so a map over the
read keeps every CPU busy, and into enough ranges that none holds more
than :data:`DEFAULT_TARGET_BYTES` (unless one row group alone does). The
cuts balance the uncompressed bytes of the columns actually read: each
cut sits at the row-group boundary nearest its even share. A file
without rows still plans one task, so the result always carries the
file's (column-pruned) schema.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.datasource import Datasource

from pyrosm_ray.stages.blocks import _cluster_cpus, unreserved

DEFAULT_TARGET_BYTES = 8 << 20  # uncompressed column bytes per task


def _parquet_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(e.path for e in os.scandir(path)
                      if e.name.endswith(".parquet"))
    return [path]


def _group_bytes(md, columns: list[str] | None) -> np.ndarray:
    """Uncompressed bytes of the read columns, per row group."""
    out = np.zeros(md.num_row_groups, np.int64)
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        out[i] = sum(
            rg.column(j).total_uncompressed_size
            for j in range(rg.num_columns)
            if columns is None
            or rg.column(j).path_in_schema.split(".")[0] in columns)
    return out


def _cuts(sizes: np.ndarray, k: int) -> np.ndarray:
    """Range bounds [0, ..., n] cutting ``sizes`` into ``k`` contiguous
    non-empty ranges, each cut at the boundary nearest its even share."""
    n = len(sizes)
    cum = np.concatenate([[0], np.cumsum(sizes)])
    bounds = [0]
    for j in range(1, k):
        share = cum[-1] * j / k
        i = int(np.searchsorted(cum, share))
        if i > 0 and share - cum[i - 1] <= cum[min(i, n)] - share:
            i -= 1
        bounds.append(min(max(i, bounds[-1] + 1), n - (k - j)))
    return np.array(bounds + [n])


def _split_file(sizes: np.ndarray, min_ranges: int,
                target_bytes: int) -> np.ndarray:
    """Range bounds for one file's row groups: at least
    min(row groups, ``min_ranges``) ranges, and no range of several row
    groups past ``target_bytes``. A file without row groups is one empty
    range."""
    n = len(sizes)
    k = min(n, max(min_ranges, math.ceil(sizes.sum() / target_bytes)))
    while True:
        bounds = _cuts(sizes, k)
        over = [sizes[a:b].sum() > target_bytes
                for a, b in zip(bounds[:-1], bounds[1:]) if b - a > 1]
        if k == n or not any(over):
            return bounds
        k += 1


def _plan_tasks(files: list[str], columns: list[str] | None,
                min_ranges: int, target_bytes: int
                ) -> list[tuple[str, list[int], int, int]]:
    """(file, row-group ids, rows, bytes) per read task."""
    tasks = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        sizes = _group_bytes(md, columns)
        bounds = _split_file(sizes, min_ranges, target_bytes)
        for a, b in zip(bounds[:-1], bounds[1:]):
            rgs = list(range(int(a), int(b)))
            tasks.append((f, rgs,
                          sum(md.row_group(i).num_rows for i in rgs),
                          int(sizes[a:b].sum())))
    return tasks


def read_parquet_split(path: str, columns: list[str] | None = None,
                       num_blocks: int | None = None) -> "rd.Dataset":
    """Read parquet with row-group-level task splitting (see module doc).

    ``num_blocks`` asks for at least that many tasks over the whole
    table: it lowers the per-task byte target to the table's read bytes
    over ``num_blocks``."""
    files = _parquet_files(path)
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    target = DEFAULT_TARGET_BYTES
    if num_blocks:
        total = sum(int(_group_bytes(pq.ParquetFile(f).metadata,
                                     columns).sum()) for f in files)
        target = max(1, min(target, math.ceil(total / num_blocks)))
    tasks = _plan_tasks(files, columns, _cluster_cpus(), target)
    return unreserved(rd.read_datasource(
        _RowGroupDatasource(tasks, columns),
        override_num_blocks=len(tasks)))


class _RowGroupDatasource(Datasource):
    """One ReadTask per row-group range with REAL row/byte metadata.

    Crucial detail vs the tempting ``from_items + map_batches(load)``
    shape: item rows weigh 1 row each, so any fused downstream stage with
    a ``batch_size`` bundles ALL planned read tasks into one Ray task
    (Ray sizes bundles by input rows) — the whole chain silently runs
    serially. ReadTasks declare the decoded row counts, so bundling and
    fusion see the true weights."""

    def __init__(self, tasks, columns):
        self._tasks = tasks
        self._columns = columns

    def estimate_inmemory_data_size(self):
        return sum(b for *_, b in self._tasks)

    def get_name(self) -> str:
        return "ParquetRowGroups"

    def get_read_tasks(self, parallelism: int):
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask
        columns = self._columns
        out = []
        for f, rgs, n, b in self._tasks:
            def _read(f=f, rgs=rgs):
                return [pq.ParquetFile(f).read_row_groups(
                    rgs, columns=columns)]
            out.append(ReadTask(_read, BlockMetadata(
                num_rows=n, size_bytes=b, exec_stats=None,
                input_files=[f])))
        return out
