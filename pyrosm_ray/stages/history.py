"""History-table operators (reference A1/M10: full-history reads keep the
latest version per element; an invisible latest drops the element —
/root/reference/pyrosm/data_filter.pyx:340-343).

Fully distributed and vectorised: rows hash-bucket by id through one
raw-task exchange (:func:`pyrosm_ray.stages.blocks.exchange`), and each
bucket picks every id's last version with a lexsort + last-per-id mask.
No per-id Python groups and no join, so nested ``refs``/``tags``
columns ride through untouched."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from pyrosm_ray.stages.blocks import exchange, groupby_partitions


def latest_versions(ds, id_col: str = "id", version_col: str = "version",
                    visible_col: str | None = "visible"):
    """Rows holding each id's maximum version, invisible latest dropped.

    ``(id, version)`` must be unique per row (OSM history semantics)."""
    return latest_at_bucketed(ds, None, id_col, version_col, visible_col)


def normalize_timestamp(timestamp) -> int:
    """-> epoch seconds. Accepts int/float epoch s, numpy datetime64,
    datetime, or an ISO string (reference get_network(timestamp=...):
    'the closest version of each element up to given timestamp' —
    inclusive cutoff, pyrosm/pyrosm.py:383-391)."""
    import datetime as _dt

    import numpy as np
    if isinstance(timestamp, (int, float)):
        return int(timestamp)
    if isinstance(timestamp, np.datetime64):
        return int(timestamp.astype("datetime64[s]").astype(np.int64))
    if isinstance(timestamp, _dt.datetime):
        return int(timestamp.timestamp())
    return int(np.datetime64(str(timestamp)).astype("datetime64[s]")
               .astype(np.int64))


def latest_at_any(ds, timestamp, id_col: str = "id",
                  version_col: str = "version",
                  visible_col: str | None = "visible",
                  ts_col: str = "timestamp"):
    """Payload-agnostic ``latest_at``: works for tables with list/map
    columns (``refs``/``tags``), which acero joins reject as non-key
    payload. Shape: cutoff filter -> per-block maxima of the combined key
    id*2^16 + version (OSM ids < 2^47, versions < 2^16), folded on the
    driver -> broadcast the surviving (id, version) keys as one sorted
    array -> vectorised semi-filter. The broadcast holds 16 B per live
    element — the same object-store contract as the coordinate index."""
    import numpy as np
    import ray

    t = normalize_timestamp(timestamp)

    def cutoff(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch[ts_col], pa.timestamp("s")), pa.int64())
        return batch.filter(pc.fill_null(pc.less_equal(ts, t), False))

    ds = ds.map_batches(cutoff, batch_format="pyarrow")

    def partial_max(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ver = np.asarray(b[version_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        return pa.table({"k": pa.array(_last_per_id((ids << 16) | ver))})

    keys = [np.asarray(b["k"].to_numpy(zero_copy_only=False), np.int64)
            for b in ds.map_batches(partial_max, batch_format="pyarrow")
            .iter_batches(batch_size=1 << 18, batch_format="pyarrow")]
    key_arr = _last_per_id(np.concatenate(keys)) if keys else \
        np.empty(0, dtype=np.int64)
    key_ref = ray.put(key_arr)

    def keep_latest(batch: pa.Table) -> pa.Table:
        arr = ray.get(key_ref)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ver = np.asarray(batch[version_col].to_numpy(
            zero_copy_only=False), dtype=np.int64)
        k = (ids << 16) | ver
        if len(arr):
            pos = np.clip(np.searchsorted(arr, k), 0, len(arr) - 1)
            m = arr[pos] == k
        else:
            m = np.zeros(len(k), dtype=bool)
        if visible_col is not None and visible_col in batch.column_names:
            m &= np.asarray(pc.fill_null(batch[visible_col], False)
                            .to_numpy(zero_copy_only=False))
        return batch.filter(pa.array(m))

    return ds.map_batches(keep_latest, batch_format="pyarrow")


def _last_per_id(k):
    """Sorted combined keys (id << 16 | version) -> each id's maximum."""
    import numpy as np

    k = np.sort(k)
    last = np.ones(len(k), dtype=bool)
    last[:-1] = (k[1:] >> 16) != (k[:-1] >> 16)
    return k[last]


def latest_at_bucketed(ds, timestamp, id_col: str = "id",
                       version_col: str = "version",
                       visible_col: str | None = "visible",
                       ts_col: str = "timestamp",
                       num_buckets: int = 64):
    """Fully distributed ``latest_at`` for payload-agnostic tables whose
    live-key set exceeds the broadcast contract of :func:`latest_at_any`:
    rows hash-bucket by id (one exchange carrying the payload once), and
    each bucket picks every id's max surviving version vectorised. The
    number of buckets bounds group size; one id's versions must fit a
    worker. ``timestamp=None`` applies no cutoff."""
    import numpy as np

    cutoff = None if timestamp is None else normalize_timestamp(timestamp)

    def cutoff_and_bucket(batch: pa.Table) -> pa.Table:
        if cutoff is not None:
            ts = pc.cast(pc.cast(batch[ts_col], pa.timestamp("s")),
                         pa.int64())
            batch = batch.filter(
                pc.fill_null(pc.less_equal(ts, cutoff), False))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        # multiplicative hash: dense OSM id ranges spread evenly
        h = (ids.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) \
            >> np.uint64(52)
        return batch.append_column(
            "__bucket", pa.array((h % num_buckets).astype(np.int64)))

    def pick_latest(group: pa.Table) -> pa.Table:
        n = group.num_rows
        ids = np.asarray(group[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ver = np.asarray(group[version_col].to_numpy(
            zero_copy_only=False), dtype=np.int64)
        order = np.lexsort((ver, ids))
        last = np.ones(n, dtype=bool)
        last[:-1] = ids[order][1:] != ids[order][:-1]
        keep = order[last]
        if visible_col is not None and \
                visible_col in group.column_names:
            vis = np.asarray(pc.fill_null(group[visible_col], False)
                             .to_numpy(zero_copy_only=False))
            keep = keep[vis[keep]]
        return group.take(pa.array(np.sort(keep))) \
            .drop_columns(["__bucket"])

    empty = ds.schema().base_schema.empty_table()
    return exchange(ds.map_batches(cutoff_and_bucket, batch_format="pyarrow"),
                    "__bucket", pick_latest, groupby_partitions(num_buckets),
                    empty)


def latest_at(ds, timestamp, id_col: str = "id",
              version_col: str = "version", visible_col: str = "visible",
              ts_col: str = "timestamp"):
    """Element state as of ``timestamp`` (M10 + A1): rows with
    ``ts <= timestamp`` (inclusive), then each id's maximum surviving
    version, invisible latest dropped (reference
    data_filter.pyx:340-343 + the timestamp contract of
    pyrosm/pyrosm.py:383-391)."""
    return latest_at_bucketed(ds, timestamp, id_col, version_col,
                              visible_col, ts_col)
