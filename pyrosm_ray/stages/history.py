"""History-table operators (reference A1/M10: full-history reads keep the
latest version per element; an invisible latest drops the element —
/root/reference/pyrosm/data_filter.pyx:340-343).

Fully distributed and vectorised: rows co-partition by id through one
raw-task fold (:func:`pyrosm_ray.stages.blocks.fold`), and each
partition picks every id's last version with a lexsort + last-per-id mask.
No per-id Python groups and no join, so nested ``refs``/``tags``
columns ride through untouched."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from pyrosm_ray.stages.blocks import fold


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


def latest_at_bucketed(ds, timestamp, id_col: str = "id",
                       version_col: str = "version",
                       visible_col: str | None = "visible",
                       ts_col: str = "timestamp"):
    """``latest_at`` for any payload, list and map columns included
    (``refs``/``tags``): one fold on the id carries the payload once, and
    each partition picks every id's max surviving version vectorised.
    The fold sizes itself from the input (one reduce task for small
    tables). One id's versions must fit a worker. ``timestamp=None``
    applies no cutoff."""
    import numpy as np

    limit = None if timestamp is None else normalize_timestamp(timestamp)

    def cutoff(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch[ts_col], pa.timestamp("s")), pa.int64())
        return batch.filter(pc.fill_null(pc.less_equal(ts, limit), False))

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
        return group.take(pa.array(np.sort(keep)))

    empty = ds.schema().base_schema.empty_table()
    if limit is not None:
        ds = ds.map_batches(cutoff, batch_format="pyarrow")
    return fold(ds, id_col, pick_latest, None, empty)


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
