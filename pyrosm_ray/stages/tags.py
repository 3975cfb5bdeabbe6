"""Tag → column promotion and JSON leftover rendering (stateless map_batches).

Re-expresses the reference's tag routing (M7:
/root/reference/pyrosm/tagparser.pyx:55-92, pyrosm/_arrays.pyx:22-65,
pyrosm/engine/collect.py:487-560): requested tag keys become real string
columns, every other tag lands in a compact-JSON ``tags`` string column, and a
tag whose key collides with a structural column (e.g. a literal ``id`` tag)
is promoted under a ``_tag`` suffix (pyrosm/tagparser.pyx:41-45).

Unlike the reference (dynamic occurring-columns per chunk), every batch here
emits the FULL requested column list so Ray Data blocks share one schema;
:func:`drop_empty_columns` removes never-occurring columns with a cheap
distributed non-null count at the output boundary (write-time schema-union
analogue of pyrosm/engine/geoparquet.py:40-50).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

STRUCTURAL_COLUMNS = frozenset({
    "id", "refs", "nodes", "members", "geometry", "osm_type", "lon", "lat",
    "version", "changeset", "timestamp", "visible", "length", "u", "v",
})


def _map_parts(tags_col):
    if isinstance(tags_col, pa.ChunkedArray):
        tags_col = tags_col.combine_chunks()
    n = len(tags_col)
    if n == 0:
        return n, np.zeros(1, dtype=np.int64), pa.array([], pa.string()), \
            pa.array([], pa.string())
    off = np.asarray(tags_col.offsets, dtype=np.int64)
    if tags_col.null_count:
        off = np.asarray(pc.fill_null_backward(tags_col.offsets), dtype=np.int64)
    return n, off, tags_col.keys, tags_col.items


def promote_tags(batch: pa.Table, keep_keys: list[str],
                 tags_column: str = "tags",
                 render_leftover_json: bool = True) -> pa.Table:
    """Replace the map ``tags`` column with one string column per requested
    key (null where absent) + the leftover-JSON ``tags`` column.

    One vectorised scatter for all requested keys (no per-key pass): flat map
    entries are bucketed by ``index_in(requested)`` and written into an
    (n_keys, n_rows) object matrix.
    """
    n, off, keys, items = _map_parts(batch[tags_column])
    out_names = []
    for k in keep_keys:
        out_names.append(k + "_tag" if k in STRUCTURAL_COLUMNS else k)

    key_idx = pc.index_in(keys, value_set=pa.array(keep_keys, pa.string()))
    hit = np.asarray(key_idx.is_valid())
    key_idx_np = np.asarray(pc.fill_null(key_idx, -1).to_numpy(zero_copy_only=False),
                            dtype=np.int64)
    flat_elem = np.repeat(np.arange(n, dtype=np.int64), off[1:] - off[:-1])
    items_np = np.asarray(items.to_numpy(zero_copy_only=False), dtype=object)

    promoted = np.full((len(keep_keys), n), None, dtype=object)
    hit_idx = key_idx_np[hit]
    promoted[hit_idx, flat_elem[hit]] = items_np[hit]

    cols = dict(zip(batch.column_names, batch.columns))
    cols.pop(tags_column, None)
    for name, row in zip(out_names, promoted):
        cols[name] = pa.array(row, pa.string())

    if render_leftover_json:
        keys_np = np.asarray(keys.to_numpy(zero_copy_only=False), dtype=object)
        left = ~hit
        lk, lv, le = keys_np[left], items_np[left], flat_elem[left]
        leftover = [None] * n
        # group leftover entries per element (they arrive in element order)
        start = 0
        while start < len(le):
            e = le[start]
            end = start
            while end < len(le) and le[end] == e:
                end += 1
            leftover[e] = json.dumps(
                dict(zip(lk[start:end], lv[start:end])), ensure_ascii=False)
            start = end
        cols[tags_column] = pa.array(leftover, pa.string())

    return pa.table(cols)


def nonnull_counts(ds, columns: list[str]) -> dict[str, int]:
    """Distributed non-null count per column (partial per batch + keyed
    sum)."""
    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "column": pa.array(columns, pa.string()),
            "n": pa.array([len(batch) - batch[c].null_count for c in columns],
                          pa.int64()),
        })
    from pyrosm_ray.stages.blocks import keyed_sum_auto
    agg = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                         "column", ["n"]).to_pandas()
    return dict(zip(agg["column"], agg["n"]))


def drop_empty_columns(ds, candidate_columns: list[str]):
    """Drop candidate columns that are null everywhere (occurring-tags-only
    output contract, reference M7/M8). One extra cheap pass over the data."""
    schema_names = ds.schema().names
    candidates = [c for c in candidate_columns if c in schema_names]
    if not candidates:
        return ds
    counts = nonnull_counts(ds, candidates)
    dead = {c for c in candidates if counts.get(c, 0) == 0}
    if not dead:
        return ds
    return ds.select_columns([c for c in schema_names if c not in dead])
