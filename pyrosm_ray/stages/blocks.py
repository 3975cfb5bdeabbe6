"""Keyed exchanges on raw Ray tasks: the engine's one way to move rows
by key.

:func:`exchange` (``groupby(key).map_groups(fn)`` semantics) and
:func:`co_join` (an inner, left outer or left anti hash join) move Arrow
shards between plain Ray tasks: one split task per non-empty block
(``num_returns=nb``), one reduce task per partition, reduce refs wrapped
by ``rd.from_arrow_refs``. No aggregator-actor pool starts, zero-row
blocks are skipped from their metadata, and an empty partition returns a
typed table. Outputs stay object refs; nothing is gathered on the
driver. Every keyed step in the package runs on them, directly or
through :func:`keyed_sum_fold`.

:func:`tune_shuffle_context` only sizes Ray Data's own hash shuffle for
the callers outside the package that still use it."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.context import ShuffleStrategy


def _cluster_cpus(default: int = 8) -> int:
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def tune_shuffle_context() -> None:
    """Size Ray Data's own hash shuffle to the live cluster.

    No package code uses that shuffle (its keyed steps run on
    :func:`exchange`/:func:`co_join`). Its remaining users are the
    ``__ray_entry__`` relational oracle queries written in plain Ray Data
    (``q_agg_pricing``, ``q_join_revenue_by_segment``,
    ``q_events_window``, ``q_tile_counts``, ``q_pages_by_lang``) and the
    ``ray.hash_exchange`` calibrations in ``perfbench`` and
    ``bench_families.py``.

    HASH_SHUFFLE replaces the default SORT_SHUFFLE_PULL_BASED, which runs
    every keyed groupby as a full distributed sort (measured at sf3/8
    CPUs on a co-partitioned join: the Sort operator took 96.7 s of a
    107.8 s wall; the same plan under HASH_SHUFFLE ran 45.7 s). Ray's
    default sizing (200 partitions, up to 64 aggregator actors whatever
    the cluster size) hangs a 2-CPU groupby outright, so both knobs are
    resized to the cluster. Called at package import and again from
    :func:`groupby_partitions`. The cluster size is only known after
    ``ray.init``; before it the knobs take the smallest cluster's
    sizing, since a larger guess would over-size every shuffle on a
    small cluster until the next call."""
    ctx = rd.DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    cpus = _cluster_cpus() if ray.is_initialized() else 1
    ctx.default_hash_shuffle_parallelism = max(2, 2 * cpus)
    ctx.max_hash_shuffle_aggregators = max(2, cpus)


def groupby_partitions(n_keys: int | None = None) -> int:
    """Partition count for a keyed exchange (:func:`exchange`,
    :func:`co_join`): ~2x the cluster's CPUs, capped by the key-domain
    size. Partition count only controls the fan-out; ``fn`` still sees
    one call per distinct key."""
    tune_shuffle_context()
    cpus = _cluster_cpus()
    p = max(2, 2 * cpus)
    if n_keys:
        p = min(p, int(n_keys))
    return p


def _key_hash(t: pa.Table, keys: list[str]):
    """Per-row uint64 hash of the key columns; equal keys hash equally
    in every task (integers widen to int64 first, so int32 and int64
    sides of a join agree)."""
    import numpy as np
    import pandas as pd

    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_integer(col.type):
            # nulls hash as 0: a block with nulls must place its non-null
            # keys where a null-free block does (to_numpy would make
            # the whole block float)
            col = pc.fill_null(col, 0)
        v = np.asarray(col.to_numpy(zero_copy_only=False))
        if v.dtype.kind in "iu":
            v = v.astype(np.int64)
        h = (h * np.uint64(0x9E3779B97F4A7C15)) ^ pd.util.hash_array(v)
    return h


@ray.remote
def _split_block(block, keys: list[str], nb: int):
    """One upstream block -> ``nb`` hash partitions (typed, possibly
    zero-row tables; one return value each)."""
    import numpy as np

    t = block if isinstance(block, pa.Table) \
        else pa.Table.from_pandas(block, preserve_index=False)
    part = (_key_hash(t, keys) % np.uint64(nb)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    cut = np.searchsorted(part[order], np.arange(nb + 1))
    out = tuple(t.take(order[cut[i]:cut[i + 1]]) for i in range(nb))
    return out if nb > 1 else out[0]


def _split(ds, keys: list[str], nb: int) -> list[list]:
    """Submit one split task per non-empty block as the upstream plan
    streams them out -> ``nb`` lists of partition refs."""
    parts: list[list] = [[] for _ in range(nb)]
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                continue
            out = _split_block.options(num_returns=nb).remote(ref, keys, nb)
            for i, r in enumerate(out if nb > 1 else [out]):
                parts[i].append(r)
    return parts


def _concat_rows(parts) -> pa.Table | None:
    rows = [p for p in parts if p.num_rows]
    return pa.concat_tables(rows, promote_options="default") if rows \
        else None


@ray.remote
def _groups_reduce(fn, key: str, empty: pa.Table, *parts) -> pa.Table:
    import numpy as np

    t = _concat_rows(parts)
    if t is None:
        return empty
    t = t.sort_by(key)  # nulls sort last, as one run
    k = t[key].combine_chunks()
    null = k.is_null().to_numpy(zero_copy_only=False)
    new = pc.fill_null(pc.not_equal(k[1:], k[:-1]), True) \
        .to_numpy(zero_copy_only=False) & ~(null[1:] & null[:-1])
    cut = np.concatenate([[0], np.flatnonzero(new) + 1, [len(k)]])
    out = _concat_rows([fn(t.slice(s, e - s))
                        for s, e in zip(cut[:-1], cut[1:])])
    return empty if out is None else out


@ray.remote
def _join_reduce(keys: list[str], join_type: str, empty: pa.Table,
                 n_left: int, *parts) -> pa.Table:
    if n_left == 0 or (n_left == len(parts) and join_type == "inner"):
        return empty
    # zero-row shards still carry their block's schema, so a partition
    # with no matches yields a zero-row table typed by the data itself
    left = pa.concat_tables(parts[:n_left], promote_options="default")
    if n_left < len(parts):
        right = pa.concat_tables(parts[n_left:], promote_options="default")
    else:
        # the right side has no rows at all: a left outer/anti join keeps
        # every left row, joined against a typed empty right side
        right = empty.select(keys + [c for c in empty.column_names
                                     if c not in left.column_names])
    if not left.num_rows or (join_type == "inner" and not right.num_rows):
        left, right = left.slice(0, 0), right.slice(0, 0)  # no hash build
    return left.join(right, keys, join_type=join_type)


def exchange(ds, key: str, fn, nb: int, empty: pa.Table) -> rd.Dataset:
    """``ds.groupby(key).map_groups(fn, batch_format="pyarrow")`` on raw
    Ray tasks: rows hash-partition by ``key`` into ``nb`` reduce tasks,
    each sorts its rows by key and calls ``fn`` once per distinct key
    (with that key's rows as one ``pa.Table``). A partition that
    receives no rows — or whose groups all map to zero rows — returns
    ``empty``, so every output block is typed."""
    parts = _split(ds, [key], nb)
    return rd.from_arrow_refs(
        [_groups_reduce.remote(fn, key, empty, *p) for p in parts])


def co_join(left, right, keys, nb: int, empty: pa.Table,
            join_type: str = "inner") -> rd.Dataset:
    """Hash join of two Datasets on same-named ``keys`` on raw Ray
    tasks: both sides hash-split identically into ``nb`` partitions and
    each partition runs one ``pa.Table.join`` (left columns first, then
    right's non-key columns). ``join_type`` is pyarrow's: ``"inner"``,
    ``"left outer"`` or ``"left anti"``. Key columns must share a name:
    rename the right-hand key in a map first.

    ``empty`` is the result's schema as a zero-row table. It is the
    result when the left side (or, for an inner join, either side) has
    no rows at all. When only the right side is empty, a left outer or
    left anti join returns every left row, with ``empty``'s right-hand
    columns null. Otherwise every partition joins its typed shards, so a
    partition without matches is a zero-row table in the data's own
    schema."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    lp = _split(left, keys, nb)
    rp = _split(right, keys, nb)
    return rd.from_arrow_refs(
        [_join_reduce.remote(keys, join_type, empty, len(lp[i]), *lp[i],
                             *rp[i])
         for i in range(nb)])


def keyed_sum_fold(ds, key_col: str, val_cols: list[str],
                   num_partitions: int | None = None):
    """``groupby(key).sum(vals)`` through ONE coarse hash bucket + an
    in-partition factorize/add.at fold, exchanged on raw tasks
    (:func:`exchange`). A per-key aggregate pays per DISTINCT KEY (the
    measured 7x line_dedup pathology; dup_spans' 500 k-doc final sum went
    180 -> 60 s on this switch), the fold pays per BUCKET — the right
    shape whenever the key domain is large (vocabularies, node ids, doc
    ids). Output columns keep their input names. Keys may be int64 or
    string (an empty partition is typed from ``ds``'s schema when it is
    known without executing the plan, else int64); values must be
    int64."""
    import numpy as np

    from pyrosm_ray.stages.hashing import hash64, stable64_many

    nb = num_partitions or groupby_partitions()
    sch = ds.schema(fetch_if_missing=False)
    ktype = sch.types[sch.names.index(key_col)] \
        if sch is not None and key_col in sch.names else pa.int64()
    empty = pa.table({key_col: pa.array([], ktype),
                      **{c: pa.array([], pa.int64()) for c in val_cols}})

    def bucket(t: pa.Table) -> pa.Table:
        col = t[key_col]
        if pa.types.is_integer(col.type):
            h = hash64(np.asarray(col.to_numpy(zero_copy_only=False),
                                  np.int64).view(np.uint64), 13)
        else:
            h = stable64_many(col.to_pylist())
        return t.append_column(
            "__q", pa.array((h % np.uint64(nb)).astype(np.int64)))

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"), "__q",
                    lambda g: _fold_keyed(g, key_col, val_cols), nb, empty)


def _fold_keyed(g: "pa.Table", key_col: str, val_cols: list[str]):
    """One factorize/add.at keyed-sum pass over a table (the
    :func:`keyed_sum_fold` partition body)."""
    import numpy as np
    import pyarrow as pa

    if g.num_rows == 0:
        return pa.table({key_col: g[key_col],
                         **{c: g[c] for c in val_cols}})
    import pandas as pd
    keys = g[key_col].to_numpy(zero_copy_only=False) \
        if pa.types.is_integer(g[key_col].type) \
        else np.asarray(g[key_col].to_pylist(), dtype=object)
    codes, uniq = pd.factorize(keys)
    out = {key_col: pa.array(uniq, g[key_col].type)}
    for c in val_cols:
        v = np.asarray(g[c].to_numpy(zero_copy_only=False),
                       np.int64)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, codes, v)
        out[c] = pa.array(acc, pa.int64())
    return pa.table(out)


# inputs up to this many rows take the driver fold (the dup_spans
# driver policy: batch-local partials are already key-compressed, so the
# driver sees ~num_blocks x keys rows — at these counts the exchange's
# fixed cost IS the operator wall)
KEYED_FOLD_DRIVER_MAX = 100_000


def keyed_sum_auto(partials, key_col: str, val_cols: list[str],
                   num_partitions: int | None = None):
    """Route a partial-count aggregate: driver fold when the partial
    stream is small, the exchanged bucket fold (:func:`keyed_sum_fold`)
    beyond. Identical output either way.

    The partials pipeline (and its upstream plan) executes exactly ONCE —
    it is materialized here and the route gate reads the materialized row
    count, so a non-fresh-read upstream is never re-executed just to pick
    a route (round-4 advice: the old ``raw_ds.count()`` gate ran the whole
    upstream plan and the chosen route then ran it again). The partials
    are narrow key-compressed (key, counts) rows — bounded by
    blocks x keys, the same rows the fold route would shuffle — so
    pinning them in the object store costs no more than the shuffle
    itself."""
    parts = partials.materialize()
    n_part = parts.count()  # metadata-only on a materialized dataset
    if n_part > KEYED_FOLD_DRIVER_MAX:
        # map-side combine level: per-BLOCK partials are bounded by each
        # block's key domain, so with many input blocks the stream holds
        # ~blocks x keys rows of which only ~keys are distinct. Coalesce
        # to ~cluster-width blocks (repartition(shuffle=False) = minimal
        # block-level movement, NO keyed exchange) and re-fold each —
        # tile_rollup's sf3 fine level shrinks 2M partial rows to ~2%
        # of that before any exchange or driver collect runs.
        cpus = _cluster_cpus()
        merged = parts.repartition(max(2, cpus)).map_batches(
            lambda b: _fold_keyed(b, key_col, val_cols),
            batch_format="pyarrow").materialize()
        n_merged = merged.count()
        if n_merged < n_part:
            parts, n_part = merged, n_merged
    if n_part <= KEYED_FOLD_DRIVER_MAX:
        return keyed_sum_driver(parts, key_col, val_cols)
    return keyed_sum_fold(parts, key_col, val_cols, num_partitions)


def keyed_sum_driver(partials, key_col: str, val_cols: list[str],
                     schema: "pa.Schema | None" = None):
    """Driver twin of :func:`keyed_sum_fold` over an already-partial
    Dataset: stream the partial batches to the driver and run ONE fold —
    identical output (as a one-block Dataset, like the fold), no shuffle
    fixed cost. Callers (``keyed_sum_auto``) pass MATERIALIZED partials,
    so gating on their count and then streaming them here never
    re-executes the upstream plan."""
    import pyarrow as pa
    import ray.data as rd

    all_parts = [pa.table(b)
                 for b in partials.iter_batches(batch_format="pyarrow")]
    parts = [t for t in all_parts if t.num_rows]
    if not parts:
        # typed-empty: a zero-row partial still carries the UDF's schema
        empty = all_parts[0] if all_parts else (
            schema.empty_table() if schema is not None else pa.table(
                {key_col: pa.array([], pa.string()),
                 **{c: pa.array([], pa.int64()) for c in val_cols}}))
        return rd.from_arrow(empty)
    return rd.from_arrow(
        _fold_keyed(pa.concat_tables(parts), key_col, val_cols))
