"""Keyed folds on raw Ray tasks: the engine's one way to move rows by
key.

:func:`fold` hash-splits a Dataset on its real key columns and runs one
reduce task per partition, which calls ``fn`` once over all of that
partition's rows. Given a tuple of Datasets (sides), it splits every
side on the same key and calls ``fn`` with one table per side, so a
two-input operator needs no side-tag column or sentinel value; a side
without rows in a partition arrives as a typed zero-row table.
:func:`exchange` (``groupby(key).map_groups(fn)`` semantics: ``fn``
once per distinct key, nulls as one group) is a fold whose ``fn``
slices each key's run, and :func:`co_join` (an inner, left outer or
left anti hash join) is a two-sided fold whose ``fn`` is one
``pa.Table.join``. Shards move between plain Ray tasks: one split task
per non-empty upstream block (``num_returns=nb``), reduce refs wrapped
by ``rd.from_arrow_refs``. No aggregator-actor pool starts, zero-row
blocks are skipped from their metadata, and an empty partition returns
a typed table. Outputs stay object refs; nothing is gathered on the
driver.

``nb=None`` sizes the split from the input as its blocks stream out:
while the non-empty rows seen (all sides together) stay within
:data:`KEYED_FOLD_DRIVER_MAX` the blocks are held unsplit, and if the
stream ends there ONE reduce task runs over the raw blocks (a one-way
split is the identity, so no split task runs). Past the ceiling the
held blocks and everything after them split :func:`groupby_partitions`
wide. The row count comes from block metadata, so nothing materializes
or counts first. An explicit ``nb`` always splits ``nb`` ways.

Every Dataset the engine builds (each ``rd.from_*``/``rd.read_*``
result and each ``materialize()`` copy) passes through
:func:`unreserved`, which switches Ray Data's per-operator resource
reservation off on that Dataset's own context. Ray Data 2.49 reserves
part of the cluster for every operator of a plan by default, which caps
a map that feeds a further operator (a repartition, a map with other
resources) at about half the CPUs: two 1 s busy-map blocks took 2.07 s
with the reservation and 1.06 s without on 2 Ray CPUs, and eight 0.5 s
blocks 2.09-2.33 s against 1.07 s on 4 CPUs. A plan of one fused map
is not capped. The engine's plans are short map chains over blocks it
sized itself, so the reservation only idles CPUs. The global
``DataContext`` and the context of a Dataset the caller built are never
written: maps derived from a Dataset share its context, so the switch
reaches exactly the plans that start at an engine-built Dataset.

:func:`tune_shuffle_context` only sizes Ray Data's own hash shuffle for
the callers outside the package that still use it."""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.context import ShuffleStrategy

# ``nb=None`` folds inputs of at most this many non-empty rows in ONE
# reduce task over the raw blocks: at these sizes the split's fixed cost
# would be the operator wall (the name predates the fold; perfbench
# reads it)
KEYED_FOLD_DRIVER_MAX = 100_000


def unreserved(ds: rd.Dataset) -> rd.Dataset:
    """``ds``, which the engine built (its context is its own copy),
    with Ray Data's per-operator resource reservation switched off (see
    the module docstring). Maps derived from ``ds`` share its context,
    so they run without it too."""
    ds.context.op_resource_reservation_enabled = False
    return ds


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


def _table(block) -> pa.Table:
    return block if isinstance(block, pa.Table) \
        else pa.Table.from_pandas(block, preserve_index=False)


@ray.remote
def _split_block(block, keys: list[str], nb: int):
    """One upstream block -> ``nb`` >= 2 hash partitions (typed,
    possibly zero-row tables; one return value each)."""
    import numpy as np

    t = _table(block)
    part = (_key_hash(t, keys) % np.uint64(nb)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    cut = np.searchsorted(part[order], np.arange(nb + 1))
    return tuple(t.take(order[cut[i]:cut[i + 1]]) for i in range(nb))


def _bundles(sides):
    """(side index, ref bundle) pairs from every Dataset of ``sides``,
    taken in turn, so every side's plan streams at once (as a
    ``union`` of them would)."""
    live = [(i, iter(ds.iter_internal_ref_bundles()))
            for i, ds in enumerate(sides)]
    while live:
        step, live = live, []
        for i, it in step:
            bundle = next(it, None)
            if bundle is not None:
                live.append((i, it))
                yield i, bundle


def _partition(sides, keys: list[str], nb: int | None):
    """Stream the Datasets of ``sides`` together -> (per side, a list of
    partition ref lists; per side, the first schema its blocks carried).

    ``nb=None`` holds non-empty blocks unsplit until the rows of all
    sides together pass :data:`KEYED_FOLD_DRIVER_MAX`; then the held
    blocks and every later one split :func:`groupby_partitions` wide."""
    width = nb or 1
    parts = [[[] for _ in range(width)] for _ in sides]
    schemas: list = [None] * len(sides)
    rows = 0

    def put(side: list, ref) -> None:
        if width == 1:  # a one-way split is the identity
            side[0].append(ref)
            return
        out = _split_block.options(num_returns=width).remote(
            ref, keys, width)
        for p, r in zip(side, out):
            p.append(r)

    for i, bundle in _bundles(sides):
        if schemas[i] is None and isinstance(bundle.schema, pa.Schema) \
                and bundle.schema.names:
            schemas[i] = bundle.schema
        for ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                continue
            rows += meta.num_rows
            if nb is None and rows > KEYED_FOLD_DRIVER_MAX:
                nb = width = groupby_partitions()
                held = [p[0] for p in parts]
                parts = [[[] for _ in range(width)] for _ in sides]
                for side, refs in zip(parts, held):
                    for r in refs:
                        put(side, r)
            put(parts[i], ref)
    return parts, schemas


def _concat_rows(parts) -> pa.Table | None:
    rows = [t for t in map(_table, parts) if t.num_rows]
    return pa.concat_tables(rows, promote_options="default") if rows \
        else None


def _side_table(parts, schema) -> pa.Table:
    """One side's rows in a partition. A side that sent the partition no
    rows is a typed zero-row table: its schema comes from a split shard,
    else from the side's streamed schema (zero columns if it had none)."""
    t = _concat_rows(parts)
    if t is not None:
        return t
    if parts:
        return _table(parts[0])
    return schema.empty_table() if schema is not None else pa.table({})


@ray.remote
def _fold_reduce(fn, empty: pa.Table, schemas, counts, *parts) -> pa.Table:
    sides, at = [], 0
    for n, schema in zip(counts, schemas):
        sides.append(_side_table(parts[at:at + n], schema))
        at += n
    if not any(t.num_rows for t in sides):
        return empty
    out = fn(*sides)
    return empty if out is None or not out.num_rows else out


def _per_key(fn, key: str, t: pa.Table) -> pa.Table | None:
    """Call ``fn`` once per distinct ``key`` run of ``t`` (the
    :func:`exchange` fold body); None when every group maps to zero
    rows."""
    import numpy as np

    t = t.sort_by(key)  # nulls sort last, as one run
    k = t[key].combine_chunks()
    null = k.is_null().to_numpy(zero_copy_only=False)
    new = pc.fill_null(pc.not_equal(k[1:], k[:-1]), True) \
        .to_numpy(zero_copy_only=False) & ~(null[1:] & null[:-1])
    cut = np.concatenate([[0], np.flatnonzero(new) + 1, [len(k)]])
    return _concat_rows([fn(t.slice(s, e - s))
                         for s, e in zip(cut[:-1], cut[1:])])


def _join(keys: list[str], join_type: str, empty: pa.Table | None,
          left: pa.Table, right: pa.Table) -> pa.Table | None:
    """The :func:`co_join` fold body: one ``pa.Table.join`` per
    partition."""
    if not left.num_rows or (join_type == "inner" and not right.num_rows):
        return None
    if not right.num_rows:
        # a left outer/anti join keeps every left row, joined against a
        # right side typed from the result schema
        typed = left.slice(0, 0) if empty is None else empty
        right = typed.select(keys + [c for c in typed.column_names
                                     if c not in left.column_names])
    return left.join(right, keys, join_type=join_type)


def _keys(keys) -> list[str]:
    return [keys] if isinstance(keys, str) else list(keys)


def fold(ds, keys, fn, nb: int | None, empty: pa.Table | None
         ) -> rd.Dataset:
    """Hash-split ``ds`` on its real ``keys`` (a column name or a list)
    into ``nb`` partitions (``None``: sized from the input, see the
    module docstring) and call ``fn`` once per partition with all of its
    rows as one ``pa.Table``; every row of a key lands in the same call.

    ``ds`` may be a tuple of Datasets (sides) that all carry ``keys``:
    every side splits the same way and ``fn`` gets one table per side,
    in order. A side that sent a partition no rows arrives as a typed
    zero-row table (see :func:`_side_table`), so ``fn`` knows its sides
    without a tag column. A partition with no rows on any side, or
    whose ``fn`` output has none, returns ``empty`` (``None``: the first
    side's streamed schema), so every output block is typed."""
    sides = ds if isinstance(ds, tuple) else (ds,)
    parts, schemas = _partition(sides, _keys(keys), nb)
    if empty is None:
        empty = schemas[0].empty_table() if schemas[0] is not None \
            else pa.table({})
    return unreserved(rd.from_arrow_refs([
        _fold_reduce.remote(fn, empty, schemas, [len(p[i]) for p in parts],
                            *(r for p in parts for r in p[i]))
        for i in range(len(parts[0]))]))


def exchange(ds, key: str, fn, nb: int | None,
             empty: pa.Table) -> rd.Dataset:
    """``ds.groupby(key).map_groups(fn, batch_format="pyarrow")`` as a
    :func:`fold`: each partition sorts its rows by key and calls ``fn``
    once per distinct key (nulls are one group) with that key's rows as
    one ``pa.Table``."""
    return fold(ds, key, functools.partial(_per_key, fn, key), nb, empty)


def co_join(left, right, keys, nb: int | None, empty: pa.Table | None,
            join_type: str = "inner") -> rd.Dataset:
    """Hash join of two Datasets on same-named ``keys``: a two-sided
    :func:`fold` whose partition body is one ``pa.Table.join`` (left
    columns first, then right's non-key columns). ``join_type`` is
    pyarrow's: ``"inner"``, ``"left outer"`` or ``"left anti"``. Key
    columns must share a name: rename the right-hand key in a map
    first.

    ``empty`` is the result's schema as a zero-row table; ``None`` takes
    the left side's schema as its blocks stream (a semi-join against a
    keys-only right side). A partition with no left rows (or, for an
    inner join, no rows on either side) returns it. A partition with
    left rows but no right rows keeps every left row under a left outer
    or left anti join, with ``empty``'s right-hand columns null."""
    keys = _keys(keys)
    return fold((left, right), keys,
                functools.partial(_join, keys, join_type, empty), nb, empty)


def keyed_sum_fold(ds, key_col: str, val_cols: list[str],
                   num_partitions: int | None = None):
    """``groupby(key).sum(vals)`` as one :func:`fold` on the key: each
    partition runs one factorize/add.at pass over all of its rows, so
    the cost is per partition, not per distinct key. Output columns
    keep their input names. Keys may be int64 or string (an empty
    partition is typed from ``ds``'s schema when it is known without
    executing the plan, else int64); values must be int64."""
    sch = ds.schema(fetch_if_missing=False)
    ktype = sch.types[sch.names.index(key_col)] \
        if sch is not None and key_col in sch.names else pa.int64()
    empty = pa.table({key_col: pa.array([], ktype),
                      **{c: pa.array([], pa.int64()) for c in val_cols}})
    return fold(ds, key_col, functools.partial(
        _fold_keyed, key_col=key_col, val_cols=val_cols), num_partitions,
        empty)


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


def keyed_sum_auto(partials, key_col: str, val_cols: list[str],
                   num_partitions: int | None = None):
    """:func:`keyed_sum_fold` over a partial-count stream, with a
    map-side combine first when the stream is past
    :data:`KEYED_FOLD_DRIVER_MAX` rows.

    The partials pipeline (and its upstream plan) executes exactly ONCE:
    it is materialized here and the combine gate reads the materialized
    row count. The partials are narrow key-compressed (key, counts) rows
    — bounded by blocks x keys, the same rows the fold moves — so
    pinning them in the object store costs no more than the fold
    itself."""
    parts = unreserved(partials.materialize())
    n_part = parts.count()  # metadata-only on a materialized dataset
    if n_part > KEYED_FOLD_DRIVER_MAX:
        # map-side combine level: per-BLOCK partials are bounded by each
        # block's key domain, so with many input blocks the stream holds
        # ~blocks x keys rows of which only ~keys are distinct. Coalesce
        # to ~cluster-width blocks (repartition(shuffle=False) = minimal
        # block-level movement, NO keyed exchange) and re-fold each —
        # tile_rollup's sf3 fine level shrinks 2M partial rows to ~2%
        # of that before any fold runs.
        cpus = _cluster_cpus()
        merged = unreserved(parts.repartition(max(2, cpus)).map_batches(
            lambda b: _fold_keyed(b, key_col, val_cols),
            batch_format="pyarrow").materialize())
        if merged.count() < n_part:
            parts = merged
    return keyed_sum_fold(parts, key_col, val_cols, num_partitions)
