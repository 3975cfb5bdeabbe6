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
by :func:`dataset` from the counts the reduce tasks returned. No
aggregator-actor pool starts, zero-row blocks are skipped from their
metadata, and an empty partition returns a typed table. Outputs stay
object refs; nothing is gathered on the driver.

A fold may have several outputs: given a tuple of typed zero-row
tables as ``empty``, ``fn`` returns one table per output, each reduce
task returns them as separate objects (and one more small object with
their row counts and bytes), and the fold returns one Dataset per
output, so a kernel that splits its rows (done/undone,
confirmed/deferred) needs no filter pass over its result.

Inside a stage the currency is :class:`Blocks`: block refs with their
row counts, bytes and a schema. It comes from a materialized Dataset's
bundle metadata (:meth:`Blocks.of`, which runs nothing), from
:func:`map_blocks` (one plain task per non-empty block, each returning
its table and, as a second small object, its row count, bytes and
schema: :func:`with_meta`, gathered by :meth:`Blocks.gather`, which
takes any task's pairs) and from :func:`fold_blocks` (each reduce task
also returns its outputs' row counts and bytes). A fold takes a
``Blocks`` side anywhere it takes a Dataset and reads its counts and
schema without streaming it. A stage wraps
blocks in a Dataset (:func:`dataset`) only for its return value. Small
per-block facts (bounds, the levels a block uses) come from
:func:`probe`: one plain Ray task per block, results gathered.

The rule for a stage: no Ray Data execution except the ones that
stream its inputs (a fold's Dataset sides, a map the caller passed
in), as every execution costs a fixed 25-70 ms on the driver whatever
its size (a ``map_batches(...).materialize()`` over four tiny blocks
took 69 ms on 2 Ray CPUs, ``take(1)`` on a materialized Dataset 24 ms,
four plain tasks 7 ms). Reading the blocks of a ``materialize()``
result is free; reading those of a Dataset wrapped from refs is one
such execution, so a stage never reads back what it wrapped.

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

import dataclasses
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


@dataclasses.dataclass(frozen=True)
class Blocks:
    """Block refs a stage holds, with each block's row count, the
    blocks' schema (None when unknown) and, when known, each block's
    size in bytes (which :func:`dataset` needs): the type of every
    intermediate inside a stage. Consumers skip the refs whose count
    is 0."""
    refs: list
    counts: list
    schema: pa.Schema | None = None
    sizes: list | None = None

    @classmethod
    def of(cls, ds) -> "Blocks":
        """The blocks of ``ds`` from its bundle metadata, zero-row blocks
        left out: a ``materialize()`` result runs nothing, a lazy
        Dataset streams once. A ``Blocks`` is returned as it is."""
        if isinstance(ds, Blocks):
            return ds
        refs, counts, sizes, schema = [], [], [], None
        for bundle in ds.iter_internal_ref_bundles():
            schema = schema or _named(bundle.schema)
            for ref, meta in bundle.blocks:
                if meta.num_rows:
                    refs.append(ref)
                    counts.append(meta.num_rows)
                    sizes.append(meta.size_bytes)
        return cls(refs, counts, schema, sizes)

    @classmethod
    def put(cls, t: pa.Table) -> "Blocks":
        """A driver-side table as one block."""
        return cls([ray.put(t)], [t.num_rows], t.schema, [t.nbytes])

    @classmethod
    def gather(cls, outs) -> "Blocks":
        """The blocks ``num_returns=2`` tasks returned as (table,
        :func:`with_meta`) pairs of refs; only the small metadata
        objects reach the driver, in one ``ray.get``."""
        meta = ray.get([m for _, m in outs])
        return cls([t for t, _ in outs], [n for n, _, _ in meta],
                   next((sch for _, _, sch in meta), None),
                   [b for _, b, _ in meta])

    def __add__(self, other: "Blocks") -> "Blocks":
        """The blocks of both, ``self``'s first (the schema is the first
        known one)."""
        sizes = None if self.sizes is None or other.sizes is None \
            else self.sizes + other.sizes
        return Blocks(self.refs + other.refs, self.counts + other.counts,
                      self.schema or other.schema, sizes)

    @property
    def num_rows(self) -> int:
        return int(sum(self.counts))

    def live(self) -> list:
        """The refs of the blocks that hold rows."""
        return [r for r, n in zip(self.refs, self.counts) if n]


def _named(schema) -> pa.Schema | None:
    return schema if isinstance(schema, pa.Schema) and schema.names \
        else None


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


def _side_bundles(side):
    """(schema, [(ref, rows), ...]) per bundle of one side: a Dataset's
    bundles as they stream, a :class:`Blocks` side as one bundle."""
    if isinstance(side, Blocks):
        yield side.schema, list(zip(side.refs, side.counts))
        return
    for bundle in side.iter_internal_ref_bundles():
        yield _named(bundle.schema), [(ref, meta.num_rows)
                                      for ref, meta in bundle.blocks]


def _bundles(sides):
    """(side index, schema, blocks) per bundle of every side, taken in
    turn, so every Dataset side's plan streams at once (as a ``union``
    of them would)."""
    live = [(i, _side_bundles(side)) for i, side in enumerate(sides)]
    while live:
        step, live = live, []
        for i, it in step:
            bundle = next(it, None)
            if bundle is not None:
                live.append((i, it))
                yield (i, *bundle)


def _partition(sides, keys: list[str], nb: int | None):
    """Stream the Datasets of ``sides`` together (a :class:`Blocks` side
    is read from its counts) -> (per side, a list of partition ref
    lists; per side, the first schema its blocks carried).

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

    for i, schema, blocks in _bundles(sides):
        schemas[i] = schemas[i] or schema
        for ref, n in blocks:
            if n == 0:
                continue
            rows += n
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


def _typed(out, empty: pa.Table) -> pa.Table:
    return empty if out is None or not out.num_rows else out


@ray.remote
def _fold_reduce(fn, empty, schemas, counts, *parts):
    """One partition: ``fn`` over its rows per side -> one table per
    entry of the tuple ``empty`` (each typed by it), then the tuple of
    their (row count, bytes); the task runs with
    ``num_returns=len(empty) + 1``."""
    sides, at = [], 0
    for n, schema in zip(counts, schemas):
        sides.append(_side_table(parts[at:at + n], schema))
        at += n
    out = fn(*sides) if any(t.num_rows for t in sides) else None
    if len(empty) == 1:
        out = (out,)
    outs = tuple(map(_typed, out or (None,) * len(empty), empty))
    return (*outs, tuple((t.num_rows, t.nbytes) for t in outs))


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
        have = set(left.column_names)
        right = typed.select(keys + [c for c in typed.column_names
                                     if c not in have])
    return left.join(right, keys, join_type=join_type)


def _keys(keys) -> list[str]:
    return [keys] if isinstance(keys, str) else list(keys)


@ray.remote
def _block_task(fn, block):
    return fn(_table(block))


def with_meta(t: pa.Table) -> tuple:
    """``t`` and its (row count, bytes, schema), a task's two returns
    for :meth:`Blocks.gather`."""
    return t, (t.num_rows, t.nbytes, t.schema)


@ray.remote(num_returns=2)
def _map_task(fn, block):
    return with_meta(fn(_table(block)))


def probe(blocks, fn) -> list:
    """``fn``'s (small) result for every non-empty block of ``blocks``
    (a :class:`Blocks` or a Dataset, see :meth:`Blocks.of`), in block
    order: one plain Ray task per block, gathered."""
    return ray.get([_block_task.remote(fn, ref)
                    for ref in Blocks.of(blocks).live()])


def map_blocks(blocks, fn) -> Blocks:
    """``fn(table) -> table`` over every non-empty block of ``blocks``
    (a :class:`Blocks` or a Dataset, see :meth:`Blocks.of`) as one plain
    Ray task per block. Each task returns the table and, as a second
    small object, its row count, bytes and schema; the driver gathers
    only the small ones."""
    return Blocks.gather([_map_task.remote(fn, ref)
                          for ref in Blocks.of(blocks).live()])


def dataset(blocks: Blocks) -> rd.Dataset:
    """``blocks`` (e.g. :func:`fold_blocks` outputs, several folds'
    together, zero-row blocks included) as one engine-built Dataset,
    without the Ray Data execution a ``union`` costs. A stage wraps its
    return value only: reading a freshly wrapped Dataset's blocks back
    costs a Ray Data execution.

    The plan is the one ``rd.from_arrow_refs`` builds, with each block's
    metadata taken from ``blocks`` (row count, bytes, the one schema)
    instead of from one metadata task per block. It uses Ray Data's
    internal plan classes (``tests/test_blocks.py`` pins them)."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import \
        FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import BlockMetadata, BlockMetadataWithSchema
    from ray.data.dataset import MaterializedDataset

    if blocks.sizes is None:
        raise ValueError("dataset() needs the blocks' sizes in bytes")
    meta = [BlockMetadataWithSchema(BlockMetadata(
        num_rows=n, size_bytes=b, exec_stats=None, input_files=None),
        blocks.schema) for n, b in zip(blocks.counts, blocks.sizes)]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta},
                                      parent=None),
                         rd.DataContext.get_current().copy())
    return unreserved(MaterializedDataset(
        plan, LogicalPlan(FromArrow(list(blocks.refs), meta),
                          plan._context)))


def fold_blocks(ds, keys, fn, nb: int | None, empty) -> list[Blocks]:
    """:func:`fold` without the Dataset wrapping: one :class:`Blocks` of
    partition outputs per output (a one-item list when ``empty`` is a
    table), typed by that output's ``empty``. The row counts and bytes
    come back as one more small object per reduce task, gathered in one
    ``ray.get``."""
    sides = ds if isinstance(ds, tuple) else (ds,)
    parts, schemas = _partition(sides, _keys(keys), nb)
    if empty is None:
        empty = schemas[0].empty_table() if schemas[0] is not None \
            else pa.table({})
    empty = empty if isinstance(empty, tuple) else (empty,)
    reduce = _fold_reduce.options(num_returns=len(empty) + 1)
    outs = [reduce.remote(fn, empty, schemas, [len(p[i]) for p in parts],
                          *(r for p in parts for r in p[i]))
            for i in range(len(parts[0]))]
    meta = ray.get([o[-1] for o in outs])
    return [Blocks([o[j] for o in outs], [m[j][0] for m in meta], e.schema,
                   [m[j][1] for m in meta])
            for j, e in enumerate(empty)]


def fold(ds, keys, fn, nb: int | None, empty):
    """Hash-split ``ds`` on its real ``keys`` (a column name or a list)
    into ``nb`` partitions (``None``: sized from the input, see the
    module docstring) and call ``fn`` once per partition with all of its
    rows as one ``pa.Table``; every row of a key lands in the same call.

    ``ds`` (a Dataset or a :class:`Blocks`) may be a tuple of them
    (sides) that all carry ``keys``:
    every side splits the same way and ``fn`` gets one table per side,
    in order. A side that sent a partition no rows arrives as a typed
    zero-row table (see :func:`_side_table`), so ``fn`` knows its sides
    without a tag column. A partition with no rows on any side, or
    whose ``fn`` output has none, returns ``empty`` (``None``: the first
    side's streamed schema), so every output block is typed.

    ``empty`` may be a tuple of typed zero-row tables: then ``fn``
    returns one table (or None) per output, each partition's reduce
    task returns them as separate objects, and ``fold`` returns a tuple of Datasets, one per output. An output
    that is None or has no rows in a partition is its ``empty``
    there."""
    out = tuple(map(dataset, fold_blocks(ds, keys, fn, nb, empty)))
    return out if isinstance(empty, tuple) else out[0]


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
    return dataset(_keyed_sum_fold_blocks(ds, key_col, val_cols,
                                          num_partitions))


def _keyed_sum_fold_blocks(ds, key_col: str, val_cols: list[str],
                           num_partitions: int | None) -> Blocks:
    """:func:`keyed_sum_fold`'s output blocks."""
    sch = ds.schema(fetch_if_missing=False)
    ktype = sch.types[sch.names.index(key_col)] \
        if sch is not None and key_col in sch.names else pa.int64()
    empty = pa.table({key_col: pa.array([], ktype),
                      **{c: pa.array([], pa.int64()) for c in val_cols}})
    return fold_blocks(ds, key_col, functools.partial(
        _fold_keyed, key_col=key_col, val_cols=val_cols), num_partitions,
        empty)[0]


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
    :data:`KEYED_FOLD_DRIVER_MAX` rows (see :func:`keyed_sum_blocks`)."""
    return dataset(keyed_sum_blocks(partials, key_col, val_cols,
                                    num_partitions))


def keyed_sum_blocks(partials, key_col: str, val_cols: list[str],
                     num_partitions: int | None = None) -> Blocks:
    """:func:`keyed_sum_auto`'s output as :class:`Blocks`, for a stage
    that reads the sums itself.

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
        # a per-block res-9 page-cell count at sf3 shrank 2M partial
        # rows to ~2% of that before any fold ran.
        cpus = _cluster_cpus()
        merged = unreserved(parts.repartition(max(2, cpus)).map_batches(
            lambda b: _fold_keyed(b, key_col, val_cols),
            batch_format="pyarrow").materialize())
        if merged.count() < n_part:
            parts = merged
    return _keyed_sum_fold_blocks(parts, key_col, val_cols, num_partitions)
