"""Keyed exchanges (stages/blocks.py).

The raw-task primitives ``exchange`` and ``co_join`` must match Ray
Data's ``groupby().map_groups`` and ``Dataset.join`` on edge inputs and
return typed blocks for empty partitions. The hash-shuffle hygiene
(scrub_empty_blocks) must neutralise the ZERO-COLUMN empty blocks
hash-shuffle groupbys/aggregates emit for partitions that received no
groups — those blocks otherwise poison a downstream acero join ("No
match ... for key field reference")."""

import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.stages.blocks import (co_join, exchange, scrub_empty_blocks,
                                      shuffle_join_args)


def _grouped_min(n_keys: int, num_partitions: int):
    """Aggregate with far more shuffle partitions than keys -> some
    partitions are empty and (under HASH_SHUFFLE) emit schema-less
    blocks."""
    ds = rd.from_items([{"k": i % n_keys, "v": i} for i in range(40)])
    return ds.groupby("k", num_partitions=num_partitions).map_groups(
        lambda g: pa.table({"k": pa.array([g["k"][0].as_py()], pa.int64()),
                            "m": pa.array([min(g["v"].to_pylist())],
                                          pa.int64())}),
        batch_format="pyarrow")


def test_scrub_empty_blocks_unblocks_join(ray_session):
    left = rd.from_items([{"k": i % 3, "pid": i} for i in range(30)])
    right = scrub_empty_blocks(_grouped_min(3, 16))
    j = left.join(right, "inner", on=("k",), **shuffle_join_args(8))
    df = j.to_pandas()
    assert len(df) == 30
    assert set(df.columns) == {"k", "pid", "m"}
    # every key's m is the min over its group
    assert df.groupby("k")["m"].nunique().eq(1).all()


def test_scrub_empty_blocks_drops_schemaless(ray_session):
    scrubbed = scrub_empty_blocks(_grouped_min(3, 16))
    mat = scrubbed.materialize()
    assert mat.schema().names == ["k", "m"]
    # no zero-row (schema-less) block survives the scrub
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            assert meta.num_rows
    assert mat.count() == 3


def test_hash_shuffle_guard_degraded_empty_block(ray_session):
    """A 0-row block skips map UDFs and loses its schema; un-guarded,
    hash-shuffle groupby broadcasts that empty schema when it arrives
    first and aggregators crash sorting by the key ("Invalid sort key
    column"). The empty-block guard drops such bundles at the operator
    input, so the keyed groupby over a mixed (typed + degraded-empty)
    dataset must succeed and see every real row."""
    t_empty = pa.table({"v": pa.array([], pa.int64())})
    t_full = pa.table({"v": pa.array(list(range(12)), pa.int64())})
    # the empty block rides FIRST in the union so, absent the guard, it
    # is typically the first bundle the shuffle sees
    ds = rd.from_arrow(t_empty).union(rd.from_arrow(t_full))
    # map adds the GROUP KEY -> the empty block skips the UDF and
    # arrives at the shuffle schema-less and key-less
    keyed = ds.map_batches(
        lambda b: b.append_column(
            "k", pa.array([int(x) % 3 for x in b["v"].to_pylist()],
                          pa.int64())),
        batch_format="pyarrow")
    out = keyed.groupby("k", num_partitions=8).map_groups(
        lambda g: pa.table({"k": pa.array([g["k"][0].as_py()], pa.int64()),
                            "n": pa.array([len(g)], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    assert sorted(out.k) == [0, 1, 2]
    assert int(out.n.sum()) == 12


def test_hash_join_fully_empty_side(ray_session):
    """Vanilla Ray 2.49 hash join crashes when one side is a fully-empty
    typed Dataset (zero-row blocks short-circuit before the schema
    broadcast, so aggregator partitions finalize schema-less). The
    guard's driver-side broadcast must make this return 0 rows."""
    left = rd.from_items([{"k": i % 3, "pid": i} for i in range(10)])
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64())})
    j = left.join(rd.from_arrow(empty), "inner", on=("k",),
                  **shuffle_join_args(4))
    assert j.count() == 0


def test_scrub_empty_blocks_all_empty_uses_schema(ray_session):
    ds = rd.from_items([{"k": 1, "v": 1}]).filter(lambda r: False)
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "m": pa.array([], pa.int64())})
    out = scrub_empty_blocks(ds, empty)
    assert out.count() == 0
    assert out.schema().names == ["k", "m"]


def test_keyed_sum_auto_route_parity(ray_session, monkeypatch):
    import numpy as np
    import ray.data as rd

    from pyrosm_ray.stages import blocks

    rng = np.random.RandomState(21)
    n = 5000
    t = pa.table({
        "k": pa.array(rng.randint(0, 400, n), pa.int64()),
        "v": pa.array(rng.randint(-50, 50, n), pa.int64()),
    })

    def partial(b):
        return b  # rows already (key, val) shaped

    ds = rd.from_arrow(t).repartition(6)
    fast = blocks.keyed_sum_auto(ds, ds.map_batches(
        partial, batch_format="pyarrow"), "k", ["v"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    ds2 = rd.from_arrow(t).repartition(6)
    slow = blocks.keyed_sum_auto(ds2, ds2.map_batches(
        partial, batch_format="pyarrow"), "k", ["v"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert list(fast.k) == list(slow.k)
    assert list(fast.v) == list(slow.v)
    # ground truth
    import pandas as pd
    truth = t.to_pandas().groupby("k", sort=True)["v"].sum()
    assert list(fast.v) == list(truth)


def test_keyed_sum_auto_executes_upstream_once(ray_session):
    """The route gate must not re-execute a non-fresh-read upstream plan:
    the partials pipeline materializes once, and both the gate and the
    chosen route read the materialized result (round-4 advice)."""
    import ray
    import ray.data as rd

    from pyrosm_ray.stages import blocks

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    c = Counter.remote()

    def partial(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return pa.table({"k": b["k"], "n": b["n"]})

    t = pa.table({"k": pa.array(["a", "b", "a", "c"] * 10, pa.string()),
                  "n": pa.array([1] * 40, pa.int64())})
    ds = rd.from_arrow(t).repartition(2)
    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = blocks.keyed_sum_auto(ds, partials, "k", ["n"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert dict(zip(out.k, out.n)) == {"a": 20, "b": 10, "c": 10}
    # the partial UDF ran exactly once per input block (2 blocks), not
    # once for the gate plus once for the route
    assert ray.get(c.get.remote()) == 2


def _keyed(case: str):
    """(k, v) Dataset for one edge case; ``k`` is int64 except "str*"."""
    n = 40
    if case.endswith("_null"):
        # nulls are one group; the second block has none, so a null-free
        # block must place key 1 where a block with nulls does
        keys = [1, None, 2, None, None, 1], [1, 2, 1, 2]
        if case == "str_null":
            keys = [[None if k is None else f"k{k}" for k in ks]
                    for ks in keys]
        tables = [pa.table({"k": ks, "v": pa.array(range(len(ks)),
                                                   pa.int64())})
                  for ks in keys]
        return rd.from_arrow(tables)
    if case == "str":
        keys = pa.array([f"k{i % 5}" for i in range(n)], pa.string())
    elif case == "one_key":
        keys = pa.array([7] * n, pa.int64())
    else:
        keys = pa.array([i % 5 for i in range(n)], pa.int64())
    t = pa.table({"k": keys, "v": pa.array(range(n), pa.int64())})
    if case == "empty":
        return rd.from_arrow(t.slice(0, 0))
    if case == "zero_row_blocks":
        # the zero-row blocks skip the map UDF and leave schema-less
        empty = t.slice(0, 0)
        return rd.from_arrow(empty).union(rd.from_arrow(t)) \
            .union(rd.from_arrow(empty)) \
            .map_batches(lambda b: b, batch_format="pyarrow")
    return rd.from_arrow(t).repartition(3)


def _group_stats():
    """Per-group (k, n, s) kernel; nested so Ray workers, which cannot
    import this test module, receive it by value."""
    def stats(g: pa.Table) -> pa.Table:
        return pa.table({"k": g["k"].slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([sum(g["v"].to_pylist())],
                                       pa.int64())})
    return stats


def _sorted(df, cols):
    """Rows as tuples in a stable order; null keys (None/NaN) -> None."""
    import pandas as pd
    if not len(df):
        return []
    rows = [tuple(None if pd.isna(v) else v for v in r)
            for r in df[cols].itertuples(index=False)]
    return sorted(rows, key=repr)


_CASES = ["int", "str", "one_key", "zero_row_blocks", "empty", "int_null",
          "str_null"]


@pytest.mark.parametrize("case", _CASES)
def test_exchange_matches_map_groups(ray_session, case):
    ds = _keyed(case)
    ktype = pa.string() if case.startswith("str") else pa.int64()
    empty = pa.table({"k": pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})
    want = _sorted(ds.groupby("k", num_partitions=4).map_groups(
        _group_stats(), batch_format="pyarrow").to_pandas(), ["k", "n", "s"])
    for nb in (1, 4):
        got = exchange(ds, "k", _group_stats(), nb, empty)
        assert got.schema().names == ["k", "n", "s"]
        assert _sorted(got.to_pandas(), ["k", "n", "s"]) == want


@pytest.mark.parametrize("case", _CASES)
def test_co_join_matches_dataset_join(ray_session, case):
    left = _keyed(case)
    keys = [f"k{i}" for i in (0, 2, 9)] if case.startswith("str") \
        else [0, 2, 7, 9]
    ktype = pa.string() if case.startswith("str") else pa.int64()
    right = rd.from_arrow(pa.table({
        "k": pa.array(keys, ktype),
        "w": pa.array([10 * i for i in range(len(keys))], pa.int64())}))
    empty = pa.table({"k": pa.array([], ktype), "v": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())})
    want = _sorted(left.join(right, "inner", on=("k",),
                             **shuffle_join_args(4)).to_pandas(),
                   ["k", "v", "w"])
    for nb in (1, 4):
        got = co_join(left, right, "k", nb, empty)
        assert got.schema().names == ["k", "v", "w"]
        assert _sorted(got.to_pandas(), ["k", "v", "w"]) == want


def test_exchange_empty_partitions_are_typed(ray_session):
    """Partitions that receive no rows (8 partitions, 2 keys) — and a
    fully empty input — yield zero-row blocks WITH the output schema,
    not the schema-less blocks Ray's hash shuffle emits."""
    import ray

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})
    t = pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    for ds in (rd.from_arrow(t), rd.from_arrow(t.slice(0, 0))):
        out = exchange(ds, "k", _group_stats(), 8, empty)
        tables = [ray.get(ref) for b in out.iter_internal_ref_bundles()
                  for ref, _ in b.blocks]
        assert len(tables) == 8
        assert sum(t_.num_rows == 0 for t_ in tables) >= 6
        assert all(t_.schema == empty.schema for t_ in tables)


def test_exchange_executes_upstream_once(ray_session):
    """Split tasks consume the upstream blocks as they stream out, and
    the result holds refs: the upstream UDF runs once per block, not
    again when the output is read."""
    import ray

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    c = Counter.remote()

    def tagged(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    t = pa.table({"k": pa.array([i % 3 for i in range(30)], pa.int64()),
                  "v": pa.array(range(30), pa.int64())})
    ds = rd.from_arrow(t).repartition(2).map_batches(
        tagged, batch_format="pyarrow")
    out = exchange(ds, "k", _group_stats(), 4, pa.table({
        "k": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
        "s": pa.array([], pa.int64())}))
    assert sorted(out.to_pandas()["n"]) == [10, 10, 10]
    assert out.count() == 3
    assert ray.get(c.get.remote()) == 2


def test_shuffle_sizing_waits_for_ray_init():
    """Importing the engine before ``ray.init`` must not size the hash
    shuffle for a guessed 8-CPU cluster: before init the knobs take the
    smallest cluster's sizing, and the first sizing call after init at
    2 CPUs sizes them for 2 CPUs."""
    code = textwrap.dedent("""
        import ray
        import ray.data as rd
        import pyrosm_ray
        from pyrosm_ray.stages.blocks import groupby_partitions
        ctx = rd.DataContext.get_current()
        print(ctx.default_hash_shuffle_parallelism,
              ctx.max_hash_shuffle_aggregators)
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        print(groupby_partitions(), ctx.default_hash_shuffle_parallelism,
              ctx.max_hash_shuffle_aggregators)
        ray.shutdown()
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.split("\n")
    assert lines[0].split() == ["2", "2"]
    assert lines[1].split() == ["4", "4", "2"]
