"""Keyed exchanges (stages/blocks.py).

The raw-task primitives ``exchange`` and ``co_join`` must match an
in-memory pyarrow reference (per-key groups, ``pa.Table.join``) on edge
inputs, for every join type, and return typed blocks for empty
partitions."""

import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.stages.blocks import co_join, exchange


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
    fast = blocks.keyed_sum_auto(ds.map_batches(
        partial, batch_format="pyarrow"), "k", ["v"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    ds2 = rd.from_arrow(t).repartition(6)
    slow = blocks.keyed_sum_auto(ds2.map_batches(
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
    out = blocks.keyed_sum_auto(partials, "k", ["n"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert dict(zip(out.k, out.n)) == {"a": 20, "b": 10, "c": 10}
    # the partial UDF ran exactly once per input block (2 blocks), not
    # once for the gate plus once for the route
    assert ray.get(c.get.remote()) == 2


def _tables(case: str) -> list[pa.Table]:
    """(k, v) blocks for one edge case; ``k`` is int64 except "str*"."""
    n = 40
    if case.endswith("_null"):
        # nulls are one group; the second block has none, so a null-free
        # block must place key 1 where a block with nulls does
        keys = [1, None, 2, None, None, 1], [1, 2, 1, 2]
        if case == "str_null":
            keys = [[None if k is None else f"k{k}" for k in ks]
                    for ks in keys]
        return [pa.table({"k": ks, "v": pa.array(range(len(ks)),
                                                 pa.int64())})
                for ks in keys]
    if case == "str":
        keys = pa.array([f"k{i % 5}" for i in range(n)], pa.string())
    elif case == "one_key":
        keys = pa.array([7] * n, pa.int64())
    else:
        keys = pa.array([i % 5 for i in range(n)], pa.int64())
    t = pa.table({"k": keys, "v": pa.array(range(n), pa.int64())})
    if case == "empty":
        return [t.slice(0, 0)]
    if case == "zero_row_blocks":
        return [t.slice(0, 0), t, t.slice(0, 0)]
    return [t]


def _keyed(case: str):
    """The ``_tables(case)`` rows as a Dataset."""
    tables = _tables(case)
    if case == "zero_row_blocks":
        # the zero-row blocks skip the map UDF and leave schema-less
        return rd.from_arrow(tables[0]).union(rd.from_arrow(tables[1])) \
            .union(rd.from_arrow(tables[2])) \
            .map_batches(lambda b: b, batch_format="pyarrow")
    if case in ("int", "str", "one_key"):
        return rd.from_arrow(tables[0]).repartition(3)
    return rd.from_arrow(tables)


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


def _ktype(case: str) -> pa.DataType:
    return pa.string() if case.startswith("str") else pa.int64()


def _right(case: str) -> pa.Table:
    keys = [f"k{i}" for i in (0, 2, 9)] if case.startswith("str") \
        else [0, 2, 7, 9]
    return pa.table({
        "k": pa.array(keys, _ktype(case)),
        "w": pa.array([10 * i for i in range(len(keys))], pa.int64())})


@pytest.mark.parametrize("case", _CASES)
def test_exchange_matches_map_groups(ray_session, case):
    ds = _keyed(case)
    empty = pa.table({"k": pa.array([], _ktype(case)),
                      "n": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})
    # reference: one kernel call per distinct key (nulls are one group)
    t = pa.concat_tables(_tables(case))
    keys = t["k"].to_pylist()
    groups = [[i for i, k in enumerate(keys) if k == u]
              for u in dict.fromkeys(keys)]
    want = _sorted(pa.concat_tables(
        [empty] + [_group_stats()(t.take(g)) for g in groups]).to_pandas(),
        ["k", "n", "s"])
    for nb in (1, 4):
        got = exchange(ds, "k", _group_stats(), nb, empty)
        assert got.schema().names == ["k", "n", "s"]
        assert _sorted(got.to_pandas(), ["k", "n", "s"]) == want


def _check_co_join(case: str, join_type: str):
    right = _right(case)
    cols = ["k", "v"] if join_type == "left anti" else ["k", "v", "w"]
    empty = pa.table({"k": pa.array([], _ktype(case)),
                      "v": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())}).select(cols)
    want = _sorted(pa.concat_tables(_tables(case)).join(
        right, "k", join_type=join_type).to_pandas(), cols)
    for nb in (1, 4):
        got = co_join(_keyed(case), rd.from_arrow(right), "k", nb, empty,
                      join_type=join_type)
        assert got.schema().names == cols
        assert _sorted(got.to_pandas(), cols) == want


@pytest.mark.parametrize("case", _CASES)
def test_co_join_matches_dataset_join(ray_session, case):
    _check_co_join(case, "inner")


@pytest.mark.parametrize("join_type", ["left outer", "left anti"])
@pytest.mark.parametrize("case", _CASES)
def test_co_join_left_joins_match_table_join(ray_session, case, join_type):
    _check_co_join(case, join_type)


def test_co_join_fully_empty_right_side(ray_session):
    """A typed right side with no rows at all: an inner join is zero rows
    in the data's schema; a left outer join keeps every left row with
    null right-hand columns; a left anti join keeps every left row."""
    import ray

    left = pa.table({"k": pa.array([i % 3 for i in range(10)], pa.int64()),
                     "pid": pa.array(range(10), pa.int64())})
    right = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "w": pa.array([], pa.float64())}))
    joined = pa.schema([("k", pa.int64()), ("pid", pa.int64()),
                        ("w", pa.float64())])
    for join_type, schema, n in (("inner", joined, 0),
                                 ("left outer", joined, 10),
                                 ("left anti", left.schema, 10)):
        out = co_join(rd.from_arrow(left).repartition(2), right, "k", 4,
                      schema.empty_table(), join_type=join_type)
        tables = [ray.get(ref) for b in out.iter_internal_ref_bundles()
                  for ref, _ in b.blocks]
        assert all(t.schema == schema for t in tables), join_type
        got = pa.concat_tables(tables)
        assert got.num_rows == n
        assert sorted(got["pid"].to_pylist()) == list(range(n))
        if join_type == "left outer":
            assert got["w"].null_count == n


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
