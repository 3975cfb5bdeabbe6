"""The row-group range planner of :func:`read_parquet_split`: contiguous
ranges that cover every row group once, balanced by the read columns'
bytes, at least min(row groups, CPUs) per file, and typed reads of
files with one row group, no rows or no row group."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pyrosm_ray.sources import parquet as pqs


def _write(path, n_rows, rg_rows, text_len=lambda i: 20 + i % 13):
    ids = np.arange(n_rows, dtype=np.int64)
    t = pa.table({
        "id": pa.array(ids),
        "text": pa.array(["x" * text_len(int(i)) for i in ids], pa.string()),
        "pad": pa.array(ids * 3),
    })
    pq.write_table(t, str(path), row_group_size=rg_rows)
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("split")
    return [
        _write(d / "a.parquet", 10_000, 700),
        # uneven rows per group: text grows along the file
        _write(d / "b.parquet", 9_000, 1_000, lambda i: 10 + i // 50),
        _write(d / "c.parquet", 300, 300),
    ]


def _table(ds) -> pa.Table:
    import ray
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _per_file(tasks):
    out = {}
    for f, rgs, _, _ in tasks:
        out.setdefault(f, []).append(rgs)
    return out


@pytest.mark.parametrize("min_ranges,target", [
    (1, pqs.DEFAULT_TARGET_BYTES), (2, pqs.DEFAULT_TARGET_BYTES),
    (4, 40_000), (64, pqs.DEFAULT_TARGET_BYTES)])
@pytest.mark.parametrize("columns", [None, ["text"], ["id"]])
def test_ranges_contiguous_cover_once_within_file(files, min_ranges, target,
                                                  columns):
    tasks = pqs._plan_tasks(files, columns, min_ranges, target)
    per = _per_file(tasks)
    assert set(per) == set(files)
    for f, ranges in per.items():
        n = pq.ParquetFile(f).metadata.num_row_groups
        assert all(r and r == list(range(r[0], r[-1] + 1)) for r in ranges)
        assert [g for r in ranges for g in r] == list(range(n))


@pytest.mark.parametrize("min_ranges,target", [
    (1, pqs.DEFAULT_TARGET_BYTES), (2, pqs.DEFAULT_TARGET_BYTES),
    (3, pqs.DEFAULT_TARGET_BYTES), (2, 40_000), (4, 25_000)])
@pytest.mark.parametrize("columns", [None, ["text"]])
def test_ranges_balanced_and_wide_enough(files, min_ranges, target,
                                         columns):
    tasks = pqs._plan_tasks(files, columns, min_ranges, target)
    for f, ranges in _per_file(tasks).items():
        sizes = pqs._group_bytes(pq.ParquetFile(f).metadata, columns)
        got = [int(sizes[r].sum()) for r in ranges]
        assert len(ranges) >= min(len(sizes), min_ranges)
        share = sizes.sum() / len(ranges)
        assert all(abs(b - share) <= sizes.max() for b in got), (f, got)
        assert all(b <= target for b, r in zip(got, ranges) if len(r) > 1)
    # the task metadata carries the real rows and the read bytes
    for f, rgs, rows, nbytes in tasks:
        md = pq.ParquetFile(f).metadata
        assert rows == sum(md.row_group(i).num_rows for i in rgs)
        assert nbytes == int(pqs._group_bytes(md, columns)[rgs].sum())


def test_documents_shaped_file_plans_two_even_ranges(tmp_path):
    """64 000 documents in row groups of 4 096 rows (the last 2 560) at
    2 CPUs: the even byte share falls nearest the 8th boundary."""
    rng = np.random.default_rng(11)
    words = np.array([f"w{i:04d}" for i in range(5000)])
    n = 64_000
    lens = rng.integers(20, 40, n)
    flat = rng.choice(words, int(lens.sum()))
    cut = np.concatenate([[0], np.cumsum(lens)])
    texts = [" ".join(flat[cut[i]:cut[i + 1]]) for i in range(n)]
    p = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(n)),
                             "text": pa.array(texts),
                             "lang": pa.array(["en"] * n)}),
                   p, row_group_size=4096)
    tasks = pqs._plan_tasks([p], ["doc_id", "text"], 2,
                            pqs.DEFAULT_TARGET_BYTES)
    assert [rows for *_, rows, _ in tasks] == [32_768, 31_232]


def test_one_group_and_empty_files_read_back_typed(tmp_path, ray_session):
    from pyrosm_ray.sources.parquet import read_parquet_split

    one = _write(tmp_path / "one.parquet", 50, 1000)
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), empty)
    got = read_parquet_split(one, columns=["text", "id"])
    assert got.schema().names == ["text", "id"]
    assert _table(got).sort_by("id").equals(
        pq.read_table(one, columns=["text", "id"]))
    # a writer closed before any row: no row group at all
    no_groups = str(tmp_path / "no_groups.parquet")
    pq.ParquetWriter(no_groups, pq.read_schema(empty)).close()
    assert pq.ParquetFile(no_groups).metadata.num_row_groups == 0
    for f in (empty, no_groups):
        got = read_parquet_split(f, columns=["text"])
        assert got.count() == 0
        assert got.schema().base_schema == pa.schema([("text", pa.string())])


def test_split_read_round_trips(files, ray_session):
    from pyrosm_ray.sources.parquet import read_parquet_split

    for f in files:
        want = pq.read_table(f, columns=["id", "text"])
        ds = read_parquet_split(f, columns=["id", "text"])
        assert _table(ds).sort_by("id").equals(want)
        # 4 Ray CPUs in the test session: every multi-group file splits
        n_rg = pq.ParquetFile(f).metadata.num_row_groups
        assert ds.materialize().num_blocks() >= min(n_rg, 4)


@pytest.mark.parametrize("columns", [None, ["tags", "id"], ["blob", "ts"]])
def test_declared_schema_is_the_blocks_schema(tmp_path, ray_session,
                                              columns):
    """Every read task declares its file's schema, so ``schema()`` on a
    fresh read needs no execution, and it equals the schema the blocks
    carry exactly: map entries (named ``tags`` in the file footer, as
    in the ``osm_history`` fixture), timestamps, binary, and a file
    without rows."""
    import ray

    from pyrosm_ray.fixtures import ensure_fixtures
    from pyrosm_ray.sources.parquet import read_parquet_split

    n = 40
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "tags": pa.array([[("k", str(i)), ("v", "x")] if i % 3 else None
                          for i in range(n)],
                         pa.map_(pa.string(), pa.string())),
        "ts": pa.array(np.arange(n) * 1000, pa.timestamp("ms")),
        "blob": pa.array([bytes([i % 7]) * (i % 5) for i in range(n)],
                         pa.binary()),
    })
    full = str(tmp_path / "full.parquet")
    pq.write_table(t, full, row_group_size=9)
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(t.slice(0, 0), empty)
    history = str(ensure_fixtures("sf0.001") / "osm_history.parquet")
    hist_cols = None if columns is None else \
        [c for c in columns if c in ("id", "tags")] or ["id", "timestamp"]
    for path, cols in ((full, columns), (empty, columns),
                       (history, hist_cols)):
        ds = read_parquet_split(path, columns=cols)
        declared = ds.schema(fetch_if_missing=False)
        assert declared is not None, (path, cols)
        blocks = [ray.get(ref) for b in ds.iter_internal_ref_bundles()
                  for ref in b.block_refs]
        assert blocks, (path, cols)
        assert declared.base_schema.equals(blocks[0].schema,
                                           check_metadata=True), \
            (path, cols, declared.base_schema, blocks[0].schema)
