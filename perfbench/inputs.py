"""Seeded benchmark inputs, written under the checkout's ``.perfbench_cache``.

The OSM world is the package fixture's fixed seed-42 world at ``OSM_SF``; it
is generated once per checkout and then only loaded. The run seed draws the
rest: the page-id set of the pages table, and the replica offsets of the
documents/events corpus. Every table is a pure function of (seed, sizes), so
the same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

OSM_SF = "sf0.01"
OSM_TABLES = ("osm_nodes", "osm_ways", "osm_relations", "osm_history")
PAGE_ID_SPAN = 10  # page ids are drawn from [0, PAGE_ID_SPAN * n_pages)

# corpus shape: a fixed base corpus replicated under seeded offsets
DOC_BASE = 2_000
EVENT_BASE = 10_000
EVENT_USERS = 1_500
_VOCAB = [
    "hash", "join", "merge", "window", "tile", "cell", "index", "dedup",
    "shingle", "band", "bucket", "rank", "vector", "iteration", "spark",
    "stream", "batch", "group", "query", "filter", "scan", "sort", "table",
    "column", "order", "value", "row", "key", "part", "line", "agg", "data",
    "fast", "slow", "big", "small", "city", "road", "park", "river", "map",
    "node", "way", "relation", "polygon", "point", "shard", "block", "page",
    "crawl", "text", "token", "graph", "edge", "path", "level", "grid",
    "pixel", "raster", "zone", "count", "mean", "sum", "store"]
_BOILERPLATE = [f"Cookie notice {i} applies here" for i in range(12)]
_EVENT_TYPES = np.array(["view", "click", "purchase", "signup", "error"],
                        dtype=object)
_TS0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z


def osm_world() -> Path:
    """Generate (once) and return the fixture's seed-42 OSM world."""
    from pyrosm_ray.fixtures import ensure_fixtures
    return ensure_fixtures(OSM_SF, root=str(CACHE / "osm"))


def page_ids(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    ids = rng.choice(PAGE_ID_SPAN * n, n, replace=False)
    return np.sort(ids).astype(np.int64)


def write_pages(dest: Path, pids: np.ndarray) -> Path:
    """Pages table (the fixture's row generator) for the given page ids."""
    from pyrosm_ray.fixtures import _gen_pages_chunk
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / "pages.parquet"
    pq.write_table(_gen_pages_chunk(pids), path, row_group_size=4096)
    return path


def fixture_view(dest: Path, pids: np.ndarray,
                 way_filter=None) -> Path:
    """A fixture-shaped directory (pages + OSM tables) the DuckDB twins in
    ``__ray_entry__.oracle_sql()`` can read. ``way_filter(ways) -> mask``
    keeps a subset of the ways table."""
    world = osm_world()
    dest.mkdir(parents=True, exist_ok=True)
    for t in OSM_TABLES:
        if t == "osm_ways" and way_filter is not None:
            ways = pq.read_table(world / f"{t}.parquet")
            pq.write_table(ways.filter(pa.array(way_filter(ways))),
                           dest / f"{t}.parquet")
        else:
            shutil.copyfile(world / f"{t}.parquet", dest / f"{t}.parquet")
    write_pages(dest, pids)
    return dest


def replica_offsets(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return np.sort(rng.choice(1_000, n, replace=False)).astype(np.int64)


def base_docs() -> tuple[list[list[int]], np.ndarray, np.ndarray]:
    """Fixed base corpus: word-index sentences, ~10% near-duplicates of an
    earlier document (``src`` is the copied document's index, else -1), a
    third carrying a shared boilerplate sentence."""
    rng = np.random.default_rng(np.random.SeedSequence([42, 7]))
    docs: list[list[int]] = []
    src = np.full(DOC_BASE, -1, np.int64)
    for i in range(DOC_BASE):
        if i > 10 and rng.random() < 0.1:
            src[i] = int(rng.integers(0, i))
            words = list(docs[src[i]])
            words[int(rng.integers(0, len(words)))] = int(
                rng.integers(0, len(_VOCAB)))
        else:
            words = rng.integers(0, len(_VOCAB),
                                 int(rng.integers(12, 40))).tolist()
        docs.append(words)
    boiler = np.where(rng.random(DOC_BASE) < 1 / 3,
                      rng.integers(0, len(_BOILERPLATE), DOC_BASE), -1)
    return docs, src, boiler


def write_corpus(dest: Path, seed: int, doc_reps: int,
                 event_reps: int) -> dict[str, Path]:
    """Replicated documents/events tables: replica ``r`` renames the
    vocabulary with a permutation drawn from its offset (so replicas are
    distinct documents with the base corpus's duplicate structure) and
    shifts ids by the offset."""
    import pyarrow.compute as pc

    dest.mkdir(parents=True, exist_ok=True)
    base, _, boiler = base_docs()
    # each document is two sentences: the halves of its word list
    halves = [h for doc in base for h in (doc[:len(doc) // 2],
                                          doc[len(doc) // 2:])]
    flat = np.concatenate([np.asarray(h, np.int64) for h in halves])
    off = np.zeros(len(halves) + 1, np.int32)
    np.cumsum([len(h) for h in halves], out=off[1:])
    i = np.arange(DOC_BASE)
    boiler_txt = pa.array(np.array(_BOILERPLATE, dtype=object)[
        np.maximum(boiler, 0)], pa.string())
    tables = []
    for rep in replica_offsets(seed, doc_reps):
        perm = np.random.default_rng(
            np.random.SeedSequence([42, 8, int(rep)])).permutation(len(_VOCAB))
        words = pa.array(np.array(_VOCAB, dtype=object)[perm[flat]],
                         pa.string())
        sentences = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(off), words), " ")
        text = pc.binary_join_element_wise(
            sentences.take(pa.array(2 * i)),
            sentences.take(pa.array(2 * i + 1)), ". ")
        text = pc.if_else(pa.array(boiler >= 0), pc.binary_join_element_wise(
            text, boiler_txt, ". "), text)
        tables.append(pa.table({
            "doc_id": pa.array(int(rep) * DOC_BASE + i, pa.int64()),
            "text": text,
            "lang": pa.array(np.array(["en", "fi", "de", "fr", "es"],
                                      dtype=object)[i % 5], pa.string()),
            "source": pa.array([f"src{k % 20}" for k in i], pa.string()),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64())}))
    docs_p = dest / "documents.parquet"
    pq.write_table(pa.concat_tables(tables), docs_p, row_group_size=4096)

    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    n = EVENT_BASE
    user = rng.integers(0, EVENT_USERS, n).astype(np.int64)
    ts = _TS0_US + np.sort(rng.integers(0, 120 * 86_400_000_000, n))
    etype = _EVENT_TYPES[rng.choice(5, n, p=[0.5, 0.25, 0.1, 0.05, 0.1])]
    value = rng.integers(1, 1_000_000, n).astype(np.int64)
    node = rng.integers(0, 400, n)
    parts = []
    for off in replica_offsets(seed, event_reps):
        parts.append(pa.table({
            "event_id": pa.array(np.arange(n, dtype=np.int64) + off * n),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(user + off * EVENT_USERS),
            "event_type": pa.array(etype, pa.string()),
            "value": pa.array((value + off) % 1_000_000, pa.int64()),
            "props": pa.array([f'{{"k": {k}}}' for k in node], pa.string()),
        }))
    events_p = dest / "events.parquet"
    pq.write_table(pa.concat_tables(parts), events_p, row_group_size=16384)
    return {"documents": docs_p, "events": events_p}
