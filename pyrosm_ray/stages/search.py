"""Full-text search over document corpora: inverted postings + BM25.

The 100-TB shape is the classic two-pass score-broadcast design (no
global index materialization on the query path):

1. one ``map_batches`` pass emits TINY per-batch partials — document
   count, token count and per-query-term document frequencies (a few
   rows per batch) — which reduce on the driver to the corpus stats
   (N, avgdl, df_t);
2. the stats broadcast via ``ray.put`` and one stateless ``map_batches``
   pass scores every document against the query terms; the result
   streams (``bm25_score``) or collapses through per-batch partial
   top-ks (``bm25_topk`` — k rows per batch cross the wire, never the
   corpus).

``build_postings`` is the offline-index form (term → doc postings with
tf), the shuffle bounded by distinct (term, doc) pairs — the standard
inverted-index build for corpora queried repeatedly.

Exactness contract (same rule as :func:`pyrosm_ray.stages.text
.unigram_logprob`): each (doc, term) BM25 contribution quantises to
integer micro-units with ROUND-half-away — ``trunc(x·10⁶ + 0.5)`` for
the positive contributions BM25 yields — so per-doc sums are exact
int64 in any addition order and the DuckDB twin cannot drift on float
associativity. The float expression trees on both sides are written
identically (left-associative, same parenthesisation) so the doubles
agree bit-for-bit before rounding.

Tokenisation matches the corpus convention used across the text stages:
``lower(text)`` split on whitespace (DuckDB twin:
``regexp_extract_all(lower(text), '\\S+')``).

Reference note: the pyrosm reference has no text-search operator; this
family extends the engine for web-corpus curation (BASELINE.json
north_rule: Common-Crawl-style pages) following the public BM25
(Robertson/Sparck Jones) formulation.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from pyrosm_ray.stages.blocks import unreserved


def _doc_term_matrix(texts, terms: np.ndarray):
    """Per-doc token counts and per-(doc, term) tf over sorted ``terms``.

    Returns (dl: int64[n], tf: int64[n, m]) in one vectorised pass:
    factorize-free searchsorted membership of every token against the
    (tiny, broadcast) query vocabulary."""
    n = len(texts)
    m = len(terms)
    words_all: list[str] = []
    dl = np.empty(n, dtype=np.int64)
    for i, t in enumerate(texts):
        ws = (t or "").lower().split()
        words_all.extend(ws)
        dl[i] = len(ws)
    tf = np.zeros((n, m), dtype=np.int64)
    if words_all and m:
        w = np.asarray(words_all, dtype=object)
        pos = np.searchsorted(terms, w)
        pos = np.clip(pos, 0, m - 1)
        hit = terms[pos] == w
        row = np.repeat(np.arange(n), dl)
        np.add.at(tf, (row[hit], pos[hit]), 1)
    return dl, tf


def _corpus_stats(ds, terms: np.ndarray, text_col: str):
    """One streaming pass → (N_docs, total_tokens, df per term)."""
    m = len(terms)
    terms_ref = ray.put(terms)

    def partial(batch: pa.Table) -> pa.Table:
        ts = ray.get(terms_ref)
        dl, tf = _doc_term_matrix(batch[text_col].to_pylist(), ts)
        df = (tf > 0).sum(axis=0).astype(np.int64)
        return pa.table({
            "df": pa.array(df, pa.int64()),
            "docs": pa.array(
                np.r_[np.int64(len(dl)), np.zeros(max(m - 1, 0),
                                                  np.int64)][:m]
                if m else np.empty(0, np.int64), pa.int64()),
            "toks": pa.array(
                np.r_[dl.sum(), np.zeros(max(m - 1, 0),
                                         np.int64)][:m]
                if m else np.empty(0, np.int64), pa.int64()),
        })

    n_docs = 0
    toks = 0
    df = np.zeros(m, dtype=np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        df_part = np.asarray(b["df"].to_numpy(zero_copy_only=False),
                             np.int64)
        # partials stack vertically when Ray coalesces outputs: fold in
        # m-row strides
        for off in range(0, len(df_part), m):
            df += df_part[off:off + m]
        n_docs += int(np.asarray(
            b["docs"].to_numpy(zero_copy_only=False)).sum())
        toks += int(np.asarray(
            b["toks"].to_numpy(zero_copy_only=False)).sum())
    return n_docs, toks, df


def bm25_score(ds, query: str, id_col: str = "doc_id",
               text_col: str = "text", k1: float = 1.2, b: float = 0.75):
    """BM25 scores for every document matching >=1 query term.

    Returns a streaming Dataset of (id_col, score_micro:int64) — the
    score quantised to integer micro-units (see module docstring).
    Robertson idf: ``ln((N - df + 0.5) / (df + 0.5) + 1.0)``."""
    terms = np.asarray(sorted(set(query.lower().split())), dtype=object)
    n_docs, toks, df = _corpus_stats(ds, terms, text_col)
    avgdl = toks / max(n_docs, 1)
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0) \
        if len(df) else np.empty(0, np.float64)
    bc = ray.put((terms, idf, avgdl))

    def score(batch: pa.Table) -> pa.Table:
        ts, idf_b, avg = ray.get(bc)
        dl, tf = _doc_term_matrix(batch[text_col].to_pylist(), ts)
        if not len(ts):
            return pa.table({id_col: batch[id_col].slice(0, 0),
                             "score_micro": pa.array([], pa.int64())})
        tff = tf.astype(np.float64)
        dlf = dl.astype(np.float64)[:, None]
        denom = tff + k1 * (1.0 - b + b * dlf / avg)
        contrib = idf_b * (tff * (k1 + 1.0)) / denom
        micro = np.trunc(contrib * 1e6 + 0.5).astype(np.int64)
        micro[tf == 0] = 0
        score_m = micro.sum(axis=1)
        keep = (tf > 0).any(axis=1)
        return pa.table({
            id_col: batch[id_col].filter(pa.array(keep)),
            "score_micro": pa.array(score_m[keep], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def bm25_topk(ds, query: str, k: int = 10, id_col: str = "doc_id",
              text_col: str = "text", k1: float = 1.2, b: float = 0.75):
    """Top-k BM25 documents for ``query`` (deterministic tie-break:
    score desc, then id asc). Per-batch partial top-ks reduce on the
    driver — k rows per batch cross the wire, never the corpus."""
    scored = bm25_score(ds, query, id_col=id_col, text_col=text_col,
                        k1=k1, b=b)

    def partial_topk(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["score_micro"].to_numpy(
            zero_copy_only=False), np.int64)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.lexsort((ids, -s))[:k]
        return pa.table({id_col: pa.array(ids[order], pa.int64()),
                         "score_micro": pa.array(s[order], pa.int64())})

    import pandas as pd
    parts = scored.map_batches(partial_topk,
                               batch_format="pyarrow").to_pandas()
    if not len(parts):
        import ray.data as rd
        return unreserved(rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64())})))
    parts = parts.sort_values(["score_micro", id_col],
                              ascending=[False, True]).head(k)
    import ray.data as rd
    return unreserved(rd.from_arrow(pa.Table.from_pandas(
        parts.reset_index(drop=True), preserve_index=False)))


def build_postings(ds, id_col: str = "doc_id", text_col: str = "text",
                   num_partitions: int | None = None):
    """Inverted postings (term, doc_id, tf, dl) — the offline index
    build; ``dl`` denormalizes the document length onto every posting
    row so index-driven BM25 needs no doc-length side table.

    Per-batch factorize+bincount partials mean the shuffle carries one
    row per distinct (term, doc) pair (Zipf-bounded), never raw tokens;
    downstream df/idf are one more term-keyed aggregate away."""
    import pandas as pd

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        words_all: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            words_all.extend(ws)
            counts[i] = len(ws)
        if not words_all:
            return pa.table({"term": pa.array([], pa.string()),
                             id_col: pa.array([], pa.int64()),
                             "tf": pa.array([], pa.int64()),
                             "dl": pa.array([], pa.int64())})
        w = np.asarray(words_all, dtype=object)
        codes, uniq = pd.factorize(w)
        row = np.repeat(np.arange(len(texts)), counts)
        # (doc, term-code) pair counts via a single flat bincount
        key = row.astype(np.int64) * len(uniq) + codes
        cnt = np.bincount(key, minlength=len(texts) * len(uniq))
        nz = np.flatnonzero(cnt)
        drow = nz // len(uniq)
        return pa.table({
            "term": pa.array(uniq[nz % len(uniq)], pa.string()),
            id_col: pa.array(ids[drow], pa.int64()),
            "tf": pa.array(cnt[nz], pa.int64()),
            "dl": pa.array(counts[drow], pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


POSTINGS_BUCKETS = 64


def write_postings(ds, path: str, id_col: str = "doc_id",
                   text_col: str = "text",
                   num_buckets: int = POSTINGS_BUCKETS,
                   resume: bool = False) -> dict:
    """Persist the inverted index as term-hash-bucketed parquet — the
    durable search artifact. Queries then read ONLY the buckets their
    terms hash into (:func:`bm25_topk_from_postings`): the
    prune-at-the-read contract applied to search.

    Layout: ``<path>/bucket=<b>/part.parquet`` (one directory per term
    bucket — the resumable-output rule: a restarted build skips buckets
    whose file already exists when ``resume=True``) plus
    ``<path>/_meta.json`` carrying the corpus constants BM25 needs
    (n_docs, total_tokens, num_buckets). Returns the manifest dict."""
    import json
    import os

    from pyrosm_ray.stages.hashing import stable64_many

    os.makedirs(path, exist_ok=True)

    # corpus constants: one streaming pass of tiny partials
    def stats(b: pa.Table) -> pa.Table:
        toks = sum(len((t or "").lower().split())
                   for t in b[text_col].to_pylist())
        return pa.table({"docs": pa.array([b.num_rows], pa.int64()),
                         "toks": pa.array([toks], pa.int64())})

    n_docs = toks = 0
    for b in ds.map_batches(stats, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        n_docs += int(np.asarray(
            b["docs"].to_numpy(zero_copy_only=False)).sum())
        toks += int(np.asarray(
            b["toks"].to_numpy(zero_copy_only=False)).sum())

    post = build_postings(ds, id_col=id_col, text_col=text_col)

    def bucket(b: pa.Table) -> pa.Table:
        h = stable64_many(b["term"])
        return b.append_column(
            "__b", pa.array((h % np.uint64(num_buckets))
                            .astype(np.int64)))

    def write_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq
        bkt = int(g["__b"][0].as_py())
        d = os.path.join(path, f"bucket={bkt}")
        f = os.path.join(d, "part.parquet")
        tmp = f + ".tmp"
        if resume and os.path.exists(f):
            # completed bucket: skip the write, but clean any stale
            # .tmp a killed previous run left mid-write (readers only
            # ever see part.parquet — the os.replace is atomic — so
            # the orphan is inert, just disk noise)
            if os.path.exists(tmp):
                os.remove(tmp)
        else:
            os.makedirs(d, exist_ok=True)
            pq.write_table(g.drop_columns(["__b"]), tmp)
            os.replace(tmp, f)
        return pa.table({"bucket": pa.array([bkt], pa.int64()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    # exchange width sized to the CLUSTER, not the bucket count:
    # write_bucket still sees one call per bucket at any partition count
    from pyrosm_ray.stages.blocks import exchange, groupby_partitions
    manifest = exchange(
        post.map_batches(bucket, batch_format="pyarrow"), "__b",
        write_bucket, groupby_partitions(num_buckets),
        pa.table({"bucket": pa.array([], pa.int64()),
                  "rows": pa.array([], pa.int64())})).to_pandas()
    meta = {"n_docs": n_docs, "total_tokens": toks,
            "num_buckets": num_buckets, "id_col": id_col,
            "buckets_written": int(len(manifest)),
            "postings_rows": int(manifest["rows"].sum())
            if len(manifest) else 0}
    with open(os.path.join(path, "_meta.json"), "w") as fh:
        json.dump(meta, fh)
    return meta


def bm25_topk_from_postings(path: str, query: str, k: int = 10,
                            k1: float = 1.2, b: float = 0.75):
    """Index-driven BM25 top-k: reads ONLY the term buckets the query
    hashes into (partition pruning over the durable index — at a
    10^6-bucket index a 4-term query touches 4 buckets regardless of
    corpus size). Produces output identical to :func:`bm25_topk` run
    directly over the corpus (same integer micro-unit arithmetic)."""
    import json
    import os

    import pyarrow.compute as pc
    import ray.data as rd

    from pyrosm_ray.stages.hashing import stable64_many

    with open(os.path.join(path, "_meta.json")) as fh:
        meta = json.load(fh)
    id_col = meta["id_col"]
    terms = np.asarray(sorted(set(query.lower().split())), dtype=object)
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "score_micro": pa.array([], pa.int64())})
    if not len(terms):
        return unreserved(rd.from_arrow(empty))
    tb = stable64_many(list(terms)) % np.uint64(meta["num_buckets"])
    files = [os.path.join(path, f"bucket={int(x)}", "part.parquet")
             for x in sorted(set(tb.tolist()))]
    files = [f for f in files if os.path.exists(f)]
    if not files:
        return unreserved(rd.from_arrow(empty))
    post = unreserved(rd.read_parquet(files))
    terms_ref = ray.put(terms)

    def hit(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["term"],
                                 pa.array(list(ray.get(terms_ref)),
                                          pa.string())))

    hits = unreserved(post.map_batches(hit,
                                       batch_format="pyarrow").materialize())

    # df per term (tiny: bounded by matching postings)
    m = len(terms)
    df = np.zeros(m, np.int64)
    for bt in hits.iter_batches(batch_format="pyarrow"):
        w = np.asarray(bt["term"].to_pylist(), dtype=object)
        pos = np.searchsorted(terms, w)
        np.add.at(df, pos, 1)
    n_docs = meta["n_docs"]
    avgdl = meta["total_tokens"] / max(n_docs, 1)
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    bc = ray.put((terms, idf, avgdl))

    def score(bt: pa.Table) -> pa.Table:
        ts, idf_b, avg = ray.get(bc)
        w = np.asarray(bt["term"].to_pylist(), dtype=object)
        pos = np.searchsorted(ts, w)
        tf = np.asarray(bt["tf"].to_numpy(zero_copy_only=False),
                        np.int64).astype(np.float64)
        dl = np.asarray(bt["dl"].to_numpy(zero_copy_only=False),
                        np.int64).astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * dl / avg)
        contrib = idf_b[pos] * (tf * (k1 + 1.0)) / denom
        micro = np.trunc(contrib * 1e6 + 0.5).astype(np.int64)
        return pa.table({id_col: bt[id_col],
                         "m": pa.array(micro, pa.int64())})

    # per-doc sums via the auto-routed keyed fold (driver fold below the
    # ceiling; hash fold beyond — a stopword's matching postings are
    # bounded by its document frequency, which at a 10^12-doc corpus far
    # exceeds any driver heap), then per-batch partial top-k so only
    # k rows per block reach the driver.
    import pandas as pd

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    folded = keyed_sum_auto(
        hits.map_batches(score, batch_format="pyarrow"), id_col, ["m"])

    def part_topk(bt: pa.Table) -> pa.Table:
        d = bt.to_pandas()
        d = d.sort_values(["m", id_col],
                          ascending=[False, True]).head(k)
        return pa.Table.from_pandas(d, preserve_index=False)

    parts = [pa.table(bt) for bt in
             folded.map_batches(part_topk, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return unreserved(rd.from_arrow(empty))
    agg = pa.concat_tables(parts).to_pandas() \
        .sort_values(["m", id_col], ascending=[False, True]).head(k) \
        .rename(columns={"m": "score_micro"})
    return unreserved(rd.from_arrow(pa.Table.from_pandas(
        agg.reset_index(drop=True), preserve_index=False)))


def bm25_score_sql(query: str, doc_table: str = "documents",
                   id_col: str = "doc_id", text_col: str = "text",
                   k1: float = 1.2, b: float = 0.75) -> str:
    """DuckDB twin of :func:`bm25_score` (integer micro-units)."""
    terms = sorted(set(query.lower().split()))
    in_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    return f"""
        WITH wds AS (SELECT {id_col},
                            unnest(regexp_extract_all(lower({text_col}),
                                                      '\\S+')) AS w
                     FROM {doc_table}),
        dl AS (SELECT {id_col}, COUNT(*) AS dl FROM wds
               GROUP BY {id_col}),
        stats AS (SELECT (SELECT COUNT(*) FROM {doc_table}) AS n_docs,
                         (SELECT COUNT(*) FROM wds) AS toks),
        tf AS (SELECT {id_col}, w, COUNT(*) AS tf FROM wds
               WHERE w IN ({in_list}) GROUP BY {id_col}, w),
        df AS (SELECT w, COUNT(DISTINCT {id_col}) AS df FROM wds
               WHERE w IN ({in_list}) GROUP BY w),
        per AS (SELECT tf.{id_col},
                       CAST(ROUND(
                           ln((n_docs - df + 0.5) / (df + 0.5) + 1.0)
                           * (tf * ({k1!r} + 1.0))
                           / (tf + {k1!r} * (1.0 - {b!r}
                              + {b!r} * dl.dl
                                / (CAST(toks AS DOUBLE) / n_docs)))
                           * 1000000) AS BIGINT) AS micro
                FROM tf JOIN df USING (w)
                        JOIN dl ON tf.{id_col} = dl.{id_col}, stats)
        SELECT {id_col}, CAST(SUM(micro) AS BIGINT) AS score_micro
        FROM per GROUP BY {id_col} ORDER BY {id_col}"""


def bm25_topk_sql(query: str, k: int = 10, doc_table: str = "documents",
                  id_col: str = "doc_id", text_col: str = "text",
                  k1: float = 1.2, b: float = 0.75) -> str:
    """DuckDB twin of :func:`bm25_topk`."""
    inner = bm25_score_sql(query, doc_table, id_col, text_col, k1, b)
    return (f"SELECT * FROM ({inner}) "
            f"ORDER BY score_micro DESC, {id_col} LIMIT {k}")
