"""Exact duplicated-span (substring) detection over a document corpus.

The training-data curation pass popularised by "Deduplicating Training
Data Makes Language Models Better" (Lee et al., 2022) and RefinedWeb:
find every W-token window whose content occurs more than once
corpus-wide (across docs OR repeated within one doc) and report, per
document, how many of its window positions are duplicated. Downstream
policies (cut the spans, drop the doc above a ratio) hang off these
counts.

Execution shape (no window strings are ever built):

1. one ``map_batches`` pass hashes each token once
   (:func:`pyrosm_ray.stages.hashing.stable64_many` — factorize+memo,
   one md5 per unique word) and derives each window's 128-bit
   fingerprint as two independent linear combinations of the token
   hashes (``Σ c_i·tokh[p+i] mod 2^64`` with per-position odd
   constants; vectorised as W shifted multiply-adds over the flat token
   stream, doc boundaries masked). Batch-local (doc, fingerprint)
   counting collapses within-doc repeats before the wire;
2. ONE raw-task :func:`~pyrosm_ray.stages.blocks.fold` on the
   fingerprint co-locates equal fingerprints; each partition's pass
   computes every fingerprint's corpus total and re-emits per-doc
   partials ``(doc, n_windows, n_dup)``;
3. a doc-keyed :func:`~pyrosm_ray.stages.blocks.keyed_sum_fold` sums
   the partials.

Docs with fewer than W tokens have no windows and are absent from the
output (the SQL twin shares the rule).

Exactness contract: the DuckDB twin computes the SAME fingerprints
(md5 token hashes + the same mulmod/addmod constants rendered through
:func:`pyrosm_ray.stages.hashing._mulmod_sql`), so the oracle is
bit-exact by construction. A fingerprint collision requires two
different windows to agree on BOTH independent 64-bit combinations
(~2^-128 per pair) — the same negligible-collision contract as
line_dedup's 128-bit content keys.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.blocks import fold, keyed_sum_fold
from pyrosm_ray.stages.hashing import (_addmod_sql, _mulmod_sql, hash64,
                                       stable64_many)

def _window_constants(window: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-position odd multipliers for the two
    independent 64-bit window combinations."""
    idx = np.arange(1, window + 1, dtype=np.uint64)
    c_lo = hash64(idx, 101) | np.uint64(1)
    c_hi = hash64(idx, 202) | np.uint64(1)
    return c_lo, c_hi


def _window_fingerprints(texts, window: int,
                         c_lo: np.ndarray, c_hi: np.ndarray):
    """Flat (doc_row, fp_lo, fp_hi) for every window position across the
    batch — one vectorised pass, doc boundaries masked."""
    words_all: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        ws = (t or "").lower().split()
        words_all.extend(ws)
        counts[i] = len(ws)
    total = len(words_all)
    if total < window:
        e = np.empty(0, np.int64)
        return e, e.view(np.uint64), e.view(np.uint64)
    tokh = stable64_many(words_all)
    doc_row = np.repeat(np.arange(len(texts)), counts)
    n_pos = total - window + 1
    lo = np.zeros(n_pos, dtype=np.uint64)
    hi = np.zeros(n_pos, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(window):
            seg = tokh[i:i + n_pos]
            lo += seg * c_lo[i]
            hi += seg * c_hi[i]
    valid = doc_row[:n_pos] == doc_row[window - 1:]
    return doc_row[:n_pos][valid], lo[valid], hi[valid]


def dup_span_stats(ds, window: int = 8, id_col: str = "doc_id",
                   text_col: str = "text",
                   num_partitions: int | None = None):
    """-> (doc_id, n_windows, n_dup_windows) per doc with >=1 window.

    Both folds size themselves from the rows they see
    (``num_partitions=None``): the fingerprint fold's input is the
    window stream (~tokens per corpus), so any real corpus splits it
    cluster-wide, and the streamed upstream runs once."""
    c_lo, c_hi = _window_constants(window)

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        row, lo, hi = _window_fingerprints(texts, window, c_lo, c_hi)
        if not len(row):
            return pa.table({"__h1": pa.array([], pa.int64()),
                             "__h2": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "k": pa.array([], pa.int64())})
        # batch-local (doc, fp) counts: within-doc repeats collapse here
        order = np.lexsort((hi, lo, row))
        row, lo, hi = row[order], lo[order], hi[order]
        first = np.ones(len(row), bool)
        first[1:] = ((row[1:] != row[:-1]) | (lo[1:] != lo[:-1])
                     | (hi[1:] != hi[:-1]))
        starts = np.flatnonzero(first)
        k = np.diff(np.r_[starts, len(row)]).astype(np.int64)
        return pa.table({
            "__h1": pa.array(lo[starts].view(np.int64), pa.int64()),
            "__h2": pa.array(hi[starts].view(np.int64), pa.int64()),
            id_col: pa.array(ids[row[starts]], pa.int64()),
            "k": pa.array(k, pa.int64()),
        })

    def totals(g: pa.Table) -> pa.Table:
        h1 = np.asarray(g["__h1"].to_numpy(zero_copy_only=False),
                        np.int64)
        h2 = np.asarray(g["__h2"].to_numpy(zero_copy_only=False),
                        np.int64)
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((h2, h1))
        h1, h2, ids, k = h1[order], h2[order], ids[order], k[order]
        first = np.ones(len(h1), bool)
        first[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        gid = np.cumsum(first) - 1
        tot = np.zeros(gid[-1] + 1, np.int64)
        np.add.at(tot, gid, k)
        dup = tot[gid] >= 2
        # pre-aggregate per doc before the wire: the downstream doc
        # fold sees <=|docs| rows per partition, not one per window
        import pandas as pd
        codes, udocs = pd.factorize(ids)
        nw = np.zeros(len(udocs), np.int64)
        nd = np.zeros(len(udocs), np.int64)
        np.add.at(nw, codes, k)
        np.add.at(nd, codes, np.where(dup, k, 0))
        return pa.table({
            id_col: pa.array(udocs, pa.int64()),
            "n_windows": pa.array(nw, pa.int64()),
            "n_dup_windows": pa.array(nd, pa.int64()),
        })

    cols = [id_col, "n_windows", "n_dup_windows"]
    partials = fold(ds.map_batches(explode, batch_format="pyarrow"),
                    ["__h1", "__h2"], totals, num_partitions, pa.table(
                        {c: pa.array([], pa.int64()) for c in cols}))
    return keyed_sum_fold(partials, id_col, cols[1:], num_partitions)


def dup_span_stats_sql(window: int = 8, doc_table: str = "documents",
                       id_col: str = "doc_id",
                       text_col: str = "text") -> str:
    """DuckDB twin: same token hashes (md5_number_lower), same
    per-position mulmod constants, LEAD-window fingerprint assembly."""
    c_lo, c_hi = _window_constants(window)
    toks = f"regexp_extract_all(lower({text_col}), '\\S+')"
    leads = ",\n                   ".join(
        f"LEAD(h, {i}) OVER w AS h{i}" for i in range(1, window))
    lo_terms = [_mulmod_sql("CAST(h0 AS HUGEINT)", int(c_lo[0]))]
    hi_terms = [_mulmod_sql("CAST(h0 AS HUGEINT)", int(c_hi[0]))]
    for i in range(1, window):
        lo_terms.append(_mulmod_sql(f"CAST(h{i} AS HUGEINT)",
                                    int(c_lo[i])))
        hi_terms.append(_mulmod_sql(f"CAST(h{i} AS HUGEINT)",
                                    int(c_hi[i])))
    lo_expr, hi_expr = lo_terms[0], hi_terms[0]
    for i in range(1, window):
        lo_expr = _addmod_sql(lo_expr, lo_terms[i])
        hi_expr = _addmod_sql(hi_expr, hi_terms[i])
    return f"""
        WITH th AS (SELECT {id_col},
                           generate_subscripts({toks}, 1) AS p,
                           md5_number_lower(unnest({toks})) AS h
                    FROM {doc_table}),
        led AS (SELECT {id_col}, p, h AS h0,
                   {leads}
                FROM th WINDOW w AS (PARTITION BY {id_col} ORDER BY p)),
        wins AS (SELECT {id_col},
                        {lo_expr} AS fp_lo, {hi_expr} AS fp_hi
                 FROM led WHERE h{window - 1} IS NOT NULL),
        tot AS (SELECT fp_lo, fp_hi, COUNT(*) AS c FROM wins
                GROUP BY fp_lo, fp_hi)
        SELECT {id_col}, CAST(COUNT(*) AS BIGINT) AS n_windows,
               CAST(COUNT(*) FILTER (WHERE c >= 2) AS BIGINT)
                   AS n_dup_windows
        FROM wins JOIN tot USING (fp_lo, fp_hi)
        GROUP BY {id_col} ORDER BY {id_col}"""
