"""Benchmark decontamination over the documents table.

The standard pre-training hygiene step (the k-gram overlap check published
with the GPT-3 appendix and implemented by the open Dolma/RedPajama
toolchains): flag or drop every training document that contains any
k-word gram from an evaluation benchmark. The shape at 100 TB:

* the benchmark side is TINY (thousands of eval prompts) — it collapses
  to a sorted array of 64-bit gram hashes, broadcast once via
  ``ray.put`` and read zero-copy in every task;
* the corpus side streams through ONE vectorised ``map_batches`` pass —
  per-word md5 (:func:`pyrosm_ray.stages.hashing.word_hashes`, one md5
  per distinct word, read from the Arrow buffers), positional k-gram
  hashes by
  a chained :func:`~pyrosm_ray.stages.hashing.combine3` over sliding
  views of the flat word-hash array (no gram strings are ever built),
  membership via one sorted ``np.isin``, per-doc hit counts via a
  cumsum-over-mask segment reduction (safe for zero-gram docs).

Nothing shuffles and nothing materialises: output is one narrow row per
document (``doc_id``, ``n_hits``, ``contaminated``).

Oracle equivalence: the DuckDB twin (:func:`decontaminate_sql`) compares
gram STRINGS (``array_to_string(ws[i:i+k-1], ' ')``). Words come from
``'\\S+'`` extraction, so they contain no whitespace and the space-join is
injective — gram-string equality iff word-sequence equality, which the
chained 64-bit gram hash preserves up to a ~n²/2⁶⁵ collision probability
(negligible at any benchmark size).

No reference equivalent (pyrosm has no text operators — SURVEY.md §2.6);
conventions follow :mod:`pyrosm_ray.stages.dedup`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.hashing import combine3, word_hashes

DEFAULT_K = 8           # words per gram (the GPT-3 appendix uses 8-13)
DEFAULT_SNIPPET_MOD = 29  # self-benchmark fixture: 1/29 of docs seed the set


def _chained_gram_hashes(h: np.ndarray, starts: np.ndarray,
                         k: int) -> np.ndarray:
    """Hash of the k-word gram beginning at each ``starts`` index.

    Chained combine3 over the k word hashes — position j folds in with
    its ordinal as the third operand, so reordered words hash apart and
    the fold renders verbatim in SQL (:func:`gram_hash_sql`, used only by
    tests; the driver oracle compares gram strings instead)."""
    g = h[starts]
    for j in range(1, k):
        g = combine3(g, h[starts + j],
                     np.full(len(starts), j, dtype=np.uint64))
    return g


def _positional_grams(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All positional k-gram hashes for a batch + per-doc gram counts.

    Docs shorter than k words contribute zero grams (matching the SQL
    twin's ``len(ws) >= k`` gate)."""
    h, counts = word_hashes(texts)
    woff = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=woff[1:])
    gcnt = np.maximum(counts - (k - 1), 0)
    total = int(gcnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64), gcnt
    goff = np.zeros(len(gcnt) + 1, dtype=np.int64)
    np.cumsum(gcnt, out=goff[1:])
    starts = (np.arange(total, dtype=np.int64)
              - np.repeat(goff[:-1], gcnt) + np.repeat(woff[:-1], gcnt))
    return _chained_gram_hashes(h, starts, k), gcnt


def eval_gram_hashes(texts, k: int = DEFAULT_K) -> np.ndarray:
    """Sorted unique k-gram hashes of a benchmark text collection.

    Every positional gram of every eval text enters the set (an eval
    prompt contaminates wherever it appears inside a training doc)."""
    g, _ = _positional_grams(texts, k)
    return np.unique(g)


def _prefix_gram_hashes(texts, k: int) -> np.ndarray:
    """Hash of the FIRST k-word gram of each text (short texts dropped)."""
    h, counts = word_hashes(texts)
    woff = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=woff[1:])
    starts = woff[:-1][counts >= k]
    if not len(starts):
        return np.empty(0, dtype=np.uint64)
    return _chained_gram_hashes(h, starts, k)


def self_benchmark_grams(ds, id_col: str = "doc_id", text_col: str = "text",
                         k: int = DEFAULT_K,
                         snippet_mod: int = DEFAULT_SNIPPET_MOD) -> np.ndarray:
    """Deterministic fixture benchmark: the first k-word gram of every
    doc whose id ≡ 0 (mod ``snippet_mod``).

    One distributed narrow pass (id + text prefix only); the collected
    side is one uint64 per selected doc — ``corpus/snippet_mod`` rows, the
    realistic eval-set scale. Collection to the driver is the broadcast
    contract (the set is then ``ray.put`` once by the caller)."""
    def prefix(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        sel = np.nonzero(ids % snippet_mod == 0)[0]
        if not len(sel):
            return pa.table({"g": pa.array([], pa.uint64())})
        texts = batch[text_col].take(pa.array(sel))
        return pa.table({"g": pa.array(_prefix_gram_hashes(texts, k),
                                       pa.uint64())})

    parts = [b["g"].to_numpy(zero_copy_only=False)
             for b in ds.map_batches(prefix, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    return np.unique(np.concatenate(parts)) if parts \
        else np.empty(0, dtype=np.uint64)


def decontaminate(ds, eval_grams: np.ndarray | None = None,
                  id_col: str = "doc_id", text_col: str = "text",
                  k: int = DEFAULT_K,
                  snippet_mod: int = DEFAULT_SNIPPET_MOD):
    """Per-document benchmark-overlap counts.

    ``eval_grams``: sorted unique uint64 gram hashes (from
    :func:`eval_gram_hashes` over a real benchmark). When ``None``, the
    deterministic self-benchmark fixture
    (:func:`self_benchmark_grams`) is derived from ``ds`` itself so the
    operator is closed over the provided tables (the driver-oracle
    contract — no external data).

    Returns one row per doc: ``(doc_id, n_hits, contaminated)`` where
    ``n_hits`` counts gram POSITIONS matching the set (the SQL-twin
    definition) and ``contaminated = n_hits > 0``.
    """
    import ray

    if eval_grams is None:
        eval_grams = self_benchmark_grams(ds, id_col, text_col, k,
                                          snippet_mod)
    grams_ref = ray.put(np.ascontiguousarray(eval_grams, dtype=np.uint64))

    def score(batch: pa.Table) -> pa.Table:
        grams = ray.get(grams_ref)  # local after first fetch per node
        g, gcnt = _positional_grams(batch[text_col], k)
        hit = np.isin(g, grams, kind="sort")
        goff = np.zeros(len(gcnt) + 1, dtype=np.int64)
        np.cumsum(gcnt, out=goff[1:])
        cs = np.zeros(len(g) + 1, dtype=np.int64)
        np.cumsum(hit, out=cs[1:])
        n_hits = cs[goff[1:]] - cs[goff[:-1]]
        return pa.table({
            id_col: batch[id_col],
            "n_hits": pa.array(n_hits, pa.int64()),
            "contaminated": pa.array(n_hits > 0, pa.bool_()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def decontaminate_sql(doc_table: str = "documents", k: int = DEFAULT_K,
                      snippet_mod: int = DEFAULT_SNIPPET_MOD) -> str:
    """DuckDB twin of :func:`decontaminate` with the self-benchmark
    fixture — gram-STRING equality (see module doc for why that equals
    the engine's gram-hash equality)."""
    return f"""
        WITH w AS (SELECT doc_id,
                          regexp_extract_all(lower(text), '\\S+') AS ws
                   FROM {doc_table}),
        snips AS (SELECT DISTINCT array_to_string(ws[1:{k}], ' ') AS g
                  FROM w WHERE doc_id % {snippet_mod} = 0
                        AND len(ws) >= {k}),
        gi AS (SELECT doc_id, ws,
                      unnest(generate_series(1, len(ws) - {k - 1})) AS i
               FROM w WHERE len(ws) >= {k}),
        grams AS (SELECT doc_id, array_to_string(ws[i:i+{k - 1}], ' ') AS g
                  FROM gi),
        hits AS (SELECT d.doc_id, COUNT(*) AS n
                 FROM grams d JOIN snips s USING (g) GROUP BY 1)
        SELECT w.doc_id, COALESCE(h.n, 0) AS n_hits,
               COALESCE(h.n, 0) > 0 AS contaminated
        FROM w LEFT JOIN hits h USING (doc_id)
        ORDER BY w.doc_id"""
