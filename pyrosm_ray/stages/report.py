"""Per-source corpus report card — the "what is in this corpus" summary
a curation pipeline runs before and after every filtering stage.

One row per source: document count, whitespace-token count, character
sum, distinct languages, distinct exact contents (md5 of the raw text,
the :mod:`hashing` oracle contract) and the implied exact-dup count.

Scale shape: ONE scan of the corpus emits a combined partial table —
one row per batch-local (source, lang, content-hash) group, carrying
that group's doc/token/char sums — so the text is read once and never
shuffled. The partial rows (no text, ≤1 per document) then make ONE
raw-task fold on the content hash (``blocks.fold``), so every
occurrence of a hash lands in the same partition and a single
per-partition pass computes doc/token/char sums, exact distinct-content
counts AND the partition's distinct (source, lang) pairs — emitting a
handful of rows per source. The final merge runs on the driver because
a per-source report is inherently tiny (#sources × #partitions rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pyrosm_ray.stages.hashing import stable64_many
from pyrosm_ray.stages.text import _count_re

_REPORT_COLS = ["n_docs", "n_tokens", "sum_chars", "n_langs",
                "n_distinct", "n_dups"]


def _partial(batch: pa.Table, source_col: str, text_col: str,
             lang_col: str) -> pa.Table:
    """One row per batch-local (source, lang, hash): c, nt, nc sums."""
    import pyarrow.compute as pc
    hs = stable64_many(batch[text_col])
    df = pd.DataFrame({
        "__s": batch[source_col].to_pylist(),
        "__l": batch[lang_col].to_pylist(),
        # int64 VIEW of the uint64 hash: Ray round-trips uint64 through
        # pandas as object and falls back to pickling
        "__h": hs.view(np.int64),
        "nt": _count_re(batch[text_col], r"\S+"),
        "nc": np.asarray(pc.utf8_length(batch[text_col])
                         .to_numpy(zero_copy_only=False), np.int64),
    })
    g = df.groupby(["__s", "__l", "__h"], sort=False).agg(
        c=("nt", "size"), nt=("nt", "sum"),
        nc=("nc", "sum")).reset_index()
    return pa.table({"__s": pa.array(g["__s"], pa.string()),
                     "__l": pa.array(g["__l"], pa.string()),
                     "__h": pa.array(g["__h"], pa.int64()),
                     "c": pa.array(g["c"], pa.int64()),
                     "nt": pa.array(g["nt"], pa.int64()),
                     "nc": pa.array(g["nc"], pa.int64())})


_FOLD_EMPTY = pa.table({
    "__s": pa.array([], pa.string()),
    **{c: pa.array([], pa.int64()) for c in
       ["n_docs", "n_tokens", "sum_chars", "n_distinct", "n_dups"]},
    "langs": pa.array([], pa.list_(pa.string()))})


def _fold(t: pa.Table) -> pa.Table:
    """Per-partition fold: every occurrence of a content hash is local
    (the fold key is the hash), so distinct/dup counts are exact here. One output row per source seen in the partition, with
    the partition's distinct langs as a list column."""
    g = t.to_pandas()
    agg = g.groupby("__s", sort=False).agg(
        n_docs=("c", "sum"), n_tokens=("nt", "sum"),
        sum_chars=("nc", "sum"))
    dist = g.drop_duplicates(["__s", "__h"]).groupby(
        "__s", sort=False).size()
    langs = g.drop_duplicates(["__s", "__l"]).groupby(
        "__s", sort=False)["__l"].agg(list)
    srcs = agg.index.to_numpy()
    nd = dist.reindex(srcs).to_numpy(np.int64)
    return pa.table({
        "__s": pa.array(srcs, pa.string()),
        "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
        "n_tokens": pa.array(agg["n_tokens"].to_numpy(np.int64)),
        "sum_chars": pa.array(agg["sum_chars"].to_numpy(np.int64)),
        "n_distinct": pa.array(nd),
        "n_dups": pa.array(agg["n_docs"].to_numpy(np.int64) - nd),
        "langs": pa.array(langs.reindex(srcs).tolist(),
                          pa.list_(pa.string())),
    })


def corpus_report(ds, source_col: str = "source", text_col: str = "text",
                  lang_col: str = "lang") -> pd.DataFrame:
    """-> one pandas row per source: ``n_docs, n_tokens, sum_chars,
    n_langs, n_distinct, n_dups`` (n_dups = docs minus distinct raw
    contents). Small by definition — the only driver-side state is the
    final #sources × #partitions-row merge."""
    from pyrosm_ray.stages.blocks import fold

    folded = fold(ds.map_batches(
        lambda b: _partial(b, source_col, text_col, lang_col),
        batch_format="pyarrow"), "__h", _fold, None,
        _FOLD_EMPTY).to_pandas()

    if folded.empty:
        return pd.DataFrame({source_col: pd.Series([], dtype=object),
                             **{c: pd.Series([], dtype="int64")
                                for c in _REPORT_COLS}})

    out = folded.groupby("__s", sort=False).agg(
        n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"),
        sum_chars=("sum_chars", "sum"), n_distinct=("n_distinct", "sum"),
        n_dups=("n_dups", "sum")).reset_index()
    nl = folded[["__s", "langs"]].explode("langs").drop_duplicates() \
        .groupby("__s", sort=False).size().rename("n_langs")
    out = out.merge(nl.reset_index(), on="__s")
    out = out.rename(columns={"__s": source_col})
    for c in _REPORT_COLS:
        out[c] = out[c].astype("int64")
    return out[[source_col] + _REPORT_COLS] \
        .sort_values(source_col).reset_index(drop=True)


# ---------------------------------------------------------------------------
# per-slice distribution divergence (corpus drift report)
# ---------------------------------------------------------------------------

def slice_divergence(ds, slice_col: str = "source",
                     text_col: str = "text",
                     num_partitions: int | None = None) -> pd.DataFrame:
    """Per-slice unigram KL divergence against the whole corpus — the
    drift report a curation pipeline runs per source / per snapshot to
    catch a slice whose word distribution has wandered (scraper broke,
    spam flood, language shift).

    For slice ``s`` with word counts ``c_s(w)`` (total ``T_s``) and
    corpus counts ``c(w)`` (total ``T``)::

        KL(s ‖ corpus) = Σ_w (c_s(w)/T_s) · ln( (c_s(w)·T) / (c(w)·T_s) )

    Computed exactly as integer micro-nat token sums: per (slice, word)
    the log ratio quantises to ``micro`` (ROUND-half-away, the module
    family's contract) and the output carries
    ``kl_token_micro = Σ_w c_s(w)·micro`` — divide by ``1e6·n_tokens``
    for the KL estimate. Integer sums are exact in any addition order,
    so the DuckDB twin (:func:`slice_divergence_sql`) hash-matches.

    Scale shape: ONE combined partial pass keyed by the compound
    ``slice\\x1fword`` string (words are whitespace-split so the
    separator is unambiguous), ONE keyed fold (one task below the row
    ceiling, split cluster-wide beyond — the key domain is
    #slices × vocabulary, still Zipf-bounded), then driver math over the
    compact count table. Output: one row per slice
    ``(slice, n_tokens, n_distinct_words, kl_token_micro)``.
    """
    from pyrosm_ray.stages.blocks import keyed_sum_auto

    SEP = "\x1f"

    def partial(batch: pa.Table) -> pa.Table:
        # the compound key is only unambiguous if slice values never
        # contain the separator (WORDS can't — str.split() treats \x1f
        # as whitespace): reject instead of silently misattributing.
        # Tokenizer caveat (shared with the text.py family): Python
        # split() and the SQL twin's RE2 '\S+' disagree on \x0b and
        # \x1c-\x1f INSIDE text, so the DuckDB oracle can diverge on
        # adversarial control characters.
        bad = pc.any(pc.match_substring(
            pc.cast(batch[slice_col], pa.string()), SEP)).as_py()
        if bad:
            raise ValueError(
                f"slice column {slice_col!r} contains the reserved "
                "separator U+001F; slice_divergence cannot key on it")
        slices = batch[slice_col].to_pylist()
        keys: list[str] = []
        for s, t in zip(slices, batch[text_col].to_pylist()):
            pre = (s or "") + SEP
            keys.extend(pre + w for w in (t or "").lower().split())
        if not keys:
            return pa.table({"sw": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(keys, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"sw": pa.array(uniq, pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    folded = keyed_sum_auto(
        ds.map_batches(partial, batch_format="pyarrow"), "sw", ["n"],
        num_partitions=num_partitions)
    keys_l, n_l = [], []
    for b in folded.iter_batches(batch_format="pyarrow"):
        keys_l.append(np.asarray(b["sw"].to_pylist(), dtype=object))
        n_l.append(b["n"].to_numpy(zero_copy_only=False))
    if not keys_l or not sum(len(k) for k in keys_l):
        return pd.DataFrame({slice_col: pd.Series([], dtype=object),
                             "n_tokens": pd.Series([], dtype="int64"),
                             "n_distinct_words": pd.Series([],
                                                           dtype="int64"),
                             "kl_token_micro": pd.Series([],
                                                         dtype="int64")})
    keys = np.concatenate(keys_l)
    cs = np.concatenate(n_l).astype(np.int64)
    parts = np.array([k.split(SEP, 1) for k in keys], dtype=object)
    slc, wrd = parts[:, 0], parts[:, 1]
    # corpus-wide word counts + totals via factorized folds
    wc_codes, wc_uniq = pd.factorize(wrd)
    c_w = np.zeros(len(wc_uniq), np.int64)
    np.add.at(c_w, wc_codes, cs)
    t_all = int(cs.sum())
    s_codes, s_uniq = pd.factorize(slc)
    t_s = np.zeros(len(s_uniq), np.int64)
    np.add.at(t_s, s_codes, cs)
    # per (slice, word): micro = ROUND(1e6·ln((c_s·T)/(c·T_s)))
    lp = np.log((cs.astype(np.float64) * float(t_all))
                / (c_w[wc_codes].astype(np.float64)
                   * t_s[s_codes].astype(np.float64)))
    micro = np.trunc(lp * 1e6 + 0.5 * np.sign(lp)).astype(np.int64)
    kl = np.zeros(len(s_uniq), np.int64)
    np.add.at(kl, s_codes, cs * micro)
    nw = np.zeros(len(s_uniq), np.int64)
    np.add.at(nw, s_codes, 1)
    out = pd.DataFrame({slice_col: s_uniq, "n_tokens": t_s,
                        "n_distinct_words": nw, "kl_token_micro": kl})
    for c in ("n_tokens", "n_distinct_words", "kl_token_micro"):
        out[c] = out[c].astype("int64")
    return out.sort_values(slice_col).reset_index(drop=True)


def slice_divergence_sql(doc_table: str = "documents",
                         slice_col: str = "source") -> str:
    """DuckDB twin of :func:`slice_divergence` (integer micro-nats)."""
    return f"""
        WITH wds AS (SELECT {slice_col} AS s,
                            unnest(regexp_extract_all(lower(text), '\\S+'))
                                AS w FROM {doc_table}),
        sw AS (SELECT s, w, COUNT(*) AS cs FROM wds GROUP BY s, w),
        wc AS (SELECT w, SUM(cs) AS c FROM sw GROUP BY w),
        st AS (SELECT s, SUM(cs) AS ts FROM sw GROUP BY s),
        tot AS (SELECT SUM(cs) AS t FROM sw),
        per AS (SELECT s,
                       cs,
                       CAST(ROUND(ln((CAST(cs AS DOUBLE)
                                      * CAST(t AS DOUBLE))
                                     / (CAST(c AS DOUBLE)
                                        * CAST(ts AS DOUBLE)))
                                  * 1000000) AS BIGINT) AS micro
                FROM sw JOIN wc USING (w) JOIN st USING (s), tot)
        SELECT s AS {slice_col},
               CAST(SUM(cs) AS BIGINT) AS n_tokens,
               CAST(COUNT(*) AS BIGINT) AS n_distinct_words,
               CAST(SUM(cs * micro) AS BIGINT) AS kl_token_micro
        FROM per GROUP BY s ORDER BY s"""
