"""Text-analysis operators over the documents table (training-data pipeline).

All stateless ``map_batches`` stages, vectorised with pyarrow.compute's RE2
kernels (DuckDB also uses RE2, so the SQL oracles evaluate the *same* regex
semantics):

* :func:`token_stats` — whitespace token count + BPE-ish regex token count.
* :func:`quality_score` — deterministic length/punctuation/stopword score.
* :func:`language_id` — stopword-profile n-gram heuristic (top-1 language).
* :func:`fingerprints` — md5 content fingerprint (SQL-oracle-able) + a
  64-bit polynomial rolling hash (engine-side).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# BPE-ish pre-tokenisation: letter runs, digit runs, single punctuation
TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
STOPWORDS_EN = ("the", "a", "of", "and", "to", "in", "is")
STOPWORD_RE = r"\b(?:the|a|of|and|to|in|is)\b"
PUNCT_RE = r"[^A-Za-z0-9\s]"

# tiny per-language stopword profiles for the n-gram/stopword language guess
LANG_PROFILES = {
    "en": ("the", "and", "of", "to", "is", "in", "that", "it"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "zu"),
    "fr": ("le", "la", "les", "et", "est", "une", "que", "dans"),
    "es": ("el", "la", "los", "y", "es", "una", "que", "en"),
    "fi": ("ja", "on", "ei", "se", "että", "oli", "hän", "mutta"),
}


def _count_re(col, pattern: str) -> np.ndarray:
    return np.asarray(pc.count_substring_regex(col, pattern)
                      .to_numpy(zero_copy_only=False), dtype=np.int64)


def token_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    t = batch[text_col]
    batch = batch.append_column(
        "n_tokens", pa.array(_count_re(t, r"\S+"), pa.int64()))
    return batch.append_column(
        "n_bpe_tokens", pa.array(_count_re(t, TOKEN_RE), pa.int64()))


def token_stats(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: token_stats_batch(b, text_col),
                          batch_format="pyarrow")


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    t = batch[text_col]
    n_chars = np.asarray(pc.utf8_length(t).to_numpy(zero_copy_only=False),
                         dtype=np.float64)
    n_tokens = _count_re(t, r"\S+").astype(np.float64)
    punct = _count_re(t, PUNCT_RE).astype(np.float64)
    stop = _count_re(t, STOPWORD_RE).astype(np.float64)
    safe_tok = np.maximum(n_tokens, 1.0)
    safe_chars = np.maximum(n_chars, 1.0)
    score = (0.5 * np.minimum(n_tokens, 100.0) / 100.0
             + 0.3 * (1.0 - punct / safe_chars)
             + 0.2 * np.minimum(stop / safe_tok * 5.0, 1.0))
    return batch.append_column(
        "quality_score", pa.array(np.round(score, 6), pa.float64()))


def quality_score(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: quality_score_batch(b, text_col),
                          batch_format="pyarrow")


def quality_score_sql(text_expr: str = "text") -> str:
    """The exact :func:`quality_score_batch` arithmetic in DuckDB SQL."""
    n_chars = f"GREATEST(CAST(length({text_expr}) AS DOUBLE), 1.0)"
    n_tokens = (f"CAST(len(regexp_extract_all({text_expr}, '\\S+')) "
                f"AS DOUBLE)")
    punct = (f"CAST(len(regexp_extract_all({text_expr}, '{PUNCT_RE}')) "
             f"AS DOUBLE)")
    stop = (f"CAST(len(regexp_extract_all({text_expr}, "
            f"'{STOPWORD_RE}')) AS DOUBLE)")
    return (f"ROUND(0.5 * LEAST({n_tokens}, 100.0) / 100.0 "
            f"+ 0.3 * (1.0 - {punct} / {n_chars}) "
            f"+ 0.2 * LEAST({stop} / GREATEST({n_tokens}, 1.0) * 5.0, 1.0), 6)")


def language_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-profile language guess; deterministic tie-break by language
    name order. Per-language counts are vectorised RE2 scans."""
    t = pc.utf8_lower(batch[text_col])
    n = len(batch)
    langs = sorted(LANG_PROFILES)
    scores = np.zeros((len(langs), n), dtype=np.float64)
    for i, lang in enumerate(langs):
        pattern = r"\b(?:" + "|".join(LANG_PROFILES[lang]) + r")\b"
        scores[i] = _count_re(t, pattern)
    tokens = np.maximum(_count_re(t, r"\S+"), 1)
    scores = scores / tokens
    best = np.argmax(scores, axis=0)  # first max wins (language order)
    guess = np.array(langs, dtype=object)[best]
    guess[scores.max(axis=0) == 0.0] = "und"
    conf = np.round(scores.max(axis=0), 6)
    batch = batch.append_column("lang_guess", pa.array(guess, pa.string()))
    return batch.append_column("lang_conf", pa.array(conf, pa.float64()))


def language_id(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: language_id_batch(b, text_col),
                          batch_format="pyarrow")


ROLL_BASE = np.uint64(1_000_003)


def rolling_hash(texts: list[str]) -> np.ndarray:
    """64-bit polynomial hash over utf-8 bytes, mod 2^64 (uint64 wraparound
    keeps the whole computation one vectorised multiply-sum per doc):
    ``h = sum(byte[i] * BASE^(n-1-i))``."""
    out = np.empty(len(texts), dtype=np.uint64)
    raw = [t.encode("utf-8") for t in texts]
    max_len = max((len(b) for b in raw), default=0)
    pows = np.ones(max_len, dtype=np.uint64)
    if max_len > 1:
        pows[1:] = ROLL_BASE
        np.cumprod(pows, out=pows)  # BASE^k mod 2^64 via wraparound
    with np.errstate(over="ignore"):
        for i, b in enumerate(raw):
            arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
            out[i] = (arr * pows[len(arr) - 1::-1]).sum() if len(arr) else 0
    return out


def fingerprints_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None
            else None for t in texts]
    roll = rolling_hash([t or "" for t in texts]).astype(np.int64)
    batch = batch.append_column("md5", pa.array(md5s, pa.string()))
    return batch.append_column("rolling_fp", pa.array(roll, pa.int64()))


def fingerprints(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: fingerprints_batch(b, text_col),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# repetition signals (Gopher-style quality filters; exact-SQL-reproducible)
# ---------------------------------------------------------------------------

def _per_row_top_and_total(rows: np.ndarray, keys: np.ndarray, n: int):
    """(top count, total count) per row for (row, key) string pairs —
    one np.unique factorize + one grouped count, no Python loop."""
    top = np.zeros(n, dtype=np.int64)
    tot = np.bincount(rows, minlength=n).astype(np.int64)
    if len(rows):
        codes, inv = np.unique(keys, return_inverse=True)
        pair_key = rows.astype(np.int64) * len(codes) + inv
        uk, cnt = np.unique(pair_key, return_counts=True)
        np.maximum.at(top, uk // len(codes), cnt)
    return top, tot


def repetition_stats_batch(batch: pa.Table,
                           text_col: str = "text") -> pa.Table:
    """Per-doc repetition signals over ``lower(text)``:

    * ``dup_line_frac``  — 1 - distinct_lines/total_lines ('\\n' split)
    * ``top_bigram_frac`` — count of the most frequent word bigram /
      total bigrams (whitespace words), 0.0 when < 2 words

    Both are integer-ratio doubles, so a DuckDB oracle reproduces them
    bit-exactly (see ``__ray_entry__.q_repetition``)."""
    n = len(batch)
    low = pc.utf8_lower(batch[text_col])

    def _flat(list_arr):
        la = list_arr.combine_chunks() if isinstance(
            list_arr, pa.ChunkedArray) else list_arr
        off = np.asarray(la.offsets, dtype=np.int64)
        vals = np.asarray(la.values.to_numpy(zero_copy_only=False),
                          dtype=object)
        rows = np.repeat(np.arange(n, dtype=np.int64), off[1:] - off[:-1])
        return rows, vals

    # lines: duplicate fraction
    l_rows, l_vals = _flat(pc.split_pattern(low, "\n"))
    l_top = np.zeros(n, np.int64)
    l_tot = np.bincount(l_rows, minlength=n).astype(np.int64)
    n_distinct = np.zeros(n, np.int64)
    if len(l_rows):
        codes, inv = np.unique(l_vals, return_inverse=True)
        pair = l_rows * len(codes) + inv
        uk = np.unique(pair)
        np.add.at(n_distinct, uk // len(codes), 1)
    dup_line_frac = np.where(
        l_tot > 0, 1.0 - n_distinct / np.maximum(l_tot, 1), 0.0)
    _ = l_top  # lines only need the distinct count

    # word bigrams: top-bigram fraction (split on \s+, drop empty tokens —
    # equals regexp_extract_all('\\S+') in the oracle)
    t_rows, t_vals = _flat(pc.split_pattern_regex(low, r"\s+"))
    keep = t_vals != ""
    t_rows, t_vals = t_rows[keep], t_vals[keep]
    adj = np.zeros(0, dtype=bool) if len(t_rows) < 2 else \
        t_rows[1:] == t_rows[:-1]
    rows_bg = t_rows[:-1][adj] if len(t_rows) >= 2 else t_rows[:0]
    if len(rows_bg):
        bigrams = np.char.add(np.char.add(
            t_vals[:-1][adj].astype("U"), "\x00"),
            t_vals[1:][adj].astype("U")).astype(object)
    else:
        bigrams = t_vals[:0]
    bg_top, bg_tot = _per_row_top_and_total(rows_bg, bigrams, n)
    top_bigram_frac = np.where(
        bg_tot > 0, bg_top / np.maximum(bg_tot, 1), 0.0)

    batch = batch.append_column(
        "dup_line_frac", pa.array(dup_line_frac, pa.float64()))
    return batch.append_column(
        "top_bigram_frac", pa.array(top_bigram_frac, pa.float64()))


def repetition_stats(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: repetition_stats_batch(b, text_col),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus vocabulary (partial-aggregation word frequency)
# ---------------------------------------------------------------------------

def vocab_topk(ds, text_col: str = "text", k: int = 50):
    """Top-k corpus word frequencies — the canonical combiner shape.

    Each batch PRE-AGGREGATES its own word counts (``pd.factorize``, a
    C-level hash table, then ``np.bincount``), so the global groupby
    shuffles one row per (batch, distinct word) — bounded by
    batches x vocabulary (Zipf: ~10⁵-10⁶ rows) — instead of one row per
    TOKEN of the corpus (~10¹⁴ at 100 TB). The groupby then sums the
    partials and a tiny sort+limit finishes.

    Deterministic: ties in the count order break ascending by word. SQL
    twin: ``unnest(regexp_extract_all(lower(text),'\\S+'))`` + GROUP BY +
    ``ORDER BY n DESC, word LIMIT k``.
    """
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch[text_col].to_pylist():
            words.extend((t or "").lower().split())
        if not words:
            return pa.table({"word": pa.array([], pa.string()),
                             "n_partial": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(words, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "n_partial": pa.array(cnt.astype(np.int64))})

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    agg = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                         "word", ["n_partial"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"word": batch["word"],
                         "n": batch["n_partial"]})

    return agg.map_batches(rename, batch_format="pyarrow") \
        .sort(["n", "word"], descending=[True, False]).limit(k)


def vocab_topk_sql(doc_table: str = "documents", k: int = 50) -> str:
    """DuckDB twin of :func:`vocab_topk`."""
    return f"""
        WITH wds AS (SELECT unnest(regexp_extract_all(lower(text), '\\S+'))
                         AS word FROM {doc_table})
        SELECT word, COUNT(*) AS n FROM wds
        GROUP BY word ORDER BY n DESC, word LIMIT {k}"""


# ---------------------------------------------------------------------------
# unigram log-probability (LM-perplexity quality proxy)
# ---------------------------------------------------------------------------

def unigram_logprob(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc corpus-unigram log-probability — the CCNet-style language-
    model quality proxy (docs whose words are globally rare score low).

    Two passes in the aggregate→broadcast→score shape:

    1. corpus word frequencies via the :func:`vocab_topk` partial-count
       combiner (shuffle bounded by vocabulary, not tokens); the Zipf
       vocabulary table (~10⁵-10⁶ rows even at 100 TB) collects to the
       driver and broadcasts once via ``ray.put``;
    2. one stateless ``map_batches`` scores every doc: factorize batch
       words, ``np.searchsorted`` into the sorted broadcast vocab, per-doc
       segment sums by the cumsum trick.

    Exactness contract: per-word values are quantised to integer
    micro-nats — ``trunc(ln(n/t)·10⁶ + 0.5·sign)`` (ROUND-half-away, the
    DuckDB twin's rule) — so the per-doc SUM is an exact int64 in any
    addition order and the oracle hash cannot drift on float
    associativity. Output: ``(doc_id, n_tokens, sum_logprob_micro)``.
    Words absent from the vocab (only possible with an external corpus)
    count as frequency 1.
    """
    import ray

    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch[text_col].to_pylist():
            words.extend((t or "").lower().split())
        if not words:
            return pa.table({"word": pa.array([], pa.string()),
                             "n_partial": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(words, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "n_partial": pa.array(cnt.astype(np.int64))})

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    freq = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                          "word", ["n_partial"])
    words_l, counts_l = [], []
    for b in freq.iter_batches(batch_format="pyarrow"):
        words_l.append(np.asarray(b["word"].to_pylist(), dtype=object))
        counts_l.append(b["n_partial"].to_numpy(zero_copy_only=False))
    if words_l:
        vw = np.concatenate(words_l)
        vc = np.concatenate(counts_l).astype(np.int64)
        order = np.argsort(vw)
        vw, vc = vw[order], vc[order]
    else:
        vw = np.empty(0, dtype=object)
        vc = np.empty(0, dtype=np.int64)
    total = int(vc.sum())
    vocab_ref = ray.put((vw, vc, total))

    def score(batch: pa.Table) -> pa.Table:
        vw, vc, total = ray.get(vocab_ref)
        texts = batch[text_col].to_pylist()
        words: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            words.extend(ws)
            counts[i] = len(ws)
        if words:
            codes, uniq = pd.factorize(np.asarray(words, dtype=object))
            pos = np.searchsorted(vw, uniq)
            pos = np.clip(pos, 0, max(len(vw) - 1, 0))
            hit = (len(vw) > 0) & (vw[pos] == uniq)
            n = np.where(hit, vc[pos] if len(vc) else 1, 1)
            lp = np.log(n.astype(np.float64) / max(total, 1))
            micro_u = np.trunc(lp * 1e6 + 0.5 * np.sign(lp)).astype(np.int64)
            micro = micro_u[codes]
        else:
            micro = np.empty(0, dtype=np.int64)
        off = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        cs = np.zeros(len(micro) + 1, dtype=np.int64)
        np.cumsum(micro, out=cs[1:])
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(counts, pa.int64()),
            "sum_logprob_micro": pa.array(cs[off[1:]] - cs[off[:-1]],
                                          pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def bigram_logprob(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc corpus-bigram conditional log-probability — one step past
    :func:`unigram_logprob` toward the KenLM-style perplexity proxy
    (docs whose word TRANSITIONS are globally rare score low; catches
    shuffled-word spam that unigram stats miss).

    Same aggregate→broadcast→score shape: batch partials count bigram
    occurrences ("w1 w2" joined keys — words are whitespace-split so the
    join is unambiguous); the Zipf-bounded bigram vocabulary collects to
    the driver, prefix totals derive from it (cp(w1) = Σ_x c(w1,x) —
    no second aggregate), and one stateless pass scores every doc.
    Per-bigram values quantise to integer micro-nats with the
    ROUND-half-away rule, so per-doc sums are exact int64.
    Output: ``(doc_id, n_bigrams, sum_logprob_micro)``.
    """
    import ray

    import pandas as pd

    def _bigrams(texts):
        keys: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            counts[i] = max(len(ws) - 1, 0)
            keys.extend(ws[j] + " " + ws[j + 1]
                        for j in range(len(ws) - 1))
        return keys, counts

    def partial(batch: pa.Table) -> pa.Table:
        keys, _ = _bigrams(batch[text_col].to_pylist())
        if not keys:
            return pa.table({"bg": pa.array([], pa.string()),
                             "n_partial": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(keys, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"bg": pa.array(uniq, pa.string()),
                         "n_partial": pa.array(cnt.astype(np.int64))})

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    freq = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                          "bg", ["n_partial"])
    bgs_l, counts_l = [], []
    for b in freq.iter_batches(batch_format="pyarrow"):
        bgs_l.append(np.asarray(b["bg"].to_pylist(), dtype=object))
        counts_l.append(b["n_partial"].to_numpy(
            zero_copy_only=False))
    if bgs_l:
        vb = np.concatenate(bgs_l)
        vc = np.concatenate(counts_l).astype(np.int64)
        order = np.argsort(vb)
        vb, vc = vb[order], vc[order]
        # prefix totals per w1, aligned to the bigram table
        w1 = np.asarray([s.split(" ", 1)[0] for s in vb], dtype=object)
        codes, uniq = pd.factorize(w1)
        cp_by_code = np.zeros(len(uniq), np.int64)
        np.add.at(cp_by_code, codes, vc)
        vcp = cp_by_code[codes]
    else:
        vb = np.empty(0, dtype=object)
        vc = np.empty(0, dtype=np.int64)
        vcp = np.empty(0, dtype=np.int64)
    vocab_ref = ray.put((vb, vc, vcp))

    def score(batch: pa.Table) -> pa.Table:
        vb, vc, vcp = ray.get(vocab_ref)
        texts = batch[text_col].to_pylist()
        keys, counts = _bigrams(texts)
        if keys:
            codes, uniq = pd.factorize(np.asarray(keys, dtype=object))
            pos = np.searchsorted(vb, uniq)
            pos = np.clip(pos, 0, max(len(vb) - 1, 0))
            c = vc[pos] if len(vc) else np.ones(len(uniq), np.int64)
            cp = vcp[pos] if len(vcp) else np.ones(len(uniq), np.int64)
            lp = np.log(c.astype(np.float64) / cp)
            micro_u = np.trunc(lp * 1e6 + 0.5 * np.sign(lp)) \
                .astype(np.int64)
            micro = micro_u[codes]
        else:
            micro = np.empty(0, dtype=np.int64)
        off = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        cs = np.zeros(len(micro) + 1, dtype=np.int64)
        np.cumsum(micro, out=cs[1:])
        return pa.table({
            id_col: batch[id_col],
            "n_bigrams": pa.array(counts, pa.int64()),
            "sum_logprob_micro": pa.array(cs[off[1:]] - cs[off[:-1]],
                                          pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def pmi_topk(ds, k: int = 50, min_count: int = 5,
             text_col: str = "text"):
    """Top-k word collocations by pointwise mutual information — the
    classic phrase-detection pass (tokenizer/vocab prep, word2vec-style
    phrase merging). Over the corpus bigram stream:

        pmi(w1,w2) = ln( c12·T / (cf(w1)·cs(w2)) )

    with T = total bigrams, cf = count as first element, cs = count as
    second — ALL derivable from the one bigram-vocabulary aggregate
    (same Zipf-bounded keyed fold as :func:`bigram_logprob`; no second
    corpus pass). Quantised to integer micro-nats (ROUND-half-away) so
    the DuckDB twin matches exactly. Ties break (pmi desc, w1, w2).
    Returns (w1, w2, n, pmi_micro)."""
    import ray.data as rd

    import pandas as pd

    from pyrosm_ray.stages.blocks import keyed_sum_auto

    def _bigrams(texts):
        keys: list[str] = []
        for t in texts:
            ws = (t or "").lower().split()
            keys.extend(ws[j] + " " + ws[j + 1]
                        for j in range(len(ws) - 1))
        return keys

    def partial(batch: pa.Table) -> pa.Table:
        keys = _bigrams(batch[text_col].to_pylist())
        if not keys:
            return pa.table({"bg": pa.array([], pa.string()),
                             "n_partial": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(keys, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"bg": pa.array(uniq, pa.string()),
                         "n_partial": pa.array(cnt.astype(np.int64))})

    freq = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                          "bg", ["n_partial"])
    bgs_l, counts_l = [], []
    for b in freq.iter_batches(batch_format="pyarrow"):
        bgs_l.append(np.asarray(b["bg"].to_pylist(), dtype=object))
        counts_l.append(b["n_partial"].to_numpy(zero_copy_only=False))
    empty = pa.table({"w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "pmi_micro": pa.array([], pa.int64())})
    if not bgs_l:
        return rd.from_arrow(empty)
    vb = np.concatenate(bgs_l)
    vc = np.concatenate(counts_l).astype(np.int64)
    total = int(vc.sum())
    w1 = np.asarray([s.split(" ", 1)[0] for s in vb], dtype=object)
    w2 = np.asarray([s.split(" ", 1)[1] for s in vb], dtype=object)
    c1, u1 = pd.factorize(w1)
    cf = np.zeros(len(u1), np.int64)
    np.add.at(cf, c1, vc)
    c2, u2 = pd.factorize(w2)
    cs = np.zeros(len(u2), np.int64)
    np.add.at(cs, c2, vc)
    keep = vc >= min_count
    if not keep.any():
        return rd.from_arrow(empty)
    cfk = cf[c1][keep].astype(np.float64)
    csk = cs[c2][keep].astype(np.float64)
    pmi = np.log((vc[keep].astype(np.float64) * total) / (cfk * csk))
    micro = np.trunc(pmi * 1e6 + 0.5 * np.sign(pmi)).astype(np.int64)
    dfp = pd.DataFrame({"w1": w1[keep], "w2": w2[keep],
                        "n": vc[keep], "pmi_micro": micro})
    dfp = dfp.sort_values(["pmi_micro", "w1", "w2"],
                          ascending=[False, True, True]).head(k)
    return rd.from_arrow(pa.Table.from_pandas(
        dfp.reset_index(drop=True), preserve_index=False))


def pmi_topk_sql(doc_table: str = "documents", k: int = 50,
                 min_count: int = 5) -> str:
    """DuckDB twin of :func:`pmi_topk`."""
    toks = "regexp_extract_all(lower(text), '\\S+')"
    return f"""
        WITH tk AS (SELECT doc_id, unnest({toks}) AS w,
                           generate_subscripts({toks}, 1) AS p
                    FROM {doc_table}),
        big AS (SELECT w AS w1,
                       LEAD(w) OVER (PARTITION BY doc_id ORDER BY p)
                           AS w2
                FROM tk),
        bc AS (SELECT w1, w2, COUNT(*) AS c FROM big
               WHERE w2 IS NOT NULL GROUP BY w1, w2),
        tot AS (SELECT SUM(c) AS t FROM bc),
        f1 AS (SELECT w1, SUM(c) AS cf FROM bc GROUP BY w1),
        f2 AS (SELECT w2, SUM(c) AS cs FROM bc GROUP BY w2)
        SELECT w1, w2, CAST(c AS BIGINT) AS n,
               CAST(ROUND(ln((CAST(c AS DOUBLE) * t)
                             / (CAST(cf AS DOUBLE) * cs)) * 1000000)
                    AS BIGINT) AS pmi_micro
        FROM bc JOIN f1 USING (w1) JOIN f2 USING (w2), tot
        WHERE c >= {min_count}
        ORDER BY pmi_micro DESC, w1, w2 LIMIT {k}"""


def bigram_logprob_sql(doc_table: str = "documents") -> str:
    """DuckDB twin of :func:`bigram_logprob` (integer micro-nats)."""
    toks = "regexp_extract_all(lower(text), '\\S+')"
    return f"""
        WITH tk AS (SELECT doc_id, unnest({toks}) AS w,
                           generate_subscripts({toks}, 1) AS p
                    FROM {doc_table}),
        big AS (SELECT doc_id, w AS w1,
                       LEAD(w) OVER (PARTITION BY doc_id ORDER BY p)
                           AS w2
                FROM tk),
        bc AS (SELECT w1, w2, COUNT(*) AS c FROM big
               WHERE w2 IS NOT NULL GROUP BY w1, w2),
        pf AS (SELECT w1, SUM(c) AS cp FROM bc GROUP BY w1),
        per AS (SELECT b.doc_id,
                       CAST(ROUND(ln(CAST(c AS DOUBLE) / cp) * 1000000)
                            AS BIGINT) AS micro
                FROM big b JOIN bc USING (w1, w2) JOIN pf USING (w1)
                WHERE b.w2 IS NOT NULL),
        agg AS (SELECT doc_id, COUNT(*) AS n_bigrams,
                       SUM(micro) AS sum_logprob_micro
                FROM per GROUP BY doc_id)
        SELECT d.doc_id, CAST(COALESCE(a.n_bigrams, 0) AS BIGINT)
                   AS n_bigrams,
               CAST(COALESCE(a.sum_logprob_micro, 0) AS BIGINT)
                   AS sum_logprob_micro
        FROM {doc_table} d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id"""


def unigram_logprob_sql(doc_table: str = "documents") -> str:
    """DuckDB twin of :func:`unigram_logprob` (integer micro-nats)."""
    return f"""
        WITH wds AS (SELECT doc_id,
                            unnest(regexp_extract_all(lower(text), '\\S+'))
                                AS w FROM {doc_table}),
        freq AS (SELECT w, COUNT(*) AS n FROM wds GROUP BY w),
        tot AS (SELECT SUM(n) AS t FROM freq),
        perword AS (SELECT doc_id,
                           CAST(ROUND(ln(CAST(n AS DOUBLE) / t) * 1000000)
                                AS BIGINT) AS micro
                    FROM wds JOIN freq USING (w), tot),
        agg AS (SELECT doc_id, COUNT(*) AS n_tokens,
                       SUM(micro) AS sum_logprob_micro
                FROM perword GROUP BY doc_id)
        SELECT d.doc_id, CAST(COALESCE(a.n_tokens, 0) AS BIGINT)
                   AS n_tokens,
               CAST(COALESCE(a.sum_logprob_micro, 0) AS BIGINT)
                   AS sum_logprob_micro
        FROM {doc_table} d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id"""


# ---------------------------------------------------------------------------
# Unicode text normalisation (corpus canonicalisation)
# ---------------------------------------------------------------------------

def _strip_accents_py(strs) -> list[str]:
    """Exact twin of DuckDB ``strip_accents(nfc_normalize(x))``.

    utf8proc semantics: canonical-decompose, drop nonspacing marks (Mn),
    recompose to NFC (DuckDB recomposes Hangul jamo; pyarrow's
    ``utf8_normalize`` does not, which is why the non-ASCII subset takes
    this Python path).
    """
    import unicodedata

    out = []
    for s in strs:
        d = unicodedata.normalize("NFD", unicodedata.normalize("NFC", s))
        d = "".join(c for c in d if unicodedata.category(c) != "Mn")
        out.append(unicodedata.normalize("NFC", d))
    return out


def normalize_text_batch(batch: pa.Table, text_col: str = "text",
                         out_col: str = "text_norm") -> pa.Table:
    """NFC + strip accents + simple lowercase + whitespace collapse + trim.

    ASCII rows (the bulk of a web corpus) stay on pure Arrow kernels; only
    rows containing a non-ASCII byte take the exact Python unicodedata
    path, merged back with one concat+take (no full-column materialise).
    Lowercasing is ``pc.utf8_lower`` — utf8proc simple case mapping, the
    SAME mapping DuckDB's ``lower`` uses (parity pinned in
    tests/test_text.py on dotted-I / final-sigma / Hangul cases).
    """
    col = batch[text_col].combine_chunks()
    if len(col) == 0:
        return batch.append_column(out_col, pa.array([], pa.string()))
    # pure-ASCII rows have byte length == codepoint length
    non_ascii = pc.fill_null(
        pc.not_equal(pc.binary_length(col), pc.utf8_length(col)), False)
    mask = np.asarray(non_ascii.to_numpy(zero_copy_only=False), dtype=bool)
    if mask.any():
        idx = np.nonzero(mask)[0]
        sub = pa.array(_strip_accents_py(col.take(pa.array(idx)).to_pylist()),
                       pa.string())
        take_idx = np.arange(len(col), dtype=np.int64)
        take_idx[idx] = len(col) + np.arange(len(idx), dtype=np.int64)
        col = pa.concat_arrays([col, sub]).take(pa.array(take_idx))
    out = pc.utf8_lower(col)
    out = pc.replace_substring_regex(out, pattern=r"\s+", replacement=" ")
    # DuckDB trim() strips ASCII space only — match it exactly (the \s+
    # collapse already reduced edge runs to a single ' ')
    out = pc.utf8_trim(out, characters=" ")
    return batch.append_column(out_col, out)


def normalize_text(ds, text_col: str = "text", out_col: str = "text_norm"):
    """Corpus text canonicalisation as one stateless ``map_batches`` pass.

    The standard pre-dedup normalisation step (CCNet / Dolma style):
    Unicode NFC, accent stripping, locale-free lowercasing, whitespace
    collapse. Scale-safe: no shuffle, no state, zero-copy Arrow in/out.
    """
    return ds.map_batches(
        lambda b: normalize_text_batch(b, text_col, out_col),
        batch_format="pyarrow")


def normalize_text_sql(text_expr: str = "text",
                       out_col: str = "text_norm") -> str:
    """DuckDB twin expression for :func:`normalize_text`."""
    return (f"trim(regexp_replace(lower(strip_accents("
            f"nfc_normalize({text_expr}))), '\\s+', ' ', 'g')) AS {out_col}")
