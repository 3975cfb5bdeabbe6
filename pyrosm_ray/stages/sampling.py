"""Training-data sampling, ordering and sequence-packing operators.

Four operators a large-scale LLM data pipeline needs between "corpus" and
"training shards", all deterministic and value-replicable in DuckDB SQL
(the driver's oracle contract):

* :func:`hash_sample` — deterministic rate-limited sampling: keep a doc
  iff ``hash64(doc_id, seed) % den < num``. Stateless vectorised filter;
  the sample is stable across runs, partitionings and cluster sizes.
* :func:`topk_per_group` — per-group quota (e.g. at most k docs per
  domain/language, best-first): ``ROW_NUMBER() OVER (PARTITION BY g
  ORDER BY o DESC, id)`` semantics via one keyed groupby.
* :func:`shuffle_rank` — global deterministic pseudo-random training
  order: rank docs by ``(hash64(doc_id, seed), doc_id)``. A distributed
  two-pass rank: bucket histogram -> driver prefix over ~num_buckets
  scalars -> per-bucket local sort + offset. No global sort barrier, no
  driver-side data.
* :func:`pack_sequences` — concat-and-chunk sequence packing: documents
  concatenated in id order and chunked into fixed ``budget``-sized
  context windows; each doc reports the window its first unit lands in
  (``seq_id``) and the offset within it. The global exclusive prefix sum
  uses the same two-pass bucket scan as :func:`shuffle_rank`.

The two-pass prefix scan is the load-bearing primitive: stage 1 reduces
each ordered bucket to ONE scalar (count / value sum), the driver prefixes
the ~num_buckets scalars, stage 2 finishes locally per bucket. Driver state
is O(num_buckets), data crosses the network once — the shape that holds at
100 TB.

There is no reference equivalent (pyrosm has no sampling operators —
SURVEY.md §2.6); these follow the engine's dedup-family conventions
(stages/dedup.py) and reuse the bit-replicable hash primitives from
:mod:`pyrosm_ray.stages.hashing`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.blocks import exchange, groupby_partitions, \
    keyed_sum_auto
from pyrosm_ray.stages.hashing import hash64, hash64_sql


# ---------------------------------------------------------------------------
# deterministic hash sampling
# ---------------------------------------------------------------------------

def hash_sample(ds, id_col: str = "doc_id", num: int = 3, den: int = 10,
                seed: int = 7, columns: list[str] | None = None):
    """Keep rows whose ``hash64(id, seed) % den < num`` — a deterministic
    ~num/den sample, stable under re-runs and re-partitioning (the
    property ad-hoc ``random_sample`` lacks)."""
    def pick(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        keep = (hash64(ids.view(np.uint64), seed) % np.uint64(den)) \
            < np.uint64(num)
        out = batch.filter(pa.array(keep))
        return out.select(columns) if columns else out

    return ds.map_batches(pick, batch_format="pyarrow")


def hash_sample_sql(id_expr: str, num: int, den: int, seed: int = 7) -> str:
    """WHERE-clause twin of :func:`hash_sample` (bit-identical)."""
    h = hash64_sql(f"CAST({id_expr} AS UBIGINT)", seed)
    return f"(({h}) % {den}) < {num}"


def assign_splits(ds, splits: dict[str, int], id_col: str = "doc_id",
                  seed: int = 23, out_col: str = "split"):
    """Deterministic weighted train/val/test split assignment:
    ``hash64(id, seed) % total_weight`` lands in a cumulative-weight
    range -> split name appended as ``out_col``. A row's split depends
    only on its own id, so assignments are stable under re-runs,
    re-partitioning, and late-arriving data — the property a
    ``random_shuffle().split()`` lacks. Stateless vectorised map;
    bit-identical SQL twin :func:`assign_splits_sql`."""
    names = list(splits)
    weights = np.array([int(splits[n]) for n in names], np.int64)
    if len(names) == 0 or (weights <= 0).any():
        raise ValueError("splits must be a non-empty {name: weight>0}")
    cum = np.cumsum(weights)
    total = int(cum[-1])
    names_arr = np.asarray(names, dtype=object)

    def tag(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        b = (hash64(ids.view(np.uint64), seed)
             % np.uint64(total)).astype(np.int64)
        idx = np.searchsorted(cum, b, side="right")
        return batch.append_column(
            out_col, pa.array(names_arr[idx], pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow")


def assign_splits_sql(id_expr: str, splits: dict[str, int],
                      seed: int = 23) -> str:
    """CASE-expression twin of :func:`assign_splits` (bit-identical)."""
    names = list(splits)
    if len(names) == 1:  # a CASE needs at least one WHEN
        return f"'{names[0]}'"
    weights = [int(splits[n]) for n in names]
    total = sum(weights)
    h = hash64_sql(f"CAST({id_expr} AS UBIGINT)", seed)
    bucket = f"(({h}) % {total})"
    cum = 0
    cases = []
    for n, w in zip(names[:-1], weights[:-1]):
        cum += w
        cases.append(f"WHEN {bucket} < {cum} THEN '{n}'")
    return f"(CASE {' '.join(cases)} ELSE '{names[-1]}' END)"


# ---------------------------------------------------------------------------
# per-group quota
# ---------------------------------------------------------------------------

def topk_per_group(ds, group_col: str, order_col: str, k: int,
                   id_col: str = "doc_id", out_rank: str = "grp_rank"):
    """At most ``k`` rows per group, best-first: order DESC by
    ``order_col``, ties broken by ascending ``id_col`` (fully
    deterministic). Output adds the 1-based ``out_rank``.

    One coarse hash bucket + a per-PARTITION segmented lexsort fold
    (Ray's per-distinct-key map_groups is the documented pathology —
    measured 33 s over 476 clusters in near_dup_keep_best; the fold
    pays per partition). SQL twin: ``ROW_NUMBER() OVER (PARTITION BY
    group ORDER BY order DESC, id) <= k``."""
    from pyrosm_ray.stages.hashing import hash64, stable64_many

    nb = groupby_partitions()

    def bucket(t: pa.Table) -> pa.Table:
        col = t[group_col]
        if pa.types.is_integer(col.type):
            h = hash64(np.asarray(col.to_numpy(zero_copy_only=False),
                                  np.int64).view(np.uint64), 17)
        else:
            h = stable64_many(col.to_pylist())
        return t.append_column(
            "__q", pa.array((h % np.uint64(nb)).astype(np.int64)))

    def fold(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__q"])
        import pandas as pd
        col = g[group_col]
        keys = col.to_numpy(zero_copy_only=False) \
            if pa.types.is_integer(col.type) \
            else np.asarray(col.to_pylist(), dtype=object)
        codes, _ = pd.factorize(keys)
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.asarray(g[order_col].to_numpy(zero_copy_only=False))
        perm = np.lexsort((ids, -order, codes))
        sc = codes[perm]
        starts = np.zeros(len(sc), np.int64)
        news = np.ones(len(sc), bool)
        news[1:] = sc[1:] != sc[:-1]
        seg_start = np.flatnonzero(news)
        seg_of = np.cumsum(news) - 1
        rank = np.arange(len(sc), dtype=np.int64) - seg_start[seg_of]
        keep = rank < k
        out = g.take(pa.array(perm[keep], pa.int64()))
        return out.append_column(
            out_rank, pa.array(rank[keep] + 1, pa.int64()))

    def partial(t: pa.Table) -> pa.Table:
        # batch-local combiner: top-k per group is a monoid, so keeping
        # at most k best rows per group per BATCH is exact and shrinks
        # the shuffle from all rows to <= k x groups x blocks rows
        if t.num_rows == 0:
            return t
        import pandas as pd
        col = t[group_col]
        keys = col.to_numpy(zero_copy_only=False) \
            if pa.types.is_integer(col.type) \
            else np.asarray(col.to_pylist(), dtype=object)
        codes, _ = pd.factorize(keys)
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.asarray(t[order_col].to_numpy(zero_copy_only=False))
        perm = np.lexsort((ids, -order, codes))
        sc = codes[perm]
        news = np.ones(len(sc), bool)
        news[1:] = sc[1:] != sc[:-1]
        seg_start = np.flatnonzero(news)
        seg_of = np.cumsum(news) - 1
        rank = np.arange(len(sc), dtype=np.int64) - seg_start[seg_of]
        return t.take(pa.array(perm[rank < k], pa.int64()))

    empty = ds.schema().base_schema.empty_table().append_column(
        out_rank, pa.array([], pa.int64()))
    return exchange(ds.map_batches(partial, batch_format="pyarrow")
                    .map_batches(bucket, batch_format="pyarrow"),
                    "__q", fold, nb, empty)


# ---------------------------------------------------------------------------
# two-pass distributed prefix scan (rank / running sum)
# ---------------------------------------------------------------------------

def _scan_emit(group: pa.Table, base: dict, emit_fn) -> pa.Table:
    """One bucket's ordered emit (shared by the distributed per-bucket
    fold and the driver fast path — identical kernels, identical
    output)."""
    prim = np.asarray(group["__prim"].to_numpy(zero_copy_only=False),
                      np.int64).view(np.uint64)
    tie = np.asarray(group["__tie"].to_numpy(zero_copy_only=False),
                     np.int64)
    val = np.asarray(group["__val"].to_numpy(zero_copy_only=False),
                     np.int64)
    order = np.lexsort((tie, prim))
    excl = np.zeros(len(order), dtype=np.int64)
    np.cumsum(val[order][:-1], out=excl[1:])
    b = int(group["__bucket"][0].as_py())
    body = group.drop_columns(["__prim", "__tie", "__bucket", "__val"])
    return emit_fn(body, order, base.get(b, 0) + excl)


def _scan_buckets(ds, key_fn, val_fn, emit_fn, num_buckets: int):
    """Shared two-pass ordered-prefix machinery.

    ``key_fn(batch) -> (sort_primary uint64/int64, tiebreak int64,
    bucket int64)`` with bucket monotone non-decreasing in the sort
    order; ``val_fn(batch, order) -> per-row int64 contribution``;
    ``emit_fn(batch, order, base + local exclusive prefix) -> Table``.

    Stage 1 reduces each bucket to one scalar; the driver prefixes the
    ~num_buckets scalars; stage 2 sorts within buckets and emits."""
    def tag(batch: pa.Table) -> pa.Table:
        prim, tie, bucket = key_fn(batch)
        val = val_fn(batch)
        return batch.append_column("__prim", pa.array(
            prim.view(np.int64), pa.int64())) \
            .append_column("__tie", pa.array(tie, pa.int64())) \
            .append_column("__bucket", pa.array(bucket, pa.int64())) \
            .append_column("__val", pa.array(val, pa.int64()))

    # both passes read the tagged stream; materialize once so the
    # histogram pass and the per-bucket pass don't each re-execute the
    # whole upstream plan (a composed pipeline may carry shuffles above
    # this point — measured 4x re-execution in the dedup->mix->rank->
    # pack chain; the object store spills rather than re-computing)
    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    # driver fast path (the dedup-family policy): below the row ceiling
    # the whole scan — histogram, prefix, per-bucket emit — runs locally
    # with the SAME kernels; two keyed exchanges on a few hundred rows
    # are pure machinery (~6 s measured in the composed
    # dedup->mix->rank->pack chain, on Ray's hash shuffle)
    from pyrosm_ray.stages.blocks import KEYED_FOLD_DRIVER_MAX
    if tagged.count() <= KEYED_FOLD_DRIVER_MAX:
        import ray.data as rd
        parts = [pa.table(b) for b in
                 tagged.iter_batches(batch_format="pyarrow")]
        parts = [t for t in parts if t.num_rows]
        if not parts:
            return tagged.drop_columns(
                ["__prim", "__tie", "__bucket", "__val"])
        t = pa.concat_tables(parts)
        bk = np.asarray(t["__bucket"].to_numpy(zero_copy_only=False),
                        np.int64)
        vals = np.asarray(t["__val"].to_numpy(zero_copy_only=False),
                          np.int64)
        base = {}
        acc = 0
        for b in np.unique(bk):
            base[int(b)] = acc
            acc += int(vals[bk == b].sum())
        order = np.argsort(bk, kind="stable")
        t = t.take(pa.array(order, pa.int64()))
        bk = bk[order]
        runs = np.concatenate(([0], np.flatnonzero(np.diff(bk)) + 1,
                               [len(bk)]))
        outs = []
        for i in range(len(runs) - 1):
            outs.append(_scan_emit(t.slice(runs[i],
                                           runs[i + 1] - runs[i]),
                                   base, emit_fn))
        return rd.from_arrow(pa.concat_tables(outs))

    sums = keyed_sum_auto(tagged.map_batches(
        lambda b: b.select(["__bucket", "__val"]), batch_format="pyarrow"),
        "__bucket", ["__val"]).to_pandas().sort_values("__bucket")
    base = {}
    acc = 0
    for b, s in zip(sums["__bucket"], sums["__val"]):
        base[int(b)] = acc
        acc += int(s)

    def per_bucket(group: pa.Table) -> pa.Table:
        return _scan_emit(group, base, emit_fn)

    none = np.zeros(0, np.int64)
    empty = emit_fn(tagged.schema().base_schema.empty_table().drop_columns(
        ["__prim", "__tie", "__bucket", "__val"]), none, none)
    return exchange(tagged, "__bucket", per_bucket,
                    groupby_partitions(len(base)), empty)


def shuffle_rank(ds, id_col: str = "doc_id", seed: int = 11,
                 num_buckets: int = 64, out_col: str = "shuffle_rank"):
    """Global deterministic pseudo-random training order: 1-based rank of
    each row under ``ORDER BY hash64(id, seed), id``. Equivalent to a
    seeded global shuffle, but reproducible across runs and cluster
    sizes, and computed without a global sort (two-pass bucket scan).
    """
    shift = np.uint64(64 - int(num_buckets - 1).bit_length()) \
        if num_buckets > 1 else np.uint64(63)

    def key_fn(batch):
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        h = hash64(ids.view(np.uint64), seed)
        # top hash bits: bucket id is monotone in h AND uniformly loaded
        return h, ids, (h >> shift).astype(np.int64)

    def val_fn(batch):
        return np.ones(batch.num_rows, dtype=np.int64)

    def emit_fn(body, order, prefix):
        out = body.take(pa.array(order, pa.int64()))
        return out.append_column(out_col, pa.array(prefix + 1, pa.int64()))

    return _scan_buckets(ds, key_fn, val_fn, emit_fn, num_buckets)


def shuffle_rank_order_sql(id_expr: str, seed: int = 11) -> str:
    """ORDER BY twin of :func:`shuffle_rank`'s sort key."""
    return f"{hash64_sql(f'CAST({id_expr} AS UBIGINT)', seed)}, {id_expr}"


def pack_sequences(ds, id_col: str = "doc_id", size_col: str = "n_chars",
                   budget: int = 4096, num_buckets: int = 64):
    """Concat-and-chunk packing: docs concatenated in ``id_col`` order,
    the stream chunked into ``budget``-unit context windows. Emits per
    doc: ``seq_id`` (window containing the doc's first unit) and
    ``seq_offset`` (offset inside it) — the standard pre-tokenised
    training-shard layout. Global exclusive prefix over ``size_col`` via
    the two-pass bucket scan (driver holds ``num_buckets`` scalars).

    SQL twin: ``SUM(size) OVER (ORDER BY id ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING)`` then div/mod by ``budget``."""
    # order-preserving bucket router over the id range; pure division
    # (no multiply) so arbitrary int64 id spans cannot overflow
    lo = ds.min(id_col)
    hi = ds.max(id_col)
    span = max(1, int(hi) - int(lo) + 1)
    width = -(-span // num_buckets)  # ceil

    def key_fn(batch):
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        return ids.view(np.uint64), ids, (ids - int(lo)) // width

    def val_fn(batch):
        return np.asarray(batch[size_col].to_numpy(zero_copy_only=False),
                          np.int64)

    def emit_fn(body, order, prefix):
        out = body.take(pa.array(order, pa.int64()))
        return out.append_column(
            "seq_id", pa.array(prefix // budget, pa.int64())) \
            .append_column(
            "seq_offset", pa.array(prefix % budget, pa.int64()))

    return _scan_buckets(ds, key_fn, val_fn, emit_fn, num_buckets)


# ---------------------------------------------------------------------------
# PII-style redaction
# ---------------------------------------------------------------------------

# RE2 on both sides: pyarrow's replace_substring_regex and DuckDB's
# regexp_replace are both RE2, so identical pattern strings give identical
# redactions. Order matters (EMAIL before IP before PHONE) and is fixed.
PII_PATTERNS = (
    ("EMAIL", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("IP", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    ("PHONE", r"\+\d[\d\-]{7,}\d"),
)


def chunk_documents(ds, chunk_tokens: int = 128, overlap: int = 32,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Split documents into overlapping token-window chunks — the
    context-window preparation op complementary to ``pack_sequences``
    (that one concatenates small docs; this one splits large ones —
    RAG / pretraining corpora run both).

    Chunk k covers tokens ``[k·stride, k·stride + chunk_tokens)`` with
    ``stride = chunk_tokens - overlap``; chunks exist while
    ``k·stride < n_tokens`` (tail chunks may be short). Tokens are
    whitespace-split of the RAW text; chunk text re-joins with single
    spaces (whitespace-normalising — the SQL twin shares the rule).
    Output: (id, chunk_index, chunk_text, n_chunk_tokens). Stateless
    map_batches — rows explode in place, nothing shuffles."""
    if overlap >= chunk_tokens:
        raise ValueError("overlap must be < chunk_tokens")
    stride = chunk_tokens - overlap

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, cidx, texts_out, ntok = [], [], [], []
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        for i, t in enumerate(batch[text_col].to_pylist()):
            ws = (t or "").split()
            n = len(ws)
            k = 0
            while k * stride < n:
                seg = ws[k * stride:k * stride + chunk_tokens]
                ids_out.append(int(ids[i]))
                cidx.append(k)
                texts_out.append(" ".join(seg))
                ntok.append(len(seg))
                k += 1
        return pa.table({
            id_col: pa.array(ids_out, pa.int64()),
            "chunk_index": pa.array(cidx, pa.int64()),
            "chunk_text": pa.array(texts_out, pa.string()),
            "n_chunk_tokens": pa.array(ntok, pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def chunk_documents_sql(doc_table: str, chunk_tokens: int = 128,
                        overlap: int = 32, id_col: str = "doc_id",
                        text_col: str = "text") -> str:
    """DuckDB twin of :func:`chunk_documents`."""
    stride = chunk_tokens - overlap
    toks = f"regexp_extract_all({text_col}, '\\S+')"
    return f"""
        WITH tk AS (SELECT {id_col}, {toks} AS ws FROM {doc_table}),
        idx AS (SELECT {id_col}, ws,
                       unnest(generate_series(0,
                           CAST(ceil(len(ws)
                                / CAST({stride} AS DOUBLE)) AS BIGINT)
                           - 1)) AS k
                FROM tk)
        SELECT {id_col}, k AS chunk_index,
               array_to_string(ws[k * {stride} + 1
                                  : k * {stride} + {chunk_tokens}], ' ')
                   AS chunk_text,
               CAST(len(ws[k * {stride} + 1
                           : k * {stride} + {chunk_tokens}]) AS BIGINT)
                   AS n_chunk_tokens
        FROM idx ORDER BY {id_col}, chunk_index"""


def redact_pii(ds, text_col: str = "text", id_col: str = "doc_id",
               out_col: str = "text_redacted"):
    """Redact email / IPv4 / international-phone patterns to
    ``<EMAIL>``/``<IP>``/``<PHONE>`` tokens; adds ``n_redactions``.
    Stateless vectorised RE2 kernels (pyarrow compute), exact SQL twin
    via nested ``regexp_replace(..., 'g')``."""
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        n = np.zeros(len(batch), dtype=np.int64)
        for tag, pat in PII_PATTERNS:
            n += np.asarray(pc.count_substring_regex(txt, pat)
                            .to_numpy(zero_copy_only=False))
            txt = pc.replace_substring_regex(txt, pat, f"<{tag}>")
        return pa.table({
            id_col: batch[id_col],
            out_col: txt,
            "n_redactions": pa.array(n, pa.int64()),
        })

    return ds.map_batches(scrub, batch_format="pyarrow")


def redact_pii_sql(text_expr: str) -> str:
    """SQL twin of the redaction chain (same RE2 patterns, same order)."""
    e = text_expr
    for tag, pat in PII_PATTERNS:
        p = pat.replace("'", "''")
        e = f"regexp_replace({e}, '{p}', '<{tag}>', 'g')"
    return e


def redact_count_sql(text_expr: str) -> str:
    """SQL twin of ``n_redactions`` (counts on the progressively redacted
    text, matching the operator's sequential application)."""
    parts = []
    e = text_expr
    for tag, pat in PII_PATTERNS:
        p = pat.replace("'", "''")
        parts.append(f"length(regexp_extract_all({e}, '{p}'))")
        e = f"regexp_replace({e}, '{p}', '<{tag}>', 'g')"
    return "(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# token-budget corpus mixing
# ---------------------------------------------------------------------------

MIX_DEN = 1_000_000  # sampling-rate denominator (ppm resolution)


def mix_rates(source_tokens: dict[str, int], weights: dict[str, int],
              budget: int, den: int = MIX_DEN) -> dict[str, int]:
    """Integer per-source sampling numerators for a target token budget.

    Source ``s`` should contribute ``budget * w_s / sum(w)`` tokens; with
    ``tokens_s`` available its keep-rate is that target over supply,
    capped at 1. Rates quantise to an integer numerator over ``den``
    (floor) so engine and SQL twin compute the identical predicate in
    exact integer arithmetic — no float rate can drift the sample.
    Sources absent from ``weights`` get rate 0 (dropped)."""
    sum_w = sum(weights.values())
    out = {}
    for s, toks in source_tokens.items():
        w = weights.get(s, 0)
        if w <= 0 or toks <= 0 or sum_w <= 0:
            out[s] = 0
        else:
            out[s] = min(den, (budget * w * den) // (sum_w * toks))
    return out


def mix_sources(ds, weights: dict[str, int], budget: int,
                source_col: str = "source", size_col: str = "n_chars",
                id_col: str = "doc_id", seed: int = 13,
                den: int = MIX_DEN):
    """Deterministic token-budget corpus mixing (the "data mixture" step
    between filtered corpus and training shards): sample each source at
    the rate that lands its share of ``budget`` given integer ``weights``
    (parts, e.g. ``{"web": 3, "books": 1}``).

    Two stages in the aggregate→broadcast→filter shape:

    1. per-source token supply via a keyed sum of ``size_col``
       (:func:`~pyrosm_ray.stages.blocks.keyed_sum_auto`) — sources
       number in the tens, the aggregate is a handful of rows;
    2. one stateless vectorised filter: ``hash64(id, seed) % den <
       num_source`` with the integer numerators from :func:`mix_rates`
       mapped per row (factorize + lookup).

    The sample is stable under re-runs, re-partitioning and cluster
    size (the hash predicate owns the decision, not task boundaries).
    Expected sampled tokens per source ≈ its target (hash uniformity);
    the EXACT membership is pinned by the SQL twin."""
    agg = keyed_sum_auto(ds.map_batches(lambda b: pa.table({
        source_col: b[source_col],
        size_col: b[size_col].cast(pa.int64())}), batch_format="pyarrow"),
        source_col, [size_col])
    supply = {r[source_col]: int(r[size_col]) for r in agg.take_all()}
    nums = mix_rates(supply, weights, budget, den)

    def pick(batch: pa.Table) -> pa.Table:
        srcs = np.asarray(batch[source_col].to_pylist(), dtype=object)
        codes_uniq, inv = np.unique(srcs, return_inverse=True)
        per_uniq = np.array([nums.get(s, 0) for s in codes_uniq],
                            dtype=np.uint64)
        thresh = per_uniq[inv]
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        keep = (hash64(ids.view(np.uint64), seed) % np.uint64(den)) \
            < thresh
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")


def mix_sources_sql(doc_table: str, weights: dict[str, int], budget: int,
                    source_col: str = "source", size_col: str = "n_chars",
                    id_expr: str = "doc_id", seed: int = 13,
                    den: int = MIX_DEN) -> str:
    """DuckDB twin of :func:`mix_sources` (bit-identical sample)."""
    sum_w = sum(weights.values())
    w_case = " ".join(
        f"WHEN '{s}' THEN {w}" for s, w in sorted(weights.items()))
    h = hash64_sql(f"CAST({id_expr} AS UBIGINT)", seed)
    return f"""
        WITH supply AS (SELECT {source_col} AS s,
                               SUM({size_col}) AS toks
                        FROM {doc_table} GROUP BY 1),
        rates AS (SELECT s,
                         CASE WHEN toks <= 0 THEN 0 ELSE LEAST({den},
                             ({budget}::HUGEINT
                              * (CASE s {w_case} ELSE 0 END)
                              * {den}) // ({sum_w}::HUGEINT * toks))
                         END AS num
                  FROM supply)
        SELECT d.* FROM {doc_table} d JOIN rates r
            ON d.{source_col} = r.s
        WHERE (({h}) % {den}) < CAST(r.num AS UBIGINT)"""


# ---------------------------------------------------------------------------
# DSIR importance weights (data selection via importance resampling)
# ---------------------------------------------------------------------------

def dsir_weights(ds, target_col: str = "lang", target_value: str = "en",
                 text_col: str = "text", id_col: str = "doc_id",
                 feature_buckets: int | None = None,
                 num_partitions: int | None = None):
    """Per-doc DSIR importance weights — the public data-selection recipe
    (Xie et al. 2023, "Data Selection for Language Models via Importance
    Resampling"): score every raw document by how much more likely its
    word features are under the TARGET distribution (rows where
    ``target_col == target_value``) than under the RAW distribution (all
    rows), then resample the top of the ranking.

    ``weight(d) = Σ_w ln( p_t(w) / p_r(w) )`` with Laplace smoothing over
    a shared feature space of size ``V``::

        p_t(w) = (c_t(w) + 1) / (T_t + V)
        p_r(w) = (c_r(w) + 1) / (T_r + V)

    Same aggregate → broadcast → score shape as
    :func:`pyrosm_ray.stages.text.unigram_logprob`: ONE distributed pass
    counts both distributions per word (the shuffle is bounded by the
    vocabulary, not the token stream — :func:`keyed_sum_fold` pays per
    partition, not per key), the compact weight table broadcasts once via
    ``ray.put``, and a stateless pass scores every document.

    ``feature_buckets=None`` uses exact word features (the broadcast is
    vocabulary-bounded — Zipf keeps this ~10⁵-10⁶ rows at any corpus
    size). ``feature_buckets=B`` hashes words into ``B`` buckets (the
    paper's hashed n-gram features): the broadcast becomes a dense
    ``B``-element int64 array regardless of vocabulary — the contract
    when the corpus vocabulary itself is adversarial (URLs, code, UUIDs).
    The hash is the md5 tail (:func:`stable64_many`), so BOTH routes are
    bit-replicable in DuckDB (``md5_number_lower(w) % B``).

    Exactness: per-word values quantise to integer micro-nats with the
    ROUND-half-away rule (the module's established contract), so per-doc
    sums are exact int64 in any addition order.
    Output: ``(doc_id, n_tokens, dsir_micro)``.

    No reference equivalent (pyrosm has no corpus operators); the
    aggregate/broadcast conventions follow stages/text.py.
    """
    import ray

    import pandas as pd

    from pyrosm_ray.stages.hashing import stable64_many

    hashed = feature_buckets is not None
    key_t = pa.int64() if hashed else pa.string()

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = batch[text_col].to_pylist()
        flags = np.asarray(
            pc.equal(batch[target_col],
                     target_value).to_numpy(zero_copy_only=False),
            bool)
        words: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            words.extend(ws)
            counts[i] = len(ws)
        if not words:
            return pa.table({"feat": pa.array([], key_t),
                             "n_raw": pa.array([], pa.int64()),
                             "n_tgt": pa.array([], pa.int64())})
        in_tgt = np.repeat(flags, counts)
        if hashed:
            feat = (stable64_many(words)
                    % np.uint64(feature_buckets)).astype(np.int64)
            codes, uniq = pd.factorize(feat)
        else:
            codes, uniq = pd.factorize(np.asarray(words, dtype=object))
        cr = np.bincount(codes, minlength=len(uniq))
        ct = np.bincount(codes[in_tgt], minlength=len(uniq))
        return pa.table({"feat": pa.array(uniq, key_t),
                         "n_raw": pa.array(cr.astype(np.int64)),
                         "n_tgt": pa.array(ct.astype(np.int64))})

    cnt = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                         "feat", ["n_raw", "n_tgt"],
                         num_partitions=num_partitions)
    feats_l, cr_l, ct_l = [], [], []
    for b in cnt.iter_batches(batch_format="pyarrow"):
        feats_l.append(
            np.asarray(b["feat"].to_numpy(zero_copy_only=False), np.int64)
            if hashed else np.asarray(b["feat"].to_pylist(), dtype=object))
        cr_l.append(b["n_raw"].to_numpy(zero_copy_only=False))
        ct_l.append(b["n_tgt"].to_numpy(zero_copy_only=False))
    if feats_l:
        vf = np.concatenate(feats_l)
        cr = np.concatenate(cr_l).astype(np.int64)
        ct = np.concatenate(ct_l).astype(np.int64)
        order = np.argsort(vf)
        vf, cr, ct = vf[order], cr[order], ct[order]
    else:
        vf = np.empty(0, dtype=np.int64 if hashed else object)
        cr = np.empty(0, dtype=np.int64)
        ct = np.empty(0, dtype=np.int64)
    t_raw = int(cr.sum())
    t_tgt = int(ct.sum())
    v = feature_buckets if hashed else len(vf)
    # one ln over one double division — the exact expression the SQL twin
    # writes, so both sides round identically before quantisation
    lp = np.log(((ct + 1.0) * float(t_raw + v))
                / ((cr + 1.0) * float(t_tgt + v)))
    micro_w = np.trunc(lp * 1e6 + 0.5 * np.sign(lp)).astype(np.int64)
    if hashed:
        dense = np.zeros(feature_buckets, dtype=np.int64)
        dense[vf] = micro_w
        table_ref = ray.put(dense)
    else:
        table_ref = ray.put((vf, micro_w))

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        words: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            words.extend(ws)
            counts[i] = len(ws)
        if words:
            if hashed:
                dense = ray.get(table_ref)
                feat = (stable64_many(words)
                        % np.uint64(feature_buckets)).astype(np.int64)
                micro = dense[feat]
            else:
                vf, micro_w = ray.get(table_ref)
                codes, uniq = pd.factorize(np.asarray(words, dtype=object))
                pos = np.searchsorted(vf, uniq)
                pos = np.clip(pos, 0, max(len(vf) - 1, 0))
                hit = (len(vf) > 0) & (vf[pos] == uniq)
                per_u = np.where(hit, micro_w[pos] if len(micro_w) else 0,
                                 0)
                micro = per_u[codes]
        else:
            micro = np.empty(0, dtype=np.int64)
        off = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        cs = np.zeros(len(micro) + 1, dtype=np.int64)
        np.cumsum(micro, out=cs[1:])
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(counts, pa.int64()),
            "dsir_micro": pa.array(cs[off[1:]] - cs[off[:-1]], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def dsir_select(scores, k: int, id_col: str = "doc_id"):
    """Deterministic DSIR resample: the top-``k`` docs by
    ``(dsir_micro DESC, doc_id ASC)``. The scores table is narrow
    (id + two int64s), so a distributed sort + limit is the right shape;
    the paper's Gumbel-noise variant is this with a seeded perturbation
    column added before the sort."""
    return scores.sort(["dsir_micro", id_col],
                       descending=[True, False]).limit(k)


def dsir_weights_sql(doc_table: str = "documents",
                     target_col: str = "lang", target_value: str = "en",
                     feature_buckets: int | None = None) -> str:
    """DuckDB twin of :func:`dsir_weights` (integer micro-nats, both
    feature routes)."""
    feat = "w" if feature_buckets is None else \
        f"md5_number_lower(w) % {feature_buckets}"
    v = "(SELECT COUNT(*) FROM cnt)" if feature_buckets is None \
        else str(feature_buckets)
    return f"""
        WITH wds AS (SELECT doc_id,
                            unnest(regexp_extract_all(lower(text), '\\S+'))
                                AS w,
                            ({target_col} = '{target_value}') AS is_t
                     FROM {doc_table}),
        cnt AS (SELECT {feat} AS f, COUNT(*) AS cr,
                       SUM(CASE WHEN is_t THEN 1 ELSE 0 END) AS ct
                FROM wds GROUP BY 1),
        tots AS (SELECT SUM(cr) AS tr, SUM(ct) AS tt, {v} AS v FROM cnt),
        pw AS (SELECT f,
                      CAST(ROUND(ln((CAST(ct + 1 AS DOUBLE)
                                     * CAST(tr + v AS DOUBLE))
                                    / (CAST(cr + 1 AS DOUBLE)
                                       * CAST(tt + v AS DOUBLE)))
                                 * 1000000) AS BIGINT) AS micro
               FROM cnt, tots),
        per AS (SELECT doc_id, COUNT(*) AS n_tokens,
                       SUM(micro) AS dsir_micro
                FROM wds JOIN pw ON {feat} = f GROUP BY doc_id)
        SELECT d.doc_id, CAST(COALESCE(p.n_tokens, 0) AS BIGINT)
                   AS n_tokens,
               CAST(COALESCE(p.dsir_micro, 0) AS BIGINT) AS dsir_micro
        FROM {doc_table} d LEFT JOIN per p USING (doc_id)
        ORDER BY d.doc_id"""
