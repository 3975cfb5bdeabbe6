"""Deduplication operators for the documents table (training-data pipeline).

Five families, each a ``queries()``-exposed pipeline (SURVEY.md §2.7 notes
the reference only has exact id-dedup — these are the engine's large-scale
additions):

* :func:`exact_dedup` — groupby on a content hash, keep the minimum id per
  group, survivors re-selected by a distributed semi-join (no driver
  keep-set).
* :func:`minhash_dedup` — word-shingle -> 64 minhash permutations -> banded
  LSH buckets (one fold over (band, int64 digest of the band's signature)
  ONLY) -> candidate pairs -> exact Jaccard in the shared verify tail,
  over shingle sets built from the candidates' own texts (no shingle
  payload is ever packed) -> union-find on the driver, or
  distributed connected components (:mod:`pyrosm_ray.stages.components`)
  past :data:`PAIRS_BROADCAST_MAX` verified edges.
* :func:`simhash_dedup` — 64-bit simhash; ``max_hamming + 1`` bands make
  the banding COMPLETE by pigeonhole (any pair within the Hamming budget
  shares >=1 exact band), so the output equals the exact all-pairs answer.
* :func:`ngram_jaccard_pairs` — exact character-n-gram Jaccard; candidates
  from PREFIX FILTERING (index only the ``|S| - ceil(t*|S|) + 1`` smallest
  grams per doc — any pair with J >= t must share a prefix gram), which is
  complete, so the output equals the exact all-pairs answer.
* :func:`embedding_near_dup` — cosine >= threshold pairs over the
  embeddings table, computed block x block: normalized blocks stay in the
  object store, one task per block pair — the full matrix never lands on
  the driver.

Hashes come from :mod:`pyrosm_ray.stages.hashing` (md5-derived base hash +
xorshift mix), both bit-replicable in DuckDB SQL, so every operator here
can be oracle-checked value-for-value.

Scale notes: signatures are computed per batch (stateless, vectorised with
segment reductions). The four pair operators share one candidate route and
one verify tail: candidates come from ONE :func:`_keyed_pairs_bucketed`
fold (its ``nb=None`` gate picks one task or a split), and
:func:`_verify_pairs` scores them with a per-operator kernel, either
against a broadcast of the involved ids' payloads (up to
:data:`PAIRS_BROADCAST_MAX` candidates) or through two id joins. Only
candidate-sized state ever reaches the driver.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from pyrosm_ray.stages.similarity import _emb_matrix
from pyrosm_ray.stages.blocks import co_join, exchange, fold, \
    groupby_partitions, unreserved
from pyrosm_ray.stages.components import attach_components, \
    connected_components
from pyrosm_ray.stages.hashing import combine3, hash64, stable64_many

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorised 64-bit popcount (byte-table lookup)."""
    v = np.ascontiguousarray(x.astype(np.uint64))
    return _POP8[v.view(np.uint8)].reshape(len(v), 8).sum(axis=1) \
        .astype(np.int64)


def _word_shingle_hashes(texts, k: int = 3
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Every k-word-shingle hash of each text, repeats kept, as a CSR:
    (flat hashes, per-text offsets). A text of fewer than k words pads
    to one shingle, so every text has at least one.

    No shingle strings are ever built: every word in the batch hashes in
    ONE :func:`stable64_many` pass (md5 once per unique word — Zipf vocab),
    then each shingle hash is :func:`pyrosm_ray.stages.hashing.combine3`
    over its k consecutive word hashes, fully vectorised across the batch.
    The DuckDB oracle renders the identical combine (combine3_sql), so the
    operator stays bit-exact."""
    assert k == 3, "combine3 path is specialised to 3-word shingles"
    words_all: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        words = (text or "").lower().split()
        if len(words) < k:
            words = words + [""] * (k - len(words))
        words_all.extend(words)
        counts[i] = len(words)
    h = stable64_many(words_all)
    woff = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=woff[1:])
    sh_counts = counts - (k - 1)            # >=1: padded to k words
    idx = _concat_ranges_dedup(woff[:-1], sh_counts)
    sh = combine3(h[idx], h[idx + 1], h[idx + 2])
    soff = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=soff[1:])
    return sh, soff


def _concat_ranges_dedup(starts: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    total = int(cnts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = np.zeros(len(cnts) + 1, dtype=np.int64)
    np.cumsum(cnts, out=off[1:])
    return (np.arange(total, dtype=np.int64)
            - np.repeat(off[:-1], cnts) + np.repeat(starts, cnts))


def _word_shingles(text: str, k: int = 3) -> np.ndarray:
    """One text's sorted-unique k-word-shingle hashes."""
    return np.unique(_word_shingle_hashes([text], k)[0])


def _char_ngrams_many(texts, n: int = 3) -> list[np.ndarray]:
    """Per-doc unique char-n-gram hashes, one batched md5 pass."""
    gram_strs: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        t = " ".join((text or "").lower().split())
        if len(t) < n:
            t = t.ljust(n)
        c = len(t) - n + 1
        gram_strs.extend(t[j:j + n] for j in range(c))
        counts[i] = c
    h = stable64_many(gram_strs)
    off = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return [np.unique(h[off[i]:off[i + 1]]) for i in range(len(texts))]


def _char_ngrams(text: str, n: int = 3) -> np.ndarray:
    return _char_ngrams_many([text], n)[0]


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                num_partitions: int | None = None):
    """Keep the minimum-id row per normalised-content hash.

    Normalisation = lower + whitespace collapse. One fold on the hash
    moves only (hash, id) pairs — content never moves; survivors are
    re-selected by a distributed semi-join on id (no driver keep-set)."""
    import hashlib

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        hs = [hashlib.md5(" ".join((t or "").lower().split()).encode())
              .hexdigest() for t in texts]
        return pa.table({
            "content_hash": pa.array(hs, pa.string()),
            id_col: batch[id_col],
        })

    def pick(g: pa.Table) -> pa.Table:
        import pandas as pd
        m = pd.DataFrame({
            "h": g["content_hash"].to_pylist(),
            "i": g[id_col].to_numpy(zero_copy_only=False)}) \
            .groupby("h", sort=False)["i"].min()
        return pa.table({id_col: pa.array(m.to_numpy(), g[id_col].type)})

    # the (hash, id) projection streams once into the fold; the survivor
    # re-select reads ``ds`` again for the payload, and an empty ``ds``
    # yields a zero-row result in its own schema
    keep = fold(ds.map_batches(add_hash, batch_format="pyarrow"),
                "content_hash", pick, num_partitions,
                pa.table({id_col: pa.array([], pa.int64())}))
    return co_join(ds, keep, id_col, num_partitions, None)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

# documents per block of the permutation loop: a block's shingle hashes
# and their per-permutation temporaries stay in cache (on 64 k documents
# 2 048 took 0.41 s against 0.68 s unblocked; 8 192 gained nothing)
_SIG_BLOCK_DOCS = 2048


def minhash_signatures_batch(batch: pa.Table, id_col: str, text_col: str,
                             num_perm: int, k_shingle: int) -> pa.Table:
    """(id, sig) rows: each document's ``num_perm`` minhash values as
    one packed ``<u8`` binary. A minimum ignores repeats, so shingle
    hashes go in undeduplicated; every permutation runs as one segment
    minimum per block of :data:`_SIG_BLOCK_DOCS` documents, and ``sig``
    wraps one buffer."""
    flat, off = _word_shingle_hashes(batch[text_col].to_pylist(),
                                     k_shingle)
    n = len(off) - 1
    sigs = np.empty((n, num_perm), dtype="<u8")
    for d0 in range(0, n, _SIG_BLOCK_DOCS):
        d1 = min(n, d0 + _SIG_BLOCK_DOCS)
        seg = flat[off[d0]:off[d1]]
        starts = off[d0:d1] - off[d0]
        for p in range(num_perm):
            sigs[d0:d1, p] = np.minimum.reduceat(hash64(seg, p + 1), starts)
    width = 8 * num_perm
    return pa.table({
        id_col: batch[id_col],
        "sig": pa.BinaryArray.from_buffers(pa.binary(), n, [
            None, pa.py_buffer(np.arange(n + 1, dtype=np.int32) * width),
            pa.py_buffer(sigs)]),
    })


def _band_table(ids, keys: np.ndarray, id_col: str) -> pa.Table:
    """(band, bucket, id) rows from an (n docs, bands) uint64 matrix of
    band keys, band by band."""
    n, bands = keys.shape
    return pa.table({
        "band": pa.array(np.repeat(np.arange(bands, dtype=np.int64), n)),
        "bucket": pa.array(np.ascontiguousarray(keys.T).ravel()
                           .view(np.int64)),
        id_col: pa.array(np.tile(np.asarray(
            ids.to_numpy(zero_copy_only=False), np.int64), bands)),
    })


def _band_rows(batch: pa.Table, id_col: str, num_perm: int,
               bands: int) -> pa.Table:
    """(band, bucket, id) rows; ``bucket`` is an int64 digest of the
    band's ``num_perm // bands`` signature values (one vectorised
    :func:`hash64` mix per value, as in :func:`_keyed_pairs_bucketed`).
    Shingle payloads do NOT ride the banding fold. A digest collision
    only merges two buckets: extra candidates, which the exact verify
    drops."""
    rows = num_perm // bands
    flat, _ = _binary_u64_csr(batch["sig"])
    seg = flat.reshape(len(batch), bands, rows)
    key = np.zeros((len(batch), bands), np.uint64)
    for c in range(rows):
        key = key * np.uint64(0x100000001B3) ^ hash64(seg[:, :, c], 11)
    return _band_table(batch[id_col], key, id_col)


_PAIRS_EMPTY = pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})


def _distinct_pairs(pairs_ds, num_partitions: int | None = None):
    """Distinct (a, b) pairs: one fold on the pair with an in-partition
    lexsort-dedupe (the result holds reduce refs, so callers'
    count()/join reuse them)."""
    def distinct(g: pa.Table) -> pa.Table:
        a = np.asarray(g["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(g["b"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        return pa.table({"a": pa.array(a[keep], pa.int64()),
                         "b": pa.array(b[keep], pa.int64())})

    return fold(pairs_ds, ["a", "b"], distinct, num_partitions,
                _PAIRS_EMPTY)


def _keyed_pairs_bucketed(rows_ds, key_cols: list[str], id_col: str,
                          num_partitions: int | None = None,
                          cap: int = 1 << 30):
    """Candidate (a, b) pairs within each exact ``key_cols`` group,
    via ONE raw-task fold on ``key_cols``: every group's rows share a
    partition, and each partition generates every group's pairs in one
    vectorised pass — segment the sorted rows by key, then for row j of
    its segment emit (all earlier ids, id_j) with the standard
    repeat/arange construction. Groups above ``cap`` degrade to the
    consecutive chain over their sorted ids (connectivity preserved).
    The fold pays per PARTITION, not per distinct key (band-buckets /
    grams are ~|corpus| distinct); ``num_partitions=None`` lets the
    fold's own gate pick one task or a split.

    Inside a partition, key columns of any type collapse to one 64-bit
    digest (ints through :func:`hash64`, everything else through the
    stable string hash). A digest collision merges two groups. That
    adds candidate pairs, which every caller's exact verify drops; but
    if the merged group exceeds ``cap``, it also moves both groups onto
    the chain rule, whose chain then interleaves their ids and can lose
    a true pair of either. Without a collision over ``cap``, outputs
    are exact."""
    def digest(t: pa.Table) -> np.ndarray:
        key = np.zeros(t.num_rows, np.uint64)
        for c in key_cols:
            col = t[c]
            if pa.types.is_integer(col.type):
                h = hash64(np.asarray(
                    col.to_numpy(zero_copy_only=False),
                    np.int64).view(np.uint64), 11)
            else:
                h = stable64_many(
                    col.cast(pa.string()).to_pylist())
            key = key * np.uint64(0x100000001B3) ^ h
        return key

    def pairs(g: pa.Table) -> pa.Table:
        keys = digest(g).view(np.int64)
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.lexsort((ids, keys))
        ids, keys = ids[order], keys[order]
        # drop duplicate (key, id) rows (a fold never sees zero rows)
        keep = np.ones(len(ids), bool)
        keep[1:] = ~((keys[1:] == keys[:-1]) & (ids[1:] == ids[:-1]))
        ids, keys = ids[keep], keys[keep]
        seg_id = np.zeros(len(ids), np.int64)
        seg_id[1:] = np.cumsum(keys[1:] != keys[:-1])
        n = len(ids)
        first = np.nonzero(np.r_[True, seg_id[1:] != seg_id[:-1]])[0]
        seg_start = first[seg_id]                     # start row per row
        seg_len = np.bincount(seg_id)
        pos = np.arange(n) - seg_start                # rank in segment
        # pairs with row j as the RIGHT element: its whole prefix, or
        # just its predecessor when the segment exceeds cap (chain rule)
        big = seg_len[seg_id] > cap
        rep = np.where(big, (pos > 0).astype(np.int64), pos)
        total = int(rep.sum())
        if total == 0:
            return _PAIRS_EMPTY
        b_idx = np.repeat(np.arange(n), rep)
        run_end = np.cumsum(rep)
        run_off = np.arange(total) - np.repeat(run_end - rep, rep)
        a_start = np.where(big, np.arange(n) - 1, seg_start)
        a_idx = np.repeat(a_start, rep) + run_off
        return pa.table({"a": pa.array(ids[a_idx], pa.int64()),
                         "b": pa.array(ids[b_idx], pa.int64())})

    return fold(rows_ds, key_cols, pairs, num_partitions, _PAIRS_EMPTY)


def _binary_u64_csr(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy CSR view over a binary column of packed ``<u8`` arrays:
    (flat u64 values, element offsets). No per-row as_py/frombuffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, np.uint64), np.zeros(1, np.int64)
    col = col.cast(pa.large_binary())
    boff = np.frombuffer(col.buffers()[1], np.int64)[
        col.offset:col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], np.uint8)
    flat = data[boff[0]:boff[-1]].view("<u8")
    return flat, (boff - boff[0]) // 8


_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)
_VERIFY_CHUNK_ELEMS = 1 << 22  # ~32 MB of u64 temporaries per chunk


def _jaccard_csr(flat: np.ndarray, off: np.ndarray, ia: np.ndarray,
                 ib: np.ndarray) -> np.ndarray:
    """Exact Jaccard for row-index pairs over ONE shingle CSR — fully
    numpy, no per-pair Python (round-3 verdict item: the per-pair
    intersect1d loop was the verify-stage wall).

    Shape: pairs are bucketed by total set size (one argsort of lengths),
    each bucket gathers its pairs into a padded (rows x width) matrix and
    row-sorts it (np.sort axis=1 — cache-resident small sorts in one C
    call). |A∩B| = adjacent-equal count minus the pad run (A and B are
    each sorted-unique, so a shared value contributes exactly one
    adjacent equal). A real value colliding with the pad sentinel
    (2^64-1) is detected and that row recomputed exactly — correctness
    never rides on hash luck. Deliberately NOT one global lexsort: that
    is O(T log T) on the full gathered payload with giant temporaries,
    while bucket row-sorts do the same comparisons cache-resident."""
    n = len(ia)
    if n == 0:
        return np.empty(0)
    la = (off[ia + 1] - off[ia]).astype(np.int64)
    lb = (off[ib + 1] - off[ib]).astype(np.int64)
    tot = la + lb
    inter = np.zeros(n, np.int64)
    order = np.argsort(tot, kind="stable")
    tot_s = tot[order]
    # workspace sized to the largest chunk: m*w <= CHUNK_ELEMS unless a
    # single pair's sets exceed it (then that pair is its own chunk)
    cap = int(min(max(_VERIFY_CHUNK_ELEMS, int(tot_s[-1])),
                  n * max(int(tot_s[-1]), 1)))
    ws_idx = np.empty(cap, np.int64)     # reused across chunks: repeated
    ws_val = np.empty(cap, np.uint64)    # 32 MB mmaps re-fault every loop
    start = 0
    while start < n:
        end = min(n, start + max(
            int(_VERIFY_CHUNK_ELEMS // max(int(tot_s[start]), 1)), 1))
        while end > start + 1 and \
                (end - start) * int(tot_s[end - 1]) > _VERIFY_CHUNK_ELEMS:
            end = max(start + 1,
                      start + int(_VERIFY_CHUNK_ELEMS // tot_s[end - 1]))
        rows = order[start:end]
        start = end
        w = int(tot[rows].max())
        if w == 0:
            continue
        col = np.arange(w, dtype=np.int64)[None, :]
        la_c = la[rows][:, None]
        tot_c = tot[rows][:, None]
        in_a = col < la_c
        in_pad = col >= tot_c
        # the column offset is row-constant per side: broadcast-fill the
        # reused workspace (no m x w temporary chain — that chain, and
        # the re-faulting of fresh 32 MB allocations per chunk, dominated
        # the chunk wall)
        m = len(rows)
        idx = ws_idx[:m * w].reshape(m, w)
        np.copyto(idx, (off[ib[rows]] - la[rows])[:, None])
        np.copyto(idx, off[ia[rows]][:, None], where=in_a)
        idx += col
        np.copyto(idx, 0, where=in_pad)  # keep pad lookups in bounds
        vals = ws_val[:m * w].reshape(m, w)
        np.take(flat, idx, out=vals)
        sent_rows = np.flatnonzero(((vals == _PAD) & ~in_pad).any(axis=1))
        vals[in_pad] = _PAD
        vals.sort(axis=1)
        adj = (vals[:, 1:] == vals[:, :-1]).sum(axis=1)
        npad = w - tot[rows]
        inter_c = adj - np.maximum(npad - 1, 0)
        for r in sent_rows:  # astronomically rare: exact fallback
            g = rows[r]
            sa = flat[off[ia[g]]:off[ia[g] + 1]]
            sb = flat[off[ib[g]]:off[ib[g] + 1]]
            inter_c[r] = len(np.intersect1d(sa, sb, assume_unique=True))
        inter[rows] = inter_c
    union = la + lb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


# candidate pairs small enough to verify against one broadcast of the
# involved ids' payloads; past it the verify runs as two id joins
PAIRS_BROADCAST_MAX = 1 << 18


def _pair_columns(pairs_ds) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) row of a pairs Dataset, read block by block as
    Arrow (a zero-row block may carry no columns at all)."""
    ts = [t for t in map(ray.get, pairs_ds.to_arrow_refs()) if t.num_rows]

    def column(c: str) -> np.ndarray:
        return np.concatenate([np.empty(0, np.int64)] + [np.asarray(
            t[c].to_numpy(zero_copy_only=False), np.int64) for t in ts])
    return column("a"), column("b")


def _jaccard_kernel(threshold: float, col, ia: np.ndarray, ib: np.ndarray):
    """Exact Jaccard of packed-shingle rows ``ia`` x ``ib`` of ``col``."""
    flat, off = _binary_u64_csr(col)
    return _jaccard_scored(threshold, _jaccard_csr(flat, off, ia, ib))


def _jaccard_scored(threshold: float, jac: np.ndarray):
    return jac >= threshold, {"jaccard": pa.array(np.round(jac, 6),
                                                   pa.float64())}


def _text_jaccard_kernel(threshold: float, k: int, col, ia: np.ndarray,
                         ib: np.ndarray):
    """Exact word-``k``-shingle Jaccard of text rows ``ia`` x ``ib`` of
    ``col``. Shingle sets are built for the rows the pairs use only: one
    :func:`_word_shingle_hashes` pass over them, then one (row, hash)
    lexsort that sorts and dedupes every set at once."""
    rows, inv = np.unique(np.concatenate([ia, ib]), return_inverse=True)
    flat, off = _word_shingle_hashes(
        col.take(pa.array(rows)).to_pylist(), k)
    doc = np.repeat(np.arange(len(rows)), np.diff(off))
    order = np.lexsort((flat, doc))
    flat, doc = flat[order], doc[order]
    new = np.ones(len(flat), bool)
    new[1:] = (flat[1:] != flat[:-1]) | (doc[1:] != doc[:-1])
    flat, doc = flat[new], doc[new]
    off = np.searchsorted(doc, np.arange(len(rows) + 1))
    return _jaccard_scored(threshold, _jaccard_csr(
        flat, off, inv[:len(ia)], inv[len(ia):]))


def _hamming_kernel(max_hamming: int, col, ia: np.ndarray, ib: np.ndarray):
    """Hamming distance of int64 signature rows ``ia`` x ``ib`` of
    ``col``."""
    h = np.asarray(col.to_numpy(zero_copy_only=False)) \
        .astype(np.int64).view(np.uint64)
    ham = popcount64(h[ia] ^ h[ib])
    return ham <= max_hamming, {"hamming": pa.array(ham, pa.int64())}


def _scored(kernel, col, a: np.ndarray, b: np.ndarray, ia: np.ndarray,
            ib: np.ndarray) -> pa.Table:
    """(a, b, score) rows of the pairs ``kernel`` keeps; ``ia``/``ib``
    index the pairs' payloads in ``col``."""
    keep, score = kernel(col, ia, ib)
    mask = pa.array(keep)
    return pa.table({"a": pa.array(a[keep], pa.int64()),
                     "b": pa.array(b[keep], pa.int64()),
                     **{k: v.filter(mask) for k, v in score.items()}})


@ray.remote
def _verify_chunk(kernel, got: pa.Table, id_col: str, payload_col: str,
                  a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Score one chunk of pairs against the broadcast payloads ``got``
    (sorted by id)."""
    ids = np.asarray(got[id_col].to_numpy(zero_copy_only=False), np.int64)
    return _scored(kernel, got[payload_col], a, b, np.searchsorted(ids, a),
                   np.searchsorted(ids, b))


def _verify_pairs(cand, payload_ds, id_col: str, payload_col: str, kernel,
                  nb: int | None):
    """The near-dup verify tail: raw candidate pairs (duplicates
    allowed) -> an (a, b, score) Dataset of the distinct pairs that
    ``kernel(col, ia, ib) -> (keep mask, {score name: values})`` keeps.
    ``col`` is ``payload_ds``'s ``payload_col`` (one row per id), and
    ``ia``/``ib`` index each pair's two rows in it.

    The pairs dedupe in one fold first, and the gate reads the distinct
    count (``q_ngram_jaccard``'s 4.4 M raw prefix-filter candidates at
    sf0.01 hold 125 k distinct pairs).
    Up to :data:`PAIRS_BROADCAST_MAX` pairs, the involved ids' payloads
    gather with a map-side semi-join (no exchange), ``ray.put`` once,
    and pair chunks verify in plain tasks. Past it the pairs meet their
    payloads through two id joins, and a map verifies each joined
    block."""
    cand = unreserved(_distinct_pairs(cand, nb).materialize())
    if cand.count() > PAIRS_BROADCAST_MAX:
        return _verify_joined(cand, payload_ds, id_col, payload_col, kernel,
                              nb)
    a, b = _pair_columns(cand)
    if not len(a):
        e = np.empty(0, np.int64)
        return unreserved(rd.from_arrow(
            _scored(kernel, pa.array([]), e, e, e, e)))
    involved = ray.put(np.unique(np.concatenate([a, b])))

    def gather(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False), np.int64)
        return t.select([id_col, payload_col]).filter(
            pa.array(np.isin(ids, ray.get(involved))))

    got = ray.put(pa.concat_tables([
        t for t in map(ray.get, payload_ds.map_batches(
            gather, batch_format="pyarrow").to_arrow_refs())
        if t.num_rows]).sort_by(id_col).combine_chunks())
    # one chunk per partition slot: a chunk's kernel is one numpy pass,
    # so more chunks than CPUs only add task overhead
    n_chunks = min(groupby_partitions(), len(a) // 1024 + 1)
    return unreserved(rd.from_arrow_refs([
        _verify_chunk.remote(kernel, got, id_col, payload_col, ac, bc)
        for ac, bc in zip(np.array_split(a, n_chunks),
                          np.array_split(b, n_chunks))]))


def _verify_joined(cand, payload_ds, id_col: str, payload_col: str, kernel,
                   nb: int | None):
    """:func:`_verify_pairs`' join route: each pair picks up its two
    payloads by id, then one map scores every joined block."""
    ptype = payload_ds.schema().base_schema.field(payload_col).type

    def side(key: str):
        return payload_ds.map_batches(lambda t: pa.table({
            key: t[id_col].cast(pa.int64()), "p" + key: t[payload_col]}),
            batch_format="pyarrow")

    cols = {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
            "pa": pa.array([], ptype)}
    j = co_join(cand, side("a"), "a", nb, pa.table(cols))
    j = co_join(j, side("b"), "b", nb,
                pa.table({**cols, "pb": pa.array([], ptype)}))

    def verify(t: pa.Table) -> pa.Table:
        n = t.num_rows
        col = pa.concat_arrays([t["pa"].combine_chunks(),
                                t["pb"].combine_chunks()])
        ia = np.arange(n, dtype=np.int64)
        return _scored(kernel, col,
                       np.asarray(t["a"].to_numpy(zero_copy_only=False),
                                  np.int64),
                       np.asarray(t["b"].to_numpy(zero_copy_only=False),
                                  np.int64), ia, ia + n)

    return j.map_batches(verify, batch_format="pyarrow")


def _union_find_labels(a: np.ndarray, b: np.ndarray):
    """Min-id component labels for a driver-sized edge list (the broadcast
    twin of :func:`pyrosm_ray.stages.components.connected_components`)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    ia, ib = inv[:len(a)], inv[len(a):]
    for x, y in zip(ia, ib):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = np.array([find(int(i)) for i in range(len(nodes))],
                     dtype=np.int64)
    comp = np.empty(len(nodes), dtype=np.int64)
    comp.fill(np.iinfo(np.int64).max)
    np.minimum.at(comp, roots, nodes)
    return nodes, comp[roots]


def minhash_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                  num_perm: int = 64, bands: int = 16, k_shingle: int = 3,
                  threshold: float = 0.8, bucket_cap: int = 256,
                  num_partitions: int | None = None):
    """Near-dup detection: returns ``ds`` with a ``dup_of`` column, the
    cluster's canonical (minimum) id; singleton docs map to themselves.

    Banding folds (band, bucket digest, id) rows only (see
    :func:`_band_rows`); candidates verify by exact shingle Jaccard in
    :func:`_verify_pairs`, whose payload is the input's text: only the
    candidates' shingle sets are ever built
    (:func:`_text_jaccard_kernel`). Verified edge sets up to
    :data:`PAIRS_BROADCAST_MAX` cluster with a driver union-find, larger
    ones with distributed :func:`connected_components`."""
    # read once: the signature map, the verify payload and the
    # ``dup_of`` attach all use it
    ds = unreserved(ds.materialize())
    sig_ds = ds.map_batches(
        lambda b: minhash_signatures_batch(b, id_col, text_col, num_perm,
                                           k_shingle),
        batch_format="pyarrow")
    if not ds.count() and (schema := ds.schema()) is not None:
        # a map is never called on a zero-row block, so type the empty
        # result here: the input's columns plus ``dup_of``
        return unreserved(rd.from_arrow(
            schema.base_schema.empty_table().append_column(
                "dup_of", pa.array([], pa.int64()))))
    banded = sig_ds.map_batches(
        lambda b: _band_rows(b, id_col, num_perm, bands),
        batch_format="pyarrow")
    cand = _keyed_pairs_bucketed(banded, ["band", "bucket"], id_col,
                                 num_partitions, cap=bucket_cap)
    edges = unreserved(_verify_pairs(
        cand, ds, id_col, text_col,
        functools.partial(_text_jaccard_kernel, threshold, k_shingle),
        num_partitions).materialize())
    n_edges = edges.count()
    # the driver union-find wins at this size: on 64 k docs (7 155
    # candidate pairs, 2 Ray CPUs) the stage took a median 4.23 s with
    # it and 6.02 s with connected_components
    if n_edges > PAIRS_BROADCAST_MAX:
        return attach_components(
            ds, connected_components(edges, "a", "b",
                                     num_partitions=num_partitions),
            id_col, out_col="dup_of", num_partitions=num_partitions)
    labels = _union_find_labels(*_pair_columns(edges)) if n_edges else None
    return attach_components(ds, labels, id_col, out_col="dup_of")


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash_batch(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """64-bit simhash over word occurrences (bit b set when the signed
    occurrence-count of bit b across word hashes is positive).

    Batched: every word in the batch hashes in one :func:`stable64_many`
    pass; the per-doc signed bit sums run as segment reductions over
    8-bit-position chunks (bounds the bit-matrix temporary to 64 B/word)."""
    texts = batch[text_col].to_pylist()
    n_docs = len(texts)
    words_all: list[str] = []
    counts = np.empty(n_docs, dtype=np.int64)
    for i, t in enumerate(texts):
        ws = (t or "").lower().split()
        words_all.extend(ws)
        counts[i] = len(ws)
    out = np.zeros(n_docs, dtype=np.uint64)
    if words_all:
        hs = stable64_many(words_all)
        off = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        nz = np.flatnonzero(counts > 0)
        # reduceat over the non-empty segment starts: empty segments
        # contribute no rows, so consecutive non-empty starts span exactly
        # one document's words
        for b0 in range(0, 64, 8):
            shift = np.arange(b0, b0 + 8, dtype=np.uint64)
            bits = ((hs[:, None] >> shift) & np.uint64(1)).astype(np.int64)
            signed = 2 * bits - 1
            seg = np.add.reduceat(signed, off[:-1][nz], axis=0)
            pos = seg > 0
            w = (np.uint64(1) << shift)
            out[nz] |= (pos * w).sum(axis=1, dtype=np.uint64)
    return pa.table({id_col: batch[id_col],
                     "simhash": pa.array(out.view(np.int64))})


def simhash_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3, num_partitions: int | None = None):
    """Exact Hamming-<=k pairs over 64-bit text simhashes (see
    :func:`hamming_pairs` for the banding machinery, shared with the
    image-dHash near-dup)."""
    sig = unreserved(ds.map_batches(
        lambda b: simhash_batch(b, id_col, text_col),
        batch_format="pyarrow").materialize())
    return hamming_pairs(sig, id_col=id_col, hash_col="simhash",
                         max_hamming=max_hamming,
                         num_partitions=num_partitions)


def hamming_pairs(sig, id_col: str = "doc_id", hash_col: str = "simhash",
                  max_hamming: int = 3, num_partitions: int | None = None):
    """Exact Hamming-<=k pairs over a 64-bit signature column:
    (a, b, hamming) with a < b.

    COMPLETE banding by pigeonhole: the 64 bits split into
    ``max_hamming + 1`` bands, so any pair within the budget matches
    exactly on >=1 band. The (band, bucket = the band's bits) rows fold
    once in :func:`_keyed_pairs_bucketed`, and the candidates verify
    with a true popcount in :func:`_verify_pairs`. (Scale note: larger
    budgets mean narrower bands and hotter buckets — the usual near-dup
    budget is <=3, i.e. 4 x 16-bit bands.) ``sig`` should be
    materialized by the caller if its compute is non-trivial (it is
    consumed twice: banding + verify gather)."""
    bands = max_hamming + 1
    widths = [64 // bands + (i < 64 % bands) for i in range(bands)]
    starts = np.array(np.cumsum([0] + widths[:-1]), np.uint64)
    masks = np.array([(1 << w) - 1 for w in widths], np.uint64)

    def band_rows(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch[hash_col].to_numpy(zero_copy_only=False)) \
            .astype(np.int64).view(np.uint64)
        return _band_table(batch[id_col], (h[:, None] >> starts) & masks,
                           id_col)

    cand = _keyed_pairs_bucketed(
        sig.map_batches(band_rows, batch_format="pyarrow"),
        ["band", "bucket"], id_col, num_partitions)
    return _verify_pairs(cand, sig, id_col, hash_col,
                         functools.partial(_hamming_kernel, max_hamming),
                         num_partitions)


# ---------------------------------------------------------------------------
# n-gram jaccard + embedding cosine near-dup
# ---------------------------------------------------------------------------

def _ngram_sigs_tbl(batch: pa.Table, id_col: str, text_col: str,
                    n: int, id_offset: int = 0,
                    id_limit: int | None = None) -> pa.Table:
    """(id, packed-sorted-unique-gram-hash blob) rows; ``id_offset``
    relocates one corpus's id space for the cross-corpus join, and
    ``id_limit`` enforces the pre-relocation range [0, limit)."""
    texts = batch[text_col].to_pylist()
    sh = _char_ngrams_many(texts, n)
    ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                     np.int64)
    if id_limit is not None and len(ids) and (ids.min() < 0
                                              or ids.max() >= id_limit):
        raise ValueError("similarity_join ids must lie in "
                         f"[0, {id_limit})")
    return pa.table({
        id_col: pa.array(ids + id_offset, pa.int64()),
        "shingles": pa.array([s.astype("<u8").tobytes() for s in sh],
                             pa.binary()),
    })


def _prefix_rows_tbl(batch: pa.Table, id_col: str,
                     threshold: float) -> pa.Table:
    """(gram, id) rows for each doc's prefix grams only (PPJoin rule)."""
    ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
    if len(ids) == 0:
        return pa.table({"gram": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64())})
    grams_out, ids_out = [], []
    for i, blob in enumerate(batch["shingles"].to_pylist()):
        s = np.frombuffer(blob, dtype="<u8")  # sorted unique
        plen = len(s) - int(np.ceil(threshold * len(s))) + 1
        grams_out.append(s[:max(plen, 1)])
        ids_out.append(np.full(min(max(plen, 1), len(s)), ids[i],
                               dtype=np.int64))
    return pa.table({
        "gram": pa.array(np.concatenate(grams_out).view(np.int64)),
        id_col: pa.array(np.concatenate(ids_out)),
    })


def ngram_jaccard_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        n: int = 3, threshold: float = 0.8,
                        num_partitions: int | None = None):
    """EXACT character-n-gram Jaccard >= threshold pairs.

    Candidates come from prefix filtering (PPJoin-style): with grams
    globally ordered by hash, a doc with gram-set S indexes only its
    ``|S| - ceil(t*|S|) + 1`` smallest grams; any pair with J >= t shares
    at least one indexed gram, so the candidate set is complete and the
    output equals the exact all-pairs answer (which is what the SQL oracle
    computes)."""
    sig_ds = unreserved(ds.map_batches(
        lambda b: _ngram_sigs_tbl(b, id_col, text_col, n),
        batch_format="pyarrow").materialize())

    cand = _keyed_pairs_bucketed(sig_ds.map_batches(
        lambda b: _prefix_rows_tbl(b, id_col, threshold),
        batch_format="pyarrow"), ["gram"], id_col, num_partitions)
    return _verify_pairs(cand, sig_ds, id_col, "shingles",
                         functools.partial(_jaccard_kernel, threshold),
                         num_partitions)


_SIMJOIN_OFFSET = 1 << 40  # right-corpus id relocation (ids < 2^40)


def similarity_join(left_ds, right_ds, id_col: str = "doc_id",
                    text_col: str = "text", n: int = 3,
                    threshold: float = 0.8,
                    num_partitions: int | None = None):
    """EXACT cross-corpus n-gram Jaccard join: every (left, right) pair
    with char-n-gram Jaccard >= threshold — the train x eval
    contamination-pair / fuzzy-join shape engines usually lack.

    Rides the single-corpus machinery unchanged: the right corpus's ids
    relocate by 2^40 (both id spaces must lie in [0, 2^40) — enforced),
    the union runs the same prefix-filter candidate generation (the
    PPJoin completeness theorem is per-PAIR, so it holds across corpora
    exactly as within one), within-side candidates drop with one
    vectorised mask, and survivors verify through the shared
    exact-Jaccard routes. Output: (a=left id, b=right id, jaccard) —
    a < 2^40 <= b+offset guarantees the orientation."""
    from ray.data.expressions import col

    sig_ds = unreserved(left_ds.map_batches(
        lambda b: _ngram_sigs_tbl(b, id_col, text_col, n,
                                  id_limit=_SIMJOIN_OFFSET),
        batch_format="pyarrow").union(right_ds.map_batches(
            lambda b: _ngram_sigs_tbl(b, id_col, text_col, n,
                                      id_offset=_SIMJOIN_OFFSET,
                                      id_limit=_SIMJOIN_OFFSET),
            batch_format="pyarrow")).materialize())

    def cross_only(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64)
        return t.filter(pa.array((a < _SIMJOIN_OFFSET)
                                 & (b >= _SIMJOIN_OFFSET)))

    cand = _keyed_pairs_bucketed(sig_ds.map_batches(
        lambda b: _prefix_rows_tbl(b, id_col, threshold),
        batch_format="pyarrow"), ["gram"], id_col, num_partitions) \
        .map_batches(cross_only, batch_format="pyarrow")
    # an expression keeps the result typed when no pair survives (a map
    # is never called on a zero-row block)
    return _verify_pairs(cand, sig_ds, id_col, "shingles",
                         functools.partial(_jaccard_kernel, threshold),
                         num_partitions) \
        .with_column("b", col("b") - _SIMJOIN_OFFSET)


# driver-gate work counters from the last embedding_near_dup call
# (observability for the sub-quadratic-gate contract; tests assert on it)
_LAST_GATE_STATS: dict | None = None

# hierarchical cone gate tuning: geometric cap-budget ladder (radians) for
# the recursive descend, and the range-pair size below which a direct
# member-pair bound check is cheaper than further segmentation
_GATE_BUDGETS = (0.8, 0.5, 0.3, 0.18, 0.1)
_GATE_LEAF_PAIRS = 64


def _merge_cone(cents: np.ndarray, caps: np.ndarray, lo: int, hi: int):
    """Covering cone (unit centroid, cap angle) of member cones
    ``[lo, hi)``: cap = max(angle(member, centroid) + member cap) — every
    vector inside any member cone lies inside the merged cone (sound)."""
    s = cents[lo:hi].sum(axis=0)
    nrm = np.linalg.norm(s)
    if nrm < 1e-12:  # antipodal members: cover the whole sphere
        return cents[lo], float(np.pi)
    c = s / nrm
    cap = float(np.max(np.arccos(
        np.clip(cents[lo:hi] @ c, -1.0, 1.0)) + caps[lo:hi]))
    return c, min(cap, np.pi)


def _segment_cones(cents: np.ndarray, caps: np.ndarray, lo: int, hi: int,
                   budget: float):
    """Greedy segmentation of the consecutive (direction-sorted) member
    range into cones whose merged cap stays <= ``budget``; returns
    [(centroid, cap, seg_lo, seg_hi), ...]."""
    out = []
    i = lo
    while i < hi:
        j = i + 1
        while j < hi:
            _, cap = _merge_cone(cents, caps, i, j + 1)
            if cap > budget:
                break
            j += 1
        c, cap = _merge_cone(cents, caps, i, j)
        out.append((c, cap, i, j))
        i = j
    return out


def embedding_near_dup(ds, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       threshold: float = 0.95,
                       block_rows: int = 8192,
                       lsh_sort: bool = True):
    """Exact cosine >= threshold pairs, computed block x block with a
    directionally-sorted, hierarchically cone-bound-gated pair grid.

    Each ~``block_rows``-vector block is L2-normalised and packed once
    (map_batches), stays in the object store, and one Ray task per
    *surviving* block pair runs the matmul — the full matrix never lands
    on the driver. Three exactness-preserving scale levers:

    * ``lsh_sort``: vectors are globally sorted by nearest ANCHOR
      direction (a deterministic hash-sample of ~blocks/2 data vectors,
      broadcast once) with similarity-to-anchor as tiebreaker, so blocks
      become directionally coherent. (Random-hyperplane sign prefixes —
      the round-3 key — interleave clusters whenever noise flips a low-
      margin bit; anchors from the data itself are robust to that.)
    * cone-bound gate: every block carries its centroid direction and cap
      angle (max angle of any member to the centroid). For blocks A, B
      every cross cosine is <= cos(max(0, theta_AB - cap_A - cap_B)), so
      pairs whose bound is below ``threshold`` are skipped WITHOUT the
      matmul — provably no hit is lost. On clustered data the surviving
      grid is near-linear in blocks; on isotropic data it degrades to
      all-pairs (an exact threshold join cannot do better there).
    * hierarchical gate: blocks group into ~sqrt(B) super-blocks (merged
      centroid + widened cap); only member pairs of SURVIVING super
      pairs are bound-checked, so driver gate work is sub-quadratic in
      blocks and the driver never holds one ObjectRef per block.
    """
    import ray
    import ray.data as rd

    if lsh_sort:
        ds = unreserved(ds.materialize())
        n_vecs = ds.count()
        n_anchors = int(np.clip(
            int(np.ceil(n_vecs / max(block_rows, 1) / 2)), 1, 4096))
        # deterministic id-hash sample (~4x oversample), first A by id
        target = min(max(4 * n_anchors, 64), max(n_vecs, 1))
        thresh = np.uint64(
            min(int((1 << 64) * min(4.0 * target / max(n_vecs, 1), 1.0)),
                (1 << 64) - 1))

        def sample_rows(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
            keep = hash64(ids.view(np.uint64), 17) < thresh
            return batch.filter(pa.array(keep))

        samp_ids, samp_vecs = [], []
        for bt in ds.map_batches(sample_rows, batch_format="pyarrow") \
                .iter_batches(batch_size=1 << 14, batch_format="pyarrow"):
            samp_ids.append(np.asarray(
                bt[id_col].to_numpy(zero_copy_only=False), np.int64))
            samp_vecs.append(_emb_matrix(bt, emb_col))
        sids = np.concatenate(samp_ids) if samp_ids else \
            np.empty(0, np.int64)
        if len(sids):
            svecs = np.concatenate(samp_vecs)
            order = np.argsort(sids, kind="stable")[:n_anchors]
            anchors = svecs[order]
            anchors = anchors / np.maximum(
                np.linalg.norm(anchors, axis=1, keepdims=True), 1e-12)
            # order anchors along a greedy nearest-direction chain so
            # ADJACENT anchor ids are directionally close — otherwise
            # every anchor-run boundary inside a block is a potential
            # direction jump and the block's cone cap blows up
            a_n = len(anchors)
            if a_n > 2:
                simm = anchors @ anchors.T
                visited = np.zeros(a_n, bool)
                chain = [0]
                visited[0] = True
                for _ in range(a_n - 1):
                    s = simm[chain[-1]].copy()
                    s[visited] = -2.0
                    nxt = int(np.argmax(s))
                    chain.append(nxt)
                    visited[nxt] = True
                anchors = anchors[np.array(chain)]
            anchors_ref = ray.put(np.ascontiguousarray(anchors))

            def key_rows(batch: pa.Table) -> pa.Table:
                emb = _emb_matrix(batch, emb_col)  # zero-copy list<float>
                if emb.size:
                    m = emb / np.maximum(
                        np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
                    sim = m @ ray.get(anchors_ref).T
                    aidx = np.argmax(sim, axis=1).astype(np.int64)
                    q = np.clip(((1.0 - sim[np.arange(len(aidx)), aidx])
                                 * 65535.0).astype(np.int64), 0, 65535)
                    key = (aidx << 17) | q
                else:
                    key = np.empty(0, np.int64)
                return batch.append_column("__lsh_key",
                                           pa.array(key, pa.int64()))

            ds = ds.map_batches(key_rows, batch_format="pyarrow") \
                .sort("__lsh_key")

    _packed_schema = pa.schema([
        ("ids", pa.binary()), ("mat", pa.binary()), ("dim", pa.int64()),
        ("centroid", pa.binary()), ("cos_cap", pa.float64())])

    def pack(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # empty blocks are a normal Ray Data occurrence (upstream
            # filter/sort); a dim-0 packed row would crash the cone gate
            return _packed_schema.empty_table()
        emb = _emb_matrix(batch, emb_col)  # zero-copy list<float>
        emb = emb / np.maximum(
            np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if emb.size:
            c = emb.mean(axis=0)
            c = c / max(np.linalg.norm(c), 1e-12)
            cos_cap = float(np.min(emb @ c))
        else:
            c = np.zeros(1)
            cos_cap = 1.0
        return pa.table({
            "ids": pa.array([ids.astype("<i8").tobytes()], pa.binary()),
            "mat": pa.array([np.ascontiguousarray(emb, dtype="<f8")
                             .tobytes()], pa.binary()),
            "dim": pa.array([emb.shape[1] if emb.size else 0], pa.int64()),
            "centroid": pa.array([np.ascontiguousarray(c, dtype="<f8")
                                  .tobytes()], pa.binary()),
            "cos_cap": pa.array([cos_cap], pa.float64()),
        })

    packed = unreserved(ds.map_batches(pack, batch_format="pyarrow",
                                       batch_size=block_rows).materialize())
    n_blocks = packed.count()
    empty_pairs = pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
        "cosine": pa.array([], pa.float64())})
    if n_blocks == 0:
        return unreserved(rd.from_arrow(empty_pairs))

    # hierarchical gate (round-3 verdict item): blocks group into ~sqrt(B)
    # tables; each table segments its consecutive (direction-sorted)
    # blocks into CONES whose merged cap stays under a budget, so cone
    # summaries are directionally tight regardless of how cluster size
    # compares to the fixed group size. The driver gates cone pairs
    # (#cones adapts: ~#clusters on clustered data, up to B on isotropic
    # data — where an exact threshold join cannot beat all-pairs anyway)
    # and descends into member blocks only for SURVIVING cone pairs.
    # Member summaries stay in the object store (no per-block driver
    # refs) and are fetched per table on first survival.
    n_groups = int(np.clip(round(np.sqrt(n_blocks)), 1, n_blocks))
    packed = unreserved(packed.repartition(n_groups).materialize())
    table_refs = packed.to_arrow_refs()

    @ray.remote(num_returns=2)
    def summarize(tbl: pa.Table):
        """small: (table cone centroid, cap angle, n); big: per-block
        member (centroids, caps) — fetched only when the table survives
        a gate at some level."""
        n = tbl.num_rows
        if n == 0:
            return (None, 0.0, 0), (None, None)
        cents = np.frombuffer(b"".join(tbl["centroid"].to_pylist()),
                              dtype="<f8").reshape(n, -1)
        caps = np.arccos(np.clip(np.asarray(
            tbl["cos_cap"].to_numpy(zero_copy_only=False)), -1.0, 1.0))
        c, cap = _merge_cone(cents, caps, 0, n)
        return (c, cap, n), (cents, caps)

    sum_refs = [summarize.remote(ref) for ref in table_refs]
    small = ray.get([r[0] for r in sum_refs])
    member_refs = [r[1] for r in sum_refs]
    live = [t for t, (c, _, n) in enumerate(small) if n > 0]
    if not live:
        return unreserved(rd.from_arrow(empty_pairs))

    pair_items = []
    mem_cache: dict[int, tuple] = {}
    gate_stats = {"blocks": int(n_blocks), "groups": len(live),
                  "super_pairs_checked": 0, "super_pairs_kept": 0,
                  "member_pairs_checked": 0}

    def members(t: int):
        if t not in mem_cache:
            mem_cache[t] = ray.get(member_refs[t])
        return mem_cache[t]

    def bound_ok(c1, k1, c2, k2) -> bool:
        theta = float(np.arccos(np.clip(c1 @ c2, -1.0, 1.0)))
        return np.cos(max(theta - k1 - k2, 0.0)) >= threshold

    def leaf(ta, loa, hia, tb, lob, hib, same):
        ca, capa = members(ta)
        cb, capb = members(tb)
        gate_stats["member_pairs_checked"] += (hia - loa) * (hib - lob)
        theta = np.arccos(np.clip(
            ca[loa:hia] @ cb[lob:hib].T, -1.0, 1.0))
        bm = np.cos(np.maximum(
            theta - capa[loa:hia, None] - capb[None, lob:hib],
            0.0)) >= threshold
        if same:
            bm = np.triu(bm)
        for ri, rj in zip(*np.nonzero(bm)):
            pair_items.append({"sa": ta, "ra": int(loa + ri),
                               "sb": tb, "rb": int(lob + rj)})

    def descend(ta, loa, hia, tb, lob, hib, depth, same):
        """Recursive cone descend: segment both ranges at geometrically
        shrinking cap budgets, gate segment cross pairs, recurse into
        survivors; direct member check at the leaves. Adapts to ANY
        cluster spread (a fixed budget degenerates to one-cone-per-block
        or one-cone-per-table whenever spread straddles it)."""
        if (hia - loa) * (hib - lob) <= _GATE_LEAF_PAIRS or \
                depth >= len(_GATE_BUDGETS):
            leaf(ta, loa, hia, tb, lob, hib, same)
            return
        ca, capa = members(ta)
        cb, capb = members(tb)
        segs_a = _segment_cones(ca, capa, loa, hia, _GATE_BUDGETS[depth])
        segs_b = segs_a if same else _segment_cones(
            cb, capb, lob, hib, _GATE_BUDGETS[depth])
        if len(segs_a) == 1 and len(segs_b) == 1:
            descend(ta, loa, hia, tb, lob, hib, depth + 1, same)
            return
        for ia_, (c1, k1, l1, h1) in enumerate(segs_a):
            for ib_, (c2, k2, l2, h2) in enumerate(segs_b):
                if same and ib_ < ia_:
                    continue
                gate_stats["super_pairs_checked"] += 1
                if bound_ok(c1, k1, c2, k2):
                    gate_stats["super_pairs_kept"] += 1
                    descend(ta, l1, h1, tb, l2, h2, depth + 1,
                            same and ia_ == ib_)

    for xi, s in enumerate(live):  # table-level cones gate first
        c1, k1, n1 = small[s]
        for t in live[xi:]:
            c2, k2, n2 = small[t]
            gate_stats["super_pairs_checked"] += 1
            if bound_ok(c1, k1, c2, k2):
                gate_stats["super_pairs_kept"] += 1
                descend(s, 0, n1, t, 0, n2, 0, s == t)
    gate_stats["block_pairs_kept"] = len(pair_items)
    global _LAST_GATE_STATS
    _LAST_GATE_STATS = gate_stats
    if not pair_items:
        return unreserved(rd.from_arrow(empty_pairs))

    def _row_block(tbl: pa.Table, r: int):
        ids = np.frombuffer(tbl["ids"][r].as_py(), dtype="<i8")
        dim = tbl["dim"][r].as_py()
        mat = np.frombuffer(tbl["mat"][r].as_py(),
                            dtype="<f8").reshape(-1, max(dim, 1))
        return ids, mat

    def compute(batch) -> pa.Table:
        a_out, b_out, c_out = [], [], []
        tbl_cache: dict[int, pa.Table] = {}

        def tbl(t: int) -> pa.Table:
            if t not in tbl_cache:  # zero-copy plasma read, once per task
                tbl_cache[t] = ray.get(table_refs[t])
            return tbl_cache[t]

        for sa, ra, sb, rb in zip(batch["sa"], batch["ra"],
                                  batch["sb"], batch["rb"]):
            ids_a, mat_a = _row_block(tbl(int(sa)), int(ra))
            ids_b, mat_b = _row_block(tbl(int(sb)), int(rb))
            sim = mat_a @ mat_b.T
            ai, bi = np.nonzero(sim >= threshold)
            # lsh_sort permutes ids across blocks, so emit (min, max)
            # rather than assuming block order == id order; a same-block
            # pair appears twice in the symmetric matrix -> keep one
            ia, ib = ids_a[ai], ids_b[bi]
            same = int(sa) == int(sb) and int(ra) == int(rb)
            keep = (ia < ib) if same else (ia != ib)
            a_out.append(np.minimum(ia, ib)[keep])
            b_out.append(np.maximum(ia, ib)[keep])
            c_out.append(np.round(sim[ai, bi][keep], 6))
        a = np.concatenate(a_out) if a_out else np.empty(0, np.int64)
        b = np.concatenate(b_out) if b_out else np.empty(0, np.int64)
        c = np.concatenate(c_out) if c_out else np.empty(0)
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64()),
                         "cosine": pa.array(c, pa.float64())})

    pairs = unreserved(rd.from_items(pair_items))
    if len(pair_items) > 1:
        pairs = pairs.repartition(min(len(pair_items), 256))
    return pairs.map_batches(compute, batch_format="numpy")


# ---------------------------------------------------------------------------
# near-dup cluster + keep-best representative
# ---------------------------------------------------------------------------

def near_dup_keep_best(ds, id_col: str = "doc_id", text_col: str = "text",
                       threshold: float = 0.5, num_partitions: int = 8,
                       **minhash_kwargs):
    """Near-dup collapse with quality-based representative selection —
    the full production dedup shape (RefinedWeb/Dolma keep the "best"
    cluster member, not the lowest id): :func:`minhash_dedup` labels
    every doc with its cluster (``dup_of``), each doc is scored by
    :func:`pyrosm_ray.stages.text.quality_score`, and one keyed groupby
    keeps the top-scoring doc per cluster (ties break ascending id via
    :func:`pyrosm_ray.stages.sampling.topk_per_group`).

    All three legs are existing scale-path operators — the composition
    adds one hash join (labels x scores on id) and one grouped top-1; no
    new driver state. Returns survivors: ``(doc_id, dup_of,
    quality_score)``, one row per cluster."""
    from pyrosm_ray.stages.sampling import topk_per_group
    from pyrosm_ray.stages.text import quality_score

    labels = minhash_dedup(ds, id_col=id_col, text_col=text_col,
                           threshold=threshold, **minhash_kwargs)
    scores = quality_score(ds, text_col=text_col).map_batches(
        lambda b: b.select([id_col, "quality_score"]),
        batch_format="pyarrow")
    joined = co_join(labels, scores, id_col,
                     num_partitions or groupby_partitions(),
                     pa.table({id_col: pa.array([], pa.int64()),
                               "dup_of": pa.array([], pa.int64()),
                               "quality_score": pa.array([], pa.float64())}))
    best = topk_per_group(joined, "dup_of", "quality_score", k=1,
                          id_col=id_col)
    return best.map_batches(
        lambda b: b.select([id_col, "dup_of", "quality_score"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# cross-snapshot incremental dedup
# ---------------------------------------------------------------------------

def _content_hash_tbl(batch: pa.Table, text_col: str,
                      id_col: str | None = None) -> pa.Table:
    """(hash64-of-normalised-content[, id]) rows; the id column is kept
    only when ``id_col`` is given (the reference side needs none)."""
    texts = batch[text_col].to_pylist()
    # int64 VIEW of the uint64 hash (uint64 keys fall back to pickled
    # objects inside Ray's hash-shuffle pandas round-trip)
    hs = stable64_many([" ".join((t or "").lower().split())
                        for t in texts]).view(np.int64)
    cols = {"__h": pa.array(hs, pa.int64())}
    if id_col is not None:
        cols[id_col] = batch[id_col].cast(pa.int64())
    return pa.table(cols)


# ---- Bloom membership filter (sketch-proposed, exact-output) --------------
#
# The bloom's job in incremental_dedup is map-side shuffle suppression on
# the 100-TB reference side: a bit miss PROVES non-membership (no false
# negatives), so reference hash rows whose hash cannot match any new-doc
# candidate are dropped before the all-to-all; survivors go through the
# same exact fold as the base route, so the OUTPUT is bit-identical.

_BLOOM_MIX = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 golden-ratio odd


def _bloom_params(n_items: int, bits_per_item: int = 10):
    """Power-of-two bit count (cheap masking) + the optimal k = ln2·m/n,
    capped at 8 probes. 10 bits/item ≈ 1% false-positive rate."""
    m = 1 << max(14, int(np.ceil(np.log2(max(n_items, 1)
                                         * bits_per_item))))
    k = max(1, min(8, int(round(0.693 * m / max(n_items, 1)))))
    return m, k


def _bloom_positions(h: np.ndarray, m: int, k: int) -> np.ndarray:
    """(k, n) bit positions via double hashing (Kirsch-Mitzenmacher):
    pos_i = h1 + i*h2 mod m, h2 forced odd so probes cycle the table."""
    h1 = h.view(np.uint64) if h.dtype == np.int64 else h
    h2 = (h1 * _BLOOM_MIX) | np.uint64(1)
    mask = np.uint64(m - 1)
    return np.stack([(h1 + np.uint64(i) * h2) & mask for i in range(k)])


def bloom_build(hash_ds, m: int, k: int, col: str = "__h") -> np.ndarray:
    """Bitmap (uint64 words) over a Dataset of int64 hashes: map-only
    per-block partial bitmaps OR-folded on the driver one at a time
    (streamed — never all partials resident). m/8 bytes of driver state;
    no shuffle."""
    nwords = m // 64

    def part(b: pa.Table) -> pa.Table:
        words = np.zeros(nwords, np.uint64)
        if b.num_rows:
            pos = _bloom_positions(np.asarray(
                b[col].to_numpy(zero_copy_only=False), np.int64), m, k)
            np.bitwise_or.at(words, (pos >> np.uint64(6)).ravel()
                             .astype(np.int64),
                             np.uint64(1) << (pos.ravel() & np.uint64(63)))
        return pa.table({"w": pa.array([words.tobytes()], pa.binary())})

    agg = np.zeros(nwords, np.uint64)
    for batch in hash_ds.map_batches(part, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for blob in batch["w"].to_pylist():
            agg |= np.frombuffer(blob, np.uint64)
    return agg


def _bloom_hits(h: np.ndarray, words: np.ndarray, m: int,
                k: int) -> np.ndarray:
    """Boolean mask: all k probed bits set (possible member)."""
    pos = _bloom_positions(np.asarray(h, np.int64), m, k)
    bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))) & np.uint64(1)
    return bits.all(axis=0)


def _bloom_filter_ds(hash_ds, words_ref, m: int, k: int, keep_hits: bool):
    """Map-side bloom filter over a (hash, id) Dataset; the bitmap ships
    once via ray.put and is read zero-copy in every task."""
    def f(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        words = ray.get(words_ref)
        hit = _bloom_hits(
            b["__h"].to_numpy(zero_copy_only=False), words, m, k)
        return b.filter(pa.array(hit if keep_hits else ~hit))
    return hash_ds.map_batches(f, batch_format="pyarrow")


KEEP_BROADCAST_MAX = 1 << 22  # survivor-id broadcast ceiling (32 MB)


def incremental_dedup(new_ds, ref_ds, id_col: str = "doc_id",
                      text_col: str = "text",
                      num_partitions: int | None = None,
                      bloom_bits_per_item: int = 0):
    """Cross-snapshot ingest dedup: keep a NEW document iff its
    normalised content (lower + whitespace collapse) appears in neither
    the REFERENCE corpus nor an earlier new doc (min-id wins within the
    snapshot — :func:`exact_dedup` semantics).

    The shape that holds when the reference corpus is the 100-TB side:
    only (hash, id) pairs shuffle — content never moves — and the
    reference reduces to bare hash rows; one two-sided fold on the hash
    (new rows, reference rows) runs the decision once per PARTITION: one
    C-level groupby-min over the new rows, minus the hashes the
    reference side holds, not once per distinct hash; winners re-select
    their full rows by a distributed semi-join (no driver keep-set, no
    broadcast of the big side).

    ``bloom_bits_per_item > 0`` adds the map-side Bloom prefilter (see
    module note above): the reference side is scanned twice map-only —
    once to build its bitmap, once filtered against the NEW-candidate
    bitmap — but contributes only ~fpp of its rows to the all-to-all
    instead of all of them. Output is bit-identical to the base route
    (parity-pinned); the bitmaps broadcast once (m/8 bytes, sized by
    ``_bloom_params``), which is the route's documented ceiling."""
    new_h = new_ds.map_batches(
        lambda b: _content_hash_tbl(b, text_col, id_col),
        batch_format="pyarrow")
    ref_h = ref_ds.map_batches(
        lambda b: _content_hash_tbl(b, text_col), batch_format="pyarrow")

    if bloom_bits_per_item > 0:
        # pass 1 (map-only): candidate hashes = new docs possibly in ref
        new_h = unreserved(new_h.materialize())
        n_new = new_h.count()
        mr, kr = _bloom_params(max(ref_ds.count(), 1),
                               bloom_bits_per_item)
        ref_words = ray.put(bloom_build(ref_h, mr, kr))
        cand_h = unreserved(_bloom_filter_ds(new_h, ref_words, mr, kr,
                                             keep_hits=True).materialize())
        # pass 2 (map-only): reference rows that can touch a candidate
        mc, kc = _bloom_params(max(n_new, 1), bloom_bits_per_item)
        cand_words = ray.put(bloom_build(cand_h, mc, kc))
        ref_h = _bloom_filter_ds(ref_h, cand_words, mc, kc,
                                 keep_hits=True)

    def pick(new: pa.Table, ref: pa.Table) -> pa.Table | None:
        import pandas as pd
        if not new.num_rows:
            return None
        m = pd.Series(new[id_col].to_numpy(zero_copy_only=False)).groupby(
            new["__h"].to_numpy(zero_copy_only=False), sort=False).min()
        if ref.num_rows:
            m = m[~m.index.isin(ref["__h"].to_numpy(zero_copy_only=False))]
        return pa.table({id_col: pa.array(m.to_numpy(np.int64), pa.int64())})

    keep_empty = pa.table({id_col: pa.array([], pa.int64())})
    keep = fold((new_h, ref_h), "__h", pick, num_partitions, keep_empty)
    # winner re-select: the keep set is ids-only (8 B/row, already an
    # all-to-all output), so materialize it and gate on ITS size — up
    # to KEEP_BROADCAST_MAX ids (<=32 MB) the survivors broadcast once
    # and the re-select is a map-only searchsorted filter; past that
    # the distributed hash semi-join below is the contract (no driver
    # keep-set). No survivors also takes the semi-join, which types its
    # zero-row result from ``new_ds``'s blocks.
    keep = unreserved(keep.materialize())
    if 0 < keep.count() <= KEEP_BROADCAST_MAX:
        ids_ref = ray.put(np.sort(np.concatenate([
            np.asarray(t[id_col].to_numpy(zero_copy_only=False), np.int64)
            for t in map(ray.get, keep.to_arrow_refs())])))

        def keep_filter(b: pa.Table) -> pa.Table:
            arr = ray.get(ids_ref)
            v = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                           np.int64)
            pos = np.searchsorted(arr, v)
            m = (pos < len(arr)) & (arr[np.minimum(pos, len(arr) - 1)]
                                    == v)
            return b.filter(pa.array(m))

        return new_ds.map_batches(keep_filter, batch_format="pyarrow")
    return co_join(new_ds, keep, id_col, num_partitions, None)


# ---------------------------------------------------------------------------
# line-level dedup (C4 / CCNet / RefinedWeb boilerplate rule)
# ---------------------------------------------------------------------------

_ORD_BITS = 20  # per-document line-count ceiling: 2^20 lines


def _explode_lines(batch: pa.Table, id_col: str, text_col: str,
                   delim: str, carry_cols: list[str]) -> pa.Table:
    """One row per (doc, line): id, __line, __ord (1-based position),
    __ordkey = (id << 20) | ord — the globally unique total-order key —
    plus ``carry_cols`` replicated onto each line row."""
    texts = pc.fill_null(batch[text_col], "").combine_chunks()
    parts = pc.split_pattern(texts, delim)
    flat = pc.list_flatten(parts)
    parent = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    counts = pc.list_value_length(parts).to_numpy(
        zero_copy_only=False).astype(np.int64)
    if counts.max(initial=0) >= (1 << _ORD_BITS):
        raise ValueError("line_dedup: a document exceeds 2^20 lines")
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:] if len(counts) else starts[:0])
    ordv = np.arange(len(flat), dtype=np.int64) - starts[parent] + 1
    ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    cols: dict = {
        id_col: pa.array(ids[parent], pa.int64()),
        "__line": flat,
        "__ord": pa.array(ordv, pa.int64()),
        "__ordkey": pa.array(
            (ids[parent] << _ORD_BITS) + ordv, pa.int64()),
    }
    take = pa.array(parent)
    for c in carry_cols:
        cols[c] = batch[c].combine_chunks().take(take)
    return pa.table(cols)


def _reassemble_lines(group: pa.Table, id_col: str, delim: str,
                      out_col: str, carry_cols: list[str]) -> pa.Table:
    """Rebuild per-doc text from surviving lines — fully vectorised:
    lexsort by (id, ord), doc boundaries -> offset-sliced ListArray,
    one ``binary_join`` call. No per-document Python."""
    empty = {c: pa.array([], pa.string()) for c in carry_cols}
    empty[id_col] = pa.array([], pa.int64())
    empty[out_col] = pa.array([], pa.string())
    empty["n_lines"] = pa.array([], pa.int64())
    if group.num_rows == 0:
        return pa.table(empty)
    ids = np.asarray(group[id_col].to_numpy(zero_copy_only=False), np.int64)
    ordv = np.asarray(group["__ord"].to_numpy(zero_copy_only=False),
                      np.int64)
    order = np.lexsort((ordv, ids))
    take = pa.array(order)
    lines = group["__line"].combine_chunks().take(take)
    ids_s = ids[order]
    bounds = np.flatnonzero(np.diff(ids_s)) + 1
    doc_first = np.concatenate(([0], bounds)).astype(np.int64)
    offsets = np.concatenate((doc_first, [len(ids_s)])).astype(np.int32)
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), lines),
        delim)
    cols: dict = {}
    first_take = pa.array(order[doc_first])
    for c in carry_cols:
        cols[c] = group[c].combine_chunks().take(first_take)
    cols[id_col] = pa.array(ids_s[doc_first], pa.int64())
    cols[out_col] = joined
    cols["n_lines"] = pa.array(np.diff(offsets).astype(np.int64),
                               pa.int64())
    return pa.table(cols)


def line_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
               delim: str = ". ", out_col: str = "text_dedup",
               carry_cols=(), num_partitions: int | None = None,
               shuffle_key: str = "hash"):
    """Corpus-wide line-level dedup — the C4 / CCNet / RefinedWeb
    boilerplate rule: split ``text_col`` on ``delim``, keep ONLY the
    globally first occurrence (order = (doc id, line position)) of every
    distinct line, drop all later occurrences (including repeats within
    one document), reassemble each document's surviving lines in their
    original order. Documents whose every line is a later duplicate drop
    out entirely.

    Two routes, identical semantics (parity-pinned in tests):

    * ``shuffle_key="hash"`` (default — the 100-TB shape): the
      first-occurrence decision groups on the line's 128-bit md5
      (:func:`hashing.stable128_many`; collision odds ~2^-64 at 10^12
      distinct lines), so only three int64s per line cross the wire;
      line TEXT moves exactly once — survivors and exploded lines
      co-locate by doc id (a keep-key's doc IS its surviving doc:
      ``ordkey >> 20``) in ONE two-sided fold (lines, keep keys) whose
      per-partition pass is an ``np.isin`` + the vectorised
      reassembly.
    * ``shuffle_key="line"``: groups on the raw line string — exact with
      no hash caveat, at the cost of shuffling text in the groupby and
      the survivor join. The bit-replicable oracle route.

    Everything else is shared: stateless vectorised explode (CSR
    positions, no Python loops), the unique int64 ``(id << 20) | pos``
    total-order key, reassembly via lexsort + offset-sliced ListArray +
    ``binary_join``. Contract: ids in [0, 2^43), < 2^20 lines/doc,
    ``carry_cols`` string-typed.
    """
    carry_cols = list(carry_cols)
    if shuffle_key == "hash":
        return _line_dedup_hash(ds, id_col, text_col, delim, out_col,
                                carry_cols, num_partitions)
    if shuffle_key != "line":
        raise ValueError(f"shuffle_key must be 'hash' or 'line', "
                         f"got {shuffle_key!r}")
    # materialized: the keep fold and the survivor join both read it, and
    # the upstream plan and the explode run once
    ex = unreserved(ds.map_batches(
        lambda b: _explode_lines(b, id_col, text_col, delim, carry_cols),
        batch_format="pyarrow").materialize())

    # first-occurrence decision: fold on the LINE (all copies of a line
    # co-locate), one in-partition pandas groupby on the raw string —
    # exact even under hash collision
    def fold_first(g: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "line": g["__line"].to_pylist(),
            "k": g["__ordkey"].to_numpy(zero_copy_only=False)})
        m = df.groupby("line", sort=False)["k"].min()
        return pa.table({"__ordkey": pa.array(m.to_numpy(np.int64))})

    keep_empty = pa.table({"__ordkey": pa.array([], pa.int64())})
    keep = fold(ex.select_columns(["__line", "__ordkey"]), "__line",
                fold_first, num_partitions, keep_empty)
    # an empty input leaves no keys, so the reassembly below sees no rows
    surv = co_join(ex, keep, "__ordkey", num_partitions, keep_empty)
    return fold(surv, id_col, lambda g: _reassemble_lines(
        g, id_col, delim, out_col, carry_cols), num_partitions,
        _reassemble_lines(pa.table({}), id_col, delim, out_col, carry_cols))


def _line_dedup_hash(ds, id_col: str, text_col: str, delim: str,
                     out_col: str, carry_cols: list[str],
                     num_partitions: int | None):
    """Hash-keyed route: ints decide, text moves once (see line_dedup)."""
    from pyrosm_ray.stages.hashing import stable128_many

    def explode_hashed(batch: pa.Table) -> pa.Table:
        ex = _explode_lines(batch, id_col, text_col, delim, carry_cols)
        lo, hi = stable128_many(ex["__line"].to_pylist())
        return ex.append_column("__h1", pa.array(lo.view(np.int64))) \
                 .append_column("__h2", pa.array(hi.view(np.int64)))

    # materialized: the keep fold and the survivor fold both read it, and
    # the upstream plan, the explode and the hashing run once
    ex = unreserved(ds.map_batches(explode_hashed,
                                   batch_format="pyarrow").materialize())

    def fold_first(g: pa.Table) -> pa.Table:
        # a keep-key's doc IS the doc that keeps the line, so the keep
        # row carries that doc's id and folds with its lines
        import pandas as pd
        df = pd.DataFrame({
            "h1": g["__h1"].to_numpy(zero_copy_only=False),
            "h2": g["__h2"].to_numpy(zero_copy_only=False),
            "k": g["__ordkey"].to_numpy(zero_copy_only=False)})
        k = df.groupby(["h1", "h2"], sort=False)["k"].min() \
            .to_numpy(np.int64)
        return pa.table({"__ordkey": pa.array(k),
                         id_col: pa.array(k >> _ORD_BITS, pa.int64())})

    keys = ["__h1", "__h2", "__ordkey"]
    keep = fold(ex.select_columns(keys), ["__h1", "__h2"], fold_first,
                num_partitions, pa.table({
                    "__ordkey": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64())}))
    cols = [id_col, "__ord", "__line"] + carry_cols

    def survivors(rows: pa.Table, kept: pa.Table) -> pa.Table | None:
        if not rows.num_rows or not kept.num_rows:
            return None
        hit = np.isin(
            np.asarray(rows["__ordkey"].to_numpy(zero_copy_only=False),
                       np.int64),
            np.asarray(kept["__ordkey"].to_numpy(zero_copy_only=False),
                       np.int64))
        return _reassemble_lines(rows.filter(pa.array(hit)).select(cols),
                                 id_col, delim, out_col, carry_cols)

    return fold((ex.select_columns(cols + ["__ordkey"]), keep), id_col,
                survivors, num_partitions, _reassemble_lines(
                    pa.table({}), id_col, delim, out_col, carry_cols))


# ---------------------------------------------------------------------------
# SemDeDup — semantic dedup via cluster-then-prune (Abbas et al. 2023)
# ---------------------------------------------------------------------------

def semantic_dedup(ds, n_clusters: int = 8, threshold: float = 0.4,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   fit_iters: int = 0):
    """Cluster embeddings, then drop within-cluster near-duplicates.

    The SemDeDup shape: a coarse clustering makes the O(n^2) pairwise
    cosine tractable by confining it to clusters (~n/k rows each); within
    a cluster a row is dropped iff some LOWER-id row of the same cluster
    has cosine >= ``threshold`` (the same pair rule as
    :func:`embedding_near_dup`, so the survivor set is the min-id star
    cover of the near-dup graph restricted to clusters).

    ``fit_iters=0`` uses the k lowest-id vectors directly as fixed
    centroids — fully deterministic and SQL-expressible (the driver
    oracle). ``fit_iters>0`` runs :func:`similarity.kmeans_fit`
    (distributed spherical Lloyd's) first — the production path, pinned
    by a numpy-twin pytest instead of SQL.

    Scale contract: one broadcast of k x d centroids, one exchange on
    ``cluster``, one O(g^2) float64 matmul per group (one cluster's rows
    fit a worker — size k to the corpus as SemDeDup does). Returns
    (id, cluster) survivors.
    """
    from pyrosm_ray.stages.similarity import assign_clusters, kmeans_fit, \
        lowest_id_vectors

    # the input feeds seed selection + every Lloyd's pass + the assign
    # pass + the prune shuffle: materialize once instead of re-running
    # the read plan per pass
    ds = unreserved(ds.materialize())
    if fit_iters > 0:
        centers = kmeans_fit(ds, n_clusters, iters=fit_iters,
                             id_col=id_col, emb_col=emb_col)
    else:
        centers = lowest_id_vectors(ds, n_clusters, id_col, emb_col)
    assigned = assign_clusters(ds, centers, id_col, emb_col)

    def prune(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.argsort(ids, kind="stable")
        emb = _emb_matrix(g, emb_col)[order]
        nrm = np.maximum(np.linalg.norm(emb, axis=1), 1e-12)
        cos = (emb @ emb.T) / np.outer(nrm, nrm)
        # row i dropped iff any earlier (lower-id) row is >= threshold
        drop = (np.tril(cos >= threshold, k=-1)).any(axis=1)
        keep_ids = ids[order][~drop]
        return pa.table({
            id_col: pa.array(keep_ids, pa.int64()),
            "cluster": pa.array(
                np.full(len(keep_ids),
                        int(g["cluster"][0].as_py()) if len(g) else 0),
                pa.int64()),
        })

    return exchange(assigned, "cluster", prune,
                    groupby_partitions(n_clusters),
                    pa.table({id_col: pa.array([], pa.int64()),
                              "cluster": pa.array([], pa.int64())}))


def semantic_dedup_sql(emb_table: str = "embeddings",
                       n_clusters: int = 8,
                       threshold: float = 0.4) -> str:
    """DuckDB twin of :func:`semantic_dedup` with ``fit_iters=0``."""
    cos_xs = ("list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
              "CAST(s.embedding AS DOUBLE[]))")
    cos_xy = ("list_cosine_similarity(CAST(x.embedding AS DOUBLE[]), "
              "CAST(y.embedding AS DOUBLE[]))")
    return f"""
        WITH seeds AS (SELECT vec_id, embedding,
                              ROW_NUMBER() OVER (ORDER BY vec_id) - 1
                                  AS seed_rank
                       FROM {emb_table} ORDER BY vec_id
                       LIMIT {n_clusters}),
        assign AS (SELECT e.vec_id, e.embedding, s.seed_rank,
                          ROW_NUMBER() OVER (PARTITION BY e.vec_id
                              ORDER BY {cos_xs} DESC, s.seed_rank ASC)
                              AS rn
                   FROM {emb_table} e CROSS JOIN seeds s),
        a AS (SELECT vec_id, embedding, seed_rank AS cluster
              FROM assign WHERE rn = 1)
        SELECT x.vec_id, x.cluster FROM a x
        WHERE NOT EXISTS (SELECT 1 FROM a y
                          WHERE y.cluster = x.cluster
                            AND y.vec_id < x.vec_id
                            AND {cos_xy} >= {threshold})
        ORDER BY x.vec_id"""


# ---------------------------------------------------------------------------
# cross-snapshot diff report
# ---------------------------------------------------------------------------

def snapshot_diff(old_ds, new_ds, id_col: str = "doc_id",
                  text_col: str = "text",
                  num_partitions: int | None = None):
    """Per-id diff between two corpus snapshots — the crawl-over-crawl
    report a recurring ingest runs before deciding what to reprocess:
    ``status`` ∈ {added, removed, changed, same} per document id.

    Scale shape (the :func:`incremental_dedup` contract): each side
    reduces in ONE stateless pass to (id, 128-bit content key) rows —
    text never shuffles — then one two-sided fold on the id
    (:func:`pyrosm_ray.stages.blocks.fold`) decides every id's status
    with one full outer join per partition. Each upstream plan runs
    once.
    Ids are unique per snapshot (the document-key contract). The DuckDB
    twin is the FULL OUTER JOIN with a raw text-equality CASE; md5-128
    collisions are below the birthday bound at any corpus size, so the
    hash compare and the text compare agree.

    Output: ``(doc_id, status)``, one row per id in either snapshot.
    """
    from pyrosm_ray.stages.hashing import stable128_many

    def keyed(b: pa.Table) -> pa.Table:
        lo, hi = stable128_many(b[text_col].to_pylist())
        return pa.table({"id": b[id_col].cast(pa.int64()),
                         "lo": pa.array(lo.view(np.int64), pa.int64()),
                         "hi": pa.array(hi.view(np.int64), pa.int64())})

    def status(old: pa.Table, new: pa.Table) -> pa.Table:
        if not old.num_rows or not new.num_rows:
            one = old if old.num_rows else new
            return pa.table({id_col: one["id"], "status": pa.array(
                ["removed" if old.num_rows else "added"] * one.num_rows,
                pa.string())})
        j = old.join(new, "id", join_type="full outer", left_suffix="_o",
                     right_suffix="_n")
        in_old = j["lo_o"].is_valid()
        in_new = j["lo_n"].is_valid()
        same = pc.and_(pc.equal(j["lo_o"], j["lo_n"]),
                       pc.equal(j["hi_o"], j["hi_n"]))
        return pa.table({id_col: j["id"], "status": pc.if_else(
            pc.invert(in_old), "added", pc.if_else(
                pc.invert(in_new), "removed",
                pc.if_else(same, "same", "changed")))})

    return fold((old_ds.map_batches(keyed, batch_format="pyarrow"),
                 new_ds.map_batches(keyed, batch_format="pyarrow")), "id",
                status, num_partitions, pa.table({
                    id_col: pa.array([], pa.int64()),
                    "status": pa.array([], pa.string())}))


def snapshot_diff_sql(old_sel: str, new_sel: str,
                      id_col: str = "doc_id",
                      text_col: str = "text") -> str:
    """DuckDB twin of :func:`snapshot_diff`: ``old_sel`` / ``new_sel``
    are SELECTs yielding (id, text)."""
    return f"""
        WITH o AS ({old_sel}), nn AS ({new_sel})
        SELECT COALESCE(o.{id_col}, nn.{id_col}) AS {id_col},
               CASE WHEN o.{id_col} IS NULL THEN 'added'
                    WHEN nn.{id_col} IS NULL THEN 'removed'
                    WHEN o.{text_col} = nn.{text_col} THEN 'same'
                    ELSE 'changed' END AS status
        FROM o FULL OUTER JOIN nn ON o.{id_col} = nn.{id_col}
        ORDER BY 1"""
