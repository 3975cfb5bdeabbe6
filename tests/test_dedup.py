"""Dedup family: hashing parity, distributed CC, completeness guarantees.

Each distributed operator is differentially tested against a brute-force
in-process oracle on small synthetic corpora (the driver's DuckDB oracle
does the same comparison value-for-value at sf0.01)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.stages import blocks, dedup
from pyrosm_ray.stages.components import attach_components, \
    connected_components
from pyrosm_ray.stages.hashing import combine3, hash64, hash64_sql, \
    hash64_sql_dynamic, md5_halves, stable64, stable64_many, to_int64, \
    to_int64_sql


# ---------------------------------------------------------------------------
# hashing parity vs DuckDB
# ---------------------------------------------------------------------------

def test_stable64_is_md5_number_lower():
    import duckdb
    con = duckdb.connect()
    for s in ["", "abc", "hello world", "Paäge"]:
        assert stable64(s) == con.execute(
            "SELECT md5_number_lower(?)", [s]).fetchone()[0]


def test_md5_halves_matches_stable64_and_duckdb():
    """``md5_halves`` reads each value's md5 off the Arrow buffers:
    ``hi`` equals ``stable64`` and DuckDB ``md5_number_lower``, ``lo``
    the digest's first 8 bytes, for plain, sliced, chunked and
    ``large_string`` columns; ``stable64_many`` agrees, and a null
    hashes as no string (it used to take the batch's last distinct string's
    hash)."""
    import hashlib

    import duckdb
    con = duckdb.connect()
    texts = [t for t in _EDGE_TEXTS if t is not None] + ["a", "a", "é"]
    want_hi = [con.execute("SELECT md5_number_lower(?)", [t]).fetchone()[0]
               for t in texts]
    want_lo = [int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                              "little") for t in texts]
    assert want_hi == [stable64(t) for t in texts]
    for name, col in _edge_columns(texts):
        lo, hi = md5_halves(col)
        assert lo.tolist() == want_lo and hi.tolist() == want_hi, name
        assert stable64_many(col).tolist() == want_hi, name
    withnull = pa.array(["x", None, "y", None], pa.string())
    lo, hi = md5_halves(withnull)
    assert hi.tolist() == [stable64("x"), 0, stable64("y"), 0]
    assert lo[[1, 3]].tolist() == [0, 0]
    for h in (stable64_many(withnull), stable64_many(withnull.to_pylist())):
        assert h.tolist() == [stable64("x"), 0, stable64("y"), 0]
    assert stable64_many([None, "y"]).tolist() == [0, stable64("y")]
    assert len(md5_halves(pa.array([], pa.string()))[0]) == 0
    assert stable64_many([]).tolist() == []


def test_hash64_sql_parity():
    import duckdb
    con = duckdb.connect()
    rng = np.random.default_rng(3)
    vals = np.concatenate([
        rng.integers(0, 1 << 63, 20, dtype=np.int64).astype(np.uint64),
        np.array([0, 1, (1 << 64) - 1, 1 << 63], dtype=np.uint64)])
    con.execute("CREATE TABLE t (v UBIGINT)")
    con.executemany("INSERT INTO t VALUES (?)",
                    [(int(v),) for v in vals])
    for seed in (1, 5, 64):
        got = np.array([r[0] for r in con.execute(
            f"SELECT {hash64_sql('v', seed)} FROM t").fetchall()],
            dtype=np.uint64)
        assert np.array_equal(got, hash64(vals, seed))
        got_dyn = np.array([r[0] for r in con.execute(
            f"SELECT {hash64_sql_dynamic('v', str(seed))} FROM t"
        ).fetchall()], dtype=np.uint64)
        assert np.array_equal(got_dyn, hash64(vals, seed))
    got = np.array([r[0] for r in con.execute(
        f"SELECT {to_int64_sql('v')} FROM t").fetchall()], dtype=np.int64)
    assert np.array_equal(got, to_int64(vals))


def test_popcount64():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 63, 100, dtype=np.int64).astype(np.uint64)
    expect = np.array([bin(int(v)).count("1") for v in x])
    assert np.array_equal(dedup.popcount64(x), expect)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def _uf_components(edges, nodes):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in nodes}


def test_connected_components_matches_union_find(ray_session):
    rng = np.random.default_rng(7)
    n = 200
    edges = [(int(a), int(b)) for a, b in
             rng.integers(0, n, size=(150, 2)) if a != b]
    eds = rd.from_arrow(pa.table({
        "a": pa.array([a for a, b in edges], pa.int64()),
        "b": pa.array([b for a, b in edges], pa.int64())}))
    labels = connected_components(eds).to_pandas()
    got = dict(zip(labels.node, labels.comp))
    nodes = {x for e in edges for x in e}
    expect = _uf_components(edges, nodes)
    assert got == expect


def test_connected_components_deep_chain(ray_session):
    """A path of 300 nodes has diameter 299 — plain min-propagation would
    need 299 rounds (the old max_iter=25 silently fragmented it); pointer
    doubling converges in O(log d) rounds and yields one component."""
    n = 300
    eds = rd.from_arrow(pa.table({
        "a": pa.array(list(range(n - 1)), pa.int64()),
        "b": pa.array(list(range(1, n)), pa.int64())}))
    labels = connected_components(eds).to_pandas()
    assert len(labels) == n
    assert set(labels.comp) == {0}


def test_attach_components_join_route_parity(ray_session, monkeypatch):
    """The distributed left-outer-join route of ``attach_components``
    (label map above ``ATTACH_BROADCAST_MAX``) attaches the same
    components as the broadcast route; ids without an edge map to
    themselves on both."""
    from pyrosm_ray.stages import components

    eds = rd.from_arrow(pa.table({"a": pa.array([1, 2, 10], pa.int64()),
                                  "b": pa.array([2, 3, 11], pa.int64())}))
    labels = connected_components(eds).materialize()
    ids = [1, 2, 3, 5, 10, 11, 12]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "x": pa.array(range(7), pa.int64())}))

    def attached():
        out = attach_components(ds, labels, "doc_id").to_pandas()
        return sorted(zip(out.doc_id, out.x, out.dup_of))

    broadcast = attached()
    monkeypatch.setattr(components, "ATTACH_BROADCAST_MAX", 0)
    assert attached() == broadcast == [
        (1, 0, 1), (2, 1, 1), (3, 2, 1), (5, 3, 5), (10, 4, 10),
        (11, 5, 10), (12, 6, 12)]


def test_attach_components_self_map(ray_session):
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64())}))
    out = attach_components(ds, None, "doc_id").to_pandas()
    assert list(out.dup_of) == [1, 2, 3]


# ---------------------------------------------------------------------------
# corpora helpers
# ---------------------------------------------------------------------------

def _corpus():
    """Small corpus with exact dups, near dups and unique docs."""
    base = ("the quick brown fox jumps over the lazy dog while the "
            "rain in spain stays mainly in the plain")
    docs = {
        1: base,
        2: base,                         # exact dup of 1
        3: base + " extra tail words appended here",   # near dup
        4: "completely different content about ray data pipelines "
           "and arrow record batches flowing through object stores",
        5: "short text",
        6: "  THE   quick brown fox jumps over the lazy dog while the "
           "rain in spain stays mainly in the plain  ",  # ws/case dup of 1
        7: "another unique document mentioning parquet row groups and "
           "hash partitioned shuffles with salted keys",
    }
    return pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.string()),
    })


def test_exact_dedup_semi_join(ray_session):
    ds = rd.from_arrow(_corpus())
    out = dedup.exact_dedup(ds).to_pandas().sort_values("doc_id")
    # 1==2==6 (after normalisation) -> keep 1; everything else survives
    assert list(out.doc_id) == [1, 3, 4, 5, 7]


def test_minhash_dedup_clusters(ray_session):
    ds = rd.from_arrow(_corpus())
    out = dedup.minhash_dedup(ds, threshold=0.5).to_pandas()
    m = dict(zip(out.doc_id, out.dup_of))
    assert m[1] == 1 and m[2] == 1 and m[6] == 1  # identical shingle sets
    assert m[4] == 4 and m[7] == 7                # singletons
    # near-dup doc 3 shares >50% of shingles with 1 -> same cluster
    j = _jaccard_words(3, 1)
    assert (m[3] == 1) == (j >= 0.5)


def test_minhash_dedup_path_parity(ray_session, monkeypatch):
    """Both routes — broadcast verify + driver union-find, and fully
    distributed (join verify + label-prop) — must produce identical
    dup_of labels."""
    ds = rd.from_arrow(_corpus())
    driver = dedup.minhash_dedup(ds, threshold=0.5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(dedup, "PAIRS_BROADCAST_MAX", 0)
    dist = dedup.minhash_dedup(ds, threshold=0.5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert driver[["doc_id", "dup_of"]].equals(dist[["doc_id", "dup_of"]])


def _jaccard_words(i, j, k=3):
    t = _corpus()
    txt = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    a = dedup._word_shingles(txt[i], k)
    b = dedup._word_shingles(txt[j], k)
    inter = len(np.intersect1d(a, b))
    return inter / (len(a) + len(b) - inter)


def test_simhash_pairs_complete(ray_session):
    """Banding must return EXACTLY the all-pairs Hamming-<=k answer."""
    ds = rd.from_arrow(_corpus())
    max_h = 12
    out = dedup.simhash_dedup(ds, max_hamming=max_h).to_pandas()
    got = {(a, b): h for a, b, h in
           zip(out.a, out.b, out.hamming)}
    # brute force
    t = _corpus()
    sims = dedup.simhash_batch(t, "doc_id", "text").to_pandas()
    sh = dict(zip(sims.doc_id, np.asarray(sims.simhash).astype(np.int64)
                  .view(np.uint64) if len(sims) else []))
    ids = sorted(sh)
    expect = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            h = int(dedup.popcount64(np.array([sh[a] ^ sh[b]],
                                              dtype=np.uint64))[0])
            if h <= max_h:
                expect[(a, b)] = h
    assert got == expect


def test_hamming_pairs_route_parity(ray_session, monkeypatch):
    """The broadcast-verify and the join-verify route must produce the
    identical pair set."""
    ds = rd.from_arrow(_corpus())
    sig = ds.map_batches(
        lambda b: dedup.simhash_batch(b, "doc_id", "text"),
        batch_format="pyarrow").materialize()

    def pairs():
        out = dedup.hamming_pairs(sig, id_col="doc_id",
                                  hash_col="simhash",
                                  max_hamming=12).to_pandas()
        return sorted(zip(out.a, out.b, out.hamming))

    fast = pairs()
    assert fast  # the corpus has near-dup pairs at this budget
    # past the broadcast-verify threshold (full join route)
    monkeypatch.setattr(dedup, "PAIRS_BROADCAST_MAX", 0)
    joined = pairs()
    assert fast == joined


def test_ngram_jaccard_prefix_filter_complete(ray_session):
    """Prefix filtering must return EXACTLY the all-pairs answer."""
    t = _corpus()
    thresh = 0.3
    ds = rd.from_arrow(t)
    out = dedup.ngram_jaccard_pairs(ds, threshold=thresh).to_pandas()
    got = {(a, b): round(j, 6) for a, b, j in
           zip(out.a, out.b, out.jaccard)}
    txt = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    grams = {i: dedup._char_ngrams(s) for i, s in txt.items()}
    ids = sorted(grams)
    expect = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(np.intersect1d(grams[a], grams[b],
                                       assume_unique=True))
            union = len(grams[a]) + len(grams[b]) - inter
            j = inter / union
            if j >= thresh:
                expect[(a, b)] = round(j, 6)
    assert got == expect


def test_embedding_near_dup_blockpairs(ray_session):
    rng = np.random.default_rng(11)
    n, d = 60, 8
    emb = rng.normal(size=(n, d))
    emb[10] = emb[3] + 0.01 * rng.normal(size=d)   # planted near-dup
    emb[25] = emb[14] * 1.7                        # scaled copy
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.array(list(emb))})
    ds = rd.from_arrow(t)
    # block_rows=16 forces a multi-block pair grid
    out = dedup.embedding_near_dup(ds, threshold=0.9,
                                   block_rows=16).to_pandas()
    got = {(a, b) for a, b in zip(out.a, out.b)}
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sim = m @ m.T
    ai, bi = np.nonzero(np.triu(sim >= 0.9, k=1))
    assert got == set(zip(ai.tolist(), bi.tolist()))
    assert (3, 10) in got and (14, 25) in got


def test_embedding_near_dup_lsh_gate_parity(ray_session):
    """LSH-sorted + cone-gated path returns exactly the ungated pair set
    (threshold join exactness is preserved by the sound bound)."""
    rng = np.random.default_rng(17)
    n, d = 120, 16
    centers = rng.normal(size=(4, d))
    emb = np.vstack([c + 0.15 * rng.normal(size=(n // 4, d))
                     for c in centers])
    perm = rng.permutation(n)
    emb = emb[perm]
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.array(list(emb))})
    for lsh in (False, True):
        out = dedup.embedding_near_dup(rd.from_arrow(t), threshold=0.85,
                                       block_rows=16,
                                       lsh_sort=lsh).to_pandas()
        got = {(a, b) for a, b in zip(out.a, out.b)}
        m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        ai, bi = np.nonzero(np.triu(m @ m.T >= 0.85, k=1))
        assert got == set(zip(ai.tolist(), bi.tolist())) and len(got) > 0


def test_embedding_near_dup_empty_block(ray_session):
    """A zero-row block in the input (a normal Ray Data occurrence after
    upstream filters) must not poison the cone gate with a dim-0 packed
    row (round-3 ADVICE regression)."""
    rng = np.random.default_rng(23)
    n, d = 40, 8
    emb = rng.normal(size=(n, d))
    emb[7] = emb[2] * 2.0
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.array(list(emb))})
    empty = t.slice(0, 0)
    ds = rd.from_arrow([t.slice(0, 20), empty, t.slice(20, 20)])
    out = dedup.embedding_near_dup(ds, threshold=0.9, block_rows=16,
                                   lsh_sort=False).to_pandas()
    got = {(a, b) for a, b in zip(out.a, out.b)}
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    ai, bi = np.nonzero(np.triu(m @ m.T >= 0.9, k=1))
    assert got == set(zip(ai.tolist(), bi.tolist()))
    assert (2, 7) in got


def test_jaccard_csr_kernel():
    """Vectorised verify kernel: exact vs per-pair intersect1d, including
    empty sets, identical sets, and values equal to the pad sentinel."""
    rng = np.random.default_rng(7)
    n_docs = 300
    # sorted-unique sets over a tiny value domain (lots of real overlap)
    rows = [np.unique(rng.integers(0, 50, rng.integers(0, 40)))
            .astype(np.uint64) for _ in range(n_docs)]
    rows[3] = np.array([1, 2, 2**64 - 1], np.uint64)   # sentinel member
    rows[4] = np.array([2, 2**64 - 1], np.uint64)
    lens = np.array([len(r) for r in rows], np.int64)
    off = np.zeros(n_docs + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    flat = (np.concatenate(rows) if off[-1] else np.empty(0, np.uint64))
    ia = rng.integers(0, n_docs, 2000)
    ib = rng.integers(0, n_docs, 2000)
    ia[:2] = [3, 3]
    ib[:2] = [4, 3]
    got = dedup._jaccard_csr(flat, off, ia, ib)
    for k in range(2000):
        sa, sb = rows[ia[k]], rows[ib[k]]
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        want = inter / union if union else 1.0
        assert abs(got[k] - want) < 1e-12, (k, got[k], want)


# edge texts for the signature and Jaccard kernels: no text, empty, one
# and two words (padded to one shingle), repeated shingles, non-ASCII
_EDGE_TEXTS = [None, "", "one", "two words", "a b c a b c a b c a b c",
               "the the the the the",
               "Straße café ÜBER naïve 東京 東京 東京 東京",
               "  spaced\tout \n words  here  ",
               # U+0130 and final sigma: str.lower and utf8_lower differ
               "İstanbul DİYARBAKIR İ", "ΣΑΣ ΟΔΟΣ ΣΑΣ", "OΣ σς",
               # str.split() whitespace beyond ASCII; U+200B is not
               "a\x1cb\x1dc\x1ed\x1fe", "nl\x85nb\xa0ls\u2028id\u3000sp",
               "zero\u200bwidth joins",
               "  leading words here", "trailing words here \t", " \t\n ",
               "\u3000\u2028\x85", "x y", " x "]


def _reference_shingle_hashes(texts, k: int = 3):
    """The parity reference: the word kernel as a Python loop over
    ``str.lower().split()`` with one md5 per word."""
    words_all, counts = [], []
    for text in texts:
        words = (text or "").lower().split()
        words += [""] * (k - len(words))
        words_all.extend(words)
        counts.append(len(words))
    h = np.array([stable64(w) for w in words_all], np.uint64)
    sh, start = [], 0
    for c in counts:
        w = h[start:start + c]
        sh.append(combine3(w[:-2], w[1:-1], w[2:]))
        start += c
    soff = np.zeros(len(counts) + 1, np.int64)
    np.cumsum([len(x) for x in sh], out=soff[1:])
    return np.concatenate(sh), soff


def _edge_columns(texts):
    """(name, the same texts as a plain, sliced, chunked or
    ``large_string`` column, or as a list)."""
    pad = ["pad  one", None]
    return [
        ("plain", pa.array(texts, pa.string())),
        ("sliced", pa.array(pad + texts + pad, pa.string())
         .slice(len(pad), len(texts))),
        ("chunked", pa.chunked_array([pa.array(texts[:5], pa.string()),
                                      pa.array([], pa.string()),
                                      pa.array(texts[5:], pa.string())])),
        ("large_string", pa.array(texts, pa.large_string())),
        ("list", texts),
    ]


def test_word_shingle_hashes_match_python_reference():
    """The Arrow word kernel equals the Python-loop reference on the
    edge set (Unicode case and whitespace, short and empty texts,
    nulls) in every column form, and on a random corpus."""
    corpus = _word_corpus(300)
    for texts, cols in ((_EDGE_TEXTS, _edge_columns(_EDGE_TEXTS)),
                        (corpus, [("corpus", pa.array(corpus))])):
        want_flat, want_off = _reference_shingle_hashes(texts)
        for name, col in cols:
            flat, off = dedup._word_shingle_hashes(col, 3)
            assert np.array_equal(off, want_off), name
            assert np.array_equal(flat, want_flat), name


def _word_corpus(n: int) -> list[str]:
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    return [" ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
            for _ in range(n)]


def _sig_table(texts) -> pa.Table:
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    return dedup.minhash_signatures_batch(t, "doc_id", "text", 64, 3)


def test_minhash_sig_bytes_pinned():
    """``sig`` bytes equal the per-document reference (min of each
    permutation over the sorted-unique shingle set) and the digests the
    shingle-payload kernel produced before signatures stopped deduping
    shingles; 5 000 documents cross the 2 048-document block bounds."""
    import hashlib

    for texts, digest in (
            (_EDGE_TEXTS, "d997f1812e9ea235f3f2fd129babd35f"
                          "dd19f53eb59bbc6722290dc94bd935df"),
            (_word_corpus(5000), "33f9bbf75718a06923d5ea191c96ce88"
                                 "8c40400d2f18901212de2e97bf175f2f")):
        out = _sig_table(texts)
        assert out.column_names == ["doc_id", "sig"]
        sigs = out["sig"].to_pylist()
        assert hashlib.sha256(b"".join(sigs)).hexdigest() == digest
        for i in [*range(len(_EDGE_TEXTS)), 2047, 2048, 2049, 4999]:
            if i < len(texts):
                sh = dedup._word_shingles(texts[i])
                want = np.array([hash64(sh, p + 1).min()
                                 for p in range(64)], "<u8").tobytes()
                assert sigs[i] == want, i


def test_text_jaccard_kernel_matches_packed_kernel():
    """The text kernel (shingle sets for the gathered rows only, one
    lexsort) scores exactly as the packed-shingle kernel."""
    texts = _EDGE_TEXTS + _word_corpus(400)
    rng = np.random.default_rng(5)
    ia = rng.integers(0, len(texts), 3000)
    ib = rng.integers(0, len(texts), 3000)
    ia[:len(_EDGE_TEXTS)] = np.arange(len(_EDGE_TEXTS))
    ib[:len(_EDGE_TEXTS)] = np.arange(len(_EDGE_TEXTS))[::-1]
    packed = pa.array([dedup._word_shingles(t).astype("<u8").tobytes()
                       for t in texts], pa.binary())
    for threshold in (0.0, 0.3, 0.8):
        keep_a, score_a = dedup._jaccard_kernel(threshold, packed, ia, ib)
        keep_b, score_b = dedup._text_jaccard_kernel(
            threshold, 3, pa.chunked_array([pa.array(texts, pa.string())]),
            ia, ib)
        assert np.array_equal(keep_a, keep_b)
        assert score_a["jaccard"].equals(score_b["jaccard"])
    e = np.empty(0, np.int64)
    keep, score = dedup._text_jaccard_kernel(0.8, 3, pa.array([]), e, e)
    assert len(keep) == 0 and len(score["jaccard"]) == 0


def test_embedding_near_dup_hierarchical_gate_subquadratic(ray_session):
    """On clustered data the driver gate checks far fewer bound entries
    than the flat B^2 grid (super-block descend), while the pair set stays
    exactly the brute-force answer."""
    rng = np.random.default_rng(29)
    n, d, n_clusters = 4096, 64, 8
    centers = np.eye(d)[:n_clusters]  # well-separated directions
    emb = np.vstack([c + 0.05 * rng.normal(size=(n // n_clusters, d))
                     for c in centers])
    emb = emb[rng.permutation(n)]
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.array(list(emb))})
    out = dedup.embedding_near_dup(rd.from_arrow(t), threshold=0.9,
                                   block_rows=32).to_pandas()
    got = {(a, b) for a, b in zip(out.a, out.b)}
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    ai, bi = np.nonzero(np.triu(m @ m.T >= 0.9, k=1))
    assert got == set(zip(ai.tolist(), bi.tolist())) and len(got) > 0
    st = dedup._LAST_GATE_STATS
    assert st is not None and st["blocks"] >= 60  # ~64 blocks
    flat_grid = st["blocks"] * (st["blocks"] + 1) // 2
    checked = st["super_pairs_checked"] + st["member_pairs_checked"]
    assert checked < flat_grid / 2, st


def test_near_dup_keep_best_picks_quality_not_min_id(ray_session):
    # three near-identical docs: the longest (highest quality_score) has
    # the HIGHEST id, so min-id selection would differ; plus a singleton
    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "away to the hills beyond the river")
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 9], pa.int64()),
        "text": pa.array([
            base,
            base + " again",
            base + " again and again and again with many more tokens "
                   "to push the length term of the quality score higher",
            "completely different singleton content here",
        ]),
    })
    out = dedup.near_dup_keep_best(rd.from_arrow(t), threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # docs 1-3 cluster (dup_of == 1); survivor is 3 (best quality), not 1
    assert list(out.doc_id) == [3, 9]
    assert list(out.dup_of) == [1, 9]
    from pyrosm_ray.stages.text import quality_score
    q = quality_score(rd.from_arrow(t)).to_pandas().set_index("doc_id")
    assert q.quality_score[3] == q.quality_score.loc[[1, 2, 3]].max()


def test_incremental_dedup_vs_reference_and_within(ray_session):
    # ref holds "alpha"; new has a ref-dup (5), an intra-new dup pair
    # (7 wins over 11 by min id), and a fresh doc (13)
    ref = pa.table({
        "doc_id": pa.array([0, 3], pa.int64()),
        "text": pa.array(["Alpha  content", "other ref content"]),
    })
    new = pa.table({
        "doc_id": pa.array([5, 7, 11, 13], pa.int64()),
        "text": pa.array([
            "alpha content",            # normalises to a ref dup
            "brand new thing",
            "brand  NEW thing",         # intra-new dup of 7
            "unique fresh doc",
        ]),
    })
    out = dedup.incremental_dedup(rd.from_arrow(new),
                                  rd.from_arrow(ref)).to_pandas()
    assert sorted(out.doc_id) == [7, 13]
    # full rows survive (text column re-selected by the semi-join)
    assert set(out.columns) >= {"doc_id", "text"}
    # bloom-prefiltered route: bit-identical output
    outb = dedup.incremental_dedup(rd.from_arrow(new),
                                   rd.from_arrow(ref),
                                   bloom_bits_per_item=10).to_pandas()
    assert sorted(outb.doc_id) == [7, 13]


def test_incremental_dedup_reselect_route_parity(ray_session,
                                                 monkeypatch):
    """Broadcast searchsorted re-select and the distributed semi-join
    keep identical survivor rows."""
    rng = np.random.default_rng(5)
    texts = [f"doc body {int(i)}" for i in rng.integers(0, 60, 120)]
    new = pa.table({"doc_id": pa.array(range(120), pa.int64()),
                    "text": pa.array(texts)})
    ref = pa.table({"doc_id": pa.array([900, 901], pa.int64()),
                    "text": pa.array(["doc body 0", "doc body 1"])})
    fast = dedup.incremental_dedup(rd.from_arrow(new),
                                   rd.from_arrow(ref)).to_pandas()
    monkeypatch.setattr(dedup, "KEEP_BROADCAST_MAX", 0)
    slow = dedup.incremental_dedup(rd.from_arrow(new),
                                   rd.from_arrow(ref)).to_pandas()
    assert len(fast) > 0
    assert sorted(fast.doc_id) == sorted(slow.doc_id)


def test_incremental_dedup_bloom_suppresses_ref_shuffle(ray_session):
    """The bloom's 100-TB contract: reference rows that cannot match any
    new-doc candidate are dropped MAP-SIDE — a mostly-disjoint reference
    contributes ~fpp of its rows to the all-to-all, and a bit miss never
    drops a true duplicate (exactness)."""
    n_ref, overlap = 3000, 10
    ref = pa.table({
        "doc_id": pa.array(range(n_ref), pa.int64()),
        "text": pa.array([f"ref document number {i}"
                          for i in range(n_ref)]),
    })
    new_texts = ([f"ref document number {i}" for i in range(overlap)]
                 + [f"new doc {i}" for i in range(50)])
    new = pa.table({
        "doc_id": pa.array(range(10_000, 10_000 + len(new_texts)),
                           pa.int64()),
        "text": pa.array(new_texts),
    })
    base = dedup.incremental_dedup(rd.from_arrow(new),
                                   rd.from_arrow(ref)).to_pandas()
    outb = dedup.incremental_dedup(rd.from_arrow(new),
                                   rd.from_arrow(ref),
                                   bloom_bits_per_item=10).to_pandas()
    assert sorted(outb.doc_id) == sorted(base.doc_id)
    assert len(outb) == 50  # overlap docs die, fresh docs survive

    # direct suppression measurement on the same hash datasets
    ref_h = rd.from_arrow(ref).map_batches(
        lambda b: dedup._content_hash_tbl(b, "text"),
        batch_format="pyarrow")
    new_h = rd.from_arrow(new).map_batches(
        lambda b: dedup._content_hash_tbl(b, "text", "doc_id"),
        batch_format="pyarrow")
    import ray as _ray
    mc, kc = dedup._bloom_params(new.num_rows, 10)
    words = _ray.put(dedup.bloom_build(new_h, mc, kc))
    kept = dedup._bloom_filter_ds(ref_h, words, mc, kc,
                                  keep_hits=True).count()
    assert kept >= overlap            # no false negatives, ever
    assert kept <= overlap + n_ref // 20  # ~1% fpp at 10 bits/item


@pytest.mark.parametrize("route", ["hash", "line"])
def test_line_dedup_keep_first_semantics(ray_session, route):
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "url": ["u1", "u2", "u3", "u4", "u5"],
        "text": ["a. b. c", "b. d", "a", "x. x. y", ""],
    })
    out = dedup.line_dedup(rd.from_arrow(t), carry_cols=["url"],
                           shuffle_key=route) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # doc 1 keeps everything (all first occurrences, original order);
    # doc 2 loses "b"; doc 3 ("a" only — a later dup) drops entirely;
    # doc 4 loses its IN-DOC repeat of "x"; doc 5 keeps its empty line
    # (first occurrence of "" corpus-wide).
    assert out["doc_id"].tolist() == [1, 2, 4, 5]
    assert out["text_dedup"].tolist() == ["a. b. c", "d", "x. y", ""]
    assert out["n_lines"].tolist() == [3, 1, 2, 1]
    assert out["url"].tolist() == ["u1", "u2", "u4", "u5"]


@pytest.mark.parametrize("route", ["hash", "line"])
def test_line_dedup_executes_upstream_once(ray_session, route,
                                           count_executions):
    """The documents feed both the keep fold and the survivor step, yet
    the upstream plan runs once per block; the hash route runs that one
    Ray Data execution only before its result is read."""
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

    def counted(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": pa.array([f"line {i % 7}. tail {i % 3}"
                                    for i in range(40)])})
    ds = rd.from_arrow(t).repartition(4).map_batches(
        counted, batch_format="pyarrow")
    count_executions.clear()
    out = dedup.line_dedup(ds, shuffle_key=route)
    if route == "hash":
        assert len(count_executions) == 1
    assert sorted(out.to_pandas().doc_id) == list(range(7))
    assert ray.get(c.get.remote()) == 4


def test_minhash_dedup_executes_upstream_once(ray_session,
                                             count_executions):
    """The input feeds the signature map, the verify payload and the
    ``dup_of`` attach, yet it streams once: one Ray Data execution before
    the result is read, and the upstream UDF runs once per block."""
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

    def counted(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": pa.array([f"doc words {i % 5} and more {i % 3}"
                                    for i in range(40)])})
    ds = rd.from_arrow(t).repartition(4).map_batches(
        counted, batch_format="pyarrow")
    count_executions.clear()
    out = dedup.minhash_dedup(ds, threshold=0.8)
    assert len(count_executions) == 1
    out = out.to_pandas()
    assert sorted(out.doc_id) == list(range(40))
    assert (out.doc_id != out.dup_of).any()
    assert ray.get(c.get.remote()) == 4


def _call_counter():
    import ray

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    return Counter.remote()


def test_verify_pairs_gathers_payloads_once(ray_session):
    """The broadcast verify route holds a lazy payload plan's blocks and
    gathers the involved payloads from them, so the plan runs once per
    block."""
    import ray

    c = _call_counter()

    def counted(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    payload = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(40)])})).repartition(4) \
        .map_batches(counted, batch_format="pyarrow")
    cand = rd.from_arrow(pa.table({"a": pa.array([0, 1, 5, 0], pa.int64()),
                                   "b": pa.array([10, 2, 30, 10],
                                                 pa.int64())}))

    def kernel(col, ia, ib):
        keep = np.ones(len(ia), bool)
        return keep, {"score": pa.array(np.arange(len(ia), dtype=float))}

    out = blocks.dataset(dedup._verify_pairs(
        cand, payload, "doc_id", "text", kernel, None)).to_pandas()
    assert sorted(zip(out.a, out.b)) == [(0, 10), (1, 2), (5, 30)]
    assert ray.get(c.get.remote()) == 4


def test_line_dedup_cross_partition_order(ray_session):
    # first occurrence must be decided by GLOBAL (id, pos) order even
    # when the duplicate lands in an earlier-read partition: doc 10
    # (later id) is in block 0, doc 2 (earlier id) in block 1.
    a = pa.table({"doc_id": pa.array([10], pa.int64()),
                  "text": ["shared line. ten only"]})
    b = pa.table({"doc_id": pa.array([2], pa.int64()),
                  "text": ["two only. shared line"]})
    ds = rd.from_arrow(a).union(rd.from_arrow(b))
    out = dedup.line_dedup(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [2, 10]
    assert out["text_dedup"].tolist() == ["two only. shared line",
                                          "ten only"]


def test_line_dedup_duckdb_twin(ray_session):
    """Exact parity with a DuckDB twin of the oracle shape on an
    adversarial corpus (in-doc repeats, cross-doc repeats, empties)."""
    import duckdb
    rng = np.random.default_rng(11)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [". ".join(rng.choice(vocab, size=rng.integers(1, 6)))
             for _ in range(200)]
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = dedup.line_dedup(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # route parity: the int-shuffle hash route and the exact raw-string
    # route must agree row-for-row
    alt = dedup.line_dedup(rd.from_arrow(t), shuffle_key="line") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["text_dedup"].tolist() == alt["text_dedup"].tolist()
    con = duckdb.connect()
    con.register("docs", t)
    ora = con.execute("""
        WITH ex AS (
          SELECT doc_id,
                 unnest(string_split(text, '. ')) AS line,
                 generate_subscripts(string_split(text, '. '), 1) AS ord
          FROM docs
        ), keyed AS (
          SELECT doc_id, line, ord, doc_id * 1048576 + ord AS ordkey
          FROM ex
        ), firsts AS (
          SELECT line, MIN(ordkey) AS keep FROM keyed GROUP BY line
        )
        SELECT k.doc_id,
               string_agg(k.line, '. ' ORDER BY k.ord) AS text_dedup,
               COUNT(*) AS n_lines
        FROM keyed k
        JOIN firsts f ON k.line = f.line AND k.ordkey = f.keep
        GROUP BY k.doc_id ORDER BY k.doc_id""").fetch_df()
    assert got["doc_id"].tolist() == ora["doc_id"].tolist()
    assert got["text_dedup"].tolist() == ora["text_dedup"].tolist()
    assert got["n_lines"].tolist() == ora["n_lines"].tolist()


# ---------------------------------------------------------------------------
# semantic_dedup (SemDeDup)
# ---------------------------------------------------------------------------

def _sem_vecs():
    """Two direction clusters; ids 1/2 and 10/11 are near-identical pairs,
    id 20 is a lone opposite direction."""
    rows = [
        (0, [1.0, 0.0, 0.0, 0.0]),
        (1, [0.99, 0.01, 0.0, 0.0]),   # near-dup of 0 -> dropped
        (2, [0.98, 0.02, 0.01, 0.0]),  # near-dup of 0 -> dropped
        (3, [0.1, 0.9, 0.1, 0.0]),
        (10, [0.0, 1.0, 0.0, 0.0]),
        (11, [0.01, 0.99, 0.0, 0.0]),  # near-dup of 10 (or 3)
        (20, [0.0, 0.0, -1.0, 0.2]),
    ]
    return pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.array([r[1] for r in rows],
                              pa.list_(pa.float32())),
    })


def test_semantic_dedup_matches_duckdb_twin(ray_session):
    import duckdb

    from pyrosm_ray.stages.dedup import semantic_dedup, semantic_dedup_sql
    t = _sem_vecs()
    got = semantic_dedup(rd.from_arrow(t).repartition(3), n_clusters=2,
                         threshold=0.95).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("embeddings", t)
    ora = con.execute(semantic_dedup_sql(n_clusters=2, threshold=0.95)) \
        .fetch_df()
    assert got["vec_id"].tolist() == ora["vec_id"].tolist()
    assert got["cluster"].tolist() == ora["cluster"].tolist()


def test_semantic_dedup_kmeans_route(ray_session):
    """fit_iters>0 (distributed Lloyd's) prunes the same near-dup pairs
    as the fixed-seed route when the two lowest ids already sit in
    different direction clusters (so both routes produce the same
    clustering; cluster IDS may permute, survivor SET must not)."""
    from pyrosm_ray.stages.dedup import semantic_dedup
    rows = [
        (0, [1.0, 0.0, 0.0, 0.0]),     # seed of the x cluster
        (1, [0.0, 1.0, 0.0, 0.0]),     # seed of the y cluster
        (2, [0.99, 0.01, 0.0, 0.0]),   # near-dup of 0 -> dropped
        (3, [0.01, 0.99, 0.0, 0.0]),   # near-dup of 1 -> dropped
        (4, [0.7, 0.3, 0.0, 0.0]),     # x cluster, below threshold
        (20, [0.0, 0.0, -1.0, 0.2]),   # lone direction
    ]
    t = pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.array([r[1] for r in rows],
                              pa.list_(pa.float32())),
    })
    base = semantic_dedup(rd.from_arrow(t).repartition(2), n_clusters=2,
                          threshold=0.95)
    fit = semantic_dedup(rd.from_arrow(t).repartition(2), n_clusters=2,
                         threshold=0.95, fit_iters=3)
    assert sorted(base.to_pandas()["vec_id"]) == [0, 1, 4, 20]
    assert sorted(fit.to_pandas()["vec_id"]) == [0, 1, 4, 20]


# ---------------------------------------------------------------------------
# cross-corpus similarity join
# ---------------------------------------------------------------------------

def test_similarity_join_cross_only_and_exact(ray_session):
    import duckdb

    left = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog",
            "the quick brown fox jumps over the lazy cat",  # near-dup of 0 (within-left: must NOT pair)
            "completely different text about parquet files",
        ]),
    })
    right = pa.table({
        "doc_id": pa.array([0, 7, 9], pa.int64()),  # id 0 collides with left's
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog!",  # near-dup of left 0/1
            "completely different text about parquet files!",  # near-dup of left 2
            "nothing like anything else here at all",
        ]),
    })
    got = dedup.similarity_join(rd.from_arrow(left).repartition(2),
                                rd.from_arrow(right).repartition(2),
                                threshold=0.55).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    # DuckDB all-pairs twin over the same normalised 3-gram rule
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    def gram_cte(tbl, gname):
        return f"""
        nt_{gname} AS (SELECT doc_id,
                list_aggregate(regexp_extract_all(lower(text), '\\S+'),
                               'string_agg', ' ') AS t FROM {tbl}),
        np_{gname} AS (SELECT doc_id,
                CASE WHEN len(t) < 3 THEN rpad(t, 3, ' ') ELSE t END AS t
                FROM nt_{gname}),
        gi_{gname} AS (SELECT doc_id, t,
                unnest(generate_series(1, len(t) - 2)) AS i
                FROM np_{gname}),
        {gname} AS (SELECT DISTINCT doc_id,
                md5_number_lower(substring(t, i, 3)) AS h
                FROM gi_{gname})"""
    ora = con.execute(f"""
        WITH {gram_cte('l', 'gl')}, {gram_cte('r', 'gr')},
        sl AS (SELECT doc_id, COUNT(*) n FROM gl GROUP BY doc_id),
        sr AS (SELECT doc_id, COUNT(*) n FROM gr GROUP BY doc_id),
        inter AS (SELECT gl.doc_id a, gr.doc_id b, COUNT(*) i
                  FROM gl JOIN gr ON gl.h = gr.h GROUP BY 1, 2)
        SELECT a, b,
               ROUND(CAST(i AS DOUBLE) / (sl.n + sr.n - i), 6) AS jaccard
        FROM inter JOIN sl ON sl.doc_id = a JOIN sr ON sr.doc_id = b
        WHERE CAST(i AS DOUBLE) / (sl.n + sr.n - i) >= 0.55
        ORDER BY a, b""").fetch_df()
    assert got["a"].tolist() == ora["a"].tolist()
    assert got["b"].tolist() == ora["b"].tolist()
    assert np.allclose(got["jaccard"], ora["jaccard"])
    # within-side near-dup (left 0 vs left 1) never appears
    assert not ((got["a"] == 0) & (got["b"] == 1)
                & (got["jaccard"] > 0.9)).any()
    # cross pairs present: left 0 x right 0 and left 2 x right 7
    pairs = set(zip(got["a"], got["b"]))
    assert (0, 0) in pairs and (2, 7) in pairs


def test_similarity_join_id_range_enforced(ray_session):
    bad = pa.table({"doc_id": pa.array([1 << 41], pa.int64()),
                    "text": pa.array(["abcdef"])})
    ok = pa.table({"doc_id": pa.array([1], pa.int64()),
                   "text": pa.array(["abcdef"])})
    with pytest.raises(Exception):
        dedup.similarity_join(rd.from_arrow(bad),
                              rd.from_arrow(ok)).to_pandas()


def test_snapshot_diff_statuses(ray_session):
    import duckdb
    import ray.data as rd

    from pyrosm_ray.stages.dedup import snapshot_diff, snapshot_diff_sql

    old = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(["a", "b", "c", "d"])})
    new = pa.table({"doc_id": pa.array([2, 3, 5], pa.int64()),
                    "text": pa.array(["b", "C2", "e"])})
    out = snapshot_diff(rd.from_arrow(old), rd.from_arrow(new)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out.doc_id) == [1, 2, 3, 4, 5]
    assert list(out.status) == ["removed", "same", "changed", "removed",
                                "added"]
    con = duckdb.connect()
    con.register("o_t", old)
    con.register("n_t", new)
    want = con.execute(snapshot_diff_sql(
        "SELECT doc_id, text FROM o_t",
        "SELECT doc_id, text FROM n_t")).fetchdf()
    assert list(out.status) == list(want.status)
    # distributed-route parity (driver fast path forced off)
    import pyrosm_ray.stages.blocks as blocks
    orig = blocks.KEYED_FOLD_DRIVER_MAX
    try:
        blocks.KEYED_FOLD_DRIVER_MAX = 0
        dist = snapshot_diff(rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
    finally:
        blocks.KEYED_FOLD_DRIVER_MAX = orig
    assert list(dist.status) == list(out.status)


@pytest.mark.parametrize("driver_max", [None, 0])
def test_snapshot_diff_null_text_is_changed(ray_session, monkeypatch,
                                            driver_max):
    """A null text equals no text, as in the DuckDB twin: an id with a
    null text on either side (or both) reads "changed". It used to read
    "same" when the null took the batch's last distinct string's
    hash."""
    import duckdb

    from pyrosm_ray.stages.dedup import snapshot_diff, snapshot_diff_sql

    if driver_max is not None:
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", driver_max)
    old = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                    "text": pa.array(["x", None, "x", None, "y"])})
    new = pa.table({"doc_id": pa.array([1, 2, 3, 4, 6], pa.int64()),
                    "text": pa.array(["x", "x", None, None, None])})
    out = snapshot_diff(rd.from_arrow(old), rd.from_arrow(new)) \
        .to_pandas().sort_values("doc_id")
    con = duckdb.connect()
    con.register("o_t", old)
    con.register("n_t", new)
    want = con.execute(snapshot_diff_sql(
        "SELECT doc_id, text FROM o_t",
        "SELECT doc_id, text FROM n_t")).fetchdf()
    assert list(want.status) == ["same", "changed", "changed", "changed",
                                 "removed", "added"]
    assert list(out.doc_id) == list(want.doc_id)
    assert list(out.status) == list(want.status)


def test_snapshot_diff_executes_each_upstream_once(ray_session):
    """Neither snapshot's plan runs twice: no row-count gate executes an
    upstream before the fold reads it (each UDF runs once per block)."""
    import ray
    import ray.data as rd

    from pyrosm_ray.stages.dedup import snapshot_diff

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = {}

        def bump(self, side):
            self.n[side] = self.n.get(side, 0) + 1

        def get(self):
            return self.n

    c = Counter.remote()

    def tagged(side):
        def f(b: pa.Table) -> pa.Table:
            ray.get(c.bump.remote(side))
            return b
        return f

    old = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                    "text": pa.array([f"t{i}" for i in range(40)])})
    new = old.slice(10)
    out = snapshot_diff(
        rd.from_arrow(old).repartition(2).map_batches(
            tagged("old"), batch_format="pyarrow"),
        rd.from_arrow(new).repartition(3).map_batches(
            tagged("new"), batch_format="pyarrow")).to_pandas()
    assert sorted(out.status.value_counts().items()) == [
        ("removed", 10), ("same", 30)]
    assert ray.get(c.get.remote()) == {"old": 2, "new": 3}


def test_exact_dedup_route_parity(ray_session, monkeypatch):
    import ray.data as rd

    from pyrosm_ray.stages import blocks, dedup

    texts = ["a b", "A  b", "c", "d e f", "c ", "unique"]
    t = pa.table({"doc_id": pa.array([5, 1, 2, 3, 9, 4], pa.int64()),
                  "text": pa.array(texts, pa.string())})
    fast = dedup.exact_dedup(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # normalised dups: {5,1} -> 1, {2,9} -> 2
    assert list(fast.doc_id) == [1, 2, 3, 4]
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    slow = dedup.exact_dedup(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(slow.doc_id) == list(fast.doc_id)
    assert sorted(slow.columns) == sorted(fast.columns) or \
        set(fast.columns) <= set(slow.columns)
