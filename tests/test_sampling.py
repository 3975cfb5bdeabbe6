"""Sampling / ordering / packing operators (stages/sampling.py): hash
sampling, per-group quota, distributed shuffle-rank, sequence packing,
PII redaction — each pinned against a DuckDB twin or a hand oracle."""

import duckdb
import numpy as np
import pyarrow as pa
import ray.data as rd

from pyrosm_ray.stages import sampling


def _docs(n=200, langs=("en", "de", "fr")):
    rng = np.random.RandomState(42)
    return pa.table({
        "doc_id": pa.array(np.arange(n) * 3 + 1, pa.int64()),
        "lang": pa.array([langs[i % len(langs)] for i in range(n)]),
        "n_chars": pa.array(rng.randint(10, 500, n), pa.int64()),
    })


def test_hash_sample_deterministic_and_sql_twin(ray_session):
    t = _docs()
    ds = rd.from_arrow(t)
    a = sampling.hash_sample(ds, num=3, den=10, seed=7).to_pandas()
    b = sampling.hash_sample(rd.from_arrow(t), num=3, den=10,
                             seed=7).to_pandas()
    assert sorted(a.doc_id) == sorted(b.doc_id)
    assert 0 < len(a) < len(t)
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT doc_id FROM t WHERE "
        + sampling.hash_sample_sql("doc_id", 3, 10, seed=7)
        + " ORDER BY doc_id").fetchdf()
    assert sorted(a.doc_id) == list(want.doc_id)


def test_topk_per_group_quota_and_ties(ray_session):
    # deliberate ties in the order column -> id breaks them ascending
    t = pa.table({
        "doc_id": pa.array([5, 1, 2, 3, 4, 6], pa.int64()),
        "lang": pa.array(["en"] * 3 + ["de"] * 3),
        "n_chars": pa.array([100, 100, 50, 70, 70, 70], pa.int64()),
    })
    out = sampling.topk_per_group(
        rd.from_arrow(t), "lang", "n_chars", k=2).to_pandas() \
        .sort_values(["lang", "grp_rank"])
    en = out[out.lang == "en"]
    # ties at 100: doc 1 outranks doc 5 (ascending id)
    assert list(en.doc_id) == [1, 5]
    assert list(en.grp_rank) == [1, 2]
    de = out[out.lang == "de"]
    assert list(de.doc_id) == [3, 4]


def test_shuffle_rank_is_seeded_permutation(ray_session):
    t = _docs(150)
    out = sampling.shuffle_rank(rd.from_arrow(t.select(["doc_id"])),
                                seed=11, num_buckets=8).to_pandas()
    assert sorted(out.shuffle_rank) == list(range(1, 151))
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT doc_id, ROW_NUMBER() OVER (ORDER BY "
        + sampling.shuffle_rank_order_sql("doc_id", seed=11)
        + ") AS r FROM t ORDER BY doc_id").fetchdf()
    got = out.sort_values("doc_id").reset_index(drop=True)
    assert list(got.shuffle_rank) == list(want.r)
    # different seed -> different order (overwhelmingly)
    out2 = sampling.shuffle_rank(rd.from_arrow(t.select(["doc_id"])),
                                 seed=12, num_buckets=8).to_pandas() \
        .sort_values("doc_id")
    assert list(out2.shuffle_rank) != list(got.shuffle_rank)


def test_pack_sequences_prefix_and_budget(ray_session):
    t = _docs(120)
    out = sampling.pack_sequences(rd.from_arrow(t), budget=1000,
                                  num_buckets=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # reconstruct: start offset must equal the exclusive prefix sum in
    # doc_id order, seq_id/seq_offset its div/mod
    order = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    prefix = np.concatenate([[0], np.cumsum(order.n_chars)[:-1]])
    assert (out.seq_id == prefix // 1000).all()
    assert (out.seq_offset == prefix % 1000).all()


def test_scan_routes_agree(ray_session, monkeypatch):
    """``shuffle_rank`` and ``pack_sequences`` give the same rows on the
    driver scan and on the distributed two-pass scan
    (``KEYED_FOLD_DRIVER_MAX = 0``)."""
    from pyrosm_ray.stages import blocks

    t = _docs(300)

    def run():
        rank = sampling.shuffle_rank(rd.from_arrow(t).repartition(4),
                                     seed=5, num_buckets=8).to_pandas()
        pack = sampling.pack_sequences(rd.from_arrow(t).repartition(4),
                                       budget=700, num_buckets=8)
        pack = pack.to_pandas()
        return (sorted(zip(rank.doc_id, rank.shuffle_rank)),
                sorted(zip(pack.doc_id, pack.n_chars, pack.seq_id,
                           pack.seq_offset)))

    driver = run()
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    assert run() == driver
    assert [r for _, r in sorted(driver[0], key=lambda x: x[1])] == \
        list(range(1, 301))


def test_redact_pii_patterns(ray_session):
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "write a.b-c_d@mail.example.co today",
            "server at 192.168.0.1 and phone +1-555-0199-22",
            "nothing sensitive here 1.2.3 (not an ip)",
        ]),
    })
    out = sampling.redact_pii(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out.text_redacted[0] == "write <EMAIL> today"
    assert out.text_redacted[1] == "server at <IP> and phone <PHONE>"
    assert out.text_redacted[2] == t["text"][2].as_py()
    assert list(out.n_redactions) == [1, 2, 0]
    # SQL twin parity on the same rows
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT doc_id, " + sampling.redact_pii_sql("text")
        + " AS r, " + sampling.redact_count_sql("text")
        + " AS n FROM t ORDER BY doc_id").fetchdf()
    assert list(want.r) == list(out.text_redacted)
    assert list(want.n) == list(out.n_redactions)


def test_mix_sources_rates_and_sql_twin(ray_session):
    rng = np.random.RandomState(5)
    n = 300
    t = pa.table({
        "doc_id": pa.array(np.arange(n) * 7 + 3, pa.int64()),
        "source": pa.array([f"s{i % 4}" for i in range(n)]),
        "n_chars": pa.array(rng.randint(50, 200, n), pa.int64()),
    })
    weights = {"s0": 3, "s1": 1, "s2": 2}  # s3 unweighted -> dropped
    budget = 8000
    got = sampling.mix_sources(rd.from_arrow(t), weights, budget) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("docs", t)
    want = con.execute(
        sampling.mix_sources_sql("docs", weights, budget)
        + " ORDER BY doc_id").fetchdf()
    assert list(got.doc_id) == list(want.doc_id)
    assert not (got.source == "s3").any()
    # each weighted source is sampled (rates are well above 0 here)
    assert set(got.source) == {"s0", "s1", "s2"}
    # quantised rates match the integer formula
    supply = {f"s{i}": int(t.filter(
        pa.compute.equal(t["source"], f"s{i}"))["n_chars"]
        .to_pandas().sum()) for i in range(4)}
    nums = sampling.mix_rates(supply, weights, budget)
    assert nums["s3"] == 0 and all(0 < v <= sampling.MIX_DEN
                                   for k, v in nums.items() if k != "s3")


def test_mix_sources_caps_rate_at_one(ray_session):
    # budget far above supply -> every weighted doc kept
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "source": pa.array(["a", "a", "b", "b"]),
        "n_chars": pa.array([10, 10, 10, 10], pa.int64()),
    })
    out = sampling.mix_sources(rd.from_arrow(t), {"a": 1, "b": 1},
                               budget=10_000).to_pandas()
    assert sorted(out.doc_id) == [1, 2, 3, 4]


def test_chunk_documents_rules(ray_session):
    import pyarrow as pa

    from pyrosm_ray.stages.sampling import chunk_documents
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            " ".join(f"w{i}" for i in range(10)),  # 10 tokens
            "a b c",                                # under one chunk
            "",                                     # empty: no chunks
        ], pa.string()),
    })
    out = chunk_documents(rd.from_arrow(t), chunk_tokens=8,
                          overlap=2).to_pandas()
    d1 = out[out.doc_id == 1].reset_index(drop=True)
    # stride 6: chunks [0:8] and [6:10]
    assert list(d1.chunk_index) == [0, 1]
    assert d1.chunk_text[0] == " ".join(f"w{i}" for i in range(8))
    assert d1.chunk_text[1] == "w6 w7 w8 w9"
    assert list(d1.n_chunk_tokens) == [8, 4]
    d2 = out[out.doc_id == 2]
    assert len(d2) == 1 and d2.iloc[0].chunk_text == "a b c"
    assert (out.doc_id != 3).all()   # empty doc -> no chunks
    # overlap >= chunk is rejected
    import pytest as _pt
    with _pt.raises(ValueError):
        chunk_documents(rd.from_arrow(t), chunk_tokens=4, overlap=4)


def _dsir_docs(n=120):
    """Tiny corpus where the en/de word distributions differ sharply."""
    rng = np.random.RandomState(7)
    en_words = ["the", "cat", "sat", "on", "mat", "shared"]
    de_words = ["der", "hund", "lief", "im", "park", "shared"]
    rows, langs = [], []
    for i in range(n):
        lang = "en" if i % 3 else "de"
        pool = en_words if lang == "en" else de_words
        k = rng.randint(3, 12)
        rows.append(" ".join(pool[j] for j in rng.randint(0, len(pool), k)))
        langs.append(lang)
    return pa.table({
        "doc_id": pa.array(np.arange(n) * 2 + 1, pa.int64()),
        "text": pa.array(rows, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def _dsir_naive(t: pa.Table, target_value="en", buckets=None):
    """Independent dict-based DSIR twin (Laplace-smoothed log ratio,
    micro-nat quantisation)."""
    import hashlib
    import math

    def feat(w):
        if buckets is None:
            return w
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[8:], "little")
        return h % buckets

    cr, ct = {}, {}
    for txt, lang in zip(t["text"].to_pylist(), t["lang"].to_pylist()):
        for w in txt.lower().split():
            f = feat(w)
            cr[f] = cr.get(f, 0) + 1
            if lang == target_value:
                ct[f] = ct.get(f, 0) + 1
    tr, tt = sum(cr.values()), sum(ct.values())
    v = len(cr) if buckets is None else buckets
    micro = {}
    for f, c in cr.items():
        lp = math.log(((ct.get(f, 0) + 1.0) * float(tr + v))
                      / ((c + 1.0) * float(tt + v)))
        micro[f] = math.trunc(lp * 1e6 + (0.5 if lp > 0 else
                                          -0.5 if lp < 0 else 0.0))
    out = {}
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = txt.lower().split()
        out[did] = (len(ws), sum(micro[feat(w)] for w in ws))
    return out


def test_dsir_weights_vs_naive_and_sql(ray_session):
    t = _dsir_docs()
    for buckets in (None, 512):
        got = sampling.dsir_weights(
            rd.from_arrow(t), feature_buckets=buckets).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        naive = _dsir_naive(t, buckets=buckets)
        assert len(got) == len(naive)
        for _, r in got.iterrows():
            n_tok, micro = naive[r.doc_id]
            assert (r.n_tokens, r.dsir_micro) == (n_tok, micro), \
                (buckets, r.doc_id)
        con = duckdb.connect()
        con.register("documents", t)
        want = con.execute(sampling.dsir_weights_sql(
            feature_buckets=buckets)).fetchdf()
        assert list(got.dsir_micro) == list(want.dsir_micro)
        assert list(got.n_tokens) == list(want.n_tokens)
    # en docs must outscore de docs on the en-target weights
    got = sampling.dsir_weights(rd.from_arrow(t)).to_pandas()
    m = got.merge(t.to_pandas()[["doc_id", "lang"]], on="doc_id")
    mean_en = m[m.lang == "en"].dsir_micro.mean()
    mean_de = m[m.lang == "de"].dsir_micro.mean()
    assert mean_en > mean_de


def test_dsir_select_topk_order(ray_session):
    t = _dsir_docs(60)
    scores = sampling.dsir_weights(rd.from_arrow(t))
    sel = sampling.dsir_select(scores, 10).to_pandas()
    assert len(sel) == 10
    full = sampling.dsir_weights(rd.from_arrow(t)).to_pandas() \
        .sort_values(["dsir_micro", "doc_id"],
                     ascending=[False, True]).head(10)
    assert list(sel.doc_id) == list(full.doc_id)


def test_assign_splits_deterministic_and_sql_twin(ray_session):
    """Weighted split assignment: proportions near the weights, stable
    under re-partitioning, bit-identical to the SQL twin."""
    import duckdb
    import ray.data as rd

    from pyrosm_ray.stages import sampling

    t = pa.table({"doc_id": pa.array(np.arange(20_000), pa.int64())})
    W = {"train": 90, "val": 5, "test": 5}
    got = sampling.assign_splits(rd.from_arrow(t), W).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    frac = got.split.value_counts(normalize=True)
    assert abs(frac["train"] - 0.90) < 0.02
    assert abs(frac["val"] - 0.05) < 0.01
    again = sampling.assign_splits(
        rd.from_arrow(t).repartition(7), W).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got.split) == list(again.split)
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT doc_id, " + sampling.assign_splits_sql("doc_id", W)
        + " AS split FROM t ORDER BY doc_id").fetchdf()
    assert list(got.split) == list(want.split)

    import pytest
    with pytest.raises(ValueError):
        sampling.assign_splits(rd.from_arrow(t), {"a": 0})


def test_assign_splits_single_split_sql_twin(ray_session):
    """One split: every row gets its name, and the SQL twin is a valid
    expression that agrees (a CASE with no WHEN is a syntax error)."""
    import duckdb
    import ray.data as rd

    from pyrosm_ray.stages import sampling

    t = pa.table({"doc_id": pa.array(np.arange(50), pa.int64())})
    got = sampling.assign_splits(rd.from_arrow(t), {"all": 3}).to_pandas() \
        .sort_values("doc_id")
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT doc_id, " + sampling.assign_splits_sql("doc_id", {"all": 3})
        + " AS split FROM t ORDER BY doc_id").fetchdf()
    assert list(got.split) == ["all"] * 50
    assert list(want.split) == list(got.split)
