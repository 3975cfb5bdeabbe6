"""Similarity search: brute-force truth + metadata-filtered variant."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyrosm_ray.stages.similarity import filtered_topk_cosine, topk_cosine


def _vecs(n=40, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "embedding": pa.array(list(m.astype(np.float64))),
    }), m


def _truth_topk(m, q, k, allowed=None):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sim = qn @ mn.T
    ids = np.arange(m.shape[0])
    if allowed is not None:
        mask = np.isin(ids, allowed)
        sim, ids = sim[:, mask], ids[mask]
    out = []
    for qi in range(len(q)):
        order = np.lexsort((ids, -sim[qi]))[:k]
        out.append(ids[order].tolist())
    return out


def test_topk_cosine_matches_numpy(ray_session):
    t, m = _vecs()
    q = m[:2]
    got = topk_cosine(rd.from_arrow(t), q, k=5).to_pandas()
    truth = _truth_topk(m, q, 5)
    for qi in range(2):
        g = got[got.query_id == qi].sort_values("rank")
        assert list(g.vec_id) == truth[qi]


def test_filtered_topk_restricts_to_allowed_ids(ray_session):
    t, m = _vecs()
    q = m[:2]
    allowed_ids = np.arange(0, 40, 3, dtype=np.int64)  # every 3rd vector
    allowed = pa.table({"doc_id": pa.array(allowed_ids, pa.int64())})
    got = filtered_topk_cosine(rd.from_arrow(t), rd.from_arrow(allowed),
                               q, k=5).to_pandas()
    truth = _truth_topk(m, q, 5, allowed=allowed_ids)
    assert set(got.vec_id).issubset(set(allowed_ids.tolist()))
    for qi in range(2):
        g = got[got.query_id == qi].sort_values("rank")
        assert list(g.vec_id) == truth[qi]


def test_filtered_topk_empty_filter(ray_session):
    t, m = _vecs(n=10)
    allowed = pa.table({"doc_id": pa.array([], pa.int64())})
    got = filtered_topk_cosine(rd.from_arrow(t), rd.from_arrow(allowed),
                               m[:1], k=3).to_pandas()
    assert len(got) == 0


# ---------------------------------------------------------------------------
# Distributed k-means (spherical Lloyd's)
# ---------------------------------------------------------------------------

def _clustered_vecs(n_per=20, dim=8, seed=9):
    """Three well-separated direction clusters, ids INTERLEAVED round-robin
    (labels = id % 3) so the lowest-id k-means init lands one seed per
    cluster."""
    rng = np.random.default_rng(seed)
    anchors = np.eye(dim)[:3] * 10.0
    blocks = [a + rng.normal(0, 0.05, (n_per, dim)) for a in anchors]
    pts = np.stack(blocks, axis=1).reshape(3 * n_per, dim)
    t = pa.table({
        "vec_id": pa.array(range(len(pts)), pa.int64()),
        "embedding": pa.array(pts.astype(np.float32).tolist(),
                              pa.list_(pa.float32())),
    })
    return t, pts.astype(np.float32).astype(np.float64)


def _numpy_spherical_lloyds(m, k, iters):
    """Driver twin: same init (k lowest ids), same update rule."""
    def norm(x):
        return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True),
                              1e-12)
    centers = norm(m[:k].copy())
    for _ in range(iters):
        lab = np.argmax(norm(m) @ centers.T, axis=1)
        for c in range(k):
            sel = m[lab == c]
            if len(sel):
                centers[c] = sel.sum(axis=0) / len(sel)
        centers = norm(centers)
    return centers


def test_kmeans_fit_matches_numpy_twin(ray_session):
    from pyrosm_ray.stages.similarity import assign_clusters, kmeans_fit
    t, m = _clustered_vecs()
    got = kmeans_fit(rd.from_arrow(t), n_clusters=3, iters=5)
    want = _numpy_spherical_lloyds(m, 3, 5)
    assert np.allclose(got, want, atol=1e-9)
    # every point lands with its construction cluster-mates (id % 3)
    lab = assign_clusters(rd.from_arrow(t), got).to_pandas() \
        .sort_values("vec_id")["cluster"].to_numpy()
    for g in range(3):
        assert len(set(lab[g::3])) == 1
    assert len(set(lab[:3])) == 3


def test_kmeans_fit_block_split_invariant(ray_session):
    """Well-separated data: same labels whether 1 block or 7."""
    from pyrosm_ray.stages.similarity import assign_clusters, kmeans_fit
    t, _ = _clustered_vecs()
    lab1 = assign_clusters(
        rd.from_arrow(t), kmeans_fit(rd.from_arrow(t), 3, iters=4)) \
        .to_pandas().sort_values("vec_id")["cluster"].to_numpy()
    ds7 = rd.from_arrow(t).repartition(7)
    lab7 = assign_clusters(ds7, kmeans_fit(ds7, 3, iters=4)) \
        .to_pandas().sort_values("vec_id")["cluster"].to_numpy()
    assert np.array_equal(lab1, lab7)


# ---------------------------------------------------------------------------
# Product quantization (PQ)
# ---------------------------------------------------------------------------

def _pq_corpus(n=120, dim=8, seed=3):
    """Vectors drawn near 4 orthogonal unit anchors — well-clustered, so
    PQ recall is high and the exact-rerank path is checkable."""
    rng = np.random.default_rng(seed)
    anchors = np.eye(dim)[:4]
    lab = np.arange(n) % 4
    pts = anchors[lab] * 8.0 + rng.normal(0, 0.05, (n, dim))
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array(pts.astype(np.float32).tolist(),
                              pa.list_(pa.float32())),
    })
    return t, pts


def test_pq_encode_deterministic_across_blocking(ray_session):
    from pyrosm_ray.stages.similarity import pq_encode, pq_train
    t, _ = _pq_corpus()
    cb = pq_train(rd.from_arrow(t), n_subvectors=4, n_centroids=8)
    a = pq_encode(rd.from_arrow(t), cb).to_pandas().sort_values("vec_id")
    b = pq_encode(rd.from_arrow(t).repartition(5), cb).to_pandas() \
        .sort_values("vec_id")
    assert [bytes(x) for x in a["pq_code"]] == \
        [bytes(x) for x in b["pq_code"]]
    assert all(len(bytes(x)) == 4 for x in a["pq_code"])


def test_pq_topk_recall_and_adc_scores(ray_session):
    from pyrosm_ray.stages.similarity import (pq_encode, pq_train,
                                              topk_cosine, pq_topk)
    t, pts = _pq_corpus()
    ds = rd.from_arrow(t).repartition(4)
    cb = pq_train(ds, n_subvectors=4, n_centroids=16)
    codes = pq_encode(ds, cb).materialize()
    qm = pts[:3]
    exact = topk_cosine(rd.from_arrow(t), qm, k=10).to_pandas()
    adc = pq_topk(codes, cb, qm, k=10).to_pandas()
    # raw ADC is the SHORTLIST generator, not the final ranking: fine
    # intra-cluster order is quantized away, so assert useful-but-lossy
    # recall here; exact final order is the rerank test below
    rec = []
    for qi in range(3):
        e = set(exact[exact.query_id == qi].vec_id)
        a = set(adc[adc.query_id == qi].vec_id)
        rec.append(len(e & a) / len(e))
    assert min(rec) >= 0.5 and sum(rec) / len(rec) >= 0.7, rec
    # and a 3x shortlist already recovers the full exact top-10 set
    adc30 = pq_topk(codes, cb, qm, k=30).to_pandas()
    for qi in range(3):
        e = set(exact[exact.query_id == qi].vec_id)
        a30 = set(adc30[adc30.query_id == qi].vec_id)
        assert e <= a30


def test_pq_topk_rerank_exact_scores(ray_session):
    """The rerank path reports EXACT cosine for everything it returns:
    each returned (query, vec) score equals the brute-force score, and
    with a generous shortlist the whole top-k matches exactly."""
    from pyrosm_ray.stages.similarity import (pq_encode, pq_train,
                                              topk_cosine, pq_topk)
    t, pts = _pq_corpus()
    ds = rd.from_arrow(t).repartition(4)
    cb = pq_train(ds, n_subvectors=4, n_centroids=16)
    codes = pq_encode(ds, cb).materialize()
    qm = pts[:3]
    exact = topk_cosine(rd.from_arrow(t), qm, k=10).to_pandas()
    got = pq_topk(codes, cb, qm, k=10, rerank_ds=rd.from_arrow(t),
                  shortlist=60).to_pandas()
    key = ["query_id", "rank"]
    e = exact.sort_values(key).reset_index(drop=True)
    g = got.sort_values(key).reset_index(drop=True)
    assert g["vec_id"].tolist() == e["vec_id"].tolist()
    assert np.allclose(g["score"], e["score"])


def test_label_centroid_outliers_exact(ray_session):
    """Planted geometry: vectors near their label axis score ~1.0, a
    planted cross-label vector flags; SQL twin matches bit-exact."""
    import duckdb

    from pyrosm_ray.stages.similarity import (
        label_centroid_outliers, label_centroid_outliers_sql)

    rng = np.random.RandomState(4)
    rows, labels = [], []
    for i in range(90):
        lb = i % 3
        v = np.zeros(8)
        v[lb] = 1.0
        v += rng.uniform(-0.05, 0.05, 8)
        if i == 42:                      # planted outlier: wrong axis
            v = np.zeros(8)
            v[(lb + 1) % 3] = 1.0
        rows.append(v.astype(np.float32))
        labels.append(lb)
    t = pa.table({
        "vec_id": pa.array(np.arange(90), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in rows],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    got = label_centroid_outliers(
        rd.from_arrow(t), threshold_micro=500_000).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert bool(got.loc[42, "is_outlier"])
    assert got.is_outlier.sum() == 1
    assert (got[got.vec_id != 42].cos_micro > 900_000).all()
    con = duckdb.connect()
    con.register("embeddings", t)
    want = con.execute(label_centroid_outliers_sql(
        threshold_micro=500_000)).fetchdf()
    assert list(got.cos_micro) == list(want.cos_micro)
    assert list(got.is_outlier) == list(want.is_outlier)


def test_lowest_id_vectors_runs_upstream_once(ray_session):
    """The per-block partial top-k map over a lazy plan runs once per
    block (its block refs are taken from a materialized result)."""
    import ray
    import ray.data as rd

    from pyrosm_ray.stages.similarity import lowest_id_vectors

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

    ids = np.arange(40, dtype=np.int64)[::-1]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([[float(i), 1.0] for i in ids],
                              pa.list_(pa.float64()))})).repartition(4) \
        .map_batches(counted, batch_format="pyarrow")
    got = lowest_id_vectors(ds, 3)
    np.testing.assert_array_equal(got[:, 0], [0.0, 1.0, 2.0])
    assert ray.get(c.get.remote()) == 4
