"""Similarity search over the embeddings table (`list<float>` column).

* :func:`topk_cosine` — brute-force cosine top-k: each batch is one
  float64 matmul against a broadcast, pre-normalised query matrix; per-batch
  partial top-k then a driver-side merge of the (tiny) partials. The
  baseline every ANN variant is tested against.
* :func:`ivf_topk` — the scale path: a seeded numpy k-means (built once,
  driver-side, on a sample) partitions vectors into coarse cells; queries
  probe the ``nprobe`` nearest centroids and brute-force only those cells.
  Same output contract as :func:`topk_cosine` (approximate recall).
* :func:`pq_train` / :func:`pq_encode` / :func:`pq_topk` — product
  quantization: vectors compress to m uint8 codes, the ADC scan reads
  ~m bytes per vector (the compressed-domain contract at 10^12 vectors),
  and ``rerank_ds`` restores exact cosine on the returned rows.
* :func:`kmeans_fit` / :func:`assign_clusters` — distributed spherical
  Lloyd's over the FULL dataset (broadcast-partials shape), feeding
  :func:`pyrosm_ray.stages.dedup.semantic_dedup`.

Scores are rounded to 4 decimals in the output so result hashing tolerates
summation-order differences vs SQL oracles (DuckDB list_cosine_similarity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from pyrosm_ray.stages.blocks import unreserved


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _emb_matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch[emb_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = np.asarray(col.flatten().to_numpy(zero_copy_only=False),
                      dtype=np.float64)
    n = len(batch)
    return flat.reshape(n, -1) if n else flat.reshape(0, 1)


def topk_cosine(ds, queries: np.ndarray, k: int = 10,
                id_col: str = "vec_id", emb_col: str = "embedding"):
    """Top-k nearest vectors per query row of ``queries`` (q, dim).

    Returns a Dataset of (query_id, vec_id, score, rank). One pass over the
    data; the all-reduce is a driver-side merge of per-batch partial top-ks
    (k·q rows per batch — tiny next to the data)."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        emb = _normalize(_emb_matrix(batch, emb_col))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
        sim = qm @ emb.T  # (q, n)
        kk = min(k, sim.shape[1])
        if kk == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        top = np.argpartition(-sim, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(np.arange(sim.shape[0]), kk)
        cols = top.ravel()
        return pa.table({
            "query_id": pa.array(rows, pa.int64()),
            "vec_id": pa.array(ids[cols], pa.int64()),
            "score": pa.array(sim[rows, cols], pa.float64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k)


def filtered_topk_cosine(ds, allowed_ds, queries: np.ndarray, k: int = 10,
                         id_col: str = "vec_id",
                         allowed_id_col: str = "doc_id",
                         emb_col: str = "embedding",
                         num_partitions: int | None = None):
    """Metadata-filtered vector search: :func:`topk_cosine` restricted to
    vectors whose id appears in ``allowed_ds`` (the already-filtered
    metadata side — e.g. documents of one language).

    The vector-DB shape at scale: the filter side reduces to bare id
    rows and co-partitions with the vectors through a distributed hash
    semi-join — no driver id set, no broadcast of either side; the
    brute-force matmul then runs only over surviving rows. Every id in
    ``allowed_ds`` must be unique (a metadata PRIMARY KEY), else the
    semi-join would duplicate vectors.

    Arrow's hash join rejects ``list<float>`` payload columns, so each
    vector rides through the shuffle as ONE fixed-size-binary value
    (zero-copy views both ways — no per-row Python)."""
    from pyrosm_ray.stages.blocks import co_join, groupby_partitions

    def pack(batch: pa.Table) -> pa.Table:
        n = len(batch)
        m = _emb_matrix(batch, emb_col)
        width = m.shape[1] * 8 if n else 0
        offsets = (np.arange(n + 1, dtype=np.int32) * width)
        ebin = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(offsets.tobytes()),
             pa.py_buffer(np.ascontiguousarray(m).tobytes())])
        return pa.table({id_col: batch[id_col].cast(pa.int64()),
                         "__ebin": ebin})

    def unpack(batch: pa.Table) -> pa.Table:
        col = batch["__ebin"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        off = np.frombuffer(col.buffers()[1], np.int32)[
            col.offset:col.offset + len(col) + 1]
        data = np.frombuffer(col.buffers()[2] or b"", np.uint8)
        flat = data[off[0] if len(off) else 0:off[-1] if len(off) else 0] \
            .view(np.float64) if len(off) else np.empty(0, np.float64)
        list_off = ((off - (off[0] if len(off) else 0)) // 8).astype(
            np.int32) if len(off) else np.zeros(1, np.int32)
        emb = pa.ListArray.from_arrays(
            pa.array(list_off, pa.int32()), pa.array(flat, pa.float64()))
        return pa.table({id_col: batch[id_col], emb_col: emb})

    keep = allowed_ds.map_batches(
        lambda b: pa.table({id_col: b[allowed_id_col].cast(pa.int64())}),
        batch_format="pyarrow")
    filtered = co_join(
        ds.map_batches(pack, batch_format="pyarrow"), keep, id_col,
        num_partitions or groupby_partitions(),
        pa.table({id_col: pa.array([], pa.int64()),
                  "__ebin": pa.array([], pa.binary())})) \
        .map_batches(unpack, batch_format="pyarrow")
    return topk_cosine(filtered, queries, k=k, id_col=id_col,
                       emb_col=emb_col)


def _kmeans(sample: np.ndarray, n_clusters: int, iters: int = 10,
            seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = sample[rng.choice(len(sample), size=min(n_clusters,
                                                      len(sample)),
                                replace=False)]
    for _ in range(iters):
        d = ((sample[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(centers)):
            pts = sample[assign == c]
            if len(pts):
                centers[c] = pts.mean(axis=0)
    return centers


def ivf_build(ds, out_dir: str, n_clusters: int = 16,
              id_col: str = "vec_id", emb_col: str = "embedding",
              sample_size: int = 10_000, seed: int = 42) -> np.ndarray:
    """Write-time IVF: assign every vector its nearest (cosine) centroid
    and write the table as Parquet HASH-PARTITIONED BY CELL
    (``ivf_cell=<c>/`` directories). Queries then read ONLY their probed
    cells' files — IO proportional to nprobe/n_clusters, the real ANN
    scale path (the in-memory variant scans everything and prunes rows).

    Returns the centroid matrix (also persisted as ``centroids.npy``)."""
    import os

    import ray
    sample = []
    seen = 0
    for b in ds.select_columns([emb_col]).iter_batches(
            batch_size=1 << 14, batch_format="pyarrow"):
        m = _emb_matrix(b, emb_col)
        take = min(len(m), max(0, sample_size - seen))
        sample.append(m[:take])
        seen += take
        if seen >= sample_size:
            break
    sample = _normalize(np.concatenate(sample)) if sample else \
        np.empty((0, 1))
    centers = _normalize(_kmeans(sample, n_clusters, seed=seed))
    c_ref = ray.put(centers)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        emb = _normalize(_emb_matrix(batch, emb_col))
        cell = (emb @ c.T).argmax(axis=1) if len(emb) else \
            np.empty(0, np.int64)
        return batch.append_column(
            "ivf_cell", pa.array(cell.astype(np.int64)))

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["ivf_cell"])
    np.save(os.path.join(out_dir, "centroids.npy"), centers)
    return centers


def ivf_topk_partitioned(index_dir: str, queries: np.ndarray, k: int = 10,
                         nprobe: int = 4, id_col: str = "vec_id",
                         emb_col: str = "embedding"):
    """Query a :func:`ivf_build` index: resolve each query's ``nprobe``
    nearest centroids, read ONLY those cell partitions, brute-force the
    read rows. Same output contract as :func:`topk_cosine`."""
    import os

    import ray
    import ray.data as rd
    centers = np.load(os.path.join(index_dir, "centroids.npy"))
    q = _normalize(np.asarray(queries, dtype=np.float64))
    nprobe = min(nprobe, len(centers))
    probes = np.argsort(-(q @ centers.T), axis=1)[:, :nprobe]
    cells = np.unique(probes)
    # partition-pruned read: only probed ivf_cell=<c> directories open
    paths = [os.path.join(index_dir, f"ivf_cell={int(c)}")
             for c in cells]
    paths = [p for p in paths if os.path.isdir(p)]
    if not paths:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64()),
                         "rank": pa.array([], pa.int64())})
    cell_of_path = {p: int(p.rsplit("=", 1)[1]) for p in paths}
    model_ref = ray.put((q, probes))
    dss = []
    for p in paths:
        cell = cell_of_path[p]
        sub = unreserved(rd.read_parquet(p, columns=[id_col, emb_col]))

        def tag(batch: pa.Table, c=cell) -> pa.Table:
            return batch.append_column(
                "ivf_cell", pa.array(np.full(len(batch), c,
                                             dtype=np.int64)))
        dss.append(sub.map_batches(tag, batch_format="pyarrow"))
    full = dss[0]
    for d in dss[1:]:
        full = full.union(d)

    def partial(batch: pa.Table) -> pa.Table:
        qm, probes_ = ray.get(model_ref)
        emb = _normalize(_emb_matrix(batch, emb_col))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
        cell = np.asarray(batch["ivf_cell"].to_numpy(zero_copy_only=False))
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(cell, probes_[qi])
            if not mask.any():
                continue
            sim = emb[mask] @ qm[qi]
            kk = min(k, len(sim))
            top = np.argpartition(-sim, kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[mask][top])
            out_s.append(sim[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    parts = full.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k)


def _merge_topk(parts, k: int) -> pa.Table:
    out = {"query_id": [], "vec_id": [], "score": [], "rank": []}
    if len(parts) == 0 or "query_id" not in parts.columns:
        # an all-empty corpus (e.g. a filter that kept nothing) yields a
        # column-less empty frame — return the typed empty result
        parts = parts.iloc[0:0].reindex(
            columns=["query_id", "vec_id", "score"])
    for qid, g in parts.groupby("query_id"):
        g = g.sort_values(["score", "vec_id"], ascending=[False, True],
                          kind="stable").head(k)
        out["query_id"].extend([int(qid)] * len(g))
        out["vec_id"].extend(int(v) for v in g.vec_id)
        out["score"].extend(np.round(g.score.values, 4))
        out["rank"].extend(range(1, len(g) + 1))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "vec_id": pa.array(out["vec_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "rank": pa.array(out["rank"], pa.int64()),
    })


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_clusters: int = 16,
             nprobe: int = 4, id_col: str = "vec_id",
             emb_col: str = "embedding", sample_size: int = 10_000,
             seed: int = 42):
    """IVF approximate top-k: coarse k-means cells + nprobe probing.

    The centroid model is built once on a driver-side sample (stateful
    setup), broadcast, and applied per batch: a batch only does the matmul
    for its rows that fall in a probed cell."""
    sample = []
    seen = 0
    for b in ds.select_columns([emb_col]).iter_batches(
            batch_size=1 << 14, batch_format="pyarrow"):
        m = _emb_matrix(b, emb_col)
        take = min(len(m), max(0, sample_size - seen))
        sample.append(m[:take])
        seen += take
        if seen >= sample_size:
            break
    sample = _normalize(np.concatenate(sample)) if sample else \
        np.empty((0, 1))
    centers = _normalize(_kmeans(sample, n_clusters, seed=seed))
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(q @ centers.T), axis=1)[:, :nprobe]  # (q, nprobe)
    model_ref = ray.put((centers, q, probes))

    def partial(batch: pa.Table) -> pa.Table:
        centers_, qm, probes_ = ray.get(model_ref)
        emb = _normalize(_emb_matrix(batch, emb_col))
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
        if not len(ids):
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        cell = (emb @ centers_.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(cell, probes_[qi])
            if not mask.any():
                continue
            sim = emb[mask] @ qm[qi]
            kk = min(k, len(sim))
            top = np.argpartition(-sim, kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[mask][top])
            out_s.append(sim[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k)


# ---------------------------------------------------------------------------
# Distributed k-means (spherical Lloyd's) + cluster assignment
# ---------------------------------------------------------------------------

def lowest_id_vectors(ds, k: int, id_col: str = "vec_id",
                      emb_col: str = "embedding") -> np.ndarray:
    """The ``k`` lowest-id embedding rows as a (k, d) float64 matrix.

    Deterministic seed selection without a global sort: each block emits
    its own k lowest ids (a partial top-k), the driver merges the tiny
    partials (k rows per block, not the data).
    """
    def part(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select([id_col, emb_col])
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        keep = np.sort(np.argsort(ids, kind="stable")[:k])
        return batch.select([id_col, emb_col]).take(pa.array(keep))

    # materialized first: ``to_arrow_refs`` on a lazy plan runs it twice
    parts = pa.concat_tables(
        ray.get(ds.map_batches(part, batch_format="pyarrow")
                .materialize().to_arrow_refs()))
    ids = np.asarray(parts[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    order = np.argsort(ids, kind="stable")[:k]
    return _emb_matrix(parts.combine_chunks(), emb_col)[order]


def kmeans_fit(ds, n_clusters: int = 16, iters: int = 10,
               id_col: str = "vec_id", emb_col: str = "embedding"
               ) -> np.ndarray:
    """Distributed spherical k-means over the FULL dataset.

    Lloyd's iterations in the broadcast-partials shape: centroids go out
    once per iteration via ``ray.put``; one stateless ``map_batches``
    pass assigns rows (argmax cosine) and emits per-block partial
    (cluster, count, float64 sum-vector) rows — k rows per block, never
    the data. The driver reduces k x d floats per iteration in a
    DETERMINISTIC order (sorted by cluster, then block min-id) so a
    rerun over the same blocking reproduces centroids bit-for-bit.
    Init = the k lowest-id vectors (no RNG; resumable). Empty clusters
    keep their previous centroid. Scale: driver holds
    O(n_clusters x dim x num_blocks) partials per iteration — the same
    contract as Spark MLlib's treeAggregate root.

    The input materializes once up front: Lloyd's re-scans the data
    every iteration, so iterating the lazy read plan would re-execute
    the parquet scan per pass (object-store blocks + spill are exactly
    the cache an iterative fixpoint wants).
    """
    ds = unreserved(ds.materialize())
    centers = _normalize(lowest_id_vectors(ds, n_clusters, id_col,
                                           emb_col))
    for _ in range(iters):
        ref = ray.put(np.ascontiguousarray(centers))

        def stats(batch: pa.Table) -> pa.Table:
            cm = ray.get(ref)
            if batch.num_rows == 0:
                return pa.table({
                    "cluster": pa.array([], pa.int32()),
                    "n": pa.array([], pa.int64()),
                    "vsum": pa.array([], pa.binary()),
                    "bkey": pa.array([], pa.int64())})
            emb = _emb_matrix(batch, emb_col)
            lab = np.argmax(_normalize(emb) @ cm.T, axis=1)
            order = np.argsort(lab, kind="stable")
            sl, se = lab[order], emb[order]
            starts = np.nonzero(np.r_[True, sl[1:] != sl[:-1]])[0]
            sums = np.add.reduceat(se, starts, axis=0)
            cnts = np.diff(np.r_[starts, len(sl)])
            bkey = int(np.min(np.asarray(
                batch[id_col].to_numpy(zero_copy_only=False))))
            return pa.table({
                "cluster": pa.array(sl[starts], pa.int32()),
                "n": pa.array(cnts, pa.int64()),
                "vsum": pa.array([r.tobytes() for r in sums],
                                 pa.binary()),
                "bkey": pa.array(np.full(len(starts), bkey), pa.int64()),
            })

        parts = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
        if not len(parts):
            break
        parts = parts.sort_values(["cluster", "bkey"], kind="stable")
        dim = centers.shape[1]
        new = centers.copy()
        for c, grp in parts.groupby("cluster", sort=True):
            s = np.zeros(dim, dtype=np.float64)
            for buf in grp["vsum"]:
                s += np.frombuffer(buf, dtype=np.float64)
            new[int(c)] = s / max(int(grp["n"].sum()), 1)
        centers = _normalize(new)
    return centers


def assign_clusters(ds, centers: np.ndarray, id_col: str = "vec_id",
                    emb_col: str = "embedding",
                    out_col: str = "cluster"):
    """Append nearest-centroid (max raw-dot/norms cosine, ties -> lowest
    centroid index) as an int64 column. Centroids broadcast once."""
    cn = np.linalg.norm(centers, axis=1)
    ref = ray.put((np.ascontiguousarray(centers.astype(np.float64)),
                   np.maximum(cn, 1e-12)))

    def assign(batch: pa.Table) -> pa.Table:
        cm, cnorm = ray.get(ref)
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array([], pa.int64()))
        emb = _emb_matrix(batch, emb_col)
        en = np.maximum(np.linalg.norm(emb, axis=1), 1e-12)
        cos = (emb @ cm.T) / np.outer(en, cnorm)
        return batch.append_column(
            out_col, pa.array(np.argmax(cos, axis=1).astype(np.int64),
                              pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Product quantization (PQ) — compressed-domain ANN (Jégou et al. 2011)
# ---------------------------------------------------------------------------

def pq_train(ds, n_subvectors: int = 4, n_centroids: int = 16,
             sample_size: int = 10_000, emb_col: str = "embedding",
             seed: int = 42) -> np.ndarray:
    """Train PQ codebooks: split the (unit-normalised) vector into
    ``n_subvectors`` contiguous subspaces and run the seeded sample
    k-means per subspace. Returns (m, ks, d/m) float64 codebooks.

    Training is driver-side on a bounded sample — the standard PQ
    contract (Faiss trains the same way); encode/scan are the
    distributed stages. Normalising BEFORE splitting makes the summed
    subspace dot products approximate the cosine directly."""
    sample, seen = [], 0
    for b in ds.select_columns([emb_col]).iter_batches(
            batch_size=1 << 14, batch_format="pyarrow"):
        m = _emb_matrix(b, emb_col)
        take = min(len(m), max(0, sample_size - seen))
        sample.append(m[:take])
        seen += take
        if seen >= sample_size:
            break
    sm = _normalize(np.concatenate(sample)) if sample else \
        np.empty((0, n_subvectors))
    d = sm.shape[1]
    if d % n_subvectors:
        raise ValueError(f"dim {d} not divisible by m={n_subvectors}")
    dsub = d // n_subvectors
    return np.stack([
        _kmeans(np.ascontiguousarray(sm[:, j * dsub:(j + 1) * dsub]),
                n_centroids, seed=seed + j)
        for j in range(n_subvectors)])


def pq_encode(ds, codebooks: np.ndarray, id_col: str = "vec_id",
              emb_col: str = "embedding"):
    """(vec_id, pq_code: binary[m]) — each vector compressed to m uint8
    codes (nearest codebook entry per subspace, L2 on the unit vector).
    Codebooks broadcast once; the argmin is one small matmul per
    subspace per batch."""
    m, ks, dsub = codebooks.shape
    # ||x - c||² argmin ≡ (||c||² - 2 x·c) argmin: precompute ||c||²
    cb_ref = ray.put((np.ascontiguousarray(codebooks),
                      (codebooks ** 2).sum(axis=2)))

    def enc(batch: pa.Table) -> pa.Table:
        cb, c2 = ray.get(cb_ref)
        n = batch.num_rows
        codes = np.zeros((n, m), dtype=np.uint8)
        if n:
            x = _normalize(_emb_matrix(batch, emb_col))
            for j in range(m):
                xj = x[:, j * dsub:(j + 1) * dsub]
                codes[:, j] = (c2[j][None, :] - 2.0 * (xj @ cb[j].T)) \
                    .argmin(axis=1).astype(np.uint8)
        off = (np.arange(n + 1, dtype=np.int32) * m)
        code_arr = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(off.tobytes()),
             pa.py_buffer(codes.tobytes())])
        return pa.table({id_col: batch[id_col].cast(pa.int64()),
                         "pq_code": code_arr})

    return ds.map_batches(enc, batch_format="pyarrow")


def _codes_matrix(batch: pa.Table, m: int) -> np.ndarray:
    col = batch["pq_code"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off = np.frombuffer(col.buffers()[1], np.int32)
    lo = off[col.offset] if len(col) else 0
    hi = off[col.offset + len(col)] if len(col) else 0
    data = np.frombuffer(col.buffers()[2] or b"", np.uint8)[lo:hi]
    return data.reshape(len(col), m)


def pq_topk(codes_ds, codebooks: np.ndarray, queries: np.ndarray,
            k: int = 10, id_col: str = "vec_id",
            rerank_ds=None, shortlist: int | None = None,
            emb_col: str = "embedding"):
    """ADC top-k over PQ codes: per batch the score is m table lookups +
    a sum — no float math per vector — so the scan runs over ~m bytes
    per vector instead of 8·d (a 64-256x read/compute shrink; the PQ
    scale contract). Per-batch partial top-k, tiny driver merge.

    With ``rerank_ds`` (the original embedding table), the ADC pass
    returns a ``shortlist`` (default 4k) per query; the union of
    shortlists — k·q·4 ids, tiny — broadcasts as a filter and the final
    order is EXACT cosine over the re-read candidates (quantization
    error affects recall only, never the reported scores)."""
    mq, ks, dsub = codebooks.shape
    q = _normalize(np.asarray(queries, dtype=np.float64))
    # ADC tables: T[qi, j, c] = q_sub · codebook entry
    tables = np.einsum("qjd,jcd->qjc",
                       q.reshape(len(q), mq, dsub), codebooks)
    t_ref = ray.put(np.ascontiguousarray(tables))
    want = (shortlist or 4 * k) if rerank_ds is not None else k

    def partial(batch: pa.Table) -> pa.Table:
        t = ray.get(t_ref)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
        if not len(ids):
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        codes = _codes_matrix(batch, mq)
        cols = np.arange(mq)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(t)):
            sim = t[qi][cols, codes].sum(axis=1)  # (n,) via lookups
            kk = min(want, len(sim))
            top = np.argpartition(-sim, kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[top])
            out_s.append(sim[top])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    parts = codes_ds.map_batches(partial,
                                 batch_format="pyarrow").to_pandas()
    if rerank_ds is None:
        return _merge_topk(parts, k)
    # exact rerank: union of per-query shortlists -> map-side filter ->
    # exact brute-force cosine over the survivors only
    short = _merge_topk(parts, want).to_pandas()
    cand = np.unique(short["vec_id"].to_numpy(np.int64))
    cand_ref = ray.put(cand)  # sorted; tiny (<= q*shortlist ids)

    def keep(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        pos = np.searchsorted(cs, ids).clip(0, max(len(cs) - 1, 0))
        hit = (cs[pos] == ids) if len(cs) else np.zeros(len(ids), bool)
        return batch.filter(pa.array(hit))

    survivors = rerank_ds.map_batches(keep, batch_format="pyarrow")
    return topk_cosine(survivors, queries, k=k, id_col=id_col,
                       emb_col=emb_col)


# ---------------------------------------------------------------------------
# embedding hygiene: per-label centroid outliers
# ---------------------------------------------------------------------------

def _round_ratio_int(p: np.ndarray, q) -> np.ndarray:
    """Sign-aware ROUND-half-away of the exact rational p/q (q > 0) in
    pure integer arithmetic — no floats, so the SQL twin is bit-exact by
    construction."""
    ap = np.abs(p)
    r = (2 * ap + q) // (2 * q)
    return np.where(p < 0, -r, r).astype(np.int64)


def label_centroid_outliers(ds, label_col: str = "label",
                            emb_col: str = "embedding",
                            id_col: str = "vec_id",
                            threshold_micro: int = 800_000,
                            quant: int = 1000):
    """Embedding-hygiene pass: cosine of every vector to its OWN label's
    centroid, flagging vectors that sit far from their class (mislabeled
    / corrupted rows — the SemDeDup-era cluster-consistency check).

    Exactness contract (the module family's micro-unit discipline, but
    with NO order-dependent float reduction anywhere):

    1. components quantise to ``quant`` integer units
       (``ROUND(v·quant)``),
    2. per-label component sums are exact int64 in any addition order,
    3. the centroid re-quantises to the SAME scale by integer rational
       rounding (``ROUND(S_d / c)`` via ``(2|p|+q)//(2q)``) — bounded by
       the component range regardless of label size, so dot products and
       norms stay exact int64,
    4. one final double division + sqrt produces
       ``cos_micro = ROUND(1e6·dot/(√nq·√nm))`` — sqrt and one division
       are correctly-rounded IEEE ops, identical in numpy and DuckDB.

    Scale shape: batch partials emit ONE (label, count, int64-sum blob)
    row per (block × label); the driver reduce is exact in any order
    (integer sums), so unlike :func:`kmeans_fit` no bkey ordering is
    needed; quantised centroids broadcast once; one stateless pass
    scores every row. Labels are assumed driver-small (a class/cluster
    vocabulary, not a key domain).

    Output: ``(vec_id, label, cos_micro, is_outlier)``.
    """
    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "vsum": pa.array([], pa.binary())})
        emb = _emb_matrix(batch, emb_col)
        qv = np.trunc(emb * quant + 0.5 * np.sign(emb)).astype(np.int64)
        lab = np.asarray(batch[label_col].to_numpy(zero_copy_only=False),
                         np.int64)
        order = np.argsort(lab, kind="stable")
        sl, sq = lab[order], qv[order]
        starts = np.nonzero(np.r_[True, sl[1:] != sl[:-1]])[0]
        sums = np.add.reduceat(sq, starts, axis=0)
        cnts = np.diff(np.r_[starts, len(sl)])
        return pa.table({
            "label": pa.array(sl[starts], pa.int64()),
            "n": pa.array(cnts.astype(np.int64), pa.int64()),
            "vsum": pa.array([r.tobytes() for r in sums], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    labels_l, cent_l, nrm_l = [], [], []
    if len(parts):
        for lb, grp in parts.groupby("label", sort=True):
            s = None
            for buf in grp["vsum"]:
                v = np.frombuffer(buf, dtype=np.int64)
                s = v.copy() if s is None else s + v
            c = int(grp["n"].sum())
            m = _round_ratio_int(s, c)
            labels_l.append(int(lb))
            cent_l.append(m)
            nrm_l.append(int((m ** 2).sum()))
    lbl_arr = np.asarray(labels_l, np.int64)          # sorted (groupby)
    cm_mat = np.stack(cent_l) if cent_l else np.zeros((0, 1), np.int64)
    nm_arr = np.asarray(nrm_l, np.int64)
    import ray
    ref = ray.put((lbl_arr, cm_mat, nm_arr))

    def score(batch: pa.Table) -> pa.Table:
        lbl_arr, cm_mat, nm_arr = ray.get(ref)
        emb = _emb_matrix(batch, emb_col)
        qv = np.trunc(emb * quant + 0.5 * np.sign(emb)).astype(np.int64)
        lab = np.asarray(batch[label_col].to_numpy(zero_copy_only=False),
                         np.int64)
        n = len(lab)
        cos = np.zeros(n, np.int64)
        if n and len(lbl_arr):
            pos = np.clip(np.searchsorted(lbl_arr, lab), 0,
                          len(lbl_arr) - 1)
            known = lbl_arr[pos] == lab
            cm = cm_mat[pos]
            dot = (qv * cm).sum(axis=1)
            nq = (qv * qv).sum(axis=1)
            nm = np.where(known, nm_arr[pos], 0)
            ok = (nq > 0) & (nm > 0)
            val = np.zeros(n, np.float64)
            val[ok] = 1e6 * dot[ok].astype(np.float64) \
                / (np.sqrt(nq[ok].astype(np.float64))
                   * np.sqrt(nm[ok].astype(np.float64)))
            cos = np.trunc(val + 0.5 * np.sign(val)).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            label_col: batch[label_col],
            "cos_micro": pa.array(cos, pa.int64()),
            "is_outlier": pa.array(cos < threshold_micro, pa.bool_()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def label_centroid_outliers_sql(emb_table: str = "embeddings",
                                label_col: str = "label",
                                emb_col: str = "embedding",
                                id_col: str = "vec_id",
                                threshold_micro: int = 800_000,
                                quant: int = 1000) -> str:
    """DuckDB twin of :func:`label_centroid_outliers` (same integer
    quantisation chain)."""
    return f"""
        WITH q AS (SELECT {id_col}, {label_col} AS lb,
                          generate_subscripts({emb_col}, 1) AS i,
                          CAST(ROUND(CAST(unnest({emb_col}) AS DOUBLE)
                                     * {quant}) AS BIGINT) AS qv
                   FROM {emb_table}),
        cnt AS (SELECT {label_col} AS lb, COUNT(*) AS c
                FROM {emb_table} GROUP BY 1),
        s AS (SELECT lb, i, CAST(SUM(qv) AS BIGINT) AS sd
              FROM q GROUP BY lb, i),
        m AS (SELECT lb, i,
                     CAST(CASE WHEN sd < 0
                          THEN -((2 * (-sd) + c) // (2 * c))
                          ELSE (2 * sd + c) // (2 * c) END AS BIGINT)
                         AS md
              FROM s JOIN cnt USING (lb)),
        nm AS (SELECT lb, SUM(md * md) AS nm2 FROM m GROUP BY lb),
        per AS (SELECT q.{id_col}, q.lb,
                       SUM(q.qv * m.md) AS dot,
                       SUM(q.qv * q.qv) AS nq2
                FROM q JOIN m ON q.lb = m.lb AND q.i = m.i
                GROUP BY q.{id_col}, q.lb),
        fin AS (SELECT per.{id_col}, per.lb AS {label_col},
                       CASE WHEN nq2 > 0 AND nm2 > 0 THEN
                           CAST(ROUND(1000000
                                * CAST(dot AS DOUBLE)
                                / (sqrt(CAST(nq2 AS DOUBLE))
                                   * sqrt(CAST(nm2 AS DOUBLE))))
                                AS BIGINT)
                       ELSE 0 END AS cos_micro
                FROM per JOIN nm ON per.lb = nm.lb)
        SELECT e.{id_col}, CAST(e.{label_col} AS BIGINT) AS {label_col},
               COALESCE(f.cos_micro, 0) AS cos_micro,
               COALESCE(f.cos_micro, 0) < {threshold_micro}
                   AS is_outlier
        FROM {emb_table} e LEFT JOIN fin f USING ({id_col})
        ORDER BY e.{id_col}"""
