"""Exact per-vertex triangle counting (graph clustering-coefficient core).

The classic degree-ordered algorithm (Latapy 2008; the compact-forward /
MapReduce "NodeIterator++" shape of Suri & Vassilvitskii 2011): orient
every undirected edge from its (degree, id)-smaller endpoint to the
larger, so each triangle {x, y, z} is counted EXACTLY once as a wedge
(u→v, u→w) closed by the oriented edge (v→w), with u the
degree-order-minimal corner. Orientation bounds every out-list by
O(√m), so the wedge volume is O(m^1.5) — the standard bound — instead
of Σ deg² (hub-quadratic).

Two routes, output-identical (route-parity-tested):

* **driver** (edge count ≤ :data:`TRI_DRIVER_MAX`): edges collect once;
  degree, orientation, CSR, wedge enumeration and the closing-edge
  membership test are all pure numpy — the wedge pair list is built
  with the concatenated-ranges trick (repeat + cumsum arithmetic, no
  Python loop, no float unranking).
* **distributed**: every keyed step is a MANUAL hash-bucket + one
  per-partition segmented numpy fold (the keyed_sum_fold policy — Ray's
  per-distinct-key map_groups is the documented 7x pathology on large
  key domains): canonical-dedup by pair-hash bucket, degrees via one
  keyed fold over the endpoint stream, degree attachment via
  co-partitioned union-folds (degree rows ride the same bucket as the
  edge rows keyed by that endpoint — the pagerank_partitioned idiom, no
  broadcast), wedge emission via a u-bucketed segmented CSR pass, and
  the closing-edge test via one union-fold keyed by the (v, w) pair
  hash with a compact-remap combined-key membership search. Nothing
  broadcasts, nothing collects; the documented volume contract is the
  O(m^1.5) wedge stream.

Output: ``(node, n_triangles)`` for EVERY node of the simple graph
(zero rows included). DuckDB twin: :func:`triangle_counts_sql` (the
same orientation as a three-way self-join).

No reference equivalent (pyrosm has no graph analytics beyond A9);
conventions follow stages/pagerank.py (driver policy, union-fold
co-partitioning) and stages/dedup.py (bucketed pair folds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pyrosm_ray.stages.blocks import exchange, groupby_partitions, \
    keyed_sum_fold
from pyrosm_ray.stages.hashing import hash64

TRI_DRIVER_MAX = 1 << 21   # canonical edges (16 B/row) the driver collects

_EMPTY = pa.table({"node": pa.array([], pa.int64()),
                   "n_triangles": pa.array([], pa.int64()),
                   "deg": pa.array([], pa.int64()),
                   "cc_micro": pa.array([], pa.int64())})


def _cc_micro(tri: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Local clustering coefficient 2T/(d(d-1)) in exact integer
    micro-units: ROUND-half-away of the rational p/q computed as
    (2p+q)//(2q) — no floats anywhere, so the SQL twin is bit-exact by
    construction."""
    q = deg * (deg - 1)
    p = 2_000_000 * tri
    out = np.zeros(len(tri), np.int64)
    ok = q > 0
    out[ok] = (2 * p[ok] + q[ok]) // (2 * q[ok])
    return out


# ---------------------------------------------------------------------------
# shared kernels
# ---------------------------------------------------------------------------

def _canon_batch(b: pa.Table, src_col: str, dst_col: str) -> pa.Table:
    """(min, max) canonical endpoints, self-loops dropped, batch-local
    distinct."""
    s = np.asarray(b[src_col].to_numpy(zero_copy_only=False), np.int64)
    d = np.asarray(b[dst_col].to_numpy(zero_copy_only=False), np.int64)
    m = s != d
    s, d = s[m], d[m]
    a = np.minimum(s, d)
    bb = np.maximum(s, d)
    a, bb = _dedup_pairs(a, bb)
    return pa.table({"a": pa.array(a, pa.int64()),
                     "b": pa.array(bb, pa.int64())})


def _dedup_pairs(a: np.ndarray, b: np.ndarray):
    if len(a):
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.ones(len(a), bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[keep], b[keep]
    return a, b


def _pairs_of_sorted(nbr: np.ndarray, indptr: np.ndarray):
    """All within-row ordered pairs of a CSR whose rows are sorted:
    returns (row_idx, first, second) via the concatenated-ranges trick
    (exact integer arithmetic, no Python loops)."""
    k = np.diff(indptr).astype(np.int64)
    n_rows = len(k)
    pos = np.arange(len(nbr), dtype=np.int64) - np.repeat(indptr[:-1], k)
    reps = np.repeat(k, k) - 1 - pos
    first = np.repeat(nbr, reps)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), k)
    row_idx = np.repeat(rows, reps)
    starts = np.repeat(np.arange(len(nbr), dtype=np.int64) + 1, reps)
    blk = np.zeros(len(reps) + 1, np.int64)
    np.cumsum(reps, out=blk[1:])
    within = np.arange(int(blk[-1]), dtype=np.int64) - \
        np.repeat(blk[:-1], reps)
    second = nbr[starts + within]
    return row_idx, first, second


def _pair_member(ev: np.ndarray, ew: np.ndarray,
                 qv: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """Vectorised (qv, qw) ∈ {(ev, ew)} membership: compact-remap both
    coordinates (per-call factorize, so the combined int64 key cannot
    overflow), sort once, one searchsorted."""
    if not len(ev) or not len(qv):
        return np.zeros(len(qv), bool)
    vv, v_uniq = pd.factorize(np.concatenate([ev, qv]))
    ww, w_uniq = pd.factorize(np.concatenate([ew, qw]))
    m = np.int64(len(w_uniq))
    key_e = vv[:len(ev)].astype(np.int64) * m + ww[:len(ew)]
    key_q = vv[len(ev):].astype(np.int64) * m + ww[len(ew):]
    key_e = np.sort(key_e)
    pos = np.searchsorted(key_e, key_q)
    pos = np.clip(pos, 0, len(key_e) - 1)
    return key_e[pos] == key_q


def _bucket_col(x: np.ndarray, nb: int, seed: int = 29) -> np.ndarray:
    return (hash64(x.view(np.uint64), seed)
            % np.uint64(nb)).astype(np.int64)


def _pair_bucket(v: np.ndarray, w: np.ndarray, nb: int) -> np.ndarray:
    h = hash64(v.view(np.uint64), 29) ^ hash64(w.view(np.uint64), 31)
    return (h % np.uint64(nb)).astype(np.int64)


# ---------------------------------------------------------------------------
# driver route
# ---------------------------------------------------------------------------

def _triangles_np(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Exact per-vertex triangle counts over distinct canonical edges."""
    if not len(a):
        return _EMPTY
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[:len(a)], inv[len(a):]
    n = len(nodes)
    deg = np.bincount(np.concatenate([ia, ib]), minlength=n)
    # degree-order rank: position under sort by (deg, node-id)
    rank = np.empty(n, np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ra, rb = rank[ia], rank[ib]
    u = np.where(ra < rb, ra, rb)
    v = np.where(ra < rb, rb, ra)
    # CSR over u with out-lists sorted by rank
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    if n >= (1 << 31):
        raise ValueError("driver route caps at 2^31 nodes")
    ekey = u * n + v              # already sorted (lexsort order)
    row, w1, w2 = _pairs_of_sorted(v, indptr)
    wkey = w1 * n + w2
    pos = np.searchsorted(ekey, wkey)
    pos = np.clip(pos, 0, max(len(ekey) - 1, 0))
    hit = ekey[pos] == wkey
    cnt = np.zeros(n, np.int64)
    for arr in (row[hit], w1[hit], w2[hit]):
        np.add.at(cnt, arr, 1)
    tri = cnt[rank]
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "n_triangles": pa.array(tri, pa.int64()),
                     "deg": pa.array(deg.astype(np.int64), pa.int64()),
                     "cc_micro": pa.array(_cc_micro(tri, deg),
                                          pa.int64())})


# ---------------------------------------------------------------------------
# distributed route — every keyed step is a manual bucket + one
# per-partition segmented fold
# ---------------------------------------------------------------------------

def _int64_empty(*cols: str) -> pa.Table:
    return pa.table({c: pa.array([], pa.int64()) for c in cols})


def _bucketed(ds, bucket_fn, fold_fn, nb: int, empty: pa.Table):
    return exchange(ds.map_batches(bucket_fn, batch_format="pyarrow"),
                    "__q", fold_fn, nb, empty)


def _distinct_canonical(edges, src_col: str, dst_col: str, nb: int):
    def bucket(t: pa.Table) -> pa.Table:
        t = _canon_batch(t, src_col, dst_col)
        a = np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64)
        return t.append_column("__q", pa.array(_pair_bucket(a, b, nb)))

    def fold(g: pa.Table) -> pa.Table:
        a = np.asarray(g["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(g["b"].to_numpy(zero_copy_only=False), np.int64)
        a, b = _dedup_pairs(a, b)
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64())})

    return _bucketed(edges, bucket, fold, nb, _int64_empty("a", "b"))


def _attach_deg(rows, deg, key_col: str, keep: list[str], out_col: str,
                nb: int):
    """Attach ``deg[key_col]`` to every row as ``out_col`` without
    broadcasting: degree rows ride the same key bucket, one factorize
    scatter per partition resolves every row's lookup."""
    def tag_rows(t: pa.Table) -> pa.Table:
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False),
                       np.int64)
        cols = {"k": pa.array(k, pa.int64()),
                "__deg": pa.array(np.full(t.num_rows, -1, np.int64),
                                  pa.int64()),
                "__q": pa.array(_bucket_col(k, nb))}
        for c in keep:
            cols[c] = t[c]
        return pa.table(cols)

    def tag_deg(t: pa.Table) -> pa.Table:
        k = np.asarray(t["node"].to_numpy(zero_copy_only=False),
                       np.int64)
        z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        cols = {"k": pa.array(k, pa.int64()), "__deg": t["deg"],
                "__q": pa.array(_bucket_col(k, nb))}
        for c in keep:
            cols[c] = z
        return pa.table(cols)

    u = rows.map_batches(tag_rows, batch_format="pyarrow") \
        .union(deg.map_batches(tag_deg, batch_format="pyarrow"))

    def fold(g: pa.Table) -> pa.Table:
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), np.int64)
        d = np.asarray(g["__deg"].to_numpy(zero_copy_only=False),
                       np.int64)
        is_deg = d >= 0
        codes, uniq = pd.factorize(k)
        dv = np.zeros(len(uniq), np.int64)
        dv[codes[is_deg]] = d[is_deg]
        m = ~is_deg
        sel = pa.array(m)
        cols = {c: g[c].filter(sel) for c in keep}
        cols[key_col] = g["k"].filter(sel)
        cols[out_col] = pa.array(dv[codes[m]], pa.int64())
        return pa.table(cols)

    return exchange(u, "__q", fold, nb,
                    _int64_empty(*keep, key_col, out_col))


def _triangles_distributed(edges, src_col: str, dst_col: str,
                           num_partitions: int | None):
    nb = num_partitions or groupby_partitions()
    canon = _distinct_canonical(edges, src_col, dst_col, nb) \
        .materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64)])
        codes, uniq = pd.factorize(both)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "deg": pa.array(cnt, pa.int64())})

    deg = keyed_sum_fold(
        canon.map_batches(deg_partial, batch_format="pyarrow"),
        "node", ["deg"], num_partitions=nb).materialize()

    # attach deg to both endpoints (two co-partitioned union-folds)
    with_da = _attach_deg(canon, deg, "a", ["b"], "deg_a", nb)
    both = _attach_deg(with_da, deg, "b", ["a", "deg_a"], "deg_b", nb)

    def orient(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64)
        da = np.asarray(t["deg_a"].to_numpy(zero_copy_only=False),
                        np.int64)
        db = np.asarray(t["deg_b"].to_numpy(zero_copy_only=False),
                        np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table({
            "u": pa.array(np.where(a_first, a, b), pa.int64()),
            "v": pa.array(np.where(a_first, b, a), pa.int64()),
            "dv": pa.array(np.where(a_first, db, da), pa.int64())})

    oriented = both.map_batches(orient,
                                batch_format="pyarrow").materialize()

    # wedges: bucket by u, per-partition segmented CSR enumeration
    def bucket_u(t: pa.Table) -> pa.Table:
        u = np.asarray(t["u"].to_numpy(zero_copy_only=False), np.int64)
        return t.append_column("__q", pa.array(_bucket_col(u, nb)))

    def wedge_fold(g: pa.Table) -> pa.Table:
        u = np.asarray(g["u"].to_numpy(zero_copy_only=False), np.int64)
        v = np.asarray(g["v"].to_numpy(zero_copy_only=False), np.int64)
        dv = np.asarray(g["dv"].to_numpy(zero_copy_only=False), np.int64)
        codes, uniq = pd.factorize(u)
        order = np.lexsort((v, dv, codes))
        vs = v[order]
        cs = codes[order]
        indptr = np.zeros(len(uniq) + 1, np.int64)
        np.cumsum(np.bincount(cs, minlength=len(uniq)), out=indptr[1:])
        row, w1, w2 = _pairs_of_sorted(vs, indptr)
        return pa.table({"v": pa.array(w1, pa.int64()),
                         "w": pa.array(w2, pa.int64()),
                         "u": pa.array(uniq[row], pa.int64())})

    wedge_ds = _bucketed(oriented, bucket_u, wedge_fold, nb,
                         _int64_empty("v", "w", "u"))

    # closing-edge test: union wedges with oriented edges keyed by the
    # (v, w) pair hash; per partition one compact-remap membership pass
    def key_wedge(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.int64)
        w = np.asarray(t["w"].to_numpy(zero_copy_only=False), np.int64)
        return t.append_column("__q", pa.array(_pair_bucket(v, w, nb)))

    def key_edge(t: pa.Table) -> pa.Table:
        v = np.asarray(t["u"].to_numpy(zero_copy_only=False), np.int64)
        w = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.int64)
        return pa.table({
            "v": pa.array(v, pa.int64()),
            "w": pa.array(w, pa.int64()),
            "u": pa.array(np.full(len(v), -1, np.int64), pa.int64()),
            "__q": pa.array(_pair_bucket(v, w, nb))})

    u3 = wedge_ds.map_batches(key_wedge, batch_format="pyarrow") \
        .union(oriented.map_batches(key_edge, batch_format="pyarrow"))

    def close_fold(g: pa.Table) -> pa.Table:
        v = np.asarray(g["v"].to_numpy(zero_copy_only=False), np.int64)
        w = np.asarray(g["w"].to_numpy(zero_copy_only=False), np.int64)
        uu = np.asarray(g["u"].to_numpy(zero_copy_only=False), np.int64)
        is_edge = uu < 0
        hit = _pair_member(v[is_edge], w[is_edge],
                           v[~is_edge], w[~is_edge])
        t_u = uu[~is_edge][hit]
        t_v = v[~is_edge][hit]
        t_w = w[~is_edge][hit]
        allv = np.concatenate([t_u, t_v, t_w])
        codes, uniq = pd.factorize(allv)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "n_triangles": pa.array(cnt, pa.int64()),
                         "deg": pa.array(np.zeros(len(uniq), np.int64),
                                         pa.int64())})

    tri = exchange(u3, "__q", close_fold, nb,
                   _int64_empty("node", "n_triangles", "deg"))

    # degree rows carry (n_triangles=0, deg) so ONE fold sums both and
    # every node appears in the output
    def degrows(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "n_triangles": pa.array(
                             np.zeros(t.num_rows, np.int64), pa.int64()),
                         "deg": t["deg"]})

    summed = keyed_sum_fold(
        tri.union(deg.map_batches(degrows, batch_format="pyarrow")),
        "node", ["n_triangles", "deg"], num_partitions=nb)

    def with_cc(t: pa.Table) -> pa.Table:
        tri_v = np.asarray(t["n_triangles"].to_numpy(
            zero_copy_only=False), np.int64)
        dg = np.asarray(t["deg"].to_numpy(zero_copy_only=False),
                        np.int64)
        return t.append_column("cc_micro",
                               pa.array(_cc_micro(tri_v, dg), pa.int64()))

    return summed.map_batches(with_cc, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def triangle_counts(edges, src_col: str = "src", dst_col: str = "dst",
                    num_partitions: int | None = None):
    """Per-vertex exact triangle counts of the undirected simple graph
    induced by the (directed, possibly duplicated) edge Dataset. See the
    module docstring for the algorithm and routes."""
    import ray.data as rd

    # the route gate needs a count and both routes re-read the edges, so
    # materialize once (narrow rows; the object store spills if big)
    edges = edges.materialize()
    if edges.count() <= TRI_DRIVER_MAX:
        parts = [_canon_batch(pa.table(b), src_col, dst_col)
                 for b in edges.iter_batches(batch_format="pyarrow")]
        parts = [t for t in parts if t.num_rows]
        if not parts:
            return rd.from_arrow(_EMPTY)
        t = pa.concat_tables(parts)
        a, b = _dedup_pairs(
            np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64))
        return rd.from_arrow(_triangles_np(a, b))
    return _triangles_distributed(edges, src_col, dst_col, num_partitions)


def triangle_counts_sql(edges_cte: str) -> str:
    """DuckDB twin: ``edges_cte`` must define ``edges(src, dst)``;
    orientation and wedge close as a three-way self-join."""
    return f"""
        WITH {edges_cte},
        e0 AS (SELECT DISTINCT LEAST(src, dst) AS a,
                               GREATEST(src, dst) AS b
               FROM edges WHERE src <> dst),
        dg AS (SELECT v AS node, COUNT(*) AS deg FROM (
                   SELECT a AS v FROM e0
                   UNION ALL SELECT b AS v FROM e0) GROUP BY v),
        o AS (SELECT CASE WHEN (da.deg < db.deg)
                            OR (da.deg = db.deg AND a < b)
                          THEN a ELSE b END AS u,
                     CASE WHEN (da.deg < db.deg)
                            OR (da.deg = db.deg AND a < b)
                          THEN b ELSE a END AS v
              FROM e0 JOIN dg da ON da.node = a
                      JOIN dg db ON db.node = b),
        ro AS (SELECT o.u, o.v, dv.deg AS dv FROM o
                   JOIN dg dv ON dv.node = o.v),
        tri AS (SELECT e1.u AS x, e1.v AS y, e2.v AS z
                FROM ro e1 JOIN ro e2 ON e1.u = e2.u
                     AND ((e1.dv < e2.dv)
                          OR (e1.dv = e2.dv AND e1.v < e2.v))
                JOIN o e3 ON e3.u = e1.v AND e3.v = e2.v),
        cnt AS (SELECT v AS node, COUNT(*) AS n FROM (
                    SELECT x AS v FROM tri
                    UNION ALL SELECT y AS v FROM tri
                    UNION ALL SELECT z AS v FROM tri) GROUP BY v),
        fin AS (SELECT dg.node,
                       CAST(COALESCE(cnt.n, 0) AS BIGINT)
                           AS n_triangles,
                       CAST(dg.deg AS BIGINT) AS deg
                FROM dg LEFT JOIN cnt USING (node))
        SELECT node, n_triangles, deg,
               CAST(CASE WHEN deg >= 2 THEN
                    (2 * (2000000 * n_triangles) + deg * (deg - 1))
                        // (2 * deg * (deg - 1))
                    ELSE 0 END AS BIGINT) AS cc_micro
        FROM fin ORDER BY node"""
