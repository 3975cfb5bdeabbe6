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
* **distributed**: every keyed step is one :func:`blocks.fold` on its
  real key with a per-partition segmented numpy body: canonical-dedup
  on the (a, b) pair, degrees via one keyed fold over the endpoint
  stream, degree attachment via co-partitioned joins (degree rows ride
  the same partition as the edge rows keyed by that endpoint — no
  broadcast), wedge emission via a per-u segmented CSR pass, and the
  closing-edge test via one two-sided fold (wedges, oriented edges) on
  the (v, w) pair with a compact-remap combined-key membership search.
  Nothing broadcasts, nothing collects; the documented volume contract
  is the O(m^1.5) wedge stream.

Output: ``(node, n_triangles)`` for EVERY node of the simple graph
(zero rows included). DuckDB twin: :func:`triangle_counts_sql` (the
same orientation as a three-way self-join).

No reference equivalent (pyrosm has no graph analytics beyond A9);
conventions follow stages/pagerank.py (driver policy, co-partitioned
folds) and stages/dedup.py (pair folds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pyrosm_ray.stages.blocks import co_join, fold, keyed_sum_fold, \
    unreserved

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
# distributed route — every keyed step is one per-partition segmented fold
# ---------------------------------------------------------------------------

def _int64_empty(*cols: str) -> pa.Table:
    return pa.table({c: pa.array([], pa.int64()) for c in cols})


def _distinct_canonical(edges, src_col: str, dst_col: str,
                        nb: int | None):
    def distinct(g: pa.Table) -> pa.Table:
        a = np.asarray(g["a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(g["b"].to_numpy(zero_copy_only=False), np.int64)
        a, b = _dedup_pairs(a, b)
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64())})

    return fold(edges.map_batches(
        lambda t: _canon_batch(t, src_col, dst_col),
        batch_format="pyarrow"), ["a", "b"], distinct, nb,
        _int64_empty("a", "b"))


def _attach_deg(rows, deg, key_col: str, out_col: str, cols: list[str],
                nb: int | None):
    """Attach ``deg[key_col]`` to every row (int64 ``cols``) as
    ``out_col`` without broadcasting: an inner :func:`co_join` of the
    rows with the degree table on the endpoint (every endpoint has a
    degree)."""
    return co_join(rows, deg.map_batches(
        lambda t: pa.table({key_col: t["node"], out_col: t["deg"]}),
        batch_format="pyarrow"), key_col, nb, _int64_empty(*cols, out_col))


def _triangles_distributed(edges, src_col: str, dst_col: str,
                           nb: int | None):
    canon = unreserved(
        _distinct_canonical(edges, src_col, dst_col, nb).materialize())

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64)])
        codes, uniq = pd.factorize(both)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "deg": pa.array(cnt, pa.int64())})

    deg = unreserved(keyed_sum_fold(
        canon.map_batches(deg_partial, batch_format="pyarrow"),
        "node", ["deg"], num_partitions=nb).materialize())

    # attach deg to both endpoints (two co-partitioned joins)
    with_da = _attach_deg(canon, deg, "a", "deg_a", ["a", "b"], nb)
    both = _attach_deg(with_da, deg, "b", "deg_b", ["a", "b", "deg_a"], nb)

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

    oriented = unreserved(
        both.map_batches(orient, batch_format="pyarrow").materialize())

    # wedges: fold on u, per-partition segmented CSR enumeration
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

    wedge_ds = fold(oriented, "u", wedge_fold, nb,
                    _int64_empty("v", "w", "u"))

    # closing-edge test: one two-sided fold of the wedges and the
    # oriented edges on the (v, w) pair; per partition one compact-remap
    # membership pass
    def close_fold(wedges: pa.Table, es: pa.Table) -> pa.Table | None:
        if not wedges.num_rows or not es.num_rows:
            return None
        v = np.asarray(wedges["v"].to_numpy(zero_copy_only=False), np.int64)
        w = np.asarray(wedges["w"].to_numpy(zero_copy_only=False), np.int64)
        hit = _pair_member(
            np.asarray(es["v"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(es["w"].to_numpy(zero_copy_only=False), np.int64),
            v, w)
        allv = np.concatenate([np.asarray(wedges["u"].to_numpy(
            zero_copy_only=False), np.int64)[hit], v[hit], w[hit]])
        codes, uniq = pd.factorize(allv)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "n_triangles": pa.array(cnt, pa.int64()),
                         "deg": pa.array(np.zeros(len(uniq), np.int64),
                                         pa.int64())})

    tri = fold((wedge_ds, oriented.map_batches(
        lambda t: pa.table({"v": t["u"], "w": t["v"]}),
        batch_format="pyarrow")), ["v", "w"], close_fold, nb,
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
    edges = unreserved(edges.materialize())
    if edges.count() <= TRI_DRIVER_MAX:
        parts = [_canon_batch(pa.table(b), src_col, dst_col)
                 for b in edges.iter_batches(batch_format="pyarrow")]
        parts = [t for t in parts if t.num_rows]
        if not parts:
            return unreserved(rd.from_arrow(_EMPTY))
        t = pa.concat_tables(parts)
        a, b = _dedup_pairs(
            np.asarray(t["a"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t["b"].to_numpy(zero_copy_only=False), np.int64))
        return unreserved(rd.from_arrow(_triangles_np(a, b)))
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
