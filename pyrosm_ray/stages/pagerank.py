"""Link-graph centrality over web-scale corpora: click-graph PageRank.

Web curation pipelines rank hosts/pages by graph centrality (crawl
prioritisation, spam demotion, quality weighting for mixture sampling).
This module derives a click graph from an event stream (consecutive
events of the same user = a directed edge between the pages' nodes) and
runs an integer-exact PageRank over it.

Execution shape:

- ``click_edges``: ONE raw-task fold on the user co-partitions each
  user's whole stream (the :mod:`pyrosm_ray.stages.windows` pattern —
  per-partition segmented numpy, no per-user Python); consecutive-pair
  edges then dedupe through one fold on the (src, dst) pair, so
  exchanged bytes are bounded by distinct edges.
- ``pagerank``: one gate over two routes. Edge sets up to
  :data:`EDGES_DRIVER_MAX` collect once and iterate in numpy on the
  driver; larger ones run :func:`pagerank_partitioned`, a Pregel-style
  BSP loop over hash-co-partitioned Arrow shards on raw Ray tasks
  (edges partition by src once; each iteration routes pre-aggregated
  per-dst partial sums between shards as refs, so neither the edges
  nor the rank vector pass through the driver).

Exactness contract: ranks are integer micro-units. With damping d=0.85,

    r_0(v)    = 1_000_000
    r_{k+1}(v) = 150_000 + Σ_{u→v} (85·r_k(u)) // (100·outdeg(u))

— floor division and int64 sums are associative, so the DuckDB twin
(iterations unrolled as chained CTEs) matches bit-for-bit in any
execution order. Dangling nodes (outdeg 0) contribute nothing (the
leaked-mass variant; both sides share the rule). Self-edges are
dropped; edges are distinct.

Public-knowledge note: PageRank per Brin & Page (1998); the reference
repo has no graph-centrality operator — this extends the engine for the
web-corpus tier (BASELINE.json north_rule).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from pyrosm_ray.stages.blocks import Blocks, dataset, fold, unreserved, \
    with_meta

R0_MICRO = 1_000_000
TELEPORT_MICRO = 150_000     # (1-d) = 0.15
DAMP_NUM, DAMP_DEN = 85, 100  # d = 0.85


def event_nodes(ds, props_col: str = "props", out_col: str = "node"):
    """Append the integer node id parsed from the props JSON (first
    integer in the payload — DuckDB twin: regexp_extract(props,
    '\\d+'))."""
    def parse(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b[props_col], r"(?P<k>\d+)")
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return b.append_column(out_col, k)

    return ds.map_batches(parse, batch_format="pyarrow")


EVENTS_DRIVER_MAX = 1 << 21  # 32 B/event -> <=64 MB collects to the driver


def click_edges(ds, user_col: str = "user_id", ts_col: str = "ts",
                node_col: str = "node", order_col: str = "event_id",
                num_partitions: int | None = None):
    """Distinct (src, dst) edges between consecutive events of the same
    user ((ts, order_col) order; self-edges dropped).

    Event streams under :data:`EVENTS_DRIVER_MAX` rows collect and fold
    once on the driver (the dedup-family driver policy — two shuffles'
    fixed cost dominates at that size); the per-user fold below is the
    10^12-event shape. Identical output, route-parity-tested."""
    empty = pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64())})

    def per_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g[user_col].to_numpy(zero_copy_only=False),
                       np.int64)
        ts = np.asarray(g[ts_col].to_numpy(zero_copy_only=False)
                        ).astype("datetime64[us]").view(np.int64)
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                         np.int64)
        node = np.asarray(g[node_col].to_numpy(zero_copy_only=False),
                          np.int64)
        order = np.lexsort((oid, ts, u))
        u_s, n_s = u[order], node[order]
        same_user = u_s[1:] == u_s[:-1]
        src, dst = n_s[:-1][same_user], n_s[1:][same_user]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # batch-local dedupe before the wire
        o2 = np.lexsort((dst, src))
        src, dst = src[o2], dst[o2]
        first = np.ones(len(src), bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return pa.table({"src": pa.array(src[first], pa.int64()),
                         "dst": pa.array(dst[first], pa.int64())})

    # materialize once: the count and the chosen route read the same
    # blocks, so the upstream plan runs once
    ds = unreserved(ds.select_columns([user_col, ts_col, node_col,
                                       order_col]).materialize())
    if ds.count() <= EVENTS_DRIVER_MAX:
        import ray.data as rd
        parts = [pa.table(b) for b in
                 ds.iter_batches(batch_size=1 << 18, batch_format="pyarrow")]
        tbl = pa.concat_tables(parts) if parts else None
        if tbl is None or not len(tbl):
            return unreserved(rd.from_arrow(empty))
        # the whole stream is one partition: the fold body already
        # dedupes, so its single-pass output IS the distinct edge set
        return unreserved(rd.from_arrow(per_part(tbl)))

    pairs = fold(ds, user_col, per_part, num_partitions, empty)
    return _distinct_edges(pairs, num_partitions)


def _distinct_edges(pairs, nb: int | None):
    """Global distinct over (src, dst) int64 edges: one fold on the
    pair (same shape as the dedup family's _distinct_pairs; bytes
    bounded by distinct edges)."""
    empty = pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64())})

    def distinct(g: pa.Table) -> pa.Table:
        s = np.asarray(g["src"].to_numpy(zero_copy_only=False), np.int64)
        d = np.asarray(g["dst"].to_numpy(zero_copy_only=False), np.int64)
        o = np.lexsort((d, s))
        s, d = s[o], d[o]
        first = np.ones(len(s), bool)
        first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        return pa.table({"src": pa.array(s[first], pa.int64()),
                         "dst": pa.array(d[first], pa.int64())})

    return fold(pairs, ["src", "dst"], distinct, nb, empty)


EDGES_DRIVER_MAX = 1 << 22  # 16 B/edge -> <=64 MB collects to the driver


def _ranks(nodes, rank) -> pa.Table:
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "rank_micro": pa.array(rank, pa.int64())})


def pagerank(edges, iters: int = 5, src_col: str = "src",
             dst_col: str = "dst", tol_micro: int | None = None,
             stats: dict | None = None):
    """Integer-exact PageRank over a distinct edge Dataset.

    Returns (node, rank_micro) for every node appearing as src or dst.
    Edge sets up to :data:`EDGES_DRIVER_MAX` collect once and iterate
    in pure numpy (one Ray job total — the BSP route's per-iteration
    task rounds dominate at that size). Larger edge sets run
    :func:`pagerank_partitioned`. Both routes execute the identical
    integer recurrence and are parity-tested.

    ``tol_micro``: optional convergence stop — iterate at most ``iters``
    times but stop early once the L1 delta of the integer rank vector,
    sum(|rank_i - rank_{i-1}|), falls to ``tol_micro`` or below. The
    delta is a deterministic integer, so every route adapts to the SAME
    iteration count (route parity preserved by construction). Pass
    ``stats={}`` to receive ``iterations`` (and ``l1_delta_micro``)."""
    import ray.data as rd

    edges = unreserved(edges.materialize())
    if edges.count() > EDGES_DRIVER_MAX:
        return pagerank_partitioned(edges, iters, src_col, dst_col,
                                    tol_micro=tol_micro, stats=stats)
    parts = [pa.table(b) for b in
             edges.select_columns([src_col, dst_col]).iter_batches(
                 batch_size=1 << 18, batch_format="pyarrow")]
    tbl = pa.concat_tables(parts) if parts else None
    if tbl is None or not len(tbl):
        return unreserved(rd.from_arrow(_ranks([], [])))
    s = np.asarray(tbl[src_col].to_numpy(zero_copy_only=False), np.int64)
    d = np.asarray(tbl[dst_col].to_numpy(zero_copy_only=False), np.int64)
    nodes = np.unique(np.concatenate([s, d]))
    deg = np.zeros(len(nodes), np.int64)
    si = np.searchsorted(nodes, s)
    di = np.searchsorted(nodes, d)
    np.add.at(deg, si, 1)
    rank = np.full(len(nodes), R0_MICRO, dtype=np.int64)
    it_done = 0
    delta = None
    for _ in range(iters):
        c = (DAMP_NUM * rank[si]) // (DAMP_DEN * deg[si])
        nxt = np.full(len(nodes), TELEPORT_MICRO, dtype=np.int64)
        np.add.at(nxt, di, c)
        delta = int(np.abs(nxt - rank).sum())
        rank = nxt
        it_done += 1
        if tol_micro is not None and delta <= tol_micro:
            break
    if stats is not None:
        stats["iterations"] = it_done
        stats["l1_delta_micro"] = delta
    return unreserved(rd.from_arrow(_ranks(nodes, rank)))


def host_edges(links, url_col: str = "url", href_col: str = "href",
               num_partitions: int | None = None):
    """Distinct (src_host, dst_host) string edges from an outlink table
    (e.g. :func:`pyrosm_ray.stages.extract.extract_links` output).
    Relative hrefs (no scheme://host) and self-host links drop."""
    from pyrosm_ray.stages.urls import extract_host_batch

    def hosts(b: pa.Table) -> pa.Table:
        b = extract_host_batch(b, url_col=url_col, out_col="src_host")
        b = extract_host_batch(b, url_col=href_col, out_col="dst_host")
        import pyarrow.compute as pc
        keep = pc.and_(
            pc.and_(pc.not_equal(b["src_host"], ""),
                    pc.not_equal(b["dst_host"], "")),
            pc.not_equal(b["src_host"], b["dst_host"]))
        b = b.filter(keep)
        # batch-local distinct before the wire
        import pandas as pd
        df = pd.DataFrame({"src_host": b["src_host"].to_pylist(),
                           "dst_host": b["dst_host"].to_pylist()})
        df = df.drop_duplicates()
        return pa.table({
            "src_host": pa.array(df["src_host"].to_numpy(), pa.string()),
            "dst_host": pa.array(df["dst_host"].to_numpy(), pa.string()),
        })

    pairs = links.map_batches(hosts, batch_format="pyarrow")

    # global distinct: one fold on the host pair
    def fold_s(g: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({"src_host": g["src_host"].to_pylist(),
                           "dst_host": g["dst_host"].to_pylist()})
        df = df.drop_duplicates()
        return pa.table({
            "src_host": pa.array(df["src_host"].to_numpy(), pa.string()),
            "dst_host": pa.array(df["dst_host"].to_numpy(), pa.string()),
        })

    return fold(pairs, ["src_host", "dst_host"], fold_s, num_partitions,
                pa.table({"src_host": pa.array([], pa.string()),
                          "dst_host": pa.array([], pa.string())}))


def pagerank_named(edges, iters: int = 5, src_col: str = "src_host",
                   dst_col: str = "dst_host",
                   tol_micro: int | None = None,
                   stats: dict | None = None):
    """PageRank over STRING-named nodes (hosts): names hash to int64
    through :func:`pyrosm_ray.stages.hashing.stable64_many` (the
    64-bit id contract — ~10^-4 collision odds even at 10^8 hosts),
    :func:`pagerank` runs the integer recurrence, and names map back
    through a broadcast (hash -> name) table collected under the same
    node-bounded contract as the rank vector itself.
    -> (host, rank_micro)."""
    from pyrosm_ray.stages.hashing import stable64_many

    def hash_edges(b: pa.Table) -> pa.Table:
        s = stable64_many(b[src_col])
        d = stable64_many(b[dst_col])
        return pa.table({"src": pa.array(s.view(np.int64), pa.int64()),
                         "dst": pa.array(d.view(np.int64), pa.int64())})

    hashed = unreserved(edges.materialize())

    # (hash, name) map: batch-distinct partials collect on the driver
    def name_rows(b: pa.Table) -> pa.Table:
        names = list(dict.fromkeys(b[src_col].to_pylist()
                                   + b[dst_col].to_pylist()))
        h = stable64_many(names)
        return pa.table({"h": pa.array(h.view(np.int64), pa.int64()),
                         "name": pa.array(names, pa.string())})

    hs, nms = [], []
    for b in hashed.map_batches(name_rows, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        hs.append(np.asarray(b["h"].to_numpy(zero_copy_only=False),
                             np.int64))
        nms.append(np.asarray(b["name"].to_pylist(), dtype=object))
    if hs:
        hv = np.concatenate(hs)
        nv = np.concatenate(nms)
        o = np.argsort(hv, kind="stable")
        hv, nv = hv[o], nv[o]
        first = np.ones(len(hv), bool)
        first[1:] = hv[1:] != hv[:-1]
        hv, nv = hv[first], nv[first]
    else:
        hv = np.empty(0, np.int64)
        nv = np.empty(0, dtype=object)
    name_ref = ray.put((hv, nv))

    ranks = pagerank(hashed.map_batches(hash_edges,
                                        batch_format="pyarrow"),
                     iters=iters, tol_micro=tol_micro, stats=stats)

    def attach(b: pa.Table) -> pa.Table:
        h, n = ray.get(name_ref)
        node = np.asarray(b["node"].to_numpy(zero_copy_only=False),
                          np.int64)
        pos = np.clip(np.searchsorted(h, node), 0, max(len(h) - 1, 0))
        return pa.table({
            "host": pa.array(n[pos] if len(n) else
                             np.empty(0, object), pa.string()),
            "rank_micro": b["rank_micro"],
        })

    return ranks.map_batches(attach, batch_format="pyarrow")


# BSP shard sizing: shards grow to ~1M edges before adding parts. The
# driver holds nb^2 SMALL refs per iteration (dst-bucketed partial-sum
# tables), so the part count caps at 256 (64 k refs/iter); past that the
# shards grow instead.
PAGERANK_BSP_ROWS_PER_SHARD = 1 << 20
PAGERANK_BSP_MAX_PARTS = 256


def _pr_bucket_ids(x: np.ndarray, nb: int) -> np.ndarray:
    from pyrosm_ray.stages.hashing import hash64
    h = hash64(np.ascontiguousarray(x, np.int64).view(np.uint64), 13)
    return (h % np.uint64(nb)).astype(np.int64)


def _pr_shard_block(tbl: pa.Table, src_col: str, dst_col: str, nb: int):
    """Split one edge block into nb (src_arr, dst_arr, dst_nodes) parts:
    edges routed by h(src), the dst-node universe routed by h(dst)."""
    s = np.asarray(tbl[src_col].to_numpy(zero_copy_only=False), np.int64)
    d = np.asarray(tbl[dst_col].to_numpy(zero_copy_only=False), np.int64)
    eb = _pr_bucket_ids(s, nb)
    db = _pr_bucket_ids(d, nb)
    eo = np.argsort(eb, kind="stable")
    ecut = np.searchsorted(eb[eo], np.arange(nb + 1))
    do = np.argsort(db, kind="stable")
    dcut = np.searchsorted(db[do], np.arange(nb + 1))
    outs = []
    for i in range(nb):
        ei = eo[ecut[i]:ecut[i + 1]]
        di = do[dcut[i]:dcut[i + 1]]
        outs.append((s[ei], d[ei], np.unique(d[di])))
    return tuple(outs) if nb > 1 else outs[0]


def _pr_init_shard(nb: int, *parts):
    """Build one bucket's static plan + initial rank vector.

    Static = (sorted node universe, outdeg, per-dst-bucket contribution
    plan). The plan pre-factorizes each edge's src position and dst code
    ONCE, so each iteration's contrib task is three numpy kernels."""
    if parts:
        s = np.concatenate([p[0] for p in parts])
        d = np.concatenate([p[1] for p in parts])
        dn = np.concatenate([p[2] for p in parts])
    else:
        s = d = dn = np.empty(0, np.int64)
    nodes = np.unique(np.concatenate([s, dn]))
    deg = np.zeros(len(nodes), np.int64)
    s_pos = np.searchsorted(nodes, s)
    np.add.at(deg, s_pos, 1)
    db = _pr_bucket_ids(d, nb) if len(d) else np.empty(0, np.int64)
    order = np.argsort(db, kind="stable")
    cut = np.searchsorted(db[order], np.arange(nb + 1))
    plan = []
    for j in range(nb):
        idx = order[cut[j]:cut[j + 1]]
        uniq, codes = np.unique(d[idx], return_inverse=True)
        plan.append((s_pos[idx].astype(np.int64),
                     codes.astype(np.int64), uniq))
    r = np.full(len(nodes), R0_MICRO, np.int64)
    return (nodes, deg, plan), r


def _pr_contrib(static, r: np.ndarray, nb: int):
    """One bucket's per-dst-bucket partial contribution sums (exact
    integer recurrence; deg[s_pos] >= 1 by construction — only actual
    srcs appear in the plan)."""
    nodes, deg, plan = static
    outs = []
    for j in range(nb):
        s_pos, codes, uniq = plan[j]
        c = (DAMP_NUM * r[s_pos]) // (DAMP_DEN * deg[s_pos])
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, codes, c)
        outs.append((uniq, acc))
    return tuple(outs) if nb > 1 else outs[0]


def _pr_rebuild(static, *cparts):
    nodes, _deg, _plan = static
    r = np.full(len(nodes), TELEPORT_MICRO, np.int64)
    for uniq, acc in cparts:
        np.add.at(r, np.searchsorted(nodes, uniq), acc)
    return r


def _pr_out(static, r: np.ndarray):
    """:func:`with_meta` of one shard's (node, rank_micro) table."""
    return with_meta(_ranks(static[0], r))


def _pr_l1(prev: np.ndarray, new: np.ndarray) -> int:
    """Per-shard L1 delta of the integer rank vector (convergence check)."""
    return int(np.abs(new - prev).sum())


def pagerank_partitioned(edges, iters: int = 5, src_col: str = "src",
                         dst_col: str = "dst",
                         num_partitions: int | None = None,
                         tol_micro: int | None = None,
                         stats: dict | None = None):
    """PageRank as a Pregel-style BSP loop on raw Ray tasks; the route
    :func:`pagerank` takes past :data:`EDGES_DRIVER_MAX`.

    Edges hash-partition by src into ``num_partitions`` shards (default:
    one per :data:`PAGERANK_BSP_ROWS_PER_SHARD` edges, at most
    :data:`PAGERANK_BSP_MAX_PARTS`); each shard holds its nodes' rank
    state and a pre-factorized contribution plan. Per iteration every
    shard emits nb per-dst-bucket partial sums (a hub's contributions
    collapse to one row per shard) and every shard rebuilds its ranks
    from the nb parts addressed to it: nb^2 SMALL refs, passed task to
    task, never through the driver's heap. Edges and ranks are never
    collected, so node universes past the driver ceiling still run.
    Executes the identical integer recurrence as :func:`pagerank`
    (parity-tested); ``tol_micro``/``stats`` as there."""
    edges = unreserved(edges.select_columns([src_col, dst_col]).materialize())
    nb = int(num_partitions or np.clip(
        edges.count() // PAGERANK_BSP_ROWS_PER_SHARD + 1, 1,
        PAGERANK_BSP_MAX_PARTS))
    shard = ray.remote(_pr_shard_block)
    parts: list[list] = [[] for _ in range(nb)]
    for br in edges.to_arrow_refs():
        if nb > 1:
            refs = shard.options(num_returns=nb).remote(
                br, src_col, dst_col, nb)
        else:
            refs = [shard.remote(br, src_col, dst_col, nb)]
        for i, ref in enumerate(refs):
            parts[i].append(ref)
    init = ray.remote(_pr_init_shard)
    statics, ranks = [], []
    for i in range(nb):
        st, r = init.options(num_returns=2).remote(nb, *parts[i])
        statics.append(st)
        ranks.append(r)
    contrib = ray.remote(_pr_contrib)
    rebuild = ray.remote(_pr_rebuild)
    l1 = ray.remote(_pr_l1)
    it_done = 0
    delta = None
    for _ in range(iters):
        cparts: list[list] = [[] for _ in range(nb)]
        for i in range(nb):
            if nb > 1:
                refs = contrib.options(num_returns=nb).remote(
                    statics[i], ranks[i], nb)
            else:
                refs = [contrib.remote(statics[i], ranks[i], nb)]
            for j, ref in enumerate(refs):
                cparts[j].append(ref)
        prev = ranks
        ranks = [rebuild.remote(statics[j], *cparts[j])
                 for j in range(nb)]
        it_done += 1
        if tol_micro is not None:
            # nb small ints to the driver — the BSP barrier already
            # synchronises here, so the check adds no extra round
            delta = sum(ray.get(
                [l1.remote(prev[j], ranks[j]) for j in range(nb)]))
            if delta <= tol_micro:
                break
    if stats is not None:
        stats["iterations"] = it_done
        stats["l1_delta_micro"] = delta
    out = ray.remote(_pr_out).options(num_returns=2)
    return dataset(Blocks.gather([out.remote(statics[j], ranks[j])
                                  for j in range(nb)]))


def _pagerank_iter_ctes(iters: int, node_type: str = "BIGINT") -> str:
    """The shared unrolled-iteration CTE chain (expects ``edges(src,
    dst)`` and ``nodes(node)`` CTEs upstream)."""
    ctes = ["""outdeg AS (SELECT src, COUNT(*) AS deg FROM edges
                      GROUP BY src)""",
            f"""r0 AS (SELECT node, CAST({R0_MICRO} AS BIGINT) AS r
                   FROM nodes)"""]
    for k in range(1, iters + 1):
        ctes.append(f"""r{k} AS (
            SELECT n.node,
                   CAST({TELEPORT_MICRO} + COALESCE(c.s, 0) AS BIGINT)
                       AS r
            FROM nodes n LEFT JOIN (
                SELECT e.dst AS node,
                       SUM(({DAMP_NUM} * p.r) // ({DAMP_DEN} * d.deg))
                           AS s
                FROM edges e
                JOIN r{k - 1} p ON e.src = p.node
                JOIN outdeg d ON d.src = e.src
                GROUP BY e.dst) c USING (node))""")
    return ",\n".join(ctes)


def click_pagerank_sql(events_table: str = "events", iters: int = 5,
                       user_col: str = "user_id", ts_col: str = "ts",
                       props_col: str = "props",
                       order_col: str = "event_id") -> str:
    """DuckDB twin: click-edge derivation + ``iters`` unrolled
    integer-exact PageRank iterations."""
    ctes = [f"""ev AS (SELECT {user_col}, {ts_col}, {order_col},
                    CAST(regexp_extract({props_col}, '\\d+') AS BIGINT)
                        AS node FROM {events_table})""",
            f"""nxt AS (SELECT node AS src,
                     LEAD(node) OVER (PARTITION BY {user_col}
                                      ORDER BY {ts_col}, {order_col})
                         AS dst FROM ev)""",
            """edges AS (SELECT DISTINCT src, dst FROM nxt
                     WHERE dst IS NOT NULL AND dst <> src)""",
            """nodes AS (SELECT DISTINCT n AS node FROM (
                     SELECT src AS n FROM edges
                     UNION ALL SELECT dst FROM edges))""",
            _pagerank_iter_ctes(iters)]
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT node, r AS rank_micro FROM r{iters} "
            "ORDER BY node")


_HOST_RE_SQL = "'^[A-Za-z][A-Za-z0-9+.\\-]*://([^/:?#]*)'"


def link_pagerank_sql(pages_expr: str, iters: int = 5,
                      html_col: str = "html",
                      url_col: str = "url") -> str:
    """DuckDB twin of extract_links -> host_edges -> pagerank_named over
    the pages table (href regex matches the fixture's double-quoted
    anchors; the engine side uses a real HTML parse)."""
    return (f"""WITH lk AS (SELECT {url_col} AS url,
                   unnest(regexp_extract_all(decode({html_col}),
                          '<a href="([^"]+)"', 1)) AS href
               FROM {pages_expr}),
        edges AS (SELECT DISTINCT
                     lower(regexp_extract(url, {_HOST_RE_SQL}, 1))
                         AS src,
                     lower(regexp_extract(href, {_HOST_RE_SQL}, 1))
                         AS dst
                  FROM lk
                  WHERE regexp_matches(href, {_HOST_RE_SQL})
                    AND lower(regexp_extract(url, {_HOST_RE_SQL}, 1))
                        <> lower(regexp_extract(href,
                                                {_HOST_RE_SQL}, 1))),
        nodes AS (SELECT DISTINCT n AS node FROM (
                     SELECT src AS n FROM edges
                     UNION ALL SELECT dst FROM edges)),
        """ + _pagerank_iter_ctes(iters)
            + f"\nSELECT node AS host, r AS rank_micro FROM r{iters} "
            "ORDER BY host")
