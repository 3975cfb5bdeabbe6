import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.stages import pagerank as pr


def _edges_tbl(pairs):
    a, b = zip(*pairs) if pairs else ((), ())
    return pa.table({"src": pa.array(list(a), pa.int64()),
                     "dst": pa.array(list(b), pa.int64())})


def _brute_pagerank(pairs, iters):
    nodes = sorted({n for p in pairs for n in p})
    deg = {n: sum(1 for s, _ in pairs if s == n) for n in nodes}
    r = {n: pr.R0_MICRO for n in nodes}
    for _ in range(iters):
        nxt = {n: pr.TELEPORT_MICRO for n in nodes}
        for s, d in pairs:
            nxt[d] += (pr.DAMP_NUM * r[s]) // (pr.DAMP_DEN * deg[s])
        r = nxt
    return r


def test_pagerank_matches_brute_force(ray_session):
    pairs = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1)]  # 4 is dangling-in
    got = pr.pagerank(rd.from_arrow(_edges_tbl(pairs)),
                      iters=6).to_pandas()
    expect = _brute_pagerank(pairs, 6)
    assert dict(zip(got.node, got.rank_micro)) == expect
    # node 4 has no in-edges: pure teleport mass after iteration 1
    assert expect[4] == pr.TELEPORT_MICRO
    # hub node 1 (two in-edges incl. from the cycle) outranks node 4
    assert expect[1] > expect[4]


def test_pagerank_route_parity(ray_session, monkeypatch):
    """Driver fast path and the BSP route past the ceiling run the
    identical integer recurrence."""
    pairs = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1), (5, 2), (2, 5)]
    fast = pr.pagerank(rd.from_arrow(_edges_tbl(pairs)),
                       iters=4).to_pandas()
    monkeypatch.setattr(pr, "EDGES_DRIVER_MAX", 0)
    dist = pr.pagerank(rd.from_arrow(_edges_tbl(pairs)),
                       iters=4).to_pandas()
    assert dict(zip(fast.node, fast.rank_micro)) == \
        dict(zip(dist.node, dist.rank_micro))


def test_pagerank_empty(ray_session):
    got = pr.pagerank(rd.from_arrow(_edges_tbl([]))).to_pandas()
    assert len(got) == 0


def test_click_edges_consecutive_distinct(ray_session):
    # user 1 visits 10,11,10,10 ; user 2 visits 20,10
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array(np.array([1, 2, 3, 4, 1, 2], "datetime64[us]")),
        "event_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "node": pa.array([10, 11, 10, 10, 20, 10], pa.int64()),
    })
    got = pr.click_edges(rd.from_arrow(t)).to_pandas()
    edges = set(zip(got.src, got.dst))
    # 10->11, 11->10 (user 1; the 10->10 self-edge drops), 20->10 (user 2)
    assert edges == {(10, 11), (11, 10), (20, 10)}
    assert len(got) == len(edges)  # distinct


def test_click_edges_tie_broken_by_event_id(ray_session):
    # identical ts: order falls back to event_id
    t = pa.table({
        "user_id": pa.array([7, 7], pa.int64()),
        "ts": pa.array(np.array([5, 5], "datetime64[us]")),
        "event_id": pa.array([2, 1], pa.int64()),
        "node": pa.array([100, 200], pa.int64()),
    })
    got = pr.click_edges(rd.from_arrow(t)).to_pandas()
    assert set(zip(got.src, got.dst)) == {(200, 100)}


def test_extract_links_and_host_edges(ray_session):
    import pyarrow as pa

    from pyrosm_ray.stages.extract import extract_links
    h1 = (b"<html><body><a href='https://b.example/x'>t</a>"
          b"<A HREF=\"https://c.example/y\"></A>"
          b"<a href='/relative'>r</a><a name='no-href'>n</a>"
          b"</body></html>")
    h2 = b"<p><a href='https://a.example/self'></a></p>"
    t = pa.table({
        "url": pa.array(["https://a.example/1", "https://a.example/2"],
                        pa.string()),
        "html": pa.array([h1, h2], pa.binary()),
    })
    links = extract_links(rd.from_arrow(t)).to_pandas()
    # every href (incl. relative) in document order; no-href anchors drop
    assert list(links.href) == ["https://b.example/x",
                                "https://c.example/y", "/relative",
                                "https://a.example/self"]
    edges = pr.host_edges(extract_links(rd.from_arrow(t))).to_pandas()
    got = set(zip(edges.src_host, edges.dst_host))
    # relative href (no host) and the self-host link both drop
    assert got == {("a.example", "b.example"), ("a.example", "c.example")}


def test_pagerank_named_matches_int_pagerank(ray_session):
    import pyarrow as pa
    e = pa.table({
        "src_host": pa.array(["a", "b", "c"], pa.string()),
        "dst_host": pa.array(["b", "c", "a"], pa.string()),
    })
    named = pr.pagerank_named(rd.from_arrow(e), iters=3).to_pandas()
    # symmetric 3-cycle: every node same rank
    assert len(named) == 3
    assert len(set(named.rank_micro)) == 1
    ints = pr.pagerank(rd.from_arrow(_edges_tbl([(1, 2), (2, 3),
                                                 (3, 1)])),
                       iters=3).to_pandas()
    assert set(named.rank_micro) == set(ints.rank_micro)


def test_pagerank_partitioned_parity(ray_session):
    """The BSP route must execute the identical integer recurrence."""
    pairs = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1), (5, 2), (2, 5),
             (3, 4)]
    base = pr.pagerank(rd.from_arrow(_edges_tbl(pairs)),
                       iters=4).to_pandas()
    part = pr.pagerank_partitioned(rd.from_arrow(_edges_tbl(pairs)),
                                   iters=4).to_pandas()
    assert dict(zip(part.node, part.rank_micro)) == \
        dict(zip(base.node, base.rank_micro))


def test_pagerank_bsp_multibucket_parity(ray_session):
    """BSP route with several buckets (random graph forces cross-bucket
    contribution routing) matches the driver recurrence exactly."""
    rng = np.random.default_rng(11)
    pairs = list({(int(a), int(b)) for a, b in
                  rng.integers(0, 200, (3000, 2)) if a != b})
    base = pr.pagerank(rd.from_arrow(_edges_tbl(pairs)),
                       iters=3).to_pandas()
    part = pr.pagerank_partitioned(rd.from_arrow(_edges_tbl(pairs)),
                                   iters=3,
                                   num_partitions=5).to_pandas()
    assert dict(zip(part.node, part.rank_micro)) == \
        dict(zip(base.node, base.rank_micro))


def test_pagerank_partitioned_empty(ray_session):
    got = pr.pagerank_partitioned(rd.from_arrow(_edges_tbl([]))) \
        .to_pandas()
    assert len(got) == 0


def test_click_edges_route_parity(ray_session, monkeypatch):
    """Driver fast path and the bucketed-fold route produce the same
    distinct edge set."""
    rng = np.random.default_rng(7)
    n = 500
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 20, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10_000, n).astype(
            "datetime64[us]")),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "node": pa.array(rng.integers(0, 30, n), pa.int64()),
    })
    fast = pr.click_edges(rd.from_arrow(t)).to_pandas()
    monkeypatch.setattr(pr, "EVENTS_DRIVER_MAX", 0)
    dist = pr.click_edges(rd.from_arrow(t)).to_pandas()
    f = sorted(zip(fast.src, fast.dst))
    d = sorted(zip(dist.src, dist.dst))
    assert f == d and len(f) == len(set(f)) > 0


def test_pagerank_convergence_stop_all_routes(ray_session):
    """tol_micro stops early on a fast-mixing graph, every route adapts
    to the SAME iteration count (the L1 delta is a deterministic
    integer), and the adapted outputs stay route-parity-identical."""
    import ray.data as rd

    from pyrosm_ray.stages import pagerank as pr

    rng = np.random.RandomState(3)
    # fast mixing: near-regular random digraph (no hubs, no sinks)
    n_nodes, deg = 200, 8
    src = np.repeat(np.arange(n_nodes, dtype=np.int64), deg)
    dst = (src + rng.randint(1, n_nodes, len(src))) % n_nodes
    edges = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    TOL, MAXI = 2_000, 40

    st_drv: dict = {}
    a = pr.pagerank(rd.from_arrow(edges), iters=MAXI, tol_micro=TOL,
                    stats=st_drv).to_pandas()
    assert 1 < st_drv["iterations"] < MAXI  # adapted, not exhausted
    assert st_drv["l1_delta_micro"] <= TOL

    # BSP route through the gate (force past the driver ceiling)
    orig = pr.EDGES_DRIVER_MAX
    pr.EDGES_DRIVER_MAX = 0
    try:
        st_bc: dict = {}
        b = pr.pagerank(rd.from_arrow(edges).repartition(4), iters=MAXI,
                        tol_micro=TOL, stats=st_bc).to_pandas()
    finally:
        pr.EDGES_DRIVER_MAX = orig
    assert st_bc["iterations"] == st_drv["iterations"]

    st_bsp: dict = {}
    c = pr.pagerank_partitioned(rd.from_arrow(edges).repartition(4),
                                iters=MAXI, tol_micro=TOL,
                                num_partitions=3,
                                stats=st_bsp).to_pandas()
    assert st_bsp["iterations"] == st_drv["iterations"]

    for other in (b, c):
        o = other.sort_values("node").reset_index(drop=True)
        aa = a.sort_values("node").reset_index(drop=True)
        assert list(o.node) == list(aa.node)
        assert list(o.rank_micro) == list(aa.rank_micro)

    # no tol: runs exactly iters (fixed-count mode untouched)
    st_fix: dict = {}
    pr.pagerank(rd.from_arrow(edges), iters=3, stats=st_fix).to_pandas()
    assert st_fix["iterations"] == 3


def test_click_edges_executes_each_upstream_once(ray_session,
                                                 monkeypatch):
    """The route gate reads the row count from the materialized input,
    so neither route runs the upstream plan twice (one UDF call per
    upstream block)."""
    import ray

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    t = pa.table({
        "user_id": pa.array([1, 1, 2, 2, 3, 3, 4, 4], pa.int64()),
        "ts": pa.array(np.arange(8).astype("datetime64[us]")),
        "event_id": pa.array(np.arange(8), pa.int64()),
        "node": pa.array([10, 11, 20, 21, 30, 31, 40, 41], pa.int64()),
    })
    want = {(10, 11), (20, 21), (30, 31), (40, 41)}
    for ceiling in (pr.EVENTS_DRIVER_MAX, 0):
        monkeypatch.setattr(pr, "EVENTS_DRIVER_MAX", ceiling)
        c = Counter.remote()

        def tagged(b: pa.Table, c=c) -> pa.Table:
            ray.get(c.bump.remote())
            return b

        got = pr.click_edges(rd.from_arrow(t).repartition(4).map_batches(
            tagged, batch_format="pyarrow")).to_pandas()
        assert set(zip(got.src, got.dst)) == want, ceiling
        assert ray.get(c.get.remote()) == 4, ceiling


_PARITY_INPUTS = {
    "empty": [[]],
    "single_edge": [[(1, 2)]],
    "hub": [[(0, i) for i in range(1, 500)]],
    "sink_only_dsts": [[(1, 100), (2, 100), (3, 101), (1, 101), (2, 3)]],
    "zero_row_blocks": [[], [(1, 2), (2, 3)], [], [(3, 1), (4, 1)], []],
}


def _run_route(route, blocks, monkeypatch):
    ds = rd.from_arrow([_edges_tbl(b) for b in blocks])
    if route == "bsp7":
        return pr.pagerank_partitioned(ds, iters=4, num_partitions=7)
    n = sum(len(b) for b in blocks)
    monkeypatch.setattr(pr, "EDGES_DRIVER_MAX", {
        "driver": pr.EDGES_DRIVER_MAX, "gate0": 0,
        "ceiling_n": n, "ceiling_n_minus_1": n - 1}[route])
    return pr.pagerank(ds, iters=4)


@pytest.mark.parametrize("case", sorted(_PARITY_INPUTS))
@pytest.mark.parametrize("route", ["driver", "gate0", "ceiling_n",
                                   "ceiling_n_minus_1", "bsp7"])
def test_pagerank_routes_match_brute_force(ray_session, monkeypatch,
                                           route, case):
    """Every PageRank route, including the ceiling set to the input's
    edge count n and to n - 1, returns the brute-force ranks with a
    typed (int64 node, int64 rank_micro) schema on edge inputs."""
    blocks = _PARITY_INPUTS[case]
    ds = _run_route(route, blocks, monkeypatch)
    schema = ds.schema()
    assert schema.names == ["node", "rank_micro"]
    assert schema.types == [pa.int64(), pa.int64()]
    rows = ds.take_all()
    want = _brute_pagerank([p for b in blocks for p in b], 4)
    assert {r["node"]: r["rank_micro"] for r in rows} == want
    assert len(rows) == len(want)


def test_pagerank_named_gate_parity(ray_session, monkeypatch):
    """pagerank_named past the driver ceiling matches its default
    route."""
    e = pa.table({
        "src_host": pa.array(["a", "b", "c", "a", "d"], pa.string()),
        "dst_host": pa.array(["b", "c", "a", "c", "a"], pa.string()),
    })
    base = pr.pagerank_named(rd.from_arrow(e), iters=4).to_pandas()
    monkeypatch.setattr(pr, "EDGES_DRIVER_MAX", 0)
    forced = pr.pagerank_named(rd.from_arrow(e), iters=4).to_pandas()
    assert dict(zip(forced.host, forced.rank_micro)) == \
        dict(zip(base.host, base.rank_micro))
    assert len(forced) == len(base) == 4
