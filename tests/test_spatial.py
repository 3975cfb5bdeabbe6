"""Tile assignment + spatial join tests (north-rule core) at sf0.001."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from pyrosm_ray.fixtures import MEGA_MOD, ensure_fixtures, geocode_from_page_id
from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.pipelines.layers import OSM
from pyrosm_ray.stages import spatial
from pyrosm_ray.tiles import grid, s2like


@pytest.fixture(scope="module")
def src():
    return str(ensure_fixtures("sf0.001"))


@pytest.fixture(scope="module")
def pages(src):
    return rd.read_parquet(f"{src}/pages.parquet")


@pytest.fixture(scope="module")
def tiled_df(pages):
    return spatial.assign_tiles(pages, salt_threshold=50).to_pandas()


@pytest.fixture(scope="module")
def buildings(src):
    return OSM(src).get_buildings().materialize()


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------

def test_grid_roundtrip_and_hierarchy():
    rng = np.random.default_rng(4)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-89, 89, 500)
    c9 = grid.cell_id(lon, lat, grid.h3_equiv_res(9))
    c5 = grid.cell_id(lon, lat, grid.h3_equiv_res(5))
    np.testing.assert_array_equal(grid.parent(c9, grid.h3_equiv_res(5)), c5)
    b = grid.cell_bounds(c9)
    assert ((lon >= b[:, 0]) & (lon <= b[:, 2])
            & (lat >= b[:, 1]) & (lat <= b[:, 3])).all()
    # children invert parent
    for cell in c5[:10]:
        kids = grid.children(int(cell))
        np.testing.assert_array_equal(
            grid.parent(kids, grid.h3_equiv_res(5)), np.full(4, cell))
    # neighbors contain the cell and are unique
    nb = grid.neighbors(int(c9[0]))
    assert int(c9[0]) in nb and len(nb) == len(set(nb.tolist()))


def test_grid_cover_bbox():
    cells = grid.cover_bbox(24.95, 60.17, 25.05, 60.23, 15)
    assert len(cells) > 1
    b = grid.cell_bounds(cells)
    assert (b[:, 2] >= 24.95).all() and (b[:, 0] <= 25.05).all()


def test_cell_id_sql_matches(tmp_path):
    import duckdb
    rng = np.random.default_rng(5)
    lon = rng.uniform(-180, 180, 1000)
    lat = rng.uniform(-90, 90, 1000)
    want = grid.cell_id(lon, lat, 17)
    con = duckdb.connect()
    con.register("t", __import__("pandas").DataFrame({"lon": lon, "lat": lat}))
    got = con.sql(
        f"SELECT {grid.cell_id_sql('lon', 'lat', 17)} AS c FROM t"
    ).df()["c"].values
    np.testing.assert_array_equal(got, want)


def test_s2like_cells():
    rng = np.random.default_rng(6)
    lon = rng.uniform(-180, 180, 2000)
    lat = rng.uniform(-89, 89, 2000)
    c = s2like.cell_id(lon, lat, 12)
    p = s2like.parent(c, 2)
    # parent is a prefix: children of one parent share it
    c2 = s2like.cell_id(lon, lat, 10)
    np.testing.assert_array_equal(p, c2)
    # nearby points share coarse cells, far points don't (spot check)
    a = s2like.cell_id(24.95, 60.20, 8)
    b = s2like.cell_id(24.951, 60.2001, 8)
    far = s2like.cell_id(-70.0, -30.0, 8)
    assert a == b and a != far


# ---------------------------------------------------------------------------
# tile assignment stage
# ---------------------------------------------------------------------------

def test_assign_tiles(tiled_df):
    df = tiled_df
    assert {"page_id", "lon", "lat", "h3_r5", "h3_r7", "h3_r9",
            "salt"} <= set(df.columns)
    lon, lat = geocode_from_page_id(df.page_id.values)
    np.testing.assert_allclose(df.lon.values, lon)
    np.testing.assert_allclose(df.lat.values, lat)
    np.testing.assert_array_equal(
        grid.parent(df.h3_r9.values, grid.h3_equiv_res(7)), df.h3_r7.values)
    # mega-cell pages (page_id % MEGA_MOD == 0) got salted, spread over >1 key
    mega = df[df.page_id % MEGA_MOD == 0]
    assert (mega.salt > 0).any()
    assert mega.salt.nunique() > 1
    # non-hot cells unsalted
    assert (df[df.page_id % MEGA_MOD != 0].salt == 0).all()


# ---------------------------------------------------------------------------
# PIP / kNN joins
# ---------------------------------------------------------------------------

def test_pip_join_exact(pages, buildings):
    tiled = spatial.assign_tiles(pages)
    out = spatial.pip_join(tiled, buildings, layer="buildings").to_pandas()
    assert {"url", "polygon_id", "polygon_layer", "text"} <= set(out.columns)
    assert (out.polygon_layer == "buildings").all()
    # exact: every output point is inside its polygon; and brute-force
    # recomputation finds exactly the same pair set
    pdf = buildings.to_pandas()
    rings_by_id = {int(r.id): wkb.polygon_rings(r.geometry)
                   for _, r in pdf.iterrows()
                   if wkb.wkb_geom_type(r.geometry) in (wkb.POLYGON,
                                                        wkb.MULTIPOLYGON)}
    tdf = tiled.to_pandas()
    want = set()
    for pid, rings in rings_by_id.items():
        inside = ops.points_in_rings_even_odd(
            rings, tdf.lon.values, tdf.lat.values)
        for u in tdf.url.values[inside]:
            want.add((u, pid))
    got = set(zip(out.url, out.polygon_id))
    assert got == want and len(got) > 0
    # text bytes preserved per url
    orig = {u: t for u, t in zip(tdf.url, tdf.text)}
    assert all(orig[u] == t for u, t in zip(out.url, out.text))


def test_pip_join_partitioned_parity(pages, buildings):
    bc = spatial.pip_join(spatial.assign_tiles(pages), buildings,
                          layer="b").to_pandas()
    sh = spatial.pip_join_partitioned(pages, buildings, cell_res=7,
                                      num_partitions=4,
                                      layer="b").to_pandas()
    assert set(zip(bc.url, bc.polygon_id)) == set(zip(sh.url, sh.polygon_id))
    # payload survived the projection/re-join byte-identically
    orig = pages.to_pandas().set_index("url")["text"]
    assert all(orig[u] == t for u, t in zip(sh.url, sh.text))


def test_pip_join_partitioned_inline_budget_extremes(pages, buildings):
    """The adaptive inline-geometry rule must be a pure routing decision:
    all-deferred (budget=0, every polygon takes the two-shuffle pair
    path) and all-inline (huge budget, every polygon confirms inside the
    stage-1 kernel) produce the identical hit set as the broadcast
    join."""
    bc = spatial.pip_join(spatial.assign_tiles(pages), buildings,
                          layer="b")
    want = set(zip(*[bc.to_pandas()[c] for c in ("url", "polygon_id")]))
    for budget in (0, 1 << 30):
        sh = spatial.pip_join_partitioned(
            pages, buildings, cell_res=7, num_partitions=4, layer="b",
            join_payload=False, geom_inline_budget=budget).to_pandas()
        assert set(zip(sh.url, sh.polygon_id)) == want, budget


def test_knn_join_exact(pages, src):
    pois = OSM(src).get_pois().materialize()
    tiled = spatial.assign_tiles(pages)
    out = spatial.knn_join(tiled, pois, k=3).to_pandas()
    tdf = tiled.to_pandas()
    assert len(out) == 3 * len(tdf)
    assert set(out.knn_rank) == {1, 2, 3}
    pdf = pois.to_pandas()
    plon = np.array([wkb.decode_wkb(g)[1][0] for g in pdf.geometry])
    plat = np.array([wkb.decode_wkb(g)[1][1] for g in pdf.geometry])
    rng = np.random.default_rng(0)
    for u in rng.choice(tdf.url.values, 25, replace=False):
        rows = out[out.url == u].sort_values("knn_rank")
        d = ops.haversine_m(rows.iloc[0].lat, rows.iloc[0].lon, plat, plon)
        want = pdf.id.values[np.argsort(d, kind="stable")[:3]]
        assert list(rows.poi_id) == list(want)
        assert (np.diff(rows.distance_m.values) >= 0).all()


def test_strtree_shard_path_parity():
    """Elongated bboxes degrade the uniform grid (high replication), so
    _assemble_shard_index packs an STR tree instead; candidate+PIP results
    must match the grid path exactly on the same polygons."""
    rng = np.random.default_rng(7)
    n = 64
    # mixed sizes: mostly tiny boxes (drive the adaptive grid res high)
    # plus long strips that then overflow to the oversize list -> the
    # replication metric blows past GRID_DEGRADE_REPLICATION
    x0 = rng.uniform(-30, 30, n)
    y0 = rng.uniform(-30, 30, n)
    w = np.where(np.arange(n) % 8 == 0, rng.uniform(15.0, 25.0, n),
                 rng.uniform(0.005, 0.02, n))
    h = rng.uniform(0.005, 0.02, n)    # thin
    ids, bboxes, coords, rlens, rpp = [], [], [], [], []
    for i in range(n):
        ring = np.array([[x0[i], y0[i]], [x0[i] + w[i], y0[i]],
                         [x0[i] + w[i], y0[i] + h[i]], [x0[i], y0[i] + h[i]],
                         [x0[i], y0[i]]])
        ids.append(i + 1)
        bboxes.append([x0[i], y0[i], x0[i] + w[i], y0[i] + h[i]])
        coords.append(ring)
        rlens.append(len(ring))
        rpp.append(1)
    ids = np.array(ids, np.int64)
    bboxes = np.array(bboxes)
    coords = np.concatenate(coords)
    rlens = np.array(rlens, np.int64)
    rpp = np.array(rpp, np.int64)
    idx = spatial._assemble_shard_index(ids, bboxes, coords, rlens, rpp, "t")
    assert "tree" in idx, "elongated fixture should trigger the STR tree"
    # grid-forced variant for parity
    old = spatial.GRID_DEGRADE_REPLICATION
    spatial.GRID_DEGRADE_REPLICATION = 1e18
    try:
        gidx = spatial._assemble_shard_index(ids, bboxes, coords, rlens,
                                             rpp, "t")
    finally:
        spatial.GRID_DEGRADE_REPLICATION = old
    assert "tree" not in gidx
    px = rng.uniform(-35, 55, 5000)
    py = rng.uniform(-35, 35, 5000)
    cp_t, cl_t = spatial._cell_candidates(idx, px, py)
    keep_t = spatial._confirm_pip(idx, cp_t, cl_t, px, py)
    cp_g, cl_g = spatial._cell_candidates(gidx, px, py)
    keep_g = spatial._confirm_pip(gidx, cp_g, cl_g, px, py)
    got = set(zip(cp_t[keep_t].tolist(), idx["ids"][cl_t[keep_t]].tolist()))
    want = set(zip(cp_g[keep_g].tolist(), gidx["ids"][cl_g[keep_g]].tolist()))
    assert got == want and len(want) > 0


def test_knn_join_partitioned_parity(pages, src):
    """Co-partitioned kNN (POI side never broadcast) matches the broadcast
    path exactly, including ranks; forcing a tiny first ring exercises the
    multi-round ring expansion and the exact straggler sweep."""
    pois = OSM(src).get_pois().materialize()
    tiled = spatial.assign_tiles(pages)
    bc = spatial.knn_join(tiled, pois, k=2).to_pandas()
    sh = spatial.knn_join_partitioned(pages, pois, k=2, cell_res=7,
                                      num_partitions=4).to_pandas()
    want = set(zip(bc.url, bc.poi_id, bc.knn_rank))
    got = set(zip(sh.url, sh.poi_id, sh.knn_rank))
    assert got == want and len(got) == 2 * pages.count()
    assert len(sh) == 2 * pages.count()  # no duplicate rows either
    # payload re-joined byte-identically
    orig = pages.to_pandas().set_index("url")["text"]
    assert all(orig[u] == t for u, t in zip(sh.url, sh.text))
    # force the straggler sweep: one round with a coarse-res ring that
    # cannot certify safety -> exact sweep handles everything
    sw = spatial.knn_join_partitioned(pages, pois, k=2, cell_res=3,
                                      num_partitions=4,
                                      max_rounds=1).to_pandas()
    assert set(zip(sw.url, sw.poi_id, sw.knn_rank)) == want
    assert len(sw) == 2 * pages.count()
    # force the fold rounds (sweep gate off): the two-sided fold on the
    # cell whose kernel generates candidate pairs per partition must
    # match the broadcast path exactly at every radius
    gr = spatial.knn_join_partitioned(pages, pois, k=2,
                                      num_partitions=4,
                                      sweep_max_pairs=0).to_pandas()
    assert set(zip(gr.url, gr.poi_id, gr.knn_rank)) == want
    assert len(gr) == 2 * pages.count()
    # distances byte-identical to the broadcast path (rounded contract)
    bkey = {(u, r): d for u, r, d in zip(bc.url, bc.knn_rank,
                                         bc.distance_m)}
    assert all(bkey[(u, r)] == d for u, r, d in
               zip(gr.url, gr.knn_rank, gr.distance_m))
    # multi-round grid coarsening: at a very fine pinned res every page's
    # 3x3 ring starts empty (0 POIs), so round 1 strands everything and
    # rounds 2-3 rerun over 4x-wider cells before the sweep mops up —
    # the result must still match the broadcast path exactly
    mr = spatial.knn_join_partitioned(pages, pois, k=2,
                                      cell_res=15, num_partitions=4,
                                      sweep_max_pairs=0).to_pandas()
    assert set(zip(mr.url, mr.poi_id, mr.knn_rank)) == want
    assert len(mr) == 2 * pages.count()


def test_pip_join_partitioned_multicell_cover(pages):
    """Partitioned PIP with polygons spanning MANY covering cells (the
    layer class the key-only cover design exists for): parity with the
    broadcast path, and a page inside a polygon joins it exactly once
    (its one cell), never once per covering cell."""
    rng = np.random.default_rng(3)
    tiled = spatial.assign_tiles(pages)
    tdf = tiled.to_pandas()
    cx0, cx1 = tdf.lon.min(), tdf.lon.max()
    cy0, cy1 = tdf.lat.min(), tdf.lat.max()
    geoms, ids = [], []
    for i in range(12):
        cx = rng.uniform(cx0, cx1)
        cy = rng.uniform(cy0, cy1)
        r = rng.uniform(0.1, 0.5) * max(cx1 - cx0, 0.2)  # spans many cells
        k = int(rng.integers(16, 64))
        ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
        ring = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
        ring = np.vstack([ring, ring[:1]])
        geoms.append(wkb.polygon_wkb([ring]))
        ids.append(1000 + i)
    polys = rd.from_arrow(pa.table({
        "id": pa.array(ids, pa.int64()),
        "geometry": pa.array(geoms, pa.binary())}))
    bc = spatial.pip_join(tiled, polys, layer="d").to_pandas()
    sh = spatial.pip_join_partitioned(pages, polys, cell_res=7,
                                      num_partitions=4,
                                      layer="d").to_pandas()
    assert set(zip(bc.url, bc.polygon_id)) == set(zip(sh.url, sh.polygon_id))
    assert len(sh) > 0
    # exactly-once per (page, polygon) despite multi-cell covers
    assert not sh.duplicated(subset=["url", "polygon_id"]).any()


def test_tile_rollup_pyramid(ray_session):
    """Rollup levels must equal direct aggregation at every res, and
    counts must be conserved level to level."""
    import numpy as np
    import pyarrow as pa

    from pyrosm_ray.fixtures import ensure_fixtures
    from pyrosm_ray.sources.parquet import read_parquet_split
    from pyrosm_ray.stages.spatial import assign_tiles, tile_rollup
    fx = ensure_fixtures("sf0.001")
    pages = read_parquet_split(str(fx / "pages.parquet"),
                               columns=["url"])
    out = tile_rollup(pages, res_fine=9, res_coarse=7).to_pandas()
    total = out[out.res == 9].n_pages.sum()
    for r in (7, 8):
        assert out[out.res == r].n_pages.sum() == total  # conservation
    # direct aggregation twin at res 7
    tiled = assign_tiles(read_parquet_split(str(fx / "pages.parquet"),
                                            columns=["url"]),
                         resolutions=(7,)).to_pandas()
    direct = tiled.groupby("h3_r7").size()
    got7 = out[out.res == 7].set_index("cell")["n_pages"]
    assert dict(got7) == dict(direct)


def _rollup_reference(lon, lat, res_fine: int, res_coarse: int) -> list:
    """Every level counted directly from the points (no rollup)."""
    import collections

    want = collections.Counter()
    for r in range(res_coarse, res_fine + 1):
        for c in grid.cell_id(lon, lat, grid.h3_equiv_res(r)):
            want[(r, int(c))] += 1
    return sorted((r, c, n) for (r, c), n in want.items())


def _rollup_rows(out) -> list:
    """(res, cell, n_pages) rows, read block by block; every block must
    be typed."""
    blocks_ = [ray.get(ref) for b in out.iter_internal_ref_bundles()
               for ref in b.block_refs]
    assert blocks_
    for b in blocks_:
        assert b.schema == spatial._ROLLUP_EMPTY.schema, b.schema
    return sorted((r["res"], r["cell"], r["n_pages"])
                  for b in blocks_ for r in b.to_pylist())


_ROLLUP_PAGES = {
    "zero": [[]],
    "one": [[17]],
    "one_fine_cell": [[17] * 25],
    "repeated_cells_across_blocks": [[i % 40 for i in range(s, s + 60)]
                                     for s in range(0, 240, 60)] + [[]],
    "fine_is_coarse": [[i % 40 for i in range(90)]],
}


@pytest.mark.parametrize("route", ["one_task", "split"])
@pytest.mark.parametrize("case", list(_ROLLUP_PAGES))
def test_tile_rollup_matches_direct_levels(ray_session, monkeypatch,
                                           route, case):
    """Each level of the pyramid equals a direct count of the pages at
    that res, on the one-task fold and on the split fold."""
    from pyrosm_ray.stages import blocks

    if route == "split":
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    fine, coarse = (7, 7) if case == "fine_is_coarse" else (9, 5)
    parts = _ROLLUP_PAGES[case]
    pages = rd.from_arrow([pa.table({"url": pa.array(
        [f"https://example.org/p/{i}" for i in ids], pa.string())})
        for ids in parts])
    pid = np.array([i for ids in parts for i in ids], np.int64)
    lon, lat = geocode_from_page_id(pid)
    got = _rollup_rows(spatial.tile_rollup(pages, res_fine=fine,
                                           res_coarse=coarse))
    assert got == _rollup_reference(lon, lat, fine, coarse)
    if case == "one_fine_cell":
        assert [n for _, _, n in got] == [25] * 5


@pytest.mark.parametrize("route", ["one_task", "split"])
def test_tile_rollup_clip_edges(ray_session, monkeypatch, route):
    """Points on the grid's clip edges (lon = +-180, lat = +-90) land in
    the edge cells at every level, on both fold routes."""
    from pyrosm_ray.stages import blocks

    if route == "split":
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    lon = np.array([-180.0, 180.0, 180.0, -180.0, 0.0, 179.9999, -180.0])
    lat = np.array([90.0, -90.0, 90.0, -90.0, 90.0, -89.9999, 0.0])
    pts = rd.from_arrow([pa.table({"lon": lon[:4], "lat": lat[:4]}),
                         pa.table({"lon": lon[4:], "lat": lat[4:]})])
    got = _rollup_rows(spatial._point_rollup(pts, 9, 5))
    assert got == _rollup_reference(lon, lat, 9, 5)


def test_pip_join_partitioned_blocks_carry_their_schema(pages, buildings):
    """The polygon side holds a zero-row block (as a materialized
    buildings layer does), yet no map of the join emits a schema-less
    block: Ray Data logs no "different schema" warning."""
    import logging

    class Grab(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.lines = []

        def emit(self, record):
            self.lines.append(record.getMessage())

    refs = [r for b in buildings.iter_internal_ref_bundles()
            for r in b.block_refs]
    polys = rd.from_arrow_refs(
        [ray.put(ray.get(refs[0]).slice(0, 0))] + refs
        + [ray.put(ray.get(refs[-1]).slice(0, 0))])
    grab = Grab()
    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    log.addHandler(grab)
    try:
        for budget in (0, 16384):  # with and without the stage-2 fold
            out = spatial.pip_join_partitioned(
                pages, polys, layer="b", num_partitions=4,
                join_payload=False, geom_inline_budget=budget).materialize()
            assert out.count() > 0
    finally:
        log.removeHandler(grab)
    assert not [m for m in grab.lines if "different schema" in m], \
        grab.lines


def test_radius_join_matches_bruteforce(ray_session):
    import ray
    import ray.data as rd

    from pyrosm_ray.geom import ops
    from pyrosm_ray.stages.spatial import pack_point_index, radius_join

    rng = np.random.RandomState(13)
    np_pts = 400
    pois = pa.table({
        "id": pa.array(np.arange(np_pts) + 1000, pa.int64()),
        "lon": pa.array(24.9 + rng.uniform(0, 0.05, np_pts)),
        "lat": pa.array(60.15 + rng.uniform(0, 0.03, np_pts)),
    })
    pages = pa.table({
        "url": pa.array([f"u{i}" for i in range(120)], pa.string()),
        "lon": pa.array(24.9 + rng.uniform(0, 0.05, 120)),
        "lat": pa.array(60.15 + rng.uniform(0, 0.03, 120)),
    })
    R = 220.0
    out = radius_join(rd.from_arrow(pages), rd.from_arrow(pois),
                      radius_m=R).to_pandas() \
        .sort_values(["url", "poi_id"]).reset_index(drop=True)
    # brute force
    d = ops.haversine_m(
        np.asarray(pages["lat"])[:, None], np.asarray(pages["lon"])[:, None],
        np.asarray(pois["lat"])[None, :], np.asarray(pois["lon"])[None, :])
    qi, ii = np.nonzero(d <= R)
    truth = sorted(zip([f"u{i}" for i in qi],
                       (np.asarray(pois["id"])[ii]).tolist()))
    assert list(zip(out.url, out.poi_id)) == truth
    assert len(truth) > 100  # the fixture geometry produces real pairs
    # distances reported are the exact haversine, mm-rounded
    got_d = dict(zip(zip(out.url, out.poi_id), out.distance_m))
    for (u, p), dist in list(got_d.items())[:50]:
        i, j = int(u[1:]), int(p - 1000)
        assert abs(dist - d[i, j]) < 0.0011


def test_radius_join_partitioned_parity(ray_session):
    import ray.data as rd

    from pyrosm_ray.stages.spatial import (radius_join,
                                           radius_join_partitioned)

    rng = np.random.RandomState(29)
    pois = pa.table({
        "id": pa.array(np.arange(300) + 500, pa.int64()),
        "lon": pa.array(24.9 + rng.uniform(0, 0.06, 300)),
        "lat": pa.array(60.15 + rng.uniform(0, 0.04, 300)),
    })
    pages = pa.table({
        "url": pa.array([f"p{i}" for i in range(100)], pa.string()),
        "lon": pa.array(24.9 + rng.uniform(0, 0.06, 100)),
        "lat": pa.array(60.15 + rng.uniform(0, 0.04, 100)),
    })
    R = 260.0
    a = radius_join(rd.from_arrow(pages), rd.from_arrow(pois),
                    radius_m=R).to_pandas()[
        ["url", "poi_id", "distance_m"]] \
        .sort_values(["url", "poi_id"]).reset_index(drop=True)
    b = radius_join_partitioned(rd.from_arrow(pages).repartition(4),
                                rd.from_arrow(pois).repartition(3),
                                radius_m=R, num_partitions=8) \
        .to_pandas()[["url", "poi_id", "distance_m"]] \
        .sort_values(["url", "poi_id"]).reset_index(drop=True)
    assert len(a) > 50
    assert list(a.url) == list(b.url)
    assert list(a.poi_id) == list(b.poi_id)
    assert list(a.distance_m) == list(b.distance_m)


def test_radius_join_antimeridian_wrap(ray_session):
    """Pairs straddling the +-180 seam survive both radius-join routes
    (the POI ring and the box-candidate scan wrap longitude mod nx)."""
    import ray.data as rd

    from pyrosm_ray.geom import ops
    from pyrosm_ray.stages.spatial import (radius_join,
                                           radius_join_partitioned)

    rng = np.random.RandomState(47)
    # cluster on BOTH sides of the seam (Fiji-ish latitudes)
    lon_po = np.where(rng.uniform(size=200) < 0.5,
                      179.999 - rng.uniform(0, 0.004, 200),
                      -180.0 + rng.uniform(0, 0.004, 200))
    lat_po = -17.0 + rng.uniform(0, 0.01, 200)
    pois = pa.table({"id": pa.array(np.arange(200) + 10, pa.int64()),
                     "lon": pa.array(lon_po), "lat": pa.array(lat_po)})
    lon_pg = np.where(rng.uniform(size=80) < 0.5,
                      179.999 - rng.uniform(0, 0.004, 80),
                      -180.0 + rng.uniform(0, 0.004, 80))
    lat_pg = -17.0 + rng.uniform(0, 0.01, 80)
    pages = pa.table({"url": pa.array([f"s{i}" for i in range(80)]),
                      "lon": pa.array(lon_pg), "lat": pa.array(lat_pg)})
    R = 500.0
    d = ops.haversine_m(lat_pg[:, None], lon_pg[:, None],
                        lat_po[None, :], lon_po[None, :])
    qi, ii = np.nonzero(d <= R)
    truth = sorted(zip([f"s{i}" for i in qi],
                       (np.arange(200) + 10)[ii].tolist()))
    # cross-seam pairs must exist for the test to mean anything
    cross = [(q, i) for q, i in zip(qi, ii)
             if (lon_pg[q] > 0) != (lon_po[i] > 0)]
    assert len(cross) > 20
    a = radius_join(rd.from_arrow(pages), rd.from_arrow(pois),
                    radius_m=R).to_pandas()
    assert sorted(zip(a.url, a.poi_id)) == truth
    b = radius_join_partitioned(rd.from_arrow(pages).repartition(3),
                                rd.from_arrow(pois).repartition(2),
                                radius_m=R, num_partitions=6).to_pandas()
    assert sorted(zip(b.url, b.poi_id)) == truth


def test_knn_join_antimeridian_wrap(ray_session):
    """Nearest POIs across the +-180 seam: both kNN routes match
    brute-force haversine. The partitioned route's POI ring must wrap
    longitude mod nx, since its done test counts the cells past the seam
    as covered."""
    import ray.data as rd

    from pyrosm_ray.geom import ops
    from pyrosm_ray.stages.spatial import knn_join, knn_join_partitioned

    rng = np.random.RandomState(53)
    # POI 1 is 222 m from page s0 across the seam; POI 2 is on s0's own
    # side of it but 1.5 km away
    lon_po = np.concatenate([[179.999, -179.99], np.where(
        rng.uniform(size=60) < 0.5, 179.99 + rng.uniform(0, 0.0099, 60),
        -180.0 + rng.uniform(0, 0.01, 60))])
    lat_po = np.concatenate([[0.0, 0.01], rng.uniform(-0.02, 0.02, 60)])
    ids = np.arange(1, 63)
    pois = pa.table({"id": pa.array(ids, pa.int64()),
                     "lon": pa.array(lon_po), "lat": pa.array(lat_po)})
    lon_pg = np.concatenate([[-179.999], np.where(
        rng.uniform(size=40) < 0.5, 179.99 + rng.uniform(0, 0.0099, 40),
        -180.0 + rng.uniform(0, 0.01, 40))])
    lat_pg = np.concatenate([[0.0], rng.uniform(-0.02, 0.02, 40)])
    urls = [f"s{i}" for i in range(len(lon_pg))]
    pages = pa.table({"url": pa.array(urls), "lon": pa.array(lon_pg),
                      "lat": pa.array(lat_pg)})
    d = ops.haversine_m(lat_pg[:, None], lon_pg[:, None],
                        lat_po[None, :], lon_po[None, :])
    k = 2
    truth = {(urls[q], int(ids[j]), r + 1): round(float(d[q, j]), 3)
             for q in range(len(urls))
             for r, j in enumerate(np.lexsort((ids, d[q]))[:k])}
    assert truth[("s0", 1, 1)] == 222.39
    cross = [key for key in truth
             if (lon_pg[int(key[0][1:])] > 0) != (lon_po[key[1] - 1] > 0)]
    assert len(cross) >= 5
    a = knn_join(rd.from_arrow(pages), rd.from_arrow(pois), k=k).to_pandas()
    b = knn_join_partitioned(rd.from_arrow(pages).repartition(3),
                             rd.from_arrow(pois).repartition(2), k=k,
                             num_partitions=4, sweep_max_pairs=0,
                             join_payload=False).to_pandas()
    for out in (a, b):
        got = {(u, p, r): dist for u, p, r, dist in zip(
            out.url, out.poi_id, out.knn_rank, out.distance_m)}
        assert got.keys() == truth.keys()
        assert all(abs(got[key] - truth[key]) < 0.0011 for key in truth)


def test_radius_join_partitioned_rejects_uncoverable_radius(ray_session):
    """A radius wider than the coarsest grid cell raises instead of
    silently dropping pairs (the 3x3 ring would be incomplete)."""
    import pytest
    import ray.data as rd

    from pyrosm_ray.stages.spatial import radius_join_partitioned

    pois = pa.table({"id": pa.array([1], pa.int64()),
                     "lon": pa.array([0.0]), "lat": pa.array([0.0])})
    pages = pa.table({"url": pa.array(["a"]),
                      "lon": pa.array([1.0]), "lat": pa.array([1.0])})
    with pytest.raises(ValueError, match="broadcast"):
        radius_join_partitioned(rd.from_arrow(pages), rd.from_arrow(pois),
                                radius_m=6_000_000.0)


def test_geo_stages_run_no_execution_on_held_blocks(src, count_executions):
    """On materialized inputs the index builds and zonal stats run no Ray
    Data execution, and the partitioned joins run exactly one: the page
    side's read into the first fold."""
    from pyrosm_ray.stages import raster

    osm = OSM(src)
    bld = osm.get_buildings().materialize()
    poi = osm.get_pois().materialize()
    pages = rd.read_parquet(f"{src}/pages.parquet").materialize()
    rast = raster.rasterize_points(spatial.assign_tiles(pages).select_columns(
        ["h3_r7", "lon", "lat"])).materialize()
    calls = {
        "pack_point_index": lambda: spatial.pack_point_index(poi),
        "pack_polygon_index": lambda: spatial.pack_polygon_index(bld),
        "polygon_zonal_stats": lambda: raster.polygon_zonal_stats(bld,
                                                                  rast),
        "knn_join_partitioned": lambda: spatial.knn_join_partitioned(
            pages, poi, k=2, sweep_max_pairs=0, join_payload=False),
        "pip_join_partitioned": lambda: spatial.pip_join_partitioned(
            pages, bld, join_payload=False, geom_inline_budget=0),
    }
    runs = {}
    for name, call in calls.items():
        count_executions.clear()
        call()
        runs[name] = len(count_executions)
    assert runs == {"pack_point_index": 0, "pack_polygon_index": 0,
                    "polygon_zonal_stats": 0, "knn_join_partitioned": 1,
                    "pip_join_partitioned": 1}


# ---------------------------------------------------------------------------
# point joins on a POI layer with way and relation POIs
# ---------------------------------------------------------------------------

def _mixed_poi_layer():
    """A POI layer shaped as ``get_pois`` gives it: node POIs carry
    ``lon``/``lat`` and a Point, way POIs a Polygon and relation POIs a
    MultiPolygon with null ``lon``/``lat``; one row has neither. Returns
    the layer and each kept POI's point (its lon/lat, else the centre of
    its geometry's bbox, from the scalar decoder)."""
    rng = np.random.RandomState(21)
    n = 60
    cx = 24.9 + rng.uniform(0, 0.05, n)
    cy = 60.15 + rng.uniform(0, 0.03, n)
    rows, want = [], {}
    for i in range(n):
        d = rng.uniform(0.0002, 0.002)
        sq = np.array([[cx[i] - d, cy[i] - d], [cx[i] + d, cy[i] - d],
                       [cx[i] + d, cy[i] + d], [cx[i] - d, cy[i] - d]])
        if i % 3 == 0:
            rows.append((i, "node", cx[i], cy[i],
                         wkb.point_wkb(cx[i], cy[i])))
        elif i % 3 == 1:
            rows.append((i, "way", None, None, wkb.polygon_wkb([sq])))
        else:
            rows.append((i, "relation", None, None, wkb.multipolygon_wkb(
                [[sq], [sq + 3 * d]])))
    rows.append((n, "way", None, None, None))
    for i, _, lon, lat, g in rows:
        if lon is not None:
            want[i] = (lon, lat)
        elif g is not None:
            flat = np.concatenate(wkb.polygon_rings(g))
            want[i] = ((flat[:, 0].min() + flat[:, 0].max()) / 2,
                       (flat[:, 1].min() + flat[:, 1].max()) / 2)
    t = pa.table({"id": pa.array([r[0] for r in rows], pa.int64()),
                  "osm_type": pa.array([r[1] for r in rows]),
                  "lon": pa.array([r[2] for r in rows], pa.float64()),
                  "lat": pa.array([r[3] for r in rows], pa.float64()),
                  "geometry": pa.array([r[4] for r in rows], pa.binary())})
    return t, want


def test_point_joins_on_mixed_poi_layer(ray_session):
    """kNN and radius joins, broadcast and partitioned, give every way and
    relation POI its bbox centre and drop the POI with no point, against
    a brute-force haversine reference."""
    layer, want = _mixed_poi_layer()
    rng = np.random.RandomState(22)
    pages = pa.table({
        "url": pa.array([f"u{i}" for i in range(80)]),
        "lon": pa.array(24.9 + rng.uniform(0, 0.05, 80)),
        "lat": pa.array(60.15 + rng.uniform(0, 0.03, 80))})
    ids = np.array(sorted(want), np.int64)
    plon = np.array([want[i][0] for i in ids])
    plat = np.array([want[i][1] for i in ids])
    d = ops.haversine_m(np.asarray(pages["lat"])[:, None],
                        np.asarray(pages["lon"])[:, None],
                        plat[None, :], plon[None, :])
    k, radius = 3, 400.0
    knn_want = sorted(
        (f"u{p}", int(ids[q]), r + 1, round(float(d[p, q]), 3))
        for p in range(len(d))
        for r, q in enumerate(np.lexsort((ids, d[p]))[:k]))
    pi, qi = np.nonzero(d <= radius)
    rad_want = sorted((f"u{p}", int(ids[q]), round(float(d[p, q]), 3))
                      for p, q in zip(pi, qi))
    assert len(rad_want) > 50

    def pois():
        return rd.from_arrow([layer.slice(0, 30), layer.slice(30)])

    def got(out, cols):
        df = out.to_pandas()
        return sorted(zip(*(df[c].tolist() for c in cols)))

    knn_cols = ["url", "poi_id", "knn_rank", "distance_m"]
    assert got(spatial.knn_join(rd.from_arrow(pages), pois(), k=k),
               knn_cols) == knn_want
    for sweep in (0, spatial._KNN_SWEEP_MAX_PAIRS):
        assert got(spatial.knn_join_partitioned(
            rd.from_arrow(pages), pois(), k=k, num_partitions=4,
            sweep_max_pairs=sweep, join_payload=False),
            knn_cols) == knn_want, sweep
    rad_cols = ["url", "poi_id", "distance_m"]
    assert got(spatial.radius_join(rd.from_arrow(pages), pois(),
                                   radius_m=radius), rad_cols) == rad_want
    assert got(spatial.radius_join_partitioned(
        rd.from_arrow(pages), pois(), radius_m=radius, num_partitions=4),
        rad_cols) == rad_want


# ---------------------------------------------------------------------------
# kNN ties and per-block broadcast joins
# ---------------------------------------------------------------------------

def _tied_knn_world():
    """Pages with POIs at exactly equal haversine distance (mirror images
    across the page's meridian or parallel, so the float distances are
    bit-equal), where the POI met first in cell order has the higher id,
    plus a page far from every POI."""
    rng = np.random.RandomState(31)
    # page a at (0, 0): POI 9 due north and POI 4 due south, tied at
    # rank 1; page b at (0, 0.004): POI 30 right next to it, then POI 8
    # due west and POI 2 due east, tied at ranks 2 and 3
    lon = [0.0, 0.0, 0.0, -0.001, 0.001]
    lat = [0.002, -0.002, 0.00405, 0.004, 0.004]
    ids = [9, 4, 30, 8, 2]
    lon += list(rng.uniform(-0.02, 0.02, 40))
    lat += list(rng.uniform(-0.02, -0.008, 40))
    ids += list(range(100, 140))
    pois = pa.table({"id": pa.array(ids, pa.int64()),
                     "lon": pa.array(lon), "lat": pa.array(lat)})
    pg_lon = np.concatenate([[0.0, 0.0, 0.06], rng.uniform(-0.02, 0.02, 20)])
    pg_lat = np.concatenate([[0.0, 0.004, 0.06],
                             rng.uniform(-0.02, 0.02, 20)])
    pages = pa.table({"url": pa.array([f"p{i}" for i in range(len(pg_lon))]),
                      "lon": pa.array(pg_lon), "lat": pa.array(pg_lat)})
    return pages, pois


def test_knn_ties_rank_the_lower_poi_id_first(ray_session):
    """Both kNN routes rank POIs at exactly equal distance by POI id, at
    k=1 and k=2, on rounds that start with fewer candidates than k (the
    far page), against a brute-force (distance, poi_id) reference."""
    pages, pois = _tied_knn_world()
    ids = np.asarray(pois["id"])
    d = ops.haversine_m(np.asarray(pages["lat"])[:, None],
                        np.asarray(pages["lon"])[:, None],
                        np.asarray(pois["lat"])[None, :],
                        np.asarray(pois["lon"])[None, :])
    at = {int(i): j for j, i in enumerate(ids)}
    assert d[0, at[9]] == d[0, at[4]]
    assert d[1, at[8]] == d[1, at[2]] and d[1, at[30]] < d[1, at[2]]
    idx = spatial.pack_point_index(rd.from_arrow(pois))
    for k in (1, 2):
        qi, _ = spatial.KnnJoiner(idx, k=k)._box_candidates(
            np.asarray(pages["lon"]), np.asarray(pages["lat"]),
            spatial.KnnJoiner(idx, k=k).r0)
        assert np.bincount(qi, minlength=pages.num_rows)[2] < k
        want = sorted(
            (f"p{p}", int(ids[q]), r + 1, round(float(d[p, q]), 3))
            for p in range(len(d))
            for r, q in enumerate(np.lexsort((ids, d[p]))[:k]))
        assert ("p0", 4, 1) == want[0][:3]
        assert k == 1 or ("p1", 2, 2) in {w[:3] for w in want}
        outs = {"broadcast": spatial.knn_join(rd.from_arrow(pages),
                                              k=k, index_ref=idx)}
        for sweep in (0, spatial._KNN_SWEEP_MAX_PAIRS):
            outs[f"partitioned sweep={sweep}"] = \
                spatial.knn_join_partitioned(
                    rd.from_arrow(pages), rd.from_arrow(pois), k=k,
                    num_partitions=4, sweep_max_pairs=sweep,
                    join_payload=False)
        for name, out in outs.items():
            df = out.to_pandas()
            got = sorted(zip(df.url, df.poi_id, df.knn_rank,
                             df.distance_m))
            assert got == want, (name, k)


def test_broadcast_joins_run_one_task_per_block(pages, buildings, src):
    """The broadcast point joins map each input block alone: a
    materialized 4-block page input gives 4 output blocks, so no task
    holds two blocks' rows."""
    tiled = spatial.assign_tiles(pages).repartition(4).materialize()
    assert tiled.num_blocks() == 4
    pois = OSM(src).get_pois().materialize()
    idx = spatial.pack_point_index(pois)
    outs = {
        "pip_join": spatial.pip_join(tiled, buildings, layer="buildings"),
        "knn_join": spatial.knn_join(tiled, k=2, index_ref=idx),
        "radius_join": spatial.radius_join(tiled, radius_m=300.0,
                                           index_ref=idx),
    }
    for name, out in outs.items():
        assert out.materialize().num_blocks() == 4, name


def test_knn_join_slices_a_big_block(pages, src, monkeypatch):
    """A block past the slice bound ranks slice by slice with the same
    rows as one pass over it."""
    pois = OSM(src).get_pois().materialize()
    idx = spatial.pack_point_index(pois)
    tiled = spatial.assign_tiles(pages).to_arrow_refs()
    t = pa.concat_tables(ray.get(tiled))
    whole = spatial.KnnJoiner(idx, k=3)(t)
    monkeypatch.setattr(spatial, "_KNN_SLICE_ROWS", 7)
    sliced = spatial.KnnJoiner(idx, k=3)(t)
    assert sliced.num_rows == 3 * t.num_rows
    assert sliced.equals(whole)
