"""Layer-pipeline golden-shape + semantic tests over the sf0.001 fixture.

Mirrors the reference test pyramid (SURVEY.md §5): golden counts + required
columns + geometry types + semantic negatives, the bbox complete-ways cases,
and relation assembly shapes (multipolygon-with-hole, island-in-hole,
split-ring stitching, open-ring drop, route linestrings)."""

import collections

import numpy as np
import pytest

from pyrosm_ray.fixtures import TEST_BBOX, ensure_fixtures
from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.pipelines.layers import OSM


@pytest.fixture(scope="module")
def src():
    return str(ensure_fixtures("sf0.001"))


@pytest.fixture(scope="module")
def osm(src):
    return OSM(src)


@pytest.fixture(scope="module")
def buildings_df(osm):
    return osm.get_buildings().to_pandas()


@pytest.fixture(scope="module")
def bbox_buildings_df(src):
    return OSM(src, bounding_box=TEST_BBOX).get_buildings().to_pandas()


def geom_types(df):
    return collections.Counter(wkb.wkb_geom_type(g) for g in df.geometry)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

def test_walking_network(osm):
    df = osm.get_network("walking").to_pandas()
    assert df.shape[0] == 28
    assert {"id", "highway", "name", "geometry", "length", "oneway",
            "osm_type", "tags"} <= set(df.columns)
    # all edges are MultiLineStrings of segments with positive length
    assert set(geom_types(df)) == {wkb.MULTILINESTRING}
    assert (df.length > 0).all()
    # semantic negatives: nothing walking-hostile
    assert not df.highway.isin(["motorway", "motorway_link", "cycleway"]).any()
    # area=yes ways never enter a network
    assert not (df.area == "yes").any()
    assert (df.osm_type == "way").all()


def test_driving_network(osm):
    df = osm.get_network("driving").to_pandas()
    assert "motorway" in set(df.highway)
    for bad in ("footway", "cycleway", "steps", "track", "path",
                "pedestrian", "construction"):
        assert bad not in set(df.highway)
    # service=private excluded under driving
    assert not (df.service == "private").any()


def test_cycling_network(osm):
    df = osm.get_network("cycling").to_pandas()
    assert "cycleway" in set(df.highway)
    assert "footway" not in set(df.highway)
    # bicycle=no ways excluded
    assert not (df.bicycle == "no").any()


def test_network_all_and_lengths(osm):
    df = osm.get_network("all").to_pandas()
    assert df.shape[0] >= 30  # everything except area=yes streets
    # length equals the haversine recomputation from the geometry
    row = df.iloc[0]
    gt, lines = wkb.decode_wkb(row.geometry)
    coords = np.vstack([lines[0]] + [l[1:] for l in lines[1:]])
    expect = ops.polyline_lengths_m(coords, np.array([0, len(coords)]))[0]
    assert row.length == expect


# ---------------------------------------------------------------------------
# buildings / areas
# ---------------------------------------------------------------------------

def test_buildings_golden(buildings_df):
    df = buildings_df
    assert df.shape[0] == 625
    counts = dict(df.osm_type.value_counts())
    assert counts == {"way": 622, "relation": 3}
    gt = geom_types(df)
    assert gt[wkb.POLYGON] == 624 and gt[wkb.MULTIPOLYGON] == 1
    # relation member rings never appear as standalone ways
    rel_names = {"MPHole", "StraddleRel", "NodeMember"}
    assert rel_names <= set(df[df.osm_type == "relation"].name)
    # exterior rings oriented CCW (right-hand rule)
    for g in df.geometry.head(20):
        rings = wkb.decode_wkb(g)[1]
        if isinstance(rings, list) and isinstance(rings[0], np.ndarray):
            assert ops.ring_is_ccw(rings[0])


def test_buildings_value_filter(osm):
    df = osm.get_buildings({"building": ["retail"]}).to_pandas()
    ways = df[df.osm_type == "way"]
    # ensure_filter_key adds building:True? No — a dict WITH building stays;
    # only exact retail ways remain standalone
    assert set(ways.building) == {"retail"}


def test_relation_shapes(buildings_df):
    df = buildings_df
    by_name = {r["name"]: r for _, r in
               df[df.osm_type == "relation"].iterrows()}
    gt, rings = wkb.decode_wkb(by_name["MPHole"].geometry)
    assert gt == wkb.POLYGON and len(rings) == 2  # shell + hole
    assert ops.ring_is_ccw(rings[0]) and not ops.ring_is_ccw(rings[1])
    gt, polys = wkb.decode_wkb(by_name["StraddleRel"].geometry)
    assert gt == wkb.MULTIPOLYGON and [len(p) for p in polys] == [1, 1]


def test_island_in_hole_and_open_drop(osm):
    df = osm.get_landuse().to_pandas()
    rels = df[df.osm_type == "relation"]
    shapes = sorted(
        (wkb.wkb_geom_type(g),
         [len(p) for p in wkb.decode_wkb(g)[1]]
         if wkb.wkb_geom_type(g) == wkb.MULTIPOLYGON
         else len(wkb.decode_wkb(g)[1]))
        for g in rels.geometry)
    # Island -> MultiPolygon [[shell,hole],[island]]; OpenDrop -> Polygon 1
    assert (wkb.MULTIPOLYGON, [2, 1]) in shapes
    assert (wkb.POLYGON, 1) in shapes


def test_split_ring_stitching(osm):
    df = osm.get_natural().to_pandas()
    rels = df[df.osm_type == "relation"]
    assert len(rels) == 1
    gt, rings = wkb.decode_wkb(rels.iloc[0].geometry)
    assert gt == wkb.POLYGON and len(rings) == 1
    assert ops.is_closed_ring(rings[0]) and len(rings[0]) >= 9


def test_route_relations_linestring(osm):
    df = osm.get_data_by_custom_criteria(
        {"route": True, "waterway": True}, keep_nodes=False).to_pandas()
    rels = df[df.osm_type == "relation"]
    assert len(rels) == 2
    assert all(wkb.wkb_geom_type(g) in
               (wkb.LINESTRING, wkb.MULTILINESTRING) for g in rels.geometry)
    # BikeRoute stitches two track ways into one LineString
    bike = rels[rels.name == "BikeRoute"].iloc[0]
    gt, coords = wkb.decode_wkb(bike.geometry)
    assert gt == wkb.LINESTRING and len(coords) == 3


def test_admin_boundary(osm):
    df = osm.get_boundaries(name="Testville").to_pandas()
    assert df.shape[0] == 1
    row = df.iloc[0]
    assert row.osm_type == "relation"
    # type=boundary overrides the linestring rule -> polygon
    assert wkb.wkb_geom_type(row.geometry) == wkb.POLYGON
    all_admin = OSM(str(osm.src)).get_boundaries().to_pandas()
    assert df.shape[0] < all_admin.shape[0]


def test_pois_nodes(osm):
    df = osm.get_pois().to_pandas()
    assert (df.osm_type == "node").all()
    assert df.shape[0] == 201  # 200 random POIs + townhall node
    assert set(geom_types(df)) == {wkb.POINT}
    assert {"amenity", "shop", "tourism", "name"} <= set(df.columns)


def test_closed_way_typing_rules(osm):
    df = osm.get_data_by_custom_criteria(
        {"barrier": True, "leisure": True, "landuse": ["grass"]},
        keep_nodes=False, keep_relations=False,
        tags_as_columns=["barrier", "leisure", "landuse", "area", "name"],
    ).to_pandas()
    by_name = {r["name"]: r for _, r in df.iterrows()}
    # closed barrier ring stays linear
    assert wkb.wkb_geom_type(by_name["FenceRing"].geometry) == \
        wkb.MULTILINESTRING
    # area=no closed landuse stays linear
    assert wkb.wkb_geom_type(by_name["NoAreaGrass"].geometry) == \
        wkb.MULTILINESTRING
    # plain closed leisure ring is a polygon
    assert wkb.wkb_geom_type(by_name["ParkRing"].geometry) == wkb.POLYGON


def test_degenerate_ways(osm):
    df = osm.get_data_by_custom_criteria(
        {"highway": True, "building": True}, keep_nodes=False,
        keep_relations=False,
        tags_as_columns=["highway", "building", "name", "id"],
    ).to_pandas()
    names = set(df.name)
    assert "OneRef" not in names          # <2 coords -> dropped
    assert "AllMissing" not in names      # every ref missing -> dropped
    assert "PartMissing" in names         # partial tolerance: 3 of 4 resolve
    part = df[df.name == "PartMissing"].iloc[0]
    gt, lines = wkb.decode_wkb(part.geometry)
    assert gt == wkb.MULTILINESTRING and len(lines) == 2
    # a tag literally keyed "id" is promoted as id_tag
    assert "id_tag" in df.columns
    assert df[df.name == "IdTag"].iloc[0].id_tag == "labelled-id"
    # TriRing: closed with 3 distinct coords -> fallback ring (auto-closed)
    assert "TriRing" in names


# ---------------------------------------------------------------------------
# bbox semantics
# ---------------------------------------------------------------------------

def test_bbox_buildings(bbox_buildings_df):
    df = bbox_buildings_df
    names = set(n for n in df.name if isinstance(n, str))
    assert {f"InBox {i}" for i in range(12)} <= names
    assert {f"Straddle {i}" for i in range(4)} <= names   # complete ways
    assert not any(n.startswith("OutBox") for n in names)
    assert "StraddleRel" in names
    # every kept geometry really intersects the box
    x0, y0, x1, y1 = TEST_BBOX
    for g in df.geometry:
        bx0, by0, bx1, by1 = wkb.wkb_bbox(g)
        assert bx1 >= x0 and bx0 <= x1 and by1 >= y0 and by0 <= y1


def test_bbox_straddling_way_complete(bbox_buildings_df):
    df = bbox_buildings_df
    row = df[df.name == "Straddle 0"].iloc[0]
    gt, rings = wkb.decode_wkb(row.geometry)
    # complete-ways: the full ring survives even though some vertices are
    # outside the box (completion #236)
    assert gt == wkb.POLYGON
    assert rings[0][:, 0].max() > TEST_BBOX[2]


def test_bbox_network(src):
    full = OSM(src).get_network("all").to_pandas()
    boxed = OSM(src, bounding_box=TEST_BBOX).get_network("all").to_pandas()
    assert 0 < boxed.shape[0] < full.shape[0]


# ---------------------------------------------------------------------------
# keep_all + custom criteria
# ---------------------------------------------------------------------------

def test_keep_all_tagged_elements(osm):
    df = osm.get_data_by_custom_criteria(
        None, keep_nodes=False, keep_relations=False,
        tags_as_columns=["highway", "building", "name"]).to_pandas()
    # every tagged standalone way with >=2 resolvable coords
    assert df.shape[0] > 650


def test_exclude_vs_keep_complement(osm):
    keys = ["highway"]
    cols = ["highway", "name"]
    kept = osm.get_data_by_custom_criteria(
        {"highway": ["footway"]}, osm_keys_to_keep=keys, filter_type="keep",
        keep_nodes=False, keep_relations=False,
        tags_as_columns=cols).to_pandas()
    excl = osm.get_data_by_custom_criteria(
        {"highway": ["footway"]}, osm_keys_to_keep=keys,
        filter_type="exclude", keep_nodes=False, keep_relations=False,
        tags_as_columns=cols).to_pandas()
    assert set(kept.highway) == {"footway"}
    assert "footway" not in set(excl.highway)


# ---------------------------------------------------------------------------
# broadcast vs shuffle strategy parity (differential)
# ---------------------------------------------------------------------------

def test_strategy_parity(src, buildings_df, tmp_path):
    # the shuffle pipeline runs in its OWN Ray session (fresh subprocess):
    # differential broadcast-vs-shuffle parity plus process isolation
    import subprocess
    import sys
    out = tmp_path / "shuffle.parquet"
    script = (
        "import ray, sys\n"
        "ray.init(address='local', num_cpus=8, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from pyrosm_ray.pipelines.layers import OSM\n"
        f"df = OSM({src!r}, strategy='shuffle', num_partitions=4)"
        ".get_buildings().to_pandas()\n"
        f"df.to_parquet({str(out)!r})\n"
        "ray.shutdown()\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=300, cwd="/root/repo")
    assert r.returncode == 0, r.stderr[-2000:]
    import pandas as pd
    a = buildings_df.sort_values(["osm_type", "id"]).reset_index(drop=True)
    b = pd.read_parquet(out).sort_values(["osm_type", "id"]) \
        .reset_index(drop=True)
    assert list(a.id) == list(b.id)
    assert list(a.osm_type) == list(b.osm_type)
    assert all(x == y for x, y in zip(a.geometry, b.geometry))


def test_relation_assembly_autoroutes_distributed(src, buildings_df,
                                                  ray_session, monkeypatch):
    """Under the default broadcast strategy, a relations table that
    outgrows the driver contract auto-routes relation assembly to the
    distributed groupby path — output identical to the driver path."""
    monkeypatch.setattr(OSM, "RELATIONS_DRIVER_MAX_BYTES", 0)
    b = OSM(src).get_buildings().to_pandas() \
        .sort_values(["osm_type", "id"]).reset_index(drop=True)
    a = buildings_df.sort_values(["osm_type", "id"]).reset_index(drop=True)
    assert list(a.id) == list(b.id)
    assert all(x == y for x, y in zip(a.geometry, b.geometry))


def test_relation_assembly_distributed_without_member_ways(src,
                                                          ray_session):
    """Kept relations whose member ways all fall away: the distributed
    route's exchange and join return zero typed rows (no count gate
    before them), and the layer union accepts the empty part."""
    import pyarrow.parquet as pq
    import ray.data as rd

    o = OSM(src)
    rel_kept = pq.read_table(o._path("osm_relations"))
    assert rel_kept.num_rows
    no_ways = rd.from_arrow(pq.read_table(
        o._path("osm_ways"), columns=["id", "refs"]).slice(0, 0))
    rows = o._assemble_relations_distributed(rel_kept, no_ways,
                                             ["building"])
    assert rows.count() == 0
    union = o._union_parts([("relation", rows)], ["building"], "area",
                           False)
    assert len(union.to_pandas()) == 0


def test_sharded_coord_index_parity(src, buildings_df, ray_session):
    """Distributed sharded coordinate index gathers identically to the
    single-array driver index (hits + misses), and a buildings layer built
    through it is byte-identical to the driver-path layer."""
    import ray

    from pyrosm_ray.stages import topology
    nodes = OSM(src).nodes(columns=["id", "lon", "lat"])
    legacy = ray.get(topology.build_coord_index(nodes))
    manifest = ray.get(topology.build_coord_index_sharded(
        OSM(src).nodes(columns=["id", "lon", "lat"]), num_shards=5))
    assert manifest["sharded"] and len(manifest["shards"]) >= 1
    rng = np.random.default_rng(3)
    hits = rng.choice(legacy[0], size=200)
    misses = np.array([-5, 0, 10**15], dtype=np.int64)
    q = np.concatenate([hits, misses])
    lon_a, lat_a, ok_a = topology.gather_coords(legacy, q)
    lon_b, lat_b, ok_b = topology.gather_coords(manifest, q)
    np.testing.assert_array_equal(ok_a, ok_b)
    np.testing.assert_array_equal(lon_a[ok_a], lon_b[ok_b])
    np.testing.assert_array_equal(lat_a[ok_a], lat_b[ok_b])
    assert not ok_a[-3:].any()
    # layer-level parity through the sharded index
    o = OSM(src)
    o.COORDS_DRIVER_FAST_MAX_BYTES = 0  # force the sharded build
    b = o.get_buildings().to_pandas()
    a = buildings_df.sort_values(["osm_type", "id"]).reset_index(drop=True)
    b = b.sort_values(["osm_type", "id"]).reset_index(drop=True)
    assert list(a.id) == list(b.id)
    assert all(x == y for x, y in zip(a.geometry, b.geometry))


def test_parse_once_caches(src, ray_session):
    """ST2 parse-once contract: coord index, schemas and the kept-relation
    set are computed once per OSM instance and reused across getters."""
    from unittest import mock
    o = OSM(src)
    r1 = o.coord_ref()
    assert o.coord_ref() is r1
    o._schema("osm_ways")
    with mock.patch("pyrosm_ray.pipelines.layers.pq.read_schema",
                    side_effect=AssertionError("re-read")) as m:
        o._schema("osm_ways")
        assert not m.called
    k1 = o._kept_relations(["building"], {"building": [True]}, "keep", False)
    with mock.patch("pyrosm_ray.pipelines.layers.pq.read_table",
                    side_effect=AssertionError("re-read")):
        k2 = o._kept_relations(["building"], {"building": [True]},
                               "keep", False)
    assert k2[0] is k1[0]
    # different filter signature -> distinct entry (no false sharing)
    k3 = o._kept_relations(["landuse"], {"landuse": [True]}, "keep", False)
    assert k3[0] is not k1[0]


def test_inverted_bbox_raises(src):
    """Reference regression #241: inverted/degenerate bbox fails at
    construction with a coordinate-order hint, not a later KeyError."""
    with pytest.raises(ValueError, match="minx"):
        OSM(src, bounding_box=(24.96, 60.16, 24.93, 60.20))
    with pytest.raises(ValueError, match="minx"):
        OSM(src, bounding_box=(24.93, 60.16, 24.93, 60.20))


def test_bbox_outside_extent_returns_empty(src, ray_session):
    """A bbox with no data yields empty layers, not a crash (reference
    test_bbox_outside_extent_returns_empty_not_keyerror)."""
    osm = OSM(src, bounding_box=(10.0, 50.0, 10.1, 50.1))
    assert osm.get_buildings().count() == 0
    assert osm.get_pois().count() == 0
    assert osm.get_network("walking").count() == 0


def test_get_network_custom_filter(osm):
    """Reference regressions test_get_network_custom_filter_*: a custom
    filter REPLACES the preset selection; dict defaults to exclude,
    advanced filters default to keep and select by their own keys."""
    # dict + keep: only footways remain
    df = osm.get_network(
        "walking", custom_filter={"highway": ["footway"]},
        filter_type="keep").to_pandas()
    assert set(df.highway) == {"footway"}
    # dict default: exclude over highway ways
    df2 = osm.get_network(
        "walking", custom_filter={"highway": ["footway"]}).to_pandas()
    assert "footway" not in set(df2.highway)
    assert len(df2) > 0
    # filter keys surface as columns
    df3 = osm.get_network(
        "walking", custom_filter={"highway": ["footway"],
                                  "foot": ["no"]}).to_pandas()
    assert "foot" in df3.columns
    with pytest.raises(ValueError, match="filter_type"):
        osm.get_network("walking", custom_filter={"highway": ["footway"]},
                        filter_type="bogus")
    # tags_to_keep overrides the highway column set
    df4 = osm.get_network("walking",
                          tags_to_keep=["name", "highway"]).to_pandas()
    assert "maxspeed" not in df4.columns and "name" in df4.columns


def test_get_network_advanced_custom_filter(osm):
    """Advanced (bracket/regex) filter: defaults to keep, selects by its
    own positive keys (reference pyrosm.py:446-466)."""
    df = osm.get_network(
        "walking", custom_filter='["highway"~"^foot"]').to_pandas()
    assert len(df) > 0 and set(df.highway) == {"footway"}


def test_timestamp_history_reads(ray_session, tmp_path):
    """OSM(timestamp=...) reads the element state as of the cutoff:
    latest version per id with ts <= t, invisible latest drops the
    element (reference timestamp contract, pyrosm.py:383-391)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    TAGS = pa.map_(pa.string(), pa.string())
    T1 = np.datetime64("2024-01-01", "s")
    T2 = np.datetime64("2025-01-01", "s")

    def nodes_at(version, dx, t):
        return {
            "id": list(range(1, 5)), "version": [version] * 4,
            "lon": [0.0 + dx, 0.001 + dx, 0.001 + dx, 0.0 + dx],
            "lat": [0.0, 0.0, 0.001, 0.001],
            "tags": [[]] * 4,
            "timestamp": [t] * 4, "visible": [True] * 4}
    n1, n2 = nodes_at(1, 0.0, T1), nodes_at(2, 0.01, T2)
    types = {"tags": TAGS, "timestamp": pa.timestamp("s"),
             "version": pa.int32(), "id": pa.int64()}
    nodes = pa.table({k: pa.array(n1[k] + n2[k], types.get(k))
                      for k in n1})
    ways = pa.table({
        "id": pa.array([100, 100, 200, 200], pa.int64()),
        "version": pa.array([1, 2, 1, 2], pa.int32()),
        "refs": pa.array([[1, 2, 3, 4, 1]] * 4, pa.list_(pa.int64())),
        "tags": pa.array([[("building", "yes")], [("building", "retail")],
                          [("building", "yes")], [("building", "yes")]],
                         TAGS),
        "timestamp": pa.array([T1, T2, T1, T2], pa.timestamp("s")),
        "visible": pa.array([True, True, True, False]),  # 200 deleted @T2
    })
    rels = pa.table({
        "id": pa.array([], pa.int64()),
        "members": pa.array([], pa.list_(pa.struct(
            [("member_id", pa.int64()), ("member_type", pa.string()),
             ("member_role", pa.string())]))),
        "tags": pa.array([], TAGS),
        "version": pa.array([], pa.int32()),
        "timestamp": pa.array([], pa.timestamp("s")),
        "visible": pa.array([], pa.bool_()),
    })
    pq.write_table(nodes, tmp_path / "osm_nodes.parquet")
    pq.write_table(ways, tmp_path / "osm_ways.parquet")
    pq.write_table(rels, tmp_path / "osm_relations.parquet")

    b1 = OSM(str(tmp_path), timestamp="2024-06-01") \
        .get_buildings().to_pandas().sort_values("id")
    assert list(b1.id) == [100, 200]
    assert set(b1.building) == {"yes"}
    # v1 coordinates (no +0.01 shift)
    rings = wkb.decode_wkb(b1.iloc[0].geometry)[1]
    assert abs(rings[0][:, 0].max() - 0.001) < 1e-9

    b2 = OSM(str(tmp_path), timestamp="2025-06-01") \
        .get_buildings().to_pandas().sort_values("id")
    assert list(b2.id) == [100]            # way 200 invisible at T2
    assert list(b2.building) == ["retail"]  # v2 tags win
    rings = wkb.decode_wkb(b2.iloc[0].geometry)[1]
    assert abs(rings[0][:, 0].max() - 0.011) < 1e-9  # v2 coords

    # get_network(timestamp=...) delegates to a timestamped twin
    hw = pa.table({
        "id": pa.array([300], pa.int64()),
        "version": pa.array([1], pa.int32()),
        "refs": pa.array([[1, 2]], pa.list_(pa.int64())),
        "tags": pa.array([[("highway", "residential")]], TAGS),
        "timestamp": pa.array([T2], pa.timestamp("s")),
        "visible": pa.array([True]),
    })
    pq.write_table(pa.concat_tables([ways, hw]),
                   tmp_path / "osm_ways.parquet")
    osm = OSM(str(tmp_path))
    early = osm.get_network("driving", timestamp="2024-06-01").to_pandas()
    assert len(early) == 0                 # highway way not yet created
    late = osm.get_network("driving", timestamp="2025-06-01").to_pandas()
    assert list(late.id) == [300]


def test_polygon_bbox_rect_ring_parity(src, ray_session):
    """A polygon bounding box that IS the TEST_BBOX rectangle must produce
    exactly the rectangle-bbox layer (differential: even-odd + crossing
    paths vs the rect fast path)."""
    x0, y0, x1, y1 = TEST_BBOX
    ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
    rect = OSM(src, bounding_box=TEST_BBOX).get_buildings().to_pandas() \
        .sort_values(["osm_type", "id"]).reset_index(drop=True)
    poly = OSM(src, bounding_box=ring).get_buildings().to_pandas() \
        .sort_values(["osm_type", "id"]).reset_index(drop=True)
    assert list(rect.id) == list(poly.id)
    assert all(a == b for a, b in zip(rect.geometry, poly.geometry))


def test_polygon_bbox_triangle(src, ray_session):
    """A triangle over half the TEST_BBOX keeps a strict subset of the
    rectangle's features, and each kept geometry really intersects it."""
    x0, y0, x1, y1 = TEST_BBOX
    tri = [[x0, y0], [x1, y0], [x0, y1], [x0, y0]]
    rect_n = len(OSM(src, bounding_box=TEST_BBOX).get_buildings()
                 .to_pandas())
    df = OSM(src, bounding_box=tri).get_buildings().to_pandas()
    assert 0 < len(df) < rect_n
    import numpy as _np

    from pyrosm_ray.pipelines.layers import _wkb_intersects_poly
    ring = _np.asarray(tri, dtype=_np.float64)
    for g in df.geometry:
        assert _wkb_intersects_poly(g, [ring], x0, y0, x1, y1)
    # WKB polygon input is accepted too and matches the ring input
    from pyrosm_ray.geom import wkb as _wkb
    df2 = OSM(src, bounding_box=_wkb.polygon_wkb([ring])) \
        .get_buildings().to_pandas()
    assert sorted(df2.id) == sorted(df.id)


def test_getter_extra_attributes_and_timestamp(osm, src, ray_session):
    """Reference getter signatures: extra_attributes adds tag columns;
    getter-level timestamp delegates to a timestamped twin."""
    df = osm.get_buildings(extra_attributes=["opening_hours"]).to_pandas()
    assert "opening_hours" in df.columns
    n_all = len(osm.get_buildings().to_pandas())
    assert len(OSM(src).get_buildings(timestamp="2030-01-01")
               .to_pandas()) == n_all
    assert len(OSM(src).get_pois(timestamp="2000-01-01").to_pandas()) == 0


def test_element_cache_reads_input_once(src, ray_session, monkeypatch):
    """ST2 parse-once contract (reference pyrosm.py:195-271), cache-on-
    reuse form: the first getter streams (no caching tax on single-layer
    jobs), the second materialises + caches, so an N-getter workflow
    plans at most TWO reads per element table and the third getter plans
    none; outputs are unchanged vs an uncached instance."""
    from pyrosm_ray.sources import parquet as parquet_mod

    real = parquet_mod.read_parquet_split
    calls = collections.Counter()

    def counting(path, *a, **k):
        calls[path.rsplit("/", 1)[-1]] += 1
        return real(path, *a, **k)

    monkeypatch.setattr(parquet_mod, "read_parquet_split", counting)
    o = OSM(src)
    b1 = o.get_buildings().to_pandas()
    l1 = o.get_landuse().to_pandas()
    after_two = dict(calls)
    p1 = o.get_pois().to_pandas()
    assert calls["osm_ways.parquet"] <= 2, calls
    assert calls["osm_nodes.parquet"] <= 2, calls  # coord_ref uses its own
    # relations go through the kept-relations driver fast path at this
    # size; the Dataset route (when taken) must also read at most twice
    assert calls["osm_relations.parquet"] <= 2, calls
    # the third getter is served entirely from the cache
    assert calls["osm_ways.parquet"] == after_two["osm_ways.parquet"], calls
    # parity vs uncached
    o2 = OSM(src, cache_elements=False)
    assert sorted(b1.id) == sorted(o2.get_buildings().to_pandas().id)
    assert sorted(l1.id) == sorted(o2.get_landuse().to_pandas().id)
    assert sorted(p1.id) == sorted(o2.get_pois().to_pandas().id)


def test_latest_at_bucketed_parity(src, ray_session):
    """Distributed bucketed history route == broadcast latest_at_any,
    nested tags payload intact, invisible latest dropped."""
    import pandas as pd
    import ray.data as rd

    from pyrosm_ray.stages.history import latest_at_any, latest_at_bucketed
    ds = rd.read_parquet(f"{src}/osm_history.parquet")
    ts = "2025-01-01"
    a = latest_at_any(ds, ts).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    b = latest_at_bucketed(rd.read_parquet(f"{src}/osm_history.parquet"),
                           ts).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert len(a) == len(b) > 0
    for col in ("id", "version", "lon", "lat"):
        assert list(a[col]) == list(b[col]), col
    assert [sorted(t) for t in a.tags] == [sorted(t) for t in b.tags]
