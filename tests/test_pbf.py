"""PBF source: wire-decoder units + golden parity against the reference's
own bundled fixtures and published counts.

The decoder is written from the PUBLIC OSM PBF spec; the reference's
``test.osm.pbf`` / ``Helsinki.osm.pbf`` (public OSM extracts bundled as
test data) and its hard-coded test expectations serve as the golden
oracle:

* 2219 building-tagged ways      (tests/test_building_parsing.py:55)
* 2208 assembled buildings       (tests/test_geometry.py:53)
* 1054 buildings excl. residential (tests/test_custom_filter.py:108)
* 1006 amenity nodes, Helsinki   (tests/test_custom_filter.py:689)
"""

import os

import numpy as np
import pyarrow as pa
import pytest

from pyrosm_ray.sources import pbf

TEST_PBF = "/root/reference/pyrosm/data/test.osm.pbf"
HELSINKI_PBF = "/root/reference/pyrosm/data/Helsinki.osm.pbf"
needs_test_pbf = pytest.mark.skipif(
    not os.path.exists(TEST_PBF), reason=f"{TEST_PBF} not present")
needs_helsinki_pbf = pytest.mark.skipif(
    not os.path.exists(HELSINKI_PBF), reason=f"{HELSINKI_PBF} not present")


# ---------------------------------------------------------------------------
# wire primitives
# ---------------------------------------------------------------------------

def _encode_varint(v: int) -> bytes:
    out = bytearray()
    v &= (1 << 64) - 1
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def test_packed_varint_roundtrip():
    rng = np.random.default_rng(0)
    vals = np.concatenate([
        rng.integers(0, 1 << 62, 200, dtype=np.int64).astype(np.uint64),
        np.array([0, 1, 127, 128, 300, (1 << 64) - 1, 1 << 63],
                 dtype=np.uint64)])
    buf = b"".join(_encode_varint(int(v)) for v in vals)
    got = pbf.decode_packed_varints(buf)
    assert np.array_equal(got, vals)


def test_zigzag_roundtrip():
    vals = np.array([0, -1, 1, -2, 2, 2**62, -2**62, -2**63],
                    dtype=np.int64)
    enc = (vals.astype(np.int64) << 1) ^ (vals >> 63)  # zigzag encode
    got = pbf.unzigzag(enc.view(np.uint64))
    assert np.array_equal(got, vals)


# ---------------------------------------------------------------------------
# blob framing + header
# ---------------------------------------------------------------------------

@needs_test_pbf
def test_blob_index_and_header():
    idx = pbf.scan_blob_index(TEST_PBF)
    assert idx[0]["type"] == "OSMHeader"
    assert all(b["type"] == "OSMData" for b in idx[1:])
    hdr = pbf.read_pbf_header(TEST_PBF)
    assert "OsmSchema-V0.6" in hdr["required_features"]
    x0, y0, x1, y1 = hdr["bbox"]
    assert 26.9 < x0 < x1 < 27.0 and 60.5 < y0 < y1 < 60.6


# ---------------------------------------------------------------------------
# element decode (golden counts from the reference's own tests)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decoded():
    tabs = [pbf.parse_primitive_block(
        pbf.read_blob_data(TEST_PBF, b["offset"], b["size"]))
        for b in pbf.scan_blob_index(TEST_PBF) if b["type"] == "OSMData"]
    nodes = pa.concat_tables([t[0] for t in tabs])
    ways = pa.concat_tables([t[1] for t in tabs])
    rels = pa.concat_tables([t[2] for t in tabs])
    return nodes, ways, rels


@needs_test_pbf
def test_element_counts(decoded):
    nodes, ways, rels = decoded
    assert nodes.num_rows == 14222
    assert ways.num_rows == 2653
    assert rels.num_rows == 5


@needs_test_pbf
def test_building_tagged_ways_match_reference(decoded):
    from pyrosm_ray.filters.semantics import TagBatchEvaluator
    _, ways, _ = decoded
    ev = TagBatchEvaluator(ways["tags"])
    m = ev.keep_mask(["building"], {"building": [True]}, "keep")
    assert int(m.sum()) == 2219


@needs_test_pbf
def test_coordinates_in_header_bbox(decoded):
    nodes, _, _ = decoded
    lon = np.asarray(nodes["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(nodes["lat"].to_numpy(zero_copy_only=False))
    assert lon.min() > 26.8 and lon.max() < 27.1
    assert lat.min() > 60.4 and lat.max() < 60.6
    # metadata decoded (dense info): versions positive, timestamps sane
    ver = np.asarray(nodes["version"].to_numpy(zero_copy_only=False))
    assert (ver > 0).all()


# ---------------------------------------------------------------------------
# end-to-end: pbf -> parquet on-ramp -> layer pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pbf_dir(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pbf") / "test_osm")
    counts = pbf.pbf_to_parquet(TEST_PBF, out)
    assert counts == {"nodes": 14222, "ways": 2653, "relations": 5}
    return out


@needs_test_pbf
def test_buildings_assembly_matches_reference(pbf_dir):
    from pyrosm_ray.pipelines.layers import OSM
    b = OSM(pbf_dir).get_buildings().to_pandas()
    # reference: get_data_by_custom_criteria({'building': True}) == 2208
    # Polygon features on this extract (tests/test_geometry.py:53)
    assert len(b) == 2208


@needs_test_pbf
def test_exclude_residential_matches_reference(pbf_dir):
    from pyrosm_ray.pipelines.layers import OSM
    gdf = OSM(pbf_dir).get_data_by_custom_criteria(
        custom_filter={"building": ["residential"]},
        filter_type="exclude", osm_keys_to_keep="building",
        tags_as_columns=["building"],
        keep_nodes=False, keep_relations=False).to_pandas()
    assert len(gdf) == 1054
    assert "residential" not in set(gdf["building"].dropna())


@needs_helsinki_pbf
def test_helsinki_amenity_nodes_match_reference(ray_session,
                                                tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pbf") / "helsinki")
    pbf.pbf_to_parquet(HELSINKI_PBF, out)
    from pyrosm_ray.pipelines.layers import OSM
    nodes_only = OSM(out).get_data_by_custom_criteria(
        {"amenity": True}, filter_type="keep",
        keep_ways=False, keep_relations=False).to_pandas()
    assert set(nodes_only["osm_type"]) == {"node"}
    assert len(nodes_only) == 1006


@needs_test_pbf
def test_read_pbf_dataset(ray_session):
    ds = pbf.read_pbf(TEST_PBF, "ways")
    assert ds.count() == 2653
    first = ds.take(1)[0]
    assert {"id", "refs", "tags"} <= set(first.keys())


@needs_test_pbf
def test_network_parsing_counts_match_reference(pbf_dir):
    """The reference's own test_network_parsing goldens on its bundled
    test.osm.pbf (reference tests/test_network_parsing.py:44,84,125,166,
    209): every network preset assembles the same feature count."""
    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(pbf_dir)
    golden = {"walking": 238, "driving": 200, "driving+service": 200,
              "cycling": 290, "all": 331}
    for nt, want in golden.items():
        assert o.get_network(nt).count() == want, nt


@needs_helsinki_pbf
def test_pois_default_count_matches_reference(ray_session,
                                              tmp_path_factory):
    """get_pois() on Helsinki.osm.pbf == 1711 features — the reference's
    test_a_poi.py:27 golden (its osmium-parity count)."""
    out = str(tmp_path_factory.mktemp("pbf") / "helsinki_pois")
    pbf.pbf_to_parquet(HELSINKI_PBF, out)
    from pyrosm_ray.pipelines.layers import OSM
    assert OSM(out).get_pois().count() == 1711


@needs_test_pbf
def test_graph_export_shapes_match_reference(pbf_dir):
    """get_network(nodes=True) golden shapes on test.osm.pbf — full
    extract (1038 edges / 989 nodes, reference
    tests/test_network_parsing.py:464) and the bbox case including the
    reference's #236/#199 complete-ways semantics (291 edges / 293
    nodes: boundary-crossing edges kept whole, their outside endpoints
    retained, :490)."""
    from pyrosm_ray.pipelines.layers import OSM
    nodes, edges = OSM(pbf_dir).get_network(nodes=True)
    assert edges.count() == 1038
    assert nodes.count() == 989
    nodes_b, edges_b = OSM(
        pbf_dir, bounding_box=[26.94, 60.525, 26.96, 60.535]) \
        .get_network(nodes=True)
    assert edges_b.count() == 291
    assert nodes_b.count() == 293


@needs_test_pbf
def test_landuse_and_natural_counts_match_reference(pbf_dir):
    """get_landuse() == 51 and get_natural() == 14 on test.osm.pbf —
    the reference's tests/test_landuse_parsing.py:35 and
    tests/test_natural_parsing.py:35 goldens."""
    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(pbf_dir)
    assert o.get_landuse().count() == 51
    assert o.get_natural().count() == 14


@pytest.fixture(scope="module")
def helsinki_dir(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pbf") / "helsinki_shared")
    pbf.pbf_to_parquet(HELSINKI_PBF, out)
    return out


@needs_helsinki_pbf
def test_custom_filter_goldens_match_reference(helsinki_dir):
    """Two more reference custom-filter goldens on Helsinki.osm.pbf:
    multi-key keep (shop=alcohol OR amenity=pub -> 59 features, only the
    requested values present; tests/test_custom_filter.py:580) and
    exclude (amenity=library excluded over all element types -> 1083,
    no library rows; :611)."""
    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(helsinki_dir)
    g = o.get_data_by_custom_criteria(
        {"shop": ["alcohol"], "amenity": ["pub"]}).to_pandas()
    assert len(g) == 59
    assert sorted({x for x in g["shop"] if isinstance(x, str)}) \
        == ["alcohol"]
    assert sorted({x for x in g["amenity"] if isinstance(x, str)}) \
        == ["pub"]
    g2 = o.get_data_by_custom_criteria(
        {"amenity": ["library"]}, filter_type="exclude").to_pandas()
    assert len(g2) == 1083
    assert "library" not in set(g2["amenity"])


@needs_test_pbf
def test_graph_export_edge_count_matches_reference(pbf_dir):
    """Directed export of the default (walking) network on test.osm.pbf:
    walking is bidirectional by the reference's per-type rule, so the
    graph holds exactly 2 x 1038 = 2076 directed edges over all 989
    nodes (reference tests/test_graph_exports.py:222,286)."""
    import networkx as nx

    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(pbf_dir)
    nodes, edges = o.get_network("walking", nodes=True)
    g = o.to_graph(nodes, edges, retain_all=True, network_type="walking")
    assert nx.number_of_edges(g) == 2076
    assert nx.number_of_nodes(g) == 989


def test_haversine_unit_golden():
    """The reference's distance golden (tests/
    test_distance_calculation.py:18): Null Island -> (10, 10) is
    1568.52272 km under the shared haversine constants."""
    from pyrosm_ray.geom import ops
    d = float(ops.haversine_m(np.array([0.0]), np.array([0.0]),
                              np.array([10.0]), np.array([10.0]))[0])
    assert round(d / 1000.0, 5) == 1568.52272


def _canon_rings(blob):
    """Order/rotation/direction-independent canonical form of a
    (multi)polygon's rings — the shapely.normalize+equals_exact(0)
    comparison of the reference's straddling test, WKB-native."""
    from pyrosm_ray.geom import wkb as wkblib
    out = []
    for r in wkblib.polygon_rings(blob):
        r = np.asarray(r)[:-1]
        i = np.lexsort((r[:, 1], r[:, 0]))[0]
        fwd = np.roll(r, -i, axis=0)
        rev = np.roll(r[::-1], -(len(r) - 1 - i), axis=0)
        out.append(min(fwd.tobytes(), rev.tobytes()))
    return tuple(sorted(out))


@needs_helsinki_pbf
def test_complete_relations_on_real_extract(helsinki_dir):
    """The reference's straddling-relation scenario on its own Helsinki
    extract (tests/test_complete_relations.py:41, same bbox): with
    complete_relations=True every relation common with the whole-file
    read matches vertex-for-vertex, and at least one relation was
    broken without completion (measured: 3 of 6)."""
    from pyrosm_ray.pipelines.layers import OSM
    BB = [24.94338, 60.17089, 24.95068, 60.17687]

    def rel_geoms(df):
        d = df[df.osm_type == "relation"].set_index("id").geometry
        return {int(i): _canon_rings(g) for i, g in d.items()}

    whole = rel_geoms(OSM(helsinki_dir).get_buildings().to_pandas())
    partial = rel_geoms(OSM(helsinki_dir, bounding_box=BB)
                        .get_buildings().to_pandas())
    complete = rel_geoms(OSM(helsinki_dir, bounding_box=BB,
                             complete_relations=True)
                         .get_buildings().to_pandas())
    common = sorted(set(complete) & set(whole))
    assert len(common) >= 6
    assert all(complete[r] == whole[r] for r in common)
    n_fixed = sum(1 for r in common
                  if not (r in partial and partial[r] == whole[r]))
    assert n_fixed > 0


@needs_test_pbf
def test_filter_regression_invariants_match_reference(pbf_dir):
    """The reference's #108/#112/#118 regression invariants on
    test.osm.pbf (tests/test_regressions.py:130-240): exclude filters
    drop secondary-key matches (no service leak), the driving preset
    leaks neither excluded highway nor service values, keep filters OR
    across keys, and custom-filtered get_network(nodes=True) returns a
    graph-ready pair."""
    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(pbf_dir)
    EXS = {"parking", "parking_aisle", "private", "emergency_access"}
    drive_filter = dict(
        area=["yes"], service=sorted(EXS),
        highway=["cycleway", "footway", "path", "pedestrian", "steps",
                 "track", "corridor", "elevator", "escalator",
                 "proposed", "construction", "bridleway", "abandoned",
                 "platform", "raceway"],
        motor_vehicle=["no"], motorcar=["no"])
    g = o.get_data_by_custom_criteria(
        custom_filter=drive_filter, osm_keys_to_keep="highway",
        filter_type="exclude").to_pandas()
    assert len(g) > 0
    assert not (set(g["service"].dropna().unique()) & EXS)

    e = o.get_network("driving").to_pandas()
    excluded_highway = {"cycleway", "footway", "path", "pedestrian",
                        "steps", "track", "corridor", "elevator",
                        "escalator", "proposed", "construction",
                        "bridleway", "abandoned", "platform", "raceway"}
    assert not (set(e["highway"].dropna().unique()) & excluded_highway)
    if "service" in e.columns:
        assert not (set(e["service"].dropna().unique()) & EXS)

    k = o.get_data_by_custom_criteria(
        custom_filter={"highway": ["path"], "service": ["driveway"]},
        osm_keys_to_keep="highway", filter_type="keep").to_pandas()
    assert len(k) > 0
    assert "driveway" in set(k["service"].dropna().unique())

    nodes, edges = o.get_network(
        custom_filter={"highway": ["footway", "residential"]},
        filter_type="keep", nodes=True)
    assert edges.count() > 0 and nodes.count() > 0


@needs_helsinki_pbf
def test_advanced_filter_parity_on_real_extract(helsinki_dir):
    """The reference's advanced-filter end-to-end equalities on its own
    Helsinki extract (tests/test_advanced_filter.py:240-340): regex
    value unions equal literal unions, bracket-string lists equal dict
    filters, AND-chained brackets subset, non-highway networks work,
    keep/exclude partition the candidate universe, and the layer key is
    OR-injected identically for advanced and dict filters."""
    import re

    from pyrosm_ray.pipelines.layers import OSM

    def ids(ds):
        return {int(x) for x in ds.to_pandas()["id"].unique()}

    o = OSM(helsinki_dir)
    rg = o.get_data_by_custom_criteria(
        custom_filter={"highway": [re.compile("footway|cycleway")]})
    lt = o.get_data_by_custom_criteria(
        custom_filter={"highway": ["footway", "cycleway"]})
    assert ids(rg) == ids(lt) and len(ids(rg)) > 0

    br = o.get_network(custom_filter=['["highway"~"^footway$"]',
                                      '["highway"~"^cycleway$"]'],
                       filter_type="keep")
    pl = o.get_network(custom_filter={"highway": ["footway", "cycleway"]},
                       filter_type="keep")
    assert ids(br) == ids(pl) and len(ids(br)) > 0

    both = o.get_network(
        custom_filter='["highway"~"path|footway"]["bicycle"~"."]',
        filter_type="keep").to_pandas()
    first = o.get_network(custom_filter='["highway"~"path|footway"]',
                          filter_type="keep").to_pandas()
    assert len(both) > 0
    assert set(both.id).issubset(set(first.id))
    assert both["bicycle"].notna().all()

    rail = o.get_network(custom_filter='["railway"~"subway|tram|rail"]',
                         filter_type="keep").to_pandas()
    assert len(rail) > 0 and rail["railway"].notna().all()

    kd = ids(o.get_network(custom_filter='["highway"~"^footway$"]'))
    ke = ids(o.get_network(custom_filter='["highway"~"^footway$"]',
                           filter_type="keep"))
    ex = ids(o.get_network(custom_filter='["highway"~"^footway$"]',
                           filter_type="exclude"))
    un = ids(o.get_network(custom_filter='["highway"~"."]',
                           filter_type="keep"))
    assert kd == ke and kd.isdisjoint(ex) and (kd | ex) == un

    adv = o.get_buildings(custom_filter='["amenity"="restaurant"]')
    pl2 = o.get_buildings(custom_filter={"amenity": ["restaurant"]})
    assert ids(adv) == ids(pl2) and len(ids(adv)) > 0


@needs_helsinki_pbf
def test_geometry_typing_goldens_match_reference(helsinki_dir):
    """The reference's #144 geometry-typing goldens on its Helsinki
    extract (tests/test_geometry.py:64-117): the closed service
    roundabout way 8035241 stays linear in feature extraction, the
    area=yes plazas 4369051/18379563 type as Polygon, and network
    extraction keeps EVERYTHING linear (a polygon is not routable),
    plazas included."""
    from pyrosm_ray.geom import wkb as wkblib
    from pyrosm_ray.pipelines.layers import OSM
    o = OSM(helsinki_dir)
    gdf = o.get_data_by_custom_criteria(
        custom_filter={"highway": True}, filter_type="keep").to_pandas()
    ways = gdf[gdf.osm_type == "way"]
    rb = ways[ways.id == 8035241]
    assert len(rb) == 1
    assert wkblib.wkb_geom_type(rb.iloc[0].geometry) in (
        wkblib.LINESTRING, wkblib.MULTILINESTRING)
    for plaza in (4369051, 18379563):
        row = ways[ways.id == plaza]
        assert len(row) == 1
        assert row.iloc[0]["area"] == "yes"
        assert wkblib.wkb_geom_type(row.iloc[0].geometry) == wkblib.POLYGON
    edges = o.get_network("all").to_pandas()
    types = {wkblib.wkb_geom_type(g) for g in edges.geometry}
    assert types <= {wkblib.LINESTRING, wkblib.MULTILINESTRING}
    for plaza in (4369051, 18379563):
        assert (edges.id == plaza).any()


@needs_helsinki_pbf
def test_ring_orientation_follows_rhr_on_real_extract(helsinki_dir):
    """#230 right-hand rule on the real extract: every orientable ring
    of every buildings/landuse/natural polygon has a CCW exterior and
    CW holes (the reference asserts the same for valid geometries; the
    only exceptions here are zero-area degenerate rings, which have no
    orientation)."""
    from pyrosm_ray.geom import wkb as wkblib
    from pyrosm_ray.pipelines.layers import OSM

    def shoelace(r):
        r = np.asarray(r)
        x, y = r[:, 0], r[:, 1]
        return 0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])

    o = OSM(helsinki_dir)
    checked = 0
    for meth in ("get_buildings", "get_landuse", "get_natural"):
        for g in getattr(o, meth)().to_pandas().geometry:
            gt, payload = wkblib.decode_wkb(g)
            polys = [payload] if gt == wkblib.POLYGON else (
                payload if gt == wkblib.MULTIPOLYGON else [])
            for rings in polys:
                for j, ring in enumerate(rings):
                    a = shoelace(ring)
                    if a == 0.0:
                        continue  # degenerate 2-point closed way
                    assert (a > 0) if j == 0 else (a < 0)
                    checked += 1
    assert checked > 800


@needs_helsinki_pbf
def test_incomplete_boundaries_dropped_on_real_extract(helsinki_dir):
    """#154 — every admin boundary in the bundled Helsinki extract runs
    off the PBF edge, so none can assemble; they are dropped (matching
    osmium/GDAL), never force-closed into stray polygons. The reference
    returns None for an empty GeoDataFrame result; the Dataset
    convention here is an empty Dataset."""
    from pyrosm_ray.pipelines.layers import OSM
    assert OSM(helsinki_dir).get_boundaries().count() == 0
