"""PBF encoder round-trip tests (S10/S11): write with pbf_write, re-read
with the engine's own wire decoder (which holds golden parity with the
reference's bundled extracts — test_pbf.py), and compare element tables.
Crop semantics mirror the reference crop (complete-ways pulls out-of-box
member nodes)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from pyrosm_ray.sources import pbf, pbf_write

TEST_PBF = "/root/reference/pyrosm/data/test.osm.pbf"
needs_test_pbf = pytest.mark.skipif(
    not os.path.exists(TEST_PBF), reason=f"{TEST_PBF} not present")


def _full_tables(path):
    parts = [pbf.parse_primitive_block(
        pbf.read_blob_data(path, b["offset"], b["size"]))
        for b in pbf.scan_blob_index(path) if b["type"] == "OSMData"]
    nodes = pa.concat_tables([p[0] for p in parts])
    ways = pa.concat_tables([p[1] for p in parts])
    rels = pa.concat_tables([p[2] for p in parts])
    return nodes, ways, rels


def test_varint_roundtrip():
    rng = np.random.default_rng(2)
    v = rng.integers(0, 2**63 - 1, 5000, dtype=np.int64).view(np.uint64)
    v[:10] = [0, 1, 127, 128, 300, 2**32, 2**56, 2**63, 2**64 - 1, 7]
    enc = pbf_write.encode_packed_varints(v)
    got = pbf.decode_packed_varints(enc)
    np.testing.assert_array_equal(got.view(np.uint64), v)


def test_zigzag_roundtrip():
    rng = np.random.default_rng(3)
    v = rng.integers(-2**62, 2**62, 2000, dtype=np.int64)
    np.testing.assert_array_equal(pbf.unzigzag(pbf_write.zigzag(v)), v)


def _assert_tables_equal(a: pa.Table, b: pa.Table, kind: str):
    assert a.num_rows == b.num_rows, kind
    ai = np.argsort(np.asarray(a["id"].to_numpy(zero_copy_only=False)))
    bi = np.argsort(np.asarray(b["id"].to_numpy(zero_copy_only=False)))
    a = a.take(pa.array(ai))
    b = b.take(pa.array(bi))
    for col in a.column_names:
        av, bv = a[col].to_pylist(), b[col].to_pylist()
        if col in ("lon", "lat"):
            np.testing.assert_allclose(av, bv, atol=5e-8, err_msg=kind)
        else:
            assert av == bv, f"{kind}.{col}"


@needs_test_pbf
def test_write_read_roundtrip(tmp_path):
    nodes, ways, rels = _full_tables(TEST_PBF)
    out = str(tmp_path / "rt.osm.pbf")
    n_blobs = pbf_write.write_pbf(out, nodes, ways, rels,
                                  bbox=(24.0, 60.0, 25.5, 60.5),
                                  block_rows=500)
    assert n_blobs > 3  # header + several bounded data blobs
    hdr = pbf.read_pbf_header(out)
    assert hdr["bbox"] is not None
    np.testing.assert_allclose(hdr["bbox"], (24.0, 60.0, 25.5, 60.5),
                               atol=1e-9)
    n2, w2, r2 = _full_tables(out)
    _assert_tables_equal(nodes, n2, "nodes")
    _assert_tables_equal(ways, w2, "ways")
    _assert_tables_equal(rels, r2, "relations")


@needs_test_pbf
def test_crop_pbf_complete_ways(ray_session, tmp_path):
    nodes, ways, rels = _full_tables(TEST_PBF)
    lon = np.asarray(nodes["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(nodes["lat"].to_numpy(zero_copy_only=False))
    # bbox around the median point so the crop is a strict subset
    bbox = (float(np.quantile(lon, 0.3)), float(np.quantile(lat, 0.3)),
            float(np.quantile(lon, 0.7)), float(np.quantile(lat, 0.7)))
    out = str(tmp_path / "crop.osm.pbf")
    counts = pbf_write.crop_pbf(TEST_PBF, out, bbox, complete_ways=True)
    assert 0 < counts["nodes"] < nodes.num_rows
    n2, w2, r2 = _full_tables(out)
    assert n2.num_rows == counts["nodes"]
    ids2 = set(np.asarray(n2["id"].to_numpy(zero_copy_only=False)).tolist())
    x0, y0, x1, y1 = bbox
    inbox = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
    nid = np.asarray(nodes["id"].to_numpy(zero_copy_only=False))
    # every in-box node kept
    assert set(nid[inbox].tolist()) <= ids2
    # exactly the ways touching an in-box node
    inbox_set = set(nid[inbox].tolist())
    want_ways = {int(i) for i, refs in zip(
        ways["id"].to_pylist(), ways["refs"].to_pylist())
        if any(r in inbox_set for r in refs)}
    got_ways = set(w2["id"].to_pylist())
    assert got_ways == want_ways
    # complete-ways: every ref of a kept way that exists in the SOURCE
    # resolves in the crop (real extracts carry dangling refs to nodes
    # outside the extract — those cannot be completed)
    src_ids = set(nid.tolist())
    for refs in w2["refs"].to_pylist():
        assert all(r in ids2 for r in refs if r in src_ids)
    assert any(r not in inbox_set and r in src_ids
               for refs in w2["refs"].to_pylist()
               for r in refs), "fixture should exercise node completion"
    # relations: every kept relation has a kept way/node member
    for mem in r2["members"].to_pylist():
        assert any(
            (m["member_type"] == "way" and m["member_id"] in got_ways)
            or (m["member_type"] == "node" and m["member_id"] in ids2)
            for m in mem)


def test_write_layer_to_pbf_roundtrip(tmp_path):
    """S11: synthesize elements from a layer frame, re-read with the own
    decoder: negative ids, shared vertices, tags, roles all survive."""
    import pandas as pd

    from pyrosm_ray.geom import wkb as wkbm
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                   [0.0, 0.0]])
    hole = np.array([[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6],
                     [0.4, 0.4]])
    line = np.array([[0.0, 0.0], [2.0, 2.0], [3.0, 2.0]])  # shares (0,0)
    df = pd.DataFrame({
        "id": [1, 2, 3, 4],
        "geometry": [wkbm.point_wkb(5.0, 5.0),
                     wkbm.linestring_wkb(line),
                     wkbm.polygon_wkb([sq + 10.0]),
                     wkbm.polygon_wkb([sq, hole])],
        "amenity": ["cafe", None, None, None],
        "highway": [None, "path", None, None],
        "building": [None, None, "yes", "yes"],
    })
    out = str(tmp_path / "layer.osm.pbf")
    counts = pbf_write.write_layer_to_pbf(df, out,
                                          tag_columns=["amenity", "highway",
                                                       "building"])
    assert counts["relations"] == 1  # hole polygon -> multipolygon relation
    nodes, ways, rels = _full_tables(out)
    assert (np.asarray(nodes["id"].to_numpy(zero_copy_only=False)) < 0).all()
    # tagged point survives
    tag_nodes = [dict(t) for t in nodes["tags"].to_pylist() if t]
    assert {"amenity": "cafe"} in tag_nodes
    # shared vertex (0,0) synthesized once
    lon = np.asarray(nodes["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(nodes["lat"].to_numpy(zero_copy_only=False))
    assert int(((np.abs(lon) < 1e-9) & (np.abs(lat) < 1e-9)).sum()) == 1
    # ways: line + plain square + 2 relation member rings
    assert ways.num_rows == 4
    wtags = [dict(t) for t in ways["tags"].to_pylist()]
    assert {"highway": "path"} in wtags and {"building": "yes"} in wtags
    # relation roles: one outer (square), one inner (hole)
    mem = rels["members"].to_pylist()[0]
    roles = sorted(m["member_role"] for m in mem)
    assert roles == ["inner", "outer"]
    assert dict(rels["tags"].to_pylist()[0])["type"] == "multipolygon"
    # ring coords survive through ref resolution
    nid = np.asarray(nodes["id"].to_numpy(zero_copy_only=False))
    pos = {int(i): j for j, i in enumerate(nid)}
    for refs, t in zip(ways["refs"].to_pylist(), wtags):
        pts = np.array([[lon[pos[r]], lat[pos[r]]] for r in refs])
        if t == {"building": "yes"}:
            np.testing.assert_allclose(pts, sq + 10.0, atol=5e-8)


def test_osm_to_pbf_crop(ray_session, tmp_path):
    """OSM.to_pbf crops the element tables with complete-ways semantics;
    expectations computed independently with numpy over the parquet."""
    import pyarrow.parquet as pq

    from pyrosm_ray.fixtures import TEST_BBOX, ensure_fixtures
    from pyrosm_ray.pipelines.layers import OSM
    src = ensure_fixtures("sf0.001")
    out = str(tmp_path / "crop.osm.pbf")
    OSM(str(src), bounding_box=TEST_BBOX).to_pbf(out)

    nodes = pq.read_table(src / "osm_nodes.parquet",
                          columns=["id", "lon", "lat"])
    ways = pq.read_table(src / "osm_ways.parquet", columns=["id", "refs"])
    x0, y0, x1, y1 = TEST_BBOX
    lon = np.asarray(nodes["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(nodes["lat"].to_numpy(zero_copy_only=False))
    nid = np.asarray(nodes["id"].to_numpy(zero_copy_only=False))
    inbox = set(nid[(lon >= x0) & (lon <= x1) &
                    (lat >= y0) & (lat <= y1)].tolist())
    exp_ways, exp_nodes = set(), set(inbox)
    for wid, refs in zip(ways["id"].to_pylist(), ways["refs"].to_pylist()):
        if any(r in inbox for r in refs):
            exp_ways.add(wid)
            exp_nodes.update(r for r in refs if r in set(nid.tolist()))

    got_nodes = pbf.read_pbf(out, "nodes").to_pandas()
    got_ways = pbf.read_pbf(out, "ways").to_pandas()
    # complete ways: refs of kept ways present even when out of box
    assert set(got_ways["id"]) == exp_ways
    assert set(got_nodes["id"]) == exp_nodes & set(nid.tolist()) | inbox
    got_refs = {r for refs in got_ways["refs"] for r in refs}
    missing_src = got_refs - set(nid.tolist())  # dangling in source too
    assert got_refs - missing_src <= set(got_nodes["id"])


def test_osm_write_pbf_edits_and_subset(ray_session, tmp_path):
    """OSM.write_pbf applies (osm_type,id) tag edits, synthesizes new
    rows with negative ids, and subset_only closes over references."""
    import pandas as pd

    from pyrosm_ray.fixtures import ensure_fixtures
    from pyrosm_ray.geom import wkb as wkblib
    from pyrosm_ray.pipelines.layers import OSM
    src = ensure_fixtures("sf0.001")
    osm = OSM(str(src))
    b = osm.get_buildings().to_pandas()
    way_rows = b[b.osm_type == "way"].head(3).copy()
    way_rows["building"] = "edited"
    new_row = pd.DataFrame([{
        "id": None, "osm_type": None,
        "geometry": wkblib.point_wkb(24.9, 60.2),
        "building": None, "amenity": "cafe"}])
    data = pd.concat([way_rows[["id", "osm_type", "geometry", "building"]],
                      new_row], ignore_index=True)

    out = str(tmp_path / "subset.osm.pbf")
    osm.write_pbf(data, out, subset_only=True)
    got_ways = pbf.read_pbf(out, "ways").to_pandas()
    got_nodes = pbf.read_pbf(out, "nodes").to_pandas()
    # only the 3 edited ways, tags REPLACED
    assert sorted(got_ways["id"]) == sorted(way_rows["id"])
    for t in got_ways["tags"]:
        assert dict(t) == {"building": "edited"}
    # their refs are present (reference closure)
    refs = {r for rr in got_ways["refs"] for r in rr}
    assert refs <= set(got_nodes["id"])
    # synthesized point -> negative-id tagged node
    syn = got_nodes[got_nodes["id"] < 0]
    assert len(syn) == 1 and dict(syn["tags"].iloc[0]) == {"amenity": "cafe"}

    # full write: every base element survives, edits applied
    out2 = str(tmp_path / "full.osm.pbf")
    osm.write_pbf(data, out2, subset_only=False)
    import pyarrow.parquet as pq
    n_ways = pq.read_table(src / "osm_ways.parquet").num_rows
    full_ways = pbf.read_pbf(out2, "ways").to_pandas()
    assert len(full_ways) == n_ways
    edited = full_ways[full_ways["id"].isin(way_rows["id"])]
    for t in edited["tags"]:
        assert dict(t) == {"building": "edited"}


def test_write_pbf_parallel_byte_parity(ray_session, tmp_path):
    """Parallel block encode produces a byte-identical file to the serial
    writer (same chunking, Ray tasks only parallelize the encode)."""
    import pyarrow.parquet as pq

    from pyrosm_ray.fixtures import ensure_fixtures
    src = ensure_fixtures("sf0.01")
    nodes = pq.read_table(src / "osm_nodes.parquet")
    ways = pq.read_table(src / "osm_ways.parquet")
    rels = pq.read_table(src / "osm_relations.parquet")
    a = str(tmp_path / "serial.osm.pbf")
    b = str(tmp_path / "parallel.osm.pbf")
    n1 = pbf_write.write_pbf(a, nodes, ways, rels, bbox=(24.8, 60.1, 25.2, 60.3))
    n2 = pbf_write.write_pbf_parallel(b, nodes, ways, rels,
                                      bbox=(24.8, 60.1, 25.2, 60.3),
                                      window=4)
    assert n1 == n2
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_meta_arrays_null_timestamp():
    """Null timestamps must encode as 0, not INT64_MIN garbage (NaN cast
    in numpy) — round-3 ADVICE regression."""
    t = pa.table({"timestamp": pa.array([None, 5_000], pa.timestamp("ms")),
                  "version": pa.array([1, 2], pa.int64())})
    version, ts, changeset, visible = pbf_write._meta_arrays(t, 2)
    assert ts[0] == 0
    assert ts[1] == 5_000 // pbf_write.DATE_GRAN
    assert (version == [1, 2]).all()


def test_crop_pbf_empty_trailing_refs(ray_session, tmp_path):
    """A batch whose trailing way has empty refs used to crash the
    way-touch kernel (reduceat index out-of-bounds) — ADVICE regression."""
    tags = pa.array([{}] * 3, pa.map_(pa.string(), pa.string()))
    nodes = pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "lon": pa.array([10.0, 10.1, 50.0]),
        "lat": pa.array([20.0, 20.1, 60.0]),
        "tags": tags})
    ways = pa.table({
        "id": pa.array([100, 101, 102], pa.int64()),
        "refs": pa.array([[1, 2], [3], []], pa.list_(pa.int64())),
        "tags": tags})
    src = str(tmp_path / "src.osm.pbf")
    pbf_write.write_pbf(src, nodes, ways, None, bbox=(9, 19, 51, 61))
    out = str(tmp_path / "crop.osm.pbf")
    counts = pbf_write.crop_pbf(src, out, (9.5, 19.5, 10.5, 20.5))
    assert counts["nodes"] == 2
    n2, w2, _ = _full_tables(out)
    assert sorted(n2["id"].to_pylist()) == [1, 2]
    assert w2["id"].to_pylist() == [100]  # empty-ref + out-of-box dropped


def test_write_frames_subset_only_nothing_kept(tmp_path):
    """subset_only with an empty frame keeps nothing -> a clear error, not
    a TypeError on None (ADVICE regression)."""
    import pandas as pd
    tags = pa.array([{}], pa.map_(pa.string(), pa.string()))
    nodes = pa.table({"id": pa.array([1], pa.int64()),
                      "lon": pa.array([1.0]), "lat": pa.array([2.0]),
                      "tags": tags})
    ways = pa.table({"id": pa.array([9], pa.int64()),
                     "refs": pa.array([[1]], pa.list_(pa.int64())),
                     "tags": tags})
    frame = pd.DataFrame({"id": pd.Series([], dtype="int64"),
                          "geometry": pd.Series([], dtype=object)})
    with pytest.raises(ValueError, match="nothing to write"):
        pbf_write.write_frames_to_pbf(nodes, ways, None, frame,
                                      str(tmp_path / "x.osm.pbf"),
                                      subset_only=True)


@needs_test_pbf
def test_write_pbf_distributed_byte_parity(ray_session, tmp_path):
    """Segment-spliced distributed writer produces byte-identical output
    to the serial writer (blob bytes never pass through the driver)."""
    nodes, ways, rels = _full_tables(TEST_PBF)
    a = str(tmp_path / "serial.osm.pbf")
    b = str(tmp_path / "dist.osm.pbf")
    bbox = (24.0, 60.0, 25.5, 60.5)
    n1 = pbf_write.write_pbf(a, nodes, ways, rels, bbox=bbox,
                             block_rows=500)
    n2 = pbf_write.write_pbf_distributed(b, nodes, ways, rels, bbox=bbox,
                                         block_rows=500, segment_blobs=3)
    assert n1 == n2
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    # no segment temp files left behind
    import glob
    assert not glob.glob(b + ".seg*")
