"""Geometry kernel tests: WKB round-trip, haversine contract, orientation,
even-odd PIP, STRtree vs brute force."""

import numpy as np
import pytest

from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.geom.strtree import STRtree


def test_wkb_roundtrip_point():
    buf = wkb.point_wkb(24.95, 60.17)
    gt, p = wkb.decode_wkb(buf)
    assert gt == wkb.POINT
    np.testing.assert_allclose(p, [24.95, 60.17])


def test_wkb_points_batch():
    xs = np.array([1.0, 2.0, 3.5])
    ys = np.array([4.0, 5.0, -6.25])
    bufs = wkb.points_wkb(xs, ys)
    for i, b in enumerate(bufs):
        gt, p = wkb.decode_wkb(b)
        assert gt == wkb.POINT
        np.testing.assert_allclose(p, [xs[i], ys[i]])


def test_wkb_roundtrip_linestring_polygon_multi():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    gt, c = wkb.decode_wkb(wkb.linestring_wkb(line))
    assert gt == wkb.LINESTRING
    np.testing.assert_allclose(c, line)

    shell = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float)
    hole = np.array([[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]], dtype=float)
    gt, rings = wkb.decode_wkb(wkb.polygon_wkb([shell, hole]))
    assert gt == wkb.POLYGON and len(rings) == 2
    np.testing.assert_allclose(rings[1], hole)

    gt, polys = wkb.decode_wkb(wkb.multipolygon_wkb([[shell], [hole]]))
    assert gt == wkb.MULTIPOLYGON and len(polys) == 2
    assert wkb.wkb_geom_type(wkb.multilinestring_wkb([line, line])) == wkb.MULTILINESTRING
    assert wkb.wkb_bbox(wkb.polygon_wkb([shell])) == (0, 0, 4, 4)
    assert len(wkb.polygon_rings(wkb.multipolygon_wkb([[shell], [hole]]))) == 2


def test_haversine_known_value():
    # Helsinki -> Tampere ≈ 160 km
    d = ops.haversine_m(60.1699, 24.9384, 61.4978, 23.7610)
    assert 147_000 < float(d) < 163_000


def test_polyline_lengths_rounding_contract():
    # equator: 1 degree lon ≈ 111.19 km
    coords = np.array([[0, 0], [1, 0], [2, 0],   # line 0: two segments
                       [10, 10], [10, 10],        # line 1: zero length
                       [5, 5]])                   # line 2: single point
    off = np.array([0, 3, 5, 6])
    lengths = ops.polyline_lengths_m(coords, off)
    assert lengths.shape == (3,)
    assert lengths[0] == pytest.approx(2 * 111195, rel=0.01)
    assert lengths[0] == np.round(lengths[0], 0)
    assert lengths[1] == 0.0 and lengths[2] == 0.0


def test_ring_orientation():
    ccw = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    cw = ccw[::-1].copy()
    assert ops.ring_is_ccw(ccw) and not ops.ring_is_ccw(cw)
    np.testing.assert_array_equal(ops.orient_ring(cw, ccw=True), ccw)
    np.testing.assert_array_equal(ops.orient_ring(ccw, ccw=True), ccw)
    assert ops.ring_signed_area(ccw) == pytest.approx(1.0)


def test_closed_way_area_rule():
    assert ops.closed_way_is_polygon("yes", has_linear_tag=True)
    assert not ops.closed_way_is_polygon("no", has_linear_tag=False)
    assert ops.closed_way_is_polygon(None, has_linear_tag=False)
    assert not ops.closed_way_is_polygon(None, has_linear_tag=True)


def test_relation_linestring_rule():
    assert ops.relation_is_linestring({"route": "bicycle"})
    assert not ops.relation_is_linestring({"railway": "platform"})
    assert ops.relation_is_linestring({"railway": "rail"})
    assert not ops.relation_is_linestring({"highway": "rest_area"})
    assert ops.relation_is_linestring({"highway": "primary"})
    # pedestrian without an area tag falls through (stays an area candidate)
    assert not ops.relation_is_linestring({"highway": "pedestrian"})
    assert not ops.relation_is_linestring({"highway": "pedestrian", "area": "yes"})
    assert ops.relation_is_linestring({"highway": "pedestrian", "area": "no"})
    assert not ops.relation_is_linestring({"waterway": "riverbank"})
    assert ops.relation_is_linestring({"waterway": "river"})
    assert ops.relation_is_linestring({"landuse": "forest", "area": "no"})
    # type=multipolygon overrides linear member keys (#21)
    assert not ops.relation_is_linestring({"waterway": "river", "type": "multipolygon"})
    assert not ops.relation_is_linestring({"type": "boundary", "route": "x"})


def test_even_odd_pip_with_hole_and_island():
    shell = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], dtype=float)
    hole = np.array([[2, 2], [8, 2], [8, 8], [2, 8], [2, 2]], dtype=float)
    island = np.array([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]], dtype=float)
    rings = [shell, hole, island]
    px = np.array([1.0, 5.0, 3.0, 11.0, 4.5])
    py = np.array([1.0, 3.0, 3.0, 5.0, 4.5])
    # 1,1 inside shell only -> in; 5,3 inside shell+hole -> out;
    # 3,3 inside shell+hole -> out; 11,5 outside -> out; 4.5,4.5 in all 3 -> in
    got = ops.points_in_rings_even_odd(rings, px, py)
    np.testing.assert_array_equal(got, [True, False, False, False, True])


def test_representative_point_inside():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cx, cy = rng.uniform(-50, 50, 2)
        r = rng.uniform(0.5, 5)
        ang = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(5, 30)))
        ring = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
        ring = ops.close_ring(ring)
        x, y = ops.representative_point(ring)
        assert ops.ring_contains_point(ring, x, y)


def test_strtree_query_points_matches_bruteforce():
    rng = np.random.default_rng(11)
    n = 500
    mins = rng.uniform(0, 100, (n, 2))
    sizes = rng.uniform(0.1, 5, (n, 2))
    boxes = np.hstack([mins, mins + sizes])
    tree = STRtree(boxes)
    px = rng.uniform(-5, 110, 300)
    py = rng.uniform(-5, 110, 300)
    pi, ii = tree.query_points(px, py)
    got = set(zip(pi.tolist(), ii.tolist()))
    want = set()
    for p in range(len(px)):
        inside = ((boxes[:, 0] <= px[p]) & (boxes[:, 2] >= px[p])
                  & (boxes[:, 1] <= py[p]) & (boxes[:, 3] >= py[p]))
        for j in np.flatnonzero(inside):
            want.add((p, int(j)))
    assert got == want


def test_strtree_query_boxes_matches_bruteforce():
    rng = np.random.default_rng(5)
    n = 300
    mins = rng.uniform(0, 50, (n, 2))
    boxes = np.hstack([mins, mins + rng.uniform(0.1, 3, (n, 2))])
    tree = STRtree(boxes, leaf_capacity=8)
    qmins = rng.uniform(0, 50, (40, 2))
    qboxes = np.hstack([qmins, qmins + rng.uniform(0.1, 10, (40, 2))])
    qi, ii = tree.query_boxes(qboxes)
    got = set(zip(qi.tolist(), ii.tolist()))
    want = set()
    for q in range(len(qboxes)):
        inter = ((qboxes[q, 0] <= boxes[:, 2]) & (qboxes[q, 2] >= boxes[:, 0])
                 & (qboxes[q, 1] <= boxes[:, 3]) & (qboxes[q, 3] >= boxes[:, 1]))
        for j in np.flatnonzero(inter):
            want.add((q, int(j)))
    assert got == want


def test_strtree_nearest():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 100, (200, 2))
    boxes = np.hstack([pts, pts])  # degenerate boxes = points
    tree = STRtree(boxes)
    for _ in range(10):
        x, y = rng.uniform(0, 100, 2)
        res = tree.nearest(x, y, k=3)
        d = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
        want = np.argsort(d)[:3]
        got = [i for _, i in res]
        assert set(got) == set(want.tolist())


def test_strtree_empty_and_single():
    t = STRtree(np.empty((0, 4)))
    pi, ii = t.query_points(np.array([1.0]), np.array([1.0]))
    assert len(pi) == 0
    t1 = STRtree(np.array([[0, 0, 2, 2.0]]))
    pi, ii = t1.query_points(np.array([1.0, 5.0]), np.array([1.0, 5.0]))
    assert pi.tolist() == [0] and ii.tolist() == [0]


def test_coords_bbox_per_geom():
    coords = np.array([[0, 0], [2, 3], [1, 1], [5, 5.0]])
    off = np.array([0, 2, 2, 4])
    b = ops.coords_bbox_per_geom(coords, off)
    np.testing.assert_allclose(b[0], [0, 0, 2, 3])
    assert np.isinf(b[1, 0])
    np.testing.assert_allclose(b[2], [1, 1, 5, 5])


# ---------------------------------------------------------------------------
# column decoder: the vectorised polygon packer against a scalar pack
# ---------------------------------------------------------------------------

_SHELL = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float)
_HOLE = np.array([[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]], dtype=float)
_NO_POINTS = np.empty((0, 2))


def _scalar_pack(ids, geoms):
    """The packed polygon rows built one geometry at a time on
    ``wkb.polygon_rings``: nulls, other types, ring-less polygons and
    polygons whose rings hold no points make no row."""
    import pyarrow as pa

    from pyrosm_ray.stages import spatial

    rows = []
    for i, g in zip(ids, geoms):
        if g is None or wkb.wkb_geom_type(g) not in (wkb.POLYGON,
                                                     wkb.MULTIPOLYGON):
            continue
        rings = wkb.polygon_rings(g)
        if not sum(len(r) for r in rings):
            continue
        flat = np.concatenate(rings)
        rows.append((i, flat[:, 0].min(), flat[:, 1].min(),
                     flat[:, 0].max(), flat[:, 1].max(),
                     np.ascontiguousarray(flat, "<f8").tobytes(),
                     np.array([len(r) for r in rings], "<i8").tobytes()))
    return pa.table([pa.array(list(c), t) for c, t in zip(
        zip(*rows) if rows else [()] * 7, spatial._PACKED_SCHEMA.types)],
        schema=spatial._PACKED_SCHEMA)


def _mixed_geoms() -> list:
    rng = np.random.default_rng(3)

    def ring(n):
        pts = rng.uniform(-10, 10, (n, 2))
        return np.vstack([pts, pts[:1]])

    return [
        None,
        wkb.point_wkb(1.5, 2.5),
        wkb.linestring_wkb(_SHELL),
        wkb.polygon_wkb([_SHELL, _HOLE]),
        wkb.multipolygon_wkb([[_SHELL + 10, _HOLE + 10], [ring(7)],
                              [ring(3), ring(4), ring(5)]]),
        wkb.polygon_wkb([]),
        wkb.polygon_wkb([_NO_POINTS, _NO_POINTS]),
        wkb.multipolygon_wkb([[_NO_POINTS], []]),
        wkb.polygon_wkb([_NO_POINTS, ring(6)]),
        wkb.multipolygon_wkb([[ring(200)] * 3] * 4),
        wkb.multilinestring_wkb([_SHELL, _HOLE]),
        wkb.polygon_wkb([ring(4)]),
        None,
    ]


def test_packer_matches_scalar_pack():
    import pyarrow as pa

    from pyrosm_ray.stages import spatial

    geoms = _mixed_geoms()
    ids = list(range(100, 100 + len(geoms)))
    t = pa.table({"id": pa.array(ids, pa.int64()),
                  "geometry": pa.array(geoms, pa.binary())})
    got = spatial._pack_polygon_batch(t, "id")
    assert got.equals(_scalar_pack(ids, geoms))
    assert got["pid"].to_pylist() == [103, 104, 108, 109, 111]
    # a sliced column (non-zero offset) and a chunked one
    assert spatial._pack_polygon_batch(t.slice(4), "id").equals(
        _scalar_pack(ids[4:], geoms[4:]))
    chunked = pa.table({"id": t["id"], "geometry": pa.chunked_array(
        [t["geometry"].combine_chunks().slice(0, 5),
         t["geometry"].combine_chunks().slice(5)])})
    assert spatial._pack_polygon_batch(chunked, "id").equals(got)
    # an empty batch, typed
    empty = spatial._pack_polygon_batch(t.slice(0, 0), "id")
    assert empty.num_rows == 0 and empty.schema == spatial._PACKED_SCHEMA


def test_polygon_column_rings_match_polygon_rings():
    import pyarrow as pa

    geoms = _mixed_geoms()
    rows, nrings, rlens, coords = wkb.polygon_column(
        pa.array(geoms, pa.binary()))
    want = {i: wkb.polygon_rings(g) for i, g in enumerate(geoms)
            if g is not None
            and wkb.wkb_geom_type(g) in (wkb.POLYGON, wkb.MULTIPOLYGON)}
    assert rows.tolist() == sorted(want)
    assert nrings.tolist() == [len(want[i]) for i in rows]
    rings = [r for i in rows for r in want[i]]
    assert rlens.tolist() == [len(r) for r in rings]
    np.testing.assert_array_equal(coords, np.concatenate(rings))


def test_packer_rejects_big_endian():
    import struct

    import pyarrow as pa

    from pyrosm_ray.stages import spatial

    big = struct.pack(">BIII", 0, wkb.POLYGON, 1, 5) \
        + np.asarray(_SHELL, ">f8").tobytes()
    for geoms in ([wkb.polygon_wkb([_SHELL]), big],
                  [struct.pack(">BIdd", 0, wkb.POINT, 1.0, 2.0)],
                  [wkb.multipolygon_wkb([[_SHELL]])[:9] + big]):
        t = pa.table({"id": pa.array(range(len(geoms)), pa.int64()),
                      "geometry": pa.array(geoms, pa.binary())})
        with pytest.raises(ValueError, match="little-endian"):
            spatial._pack_polygon_batch(t, "id")
