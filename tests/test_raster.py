"""Raster stage: rasterize_points and polygon_zonal_stats against
brute-force references (every pixel centre of every covered tile)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.stages import blocks, raster
from pyrosm_ray.tiles import grid

RES = grid.h3_equiv_res(7)
BASE = int(grid.cell_id(np.array([24.9]), np.array([60.2]), RES)[0])
BX0, BY0, BX1, BY1 = grid.cell_bounds(np.array([BASE]))[0]
ZONAL_COLS = ["polygon_id", "h3_r7", "pixel_count", "value_sum",
              "value_mean"]


def _reference_zonal(polys, rasters: dict, gs: int) -> list[tuple]:
    """Full-lattice zonal stats: every (polygon, bbox-covered tile with a
    raster) row masks all gs² pixel centres with the per-ring even-odd
    kernel and sums the raster under the mask."""
    rows = []
    half = np.arange(gs) + 0.5
    for pid, g in polys:
        if g is None or wkb.wkb_geom_type(g) not in (wkb.POLYGON,
                                                     wkb.MULTIPOLYGON):
            continue
        rings = wkb.polygon_rings(g)
        for cell in grid.cover_bbox(*wkb.wkb_bbox(g), RES):
            if int(cell) not in rasters:
                continue
            x0, y0, x1, y1 = grid.cell_bounds(np.array([cell]))[0]
            xs = x0 + half * (x1 - x0) / gs
            ys = y0 + half * (y1 - y0) / gs
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            mask = ops.points_in_rings_even_odd(
                rings, gx.ravel(), gy.ravel()).reshape(gs, gs)
            r = np.frombuffer(rasters[int(cell)], "<f8").reshape(gs, gs)
            n = int(mask.sum())
            s = float(r[mask].sum())
            rows.append((pid, int(cell), n, s, s / n if n else 0.0))
    return sorted(rows)


def _table(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))


def _rows(ds) -> list[tuple]:
    t = _table(ds)
    return sorted(zip(*(t[c].to_pylist() for c in ZONAL_COLS)))


def _at(u, v, gs):
    """Base-tile pixel units -> lon/lat (u east, v north; the pixel
    centres of the base tile are at u, v = i + 0.5)."""
    return [BX0 + np.asarray(u, float) * (BX1 - BX0) / gs,
            BY0 + np.asarray(v, float) * (BY1 - BY0) / gs]


def _ring(pts, gs):
    return np.array([_at(u, v, gs) for u, v in pts + pts[:1]], np.float64)


def _polygon_cases(gs: int) -> list[tuple[int, bytes | None]]:
    s = gs
    sq = [(2, 2), (12, 2), (12, 12), (2, 12)]
    hole = [(4, 4), (4, 9), (9, 9), (9, 4)]
    cases = [
        # a polygon with a hole
        wkb.polygon_wkb([_ring(sq, gs), _ring(hole, gs)]),
        # a multipolygon
        wkb.multipolygon_wkb([
            [_ring([(1, 1), (3, 1), (3, 4), (1, 4)], gs)],
            [_ring([(s - 5, s - 6), (s - 1.2, s - 6), (s - 3, s - 1)], gs)]]),
        # spans 2x2 tiles around the base tile's north-east corner
        wkb.polygon_wkb([_ring([(s - 3, s - 2), (s + 4, s - 3),
                                (s + 2, s + 5), (s - 4, s + 3)], gs)]),
        # vertices and bbox edges exactly on pixel centres
        wkb.polygon_wkb([_ring([(2.5, 2.5), (6.5, 2.5), (6.5, 7.5),
                                (2.5, 7.5)], gs)]),
        # a diagonal through pixel centres
        wkb.polygon_wkb([_ring([(0.5, 0.5), (9.5, 9.5), (0.5, 9.5)], gs)]),
        # a horizontal edge on a pixel-centre row
        wkb.polygon_wkb([_ring([(1, 9.5), (8, 9.5), (4.2, 14)], gs)]),
        # larger than its tile: covers 3x3 tiles, one fully
        wkb.polygon_wkb([_ring([(-3, -4), (2 * s + 5, -2),
                                (2 * s + 2, 2 * s + 6), (-2, 2 * s + 1)],
                               gs)]),
        # reaches the tile west of the base tile, which has no raster
        wkb.polygon_wkb([_ring([(-9, 3), (5, 3), (5, 6), (-9, 6)], gs)]),
        # a sliver thinner than a pixel
        wkb.polygon_wkb([_ring([(3, 20.5), (25, 20.6), (25, 20.7)], gs)]),
        None,
        wkb.linestring_wkb(np.array(_at([1, 9], [1, 9], gs)).T),
        wkb.point_wkb(*_at(5.5, 5.5, gs)),
    ]
    rng = np.random.default_rng(gs)
    for _ in range(24):
        cu, cv = rng.uniform(-gs, 2 * gs, 2)
        k = int(rng.integers(3, 12))
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rad = rng.uniform(0.3, 9.0, k)
        cases.append(wkb.polygon_wkb([_ring(
            list(zip(cu + rad * np.cos(ang), cv + rad * np.sin(ang))), gs)]))
    return list(enumerate(cases, start=100))


def _rasters(gs: int) -> dict[int, bytes]:
    """Random integer-count rasters over the tiles around the base tile,
    except the tile west of it."""
    w, h = BX1 - BX0, BY1 - BY0
    cells = grid.cover_bbox(BX0 - 1.5 * w, BY0 - 1.5 * h, BX1 + 2.5 * w,
                            BY1 + 2.5 * h, RES)
    west = int(grid.cell_id(np.array([BX0 - w / 2]),
                            np.array([BY0 + h / 2]), RES)[0])
    rng = np.random.default_rng(7)
    return {int(c): rng.integers(0, 9, gs * gs).astype("<f8").tobytes()
            for c in cells if int(c) != west}


def _raster_ds(rasters: dict[int, bytes]):
    return rd.from_arrow(pa.table({
        "h3_r7": pa.array(list(rasters), pa.int64()),
        "raster": pa.array(list(rasters.values()), pa.binary())}))


def _poly_ds(polys):
    return rd.from_arrow(pa.table({
        "id": pa.array([p for p, _ in polys], pa.int64()),
        "geometry": pa.array([g for _, g in polys], pa.binary())}))


@pytest.mark.parametrize("gs", [16, 32])
def test_zonal_stats_matches_full_lattice(ray_session, gs):
    polys = _polygon_cases(gs)
    rasters = _rasters(gs)
    want = _reference_zonal(polys, rasters, gs)
    got = _rows(raster.polygon_zonal_stats(_poly_ds(polys),
                                           _raster_ds(rasters),
                                           grid_size=gs))
    assert got == want
    # every polygon case made rows; only tiles with a raster did
    assert {r[0] for r in got} >= set(range(100, 109))
    assert {r[1] for r in got} <= set(rasters)
    assert len({r[1] for r in got if r[0] == 107}) == 1
    assert min(r[2] for r in want) == 0  # sliver/edge rows are kept


def test_zonal_stats_zero_polygons(ray_session):
    polys = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                    "geometry": pa.array([], pa.binary())}))
    out = raster.polygon_zonal_stats(polys, _raster_ds(_rasters(16)),
                                     grid_size=16)
    assert out.count() == 0
    assert out.schema().names == ZONAL_COLS


def test_zonal_stats_empty_raster_is_typed(ray_session):
    """An empty raster gives the zonal schema, not the raster table."""
    polys = _poly_ds(_polygon_cases(16)[:3])
    empty = raster.rasterize_points(rd.from_arrow(pa.table({
        "h3_r7": pa.array([], pa.int64()), "lon": pa.array([], pa.float64()),
        "lat": pa.array([], pa.float64())})), grid_size=16)
    out = raster.polygon_zonal_stats(polys, empty, grid_size=16)
    assert out.count() == 0
    assert out.schema().names == ZONAL_COLS
    assert out.schema().types[2] == pa.int64()


def test_zonal_fold_sides_carry_no_geometry(ray_session, monkeypatch):
    """Only pixel indices cross the zonal exchange."""
    seen = []
    real = raster.fold

    def spy(ds, *args):
        seen.append([(side.schema if isinstance(side, blocks.Blocks)
                      else side.schema()).names for side in ds])
        return real(ds, *args)

    monkeypatch.setattr(raster, "fold", spy)
    polys = _polygon_cases(16)
    rasters = _rasters(16)
    got = _rows(raster.polygon_zonal_stats(_poly_ds(polys),
                                           _raster_ds(rasters),
                                           grid_size=16))
    assert got == _reference_zonal(polys, rasters, 16)
    assert len(seen) == 1 and len(seen[0]) == 2
    for names in seen[0]:
        assert not {"geometry", "coords", "rlens"} & set(names), names


def _reference_raster(tiles, lon, lat, gs) -> dict[int, bytes]:
    out = {}
    for cell in np.unique(tiles):
        m = tiles == cell
        x0, y0, x1, y1 = grid.cell_bounds(np.array([cell]))[0]
        ix = np.clip(np.floor((lon[m] - x0) / (x1 - x0) * gs), 0,
                     gs - 1).astype(np.int64)
        iy = np.clip(np.floor((lat[m] - y0) / (y1 - y0) * gs), 0,
                     gs - 1).astype(np.int64)
        out[int(cell)] = np.bincount(ix * gs + iy, minlength=gs * gs) \
            .astype("<f8").tobytes()
    return out


@pytest.mark.parametrize("gs", [16, 32])
def test_rasterize_points_matches_per_tile(ray_session, gs):
    rng = np.random.default_rng(gs)
    w, h = BX1 - BX0, BY1 - BY0
    lon = rng.uniform(BX0 - 2 * w, BX1 + 2 * w, 5000)
    lat = rng.uniform(BY0 - 2 * h, BY1 + 2 * h, 5000)
    # points on tile and pixel edges
    lon[:50] = BX0 + np.arange(50) * w / gs
    lat[50:100] = BY1 - np.arange(50) * h / gs
    tiles = grid.cell_id(lon, lat, RES)
    ds = rd.from_arrow(pa.table({"h3_r7": tiles, "lon": lon, "lat": lat})
                       ).repartition(3)
    t = _table(raster.rasterize_points(ds, grid_size=gs))
    got = dict(zip(t["h3_r7"].to_pylist(), t["raster"].to_pylist()))
    assert got == _reference_raster(tiles, lon, lat, gs)
    assert t.schema.field("raster").type == pa.binary()


def test_rasterize_points_drops_null_tiles(ray_session):
    """A point with no tile has no raster (it used to raise)."""
    rng = np.random.default_rng(3)
    lon = rng.uniform(BX0, BX1, 200)
    lat = rng.uniform(BY0, BY1, 200)
    tiles = pa.array([None if i % 5 == 0 else BASE for i in range(200)],
                     pa.int64())
    t = _table(raster.rasterize_points(rd.from_arrow(pa.table({
        "h3_r7": tiles, "lon": lon, "lat": lat})), grid_size=16))
    keep = np.arange(200) % 5 != 0
    assert t["h3_r7"].to_pylist() == [BASE]
    assert t["raster"].to_pylist() == [
        _reference_raster(np.full(keep.sum(), BASE), lon[keep], lat[keep],
                          16)[BASE]]


def test_binary_rows_chunks_past_int32_offsets(monkeypatch):
    """A partition whose rasters pass the int32 offset range splits into
    chunks (shown with a 20-byte offset range)."""
    monkeypatch.setattr(raster, "_OFFSET_MAX", 20)
    rows = np.arange(40, dtype=np.uint8).reshape(5, 8)
    out = raster._binary_rows(rows)
    assert out.num_chunks == 3 and out.type == pa.binary()
    assert out.to_pylist() == [r.tobytes() for r in rows]


def test_zonal_stats_zero_row_polygon_blocks_log_nothing(ray_session):
    """A polygon side with zero-row blocks (a filtered buildings layer
    has one) matches the reference, and no step emits a schema-less
    block: Ray Data logs no "different schema" warning."""
    import logging

    class Grab(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.lines = []

        def emit(self, record):
            self.lines.append(record.getMessage())

    polys = _polygon_cases(16)
    rasters = _rasters(16)
    t = _table(_poly_ds(polys))
    ds = rd.from_arrow([t.slice(0, 0), t.slice(0, 4), t.slice(0, 0),
                        t.slice(4), t.slice(0, 0)])
    grab = Grab()
    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    log.addHandler(grab)
    try:
        got = _rows(raster.polygon_zonal_stats(ds, _raster_ds(rasters),
                                               grid_size=16))
    finally:
        log.removeHandler(grab)
    assert got == _reference_zonal(polys, rasters, 16)
    assert not [m for m in grab.lines if "different schema" in m], \
        grab.lines
