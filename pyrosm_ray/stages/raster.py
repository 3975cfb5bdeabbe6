"""Raster <-> vector stage: per-tile point rasters and polygon zonal
statistics (the north rule's raster stage; numpy only).

Pipeline shape (SURVEY.md §7.2 step 7):

1. :func:`rasterize_points`: pages (or any point table) -> one dense
   ``grid_size²`` float64 count raster per tile. One
   :func:`~pyrosm_ray.stages.blocks.fold` keyed by tile; its body bins a
   whole partition in one vectorised pass (one ``bincount`` into a
   tiles × grid² buffer).
2. :func:`polygon_zonal_stats`: one plain task per polygon block does
   all of the geometry. It packs each polygon once, covers its bbox with tiles at the
   raster's resolution, tests only the pixel centres its bbox can reach
   with the even-odd kernel, and emits ``(polygon_id, tile, pix)``:
   the flat indices of the pixels inside. A two-sided fold on the tile
   then gathers each mask's pixels from its tile's raster (one
   ``bincount``) -> pixel_count / value_sum / value_mean per
   (polygon, tile).

Only pixel indices cross the exchange. Geometry never does, and a
tile's raster moves once, not once per polygon that covers it. This is
Raptor's raster join (VLDB 2019): the vector side is resolved against
the raster grid without rasterising it over every pixel of every tile.

Both outputs are bit-reproducible in SQL (the DuckDB twin in
``__ray_entry__``): the pixel binning and the pixel-centre lattice are
dyadic-exact IEEE expressions, and a raster holds integer counts, so
its sums are exact in any order.

Partitioning assumption: one partition's rasters fit a worker's heap
(``grid_size² × 8`` bytes per tile).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from pyrosm_ray.geom import wkb
from pyrosm_ray.stages import spatial
from pyrosm_ray.stages.blocks import (Blocks, fold, map_blocks, probe,
                                      unreserved)
from pyrosm_ray.tiles import grid

_OFFSET_MAX = 2 ** 31 - 1  # a binary array's int32 offsets


def _binary_rows(rows: np.ndarray) -> pa.ChunkedArray:
    """(n, width) uint8 rows -> one binary value per row, zero-copy over
    ``rows`` (chunked where int32 offsets would overflow)."""
    n, width = rows.shape
    step = max(1, _OFFSET_MAX // width)
    return pa.chunked_array([
        pa.BinaryArray.from_buffers(pa.binary(), len(c), [
            None,
            pa.py_buffer(np.arange(len(c) + 1, dtype=np.int32) * width),
            pa.py_buffer(c)])
        for c in (rows[s:s + step] for s in range(0, n, step))], pa.binary())


def _raster_partition(t: pa.Table, tile_col: str, lon_col: str,
                      lat_col: str, gs: int) -> pa.Table | None:
    """The :func:`rasterize_points` fold body: every tile of a partition
    binned in one pass."""
    t = t.filter(pc.is_valid(t[tile_col]))  # a point with no tile has
    if not t.num_rows:                      # no raster
        return None
    cells, inv = np.unique(np.asarray(
        t[tile_col].to_numpy(zero_copy_only=False), np.int64),
        return_inverse=True)
    x0, y0, x1, y1 = grid.cell_bounds(cells)[inv].T
    lon = np.asarray(t[lon_col].to_numpy(zero_copy_only=False))
    lat = np.asarray(t[lat_col].to_numpy(zero_copy_only=False))
    # floor-binning, not np.histogram2d: the same IEEE expression is
    # emitted verbatim by the DuckDB oracle (q_zonal_stats), so the
    # per-pixel counts are bit-reproducible in SQL. The grid cell
    # sides are dyadic rationals (360/2^r), so x0/w are exact and the
    # bin arithmetic matches across engines.
    ix = np.clip(np.floor((lon - x0) / (x1 - x0) * gs), 0,
                 gs - 1).astype(np.int64)
    iy = np.clip(np.floor((lat - y0) / (y1 - y0) * gs), 0,
                 gs - 1).astype(np.int64)
    hist = np.bincount((inv * gs + ix) * gs + iy,
                       minlength=len(cells) * gs * gs).astype("<f8")
    return pa.table({
        tile_col: pa.array(cells, pa.int64()),
        "raster": _binary_rows(hist.view(np.uint8).reshape(len(cells), -1)),
    })


def rasterize_points(pages_with_tiles, tile_col: str = "h3_r7",
                     grid_size: int = 32,
                     lon_col: str = "lon", lat_col: str = "lat"):
    """Per-tile point-count raster: Dataset of
    (tile, raster binary = grid_size² float64 counts, x-major). Points
    with a null tile are dropped."""
    empty = pa.table({tile_col: pa.array([], pa.int64()),
                      "raster": pa.array([], pa.binary())})
    return fold(pages_with_tiles, tile_col, functools.partial(
        _raster_partition, tile_col=tile_col, lon_col=lon_col,
        lat_col=lat_col, gs=grid_size), None, empty)


def _pixel_window(lo, hi, t0, t1, gs: int):
    """Per row, the pixel range on one tile axis ``[t0, t1]`` from the
    last pixel centre at or below ``lo`` to the first at or above
    ``hi``, clipped to the grid: (first index, count). The crossing
    test is exact in y and within a few ulps of the edge in x, so no
    centre outside this window can test inside a polygon whose bbox
    is ``[lo, hi]``."""
    a = np.floor((lo - t0) / (t1 - t0) * gs - 0.5)
    b = np.ceil((hi - t0) / (t1 - t0) * gs - 0.5)
    a = np.clip(a, 0, gs - 1).astype(np.int64)
    b = np.clip(b, 0, gs - 1).astype(np.int64)
    return a, b - a + 1


def _polygon_masks(batch: pa.Table, id_col: str, tile_col: str, res: int,
                   gs: int) -> pa.Table:
    """The zonal mask task: one ``(polygon_id, tile, pix)`` row per
    (polygon, tile its bbox covers at grid res ``res``), ``pix`` the
    ascending flat indices (``ix * gs + iy``) of the tile's pixels whose
    centre lies inside the polygon (even-odd). Non-polygon and null
    geometries make no rows."""
    packed = spatial._pack_polygon_batch(batch, id_col)
    bx = {c: np.asarray(packed[c].to_numpy(zero_copy_only=False))
          for c in ("x0", "y0", "x1", "y1")}
    cx0, cy0, ncx, ncell = spatial._cover_counts(bx, res)
    poly = np.repeat(np.arange(packed.num_rows, dtype=np.int64), ncell)
    local = spatial._concat_ranges(np.zeros(len(ncell), np.int64), ncell)
    tiles = ((np.int64(res) << 58)
             | ((cx0[poly] + local % ncx[poly]) << 29)
             | (cy0[poly] + local // ncx[poly]))
    tx0, ty0, tx1, ty1 = grid.cell_bounds(tiles).T
    ix0, nwx = _pixel_window(bx["x0"][poly], bx["x1"][poly], tx0, tx1, gs)
    iy0, nwy = _pixel_window(bx["y0"][poly], bx["y1"][poly], ty0, ty1, gs)
    ncand = nwx * nwy
    row = np.repeat(np.arange(len(tiles), dtype=np.int64), ncand)
    at = spatial._concat_ranges(np.zeros(len(tiles), np.int64), ncand)
    ix = ix0[row] + at // nwy[row]
    iy = iy0[row] + at % nwy[row]
    # the pixel-centre lattice: x0 + (i + 0.5) * w / gs, as the SQL twin
    px = tx0[row] + (ix + 0.5) * (tx1[row] - tx0[row]) / gs
    py = ty0[row] + (iy + 0.5) * (ty1[row] - ty0[row]) / gs

    coords, _ = wkb.binary_csr(packed["coords"])
    rl, rl_off = wkb.binary_csr(packed["rlens"])
    ring_offsets = np.concatenate([[0], np.cumsum(rl.view("<i8"))])
    poly_ring_offsets = rl_off // 8
    edges, poly_edge_offsets = spatial._build_edges(
        coords.view("<f8").reshape(-1, 2), ring_offsets, poly_ring_offsets)
    inside = spatial._confirm_pip(
        {"edges": edges, "poly_edge_offsets": poly_edge_offsets},
        np.arange(len(row), dtype=np.int64), poly[row], px, py)
    offsets = np.zeros(len(tiles) + 1, np.int32)
    np.cumsum(np.bincount(row[inside], minlength=len(tiles)),
              out=offsets[1:])
    pix = (ix * gs + iy)[inside].astype(np.int32)
    return pa.table({
        "polygon_id": pa.array(
            np.asarray(packed["pid"].to_numpy(zero_copy_only=False))[poly],
            pa.int64()),
        tile_col: pa.array(tiles, pa.int64()),
        "pix": pa.ListArray.from_arrays(pa.array(offsets), pa.array(pix)),
    })


def _zonal_partition(masks: pa.Table, rasters: pa.Table,
                     tile_col: str) -> pa.Table | None:
    """The :func:`polygon_zonal_stats` fold body: an inner join of the
    partition's masks with its rasters on the tile, then one gather of
    every joined mask's pixels and one ``bincount`` of their values."""
    if not masks.num_rows or not rasters.num_rows:
        return None
    pairs = pa.table({
        tile_col: masks[tile_col],
        "m": pa.array(np.arange(masks.num_rows, dtype=np.int64)),
    }).join(pa.table({
        tile_col: rasters[tile_col],
        "r": pa.array(np.arange(rasters.num_rows, dtype=np.int64)),
    }), tile_col, join_type="inner")
    mi = np.asarray(pairs["m"].to_numpy(), np.int64)
    ri = np.asarray(pairs["r"].to_numpy(), np.int64)
    lists = masks["pix"].combine_chunks()
    off = np.asarray(lists.offsets.to_numpy(), np.int64)
    cnt = off[mi + 1] - off[mi]
    pix = np.asarray(lists.values.to_numpy(), np.int64)[
        spatial._concat_ranges(off[mi], cnt)]
    data, boff = wkb.binary_csr(rasters["raster"])
    values = data.view("<f8")[np.repeat(boff[ri] // 8, cnt) + pix]
    sums = np.bincount(np.repeat(np.arange(len(mi)), cnt), weights=values,
                       minlength=len(mi))
    take = pa.array(mi)
    return pa.table({
        "polygon_id": masks["polygon_id"].take(take),
        tile_col: masks[tile_col].take(take),
        "pixel_count": pa.array(cnt, pa.int64()),
        "value_sum": pa.array(sums, pa.float64()),
        "value_mean": pa.array(
            np.where(cnt > 0, sums / np.maximum(cnt, 1), 0.0), pa.float64()),
    })


def polygon_zonal_stats(polygons_ds, raster_ds, tile_col: str = "h3_r7",
                        grid_size: int = 32, id_col: str = "id"):
    """Zonal stats per polygon over the per-tile rasters: one row per
    (polygon, tile its bbox covers that has a raster) with pixel_count,
    value_sum and value_mean of the raster under the polygon's
    pixel-centre even-odd mask.

    Two steps (see the module docstring). One plain task per non-empty
    polygon block computes every (polygon, tile) mask as pixel indices
    (:func:`~pyrosm_ray.stages.blocks.map_blocks`); then a two-sided
    :func:`~pyrosm_ray.stages.blocks.fold` on the tile joins the masks
    with the raster blocks and gathers. Geometry stays in those tasks,
    so continent-scale polygons cost one mask row per covering tile,
    not one WKB copy. The raster resolution is read from the first
    raster row of each block in plain tasks. The raster side is read
    once as held blocks (a lazy ``raster_ds`` streams once), so the
    probe and the fold read the same blocks; an empty ``raster_ds``
    gives an empty typed table."""
    empty = pa.table({"polygon_id": pa.array([], pa.int64()),
                      tile_col: pa.array([], pa.int64()),
                      "pixel_count": pa.array([], pa.int64()),
                      "value_sum": pa.array([], pa.float64()),
                      "value_mean": pa.array([], pa.float64())})
    rasters = Blocks.of(raster_ds)
    first = probe(rasters, lambda b: b[tile_col][0].as_py())
    if not first:
        return unreserved(rd.from_arrow(empty))
    res = int(grid.cell_res(np.array([first[0]]))[0])
    # plain tasks over the non-empty polygon blocks: a map would emit a
    # schema-less block for a zero-row one (a filtered layer has them)
    masks = map_blocks(polygons_ds, functools.partial(
        _polygon_masks, id_col=id_col, tile_col=tile_col, res=res,
        gs=grid_size))
    return fold((masks, rasters), tile_col, functools.partial(
        _zonal_partition, tile_col=tile_col), None, empty)
