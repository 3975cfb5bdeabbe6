"""Raster <-> vector stage: rasterize polygons onto per-tile grids + zonal
statistics (the north rule's raster stage; numpy only).

Pipeline shape (SURVEY.md §7.2 step 7):

1. pages (or any point table) -> per-tile pixel histogram = the "raster"
   (one raw-task :func:`~pyrosm_ray.stages.blocks.exchange` keyed by
   tile, building one dense grid per tile);
2. polygons replicated to the tiles their bbox covers, then
   co-partitioned with the rasters by tile
   (:func:`~pyrosm_ray.stages.blocks.co_join`);
3. per (polygon, tile) row: rasterize the polygon's mask over the
   pixel-centre lattice (vectorised even-odd PIP) and reduce the raster
   under the mask -> zonal stats (pixel_count, value_sum, value_mean).

Partitioning assumption: one tile's raster + its polygons fit a worker's
heap (tile res × grid_size bound it by construction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.stages.blocks import co_join, exchange, groupby_partitions
from pyrosm_ray.tiles import grid


def rasterize_points(pages_with_tiles, tile_col: str = "h3_r7",
                     grid_size: int = 32,
                     lon_col: str = "lon", lat_col: str = "lat"):
    """Per-tile point-count raster: Dataset of
    (tile, raster binary = grid_size² float64 counts)."""
    def per_tile(group: pa.Table) -> pa.Table:
        cell = int(group[tile_col][0].as_py())
        x0, y0, x1, y1 = grid.cell_bounds(np.array([cell]))[0]
        lon = np.asarray(group[lon_col].to_numpy(zero_copy_only=False))
        lat = np.asarray(group[lat_col].to_numpy(zero_copy_only=False))
        # floor-binning, not np.histogram2d: the same IEEE expression is
        # emitted verbatim by the DuckDB oracle (zonal_pixel_sql), so the
        # per-pixel counts are bit-reproducible in SQL. The grid cell
        # sides are dyadic rationals (360/2^r), so x0/w are exact and the
        # bin arithmetic matches across engines.
        gs = grid_size
        ix = np.clip(np.floor((lon - x0) / (x1 - x0) * gs), 0,
                     gs - 1).astype(np.int64)
        iy = np.clip(np.floor((lat - y0) / (y1 - y0) * gs), 0,
                     gs - 1).astype(np.int64)
        hist = np.bincount(ix * gs + iy,
                           minlength=gs * gs).astype(np.float64) \
            .reshape(gs, gs)
        return pa.table({
            tile_col: pa.array([cell], pa.int64()),
            "raster": pa.array([hist.astype("<f8").tobytes()], pa.binary()),
        })

    empty = pa.table({tile_col: pa.array([], pa.int64()),
                      "raster": pa.array([], pa.binary())})
    return exchange(pages_with_tiles, tile_col, per_tile,
                    groupby_partitions(), empty)


def polygon_zonal_stats(polygons_ds, raster_ds, tile_col: str = "h3_r7",
                        grid_size: int = 32, id_col: str = "id",
                        num_partitions: int = 8):
    """Zonal stats per polygon over the per-tile rasters.

    Polygons are exploded to covering tiles, joined with the raster table by
    tile, masked on the pixel-centre lattice, reduced. Output one row per
    (polygon, tile): pixel_count / value_sum / value_mean.

    Partitioning contract: the polygon GEOMETRY rides the explode, i.e. a
    polygon's WKB replicates once per covering tile. Building/landuse-scale
    polygons cover a handful of raster tiles, so the blow-up is bounded;
    for continent-scale admin polygons (10^4+ covering tiles) route the
    geometry via the packed-once pattern of
    :func:`pyrosm_ray.stages.spatial.pip_join_partitioned` — or rasterize
    at a coarser tile res — rather than this stage as-is.
    """
    def polys_to_cells(batch: pa.Table) -> pa.Table:
        ids_, cells, blobs = [], [], []
        bids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
        for i, g in enumerate(batch["geometry"].to_pylist()):
            if g is None or wkb.wkb_geom_type(g) not in (wkb.POLYGON,
                                                         wkb.MULTIPOLYGON):
                continue
            x0, y0, x1, y1 = wkb.wkb_bbox(g)
            # res taken from the raster side at join time; cover at the same
            # resolution the raster tiles use
            for c in _cover_at_raster_res(x0, y0, x1, y1):
                ids_.append(int(bids[i]))
                cells.append(int(c))
                blobs.append(g)
        return pa.table({
            "polygon_id": pa.array(ids_, pa.int64()),
            tile_col: pa.array(cells, pa.int64()),
            "pgeom": pa.array(blobs, pa.binary()),
        })

    # resolve the raster resolution once (driver): read one raster row
    first = raster_ds.take(1)
    if not first:
        return raster_ds  # empty
    raster_res = int(grid.cell_res(np.array([first[0][tile_col]]))[0])

    def _cover_at_raster_res(x0, y0, x1, y1):
        return grid.cover_bbox(x0, y0, x1, y1, raster_res)

    polys = polygons_ds.map_batches(polys_to_cells, batch_format="pyarrow")
    empty = pa.table({"polygon_id": pa.array([], pa.int64()),
                      tile_col: pa.array([], pa.int64()),
                      "pgeom": pa.array([], pa.binary()),
                      "raster": pa.array([], pa.binary())})
    joined = co_join(polys, raster_ds, tile_col, num_partitions, empty)

    def stats(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cells = np.asarray(batch[tile_col].to_numpy(zero_copy_only=False))
        bounds = grid.cell_bounds(cells) if n else np.empty((0, 4))
        pix_counts = np.zeros(n, dtype=np.int64)
        val_sums = np.zeros(n, dtype=np.float64)
        # a polygon covers several tiles, so its WKB repeats across rows
        # of the batch — parse each distinct geometry's rings once
        ring_cache: dict[bytes, list] = {}
        half = np.arange(grid_size) + 0.5
        for i in range(n):
            x0, y0, x1, y1 = bounds[i]
            raster = np.frombuffer(batch["raster"][i].as_py(),
                                   dtype="<f8").reshape(grid_size, grid_size)
            xs = x0 + half * (x1 - x0) / grid_size
            ys = y0 + half * (y1 - y0) / grid_size
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            blob = batch["pgeom"][i].as_py()
            rings = ring_cache.get(blob)
            if rings is None:
                rings = ring_cache[blob] = wkb.polygon_rings(blob)
            mask = ops.points_in_rings_even_odd(
                rings, gx.ravel(), gy.ravel()).reshape(grid_size, grid_size)
            pix_counts[i] = int(mask.sum())
            val_sums[i] = float(raster[mask].sum())
        out = pa.table({
            "polygon_id": batch["polygon_id"],
            tile_col: batch[tile_col],
            "pixel_count": pa.array(pix_counts, pa.int64()),
            "value_sum": pa.array(val_sums, pa.float64()),
            "value_mean": pa.array(
                np.where(pix_counts > 0, val_sums / np.maximum(pix_counts, 1),
                         0.0), pa.float64()),
        })
        return out

    return joined.map_batches(stats, batch_format="pyarrow")
