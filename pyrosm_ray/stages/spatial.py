"""Spatial-join + tiling stages over the pages table (the north-rule core).

Pipelines:

* :func:`geocode_pages` — derive (lon, lat) for every page. The sandbox
  geocoder parses the page id from the url and maps it deterministically
  (pyrosm_ray.fixtures.geocode_from_page_id) so joins are analytically
  checkable; a real deployment would plug any url->coordinate model in here.
* :func:`assign_tiles` — hierarchical cell assignment (res 5→9 by default,
  grid scheme; :mod:`pyrosm_ray.tiles.s2like` slots into the same call) +
  deterministic salt for mega-cells (city centres): a cheap count aggregate
  finds cells over threshold, pages in them get ``salt = page_id % k``
  (SURVEY.md §4 skew row).
* :func:`pip_join` — polygons (the small side) are decoded distributed and
  packed ONCE into a flat uniform-grid candidate index broadcast via
  ``ray.put``; every page batch (a plain Ray task — the per-task ``ray.get``
  is a zero-copy plasma read) looks up grid candidates and confirms with
  exact even-odd PIP. Pages stream — ``html``/``text`` pass through the
  batch untouched (byte-identical per url invariant).
* :func:`knn_join` — kNN-to-nearest-POI with expanding-radius candidate
  search against a broadcast point grid index + exact haversine ranking.
* :func:`pip_join_partitioned` — the co-partitioned variant for when
  the polygon side outgrows a broadcast: both sides keyed by covering cell
  (polygons replicated to every cell their bbox covers), joined per cell.
  Uses a payload projection + re-join by url so ``text`` never shuffles.
  The partitioned joins move rows on raw Ray tasks, as two-sided
  :func:`pyrosm_ray.stages.blocks.fold` calls on the cell or polygon id
  (and ``co_join``), not on Ray Data's hash shuffle.

Reference seed for PIP semantics: the bbox sjoin of
/root/reference/pyrosm/frames.pyx:231-241, generalised from one rectangle to
a polygon layer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from pyrosm_ray.stages.blocks import (co_join, fold, groupby_partitions,
                                      keyed_sum_auto, unreserved)

import functools

from pyrosm_ray.fixtures import geocode_from_page_id
from pyrosm_ray.geom import ops, wkb
from pyrosm_ray.tiles import grid


# ---------------------------------------------------------------------------
# geocode + tiles
# ---------------------------------------------------------------------------

def extract_page_id(url_col) -> np.ndarray:
    """Parse the trailing integer id out of the url column (vectorised)."""
    ext = pc.extract_regex(url_col, r"p/(?P<pid>\d+)$")
    pid = pc.struct_field(ext, "pid")
    return np.asarray(pc.cast(pid, pa.int64()).to_numpy(zero_copy_only=False),
                      dtype=np.int64)


def geocode_batch(batch: pa.Table) -> pa.Table:
    pid = extract_page_id(batch["url"])
    lon, lat = geocode_from_page_id(pid)
    batch = batch.append_column("page_id", pa.array(pid, pa.int64()))
    batch = batch.append_column("lon", pa.array(lon, pa.float64()))
    return batch.append_column("lat", pa.array(lat, pa.float64()))


def geocode_pages(pages_ds):
    return pages_ds.map_batches(geocode_batch, batch_format="pyarrow")


def tile_columns(batch: pa.Table, resolutions=(5, 7, 9)) -> pa.Table:
    lon = np.asarray(batch["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(batch["lat"].to_numpy(zero_copy_only=False))
    for r in resolutions:
        batch = batch.append_column(
            f"h3_r{r}",
            pa.array(grid.cell_id(lon, lat, grid.h3_equiv_res(r)),
                     pa.int64()))
    return batch


def hot_cells(ds_with_tiles, res: int, threshold: int,
              max_salt: int = 64,
              sample_mod: int | None = None) -> dict[int, int]:
    """Cells whose page count exceeds ``threshold`` -> salt modulus k.

    Pre-aggregated per batch (combiner) before the keyed fold — the fold
    sees one row per distinct cell per block, not per page.

    ``sample_mod=k`` estimates the histogram from the deterministic
    ``page_id %% k == 0`` systematic sample (counts scaled back up): a
    mega-cell is by definition visible in any fixed-rate sample, and the
    detection pass then reads 1/k of the data instead of doubling the
    full geocode+tile work (the classic skew-detection design at scale)."""
    col = f"h3_r{res}"
    scale = sample_mod or 1

    def partial(batch: pa.Table) -> pa.Table:
        cells_np = np.asarray(batch[col].to_numpy(zero_copy_only=False))
        if sample_mod:
            pid = np.asarray(batch["page_id"].to_numpy(
                zero_copy_only=False))
            cells_np = cells_np[pid % sample_mod == 0]
        cells, counts = np.unique(cells_np, return_counts=True)
        return pa.table({col: pa.array(cells, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    agg = keyed_sum_auto(
        ds_with_tiles.map_batches(partial, batch_format="pyarrow"),
        col, ["n"]).to_pandas()
    out = {}
    for cell, n in zip(agg[col], agg["n"]):
        if n * scale > threshold:
            out[int(cell)] = int(min(max_salt,
                                     max(2, (n * scale) // threshold)))
    return out


def assign_tiles(pages_ds, resolutions=(5, 7, 9), salt_res: int = 9,
                 salt_threshold: int | None = None,
                 salt_sample_mod: int | None = None):
    """Geocode + hierarchical cell columns + mega-cell salt column.

    ``salt_threshold`` pages per ``salt_res`` cell triggers salting (default:
    none); ``salt_sample_mod`` makes the hot-cell histogram pass read a
    deterministic 1/k sample. Returns a Dataset with
    page_id/lon/lat/h3_r*/salt appended."""
    ds = geocode_pages(pages_ds)
    ds = ds.map_batches(lambda b: tile_columns(b, resolutions),
                        batch_format="pyarrow")
    if salt_threshold is None:
        return ds.map_batches(
            lambda b: b.append_column(
                "salt", pa.array(np.zeros(len(b), dtype=np.int64))),
            batch_format="pyarrow")
    hot = hot_cells(ds, salt_res, salt_threshold,
                    sample_mod=salt_sample_mod)
    hot_ref = ray.put(hot)
    col = f"h3_r{salt_res}"

    def salt(batch: pa.Table) -> pa.Table:
        h = ray.get(hot_ref)
        cells = np.asarray(batch[col].to_numpy(zero_copy_only=False))
        pid = np.asarray(batch["page_id"].to_numpy(zero_copy_only=False))
        k = np.ones(len(batch), dtype=np.int64)
        if h:
            hot_arr = np.array(sorted(h), dtype=np.int64)
            ks = np.array([h[c] for c in hot_arr], dtype=np.int64)
            pos = np.clip(np.searchsorted(hot_arr, cells), 0,
                          len(hot_arr) - 1)
            hit = hot_arr[pos] == cells
            k[hit] = ks[pos[hit]]
        return batch.append_column("salt", pa.array(pid % k, pa.int64()))

    return ds.map_batches(salt, batch_format="pyarrow")


def tile_rollup(pages_ds, res_fine: int = 9, res_coarse: int = 5):
    """Multi-resolution page-count pyramid (the north rule's
    hierarchical res 5→9 tiling made an aggregate): pages geocode and
    count ONCE at the finest resolution, then each coarser level rolls
    up the PREVIOUS level's count table through an exact parent walk —
    log-depth hierarchical aggregation whose shuffle shrinks ~4x per
    level (the pages table never re-scans). The grid hierarchy is
    bit-exact (bit-shift parents), so the rollup equals per-level
    direct aggregation — the SQL twin computes every level directly
    from the pages and must hash-match.

    -> (res, cell, n_pages) for res in [res_coarse, res_fine]."""
    import pandas as pd

    from pyrosm_ray.tiles import grid

    tiled = assign_tiles(pages_ds, resolutions=(res_fine,))
    col = f"h3_r{res_fine}"

    def partial(b: pa.Table) -> pa.Table:
        cells = np.asarray(b[col].to_numpy(zero_copy_only=False),
                           np.int64)
        codes, uniq = pd.factorize(cells)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"cell": pa.array(uniq, pa.int64()),
                         "n_pages": pa.array(cnt, pa.int64())})

    level = keyed_sum_auto(
        tiled.map_batches(partial, batch_format="pyarrow"), "cell",
        ["n_pages"])

    def with_res(ds_level, r):
        def add(b: pa.Table) -> pa.Table:
            return pa.table({
                "res": pa.array(np.full(b.num_rows, r, np.int64)),
                "cell": b["cell"], "n_pages": b["n_pages"]})
        return ds_level.map_batches(add, batch_format="pyarrow")

    out = with_res(level, res_fine)
    for r in range(res_fine - 1, res_coarse - 1, -1):
        gres = grid.h3_equiv_res(r)

        def up(b: pa.Table, gres=gres) -> pa.Table:
            cells = np.asarray(b["cell"].to_numpy(zero_copy_only=False),
                               np.int64)
            n = np.asarray(b["n_pages"].to_numpy(zero_copy_only=False),
                           np.int64)
            par = grid.parent(cells, gres)
            codes, uniq = pd.factorize(par)
            acc = np.zeros(len(uniq), np.int64)
            np.add.at(acc, codes, n)
            return pa.table({"cell": pa.array(uniq, pa.int64()),
                             "n_pages": pa.array(acc, pa.int64())})

        # auto-routed fold: the level tables shrink ~4x per step and are
        # usually far below the driver-fold ceiling — a full hash shuffle
        # per level was pure aggregator spin-up (tile_rollup measured
        # 0.29 scaling efficiency at sf3 BECAUSE of it; the fold route
        # still engages for a 10^8-cell res-9 table at 100 TB)
        level = keyed_sum_auto(
            level.map_batches(up, batch_format="pyarrow"), "cell",
            ["n_pages"])
        out = out.union(with_res(level, r))
    return out


def tile_rollup_sql(pages_expr: str, lon_sql: str, lat_sql: str,
                    res_fine: int = 9, res_coarse: int = 5) -> str:
    """DuckDB twin of :func:`tile_rollup`: every level computed
    directly from the pages (no rollup), proving the parent hierarchy
    exact."""
    from pyrosm_ray.tiles import grid

    selects = []
    for r in range(res_coarse, res_fine + 1):
        cell = grid.cell_id_sql(lon_sql, lat_sql, grid.h3_equiv_res(r))
        selects.append(
            f"SELECT {r} AS res, {cell} AS cell, "
            f"COUNT(*) AS n_pages FROM {pages_expr} "
            f"GROUP BY 2")
    return (" UNION ALL ".join(selects)
            + " ORDER BY res, cell")


# ---------------------------------------------------------------------------
# polygon side packing (broadcast)
# ---------------------------------------------------------------------------

def _pack_polygon_batch(batch: pa.Table, id_col: str) -> pa.Table:
    """Distributed WKB decode: one compact row per polygon (bbox + packed
    ring coords + ring lengths) — the expensive per-geometry parse runs in
    the tasks, the driver only concatenates arrays."""
    ids, bxs, coords_b, rlen_b = [], [], [], []
    bids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False))
    for i, g in enumerate(batch["geometry"].to_pylist()):
        if g is None:
            continue
        gt = wkb.wkb_geom_type(g)
        if gt not in (wkb.POLYGON, wkb.MULTIPOLYGON):
            continue
        rings = wkb.polygon_rings(g)
        if not rings:
            continue
        ids.append(int(bids[i]))
        flat = np.concatenate(rings)
        bxs.append((flat[:, 0].min(), flat[:, 1].min(),
                    flat[:, 0].max(), flat[:, 1].max()))
        coords_b.append(np.ascontiguousarray(flat, dtype="<f8").tobytes())
        rlen_b.append(np.array([len(r) for r in rings],
                               dtype="<i8").tobytes())
    bx = np.array(bxs, dtype=np.float64).reshape(-1, 4)
    return pa.table({
        "pid": pa.array(ids, pa.int64()),
        "x0": pa.array(bx[:, 0]), "y0": pa.array(bx[:, 1]),
        "x1": pa.array(bx[:, 2]), "y1": pa.array(bx[:, 3]),
        "coords": pa.array(coords_b, pa.binary()),
        "rlens": pa.array(rlen_b, pa.binary()),
    })


def _binary_csr(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy CSR view over a binary column: (flat uint8 data, byte
    offsets rebased to 0). Callers .view() the flat bytes to their packed
    dtype — no per-row as_py/frombuffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    col = col.cast(pa.large_binary())
    boff = np.frombuffer(col.buffers()[1], np.int64)[
        col.offset:col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], np.uint8)
    return data[boff[0]:boff[-1]], boff - boff[0]


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return (np.arange(total, dtype=np.int64)
            - np.repeat(off[:-1], counts) + np.repeat(starts, counts))


_PAIR_BUDGET = 1 << 22  # candidate pairs one kernel expands at a time


def _cell_pairs(pcell: np.ndarray, qcell: np.ndarray):
    """Every (page, q) row pair sharing a cell, in page chunks of about
    :data:`_PAIR_BUDGET` pairs (a page over budget is a chunk alone): a
    dense partition's whole cross product would OOM a worker. Yields
    ``(s, e, pair_pg, pair_q)``: pages ``s:e``, pairs grouped by page in
    page order, indices into the full arrays."""
    qord = np.argsort(qcell, kind="stable")
    qs = qcell[qord]
    start = np.searchsorted(qs, pcell, side="left")
    cnt = np.searchsorted(qs, pcell, side="right") - start
    cum = np.cumsum(cnt)
    s = 0
    while s < len(pcell):
        base = cum[s - 1] if s else 0
        e = min(max(int(np.searchsorted(cum, base + _PAIR_BUDGET,
                                        side="right")), s + 1), len(pcell))
        yield s, e, np.repeat(np.arange(s, e, dtype=np.int64), cnt[s:e]), \
            qord[_concat_ranges(start[s:e], cnt[s:e])]
        s = e


def _build_cell_bins(bboxes: np.ndarray, max_cover: int = 64):
    """Uniform-grid candidate bins over polygon bboxes.

    Resolution adapts so a median polygon covers ~1 cell; each polygon is
    registered in every cell its bbox intersects (clip at ``max_cover``
    cells — the rare oversized polygons go to a brute-force side list).
    Returns (res, sorted cell keys, offsets, poly indices, oversize idx)."""
    n = len(bboxes)
    if n == 0:
        return 10, np.empty(0, np.int64), np.zeros(1, np.int64), \
            np.empty(0, np.int64), np.empty(0, np.int64)
    w = np.median(bboxes[:, 2] - bboxes[:, 0]) + 1e-12
    res = int(np.clip(np.floor(np.log2(360.0 / (2.0 * w))), 4, grid.MAX_RES))
    nx = np.int64(1) << res
    cx0 = np.clip(np.floor((bboxes[:, 0] + 180) / 360 * nx), 0,
                  nx - 1).astype(np.int64)
    cx1 = np.clip(np.floor((bboxes[:, 2] + 180) / 360 * nx), 0,
                  nx - 1).astype(np.int64)
    cy0 = np.clip(np.floor((90 - bboxes[:, 3]) / 180 * nx), 0,
                  nx - 1).astype(np.int64)
    cy1 = np.clip(np.floor((90 - bboxes[:, 1]) / 180 * nx), 0,
                  nx - 1).astype(np.int64)
    ncell = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
    oversize = np.flatnonzero(ncell > max_cover)
    normal = ncell <= max_cover
    nxc = (cx1 - cx0 + 1)[normal]
    counts = ncell[normal]
    poly_idx = np.repeat(np.flatnonzero(normal), counts)
    # enumerate each polygon's (dx, dy) cover cells vectorised
    local = _concat_ranges(np.zeros(int(normal.sum()), np.int64), counts)
    nx_rep = np.repeat(nxc, counts)
    dx = local % nx_rep
    dy = local // nx_rep
    cellx = np.repeat(cx0[normal], counts) + dx
    celly = np.repeat(cy0[normal], counts) + dy
    key = (cellx << 29) | celly
    order = np.argsort(key, kind="stable")
    key_s, poly_s = key[order], poly_idx[order]
    uniq, starts = np.unique(key_s, return_index=True)
    offsets = np.append(starts, len(key_s)).astype(np.int64)
    return res, uniq, offsets, poly_s, oversize


def _build_edges(coords: np.ndarray, ring_offsets: np.ndarray,
                 poly_ring_offsets: np.ndarray):
    """Flat edge arrays (x1,y1,x2,y2) + per-polygon edge offsets, skipping
    ring-boundary phantom edges — the vectorised-PIP working set."""
    n_pts = len(coords)
    if n_pts == 0:
        return (np.empty((0, 4)), np.zeros(len(poly_ring_offsets),
                                           dtype=np.int64))
    keep = np.ones(n_pts - 1, dtype=bool)
    ring_ends = ring_offsets[1:-1] - 1
    keep[ring_ends[ring_ends < n_pts - 1]] = False
    # preallocated strided fills, NOT column_stack([...])[keep]: the
    # axis-1 concatenate path copies row-by-row and double-allocates —
    # measured 60 s vs 2 s on an 18 M-edge build (this VM amplifies any
    # fresh multi-hundred-MB temporary)
    idx = np.flatnonzero(keep)
    e = np.empty((len(idx), 4), dtype=np.float64)
    np.take(coords, idx, axis=0, out=e[:, :2])
    np.take(coords, idx + 1, axis=0, out=e[:, 2:])
    # per-ring edge count = ring length - 1; per-poly = sum over its rings
    ring_edge_counts = (ring_offsets[1:] - ring_offsets[:-1]) - 1
    cs = np.zeros(len(ring_edge_counts) + 1, dtype=np.int64)
    np.cumsum(np.maximum(ring_edge_counts, 0), out=cs[1:])
    poly_edge_offsets = cs[poly_ring_offsets]
    return e, poly_edge_offsets


GRID_DEGRADE_REPLICATION = 8.0  # mean bins/polygon above which uniform
#                                 grid bins waste memory+scan (elongated
#                                 bboxes) and the shard packs an STR tree


def _assemble_shard_index(ids: np.ndarray, bboxes: np.ndarray,
                          coords: np.ndarray, rlens: np.ndarray,
                          rings_per_poly: np.ndarray, layer: str) -> dict:
    """Packed per-polygon arrays -> one queryable sub-index (candidate
    structure + flat edge CSR — the working set of _cell_candidates +
    _confirm_pip).

    Candidate structure is adaptive: uniform-grid bins when bboxes are
    compact (two searchsorteds per batch), a packed STR tree when the
    grid degrades — elongated/high-aspect bboxes replicate into many
    cells or overflow to the brute-force oversize list, while the tree
    stores each polygon exactly once."""
    ring_offsets = np.zeros(len(rlens) + 1, dtype=np.int64)
    np.cumsum(rlens, out=ring_offsets[1:])
    poly_ring_offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(rings_per_poly, out=poly_ring_offsets[1:])
    bboxes = bboxes.astype(np.float64)
    edges, poly_edge_offsets = _build_edges(coords, ring_offsets,
                                            poly_ring_offsets)
    out = {
        "ids": ids.astype(np.int64),
        "bboxes": bboxes,
        "coords": coords,
        "ring_offsets": ring_offsets,
        "poly_ring_offsets": poly_ring_offsets,
        "layer": layer,
        "edges": edges,
        "poly_edge_offsets": poly_edge_offsets,
    }
    cell_res, cell_keys, cell_offsets, cell_polys, oversize = \
        _build_cell_bins(bboxes)
    replication = (len(cell_polys) + 64.0 * len(oversize)) / max(len(ids), 1)
    if replication > GRID_DEGRADE_REPLICATION and len(ids) >= 8:
        from pyrosm_ray.geom.strtree import STRtree
        out["tree"] = STRtree(bboxes).to_state()
    else:
        out.update(cell_res=cell_res, cell_keys=cell_keys,
                   cell_offsets=cell_offsets, cell_polys=cell_polys,
                   oversize=oversize)
    return out


def _shard_from_packed(parts: list[pa.Table], layer: str) -> dict:
    t = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
    ids = np.asarray(t["pid"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    bboxes = np.column_stack([
        np.asarray(t[c].to_numpy(zero_copy_only=False))
        for c in ("x0", "y0", "x1", "y1")])
    coords_bufs = t["coords"].to_pylist()
    rlen_bufs = t["rlens"].to_pylist()
    coords = (np.frombuffer(b"".join(coords_bufs), dtype="<f8")
              .reshape(-1, 2) if coords_bufs else np.empty((0, 2)))
    rlens = (np.frombuffer(b"".join(rlen_bufs), dtype="<i8")
             if rlen_bufs else np.empty(0, dtype=np.int64))
    rings_per_poly = np.array([len(b) // 8 for b in rlen_bufs],
                              dtype=np.int64)
    return _assemble_shard_index(ids, bboxes, coords, rlens,
                                 rings_per_poly, layer)


@ray.remote
def _build_shard_task(layer: str, *parts: pa.Table) -> dict:
    return _shard_from_packed(list(parts), layer)


MAX_TOP_COVER = 16  # top cells a polygon may replicate into before it
#                     routes to the (rare, brute-bbox) oversize shard


def _top_cells(bx0, by0, bx1, by1, top_res: int):
    nx = np.int64(1) << top_res
    cx0 = np.clip(np.floor((bx0 + 180) / 360 * nx), 0, nx - 1).astype(np.int64)
    cx1 = np.clip(np.floor((bx1 + 180) / 360 * nx), 0, nx - 1).astype(np.int64)
    cy0 = np.clip(np.floor((90 - by1) / 180 * nx), 0, nx - 1).astype(np.int64)
    cy1 = np.clip(np.floor((90 - by0) / 180 * nx), 0, nx - 1).astype(np.int64)
    return cx0, cx1, cy0, cy1


@ray.remote
def _route_block_task(block: pa.Table, top_res: int, max_cover: int):
    """One packed block -> {top_cell: ObjectRef(sub-table)} + optional
    oversize sub-table ref. The block arrives by reference (zero driver
    copy); sub-tables go straight back into the object store."""
    if block.num_rows == 0:
        return {}, None
    cols = {c: np.asarray(block[c].to_numpy(zero_copy_only=False))
            for c in ("x0", "y0", "x1", "y1")}
    cx0, cx1, cy0, cy1 = _top_cells(cols["x0"], cols["y0"],
                                    cols["x1"], cols["y1"], top_res)
    ncell = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
    over = ncell > max_cover
    out: dict[int, "ray.ObjectRef"] = {}
    normal = np.flatnonzero(~over)
    if len(normal):
        counts = ncell[normal]
        rows = np.repeat(normal, counts)
        local = _concat_ranges(np.zeros(len(normal), np.int64), counts)
        nx_rep = np.repeat((cx1 - cx0 + 1)[normal], counts)
        cellx = np.repeat(cx0[normal], counts) + local % nx_rep
        celly = np.repeat(cy0[normal], counts) + local // nx_rep
        key = (cellx << 32) | celly
        order = np.argsort(key, kind="stable")
        key_s, rows_s = key[order], rows[order]
        uniq, starts = np.unique(key_s, return_index=True)
        bounds = np.append(starts, len(key_s))
        for i, cell in enumerate(uniq):
            out[int(cell)] = ray.put(
                block.take(pa.array(rows_s[bounds[i]:bounds[i + 1]])))
    over_ref = None
    if over.any():
        over_ref = ray.put(block.take(pa.array(np.flatnonzero(over))))
    return out, over_ref


def pack_polygon_index(polygons_ds, id_col: str = "id",
                       layer: str | None = None,
                       target_shards: int | None = None) -> "ray.ObjectRef":
    """Distributed sharded polygon index build.

    WKB decode runs distributed (map_batches); packed polygon blocks are
    ROUTED by top-level grid cell in parallel tasks and one sub-index per
    occupied cell is built in parallel tasks — nothing but a tiny manifest
    (cell keys + shard ObjectRefs) ever lands on the driver, and the build
    wall scales with CPUs instead of anti-scaling on a serial driver
    concat. Polygons whose bbox spans > MAX_TOP_COVER top cells go to one
    brute-bbox oversize shard checked per batch. Each shard's candidate
    grid adapts to ITS polygons (better than one global resolution)."""
    lay = layer or "polygons"
    packed = unreserved(polygons_ds.map_batches(
        lambda b: _pack_polygon_batch(b, id_col),
        batch_format="pyarrow").materialize())

    def stats(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "minx": pa.array([], pa.float64()),
                             "miny": pa.array([], pa.float64()),
                             "maxx": pa.array([], pa.float64()),
                             "maxy": pa.array([], pa.float64())})
        return pa.table({
            "n": pa.array([b.num_rows], pa.int64()),
            "minx": pa.array([pc.min(b["x0"]).as_py()], pa.float64()),
            "miny": pa.array([pc.min(b["y0"]).as_py()], pa.float64()),
            "maxx": pa.array([pc.max(b["x1"]).as_py()], pa.float64()),
            "maxy": pa.array([pc.max(b["y1"]).as_py()], pa.float64()),
        })

    st = packed.map_batches(stats, batch_format="pyarrow").to_pandas()
    n_polys = int(st["n"].sum()) if len(st) else 0
    if n_polys == 0:
        return ray.put({"sharded": True, "top_res": 0,
                        "cells": np.empty(0, np.int64), "shards": [],
                        "oversize_shard": None, "layer": lay})
    spanx = max(float(st["maxx"].max() - st["minx"].min()), 1e-6)
    spany = max(float(st["maxy"].max() - st["miny"].min()), 1e-6)
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    # shard count scales with BOTH the cluster and the data: ~5k polygons
    # per shard floor keeps small layers from paying 4*cpus tiny-task
    # overheads, while big layers still fan out to every core
    target = target_shards or int(np.clip(
        min(4 * cpus, n_polys // 5000 + 1), 1, 256))
    # 2^r grid spans 360x180 deg; occupied cells over the data extent
    # ~ spanx*spany*4^r/(360*180) — solve for ~target shards
    top_res = int(np.clip(round(0.5 * np.log2(
        max(target, 1) * 360.0 * 180.0 / (spanx * spany))), 0, 18))

    block_refs = packed.to_arrow_refs()
    routed = ray.get([_route_block_task.remote(ref, top_res, MAX_TOP_COVER)
                      for ref in block_refs])
    from collections import defaultdict
    cell_parts: dict[int, list] = defaultdict(list)
    over_parts: list = []
    for d, over_ref in routed:
        for c, ref in d.items():
            cell_parts[c].append(ref)
        if over_ref is not None:
            over_parts.append(over_ref)
    cells = np.array(sorted(cell_parts), dtype=np.int64)
    shard_refs = [_build_shard_task.remote(lay, *cell_parts[int(c)])
                  for c in cells]
    over_shard = _build_shard_task.remote(lay, *over_parts) \
        if over_parts else None
    pending = list(shard_refs) + ([over_shard] if over_shard else [])
    if pending:  # index is ready when this returns (honest build timing)
        ray.wait(pending, num_returns=len(pending), fetch_local=False)
    return ray.put({"sharded": True, "top_res": top_res, "cells": cells,
                    "shards": shard_refs, "oversize_shard": over_shard,
                    "layer": lay})


_CONFIRM_CHUNK_EDGES = 1 << 19  # ~512k expanded edge rows ≈ 30 MB temporaries


def _confirm_pip(index, cand_pt: np.ndarray, cand_poly: np.ndarray,
                 px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Exact even-odd confirmation of candidate (point, polygon) pairs.

    Vectorised ray casting: every pair expands to its polygon's edges
    (flat edge CSR built once at pack time). The expansion is processed in
    bounded chunks — an unbounded expansion allocates ~1 GB of temporaries
    per 64k-page batch, and concurrent tasks then fight for DRAM bandwidth
    instead of scaling across cores."""
    n_pairs = len(cand_pt)
    keep = np.zeros(n_pairs, dtype=bool)
    if not n_pairs:
        return keep
    peo = index["poly_edge_offsets"]
    e = index["edges"]
    counts = peo[cand_poly + 1] - peo[cand_poly]
    pair_cum = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_cum[1:])
    lo = 0
    while lo < n_pairs:
        hi = int(np.searchsorted(pair_cum,
                                 pair_cum[lo] + _CONFIRM_CHUNK_EDGES,
                                 side="right")) - 1
        hi = min(max(hi, lo + 1), n_pairs)
        sel = slice(lo, hi)
        cnt = counts[sel]
        edge_idx = _concat_ranges(peo[cand_poly[sel]], cnt)
        pair_of_edge = np.repeat(np.arange(hi - lo, dtype=np.int64), cnt)
        ex1 = e[edge_idx, 0]
        ey1 = e[edge_idx, 1]
        ex2 = e[edge_idx, 2]
        ey2 = e[edge_idx, 3]
        qx = px[cand_pt[sel][pair_of_edge]]
        qy = py[cand_pt[sel][pair_of_edge]]
        cond = (ey1 > qy) != (ey2 > qy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ex1 + (qy - ey1) * (ex2 - ex1) / (ey2 - ey1)
        hits = (cond & (qx < xint)).astype(np.int64)
        cs = np.zeros(len(hits) + 1, dtype=np.int64)
        np.cumsum(hits, out=cs[1:])
        off = pair_cum[lo:hi + 1] - pair_cum[lo]
        crossings = cs[off[1:]] - cs[off[:-1]]
        keep[sel] = (crossings % 2) == 1
        lo = hi
    return keep


def _cell_candidates(index, px: np.ndarray, py: np.ndarray):
    """Candidate (point, polygon) pairs via the shard's candidate
    structure: uniform-grid bins + bbox prefilter (two searchsorteds)
    for compact layers, packed-STR-tree descent for degraded/elongated
    layers (see _assemble_shard_index)."""
    if "tree" in index:
        from pyrosm_ray.geom.strtree import STRtree
        tree = STRtree.from_state(index["tree"])
        return tree.query_points(px, py)  # bbox-exact; no prefilter needed
    res = index["cell_res"]
    nx = np.int64(1) << res
    cx = np.clip(np.floor((px + 180) / 360 * nx), 0, nx - 1).astype(np.int64)
    cy = np.clip(np.floor((90 - py) / 180 * nx), 0, nx - 1).astype(np.int64)
    key = (cx << 29) | cy
    keys = index["cell_keys"]
    pos = np.searchsorted(keys, key)
    pos_c = np.clip(pos, 0, max(len(keys) - 1, 0))
    hit = keys[pos_c] == key if len(keys) else np.zeros(len(px), bool)
    off = index["cell_offsets"]
    starts = off[pos_c] * hit
    counts = (off[pos_c + 1] - off[pos_c]) * hit
    cand_pt = np.repeat(np.arange(len(px), dtype=np.int64), counts)
    cand_poly = index["cell_polys"][_concat_ranges(starts, counts)]
    # oversized polygons: brute-force bbox scan (rare by construction)
    if len(index["oversize"]):
        ob = index["bboxes"][index["oversize"]]
        for j, poly in zip(range(len(ob)), index["oversize"]):
            m = ((px >= ob[j, 0]) & (px <= ob[j, 2])
                 & (py >= ob[j, 1]) & (py <= ob[j, 3]))
            pts = np.flatnonzero(m)
            cand_pt = np.concatenate([cand_pt, pts])
            cand_poly = np.concatenate(
                [cand_poly, np.full(len(pts), poly, dtype=np.int64)])
    # bbox prefilter
    bb = index["bboxes"]
    ok = ((px[cand_pt] >= bb[cand_poly, 0])
          & (px[cand_pt] <= bb[cand_poly, 2])
          & (py[cand_pt] >= bb[cand_poly, 1])
          & (py[cand_pt] <= bb[cand_poly, 3]))
    return cand_pt[ok], cand_poly[ok]


def _query_shard(shard: dict, pts: np.ndarray, px: np.ndarray,
                 py: np.ndarray):
    """Run candidate lookup + exact PIP for the point subset ``pts``
    against one shard; returns (global point idx, polygon ids)."""
    cand_pt, cand_poly = _cell_candidates(shard, px[pts], py[pts])
    keep = _confirm_pip(shard, cand_pt, cand_poly, px[pts], py[pts])
    return pts[cand_pt[keep]], shard["ids"][cand_poly[keep]]


def pip_join_batch(batch: pa.Table, *, index_ref, how: str = "inner",
                   lon_col: str = "lon", lat_col: str = "lat") -> pa.Table:
    """Point-in-polygon join over one page batch (plain-task map_batches
    stage: the per-task ``ray.get`` of the manifest and of each touched
    shard is a zero-copy plasma read, so no actor pool needs to spin up).

    The batch's points group by top-level cell; each group queries only
    its cell's sub-index (uniform-grid candidates -> exact even-odd PIP);
    the oversize shard (bbox-spanning outliers) is checked once per batch.
    One row per (page, polygon) hit; non-matching pages drop (inner) or
    keep nulls (left outer)."""
    man = ray.get(index_ref)
    n = len(batch)
    px = np.asarray(batch[lon_col].to_numpy(zero_copy_only=False))
    py = np.asarray(batch[lat_col].to_numpy(zero_copy_only=False))
    pt_parts: list[np.ndarray] = []
    poly_parts: list[np.ndarray] = []
    cells = man["cells"]
    if len(cells) and n:
        nx = np.int64(1) << man["top_res"]
        cx = np.clip(np.floor((px + 180) / 360 * nx), 0,
                     nx - 1).astype(np.int64)
        cy = np.clip(np.floor((90 - py) / 180 * nx), 0,
                     nx - 1).astype(np.int64)
        key = (cx << 32) | cy
        pos = np.clip(np.searchsorted(cells, key), 0, len(cells) - 1)
        sel = np.flatnonzero(cells[pos] == key)
        if len(sel):
            order = np.argsort(pos[sel], kind="stable")
            sel_s = sel[order]
            uniq, starts = np.unique(pos[sel][order], return_index=True)
            bounds = np.append(starts, len(sel_s))
            for i, shard_i in enumerate(uniq):
                shard = ray.get(man["shards"][int(shard_i)])
                hp, hg = _query_shard(shard, sel_s[bounds[i]:bounds[i + 1]],
                                      px, py)
                pt_parts.append(hp)
                poly_parts.append(hg)
    if man.get("oversize_shard") is not None and n:
        shard = ray.get(man["oversize_shard"])
        hp, hg = _query_shard(shard, np.arange(n, dtype=np.int64), px, py)
        pt_parts.append(hp)
        poly_parts.append(hg)
    hit_pt = np.concatenate(pt_parts) if pt_parts else \
        np.empty(0, dtype=np.int64)
    hit_poly = np.concatenate(poly_parts) if poly_parts else \
        np.empty(0, dtype=np.int64)
    order = np.lexsort((hit_poly, hit_pt))  # deterministic output order
    hit_pt, hit_poly = hit_pt[order], hit_poly[order]
    if how == "inner":
        out = batch.take(pa.array(hit_pt))
        out = out.append_column("polygon_id",
                                pa.array(hit_poly, pa.int64()))
    else:  # left outer: first hit per page, null if none
        poly_col = np.full(n, None, dtype=object)
        # keep the first (lowest polygon id) hit deterministically
        order = np.lexsort((hit_poly, hit_pt))
        first = np.ones(len(order), dtype=bool)
        first[1:] = hit_pt[order][1:] != hit_pt[order][:-1]
        for p, g in zip(hit_pt[order][first], hit_poly[order][first]):
            poly_col[p] = int(g)
        out = batch.append_column("polygon_id",
                                  pa.array(poly_col, pa.int64()))
    return out.append_column(
        "polygon_layer",
        pa.array([man["layer"]] * len(out), pa.string()))


def pip_join(pages_ds, polygons_ds=None, how: str = "inner",
             layer: str | None = None, id_col: str = "id",
             batch_size: int = 64 * 1024, concurrency=None,
             index_ref=None):
    """Broadcast PIP join: geocoded pages stream against a polygon layer.

    Pass a prebuilt ``index_ref`` (:func:`pack_polygon_index`) to amortise
    the polygon index build across multiple joins / the page stream."""
    if index_ref is None:
        index_ref = pack_polygon_index(polygons_ds, id_col=id_col,
                                       layer=layer)
    return pages_ds.map_batches(
        functools.partial(pip_join_batch, index_ref=index_ref, how=how),
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# kNN join (nearest POIs)
# ---------------------------------------------------------------------------

def _pack_point_batch(batch: pa.Table, id_col: str, lon_col: str,
                      lat_col: str) -> pa.Table:
    """Distributed point pack: WKB decode runs in the tasks; ONE row per
    batch carries the packed id/lon/lat buffers so the driver concatenates
    a handful of large buffers instead of decoding serially."""
    if lon_col in batch.column_names:
        lon = np.asarray(batch[lon_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)
        lat = np.asarray(batch[lat_col].to_numpy(zero_copy_only=False),
                         dtype=np.float64)
    else:
        # vectorised Point-WKB decode: the 21-byte little-endian layout
        # is fixed, so one frombuffer view parses the whole batch
        bufs = batch["geometry"].to_pylist()
        raw = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        if len(bufs) and len(raw) == 21 * len(bufs):
            m = raw.reshape(-1, 21)
            pts = np.column_stack([
                m[:, 5:13].copy().view("<f8").ravel(),
                m[:, 13:21].copy().view("<f8").ravel()])
        else:  # mixed geometry fallback
            pts = np.array([wkb.decode_wkb(g)[1] for g in bufs])
        lon, lat = (pts[:, 0], pts[:, 1]) if len(pts) else \
            (np.empty(0), np.empty(0))
    ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    return pa.table({
        "ids": pa.array([ids.astype("<i8").tobytes()], pa.binary()),
        "lon": pa.array([np.ascontiguousarray(lon, "<f8").tobytes()],
                        pa.binary()),
        "lat": pa.array([np.ascontiguousarray(lat, "<f8").tobytes()],
                        pa.binary()),
    })


def _point_cell_keys(lon: np.ndarray, lat: np.ndarray,
                     res: int) -> np.ndarray:
    nx = np.int64(1) << res
    cx = np.clip(np.floor((lon + 180) / 360 * nx), 0, nx - 1).astype(np.int64)
    cy = np.clip(np.floor((90 - lat) / 180 * nx), 0, nx - 1).astype(np.int64)
    return (cx << 29) | cy


@ray.remote
def _point_stats_task(block: pa.Table):
    if "ids" not in block.column_names:
        # Ray 2.49: zero-row blocks skip map UDFs and surface with the
        # UPSTREAM schema (the blocks.py guard note) — treat as empty
        return 0, 0.0, 0.0, 0.0, 0.0, np.empty(0, np.int64)
    ids = np.frombuffer(b"".join(block["ids"].to_pylist()), dtype="<i8")
    lon = np.frombuffer(b"".join(block["lon"].to_pylist()), dtype="<f8")
    if len(lon) == 0:
        return 0, 0.0, 0.0, 0.0, 0.0, np.empty(0, np.int64)
    lat = np.frombuffer(b"".join(block["lat"].to_pylist()), dtype="<f8")
    step = max(1, len(lon) // 64)
    # sample raw (lon, lat) pairs packed into an int64 morton-ish proxy is
    # overkill: bounds are chosen AFTER res is known, so just return the
    # extremes here and sample keys in the route pass
    return (len(ids), float(lon.min()), float(lon.max()),
            float(lat.min()), float(lat.max()),
            np.column_stack([lon[::step], lat[::step]]))


@ray.remote
def _point_route_task(block: pa.Table, bounds: np.ndarray, res: int):
    """One packed block -> {shard: ref((ids, lon, lat, keys))} routed by
    cell-key range; sub-arrays go straight back to the object store."""
    if "ids" not in block.column_names:
        return {}
    ids = np.frombuffer(b"".join(block["ids"].to_pylist()), dtype="<i8")
    if len(ids) == 0:
        return {}
    lon = np.frombuffer(b"".join(block["lon"].to_pylist()), dtype="<f8")
    lat = np.frombuffer(b"".join(block["lat"].to_pylist()), dtype="<f8")
    key = _point_cell_keys(lon, lat, res)
    sid = np.searchsorted(bounds, key, side="right") if len(bounds) \
        else np.zeros(len(key), np.int64)
    order = np.argsort(sid, kind="stable")
    uniq, starts = np.unique(sid[order], return_index=True)
    ends = np.append(starts[1:], len(key))
    out: dict[int, "ray.ObjectRef"] = {}
    for s, a, b in zip(uniq, starts, ends):
        rows = order[a:b]
        out[int(s)] = ray.put((ids[rows], lon[rows], lat[rows], key[rows]))
    return out


@ray.remote
def _point_shard_task(*parts):
    ids = np.concatenate([p[0] for p in parts])
    lon = np.concatenate([p[1] for p in parts])
    lat = np.concatenate([p[2] for p in parts])
    key = np.concatenate([p[3] for p in parts])
    order = np.lexsort((ids, key))  # deterministic within equal keys
    return ids[order], lon[order], lat[order], key[order]


@ray.remote
def _point_merge_task(res: int, r0: float, *shards):
    """Shards arrive as disjoint ascending key ranges: one LINEAR pass
    (concat + run-length unique, no sort) assembles the flat broadcast
    index — the only serial step, and it is O(N) memcpy."""
    ids = np.concatenate([s[0] for s in shards]) if shards else \
        np.empty(0, np.int64)
    lon = np.concatenate([s[1] for s in shards]) if shards else \
        np.empty(0)
    lat = np.concatenate([s[2] for s in shards]) if shards else \
        np.empty(0)
    key = np.concatenate([s[3] for s in shards]) if shards else \
        np.empty(0, np.int64)
    if len(key):
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        uniq = key[starts]
        offsets = np.append(starts, len(key)).astype(np.int64)
    else:
        uniq = np.empty(0, np.int64)
        offsets = np.zeros(1, np.int64)
    return {"ids": ids, "lon": lon, "lat": lat,
            "cell_res": res, "cell_keys": uniq, "cell_offsets": offsets,
            "cell_points": np.arange(len(key), dtype=np.int64), "r0": r0}


def pack_point_index(points_ds, id_col: str = "id",
                     lon_col: str = "lon", lat_col: str = "lat"):
    """Distributed build of the broadcast kNN point index (same flat
    layout KnnJoiner reads): packed blocks are routed by cell-key range
    into parallel sort shards; the driver only picks the grid resolution
    from per-block stats and launches tasks — no O(N) concat or argsort
    runs on the driver (round-3 verdict item; the
    build_coord_index_sharded pattern, topology.py)."""
    packed = unreserved(points_ds.map_batches(
        functools.partial(_pack_point_batch, id_col=id_col,
                          lon_col=lon_col, lat_col=lat_col),
        batch_format="pyarrow", batch_size=1 << 18).materialize())
    block_refs = packed.to_arrow_refs()
    stats = ray.get([_point_stats_task.remote(r) for r in block_refs]) \
        if block_refs else []
    total = sum(s[0] for s in stats)
    if total == 0:
        return ray.put({"ids": np.empty(0, np.int64), "lon": np.empty(0),
                        "lat": np.empty(0), "cell_res": 10,
                        "cell_keys": np.empty(0, np.int64),
                        "cell_offsets": np.zeros(1, np.int64),
                        "cell_points": np.empty(0, np.int64), "r0": 0.01})
    live = [s for s in stats if s[0]]
    w = max(max(s[2] for s in live) - min(s[1] for s in live), 1e-9)
    h = max(max(s[4] for s in live) - min(s[3] for s in live), 1e-9)
    if total > 1:
        cell = np.sqrt(2.0 * w * h / total)
        res = int(np.clip(np.floor(np.log2(360.0 / cell)), 4, grid.MAX_RES))
        r0 = float(np.sqrt(max(w, 1e-6) * max(h, 1e-6) / total))
    else:
        res, r0 = 10, 0.01
    # shard bounds from the per-block coordinate samples
    samp = np.concatenate([s[5] for s in live])
    keys = np.sort(_point_cell_keys(samp[:, 0], samp[:, 1], res))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    k = int(np.clip(min(4 * cpus, total // 65536 + 1), 1, 256))
    bounds = keys[np.linspace(0, len(keys) - 1, k + 1).astype(int)[1:-1]] \
        if k > 1 else np.empty(0, np.int64)
    bounds = np.unique(bounds)
    routed = ray.get([_point_route_task.remote(r, bounds, res)
                      for r in block_refs])
    from collections import defaultdict
    parts: dict[int, list] = defaultdict(list)
    for d in routed:
        for s, ref in d.items():
            parts[s].append(ref)
    shard_refs = [_point_shard_task.remote(*parts[s])
                  for s in sorted(parts)]
    out_ref = _point_merge_task.remote(res, r0, *shard_refs)
    # index is ready when this returns (honest build timing)
    ray.wait([out_ref], fetch_local=False)
    return out_ref


class KnnJoiner:
    """kNN-to-nearest-POI join over the broadcast point index: per batch an
    expanding-radius candidate search, exact haversine ranking, top-k rows
    per page. Used as a plain-task map_batches stage via
    :func:`knn_join_batch` (the index ``ray.get`` is zero-copy)."""

    def __init__(self, index_ref, k: int = 1, r0_deg: float | None = None,
                 lon_col: str = "lon", lat_col: str = "lat"):
        self.index = ray.get(index_ref)
        self.k = k
        self.r0 = r0_deg or self.index.get("r0", 0.01) * max(
            1.0, float(np.sqrt(k)))
        self.lon_col = lon_col
        self.lat_col = lat_col

    def _box_candidates(self, px, py, r):
        """(query, point) candidate pairs for r-degree boxes via cell bins.
        Longitude cell ranges WRAP mod nx so boxes straddling the +-180
        antimeridian stay complete; latitude clips at the poles."""
        idx = self.index
        res = idx["cell_res"]
        nx = np.int64(1) << res
        cx0 = np.floor((px - r + 180) / 360 * nx).astype(np.int64)
        cx1 = np.floor((px + r + 180) / 360 * nx).astype(np.int64)
        cy0 = np.clip(np.floor((90 - (py + r)) / 180 * nx), 0,
                      nx - 1).astype(np.int64)
        cy1 = np.clip(np.floor((90 - (py - r)) / 180 * nx), 0,
                      nx - 1).astype(np.int64)
        ncx = np.minimum(cx1 - cx0 + 1, nx)
        ncell = ncx * (cy1 - cy0 + 1)
        q_of_cell = np.repeat(np.arange(len(px), dtype=np.int64), ncell)
        local = _concat_ranges(np.zeros(len(px), np.int64), ncell)
        nx_rep = np.repeat(ncx, ncell)
        key = (((np.repeat(cx0, ncell) + local % nx_rep) % nx) << 29) \
            | (np.repeat(cy0, ncell) + local // nx_rep)
        keys = idx["cell_keys"]
        pos = np.searchsorted(keys, key)
        pos_c = np.clip(pos, 0, max(len(keys) - 1, 0))
        hit = keys[pos_c] == key if len(keys) else np.zeros(len(key), bool)
        off = idx["cell_offsets"]
        starts = off[pos_c] * hit
        counts = (off[pos_c + 1] - off[pos_c]) * hit
        qi = np.repeat(q_of_cell, counts)
        ii = idx["cell_points"][_concat_ranges(starts, counts)]
        # clip to the actual box (cells overhang); r may be a per-query
        # array (the radius join's covering boxes); the lon delta is taken
        # mod 360 so the box test is seam-safe
        rq = r[qi] if np.ndim(r) else r
        dlon = np.abs((idx["lon"][ii] - px[qi] + 180.0) % 360.0 - 180.0)
        ok = ((dlon <= rq)
              & (idx["lat"][ii] >= py[qi] - rq)
              & (idx["lat"][ii] <= py[qi] + rq))
        return qi[ok], ii[ok]

    def _box_counts(self, px, py, r):
        """Per-query candidate-count ESTIMATE (sum of bin sizes over the
        covering cells) — no point rows materialize, so callers can
        budget-chunk dense workloads before generating pairs."""
        idx = self.index
        res = idx["cell_res"]
        nx = np.int64(1) << res
        cx0 = np.floor((px - r + 180) / 360 * nx).astype(np.int64)
        cx1 = np.floor((px + r + 180) / 360 * nx).astype(np.int64)
        cy0 = np.clip(np.floor((90 - (py + r)) / 180 * nx), 0,
                      nx - 1).astype(np.int64)
        cy1 = np.clip(np.floor((90 - (py - r)) / 180 * nx), 0,
                      nx - 1).astype(np.int64)
        ncx = np.minimum(cx1 - cx0 + 1, nx)
        ncell = ncx * (cy1 - cy0 + 1)
        q_of_cell = np.repeat(np.arange(len(px), dtype=np.int64), ncell)
        local = _concat_ranges(np.zeros(len(px), np.int64), ncell)
        nx_rep = np.repeat(ncx, ncell)
        key = (((np.repeat(cx0, ncell) + local % nx_rep) % nx) << 29) \
            | (np.repeat(cy0, ncell) + local // nx_rep)
        keys = idx["cell_keys"]
        pos = np.searchsorted(keys, key)
        pos_c = np.clip(pos, 0, max(len(keys) - 1, 0))
        hit = keys[pos_c] == key if len(keys) else np.zeros(len(key),
                                                           bool)
        off = idx["cell_offsets"]
        counts = (off[pos_c + 1] - off[pos_c]) * hit
        est = np.zeros(len(px), np.int64)
        np.add.at(est, q_of_cell, counts)
        return est

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0 or len(self.index["ids"]) == 0:
            return batch.slice(0, 0)
        px = np.asarray(batch[self.lon_col].to_numpy(zero_copy_only=False))
        py = np.asarray(batch[self.lat_col].to_numpy(zero_copy_only=False))
        k = min(self.k, len(self.index["ids"]))
        pend = np.arange(n)
        r = self.r0
        rows_pt: list[np.ndarray] = []
        rows_poi: list[np.ndarray] = []
        rows_d: list[np.ndarray] = []
        for round_i in range(10):
            if not len(pend):
                break
            qi, ii = self._box_candidates(px[pend], py[pend], r)
            done_mask = np.zeros(len(pend), dtype=bool)
            if len(qi):
                d = ops.haversine_m(py[pend[qi]], px[pend[qi]],
                                    self.index["lat"][ii],
                                    self.index["lon"][ii])
                # fully vectorised per-point top-k: sort pairs by (point,
                # distance, poi_id) and rank within the point's group
                order = np.lexsort((self.index["ids"][ii], d, qi))
                qi_s, ii_s, d_s = qi[order], ii[order], d[order]
                grp_start = np.flatnonzero(
                    np.diff(qi_s, prepend=qi_s[0] - 1))
                counts = np.diff(np.append(grp_start, len(qi_s)))
                rank = (np.arange(len(qi_s))
                        - np.repeat(grp_start, counts))
                # a point is DONE when its kth candidate lies within the
                # *inscribed* safe radius (a neighbour outside the query box
                # could otherwise be closer); east-west extent shrinks by
                # cos(lat)
                safe_m = (r * 110_000.0
                          * np.cos(np.deg2rad(np.abs(py[pend]))))
                has_k = counts >= k
                grp_pt = qi_s[grp_start]           # pend-relative point idx
                kth_d = d_s[np.minimum(grp_start + k - 1,
                                       len(d_s) - 1)]
                done_grp = has_k & (kth_d <= safe_m[grp_pt])
                done_mask[grp_pt[done_grp]] = True
                take = np.repeat(done_grp, counts) & (rank < k)
                rows_pt.append(pend[qi_s[take]])
                rows_poi.append(self.index["ids"][ii_s[take]])
                rows_d.append(np.round(d_s[take], 3))
                pend = pend[~done_mask]
            r *= 3.0
            if (r > 360.0 or round_i == 9) and len(pend):
                # brute-force the stragglers in one matmul-style sweep
                d = ops.haversine_m(py[pend][:, None], px[pend][:, None],
                                    self.index["lat"][None, :],
                                    self.index["lon"][None, :])
                part = np.argpartition(d, k - 1, axis=1)[:, :k]
                rows = np.repeat(np.arange(len(pend)), k)
                dd = d[rows, part.ravel()]
                order2 = np.lexsort((part.ravel(), dd, rows))
                rows_pt.append(pend[rows[order2]])
                rows_poi.append(self.index["ids"][part.ravel()[order2]])
                rows_d.append(np.round(dd[order2], 3))
                pend = pend[:0]
        if rows_pt:
            pt = np.concatenate(rows_pt)
            poi = np.concatenate(rows_poi)
            dist = np.concatenate(rows_d)
        else:
            pt = np.empty(0, dtype=np.int64)
            poi = np.empty(0, dtype=np.int64)
            dist = np.empty(0)
        order = np.argsort(pt, kind="stable")
        out = batch.take(pa.array(pt[order]))
        out = out.append_column("poi_id", pa.array(poi[order], pa.int64()))
        out = out.append_column("distance_m",
                                pa.array(dist[order], pa.float64()))
        rank = np.zeros(len(order), dtype=np.int64)
        if len(order):
            pto = pt[order]
            new = np.flatnonzero(np.diff(pto, prepend=pto[0] - 1))
            rank = np.arange(len(pto)) - np.repeat(
                new, np.diff(np.append(new, len(pto))))
        return out.append_column("knn_rank", pa.array(rank + 1, pa.int64()))


def knn_join_batch(batch: pa.Table, *, index_ref, k: int = 1) -> pa.Table:
    return KnnJoiner(index_ref, k=k)(batch)


class RadiusJoiner(KnnJoiner):
    """Within-distance spatial join over the same broadcast point index:
    per batch ONE box-candidate pass with per-query covering boxes
    (degree radii over-cover the metric circle; ``_box_candidates`` is
    already vectorised over a per-query ``r`` array), then one exact
    haversine filter. Completes the spatial-join family next to the
    point-in-polygon and kNN joins — the "every POI within d metres of
    the page" product query."""

    def __init__(self, index_ref, radius_m: float = 200.0,
                 lon_col: str = "lon", lat_col: str = "lat"):
        self.index = ray.get(index_ref)
        self.radius_m = float(radius_m)
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        empty = batch.slice(0, 0) \
            .append_column("poi_id", pa.array([], pa.int64())) \
            .append_column("distance_m", pa.array([], pa.float64()))
        if n == 0 or len(self.index["ids"]) == 0:
            return empty
        px = np.asarray(batch[self.lon_col].to_numpy(
            zero_copy_only=False))
        py = np.asarray(batch[self.lat_col].to_numpy(
            zero_copy_only=False))
        # over-covering degree boxes: 110 km/deg under-states a degree
        # of latitude (>=110.57 km), so radius/110000 over-covers; the
        # longitude radius widens by the smallest cosine inside the box
        dlat = self.radius_m / 110_000.0
        cosb = np.cos(np.deg2rad(np.minimum(np.abs(py) + dlat, 89.9)))
        r = np.maximum(dlat, self.radius_m
                       / (110_000.0 * np.maximum(cosb, 1e-3)))
        # budget-chunk by ESTIMATED candidate volume (dense synthetic
        # worlds put 10^3-10^4 points in a 300 m box; one whole-batch
        # pair materialization OOMs a worker — the PIP chunking policy)
        est = self._box_counts(px, py, r)
        cum = np.cumsum(est)
        budget = 1 << 22
        parts_q, parts_i, parts_d = [], [], []
        s = 0
        while s < n:
            base = cum[s - 1] if s else 0
            e = int(np.searchsorted(cum, base + budget, side="left")) + 1
            e = max(e, s + 1)
            sl = slice(s, min(e, n))
            qi, ii = self._box_candidates(px[sl], py[sl], r[sl])
            if len(qi):
                d = ops.haversine_m(py[sl][qi], px[sl][qi],
                                    self.index["lat"][ii],
                                    self.index["lon"][ii])
                keep = d <= self.radius_m
                parts_q.append(qi[keep] + s)
                parts_i.append(ii[keep])
                parts_d.append(d[keep])
            s = sl.stop
        if not parts_q:
            return empty
        qi = np.concatenate(parts_q)
        ii = np.concatenate(parts_i)
        d = np.concatenate(parts_d)
        poi = self.index["ids"][ii]
        order = np.lexsort((poi, qi))
        out = batch.take(pa.array(qi[order]))
        out = out.append_column("poi_id", pa.array(poi[order], pa.int64()))
        return out.append_column(
            "distance_m", pa.array(np.round(d[order], 3), pa.float64()))


def radius_join_batch(batch: pa.Table, *, index_ref,
                      radius_m: float = 200.0) -> pa.Table:
    return RadiusJoiner(index_ref, radius_m=radius_m)(batch)


def radius_join(pages_ds, pois_ds=None, radius_m: float = 200.0,
                id_col: str = "id", batch_size: int = 32 * 1024,
                index_ref=None):
    """All (page, POI) pairs within ``radius_m`` metres — the broadcast
    route (index built/shared like :func:`knn_join`)."""
    if index_ref is None:
        index_ref = pack_point_index(pois_ds, id_col=id_col)
    return pages_ds.map_batches(
        functools.partial(radius_join_batch, index_ref=index_ref,
                          radius_m=radius_m),
        batch_format="pyarrow", batch_size=batch_size)


def knn_join(pages_ds, pois_ds=None, k: int = 1, id_col: str = "id",
             batch_size: int = 32 * 1024, concurrency=None,
             index_ref=None):
    if index_ref is None:
        index_ref = pack_point_index(pois_ds, id_col=id_col)
    return pages_ds.map_batches(
        functools.partial(knn_join_batch, index_ref=index_ref, k=k),
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# co-partitioned (shuffle) PIP join — the beyond-broadcast scale path
# ---------------------------------------------------------------------------

def _cover_counts(bx: dict, gres: int):
    """Per-polygon covering-cell ranges at grid res ``gres``:
    (cx0, cy0, ncx, ncell) over the bbox columns."""
    nx = np.int64(1) << gres
    cx0 = np.clip(np.floor((bx["x0"] + 180) / 360 * nx), 0,
                  nx - 1).astype(np.int64)
    cx1 = np.clip(np.floor((bx["x1"] + 180) / 360 * nx), 0,
                  nx - 1).astype(np.int64)
    cy0 = np.clip(np.floor((90 - bx["y1"]) / 180 * nx), 0,
                  nx - 1).astype(np.int64)
    cy1 = np.clip(np.floor((90 - bx["y0"]) / 180 * nx), 0,
                  nx - 1).astype(np.int64)
    ncx = cx1 - cx0 + 1
    return cx0, cy0, ncx, ncx * (cy1 - cy0 + 1)


def _choose_cover_res(bx: dict, ladder, max_cover: int) -> np.ndarray:
    """Finest ladder grid-res whose bbox cover stays <= ``max_cover``
    (coarsest level when even that is exceeded). ``ladder`` is sorted
    coarse -> fine; finer levels overwrite when they qualify."""
    chosen = np.full(len(bx["x0"]), ladder[0], np.int64)
    for g in ladder[1:]:
        _, _, _, ncell = _cover_counts(bx, g)
        chosen = np.where(ncell <= max_cover, np.int64(g), chosen)
    return chosen


_PIP_S1_EMPTY = pa.table({
    "url": pa.array([], pa.string()), "lon": pa.array([], pa.float64()),
    "lat": pa.array([], pa.float64()),
    "polygon_id": pa.array([], pa.int64()),
    "confirmed": pa.array([], pa.bool_())})
_PIP_HITS_EMPTY = pa.table({
    "url": pa.array([], pa.string()),
    "polygon_id": pa.array([], pa.int64())})


def _pip_cells_pairs(pg: pa.Table, po: pa.Table) -> pa.Table | None:
    """One cell partition's page rows and polygon cover-key rows ->
    bbox-pruned candidate (page, polygon) pairs, exact-confirmed
    in-kernel when the cover row carries inline geometry.

    Pages and cover keys arrive as the two sides of one fold on the
    cell; candidates are generated in here (page x cover keys sharing
    its exact cell id, which encodes the ladder level in its top bits,
    expanded in page chunks under :data:`_PAIR_BUDGET`) and pruned
    against the cover row's polygon bbox before anything leaves the
    kernel — no pair row ever crosses the network un-pruned.

    Cover rows whose ``coords`` column is non-null (small polygons whose
    packed geometry fit the inline-replication budget) are confirmed
    HERE with the same even-odd kernel stage 2 uses, and leave as
    ``confirmed=True`` hit rows — those polygons skip the second
    all-to-all entirely. Rows with null ``coords`` (large geometries,
    which must never replicate per covering cell) leave as
    ``confirmed=False`` candidate pairs for the stage-2 polygon-keyed
    confirm."""
    if pg.num_rows == 0 or po.num_rows == 0:
        return None
    lon_pg = np.asarray(pg["lon"].to_numpy(zero_copy_only=False))
    lat_pg = np.asarray(pg["lat"].to_numpy(zero_copy_only=False))
    bx = {c: np.asarray(po[c].to_numpy(zero_copy_only=False))
          for c in ("x0", "y0", "x1", "y1")}
    pgi_l, qi_l = [], []
    for _, _, pair_pg, pair_q in _cell_pairs(
            np.asarray(pg["cell"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(po["cell"].to_numpy(zero_copy_only=False), np.int64)):
        lon = lon_pg[pair_pg]
        lat = lat_pg[pair_pg]
        m = ((lon >= bx["x0"][pair_q]) & (lon <= bx["x1"][pair_q])
             & (lat >= bx["y0"][pair_q]) & (lat <= bx["y1"][pair_q]))
        pgi_l.append(pair_pg[m])
        qi_l.append(pair_q[m])
    pid = np.asarray(po["polygon_id"].to_numpy(zero_copy_only=False),
                     np.int64)
    pgi = np.concatenate(pgi_l)
    qi = np.concatenate(qi_l)
    plon = lon_pg[pgi]
    plat = lat_pg[pgi]
    inline = np.asarray(pc.is_valid(po["coords"])
                        .to_numpy(zero_copy_only=False))[qi]
    parts = []
    d = ~inline
    if d.any():
        parts.append(pa.table({
            "url": pc.take(pg["url"], pa.array(pgi[d], pa.int64())),
            "lon": pa.array(plon[d], pa.float64()),
            "lat": pa.array(plat[d], pa.float64()),
            "polygon_id": pa.array(pid[qi[d]], pa.int64()),
            "confirmed": pa.array(np.zeros(int(d.sum()), bool)),
        }))
    if inline.any():
        qs = qi[inline]
        uq, local = np.unique(qs, return_inverse=True)
        sub = po.select(["coords", "rlens"]).take(pa.array(uq, pa.int64()))
        cflat, _coff = _binary_csr(sub["coords"])
        rflat, roff = _binary_csr(sub["rlens"])
        coords = cflat.view("<f8").reshape(-1, 2)
        rlens = rflat.view("<i8")
        ring_offsets = np.zeros(len(rlens) + 1, dtype=np.int64)
        np.cumsum(rlens, out=ring_offsets[1:])
        poly_ring_offsets = (roff // 8).astype(np.int64)
        edges, peo = _build_edges(coords, ring_offsets, poly_ring_offsets)
        ilon = plon[inline]
        ilat = plat[inline]
        keep = _confirm_pip({"poly_edge_offsets": peo, "edges": edges},
                            np.arange(len(qs), dtype=np.int64), local,
                            ilon, ilat)
        parts.append(pa.table({
            "url": pc.take(pg["url"], pa.array(pgi[inline][keep],
                                               pa.int64())),
            "lon": pa.array(ilon[keep], pa.float64()),
            "lat": pa.array(ilat[keep], pa.float64()),
            "polygon_id": pa.array(pid[qs[keep]], pa.int64()),
            "confirmed": pa.array(np.ones(int(keep.sum()), bool)),
        }))
    return pa.concat_tables(parts) if parts else None


def _pip_confirm_group(pairs: pa.Table, geoms: pa.Table) -> pa.Table | None:
    """One polygon partition's candidate pairs and packed geometry rows
    (the two sides of one fold on ``polygon_id``) -> exact even-odd
    confirmed (url, polygon_id) hits.

    The partition's polygons are unpacked ONCE (zero-copy CSR over the
    packed coord/ring-length buffers, one flat edge build) and every
    pair confirms against that working set — the geometry bytes arrived
    once per polygon, not once per pair."""
    if pairs.num_rows == 0 or geoms.num_rows == 0:
        return None
    gpid = np.asarray(geoms["polygon_id"].to_numpy(zero_copy_only=False),
                      np.int64)
    gord = np.argsort(gpid, kind="stable")
    sub = geoms.select(["coords", "rlens"]).take(pa.array(gord))
    cflat, _coff = _binary_csr(sub["coords"])
    rflat, roff = _binary_csr(sub["rlens"])
    coords = cflat.view("<f8").reshape(-1, 2)
    rlens = rflat.view("<i8")
    ring_offsets = np.zeros(len(rlens) + 1, dtype=np.int64)
    np.cumsum(rlens, out=ring_offsets[1:])
    poly_ring_offsets = (roff // 8).astype(np.int64)
    edges, peo = _build_edges(coords, ring_offsets, poly_ring_offsets)
    pair_pid = np.asarray(pairs["polygon_id"].to_numpy(zero_copy_only=False),
                          np.int64)
    px = np.asarray(pairs["lon"].to_numpy(zero_copy_only=False))
    py = np.asarray(pairs["lat"].to_numpy(zero_copy_only=False))
    local = np.searchsorted(gpid[gord], pair_pid)
    keep = _confirm_pip({"poly_edge_offsets": peo, "edges": edges},
                        np.arange(len(pairs), dtype=np.int64), local,
                        px, py)
    kept = pairs.filter(pa.array(keep))
    return pa.table({"url": kept["url"], "polygon_id": kept["polygon_id"]})


def pip_join_partitioned(pages_ds, polygons_ds, cell_res: int = 7,
                         num_partitions: int = 32, layer: str | None = None,
                         id_col: str = "id", max_cover: int = 64,
                         join_payload: bool = True,
                         geom_inline_budget: int = 16384):
    """Cell-co-partitioned PIP join (the beyond-broadcast scale path).

    Adaptive-resolution cell keys: each polygon emits (polygon_id, cell,
    bbox) KEY rows at the FINEST ladder level (``cell_res``,
    ``cell_res+2``, ``cell_res+4`` in H3-equivalent terms) where its bbox
    covers <= ``max_cover`` cells. Tiny polygons (buildings) land in fine
    cells — a single coarse resolution pairs every page with every
    polygon of a km-wide cell, which at sf0.1 exploded the candidate
    set to 10.3 M rows (304 s); admin-sized polygons stay coarse with a
    bounded cover. The cell id encodes its res in the top 6 bits
    (``tiles/grid.py``), so ONE key space serves all levels; pages emit a
    key row per level the polygon side actually uses (a buildings-only
    layer uses one level — no page-side amplification).

    Both wide steps are two-sided :func:`~pyrosm_ray.stages.blocks.fold`
    co-partitionings, NOT hash joins: stage 1 folds page rows with
    (cover-key + bbox) rows on the cell and generates + bbox-prunes
    candidate pairs inside the kernel; stage 2 folds the pruned pairs
    with ONE compact packed-geometry row per polygon on the polygon id
    and runs the exact even-odd confirm against a per-partition edge
    build. The cover factor multiplies only 48-byte key rows; geometry
    bytes cross the wire once per polygon and are never materialized
    per pair (the join-based form produced a 5.6 GB
    geometry-replicated join output at sf3). Only the
    (url, lon, lat, cell) projection ever shuffles — the full page
    payload (html/text) re-joins by url afterwards (SURVEY.md §7.4
    wide-binary-rows note), skippable via ``join_payload=False`` for
    aggregate-only consumers.

    Adaptive single-shuffle fast path: a polygon whose packed geometry
    x covering-cell count fits ``geom_inline_budget`` bytes ships the
    geometry ON its cover rows, and stage 1 confirms its pairs exactly
    in-kernel (``confirmed=True`` hits) — for building-scale layers
    (~100 B packed, 1-4 cells) the ENTIRE second all-to-all disappears
    (at sf3: 31 M pair+geom rows, the single largest shuffle of the
    bench, drop to zero). Large geometries stay on the two-shuffle
    key-row path, preserving the never-replicate-big-blobs contract;
    stage 2 runs only when deferred pairs exist and carries only the
    non-inline polygons' geometry.
    """
    ladder = sorted({grid.h3_equiv_res(cell_res + 2 * k) for k in range(3)})

    # distributed WKB decode into the compact packed form (bbox + coord
    # buffer + ring lengths) — consumed twice: cover keys and geometry
    packed = unreserved(polygons_ds.map_batches(
        lambda b: _pack_polygon_batch(b, id_col),
        batch_format="pyarrow").materialize())

    def inline_mask(batch: pa.Table, chosen: np.ndarray) -> np.ndarray:
        """Which polygons ship their packed geometry ON the cover rows:
        total replicated bytes (geom size x covering cells at the chosen
        level) must fit ``geom_inline_budget``. Small geometries
        (buildings: ~100 B packed, 1-4 cover cells) confirm inside the
        stage-1 kernel and skip the second all-to-all entirely; large
        geometries (admin boundaries: KBs-MBs) keep the de-blobbed
        key-row + pair path so they never replicate per covering cell."""
        gbytes = (np.asarray(pc.binary_length(pc.cast(
            batch["coords"], pa.large_binary())).to_numpy(
                zero_copy_only=False), np.int64)
            + np.asarray(pc.binary_length(pc.cast(
                batch["rlens"], pa.large_binary())).to_numpy(
                    zero_copy_only=False), np.int64))
        bx = {c: np.asarray(batch[c].to_numpy(zero_copy_only=False))
              for c in ("x0", "y0", "x1", "y1")}
        ncell = np.ones(len(gbytes), np.int64)
        for g in np.unique(chosen):
            m = chosen == g
            sub = {c: bx[c][m] for c in bx}
            _, _, _, nc = _cover_counts(sub, int(g))
            ncell[m] = nc
        return gbytes * ncell <= geom_inline_budget

    def level_rows(batch: pa.Table) -> pa.Table:
        """Per-batch unique chosen levels."""
        if batch.num_rows == 0:
            return pa.table({"gres": pa.array([], pa.int64())})
        bx = {c: np.asarray(batch[c].to_numpy(zero_copy_only=False))
              for c in ("x0", "y0", "x1", "y1")}
        return pa.table({"gres": pa.array(
            np.unique(_choose_cover_res(bx, ladder, max_cover)), pa.int64())})

    used = sorted({r["gres"] for r in packed.map_batches(
        level_rows, batch_format="pyarrow").take_all()})
    lay = layer or "polygons"
    layer_empty = _PIP_HITS_EMPTY.append_column(
        "polygon_layer", pa.array([], pa.string()))
    if not used:  # no polygons -> empty join, pages schema preserved
        hits = unreserved(rd.from_arrow(layer_empty))
        if not join_payload:
            return hits
        return _join_payload(pages_ds, hits, layer_empty, num_partitions)

    def cover_rows(batch: pa.Table) -> pa.Table:
        """(polygon_id, cell, bbox[, inline geometry]) rows at each
        polygon's chosen level. Key rows stay 48 B for large geometries
        (round-3 verdict item: the geometry payload must not replicate
        per covering cell); small geometries within the inline budget
        ride along so stage 1 can confirm them exactly in-kernel.
        Vectorised cover enumeration, same shape as _build_cell_bins."""
        empty = pa.table({"polygon_id": pa.array([], pa.int64()),
                          "cell": pa.array([], pa.int64()),
                          "x0": pa.array([], pa.float64()),
                          "y0": pa.array([], pa.float64()),
                          "x1": pa.array([], pa.float64()),
                          "y1": pa.array([], pa.float64()),
                          "coords": pa.array([], pa.binary()),
                          "rlens": pa.array([], pa.binary())})
        if batch.num_rows == 0:
            return empty
        pid = np.asarray(batch["pid"].to_numpy(zero_copy_only=False),
                         np.int64)
        bx = {c: np.asarray(batch[c].to_numpy(zero_copy_only=False))
              for c in ("x0", "y0", "x1", "y1")}
        chosen = _choose_cover_res(bx, ladder, max_cover)
        inl = inline_mask(batch, chosen)
        parts = []
        for g in np.unique(chosen):
            m = chosen == g
            sub = {c: bx[c][m] for c in bx}
            cx0, cy0, ncx, ncell = _cover_counts(sub, int(g))
            local = _concat_ranges(np.zeros(int(m.sum()), np.int64), ncell)
            nx_rep = np.repeat(ncx, ncell)
            key = (np.int64(g) << 58) \
                | ((np.repeat(cx0, ncell) + local % nx_rep) << 29) \
                | (np.repeat(cy0, ncell) + local // nx_rep)
            rows = np.repeat(np.flatnonzero(m), ncell)
            row_inl = np.repeat(inl[m], ncell)
            geo = batch.select(["coords", "rlens"]).take(
                pa.array(rows, pa.int64()))
            coords_col = pc.if_else(pa.array(row_inl), geo["coords"],
                                    pa.nulls(len(rows), pa.binary()))
            rlens_col = pc.if_else(pa.array(row_inl), geo["rlens"],
                                   pa.nulls(len(rows), pa.binary()))
            parts.append(pa.table({
                "polygon_id": pa.array(np.repeat(pid[m], ncell), pa.int64()),
                "cell": pa.array(key, pa.int64()),
                "x0": pa.array(np.repeat(sub["x0"], ncell)),
                "y0": pa.array(np.repeat(sub["y0"], ncell)),
                "x1": pa.array(np.repeat(sub["x1"], ncell)),
                "y1": pa.array(np.repeat(sub["y1"], ncell)),
                "coords": coords_col,
                "rlens": rlens_col,
            }))
        return pa.concat_tables(parts) if parts else empty

    # co-partitioning, stage 1: page rows keyed by their own cell at
    # each used ladder level and polygon (cover-key + bbox) rows are the
    # two sides of ONE fold on the cell, and candidate (page, polygon)
    # pairs are generated AND bbox-pruned inside the partition kernel.
    # The previous hash-JOIN form shuffled the same inputs but then
    # materialized every joined candidate row as join output and pushed
    # it through a SECOND full join against the geometry (measured
    # sf3/8cpu: cell join + prune 402 s, geometry join 219 s with a
    # 5.6 GB geometry-per-pair output, exact confirm 747 CPU-s).
    # Cluster-sized, not data-sized: the in-kernel PIP confirm is
    # compute-heavy.
    nb = groupby_partitions()

    def page_rows(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"].to_numpy(zero_copy_only=False))
        lat = np.asarray(batch["lat"].to_numpy(zero_copy_only=False))
        return pa.concat_tables([pa.table({
            "url": batch["url"], "lon": batch["lon"], "lat": batch["lat"],
            "cell": pa.array(grid.cell_id(lon, lat, g), pa.int64()),
        }) for g in used])

    pg = geocode_pages(pages_ds.select_columns(["url"]))
    s1 = fold((pg.map_batches(page_rows, batch_format="pyarrow"),
               packed.map_batches(cover_rows, batch_format="pyarrow")),
              "cell", _pip_cells_pairs, nb, _PIP_S1_EMPTY)
    # split confirmed hits from deferred big-geometry pairs
    hits1 = s1.map_batches(
        lambda b: b.filter(b["confirmed"]).select(["url", "polygon_id"]),
        batch_format="pyarrow")
    deferred = unreserved(s1.map_batches(
        lambda b: b.filter(pc.invert(b["confirmed"]))
                   .drop_columns(["confirmed"]),
        batch_format="pyarrow").materialize())

    # stage 2 (large geometries only): the pairs and ONE compact
    # packed-geometry row per polygon are the two sides of one fold on
    # the polygon id — geometry crosses the wire once per polygon and is
    # unpacked once per partition, never replicated per pair
    def big_geom_rows(b: pa.Table) -> pa.Table:
        """ONE geometry row per NON-inline polygon (the inline ones were
        fully confirmed in stage 1 and never reach stage 2)."""
        if b.num_rows:
            bx = {c: np.asarray(b[c].to_numpy(zero_copy_only=False))
                  for c in ("x0", "y0", "x1", "y1")}
            chosen = _choose_cover_res(bx, ladder, max_cover)
            b = b.filter(pa.array(~inline_mask(b, chosen)))
        return pa.table({"polygon_id": b["pid"], "coords": b["coords"],
                         "rlens": b["rlens"]})

    if deferred.count() == 0:
        hits = hits1
    else:
        hits2 = fold((deferred, packed.map_batches(
            big_geom_rows, batch_format="pyarrow")), "polygon_id",
            _pip_confirm_group, nb, _PIP_HITS_EMPTY)
        hits = hits1.union(hits2)
    hits = hits.map_batches(
        lambda b: b.append_column("polygon_layer",
                                  pa.array([lay] * len(b), pa.string())),
        batch_format="pyarrow")
    if not join_payload:
        # hit rows only (url, polygon_id, polygon_layer): the wide page
        # payload replicates once per containing polygon in the joined
        # output, so callers that aggregate/count hits skip that
        # output-materialization cost entirely
        return hits
    # re-attach the full payload by url (payload bytes never shuffled by cell)
    return _join_payload(pages_ds, hits, layer_empty, num_partitions)


def _join_payload(pages_ds, hits, hits_empty: pa.Table,
                  num_partitions: int):
    """Inner-join the full page rows onto hit rows by url (page columns
    first, then the hit columns; ``hits_empty`` types the hit side)."""
    empty = pages_ds.schema().base_schema.empty_table().join(
        hits_empty, "url")
    return co_join(pages_ds, hits, "url", num_partitions, empty)


# ---------------------------------------------------------------------------
# co-partitioned (shuffle) kNN join — the beyond-broadcast scale path
# ---------------------------------------------------------------------------

_DEG_M_CONSERVATIVE = 110_000.0  # < min meters/degree — safe-radius bound

_KNN_RANKED_EMPTY = pa.table({
    "url": pa.array([], pa.string()), "lon": pa.array([], pa.float64()),
    "lat": pa.array([], pa.float64()), "poi_id": pa.array([], pa.int64()),
    "distance_m": pa.array([], pa.float64()),
    "knn_rank": pa.array([], pa.int64())})
_KNN_HITS_EMPTY = _KNN_RANKED_EMPTY.drop_columns(["lon", "lat"])



def _poi_ring_rows(batch: pa.Table, gres: int, radius: int) -> pa.Table:
    """Replicate each POI row to every cell within Chebyshev ``radius``
    of its own cell — the POI side is the SMALL side of the web-scale
    join, so it is the one that amplifies (pages shuffle exactly once
    per round, keyed by their own cell)."""
    n = len(batch)
    lo = np.asarray(batch["plon"].to_numpy(zero_copy_only=False))
    la = np.asarray(batch["plat"].to_numpy(zero_copy_only=False))
    ids = np.asarray(batch["poi_id"].to_numpy(zero_copy_only=False),
                     np.int64)
    nx = np.int64(1) << gres
    cx = np.clip(np.floor((lo + 180.0) / 360.0 * nx), 0,
                 nx - 1).astype(np.int64)
    cy = np.clip(np.floor((90.0 - la) / 180.0 * nx), 0,
                 nx - 1).astype(np.int64)
    side = 2 * radius + 1
    reps = side * side
    rows = np.repeat(np.arange(n, dtype=np.int64), reps)
    local = np.tile(np.arange(reps, dtype=np.int64), n)
    ox = local % side - radius
    oy = local // side - radius
    # longitude WRAPS mod nx (the ring crosses the antimeridian, as the
    # done test assumes), latitude clips (no wrap past the poles)
    ncx = (cx[rows] + ox) % nx
    ncy = cy[rows] + oy
    ok = (ncy >= 0) & (ncy < nx)
    rows, ncx, ncy = rows[ok], ncx[ok], ncy[ok]
    cell = (np.int64(gres) << 58) | (ncx << 29) | ncy
    return pa.table({
        "poi_id": pa.array(ids[rows], pa.int64()),
        "plon": pa.array(lo[rows], pa.float64()),
        "plat": pa.array(la[rows], pa.float64()),
        "cell": pa.array(cell, pa.int64()),
    })


def _knn_cells_topk(pg: pa.Table, po: pa.Table, k: int, gres: int,
                    radius: int) -> pa.Table | None:
    """One cell partition's page rows and ring-replicated POI rows (the
    two sides of one fold on the cell) -> per page its final top-k
    (done) or one undone marker (knn_rank 0).

    Candidate pairs are GENERATED in here, in page chunks under
    :data:`_PAIR_BUDGET` — pages cross the POIs replicated into their
    own cell, which is exactly the Chebyshev-ring candidate set — so
    the pair rows never shuffle (the old join-then-rebucket form moved
    every candidate through TWO all-to-alls). Done test: a page is final
    when its kth distance fits inside the conservative inscribed radius
    of the ring-``radius`` cell block around its own cell (a POI outside
    the block could otherwise be closer), mirroring the broadcast
    KnnJoiner."""
    if pg.num_rows == 0:
        return None
    urls = np.asarray(pg["url"].to_numpy(zero_copy_only=False),
                      dtype=object)
    lon = np.asarray(pg["lon"].to_numpy(zero_copy_only=False), np.float64)
    lat = np.asarray(pg["lat"].to_numpy(zero_copy_only=False), np.float64)
    pcell = np.asarray(pg["cell"].to_numpy(zero_copy_only=False), np.int64)
    qcell, qid, qlon, qlat = (
        np.asarray(po[c].to_numpy(zero_copy_only=False), t) if po.num_rows
        else np.empty(0, t) for c, t in (("cell", np.int64),
                                         ("poi_id", np.int64),
                                         ("plon", np.float64),
                                         ("plat", np.float64)))
    # conservative distance from the page to the edge of the covered block
    mask29 = (np.int64(1) << 29) - 1
    nx = np.int64(1) << gres
    cw_lon = 360.0 / float(nx)
    cw_lat = 180.0 / float(nx)
    cx = (pcell >> 29) & mask29
    cy = pcell & mask29
    lon0 = -180.0 + (cx - radius) * cw_lon
    lon1 = -180.0 + (cx + radius + 1) * cw_lon
    lat1 = 90.0 - (cy - radius) * cw_lat
    lat0 = 90.0 - (cy + radius + 1) * cw_lat
    dlat = np.minimum(lat - lat0, lat1 - lat)
    dlon = np.minimum(lon - lon0, lon1 - lon)
    coslat = np.cos(np.deg2rad(np.maximum(np.abs(lat0), np.abs(lat1))))
    safe_m = _DEG_M_CONSERVATIVE * np.minimum(dlat, dlon * coslat)
    pu = ops.unit_vecs(lat, lon)
    qu = ops.unit_vecs(qlat, qlon)

    def chunk(s: int, e: int, pair_pg, pair_q) -> pa.Table:
        npg = e - s
        cnt = np.bincount(pair_pg - s, minlength=npg)
        # rank candidates by unit-vector dot product — trig per ROW,
        # pure multiply-add per PAIR; the dense per-pair trig matrix is
        # the FLOP wall of this kernel. Exact haversine runs only on the
        # top-(k+4) selection per page (the margin absorbs float
        # near-ties, so the final (distance, poi_id) order is identical
        # to full evaluation).
        negdot = -np.einsum("ij,ij->i", pu[pair_pg], qu[pair_q])
        order = np.lexsort((qid[pair_q], negdot, pair_pg))
        grp_full = np.zeros(npg + 1, np.int64)
        np.cumsum(cnt, out=grp_full[1:])
        msel = np.minimum(cnt, k + 4)
        sel = _concat_ranges(grp_full[:-1], msel)
        sp = pair_pg[order][sel]
        sq = pair_q[order][sel]
        d_sel = ops.haversine_m(lat[sp], lon[sp], qlat[sq], qlon[sq])
        order2 = np.lexsort((qid[sq], d_sel, sp))
        d_s = d_sel[order2]
        q_s = sq[order2]
        grp_start = np.zeros(npg + 1, np.int64)
        np.cumsum(msel, out=grp_start[1:])
        has = cnt > 0
        kth_idx = np.minimum(grp_start[:-1] + k - 1,
                             np.maximum(grp_start[1:] - 1, 0))
        kth_d = np.full(npg, np.inf)
        kth_d[has] = d_s[kth_idx[has]]
        done_pg = (cnt >= k) & (kth_d <= safe_m[s:e])
        rank = np.arange(len(d_s), dtype=np.int64) \
            - np.repeat(grp_start[:-1], msel)
        take = np.repeat(done_pg, msel) & (rank < k)
        undone = np.flatnonzero(~done_pg) + s
        n_un = len(undone)
        pair_pg_s = sp[order2][take]
        return pa.table({
            "url": pa.array(list(np.concatenate([
                urls[pair_pg_s], urls[undone]])), pa.string()),
            "lon": pa.array(np.concatenate([lon[pair_pg_s], lon[undone]]),
                            pa.float64()),
            "lat": pa.array(np.concatenate([lat[pair_pg_s], lat[undone]]),
                            pa.float64()),
            "poi_id": pa.concat_arrays([
                pa.array(qid[q_s[take]], pa.int64()),
                pa.nulls(n_un, pa.int64())]),
            "distance_m": pa.concat_arrays([
                pa.array(np.round(d_s[take], 3), pa.float64()),
                pa.nulls(n_un, pa.float64())]),
            "knn_rank": pa.array(np.concatenate([
                rank[take] + 1, np.zeros(n_un, np.int64)]), pa.int64()),
        })

    return pa.concat_tables([chunk(*c) for c in _cell_pairs(pcell, qcell)])


# one shuffle round is worth it only while unresolved x POIs exceeds what
# the broadcast exact sweep grinds through in a couple of seconds
_KNN_SWEEP_MAX_PAIRS = 1 << 28


def knn_join_partitioned(pages_ds, pois_ds, k: int = 1,
                         cell_res: int | None = None,
                         num_partitions: int = 32, id_col: str = "id",
                         max_rounds: int = 3,
                         sweep_max_pairs: int = _KNN_SWEEP_MAX_PAIRS,
                         join_payload: bool = True):
    """Cell-co-partitioned kNN join — the path for a POI side that outgrows
    the object-store broadcast contract (mirror of
    :func:`pip_join_partitioned`).

    Each round is ONE co-partitioning shuffle: pages keyed by their own
    grid cell and POI rows replicated to the 3x3 Chebyshev ring around
    their cell (longitude wrapping at the antimeridian) are the two
    sides of one fold on the cell — candidate pairs are generated inside
    the partition kernel, so no pair row ever crosses the network. A
    page is DONE when its kth distance fits inside the conservative
    inscribed radius of the covered block. Later rounds keep
    the ring at 3x3 but COARSEN the grid (cell side x4 per round): POI
    replication stays a constant 9x of the (narrow, repartitioned) coord
    table per round, instead of the (2R+1)^2 blow-up a growing radius
    would cost — candidate count per surviving page grows ~16x per round,
    but that is vectorised multiply-add inside the kernel, not shuffle
    bytes. Stragglers after ``max_rounds`` (or as soon as
    unresolved x POIs fits ``sweep_max_pairs``) run one exact sweep of
    the POI table against the (tiny, broadcast) leftover page set. Only
    the (url, lon, lat) projection ever shuffles; the full page payload
    re-joins by url at the end.

    ``cell_res=None`` (the default) sizes the grid from the POI side's
    own count and extent — cells chosen so a cell holds ~max(0.5, k/4)
    POIs. A fixed coarse res over a dense POI set multiplies the round-1
    left join by POIs-per-cell x 9 ring cells (measured at sf0.1:
    res-7-equivalent cells held ~40 POIs -> a 72 M-row join, 469 s;
    auto-res -> ~1.8 M rows). Pass an explicit ``cell_res`` (H3-ish
    resolution) to pin the grid, e.g. for parity tests."""
    import ray
    import ray.data as rd

    def poi_coords(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        if "lon" in batch.column_names and not \
                pc.any(pc.is_null(batch["lon"])).as_py():
            lo = np.asarray(batch["lon"].to_numpy(zero_copy_only=False),
                            dtype=np.float64)
            la = np.asarray(batch["lat"].to_numpy(zero_copy_only=False),
                            dtype=np.float64)
        else:  # same fallback as _pack_point_batch: decode geometry
            pts = np.array([wkb.decode_wkb(g)[1]
                            for g in batch["geometry"].to_pylist()])
            lo, la = (pts[:, 0], pts[:, 1]) if len(pts) else \
                (np.empty(0), np.empty(0))
        return pa.table({
            "poi_id": pa.array(ids, pa.int64()),
            "plon": pa.array(lo, pa.float64()),
            "plat": pa.array(la, pa.float64()),
        })

    # narrow (24 B/row) coord table first: the density stats and the cell
    # keying both read it, so the WKB decode runs once. Repartition to the
    # worker count — the upstream layer Dataset often materializes into a
    # handful of blocks, which would serialize the 9x ring replication
    # into one task per round
    n_cpus = max(4, int(ray.cluster_resources().get("CPU", 8)))
    base = unreserved(pois_ds.map_batches(poi_coords, batch_format="pyarrow")
                      .repartition(n_cpus).materialize())
    if cell_res is None:
        def stats(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table({c: pa.array([], pa.float64())
                                 for c in ("n", "x0", "y0", "x1", "y1")})
            lo = np.asarray(b["plon"].to_numpy(zero_copy_only=False))
            la = np.asarray(b["plat"].to_numpy(zero_copy_only=False))
            return pa.table({"n": pa.array([float(b.num_rows)]),
                             "x0": pa.array([lo.min()]),
                             "y0": pa.array([la.min()]),
                             "x1": pa.array([lo.max()]),
                             "y1": pa.array([la.max()])})
        st = base.map_batches(stats, batch_format="pyarrow").to_pandas()
        n_pois = float(st["n"].sum()) if len(st) else 0.0
        if n_pois == 0:
            gres = grid.h3_equiv_res(7)
        else:
            spanx = max(float(st["x1"].max() - st["x0"].min()), 1e-6)
            spany = max(float(st["y1"].max() - st["y0"].min()), 1e-6)
            cells = max(64.0, n_pois / max(0.5, k / 4.0))
            gres = int(np.clip(round(0.5 * np.log2(
                cells * 360.0 * 180.0 / (spanx * spany))), 6, grid.MAX_RES))
    else:
        gres = grid.h3_equiv_res(cell_res)
    n_pois = int(base.count())
    pages_t = pages_ds if "lon" in pages_ds.schema().names else \
        geocode_pages(pages_ds.select_columns(["url"]))
    unresolved = pages_t.select_columns(["url", "lon", "lat"])
    # round-0 count from read metadata; later rounds count the
    # materialized undone set
    n_unres = int(pages_ds.count())
    nb = groupby_partitions()

    def page_cell_rows(batch: pa.Table, g: int) -> pa.Table:
        lo = np.asarray(batch["lon"].to_numpy(zero_copy_only=False))
        la = np.asarray(batch["lat"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "cell", pa.array(grid.cell_id(lo, la, g), pa.int64()))

    done_parts = []
    radius = 1
    round_gres = gres
    for _ in range(max_rounds):
        if n_unres * n_pois <= sweep_max_pairs:
            break  # broadcast exact sweep beats another shuffle round
        # page rows keyed by their OWN cell and POI rows replicated to
        # ring cells are the two sides of ONE fold on the cell, and the
        # candidate pairs are generated inside the partition — the old
        # explode-pages + left-join + rebucket form pushed every
        # candidate row through two all-to-alls (11.4 s of a 35 s sf0.1
        # wall in the round-0 join alone). The round's output is refs
        # already: done and undone are two filters over it, with no
        # re-execution of the fold
        ranked = fold((
            unresolved.map_batches(functools.partial(
                page_cell_rows, g=round_gres), batch_format="pyarrow"),
            base.map_batches(functools.partial(
                _poi_ring_rows, gres=round_gres, radius=radius),
                batch_format="pyarrow")), "cell", functools.partial(
            _knn_cells_topk, k=k, gres=round_gres, radius=radius),
            nb, _KNN_RANKED_EMPTY)
        done = ranked.filter(expr="knn_rank > 0")
        undone = ranked.filter(expr="knn_rank == 0") \
            .select_columns(["url", "lon", "lat"])
        done_parts.append(
            unreserved(done.select_columns(["url", "poi_id", "distance_m",
                                            "knn_rank"]).materialize()))
        unresolved = unreserved(undone.materialize())
        n_unres = int(unresolved.count())
        if n_unres == 0:
            break
        # next round: same 3x3 ring over 4x-wider cells — constant 9x POI
        # replication per round; a growing Chebyshev radius instead costs
        # (2R+1)^2 x the POI table (361x by round 3)
        round_gres = max(round_gres - 2, 3)
    leftover = unresolved.to_pandas() if unresolved.count() else None
    if leftover is not None and len(leftover):
        # exact sweep: broadcast the leftover pages, partial top-k per POI
        # batch, tiny driver merge (pages here are the hard tail — pages
        # whose kth neighbour is far — typically a vanishing fraction)
        pages_ref = ray.put((leftover["url"].to_numpy(dtype=object),
                             leftover["lon"].to_numpy(),
                             leftover["lat"].to_numpy(),
                             ops.unit_vecs(leftover["lat"].to_numpy(),
                                           leftover["lon"].to_numpy())))

        def partial_topk(batch: pa.Table) -> pa.Table:
            # select by unit-vector dot (BLAS matmul — trig per point,
            # not per pair), exact haversine only on the k+4 picks per
            # page; the margin preserves exact (distance, poi_id) order
            urls, lo, la, pu = ray.get(pages_ref)
            pids = np.asarray(batch["poi_id"].to_numpy(
                zero_copy_only=False), dtype=np.int64)
            qla = np.asarray(batch["plat"].to_numpy(zero_copy_only=False))
            qlo = np.asarray(batch["plon"].to_numpy(zero_copy_only=False))
            negdot = -(pu @ ops.unit_vecs(qla, qlo).T)
            kk = min(k + 4, negdot.shape[1])
            part = np.argpartition(negdot, kk - 1, axis=1)[:, :kk]
            rows = np.repeat(np.arange(len(urls)), kk)
            cols_ = part.ravel()
            d_sel = ops.haversine_m(la[rows], lo[rows],
                                    qla[cols_], qlo[cols_])
            return pa.table({
                "url": pa.array(list(urls[rows]), pa.string()),
                "poi_id": pa.array(pids[cols_], pa.int64()),
                "distance_m": pa.array(d_sel, pa.float64()),
            })

        part_df = base.map_batches(partial_topk,
                                   batch_format="pyarrow").to_pandas()
        part_df = part_df.sort_values(["url", "distance_m", "poi_id"])
        part_df["knn_rank"] = part_df.groupby("url").cumcount() + 1
        part_df = part_df[part_df.knn_rank <= k]
        part_df["distance_m"] = part_df["distance_m"].round(3)
        done_parts.append(unreserved(rd.from_pandas(
            part_df.reset_index(drop=True))))
    if not done_parts:  # zero input pages: loop and sweep both skipped
        done_parts = [unreserved(rd.from_arrow(_KNN_HITS_EMPTY))]
    hits = done_parts[0]
    for d_ in done_parts[1:]:
        hits = hits.union(d_)
    if not join_payload:
        # hit rows only (url, poi_id, distance_m, knn_rank) — k wide page
        # payload copies per page otherwise materialize in the output
        return hits
    return _join_payload(pages_ds, hits, _KNN_HITS_EMPTY, num_partitions)


def radius_join_partitioned(pages_ds, pois_ds, radius_m: float = 200.0,
                            id_col: str = "id",
                            num_partitions: int = 32,
                            url_col: str = "url"):
    """Cell-co-partitioned radius join — the beyond-broadcast route for
    a POI side that outgrows the object store (mirror of
    :func:`knn_join_partitioned`, but ONE round suffices: the radius is
    fixed, so choosing the grid cell side >= the covering radius makes
    the 3x3 Chebyshev ring COMPLETE by construction — every point
    within ``radius_m`` of a page lies in the ring of the page's own
    cell).

    One co-partitioning shuffle: pages keyed by their own cell and POI
    coordinate rows replicated to their 3x3 ring (a constant 9x of the
    narrow (id, lon, lat) projection — never the payload) are the two
    sides of one fold on the cell; the exact haversine filter runs
    inside the partition kernel, in page chunks under
    :data:`_PAIR_BUDGET`, so no candidate pair ever crosses the
    network. Exact —
    output-identical to the broadcast :func:`radius_join`
    (parity-tested).
    """
    # grid: cell side >= covering radius at the worst latitude present.
    # One tiny stats pass over the POI coordinates bounds |lat|.
    def lat_stat(b: pa.Table) -> pa.Table:
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
        m = float(np.max(np.abs(lat))) if len(lat) else 0.0
        return pa.table({"m": pa.array([m], pa.float64())})

    pois_nar = unreserved(pois_ds.map_batches(
        lambda b: pa.table({
            id_col: b[id_col], "lon": b["lon"], "lat": b["lat"]}),
        batch_format="pyarrow").materialize())
    stats = pois_nar.map_batches(lat_stat,
                                 batch_format="pyarrow").to_pandas()
    maxlat = min(float(stats["m"].max()) if len(stats) else 0.0, 89.0)
    dlat = radius_m / 110_000.0
    dlon = radius_m / (110_000.0 * max(
        np.cos(np.deg2rad(min(maxlat + dlat, 89.9))), 1e-3))
    r_deg = max(dlat, dlon)
    # lat cell side = 180/nx degrees; require >= r_deg (lon side is
    # 360/nx >= 2*r_deg automatically)
    res = int(np.clip(np.floor(np.log2(180.0 / r_deg)), 2, 20))
    nx = np.int64(1) << res
    if 180.0 / float(nx) < r_deg:
        # res floor-clamped to 2 (cell side 45 deg) but the covering radius
        # is wider — the 3x3 ring would be INCOMPLETE and silently miss
        # pairs. A >~5,000 km radius belongs on the broadcast route.
        raise ValueError(
            f"radius_m={radius_m} needs a covering radius of {r_deg:.1f} deg "
            "per cell, wider than the coarsest grid cell (45 deg); the 3x3 "
            "ring cannot cover it. Use radius_join (broadcast route).")
    nb = num_partitions or groupby_partitions()

    def page_rows(b: pa.Table) -> pa.Table:
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False))
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
        return pa.table({
            "cell": pa.array(_point_cell_keys(lon, lat, res), pa.int64()),
            url_col: b[url_col], "plon": pa.array(lon),
            "plat": pa.array(lat)})

    def poi_rows(b: pa.Table) -> pa.Table:
        lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False))
        lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
        ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        cx = np.clip(np.floor((lon + 180) / 360 * nx), 0,
                     nx - 1).astype(np.int64)
        cy = np.clip(np.floor((90 - lat) / 180 * nx), 0,
                     nx - 1).astype(np.int64)
        # replicate to the 3x3 ring: longitude WRAPS mod nx (antimeridian
        # pairs stay joinable — the exact haversine in the kernel is
        # seam-safe), latitude clips (no wrap past the poles)
        reps = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                gx = (cx + dx) % nx
                gy = cy + dy
                ok = (gy >= 0) & (gy < nx)
                reps.append(((gx[ok] << 29) | gy[ok], ids[ok], lon[ok],
                             lat[ok]))
        return pa.table({
            "cell": pa.array(np.concatenate([r[0] for r in reps]),
                             pa.int64()),
            "pid": pa.array(np.concatenate([r[1] for r in reps]),
                            pa.int64()),
            "plon": pa.array(np.concatenate([r[2] for r in reps])),
            "plat": pa.array(np.concatenate([r[3] for r in reps])),
        })

    empty = pa.table({url_col: pa.array([], pa.string()),
                      "poi_id": pa.array([], pa.int64()),
                      "distance_m": pa.array([], pa.float64())})

    def kernel(pages: pa.Table, pois: pa.Table) -> pa.Table | None:
        if not pages.num_rows or not pois.num_rows:
            return None
        lon, lat, plon, plat = (
            np.asarray(t[c].to_numpy(zero_copy_only=False))
            for t, c in ((pages, "plon"), (pages, "plat"), (pois, "plon"),
                         (pois, "plat")))
        pg_l, oi_l, d_l = [], [], []
        for _, _, pg, oi in _cell_pairs(
                np.asarray(pages["cell"].to_numpy(zero_copy_only=False),
                           np.int64),
                np.asarray(pois["cell"].to_numpy(zero_copy_only=False),
                           np.int64)):
            d = ops.haversine_m(lat[pg], lon[pg], plat[oi], plon[oi])
            keep = d <= radius_m
            pg_l.append(pg[keep])
            oi_l.append(oi[keep])
            d_l.append(d[keep])
        pg = np.concatenate(pg_l)
        if not len(pg):
            return None
        d = np.concatenate(d_l)
        out_u = np.asarray(pages[url_col].to_pylist(), dtype=object)[pg]
        out_p = np.asarray(pois["pid"].to_numpy(zero_copy_only=False),
                           np.int64)[np.concatenate(oi_l)]
        order = np.lexsort((out_p, out_u))
        return pa.table({
            url_col: pa.array(out_u[order], pa.string()),
            "poi_id": pa.array(out_p[order], pa.int64()),
            "distance_m": pa.array(np.round(d[order], 3), pa.float64()),
        })

    return fold((pages_ds.map_batches(page_rows, batch_format="pyarrow"),
                 pois_nar.map_batches(poi_rows, batch_format="pyarrow")),
                "cell", kernel, nb, empty)
