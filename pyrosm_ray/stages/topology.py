"""Way topology assembly: node-ref join + geometry typing, Ray-Data-first.

The reference resolves every way's node refs through an in-process hash map
(NodeLocations, /root/reference/pyrosm/node_lookup.pyx:5-96) and builds
geometries with vectorised shapely calls (pyrosm/geometry.pyx:404-620). Here
the same semantics run as Dataset stages, on one of two routes:

* **broadcast** (:func:`assemble_ways_batch`) — the node coordinate arrays
  (sorted id -> lon/lat, a single array or the sharded index of
  :func:`build_coord_index_sharded`) are ``ray.put`` once and every
  ``map_batches`` task gathers via searchsorted. Zero shuffle; right
  whenever the node table fits in the object store (reference ST1
  analogue).
* **shuffle** (:func:`assemble_ways`) — explode ``(way_id, seq,
  node_id)``, :func:`~pyrosm_ray.stages.blocks.co_join` against the node
  table, one :func:`~pyrosm_ray.stages.blocks.fold` per way id, and a
  left outer ``co_join`` of the payload back by way id. All-to-all, but
  every step streams; right when no node table fits one heap.

Geometry semantics preserved (SURVEY.md §2 M17-M20, M24, M25):

* network mode: per-way MultiLineString of consecutive 2-point segments +
  haversine ``length`` (segments round 3, sum round 0); ways with <2
  resolvable nodes are dropped; missing nodes silently skipped (partial
  geometry tolerance, pyrosm/geometry.pyx:295-342).
* area mode: closed way + area rule -> single-ring Polygon (auto-closed when
  nodes were dropped); linear/open ways -> LineString (exactly 2 points) or
  MultiLineString of segments; <2 points (or failed ring) -> dropped.
* ring orientation is normalised to the OGC right-hand rule at encode time
  (exterior CCW — M24).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from pyrosm_ray.stages.blocks import co_join, fold, unreserved

from pyrosm_ray.geom import ops, wkb


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [start, start+count) ranges (vectorised)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return (np.arange(total, dtype=np.int64)
            - np.repeat(off[:-1], counts) + np.repeat(starts, counts))


# ---------------------------------------------------------------------------
# broadcast coordinate index, sharded (distributed build)
# ---------------------------------------------------------------------------
#
# The single-array index (``OSM.coord_ref``'s driver path) is one serial
# driver pass (read + argsort + one ray.put) — fine at small node counts, an
# Amdahl wall at scale (sf3: 14 M nodes cost 5-8 s of pure driver time
# before any worker moves). The sharded form builds in parallel: blocks are
# routed by id range into K shards (boundaries from a per-block id sample),
# each shard concatenates + sorts in its own task, and only a tiny manifest
# {bounds, shard refs} is ray.put by the driver. Lookups are two-level:
# searchsorted over the K-1 boundaries, then searchsorted inside the
# (plasma-resident, zero-copy) shard.

_COORD_SAMPLE_PER_BLOCK = 64


@ray.remote
def _coord_sample_task(block: pa.Table):
    ids = np.asarray(block["id"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    if len(ids) == 0:
        return np.empty(0, np.int64), 0
    step = max(1, len(ids) // _COORD_SAMPLE_PER_BLOCK)
    return np.sort(ids[::step]), len(ids)


@ray.remote
def _coord_route_task(block: pa.Table, bounds: np.ndarray) -> dict:
    """One node block -> {shard: ObjectRef((ids, lon, lat))} routed by id
    range; sub-arrays go straight back into the object store."""
    if block.num_rows == 0:
        return {}
    ids = np.asarray(block["id"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    lon = np.asarray(block["lon"].to_numpy(zero_copy_only=False),
                     dtype=np.float64)
    lat = np.asarray(block["lat"].to_numpy(zero_copy_only=False),
                     dtype=np.float64)
    sid = np.searchsorted(bounds, ids, side="right") if len(bounds) \
        else np.zeros(len(ids), np.int64)
    order = np.argsort(sid, kind="stable")
    uniq, starts = np.unique(sid[order], return_index=True)
    ends = np.append(starts[1:], len(ids))
    out: dict[int, "ray.ObjectRef"] = {}
    for s, a, b in zip(uniq, starts, ends):
        rows = order[a:b]
        out[int(s)] = ray.put((ids[rows], lon[rows], lat[rows]))
    return out


@ray.remote
def _coord_shard_task(*parts):
    ids = np.concatenate([p[0] for p in parts])
    lon = np.concatenate([p[1] for p in parts])
    lat = np.concatenate([p[2] for p in parts])
    order = np.argsort(ids, kind="stable")
    return ids[order], lon[order], lat[order]


_EMPTY_SHARD = (np.empty(0, np.int64), np.empty(0, np.float64),
                np.empty(0, np.float64))


def build_coord_index_sharded(nodes_ds,
                              num_shards: int | None = None
                              ) -> "ray.ObjectRef":
    """Distributed sharded coordinate index (see module comment above).

    Returns a broadcastable manifest ``{"sharded": True, "bounds": arr,
    "shards": [ObjectRef((ids, lon, lat)), ...]}`` that
    :func:`gather_coords` consumes transparently."""
    ds = unreserved(
        nodes_ds.select_columns(["id", "lon", "lat"]).materialize())
    block_refs = [r for r in ds.to_arrow_refs()]
    if not block_refs:
        return ray.put({"sharded": True, "bounds": np.empty(0, np.int64),
                        "shards": []})
    samples = ray.get([_coord_sample_task.remote(r) for r in block_refs])
    total = sum(n for _, n in samples)
    if total == 0:
        return ray.put({"sharded": True, "bounds": np.empty(0, np.int64),
                        "shards": []})
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    k = num_shards or int(np.clip(4 * cpus, 1, 256))
    k = int(np.clip(total // 65536, 1, k))  # don't over-shard small tables
    alls = np.sort(np.concatenate([s for s, _ in samples if len(s)]))
    bounds = np.unique(
        alls[np.linspace(0, len(alls) - 1, k + 1).astype(np.int64)][1:-1])
    routed = ray.get([_coord_route_task.remote(r, bounds)
                      for r in block_refs])
    from collections import defaultdict
    parts: dict[int, list] = defaultdict(list)
    for d in routed:
        for s, ref in d.items():
            parts[s].append(ref)
    shard_refs = [
        _coord_shard_task.remote(*parts[s]) if parts.get(s)
        else ray.put(_EMPTY_SHARD)
        for s in range(len(bounds) + 1)]
    # index is ready when this returns (honest build timing)
    ray.wait(shard_refs, num_returns=len(shard_refs), fetch_local=False)
    return ray.put({"sharded": True, "bounds": bounds,
                    "shards": shard_refs})


# worker-process-level cache of resolved shard lists: the assemble stage
# runs as plain tasks (no actor state), so without this every task would
# re-issue one ray.get per shard — thousands of plasma round-trips per
# stage. Keyed by the first shard ref's hex; workers are reused across
# tasks so the zero-copy arrays resolve once per process.
_SHARD_CACHE: dict[str, list] = {}


def _gather_sharded(manifest: dict, flat_refs: np.ndarray):
    n = len(flat_refs)
    lon = np.zeros(n, np.float64)
    lat = np.zeros(n, np.float64)
    valid = np.zeros(n, bool)
    shards = manifest["shards"]
    if n == 0 or not shards:
        return lon, lat, valid
    key = shards[0].hex()
    resolved = _SHARD_CACHE.get(key)
    if resolved is None:
        resolved = ray.get(list(shards))
        _SHARD_CACHE.clear()  # one live index per worker is the norm
        _SHARD_CACHE[key] = resolved
    bounds = manifest["bounds"]
    sid = np.searchsorted(bounds, flat_refs, side="right") if len(bounds) \
        else np.zeros(n, np.int64)
    order = np.argsort(sid, kind="stable")
    uniq, starts = np.unique(sid[order], return_index=True)
    ends = np.append(starts[1:], n)
    for s, a, b in zip(uniq, starts, ends):
        rows = order[a:b]
        ids_s, lon_s, lat_s = resolved[int(s)]
        if len(ids_s) == 0:
            continue
        q = flat_refs[rows]
        pos = np.clip(np.searchsorted(ids_s, q), 0, len(ids_s) - 1)
        found = ids_s[pos] == q
        lo, la = lon_s[pos], lat_s[pos]
        lon[rows] = lo
        lat[rows] = la
        valid[rows] = (found & (lo >= -180.0) & (lo <= 180.0)
                       & (la >= -90.0) & (la <= 90.0))
    return lon, lat, valid


def gather_coords(coord_index, flat_refs: np.ndarray):
    """Vectorised id->coordinate gather with miss tolerance (reference
    NodeLocations.gather, -1 sentinel for misses)."""
    if isinstance(coord_index, dict) and coord_index.get("sharded"):
        return _gather_sharded(coord_index, flat_refs)
    ids, lons, lats = coord_index
    if len(ids) == 0:
        n = len(flat_refs)
        return np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    pos = np.searchsorted(ids, flat_refs)
    pos_c = np.clip(pos, 0, len(ids) - 1)
    found = ids[pos_c] == flat_refs
    lon = lons[pos_c]
    lat = lats[pos_c]
    valid = (found & (lon >= -180.0) & (lon <= 180.0)
             & (lat >= -90.0) & (lat <= 90.0))
    return lon, lat, valid


# ---------------------------------------------------------------------------
# shared geometry core (flat valid coords per way -> WKB columns)
# ---------------------------------------------------------------------------

def _closed_way_polygon_mask(area_vals: np.ndarray, linear: np.ndarray):
    """Vectorised closed-way area rule (pyrosm/geometry.pyx:381-389)."""
    out = ~linear
    out = np.where(area_vals == "yes", True, out)
    out = np.where(area_vals == "no", False, out)
    return out


def way_geometry_columns(valid_coords: np.ndarray, voff: np.ndarray,
                         n_refs: np.ndarray, closed: np.ndarray,
                         area_vals: np.ndarray, linear_tag: np.ndarray,
                         mode: str):
    """Build per-way WKB geometry (+ length for network mode).

    ``valid_coords``/``voff``: CSR of the resolvable coordinate subsequence
    per way; ``n_refs`` the original ref count; ``closed`` whether the
    original ref list closed on itself.

    Returns (geometry object-array with None for dropped ways, length array
    or None)."""
    n = len(voff) - 1
    cnt = voff[1:] - voff[:-1]
    geoms = np.full(n, None, dtype=object)

    if mode == "network":
        keep = cnt >= 2
        if keep.any():
            sub_off = _sub_offsets(voff, keep)
            bufs = wkb.segment_multilinestrings_wkb_batch(
                _sub_coords(valid_coords, voff, keep), sub_off)
            geoms[np.flatnonzero(keep)] = np.array(bufs, dtype=object)
        lengths = ops.polyline_lengths_m(valid_coords, voff)
        lengths = np.where(cnt >= 2, lengths, 0.0)
        return geoms, lengths

    # ---- area mode ----
    is_poly = closed & _closed_way_polygon_mask(area_vals, linear_tag)
    full = cnt == n_refs
    vec_poly = is_poly & full & (cnt >= 4)
    fb_poly = is_poly & ~vec_poly & (cnt > 2)
    line2 = ~is_poly & (cnt == 2)
    line_multi = ~is_poly & (cnt > 2)

    if vec_poly.any():
        idx = np.flatnonzero(vec_poly)
        coords, off = _oriented_rings(valid_coords, voff, idx, close=False)
        bufs = wkb.ring_polygons_wkb_batch(coords, off)
        geoms[idx] = np.array(bufs, dtype=object)
    if fb_poly.any():
        idx = np.flatnonzero(fb_poly)
        coords, off = _oriented_rings(valid_coords, voff, idx, close=True)
        bufs = wkb.ring_polygons_wkb_batch(coords, off)
        geoms[idx] = np.array(bufs, dtype=object)
    if line2.any():
        idx = np.flatnonzero(line2)
        keep = np.zeros(n, dtype=bool)
        keep[idx] = True
        bufs = wkb.linestrings_wkb_batch(
            _sub_coords(valid_coords, voff, keep), _sub_offsets(voff, keep))
        geoms[idx] = np.array(bufs, dtype=object)
    if line_multi.any():
        keep = line_multi
        bufs = wkb.segment_multilinestrings_wkb_batch(
            _sub_coords(valid_coords, voff, keep), _sub_offsets(voff, keep))
        geoms[np.flatnonzero(keep)] = np.array(bufs, dtype=object)
    return geoms, None


def _sub_offsets(voff: np.ndarray, keep: np.ndarray) -> np.ndarray:
    cnt = (voff[1:] - voff[:-1])[keep]
    out = np.zeros(len(cnt) + 1, dtype=np.int64)
    np.cumsum(cnt, out=out[1:])
    return out


def _sub_coords(coords: np.ndarray, voff: np.ndarray, keep: np.ndarray):
    idx = np.flatnonzero(keep)
    if len(idx) == 0:
        return np.empty((0, 2))
    cnt = (voff[1:] - voff[:-1])[idx]
    return coords[concat_ranges(voff[:-1][idx], cnt)]


def _oriented_rings(coords: np.ndarray, voff: np.ndarray, idx: np.ndarray,
                    close: bool):
    """Extract rings for the chosen ways, auto-close and orient CCW (M24).

    Fully vectorised over the flat ring CSR: one shoelace pass (per-edge
    cross products segment-summed per ring) decides winding, one scatter
    closes open rings, one permutation gather reverses the clockwise ones
    (the per-ring np.roll loop this replaces dominated assembly wall)."""
    if len(idx) == 0:
        return np.empty((0, 2)), np.zeros(1, dtype=np.int64)
    cnt = (voff[1:] - voff[:-1])[idx]
    pts = coords[concat_ranges(voff[:-1][idx], cnt)]
    off = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(cnt, out=off[1:])
    if close:
        first = pts[off[:-1]]
        last = pts[off[1:] - 1]
        needs = ~np.all(first == last, axis=1)
        if needs.any():
            new_cnt = cnt + needs
            new_off = np.zeros(len(idx) + 1, dtype=np.int64)
            np.cumsum(new_cnt, out=new_off[1:])
            out = np.empty((new_off[-1], 2), dtype=pts.dtype)
            out[concat_ranges(new_off[:-1], cnt)] = pts
            out[new_off[1:][needs] - 1] = first[needs]
            pts, off, cnt = out, new_off, new_cnt
    # shoelace over the explicit edges (rings are closed, so the implicit
    # wrap edge contributes exactly zero — same area as ops.ring_signed_area)
    x, y = pts[:, 0], pts[:, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    valid = np.ones(len(cross), dtype=bool)
    ring_ends = off[1:-1] - 1
    valid[ring_ends] = False  # edges spanning ring boundaries
    cs = np.zeros(len(cross) + 1, dtype=np.float64)
    np.cumsum(cross * valid, out=cs[1:])
    area2 = cs[off[1:] - 1] - cs[off[:-1]]
    flip = area2 <= 0.0  # CCW required: reverse non-CCW rings (M24)
    if flip.any():
        local = concat_ranges(np.zeros(len(cnt), dtype=np.int64), cnt)
        starts_rep = np.repeat(off[:-1], cnt)
        rev = starts_rep + np.repeat(cnt, cnt) - 1 - local
        fwd = np.arange(len(pts), dtype=np.int64)
        pts = pts[np.where(np.repeat(flip, cnt), rev, fwd)]
    return pts, off


# ---------------------------------------------------------------------------
# broadcast-path assembler (callable class -> actor pool in map_batches)
# ---------------------------------------------------------------------------

def _refs_csr(refs_col):
    if isinstance(refs_col, pa.ChunkedArray):
        refs_col = refs_col.combine_chunks()
    off = np.asarray(refs_col.offsets, dtype=np.int64)
    if refs_col.null_count:
        off = np.asarray(pc.fill_null_backward(refs_col.offsets), dtype=np.int64)
    flat = np.asarray(refs_col.values.to_numpy(zero_copy_only=False),
                      dtype=np.int64)
    return flat, off


def _string_col(batch: pa.Table, name: str, n: int) -> np.ndarray:
    if name in batch.column_names:
        return np.asarray(batch[name].to_numpy(zero_copy_only=False),
                          dtype=object)
    return np.full(n, None, dtype=object)


def assemble_ways_batch(batch: pa.Table, *, coord_ref, mode: str = "area",
                        drop_refs: bool = True) -> pa.Table:
    """Plain-task form of the broadcast assembler: ``ray.get`` of the
    coordinate index inside the task is a zero-copy plasma read (cached
    per node), so no actor pool needs to spin up for this stage."""
    coords = ray.get(coord_ref) if coord_ref is not None else None
    return _assemble_ways_impl(batch, coords, mode, drop_refs)


def _assemble_ways_impl(batch: pa.Table, coords_idx, mode: str,
                        drop_refs: bool) -> pa.Table:
        import os as _os
        import time as _time
        _dbg = _os.environ.get("PYROSM_RAY_DEBUG_TIMERS")
        _t0 = _time.time()
        n = len(batch)
        if n == 0:
            return batch
        flat, off = _refs_csr(batch["refs"])
        _t1 = _time.time()
        lon, lat, valid = gather_coords(coords_idx, flat)
        if _dbg:
            print(f"[asm] n={n} refs={len(flat)} csr={_t1-_t0:.2f}s "
                  f"gather={_time.time()-_t1:.2f}s", flush=True)
        coords = np.column_stack([lon, lat])
        vcoords = coords[valid]
        cs = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(valid, out=cs[1:])
        voff = cs[off]

        n_refs = off[1:] - off[:-1]
        closed = np.zeros(n, dtype=bool)
        nz = n_refs > 0
        closed[nz] = flat[off[:-1][nz]] == flat[off[1:][nz] - 1]

        if mode == "network_segments":
            # one row per segment with u/v node ids (graph-export path,
            # reference nodes=True: pyrosm/frames.pyx:77-100)
            flat_ids_v = flat[valid]
            cnt = voff[1:] - voff[:-1]
            seg_counts = np.maximum(cnt - 1, 0)
            total = int(seg_counts.sum())
            row_of_seg = np.repeat(np.arange(n, dtype=np.int64), seg_counts)
            first = np.repeat(voff[:-1], seg_counts) + concat_ranges(
                np.zeros(n, dtype=np.int64), seg_counts)
            u = flat_ids_v[first]
            v = flat_ids_v[first + 1]
            seg_xy = np.empty((2 * total, 2), dtype=np.float64)
            seg_xy[0::2] = vcoords[first]
            seg_xy[1::2] = vcoords[first + 1]
            seg_off = np.arange(total + 1, dtype=np.int64) * 2
            bufs = wkb.linestrings_wkb_batch(seg_xy, seg_off)
            lengths = np.round(ops.haversine_m(
                seg_xy[0::2, 1], seg_xy[0::2, 0],
                seg_xy[1::2, 1], seg_xy[1::2, 0]), 3)
            out = batch.take(pa.array(row_of_seg))
            cols = dict(zip(out.column_names, out.columns))
            if drop_refs:
                cols.pop("refs", None)
            cols["u"] = pa.array(u, pa.int64())
            cols["v"] = pa.array(v, pa.int64())
            cols["geometry"] = pa.array(bufs, pa.binary())
            cols["length"] = pa.array(lengths, pa.float64())
            return pa.table(cols)

        area_vals = _string_col(batch, "area", n)
        linear = np.zeros(n, dtype=bool)
        for key in ops.LINEAR_CLOSED_WAY_KEYS:
            linear |= np.array([v is not None
                                for v in _string_col(batch, key, n)])

        _t2 = _time.time()
        geoms, lengths = way_geometry_columns(
            vcoords, voff, n_refs, closed, area_vals, linear, mode)
        if _dbg:
            print(f"[asm2] n={n} prep={_t2-_t1:.2f}s "
                  f"geom={_time.time()-_t2:.2f}s", flush=True)

        cols = dict(zip(batch.column_names, batch.columns))
        if drop_refs:
            cols.pop("refs", None)
        cols["geometry"] = pa.array(geoms, pa.binary())
        if lengths is not None:
            cols["length"] = pa.array(lengths, pa.float64())
        out = pa.table(cols)
        return out.filter(pc.is_valid(out["geometry"]))


# ---------------------------------------------------------------------------
# shuffle-path join (scale path)
# ---------------------------------------------------------------------------

def explode_refs(ways_ds):
    """ways -> (way_id, seq, node_id) rows (1 per ref)."""
    def ex(batch: pa.Table) -> pa.Table:
        flat, off = _refs_csr(batch["refs"])
        n = len(batch)
        way_ids = np.asarray(batch["id"].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
        rep = np.repeat(np.arange(n, dtype=np.int64), off[1:] - off[:-1])
        seq = np.arange(len(flat), dtype=np.int64) - np.repeat(off[:-1],
                                                               off[1:] - off[:-1])
        return pa.table({
            "way_id": pa.array(way_ids[rep]),
            "seq": pa.array(seq.astype(np.int32)),
            "node_id": pa.array(flat),
        })
    return ways_ds.select_columns(["id", "refs"]).map_batches(
        ex, batch_format="pyarrow")


def _collect_way_coords(group: pa.Table) -> pa.Table:
    """One partition of joined (way_id, seq, lon, lat) -> per-way
    (``id``) seq-ordered coordinates, packed to binary (acero hash joins,
    which back ``co_join``, reject nested list payload columns)."""
    wid = np.asarray(group["way_id"].to_numpy(zero_copy_only=False))
    seq = np.asarray(group["seq"].to_numpy(zero_copy_only=False))
    lon = np.asarray(group["lon"].to_numpy(zero_copy_only=False))
    lat = np.asarray(group["lat"].to_numpy(zero_copy_only=False))
    order = np.lexsort((seq, wid))
    wid, lon, lat = wid[order], lon[order], lat[order]
    uniq, starts = np.unique(wid, return_index=True)
    off = np.append(starts, len(wid)).astype(np.int64)
    coords = np.column_stack([lon, lat]).astype("<f8")
    raw = coords.tobytes()
    bufs = [raw[16 * s:16 * e] for s, e in zip(off[:-1], off[1:])]
    return pa.table({"id": pa.array(uniq, pa.int64()),
                     "__coords": pa.array(bufs, pa.binary())})


class JoinedWayAssembler:
    """map_batches callable for the shuffle path: ways payload rows carrying
    joined ``__coords`` binary blobs -> WKB geometry rows."""

    def __init__(self, mode: str = "area", drop_refs: bool = True):
        self.mode = mode
        self.drop_refs = drop_refs

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return batch
        ref_blobs = batch["__refs"].to_pylist()
        flat = np.frombuffer(b"".join(ref_blobs), dtype="<i8")
        rlens = np.array([len(b) // 8 for b in ref_blobs], dtype=np.int64)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rlens, out=off[1:])
        n_refs = off[1:] - off[:-1]
        closed = np.zeros(n, dtype=bool)
        nz = n_refs > 0
        closed[nz] = flat[off[:-1][nz]] == flat[off[1:][nz] - 1]

        blobs = batch["__coords"].to_pylist() if "__coords" in \
            batch.column_names else [None] * n
        lens = np.array([0 if b is None else len(b) // 16 for b in blobs],
                        dtype=np.int64)
        voff_rel = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=voff_rel[1:])
        if voff_rel[-1]:
            vcoords = np.frombuffer(
                b"".join(b for b in blobs if b is not None),
                dtype="<f8").reshape(-1, 2)
        else:
            vcoords = np.empty((0, 2))
        ok = (vcoords[:, 0] >= -180) & (vcoords[:, 0] <= 180) & \
             (vcoords[:, 1] >= -90) & (vcoords[:, 1] <= 90)
        if not ok.all():
            cs = np.zeros(len(ok) + 1, dtype=np.int64)
            np.cumsum(ok, out=cs[1:])
            voff_rel = cs[voff_rel]
            vcoords = vcoords[ok]

        area_vals = _string_col(batch, "area", n)
        linear = np.zeros(n, dtype=bool)
        for key in ops.LINEAR_CLOSED_WAY_KEYS:
            linear |= np.array([v is not None
                                for v in _string_col(batch, key, n)])

        geoms, lengths = way_geometry_columns(
            vcoords, voff_rel, n_refs, closed, area_vals, linear, self.mode)

        cols = dict(zip(batch.column_names, batch.columns))
        for c in ("__coords", "__refs", "way_id"):
            cols.pop(c, None)
        cols["geometry"] = pa.array(geoms, pa.binary())
        if lengths is not None:
            cols["length"] = pa.array(lengths, pa.float64())
        out = pa.table(cols)
        return out.filter(pc.is_valid(out["geometry"]))


def pack_refs(batch: pa.Table) -> pa.Table:
    """refs list<int64> -> __refs binary (joinable payload form)."""
    flat, off = _refs_csr(batch["refs"])
    raw = flat.astype("<i8").tobytes()
    bufs = [raw[8 * s:8 * e] for s, e in zip(off[:-1], off[1:])]
    cols = {c: batch[c] for c in batch.column_names if c != "refs"}
    cols["__refs"] = pa.array(bufs, pa.binary())
    return pa.table(cols)


def _joined_way_assemble(batch: pa.Table, mode: str) -> pa.Table:
    return JoinedWayAssembler(mode=mode)(batch)


def assemble_ways(ways_ds, nodes_ds, mode: str = "area",
                  batch_size: int = 32 * 1024):
    """Node-ref join + geometry assembly on the shuffle route (see the
    module docstring); the folds size themselves from their input.

    The ways payload must be join-compatible: no nested columns besides
    ``refs`` (promote the ``tags`` map to columns first —
    :func:`pyrosm_ray.stages.tags.promote_tags`).
    """
    coords = nodes_ds.map_batches(lambda b: pa.table({
        "node_id": b["id"].cast(pa.int64()),
        "lon": b["lon"].cast(pa.float64()),
        "lat": b["lat"].cast(pa.float64())}), batch_format="pyarrow")
    joined = co_join(explode_refs(ways_ds), coords, "node_id", None,
                     pa.table({
                         "way_id": pa.array([], pa.int64()),
                         "seq": pa.array([], pa.int32()),
                         "node_id": pa.array([], pa.int64()),
                         "lon": pa.array([], pa.float64()),
                         "lat": pa.array([], pa.float64())}))
    per_way = fold(joined, "way_id", _collect_way_coords, None,
                   pa.table({"id": pa.array([], pa.int64()),
                             "__coords": pa.array([], pa.binary())}))
    payload = ways_ds.map_batches(pack_refs, batch_format="pyarrow")
    withc = co_join(payload, per_way, "id", None,
                    payload.schema().base_schema.empty_table()
                    .append_column("__coords", pa.array([], pa.binary())),
                    join_type="left outer")
    # the joined assembler holds no per-actor state -> plain tasks
    return withc.map_batches(
        functools.partial(_joined_way_assemble, mode=mode),
        batch_format="pyarrow", batch_size=batch_size)
