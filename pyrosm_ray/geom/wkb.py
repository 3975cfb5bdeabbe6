"""Minimal WKB (ISO well-known-binary) codec over flat numpy coordinate arrays.

Geometries cross Ray stage boundaries as a ``binary`` Arrow column of
little-endian WKB — the same wire format the reference emits to GeoParquet
(/root/reference/pyrosm/engine/geoparquet.py:104 ``geometry_encoding="WKB"``).
Internally every stage works on CSR coords (``(N,2) float64`` + offsets), so
encode/decode are the only places bytes are touched.

Supported types: Point(1), LineString(2), Polygon(3), MultiPoint(4),
MultiLineString(5), MultiPolygon(6). Little-endian only.

:func:`decode_wkb` and :func:`polygon_rings` decode one buffer at a time.
:func:`polygon_column` decodes the Polygon/MultiPolygon rows of a whole
binary Arrow column at once: it reads the column's bytes in place
(:func:`binary_csr`) and walks parts, then rings, one level at a time
across all rows, so its Python loop runs once per part or ring *index*,
not once per geometry.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

POINT, LINESTRING, POLYGON = 1, 2, 3
MULTIPOINT, MULTILINESTRING, MULTIPOLYGON = 4, 5, 6

GEOM_TYPE_NAMES = {
    POINT: "Point", LINESTRING: "LineString", POLYGON: "Polygon",
    MULTIPOINT: "MultiPoint", MULTILINESTRING: "MultiLineString",
    MULTIPOLYGON: "MultiPolygon",
}

_HDR = struct.Struct("<BI")
_HDR_N = struct.Struct("<BII")


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def point_wkb(x: float, y: float) -> bytes:
    return _HDR.pack(1, POINT) + struct.pack("<dd", x, y)


def points_wkb(xs: np.ndarray, ys: np.ndarray) -> list[bytes]:
    """Vectorised batch Point encoder: one buffer, sliced per row."""
    n = len(xs)
    if n == 0:
        return []
    buf = np.empty((n, 21), dtype=np.uint8)
    buf[:, 0] = 1
    buf[:, 1:5] = np.frombuffer(struct.pack("<I", POINT), dtype=np.uint8)
    buf[:, 5:13] = np.asarray(xs, "<f8").reshape(-1, 1).view(np.uint8)
    buf[:, 13:21] = np.asarray(ys, "<f8").reshape(-1, 1).view(np.uint8)
    raw = buf.tobytes()
    return [raw[i * 21:(i + 1) * 21] for i in range(n)]


def linestring_wkb(coords: np.ndarray) -> bytes:
    c = np.ascontiguousarray(coords, dtype="<f8")
    return _HDR_N.pack(1, LINESTRING, len(c)) + c.tobytes()


def polygon_wkb(rings: list[np.ndarray]) -> bytes:
    parts = [_HDR_N.pack(1, POLYGON, len(rings))]
    for ring in rings:
        c = np.ascontiguousarray(ring, dtype="<f8")
        parts.append(struct.pack("<I", len(c)))
        parts.append(c.tobytes())
    return b"".join(parts)


def multilinestring_wkb(lines: list[np.ndarray]) -> bytes:
    parts = [_HDR_N.pack(1, MULTILINESTRING, len(lines))]
    for line in lines:
        parts.append(linestring_wkb(line))
    return b"".join(parts)


def multipolygon_wkb(polygons: list[list[np.ndarray]]) -> bytes:
    parts = [_HDR_N.pack(1, MULTIPOLYGON, len(polygons))]
    for rings in polygons:
        parts.append(polygon_wkb(rings))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# vectorised batch encoders (no per-row Python in the hot geometry stages)
# ---------------------------------------------------------------------------

def _fill_pattern(buf: np.ndarray, pos: np.ndarray, pattern: bytes) -> None:
    if len(pos):
        pat = np.frombuffer(pattern, dtype=np.uint8)
        buf[pos[:, None] + np.arange(len(pat))] = pat


def _split(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> list[bytes]:
    raw = buf.tobytes()
    return [raw[s:s + z] for s, z in zip(starts.tolist(), sizes.tolist())]


def linestrings_wkb_batch(coords: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """One LineString WKB per CSR row (row i = coords[offsets[i]:offsets[i+1]])."""
    offsets = np.asarray(offsets, dtype=np.int64)
    npts = offsets[1:] - offsets[:-1]
    sizes = 9 + 16 * npts
    starts = np.zeros(len(npts) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    buf = np.zeros(int(starts[-1]), dtype=np.uint8)
    _fill_pattern(buf, starts[:-1], b"\x01" + struct.pack("<I", LINESTRING))
    # per-row point count (uint32 LE) at offset 5
    cnt = npts.astype("<u4").reshape(-1, 1).view(np.uint8)
    buf[starts[:-1][:, None] + 5 + np.arange(4)] = cnt
    if len(coords):
        pts = np.ascontiguousarray(coords, dtype="<f8").view(np.uint8).reshape(-1, 16)
        row_of_pt = np.repeat(np.arange(len(npts), dtype=np.int64), npts)
        idx_in_row = np.arange(len(coords), dtype=np.int64) - np.repeat(
            offsets[:-1], npts)
        dest = starts[:-1][row_of_pt] + 9 + idx_in_row * 16
        buf[dest[:, None] + np.arange(16)] = pts
    return _split(buf, starts[:-1], sizes)


def segment_multilinestrings_wkb_batch(coords: np.ndarray,
                                       offsets: np.ndarray) -> list[bytes]:
    """One MultiLineString-of-2-point-segments WKB per CSR polyline row —
    the reference's network way geometry (consecutive coordinate pairs each
    their own LineString, pyrosm/geometry.pyx:404-493 + frames.pyx:62-72)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    npts = offsets[1:] - offsets[:-1]
    nseg = np.maximum(npts - 1, 0)
    sizes = 9 + 41 * nseg
    starts = np.zeros(len(nseg) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    buf = np.zeros(int(starts[-1]), dtype=np.uint8)
    _fill_pattern(buf, starts[:-1], b"\x01" + struct.pack("<I", MULTILINESTRING))
    buf[starts[:-1][:, None] + 5 + np.arange(4)] = \
        nseg.astype("<u4").reshape(-1, 1).view(np.uint8)
    total_seg = int(nseg.sum())
    if total_seg:
        row_of_seg = np.repeat(np.arange(len(nseg), dtype=np.int64), nseg)
        idx_in_row = np.arange(total_seg, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(nseg)[:-1]]), nseg)
        seg_pos = starts[:-1][row_of_seg] + 9 + idx_in_row * 41
        _fill_pattern(buf, seg_pos,
                      b"\x01" + struct.pack("<II", LINESTRING, 2))
        first_pt = np.repeat(offsets[:-1], nseg) + idx_in_row
        c = np.ascontiguousarray(coords, dtype="<f8")
        seg_xy = np.hstack([c[first_pt], c[first_pt + 1]]).view(np.uint8)
        buf[seg_pos[:, None] + 9 + np.arange(32)] = seg_xy
    return _split(buf, starts[:-1], sizes)


def ring_polygons_wkb_batch(coords: np.ndarray,
                            offsets: np.ndarray) -> list[bytes]:
    """One single-ring Polygon WKB per CSR row (ring must already be closed)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    npts = offsets[1:] - offsets[:-1]
    sizes = 13 + 16 * npts
    starts = np.zeros(len(npts) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    buf = np.zeros(int(starts[-1]), dtype=np.uint8)
    _fill_pattern(buf, starts[:-1],
                  b"\x01" + struct.pack("<II", POLYGON, 1))
    buf[starts[:-1][:, None] + 9 + np.arange(4)] = \
        npts.astype("<u4").reshape(-1, 1).view(np.uint8)
    if len(coords):
        pts = np.ascontiguousarray(coords, dtype="<f8").view(np.uint8).reshape(-1, 16)
        row_of_pt = np.repeat(np.arange(len(npts), dtype=np.int64), npts)
        idx_in_row = np.arange(len(coords), dtype=np.int64) - np.repeat(
            offsets[:-1], npts)
        dest = starts[:-1][row_of_pt] + 13 + idx_in_row * 16
        buf[dest[:, None] + np.arange(16)] = pts
    return _split(buf, starts[:-1], sizes)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def u32(self) -> int:
        v = struct.unpack_from("<I", self.buf, self.pos)[0]
        self.pos += 4
        return v

    def header(self) -> int:
        endian = self.buf[self.pos]
        if endian != 1:
            raise ValueError("only little-endian WKB is supported")
        self.pos += 1
        gt = self.u32() & 0xFF  # mask off Z/M/SRID flag bits
        return gt

    def coords(self, n: int) -> np.ndarray:
        out = np.frombuffer(self.buf, dtype="<f8", count=2 * n,
                            offset=self.pos).reshape(n, 2)
        self.pos += 16 * n
        return out


def decode_wkb(buf: bytes):
    """Decode one WKB buffer -> (geom_type, payload).

    Payload shapes: Point -> (2,) array; LineString -> (N,2); Polygon ->
    [rings]; MultiPoint -> (N,2); MultiLineString -> [lines]; MultiPolygon ->
    [[rings], ...].
    """
    r = _Reader(buf)
    return _decode(r)


def _decode(r: _Reader):
    gt = r.header()
    if gt == POINT:
        return gt, r.coords(1)[0]
    if gt == LINESTRING:
        return gt, r.coords(r.u32())
    if gt == POLYGON:
        return gt, [r.coords(r.u32()) for _ in range(r.u32())]
    if gt == MULTIPOINT:
        n = r.u32()
        pts = np.empty((n, 2), dtype=np.float64)
        for i in range(n):
            sub_t, p = _decode(r)
            pts[i] = p
        return gt, pts
    if gt in (MULTILINESTRING, MULTIPOLYGON):
        n = r.u32()
        return gt, [_decode(r)[1] for _ in range(n)]
    raise ValueError(f"unsupported WKB geometry type {gt}")


def wkb_geom_type(buf: bytes) -> int:
    if buf[0] != 1:
        raise ValueError("only little-endian WKB is supported")
    return struct.unpack_from("<I", buf, 1)[0] & 0xFF


def polygon_rings(buf: bytes) -> list[np.ndarray]:
    """All rings of a Polygon/MultiPolygon WKB as a flat list (even-odd set)."""
    gt, payload = decode_wkb(buf)
    if gt == POLYGON:
        return payload
    if gt == MULTIPOLYGON:
        return [ring for rings in payload for ring in rings]
    raise ValueError(f"expected (Multi)Polygon, got {GEOM_TYPE_NAMES.get(gt, gt)}")


def wkb_bbox(buf: bytes) -> tuple[float, float, float, float]:
    gt, payload = decode_wkb(buf)
    if gt == POINT:
        x, y = payload
        return x, y, x, y
    if gt in (LINESTRING, MULTIPOINT):
        arrs = [payload]
    elif gt in (POLYGON, MULTILINESTRING):
        arrs = payload
    else:  # MULTIPOLYGON
        arrs = [r for rings in payload for r in rings]
    xs = np.concatenate([a[:, 0] for a in arrs])
    ys = np.concatenate([a[:, 1] for a in arrs])
    return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


# ---------------------------------------------------------------------------
# column decoder
# ---------------------------------------------------------------------------

def binary_csr(col) -> tuple[np.ndarray, np.ndarray]:
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


def _u32_at(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The little-endian uint32 at each byte offset ``pos`` (int64)."""
    return np.ascontiguousarray(data[pos[:, None] + np.arange(4)]) \
        .view("<u4").ravel().astype(np.int64)


def _f8_at(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The little-endian float64 at each byte offset ``pos``, whatever
    its alignment: one unaligned view of ``data`` per ``pos % 8``."""
    out = np.empty(len(pos), np.float64)
    rem = pos % 8
    for a in np.unique(rem):
        m = rem == a
        view = data[a:a + (len(data) - a) // 8 * 8].view("<f8")
        out[m] = view[(pos[m] - a) // 8]
    return out


def _check_le(data: np.ndarray, pos: np.ndarray) -> None:
    if len(pos) and (data[pos] != 1).any():
        raise ValueError("only little-endian WKB is supported")


def polygon_column(col) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Every Polygon/MultiPolygon row of a binary Arrow column ->
    (row index, rings per row, points per ring, flat ``(N, 2) <f8``
    coords), rings in row order and, per row, in :func:`polygon_rings`
    order. Null and other-type rows are left out; a polygon without
    rings keeps its row with 0 rings. Big-endian WKB raises
    ``ValueError``."""
    data, off = binary_csr(col)
    rows = np.flatnonzero(np.asarray(pc.is_valid(col), bool)
                          & (np.diff(off) > 0))
    start = off[rows]
    _check_le(data, start)
    gt = _u32_at(data, start + 1) & 0xFF
    poly = (gt == POLYGON) | (gt == MULTIPOLYGON)
    rows, start, multi = rows[poly], start[poly], gt[poly] == MULTIPOLYGON
    # per row, its part count and the byte offset of its first part's
    # Polygon header (a Polygon row is its own one part)
    nparts = np.ones(len(rows), np.int64)
    nparts[multi] = _u32_at(data, start[multi] + 5)
    at = np.where(multi, start + 9, start)
    ring_rec = []  # (row, part, ring, points, coords offset) per level
    for j in range(int(nparts.max(initial=0))):
        live = np.flatnonzero(nparts > j)
        pos = at[live]
        _check_le(data, pos)
        nrings = _u32_at(data, pos + 5)
        pos = pos + 9
        for k in range(int(nrings.max())):
            has = nrings > k
            npts = _u32_at(data, pos[has])
            ring_rec.append((live[has], np.full(len(npts), j),
                             np.full(len(npts), k), npts, pos[has] + 4))
            pos[has] += 4 + 16 * npts
        at[live] = pos
    if ring_rec:
        row_i, part_i, ring_i, npts, cpos = map(np.concatenate,
                                                zip(*ring_rec))
        order = np.lexsort((ring_i, part_i, row_i))
        row_i, npts, cpos = row_i[order], npts[order], cpos[order]
    else:
        row_i = npts = cpos = np.empty(0, np.int64)
    nvals = 2 * npts
    first = np.repeat(np.cumsum(nvals) - nvals, nvals)
    vpos = np.repeat(cpos, nvals) \
        + 8 * (np.arange(int(nvals.sum()), dtype=np.int64) - first)
    coords = _f8_at(data, vpos).reshape(-1, 2)
    return (rows, np.bincount(row_i, minlength=len(rows)).astype(np.int64),
            npts, coords)
