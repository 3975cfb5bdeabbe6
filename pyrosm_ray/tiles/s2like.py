"""S2-style cube-face quadtree cell ids (vectorised, public-knowledge design).

The scale-path alternative to :mod:`pyrosm_ray.tiles.grid`: project lon/lat to
the unit sphere, pick the dominant cube face, map the gnomonic (u, v) to
(s, t) with S2's quadratic projection (area-uniformising), discretise to
(i, j) at a level, and interleave bits (Z-order) into an int64:

    id = face << (2*level + 1) | zorder(i, j) << 1 | 1

The trailing 1 bit marks the level implicitly (like S2's lsb sentinel), so
``parent`` is a pure bit shift. Differences from real S2 (documented, by
design — no external libs): Z-order instead of the Hilbert curve (locality is
slightly worse, hierarchy and uniqueness identical) and no face-edge
stitching for neighbor moves (the engine's kNN ring expansion uses the grid
scheme; this scheme serves as the cell *key* for partitioning).
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 30


def _interleave_bits(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Z-order interleave of two 30-bit ints -> 60-bit int64 (j in even bits)."""
    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v
    return (spread(i) << np.uint64(1)) | spread(j)


def _st_from_uv(u: np.ndarray) -> np.ndarray:
    """S2 quadratic projection: uv in [-1,1] -> st in [0,1] (area uniformising)."""
    return np.where(u >= 0.0,
                    0.5 * np.sqrt(1.0 + 3.0 * u),
                    1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u))


def cell_id(lon, lat, level: int) -> np.ndarray:
    """Vectorised lon/lat (degrees) -> int64 cell id at ``level``."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    lon = np.deg2rad(np.asarray(lon, dtype=np.float64))
    lat = np.deg2rad(np.asarray(lat, dtype=np.float64))
    x = np.cos(lat) * np.cos(lon)
    y = np.cos(lat) * np.sin(lon)
    z = np.sin(lat)
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    # face 0/3 = ±x, 1/4 = ±y, 2/5 = ±z (S2 convention)
    face = np.where(ax >= np.maximum(ay, az), np.where(x >= 0, 0, 3),
                    np.where(ay >= az, np.where(y >= 0, 1, 4),
                             np.where(z >= 0, 2, 5)))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.select(
            [face == 0, face == 1, face == 2, face == 3, face == 4],
            [y / x, -x / y, -x / z, z / x, z / y], default=-y / z)
        v = np.select(
            [face == 0, face == 1, face == 2, face == 3, face == 4],
            [z / x, z / y, -y / z, y / x, -x / y], default=-x / z)
    n = 1 << level
    i = np.clip((_st_from_uv(u) * n).astype(np.int64), 0, n - 1)
    j = np.clip((_st_from_uv(v) * n).astype(np.int64), 0, n - 1)
    zo = _interleave_bits(i.astype(np.uint64), j.astype(np.uint64))
    out = ((face.astype(np.uint64) << np.uint64(2 * level + 1))
           | (zo << np.uint64(1)) | np.uint64(1))
    return out.astype(np.int64)


def parent(cell, levels_up: int = 1) -> np.ndarray:
    """Ancestor ``levels_up`` levels coarser — drop the last 2*levels_up
    position bits (the sentinel bit is re-appended)."""
    cell = np.asarray(cell, dtype=np.int64).astype(np.uint64)
    shift = np.uint64(2 * levels_up)
    return (((cell >> np.uint64(1)) >> shift << np.uint64(1))
            | np.uint64(1)).astype(np.int64)
