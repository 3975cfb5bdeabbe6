"""Deterministic synthetic fixtures: pages + OSM element tables (FIXTURES.md).

Replaces the reference's bundled PBF fixtures
(/root/reference/pyrosm/data/test.osm.pbf, Helsinki.osm.pbf) with seeded
Parquet generated at import-time scale factors. Two families:

* ``pages`` — the Common-Crawl-style payload table of BASELINE.json's
  input_hint: ``(url, warc_ts, html, text, lang)``. The geocode is NOT a
  stored column: the engine derives (lon, lat) from the page id embedded in
  the url with pure integer arithmetic (:func:`geocode_from_page_id`), so the
  identical mapping is expressible in ANSI SQL for the DuckDB oracle
  (:func:`page_id_sql` / :func:`geocode_sql`). A fixed fraction of pages is
  mapped into one city-centre square (the "mega cell") to exercise
  salted-shuffle skew handling.

* ``osm_nodes`` / ``osm_ways`` / ``osm_relations`` / ``osm_history`` —
  element tables mirroring the parsed schemas
  (pyrosm/pbfreader.pyx:193-208,351-374,378-455): a shared street grid
  (graph connectivity), closed-ring buildings/landuse (polygon path,
  bbox-straddling cases), a fixed catalogue of degenerate/semantic edge
  cases, and relations covering multipolygon-with-hole, island-in-hole,
  split-ring stitching, open-ring drops, routes and admin boundaries.

Everything is a pure function of (seed=42, sf); tables are cached as Parquet
under ``/tmp/geograft_fixtures/<sf-name>/`` with a version marker.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = 42
GENERATOR_VERSION = 8  # bump when generated content changes

# fixture world (lon_min, lat_min, lon_max, lat_max) — Helsinki-ish
WORLD = (24.80, 60.10, 25.20, 60.30)
# the bbox used by ported bbox-filter test cases (inside WORLD)
TEST_BBOX = (24.95, 60.17, 25.05, 60.23)
# the mega-cell square that concentrates skewed pages (city centre)
MEGA = (24.998, 60.198, 25.002, 60.202)
MEGA_MOD = 5  # page_id % MEGA_MOD == 0 -> mega cell (20% of pages)

NODE_ID0 = 1_000_000
WAY_ID0 = 10_000_000
REL_ID0 = 100_000_000

_TS0 = np.datetime64("2024-01-01T00:00:00")

_LANGS = ["en", "fi", "de", "fr", "es"]
_LANG_CUM = [40, 60, 75, 90, 100]  # percent thresholds

TAGS_T = pa.map_(pa.string(), pa.string())
MEMBERS_T = pa.list_(pa.struct([("member_id", pa.int64()),
                                ("member_type", pa.string()),
                                ("member_role", pa.string())]))


def parse_sf(sf: str | float) -> float:
    if isinstance(sf, (int, float)):
        return float(sf)
    name = os.path.basename(str(sf).rstrip("/"))
    if name.startswith("sf"):
        name = name[2:]
    return float(name)


def fixture_dir(sf: str | float, root: str = "/tmp/geograft_fixtures") -> Path:
    return Path(root) / f"sf{parse_sf(sf):g}"


# ---------------------------------------------------------------------------
# pages geocode (engine-side AND SQL-side, bit-identical integer arithmetic)
# ---------------------------------------------------------------------------

def page_id_sql(url_expr: str = "url") -> str:
    """Extract the page id back out of the url in DuckDB SQL."""
    return f"CAST(regexp_extract({url_expr}, 'p/([0-9]+)$', 1) AS BIGINT)"


def geocode_from_page_id(page_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic geocoder (the engine's 'geoparsing' stand-in)."""
    pid = np.asarray(page_id, dtype=np.int64)
    f1 = ((pid * 2654435761) % 1_000_003).astype(np.float64) / 1_000_003.0
    f2 = ((pid * 40503 + 12345) % 999_983).astype(np.float64) / 999_983.0
    mega = (pid % MEGA_MOD) == 0
    lon = np.where(mega, MEGA[0] + f1 * (MEGA[2] - MEGA[0]),
                   WORLD[0] + f1 * (WORLD[2] - WORLD[0]))
    lat = np.where(mega, MEGA[1] + f2 * (MEGA[3] - MEGA[1]),
                   WORLD[1] + f2 * (WORLD[3] - WORLD[1]))
    return lon, lat


def geocode_sql(url_expr: str = "url") -> tuple[str, str]:
    """(lon_sql, lat_sql) reproducing :func:`geocode_from_page_id` exactly."""
    pid = page_id_sql(url_expr)
    f1 = f"(CAST(({pid} * 2654435761) % 1000003 AS DOUBLE) / 1000003.0)"
    f2 = f"(CAST(({pid} * 40503 + 12345) % 999983 AS DOUBLE) / 999983.0)"
    mega = f"(({pid}) % {MEGA_MOD} = 0)"
    lon = (f"(CASE WHEN {mega} THEN {MEGA[0]} + {f1} * {MEGA[2] - MEGA[0]} "
           f"ELSE {WORLD[0]} + {f1} * {WORLD[2] - WORLD[0]} END)")
    lat = (f"(CASE WHEN {mega} THEN {MEGA[1]} + {f2} * {MEGA[3] - MEGA[1]} "
           f"ELSE {WORLD[1]} + {f2} * {WORLD[3] - WORLD[1]} END)")
    return lon, lat


# ---------------------------------------------------------------------------
# pages table
# ---------------------------------------------------------------------------

def _gen_pages(sf: float) -> pa.Table:
    # chunked: the html column tops the 2 GiB int32-offset array limit
    # around sf5, and chunks keep peak memory flat at any sf
    n = max(200, int(2_000_000 * sf))
    step = 2_000_000
    return pa.concat_tables(
        _gen_pages_chunk(np.arange(lo, min(lo + step, n), dtype=np.int64))
        for lo in range(0, n, step))


def _gen_pages_chunk(pid: np.ndarray) -> pa.Table:
    import pyarrow.compute as pc
    pid_s = pc.cast(pa.array(pid), pa.string())
    site_s = pc.cast(pa.array(pid % 97), pa.string())
    urls = pc.binary_join_element_wise(
        "https://site", site_s, ".example/p/", pid_s, "")
    ts = _TS0 + (pid * 7919 % 31_536_000).astype("timedelta64[s]")
    lang_idx = np.searchsorted(_LANG_CUM, (pid * 2654435761 >> 8) % 100,
                               side="right")
    langs = pa.array(np.array(_LANGS, dtype=object)[lang_idx], pa.string())
    s1_s = pc.cast(pa.array(pid * 31 % 1009), pa.string())
    s2_s = pc.cast(pa.array(pid % 353), pa.string())
    texts = pc.binary_join_element_wise(
        "Page ", pid_s, " from site", site_s, " in ", langs,
        ". Synthetic sentence ", s1_s, " about place ", s2_s, ".", "")
    # every third page carries a per-site boilerplate sentence (cookie-
    # banner analogue) so corpus-wide line-level dedup is non-degenerate:
    # ~n/(97*3) exact repeats per site. Appended BEFORE the html variants
    # are derived, so the extract-text byte-identity invariant still holds.
    texts = pc.if_else(
        pa.array(pid % 3 == 0),
        pc.binary_join_element_wise(
            texts, " Cookie notice applies on site", site_s, ".", ""),
        texts)
    # html wraps the text so that stages.extract's contract (drop
    # head/script/style/comments, decode char refs, strip inline tags,
    # collapse whitespace) recovers the stored text BYTE-IDENTICALLY —
    # the input_hint invariant q_extract_text asserts. Four rotating
    # variants exercise the parser paths:
    #   0: numeric char ref (&#32;)          1: inline tags + named ref
    #   2: comment + newline noise (&nbsp;)  3: script/noscript + empty div
    v0 = pc.replace_substring(texts, ". Synthetic", ".&#32;Synthetic")
    v1 = pc.replace_substring(pc.replace_substring(
        texts, " from site", " from <b>site"), " in ", "</b>&#32;in ")
    v2 = pc.replace_substring(pc.replace_substring(
        texts, " about ", " <!-- boilerplate -->\n about "),
        " sentence ", "&nbsp;sentence ")
    v3 = texts
    m01 = pa.array(pid % 4 < 2)
    body = pc.if_else(m01, pc.if_else(pa.array(pid % 4 == 0), v0, v1),
                      pc.if_else(pa.array(pid % 4 == 2), v2, v3))
    noise = pc.if_else(
        pa.array(pid % 4 == 3),
        pa.scalar("<script>var x=1;</script><noscript>no js</noscript>"),
        pa.scalar(""))
    # deterministic outlinks (1-2 per page, EMPTY anchor text so the
    # extract-text byte-identity invariant is untouched): the host link
    # graph q_host_pagerank / extract_links run over. Every page links
    # site (pid*13+1)%97; even pages also link site (pid*29+5)%97.
    l1s = pc.cast(pa.array((pid * 13 + 1) % 97), pa.string())
    l1p = pc.cast(pa.array((pid * 7 + 3) % 100_000), pa.string())
    link1 = pc.binary_join_element_wise(
        '<a href="https://site', l1s, ".example/p/", l1p, '"></a>', "")
    l2s = pc.cast(pa.array((pid * 29 + 5) % 97), pa.string())
    l2p = pc.cast(pa.array((pid * 11 + 9) % 100_000), pa.string())
    link2 = pc.binary_join_element_wise(
        '<a href="https://site', l2s, ".example/p/", l2p, '"></a>', "")
    links = pc.if_else(
        pa.array(pid % 2 == 0),
        pc.binary_join_element_wise(link1, link2, ""), link1)
    htmls = pc.cast(pc.binary_join_element_wise(
        "<html><head><title>p", pid_s,
        "</title><style>body{margin:0}</style></head><body>", noise,
        "<p>", body, "</p>", links,
        "<div>  </div></body></html>", ""), pa.binary())
    return pa.table({
        "url": urls,
        "warc_ts": pa.array(ts, pa.timestamp("s")),
        "html": htmls,
        "text": texts,
        "lang": langs,
    })


# ---------------------------------------------------------------------------
# OSM element builder
# ---------------------------------------------------------------------------

def _tag_maps(eoff: np.ndarray, keys, vals) -> pa.MapArray:
    """map<string,string> column from flat entries + per-row offsets."""
    return pa.MapArray.from_arrays(
        pa.array(np.asarray(eoff, dtype=np.int32), pa.int32()),
        pa.array(keys, pa.string()), pa.array(vals, pa.string()))


class _Builder:
    """Element accumulator with two write paths that share the id counters:
    scalar ``node``/``way``/``relation`` (fixed catalogue) and vectorised
    ``bulk_nodes``/``bulk_ways`` (the sf-scaled mass). Ids depend only on
    per-kind creation ORDER, so bulk segments interleave freely with the
    scalar path; output row order == creation order in both."""

    def __init__(self):
        self.n_id: list[int] = []
        self.n_lon: list[float] = []
        self.n_lat: list[float] = []
        self.n_tags: list[list[tuple[str, str]] | None] = []
        self.w_id: list[int] = []
        self.w_refs: list[list[int]] = []
        self.w_tags: list[list[tuple[str, str]]] = []
        self.r_id: list[int] = []
        self.r_members: list[list[tuple[int, str, str]]] = []
        self.r_tags: list[list[tuple[str, str]]] = []
        self._node_segs: list[dict] = []
        self._way_segs: list[dict] = []
        self._next_node = NODE_ID0
        self._next_way = WAY_ID0
        self._next_rel = REL_ID0

    def node(self, lon, lat, tags=None) -> int:
        nid = self._next_node
        self._next_node += 3  # sparse ids, like OSM
        self.n_id.append(nid)
        self.n_lon.append(float(lon))
        self.n_lat.append(float(lat))
        self.n_tags.append(list(tags.items()) if tags else [])
        return nid

    def nodes_for(self, coords) -> list[int]:
        return [self.node(x, y) for x, y in coords]

    def way(self, refs, tags) -> int:
        wid = self._next_way
        self._next_way += 7
        self.w_id.append(wid)
        self.w_refs.append([int(r) for r in refs])
        self.w_tags.append(list(tags.items()))
        return wid

    def ring_way(self, coords, tags) -> int:
        refs = self.nodes_for(coords)
        return self.way(refs + refs[:1], tags)

    def relation(self, members, tags) -> int:
        rid = self._next_rel
        self._next_rel += 11
        self.r_id.append(rid)
        self.r_members.append(members)
        self.r_tags.append(list(tags.items()))
        return rid

    # -- bulk (vectorised) path --------------------------------------------
    def _flush_nodes(self):
        if not self.n_id:
            return
        self._node_segs.append({
            "id": np.asarray(self.n_id, dtype=np.int64),
            "lon": np.asarray(self.n_lon, dtype=np.float64),
            "lat": np.asarray(self.n_lat, dtype=np.float64),
            "tags": pa.array(self.n_tags, TAGS_T)})
        self.n_id, self.n_lon, self.n_lat, self.n_tags = [], [], [], []

    def _flush_ways(self):
        if not self.w_id:
            return
        self._way_segs.append({
            "id": np.asarray(self.w_id, dtype=np.int64),
            "refs": pa.array(self.w_refs, pa.list_(pa.int64())),
            "tags": pa.array(self.w_tags, TAGS_T)})
        self.w_id, self.w_refs, self.w_tags = [], [], []

    def bulk_nodes(self, lon, lat, tags: pa.Array | None = None) -> np.ndarray:
        self._flush_nodes()
        n = len(lon)
        ids = self._next_node + 3 * np.arange(n, dtype=np.int64)
        self._next_node += 3 * n
        if tags is None:
            tags = _tag_maps(np.zeros(n + 1, dtype=np.int32), [], [])
        self._node_segs.append({
            "id": ids, "lon": np.asarray(lon, dtype=np.float64),
            "lat": np.asarray(lat, dtype=np.float64), "tags": tags})
        return ids

    def bulk_ways(self, refs_values, refs_offsets, tags: pa.Array) -> np.ndarray:
        self._flush_ways()
        n = len(refs_offsets) - 1
        ids = self._next_way + 7 * np.arange(n, dtype=np.int64)
        self._next_way += 7 * n
        refs = pa.ListArray.from_arrays(
            pa.array(np.asarray(refs_offsets, dtype=np.int32), pa.int32()),
            pa.array(np.asarray(refs_values, dtype=np.int64), pa.int64()))
        self._way_segs.append({"id": ids, "refs": refs, "tags": tags})
        return ids

    def bulk_rings(self, cx, cy, rr, k, phase) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``ring_way(_ring(...))`` over n rings: creates the ring
        nodes and returns ``(refs_values, refs_offsets)`` of the CLOSED ways
        (first node repeated) for a following :meth:`bulk_ways` call.
        Bit-identical to the scalar path: angles are ``phase + arange(k) *
        (2*pi/k)`` exactly as ``np.linspace(0, 2*pi, k, endpoint=False)``
        computes them."""
        n = len(cx)
        counts = np.asarray(k, dtype=np.int64)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        total = int(off[-1])
        ridx = np.repeat(np.arange(n, dtype=np.int64), counts)
        pos = np.arange(total, dtype=np.int64) - off[ridx]
        ang = np.asarray(phase, dtype=np.float64)[ridx] + \
            pos * ((2 * np.pi) / counts[ridx])
        lon = cx[ridx] + rr[ridx] * np.cos(ang)
        lat = cy[ridx] + rr[ridx] * np.sin(ang)
        nid = self.bulk_nodes(lon, lat)
        woff = off + np.arange(n + 1, dtype=np.int64)
        close_pos = woff[1:] - 1
        take = np.empty(total + n, dtype=np.int64)
        mask = np.ones(total + n, dtype=bool)
        mask[close_pos] = False
        take[mask] = np.arange(total, dtype=np.int64)
        take[close_pos] = off[:n]
        return nid[take], woff

    def finalize(self) -> tuple[dict, dict]:
        """(node columns, way columns) concatenated in creation order."""
        self._flush_nodes()
        self._flush_ways()
        nodes = {
            "id": np.concatenate([s["id"] for s in self._node_segs]),
            "lon": np.concatenate([s["lon"] for s in self._node_segs]),
            "lat": np.concatenate([s["lat"] for s in self._node_segs]),
            "tags": pa.chunked_array(
                [s["tags"] for s in self._node_segs], TAGS_T)}
        ways = {
            "id": np.concatenate([s["id"] for s in self._way_segs]),
            "refs": pa.chunked_array(
                [s["refs"] for s in self._way_segs], pa.list_(pa.int64())),
            "tags": pa.chunked_array(
                [s["tags"] for s in self._way_segs], TAGS_T)}
        return nodes, ways


def _ring(cx, cy, r, k=6, phase=0.0):
    ang = phase + np.linspace(0, 2 * np.pi, k, endpoint=False)
    return np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])


def _grid_roads(b: _Builder, rng, sf_scale: float):
    """Street grid across WORLD with per-street highway/oneway attributes."""
    g = int(round(16 * np.sqrt(sf_scale)))
    xs = np.linspace(WORLD[0] + 0.01, WORLD[2] - 0.01, g)
    ys = np.linspace(WORLD[1] + 0.005, WORLD[3] - 0.005, g)
    ids = b.bulk_nodes(np.repeat(xs, g), np.tile(ys, g)).reshape(g, g)
    hw_cycle = ["residential", "tertiary", "footway", "cycleway", "service",
                "motorway", "path", "secondary", "track", "steps",
                "primary", "pedestrian", "unclassified", "construction"]
    oneway_cycle = [None, "yes", None, "no", None, "-1", None, "T", "F",
                    None, "true", None, "1", None]
    h_tags = []
    for j in range(g):  # horizontal streets
        tags = {"highway": hw_cycle[j % len(hw_cycle)],
                "name": f"H Street {j}"}
        ow = oneway_cycle[j % len(oneway_cycle)]
        if ow:
            tags["oneway"] = ow
        if j % 17 == 3:
            tags["service"] = "private"
        if j % 13 == 5:
            tags["foot"] = "no"
        if j % 19 == 7:
            tags["bicycle"] = "no"
        if j % 23 == 9:
            tags["junction"] = "roundabout"
        if j % 11 == 4 and tags.get("oneway") == "yes":
            tags["oneway:bicycle"] = "no"
        h_tags.append(list(tags.items()))
    # horizontal street j's refs are grid column j -> ids.T rows
    b.bulk_ways(ids.T.ravel(), g * np.arange(g + 1, dtype=np.int64),
                pa.array(h_tags, TAGS_T))
    v_tags = []
    for i in range(g):  # vertical streets
        tags = {"highway": hw_cycle[(i + 5) % len(hw_cycle)],
                "name": f"V Street {i}", "maxspeed": str(30 + 10 * (i % 5))}
        if i % 7 == 2:
            tags["motor_vehicle"] = "no"
        if i % 29 == 11:
            tags["area"] = "yes"  # area-tagged street stays out of networks
        v_tags.append(list(tags.items()))
    b.bulk_ways(ids.ravel(), g * np.arange(g + 1, dtype=np.int64),
                pa.array(v_tags, TAGS_T))


_BUILDING_VALUES = ["yes", "residential", "retail", "commercial",
                    "industrial", "house", "apartments", "garage"]
_LANDUSE_VALUES = ["grass", "forest", "residential", "industrial",
                   "meadow", "farmland"]
_NATURAL_VALUES = ["water", "wood", "scrub", "wetland"]


def _bulk_areas(b: _Builder, rng, sf_scale: float):
    """Random closed-ring buildings / landuse / natural across WORLD."""
    n_b = int(600 * sf_scale)
    cx = rng.uniform(WORLD[0] + 0.002, WORLD[2] - 0.002, n_b)
    cy = rng.uniform(WORLD[1] + 0.002, WORLD[3] - 0.002, n_b)
    rr = rng.uniform(0.00005, 0.0004, n_b)
    i = np.arange(n_b, dtype=np.int64)
    phases = rng.uniform(0, 1.5, n_b)
    refs_v, refs_off = b.bulk_rings(cx, cy, rr, 4 + i % 5, phases)
    # tags: building (always), addr:street/housenumber (i%4==0), name (i%9==0)
    has_addr = (i % 4) == 0
    has_name = (i % 9) == 0
    ec = 1 + 2 * has_addr.astype(np.int64) + has_name
    eoff = np.zeros(n_b + 1, dtype=np.int64)
    np.cumsum(ec, out=eoff[1:])
    tot = int(eoff[-1])
    ridx = np.repeat(i, ec)
    epos = np.arange(tot, dtype=np.int64) - eoff[ridx]
    keys = np.empty(tot, dtype=object)
    vals = np.empty(tot, dtype=object)
    m0 = epos == 0
    keys[m0] = "building"
    vals[m0] = np.array(_BUILDING_VALUES, dtype=object)[
        i % len(_BUILDING_VALUES)]
    a1 = (epos == 1) & has_addr[ridx]
    keys[a1] = "addr:street"
    vals[a1] = np.array([f"Street {v}" for v in range(50)],
                        dtype=object)[ridx[a1] % 50]
    a2 = (epos == 2) & has_addr[ridx]
    keys[a2] = "addr:housenumber"
    vals[a2] = np.array([str(v) for v in range(200)],
                        dtype=object)[ridx[a2] % 200]
    nm = has_name[ridx] & (epos == 1 + 2 * has_addr[ridx])
    keys[nm] = "name"
    vals[nm] = np.char.add("Building ", ridx[nm].astype("U"))
    b.bulk_ways(refs_v, refs_off, _tag_maps(eoff, keys, vals))

    n_l = int(150 * sf_scale)
    cx = rng.uniform(WORLD[0], WORLD[2], n_l)
    cy = rng.uniform(WORLD[1], WORLD[3], n_l)
    rr = rng.uniform(0.0005, 0.004, n_l)
    j = np.arange(n_l, dtype=np.int64)
    refs_v, refs_off = b.bulk_rings(cx, cy, rr, np.full(n_l, 8, np.int64),
                                    np.zeros(n_l))
    nat = (j % 3) == 2
    keys = np.where(nat, "natural", "landuse").astype(object)
    vals = np.where(nat,
                    np.array(_NATURAL_VALUES, dtype=object)[
                        j % len(_NATURAL_VALUES)],
                    np.array(_LANDUSE_VALUES, dtype=object)[
                        j % len(_LANDUSE_VALUES)])
    b.bulk_ways(refs_v, refs_off,
                _tag_maps(np.arange(n_l + 1, dtype=np.int64), keys, vals))


def _poi_nodes(b: _Builder, rng, sf_scale: float):
    amen = ["restaurant", "cafe", "school", "bank", "pharmacy", "fuel",
            "library", "parking"]
    n = int(200 * sf_scale)
    lon = rng.uniform(WORLD[0], WORLD[2], n)
    lat = rng.uniform(WORLD[1], WORLD[3], n)
    i = np.arange(n, dtype=np.int64)
    br = i % 3  # 0: shop+name, 1: amenity+name, 2: tourism only
    oh = (i % 10) == 0
    base = np.where(br == 2, 1, 2)
    ec = base + oh
    eoff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ec, out=eoff[1:])
    tot = int(eoff[-1])
    ridx = np.repeat(i, ec)
    epos = np.arange(tot, dtype=np.int64) - eoff[ridx]
    keys = np.empty(tot, dtype=object)
    vals = np.empty(tot, dtype=object)
    m0 = epos == 0
    keys[m0] = np.where(br == 0, "shop",
                        np.where(br == 1, "amenity", "tourism")).astype(object)
    # i%3 inside each branch is constant: shop->"supermarket",
    # tourism->"viewpoint" (mirrors the scalar catalogue exactly)
    vals[m0] = np.where(br == 0, "supermarket",
                        np.where(br == 1,
                                 np.array(amen, dtype=object)[i % len(amen)],
                                 "viewpoint")).astype(object)
    nm = (epos == 1) & (br[ridx] != 2)
    keys[nm] = "name"
    i_str = i.astype("U")
    name_all = np.where(br == 0, np.char.add("Shop ", i_str),
                        np.char.add("POI ", i_str))
    vals[nm] = name_all[ridx[nm]].astype(object)
    mo = oh[ridx] & (epos == base[ridx])
    keys[mo] = "opening_hours"
    vals[mo] = "Mo-Fr 09:00-17:00"
    b.bulk_nodes(lon, lat, _tag_maps(eoff, keys, vals))


def _fixed_catalogue(b: _Builder):
    """Deterministic semantic edge cases inside/around TEST_BBOX (golden rows)."""
    x0, y0, x1, y1 = TEST_BBOX
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2

    # 12 golden in-box buildings
    for i in range(12):
        b.ring_way(_ring(x0 + 0.01 + (i % 4) * 0.02, y0 + 0.01 + (i // 4) * 0.02,
                         0.0008, k=4), {"building": "yes", "name": f"InBox {i}"})
    # 4 straddling the bbox east edge (some nodes out of box)
    for i in range(4):
        b.ring_way(_ring(x1, y0 + 0.012 * (i + 1), 0.0015, k=6),
                   {"building": "retail", "name": f"Straddle {i}"})
    # 4 fully outside, near the edge
    for i in range(4):
        b.ring_way(_ring(x1 + 0.02, y0 + 0.012 * (i + 1), 0.0008, k=4),
                   {"building": "yes", "name": f"OutBox {i}"})

    # closed-way typing rules
    b.ring_way(_ring(cx, cy + 0.002, 0.0006, k=5),
               {"highway": "residential", "area": "yes", "name": "AreaRoad"})
    b.ring_way(_ring(cx, cy + 0.004, 0.0006, k=5),
               {"barrier": "fence", "name": "FenceRing"})        # linear closed
    b.ring_way(_ring(cx, cy + 0.006, 0.0006, k=5),
               {"landuse": "grass", "area": "no", "name": "NoAreaGrass"})
    b.ring_way(_ring(cx, cy + 0.008, 0.0006, k=5),
               {"leisure": "park", "name": "ParkRing"})           # polygon

    # degenerate ways
    n1 = b.node(cx - 0.01, cy)
    b.way([n1], {"highway": "service", "name": "OneRef"})
    n2, n3 = b.node(cx - 0.011, cy), b.node(cx - 0.012, cy)
    b.way([n2, n3, n2], {"building": "yes", "name": "TriRing"})   # <4 coords ring
    n4 = b.node(cx - 0.013, cy)
    b.way([n4, n4, n4, n4], {"building": "yes", "name": "SamePoint"})
    b.way([999_999_001, 999_999_002, 999_999_003],
          {"highway": "path", "name": "AllMissing"})              # refs missing
    nn = b.nodes_for([(cx - 0.015, cy), (cx - 0.016, cy), (cx - 0.017, cy)])
    b.way(nn + [999_999_004], {"highway": "path", "name": "PartMissing"})
    nn2 = b.nodes_for([(cx - 0.02, cy - 0.001), (cx - 0.019, cy - 0.001)])
    b.way(nn2, {"highway": "footway", "id": "labelled-id", "name": "IdTag"})

    # relation catalogue --------------------------------------------------
    def ring_member_way(coords, tags=None):
        refs = b.nodes_for(coords)
        return b.way(refs + refs[:1], tags or {})

    # multipolygon with hole (members untagged -> always-keep rule)
    outer = ring_member_way(_ring(cx + 0.015, cy, 0.003, k=8))
    inner = ring_member_way(_ring(cx + 0.015, cy, 0.001, k=6))
    b.relation([(outer, "way", "outer"), (inner, "way", "inner")],
               {"type": "multipolygon", "building": "yes", "name": "MPHole"})

    # island-in-hole (even-odd: 3 nested rings)
    o2 = ring_member_way(_ring(cx + 0.025, cy, 0.003, k=8))
    h2 = ring_member_way(_ring(cx + 0.025, cy, 0.002, k=8))
    i2 = ring_member_way(_ring(cx + 0.025, cy, 0.0008, k=6))
    b.relation([(o2, "way", "outer"), (h2, "way", "inner"), (i2, "way", "outer")],
               {"type": "multipolygon", "landuse": "forest", "name": "Island"})

    # split outer ring: two open ways that stitch into one closed ring
    ring = _ring(cx + 0.035, cy, 0.002, k=8)
    half1, half2 = ring[:5], np.vstack([ring[4:], ring[:1]])
    w1 = b.way(b.nodes_for(half1), {})
    w2 = b.way(b.nodes_for(half2[1:-1]), {})
    # stitch: share endpoint nodes
    r1 = b.w_refs[-2]
    r2 = b.w_refs[-1]
    b.w_refs[-1] = [r1[-1]] + r2 + [r1[0]]
    b.relation([(w1, "way", "outer"), (w2, "way", "outer")],
               {"type": "multipolygon", "natural": "water", "name": "SplitRing"})

    # open (unclosable) member ring -> dropped; relation keeps valid ring
    ok = ring_member_way(_ring(cx + 0.045, cy, 0.002, k=6))
    openw = b.way(b.nodes_for(_ring(cx + 0.045, cy + 0.004, 0.002, k=6)[:4]), {})
    b.relation([(ok, "way", "outer"), (openw, "way", "outer")],
               {"type": "multipolygon", "landuse": "meadow", "name": "OpenDrop"})

    # straddling relation: one member in box, one outside
    m_in = ring_member_way(_ring(x1 - 0.002, cy - 0.02, 0.0015, k=6))
    m_out = ring_member_way(_ring(x1 + 0.03, cy - 0.02, 0.0015, k=6))
    b.relation([(m_in, "way", "outer"), (m_out, "way", "outer")],
               {"type": "multipolygon", "building": "yes", "name": "StraddleRel"})

    # route relation over open ways -> LineString
    rw1 = b.way(b.nodes_for([(cx, cy - 0.03), (cx + 0.01, cy - 0.03)]),
                {"highway": "track"})
    rw2 = b.way(b.nodes_for([(cx + 0.01, cy - 0.03), (cx + 0.02, cy - 0.031)]),
                {"highway": "track"})
    b.relation([(rw1, "way", ""), (rw2, "way", "")],
               {"type": "route", "route": "bicycle", "name": "BikeRoute"})

    # waterway route stays linestring
    ww = b.way(b.nodes_for([(cx, cy - 0.04), (cx + 0.015, cy - 0.041),
                            (cx + 0.03, cy - 0.04)]), {"waterway": "river"})
    b.relation([(ww, "way", "")],
               {"type": "waterway", "waterway": "river", "name": "TestRiver"})

    # admin boundary (polygon via type=boundary override)
    bw = ring_member_way(_ring(cx, cy - 0.05, 0.004, k=10))
    b.relation([(bw, "way", "outer")],
               {"type": "boundary", "boundary": "administrative",
                "admin_level": "8", "name": "Testville"})
    bw2 = ring_member_way(_ring(cx + 0.02, cy - 0.05, 0.004, k=10))
    b.relation([(bw2, "way", "outer")],
               {"type": "boundary", "boundary": "administrative",
                "admin_level": "8", "name": "Otherville"})

    # relation with a node member (ignored by way assembly)
    pn = b.node(cx, cy - 0.06, {"amenity": "townhall"})
    bw3 = ring_member_way(_ring(cx, cy - 0.06, 0.001, k=6))
    b.relation([(pn, "node", "admin_centre"), (bw3, "way", "outer")],
               {"type": "multipolygon", "building": "civic", "name": "NodeMember"})


def _gen_osm(sf: float):
    sf_scale = max(1.0, sf / 0.001)
    b = _Builder()
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
    _grid_roads(b, rng, sf_scale)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 2]))
    _bulk_areas(b, rng, sf_scale)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 3]))
    _poi_nodes(b, rng, sf_scale)
    _fixed_catalogue(b)

    ncols, wcols = b.finalize()
    n_nodes = len(ncols["id"])
    n_ways = len(wcols["id"])
    n_rels = len(b.r_id)
    rngm = np.random.default_rng(np.random.SeedSequence([SEED, 4]))

    def meta(n):
        return {
            "version": pa.array(rngm.integers(1, 9, n).astype(np.int32)),
            "changeset": pa.array(rngm.integers(1_000, 9_000_000, n).astype(np.int32)),
            "timestamp": pa.array(
                _TS0 + rngm.integers(0, 31_536_000, n).astype("timedelta64[s]"),
                pa.timestamp("s")),
            "visible": pa.array(np.ones(n, dtype=bool)),
        }

    nodes = pa.table({
        "id": pa.array(ncols["id"], pa.int64()),
        "lon": pa.array(ncols["lon"], pa.float64()),
        "lat": pa.array(ncols["lat"], pa.float64()),
        "tags": ncols["tags"],
        **meta(n_nodes),
    })
    ways = pa.table({
        "id": pa.array(wcols["id"], pa.int64()),
        "refs": wcols["refs"],
        "tags": wcols["tags"],
        **{k: v for k, v in meta(n_ways).items() if k != "changeset"},
    })
    # interleave way kinds across the file: catalogue order would pack
    # every highway way into one parquet row group, so at scale a single
    # read task carries the whole walking network (real OSM interleaves
    # element kinds throughout the id space). Deterministic permutation.
    perm = np.random.default_rng(
        np.random.SeedSequence([SEED, 6])).permutation(n_ways)
    ways = ways.take(pa.array(perm, pa.int64()))
    relations = pa.table({
        "id": pa.array(b.r_id, pa.int64()),
        "members": pa.array(
            [[{"member_id": m, "member_type": t, "member_role": r}
              for m, t, r in mem] for mem in b.r_members], MEMBERS_T),
        "tags": pa.array(b.r_tags, TAGS_T),
        **{k: v for k, v in meta(n_rels).items() if k != "changeset"},
    })

    # history: repeated node ids, increasing versions, last sometimes
    # invisible. Scales with sf (round-4: multi-version chains at sf3+
    # exercise the distributed latest_at route, not just the broadcast)
    h_n = min(n_nodes, max(500, n_nodes // 4))
    rngh = np.random.default_rng(np.random.SeedSequence([SEED, 5]))
    n_ver = rngh.integers(1, 4, h_n).astype(np.int64)
    total = int(n_ver.sum())
    off = np.zeros(h_n + 1, dtype=np.int64)
    np.cumsum(n_ver, out=off[1:])
    idx = np.repeat(np.arange(h_n, dtype=np.int64), n_ver)
    version = (np.arange(total, dtype=np.int64)
               - np.repeat(off[:-1], n_ver) + 1)
    is_last = version == np.repeat(n_ver, n_ver)
    history = pa.table({
        "id": pa.array(np.asarray(ncols["id"][:h_n],
                                  dtype=np.int64)[idx], pa.int64()),
        "lon": pa.array(np.asarray(ncols["lon"][:h_n])[idx]
                        + 0.0001 * version, pa.float64()),
        "lat": pa.array(np.asarray(ncols["lat"][:h_n])[idx],
                        pa.float64()),
        "tags": nodes["tags"].combine_chunks().take(pa.array(idx)),
        "version": pa.array(version.astype(np.int32)),
        "timestamp": pa.array(
            _TS0 + (version * 86400).astype("timedelta64[s]"),
            pa.timestamp("s")),
        "visible": pa.array(~(is_last & (idx % 11 == 0)), pa.bool_()),
    })
    return nodes, ways, relations, history


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def ensure_fixtures(sf: str | float, root: str = "/tmp/geograft_fixtures") -> Path:
    """Generate (if absent) and return the fixture directory for ``sf``."""
    d = fixture_dir(sf, root)
    marker = d / f".complete_v{GENERATOR_VERSION}"
    if marker.exists():
        return d
    if d.exists():
        shutil.rmtree(d)
    tmp = d.with_suffix(".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    sfv = parse_sf(sf)
    pq.write_table(_gen_pages(sfv), tmp / "pages.parquet",
                   row_group_size=64 * 1024)
    nodes, ways, relations, history = _gen_osm(sfv)
    pq.write_table(nodes, tmp / "osm_nodes.parquet", row_group_size=256 * 1024)
    pq.write_table(ways, tmp / "osm_ways.parquet", row_group_size=64 * 1024)
    pq.write_table(relations, tmp / "osm_relations.parquet")
    pq.write_table(history, tmp / "osm_history.parquet")
    os.replace(tmp, d)
    (d / f".complete_v{GENERATOR_VERSION}").touch()
    return d
