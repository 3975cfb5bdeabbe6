"""Layer pipelines: the pyrosm reader API re-expressed as Ray Data Datasets.

Mirrors the reference's layer modules (buildings/landuse/natural/pois/
boundary/networks/user_defined, each a thin filter+column preset over the
shared element tables — /root/reference/pyrosm/{buildings,landuse,natural,
pois,boundary,networks,user_defined}.py) and the assembly lifecycle
(pyrosm/data_manager.pyx:193-211 + pyrosm/frames.pyx:163-262):

1. relations filtered by tag predicate; their way-member ids collected and
   broadcast (small side — reference relation_way_ids always-keep rule);
2. ONE column-pruned pass over the ways table classifies every way as
   standalone (candidate-key gate + value filter, anti-join J4) and/or
   relation member; the filtered set is materialized once and feeds both
   branches (the reference reads the ways stream once per layer too);
3. node-ref coordinate join + way geometry typing
   (:mod:`pyrosm_ray.stages.topology`) as plain Ray tasks over a broadcast
   coordinate index (or the shuffle join once the node table is past
   ``COORDS_BROADCAST_MAX_BYTES``);
4. relation member-way chains built by one task per non-empty block of the
   kept ways, then ONE two-sided fold on the relation id
   (:func:`pyrosm_ray.stages.blocks.fold`) meets each relation's chains
   with its payload row and assembles it (:mod:`pyrosm_ray.geom.assembly`).
   The fold sizes itself from the input: one reduce task at the usual
   relation counts, a split past the fold ceiling;
5. node features as Point rows; the three element kinds union into one
   Dataset with an ``osm_type`` column (M26). The union schema is computed
   statically (promote_tags emits the full requested column list), so no
   branch executes early just to introspect its schema.

Geometry travels as WKB ``binary``; output column contract = promoted tag
columns + ``id, osm_type, geometry, tags`` (+ element metadata columns when
``keep_metadata=True`` — the reference's keep_meta lever,
pyrosm/pyrosm.py:347-353; metadata columns are never even read otherwise),
with never-occurring tag columns droppable via
:func:`pyrosm_ray.stages.tags.drop_empty_columns`.

bbox semantics (SURVEY.md §2 J2/J5/J6/J7): a way is kept when >=1 of its
refs lies in the box (complete-ways semi-join); kept ways' out-of-box
vertices still resolve (completion #236 is automatic — the coordinate index
spans the full node table); the final intersects filter runs per batch
against the box. ``complete_relations=True`` additionally pulls member ways
wholly outside the box (J6, pyrosm/pbfreader.pyx:554-599).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from pyrosm_ray.stages.blocks import Blocks, fold, unreserved

from pyrosm_ray import config
from pyrosm_ray.filters.compiler import CompiledFilter, compile_custom_filter
from pyrosm_ray.filters.semantics import TagBatchEvaluator
from pyrosm_ray.geom import ops
from pyrosm_ray.geom.assembly import relation_geometry
from pyrosm_ray.geom import wkb as wkblib
from pyrosm_ray.stages import topology
from pyrosm_ray.stages.tags import STRUCTURAL_COLUMNS, promote_tags

META_COLS = ("version", "changeset", "timestamp", "visible")


def _ensure_filter_key(custom_filter, key):
    """Reference ensure_filter_key: the layer key is always an OR term."""
    if isinstance(custom_filter, CompiledFilter):
        return custom_filter.or_require(key)
    if key not in custom_filter:
        out = dict(custom_filter)
        out[key] = True
        return out
    return custom_filter


def _filter_keys(data_filter, osm_keys):
    if osm_keys is not None:
        return [osm_keys] if isinstance(osm_keys, str) else list(osm_keys)
    if isinstance(data_filter, CompiledFilter):
        return data_filter.positive_keys
    if data_filter:
        return list(data_filter.keys())
    return []


def _promoted_names(tag_columns) -> list[str]:
    return [k + "_tag" if k in STRUCTURAL_COLUMNS else k for k in tag_columns]


class OSM:
    """Reader over the element Parquet tables (the reference ``OSM`` class
    reshaped for Ray: every getter returns a lazy ``ray.data.Dataset``)."""

    def __init__(self, src_dir: str, bounding_box=None,
                 keep_metadata: bool = False,
                 complete_relations: bool = False, timestamp=None):
        self.src = str(src_dir).rstrip("/")
        self._bbox_input = bounding_box
        self.bbox_rings = None  # polygon bounding box: list of (N,2) rings
        if bounding_box is None:
            self.bbox = None
        elif isinstance(bounding_box, (bytes, bytearray)):
            # WKB Polygon/MultiPolygon (the reference accepts shapely
            # polygons, pyrosm/utils validate_bounding_box; holes filter
            # with even-odd semantics)
            self.bbox_rings = wkblib.polygon_rings(bytes(bounding_box))
            xs = np.concatenate([r[:, 0] for r in self.bbox_rings])
            ys = np.concatenate([r[:, 1] for r in self.bbox_rings])
            self.bbox = (float(xs.min()), float(ys.min()),
                         float(xs.max()), float(ys.max()))
        else:
            arr = np.asarray(bounding_box, dtype=np.float64)
            if arr.ndim == 2 and arr.shape[1] == 2:
                # coordinate ring (closed or not)
                if len(arr) < 3 or len(np.unique(arr, axis=0)) < 3:
                    raise ValueError(
                        "Polygon bounding box needs >= 3 distinct vertices")
                if not np.array_equal(arr[0], arr[-1]):
                    arr = np.vstack([arr, arr[:1]])
                self.bbox_rings = [arr]
                self.bbox = (float(arr[:, 0].min()), float(arr[:, 1].min()),
                             float(arr[:, 0].max()), float(arr[:, 1].max()))
            else:
                bb = tuple(float(v) for v in bounding_box)
                # reference regression #241: inverted/degenerate boxes
                # fail construction, not a later read
                if len(bb) != 4 or not (bb[0] < bb[2] and bb[1] < bb[3]):
                    raise ValueError(
                        "Invalid bounding box: expected (minx, miny, maxx, "
                        f"maxy) with minx < maxx and miny < maxy, got {bb}")
                self.bbox = bb
        self.keep_metadata = keep_metadata
        self.complete_relations = complete_relations
        # history cutoff (reference timestamp contract,
        # pyrosm/pyrosm.py:383-391): element reads keep the latest
        # version per id with ts <= timestamp; invisible latest drops
        self.timestamp = timestamp
        self._coord_ref = None
        self._inbox_node_ids = None
        self._schemas: dict[str, pa.Schema] = {}
        self._kept_rel_cache: dict = {}
        self._element_cache: dict[tuple, rd.Dataset] = {}
        self._read_seen: dict[str, int] = {}

    # -- element tables ---------------------------------------------------
    def _path(self, table: str) -> str:
        return f"{self.src}/{table}.parquet"

    def _table_bytes(self, table: str) -> int:
        """On-disk size; element tables may be single files or fragment
        directories (the PBF on-ramp writes one fragment per blob)."""
        p = self._path(table)
        if os.path.isdir(p):
            return sum(e.stat().st_size for e in os.scandir(p)
                       if e.name.endswith(".parquet"))
        return os.path.getsize(p)

    def _schema(self, table: str) -> pa.Schema:
        if table not in self._schemas:
            p = self._path(table)
            if os.path.isdir(p):
                frags = sorted(e.path for e in os.scandir(p)
                               if e.name.endswith(".parquet"))
                if not frags:
                    raise FileNotFoundError(
                        f"{p} is a fragment directory with no .parquet "
                        f"fragments; pbf_to_parquet writes a zero-row "
                        f"typed fragment for empty tables — regenerate "
                        f"or add one")
                self._schemas[table] = pq.read_schema(frags[0])
            else:
                self._schemas[table] = pq.read_schema(p)
        return self._schemas[table]

    def _meta_cols(self, table: str) -> list[str]:
        """Element metadata columns present on ``table`` (read only when
        ``keep_metadata`` — the documented −23%% wall / −RSS lever)."""
        if not self.keep_metadata:
            return []
        names = set(self._schema(table).names)
        return [c for c in META_COLS if c in names]

    # block sizing: ~1 MB of parquet per block (reference bounds shards at
    # ~8 MB raw, pyrosm/engine/decode.py:20-24). Data-dependent, NOT
    # CPU-dependent, so the same input produces the same task graph at any
    # parallelism level (cluster scaling varies only the worker count).
    BLOCK_TARGET_BYTES = 1 << 20

    def _auto_blocks(self, table: str) -> int:
        size = self._table_bytes(table)
        return int(np.clip(size // self.BLOCK_TARGET_BYTES, 1, 4096))

    def _read(self, table: str, columns=None) -> rd.Dataset:
        """Element read with parse-once caching (ST2, reference
        pyrosm/pyrosm.py:195-271 `_nodes`/`_way_records`/`_relations`),
        cache-on-reuse form: the FIRST read of a table streams fully
        fused (a single-getter job pays zero caching tax — materialising
        up-front serialized the read behind a barrier and cost the
        headline getter 3-6x at sf0.1); the SECOND read materialises its
        blocks in the object store and every later getter reuses them
        (column subsets select from a cached superset), so an N-layer
        workflow reads the input at most twice instead of N times. The
        cache is per OSM instance — history reads go through `_at()`
        twins, so a timestamp change never sees stale blocks."""
        want = None if columns is None else tuple(columns)
        for (t, cols), ds in self._element_cache.items():
            if t != table:
                continue
            if cols is None or (want is not None
                                and set(want) <= set(cols)):
                if want is not None and want != cols:
                    return ds.select_columns(list(want))
                return ds
        seen = self._read_seen.get(table, 0)
        self._read_seen[table] = seen + 1
        if seen == 0:  # first use: stream, keep the read fused
            return self._read_uncached(table, columns)
        ds = unreserved(self._read_uncached(table, columns).materialize())
        self._element_cache[(table, want)] = ds
        return ds

    def _read_uncached(self, table: str, columns=None) -> rd.Dataset:
        # row-group-splitting reader: ray.data.read_parquet plans one task
        # per FILE, so a single-file element table would decode serially
        # and cap the whole layer pipeline's parallelism (the round-2
        # anti-scaling root cause)
        from pyrosm_ray.sources.parquet import read_parquet_split
        blocks = self._auto_blocks(table)
        if self.timestamp is None:
            return read_parquet_split(self._path(table), columns=columns,
                                      num_blocks=blocks)
        # history cutoff: the merge needs the version/timestamp/visible
        # columns even when the caller pruned them away
        names = set(self._schema(table).names)
        if not {"version", "timestamp"} <= names:
            return read_parquet_split(self._path(table), columns=columns,
                                      num_blocks=blocks)
        from pyrosm_ray.stages.history import latest_at_bucketed
        need = None if columns is None else sorted(
            set(columns) | ({"id", "version", "timestamp", "visible"}
                            & names))
        ds = read_parquet_split(self._path(table), columns=need,
                                num_blocks=blocks)
        ds = latest_at_bucketed(
            ds, self.timestamp,
            visible_col="visible" if "visible" in names else None)
        if columns is not None:
            ds = ds.map_batches(lambda b: b.select(list(columns)),
                                batch_format="pyarrow")
        return ds

    def nodes(self, columns=None) -> rd.Dataset:
        return self._read("osm_nodes", columns)

    def ways(self, columns=None) -> rd.Dataset:
        return self._read("osm_ways", columns)

    def relations(self, columns=None) -> rd.Dataset:
        return self._read("osm_relations", columns)

    # -- shared broadcast state ------------------------------------------
    # below this on-disk size one driver pyarrow read beats the task
    # round-trips of the sharded build; above it the build runs fully
    # distributed (route by id range, per-shard parallel sort) so the
    # driver never serialises a node-count-proportional pass
    COORDS_DRIVER_FAST_MAX_BYTES = 64 << 20

    def coord_ref(self):
        if self._coord_ref is None:
            path = self._path("osm_nodes")
            if self._table_bytes("osm_nodes") <= \
                    self.COORDS_DRIVER_FAST_MAX_BYTES:
                # local-file fast path: one pyarrow read beats a Ray round
                # trip; the object-store broadcast is identical either way
                names = set(self._schema("osm_nodes").names)
                if self.timestamp is not None and \
                        {"version", "timestamp"} <= names:
                    cols = ["id", "lon", "lat", "version", "timestamp"] + \
                        (["visible"] if "visible" in names else [])
                    t = _latest_at_table(pq.read_table(path, columns=cols),
                                         self.timestamp)
                else:
                    t = pq.read_table(path, columns=["id", "lon", "lat"])
                ids = np.asarray(t["id"].to_numpy(zero_copy_only=False))
                order = np.argsort(ids, kind="stable")
                self._coord_ref = ray.put((
                    ids[order],
                    np.asarray(t["lon"].to_numpy(
                        zero_copy_only=False))[order],
                    np.asarray(t["lat"].to_numpy(
                        zero_copy_only=False))[order]))
            else:
                self._coord_ref = topology.build_coord_index_sharded(
                    self.nodes(columns=["id", "lon", "lat"]))
        return self._coord_ref

    def point_mask(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Point-in-bounding-box predicate (M9): rectangle test, or
        even-odd over the polygon rings when the box is a polygon."""
        x0, y0, x1, y1 = self.bbox
        m = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
        if self.bbox_rings is not None:
            m &= ops.points_in_rings_even_odd(self.bbox_rings, lon, lat)
        return m

    def inbox_node_ids(self):
        """Sorted in-box node id array (bbox semi-join side, broadcast)."""
        if self.bbox is None:
            return None
        if self._inbox_node_ids is None:
            ids = []
            for b in self.nodes(columns=["id", "lon", "lat"]).iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"):
                lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False))
                lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
                m = self.point_mask(lon, lat)
                ids.append(np.asarray(
                    b["id"].to_numpy(zero_copy_only=False))[m])
            arr = np.sort(np.concatenate(ids)) if ids else np.empty(
                0, dtype=np.int64)
            self._inbox_node_ids = ray.put(arr)
        return self._inbox_node_ids

    # -- layer getters (reference API surface) ----------------------------
    def get_network(self, network_type: str = "walking",
                    extra_attributes=None, nodes: bool = False,
                    custom_filter=None, filter_type: str | None = None,
                    tags_to_keep=None, timestamp=None):
        if timestamp is not None and timestamp != self.timestamp:
            # history read: a timestamped twin re-derives coordinate
            # state (coordinates may differ at the cutoff)
            return self._at(timestamp).get_network(
                network_type, extra_attributes, nodes, custom_filter,
                filter_type, tags_to_keep)
        return self._get_network(network_type, extra_attributes, nodes,
                                 custom_filter, filter_type, tags_to_keep)

    def _get_network(self, network_type: str = "walking",
                     extra_attributes=None, nodes: bool = False,
                     custom_filter=None, filter_type: str | None = None,
                     tags_to_keep=None):
        """Edges of the routable network (exclude-type preset filters,
        pyrosm/pyrosm.py:409-466). ``nodes=True`` returns
        ``(nodes_ds, segment_edges_ds)`` — one row per 2-point segment with
        ``u``/``v`` node ids (graph-export contract, frames.pyx:77-100),
        node set semi-joined to referenced endpoints (J8).

        ``custom_filter`` REPLACES the preset's way filter (reference
        pyrosm.py:409-466: network_type still validates, but selection is
        the custom filter's); an advanced (regex/bracket) filter defaults
        ``filter_type`` to 'keep' and selects by its own positive keys, a
        plain dict defaults to 'exclude' over highway ways.
        ``tags_to_keep`` overrides the highway tag-column set."""
        data_filter = config.network_filter(network_type)  # validates type
        osm_keys = ["highway"]
        tag_cols = list(tags_to_keep) if tags_to_keep is not None \
            else list(config.TAG_COLUMNS["highway"])
        if custom_filter is not None:
            cf = compile_custom_filter(custom_filter)
            advanced = isinstance(cf, CompiledFilter)
            if filter_type is None:
                filter_type = "keep" if advanced else "exclude"
            data_filter = cf
            if advanced:
                osm_keys = list(cf.positive_keys)
                tag_cols += [k for k in osm_keys if k not in tag_cols]
            else:
                tag_cols += [k for k in cf if k not in tag_cols]
        if filter_type is None:
            filter_type = "exclude"
        if filter_type not in ("keep", "exclude"):
            raise ValueError(
                "'filter_type' should be either 'keep' or 'exclude'.")
        if extra_attributes:
            tag_cols += [c for c in extra_attributes if c not in tag_cols]
        mode = "network_segments" if nodes else "network"
        edges = self._layer(
            osm_keys=osm_keys, data_filter=data_filter,
            filter_type=filter_type, tag_columns=tag_cols, mode=mode,
            keep_nodes=False, keep_ways=True, keep_relations=False)
        if not nodes:
            return edges
        edges = unreserved(edges.materialize())
        parts = []
        for b in edges.select_columns(["u", "v"]).iter_batches(
                batch_size=1 << 18, batch_format="pyarrow"):
            parts.append(np.unique(np.concatenate([
                np.asarray(b["u"].to_numpy(zero_copy_only=False)),
                np.asarray(b["v"].to_numpy(zero_copy_only=False))])))
        id_arr = np.unique(np.concatenate(parts)) if parts else \
            np.empty(0, dtype=np.int64)
        id_ref = ray.put(id_arr)

        def node_semi(batch: pa.Table) -> pa.Table:
            arr = ray.get(id_ref)
            nid = np.asarray(batch["id"].to_numpy(zero_copy_only=False))
            pos = np.clip(np.searchsorted(arr, nid), 0, max(len(arr) - 1, 0))
            m = arr[pos] == nid if len(arr) else np.zeros(len(nid), bool)
            return batch.filter(pa.array(m))

        node_cols = ["id", "lon", "lat", "tags"] + self._meta_cols("osm_nodes")
        node_ds = self.nodes(columns=node_cols).map_batches(
            node_semi, batch_format="pyarrow")
        return node_ds, edges

    def _at(self, timestamp):
        """Self, or a timestamped twin for history reads (getter-level
        ``timestamp`` params, reference pyrosm.py get_* signatures)."""
        if timestamp is None or timestamp == self.timestamp:
            return self
        return OSM(self.src, self._bbox_input,
                   keep_metadata=self.keep_metadata,
                   complete_relations=self.complete_relations,
                   timestamp=timestamp)

    @staticmethod
    def _with_extra(tag_cols: list[str], extra_attributes) -> list[str]:
        if extra_attributes:
            tag_cols = tag_cols + [c for c in extra_attributes
                                   if c not in tag_cols]
        return tag_cols

    def get_buildings(self, custom_filter=None, extra_attributes=None,
                      timestamp=None) -> rd.Dataset:
        if timestamp is not None and timestamp != self.timestamp:
            return self._at(timestamp).get_buildings(
                custom_filter, extra_attributes)
        f = compile_custom_filter(custom_filter) if custom_filter is not None \
            else {"building": [True]}
        f = _ensure_filter_key(f, "building")
        return self._layer(
            osm_keys=_filter_keys(f, None), data_filter=f, filter_type="keep",
            tag_columns=self._with_extra(
                list(config.TAG_COLUMNS["building"]), extra_attributes),
            mode="area",
            keep_nodes=False, keep_ways=True, keep_relations=True)

    def get_landuse(self, custom_filter=None, extra_attributes=None,
                    timestamp=None) -> rd.Dataset:
        if timestamp is not None and timestamp != self.timestamp:
            return self._at(timestamp).get_landuse(
                custom_filter, extra_attributes)
        f = compile_custom_filter(custom_filter) if custom_filter is not None \
            else {"landuse": [True]}
        f = _ensure_filter_key(f, "landuse")
        return self._layer(
            osm_keys=_filter_keys(f, None), data_filter=f, filter_type="keep",
            tag_columns=self._with_extra(
                list(config.TAG_COLUMNS["landuse"]), extra_attributes),
            mode="area",
            keep_nodes=True, keep_ways=True, keep_relations=True)

    def get_natural(self, custom_filter=None, extra_attributes=None,
                    timestamp=None) -> rd.Dataset:
        if timestamp is not None and timestamp != self.timestamp:
            return self._at(timestamp).get_natural(
                custom_filter, extra_attributes)
        f = compile_custom_filter(custom_filter) if custom_filter is not None \
            else {"natural": [True]}
        f = _ensure_filter_key(f, "natural")
        return self._layer(
            osm_keys=_filter_keys(f, None), data_filter=f, filter_type="keep",
            tag_columns=self._with_extra(
                list(config.TAG_COLUMNS["natural"]), extra_attributes),
            mode="area",
            keep_nodes=True, keep_ways=True, keep_relations=True)

    def get_pois(self, custom_filter=None, extra_attributes=None,
                 timestamp=None) -> rd.Dataset:
        """POIs default to {amenity,shop,tourism}: True
        (pyrosm/pyrosm.py:972-977)."""
        if timestamp is not None and timestamp != self.timestamp:
            return self._at(timestamp).get_pois(
                custom_filter, extra_attributes)
        f = compile_custom_filter(custom_filter) if custom_filter is not None \
            else {"amenity": True, "shop": True, "tourism": True}
        keys = _filter_keys(f, None)
        tag_cols = sorted({c for k in keys if k in config.TAG_COLUMNS
                           for c in config.TAG_COLUMNS[k]}
                          | set(config.BASIC_INFO_TAGS) | set(keys))
        return self._layer(
            osm_keys=keys, data_filter=f, filter_type="keep",
            tag_columns=self._with_extra(tag_cols, extra_attributes),
            mode="area",
            keep_nodes=True, keep_ways=True, keep_relations=True)

    def get_boundaries(self, boundary_type: str = "administrative",
                       name: str | None = None, extra_attributes=None,
                       timestamp=None) -> rd.Dataset:
        if timestamp is not None and timestamp != self.timestamp:
            return self._at(timestamp).get_boundaries(
                boundary_type, name, extra_attributes)
        f = {"boundary": True} if boundary_type == "all" else \
            {"boundary": [boundary_type]}
        ds = self._layer(
            osm_keys=["boundary"], data_filter=f, filter_type="keep",
            tag_columns=self._with_extra(
                list(config.TAG_COLUMNS["boundary"]), extra_attributes),
            mode="area",
            keep_nodes=False, keep_ways=True, keep_relations=True)
        if name:
            # substring match on the name column (pyrosm/boundary.py:70-81)
            def name_filter(batch: pa.Table) -> pa.Table:
                if "name" not in batch.column_names:
                    return batch.slice(0, 0)
                m = pc.match_substring(
                    pc.fill_null(batch["name"], ""), name)
                return batch.filter(m)
            ds = ds.map_batches(name_filter, batch_format="pyarrow")
        return ds

    def get_data_by_custom_criteria(
            self, custom_filter, osm_keys_to_keep=None,
            filter_type: str = "keep", keep_nodes: bool = True,
            keep_ways: bool = True, keep_relations: bool = True,
            tags_as_columns=None) -> rd.Dataset:
        """Generic query API (pyrosm/pyrosm.py:1019-1125);
        custom_filter=None = keep every tagged element."""
        f = compile_custom_filter(custom_filter)
        keep_all = f is None
        keys = _filter_keys(f, osm_keys_to_keep)
        if tags_as_columns is None:
            tags_as_columns = sorted(
                {c for k in keys if k in config.TAG_COLUMNS
                 for c in config.TAG_COLUMNS[k]} | set(keys)
                | set(config.BASIC_INFO_TAGS))
        return self._layer(
            osm_keys=keys, data_filter=f, filter_type=filter_type,
            tag_columns=list(tags_as_columns), mode="area",
            keep_nodes=keep_nodes, keep_ways=keep_ways,
            keep_relations=keep_relations, keep_all=keep_all)

    # -- core layer assembly ----------------------------------------------
    def _layer(self, osm_keys, data_filter, filter_type, tag_columns, mode,
               keep_nodes, keep_ways, keep_relations,
               keep_all=False) -> rd.Dataset:
        tag_columns = list(dict.fromkeys(tag_columns))
        complete_relations = self.complete_relations
        parts: list[tuple[str, rd.Dataset]] = []

        member_ref = None
        rel_kept = None
        if keep_relations:
            rel_kept, member_ids = self._kept_relations(
                osm_keys, data_filter, filter_type, keep_all)
            if rel_kept is None:
                keep_relations = False
            else:
                member_ref = ray.put(member_ids)

        if keep_ways or keep_relations:
            way_cols = ["id", "refs", "tags"] + self._meta_cols("osm_ways")
            ways = self.ways(columns=way_cols)
            inbox_ref = self.inbox_node_ids()

            def way_filter(batch: pa.Table) -> pa.Table:
                """ONE pass: classify standalone vs relation-member, apply
                the bbox semi-join, keep the union, flag members."""
                ev = TagBatchEvaluator(batch["tags"])
                ids = np.asarray(batch["id"].to_numpy(zero_copy_only=False),
                                 dtype=np.int64)
                member = np.zeros(len(batch), dtype=bool)
                if member_ref is not None:
                    mids = ray.get(member_ref)
                    if len(mids):
                        pos = np.searchsorted(mids, ids)
                        pos = np.clip(pos, 0, len(mids) - 1)
                        member = mids[pos] == ids
                touches = None
                if inbox_ref is not None:
                    touches = _way_touches_nodes(batch, ray.get(inbox_ref))
                if keep_ways:
                    stand = ev.keep_mask(osm_keys, data_filter, filter_type,
                                         keep_all=keep_all) & ~member
                    if touches is not None:
                        stand &= touches
                else:
                    stand = np.zeros(len(batch), dtype=bool)
                memb = member if keep_relations else \
                    np.zeros(len(batch), dtype=bool)
                if touches is not None and not complete_relations:
                    memb = memb & touches
                keep = stand | memb
                out = batch.filter(pa.array(keep))
                return out.append_column(
                    "__member", pa.array(memb[keep], pa.bool_()))

            filtered = ways.map_batches(way_filter, batch_format="pyarrow")
            both = keep_ways and keep_relations
            if both:
                # the kept set (a small fraction of the ways table) feeds
                # both branches; materializing it avoids a second full
                # read+filter pass (blocks spill to disk past memory)
                filtered = unreserved(filtered.materialize())

            if keep_ways:
                def promote_standalone(batch: pa.Table) -> pa.Table:
                    if both:
                        batch = batch.filter(
                            pc.invert(batch["__member"]))
                    batch = batch.drop_columns(["__member"])
                    return promote_tags(batch, tag_columns)

                standalone = filtered.map_batches(
                    promote_standalone, batch_format="pyarrow")
                parts.append(("way", self._assemble(standalone, mode)))

            if keep_relations:
                parts.append(("relation", self._assemble_relations(
                    rel_kept, filtered, tag_columns)))

        if keep_nodes:
            parts.append(("node", self._node_features(
                osm_keys, data_filter, filter_type, keep_all, tag_columns)))

        out = self._union_parts(parts, tag_columns, mode, keep_nodes)
        if self.bbox_rings is not None:
            out = filter_intersects_poly(out, self.bbox_rings, self.bbox)
        elif self.bbox is not None:
            out = filter_intersects_bbox(out, self.bbox)
        return out

    def _union_parts(self, parts, tag_columns, mode, keep_nodes):
        """Align every part to the statically-known union schema and union.

        promote_tags emits the full requested column list per batch, so the
        union schema never needs a (partial-execution-triggering)
        ``Dataset.schema()`` call."""
        target: dict[str, pa.DataType] = {"id": pa.int64()}
        for nm in _promoted_names(tag_columns):
            target[nm] = pa.string()
        target["tags"] = pa.string()
        if keep_nodes:
            target["lon"] = pa.float64()
            target["lat"] = pa.float64()
        if self.keep_metadata:
            tables = ["osm_ways", "osm_relations"] + \
                (["osm_nodes"] if keep_nodes else [])
            for tbl in tables:
                sch = self._schema(tbl)
                for c in self._meta_cols(tbl):
                    if c not in target:
                        target[c] = sch.field(c).type
        if mode == "network_segments":
            target["u"] = pa.int64()
            target["v"] = pa.int64()
        if mode in ("network", "network_segments"):
            target["length"] = pa.float64()
        target["geometry"] = pa.binary()
        target["osm_type"] = pa.string()
        names = list(target)

        datasets = []
        for osm_type, ds in parts:
            def align(batch: pa.Table, t=osm_type) -> pa.Table:
                # one name set per batch: ``column_names`` builds a fresh
                # list on every call, and a layer has hundreds of columns
                have = set(batch.schema.names)
                cols = {}
                for name in names:
                    if name == "osm_type":
                        cols[name] = pa.array([t] * len(batch), pa.string())
                    elif name in have:
                        col = batch.column(name)
                        if pa.types.is_null(col.type):
                            col = pa.nulls(len(batch), target[name])
                        cols[name] = col
                    else:
                        cols[name] = pa.nulls(len(batch), target[name])
                return pa.table(cols)
            datasets.append(ds.map_batches(align, batch_format="pyarrow"))
        out = datasets[0]
        for d in datasets[1:]:
            out = out.union(d)
        return out

    # -- helpers ----------------------------------------------------------
    RELATIONS_DRIVER_MAX_BYTES = 256 << 20

    def _kept_relations(self, osm_keys, data_filter, filter_type, keep_all):
        """Filter relations; return (kept relations as an in-memory Arrow
        table, sorted way-member id array). Memoised per filter signature
        (ST2 parse-once contract — the relation table is the small side
        and several getters share the same filter). Relations are the small side by
        construction (~0.1%% of elements): under 256 MB on disk they are
        filtered driver-side with the same vectorised evaluator (saves
        serialized Ray executions per layer); above that, a distributed
        filter collects only the (already-filtered) kept set."""
        df_key = repr(sorted(data_filter.items())) \
            if isinstance(data_filter, dict) else repr(data_filter)
        sig = (tuple(sorted(osm_keys or [])), df_key, filter_type, keep_all)
        if sig in self._kept_rel_cache:
            return self._kept_rel_cache[sig]
        path = self._path("osm_relations")
        if self._table_bytes("osm_relations") <= \
                self.RELATIONS_DRIVER_MAX_BYTES:
            t = pq.read_table(path)
            if self.timestamp is not None and \
                    {"version", "timestamp"} <= set(t.column_names):
                t = _latest_at_table(t, self.timestamp)
            ev = TagBatchEvaluator(t["tags"])
            mask = ev.keep_mask(osm_keys, data_filter, filter_type,
                                keep_all=keep_all)
            kept_t = t.filter(pa.array(mask))
        else:
            kept = unreserved(self.relations().map_batches(
                lambda b: b.filter(pa.array(
                    TagBatchEvaluator(b["tags"]).keep_mask(
                        osm_keys, data_filter, filter_type,
                        keep_all=keep_all))),
                batch_format="pyarrow").materialize())
            kept_t = pa.concat_tables(
                [pa.table(b) for b in kept.iter_batches(
                    batch_size=1 << 16, batch_format="pyarrow")])
        if kept_t.num_rows == 0:
            return None, np.empty(0, dtype=np.int64)
        members = kept_t["members"].combine_chunks()
        flat = members.flatten()
        mtype = np.asarray(flat.field("member_type").to_numpy(
            zero_copy_only=False), dtype=object)
        mid = np.asarray(flat.field("member_id").to_numpy(
            zero_copy_only=False), dtype=np.int64)
        member_ids = np.unique(mid[mtype == "way"])
        self._kept_rel_cache[sig] = (kept_t, member_ids)
        return kept_t, member_ids

    # beyond this node-table size even the sharded broadcast index stops
    # fitting the object-store contract; route to the shuffle join
    COORDS_BROADCAST_MAX_BYTES = 8 << 30

    def _assemble(self, ways_ds, mode):
        if self._table_bytes("osm_nodes") > self.COORDS_BROADCAST_MAX_BYTES:
            return topology.assemble_ways(
                ways_ds, self.nodes(columns=["id", "lon", "lat"]), mode=mode)
        return ways_ds.map_batches(
            functools.partial(topology.assemble_ways_batch,
                              coord_ref=self.coord_ref(), mode=mode),
            batch_format="pyarrow", batch_size=16 * 1024)

    def _node_features(self, osm_keys, data_filter, filter_type, keep_all,
                       tag_columns):
        node_cols = ["id", "lon", "lat", "tags"] + self._meta_cols("osm_nodes")
        nodes = self.nodes(columns=node_cols)
        bbox = self.bbox
        rings = self.bbox_rings

        def node_filter(batch: pa.Table) -> pa.Table:
            ev = TagBatchEvaluator(batch["tags"])
            mask = ev.keep_mask(osm_keys, data_filter, filter_type,
                                keep_all=keep_all)
            if bbox is not None:
                lon = np.asarray(batch["lon"].to_numpy(zero_copy_only=False))
                lat = np.asarray(batch["lat"].to_numpy(zero_copy_only=False))
                mask &= ((lon >= bbox[0]) & (lon <= bbox[2])
                         & (lat >= bbox[1]) & (lat <= bbox[3]))
                if rings is not None:
                    mask &= ops.points_in_rings_even_odd(rings, lon, lat)
            batch = batch.filter(pa.array(mask))
            out = promote_tags(batch, tag_columns)
            xs = np.asarray(out["lon"].to_numpy(zero_copy_only=False))
            ys = np.asarray(out["lat"].to_numpy(zero_copy_only=False))
            return out.append_column(
                "geometry", pa.array(wkblib.points_wkb(xs, ys), pa.binary()))

        return nodes.map_batches(node_filter, batch_format="pyarrow")

    def to_graph(self, nodes_ds, edges_ds, graph_type: str = "networkx",
                 direction: str = "oneway", force_bidirectional: bool = False,
                 simplify: bool = False, retain_all: bool = False,
                 network_type: str | None = None):
        """Routable-graph export (reference ``OSM.to_graph``,
        pyrosm/pyrosm.py graph path): directed-edge expansion (M27) ->
        optional topological simplification -> largest-SCC restriction ->
        OSMnx-compatible MultiDiGraph (M28). Input is the
        ``get_network(..., nodes=True)`` pair.

        ``network_type`` applies the reference's per-type direction rule
        (pyrosm/graphs.py:99-128): walking and "all" networks export
        bidirectional regardless of ``oneway``; cycling honours
        ``oneway:bicycle`` contraflow overrides; driving honours plain
        ``oneway``. The reference detects the type from GeoDataFrame
        metadata its getters attach — Datasets carry no metadata, so
        here it is an explicit parameter."""
        from pyrosm_ray.pipelines.graph import (directed_edges, to_igraph,
                                                to_networkx, to_pandana)
        from pyrosm_ray.pipelines.simplify import simplify_graph
        exporters = {"networkx": None, "igraph": to_igraph,
                     "pandana": to_pandana}
        if graph_type not in exporters:
            raise ValueError(f"graph_type must be one of {set(exporters)}")
        direction_suffix = None
        if ":" in direction:
            direction, direction_suffix = direction.split(":", 1)
        if direction_suffix is None and network_type == "cycling":
            direction_suffix = "bicycle"
        if network_type in ("walking", "all"):
            force_bidirectional = True
        d = directed_edges(edges_ds, direction=direction,
                           direction_suffix=direction_suffix,
                           force_bidirectional=force_bidirectional)
        edges_df = d.to_pandas()
        nodes_df = nodes_ds.to_pandas()
        if simplify:
            nodes_df, edges_df = simplify_graph(nodes_df, edges_df)
        if graph_type == "networkx":
            return to_networkx(nodes_df, edges_df, retain_all=retain_all)
        # igraph/pandana raise a clear ImportError when the lib is absent
        # (reference graph_export.pyx HAS_IGRAPH/HAS_PANDANA guards)
        return exporters[graph_type](nodes_df, edges_df)

    def to_pbf(self, output_path: str, keep_relations: bool = True) -> str:
        """Crop the element tables by this object's ``bbox`` (complete-ways
        semantics) and write a valid ``.osm.pbf`` (reference ``OSM.to_pbf``,
        pyrosm/pyrosm.py:1208-1285 / crop_pbf pbf_export.pyx:551-638).

        Selection runs distributed (in-box node filter, way semi-join via a
        broadcast sorted id set, node closure); the kept set is collected
        and encoded driver-side — a crop output is small by contract, and
        PBF is a sequential container (the reference holds the same
        driver-side write contract)."""
        from pyrosm_ray.sources.pbf_write import write_pbf_auto
        if self.bbox is None:
            raise ValueError(
                "Cropping requires a bounding box. Construct the OSM "
                "object with OSM(path, bounding_box=...) before to_pbf().")
        x0, y0, x1, y1 = self.bbox

        def inbox(b: pa.Table) -> pa.Table:
            lon = np.asarray(b["lon"].to_numpy(zero_copy_only=False))
            lat = np.asarray(b["lat"].to_numpy(zero_copy_only=False))
            return b.select(["id"]).filter(pa.array(
                (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)))

        inbox_ids = np.sort(np.concatenate([
            np.asarray(b["id"].to_numpy(zero_copy_only=False))
            for b in self.nodes(columns=["id", "lon", "lat"]).map_batches(
                inbox, batch_format="pyarrow").iter_batches(
                batch_size=1 << 16, batch_format="pyarrow")] or
            [np.empty(0, np.int64)]))
        id_ref = ray.put(inbox_ids)

        def keep_ways(b: pa.Table) -> pa.Table:
            ids = ray.get(id_ref)
            refs = b["refs"].combine_chunks()
            off = np.asarray(refs.offsets, dtype=np.int64)
            flat = np.asarray(refs.values.to_numpy(zero_copy_only=False))
            hit = np.zeros(len(flat) + 1, dtype=np.int64)
            np.cumsum(_in_sorted(flat, ids), out=hit[1:])
            return b.filter(pa.array(hit[off[1:]] - hit[off[:-1]] > 0))

        ways_cols = ["id", "refs", "tags"] + self._meta_cols("osm_ways")
        kept_ways = pa.concat_tables([
            pa.table(b) for b in self.ways(columns=ways_cols).map_batches(
                keep_ways, batch_format="pyarrow").iter_batches(
                batch_size=1 << 16, batch_format="pyarrow")])

        # complete ways: pull every ref'd node, in-box or not
        need = np.unique(np.concatenate([
            np.asarray(kept_ways["refs"].combine_chunks().values
                       .to_numpy(zero_copy_only=False)), inbox_ids])) \
            if len(kept_ways) else inbox_ids
        need_ref = ray.put(need)

        def keep_nodes(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["id"].to_numpy(zero_copy_only=False))
            return b.filter(pa.array(_in_sorted(ids, ray.get(need_ref))))

        node_cols = ["id", "lon", "lat", "tags"] + \
            self._meta_cols("osm_nodes")
        kept_nodes = pa.concat_tables([
            pa.table(b) for b in self.nodes(columns=node_cols).map_batches(
                keep_nodes, batch_format="pyarrow").iter_batches(
                batch_size=1 << 16, batch_format="pyarrow")])

        kept_rels = None
        if keep_relations:
            rels = pq.read_table(self._path("osm_relations"))
            way_set = np.sort(np.asarray(
                kept_ways["id"].to_numpy(zero_copy_only=False)))
            members = rels["members"].combine_chunks()
            off = np.asarray(members.offsets, dtype=np.int64)
            flat = members.flatten()
            mids = np.asarray(flat.field("member_id").to_numpy(
                zero_copy_only=False), dtype=np.int64)
            mtyp = np.asarray(flat.field("member_type").to_numpy(
                zero_copy_only=False), dtype=object)
            hit_f = ((mtyp == "way") & _in_sorted(mids, way_set)) | \
                ((mtyp == "node") & _in_sorted(mids, inbox_ids))
            cs = np.zeros(len(hit_f) + 1, dtype=np.int64)
            np.cumsum(hit_f, out=cs[1:])
            kept_rels = rels.filter(pa.array(cs[off[1:]] - cs[off[:-1]] > 0))
            if not len(kept_rels):
                kept_rels = None

        write_pbf_auto(output_path, kept_nodes,
                  kept_ways if len(kept_ways) else None, kept_rels,
                  bbox=(x0, y0, x1, y1))
        return output_path

    def write_pbf(self, data, output_path: str,
                  subset_only: bool = False) -> str:
        """Write the element tables back to a valid PBF, applying tag
        edits from (modified) layer frame(s) matched by ``osm_type``+``id``
        and synthesizing unmatched rows from geometry with negative ids
        (reference ``OSM.write_pbf``, pyrosm/pyrosm.py:1286-1355 /
        write_geodataframe_to_pbf pbf_writer.py:459-510).
        ``subset_only=True`` writes only the matched elements plus the
        references they need to stay valid."""
        from pyrosm_ray.sources.pbf_write import write_frames_to_pbf
        node_cols = ["id", "lon", "lat", "tags"] + \
            self._meta_cols("osm_nodes")
        nodes_t = pq.read_table(self._path("osm_nodes"), columns=node_cols)
        ways_t = pq.read_table(
            self._path("osm_ways"),
            columns=["id", "refs", "tags"] + self._meta_cols("osm_ways"))
        rels_t = pq.read_table(self._path("osm_relations"))
        write_frames_to_pbf(nodes_t, ways_t, rels_t, data, output_path,
                            subset_only=subset_only)
        return output_path

    def count_straddling_relations(self, osm_keys, data_filter,
                                   filter_type: str = "keep") -> int:
        """A8 (reference warn metric, pyrosm/frames.pyx:142-160): kept
        relations with SOME but not ALL member ways touching the bbox —
        i.e. relations whose geometry a plain bbox read would cut
        (``complete_relations=True`` repairs them). 0 without a bbox."""
        if self.bbox is None:
            return 0
        rel_kept, member_ids = self._kept_relations(
            osm_keys, data_filter, filter_type, keep_all=False)
        if rel_kept is None or not len(member_ids):
            return 0
        member_ref = ray.put(member_ids)
        inbox_ref = self.inbox_node_ids()

        def member_touch(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["id"].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
            mids = ray.get(member_ref)
            pos = np.clip(np.searchsorted(mids, ids), 0, len(mids) - 1)
            member = mids[pos] == ids
            touches = _way_touches_nodes(batch, ray.get(inbox_ref))
            return pa.table({
                "way_id": pa.array(ids[member], pa.int64()),
                "touch": pa.array(touches[member], pa.bool_()),
            })

        touch: dict[int, bool] = {}
        for b in self.ways(columns=["id", "refs"]).map_batches(
                member_touch, batch_format="pyarrow").iter_batches(
                batch_size=1 << 16, batch_format="pyarrow"):
            for wid, t in zip(b["way_id"].to_pylist(),
                              b["touch"].to_pylist()):
                touch[wid] = t
        way_of, rel_of, _ = self._member_pairs(rel_kept)
        n = 0
        for rid in np.unique(rel_of):
            flags = [touch[w] for w in way_of[rel_of == rid] if w in touch]
            if flags and any(flags) and not all(flags):
                n += 1
        return n

    # -- relation assembly -------------------------------------------------
    def _member_pairs(self, rel_kept):
        """(sorted way-member ids, their relation ids, member positions)
        from the kept set. Positions preserve the relation's member ORDER
        through the unordered distributed gather (the reference assembles
        member chains in member order, relations.pyx get_ways_for_relation
        — output geometry ring order depends on it)."""
        members = rel_kept["members"].combine_chunks()
        off = np.asarray(members.offsets, dtype=np.int64)
        rel_ids_np = np.asarray(rel_kept["id"].to_numpy(
            zero_copy_only=False), dtype=np.int64)
        counts = off[1:] - off[:-1]
        rep = np.repeat(np.arange(len(rel_kept), dtype=np.int64), counts)
        pos_in_rel = np.arange(int(counts.sum()), dtype=np.int64) - \
            np.repeat(off[:-1], counts)
        flat = members.flatten()
        mtype = np.asarray(flat.field("member_type").to_numpy(
            zero_copy_only=False), dtype=object)
        mid = np.asarray(flat.field("member_id").to_numpy(
            zero_copy_only=False), dtype=np.int64)
        w = mtype == "way"
        rel_of = rel_ids_np[rep[w]]
        way_of = mid[w]
        pos_of = pos_in_rel[w]
        order = np.argsort(way_of, kind="stable")
        return way_of[order], rel_of[order], pos_of[order]

    def _member_chains(self, rel_kept, kept_ways) -> Blocks:
        """Member-way coordinate chains of the kept ways (the way filter's
        output, relation members flagged ``__member``) as rows of
        (relation ``id``, ``member_pos``, ``chain``): the J3 join side,
        held as blocks. One task per non-empty block; zero-row blocks
        are skipped from their metadata, since a map would turn them
        into schema-less blocks."""
        pairs = ray.put(self._member_pairs(rel_kept))
        coords = self.coord_ref()
        tasks = [_chain_block.remote(ref, pairs, coords)
                 for ref in Blocks.of(kept_ways).live()]
        return Blocks([t for t, _ in tasks],
                      ray.get([n for _, n in tasks]), _CHAIN_SCHEMA)

    def _rel_payload(self, rel_kept: pa.Table, tag_columns) -> pa.Table:
        """Promoted relation payload columns + the __force_line typing flag
        (M21: route/boundary linestring rule)."""
        tags_list = rel_kept["tags"].to_pylist()
        force = [ops.relation_is_linestring(dict(t) if t else {})
                 for t in tags_list]
        drop = ["members"]
        if not self.keep_metadata:
            have = set(rel_kept.column_names)
            drop += [c for c in META_COLS if c in have]
        out = promote_tags(rel_kept.drop_columns(drop), tag_columns)
        return out.append_column("__force_line",
                                 pa.array(force, pa.bool_()))

    def _assemble_relations(self, rel_kept, kept_ways, tag_columns):
        """Member-way join + multipolygon assembly (J3 + M21-M23) as ONE
        two-sided fold on the relation id: each relation's chains meet its
        payload row in :func:`_assemble_relation_rows`."""
        payload = self._rel_payload(rel_kept, tag_columns)
        empty = payload.slice(0, 0).drop_columns(["__force_line"]) \
            .append_column("geometry", pa.array([], pa.binary()))
        return fold((self._member_chains(rel_kept, kept_ways),
                     Blocks([ray.put(payload)], [payload.num_rows],
                            payload.schema)), "id",
                    _assemble_relation_rows, None, empty)


_CHAIN_SCHEMA = pa.schema([("id", pa.int64()), ("member_pos", pa.int64()),
                           ("chain", pa.binary())])


@ray.remote(num_returns=2)
def _chain_block(block: pa.Table, pairs, coords):
    """One block of kept ways -> a chain row per (relation, member way):
    packed ``<f8`` (lon, lat) pairs gathered from the broadcast coordinate
    index, then that table's row count. ``pairs`` is
    :meth:`OSM._member_pairs`' output."""
    batch = block.filter(block["__member"])
    flat, off = topology._refs_csr(batch["refs"])
    lon, lat, valid = topology.gather_coords(coords, flat)
    cs = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(valid, out=cs[1:])
    voff = cs[off]
    raw = np.ascontiguousarray(
        np.column_stack([lon[valid], lat[valid]]), dtype="<f8").tobytes()
    ids = np.asarray(batch["id"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    wsort, rsort, psort = pairs
    lo = np.searchsorted(wsort, ids, side="left")
    counts = np.searchsorted(wsort, ids, side="right") - lo
    take = topology.concat_ranges(lo, counts)
    rep = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
    return pa.table([
        pa.array(rsort[take], pa.int64()), pa.array(psort[take], pa.int64()),
        pa.array([raw[16 * voff[i]:16 * voff[i + 1]] for i in rep],
                 pa.binary())], schema=_CHAIN_SCHEMA), len(take)


def _assemble_relation_rows(chains: pa.Table, payload: pa.Table):
    """The relation fold body: each payload row's chains, in member
    order and without those of fewer than 2 points, assemble into its
    ``geometry``; relations with no geometry drop."""
    if not chains.num_rows or not payload.num_rows:
        return None
    chains = chains.sort_by([("id", "ascending"), ("member_pos", "ascending")])
    lines: dict[int, list] = {}
    for rid, blob in zip(chains["id"].to_pylist(),
                         chains["chain"].to_pylist()):
        if len(blob) >= 32:  # two (lon, lat) points of 16 bytes
            lines.setdefault(rid, []).append(
                np.frombuffer(blob, dtype="<f8").reshape(-1, 2))
    keep, geoms = [], []
    for i, (rid, force) in enumerate(zip(payload["id"].to_pylist(),
                                         payload["__force_line"].to_pylist())):
        g = relation_geometry(lines[rid], force) if rid in lines else None
        if g is not None:
            keep.append(i)
            geoms.append(g)
    return payload.take(pa.array(keep, pa.int64())) \
        .drop_columns(["__force_line"]) \
        .append_column("geometry", pa.array(geoms, pa.binary()))


# ---------------------------------------------------------------------------
# output boundary (occurring-tags-only contract, M8)
# ---------------------------------------------------------------------------

LAYER_CONTRACT_COLS = frozenset({
    "id", "osm_type", "geometry", "tags", "lon", "lat", "u", "v",
    "length", *META_COLS})


def _empty_tag_candidates(ds) -> list[str]:
    sch = ds.schema()
    if sch is None:
        return []
    return [n for n, t in zip(sch.names, sch.types)
            if n not in LAYER_CONTRACT_COLS and pa.types.is_string(t)]


def collect_layer(ds, drop_empty: bool = True):
    """Output-boundary collector: pandas frame with never-occurring tag
    columns dropped (the reference's occurring-tags-only GeoDataFrame
    contract, pyrosm/engine/collect.py:487-560 / M8)."""
    from pyrosm_ray.stages.tags import drop_empty_columns
    if drop_empty:
        ds = drop_empty_columns(ds, _empty_tag_candidates(ds))
    return ds.to_pandas()


# ---------------------------------------------------------------------------
# bbox helpers
# ---------------------------------------------------------------------------

def _way_touches_nodes(batch: pa.Table, sorted_ids: np.ndarray) -> np.ndarray:
    """Semi-join J2: way has >=1 ref in the sorted id set (complete ways)."""
    flat, off = topology._refs_csr(batch["refs"])
    if len(sorted_ids) == 0 or len(flat) == 0:
        return np.zeros(len(batch), dtype=bool)
    pos = np.clip(np.searchsorted(sorted_ids, flat), 0, len(sorted_ids) - 1)
    hit = sorted_ids[pos] == flat
    cs = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(hit, out=cs[1:])
    return (cs[off[1:]] - cs[off[:-1]]) > 0


def _latest_at_table(t: pa.Table, timestamp) -> pa.Table:
    """Driver-side (in-memory Arrow) twin of history.latest_at for the
    small relation table: ts <= cutoff, max version per id, invisible
    latest dropped."""
    from pyrosm_ray.stages.history import normalize_timestamp
    cut = normalize_timestamp(timestamp)
    ts = np.asarray(pc.cast(pc.cast(t["timestamp"], pa.timestamp("s")),
                            pa.int64()).to_numpy(zero_copy_only=False))
    t = t.filter(pa.array(ts <= cut))
    if not len(t):
        return t
    ids = np.asarray(t["id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    ver = np.asarray(t["version"].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    order = np.lexsort((ver, ids))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = ids[order][1:] != ids[order][:-1]
    t = t.take(pa.array(order[last], pa.int64()))
    if "visible" in t.column_names:
        t = t.filter(pc.fill_null(t["visible"], False))
    return t


def _in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a SORTED int64 array (searchsorted)."""
    if not len(sorted_set):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_set, values)
    pos[pos == len(sorted_set)] = len(sorted_set) - 1
    return sorted_set[pos] == values


def filter_intersects_bbox(ds: rd.Dataset, bbox) -> rd.Dataset:
    """Exact geometry-vs-rectangle intersects filter (final sjoin J7,
    pyrosm/frames.pyx:231-241)."""
    x0, y0, x1, y1 = bbox

    def f(batch: pa.Table) -> pa.Table:
        geoms = batch["geometry"].to_pylist()
        keep = np.fromiter(
            (g is not None and _wkb_intersects_rect(g, x0, y0, x1, y1)
             for g in geoms), dtype=bool, count=len(geoms))
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def filter_intersects_poly(ds: rd.Dataset, rings, envelope) -> rd.Dataset:
    """Exact geometry-vs-polygon intersects filter (J7 for a polygon
    bounding box; even-odd over ``rings``, so holes exclude)."""
    x0, y0, x1, y1 = envelope

    def f(batch: pa.Table) -> pa.Table:
        geoms = batch["geometry"].to_pylist()
        keep = np.fromiter(
            (g is not None and _wkb_intersects_poly(g, rings, x0, y0,
                                                    x1, y1)
             for g in geoms), dtype=bool, count=len(geoms))
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def _wkb_intersects_poly(buf: bytes, rings, x0, y0, x1, y1) -> bool:
    gt, payload = wkblib.decode_wkb(buf)
    if gt == wkblib.POINT:
        return bool(ops.points_in_rings_even_odd(
            rings, np.array([payload[0]]), np.array([payload[1]]))[0])
    if gt in (wkblib.LINESTRING, wkblib.MULTIPOINT):
        parts = [payload]
    elif gt in (wkblib.POLYGON, wkblib.MULTILINESTRING):
        parts = payload
    else:
        parts = [r for rr in payload for r in rr]
    as_seg = gt != wkblib.MULTIPOINT
    for coords in parts:
        cx, cy = coords[:, 0], coords[:, 1]
        # envelope fast-reject for this part
        if cx.max() < x0 or cx.min() > x1 or cy.max() < y0 or cy.min() > y1:
            continue
        # any vertex inside the polygon (even-odd: holes exclude)
        if bool(np.any(ops.points_in_rings_even_odd(rings, cx, cy))):
            return True
        if not as_seg or len(coords) < 2:
            continue
        # any geometry segment crossing any polygon ring edge
        a, b = coords[:-1], coords[1:]
        for ring in rings:
            for j in range(len(ring) - 1):
                if bool(np.any(_segments_cross(
                        a, b, ring[j, 0], ring[j, 1],
                        ring[j + 1, 0], ring[j + 1, 1]))):
                    return True
    # geometry polygon fully containing the bbox polygon: any ring
    # vertex of the box inside the geometry
    if gt in (wkblib.POLYGON, wkblib.MULTIPOLYGON):
        grings = payload if gt == wkblib.POLYGON else \
            [r for rr in payload for r in rr]
        bx, by = rings[0][:, 0], rings[0][:, 1]
        if bx.min() >= min(r[:, 0].min() for r in grings) and \
                bx.max() <= max(r[:, 0].max() for r in grings):
            return bool(np.any(ops.points_in_rings_even_odd(
                grings, bx, by)))
    return False


def _wkb_intersects_rect(buf: bytes, x0, y0, x1, y1) -> bool:
    gt, payload = wkblib.decode_wkb(buf)
    if gt == wkblib.POINT:
        return x0 <= payload[0] <= x1 and y0 <= payload[1] <= y1
    if gt in (wkblib.LINESTRING, wkblib.MULTIPOINT):
        parts = [payload]
    elif gt in (wkblib.POLYGON, wkblib.MULTILINESTRING):
        parts = payload
    else:
        parts = [r for rings in payload for r in rings]
    for coords in parts:
        if _coords_intersect_rect(coords, x0, y0, x1, y1,
                                  as_segments=gt not in (wkblib.MULTIPOINT,)):
            return True
    # polygon containing the rect entirely (no vertex/edge in the box);
    # bbox guard skips the O(edges) even-odd pass for far-away polygons
    if gt in (wkblib.POLYGON, wkblib.MULTIPOLYGON):
        rings = payload if gt == wkblib.POLYGON else \
            [r for rr in payload for r in rr]
        if not any(r[:, 0].min() <= x0 <= r[:, 0].max() and
                   r[:, 1].min() <= y0 <= r[:, 1].max() for r in rings):
            return False
        return bool(ops.points_in_rings_even_odd(
            rings, np.array([x0]), np.array([y0]))[0])
    return False


def _coords_intersect_rect(coords: np.ndarray, x0, y0, x1, y1,
                           as_segments=True) -> bool:
    x, y = coords[:, 0], coords[:, 1]
    # bbox fast-reject: most geometries are far from the filter rect, and
    # the 4-segment-edge crossing tests below are the expensive path
    if x.max() < x0 or x.min() > x1 or y.max() < y0 or y.min() > y1:
        return False
    if bool(np.any((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))):
        return True
    if not as_segments or len(coords) < 2:
        return False
    # any segment crossing any of the 4 rect edges
    a, b = coords[:-1], coords[1:]
    for (ex0, ey0, ex1, ey1) in ((x0, y0, x1, y0), (x1, y0, x1, y1),
                                 (x1, y1, x0, y1), (x0, y1, x0, y0)):
        if bool(np.any(_segments_cross(a, b, ex0, ey0, ex1, ey1))):
            return True
    return False


def _segments_cross(a: np.ndarray, b: np.ndarray, cx0, cy0, cx1, cy1):
    """Proper/improper intersection of segments (a->b) with segment c."""
    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)
    o1 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], cx0, cy0)
    o2 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], cx1, cy1)
    o3 = orient(cx0, cy0, cx1, cy1, a[:, 0], a[:, 1])
    o4 = orient(cx0, cy0, cx1, cy1, b[:, 0], b[:, 1])
    return ((o1 * o2) <= 0) & ((o3 * o4) <= 0)
