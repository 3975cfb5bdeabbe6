"""The two closed-loop workloads: inputs, per-pass stage calls, checks.

Each workload runs one job at a time from the driver. ``prepare`` writes
the seeded inputs, ``expect`` computes the reference outputs once per seed
(DuckDB twins from ``__ray_entry__.oracle_sql()`` and the stage modules'
``*_sql`` twins where they exist), ``run_pass`` runs one timed pass through a
:class:`harness.Recorder` and returns its collected outputs, and
``check`` compares those outputs with the references after the pass clock
has stopped.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.harness import block_skew

N_PAGES = 20_000
CHECK_PAGES = 500       # pages whose join output is checked against a twin
ZONAL_CHECK_MOD = 8     # one building way in this many is checked for zonal
SALT_THRESHOLD = N_PAGES // 100
RADIUS_M = 150.0        # the radius the q_radius_join twin uses
RASTER_GRID = 32        # rasterize_points' default grid size
DOC_REPS = 32           # 64 k documents: snapshot_diff above the keyed ceiling
EVENT_REPS = 12         # 120 k events
MINHASH_THRESHOLD = 0.5
# planted near-duplicates at or above this exact Jaccard are candidates
# with probability >= 0.997 under 16 bands x 4 rows
MINHASH_SURE_JACCARD = 0.75
MINHASH_MIN_RECALL = 0.98


def _rows(path: Path) -> int:
    return pq.read_metadata(path).num_rows


def _way_polys(ds):
    """Building layer rows assembled from single ways: the subset the
    SQL twins express (relation multipolygons are assembled driver-side in
    ``__ray_entry__`` and are left out here)."""
    return ds.map_batches(lambda b: b.filter(pc.equal(b["osm_type"], "way")),
                          batch_format="pyarrow")


def _sorted(t: pa.Table, cols: list[str]) -> pa.Table:
    t = t.select(cols)
    return t.sort_by([(c, "ascending") for c in cols])


def compare(got: pa.Table, want: pa.Table, cols: list[str]) -> str | None:
    """Exact comparison of two tables on ``cols`` after sorting; integer
    and string columns must be equal, float columns equal to 1e-12."""
    if got.num_rows != want.num_rows:
        return f"{got.num_rows} rows, twin has {want.num_rows}"
    g, w = _sorted(got, cols), _sorted(want, cols)
    for c in cols:
        a, b = g[c], w[c]
        if pa.types.is_floating(a.type) or pa.types.is_floating(b.type):
            x = np.asarray(a.to_numpy(zero_copy_only=False), np.float64)
            y = np.asarray(b.to_numpy(zero_copy_only=False), np.float64)
            if not np.allclose(x, y, rtol=1e-12, atol=0.0):
                return f"column {c} differs from the twin"
        elif not a.cast(b.type).equals(b):
            return f"column {c} differs from the twin"
    return None


def _in(t: pa.Table, col: str, values) -> pa.Table:
    return t.filter(pc.is_in(t[col], value_set=values))


class Twins:
    """Runs DuckDB twins against a fixture-shaped directory: the named
    queries of ``__ray_entry__.oracle_sql()`` (with the relation-ring side
    table replaced by an empty one, matching the way-only polygon layers
    the workloads join), or SQL over named parquet views."""

    def __init__(self, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.empty_edges = work / "no_relation_edges.parquet"
        f64 = pa.float64()
        pq.write_table(pa.table({
            "id": pa.array([], pa.int64()), "x1": pa.array([], f64),
            "y1": pa.array([], f64), "x2": pa.array([], f64),
            "y2": pa.array([], f64)}), self.empty_edges)

    def oracle(self, fx: Path, names: list[str]) -> dict[str, pa.Table]:
        import __ray_entry__ as entry
        saved = entry._fixture_dir, entry._relation_ring_edges_parquet
        entry._fixture_dir = lambda sf: fx
        entry._relation_ring_edges_parquet = lambda f: str(self.empty_edges)
        try:
            sql = entry.oracle_sql()
        finally:
            entry._fixture_dir, entry._relation_ring_edges_parquet = saved
        return self.run({n: sql[n] for n in names})

    def run(self, queries: dict[str, str],
            views: dict[str, Path] | None = None) -> dict[str, pa.Table]:
        import duckdb

        con = duckdb.connect(config={"threads": 2,
                                     "temp_directory": str(self.work)})
        try:
            for name, path in (views or {}).items():
                con.execute(f"CREATE VIEW {name} AS "
                            f"SELECT * FROM read_parquet('{path}')")
            return {n: con.execute(q).arrow() for n, q in queries.items()}
        finally:
            con.close()


def raster_sql(pages: Path, res: int, grid_size: int) -> str:
    """Per-pixel page counts of the per-tile rasters: the floor binning of
    the ``q_zonal_stats`` twin's ``pixcnt`` step at tile resolution
    ``res``."""
    from pyrosm_ray.fixtures import geocode_sql
    from pyrosm_ray.tiles import grid

    level = grid.h3_equiv_res(res)
    lon, lat = geocode_sql()
    dx, dy = 360.0 / (1 << level), 180.0 / (1 << level)
    return f"""
        WITH pg AS (SELECT {lon} AS qx, {lat} AS qy
                    FROM read_parquet('{pages}')),
        pt AS (SELECT {grid.cell_id_sql('qx', 'qy', level)} AS tile, qx, qy
               FROM pg),
        tb AS (SELECT tile,
                      -180.0 + CAST((tile // {1 << 29}) % {1 << 29} AS BIGINT)
                          * {dx!r} AS x0,
                      90.0 - CAST(tile % {1 << 29} AS BIGINT) * {dy!r}
                          - {dy!r} AS y0
               FROM (SELECT DISTINCT tile FROM pt))
        SELECT pt.tile,
               LEAST(GREATEST(CAST(FLOOR((pt.qx - tb.x0) / {dx!r}
                   * {grid_size}) AS BIGINT), 0), {grid_size - 1}) AS ix,
               LEAST(GREATEST(CAST(FLOOR((pt.qy - tb.y0) / {dy!r}
                   * {grid_size}) AS BIGINT), 0), {grid_size - 1}) AS iy,
               CAST(COUNT(*) AS BIGINT) AS c
        FROM pt JOIN tb USING (tile) GROUP BY 1, 2, 3"""


# node POIs: the ``pois`` step of the q_knn_join / q_radius_join twins
POI_NODES_SQL = """
    SELECT id FROM osm_nodes
    WHERE len(map_extract(tags, 'amenity')) > 0
       OR len(map_extract(tags, 'shop')) > 0
       OR len(map_extract(tags, 'tourism')) > 0"""

# the q_line_dedup twin, over documents keyed by doc_id instead of pages
LINE_DEDUP_SQL = """
    WITH ex AS (
      SELECT doc_id, unnest(string_split(text, '. ')) AS line,
             generate_subscripts(string_split(text, '. '), 1) AS ord
      FROM documents
    ), keyed AS (
      SELECT doc_id, line, ord, doc_id * 1048576 + ord AS ordkey FROM ex
    ), firsts AS (
      SELECT line, MIN(ordkey) AS keep FROM keyed GROUP BY line
    )
    SELECT k.doc_id,
           string_agg(k.line, '. ' ORDER BY k.ord) AS text_dedup,
           CAST(COUNT(*) AS BIGINT) AS n_lines
    FROM keyed k JOIN firsts f ON k.line = f.line AND k.ordkey = f.keep
    GROUP BY k.doc_id"""

# the two snapshots the corpus pass diffs: old = ids % 3 != 0, with every
# seventh id's text edited; new = every document
OLD_SNAPSHOT_SQL = """
    SELECT doc_id, CASE WHEN doc_id % 7 = 0 THEN text || ' (old)'
                        ELSE text END AS text
    FROM documents WHERE doc_id % 3 <> 0"""
NEW_SNAPSHOT_SQL = "SELECT doc_id, text FROM documents"


def _shingles(text: str) -> set[tuple[str, ...]]:
    """Distinct word 3-shingles of ``lower(text)`` split on whitespace, as
    the minhash twin's ``sh`` step forms them (texts here have >= 3
    words)."""
    w = text.lower().split()
    return {tuple(w[i:i + 3]) for i in range(max(len(w) - 2, 1))}


def _jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b)


class Workload:
    name = ""

    def __init__(self):
        self.dir = inputs.CACHE / "inputs" / self.name
        self.input_rows = 0

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def expect(self, seed: int) -> None:
        """Reference outputs, once per seed."""

    def run_pass(self, rec, pass_no: int) -> dict[str, pa.Table]:
        """One timed pass: the stage calls, then their outputs collected
        on the driver."""
        raise NotImplementedError

    def check(self, rec, out: dict[str, pa.Table]) -> None:
        """Compare one pass's outputs with the references (untimed)."""
        raise NotImplementedError

    def ceilings(self) -> list[dict]:
        return []


class GeoEnrich(Workload):
    """The paper's enrichment job over pages drawn from the seed and the
    fixture's OSM world: layer assembly, salted tiling and broadcast index
    probes, then the beyond-broadcast stages, where every step crosses a
    hash shuffle or join (tile rollup, zonal stats, the partitioned joins
    with the 20% mega cell as the skew case, history) and a checkpoint
    write and resume. Join outputs are checked on a 500-page sample."""
    name = "geo_enrich"

    def prepare(self, seed: int) -> None:
        self.pids = inputs.page_ids(seed, N_PAGES)
        self.fx = inputs.fixture_view(self.dir, self.pids)
        self.pages = self.fx / "pages.parquet"
        self.history = self.fx / "osm_history.parquet"
        self.twins = Twins(self.dir.with_name("twins"))
        self.input_rows = sum(_rows(self.fx / f"{t}.parquet") for t in
                              ("pages", "osm_nodes", "osm_ways",
                               "osm_relations", "osm_history"))

    def expect(self, seed: int) -> None:
        full = self.twins.oracle(self.fx, [
            "q_tile_assignment", "q_osm_buildings_ways",
            "q_network_walking_lengths", "q_tile_rollup",
            "q_history_latest"])
        self.want_tiles = full["q_tile_assignment"]
        self.want_buildings = full["q_osm_buildings_ways"]
        self.want_network = full["q_network_walking_lengths"]
        self.want_rollup = full["q_tile_rollup"]
        self.want_latest = full["q_history_latest"]
        self.want_poi_nodes = self.twins.run(
            {"pois": POI_NODES_SQL},
            {"osm_nodes": self.fx / "osm_nodes.parquet"})["pois"]
        pix = self.twins.run({"raster": raster_sql(
            self.pages, 7, RASTER_GRID)})["raster"]
        self.want_raster = self._rasters(pix)

        def zonal_ways(ways: pa.Table) -> np.ndarray:
            bld = pc.is_valid(pc.map_lookup(ways["tags"], "building",
                                            "first")).to_numpy(
                zero_copy_only=False)
            ids = np.asarray(ways["id"].to_numpy(zero_copy_only=False))
            return ~bld | ((ids // 7) % ZONAL_CHECK_MOD == 0)
        zview = inputs.fixture_view(self.dir.with_name(self.name + "_zonal"),
                                    self.pids, way_filter=zonal_ways)
        self.want_zonal = self.twins.oracle(zview, ["q_zonal_stats"])[
            "q_zonal_stats"]

        # the join twins, on a sample of the pages
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        sample = np.sort(rng.choice(self.pids, CHECK_PAGES, replace=False))
        view = inputs.fixture_view(self.dir.with_name(self.name + "_check"),
                                   sample)
        self.sample_urls = pq.read_table(view / "pages.parquet",
                                         columns=["url"])["url"]
        self.want = self.twins.oracle(view, [
            "q_pip_join_ways", "q_knn_join", "q_radius_join"])
        knn = self.want["q_knn_join"]
        self.want["q_knn_join"] = knn.filter(pc.equal(knn["knn_rank"], 1))

    @staticmethod
    def _rasters(pix: pa.Table) -> dict[int, np.ndarray]:
        """Per-tile count grids from (tile, ix, iy, c) pixel rows."""
        cols = {c: np.asarray(pix[c].to_numpy()) for c in
                ("tile", "ix", "iy", "c")}
        out: dict[int, np.ndarray] = {}
        for t, x, y, c in zip(*cols.values()):
            g = out.setdefault(int(t), np.zeros((RASTER_GRID, RASTER_GRID)))
            g[x, y] = c
        return out

    def run_pass(self, rec, pass_no: int) -> dict[str, pa.Table]:
        from pyrosm_ray.pipelines.checkpoints import CheckpointManager
        from pyrosm_ray.pipelines.layers import OSM
        from pyrosm_ray.sources.parquet import read_parquet_split
        from pyrosm_ray.stages import history, raster, spatial

        osm = OSM(str(self.fx))  # a fresh reader: no element cache reuse
        bld = rec.call("layers.get_buildings",
                       lambda: _way_polys(osm.get_buildings()).materialize())
        poi = rec.call("layers.get_pois",
                       lambda: osm.get_pois().materialize())
        net = rec.call("layers.get_network",
                       lambda: osm.get_network("walking"))
        pages = rec.call("parquet.read_parquet_split",
                         lambda: read_parquet_split(str(self.pages),
                                                    columns=["url"]))
        tiled = rec.call("spatial.assign_tiles", lambda: spatial.assign_tiles(
            pages, salt_threshold=SALT_THRESHOLD, salt_sample_mod=50)
            .select_columns(["url", "lon", "lat", "h3_r5", "h3_r7", "h3_r9",
                             "salt"])
            .materialize())
        pidx = rec.call("spatial.pack_polygon_index",
                        lambda: spatial.pack_polygon_index(
                            bld, layer="buildings"))
        pip = rec.call("spatial.pip_join", lambda: spatial.pip_join(
            tiled, layer="buildings", index_ref=pidx))
        kidx = rec.call("spatial.pack_point_index",
                        lambda: spatial.pack_point_index(poi))
        knn = rec.call("spatial.knn_join", lambda: spatial.knn_join(
            tiled, k=1, index_ref=kidx))
        rad = rec.call("spatial.radius_join", lambda: spatial.radius_join(
            tiled, radius_m=RADIUS_M, index_ref=kidx))

        roll = rec.call("spatial.tile_rollup", lambda: spatial.tile_rollup(
            pages, res_fine=9, res_coarse=5))
        rast = rec.call("raster.rasterize_points",
                        lambda: raster.rasterize_points(tiled.select_columns(
                            ["h3_r7", "lon", "lat"])).materialize(),
                        ops=True)
        zonal = rec.call("raster.polygon_zonal_stats",
                         lambda: raster.polygon_zonal_stats(bld, rast),
                         ops=True)
        pipp = rec.call("spatial.pip_join_partitioned",
                        lambda: spatial.pip_join_partitioned(
                            pages, bld, num_partitions=8,
                            layer="buildings",
                            join_payload=False).materialize(), ops=True)
        knnp = rec.call("spatial.knn_join_partitioned",
                        lambda: spatial.knn_join_partitioned(
                            pages, poi, k=1, num_partitions=8,
                            sweep_max_pairs=0, join_payload=False))
        if rec.traced:
            rec.annotate("spatial.pip_join_partitioned",
                         skew=block_skew(pipp))
            rec.annotate("spatial.knn_join_partitioned",
                         skew=block_skew(knnp))
        latest = rec.call("history.latest_at_bucketed",
                          lambda: history.latest_at_bucketed(
                              read_parquet_split(str(self.history)),
                              "2030-01-01"), ops=True)
        root = self.dir.with_name("checkpoints") / f"pass{pass_no}"
        shutil.rmtree(root.parent, ignore_errors=True)
        ckpt = CheckpointManager(str(root))

        def write():
            ckpt.run_stage("pip_partitioned", lambda: pipp)
        rec.call("checkpoints.run_stage", write)

        def no_rebuild():
            raise RuntimeError("resume rebuilt a completed stage")
        back = rec.call("checkpoints.resume", lambda: ckpt.run_stage(
            "pip_partitioned", no_rebuild))
        rec.annotate("checkpoints.run_stage",
                     bytes=ckpt.manifest("pip_partitioned")[-1]["bytes"])

        join_cols = ["url", "polygon_id"]
        return {
            "layers.get_buildings": rec.collect(
                "layers.get_buildings", bld, ["id", "building"]),
            "layers.get_pois": rec.collect(
                "layers.get_pois", poi, ["id", "osm_type"]),
            "layers.get_network": rec.collect(
                "layers.get_network", net, ["id", "length"]),
            "spatial.assign_tiles": rec.collect(
                "spatial.assign_tiles", tiled,
                ["url", "h3_r5", "h3_r7", "h3_r9", "salt"]),
            "spatial.pip_join": rec.collect(
                "spatial.pip_join", pip, join_cols),
            "spatial.knn_join": rec.collect(
                "spatial.knn_join", knn, ["url", "poi_id"]),
            "spatial.radius_join": rec.collect(
                "spatial.radius_join", rad, ["url", "poi_id"]),
            "spatial.tile_rollup": rec.collect("spatial.tile_rollup", roll),
            "raster.rasterize_points": rec.collect(
                "raster.rasterize_points", rast),
            "raster.polygon_zonal_stats": rec.collect(
                "raster.polygon_zonal_stats", zonal),
            "spatial.pip_join_partitioned": rec.collect(
                "spatial.pip_join_partitioned", pipp, join_cols),
            "spatial.knn_join_partitioned": rec.collect(
                "spatial.knn_join_partitioned", knnp, ["url", "poi_id"]),
            "history.latest_at_bucketed": rec.collect(
                "history.latest_at_bucketed", latest),
            "checkpoints.resume": rec.collect(
                "checkpoints.resume", back, join_cols),
        }

    def _check_sample(self, rec, layer, got, want, cols):
        rec.check(layer, lambda: compare(
            _in(got, "url", self.sample_urls), want, cols))

    def check(self, rec, out: dict[str, pa.Table]) -> None:
        rec.check("layers.get_buildings", lambda: compare(
            out["layers.get_buildings"], self.want_buildings,
            ["id", "building"]))
        rec.check("layers.get_network", lambda: compare(
            out["layers.get_network"], self.want_network, ["id", "length"]))
        pois = out["layers.get_pois"]
        rec.check("layers.get_pois", lambda: compare(
            pois.filter(pc.equal(pois["osm_type"], "node")),
            self.want_poi_nodes, ["id"]))
        tiles = out["spatial.assign_tiles"]
        rec.check("spatial.assign_tiles", lambda: compare(
            tiles, self.want_tiles, ["url", "h3_r5", "h3_r7", "h3_r9"]))
        rec.annotate("spatial.assign_tiles", salted_share=float(
            np.mean(np.asarray(tiles["salt"].to_numpy()) != 0)))
        for layer, twin, cols in (
                ("spatial.pip_join", "q_pip_join_ways", ["url", "polygon_id"]),
                ("spatial.knn_join", "q_knn_join", ["url", "poi_id"]),
                ("spatial.radius_join", "q_radius_join", ["url", "poi_id"]),
                ("spatial.pip_join_partitioned", "q_pip_join_ways",
                 ["url", "polygon_id"]),
                ("spatial.knn_join_partitioned", "q_knn_join",
                 ["url", "poi_id"])):
            self._check_sample(rec, layer, out[layer], self.want[twin], cols)
        rec.annotate("spatial.pip_join",
                     hit_ratio=out["spatial.pip_join"].num_rows / N_PAGES)
        rec.check("spatial.tile_rollup", lambda: compare(
            out["spatial.tile_rollup"], self.want_rollup,
            ["res", "cell", "n_pages"]))

        def check_raster():
            t = out["raster.rasterize_points"]
            got = {int(tile): np.frombuffer(r, "<f8").reshape(
                RASTER_GRID, RASTER_GRID) for tile, r in
                zip(t["h3_r7"].to_pylist(), t["raster"].to_pylist())}
            if got.keys() != self.want_raster.keys():
                return f"{len(got)} tiles, twin has {len(self.want_raster)}"
            bad = [k for k, g in got.items()
                   if not np.array_equal(g, self.want_raster[k])]
            return f"{len(bad)} tile rasters differ" if bad else None
        rec.check("raster.rasterize_points", check_raster)

        def check_zonal():
            got = out["raster.polygon_zonal_stats"]
            ids = pa.array(np.unique(np.asarray(
                self.want_zonal["polygon_id"].to_numpy())))
            return compare(_in(got, "polygon_id", ids), self.want_zonal,
                           ["polygon_id", "h3_r7", "pixel_count",
                            "value_sum", "value_mean"])
        rec.check("raster.polygon_zonal_stats", check_zonal)
        rec.check("history.latest_at_bucketed", lambda: compare(
            out["history.latest_at_bucketed"], self.want_latest,
            ["id", "version", "lon"]))
        rec.check("checkpoints.resume", lambda: compare(
            out["checkpoints.resume"], out["spatial.pip_join_partitioned"],
            ["url", "polygon_id"]))


class CorpusFolds(Workload):
    """Many-small-key folds over text and events, where operators pick a
    driver or distributed route by input size; sized so snapshot_diff and
    group_quantiles run above ``KEYED_FOLD_DRIVER_MAX``."""
    name = "corpus_folds"

    def prepare(self, seed: int) -> None:
        self.paths = inputs.write_corpus(self.dir, seed, DOC_REPS,
                                         EVENT_REPS)
        self.n_docs = _rows(self.paths["documents"])
        self.n_events = _rows(self.paths["events"])
        self.input_rows = self.n_docs + self.n_events

    def expect(self, seed: int) -> None:
        from pyrosm_ray.stages.dedup import snapshot_diff_sql
        from pyrosm_ray.stages.pagerank import click_pagerank_sql
        from pyrosm_ray.stages.windows import retention_cohorts_sql

        import __ray_entry__ as entry
        twins = Twins(self.dir.with_name("twins"))
        self.want = twins.run({
            "line_dedup": LINE_DEDUP_SQL,
            "snapshot_diff": snapshot_diff_sql(OLD_SNAPSHOT_SQL,
                                               NEW_SNAPSHOT_SQL),
            "asof_join": entry.oracle_sql()["q_asof_purchase_view"],
            "retention_cohorts": retention_cohorts_sql("events"),
            "pagerank": click_pagerank_sql("events", iters=5),
        }, {"documents": self.paths["documents"],
            "events": self.paths["events"]})

        ev = pq.read_table(self.paths["events"],
                           columns=["event_type", "value"]).to_pandas()
        want = {}
        for g, v in ev.groupby("event_type")["value"]:
            s = np.sort(v.to_numpy())
            want[g] = [int(s[max(int(np.ceil(q * len(s))) - 1, 0)])
                       for q in (0.5, 0.9)]
        self.want_quantiles = want
        # a lower bound of group_quantiles' partial histogram rows, which
        # its route gate reads
        self.n_value_keys = len(ev.drop_duplicates())

        # planted near-duplicate pairs (replicas keep the base corpus's
        # pairs), with their exact Jaccard on the written text
        docs = pq.read_table(self.paths["documents"],
                             columns=["doc_id", "text"])
        self.texts = dict(zip(docs["doc_id"].to_pylist(),
                              docs["text"].to_pylist()))
        _, src, _ = inputs.base_docs()
        copies = np.flatnonzero(src >= 0)
        self.sure_pairs = []
        for rep in inputs.replica_offsets(seed, DOC_REPS):
            base = int(rep) * inputs.DOC_BASE
            for i in copies:
                a, b = base + int(src[i]), base + int(i)
                if _jaccard(_shingles(self.texts[a]),
                            _shingles(self.texts[b])) >= MINHASH_SURE_JACCARD:
                    self.sure_pairs.append((a, b))

    def ceilings(self) -> list[dict]:
        from pyrosm_ray.stages import blocks, dedup, pagerank

        def side(name, const, module, value):
            limit = getattr(module, const, None)
            return {"stage": name, "ceiling": const, "limit": limit,
                    "input": value, "side": None if limit is None else
                    ("above" if value > limit else "at_or_below")}
        keyed = "KEYED_FOLD_DRIVER_MAX"
        n_old = int(np.sum((np.asarray(list(self.texts)) % 3) != 0))
        return [
            side("dedup.snapshot_diff", keyed, blocks, n_old + self.n_docs),
            side("quantiles.group_quantiles", keyed, blocks,
                 self.n_value_keys),
            side("dedup.minhash_dedup", "BANDED_DRIVER_MAX", dedup,
                 self.n_docs * 16),
            side("pagerank.click_edges", "EVENTS_DRIVER_MAX", pagerank,
                 self.n_events),
            side("pagerank.pagerank", "EDGES_DRIVER_MAX", pagerank,
                 self.n_events),
        ]

    def run_pass(self, rec, pass_no: int) -> dict[str, pa.Table]:
        from pyrosm_ray.sources.parquet import read_parquet_split
        from pyrosm_ray.stages import dedup, pagerank, quantiles, windows

        docs_p, ev_p = str(self.paths["documents"]), str(self.paths["events"])

        def events(cols):
            return read_parquet_split(ev_p, columns=cols)

        def typed(et):
            return events(["event_id", "ts", "user_id", "event_type"]) \
                .map_batches(lambda b, et=et: b.filter(
                    pc.equal(b["event_type"], et)).select(
                    ["event_id", "ts", "user_id"]), batch_format="pyarrow")

        def old_snapshot(d):
            def f(b):
                ids = np.asarray(b["doc_id"].to_numpy(zero_copy_only=False))
                edit = pa.array(ids % 7 == 0)
                b = b.set_column(1, "text", pc.if_else(
                    edit, pc.binary_join_element_wise(
                        b["text"], " (old)", ""), b["text"]))
                return b.filter(pa.array(ids % 3 != 0))
            return d.map_batches(f, batch_format="pyarrow")

        docs = rec.call("parquet.read_parquet_split", lambda:
                        read_parquet_split(docs_p, columns=["doc_id", "text"]))
        mh = rec.call("dedup.minhash_dedup", lambda: dedup.minhash_dedup(
            docs, threshold=MINHASH_THRESHOLD))
        ld = rec.call("dedup.line_dedup", lambda: dedup.line_dedup(docs),
                      ops=True)
        sd = rec.call("dedup.snapshot_diff", lambda: dedup.snapshot_diff(
            old_snapshot(docs), docs), ops=True)
        aj = rec.call("windows.asof_join", lambda: windows.asof_join(
            typed("purchase"), typed("view")), ops=True)
        rc = rec.call("windows.retention_cohorts",
                      lambda: windows.retention_cohorts(
                          events(["event_id", "ts", "user_id"])))
        gq = rec.call("quantiles.group_quantiles",
                      lambda: quantiles.group_quantiles(
                          events(["event_type", "value"]), "event_type",
                          "value", [0.5, 0.9]), ops=True)
        pr = rec.call("pagerank.pagerank", lambda: pagerank.pagerank(
            pagerank.click_edges(pagerank.event_nodes(events(
                ["event_id", "ts", "user_id", "props"]))), iters=5))
        return {layer: rec.collect(layer, ds) for layer, ds in (
            ("dedup.minhash_dedup", mh), ("dedup.line_dedup", ld),
            ("dedup.snapshot_diff", sd), ("windows.asof_join", aj),
            ("windows.retention_cohorts", rc),
            ("quantiles.group_quantiles", gq), ("pagerank.pagerank", pr))}

    def check(self, rec, out: dict[str, pa.Table]) -> None:
        rec.check("dedup.minhash_dedup",
                  lambda: self._check_minhash(out["dedup.minhash_dedup"]))
        for layer, cols in (
                ("dedup.line_dedup", ["doc_id", "text_dedup", "n_lines"]),
                ("dedup.snapshot_diff", ["doc_id", "status"]),
                ("windows.asof_join",
                 ["event_id", "user_id", "matched_id", "lag_us"]),
                ("windows.retention_cohorts",
                 ["cohort_week", "week_offset", "n_users"]),
                ("pagerank.pagerank", ["node", "rank_micro"])):
            want = self.want[layer.split(".")[1]]
            rec.check(layer, lambda layer=layer, want=want, cols=cols:
                      compare(out[layer], want, cols))

        def check_quantiles():
            t = out["quantiles.group_quantiles"].to_pydict()
            got = {g: [a, b] for g, a, b in zip(t["group"], t["q0"],
                                                t["q1"])}
            return None if got == self.want_quantiles else f"quantiles {got}"
        rec.check("quantiles.group_quantiles", check_quantiles)

    def _check_minhash(self, t: pa.Table) -> str | None:
        """Every document once; every cluster's label is its minimum id
        and its members connect through exact Jaccard >= threshold pairs;
        almost every planted pair that banding is all but sure to catch
        shares a cluster. (The minhash SQL twin takes minutes on this
        corpus, so it is not run.)"""
        ids = np.asarray(t["doc_id"].to_numpy())
        dup = np.asarray(t["dup_of"].to_numpy())
        if len(ids) != self.n_docs or len(np.unique(ids)) != self.n_docs:
            return f"{len(ids)} rows, want each of {self.n_docs} ids once"
        label = dict(zip(ids.tolist(), dup.tolist()))
        clusters: dict[int, list[int]] = {}
        for i, d in label.items():
            if i != d:
                clusters.setdefault(d, [d]).append(i)
        for d, members in clusters.items():
            if label.get(d) != d or min(members) != d:
                return f"cluster {d} is not labelled by its minimum id"
            sh = [_shingles(self.texts[m]) for m in members]
            reached, todo = {0}, [0]
            while todo:
                a = todo.pop()
                for b in range(len(members)):
                    if b not in reached and _jaccard(
                            sh[a], sh[b]) >= MINHASH_THRESHOLD:
                        reached.add(b)
                        todo.append(b)
            if len(reached) != len(members):
                return f"cluster {d} joins documents below the threshold"
        pairs = self.sure_pairs
        found = sum(label[a] == label[b] for a, b in pairs)
        if found < MINHASH_MIN_RECALL * len(pairs):
            return f"{found} of {len(pairs)} sure near-duplicate pairs found"
        return None


WORKLOADS = {w.name: w for w in (GeoEnrich, CorpusFolds)}


CAL_ROWS = 200_000
CAL_REPEATS = 3  # each calibration reports the median of this many


def _cal_rows(b):
    ids = np.asarray(b["id"])
    return pa.table({"__p": pa.array(ids % 9, pa.int64()),
                     "s": pa.array((ids % 97).astype("U8")),
                     "h": pa.array(ids * 7, pa.int64()),
                     "c": pa.array(np.ones(len(ids), np.int64))})


def _first_row(g):
    return g.slice(0, 1)


def _floor_rows(b):
    ids = np.asarray(b["id"])
    return pa.table({"k": pa.array(ids % 17, pa.int64()),
                     "n": pa.array(np.ones(len(ids), np.int64))})


def calibrate(rec) -> None:
    """Platform constants to read stage walls against: a generator scan,
    a raw hash exchange of the same rows, and a keyed fold over ~no data
    (the fixed cost of one shuffle)."""
    import ray.data as rd

    from pyrosm_ray.stages.blocks import groupby_partitions, keyed_sum_fold

    def base():
        return rd.range(CAL_ROWS, override_num_blocks=20).map_batches(
            _cal_rows, batch_format="pyarrow")
    for _ in range(CAL_REPEATS):
        rec.call("ray.scan", lambda: base().count())
        rec.call("ray.hash_exchange", lambda: base().groupby(
            "__p", num_partitions=9).map_groups(
            _first_row, batch_format="pyarrow").count())
        rec.call("ray.shuffle_floor", lambda: keyed_sum_fold(
            rd.range(1000).map_batches(_floor_rows, batch_format="pyarrow"),
            "k", ["n"], num_partitions=groupby_partitions()).count())
