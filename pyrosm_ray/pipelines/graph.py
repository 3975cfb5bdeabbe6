"""Routable-graph export: directed edges, node degree stats, SCC.

Re-expresses the reference's graph path (SURVEY.md §3.3):

* :func:`directed_edges` — M27 (pyrosm/graph_export.pyx:239-299): two-way
  edges are duplicated with swapped u/v; ``oneway`` in the oneway value set
  (or ``junction=roundabout``) makes an edge directed; ``-1``/``T`` flip it;
  a ``oneway:<suffix>`` column (e.g. ``oneway:bicycle``) overrides per edge.
  Vectorised 1→1-or-2 row expansion inside map_batches.
* :func:`street_count_per_node` — A6: undirected incident-segment count via
  flat_map(u,v) → groupby count.
* :func:`largest_scc_edges` — A9: strongly-connected-component restriction.
  Sequential by nature; runs driver-side on the collected edge list exactly
  like the reference (pyrosm/graph_connectivity.py:15-84), using networkx.
* :func:`to_networkx` — exporter (MultiDiGraph, OSMnx-compatible renames
  M28: id→osmid, lon/lat→x/y, key=0).

Edge inputs come from the network layer with ``nodes=True`` semantics:
segment-level rows (u, v, length, geometry) — produced by
``OSM.get_network(..., nodes=True)``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pyrosm_ray import config


def directed_edges(edges_ds, direction: str = "oneway",
                   direction_suffix: str | None = None,
                   force_bidirectional: bool = False):
    """Expand undirected edge rows into directed rows (M27 truth table)."""
    oneway_vals = set(config.ONEWAY_VALUES)
    against_vals = set(config.ONEWAY_AGAINST_VALUES)
    override_col = (f"{direction}:{direction_suffix}"
                    if direction_suffix else None)

    def expand(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return batch
        names = batch.column_names

        def col(name):
            if name in names:
                return np.asarray(batch[name].to_numpy(zero_copy_only=False),
                                  dtype=object)
            return np.full(n, None, dtype=object)

        if force_bidirectional:
            idx = np.concatenate([np.arange(n), np.arange(n)])
            flip = np.concatenate([np.zeros(n, bool), np.ones(n, bool)])
        else:
            eff = col(direction)
            if override_col:
                ov = col(override_col)
                eff = np.where([v is not None for v in ov], ov, eff)
            oneway = np.array([v in oneway_vals for v in eff])
            if "junction" in names:
                oneway |= col("junction") == "roundabout"
            against = np.array([v in against_vals for v in eff]) & oneway
            twoway = ~oneway
            # along edges unchanged; against edges flipped; two-way doubled
            idx = np.concatenate([np.arange(n)[oneway & ~against],
                                  np.arange(n)[against],
                                  np.arange(n)[twoway],
                                  np.arange(n)[twoway]])
            flip = np.concatenate([
                np.zeros(int((oneway & ~against).sum()), bool),
                np.ones(int(against.sum()), bool),
                np.zeros(int(twoway.sum()), bool),
                np.ones(int(twoway.sum()), bool)])
        out = batch.take(pa.array(idx))
        u = np.asarray(out["u"].to_numpy(zero_copy_only=False)).copy()
        v = np.asarray(out["v"].to_numpy(zero_copy_only=False)).copy()
        u2 = np.where(flip, v, u)
        v2 = np.where(flip, u, v)
        out = out.set_column(out.column_names.index("u"), "u",
                             pa.array(u2, pa.int64()))
        out = out.set_column(out.column_names.index("v"), "v",
                             pa.array(v2, pa.int64()))
        return out

    return edges_ds.map_batches(expand, batch_format="pyarrow")


def street_count_per_node(edges_ds):
    """Undirected incident-segment count per node (A6)."""
    from pyrosm_ray.stages.blocks import keyed_sum_auto

    def partial(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["u"].to_numpy(zero_copy_only=False))
        v = np.asarray(batch["v"].to_numpy(zero_copy_only=False))
        codes, uniq = pd.factorize(np.concatenate([u, v]).astype(np.int64))
        return pa.table({"node_id": pa.array(uniq, pa.int64()),
                         "street_count": pa.array(
                             np.bincount(codes, minlength=len(uniq)),
                             pa.int64())})

    out = keyed_sum_auto(edges_ds.map_batches(partial, batch_format="pyarrow"),
                         "node_id", ["street_count"]).to_pandas()
    return out.sort_values("node_id").reset_index(drop=True)


def largest_scc_edges(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Keep only edges inside the largest strongly connected component.

    Driver-side (like the reference's Tarjan pass); input is the collected
    directed edge frame."""
    import networkx as nx
    g = nx.DiGraph()
    g.add_edges_from(zip(edges_df["u"], edges_df["v"]))
    if g.number_of_nodes() == 0:
        return edges_df
    scc = max(nx.strongly_connected_components(g), key=len)
    mask = edges_df["u"].isin(scc) & edges_df["v"].isin(scc)
    return edges_df[mask].reset_index(drop=True)


def to_networkx(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
                retain_all: bool = False):
    """MultiDiGraph with OSMnx-compatible attributes (M28).

    Edges whose u/v endpoint has no node row (and hence no coordinate)
    are skipped rather than auto-created, matching the reference graph
    exporters (pyrosm/graph_export.pyx:74-102 skips edges with missing
    endpoint nodes) — a coordinate-less node would poison downstream
    routing/plotting (J9)."""
    import networkx as nx
    known = pd.Index(nodes_df["id"].astype("int64"))
    present = edges_df["u"].astype("int64").isin(known) & \
        edges_df["v"].astype("int64").isin(known)
    edges_df = edges_df[present].reset_index(drop=True)
    if not retain_all:
        edges_df = largest_scc_edges(edges_df)
    g = nx.MultiDiGraph(crs="epsg:4326")
    for _, r in nodes_df.iterrows():
        g.add_node(int(r["id"]), x=float(r["lon"]), y=float(r["lat"]),
                   osmid=int(r["id"]))
    for _, r in edges_df.iterrows():
        attrs = {}
        for k in edges_df.columns:
            if k in ("u", "v"):
                continue
            val = r[k]
            if isinstance(val, (list, np.ndarray)):
                attrs[k] = list(val)  # mixed-chain merge emits lists (A5)
            elif pd.notna(val):
                attrs[k] = val
        if "id" in edges_df.columns:
            # merged chains carry the per-segment way-id list (OSMnx keeps
            # a list osmid for simplified edges too)
            attrs["osmid"] = list(r["id"]) \
                if isinstance(r["id"], (list, np.ndarray)) else int(r["id"])
        else:
            attrs["osmid"] = None
        attrs["key"] = 0
        g.add_edge(int(r["u"]), int(r["v"]), **attrs)
    return g


# ---------------------------------------------------------------------------
# igraph / pandana exporters (reference graph_export.pyx:29-236)
# ---------------------------------------------------------------------------

def igraph_payload(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
                   from_id_col: str = "u", to_id_col: str = "v",
                   node_id_col: str = "id"):
    """The exact structures the reference feeds ``igraph.Graph``
    (pyrosm/graph_export.pyx:29-108): sequential vertex ids, an edge list
    of seq-id pairs, vertex/edge attribute dicts. Edges whose endpoint has
    no node row are SKIPPED (J9, :29-94 KeyError path). Separated from the
    igraph import so the mapping is testable without the library."""
    nodes = nodes_df.reset_index(drop=True).copy()
    nodes["node_id"] = nodes.index
    seq = pd.Series(nodes["node_id"].values,
                    index=nodes[node_id_col].values)
    u = edges_df[from_id_col].map(seq)
    v = edges_df[to_id_col].map(seq)
    present = u.notna() & v.notna()
    kept = edges_df[present].reset_index(drop=True).copy()
    kept[from_id_col + "_seq"] = u[present].astype("int64").values
    kept[to_id_col + "_seq"] = v[present].astype("int64").values
    edge_list = list(zip(kept[from_id_col + "_seq"].tolist(),
                         kept[to_id_col + "_seq"].tolist()))
    return (len(nodes), edge_list, nodes.to_dict(orient="list"),
            kept.to_dict(orient="list"))


def to_igraph(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
              from_id_col: str = "u", to_id_col: str = "v",
              node_id_col: str = "id"):
    """Directed ``igraph.Graph`` (reference _create_igraph)."""
    try:
        import igraph
    except ImportError as e:
        raise ImportError("'python-igraph' needs to be installed "
                          "in order to export the network for igraph."
                          ) from e
    n, edge_list, vertex_attrs, edge_attrs = igraph_payload(
        nodes_df, edges_df, from_id_col, to_id_col, node_id_col)
    return igraph.Graph(n=n, directed=True, edges=edge_list,
                        vertex_attrs=vertex_attrs, edge_attrs=edge_attrs)


def pandana_payload(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
                    from_id_col: str = "u", to_id_col: str = "v",
                    weight_cols=("length",), node_id_col: str = "id"):
    """The kwargs the reference feeds ``pandana.Network``
    (graph_export.pyx:195-221): node x/y series indexed by osm id,
    directed edge endpoint series, weight frame, ``twoway=False``.
    Edges with missing endpoints are dropped (J9)."""
    nodes = nodes_df.set_index(node_id_col)
    known = nodes.index
    present = edges_df[from_id_col].isin(known) & \
        edges_df[to_id_col].isin(known)
    kept = edges_df[present].reset_index(drop=True)
    return {
        "node_x": nodes["lon"],
        "node_y": nodes["lat"],
        "edge_from": kept[from_id_col],
        "edge_to": kept[to_id_col],
        "edge_weights": kept[list(weight_cols)],
        "twoway": False,
    }


def to_pandana(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
               weight_cols=("length",)):
    """Directed ``pandana.Network`` (reference _create_pdgraph)."""
    try:
        from pandana import Network
    except ImportError as e:
        raise ImportError("'pandana' needs to be installed "
                          "in order to export the network for it.") from e
    return Network(**pandana_payload(nodes_df, edges_df,
                                     weight_cols=weight_cols))
