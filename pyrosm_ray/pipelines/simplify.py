"""Topological graph simplification (A4/A5/A7 + reference parity).

Collapses chains of interstitial (pure pass-through) nodes in the DIRECTED
segment graph into single edges carrying the stitched geometry, the summed
length and the merged attributes — the semantics of the reference's
``simplify_graph`` (/root/reference/pyrosm/graph_simplify.py:239-433,
endpoint rules at :48-101, following OSMnx/Boeing 2025), re-derived here:

* endpoint/degree statistics (A7) are DISTRIBUTED Dataset aggregates
  (:func:`degree_stats`, :func:`endpoints_ds`): one fold on the node
  — usable on the full-scale edge stream;
* the chain walk itself is inherently sequential (the reference runs it
  in-process too — graph_simplify.py:120-168); it runs driver-side over
  the collected ``(u, v)`` pairs of the *filtered network layer* (the
  routable subgraph, orders of magnitude smaller than the input). The
  partitioning assumption is documented on :func:`simplify_graph`.

Chain lengths are summed in INTEGER MILLIMETRES (segment ``length`` is
mm-quantised by the assembler) so the result is order-independent and
bit-reproducible in the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pyrosm_ray.geom import wkb as wkblib


# ---------------------------------------------------------------------------
# distributed degree / endpoint statistics (A7)
# ---------------------------------------------------------------------------

def degree_stats(edges_ds):
    """Per-node directed degree stats as a Dataset:
    (node, out_deg, in_deg, distinct_nbrs, self_loop).

    One raw-task fold on the node; each partition's stats reduce in
    one vectorised factorize pass."""
    from pyrosm_ray.stages.blocks import fold

    def explode(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["u"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        v = np.asarray(batch["v"].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        node = np.concatenate([u, v])
        return pa.table({
            "node": pa.array(node),
            "nbr": pa.array(np.concatenate([v, u])),
            "is_out": pa.array(np.concatenate([
                np.ones(len(u), np.int64), np.zeros(len(v), np.int64)])),
        })

    def per_part(group: pa.Table) -> pa.Table:
        node = np.asarray(group["node"].to_numpy(zero_copy_only=False))
        nbr = np.asarray(group["nbr"].to_numpy(zero_copy_only=False))
        is_out = np.asarray(group["is_out"].to_numpy(zero_copy_only=False))
        codes, uniq = pd.factorize(node)
        n = len(uniq)
        out_deg = np.bincount(codes, weights=is_out, minlength=n)
        deg = np.bincount(codes, minlength=n)
        pair = np.unique(np.stack([codes, nbr]), axis=1)
        self_loop = np.zeros(n, bool)
        self_loop[codes[nbr == node]] = True
        return pa.table({
            "node": pa.array(uniq, pa.int64()),
            "out_deg": pa.array(out_deg.astype(np.int64), pa.int64()),
            "in_deg": pa.array((deg - out_deg).astype(np.int64),
                               pa.int64()),
            "distinct_nbrs": pa.array(
                np.bincount(pair[0], minlength=n).astype(np.int64),
                pa.int64()),
            "self_loop": pa.array(self_loop, pa.bool_()),
        })

    empty = pa.table({c: pa.array([], pa.int64()) for c in
                      ("node", "out_deg", "in_deg", "distinct_nbrs")}) \
        .append_column("self_loop", pa.array([], pa.bool_()))
    return fold(edges_ds.map_batches(explode, batch_format="pyarrow"),
                "node", per_part, None, empty)


def endpoints_ds(edges_ds):
    """Distributed endpoint classification (rules 1-3): self-loop,
    dead-end, or not a clean pass-through (distinct nbrs == 2 and total
    degree in {2, 4}). Returns Dataset (node, is_endpoint)."""
    stats = degree_stats(edges_ds)

    def classify(batch: pa.Table) -> pa.Table:
        out_deg = np.asarray(batch["out_deg"].to_numpy(
            zero_copy_only=False))
        in_deg = np.asarray(batch["in_deg"].to_numpy(zero_copy_only=False))
        dn = np.asarray(batch["distinct_nbrs"].to_numpy(
            zero_copy_only=False))
        sl = np.asarray(batch["self_loop"].to_numpy(zero_copy_only=False))
        total = in_deg + out_deg
        pass_through = (dn == 2) & ((total == 2) | (total == 4))
        dead = (in_deg == 0) | (out_deg == 0)
        ep = sl | dead | ~pass_through
        return pa.table({"node": batch["node"],
                         "is_endpoint": pa.array(ep, pa.bool_())})

    return stats.map_batches(classify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# driver-side chain walk + merge
# ---------------------------------------------------------------------------

def _endpoint_flags(u: np.ndarray, v: np.ndarray, n_nodes: int,
                    attr_codes: list[np.ndarray]) -> np.ndarray:
    """Endpoint rules over factorised edges (rules 1-3 + 5)."""
    out_deg = np.bincount(u, minlength=n_nodes)
    in_deg = np.bincount(v, minlength=n_nodes)
    total = in_deg + out_deg
    self_loop = np.zeros(n_nodes, dtype=bool)
    self_loop[u[u == v]] = True
    # distinct undirected neighbours
    node = np.concatenate([u, v])
    nbr = np.concatenate([v, u])
    pk = node.astype(np.int64) * n_nodes + nbr
    dn = np.bincount(np.unique(pk) // n_nodes, minlength=n_nodes)
    pass_through = (dn == 2) & ((total == 2) | (total == 4))
    ep = self_loop | (in_deg == 0) | (out_deg == 0) | ~pass_through
    # rule 5: incident edges disagree on a relaxation column
    for codes in attr_codes:
        cc = np.concatenate([codes, codes])
        order = np.lexsort((cc, node))
        ns, cs = node[order], cc[order]
        differ = (ns[1:] == ns[:-1]) & (cs[1:] != cs[:-1])
        ep[ns[1:][differ]] = True
    return ep


def _walk(u: np.ndarray, v: np.ndarray, is_endpoint: np.ndarray,
          remove_rings: bool):
    """Consume every directed edge into exactly one chain.

    Starts a chain at each endpoint out-edge and extends through
    pass-through nodes, never reversing onto the node it came from.
    Returns (flat edge-row indices, chain offsets)."""
    m = len(u)
    n_nodes = int(is_endpoint.shape[0])
    order = np.argsort(u, kind="stable")
    tgt = v[order]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n_nodes), out=indptr[1:])
    used = np.zeros(m, dtype=bool)
    flat: list[int] = []
    offsets = [0]

    def extend(pos: int, start: int):
        used[pos] = True
        flat.append(int(order[pos]))
        prev, cur = start, int(tgt[pos])
        while not is_endpoint[cur]:
            nxt = -1
            for q in range(indptr[cur], indptr[cur + 1]):
                if not used[q] and tgt[q] != prev:
                    nxt = q
                    break
            if nxt < 0:
                break  # digitisation quirk: chain dies mid-path
            used[nxt] = True
            flat.append(int(order[nxt]))
            prev, cur = cur, int(tgt[nxt])
        offsets.append(len(flat))

    for node in np.flatnonzero(is_endpoint):
        for pos in range(indptr[node], indptr[node + 1]):
            extend(pos, int(node))
    if not remove_rings:
        src_of_pos = np.repeat(np.arange(n_nodes, dtype=np.int64),
                               np.diff(indptr))
        for pos in range(m):
            if not used[pos]:
                extend(pos, int(src_of_pos[pos]))
    return np.array(flat, dtype=np.int64), np.array(offsets, dtype=np.int64)


def _stitch_chain_geometry(geoms: list, chain_rows: np.ndarray,
                           ux: np.ndarray, uy: np.ndarray,
                           u: np.ndarray) -> bytes:
    """Merged LineString WKB for one chain: orient each segment to run
    from its labelled u node, drop shared vertices."""
    parts = []
    for k, row in enumerate(chain_rows):
        gt, coords = wkblib.decode_wkb(geoms[row])
        if gt == wkblib.MULTILINESTRING:
            coords = np.concatenate(coords)
        # orient: first point should sit on the labelled u node
        fw = (coords[0, 0] - ux[row]) ** 2 + (coords[0, 1] - uy[row]) ** 2
        bw = (coords[-1, 0] - ux[row]) ** 2 + (coords[-1, 1] - uy[row]) ** 2
        if bw < fw:
            coords = coords[::-1]
        parts.append(coords if k == 0 else coords[1:])
    return wkblib.linestring_wkb(np.concatenate(parts))


def simplify_graph(nodes_df: pd.DataFrame, edges_df: pd.DataFrame,
                   length_col: str = "length",
                   edge_attrs_differ=None,
                   remove_rings: bool = True):
    """Collapse interstitial chains of the DIRECTED edge frame.

    Driver-side, like the reference's sequential walk kernel
    (graph_simplify.py:120-168): the routable network layer is a small
    filtered projection of the input (the reference collects it fully
    in-memory too). The distributed precursors — layer filtering, segment
    assembly, :func:`endpoints_ds` degree stats — all stream; only the
    (u, v, length, geometry, attrs) edge frame of the *network* is
    collected. Returns (nodes_df, simplified_edges_df).
    """
    edges = edges_df.reset_index(drop=True)
    if not len(edges):
        return nodes_df, edges
    both = np.concatenate([edges["u"].to_numpy(np.int64),
                           edges["v"].to_numpy(np.int64)])
    uniques = np.unique(both)
    u = np.searchsorted(uniques, edges["u"].to_numpy(np.int64))
    v = np.searchsorted(uniques, edges["v"].to_numpy(np.int64))
    n_nodes = len(uniques)

    attr_codes = []
    for c in (edge_attrs_differ or []):
        if c in edges.columns:
            attr_codes.append(pd.factorize(edges[c])[0])
    ep = _endpoint_flags(u, v, n_nodes, attr_codes)

    flat, offsets = _walk(u, v, ep, remove_rings)
    n_chains = len(offsets) - 1
    if n_chains == 0:
        return nodes_df.iloc[:0], edges.iloc[:0]
    first = flat[offsets[:-1]]
    last = flat[offsets[1:] - 1]
    chain_of = np.repeat(np.arange(n_chains), np.diff(offsets))

    out = edges.iloc[first].reset_index(drop=True).copy()
    out["u"] = uniques[u[first]]
    out["v"] = uniques[v[last]]
    out["n_segments"] = np.diff(offsets)
    # integer-millimetre chain length: order-independent, oracle-exact
    mm = np.round(edges[length_col].to_numpy(np.float64) * 1000.0) \
        .astype(np.int64)
    mm_sum = np.bincount(chain_of, weights=mm[flat],
                         minlength=n_chains).astype(np.int64)
    out["length_mm"] = mm_sum
    out[length_col] = mm_sum / 1000.0

    # geometry stitching (node coords from the labelled u of each row)
    if "geometry" in edges.columns and nodes_df is not None:
        nid = nodes_df["id"].to_numpy(np.int64)
        nx_ = nodes_df["lon"].to_numpy(np.float64)
        ny_ = nodes_df["lat"].to_numpy(np.float64)
        pos = np.searchsorted(np.sort(nid), edges["u"].to_numpy(np.int64))
        order = np.argsort(nid, kind="stable")
        ux = nx_[order][np.clip(pos, 0, len(nid) - 1)]
        uy = ny_[order][np.clip(pos, 0, len(nid) - 1)]
        geoms = edges["geometry"].tolist()
        out["geometry"] = [
            _stitch_chain_geometry(geoms, flat[offsets[k]:offsets[k + 1]],
                                   ux, uy, u)
            for k in range(n_chains)]

    # attribute merge (A5): scalar when uniform within the chain, else list
    skip = {"u", "v", length_col, "length_mm", "n_segments", "geometry"}
    for c in edges.columns:
        if c in skip:
            continue
        codes = pd.factorize(edges[c])[0][flat]
        boundary = (chain_of[1:] == chain_of[:-1]) & (codes[1:] != codes[:-1])
        if not boundary.any():
            continue
        mixed = np.unique(chain_of[1:][boundary])
        vals = edges[c].to_numpy()[flat]
        col = out[c].tolist()
        for k in mixed:
            col[k] = vals[offsets[k]:offsets[k + 1]].tolist()
        out[c] = pd.Series(col, index=out.index, dtype=object)

    kept = np.unique(np.concatenate([out["u"].to_numpy(np.int64),
                                     out["v"].to_numpy(np.int64)]))
    nodes_out = nodes_df[nodes_df["id"].isin(kept)].reset_index(drop=True) \
        if nodes_df is not None else None
    return nodes_out, out
