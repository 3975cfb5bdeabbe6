"""Distributed connected components via min-label propagation.

Replaces driver-side union-find for the dedup clustering step (and any
other edge-contraction need): every round is a raw-task hash join
(``blocks.co_join``) plus a per-node min fold (``blocks.fold`` on the
node) over the edge list — no O(nodes) structure ever
lands on the driver. Rounds needed = component diameter (near-dup clusters
are shallow: usually 1-3 rounds).

The per-round invariant: ``label(v) <- min(label(u) for u in N(v) ∪ {v})``.
Labels only ever decrease, so the global label sum is strictly monotone and
``sum unchanged`` is an exact convergence test (the driver adds one
partial sum per label block each round; no change-count join).

Deep components (a mega-bucket's consecutive-id chain, or a long
transitive near-dup path) would need diameter rounds under plain
propagation; from round ``DOUBLING_START`` on, every round additionally
pointer-doubles (``label(v) <- label(label(v))`` via a labels-self-join),
making convergence O(log diameter) — a path of 2^20 nodes converges in
~25 rounds instead of 10^6. Shallow clusters never pay the extra join.
If the labels are STILL moving at ``max_iter`` the function raises
rather than silently returning fragmented components.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from pyrosm_ray.stages.blocks import co_join, fold, unreserved

DOUBLING_START = 2  # propagation-only rounds before pointer doubling kicks in

_LABELS_EMPTY = pa.table({"node": pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64())})


def _sym_edges(batch: pa.Table, a_col: str, b_col: str) -> pa.Table:
    a = np.asarray(batch[a_col].to_numpy(zero_copy_only=False),
                   dtype=np.int64)
    b = np.asarray(batch[b_col].to_numpy(zero_copy_only=False),
                   dtype=np.int64)
    # both directions + self loops (so min includes the node's own label)
    src = np.concatenate([a, b, a, b])
    dst = np.concatenate([b, a, a, b])
    return pa.table({"src": pa.array(src), "dst": pa.array(dst)})


def _min_per_node(ds, node_col: str, val_col: str, nb: int | None):
    """(node, label) = min ``val_col`` per ``node_col``: one fold on the
    node with one factorize/minimum.at pass per partition (a per-node
    call would pay per distinct node)."""
    def min_fold(g: pa.Table) -> pa.Table:
        codes, uniq = pd.factorize(np.asarray(
            g[node_col].to_numpy(zero_copy_only=False), np.int64))
        m = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(m, codes, np.asarray(
            g[val_col].to_numpy(zero_copy_only=False), np.int64))
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "label": pa.array(m, pa.int64())})

    return unreserved(
        fold(ds, node_col, min_fold, nb, _LABELS_EMPTY).materialize())


def _label_sum(labels) -> int:
    """Sum of every label, one partial per (materialized) block."""
    parts = labels.map_batches(lambda b: pa.table(
        {"s": pa.array([pc.sum(b["label"]).as_py() or 0], pa.int64())}),
        batch_format="pyarrow")
    return sum(sum(b["s"].to_pylist())
               for b in parts.iter_batches(batch_format="pyarrow"))


def connected_components(edges_ds, a_col: str = "a", b_col: str = "b",
                         num_partitions: int | None = None,
                         max_iter: int = 25) -> rd.Dataset | None:
    """Edge list Dataset (a, b) -> Dataset (node, comp) where ``comp`` is
    the minimum node id of the node's component. Covers every node that
    appears in an edge (isolated nodes are their own component — attach
    with a left-outer join + coalesce). Returns None for an empty edge
    list."""
    edges = unreserved(edges_ds.map_batches(
        lambda b: _sym_edges(b, a_col, b_col),
        batch_format="pyarrow").materialize())
    if edges.count() == 0:
        return None

    def double(labels):
        """Pointer doubling: label(v) <- label(label(v)). Every label IS a
        node id that appears in an edge (it is a min over edge endpoints),
        and the self-loops in ``_sym_edges`` put every such node in the
        label map, so the inner self-join is total. label(l) <= l, so the
        monotone-sum convergence test still holds."""
        rhs = labels.map_batches(
            lambda b: pa.table({"label": b["node"], "llabel": b["label"]}),
            batch_format="pyarrow")
        j = co_join(labels, rhs, "label", num_partitions, pa.table({
            "node": pa.array([], pa.int64()),
            "label": pa.array([], pa.int64()),
            "llabel": pa.array([], pa.int64())}))
        return unreserved(j.map_batches(
            lambda b: pa.table({"node": b["node"], "label": b["llabel"]}),
            batch_format="pyarrow").materialize())

    # round 0 fused with init (labels start as node ids, so the first
    # min over neighbors is just min(src) per dst)
    labels = _min_per_node(edges, "dst", "src", num_partitions)
    prev_sum = _label_sum(labels)
    joined_empty = pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64())})
    converged = False
    for round_i in range(max_iter):
        j = co_join(edges, labels.map_batches(
            lambda b: pa.table({"src": b["node"], "label": b["label"]}),
            batch_format="pyarrow"), "src", num_partitions, joined_empty)
        labels = _min_per_node(j, "dst", "label", num_partitions)
        if round_i >= DOUBLING_START:
            labels = double(labels)
        new_sum = _label_sum(labels)
        if new_sum == prev_sum:
            converged = True
            break
        prev_sum = new_sum
    if not converged:
        raise RuntimeError(
            f"connected_components: labels still changing after "
            f"{max_iter} rounds (component diameter > ~2^{max_iter}); "
            f"raise max_iter")

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "comp": batch["label"]})

    return labels.map_batches(finalize, batch_format="pyarrow")


ATTACH_BROADCAST_MAX = 2_000_000


def _attach_broadcast(ds, node: np.ndarray, comp: np.ndarray, id_col: str,
                      out_col: str) -> rd.Dataset:
    import ray
    order = np.argsort(node, kind="stable")
    ref = ray.put((node[order], comp[order]))

    def bmap(batch: pa.Table) -> pa.Table:
        nodes, comps = ray.get(ref)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        out = ids.copy()
        if len(nodes):
            pos = np.clip(np.searchsorted(nodes, ids), 0,
                          len(nodes) - 1)
            hit = nodes[pos] == ids
            out[hit] = comps[pos[hit]]
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(bmap, batch_format="pyarrow")


def attach_components(ds, labels, id_col: str,
                      out_col: str = "dup_of",
                      num_partitions: int | None = None) -> rd.Dataset:
    """Attach ``comp`` onto ``ds`` by id; nodes without an edge map to
    themselves. ``labels`` is a (node, comp) Dataset, a plain
    ``(node_array, comp_array)`` tuple (driver-computed label maps), or
    None (everyone self-maps). The label map covers only nodes that had an
    edge (the near-dup subgraph), so under ``ATTACH_BROADCAST_MAX`` rows
    it is broadcast and applied with a searchsorted map (no shuffle);
    above that a distributed left-outer join takes over."""
    if labels is None:
        def self_map(batch: pa.Table) -> pa.Table:
            return batch.append_column(out_col, batch[id_col])
        return ds.map_batches(self_map, batch_format="pyarrow")
    if isinstance(labels, tuple):
        node, comp = labels
        return _attach_broadcast(ds, np.asarray(node, dtype=np.int64),
                                 np.asarray(comp, dtype=np.int64),
                                 id_col, out_col)
    if labels.count() <= ATTACH_BROADCAST_MAX:
        lab = labels.to_pandas()
        return _attach_broadcast(
            ds, np.asarray(lab["node"], dtype=np.int64),
            np.asarray(lab["comp"], dtype=np.int64), id_col, out_col)
    right = labels.map_batches(lambda b: pa.table(
        {id_col: b["node"], "comp": b["comp"]}), batch_format="pyarrow")
    empty = ds.schema().base_schema.empty_table().append_column(
        "comp", pa.array([], pa.int64()))
    j = co_join(ds, right, id_col, num_partitions, empty,
                join_type="left outer")

    def coalesce(batch: pa.Table) -> pa.Table:
        comp = pc.coalesce(batch["comp"], batch[id_col])
        out = batch.drop_columns(["comp"])
        return out.append_column(out_col, comp)

    return j.map_batches(coalesce, batch_format="pyarrow")
