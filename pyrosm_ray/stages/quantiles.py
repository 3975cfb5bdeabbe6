"""Exact distributed quantiles and quantile-threshold filtering.

The curation move these enable: "keep documents whose metric clears the
p-th quantile of its group" — per-language length floors, per-domain
quality cut-offs, global percentile trims. The quantile is EXACT (DuckDB
``quantile_disc`` semantics: sorted ascending, element at index
``ceil(q*n) - 1``), not a sketch, yet nothing resembling a global sort
ever runs:

* stage 1 (one corpus scan): each batch folds to its local
  ``(group, value) -> count`` histogram — for integer-ish metrics
  (token counts, char lengths, rounded scores) the distinct-value space
  is tiny relative to the corpus, so the scan output is a compact
  histogram, not the data;
* stage 2 (one small raw-task exchange,
  :func:`pyrosm_ray.stages.blocks.exchange`): histograms co-partition by
  group and a per-group fold merges counts, sorts the few distinct
  values, prefix-sums and reads off any number of quantile thresholds;
* stage 3: thresholds (one row per group) broadcast back into a
  stateless vectorised filter over the original stream.

Driver never touches per-row data; shuffle bytes are bounded by
``#distinct (group, value) pairs``, independent of corpus size. At
100 TB with token counts < 10^6 and 10^3 groups the shuffled histogram
is ≤ 10^9 rows of three int64s in the worst case and typically far
smaller — and stage 2 stays fully distributed regardless.

No reference equivalent (pyrosm has no quantile operators — SURVEY.md
§2.5 covers only sum/min/max/count families); semantics are pinned to
the public DuckDB ``quantile_disc`` contract so the driver oracle can
replicate values bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.blocks import exchange, fold, unreserved


def _histogram_batch(batch: pa.Table, group_col: str,
                     value_col: str) -> pa.Table:
    """Fold one batch to its local (group, value) -> count histogram.
    Group strings factorize once so the pair groupby runs on two int
    columns (C-level hash, no object dtype in the hot loop). Rows with a
    null group (factorize code -1) belong to no group and are dropped."""
    import pandas as pd
    codes, uniq = pd.factorize(
        np.asarray(batch[group_col].to_pylist(), dtype=object))
    keep = codes >= 0
    df = pd.DataFrame({
        "__gc": codes[keep],
        "__v": np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                          np.int64)[keep],
    })
    g = df.groupby(["__gc", "__v"], sort=False).size() \
        .reset_index(name="__c")
    return pa.table({
        "__g": pa.array(uniq[g["__gc"].to_numpy()], pa.string()),
        "__v": pa.array(g["__v"], pa.int64()),
        "__c": pa.array(g["__c"], pa.int64())})


def quantile_disc_index(n: int, q: float) -> int:
    """DuckDB ``quantile_disc`` position: ``ceil(q*n) - 1`` into the
    ascending sort (pinned empirically against DuckDB 1.x; ties like
    q*n == exact-integer resolve to the lower element)."""
    return max(math.ceil(q * n) - 1, 0)


def _fold_thresholds(group: pa.Table, qs: list[float]) -> pa.Table:
    """Per-group fold over the co-partitioned histogram: merge duplicate
    values, sort, prefix-sum counts, read off each quantile."""
    import pandas as pd
    df = pd.DataFrame({
        "__g": group["__g"].to_pylist(),
        "__v": np.asarray(group["__v"].to_numpy(zero_copy_only=False),
                          np.int64),
        "__c": np.asarray(group["__c"].to_numpy(zero_copy_only=False),
                          np.int64),
    })
    out_g: list[str] = []
    out_q: list[list[int]] = []
    for gname, sub in df.groupby("__g", sort=False):
        merged = sub.groupby("__v", sort=True)["__c"].sum()
        vals = merged.index.to_numpy(np.int64)
        cum = np.cumsum(merged.to_numpy(np.int64))
        n = int(cum[-1])
        idx = np.searchsorted(cum, [quantile_disc_index(n, q) + 1
                                    for q in qs], side="left")
        out_g.append(gname)
        out_q.append([int(vals[i]) for i in idx])
    cols: dict = {"group": pa.array(out_g, pa.string())}
    for j, q in enumerate(qs):
        cols[f"q{j}"] = pa.array([row[j] for row in out_q], pa.int64())
    return pa.table(cols)


def _merge_hist(t: pa.Table) -> pa.Table:
    """Sum the counts of duplicate (group, value) histogram rows."""
    import pandas as pd
    codes, uniq = pd.factorize(
        np.asarray(t["__g"].to_pylist(), dtype=object))
    df = pd.DataFrame({
        "__gc": codes,
        "__v": t["__v"].to_numpy(zero_copy_only=False),
        "__c": t["__c"].to_numpy(zero_copy_only=False)})
    m = df.groupby(["__gc", "__v"], sort=False)["__c"].sum().reset_index()
    return pa.table({
        "__g": pa.array(uniq[m["__gc"].to_numpy()], pa.string()),
        "__v": pa.array(m["__v"], pa.int64()),
        "__c": pa.array(m["__c"], pa.int64())})


def group_quantiles(ds, group_col: str, value_col: str,
                    qs: float | list[float]):
    """Exact per-group discrete quantiles of an integer metric column.

    Returns a small Dataset — one row per group, columns ``group`` and
    ``q0..qN`` (one per requested quantile) — computed via the compact
    histogram route described in the module docstring.

    Shuffle shape: past the keyed ceiling the batch partials first merge
    on the COMPOUND (group, value) key — full cluster parallelism even
    with a handful of groups (a group-keyed shuffle serialized ALL
    partial rows into #groups partitions: measured 8 s of an 11.9 s wall
    on a 2 M-doc / 5-language corpus; merged-first it is ~1 s). The
    threshold read-off then runs per group over the (strictly smaller)
    merged rows, in one task while they fit the ceiling.
    """
    import ray

    from pyrosm_ray.stages.blocks import KEYED_FOLD_DRIVER_MAX

    q_list = [qs] if isinstance(qs, float) else list(qs)
    empty = pa.table({"group": pa.array([], pa.string()),
                      **{f"q{j}": pa.array([], pa.int64())
                         for j in range(len(q_list))}})
    hist = unreserved(ds.map_batches(
        lambda b: _histogram_batch(b, group_col, value_col),
        batch_format="pyarrow").materialize())
    n_part = hist.count()

    if n_part > KEYED_FOLD_DRIVER_MAX:
        # map-side combine (the keyed_sum_auto level): coalesce the
        # per-block histograms to cluster-width blocks without a keyed
        # fold and re-merge each — distinct (group, value) pairs repeat
        # across blocks, so this usually collapses the stream under the
        # ceiling and the compound-key fold below never runs
        cpus = max(2, int(ray.cluster_resources().get("CPU", 8)))
        merged = unreserved(hist.repartition(cpus).map_batches(
            _merge_hist, batch_format="pyarrow").materialize())
        n_merged = merged.count()
        if n_merged < n_part:
            hist, n_part = merged, n_merged

    if n_part > KEYED_FOLD_DRIVER_MAX:
        hist = fold(hist, ["__g", "__v"], _merge_hist, None, pa.table({
            "__g": pa.array([], pa.string()),
            "__v": pa.array([], pa.int64()),
            "__c": pa.array([], pa.int64())}))
    return exchange(hist, "__g", lambda g: _fold_thresholds(g, q_list),
                    None, empty)


def _float_order_key(v: np.ndarray) -> np.ndarray:
    """Order-preserving float64 -> int64 map (IEEE-754 radix trick:
    non-negative payloads keep their bit pattern, negative payloads flip
    the magnitude bits), so a data-independent coarse binning of floats
    is just a right-shift — no min/max pre-pass needed."""
    u = np.ascontiguousarray(v, np.float64).view(np.int64)
    return np.where(u >= 0, u, u ^ np.int64(0x7FFFFFFFFFFFFFFF))


_COARSE_SHIFT = 50  # keep the top 14 order-key bits: sign + exponent +
#                     2 mantissa bits = 4 coarse bins per binade. Coarse on
#                     purpose: pass-1 rows scale with blocks x populated
#                     bins (finer bins stop compressing the per-batch
#                     histogram), pass-2 rows with n / bins-per-group — the
#                     balance point for Zipf-to-uniform metrics sits at a
#                     few bins per binade (measured 11-15x total shuffle
#                     reduction on the 100 k-row all-distinct test fixture)


def group_quantiles_continuous(ds, group_col: str, value_col: str,
                               qs: float | list[float],
                               coarse_shift: int = _COARSE_SHIFT,
                               stats: dict | None = None):
    """Exact per-group discrete quantiles of a CONTINUOUS (float64)
    metric — same ``quantile_disc`` semantics as :func:`group_quantiles`,
    but the shuffle is NOT bounded by distinct (group, value) pairs
    (≈ row count for continuous data). Two passes instead:

    * pass 1: each batch folds to a (group, coarse_bin) -> count
      histogram over the data-independent radix binning above (~256
      populated bins per binade per group); one small shuffle by group
      locates, per requested quantile, the candidate bin holding the
      target rank and the residual rank within it;
    * pass 2: a second corpus scan keeps ONLY rows landing in a
      candidate (group, bin) — ~n / populated_bins rows per quantile —
      folds them to exact (group, bin, value) counts, and one tiny
      shuffle reads the element at the residual rank.

    Shuffle rows = populated coarse bins + in-candidate-bin rows,
    orders of magnitude below n for continuous domains (test-measured
    >=10x under the row count on a 50 k-row fixture). NaNs are
    rejected (DuckDB ``quantile_disc`` ignores NULLs; a NaN has no
    total-order position). Pass ``stats={}`` to receive
    ``pass1_rows`` / ``pass2_rows`` shuffle-row counts.

    Returns one row per group: ``group``, ``q0..qN`` (float64).
    """
    import ray
    import ray.data as rd

    q_list = [qs] if isinstance(qs, float) else list(qs)
    shift = int(coarse_shift)
    empty = pa.table({"group": pa.array([], pa.string()),
                      **{f"q{j}": pa.array([], pa.float64())
                         for j in range(len(q_list))}})

    def hist1(batch: pa.Table) -> pa.Table:
        import pandas as pd
        v = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                       np.float64)
        if np.isnan(v).any():
            raise ValueError(
                f"{value_col!r} contains NaN; continuous quantiles "
                "require finite values (filter NaNs upstream)")
        df = pd.DataFrame({"__g": batch[group_col].to_pylist(),
                           "__b": _float_order_key(v) >> shift})
        g = df.groupby(["__g", "__b"], sort=False).size() \
            .reset_index(name="__c")
        return pa.table({"__g": pa.array(g["__g"], pa.string()),
                         "__b": pa.array(g["__b"], pa.int64()),
                         "__c": pa.array(g["__c"], pa.int64())})

    def fold1(group: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "__g": group["__g"].to_pylist(),
            "__b": group["__b"].to_numpy(zero_copy_only=False),
            "__c": group["__c"].to_numpy(zero_copy_only=False)})
        out = {"__g": [], "__j": [], "__b": [], "__r": []}
        for gname, sub in df.groupby("__g", sort=False):
            merged = sub.groupby("__b", sort=True)["__c"].sum()
            bins = merged.index.to_numpy(np.int64)
            cum = np.cumsum(merged.to_numpy(np.int64))
            n = int(cum[-1])
            for j, q in enumerate(q_list):
                r = quantile_disc_index(n, q)
                i = int(np.searchsorted(cum, r + 1, side="left"))
                out["__g"].append(gname)
                out["__j"].append(j)
                out["__b"].append(int(bins[i]))
                out["__r"].append(r - (int(cum[i - 1]) if i else 0))
        return pa.table({"__g": pa.array(out["__g"], pa.string()),
                         "__j": pa.array(out["__j"], pa.int64()),
                         "__b": pa.array(out["__b"], pa.int64()),
                         "__r": pa.array(out["__r"], pa.int64())})

    # both read-offs are group-keyed exchanges sized from their input:
    # the partial histograms are bounded by blocks x bins (pass 1) /
    # candidate rows (pass 2), usually within the keyed ceiling, where
    # one task folds them; per-group work is bin-bounded, so a group
    # task stays small at any corpus size
    hist = ds.map_batches(hist1, batch_format="pyarrow")
    if stats is not None:
        hist = unreserved(hist.materialize())
        stats["pass1_rows"] = hist.count()
    cand = exchange(hist, "__g", fold1, None, fold1(pa.table({
        "__g": pa.array([], pa.string()), "__b": pa.array([], pa.int64()),
        "__c": pa.array([], pa.int64())}))).to_pandas()
    if cand.empty:
        return unreserved(rd.from_arrow(empty))
    # one row per (group, quantile) — inherently tiny; broadcast
    targets: dict[str, dict] = {}
    for gname, sub in cand.groupby("__g", sort=False):
        targets[gname] = {
            "bins": np.unique(sub["__b"].to_numpy(np.int64)),
            "picks": list(zip(sub["__j"], sub["__b"], sub["__r"]))}
    t_ref = ray.put(targets)

    def keep2(batch: pa.Table) -> pa.Table:
        import pandas as pd
        tg = ray.get(t_ref)
        v = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                       np.float64)
        b = _float_order_key(v) >> shift
        groups = pd.Series(batch[group_col].to_pylist())
        keep = np.zeros(len(v), bool)
        for gname, idx in groups.groupby(groups, sort=False).groups.items():
            t = tg.get(gname)
            if t is None:
                continue
            ii = np.asarray(idx)
            bb = t["bins"]
            pos = np.clip(np.searchsorted(bb, b[ii]), 0, len(bb) - 1)
            keep[ii] = bb[pos] == b[ii]
        if not keep.any():
            return pa.table({"__g": pa.array([], pa.string()),
                             "__b": pa.array([], pa.int64()),
                             "__v": pa.array([], pa.float64()),
                             "__c": pa.array([], pa.int64())})
        df = pd.DataFrame({"__g": groups[keep].to_numpy(),
                           "__b": b[keep], "__v": v[keep]})
        g = df.groupby(["__g", "__b", "__v"], sort=False).size() \
            .reset_index(name="__c")
        return pa.table({"__g": pa.array(g["__g"], pa.string()),
                         "__b": pa.array(g["__b"], pa.int64()),
                         "__v": pa.array(g["__v"], pa.float64()),
                         "__c": pa.array(g["__c"], pa.int64())})

    def fold2(group: pa.Table) -> pa.Table:
        import pandas as pd
        tg = ray.get(t_ref)
        df = pd.DataFrame({
            "__g": group["__g"].to_pylist(),
            "__b": group["__b"].to_numpy(zero_copy_only=False),
            "__v": group["__v"].to_numpy(zero_copy_only=False),
            "__c": group["__c"].to_numpy(zero_copy_only=False)})
        rows: dict[str, list] = {"group": []}
        for j in range(len(q_list)):
            rows[f"q{j}"] = []
        for gname, sub in df.groupby("__g", sort=False):
            rows["group"].append(gname)
            vals: dict[int, float] = {}
            for j, bin_, rank in tg[gname]["picks"]:
                inb = sub[sub["__b"] == bin_]
                merged = inb.groupby("__v", sort=True)["__c"].sum()
                vv = merged.index.to_numpy(np.float64)
                cum = np.cumsum(merged.to_numpy(np.int64))
                i = int(np.searchsorted(cum, rank + 1, side="left"))
                vals[int(j)] = float(vv[i])
            for j in range(len(q_list)):
                rows[f"q{j}"].append(vals[j])
        cols = {"group": pa.array(rows["group"], pa.string())}
        for j in range(len(q_list)):
            cols[f"q{j}"] = pa.array(rows[f"q{j}"], pa.float64())
        return pa.table(cols)

    inbin = ds.map_batches(keep2, batch_format="pyarrow")
    if stats is not None:
        inbin = unreserved(inbin.materialize())
        stats["pass2_rows"] = inbin.count()
    return exchange(inbin, "__g", fold2, None, empty)


def quantile_filter(ds, group_col: str, value_col: str, q: float,
                    keep: str = "ge"):
    """Keep rows whose ``value_col`` clears its group's exact q-th
    discrete quantile (``keep`` in {"ge", "gt", "le", "lt"}).

    The threshold table is one row per group — inherently tiny — so it
    broadcasts (one driver collect + plasma put) into a stateless
    vectorised filter; the corpus itself streams through exactly twice
    (histogram scan + filter scan) and never shuffles.
    """
    import ray

    ops = {"ge": np.greater_equal, "gt": np.greater,
           "le": np.less_equal, "lt": np.less}
    if keep not in ops:
        raise ValueError(f"keep must be one of {sorted(ops)}, got {keep!r}")
    op = ops[keep]
    is_float = _value_is_float(ds, value_col)
    route = group_quantiles_continuous if is_float else group_quantiles
    thr_tbl = route(ds, group_col, value_col, q).to_pandas()
    thr_ref = ray.put(dict(zip(thr_tbl["group"], thr_tbl["q0"])))
    vdtype = np.float64 if is_float else np.int64

    def pick(batch: pa.Table) -> pa.Table:
        import pandas as pd
        thr = ray.get(thr_ref)
        groups = pd.Series(batch[group_col].to_pylist())
        vals = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                          vdtype)
        limit = groups.map(thr).to_numpy(np.float64)
        return batch.filter(pa.array(op(vals, limit)))

    return ds.map_batches(pick, batch_format="pyarrow")


def _value_is_float(ds, value_col: str) -> bool:
    """True when the metric column is floating (continuous) — routes the
    quantile family to the two-pass radix-bin plan instead of the full
    (group, value) histogram (whose shuffle ≈ row count for floats).
    schema() is metadata-only. A missing column raises instead of
    silently taking the integer route, which would truncate floats."""
    sch = ds.schema()
    t = sch.types[sch.names.index(value_col)]
    return pa.types.is_floating(t) if isinstance(t, pa.DataType) \
        else np.issubdtype(t, np.floating)


def quantile_bins(ds, group_col: str, value_col: str, qs: list[float],
                  out_col: str = "bin"):
    """Assign every row the index of its per-group quantile bin — the
    "quality tier" move (e.g. qs=[0.25, 0.5, 0.75] -> tiers 0..3 per
    language). Bin b means ``value > edge[b-1] and value <= edge[b]``
    with edges the exact per-group discrete quantiles; bin 0 is
    everything at-or-below the first edge, the last bin everything
    above the last edge (``searchsorted(edges, v, side="left")``
    semantics on ascending edges). Rows with a null group belong to no
    group and get a null bin.

    Same cost model as :func:`quantile_filter`: histogram scan + tiny
    shuffle for the edges, broadcast dict, stateless vectorised assign.
    """
    import ray

    qs = sorted(qs)
    is_float = _value_is_float(ds, value_col)
    route = group_quantiles_continuous if is_float else group_quantiles
    edtype = np.float64 if is_float else np.int64
    edges_tbl = route(ds, group_col, value_col, qs).to_pandas()
    edges = {g: np.array([row[f"q{j}"] for j in range(len(qs))],
                         dtype=edtype)
             for g, row in edges_tbl.set_index("group").iterrows()}
    edges_ref = ray.put(edges)

    def assign(batch: pa.Table) -> pa.Table:
        import pandas as pd
        ed = ray.get(edges_ref)
        groups = batch[group_col].to_pylist()
        vals = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                          edtype)
        out = np.zeros(len(vals), np.int64)
        df = pd.DataFrame({"g": groups, "i": np.arange(len(vals))})
        for gname, sub in df.groupby("g", sort=False):  # drops null keys
            idx = sub["i"].to_numpy()
            out[idx] = np.searchsorted(ed[gname], vals[idx], side="left")
        null = batch[group_col].is_null().to_numpy(zero_copy_only=False)
        return batch.append_column(out_col,
                                   pa.array(out, pa.int64(), mask=null))

    return ds.map_batches(assign, batch_format="pyarrow")
