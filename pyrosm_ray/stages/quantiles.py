"""Exact distributed quantiles and quantile-threshold filtering.

The curation move these enable: "keep documents whose metric clears the
p-th quantile of its group" — per-language length floors, per-domain
quality cut-offs, global percentile trims. The quantile is EXACT (DuckDB
``quantile_disc`` semantics: sorted ascending, element at index
``ceil(q*n) - 1``), not a sketch, yet nothing resembling a global sort
ever runs. :func:`group_quantiles` (integer metrics) is one scan and one
or two raw-task folds over the blocks it holds
(:mod:`pyrosm_ray.stages.blocks`):

* the scan: each input block folds to its local ``(group, value) ->
  count`` histogram, fused into the input's own read (the stage's one
  Ray Data execution). For integer-ish metrics (token counts, char
  lengths, rounded scores) the distinct-value space is small relative
  to the corpus, so the scan output is a compact histogram, not the
  data;
* past :data:`~pyrosm_ray.stages.blocks.KEYED_FOLD_DRIVER_MAX`
  histogram rows, one fold on the compound ``(group, value)`` key
  merges the partial counts, so every reducer gets work even when
  there are only a few groups (a group-keyed fold would put all of a
  group's partial rows in one task);
* one fold on the group reads every requested quantile off each group
  of a partition in one pass.

One vectorised kernel (:func:`_runs`: a dictionary encode of the group
column, one lexsort, a segment sum) builds, merges and reads the
histograms; nothing goes through Python objects per row or per group.
The driver never touches per-row data, and shuffle bytes are bounded by
the number of distinct (group, value) pairs, independent of corpus size.

No reference equivalent (pyrosm has no quantile operators — SURVEY.md
§2.5 covers only sum/min/max/count families); semantics are pinned to
the public DuckDB ``quantile_disc`` contract so the driver oracle can
replicate values bit-for-bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pyrosm_ray.stages.blocks import Blocks, exchange, fold, fold_blocks, \
    unreserved

_HIST_EMPTY = pa.table({"__g": pa.array([], pa.string()),
                        "__v": pa.array([], pa.int64()),
                        "__c": pa.array([], pa.int64())})


def _runs(groups, values, counts=None):
    """The distinct (group, value) pairs of parallel group, value and
    (optional, else 1 per row) count columns, with their counts summed:
    ``(group names, group code, value, count)``, one entry per pair in
    (group code, value) order. Rows whose group or value is null belong
    to no group and are dropped (as DuckDB's ``quantile_disc`` ignores
    NULLs). One dictionary encode, one lexsort, one segment sum."""
    def flat(col):
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col

    groups, values = flat(groups), flat(values)
    if counts is not None:
        counts = flat(counts)
    if groups.null_count or values.null_count:
        keep = pc.and_(groups.is_valid(), values.is_valid())
        groups, values = groups.filter(keep), values.filter(keep)
        counts = None if counts is None else counts.filter(keep)
    enc = pc.dictionary_encode(groups)
    code = np.asarray(enc.indices)
    val = np.asarray(values.to_numpy(zero_copy_only=False), np.int64)
    order = np.lexsort((val, code))
    code, val = code[order], val[order]
    new = np.diff(code, prepend=-1) != 0
    new[1:] |= val[1:] != val[:-1]
    start = np.flatnonzero(new)
    cnt = np.diff(np.append(start, len(code))) if counts is None else \
        np.add.reduceat(np.asarray(counts.to_numpy(zero_copy_only=False),
                                   np.int64)[order], start)
    return enc.dictionary.cast(pa.string()), code[start], val[start], cnt


def _hist_table(names, code, val, cnt) -> pa.Table:
    return pa.table({"__g": names.take(pa.array(code)),
                     "__v": pa.array(val, pa.int64()),
                     "__c": pa.array(cnt, pa.int64())})


def _histogram_batch(batch: pa.Table, group_col: str,
                     value_col: str) -> pa.Table:
    """One block's local (group, value) -> count histogram."""
    return _hist_table(*_runs(batch[group_col], batch[value_col]))


def _merge_hist(t: pa.Table) -> pa.Table:
    """Sum the counts of duplicate (group, value) histogram rows."""
    return _hist_table(*_runs(t["__g"], t["__v"], t["__c"]))


def quantile_disc_index(n: int, q: float) -> int:
    """DuckDB ``quantile_disc`` position: ``ceil(q*n) - 1`` into the
    ascending sort (pinned empirically against DuckDB 1.x; ties like
    q*n == exact-integer resolve to the lower element)."""
    return max(math.ceil(q * n) - 1, 0)


def _picks(names, code, cnt, qs: list[float]):
    """Every group's quantiles over :func:`_runs` output in one pass ->
    (group names, per quantile (the run holding each group's
    :func:`quantile_disc_index` element, that element's rank within the
    run)). The counts prefix-sum across all groups, so a group's rank is
    offset by the counts of the groups before it and one
    ``searchsorted`` per quantile finds every group's run."""
    cum = np.cumsum(cnt)
    first = np.flatnonzero(np.diff(code, prepend=-1))
    n = np.add.reduceat(cnt, first)
    base = np.cumsum(n) - n
    out = []
    for q in qs:
        at = base + np.maximum(np.ceil(q * n).astype(np.int64) - 1, 0)
        run = np.searchsorted(cum, at + 1)
        out.append((run, at - (cum[run] - cnt[run])))
    return names.take(pa.array(code[first])), out


def _fold_thresholds(t: pa.Table, qs: list[float]) -> pa.Table:
    """Every group's quantiles from the histogram rows of a partition
    (duplicate pairs allowed)."""
    names, code, val, cnt = _runs(t["__g"], t["__v"], t["__c"])
    group, picks = _picks(names, code, cnt, qs)
    return pa.table({"group": group, **{
        f"q{j}": pa.array(val[run], pa.int64())
        for j, (run, _) in enumerate(picks)}})


def group_quantiles(ds, group_col: str, value_col: str,
                    qs: float | list[float]):
    """Exact per-group discrete quantiles of an integer metric column.

    Returns a small Dataset — one row per group, columns ``group`` and
    ``q0..qN`` (one per requested quantile); rows with a null group or
    value belong to no group.

    ``ds`` streams once, each block folding to its histogram inside the
    read; the histogram blocks stay held. Past the keyed ceiling their
    counts first merge on the COMPOUND (group, value) key, which
    spreads even a handful of groups over every reducer, and one fold on
    the group then reads every quantile off each of its partition's
    groups (see the module docstring). No other Ray Data execution
    runs.
    """
    from pyrosm_ray.stages.blocks import KEYED_FOLD_DRIVER_MAX

    q_list = [qs] if isinstance(qs, float) else list(qs)
    thresholds = functools.partial(_fold_thresholds, qs=q_list)
    hist = Blocks.of(unreserved(ds.map_batches(
        lambda b: _histogram_batch(b, group_col, value_col),
        batch_format="pyarrow").materialize()))
    if hist.num_rows > KEYED_FOLD_DRIVER_MAX:
        hist = fold_blocks(hist, ["__g", "__v"], _merge_hist, None,
                           _HIST_EMPTY)[0]
    return fold(hist, "__g", thresholds, None, thresholds(_HIST_EMPTY))


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
        v = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                       np.float64)
        if np.isnan(v).any():
            raise ValueError(
                f"{value_col!r} contains NaN; continuous quantiles "
                "require finite values (filter NaNs upstream)")
        return _hist_table(*_runs(batch[group_col], pa.array(
            _float_order_key(v) >> shift))).rename_columns(
            ["__g", "__b", "__c"])

    def fold1(group: pa.Table) -> pa.Table:
        names, code, bins, cnt = _runs(group["__g"], group["__b"],
                                       group["__c"])
        gname, picks = _picks(names, code, cnt, q_list)
        return pa.table({
            "__g": pa.concat_arrays([gname] * len(q_list)),
            "__j": pa.array(np.repeat(np.arange(len(q_list)), len(gname))),
            "__b": pa.array(np.concatenate([bins[r] for r, _ in picks])),
            "__r": pa.array(np.concatenate([k for _, k in picks]))})

    # both read-offs are group-keyed folds sized from their input:
    # the partial histograms are bounded by blocks x bins (pass 1) /
    # candidate rows (pass 2), usually within the keyed ceiling, where
    # one task folds them; per-group work is bin-bounded, so a group
    # task stays small at any corpus size
    hist = ds.map_batches(hist1, batch_format="pyarrow")
    if stats is not None:
        hist = unreserved(hist.materialize())
        stats["pass1_rows"] = hist.count()
    cand = fold(hist, "__g", fold1, None, fold1(_HIST_EMPTY.rename_columns(
        ["__g", "__b", "__c"]))).to_pandas()
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


def _group_index(groups, names: pa.Array) -> np.ndarray:
    """Each row's group's position in ``names`` (a broadcast per-group
    table's ``group`` column), or -1 for a null group or one not in
    ``names``: one vectorised ``index_in``, no Python object per row."""
    return np.asarray(pc.fill_null(pc.index_in(
        groups.cast(pa.string()), value_set=names), -1).to_numpy(
        zero_copy_only=False), np.int64)


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
    thr_ref = ray.put((pa.array(thr_tbl["group"], pa.string()),
                       np.append(thr_tbl["q0"].to_numpy(np.float64),
                                 np.nan)))
    vdtype = np.float64 if is_float else np.int64

    def pick(batch: pa.Table) -> pa.Table:
        names, limits = ray.get(thr_ref)
        vals = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                          vdtype)
        # a row outside every group compares against NaN: never kept
        limit = limits[_group_index(batch[group_col], names)]
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
    group and get a null bin, as do rows of a group without edges (all
    its values null).

    Same cost model as :func:`quantile_filter`: histogram scan + tiny
    shuffle for the edges, broadcast edge table, stateless vectorised
    assign.
    """
    import ray

    qs = sorted(qs)
    is_float = _value_is_float(ds, value_col)
    route = group_quantiles_continuous if is_float else group_quantiles
    edtype = np.float64 if is_float else np.int64
    edges_tbl = route(ds, group_col, value_col, qs).to_pandas()
    # a last all-zero row for the rows outside every group (masked)
    edges_ref = ray.put((pa.array(edges_tbl["group"], pa.string()),
                         np.vstack([edges_tbl[[f"q{j}" for j in range(
                             len(qs))]].to_numpy(edtype),
                             np.zeros((1, len(qs)), edtype)])))

    def assign(batch: pa.Table) -> pa.Table:
        names, edges = ray.get(edges_ref)
        vals = np.asarray(batch[value_col].to_numpy(zero_copy_only=False),
                          edtype)
        at = _group_index(batch[group_col], names)
        # searchsorted(side="left") on ascending edges: the edges below v
        out = (edges[at] < vals[:, None]).sum(axis=1)
        return batch.append_column(out_col, pa.array(out, pa.int64(),
                                                     mask=at < 0))

    return ds.map_batches(assign, batch_format="pyarrow")
