"""Windowed / temporal custom operators Ray Data lacks natively.

``sessionize`` — the classic session-gap window over an event stream:
a new session starts when the gap to the previous event of the same user
exceeds ``gap_s`` (strictly).

``asof_join`` — for each LEFT row, the latest RIGHT row at-or-before its
timestamp within the same key (ties on ts broken by max right id); LEFT
join semantics (unmatched rows keep nulls).

``band_join`` — the 1-D range join: for each LEFT row, the COUNT of
RIGHT rows of the same key whose timestamp falls in
``[left.ts - band_s, left.ts]`` (inclusive).

Execution shape (all three): ONE raw-task fold
(:func:`pyrosm_ray.stages.blocks.fold`) on the key co-partitions every
key's whole stream, and each partition's fold runs once, not once per
key, as segmented numpy over ALL keys in the partition at once: lexsort
by (key, ts, …), key-run boundaries via ``diff``, segmented
forward-fill / cumulative counts for the join matches,
``np.add.reduceat`` for the session sums. No per-key Python
call anywhere — with 10^8 users a per-key call would make 10^8
interpreter round-trips; this shape makes one per partition. The joins
fold both sides at once (a two-sided fold: one table per side).

The as-of match itself is the sorted-merge trick: order rows by
(key, ts, rights-before-lefts, id), mark right rows with their
position, ``np.maximum.accumulate`` forward-fills "latest right seen",
and a key-equality check against each left row invalidates fills that
leaked across a key boundary. The band count is the same scan run twice
(inclusive upper, exclusive shifted lower) with cumulative right-counts
baselined per key run.

Partitioning assumption (documented per the custom-operator contract):
a partition's rows must fit worker memory; raise ``num_partitions``
for skew — correctness only needs all rows of ONE key in one
partition, which the key hash guarantees at any width. Key columns must
be integer-typed (they come out as int64).

Money-safe values: per-session sums are integer cents rounded
half-away-from-zero (the SQL ROUND rule, so the DuckDB oracle reproduces
them exactly) — float sums are order-dependent and would hash-mismatch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.blocks import fold


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where a new key run begins in a key-sorted array."""
    if len(sorted_keys) == 0:
        return np.empty(0, np.int64)
    return np.concatenate((
        [0], np.flatnonzero(np.diff(sorted_keys)) + 1)).astype(np.int64)


def sessionize(ds, gap_s: int = 1800, user_col: str = "user_id",
               ts_col: str = "ts", value_col: str = "value",
               order_col: str = "event_id",
               num_partitions: int | None = None):
    """-> one row per (user, session): start/end ts, event count, integer
    cent sum. Session ids number 1.. per user in (ts, order_col) order."""
    gap_us = int(gap_s) * 1_000_000
    empty = pa.table({
        user_col: pa.array([], pa.int64()),
        "session_id": pa.array([], pa.int64()),
        "session_start": pa.array([], pa.timestamp("us")),
        "session_end": pa.array([], pa.timestamp("us")),
        "n_events": pa.array([], pa.int64()),
        "value_cents": pa.array([], pa.int64()),
    })

    def per_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g[user_col].to_numpy(zero_copy_only=False),
                       np.int64)
        ts = np.asarray(g[ts_col].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False)).astype("datetime64[us]")
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False))
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         np.float64)
        order = np.lexsort((oid, ts, u))
        u, ts, val = u[order], ts[order], val[order]
        t_i = ts.astype(np.int64)
        n = len(t_i)
        new_user = np.ones(n, bool)
        new_user[1:] = u[1:] != u[:-1]
        new_s = new_user.copy()
        new_s[1:] |= np.diff(t_i) > gap_us
        starts = np.flatnonzero(new_s)
        # per-user session numbering: distance to the user's first
        # session, via a forward-filled "first session index of my user"
        s_idx = np.arange(len(starts), dtype=np.int64)
        first_of_user = np.where(new_user[starts], s_idx, -1)
        session_id = s_idx - np.maximum.accumulate(first_of_user) + 1
        ends = np.append(starts[1:], n) - 1
        # half-away-from-zero, matching SQL ROUND (np.rint is half-even:
        # 112.5 would round to 112 and diverge from the oracle)
        cents = np.trunc(val * 100.0 + 0.5 * np.sign(val)).astype(np.int64)
        return pa.table({
            user_col: pa.array(u[starts], pa.int64()),
            "session_id": pa.array(session_id, pa.int64()),
            "session_start": pa.array(ts[starts], pa.timestamp("us")),
            "session_end": pa.array(ts[ends], pa.timestamp("us")),
            "n_events": pa.array(
                np.diff(np.append(starts, n)), pa.int64()),
            "value_cents": pa.array(np.add.reduceat(cents, starts),
                                    pa.int64()),
        })

    return fold(ds, user_col, per_part, num_partitions, empty)


def _sides(left_ds, right_ds, by_col: str, ts_col: str, left_id: str,
           right_id: str):
    """The two join sides narrowed to (key, ts, id): the two-sided fold
    on the key moves nothing else."""
    return tuple(ds.select_columns(list(dict.fromkeys([by_col, ts_col, c])))
                 for ds, c in ((left_ds, left_id), (right_ds, right_id)))


def _stacked(left: pa.Table, right: pa.Table, by_col: str, ts_col: str,
             left_id: str, right_id: str):
    """Left then right rows of one partition as int64 (key, ts-µs, id)
    arrays, plus the right-row mask the sweeps sort by."""
    def arrays(t: pa.Table, id_col: str) -> list:
        if not t.num_rows:  # a side without rows may have no columns
            return [np.empty(0, np.int64)] * 3
        ts = t[ts_col].cast(pa.timestamp("us"))
        return [np.asarray(t[c].cast(pa.int64()).to_numpy(
            zero_copy_only=False), np.int64) for c in (by_col, id_col)] \
            + [np.asarray(ts.to_numpy(zero_copy_only=False))
               .astype(np.int64)]

    (lk, lid, lt), (rk, rid, rt) = arrays(left, left_id), \
        arrays(right, right_id)
    return np.concatenate([lk, rk]), np.concatenate([lt, rt]), \
        np.concatenate([lid, rid]), np.arange(len(lk) + len(rk)) >= len(lk)


def asof_join(left_ds, right_ds, by_col: str = "user_id",
              ts_col: str = "ts", left_id: str = "event_id",
              right_id: str = "event_id",
              num_partitions: int | None = None):
    """As-of join: one row per LEFT row with the id of the latest RIGHT
    row of the same key at-or-before the left timestamp (ties on ts
    resolved to the max right id) and the lag in microseconds; both null
    when no prior right row exists. Output columns:
    ``(left_id, by_col, matched_id, lag_us)``."""
    empty = pa.table({left_id: pa.array([], pa.int64()),
                      by_col: pa.array([], pa.int64()),
                      "matched_id": pa.array([], pa.int64()),
                      "lag_us": pa.array([], pa.int64())})

    def per_part(left: pa.Table, right: pa.Table) -> pa.Table | None:
        if not left.num_rows:
            return None
        k, t, ids, isr = _stacked(left, right, by_col, ts_col, left_id,
                                  right_id)
        # rights sort BEFORE lefts at equal (key, ts) — "at-or-before"
        # includes equality — and among equal rights the max id comes
        # last, so the forward-fill lands on it
        srt = np.lexsort((ids, ~isr, t, k))
        ks, ts_, ids_, isr_ = k[srt], t[srt], ids[srt], isr[srt]
        pos = np.arange(len(ks), dtype=np.int64)
        last_r = np.maximum.accumulate(np.where(isr_, pos, -1))
        li = pos[~isr_]
        m = last_r[li]
        safe = np.maximum(m, 0)
        valid = (m >= 0) & (ks[safe] == ks[li])
        return pa.table({
            left_id: pa.array(ids_[li], pa.int64()),
            by_col: pa.array(ks[li], pa.int64()),
            "matched_id": pa.array(np.where(valid, ids_[safe], 0),
                                   pa.int64(), mask=~valid),
            "lag_us": pa.array(np.where(valid, ts_[li] - ts_[safe], 0),
                               pa.int64(), mask=~valid),
        })

    return fold(_sides(left_ds, right_ds, by_col, ts_col, left_id,
                       right_id), by_col, per_part, num_partitions, empty)


def _rights_before(k, t, isr, left_eval_t, inclusive: bool):
    """For every LEFT row: count of RIGHT rows of the same key with
    ts <= eval_t (inclusive) or < eval_t (exclusive), via one sort +
    cumulative count baselined at each key run start."""
    n = len(k)
    ev = t.copy()
    ev[~isr] = left_eval_t
    # inclusive: rights first at equal ts (they count); exclusive:
    # lefts first (equal rights don't count)
    side_rank = (~isr if inclusive else isr).astype(np.int8)
    srt = np.lexsort((side_rank, ev, k))
    ks, isr_ = k[srt], isr[srt]
    cumr = np.cumsum(isr_.astype(np.int64))
    starts = _run_starts(ks)
    run_len = np.diff(np.append(starts, n))
    base = np.repeat(np.where(starts > 0, cumr[starts - 1], 0), run_len)
    cnt_sorted = cumr - base
    # scatter counts back to original row order, keep left rows
    cnt = np.empty(n, np.int64)
    cnt[srt] = cnt_sorted
    return cnt[~isr]


def band_join(left_ds, right_ds, band_s: int, by_col: str = "user_id",
              ts_col: str = "ts", left_id: str = "event_id",
              right_id: str = "event_id",
              num_partitions: int | None = None):
    """1-D range (band) join: one row per LEFT row with the COUNT of
    RIGHT rows of the same key whose ts lies in
    ``[left.ts - band_s, left.ts]`` (inclusive both ends). Output
    columns: ``(left_id, by_col, n_in_band)``."""
    band_us = int(band_s) * 1_000_000
    empty = pa.table({left_id: pa.array([], pa.int64()),
                      by_col: pa.array([], pa.int64()),
                      "n_in_band": pa.array([], pa.int64())})

    def per_part(left: pa.Table, right: pa.Table) -> pa.Table | None:
        if not left.num_rows:
            return None
        k, t, ids, isr = _stacked(left, right, by_col, ts_col, left_id,
                                  right_id)
        lefts = ~isr
        lt = t[lefts]
        upper = _rights_before(k, t, isr, lt, inclusive=True)
        lower = _rights_before(k, t, isr, lt - band_us, inclusive=False)
        return pa.table({
            left_id: pa.array(ids[lefts], pa.int64()),
            by_col: pa.array(k[lefts], pa.int64()),
            "n_in_band": pa.array(upper - lower, pa.int64()),
        })

    return fold(_sides(left_ds, right_ds, by_col, ts_col, left_id,
                       right_id), by_col, per_part, num_partitions, empty)


def rolling_agg(ds, window_rows: int, by_col: str = "user_id",
                ts_col: str = "ts", value_col: str = "value",
                id_col: str = "event_id",
                num_partitions: int | None = None):
    """Trailing row-window aggregate per key — SQL's
    ``SUM/COUNT(...) OVER (PARTITION BY key ORDER BY ts, id ROWS
    BETWEEN window_rows-1 PRECEDING AND CURRENT ROW)``.

    Same execution shape as the other windows: one fold on the key,
    one segmented-numpy pass per partition — rows lexsort by
    (key, ts, id), values cumsum once, and every row's window sum is
    ``cs[i+1] - cs[max(i-w+1, run_start_i)]`` (two gathers, no loop).
    Values aggregate as integer cents (ROUND half-away), so sums are
    order-independent and the DuckDB oracle reproduces them exactly.
    Output: (id, key, rolling_sum_cents, rolling_n)."""
    w = int(window_rows)
    if w < 1:
        raise ValueError("window_rows must be >= 1")

    def per_part(g: pa.Table) -> pa.Table:
        k = np.asarray(g[by_col].to_numpy(zero_copy_only=False),
                       np.int64)
        t = np.asarray(g[ts_col].to_numpy(zero_copy_only=False))
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False),
                         np.int64)
        val = np.asarray(g[value_col].to_numpy(zero_copy_only=False),
                         np.float64)
        order = np.lexsort((ids, t, k))
        k, ids, val = k[order], ids[order], val[order]
        cents = np.floor(np.abs(val) * 100.0 + 0.5).astype(np.int64) \
            * np.where(val < 0, -1, 1)
        starts = _run_starts(k)
        flag = np.zeros(len(k), np.int64)
        flag[starts] = 1
        seg_start = starts[np.cumsum(flag) - 1] if len(k) else \
            np.empty(0, np.int64)
        cs = np.zeros(len(k) + 1, np.int64)
        np.cumsum(cents, out=cs[1:])
        idx = np.arange(len(k))
        lo = np.maximum(idx - w + 1, seg_start)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            by_col: pa.array(k, pa.int64()),
            "rolling_sum_cents": pa.array(cs[idx + 1] - cs[lo],
                                          pa.int64()),
            "rolling_n": pa.array(idx - lo + 1, pa.int64()),
        })

    return fold(ds, by_col, per_part, num_partitions, pa.table({
        id_col: pa.array([], pa.int64()),
        by_col: pa.array([], pa.int64()),
        "rolling_sum_cents": pa.array([], pa.int64()),
        "rolling_n": pa.array([], pa.int64())}))


def funnel_stages(ds, stages: tuple[str, ...] = ("view", "click",
                                                 "purchase"),
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  order_col: str = "event_id",
                  num_partitions: int | None = None):
    """Ordered funnel analysis: per user, the furthest stage reached by
    a strictly-ordered subsequence of event types (the product-analytics
    staple — "how many users viewed → clicked → purchased, in that
    order"). Stage k+1 only counts AFTER the first completion of stage k
    (first-touch semantics; order = (ts, order_col), unique because
    order_col is).

    Same one-fold shape as :func:`sessionize` (fold on the user →
    per-partition segmented numpy): within each user segment the stage
    chain resolves with one boolean mask + segment-min per stage —
    ``first_k+1 = min rank of a stage-(k+1) row with rank > first_k`` —
    no Python loops over rows, ``len(stages)`` vectorised passes.

    Output: ``(user_id, funnel_stage)`` — 0 = never entered,
    len(stages) = completed. DuckDB twin: ROW_NUMBER + chained
    MIN-after-prev joins, exact.
    """
    def per_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g[user_col].to_numpy(zero_copy_only=False),
                       np.int64)
        ts = np.asarray(g[ts_col].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False)).astype(np.int64)
        oid = np.asarray(g[order_col].to_numpy(zero_copy_only=False),
                         np.int64)
        typ = np.asarray(g[type_col].to_pylist(), dtype=object)
        order = np.lexsort((oid, ts, u))
        u, typ = u[order], typ[order]
        n = len(u)
        seg = _run_starts(u)
        seg_of = np.zeros(n, np.int64)
        seg_of[seg] = 1
        seg_of = np.cumsum(seg_of) - 1
        idx = np.arange(n, dtype=np.int64)
        INF = np.int64(n + 1)
        first = np.zeros(len(seg), np.int64)      # rank 0 = "before all"
        stage = np.zeros(len(seg), np.int64)
        for s in stages:
            cand = np.where((typ == s) & (idx + 1 > first[seg_of]),
                            idx + 1, INF)
            nxt = np.minimum.reduceat(cand, seg)
            reached = nxt < INF
            stage += reached
            first = np.where(reached, nxt, INF)
        return pa.table({
            user_col: pa.array(u[seg], pa.int64()),
            "funnel_stage": pa.array(stage, pa.int64())})

    return fold(ds, user_col, per_part, num_partitions, pa.table({
        user_col: pa.array([], pa.int64()),
        "funnel_stage": pa.array([], pa.int64())}))


def funnel_stages_sql(events_table: str = "events",
                      stages: tuple[str, ...] = ("view", "click",
                                                 "purchase"),
                      user_col: str = "user_id", ts_col: str = "ts",
                      type_col: str = "event_type",
                      order_col: str = "event_id") -> str:
    """DuckDB twin of :func:`funnel_stages`."""
    ctes = [f"""r AS (SELECT {user_col}, {type_col},
                   ROW_NUMBER() OVER (PARTITION BY {user_col}
                                      ORDER BY {ts_col}, {order_col})
                       AS rn
               FROM {events_table})"""]
    prev = None
    for k, s in enumerate(stages, start=1):
        gate = "" if prev is None else \
            f" JOIN f{k-1} USING ({user_col}) WHERE rn > r{k-1} AND"
        where = "WHERE" if prev is None else ""
        cond = f"{type_col} = '{s}'"
        ctes.append(
            f"""f{k} AS (SELECT {user_col}, MIN(rn) AS r{k}
                 FROM r{gate} {where} {cond} GROUP BY {user_col})""")
        prev = s
    joins = " ".join(f"LEFT JOIN f{k} USING ({user_col})"
                     for k in range(1, len(stages) + 1))
    stage_sum = " + ".join(
        f"CASE WHEN r{k} IS NOT NULL THEN 1 ELSE 0 END"
        for k in range(1, len(stages) + 1))
    return f"""
        WITH {', '.join(ctes)},
        u AS (SELECT DISTINCT {user_col} FROM {events_table})
        SELECT u.{user_col}, CAST({stage_sum} AS BIGINT) AS funnel_stage
        FROM u {joins} ORDER BY u.{user_col}"""


WEEK_S = 7 * 86400


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts",
                      num_partitions: int | None = None):
    """Weekly cohort retention matrix — the product-analytics staple
    next to :func:`funnel_stages`: users cohort by their FIRST active
    epoch-week; each later active week contributes one (cohort_week,
    week_offset) cell count.

    One fold on the user (the sessionize shape): per partition each
    user's distinct active weeks resolve with one lexsort + run-length
    pass, emitting (cohort, offset) partial counts; the final fold runs
    over the tiny weeks² cell domain (:func:`keyed_sum_fold` keyed by
    ``cohort·2^20 + offset`` — offsets are < 2^20 forever).

    Output: ``(cohort_week, week_offset, n_users)`` — epoch weeks
    (``floor(epoch_s / 604800)``), offset 0 row = cohort size. DuckDB
    twin exact (integer week arithmetic).
    """
    from pyrosm_ray.stages.blocks import keyed_sum_auto

    def per_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g[user_col].to_numpy(zero_copy_only=False),
                       np.int64)
        ts = np.asarray(g[ts_col].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False)).astype(np.int64)
        wk = ts // 1_000_000 // WEEK_S
        order = np.lexsort((wk, u))
        u, wk = u[order], wk[order]
        first = np.ones(len(u), bool)
        first[1:] = (u[1:] != u[:-1]) | (wk[1:] != wk[:-1])
        u, wk = u[first], wk[first]            # distinct (user, week)
        seg = _run_starts(u)
        seg_of = np.zeros(len(u), np.int64)
        seg_of[seg] = 1
        seg_of = np.cumsum(seg_of) - 1
        cohort = wk[seg][seg_of]               # user's min week
        cell = cohort * (1 << 20) + (wk - cohort)
        vals, cnt = np.unique(cell, return_counts=True)
        return pa.table({"cell": pa.array(vals, pa.int64()),
                         "n": pa.array(cnt.astype(np.int64), pa.int64())})

    partials = fold(ds, user_col, per_part, num_partitions, pa.table({
        "cell": pa.array([], pa.int64()),
        "n": pa.array([], pa.int64())}))
    folded = keyed_sum_auto(partials, "cell", ["n"],
                            num_partitions=num_partitions)

    def unpack(t: pa.Table) -> pa.Table:
        cell = np.asarray(t["cell"].to_numpy(zero_copy_only=False),
                          np.int64)
        return pa.table({
            "cohort_week": pa.array(cell >> 20, pa.int64()),
            "week_offset": pa.array(cell & ((1 << 20) - 1), pa.int64()),
            "n_users": t["n"]})

    return folded.map_batches(unpack, batch_format="pyarrow")


def retention_cohorts_sql(events_table: str = "events",
                          user_col: str = "user_id",
                          ts_col: str = "ts") -> str:
    """DuckDB twin of :func:`retention_cohorts`."""
    wk = f"CAST(FLOOR(epoch({ts_col}) / {WEEK_S}) AS BIGINT)"
    return f"""
        WITH uw AS (SELECT DISTINCT {user_col}, {wk} AS wk
                    FROM {events_table}),
        co AS (SELECT {user_col}, MIN(wk) AS cohort FROM uw
               GROUP BY {user_col})
        SELECT co.cohort AS cohort_week,
               CAST(uw.wk - co.cohort AS BIGINT) AS week_offset,
               CAST(COUNT(*) AS BIGINT) AS n_users
        FROM uw JOIN co USING ({user_col})
        GROUP BY 1, 2 ORDER BY 1, 2"""
