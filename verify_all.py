#!/usr/bin/env python3
"""Self-witnessing oracle sweep: run EVERY ``queries()`` entry against its
``oracle_sql()`` twin at sf0.01 (the driver's correctness protocol —
row-count + schema + sorted-value compare) and print a green board plus one
JSON summary line.  The driver itself caps at the first 50 registered
queries; this script witnesses ALL registered queries (96 as of round 5),
so every round self-verifies the full board without waiting for the judge.

Usage:
    python verify_all.py                      # all queries, sf0.01
    RAY_GRAFT_CPUS=2 python verify_all.py     # Ray CPUs (default: usable cores)
    python verify_all.py --names q_funnel,q_retention
    python verify_all.py --sf-dir /root/testdata/sf0.001

Owns its Ray session (the driver-facing module never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _to_pandas(res):
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


FLOAT_TOL = 1e-6


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-compare canonical form: columns sorted by name, rows sorted by
    all columns, timestamps as int64 ns, floats rounded."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("int64")
        elif pd.api.types.is_float_dtype(s):
            df[c] = s.round(6)
        elif s.dtype == object:
            # lists / bytes -> stable repr for sorting+compare
            df[c] = s.map(lambda v: repr(v) if isinstance(
                v, (list, np.ndarray, bytes, dict)) else v)
    df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def _frames_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Integer, string and timestamp columns compare exactly. Float
    columns (already rounded to 6 dp by ``_canon``) compare with
    ``allclose(rtol=atol=FLOAT_TOL)``, NaN equal to NaN."""
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if pd.api.types.is_float_dtype(a[c]) or pd.api.types.is_float_dtype(b[c]):
            ok = np.allclose(av.astype(float), bv.astype(float),
                             rtol=FLOAT_TOL, atol=FLOAT_TOL,
                             equal_nan=True)
        else:
            ok = (pd.Series(av).fillna("\x00NA") ==
                  pd.Series(bv).fillna("\x00NA")).all()
        if not ok:
            return False
    return True


def run_sweep(sf_dir: str, names=None) -> dict:
    import duckdb
    import __ray_entry__ as E

    Q, O = E.queries(), E.oracle_sql()
    names = names or list(Q)
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    board, n_pass, n_rows_only, n_fail = {}, 0, 0, 0
    for n in names:
        t0 = time.perf_counter()
        row = {"rows_match": False, "schema_match": False,
               "hash_match": False, "err": None}
        try:
            df = _to_pandas(Q[n](sf_dir))
            row["spark_rows"] = int(len(df))
            if n not in O:          # rows-only by documented design
                row.update(rows_match=len(df) >= 0, schema_match=True,
                           hash_match=None, oracle_rows=None)
                n_rows_only += 1
                status = "rows-only"
            else:
                odf = con.execute(O[n]).df()
                row["oracle_rows"] = int(len(odf))
                row["rows_match"] = len(df) == len(odf)
                row["schema_match"] = sorted(df.columns) == sorted(odf.columns)
                row["hash_match"] = (row["rows_match"] and row["schema_match"]
                                     and _frames_equal(_canon(df), _canon(odf)))
                status = "PASS" if row["hash_match"] else "FAIL"
                if row["hash_match"]:
                    n_pass += 1
                else:
                    n_fail += 1
        except Exception as exc:    # noqa: BLE001 - board records the error
            row["err"] = f"{type(exc).__name__}: {exc}"[:300]
            status = "ERROR"
            n_fail += 1
        row["sec"] = round(time.perf_counter() - t0, 2)
        board[n] = row
        print(f"{status:9s} {n:32s} {row['sec']:7.2f}s "
              f"rows={row.get('spark_rows')}", flush=True)
        if row["err"]:
            print(f"          {row['err']}", flush=True)
    return {"board": board, "pass": n_pass, "rows_only": n_rows_only,
            "fail": n_fail, "total": len(names), "sf_dir": sf_dir}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--names", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--out", default=None, help="write board JSON here")
    args = ap.parse_args()

    import logging

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get(
                     "RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))),
                 include_dashboard=False, ignore_reinit_error=True)
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    try:
        ray.data.DataContext.get_current().enable_progress_bars = False
    except Exception:
        pass
    t0 = time.perf_counter()
    res = run_sweep(args.sf_dir,
                    args.names.split(",") if args.names else None)
    res["wall_sec"] = round(time.perf_counter() - t0, 1)
    summary = {k: res[k] for k in
               ("pass", "rows_only", "fail", "total", "wall_sec", "sf_dir")}
    summary["float_tol"] = FLOAT_TOL
    print(json.dumps(summary))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(res, f, indent=1)
    ray.shutdown()
    return 1 if res["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
