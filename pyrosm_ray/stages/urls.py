"""URL canonicalization (training-data pipeline staple; RE2 kernels only,
so DuckDB oracles evaluate the same regex semantics).

Canonical form: fragment stripped; scheme and host lowercased (path/query
case PRESERVED — it is significant); default ports dropped (http:80,
https:443); empty path becomes "/". Non-URL rows (no scheme://host match)
pass through with only the fragment stripped.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

def canonicalize_batch(batch: pa.Table, url_col: str = "url",
                       out_col: str = "url_canon") -> pa.Table:
    u = pc.replace_substring_regex(batch[url_col], r"#.*$", "")
    m = pc.extract_regex(
        u, r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/:?#]*)"
           r"(?P<port>:[0-9]*)?(?P<rest>.*)$")
    matched = pc.is_valid(m)
    scheme = pc.utf8_lower(pc.struct_field(m, "scheme"))
    host = pc.utf8_lower(pc.struct_field(m, "host"))
    port = pc.fill_null(pc.struct_field(m, "port"), "")
    rest = pc.struct_field(m, "rest")
    # default ports drop; empty path -> "/"
    drop = pc.or_(
        pc.and_(pc.equal(scheme, "http"), pc.equal(port, ":80")),
        pc.and_(pc.equal(scheme, "https"), pc.equal(port, ":443")))
    port = pc.if_else(drop, "", port)
    rest = pc.if_else(pc.equal(rest, ""), "/", rest)
    canon = pc.binary_join_element_wise(scheme, "://", host, port, rest, "")
    out = pc.if_else(matched, canon, u)
    return batch.append_column(out_col, out)


def canonicalize_urls(ds, url_col: str = "url",
                      out_col: str = "url_canon"):
    return ds.map_batches(
        lambda b: canonicalize_batch(b, url_col, out_col),
        batch_format="pyarrow")


_HOST_PAT = (r"^([A-Za-z][A-Za-z0-9+.\-]*)://([^/:?#]*)"
             r"(:[0-9]*)?(.*)$")


def extract_host_batch(batch: pa.Table, url_col: str = "url",
                       out_col: str = "host") -> pa.Table:
    """Append the lowercased host (regex group 2 of the canonical URL
    pattern; '' for non-URL rows — matching the SQL twin's
    regexp_extract semantics)."""
    m = pc.extract_regex(
        batch[url_col],
        r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/:?#]*)"
        r"(?P<port>:[0-9]*)?(?P<rest>.*)$")
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(m, "host"), ""))
    return batch.append_column(out_col, host)


def extract_host_sql(url_expr: str = "url") -> str:
    return f"lower(regexp_extract({url_expr}, '{_HOST_PAT}', 2))"


def host_filter(ds, blocked, url_col: str = "url",
                num_partitions: int | None = None):
    """Drop rows whose URL host is on a blocklist — the Dolma/RefinedWeb
    domain-blocklist stage.

    ``blocked`` routes the join strategy explicitly:

    * a Python list/set of hosts → broadcast: one ``ray.put`` of a numpy
      array, ``np.isin`` per batch (zero shuffle; right for the
      real-world few-MB blocklists);
    * a Ray ``Dataset`` with a ``host`` column → distributed hash
      left anti join (``blocks.co_join``), for blocklists too large to
      broadcast.
    """
    import numpy as np
    import ray

    withhost = ds.map_batches(
        lambda b: extract_host_batch(b, url_col, "__host"),
        batch_format="pyarrow")
    if isinstance(blocked, (list, tuple, set, frozenset)):
        blk_ref = ray.put(np.asarray(sorted(blocked), dtype=object))

        def drop(batch: pa.Table) -> pa.Table:
            blk = ray.get(blk_ref)
            hosts = np.asarray(batch["__host"].to_pylist(), dtype=object)
            keep = ~np.isin(hosts, blk)
            return batch.filter(pa.array(keep)).drop_columns(["__host"])

        return withhost.map_batches(drop, batch_format="pyarrow")

    from pyrosm_ray.stages.blocks import co_join, groupby_partitions
    hosts = blocked.map_batches(
        lambda b: pa.table({"__host": pc.utf8_lower(b["host"])}),
        batch_format="pyarrow")
    kept = co_join(withhost, hosts, "__host",
                   num_partitions or groupby_partitions(),
                   withhost.schema().base_schema.empty_table(),
                   join_type="left anti")
    return kept.map_batches(lambda b: b.drop_columns(["__host"]),
                            batch_format="pyarrow")


def host_reputation_filter(ds, url_col: str = "url",
                           text_col: str = "text", q: float = 0.5):
    """Domain-reputation floor: aggregate whitespace-token counts per
    host, take the exact ``quantile_disc(q)`` over the per-host sums,
    keep only pages from hosts at-or-above it.

    Composition of three scale-safe primitives: a batch-partial keyed
    aggregate (pages never shuffle — only (host, count) partials), the
    compact-histogram exact quantile from :mod:`quantiles` (the host
    table is one row per domain), and a broadcast semi-join back over
    the page stream. Returns the surviving pages with ``host`` and
    ``host_tokens`` attached.

    Driver + broadcast state is O(#domains) — fine to ~10^8 hosts (the
    web has ~10^8 registered domains); beyond that, swap the final
    broadcast for :func:`host_filter`'s distributed Dataset route and
    feed the quantile through :func:`quantiles.group_quantiles`.
    """
    import numpy as np
    import ray

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    from pyrosm_ray.stages.quantiles import quantile_disc_index
    from pyrosm_ray.stages.text import _count_re

    def partial(batch: pa.Table) -> pa.Table:
        b = extract_host_batch(batch, url_col, "__host")
        import pandas as pd
        df = pd.DataFrame({
            "__host": b["__host"].to_pylist(),
            "nt": _count_re(b[text_col], r"\S+"),
        })
        g = df.groupby("__host", sort=False)["nt"].sum().reset_index()
        return pa.table({"__host": pa.array(g["__host"], pa.string()),
                         "nt": pa.array(g["nt"], pa.int64())})

    sums = keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                          "__host", ["nt"]).to_pandas()
    vals = np.sort(sums["nt"].to_numpy(np.int64))
    thr = int(vals[quantile_disc_index(len(vals), q)])
    good = sums.loc[sums["nt"] >= thr]
    good_ref = ray.put(dict(zip(good["__host"],
                                good["nt"].astype(np.int64))))

    def pick(batch: pa.Table) -> pa.Table:
        import pandas as pd
        rep = ray.get(good_ref)
        b = extract_host_batch(batch, url_col, "host")
        hosts = pd.Series(b["host"].to_pylist())
        tok = hosts.map(rep)
        keep = tok.notna().to_numpy()
        b = b.append_column(
            "host_tokens",
            pa.array(tok.fillna(0).to_numpy(np.int64), pa.int64()))
        return b.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")


def canonicalize_sql(url_expr: str = "url") -> str:
    """DuckDB expression reproducing :func:`canonicalize_batch` exactly
    (same RE2 patterns; unmatched optional group -> '' in duckdb,
    handled identically)."""
    u = f"regexp_replace({url_expr}, '#.*$', '')"
    pat = (r"^([A-Za-z][A-Za-z0-9+.\-]*)://([^/:?#]*)(:[0-9]*)?(.*)$")
    scheme = f"lower(regexp_extract({u}, '{pat}', 1))"
    host = f"lower(regexp_extract({u}, '{pat}', 2))"
    port = f"regexp_extract({u}, '{pat}', 3)"
    rest = f"regexp_extract({u}, '{pat}', 4)"
    port_c = (f"CASE WHEN ({scheme} = 'http' AND {port} = ':80') "
              f"OR ({scheme} = 'https' AND {port} = ':443') "
              f"THEN '' ELSE {port} END")
    rest_c = f"CASE WHEN {rest} = '' THEN '/' ELSE {rest} END"
    return (f"CASE WHEN regexp_matches({u}, '{pat}') "
            f"THEN {scheme} || '://' || {host} || {port_c} || {rest_c} "
            f"ELSE {u} END")
