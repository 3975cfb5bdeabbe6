"""Edge inputs on the operators whose driver twin is gone.

``keyed_sum_auto``, ``group_quantiles``, ``group_quantiles_continuous``,
``exact_dedup``, ``incremental_dedup`` and ``dup_span_stats`` now run
every input through ``blocks.fold``/``exchange`` with ``nb=None``. Each
case runs with the fold ceiling lowered to ``N`` rows, so "at the
ceiling" and "one row more" take the one-task and the split route. The
expected values come from brute-force references of the documented
semantics, and the result schema must be typed even when it has no
rows."""

import math

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from pyrosm_ray.stages import blocks, dedup, quantiles, spans

N = 48  # the lowered KEYED_FOLD_DRIVER_MAX

_CASES = ["empty", "zero_row_blocks", "one_key", "all_one_key",
          "at_ceiling", "above_ceiling"]


def _keys(case: str) -> list[int]:
    return {"empty": [], "zero_row_blocks": [i % 5 for i in range(12)],
            "one_key": [7], "all_one_key": [7] * 30,
            "at_ceiling": [i % 13 for i in range(N)],
            "above_ceiling": [i % 13 for i in range(N + 1)]}[case]


def _dataset(case: str, t: pa.Table):
    """``t`` as a Dataset; the zero-row-blocks case puts typed zero-row
    blocks before, between and after two row blocks."""
    if case == "zero_row_blocks":
        half = t.num_rows // 2
        return rd.from_arrow([t.slice(0, 0), t.slice(0, half), t.slice(0, 0),
                              t.slice(half), t.slice(0, 0)])
    if t.num_rows > 1:
        return rd.from_arrow(t).repartition(3)
    return rd.from_arrow(t)


def _rows(out) -> list[dict]:
    """Every output row, read block by block (``to_pandas`` drops the
    columns of an all-empty result)."""
    return [r for b in out.iter_internal_ref_bundles()
            for ref, _ in b.blocks for r in ray.get(ref).to_pylist()]


def _disc(vals: list, q: float):
    vals = sorted(vals)
    return vals[max(math.ceil(q * len(vals)) - 1, 0)]


def _keyed_sum(keys):
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array([3 * i - 20 for i in range(len(keys))],
                                pa.int64())})
    want: dict = {}
    for k, v in zip(t["k"].to_pylist(), t["v"].to_pylist()):
        want[k] = want.get(k, 0) + v
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    def run(ds):
        return blocks.keyed_sum_auto(
            ds.map_batches(lambda b: b, batch_format="pyarrow"), "k", ["v"])
    return t, run, sorted(want.items()), schema, \
        lambda rows: sorted((r["k"], r["v"]) for r in rows)


def _quantile_case(keys, continuous: bool):
    vals = [(i * 37) % 23 + (0.25 if continuous else 0)
            for i in range(len(keys))]
    t = pa.table({"g": pa.array([f"g{k}" for k in keys], pa.string()),
                  "x": pa.array(vals, pa.float64() if continuous
                                else pa.int64())})
    groups: dict = {}
    for g, x in zip(t["g"].to_pylist(), vals):
        groups.setdefault(g, []).append(x)
    want = sorted((g, _disc(xs, 0.5), _disc(xs, 0.9))
                  for g, xs in groups.items())
    qtype = pa.float64() if continuous else pa.int64()
    schema = pa.schema([("group", pa.string()), ("q0", qtype),
                        ("q1", qtype)])
    op = quantiles.group_quantiles_continuous if continuous \
        else quantiles.group_quantiles

    def run(ds):
        return op(ds, "g", "x", [0.5, 0.9])
    return t, run, want, schema, \
        lambda rows: sorted((r["group"], r["q0"], r["q1"]) for r in rows)


def _docs(keys, first_id: int = 1) -> pa.Table:
    return pa.table({
        "doc_id": pa.array(range(first_id, first_id + len(keys)),
                           pa.int64()),
        "text": pa.array([f"Text  {k} body" for k in keys], pa.string())})


_DOC_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _exact(keys):
    t = _docs(keys)
    first: dict = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        first.setdefault(" ".join(x.lower().split()), i)
    want = sorted(first.values())
    return t, dedup.exact_dedup, want, _DOC_SCHEMA, \
        lambda rows: sorted(r["doc_id"] for r in rows)


def _incremental(keys):
    t = _docs(keys)
    ref = _docs([0, 3, 7, 99], first_id=10_000)
    seen = {" ".join(x.lower().split()) for x in ref["text"].to_pylist()}
    first: dict = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        first.setdefault(" ".join(x.lower().split()), i)
    want = sorted(i for x, i in first.items() if x not in seen)

    def run(ds):
        return dedup.incremental_dedup(ds, rd.from_arrow(ref))
    return t, run, want, _DOC_SCHEMA, \
        lambda rows: sorted(r["doc_id"] for r in rows)


def _spans(keys):
    t = _docs(keys)
    wins = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = x.lower().split()
        wins[i] = [tuple(ws[j:j + 2]) for j in range(len(ws) - 1)]
    tot: dict = {}
    for ws in wins.values():
        for w in ws:
            tot[w] = tot.get(w, 0) + 1
    want = sorted((i, len(ws), sum(tot[w] >= 2 for w in ws))
                  for i, ws in wins.items() if ws)
    schema = pa.schema([("doc_id", pa.int64()), ("n_windows", pa.int64()),
                        ("n_dup_windows", pa.int64())])

    def run(ds):
        return spans.dup_span_stats(ds, window=2)
    return t, run, want, schema, lambda rows: sorted(
        (r["doc_id"], r["n_windows"], r["n_dup_windows"]) for r in rows)


_OPS = {
    "keyed_sum_auto": _keyed_sum,
    "group_quantiles": lambda keys: _quantile_case(keys, False),
    "group_quantiles_continuous": lambda keys: _quantile_case(keys, True),
    "exact_dedup": _exact,
    "incremental_dedup": _incremental,
    "dup_span_stats": _spans,
}


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("op", list(_OPS))
def test_detwinned_operator_edge_inputs(ray_session, monkeypatch, op, case):
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", N)
    t, run, want, schema, rows_of = _OPS[op](_keys(case))
    out = run(_dataset(case, t))
    got = _rows(out)
    assert rows_of(got) == want
    sch = out.schema()
    assert sch is not None, "untyped result"
    assert list(sch.names) == schema.names
    assert list(sch.types) == schema.types
